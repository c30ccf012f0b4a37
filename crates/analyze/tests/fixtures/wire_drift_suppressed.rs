//! Fixture: `wire-const-drift` suppressed case — same drift, allowed inline.

pub const WIRE_MAGIC: [u8; 4] = [0xED, b'V', b'I', b'T'];
// edvit:allow(wire-const-drift)
pub const WIRE_VERSION: u8 = 3;
// edvit:allow(wire-const-drift)
pub const V2_HEADER_LEN: usize = 20;
pub const CONTROL_PAYLOAD_LEN: usize = 24;
// edvit:allow(wire-const-drift)
pub const CONTROL_FRAME_LEN: usize = V2_HEADER_LEN + CONTROL_PAYLOAD_LEN;
pub const FLAG_CHECKSUM: u8 = 0b0000_0001;
pub const FLAG_CODEC_MASK: u8 = 0b0000_0110;
pub const FLAG_CODEC_SHIFT: u8 = 1;
