//! Golden-fixture conformance suite for the wire format.
//!
//! `fixtures/*.bin` are checked-in byte-exact encodings of one frame per
//! (kind, codec) combination. Every test decodes its fixture, asserts the decoded message field-for-field, re-encodes it and asserts the
//! bytes are identical to the file — so *any* drift in the header layout, the
//! codec negotiation bits, the f16 quantization or the rle token stream fails
//! loudly instead of silently changing the format.
//!
//! To regenerate after an *intentional* format change:
//!
//! ```text
//! EDVIT_REGEN_FIXTURES=1 cargo test -p edvit-edge --test wire_conformance
//! ```
//!
//! and commit the new `.bin` files together with the format change.

use std::path::PathBuf;

use bytes::{f16_bits_to_f32, Bytes};
use edvit_edge::wire::{
    batch_frame_len_coded, PayloadCodec, CONTROL_FRAME_LEN, CONTROL_PAYLOAD_LEN, FLAG_CHECKSUM,
    FLAG_CODEC_MASK, FLAG_CODEC_SHIFT, V2_HEADER_LEN, WIRE_MAGIC, WIRE_VERSION,
};
use edvit_edge::{ControlMessage, FeatureBatchMessage, WireFrame};

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Loads the fixture, or — when `EDVIT_REGEN_FIXTURES=1` — writes `encoded`
/// as the new golden bytes first.
fn fixture_bytes(name: &str, encoded: &Bytes) -> Vec<u8> {
    let path = fixture_path(name);
    if std::env::var("EDVIT_REGEN_FIXTURES").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir fixtures");
        std::fs::write(&path, encoded.as_slice()).expect("write fixture");
    }
    std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run with EDVIT_REGEN_FIXTURES=1 to create it",
            path.display()
        )
    })
}

/// The deterministic batch every batch fixture encodes: two samples of an
/// 8-dim feature. Row 0 carries runs (rle repeat tokens), row 1 carries
/// distinct values (literal tokens), so the compressed fixture pins down both
/// token kinds. All values are exact halves: the decoded message is the same
/// whatever the codec.
fn golden_batch() -> FeatureBatchMessage {
    let mut batch = FeatureBatchMessage::new(2, 8);
    batch
        .push_feature(7, &[0.0, 0.0, 0.0, 0.0, 1.5, 1.5, 1.5, 1.5])
        .expect("dims match");
    batch
        .push_feature(9, &[1.0, -2.0, 3.0, -4.0, 0.5, -0.25, 8.0, -16.0])
        .expect("dims match");
    batch
}

fn golden_control() -> ControlMessage {
    ControlMessage::heartbeat(5, 12, 4.56e8)
}

/// Decode the golden bytes, compare to `expected`, re-encode via `reencode`
/// and require byte identity with the fixture.
fn assert_conformance<F>(name: &str, encoded: Bytes, expected: &WireFrame, reencode: F)
where
    F: Fn(&WireFrame) -> Bytes,
{
    let golden = fixture_bytes(name, &encoded);
    assert_eq!(
        encoded.as_slice(),
        golden.as_slice(),
        "{name}: the encoder no longer reproduces the checked-in bytes"
    );
    let decoded = WireFrame::decode(Bytes::from(golden.clone()))
        .unwrap_or_else(|e| panic!("{name}: golden fixture no longer decodes: {e}"));
    assert_eq!(&decoded, expected, "{name}: decoded message drifted");
    let reencoded = reencode(&decoded);
    assert_eq!(
        reencoded.as_slice(),
        golden.as_slice(),
        "{name}: decode → re-encode is not byte-identical"
    );
}

#[test]
fn v2_batch_frames_are_byte_stable_under_every_codec() {
    let batch = golden_batch();
    let expected = WireFrame::FeatureBatch(batch.clone());
    for (codec, name) in [
        (PayloadCodec::F32, "v2_batch_f32.bin"),
        (PayloadCodec::F16, "v2_batch_f16.bin"),
        (PayloadCodec::F16Rle, "v2_batch_f16_rle.bin"),
    ] {
        assert_conformance(
            name,
            batch.encode_with(codec),
            &expected,
            move |frame| match frame {
                WireFrame::FeatureBatch(b) => b.encode_with(codec),
                other => panic!("expected a batch frame, got {other:?}"),
            },
        );
    }
}

#[test]
fn v2_control_frame_is_byte_stable() {
    let msg = golden_control();
    let expected = WireFrame::Control(msg);
    assert_conformance(
        "v2_control_heartbeat.bin",
        msg.encode(),
        &expected,
        |frame| match frame {
            WireFrame::Control(m) => m.encode(),
            other => panic!("expected a control frame, got {other:?}"),
        },
    );
}

#[test]
fn fixture_headers_pin_the_constants() {
    // Independent of the encoder: the fixture *files* carry the header
    // constants, so changing a constant without regenerating fails here.
    for (name, kind, codec) in [
        ("v2_batch_f32.bin", 2u8, PayloadCodec::F32),
        ("v2_batch_f16.bin", 2, PayloadCodec::F16),
        ("v2_batch_f16_rle.bin", 2, PayloadCodec::F16Rle),
        ("v2_control_heartbeat.bin", 3, PayloadCodec::F32),
    ] {
        let bytes = std::fs::read(fixture_path(name)).expect("fixture present");
        assert!(bytes.len() >= V2_HEADER_LEN, "{name}");
        assert_eq!(&bytes[..4], &WIRE_MAGIC, "{name}: magic");
        assert_eq!(bytes[4], WIRE_VERSION, "{name}: version");
        assert_eq!(bytes[5], FLAG_CHECKSUM | codec.flag_bits(), "{name}: flags");
        assert_eq!(bytes[6], kind, "{name}: kind");
        assert_eq!(bytes[7], 0, "{name}: reserved byte");
        let payload_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        assert_eq!(payload_len, bytes.len() - V2_HEADER_LEN, "{name}: length");
    }
}

#[test]
fn the_readme_layout_tables_state_the_wire_constants() {
    // The README is the protocol spec a peer implements from: each header
    // and flag constant must read the same there as in `wire.rs`.
    let readme = include_str!("../README.md");
    let bits = |mask: u8| {
        let (lo, hi) = (mask.trailing_zeros(), 7 - mask.leading_zeros());
        if lo == hi {
            lo.to_string()
        } else {
            format!("{lo}\u{2013}{hi}")
        }
    };
    let magic: Vec<String> = WIRE_MAGIC.iter().map(|b| format!("{b:02X}")).collect();
    let magic = magic.join(" ");
    assert!(
        readme
            .lines()
            .any(|l| l.contains(" magic ") && l.contains(&magic)),
        "README.md has no `magic  {magic}` header row"
    );
    for row in [
        format!("(currently {WIRE_VERSION})"),
        format!("starts with a {V2_HEADER_LEN}-byte header"),
        format!("`CONTROL_PAYLOAD_LEN` = {CONTROL_PAYLOAD_LEN} bytes"),
        format!("`CONTROL_FRAME_LEN` = {CONTROL_FRAME_LEN} with"),
        format!("| {} | CRC-32 present", bits(FLAG_CHECKSUM)),
        format!("| {} | payload codec", bits(FLAG_CODEC_MASK)),
    ] {
        assert!(readme.contains(&row), "README.md does not say `{row}`");
    }
    assert_eq!(
        u32::from(FLAG_CODEC_SHIFT),
        FLAG_CODEC_MASK.trailing_zeros()
    );
}

#[test]
fn fixture_sizes_match_the_analytic_frame_lengths() {
    let f32_len = std::fs::read(fixture_path("v2_batch_f32.bin"))
        .unwrap()
        .len();
    let f16_len = std::fs::read(fixture_path("v2_batch_f16.bin"))
        .unwrap()
        .len();
    let rle_len = std::fs::read(fixture_path("v2_batch_f16_rle.bin"))
        .unwrap()
        .len();
    assert_eq!(f32_len, batch_frame_len_coded(2, 8, PayloadCodec::F32));
    assert_eq!(f16_len, batch_frame_len_coded(2, 8, PayloadCodec::F16));
    // 16 values at 4 bytes vs 2 bytes: exactly 32 bytes saved.
    assert_eq!(f32_len - f16_len, 32);
    // The golden batch compresses (run of zeros + run of 1.5s), so the rle
    // frame undercuts plain f16 and stays under the pessimistic bound.
    assert!(rle_len < f16_len, "{rle_len} !< {f16_len}");
    assert!(rle_len <= batch_frame_len_coded(2, 8, PayloadCodec::F16Rle));
    let control_len = std::fs::read(fixture_path("v2_control_heartbeat.bin"))
        .unwrap()
        .len();
    assert_eq!(control_len, CONTROL_FRAME_LEN);
}

#[test]
fn f16_fixture_values_are_exact_halves() {
    // The golden values were chosen to be exactly representable in f16, so
    // the same in-memory message round-trips through every codec; guard that
    // property here so a fixture edit cannot silently break cross-codec
    // equality.
    for &v in &golden_batch().features {
        assert_eq!(
            f16_bits_to_f32(bytes::f32_to_f16_bits(v)),
            v,
            "golden value {v} is not exactly representable in f16"
        );
    }
}
