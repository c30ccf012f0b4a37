//! The lane envelope: what one length-delimited record on a socket carries.
//!
//! Each record written by [`write_envelope`] is framed as
//! [`edvit_edge::wire::write_frame_bytes`] frames are (`[u32 LE length][body]`)
//! and its body starts with a one-byte tag:
//!
//! ```text
//! [u32 LE length] [tag u8] [payload …]
//!                  0 = encoded wire-v2 frame (the payload is the frame)
//!                  1 = peer error report (the payload is a UTF-8 message)
//! ```
//!
//! Tag 0 is the normal case — every join / heartbeat / leave / feature-batch
//! frame travels as its exact encoded bytes, so the CRC-protected wire format
//! is what crosses the socket. Tag 1 mirrors the sim backend's in-band error
//! channel: a worker whose executor failed reports the message and the stream
//! aborts, instead of the failure masquerading as a silent crash.
//!
//! An envelope costs its payload no copy in either direction. The writer
//! hands `[length | tag]` and the payload to one vectored write
//! ([`edvit_edge::wire::write_frame_parts`]): one syscall per envelope, and
//! on a `TCP_NODELAY` socket no lone 4-byte segment ahead of the body. The
//! reader receives the record into one buffer that grows with the bytes
//! actually received — a length prefix alone commits at most 256 KiB, whatever
//! it promises — and the [`Envelope::Frame`] it returns is that buffer with
//! its start moved one byte past the tag.

use bytes::{Buf, Bytes};
use edvit_edge::wire::{read_frame_bytes, write_frame_parts};

/// Envelope tag: the payload is an encoded wire-v2 frame.
pub const TAG_FRAME: u8 = 0;
/// Envelope tag: the payload is a UTF-8 peer error message.
pub const TAG_ERROR: u8 = 1;

/// One decoded lane record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Envelope {
    /// An encoded wire-v2 frame.
    Frame(Bytes),
    /// A peer-reported error (fatal for the stream).
    Error(String),
}

impl Envelope {
    /// Bytes this envelope adds on the wire beyond the payload itself: the
    /// 4-byte length prefix plus the tag byte.
    pub const OVERHEAD: usize = 5;
}

/// Writes one envelope as a length-delimited record, in one vectored write.
///
/// # Errors
///
/// Propagates any write error; an oversized payload is
/// [`std::io::ErrorKind::InvalidData`].
pub fn write_envelope<W: std::io::Write>(
    writer: &mut W,
    envelope: &Envelope,
) -> std::io::Result<()> {
    let (tag, payload): (u8, &[u8]) = match envelope {
        Envelope::Frame(frame) => (TAG_FRAME, frame.as_slice()),
        Envelope::Error(message) => (TAG_ERROR, message.as_bytes()),
    };
    write_frame_parts(writer, &[tag], payload)
}

/// Reads one envelope. Returns `Ok(None)` on a clean EOF at a record
/// boundary.
///
/// # Errors
///
/// Returns [`std::io::ErrorKind::InvalidData`] for an empty record, an
/// unknown tag, or a truncated stream, and propagates other read errors
/// (including read timeouts configured on the underlying stream).
pub fn read_envelope<R: std::io::Read>(reader: &mut R) -> std::io::Result<Option<Envelope>> {
    let Some(mut body) = read_frame_bytes(reader)? else {
        return Ok(None);
    };
    // Consuming the tag moves the buffer's start; the payload stays put.
    let Some(tag) = body.try_get_u8() else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "empty lane record (no tag byte)",
        ));
    };
    match tag {
        TAG_FRAME => Ok(Some(Envelope::Frame(body))),
        TAG_ERROR => Ok(Some(Envelope::Error(
            String::from_utf8_lossy(body.as_slice()).into_owned(),
        ))),
        other => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("unknown lane record tag {other}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edvit_edge::ControlMessage;

    #[test]
    fn envelopes_round_trip() {
        let frame = ControlMessage::join(7, 1.5e9).encode();
        let mut stream = Vec::new();
        write_envelope(&mut stream, &Envelope::Frame(frame.clone())).unwrap();
        write_envelope(&mut stream, &Envelope::Error("device 7: oom".to_string())).unwrap();
        let mut reader = stream.as_slice();
        assert_eq!(
            read_envelope(&mut reader).unwrap(),
            Some(Envelope::Frame(frame))
        );
        assert_eq!(
            read_envelope(&mut reader).unwrap(),
            Some(Envelope::Error("device 7: oom".to_string()))
        );
        assert_eq!(read_envelope(&mut reader).unwrap(), None);
    }

    #[test]
    fn bad_tag_and_empty_record_are_invalid_data() {
        // A record with an unknown tag.
        let mut stream = Vec::new();
        edvit_edge::wire::write_frame_bytes(&mut stream, &[9u8, 1, 2]).unwrap();
        let err = read_envelope(&mut stream.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("tag 9"), "{err}");
        // A record with no tag byte at all.
        let mut empty = Vec::new();
        edvit_edge::wire::write_frame_bytes(&mut empty, &[]).unwrap();
        let err = read_envelope(&mut empty.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    /// Serves a byte slice and notes where each `read` was asked to put it.
    struct Recording<'a> {
        bytes: &'a [u8],
        destinations: Vec<*const u8>,
    }

    impl std::io::Read for Recording<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.destinations.push(buf.as_ptr());
            std::io::Read::read(&mut self.bytes, buf)
        }
    }

    #[test]
    fn a_frame_envelope_is_the_buffer_it_was_read_into() {
        let frame = ControlMessage::heartbeat(3, 9, 1.0e9).encode();
        let mut stream = Vec::new();
        write_envelope(&mut stream, &Envelope::Frame(frame.clone())).unwrap();
        let mut reader = Recording {
            bytes: &stream,
            destinations: Vec::new(),
        };
        let Some(Envelope::Frame(read)) = read_envelope(&mut reader).unwrap() else {
            panic!("expected a frame envelope");
        };
        assert_eq!(read, frame);
        // Read 0 filled the length prefix, read 1 put `[tag | frame]` at the
        // start of the record's buffer: the frame handed back is that buffer
        // one byte in — same allocation, nothing copied to drop the tag.
        let record_start = reader.destinations[1];
        assert_eq!(read.as_slice().as_ptr(), record_start.wrapping_add(1));
    }

    #[test]
    fn overhead_matches_the_layout() {
        let mut stream = Vec::new();
        let frame = ControlMessage::leave(1, 2).encode();
        write_envelope(&mut stream, &Envelope::Frame(frame.clone())).unwrap();
        assert_eq!(stream.len(), frame.len() + Envelope::OVERHEAD);
    }
}
