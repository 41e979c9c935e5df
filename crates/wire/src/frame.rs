//! Per-message framing: a 4-byte little-endian length prefix followed by
//! the payload.
//!
//! ```text
//!  ┌────────────┬─────────────────────────────┐
//!  │ len: u32 LE│ payload (len bytes)         │
//!  └────────────┴─────────────────────────────┘
//! ```
//!
//! The prefix lets both peers read exactly one message per call without any
//! in-band delimiters; [`MAX_FRAME_LEN`] bounds the allocation a malformed
//! or hostile prefix could cause.

use std::io::{self, Read, Write};

/// Upper bound on a frame payload (64 MiB). The largest legitimate message
/// is a naive-baseline fragment shipment; anything bigger than this is a
/// corrupted length prefix, not data.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Write one length-prefixed frame — prefix and payload in a single
/// `write_all`, so a `TCP_NODELAY` socket sends one segment train and a
/// Nagle-ing one never parks the payload behind the prefix's ACK — and
/// flush it.
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds the {MAX_FRAME_LEN}-byte cap", payload.len()),
        ));
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    writer.write_all(&frame)?;
    writer.flush()
}

/// Read one length-prefixed frame.
pub fn read_frame(reader: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut prefix = [0u8; 4];
    reader.read_exact(&mut prefix)?;
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let mut pipe = Vec::new();
        write_frame(&mut pipe, b"hello").unwrap();
        write_frame(&mut pipe, b"").unwrap();
        write_frame(&mut pipe, &[0xff; 300]).unwrap();
        let mut cursor = io::Cursor::new(pipe);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap(), b"");
        assert_eq!(read_frame(&mut cursor).unwrap(), vec![0xff; 300]);
        // The stream is exhausted: the next read reports a clean EOF.
        assert_eq!(read_frame(&mut cursor).unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_prefix_is_rejected_without_allocating() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cursor = io::Cursor::new(bytes);
        assert_eq!(read_frame(&mut cursor).unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_payload_is_an_eof() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&8u32.to_le_bytes());
        bytes.extend_from_slice(b"shor");
        let mut cursor = io::Cursor::new(bytes);
        assert_eq!(read_frame(&mut cursor).unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    }
}
