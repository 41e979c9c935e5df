//! The coordinator↔site control envelope and its framed send/receive
//! helpers.
//!
//! A [`WireRequest::Round`] carries the *pre-encoded* protocol message as a
//! byte body rather than the typed value: the coordinator charges its
//! traffic meters with exactly `body.len()` bytes, and the reply's body is
//! charged the same way — so the envelope (handshake, tags, the ops/busy
//! meters riding along) is free, precisely like the simulator, which
//! charges `encoded_size` of the protocol message and nothing else.

use crate::codec::{self, CodecError};
use crate::frame;
use paxml_distsim::SiteId;
use paxml_fragment::Fragment;
use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};

/// A coordinator→site control message.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum WireRequest {
    /// Handshake: tell the site which [`SiteId`] it plays.
    Hello {
        /// The identity this site assumes.
        site: SiteId,
    },
    /// Install fragments at the site (during deployment).
    Load {
        /// The fragments this site will own.
        fragments: Vec<Fragment>,
    },
    /// One protocol round: `body` is an encoded
    /// [`ProtocolRequest`](paxml_core::ProtocolRequest).
    Round {
        /// The encoded protocol request; its length is the metered
        /// request traffic.
        body: Vec<u8>,
    },
    /// Ask how many scratch entries are parked (test instrumentation).
    ScratchLen,
    /// Ask what the site currently stores (control-plane observability for
    /// the rebalance planner; uncharged, like `ScratchLen`).
    SiteLoad,
    /// Clean shutdown: the site replies [`WireReply::ShuttingDown`] and
    /// exits its accept loop.
    Shutdown,
}

/// A site→coordinator reply, one variant per [`WireRequest`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum WireReply {
    /// Handshake acknowledged.
    Hello {
        /// The identity the site assumed.
        site: SiteId,
    },
    /// Fragments installed.
    Loaded {
        /// How many fragments the site now owns.
        fragments: usize,
    },
    /// A protocol round's outcome.
    Round {
        /// Elementary operations the task charged (the paper's computation
        /// meter — identical to what the simulator would have charged).
        ops: u64,
        /// Wall-clock nanoseconds the site spent in the task.
        busy_nanos: u64,
        /// The encoded [`ProtocolResponse`](paxml_core::ProtocolResponse);
        /// its length is the metered response traffic.
        body: Vec<u8>,
    },
    /// Current scratch-store size.
    ScratchLen {
        /// Number of parked scratch entries.
        len: usize,
    },
    /// What the site currently stores.
    SiteLoad {
        /// Per-fragment resident bytes at the site's newest epoch.
        report: paxml_distsim::SiteLoadReport,
    },
    /// The site is exiting its accept loop.
    ShuttingDown,
    /// The request could not be served (decode failure, task panic). The
    /// connection stays usable; the coordinator surfaces this as a
    /// protocol-violation error.
    Error {
        /// Human-readable description of what went wrong site-side.
        message: String,
    },
}

/// Encode `message` and write it as one frame.
pub fn send<T: Serialize>(writer: &mut impl Write, message: &T) -> io::Result<()> {
    frame::write_frame(writer, &codec::encode(message))
}

/// Read one frame and decode it as a `T`.
pub fn recv<T: for<'de> Deserialize<'de>>(reader: &mut impl Read) -> io::Result<T> {
    let payload = frame::read_frame(reader)?;
    codec::decode(&payload).map_err(invalid_data)
}

/// Map a codec failure onto the io error domain the socket paths live in.
fn invalid_data(err: CodecError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, err.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_envelope_roundtrips_over_a_buffer() {
        let mut pipe = Vec::new();
        send(&mut pipe, &WireRequest::Hello { site: SiteId(3) }).unwrap();
        send(&mut pipe, &WireRequest::Round { body: vec![1, 2, 3] }).unwrap();
        send(&mut pipe, &WireRequest::Shutdown).unwrap();
        let mut cursor = io::Cursor::new(pipe);
        assert!(matches!(
            recv::<WireRequest>(&mut cursor).unwrap(),
            WireRequest::Hello { site: SiteId(3) }
        ));
        assert!(
            matches!(recv::<WireRequest>(&mut cursor).unwrap(), WireRequest::Round { body } if body == vec![1, 2, 3])
        );
        assert!(matches!(recv::<WireRequest>(&mut cursor).unwrap(), WireRequest::Shutdown));
    }

    #[test]
    fn a_garbage_frame_decodes_to_invalid_data() {
        let mut pipe = Vec::new();
        frame::write_frame(&mut pipe, &[0xee, 0xee, 0xee]).unwrap();
        let mut cursor = io::Cursor::new(pipe);
        assert_eq!(recv::<WireReply>(&mut cursor).unwrap_err().kind(), io::ErrorKind::InvalidData);
    }
}
