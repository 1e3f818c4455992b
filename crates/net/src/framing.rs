//! Incremental assembly of `u32` length-prefixed messages from an
//! arbitrarily fragmented byte stream.
//!
//! This is the framing layer every [`Session`](crate::session::Session)
//! runs over its per-connection [`RingBuf`]: bytes arrive in whatever
//! fragments the driver lands, and [`FrameAssembler::next_message`]
//! yields each complete message body exactly once, borrowing it zero-copy
//! from the ring. The same type drives the fragmentation property tests,
//! so the code under test is the code in production.

use crate::protocol::MAX_MESSAGE_LEN;
use saad_reactor::RingBuf;

/// Error from [`FrameAssembler::next_message`]: a length prefix exceeded
/// [`MAX_MESSAGE_LEN`]. Message boundaries can no longer be found; the
/// stream is unrecoverable and must be closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OversizedPrefix(
    /// The bogus length the prefix claimed.
    pub u64,
);

impl std::fmt::Display for OversizedPrefix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "length prefix {} exceeds the {MAX_MESSAGE_LEN}-byte message bound",
            self.0
        )
    }
}

impl std::error::Error for OversizedPrefix {}

/// Reassembles length-prefixed messages from stream fragments.
///
/// Feed bytes either by copy ([`FrameAssembler::extend`]) or by vectored
/// reads straight into [`FrameAssembler::ring_mut`], then drain with
/// [`FrameAssembler::next_message`] until it returns `Ok(None)`.
#[derive(Debug)]
pub struct FrameAssembler {
    ring: RingBuf,
    /// Bytes of the message returned by the previous `next_message`
    /// call (prefix + body), consumed lazily on the next call — this is
    /// what lets `next_message` hand out a borrow of the ring.
    pending: usize,
    stalls: u64,
}

impl FrameAssembler {
    /// An assembler whose ring starts at `capacity` bytes (it grows on
    /// demand up to the size of the largest legal message).
    #[must_use]
    pub fn new(capacity: usize) -> FrameAssembler {
        FrameAssembler {
            ring: RingBuf::with_capacity(capacity),
            pending: 0,
            stalls: 0,
        }
    }

    /// Append one fragment by copy.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.ring.extend_from_slice(bytes);
    }

    /// The underlying ring, for landing vectored reads without a copy.
    /// Only append (`write_slices` + `commit`); never consume — the
    /// assembler owns consumption.
    pub fn ring_mut(&mut self) -> &mut RingBuf {
        &mut self.ring
    }

    /// Bytes currently buffered and not yet returned as a message.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.ring.len() - self.pending
    }

    /// Drop everything buffered (a peer that was refused is not parsed).
    pub fn clear(&mut self) {
        let len = self.ring.len();
        self.ring.consume(len);
        self.pending = 0;
    }

    /// Drain calls that ended on a partial message — the "decode stall"
    /// count: how often the stream paused mid-message.
    #[must_use]
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// The next complete message body, zero-copy from the ring; `None`
    /// when more bytes are needed. The returned slice is valid until the
    /// next call on this assembler (which consumes it).
    ///
    /// # Errors
    ///
    /// [`OversizedPrefix`] when a prefix exceeds [`MAX_MESSAGE_LEN`]:
    /// close the stream.
    pub fn next_message(&mut self) -> Result<Option<&[u8]>, OversizedPrefix> {
        if self.pending > 0 {
            self.ring.consume(self.pending);
            self.pending = 0;
        }
        if self.ring.len() < 4 {
            if !self.ring.is_empty() {
                self.stalls += 1;
            }
            return Ok(None);
        }
        let prefix = self.ring.contiguous(4).expect("4 bytes buffered");
        let len = u32::from_be_bytes(prefix.try_into().expect("4 bytes")) as usize;
        if len > MAX_MESSAGE_LEN {
            return Err(OversizedPrefix(len as u64));
        }
        let whole = 4 + len;
        if self.ring.len() < whole {
            // Pre-size the ring so the rest of the message lands without
            // mid-read growth.
            self.ring.grow(whole);
            self.stalls += 1;
            return Ok(None);
        }
        self.pending = whole;
        let msg = self.ring.contiguous(whole).expect("whole message buffered");
        Ok(Some(&msg[4..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prefixed(body: &[u8]) -> Vec<u8> {
        let mut v = (body.len() as u32).to_be_bytes().to_vec();
        v.extend_from_slice(body);
        v
    }

    #[test]
    fn whole_messages_come_back_in_order() {
        let mut a = FrameAssembler::new(64);
        a.extend(&prefixed(b"first"));
        a.extend(&prefixed(b"second"));
        assert_eq!(a.next_message().unwrap().unwrap(), b"first");
        assert_eq!(a.next_message().unwrap().unwrap(), b"second");
        assert_eq!(a.next_message().unwrap(), None);
        assert_eq!(a.buffered(), 0);
        assert_eq!(a.stalls(), 0);
    }

    #[test]
    fn byte_at_a_time_reassembles() {
        let wire: Vec<u8> = [prefixed(b"hello"), prefixed(b""), prefixed(b"world!")].concat();
        let mut a = FrameAssembler::new(64);
        let mut got: Vec<Vec<u8>> = Vec::new();
        for &b in &wire {
            a.extend(&[b]);
            while let Some(msg) = a.next_message().unwrap() {
                got.push(msg.to_vec());
            }
        }
        assert_eq!(
            got,
            vec![b"hello".to_vec(), b"".to_vec(), b"world!".to_vec()]
        );
        assert!(a.stalls() > 0, "trickled input must register stalls");
    }

    #[test]
    fn oversized_prefix_is_fatal() {
        let mut a = FrameAssembler::new(64);
        a.extend(&(MAX_MESSAGE_LEN as u32 + 1).to_be_bytes());
        assert_eq!(
            a.next_message(),
            Err(OversizedPrefix(MAX_MESSAGE_LEN as u64 + 1))
        );
    }

    #[test]
    fn message_larger_than_initial_ring_grows() {
        let big = vec![7u8; 10_000];
        let mut a = FrameAssembler::new(64);
        a.extend(&prefixed(&big));
        assert_eq!(a.next_message().unwrap().unwrap(), &big[..]);
    }
}
