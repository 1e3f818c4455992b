//! Per-connection byte ring: the landing zone for vectored socket reads
//! and the source for incremental frame decoding.
//!
//! The buffer is a true circular ring — free space is exposed as up to
//! two slices for `readv`-style vectored reads, and buffered bytes are
//! consumed without ever shifting the unconsumed tail. Decoders that
//! need `n` *contiguous* bytes call [`RingBuf::contiguous`], which
//! linearizes in place (one `rotate_left`) only when the requested span
//! actually wraps — the rare case once the ring is sized to a few
//! frames.
//!
//! Ownership rule (see DESIGN.md §16): the ring belongs to exactly one
//! connection on exactly one event-loop thread. Decoded borrows from
//! [`RingBuf::contiguous`] never escape the loop iteration that produced
//! them; everything leaving the loop is copied into batch columns.

use std::io::IoSliceMut;

/// A growable circular byte buffer.
#[derive(Debug)]
pub struct RingBuf {
    buf: Box<[u8]>,
    /// Index of the first unconsumed byte.
    head: usize,
    /// Number of unconsumed bytes.
    len: usize,
}

impl RingBuf {
    /// A ring with `capacity` rounded up to a power of two (minimum 64).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> RingBuf {
        let cap = capacity.max(64).next_power_of_two();
        RingBuf {
            buf: vec![0u8; cap].into_boxed_slice(),
            head: 0,
            len: 0,
        }
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Unconsumed bytes currently buffered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the ring holds no unconsumed bytes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Free space available for writing.
    #[must_use]
    pub fn free(&self) -> usize {
        self.capacity() - self.len
    }

    /// The free region as up to two mutable slices, in write order —
    /// ready to pass to `read_vectored`. Empty slices are possible when
    /// the ring is full or the free region does not wrap.
    pub fn write_slices(&mut self) -> (&mut [u8], &mut [u8]) {
        let cap = self.buf.len();
        let tail = (self.head + self.len) % cap;
        if self.len == 0 {
            // Reset to offset 0 when empty: maximizes the contiguous
            // write region and makes the no-wrap fast path the norm.
            self.head = 0;
            let (a, _) = self.buf.split_at_mut(cap);
            return (a, &mut [][..]);
        }
        if tail >= self.head {
            // Data is contiguous; free space wraps: [tail..cap) then
            // [0..head).
            let (front, back) = self.buf.split_at_mut(tail);
            (&mut back[..], &mut front[..self.head])
        } else {
            // Data wraps; free space is the single gap [tail..head).
            (&mut self.buf[tail..self.head], &mut [][..])
        }
    }

    /// The free region as `IoSliceMut`s for a vectored read, without an
    /// allocation: the second slice is empty when the free region does not
    /// wrap, which `readv` accepts.
    pub fn io_slices(&mut self) -> [IoSliceMut<'_>; 2] {
        let (a, b) = self.write_slices();
        [IoSliceMut::new(a), IoSliceMut::new(b)]
    }

    /// Mark `n` bytes of the write region as filled.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the free space.
    pub fn commit(&mut self, n: usize) {
        assert!(n <= self.free(), "commit past free space");
        self.len += n;
    }

    /// Append bytes by copy (the non-vectored path: tests, proxies, and
    /// fragments handed in by code that already owns the bytes). Grows
    /// the ring as needed.
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        if bytes.len() > self.free() {
            self.grow(self.len + bytes.len());
        }
        let mut remaining = bytes;
        while !remaining.is_empty() {
            let (a, b) = self.write_slices();
            let target = if a.is_empty() { b } else { a };
            let n = remaining.len().min(target.len());
            target[..n].copy_from_slice(&remaining[..n]);
            remaining = &remaining[n..];
            self.len += n;
        }
    }

    /// Drop `n` consumed bytes from the front.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the buffered length.
    pub fn consume(&mut self, n: usize) {
        assert!(n <= self.len, "consume past buffered length");
        self.head = (self.head + n) % self.buf.len();
        self.len -= n;
        if self.len == 0 {
            self.head = 0;
        }
    }

    /// Borrow the first `n` buffered bytes as one contiguous slice,
    /// linearizing the ring in place if the span wraps. Returns `None`
    /// when fewer than `n` bytes are buffered.
    pub fn contiguous(&mut self, n: usize) -> Option<&[u8]> {
        if n > self.len {
            return None;
        }
        let cap = self.buf.len();
        if self.head + n > cap {
            // The span wraps: rotate the whole ring so data starts at 0.
            // O(capacity), but only ever on a wrapped span — amortized
            // away once the ring is sized to the workload.
            self.buf.rotate_left(self.head);
            self.head = 0;
        }
        Some(&self.buf[self.head..self.head + n])
    }

    /// Grow capacity to at least `min_capacity` (next power of two),
    /// linearizing in the process. No-op when already large enough.
    pub fn grow(&mut self, min_capacity: usize) {
        if min_capacity <= self.capacity() {
            return;
        }
        let new_cap = min_capacity.next_power_of_two();
        let mut new_buf = vec![0u8; new_cap].into_boxed_slice();
        let (a, b) = self.read_slices();
        new_buf[..a.len()].copy_from_slice(a);
        new_buf[a.len()..a.len() + b.len()].copy_from_slice(b);
        self.buf = new_buf;
        self.head = 0;
    }

    /// The buffered bytes as up to two slices in read order.
    #[must_use]
    pub fn read_slices(&self) -> (&[u8], &[u8]) {
        let cap = self.buf.len();
        let end = self.head + self.len;
        if end <= cap {
            (&self.buf[self.head..end], &[][..])
        } else {
            (&self.buf[self.head..], &self.buf[..end - cap])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_consume_round_trip() {
        let mut r = RingBuf::with_capacity(64);
        assert_eq!(r.capacity(), 64);
        r.extend_from_slice(b"hello world");
        assert_eq!(r.len(), 11);
        assert_eq!(r.contiguous(5).unwrap(), b"hello");
        r.consume(6);
        assert_eq!(r.contiguous(5).unwrap(), b"world");
        r.consume(5);
        assert!(r.is_empty());
    }

    #[test]
    fn wrapping_span_is_linearized() {
        let mut r = RingBuf::with_capacity(64);
        // Fill to near the end, consume most, then wrap.
        r.extend_from_slice(&[1u8; 60]);
        r.consume(58);
        r.extend_from_slice(&[2u8; 30]); // wraps past index 64
        assert_eq!(r.len(), 32);
        let got = r.contiguous(32).unwrap();
        assert_eq!(&got[..2], &[1, 1]);
        assert!(got[2..].iter().all(|&b| b == 2));
    }

    #[test]
    fn write_slices_cover_free_space_exactly() {
        let mut r = RingBuf::with_capacity(64);
        r.extend_from_slice(&[7u8; 10]);
        r.consume(4);
        let free = r.free();
        let (a, b) = r.write_slices();
        assert_eq!(a.len() + b.len(), free);
    }

    #[test]
    fn io_slices_are_the_write_slices_and_land_a_vectored_read() {
        use std::io::Read;
        let mut r = RingBuf::with_capacity(64);
        r.extend_from_slice(&[7u8; 60]);
        r.consume(50);
        // Free space wraps: 4 bytes to the end, then 50 from the start.
        let lens = |s: [IoSliceMut<'_>; 2]| s.map(|s| s.len());
        assert_eq!(lens(r.io_slices()), [4, 50]);
        let wire: Vec<u8> = (0..20).collect();
        let n = (&wire[..]).read_vectored(&mut r.io_slices()).unwrap();
        r.commit(n);
        r.consume(10);
        assert_eq!(r.contiguous(20).unwrap(), &wire[..]);
        // An unwrapped free region leaves the second slice empty.
        r.consume(20);
        assert_eq!(lens(r.io_slices()), [64, 0]);
    }

    #[test]
    fn commit_after_manual_fill() {
        let mut r = RingBuf::with_capacity(64);
        {
            let (a, _) = r.write_slices();
            a[..3].copy_from_slice(b"abc");
        }
        r.commit(3);
        assert_eq!(r.contiguous(3).unwrap(), b"abc");
    }

    #[test]
    fn grow_preserves_order_across_wrap() {
        let mut r = RingBuf::with_capacity(64);
        r.extend_from_slice(&[1u8; 50]);
        r.consume(40);
        r.extend_from_slice(&[2u8; 40]); // wrapped
        r.grow(256);
        assert!(r.capacity() >= 256);
        let got = r.contiguous(50).unwrap().to_vec();
        assert_eq!(&got[..10], &[1u8; 10]);
        assert_eq!(&got[10..], &[2u8; 40]);
    }

    #[test]
    fn extend_grows_automatically() {
        let mut r = RingBuf::with_capacity(64);
        let big: Vec<u8> = (0..200u16).map(|i| i as u8).collect();
        r.extend_from_slice(&big);
        assert_eq!(r.contiguous(200).unwrap(), &big[..]);
    }

    #[test]
    fn contiguous_short_returns_none() {
        let mut r = RingBuf::with_capacity(64);
        r.extend_from_slice(b"abc");
        assert!(r.contiguous(4).is_none());
        assert_eq!(r.contiguous(3).unwrap(), b"abc");
    }
}
