//! Compact binary encoding of task synopses.
//!
//! SAAD streams synopses from every node to a centralized analyzer; the
//! whole point (Figure 8) is that this stream is 15–900× smaller than
//! DEBUG-level log text. The codec uses LEB128 varints so a typical
//! synopsis (5 log points) encodes in well under 48 bytes.
//! One encoder behind every writer ([`encode`], [`encode_batch`] and the
//! transport's [`FramePayload`](crate::transport::FramePayload)), and one
//! parser behind every reader: [`decode_batch_into`] into batch columns,
//! and [`CheckedPayload::parse`] for a leaf forwarding the bytes as they
//! came.

use crate::batch::SynopsisBatch;
use crate::intern::{SignatureInterner, INLINE_POINTS};
use crate::synopsis::{SynopsisHead, TaskSynopsis};
use crate::{HostId, StageId, TaskUid};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use saad_logging::LogPointId;
use saad_sim::{SimDuration, SimTime};
use std::fmt;

/// Error from the synopsis parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended in the middle of a field.
    UnexpectedEof,
    /// A varint ran past 10 bytes, or its 10th byte past bit 63.
    VarintOverflow,
    /// A length prefix exceeded the sanity bound, or an identifier or a
    /// visit count the range of its type.
    LengthOutOfRange(u64),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof => f.write_str("unexpected end of synopsis bytes"),
            DecodeError::VarintOverflow => f.write_str("varint wider than 64 bits"),
            DecodeError::LengthOutOfRange(n) => {
                write!(f, "length or identifier {n} exceeds its bound")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Upper bound on log points per synopsis accepted by the decoder.
const MAX_POINTS: u64 = 65_536;

/// Buffer-sizing guess: a typical synopsis encodes in fewer bytes than
/// this; a longer one just grows the buffer.
pub(crate) const TYPICAL_SYNOPSIS_LEN: usize = 24;

/// Most bytes one LEB128 `u64` occupies.
const MAX_VARINT_LEN: usize = 10;

/// Write `v` as a varint at `out[pos..]` and return the position just
/// past it. `out` must have [`MAX_VARINT_LEN`] bytes of room at `pos`.
#[inline]
fn put_varint_at(out: &mut [u8], mut pos: usize, mut v: u64) -> usize {
    while v >= 0x80 {
        out[pos] = v as u8 | 0x80;
        v >>= 7;
        pos += 1;
    }
    out[pos] = v as u8;
    pos + 1
}

pub(crate) fn put_varint(buf: &mut BytesMut, v: u64) {
    let mut tmp = [0u8; MAX_VARINT_LEN];
    let n = put_varint_at(&mut tmp, 0, v);
    buf.extend_from_slice(&tmp[..n]);
}

/// Slice-based varint read for the zero-copy decode path: advances
/// `pos` without consuming or copying the underlying buffer. Nine bytes
/// carry 63 bits and a tenth only bit 63: a tenth byte above 1 would have
/// its high bits dropped, and the varint read as another value.
fn get_varint_at(buf: &[u8], pos: &mut usize) -> Result<u64, DecodeError> {
    let mut v = 0u64;
    for shift in (0..70).step_by(7) {
        let Some(&byte) = buf.get(*pos) else {
            return Err(DecodeError::UnexpectedEof);
        };
        *pos += 1;
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            if shift == 63 && byte > 1 {
                return Err(DecodeError::VarintOverflow);
            }
            return Ok(v);
        }
    }
    Err(DecodeError::VarintOverflow)
}

/// Narrow a decoded host, stage or point id to its 16-bit type. The
/// encoder never writes a wider one, and truncating it would alias a
/// legitimate id — a malformed frame or checkpoint that passes its CRC
/// would be counted under a real flow.
pub(crate) fn id16(v: u64) -> Result<u16, DecodeError> {
    u16::try_from(v).map_err(|_| DecodeError::LengthOutOfRange(v))
}

pub(crate) fn get_varint(buf: &mut Bytes) -> Result<u64, DecodeError> {
    let mut pos = 0usize;
    let v = get_varint_at(buf, &mut pos)?;
    buf.advance(pos);
    Ok(v)
}

/// Fixed-width `f64` (bit pattern, big-endian) for the checkpoint codecs:
/// varints would bloat typical float bit patterns, and round-tripping
/// through bits is exact.
pub(crate) fn put_f64(buf: &mut BytesMut, v: f64) {
    buf.put_u64(v.to_bits());
}

pub(crate) fn get_f64(buf: &mut Bytes) -> Result<f64, DecodeError> {
    if buf.remaining() < 8 {
        return Err(DecodeError::UnexpectedEof);
    }
    Ok(f64::from_bits(buf.get_u64()))
}

/// Checked single byte read (flag fields in the checkpoint codecs).
pub(crate) fn get_u8(buf: &mut Bytes) -> Result<u8, DecodeError> {
    if !buf.has_remaining() {
        return Err(DecodeError::UnexpectedEof);
    }
    Ok(buf.get_u8())
}

/// Delta-encoded sorted point list, shared by the checkpoint codecs for
/// [`crate::Signature`] contents (same scheme as synopsis log points).
pub(crate) fn put_points(buf: &mut BytesMut, points: &[LogPointId]) {
    put_varint(buf, points.len() as u64);
    let mut prev = 0u64;
    for &p in points {
        let id = p.0 as u64;
        put_varint(buf, id.wrapping_sub(prev));
        prev = id;
    }
}

pub(crate) fn get_points(buf: &mut Bytes) -> Result<Vec<LogPointId>, DecodeError> {
    let n = get_varint(buf)?;
    if n > MAX_POINTS {
        return Err(DecodeError::LengthOutOfRange(n));
    }
    let mut points = Vec::with_capacity(n as usize);
    let mut prev = 0u64;
    for _ in 0..n {
        prev = prev.wrapping_add(get_varint(buf)?);
        points.push(LogPointId(id16(prev)?));
    }
    Ok(points)
}

/// Encode a synopsis to its compact wire form.
///
/// # Example
///
/// ```
/// use saad_core::batch::SynopsisBatch;
/// use saad_core::codec::{decode_batch_into, encode};
/// use saad_core::intern::SignatureInterner;
/// use saad_core::synopsis::TaskSynopsis;
/// use saad_core::{HostId, StageId, TaskUid};
/// use saad_logging::LogPointId;
/// use saad_sim::{SimDuration, SimTime};
///
/// let s = TaskSynopsis {
///     host: HostId(0),
///     stage: StageId(4),
///     uid: TaskUid(1),
///     start: SimTime::from_millis(20),
///     duration: SimDuration::from_micros(900),
///     log_points: vec![(LogPointId(1), 1), (LogPointId(2), 3)],
/// };
/// let wire = encode(&s);
/// assert!(wire.len() < 48);
/// let interner = SignatureInterner::new();
/// let mut batch = SynopsisBatch::new();
/// assert_eq!(decode_batch_into(&wire, &mut batch, &interner), Ok(1));
/// assert_eq!((batch.uids[0], batch.starts[0]), (s.uid, s.start));
/// assert_eq!(interner.resolve(batch.sigs[0]), Some(s.signature()));
/// ```
pub fn encode(s: &TaskSynopsis) -> Bytes {
    let mut buf = BytesMut::with_capacity(24 + 4 * s.log_points.len());
    encode_parts_into(&mut buf, &s.head(), &s.log_points);
    buf.freeze()
}

/// Append the wire form of the synopsis made of `head` and `points` to
/// `buf` — the one encoder; [`encode`], [`encode_batch`] and the
/// transport's frame and payload assembly all go through it, and the
/// tracker's borrowed hand-over reaches it without ever building a
/// [`TaskSynopsis`]. The synopsis is sized for its worst case once and
/// written by index, so a reused `buf` at capacity makes this
/// allocation-free. The zero-fill of the slack is cheaper than it looks:
/// on the benchmark's synopsis mix this form measures ~18 ns per
/// synopsis, against ~38 ns for a stack scratch with one
/// `extend_from_slice` per field group and ~75 ns for one per varint
/// (`put_varint`'s form, fine off the hot path).
pub(crate) fn encode_parts_into(
    buf: &mut BytesMut,
    head: &SynopsisHead,
    points: &[(LogPointId, u32)],
) {
    let start = buf.len();
    buf.resize(start + (6 + 2 * points.len()) * MAX_VARINT_LEN, 0);
    let out = &mut buf[start..];
    let mut pos = put_varint_at(out, 0, head.host.0 as u64);
    pos = put_varint_at(out, pos, head.stage.0 as u64);
    pos = put_varint_at(out, pos, head.uid.0);
    pos = put_varint_at(out, pos, head.start.as_micros());
    pos = put_varint_at(out, pos, head.duration.as_micros());
    pos = put_varint_at(out, pos, points.len() as u64);
    // Delta-encode point ids (they are sorted ascending in a well-formed
    // synopsis) to keep most entries at 2 bytes.
    let mut prev = 0u64;
    for &(p, c) in points {
        let id = p.0 as u64;
        pos = put_varint_at(out, pos, id.wrapping_sub(prev));
        pos = put_varint_at(out, pos, c as u64);
        prev = id;
    }
    buf.truncate(start + pos);
}

/// Encode a batch of synopses back-to-back.
pub fn encode_batch<'a, I: IntoIterator<Item = &'a TaskSynopsis>>(synopses: I) -> Bytes {
    let synopses = synopses.into_iter();
    let mut out = BytesMut::with_capacity(TYPICAL_SYNOPSIS_LEN * synopses.size_hint().0);
    for s in synopses {
        encode_parts_into(&mut out, &s.head(), &s.log_points);
    }
    out.freeze()
}

/// THE synopsis parser: read the synopsis at `buf[*pos..]`, advancing
/// `pos` past it, and return its head and its number of points `n`. Each
/// point goes to `point(i, n, id, visits)` on the way. Every field is
/// range-checked here, once for every reader: an id past 16 bits, a visit
/// count past 32 or a point list past [`MAX_POINTS`] is refused, never
/// truncated into a legitimate value.
#[inline]
pub(crate) fn parse_at(
    buf: &[u8],
    pos: &mut usize,
    mut point: impl FnMut(usize, usize, LogPointId, u32),
) -> Result<(SynopsisHead, usize), DecodeError> {
    let head = SynopsisHead {
        host: HostId(id16(get_varint_at(buf, pos)?)?),
        stage: StageId(id16(get_varint_at(buf, pos)?)?),
        uid: TaskUid(get_varint_at(buf, pos)?),
        start: SimTime::from_micros(get_varint_at(buf, pos)?),
        duration: SimDuration::from_micros(get_varint_at(buf, pos)?),
    };
    let n = get_varint_at(buf, pos)?;
    if n > MAX_POINTS {
        return Err(DecodeError::LengthOutOfRange(n));
    }
    let n = n as usize;
    let mut prev = 0u64;
    for i in 0..n {
        let delta = get_varint_at(buf, pos)?;
        let visits = get_varint_at(buf, pos)?;
        // Deltas wrap, so an in-range id is reconstructed exactly even
        // from an unsorted list.
        prev = prev.wrapping_add(delta);
        let id = LogPointId(id16(prev)?);
        let visits = u32::try_from(visits).map_err(|_| DecodeError::LengthOutOfRange(visits))?;
        point(i, n, id, visits);
    }
    Ok((head, n))
}

/// Decode every synopsis in `payload` straight into the columns of
/// `batch`, interning signatures through `interner` — what the reactor
/// collector and the root do with each frame. No intermediate
/// [`TaskSynopsis`] or per-synopsis `log_points` vector is materialized:
/// point ids land in a stack buffer and go through
/// [`SignatureInterner::intern_points`], which produces the same `SigId`
/// as `intern_synopsis` on the equivalent synopsis.
///
/// Watermark stamps continue from the batch's current last element,
/// exactly as [`SynopsisBatch::push_synopsis`] would.
///
/// Returns the number of synopses appended.
///
/// # Errors
///
/// On any [`DecodeError`] the batch is rolled back to its length at
/// entry — a malformed frame appends nothing.
pub fn decode_batch_into(
    payload: &[u8],
    batch: &mut SynopsisBatch,
    interner: &SignatureInterner,
) -> Result<usize, DecodeError> {
    let rollback = batch.len();
    let mut pos = 0usize;
    // Point ids of the synopsis being decoded: on the stack up to
    // `INLINE_POINTS` (as in `intern_synopsis`), spilling to one heap
    // buffer, reused for the rest of the frame, only past that. Visit
    // counts ride the wire but do not enter the flow signature.
    let mut inline = [LogPointId(0); INLINE_POINTS];
    let mut spill: Vec<LogPointId> = Vec::new();
    while pos < payload.len() {
        let parsed = parse_at(payload, &mut pos, |i, n, id, _| {
            if n <= INLINE_POINTS {
                inline[i] = id;
            } else {
                spill.truncate(i);
                spill.push(id);
            }
        });
        let (head, n) = match parsed {
            Ok(parsed) => parsed,
            Err(e) => {
                batch.truncate(rollback);
                return Err(e);
            }
        };
        let ids = if n <= INLINE_POINTS {
            &inline[..n]
        } else {
            &spill[..]
        };
        let sig = interner.intern_points(ids);
        let start = head.start;
        let watermark = batch.watermarks.last().map_or(start, |&w| w.max(start));
        batch.uids.push(head.uid);
        batch.hosts.push(head.host);
        batch.stages.push(head.stage);
        batch.sigs.push(sig);
        batch.durations_us.push(head.duration.as_micros());
        batch.starts.push(start);
        batch.watermarks.push(watermark);
    }
    Ok(batch.len() - rollback)
}

/// A frame payload the synopsis parser has passed, borrowed where it
/// lies: its bytes and, per synopsis, its start time and end offset. Only
/// [`CheckedPayload::parse`] makes one, so what
/// [`FramePayload::push_checked`](crate::transport::FramePayload::push_checked)
/// copies from it are bytes the parser accepted.
#[derive(Debug, Clone, Copy)]
pub struct CheckedPayload<'a> {
    bytes: &'a [u8],
    marks: &'a [(SimTime, usize)],
}

impl<'a> CheckedPayload<'a> {
    /// Run every synopsis of `payload` through the parser without
    /// decoding it, into `marks`, scratch the caller reuses.
    ///
    /// # Errors
    ///
    /// The first [`DecodeError`]: a payload failing anywhere has no view.
    pub fn parse(
        payload: &'a [u8],
        marks: &'a mut Vec<(SimTime, usize)>,
    ) -> Result<CheckedPayload<'a>, DecodeError> {
        marks.clear();
        let mut pos = 0usize;
        while pos < payload.len() {
            let (head, _) = parse_at(payload, &mut pos, |_, _, _, _| {})?;
            marks.push((head.start, pos));
        }
        Ok(CheckedPayload {
            bytes: payload,
            marks,
        })
    }

    /// The start time of each synopsis, in wire order: one per synopsis.
    pub fn starts(&self) -> impl ExactSizeIterator<Item = SimTime> + 'a {
        self.marks.iter().map(|&(start, _)| start)
    }

    /// The bytes of synopsis `i`.
    pub(crate) fn synopsis(&self, i: usize) -> &'a [u8] {
        let from = i.checked_sub(1).map_or(0, |prev| self.marks[prev].1);
        &self.bytes[from..self.marks[i].1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{decode, decode_batch};
    use proptest::prelude::*;

    fn sample(points: &[(u16, u32)]) -> TaskSynopsis {
        TaskSynopsis {
            host: HostId(3),
            stage: StageId(17),
            uid: TaskUid(123_456),
            start: SimTime::from_millis(987),
            duration: SimDuration::from_micros(10_250),
            log_points: points.iter().map(|&(p, c)| (LogPointId(p), c)).collect(),
        }
    }

    #[test]
    fn round_trip_typical() {
        let s = sample(&[(1, 1), (2, 40), (4, 1), (5, 1)]);
        let mut wire = encode(&s);
        assert_eq!(decode(&mut wire).unwrap(), s);
        assert!(!wire.has_remaining());
    }

    #[test]
    fn typical_synopsis_is_tens_of_bytes() {
        // The paper's DataXceiver example: 5 points, one visited 40 times.
        let s = sample(&[(1, 1), (2, 40), (3, 40), (4, 40), (5, 1)]);
        let wire = encode(&s);
        assert!(wire.len() <= 48, "encoded {} bytes", wire.len());
    }

    #[test]
    fn empty_point_list_round_trips() {
        let s = sample(&[]);
        let mut wire = encode(&s);
        assert_eq!(decode(&mut wire).unwrap(), s);
    }

    #[test]
    fn truncated_input_errors() {
        let s = sample(&[(1, 1)]);
        let wire = encode(&s);
        for cut in 0..wire.len() {
            let mut truncated = wire.slice(0..cut);
            assert!(decode(&mut truncated).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn absurd_length_rejected() {
        let mut buf = BytesMut::new();
        for _ in 0..5 {
            put_varint(&mut buf, 0);
        }
        put_varint(&mut buf, MAX_POINTS + 1);
        let mut wire = buf.freeze();
        assert!(matches!(
            decode(&mut wire),
            Err(DecodeError::LengthOutOfRange(_))
        ));
    }

    #[test]
    fn varint_overflow_rejected() {
        let wire = Bytes::from(vec![0xffu8; 11]);
        let mut b = wire;
        assert_eq!(get_varint(&mut b), Err(DecodeError::VarintOverflow));
    }

    #[test]
    fn varint_overflow_surfaces_through_decode() {
        // A run of continuation bytes long enough to overflow the very
        // first field.
        let mut wire = Bytes::from(vec![0xffu8; 16]);
        assert_eq!(decode(&mut wire), Err(DecodeError::VarintOverflow));
    }

    #[test]
    fn truncated_batch_errors_mid_synopsis() {
        let a = sample(&[(1, 1), (3, 2)]);
        let b = sample(&[(2, 2), (9, 1)]);
        let wire = encode_batch([&a, &b]);
        // Cut inside the second synopsis: the first still decodes, then
        // the batch fails rather than inventing data.
        let mut cut = wire.slice(0..wire.len() - 2);
        assert_eq!(decode_batch(&mut cut), Err(DecodeError::UnexpectedEof));
    }

    #[test]
    fn batch_round_trips() {
        let a = sample(&[(1, 1)]);
        let b = sample(&[(2, 2), (9, 1)]);
        let mut wire = encode_batch([&a, &b]);
        assert_eq!(decode_batch(&mut wire).unwrap(), vec![a, b]);
    }

    #[test]
    fn decode_batch_into_matches_push_synopsis_path() {
        let a = sample(&[(1, 1), (3, 2)]);
        let mut b = sample(&[(2, 2), (9, 1), (40, 7)]);
        b.start = SimTime::from_millis(12); // out of order: watermark holds
        let c = sample(&[]);
        // Past the inline scratch (heap fallback), then back under it.
        let long: Vec<(u16, u32)> = (0..INLINE_POINTS as u16 + 5).map(|p| (3 * p, 1)).collect();
        let d = sample(&long);
        let e = sample(&[(7, 1)]);
        let wire = encode_batch([&a, &b, &c, &d, &e]);

        let interner = SignatureInterner::new();
        let mut via_push = SynopsisBatch::new();
        for s in [&a, &b, &c, &d, &e] {
            via_push.push_synopsis(s, &interner);
        }
        let mut via_decode = SynopsisBatch::new();
        let n = decode_batch_into(&wire, &mut via_decode, &interner).unwrap();
        assert_eq!(n, 5);
        assert_eq!(via_decode.uids, via_push.uids);
        assert_eq!(via_decode.hosts, via_push.hosts);
        assert_eq!(via_decode.stages, via_push.stages);
        assert_eq!(via_decode.sigs, via_push.sigs);
        assert_eq!(via_decode.durations_us, via_push.durations_us);
        assert_eq!(via_decode.starts, via_push.starts);
        assert_eq!(via_decode.watermarks, via_push.watermarks);
    }

    #[test]
    fn decode_batch_into_continues_watermark_across_calls() {
        let interner = SignatureInterner::new();
        let mut batch = SynopsisBatch::new();
        let mut hi = sample(&[(1, 1)]);
        hi.start = SimTime::from_millis(1000);
        let mut lo = sample(&[(2, 1)]);
        lo.start = SimTime::from_millis(1);
        decode_batch_into(&encode(&hi), &mut batch, &interner).unwrap();
        decode_batch_into(&encode(&lo), &mut batch, &interner).unwrap();
        assert_eq!(
            batch.watermarks,
            vec![SimTime::from_millis(1000), SimTime::from_millis(1000)]
        );
    }

    #[test]
    fn decode_batch_into_rolls_back_on_error() {
        let interner = SignatureInterner::new();
        let mut batch = SynopsisBatch::new();
        let seed = sample(&[(5, 1)]);
        decode_batch_into(&encode(&seed), &mut batch, &interner).unwrap();
        assert_eq!(batch.len(), 1);
        let watermark = batch.watermarks.clone();

        // Two good synopses followed by a truncation: nothing appends.
        let a = sample(&[(1, 1)]);
        let b = sample(&[(2, 2), (9, 1)]);
        let wire = encode_batch([&a, &b]);
        let cut = &wire[..wire.len() - 2];
        assert_eq!(
            decode_batch_into(cut, &mut batch, &interner),
            Err(DecodeError::UnexpectedEof)
        );
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.watermarks, watermark);
    }

    /// A synopsis whose ids are given as raw `u64`s, written the way the
    /// encoder writes them — what a peer with a wider id type, or a
    /// corruption that happens to pass the CRC, would put on the wire.
    fn encode_raw(host: u64, stage: u64, ids: &[u64]) -> Bytes {
        let mut buf = BytesMut::new();
        for field in [host, stage, 77, 1_000, 25, ids.len() as u64] {
            put_varint(&mut buf, field);
        }
        let mut prev = 0u64;
        for &id in ids {
            put_varint(&mut buf, id.wrapping_sub(prev));
            put_varint(&mut buf, 1);
            prev = id;
        }
        buf.freeze()
    }

    /// Every reader of the one parser on one payload — the owned
    /// reference, the batch decoder and the checked view: the error, or
    /// the decoded synopses, with the batch's signature column and the
    /// view's start times agreeing. A rejected payload must leave the
    /// batch as it was.
    fn decode_both_ways(wire: &[u8]) -> Result<Vec<TaskSynopsis>, DecodeError> {
        let interner = SignatureInterner::new();
        let mut batch = SynopsisBatch::new();
        let owned = decode_batch(&mut Bytes::copy_from_slice(wire));
        let in_place = decode_batch_into(wire, &mut batch, &interner);
        let mut marks = Vec::new();
        let viewed =
            CheckedPayload::parse(wire, &mut marks).map(|v| v.starts().collect::<Vec<_>>());
        match &owned {
            Ok(synopses) => {
                assert_eq!(in_place, Ok(synopses.len()));
                let sigs: Vec<_> = synopses
                    .iter()
                    .map(|s| interner.intern_synopsis(s))
                    .collect();
                assert_eq!(batch.sigs, sigs);
                let starts: Vec<_> = synopses.iter().map(|s| s.start).collect();
                assert_eq!(viewed, Ok(starts));
            }
            Err(e) => {
                assert_eq!(in_place.as_ref(), Err(e));
                assert_eq!(viewed.as_ref().map(|_| ()), Err(e));
                assert!(batch.is_empty(), "a rejected payload appended something");
            }
        }
        owned
    }

    /// A synopsis whose uid and one visit count are raw bytes.
    fn with_raw_fields(uid: &[u8], count: &[u8]) -> Vec<u8> {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, 3);
        put_varint(&mut buf, 17);
        buf.extend_from_slice(uid);
        for field in [1_000, 25, 1, 5] {
            put_varint(&mut buf, field);
        }
        buf.extend_from_slice(count);
        buf.to_vec()
    }

    #[test]
    fn an_overlong_varint_or_a_wide_count_is_rejected_not_aliased() {
        let max = [[0xffu8; 9].as_slice(), &[0x01]].concat();
        let one = [0x01u8];
        // The one ten-byte form the encoder writes still reads.
        let s = decode_both_ways(&with_raw_fields(&max, &one)).unwrap();
        assert_eq!(s[0].uid, TaskUid(u64::MAX));
        assert_eq!(encode(&s[0]).as_ref(), &with_raw_fields(&max, &one)[..]);
        // A tenth byte past bit 63 would alias u64::MAX: refused.
        for last in [0x02u8, 0x7f] {
            let wide = [[0xffu8; 9].as_slice(), &[last]].concat();
            assert_eq!(
                decode_both_ways(&with_raw_fields(&wide, &one)),
                Err(DecodeError::VarintOverflow),
                "tenth byte {last:#04x}"
            );
            assert_eq!(
                get_varint(&mut Bytes::from(wide)),
                Err(DecodeError::VarintOverflow)
            );
        }
        // A visit count of 2^32 would truncate to 0: refused. u32::MAX fits.
        let mut count = BytesMut::new();
        put_varint(&mut count, 1 << 32);
        assert_eq!(
            decode_both_ways(&with_raw_fields(&one, &count)),
            Err(DecodeError::LengthOutOfRange(1 << 32))
        );
        count.clear();
        put_varint(&mut count, u32::MAX as u64);
        let s = decode_both_ways(&with_raw_fields(&one, &count)).unwrap();
        assert_eq!(s[0].log_points, [(LogPointId(5), u32::MAX)]);
    }

    #[test]
    fn an_id_past_16_bits_is_rejected_not_truncated() {
        // Truncated, each of these would read as host 3 / stage 17 /
        // point 5 — a legitimate flow on a legitimate host.
        let wide = 65_536;
        for (host, stage, ids) in [
            (wide + 3, 17, vec![1, 5]),
            (3, wide + 17, vec![1, 5]),
            (3, 17, vec![1, wide + 5]),
            (3, 17, vec![wide + 5, 1]),
        ] {
            let good = encode(&sample(&[(1, 1), (5, 1)]));
            let bad = encode_raw(host, stage, &ids);
            let rejected = host.max(stage).max(ids[0]).max(ids[1]);
            for wire in [bad.to_vec(), [&good[..], &bad[..]].concat()] {
                assert_eq!(
                    decode_both_ways(&wire),
                    Err(DecodeError::LengthOutOfRange(rejected)),
                    "{host} {stage} {ids:?}"
                );
            }
        }
        // The widest ids that do fit still pass.
        let edge = decode_both_ways(&encode_raw(65_535, 65_535, &[65_535])).unwrap();
        assert_eq!(edge[0].host, HostId(u16::MAX));
        assert_eq!(edge[0].stage, StageId(u16::MAX));
        assert_eq!(edge[0].log_points, vec![(LogPointId(u16::MAX), 1)]);
    }

    #[test]
    fn decode_error_display() {
        assert!(DecodeError::UnexpectedEof.to_string().contains("end"));
        assert!(DecodeError::LengthOutOfRange(9).to_string().contains('9'));
    }

    proptest! {
        #[test]
        fn round_trip_any_synopsis(
            host in 0u16..100,
            stage in 0u16..200,
            uid in 0u64..u64::MAX / 2,
            start_us in 0u64..10_u64.pow(12),
            dur_us in 0u64..10_u64.pow(9),
            mut raw_points in proptest::collection::vec((0u16..5000, 1u32..10_000), 0..64),
        ) {
            raw_points.sort_by_key(|&(p, _)| p);
            raw_points.dedup_by_key(|&mut (p, _)| p);
            let s = TaskSynopsis {
                host: HostId(host),
                stage: StageId(stage),
                uid: TaskUid(uid),
                start: SimTime::from_micros(start_us),
                duration: SimDuration::from_micros(dur_us),
                log_points: raw_points.iter().map(|&(p, c)| (LogPointId(p), c)).collect(),
            };
            let mut wire = encode(&s);
            prop_assert_eq!(decode(&mut wire).unwrap(), s);
            prop_assert!(!wire.has_remaining());
        }

        #[test]
        fn truncation_anywhere_never_panics(
            uid in 0u64..u64::MAX / 2,
            raw_points in proptest::collection::vec((0u16..5000, 1u32..10_000), 0..32),
            cut_frac in 0.0f64..1.0,
        ) {
            let s = sample(&raw_points.iter().map(|&(p, c)| (p, c)).collect::<Vec<_>>());
            let s = TaskSynopsis { uid: TaskUid(uid), ..s };
            let wire = encode(&s);
            let cut = ((wire.len() as f64) * cut_frac) as usize;
            let mut truncated = wire.slice(0..cut);
            // Must either fail cleanly or (cut == len) round-trip; never panic.
            match decode(&mut truncated) {
                Ok(decoded) => prop_assert_eq!(decoded, s),
                Err(e) => prop_assert_eq!(e, DecodeError::UnexpectedEof),
            }
        }

        #[test]
        fn corruption_anywhere_never_panics(
            raw_points in proptest::collection::vec((0u16..5000, 1u32..10_000), 1..32),
            pos_frac in 0.0f64..1.0,
            flip in 1u16..256,
        ) {
            let s = sample(&raw_points.iter().map(|&(p, c)| (p, c)).collect::<Vec<_>>());
            let wire = encode(&s);
            let mut bytes = wire.to_vec();
            let pos = ((bytes.len() as f64) * pos_frac) as usize % bytes.len();
            bytes[pos] ^= flip as u8;
            // A flipped byte may still decode (to a different synopsis) or
            // fail with any DecodeError — the only forbidden outcome is a
            // panic or an infinite loop.
            let _ = decode_batch(&mut Bytes::from(bytes));
        }

        /// Deltas wrap, so any list of in-range ids — unsorted, repeated —
        /// is reconstructed exactly by both decoders; the range check
        /// rejects nothing the encoder can write.
        #[test]
        fn in_range_ids_reconstruct_exactly_in_any_order(
            host in 0u32..65_536,
            stage in 0u32..65_536,
            raw_points in proptest::collection::vec((0u32..65_536, 1u32..10_000), 0..40),
        ) {
            let points: Vec<(u16, u32)> = raw_points.iter().map(|&(p, c)| (p as u16, c)).collect();
            let s = TaskSynopsis {
                host: HostId(host as u16),
                stage: StageId(stage as u16),
                ..sample(&points)
            };
            prop_assert_eq!(decode_both_ways(&encode(&s)), Ok(vec![s]));
        }

        /// One field of a well-formed synopsis pushed past 16 bits, at any
        /// position, by any excess: both decoders name the value.
        #[test]
        fn a_wide_id_anywhere_is_rejected(
            ids in proptest::collection::vec(0u64..65_536, 1..24),
            victim in 0usize..26,
            excess in 0u64..(1 << 40),
        ) {
            let mut fields = vec![3u64, 17];
            fields.extend(&ids);
            let victim = victim % fields.len();
            fields[victim] += 65_536 + excess;
            let wire = encode_raw(fields[0], fields[1], &fields[2..]);
            prop_assert_eq!(
                decode_both_ways(&wire),
                Err(DecodeError::LengthOutOfRange(fields[victim]))
            );
        }
    }
}
