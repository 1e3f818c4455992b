//! Compact binary encoding of task synopses: the frame payload.
//!
//! SAAD streams synopses from every node to a centralized analyzer; the
//! whole point (Figure 8) is that this stream is 15–900× smaller than
//! DEBUG-level log text. A node runs a few dozen distinct (stage, points,
//! counts) values, so a payload says each of them once: the first row
//! that uses one carries it as a *definition*, and every later row of the
//! same payload names it by index. On the benchmark's wire workloads
//! 60–78 % of rows name a definition, and a synopsis takes 8–10 bytes on
//! the wire, frame header included; a lone synopsis (5 log points)
//! encodes in well under 48 bytes. Into a reused 48-row payload the
//! encoder costs some 20 ns for a row whose definition is known and 40
//! ns for one it defines, each row written on the stack and appended at
//! its exact length; decoding a capture-shaped frame costs some 16 ns a
//! row (2-vCPU VM; EXPERIMENTS.md "Claimed gains" and "Producer
//! hand-over").
//!
//! # Payload format (protocol version 3)
//!
//! A payload is rows back to back; every integer is a LEB128 varint:
//!
//! ```text
//! row         tag [definition] uid-delta start-delta duration
//! tag         id << 1; the low bit is reserved, and a row that sets it is refused
//! definition  host stage n (point-delta count) × n
//!             present exactly when id equals the definitions read so far
//! uid-delta   zigzag(uid − the previous row's uid), wrapping; 0 before row 0
//! start-delta zigzag(start − the previous row's start) in µs, likewise
//! duration    µs
//! ```
//!
//! Point ids are deltas from the previous point of the definition
//! (wrapping, so an unsorted list is kept exactly), and every visit count
//! travels: the paper's synopsis is carried losslessly. Definitions are
//! local to one payload, so a frame decodes on its own, and loss
//! accounting, re-framing and failover never see them.
//!
//! One encoder behind every writer ([`encode`], [`encode_batch`] and the
//! transport's [`FramePayload`](crate::transport::FramePayload)), and one
//! parser behind every reader: [`decode_batch_into`] into batch columns,
//! interning once per definition, and [`CheckedPayload::parse`] for a leaf
//! forwarding the rows it checked.

use crate::batch::SynopsisBatch;
use crate::intern::{SigId, SignatureInterner, INLINE_POINTS};
use crate::synopsis::{SynopsisHead, TaskSynopsis};
use crate::{HostId, StageId, TaskUid};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use saad_logging::LogPointId;
use saad_sim::{SimDuration, SimTime};
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Error from the synopsis parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended in the middle of a field.
    UnexpectedEof,
    /// A varint ran past 10 bytes, or its 10th byte past bit 63.
    VarintOverflow,
    /// A length prefix exceeded the sanity bound, an identifier or a
    /// visit count the range of its type, or a row tag named a definition
    /// past the ones read so far or set its reserved bit (the tag).
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

/// Most definitions one payload holds. Ids stay below this, so a tag
/// takes at most [`MAX_TAG_LEN`] bytes; a payload whose table is full
/// refuses a row that needs another definition, the way it refuses one
/// past [`MAX_FRAME_PAYLOAD`](crate::transport::MAX_FRAME_PAYLOAD).
pub(crate) const MAX_DEFS: usize = 4_096;

/// Most bytes a tag of an id below [`MAX_DEFS`] takes.
const MAX_TAG_LEN: usize = 2;

/// Definitions a reader keeps on its stack; an agent's frame never has
/// more, and a payload that does spills the rest to one heap vector.
const INLINE_DEFS: usize = 64;

/// Buffer-sizing guess: a typical row encodes in fewer bytes than this;
/// a longer one just grows the buffer.
const TYPICAL_SYNOPSIS_LEN: usize = 16;

/// Most bytes one LEB128 `u64` occupies.
const MAX_VARINT_LEN: usize = 10;

/// Room of a defining row on the stack: a tag, the host, stage, length
/// and fields at their widest, and a few dozen short (point, count)
/// pairs. Few enough bytes to be zeroed by a handful of stores, not a
/// call to `memset`; a row that outgrows it goes out a stack row at a
/// time.
const ROW_LEN: usize = 128;

/// Room of a row that names its definition: a tag and the fields. A row
/// of at most this many bytes is appended as this many ([`append`]).
const NAMED_ROW_LEN: usize = MAX_TAG_LEN + 3 * MAX_VARINT_LEN;

/// Capacity for a payload of about `rows` rows: the typical rows, and the
/// bytes the last row's fixed-length copy ([`append`]) writes past its
/// end, so a buffer sized for its rows does not grow on its last row.
pub(crate) fn payload_capacity(rows: usize) -> usize {
    TYPICAL_SYNOPSIS_LEN * rows + NAMED_ROW_LEN
}

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
#[inline]
fn get_varint_at(buf: &[u8], pos: &mut usize) -> Result<u64, DecodeError> {
    // One byte is the common case: a tag, a small delta, a count.
    if let Some(&byte) = buf.get(*pos) {
        if byte < 0x80 {
            *pos += 1;
            return Ok(byte as u64);
        }
    }
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
/// [`crate::Signature`] contents (same scheme as a definition's points).
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

/// A signed delta folded onto the unsigned varints: small magnitudes of
/// either sign take few bytes.
#[inline]
fn zigzag(delta: u64) -> u64 {
    let d = delta as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

/// The inverse of [`zigzag`].
#[inline]
fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// Write the fields every row ends with at `out[pos..]`: uid and start
/// as zigzag deltas from the previous row's `(uid, start)`, then the
/// duration. `out` needs three varints of room.
#[inline]
fn put_fields_at(out: &mut [u8], pos: usize, head: &SynopsisHead, prev: (u64, u64)) -> usize {
    let pos = put_varint_at(out, pos, zigzag(head.uid.0.wrapping_sub(prev.0)));
    let pos = put_varint_at(
        out,
        pos,
        zigzag(head.start.as_micros().wrapping_sub(prev.1)),
    );
    put_varint_at(out, pos, head.duration.as_micros())
}

/// Hash of a definition: host, stage and every (point, count) pair. Each
/// pair is multiplied on its own and the products summed, so the
/// multiplications overlap instead of waiting on one another.
#[inline]
fn def_hash(host: HostId, stage: StageId, points: &[(LogPointId, u32)]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let head = (points.len() as u64) << 32 | (host.0 as u64) << 16 | stage.0 as u64;
    let mut h = head.wrapping_mul(K);
    for (i, &(p, c)) in points.iter().enumerate() {
        let pair = ((p.0 as u64) << 32 | c as u64).rotate_left(i as u32 * 7);
        h = h.wrapping_add((pair ^ K).wrapping_mul(K));
    }
    h ^ h >> 29
}

/// One definition a payload holds: its hash, its host and stage, and
/// where its points lie in the table's point store.
#[derive(Debug, Clone, Copy)]
struct Def {
    hash: u64,
    host: HostId,
    stage: StageId,
    len: u32,
    at: usize,
}

/// One payload's definitions, as its encoder keeps them — each one's
/// (host, stage, points, counts), found again by a hash of them — and
/// the uid and start the next row is a delta from. A row whose
/// definition is known is written as its tag and three fields, without
/// touching its points. Cleared, the table keeps its capacity, so a
/// reused payload encodes without allocating.
#[derive(Debug, Default, Clone)]
pub(crate) struct Definitions {
    /// Open-addressed, linearly probed: 1 + a definition's index, or 0.
    slots: Vec<u16>,
    defs: Vec<Def>,
    /// Every definition's points, back to back.
    points: Vec<(LogPointId, u32)>,
    prev: (u64, u64),
}

impl Definitions {
    /// A table sized for a payload of about `rows` rows.
    pub(crate) fn with_rows(rows: usize) -> Definitions {
        let defs = rows.min(MAX_DEFS);
        Definitions {
            slots: vec![0; (2 * defs).next_power_of_two().max(16)],
            defs: Vec::with_capacity(defs),
            points: Vec::new(),
            prev: (0, 0),
        }
    }

    /// Forget every definition, for a payload started afresh.
    pub(crate) fn clear(&mut self) {
        self.slots.fill(0);
        self.defs.clear();
        self.points.clear();
        self.prev = (0, 0);
    }

    /// Append the row of `head` and `points` to `buf`, whose rows so far
    /// this table describes: it names the definition already made of the
    /// same (host, stage, points, counts), or makes its own. Returns the
    /// definition's index.
    ///
    /// Returns `None`, leaving `buf` and the table as they were, when the
    /// row would take `buf` past `limit` bytes, or needs a new definition
    /// and the table holds [`MAX_DEFS`]. The row is written on the stack
    /// and appended at its exact length (a long point list in pieces), so
    /// a reused `buf` at capacity makes this allocation-free.
    #[inline(always)]
    pub(crate) fn push(
        &mut self,
        buf: &mut BytesMut,
        limit: usize,
        head: &SynopsisHead,
        points: &[(LogPointId, u32)],
    ) -> Option<usize> {
        let hash = def_hash(head.host, head.stage, points);
        if let Some(id) = self.find(hash, head, points) {
            return self.push_named(buf, limit, id, head).then_some(id);
        }
        let id = self.defs.len();
        if id == MAX_DEFS {
            return None;
        }
        // The definition: host, stage, n, then each point as a delta from
        // the previous one with its count. Rows are written on the stack,
        // not into a buffer the table keeps: with every row written
        // behind a pointer, `fleet_e2e` read ~6 % lower (EXPERIMENTS.md
        // "Producer hand-over").
        let start = buf.len();
        let mut row = [0u8; ROW_LEN];
        let mut pos = put_varint_at(&mut row, 0, (id as u64) << 1);
        pos = put_varint_at(&mut row, pos, head.host.0 as u64);
        pos = put_varint_at(&mut row, pos, head.stage.0 as u64);
        pos = put_varint_at(&mut row, pos, points.len() as u64);
        let mut prev = 0u64;
        for &(p, c) in points {
            if ROW_LEN - pos < 5 * MAX_VARINT_LEN {
                // No room left for a pair and the fields: what the row
                // holds goes out, and it starts again.
                buf.extend_from_slice(&row[..pos]);
                pos = 0;
            }
            let id = p.0 as u64;
            pos = put_varint_at(&mut row, pos, id.wrapping_sub(prev));
            pos = put_varint_at(&mut row, pos, c as u64);
            prev = id;
        }
        let end = self.finish_row(buf, start, &mut row, pos, limit, head)?;
        append(buf, &row, end);
        self.insert(Def {
            hash,
            host: head.host,
            stage: head.stage,
            len: points.len() as u32,
            at: self.points.len(),
        });
        self.points.extend_from_slice(points);
        Some(id)
    }

    /// Append the row of `head` naming definition `id`, one this table
    /// holds, under the rule of [`Definitions::push`]: its tag and three
    /// fields, without a look at its points.
    #[inline(always)]
    pub(crate) fn push_named(
        &mut self,
        buf: &mut BytesMut,
        limit: usize,
        id: usize,
        head: &SynopsisHead,
    ) -> bool {
        debug_assert!(id < self.defs.len(), "a row names a definition made");
        let start = buf.len();
        let mut row = [0u8; NAMED_ROW_LEN];
        let pos = put_varint_at(&mut row, 0, (id as u64) << 1);
        let Some(end) = self.finish_row(buf, start, &mut row, pos, limit, head) else {
            return false;
        };
        append(buf, &row, end);
        true
    }

    /// Write the fields of a row into `row`, after the `pos` bytes of it
    /// written so far, and return the row's length; or, if appending it
    /// would take `buf` past `limit`, take back what `buf` holds of the
    /// row from `start` on and return `None`.
    #[inline(always)]
    fn finish_row(
        &mut self,
        buf: &mut BytesMut,
        start: usize,
        row: &mut [u8],
        pos: usize,
        limit: usize,
        head: &SynopsisHead,
    ) -> Option<usize> {
        let end = put_fields_at(row, pos, head, self.prev);
        if buf.len() + end > limit {
            buf.truncate(start);
            return None;
        }
        self.prev = (head.uid.0, head.start.as_micros());
        Some(end)
    }

    /// The definition made of `head`'s host and stage and `points`.
    #[inline]
    fn find(&self, hash: u64, head: &SynopsisHead, points: &[(LogPointId, u32)]) -> Option<usize> {
        if self.defs.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let id = (self.slots[i] as usize).checked_sub(1)?;
            let def = &self.defs[id];
            if def.hash == hash
                && (def.host, def.stage) == (head.host, head.stage)
                && self.points[def.at..def.at + def.len as usize] == *points
            {
                return Some(id);
            }
            i = (i + 1) & mask;
        }
    }

    fn insert(&mut self, def: Def) {
        if 2 * (self.defs.len() + 1) > self.slots.len() {
            let slots = (2 * self.slots.len()).max(16);
            self.slots.clear();
            self.slots.resize(slots, 0);
            for (id, d) in self.defs.iter().enumerate() {
                place(&mut self.slots, d.hash, id);
            }
        }
        place(&mut self.slots, def.hash, self.defs.len());
        self.defs.push(def);
    }
}

/// Append `row[..end]` to `buf`. A row of at most [`NAMED_ROW_LEN`] bytes
/// (every row naming a definition, most defining ones) goes as that many
/// and is trimmed after: a copy of a fixed length is two moves, where one
/// of `end` bytes is a call to `memcpy`. Copying `end` bytes always read
/// ~6 % lower on `fleet_e2e` (EXPERIMENTS.md "Producer hand-over").
#[inline(always)]
fn append(buf: &mut BytesMut, row: &[u8], end: usize) {
    if end <= NAMED_ROW_LEN {
        let start = buf.len();
        buf.extend_from_slice(&row[..NAMED_ROW_LEN]);
        buf.truncate(start + end);
    } else {
        buf.extend_from_slice(&row[..end]);
    }
}

/// Put definition `id` in the first free slot from its hash on.
fn place(slots: &mut [u16], hash: u64, id: usize) {
    let mask = slots.len() - 1;
    let mut i = hash as usize & mask;
    while slots[i] != 0 {
        i = (i + 1) & mask;
    }
    slots[i] = (id + 1) as u16;
}

/// Encode a synopsis to its compact wire form: a payload of one row.
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
    encode_batch(std::iter::once(s))
}

/// Append the payload of `synopses` to `buf`, starting `defs` afresh:
/// the rows of [`encode_batch`], and of a frame behind its header.
///
/// # Panics
///
/// Panics if the synopses need more than [`MAX_DEFS`] definitions; a
/// sender that may hold such a batch fills
/// [`FramePayload`](crate::transport::FramePayload)s, which cut it.
pub(crate) fn encode_batch_into<'a>(
    buf: &mut BytesMut,
    defs: &mut Definitions,
    synopses: impl Iterator<Item = &'a TaskSynopsis>,
) {
    defs.clear();
    for s in synopses {
        let pushed = defs.push(buf, usize::MAX, &s.head(), &s.log_points);
        assert!(
            pushed.is_some(),
            "batch needs more than MAX_DEFS definitions"
        );
    }
}

/// Encode a batch of synopses as one payload.
///
/// # Panics
///
/// Panics if the batch has more than 4 096 distinct (host, stage,
/// points, counts) values, more than one payload may define.
pub fn encode_batch<'a, I: IntoIterator<Item = &'a TaskSynopsis>>(synopses: I) -> Bytes {
    let synopses = synopses.into_iter();
    let rows = synopses.size_hint().0;
    let mut out = BytesMut::with_capacity(payload_capacity(rows));
    encode_batch_into(&mut out, &mut Definitions::with_rows(rows), synopses);
    out.freeze()
}

/// What a reader makes of each definition the parser reads: its points
/// one by one as they pass the range checks, then the definition whole.
trait Define {
    /// What the reader keeps per definition.
    type Def: Copy;

    /// Point `i` of the `n` of the definition being read.
    fn point(&mut self, i: usize, n: usize, id: LogPointId, visits: u32);

    /// The definition just read, of `n` points: what to keep for the
    /// rows that name it. `body` is where its bytes lie in the payload.
    fn define(&mut self, host: HostId, stage: StageId, n: usize, body: Range<usize>) -> Self::Def;
}

/// Per-definition values a reader keeps: the first [`INLINE_DEFS`] on
/// the stack, the rest in one heap vector made only if a payload has
/// more.
struct DefSlots<T> {
    inline: [(HostId, StageId, T); INLINE_DEFS],
    spill: Vec<(HostId, StageId, T)>,
    len: usize,
}

impl<T: Copy> DefSlots<T> {
    fn new(empty: T) -> DefSlots<T> {
        DefSlots {
            inline: [(HostId(0), StageId(0), empty); INLINE_DEFS],
            spill: Vec::new(),
            len: 0,
        }
    }

    #[inline]
    fn push(&mut self, def: (HostId, StageId, T)) {
        match self.inline.get_mut(self.len) {
            Some(slot) => *slot = def,
            None => self.spill.push(def),
        }
        self.len += 1;
    }

    /// Definition `id`, one the parser has checked is below `len`.
    #[inline]
    fn get(&self, id: usize) -> (HostId, StageId, T) {
        match self.inline.get(id) {
            Some(&def) => def,
            None => self.spill[id - INLINE_DEFS],
        }
    }
}

/// Read the definition body at `buf[*pos..]`, advancing `pos` past it,
/// handing its points and then the whole to `reader`. Every field is
/// range-checked here: an id past 16 bits, a visit count past 32 or a
/// point list past [`MAX_POINTS`] is refused, never truncated into a
/// legitimate value.
#[inline]
fn parse_body<D: Define>(
    buf: &[u8],
    pos: &mut usize,
    reader: &mut D,
) -> Result<(HostId, StageId, D::Def), DecodeError> {
    let at = *pos;
    let host = HostId(id16(get_varint_at(buf, pos)?)?);
    let stage = StageId(id16(get_varint_at(buf, pos)?)?);
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
        reader.point(i, n, id, visits);
    }
    let def = reader.define(host, stage, n, at..*pos);
    Ok((host, stage, def))
}

/// THE synopsis parser: one payload's rows in order, each returned as
/// its head, its definition's index and what the reader made of that
/// definition. It checks every
/// tag — a definition is read only where the tag names the next one, a
/// tag past that, at [`MAX_DEFS`] or with its reserved bit set is
/// refused — and every field of every definition ([`parse_body`]).
struct Rows<'a, T> {
    buf: &'a [u8],
    pos: usize,
    prev: (u64, u64),
    defs: DefSlots<T>,
}

impl<'a, T: Copy> Rows<'a, T> {
    /// The parser at the start of `payload`; `empty` fills unused slots.
    fn new(payload: &'a [u8], empty: T) -> Rows<'a, T> {
        Rows {
            buf: payload,
            pos: 0,
            prev: (0, 0),
            defs: DefSlots::new(empty),
        }
    }

    /// Whether every row has been read.
    #[inline]
    fn at_end(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Read the next row. After an error the parser is spent.
    #[inline]
    fn row<D: Define<Def = T>>(
        &mut self,
        reader: &mut D,
    ) -> Result<(SynopsisHead, usize, T), DecodeError> {
        let buf = self.buf;
        let mut pos = self.pos;
        let tag = get_varint_at(buf, &mut pos)?;
        let id = tag >> 1;
        let known = self.defs.len as u64;
        if tag & 1 == 1 || id > known || id as usize >= MAX_DEFS {
            return Err(DecodeError::LengthOutOfRange(tag));
        }
        let (host, stage, def) = if id == known {
            let def = parse_body(buf, &mut pos, reader)?;
            self.defs.push(def);
            def
        } else {
            self.defs.get(id as usize)
        };
        let uid = self
            .prev
            .0
            .wrapping_add(unzigzag(get_varint_at(buf, &mut pos)?));
        let start = self
            .prev
            .1
            .wrapping_add(unzigzag(get_varint_at(buf, &mut pos)?));
        let duration = get_varint_at(buf, &mut pos)?;
        self.pos = pos;
        self.prev = (uid, start);
        let head = SynopsisHead {
            host,
            stage,
            uid: TaskUid(uid),
            start: SimTime::from_micros(start),
            duration: SimDuration::from_micros(duration),
        };
        Ok((head, id as usize, def))
    }
}

/// The batch decoder's reader: a definition's point ids land in a stack
/// buffer (as in `intern_synopsis`), spilling to one heap buffer, reused
/// for the rest of the payload, only past [`INLINE_POINTS`], and each
/// definition is interned once. Visit counts ride the wire but do not
/// enter the flow signature.
struct Interning<'a> {
    interner: &'a SignatureInterner,
    inline: [LogPointId; INLINE_POINTS],
    spill: Vec<LogPointId>,
}

impl Define for Interning<'_> {
    type Def = SigId;

    #[inline]
    fn point(&mut self, i: usize, n: usize, id: LogPointId, _visits: u32) {
        if n <= INLINE_POINTS {
            self.inline[i] = id;
        } else {
            self.spill.truncate(i);
            self.spill.push(id);
        }
    }

    fn define(&mut self, _: HostId, _: StageId, n: usize, _: Range<usize>) -> SigId {
        let ids = if n <= INLINE_POINTS {
            &self.inline[..n]
        } else {
            &self.spill[..]
        };
        self.interner.intern_points(ids)
    }
}

/// Rows the batch decoder gathers before it appends them, column by
/// column, to the batch.
const CHUNK: usize = 32;

/// Up to [`CHUNK`] decoded rows, column by column.
struct Chunk {
    uids: [TaskUid; CHUNK],
    hosts: [HostId; CHUNK],
    stages: [StageId; CHUNK],
    sigs: [SigId; CHUNK],
    durations_us: [u64; CHUNK],
    starts: [SimTime; CHUNK],
    watermarks: [SimTime; CHUNK],
    len: usize,
}

impl Chunk {
    fn new() -> Chunk {
        Chunk {
            uids: [TaskUid(0); CHUNK],
            hosts: [HostId(0); CHUNK],
            stages: [StageId(0); CHUNK],
            sigs: [SigId(0); CHUNK],
            durations_us: [0; CHUNK],
            starts: [SimTime::ZERO; CHUNK],
            watermarks: [SimTime::ZERO; CHUNK],
            len: 0,
        }
    }

    /// Add one row; `true` once the chunk is full.
    #[inline]
    fn push(&mut self, head: &SynopsisHead, sig: SigId) -> bool {
        let i = self.len;
        self.uids[i] = head.uid;
        self.hosts[i] = head.host;
        self.stages[i] = head.stage;
        self.sigs[i] = sig;
        self.durations_us[i] = head.duration.as_micros();
        self.starts[i] = head.start;
        self.len = i + 1;
        self.len == CHUNK
    }

    /// Append the rows to `batch`, stamping each with the running maximum
    /// of starts continued from the batch's last, and empty the chunk.
    fn append_to(&mut self, batch: &mut SynopsisBatch) {
        let n = self.len;
        let mut watermark = batch.watermarks.last().copied().unwrap_or(SimTime::ZERO);
        for (w, &start) in self.watermarks[..n].iter_mut().zip(&self.starts[..n]) {
            watermark = watermark.max(start);
            *w = watermark;
        }
        batch.uids.extend_from_slice(&self.uids[..n]);
        batch.hosts.extend_from_slice(&self.hosts[..n]);
        batch.stages.extend_from_slice(&self.stages[..n]);
        batch.sigs.extend_from_slice(&self.sigs[..n]);
        batch
            .durations_us
            .extend_from_slice(&self.durations_us[..n]);
        batch.starts.extend_from_slice(&self.starts[..n]);
        batch.watermarks.extend_from_slice(&self.watermarks[..n]);
        self.len = 0;
    }
}

/// Decode every synopsis in `payload` straight into the columns of
/// `batch`, interning signatures through `interner` — what the reactor
/// collector and the root do with each frame. No intermediate
/// [`TaskSynopsis`] or per-synopsis `log_points` vector is materialized:
/// each definition's point ids go once through
/// [`SignatureInterner::intern_points`], which produces the same `SigId`
/// as `intern_synopsis` on the equivalent synopsis, and every row that
/// names it takes that id. Rows reach the columns a chunk at a time.
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
    let mut reader = Interning {
        interner,
        inline: [LogPointId(0); INLINE_POINTS],
        spill: Vec::new(),
    };
    let mut rows = Rows::new(payload, SigId(0));
    let mut chunk = Chunk::new();
    while !rows.at_end() {
        match rows.row(&mut reader) {
            Ok((head, _, sig)) => {
                if chunk.push(&head, sig) {
                    chunk.append_to(batch);
                }
            }
            Err(e) => {
                batch.truncate(rollback);
                return Err(e);
            }
        }
    }
    chunk.append_to(batch);
    Ok(batch.len() - rollback)
}

/// The checked payload's reader: a definition is kept as where its body
/// lies.
struct Locating;

impl Define for Locating {
    type Def = (usize, usize);

    #[inline]
    fn point(&mut self, _: usize, _: usize, _: LogPointId, _: u32) {}

    fn define(&mut self, _: HostId, _: StageId, _: usize, body: Range<usize>) -> (usize, usize) {
        (body.start, body.end)
    }
}

/// Source of [`CheckedPayload`]'s parse numbers.
static PARSES: AtomicU64 = AtomicU64::new(0);

/// A frame payload the synopsis parser has passed, borrowed where it
/// lies: per row, its head, its definition's index and where that
/// definition's body lies in the bytes. Only [`CheckedPayload::parse`]
/// makes one, so what
/// [`FramePayload::push_checked`](crate::transport::FramePayload::push_checked)
/// re-encodes from it are rows the parser accepted.
#[derive(Debug, Clone, Copy)]
pub struct CheckedPayload<'a> {
    bytes: &'a [u8],
    marks: &'a [(SynopsisHead, usize, Range<usize>)],
    /// Distinct for every parse, so a reader may key what it learns of
    /// this payload's definitions by it.
    parse: u64,
}

impl<'a> CheckedPayload<'a> {
    /// Run every row of `payload` through the parser without interning
    /// anything, into `marks`, scratch the caller reuses: one entry per
    /// row, its head, its definition's index and its definition's byte
    /// range.
    ///
    /// # Errors
    ///
    /// The first [`DecodeError`]: a payload failing anywhere has no view.
    pub fn parse(
        payload: &'a [u8],
        marks: &'a mut Vec<(SynopsisHead, usize, Range<usize>)>,
    ) -> Result<CheckedPayload<'a>, DecodeError> {
        marks.clear();
        let mut rows = Rows::new(payload, (0, 0));
        while !rows.at_end() {
            let (head, id, (from, to)) = rows.row(&mut Locating)?;
            marks.push((head, id, from..to));
        }
        Ok(CheckedPayload {
            bytes: payload,
            marks,
            parse: PARSES.fetch_add(1, Ordering::Relaxed),
        })
    }

    /// The start time of each synopsis, in wire order: one per synopsis.
    pub fn starts(&self) -> impl ExactSizeIterator<Item = SimTime> + 'a {
        self.marks.iter().map(|(head, _, _)| head.start)
    }

    /// The number of the parse that made this view.
    pub(crate) fn parse_number(&self) -> u64 {
        self.parse
    }

    /// Row `i`: its head and its definition's index in this payload.
    pub(crate) fn head(&self, i: usize) -> (&'a SynopsisHead, usize) {
        let (head, id, _) = &self.marks[i];
        (head, *id)
    }

    /// Row `i`'s definition's points and counts, read into `points`
    /// (emptied first).
    pub(crate) fn points(&self, i: usize, points: &mut Vec<(LogPointId, u32)>) {
        points.clear();
        let body = self.marks[i].2.clone();
        let read = parse_body(&self.bytes[body], &mut 0, &mut Points(points));
        read.expect("a checked definition parses");
    }
}

/// A reader that keeps one definition's points and counts.
struct Points<'a>(&'a mut Vec<(LogPointId, u32)>);

impl Define for Points<'_> {
    type Def = ();

    fn point(&mut self, _: usize, _: usize, id: LogPointId, visits: u32) {
        self.0.push((id, visits));
    }

    fn define(&mut self, _: HostId, _: StageId, _: usize, _: Range<usize>) {}
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
    fn a_payload_says_each_definition_once() {
        let a = sample(&[(1, 1), (2, 40), (4, 1)]);
        let b = TaskSynopsis {
            uid: TaskUid(a.uid.0 + 3),
            start: a.start + SimDuration::from_micros(200),
            ..a.clone()
        };
        // Same points, another count: another definition.
        let c = sample(&[(1, 1), (2, 41), (4, 1)]);
        let wire = encode_batch([&a, &b, &c, &a]);
        let mut want = BytesMut::new();
        let body = |want: &mut BytesMut, count: u64| {
            for v in [3, 17, 3, 1, 1, 1, count, 2, 1] {
                put_varint(want, v);
            }
        };
        // Row 0 defines id 0, its uid and start deltas taken from zero.
        put_varint(&mut want, 0);
        body(&mut want, 40);
        for v in [zigzag(123_456), zigzag(987_000), 10_250] {
            put_varint(&mut want, v);
        }
        // Row 1 names id 0: a tag, and deltas from row 0.
        put_varint(&mut want, 0);
        for v in [6, 400, 10_250] {
            put_varint(&mut want, v);
        }
        // Row 2 defines id 1, with deltas back down.
        put_varint(&mut want, 2);
        body(&mut want, 41);
        for v in [zigzag(-3i64 as u64), zigzag(-200i64 as u64), 10_250] {
            put_varint(&mut want, v);
        }
        // Row 3 names id 0 again.
        put_varint(&mut want, 0);
        for v in [0, 0, 10_250] {
            put_varint(&mut want, v);
        }
        assert_eq!(&wire[..], &want[..]);
        assert_eq!(
            decode_batch(&mut wire.clone()).unwrap(),
            vec![a.clone(), b, c, a]
        );
    }

    #[test]
    fn deltas_wrap_so_every_u64_round_trips() {
        let at = |uid: u64, start: u64| TaskSynopsis {
            uid: TaskUid(uid),
            start: SimTime::from_micros(start),
            ..sample(&[(9, u32::MAX)])
        };
        // Definitions with every varint at its widest: ids falling by one
        // (each delta wraps), the largest counts, and fields 2^63 away
        // from the previous row's. Behind 0 to 14 two-byte pairs, a wide
        // pair and the fields land at every offset of a stack row, and
        // the longer lists go out in pieces.
        let widest = |lead: u16, n: u16| TaskSynopsis {
            duration: SimDuration::from_micros(u64::MAX),
            log_points: (1..=lead)
                .map(|i| (LogPointId(i), 1))
                .chain((0..n).map(|i| (LogPointId(u16::MAX - i), u32::MAX)))
                .collect(),
            ..at(1 << 63, 1 << 63)
        };
        let mut batch = vec![
            at(u64::MAX, u64::MAX),
            at(0, 0),
            at(u64::MAX, 1),
            at(1 << 63, u64::MAX - 1),
            at(0, 0),
        ];
        for lead in 0..15 {
            for n in 1..=12 {
                batch.extend([widest(lead, n), at(0, 0)]);
            }
        }
        let mut wire = encode_batch(&batch);
        assert_eq!(decode_batch(&mut wire).unwrap(), batch);
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
        for _ in 0..3 {
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
        // Past the inline definitions, and past one chunk of rows, with
        // definitions named again from both sides of the spill.
        let many: Vec<TaskSynopsis> = (0..INLINE_DEFS as u64 + 40)
            .map(|i| TaskSynopsis {
                uid: TaskUid(i),
                stage: StageId((i % 80) as u16),
                ..sample(&[(i as u16 % 3, 1)])
            })
            .collect();
        let all: Vec<&TaskSynopsis> = [&a, &b, &c, &d, &e, &a, &d]
            .into_iter()
            .chain(&many)
            .collect();
        let wire = encode_batch(all.iter().copied());

        let interner = SignatureInterner::new();
        let mut via_push = SynopsisBatch::new();
        for s in &all {
            via_push.push_synopsis(s, &interner);
        }
        let mut via_decode = SynopsisBatch::new();
        let n = decode_batch_into(&wire, &mut via_decode, &interner).unwrap();
        assert_eq!(n, all.len());
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

        // More good rows than a chunk, then a truncation: nothing appends.
        let rows: Vec<TaskSynopsis> = (0..CHUNK as u16 + 5).map(|p| sample(&[(p, 1)])).collect();
        let wire = encode_batch(&rows);
        let cut = &wire[..wire.len() - 2];
        assert_eq!(
            decode_batch_into(cut, &mut batch, &interner),
            Err(DecodeError::UnexpectedEof)
        );
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.watermarks, watermark);
    }

    /// A row whose tag and definition ids are given as raw `u64`s, written
    /// the way the encoder writes them — what a peer with a wider id type,
    /// or a corruption that happens to pass the CRC, would put on the
    /// wire. Its fields: uid 77, start 1 000, duration 25.
    fn raw_row(buf: &mut BytesMut, tag: u64, def: Option<(u64, u64, &[u64])>) {
        put_varint(buf, tag);
        if let Some((host, stage, ids)) = def {
            for field in [host, stage, ids.len() as u64] {
                put_varint(buf, field);
            }
            let mut prev = 0u64;
            for &id in ids {
                put_varint(buf, id.wrapping_sub(prev));
                put_varint(buf, 1);
                prev = id;
            }
        }
        for field in [zigzag(77), zigzag(1_000), 25] {
            put_varint(buf, field);
        }
    }

    /// One defining row of raw ids.
    fn encode_raw(host: u64, stage: u64, ids: &[u64]) -> Bytes {
        let mut buf = BytesMut::new();
        raw_row(&mut buf, 0, Some((host, stage, ids)));
        buf.freeze()
    }

    /// Every reader of the one parser on one payload — the owned
    /// reference, the batch decoder and the checked view: the error, or
    /// the decoded synopses, with the batch's signature column and the
    /// view's rows agreeing. A rejected payload must leave the batch as
    /// it was.
    fn decode_both_ways(wire: &[u8]) -> Result<Vec<TaskSynopsis>, DecodeError> {
        let interner = SignatureInterner::new();
        let mut batch = SynopsisBatch::new();
        let owned = decode_batch(&mut Bytes::copy_from_slice(wire));
        let in_place = decode_batch_into(wire, &mut batch, &interner);
        let mut marks = Vec::new();
        let viewed =
            CheckedPayload::parse(wire, &mut marks).map(|v| crate::testkit::decode_checked(&v));
        match &owned {
            Ok(synopses) => {
                assert_eq!(in_place, Ok(synopses.len()));
                let sigs: Vec<_> = synopses
                    .iter()
                    .map(|s| interner.intern_synopsis(s))
                    .collect();
                assert_eq!(batch.sigs, sigs);
                assert_eq!(viewed.as_ref(), Ok(synopses));
            }
            Err(e) => {
                assert_eq!(in_place.as_ref(), Err(e));
                assert_eq!(viewed.as_ref().map(|_| ()), Err(e));
                assert!(batch.is_empty(), "a rejected payload appended something");
            }
        }
        owned
    }

    /// A defining row whose uid delta and one visit count are raw bytes.
    fn with_raw_fields(uid: &[u8], count: &[u8]) -> Vec<u8> {
        let mut buf = BytesMut::new();
        for field in [0, 3, 17, 1, 5] {
            put_varint(&mut buf, field);
        }
        buf.extend_from_slice(count);
        buf.extend_from_slice(uid);
        for field in [zigzag(1_000), 25] {
            put_varint(&mut buf, field);
        }
        buf.to_vec()
    }

    #[test]
    fn an_overlong_varint_or_a_wide_count_is_rejected_not_aliased() {
        let max = [[0xffu8; 9].as_slice(), &[0x01]].concat();
        let one = [0x01u8];
        // The one ten-byte form the encoder writes still reads: the delta
        // that zigzags to u64::MAX is -2^63.
        let s = decode_both_ways(&with_raw_fields(&max, &one)).unwrap();
        assert_eq!(s[0].uid, TaskUid(1 << 63));
        assert_eq!(encode(&s[0]).as_ref(), &with_raw_fields(&max, &one)[..]);
        // A tenth byte past bit 63 would alias it: refused.
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
            let mut bad = BytesMut::new();
            raw_row(&mut bad, 0, Some((host, stage, &ids)));
            let mut after_good = BytesMut::new();
            after_good.extend_from_slice(&good);
            raw_row(&mut after_good, 2, Some((host, stage, &ids)));
            let rejected = host.max(stage).max(ids[0]).max(ids[1]);
            for wire in [bad, after_good] {
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
    fn a_tag_must_name_a_definition_read_so_far_and_leave_its_low_bit_clear() {
        let def: Option<(u64, u64, &[u64])> = Some((3, 17, &[1, 5]));
        let mut good = BytesMut::new();
        raw_row(&mut good, 0, def);
        raw_row(&mut good, 0, None);
        raw_row(&mut good, 2, Some((3, 18, &[1])));
        raw_row(&mut good, 2, None);
        assert_eq!(decode_both_ways(&good).unwrap().len(), 4);
        let empty = BytesMut::new();
        for (before, tag, def) in [
            (&empty, 1, def), // the reserved bit, on a definition
            (&empty, 2, def), // a first row naming id 1: skips ahead
            (&empty, u64::MAX - 1, None),
            (&good, 3, None), // the reserved bit, on a name
            (&good, 5, def),  // and on what would define id 2
            (&good, 6, def),  // naming id 3 of two: skips ahead
            (&good, 8, None),
        ] {
            let mut bad = before.clone();
            raw_row(&mut bad, tag, def);
            assert_eq!(
                decode_both_ways(&bad),
                Err(DecodeError::LengthOutOfRange(tag)),
                "tag {tag} after {} bytes",
                before.len()
            );
        }
    }

    #[test]
    fn a_payload_holds_at_most_max_defs_definitions() {
        let nth = |i: usize| TaskSynopsis {
            host: HostId(i as u16),
            ..sample(&[(1, 1)])
        };
        let mut defs = Definitions::default();
        let mut buf = BytesMut::new();
        for i in 0..MAX_DEFS {
            assert_eq!(
                defs.push(&mut buf, usize::MAX, &nth(i).head(), &[]),
                Some(i)
            );
        }
        let full = buf.clone();
        // A new definition is refused, untouched; a known one still goes.
        let extra = nth(MAX_DEFS);
        assert_eq!(defs.push(&mut buf, usize::MAX, &extra.head(), &[]), None);
        assert_eq!(buf, full);
        assert_eq!(
            defs.push(&mut buf, usize::MAX, &nth(7).head(), &[]),
            Some(7)
        );
        let mut wire = buf.clone().freeze();
        assert_eq!(decode_batch(&mut wire).unwrap().len(), MAX_DEFS + 1);
        // The parser refuses what the encoder would not write.
        let mut over = buf;
        raw_row(&mut over, (MAX_DEFS as u64) << 1, Some((1, 1, &[])));
        assert_eq!(
            decode_both_ways(&over),
            Err(DecodeError::LengthOutOfRange((MAX_DEFS as u64) << 1))
        );
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
            uid in 0u64..u64::MAX,
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
            prop_assert_eq!(&encode_batch([&s])[..], &wire[..]);
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

        /// Deltas wrap, so any list of in-range ids — unsorted, repeated —
        /// is reconstructed exactly by every reader; the range check
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

        /// One field of a well-formed definition pushed past 16 bits, at
        /// any position, by any excess: every reader names the value.
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
