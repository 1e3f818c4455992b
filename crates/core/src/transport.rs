//! Fault-tolerant framed transport for the node → analyzer synopsis stream.
//!
//! The paper assumes a reliable link between every tracked node and the
//! centralized analyzer. Real clusters do not have one: frames get lost,
//! duplicated, reordered, and corrupted, and nodes disconnect. This module
//! wraps the [`crate::codec`] batch encoding in a frame header so the
//! receiving side can *detect and quantify* every one of those failures
//! instead of silently mistaking missing data for healthy silence.
//!
//! # Wire format
//!
//! Every frame is a header followed by one payload in the format of
//! [`crate::codec`] (protocol version 3): rows that name definitions of
//! (host, stage, points, counts) made earlier in the same payload, so a
//! frame decodes on its own and nothing below cares what its rows say.
//! All header fields are big-endian (network order):
//!
//! ```text
//! offset  size  field
//!      0     2  host id of the sender
//!      2     8  frame sequence number (per host, starts at 0)
//!     10     8  cumulative synopses sent in frames BEFORE this one
//!     18     4  payload length in bytes
//!     22     4  CRC-32 over bytes 0..22 and the payload
//! ```
//!
//! The sequence number detects gaps and duplicates; the cumulative count
//! turns a frame gap into an *exact* number of missing synopses (the next
//! frame to arrive after a gap reveals how many synopses the lost frames
//! carried); the checksum rejects corruption. Frame boundaries are
//! preserved by the link layer (datagram model) — a corrupt frame is
//! discarded whole rather than desynchronizing the stream.
//!
//! # Loss accounting
//!
//! [`FrameReceiver`] tracks, per host, the synopses actually delivered and
//! the highest `cumulative + batch_len` seen. At quiescence (no frames in
//! flight) `expected − delivered` is the exact loss count, which
//! [`LinkStats`] reports. *Incremental* gap reports ([`AdmitDecision::Fresh`]
//! `newly_lost`) are conservative: under reordering a frame may be reported
//! lost and later arrive, in which case the late frame delivers its
//! synopses but the earlier report is not retracted. Downstream consumers
//! (the degradation-aware detector) therefore treat incremental loss as an
//! upper bound and the final [`LinkStats`] as ground truth. A
//! [`LossLedger`] keeps the same accounts for frames whose duplicates are
//! weeded out elsewhere: a root's, one window per uplink.

use crate::codec::{self, CheckedPayload, DecodeError, Definitions};
use crate::synopsis::{SynopsisHead, TaskSynopsis};
use crate::HostId;
use bytes::{BufMut, Bytes, BytesMut};
use saad_logging::LogPointId;
use saad_sim::SimTime;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Size of the frame header in bytes.
pub const FRAME_HEADER_LEN: usize = 26;

/// Largest payload the receiver will accept (sanity bound; a frame this
/// large would hold ~700k typical synopses).
pub const MAX_FRAME_PAYLOAD: usize = 16 * 1024 * 1024;

/// Sequence numbers more than this far below the per-host high watermark
/// are treated as duplicates without consulting the seen-set (which is
/// pruned to this horizon to bound memory).
const REORDER_HORIZON: u64 = 1024;

/// Reflected IEEE CRC-32 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables, built at compile time (8 KiB). `[0]` is the
/// classic byte-at-a-time table; `[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, which is what lets eight input bytes be
/// folded with eight independent loads.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE polynomial) over the concatenation of `chunks`. Public so
/// higher layers (e.g. the wire-protocol handshake in `saad-net`) checksum
/// their messages with the same algorithm the frame format uses.
///
/// On an x86_64 CPU with PCLMULQDQ a chunk of 64 bytes or more is folded
/// 16 bytes at a time by carry-less multiplication, and the slice-by-8
/// tables finish the tail of under 16 bytes it leaves. Shorter chunks
/// (a frame header, a handshake) and every other CPU go through the tables
/// alone. Both paths compute the same CRC and carry only the running CRC
/// from one chunk to the next, so a chunk may end anywhere.
pub fn crc32(chunks: &[&[u8]]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for chunk in chunks {
        #[cfg(target_arch = "x86_64")]
        if chunk.len() >= clmul::MIN_LEN {
            crc = clmul::update(crc, chunk);
            continue;
        }
        crc = crc32_tables(crc, chunk);
    }
    !crc
}

/// Slice-by-8 over [`CRC_TABLES`]: eight bytes per step, then four if
/// four remain, then the last few one at a time. Inlined, so that a short
/// chunk (a header, a hello) costs no call. A chunk of whole words, such
/// as a 32-byte hello, returns before the tail's tests.
#[inline(always)]
fn crc32_tables(mut crc: u32, chunk: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = chunk.chunks_exact(8);
    for w in &mut words {
        let word = u64::from_le_bytes(w.try_into().expect("chunks of 8")) ^ crc as u64;
        let (lo, hi) = (word as u32, (word >> 32) as u32);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    let mut rest = words.remainder();
    if rest.is_empty() {
        return crc;
    }
    if let Some((quad, bytes)) = rest.split_first_chunk::<4>() {
        let v = u32::from_le_bytes(*quad) ^ crc;
        crc = t[3][(v & 0xFF) as usize]
            ^ t[2][((v >> 8) & 0xFF) as usize]
            ^ t[1][((v >> 16) & 0xFF) as usize]
            ^ t[0][(v >> 24) as usize];
        rest = bytes;
    }
    for &b in rest {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 by carry-less multiplication, after Intel's "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction"
/// (Gopal et al., 2009) in its bit-reflected form: four 128-bit lanes
/// fold 64 bytes per step, the lanes fold into one, further 16-byte
/// blocks fold into that, and a Barrett reduction brings the 128 bits
/// down to the 32-bit CRC.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// Shortest chunk [`fold`] takes: one block for each of its lanes.
    pub(super) const MIN_LEN: usize = 64;

    /// `x^n mod P(x)` over GF(2), `P` the IEEE polynomial unreflected.
    const fn x_pow_mod_p(n: u32) -> u32 {
        let mut r = 1u32;
        let mut i = 0;
        while i < n {
            r = (r << 1) ^ (0x04C1_1DB7 & (r >> 31).wrapping_neg());
            i += 1;
        }
        r
    }

    /// The constant that moves a 64-bit half of a lane `n` bits further
    /// along the message, in the reflected, shifted-by-one form the
    /// multiplication wants.
    const fn fold_by(n: u32) -> i64 {
        ((x_pow_mod_p(n).reverse_bits() as u64) << 1) as i64
    }

    /// `floor(x^64 / P(x))`, the Barrett constant μ, reflected over its 33
    /// bits.
    const fn barrett_mu() -> i64 {
        let (mut rem, mut quo) = (1u128 << 64, 0u64);
        let mut bit = 64;
        while bit >= 32 {
            if rem >> bit & 1 == 1 {
                rem ^= 0x1_04C1_1DB7 << (bit - 32);
                quo |= 1 << (bit - 32);
            }
            bit -= 1;
        }
        (quo.reverse_bits() >> 31) as i64
    }

    /// Four lanes, 512 bits apart: (low half, high half).
    const FOLD_4: (i64, i64) = (fold_by(4 * 128 + 32), fold_by(4 * 128 - 32));
    /// One lane onto the next 128 bits.
    const FOLD_1: (i64, i64) = (fold_by(128 + 32), fold_by(128 - 32));
    /// 96 bits onto 64.
    const FOLD_64: i64 = fold_by(64);
    /// `P(x)` reflected over its 33 bits.
    const P: i64 = ((super::CRC_POLY as u64) << 1 | 1) as i64;
    /// μ, reflected.
    const MU: i64 = barrett_mu();

    /// The running CRC advanced over `chunk`, at least [`MIN_LEN`] bytes:
    /// by the kernel where the CPU has PCLMULQDQ, by the tables elsewhere.
    /// Out of line, so that a short chunk's path through [`super::crc32`]
    /// pays no more for the kernel than a length compare.
    #[inline(never)]
    pub(super) fn update(crc: u32, chunk: &[u8]) -> u32 {
        if !is_x86_feature_detected!("pclmulqdq") {
            return super::crc32_tables(crc, chunk);
        }
        // SAFETY: `fold` needs PCLMULQDQ, which the check above found, and
        // SSE2, which every x86_64 CPU has.
        let (crc, tail) = unsafe { fold(crc, chunk) };
        super::crc32_tables(crc, tail)
    }

    /// Fold `data`, at least [`MIN_LEN`] bytes, into the running CRC `crc`
    /// 16 bytes at a time. Returns the new running CRC and the tail of
    /// fewer than 16 bytes it did not take.
    ///
    /// Called from code without PCLMULQDQ enabled only after
    /// `is_x86_feature_detected!("pclmulqdq")`.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn fold(crc: u32, data: &[u8]) -> (u32, &[u8]) {
        let (first, rest) = data.split_at(MIN_LEN);
        let mut lanes = load4(first);
        // The running CRC enters as the first 32 bits of the message would.
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));
        let by4 = _mm_set_epi64x(FOLD_4.1, FOLD_4.0);
        let mut quads = rest.chunks_exact(64);
        for quad in &mut quads {
            let next = load4(quad);
            for (lane, block) in lanes.iter_mut().zip(next) {
                *lane = fold16(*lane, block, by4);
            }
        }
        let by1 = _mm_set_epi64x(FOLD_1.1, FOLD_1.0);
        let mut x = fold16(lanes[0], lanes[1], by1);
        x = fold16(x, lanes[2], by1);
        x = fold16(x, lanes[3], by1);
        let mut blocks = quads.remainder().chunks_exact(16);
        for block in &mut blocks {
            x = fold16(x, load(block), by1);
        }
        (reduce(x, by1), blocks.remainder())
    }

    /// `a` moved forward by the distance `k` encodes, added to `b`.
    #[target_feature(enable = "pclmulqdq")]
    fn fold16(a: __m128i, b: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, k, 0x00);
        let hi = _mm_clmulepi64_si128(a, k, 0x11);
        _mm_xor_si128(b, _mm_xor_si128(lo, hi))
    }

    /// 128 bits of folded message to the running CRC: to 96 bits, to 64,
    /// then Barrett to 32. Only SSE2 extracts the result.
    #[target_feature(enable = "pclmulqdq")]
    fn reduce(x: __m128i, by1: __m128i) -> u32 {
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, by1, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, FOLD_64), 0x00),
            _mm_srli_si128(x, 4),
        );
        let mu_p = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), mu_p, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), mu_p, 0x00);
        _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(x, t2), 4)) as u32
    }

    fn load4(bytes: &[u8]) -> [__m128i; 4] {
        [
            load(&bytes[..16]),
            load(&bytes[16..32]),
            load(&bytes[32..48]),
            load(&bytes[48..64]),
        ]
    }

    fn load(block: &[u8]) -> __m128i {
        assert!(block.len() >= 16);
        // SAFETY: the 16 bytes read lie inside `block` (asserted above),
        // and `loadu` has no alignment requirement.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }
}

/// Error from [`check_frame`], or from the payload parser behind it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Frame shorter than its header, or payload length disagrees with the
    /// bytes actually present.
    Truncated,
    /// Payload length field exceeds [`MAX_FRAME_PAYLOAD`].
    Oversized(u32),
    /// Stored CRC-32 does not match the frame contents.
    ChecksumMismatch {
        /// Checksum carried in the frame header.
        stored: u32,
        /// Checksum computed over the received bytes.
        computed: u32,
    },
    /// The checksum was valid but the payload failed the synopsis parser
    /// (sender-side bug, not link corruption).
    Codec(DecodeError),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => f.write_str("frame truncated"),
            FrameError::Oversized(n) => write!(f, "frame payload length {n} exceeds bound"),
            FrameError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "frame checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
                )
            }
            FrameError::Codec(e) => write!(f, "frame payload undecodable: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Sender half of the framed link: one per tracked host.
#[derive(Debug)]
pub struct FrameSender {
    host: HostId,
    next_seq: u64,
    synopses_sent: u64,
    /// The definitions of the frame [`FrameSender::encode_frame`] is
    /// writing, kept from frame to frame for their capacity.
    defs: Definitions,
}

impl FrameSender {
    /// Create a sender for `host`; sequence numbers start at 0.
    pub fn new(host: HostId) -> FrameSender {
        FrameSender {
            host,
            next_seq: 0,
            synopses_sent: 0,
            defs: Definitions::default(),
        }
    }

    /// The host this sender frames for.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Frames produced so far.
    pub fn frames_sent(&self) -> u64 {
        self.next_seq
    }

    /// Synopses carried by all frames produced so far.
    pub fn synopses_sent(&self) -> u64 {
        self.synopses_sent
    }

    /// Advance the cumulative synopsis count by `n` **without** emitting a
    /// frame, so the next encoded frame's `cumulative` field lands `n`
    /// positions further along the stream.
    ///
    /// This is the federation primitive: a leaf collector re-framing an
    /// agent's stream keeps its upstream sender in the *agent's global
    /// coordinates* by skipping over synopses it never received (an
    /// agent-side gap) or deliberately does not forward. The receiver's
    /// ordinary cumulative-count arithmetic then reports the skipped span
    /// as lost — the skip *is* the loss report, with zero extra wire
    /// messages.
    pub fn skip(&mut self, n: u64) {
        self.synopses_sent += n;
    }

    /// Encode `batch` into one wire frame, advancing the sequence number
    /// and cumulative count: the header, then the synopses encoded in
    /// place behind it, then the payload length and CRC patched into the
    /// header — one pass, no intermediate payload buffer.
    ///
    /// # Panics
    ///
    /// Panics if `batch` encodes to more than [`MAX_FRAME_PAYLOAD`] bytes,
    /// or needs more definitions than one payload holds — no receiver
    /// would accept that frame. A sender that may hold such a batch fills
    /// [`FramePayload`]s, which cut it.
    pub fn encode_frame(&mut self, batch: &[TaskSynopsis]) -> Bytes {
        let mut buf =
            BytesMut::with_capacity(FRAME_HEADER_LEN + codec::payload_capacity(batch.len()));
        let frame = self.begin_frame(&mut buf);
        codec::encode_batch_into(&mut buf, &mut self.defs, batch.iter());
        assert!(
            buf.len() - FRAME_HEADER_LEN <= MAX_FRAME_PAYLOAD,
            "batch encodes past MAX_FRAME_PAYLOAD; cut it into FramePayloads"
        );
        self.finish_frame(&mut buf, frame, batch.len() as u64);
        buf.freeze()
    }

    /// Append the wire frame of an already encoded `payload` to `buf`:
    /// header, the payload bytes copied behind it, length and CRC patched
    /// in. Byte for byte the frame [`FrameSender::encode_frame`] makes of
    /// the same synopses; the sequence number advances by one and the
    /// cumulative count by `payload.synopses()`. Every frame a sender
    /// builds outside `encode_frame` is built here, reusing `buf`: no
    /// allocation once it has grown to its working size.
    pub fn frame_payload_into(&mut self, buf: &mut BytesMut, payload: &FramePayload) {
        let frame = self.begin_frame(buf);
        buf.extend_from_slice(&payload.bytes);
        self.finish_frame(buf, frame, payload.synopses);
    }

    /// Append this frame's header to `buf`, payload length and CRC left
    /// zero for [`FrameSender::finish_frame`]. Returns the frame's offset.
    fn begin_frame(&self, buf: &mut BytesMut) -> usize {
        let frame = buf.len();
        buf.put_u16(self.host.0);
        buf.put_u64(self.next_seq);
        buf.put_u64(self.synopses_sent);
        buf.put_u64(0);
        frame
    }

    /// Close the frame begun at `frame`, whose payload of `synopses`
    /// synopses runs to the end of `buf`: patch the length and CRC into
    /// the header and advance the sequence number and cumulative count.
    fn finish_frame(&mut self, buf: &mut BytesMut, frame: usize, synopses: u64) {
        let payload = frame + FRAME_HEADER_LEN;
        let len = u32::try_from(buf.len() - payload).expect("payload bounded by MAX_FRAME_PAYLOAD");
        buf[frame + 18..frame + 22].copy_from_slice(&len.to_be_bytes());
        let crc = crc32(&[&buf[frame..frame + 22], &buf[payload..]]);
        buf[frame + 22..payload].copy_from_slice(&crc.to_be_bytes());
        self.next_seq += 1;
        self.synopses_sent += synopses;
    }
}

/// One frame's payload assembled ahead of its header: synopses encoded
/// back to back, how many, and the definitions the rows name. A producer
/// fills one where the synopses are made ([`FramePayload::push_parts`])
/// or re-encodes rows from a payload the parser checked
/// ([`FramePayload::push_checked`], a leaf forwarding its agents' rows);
/// the owner of the [`FrameSender`] turns it into a frame with
/// [`FrameSender::frame_payload_into`], a copy of bytes, without seeing a
/// [`TaskSynopsis`].
///
/// The fields are private because the frame format rests on them: the
/// count is the number of rows in the bytes, the definitions are the ones
/// those rows made, and the bytes stay within [`MAX_FRAME_PAYLOAD`] (a
/// single synopsis always does).
#[derive(Debug, Default)]
pub struct FramePayload {
    bytes: BytesMut,
    synopses: u64,
    defs: Definitions,
    /// A checked row's points, read back for [`FramePayload::push_checked`].
    scratch: Vec<(LogPointId, u32)>,
    /// For the checked payload numbered `remap.0`, each of its
    /// definitions already pushed: 1 + its index here, or 0.
    remap: (u64, Vec<u16>),
}

impl FramePayload {
    /// An empty payload; its buffers grow on first use.
    pub fn new() -> FramePayload {
        FramePayload::default()
    }

    /// The encoded synopses, as [`codec::encode_batch`] would lay them.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Synopses encoded in [`FramePayload::bytes`].
    pub fn synopses(&self) -> u64 {
        self.synopses
    }

    /// Whether no synopsis has been pushed.
    pub fn is_empty(&self) -> bool {
        self.synopses == 0
    }

    /// Forget the contents, keeping the buffers for the next frame.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.synopses = 0;
        self.defs.clear();
        self.remap.1.clear();
    }

    /// The most bytes the next synopsis may take this payload to: a
    /// payload already holding one stops at [`MAX_FRAME_PAYLOAD`].
    fn limit(&self) -> usize {
        if self.synopses == 0 {
            usize::MAX
        } else {
            MAX_FRAME_PAYLOAD
        }
    }

    /// Append the synopsis made of `head` and `points`. Returns `false`,
    /// leaving the payload as it was, when that would take a payload
    /// already holding a synopsis past [`MAX_FRAME_PAYLOAD`], or past the
    /// 4 096 definitions one payload holds: the caller hands this payload
    /// over and pushes the synopsis onto the next, which, being empty,
    /// takes it.
    #[must_use = "a refused synopsis belongs in the next payload"]
    pub fn push_parts(&mut self, head: &SynopsisHead, points: &[(LogPointId, u32)]) -> bool {
        let limit = self.limit();
        let pushed = self
            .defs
            .push(&mut self.bytes, limit, head, points)
            .is_some();
        self.synopses += u64::from(pushed);
        pushed
    }

    /// Append row `i` of `checked` under the rule of
    /// [`FramePayload::push_parts`]. Definitions are local to a payload,
    /// so the row is re-encoded against this payload's: the first row of
    /// `checked` to name a definition has its points read back and pushed
    /// as `push_parts` pushes them, and the definition it lands on here is
    /// remembered, so every later row naming the same one is written as
    /// its tag and fields alone.
    #[must_use = "a refused synopsis belongs in the next payload"]
    pub fn push_checked(&mut self, checked: &CheckedPayload<'_>, i: usize) -> bool {
        let limit = self.limit();
        let (head, from) = checked.head(i);
        let (parse, remap) = &mut self.remap;
        if *parse != checked.parse_number() {
            *parse = checked.parse_number();
            remap.clear();
        }
        if from >= remap.len() {
            remap.resize(from + 1, 0);
        }
        let pushed = match remap[from] {
            0 => {
                let mut points = std::mem::take(&mut self.scratch);
                checked.points(i, &mut points);
                let pushed = self.defs.push(&mut self.bytes, limit, head, &points);
                self.scratch = points;
                if let Some(id) = pushed {
                    remap[from] = id as u16 + 1;
                }
                pushed.is_some()
            }
            to => {
                let id = usize::from(to) - 1;
                self.defs.push_named(&mut self.bytes, limit, id, head)
            }
        };
        self.synopses += u64::from(pushed);
        pushed
    }
}

/// The one check every received frame passes before its payload is read,
/// whoever reads it: header bounds, payload length, CRC-32. Returns the
/// header and the payload, borrowed from `frame`, for the one synopsis
/// parser: a collector decodes in place from its ring
/// ([`codec::decode_batch_into`]), a leaf checks what it forwards
/// ([`CheckedPayload::parse`]).
///
/// # Errors
///
/// [`FrameError::Truncated`] when the frame is shorter than its header or
/// its payload is not the length the header says;
/// [`FrameError::Oversized`] past [`MAX_FRAME_PAYLOAD`];
/// [`FrameError::ChecksumMismatch`] when the CRC disagrees.
pub fn check_frame(frame: &[u8]) -> Result<(FrameHeader, &[u8]), FrameError> {
    let (header_bytes, payload) = frame
        .split_at_checked(FRAME_HEADER_LEN)
        .ok_or(FrameError::Truncated)?;
    let header = parse_frame_header(header_bytes)?;
    if payload.len() != header.payload_len as usize {
        return Err(FrameError::Truncated);
    }
    verify_frame_crc(header_bytes, payload)?;
    Ok((header, payload))
}

/// The fixed fields of one frame header, decoded without touching the
/// payload — the first step of the incremental decode path used by
/// readiness-driven collectors that learn the payload length before the
/// payload bytes have arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Sending host.
    pub host: HostId,
    /// Frame sequence number.
    pub seq: u64,
    /// Cumulative synopses sent in frames before this one.
    pub cumulative: u64,
    /// Payload length in bytes (already bounds-checked).
    pub payload_len: u32,
    /// Stored CRC-32 over the first 22 header bytes plus the payload.
    pub crc: u32,
}

/// Decode the [`FRAME_HEADER_LEN`] fixed bytes of a frame.
///
/// # Errors
///
/// [`FrameError::Truncated`] when fewer than [`FRAME_HEADER_LEN`] bytes
/// are given; [`FrameError::Oversized`] when the length field exceeds
/// [`MAX_FRAME_PAYLOAD`].
pub fn parse_frame_header(header: &[u8]) -> Result<FrameHeader, FrameError> {
    if header.len() < FRAME_HEADER_LEN {
        return Err(FrameError::Truncated);
    }
    let payload_len = u32::from_be_bytes(header[18..22].try_into().expect("4 bytes"));
    if payload_len as usize > MAX_FRAME_PAYLOAD {
        return Err(FrameError::Oversized(payload_len));
    }
    Ok(FrameHeader {
        host: HostId(u16::from_be_bytes([header[0], header[1]])),
        seq: u64::from_be_bytes(header[2..10].try_into().expect("8 bytes")),
        cumulative: u64::from_be_bytes(header[10..18].try_into().expect("8 bytes")),
        payload_len,
        crc: u32::from_be_bytes(header[22..26].try_into().expect("4 bytes")),
    })
}

/// Verify a frame's CRC-32 given its header bytes and payload as
/// separate slices — no concatenation needed, so a frame held in a ring
/// buffer is checked in place. `Truncated` when `header` is short,
/// `ChecksumMismatch` when the stored and computed CRCs disagree.
fn verify_frame_crc(header: &[u8], payload: &[u8]) -> Result<(), FrameError> {
    if header.len() < FRAME_HEADER_LEN {
        return Err(FrameError::Truncated);
    }
    let stored = u32::from_be_bytes(header[22..26].try_into().expect("4 bytes"));
    let computed = crc32(&[&header[..22], payload]);
    if computed != stored {
        return Err(FrameError::ChecksumMismatch { stored, computed });
    }
    Ok(())
}

/// A gap report suitable for feeding
/// [`crate::detector::AnomalyDetector::record_loss`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LossReport {
    /// Host whose synopses went missing.
    pub host: HostId,
    /// Approximate time of the loss — by convention the start time of the
    /// first synopsis in the frame that revealed the gap.
    pub at: SimTime,
    /// Number of synopses known missing.
    pub count: u64,
}

/// Exact per-host link statistics at quiescence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Distinct frames delivered.
    pub delivered_frames: u64,
    /// Synopses delivered by distinct frames.
    pub delivered_synopses: u64,
    /// Duplicate frames discarded.
    pub duplicate_frames: u64,
    /// Highest `cumulative + batch_len` observed — the number of synopses
    /// the sender is known to have emitted up to its latest received frame.
    pub expected_synopses: u64,
    /// `expected − delivered`: synopses lost on the link. Exact once no
    /// frames remain in flight.
    pub lost_synopses: u64,
}

/// One host's delivery account: the transport's delivered / expected /
/// newly-lost arithmetic, written once. A [`FrameReceiver`] keeps one per
/// host beside that host's [`SeqWindow`]; a [`LossLedger`] keeps one per
/// host for frames whose windows live elsewhere.
#[derive(Debug, Default, Clone, Copy)]
struct Account {
    delivered_frames: u64,
    delivered_synopses: u64,
    duplicate_frames: u64,
    expected_synopses: u64,
    /// Incremental loss already surfaced through `newly_lost`.
    reported_lost: u64,
}

impl Account {
    /// Charge one fresh frame of `count` synopses that starts at stream
    /// position `cumulative`. Returns the synopses it newly reveals
    /// missing: conservative under reordering (see the module docs).
    fn fresh(&mut self, cumulative: u64, count: u64) -> u64 {
        self.delivered_frames += 1;
        self.delivered_synopses += count;
        self.expected_synopses = self.expected_synopses.max(cumulative + count);
        let lost_now = self.stats().lost_synopses;
        let newly_lost = lost_now.saturating_sub(self.reported_lost);
        self.reported_lost = self.reported_lost.max(lost_now);
        newly_lost
    }

    fn stats(&self) -> LinkStats {
        LinkStats {
            delivered_frames: self.delivered_frames,
            delivered_synopses: self.delivered_synopses,
            duplicate_frames: self.duplicate_frames,
            expected_synopses: self.expected_synopses,
            lost_synopses: self
                .expected_synopses
                .saturating_sub(self.delivered_synopses),
        }
    }
}

/// Which of one sender's frame sequence numbers have arrived.
#[derive(Debug, Default)]
struct SeqWindow {
    /// Highest sequence number seen.
    max_seq: u64,
    /// Sequence numbers seen within the reorder horizon.
    seen: HashSet<u64>,
}

impl SeqWindow {
    /// Record `seq`; `false` if it was seen before or lies past the
    /// reorder horizon, i.e. the frame is a duplicate.
    fn admit(&mut self, seq: u64) -> bool {
        if seq + REORDER_HORIZON < self.max_seq || !self.seen.insert(seq) {
            return false;
        }
        if seq > self.max_seq {
            self.max_seq = seq;
            // Prune the seen-set below the horizon; anything older is
            // classified duplicate by the watermark test above.
            if self.seen.len() > 2 * REORDER_HORIZON as usize {
                let floor = self.max_seq.saturating_sub(REORDER_HORIZON);
                self.seen.retain(|&s| s >= floor);
            }
        }
        true
    }
}

#[derive(Debug, Default)]
struct HostLink {
    account: Account,
    window: SeqWindow,
}

/// Receiver half of the framed link: validates, deduplicates, and accounts
/// for every frame from every host — per host, one sequence window and
/// one account, found with one map lookup per frame.
#[derive(Debug, Default)]
pub struct FrameReceiver {
    hosts: HashMap<HostId, HostLink>,
    corrupted_frames: u64,
}

impl FrameReceiver {
    /// Create an empty receiver.
    pub fn new() -> FrameReceiver {
        FrameReceiver::default()
    }

    /// Frames rejected as truncated, oversized, checksum-invalid, or
    /// unparseable. Corrupt frames carry no trustworthy header, so this
    /// count is global rather than per host.
    pub fn corrupted_frames(&self) -> u64 {
        self.corrupted_frames
    }

    /// Link statistics for one host (zeroes if never heard from).
    pub fn stats(&self, host: HostId) -> LinkStats {
        self.hosts
            .get(&host)
            .map(|l| l.account.stats())
            .unwrap_or_default()
    }

    /// Link statistics for every host heard from. Returns a borrowed
    /// iterator — no per-call `HashMap` is built; collect if ownership is
    /// needed.
    pub fn all_stats(&self) -> impl Iterator<Item = (HostId, LinkStats)> + '_ {
        self.hosts.iter().map(|(&h, l)| (h, l.account.stats()))
    }

    /// Highest frame sequence number seen from `host` (`None` if the host
    /// was never heard from).
    pub fn highest_seq(&self, host: HostId) -> Option<u64> {
        self.hosts.get(&host).map(|l| l.window.max_seq)
    }

    /// Total synopses lost across all hosts (exact at quiescence).
    pub fn total_lost(&self) -> u64 {
        self.all_stats().map(|(_, s)| s.lost_synopses).sum()
    }

    /// Count one frame rejected by [`check_frame`] or the payload parser
    /// before it reached [`FrameReceiver::admit_meta`].
    pub fn record_corrupted(&mut self) {
        self.corrupted_frames += 1;
    }

    /// Prime per-host accounting from a resume handshake.
    ///
    /// A receiver with no state for `host` (e.g. a restarted collector
    /// whose predecessor's link state was lost) adopts the sender's
    /// declared history: `written` synopses were handed to a previous
    /// receiver incarnation and must not be re-counted as lost, while
    /// `sent − written` — frames the sender already knows never reached a
    /// live socket — surface as `newly_lost` on the next fresh frame.
    /// `next_seq` is the sequence number the sender will use next; older
    /// sequence numbers are classified duplicates, so a stray redelivery
    /// of pre-resume frames cannot double count.
    ///
    /// A no-op when the host already has state (the live receiver's own
    /// accounting is strictly better than the sender's declaration).
    pub fn resume(&mut self, host: HostId, written: u64, sent: u64, next_seq: u64) {
        if self.hosts.contains_key(&host) {
            return;
        }
        if next_seq == 0 {
            // Nothing was ever framed; a fresh link needs no priming.
            return;
        }
        let link = self.hosts.entry(host).or_default();
        link.account.delivered_synopses = written.min(sent);
        link.account.expected_synopses = sent;
        link.window.max_seq = next_seq - 1;
        // Marking max_seq as seen makes any redelivery of it a duplicate;
        // older sequence numbers fall to the horizon test in `admit`.
        link.window.seen.insert(next_seq - 1);
    }

    /// Sequence one checked frame by its header metadata: deduplicate,
    /// account, and reveal gaps. `count` is the number of synopses the
    /// frame carries, read by the payload parser. O(1) per frame, so a
    /// collector runs the per-byte work (CRC, parsing) outside the lock
    /// it shares across connections and takes it only for this.
    pub fn admit_meta(
        &mut self,
        host: HostId,
        seq: u64,
        cumulative: u64,
        count: u64,
    ) -> AdmitDecision {
        let link = self.hosts.entry(host).or_default();
        if !link.window.admit(seq) {
            link.account.duplicate_frames += 1;
            return AdmitDecision::Duplicate;
        }
        let newly_lost = link.account.fresh(cumulative, count);
        AdmitDecision::Fresh { newly_lost }
    }
}

/// What [`FrameReceiver::admit_meta`] concluded about a checked frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitDecision {
    /// A frame not seen before; its synopses should be processed.
    Fresh {
        /// Synopses newly discovered missing (gap revealed by this frame's
        /// cumulative count). Conservative under reordering — see the
        /// module docs.
        newly_lost: u64,
    },
    /// Already delivered (or past the reorder horizon); the decoded
    /// payload must be discarded.
    Duplicate,
}

/// Per-host loss accounting for frames sequenced elsewhere: the
/// [`FrameReceiver`]'s accounts without its windows, fed its verdicts.
///
/// This is the root's view of a federated collector tier. Each leaf
/// forwards a host's synopses in frames whose `cumulative` count is their
/// position in the *agent's* stream (leaves keep their upstream
/// [`FrameSender`]s aligned with [`FrameSender::skip`]), but numbers its
/// frames per uplink — so each uplink keeps its own windows, and one
/// ledger keeps the loss:
///
/// * `delivered` is the **sum** over uplinks (each position arrives on at
///   most one uplink — a leaf forwards a synopsis once, and the uplink's
///   window has discarded duplicates);
/// * `expected` is the **max** over uplinks of the highest position seen.
///
/// `expected − delivered` is then the exact cross-failover loss: synopses
/// that died with a killed leaf (buffered but never flushed), died on a
/// wire (agent→leaf or leaf→root), or never left the agent. A host
/// re-homing from leaf A to leaf B surfaces as one contiguous gap between
/// A's last delivered position and B's first forwarded one — never silent
/// loss, never double counting, regardless of which leaf owned the host
/// when.
#[derive(Debug, Default)]
pub struct LossLedger {
    hosts: HashMap<HostId, Account>,
}

impl LossLedger {
    /// Create an empty ledger.
    pub fn new() -> LossLedger {
        LossLedger::default()
    }

    /// Charge one fresh frame for `host`, from any link: `count` synopses
    /// from stream position `cumulative` on. Returns the synopses newly
    /// discovered missing across **all** links — conservative under
    /// cross-link races as single-link reports are under reordering (see
    /// the module docs); [`LossLedger::stats`] is exact at quiescence.
    pub fn fresh(&mut self, host: HostId, cumulative: u64, count: u64) -> u64 {
        self.hosts.entry(host).or_default().fresh(cumulative, count)
    }

    /// Count one duplicate frame some link discarded for `host`.
    pub fn duplicate(&mut self, host: HostId) {
        self.hosts.entry(host).or_default().duplicate_frames += 1;
    }

    /// Statistics for one host over every link (zeroes if never heard
    /// from).
    pub fn stats(&self, host: HostId) -> LinkStats {
        self.hosts
            .get(&host)
            .map(Account::stats)
            .unwrap_or_default()
    }

    /// Statistics for every host heard from on any link.
    pub fn all_stats(&self) -> impl Iterator<Item = (HostId, LinkStats)> + '_ {
        self.hosts.iter().map(|(&h, a)| (h, a.stats()))
    }

    /// Total synopses lost across all hosts and links (exact at
    /// quiescence).
    pub fn total_lost(&self) -> u64 {
        self.all_stats().map(|(_, s)| s.lost_synopses).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::{SignatureInterner, INLINE_POINTS};
    use crate::testkit::{parse_frame, FrameOutcome};
    use crate::{StageId, TaskUid};
    use saad_logging::LogPointId;
    use saad_sim::SimDuration;

    fn synopsis(host: u16, uid: u64) -> TaskSynopsis {
        TaskSynopsis {
            host: HostId(host),
            stage: StageId(1),
            uid: TaskUid(uid),
            start: SimTime::from_millis(uid),
            duration: SimDuration::from_micros(1_000),
            log_points: vec![(LogPointId(1), 1), (LogPointId(2), 2)],
        }
    }

    fn batch(host: u16, uids: std::ops::Range<u64>) -> Vec<TaskSynopsis> {
        uids.map(|u| synopsis(host, u)).collect()
    }

    #[test]
    fn round_trip_delivers_payload_in_order() {
        let mut tx = FrameSender::new(HostId(3));
        let mut rx = FrameReceiver::new();
        let b1 = batch(3, 0..4);
        let b2 = batch(3, 4..9);
        for b in [&b1, &b2] {
            match rx.accept(&tx.encode_frame(b)).unwrap() {
                FrameOutcome::Fresh {
                    host,
                    synopses,
                    newly_lost,
                } => {
                    assert_eq!(host, HostId(3));
                    assert_eq!(&synopses, b);
                    assert_eq!(newly_lost, 0);
                }
                other => panic!("unexpected: {other:?}"),
            }
        }
        let stats = rx.stats(HostId(3));
        assert_eq!(stats.delivered_frames, 2);
        assert_eq!(stats.delivered_synopses, 9);
        assert_eq!(stats.expected_synopses, 9);
        assert_eq!(stats.lost_synopses, 0);
        assert_eq!(rx.corrupted_frames(), 0);
    }

    /// Synopses that reach every corner of the row format: definitions
    /// named again and again, no points, more points than the decoder's
    /// inline scratch, uids and starts at both ends of `u64` (deltas that
    /// wrap), and counts of `u32::MAX`.
    fn corner_synopses() -> Vec<TaskSynopsis> {
        let long: Vec<(LogPointId, u32)> = (0..INLINE_POINTS as u16 + 3)
            .map(|p| (LogPointId(5 * p), 1 + p as u32))
            .collect();
        (0..61u64)
            .map(|i| {
                let extreme = [0, u64::MAX, 1 << 63, u64::MAX - 1][i as usize % 4];
                let (uid, start) = match i % 7 {
                    0 => (extreme, extreme),
                    1 => (u64::MAX - i, i),
                    _ => (1_000 + i, 5_000_000 + 900 * i),
                };
                let log_points = match i % 5 {
                    0 => vec![],
                    1 => long.clone(),
                    2 => vec![(LogPointId(3), u32::MAX), (LogPointId(9), 1)],
                    _ => vec![(LogPointId(1), 1), (LogPointId(2), 2)],
                };
                TaskSynopsis {
                    host: HostId(3),
                    stage: StageId((i % 3) as u16),
                    uid: TaskUid(uid),
                    start: SimTime::from_micros(start),
                    duration: SimDuration::from_micros(if i % 6 == 0 { u64::MAX } else { i }),
                    log_points,
                }
            })
            .collect()
    }

    #[test]
    fn checked_rows_of_two_payloads_interleave() {
        // A view's definition indices are its own: rows taken from two
        // checked payloads in turn land on this payload's definitions as
        // the same synopses pushed in that order would.
        let all = corner_synopses();
        let (left, right) = all.split_at(30);
        let (l, r) = (codec::encode_batch(left), codec::encode_batch(right));
        let (mut lm, mut rm) = (Vec::new(), Vec::new());
        let lv = CheckedPayload::parse(&l, &mut lm).unwrap();
        let rv = CheckedPayload::parse(&r, &mut rm).unwrap();
        let mut payload = FramePayload::new();
        let mut want = Vec::new();
        for i in 0..right.len() {
            for (view, half) in [(&lv, left), (&rv, right)] {
                if let Some(s) = half.get(i) {
                    assert!(payload.push_checked(view, i));
                    want.push(s.clone());
                }
            }
        }
        assert_eq!(payload.bytes(), &codec::encode_batch(&want)[..]);
    }

    #[test]
    fn payload_frames_are_the_frames_of_the_same_batches() {
        // Same sender state, same synopses: framing a payload, filled from
        // the synopses or re-encoded from a checked view of their bytes,
        // and encoding the batch in place give the same bytes, an empty
        // one included.
        let all = corner_synopses();
        let mut in_place = FrameSender::new(HostId(3));
        let mut via_payload = FrameSender::new(HostId(3));
        let mut via_view = FrameSender::new(HostId(3));
        let (mut payload, mut copied) = (FramePayload::new(), FramePayload::new());
        let mut marks = Vec::new();
        let (mut a, mut b, mut c) = (BytesMut::new(), BytesMut::new(), BytesMut::new());
        let mut frames = Vec::new();
        for rows in [0..4, 4..4, 4..52, 52..53, 53..61] {
            let batch = &all[rows];
            payload.clear();
            for s in batch {
                assert!(payload.push_parts(&s.head(), &s.log_points));
            }
            assert_eq!(payload.synopses(), batch.len() as u64);
            assert_eq!(payload.is_empty(), batch.is_empty());
            let encoded = codec::encode_batch(batch);
            assert_eq!(payload.bytes(), &encoded[..]);
            let view = CheckedPayload::parse(&encoded, &mut marks).unwrap();
            // The owned reading of a checked view keeps every count.
            assert_eq!(crate::testkit::decode_checked(&view), batch);
            copied.clear();
            for i in 0..view.starts().len() {
                assert!(copied.push_checked(&view, i));
            }
            assert_eq!(
                (copied.bytes(), copied.synopses()),
                (payload.bytes(), payload.synopses())
            );
            let frame = in_place.encode_frame(batch);
            a.extend_from_slice(&frame);
            frames.push(frame);
            via_payload.frame_payload_into(&mut b, &payload);
            via_view.frame_payload_into(&mut c, &copied);
        }
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(via_payload.frames_sent(), 5);
        assert_eq!(via_payload.synopses_sent(), 61);

        // Re-framed the way a leaf forwards: every row of the agent's
        // frames, in order, into payloads cut at other rows. Decoded, the
        // new frames are the columns the synopses push to, and every
        // count survives.
        let interner = SignatureInterner::new();
        let mut want = crate::batch::SynopsisBatch::new();
        for s in &all {
            want.push_synopsis(s, &interner);
        }
        for cut_every in [1, 2, 5, 7, 13, 61] {
            let mut leaf = FrameSender::new(HostId(3));
            let mut pending = FramePayload::new();
            let mut reframed = Vec::new();
            let mut taken = 0;
            for frame in &frames {
                let (_, body) = check_frame(frame).unwrap();
                let view = CheckedPayload::parse(body, &mut marks).unwrap();
                for i in 0..view.starts().len() {
                    assert!(pending.push_checked(&view, i));
                    taken += 1;
                    if taken % cut_every == 0 {
                        let mut out = BytesMut::new();
                        leaf.frame_payload_into(&mut out, &pending);
                        reframed.push(out);
                        pending.clear();
                    }
                }
            }
            let mut out = BytesMut::new();
            leaf.frame_payload_into(&mut out, &pending);
            reframed.push(out);
            let mut got = crate::batch::SynopsisBatch::new();
            let mut owned = Vec::new();
            for frame in &reframed {
                let (_, body) = check_frame(frame).unwrap();
                codec::decode_batch_into(body, &mut got, &interner).unwrap();
                owned.extend(
                    crate::testkit::decode_batch(&mut Bytes::copy_from_slice(body)).unwrap(),
                );
            }
            assert_eq!(owned, all, "cut every {cut_every}");
            assert_eq!(got.uids, want.uids);
            assert_eq!(got.hosts, want.hosts);
            assert_eq!(got.stages, want.stages);
            assert_eq!(got.sigs, want.sigs);
            assert_eq!(got.durations_us, want.durations_us);
            assert_eq!(got.starts, want.starts);
            assert_eq!(got.watermarks, want.watermarks);
        }
    }

    #[test]
    fn payload_refuses_the_synopsis_that_would_cross_the_bound() {
        // ~60 KB a synopsis, each its own definition; the cut falls after
        // the longest run of whole rows within the bound, from either kind
        // of push.
        let heavy: Vec<TaskSynopsis> = (0..MAX_FRAME_PAYLOAD as u64 / 60_000 + 2)
            .map(|uid| TaskSynopsis {
                log_points: (0..10_000u16)
                    .map(|p| (LogPointId(p), u32::MAX - p as u32 - uid as u32))
                    .collect(),
                ..synopsis(2, uid)
            })
            .collect();
        let mut ends = Vec::new();
        let (mut defs, mut unbounded) = (Definitions::default(), BytesMut::new());
        for s in &heavy {
            let pushed = defs.push(&mut unbounded, usize::MAX, &s.head(), &s.log_points);
            assert!(pushed.is_some());
            ends.push(unbounded.len());
        }
        let framed = ends
            .iter()
            .take_while(|&&end| end <= MAX_FRAME_PAYLOAD)
            .count();
        assert!(0 < framed && framed < heavy.len());
        let wire = codec::encode_batch(&heavy[..framed]);
        let all = codec::encode_batch(&heavy);
        assert_eq!(&all[..], &unbounded[..]);
        let mut marks = Vec::new();
        let view = CheckedPayload::parse(&all, &mut marks).unwrap();

        type Push<'a> = &'a dyn Fn(&mut FramePayload, usize) -> bool;
        let pushes: [Push; 2] = [
            &|payload, i| payload.push_parts(&heavy[i].head(), &heavy[i].log_points),
            &|payload, i| payload.push_checked(&view, i),
        ];
        for push in pushes {
            let mut payload = FramePayload::new();
            let taken = (0..heavy.len())
                .take_while(|&i| push(&mut payload, i))
                .count();
            assert_eq!(taken, framed);
            assert_eq!(payload.synopses(), framed as u64);
            assert!(payload.bytes().len() <= MAX_FRAME_PAYLOAD);
            assert_eq!(payload.bytes(), &wire[..]);
            // Refused means untouched; and an empty payload takes anything.
            assert!(!push(&mut payload, framed));
            assert_eq!(payload.bytes(), &wire[..]);
            payload.clear();
            assert!(push(&mut payload, framed));
        }
    }

    #[test]
    fn payload_refuses_a_definition_past_its_table() {
        // One definition per host: a full table refuses the next new one
        // as the byte bound refuses a row, and still takes a known one.
        let on = |host: usize| synopsis(host as u16, host as u64);
        let mut payload = FramePayload::new();
        for host in 0..codec::MAX_DEFS {
            let s = on(host);
            assert!(payload.push_parts(&s.head(), &s.log_points));
        }
        let full = payload.bytes().to_vec();
        let next = on(codec::MAX_DEFS);
        assert!(!payload.push_parts(&next.head(), &next.log_points));
        assert_eq!(payload.bytes(), &full[..]);
        assert_eq!(payload.synopses(), codec::MAX_DEFS as u64);
        let known = on(17);
        assert!(payload.push_parts(&known.head(), &known.log_points));
        payload.clear();
        assert!(payload.push_parts(&next.head(), &next.log_points));
    }

    #[test]
    fn empty_batch_frames_are_valid() {
        let mut tx = FrameSender::new(HostId(0));
        let mut rx = FrameReceiver::new();
        let out = rx.accept(&tx.encode_frame(&[])).unwrap();
        assert!(matches!(out, FrameOutcome::Fresh { ref synopses, .. } if synopses.is_empty()));
    }

    #[test]
    fn gap_is_reported_exactly_once() {
        let mut tx = FrameSender::new(HostId(1));
        let mut rx = FrameReceiver::new();
        let f0 = tx.encode_frame(&batch(1, 0..3));
        let f1 = tx.encode_frame(&batch(1, 3..10)); // 7 synopses — lost
        let f2 = tx.encode_frame(&batch(1, 10..12));
        let f3 = tx.encode_frame(&batch(1, 12..13));
        rx.accept(&f0).unwrap();
        drop(f1);
        match rx.accept(&f2).unwrap() {
            FrameOutcome::Fresh { newly_lost, .. } => assert_eq!(newly_lost, 7),
            other => panic!("unexpected: {other:?}"),
        }
        // The following frame reveals no further loss.
        match rx.accept(&f3).unwrap() {
            FrameOutcome::Fresh { newly_lost, .. } => assert_eq!(newly_lost, 0),
            other => panic!("unexpected: {other:?}"),
        }
        let stats = rx.stats(HostId(1));
        assert_eq!(stats.lost_synopses, 7);
        assert_eq!(stats.expected_synopses, 13);
        assert_eq!(stats.delivered_synopses, 6);
    }

    #[test]
    fn duplicates_are_detected_and_not_redelivered() {
        let mut tx = FrameSender::new(HostId(2));
        let mut rx = FrameReceiver::new();
        let f = tx.encode_frame(&batch(2, 0..5));
        assert!(matches!(rx.accept(&f).unwrap(), FrameOutcome::Fresh { .. }));
        assert_eq!(
            rx.accept(&f).unwrap(),
            FrameOutcome::Duplicate {
                host: HostId(2),
                seq: 0
            }
        );
        let stats = rx.stats(HostId(2));
        assert_eq!(stats.delivered_synopses, 5);
        assert_eq!(stats.duplicate_frames, 1);
        assert_eq!(stats.lost_synopses, 0);
    }

    #[test]
    fn reordered_frames_resolve_to_exact_final_stats() {
        let mut tx = FrameSender::new(HostId(4));
        let mut rx = FrameReceiver::new();
        let f0 = tx.encode_frame(&batch(4, 0..2));
        let f1 = tx.encode_frame(&batch(4, 2..6));
        let f2 = tx.encode_frame(&batch(4, 6..7));
        rx.accept(&f0).unwrap();
        // f2 overtakes f1: incremental report over-counts (conservative)…
        match rx.accept(&f2).unwrap() {
            FrameOutcome::Fresh { newly_lost, .. } => assert_eq!(newly_lost, 4),
            other => panic!("unexpected: {other:?}"),
        }
        // …but the late arrival still delivers, and final stats are exact.
        match rx.accept(&f1).unwrap() {
            FrameOutcome::Fresh { newly_lost, .. } => assert_eq!(newly_lost, 0),
            other => panic!("unexpected: {other:?}"),
        }
        let stats = rx.stats(HostId(4));
        assert_eq!(stats.delivered_synopses, 7);
        assert_eq!(stats.expected_synopses, 7);
        assert_eq!(stats.lost_synopses, 0);
    }

    #[test]
    fn hosts_are_accounted_independently() {
        let mut tx_a = FrameSender::new(HostId(10));
        let mut tx_b = FrameSender::new(HostId(11));
        let mut rx = FrameReceiver::new();
        rx.accept(&tx_a.encode_frame(&batch(10, 0..3))).unwrap();
        let lost = tx_b.encode_frame(&batch(11, 0..8));
        drop(lost);
        rx.accept(&tx_b.encode_frame(&batch(11, 8..9))).unwrap();
        assert_eq!(rx.stats(HostId(10)).lost_synopses, 0);
        assert_eq!(rx.stats(HostId(11)).lost_synopses, 8);
        assert_eq!(rx.total_lost(), 8);
        assert_eq!(rx.all_stats().count(), 2);
        let summed: u64 = rx.all_stats().map(|(_, s)| s.lost_synopses).sum();
        assert_eq!(summed, rx.total_lost());
    }

    #[test]
    fn corrupted_payload_byte_is_rejected_by_checksum() {
        let mut tx = FrameSender::new(HostId(0));
        let mut rx = FrameReceiver::new();
        let mut bytes = tx.encode_frame(&batch(0, 0..3)).to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        match rx.accept(&bytes) {
            Err(FrameError::ChecksumMismatch { stored, computed }) => {
                assert_ne!(stored, computed);
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(rx.corrupted_frames(), 1);
        // The link stats are untouched by the corrupt frame.
        assert_eq!(rx.stats(HostId(0)), LinkStats::default());
    }

    #[test]
    fn corrupted_header_byte_is_rejected_by_checksum() {
        let mut tx = FrameSender::new(HostId(0));
        let mut rx = FrameReceiver::new();
        let mut bytes = tx.encode_frame(&batch(0, 0..3)).to_vec();
        bytes[5] ^= 0x01; // flips a sequence-number bit
        assert!(matches!(
            rx.accept(&bytes),
            Err(FrameError::ChecksumMismatch { .. })
        ));
        assert_eq!(rx.corrupted_frames(), 1);
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let mut tx = FrameSender::new(HostId(0));
        let mut rx = FrameReceiver::new();
        let bytes = tx.encode_frame(&batch(0, 0..3));
        // Shorter than a header.
        assert_eq!(rx.accept(&bytes[..10]), Err(FrameError::Truncated));
        // Header intact, payload cut short.
        assert_eq!(
            rx.accept(&bytes[..bytes.len() - 2]),
            Err(FrameError::Truncated)
        );
        // Extra trailing bytes are equally a framing violation.
        let mut long = bytes.to_vec();
        long.push(0);
        assert_eq!(rx.accept(&long), Err(FrameError::Truncated));
        assert_eq!(rx.corrupted_frames(), 3);
    }

    #[test]
    fn oversized_length_field_is_rejected() {
        // Hand-build a header claiming a gigantic payload; the length check
        // must fire before any allocation.
        let mut buf = BytesMut::new();
        buf.put_u16(0);
        buf.put_u64(0);
        buf.put_u64(0);
        buf.put_u32(u32::MAX);
        let crc = crc32(&[&buf[..]]);
        buf.put_u32(crc);
        let mut rx = FrameReceiver::new();
        assert_eq!(
            rx.accept(&buf.freeze()),
            Err(FrameError::Oversized(u32::MAX))
        );
    }

    #[test]
    fn checksum_valid_but_undecodable_payload_is_codec_error() {
        // A payload of a single 0xFF byte is a truncated varint: frame
        // integrity passes, synopsis decoding fails.
        let payload = [0xFFu8];
        let mut buf = BytesMut::new();
        buf.put_u16(7);
        buf.put_u64(0);
        buf.put_u64(0);
        buf.put_u32(payload.len() as u32);
        let crc = crc32(&[&buf[..], &payload]);
        buf.put_u32(crc);
        buf.extend_from_slice(&payload);
        let mut rx = FrameReceiver::new();
        assert_eq!(
            rx.accept(&buf.freeze()),
            Err(FrameError::Codec(DecodeError::UnexpectedEof))
        );
        assert_eq!(rx.corrupted_frames(), 1);
    }

    #[test]
    fn ancient_sequence_numbers_count_as_duplicates() {
        let mut rx = FrameReceiver::new();
        let mut tx = FrameSender::new(HostId(5));
        let old = tx.encode_frame(&batch(5, 0..1));
        // Fast-forward the sender far past the reorder horizon.
        for _ in 0..(REORDER_HORIZON + 10) {
            let f = tx.encode_frame(&[]);
            rx.accept(&f).unwrap();
        }
        assert!(matches!(
            rx.accept(&old),
            Ok(FrameOutcome::Duplicate { seq: 0, .. })
        ));
    }

    #[test]
    fn empty_batch_frame_is_header_only_and_advances_sequencing() {
        let mut tx = FrameSender::new(HostId(6));
        let mut rx = FrameReceiver::new();
        let empty = tx.encode_frame(&[]);
        // An empty batch costs exactly the header plus the payload of an
        // encoded zero-length batch.
        let payload_len = empty.len() - FRAME_HEADER_LEN;
        assert!(payload_len <= 4, "empty batch payload {payload_len} bytes");
        rx.accept(&empty).unwrap();
        // Sequencing still advances: a following lost frame is revealed.
        let lost = tx.encode_frame(&batch(6, 0..5));
        drop(lost);
        match rx.accept(&tx.encode_frame(&batch(6, 5..6))).unwrap() {
            FrameOutcome::Fresh { newly_lost, .. } => assert_eq!(newly_lost, 5),
            other => panic!("unexpected: {other:?}"),
        }
        let stats = rx.stats(HostId(6));
        assert_eq!(stats.delivered_frames, 2);
        assert_eq!(stats.delivered_synopses, 1);
    }

    #[test]
    fn payload_length_exactly_at_bound_is_not_oversized() {
        // A header claiming exactly MAX_FRAME_PAYLOAD with a short actual
        // payload must fail as Truncated (length mismatch), not Oversized
        // — the bound check is exclusive of the maximum.
        let mut buf = BytesMut::new();
        buf.put_u16(0);
        buf.put_u64(0);
        buf.put_u64(0);
        buf.put_u32(MAX_FRAME_PAYLOAD as u32);
        let crc = crc32(&[&buf[..]]);
        buf.put_u32(crc);
        let mut rx = FrameReceiver::new();
        assert_eq!(rx.accept(&buf.freeze()), Err(FrameError::Truncated));
        // One past the bound is rejected before any payload inspection.
        let mut buf = BytesMut::new();
        buf.put_u16(0);
        buf.put_u64(0);
        buf.put_u64(0);
        buf.put_u32(MAX_FRAME_PAYLOAD as u32 + 1);
        let crc = crc32(&[&buf[..]]);
        buf.put_u32(crc);
        assert_eq!(
            rx.accept(&buf.freeze()),
            Err(FrameError::Oversized(MAX_FRAME_PAYLOAD as u32 + 1))
        );
    }

    #[test]
    fn multi_megabyte_frame_round_trips() {
        // A realistically huge batch (200k synopses of one definition,
        // over a megabyte encoded)
        // survives the encode → CRC → decode round trip intact.
        let mut tx = FrameSender::new(HostId(8));
        let mut rx = FrameReceiver::new();
        let big = batch(8, 0..200_000);
        let frame = tx.encode_frame(&big);
        assert!(
            frame.len() > 1024 * 1024,
            "frame only {} bytes",
            frame.len()
        );
        assert!(frame.len() <= FRAME_HEADER_LEN + MAX_FRAME_PAYLOAD);
        match rx.accept(&frame).unwrap() {
            FrameOutcome::Fresh { synopses, .. } => assert_eq!(synopses, big),
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(rx.stats(HostId(8)).delivered_synopses, 200_000);
    }

    #[test]
    fn parse_then_admit_equals_accept() {
        let mut tx_a = FrameSender::new(HostId(1));
        let mut tx_b = FrameSender::new(HostId(1));
        let mut via_accept = FrameReceiver::new();
        let mut via_admit = FrameReceiver::new();
        for uids in [0..3u64, 3..7, 7..8] {
            let fa = tx_a.encode_frame(&batch(1, uids.clone()));
            let fb = tx_b.encode_frame(&batch(1, uids));
            let a = via_accept.accept(&fa).unwrap();
            let b = via_admit.admit(parse_frame(&fb).unwrap());
            assert_eq!(a, b);
        }
        assert_eq!(via_accept.stats(HostId(1)), via_admit.stats(HostId(1)));
        // Parse rejections counted via record_corrupted keep parity too.
        assert!(parse_frame(&[0u8; 4]).is_err());
        via_admit.record_corrupted();
        assert_eq!(via_admit.corrupted_frames(), 1);
    }

    #[test]
    fn resume_adopts_sender_history_and_reports_only_the_known_gap() {
        // A sender framed 4 batches (20 synopses); the first 3 (15) were
        // written to a previous receiver incarnation, the 4th (5) never
        // reached a live socket. The restarted receiver is primed from the
        // handshake and the first post-resume frame reveals exactly the
        // 5-synopsis gap — not the 15 delivered to the predecessor.
        let mut tx = FrameSender::new(HostId(3));
        for uids in [0..5u64, 5..10, 10..15] {
            drop(tx.encode_frame(&batch(3, uids))); // delivered previously
        }
        drop(tx.encode_frame(&batch(3, 15..20))); // lost in transit
        let mut rx = FrameReceiver::new();
        rx.resume(HostId(3), 15, 20, tx.frames_sent());
        match rx.accept(&tx.encode_frame(&batch(3, 20..22))).unwrap() {
            FrameOutcome::Fresh { newly_lost, .. } => assert_eq!(newly_lost, 5),
            other => panic!("unexpected: {other:?}"),
        }
        let stats = rx.stats(HostId(3));
        assert_eq!(stats.lost_synopses, 5);
        assert_eq!(stats.expected_synopses, 22);
        // A stray redelivery of the last pre-resume frame is a duplicate.
        let mut replay = FrameSender::new(HostId(3));
        for _ in 0..3 {
            replay.encode_frame(&[]);
        }
        let old = replay.encode_frame(&batch(3, 10..15));
        assert!(matches!(
            rx.accept(&old).unwrap(),
            FrameOutcome::Duplicate { seq: 3, .. }
        ));
    }

    #[test]
    fn resume_is_a_no_op_for_known_hosts_and_fresh_senders() {
        let mut tx = FrameSender::new(HostId(4));
        let mut rx = FrameReceiver::new();
        rx.accept(&tx.encode_frame(&batch(4, 0..3))).unwrap();
        let before = rx.stats(HostId(4));
        // Live state wins over the handshake's declaration.
        rx.resume(HostId(4), 0, 100, 50);
        assert_eq!(rx.stats(HostId(4)), before);
        // A sender that never framed anything needs no priming — and its
        // first frame (seq 0) must not be classified a duplicate.
        rx.resume(HostId(5), 0, 0, 0);
        let mut fresh = FrameSender::new(HostId(5));
        assert!(matches!(
            rx.accept(&fresh.encode_frame(&batch(5, 0..2))).unwrap(),
            FrameOutcome::Fresh { .. }
        ));
    }

    #[test]
    fn header_parse_and_crc_split_matches_parse_frame() {
        let mut tx = FrameSender::new(HostId(9));
        let frame = tx.encode_frame(&batch(9, 0..4));
        let whole = parse_frame(&frame).unwrap();
        let header = parse_frame_header(&frame[..FRAME_HEADER_LEN]).unwrap();
        assert_eq!(header.host, whole.host);
        assert_eq!(header.seq, whole.seq);
        assert_eq!(header.cumulative, whole.cumulative);
        assert_eq!(header.payload_len as usize, frame.len() - FRAME_HEADER_LEN);
        verify_frame_crc(&frame[..FRAME_HEADER_LEN], &frame[FRAME_HEADER_LEN..]).unwrap();

        // A flipped payload byte fails the split verify exactly like the
        // whole-frame parse.
        let mut bad = frame.to_vec();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        assert!(matches!(
            verify_frame_crc(&bad[..FRAME_HEADER_LEN], &bad[FRAME_HEADER_LEN..]),
            Err(FrameError::ChecksumMismatch { .. })
        ));
        assert!(matches!(
            parse_frame(&bad),
            Err(FrameError::ChecksumMismatch { .. })
        ));

        // Header-level bounds checks.
        assert_eq!(
            parse_frame_header(&frame[..FRAME_HEADER_LEN - 1]),
            Err(FrameError::Truncated)
        );
        let mut oversized = frame[..FRAME_HEADER_LEN].to_vec();
        oversized[18..22].copy_from_slice(&(MAX_FRAME_PAYLOAD as u32 + 1).to_be_bytes());
        assert_eq!(
            parse_frame_header(&oversized),
            Err(FrameError::Oversized(MAX_FRAME_PAYLOAD as u32 + 1))
        );
    }

    #[test]
    fn admit_meta_matches_admit_across_dup_loss_and_reorder() {
        // Drive two receivers through the same frame schedule — one via
        // admit (payload path), one via admit_meta (metadata path) — and
        // require identical stats and verdicts throughout.
        let mut tx = FrameSender::new(HostId(3));
        let mut frames: Vec<_> = (0..12)
            .map(|i| tx.encode_frame(&batch(3, 0..i % 4)))
            .collect();
        frames.swap(4, 6); // reorder
        frames.remove(9); // drop one (loss)
        let dup = frames[2].clone();
        frames.push(dup); // re-deliver (duplicate)

        let mut via_admit = FrameReceiver::new();
        let mut via_meta = FrameReceiver::new();
        for frame in &frames {
            let parsed = parse_frame(frame).unwrap();
            let count = parsed.synopses.len() as u64;
            let (host, seq, cum) = (parsed.host, parsed.seq, parsed.cumulative);
            let outcome = via_admit.admit(parsed);
            let decision = via_meta.admit_meta(host, seq, cum, count);
            match (&outcome, &decision) {
                (
                    FrameOutcome::Fresh { newly_lost, .. },
                    AdmitDecision::Fresh { newly_lost: m },
                ) => {
                    assert_eq!(newly_lost, m);
                }
                (FrameOutcome::Duplicate { .. }, AdmitDecision::Duplicate) => {}
                other => panic!("verdicts diverged: {other:?}"),
            }
        }
        assert_eq!(via_admit.stats(HostId(3)), via_meta.stats(HostId(3)));
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789" is 0xCBF43926.
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b"1234", b"56789"]), 0xCBF4_3926);
    }

    /// The running (pre-inverted) CRC advanced one bit at a time: the
    /// definition both fast paths are held to.
    fn bit_serial(mut crc: u32, data: &[u8]) -> u32 {
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            }
        }
        crc
    }

    /// The carry-less kernel over `data` with the tables finishing its
    /// tail, or `None` where the kernel cannot run: too short, another
    /// architecture, or a CPU without PCLMULQDQ.
    fn via_kernel(crc: u32, data: &[u8]) -> Option<u32> {
        #[cfg(target_arch = "x86_64")]
        if data.len() >= clmul::MIN_LEN && std::arch::is_x86_feature_detected!("pclmulqdq") {
            // SAFETY: the CPU has PCLMULQDQ, checked just above.
            let (crc, tail) = unsafe { clmul::fold(crc, data) };
            // The tail is the bytes past the last whole 16-byte block.
            assert!(std::ptr::eq(tail, &data[data.len() / 16 * 16..]));
            return Some(crc32_tables(crc, tail));
        }
        let _ = (crc, data);
        None
    }

    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn kernel_and_tables_equal_the_bit_serial_crc_at_every_length_and_offset() {
        let data = noise(1100 + 16);
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            via_kernel(!0, &data[..64]).is_some(),
            std::arch::is_x86_feature_detected!("pclmulqdq"),
            "the kernel runs wherever the CPU has PCLMULQDQ"
        );
        for start in 0..16 {
            // Extend the oracle a byte at a time instead of recomputing it.
            let mut want = !0u32;
            for len in 0..=1100 {
                let slice = &data[start..start + len];
                if len > 0 {
                    want = bit_serial(want, &slice[len - 1..]);
                }
                assert_eq!(
                    crc32_tables(!0, slice),
                    want,
                    "tables: start {start} len {len}"
                );
                if let Some(got) = via_kernel(!0, slice) {
                    assert_eq!(got, want, "kernel: start {start} len {len}");
                }
                assert_eq!(crc32(&[slice]), !want, "crc32: start {start} len {len}");
            }
        }
    }

    #[test]
    fn state_carries_across_every_hand_over_between_tables_and_kernel() {
        // One cut anywhere in 0..=200 bytes, then a 64-byte chunk: every
        // residue of tables → kernel → tables, and of the kernel's tail
        // handing its state to a kernel run in the next chunk.
        let data = noise(200 + 64);
        for len in 0..=200 {
            let want = !bit_serial(!0, &data[..len + 64]);
            for cut in 0..=len {
                let chunks = [&data[..cut], &data[cut..len], &data[len..len + 64]];
                assert_eq!(crc32(&chunks), want, "len {len} cut {cut}");
            }
        }
    }

    #[test]
    fn any_flipped_bit_of_a_frame_fails_its_crc() {
        // Frame-shaped: a 22-byte header, the CRC, then an agent-sized
        // payload (32 synopses of ~17.5 and ~25.5 bytes).
        for payload_len in [560, 816] {
            let bytes = noise(22 + payload_len);
            let (header, payload) = bytes.split_at(22);
            let mut frame = header.to_vec();
            frame.extend_from_slice(&(!bit_serial(!0, &bytes)).to_be_bytes());
            frame.extend_from_slice(payload);
            let (head, body) = frame.split_at(FRAME_HEADER_LEN);
            verify_frame_crc(head, body).unwrap();
            for bit in 0..frame.len() * 8 {
                let mut bad = frame.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                let (head, body) = bad.split_at(FRAME_HEADER_LEN);
                assert!(
                    matches!(
                        verify_frame_crc(head, body),
                        Err(FrameError::ChecksumMismatch { .. })
                    ),
                    "payload {payload_len}, bit {bit} flipped"
                );
            }
        }
    }

    #[test]
    fn skip_surfaces_as_exact_loss_on_the_receiver() {
        // A re-framing forwarder skips 7 positions it never received; the
        // receiver's ordinary cum arithmetic reports exactly that gap.
        let mut tx = FrameSender::new(HostId(9));
        let mut rx = FrameReceiver::new();
        rx.accept(&tx.encode_frame(&batch(9, 0..4))).unwrap();
        tx.skip(7);
        assert_eq!(tx.synopses_sent(), 11);
        match rx.accept(&tx.encode_frame(&batch(9, 11..13))).unwrap() {
            FrameOutcome::Fresh { newly_lost, .. } => assert_eq!(newly_lost, 7),
            other => panic!("unexpected: {other:?}"),
        }
        let stats = rx.stats(HostId(9));
        assert_eq!(stats.delivered_synopses, 6);
        assert_eq!(stats.expected_synopses, 13);
        assert_eq!(stats.lost_synopses, 7);
        // A trailing skip is revealed by an empty goodbye frame.
        tx.skip(3);
        match rx.accept(&tx.encode_frame(&[])).unwrap() {
            FrameOutcome::Fresh { newly_lost, .. } => assert_eq!(newly_lost, 3),
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(rx.stats(HostId(9)).lost_synopses, 10);
    }

    #[test]
    fn ledger_sums_delivery_and_maxes_expectation() {
        // Two links forwarding disjoint spans of one host's stream in
        // global coordinates: delivered adds up, expected is the furthest
        // position either link has seen, loss is their difference.
        let mut ledger = LossLedger::new();
        let h = HostId(1);
        assert_eq!(ledger.fresh(h, 0, 10), 0); // link A: positions 0..10
        assert_eq!(ledger.fresh(h, 20, 5), 10); // link B: 20..25 → 10 missing
        let s = ledger.stats(h);
        assert_eq!(s.delivered_synopses, 15);
        assert_eq!(s.expected_synopses, 25);
        assert_eq!(s.lost_synopses, 10);
        assert_eq!(s.delivered_frames, 2);
        assert_eq!(ledger.total_lost(), 10);
        // The gap filled in late on link A: delivery catches up, the
        // incremental report was conservative, final stats are exact.
        assert_eq!(ledger.fresh(h, 10, 10), 0);
        assert_eq!(ledger.stats(h).lost_synopses, 0);
        assert_eq!(ledger.total_lost(), 0);
    }

    #[test]
    fn ledger_accounts_failover_exactly() {
        // Leaf A delivers positions 0..100 then dies holding 40 buffered
        // synopses; the host re-homes to leaf B, whose first digest starts
        // at global position 140. The ledger reports the 40 dead-leaf
        // synopses as one gap, exactly once, with no duplicates.
        let mut ledger = LossLedger::new();
        let h = HostId(7);
        assert_eq!(ledger.fresh(h, 0, 60), 0);
        assert_eq!(ledger.fresh(h, 60, 40), 0);
        assert_eq!(ledger.fresh(h, 140, 10), 40); // leaf B: 140..150
        assert_eq!(ledger.fresh(h, 150, 20), 0); // leaf B keeps flowing
        let s = ledger.stats(h);
        assert_eq!(s.delivered_synopses, 130);
        assert_eq!(s.expected_synopses, 170);
        assert_eq!(s.lost_synopses, 40);
        ledger.duplicate(h);
        assert_eq!(ledger.stats(h).duplicate_frames, 1);
        assert_eq!(ledger.stats(h).lost_synopses, 40, "dup changes nothing");
        assert_eq!(ledger.all_stats().count(), 1);
    }

    #[test]
    fn ledger_keeps_hosts_independent() {
        let mut ledger = LossLedger::new();
        assert_eq!(ledger.fresh(HostId(1), 0, 5), 0);
        assert_eq!(ledger.fresh(HostId(2), 6, 3), 6);
        assert_eq!(ledger.stats(HostId(1)).lost_synopses, 0);
        assert_eq!(ledger.stats(HostId(2)).lost_synopses, 6);
        assert_eq!(ledger.stats(HostId(3)), LinkStats::default());
        assert_eq!(ledger.total_lost(), 6);
    }

    proptest::proptest! {
        /// A receiver is its windows plus a ledger: fed the verdicts the
        /// receiver's windows reach, a `LossLedger` reveals the same gaps
        /// and ends with the same accounts, under loss, duplicates,
        /// reordering and frames held back past the reorder horizon.
        #[test]
        fn a_receiver_is_a_ledger_fed_its_verdicts(
            frames in proptest::collection::vec((0u16..3, 0u64..5, 0u8..8), 1..200),
        ) {
            let mut receiver = FrameReceiver::new();
            let mut ledger = LossLedger::new();
            let mut deliver = |(host, seq, cum, count): (HostId, u64, u64, u64)| {
                let verdict = receiver.admit_meta(host, seq, cum, count);
                let fed = match verdict {
                    AdmitDecision::Fresh { .. } => AdmitDecision::Fresh {
                        newly_lost: ledger.fresh(host, cum, count),
                    },
                    AdmitDecision::Duplicate => {
                        ledger.duplicate(host);
                        AdmitDecision::Duplicate
                    }
                };
                assert_eq!(verdict, fed);
            };
            // Per host, frames of `count` synopses at increasing positions.
            // Fate 0 loses the frame, 1 delivers it twice, 2 holds it back
            // until a later frame is delivered, 3 delivers it and then
            // jumps the numbering past the horizon (what is held back
            // becomes ancient), anything else delivers it.
            let mut next: HashMap<u16, (u64, u64)> = HashMap::new();
            let mut held = Vec::new();
            for (host, count, fate) in frames {
                let (seq, cum) = next.entry(host).or_default();
                let frame = (HostId(host), *seq, *cum, count);
                *seq += if fate == 3 { REORDER_HORIZON + 2 } else { 1 };
                *cum += count;
                match fate {
                    0 => {}
                    1 => (0..2).for_each(|_| deliver(frame)),
                    2 => held.push(frame),
                    _ => {
                        deliver(frame);
                        held.drain(..).for_each(&mut deliver);
                    }
                }
            }
            held.into_iter().for_each(deliver);
            for host in 0..3 {
                proptest::prop_assert_eq!(receiver.stats(HostId(host)), ledger.stats(HostId(host)));
            }
            proptest::prop_assert_eq!(receiver.total_lost(), ledger.total_lost());
        }
    }
}
