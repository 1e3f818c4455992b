//! The wire path's byte work against the simple code it replaced.
//!
//! Between `AgentSink` and `decode_batch_into` three things touch every
//! byte: the CRC, the frame encoder and the socket write. Each is now
//! built for speed — carry-less multiplication over chunks of 64 bytes or
//! more and slice-by-8 tables for the rest, one pass into a reused buffer,
//! one write per message — and each is held here to the plain version: a
//! bit-serial CRC, `header ‖ crc ‖ payload` composed byte by byte with a
//! one-byte-at-a-time varint writer and a list search for each row's
//! definition, and a writer that counts its calls.
//! A committed golden frame pins the format itself, so "byte-identical"
//! does not only mean "identical to whatever this build does". (The
//! agent's coalescing write loop is tested against a failing writer in
//! `saad-net`'s `agent` module, next to the code.)

use bytes::BytesMut;
use proptest::prelude::*;
use saad::core::synopsis::TaskSynopsis;
use saad::core::transport::{crc32, FramePayload, FrameSender};
use saad::core::{HostId, StageId, TaskUid};
use saad::logging::LogPointId;
use saad::net::protocol::{write_message, MAX_MESSAGE_LEN};
use saad::sim::{SimDuration, SimTime};
use std::io::{self, IoSlice, Write};

/// The CRC-32 the transport shipped with before the tables: IEEE
/// polynomial, reflected, one bit at a time.
fn crc32_bit_serial(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

/// LEB128, one byte at a time.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// A signed delta folded onto the unsigned varints.
fn zigzag(delta: u64) -> u64 {
    let d = delta as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

/// One frame composed the way the format is specified, sharing no code
/// with the encoder under test: each row's tag, its definition written
/// out in full where the row is the first of the payload with its (host,
/// stage, points, counts), then its uid and start as deltas from the row
/// before and its duration.
fn reference_frame(host: HostId, seq: u64, cumulative: u64, batch: &[TaskSynopsis]) -> Vec<u8> {
    let mut payload = Vec::new();
    let mut defined: Vec<&TaskSynopsis> = Vec::new();
    let (mut uid, mut start) = (0u64, 0u64);
    for s in batch {
        let def = |d: &&TaskSynopsis| {
            (d.host, d.stage, &d.log_points) == (s.host, s.stage, &s.log_points)
        };
        match defined.iter().position(def) {
            Some(id) => put_varint(&mut payload, (id as u64) << 1),
            None => {
                put_varint(&mut payload, (defined.len() as u64) << 1);
                put_varint(&mut payload, s.host.0 as u64);
                put_varint(&mut payload, s.stage.0 as u64);
                put_varint(&mut payload, s.log_points.len() as u64);
                let mut prev = 0u64;
                for &(p, c) in &s.log_points {
                    put_varint(&mut payload, (p.0 as u64).wrapping_sub(prev));
                    put_varint(&mut payload, c as u64);
                    prev = p.0 as u64;
                }
                defined.push(s);
            }
        }
        put_varint(&mut payload, zigzag(s.uid.0.wrapping_sub(uid)));
        put_varint(
            &mut payload,
            zigzag(s.start.as_micros().wrapping_sub(start)),
        );
        put_varint(&mut payload, s.duration.as_micros());
        (uid, start) = (s.uid.0, s.start.as_micros());
    }
    let mut frame = Vec::new();
    frame.extend_from_slice(&host.0.to_be_bytes());
    frame.extend_from_slice(&seq.to_be_bytes());
    frame.extend_from_slice(&cumulative.to_be_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    let mut covered = frame.clone();
    covered.extend_from_slice(&payload);
    frame.extend_from_slice(&crc32_bit_serial(&covered).to_be_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// One generated task: stage, points with counts, uid, duration, start,
/// and which earlier task of its batch, if any, it takes its stage and
/// points from.
type RawTask = (u16, Vec<(u16, u32)>, u64, u64, u64, u16);

fn raw_task() -> impl Strategy<Value = RawTask> {
    (
        0u16..400,
        // Unsorted and repeated ids included: the encoder must not care.
        collection::vec((0u16..6000, 1u32..100_000), 0..24),
        0u64..u64::MAX,
        0u64..40_000_000,
        0u64..4_000_000_000_000,
        0u16..64,
    )
}

/// The synopses of one batch of generated tasks. About half the tasks
/// repeat an earlier task's stage and points, so rows name definitions.
fn batch_of(host: HostId, raw: Vec<RawTask>) -> Vec<TaskSynopsis> {
    let mut batch: Vec<TaskSynopsis> = Vec::new();
    for (stage, points, uid, dur_us, start_us, reuse) in raw {
        let mut s = TaskSynopsis {
            host,
            stage: StageId(stage),
            uid: TaskUid(uid),
            start: SimTime::from_micros(start_us),
            duration: SimDuration::from_micros(dur_us),
            log_points: points
                .into_iter()
                .map(|(p, c)| (LogPointId(p), c))
                .collect(),
        };
        if reuse % 2 == 0 && !batch.is_empty() {
            let earlier = &batch[reuse as usize / 2 % batch.len()];
            (s.stage, s.log_points) = (earlier.stage, earlier.log_points.clone());
        }
        batch.push(s);
    }
    batch
}

fn task(host: u16, uid: u64, points: usize) -> TaskSynopsis {
    TaskSynopsis {
        host: HostId(host),
        stage: StageId(3),
        uid: TaskUid(uid),
        start: SimTime::from_millis(uid),
        duration: SimDuration::from_micros(900 + uid),
        log_points: (0..points)
            .map(|p| (LogPointId(1 + p as u16), 1 + p as u32))
            .collect(),
    }
}

fn batch(host: u16, uids: std::ops::Range<u64>) -> Vec<TaskSynopsis> {
    uids.map(|u| task(host, u, (u % 5) as usize)).collect()
}

#[test]
fn crc32_matches_the_check_value_and_the_oracle_at_every_split() {
    assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
    assert_eq!(crc32(&[b"1234", b"56789"]), 0xCBF4_3926);
    assert_eq!(crc32(&[]), 0);
    // Every length up to 200, split at every offset: all eight residues of
    // both the chunk boundary and the tail on the tables, and every
    // hand-over into and out of the 64-byte-and-up kernel.
    let data: Vec<u8> = (0..200u32).map(|i| (i * 151 + 17) as u8).collect();
    for len in 0..=data.len() {
        let want = crc32_bit_serial(&data[..len]);
        for cut in 0..=len {
            assert_eq!(
                crc32(&[&data[..cut], &data[cut..len]]),
                want,
                "len {len} cut {cut}"
            );
        }
    }
}

proptest! {
    /// The fast CRC equals the bit-serial one over any data and any
    /// chunking of it.
    #[test]
    fn crc32_equals_bit_serial_oracle(
        data in collection::vec(0u16..256, 0..4097),
        cuts in collection::vec(0usize..4097, 0..6),
    ) {
        let data: Vec<u8> = data.into_iter().map(|b| b as u8).collect();
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
        cuts.push(0);
        cuts.push(data.len());
        cuts.sort_unstable();
        let chunks: Vec<&[u8]> = cuts.windows(2).map(|w| &data[w[0]..w[1]]).collect();
        prop_assert_eq!(crc32(&chunks), crc32_bit_serial(&data));
    }

    /// `frame_payload_into`, appending a payload filled in place to a
    /// reused buffer that still holds other bytes, produces the specified
    /// frame byte for byte and leaves what was there alone;
    /// `encode_frame` is the same bytes.
    #[test]
    fn frame_payload_into_equals_reference_composition(
        batches in collection::vec(collection::vec(raw_task(), 0..12), 1..6),
        junk in collection::vec(0u16..256, 0..40),
    ) {
        let host = HostId(513);
        let junk: Vec<u8> = junk.into_iter().map(|b| b as u8).collect();
        let mut into = FrameSender::new(host);
        let mut allocating = FrameSender::new(host);
        let mut buf = BytesMut::new();
        let mut payload = FramePayload::new();
        let mut cumulative = 0u64;
        for (seq, raw) in batches.into_iter().enumerate() {
            let batch = batch_of(host, raw);
            let want = reference_frame(host, seq as u64, cumulative, &batch);
            // Same buffer every round: stale frame bytes sit in its spare
            // capacity, and `junk` sits in front of the new frame.
            buf.clear();
            buf.extend_from_slice(&junk);
            payload.clear();
            for s in &batch {
                prop_assert!(payload.push_parts(&s.head(), &s.log_points));
            }
            into.frame_payload_into(&mut buf, &payload);
            prop_assert_eq!(payload.synopses(), batch.len() as u64);
            prop_assert_eq!(&buf[..junk.len()], &junk[..]);
            prop_assert_eq!(&buf[junk.len()..], &want[..]);
            prop_assert_eq!(&allocating.encode_frame(&batch)[..], &want[..]);
            cumulative += batch.len() as u64;
            prop_assert_eq!(into.frames_sent(), seq as u64 + 1);
            prop_assert_eq!(into.synopses_sent(), cumulative);
        }
    }
}

#[test]
fn golden_frame_pins_the_wire_format() {
    // Captured from the protocol-3 encoder and checked against the format
    // by hand: second frame of host 7, three synopses already sent. Row 0
    // defines id 0 (tag 00), row 1 defines id 1 (tag 02), rows 2 and 3
    // name ids 0 and 1 (tags 00, 02); uids and starts are deltas that
    // wrap through u64::MAX.
    const GOLDEN: &str = "0007000000000000000100000000000000030000003d2397621a0007ac0204010101\
                          288001018626f0a204aab4de75a0e7b43a8a5002070400abb4de759fe7b43a0000ae\
                          b4de75f0f6b43a8a5002adb4de75eff6b43a00";
    let full = TaskSynopsis {
        host: HostId(7),
        stage: StageId(300),
        uid: TaskUid(123_456_789),
        start: SimTime::from_millis(61_250),
        duration: SimDuration::from_micros(10_250),
        log_points: vec![
            (LogPointId(1), 1),
            (LogPointId(2), 40),
            (LogPointId(130), 1),
            (LogPointId(5000), 70_000),
        ],
    };
    let bare = TaskSynopsis {
        host: HostId(7),
        stage: StageId(4),
        uid: TaskUid(u64::MAX),
        start: SimTime::from_micros(0),
        duration: SimDuration::from_micros(0),
        log_points: vec![],
    };
    let again = TaskSynopsis {
        uid: TaskUid(123_456_790),
        start: SimTime::from_millis(61_251),
        ..full.clone()
    };
    let rows = [full, bare.clone(), again, bare.clone()];
    let mut tx = FrameSender::new(HostId(7));
    tx.encode_frame(&[bare.clone(), bare.clone(), bare]);
    let frame = tx.encode_frame(&rows);
    let hex: String = frame.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, GOLDEN);
    assert_eq!(frame[..], reference_frame(HostId(7), 1, 3, &rows)[..]);
}

/// Accepts `accept` bytes in all, at most `per_call` per write, then
/// fails like a dead socket.
struct FailingWriter {
    accept: usize,
    per_call: usize,
    taken: Vec<u8>,
}

impl FailingWriter {
    fn new(accept: usize, per_call: usize) -> FailingWriter {
        FailingWriter {
            accept,
            per_call,
            taken: Vec::new(),
        }
    }
}

impl Write for FailingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let room = self.accept - self.taken.len();
        if room == 0 {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        let n = buf.len().min(room).min(self.per_call);
        self.taken.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Counts calls; takes everything offered, or one byte at a time.
struct CountingWriter {
    one_byte: bool,
    calls: usize,
    taken: Vec<u8>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write_vectored(&[IoSlice::new(buf)])
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        self.calls += 1;
        let mut n = 0;
        for b in bufs {
            let take = if self.one_byte {
                b.len().min(1 - n)
            } else {
                b.len()
            };
            self.taken.extend_from_slice(&b[..take]);
            n += take;
        }
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn write_message_is_one_write_and_survives_short_ones() {
    let body = FrameSender::new(HostId(1)).encode_frame(&batch(1, 0..48));
    let mut want = (body.len() as u32).to_be_bytes().to_vec();
    want.extend_from_slice(&body);

    let mut whole = CountingWriter {
        one_byte: false,
        calls: 0,
        taken: Vec::new(),
    };
    write_message(&mut whole, &body).unwrap();
    assert_eq!(whole.calls, 1, "prefix and body leave in one write");
    assert_eq!(whole.taken, want);

    let mut trickle = CountingWriter {
        one_byte: true,
        calls: 0,
        taken: Vec::new(),
    };
    write_message(&mut trickle, &body).unwrap();
    assert_eq!(trickle.calls, want.len());
    assert_eq!(trickle.taken, want);

    let mut dead = FailingWriter::new(0, usize::MAX);
    assert!(write_message(&mut dead, &body).is_err());

    let mut untouched = Vec::new();
    let err = write_message(&mut untouched, &vec![0u8; MAX_MESSAGE_LEN + 1]).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    assert!(untouched.is_empty());
}
