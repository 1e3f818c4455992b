//! The wire path's byte work against the simple code it replaced.
//!
//! Between `AgentSink` and `decode_batch_into` three things touch every
//! byte: the CRC, the frame encoder and the socket write. Each is now
//! built for speed — carry-less multiplication over chunks of 64 bytes or
//! more and slice-by-8 tables for the rest, one pass into a reused buffer,
//! one write per message — and each is held here to the plain version: a
//! bit-serial CRC, `header ‖ crc ‖ payload` composed byte by byte with a
//! one-byte-at-a-time varint writer, and a writer that counts its calls.
//! A committed golden frame pins the format itself, so "byte-identical"
//! does not only mean "identical to whatever this build does". (The
//! agent's coalescing write loop is tested against a failing writer in
//! `saad-net`'s `agent` module, next to the code.)

use bytes::BytesMut;
use proptest::prelude::*;
use saad::core::prelude::*;
use saad::core::synopsis::TaskSynopsis;
use saad::core::transport::{crc32, FrameSender};
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

/// One frame composed the way the format is specified, sharing no code
/// with the encoder under test.
fn reference_frame(host: HostId, seq: u64, cumulative: u64, batch: &[TaskSynopsis]) -> Vec<u8> {
    let mut payload = Vec::new();
    for s in batch {
        put_varint(&mut payload, s.host.0 as u64);
        put_varint(&mut payload, s.stage.0 as u64);
        put_varint(&mut payload, s.uid.0);
        put_varint(&mut payload, s.start.as_micros());
        put_varint(&mut payload, s.duration.as_micros());
        put_varint(&mut payload, s.log_points.len() as u64);
        let mut prev = 0u64;
        for &(p, c) in &s.log_points {
            put_varint(&mut payload, (p.0 as u64).wrapping_sub(prev));
            put_varint(&mut payload, c as u64);
            prev = p.0 as u64;
        }
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

/// One generated task: stage, points with counts, uid, duration, start.
type RawTask = (u16, Vec<(u16, u32)>, u64, u64, u64);

fn raw_task() -> impl Strategy<Value = RawTask> {
    (
        0u16..400,
        // Unsorted and repeated ids included: the encoder must not care.
        collection::vec((0u16..6000, 1u32..100_000), 0..24),
        0u64..u64::MAX,
        0u64..40_000_000,
        0u64..4_000_000_000_000,
    )
}

fn synopsis_of(host: HostId, (stage, points, uid, dur_us, start_us): RawTask) -> TaskSynopsis {
    TaskSynopsis {
        host,
        stage: StageId(stage),
        uid: TaskUid(uid),
        start: SimTime::from_micros(start_us),
        duration: SimDuration::from_micros(dur_us),
        log_points: points
            .into_iter()
            .map(|(p, c)| (LogPointId(p), c))
            .collect(),
    }
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

    /// `encode_frame_into`, appending to a reused buffer that still holds
    /// other bytes, produces the specified frame byte for byte and leaves
    /// what was there alone; `encode_frame` is the same bytes.
    #[test]
    fn encode_frame_into_equals_reference_composition(
        batches in collection::vec(collection::vec(raw_task(), 0..12), 1..6),
        junk in collection::vec(0u16..256, 0..40),
    ) {
        let host = HostId(513);
        let junk: Vec<u8> = junk.into_iter().map(|b| b as u8).collect();
        let mut into = FrameSender::new(host);
        let mut allocating = FrameSender::new(host);
        let mut buf = BytesMut::new();
        let mut cumulative = 0u64;
        for (seq, raw) in batches.into_iter().enumerate() {
            let batch: Vec<TaskSynopsis> =
                raw.into_iter().map(|t| synopsis_of(host, t)).collect();
            let want = reference_frame(host, seq as u64, cumulative, &batch);
            // Same buffer every round: stale frame bytes sit in its spare
            // capacity, and `junk` sits in front of the new frame.
            buf.clear();
            buf.extend_from_slice(&junk);
            let framed = into.encode_frame_into(&mut buf, &batch);
            prop_assert_eq!(framed, batch.len());
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
    // Captured from the encoder as it stood before the single-pass
    // rewrite (`header ‖ crc ‖ encode_batch`, bit-serial CRC): second
    // frame of host 7, three synopses already sent.
    const GOLDEN: &str = "00070000000000000001000000000000000300000029b67d835907ac02959aef3a\
                          d0b39a1d8a5004010101288001018626f0a2040704ffffffffffffffffff01000000";
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
    let mut tx = FrameSender::new(HostId(7));
    tx.encode_frame(&[bare.clone(), bare.clone(), bare.clone()]);
    let frame = tx.encode_frame(&[full.clone(), bare.clone()]);
    let hex: String = frame.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, GOLDEN);
    assert_eq!(
        frame[..],
        reference_frame(HostId(7), 1, 3, &[full, bare])[..]
    );
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
