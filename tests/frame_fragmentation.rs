//! Fragmentation properties for the receive path's incremental decode.
//!
//! A collector receives frames as whatever byte runs its driver lands —
//! a frame may arrive in one read, split across twenty, or glued to the
//! tail of its predecessor. The contract is that the protocol is a pure
//! function of the byte *stream*, not of its read boundaries: any
//! byte-level fragmentation of a stream must decode to the identical
//! synopsis sequence and identical per-host link statistics as feeding
//! each frame whole.
//!
//! The first two properties drive [`FrameAssembler`] — the framing layer
//! under every [`Session`] — against a whole-frame baseline that hands
//! each encoded frame directly to the shared [`FrameReceiver`]. Streams
//! interleave several sending hosts, include deliberately skipped frames
//! (loss revealed by cumulative counts) and re-sent duplicates, so the
//! sequence/loss accounting is exercised, not just payload reassembly.
//! The third drives a whole [`Session`] — handshake included — through
//! the public sans-IO surface with a recording [`Handler`]. (What the
//! collectors' own handler makes of the steps is pinned the same way, at
//! every cut offset, by `saad-net`'s `session` unit tests.)

use proptest::prelude::*;
use saad::core::synopsis::TaskSynopsis;
use saad::core::testkit::{parse_frame, FrameOutcome};
use saad::core::transport::{FrameReceiver, FrameSender};
use saad::core::{HostId, StageId, TaskUid};
use saad::logging::LogPointId;
use saad::net::protocol::{
    decode_hello_ack, encode_hello, write_message, MAX_MESSAGE_LEN, NO_SEQ, PINNED_EPOCH,
};
use saad::net::{
    FrameAssembler, Handler, Hello, HelloAck, PeerRole, RejectReason, Session, PROTOCOL_VERSION,
};
use saad::sim::{SimDuration, SimTime};

/// One generated task, pre-synopsis: host, stage, points, duration, start.
type RawTask = (u16, u16, Vec<u16>, u64, u64);

fn synopsis_of(&(host, stage, ref points, dur_us, start_ms): &RawTask, uid: u64) -> TaskSynopsis {
    TaskSynopsis {
        host: HostId(host),
        stage: StageId(stage),
        uid: TaskUid(uid),
        start: SimTime::from_millis(start_ms),
        duration: SimDuration::from_micros(dur_us),
        log_points: points.iter().map(|&p| (LogPointId(p), 1)).collect(),
    }
}

fn raw_task_strategy() -> impl Strategy<Value = RawTask> {
    (
        0u16..4,                        // host carried in the synopsis
        0u16..4,                        // stage
        collection::vec(1u16..9, 0..5), // log points (may repeat/unsorted)
        1u64..30_000,                   // duration µs
        0u64..240_000,                  // start within 4 minutes
    )
}

/// What one receiver concluded about a frame stream: admitted synopses in
/// order, total newly-revealed loss, and duplicate count.
#[derive(Debug, Default, PartialEq)]
struct Digest {
    synopses: Vec<TaskSynopsis>,
    newly_lost: u64,
    duplicates: u64,
}

fn admit(receiver: &mut FrameReceiver, body: &[u8], digest: &mut Digest) {
    let parsed = parse_frame(body).expect("generated frames are valid");
    match receiver.admit(parsed) {
        FrameOutcome::Fresh {
            synopses,
            newly_lost,
            ..
        } => {
            digest.synopses.extend(synopses);
            digest.newly_lost += newly_lost;
        }
        FrameOutcome::Duplicate { .. } => digest.duplicates += 1,
    }
}

/// Build an interleaved multi-host frame stream from generated batches.
///
/// Frames rotate over three senders. `skip_mask` bit *i* set drops frame
/// *i* after encoding (the sender's sequence still advances, so a later
/// frame reveals the gap); `dup_mask` bit *i* set re-sends frame *i*
/// immediately (a wire-level duplicate the receiver must discard). The
/// returned messages are the frame bodies in delivery order.
fn build_stream(batches: &[Vec<RawTask>], skip_mask: u32, dup_mask: u32) -> Vec<Vec<u8>> {
    let mut senders = [
        FrameSender::new(HostId(10)),
        FrameSender::new(HostId(11)),
        FrameSender::new(HostId(12)),
    ];
    let mut messages = Vec::new();
    let mut uid = 0u64;
    for (i, batch) in batches.iter().enumerate() {
        let synopses: Vec<TaskSynopsis> = batch
            .iter()
            .map(|t| {
                uid += 1;
                synopsis_of(t, uid)
            })
            .collect();
        let body = senders[i % senders.len()].encode_frame(&synopses);
        if skip_mask & (1 << (i % 32)) != 0 {
            continue; // framed but never delivered: a revealed gap
        }
        messages.push(body.to_vec());
        if dup_mask & (1 << (i % 32)) != 0 {
            messages.push(body.to_vec());
        }
    }
    messages
}

proptest! {
    /// Any chunking of the length-prefixed wire stream decodes — via
    /// `FrameAssembler` — to exactly the whole-frame baseline: same
    /// synopses in the same order, same loss and duplicate accounting,
    /// same per-host `LinkStats`, nothing left buffered.
    #[test]
    fn any_fragmentation_matches_whole_frame_feed(
        batches in collection::vec(collection::vec(raw_task_strategy(), 0..6), 1..9),
        chunk_sizes in collection::vec(1usize..97, 1..40),
        skip_mask in 0u32..256,
        dup_mask in 0u32..256,
    ) {
        let messages = build_stream(&batches, skip_mask, dup_mask);

        // Baseline: each frame handed to the receiver whole.
        let mut whole_rx = FrameReceiver::new();
        let mut whole = Digest::default();
        for body in &messages {
            admit(&mut whole_rx, body, &mut whole);
        }

        // Fragmented: the same frames length-prefixed into one byte
        // stream, then cut at arbitrary boundaries and reassembled.
        let mut wire = Vec::new();
        for body in &messages {
            write_message(&mut wire, body).unwrap();
        }
        let mut frag_rx = FrameReceiver::new();
        let mut frag = Digest::default();
        // Deliberately tiny initial ring so reassembly must also grow
        // through oversized messages, not just split small ones.
        let mut assembler = FrameAssembler::new(64);
        let mut offset = 0usize;
        let mut cut = 0usize;
        while offset < wire.len() {
            let len = chunk_sizes[cut % chunk_sizes.len()].min(wire.len() - offset);
            cut += 1;
            assembler.extend(&wire[offset..offset + len]);
            offset += len;
            while let Some(body) =
                assembler.next_message().expect("valid prefixes stay in bounds")
            {
                let body = body.to_vec();
                admit(&mut frag_rx, &body, &mut frag);
            }
        }

        prop_assert_eq!(assembler.buffered(), 0);
        prop_assert_eq!(&frag, &whole);
        for host in [10u16, 11, 12] {
            prop_assert_eq!(frag_rx.stats(HostId(host)), whole_rx.stats(HostId(host)));
        }
    }

    /// Degenerate chunkings — the whole wire in one read, and one byte
    /// per read — both reduce to the baseline. (Subsumed by the property
    /// above only probabilistically; pinned here explicitly.)
    #[test]
    fn byte_at_a_time_equals_single_read(
        batches in collection::vec(collection::vec(raw_task_strategy(), 0..6), 1..7),
    ) {
        let messages = build_stream(&batches, 0b1010, 0b0100);
        let mut wire = Vec::new();
        for body in &messages {
            write_message(&mut wire, body).unwrap();
        }

        let mut digests = Vec::new();
        for step in [wire.len().max(1), 1] {
            let mut rx = FrameReceiver::new();
            let mut digest = Digest::default();
            let mut assembler = FrameAssembler::new(32);
            for chunk in wire.chunks(step) {
                assembler.extend(chunk);
                while let Ok(Some(body)) = assembler.next_message() {
                    let body = body.to_vec();
                    admit(&mut rx, &body, &mut digest);
                }
            }
            prop_assert_eq!(assembler.buffered(), 0);
            digests.push((digest, rx.stats(HostId(10)), rx.stats(HostId(11)), rx.stats(HostId(12))));
        }
        let one_read = digests.remove(0);
        let byte_wise = digests.remove(0);
        prop_assert_eq!(one_read, byte_wise);
    }

    /// A whole connection — hello, arbitrary message bodies (empty ones
    /// and ones far larger than the ring among them), sometimes an
    /// oversize prefix with bytes behind it — takes the same steps and
    /// emits the same ack bytes however the stream is cut.
    #[test]
    fn any_fragmentation_takes_the_same_session_steps(
        hello_kind in 0u8..4,
        bodies in collection::vec(collection::vec(0u8..255, 0..300), 0..12),
        oversize_tail in 0u8..3,
        chunk_sizes in collection::vec(1usize..97, 1..40),
    ) {
        let mut wire = encode_hello(&Hello {
            version: if hello_kind == 0 { 1 } else { PROTOCOL_VERSION },
            host: HostId(5),
            next_seq: 3,
            sent_cum: 70,
            written_cum: 60,
            epoch: PINNED_EPOCH,
            role: PeerRole::Leaf,
        });
        if hello_kind == 3 {
            let last = wire.len() - 1;
            wire[last] ^= 0x80; // extension CRC
        }
        for body in &bodies {
            write_message(&mut wire, body).unwrap();
        }
        if oversize_tail == 0 {
            wire.extend_from_slice(&(MAX_MESSAGE_LEN as u32 + 7).to_be_bytes());
            wire.extend_from_slice(b"unframeable");
        }

        let whole = record(&wire, &[wire.len()]);
        prop_assert_eq!(&record(&wire, &chunk_sizes), &whole);
        prop_assert_eq!(&record(&wire, &[1]), &whole);

        // And the steps are the ones the stream spells out.
        let (steps, acks, alive) = whole;
        let ack = decode_hello_ack(&acks).expect("one decodable ack");
        match hello_kind {
            0 => prop_assert_eq!(ack.reason, RejectReason::VersionMismatch),
            3 => prop_assert_eq!(ack.reason, RejectReason::Malformed),
            _ => prop_assert!(ack.accept),
        }
        if ack.accept {
            prop_assert_eq!(&steps.messages, &bodies);
            prop_assert_eq!(steps.unframeable, u32::from(oversize_tail == 0));
            prop_assert_eq!(alive, oversize_tail != 0);
        } else {
            prop_assert!(steps.messages.is_empty() && steps.unframeable == 0 && alive);
        }
    }
}

/// Every call a [`Session`] made on its handler.
#[derive(Debug, Default, PartialEq)]
struct Steps {
    hellos: Vec<Hello>,
    rejects: Vec<RejectReason>,
    messages: Vec<Vec<u8>>,
    unframeable: u32,
}

impl Steps {
    fn ack(&self, reason: RejectReason) -> HelloAck {
        HelloAck {
            version: PROTOCOL_VERSION,
            accept: reason == RejectReason::None,
            reason,
            last_seq: NO_SEQ,
            delivered_cum: 0,
            epoch: 4,
        }
    }
}

impl Handler for Steps {
    fn on_hello(&mut self, hello: &Hello) -> Result<HelloAck, RejectReason> {
        self.hellos.push(*hello);
        if hello.version != PROTOCOL_VERSION {
            return Err(RejectReason::VersionMismatch);
        }
        Ok(self.ack(RejectReason::None))
    }

    fn on_reject(&mut self, reason: RejectReason) -> HelloAck {
        self.rejects.push(reason);
        self.ack(reason)
    }

    fn on_message(&mut self, body: &[u8]) {
        self.messages.push(body.to_vec());
    }

    fn on_unframeable(&mut self) {
        self.unframeable += 1;
    }
}

/// Feed `wire` in chunks of the given sizes (cycled); returns the steps
/// taken, the ack bytes emitted, and whether the connection stays open.
fn record(wire: &[u8], chunk_sizes: &[usize]) -> (Steps, Vec<u8>, bool) {
    let (mut steps, mut acks, mut alive) = (Steps::default(), Vec::new(), true);
    let mut session = Session::new(64);
    let mut sizes = chunk_sizes.iter().cycle();
    let mut rest = wire;
    while alive && !rest.is_empty() {
        let (chunk, tail) = rest.split_at(rest.len().min(*sizes.next().unwrap()));
        rest = tail;
        alive = session.feed(chunk, &mut steps);
        acks.extend_from_slice(session.ack());
        session.ack_written(session.ack().len());
    }
    (steps, acks, alive)
}
