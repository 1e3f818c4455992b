//! The receiving end of one connection as a sans-IO state machine: bytes
//! in, protocol steps out — no socket, no clock, no lock.

use crate::framing::FrameAssembler;
use crate::protocol::{
    apply_hello_ext, decode_hello_prefix, encode_hello_ack, hello_ext_len, Hello, HelloAck,
    RejectReason, HELLO_EXT_LEN, HELLO_V1_LEN,
};
use saad_reactor::RingBuf;

/// What a [`Session`] drives: the meaning of one connection's hello and
/// frames. Sessions are generic over it — no `dyn` on the frame path.
pub trait Handler {
    /// Verdict on a well-formed hello: the accepting ack, or why the peer
    /// is refused. Called at most once, before any message.
    fn on_hello(&mut self, hello: &Hello) -> Result<HelloAck, RejectReason>;

    /// The refusing ack for `reason`: either what [`Handler::on_hello`]
    /// returned, or [`RejectReason::Malformed`] for a hello that never
    /// decoded. Nothing else is delivered to this handler afterwards.
    fn on_reject(&mut self, reason: RejectReason) -> HelloAck;

    /// One complete length-prefixed message body, borrowed from the ring
    /// for the duration of the call.
    fn on_message(&mut self, body: &[u8]);

    /// Every complete message buffered so far has been handed over: the
    /// end of one [`Session::drain`] of a streaming connection, and the
    /// step before [`Handler::on_unframeable`]. A handler that collects
    /// messages hands them on here; the default does nothing.
    fn on_drained(&mut self) {}

    /// A length prefix beyond [`MAX_MESSAGE_LEN`](crate::protocol::MAX_MESSAGE_LEN):
    /// message boundaries are lost and the connection is about to close.
    fn on_unframeable(&mut self);
}

enum Phase {
    /// Awaiting the version-independent 36-byte hello prefix.
    Prefix,
    /// Awaiting the v2 extension block of the prefix-decoded hello; the
    /// prefix bytes are kept because the extension CRC covers them.
    Ext(Hello, [u8; HELLO_V1_LEN]),
    /// Accepted: a stream of length-prefixed frames.
    Streaming,
    /// Refused: the ack goes out, nothing further is parsed, then close.
    Rejected,
}

/// One connection's protocol state, as a sans-IO state machine: bytes in,
/// protocol steps out — no socket, no clock, no lock.
///
/// A session owns what the wire protocol says about one connection: the
/// [`FrameAssembler`] and its ring, the `Prefix → Ext → Streaming` phases
/// of the two-part hello, the ack bytes not yet written and whether the
/// peer was refused. What a hello or a frame *means* is the [`Handler`]'s
/// business; who moves the bytes is the driver's: the readiness loop lands
/// vectored reads in the session's ring and calls [`Session::drain`],
/// tests call [`Session::feed`]. The steps taken depend on the byte stream
/// alone, never on how it was cut — except where [`Handler::on_drained`]
/// falls between them, which is at the end of each drain.
pub struct Session {
    assembler: FrameAssembler,
    phase: Phase,
    /// What is left to write of the encoded ack, the only thing a
    /// collector ever sends.
    ack: Vec<u8>,
}

impl Session {
    /// A session awaiting its hello, with a ring of `initial_ring` bytes
    /// that grows only for a single message larger than itself.
    #[must_use]
    pub fn new(initial_ring: usize) -> Session {
        Session {
            assembler: FrameAssembler::new(initial_ring),
            phase: Phase::Prefix,
            ack: Vec::new(),
        }
    }

    /// The ring, for landing socket reads without a copy. Only append
    /// (`write_slices`/`io_slices` + `commit`), and call
    /// [`Session::drain`] before reading into a full ring.
    pub(crate) fn ring_mut(&mut self) -> &mut RingBuf {
        self.assembler.ring_mut()
    }

    /// Whether the last [`Session::drain`] stopped inside a frame (a
    /// decode stall).
    #[must_use]
    pub(crate) fn mid_message(&self) -> bool {
        matches!(self.phase, Phase::Streaming) && self.assembler.buffered() > 0
    }

    /// The peer was refused: close once [`Session::ack`] is empty.
    #[must_use]
    pub(crate) fn is_rejected(&self) -> bool {
        matches!(self.phase, Phase::Rejected)
    }

    /// Ack bytes the driver still has to write.
    #[must_use]
    pub fn ack(&self) -> &[u8] {
        &self.ack
    }

    /// The driver wrote the first `n` bytes of [`Session::ack`].
    pub fn ack_written(&mut self, n: usize) {
        self.ack.drain(..n.min(self.ack.len()));
    }

    /// Copy `bytes` in and take every step they complete. The ring is
    /// drained whenever it fills, so any amount can be fed at once.
    /// Returns `false` when the connection must close (see
    /// [`Session::drain`]).
    pub fn feed<H: Handler>(&mut self, mut bytes: &[u8], handler: &mut H) -> bool {
        while !bytes.is_empty() {
            let (now, later) = bytes.split_at(bytes.len().min(self.ring_mut().free()));
            self.assembler.extend(now);
            bytes = later;
            if !self.drain(handler) {
                return false;
            }
        }
        true
    }

    /// Take every step the buffered bytes complete, then, on a streaming
    /// connection, tell the handler it has them all
    /// ([`Handler::on_drained`]). Afterwards the ring has free space.
    /// Returns `false` when message boundaries were lost and the
    /// connection must close.
    pub fn drain<H: Handler>(&mut self, handler: &mut H) -> bool {
        loop {
            match self.phase {
                Phase::Prefix => {
                    let Some(prefix) = self.take::<HELLO_V1_LEN>() else {
                        return true;
                    };
                    match decode_hello_prefix(&prefix) {
                        Ok(hello) if hello_ext_len(hello.version) > 0 => {
                            self.phase = Phase::Ext(hello, prefix);
                        }
                        Ok(hello) => self.greet(hello, handler),
                        // An unidentified peer gets the v1 wire form —
                        // the only one it is guaranteed to decode.
                        Err(_) => self.reject(RejectReason::Malformed, 1, handler),
                    }
                }
                Phase::Ext(mut hello, prefix) => {
                    let Some(ext) = self.take::<HELLO_EXT_LEN>() else {
                        return true;
                    };
                    match apply_hello_ext(&mut hello, &prefix, &ext) {
                        Ok(()) => self.greet(hello, handler),
                        Err(_) => self.reject(RejectReason::Malformed, hello.version, handler),
                    }
                }
                Phase::Streaming => match self.assembler.next_message() {
                    Ok(Some(body)) => handler.on_message(body),
                    Ok(None) => {
                        handler.on_drained();
                        return true;
                    }
                    Err(_) => {
                        handler.on_drained();
                        handler.on_unframeable();
                        return false;
                    }
                },
                Phase::Rejected => {
                    self.assembler.clear();
                    return true;
                }
            }
        }
    }

    /// The next `N` handshake bytes, once that many are buffered.
    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        let ring = self.assembler.ring_mut();
        let bytes = ring.contiguous(N)?.try_into().expect("contiguous(N)");
        ring.consume(N);
        Some(bytes)
    }

    /// Put a complete hello to the handler. From here every reply is in
    /// the *peer's* announced version, so even a refused old-protocol
    /// agent reads a complete, decodable ack instead of hanging.
    fn greet<H: Handler>(&mut self, hello: Hello, handler: &mut H) {
        match handler.on_hello(&hello) {
            Ok(ack) => {
                self.ack = encode_hello_ack(&ack, hello.version);
                self.phase = Phase::Streaming;
            }
            Err(reason) => self.reject(reason, hello.version, handler),
        }
    }

    fn reject<H: Handler>(&mut self, reason: RejectReason, wire_version: u16, handler: &mut H) {
        self.ack = encode_hello_ack(&handler.on_reject(reason), wire_version);
        self.phase = Phase::Rejected;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::testkit::{
        assert_batch_shape, batches, feed_in_cuts, frame_bodies, hello_bytes, rig, row_stream,
        synopsis, wire_of, Forwarded, RowStream,
    };
    use crate::ingest::CollectorStats;
    use crate::protocol::{
        decode_hello_ack, HELLO_ACK_LEN, HELLO_ACK_V1_LEN, MAX_MESSAGE_LEN, NO_SEQ, PINNED_EPOCH,
        PROTOCOL_VERSION,
    };
    use proptest::prelude::*;
    use saad_core::batch::SynopsisBatch;
    use saad_core::transport::LinkStats;
    use saad_core::HostId;

    const HOSTS: [u16; 3] = [10, 11, 12];

    /// A collector core and the bytes one peer sends it.
    #[derive(Debug, Clone)]
    struct Scenario {
        collector_version: u16,
        enforced_epoch: Option<u64>,
        soa: bool,
        wire: Vec<u8>,
    }

    /// Everything a run leaves behind that anyone can observe, but for
    /// where the batch boundaries fall: that follows the drains, and so
    /// the cuts. The batches are checked for their shape and count and
    /// then read as one row stream; `stats.batches` is zeroed.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        alive: bool,
        rejected: bool,
        acks: Vec<u8>,
        soa: RowStream,
        forwarded: Vec<Forwarded>,
        stats: CollectorStats,
        links: Vec<LinkStats>,
    }

    /// Feed `scenario.wire` to a fresh core in the chunks `cuts` yields.
    fn run(scenario: &Scenario, cuts: impl IntoIterator<Item = usize>) -> Outcome {
        let mut rig = rig(scenario.enforced_epoch, scenario.soa);
        rig.ingest = rig.ingest.speaking(scenario.collector_version);
        let mut link = rig.ingest.link();
        // A tiny ring, so reassembly wraps and grows.
        let mut session = Session::new(64);
        let (alive, acks) = feed_in_cuts(&mut session, &mut link, &scenario.wire, cuts);
        // Every drain sent what it admitted: nothing is left for the drop.
        let batches: Vec<SynopsisBatch> = rig.soa.try_iter().collect();
        drop(link);
        assert!(rig.soa.is_empty(), "a drain left rows staged");
        assert_batch_shape(&batches, |_| 0);
        let stats = rig.ingest.stats();
        assert_eq!(stats.batches, batches.len() as u64);
        Outcome {
            alive,
            rejected: session.is_rejected(),
            acks,
            soa: row_stream(&batches),
            forwarded: rig.forwarded.try_iter().collect(),
            stats: CollectorStats {
                batches: 0,
                ..stats
            },
            links: HOSTS
                .iter()
                .map(|&h| rig.ingest.link_stats(HostId(h)))
                .collect(),
        }
    }

    /// hello kind, collector version, enforced epoch, hello epoch choice,
    /// output, tail choice
    type Knobs = (u8, u16, u64, u8, u8, u8);
    /// batch sizes, start times, skip mask, dup mask, corrupt body index
    type Traffic = (Vec<usize>, Vec<u64>, u32, u32, usize);

    fn knobs() -> impl Strategy<Value = Knobs> {
        (0u8..4, 1u16..3, 0u64..3, 0u8..3, 0u8..2, 0u8..4)
    }

    fn traffic() -> impl Strategy<Value = Traffic> {
        (
            collection::vec(0usize..6, 1..12),
            collection::vec(0u64..240_000, 64..65),
            0u32..4096,
            0u32..4096,
            0usize..16,
        )
    }

    /// v1 and v2 hellos (one in four with a corrupt extension CRC) against
    /// v1 and v2 collectors with and without an enforced epoch; frames
    /// from three hosts, some skipped, some duplicated, one with a corrupt
    /// body; one stream in four ends on an oversize prefix and garbage.
    fn scenario(
        (hello, collector_version, enforced, epoch, out, tail): Knobs,
        t: Traffic,
    ) -> Scenario {
        let (sizes, starts, skip, dup, corrupt) = t;
        let hello_version = if hello == 0 { 1 } else { 2 };
        let hello_epoch = [PINNED_EPOCH, enforced, enforced.saturating_sub(1)][epoch as usize];
        let mut wire = hello_bytes(hello_version, HOSTS[0], hello_epoch);
        if hello == 3 {
            let last = wire.len() - 1;
            wire[last] ^= 0x01;
        }
        let batches = batches(&HOSTS, &sizes, &starts);
        let mut bodies = frame_bodies(&HOSTS, &batches, skip, dup);
        if let Some(body) = bodies.get_mut(corrupt) {
            let mid = body.len() / 2;
            body[mid] ^= 0x10;
        }
        wire.extend_from_slice(&wire_of(&bodies));
        if tail == 0 {
            wire.extend_from_slice(&(MAX_MESSAGE_LEN as u32 + 1).to_be_bytes());
            wire.extend_from_slice(b"bytes behind a lost boundary");
        }
        Scenario {
            collector_version,
            enforced_epoch: (enforced > 0).then_some(enforced),
            soa: out == 0,
            wire,
        }
    }

    proptest! {
        /// What a stream does to a collector is a function of its bytes,
        /// not of how reads cut them: whole, one byte at a time and any
        /// chunking in between leave identical acks, rows, loss reports
        /// at the same row positions, counters and link accounts — only
        /// the batches those rows come in follow the cuts.
        #[test]
        fn any_chunking_leaves_the_same_collector(
            k in knobs(),
            t in traffic(),
            chunks in collection::vec(1usize..120, 1..48),
        ) {
            let scenario = scenario(k, t);
            let whole = run(&scenario, []);
            prop_assert_eq!(&run(&scenario, std::iter::repeat(1)), &whole);
            prop_assert_eq!(&run(&scenario, chunks.iter().copied().cycle()), &whole);
        }
    }

    /// The same, exhaustively: every single cut offset of a few dozen
    /// generated streams.
    #[test]
    fn a_cut_at_every_offset_leaves_the_same_collector() {
        for seed in 0..32 {
            let mut runner = TestRunner::from_seed(seed);
            let scenario = scenario(
                knobs().generate(&mut runner),
                traffic().generate(&mut runner),
            );
            let whole = run(&scenario, []);
            for offset in 1..scenario.wire.len() {
                assert_eq!(
                    run(&scenario, [offset]),
                    whole,
                    "seed {seed}, cut at {offset}"
                );
            }
        }
    }

    fn corrupt(mut bytes: Vec<u8>, at: usize) -> Vec<u8> {
        bytes[at] ^= 0x40;
        bytes
    }

    /// The handshake table, once for every collector: who connects to
    /// what, and the ack that must come back.
    #[test]
    fn handshake_verdicts() {
        use RejectReason::{Malformed, None as Accepted, StaleEpoch, VersionMismatch};
        const V1_FORM: usize = HELLO_ACK_V1_LEN;
        const V2_FORM: usize = HELLO_ACK_LEN;
        // A frame that would be admitted, to show a refused peer is not parsed.
        let frame = wire_of(&frame_bodies(
            &[7],
            &[vec![synopsis(7, 1, 5, &[1, 2])]],
            0,
            0,
        ));
        // (collector version, enforced epoch), hello, then the expected
        // ack: wire form, reason (`None` accepts), epoch.
        let check = |name: &str, on: (u16, Option<u64>), hello: Vec<u8>, form, reason, epoch| {
            let scenario = Scenario {
                collector_version: on.0,
                enforced_epoch: on.1,
                soa: true,
                wire: [hello.clone(), frame.clone()].concat(),
            };
            let got = run(&scenario, []);
            // The verdict holds wherever the reads cut the handshake.
            for offset in 1..hello.len() {
                assert_eq!(run(&scenario, [offset]), got, "{name}: cut at {offset}");
            }
            let accept = reason == Accepted;
            assert_eq!(got.acks.len(), form, "{name}");
            let ack = decode_hello_ack(&got.acks).expect("a decodable ack");
            assert_eq!((ack.accept, ack.reason), (accept, reason), "{name}");
            assert_eq!((ack.version, ack.epoch), (on.0, epoch), "{name}");
            assert_eq!((ack.last_seq, ack.delivered_cum), (NO_SEQ, 0), "{name}");
            assert_eq!(got.rejected, !accept, "{name}");
            assert!(got.alive, "{name}: a refusal is flushed, not torn down");
            let s = got.stats;
            assert_eq!(s.handshakes_rejected, u64::from(!accept), "{name}");
            let stale = u64::from(reason == StaleEpoch);
            assert_eq!(s.stale_epoch_rejects, stale, "{name}");
            // Nothing behind a refused hello is parsed, not even to be
            // counted corrupt.
            let admitted = u64::from(accept);
            let parsed = (s.frames, s.synopses, s.corrupted_frames);
            assert_eq!(parsed, (admitted, admitted, 0), "{name}");
            assert_eq!(got.soa.rows.len() as u64, admitted, "{name}");
        };
        let hello = hello_bytes;
        #[rustfmt::skip]
        let table = [
            ("no epoch enforced", (2, None), hello(2, 7, 3), V2_FORM, Accepted, 0),
            // An unidentified peer is answered in the only form it is sure to read.
            ("bad magic", (2, None), corrupt(hello(2, 7, 3), 0), V1_FORM, Malformed, 0),
            ("bad prefix CRC", (2, Some(9)), corrupt(hello(2, 7, 9), 20), V1_FORM, Malformed, 0),
            // From the prefix on, every answer is in the peer's own form.
            ("bad extension CRC", (2, Some(9)), corrupt(hello(2, 7, 9), HELLO_V1_LEN + 3), V2_FORM, Malformed, 9),
            ("v1 peer, v2 collector", (2, None), hello(1, 7, 0), V1_FORM, VersionMismatch, 0),
            ("v2 peer, v1 collector", (1, None), hello(2, 7, 3), V2_FORM, VersionMismatch, 0),
            ("future peer", (2, None), hello(99, 7, 3), V2_FORM, VersionMismatch, 0),
            ("stale epoch", (2, Some(9)), hello(2, 7, 8), V2_FORM, StaleEpoch, 9),
            ("current epoch", (2, Some(9)), hello(2, 7, 9), V2_FORM, Accepted, 9),
            ("newer epoch", (2, Some(9)), hello(2, 7, 12), V2_FORM, Accepted, 9),
            ("pinned peers are exempt", (2, Some(9)), hello(2, 7, PINNED_EPOCH), V2_FORM, Accepted, 9),
            ("v1 peers are exempt", (1, Some(9)), hello(1, 7, 0), V1_FORM, Accepted, 0),
        ];
        for (name, on, hello, form, reason, epoch) in table {
            check(name, on, hello, form, reason, epoch);
        }
    }

    #[test]
    fn accepting_ack_echoes_what_the_collector_holds_and_resume_primes_a_blank_one() {
        let rig = rig(None, false);
        let frames = wire_of(&frame_bodies(
            &[7],
            &[
                vec![synopsis(7, 1, 5, &[1]), synopsis(7, 2, 6, &[2])],
                vec![synopsis(7, 3, 7, &[1])],
            ],
            0,
            0,
        ));
        let connect = |wire: &[u8]| {
            let (mut session, mut link) = (Session::new(64), rig.ingest.link());
            assert!(session.feed(wire, &mut link));
            decode_hello_ack(session.ack()).expect("a decodable ack")
        };
        // A known host reconnecting: the ack says what arrived.
        connect(&[hello_bytes(PROTOCOL_VERSION, 7, PINNED_EPOCH), frames].concat());
        let ack = connect(&hello_bytes(PROTOCOL_VERSION, 7, PINNED_EPOCH));
        assert_eq!((ack.accept, ack.last_seq, ack.delivered_cum), (true, 1, 3));
        // An unknown host with history: the collector adopts its resume
        // point, the loss the peer already knows of included.
        let hello = crate::protocol::encode_hello(&Hello {
            version: PROTOCOL_VERSION,
            host: HostId(8),
            next_seq: 5,
            sent_cum: 40,
            written_cum: 30,
            epoch: PINNED_EPOCH,
            role: crate::protocol::PeerRole::Agent,
        });
        let ack = connect(&hello);
        assert_eq!((ack.last_seq, ack.delivered_cum), (4, 30));
        assert_eq!(rig.ingest.link_stats(HostId(8)).lost_synopses, 10);
        assert_eq!(rig.ingest.stats().connections_accepted, 3);
        assert_eq!(rig.ingest.stats().connections_active, 0);
    }
}
