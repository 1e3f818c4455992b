//! The sending end of one link as a sans-IO state machine: frames and
//! connect results in, bytes and due times out — no socket, no clock, no
//! sleep, no queue. The mirror of [`Session`](crate::Session).
//!
//! An [`Outbound`] owns what the protocol says about a sender: its
//! [`FrameSender`] and [`Outbox`] — the driver's to fill and to abandon,
//! this machine's to flush — whether the link is up, the seeded back-off schedule that says
//! when the next connect is due, the resume point a [`Hello`] announces,
//! and the verdict on a handshake result ([`Outbound::dialed`]; the table
//! is in DESIGN.md §10). Who dials, what clock the due times are read
//! against and what becomes of frames while the link is down is the
//! driver's business: the agent's worker waits out the due time and keeps
//! the frames behind a cut for the next connection, the leaf's uplink
//! never waits and abandons what it cannot offer, tests pass the time as
//! a number.

use crate::agent::BackoffConfig;
use crate::protocol::{Hello, HelloAck, PeerRole, RejectReason};
use bytes::{BufMut, BytesMut};
use rand::rngs::StdRng;
use rand::SeedableRng;
use saad_core::transport::{FramePayload, FrameSender};
use saad_core::HostId;
use std::io::{self, Write};
use std::net::SocketAddr;
use std::time::Duration;

/// The outbound wire image: back-to-back `[u32 length][frame]` messages
/// assembled in one reused buffer and handed to the socket in a single
/// write, with each frame's end offset kept so that a cut write is
/// accounted frame by frame.
#[derive(Debug, Default)]
pub(crate) struct Outbox {
    wire: BytesMut,
    /// `(end offset in wire, synopses carried)` of each pending frame.
    frames: Vec<(usize, u64)>,
}

/// What one flush did with the pending frames: each is written,
/// wire-lost, or still pending.
#[derive(Debug, PartialEq, Eq)]
struct Flushed {
    /// Frames the writer accepted whole.
    frames_written: u64,
    /// Synopses carried by those frames.
    synopses_written: u64,
    /// `Some` iff an error cut the write short: the synopses in the frame
    /// it cut.
    wire_lost: Option<u64>,
}

impl Outbox {
    /// The pending messages, exactly as the next flush will write them
    /// (empty when no frame is pending).
    pub(crate) fn wire(&self) -> &[u8] {
        &self.wire
    }

    /// How many frames [`Outbox::wire`] holds.
    pub(crate) fn pending_frames(&self) -> usize {
        self.frames.len()
    }

    /// `(next_seq, sent_cum)` to announce in a handshake for the stream
    /// `sender` numbers: the sequence number and cumulative count of the
    /// first frame no socket has been offered yet (the next frame to be
    /// framed, when nothing is pending).
    fn resume_point(&self, sender: &FrameSender) -> (u64, u64) {
        let pending: u64 = self.frames.iter().map(|&(_, n)| n).sum();
        (
            sender.frames_sent() - self.frames.len() as u64,
            sender.synopses_sent() - pending,
        )
    }

    /// Append `payload` as one length-prefixed frame in the numbering of
    /// `sender`: an agent's own, or the host's whose stream a leaf
    /// forwards. The frame gets its sequence number and cumulative count
    /// here, once; nothing that happens to a write renumbers it.
    pub(crate) fn frame(&mut self, sender: &mut FrameSender, payload: &FramePayload) {
        let prefix = self.wire.len();
        self.wire.put_u32(0);
        sender.frame_payload_into(&mut self.wire, payload);
        let len = u32::try_from(self.wire.len() - prefix - 4)
            .expect("a frame is bounded by MAX_MESSAGE_LEN");
        self.wire[prefix..prefix + 4].copy_from_slice(&len.to_be_bytes());
        self.frames.push((self.wire.len(), payload.synopses()));
    }

    /// Write the pending messages to `w` in one pass. A frame counts as
    /// written only if the writer accepted it to its last byte. When an
    /// error cuts the write, the first frame not accepted whole is
    /// wire-lost — it may be partly on the wire, and the receiver sees
    /// the gap through the sequence arithmetic; nothing is retransmitted.
    /// The frames behind it never touched the writer: they stay pending,
    /// bytes and sequence numbers as framed, for the next connection —
    /// so a failed write costs one frame however many it carried.
    fn flush<W: Write>(&mut self, w: &mut W) -> Flushed {
        let mut accepted = 0usize;
        while accepted < self.wire.len() {
            match w.write(&self.wire[accepted..]) {
                Ok(0) => break,
                Ok(n) => accepted += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        let whole = self.frames.partition_point(|&(end, _)| end <= accepted);
        let mut flushed = Flushed {
            frames_written: whole as u64,
            synopses_written: self.frames[..whole].iter().map(|&(_, n)| n).sum(),
            wire_lost: None,
        };
        // With no error every frame was accepted whole and this drains
        // the outbox; otherwise frame `whole` is the one the error cut.
        let mut gone = whole;
        if let Some(&(cut_end, synopses)) = self.frames.get(whole) {
            flushed.wire_lost = Some(synopses);
            gone += 1;
            self.wire.copy_within(cut_end.., 0);
            self.wire.truncate(self.wire.len() - cut_end);
            for (end, _) in &mut self.frames[gone..] {
                *end -= cut_end;
            }
        } else {
            self.wire.clear();
        }
        self.frames.drain(..gone);
        flushed
    }

    /// Give up on the pending frames: empty the outbox and return how
    /// many synopses they carried. Their sequence numbers stay spent: the
    /// receiver sees a gap, not a renumbering.
    pub(crate) fn abandon(&mut self) -> u64 {
        self.wire.clear();
        self.frames.drain(..).map(|(_, n)| n).sum()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Link {
    /// No connection. The next connect may be made at `due`, on the clock
    /// the driver reports results against; `attempt` have failed in a row.
    Down { attempt: u32, due: Duration },
    /// Connected and handshaken.
    Up,
    /// No connection and none to come: the peer refused for good, or the
    /// one attempt a closing sender gets has failed.
    Dead,
}

/// A link with no failure behind it: the first connect is due at once, as
/// is the one after a cut write.
const DUE_NOW: Link = Link::Down {
    attempt: 0,
    due: Duration::ZERO,
};

/// What a sender's connects and writes have come to over its lifetime
/// (the fields of [`AgentStats`](crate::AgentStats) by the same names).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LinkCounts {
    pub(crate) connects: u64,
    pub(crate) reconnects: u64,
    pub(crate) rehomes: u64,
    pub(crate) handshake_rejects: u64,
    pub(crate) stale_epoch_rejects: u64,
    pub(crate) reject_reason: Option<RejectReason>,
    pub(crate) writes: u64,
    pub(crate) frames_written: u64,
    pub(crate) synopses_written: u64,
    pub(crate) synopses_wire_lost: u64,
}

/// One sender's protocol state. See the [module docs](self).
#[derive(Debug)]
pub(crate) struct Outbound {
    /// Numbers the frames this sender makes of its own stream.
    pub(crate) sender: FrameSender,
    pub(crate) outbox: Outbox,
    link: Link,
    backoff: BackoffConfig,
    rng: StdRng,
    /// Address of the last accepted connect, for re-homing detection.
    home: Option<SocketAddr>,
    closing: bool,
    counts: LinkCounts,
}

impl Outbound {
    /// A sender for `host` that has never connected: a connect is due at
    /// once; failures space the next ones by `backoff`, from its seed.
    pub(crate) fn new(host: HostId, backoff: BackoffConfig) -> Outbound {
        Outbound {
            sender: FrameSender::new(host),
            outbox: Outbox::default(),
            link: DUE_NOW,
            rng: StdRng::seed_from_u64(backoff.seed),
            backoff,
            home: None,
            closing: false,
            counts: LinkCounts::default(),
        }
    }

    /// When the next connect may be made; `None` while the link is up,
    /// and for good once it is dead.
    pub(crate) fn connect_due(&self) -> Option<Duration> {
        match self.link {
            Link::Down { due, .. } => Some(due),
            Link::Up | Link::Dead => None,
        }
    }

    /// The hello a connect made now announces: where this sender's stream
    /// resumes — the first frame no socket has been offered — and what
    /// was accepted whole so far.
    pub(crate) fn hello(&self, version: u16, epoch: u64, role: PeerRole) -> Hello {
        let (next_seq, sent_cum) = self.outbox.resume_point(&self.sender);
        let (host, written_cum) = (self.sender.host(), self.counts.synopses_written);
        Hello {
            version,
            host,
            next_seq,
            sent_cum,
            written_cum,
            epoch,
            role,
        }
    }

    /// The connect that was due was made, to `addr`, at `now`: `result` is
    /// the connection and the peer's answer, or why there is neither.
    /// Returns the connection iff the link is now up.
    pub(crate) fn dialed<C>(
        &mut self,
        addr: SocketAddr,
        result: io::Result<(C, HelloAck)>,
        now: Duration,
    ) -> Option<C> {
        let Ok((conn, ack)) = result else {
            self.failed(now);
            return None;
        };
        let counts = &mut self.counts;
        if ack.accept {
            counts.connects += 1;
            counts.reconnects += u64::from(counts.connects > 1);
            counts.rehomes += u64::from(self.home.is_some_and(|home| home != addr));
            self.home = Some(addr);
            self.link = Link::Up;
            return Some(conn);
        }
        counts.handshake_rejects += 1;
        counts.reject_reason = Some(ack.reason);
        if ack.reason == RejectReason::StaleEpoch {
            // The ring view this connect was routed by is behind the
            // peer's: the next attempt routes by a refreshed one.
            counts.stale_epoch_rejects += 1;
            self.failed(now);
        } else {
            self.link = Link::Dead;
        }
        None
    }

    /// The connect due at `now` came to nothing, or there was nowhere to
    /// dial: the next is due one back-off delay on — or never, if closing.
    pub(crate) fn failed(&mut self, now: Duration) {
        if let Link::Down { attempt, .. } = self.link {
            let due = now + self.backoff.delay(attempt, &mut self.rng);
            let attempt = attempt.saturating_add(1);
            self.link = if self.closing {
                Link::Dead
            } else {
                Link::Down { attempt, due }
            };
        }
    }

    /// Offer the pending frames to the connection `w` and count what
    /// became of them (see [`Outbox::flush`]). `false` when the write was
    /// cut: the link is down, a connect due at once for what is pending.
    pub(crate) fn flush<W: Write>(&mut self, w: &mut W) -> bool {
        debug_assert_eq!(self.link, Link::Up, "flushed without a connection");
        self.counts.writes += u64::from(!self.outbox.frames.is_empty());
        let flushed = self.outbox.flush(w);
        self.counts.frames_written += flushed.frames_written;
        self.counts.synopses_written += flushed.synopses_written;
        if let Some(lost) = flushed.wire_lost {
            self.counts.synopses_wire_lost += lost;
            self.link = DUE_NOW;
        }
        flushed.wire_lost.is_none()
    }

    /// The sender is stopping: a connect, if one is needed, is due at
    /// once, and the first that fails is the last.
    pub(crate) fn close(&mut self) {
        self.closing = true;
        if let Link::Down { due, .. } = &mut self.link {
            *due = Duration::ZERO;
        }
    }

    /// What connecting has come to so far.
    pub(crate) fn counts(&self) -> LinkCounts {
        self.counts
    }
}

#[cfg(test)]
/// Fixtures shared with the drivers' test modules.
pub(crate) mod testkit {
    use super::*;
    use crate::protocol::{NO_SEQ, PROTOCOL_VERSION};
    use saad_core::synopsis::TaskSynopsis;
    use saad_core::{LogPointId, StageId, TaskUid};
    use saad_sim::{SimDuration, SimTime};

    pub(crate) fn task(host: u16, uid: u64, points: usize) -> TaskSynopsis {
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

    pub(crate) fn batch(host: u16, uids: std::ops::Range<u64>) -> Vec<TaskSynopsis> {
        uids.map(|u| task(host, u, (u % 5) as usize)).collect()
    }

    /// `batch` as the one payload a producer makes of it.
    pub(crate) fn payload(batch: &[TaskSynopsis]) -> FramePayload {
        let mut payload = FramePayload::new();
        for s in batch {
            assert!(payload.push_parts(&s.head(), &s.log_points));
        }
        payload
    }

    /// Split `[u32 length][frame]…` wire bytes into the frames.
    pub(crate) fn messages(mut wire: &[u8]) -> Vec<&[u8]> {
        let mut out = Vec::new();
        while !wire.is_empty() {
            let len = u32::from_be_bytes(wire[..4].try_into().unwrap()) as usize;
            out.push(&wire[4..4 + len]);
            wire = &wire[4 + len..];
        }
        out
    }

    /// Accepts `accept` bytes in all, at most `per_call` per write, then
    /// fails like a dead socket.
    pub(crate) struct FailingWriter {
        pub(crate) accept: usize,
        pub(crate) per_call: usize,
        pub(crate) taken: Vec<u8>,
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

    /// The ack of a peer that accepts, or refuses for `reason`.
    pub(crate) fn ack(reason: RejectReason) -> HelloAck {
        HelloAck {
            version: PROTOCOL_VERSION,
            accept: reason == RejectReason::None,
            reason,
            last_seq: NO_SEQ,
            delivered_cum: 0,
            epoch: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::{ack, batch, messages, payload, FailingWriter};
    use super::*;
    use crate::agent::BACKOFF_JITTER;
    use crate::protocol::write_message;
    use proptest::prelude::*;
    use saad_core::synopsis::TaskSynopsis;
    use saad_core::testkit::parse_frame;

    #[test]
    fn outbox_loses_the_cut_frame_and_keeps_the_ones_behind_it() {
        let batches = [batch(9, 0..48), batch(9, 48..53), batch(9, 53..101)];
        let framed: u64 = batches.iter().map(|b| b.len() as u64).sum();
        let (mut probe, mut sender) = (Outbox::default(), FrameSender::new(HostId(9)));
        batches
            .iter()
            .for_each(|b| probe.frame(&mut sender, &payload(b)));
        let wire = probe.wire().to_vec();
        let ends: Vec<usize> = messages(&wire)
            .iter()
            .scan(0usize, |end, m| {
                *end += 4 + m.len();
                Some(*end)
            })
            .collect();
        assert_eq!(ends.len(), 3);

        // (bytes the writer accepts, frames that must count as written)
        let cases = [
            (0, 0),                // dead before the first byte
            (2, 0),                // inside the first length prefix
            (ends[0] - 1, 0),      // one byte short of a whole frame
            (ends[0], 1),          // exactly on a frame boundary
            (ends[0] + 4 + 10, 1), // inside the second frame's header
            (ends[1], 2),          // on the second boundary
            (ends[2] - 1, 2),      // all but the last byte
            (ends[2], 3),          // everything
            (ends[2] + 100, 3),    // more room than bytes
        ];
        let count = |bs: &[Vec<TaskSynopsis>]| bs.iter().map(|b| b.len() as u64).sum::<u64>();
        for (accept, whole) in cases {
            for per_call in [usize::MAX, 7] {
                let (mut outbox, mut sender) = (Outbox::default(), FrameSender::new(HostId(9)));
                batches
                    .iter()
                    .for_each(|b| outbox.frame(&mut sender, &payload(b)));
                let mut w = FailingWriter {
                    accept,
                    per_call,
                    taken: Vec::new(),
                };
                let flushed = outbox.flush(&mut w);
                let case = format!("accept {accept}, {per_call} per call");
                // Whole accepted frames are written; the frame the error cut
                // is lost; the frames behind it are still pending, untouched.
                let cut = usize::from(whole < 3);
                let kept = &batches[whole + cut..];
                assert_eq!(flushed.frames_written, whole as u64, "{case}");
                assert_eq!(flushed.synopses_written, count(&batches[..whole]), "{case}");
                assert_eq!(
                    flushed.wire_lost,
                    (cut == 1).then(|| count(&batches[whole..whole + cut])),
                    "{case}"
                );
                assert_eq!(w.taken[..], wire[..accept.min(wire.len())], "{case}");
                let kept_from = if cut == 1 { ends[whole] } else { wire.len() };
                assert_eq!(outbox.wire(), &wire[kept_from..], "{case}");
                assert_eq!(outbox.wire().is_empty(), kept.is_empty(), "{case}");
                assert_eq!(
                    outbox.resume_point(&sender),
                    ((whole + cut) as u64, count(&batches[..whole + cut])),
                    "{case}: a handshake now resumes at the first kept frame"
                );

                // Whatever happened to that write, nothing is renumbered: the
                // kept frames go out next as framed, and a new frame carries
                // on from everything framed so far.
                outbox.frame(&mut sender, &payload(&batch(9, 101..110)));
                let mut next = Vec::new();
                let flushed = outbox.flush(&mut next);
                assert!(
                    flushed.wire_lost.is_none() && outbox.wire().is_empty(),
                    "{case}"
                );
                assert_eq!(flushed.frames_written, kept.len() as u64 + 1, "{case}");
                assert_eq!(flushed.synopses_written, count(kept) + 9, "{case}");
                assert_eq!(next[..wire.len() - kept_from], wire[kept_from..], "{case}");
                let last = parse_frame(messages(&next).pop().unwrap()).expect("valid frame");
                assert_eq!(last.seq, 3, "{case}");
                assert_eq!(last.cumulative, framed, "{case}");
                assert_eq!(last.synopses, batch(9, 101..110), "{case}");
                assert_eq!(outbox.resume_point(&sender), (4, framed + 9), "{case}");
            }
        }
    }

    #[test]
    fn abandoned_outbox_reports_what_it_held() {
        let (mut outbox, mut sender) = (Outbox::default(), FrameSender::new(HostId(9)));
        outbox.frame(&mut sender, &payload(&batch(9, 0..48)));
        outbox.frame(&mut sender, &payload(&batch(9, 48..53)));
        assert_eq!(outbox.abandon(), 53);
        assert!(outbox.wire().is_empty());
        // The sequence numbers are spent all the same.
        assert_eq!(outbox.resume_point(&sender), (2, 53));
    }

    #[test]
    fn outbox_frames_are_the_frames_a_plain_sender_makes() {
        let batches = [batch(4, 0..48), batch(4, 48..49), batch(4, 49..97)];
        let (mut outbox, mut sender) = (Outbox::default(), FrameSender::new(HostId(4)));
        let mut plain = FrameSender::new(HostId(4));
        let mut want = Vec::new();
        for b in &batches {
            outbox.frame(&mut sender, &payload(b));
            write_message(&mut want, &plain.encode_frame(b)).unwrap();
        }
        assert_eq!(outbox.wire(), &want[..]);
        // All three are pending: a handshake would still resume at frame 0.
        assert_eq!(outbox.resume_point(&sender), (0, 0));
        assert_eq!(outbox.flush(&mut io::sink()).frames_written, 3);
        assert_eq!(outbox.resume_point(&sender), (3, 97));
    }

    const MS: Duration = Duration::from_millis(1);

    fn addr(port: u16) -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], port))
    }

    fn backoff(seed: u64) -> BackoffConfig {
        BackoffConfig {
            seed,
            ..BackoffConfig::default()
        }
    }

    /// A sender for host 9 whose next connect is answered by `answer`.
    fn dial(out: &mut Outbound, answer: io::Result<HelloAck>, now: Duration) -> bool {
        out.dialed(addr(1), answer.map(|ack| ((), ack)), now)
            .is_some()
    }

    fn refused() -> io::Result<HelloAck> {
        Err(io::ErrorKind::ConnectionRefused.into())
    }

    /// Take the link of `out` down by a write nothing of which arrives.
    fn cut(out: &mut Outbound) {
        out.outbox.frame(&mut out.sender, &payload(&batch(9, 0..1)));
        let mut dead = FailingWriter {
            accept: 0,
            per_call: usize::MAX,
            taken: Vec::new(),
        };
        assert!(!out.flush(&mut dead));
    }

    #[test]
    fn handshake_verdicts() {
        use RejectReason::{Malformed, None as Accepted, StaleEpoch, VersionMismatch};
        let now = 7 * MS;
        let first_delay = |seed| {
            let config = backoff(seed);
            config.delay(0, &mut StdRng::seed_from_u64(seed))
        };
        // Accepted: up, nothing due, counted as a connect.
        let mut out = Outbound::new(HostId(9), backoff(1));
        assert_eq!(
            out.connect_due(),
            Some(Duration::ZERO),
            "a fresh sender is due at once"
        );
        assert!(dial(&mut out, Ok(ack(Accepted)), now));
        assert_eq!(out.connect_due(), None);
        let connected = LinkCounts {
            connects: 1,
            ..LinkCounts::default()
        };
        assert_eq!(out.counts(), connected);

        // A stale epoch is counted twice over and retried after a back-off…
        let mut out = Outbound::new(HostId(9), backoff(2));
        assert!(!dial(&mut out, Ok(ack(StaleEpoch)), now));
        assert_eq!(out.connect_due(), Some(now + first_delay(2)));
        let stale = LinkCounts {
            handshake_rejects: 1,
            stale_epoch_rejects: 1,
            reject_reason: Some(StaleEpoch),
            ..LinkCounts::default()
        };
        assert_eq!(out.counts(), stale);
        // …and the retry can succeed.
        assert!(dial(&mut out, Ok(ack(Accepted)), 40 * MS));
        assert_eq!(
            out.counts(),
            LinkCounts {
                connects: 1,
                ..stale
            }
        );

        // Version skew or a hello the peer could not read: the same hello
        // cannot succeed, so no connect is ever due again.
        for reason in [VersionMismatch, Malformed, Accepted] {
            let mut out = Outbound::new(HostId(9), backoff(3));
            let mut refusal = ack(reason);
            refusal.accept = false; // `Accepted` here: a confused peer
            assert!(!dial(&mut out, Ok(refusal), now));
            assert_eq!(out.connect_due(), None, "{reason:?}");
            let dead = LinkCounts {
                handshake_rejects: 1,
                reject_reason: Some(reason),
                ..LinkCounts::default()
            };
            assert_eq!(out.counts(), dead, "{reason:?}");
        }

        // No connection, or no answer: backed off, nothing counted. The
        // same when there was nowhere to dial.
        let mut out = Outbound::new(HostId(9), backoff(4));
        assert!(!dial(&mut out, refused(), now));
        assert_eq!(out.connect_due(), Some(now + first_delay(4)));
        assert_eq!(out.counts(), LinkCounts::default());
        let mut out = Outbound::new(HostId(9), backoff(4));
        out.failed(now);
        assert_eq!(out.connect_due(), Some(now + first_delay(4)));
    }

    /// Fail `n` connects in a row, each made the moment it is due, and
    /// return the delays the sender asked for in between.
    fn delays(out: &mut Outbound, n: usize) -> Vec<Duration> {
        let mut now = out.connect_due().expect("down");
        (0..n)
            .map(|_| {
                assert!(!dial(out, refused(), now));
                let due = out.connect_due().expect("still down");
                let delay = due - now;
                now = due;
                delay
            })
            .collect()
    }

    #[test]
    fn back_off_follows_the_seeded_schedule_and_starts_over_after_a_connect() {
        let config = backoff(0xB0FF);
        let expected = |n: usize| -> Vec<Duration> {
            let mut rng = StdRng::seed_from_u64(config.seed);
            (0..n as u32).map(|a| config.delay(a, &mut rng)).collect()
        };
        let mut out = Outbound::new(HostId(9), config.clone());
        let got = delays(&mut out, 12);
        assert_eq!(got, expected(12));
        // Doubles from `initial`, within the jitter, up to `max`.
        let around = |d: Duration, nominal: Duration| {
            d >= nominal.mul_f64(1.0 - BACKOFF_JITTER) && d <= nominal.mul_f64(1.0 + BACKOFF_JITTER)
        };
        assert!(around(got[0], config.initial));
        assert!(around(got[1], config.initial * 2));
        assert!(around(got[3], config.initial * 8));
        assert!(got[8..].iter().all(|&d| around(d, config.max)), "{got:?}");

        // Identical for identical seeds, another stream for another seed.
        let again = delays(&mut Outbound::new(HostId(9), config.clone()), 12);
        assert_eq!(again, got);
        let other = delays(&mut Outbound::new(HostId(9), backoff(0xB100)), 12);
        assert_ne!(other, got);

        // A connect ends the run of failures: once the link is cut the
        // first connect is due at once and the schedule starts from
        // `initial` — further along the same jitter stream.
        let now = out.connect_due().unwrap();
        assert!(dial(&mut out, Ok(ack(RejectReason::None)), now));
        cut(&mut out);
        assert_eq!(out.connect_due(), Some(Duration::ZERO));
        let after = delays(&mut out, 2);
        assert!(around(after[0], config.initial) && around(after[1], config.initial * 2));
    }

    #[test]
    fn a_hello_resumes_at_the_first_frame_no_socket_was_offered() {
        let batches = [batch(9, 0..48), batch(9, 48..53), batch(9, 53..101)];
        let mut out = Outbound::new(HostId(9), backoff(5));
        let resume = |out: &Outbound| {
            let hello = out.hello(2, 77, PeerRole::Agent);
            assert_eq!((hello.version, hello.host, hello.epoch), (2, HostId(9), 77));
            assert_eq!(hello.role, PeerRole::Agent);
            (hello.next_seq, hello.sent_cum, hello.written_cum)
        };
        assert_eq!(resume(&out), (0, 0, 0));
        batches
            .iter()
            .for_each(|b| out.outbox.frame(&mut out.sender, &payload(b)));
        assert_eq!(resume(&out), (0, 0, 0), "framed is not offered");
        assert!(dial(&mut out, Ok(ack(RejectReason::None)), MS));

        // The write dies inside the second frame: the first is written,
        // the second lost, the third never reached the socket.
        let first = 4 + messages(out.outbox.wire())[0].len();
        let mut w = FailingWriter {
            accept: first + 9,
            per_call: usize::MAX,
            taken: Vec::new(),
        };
        assert!(!out.flush(&mut w));
        assert_eq!(out.connect_due(), Some(Duration::ZERO), "reconnect at once");
        assert_eq!(resume(&out), (2, 53, 48));
        let cut = out.counts();
        assert_eq!(
            (
                cut.frames_written,
                cut.synopses_written,
                cut.synopses_wire_lost
            ),
            (1, 48, 5)
        );
        // Framing more does not move the resume point.
        out.outbox
            .frame(&mut out.sender, &payload(&batch(9, 101..110)));
        assert_eq!(resume(&out), (2, 53, 48));

        // The next connection takes what was kept, as framed.
        assert!(dial(&mut out, Ok(ack(RejectReason::None)), 2 * MS));
        let mut next = Vec::new();
        assert!(out.flush(&mut next));
        let seqs: Vec<u64> = messages(&next)
            .iter()
            .map(|m| parse_frame(m).expect("valid frame").seq)
            .collect();
        assert_eq!(seqs, [2, 3]);
        assert_eq!(resume(&out), (4, 110, 48 + 48 + 9));
        // What the sender gives up on is spent, not written.
        out.outbox
            .frame(&mut out.sender, &payload(&batch(9, 110..112)));
        assert_eq!(out.outbox.abandon(), 2);
        assert_eq!(resume(&out), (5, 112, 105));
    }

    #[test]
    fn reconnects_and_rehomes_are_counted_once_each() {
        let mut out = Outbound::new(HostId(9), backoff(6));
        let accept = || Ok(((), ack(RejectReason::None)));
        // (address connected to, connects, reconnects, rehomes) so far
        let steps = [
            (addr(1), 1, 0, 0),
            (addr(1), 2, 1, 0),
            (addr(2), 3, 2, 1),
            (addr(2), 4, 3, 1),
            (addr(1), 5, 4, 2),
        ];
        for (to, connects, reconnects, rehomes) in steps {
            // A failed attempt in between changes nothing.
            assert!(!dial(&mut out, refused(), MS));
            assert!(out.dialed(to, accept(), MS).is_some());
            let c = out.counts();
            assert_eq!(
                (c.connects, c.reconnects, c.rehomes),
                (connects, reconnects, rehomes)
            );
            cut(&mut out);
        }
    }

    #[test]
    fn closing_means_one_attempt_and_no_back_off() {
        // Down and backed off: closing makes the connect due now, and
        // its failure the last.
        let mut out = Outbound::new(HostId(9), backoff(7));
        assert!(!dial(&mut out, refused(), MS));
        assert!(out.connect_due().unwrap() > MS);
        out.close();
        assert_eq!(out.connect_due(), Some(Duration::ZERO));
        assert!(!dial(&mut out, refused(), 2 * MS));
        assert_eq!(out.connect_due(), None);

        // Up when closed: a cut write still gets its one reconnect, and a
        // stale-epoch reject is no longer retried.
        let mut out = Outbound::new(HostId(9), backoff(7));
        assert!(dial(&mut out, Ok(ack(RejectReason::None)), MS));
        out.close();
        assert_eq!(out.connect_due(), None, "nothing to connect for");
        cut(&mut out);
        assert_eq!(out.connect_due(), Some(Duration::ZERO));
        assert!(!dial(&mut out, Ok(ack(RejectReason::StaleEpoch)), 2 * MS));
        assert_eq!(out.connect_due(), None);
        assert_eq!(out.counts().stale_epoch_rejects, 1);
    }

    /// One seeded schedule of everything that can happen to a sender —
    /// frames, connects that fail, are refused each way or succeed, writes
    /// cut at any offset, frames abandoned while the link is down (the
    /// leaf's way), a close at any point — checked against a ledger kept
    /// beside it.
    fn run_schedule(seed: u64) {
        let mut runner = TestRunner::from_seed(seed);
        let mut draw = |n: u64| (0..n).generate(&mut runner);
        let mut out = Outbound::new(HostId(9), backoff(seed));
        // Synopses in each frame, by sequence number; and the ledger.
        let mut framed: Vec<u64> = Vec::new();
        let (mut lost_frames, mut abandoned_frames, mut abandoned) = (0u64, 0u64, 0u64);
        // Frames that reached a writer whole, in order, per connection.
        let mut emitted: Vec<Vec<(u64, u64, u64)>> = Vec::new();
        // What a driver knows: the time, and whether it holds a connection.
        let (mut now, mut up) = (Duration::ZERO, false);
        let steps = 8 + draw(40);
        for _ in 0..steps {
            match draw(10) {
                0..=3 => {
                    let n = 1 + draw(5);
                    let uid = framed.iter().sum::<u64>();
                    out.outbox
                        .frame(&mut out.sender, &payload(&batch(9, uid..uid + n)));
                    framed.push(n);
                }
                4..=5 => {
                    let Some(due) = out.connect_due() else {
                        continue;
                    };
                    // Sometimes early — a driver that does not wait, and
                    // so does not dial — else at or past the due time.
                    if draw(4) == 0 && due > now {
                        continue;
                    }
                    now = now.max(due) + MS * draw(3) as u32;
                    let answer = match draw(6) {
                        0 => refused(),
                        1 => Ok(ack(RejectReason::StaleEpoch)),
                        2 if draw(4) == 0 => Ok(ack(RejectReason::VersionMismatch)),
                        3 if draw(4) == 0 => Ok(ack(RejectReason::Malformed)),
                        _ => Ok(ack(RejectReason::None)),
                    };
                    let hello = out.hello(2, 0, PeerRole::Agent);
                    up = dial(&mut out, answer, now);
                    if up {
                        // Resume point: the first pending frame, or the
                        // next to be framed.
                        let pending = out.outbox.pending_frames() as u64;
                        assert_eq!(hello.next_seq, framed.len() as u64 - pending, "seed {seed}");
                        emitted.push(Vec::new());
                    }
                }
                6..=7 => {
                    let on_this = match emitted.last_mut() {
                        Some(on_this) if up && !out.outbox.wire().is_empty() => on_this,
                        _ => continue,
                    };
                    let len = out.outbox.wire().len();
                    // One write in three is cut, anywhere.
                    let accept = if draw(3) == 0 {
                        draw(len as u64) as usize
                    } else {
                        len
                    };
                    let mut w = FailingWriter {
                        accept,
                        per_call: 1 + draw(64) as usize,
                        taken: Vec::new(),
                    };
                    up = out.flush(&mut w);
                    assert_eq!(up, accept == len, "seed {seed}");
                    lost_frames += u64::from(!up);
                    // Whole frames among the accepted bytes.
                    let mut rest = &w.taken[..];
                    while rest.len() >= 4 {
                        let body = u32::from_be_bytes(rest[..4].try_into().unwrap()) as usize;
                        let Some(frame) = rest.get(4..4 + body) else {
                            break;
                        };
                        let parsed = parse_frame(frame).expect("an accepted frame is valid");
                        on_this.push((parsed.seq, parsed.cumulative, parsed.synopses.len() as u64));
                        rest = &rest[4 + body..];
                    }
                }
                8 => {
                    if out.connect_due().is_some_and(|due| due > now) || draw(8) == 0 {
                        abandoned_frames += out.outbox.pending_frames() as u64;
                        abandoned += out.outbox.abandon();
                    }
                }
                _ => {
                    if draw(6) == 0 {
                        out.close();
                    }
                }
            }
        }
        let counts = out.counts();
        let (pending_frames, pending) = (out.outbox.pending_frames() as u64, out.outbox.abandon());
        // Every frame is written, lost to a cut, abandoned or pending —
        // in frames and in synopses.
        assert_eq!(
            counts.frames_written + lost_frames + abandoned_frames + pending_frames,
            framed.len() as u64,
            "seed {seed}"
        );
        assert_eq!(
            counts.synopses_written + counts.synopses_wire_lost + abandoned + pending,
            framed.iter().sum::<u64>(),
            "seed {seed}"
        );
        // The wire carries what was counted written, each frame numbered
        // as framed; within a connection the numbers are consecutive
        // unless frames in between were abandoned, and across the whole
        // stream they only ever go up.
        let all: Vec<_> = emitted.iter().flatten().copied().collect();
        assert_eq!(all.len() as u64, counts.frames_written, "seed {seed}");
        for &(seq, cumulative, synopses) in &all {
            let before: u64 = framed[..seq as usize].iter().sum();
            assert_eq!(
                (cumulative, synopses),
                (before, framed[seq as usize]),
                "seed {seed}"
            );
        }
        assert!(
            all.windows(2).all(|w| w[0].0 < w[1].0),
            "seed {seed}: {all:?}"
        );
        let gaps = all.windows(2).map(|w| w[1].0 - w[0].0 - 1).sum::<u64>()
            + all.first().map_or(0, |f| f.0);
        assert!(gaps <= lost_frames + abandoned_frames, "seed {seed}");
        if abandoned_frames == 0 {
            for on_one in &emitted {
                assert!(
                    on_one.windows(2).all(|w| w[0].0 + 1 == w[1].0),
                    "seed {seed}"
                );
            }
        }
    }

    #[test]
    fn every_seeded_schedule_accounts_for_every_frame() {
        for seed in 0..2_000 {
            run_schedule(seed);
        }
    }
}
