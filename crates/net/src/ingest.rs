//! What an agent-facing collector does with a hello and a frame — once.
//!
//! [`Ingest`] is the core a [`ReactorCollector`](crate::ReactorCollector)
//! holds in an `Arc`: the shared [`FrameReceiver`], the analyzer-side
//! channels, the collector-wide counters, the accepted version and epoch.
//! Each connection gets an [`IngestLink`], the [`Handler`] its
//! [`Session`](crate::session::Session) drives.
//!
//! Per frame, the per-byte work (CRC, decode, interning) runs outside the
//! receiver lock, which is taken once for the O(1) sequencing verdict.
//! The payload is decoded **in place** from the session's ring into a
//! staging [`SynopsisBatch`]: one batch allocation per fresh frame, none
//! per synopsis. Only a leaf's forwarding sink, which re-frames owned
//! synopses upstream, has the whole frame parsed.
//!
//! Admitted frames flow into the analyzer input as one [`SynopsisBatch`]
//! send per frame, a newly revealed gap riding on the batch that revealed
//! it (a goodbye's on a batch without rows): exactly what
//! [`feed_frame_soa`](saad_core::pipeline::feed_frame_soa) feeds a pool,
//! so a pool works unchanged behind a socket.

use crate::protocol::{Hello, HelloAck, RejectReason, NO_SEQ, PINNED_EPOCH};
use crate::session::Handler;
use crossbeam_channel::Sender;
use parking_lot::Mutex;
use saad_core::batch::SynopsisBatch;
use saad_core::codec::decode_batch_into;
use saad_core::intern::SignatureInterner;
use saad_core::synopsis::TaskSynopsis;
use saad_core::transport::{
    parse_frame, parse_frame_header, verify_frame_crc, AdmitDecision, FrameOutcome, FrameReceiver,
    LinkStats, LossReport, FRAME_HEADER_LEN,
};
use saad_core::HostId;
use saad_sim::SimTime;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Link state carried across collector restarts: the shared
/// [`FrameReceiver`] with its per-host delivery, duplicate, and loss
/// accounting. [`ReactorCollector::shutdown`](crate::ReactorCollector::shutdown)
/// returns it and
/// [`ReactorCollector::serve_soa`](crate::ReactorCollector::serve_soa)
/// adopts it; a collector restarted *without* it relies on the agents'
/// resume handshakes ([`FrameReceiver::resume`]) instead.
#[derive(Debug, Default)]
pub struct CollectorState {
    pub(crate) receiver: FrameReceiver,
}

impl CollectorState {
    /// The carried-over receiver (read-only view).
    pub fn receiver(&self) -> &FrameReceiver {
        &self.receiver
    }
}

/// Snapshot of collector-wide counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectorStats {
    /// Connections accepted since start.
    pub connections_accepted: u64,
    /// Connections currently streaming.
    pub connections_active: u64,
    /// Handshakes refused (bad magic/checksum or version skew).
    pub handshakes_rejected: u64,
    /// Subset of rejections caused by a stale control-plane ring epoch.
    pub stale_epoch_rejects: u64,
    /// Fresh (non-duplicate) frames admitted.
    pub frames: u64,
    /// Synopses forwarded to the analyzer input.
    pub synopses: u64,
    /// Frames rejected as corrupt (checksum, truncation, oversize, codec).
    pub corrupted_frames: u64,
    /// Duplicate frames discarded across all hosts.
    pub duplicate_frames: u64,
    /// Synopses known lost across all hosts (exact at quiescence).
    pub lost_synopses: u64,
    /// Ingest watermark: the highest synopsis start time admitted on any
    /// connection. Monotone; [`SimTime::ZERO`] until the first synopsis.
    pub watermark: SimTime,
}

/// Consumer of admitted frames that needs the agent's **global stream
/// coordinates**, not just the payload — what a leaf collector's uplink
/// implements so it can re-frame digests upstream at the exact positions
/// the originating agents encoded them at (see `crate::leaf`).
pub trait AdmittedSink: Send + Sync {
    /// One fresh admitted frame for `host`: its synopses, the loss this
    /// frame newly revealed on the agent link, and the host's global
    /// stream position just past the frame's last synopsis (i.e. the
    /// frame's `cumulative` + `synopses.len()`).
    fn on_fresh(
        &self,
        host: HostId,
        synopses: Vec<TaskSynopsis>,
        newly_lost: u64,
        stream_pos_end: u64,
    );
}

#[derive(Debug, Default)]
struct Counters {
    connections_accepted: AtomicU64,
    connections_active: AtomicU64,
    handshakes_rejected: AtomicU64,
    stale_epoch_rejects: AtomicU64,
    frames: AtomicU64,
    synopses: AtomicU64,
    watermark_micros: AtomicU64,
}

/// Where admitted frames' synopses go: SoA batches interned at the
/// collector edge against the consuming pool's interner, each carrying the
/// gap its frame revealed — or an [`AdmittedSink`] forwarding digests
/// upstream (the leaf role), which is told of gaps in stream coordinates
/// instead.
pub(crate) enum SynopsisOut {
    Soa {
        tx: Sender<SynopsisBatch>,
        interner: Arc<SignatureInterner>,
        /// The legacy side channel of gap reports
        /// ([`ReactorCollector::bind_soa`](crate::ReactorCollector::bind_soa)):
        /// a report goes there, ahead of its batch, instead of riding on
        /// it, and a frame without synopses sends no batch.
        side_losses: Option<Sender<LossReport>>,
    },
    Forward(Arc<dyn AdmittedSink>),
}

/// The shared receive core of one collector. See the [module docs](self).
pub(crate) struct Ingest {
    receiver: Mutex<FrameReceiver>,
    out: SynopsisOut,
    counters: Counters,
    version: u16,
    epoch: Option<Arc<AtomicU64>>,
}

/// Register a scrape-time series under the naming rule every table in this
/// crate relies on: a name ending in `_total` is a counter, any other a gauge.
pub(crate) fn register_series(
    registry: &saad_obs::Registry,
    name: &str,
    help: &str,
    labels: &[(&str, &str)],
    value: impl Fn() -> u64 + Send + Sync + 'static,
) {
    if name.ends_with("_total") {
        registry.register_counter_fn(name, help, labels, value);
    } else {
        registry.register_gauge_fn(name, help, labels, move || value() as i64);
    }
}

/// One collector-wide series: name suffix, help, and its value in a
/// [`CollectorStats`] snapshot.
type Series = (&'static str, &'static str, fn(&CollectorStats) -> u64);

const SERIES: [Series; 10] = [
    (
        "connections_accepted_total",
        "Agent connections accepted since collector start",
        |s| s.connections_accepted,
    ),
    (
        "connections_active",
        "Agent connections currently streaming",
        |s| s.connections_active,
    ),
    (
        "handshakes_rejected_total",
        "Handshakes refused (bad magic/checksum, version skew or stale epoch)",
        |s| s.handshakes_rejected,
    ),
    (
        "stale_epoch_rejects_total",
        "Handshakes refused because the peer routed by a stale ring epoch",
        |s| s.stale_epoch_rejects,
    ),
    (
        "frames_total",
        "Fresh (non-duplicate) frames admitted",
        |s| s.frames,
    ),
    (
        "synopses_total",
        "Synopses forwarded to the analyzer input",
        |s| s.synopses,
    ),
    (
        "corrupted_frames_total",
        "Frames rejected as corrupt (checksum, truncation, oversize, codec)",
        |s| s.corrupted_frames,
    ),
    (
        "duplicate_frames_total",
        "Duplicate frames discarded across all hosts",
        |s| s.duplicate_frames,
    ),
    (
        "lost_synopses_total",
        "Synopses known lost across all hosts (exact at quiescence)",
        |s| s.lost_synopses,
    ),
    (
        "watermark_us",
        "Highest synopsis start time admitted on any connection, in stream microseconds",
        |s| s.watermark.as_micros(),
    ),
];

impl Ingest {
    /// A core adopting `receiver`, accepting protocol `version` and — when
    /// `epoch` is given — refusing hellos routed by an older ring epoch.
    pub(crate) fn new(
        receiver: FrameReceiver,
        out: SynopsisOut,
        version: u16,
        epoch: Option<Arc<AtomicU64>>,
    ) -> Arc<Ingest> {
        Arc::new(Ingest {
            receiver: Mutex::new(receiver),
            out,
            counters: Counters::default(),
            version,
            epoch,
        })
    }

    /// Count one accepted connection and hand back the handler its
    /// session drives; dropping the link counts the connection closed.
    pub(crate) fn link(self: &Arc<Ingest>) -> IngestLink {
        let c = &self.counters;
        c.connections_accepted.fetch_add(1, Ordering::Relaxed);
        c.connections_active.fetch_add(1, Ordering::Relaxed);
        IngestLink {
            ingest: self.clone(),
            staging: SynopsisBatch::new(),
        }
    }

    /// Snapshot of collector-wide counters (takes the receiver lock
    /// briefly for link totals).
    pub(crate) fn stats(&self) -> CollectorStats {
        let c = &self.counters;
        let rx = self.receiver.lock();
        CollectorStats {
            connections_accepted: c.connections_accepted.load(Ordering::Relaxed),
            connections_active: c.connections_active.load(Ordering::Relaxed),
            handshakes_rejected: c.handshakes_rejected.load(Ordering::Relaxed),
            stale_epoch_rejects: c.stale_epoch_rejects.load(Ordering::Relaxed),
            frames: c.frames.load(Ordering::Relaxed),
            synopses: c.synopses.load(Ordering::Relaxed),
            corrupted_frames: rx.corrupted_frames(),
            duplicate_frames: rx.all_stats().map(|(_, s)| s.duplicate_frames).sum(),
            lost_synopses: rx.total_lost(),
            watermark: SimTime::from_micros(c.watermark_micros.load(Ordering::Relaxed)),
        }
    }

    /// Link statistics for one host (zeroes if never heard from).
    pub(crate) fn link_stats(&self, host: HostId) -> LinkStats {
        self.receiver.lock().stats(host)
    }

    /// Expose [`Ingest::stats`] in `registry` as the `saad_collector_*`
    /// family, evaluated at scrape time. The registry typically outlives
    /// the collector and the core owns the analyzer-side senders: a strong
    /// capture would keep the batch channel open after shutdown and
    /// deadlock downstream joins, so the callbacks hold a `Weak` and
    /// scrape as zero afterwards.
    pub(crate) fn register_metrics(self: &Arc<Ingest>, registry: &saad_obs::Registry) {
        for (suffix, help, read) in SERIES {
            let weak = Arc::downgrade(self);
            let value = move || weak.upgrade().map_or(0, |ingest| read(&ingest.stats()));
            let name = format!("saad_collector_{suffix}");
            register_series(registry, &name, help, &[], value);
        }
    }

    /// Take the link state out for a successor collector.
    pub(crate) fn into_state(self: Arc<Ingest>) -> CollectorState {
        let receiver = std::mem::take(&mut *self.receiver.lock());
        CollectorState { receiver }
    }

    /// Current enforced epoch, or 0 when the collector enforces none.
    fn current_epoch(&self) -> u64 {
        self.epoch.as_ref().map_or(0, |e| e.load(Ordering::SeqCst))
    }

    /// Did this hello route by a ring epoch older than the enforced one?
    /// [`PINNED_EPOCH`] peers (and all v1 peers, which decode to it) are
    /// never stale: they did not route through a ring at all.
    fn stale_epoch(&self, hello: &Hello) -> bool {
        hello.epoch != PINNED_EPOCH && hello.epoch < self.current_epoch()
    }

    /// The leaf's frame path: a forwarding sink re-frames owned
    /// `TaskSynopsis` values, so the whole frame is parsed.
    fn admit_owned(&self, sink: &dyn AdmittedSink, body: &[u8]) {
        let Ok(parsed) = parse_frame(body) else {
            return self.receiver.lock().record_corrupted();
        };
        let starts = parsed.synopses.iter().map(|s| s.start);
        let max_start = starts.max().unwrap_or(SimTime::ZERO);
        // End of this frame in the sender's global stream coordinates —
        // what the sink re-frames at so gaps stay visible upstream.
        let pos_end = parsed.cumulative + parsed.synopses.len() as u64;
        let outcome = self.receiver.lock().admit(parsed);
        if let FrameOutcome::Fresh {
            host,
            synopses,
            newly_lost,
        } = outcome
        {
            let n = synopses.len();
            sink.on_fresh(host, synopses, newly_lost, pos_end);
            self.count_fresh(n, max_start);
        }
    }

    fn count_fresh(&self, synopses: usize, max_start: SimTime) {
        let c = &self.counters;
        c.frames.fetch_add(1, Ordering::Relaxed);
        c.synopses.fetch_add(synopses as u64, Ordering::Relaxed);
        c.watermark_micros
            .fetch_max(max_start.as_micros(), Ordering::Relaxed);
    }
}

/// One connection's [`Handler`] over the shared [`Ingest`].
pub(crate) struct IngestLink {
    ingest: Arc<Ingest>,
    /// Staging batch the in-place decoder fills; swapped out whole on a
    /// fresh frame, cleared on a duplicate.
    staging: SynopsisBatch,
}

impl Drop for IngestLink {
    fn drop(&mut self) {
        let active = &self.ingest.counters.connections_active;
        active.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Handler for IngestLink {
    fn on_hello(&mut self, hello: &Hello) -> Result<HelloAck, RejectReason> {
        let ingest = &*self.ingest;
        if hello.version != ingest.version {
            return Err(RejectReason::VersionMismatch);
        }
        if ingest.stale_epoch(hello) {
            let stale = &ingest.counters.stale_epoch_rejects;
            stale.fetch_add(1, Ordering::Relaxed);
            return Err(RejectReason::StaleEpoch);
        }
        let mut rx = ingest.receiver.lock();
        rx.resume(
            hello.host,
            hello.written_cum,
            hello.sent_cum,
            hello.next_seq,
        );
        Ok(HelloAck {
            version: ingest.version,
            accept: true,
            reason: RejectReason::None,
            last_seq: rx.highest_seq(hello.host).unwrap_or(NO_SEQ),
            delivered_cum: rx.stats(hello.host).delivered_synopses,
            epoch: ingest.current_epoch(),
        })
    }

    fn on_reject(&mut self, reason: RejectReason) -> HelloAck {
        let rejected = &self.ingest.counters.handshakes_rejected;
        rejected.fetch_add(1, Ordering::Relaxed);
        HelloAck {
            version: self.ingest.version,
            accept: false,
            reason,
            last_seq: NO_SEQ,
            delivered_cum: 0,
            epoch: self.ingest.current_epoch(),
        }
    }

    /// Validate, decode, sequence and forward one frame. A body that is
    /// corrupt was still framed correctly by its length prefix: it is
    /// counted and later messages remain readable.
    fn on_message(&mut self, body: &[u8]) {
        let ingest = &*self.ingest;
        let (tx, interner, side_losses) = match &ingest.out {
            SynopsisOut::Soa {
                tx,
                interner,
                side_losses,
            } => (tx, interner, side_losses),
            SynopsisOut::Forward(sink) => return ingest.admit_owned(&**sink, body),
        };
        // In place: header checks and payload decode straight from the
        // ring into the staging batch's columns.
        let staging = &mut self.staging;
        debug_assert!(staging.is_empty(), "staging must drain between frames");
        let decoded =
            body.split_at_checked(FRAME_HEADER_LEN)
                .and_then(|(header_bytes, payload)| {
                    let header = parse_frame_header(header_bytes).ok()?;
                    if payload.len() != header.payload_len as usize {
                        return None;
                    }
                    verify_frame_crc(header_bytes, payload).ok()?;
                    // A failed decode rolls the batch back itself.
                    let n = decode_batch_into(payload, staging, interner).ok()?;
                    Some((header, n))
                });
        let Some((header, n)) = decoded else {
            return ingest.receiver.lock().record_corrupted();
        };
        // The guard is a temporary: no lock is held across the sends below.
        let decision = (ingest.receiver.lock()).admit_meta(
            header.host,
            header.seq,
            header.cumulative,
            n as u64,
        );
        match decision {
            AdmitDecision::Fresh { newly_lost } => {
                // Watermarks are a running max, so the last one is the
                // frame's max start.
                let max_start = staging.watermarks.last().copied().unwrap_or(SimTime::ZERO);
                let watermark = ingest.counters.watermark_micros.load(Ordering::Relaxed);
                staging.reveal_gap(header.host, newly_lost, SimTime::from_micros(watermark));
                if let Some(loss_tx) = side_losses {
                    for report in staging.losses.drain(..) {
                        let _ = loss_tx.send(report);
                    }
                }
                if n > 0 || !staging.losses.is_empty() {
                    let batch = std::mem::replace(staging, SynopsisBatch::with_capacity(n));
                    let _ = tx.send(batch);
                }
                ingest.count_fresh(n, max_start);
            }
            AdmitDecision::Duplicate => staging.clear(),
        }
    }

    /// A nonsense length prefix: the stream is unrecoverable.
    fn on_unframeable(&mut self) {
        self.ingest.receiver.lock().record_corrupted();
    }
}

#[cfg(test)]
/// Socket-free fixtures shared by this crate's receive-path tests.
pub(crate) mod testkit {
    use super::*;
    use crate::protocol::{encode_hello, write_message, PeerRole};
    use crate::session::Session;
    use crossbeam_channel::{unbounded, Receiver};
    use saad_core::detector::{AnomalyDetector, DetectorConfig};
    use saad_core::transport::FrameSender;
    use saad_core::{LogPointId, StageId, TaskUid};
    use saad_sim::SimDuration;

    /// One [`AdmittedSink::on_fresh`] call: host, synopses, newly lost,
    /// stream position past the frame.
    pub(crate) type Forwarded = (HostId, Vec<TaskSynopsis>, u64, u64);

    impl AdmittedSink for Sender<Forwarded> {
        fn on_fresh(&self, host: HostId, synopses: Vec<TaskSynopsis>, lost: u64, pos_end: u64) {
            let _ = self.send((host, synopses, lost, pos_end));
        }
    }

    /// A collector core with every output observable: the SoA batches,
    /// with the gap reports riding on them, or what a leaf forwards.
    pub(crate) struct Rig {
        pub(crate) ingest: Arc<Ingest>,
        pub(crate) soa: Receiver<SynopsisBatch>,
        pub(crate) forwarded: Receiver<Forwarded>,
    }

    /// A fresh core accepting `version`, enforcing `epoch`, feeding the
    /// SoA output when `soa` and a leaf's forwarding sink otherwise.
    pub(crate) fn rig(version: u16, epoch: Option<u64>, soa: bool) -> Rig {
        let (tx, soa_rx) = unbounded();
        let (forward_tx, forwarded) = unbounded();
        let out = if soa {
            SynopsisOut::Soa {
                tx,
                interner: Arc::new(SignatureInterner::new()),
                side_losses: None,
            }
        } else {
            SynopsisOut::Forward(Arc::new(forward_tx))
        };
        let epoch = epoch.map(|e| Arc::new(AtomicU64::new(e)));
        Rig {
            ingest: Ingest::new(FrameReceiver::new(), out, version, epoch),
            soa: soa_rx,
            forwarded,
        }
    }

    /// The gap reports riding on `batches`, in stream order.
    pub(crate) fn losses(batches: &[SynopsisBatch]) -> Vec<LossReport> {
        batches
            .iter()
            .flat_map(|b| b.losses.iter().copied())
            .collect()
    }

    /// A host's stream ending badly: a data frame (three tasks in minute
    /// 5, one per stage), a frame of two that never arrives, and the
    /// goodbye — no synopses, only the final stream position — that
    /// reveals it. Returns the bodies that do arrive and the one report
    /// their collector owes: the gap, in the host's last live window.
    pub(crate) fn goodbye_after_a_lost_frame() -> (Vec<Vec<u8>>, LossReport) {
        let at = |ms: u64| 5 * 60_000 + ms; // windows 0..4 are long closed
        let data: Vec<_> = [(1, 100), (2, 900), (3, 400)]
            .map(|(uid, ms)| synopsis(10, uid, at(ms), &[1, 2]))
            .into();
        let lost = vec![synopsis(10, 4, at(1_000), &[1, 2]); 2];
        let bodies = frame_bodies(&[10], &[data, lost, Vec::new()], 0b010, 0);
        let owed = LossReport {
            host: HostId(10),
            at: SimTime::from_millis(at(900)), // the highest start admitted
            count: 2,
        };
        (bodies, owed)
    }

    /// What an analyzer makes of a collector's output for
    /// [`goodbye_after_a_lost_frame`]: a model-less detector (one event
    /// per window and stage) fed `batches` — each one's gap reports, then
    /// its rows — must report the window `owed` falls in — one task seen
    /// per stage, the host's two lost — at completeness 1/3. Stamped at
    /// time zero the report was judged stale and every event read 1.
    pub(crate) fn assert_gap_is_charged(
        interner: &Arc<SignatureInterner>,
        batches: &[SynopsisBatch],
        owed: LossReport,
    ) {
        assert_eq!(losses(batches), [owed]);
        let config = DetectorConfig::default();
        let mut detector = AnomalyDetector::collecting(interner.clone(), config).unwrap();
        let mut events = Vec::new();
        for batch in batches {
            for r in &batch.losses {
                detector.record_loss(r.host, r.at, r.count);
            }
            for i in 0..batch.len() {
                events.extend(detector.observe_interned(&batch.feature(i)));
            }
        }
        events.extend(detector.flush());
        let window = config.window.as_micros();
        events.retain(|e| e.window_start.as_micros() / window == owed.at.as_micros() / window);
        assert_eq!(events.len(), 3, "the host's last window: {events:?}");
        for e in events {
            assert!((e.completeness - 1.0 / 3.0).abs() < 1e-9, "{e:?}");
        }
    }

    pub(crate) fn synopsis(host: u16, uid: u64, start_ms: u64, points: &[u16]) -> TaskSynopsis {
        TaskSynopsis {
            host: HostId(host),
            stage: StageId((uid % 3) as u16),
            uid: TaskUid(uid),
            start: SimTime::from_millis(start_ms),
            duration: SimDuration::from_micros(500 + uid % 97),
            log_points: points.iter().map(|&p| (LogPointId(p), 1)).collect(),
        }
    }

    pub(crate) fn hello_bytes(version: u16, host: u16, epoch: u64) -> Vec<u8> {
        encode_hello(&Hello {
            version,
            host: HostId(host),
            next_seq: 0,
            sent_cum: 0,
            written_cum: 0,
            epoch,
            role: PeerRole::Agent,
        })
    }

    /// Batches of the given sizes for `hosts` in rotation: uids count up
    /// from 1, start times are drawn from `starts`, signatures vary.
    pub(crate) fn batches(
        hosts: &[u16],
        sizes: &[usize],
        starts: &[u64],
    ) -> Vec<Vec<TaskSynopsis>> {
        let mut uid = 0u64;
        let mut batch = |i: usize, n: usize| -> Vec<TaskSynopsis> {
            (0..n)
                .map(|_| {
                    uid += 1;
                    let points = [1 + (uid % 5) as u16, 7, 2 + (uid % 3) as u16];
                    let start = starts[uid as usize % starts.len()];
                    let host = hosts[i % hosts.len()];
                    synopsis(host, uid, start, &points[..(uid % 4) as usize])
                })
                .collect()
        };
        sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| batch(i, n))
            .collect()
    }

    /// One frame stream: bodies in delivery order from senders that
    /// rotate over `hosts`. Bit `i` of `skip` drops frame `i` after it
    /// was sequenced (a gap a later frame reveals), bit `i` of `dup`
    /// delivers it twice.
    pub(crate) fn frame_bodies(
        hosts: &[u16],
        batches: &[Vec<TaskSynopsis>],
        skip: u32,
        dup: u32,
    ) -> Vec<Vec<u8>> {
        let mut senders: Vec<FrameSender> =
            hosts.iter().map(|&h| FrameSender::new(HostId(h))).collect();
        let mut bodies = Vec::new();
        for (i, batch) in batches.iter().enumerate() {
            let body = senders[i % hosts.len()].encode_frame(batch).to_vec();
            if skip & (1 << (i % 32)) != 0 {
                continue;
            }
            if dup & (1 << (i % 32)) != 0 {
                bodies.push(body.clone());
            }
            bodies.push(body);
        }
        bodies
    }

    /// Feed `wire` to `session` in the chunks `cuts` yields (lengths; the
    /// last chunk takes what is left), writing acks out as a driver would
    /// and stopping where a driver would close. Returns whether the
    /// connection is still open, and the ack bytes written.
    pub(crate) fn feed_in_cuts<H: Handler>(
        session: &mut Session,
        handler: &mut H,
        wire: &[u8],
        cuts: impl IntoIterator<Item = usize>,
    ) -> (bool, Vec<u8>) {
        let (mut alive, mut acks, mut rest) = (true, Vec::new(), wire);
        let mut cuts = cuts.into_iter();
        while alive && !rest.is_empty() {
            let len = cuts.next().map_or(rest.len(), |c| c.clamp(1, rest.len()));
            let (chunk, tail) = rest.split_at(len);
            rest = tail;
            alive = session.feed(chunk, handler);
            acks.extend_from_slice(session.ack());
            session.ack_written(session.ack().len());
        }
        (alive, acks)
    }

    /// `bodies` as the length-prefixed byte stream a peer writes.
    pub(crate) fn wire_of(bodies: &[Vec<u8>]) -> Vec<u8> {
        let mut wire = Vec::new();
        for body in bodies {
            write_message(&mut wire, body).expect("test bodies are in bounds");
        }
        wire
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::{
        assert_gap_is_charged, batches, frame_bodies, goodbye_after_a_lost_frame, losses, rig,
    };
    use super::*;
    use proptest::prelude::*;
    use saad_core::pipeline::feed_frame_soa;

    proptest! {
        /// The in-place SoA path (`parse_frame_header` → `verify_frame_crc`
        /// → `decode_batch_into` → `admit_meta`) against the whole-frame
        /// reference (`parse_frame` → `admit` → `feed_frame_soa`): same
        /// batches, the same gap reports on them with the same stamps,
        /// same counters, same link accounts.
        #[test]
        fn in_place_soa_path_equals_whole_frame_reference(
            sizes in collection::vec(0usize..7, 1..14),
            starts in collection::vec(0u64..90_000, 100..101),
            skip in 0u32..4096,
            dup in 0u32..4096,
            corrupt in 0usize..20,
        ) {
            let hosts = [10u16, 11, 12];
            let batches = batches(&hosts, &sizes, &starts);
            let mut bodies = frame_bodies(&hosts, &batches, skip, dup);
            if let Some(body) = bodies.get_mut(corrupt) {
                let last = body.len() - 1;
                body[last] ^= 0x20;
            }

            let under_test = rig(2, None, true);
            let mut link = under_test.ingest.link();
            for body in &bodies {
                link.on_message(body);
            }

            let reference = rig(2, None, true);
            let SynopsisOut::Soa { tx, interner, .. } = &reference.ingest.out else {
                unreachable!("rig(.., true) is the SoA output");
            };
            let mut receiver = FrameReceiver::new();
            let (mut frames, mut synopses, mut watermark) = (0u64, 0u64, SimTime::ZERO);
            for body in &bodies {
                let Ok(parsed) = parse_frame(body) else {
                    receiver.record_corrupted();
                    continue;
                };
                let max_start = parsed.synopses.iter().map(|s| s.start).max();
                let outcome = receiver.admit(parsed);
                if matches!(outcome, FrameOutcome::Fresh { .. }) {
                    frames += 1;
                    synopses += feed_frame_soa(outcome, tx, interner, watermark) as u64;
                    watermark = watermark.max(max_start.unwrap_or(SimTime::ZERO));
                }
            }

            let batches = |rig: &testkit::Rig| -> Vec<SynopsisBatch> { rig.soa.try_iter().collect() };
            let (got, want) = (batches(&under_test), batches(&reference));
            prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
            prop_assert_eq!(losses(&got), losses(&want));
            let stats = under_test.ingest.stats();
            prop_assert_eq!(
                (stats.frames, stats.synopses, stats.watermark),
                (frames, synopses, watermark)
            );
            prop_assert_eq!(stats.corrupted_frames, receiver.corrupted_frames());
            prop_assert_eq!(stats.lost_synopses, receiver.total_lost());
            for host in hosts {
                prop_assert_eq!(under_test.ingest.link_stats(HostId(host)), receiver.stats(HostId(host)));
            }
        }
    }

    proptest! {
        /// The legacy form of the same edge
        /// ([`ReactorCollector::bind_soa`](crate::ReactorCollector::bind_soa))
        /// puts the reports the batches carry, in the same order, on its
        /// side channel instead, and sends the same rows — but no batch
        /// for a frame without synopses.
        #[test]
        fn the_legacy_side_channel_carries_what_the_batches_do(
            sizes in collection::vec(0usize..7, 1..14),
            starts in collection::vec(0u64..90_000, 100..101),
            skip in 0u32..4096,
            dup in 0u32..4096,
        ) {
            let hosts = [10u16, 11, 12];
            let bodies = frame_bodies(&hosts, &batches(&hosts, &sizes, &starts), skip, dup);
            let (side_tx, side_rx) = crossbeam_channel::unbounded();
            let (legacy_tx, legacy_rx) = crossbeam_channel::unbounded();
            let out = SynopsisOut::Soa {
                tx: legacy_tx,
                interner: Arc::default(),
                side_losses: Some(side_tx),
            };
            let legacy = Ingest::new(FrameReceiver::new(), out, 2, None);
            let in_band = rig(2, None, true);
            for ingest in [&legacy, &in_band.ingest] {
                let mut link = ingest.link();
                for body in &bodies {
                    link.on_message(body);
                }
            }
            let mut rows: Vec<SynopsisBatch> = in_band.soa.try_iter().collect();
            let reports = losses(&rows);
            rows.retain(|b| !b.is_empty());
            rows.iter_mut().for_each(|b| b.losses.clear());
            let legacy_rows: Vec<SynopsisBatch> = legacy_rx.try_iter().collect();
            prop_assert_eq!(format!("{legacy_rows:?}"), format!("{rows:?}"));
            prop_assert_eq!(side_rx.try_iter().collect::<Vec<_>>(), reports);
        }
    }

    /// A goodbye frame revealing a trailing gap has no first start to
    /// stamp the report with; it lands in the host's last live window.
    #[test]
    fn a_gap_revealed_by_an_empty_frame_is_charged_to_the_last_window() {
        let (bodies, owed) = goodbye_after_a_lost_frame();
        let rig = rig(2, None, true);
        let mut link = rig.ingest.link();
        for body in &bodies {
            link.on_message(body);
        }
        assert_eq!(rig.ingest.stats().watermark, owed.at);
        let SynopsisOut::Soa { interner, .. } = &rig.ingest.out else {
            unreachable!("rig(.., true) is the SoA output");
        };
        let batches: Vec<SynopsisBatch> = rig.soa.try_iter().collect();
        assert_gap_is_charged(interner, &batches, owed);
    }

    /// A frame whose checksum is right and whose synopsis names host
    /// 85 536: truncated to 16 bits that is host 20 000, and the frame
    /// would pass for a real one. It is counted corrupted on both outputs,
    /// nothing of it is forwarded, and the stream stays readable.
    #[test]
    fn a_crc_valid_frame_with_a_wide_id_is_counted_corrupted() {
        use saad_core::transport::crc32;
        let host = 20_000; // three varint bytes, the last one `1`
        let good = vec![testkit::synopsis(host, 1, 100, &[1, 2])];
        let mut bodies = frame_bodies(&[host], &[good.clone(), good], 0, 0);
        let bad = &mut bodies[0];
        assert_eq!(bad[FRAME_HEADER_LEN + 2], 1);
        bad[FRAME_HEADER_LEN + 2] = 5; // host 20 000 + (4 << 14) = 85 536
        let crc = crc32(&[&bad[..FRAME_HEADER_LEN - 4], &bad[FRAME_HEADER_LEN..]]);
        bad[FRAME_HEADER_LEN - 4..FRAME_HEADER_LEN].copy_from_slice(&crc.to_be_bytes());
        for soa in [true, false] {
            let rig = rig(2, None, soa);
            let mut link = rig.ingest.link();
            for body in &bodies {
                link.on_message(body);
            }
            let stats = rig.ingest.stats();
            assert_eq!(
                (stats.corrupted_frames, stats.frames, stats.synopses),
                (1, 1, 1)
            );
            assert_eq!(
                rig.soa.try_iter().count() + rig.forwarded.try_iter().count(),
                1
            );
        }
    }

    #[test]
    fn one_family_with_every_total() {
        let registry = saad_obs::Registry::new();
        let rig = rig(2, None, true);
        rig.ingest.register_metrics(&registry);
        let link = rig.ingest.link();
        let text = registry.render();
        saad_obs::validate_text(&text).expect("well-formed exposition");
        for (suffix, ..) in SERIES {
            let series = format!("\nsaad_collector_{suffix} ");
            assert!(text.contains(&series), "missing {series:?} in\n{text}");
        }
        assert!(text.contains("\nsaad_collector_connections_active 1\n"));
        drop((link, rig));
        // The callbacks hold no strong reference: a collector that is gone
        // scrapes as zero instead of keeping its channels open.
        assert!(registry
            .render()
            .contains("\nsaad_collector_connections_accepted_total 0\n"));
    }
}
