//! What a collector does with a hello and a frame — once, for every tier.
//!
//! [`Ingest`] is the core a [`ReactorCollector`](crate::ReactorCollector)
//! or a [`RootCollector`](crate::RootCollector) holds in an `Arc`: its
//! [`Admission`], the analyzer-side channels, the collector-wide counters,
//! the accepted version and epoch. Each connection gets an
//! [`IngestLink`], the [`Handler`] its [`Session`](crate::session::Session)
//! drives.
//!
//! Per frame, the per-byte work (CRC, parsing, interning) runs outside
//! the admission lock, which is taken once for the O(1) sequencing
//! verdict. Every frame passes the one frame check and the one synopsis
//! parser, **in place** in the session's ring: decoded into the link's
//! staging [`SynopsisBatch`] (no allocation per frame or per synopsis
//! once the batch spare list is warm), or, for a leaf's forwarding sink,
//! checked into a [`CheckedPayload`] whose bytes the leaf copies upstream
//! as they came.
//!
//! Admitted frames flow into the analyzer input as one [`SynopsisBatch`]
//! send per ring drain ([`Handler::on_drained`]): every fresh frame a
//! drain completes is decoded into the same batch, which is sent when the
//! drain ends, when it reaches a row cap, or when the link drops. A frame
//! that reveals a gap first sends the rows staged before it, so the
//! report rides ahead of exactly that frame's rows (a goodbye's on a
//! batch without rows), stamped as the whole-frame reference
//! `saad_core::testkit::feed_frame_soa` stamps it. The rows, and where
//! each gap falls among them, are what that reference feeds a pool one
//! frame at a time; only the batch boundaries differ, and a pool works
//! unchanged behind a socket.

use crate::protocol::{Hello, HelloAck, RejectReason, NO_SEQ, PINNED_EPOCH, PROTOCOL_VERSION};
use crate::session::Handler;
use crossbeam_channel::Sender;
use parking_lot::Mutex;
use saad_core::batch::SynopsisBatch;
use saad_core::codec::{decode_batch_into, CheckedPayload};
use saad_core::intern::SignatureInterner;
use saad_core::synopsis::SynopsisHead;
use saad_core::transport::{
    check_frame, AdmitDecision, FrameReceiver, LinkStats, LossLedger, LossReport,
};
use saad_core::HostId;
use saad_sim::SimTime;
use std::ops::Range;
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
    /// Batches sent to the analyzer input, one per ring drain that
    /// admitted rows or revealed a gap; 0 on a leaf, which forwards
    /// frames instead.
    pub batches: u64,
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
pub(crate) trait AdmittedSink: Send + Sync {
    /// One fresh admitted frame for `host`: its payload as the parser
    /// checked it, the loss this frame newly revealed on the agent link,
    /// and the host's global stream position just past the frame's last
    /// synopsis (i.e. the frame's `cumulative` + its synopsis count).
    fn on_fresh(
        &self,
        host: HostId,
        synopses: &CheckedPayload<'_>,
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
    batches: AtomicU64,
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
        /// a report goes there, ahead of its frame's rows, instead of
        /// riding on them, and a batch without rows is not sent.
        side_losses: Option<Sender<LossReport>>,
    },
    Forward(Arc<dyn AdmittedSink>),
}

impl SynopsisOut {
    /// The in-band batch feed: each gap on the batch that revealed it.
    pub(crate) fn batches(tx: Sender<SynopsisBatch>, interner: Arc<SignatureInterner>) -> Self {
        SynopsisOut::Soa {
            tx,
            interner,
            side_losses: None,
        }
    }
}

/// Who numbers the frames a collector admits, and so where its sequence
/// windows and its loss accounts live.
pub(crate) enum Admission {
    /// Agents: a host's frames are numbered across every connection its
    /// agent makes, so one receiver shared by all connections holds each
    /// host's window and account, primed by the resume handshake.
    Shared(FrameReceiver),
    /// The root: a leaf numbers its digests per uplink, so each connection
    /// keeps its own windows ([`IngestLink`]'s `window`), and one ledger
    /// sums delivery over every uplink in the agents' global stream
    /// coordinates; beside it, the frames rejected as corrupt. No resume:
    /// each uplink is a fresh framing context.
    PerUplink(LossLedger, u64),
}

impl Admission {
    /// Sequence one checked frame — `(host, seq, cumulative)` from its
    /// header, `count` synopses — that arrived on the connection whose own
    /// windows are `window`.
    fn admit(
        &mut self,
        window: &mut FrameReceiver,
        (host, seq, cumulative): (HostId, u64, u64),
        count: u64,
    ) -> AdmitDecision {
        let ledger = match self {
            Admission::Shared(rx) => return rx.admit_meta(host, seq, cumulative, count),
            Admission::PerUplink(ledger, _) => ledger,
        };
        // The window's own loss arithmetic is per uplink and not read: the
        // ledger's, over every uplink, is the one that counts.
        match window.admit_meta(host, seq, cumulative, count) {
            AdmitDecision::Fresh { .. } => AdmitDecision::Fresh {
                newly_lost: ledger.fresh(host, cumulative, count),
            },
            AdmitDecision::Duplicate => {
                ledger.duplicate(host);
                AdmitDecision::Duplicate
            }
        }
    }

    fn record_corrupted(&mut self) {
        match self {
            Admission::Shared(rx) => rx.record_corrupted(),
            Admission::PerUplink(_, corrupted) => *corrupted += 1,
        }
    }

    fn link_stats(&self, host: HostId) -> LinkStats {
        match self {
            Admission::Shared(rx) => rx.stats(host),
            Admission::PerUplink(ledger, _) => ledger.stats(host),
        }
    }

    /// Corrupted frames, duplicate frames and lost synopses, all hosts.
    fn totals(&self) -> (u64, u64, u64) {
        let dups = |(_, s): (HostId, LinkStats)| s.duplicate_frames;
        match self {
            Admission::Shared(rx) => {
                let duplicates = rx.all_stats().map(dups).sum();
                (rx.corrupted_frames(), duplicates, rx.total_lost())
            }
            Admission::PerUplink(ledger, corrupted) => {
                let duplicates = ledger.all_stats().map(dups).sum();
                (*corrupted, duplicates, ledger.total_lost())
            }
        }
    }
}

/// The shared receive core of one collector. See the [module docs](self).
pub(crate) struct Ingest {
    admission: Mutex<Admission>,
    out: SynopsisOut,
    counters: Counters,
    /// The one hello version accepted: [`PROTOCOL_VERSION`], or in tests
    /// an older collector's.
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

const SERIES: [Series; 11] = [
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
    ("batches_total", "Batches sent to the analyzer input", |s| {
        s.batches
    }),
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
    /// A core sequencing by `admission`, accepting [`PROTOCOL_VERSION`]
    /// and — when `epoch` is given — refusing hellos routed by an older
    /// ring epoch.
    pub(crate) fn new(
        admission: Admission,
        out: SynopsisOut,
        epoch: Option<Arc<AtomicU64>>,
    ) -> Arc<Ingest> {
        Arc::new(Ingest {
            admission: Mutex::new(admission),
            out,
            counters: Counters::default(),
            version: PROTOCOL_VERSION,
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
            staged_frames: 0,
            marks: Vec::new(),
            window: FrameReceiver::new(),
        }
    }

    /// Snapshot of collector-wide counters (takes the admission lock
    /// briefly for link totals).
    pub(crate) fn stats(&self) -> CollectorStats {
        let c = &self.counters;
        let (corrupted_frames, duplicate_frames, lost_synopses) = self.admission.lock().totals();
        CollectorStats {
            connections_accepted: c.connections_accepted.load(Ordering::Relaxed),
            connections_active: c.connections_active.load(Ordering::Relaxed),
            handshakes_rejected: c.handshakes_rejected.load(Ordering::Relaxed),
            stale_epoch_rejects: c.stale_epoch_rejects.load(Ordering::Relaxed),
            frames: c.frames.load(Ordering::Relaxed),
            synopses: c.synopses.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            corrupted_frames,
            duplicate_frames,
            lost_synopses,
            watermark: SimTime::from_micros(c.watermark_micros.load(Ordering::Relaxed)),
        }
    }

    /// Link statistics for one host (zeroes if never heard from): at the
    /// root, over every uplink that carried it.
    pub(crate) fn link_stats(&self, host: HostId) -> LinkStats {
        self.admission.lock().link_stats(host)
    }

    /// Expose [`Ingest::stats`] in `registry` as the `saad_collector_*`
    /// family under `labels`, evaluated at scrape time. The registry
    /// typically outlives the collector and the core owns the
    /// analyzer-side senders: a strong capture would keep the batch channel
    /// open after shutdown and deadlock downstream joins, so the callbacks
    /// hold a `Weak` and scrape as zero afterwards.
    pub(crate) fn register_metrics(
        self: &Arc<Ingest>,
        registry: &saad_obs::Registry,
        labels: &[(&str, &str)],
    ) {
        for (suffix, help, read) in SERIES {
            let weak = Arc::downgrade(self);
            let value = move || weak.upgrade().map_or(0, |ingest| read(&ingest.stats()));
            let name = format!("saad_collector_{suffix}");
            register_series(registry, &name, help, labels, value);
        }
    }

    /// Take the link state out for a successor collector.
    pub(crate) fn into_state(self: Arc<Ingest>) -> CollectorState {
        let empty = Admission::Shared(FrameReceiver::new());
        match std::mem::replace(&mut *self.admission.lock(), empty) {
            Admission::Shared(receiver) => CollectorState { receiver },
            Admission::PerUplink(..) => CollectorState::default(),
        }
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

    /// The highest start admitted on any connection: what a gap revealed
    /// by a frame without rows is stamped with.
    fn watermark(&self) -> SimTime {
        SimTime::from_micros(self.counters.watermark_micros.load(Ordering::Relaxed))
    }

    /// A fresh frame whose highest start is `max_start` was admitted.
    fn advance_watermark(&self, max_start: SimTime) {
        let watermark = &self.counters.watermark_micros;
        watermark.fetch_max(max_start.as_micros(), Ordering::Relaxed);
    }

    /// `frames` fresh frames of `synopses` rows were handed on in
    /// `batches` batches.
    fn count_sent(&self, frames: u64, synopses: usize, batches: u64) {
        let c = &self.counters;
        c.frames.fetch_add(frames, Ordering::Relaxed);
        c.synopses.fetch_add(synopses as u64, Ordering::Relaxed);
        c.batches.fetch_add(batches, Ordering::Relaxed);
    }
}

/// Most rows a link stages before it sends them mid-drain. A 16 KiB ring
/// drain holds about a thousand, so this bounds only the drains of a ring
/// grown for one large message; it is also the widest batch whose columns
/// the batch spare list keeps.
const MAX_STAGED_ROWS: usize = 4_096;

/// One connection's [`Handler`] over the shared [`Ingest`].
pub(crate) struct IngestLink {
    ingest: Arc<Ingest>,
    /// Staging batch the in-place decoder fills with the rows of the
    /// current drain's fresh frames, and the gap the first of them
    /// revealed; sent whole, and rolled back to its length before a frame
    /// that turns out corrupt or a duplicate.
    staging: SynopsisBatch,
    /// Fresh frames staged since the last send, counted when it goes.
    staged_frames: u64,
    /// A forwarded frame's rows, each its head, its definition's index
    /// and its definition's bytes, reused from frame to frame ([`CheckedPayload::parse`]).
    marks: Vec<(SynopsisHead, usize, Range<usize>)>,
    /// This connection's own sequence windows, for an
    /// [`Admission::PerUplink`] core; empty under a shared receiver.
    window: FrameReceiver,
}

impl IngestLink {
    /// Send `batch` — the rows of `frames` fresh frames, behind the gap
    /// the first of them revealed — unless it holds neither rows nor a
    /// gap, and count the frames either way.
    fn send(&self, batch: SynopsisBatch, frames: u64) {
        let SynopsisOut::Soa { tx, .. } = &self.ingest.out else {
            unreachable!("only the batch output stages frames");
        };
        let rows = batch.len();
        let sent = rows > 0 || !batch.losses.is_empty();
        if sent {
            let _ = tx.send(batch);
        }
        // Counted once sent, so a reader that sees the count finds the
        // batch in the channel.
        self.ingest.count_sent(frames, rows, u64::from(sent));
    }

    /// Send what is staged, if a fresh frame was, sizing the next staging
    /// batch like this one.
    fn send_staged(&mut self) {
        if self.staged_frames > 0 {
            let next = SynopsisBatch::with_capacity(self.staging.len());
            let batch = std::mem::replace(&mut self.staging, next);
            let frames = std::mem::take(&mut self.staged_frames);
            self.send(batch, frames);
        }
    }
}

impl Drop for IngestLink {
    fn drop(&mut self) {
        self.send_staged();
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
        // An uplink resumes nothing: the ack carries no resume point.
        let (mut last_seq, mut delivered_cum) = (NO_SEQ, 0);
        if let Admission::Shared(rx) = &mut *ingest.admission.lock() {
            let host = hello.host;
            rx.resume(host, hello.written_cum, hello.sent_cum, hello.next_seq);
            last_seq = rx.highest_seq(host).unwrap_or(NO_SEQ);
            delivered_cum = rx.stats(host).delivered_synopses;
        }
        Ok(HelloAck {
            version: ingest.version,
            accept: true,
            reason: RejectReason::None,
            last_seq,
            delivered_cum,
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

    /// Check, parse, sequence and stage (or forward) one frame. A body
    /// that is corrupt was still framed correctly by its length prefix: it
    /// is counted and later messages remain readable.
    fn on_message(&mut self, body: &[u8]) {
        let ingest = &*self.ingest;
        let Ok((header, payload)) = check_frame(body) else {
            return ingest.admission.lock().record_corrupted();
        };
        let meta = (header.host, header.seq, header.cumulative);
        let (interner, side_losses) = match &ingest.out {
            SynopsisOut::Soa {
                interner,
                side_losses,
                ..
            } => (interner, side_losses),
            SynopsisOut::Forward(sink) => {
                // A leaf forwards the bytes as they came: parsed, never
                // decoded.
                let Ok(checked) = CheckedPayload::parse(payload, &mut self.marks) else {
                    return ingest.admission.lock().record_corrupted();
                };
                let n = checked.starts().len() as u64;
                let decision = ingest.admission.lock().admit(&mut self.window, meta, n);
                if let AdmitDecision::Fresh { newly_lost } = decision {
                    sink.on_fresh(header.host, &checked, newly_lost, header.cumulative + n);
                    let max_start = checked.starts().max().unwrap_or(SimTime::ZERO);
                    ingest.advance_watermark(max_start);
                    ingest.count_sent(1, n as usize, 0);
                }
                return;
            }
        };
        // Decoded straight from the ring onto the staged rows; a failed
        // decode rolls the batch back itself.
        let before = self.staging.len();
        let Ok(n) = decode_batch_into(payload, &mut self.staging, interner) else {
            return ingest.admission.lock().record_corrupted();
        };
        // The guard is a temporary: no lock is held across the sends below.
        let decision = (ingest.admission.lock()).admit(&mut self.window, meta, n as u64);
        let AdmitDecision::Fresh { newly_lost } = decision else {
            return self.staging.truncate(before);
        };
        if before > 0 && (newly_lost > 0 || self.staging.len() > MAX_STAGED_ROWS) {
            // The frames staged before this one go first: a gap is
            // stamped with, and charged ahead of, this frame's rows alone,
            // and a batch stays within the cap.
            let mut rows = SynopsisBatch::with_capacity(n);
            for i in before..self.staging.len() {
                rows.push_from(&self.staging, i);
            }
            self.staging.truncate(before);
            let staged = std::mem::replace(&mut self.staging, rows);
            let frames = std::mem::take(&mut self.staged_frames);
            self.send(staged, frames);
        }
        let staging = &mut self.staging;
        staging.reveal_gap(header.host, newly_lost, ingest.watermark());
        if let Some(loss_tx) = side_losses {
            for report in staging.losses.drain(..) {
                let _ = loss_tx.send(report);
            }
        }
        // Watermarks are a running max, so the last one is the highest
        // start staged; every earlier frame's already counts.
        if n > 0 {
            ingest.advance_watermark(staging.watermarks[staging.len() - 1]);
        }
        self.staged_frames += 1;
        if self.staging.len() >= MAX_STAGED_ROWS {
            self.send_staged();
        }
    }

    /// The drain is over: hand the analyzer what it admitted.
    fn on_drained(&mut self) {
        self.send_staged();
    }

    /// A nonsense length prefix: the stream is unrecoverable.
    fn on_unframeable(&mut self) {
        self.ingest.admission.lock().record_corrupted();
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
    use saad_core::feature::InternedFeature;
    use saad_core::synopsis::TaskSynopsis;
    use saad_core::testkit::{decode_checked, reference_run};
    use saad_core::transport::FrameSender;
    use saad_core::{LogPointId, StageId, TaskUid};
    use saad_sim::SimDuration;

    /// One [`AdmittedSink::on_fresh`] call: host, synopses (decoded by the
    /// owned reference), newly lost, stream position past the frame.
    pub(crate) type Forwarded = (HostId, Vec<TaskSynopsis>, u64, u64);

    impl AdmittedSink for Sender<Forwarded> {
        fn on_fresh(&self, host: HostId, checked: &CheckedPayload<'_>, lost: u64, pos_end: u64) {
            let _ = self.send((host, decode_checked(checked), lost, pos_end));
        }
    }

    /// A collector core with every output observable: the SoA batches,
    /// with the gap reports riding on them, or what a leaf forwards.
    pub(crate) struct Rig {
        pub(crate) ingest: Arc<Ingest>,
        pub(crate) soa: Receiver<SynopsisBatch>,
        pub(crate) forwarded: Receiver<Forwarded>,
    }

    /// A fresh core enforcing `epoch`, feeding the SoA output when `soa`
    /// and a leaf's forwarding sink otherwise.
    pub(crate) fn rig(epoch: Option<u64>, soa: bool) -> Rig {
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
            ingest: Ingest::new(Admission::Shared(FrameReceiver::new()), out, epoch),
            soa: soa_rx,
            forwarded,
        }
    }

    impl Ingest {
        /// This core as a collector of protocol `version`: the older
        /// collector the handshake tables hold a peer against.
        pub(crate) fn speaking(mut self: Arc<Ingest>, version: u16) -> Arc<Ingest> {
            Arc::get_mut(&mut self).expect("an unshared core").version = version;
            self
        }
    }

    /// The gap reports riding on `batches`, in stream order.
    pub(crate) fn losses(batches: &[SynopsisBatch]) -> Vec<LossReport> {
        batches
            .iter()
            .flat_map(|b| b.losses.iter().copied())
            .collect()
    }

    /// What a pool reads from a run of batches, wherever they were cut:
    /// the rows in order, each with the running max of the watermark
    /// column up to it (what a router restamps it with), and each gap
    /// report with the number of rows charged ahead of it.
    #[derive(Debug, PartialEq)]
    pub(crate) struct RowStream {
        pub(crate) rows: Vec<(InternedFeature, SimTime)>,
        pub(crate) losses: Vec<(usize, LossReport)>,
    }

    pub(crate) fn row_stream(batches: &[SynopsisBatch]) -> RowStream {
        let (mut rows, mut losses) = (Vec::new(), Vec::new());
        let mut watermark = SimTime::ZERO;
        for batch in batches {
            losses.extend(batch.losses.iter().map(|&report| (rows.len(), report)));
            for i in 0..batch.len() {
                watermark = watermark.max(batch.watermarks[i]);
                rows.push((batch.feature(i), watermark));
            }
        }
        RowStream { rows, losses }
    }

    /// The shape of every batch a link sends: within the row cap, from
    /// one connection (`link_of` names a row's), and with rows unless it
    /// carries a gap report.
    pub(crate) fn assert_batch_shape(
        batches: &[SynopsisBatch],
        link_of: impl Fn(&InternedFeature) -> usize,
    ) {
        for (i, batch) in batches.iter().enumerate() {
            assert!(
                batch.len() <= MAX_STAGED_ROWS,
                "batch {i}: {} rows",
                batch.len()
            );
            assert!(
                !batch.is_empty() || !batch.losses.is_empty(),
                "batch {i} is empty"
            );
            let mut links = (0..batch.len()).map(|row| link_of(&batch.feature(row)));
            let first = links.next();
            assert!(links.all(|l| Some(l) == first), "batch {i} mixes links");
        }
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
    /// per window and stage) fed `batches` through the one reference —
    /// each one's gap reports, then its rows — must report the window
    /// `owed` falls in — one task seen per stage, the host's two lost — at
    /// completeness 1/3. Stamped at time zero the report was judged stale
    /// and every event read 1.
    pub(crate) fn assert_gap_is_charged(
        interner: &Arc<SignatureInterner>,
        batches: &[SynopsisBatch],
        owed: LossReport,
    ) {
        assert_eq!(losses(batches), [owed]);
        let config = DetectorConfig::default();
        let detector = AnomalyDetector::collecting(interner.clone(), config).unwrap();
        let (mut events, _) = reference_run(detector, batches);
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
        assert_batch_shape, assert_gap_is_charged, batches, frame_bodies,
        goodbye_after_a_lost_frame, losses, rig, row_stream, synopsis,
    };
    use super::*;
    use proptest::prelude::*;
    use saad_core::synopsis::TaskSynopsis;
    use saad_core::testkit::{feed_frame_soa, parse_frame, soa, FrameOutcome};
    use saad_core::transport::FRAME_HEADER_LEN;

    proptest! {
        /// The in-place SoA path (`check_frame` → `decode_batch_into` →
        /// `admit_meta` → a batch per drain) against the whole-frame
        /// reference (`parse_frame` → `admit` → `feed_frame_soa`, a batch
        /// per frame), with drains ending after any frame: the same rows
        /// in the same order, the same gap reports at the same row
        /// positions with the same stamps, same counters, same link
        /// accounts, and a batch sent per drain that admitted something.
        #[test]
        fn in_place_soa_path_equals_whole_frame_reference(
            sizes in collection::vec(0usize..7, 1..14),
            starts in collection::vec(0u64..90_000, 100..101),
            skip in 0u32..4096,
            dup in 0u32..4096,
            corrupt in 0usize..20,
            drains in 0u32..(1 << 20),
        ) {
            let hosts = [10u16, 11, 12];
            let batches = batches(&hosts, &sizes, &starts);
            let mut bodies = frame_bodies(&hosts, &batches, skip, dup);
            if let Some(body) = bodies.get_mut(corrupt) {
                let last = body.len() - 1;
                body[last] ^= 0x20;
            }

            let under_test = rig(None, true);
            let mut link = under_test.ingest.link();
            for (i, body) in bodies.iter().enumerate() {
                link.on_message(body);
                if drains & (1 << (i % 20)) != 0 {
                    link.on_drained();
                }
            }
            drop(link); // sends what the last drain staged

            let reference = rig(None, true);
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
            prop_assert_eq!(row_stream(&got), row_stream(&want));
            prop_assert!(got.len() <= want.len());
            assert_batch_shape(&got, |_| 0);
            let stats = under_test.ingest.stats();
            prop_assert_eq!(
                (stats.frames, stats.synopses, stats.watermark),
                (frames, synopses, watermark)
            );
            prop_assert_eq!(stats.batches, got.len() as u64);
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
            drains in 0u32..(1 << 20),
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
            let legacy = Ingest::new(Admission::Shared(FrameReceiver::new()), out, None);
            let in_band = rig(None, true);
            for ingest in [&legacy, &in_band.ingest] {
                let mut link = ingest.link();
                for (i, body) in bodies.iter().enumerate() {
                    link.on_message(body);
                    if drains & (1 << (i % 20)) != 0 {
                        link.on_drained();
                    }
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
    /// Ending the drain that staged the data frame before it, it sends
    /// the data first and its report alone, on a batch without rows.
    #[test]
    fn a_gap_revealed_by_an_empty_frame_is_charged_to_the_last_window() {
        let (bodies, owed) = goodbye_after_a_lost_frame();
        let (rig, interner) = soa_rig();
        let mut link = rig.ingest.link();
        for body in &bodies {
            link.on_message(body);
        }
        link.on_drained();
        assert_eq!(rig.ingest.stats().watermark, owed.at);
        let batches: Vec<SynopsisBatch> = rig.soa.try_iter().collect();
        let shape: Vec<_> = batches
            .iter()
            .map(|b| (b.len(), b.losses.clone()))
            .collect();
        assert_eq!(shape, [(3, vec![]), (0, vec![owed])]);
        assert_gap_is_charged(&interner, &batches, owed);
    }

    /// A rig's SoA output and its interner.
    fn soa_rig() -> (testkit::Rig, Arc<SignatureInterner>) {
        let rig = rig(None, true);
        let SynopsisOut::Soa { interner, .. } = &rig.ingest.out else {
            unreachable!("rig(.., true) is the SoA output");
        };
        let interner = interner.clone();
        (rig, interner)
    }

    /// Host 10's frames of `sizes` synopses, starts counting up by 10 ms.
    fn host_frames(sizes: &[usize]) -> Vec<Vec<TaskSynopsis>> {
        let mut uid = 0;
        let mut frame = |n: usize| {
            (0..n)
                .map(|_| {
                    uid += 1;
                    synopsis(10, uid, 10 * uid, &[1, 2])
                })
                .collect()
        };
        sizes.iter().map(|&n| frame(n)).collect()
    }

    /// One drain of four frames whose third never arrives: the fourth
    /// reveals the gap, so the first two go out on their own, counted as
    /// they go, before the fourth is staged; its report rides ahead of
    /// its rows alone, stamped with its first start.
    #[test]
    fn a_gap_mid_drain_sends_the_frames_staged_before_it() {
        let frames = host_frames(&[2, 3, 1, 4]);
        let bodies = frame_bodies(&[10], &frames, 0b0100, 0);
        let (rig, interner) = soa_rig();
        let mut link = rig.ingest.link();
        for body in &bodies {
            link.on_message(body);
        }
        // Before the drain ends: the staged frames went at the gap.
        let sent: Vec<SynopsisBatch> = rig.soa.try_iter().collect();
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].len(), 5);
        assert!(sent[0].losses.is_empty());
        let stats = rig.ingest.stats();
        assert_eq!((stats.frames, stats.synopses, stats.batches), (2, 5, 1));

        link.on_drained();
        let last: Vec<SynopsisBatch> = rig.soa.try_iter().collect();
        assert_eq!(last.len(), 1);
        let owed = LossReport {
            host: HostId(10),
            at: frames[3][0].start,
            count: 1,
        };
        let mut want = soa(&frames[3], &interner);
        want.losses.push(owed);
        assert_eq!(format!("{:?}", last[0]), format!("{want:?}"));
        let stats = rig.ingest.stats();
        assert_eq!((stats.frames, stats.synopses, stats.batches), (3, 9, 2));
    }

    /// Mid-drain, a duplicate, a frame whose checksum fails and a
    /// checksum-valid frame whose second synopsis does not decode each
    /// leave the rows staged before them as they were: the drain sends
    /// the three good frames' rows, in one batch.
    #[test]
    fn a_duplicate_or_corrupt_frame_mid_drain_keeps_the_staged_rows() {
        use saad_core::transport::crc32;
        let frames = host_frames(&[2, 3, 2, 1]);
        // Frame 1 arrives twice.
        let mut bodies = frame_bodies(&[10], &frames, 0, 0b0010);
        let mut crc_bad = bodies[1].clone();
        let last = crc_bad.len() - 1;
        crc_bad[last] ^= 0x20;
        // A visit count of 2^32 in frame 2's last synopsis: the first
        // decodes onto the staging, the second fails it.
        let mut wide_frames = frames.clone();
        wide_frames[2][1].log_points[1].1 = u32::MAX;
        let mut wide_body = frame_bodies(&[10], &wide_frames, 0, 0)[2].clone();
        let max = [0xff, 0xff, 0xff, 0xff, 0x0f];
        let at = (wide_body.windows(5).position(|w| w == max)).expect("the count's bytes");
        wide_body[at..at + 5].copy_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x10]);
        let crc = crc32(&[
            &wide_body[..FRAME_HEADER_LEN - 4],
            &wide_body[FRAME_HEADER_LEN..],
        ]);
        wide_body[FRAME_HEADER_LEN - 4..FRAME_HEADER_LEN].copy_from_slice(&crc.to_be_bytes());
        // 0, 1, 1 again, a corrupt copy of 1, frame 2 undecodable, then
        // frame 2 and 3 as sent (the undecodable copy took no sequence).
        bodies.insert(3, crc_bad);
        bodies.insert(4, wide_body);

        let (rig, interner) = soa_rig();
        let mut link = rig.ingest.link();
        for body in &bodies {
            link.on_message(body);
        }
        link.on_drained();
        let sent: Vec<SynopsisBatch> = rig.soa.try_iter().collect();
        assert_eq!(sent.len(), 1);
        let want = soa(&frames.concat(), &interner);
        assert_eq!(format!("{:?}", sent[0]), format!("{want:?}"));
        let stats = rig.ingest.stats();
        assert_eq!((stats.frames, stats.synopses, stats.batches), (4, 8, 1));
        assert_eq!((stats.duplicate_frames, stats.corrupted_frames), (1, 2));
    }

    /// A drain longer than the row cap is sent in batches within it, the
    /// rows unchanged, without waiting for the drain to end.
    #[test]
    fn a_drain_past_the_row_cap_is_sent_within_it() {
        let frames = host_frames(&[48; 200]);
        let bodies = frame_bodies(&[10], &frames, 0, 0);
        let (rig, interner) = soa_rig();
        let mut link = rig.ingest.link();
        for body in &bodies {
            link.on_message(body);
        }
        let early = rig.soa.len();
        link.on_drained();
        let sent: Vec<SynopsisBatch> = rig.soa.try_iter().collect();
        assert_eq!(early, 2);
        assert_eq!(sent.len(), 3);
        assert_batch_shape(&sent, |_| 0);
        let whole = soa(&frames.concat(), &interner);
        assert_eq!(row_stream(&sent), row_stream(&[whole]));
    }

    /// Two connections' drains, alternating on one core: one batch per
    /// drain, each holding one connection's rows, and each connection's
    /// rows in the order it sent them.
    #[test]
    fn a_batch_never_mixes_connections() {
        let sizes = [3, 1, 4, 1, 5, 9, 2, 6];
        let (rig, _) = soa_rig();
        let mut links = [rig.ingest.link(), rig.ingest.link()];
        let streams = [10u16, 11].map(|host| {
            let frames = batches(&[host], &sizes, &[7, 3, 11]);
            frame_bodies(&[host], &frames, 0, 0)
        });
        for round in streams[0].chunks(3).zip(streams[1].chunks(2)) {
            for (link, bodies) in links.iter_mut().zip([round.0, round.1]) {
                bodies.iter().for_each(|body| link.on_message(body));
                link.on_drained();
            }
        }
        let sent: Vec<SynopsisBatch> = rig.soa.try_iter().collect();
        assert_eq!(sent.len(), 6, "three rounds of two drains");
        assert_batch_shape(&sent, |row| usize::from(row.host.0));
        drop(links);
        assert!(rig.soa.is_empty(), "every drain sent what it staged");
        let rows = row_stream(&sent).rows;
        for host in [10, 11] {
            let ours = rows.iter().filter(|(row, _)| row.host == HostId(host));
            let uids: Vec<u64> = ours.map(|(row, _)| row.uid.0).collect();
            assert!(
                uids.windows(2).all(|w| w[0] < w[1]),
                "host {host}: {uids:?}"
            );
        }
    }

    /// Frames whose checksum is right and whose synopsis has a field
    /// widened past its type: host 85 536 (truncated to 16 bits, host
    /// 20 000), a uid delta whose tenth varint byte sets bits past 63
    /// (read as the delta of `u64::MAX`), a visit count of 2^32 (truncated
    /// to 32 bits, 0). Each would pass for a real frame. It is counted
    /// corrupted on both outputs, nothing of it is forwarded, and the
    /// stream stays readable. The payload is one row: tag, host (three
    /// bytes), stage, n, two (point, count) pairs, then the uid delta.
    #[test]
    fn a_crc_valid_frame_with_a_wide_id_is_counted_corrupted() {
        use saad_core::transport::crc32;
        use saad_core::TaskUid;
        let host = 20_000; // three varint bytes, the last one `1`
        let good = testkit::synopsis(host, 1, 100, &[1, 2]);
        let max_uid = TaskSynopsis {
            uid: TaskUid(1 << 63), // a delta that zigzags to u64::MAX:
            ..good.clone()         // nine 0xff bytes, then 0x01
        };
        let mut max_count = good.clone();
        max_count.log_points[1].1 = u32::MAX; // the second pair's count
        type Widen = fn(&mut [u8]);
        let widened: [(TaskSynopsis, Widen); 3] = [
            (good.clone(), |p| {
                assert_eq!(p[3], 1);
                p[3] = 5; // host 20 000 + (4 << 14) = 85 536
            }),
            (max_uid, |p| {
                assert_eq!(p[10..20], [[0xff; 9].as_slice(), &[1]].concat());
                p[19] = 0x7f;
            }),
            (max_count, |p| {
                assert_eq!(p[9..14], [0xff, 0xff, 0xff, 0xff, 0x0f]);
                p[9..14].copy_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x10]);
            }),
        ];
        for (wide, widen) in widened {
            let mut bodies = frame_bodies(&[host], &[vec![wide], vec![good.clone()]], 0, 0);
            let bad = &mut bodies[0];
            widen(&mut bad[FRAME_HEADER_LEN..]);
            let crc = crc32(&[&bad[..FRAME_HEADER_LEN - 4], &bad[FRAME_HEADER_LEN..]]);
            bad[FRAME_HEADER_LEN - 4..FRAME_HEADER_LEN].copy_from_slice(&crc.to_be_bytes());
            for soa in [true, false] {
                let rig = rig(None, soa);
                let mut link = rig.ingest.link();
                for body in &bodies {
                    link.on_message(body);
                }
                link.on_drained();
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
    }

    #[test]
    fn one_family_with_every_total() {
        let registry = saad_obs::Registry::new();
        let rig = rig(None, true);
        rig.ingest.register_metrics(&registry, &[]);
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
