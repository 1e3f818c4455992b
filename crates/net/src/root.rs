//! The root of the federation: merges many leaf uplink streams into the
//! one exactly-accounted synopsis stream the analyzer pool consumes.
//!
//! Every digest frame a leaf forwards is positioned in the originating
//! agent's **global** stream coordinates (see [`crate::leaf`]), which is
//! what makes the merge law here both simple and exact:
//!
//! - per host, **delivered** synopses is the *sum* over all connections
//!   that ever carried the host,
//! - per host, **expected** synopses is the *max* frame-end position
//!   seen on any connection,
//! - loss is their difference — reported incrementally and exactly once
//!   via [`DigestMerge`], no matter how the host's digests were split
//!   across a failing, re-homing topology.
//!
//! Frame sequence numbers, by contrast, are a per-uplink framing detail
//! (each leaf numbers its own digests), so duplicate suppression uses a
//! **per-connection** [`FrameReceiver`] rather than a shared one; the
//! cross-connection invariants live entirely in the global coordinates.
//!
//! Admitted synopses flow to the analyzer input through the same
//! [`feed_frame_soa`] contract the single-collector path uses —
//! [`SynopsisBatch`]es interned against the consuming pool's interner,
//! each carrying the gap it revealed — so the whole detection stack runs
//! unchanged behind a federation.
//!
//! Handshake, framing and byte-moving are the agent-facing collector's —
//! the same readiness-driven `server` driving a
//! [`Session`](crate::Session) per uplink; only the [`Handler`] (no
//! resume, a per-connection receiver, the merge) is the root's own.

use crate::ingest::register_series;
use crate::protocol::{Hello, HelloAck, RejectReason, NO_SEQ, PROTOCOL_VERSION};
use crate::reactor_collector::ReactorCollectorConfig;
use crate::server::Server;
use crate::session::Handler;
use crossbeam_channel::Sender;
use parking_lot::Mutex;
use saad_core::batch::SynopsisBatch;
use saad_core::intern::SignatureInterner;
use saad_core::pipeline::feed_frame_soa;
use saad_core::transport::{parse_frame, DigestMerge, FrameOutcome, FrameReceiver, LinkStats};
use saad_core::HostId;
use saad_sim::SimTime;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::Arc;

/// Tuning for a [`RootCollector`].
#[derive(Debug, Clone)]
pub struct RootConfig {
    /// Protocol version this root accepts (leaf uplinks are always
    /// current-version peers).
    pub version: u16,
}

impl Default for RootConfig {
    fn default() -> RootConfig {
        RootConfig {
            version: PROTOCOL_VERSION,
        }
    }
}

/// Snapshot of root-wide counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RootStats {
    /// Leaf uplink connections accepted since start.
    pub uplinks_accepted: u64,
    /// Uplink connections currently streaming.
    pub uplinks_active: u64,
    /// Handshakes refused.
    pub handshakes_rejected: u64,
    /// Fresh digest frames admitted across all uplinks.
    pub digests: u64,
    /// Synopses forwarded to the analyzer input.
    pub synopses: u64,
    /// Digest frames rejected as corrupt.
    pub corrupted_digests: u64,
    /// Duplicate digest frames discarded.
    pub duplicate_digests: u64,
    /// Synopses known lost across all hosts — agent links, leaf
    /// crashes, and uplink failures combined (exact at quiescence).
    pub lost_synopses: u64,
    /// Ingest watermark across all uplinks.
    pub watermark: SimTime,
}

pub(crate) struct Shared {
    /// The cross-uplink merge and the counters that move with it
    /// (`lost_synopses` is read off the merge, not kept).
    state: Mutex<(DigestMerge, RootStats)>,
    batch_tx: Sender<SynopsisBatch>,
    interner: Arc<SignatureInterner>,
    version: u16,
}

impl Shared {
    pub(crate) fn stats(&self) -> RootStats {
        let state = self.state.lock();
        RootStats {
            lost_synopses: state.0.total_lost(),
            ..state.1
        }
    }

    fn count(&self, update: impl FnOnce(&mut RootStats)) {
        update(&mut self.state.lock().1);
    }
}

/// A running root collector. Call [`RootCollector::shutdown`] for a
/// clean stop.
pub struct RootCollector {
    shared: Arc<Shared>,
    server: Server,
}

impl RootCollector {
    /// Bind on `addr` (port 0 allowed) and start accepting leaf uplinks;
    /// admitted synopses are interned into the consuming pool's `interner`
    /// and sent on `batch_tx`, each batch with the gap it revealed.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        batch_tx: Sender<SynopsisBatch>,
        interner: Arc<SignatureInterner>,
        config: RootConfig,
    ) -> io::Result<RootCollector> {
        let shared = Arc::new(Shared {
            state: Mutex::default(),
            batch_tx,
            interner,
            version: config.version,
        });
        // One loop, as a constant. Only `DigestMerge::on_fresh` runs under
        // the one merge lock; the CRC, decode, interning and channel send
        // around it ran one thread per uplink before and now share this
        // thread. What that costs a root of many leaves is not measured:
        // `--bench federation` did not resolve it (EXPERIMENTS.md, "One
        // collector").
        let driver = ReactorCollectorConfig {
            loops: 1,
            ..ReactorCollectorConfig::default()
        };
        let (listener, opener) = (TcpListener::bind(addr)?, shared.clone());
        let open = move || Uplink::open(&opener);
        let server = Server::start(listener, "saad-root", &driver, open)?;
        Ok(RootCollector { shared, server })
    }

    /// The bound address — the actual port when bound with port 0.
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Snapshot of root-wide counters.
    pub fn stats(&self) -> RootStats {
        self.shared.stats()
    }

    /// Merged cross-uplink accounting for one host: delivered summed over
    /// every connection that carried it, expectation the max global
    /// position seen anywhere.
    pub fn merged_stats(&self, host: HostId) -> LinkStats {
        self.shared.state.lock().0.stats(host)
    }

    /// Expose root counters in `registry` (scrape-time callbacks, weak
    /// captures — same discipline as the single collector), and the loop's
    /// readiness health as `saad_reactor_*{tier="root", loop="0"}`.
    pub fn register_metrics(&self, registry: &saad_obs::Registry) {
        self.server.register_metrics(registry, &[("tier", "root")]);
        // (name, help, value in a `RootStats` snapshot)
        type Series = (&'static str, &'static str, fn(&RootStats) -> u64);
        let series: [Series; 7] = [
            (
                "saad_root_uplinks_accepted_total",
                "Leaf uplink connections accepted since root start",
                |s| s.uplinks_accepted,
            ),
            (
                "saad_root_digests_total",
                "Fresh digest frames admitted across all uplinks",
                |s| s.digests,
            ),
            (
                "saad_root_synopses_total",
                "Synopses forwarded to the analyzer input",
                |s| s.synopses,
            ),
            (
                "saad_root_duplicate_digests_total",
                "Duplicate digest frames discarded",
                |s| s.duplicate_digests,
            ),
            (
                "saad_root_lost_synopses_total",
                "Synopses known lost across the whole federation (exact at quiescence)",
                |s| s.lost_synopses,
            ),
            (
                "saad_root_uplinks_active",
                "Leaf uplink connections currently streaming",
                |s| s.uplinks_active,
            ),
            (
                "saad_root_watermark_us",
                "Highest synopsis start time admitted on any uplink, in stream microseconds",
                |s| s.watermark.as_micros(),
            ),
        ];
        for (name, help, read) in series {
            let shared = Arc::downgrade(&self.shared);
            let value = move || shared.upgrade().map_or(0, |s| read(&s.stats()));
            register_series(registry, name, help, &[], value);
        }
    }

    /// Stop accepting, close every uplink, and join the loop thread.
    /// Returns the final counters.
    pub fn shutdown(self) -> RootStats {
        self.server.shutdown();
        self.shared.stats()
    }
}

/// One leaf uplink's [`Handler`].
pub(crate) struct Uplink {
    shared: Arc<Shared>,
    /// Per-connection receiver: duplicate suppression within this
    /// uplink's own frame numbering. Its loss arithmetic is ignored — the
    /// merge is authoritative across connections.
    local_rx: FrameReceiver,
}

impl Drop for Uplink {
    fn drop(&mut self) {
        self.shared.count(|s| s.uplinks_active -= 1);
    }
}

impl Uplink {
    /// Count one accepted uplink and hand back its handler; dropping the
    /// handler counts the uplink closed.
    pub(crate) fn open(shared: &Arc<Shared>) -> Uplink {
        shared.count(|s| {
            s.uplinks_accepted += 1;
            s.uplinks_active += 1;
        });
        Uplink {
            shared: shared.clone(),
            local_rx: FrameReceiver::new(),
        }
    }

    /// Each uplink connection is a fresh framing context: the leaf's
    /// digest sequence numbers are connection-local, and the exact
    /// cross-connection state lives in the global-coordinate merge — so
    /// an ack never carries a resume position or an epoch.
    fn ack(&self, reason: RejectReason) -> HelloAck {
        HelloAck {
            version: self.shared.version,
            accept: reason == RejectReason::None,
            reason,
            last_seq: NO_SEQ,
            delivered_cum: 0,
            epoch: 0,
        }
    }
}

impl Handler for Uplink {
    fn on_hello(&mut self, hello: &Hello) -> Result<HelloAck, RejectReason> {
        if hello.version != self.shared.version {
            return Err(RejectReason::VersionMismatch);
        }
        Ok(self.ack(RejectReason::None))
    }

    fn on_reject(&mut self, reason: RejectReason) -> HelloAck {
        self.shared.count(|s| s.handshakes_rejected += 1);
        self.ack(reason)
    }

    fn on_message(&mut self, body: &[u8]) {
        let shared = &*self.shared;
        let Ok(parsed) = parse_frame(body) else {
            return shared.count(|s| s.corrupted_digests += 1);
        };
        let starts = parsed.synopses.iter().map(|s| s.start);
        let max_start = starts.max().unwrap_or(SimTime::ZERO);
        let pos_end = parsed.cumulative + parsed.synopses.len() as u64;
        match self.local_rx.admit(parsed) {
            FrameOutcome::Fresh { host, synopses, .. } => {
                // The merge computes loss in global coordinates and
                // reports each lost synopsis exactly once across every
                // uplink that ever carried this host.
                let n = synopses.len() as u64;
                let (newly_lost, watermark) = {
                    let mut state = shared.state.lock();
                    (state.0.on_fresh(host, n, pos_end), state.1.watermark)
                };
                let fresh = FrameOutcome::Fresh {
                    host,
                    synopses,
                    newly_lost,
                };
                feed_frame_soa(fresh, &shared.batch_tx, &shared.interner, watermark);
                // Counted once forwarded, so a reader that sees the count
                // finds the batch in the channel.
                shared.count(|s| {
                    s.digests += 1;
                    s.synopses += n;
                    s.watermark = s.watermark.max(max_start);
                });
            }
            FrameOutcome::Duplicate { host, .. } => {
                let mut state = shared.state.lock();
                state.0.on_duplicate(host);
                state.1.duplicate_digests += 1;
            }
        }
    }

    fn on_unframeable(&mut self) {
        self.shared.count(|s| s.corrupted_digests += 1);
    }
}

#[cfg(test)]
/// A root's merge state with both outputs observable, for this crate's
/// socket-free receive-path tests.
pub(crate) mod testkit {
    use super::*;
    use crossbeam_channel::{unbounded, Receiver};

    /// A root's shared state and its one output: the batches, with the
    /// gap reports riding on them.
    pub(crate) struct Rig {
        pub(crate) shared: Arc<Shared>,
        pub(crate) batches: Receiver<SynopsisBatch>,
    }

    pub(crate) fn rig() -> Rig {
        let (batch_tx, batches) = unbounded();
        let shared = Arc::new(Shared {
            state: Mutex::default(),
            batch_tx,
            interner: Arc::new(SignatureInterner::new()),
            version: PROTOCOL_VERSION,
        });
        Rig { shared, batches }
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::rig;
    use super::*;
    use crate::ingest::testkit::{
        assert_gap_is_charged, batches, feed_in_cuts, frame_bodies, goodbye_after_a_lost_frame,
        hello_bytes, losses, wire_of,
    };
    use crate::protocol::PINNED_EPOCH;
    use crate::session::Session;
    use saad_core::transport::LossReport;

    /// What a leaf's graceful shutdown does after losing a digest on the
    /// way up: the goodbye reveals the trailing gap. Its report is stamped
    /// at the root's watermark, so the host's last window owns up to it.
    #[test]
    fn a_goodbye_frame_charges_its_trailing_gap_to_the_last_window() {
        let (bodies, owed) = goodbye_after_a_lost_frame();
        let rig = rig();
        let mut uplink = Uplink::open(&rig.shared);
        for body in &bodies {
            uplink.on_message(body);
        }

        let stats = rig.shared.stats();
        assert_eq!(
            (stats.digests, stats.synopses, stats.lost_synopses),
            (2, 3, 2)
        );
        assert_eq!(stats.watermark, owed.at);
        let batches: Vec<SynopsisBatch> = rig.batches.try_iter().collect();
        assert_gap_is_charged(&rig.shared.interner, &batches, owed);
    }

    const HOSTS: [u16; 2] = [10, 11];

    /// Everything one uplink leaves behind at a root.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        alive: bool,
        acks: Vec<u8>,
        stats: RootStats,
        merged: Vec<LinkStats>,
        batches: Vec<String>,
        losses: Vec<LossReport>,
    }

    /// Feed `wire` to a fresh root through one uplink session in the
    /// chunks `cuts` yields.
    fn run(wire: &[u8], cuts: impl IntoIterator<Item = usize>) -> Outcome {
        let rig = rig();
        let (mut session, mut uplink) = (Session::new(64), Uplink::open(&rig.shared));
        let (alive, acks) = feed_in_cuts(&mut session, &mut uplink, wire, cuts);
        drop(uplink); // the connection closes
        let merged = |h: &u16| rig.shared.state.lock().0.stats(HostId(*h));
        let batches: Vec<SynopsisBatch> = rig.batches.try_iter().collect();
        Outcome {
            alive,
            acks,
            stats: rig.shared.stats(),
            merged: HOSTS.iter().map(merged).collect(),
            losses: losses(&batches),
            batches: batches.iter().map(|b| format!("{b:?}")).collect(),
        }
    }

    /// The blocking reader only ever handed the root whole messages; a
    /// readiness loop hands it whatever a read returned. A digest stream
    /// with a gap, a duplicate and goodbyes must leave the same root
    /// byte-at-a-time and cut at every offset as fed whole.
    #[test]
    fn any_cut_of_a_digest_stream_leaves_the_same_root() {
        // Two hosts' digests interleaved on one uplink: host 10's second
        // digest never arrives and its goodbye reveals the gap; host 11's
        // second arrives twice.
        let sizes = [3, 2, 2, 4, 0, 0];
        let starts: Vec<u64> = (0..16).map(|i| 5 * 60_000 + i * 70).collect();
        let digests = batches(&HOSTS, &sizes, &starts);
        let bodies = frame_bodies(&HOSTS, &digests, 0b000100, 0b001000);
        let wire = [hello_bytes(2, 3, PINNED_EPOCH), wire_of(&bodies)].concat();

        let whole = run(&wire, []);
        assert!(whole.alive);
        let s = whole.stats;
        assert_eq!((s.uplinks_accepted, s.uplinks_active), (1, 0));
        assert_eq!(
            (s.digests, s.duplicate_digests, s.corrupted_digests),
            (5, 1, 0)
        );
        assert_eq!((s.synopses, s.lost_synopses), (9, 2));
        assert_eq!(whole.losses.len(), 1, "{:?}", whole.losses);
        assert_eq!(
            (whole.losses[0].host, whole.losses[0].count),
            (HostId(10), 2)
        );
        assert_eq!(whole.merged[0].lost_synopses, 2);
        assert_eq!(whole.merged[1].duplicate_frames, 1);

        assert_eq!(run(&wire, std::iter::repeat(1)), whole, "byte at a time");
        for offset in 1..wire.len() {
            assert_eq!(run(&wire, [offset]), whole, "cut at {offset}");
        }
    }
}
