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
//!   by one [`LossLedger`], no matter how the host's digests were split
//!   across a failing, re-homing topology.
//!
//! Frame sequence numbers, by contrast, are a per-uplink framing detail
//! (each leaf numbers its own digests), so duplicates are weeded out by a
//! **per-connection** sequence window; the cross-connection invariants
//! live entirely in the global coordinates.
//!
//! Everything else is the agent-facing collector's, step for step: the
//! readiness-driven `server`, a [`Session`](crate::Session) per uplink,
//! and the `ingest` core's handler — one frame check, the payload decoded
//! in place onto the uplink's staging [`SynopsisBatch`] on the consuming
//! pool's interner, the gap it revealed riding ahead of its rows, one send
//! per drain, then the counters, exported as the collector's own
//! `saad_collector_*` series under `tier="root"`. The
//! root's own part is its admission: windows per uplink, loss in the
//! ledger, and an ack that resumes nothing.

use crate::ingest::{Admission, CollectorStats, Ingest, SynopsisOut};
use crate::reactor_collector::ReactorCollectorConfig;
use crate::server::Server;
use crossbeam_channel::Sender;
use saad_core::batch::SynopsisBatch;
use saad_core::intern::SignatureInterner;
use saad_core::transport::{LinkStats, LossLedger};
use saad_core::HostId;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::Arc;

/// The label on every series a root exports, which keeps them apart from
/// a collector's in one registry.
const TIER: [(&str, &str); 1] = [("tier", "root")];

/// A running root collector. Call [`RootCollector::shutdown`] for a
/// clean stop.
pub struct RootCollector {
    ingest: Arc<Ingest>,
    server: Server,
}

impl RootCollector {
    /// Bind on `addr` (port 0 allowed) and start accepting leaf uplinks;
    /// admitted synopses are interned into the consuming pool's `interner`
    /// and sent on `batch_tx`, a batch per uplink drain, each gap ahead of
    /// the rows of the digest that revealed it.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        batch_tx: Sender<SynopsisBatch>,
        interner: Arc<SignatureInterner>,
    ) -> io::Result<RootCollector> {
        let out = SynopsisOut::batches(batch_tx, interner);
        let ingest = Ingest::new(Admission::PerUplink(LossLedger::new(), 0), out, None);
        // One loop, as a constant. Only the ledger update runs under the
        // admission lock; the CRC, decode, interning and channel send
        // around it share this thread for every leaf. What that costs a
        // root of many leaves is not measured: `--bench federation` did
        // not resolve it (EXPERIMENTS.md, "One collector").
        let driver = ReactorCollectorConfig {
            loops: 1,
            ..ReactorCollectorConfig::default()
        };
        let (listener, opener) = (TcpListener::bind(addr)?, ingest.clone());
        let server = Server::start(listener, "saad-root", &driver, move || opener.link(), None)?;
        Ok(RootCollector { ingest, server })
    }

    /// The bound address — the actual port when bound with port 0.
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Snapshot of root-wide counters: connections are leaf uplinks,
    /// frames are digests, and the loss is the whole federation's — agent
    /// links, leaf crashes and uplink failures combined (exact at
    /// quiescence).
    pub fn stats(&self) -> CollectorStats {
        self.ingest.stats()
    }

    /// Accounting for one host across every uplink that carried it:
    /// delivery summed over them, expectation the furthest global position
    /// seen on any.
    pub fn link_stats(&self, host: HostId) -> LinkStats {
        self.ingest.link_stats(host)
    }

    /// Expose the root's counters in `registry` as the collector's
    /// `saad_collector_*` family and its loop's readiness health as
    /// `saad_reactor_*{loop="0"}`, every series labelled `tier="root"`:
    /// scrape-time callbacks over weak references, as a collector's.
    pub fn register_metrics(&self, registry: &saad_obs::Registry) {
        self.ingest.register_metrics(registry, &TIER);
        self.server.register_metrics(registry, &TIER);
    }

    /// Stop accepting, close every uplink, and join the loop thread.
    /// Returns the final counters.
    pub fn shutdown(self) -> CollectorStats {
        self.server.shutdown();
        self.ingest.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::testkit::{
        assert_batch_shape, assert_gap_is_charged, batches, feed_in_cuts, frame_bodies,
        goodbye_after_a_lost_frame, hello_bytes, row_stream, wire_of, RowStream,
    };
    use crate::protocol::{write_message, PINNED_EPOCH, PROTOCOL_VERSION};
    use crate::session::{Handler, Session};
    use crossbeam_channel::{unbounded, Receiver};
    use proptest::prelude::*;
    use saad_core::testkit::{feed_frame_soa, parse_frame, FrameOutcome};
    use saad_core::transport::{FrameReceiver, FrameSender};
    use saad_sim::SimTime;

    /// A root's core with its one output observable: the batches, with
    /// the gap reports riding on them, interned into `interner`.
    struct Rig {
        ingest: Arc<Ingest>,
        batches: Receiver<SynopsisBatch>,
        interner: Arc<SignatureInterner>,
    }

    fn rig() -> Rig {
        let (tx, batches) = unbounded();
        let interner = Arc::new(SignatureInterner::new());
        let out = SynopsisOut::batches(tx, interner.clone());
        let ingest = Ingest::new(Admission::PerUplink(LossLedger::new(), 0), out, None);
        Rig {
            ingest,
            batches,
            interner,
        }
    }

    /// What a leaf's graceful shutdown does after losing a digest on the
    /// way up: the goodbye reveals the trailing gap. Its report is stamped
    /// at the root's watermark, so the host's last window owns up to it.
    #[test]
    fn a_goodbye_frame_charges_its_trailing_gap_to_the_last_window() {
        let (bodies, owed) = goodbye_after_a_lost_frame();
        let rig = rig();
        let mut uplink = rig.ingest.link();
        for body in &bodies {
            uplink.on_message(body);
        }
        uplink.on_drained();

        let stats = rig.ingest.stats();
        assert_eq!(
            (stats.frames, stats.synopses, stats.lost_synopses),
            (2, 3, 2)
        );
        assert_eq!(stats.watermark, owed.at);
        let batches: Vec<SynopsisBatch> = rig.batches.try_iter().collect();
        assert_gap_is_charged(&rig.interner, &batches, owed);
    }

    const HOSTS: [u16; 2] = [10, 11];

    /// Everything one uplink leaves behind at a root, the batches read
    /// as one row stream (their boundaries follow the cuts; their count
    /// is checked, then zeroed in `stats`).
    #[derive(Debug, PartialEq)]
    struct Outcome {
        alive: bool,
        acks: Vec<u8>,
        stats: CollectorStats,
        links: Vec<LinkStats>,
        rows: RowStream,
    }

    /// Feed `wire` to a fresh root through one uplink session in the
    /// chunks `cuts` yields.
    fn run(wire: &[u8], cuts: impl IntoIterator<Item = usize>) -> Outcome {
        let rig = rig();
        let (mut session, mut uplink) = (Session::new(64), rig.ingest.link());
        let (alive, acks) = feed_in_cuts(&mut session, &mut uplink, wire, cuts);
        drop(uplink); // the connection closes
        let links = HOSTS.iter().map(|&h| rig.ingest.link_stats(HostId(h)));
        let batches: Vec<SynopsisBatch> = rig.batches.try_iter().collect();
        assert_batch_shape(&batches, |_| 0);
        let stats = rig.ingest.stats();
        assert_eq!(stats.batches, batches.len() as u64);
        Outcome {
            alive,
            acks,
            stats: CollectorStats {
                batches: 0,
                ..stats
            },
            links: links.collect(),
            rows: row_stream(&batches),
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
        let wire = [
            hello_bytes(PROTOCOL_VERSION, 3, PINNED_EPOCH),
            wire_of(&bodies),
        ]
        .concat();

        let whole = run(&wire, []);
        assert!(whole.alive);
        let s = whole.stats;
        assert_eq!((s.connections_accepted, s.connections_active), (1, 0));
        assert_eq!(
            (s.frames, s.duplicate_frames, s.corrupted_frames),
            (5, 1, 0)
        );
        assert_eq!((s.synopses, s.lost_synopses), (9, 2));
        let losses = &whole.rows.losses;
        assert_eq!(losses.len(), 1, "{losses:?}");
        assert_eq!((losses[0].1.host, losses[0].1.count), (HostId(10), 2));
        assert_eq!(whole.links[0].lost_synopses, 2);
        assert_eq!(whole.links[1].duplicate_frames, 1);

        assert_eq!(run(&wire, std::iter::repeat(1)), whole, "byte at a time");
        for offset in 1..wire.len() {
            assert_eq!(run(&wire, [offset]), whole, "cut at {offset}");
        }
    }

    /// Two leaves' uplinks as a root sees them: per uplink, the bodies in
    /// the order sent. Each span of a host's global stream goes up one of
    /// them, from a sender of that uplink's own — so both number each
    /// host's digests from zero. Fate 0 is an agent-side gap nobody
    /// frames, 1 a digest lost on its way up, 2 one delivered twice;
    /// every uplink ends with a goodbye per host at its sender's position.
    fn two_uplinks(spans: &[(usize, usize, usize, u8)], starts: &[u64]) -> [Vec<Vec<u8>>; 2] {
        let mut senders: [Vec<FrameSender>; 2] =
            [0, 1].map(|_| HOSTS.map(|h| FrameSender::new(HostId(h))).into());
        let mut bodies: [Vec<Vec<u8>>; 2] = Default::default();
        let hosts: Vec<u16> = spans.iter().map(|&(host, ..)| HOSTS[host]).collect();
        let sizes: Vec<usize> = spans.iter().map(|&(_, _, size, _)| size).collect();
        let mut position = [0u64; 2];
        for (&(host, uplink, size, fate), digest) in
            spans.iter().zip(batches(&hosts, &sizes, starts))
        {
            let sender = &mut senders[uplink][host];
            let at = position[host];
            position[host] += size as u64;
            if fate == 0 {
                continue;
            }
            sender.skip(at - sender.synopses_sent());
            let body = sender.encode_frame(&digest).to_vec();
            let copies = match fate {
                1 => 0,
                2 => 2,
                _ => 1,
            };
            bodies[uplink].extend(std::iter::repeat_n(body, copies));
        }
        for (uplink, senders) in senders.iter_mut().enumerate() {
            for sender in senders.iter_mut() {
                bodies[uplink].push(sender.encode_frame(&[]).to_vec());
            }
        }
        bodies
    }

    proptest! {
        /// The root's in-place path (frame check → `decode_batch_into` →
        /// the uplink's window → the ledger → `reveal_gap` → one send per
        /// drain) against the whole-frame reference it replaced
        /// (`parse_frame` → a `FrameReceiver` per uplink → the ledger →
        /// `feed_frame_soa`, one send per frame): two uplinks reusing each
        /// other's sequence numbers for the same hosts, with gaps,
        /// duplicates, goodbyes, a corrupt body, and the two wires cut
        /// anywhere and interleaved. Same rows in the same order, gap
        /// reports at the same row positions with the same stamps, same
        /// counters, same per-host accounts; no batch holds both uplinks'
        /// rows.
        #[test]
        fn the_in_place_root_equals_its_whole_frame_reference(
            spans in collection::vec((0usize..2, 0usize..2, 0usize..6, 0u8..8), 1..24),
            starts in collection::vec(0u64..90_000, 100..101),
            corrupt in 0usize..40,
            cuts in collection::vec(1usize..200, 1..24),
        ) {
            let mut bodies = two_uplinks(&spans, &starts);
            // Each uid is one span's, and so one uplink's.
            let uplink_of: Vec<usize> = spans
                .iter()
                .flat_map(|&(_, uplink, size, _)| std::iter::repeat_n(uplink, size))
                .collect();
            if let Some(body) = bodies.iter_mut().flatten().nth(corrupt) {
                let last = body.len() - 1;
                body[last] ^= 0x20;
            }

            // Under test: each uplink's wire fed to its own session in
            // chunks, the two alternating. A message reaches the root in
            // the turn its last byte arrives in, so `order` is (turn,
            // uplink, index) — the order the reference takes them in.
            let root = rig();
            let mut order = Vec::new();
            let mut feeds: Vec<_> = (0..2).map(|uplink| {
                let mut wire = hello_bytes(PROTOCOL_VERSION, 100 + uplink as u16, PINNED_EPOCH);
                let mut ends = Vec::new();
                for body in &bodies[uplink] {
                    write_message(&mut wire, body).expect("bodies are in bounds");
                    ends.push(wire.len());
                }
                (wire, ends, 0usize, Session::new(64), root.ingest.link())
            }).collect();
            let mut chunk = cuts.iter().cycle();
            for turn in 0.. {
                if feeds.iter().all(|(wire, _, fed, ..)| *fed == wire.len()) {
                    break;
                }
                for (uplink, (wire, ends, fed, session, link)) in feeds.iter_mut().enumerate() {
                    let to = (*fed + chunk.next().unwrap()).min(wire.len());
                    prop_assert!(session.feed(&wire[*fed..to], link));
                    for (index, &end) in ends.iter().enumerate() {
                        if *fed < end && end <= to {
                            order.push((turn, uplink, index));
                        }
                    }
                    *fed = to;
                }
            }
            drop(feeds); // both uplinks close

            // The reference, in the same order.
            let (tx, reference_batches) = unbounded();
            let interner = SignatureInterner::new();
            let mut windows = [FrameReceiver::new(), FrameReceiver::new()];
            let mut ledger = LossLedger::new();
            let mut want = CollectorStats { connections_accepted: 2, ..CollectorStats::default() };
            for (_, uplink, index) in order {
                let Ok(parsed) = parse_frame(&bodies[uplink][index]) else {
                    want.corrupted_frames += 1;
                    continue;
                };
                let max_start = parsed.synopses.iter().map(|s| s.start).max();
                let (cumulative, n) = (parsed.cumulative, parsed.synopses.len() as u64);
                match windows[uplink].admit(parsed) {
                    FrameOutcome::Fresh { host, synopses, .. } => {
                        let newly_lost = ledger.fresh(host, cumulative, n);
                        let fresh = FrameOutcome::Fresh { host, synopses, newly_lost };
                        want.synopses += feed_frame_soa(fresh, &tx, &interner, want.watermark) as u64;
                        want.frames += 1;
                        want.watermark = want.watermark.max(max_start.unwrap_or(SimTime::ZERO));
                    }
                    FrameOutcome::Duplicate { host, .. } => {
                        ledger.duplicate(host);
                        want.duplicate_frames += 1;
                    }
                }
            }
            want.lost_synopses = ledger.total_lost();

            let got: Vec<SynopsisBatch> = root.batches.try_iter().collect();
            let expected: Vec<SynopsisBatch> = reference_batches.try_iter().collect();
            prop_assert_eq!(row_stream(&got), row_stream(&expected));
            assert_batch_shape(&got, |row| uplink_of[row.uid.0 as usize - 1]);
            want.batches = got.len() as u64;
            prop_assert_eq!(root.ingest.stats(), want);
            for h in HOSTS {
                prop_assert_eq!(root.ingest.link_stats(HostId(h)), ledger.stats(HostId(h)));
            }
        }
    }

    /// One registry holding a collector, a root, two leaves and a control
    /// plane renders one `saad_collector_*` family — the collector's
    /// series unlabelled, the root's under `tier="root"`, each leaf's
    /// under `leaf="<id>"`, eleven each — and well-formed exposition,
    /// counters ending in `_total`.
    #[test]
    fn one_registry_renders_one_collector_family_for_every_tier() {
        use crate::{ControlPlane, LeafCollector, LeafConfig, LeafId, ReactorCollector};
        let (tx, _rx) = unbounded();
        let config = ReactorCollectorConfig::default();
        let collector = ReactorCollector::bind("127.0.0.1:0", tx.clone(), Arc::default(), config);
        let collector = collector.unwrap();
        let root = RootCollector::bind("127.0.0.1:0", tx, Arc::default()).unwrap();
        let control = ControlPlane::new(7);
        let leaves: Vec<LeafCollector> = (0..2)
            .map(|id| {
                let config = LeafConfig {
                    id: LeafId(id),
                    ..LeafConfig::default()
                };
                let control = Some(control.clone());
                LeafCollector::spawn("127.0.0.1:0", root.local_addr(), control, config).unwrap()
            })
            .collect();
        let registry = saad_obs::Registry::new();
        collector.register_metrics(&registry);
        root.register_metrics(&registry);
        leaves.iter().for_each(|l| l.register_metrics(&registry));
        control.register_metrics(&registry);

        let text = registry.render();
        saad_obs::validate_text(&text).expect("well-formed exposition");
        let series = |labels: &str| {
            let samples = text.lines().filter(|l| l.starts_with("saad_collector_"));
            let names = samples.filter_map(|l| l.split_once(' ')?.0.strip_suffix(labels));
            names.filter(|name| !name.contains('{')).count()
        };
        assert_eq!(series(""), 11, "{text}");
        assert_eq!(series("{tier=\"root\"}"), 11, "{text}");
        for leaf in ["0", "1"] {
            assert_eq!(series(&format!("{{leaf=\"{leaf}\"}}")), 11, "{text}");
        }
        let families = text
            .lines()
            .filter(|l| l.starts_with("# TYPE saad_collector_"));
        assert_eq!(families.count(), 11);
        assert!(text.contains("\nsaad_reactor_polls_total{tier=\"root\",loop=\"0\"} "));

        for leaf in leaves {
            leaf.shutdown();
        }
        root.shutdown();
        collector.shutdown();
    }
}
