//! The simulated cluster: coordinators, replication, failure detection,
//! hinted hand-off, and background activity.

use crate::config::ClusterConfig;
use crate::instrument::Instrumentation;
use crate::node::{Node, NodeStats};
use rand::rngs::StdRng;
use rand::Rng;
use saad_core::simtask::SimTask;
use saad_core::tracker::SynopsisSink;
use saad_core::HostId;
use saad_fault::FaultSchedule;
use saad_logging::appender::Appender;
use saad_sim::rng::{lognormal_sample, RngStreams};
use saad_sim::{ManualClock, SimDuration, SimTime};
use saad_workload::{OpKind, Operation, ThroughputRecorder, WorkloadGenerator};
use std::sync::Arc;

/// Aggregated results of a cluster run.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Completed client operations per minute window.
    pub throughput: ThroughputRecorder,
    /// Error log records: `(time, host)` — what a conventional alert
    /// system watching for ERROR lines would see.
    pub errors: Vec<(SimTime, HostId)>,
    /// Client operations acknowledged.
    pub ops_completed: u64,
    /// Client operations dropped (timeout without quorum, crashed
    /// coordinator).
    pub ops_dropped: u64,
    /// Per-node counters.
    pub node_stats: Vec<NodeStats>,
    /// Which nodes ended the run crashed.
    pub crashed: Vec<bool>,
}

/// A simulated Cassandra cluster.
pub struct Cluster {
    cfg: ClusterConfig,
    clock: Arc<ManualClock>,
    inst: Instrumentation,
    nodes: Vec<Node>,
    /// Failure-detector state per node (true = marked down by peers).
    down: Vec<bool>,
    missed_acks: Vec<u32>,
    rng: StdRng,
    op_counter: u64,
    next_gc: Vec<SimTime>,
    next_daemon: Vec<SimTime>,
    next_hint: Vec<SimTime>,
    next_compact_retry: Vec<SimTime>,
    throughput: ThroughputRecorder,
    ops_completed: u64,
    ops_dropped: u64,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.nodes.len())
            .field("ops_completed", &self.ops_completed)
            .finish()
    }
}

impl Cluster {
    /// Build a cluster whose trackers stream synopses to `sink`.
    pub fn new(cfg: ClusterConfig, sink: Arc<dyn SynopsisSink>) -> Cluster {
        Cluster::with_appender(cfg, sink, None)
    }

    /// Build a cluster that additionally renders log records to
    /// `appender` (used by the volume and baseline experiments).
    pub fn with_appender(
        cfg: ClusterConfig,
        sink: Arc<dyn SynopsisSink>,
        appender: Option<Arc<dyn Appender>>,
    ) -> Cluster {
        cfg.validate();
        let clock = Arc::new(ManualClock::new());
        let inst = Instrumentation::install();
        let streams = RngStreams::new(cfg.seed);
        let nodes: Vec<Node> = (0..cfg.nodes)
            .map(|i| {
                Node::new(
                    i,
                    cfg,
                    clock.clone(),
                    &inst,
                    sink.clone(),
                    appender.clone(),
                    &streams,
                )
            })
            .collect();
        let n = nodes.len();
        Cluster {
            cfg,
            clock,
            inst,
            nodes,
            down: vec![false; n],
            missed_acks: vec![0; n],
            rng: streams.stream("cluster"),
            op_counter: 0,
            next_gc: (0..n)
                .map(|i| SimTime::from_millis(500 * i as u64))
                .collect(),
            next_daemon: (0..n)
                .map(|i| SimTime::from_millis(700 * i as u64 + 300))
                .collect(),
            next_hint: (0..n)
                .map(|i| SimTime::from_millis(900 * i as u64 + 600))
                .collect(),
            next_compact_retry: (0..n)
                .map(|i| SimTime::from_millis(1_100 * i as u64 + 15_000))
                .collect(),
            throughput: ThroughputRecorder::new(SimDuration::from_mins(1)),
            ops_completed: 0,
            ops_dropped: 0,
        }
    }

    /// The instrumentation (stage + log point registries) of this cluster.
    pub fn instrumentation(&self) -> &Instrumentation {
        &self.inst
    }

    /// Attach a fault schedule to one node's disk (0-based index; the
    /// paper injects on host 4, i.e. index 3).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn attach_fault(&mut self, node: usize, schedule: FaultSchedule) {
        self.nodes[node].disk.add_hook(Box::new(schedule));
    }

    /// Drive the cluster with `workload` until virtual time `until`,
    /// returning aggregate results.
    pub fn run(&mut self, workload: &mut WorkloadGenerator, until: SimTime) -> RunOutput {
        loop {
            let op = workload.next_op();
            if op.at >= until {
                self.run_background_until(until);
                break;
            }
            self.run_background_until(op.at);
            match op.kind {
                OpKind::Read => self.read_op(op),
                OpKind::Insert | OpKind::Update => self.write_op(op),
            }
        }
        RunOutput {
            throughput: self.throughput.clone(),
            errors: self
                .nodes
                .iter()
                .flat_map(|n| n.errors.iter().map(move |&t| (t, n.host)))
                .collect(),
            ops_completed: self.ops_completed,
            ops_dropped: self.ops_dropped,
            node_stats: self.nodes.iter().map(|n| n.stats).collect(),
            crashed: self.nodes.iter().map(|n| n.crashed).collect(),
        }
    }

    fn net_latency(&mut self) -> SimDuration {
        SimDuration::from_secs_f64(150e-6 * lognormal_sample(&mut self.rng, 0.0, 0.3))
    }

    fn replicas_of(&self, key: u64) -> Vec<usize> {
        let n = self.nodes.len();
        (0..self.cfg.replication_factor)
            .map(|i| (key as usize + i) % n)
            .collect()
    }

    fn note_missed_ack(&mut self, r: usize) {
        self.missed_acks[r] += 1;
        if self.missed_acks[r] >= 100 {
            self.down[r] = true;
        }
    }

    /// Store a hint for `target` on a random healthy node (the paper's
    /// "delegating writes to random healthy nodes" for later retry).
    fn store_hint(&mut self, target: usize) {
        let healthy: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| i != target && !self.nodes[i].crashed)
            .collect();
        if healthy.is_empty() {
            return;
        }
        let h = healthy[self.rng.gen_range(0..healthy.len())];
        *self.nodes[h].hints.entry(target).or_insert(0) += 1;
    }

    fn write_op(&mut self, op: Operation) {
        let n = self.nodes.len();
        let coord = (self.op_counter as usize) % n;
        self.op_counter += 1;
        if self.nodes[coord].crashed {
            self.ops_dropped += 1;
            return;
        }
        let st = self.inst.stages;
        let pt = self.inst.points;
        let replicas = self.replicas_of(op.key);
        let local_is_replica = replicas.contains(&coord);
        let bytes = op.value_size as u64;

        let logger = self.nodes[coord].log.storage_proxy.clone();
        let mut sp = self.nodes[coord].task(st.storage_proxy, &logger, op.at);
        sp.debug(
            pt.sp_recv,
            format_args!(
                "Mutation for key {} forwarded to {} replicas",
                op.key,
                replicas.len()
            ),
        );
        let d = self.nodes[coord].cpu(40.0);
        sp.advance(d);
        if local_is_replica {
            sp.debug(
                pt.sp_local,
                format_args!("insert writing local & replicate {}", op.key),
            );
        }
        let send_t = sp.now();
        let susp = sp.suspend();

        let mut acks: Vec<(usize, Option<SimTime>)> = Vec::with_capacity(replicas.len());
        for &r in &replicas {
            if self.down[r] || self.nodes[r].crashed {
                // Failure detector says down: hint instead of sending.
                self.store_hint(r);
                acks.push((r, None));
                continue;
            }
            let ack = if r == coord {
                self.nodes[r].handle_mutation(send_t, op.key, bytes)
            } else {
                let lo = self.nodes[coord].log.ot.clone();
                let mut ot = self.nodes[coord].task(st.out_tcp, &lo, send_t);
                ot.debug(
                    pt.ot_send,
                    format_args!("Sending message MUTATION to node {}", r + 1),
                );
                let d = self.nodes[coord].cpu(25.0);
                ot.advance(d);
                let net = self.net_latency();
                ot.advance(net);
                let arrive = ot.finish();

                let li = self.nodes[r].log.it.clone();
                let mut it = self.nodes[r].task(st.in_tcp, &li, arrive);
                it.debug(
                    pt.it_recv,
                    format_args!("Received message MUTATION from node {}", coord + 1),
                );
                let d = self.nodes[r].cpu(25.0);
                it.advance(d);
                let handled_at = it.finish();

                let back = self.net_latency();
                self.nodes[r]
                    .handle_mutation(handled_at, op.key, bytes)
                    .map(|a| a + back)
            };
            if ack.is_none() {
                self.note_missed_ack(r);
            } else {
                self.missed_acks[r] = 0;
            }
            acks.push((r, ack));
        }

        let tracker = self.nodes[coord].tracker.clone();
        let clock = self.clock.clone();
        let mut sp = SimTask::resume(&tracker, &clock, &logger, susp);
        let deadline = send_t + self.cfg.write_timeout;
        let mut times: Vec<SimTime> = acks
            .iter()
            .filter_map(|&(_, a)| a)
            .filter(|&a| a <= deadline)
            .collect();
        times.sort_unstable();
        let quorum_t = times.get(self.cfg.quorum - 1).copied();
        let local_ack = acks
            .iter()
            .find(|&&(r, _)| r == coord)
            .and_then(|&(_, a)| a)
            .filter(|&a| a <= deadline);
        // The coordinator responds at quorum but its StorageProxy task also
        // waits on the local apply (local-write-first path).
        let waits_local = local_is_replica && !self.down[coord];
        let local_missing = waits_local && local_ack.is_none();

        if let Some(q) = quorum_t {
            self.ops_completed += 1;
            self.throughput.record(q);
        } else {
            self.ops_dropped += 1;
        }

        // Replicas that never answered only get hinted once the failure
        // detector marks them down (handled at send time on later writes);
        // a sporadic missed ack is repaired by read repair, not hints.
        let unheard: Vec<usize> = acks
            .iter()
            .filter(|&&(_, a)| a.is_none_or(|x| x > deadline))
            .map(|&(r, _)| r)
            .collect();

        if let (Some(q), false) = (quorum_t, local_missing) {
            let completion = q.max(local_ack.unwrap_or(SimTime::ZERO));
            sp.advance_to(completion);
            for t in &times {
                if *t <= completion {
                    sp.debug(
                        pt.sp_ack,
                        format_args!("Write response received from replica"),
                    );
                }
            }
        } else {
            // Quorum missed, or the local write never finished: the
            // StorageProxy task itself waits out the timeout and hints —
            // the anomalous flow the paper sees on the faulty host.
            sp.advance_to(deadline);
            for _ in &times {
                sp.debug(
                    pt.sp_ack,
                    format_args!("Write response received from replica"),
                );
            }
            sp.debug(
                pt.sp_timeout,
                format_args!("Timed out waiting for write response"),
            );
            for &r in &unheard {
                sp.debug(
                    pt.sp_hint,
                    format_args!("Adding hint for unresponsive endpoint {}", r + 1),
                );
            }
        }
        sp.finish();
    }

    fn read_op(&mut self, op: Operation) {
        let replicas = self.replicas_of(op.key);
        let target = replicas
            .iter()
            .copied()
            .find(|&r| !self.down[r] && !self.nodes[r].crashed);
        let Some(r) = target else {
            self.ops_dropped += 1;
            return;
        };
        let done = self.nodes[r].read(op.at, op.key);
        self.ops_completed += 1;
        self.throughput.record(done);
    }

    fn run_background_until(&mut self, t: SimTime) {
        for i in 0..self.nodes.len() {
            while self.next_gc[i] <= t {
                let at = self.next_gc[i];
                self.nodes[i].gc_tick(at);
                self.next_gc[i] = at + self.cfg.gc_period;
            }
            while self.next_daemon[i] <= t {
                let at = self.next_daemon[i];
                self.nodes[i].daemon_tick(at);
                self.next_daemon[i] = at + self.cfg.daemon_period;
            }
            while self.next_hint[i] <= t {
                let at = self.next_hint[i];
                self.hint_cycle(i, at);
                self.next_hint[i] = at + self.cfg.hint_period;
            }
            while self.next_compact_retry[i] <= t {
                let at = self.next_compact_retry[i];
                // Flush-retry and pending-compaction executors: failed
                // flushes are retried, and SSTable pile-ups (or retained
                // flush backlogs) re-trigger compaction — whose writes
                // keep failing under the flush fault, producing the
                // Memtable/CompactionManager flow anomalies of §5.4.1.
                if !self.nodes[i].crashed {
                    if self.nodes[i].flush_backlog_bytes > 0 {
                        self.nodes[i].retry_flush(at);
                    }
                    if self.nodes[i].sstables >= self.cfg.compaction_threshold
                        || (self.nodes[i].flush_backlog_bytes > 0 && self.nodes[i].sstables >= 1)
                    {
                        self.nodes[i].compact(at);
                    }
                }
                self.next_compact_retry[i] = at + SimDuration::from_secs(30);
            }
        }
    }

    /// One hinted hand-off delivery attempt on node `i`: the manager wakes
    /// up, and per hinted target a WorkerProcess task tries to deliver.
    /// Deliveries to a still-unreachable target time out — the new flow
    /// signature the paper observes on the healthy hosts (§5.4.1).
    fn hint_cycle(&mut self, i: usize, at: SimTime) {
        if self.nodes[i].crashed || self.nodes[i].hints.is_empty() {
            return;
        }
        let st = self.inst.stages;
        let pt = self.inst.points;
        let logger = self.nodes[i].log.hh.clone();
        let mut hh = self.nodes[i].task(st.hinted_handoff, &logger, at);
        hh.info(
            pt.hh_start,
            format_args!("Started hinted handoff for stored endpoints"),
        );
        let d = self.nodes[i].cpu(120.0);
        hh.advance(d);
        let cursor = hh.now();
        let susp = hh.suspend();

        let targets: Vec<usize> = self.nodes[i].hints.keys().copied().collect();
        let mut cursor = cursor;
        for target in targets {
            let lw = self.nodes[i].log.worker.clone();
            let mut wp = self.nodes[i].task(st.worker_process, &lw, cursor);
            wp.debug(
                pt.wp_hint_deliver,
                format_args!("Delivering hinted mutation to endpoint {}", target + 1),
            );
            let d = self.nodes[i].cpu(80.0);
            wp.advance(d);
            if self.nodes[target].reachable(wp.now()) {
                let net = self.net_latency();
                let arrive = wp.now() + net;
                let ack = self.nodes[target].handle_mutation(arrive, 0, 512);
                if ack.is_some() {
                    wp.debug(
                        pt.wp_hint_done,
                        format_args!("Hinted mutation delivered to {}", target + 1),
                    );
                    self.nodes[i].hints.remove(&target);
                    self.down[target] = false;
                    self.missed_acks[target] = 0;
                } else {
                    wp.advance(SimDuration::from_millis(500));
                    wp.debug(
                        pt.wp_hint_timeout,
                        format_args!(
                            "Hinted handoff to {} timed out; will retry later",
                            target + 1
                        ),
                    );
                }
            } else {
                wp.advance(SimDuration::from_millis(500));
                wp.debug(
                    pt.wp_hint_timeout,
                    format_args!(
                        "Hinted handoff to {} timed out; will retry later",
                        target + 1
                    ),
                );
            }
            cursor = wp.finish();
        }

        let tracker = self.nodes[i].tracker.clone();
        let clock = self.clock.clone();
        let mut hh = SimTask::resume(&tracker, &clock, &logger, susp);
        hh.advance_to(cursor);
        let remaining: u32 = self.nodes[i].hints.values().sum();
        hh.info(
            pt.hh_done,
            format_args!("Finished hinted handoff run; {remaining} hints remain"),
        );
        hh.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saad_core::synopsis::TaskSynopsis;
    use saad_core::tracker::VecSink;
    use saad_core::StageId;
    use saad_fault::catalog;
    use saad_workload::{KeyChooser, OperationMix};

    fn workload(seed: u64) -> WorkloadGenerator {
        WorkloadGenerator::new(
            OperationMix::write_heavy(),
            KeyChooser::zipfian(10_000),
            25.0,
            seed,
        )
    }

    fn healthy_run(mins: u64) -> (RunOutput, Vec<TaskSynopsis>) {
        let sink = Arc::new(VecSink::new());
        let mut cluster = Cluster::new(ClusterConfig::default(), sink.clone());
        let mut wl = workload(7);
        let out = cluster.run(&mut wl, SimTime::from_mins(mins));
        (out, sink.drain())
    }

    #[test]
    fn healthy_cluster_completes_ops_without_errors() {
        let (out, synopses) = healthy_run(3);
        assert!(out.ops_completed > 3000, "completed={}", out.ops_completed);
        assert_eq!(out.errors.len(), 0);
        assert!(out.ops_dropped < out.ops_completed / 100);
        assert!(!synopses.is_empty());
        assert!(out.crashed.iter().all(|&c| !c));
    }

    #[test]
    fn synopses_cover_the_main_stages() {
        let (_, synopses) = healthy_run(3);
        let cluster = Cluster::new(ClusterConfig::default(), Arc::new(VecSink::new()));
        let st = cluster.instrumentation().stages;
        let mut seen: std::collections::HashSet<StageId> =
            synopses.iter().map(|s| s.stage).collect();
        for required in [
            st.storage_proxy,
            st.worker_process,
            st.table,
            st.log_record_adder,
            st.memtable,
            st.commit_log,
            st.gc_inspector,
            st.local_read,
            st.out_tcp,
            st.in_tcp,
            st.daemon,
        ] {
            assert!(seen.remove(&required), "missing stage {required}");
        }
    }

    #[test]
    fn flushes_and_compactions_happen() {
        let (out, _) = healthy_run(5);
        let flushes: u64 = out.node_stats.iter().map(|s| s.flushes).sum();
        let compactions: u64 = out.node_stats.iter().map(|s| s.compactions).sum();
        assert!(flushes > 4, "flushes={flushes}");
        assert!(compactions >= 1, "compactions={compactions}");
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let sink = Arc::new(VecSink::new());
            let mut cluster = Cluster::new(ClusterConfig::default(), sink.clone());
            let mut wl = workload(3);
            let out = cluster.run(&mut wl, SimTime::from_mins(2));
            (out.ops_completed, out.ops_dropped, sink.len())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn wal_error_fault_freezes_memtable_and_crashes_node() {
        let sink = Arc::new(VecSink::new());
        let mut cluster = Cluster::new(ClusterConfig::default(), sink.clone());
        // High-intensity error on WAL appends on node 3 (host 4) from
        // minute 2, mirroring Fig 9(a)'s high window.
        cluster.attach_fault(
            3,
            saad_fault::FaultSchedule::new(1).with_window(
                SimTime::from_mins(2),
                SimTime::from_mins(30),
                saad_fault::FaultSpec::new(
                    catalog::WAL,
                    saad_fault::FaultType::Error,
                    saad_fault::Intensity::High,
                ),
            ),
        );
        let mut wl = workload(11);
        let out = cluster.run(&mut wl, SimTime::from_mins(20));
        // Node 3 (host 4) accumulated blocked writes and eventually
        // crashed with an error burst; others stayed up.
        assert!(
            out.node_stats[3].blocked_writes > 50,
            "{:?}",
            out.node_stats[3]
        );
        assert!(out.node_stats[3].wal_failures > 0);
        assert!(out.crashed[3], "node should crash under sustained freeze");
        assert!(!out.crashed[0] && !out.crashed[1] && !out.crashed[2]);
        let burst: Vec<_> = out.errors.iter().filter(|(_, h)| *h == HostId(4)).collect();
        assert!(burst.len() >= 12, "crash error burst, got {}", burst.len());
        // The frozen-MemTable signature exists: Table tasks with only the
        // frozen point.
        let inst = cluster.instrumentation();
        let frozen_only = sink.snapshot().into_iter().any(|s| {
            s.stage == inst.stages.table
                && s.log_points.len() == 1
                && s.log_points[0].0 == inst.points.t_frozen
        });
        assert!(frozen_only, "premature-termination signature must appear");
    }

    #[test]
    fn wal_error_fault_drives_hinted_handoff_on_peers() {
        let sink = Arc::new(VecSink::new());
        let mut cluster = Cluster::new(ClusterConfig::default(), sink.clone());
        cluster.attach_fault(
            3,
            saad_fault::FaultSchedule::new(1).with_window(
                SimTime::from_mins(1),
                SimTime::from_mins(30),
                saad_fault::FaultSpec::new(
                    catalog::WAL,
                    saad_fault::FaultType::Error,
                    saad_fault::Intensity::High,
                ),
            ),
        );
        let mut wl = workload(13);
        cluster.run(&mut wl, SimTime::from_mins(10));
        let inst = cluster.instrumentation();
        // Hint-timeout flows on healthy hosts.
        let hint_timeouts = sink
            .snapshot()
            .iter()
            .filter(|s| {
                s.host != HostId(4)
                    && s.log_points
                        .iter()
                        .any(|&(p, _)| p == inst.points.wp_hint_timeout)
            })
            .count();
        assert!(
            hint_timeouts > 0,
            "peers must observe hint delivery timeouts"
        );
    }

    #[test]
    fn flush_error_fault_builds_gc_pressure_without_crash() {
        let sink = Arc::new(VecSink::new());
        let mut cluster = Cluster::new(ClusterConfig::default(), sink.clone());
        cluster.attach_fault(
            3,
            saad_fault::FaultSchedule::new(2).with_window(
                SimTime::from_mins(1),
                SimTime::from_mins(11),
                saad_fault::FaultSpec::new(
                    catalog::MEMTABLE_FLUSH,
                    saad_fault::FaultType::Error,
                    saad_fault::Intensity::High,
                ),
            ),
        );
        let mut wl = workload(17);
        let out = cluster.run(&mut wl, SimTime::from_mins(12));
        assert!(
            out.node_stats[3].failed_flushes > 3,
            "{:?}",
            out.node_stats[3]
        );
        assert!(!out.crashed[3], "flush faults degrade but do not crash");
        // GC pressure signature (warn point) appears on host 4 only.
        let inst = cluster.instrumentation();
        let pressured: Vec<HostId> = sink
            .snapshot()
            .iter()
            .filter(|s| {
                s.log_points
                    .iter()
                    .any(|&(p, _)| p == inst.points.gc_pressure)
            })
            .map(|s| s.host)
            .collect();
        assert!(!pressured.is_empty(), "gc pressure flows must appear");
        assert!(pressured.iter().all(|&h| h == HostId(4)));
    }

    #[test]
    fn wal_delay_fault_stretches_write_durations() {
        let run = |fault: bool| {
            let sink = Arc::new(VecSink::new());
            let mut cluster = Cluster::new(ClusterConfig::default(), sink.clone());
            if fault {
                cluster.attach_fault(
                    3,
                    saad_fault::FaultSchedule::new(3).with_window(
                        SimTime::from_mins(1),
                        SimTime::from_mins(6),
                        saad_fault::FaultSpec::new(
                            catalog::WAL,
                            saad_fault::FaultType::standard_delay(),
                            saad_fault::Intensity::High,
                        ),
                    ),
                );
            }
            let mut wl = workload(19);
            cluster.run(&mut wl, SimTime::from_mins(6));
            let inst = Cluster::new(ClusterConfig::default(), Arc::new(VecSink::new()));
            let table = inst.instrumentation().stages.table;
            let durations: Vec<f64> = sink
                .snapshot()
                .iter()
                .filter(|s| s.host == HostId(4) && s.stage == table && s.log_points.len() >= 4)
                .map(|s| s.duration.as_micros() as f64)
                .collect();
            durations.iter().sum::<f64>() / durations.len().max(1) as f64
        };
        let healthy = run(false);
        let delayed = run(true);
        assert!(
            delayed > healthy * 3.0,
            "delay fault must stretch Table durations: healthy={healthy} delayed={delayed}"
        );
    }
}
