//! The simulated relay fleet: session admission, the interleaved relay
//! pump, background escaper probes, and gray-failure attachment.

use crate::config::RelayConfig;
use crate::instrument::Instrumentation;
use crate::node::{RelayNode, RelayNodeStats, SessionSetup};
use saad_core::simtask::{SimTask, SuspendedSimTask};
use saad_core::tracker::SynopsisSink;
use saad_fault::GraySchedule;
use saad_logging::appender::Appender;
use saad_sim::{ManualClock, SimDuration, SimTime};
use saad_workload::{Operation, ThroughputRecorder, WorkloadGenerator};
use std::sync::Arc;

/// Aggregated results of a relay fleet run.
#[derive(Debug, Clone)]
pub struct RelayRunOutput {
    /// Completed relay sessions per minute window.
    pub throughput: ThroughputRecorder,
    /// Sessions accepted.
    pub sessions_started: u64,
    /// Sessions relayed to completion.
    pub sessions_completed: u64,
    /// Sessions aborted after exhausting connect attempts.
    pub sessions_aborted: u64,
    /// Sessions still mid-relay at the end of the run (discarded).
    pub sessions_in_flight: u64,
    /// Per-host counters.
    pub node_stats: Vec<RelayNodeStats>,
    /// Gray-fault disturbances actually injected.
    pub gray_injected: u64,
}

/// One suspended relay session waiting for its next burst.
struct LiveRelay {
    susp: SuspendedSimTask,
    node: usize,
    task_id: u64,
    /// Tie-break for deterministic pump order at equal times.
    seq: u64,
    next_at: SimTime,
    bursts_left: u32,
    bursts_total: u32,
    bytes_done: u64,
    wait_us: u64,
    ready_us: u64,
}

impl std::fmt::Debug for LiveRelay {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveRelay")
            .field("node", &self.node)
            .field("task_id", &self.task_id)
            .field("bursts_left", &self.bursts_left)
            .finish()
    }
}

/// A simulated relay fleet.
pub struct RelayCluster {
    cfg: RelayConfig,
    clock: Arc<ManualClock>,
    inst: Instrumentation,
    nodes: Vec<RelayNode>,
    gray: GraySchedule,
    live: Vec<LiveRelay>,
    seq: u64,
    task_counter: u64,
    next_escaper: Vec<SimTime>,
    throughput: ThroughputRecorder,
    sessions_started: u64,
    sessions_completed: u64,
    sessions_aborted: u64,
}

impl std::fmt::Debug for RelayCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RelayCluster")
            .field("hosts", &self.nodes.len())
            .field("live", &self.live.len())
            .field("sessions_completed", &self.sessions_completed)
            .finish()
    }
}

impl RelayCluster {
    /// Build a fleet whose trackers stream synopses to `sink`.
    pub fn new(cfg: RelayConfig, sink: Arc<dyn SynopsisSink>) -> RelayCluster {
        RelayCluster::with_appender(cfg, sink, None)
    }

    /// Build a fleet that additionally renders log records to `appender`.
    pub fn with_appender(
        cfg: RelayConfig,
        sink: Arc<dyn SynopsisSink>,
        appender: Option<Arc<dyn Appender>>,
    ) -> RelayCluster {
        cfg.validate();
        let clock = Arc::new(ManualClock::new());
        let inst = Instrumentation::install();
        let streams = saad_sim::rng::RngStreams::new(cfg.seed);
        let nodes: Vec<RelayNode> = (0..cfg.hosts)
            .map(|i| {
                RelayNode::new(
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
        RelayCluster {
            cfg,
            clock,
            inst,
            nodes,
            gray: GraySchedule::new(cfg.seed ^ 0x6AA7),
            live: Vec::new(),
            seq: 0,
            task_counter: 0,
            next_escaper: (0..n)
                .map(|i| SimTime::from_millis(500 * i as u64 + 250))
                .collect(),
            throughput: ThroughputRecorder::new(SimDuration::from_mins(1)),
            sessions_started: 0,
            sessions_completed: 0,
            sessions_aborted: 0,
        }
    }

    /// The instrumentation (stage + log point registries) of this fleet.
    pub fn instrumentation(&self) -> &Instrumentation {
        &self.inst
    }

    /// Attach a gray-failure schedule. Host numbers in the schedule's
    /// [`saad_fault::HostSet`]s are `saad_core::HostId` values (hosts are
    /// numbered from 1).
    pub fn attach_gray(&mut self, schedule: GraySchedule) {
        self.gray = schedule;
    }

    /// Drive the fleet with `workload` until virtual time `until`. Each
    /// workload operation is one client session; sessions still mid-relay
    /// at `until` are discarded without a synopsis (the run ends before
    /// their task log is written).
    pub fn run(&mut self, workload: &mut WorkloadGenerator, until: SimTime) -> RelayRunOutput {
        loop {
            let op = workload.next_op();
            if op.at >= until {
                self.pump_until(until);
                break;
            }
            self.pump_until(op.at);
            self.start_session(op);
        }
        let in_flight = self.live.len() as u64;
        self.live.clear(); // suspended tasks are discarded silently
        RelayRunOutput {
            throughput: self.throughput.clone(),
            sessions_started: self.sessions_started,
            sessions_completed: self.sessions_completed,
            sessions_aborted: self.sessions_aborted,
            sessions_in_flight: in_flight,
            node_stats: self.nodes.iter().map(|n| n.stats).collect(),
            gray_injected: self.gray.injected(),
        }
    }

    /// Admit one session: run the pre-relay ladder inline, then park the
    /// long-lived Relaying task in the pump.
    fn start_session(&mut self, op: Operation) {
        self.sessions_started += 1;
        let node_idx = (self.task_counter as usize) % self.nodes.len();
        let task_id = self.task_counter;
        self.task_counter += 1;
        let upstream = (op.key as usize) % self.cfg.upstreams;

        let (nodes, gray) = (&mut self.nodes, &mut self.gray);
        let node = &mut nodes[node_idx];
        let Some(SessionSetup {
            relay_from,
            wait_us,
            ready_us,
        }) = node.setup_session(op.at, task_id, upstream, gray)
        else {
            self.sessions_aborted += 1;
            return;
        };

        // Begin the Relaying task, then immediately suspend it: bursts are
        // delivered by the pump, interleaved with every other live session
        // on this host.
        let bursts = node.sample_bursts();
        let logger = node.log.relaying.clone();
        let mut t = node.task(self.inst.stages.relaying, &logger, relay_from);
        t.debug(
            self.inst.points.rl_start,
            format_args!("Relaying data for task {task_id}"),
        );
        let first_gap = node.sample_gap();
        let next_at = t.now() + first_gap;
        let susp = t.suspend();
        self.live.push(LiveRelay {
            susp,
            node: node_idx,
            task_id,
            seq: self.seq,
            next_at,
            bursts_left: bursts,
            bursts_total: bursts,
            bytes_done: 0,
            wait_us,
            ready_us,
        });
        self.seq += 1;
    }

    /// Process every pump event (escaper probes, relay bursts) due at or
    /// before `t`, in deterministic global time order.
    fn pump_until(&mut self, t: SimTime) {
        loop {
            let esc = self
                .next_escaper
                .iter()
                .enumerate()
                .min_by_key(|&(i, at)| (*at, i))
                .map(|(i, at)| (*at, i));
            let relay = self
                .live
                .iter()
                .enumerate()
                .min_by_key(|(_, lr)| (lr.next_at, lr.seq))
                .map(|(i, lr)| (lr.next_at, i));
            // Escaper ticks win ties: they were scheduled first.
            match (esc, relay) {
                (Some((et, ei)), _) if et <= t && relay.is_none_or(|(rt, _)| et <= rt) => {
                    let (nodes, gray) = (&mut self.nodes, &mut self.gray);
                    nodes[ei].escaper_tick(et, gray);
                    self.next_escaper[ei] = et + self.cfg.escaper_period;
                }
                (_, Some((rt, ri))) if rt <= t => {
                    self.pump_burst(ri);
                }
                _ => break,
            }
        }
    }

    /// Resume one suspended session, relay one burst, and either park it
    /// again or finish it.
    fn pump_burst(&mut self, idx: usize) {
        let mut lr = self.live.swap_remove(idx);
        let (nodes, gray) = (&mut self.nodes, &mut self.gray);
        let node = &mut nodes[lr.node];
        let host = node.host.0;

        let logger = node.log.relaying.clone();
        let mut t = SimTask::resume(&node.tracker, &self.clock, &logger, lr.susp);
        t.advance_to(lr.next_at);
        let bytes = node.sample_burst_bytes();
        let factor = gray.relay_factor_at(t.now(), host);
        let copy = node.copy_time(bytes).mul_f64(factor);
        t.advance(copy);
        t.debug(
            self.inst.points.rl_burst,
            format_args!("Relayed {bytes} bytes c2r/r2c for task {}", lr.task_id),
        );
        lr.bytes_done += bytes;
        lr.bursts_left -= 1;
        node.stats.bursts += 1;
        node.stats.bytes_relayed += bytes;

        if lr.bursts_left == 0 {
            t.debug(
                self.inst.points.rl_done,
                format_args!(
                    "Relaying complete: {} bytes in {} bursts",
                    lr.bytes_done, lr.bursts_total
                ),
            );
            let relayed = t.finish();
            let done =
                node.finished_task(relayed, lr.task_id, "TaskFinished", lr.wait_us, lr.ready_us);
            node.stats.completed += 1;
            self.sessions_completed += 1;
            self.throughput.record(done);
        } else {
            let gap = node.sample_gap();
            lr.next_at = t.now() + gap;
            lr.susp = t.suspend();
            self.live.push(lr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saad_core::synopsis::TaskSynopsis;
    use saad_core::tracker::VecSink;
    use saad_core::{HostId, StageId};
    use saad_fault::{catalog, GrayFault, GrayFaultSpec, HostSet};

    fn workload(seed: u64) -> WorkloadGenerator {
        WorkloadGenerator::new(
            saad_workload::OperationMix::write_heavy(),
            saad_workload::KeyChooser::zipfian(10_000),
            60.0,
            seed,
        )
    }

    fn healthy_run(mins: u64) -> (RelayRunOutput, Vec<TaskSynopsis>) {
        let sink = Arc::new(VecSink::new());
        let mut fleet = RelayCluster::new(RelayConfig::default(), sink.clone());
        let mut wl = workload(7);
        let out = fleet.run(&mut wl, SimTime::from_mins(mins));
        (out, sink.drain())
    }

    #[test]
    fn healthy_fleet_completes_sessions() {
        let (out, synopses) = healthy_run(3);
        assert!(
            out.sessions_completed > 8_000,
            "completed={}",
            out.sessions_completed
        );
        assert_eq!(out.sessions_aborted, 0);
        assert!(!synopses.is_empty());
        // A handful of sessions straddle the end of the run.
        assert!(out.sessions_in_flight < 200);
    }

    #[test]
    fn synopses_cover_every_stage_on_every_host() {
        let (_, synopses) = healthy_run(2);
        let fleet = RelayCluster::new(RelayConfig::default(), Arc::new(VecSink::new()));
        let st = fleet.instrumentation().stages;
        for host in 1..=4u16 {
            let seen: std::collections::HashSet<StageId> = synopses
                .iter()
                .filter(|s| s.host == HostId(host))
                .map(|s| s.stage)
                .collect();
            for required in [
                st.created,
                st.preparing,
                st.connecting,
                st.connected,
                st.replying,
                st.relaying,
                st.finished,
                st.escaper,
            ] {
                assert!(
                    seen.contains(&required),
                    "host {host} missing stage {required}"
                );
            }
        }
    }

    #[test]
    fn relaying_tasks_interleave_on_one_host() {
        // The tentpole's stress pattern: while one session is mid-relay
        // (suspended), other tasks run on the same tracker. Check that
        // Relaying synopses span overlapping time ranges per host.
        let (_, synopses) = healthy_run(2);
        let fleet = RelayCluster::new(RelayConfig::default(), Arc::new(VecSink::new()));
        let relaying = fleet.instrumentation().stages.relaying;
        let mut spans: Vec<(u64, u64)> = synopses
            .iter()
            .filter(|s| s.host == HostId(1) && s.stage == relaying)
            .map(|s| {
                let start = s.start.as_micros();
                (start, start + s.duration.as_micros())
            })
            .collect();
        spans.sort_unstable();
        let overlapping = spans.windows(2).filter(|w| w[1].0 < w[0].1).count();
        assert!(
            overlapping * 2 > spans.len(),
            "most relay sessions should overlap a neighbour: {overlapping}/{}",
            spans.len()
        );
    }

    #[test]
    fn wait_and_ready_times_are_logged() {
        let (_, synopses) = healthy_run(1);
        let fleet = RelayCluster::new(RelayConfig::default(), Arc::new(VecSink::new()));
        let inst = fleet.instrumentation();
        // Every completed session emits the Finished summary carrying
        // wait/ready, and its signature is the two Finished points.
        let finished: Vec<_> = synopses
            .iter()
            .filter(|s| s.stage == inst.stages.finished)
            .collect();
        assert!(!finished.is_empty());
        assert!(finished.iter().all(|s| {
            s.log_points.len() == 2
                && s.log_points[0].0 == inst.points.fi_summary
                && s.log_points[1].0 == inst.points.fi_done
        }));
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let sink = Arc::new(VecSink::new());
            let mut fleet = RelayCluster::new(RelayConfig::default(), sink.clone());
            let mut wl = workload(3);
            let out = fleet.run(&mut wl, SimTime::from_mins(2));
            let mut hash = 0u64;
            for s in sink.drain() {
                hash = hash
                    .wrapping_mul(31)
                    .wrapping_add(s.duration.as_micros())
                    .wrapping_add(s.log_points.len() as u64);
            }
            (out.sessions_completed, out.sessions_started, hash)
        };
        assert_eq!(run(), run());
    }

    fn stage_durations(
        synopses: &[TaskSynopsis],
        host: u16,
        stage: StageId,
    ) -> (Vec<f64>, Vec<f64>) {
        // (before minute 3, inside minutes 3..8) — the catalog fault window.
        let mut before = Vec::new();
        let mut during = Vec::new();
        for s in synopses {
            if s.host != HostId(host) || s.stage != stage {
                continue;
            }
            let d = s.duration.as_micros() as f64;
            if s.start < SimTime::from_mins(3) {
                before.push(d);
            } else if s.start < SimTime::from_mins(8) {
                during.push(d);
            }
        }
        (before, during)
    }

    fn mean(v: &[f64]) -> f64 {
        v.iter().sum::<f64>() / v.len().max(1) as f64
    }

    #[test]
    fn slow_upstream_stretches_connecting_on_target_only() {
        let sink = Arc::new(VecSink::new());
        let mut fleet = RelayCluster::new(RelayConfig::default(), sink.clone());
        let scenario = catalog::gray_slow_upstream(11);
        fleet.attach_gray(scenario.schedule);
        let mut wl = workload(11);
        let out = fleet.run(&mut wl, SimTime::from_mins(8));
        assert!(out.gray_injected > 0);
        let st = fleet.instrumentation().stages;
        let synopses = sink.drain();
        let (before, during) = stage_durations(&synopses, 2, st.connecting);
        assert!(
            mean(&during) > mean(&before) * 4.0,
            "connecting on host 2 must stretch: before={} during={}",
            mean(&before),
            mean(&during)
        );
        // Untargeted host and other stages stay healthy.
        let (b1, d1) = stage_durations(&synopses, 1, st.connecting);
        assert!(mean(&d1) < mean(&b1) * 1.5);
        let (br, dr) = stage_durations(&synopses, 2, st.replying);
        assert!(mean(&dr) < mean(&br) * 1.5);
    }

    #[test]
    fn correlated_hog_stretches_relaying_on_both_targets() {
        let sink = Arc::new(VecSink::new());
        let mut fleet = RelayCluster::new(RelayConfig::default(), sink.clone());
        fleet.attach_gray(catalog::gray_correlated_hog(13).schedule);
        let mut wl = workload(13);
        fleet.run(&mut wl, SimTime::from_mins(8));
        let st = fleet.instrumentation().stages;
        let synopses = sink.drain();
        for host in [1u16, 3] {
            let (before, during) = stage_durations(&synopses, host, st.relaying);
            assert!(
                mean(&during) > mean(&before) * 2.0,
                "relaying on host {host} must stretch"
            );
        }
        let (b2, d2) = stage_durations(&synopses, 2, st.relaying);
        assert!(mean(&d2) < mean(&b2) * 1.5, "host 2 must stay healthy");
    }

    #[test]
    fn retry_storm_adds_refused_flows_on_target() {
        let sink = Arc::new(VecSink::new());
        let mut fleet = RelayCluster::new(RelayConfig::default(), sink.clone());
        fleet.attach_gray(catalog::gray_retry_storm(17).schedule);
        let mut wl = workload(17);
        let out = fleet.run(&mut wl, SimTime::from_mins(8));
        let inst = fleet.instrumentation();
        let synopses = sink.drain();
        let refused_hosts: std::collections::HashSet<u16> = synopses
            .iter()
            .filter(|s| {
                s.log_points
                    .iter()
                    .any(|&(p, _)| p == inst.points.cn_refused)
            })
            .map(|s| s.host.0)
            .collect();
        assert_eq!(refused_hosts, std::collections::HashSet::from([2]));
        assert!(out.node_stats[1].connect_retries > 100);
        // Refusals are per-attempt, so nearly all sessions still connect.
        assert!(out.sessions_aborted < out.sessions_started / 20);
        // An aborted session still writes its task log: give-up sessions
        // produce a Finished task with the standard signature.
        let aborted_spec =
            GrayFaultSpec::new(GrayFault::RetryStorm { reject_p: 1.0 }, HostSet::of(&[2]));
        let mut always = RelayCluster::new(RelayConfig::default(), Arc::new(VecSink::new()));
        always.attach_gray(GraySchedule::new(1).with_window(
            SimTime::ZERO,
            SimTime::from_mins(60),
            aborted_spec,
        ));
        let mut wl = workload(19);
        let out = always.run(&mut wl, SimTime::from_mins(1));
        assert!(out.sessions_aborted > 0);
        assert_eq!(out.node_stats[1].completed, 0);
    }

    #[test]
    fn escaper_flap_fails_probes_on_target_only() {
        let sink = Arc::new(VecSink::new());
        let mut fleet = RelayCluster::new(RelayConfig::default(), sink.clone());
        let scenario = catalog::gray_escaper_flap(23);
        fleet.attach_gray(scenario.schedule);
        let mut wl = workload(23);
        let out = fleet.run(&mut wl, SimTime::from_mins(8));
        assert!(out.gray_injected > 0);
        let inst = fleet.instrumentation();
        let synopses = sink.drain();
        let failed_hosts: std::collections::HashSet<u16> = synopses
            .iter()
            .filter(|s| s.log_points.iter().any(|&(p, _)| p == inst.points.es_fail))
            .map(|s| s.host.0)
            .collect();
        assert_eq!(failed_hosts, std::collections::HashSet::from([1]));
        // Failures happen only in the fault window, at roughly fail_p.
        assert!(out.node_stats[0].probe_failures > 0);
        assert!(out.node_stats[0].probe_failures < out.node_stats[0].probes);
        assert_eq!(out.node_stats[0].probe_failures, out.gray_injected);
        for host in 2..=out.node_stats.len() as u16 {
            assert_eq!(out.node_stats[host as usize - 1].probe_failures, 0);
        }
        // The session-serving stages stay healthy on the flapping host.
        let st = inst.stages;
        for stage in [st.connecting, st.relaying, st.replying, st.preparing] {
            let (before, during) = stage_durations(&synopses, 1, stage);
            assert!(
                mean(&during) < mean(&before) * 1.5,
                "stage {stage:?} on host 1 must stay healthy"
            );
        }
    }
}
