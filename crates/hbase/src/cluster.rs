//! The HBase-on-HDFS deployment: routing, background activity, the hog
//! schedule, crash handling, and region reassignment.

use crate::instrument::HBaseInstrumentation;
use crate::regionserver::{RegionServer, RegionServerStats, RsTunables};
use saad_core::tracker::SynopsisSink;
use saad_core::HostId;
use saad_fault::HogSchedule;
use saad_hdfs::{DataNodeStats, HdfsCluster};
use saad_logging::appender::Appender;
use saad_logging::Level;
use saad_sim::rng::RngStreams;
use saad_sim::{ManualClock, SimDuration, SimTime};
use saad_workload::{OpKind, Operation, ThroughputRecorder};
use std::sync::Arc;

/// Configuration of the simulated HBase deployment.
#[derive(Debug, Clone)]
pub struct HBaseConfig {
    /// Number of hosts; each hosts one Regionserver and one Data Node
    /// (paper: 4).
    pub hosts: usize,
    /// Master RNG seed.
    pub seed: u64,
    /// Logging verbosity (production default: `Info`).
    pub log_level: Level,
    /// Edits per WAL group commit.
    pub group_commit_edits: u32,
    /// Longest an edit may wait before a time-triggered sync.
    pub sync_max_wait: SimDuration,
    /// Memstore size triggering a flush.
    pub memstore_flush_bytes: u64,
    /// Store file count triggering a minor compaction.
    pub compact_threshold: u32,
    /// Compaction check period.
    pub compaction_check_period: SimDuration,
    /// WAL roll period.
    pub wal_roll_period: SimDuration,
    /// Sync latency above which the DFS client starts block recovery.
    pub recovery_latency_threshold: SimDuration,
    /// Delay between recovery attempts in the buggy cycle.
    pub recovery_retry_interval: SimDuration,
    /// Retry budget before the Regionserver aborts.
    pub max_recovery_retries: u32,
    /// WAL block size assumed by recovery.
    pub wal_block_bytes: u64,
    /// When a major compaction becomes due on every Regionserver
    /// (`None` = never). The paper observes one near minute 150.
    pub major_compaction_at: Option<SimTime>,
    /// Disk-hog schedule applied to every host (Table 2).
    pub hog: HogSchedule,
    /// Regions each survivor takes over from a crashed peer.
    pub regions_per_takeover: u32,
}

impl Default for HBaseConfig {
    fn default() -> HBaseConfig {
        HBaseConfig {
            hosts: 4,
            seed: 42,
            log_level: Level::Info,
            group_commit_edits: 64,
            sync_max_wait: SimDuration::from_millis(50),
            memstore_flush_bytes: 384 * 1024,
            compact_threshold: 4,
            compaction_check_period: SimDuration::from_secs(20),
            wal_roll_period: SimDuration::from_secs(60),
            recovery_latency_threshold: SimDuration::from_secs(2),
            recovery_retry_interval: SimDuration::from_secs(5),
            max_recovery_retries: 10,
            wal_block_bytes: 32 * 1024 * 1024,
            major_compaction_at: None,
            hog: HogSchedule::new(),
            regions_per_takeover: 4,
        }
    }
}

impl HBaseConfig {
    fn tunables(&self) -> RsTunables {
        RsTunables {
            group_commit_edits: self.group_commit_edits,
            sync_max_wait: self.sync_max_wait,
            memstore_flush_bytes: self.memstore_flush_bytes,
            compact_threshold: self.compact_threshold,
            recovery_latency_threshold: self.recovery_latency_threshold,
            recovery_retry_interval: self.recovery_retry_interval,
            max_recovery_retries: self.max_recovery_retries,
            wal_block_bytes: self.wal_block_bytes,
        }
    }
}

/// Aggregated results of an HBase run.
#[derive(Debug, Clone)]
pub struct HBaseRunOutput {
    /// Completed client operations per minute window.
    pub throughput: ThroughputRecorder,
    /// ERROR log records `(time, host)` across Regionservers.
    pub errors: Vec<(SimTime, HostId)>,
    /// Operations completed / dropped.
    pub ops_completed: u64,
    /// Operations dropped (no live Regionserver for the key).
    pub ops_dropped: u64,
    /// Per-Regionserver counters.
    pub rs_stats: Vec<RegionServerStats>,
    /// Per-Data-Node counters.
    pub dn_stats: Vec<DataNodeStats>,
    /// Which Regionservers ended the run crashed.
    pub crashed: Vec<bool>,
}

/// The simulated HBase-on-HDFS deployment.
pub struct HBaseCluster {
    cfg: HBaseConfig,
    inst: HBaseInstrumentation,
    hdfs: HdfsCluster,
    rs: Vec<RegionServer>,
    next_compaction: Vec<SimTime>,
    next_roll: Vec<SimTime>,
    next_sync_check: Vec<SimTime>,
    next_hog_update: SimTime,
    major_done: Vec<bool>,
    throughput: ThroughputRecorder,
    ops_completed: u64,
    ops_dropped: u64,
    rr: usize,
}

impl std::fmt::Debug for HBaseCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HBaseCluster")
            .field("hosts", &self.rs.len())
            .field("ops_completed", &self.ops_completed)
            .finish()
    }
}

impl HBaseCluster {
    /// Build a deployment whose trackers stream synopses to `sink`.
    pub fn new(cfg: HBaseConfig, sink: Arc<dyn SynopsisSink>) -> HBaseCluster {
        HBaseCluster::with_appender(cfg, sink, None)
    }

    /// Build a deployment that also renders log records to `appender`.
    pub fn with_appender(
        cfg: HBaseConfig,
        sink: Arc<dyn SynopsisSink>,
        appender: Option<Arc<dyn Appender>>,
    ) -> HBaseCluster {
        assert!(cfg.hosts >= 1, "need at least one host");
        let clock = Arc::new(ManualClock::new());
        let inst = HBaseInstrumentation::install();
        let streams = RngStreams::new(cfg.seed);
        let hdfs = HdfsCluster::with_parts(
            cfg.hosts,
            cfg.seed,
            cfg.log_level,
            sink.clone(),
            appender.clone(),
            clock.clone(),
            inst.hdfs.clone(),
            100, // Data Node processes: hosts 101..; Regionservers: 1..
        );
        let rs: Vec<RegionServer> = (0..cfg.hosts)
            .map(|i| {
                RegionServer::new(
                    i,
                    clock.clone(),
                    &inst,
                    cfg.log_level,
                    sink.clone(),
                    appender.clone(),
                    &streams,
                )
            })
            .collect();
        let n = cfg.hosts;
        HBaseCluster {
            inst,
            hdfs,
            rs,
            next_compaction: (0..n)
                .map(|i| SimTime::from_millis(3_000 + 700 * i as u64))
                .collect(),
            next_roll: (0..n)
                .map(|i| SimTime::from_millis(5_000 + 900 * i as u64))
                .collect(),
            next_sync_check: (0..n)
                .map(|i| SimTime::from_millis(1_000 + 130 * i as u64))
                .collect(),
            next_hog_update: SimTime::ZERO,
            major_done: vec![false; n],
            throughput: ThroughputRecorder::new(SimDuration::from_mins(1)),
            ops_completed: 0,
            ops_dropped: 0,
            rr: 0,
            cfg,
        }
    }

    /// The deployment's instrumentation.
    pub fn instrumentation(&self) -> &HBaseInstrumentation {
        &self.inst
    }

    /// Drive the deployment with a pre-generated, time-sorted operation
    /// stream until virtual time `until`.
    pub fn run(&mut self, ops: &[Operation], until: SimTime) -> HBaseRunOutput {
        let tun = self.cfg.tunables();
        for op in ops {
            if op.at >= until {
                break;
            }
            self.background_until(op.at, &tun);
            let owner = self.route(op.key);
            let Some(owner) = owner else {
                self.ops_dropped += 1;
                continue;
            };
            let done = match op.kind {
                OpKind::Read => self.rs[owner].get(&mut self.hdfs, op.at, op.key),
                OpKind::Insert | OpKind::Update => {
                    self.rs[owner].put(&mut self.hdfs, op.at, op.key, op.value_size as u64, &tun)
                }
            };
            match done {
                Some(t) => {
                    self.ops_completed += 1;
                    self.throughput.record(t);
                }
                None => self.ops_dropped += 1,
            }
        }
        self.background_until(until, &tun);
        HBaseRunOutput {
            throughput: self.throughput.clone(),
            errors: self
                .rs
                .iter()
                .flat_map(|r| r.errors.iter().map(move |&t| (t, r.host)))
                .collect(),
            ops_completed: self.ops_completed,
            ops_dropped: self.ops_dropped,
            rs_stats: self.rs.iter().map(|r| r.stats).collect(),
            dn_stats: (0..self.cfg.hosts).map(|i| self.hdfs.stats(i)).collect(),
            crashed: self.rs.iter().map(|r| r.crashed).collect(),
        }
    }

    /// Route a key to a live Regionserver (regions of a crashed server are
    /// reassigned to the survivors).
    fn route(&mut self, key: u64) -> Option<usize> {
        let n = self.rs.len();
        let natural = (key as usize) % n;
        if !self.rs[natural].crashed {
            return Some(natural);
        }
        // Reassigned: spread across survivors round-robin.
        let live: Vec<usize> = (0..n).filter(|&i| !self.rs[i].crashed).collect();
        if live.is_empty() {
            return None;
        }
        self.rr = (self.rr + 1) % live.len();
        Some(live[self.rr])
    }

    fn background_until(&mut self, t: SimTime, tun: &RsTunables) {
        // Hog schedule: refresh slowdowns every 10 s of virtual time.
        while self.next_hog_update <= t {
            let at = self.next_hog_update;
            let disk = self.cfg.hog.disk_slowdown_at(at);
            let cpu = self.cfg.hog.cpu_slowdown_at(at);
            for i in 0..self.cfg.hosts {
                self.hdfs.set_disk_slowdown(i, disk);
                self.rs[i].cpu_factor = cpu;
            }
            self.next_hog_update = at + SimDuration::from_secs(10);
        }
        self.hdfs.heartbeats_until(t);
        for i in 0..self.rs.len() {
            while self.next_sync_check[i] <= t {
                let at = self.next_sync_check[i];
                self.sync_check(i, at, tun);
                self.next_sync_check[i] = at + SimDuration::from_secs(1);
            }
            while self.next_compaction[i] <= t {
                let at = self.next_compaction[i];
                let major_due = !self.major_done[i]
                    && self
                        .cfg
                        .major_compaction_at
                        .map(|m| at >= m)
                        .unwrap_or(false);
                if major_due {
                    self.major_done[i] = true;
                }
                self.rs[i].compaction_check(&mut self.hdfs, at, major_due, tun);
                self.next_compaction[i] = at + self.cfg.compaction_check_period;
            }
            while self.next_roll[i] <= t {
                let at = self.next_roll[i];
                self.rs[i].roll_wal(&mut self.hdfs, at);
                self.next_roll[i] = at + self.cfg.wal_roll_period;
            }
        }
    }

    /// Per-second check: time-triggered syncs during write droughts, and
    /// the recovery retry cycle.
    fn sync_check(&mut self, i: usize, at: SimTime, tun: &RsTunables) {
        if self.rs[i].crashed {
            return;
        }
        if self.rs[i].recovery_mode {
            if at >= self.rs[i].next_recovery_attempt {
                let aborted = self.rs[i].recovery_attempt(&mut self.hdfs, at, tun);
                if aborted {
                    self.handle_crash(i, at);
                }
            }
            return;
        }
        // Flush a lingering partial batch.
        if self.rs[i].has_pending_older_than(at, tun.sync_max_wait) {
            self.rs[i].sync_wal(&mut self.hdfs, at, tun);
        }
    }

    fn handle_crash(&mut self, crashed: usize, at: SimTime) {
        let host = self.rs[crashed].host;
        let regions = self.cfg.regions_per_takeover;
        for i in 0..self.rs.len() {
            if i != crashed {
                self.rs[i].take_over_regions(
                    &mut self.hdfs,
                    at + SimDuration::from_millis(500 + 200 * i as u64),
                    regions,
                    host,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saad_core::tracker::VecSink;
    use saad_core::StageId;
    use saad_workload::{KeyChooser, OperationMix, WorkloadGenerator};

    fn ops(seed: u64, mins: u64, rate: f64) -> Vec<Operation> {
        let mut wl = WorkloadGenerator::new(
            OperationMix::write_heavy(),
            KeyChooser::zipfian(10_000),
            rate,
            seed,
        );
        wl.ops_until(SimTime::from_mins(mins))
    }

    fn healthy_run(mins: u64) -> (HBaseCluster, HBaseRunOutput, Arc<VecSink>) {
        let sink = Arc::new(VecSink::new());
        let mut cluster = HBaseCluster::new(HBaseConfig::default(), sink.clone());
        let stream = ops(5, mins, 20.0);
        let out = cluster.run(&stream, SimTime::from_mins(mins));
        (cluster, out, sink)
    }

    #[test]
    fn healthy_run_completes_ops_without_errors() {
        let (_c, out, sink) = healthy_run(3);
        assert!(out.ops_completed > 3000, "completed={}", out.ops_completed);
        assert_eq!(out.errors.len(), 0);
        assert!(out.crashed.iter().all(|&c| !c));
        assert!(!sink.is_empty());
        let syncs: u64 = out.rs_stats.iter().map(|s| s.syncs).sum();
        assert!(syncs > 100, "syncs={syncs}");
    }

    #[test]
    fn synopses_cover_rs_and_dn_stages() {
        let (c, _out, sink) = healthy_run(3);
        let st = c.instrumentation().stages;
        let hst = c.instrumentation().hdfs.stages;
        let seen: std::collections::HashSet<StageId> =
            sink.drain().iter().map(|s| s.stage).collect();
        for required in [
            st.call,
            st.handler,
            st.data_streamer,
            st.response_processor,
            st.log_roller,
            st.compaction_checker,
            hst.data_xceiver,
            hst.packet_responder,
            hst.listener,
        ] {
            assert!(seen.contains(&required), "missing stage {required}");
        }
    }

    #[test]
    fn flushes_and_minor_compactions_happen() {
        let (_c, out, _sink) = healthy_run(6);
        let flushes: u64 = out.rs_stats.iter().map(|s| s.flushes).sum();
        let compactions: u64 = out.rs_stats.iter().map(|s| s.compactions).sum();
        assert!(flushes >= 4, "flushes={flushes}");
        assert!(compactions >= 1, "compactions={compactions}");
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let sink = Arc::new(VecSink::new());
            let mut cluster = HBaseCluster::new(HBaseConfig::default(), sink.clone());
            let stream = ops(9, 2, 20.0);
            let out = cluster.run(&stream, SimTime::from_mins(2));
            (out.ops_completed, sink.len())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn severe_hog_triggers_recovery_bug_and_crash() {
        let sink = Arc::new(VecSink::new());
        let cfg = HBaseConfig {
            // Severe hog from minute 2: disk ~6.4x slower.
            hog: HogSchedule::new().with_window(SimTime::from_mins(2), SimTime::from_mins(30), 6),
            recovery_latency_threshold: SimDuration::from_millis(400),
            recovery_retry_interval: SimDuration::from_secs(2),
            max_recovery_retries: 5,
            ..HBaseConfig::default()
        };
        let mut cluster = HBaseCluster::new(cfg, sink.clone());
        let stream = ops(11, 12, 40.0);
        let out = cluster.run(&stream, SimTime::from_mins(12));
        let crashed: Vec<usize> = (0..4).filter(|&i| out.crashed[i]).collect();
        assert!(!crashed.is_empty(), "some regionserver must abort: {out:?}");
        let attempts: u64 = out.rs_stats.iter().map(|s| s.recovery_attempts).sum();
        assert!(attempts >= 5, "attempts={attempts}");
        // The buggy cycle produced "already in recovery" responses on the
        // Data Node side and ERROR records on the Regionserver side.
        let already: u64 = out.dn_stats.iter().map(|s| s.already_in_recovery).sum();
        assert!(already > 0, "bug surface must appear: {:?}", out.dn_stats);
        assert!(!out.errors.is_empty());
        // Survivors took over regions.
        let takeovers: u64 = out.rs_stats.iter().map(|s| s.regions_taken_over).sum();
        assert!(takeovers > 0);
        // Region-lifecycle stages appear in the synopsis stream.
        let st = cluster.instrumentation().stages;
        let seen: std::collections::HashSet<StageId> =
            sink.drain().iter().map(|s| s.stage).collect();
        assert!(seen.contains(&st.open_region_handler));
        assert!(seen.contains(&st.post_open_deploy));
        assert!(seen.contains(&st.split_log_worker));
    }

    #[test]
    fn major_compaction_produces_unseen_flow() {
        let sink = Arc::new(VecSink::new());
        let cfg = HBaseConfig {
            major_compaction_at: Some(SimTime::from_mins(2)),
            ..HBaseConfig::default()
        };
        let mut cluster = HBaseCluster::new(cfg, sink.clone());
        let stream = ops(13, 3, 20.0);
        let out = cluster.run(&stream, SimTime::from_mins(3));
        let majors: u64 = out.rs_stats.iter().map(|s| s.major_compactions).sum();
        assert_eq!(majors, 4, "one major compaction per regionserver");
        let inst = cluster.instrumentation();
        let major_flows = sink
            .drain()
            .iter()
            .filter(|s| s.has_point(inst.points.cr_major))
            .count();
        assert_eq!(major_flows as u64, majors);
    }

    #[test]
    fn moderate_hog_slows_gets_without_recovery() {
        let run = |hog: HogSchedule| {
            let sink = Arc::new(VecSink::new());
            let cfg = HBaseConfig {
                hog,
                ..HBaseConfig::default()
            };
            let mut cluster = HBaseCluster::new(cfg, sink.clone());
            let stream = ops(15, 4, 20.0);
            let out = cluster.run(&stream, SimTime::from_mins(4));
            let inst = cluster.instrumentation();
            let get_durs: Vec<f64> = sink
                .drain()
                .iter()
                .filter(|s| s.stage == inst.stages.call && s.has_point(inst.points.ca_get_mem))
                .map(|s| s.duration.as_micros() as f64)
                .collect();
            (
                out.crashed.iter().any(|&c| c),
                get_durs.iter().sum::<f64>() / get_durs.len().max(1) as f64,
            )
        };
        let (crashed_a, base) = run(HogSchedule::new());
        let (crashed_b, hogged) = run(HogSchedule::new()
            .with_window(SimTime::ZERO, SimTime::from_mins(30), 2)
            .with_factors(0.9, 0.5));
        assert!(!crashed_a && !crashed_b, "medium hog must not crash");
        assert!(
            hogged > base * 1.5,
            "CPU contention must slow gets: base={base} hogged={hogged}"
        );
    }
}
