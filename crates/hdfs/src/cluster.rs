//! The Data Node tier: replicated write pipelines, reads, recovery,
//! transfers, and background IPC.

use crate::datanode::{DataNode, DataNodeStats};
use crate::instrument::HdfsInstrumentation;
use rand::rngs::StdRng;
use rand::Rng;
use saad_core::simtask::{SimTask, SuspendedSimTask};
use saad_core::tracker::SynopsisSink;
use saad_logging::appender::Appender;
use saad_logging::Level;
use saad_sim::resource::{IoKind, IoRequest};
use saad_sim::rng::{lognormal_sample, RngStreams};
use saad_sim::{ManualClock, SimDuration, SimTime};
use std::sync::Arc;

/// Handle to an open (in-flight) block write pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockHandle(usize);

/// Acknowledgement of one pipelined packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketAck {
    /// When the ack reached the writing client.
    pub acked_at: SimTime,
}

/// Outcome of a block recovery request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryResponse {
    /// The node is already recovering this block — the response the buggy
    /// HBase client library misinterprets as an exception (paper §5.5).
    AlreadyInProgress {
        /// When the response was sent.
        responded_at: SimTime,
    },
    /// Recovery ran to completion.
    Recovered {
        /// When recovery (including the data transfer) finished.
        done: SimTime,
    },
}

struct OpenBlock {
    block_id: u64,
    replicas: Vec<usize>,
    dx: Vec<Option<SuspendedSimTask>>,
    pr: Vec<Option<SuspendedSimTask>>,
    packets: u32,
}

/// A simulated HDFS Data Node tier.
pub struct HdfsCluster {
    inst: HdfsInstrumentation,
    nodes: Vec<DataNode>,
    open: Vec<Option<OpenBlock>>,
    free: Vec<usize>,
    next_block_id: u64,
    next_heartbeat: Vec<SimTime>,
    heartbeat_period: SimDuration,
    rng: StdRng,
}

impl std::fmt::Debug for HdfsCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HdfsCluster")
            .field("nodes", &self.nodes.len())
            .field("open_blocks", &(self.open.len() - self.free.len()))
            .finish()
    }
}

impl HdfsCluster {
    /// Build a standalone Data Node tier with its own clock and fresh
    /// registries.
    pub fn new(nodes: usize, seed: u64, level: Level, sink: Arc<dyn SynopsisSink>) -> HdfsCluster {
        HdfsCluster::with_parts(
            nodes,
            seed,
            level,
            sink,
            None,
            Arc::new(ManualClock::new()),
            HdfsInstrumentation::install(),
            0,
        )
    }

    /// Build a Data Node tier embedded in a larger deployment: shared
    /// clock, shared registries (pre-installed instrumentation), an
    /// optional appender, and a host-id offset (HBase collocates one Data
    /// Node with each Regionserver on the same host).
    #[allow(clippy::too_many_arguments)]
    pub fn with_parts(
        nodes: usize,
        seed: u64,
        level: Level,
        sink: Arc<dyn SynopsisSink>,
        appender: Option<Arc<dyn Appender>>,
        clock: Arc<ManualClock>,
        inst: HdfsInstrumentation,
        first_host: u16,
    ) -> HdfsCluster {
        assert!(nodes >= 1, "need at least one data node");
        let streams = RngStreams::new(seed ^ 0x4844_4653); // "HDFS"
        let dn: Vec<DataNode> = (0..nodes)
            .map(|i| {
                DataNode::new(
                    i,
                    saad_core::HostId(first_host + i as u16 + 1),
                    clock.clone(),
                    &inst,
                    level,
                    sink.clone(),
                    appender.clone(),
                    &streams,
                )
            })
            .collect();
        HdfsCluster {
            inst,
            nodes: dn,
            open: Vec::new(),
            free: Vec::new(),
            next_block_id: 1000,
            next_heartbeat: (0..nodes)
                .map(|i| SimTime::from_millis(2_000 + 400 * i as u64))
                .collect(),
            heartbeat_period: SimDuration::from_secs(10),
            rng: streams.stream("hdfs-cluster"),
        }
    }

    /// The instrumentation of this tier.
    pub fn instrumentation(&self) -> &HdfsInstrumentation {
        &self.inst
    }

    /// Number of Data Nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Stats for one node.
    pub fn stats(&self, node: usize) -> DataNodeStats {
        self.nodes[node].stats
    }

    /// Set the disk-hog slowdown factor on one node's disk.
    pub fn set_disk_slowdown(&mut self, node: usize, factor: f64) {
        self.nodes[node].disk.set_slowdown(factor);
    }

    fn net(&mut self) -> SimDuration {
        SimDuration::from_secs_f64(120e-6 * lognormal_sample(&mut self.rng, 0.0, 0.3))
    }

    /// Open a block write pipeline through `replicas` (upstream first).
    /// Starts the long-lived DataXceiver and PacketResponder tasks on each
    /// replica.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is empty or contains an out-of-range index.
    pub fn open_block(&mut self, at: SimTime, replicas: &[usize]) -> BlockHandle {
        assert!(!replicas.is_empty(), "pipeline needs at least one replica");
        let block_id = self.next_block_id;
        self.next_block_id += 1;
        let mut dx = Vec::with_capacity(replicas.len());
        let mut pr = Vec::with_capacity(replicas.len());
        let mut arrive = at;
        for &r in replicas {
            let hop = self.net();
            let node = &mut self.nodes[r];
            let st = node.st;
            let pt = node.pt;
            let logger = node.log.dx.clone();
            let mut t = node.task(st.data_xceiver, &logger, arrive);
            t.info(
                pt.dx_recv_block,
                format_args!("Receiving block blk_{block_id}"),
            );
            let d = node.cpu(80.0);
            t.advance(d);
            dx.push(Some(t.suspend()));

            let logger = node.log.pr.clone();
            let p = node.task(st.packet_responder, &logger, arrive);
            pr.push(Some(p.suspend()));

            arrive += hop;
        }
        let ob = OpenBlock {
            block_id,
            replicas: replicas.to_vec(),
            dx,
            pr,
            packets: 0,
        };
        let idx = if let Some(i) = self.free.pop() {
            self.open[i] = Some(ob);
            i
        } else {
            self.open.push(Some(ob));
            self.open.len() - 1
        };
        BlockHandle(idx)
    }

    /// Stream one packet down the pipeline; each replica receives, writes
    /// to its blockfile, and relays; acks chain back upstream through the
    /// PacketResponders.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale (block already closed).
    pub fn write_packet(&mut self, handle: BlockHandle, at: SimTime, bytes: u64) -> PacketAck {
        let mut ob = self.open[handle.0].take().expect("block is open");
        ob.packets += 1;
        let n = ob.replicas.len();
        let empty = bytes == 0 || self.rng.gen_bool(0.0001);
        let mut arrival = at;
        let mut write_done: Vec<SimTime> = Vec::with_capacity(n);
        for i in 0..n {
            let hop = self.net();
            let r = ob.replicas[i];
            let node = &mut self.nodes[r];
            let pt = node.pt;
            let logger = node.log.dx.clone();
            let tracker = node.tracker.clone();
            let clock = node.clock_handle();
            let susp = ob.dx[i].take().expect("dx task suspended");
            let mut t = SimTask::resume(&tracker, &clock, &logger, susp);
            t.advance_to(arrival);
            t.debug(
                pt.dx_recv_packet,
                format_args!("Receiving one packet for blk_{}", ob.block_id),
            );
            node.stats.packets += 1;
            if empty {
                t.debug(
                    pt.dx_empty_packet,
                    format_args!("Receiving empty packet for blk_{}", ob.block_id),
                );
                write_done.push(t.now());
            } else {
                t.debug(
                    pt.dx_write,
                    format_args!("WriteTo blockfile of size {bytes}"),
                );
                let c = node.disk.submit(
                    t.now(),
                    IoRequest {
                        kind: IoKind::Write,
                        bytes,
                        class: "blockfile",
                    },
                );
                write_done.push(c.done);
            }
            let d = node.cpu(30.0);
            t.advance(d);
            arrival = t.now() + hop; // relay downstream without waiting for disk
            ob.dx[i] = Some(t.suspend());
        }
        // Acks chain upstream: each replica acks once its own write and
        // the downstream ack are both in.
        let mut ack = *write_done.last().expect("non-empty pipeline");
        for i in (0..n).rev() {
            let hop = self.net();
            ack = ack.max(write_done[i]);
            let r = ob.replicas[i];
            let node = &mut self.nodes[r];
            let pt = node.pt;
            let logger = node.log.pr.clone();
            let tracker = node.tracker.clone();
            let clock = node.clock_handle();
            let susp = ob.pr[i].take().expect("pr task suspended");
            let mut p = SimTask::resume(&tracker, &clock, &logger, susp);
            p.advance_to(ack);
            p.debug(
                pt.pr_ack,
                format_args!(
                    "PacketResponder for blk_{}: acking packet seqno {}",
                    ob.block_id, ob.packets
                ),
            );
            ack = p.now() + hop;
            ob.pr[i] = Some(p.suspend());
        }
        self.open[handle.0] = Some(ob);
        PacketAck { acked_at: ack }
    }

    /// Close the pipeline: every DataXceiver logs `Closing down.` and every
    /// PacketResponder terminates. Returns the time the last task ended.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale.
    pub fn close_block(&mut self, handle: BlockHandle, at: SimTime) -> SimTime {
        let mut ob = self.open[handle.0].take().expect("block is open");
        let mut last = at;
        for i in 0..ob.replicas.len() {
            let r = ob.replicas[i];
            let node = &mut self.nodes[r];
            let pt = node.pt;
            let tracker = node.tracker.clone();
            let clock = node.clock_handle();

            let logger = node.log.dx.clone();
            let susp = ob.dx[i].take().expect("dx task suspended");
            let mut t = SimTask::resume(&tracker, &clock, &logger, susp);
            t.advance_to(at);
            t.info(pt.dx_close, format_args!("Closing down."));
            last = last.max(t.finish());
            node.stats.blocks_written += 1;

            let logger = node.log.pr.clone();
            let susp = ob.pr[i].take().expect("pr task suspended");
            let mut p = SimTask::resume(&tracker, &clock, &logger, susp);
            p.advance_to(at);
            p.info(
                pt.pr_term,
                format_args!("PacketResponder for blk_{} terminating", ob.block_id),
            );
            last = last.max(p.finish());
        }
        self.free.push(handle.0);
        last
    }

    /// Serve a block read on `node`. Returns the completion time.
    pub fn read_block(&mut self, at: SimTime, node: usize, bytes: u64) -> SimTime {
        let block_id = self.next_block_id; // any historical block
        let dn = &mut self.nodes[node];
        let st = dn.st;
        let pt = dn.pt;
        let logger = dn.log.dx.clone();
        let mut t = dn.task(st.data_xceiver, &logger, at);
        t.debug(
            pt.dx_read_block,
            format_args!("Sending block blk_{block_id} to client"),
        );
        let c = dn.disk.submit(
            t.now(),
            IoRequest {
                kind: IoKind::Read,
                bytes,
                class: "blockfile",
            },
        );
        t.advance_to(c.done);
        t.debug(
            pt.dx_sent,
            format_args!("Sent block blk_{block_id}; {bytes} bytes"),
        );
        dn.stats.reads += 1;
        t.finish()
    }

    /// Ask `node` to recover a block (RecoverBlocks stage). If a recovery
    /// is already in flight the node answers *already in recovery* —
    /// otherwise it reads the block, transfers it (DataTransfer stage),
    /// and confirms.
    pub fn recover_block(
        &mut self,
        at: SimTime,
        node: usize,
        block_bytes: u64,
    ) -> RecoveryResponse {
        let block_id = self.next_block_id;
        let dn = &mut self.nodes[node];
        let st = dn.st;
        let pt = dn.pt;
        let logger = dn.log.rb.clone();
        let mut t = dn.task(st.recover_blocks, &logger, at);
        t.info(
            pt.rb_start,
            format_args!("Client invoking recoverBlock for blk_{block_id}"),
        );
        let d = dn.cpu(120.0);
        t.advance(d);
        if t.now() < dn.recovering_until {
            dn.stats.already_in_recovery += 1;
            t.info(
                pt.rb_already,
                format_args!(
                    "Block blk_{block_id} is already being recovered, ignoring this request"
                ),
            );
            let responded_at = t.finish();
            return RecoveryResponse::AlreadyInProgress { responded_at };
        }
        // Recovery occupies the node from the moment it is accepted.
        dn.recovering_until = SimTime::from_micros(u64::MAX / 4);
        // Re-read the replica under recovery.
        let c = dn.disk.submit(
            t.now(),
            IoRequest {
                kind: IoKind::Read,
                bytes: block_bytes,
                class: "blockfile",
            },
        );
        t.advance_to(c.done);
        let susp = t.suspend();

        // DataTransfer of the recovered replica to a peer.
        let dn = &mut self.nodes[node];
        let logger_dt = dn.log.dt.clone();
        let mut dt = dn.task(st.data_transfer, &logger_dt, susp.now());
        dt.info(
            pt.dt_send,
            format_args!("Starting DataTransfer of blk_{block_id} to peer"),
        );
        let c = dn.disk.submit(
            dt.now(),
            IoRequest {
                kind: IoKind::Read,
                bytes: block_bytes,
                class: "blockfile",
            },
        );
        dt.advance_to(c.done);
        dt.debug(
            pt.dt_done,
            format_args!("DataTransfer of blk_{block_id} done"),
        );
        dn.stats.transfers += 1;
        let transferred = dt.finish();

        let dn = &mut self.nodes[node];
        let tracker = dn.tracker.clone();
        let clock = dn.clock_handle();
        let logger = dn.log.rb.clone();
        let mut t = SimTask::resume(&tracker, &clock, &logger, susp);
        t.advance_to(transferred);
        t.info(
            pt.rb_done,
            format_args!("Block recovery of blk_{block_id} complete"),
        );
        dn.stats.recoveries += 1;
        let done = t.finish();
        dn.recovering_until = done;
        RecoveryResponse::Recovered { done }
    }

    /// Run background IPC heartbeats (Listener/Reader/Handler) up to `t`.
    pub fn heartbeats_until(&mut self, t: SimTime) {
        for i in 0..self.nodes.len() {
            while self.next_heartbeat[i] <= t {
                let at = self.next_heartbeat[i];
                self.nodes[i].heartbeat(at);
                self.next_heartbeat[i] = at + self.heartbeat_period;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saad_core::tracker::VecSink;
    use saad_core::StageId;

    fn cluster() -> (HdfsCluster, Arc<VecSink>) {
        let sink = Arc::new(VecSink::new());
        let c = HdfsCluster::new(4, 7, Level::Info, sink.clone());
        (c, sink)
    }

    #[test]
    fn pipeline_produces_figure3_signature() {
        let (mut c, sink) = cluster();
        let h = c.open_block(SimTime::ZERO, &[0, 1, 2]);
        let mut t = SimTime::from_millis(1);
        for _ in 0..10 {
            let ack = c.write_packet(h, t, 16 * 1024);
            assert!(ack.acked_at > t);
            t = ack.acked_at + SimDuration::from_millis(5);
        }
        c.close_block(h, t);
        let synopses = sink.drain();
        // 3 DataXceiver + 3 PacketResponder tasks.
        assert_eq!(synopses.len(), 6);
        let inst = c.instrumentation();
        let dx: Vec<_> = synopses
            .iter()
            .filter(|s| s.stage == inst.stages.data_xceiver)
            .collect();
        assert_eq!(dx.len(), 3);
        for s in &dx {
            // Signature [recv_block, recv_packet, write, close] = paper's
            // normal flow [L1, L2, L4, L5].
            let sig = s.signature();
            assert!(sig.contains(inst.points.dx_recv_block));
            assert!(sig.contains(inst.points.dx_recv_packet));
            assert!(sig.contains(inst.points.dx_write));
            assert!(sig.contains(inst.points.dx_close));
            assert!(!sig.contains(inst.points.dx_empty_packet));
            // Packet-loop points visited once per packet (frequency 10).
            let freq = s
                .log_points
                .iter()
                .find(|&&(p, _)| p == inst.points.dx_recv_packet)
                .unwrap()
                .1;
            assert_eq!(freq, 10);
        }
        let pr: Vec<_> = synopses
            .iter()
            .filter(|s| s.stage == inst.stages.packet_responder)
            .collect();
        assert_eq!(pr.len(), 3);
        for s in &pr {
            assert!(s.has_point(inst.points.pr_ack));
            assert!(s.has_point(inst.points.pr_term));
        }
    }

    #[test]
    fn acks_chain_upstream_through_all_replicas() {
        let (mut c, _sink) = cluster();
        let h = c.open_block(SimTime::ZERO, &[0, 1, 2]);
        let ack = c.write_packet(h, SimTime::from_millis(1), 64 * 1024);
        // One packet must cost at least one disk latency (4 ms).
        assert!(ack.acked_at >= SimTime::from_millis(5));
        c.close_block(h, ack.acked_at);
    }

    #[test]
    fn slowdown_stretches_acks() {
        let run = |slow: f64| {
            let (mut c, _s) = cluster();
            for i in 0..3 {
                c.set_disk_slowdown(i, slow);
            }
            let h = c.open_block(SimTime::ZERO, &[0, 1, 2]);
            let ack = c.write_packet(h, SimTime::from_millis(1), 256 * 1024);
            c.close_block(h, ack.acked_at);
            ack.acked_at
        };
        let fast = run(1.0);
        let slow = run(4.6);
        assert!(slow > fast, "hog must delay acks: {fast} vs {slow}");
    }

    #[test]
    fn read_block_produces_read_flow() {
        let (mut c, sink) = cluster();
        c.read_block(SimTime::ZERO, 1, 128 * 1024);
        let s = sink.drain();
        assert_eq!(s.len(), 1);
        let inst = c.instrumentation();
        assert!(s[0].has_point(inst.points.dx_read_block));
        assert!(!s[0].has_point(inst.points.dx_recv_block));
        assert_eq!(c.stats(1).reads, 1);
    }

    #[test]
    fn overlapping_recovery_answers_already_in_progress() {
        let (mut c, sink) = cluster();
        let r1 = c.recover_block(SimTime::ZERO, 2, 8 * 1024 * 1024);
        let RecoveryResponse::Recovered { done } = r1 else {
            panic!("first recovery must run");
        };
        assert!(done > SimTime::ZERO);
        // A second request arriving *before* the first finishes gets the
        // "already being recovered" answer — the bug surface.
        let r2 = c.recover_block(SimTime::from_millis(1), 2, 8 * 1024 * 1024);
        assert!(
            matches!(r2, RecoveryResponse::AlreadyInProgress { .. }),
            "got {r2:?}"
        );
        assert_eq!(c.stats(2).already_in_recovery, 1);
        assert_eq!(c.stats(2).recoveries, 1);
        // And a request after completion recovers again.
        let r3 = c.recover_block(done + SimDuration::from_secs(1), 2, 8 * 1024 * 1024);
        assert!(matches!(r3, RecoveryResponse::Recovered { .. }));
        let inst = c.instrumentation();
        let synopses = sink.drain();
        assert!(synopses.iter().any(|s| s.has_point(inst.points.rb_already)));
        assert!(synopses.iter().any(|s| s.has_point(inst.points.rb_done)));
        assert!(synopses
            .iter()
            .any(|s| s.stage == inst.stages.data_transfer));
    }

    #[test]
    fn heartbeats_cover_ipc_stages() {
        let (mut c, sink) = cluster();
        c.heartbeats_until(SimTime::from_secs(60));
        let inst = c.instrumentation();
        let seen: std::collections::HashSet<StageId> =
            sink.drain().iter().map(|s| s.stage).collect();
        assert!(seen.contains(&inst.stages.listener));
        assert!(seen.contains(&inst.stages.reader));
        assert!(seen.contains(&inst.stages.handler));
        assert!(c.stats(0).heartbeats >= 5);
    }

    #[test]
    fn write_and_reads_are_deterministic() {
        let run = || {
            let (mut c, sink) = cluster();
            let h = c.open_block(SimTime::ZERO, &[0, 1, 2]);
            let mut t = SimTime::from_millis(1);
            for _ in 0..5 {
                t = c.write_packet(h, t, 32 * 1024).acked_at;
            }
            let end = c.close_block(h, t);
            (end, sink.len())
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic]
    fn stale_handle_panics() {
        let (mut c, _s) = cluster();
        let h = c.open_block(SimTime::ZERO, &[0]);
        c.close_block(h, SimTime::from_millis(1));
        c.write_packet(h, SimTime::from_millis(2), 100);
    }

    #[test]
    #[should_panic]
    fn empty_pipeline_rejected() {
        let (mut c, _s) = cluster();
        c.open_block(SimTime::ZERO, &[]);
    }
}
