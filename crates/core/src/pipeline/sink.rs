//! The producer edge of the pipeline: the sinks trackers submit to, and
//! the drop accounting of a bounded sink. Everything a tracker sends a
//! pool is interned here, into [`SynopsisBatch`]es, against that pool's
//! interner.

use crate::batch::SynopsisBatch;
use crate::intern::SignatureInterner;
use crate::model::{ModelBuilder, ModelConfig, OutlierModel};
use crate::synopsis::TaskSynopsis;
use crate::tracker::SynopsisSink;
use crate::transport::LossReport;
use crate::HostId;
use crossbeam_channel::{bounded, unbounded, Receiver, SendTimeoutError, Sender, TrySendError};
use saad_obs::Registry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What a bounded sink ([`BatchSink::bounded`], the network agent's queue)
/// does when its queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Discard what is being submitted (the newest). The producer never
    /// waits.
    DropNewest,
    /// Evict the oldest queued entry to make room. The producer never
    /// waits; the analyzer sees the freshest data.
    DropOldest,
    /// Wait up to `timeout` for space, then discard the submission. Bounds
    /// how long monitoring may ever stall a server thread.
    Block {
        /// Longest a single submit may wait for queue space.
        timeout: Duration,
    },
}

/// Exact counts of synopses a sink dropped, by reason.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropCounts {
    /// Dropped by [`OverloadPolicy::DropNewest`] (or bounded-retry
    /// exhaustion under [`OverloadPolicy::DropOldest`]).
    pub newest: u64,
    /// Evicted by [`OverloadPolicy::DropOldest`].
    pub oldest: u64,
    /// Timed out under [`OverloadPolicy::Block`].
    pub timed_out: u64,
    /// Discarded because the analyzer is gone.
    pub disconnected: u64,
}

impl DropCounts {
    /// Sum over all reasons.
    pub fn total(&self) -> u64 {
        self.newest + self.oldest + self.timed_out + self.disconnected
    }
}

/// One [`DropCounts`] being counted, a relaxed atomic per reason: producers
/// never contend on a mutex. [`offer`] names a reason by its field here.
#[derive(Debug, Default)]
pub struct DropCounters {
    /// See [`DropCounts::newest`].
    pub newest: AtomicU64,
    /// See [`DropCounts::oldest`].
    pub oldest: AtomicU64,
    /// See [`DropCounts::timed_out`].
    pub timed_out: AtomicU64,
    /// See [`DropCounts::disconnected`].
    pub disconnected: AtomicU64,
}

impl DropCounters {
    /// The counts so far.
    pub fn snapshot(&self) -> DropCounts {
        DropCounts {
            newest: self.newest.load(Ordering::Relaxed),
            oldest: self.oldest.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            disconnected: self.disconnected.load(Ordering::Relaxed),
        }
    }
}

/// Shared, exact drop accounting for one sink.
///
/// The per-host table takes a write lock only the first time a host drops
/// anything; every subsequent drop is a read-lock plus one relaxed atomic
/// add, so overloaded producers do not serialize on a global mutex.
#[derive(Debug, Default)]
pub struct SinkStats {
    total: AtomicU64,
    by_host: parking_lot::RwLock<HashMap<HostId, Arc<DropCounters>>>,
}

impl SinkStats {
    fn counters(&self, host: HostId) -> Arc<DropCounters> {
        if let Some(c) = self.by_host.read().get(&host) {
            return c.clone();
        }
        self.by_host.write().entry(host).or_default().clone()
    }

    /// Count every element of a batch that never reached the analyzer
    /// against its own host, on the counter `reason` picks.
    fn record(&self, batch: &SynopsisBatch, reason: impl Fn(&DropCounters) -> &AtomicU64) {
        for &host in &batch.hosts {
            self.total.fetch_add(1, Ordering::Relaxed);
            reason(&self.counters(host)).fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total synopses dropped, all hosts and reasons.
    pub fn dropped(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Per-host drop counts.
    pub fn drops_by_host(&self) -> HashMap<HostId, DropCounts> {
        self.by_host
            .read()
            .iter()
            .map(|(&host, c)| (host, c.snapshot()))
            .collect()
    }

    /// Drop counts for one host (zeroes if nothing was dropped).
    pub fn drops_for(&self, host: HostId) -> DropCounts {
        self.by_host
            .read()
            .get(&host)
            .map(|c| c.snapshot())
            .unwrap_or_default()
    }

    /// Drop counts summed over every host, broken down by reason.
    pub(crate) fn drop_totals(&self) -> DropCounts {
        self.by_host
            .read()
            .values()
            .map(|c| c.snapshot())
            .fold(DropCounts::default(), |acc, c| DropCounts {
                newest: acc.newest + c.newest,
                oldest: acc.oldest + c.oldest,
                timed_out: acc.timed_out + c.timed_out,
                disconnected: acc.disconnected + c.disconnected,
            })
    }

    /// Expose this sink's drop accounting in `registry`, one counter
    /// series per drop reason, labelled with the queue name. Scrape-time
    /// only: the hot drop path is untouched.
    pub fn register_metrics(self: &Arc<Self>, registry: &Registry, queue: &str) {
        let register = |reason: &str, count: fn(DropCounts) -> u64| {
            let stats = Arc::clone(self);
            registry.register_counter_fn(
                "saad_sink_dropped_total",
                "Synopses dropped by a bounded sink, by reason",
                &[("queue", queue), ("reason", reason)],
                move || count(stats.drop_totals()),
            );
        };
        register("newest", |c| c.newest);
        register("oldest", |c| c.oldest);
        register("timed_out", |c| c.timed_out);
        register("disconnected", |c| c.disconnected);
    }
}

/// Bound on eviction retries under [`OverloadPolicy::DropOldest`]: give up
/// rather than livelock when other producers keep refilling the evicted
/// slot.
const DROP_OLDEST_RETRIES: usize = 64;

/// Offer `item` to the queue behind `tx` under `policy` — the overload
/// policy of every bounded queue in the tree. `None` is an unbounded
/// queue, which only a vanished receiver refuses; `evict`, a clone of the
/// queue's receiver, is what [`OverloadPolicy::DropOldest`] makes room
/// through (and panics without). Every item that does not stay queued —
/// the one offered or one evicted for it — goes to `refused` with the
/// counter of its reason: the caller counts it in its own unit and
/// reclaims what it can.
pub fn offer<T>(
    tx: &Sender<T>,
    evict: Option<&Receiver<T>>,
    policy: Option<OverloadPolicy>,
    mut item: T,
    mut refused: impl FnMut(T, fn(&DropCounters) -> &AtomicU64),
) {
    // `DropNewest` is `DropOldest` that tries once and evicts nothing.
    let (tries, evict) = match policy {
        None => {
            return match tx.send(item) {
                Ok(()) => {}
                Err(e) => refused(e.0, |c| &c.disconnected),
            }
        }
        Some(OverloadPolicy::Block { timeout }) => {
            return match tx.send_timeout(item, timeout) {
                Ok(()) => {}
                Err(SendTimeoutError::Timeout(item)) => refused(item, |c| &c.timed_out),
                Err(SendTimeoutError::Disconnected(item)) => refused(item, |c| &c.disconnected),
            }
        }
        Some(OverloadPolicy::DropNewest) => (1, None),
        Some(OverloadPolicy::DropOldest) => {
            let evict = evict.expect("DropOldest evicts through a receiver clone");
            (DROP_OLDEST_RETRIES, Some(evict))
        }
    };
    for _ in 0..tries {
        match tx.try_send(item) {
            Ok(()) => return,
            Err(TrySendError::Disconnected(item)) => return refused(item, |c| &c.disconnected),
            Err(TrySendError::Full(back)) => item = back,
        }
        if let Some(old) = evict.and_then(|queue| queue.try_recv().ok()) {
            refused(old, |c| &c.oldest);
        }
    }
    refused(item, |c| &c.newest);
}

/// A [`SynopsisSink`] that accumulates synopses into SoA
/// [`SynopsisBatch`]es and emits ONE channel send per full batch — the
/// producer half of the batch-first hot path (pair the receiver with
/// [`spawn_analyzer_pool`](super::spawn_analyzer_pool), sharing the same
/// interner).
///
/// Interning happens here, at the edge, so everything downstream works in
/// dense column arrays. Dropping the sink flushes the partial batch;
/// [`BatchSink::flush`] forces one out early (e.g. at a quiesce point).
///
/// [`BatchSink::new`] gives the paper's unbounded queue;
/// [`BatchSink::bounded`] adds backpressure with a chosen
/// [`OverloadPolicy`]. Either way every synopsis of a batch that does not
/// reach the queue is counted against its host in [`SinkStats`] — dropping
/// is a measured, observable act, never a silent one. A transport gap
/// ([`BatchSink::record_loss`]) is never dropped: a refused or evicted
/// batch hands its reports to the next one.
#[derive(Debug)]
pub struct BatchSink {
    tx: Sender<SynopsisBatch>,
    /// Receiver clone used to evict under [`OverloadPolicy::DropOldest`].
    evict: Option<Receiver<SynopsisBatch>>,
    policy: Option<OverloadPolicy>,
    stats: Arc<SinkStats>,
    interner: Arc<SignatureInterner>,
    batch_len: usize,
    buf: parking_lot::Mutex<SynopsisBatch>,
}

impl BatchSink {
    /// Create a sink batching `batch_len` synopses per send, interning
    /// into `interner`, plus the receiver for the batch stream. Sends
    /// never block and never drop while the analyzer lives.
    ///
    /// # Panics
    ///
    /// Panics if `batch_len` is zero.
    pub fn new(
        batch_len: usize,
        interner: Arc<SignatureInterner>,
    ) -> (BatchSink, Receiver<SynopsisBatch>) {
        BatchSink::over(unbounded(), None, batch_len, interner)
    }

    /// Like [`BatchSink::new`], over a queue holding at most
    /// `queue_batches` full batches and resolving overload with `policy`.
    /// The unit of refusal and eviction is a whole batch; its synopses
    /// are counted one by one.
    ///
    /// # Panics
    ///
    /// Panics if `queue_batches` or `batch_len` is zero.
    pub fn bounded(
        queue_batches: usize,
        batch_len: usize,
        policy: OverloadPolicy,
        interner: Arc<SignatureInterner>,
    ) -> (BatchSink, Receiver<SynopsisBatch>) {
        assert!(queue_batches > 0, "sink capacity must be positive");
        BatchSink::over(bounded(queue_batches), Some(policy), batch_len, interner)
    }

    fn over(
        (tx, rx): (Sender<SynopsisBatch>, Receiver<SynopsisBatch>),
        policy: Option<OverloadPolicy>,
        batch_len: usize,
        interner: Arc<SignatureInterner>,
    ) -> (BatchSink, Receiver<SynopsisBatch>) {
        assert!(batch_len > 0, "batch capacity must be positive");
        let sink = BatchSink {
            tx,
            evict: matches!(policy, Some(OverloadPolicy::DropOldest)).then(|| rx.clone()),
            policy,
            stats: Arc::new(SinkStats::default()),
            interner,
            batch_len,
            buf: parking_lot::Mutex::new(SynopsisBatch::with_capacity(batch_len)),
        };
        (sink, rx)
    }

    /// Shared drop statistics (live — counts keep updating).
    pub fn stats(&self) -> Arc<SinkStats> {
        self.stats.clone()
    }

    /// Expose this sink's queue depth (in batches) and drop accounting in
    /// `registry` under the given queue name. `rx` is the receiver half
    /// returned alongside this sink — a clone of it measures depth
    /// without ever consuming a message.
    pub fn register_metrics(&self, registry: &Registry, queue: &str, rx: &Receiver<SynopsisBatch>) {
        let depth = rx.clone();
        registry.register_gauge_fn(
            "saad_sink_queue_depth",
            "Batches queued between producers and the analyzer",
            &[("queue", queue)],
            move || depth.len() as i64,
        );
        self.stats.register_metrics(registry, queue);
    }

    /// Send whatever is buffered, even a partial batch. No send happens
    /// when the buffer holds neither a synopsis nor a gap report.
    pub fn flush(&self) {
        let partial = {
            let mut buf = self.buf.lock();
            if buf.is_empty() && buf.losses.is_empty() {
                return;
            }
            std::mem::replace(&mut *buf, SynopsisBatch::with_capacity(self.batch_len))
        };
        self.send(partial);
    }

    /// Charge a transport gap ahead of whatever is submitted next: the
    /// buffered synopses go out first, and `report` rides on the batch
    /// after them.
    pub fn record_loss(&self, report: LossReport) {
        self.flush();
        self.buf.lock().losses.push(report);
    }

    /// Hand one batch to the queue under the sink's policy, counting it
    /// element by element if the queue refuses or evicts it, and handing
    /// its gap reports on to the buffer. Called with the buffer lock
    /// released: a producer waiting out [`OverloadPolicy::Block`] stalls
    /// nobody who is still filling.
    fn send(&self, batch: SynopsisBatch) {
        let (evict, stats) = (self.evict.as_ref(), &self.stats);
        offer(&self.tx, evict, self.policy, batch, |mut batch, reason| {
            stats.record(&batch, reason);
            self.buf.lock().losses.append(&mut batch.losses);
        });
    }
}

impl SynopsisSink for BatchSink {
    fn submit(&self, synopsis: TaskSynopsis) {
        let full = {
            let mut buf = self.buf.lock();
            buf.push_synopsis(&synopsis, &self.interner);
            if buf.len() < self.batch_len {
                return;
            }
            std::mem::replace(&mut *buf, SynopsisBatch::with_capacity(self.batch_len))
        };
        self.send(full);
    }
}

impl Drop for BatchSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// A sink that feeds synopses straight into a [`ModelBuilder`] —
/// train from a simulated run without buffering millions of synopses.
#[derive(Debug, Default)]
pub struct ModelSink {
    builder: parking_lot::Mutex<ModelBuilder>,
}

impl ModelSink {
    /// Create a sink over an empty builder.
    pub fn new() -> ModelSink {
        ModelSink::default()
    }

    /// Number of synopses observed.
    pub fn observed(&self) -> u64 {
        self.builder.lock().observed()
    }

    /// Build the model from everything observed so far.
    pub fn build(&self, config: ModelConfig) -> OutlierModel {
        self.builder.lock().build(config)
    }
}

impl SynopsisSink for ModelSink {
    fn submit(&self, synopsis: TaskSynopsis) {
        self.builder.lock().observe(&synopsis);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{synopsis, synopsis_on};
    use crate::TaskUid;
    use saad_sim::SimTime;

    /// A bounded sink of one-synopsis batches: the queue bound and every
    /// drop count read in synopses.
    fn bounded_by_one(
        queue: usize,
        policy: OverloadPolicy,
    ) -> (BatchSink, Receiver<SynopsisBatch>) {
        BatchSink::bounded(queue, 1, policy, Arc::new(SignatureInterner::new()))
    }

    fn queued_uids(rx: &Receiver<SynopsisBatch>) -> Vec<u64> {
        rx.try_iter()
            .flat_map(|mut batch| std::mem::take(&mut batch.uids))
            .map(|uid| uid.0)
            .collect()
    }

    #[test]
    fn model_sink_trains_inline() {
        let sink = ModelSink::new();
        for i in 0..200u64 {
            sink.submit(synopsis(&[1, 2], 1_000, SimTime::ZERO, i));
        }
        assert_eq!(sink.observed(), 200);
        let model = sink.build(ModelConfig::default());
        assert_eq!(model.stage_count(), 1);
    }

    #[test]
    fn unbounded_sink_counts_disconnected_drops() {
        let (sink, rx) = BatchSink::new(1, Arc::new(SignatureInterner::new()));
        drop(rx);
        for i in 0..3u64 {
            sink.submit(synopsis_on(9, &[1, 2], 1_000, SimTime::ZERO, i));
        }
        assert_eq!(sink.stats().dropped(), 3);
        assert_eq!(sink.stats().drops_for(HostId(9)).disconnected, 3);
    }

    #[test]
    fn drop_newest_counts_exact_per_host_drops() {
        let (sink, rx) = bounded_by_one(4, OverloadPolicy::DropNewest);
        for i in 0..10u64 {
            let host = (i % 2) as u16;
            sink.submit(synopsis_on(host, &[1, 2], 1_000, SimTime::ZERO, i));
        }
        // 4 queued (uids 0..4), 6 dropped (uids 4..10 → hosts 0,1,0,1,0,1).
        assert_eq!(sink.stats().dropped(), 6);
        assert_eq!(sink.stats().drops_for(HostId(0)).newest, 3);
        assert_eq!(sink.stats().drops_for(HostId(1)).newest, 3);
        assert_eq!(queued_uids(&rx), vec![0, 1, 2, 3]);
    }

    #[test]
    fn drop_oldest_keeps_the_freshest_synopses() {
        let (sink, rx) = bounded_by_one(4, OverloadPolicy::DropOldest);
        for i in 0..10u64 {
            sink.submit(synopsis_on(5, &[1, 2], 1_000, SimTime::ZERO, i));
        }
        assert_eq!(sink.stats().dropped(), 6);
        assert_eq!(sink.stats().drops_for(HostId(5)).oldest, 6);
        assert_eq!(queued_uids(&rx), vec![6, 7, 8, 9]);
    }

    #[test]
    fn block_policy_bounds_the_stall_and_counts_timeouts() {
        let timeout = Duration::from_millis(40);
        let (sink, rx) = bounded_by_one(1, OverloadPolicy::Block { timeout });
        sink.submit(synopsis(&[1, 2], 1_000, SimTime::ZERO, 0));
        let start = std::time::Instant::now();
        sink.submit(synopsis(&[1, 2], 1_000, SimTime::ZERO, 1));
        let stalled = start.elapsed();
        assert!(stalled >= timeout, "returned before the timeout");
        assert!(
            stalled < timeout * 20,
            "stalled far beyond the policy bound: {stalled:?}"
        );
        assert_eq!(sink.stats().drops_for(HostId(0)).timed_out, 1);
        drop(rx);
    }

    #[test]
    fn a_refused_or_evicted_batch_is_counted_element_by_element() {
        // Batches of 4 over two hosts (3 + 1), a queue of one batch.
        let feed = |sink: &BatchSink| {
            for i in 0..12u64 {
                let host = u16::from(i % 4 == 3);
                sink.submit(synopsis_on(host, &[1, 2], 1_000, SimTime::ZERO, i));
            }
        };
        let interner = Arc::new(SignatureInterner::new());
        let (sink, rx) = BatchSink::bounded(1, 4, OverloadPolicy::DropNewest, interner.clone());
        feed(&sink);
        assert_eq!(sink.stats().dropped(), 8);
        assert_eq!(sink.stats().drops_for(HostId(0)).newest, 6);
        assert_eq!(sink.stats().drops_for(HostId(1)).newest, 2);
        assert_eq!(queued_uids(&rx), vec![0, 1, 2, 3]);

        let (sink, rx) = BatchSink::bounded(1, 4, OverloadPolicy::DropOldest, interner);
        feed(&sink);
        assert_eq!(sink.stats().drops_for(HostId(0)).oldest, 6);
        assert_eq!(sink.stats().drops_for(HostId(1)).oldest, 2);
        assert_eq!(queued_uids(&rx), vec![8, 9, 10, 11]);
    }

    #[test]
    fn sink_metrics_keep_their_names() {
        let registry = Registry::new();
        let (sink, rx) = bounded_by_one(2, OverloadPolicy::DropNewest);
        sink.register_metrics(&registry, "ingest", &rx);
        for i in 0..5u64 {
            sink.submit(synopsis(&[1, 2], 1_000, SimTime::ZERO, i));
        }
        let text = registry.render();
        saad_obs::validate_text(&text).unwrap();
        for series in [
            r#"saad_sink_queue_depth{queue="ingest"} 2"#,
            r#"saad_sink_dropped_total{queue="ingest",reason="newest"} 3"#,
            r#"saad_sink_dropped_total{queue="ingest",reason="oldest"} 0"#,
        ] {
            assert!(text.contains(series), "{series} missing from {text}");
        }
    }

    #[test]
    fn sink_stats_exact_under_concurrent_multi_host_drops() {
        // N threads hammer one SinkStats with drops across disjoint and
        // shared hosts; every count must land exactly once.
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 1_000;
        let stats = Arc::new(SinkStats::default());
        let interner = SignatureInterner::new();
        let threads: Vec<_> = (0..THREADS)
            .map(|t| {
                let stats = Arc::clone(&stats);
                // Half the traffic contends on a shared host 0, half goes
                // to a per-thread host.
                let one = |host: u16| {
                    let mut batch = SynopsisBatch::new();
                    let s = synopsis_on(host, &[1, 2], 1_000, SimTime::ZERO, 0);
                    batch.push_synopsis(&s, &interner);
                    batch
                };
                let (shared, own) = (one(0), one(t as u16 + 1));
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        let batch = if i % 2 == 0 { &shared } else { &own };
                        match i % 4 {
                            0 => stats.record(batch, |c| &c.newest),
                            1 => stats.record(batch, |c| &c.oldest),
                            2 => stats.record(batch, |c| &c.timed_out),
                            _ => stats.record(batch, |c| &c.disconnected),
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(stats.dropped(), THREADS * PER_THREAD);
        let totals = stats.drop_totals();
        assert_eq!(totals.total(), THREADS * PER_THREAD);
        assert_eq!(totals.newest, THREADS * PER_THREAD / 4);
        assert_eq!(totals.oldest, THREADS * PER_THREAD / 4);
        assert_eq!(totals.timed_out, THREADS * PER_THREAD / 4);
        assert_eq!(totals.disconnected, THREADS * PER_THREAD / 4);
        let by_host = stats.drops_by_host();
        assert_eq!(by_host.len(), THREADS as usize + 1);
        assert_eq!(by_host[&HostId(0)].total(), THREADS * PER_THREAD / 2);
        for t in 0..THREADS {
            assert_eq!(by_host[&HostId(t as u16 + 1)].total(), PER_THREAD / 2);
        }
    }

    #[test]
    fn batch_sink_flushes_partial_batch_on_drop() {
        let interner = Arc::new(SignatureInterner::new());
        let (sink, rx) = BatchSink::new(8, interner);
        for i in 0..13u64 {
            sink.submit(synopsis(&[1, 2], 1_000, SimTime::from_millis(i), i));
        }
        let first = rx.try_recv().unwrap();
        assert_eq!(first.len(), 8);
        assert!(rx.try_recv().is_err(), "partial batch must wait for drop");
        drop(sink);
        let tail = rx.try_recv().unwrap();
        assert_eq!(tail.len(), 5);
        // Watermarks within a producer batch are a running maximum.
        assert!(tail.watermarks.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn a_gap_rides_ahead_of_the_next_synopsis_and_outlives_a_refused_batch() {
        // Batches of two, a queue of one batch.
        let (sink, rx) = BatchSink::bounded(1, 2, OverloadPolicy::DropNewest, Arc::default());
        let report = LossReport {
            host: HostId(0),
            at: SimTime::from_secs(1),
            count: 3,
        };
        let submit = |uid| sink.submit(synopsis(&[1, 2], 1_000, SimTime::from_secs(uid), uid));
        submit(0);
        sink.record_loss(report); // synopsis 0 goes out first and fills the queue
        submit(1);
        submit(2); // refused with the report, which stays behind
        assert_eq!(sink.stats().drops_for(HostId(0)).newest, 2);
        let first = rx.try_recv().unwrap();
        assert_eq!((first.len(), first.losses.len()), (1, 0));
        submit(3);
        submit(4);
        let second = rx.try_recv().unwrap();
        assert_eq!(second.uids, [TaskUid(3), TaskUid(4)]);
        assert_eq!(second.losses, [report]);
        drop(sink);
        assert!(rx.try_recv().is_err(), "the report is charged once");
    }
}
