//! Timestamp-advancing FIFO resources and the simulated disk.
//!
//! Resources track a *next-free* timestamp: a task arriving at `now` starts
//! service at `max(now, next_free)` and occupies the resource for its
//! service time. This models FIFO queueing exactly for single-server
//! resources, which is what drives the realistic duration distributions the
//! SAAD analyzer thresholds.
//!
//! The [`Disk`] adds a latency+bandwidth service model and the [`IoHook`]
//! extension point where the fault injector (the paper used SystemTap)
//! attaches error and delay faults per I/O class.

use crate::{SimDuration, SimTime};
use std::fmt::Debug;

/// A single-server FIFO resource tracked by its next-free timestamp.
#[derive(Debug, Clone)]
pub struct QueuedResource {
    name: String,
    next_free: SimTime,
    busy: SimDuration,
    served: u64,
}

/// Admission result from [`QueuedResource::acquire`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When service began (>= arrival time).
    pub start: SimTime,
    /// When service completed.
    pub done: SimTime,
}

impl Grant {
    /// Time spent waiting in the queue before service.
    pub fn queue_wait(&self, arrival: SimTime) -> SimDuration {
        self.start.saturating_since(arrival)
    }
}

impl QueuedResource {
    /// Create an idle resource.
    pub fn new(name: impl Into<String>) -> QueuedResource {
        QueuedResource {
            name: name.into(),
            next_free: SimTime::ZERO,
            busy: SimDuration::ZERO,
            served: 0,
        }
    }

    /// The resource's name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Admit a request arriving at `now` needing `service` time; returns
    /// when it starts and completes. FIFO: back-to-back arrivals queue.
    ///
    /// # Example
    ///
    /// ```
    /// use saad_sim::resource::QueuedResource;
    /// use saad_sim::{SimDuration, SimTime};
    /// let mut r = QueuedResource::new("disk");
    /// let a = r.acquire(SimTime::ZERO, SimDuration::from_millis(10));
    /// let b = r.acquire(SimTime::ZERO, SimDuration::from_millis(10));
    /// assert_eq!(a.done, SimTime::from_millis(10));
    /// assert_eq!(b.start, SimTime::from_millis(10)); // queued behind a
    /// assert_eq!(b.done, SimTime::from_millis(20));
    /// ```
    pub fn acquire(&mut self, now: SimTime, service: SimDuration) -> Grant {
        let start = now.max(self.next_free);
        let done = start + service;
        self.next_free = done;
        self.busy += service;
        self.served += 1;
        Grant { start, done }
    }

    /// When the resource next becomes idle.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }

    /// Number of requests served.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Fraction of `[SimTime::ZERO, horizon]` the resource was busy.
    /// Returns 0 for a zero horizon.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            0.0
        } else {
            (self.busy.as_micros() as f64 / horizon.as_micros() as f64).min(1.0)
        }
    }
}

/// Classification of one simulated I/O request, consumed by fault hooks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoRequest {
    /// Read or write.
    pub kind: IoKind,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Which I/O class this request belongs to (e.g. `"wal"`,
    /// `"memtable-flush"`, `"blockfile"`). Fault plans target classes.
    pub class: &'static str,
}

/// Direction of an I/O request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoKind {
    /// A read from the device.
    Read,
    /// A write to the device.
    Write,
}

/// What a fault hook decided about an I/O request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoVerdict {
    /// Proceed normally.
    Proceed,
    /// Fail the request (the paper's *error fault*).
    Fail,
    /// Stall the request for the given extra time before normal service
    /// (the paper's *delay fault*, 100 ms in their experiments).
    Delay(SimDuration),
}

/// Hook invoked for every disk request; the fault injector implements this.
pub trait IoHook: Send + Debug {
    /// Inspect a request at virtual time `now` and decide its fate.
    fn intercept(&mut self, req: &IoRequest, now: SimTime) -> IoVerdict;
}

/// Completion record for a disk request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoCompletion {
    /// When the request finished (or failed).
    pub done: SimTime,
    /// Whether the request failed (error fault).
    pub failed: bool,
    /// Extra stall injected by a delay fault, if any.
    pub injected_delay: SimDuration,
}

/// A simulated disk: fixed per-request latency plus size-proportional
/// transfer time, FIFO-queued, with fault hooks and a load ("disk hog")
/// multiplier.
#[derive(Debug)]
pub struct Disk {
    latency: SimDuration,
    read_bytes_per_sec: f64,
    write_bytes_per_sec: f64,
    queue: QueuedResource,
    hooks: Vec<Box<dyn IoHook>>,
    slowdown: f64,
    failed_requests: u64,
}

impl Disk {
    /// Create a disk with the given fixed latency and read/write
    /// bandwidths in bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if either bandwidth is not strictly positive.
    pub fn new(
        name: impl Into<String>,
        latency: SimDuration,
        read_bytes_per_sec: f64,
        write_bytes_per_sec: f64,
    ) -> Disk {
        assert!(read_bytes_per_sec > 0.0 && write_bytes_per_sec > 0.0);
        Disk {
            latency,
            read_bytes_per_sec,
            write_bytes_per_sec,
            queue: QueuedResource::new(name),
            hooks: Vec::new(),
            slowdown: 1.0,
            failed_requests: 0,
        }
    }

    /// A commodity-HDD-like disk: 4 ms latency, 100 MB/s reads,
    /// 80 MB/s writes — matching the 2014-era testbed class.
    pub fn commodity(name: impl Into<String>) -> Disk {
        Disk::new(name, SimDuration::from_millis(4), 100e6, 80e6)
    }

    /// Attach a fault hook. Hooks run in attach order; the first non-
    /// `Proceed` verdict wins.
    pub fn add_hook(&mut self, hook: Box<dyn IoHook>) {
        self.hooks.push(hook);
    }

    /// Remove all fault hooks.
    pub fn clear_hooks(&mut self) {
        self.hooks.clear();
    }

    /// Set the load multiplier on service times; a disk hog raises this
    /// above 1.0 (Fig 10's `dd` processes).
    ///
    /// # Panics
    ///
    /// Panics if `factor < 1.0`.
    pub fn set_slowdown(&mut self, factor: f64) {
        assert!(
            factor >= 1.0,
            "slowdown factor must be >= 1.0, got {factor}"
        );
        self.slowdown = factor;
    }

    /// Current load multiplier.
    pub fn slowdown(&self) -> f64 {
        self.slowdown
    }

    /// Number of requests that were failed by fault hooks.
    pub fn failed_requests(&self) -> u64 {
        self.failed_requests
    }

    /// Total requests served (including failed ones).
    pub fn served(&self) -> u64 {
        self.queue.served()
    }

    /// Submit a request at virtual time `now`.
    pub fn submit(&mut self, now: SimTime, req: IoRequest) -> IoCompletion {
        let mut verdict = IoVerdict::Proceed;
        for h in &mut self.hooks {
            match h.intercept(&req, now) {
                IoVerdict::Proceed => continue,
                v => {
                    verdict = v;
                    break;
                }
            }
        }
        match verdict {
            IoVerdict::Fail => {
                self.failed_requests += 1;
                // A failed request still occupies the device briefly.
                let grant = self.queue.acquire(now, self.latency);
                IoCompletion {
                    done: grant.done,
                    failed: true,
                    injected_delay: SimDuration::ZERO,
                }
            }
            IoVerdict::Delay(extra) => {
                // The stall delays the *request* without occupying the
                // device (SystemTap pauses the I/O path, not the platter):
                // other requests keep flowing at normal service rates.
                let service = self.service_time(&req);
                let grant = self.queue.acquire(now, service);
                IoCompletion {
                    done: grant.done + extra,
                    failed: false,
                    injected_delay: extra,
                }
            }
            IoVerdict::Proceed => {
                let service = self.service_time(&req);
                let grant = self.queue.acquire(now, service);
                IoCompletion {
                    done: grant.done,
                    failed: false,
                    injected_delay: SimDuration::ZERO,
                }
            }
        }
    }

    fn service_time(&self, req: &IoRequest) -> SimDuration {
        let bw = match req.kind {
            IoKind::Read => self.read_bytes_per_sec,
            IoKind::Write => self.write_bytes_per_sec,
        };
        let transfer = SimDuration::from_secs_f64(req.bytes as f64 / bw);
        (self.latency + transfer).mul_f64(self.slowdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_req(bytes: u64) -> IoRequest {
        IoRequest {
            kind: IoKind::Write,
            bytes,
            class: "wal",
        }
    }

    #[test]
    fn fifo_queueing_orders_service() {
        let mut r = QueuedResource::new("r");
        let a = r.acquire(SimTime::from_millis(0), SimDuration::from_millis(5));
        let b = r.acquire(SimTime::from_millis(1), SimDuration::from_millis(5));
        assert_eq!(a.done, SimTime::from_millis(5));
        assert_eq!(b.start, SimTime::from_millis(5));
        assert_eq!(
            b.queue_wait(SimTime::from_millis(1)),
            SimDuration::from_millis(4)
        );
    }

    #[test]
    fn idle_resource_starts_immediately() {
        let mut r = QueuedResource::new("r");
        let g = r.acquire(SimTime::from_secs(100), SimDuration::from_millis(1));
        assert_eq!(g.start, SimTime::from_secs(100));
        assert_eq!(g.queue_wait(SimTime::from_secs(100)), SimDuration::ZERO);
    }

    #[test]
    fn utilization_is_bounded() {
        let mut r = QueuedResource::new("r");
        r.acquire(SimTime::ZERO, SimDuration::from_secs(1));
        assert!((r.utilization(SimTime::from_secs(2)) - 0.5).abs() < 1e-12);
        assert_eq!(r.utilization(SimTime::ZERO), 0.0);
        assert_eq!(r.served(), 1);
    }

    #[test]
    fn disk_latency_plus_transfer() {
        let mut d = Disk::new("d", SimDuration::from_millis(4), 100e6, 80e6);
        // 80 MB/s write: 8 MB takes 100 ms + 4 ms latency.
        let c = d.submit(SimTime::ZERO, write_req(8_000_000));
        assert_eq!(c.done, SimTime::from_millis(104));
        assert!(!c.failed);
    }

    #[test]
    fn disk_reads_use_read_bandwidth() {
        let mut d = Disk::new("d", SimDuration::ZERO, 100e6, 1.0);
        let c = d.submit(
            SimTime::ZERO,
            IoRequest {
                kind: IoKind::Read,
                bytes: 100_000_000,
                class: "sstable",
            },
        );
        assert_eq!(c.done, SimTime::from_secs(1));
    }

    #[derive(Debug)]
    struct FailWal;
    impl IoHook for FailWal {
        fn intercept(&mut self, req: &IoRequest, _now: SimTime) -> IoVerdict {
            if req.class == "wal" {
                IoVerdict::Fail
            } else {
                IoVerdict::Proceed
            }
        }
    }

    #[test]
    fn hook_can_fail_targeted_class() {
        let mut d = Disk::commodity("d");
        d.add_hook(Box::new(FailWal));
        let c = d.submit(SimTime::ZERO, write_req(1000));
        assert!(c.failed);
        assert_eq!(d.failed_requests(), 1);
        let other = d.submit(
            SimTime::ZERO,
            IoRequest {
                kind: IoKind::Write,
                bytes: 1000,
                class: "memtable-flush",
            },
        );
        assert!(!other.failed);
    }

    #[derive(Debug)]
    struct DelayAll(SimDuration);
    impl IoHook for DelayAll {
        fn intercept(&mut self, _req: &IoRequest, _now: SimTime) -> IoVerdict {
            IoVerdict::Delay(self.0)
        }
    }

    #[test]
    fn hook_can_delay() {
        let mut d = Disk::new("d", SimDuration::from_millis(1), 1e9, 1e9);
        d.add_hook(Box::new(DelayAll(SimDuration::from_millis(100))));
        let c = d.submit(SimTime::ZERO, write_req(0));
        assert_eq!(c.injected_delay, SimDuration::from_millis(100));
        assert_eq!(c.done, SimTime::from_millis(101));
    }

    #[test]
    fn clear_hooks_restores_normal_service() {
        let mut d = Disk::commodity("d");
        d.add_hook(Box::new(FailWal));
        d.clear_hooks();
        assert!(!d.submit(SimTime::ZERO, write_req(1)).failed);
    }

    #[test]
    fn slowdown_scales_service() {
        let mut d = Disk::new("d", SimDuration::from_millis(10), 1e9, 1e9);
        d.set_slowdown(3.0);
        let c = d.submit(SimTime::ZERO, write_req(0));
        assert_eq!(c.done, SimTime::from_millis(30));
        assert_eq!(d.slowdown(), 3.0);
    }

    #[test]
    #[should_panic]
    fn slowdown_below_one_rejected() {
        Disk::commodity("d").set_slowdown(0.5);
    }

    #[test]
    fn queued_disk_requests_serialize() {
        let mut d = Disk::new("d", SimDuration::from_millis(10), 1e9, 1e9);
        let a = d.submit(SimTime::ZERO, write_req(0));
        let b = d.submit(SimTime::ZERO, write_req(0));
        assert_eq!(a.done, SimTime::from_millis(10));
        assert_eq!(b.done, SimTime::from_millis(20));
    }
}
