//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code only: around each
//! direct call into a layer, and at the hops the benchmark owns (the sink
//! it hands the tracker, the tap between collector and pool, the event
//! receiver). They are kept in memory and written out once, at exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Identifier, unique within a [`Tracer`].
    pub id: u32,
    /// Layer or hop name, e.g. `core.codec.encode` or `hop.sink_to_tap`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Identifier shared by the spans of one batch (0 when the span does
    /// not belong to a batch).
    pub batch: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Aggregate of the spans that share a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans recorded.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times (duration minus the part children cover).
    pub self_ns: u64,
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds of `at` on this tracer's clock.
    fn ns_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record one finished span; returns its id for use as a parent.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        batch: u64,
    ) -> u32 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let span = Span {
            id,
            name,
            start_ns: self.ns_of(start),
            end_ns: self.ns_of(end),
            parent,
            batch,
        };
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .push(span);
        id
    }

    /// Copy of everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .clone()
    }

    /// Per-name totals with self times.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        totals(&self.spans())
    }

    /// Write every span and the per-name totals as one JSON document;
    /// returns the number of spans written.
    ///
    /// # Errors
    ///
    /// Propagates directory creation and file write errors.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans();
        let mut out = String::with_capacity(64 + spans.len() * 96);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"totals\":{{"
        );
        for (i, (name, t)) in totals(&spans).iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.count, t.total_ns, t.self_ns
            );
        }
        out.push_str("},\"spans\":[");
        for (i, s) in spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}\n{{\"id\":{},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"batch\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, s.batch
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)?;
        Ok(spans.len())
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children are counted once, and
/// a child is clipped to its parent's interval).
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let by_id: BTreeMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        let Some(parent) = s.parent.and_then(|p| by_id.get(&p)) else {
            continue;
        };
        let start = s.start_ns.max(parent.start_ns);
        let end = s.end_ns.min(parent.end_ns);
        if end > start {
            children.entry(parent.id).or_default().push((start, end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children.get_mut(&s.id).map_or(0, |iv| {
                iv.sort_unstable();
                let mut covered = 0u64;
                let mut reach = 0u64;
                for &(start, end) in iv.iter() {
                    let from = start.max(reach);
                    if end > from {
                        covered += end - from;
                        reach = end;
                    }
                }
                covered
            });
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Per-name totals of `spans`.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += selfs[&s.id];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            id,
            name: "x",
            start_ns,
            end_ns,
            parent,
            batch: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span(0, 0, 100, None),
            span(1, 10, 30, Some(0)),
            span(2, 50, 70, Some(0)),
            span(3, 55, 60, Some(2)),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&0], 60);
        assert_eq!(st[&1], 20);
        assert_eq!(st[&2], 15);
        assert_eq!(st[&3], 5);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = vec![
            span(0, 100, 200, None),
            // Two children overlapping each other on [120, 150].
            span(1, 110, 150, Some(0)),
            span(2, 120, 160, Some(0)),
            // A child that started before and ends after its parent.
            span(3, 190, 400, Some(0)),
            // A child entirely outside its parent covers nothing.
            span(4, 500, 600, Some(0)),
        ];
        let st = self_times(&spans);
        // Covered: [110,160] = 50 and [190,200] = 10.
        assert_eq!(st[&0], 40);
    }

    #[test]
    fn recorded_spans_nest_and_totals_add_up() {
        let tracer = Tracer::new();
        let began = Instant::now();
        let inner_began = Instant::now();
        std::hint::black_box(crate::sys::calib_ms());
        let inner_ended = Instant::now();
        let outer = tracer.record("outer", began, Instant::now(), None, 7);
        tracer.record("inner", inner_began, inner_ended, Some(outer), 7);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let totals = tracer.totals();
        let (outer, inner) = (totals["outer"], totals["inner"]);
        assert_eq!(outer.count, 1);
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!(outer.self_ns + inner.total_ns, outer.total_ns);
        assert!(spans.iter().all(|s| s.batch == 7));
    }
}
