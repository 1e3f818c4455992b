//! The map-reduce-style parsing pipeline and its cost accounting.

use crate::matcher::TemplateMatcher;
use saad_logging::LogPointId;
use std::collections::HashMap;
use std::time::Instant;

/// Result of parsing a corpus: per-template counts plus cost accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseOutcome {
    /// Lines matched, per template.
    pub counts: HashMap<LogPointId, u64>,
    /// Lines that matched no template.
    pub unmatched: u64,
    /// Total lines processed.
    pub lines: u64,
    /// Total bytes processed.
    pub bytes: u64,
    /// Wall-clock seconds the parse took.
    pub elapsed_secs: f64,
    /// CPU seconds the parse took, its workers' together: the process's
    /// CPU time over the parse (any other thread of the process running
    /// meanwhile counts too), so at most `elapsed_secs` times the cores it
    /// ran on, however many workers there were.
    pub core_seconds: f64,
    /// Worker threads used.
    pub workers: usize,
}

impl ParseOutcome {
    /// Lines parsed per second of wall time.
    pub fn lines_per_sec(&self) -> f64 {
        if self.elapsed_secs == 0.0 {
            0.0
        } else {
            self.lines as f64 / self.elapsed_secs
        }
    }

    fn merge(&mut self, other: ParseOutcome) {
        for (id, c) in other.counts {
            *self.counts.entry(id).or_insert(0) += c;
        }
        self.unmatched += other.unmatched;
        self.lines += other.lines;
        self.bytes += other.bytes;
    }
}

fn parse_chunk(matcher: &TemplateMatcher, lines: &[&str]) -> ParseOutcome {
    let mut counts: HashMap<LogPointId, u64> = HashMap::new();
    let mut unmatched = 0;
    let mut bytes = 0;
    for line in lines {
        bytes += line.len() as u64 + 1;
        match matcher.match_line(line) {
            Some(id) => *counts.entry(id).or_insert(0) += 1,
            None => unmatched += 1,
        }
    }
    ParseOutcome {
        counts,
        unmatched,
        lines: lines.len() as u64,
        bytes,
        elapsed_secs: 0.0,
        core_seconds: 0.0,
        workers: 1,
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds every thread of this process has used so far, exited
/// threads included. Zero if the clock is missing.
fn process_cpu_secs() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` (two 64-bit fields on
    // every 64-bit Linux target) that outlives the call; `clock_gettime`
    // writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Run `parse` and stamp its outcome with the wall and CPU time it took
/// and its worker count. The CPU reads fall inside the wall interval.
fn timed(workers: usize, parse: impl FnOnce() -> ParseOutcome) -> ParseOutcome {
    let start = Instant::now();
    let cpu = process_cpu_secs();
    let mut out = parse();
    out.core_seconds = process_cpu_secs() - cpu;
    out.elapsed_secs = start.elapsed().as_secs_f64();
    out.workers = workers;
    out
}

/// Parse a corpus single-threaded (the "map" of one worker).
pub fn parse_corpus(matcher: &TemplateMatcher, corpus: &str) -> ParseOutcome {
    timed(1, || {
        let lines: Vec<&str> = corpus.lines().collect();
        parse_chunk(matcher, &lines)
    })
}

/// Parse a corpus with `workers` threads: the corpus is chunked (map),
/// each chunk reverse-matched in parallel, and the per-chunk counts merged
/// (reduce). This is the shape of the MapReduce job the paper compares
/// against.
///
/// # Panics
///
/// Panics if `workers == 0`.
pub fn parse_corpus_parallel(
    matcher: &TemplateMatcher,
    corpus: &str,
    workers: usize,
) -> ParseOutcome {
    assert!(workers > 0, "need at least one worker");
    timed(workers, || {
        let lines: Vec<&str> = corpus.lines().collect();
        let chunk = lines.len().div_ceil(workers).max(1);
        std::thread::scope(|scope| {
            let handles: Vec<_> = lines
                .chunks(chunk)
                .map(|c| scope.spawn(move || parse_chunk(matcher, c)))
                .collect();
            let mut merged = parse_chunk(matcher, &[]);
            for h in handles {
                merged.merge(h.join().expect("parser worker panicked"));
            }
            merged
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use saad_logging::{Level, LogPointRegistry};

    fn setup() -> (TemplateMatcher, Vec<LogPointId>, String) {
        let reg = LogPointRegistry::new();
        let ids = vec![
            reg.register("Receiving block blk_{}", Level::Info, "dx", 1),
            reg.register("Closing down.", Level::Info, "dx", 2),
        ];
        let m = TemplateMatcher::new(reg.all().iter());
        let mut corpus = String::new();
        for i in 0u32..500 {
            corpus.push_str(&format!("INFO DataXceiver - Receiving block blk_{i}\n"));
            if i.is_multiple_of(10) {
                corpus.push_str("INFO DataXceiver - Closing down.\n");
            }
            if i.is_multiple_of(100) {
                corpus.push_str("INFO Unknown - something unparseable\n");
            }
        }
        (m, ids, corpus)
    }

    #[test]
    fn sequential_counts_are_exact() {
        let (m, ids, corpus) = setup();
        let out = parse_corpus(&m, &corpus);
        assert_eq!(out.counts[&ids[0]], 500);
        assert_eq!(out.counts[&ids[1]], 50);
        assert_eq!(out.unmatched, 5);
        assert_eq!(out.lines, 555);
        assert!(out.bytes > 0);
        assert!(out.lines_per_sec() > 0.0);
    }

    #[test]
    fn parallel_agrees_with_sequential() {
        let (m, _, corpus) = setup();
        let seq = parse_corpus(&m, &corpus);
        for workers in [1, 2, 4, 7] {
            let par = parse_corpus_parallel(&m, &corpus, workers);
            assert_eq!(par.counts, seq.counts, "workers={workers}");
            assert_eq!(par.unmatched, seq.unmatched);
            assert_eq!(par.lines, seq.lines);
            assert_eq!(par.workers, workers);
        }
    }

    #[test]
    fn empty_corpus_parses_cleanly() {
        let (m, _, _) = setup();
        let out = parse_corpus(&m, "");
        assert_eq!(out.lines, 0);
        assert_eq!(out.lines_per_sec(), 0.0);
        let out = parse_corpus_parallel(&m, "", 4);
        assert_eq!(out.lines, 0);
    }

    #[test]
    fn core_seconds_count_cpu_not_workers() {
        // More workers than cores cannot spend more than the cores'
        // time: CPU over the wall interval is at most `cores` per second,
        // whatever else this process runs meanwhile.
        let (m, _, corpus) = setup();
        let corpus = corpus.repeat(20);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let workers = 8 * cores;
        let out = parse_corpus_parallel(&m, &corpus, workers);
        assert!(out.core_seconds > 0.0);
        assert!(
            out.core_seconds <= out.elapsed_secs * cores as f64 * 1.01 + 1e-3,
            "{} core-seconds in {} s on {cores} cores",
            out.core_seconds,
            out.elapsed_secs
        );
        assert!(parse_corpus(&m, &corpus).core_seconds > 0.0);
    }

    #[test]
    #[should_panic]
    fn zero_workers_rejected() {
        let (m, _, corpus) = setup();
        parse_corpus_parallel(&m, &corpus, 0);
    }
}
