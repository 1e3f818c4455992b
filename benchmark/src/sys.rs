//! Process-level measurements and controls: peak memory, CPU time, core
//! count, confinement to one CPU, the machine-speed probe and a fixed ALU
//! loop that marks disturbed segments.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Logical CPUs available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size (`VmHWM`) in MiB, or 0 where `/proc` is not
/// available.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// Words of a CPU affinity mask: room for 1024 CPUs, as glibc's `cpu_set_t`.
const CPU_MASK_WORDS: usize = 16;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` (two 64-bit fields on
    // every 64-bit Linux target this benchmark builds for) that outlives
    // the call; `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by every thread of this process so far (threads that
/// have exited included), in nanoseconds. Zero if the clock is missing.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread so far, in nanoseconds: time it
/// spent preempted or asleep does not count.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Confine the calling thread, and every thread it spawns from now on, to
/// one CPU: the highest-numbered one it may run on (CPU 0 serves most
/// interrupts). Returns that CPU, or `None` where the kernel refuses.
///
/// Called first thing in `main`. With every thread on one CPU there are no
/// cross-CPU wake-ups, which in a virtual machine cost an exit to the host
/// each and made identical segments differ by a third; throughput becomes
/// one over the summed CPU time per synopsis of all layers.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; CPU_MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of the size passed; pid 0 is the
    // calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let cpu = (0..CPU_MASK_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one = [0u64; CPU_MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// CPU time one pass of the probe kernel takes on the undisturbed
/// reference box: the speed every calibrated metric is stated at.
pub const PROBE_NOMINAL_NS: f64 = 430_000.0;
/// Pause between two passes of the probe.
const PROBE_PERIOD: Duration = Duration::from_millis(10);

/// One pass of the probe kernel: four independent integer chains, so that
/// like the measured code (and unlike [`calib_ms`]) it is bound by what
/// the core can issue per cycle, which is what a busy sibling hardware
/// thread on the host takes away. Returns the thread CPU time it took.
fn probe_pass_ns() -> f64 {
    const ROUNDS: u64 = 200_000;
    let before = thread_cpu_ns();
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    for k in 0..ROUNDS {
        a = a.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(k);
        b = b.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(k ^ 1);
        c ^= c << 13;
        c ^= c >> 7;
        c = c.wrapping_add(k);
        d ^= d << 5;
        d ^= d >> 9;
        d = d.wrapping_add(k);
    }
    std::hint::black_box((a, b, c, d));
    (thread_cpu_ns() - before) as f64
}

/// One pass of the probe.
#[derive(Debug, Clone, Copy)]
pub struct ProbeSample {
    /// When the pass ended.
    pub at: Instant,
    /// Thread CPU time the pass took, nanoseconds.
    pub pass_ns: f64,
    /// Cumulative `(stolen, all)` clock ticks of the CPU the process is
    /// confined to (of all CPUs if it floats), from `/proc/stat`.
    pub ticks: (u64, u64),
}

/// `(stolen, all)` ticks of `cpu` (`None`: the sum over all CPUs) in the
/// text of `/proc/stat`; zeros if the line is missing.
pub fn cpu_ticks(stat: &str, cpu: Option<usize>) -> (u64, u64) {
    let label = cpu.map_or("cpu".to_owned(), |c| format!("cpu{c}"));
    let Some(line) = stat
        .lines()
        .find(|l| l.split_whitespace().next() == Some(label.as_str()))
    else {
        return (0, 0);
    };
    // user nice system idle iowait irq softirq steal; guest time is part
    // of user time already.
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// The machine's speed over `[from, to]` relative to the reference: the
/// mean of `PROBE_NOMINAL_NS / pass` over the passes that ended inside
/// (an average over time of how fast the CPU ran while the guest had it),
/// times the share of the interval the host did not steal the CPU — the
/// guest's thread clocks stop while it is stolen, so the passes cannot see
/// that. `None` without a sample.
pub fn relative_speed(samples: &[ProbeSample], from: Instant, to: Instant) -> Option<f64> {
    let first = samples.partition_point(|s| s.at < from);
    let end = samples.partition_point(|s| s.at <= to);
    if first >= end {
        return None;
    }
    let inside = &samples[first..end];
    let running =
        inside.iter().map(|s| PROBE_NOMINAL_NS / s.pass_ns).sum::<f64>() / inside.len() as f64;
    // Ticks from the last sample before the interval to the first after
    // it, where there is one: ticks are 10 ms wide.
    let before = samples[first.saturating_sub(1)].ticks;
    let after = samples[end.min(samples.len() - 1)].ticks;
    let (stolen, all) = (after.0 - before.0, after.1 - before.1);
    let kept = if all == 0 {
        1.0
    } else {
        1.0 - stolen as f64 / all as f64
    };
    Some(running * kept)
}

/// A thread that times the probe kernel every [`PROBE_PERIOD`] for as long
/// as it lives, on the CPU the process is confined to.
///
/// The host flips, for tenths of a second to minutes at a time, between a
/// state in which the code measured here runs at full speed and one in
/// which it runs about 1.4 times slower (the dependent chain of
/// [`calib_ms`] does not move: the core is shared, not slowed). No
/// estimator over the segments of a run removes a spell that lasts the
/// whole run; the probe says how fast the machine was while a segment ran,
/// and the segment's throughput and set-up time are stated at the
/// reference speed.
pub struct SpeedProbe {
    samples: Arc<Mutex<Vec<ProbeSample>>>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl SpeedProbe {
    /// Start probing, on `cpu` if the process is confined to one.
    pub fn start(cpu: Option<usize>) -> SpeedProbe {
        let samples = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (samples, stop) = (samples.clone(), stop.clone());
            std::thread::Builder::new()
                .name("bench-probe".into())
                .spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::sleep(PROBE_PERIOD);
                        let pass_ns = probe_pass_ns();
                        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
                        samples.lock().expect("probe samples").push(ProbeSample {
                            at: Instant::now(),
                            pass_ns,
                            ticks: cpu_ticks(&stat, cpu),
                        });
                    }
                })
                .expect("spawn probe")
        };
        SpeedProbe {
            samples,
            stop,
            thread: Some(thread),
        }
    }

    /// Relative speed of the machine over `[from, to]`; 1 if the interval
    /// was too short to hold a sample.
    pub fn speed(&self, (from, to): (Instant, Instant)) -> f64 {
        relative_speed(&self.samples.lock().expect("probe samples"), from, to).unwrap_or(1.0)
    }
}

impl Drop for SpeedProbe {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// A fixed ALU-only loop, timed in milliseconds. Run before and after a
/// segment it shows whether the machine itself was disturbed; it is
/// printed, never used to discard a segment.
pub fn calib_ms() -> f64 {
    const ROUNDS: u64 = 6_000_000;
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..ROUNDS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let a = process_cpu_ns();
        let _ = calib_ms();
        let b = process_cpu_ns();
        assert!(b > a, "process CPU clock must advance: {a} -> {b}");
    }

    #[test]
    fn steal_ticks_are_read_from_the_cpu_line_asked_for() {
        let stat = "cpu  100 0 50 800 10 0 5 35 0 0\n\
                    cpu0 60 0 30 400 5 0 3 2 0 0\n\
                    cpu1 40 0 20 400 5 0 2 33 7 0\n\
                    intr 12345\n";
        assert_eq!(cpu_ticks(stat, None), (35, 1000));
        assert_eq!(cpu_ticks(stat, Some(0)), (2, 500));
        // Guest ticks (the ninth field) are part of user time: not added.
        assert_eq!(cpu_ticks(stat, Some(1)), (33, 500));
        assert_eq!(cpu_ticks(stat, Some(2)), (0, 0));
    }

    #[test]
    fn speed_is_the_time_mean_of_the_passes_less_the_stolen_share() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let sample = |ms: u64, slowdown: f64, ticks: (u64, u64)| ProbeSample {
            at: at(ms),
            pass_ns: PROBE_NOMINAL_NS * slowdown,
            ticks,
        };
        // A pass before the interval, two inside (one at full speed, one
        // at half), one after; a quarter of the ticks around it stolen.
        let samples = [
            sample(0, 1.0, (0, 0)),
            sample(10, 1.0, (0, 1)),
            sample(20, 2.0, (1, 2)),
            sample(30, 4.0, (1, 4)),
        ];
        let speed = relative_speed(&samples, at(5), at(25)).unwrap();
        assert!((speed - 0.75 * 0.75).abs() < 1e-12, "{speed}");
        // Nothing stolen, nothing slowed: the reference speed.
        let calm = [sample(10, 1.0, (7, 100)), sample(20, 1.0, (7, 101))];
        assert_eq!(relative_speed(&calm, at(5), at(25)), Some(1.0));
        // An interval too short to hold a pass has no speed.
        assert_eq!(relative_speed(&samples, at(11), at(19)), None);
        assert_eq!(relative_speed(&[], at(0), at(30)), None);
    }

    #[test]
    fn the_probe_samples_while_it_lives() {
        let probe = SpeedProbe::start(None);
        let from = Instant::now();
        std::thread::sleep(Duration::from_millis(60));
        let speed = probe.speed((from, Instant::now()));
        assert!(speed > 0.05 && speed < 20.0, "implausible speed {speed}");
    }

    #[test]
    fn rss_is_reported_on_linux() {
        assert!(peak_rss_mib() > 0.0);
        assert!(cores() >= 1);
    }
}
