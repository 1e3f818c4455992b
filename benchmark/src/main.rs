//! `saad-e2e` — one benchmark for the whole synopsis path.
//!
//! ```text
//! saad-e2e --workload <name> --seed <u64> [--seconds N | --segments N] [--trace [0|1]]
//! saad-e2e --workload <name> --repeat N [--seed <u64>]
//! saad-e2e --selftest
//! ```
//!
//! A run is `segments` repetitions of *[complete set-up pass from the seed
//! → timed segment of a source-constant synopsis count]*, every thread on
//! one CPU; throughput and set-up time are stated at the reference machine
//! speed (`sys::SpeedProbe`) and every end-to-end metric is the median
//! over the segments. See `benchmark/README.md`.

mod inputs;
mod layers;
mod reference;
mod report;
mod stats;
mod sys;
mod trace;
mod workloads;

use report::{END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode};
use sys::SpeedProbe;
use trace::Tracer;
use workloads::{Ctx, Sabotage, Scale, Segment, FULL, SELFTEST, WORKLOADS};

/// Segments of a run when neither `--segments` nor `--seconds` says.
const DEFAULT_SEGMENTS: usize = 7;
/// A run never has fewer segments: below five the median stops repeating.
const MIN_SEGMENTS: usize = 5;
/// Nor more: a run has to stay well under half a minute.
const MAX_SEGMENTS: usize = 9;
/// What one timed segment lasts on the reference box, for turning the
/// driver's `--seconds` into a segment count. The segment itself never
/// looks at a clock: its synopsis count is a constant.
const NOMINAL_SEGMENT_S: f64 = 2.0;
/// Untraced and traced segments of a traced run, alternating.
const TRACED_PAIRS: usize = 2;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    segments: usize,
    trace: bool,
    repeat: Option<usize>,
    selftest: bool,
    scale: &'static Scale,
    sabotage: Sabotage,
}

fn usage() -> String {
    format!(
        "usage: saad-e2e --workload <{}> --seed <u64> [--seconds N | --segments N] [--trace [0|1]]\n\
         \x20      saad-e2e --workload <name> --repeat N [--seed <u64>]\n\
         \x20      saad-e2e --selftest",
        WORKLOADS.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        segments: DEFAULT_SEGMENTS,
        trace: false,
        repeat: None,
        selftest: false,
        scale: &FULL,
        sabotage: Sabotage::None,
    };
    let mut it = argv.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let w = value(&mut it, flag)?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w}"));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                args.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--segments" => {
                let n: usize = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--segments: {e}"))?;
                args.segments = n.clamp(MIN_SEGMENTS, MAX_SEGMENTS);
            }
            "--seconds" => {
                let s: f64 = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                args.segments = segments_for_seconds(s);
            }
            "--trace" => {
                // The driver passes 0 or 1; by hand the bare flag is enough.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--repeat" => {
                let n: usize = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                args.repeat = Some(n.max(2));
            }
            "--selftest" => args.selftest = true,
            "--scale" => {
                args.scale = match value(&mut it, flag)?.as_str() {
                    "full" => &FULL,
                    "selftest" => &SELFTEST,
                    other => return Err(format!("unknown scale {other}")),
                };
            }
            "--sabotage" => {
                args.sabotage = match value(&mut it, flag)?.as_str() {
                    "tap-drops-batch" => Sabotage::TapDropsBatch,
                    "flip-frame-byte" => Sabotage::FlipFrameByte,
                    other => return Err(format!("unknown sabotage {other}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.selftest && args.workload.is_none() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Segment count for the driver's `--seconds`.
fn segments_for_seconds(seconds: f64) -> usize {
    ((seconds / NOMINAL_SEGMENT_S).round() as usize).clamp(MIN_SEGMENTS, MAX_SEGMENTS)
}

/// One set-up pass and timed segment of `workload`, stated at the
/// reference machine speed by `probe`.
fn segment(workload: &str, ctx: &Ctx, probe: &SpeedProbe) -> Segment {
    let mut seg = match workload {
        "analyze_replay" => workloads::analyze::replay(ctx),
        "analyze_churn" => workloads::analyze::churn(ctx),
        "collector_ingest" => workloads::ingest::run(ctx),
        "fleet_e2e" => workloads::fleet::run(ctx),
        "paced_detect" => workloads::paced::run(ctx),
        other => unreachable!("workload {other} was validated"),
    };
    seg.calibrate(probe);
    seg
}

/// Run `workload` once: print every metric, then the result line. Returns
/// whether every output matched its reference.
fn run(args: &Args, workload: &str) -> bool {
    // Count the cores first: afterwards this process sees one.
    let cores = sys::cores();
    let conns = cores.min(2);
    let cpu = sys::pin_to_one_cpu();
    // The self-test checks outputs, not timings: one segment is enough.
    let (pairs, segments) = if std::ptr::eq(args.scale, &SELFTEST) {
        (1, 1)
    } else {
        (TRACED_PAIRS, args.segments)
    };
    println!(
        "saad-e2e {workload}: seed {}, cores {cores}, {}, connections and generator threads at most {conns}, \
         pool workers {}, reactor loops 1, {}",
        args.seed,
        cpu.map_or("threads float over all of them".to_owned(), |c| format!(
            "every thread confined to CPU {c}"
        )),
        workloads::POOL_WORKERS,
        if args.trace {
            format!("traced run ({pairs} untraced + {pairs} traced segments, then direct-call layer passes)")
        } else {
            format!("{segments} segments")
        }
    );
    let tracer = Tracer::new();
    let probe = SpeedProbe::start(cpu);
    let ctx = |traced: bool| Ctx {
        seed: args.seed,
        scale: args.scale,
        tracer: traced.then_some(&tracer),
        sabotage: args.sabotage,
        conns,
    };
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    if args.trace {
        for _ in 0..pairs {
            untraced.push(segment(workload, &ctx(false), &probe));
            traced.push(segment(workload, &ctx(true), &probe));
        }
    } else {
        for _ in 0..segments {
            untraced.push(segment(workload, &ctx(false), &probe));
        }
    }
    report::print_segments("", &untraced);
    report::print_segments("traced ", &traced);

    let attempted: u64 = untraced.iter().chain(&traced).map(|s| s.attempted).sum();
    let failed: u64 = untraced.iter().chain(&traced).map(|s| s.failed).sum();
    let e2e = report::end_to_end(&untraced, sys::peak_rss_mib());
    let e2e_names: Vec<(&str, &str)> = END_TO_END.iter().map(|&(n, u, _, _)| (n, u)).collect();
    report::print_metrics(
        "end-to-end metrics (median over segments)",
        &e2e_names,
        &e2e,
    );
    let line = if args.trace {
        let direct = layers::measure(workload, &ctx(true), &tracer, &probe);
        let layers = report::per_layer(&report::LayerInputs {
            workload,
            untraced: &untraced,
            traced: &traced,
            direct: &direct,
        });
        report::print_metrics("per-layer metrics", &PER_LAYER, &layers);
        report::print_budget(workload, &layers);
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{workload}.json"));
        match tracer.write_json(&path, workload) {
            Ok(spans) => println!("\ntrace: {spans} spans in {}", path.display()),
            Err(e) => println!("\ntrace not written to {}: {e}", path.display()),
        }
        print_span_totals(&tracer);
        report::result_json(failed == 0, attempted, failed, &PER_LAYER, &layers)
    } else {
        report::result_json(failed == 0, attempted, failed, &e2e_names, &e2e)
    };
    println!("{line}");
    failed == 0
}

fn print_span_totals(tracer: &Tracer) {
    println!("spans by name: count, total ms, self ms (span minus children)");
    for (name, t) in tracer.totals() {
        println!(
            "  {name:<32} {:>8} {:>12.3} {:>12.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
}

/// Re-execute this binary with `extra` arguments; returns its exit status
/// and the last line of its standard output.
fn child(extra: &[String]) -> (bool, String) {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let out = Command::new(exe)
        .args(extra)
        .output()
        .expect("re-execute the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("").to_owned();
    (out.status.success(), last)
}

/// `--repeat N`: two sets of N fresh runs each (every run a new process
/// and a new seed); per end-to-end metric the median, quartiles and
/// spreads of each set, whether the spread fits the declared bound, and
/// how far the second set's median is from the first.
fn repeat(args: &Args, workload: &str, n: usize) -> bool {
    let mut sets: Vec<BTreeMap<&'static str, Vec<f64>>> = Vec::new();
    let mut ok = true;
    for set in 0..2 {
        let mut values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for i in 0..n {
            let seed = args.seed + (set * n + i) as u64;
            let (success, line) = child(&[
                "--workload".into(),
                workload.into(),
                "--seed".into(),
                seed.to_string(),
                "--segments".into(),
                args.segments.to_string(),
            ]);
            ok &= success;
            println!("set {} run {i} seed {seed}: {line}", set + 1);
            for (name, ..) in END_TO_END {
                if let Some(v) = report::value_in(&line, name) {
                    values.entry(name).or_default().push(v);
                }
            }
        }
        sets.push(values);
    }
    println!("\n| workload | metric | bound | set | median | q1 | q3 | (q3-q1)/median | (max-min)/median | fits |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    for (name, _, better, bound) in END_TO_END {
        let mut medians = Vec::new();
        for (set, values) in sets.iter().enumerate() {
            let Some(v) = values.get(name).filter(|v| v.len() >= 2) else {
                continue;
            };
            let (q1, med, q3) = stats::quartiles(v);
            let sorted = stats::sorted(v);
            let range = (sorted[sorted.len() - 1] - sorted[0]) / med.abs().max(f64::MIN_POSITIVE);
            let spread = stats::relative_spread(v);
            // The set-up time's spread is reported but only its shift
            // between sets is held to the bound.
            let fits = spread <= bound || name == "setup_s";
            ok &= fits;
            println!(
                "| {workload} | {name} | {bound} | {} | {med:.6} | {q1:.6} | {q3:.6} | {:.2} % | {:.2} % | {} |",
                set + 1,
                100.0 * spread,
                100.0 * range,
                if fits { "yes" } else { "NO" }
            );
            medians.push(med);
        }
        if let [first, second] = medians[..] {
            let worse = if better == "higher" {
                (first - second) / first
            } else {
                (second - first) / first
            };
            let fits = worse <= bound;
            ok &= fits;
            println!(
                "| {workload} | {name} | {bound} | 2 vs 1 | | | | second median worse by {:.2} % | | {} |",
                100.0 * worse,
                if fits { "yes" } else { "NO" }
            );
        }
    }
    ok
}

/// `--selftest`: every workload end to end on tiny fixed counts, then the
/// two sabotage cases, each of which must report failed operations and
/// exit non-zero — so the correctness checks are shown not to be vacuous.
fn selftest(args: &Args) -> bool {
    let mut ok = true;
    let base = |w: &str| -> Vec<String> {
        vec![
            "--workload".into(),
            w.into(),
            "--seed".into(),
            args.seed.to_string(),
            "--scale".into(),
            "selftest".into(),
        ]
    };
    for w in WORKLOADS {
        let (success, line) = child(&base(w));
        let failed = report::count_in(&line, "failed");
        let attempted = report::count_in(&line, "attempted").unwrap_or(0);
        let pass = success && failed == Some(0) && attempted > 0;
        println!(
            "selftest {w}: {} ({attempted} attempted, {} failed)",
            verdict(pass),
            failed.map_or("unknown".to_owned(), |f| f.to_string())
        );
        ok &= pass;
    }
    // The same check with spans on: tracing must not change any output.
    let mut traced = base("fleet_e2e");
    traced.extend(["--trace".into(), "1".into()]);
    let (success, line) = child(&traced);
    let pass = success && report::count_in(&line, "failed") == Some(0);
    println!("selftest fleet_e2e traced: {}", verdict(pass));
    ok &= pass;
    for (w, sabotage) in [
        ("fleet_e2e", "tap-drops-batch"),
        ("collector_ingest", "flip-frame-byte"),
    ] {
        let mut argv = base(w);
        argv.extend(["--sabotage".into(), sabotage.into()]);
        let (success, line) = child(&argv);
        let failed = report::count_in(&line, "failed").unwrap_or(0);
        let pass = !success && failed > 0;
        println!(
            "selftest {w} with {sabotage}: {} (exit {}, {failed} failed)",
            verdict(pass),
            if success { "zero" } else { "non-zero" }
        );
        ok &= pass;
    }
    ok
}

fn verdict(pass: bool) -> &'static str {
    if pass {
        "ok"
    } else {
        "FAILED"
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let ok = if args.selftest {
        selftest(&args)
    } else {
        let workload = args.workload.clone().expect("checked by parse_args");
        match args.repeat {
            Some(n) => repeat(&args, &workload, n),
            None => run(&args, &workload),
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn driver_command_line_is_understood() {
        let a = parse_args(&argv(
            "--workload fleet_e2e --seed 42 --seconds 14 --trace 0",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("fleet_e2e"));
        assert_eq!((a.seed, a.segments, a.trace), (42, 7, false));
        let a = parse_args(&argv(
            "--workload paced_detect --seed 7 --seconds 14 --trace 1",
        ))
        .unwrap();
        assert!(a.trace);
        // By hand: a bare --trace, in any position.
        let a = parse_args(&argv("--trace --workload analyze_churn")).unwrap();
        assert!(a.trace);
        assert_eq!(a.workload.as_deref(), Some("analyze_churn"));
    }

    #[test]
    fn segment_count_stays_between_five_and_nine() {
        assert_eq!(segments_for_seconds(1.0), 5);
        assert_eq!(segments_for_seconds(14.0), 7);
        assert_eq!(segments_for_seconds(60.0), 9);
        let a = parse_args(&argv("--workload analyze_replay --segments 2")).unwrap();
        assert_eq!(a.segments, 5);
        let a = parse_args(&argv("--workload analyze_replay --segments 40")).unwrap();
        assert_eq!(a.segments, 9);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload fleet_e2e --seed x")).is_err());
        assert!(parse_args(&argv("--workload fleet_e2e --frobnicate")).is_err());
        assert!(parse_args(&argv("--selftest")).is_ok());
    }
}
