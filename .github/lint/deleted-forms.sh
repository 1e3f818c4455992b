#!/usr/bin/env bash
# Deleted names and forms that must stay deleted: one table, one pass.
#
# Each row of the table below is tab-separated: an extended regex, the paths
# it may not match in, the matches allowed, and why the form is gone.
#   paths    a directory means its `*.rs` files, recursively, outside any
#            `target/`; `!name` skips directories called `name`; a file is
#            read whole; `file@prod` reads a file up to its `mod tests {`.
#   allowed  `-`: none. Otherwise the only files that may match, each as
#            `file:count`, its matching lines counted exactly.
#
# Run from the repository root: `bash .github/lint/deleted-forms.sh`.
set -u
status=0
while IFS=$'\t' read -r pattern paths allowed reason; do
  excludes=(--exclude-dir=target)
  targets=()
  for p in $paths; do
    case "$p" in
      '!'*) excludes+=("--exclude-dir=${p#!}") ;;
      *) targets+=("$p") ;;
    esac
  done
  found=""
  for p in "${targets[@]}"; do
    if [[ "$p" == *@prod ]]; then
      hit=$(pat="$pattern" awk '/^mod tests \{/ { exit } $0 ~ ENVIRON["pat"] { print FILENAME ":" FNR ": " $0 }' "${p%@prod}")
    elif [ -d "$p" ]; then
      hit=$(grep -rnE --include='*.rs' "${excludes[@]}" -- "$pattern" "$p")
    else
      hit=$(grep -nHE -- "$pattern" "$p")
    fi
    if [ -n "$hit" ]; then
      found+="$hit"$'\n'
    fi
  done
  if [ "$allowed" = "-" ]; then
    got=""
    [ -n "$found" ] && got="$found"
  else
    counted=$(printf '%s' "$found" | cut -d: -f1 | sort | uniq -c | awk '{ print $2 ":" $1 }' | paste -sd' ')
    got=""
    [ "$counted" != "$allowed" ] && got="allowed: $allowed"$'\n'"found:   $counted"$'\n'
  fi
  if [ -n "$got" ]; then
    echo "::error::$reason"
    printf '%s' "$got"
    status=1
  fi
done <<'TABLE'
saad_adapt	. !adapt	-	saad_adapt named outside crates/adapt: adaptation lives in saad-core's lifecycle pool; crates/adapt stays only because benchmark/Cargo.lock lists it
DigestMerge|RootStats|RootConfig|saad_root_	.	-	a deleted root type or metric family is named again: the root admits, counts and exports as a collector (LossLedger, CollectorStats, saad_collector_* under tier="root")
StudentT|saad_stats::dist|erfc\(|p_from_statistic|Alternative::(Less|TwoSided)	.	-	a deleted approximation or alternative is named again: every window test is the binomial tail
side_losses|bind_soa[(<]|spawn_batch_analyzer_pool[(<]	crates src tests examples	crates/core/src/pipeline/pool.rs:10 crates/net/src/ingest.rs:8 crates/net/src/reactor_collector.rs:2	legacy loss side channel used outside its definitions and tests: the two-channel forms exist only because benchmark/ pins them
recycle_tx|recycle_rx	crates/core/src/pipeline	-	a private batch recycle channel is named in the pipeline again: a dropped SynopsisBatch returns its columns to the batch spare list
panic_at|checkpoint_stall|checkpoint_fail_first	src examples crates/bench benchmark/src	-	a fault-injection hook is named outside tests: the hooks exist only under testkit, which examples and benches build with
pub (snapshot_every|max_restarts|panic_after|keep|model_config|checkpoint_retries|checkpoint_retry_backoff|delta|lambda|sketch_alpha):	crates/core/src/pipeline/*.rs	-	a setting that is a constant is a public config field again (DESIGN.md sections 8, 9, 10 and 15)
pub version:	crates/net/src/reactor_collector.rs	-	a setting that is a constant is a public config field again: the collector accepts PROTOCOL_VERSION hellos only
pub jitter:	crates/net/src/agent.rs	-	a setting that is a constant is a public config field again: back-off jitter is a constant
pub (write_timeout|read_timeout):	crates/net/src/agent.rs crates/net/src/leaf.rs	-	a setting that is a constant is a public config field again: socket timeouts are constants
observe_interned|feed_frame_soa|FeatureVector|reference_run	src examples crates/bench/src	-	a per-row reference path is named outside tests: production code has one way into a detector
parse_frame|ParsedFrame|FrameOutcome|encode_frame_into|frame_digest|decode_batch\(|codec::decode\(	src examples crates/bench/src	-	an owned frame path or a second frame builder is named outside tests: one wire form past the frame check
fn stamp\(|liveness\.observe\(	crates/core/src/pipeline/pool.rs@prod	-	a per-row stamp is back in the pool router: LivenessTracker::stamp stamps a batch column by column
take_stale|perf: FastMap	crates/core/src/detector.rs	-	closing moves windows out of the store again, or a window's groups are a map: a closed window is tested by reference and recycled
mod prelude	crates/core/src	-	saad_core::prelude is back: every public name has one path, its module
core::prelude	. README.md	-	saad_core::prelude is named again: every public name has one path, its module
iter_mut\(\)\.find\(	crates/core/src/detector.rs	-	a row's performance group is searched for again: a row counts into the slot its classify pass wrote
is_perf_eligible	crates/core/src	-	accounting looks a row's (stage, signature) up in the model again: classify_rows writes the row's slot beside its class
by_index: BTreeMap	crates/core/src/detector.rs	-	the window store keys windows by a BTreeMap entry per row again: a row's window is one of the live indices
AdaptPolicy	crates src tests examples README.md	-	the drift policy is a settable type again: the drift window is the detection window, its evidence floor and cooldown are constants, and LifecycleConfig::adapt is a bool
replay_cuts	tests	-	a lifecycle oracle replays the transport's cuts again: a store-started pool's steps fall on rows the stream fixes, so its oracles take fixed batches
COOLDOWN_WINDOWS	crates/core/src	-	the drift rule has a cooldown again: a reset Page-Hinkley test's first observation cannot trip, so only a refused retrain waits, for one window edge (AdaptState::refused)
backend:	crates/net/src/reactor_collector.rs	-	the collector's readiness backend is a setting again: no caller set it, Server::start builds EventLoop::new(), and the reactor crate's suites cover Backend::Poll through EventLoop::with_backend
fn heartbeat|fn sweep|heartbeat_timeout	crates/net/src	-	the control plane detects failures by heartbeat again: nothing swept it, so failover is one rule, ControlPlane::mark_dead, and the control plane reads no clock
collector\.epoch|pub epoch:	crates/net/src/reactor_collector.rs examples crates/bench tests	-	a caller wires a control plane's epoch into a collector by hand again: a leaf spawned with a control plane enforces that plane's epoch itself
thread::sleep	crates/net/src/leaf.rs	-	a leaf sleeps on the wall clock again: its interval flush is a deadline timer on its collector's loop 0, and it starts no thread of its own
DetectorSink|detect_batch	crates src tests examples README.md	-	a second, inline analyzer is back beside the pool: every harness, example and test detects through a BatchSink into spawn_analyzer_pool (saad_bench::detect), so the ledger holds the production path
percentile_nan_below|durations_us: Vec<f64>|duration_us: f64|ulp_step	crates src tests examples	-	a duration or threshold is a float again: durations are u64 µs from the tracker to the test and a trained threshold is the floored percentile, so no duration path holds NaN, an infinite threshold or a ulp step
paper reference	crates/bench/benches	-	a bench prints its paper reference again: the paper's value lives once, in the bench's claim line (ledger::Panel::claim), beside what the run measured
stale_keys|recycle_while|closing:	crates/core/src/detector.rs@prod	-	a window close collects and sorts keys again: a close walks each retiring index's open rows once, in opening order, counts each row's open windows down, and stable-sorts only the events it pushed (DESIGN.md section 8)
PROTOCOL_VERSION: u16 = [0-2];|parse_at\(|encode_parts_into|fn (parse|decode)_v[0-9]	crates src tests examples	-	an older wire version or a second synopsis parser or encoder is back: one version is spoken (3), one parser (codec::Rows) reads every payload and one encoder (codec::Definitions) writes it
into_iter\(\)\.flatten\(\)	crates/net/src/agent.rs	-	the agent sink runs every synopsis's payloads through an array of options again: AgentSink::submit_parts returns right after its push, and only a cut or full payload is swapped out and queued
resize\(row \+|buf\.resize\(	crates/core/src/codec.rs	-	the encoder zero-fills a row to its worst case in the payload again: Definitions writes a row on the stack and appends it at its exact length
TABLE
exit $status
