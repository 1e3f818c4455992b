//! The in-process reference every workload's events are checked against:
//! one `AnomalyDetector::observe_batch` replay of exactly the batches the
//! pool received, in the order it received them.

use saad_core::batch::SynopsisBatch;
use saad_core::detector::{AnomalyDetector, AnomalyEvent, DetectorConfig};
use saad_core::intern::SignatureInterner;
use saad_core::model::{CompiledModel, OutlierModel, VerdictMask};
use saad_sim::{SimDuration, SimTime};
use std::sync::Arc;

/// A single detector fed the way the pool's router feeds its shard: each
/// element's watermark is re-stamped with the running maximum of every
/// start seen so far, across batches.
#[derive(Debug)]
pub struct Reference {
    detector: AnomalyDetector,
    verdicts: VerdictMask,
    watermark: SimTime,
    window_us: u64,
    events: Vec<AnomalyEvent>,
    seen: u64,
    late: u64,
}

impl Reference {
    /// A reference over `model` and its `compiled` form, resolving
    /// signatures through the same `interner` the batches were built with.
    pub fn new(
        model: &Arc<OutlierModel>,
        compiled: &Arc<CompiledModel>,
        interner: &Arc<SignatureInterner>,
        config: DetectorConfig,
    ) -> Reference {
        Reference {
            detector: AnomalyDetector::with_shared(
                model.clone(),
                compiled.clone(),
                interner.clone(),
                config,
            ),
            verdicts: VerdictMask::new(),
            watermark: SimTime::ZERO,
            window_us: config.window.as_micros(),
            events: Vec::new(),
            seen: 0,
            late: 0,
        }
    }

    /// Observe one delivered batch.
    pub fn feed(&mut self, mut batch: SynopsisBatch) {
        for i in 0..batch.len() {
            self.watermark = self.watermark.max(batch.starts[i]);
            batch.watermarks[i] = self.watermark;
            // Late = its window was already closable when it arrived.
            let index = batch.starts[i].as_micros() / self.window_us;
            if index + 1 < self.watermark.as_micros() / self.window_us {
                self.late += 1;
            }
        }
        self.seen += batch.len() as u64;
        self.events
            .extend(self.detector.observe_batch(&batch, &mut self.verdicts));
    }

    /// Close every remaining window and return all events, the number of
    /// synopses seen and how many of them arrived late.
    pub fn finish(mut self) -> (Vec<AnomalyEvent>, u64, u64) {
        self.events.extend(self.detector.flush());
        (self.events, self.seen, self.late)
    }
}

/// Order-insensitive identity of an event multiset: the sorted `Debug`
/// renderings of its events.
pub fn event_keys(events: &[AnomalyEvent]) -> Vec<String> {
    let mut keys: Vec<String> = events.iter().map(|e| format!("{e:?}")).collect();
    keys.sort_unstable();
    keys
}

/// Why two key lists differ, for a failure message: the sizes and the
/// first key that only one side has.
pub fn first_difference(got: &[String], expected: &[String]) -> String {
    let only = |a: &[String], b: &[String]| a.iter().find(|k| b.binary_search(k).is_err()).cloned();
    format!(
        "{} events, {} expected; only received: {}; only expected: {}",
        got.len(),
        expected.len(),
        only(got, expected).unwrap_or_else(|| "none".into()),
        only(expected, got).unwrap_or_else(|| "none".into()),
    )
}

/// Split `events` of a stream made of time-shifted replays (each `period`
/// long) into one key list per replay, with every event moved back into
/// the first period so that replays compare equal.
pub fn keys_by_replay(
    events: &[AnomalyEvent],
    period: SimDuration,
    replays: usize,
) -> Vec<Vec<String>> {
    let mut groups: Vec<Vec<AnomalyEvent>> = vec![Vec::new(); replays];
    for e in events {
        let replay = (e.window_start.as_micros() / period.as_micros()) as usize;
        let mut moved = e.clone();
        moved.window_start = SimTime::from_micros(e.window_start.as_micros() % period.as_micros());
        // An event beyond the last expected replay is kept (in the last
        // group) so that the comparison fails instead of hiding it.
        groups[replay.min(replays - 1)].push(moved);
    }
    groups.iter().map(|g| event_keys(g)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{shifted, soa_batches, with_markers, MARKER_STAGE};
    use saad_core::model::{ModelBuilder, ModelConfig};
    use saad_core::synopsis::TaskSynopsis;
    use saad_core::{HostId, StageId, TaskUid};
    use saad_logging::LogPointId;

    /// Two minutes of a two-host, two-stage stream with an untrained flow
    /// in its second minute.
    fn stream(period_secs: u64) -> Vec<TaskSynopsis> {
        let mut out = Vec::new();
        for ms in (0..period_secs * 1_000).step_by(50) {
            let odd = ms > 60_000 && ms % 1_000 == 0;
            out.push(TaskSynopsis {
                host: HostId(1 + (ms / 50 % 2) as u16),
                stage: StageId((ms / 100 % 2) as u16),
                uid: TaskUid(ms),
                start: SimTime::from_millis(ms),
                duration: SimDuration::from_micros(900 + ms % 70),
                log_points: if odd {
                    vec![(LogPointId(9), 1)]
                } else {
                    vec![(LogPointId(1), 1), (LogPointId(2), 1)]
                },
            });
        }
        out
    }

    #[test]
    fn shifted_replays_produce_the_first_replays_events_again() {
        let period = SimDuration::from_mins(2);
        let window = SimDuration::from_secs(10);
        let config = DetectorConfig {
            window,
            ..DetectorConfig::default()
        };
        let train = stream(60);
        let mut builder = ModelBuilder::new();
        train.iter().for_each(|s| builder.observe(s));
        let model = Arc::new(builder.build(ModelConfig::default()));
        let interner = Arc::new(SignatureInterner::new());
        let batches = soa_batches(&with_markers(stream(120), window), 64, &interner);

        let compiled = Arc::new(model.compile(&interner));
        let mut once = Reference::new(&model, &compiled, &interner, config);
        batches.iter().for_each(|b| once.feed(b.clone()));
        let (one_replay, seen, _) = once.finish();
        assert!(one_replay.iter().any(|e| e.stage != MARKER_STAGE));
        // One marker event per window of the period.
        assert_eq!(
            one_replay
                .iter()
                .filter(|e| e.stage == MARKER_STAGE)
                .count(),
            12
        );

        let mut thrice = Reference::new(&model, &compiled, &interner, config);
        for r in 0..3u64 {
            let shift = SimDuration::from_micros(period.as_micros() * r);
            batches.iter().for_each(|b| thrice.feed(shifted(b, shift)));
        }
        let (all, seen3, late) = thrice.finish();
        assert_eq!(seen3, 3 * seen);
        assert_eq!(late, 0);
        let groups = keys_by_replay(&all, period, 3);
        let expected = keys_by_replay(&one_replay, period, 1).remove(0);
        assert_eq!(groups, vec![expected.clone(), expected.clone(), expected]);
    }

    #[test]
    fn first_difference_names_what_each_side_lacks() {
        let keys = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let msg = first_difference(&keys(&["a", "b", "d"]), &keys(&["a", "c", "d"]));
        assert_eq!(
            msg,
            "3 events, 3 expected; only received: b; only expected: c"
        );
        let msg = first_difference(&keys(&["a", "a"]), &keys(&["a"]));
        assert!(msg.starts_with("2 events, 1 expected; only received: none"));
    }

    #[test]
    fn reference_counts_late_arrivals() {
        let config = DetectorConfig {
            window: SimDuration::from_secs(10),
            ..DetectorConfig::default()
        };
        let model = Arc::new(ModelBuilder::new().build(ModelConfig::default()));
        let interner = Arc::new(SignatureInterner::new());
        let mut s = stream(40);
        // One task from the first window delivered after the fourth began.
        let straggler = s.remove(3);
        s.push(straggler);
        let compiled = Arc::new(model.compile(&interner));
        let mut reference = Reference::new(&model, &compiled, &interner, config);
        soa_batches(&s, 32, &interner)
            .into_iter()
            .for_each(|b| reference.feed(b));
        let (_, seen, late) = reference.finish();
        assert_eq!(seen, 800);
        assert_eq!(late, 1);
    }
}
