//! Human-readable anomaly reporting (paper §3.3.3, "Anomaly Reporting").
//!
//! "Each anomalous signature is presented to the user by its stage name,
//! and the list of log templates of its log points." This module renders
//! that presentation, including the Table-1-style side-by-side comparison
//! of a normal and an anomalous signature.

use crate::detector::{AnomalyEvent, AnomalyKind};
use crate::{Signature, StageId, StageRegistry};
use saad_logging::LogPointRegistry;
use std::fmt::Write as _;

/// Renderer that resolves stage ids and log point ids to names/templates.
#[derive(Debug)]
pub struct AnomalyReport<'a> {
    stages: &'a StageRegistry,
    points: &'a LogPointRegistry,
}

impl<'a> AnomalyReport<'a> {
    /// Create a renderer over the given registries.
    pub fn new(stages: &'a StageRegistry, points: &'a LogPointRegistry) -> AnomalyReport<'a> {
        AnomalyReport { stages, points }
    }

    /// The paper's `Stage (host id)` label, e.g. `DataXceiver(3)`. Liveness
    /// events carry no stage ([`StageId::NONE`]) and are labeled by host.
    pub(crate) fn stage_label(&self, event: &AnomalyEvent) -> String {
        if event.stage == StageId::NONE {
            return event.host.to_string();
        }
        let name = self
            .stages
            .name(event.stage)
            .unwrap_or_else(|| event.stage.to_string());
        format!("{}({})", name, event.host.0)
    }

    /// Render one anomaly event with its signature's log templates.
    pub fn render(&self, event: &AnomalyEvent) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "[{:>8.2} min] {} {}",
            event.window_start.as_mins_f64(),
            self.stage_label(event),
            event.kind
        );
        if let Some(p) = event.p_value {
            let _ = write!(out, " (p = {p:.2e})");
        }
        if event.kind.is_liveness() {
            let _ = writeln!(out);
        } else {
            let _ = write!(out, " — {} of {} tasks", event.outliers, event.window_tasks);
            if event.completeness < 1.0 {
                let _ = write!(out, " ({:.0}% data)", event.completeness * 100.0);
            }
            let _ = writeln!(out);
        }
        let sig = match &event.kind {
            AnomalyKind::FlowNew(sig) | AnomalyKind::Performance(sig) => Some(sig),
            AnomalyKind::FlowRare
            | AnomalyKind::HostSilent { .. }
            | AnomalyKind::ModelUnavailable => None,
        };
        if let Some(sig) = sig {
            out.push_str(&self.render_signature(sig, "    "));
        }
        out
    }

    /// Render the templates of a signature's log points, one per line.
    pub(crate) fn render_signature(&self, sig: &Signature, indent: &str) -> String {
        let mut out = String::new();
        for &p in sig.points() {
            match self.points.template(p) {
                Some(t) => {
                    let _ = writeln!(out, "{indent}{p}: \"{}\" ({}:{})", t.text, t.file, t.line);
                }
                None => {
                    let _ = writeln!(out, "{indent}{p}: <unregistered log point>");
                }
            }
        }
        out
    }

    /// Table-1-style comparison: every log template of the normal flow,
    /// with check marks for which flows hit it.
    ///
    /// # Example output
    ///
    /// ```text
    /// Description of log statements                         | Normal | Anomalous
    /// MemTable is already frozen; another thread must be... |   x    |    x
    /// Start applying update to MemTable                     |   x    |
    /// ```
    pub fn render_signature_comparison(&self, normal: &Signature, anomalous: &Signature) -> String {
        let mut all: Vec<_> = normal.points().to_vec();
        for &p in anomalous.points() {
            if !normal.contains(p) {
                all.push(p);
            }
        }
        let rows: Vec<(String, bool, bool)> = all
            .iter()
            .map(|&p| {
                let text = self
                    .points
                    .template(p)
                    .map(|t| t.text.clone())
                    .unwrap_or_else(|| p.to_string());
                (text, normal.contains(p), anomalous.contains(p))
            })
            .collect();
        let width = rows
            .iter()
            .map(|(t, _, _)| t.len())
            .chain(["Description of log statements".len()])
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<width$} | Normal | Anomalous",
            "Description of log statements"
        );
        for (text, n, a) in rows {
            let _ = writeln!(
                out,
                "{text:<width$} |   {}    |     {}",
                if n { "x" } else { " " },
                if a { "x" } else { " " }
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HostId, StageId};
    use saad_logging::{Level, LogPointId};
    use saad_sim::SimTime;

    fn registries() -> (StageRegistry, LogPointRegistry) {
        let stages = StageRegistry::new();
        stages.register("Table");
        let points = LogPointRegistry::new();
        points.register(
            "MemTable is already frozen; another thread must be flushing it",
            Level::Debug,
            "Table.rs",
            10,
        );
        points.register(
            "Start applying update to MemTable",
            Level::Debug,
            "Table.rs",
            20,
        );
        points.register("Applying mutation of row", Level::Debug, "Table.rs", 30);
        points.register(
            "Applied mutation. Sending response",
            Level::Debug,
            "Table.rs",
            40,
        );
        (stages, points)
    }

    fn event(kind: AnomalyKind) -> AnomalyEvent {
        AnomalyEvent {
            host: HostId(4),
            stage: StageId(0),
            window_start: SimTime::from_mins(18),
            kind,
            p_value: Some(1.5e-7),
            outliers: 37,
            window_tasks: 412,
            completeness: 1.0,
        }
    }

    #[test]
    fn stage_label_matches_paper_format() {
        let (stages, points) = registries();
        let r = AnomalyReport::new(&stages, &points);
        assert_eq!(r.stage_label(&event(AnomalyKind::FlowRare)), "Table(4)");
    }

    #[test]
    fn render_includes_kind_pvalue_and_counts() {
        let (stages, points) = registries();
        let r = AnomalyReport::new(&stages, &points);
        let s = r.render(&event(AnomalyKind::FlowRare));
        assert!(s.contains("Table(4)"));
        assert!(s.contains("rare pattern"));
        assert!(s.contains("1.50e-7"));
        assert!(s.contains("37 of 412"));
    }

    #[test]
    fn render_shows_completeness_when_degraded() {
        let (stages, points) = registries();
        let r = AnomalyReport::new(&stages, &points);
        let mut e = event(AnomalyKind::FlowRare);
        e.completeness = 0.72;
        let s = r.render(&e);
        assert!(s.contains("72% data"), "{s}");
        // Intact windows stay quiet about completeness.
        let s = r.render(&event(AnomalyKind::FlowRare));
        assert!(!s.contains("% data"), "{s}");
    }

    #[test]
    fn render_host_silent_is_labeled_by_host() {
        let (stages, points) = registries();
        let r = AnomalyReport::new(&stages, &points);
        let mut e = event(AnomalyKind::HostSilent { windows: 2 });
        e.stage = StageId::NONE;
        e.p_value = None;
        e.completeness = 0.0;
        let s = r.render(&e);
        assert!(s.contains("host4"), "{s}");
        assert!(s.contains("host silent"), "{s}");
        assert!(!s.contains("of 412 tasks"), "{s}");
    }

    #[test]
    fn render_new_signature_lists_templates() {
        let (stages, points) = registries();
        let r = AnomalyReport::new(&stages, &points);
        let sig = Signature::from_points([LogPointId(0)]);
        let s = r.render(&event(AnomalyKind::FlowNew(sig)));
        assert!(s.contains("already frozen"), "{s}");
        assert!(s.contains("Table.rs:10"));
    }

    #[test]
    fn unregistered_points_render_placeholder() {
        let (stages, points) = registries();
        let r = AnomalyReport::new(&stages, &points);
        let sig = Signature::from_points([LogPointId(999)]);
        let s = r.render_signature(&sig, "");
        assert!(s.contains("unregistered"));
    }

    #[test]
    fn table1_comparison_shows_premature_termination() {
        // Reproduces the structure of the paper's Table 1 exactly.
        let (stages, points) = registries();
        let r = AnomalyReport::new(&stages, &points);
        let normal = Signature::from_points([0, 1, 2, 3].map(LogPointId));
        let frozen = Signature::from_points([LogPointId(0)]);
        let table = r.render_signature_comparison(&normal, &frozen);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 5); // header + 4 templates
        assert!(lines[0].contains("Normal") && lines[0].contains("Anomalous"));
        // First template hit by both flows.
        assert!(lines[1].contains("frozen"));
        assert_eq!(lines[1].matches('x').count(), 2);
        // Remaining templates only in the normal flow.
        for line in &lines[2..] {
            assert_eq!(line.matches('x').count(), 1, "{line}");
        }
    }

    #[test]
    fn comparison_includes_points_unique_to_anomalous() {
        let (stages, points) = registries();
        let r = AnomalyReport::new(&stages, &points);
        let normal = Signature::from_points([LogPointId(0)]);
        let anomalous = Signature::from_points([LogPointId(0), LogPointId(3)]);
        let table = r.render_signature_comparison(&normal, &anomalous);
        assert!(table.contains("Sending response"));
    }
}
