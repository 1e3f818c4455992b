//! The ledger: what the detector says on the paper's workloads, one line
//! per [`AnomalyEvent`], and the paper's other virtual-time numbers, one
//! line per claim, committed under `ledger/` at the repository root.
//!
//! Each evidence harness (Table 1, Figures 6, 8, 9, 10 and 11, §5.3.3,
//! the gray catalog and the drift ablation) ends its fast-scale run by
//! writing one file there. The file is the record: a change to detection
//! or to a claim shows up as a `git diff ledger/`, and CI regenerates the
//! files and fails on any difference the change did not commit. An event
//! line reads
//!
//! ```text
//! a-wal-error | Table | flow-new | run 0 | t 720s | host 4 | [L17] | 27/27 | p -
//! ```
//!
//! panel, stage name, kind, run, window start, host, the signature's log
//! points (or the silent windows of a liveness event), outliers over the
//! window's tasks, and the p-value to three significant digits (`-` when
//! no test ran). Stage and signature names are the ones
//! [`AnomalyReport`](saad_core::report::AnomalyReport) prints. Lines are
//! sorted by (panel, stage, kind, run, window, host), so a diff groups
//! what moved by (stage, kind).
//!
//! Each panel opens with a header naming its class in Wittkopp et al.'s
//! taxonomy of log anomalies (PAPERS.md).
//!
//! The paper's other numbers are claim panels ([`Panel::claims`]): one
//! line per quantity a harness measured, beside what the paper reports,
//!
//! ```text
//! fig8 | HDFS | log MB | 27.99 | 1457
//! ```
//!
//! figure, system, quantity, measured, paper (`-` where the paper gives
//! no figure). Fig 6, Fig 8 and §5.3.3's corpus run on virtual time and
//! are written here through the same [`write()`] and [`check`]; a
//! wall-clock figure prints the same lines and keeps its rounds in a
//! `BENCH_*.json` instead, since no run repeats it byte for byte.

use crate::full_scale;
use saad_core::detector::{AnomalyEvent, AnomalyKind};
use saad_core::{StageId, StageRegistry};
use saad_fault::FaultType;
use std::collections::BTreeMap;
use std::fmt;

/// The class of anomaly a panel injects, after Wittkopp et al. SAAD
/// raises no *point* anomaly: it never judges one log line alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnomalyClass {
    /// A duration normal in general but an outlier for its stage and
    /// signature: what SAAD's performance test flags.
    Contextual,
    /// A set of log lines anomalous together: a task whose log points form
    /// a new or rare signature, what SAAD's flow test flags.
    Collective,
    /// No anomaly is injected: every line is a false positive.
    Control,
}

impl AnomalyClass {
    /// What a Cassandra fault injects: an error cuts a task's flow short
    /// (collective), a delay stretches its duration (contextual).
    pub fn of_fault(fault: FaultType) -> AnomalyClass {
        match fault {
            FaultType::Error => AnomalyClass::Collective,
            FaultType::Delay(_) => AnomalyClass::Contextual,
        }
    }
}

impl fmt::Display for AnomalyClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AnomalyClass::Contextual => "contextual",
            AnomalyClass::Collective => "collective",
            AnomalyClass::Control => "control",
        })
    }
}

/// The sort key of a line after its panel: stage, kind, run, window
/// start in µs, host.
type Key = (String, &'static str, u32, u64, u16);

/// One panel of a ledger file: a header and the events of its runs.
#[derive(Debug, Clone)]
pub struct Panel {
    name: String,
    header: String,
    lines: Vec<(Key, String)>,
}

impl Panel {
    /// An empty panel `name` (one word, it starts each of its lines) of
    /// class `class`, described by `about`.
    pub fn new(name: impl Into<String>, class: AnomalyClass, about: &str) -> Panel {
        let name = name.into();
        Panel {
            header: format!("## {name} [{class}] {about}"),
            name,
            lines: Vec::new(),
        }
    }

    /// An empty claim panel `figure` (one word, it starts each of its
    /// lines), described by `about`. Its lines keep the order they are
    /// added in.
    pub fn claims(figure: impl Into<String>, about: &str) -> Panel {
        let name = figure.into();
        Panel {
            header: format!("## {name} {about}"),
            name,
            lines: Vec::new(),
        }
    }

    /// Add and print one claim line: `system`'s `quantity`, `measured`
    /// by this run, beside what the `paper` reports.
    pub fn claim(
        &mut self,
        system: &str,
        quantity: &str,
        measured: impl fmt::Display,
        paper: &str,
    ) {
        let line = format!(
            "{} | {system} | {quantity} | {measured} | {paper}",
            self.name
        );
        println!("{line}");
        self.lines.push((Key::default(), line));
    }

    /// Add run `run`'s events, naming stages through `stages`.
    pub fn record(&mut self, run: u32, events: &[AnomalyEvent], stages: &StageRegistry) {
        for e in events {
            let stage = match e.stage {
                StageId::NONE => "-".to_owned(),
                id => stages.name(id).unwrap_or_else(|| id.to_string()),
            };
            let (kind, evidence) = match &e.kind {
                AnomalyKind::FlowRare => ("flow-rare", "-".to_owned()),
                AnomalyKind::FlowNew(sig) => ("flow-new", sig.to_string()),
                AnomalyKind::Performance(sig) => ("perf", sig.to_string()),
                AnomalyKind::HostSilent { windows } => {
                    ("host-silent", format!("{windows} windows"))
                }
                AnomalyKind::ModelUnavailable => ("no-model", "-".to_owned()),
            };
            let p = e.p_value.map_or("-".to_owned(), |p| format!("{p:.2e}"));
            let mut line = format!(
                "{} | {stage} | {kind} | run {run} | t {}s | host {} | {evidence} | {}/{} | p {p}",
                self.name,
                e.window_start.as_secs_f64(),
                e.host.0,
                e.outliers,
                e.window_tasks,
            );
            if e.completeness < 1.0 {
                line.push_str(&format!(" | {:.0}% data", e.completeness * 100.0));
            }
            let key = (stage, kind, run, e.window_start.as_micros(), e.host.0);
            self.lines.push((key, line));
        }
        self.lines.sort();
    }

    /// The panel's block: its header, then its lines in ledger order.
    fn block(&self) -> Vec<String> {
        let lines = self.lines.iter().map(|(_, line)| line.clone());
        std::iter::once(self.header.clone()).chain(lines).collect()
    }
}

/// A ledger file's text: `title` on the first line, then each panel's
/// block in panel-name order, a blank line before each.
fn render(title: &str, panels: &[Panel]) -> String {
    let mut sorted: Vec<&Panel> = panels.iter().collect();
    sorted.sort_by(|a, b| a.name.cmp(&b.name));
    let mut out = format!("# {title}\n");
    for panel in sorted {
        out.push('\n');
        for line in panel.block() {
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

fn path(file: &str) -> String {
    format!("{}/../../ledger/{file}", env!("CARGO_MANIFEST_DIR"))
}

/// Write `ledger/<file>` and print the one line that says so. A
/// full-scale run leaves the committed fast-scale file as it is.
pub fn write(file: &str, title: &str, panels: &[Panel]) {
    if full_scale() {
        println!("ledger/{file} not written: it records the fast-scale run");
        return;
    }
    std::fs::write(path(file), render(title, panels))
        .unwrap_or_else(|e| panic!("write ledger/{file}: {e}"));
    println!("wrote ledger/{file}");
}

/// Compare `panels` with their blocks in the committed `ledger/<file>`.
/// On a difference, the error lists the lines only the committed file has
/// (`-`), then those only this run has (`+`), each in ledger order.
pub fn check(file: &str, panels: &[Panel]) -> Result<(), String> {
    let committed =
        std::fs::read_to_string(path(file)).unwrap_or_else(|e| panic!("read ledger/{file}: {e}"));
    let mut blocks: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    let mut current = None;
    for line in committed.lines() {
        if let Some(header) = line.strip_prefix("## ") {
            current = header.split(' ').next();
        }
        if let (Some(name), false) = (current, line.is_empty()) {
            blocks.entry(name).or_default().push(line);
        }
    }
    let mut diff = String::new();
    for panel in panels {
        let mut kept = blocks.remove(panel.name.as_str()).unwrap_or_default();
        let mut added = Vec::new();
        for line in panel.block() {
            if let Some(i) = kept.iter().position(|&l| l == line) {
                kept.remove(i);
            } else {
                added.push(line);
            }
        }
        for line in kept {
            diff.push_str(&format!("- {line}\n"));
        }
        for line in added {
            diff.push_str(&format!("+ {line}\n"));
        }
    }
    if diff.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "ledger/{file} differs from this run (- committed, + now):\n{diff}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_lines_keep_their_order_under_their_header() {
        let mut claims = Panel::claims("fig8", "volumes");
        claims.claim("HDFS", "log MB", "27.99", "1457");
        claims.claim("Cassandra", "ratio", format!("{}x", 7), "10.5x");
        assert_eq!(
            render("Figure 8", &[claims]),
            "# Figure 8\n\n## fig8 volumes\n\
             fig8 | HDFS | log MB | 27.99 | 1457\n\
             fig8 | Cassandra | ratio | 7x | 10.5x\n"
        );
    }
}
