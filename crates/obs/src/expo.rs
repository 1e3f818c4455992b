//! Prometheus text exposition format (version 0.0.4): rendering and a
//! strict well-formedness checker.
//!
//! Rendering walks the registry under a read lock, evaluates callback
//! instruments, snapshots histograms, and emits `# HELP` / `# TYPE`
//! headers followed by samples. Histograms emit cumulative `le`
//! buckets for every *non-empty* native bucket plus `+Inf`, `_sum`,
//! and `_count` — the 1920-bucket native layout compresses to however
//! few buckets actually hold data.

use crate::registry::{Instrument, Registry};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Content-Type for scrape responses.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Escape a HELP string: backslash and newline.
fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escape a label value: backslash, double-quote, newline.
fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Render a label set (plus an optional trailing `le`) as
/// `{k="v",...}`, or the empty string when there are no labels.
fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

impl Registry {
    /// Render every family in Prometheus text format.
    pub fn render(&self) -> String {
        let families = self.families.read();
        let mut out = String::with_capacity(4096);
        for family in families.iter() {
            let _ = writeln!(out, "# HELP {} {}", family.name, escape_help(&family.help));
            let _ = writeln!(out, "# TYPE {} {}", family.name, family.kind.as_str());
            for series in &family.series {
                match &series.instrument {
                    Instrument::Counter(c) => {
                        let _ = writeln!(
                            out,
                            "{}{} {}",
                            family.name,
                            render_labels(&series.labels, None),
                            c.get()
                        );
                    }
                    Instrument::CounterFn(f) => {
                        let _ = writeln!(
                            out,
                            "{}{} {}",
                            family.name,
                            render_labels(&series.labels, None),
                            f()
                        );
                    }
                    Instrument::Gauge(g) => {
                        let _ = writeln!(
                            out,
                            "{}{} {}",
                            family.name,
                            render_labels(&series.labels, None),
                            g.get()
                        );
                    }
                    Instrument::GaugeFn(f) => {
                        let _ = writeln!(
                            out,
                            "{}{} {}",
                            family.name,
                            render_labels(&series.labels, None),
                            f()
                        );
                    }
                    Instrument::Histogram(h) => {
                        let snap = h.snapshot();
                        let mut cum = 0u64;
                        for (upper, count) in snap.nonzero_buckets() {
                            cum += count;
                            let _ = writeln!(
                                out,
                                "{}_bucket{} {}",
                                family.name,
                                render_labels(&series.labels, Some(&upper.to_string())),
                                cum
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            family.name,
                            render_labels(&series.labels, Some("+Inf")),
                            cum
                        );
                        let _ = writeln!(
                            out,
                            "{}_sum{} {}",
                            family.name,
                            render_labels(&series.labels, None),
                            snap.sum()
                        );
                        let _ = writeln!(
                            out,
                            "{}_count{} {}",
                            family.name,
                            render_labels(&series.labels, None),
                            cum
                        );
                    }
                }
            }
        }
        out
    }
}

/// A parsed sample line: metric name, label pairs, and value.
type Sample = (String, Vec<(String, String)>, f64);

/// Parse one sample line into `(name, labels, value)`.
fn parse_sample(line: &str) -> Result<Sample, String> {
    let err = |msg: &str| format!("{msg}: {line:?}");
    let (name_part, rest) = match line.find(['{', ' ']) {
        Some(i) => line.split_at(i),
        None => return Err(err("sample has no value")),
    };
    let name = name_part.to_string();
    if name.is_empty()
        || !name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    {
        return Err(err("invalid metric name"));
    }
    let mut labels = Vec::new();
    let value_part = if let Some(body) = rest.strip_prefix('{') {
        let close = body.find('}').ok_or_else(|| err("unclosed label braces"))?;
        let (label_body, after) = body.split_at(close);
        let mut s = label_body;
        while !s.is_empty() {
            let eq = s.find('=').ok_or_else(|| err("label missing '='"))?;
            let key = &s[..eq];
            if key.is_empty()
                || !key
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
                || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
            {
                return Err(err("invalid label name"));
            }
            s = &s[eq + 1..];
            if !s.starts_with('"') {
                return Err(err("label value not quoted"));
            }
            s = &s[1..];
            let mut value = String::new();
            let mut chars = s.char_indices();
            let mut end = None;
            while let Some((i, c)) = chars.next() {
                match c {
                    '\\' => match chars.next() {
                        Some((_, 'n')) => value.push('\n'),
                        Some((_, e)) => value.push(e),
                        None => return Err(err("dangling escape in label value")),
                    },
                    '"' => {
                        end = Some(i);
                        break;
                    }
                    _ => value.push(c),
                }
            }
            let end = end.ok_or_else(|| err("unterminated label value"))?;
            labels.push((key.to_string(), value));
            s = &s[end + 1..];
            if let Some(next) = s.strip_prefix(',') {
                s = next;
            } else if !s.is_empty() {
                return Err(err("junk between labels"));
            }
        }
        &after[1..]
    } else {
        rest
    };
    let value_part = value_part.trim_start();
    // An optional timestamp may follow the value.
    let mut fields = value_part.split_whitespace();
    let value_str = fields.next().ok_or_else(|| err("sample has no value"))?;
    if let Some(ts) = fields.next() {
        ts.parse::<i64>()
            .map_err(|_| err("unparseable timestamp"))?;
    }
    if fields.next().is_some() {
        return Err(err("trailing junk after timestamp"));
    }
    let value = match value_str {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        other => other
            .parse::<f64>()
            .map_err(|_| err("unparseable sample value"))?,
    };
    Ok((name, labels, value))
}

/// Check that `text` is well-formed Prometheus exposition text.
///
/// Verifies, line by line: `# HELP` / `# TYPE` comment syntax with
/// known types, each `TYPE` declared at most once and before its
/// samples, a counter's name ending in `_total` (DESIGN.md §11: a level
/// is a gauge), sample names/labels/values parse, every sample belongs to
/// a declared family (histogram samples may use the `_bucket` / `_sum`
/// / `_count` suffixes), and for each histogram series the `le`
/// buckets are cumulative and non-decreasing, end with `+Inf`, and the
/// `+Inf` count equals the series' `_count` sample.
pub fn validate_text(text: &str) -> Result<(), String> {
    if text.is_empty() {
        return Err("empty exposition".into());
    }
    if !text.ends_with('\n') {
        return Err("exposition must end with a newline".into());
    }
    let mut types: HashMap<String, String> = HashMap::new();
    // (family, series-labels-sans-le) → bucket values in order of appearance.
    let mut buckets: HashMap<(String, String), Vec<(f64, f64)>> = HashMap::new();
    let mut counts: HashMap<(String, String), f64> = HashMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let ctx = |msg: String| format!("line {}: {msg}", lineno + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("TYPE ") {
                let mut parts = rest.split_whitespace();
                let name = parts
                    .next()
                    .ok_or_else(|| ctx("TYPE without a metric name".into()))?;
                let kind = parts
                    .next()
                    .ok_or_else(|| ctx(format!("TYPE {name} without a type")))?;
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(ctx(format!("unknown type {kind:?} for {name}")));
                }
                if kind == "counter" && !name.ends_with("_total") {
                    return Err(ctx(format!("counter {name} does not end in _total")));
                }
                if types.insert(name.to_string(), kind.to_string()).is_some() {
                    return Err(ctx(format!("duplicate TYPE for {name}")));
                }
            } else if let Some(rest) = comment.strip_prefix("HELP ") {
                if rest.split_whitespace().next().is_none() {
                    return Err(ctx("HELP without a metric name".into()));
                }
            }
            // Other comments are allowed and ignored.
            continue;
        }
        let (name, labels, value) = parse_sample(line).map_err(&ctx)?;
        // Resolve the sample to a declared family.
        let family = if types.contains_key(&name) {
            name.clone()
        } else {
            let stripped = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suffix| name.strip_suffix(suffix))
                .filter(|base| types.get(*base).map(String::as_str) == Some("histogram"));
            match stripped {
                Some(base) => base.to_string(),
                None => return Err(ctx(format!("sample {name} has no preceding TYPE"))),
            }
        };
        if types.get(&family).map(String::as_str) == Some("histogram") {
            let series_key: String = labels
                .iter()
                .filter(|(k, _)| k != "le")
                .map(|(k, v)| format!("{k}={v};"))
                .collect();
            if name.ends_with("_bucket") && name.len() == family.len() + "_bucket".len() {
                let le = labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .map(|(_, v)| v.as_str())
                    .ok_or_else(|| ctx(format!("{name} bucket without le label")))?;
                let bound = match le {
                    "+Inf" => f64::INFINITY,
                    other => other
                        .parse::<f64>()
                        .map_err(|_| ctx(format!("unparseable le bound {other:?}")))?,
                };
                buckets
                    .entry((family.clone(), series_key))
                    .or_default()
                    .push((bound, value));
            } else if name.ends_with("_count") && name.len() == family.len() + "_count".len() {
                counts.insert((family.clone(), series_key), value);
            }
        }
    }
    for ((family, series), series_buckets) in &buckets {
        let mut prev_bound = f64::NEG_INFINITY;
        let mut prev_cum = -1.0f64;
        for &(bound, cum) in series_buckets {
            if bound <= prev_bound {
                return Err(format!(
                    "histogram {family}{{{series}}}: le bounds not increasing at {bound}"
                ));
            }
            if cum < prev_cum {
                return Err(format!(
                    "histogram {family}{{{series}}}: bucket counts not cumulative at le={bound}"
                ));
            }
            prev_bound = bound;
            prev_cum = cum;
        }
        let (last_bound, last_cum) = *series_buckets.last().expect("non-empty by construction");
        if last_bound != f64::INFINITY {
            return Err(format!(
                "histogram {family}{{{series}}}: missing +Inf bucket"
            ));
        }
        match counts.get(&(family.clone(), series.clone())) {
            Some(&count) if count == last_cum => {}
            Some(&count) => {
                return Err(format!(
                    "histogram {family}{{{series}}}: +Inf bucket {last_cum} != _count {count}"
                ));
            }
            None => {
                return Err(format!("histogram {family}{{{series}}}: missing _count"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn renders_counters_gauges_and_callbacks() {
        let r = Registry::new();
        let c = r.register_counter("req_total", "Requests", &[("host", "a\"b")]);
        c.add(3);
        let g = r.register_gauge("queue_depth", "Depth", &[]);
        g.set(-2);
        let backing = Arc::new(AtomicU64::new(17));
        let read = Arc::clone(&backing);
        r.register_counter_fn("drops_total", "Drops", &[("host", "1")], move || {
            read.load(Ordering::Relaxed)
        });
        let text = r.render();
        assert!(text.contains("# TYPE req_total counter"));
        assert!(text.contains("req_total{host=\"a\\\"b\"} 3"));
        assert!(text.contains("queue_depth -2"));
        assert!(text.contains("drops_total{host=\"1\"} 17"));
        validate_text(&text).unwrap();
    }

    #[test]
    fn renders_histogram_cumulatively() {
        let r = Registry::new();
        let h = r.register_histogram("lat_us", "Latency", &[("stage", "router")]);
        h.record(3);
        h.record(3);
        h.record(100);
        let text = r.render();
        assert!(text.contains("lat_us_bucket{stage=\"router\",le=\"3\"} 2"));
        assert!(text.contains("lat_us_bucket{stage=\"router\",le=\"+Inf\"} 3"));
        assert!(text.contains("lat_us_sum{stage=\"router\"} 106"));
        assert!(text.contains("lat_us_count{stage=\"router\"} 3"));
        validate_text(&text).unwrap();
    }

    #[test]
    fn validator_rejects_malformed_text() {
        for (bad, why) in [
            ("", "empty"),
            ("x_total 1", "no trailing newline"),
            ("x_total 1\n", "sample without TYPE"),
            ("# TYPE x_total counter\nx_total one\n", "bad value"),
            ("# TYPE x_total banana\nx_total 1\n", "unknown type"),
            (
                "# TYPE x_total counter\n# TYPE x_total counter\nx_total 1\n",
                "duplicate TYPE",
            ),
            (
                "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
                "missing +Inf",
            ),
            (
                "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
                "non-cumulative buckets",
            ),
            (
                "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 1\n",
                "+Inf != count",
            ),
            ("# TYPE x_total counter\nx_total{host=} 1\n", "label value"),
            ("# TYPE x counter\nx 1\n", "counter without _total"),
        ] {
            assert!(validate_text(bad).is_err(), "should reject: {why}");
        }
    }

    #[test]
    fn validator_accepts_escapes_and_timestamps() {
        let text =
            "# HELP m a help \\n line\n# TYPE m gauge\nm{k=\"a\\\\b\\\"c\"} 1.5 1700000000\n";
        validate_text(text).unwrap();
    }
}
