//! What one run found: metrics with units and sample counts, correctness
//! checks, and the attempted/failed tally.

use std::fmt::Write as _;

use tve_obs::append_json_string;

use crate::stats;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many measurements the value summarises (1 for exact values).
    pub samples: usize,
    /// Extra context printed beside the value (e.g. the tail percentile).
    pub note: String,
}

#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub checks: Vec<Check>,
    /// Units of work attempted (jobs, cells, requests).
    pub attempted: u64,
    /// Units of work that failed, were shed or came back wrong.
    pub failed: u64,
    /// Free-form lines printed before the metrics (layer tables).
    pub lines: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metric_noted(name, value, unit, samples, String::new());
    }

    pub fn metric_noted(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: usize,
        note: String,
    ) {
        debug_assert!(stats::valid_name(name) && stats::valid_unit(unit), "{name}");
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            note,
        });
    }

    /// The median of `values` in `unit`, with its sample count.
    pub fn median(&mut self, name: &str, values: &[f64], unit: &'static str) {
        if let Some(m) = stats::median(values) {
            self.metric(name, m, unit, values.len());
        }
    }

    /// The median over passes of each pass's median, noting how many
    /// samples the passes held in all.
    pub fn median_of_medians(&mut self, name: &str, passes: &[Vec<f64>], unit: &'static str) {
        let medians: Vec<f64> = passes.iter().filter_map(|p| stats::median(p)).collect();
        if let Some(m) = stats::median(&medians) {
            let total: usize = passes.iter().map(Vec::len).sum();
            self.metric_noted(
                name,
                m,
                unit,
                medians.len(),
                format!("median of per-pass medians, {total} samples"),
            );
        }
    }

    /// The tail-rule percentile of `values`; says so when there are too
    /// few samples for one.
    pub fn tail(&mut self, name: &str, values: &[f64], unit: &'static str) {
        match stats::tail(values) {
            Some((p, v)) => self.metric_noted(
                name,
                v,
                unit,
                values.len(),
                format!("p{p} (>= {} samples beyond)", stats::TAIL_MIN_BEYOND),
            ),
            None => self.line(format!(
                "{name}: not reported, {} samples leave fewer than {} beyond the median",
                values.len(),
                stats::TAIL_MIN_BEYOND
            )),
        }
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        if !ok {
            self.failed += 1;
        }
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The human-readable report: every metric by name with its unit.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            let _ = writeln!(out, "{line}");
        }
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "metric {:<28} {:>18} {:<6} n={:<5} {}",
                m.name,
                format_value(m.value),
                m.unit,
                m.samples,
                m.note
            );
        }
        for c in &self.checks {
            let _ = writeln!(
                out,
                "check  {:<28} {} {}",
                c.name,
                if c.ok { "ok    " } else { "FAILED" },
                c.detail
            );
        }
        out
    }

    /// Every metric, check and the host as one JSON record.
    pub fn record_json(&self, header: &str) -> String {
        let mut out = format!("{{{header},\"metrics\":{{");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            append_json_string(&mut out, &m.name);
            let _ = write!(
                out,
                ":{{\"value\":{},\"unit\":\"{}\",\"samples\":{}",
                json_number(m.value),
                m.unit,
                m.samples
            );
            if !m.note.is_empty() {
                out.push_str(",\"note\":");
                append_json_string(&mut out, &m.note);
            }
            out.push('}');
        }
        out.push_str("},\"checks\":[");
        for (i, c) in self.checks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            append_json_string(&mut out, &c.name);
            let _ = write!(out, ",\"ok\":{},\"detail\":", c.ok);
            append_json_string(&mut out, &c.detail);
            out.push('}');
        }
        let _ = writeln!(
            out,
            "],\"attempted\":{},\"failed\":{}}}",
            self.attempted, self.failed
        );
        out
    }
}

/// A value with all its digits (Rust's shortest round-trip form).
pub fn format_value(v: f64) -> String {
    format!("{v}")
}

/// A finite number as JSON; non-finite values become `null`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format_value(v)
    } else {
        "null".into()
    }
}
