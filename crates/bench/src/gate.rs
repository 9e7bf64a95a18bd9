//! One snapshot writer and baseline gate for the `BENCH_*.json`
//! trajectories.
//!
//! A bench bin declares each snapshot value once, in a [`Snapshot`]:
//! its section, key, value, print precision and class. The same
//! declaration writes the JSON file and gates it against a committed
//! baseline, so a metric's name never appears twice. There are three
//! classes:
//!
//! - *exact*: bit-deterministic; must equal the baseline at the printed
//!   precision;
//! - *band*: a host timing; must lie within ±25 % of the baseline;
//! - *record*: written for trend reading, never gated.
//!
//! [`Gate`] owns the shared command line: `--out PATH` (default
//! `target/<committed file>`) and `--check [BASELINE]` (default the
//! committed file; a bin's `--quick` run skips it). It reads the
//! baseline *before* the fresh snapshot is written (with
//! `--out X --check X` they are the same file), looks every gated key up
//! by its section path, and collects hard-floor failures and baseline
//! drift into one list. Exit codes: 0 when the gate holds, 1 when it
//! fails, 2 when the baseline cannot be read.

use std::path::{Path, PathBuf};

use tve_obs::{append_json_string, json_document, parse_json, JsonObject, JsonValue, Layout};

use crate::write_artifact;

/// Relative tolerance of the band class.
const BAND: f64 = 0.25;

/// How a snapshot value is gated against the baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Exact,
    Band,
    Record,
}

#[derive(Debug)]
enum Value {
    Num { value: f64, decimals: usize },
    Text(String),
    Flag(bool),
}

impl Value {
    /// The value as the snapshot prints it.
    fn render(&self) -> String {
        match self {
            Value::Num { value, decimals } => format!("{value:.decimals$}"),
            Value::Text(text) => {
                let mut out = String::new();
                append_json_string(&mut out, text);
                out
            }
            Value::Flag(flag) => flag.to_string(),
        }
    }

    /// `baseline` printed the way this value prints, or `None` when it
    /// is of another kind.
    fn render_baseline(&self, baseline: &JsonValue) -> Option<String> {
        let same_kind = match self {
            Value::Num { decimals, .. } => Value::Num {
                value: baseline.as_f64()?,
                decimals: *decimals,
            },
            Value::Text(_) => Value::Text(baseline.as_str()?.to_string()),
            Value::Flag(_) => Value::Flag(baseline.as_bool()?),
        };
        Some(same_kind.render())
    }
}

#[derive(Debug)]
struct Metric {
    section: Option<&'static str>,
    key: &'static str,
    value: Value,
    class: Class,
}

impl Metric {
    fn path(&self) -> String {
        match self.section {
            Some(section) => format!("{section}.{}", self.key),
            None => self.key.to_string(),
        }
    }

    /// Compares against `baseline` (the whole document), returning the
    /// failure, if any.
    fn check(&self, baseline: &JsonValue, file: &str) -> Option<String> {
        if self.class == Class::Record {
            return None;
        }
        let found = match self.section {
            Some(section) => baseline.get(section).and_then(|s| s.get(self.key)),
            None => baseline.get(self.key),
        };
        let Some((want_json, want)) =
            found.and_then(|json| Some((json, self.value.render_baseline(json)?)))
        else {
            return Some(format!("baseline {file} lacks key {}", self.path()));
        };
        let got = self.value.render();
        match (self.class, &self.value) {
            (Class::Band, Value::Num { value, .. }) => {
                let want_f = want_json.as_f64().expect("rendered as a number");
                let drift = (value - want_f) / want_f.abs().max(1e-9);
                (drift.abs() > BAND).then(|| {
                    format!(
                        "{}: measured {got} vs baseline {want} ({:+.0}% drift, tolerance ±{:.0}%)",
                        self.path(),
                        drift * 100.0,
                        BAND * 100.0
                    )
                })
            }
            _ => (got != want).then(|| {
                format!(
                    "{}: measured {got} vs baseline {want} (exact match required)",
                    self.path()
                )
            }),
        }
    }
}

/// A bench snapshot: the ordered list of declared values, grouped into
/// top-level entries and one level of named sections.
#[derive(Debug, Default)]
pub struct Snapshot {
    metrics: Vec<Metric>,
    section: Option<&'static str>,
}

impl Snapshot {
    /// An empty snapshot; values declared next are top-level.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens section `name`: the values declared next are its members.
    pub fn section(&mut self, name: &'static str) -> &mut Self {
        self.section = Some(name);
        self
    }

    fn push(&mut self, key: &'static str, value: Value, class: Class) -> &mut Self {
        self.metrics.push(Metric {
            section: self.section,
            key,
            value,
            class,
        });
        self
    }

    fn num(&mut self, key: &'static str, value: f64, decimals: usize, class: Class) -> &mut Self {
        self.push(key, Value::Num { value, decimals }, class)
    }

    /// A bit-deterministic number printed with `decimals` fractional
    /// digits, gated exactly.
    pub fn exact(&mut self, key: &'static str, value: f64, decimals: usize) -> &mut Self {
        self.num(key, value, decimals, Class::Exact)
    }

    /// A host timing or rate, gated within ±25 %.
    pub fn band(&mut self, key: &'static str, value: f64, decimals: usize) -> &mut Self {
        self.num(key, value, decimals, Class::Band)
    }

    /// A number written but never gated.
    pub fn record(&mut self, key: &'static str, value: f64, decimals: usize) -> &mut Self {
        self.num(key, value, decimals, Class::Record)
    }

    /// A string constant, gated exactly.
    pub fn text(&mut self, key: &'static str, value: impl Into<String>) -> &mut Self {
        self.push(key, Value::Text(value.into()), Class::Exact)
    }

    /// A boolean invariant, gated exactly.
    pub fn flag(&mut self, key: &'static str, value: bool) -> &mut Self {
        self.push(key, Value::Flag(value), Class::Exact)
    }

    /// The snapshot as pretty-printed JSON: two-space indent, one value
    /// per line, members in declaration order.
    pub fn to_json(&self) -> String {
        json_document(|doc| {
            for group in self.metrics.chunk_by(|a, b| a.section == b.section) {
                let write = |obj: &mut JsonObject| {
                    for m in group {
                        obj.raw(m.key, &m.value.render());
                    }
                };
                match group[0].section {
                    None => write(doc),
                    Some(name) => write(&mut doc.obj_in(name, Layout::lines("\n    ", "\n  "))),
                }
            }
        })
    }

    /// Every gate failure of this snapshot against `baseline`, read
    /// from `file`.
    fn failures(&self, baseline: &JsonValue, file: &str) -> Vec<String> {
        self.metrics
            .iter()
            .filter_map(|m| m.check(baseline, file))
            .collect()
    }

    fn count(&self, class: Class) -> usize {
        self.metrics.iter().filter(|m| m.class == class).count()
    }
}

#[derive(Debug)]
struct Baseline {
    file: String,
    doc: JsonValue,
}

/// The shared `--out PATH` / `--check [BASELINE]` harness of the
/// snapshot bins.
#[derive(Debug)]
pub struct Gate {
    bin: &'static str,
    out: PathBuf,
    baseline: Option<Baseline>,
    quick_skip: bool,
    failures: Vec<String>,
}

impl Gate {
    /// Parses `args` (program name first) for the bin `bin` whose
    /// committed baseline is `committed`.
    ///
    /// `--out` defaults to `target/<committed>`; a bare `--check`
    /// gates against `committed`. With `quick` set the baseline is
    /// neither read nor gated. The baseline is read and parsed here,
    /// before any snapshot can overwrite it.
    fn parse(
        bin: &'static str,
        args: &[String],
        committed: &str,
        quick: bool,
    ) -> Result<Gate, String> {
        let out = args
            .iter()
            .position(|a| a == "--out")
            .and_then(|i| args.get(i + 1))
            .map_or_else(|| Path::new("target").join(committed), PathBuf::from);
        let check = args.iter().position(|a| a == "--check").map(|i| {
            args.get(i + 1)
                .filter(|a| !a.starts_with("--"))
                .map_or(committed, String::as_str)
        });
        let baseline = match check.filter(|_| !quick) {
            None => None,
            Some(file) => {
                let text = std::fs::read_to_string(file)
                    .map_err(|e| format!("cannot read baseline {file}: {e}"))?;
                let doc =
                    parse_json(&text).map_err(|e| format!("cannot parse baseline {file}: {e}"))?;
                Some(Baseline {
                    file: file.to_string(),
                    doc,
                })
            }
        };
        Ok(Gate {
            bin,
            out,
            baseline,
            quick_skip: quick && check.is_some(),
            failures: Vec::new(),
        })
    }

    /// Parses the process arguments for the bin `bin` whose committed
    /// baseline is `committed`; exits 2 when the baseline cannot be
    /// read. See the module docs for the flags.
    pub fn from_args(bin: &'static str, committed: &str, quick: bool) -> Gate {
        let args: Vec<String> = std::env::args().collect();
        Gate::parse(bin, &args, committed, quick).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// Records a failed hard floor; the run fails at [`Gate::finish`].
    pub fn fail(&mut self, message: impl Into<String>) {
        self.failures.push(message.into());
    }

    /// Writes `snap` to the `--out` path and gates it against the
    /// baseline: `Ok` carries the verdict line (none without
    /// `--check`), `Err` every failure.
    fn conclude(mut self, snap: &Snapshot) -> Result<Option<String>, Vec<String>> {
        write_artifact(&self.out, &snap.to_json());
        println!("wrote {}", self.out.display());
        if self.quick_skip {
            println!("--quick: skipping baseline gate");
        }
        let verdict = self.baseline.map(|b| {
            self.failures.extend(snap.failures(&b.doc, &b.file));
            format!(
                "{} gate: OK against {} ({} exact, {} within ±{:.0}%, {} recorded)",
                self.bin,
                b.file,
                snap.count(Class::Exact),
                snap.count(Class::Band),
                BAND * 100.0,
                snap.count(Class::Record)
            )
        });
        if self.failures.is_empty() {
            Ok(verdict)
        } else {
            Err(self.failures)
        }
    }

    /// Writes `snap` to the `--out` path, gates it against the baseline
    /// and prints the verdict; exits 1 when a floor or a gated value
    /// failed.
    pub fn finish(self, snap: &Snapshot) {
        let bin = self.bin;
        match self.conclude(snap) {
            Ok(verdict) => verdict.into_iter().for_each(|v| println!("{v}")),
            Err(failures) => {
                eprintln!("{bin} gate FAILED:");
                for failure in &failures {
                    eprintln!("  - {failure}");
                }
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATIC_BOUNDS: &str = include_str!("../../../BENCH_static_bounds.json");

    /// `BENCH_static_bounds.json`'s committed values, declared the way
    /// `bounds_bench` declares them.
    fn static_bounds(candidates: f64) -> Snapshot {
        let mut snap = Snapshot::new();
        snap.text("schema", "tve-static-bounds-bench/1")
            .exact("candidates", candidates, 0)
            .exact("simulated", 2.0, 0)
            .exact("pruned", 29.0, 0)
            .exact("pruned_fraction", 29.0 / 31.0, 6)
            .exact("front_size", 2.0, 0)
            .flag("front_identical", true)
            .exact("violations", 0.0, 0)
            .record("analysis_us_per_candidate", 1.675, 3)
            .record("exhaustive_wall_s", 1.0669, 4)
            .record("certified_wall_s", 0.0471, 4);
        snap
    }

    fn doc(text: &str) -> JsonValue {
        parse_json(text).expect("test baseline parses")
    }

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tve-gate-{name}-{}.json", std::process::id()))
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn committed_static_bounds_snapshot_is_reproduced_byte_for_byte() {
        assert_eq!(static_bounds(31.0).to_json(), STATIC_BOUNDS);
        assert!(static_bounds(31.0)
            .failures(&doc(STATIC_BOUNDS), "BENCH_static_bounds.json")
            .is_empty());
    }

    #[test]
    fn exact_mismatch_names_the_key_and_both_values() {
        let failures = static_bounds(32.0).failures(&doc(STATIC_BOUNDS), "base.json");
        assert_eq!(
            failures,
            ["candidates: measured 32 vs baseline 31 (exact match required)"]
        );
        // One unit in the last printed digit is a mismatch, far inside
        // any relative band.
        let mut snap = Snapshot::new();
        snap.section("sampling").exact("coverage", 0.800001, 6);
        let failures = snap.failures(&doc(r#"{"sampling": {"coverage": 0.800000}}"#), "b");
        assert_eq!(
            failures,
            ["sampling.coverage: measured 0.800001 vs baseline 0.800000 (exact match required)"]
        );
    }

    #[test]
    fn missing_baseline_key_names_the_file_and_the_key() {
        let mut snap = Snapshot::new();
        snap.section("shard").exact("cells", 92.0, 0);
        for baseline in [
            r#"{"shard": {}}"#,
            r#"{"cells": 92}"#,
            r#"{"shard": {"cells": "92"}}"#,
        ] {
            assert_eq!(
                snap.failures(&doc(baseline), "old/BENCH.json"),
                ["baseline old/BENCH.json lacks key shard.cells"],
                "{baseline}"
            );
        }
    }

    #[test]
    fn a_key_in_two_sections_is_resolved_by_its_section_path() {
        let baseline = doc(r#"{"sampling": {"spent_cells": 40}, "guided": {"spent_cells": 33}}"#);
        let mut snap = Snapshot::new();
        snap.section("sampling").exact("spent_cells", 40.0, 0);
        snap.section("guided").exact("spent_cells", 33.0, 0);
        assert!(snap.failures(&baseline, "b").is_empty());
        let mut swapped = Snapshot::new();
        swapped.section("guided").exact("spent_cells", 40.0, 0);
        assert_eq!(
            swapped.failures(&baseline, "b"),
            ["guided.spent_cells: measured 40 vs baseline 33 (exact match required)"]
        );
    }

    #[test]
    fn band_accepts_25_percent_and_rejects_just_outside() {
        let baseline = doc(r#"{"wall_s": 100.0}"#);
        for (got, holds) in [
            (100.0, true),
            (125.0, true),
            (75.0, true),
            (125.1, false),
            (74.9, false),
        ] {
            let mut snap = Snapshot::new();
            snap.band("wall_s", got, 1);
            let failures = snap.failures(&baseline, "b");
            assert_eq!(failures.is_empty(), holds, "{got}: {failures:?}");
            if !holds {
                assert!(failures[0].starts_with("wall_s: measured"), "{failures:?}");
            }
        }
    }

    #[test]
    fn record_values_never_gate() {
        let mut snap = Snapshot::new();
        snap.record("wall_s", 1000.0, 4).record("absent", 1.0, 0);
        assert!(snap.failures(&doc(r#"{"wall_s": 0.001}"#), "b").is_empty());
    }

    #[test]
    fn cli_defaults_to_the_committed_baseline_and_a_target_snapshot() {
        let gate = Gate::parse("bin", &args(&["bin"]), "BENCH_x.json", false).unwrap();
        assert_eq!(gate.out, Path::new("target/BENCH_x.json"));
        assert!(gate.baseline.is_none());
        // A bare `--check` followed by another flag reads the committed
        // baseline; `--quick` neither reads nor gates it.
        let err = Gate::parse(
            "bin",
            &args(&["bin", "--check", "--quick"]),
            "absent.json",
            false,
        )
        .unwrap_err();
        assert!(err.contains("cannot read baseline absent.json"), "{err}");
        let quick = Gate::parse("bin", &args(&["bin", "--check"]), "absent.json", true).unwrap();
        assert!(quick.baseline.is_none() && quick.quick_skip);
    }

    #[test]
    fn unparseable_baseline_is_an_error() {
        let path = scratch("garbled");
        std::fs::write(&path, "{\"candidates\": 31").unwrap();
        let file = path.to_str().unwrap();
        let err = Gate::parse("bin", &args(&["bin", "--check", file]), "x", false).unwrap_err();
        assert!(err.contains("cannot parse baseline"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn same_out_and_check_path_gates_the_old_baseline_not_the_new_snapshot() {
        let path = scratch("self-compare");
        std::fs::write(
            &path,
            STATIC_BOUNDS.replace("\"candidates\": 31", "\"candidates\": 99"),
        )
        .unwrap();
        let file = path.to_str().unwrap();
        let gate = Gate::parse(
            "bin",
            &args(&["bin", "--out", file, "--check", file]),
            "x",
            false,
        )
        .unwrap();
        let failures = gate.conclude(&static_bounds(31.0)).unwrap_err();
        assert_eq!(
            failures,
            ["candidates: measured 31 vs baseline 99 (exact match required)"]
        );
        // The fresh snapshot was still written over the stale baseline.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), STATIC_BOUNDS);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn floor_failures_join_the_baseline_failures() {
        let path = scratch("floor");
        let file = path.to_str().unwrap();
        let gate = Gate::parse("bin", &args(&["bin", "--out", file]), "x", false).unwrap();
        assert_eq!(gate.conclude(&static_bounds(31.0)), Ok(None));
        let mut gate = Gate::parse("bin", &args(&["bin", "--out", file]), "x", false).unwrap();
        gate.fail("pruned fraction below 30%");
        assert_eq!(
            gate.conclude(&static_bounds(31.0)),
            Err(vec!["pruned fraction below 30%".to_string()])
        );
        let _ = std::fs::remove_file(&path);
    }
}
