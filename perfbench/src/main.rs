//! The repository benchmark: end-to-end and per-layer metrics of the TVE
//! stack on three seeded workloads (see README.md for why each exists
//! and which layer metric should move which end-to-end metric).
//!
//! ```text
//! perfbench --workload <table1_paper|campaign_small|serve_mixed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --write-reference      # re-record reference.json
//! ```
//!
//! Every metric is printed by name with its unit; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` — the `end_to_end` metrics of BENCHMARK.json
//! with `--trace 0`, its `per_layer` metrics with `--trace 1`. A failed
//! correctness check makes the exit code nonzero.

mod campaign;
mod gen;
mod host;
mod probes;
mod reference;
mod report;
mod scenario;
mod serve;
mod stats;
mod table1;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use tve_obs::{parse_json, JsonValue};

use crate::reference::Reference;
use crate::report::{json_number, Report};
use crate::trace::Tracer;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
const REFERENCE_JSON: &str = include_str!("../reference.json");

/// Set-up repetitions before the first pass; `setup_s` is the median of
/// these and of any repeated between passes.
pub const SETUP_REPS: usize = 31;
/// Untraced passes every `--trace 0` run measures at least.
const MIN_PASSES: usize = 3;

pub struct Opts {
    pub workload: String,
    pub seed: u64,
    /// When passes stop starting (`--seconds` after the run began).
    pub deadline: Instant,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} wants a value"))
    };
    let workload = value("--workload")?.to_string();
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed wants a whole number".to_string())?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds wants a number".to_string())?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, not {other}")),
    };
    Ok(Opts {
        workload,
        seed,
        deadline: Instant::now() + Duration::from_secs_f64(seconds),
        trace,
    })
}

/// `(name, unit)` of every metric BENCHMARK.json declares under `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let doc = parse_json(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    doc.get(section)
        .and_then(JsonValue::as_arr)
        .expect("BENCHMARK.json lists metrics")
        .iter()
        .map(|m| {
            let field = |key: &str| {
                m.get(key)
                    .and_then(JsonValue::as_str)
                    .expect("declared metrics have a name and a unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Where runs leave their records, spans and sockets (git-ignored).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("perfbench/out");
    std::fs::create_dir_all(&dir).expect("create perfbench/out");
    dir
}

/// Runs `setup` `reps` times (`reps > 0`); returns the last result and
/// every repetition's time.
///
/// `table1_paper` and `campaign_small` also set up again between passes,
/// outside the pass's timing, so that `setup_s` samples the whole run as
/// the pass metrics do: host speed drifts over tens of seconds, and short
/// set-ups timed only at the start of a run follow that drift much more
/// than a median over the whole run does.
pub fn setup_reps<S>(reps: usize, mut setup: impl FnMut() -> S) -> (S, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let started = Instant::now();
        last = Some(setup());
        times.push(started.elapsed().as_secs_f64());
    }
    (last.expect("reps > 0"), times)
}

/// Runs passes until the deadline: untraced passes only (at least
/// [`MIN_PASSES`]), or in trace mode untraced and traced passes in turn
/// (at least one of each). A pass starts only if a typical pass still
/// fits. `pass` gets the tracer and the pass index.
///
/// Also reports `peak_rss_mb`, read once set-up and the first
/// [`MIN_PASSES`] passes are done: a fixed amount of work, so the value
/// does not grow with however many passes the host's speed allows.
pub fn measure<P>(
    opts: &Opts,
    tracer: &Tracer,
    report: &mut Report,
    mut pass: impl FnMut(&Tracer, usize) -> P,
    wall: impl Fn(&P) -> f64,
) -> (Vec<P>, Vec<P>) {
    let off = Tracer::off();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut walls = Vec::new();
    let mut rss = None;
    for index in 0.. {
        let with_trace = opts.trace && index % 2 == 1;
        let p = pass(if with_trace { tracer } else { &off }, index);
        walls.push(wall(&p));
        if with_trace {
            traced.push(p);
        } else {
            plain.push(p);
        }
        let enough = if opts.trace {
            !traced.is_empty()
        } else {
            plain.len() >= MIN_PASSES
        };
        eprintln!(
            "pass {index} ({}): {:.4} s",
            if with_trace { "traced" } else { "untraced" },
            walls[walls.len() - 1]
        );
        if walls.len() == MIN_PASSES {
            rss = host::peak_rss_mb();
        }
        let next = Duration::from_secs_f64(stats::median(&walls).unwrap_or(0.0));
        if enough && Instant::now() + next > opts.deadline {
            break;
        }
    }
    if let Some(mb) = rss.or_else(host::peak_rss_mb) {
        report.metric("peak_rss_mb", mb, "MB", 1);
    }
    (plain, traced)
}

/// `farm.*` from passes given as (farm wall, per-job times).
pub fn farm_metrics(report: &mut Report, passes: &[(Duration, Vec<Duration>)], workers: usize) {
    let (mut busy, mut idle, mut eff, mut max_job) = (vec![], vec![], vec![], vec![]);
    for (wall, jobs) in passes {
        let b: f64 = jobs.iter().map(Duration::as_secs_f64).sum();
        let capacity = wall.as_secs_f64() * workers as f64;
        busy.push(b);
        idle.push(capacity - b);
        eff.push(b / capacity);
        max_job.push(jobs.iter().map(Duration::as_secs_f64).fold(0.0, f64::max));
    }
    report.median("farm.busy_s", &busy, "s");
    report.median("farm.idle_s", &idle, "s");
    report.median("farm.efficiency", &eff, "ratio");
    report.median("farm.max_job_s", &max_job, "s");
}

/// `obs.trace_overhead_pct`: traced against untraced pass wall, on the
/// untraced base; the traced base is printed beside it.
pub fn trace_overhead(report: &mut Report, plain: &[f64], traced: &[f64]) {
    let (Some(u), Some(t)) = (stats::median(plain), stats::median(traced)) else {
        return;
    };
    report.metric_noted(
        "obs.trace_overhead_pct",
        (t - u) / u * 100.0,
        "%",
        plain.len() + traced.len(),
        format!(
            "untraced base {u:.6} s; on the traced base {t:.6} s: {:+.3}%",
            (t - u) / t * 100.0
        ),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--write-reference") {
        let text = reference::record();
        let path = "perfbench/reference.json";
        std::fs::write(path, &text).unwrap_or_else(|e| {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(2);
        });
        print!("{text}");
        return;
    }
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let reference = Reference::parse(REFERENCE_JSON).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });

    let tracer = Tracer::new(opts.trace);
    let mut report = Report::default();
    let started = Instant::now();
    // Probes first, in at most half the run (bar one scenario
    // repetition); the workload's passes get what is left.
    if opts.trace {
        probes::run(&mut report, &tracer, started + (opts.deadline - started) / 2);
    }
    let host = match opts.workload.as_str() {
        "table1_paper" => table1::run(&opts, &reference, &mut report, &tracer),
        "campaign_small" => campaign::run(&opts, &reference, &mut report, &tracer),
        "serve_mixed" => serve::run(&opts, &mut report, &tracer),
        other => {
            eprintln!(
                "error: unknown workload {other:?} (table1_paper, campaign_small, serve_mixed)"
            );
            std::process::exit(2);
        }
    };
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    report.metric(
        "failed_frac",
        failed_frac,
        "ratio",
        report.attempted as usize,
    );

    let spans = tracer.take();
    if opts.trace {
        report.line("layer self time (benchmark spans; self = duration - children):");
        for (name, (count, total, own)) in trace::self_times(&spans) {
            report.line(format!(
                "  {name:<24} n={count:<6} total {total:>10.4} s  self {own:>10.4} s"
            ));
        }
    }

    let section = if opts.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let names = declared(section);
    for (name, unit) in &names {
        let measured = report.metrics.iter().find(|m| &m.name == name);
        match measured {
            Some(m) if m.value.is_finite() && m.unit == unit => {}
            Some(m) => report.check(
                &format!("declared.{name}"),
                false,
                format!("measured {} {}, declared unit {unit}", m.value, m.unit),
            ),
            None => report.check(
                &format!("declared.{name}"),
                false,
                "declared metric was not measured",
            ),
        }
    }

    println!(
        "workload {} seed {} trace {} ({:.1} s)",
        opts.workload,
        opts.seed,
        u8::from(opts.trace),
        started.elapsed().as_secs_f64()
    );
    println!("host {}", host.to_json());
    print!("{}", report.render());

    let stem = format!(
        "{}-seed{}-trace{}",
        opts.workload,
        opts.seed,
        u8::from(opts.trace)
    );
    let dir = out_dir();
    let header = format!(
        "\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"spans\":{},\"host\":{}",
        opts.workload,
        opts.seed,
        opts.trace,
        spans.len(),
        host.to_json()
    );
    let record = report.record_json(&header);
    if opts.trace {
        let path = dir.join(format!("spans-{stem}.json"));
        if let Err(e) = std::fs::write(&path, trace::to_json(&spans)) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }
    if let Err(e) = std::fs::write(dir.join(format!("result-{stem}.json")), &record) {
        eprintln!("warning: cannot write the result record: {e}");
    }

    let mut line = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        report.correct(),
        report.attempted.max(1),
        report.failed
    );
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = report.get(name).unwrap_or(f64::NAN);
        let _ = write!(
            line,
            "{}\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            if i > 0 { "," } else { "" },
            json_number(value)
        );
    }
    line.push_str("}}");
    println!("{line}");
    if !report.correct() || report.failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_and_units_are_legal() {
        let doc = parse_json(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        for section in ["workloads", "end_to_end", "per_layer"] {
            let items = doc.get(section).and_then(JsonValue::as_arr).expect(section);
            assert!(!items.is_empty(), "{section}");
            for item in items {
                let name = item.get("name").and_then(JsonValue::as_str).expect("name");
                assert!(stats::valid_name(name), "{section}: {name}");
                if let Some(unit) = item.get("unit").and_then(JsonValue::as_str) {
                    assert!(stats::valid_unit(unit), "{section}: {name} unit {unit}");
                }
            }
        }
        assert!(declared("end_to_end")
            .iter()
            .any(|(n, u)| n == "setup_s" && u == "s"));
    }

    #[test]
    fn reference_values_parse() {
        let reference = Reference::parse(REFERENCE_JSON).expect("reference.json parses");
        assert!(reference.table1_digests.iter().all(|&d| d != 0));
        assert!(reference.table1_max_err_pct > 0.0);
        assert_eq!(
            reference.campaign_csv.len() as u64,
            reference::CAMPAIGN_SEEDS.end - reference::CAMPAIGN_SEEDS.start
        );
    }
}
