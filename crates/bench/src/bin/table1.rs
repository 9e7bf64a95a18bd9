//! Regenerates **Table I** of the paper: peak and average TAM utilization,
//! test length, and host CPU time for the four test schedules of the JPEG
//! encoder SoC case study.
//!
//! Usage: `table1 [--scale N] [--mem-words N] [--trace [path]]` — `--scale`
//! divides every pattern count and, unless `--mem-words` sets the memory
//! size explicitly, the memory size too, so the test lengths printed
//! ×N extrapolate to the paper-scale ones; `--scale 1` (default) is the
//! paper-scale run. `--trace` (or the `TVE_TRACE` env var) additionally
//! records every TAM transfer, scan and schedule phase and writes a
//! Chrome-trace JSON (default `target/trace_table1.json`, openable in
//! Perfetto); the per-channel utilization is then recomputed from the
//! recorded spans and checked for exact agreement with the live monitor.
//! The full-size memory march dominates the span count, so pair
//! `--trace` with `--mem-words` (e.g. 2622, the benchmark workload) for a
//! trace a viewer can actually load.
//!
//! The four scenarios are independent simulations, so they are fanned
//! over the validation farm (`TVE_JOBS` overrides the worker count).
//!
//! With `--daemon [SOCKET]` the scenarios are instead submitted to a
//! running `tve-serve` daemon, which serves repeats from its
//! content-addressed result cache; the row then reports the job wall
//! time and whether it was a cache hit (trace recording stays local-only).

use tve_bench::{
    daemon_connect, daemon_socket, format_row, rel_err_pct, trace_output, write_artifact,
};
use tve_obs::{
    check_json, utilization_from_spans, write_chrome_trace, JsonValue, SpanKind, StoragePolicy,
};
use tve_sched::{BatchReport, Farm, ScenarioJob};
use tve_serve::{JobKind, JobSpec};
use tve_soc::{paper_schedules, SocConfig, Workload};

/// Paper values: (peak %, avg %, test length Mcycles, CPU s).
const PAPER: [(f64, f64, f64, f64); 4] = [
    (67.0, 45.0, 281.0, 418.0),
    (67.0, 58.0, 184.0, 271.0),
    (80.0, 47.0, 263.0, 390.0),
    (100.0, 64.0, 167.0, 261.0),
];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = args
        .iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(1);

    // The march tests scale with the memory size, not the pattern
    // counts: shrink both, or the ×scale extrapolation overstates them.
    let mem_words = args
        .iter()
        .position(|a| a == "--mem-words")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<u32>().ok())
        .unwrap_or_else(|| {
            let words = SocConfig::paper().memory_words;
            u32::try_from(scale).map_or(1, |s| (words / s.max(1)).max(1))
        });

    let workload = Workload::paper()
        .with_scale(scale)
        .with_mem_words(mem_words);
    let (config, plan) = workload.build();

    if let Some(socket) = daemon_socket(&args) {
        run_via_daemon(&socket, &workload, scale);
        return;
    }

    println!("Table I reproduction — JPEG encoder SoC test scenarios");
    println!("(volume data policy, scale 1/{scale}; paper values in parentheses)\n");
    let widths = [10usize, 22, 22, 26, 22];
    println!(
        "{}",
        format_row(
            &[
                "scenario".into(),
                "peak TAM util".into(),
                "avg TAM util".into(),
                "test length (Mcycles)".into(),
                "CPU runtime (s)".into(),
            ],
            &widths
        )
    );

    let detail = args.iter().any(|a| a == "--detail");
    let mut max_err: f64 = 0.0;
    let mut volumes = Vec::new();
    let trace = trace_output(&args, "target/trace_table1.json");
    let jobs: Vec<ScenarioJob> = paper_schedules()
        .into_iter()
        .map(|s| ScenarioJob::new(config.clone(), plan.clone(), s))
        .collect();
    let traced = trace
        .as_ref()
        .map(|_| Farm::new().run_traced(&jobs, StoragePolicy::Unbounded));
    let untraced;
    let batch: &BatchReport = match &traced {
        Some(t) => &t.report,
        None => {
            untraced = Farm::new().run(&jobs);
            &untraced
        }
    };
    for (i, outcome) in batch.outcomes.iter().enumerate() {
        let m = outcome.expect_metrics();
        if detail {
            eprintln!("{}", m.result);
        }
        // ATE-stored data: the deterministic external tests (T2/T3/T5) —
        // the volume the tester must hold and stream.
        let bits: u64 = m
            .result
            .slots
            .iter()
            .filter(|s| s.outcome.name.contains("det"))
            .map(|s| s.outcome.stimulus_bits + s.outcome.response_bits)
            .sum();
        volumes.push(bits);
        assert!(m.result.clean(), "scenario {} reported errors", i + 1);
        let (p_peak, p_avg, p_len, p_cpu) = PAPER[i];
        let peak = m.peak_utilization * 100.0;
        let avg = m.avg_utilization * 100.0;
        let mcycles = m.total_cycles as f64 / 1e6 * scale as f64;
        if scale == 1 {
            for (got, want) in [(peak, p_peak), (avg, p_avg), (mcycles, p_len)] {
                max_err = max_err.max(rel_err_pct(got, want));
            }
        }
        println!(
            "{}",
            format_row(
                &[
                    format!("{}", i + 1),
                    format!("{peak:.0}% ({p_peak:.0}%)"),
                    format!("{avg:.0}% ({p_avg:.0}%)"),
                    format!("{mcycles:.0} ({p_len:.0})"),
                    format!("{:.1} ({p_cpu:.0})", m.cpu.as_secs_f64()),
                ],
                &widths
            )
        );
    }
    if scale == 1 {
        println!("\nmax relative error vs paper (excluding CPU column): {max_err:.1}%");
    } else {
        println!(
            "\n(test lengths extrapolated x{scale}; utilizations approximate at reduced scale)"
        );
    }
    println!(
        "CPU column: our host vs the paper's 2.4 GHz 2009 workstation — only \
         the 'minutes, not days' magnitude is comparable."
    );
    println!(
        "farm: {} workers, batch wall {:.1}s vs {:.1}s summed per-scenario CPU",
        batch.workers,
        batch.wall.as_secs_f64(),
        batch.cpu_time().as_secs_f64()
    );
    println!("\nATE-stored test data (deterministic external tests, stimuli + responses):");
    for (i, bits) in volumes.iter().enumerate() {
        println!("  scenario {}: {:>8.1} Mbit", i + 1, *bits as f64 / 1e6);
    }
    if volumes.len() == 4 && volumes[1] < volumes[0] {
        println!(
            "  the 50x codec cuts ATE data {:.1}x between the uncompressed \
             and compressed scenarios (1 -> 2) — test time AND tester \
             memory, the two costs compression trades against silicon.",
            volumes[0] as f64 / volumes[1] as f64
        );
    }
    if let (Some(path), Some(t)) = (&trace, &traced) {
        println!("\nTAM utilization recomputed from recorded transfer spans:");
        let window = config.monitor_window.as_cycles();
        for (i, (outcome, log)) in t.report.outcomes.iter().zip(&t.logs).enumerate() {
            let m = outcome.expect_metrics();
            let u = utilization_from_spans(
                log.spans_on("system-bus/TAM", SpanKind::Transfer),
                window,
                log.observed_end,
            );
            assert_eq!(
                u.peak(),
                m.peak_utilization,
                "scenario {}: trace-derived peak diverges from monitor",
                i + 1
            );
            assert_eq!(
                u.average(),
                m.avg_utilization,
                "scenario {}: trace-derived average diverges from monitor",
                i + 1
            );
            println!(
                "  scenario {}: peak {:>5.1}%  avg {:>5.1}%  ({} transfers) — matches monitor",
                i + 1,
                u.peak() * 100.0,
                u.average() * 100.0,
                u.transfers
            );
        }
        let merged = t.merged();
        let mut buf = Vec::new();
        write_chrome_trace(&merged, &mut buf).expect("in-memory trace serialization");
        let text = String::from_utf8(buf).expect("chrome trace is UTF-8");
        if let Err(e) = check_json(&text) {
            eprintln!("error: generated chrome trace is not valid JSON: {e}");
            std::process::exit(2);
        }
        write_artifact(path, &text);
        println!(
            "chrome trace: {} ({} spans, {} tracks) — open in https://ui.perfetto.dev",
            path.display(),
            merged.spans.len(),
            merged.tracks().len()
        );
    }
}

/// Submits the four scenarios to a running `tve-serve` daemon instead
/// of simulating in-process. CPU time and ATE volume are not on the
/// wire, so the row reports the served job's wall time and cache state.
fn run_via_daemon(socket: &std::path::Path, workload: &Workload, scale: u64) {
    let mut client = daemon_connect(socket);
    println!(
        "Table I via tve-serve at {} (volume data policy, scale 1/{scale})\n",
        socket.display()
    );
    let widths = [10usize, 15, 14, 22, 11, 8];
    println!(
        "{}",
        format_row(
            &[
                "scenario".into(),
                "peak TAM util".into(),
                "avg TAM util".into(),
                "test length (Mcycles)".into(),
                "wall (ms)".into(),
                "cached".into(),
            ],
            &widths
        )
    );
    for index in 1..=4usize {
        let job = JobSpec {
            workload: workload.clone(),
            kind: JobKind::Schedule { index },
            verify: None,
            deadline_ms: None,
        };
        let result = client.submit(&job).unwrap_or_else(|e| {
            eprintln!("error: scenario {index} failed on the daemon: {e}");
            std::process::exit(2);
        });
        let num = |key: &str| result.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
        assert!(
            result.get("clean").and_then(JsonValue::as_bool) == Some(true),
            "scenario {index} reported errors"
        );
        let cached = result.get("cached").and_then(JsonValue::as_bool) == Some(true);
        println!(
            "{}",
            format_row(
                &[
                    format!("{index}"),
                    format!("{:.0}%", num("peak") * 100.0),
                    format!("{:.0}%", num("avg") * 100.0),
                    format!("{:.0}", num("cycles") / 1e6 * scale as f64),
                    format!("{:.1}", num("wall_us") / 1e3),
                    format!("{cached}"),
                ],
                &widths
            )
        );
    }
    if let Ok(stats) = client.stats() {
        let count = |key: &str| {
            stats
                .get(key)
                .and_then(JsonValue::as_u64)
                .unwrap_or_default()
        };
        println!(
            "\ndaemon cache: {} entries, {} hits / {} misses, {} workers",
            count("entries"),
            count("hits"),
            count("misses"),
            count("workers")
        );
    }
}
