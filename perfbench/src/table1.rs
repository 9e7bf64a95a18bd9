//! `table1_paper`: the paper's Table I at scale 1 — full 262,144-word
//! memory, Volume data policy, cycle-accurate kernel — with the four
//! schedules farmed over `nproc` workers. No `--scale` extrapolation.
//!
//! Untraced passes call the library's entry point, `Farm::run` over
//! `run_scenario` jobs; traced passes take each scenario apart at its
//! layer boundaries (`scenario::run`) for the span table.

use std::time::{Duration, Instant};

use tve_sched::{Farm, ScenarioJob};
use tve_sim::Simulation;
use tve_soc::{build_test_runs, paper_schedules, JpegEncoderSoc, ScenarioMetrics, Workload};

use crate::host::{nproc, process_cpu_s, Host};
use crate::reference::Reference;
use crate::report::Report;
use crate::scenario;
use crate::trace::Tracer;
use crate::{farm_metrics, measure, setup_reps, Opts, SETUP_REPS};

/// The paper's Table I: (peak %, avg %, test length Mcycles) per schedule.
pub const PAPER: [(f64, f64, f64); 4] = [
    (67.0, 45.0, 281.0),
    (67.0, 58.0, 184.0),
    (80.0, 47.0, 263.0),
    (100.0, 64.0, 167.0),
];

/// A farmed job: its host time and its metrics, or what prevented them.
type Job = (Duration, Result<ScenarioMetrics, String>);

struct Pass {
    wall: Duration,
    /// Process CPU time the pass used.
    cpu_s: f64,
    farm_wall: Duration,
    jobs: Vec<Job>,
}

fn pass(jobs: &[ScenarioJob], farm: &Farm, tracer: &Tracer) -> Pass {
    let (started, cpu_before) = (Instant::now(), process_cpu_s());
    if !tracer.enabled() {
        let batch = farm.run(jobs);
        return Pass {
            wall: started.elapsed(),
            cpu_s: process_cpu_s() - cpu_before,
            farm_wall: batch.wall,
            jobs: batch
                .outcomes
                .into_iter()
                .map(|o| (o.wall, o.result.map_err(|e| e.to_string())))
                .collect(),
        };
    }
    let root = tracer.span("bench.pass", 0, 0);
    let indices: Vec<usize> = (0..jobs.len()).collect();
    let (runs, _, farm_wall) = farm.run_map(&indices, |&i| {
        let (job, trace) = (&jobs[i], i as u64 + 1);
        let span = tracer.span("sched.job", root.id(), trace);
        scenario::run(&job.config, &job.plan, &job.schedule, tracer, span.id(), trace)
    });
    drop(root);
    Pass {
        wall: started.elapsed(),
        cpu_s: process_cpu_s() - cpu_before,
        farm_wall,
        jobs: runs
            .into_iter()
            .map(|(time, outcome)| {
                let metrics = match outcome {
                    Ok(Ok(run)) => Ok(run.metrics),
                    Ok(Err(e)) => Err(e.to_string()),
                    Err(panic_msg) => Err(panic_msg),
                };
                (time, metrics)
            })
            .collect(),
    }
}

/// Maximum relative error (%) of peak, average and length against the
/// paper, over the four schedules.
pub fn max_err_pct<'a>(metrics: impl IntoIterator<Item = &'a ScenarioMetrics>) -> f64 {
    let mut max_err: f64 = 0.0;
    for (m, (peak, avg, len)) in metrics.into_iter().zip(PAPER) {
        for (got, want) in [
            (m.peak_utilization * 100.0, peak),
            (m.avg_utilization * 100.0, avg),
            (m.total_cycles as f64 / 1e6, len),
        ] {
            max_err = max_err.max(((got - want) / want).abs() * 100.0);
        }
    }
    max_err
}

pub fn run(opts: &Opts, reference: &Reference, report: &mut Report, tracer: &Tracer) -> Host {
    let workers = nproc();
    let farm = Farm::with_workers(workers);
    // Set-up: the workload, then the time to the first simulation event
    // (one SoC with its seven test sequences built).
    let set_up = || {
        let (config, plan) = Workload::paper().build();
        let sim = Simulation::from_env();
        let soc = JpegEncoderSoc::build(&sim.handle(), config.clone());
        std::hint::black_box(build_test_runs(&soc, &plan));
        (config, plan)
    };
    let ((config, plan), mut setup) = setup_reps(SETUP_REPS, set_up);
    let jobs: Vec<ScenarioJob> = paper_schedules()
        .into_iter()
        .map(|s| ScenarioJob::new(config.clone(), plan.clone(), s))
        .collect();

    let (plain, traced) = measure(
        opts,
        tracer,
        report,
        |t, _| {
            let p = pass(&jobs, &farm, t);
            // A set-up costs well under 0.1% of a pass.
            setup.extend(setup_reps(SETUP_REPS, set_up).1);
            p
        },
        |p| p.wall.as_secs_f64(),
    );
    report.median("setup_s", &setup, "s");

    let mut ok_jobs = true;
    let mut max_errs = Vec::new();
    for p in plain.iter().chain(&traced) {
        report.attempted += p.jobs.len() as u64;
        let mut runs = Vec::new();
        for (i, (_, outcome)) in p.jobs.iter().enumerate() {
            let good = match outcome {
                Ok(m) => {
                    runs.push(m);
                    m.result.clean()
                        && m.digest() == reference.table1_digests[i]
                        && m.total_cycles == reference.table1_cycles[i]
                }
                Err(_) => false,
            };
            if !good {
                report.failed += 1;
                ok_jobs = false;
            }
        }
        if runs.len() == PAPER.len() {
            max_errs.push(max_err_pct(runs));
        }
    }
    report.check(
        "table1.digests",
        ok_jobs,
        "every schedule's digest and total_cycles equal the reference and result.clean()",
    );
    let err_exact = !max_errs.is_empty()
        && max_errs
            .iter()
            .all(|e| e.to_bits() == reference.table1_max_err_pct.to_bits());
    report.check(
        "table1.max_err_pct",
        err_exact,
        format!(
            "max relative error vs the paper repeats exactly ({:?})",
            reference.table1_max_err_pct
        ),
    );
    if let Some(&e) = max_errs.first() {
        report.metric("table1_max_err_pct", e, "%", 1);
    }

    let walls: Vec<f64> = plain.iter().map(|p| p.wall.as_secs_f64()).collect();
    report.median("run_wall_s", &walls, "s");
    let cpu: Vec<f64> = plain.iter().map(|p| p.cpu_s).collect();
    report.median("sim_cpu_s", &cpu, "s");
    let job_ms: Vec<f64> = plain
        .iter()
        .flat_map(|p| p.jobs.iter().map(|(d, _)| d.as_secs_f64() * 1e3))
        .collect();
    let per_pass: Vec<Vec<f64>> = plain
        .iter()
        .map(|p| p.jobs.iter().map(|(d, _)| d.as_secs_f64() * 1e3).collect())
        .collect();
    report.median_of_medians("job_p50_ms", &per_pass, "ms");
    report.tail("job_tail_ms", &job_ms, "ms");
    let farm_passes: Vec<(Duration, Vec<Duration>)> = plain
        .iter()
        .map(|p| (p.farm_wall, p.jobs.iter().map(|(d, _)| *d).collect()))
        .collect();
    farm_metrics(report, &farm_passes, workers);
    if let Some(p) = plain.first() {
        for (i, (d, _)) in p.jobs.iter().enumerate() {
            report.line(format!(
                "schedule {}: {:.3} s host time on its farm worker",
                i + 1,
                d.as_secs_f64()
            ));
        }
    }
    if !traced.is_empty() {
        let traced_walls: Vec<f64> = traced.iter().map(|p| p.wall.as_secs_f64()).collect();
        crate::trace_overhead(report, &walls, &traced_walls);
    }
    Host::probe(workers, 0)
}
