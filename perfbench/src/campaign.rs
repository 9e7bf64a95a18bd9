//! `campaign_small`: a seeded fault campaign on the small SoC (Full data
//! policy, 128-word memory, diagnosis on) crossed with the four paper
//! schedules, its cells farmed over `nproc` workers.
//!
//! Untraced passes time the library's entry point, `run_campaign`, whole.
//! Traced passes compose the same campaign from its public per-cell
//! pieces (golden `run_scenario` baselines, `run_cell`,
//! `diagnose_scan_fault`) so baselines, cells and diagnosis can be timed
//! one by one; every pass's matrix must be the same.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use tve_campaign::{
    diagnose_scan_fault, run_campaign, run_cell, CampaignConfig, CampaignReport, CellOutcome,
    CellResult, FaultSpec,
};
use tve_obs::fnv1a;
use tve_sched::Farm;
use tve_soc::{run_scenario, ScenarioMetrics};

use crate::host::{nproc, process_cpu_s, Host};
use crate::reference::{campaign_config, Reference};
use crate::report::Report;
use crate::trace::Tracer;
use crate::{farm_metrics, measure, setup_reps, Opts, SETUP_REPS};

/// Per-phase times of a composed (traced) pass.
struct Layers {
    cells_wall: Duration,
    cell_times: Vec<Duration>,
    diagnosis_wall: Duration,
}

struct Pass {
    wall: Duration,
    /// Process CPU time the pass used.
    cpu_s: f64,
    /// Cells and diagnosis checks in the matrix.
    units: u64,
    /// Composed passes only.
    layers: Option<Layers>,
    /// FNV-1a of the matrix CSV.
    digest: u64,
    /// Cells where a core fault broke the test infrastructure.
    core_infra_failures: u64,
    /// The full matrix, kept for the first pass only so memory does not
    /// grow with the number of passes.
    report: Option<CampaignReport>,
}

fn golden_baselines(config: &CampaignConfig, farm: &Farm) -> BTreeMap<String, ScenarioMetrics> {
    let (results, _, _) = farm.run_map(&config.schedules, |s| {
        run_scenario(&config.soc, &config.plan, s)
    });
    config
        .schedules
        .iter()
        .zip(results)
        .map(|(s, (_, r))| {
            let m = r
                .expect("golden run must not panic")
                .expect("paper schedules are well-formed");
            assert!(
                m.result.clean(),
                "golden run of '{}' reported errors",
                s.name
            );
            (s.name.clone(), m)
        })
        .collect()
}

/// `run_campaign` rebuilt from its public pieces, with a span and a time
/// for each phase and cell.
fn composed(config: &CampaignConfig, farm: &Farm, tracer: &Tracer) -> (CampaignReport, Layers) {
    let root = tracer.span("bench.pass", 0, 0);
    let phase = tracer.span("campaign.baseline", root.id(), 0);
    let golden = golden_baselines(config, farm);
    drop(phase);

    let n_sched = config.schedules.len();
    let cells: Vec<(usize, usize)> = (0..config.population.len())
        .flat_map(|f| (0..n_sched).map(move |s| (f, s)))
        .collect();
    let phase = tracer.span("campaign.cells", root.id(), 0);
    let (outcomes, _, cells_wall) = farm.run_map(&cells, |&(fi, si)| {
        let trace = (fi * n_sched + si) as u64 + 1;
        let _cell = tracer.span("campaign.cell", phase.id(), trace);
        let schedule = &config.schedules[si];
        run_cell(
            &config.soc,
            &config.plan,
            schedule,
            &config.population[fi],
            &golden[&schedule.name],
        )
    });
    drop(phase);
    let mut cell_times = Vec::with_capacity(cells.len());
    let results: Vec<CellResult> = cells
        .iter()
        .zip(outcomes)
        .map(|(&(fi, si), (time, outcome))| {
            cell_times.push(time);
            let fault = &config.population[fi];
            CellResult {
                fault_id: fault.id(),
                fault_class: fault.class().to_string(),
                schedule: config.schedules[si].name.clone(),
                outcome: outcome
                    .unwrap_or_else(|panic_msg| CellOutcome::InfraFailure { error: panic_msg }),
            }
        })
        .collect();

    // Diagnosis of every scan fault some schedule detected, in
    // population order (as `run_campaign` does).
    let detected: Vec<_> = config
        .population
        .iter()
        .filter_map(|f| match f {
            FaultSpec::ScanCell { core, cell } => results
                .iter()
                .any(|r| r.fault_id == f.id() && matches!(r.outcome, CellOutcome::Detected { .. }))
                .then_some((*core, *cell)),
            _ => None,
        })
        .collect();
    let phase = tracer.span("campaign.diagnosis", root.id(), 0);
    let (checks, _, diagnosis_wall) = farm.run_map(&detected, |&(core, cell)| {
        let _span = tracer.span("campaign.diagnose", phase.id(), 0);
        diagnose_scan_fault(config, core, cell)
    });
    drop(phase);
    let diagnosis = checks
        .into_iter()
        .map(|(_, r)| r.expect("diagnosis must not panic"))
        .collect();
    let report = CampaignReport {
        schedules: config.schedules.iter().map(|s| s.name.clone()).collect(),
        prescreened: Vec::new(),
        cells: results,
        diagnosis,
    };
    let layers = Layers {
        cells_wall,
        cell_times,
        diagnosis_wall,
    };
    (report, layers)
}

fn pass(config: &CampaignConfig, farm: &Farm, tracer: &Tracer, keep_report: bool) -> Pass {
    let (started, cpu_before) = (Instant::now(), process_cpu_s());
    let (report, layers) = if tracer.enabled() {
        let (report, layers) = composed(config, farm, tracer);
        (report, Some(layers))
    } else {
        (run_campaign(config, farm), None)
    };
    let (wall, cpu_s) = (started.elapsed(), process_cpu_s() - cpu_before);
    let core_infra_failures = report
        .cells
        .iter()
        .filter(|c| {
            matches!(c.fault_class.as_str(), "scan-cell" | "memory")
                && matches!(c.outcome, CellOutcome::InfraFailure { .. })
        })
        .count() as u64;
    Pass {
        wall,
        cpu_s,
        units: (report.cells.len() + report.diagnosis.len()) as u64,
        layers,
        digest: fnv1a(report.to_csv().as_bytes()),
        core_infra_failures,
        report: keep_report.then_some(report),
    }
}

pub fn run(opts: &Opts, reference: &Reference, report: &mut Report, tracer: &Tracer) -> Host {
    let workers = nproc();
    let farm = Farm::with_workers(workers);
    // Set-up: what a campaign does before its first cell — workload, fault
    // population and the golden baselines. `run_campaign` computes its
    // baselines again inside every pass.
    let mut baseline = Vec::new();
    let mut set_up = || {
        let config = campaign_config(opts.seed);
        let started = Instant::now();
        std::hint::black_box(golden_baselines(&config, &farm));
        baseline.push(started.elapsed().as_secs_f64());
        config
    };
    let (config, mut setup) = setup_reps(SETUP_REPS, &mut set_up);

    let (plain, traced) = measure(
        opts,
        tracer,
        report,
        |t, index| {
            let p = pass(&config, &farm, t, index == 0);
            // One set-up costs about 1% of a pass.
            setup.extend(setup_reps(1, &mut set_up).1);
            p
        },
        |p| p.wall.as_secs_f64(),
    );
    report.median("setup_s", &setup, "s");
    report.median("campaign.baseline_s", &baseline, "s");
    let all: Vec<&Pass> = plain.iter().chain(&traced).collect();

    // Oracles: the matrix is identical on every pass (the composed passes
    // included) and, for recorded seeds, equals the reference digest.
    let digests: Vec<u64> = all.iter().map(|p| p.digest).collect();
    let digest = digests[0];
    for p in &all {
        report.attempted += p.units;
        // A core fault must never break the test infrastructure itself.
        report.failed += p.core_infra_failures;
    }
    report.check(
        "campaign.passes_identical",
        digests.iter().all(|&d| d == digest),
        format!(
            "{} run_campaign and {} composed passes, matrix CSV FNV-1a {digest:#018x}",
            plain.len(),
            traced.len()
        ),
    );
    match reference.campaign_csv.get(&opts.seed) {
        Some(&want) => report.check(
            "campaign.reference_digest",
            want == digest,
            format!("recorded {want:#018x} for seed {}", opts.seed),
        ),
        None => report.line(format!(
            "campaign: no recorded digest for seed {}; checked across passes only",
            opts.seed
        )),
    }
    let first = all[0]
        .report
        .as_ref()
        .expect("the first pass keeps its matrix");
    let escapes = first.union_escapes();
    report.check(
        "campaign.core_detection",
        escapes.is_empty(),
        format!("union detection of core faults is 100% (escapes: {escapes:?})"),
    );
    report.check(
        "campaign.diagnosis_confirmed",
        first.all_diagnoses_confirmed(),
        format!(
            "{} diagnosis checks locate the injected cell",
            first.diagnosis.len()
        ),
    );

    let cells = first.cells.len();
    report.metric("campaign.cells", cells as f64, "count", 1);
    let count = |tag: &str| {
        first
            .cells
            .iter()
            .filter(|c| c.outcome.tag() == tag)
            .count() as f64
    };
    report.metric("campaign.detected", count("detected"), "count", 1);
    report.metric("campaign.escapes", count("escape"), "count", 1);
    report.metric(
        "campaign.infra_failures",
        count("infra-failure"),
        "count",
        1,
    );

    // End to end, from the run_campaign passes: a job is one campaign.
    let walls: Vec<f64> = plain.iter().map(|p| p.wall.as_secs_f64()).collect();
    report.median("run_wall_s", &walls, "s");
    let cpu: Vec<f64> = plain.iter().map(|p| p.cpu_s).collect();
    report.median("sim_cpu_s", &cpu, "s");
    let wall_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    report.median("job_p50_ms", &wall_ms, "ms");
    report.tail("job_tail_ms", &wall_ms, "ms");
    let rate: Vec<f64> = walls.iter().map(|w| cells as f64 / w).collect();
    report.median("cells_per_s", &rate, "1/s");

    // Per layer, from the composed passes.
    let layers: Vec<&Layers> = traced.iter().filter_map(|p| p.layers.as_ref()).collect();
    if !layers.is_empty() {
        let cell_ms: Vec<f64> = layers
            .iter()
            .flat_map(|l| l.cell_times.iter().map(|d| d.as_secs_f64() * 1e3))
            .collect();
        report.median("campaign.cell_p50_ms", &cell_ms, "ms");
        report.tail("campaign.cell_tail_ms", &cell_ms, "ms");
        let diagnosis: Vec<f64> = layers
            .iter()
            .map(|l| l.diagnosis_wall.as_secs_f64())
            .collect();
        report.median("campaign.diagnosis_s", &diagnosis, "s");
        let farm_passes: Vec<(Duration, Vec<Duration>)> = layers
            .iter()
            .map(|l| (l.cells_wall, l.cell_times.clone()))
            .collect();
        farm_metrics(report, &farm_passes, workers);
        let traced_walls: Vec<f64> = traced.iter().map(|p| p.wall.as_secs_f64()).collect();
        crate::trace_overhead(report, &walls, &traced_walls);
    }
    Host::probe(workers, 0)
}
