//! Certified-pruning snapshot for the `BENCH_static_bounds.json`
//! trajectory: measures — and *asserts* — the two claims behind
//! proof-carrying exploration pruning.
//!
//! 1. **Exactness** — `explore_certified` with pruning returns a Pareto
//!    front byte-identical to exhaustive validation of the same
//!    candidate pool, and every simulated run lands inside its static
//!    envelope (zero soundness violations).
//! 2. **Payoff** — at least 30% of the candidates are discarded on
//!    their static lower bound alone, without simulation, and the
//!    static analysis costs microseconds per candidate against
//!    simulations costing milliseconds.
//!
//! Usage: `bounds_bench [--out PATH] [--check [BASELINE]] [--quick]`
//!
//! `--out` (default `target/BENCH_static_bounds.json`) is the fresh
//! snapshot; pass `--out BENCH_static_bounds.json` to re-record the
//! committed baseline. `--check` additionally gates the snapshot against
//! the committed baseline through `tve_bench::gate`: candidate counts,
//! pruning fraction and front size are bit-deterministic and must match
//! exactly, so any drift means the analysis or the dominance rule
//! changed, not the machine. Wall-clocks are recorded for trend reading
//! but never gated. `--quick` shrinks the workload and skips the
//! baseline gate (the exactness assertions still run).

use std::time::Instant;

use tve_bench::gate::{Gate, Snapshot};
use tve_core::Schedule;
use tve_sched::{enumerate_schedules, estimate_tasks, explore_certified, Constraints};
use tve_soc::{paper_schedules, SocConfig, SocTestPlan};

fn fail(message: &str) -> ! {
    eprintln!("bounds_bench FAILED: {message}");
    std::process::exit(1);
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let gate = Gate::from_args("bounds_bench", "BENCH_static_bounds.json", quick);

    // The bench SoC: the paper workload at reduced pattern counts (and
    // a matching memory reduction, as the bench preset does) so each
    // simulation takes tens of milliseconds and the pool finishes in
    // seconds. The envelopes are exact at any scale.
    let (scale, pool_limit) = if quick { (1000, 8) } else { (200, 24) };
    let mut config = SocConfig::paper();
    config.memory_words = 2622;
    let plan = SocTestPlan::paper_scaled(scale);
    let tasks = estimate_tasks(&config, &plan);
    let constraints = Constraints {
        tam_capacity: 1.0,
        power_budget: 400,
    };
    let mut pool: Vec<Schedule> = paper_schedules().into_iter().collect();
    pool.extend(enumerate_schedules(&tasks, &constraints, pool_limit));
    eprintln!(
        "pool: 4 paper schedules + {} enumerated partitions (scale 1/{scale})",
        pool.len() - 4
    );

    // --- exhaustive: simulate everything ------------------------------
    let t = Instant::now();
    let exhaustive = explore_certified(&config, &plan, &tasks, &constraints, &pool, false);
    let exhaustive_wall_s = t.elapsed().as_secs_f64();
    if !exhaustive.violations.is_empty() {
        fail(&format!(
            "exhaustive run violated its own envelopes: {:?}",
            exhaustive.violations
        ));
    }
    if exhaustive.pruned() != 0 {
        fail("exhaustive run must not prune");
    }

    // --- certified: prune on static lower bounds ----------------------
    let t = Instant::now();
    let certified = explore_certified(&config, &plan, &tasks, &constraints, &pool, true);
    let certified_wall_s = t.elapsed().as_secs_f64();
    if !certified.violations.is_empty() {
        fail(&format!(
            "certified run violated its envelopes: {:?}",
            certified.violations
        ));
    }
    let front = exhaustive.front_signature();
    if certified.front_signature() != front {
        fail(&format!(
            "pruning changed the front:\n  exhaustive: {front}\n  certified:  {}",
            certified.front_signature()
        ));
    }
    println!(
        "exactness: OK — certified front identical to exhaustive ({} points)",
        certified.front_points().len()
    );
    for proof in certified.proofs() {
        println!("  {proof}");
    }

    let candidates = certified.candidates.len();
    let pruned = certified.pruned();
    let pruned_fraction = pruned as f64 / candidates as f64;
    let analysis_us_per_candidate = certified.analysis_ns as f64 / 1e3 / candidates as f64;
    println!(
        "payoff: {pruned} of {candidates} candidates pruned without simulation ({:.0}%), \
         analysis {analysis_us_per_candidate:.1} us/candidate, \
         wall {certified_wall_s:.2}s vs {exhaustive_wall_s:.2}s exhaustive",
        pruned_fraction * 100.0,
    );
    if !quick && pruned_fraction < 0.30 {
        fail(&format!(
            "pruned fraction {pruned_fraction:.2} below the 30% acceptance bound"
        ));
    }

    let mut snap = Snapshot::new();
    snap.text("schema", "tve-static-bounds-bench/1")
        .exact("candidates", candidates as f64, 0)
        .exact("simulated", certified.simulated() as f64, 0)
        .exact("pruned", pruned as f64, 0)
        .exact("pruned_fraction", pruned_fraction, 6)
        .exact("front_size", certified.front_points().len() as f64, 0)
        .flag("front_identical", true)
        .exact("violations", certified.violations.len() as f64, 0)
        .record("analysis_us_per_candidate", analysis_us_per_candidate, 3)
        .record("exhaustive_wall_s", exhaustive_wall_s, 4)
        .record("certified_wall_s", certified_wall_s, 4);
    gate.finish(&snap);
}
