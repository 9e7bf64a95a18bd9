//! Campaign scale-out snapshot for the `BENCH_campaign_scale.json`
//! trajectory: measures — and *asserts* — the equivalence claims behind
//! sharding, checkpoint/resume and budgeted sampling.
//!
//! Four sections, each an acceptance criterion before it is a number:
//!
//! 1. **shard** — the campaign matrix run as 3 shards and merged must
//!    be byte-identical (CSV and JSON) to the unsharded run.
//! 2. **resume** — a journaled run whose journal is truncated
//!    mid-matrix must resume to the byte-identical artifact, reporting
//!    exactly how many cells came from the journal.
//! 3. **sampling** — the stratified estimator's 95% confidence interval
//!    must contain the exhaustive run's true union core-fault coverage,
//!    and the estimate is deterministic under any `TVE_JOBS`.
//! 4. **guided** — the coverage-guided selector must rediscover the
//!    exhaustive run's entire escape set while spending at most 50% of
//!    the cell budget (population seeded with guaranteed escapes:
//!    unscanned-core scan cells, no infrastructure faults). Recovery is
//!    asserted when that budget funds guided picks beyond the one-fault
//!    pilot per stratum; under `--quick` the pilot takes the whole
//!    budget, so the bin reports what it found instead.
//!
//! Usage: `campaign_scale [--out PATH] [--check [BASELINE]] [--quick]`
//!
//! `--out` (default `target/BENCH_campaign_scale.json`) is the fresh
//! snapshot; pass `--out BENCH_campaign_scale.json` to re-record the
//! committed baseline. `--check` additionally gates the snapshot against
//! the committed baseline through `tve_bench::gate`: the counts and
//! estimates are bit-deterministic under any `TVE_JOBS` and must match
//! exactly, so any drift means the campaign semantics changed, not the
//! machine. Wall-clocks are recorded for trend reading but never gated.
//! `--quick` shrinks the workload and skips the baseline gate (the
//! equivalence assertions still run).

use std::path::{Path, PathBuf};
use std::time::Instant;

use tve_bench::gate::{Gate, Snapshot};
use tve_bench::write_artifact;
use tve_campaign::{
    generate, merge_shards, run_campaign, run_campaign_journaled, run_campaign_shard,
    run_guided_campaign, run_sampled_campaign, CampaignConfig, PopulationSpec, ShardSpec,
};
use tve_sched::Farm;
use tve_soc::Workload;

fn fail(message: &str) -> ! {
    eprintln!("campaign_scale FAILED: {message}");
    std::process::exit(1);
}

fn campaign_config(mem_words: u32, spec: PopulationSpec) -> CampaignConfig {
    let (soc, plan) = Workload::small().with_mem_words(mem_words).build();
    let population = generate(&spec, &soc);
    let mut config =
        CampaignConfig::new(soc, plan, tve_soc::paper_schedules().to_vec(), population);
    config.diagnosis = true;
    config
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut gate = Gate::from_args("campaign_scale", "BENCH_campaign_scale.json", quick);

    let (faults, mem_words) = if quick { (2, 64) } else { (4, 128) };
    let farm = Farm::new();

    // --- 1. shard equivalence: 3 shards merge byte-identical ----------
    let spec = PopulationSpec {
        scan_cells_per_core: faults,
        memory_faults: faults,
        ..PopulationSpec::default()
    };
    let config = campaign_config(mem_words, spec);
    let cells = config.population.len() * config.schedules.len();
    eprintln!(
        "shard: {} faults x {} schedules = {cells} cells, unsharded vs 3 shards",
        config.population.len(),
        config.schedules.len()
    );
    let t = Instant::now();
    let baseline = run_campaign(&config, &farm);
    let unsharded_wall_s = t.elapsed().as_secs_f64();
    let (baseline_csv, baseline_json) = (baseline.to_csv(), baseline.to_json());

    let shard_count = 3;
    let t = Instant::now();
    let reports: Vec<_> = (0..shard_count)
        .map(|k| run_campaign_shard(&config, &farm, ShardSpec::new(k, shard_count).unwrap()))
        .collect();
    let merged = merge_shards(&config, &reports).unwrap_or_else(|e| fail(&format!("merge: {e}")));
    let sharded_wall_s = t.elapsed().as_secs_f64();
    if merged.to_csv() != baseline_csv || merged.to_json() != baseline_json {
        fail("sharded merge is not byte-identical to the unsharded artifact");
    }
    println!("shard: OK — 3-shard merge byte-identical ({cells} cells)");

    // --- 2. resume equivalence: truncate the journal mid-matrix -------
    let journal = PathBuf::from(format!(
        "target/campaign_scale_journal_{}.txt",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&journal);
    let (first, _) = run_campaign_journaled(&config, &farm, ShardSpec::full(), &journal)
        .unwrap_or_else(|e| fail(&format!("journaled run: {e}")));
    let first_report =
        merge_shards(&config, &[first]).unwrap_or_else(|e| fail(&format!("merge: {e}")));
    if first_report.to_csv() != baseline_csv {
        fail("journaled run is not byte-identical to the plain run");
    }
    // Keep the header plus half the cell records — the state a SIGKILL
    // halfway through the matrix leaves behind.
    let text = std::fs::read_to_string(&journal).expect("journal readable");
    let records_kept = 1 + cells / 2;
    let keep: usize = text
        .split_inclusive('\n')
        .take(records_kept)
        .map(str::len)
        .sum();
    std::fs::write(&journal, &text[..keep]).expect("journal truncatable");
    let (second, resume) = run_campaign_journaled(&config, &farm, ShardSpec::full(), &journal)
        .unwrap_or_else(|e| fail(&format!("resumed run: {e}")));
    let resumed_report =
        merge_shards(&config, &[second]).unwrap_or_else(|e| fail(&format!("merge: {e}")));
    if resumed_report.to_csv() != baseline_csv || resumed_report.to_json() != baseline_json {
        fail("resumed run is not byte-identical to the uninterrupted artifact");
    }
    if resume.resumed_cells != cells / 2 {
        fail(&format!(
            "resume reused {} cells, expected {}",
            resume.resumed_cells,
            cells / 2
        ));
    }
    let _ = std::fs::remove_file(&journal);
    println!(
        "resume: OK — {} cells reused, {} resimulated, artifact byte-identical",
        resume.resumed_cells, resume.simulated_cells
    );

    // --- 3+4. budgeted runs on a population with guaranteed escapes ---
    // Unscanned-core scan cells escape every schedule; infrastructure
    // faults are excluded so "escape" means exactly "undetected core
    // fault" and the true coverage is strictly below 1.
    let spec = PopulationSpec {
        scan_cells_per_core: faults,
        memory_faults: faults,
        infrastructure: false,
        include_unscanned: true,
        ..PopulationSpec::default()
    };
    let mut config = campaign_config(mem_words, spec);
    config.diagnosis = false;
    let total_cells = config.population.len() * config.schedules.len();
    eprintln!(
        "sampling/guided: {} faults x {} schedules = {total_cells} cells, escapes seeded",
        config.population.len(),
        config.schedules.len()
    );
    let exhaustive = run_campaign(&config, &farm);
    let mut escapes_true: Vec<String> = exhaustive
        .union_escapes()
        .into_iter()
        .map(str::to_string)
        .collect();
    escapes_true.sort();
    let core_faults = config
        .population
        .iter()
        .filter(|f| !f.is_infrastructure())
        .count();
    let truth = 1.0 - escapes_true.len() as f64 / core_faults as f64;
    if escapes_true.is_empty() {
        fail("escape-seeded population produced no escapes — the guided section is vacuous");
    }

    let budget_faults = config.population.len() / 2;
    let sampled = run_sampled_campaign(&config, &farm, budget_faults, 0x5EED_CA3A);
    let estimate = sampled
        .estimate
        .clone()
        .unwrap_or_else(|| fail("stratified run returned no estimate"));
    if !(estimate.ci_low <= truth && truth <= estimate.ci_high) {
        fail(&format!(
            "95% CI [{:.4}, {:.4}] does not contain the exhaustive coverage {truth:.4}",
            estimate.ci_low, estimate.ci_high
        ));
    }
    println!(
        "sampling: OK — coverage {:.3}, 95% CI [{:.3}, {:.3}] contains truth {truth:.3} \
         ({} of {} cells spent)",
        estimate.coverage, estimate.ci_low, estimate.ci_high, sampled.spent_cells, total_cells
    );

    let budget_cells = total_cells / 2;
    let guided = run_guided_campaign(&config, &farm, budget_cells, 1, 0x5EED_CA3A);
    let mut escapes_found: Vec<String> = guided
        .report
        .union_escapes()
        .into_iter()
        .map(str::to_string)
        .collect();
    escapes_found.sort();
    if guided.spent_cells > budget_cells {
        fail(&format!(
            "guided selector spent {} cells, budget was {budget_cells}",
            guided.spent_cells
        ));
    }
    // The selector first pilots one fault per stratum; recovery is
    // claimed only when the budget funds guided picks after the pilot.
    // The quick workload's budget (5 faults, 5 strata) is all pilot.
    let pilot_cells = guided.strata.len() * config.schedules.len();
    let recovered = escapes_found == escapes_true;
    if !recovered && budget_cells > pilot_cells {
        fail(&format!(
            "guided selector found escapes {escapes_found:?}, exhaustive truth is {escapes_true:?}"
        ));
    }
    println!(
        "guided: {} — {} of {} escapes rediscovered with {} of {total_cells} cells ({:.0}%, \
         pilot {pilot_cells} cells)",
        if recovered {
            "OK"
        } else {
            "not claimed, the budget is all pilot"
        },
        escapes_found.len(),
        escapes_true.len(),
        guided.spent_cells,
        guided.spent_cells as f64 / total_cells as f64 * 100.0
    );

    let guided_budget_fraction = guided.spent_cells as f64 / total_cells as f64;
    if guided_budget_fraction > 0.5 {
        gate.fail(format!(
            "guided selector needed {:.0}% of the cell budget (acceptance bound: 50%)",
            guided_budget_fraction * 100.0
        ));
    }

    let mut snap = Snapshot::new();
    snap.text("schema", "tve-campaign-scale-bench/1");
    snap.section("shard")
        .exact("cells", cells as f64, 0)
        .exact("shards", shard_count as f64, 0)
        .record("unsharded_wall_s", unsharded_wall_s, 4)
        .record("sharded_wall_s", sharded_wall_s, 4)
        .flag("identical", true);
    snap.section("resume")
        .exact("records_kept", records_kept as f64, 0)
        .exact("resumed_cells", resume.resumed_cells as f64, 0)
        .exact("resimulated_cells", resume.simulated_cells as f64, 0)
        .flag("identical", true);
    snap.section("sampling")
        .exact("budget_faults", budget_faults as f64, 0)
        .exact("spent_cells", sampled.spent_cells as f64, 0)
        .exact("coverage", estimate.coverage, 6)
        .exact("ci_low", estimate.ci_low, 6)
        .exact("ci_high", estimate.ci_high, 6)
        .exact("truth", truth, 6)
        .flag("contained", true);
    snap.section("guided")
        .exact("total_cells", total_cells as f64, 0)
        .exact("budget_cells", budget_cells as f64, 0)
        .exact("guided_spent_cells", guided.spent_cells as f64, 0)
        .exact("budget_fraction", guided_budget_fraction, 6)
        .exact("escapes_true", escapes_true.len() as f64, 0)
        .exact("escapes_found", escapes_found.len() as f64, 0)
        .flag("recovered", recovered);

    write_artifact(
        Path::new("target/campaign_scale_sampled.json"),
        &sampled.to_json(),
    );
    write_artifact(
        Path::new("target/campaign_scale_guided.json"),
        &guided.to_json(),
    );
    gate.finish(&snap);
}
