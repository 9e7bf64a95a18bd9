//! Pinned-digest regression contract for the simulation kernel.
//!
//! The kernel rework (slab arena, batched wakeups) must not change what
//! any shipped scenario *computes*: these digests were recorded on the
//! pre-rework Rc/RefCell + `BinaryHeap` kernel and are pinned as
//! constants. Every future kernel change has to reproduce them byte for
//! byte; the kernel's only timing mode is cycle-accurate. The fast paths
//! layered on it since (lone-runner advance, bus synchronous transfer,
//! DMI grants for memory marches) are held to the same digests.
//!
//! Pinned surfaces:
//! * the four Table I schedules at the benchmark workload
//!   (`--scale 100 --mem-words 2622`), via [`ScenarioMetrics::digest`],
//! * one campaign detection matrix (seeded population x 4 schedules),
//!   via an FNV-1a digest of the emitted CSV,
//! * traced vs untraced runs of the same scenario (must agree with each
//!   other *and* with the pinned value).

use tve::campaign::{generate, run_campaign, CampaignConfig, PopulationSpec};
use tve::obs::StoragePolicy;
use tve::sched::Farm;
use tve::soc::{paper_schedules, run_scenario, run_scenario_traced, SocConfig, SocTestPlan};

/// Digests of schedules 1-4 on the benchmark workload, recorded on the
/// pre-rework kernel (commit f665d55 lineage). Do not update these to
/// "fix" a kernel change: a mismatch means the kernel changed observable
/// scheduling behavior.
const TABLE1_DIGESTS: [u64; 4] = [
    0x01c61020aad3c538,
    0xd50650152762ea03,
    0x629381307a4d099a,
    0x57b67ecd2b7a9b5c,
];

/// FNV-1a digest of the campaign matrix CSV for the pinned population
/// below, recorded on the pre-rework kernel.
const CAMPAIGN_CSV_DIGEST: u64 = 0x09239e0fc894db27;

fn bench_workload() -> (SocConfig, SocTestPlan) {
    let mut config = SocConfig::paper();
    config.memory_words = 2622;
    (config, SocTestPlan::paper_scaled(100))
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[test]
fn table1_digests_are_pinned() {
    let (config, plan) = bench_workload();
    let got: Vec<u64> = paper_schedules()
        .iter()
        .map(|s| {
            run_scenario(&config, &plan, s)
                .expect("well-formed")
                .digest()
        })
        .collect();
    println!(
        "table1 digests: [{}]",
        got.iter()
            .map(|d| format!("{d:#018x}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    assert_eq!(
        got,
        TABLE1_DIGESTS.to_vec(),
        "kernel rework changed default-mode scenario results"
    );
}

#[test]
fn traced_run_matches_pinned_digest() {
    let (config, plan) = bench_workload();
    let schedule = &paper_schedules()[3];
    let (traced, _log) = run_scenario_traced(&config, &plan, schedule, StoragePolicy::Ring(1024))
        .expect("well-formed");
    let untraced = run_scenario(&config, &plan, schedule).expect("well-formed");
    assert_eq!(
        traced.digest(),
        untraced.digest(),
        "tracing perturbed the simulation"
    );
    assert_eq!(
        traced.digest(),
        TABLE1_DIGESTS[3],
        "traced run diverged from the pinned pre-rework digest"
    );
}

#[test]
fn campaign_matrix_digest_is_pinned() {
    let mut config = SocConfig::small();
    config.memory_words = 64;
    let spec = PopulationSpec {
        seed: 20090417,
        scan_cells_per_core: 1,
        memory_faults: 2,
        ..PopulationSpec::default()
    };
    let population = generate(&spec, &config);
    let campaign = CampaignConfig::new(
        config,
        SocTestPlan::small(),
        paper_schedules().to_vec(),
        population,
    );
    let report = run_campaign(&campaign, &Farm::with_workers(2));
    let got = fnv1a(report.to_csv().as_bytes());
    println!("campaign csv digest: {got:#018x}");
    assert_eq!(
        got, CAMPAIGN_CSV_DIGEST,
        "kernel rework changed the campaign detection matrix"
    );
}
