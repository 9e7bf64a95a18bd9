//! Content-addressed cache keys.
//!
//! A cached result is only reusable if its key covers *every* input the
//! simulation consumed and *nothing else*. The key of a (fault ×
//! schedule) cell therefore digests:
//!
//! * the full [`SocConfig`] (memory size, rates, arbiter, TAM fault
//!   policy, power model — everything the SoC is built from),
//! * the **plan projection**: only the [`SocTestPlan`] fields consumed
//!   by the tests the schedule actually runs (see
//!   [`plan_projection`]) — this is what makes re-validation
//!   incremental, because an edit to test *k*'s pattern count leaves
//!   the keys of every schedule that does not run test *k* untouched,
//! * the schedule itself (name and phases),
//! * the fault id (`golden` for baselines).
//!
//! Keys are FNV-1a ([`tve_obs::fnv1a`]) over a canonical text
//! encoding. The encoding uses the types' `Debug` forms, which is sound
//! here because the cache lives in one daemon process: keys never cross
//! a build, so the only requirement is that equal inputs encode equally
//! and different inputs differently within this binary.

use tve_core::Schedule;
use tve_obs::fnv1a;
use tve_soc::{SocConfig, SocTestPlan};

/// The distinct test indices a schedule runs, ascending.
pub fn schedule_tests(schedule: &Schedule) -> Vec<usize> {
    let mut tests: Vec<usize> = schedule.phases.iter().flatten().copied().collect();
    tests.sort_unstable();
    tests.dedup();
    tests
}

/// A bitmask over the seven plan tests (bit *k* = test index *k*).
pub fn test_mask(tests: &[usize]) -> u8 {
    tests
        .iter()
        .filter(|&&t| t < 7)
        .fold(0u8, |m, &t| m | (1 << t))
}

/// Appends the plan fields consumed by `tests` to `out`, in a stable
/// order. Field-to-test mapping (see `tve-soc`'s `build_test_runs`):
/// the policy and seed feed every test, each pattern-count field feeds
/// exactly one of tests 0–4, and the march algorithm plus background
/// patterns feed the two memory tests (5 and 6).
pub fn plan_projection(plan: &SocTestPlan, tests: &[usize], out: &mut String) {
    use std::fmt::Write;
    let _ = write!(out, "|policy={:?}|seed={}", plan.policy, plan.seed);
    let mut march_written = false;
    for &t in tests {
        match t {
            0 => {
                let _ = write!(out, "|t0={}", plan.bist_proc_patterns);
            }
            1 => {
                let _ = write!(out, "|t1={}", plan.det_proc_patterns);
            }
            2 => {
                let _ = write!(out, "|t2={}", plan.comp_proc_patterns);
            }
            3 => {
                let _ = write!(out, "|t3={}", plan.bist_color_patterns);
            }
            4 => {
                let _ = write!(out, "|t4={}", plan.det_dct_patterns);
            }
            5 | 6 => {
                // Written once even if both memory tests are scheduled.
                if !march_written {
                    let _ = write!(
                        out,
                        "|march={:?}|patterns={:?}",
                        plan.march, plan.pattern_tests
                    );
                    march_written = true;
                }
            }
            other => {
                let _ = write!(out, "|t{other}=?");
            }
        }
    }
}

/// The cache key of one (fault × schedule) cell. `fault_id` is
/// [`tve_campaign::FaultSpec::id`] output, or `"golden"` for the
/// fault-free baseline.
pub fn cell_key(
    config: &SocConfig,
    plan: &SocTestPlan,
    schedule: &Schedule,
    fault_id: &str,
) -> u64 {
    use std::fmt::Write;
    let mut text = String::with_capacity(512);
    let _ = write!(
        text,
        "cell/v1|cfg={config:?}|sched={}:{:?}|fault={fault_id}",
        schedule.name, schedule.phases
    );
    plan_projection(plan, &schedule_tests(schedule), &mut text);
    fnv1a(text.as_bytes())
}

/// The cache key of a diagnosis check for one scan-cell fault. Depends
/// on the SoC, the plan seed (the BIST stream diagnosis replays), the
/// diagnosis parameters and the fault — but on no pattern count, so
/// plan edits other than the seed leave diagnosis results valid.
pub fn diagnosis_key(
    config: &SocConfig,
    plan_seed: u64,
    patterns: u64,
    window: u64,
    fault_id: &str,
) -> u64 {
    let text = format!(
        "diag/v1|cfg={config:?}|seed={plan_seed}|patterns={patterns}|window={window}|fault={fault_id}"
    );
    fnv1a(text.as_bytes())
}

/// The cache key of a lint report. Lint consumes the full plan facts,
/// so the entire plan participates (no projection).
pub fn lint_key(
    config: &SocConfig,
    plan: &SocTestPlan,
    schedule: &Schedule,
    program: Option<(&str, &str)>,
) -> u64 {
    let text = format!(
        "lint/v1|cfg={config:?}|plan={plan:?}|sched={}:{:?}|prog={program:?}",
        schedule.name, schedule.phases
    );
    fnv1a(text.as_bytes())
}

/// The cache key of a certified static bounds report. The envelope
/// consumes the full config and the full plan, so both participate with
/// no projection.
pub fn bounds_key(config: &SocConfig, plan: &SocTestPlan, schedule: &Schedule) -> u64 {
    let text = format!(
        "bounds/v1|cfg={config:?}|plan={plan:?}|sched={}:{:?}",
        schedule.name, schedule.phases
    );
    fnv1a(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tve_soc::paper_schedules;

    #[test]
    fn keys_are_stable_and_input_sensitive() {
        let config = SocConfig::small();
        let plan = SocTestPlan::small();
        let schedules = paper_schedules();
        let k = cell_key(&config, &plan, &schedules[0], "golden");
        assert_eq!(k, cell_key(&config, &plan, &schedules[0], "golden"));
        assert_ne!(k, cell_key(&config, &plan, &schedules[1], "golden"));
        assert_ne!(k, cell_key(&config, &plan, &schedules[0], "scan:x"));
        let mut other_cfg = config.clone();
        other_cfg.memory_words += 1;
        assert_ne!(k, cell_key(&other_cfg, &plan, &schedules[0], "golden"));
    }

    #[test]
    fn bounds_keys_cover_the_whole_plan() {
        let config = SocConfig::small();
        let plan = SocTestPlan::small();
        let schedules = paper_schedules();
        let k = bounds_key(&config, &plan, &schedules[0]);
        assert_eq!(k, bounds_key(&config, &plan, &schedules[0]));
        assert_ne!(k, bounds_key(&config, &plan, &schedules[1]));
        let mut edited = plan.clone();
        edited.det_proc_patterns += 1;
        assert_ne!(
            k,
            bounds_key(&config, &edited, &schedules[0]),
            "bounds consume the whole plan — no projection"
        );
    }

    #[test]
    fn projection_ignores_unscheduled_tests() {
        let config = SocConfig::small();
        let plan = SocTestPlan::small();
        // Schedule 2 runs tests [0, 2, 3, 4, 5] — no test 1 (det proc)
        // and no test 6.
        let schedule = &paper_schedules()[1];
        assert_eq!(schedule_tests(schedule), vec![0, 2, 3, 4, 5]);
        let before = cell_key(&config, &plan, schedule, "golden");
        let mut edited = plan.clone();
        edited.det_proc_patterns += 5;
        assert_eq!(
            before,
            cell_key(&config, &edited, schedule, "golden"),
            "edit to an unscheduled test must not move the key"
        );
        let mut touched = plan.clone();
        touched.det_dct_patterns += 5;
        assert_ne!(
            before,
            cell_key(&config, &touched, schedule, "golden"),
            "edit to a scheduled test must move the key"
        );
    }

    #[test]
    fn masks_cover_schedules() {
        assert_eq!(test_mask(&[0, 2, 6]), 0b100_0101);
        assert_eq!(test_mask(&[]), 0);
        assert_eq!(test_mask(&[0, 1, 2, 3, 4, 5, 6]), 0x7f);
    }
}
