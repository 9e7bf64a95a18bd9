//! Property-based pinning of the incremental re-validation contract:
//! the *prediction* layer (`edit_impact` from lint plan facts) and the
//! *correctness* layer (content-addressed cell keys with plan
//! projection) must agree on every possible plan edit.
//!
//! Three properties, over random edits:
//!
//! 1. a predicted-affected schedule's cell keys always move; a
//!    predicted-unaffected schedule's never do,
//! 2. mask-based eviction reclaims exactly the affected entries —
//!    never a stale affected cell left behind, never an unaffected
//!    cell thrown away,
//! 3. the predicted touched tests are exactly the edit's own
//!    field-to-test mapping, and schedule membership follows it.

use proptest::prelude::*;

use tve::campaign::CellOutcome;
use tve::lint::soc_facts;
use tve::serve::{cell_key, edit_impact, schedule_tests, test_mask, CachedValue, ResultCache};
use tve::soc::{paper_schedules, PlanOverrides, Workload, PLAN_OVERRIDE_KEYS};

/// Builds a non-empty plan edit from raw generated inputs, with values
/// guaranteed to differ from the current plan's (an "edit" to the
/// present value is a no-op and legitimately moves no key).
fn make_edit(fields: &[usize], value: u64) -> PlanOverrides {
    let (_, plan) = Workload::small().build();
    let current = [
        plan.bist_proc_patterns,
        plan.det_proc_patterns,
        plan.comp_proc_patterns,
        plan.bist_color_patterns,
        plan.det_dct_patterns,
        plan.seed,
    ];
    let mut edit = PlanOverrides::default();
    for &f in fields {
        let v = if value == current[f] {
            value + 1
        } else {
            value
        };
        edit.set(PLAN_OVERRIDE_KEYS[f], v);
    }
    edit
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Property 1: key movement agrees with the prediction, for golden
    // and faulty cells alike.
    #[test]
    fn affected_keys_always_move_and_unaffected_never_do(
        fields in proptest::collection::vec(0usize..6, 1..4),
        value in 1u64..100_000,
    ) {
        let edit = make_edit(&fields, value);
        let workload = Workload::small();
        let (config, plan) = workload.build();
        let (_, edited_plan) = workload.clone().with_overrides(edit).build();
        let facts = soc_facts(&config, &plan);
        let impact = edit_impact(&facts, &edit, &paper_schedules());
        for schedule in &paper_schedules() {
            let affected = impact.affected_schedules.contains(&schedule.name);
            for fault in ["golden", "scan:processor:3"] {
                let before = cell_key(&config, &plan, schedule, fault);
                let after = cell_key(&config, &edited_plan, schedule, fault);
                if affected {
                    prop_assert!(
                        before != after,
                        "stale hit: edit {:?} left the key of affected '{}' in place",
                        edit, schedule.name
                    );
                } else {
                    prop_assert!(
                        before == after,
                        "lost hit: edit {:?} moved the key of unaffected '{}'",
                        edit, schedule.name
                    );
                }
            }
        }
    }

    // Property 2: eviction is exact. Populate a cache with one golden
    // and two faulty cells per schedule plus one mask-0 entry (the
    // diagnosis class), evict by the edit's mask, and check membership
    // entry by entry.
    #[test]
    fn eviction_reclaims_exactly_the_affected_entries(
        fields in proptest::collection::vec(0usize..6, 1..4),
        value in 1u64..100_000,
    ) {
        let edit = make_edit(&fields, value);
        let workload = Workload::small();
        let (config, plan) = workload.build();
        let facts = soc_facts(&config, &plan);
        let impact = edit_impact(&facts, &edit, &paper_schedules());

        let cache = ResultCache::new();
        let stand_in = || CachedValue::Cell(CellOutcome::Escape);
        let mut keys: Vec<(u64, bool)> = Vec::new(); // (key, affected)
        for schedule in &paper_schedules() {
            let mask = test_mask(&schedule_tests(schedule));
            let affected = impact.affected_schedules.contains(&schedule.name);
            for fault in ["golden", "scan:processor:3", "mem:word:7"] {
                let key = cell_key(&config, &plan, schedule, fault);
                cache.insert(key, stand_in(), mask);
                keys.push((key, affected));
            }
        }
        // Diagnosis-class entry: mask 0, must survive every edit.
        cache.insert(0xD1A6, stand_in(), 0);

        let evicted = cache.evict_tests(impact.touched_mask);
        let expected: u64 = keys.iter().filter(|(_, a)| *a).count() as u64;
        prop_assert!(
            evicted == expected,
            "evicted {} entries, predicted {}",
            evicted,
            expected
        );
        for (key, affected) in keys {
            prop_assert!(
                cache.lookup(key).is_none() == affected,
                "entry affected={} has the wrong post-eviction state",
                affected
            );
        }
        prop_assert!(cache.lookup(0xD1A6).is_some(), "mask-0 entry was evicted");
    }

    // Property 3: the prediction itself is structural — touched tests
    // come straight from the edit, and a schedule is affected iff it
    // runs one of them.
    #[test]
    fn prediction_is_exactly_the_field_to_test_mapping(
        fields in proptest::collection::vec(0usize..6, 1..4),
        value in 1u64..100_000,
    ) {
        let edit = make_edit(&fields, value);
        let (config, plan) = Workload::small().build();
        let facts = soc_facts(&config, &plan);
        let impact = edit_impact(&facts, &edit, &paper_schedules());
        prop_assert_eq!(&impact.touched_tests, &edit.touched_tests());
        prop_assert_eq!(impact.touched_mask, test_mask(&edit.touched_tests()));
        for schedule in &paper_schedules() {
            let runs_touched =
                test_mask(&schedule_tests(schedule)) & impact.touched_mask != 0;
            prop_assert_eq!(
                impact.affected_schedules.contains(&schedule.name),
                runs_touched
            );
        }
    }
}
