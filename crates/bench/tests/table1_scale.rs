//! `table1 --scale N` must extrapolate truthfully: with the memory shrunk
//! alongside the pattern counts, the printed ×N test lengths land on the
//! paper-scale totals.

use std::process::Command;

/// `ScenarioMetrics::total_cycles` of the four schedules at scale 1 with
/// the full 1 MiB memory.
const SCALE_1_TOTALS: [u64; 4] = [283_138_509, 213_013_286, 265_139_092, 172_009_134];

#[test]
fn scaled_run_extrapolates_to_the_paper_scale_lengths() {
    let out = Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(["--scale", "100"])
        .env_remove("TVE_TRACE")
        .output()
        .expect("table1 runs");
    assert!(out.status.success(), "table1 failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");

    // Rows: scenario, peak (paper), avg (paper), length (paper), CPU (paper).
    let lengths: Vec<f64> = stdout
        .lines()
        .map(|line| line.split_whitespace().collect::<Vec<_>>())
        .filter(|cols| cols.len() == 9 && ["1", "2", "3", "4"].contains(&cols[0]))
        .map(|cols| cols[5].parse().expect("length column is a number"))
        .collect();
    assert_eq!(lengths.len(), 4, "four scenario rows in:\n{stdout}");

    for (i, (got_mcycles, want)) in lengths.iter().zip(SCALE_1_TOTALS).enumerate() {
        let want_mcycles = want as f64 / 1e6;
        let err = (got_mcycles - want_mcycles).abs() / want_mcycles;
        assert!(
            err < 0.01,
            "scenario {}: extrapolated {got_mcycles} Mcycles vs {want_mcycles:.3} at scale 1 \
             ({:.1}% off)",
            i + 1,
            err * 100.0
        );
    }
}
