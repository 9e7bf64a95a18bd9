//! The detection matrix: per-cell outcomes, the diagnosis cross-check
//! record, and the CSV/JSON artifact emitters.
//!
//! Artifacts contain only simulation-determined values (no wall-clock
//! times, no host details), so the bytes are identical for any farm
//! worker count.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use tve_core::{FailingCell, StuckCell};
use tve_obs::{json_document, Layout};
use tve_soc::WrappedCore;

use crate::wire::{write_cell_result, write_diagnosis};

/// What happened when one fault met one schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellOutcome {
    /// The schedule's metrics digest deviated from the golden run.
    Detected {
        /// Simulated cycle of the earliest deviating test's completion —
        /// the first moment the tester could have flagged the part.
        latency_cycles: u64,
        /// Names of the tests whose outcomes deviated.
        deviating: Vec<String>,
    },
    /// The faulty run was byte-identical to the golden run: the fault
    /// slipped through this schedule.
    Escape,
    /// The run itself failed (panic or schedule error) — the test
    /// *infrastructure* broke down rather than reporting a clean verdict.
    InfraFailure {
        /// The captured panic or error message.
        error: String,
    },
}

impl CellOutcome {
    /// The CSV/JSON tag of this outcome.
    pub fn tag(&self) -> &'static str {
        match self {
            CellOutcome::Detected { .. } => "detected",
            CellOutcome::Escape => "escape",
            CellOutcome::InfraFailure { .. } => "infra-failure",
        }
    }

    /// Whether the fault was noticed at all — a digest deviation *or* an
    /// outright infrastructure failure both make the part conspicuous;
    /// only a silent [`CellOutcome::Escape`] ships a defective chip.
    pub fn noticed(&self) -> bool {
        !matches!(self, CellOutcome::Escape)
    }
}

/// One cell of the detection matrix: a fault crossed with a schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellResult {
    /// Stable fault identifier (see `FaultSpec::id`).
    pub fault_id: String,
    /// Fault class (see `FaultSpec::class`).
    pub fault_class: String,
    /// Schedule name.
    pub schedule: String,
    /// What happened.
    pub outcome: CellOutcome,
}

/// The diagnosis cross-check for one detected scan-cell fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiagnosisCheck {
    /// The fault's stable identifier.
    pub fault_id: String,
    /// The core the fault was injected into.
    pub core: WrappedCore,
    /// The injected stuck cell.
    pub injected: StuckCell,
    /// The cells the diagnosis located.
    pub located: Vec<FailingCell>,
    /// The first failing BIST pattern, if any.
    pub first_failing_pattern: Option<u64>,
    /// Whether diagnosis located exactly the injected (chain, position).
    pub confirmed: bool,
}

/// A schedule the static pre-screen rejected before the campaign: it ran
/// zero simulations, and here is why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrescreenedSchedule {
    /// The schedule's name.
    pub schedule: String,
    /// The error-severity diagnostic codes that rejected it.
    pub codes: Vec<String>,
}

/// The complete campaign result: every (fault × schedule) cell plus the
/// diagnosis cross-check, with CSV/JSON emitters and coverage accessors.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Schedule names that actually ran, in campaign order.
    pub schedules: Vec<String>,
    /// Schedules the static pre-screen rejected (empty unless
    /// `CampaignConfig::prescreen` was set). Never silently dropped: each
    /// entry records the diagnostic codes that condemned it.
    pub prescreened: Vec<PrescreenedSchedule>,
    /// Matrix cells, fault-major in population order.
    pub cells: Vec<CellResult>,
    /// Diagnosis cross-checks for detected scan-cell faults.
    pub diagnosis: Vec<DiagnosisCheck>,
}

impl CampaignReport {
    /// Detection coverage of `schedule` over core faults (scan-cell and
    /// memory classes): detected / injected, in `[0, 1]`. Returns 1.0
    /// for an empty population.
    pub fn core_coverage(&self, schedule: &str) -> f64 {
        let core_cells: Vec<&CellResult> = self
            .cells
            .iter()
            .filter(|c| c.schedule == schedule)
            .filter(|c| c.fault_class == "scan-cell" || c.fault_class == "memory")
            .collect();
        if core_cells.is_empty() {
            return 1.0;
        }
        let detected = core_cells
            .iter()
            .filter(|c| matches!(c.outcome, CellOutcome::Detected { .. }))
            .count();
        detected as f64 / core_cells.len() as f64
    }

    /// Fault ids that escaped `schedule` (any class), in matrix order.
    pub fn escapes(&self, schedule: &str) -> Vec<&str> {
        self.cells
            .iter()
            .filter(|c| c.schedule == schedule && c.outcome == CellOutcome::Escape)
            .map(|c| c.fault_id.as_str())
            .collect()
    }

    /// `(fault_id, schedule, error)` for every infrastructure failure.
    pub fn infra_failures(&self) -> Vec<(&str, &str, &str)> {
        self.cells
            .iter()
            .filter_map(|c| match &c.outcome {
                CellOutcome::InfraFailure { error } => {
                    Some((c.fault_id.as_str(), c.schedule.as_str(), error.as_str()))
                }
                _ => None,
            })
            .collect()
    }

    /// Fault ids of core faults (scan-cell/memory) that *no* schedule
    /// detected — the union escape list that the campaign's 100 %
    /// criterion is judged on.
    pub fn union_escapes(&self) -> Vec<&str> {
        let mut best: BTreeMap<&str, bool> = BTreeMap::new();
        let mut order: Vec<&str> = Vec::new();
        for c in &self.cells {
            if c.fault_class != "scan-cell" && c.fault_class != "memory" {
                continue;
            }
            let entry = best.entry(c.fault_id.as_str()).or_insert_with(|| {
                order.push(c.fault_id.as_str());
                false
            });
            *entry |= matches!(c.outcome, CellOutcome::Detected { .. });
        }
        order.into_iter().filter(|id| !best[id]).collect()
    }

    /// Whether every diagnosis cross-check confirmed its injected cell.
    pub fn all_diagnoses_confirmed(&self) -> bool {
        self.diagnosis.iter().all(|d| d.confirmed)
    }

    /// The detection matrix as CSV: one row per (fault × schedule) cell.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "fault_id,fault_class,schedule,outcome,latency_cycles,deviating_tests,error\n",
        );
        for c in &self.cells {
            let (latency, deviating, error) = match &c.outcome {
                CellOutcome::Detected {
                    latency_cycles,
                    deviating,
                } => (
                    latency_cycles.to_string(),
                    deviating.join(";"),
                    String::new(),
                ),
                CellOutcome::Escape => (String::new(), String::new(), String::new()),
                CellOutcome::InfraFailure { error } => {
                    (String::new(), String::new(), error.clone())
                }
            };
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{}",
                csv_field(&c.fault_id),
                csv_field(&c.fault_class),
                csv_field(&c.schedule),
                c.outcome.tag(),
                latency,
                csv_field(&deviating),
                csv_field(&error),
            );
        }
        out
    }

    /// The full report as JSON: per-schedule coverage and escapes, the
    /// matrix cells, and the diagnosis cross-check, one record per line.
    pub fn to_json(&self) -> String {
        let rows = Layout::lines("\n    ", "\n  ");
        json_document(|doc| {
            doc.objs_in("schedules", rows, &self.schedules, |row, s| {
                row.str("name", s)
                    .fixed("core_coverage", self.core_coverage(s), 6)
                    .strs("escapes", self.escapes(s));
            })
            .objs_in("prescreened", rows, &self.prescreened, |row, p| {
                row.str("name", &p.schedule).strs("codes", &p.codes);
            })
            .objs_in("cells", rows, &self.cells, write_cell_result)
            .objs_in("diagnosis", rows, &self.diagnosis, |row, d| {
                write_diagnosis(row, d, false)
            });
        })
    }
}

/// Quotes a CSV field when it contains a comma, quote or newline.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> CampaignReport {
        CampaignReport {
            schedules: vec!["schedule 1 (seq, uncompressed)".into(), "s2".into()],
            prescreened: vec![PrescreenedSchedule {
                schedule: "broken (dup)".into(),
                codes: vec!["sched-dup-test".into()],
            }],
            cells: vec![
                CellResult {
                    fault_id: "scan:proc:c0p1s1".into(),
                    fault_class: "scan-cell".into(),
                    schedule: "schedule 1 (seq, uncompressed)".into(),
                    outcome: CellOutcome::Detected {
                        latency_cycles: 1234,
                        deviating: vec!["T1 proc bist".into()],
                    },
                },
                CellResult {
                    fault_id: "scan:proc:c0p1s1".into(),
                    fault_class: "scan-cell".into(),
                    schedule: "s2".into(),
                    outcome: CellOutcome::Escape,
                },
                CellResult {
                    fault_id: "ring:break@0".into(),
                    fault_class: "ring".into(),
                    schedule: "s2".into(),
                    outcome: CellOutcome::InfraFailure {
                        error: "worker panicked: \"boom, with comma\"".into(),
                    },
                },
            ],
            diagnosis: vec![DiagnosisCheck {
                fault_id: "scan:proc:c0p1s1".into(),
                core: WrappedCore::Processor,
                injected: StuckCell {
                    chain: 0,
                    position: 1,
                    value: true,
                },
                located: vec![FailingCell {
                    chain: 0,
                    position: 1,
                }],
                first_failing_pattern: Some(3),
                confirmed: true,
            }],
        }
    }

    #[test]
    fn csv_quotes_commas_and_quotes() {
        let csv = sample_report().to_csv();
        assert!(csv.contains("\"schedule 1 (seq, uncompressed)\""));
        assert!(csv.contains("\"worker panicked: \"\"boom, with comma\"\"\""));
        assert_eq!(csv.lines().count(), 4, "header + 3 cells");
        let header_cols = csv.lines().next().unwrap().split(',').count();
        assert_eq!(header_cols, 7);
    }

    #[test]
    fn json_is_well_formed() {
        let json = sample_report().to_json();
        tve_obs::check_json(&json).expect("report JSON parses");
        assert!(json.contains("\"core_coverage\": 1.000000"));
        assert!(json.contains("\\\"boom, with comma\\\""));
        assert!(json.contains("\"prescreened\""));
        assert!(json.contains("sched-dup-test"));
    }

    #[test]
    fn coverage_and_escape_accounting() {
        let r = sample_report();
        assert_eq!(r.core_coverage("schedule 1 (seq, uncompressed)"), 1.0);
        assert_eq!(r.core_coverage("s2"), 0.0);
        assert_eq!(r.escapes("s2"), vec!["scan:proc:c0p1s1"]);
        assert!(r.union_escapes().is_empty(), "detected by schedule 1");
        assert_eq!(r.infra_failures().len(), 1);
        assert!(r.all_diagnoses_confirmed());
        assert!(CellOutcome::Escape.tag() == "escape" && !CellOutcome::Escape.noticed());
    }
}
