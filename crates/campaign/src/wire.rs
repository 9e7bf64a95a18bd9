//! Wire serialization of campaign results: the one JSON encoding of
//! [`CellOutcome`], [`CellResult`], [`DiagnosisCheck`] and
//! [`ScenarioMetrics`].
//!
//! Shard reports, resume journals, the campaign report artifact and the
//! `tve-serve` cache snapshot all move these records through the
//! writers here (built on `tve-obs`'s serde-free JSON), so a record that
//! crossed a process boundary is exactly the record that was computed.
//! Every writer has a parser, and round-tripping is lossless —
//! `from(to(x)) == x` — which is what lets the scale-out paths promise
//! byte-identical artifacts. The writers fill an object the caller
//! opened, so the caller picks the [`Layout`](tve_obs::Layout) and any
//! members around the record.

use tve_core::{FailingCell, ScheduleResult, StuckCell, TestOutcome, TestSlot};
use tve_obs::{JsonObject, JsonValue};
use tve_sim::Time;
use tve_soc::{PowerSummary, ScenarioMetrics, WrappedCore};

use crate::matrix::{CellOutcome, CellResult, DiagnosisCheck};

/// Writes `outcome`'s members: the `outcome` tag, then the detection
/// latency and deviating tests, or the infrastructure error.
pub fn write_outcome(obj: &mut JsonObject, outcome: &CellOutcome) {
    obj.str("outcome", outcome.tag());
    match outcome {
        CellOutcome::Detected {
            latency_cycles,
            deviating,
        } => {
            obj.num("latency_cycles", latency_cycles)
                .strs("deviating", deviating);
        }
        CellOutcome::Escape => {}
        CellOutcome::InfraFailure { error } => {
            obj.str("error", error);
        }
    }
}

/// Parses the members [`write_outcome`] writes.
///
/// # Errors
///
/// A message naming the missing or malformed field.
pub fn outcome_from_json(v: &JsonValue) -> Result<CellOutcome, String> {
    match v.str_field("outcome")? {
        "detected" => Ok(CellOutcome::Detected {
            latency_cycles: v.int_field("latency_cycles")?,
            deviating: v.strs_field("deviating")?,
        }),
        "escape" => Ok(CellOutcome::Escape),
        "infra-failure" => Ok(CellOutcome::InfraFailure {
            error: v.str_field("error")?.to_string(),
        }),
        other => Err(format!("unknown cell outcome {other:?}")),
    }
}

/// Writes `cell`'s members: fault, class, schedule, then its outcome.
pub fn write_cell_result(obj: &mut JsonObject, cell: &CellResult) {
    obj.str("fault", &cell.fault_id)
        .str("class", &cell.fault_class)
        .str("schedule", &cell.schedule);
    write_outcome(obj, &cell.outcome);
}

/// Parses a [`CellResult`] from the members [`write_cell_result`]
/// writes.
///
/// # Errors
///
/// A message naming the missing or malformed field.
pub fn cell_result_from_json(v: &JsonValue) -> Result<CellResult, String> {
    Ok(CellResult {
        fault_id: v.str_field("fault")?.to_string(),
        fault_class: v.str_field("class")?.to_string(),
        schedule: v.str_field("schedule")?.to_string(),
        outcome: outcome_from_json(v)?,
    })
}

/// Writes `check`'s members. With `full` they include the core label
/// and the injected stuck value, which [`diagnosis_from_json`] needs;
/// the campaign report artifact leaves both out.
pub fn write_diagnosis(obj: &mut JsonObject, check: &DiagnosisCheck, full: bool) {
    obj.str("fault", &check.fault_id);
    if full {
        obj.str("core", check.core.label());
    }
    let mut injected = obj.obj("injected");
    injected
        .num("chain", check.injected.chain)
        .num("position", check.injected.position);
    if full {
        injected.bool("value", check.injected.value);
    }
    drop(injected);
    obj.objs("located", &check.located, |located, cell| {
        located
            .num("chain", cell.chain)
            .num("position", cell.position);
    });
    match check.first_failing_pattern {
        Some(p) => obj.num("first_failing_pattern", p),
        None => obj.null("first_failing_pattern"),
    };
    obj.bool("confirmed", check.confirmed);
}

/// The inverse of [`WrappedCore::label`].
fn core_from_label(label: &str) -> Result<WrappedCore, String> {
    WrappedCore::ALL
        .into_iter()
        .find(|core| core.label() == label)
        .ok_or_else(|| format!("unknown core label {label:?}"))
}

/// Parses a [`DiagnosisCheck`] from the members [`write_diagnosis`]
/// writes in full.
///
/// # Errors
///
/// A message naming the missing or malformed field.
pub fn diagnosis_from_json(v: &JsonValue) -> Result<DiagnosisCheck, String> {
    let injected = v.field("injected")?;
    let located = v
        .arr_field("located")?
        .iter()
        .map(|cell| {
            Ok(FailingCell {
                chain: cell.int_field("chain")?,
                position: cell.int_field("position")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let first_failing_pattern = match v.get("first_failing_pattern") {
        None | Some(JsonValue::Null) => None,
        Some(_) => Some(v.int_field("first_failing_pattern")?),
    };
    Ok(DiagnosisCheck {
        fault_id: v.str_field("fault")?.to_string(),
        core: core_from_label(v.str_field("core")?)?,
        injected: StuckCell {
            chain: injected.int_field("chain")?,
            position: injected.int_field("position")?,
            value: injected.bool_field("value")?,
        },
        located,
        first_failing_pattern,
        confirmed: v.bool_field("confirmed")?,
    })
}

/// Writes `m`'s simulation-determined members. Every `u64` and every
/// float (as `f64::to_bits`) travels as hex, so a reloaded metrics
/// record has bit-for-bit the [`ScenarioMetrics::digest`] of the
/// original; the host CPU times the digest ignores are not written.
pub fn write_metrics(obj: &mut JsonObject, m: &ScenarioMetrics) {
    obj.str("schedule", &m.schedule)
        .hex("peak", m.peak_utilization.to_bits())
        .hex("avg", m.avg_utilization.to_bits())
        .hex("total_cycles", m.total_cycles);
    if let Some(p) = &m.power {
        let mut power = obj.obj("power");
        power
            .hex("peak", p.peak.to_bits())
            .hex("average", p.average.to_bits())
            .hex("energy", p.energy.to_bits());
        power.objs("per_source", &p.per_source, |source, (name, energy)| {
            source.str("name", name).hex("energy", energy.to_bits());
        });
    } else {
        obj.null("power");
    }
    obj.hex("result_cycles", m.result.total_cycles).objs(
        "slots",
        &m.result.slots,
        |entry, slot| {
            let o = &slot.outcome;
            entry
                .num("phase", slot.phase)
                .str("name", &o.name)
                .hex("patterns", o.patterns)
                .hex("stimulus", o.stimulus_bits)
                .hex("response", o.response_bits);
            match o.signature {
                Some(s) => entry.hex("signature", s),
                None => entry.null("signature"),
            };
            entry
                .hex("mismatches", o.mismatches)
                .hex("errors", o.errors)
                .nums("failing", &o.failing_addresses)
                .hex("start", o.start.cycles())
                .hex("end", o.end.cycles());
        },
    );
}

fn bits_field(v: &JsonValue, key: &str) -> Result<f64, String> {
    v.hex_field(key).map(f64::from_bits)
}

/// Parses the members [`write_metrics`] writes; host CPU times are zero.
///
/// # Errors
///
/// A message naming the missing or malformed field.
pub fn metrics_from_json(v: &JsonValue) -> Result<ScenarioMetrics, String> {
    let power = match v.field("power")? {
        JsonValue::Null => None,
        p => Some(PowerSummary {
            peak: bits_field(p, "peak")?,
            average: bits_field(p, "average")?,
            energy: bits_field(p, "energy")?,
            per_source: p
                .arr_field("per_source")?
                .iter()
                .map(|s| Ok((s.str_field("name")?.to_string(), bits_field(s, "energy")?)))
                .collect::<Result<_, String>>()?,
        }),
    };
    let slots = v
        .arr_field("slots")?
        .iter()
        .map(|slot| {
            let failing = slot
                .arr_field("failing")?
                .iter()
                .map(|a| {
                    a.as_u64()
                        .and_then(|a| u32::try_from(a).ok())
                        .ok_or_else(|| "failing address is not a u32".to_string())
                })
                .collect::<Result<_, String>>()?;
            let signature = match slot.field("signature")? {
                JsonValue::Null => None,
                _ => Some(slot.hex_field("signature")?),
            };
            Ok(TestSlot {
                phase: slot.int_field("phase")?,
                outcome: TestOutcome {
                    name: slot.str_field("name")?.to_string(),
                    patterns: slot.hex_field("patterns")?,
                    stimulus_bits: slot.hex_field("stimulus")?,
                    response_bits: slot.hex_field("response")?,
                    signature,
                    mismatches: slot.hex_field("mismatches")?,
                    errors: slot.hex_field("errors")?,
                    failing_addresses: failing,
                    start: Time::from_cycles(slot.hex_field("start")?),
                    end: Time::from_cycles(slot.hex_field("end")?),
                },
            })
        })
        .collect::<Result<_, String>>()?;
    let schedule = v.str_field("schedule")?.to_string();
    Ok(ScenarioMetrics {
        peak_utilization: bits_field(v, "peak")?,
        avg_utilization: bits_field(v, "avg")?,
        total_cycles: v.hex_field("total_cycles")?,
        cpu: std::time::Duration::ZERO,
        power,
        result: ScheduleResult {
            schedule: schedule.clone(),
            total_cycles: v.hex_field("result_cycles")?,
            slots,
            wall: std::time::Duration::ZERO,
        },
        schedule,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tve_obs::{check_json, parse_json, Layout};

    fn compact(write: impl FnOnce(&mut JsonObject)) -> String {
        let mut out = String::new();
        write(&mut JsonObject::new(&mut out, Layout::COMPACT));
        check_json(&out).unwrap_or_else(|e| panic!("bad JSON {out}: {e}"));
        assert!(!out.contains('\n'), "record JSON must be single-line");
        out
    }

    fn round_trip_cell(cell: &CellResult) {
        let json = compact(|o| write_cell_result(o, cell));
        let back = cell_result_from_json(&parse_json(&json).unwrap()).unwrap();
        assert_eq!(&back, cell);
    }

    #[test]
    fn cell_results_round_trip() {
        round_trip_cell(&CellResult {
            fault_id: "scan:proc:c1p30s1".into(),
            fault_class: "scan-cell".into(),
            schedule: "schedule 1 (seq, \"quoted\")".into(),
            outcome: CellOutcome::Detected {
                latency_cycles: 123_456,
                deviating: vec!["T1 proc bist".into(), "T2 proc scan".into()],
            },
        });
        round_trip_cell(&CellResult {
            fault_id: "mem:stuck-at:a3b7".into(),
            fault_class: "memory".into(),
            schedule: "s2".into(),
            outcome: CellOutcome::Escape,
        });
        round_trip_cell(&CellResult {
            fault_id: "ring:break@0".into(),
            fault_class: "ring".into(),
            schedule: "s2".into(),
            outcome: CellOutcome::InfraFailure {
                error: "worker panicked:\n\"boom, with comma\"".into(),
            },
        });
    }

    #[test]
    fn diagnosis_round_trips() {
        for (pattern, located) in [
            (
                Some(3),
                vec![FailingCell {
                    chain: 0,
                    position: 1,
                }],
            ),
            (None, vec![]),
        ] {
            let check = DiagnosisCheck {
                fault_id: "scan:dct:c0p1s1".into(),
                core: WrappedCore::Dct,
                injected: StuckCell {
                    chain: 0,
                    position: 1,
                    value: true,
                },
                located,
                first_failing_pattern: pattern,
                confirmed: pattern.is_some(),
            };
            let json = compact(|o| write_diagnosis(o, &check, true));
            let back = diagnosis_from_json(&parse_json(&json).unwrap()).unwrap();
            assert_eq!(back, check);
        }
    }

    #[test]
    fn parsers_name_the_defective_field() {
        let v =
            parse_json(r#"{"fault":"f","class":"c","schedule":"s","outcome":"detected"}"#).unwrap();
        let err = cell_result_from_json(&v).unwrap_err();
        assert!(err.contains("latency_cycles"), "{err}");
        let v = parse_json(r#"{"outcome":"no-such-tag"}"#).unwrap();
        assert!(cell_result_from_json(&v).is_err());
        assert!(core_from_label("gpu").is_err());
    }
}
