//! Disk persistence for the result cache: the warm state survives a
//! daemon restart.
//!
//! The file is a `tve-obs` [journal](tve_obs::Journal) — one
//! CRC-guarded single-line JSON record per line — so a truncated or
//! bit-flipped snapshot degrades to its valid prefix and *reports* the
//! damage instead of resurrecting corrupt results. Records are encoded
//! by `tve_campaign`'s wire writers, the same encoding shard reports
//! and resume journals use: metrics keep every float as `f64::to_bits`
//! hex, so a reloaded [`ScenarioMetrics`](tve_soc::ScenarioMetrics)
//! digest is bit-for-bit the digest that was cached, and host CPU
//! timings (which the digest deliberately ignores) are zero on reload.
//! `--verify-cache` sampling after a restart is therefore a real proof:
//! a re-executed hit is compared against the *persisted* result.

use std::io;
use std::path::Path;

use tve_campaign::{
    diagnosis_from_json, metrics_from_json, outcome_from_json, write_diagnosis, write_metrics,
    write_outcome,
};
use tve_obs::{json_line, read_journal, IoPolicy, Journal, JournalDefect, JsonValue};

use crate::cache::{CachedValue, ResultCache};

/// What a [`load_cache`] call found on disk.
#[derive(Debug, Default)]
pub struct CacheLoad {
    /// Entries restored into the cache.
    pub loaded: usize,
    /// The journal defect, if the file's tail was damaged. The valid
    /// prefix is still loaded; the defect says exactly what was lost.
    pub defect: Option<JournalDefect>,
}

/// The snapshot format version: 2 encodes every record through
/// `tve_campaign`'s wire writers. A snapshot of any other version is
/// refused, never half-read.
const SNAPSHOT_VERSION: u64 = 2;

/// One snapshot record: the entry's key, test mask and value. The
/// daemon also compares a verified hit with its recomputation by
/// these records.
pub(crate) fn entry_payload(key: u64, mask: u8, value: &CachedValue) -> String {
    json_line(|o| {
        o.hex("key", key).num("mask", mask);
        match value {
            CachedValue::Metrics(m) => {
                write_metrics(&mut o.str("type", "metrics").obj("metrics"), m)
            }
            CachedValue::Cell(outcome) => write_outcome(o.str("type", "cell"), outcome),
            CachedValue::Diagnosis(check) => {
                write_diagnosis(&mut o.str("type", "diag").obj("check"), check, true)
            }
            CachedValue::Lint {
                report,
                errors,
                warnings,
            } => {
                o.str("type", "lint")
                    .num("errors", errors)
                    .num("warnings", warnings)
                    .str("report", report);
            }
            CachedValue::Bounds { report } => {
                o.str("type", "bounds").str("report", report);
            }
        }
    })
}

fn entry_from_json(v: &JsonValue) -> Result<(u64, u8, CachedValue), String> {
    let value = match v.str_field("type")? {
        "metrics" => CachedValue::Metrics(Box::new(metrics_from_json(v.field("metrics")?)?)),
        "cell" => CachedValue::Cell(outcome_from_json(v)?),
        "diag" => CachedValue::Diagnosis(Box::new(diagnosis_from_json(v.field("check")?)?)),
        "lint" => CachedValue::Lint {
            report: v.str_field("report")?.to_string(),
            errors: v.int_field("errors")?,
            warnings: v.int_field("warnings")?,
        },
        "bounds" => CachedValue::Bounds {
            report: v.str_field("report")?.to_string(),
        },
        other => return Err(format!("unknown cache entry type {other:?}")),
    };
    Ok((v.hex_field("key")?, v.int_field("mask")?, value))
}

/// Writes every cache entry to `path` (key order, so equal caches write
/// byte-identical snapshots) and returns how many were written.
///
/// # Errors
///
/// Filesystem errors only; every entry is serializable.
pub fn save_cache(cache: &ResultCache, path: &Path) -> io::Result<usize> {
    save_cache_with(cache, path, &IoPolicy::new())
}

/// [`save_cache`] through an injectable [`IoPolicy`], written atomically:
/// the snapshot lands in `<path>.tmp` first and is renamed over `path`
/// only after every record (and the flush) succeeded. A write fault —
/// injected or real ENOSPC — therefore never tears an existing snapshot:
/// the torn temp file is removed and the previous snapshot survives.
///
/// # Errors
///
/// Filesystem errors (including injected ones); every entry is
/// serializable.
pub fn save_cache_with(cache: &ResultCache, path: &Path, policy: &IoPolicy) -> io::Result<usize> {
    let entries = cache.export();
    let tmp = path.with_extension("tmp");
    let write_all = || -> io::Result<()> {
        let mut journal = Journal::create_with(&tmp, policy)?;
        journal.append(&json_line(|o| {
            o.str("kind", "tve-serve-cache")
                .num("version", SNAPSHOT_VERSION);
        }))?;
        for (key, mask, value) in &entries {
            journal.append(&entry_payload(*key, *mask, value))?;
        }
        Ok(())
    };
    if let Err(e) = write_all() {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    std::fs::rename(&tmp, path)?;
    Ok(entries.len())
}

/// Restores a snapshot written by [`save_cache`] into `cache`. A
/// missing file loads zero entries (first boot); a damaged tail loads
/// the valid prefix and reports the defect in [`CacheLoad::defect`] —
/// never silently.
///
/// # Errors
///
/// Filesystem errors, a file that is not a `tve-serve` cache snapshot,
/// or an undecodable (version-skewed) entry.
pub fn load_cache(cache: &ResultCache, path: &Path) -> Result<CacheLoad, String> {
    if !path.exists() {
        return Ok(CacheLoad::default());
    }
    let contents = read_journal(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut records = contents.records.iter();
    let header = records.next().ok_or("cache file has no header record")?;
    if header.get("kind").and_then(JsonValue::as_str) != Some("tve-serve-cache")
        || header.get("version").and_then(JsonValue::as_u64) != Some(SNAPSHOT_VERSION)
    {
        return Err(format!(
            "{} is not a tve-serve cache snapshot of version {SNAPSHOT_VERSION}",
            path.display()
        ));
    }
    let mut loaded = 0;
    for record in records {
        let (key, mask, value) = entry_from_json(record)?;
        cache.insert(key, value, mask);
        loaded += 1;
    }
    Ok(CacheLoad {
        loaded,
        defect: contents.defect,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tve_campaign::CellOutcome;
    use tve_core::{ScheduleResult, TestOutcome, TestSlot};
    use tve_sim::Time;
    use tve_soc::{PowerSummary, ScenarioMetrics};

    fn awkward_metrics() -> ScenarioMetrics {
        ScenarioMetrics {
            schedule: "s1 \"quoted\"".into(),
            peak_utilization: 0.1 + 0.2, // not exactly representable as text
            avg_utilization: f64::MIN_POSITIVE,
            total_cycles: (1 << 60) + 3, // above 2^53: must survive as hex
            cpu: std::time::Duration::from_millis(5),
            power: Some(PowerSummary {
                peak: 1.0 / 3.0,
                average: 2.0f64.sqrt(),
                energy: 1e308,
                per_source: vec![("wrapper".into(), 0.25), ("tam".into(), -0.0)],
            }),
            result: ScheduleResult {
                schedule: "s1 \"quoted\"".into(),
                total_cycles: 42,
                slots: vec![TestSlot {
                    phase: 2,
                    outcome: TestOutcome {
                        name: "T1 proc bist".into(),
                        patterns: 96,
                        stimulus_bits: u64::MAX,
                        response_bits: 7,
                        signature: Some(u64::MAX - 1),
                        mismatches: 0,
                        errors: 0,
                        failing_addresses: vec![3, 4_000_000_000],
                        start: Time::from_cycles(10),
                        end: Time::from_cycles((1 << 55) + 1),
                    },
                }],
                wall: std::time::Duration::from_millis(9),
            },
        }
    }

    #[test]
    fn metrics_round_trip_preserves_the_digest() {
        let metrics = awkward_metrics();
        let text = json_line(|o| write_metrics(o, &metrics));
        tve_obs::check_json(&text).unwrap_or_else(|e| panic!("bad JSON {text}: {e}"));
        let back = metrics_from_json(&tve_obs::parse_json(&text).unwrap()).unwrap();
        assert_eq!(
            back.digest(),
            metrics.digest(),
            "digest survives bit-for-bit"
        );
        assert_eq!(back.cpu, std::time::Duration::ZERO, "host timing is zeroed");
    }

    #[test]
    fn cache_snapshot_round_trips() {
        let dir = std::env::temp_dir().join(format!("tve-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.journal");

        let cache = ResultCache::new();
        cache.insert(1, CachedValue::Metrics(Box::new(awkward_metrics())), 0b11);
        cache.insert(
            2,
            CachedValue::Cell(CellOutcome::Detected {
                latency_cycles: 1234,
                deviating: vec!["T1".into()],
            }),
            0b100,
        );
        cache.insert(3, CachedValue::Cell(CellOutcome::Escape), 0);
        cache.insert(
            4,
            CachedValue::Cell(CellOutcome::InfraFailure {
                error: "panic:\nboom".into(),
            }),
            0,
        );
        cache.insert(
            5,
            CachedValue::Lint {
                report: "{\"x\": 1}".into(),
                errors: 2,
                warnings: 3,
            },
            0x7f,
        );
        cache.insert(
            7,
            CachedValue::Bounds {
                report: "{\n  \"format_version\": 1,\n  \"reports\": []\n}\n".into(),
            },
            0x7f,
        );
        cache.insert(
            6,
            CachedValue::Diagnosis(Box::new(tve_campaign::DiagnosisCheck {
                fault_id: "scan:dct:c0p1s1".into(),
                core: tve_soc::WrappedCore::Dct,
                injected: tve_core::StuckCell {
                    chain: 0,
                    position: 1,
                    value: true,
                },
                located: vec![tve_core::FailingCell {
                    chain: 0,
                    position: 1,
                }],
                first_failing_pattern: Some(3),
                confirmed: true,
            })),
            0,
        );
        // The largest latency a JSON number carries exactly.
        cache.insert(
            8,
            CachedValue::Cell(CellOutcome::Detected {
                latency_cycles: 1 << 53,
                deviating: vec![],
            }),
            0b1,
        );
        let saved = save_cache(&cache, &path).unwrap();
        assert_eq!(saved, 8);

        let restored = ResultCache::new();
        let load = load_cache(&restored, &path).unwrap();
        assert_eq!(load.loaded, 8);
        assert!(load.defect.is_none());
        for (a, b) in cache.export().iter().zip(restored.export()) {
            assert_eq!(a.0, b.0, "keys match");
            assert_eq!(a.1, b.1, "masks match");
        }
        match restored.peek(1) {
            Some(CachedValue::Metrics(m)) => {
                assert_eq!(m.digest(), awkward_metrics().digest());
                // Values above 2^53 survive exactly, not only through
                // the digest.
                let o = &m.result.slots[0].outcome;
                assert_eq!(m.total_cycles, (1 << 60) + 3);
                assert_eq!(o.stimulus_bits, u64::MAX);
                assert_eq!(o.signature, Some(u64::MAX - 1));
                assert_eq!(o.end, Time::from_cycles((1 << 55) + 1));
            }
            other => panic!("expected metrics, got {other:?}"),
        }
        match restored.peek(8) {
            Some(CachedValue::Cell(CellOutcome::Detected { latency_cycles, .. })) => {
                assert_eq!(latency_cycles, 1 << 53);
            }
            other => panic!("expected a detected cell, got {other:?}"),
        }
        match restored.peek(7) {
            Some(CachedValue::Bounds { report }) => {
                assert!(report.starts_with("{\n  \"format_version\": 1"));
            }
            other => panic!("expected bounds, got {other:?}"),
        }
        // Saving the restored cache reproduces the snapshot byte for
        // byte (host timings were already zeroed by the first save).
        let path2 = dir.join("cache2.journal");
        save_cache(&restored, &path2).unwrap();
        let (a, b) = (
            std::fs::read(&path).unwrap(),
            std::fs::read(&path2).unwrap(),
        );
        // The first snapshot serialized live metrics (nonzero cpu) but
        // cpu is not persisted, so both snapshots must agree.
        assert_eq!(a, b, "snapshots are canonical");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_write_fault_never_tears_an_existing_snapshot() {
        let dir = std::env::temp_dir().join(format!("tve-persist-fault-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.journal");

        let cache = ResultCache::new();
        cache.insert(1, CachedValue::Cell(CellOutcome::Escape), 0);
        save_cache(&cache, &path).unwrap();
        let before = std::fs::read(&path).unwrap();

        // Grow the cache, then tear the re-save mid-record: disk fills
        // after 9 bytes of the second record.
        cache.insert(2, CachedValue::Cell(CellOutcome::Escape), 0);
        let policy = IoPolicy::new();
        policy.fail_nth_write(2, tve_obs::WriteFault::Short { keep: 9 });
        let err = save_cache_with(&cache, &path, &policy).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);

        // The previous snapshot is intact and the temp file is gone.
        assert_eq!(std::fs::read(&path).unwrap(), before);
        assert!(!path.with_extension("tmp").exists());
        let load = load_cache(&ResultCache::new(), &path).unwrap();
        assert_eq!(load.loaded, 1);
        assert!(load.defect.is_none());

        // A clean retry (disk recovered) succeeds atomically.
        let saved = save_cache_with(&cache, &path, &IoPolicy::new()).unwrap();
        assert_eq!(saved, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_tail_is_reported_not_absorbed() {
        let dir = std::env::temp_dir().join(format!("tve-persist-dmg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.journal");
        let cache = ResultCache::new();
        cache.insert(1, CachedValue::Cell(CellOutcome::Escape), 0);
        cache.insert(2, CachedValue::Cell(CellOutcome::Escape), 0);
        save_cache(&cache, &path).unwrap();

        // Flip one byte in the last line's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 5] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let restored = ResultCache::new();
        let load = load_cache(&restored, &path).unwrap();
        assert_eq!(load.loaded, 1, "valid prefix only");
        let defect = load.defect.expect("the damage is reported");
        assert_eq!(defect.line, 3);

        // A non-cache journal is rejected outright.
        let alien = dir.join("alien.journal");
        let mut j = Journal::create(&alien).unwrap();
        j.append("{\"kind\":\"something-else\"}").unwrap();
        drop(j);
        assert!(load_cache(&ResultCache::new(), &alien)
            .unwrap_err()
            .contains("not a tve-serve cache"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_1_snapshot_is_refused_and_fails_the_daemon_start() {
        let dir = std::env::temp_dir().join(format!("tve-persist-v1-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.journal");
        let mut j = Journal::create(&path).unwrap();
        j.append("{\"kind\":\"tve-serve-cache\",\"version\":1}")
            .unwrap();
        j.append(
            "{\"key\":\"0000000000000001\",\"mask\":0,\"type\":\"cell\",\"outcome\":{\"tag\":\"escape\"}}",
        )
        .unwrap();
        drop(j);

        let err = load_cache(&ResultCache::new(), &path).unwrap_err();
        assert!(err.contains("not a tve-serve cache snapshot"), "{err}");

        let options = crate::ServeOptions {
            socket: dir.join("d.sock"),
            workers: Some(1),
            quiet: true,
            cache_file: Some(path),
            ..crate::ServeOptions::default()
        };
        let err = crate::spawn(&options)
            .err()
            .expect("a v1 snapshot fails the start");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("not a tve-serve cache snapshot"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
