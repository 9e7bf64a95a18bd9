//! Reference values the correctness oracles compare against, recorded in
//! `reference.json` by `--write-reference` from the library's own entry
//! points (`Farm::run` over `run_scenario` jobs, `run_campaign`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use tve_campaign::{generate, run_campaign, CampaignConfig};
use tve_obs::{fnv1a, parse_json, JsonValue};
use tve_sched::{Farm, ScenarioJob};
use tve_soc::{paper_schedules, Workload};

use crate::gen::campaign_population;
use crate::host::nproc;

/// Seeds whose `campaign_small` matrix digest is recorded.
pub const CAMPAIGN_SEEDS: std::ops::Range<u64> = 0..32;

pub struct Reference {
    pub table1_digests: [u64; 4],
    pub table1_cycles: [u64; 4],
    pub table1_max_err_pct: f64,
    /// FNV-1a of the campaign matrix CSV, by benchmark seed.
    pub campaign_csv: BTreeMap<u64, u64>,
}

fn hex(v: &JsonValue) -> Option<u64> {
    u64::from_str_radix(v.as_str()?.trim_start_matches("0x"), 16).ok()
}

impl Reference {
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = parse_json(text).map_err(|e| format!("reference.json: {e}"))?;
        let t1 = doc.get("table1_paper").ok_or("missing table1_paper")?;
        let four = |key: &str, f: &dyn Fn(&JsonValue) -> Option<u64>| -> Result<[u64; 4], String> {
            let items = t1.get(key).and_then(JsonValue::as_arr).ok_or(key)?;
            let values: Vec<u64> = items.iter().filter_map(f).collect();
            values
                .try_into()
                .map_err(|_| format!("{key}: want 4 entries"))
        };
        let table1_digests = four("digests", &hex)?;
        let table1_cycles = four("total_cycles", &JsonValue::as_u64)?;
        let table1_max_err_pct = t1
            .get("max_err_pct_bits")
            .and_then(hex)
            .map(f64::from_bits)
            .ok_or("missing max_err_pct_bits")?;
        let mut campaign_csv = BTreeMap::new();
        if let Some(JsonValue::Obj(members)) = doc
            .get("campaign_small")
            .and_then(|c| c.get("csv_fnv1a_by_seed"))
        {
            for (seed, digest) in members {
                let seed: u64 = seed.parse().map_err(|_| format!("bad seed {seed}"))?;
                campaign_csv.insert(seed, hex(digest).ok_or("bad campaign digest")?);
            }
        }
        Ok(Reference {
            table1_digests,
            table1_cycles,
            table1_max_err_pct,
            campaign_csv,
        })
    }
}

/// The campaign of `campaign_small` for `seed`, as the library builds it.
pub fn campaign_config(seed: u64) -> CampaignConfig {
    let (soc, plan) = Workload::small().with_mem_words(128).build();
    let population = generate(&campaign_population(seed), &soc);
    CampaignConfig::new(soc, plan, paper_schedules().to_vec(), population)
}

/// Recomputes every reference value with the library's entry points and
/// returns `reference.json`.
pub fn record() -> String {
    let farm = Farm::with_workers(nproc());
    let (config, plan) = Workload::paper().build();
    let jobs: Vec<ScenarioJob> = paper_schedules()
        .into_iter()
        .map(|s| ScenarioJob::new(config.clone(), plan.clone(), s))
        .collect();
    let metrics: Vec<_> = farm
        .run(&jobs)
        .outcomes
        .iter()
        .map(|o| o.expect_metrics().clone())
        .collect();
    let max_err = crate::table1::max_err_pct(&metrics);
    let list = |f: &dyn Fn(&tve_soc::ScenarioMetrics) -> String| {
        metrics.iter().map(f).collect::<Vec<_>>().join(", ")
    };
    let mut out = String::from("{\n  \"table1_paper\": {\n");
    let _ = writeln!(
        out,
        "    \"digests\": [{}],",
        list(&|m| format!("\"{:#018x}\"", m.digest()))
    );
    let _ = writeln!(
        out,
        "    \"total_cycles\": [{}],",
        list(&|m| m.total_cycles.to_string())
    );
    let _ = writeln!(out, "    \"max_err_pct\": {max_err},");
    let _ = writeln!(
        out,
        "    \"max_err_pct_bits\": \"{:#018x}\"",
        max_err.to_bits()
    );
    out.push_str("  },\n  \"campaign_small\": {\n    \"csv_fnv1a_by_seed\": {\n");
    for seed in CAMPAIGN_SEEDS {
        let report = run_campaign(&campaign_config(seed), &farm);
        let _ = write!(
            out,
            "      \"{seed}\": \"{:#018x}\"{}",
            fnv1a(report.to_csv().as_bytes()),
            if seed + 1 < CAMPAIGN_SEEDS.end {
                ",\n"
            } else {
                "\n"
            }
        );
    }
    out.push_str("    }\n  }\n}\n");
    out
}
