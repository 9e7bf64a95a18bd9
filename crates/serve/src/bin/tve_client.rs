//! `tve-client` — CLI for the `tve-serve` daemon.
//!
//! ```text
//! tve-client [--socket PATH] <command> [flags]
//! ```
//!
//! Commands: `ping`, `stats`, `shutdown`, `schedule`, `campaign`,
//! `lint`, `bounds`, `status`, `result`, `invalidate`. Workload flags
//! (`--preset`, `--scale`, `--mem-words`, `--set key=value`) select
//! what the job runs against; see `DESIGN.md` for the full protocol.

use std::process::ExitCode;

use tve_campaign::{merge_shards, ShardReport, ShardSpec};
use tve_obs::JsonValue;
use tve_serve::{
    render_response, request_with_retry, submit_with_retry, Client, JobKind, JobSpec, RetryPolicy,
};
use tve_soc::{PlanOverrides, Workload, WorkloadPreset};

const USAGE: &str = "usage: tve-client [--socket PATH] <command> [flags]
commands:
  ping                       round-trip the daemon
  stats                      cache/serving statistics
  shutdown                   stop the daemon cleanly
  drain                      SIGTERM equivalent: finish running jobs,
                             persist the cache, refuse new submissions
  schedule  --index N        run one Table-I schedule fault-free
  campaign                   run a fault campaign
    [--schedules 1,3] [--faults N] [--seed S] [--no-diagnosis]
    [--csv FILE] [--json FILE]
    [--fan-out N]            submit N shard jobs, merge locally —
                             artifacts byte-identical to --fan-out 1
  lint                       static schedule (and program) lint
    [--schedules 1,2] [--program FILE] [--out FILE]
  bounds                     certified static bound envelopes — answered
    [--schedules 1,2] [--out FILE]   without simulation
  status    --id N           poll an async job
  result    --id N [--wait]  fetch an async job's result
  invalidate --set k=v ...   predict an edit's blast radius and evict
workload flags (schedule/campaign/lint/invalidate):
  --preset paper|small|bench   base workload (default small)
  --scale N                    divide pattern counts by N
  --mem-words N                memory size override
  --set key=value              plan override (repeatable)
job flags:
  --verify F                 re-execute cache hits with probability F
  --no-wait                  submit async; prints the job id
  --out FILE                 also write the result JSON to FILE
  --deadline MS              per-job deadline; overruns are cancelled at
                             the next kernel scheduling boundary and
                             reported typed
robustness flags:
  --retries N                retry transport failures and overloaded
                             rejections with seeded exponential backoff
  --retry-seed S             backoff jitter seed (deterministic)
";

struct Cli {
    socket: String,
    command: Option<String>,
    index: Option<usize>,
    schedules: Option<Vec<usize>>,
    faults: usize,
    seed: u64,
    diagnosis: bool,
    verify: Option<f64>,
    preset: WorkloadPreset,
    scale: u64,
    mem_words: Option<u32>,
    overrides: PlanOverrides,
    program: Option<String>,
    csv: Option<String>,
    json: Option<String>,
    out: Option<String>,
    id: Option<u64>,
    wait: bool,
    no_wait: bool,
    fan_out: Option<usize>,
    deadline_ms: Option<u64>,
    retries: u32,
    retry_seed: Option<u64>,
}

impl Cli {
    /// The retry policy when `--retries` was given; `None` keeps the
    /// legacy fail-fast behaviour.
    fn retry_policy(&self) -> Option<RetryPolicy> {
        if self.retries == 0 {
            return None;
        }
        let mut policy = RetryPolicy {
            retries: self.retries,
            ..RetryPolicy::default()
        };
        if let Some(seed) = self.retry_seed {
            policy.seed = seed;
        }
        Some(policy)
    }
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        socket: std::env::var("TVE_SERVE_SOCKET")
            .unwrap_or_else(|_| tve_serve::DEFAULT_SOCKET.into()),
        command: None,
        index: None,
        schedules: None,
        faults: 2,
        seed: 20090417,
        diagnosis: true,
        verify: None,
        preset: WorkloadPreset::Small,
        scale: 1,
        mem_words: None,
        overrides: PlanOverrides::default(),
        program: None,
        csv: None,
        json: None,
        out: None,
        id: None,
        wait: false,
        no_wait: false,
        fan_out: None,
        deadline_ms: None,
        retries: 0,
        retry_seed: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].clone();
        let mut value = |what: &str| -> Result<String, String> {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{what} wants a value"))
        };
        match flag.as_str() {
            "--socket" => cli.socket = value("--socket")?,
            "--index" => {
                cli.index = Some(
                    value("--index")?
                        .parse()
                        .map_err(|e| format!("--index: {e}"))?,
                )
            }
            "--schedules" => {
                let mut indices = Vec::new();
                for part in value("--schedules")?.split(',') {
                    indices.push(
                        part.trim()
                            .parse::<usize>()
                            .ok()
                            .filter(|i| (1..=4).contains(i))
                            .ok_or("--schedules wants comma-separated indices in 1..=4")?,
                    );
                }
                cli.schedules = Some(indices);
            }
            "--faults" => {
                cli.faults = value("--faults")?
                    .parse()
                    .map_err(|e| format!("--faults: {e}"))?
            }
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--no-diagnosis" => cli.diagnosis = false,
            "--verify" => {
                let fraction: f64 = value("--verify")?
                    .parse()
                    .map_err(|e| format!("--verify: {e}"))?;
                if !(0.0..=1.0).contains(&fraction) {
                    return Err("--verify wants a fraction in [0, 1]".into());
                }
                cli.verify = Some(fraction);
            }
            "--preset" => {
                let name = value("--preset")?;
                cli.preset = WorkloadPreset::parse(&name)
                    .ok_or_else(|| format!("unknown preset {name:?}"))?;
            }
            "--scale" => {
                cli.scale = value("--scale")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?
            }
            "--mem-words" => {
                cli.mem_words = Some(
                    value("--mem-words")?
                        .parse()
                        .map_err(|e| format!("--mem-words: {e}"))?,
                )
            }
            "--set" => {
                let pair = value("--set")?;
                let (key, raw) = pair.split_once('=').ok_or("--set wants key=value")?;
                let parsed: u64 = raw.parse().map_err(|e| format!("--set {key}: {e}"))?;
                if !cli.overrides.set(key, parsed) {
                    return Err(format!(
                        "unknown plan key {key:?} (known: {})",
                        tve_soc::PLAN_OVERRIDE_KEYS.join(", ")
                    ));
                }
            }
            "--program" => cli.program = Some(value("--program")?),
            "--csv" => cli.csv = Some(value("--csv")?),
            "--json" => cli.json = Some(value("--json")?),
            "--out" => cli.out = Some(value("--out")?),
            "--id" => cli.id = Some(value("--id")?.parse().map_err(|e| format!("--id: {e}"))?),
            "--wait" => cli.wait = true,
            "--no-wait" => cli.no_wait = true,
            "--fan-out" => {
                let n: usize = value("--fan-out")?
                    .parse()
                    .map_err(|e| format!("--fan-out: {e}"))?;
                if n == 0 {
                    return Err("--fan-out wants at least one shard".into());
                }
                cli.fan_out = Some(n);
            }
            "--deadline" => {
                let ms: u64 = value("--deadline")?
                    .parse()
                    .map_err(|e| format!("--deadline: {e}"))?;
                if ms == 0 {
                    return Err("--deadline wants a positive millisecond count".into());
                }
                cli.deadline_ms = Some(ms);
            }
            "--retries" => {
                cli.retries = value("--retries")?
                    .parse()
                    .map_err(|e| format!("--retries: {e}"))?
            }
            "--retry-seed" => {
                cli.retry_seed = Some(
                    value("--retry-seed")?
                        .parse()
                        .map_err(|e| format!("--retry-seed: {e}"))?,
                )
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other:?}\n{USAGE}"))
            }
            command => {
                if cli.command.is_some() {
                    return Err(format!("unexpected argument {command:?}"));
                }
                cli.command = Some(command.to_string());
            }
        }
        i += 1;
    }
    Ok(cli)
}

fn workload(cli: &Cli) -> Workload {
    let mut w = Workload::new(cli.preset).with_scale(cli.scale);
    if let Some(words) = cli.mem_words {
        w = w.with_mem_words(words);
    }
    w.with_overrides(cli.overrides)
}

fn write_out(path: &Option<String>, text: &str, what: &str) -> Result<(), String> {
    if let Some(path) = path {
        std::fs::write(path, text).map_err(|e| format!("writing {what} to {path}: {e}"))?;
        eprintln!("tve-client: wrote {what} to {path}");
    }
    Ok(())
}

fn field_str<'v>(result: &'v JsonValue, name: &str) -> Result<&'v str, String> {
    result
        .get(name)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("result had no {name:?} field"))
}

fn submit(client: &mut Client, cli: &Cli, kind: JobKind) -> Result<Option<JsonValue>, String> {
    let job = JobSpec {
        workload: workload(cli),
        kind,
        verify: cli.verify,
        deadline_ms: cli.deadline_ms,
    };
    if cli.no_wait {
        let id = client.submit_async(&job)?;
        println!("{{\"id\":{id},\"state\":\"running\"}}");
        return Ok(None);
    }
    let result = match cli.retry_policy() {
        Some(policy) => submit_with_retry(&cli.socket, &job, &policy).map_err(|e| e.to_string())?,
        None => client.submit(&job)?,
    };
    write_out(&cli.out, &render_response(&result), "result")?;
    Ok(Some(result))
}

/// Submits one campaign job per shard, waits for all of them, and
/// merges the shard reports locally. The daemon partitions the
/// (fault × schedule) matrix by flat cell index, so the merged CSV and
/// JSON artifacts are byte-identical to a single unsharded job — the
/// merge validates fingerprints and exact tiling, and refuses anything
/// less than a complete, consistent shard set.
fn fan_out_campaign(
    client: &mut Client,
    cli: &Cli,
    kind: JobKind,
    count: usize,
) -> Result<(), String> {
    if cli.no_wait {
        return Err("--fan-out waits for its shards; drop --no-wait".into());
    }
    let base = JobSpec {
        workload: workload(cli),
        kind,
        verify: cli.verify,
        deadline_ms: cli.deadline_ms,
    };
    // The client rebuilds the campaign configuration exactly as the
    // daemon does (same JobSpec::campaign_config), so the local merge
    // fingerprint agrees with the one each shard report carries.
    let config = base
        .campaign_config()
        .expect("fan-out only runs campaign jobs");

    let mut ids = Vec::with_capacity(count);
    for index in 0..count {
        let JobKind::Campaign { shard, .. } = &base.kind else {
            unreachable!("fan-out only runs campaign jobs");
        };
        debug_assert!(shard.is_none());
        let mut job = base.clone();
        if let JobKind::Campaign { shard, .. } = &mut job.kind {
            *shard = Some(ShardSpec::new(index, count).expect("index < count"));
        }
        ids.push(client.submit_async(&job)?);
    }
    eprintln!("tve-client: submitted {count} shard jobs");

    let mut reports = Vec::with_capacity(count);
    for id in ids {
        // Result polling is idempotent, so a dropped or corrupted
        // response frame can be retried on a fresh connection without
        // resubmitting the shard.
        let response = match cli.retry_policy() {
            Some(policy) => request_with_retry(
                &cli.socket,
                &format!("{{\"cmd\":\"result\",\"id\":{id},\"wait\":true}}"),
                &policy,
            )
            .map_err(|e| e.to_string())?,
            None => client.result(id, true)?,
        };
        let result = response
            .get("result")
            .ok_or_else(|| format!("job {id} finished without a result object"))?;
        let shard_json = field_str(result, "shard_json")?;
        reports.push(ShardReport::from_json(shard_json)?);
    }
    let merged = merge_shards(&config, &reports)?;

    let csv = merged.to_csv();
    let json = merged.to_json();
    write_out(&cli.csv, &csv, "campaign CSV")?;
    write_out(&cli.json, &json, "campaign JSON")?;
    let mut summary = format!(
        "{{\"kind\":\"campaign\",\"fan_out\":{count},\"cells\":{},\"csv_digest\":\"{:016x}\",\"coverage\":[",
        merged.cells.len(),
        tve_obs::fnv1a(csv.as_bytes()),
    );
    for (i, name) in ["proc", "cc", "dct"].iter().enumerate() {
        if i > 0 {
            summary.push(',');
        }
        summary.push_str(&format!(
            "{{\"core\":\"{name}\",\"coverage\":{:.4}}}",
            merged.core_coverage(name)
        ));
    }
    summary.push_str("]}");
    let parsed = tve_obs::parse_json(&summary).expect("summary JSON is well-formed");
    write_out(&cli.out, &render_response(&parsed), "result")?;
    println!("{}", render_response(&parsed));
    Ok(())
}

fn run() -> Result<(), String> {
    let cli = parse_cli()?;
    let command = cli.command.clone().ok_or(USAGE.to_string())?;
    let mut client = Client::connect(&cli.socket)
        .map_err(|e| format!("cannot connect to {}: {e}", cli.socket))?;
    match command.as_str() {
        "ping" => {
            let response = match cli.retry_policy() {
                Some(policy) => request_with_retry(&cli.socket, "{\"cmd\":\"ping\"}", &policy)
                    .map_err(|e| e.to_string())?,
                None => client.ping()?,
            };
            println!("{}", render_response(&response));
        }
        "stats" => println!("{}", render_response(&client.stats()?)),
        "shutdown" => {
            client.shutdown()?;
            println!("{{\"ok\":true}}");
        }
        "drain" => {
            client.drain()?;
            println!("{{\"ok\":true,\"draining\":true}}");
        }
        "schedule" => {
            let index = cli.index.ok_or("schedule wants --index N (1..=4)")?;
            if let Some(result) = submit(&mut client, &cli, JobKind::Schedule { index })? {
                println!("{}", render_response(&result));
            }
        }
        "campaign" => {
            let kind = JobKind::Campaign {
                schedules: cli.schedules.clone().unwrap_or_else(|| (1..=4).collect()),
                seed: cli.seed,
                faults: cli.faults,
                diagnosis: cli.diagnosis,
                shard: None,
            };
            if let Some(count) = cli.fan_out {
                return fan_out_campaign(&mut client, &cli, kind, count);
            }
            if let Some(result) = submit(&mut client, &cli, kind)? {
                write_out(&cli.csv, field_str(&result, "csv")?, "campaign CSV")?;
                write_out(&cli.json, field_str(&result, "json")?, "campaign JSON")?;
                // The matrix artifacts go to files; print the summary
                // without them.
                let JsonValue::Obj(fields) = &result else {
                    return Err("campaign result was not an object".into());
                };
                let summary = JsonValue::Obj(
                    fields
                        .iter()
                        .filter(|(name, _)| name != "csv" && name != "json")
                        .cloned()
                        .collect(),
                );
                println!("{}", render_response(&summary));
            }
        }
        "lint" => {
            let program = match &cli.program {
                None => None,
                Some(path) => Some((
                    path.clone(),
                    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?,
                )),
            };
            let kind = JobKind::Lint {
                schedules: cli.schedules.clone().unwrap_or_else(|| (1..=4).collect()),
                program,
            };
            if let Some(result) = submit(&mut client, &cli, kind)? {
                println!("{}", render_response(&result));
            }
        }
        "bounds" => {
            let kind = JobKind::Bounds {
                schedules: cli.schedules.clone().unwrap_or_else(|| (1..=4).collect()),
            };
            if let Some(result) = submit(&mut client, &cli, kind)? {
                println!("{}", render_response(&result));
            }
        }
        "status" => {
            let id = cli.id.ok_or("status wants --id N")?;
            println!("{{\"id\":{id},\"state\":\"{}\"}}", client.status(id)?);
        }
        "result" => {
            let id = cli.id.ok_or("result wants --id N")?;
            let response = client.result(id, cli.wait)?;
            write_out(&cli.out, &render_response(&response), "result")?;
            println!("{}", render_response(&response));
        }
        "invalidate" => {
            let response = client.invalidate(&workload(&cli), &cli.overrides)?;
            println!("{}", render_response(&response));
        }
        other => return Err(format!("unknown command {other:?}\n{USAGE}")),
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("tve-client: {message}");
            ExitCode::FAILURE
        }
    }
}
