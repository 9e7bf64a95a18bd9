//! `serve_mixed`: an in-process `tve-serve` daemon with `nproc` farm
//! workers, driven as a closed loop by two client connections (every
//! `tve-client` call waits for its reply). Each client replays a seeded
//! sequence on its own key set: cache-hit reads of schedule and bounds
//! jobs, fresh-seed schedule misses on `paper` at 2622 memory words, and
//! per-epoch writes (an invalidation edit followed by a resubmit).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use tve_obs::JsonValue;
use tve_serve::{spawn, Client, DaemonHandle, JobKind, JobSpec, ServeOptions};
use tve_soc::{paper_schedules, run_scenario, PlanOverrides, Workload};

use crate::gen::{
    client_schedules, serve_epochs, serve_evictions, Epoch, Request, SplitMix, SERVE_CLIENTS,
};
use crate::host::{nproc, Host};
use crate::report::Report;
use crate::trace::Tracer;
use crate::{measure, Opts};

/// Memory words of the served `paper` workload: scan tests dominate.
const MEM_WORDS: u32 = 2622;
/// Misses per client re-run locally after measuring ("served ≡ local").
const LOCAL_SAMPLES: usize = 2;
/// Pings timed for the round-trip floor.
const PINGS: usize = 200;

fn workload(client: usize, plan_seed: u64, edit: Option<u64>) -> Workload {
    Workload::paper()
        .with_mem_words(MEM_WORDS)
        .with_overrides(PlanOverrides {
            seed: Some(plan_seed),
            ..edit_overrides(client, edit)
        })
}

/// The client's invalidation edit: test 2's pattern count for client 0,
/// test 3's for client 1.
fn edit_overrides(client: usize, edit: Option<u64>) -> PlanOverrides {
    let mut o = PlanOverrides::default();
    if client == 0 {
        o.det_proc_patterns = edit;
    } else {
        o.comp_proc_patterns = edit;
    }
    o
}

fn job(client: usize, request: &Request) -> Option<JobSpec> {
    let (workload, kind) = match *request {
        Request::Schedule {
            index,
            plan_seed,
            edit,
            ..
        } => (
            workload(client, plan_seed, edit),
            JobKind::Schedule { index },
        ),
        Request::Bounds { plan_seed, .. } => (
            workload(client, plan_seed, None),
            JobKind::Bounds {
                schedules: client_schedules(client).to_vec(),
            },
        ),
        Request::Invalidate { .. } => return None,
    };
    Some(JobSpec {
        workload,
        kind,
        verify: None,
        deadline_ms: None,
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hit,
    Miss,
    BoundsMiss,
    Invalidate,
}

struct Sample {
    kind: Kind,
    rtt: Duration,
    /// The daemon's own job time (`wall_us`), 0 for invalidations.
    server_us: f64,
}

struct ClientPass {
    samples: Vec<Sample>,
    wrong: Vec<String>,
    /// (request, digest) of schedule misses, for the local re-run.
    misses: Vec<(Request, String)>,
}

fn key_of(request: &Request) -> (bool, u64, Option<u64>) {
    match *request {
        Request::Schedule {
            plan_seed, edit, ..
        } => (true, plan_seed, edit),
        Request::Bounds { plan_seed, .. } => (false, plan_seed, None),
        Request::Invalidate { .. } => unreachable!("invalidations have no key"),
    }
}

/// The answer a hit must repeat: a schedule's digest or a bounds report.
fn answer(result: &JsonValue) -> Option<String> {
    result
        .get("digest")
        .or_else(|| result.get("report"))
        .and_then(JsonValue::as_str)
        .map(str::to_string)
}

fn run_client(
    client: usize,
    conn: &mut Client,
    epochs: &[Epoch],
    barrier: &Barrier,
    tracer: &Tracer,
    parent: u64,
    first_trace: u64,
) -> ClientPass {
    let span = tracer.span("serve.client", parent, 0);
    let mut out = ClientPass {
        samples: Vec::new(),
        wrong: Vec::new(),
        misses: Vec::new(),
    };
    let mut answers: HashMap<(bool, u64, Option<u64>), String> = HashMap::new();
    let mut trace = first_trace;
    for epoch in epochs {
        for (phase, requests) in [&epoch.reads, &epoch.writes].into_iter().enumerate() {
            if phase == 1 {
                let _wait = tracer.span("serve.barrier", span.id(), 0);
                barrier.wait();
            }
            for request in requests {
                trace += 1;
                let _req = tracer.span("serve.request", span.id(), trace);
                let started = Instant::now();
                let reply = match job(client, request) {
                    Some(job) => conn.submit(&job),
                    None => {
                        let Request::Invalidate { edit } = request else {
                            unreachable!("only invalidations have no job")
                        };
                        conn.invalidate(
                            &workload(client, 0, None),
                            &edit_overrides(client, Some(*edit)),
                        )
                    }
                };
                let rtt = started.elapsed();
                let kind = match request {
                    Request::Invalidate { .. } => Kind::Invalidate,
                    Request::Bounds { hit: false, .. } => Kind::BoundsMiss,
                    r if r.expects_hit() => Kind::Hit,
                    _ => Kind::Miss,
                };
                let result = match reply {
                    Ok(result) => result,
                    Err(e) => {
                        out.wrong.push(format!("{request:?}: {e}"));
                        continue;
                    }
                };
                let server_us = result
                    .get("wall_us")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(0.0);
                out.samples.push(Sample {
                    kind,
                    rtt,
                    server_us,
                });
                if kind == Kind::Invalidate {
                    continue;
                }
                let cached = result.get("cached").and_then(JsonValue::as_bool);
                let got = answer(&result);
                let key = key_of(request);
                let ok = match (request.expects_hit(), &got) {
                    (true, Some(a)) => cached == Some(true) && answers.get(&key) == Some(a),
                    (false, Some(a)) => {
                        answers.insert(key, a.clone());
                        if matches!(request, Request::Schedule { .. }) {
                            out.misses.push((request.clone(), a.clone()));
                        }
                        cached == Some(false)
                            && result.get("clean").and_then(JsonValue::as_bool) != Some(false)
                    }
                    (_, None) => false,
                };
                if !ok {
                    out.wrong
                        .push(format!("{request:?}: cached={cached:?} answer={got:?}"));
                }
            }
        }
        let _wait = tracer.span("serve.barrier", span.id(), 0);
        barrier.wait();
    }
    out
}

struct Pass {
    wall: Duration,
    clients: Vec<ClientPass>,
    /// Requests sent, and the hits and misses the model expects of them.
    requests: u64,
    want_hits: u64,
    want_misses: u64,
    /// Daemon `stats` deltas: hits, misses, evicted, shed.
    stats: [u64; 4],
}

fn stats(conn: &mut Client) -> [u64; 4] {
    let s = conn.stats().unwrap_or(JsonValue::Null);
    ["hits", "misses", "evicted", "shed"]
        .map(|k| s.get(k).and_then(JsonValue::as_u64).unwrap_or(u64::MAX))
}

struct Daemon {
    handle: Option<DaemonHandle>,
    control: Client,
    socket: PathBuf,
}

impl Daemon {
    fn start(socket: &Path, workers: usize) -> std::io::Result<Self> {
        let handle = spawn(&ServeOptions {
            socket: socket.to_path_buf(),
            workers: Some(workers),
            quiet: true,
            ..ServeOptions::default()
        })?;
        let mut control = Client::connect(socket)?;
        control.ping().map_err(std::io::Error::other)?;
        Ok(Daemon {
            handle: Some(handle),
            control,
            socket: socket.to_path_buf(),
        })
    }

    fn stop(mut self) -> std::io::Result<()> {
        self.control.shutdown().map_err(std::io::Error::other)?;
        let joined = self.handle.take().map_or(Ok(()), DaemonHandle::join);
        let _ = std::fs::remove_file(&self.socket);
        joined
    }
}

pub fn run(opts: &Opts, report: &mut Report, tracer: &Tracer) -> Host {
    let workers = nproc();
    let dir = crate::out_dir();
    let socket = dir.join(format!("serve-{}.sock", std::process::id()));
    // Set-up: daemon spawn plus the first ping, repeated; every daemon
    // but the last is stopped again outside the timed region.
    let mut setup = Vec::with_capacity(crate::SETUP_REPS);
    let mut daemon = None;
    for _ in 0..crate::SETUP_REPS {
        if let Some(d) = daemon.take() {
            Daemon::stop(d).expect("daemon shuts down cleanly");
        }
        let started = Instant::now();
        daemon = Some(Daemon::start(&socket, workers).expect("daemon starts"));
        setup.push(started.elapsed().as_secs_f64());
    }
    let mut daemon = daemon.expect("at least one set-up repetition");
    report.median("setup_s", &setup, "s");
    let mut conns: Vec<Client> = (0..SERVE_CLIENTS)
        .map(|_| Client::connect(&socket).expect("client connects"))
        .collect();
    let barrier = Barrier::new(SERVE_CLIENTS);

    let mut carried = 0;
    let mut expected_evicted = 0;
    let (plain, traced) = measure(
        opts,
        tracer,
        report,
        |t, index| {
            let epochs: Vec<Vec<Epoch>> = (0..SERVE_CLIENTS)
                .map(|c| serve_epochs(opts.seed, c, index))
                .collect();
            let (evicted, next) = serve_evictions(&epochs, carried);
            carried = next;
            expected_evicted += evicted;
            let before = stats(&mut daemon.control);
            let started = Instant::now();
            let root = t.span("bench.pass", 0, 0);
            let clients = std::thread::scope(|scope| {
                let handles: Vec<_> = conns
                    .iter_mut()
                    .zip(&epochs)
                    .enumerate()
                    .map(|(c, (conn, ep))| {
                        let (barrier, root) = (&barrier, root.id());
                        let first = ((index as u64) << 32) | ((c as u64) << 24);
                        scope.spawn(move || run_client(c, conn, ep, barrier, t, root, first))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked"))
                    .collect::<Vec<_>>()
            });
            drop(root);
            let wall = started.elapsed();
            let after = stats(&mut daemon.control);
            let sent: Vec<&Request> = epochs
                .iter()
                .flatten()
                .flat_map(|e| e.reads.iter().chain(&e.writes))
                .collect();
            let count = |f: fn(&Request) -> bool| sent.iter().filter(|r| f(r)).count() as u64;
            Pass {
                wall,
                clients,
                requests: sent.len() as u64,
                want_hits: count(Request::expects_hit),
                want_misses: count(Request::expects_miss),
                stats: [0, 1, 2, 3].map(|i| after[i].wrapping_sub(before[i])),
            }
        },
        |p| p.wall.as_secs_f64(),
    );
    let all: Vec<&Pass> = plain.iter().chain(&traced).collect();

    // Oracles: every reply is right (hits repeat their fill), the daemon's
    // counters equal the model's, and sampled misses equal local runs.
    let mut wrong: Vec<String> = Vec::new();
    let mut totals = [0u64; 4];
    let (mut want_hits, mut want_misses) = (0u64, 0u64);
    for p in &all {
        for c in &p.clients {
            wrong.extend(c.wrong.iter().cloned());
        }
        report.attempted += p.requests;
        report.failed += p.clients.iter().map(|c| c.wrong.len() as u64).sum::<u64>();
        for (i, v) in p.stats.iter().enumerate() {
            totals[i] += v;
        }
        want_hits += p.want_hits;
        want_misses += p.want_misses;
    }
    report.check(
        "serve.replies",
        wrong.is_empty(),
        format!(
            "every hit repeats the digest of the miss that filled it; wrong: {:?}",
            wrong.iter().take(3).collect::<Vec<_>>()
        ),
    );
    report.check(
        "serve.cache_counts",
        totals[0] == want_hits && totals[1] == want_misses && totals[2] == expected_evicted && totals[3] == 0,
        format!(
            "daemon hits/misses/evicted/shed {}/{}/{}/{} vs model {want_hits}/{want_misses}/{expected_evicted}/0",
            totals[0], totals[1], totals[2], totals[3]
        ),
    );
    // The counts of the first pass: a fixed request sequence on an empty
    // cache, so they repeat bit for bit whatever the number of passes.
    let first = &plain[0].stats;
    report.metric("serve.hits", first[0] as f64, "count", 1);
    report.metric("serve.misses", first[1] as f64, "count", 1);
    report.metric("serve.evicted", first[2] as f64, "count", 1);
    report.metric("serve.shed", first[3] as f64, "count", 1);

    // Served ≡ local: re-run a seeded sample of the last pass's misses.
    let mut rng = SplitMix::new(opts.seed);
    let last = all.last().expect("at least one pass");
    let mut local_ok = true;
    let mut checked = 0;
    for (client, c) in last.clients.iter().enumerate() {
        for _ in 0..LOCAL_SAMPLES.min(c.misses.len()) {
            let (request, served) = &c.misses[rng.below(c.misses.len())];
            let Request::Schedule {
                index,
                plan_seed,
                edit,
                ..
            } = *request
            else {
                continue;
            };
            let (config, plan) = workload(client, plan_seed, edit).build();
            let local = run_scenario(&config, &plan, &paper_schedules()[index - 1])
                .map(|m| format!("{:#018x}", m.digest()));
            local_ok &= local.as_deref() == Ok(served.as_str());
            checked += 1;
        }
    }
    report.check(
        "serve.served_equals_local",
        local_ok && checked > 0,
        format!("{checked} sampled misses equal a local run_scenario"),
    );

    let mut pings = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let started = Instant::now();
        if daemon.control.ping().is_ok() {
            pings.push(started.elapsed().as_secs_f64() * 1e6);
        }
    }
    report.median("serve.ping_rtt_us", &pings, "us");
    drop(conns.drain(..));
    if let Err(e) = daemon.stop() {
        report.check(
            "serve.shutdown",
            false,
            format!("daemon did not stop cleanly: {e}"),
        );
    }

    let walls: Vec<f64> = plain.iter().map(|p| p.wall.as_secs_f64()).collect();
    report.median("run_wall_s", &walls, "s");
    fn samples(p: &Pass) -> Vec<&Sample> {
        p.clients.iter().flat_map(|c| &c.samples).collect()
    }
    let cpu: Vec<f64> = plain
        .iter()
        .map(|p| samples(p).iter().map(|s| s.server_us).sum::<f64>() / 1e6)
        .collect();
    report.median("sim_cpu_s", &cpu, "s");
    let rtt_ms = |pred: &dyn Fn(Kind) -> bool| -> Vec<f64> {
        plain
            .iter()
            .flat_map(|p| samples(p))
            .filter(|s| pred(s.kind))
            .map(|s| s.rtt.as_secs_f64() * 1e3)
            .collect()
    };
    let jobs = rtt_ms(&|_| true);
    let per_pass: Vec<Vec<f64>> = plain
        .iter()
        .map(|p| {
            samples(p)
                .iter()
                .map(|s| s.rtt.as_secs_f64() * 1e3)
                .collect()
        })
        .collect();
    report.median_of_medians("job_p50_ms", &per_pass, "ms");
    report.tail("job_tail_ms", &jobs, "ms");
    report.median("miss_p50_ms", &rtt_ms(&|k| k == Kind::Miss), "ms");
    let rate: Vec<f64> = plain
        .iter()
        .map(|p| samples(p).len() as f64 / p.wall.as_secs_f64())
        .collect();
    report.median("jobs_per_s", &rate, "1/s");
    let us = |v: Vec<f64>| v.into_iter().map(|x| x * 1e3).collect::<Vec<_>>();
    report.median("serve.hit_p50_us", &us(rtt_ms(&|k| k == Kind::Hit)), "us");
    report.median(
        "serve.bounds_miss_p50_us",
        &us(rtt_ms(&|k| k == Kind::BoundsMiss)),
        "us",
    );
    report.median(
        "serve.invalidate_p50_us",
        &us(rtt_ms(&|k| k == Kind::Invalidate)),
        "us",
    );
    let overhead: Vec<f64> = plain
        .iter()
        .flat_map(|p| samples(p))
        .filter(|s| s.kind != Kind::Invalidate)
        .map(|s| s.rtt.as_secs_f64() * 1e6 - s.server_us)
        .collect();
    report.median("serve.overhead_p50_us", &overhead, "us");
    if !traced.is_empty() {
        let traced_walls: Vec<f64> = traced.iter().map(|p| p.wall.as_secs_f64()).collect();
        crate::trace_overhead(report, &walls, &traced_walls);
    }
    Host::probe(workers, SERVE_CLIENTS)
}
