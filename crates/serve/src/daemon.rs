//! The `tve-serve` daemon: a Unix-domain socket server owning a warm
//! [`Farm`] and the content-addressed [`ResultCache`].
//!
//! Connections are handled on one thread each; jobs submitted with
//! `"wait": false` run on their own thread and are polled through the
//! job table (`status` / `result`). All simulation fan-out inside a
//! job goes through the shared farm, so `TVE_JOBS` governs the daemon
//! exactly as it governs the batch bins — and results are
//! byte-identical for any worker count, which is what makes caching
//! across clients sound.
//!
//! ## Fault tolerance
//!
//! Every submission passes [`Admission`] (bounded queue, priority
//! quotas, cost-cap shedding — see `admission.rs`), runs under a
//! per-job [`CancelToken`] with an optional deadline watcher, and fans
//! out through the *supervised* farm
//! ([`Farm::run_map_supervised`](tve_sched::Farm::run_map_supervised)):
//! a panicked or deadline-cancelled worker attempt is retried on a
//! fresh worker within a retry budget, and a permanent failure comes
//! back as a typed error — never a hang, never a hole in the batch.
//! SIGTERM (or the `drain` command) starts a graceful drain: running
//! jobs finish, the cache snapshot is persisted atomically, new
//! submissions are refused with a typed `draining` error. The `--chaos`
//! spec (`chaos.rs`) injects worker, frame, and snapshot faults at
//! deterministic occurrence counts so all of the above is provable.

use std::collections::BTreeMap;
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use tve_campaign::{
    CampaignConfig, CellOutcome, CellPipeline, CellResult, CellStore, DiagnosisCheck, Hit,
    PipelineError, ShardSpec,
};
use tve_core::Schedule;
use tve_obs::{
    fnv1a, json_line, parse_json, IoPolicy, JsonObject, JsonValue, Layout, OpsCounters, WriteFault,
};
use tve_sched::{panic_message, ChaosFault, ChaosHook, Farm, SupervisePolicy};
use tve_sim::{silence_cancelled_panics, with_cancel_token, CancelToken, Cancelled};
use tve_soc::{paper_schedules, run_scenario, ScenarioMetrics};

use crate::admission::{Admission, AdmissionConfig};
use crate::cache::{CachedValue, ResultCache};
use crate::chaos::{ChaosSite, ChaosSpec};
use crate::error::ServeError;
use crate::invalidate::edit_impact;
use crate::key::{
    bounds_key, cell_key, combined_key, diagnosis_key, lint_key, schedule_tests, test_mask,
};
use crate::persist::entry_payload;
use crate::proto::{read_frame, write_frame, JobKind, JobSpec};

/// The default socket path (also the `TVE_SERVE_SOCKET` default).
pub const DEFAULT_SOCKET: &str = "target/tve-serve.sock";

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Where to listen.
    pub socket: PathBuf,
    /// Farm worker override (`None` = `TVE_JOBS` / available cores).
    pub workers: Option<usize>,
    /// Daemon-wide cache-verification fraction: every cache hit is
    /// re-executed with this probability and compared bit for bit.
    /// Per-job `verify` fields override it.
    pub verify: Option<f64>,
    /// Suppress per-request logging.
    pub quiet: bool,
    /// Persist the result cache here: loaded (if present) when the
    /// daemon binds, written back when it shuts down cleanly — the warm
    /// state survives restarts, and `--verify-cache 1.0` after a
    /// restart proves it bit for bit.
    pub cache_file: Option<PathBuf>,
    /// Maximum jobs executing concurrently (admission run cap).
    pub max_running: usize,
    /// Maximum jobs waiting for a run slot before shedding.
    pub max_queue: usize,
    /// Cost-cap shedding threshold in simulated ns (`f64::INFINITY`
    /// disables it); see `admission.rs`.
    pub cost_cap: f64,
    /// Daemon-wide default per-job deadline. A job's own `deadline_ms`
    /// overrides it.
    pub deadline_ms: Option<u64>,
    /// Supervised-farm retry budget: a panicked or deadline-cancelled
    /// worker attempt is retried this many times on a fresh worker.
    pub retries: usize,
    /// Per-connection read timeout: an idle or wedged client is
    /// disconnected instead of pinning a connection thread forever.
    pub read_timeout_ms: u64,
    /// Chaos spec (`site@N[=ARG],...` — see `chaos.rs`), empty = none.
    pub chaos: String,
    /// Poll the process-global SIGTERM flag (`signal.rs`) in the accept
    /// loop. Only the daemon binary sets this; in-process daemons drain
    /// via the `drain` command.
    pub watch_signals: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            socket: PathBuf::from(
                std::env::var("TVE_SERVE_SOCKET").unwrap_or_else(|_| DEFAULT_SOCKET.into()),
            ),
            workers: None,
            verify: None,
            quiet: false,
            cache_file: None,
            max_running: 2,
            max_queue: 8,
            cost_cap: f64::INFINITY,
            deadline_ms: None,
            retries: 1,
            read_timeout_ms: 30_000,
            chaos: String::new(),
            watch_signals: false,
        }
    }
}

enum JobState {
    Running,
    Done(String),
    Failed(ServeError),
}

#[derive(Default)]
struct JobTable {
    next_id: u64,
    jobs: BTreeMap<u64, JobState>,
}

struct Shared {
    cache: ResultCache,
    farm: Farm,
    verify: Option<f64>,
    socket: PathBuf,
    cache_file: Option<PathBuf>,
    quiet: bool,
    jobs: Mutex<JobTable>,
    jobs_cv: Condvar,
    shutdown: AtomicBool,
    started: Instant,
    requests: AtomicU64,
    admission: Admission,
    ops: OpsCounters,
    chaos: ChaosSpec,
    /// Set once the drain decision is made (accept loop).
    draining: AtomicBool,
    /// Set by the `drain` protocol command; the accept loop acts on it.
    drain_requested: AtomicBool,
    /// Recent panic payloads from job / connection threads (bounded),
    /// surfaced through the `stats` response.
    panics: Mutex<Vec<String>>,
    deadline_ms: Option<u64>,
    retries: usize,
    read_timeout: Duration,
    watch_signals: bool,
}

/// Per-job execution context: the cancellation token every kernel built
/// on this job's threads (and every supervised farm worker) observes,
/// plus the effective deadline.
struct JobCtx {
    token: Arc<CancelToken>,
    deadline: Option<Duration>,
}

impl Shared {
    fn verify_fraction(&self, job: &JobSpec) -> f64 {
        job.verify.or(self.verify).unwrap_or(0.0)
    }

    fn record_panic(&self, message: &str) {
        self.ops.note("jobs.panicked", message);
        let mut panics = self.panics.lock().expect("panic log lock");
        if panics.len() >= 32 {
            panics.remove(0);
        }
        panics.push(message.to_string());
    }

    /// The supervised-farm chaos hook: consults the daemon chaos spec
    /// once per *first* attempt, so a retry runs clean — which is
    /// exactly the fault model "this worker died, a fresh one works".
    fn chaos_hook(self: &Arc<Self>) -> Option<ChaosHook> {
        if self.chaos.is_empty() {
            return None;
        }
        let shared = Arc::clone(self);
        Some(Arc::new(move |_item, attempt| {
            if attempt > 0 {
                return None;
            }
            if shared.chaos.fire(ChaosSite::WorkerPanic).is_some() {
                return Some(ChaosFault::Panic);
            }
            if let Some(ms) = shared.chaos.fire(ChaosSite::WorkerSlow) {
                return Some(ChaosFault::Delay(Duration::from_millis(ms)));
            }
            None
        }))
    }

    /// The supervised-farm policy of one job: worker panics are retried
    /// within the daemon retry budget, and the job token cancels the
    /// whole batch.
    fn farm_policy(self: &Arc<Self>, ctx: &JobCtx) -> SupervisePolicy {
        let policy = SupervisePolicy::default()
            .with_retry_budget(self.retries)
            .with_external(Arc::clone(&ctx.token))
            .with_counters(self.ops.clone());
        match self.chaos_hook() {
            Some(hook) => policy.with_chaos(hook),
            None => policy,
        }
    }
}

fn deadline_error(ctx: &JobCtx) -> ServeError {
    match ctx.deadline {
        Some(limit) => ServeError::deadline(format!(
            "job cancelled after exceeding its {} ms deadline",
            limit.as_millis()
        )),
        None => ServeError::deadline("job cancelled"),
    }
}

/// Watches one job's deadline on a helper thread; cancels the job token
/// when it fires. Drop (job finished) hangs up the channel, which stops
/// the watcher promptly.
struct DeadlineWatch {
    stop: Option<mpsc::Sender<()>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl DeadlineWatch {
    fn spawn(token: Arc<CancelToken>, limit: Duration) -> DeadlineWatch {
        let (stop, stopped) = mpsc::channel::<()>();
        let thread = std::thread::Builder::new()
            .name("tve-serve-deadline".into())
            .spawn(move || {
                if stopped.recv_timeout(limit) == Err(mpsc::RecvTimeoutError::Timeout) {
                    token.cancel();
                }
            })
            .expect("spawn deadline watcher");
        DeadlineWatch {
            stop: Some(stop),
            thread: Some(thread),
        }
    }
}

impl Drop for DeadlineWatch {
    fn drop(&mut self) {
        drop(self.stop.take());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Deterministic per-key sampling: whether a hit on `key` gets
/// re-executed at `fraction`.
fn verify_sampled(key: u64, fraction: f64) -> bool {
    if fraction >= 1.0 {
        return true;
    }
    if fraction <= 0.0 {
        return false;
    }
    // splitmix64 of the key, mapped to [0, 1).
    (crate::client::splitmix64(key) as f64 / u64::MAX as f64) < fraction
}

/// A running daemon spawned in-process (tests, benches).
pub struct DaemonHandle {
    thread: std::thread::JoinHandle<io::Result<()>>,
    /// The socket the daemon listens on.
    pub socket: PathBuf,
}

impl DaemonHandle {
    /// Waits for the daemon to exit (send `shutdown` first). A panic on
    /// the daemon thread is reported with its payload preserved, not
    /// collapsed into a generic message.
    pub fn join(self) -> io::Result<()> {
        match self.thread.join() {
            Ok(result) => result,
            Err(payload) => Err(io::Error::other(format!(
                "daemon thread panicked: {}",
                panic_message(payload.as_ref())
            ))),
        }
    }
}

/// Binds and serves until a `shutdown` request arrives or a drain
/// completes. Blocking.
pub fn serve(options: &ServeOptions) -> io::Result<()> {
    let (listener, shared) = bind(options)?;
    accept_loop(listener, shared)
}

/// Binds, then serves on a background thread. The listener is bound
/// before this returns, so clients may connect immediately.
pub fn spawn(options: &ServeOptions) -> io::Result<DaemonHandle> {
    let (listener, shared) = bind(options)?;
    let socket = shared.socket.clone();
    let thread = std::thread::Builder::new()
        .name("tve-serve-accept".into())
        .spawn(move || accept_loop(listener, shared))?;
    Ok(DaemonHandle { thread, socket })
}

fn bind(options: &ServeOptions) -> io::Result<(UnixListener, Arc<Shared>)> {
    silence_cancelled_panics();
    let chaos = ChaosSpec::parse(&options.chaos)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    if options.socket.exists() {
        std::fs::remove_file(&options.socket)?;
    }
    if let Some(parent) = options.socket.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let listener = UnixListener::bind(&options.socket)?;
    let farm = match options.workers {
        Some(n) => Farm::with_workers(n),
        None => Farm::new(),
    };
    let cache = ResultCache::new();
    if let Some(path) = &options.cache_file {
        match crate::persist::load_cache(&cache, path) {
            Ok(load) => {
                if !options.quiet && (load.loaded > 0 || load.defect.is_some()) {
                    println!(
                        "tve-serve: loaded {} cached results from {}",
                        load.loaded,
                        path.display()
                    );
                }
                if let Some(defect) = load.defect {
                    eprintln!("tve-serve: cache snapshot damaged — {defect}");
                }
            }
            Err(message) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("cache snapshot {}: {message}", path.display()),
                ))
            }
        }
    }
    let shared = Arc::new(Shared {
        cache,
        farm,
        verify: options.verify,
        socket: options.socket.clone(),
        cache_file: options.cache_file.clone(),
        quiet: options.quiet,
        jobs: Mutex::new(JobTable::default()),
        jobs_cv: Condvar::new(),
        shutdown: AtomicBool::new(false),
        started: Instant::now(),
        requests: AtomicU64::new(0),
        admission: Admission::new(AdmissionConfig {
            max_running: options.max_running.max(1),
            max_queue: options.max_queue,
            cost_cap: options.cost_cap,
        }),
        ops: OpsCounters::new(),
        chaos,
        draining: AtomicBool::new(false),
        drain_requested: AtomicBool::new(false),
        panics: Mutex::new(Vec::new()),
        deadline_ms: options.deadline_ms,
        retries: options.retries,
        read_timeout: Duration::from_millis(options.read_timeout_ms.max(1)),
        watch_signals: options.watch_signals,
    });
    if !options.quiet {
        println!(
            "tve-serve: listening on {} ({} farm workers, verify {:?})",
            options.socket.display(),
            shared.farm.workers(),
            options.verify
        );
    }
    Ok((listener, shared))
}

fn accept_loop(listener: UnixListener, shared: Arc<Shared>) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        if !shared.draining.load(Ordering::SeqCst)
            && (shared.drain_requested.load(Ordering::SeqCst)
                || (shared.watch_signals && crate::signal::drain_requested()))
        {
            shared.draining.store(true, Ordering::SeqCst);
            shared.admission.drain();
            shared.ops.note(
                "drain.requested",
                "finishing running jobs, refusing new submissions",
            );
            if !shared.quiet {
                println!("tve-serve: draining — finishing running jobs, refusing new submissions");
            }
        }
        if shared.draining.load(Ordering::SeqCst) && shared.admission.idle() {
            // Give in-flight response writes a beat to flush before the
            // socket goes away.
            std::thread::sleep(Duration::from_millis(50));
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(shared.read_timeout));
                let conn_shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name("tve-serve-conn".into())
                    .spawn(move || {
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            let _ = handle_connection(stream, &conn_shared);
                        }));
                        if let Err(payload) = result {
                            conn_shared.record_panic(&format!(
                                "connection thread panicked: {}",
                                panic_message(payload.as_ref())
                            ));
                        }
                    })?;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    teardown(&shared)
}

fn teardown(shared: &Arc<Shared>) -> io::Result<()> {
    let _ = std::fs::remove_file(&shared.socket);
    if let Some(path) = &shared.cache_file {
        // The snapshot chaos sites model the disk filling up mid-write:
        // the atomic tmp-and-rename in `save_cache_with` must leave the
        // previous snapshot intact either way.
        let policy = IoPolicy::new();
        if let Some(keep) = shared.chaos.fire(ChaosSite::SnapshotShortWrite) {
            policy.fail_nth_write(
                2,
                WriteFault::Short {
                    keep: keep as usize,
                },
            );
        } else if shared.chaos.fire(ChaosSite::SnapshotEnospc).is_some() {
            policy.fail_nth_write(2, WriteFault::Enospc);
        }
        match crate::persist::save_cache_with(&shared.cache, path, &policy) {
            Ok(written) => {
                if !shared.quiet {
                    println!(
                        "tve-serve: persisted {written} cached results to {}",
                        path.display()
                    );
                }
            }
            Err(e) => {
                shared.ops.note(
                    "snapshot.failed",
                    format!("cache snapshot {}: {e}", path.display()),
                );
                eprintln!(
                    "tve-serve: cache snapshot failed ({e}); previous snapshot at {} kept",
                    path.display()
                );
            }
        }
    }
    if !shared.quiet {
        println!(
            "tve-serve: shut down after {} requests, cache {:?}",
            shared.requests.load(Ordering::SeqCst),
            shared.cache.stats()
        );
    }
    Ok(())
}

fn handle_connection(mut stream: UnixStream, shared: &Arc<Shared>) -> io::Result<()> {
    loop {
        let text = match read_frame(&mut stream) {
            Ok(Some(text)) => text,
            Ok(None) => break,
            // Read timeout: an idle or wedged client does not get to pin
            // a connection thread forever.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                shared.ops.incr("conn.read_timeout");
                break;
            }
            // A malformed frame (oversized length prefix, non-UTF-8
            // payload) earns one typed protocol error, then the
            // connection closes — the framing is unrecoverable.
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                shared.ops.incr("conn.bad_frame");
                let err = ServeError::protocol(format!("bad frame: {e}"));
                let _ = write_frame(&mut stream, &err.render());
                break;
            }
            Err(e) => return Err(e),
        };
        shared.requests.fetch_add(1, Ordering::SeqCst);
        let response = match dispatch(&text, shared) {
            Ok(body) => body,
            Err(err) => {
                shared.ops.incr(&format!("errors.{}", err.kind.as_str()));
                err.render()
            }
        };
        if !write_response(&mut stream, shared, &response)? {
            break;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
    }
    Ok(())
}

/// Writes one response frame, with the connection-level chaos sites in
/// the path. Returns whether the connection should stay open.
fn write_response(stream: &mut UnixStream, shared: &Shared, response: &str) -> io::Result<bool> {
    if !shared.chaos.is_empty() {
        if shared.chaos.fire(ChaosSite::Disconnect).is_some() {
            shared.ops.incr("chaos.disconnect");
            let _ = stream.shutdown(std::net::Shutdown::Both);
            return Ok(false);
        }
        if shared.chaos.fire(ChaosSite::FrameCorrupt).is_some() {
            shared.ops.incr("chaos.frame_corrupt");
            use std::io::Write;
            // An impossible length prefix: the client's `read_frame`
            // rejects it as a protocol error rather than waiting on
            // bytes that will never come.
            let _ = stream.write_all(&u32::MAX.to_le_bytes());
            let _ = stream.flush();
            let _ = stream.shutdown(std::net::Shutdown::Both);
            return Ok(false);
        }
    }
    write_frame(stream, response)?;
    Ok(true)
}

/// Static cost estimate for admission control: the summed upper bound
/// of the job's certified bounds envelopes, in simulated ns — no
/// simulation, just the `tve-lint` interval analysis. Campaigns scale by
/// their cell count (population × one golden pass).
fn estimate_cost(job: &JobSpec) -> Option<f64> {
    match &job.kind {
        JobKind::Lint { .. } | JobKind::Bounds { .. } => None,
        JobKind::Schedule { index } => {
            let (config, plan) = job.workload.build();
            let schedules = selected_schedules(&[*index]);
            let envelopes = tve_lint::schedule_envelopes(&config, &plan, &schedules, 0);
            Some(envelopes.iter().map(|e| e.total.hi as f64).sum())
        }
        JobKind::Campaign { .. } => {
            let campaign = job.campaign_config()?;
            let envelopes =
                tve_lint::schedule_envelopes(&campaign.soc, &campaign.plan, &campaign.schedules, 0);
            let per_pass: f64 = envelopes.iter().map(|e| e.total.hi as f64).sum();
            Some(per_pass * (campaign.population.len() as f64 + 1.0))
        }
    }
}

fn dispatch(text: &str, shared: &Arc<Shared>) -> Result<String, ServeError> {
    let request =
        parse_json(text).map_err(|e| ServeError::protocol(format!("bad request: {e}")))?;
    let cmd = request
        .get("cmd")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| ServeError::protocol("request wants a \"cmd\" string"))?;
    match cmd {
        "ping" => Ok(json_line(|o| {
            o.bool("ok", true)
                .num("pid", std::process::id())
                .num("workers", shared.farm.workers());
        })),
        "stats" => Ok(stats_response(shared)),
        "shutdown" => {
            shared.shutdown.store(true, Ordering::SeqCst);
            Ok("{\"ok\":true}".into())
        }
        "drain" => {
            shared.drain_requested.store(true, Ordering::SeqCst);
            Ok("{\"ok\":true,\"draining\":true}".into())
        }
        "submit" => {
            let job = JobSpec::from_json(
                request
                    .get("job")
                    .ok_or_else(|| ServeError::protocol("submit wants a \"job\""))?,
            )
            .map_err(ServeError::protocol)?;
            if shared.draining.load(Ordering::SeqCst)
                || shared.drain_requested.load(Ordering::SeqCst)
            {
                return Err(ServeError::draining(
                    "daemon is draining; new submissions are refused",
                ));
            }
            let wait = request
                .get("wait")
                .and_then(JsonValue::as_bool)
                .unwrap_or(true);
            let cost = estimate_cost(&job);
            let ticket = shared
                .admission
                .admit(job.priority(), cost)
                .map_err(|shed| {
                    shared.ops.note("admission.shed", shed.reason.clone());
                    if shed.draining {
                        ServeError::draining(shed.reason)
                    } else {
                        ServeError::overloaded(shed.reason, shed.retry_after_ms)
                    }
                })?;
            let id = {
                let mut table = shared.jobs.lock().expect("job table lock");
                table.next_id += 1;
                let id = table.next_id;
                table.jobs.insert(id, JobState::Running);
                id
            };
            if wait {
                let result = execute_guarded(shared, &job);
                drop(ticket);
                finish_job(shared, id, &result);
                let body = result?;
                Ok(json_line(|o| {
                    o.bool("ok", true).num("id", id).raw("result", &body);
                }))
            } else {
                let job_shared = Arc::clone(shared);
                std::thread::Builder::new()
                    .name(format!("tve-serve-job-{id}"))
                    .spawn(move || {
                        let result = execute_guarded(&job_shared, &job);
                        drop(ticket);
                        finish_job(&job_shared, id, &result);
                    })
                    .map_err(|e| ServeError::internal(format!("cannot spawn job thread: {e}")))?;
                Ok(job_state(id, "running", |_| {}))
            }
        }
        "status" | "result" => {
            let id = request
                .get("id")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| ServeError::protocol("wants an \"id\""))?;
            let wait = cmd == "result"
                && request
                    .get("wait")
                    .and_then(JsonValue::as_bool)
                    .unwrap_or(false);
            let mut table = shared.jobs.lock().expect("job table lock");
            if wait {
                while matches!(table.jobs.get(&id), Some(JobState::Running)) {
                    table = shared
                        .jobs_cv
                        .wait(table)
                        .expect("job table lock (condvar)");
                }
            }
            match table.jobs.get(&id) {
                None => Err(ServeError::protocol(format!("unknown job id {id}"))),
                Some(JobState::Running) => Ok(job_state(id, "running", |_| {})),
                Some(JobState::Failed(error)) => Ok(job_state(id, "failed", |o| {
                    o.str("error", &error.message)
                        .str("error_kind", error.kind.as_str());
                })),
                Some(JobState::Done(body)) => Ok(job_state(id, "done", |o| {
                    if cmd == "result" {
                        o.raw("result", body);
                    }
                })),
            }
        }
        "invalidate" => {
            let workload = crate::proto::decode_workload(
                request
                    .get("workload")
                    .ok_or_else(|| ServeError::protocol("invalidate wants a \"workload\""))?,
            )
            .map_err(ServeError::protocol)?;
            let edit = crate::proto::decode_overrides(
                request
                    .get("edit")
                    .ok_or_else(|| ServeError::protocol("invalidate wants an \"edit\""))?,
            )
            .map_err(ServeError::protocol)?;
            let (config, plan) = workload.build();
            let facts = tve_lint::soc_facts(&config, &plan);
            let impact = edit_impact(&facts, &edit, &paper_schedules());
            let evicted = shared.cache.evict_tests(impact.touched_mask);
            Ok(json_line(|o| {
                o.bool("ok", true)
                    .num("evicted", evicted)
                    .nums("touched_tests", &impact.touched_tests)
                    .strs("cores", &impact.cores)
                    .strs("affected_schedules", &impact.affected_schedules);
            }))
        }
        other => Err(ServeError::protocol(format!("unknown command {other:?}"))),
    }
}

fn finish_job(shared: &Shared, id: u64, result: &Result<String, ServeError>) {
    let mut table = shared.jobs.lock().expect("job table lock");
    let state = match result {
        Ok(body) => JobState::Done(body.clone()),
        Err(error) => JobState::Failed(error.clone()),
    };
    table.jobs.insert(id, state);
    shared.jobs_cv.notify_all();
}

/// The `{"ok":true,"id":…,"state":…}` response of a job-table query,
/// with any further members written by `more`.
fn job_state(id: u64, state: &str, more: impl FnOnce(&mut JsonObject)) -> String {
    json_line(|o| {
        o.bool("ok", true).num("id", id).str("state", state);
        more(o);
    })
}

fn stats_response(shared: &Shared) -> String {
    let stats = shared.cache.stats();
    let jobs = shared.jobs.lock().expect("job table lock").jobs.len();
    let (running, queued, admitted, shed) = shared.admission.depth();
    let panics = shared.panics.lock().expect("panic log lock");
    json_line(|o| {
        o.bool("ok", true)
            .num("entries", stats.entries)
            .num("hits", stats.hits)
            .num("misses", stats.misses)
            .fixed("hit_rate", stats.hit_rate(), 6)
            .num("evicted", stats.evicted)
            .num("verified", stats.verified)
            .num("verify_failures", stats.verify_failures)
            .num("jobs", jobs)
            .num("uptime_ms", shared.started.elapsed().as_millis())
            .num("workers", shared.farm.workers())
            .num("running", running)
            .num("queued", queued)
            .num("admitted", admitted)
            .num("shed", shed)
            .bool(
                "draining",
                shared.draining.load(Ordering::SeqCst)
                    || shared.drain_requested.load(Ordering::SeqCst),
            )
            .num("panics", panics.len());
        if let Some(last) = panics.last() {
            o.str("last_panic", last);
        }
        o.raw("ops", &shared.ops.to_json())
            .raw("chaos", &shared.chaos.counters_json());
    })
}

fn selected_schedules(indices: &[usize]) -> Vec<Schedule> {
    let all = paper_schedules();
    indices.iter().map(|&i| all[i - 1].clone()).collect()
}

/// Executes one job under its guard rails: a per-job [`CancelToken`]
/// installed thread-locally (every [`tve_sim::Kernel`] built while it is
/// current observes it at each scheduling boundary), a deadline watcher
/// that cancels the token, and a panic boundary that preserves payloads
/// into the panic log instead of killing the connection thread.
fn execute_guarded(shared: &Arc<Shared>, job: &JobSpec) -> Result<String, ServeError> {
    let deadline_ms = job.deadline_ms.or(shared.deadline_ms);
    let ctx = JobCtx {
        token: CancelToken::new(),
        deadline: deadline_ms.map(Duration::from_millis),
    };
    let _watch = ctx
        .deadline
        .map(|limit| DeadlineWatch::spawn(Arc::clone(&ctx.token), limit));
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        with_cancel_token(&ctx.token, || execute(shared, job, &ctx))
    }));
    match outcome {
        Ok(result) => result,
        Err(payload) => {
            if payload.is::<Cancelled>() || ctx.token.is_cancelled() {
                shared.ops.incr("jobs.deadline_cancelled");
                Err(deadline_error(&ctx))
            } else {
                let message = panic_message(payload.as_ref());
                shared.record_panic(&format!("job panicked: {message}"));
                Err(ServeError::internal(format!("job panicked: {message}")))
            }
        }
    }
}

fn execute(shared: &Arc<Shared>, job: &JobSpec, ctx: &JobCtx) -> Result<String, ServeError> {
    let started = Instant::now();
    let mut out = String::new();
    let mut result = JsonObject::new(&mut out, Layout::COMPACT);
    match &job.kind {
        JobKind::Schedule { index } => run_schedule_job(shared, job, *index, &mut result)?,
        JobKind::Campaign { shard, .. } => run_campaign_job(shared, job, ctx, *shard, &mut result)?,
        JobKind::Lint { schedules, program } => {
            run_lint_job(shared, job, schedules, program, &mut result)?
        }
        JobKind::Bounds { schedules } => run_bounds_job(shared, job, schedules, &mut result)?,
    }
    if !shared.quiet {
        println!(
            "tve-serve: job done in {:.1} ms ({})",
            started.elapsed().as_secs_f64() * 1e3,
            match &job.kind {
                JobKind::Schedule { index } => format!("schedule {index}"),
                JobKind::Campaign { schedules, .. } =>
                    format!("campaign over {} schedules", schedules.len()),
                JobKind::Lint { schedules, .. } => format!("lint {} schedules", schedules.len()),
                JobKind::Bounds { schedules } => format!("bounds {} schedules", schedules.len()),
            }
        );
    }
    // Close the wall-clock over the whole job, cache time included.
    result.num("wall_us", started.elapsed().as_micros());
    drop(result);
    Ok(out)
}

const KIND_MISMATCH: &str = "cache kind mismatch (key collision?)";

/// The one cache-or-compute path of the single-entry jobs: a miss is
/// computed and inserted under `mask`; a hit sampled for verification
/// at the job's fraction is recomputed and must encode to the same
/// snapshot record (metrics therefore compare without host timings).
/// Returns the value and whether it was a hit.
fn cache_or_compute(
    shared: &Shared,
    job: &JobSpec,
    key: u64,
    mask: u8,
    what: impl std::fmt::Display,
    compute: impl Fn() -> Result<CachedValue, String>,
) -> Result<(CachedValue, bool), String> {
    let Some(hit) = shared.cache.lookup(key) else {
        let fresh = compute()?;
        shared.cache.insert(key, fresh.clone(), mask);
        return Ok((fresh, false));
    };
    if verify_sampled(key, shared.verify_fraction(job)) {
        let fresh = compute()?;
        let ok = entry_payload(key, mask, &fresh) == entry_payload(key, mask, &hit);
        shared.cache.record_verified(1, u64::from(!ok));
        if !ok {
            return Err(format!("verify-cache mismatch on {what}"));
        }
    }
    Ok((hit, true))
}

/// Runs or serves one fault-free schedule. Runs on the job thread, so
/// the job token covers its kernels directly.
fn run_schedule_job(
    shared: &Shared,
    job: &JobSpec,
    index: usize,
    result: &mut JsonObject,
) -> Result<(), String> {
    let (config, plan) = job.workload.build();
    let schedule = selected_schedules(&[index]).remove(0);
    let key = cell_key(&config, &plan, &schedule, "golden");
    let mask = test_mask(&schedule_tests(&schedule));
    let (value, cached) = cache_or_compute(
        shared,
        job,
        key,
        mask,
        format_args!("'{}'", schedule.name),
        || {
            run_scenario(&config, &plan, &schedule)
                .map(|m| CachedValue::Metrics(Box::new(m)))
                .map_err(|e| e.to_string())
        },
    )?;
    let CachedValue::Metrics(metrics) = value else {
        return Err(KIND_MISMATCH.into());
    };
    result
        .str("kind", "schedule")
        .str("schedule", &schedule.name)
        .str("digest", &format!("{:#018x}", metrics.digest()))
        .fixed("peak", metrics.peak_utilization, 6)
        .fixed("avg", metrics.avg_utilization, 6)
        .num("cycles", metrics.total_cycles)
        .bool("clean", metrics.result.clean())
        .bool("cached", cached);
    Ok(())
}

/// The result cache as a campaign [`CellStore`]: goldens and cells
/// under [`cell_key`], diagnosis checks under [`diagnosis_key`], every
/// hit sampled for verification at the job's fraction.
struct CacheStore<'a> {
    shared: &'a Shared,
    campaign: &'a CampaignConfig,
    fraction: f64,
}

impl CacheStore<'_> {
    fn cell_key(&self, schedule: &Schedule, fault_id: &str) -> u64 {
        let c = self.campaign;
        cell_key(&c.soc, &c.plan, schedule, fault_id)
    }

    fn diagnosis_key(&self, fault_id: &str) -> u64 {
        let c = self.campaign;
        diagnosis_key(
            &c.soc,
            c.plan.seed,
            c.diagnosis_patterns,
            c.diagnosis_window,
            fault_id,
        )
    }

    /// A cache hit at `key`, sampled for verification.
    fn hit<T>(&self, key: u64, value: T) -> Option<Hit<T>> {
        Some(Hit {
            value,
            verify: verify_sampled(key, self.fraction),
        })
    }
}

impl CellStore for CacheStore<'_> {
    fn golden(&mut self, schedule: &Schedule) -> Result<Option<Hit<ScenarioMetrics>>, String> {
        let key = self.cell_key(schedule, "golden");
        match self.shared.cache.lookup(key) {
            Some(CachedValue::Metrics(metrics)) => Ok(self.hit(key, *metrics)),
            Some(_) => Err(KIND_MISMATCH.into()),
            None => Ok(None),
        }
    }

    fn put_golden(&mut self, schedule: &Schedule, metrics: &ScenarioMetrics) -> Result<(), String> {
        self.shared.cache.insert(
            self.cell_key(schedule, "golden"),
            CachedValue::Metrics(Box::new(metrics.clone())),
            test_mask(&schedule_tests(schedule)),
        );
        Ok(())
    }

    fn cell(
        &mut self,
        _index: usize,
        fault_id: &str,
        schedule: &Schedule,
    ) -> Result<Option<Hit<CellOutcome>>, String> {
        let key = self.cell_key(schedule, fault_id);
        match self.shared.cache.lookup(key) {
            Some(CachedValue::Cell(outcome)) => Ok(self.hit(key, outcome)),
            Some(_) => Err(KIND_MISMATCH.into()),
            None => Ok(None),
        }
    }

    fn put_cells(&mut self, cells: &[(usize, &Schedule, CellResult)]) -> Result<(), String> {
        for (_, schedule, cell) in cells {
            self.shared.cache.insert(
                self.cell_key(schedule, &cell.fault_id),
                CachedValue::Cell(cell.outcome.clone()),
                test_mask(&schedule_tests(schedule)),
            );
        }
        Ok(())
    }

    fn diagnosis(&mut self, fault_id: &str) -> Result<Option<DiagnosisCheck>, String> {
        match self.shared.cache.lookup(self.diagnosis_key(fault_id)) {
            Some(CachedValue::Diagnosis(check)) => Ok(Some(*check)),
            Some(_) => Err(KIND_MISMATCH.into()),
            None => Ok(None),
        }
    }

    fn put_diagnoses(&mut self, checks: &[DiagnosisCheck]) -> Result<(), String> {
        // Independent of the schedules (mask 0), so entries survive
        // schedule-set changes.
        for check in checks {
            self.shared.cache.insert(
                self.diagnosis_key(&check.fault_id),
                CachedValue::Diagnosis(Box::new(check.clone())),
                0,
            );
        }
        Ok(())
    }
}

/// Runs one campaign job — the campaign cell pipeline over the result
/// cache — and formats its response. A shard job keeps only its
/// residue class of the flat cell index (the partition `tve-campaign`
/// proves tiles the matrix) and answers with a mergeable shard report.
fn run_campaign_job(
    shared: &Arc<Shared>,
    job: &JobSpec,
    ctx: &JobCtx,
    shard: Option<ShardSpec>,
    result: &mut JsonObject,
) -> Result<(), ServeError> {
    // The one canonical construction (shared with merging clients):
    // equal job fields mean an equal matrix on both ends of the socket.
    let campaign = job
        .campaign_config()
        .expect("run_campaign_job is only dispatched for campaign jobs");
    let shard_spec = shard.unwrap_or_else(ShardSpec::full);
    let mut store = CacheStore {
        shared,
        campaign: &campaign,
        fraction: shared.verify_fraction(job),
    };
    let mut pipeline =
        CellPipeline::new(&campaign, &shared.farm).with_policy(shared.farm_policy(ctx));
    let run = pipeline
        .run(&|index| shard_spec.owns(index), &mut store)
        .map_err(|e| match e {
            PipelineError::Cancelled => deadline_error(ctx),
            other => other.to_string().into(),
        })?;
    let counts = run.counts;
    let verified = counts.verified;
    shared
        .cache
        .record_verified(verified as u64, run.verify_failures.len() as u64);
    if !run.verify_failures.is_empty() {
        return Err(format!(
            "verify-cache mismatch on {} of {verified} sampled hits: {}",
            run.verify_failures.len(),
            run.verify_failures.join(", ")
        )
        .into());
    }
    if shard.is_some() {
        let shard_report = pipeline.shard_report(shard_spec, run);
        result
            .str("kind", "campaign-shard")
            .str("shard", &shard_spec.to_string())
            .hex("fingerprint", shard_report.fingerprint)
            .num("cells", shard_report.cells.len())
            .num("cells_simulated", counts.cells_simulated)
            .num("goldens_simulated", counts.goldens_simulated)
            .num("diagnoses_simulated", counts.diagnoses_simulated)
            .num("verified", verified)
            .str("shard_json", &shard_report.to_json());
        return Ok(());
    }

    let cells = run.cells.into_iter().map(|(_, cell)| cell).collect();
    let report = pipeline.report(cells, run.diagnosis);
    let csv = report.to_csv();
    result
        .str("kind", "campaign")
        .num("cells", report.cells.len())
        .num("cells_simulated", counts.cells_simulated)
        .num("cells_cached", counts.cells_stored)
        .num("goldens_simulated", counts.goldens_simulated)
        .num("diagnoses_simulated", counts.diagnoses_simulated)
        .num("verified", verified)
        .str("csv_digest", &format!("{:#018x}", fnv1a(csv.as_bytes())))
        .num("union_escapes", report.union_escapes().len())
        .bool("all_diagnoses_confirmed", report.all_diagnoses_confirmed())
        .objs("coverage", &report.schedules, |row, schedule| {
            row.str("schedule", schedule)
                .fixed("core_coverage", report.core_coverage(schedule), 6)
                .num("escapes", report.escapes(schedule).len());
        })
        .str("csv", &csv)
        .str("json", &report.to_json());
    Ok(())
}

fn run_lint_job(
    shared: &Shared,
    job: &JobSpec,
    schedule_indices: &[usize],
    program: &Option<(String, String)>,
    result: &mut JsonObject,
) -> Result<(), String> {
    let (config, plan) = job.workload.build();
    let schedules = selected_schedules(schedule_indices);
    let program = program.as_ref().map(|(n, t)| (n.as_str(), t.as_str()));
    // One cache entry per lint job shape: key over every schedule plus
    // the program. Lint consumes the whole plan (facts), so the key
    // uses no projection and the entry carries the full test mask.
    let key = combined_key(
        schedules
            .iter()
            .map(|schedule| lint_key(&config, &plan, schedule, program)),
    );
    let (value, cached) = cache_or_compute(shared, job, key, 0x7f, "lint report", || {
        let facts = tve_lint::soc_facts(&config, &plan);
        let mut reports: Vec<tve_lint::LintReport> = schedules
            .iter()
            .map(|s| tve_lint::lint_schedule_report(s, &facts))
            .collect();
        if let Some((name, text)) = program {
            reports.push(tve_lint::lint_program_report(name, text, &facts));
        }
        Ok(CachedValue::Lint {
            report: tve_lint::reports_to_json(&reports),
            errors: reports.iter().map(|r| r.error_count()).sum(),
            warnings: reports.iter().map(|r| r.warning_count()).sum(),
        })
    })?;
    let CachedValue::Lint {
        report,
        errors,
        warnings,
    } = value
    else {
        return Err(KIND_MISMATCH.into());
    };
    result
        .str("kind", "lint")
        .num("errors", errors)
        .num("warnings", warnings)
        .bool("cached", cached)
        .str("report", &report);
    Ok(())
}

/// Serves a certified static bounds job: a pure analysis of the
/// workload's envelopes — no farm dispatch, no simulation — rendered by
/// the same `bounds_reports_to_json` a local `lint --bounds` run uses,
/// so the served report is byte-identical to a local computation.
fn run_bounds_job(
    shared: &Shared,
    job: &JobSpec,
    schedule_indices: &[usize],
    result: &mut JsonObject,
) -> Result<(), String> {
    let (config, plan) = job.workload.build();
    let schedules = selected_schedules(schedule_indices);
    // One cache entry per job shape: key over every schedule's bounds
    // key. The envelopes consume the whole plan, so the entry carries
    // the full test mask.
    let key = combined_key(
        schedules
            .iter()
            .map(|schedule| bounds_key(&config, &plan, schedule)),
    );
    let (value, cached) = cache_or_compute(shared, job, key, 0x7f, "bounds report", || {
        let envelopes = schedules
            .iter()
            .map(|s| tve_lint::schedule_envelope(&config, &plan, s))
            .collect::<Vec<_>>();
        Ok(CachedValue::Bounds {
            report: tve_lint::bounds_reports_to_json(&envelopes),
        })
    })?;
    let CachedValue::Bounds { report } = value else {
        return Err(KIND_MISMATCH.into());
    };
    result
        .str("kind", "bounds")
        .num("schedules", schedules.len())
        .bool("cached", cached)
        .str("report", &report);
    Ok(())
}
