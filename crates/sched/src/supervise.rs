//! The validation farm's worker pool: supervised execution.
//!
//! [`Farm::run_map_supervised`] is the farm's only thread pool; every
//! other entry point ([`Farm::run_map`], [`Farm::run`],
//! [`Farm::run_traced`]) is a thin wrapper over it with the default
//! policy. A panicking item is always captured as a per-item error,
//! never a farm-wide abort. The policy adds the rest of the resilience
//! story the serving layer needs:
//!
//! - **Respawn** — a worker whose job panicked is considered poisoned
//!   and retires; a supervisor (the calling thread) spawns a fresh
//!   worker in its place while unresolved work remains.
//! - **Retry** — a failed attempt (panic *or* deadline cancellation) is
//!   re-queued up to a retry budget and re-executed on a fresh worker.
//!   A permanently failing job yields its typed [`SupervisedError`],
//!   never a hang or a hole in the batch. The default budget is 0: a
//!   local batch runs every item exactly once.
//! - **Deadlines** — each attempt may carry a wall-clock deadline. The
//!   supervisor trips the attempt's [`CancelToken`]; the simulation
//!   inside observes it at the next kernel scheduling boundary and
//!   unwinds with [`Cancelled`], which is classified as a deadline, not
//!   a panic.
//! - **External cancellation** — a parent token (e.g. a daemon job's
//!   deadline) cancels the whole batch: queued items resolve to
//!   [`SupervisedError::Cancelled`] without running.
//! - **Chaos** — a deterministic fault hook may inject a worker panic
//!   or an artificial delay into chosen `(item, attempt)` pairs, which
//!   is how the resilience harness proves all of the above.
//!
//! The pool never sleep-polls. The supervisor and idle workers wait on
//! one condition variable, woken when an item resolves, a worker
//! retires or an attempt is re-queued. Only a policy with a deadline or
//! an external token makes the supervisor wake on a timer
//! ([`SupervisePolicy::poll`]) to scan deadlines and cancellation;
//! only such a policy installs a per-attempt cancel token.
//!
//! Results keep the farm's contract: submission order, one slot per
//! item, bit-identical metrics for any worker count — a retried job
//! reruns the same pure function on the same plain-data inputs.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use tve_obs::OpsCounters;
use tve_sim::{with_cancel_token, CancelToken, Cancelled};

use crate::farm::Farm;

/// A fault the chaos hook may inject into one `(item, attempt)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosFault {
    /// The worker panics before running the job — the "worker killed
    /// mid-job" scenario. The worker retires; the attempt is retried.
    Panic,
    /// The worker stalls for the given wall-clock duration before
    /// running the job — the "pathologically slow worker" scenario.
    /// With a deadline shorter than the delay, the attempt is cancelled
    /// and retried.
    Delay(Duration),
}

/// Deterministic fault schedule: `(item_index, attempt)` → fault.
pub type ChaosHook = Arc<dyn Fn(usize, usize) -> Option<ChaosFault> + Send + Sync>;

/// Policy for one supervised batch.
#[derive(Clone)]
pub struct SupervisePolicy {
    /// Per-attempt wall-clock deadline (`None` = unlimited).
    pub deadline: Option<Duration>,
    /// Retries allowed after the first attempt (so `retry_budget + 1`
    /// attempts total). Default 0: every item runs exactly once.
    pub retry_budget: usize,
    /// Supervisor wake interval for deadline scans and external
    /// cancellation. Unused when the policy has neither: the pool then
    /// waits only on its condition variable.
    pub poll: Duration,
    /// Batch-level cancellation (e.g. a daemon job deadline): when this
    /// trips, running attempts are cancelled through the token chain and
    /// queued items resolve to [`SupervisedError::Cancelled`].
    pub external: Option<Arc<CancelToken>>,
    /// Deterministic fault injection for the resilience harness.
    pub chaos: Option<ChaosHook>,
    /// Sink for `farm.retries` / `farm.respawns` / `farm.deadline_cancels`
    /// / `farm.chaos_injected` counters.
    pub counters: Option<OpsCounters>,
}

impl Default for SupervisePolicy {
    fn default() -> Self {
        SupervisePolicy {
            deadline: None,
            retry_budget: 0,
            poll: Duration::from_millis(1),
            external: None,
            chaos: None,
            counters: None,
        }
    }
}

impl SupervisePolicy {
    /// The default policy: no retries, no deadline, no chaos.
    pub fn new() -> Self {
        SupervisePolicy::default()
    }

    /// Sets the per-attempt deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the retry budget (0 = fail on first error).
    pub fn with_retry_budget(mut self, budget: usize) -> Self {
        self.retry_budget = budget;
        self
    }

    /// Sets the supervisor wake interval (see [`SupervisePolicy::poll`]).
    pub fn with_poll(mut self, poll: Duration) -> Self {
        self.poll = poll;
        self
    }

    /// Attaches a batch-level cancellation token.
    pub fn with_external(mut self, token: Arc<CancelToken>) -> Self {
        self.external = Some(token);
        self
    }

    /// Attaches a deterministic chaos hook.
    pub fn with_chaos(mut self, hook: ChaosHook) -> Self {
        self.chaos = Some(hook);
        self
    }

    /// Attaches an ops-counter sink.
    pub fn with_counters(mut self, counters: OpsCounters) -> Self {
        self.counters = Some(counters);
        self
    }
}

impl std::fmt::Debug for SupervisePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SupervisePolicy")
            .field("deadline", &self.deadline)
            .field("retry_budget", &self.retry_budget)
            .field("poll", &self.poll)
            .field("external", &self.external.is_some())
            .field("chaos", &self.chaos.is_some())
            .finish()
    }
}

/// Why a supervised item produced no result.
#[derive(Debug, Clone)]
pub enum SupervisedError {
    /// Every allowed attempt panicked; the last payload is preserved.
    Panicked(String),
    /// Every allowed attempt overran the per-attempt deadline and was
    /// cancelled at a kernel scheduling boundary.
    Deadline {
        /// The per-attempt limit.
        limit: Duration,
        /// Attempts made.
        attempts: usize,
    },
    /// The batch was cancelled externally before (or while) this item
    /// ran.
    Cancelled,
}

impl std::fmt::Display for SupervisedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SupervisedError::Panicked(msg) => write!(f, "panicked: {msg}"),
            SupervisedError::Deadline { limit, attempts } => write!(
                f,
                "deadline of {} ms exceeded on all {attempts} attempt(s)",
                limit.as_millis()
            ),
            SupervisedError::Cancelled => write!(f, "batch cancelled"),
        }
    }
}

impl std::error::Error for SupervisedError {}

/// What the supervisor had to do to finish the batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SuperviseStats {
    /// Attempts re-queued after a panic or deadline cancellation.
    pub retries: u64,
    /// Fresh workers spawned to replace retired (poisoned) ones.
    pub respawns: u64,
    /// Attempts whose cancel token the supervisor tripped on deadline.
    pub deadline_cancels: u64,
    /// Faults the chaos hook injected.
    pub chaos_injected: u64,
}

/// One attempt currently executing on a worker under a cancel token.
struct RunningAttempt {
    item: usize,
    started: Instant,
    token: Arc<CancelToken>,
    /// Deadline already tripped (so the supervisor counts it once).
    cancelled: bool,
}

/// Per-item result: the last attempt's duration and the outcome.
type Resolved<R> = (Duration, Result<R, SupervisedError>);

/// Everything the workers and the supervisor share, behind one lock.
struct Pool<R> {
    /// `(item, attempt)` pairs awaiting a worker.
    queue: VecDeque<(usize, usize)>,
    /// Attempts under a cancel token (timed policies only).
    running: Vec<RunningAttempt>,
    /// One slot per item, filled once, never rewritten.
    slots: Vec<Option<Resolved<R>>>,
    /// Items whose slot is still empty.
    unresolved: usize,
    /// Workers currently alive (spawned minus retired/finished).
    live: usize,
    stats: SuperviseStats,
}

struct Ctx<'a, T, R, F> {
    items: &'a [T],
    f: &'a F,
    policy: &'a SupervisePolicy,
    /// Whether attempts run under a cancel token and the supervisor
    /// wakes on a timer: only with a deadline or an external token.
    timed: bool,
    pool: Mutex<Pool<R>>,
    /// Signalled on every resolve, retire and re-queue.
    changed: Condvar,
}

impl<T, R, F> Ctx<'_, T, R, F> {
    fn lock(&self) -> MutexGuard<'_, Pool<R>> {
        self.pool.lock().expect("pool poisoned")
    }

    fn external_cancelled(&self) -> bool {
        self.policy
            .external
            .as_ref()
            .is_some_and(|t| t.is_cancelled())
    }

    fn resolve(&self, pool: &mut Pool<R>, item: usize, resolved: Resolved<R>) {
        debug_assert!(pool.slots[item].is_none(), "item {item} resolved twice");
        pool.slots[item] = Some(resolved);
        pool.unresolved -= 1;
        self.changed.notify_all();
    }

    /// Resolves every queued (not yet running) item to `Cancelled`.
    /// Items currently running resolve in their worker when the token
    /// chain interrupts them.
    fn drain_cancelled(&self, pool: &mut Pool<R>) {
        while let Some((item, _)) = pool.queue.pop_front() {
            let cancelled = (Duration::ZERO, Err(SupervisedError::Cancelled));
            self.resolve(pool, item, cancelled);
        }
    }

    /// Counts one supervision event in `stat` and the ops sink.
    fn note(&self, stat: &mut u64, counter: &str, detail: impl Into<String>) {
        *stat += 1;
        if let Some(ops) = &self.policy.counters {
            ops.note(counter, detail);
        }
    }
}

/// The message of a caught panic payload (`String` or `&str`).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "<non-string panic payload>".to_string())
}

/// Runs one attempt: the chaos fault (if any), then `f(item)`, under
/// `token` when the policy is timed.
fn run_attempt<T, R, F: Fn(&T) -> R>(
    ctx: &Ctx<'_, T, R, F>,
    item: usize,
    chaos: Option<ChaosFault>,
    token: Option<&Arc<CancelToken>>,
) -> std::thread::Result<R> {
    let attempt = || {
        match chaos {
            Some(ChaosFault::Panic) => {
                std::panic::panic_any("chaos: injected worker panic".to_string())
            }
            Some(ChaosFault::Delay(d)) => {
                // Stall cooperatively, like a slow simulation observing
                // its token at scheduling boundaries.
                let end = Instant::now() + d;
                while let Some(left) = end.checked_duration_since(Instant::now()) {
                    if token.is_some_and(|t| t.is_cancelled()) {
                        std::panic::panic_any(Cancelled);
                    }
                    std::thread::sleep(left.min(Duration::from_millis(1)));
                }
            }
            None => {}
        }
        (ctx.f)(&ctx.items[item])
    };
    catch_unwind(AssertUnwindSafe(|| match token {
        Some(token) => with_cancel_token(token, attempt),
        None => attempt(),
    }))
}

/// One worker's life: pull attempts until the batch resolves, retire on
/// the first panic hosted (the supervisor respawns a replacement).
fn worker_loop<T, R, F: Fn(&T) -> R>(ctx: &Ctx<'_, T, R, F>) {
    let mut pool = ctx.lock();
    loop {
        if ctx.external_cancelled() {
            ctx.drain_cancelled(&mut pool);
        }
        let Some((item, attempt)) = pool.queue.pop_front() else {
            if pool.unresolved == 0 {
                break;
            }
            // Work is still in flight elsewhere (and may be re-queued);
            // stay available for retries.
            pool = ctx.changed.wait(pool).expect("pool poisoned");
            continue;
        };
        let chaos = ctx
            .policy
            .chaos
            .as_ref()
            .and_then(|hook| hook(item, attempt));
        if chaos.is_some() {
            let detail = format!("item {item} attempt {attempt}: {chaos:?}");
            ctx.note(
                &mut pool.stats.chaos_injected,
                "farm.chaos_injected",
                detail,
            );
        }
        let token = ctx.timed.then(|| match &ctx.policy.external {
            Some(parent) => CancelToken::child(parent),
            None => CancelToken::new(),
        });
        if let Some(token) = &token {
            pool.running.push(RunningAttempt {
                item,
                started: Instant::now(),
                token: Arc::clone(token),
                cancelled: false,
            });
        }
        drop(pool);

        let started = Instant::now();
        let outcome = run_attempt(ctx, item, chaos, token.as_ref());
        let wall = started.elapsed();
        pool = ctx.lock();
        if let Some(token) = &token {
            pool.running.retain(|r| !Arc::ptr_eq(&r.token, token));
        }
        let payload = match outcome {
            Ok(result) => {
                ctx.resolve(&mut pool, item, (wall, Ok(result)));
                continue;
            }
            Err(payload) => payload,
        };
        let was_cancel = payload.is::<Cancelled>();
        if ctx.external_cancelled() {
            ctx.resolve(&mut pool, item, (wall, Err(SupervisedError::Cancelled)));
        } else if attempt < ctx.policy.retry_budget {
            let what = if was_cancel {
                "deadline-cancelled"
            } else {
                "panicked"
            };
            let detail = format!("item {item}: attempt {attempt} {what}");
            ctx.note(&mut pool.stats.retries, "farm.retries", detail);
            pool.queue.push_back((item, attempt + 1));
        } else {
            let error = if was_cancel {
                SupervisedError::Deadline {
                    limit: ctx.policy.deadline.unwrap_or(Duration::ZERO),
                    attempts: attempt + 1,
                }
            } else {
                SupervisedError::Panicked(panic_message(payload.as_ref()))
            };
            ctx.resolve(&mut pool, item, (wall, Err(error)));
        }
        // This worker hosted an unwind: retire it. The attempt (if
        // retried) runs on a different or freshly spawned worker.
        break;
    }
    pool.live -= 1;
    ctx.changed.notify_all();
}

impl Farm {
    /// Fans `f(item)` over the worker pool under supervision:
    /// per-attempt deadlines, retries on a budget, worker respawn,
    /// external cancellation and deterministic chaos injection, per
    /// `policy`. With [`SupervisePolicy::default`] every item runs
    /// exactly once and a panic is captured as
    /// [`SupervisedError::Panicked`].
    ///
    /// Returns per-item `(wall, result)` pairs in submission order (the
    /// wall time is the last attempt's), the worker count, the batch
    /// wall time and the supervision statistics. Every item resolves —
    /// a permanently failing item carries its typed
    /// [`SupervisedError`]; the batch never hangs and never returns a
    /// hole.
    #[allow(clippy::type_complexity)]
    pub fn run_map_supervised<T, R, F>(
        &self,
        items: &[T],
        f: F,
        policy: &SupervisePolicy,
    ) -> (Vec<Resolved<R>>, usize, Duration, SuperviseStats)
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let started = Instant::now();
        let workers = self.workers().min(items.len()).max(1);
        let ctx = Ctx {
            items,
            f: &f,
            policy,
            timed: policy.deadline.is_some() || policy.external.is_some(),
            pool: Mutex::new(Pool {
                queue: (0..items.len()).map(|i| (i, 0)).collect(),
                running: Vec::new(),
                slots: items.iter().map(|_| None).collect(),
                unresolved: items.len(),
                live: workers,
                stats: SuperviseStats::default(),
            }),
            changed: Condvar::new(),
        };

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| worker_loop(&ctx));
            }
            // The calling thread is the supervisor: scan deadlines,
            // respawn retired workers, and settle external cancellation
            // until every slot is filled.
            let mut pool = ctx.lock();
            while pool.unresolved > 0 {
                if ctx.external_cancelled() {
                    ctx.drain_cancelled(&mut pool);
                }
                if let Some(deadline) = policy.deadline {
                    let pool = &mut *pool;
                    for attempt in &mut pool.running {
                        if !attempt.cancelled && attempt.started.elapsed() >= deadline {
                            attempt.token.cancel();
                            attempt.cancelled = true;
                            let detail = format!("item {} overran {deadline:?}", attempt.item);
                            let stat = &mut pool.stats.deadline_cancels;
                            ctx.note(stat, "farm.deadline_cancels", detail);
                        }
                    }
                }
                // A missing worker while work is unresolved means one
                // retired after hosting a panic: replace it.
                while pool.unresolved > 0 && pool.live < workers {
                    pool.live += 1;
                    let stat = &mut pool.stats.respawns;
                    ctx.note(stat, "farm.respawns", "replacing retired worker");
                    scope.spawn(|| worker_loop(&ctx));
                }
                pool = if ctx.timed {
                    ctx.changed
                        .wait_timeout(pool, policy.poll)
                        .expect("pool poisoned")
                        .0
                } else {
                    ctx.changed.wait(pool).expect("pool poisoned")
                };
            }
        });

        let pool = ctx.pool.into_inner().expect("pool poisoned");
        let results = pool
            .slots
            .into_iter()
            .map(|slot| slot.expect("every slot is filled"));
        (results.collect(), workers, started.elapsed(), pool.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::farm::ScenarioJob;
    use tve_core::ScheduleError;
    use tve_soc::{paper_schedules, run_scenario, ScenarioMetrics, SocConfig, SocTestPlan};

    fn mini_jobs() -> Vec<ScenarioJob> {
        let config = SocConfig {
            memory_words: 64,
            ..SocConfig::small()
        };
        let plan = SocTestPlan::small();
        paper_schedules()
            .into_iter()
            .map(|s| ScenarioJob::new(config.clone(), plan.clone(), s))
            .collect()
    }

    type ScenarioResults = Vec<Resolved<Result<ScenarioMetrics, ScheduleError>>>;

    /// The scenario jobs on `farm` under `policy`.
    fn run_jobs(
        farm: &Farm,
        jobs: &[ScenarioJob],
        policy: &SupervisePolicy,
    ) -> (ScenarioResults, SuperviseStats) {
        let (results, _, _, stats) = farm.run_map_supervised(
            jobs,
            |job| run_scenario(&job.config, &job.plan, &job.schedule),
            policy,
        );
        (results, stats)
    }

    fn digest(result: &Resolved<Result<ScenarioMetrics, ScheduleError>>) -> u64 {
        match &result.1 {
            Ok(Ok(metrics)) => metrics.digest(),
            other => panic!("job failed: {other:?}"),
        }
    }

    fn chaos(faults: Vec<((usize, usize), ChaosFault)>) -> ChaosHook {
        Arc::new(move |item, attempt| {
            faults
                .iter()
                .find(|((i, a), _)| *i == item && *a == attempt)
                .map(|(_, f)| *f)
        })
    }

    #[test]
    fn injected_panic_is_retried_and_results_match_unsupervised() {
        tve_sim::silence_cancelled_panics();
        let jobs = mini_jobs();
        let clean = Farm::with_workers(2).run(&jobs);
        let policy = SupervisePolicy::new()
            .with_chaos(chaos(vec![((1, 0), ChaosFault::Panic)]))
            .with_retry_budget(1);
        let (results, stats) = run_jobs(&Farm::with_workers(2), &jobs, &policy);
        assert!(
            results.iter().all(|(_, r)| matches!(r, Ok(Ok(_)))),
            "retry must heal a single injected fault"
        );
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.chaos_injected, 1);
        for (a, b) in clean.outcomes.iter().zip(&results) {
            assert_eq!(
                a.expect_metrics().digest(),
                digest(b),
                "job '{}' diverged under supervision",
                a.label
            );
        }
    }

    #[test]
    fn permanent_failure_is_typed_not_a_hang() {
        let farm = Farm::with_workers(2);
        let items = [0u32, 1, 2, 3];
        let policy = SupervisePolicy::new().with_retry_budget(2);
        let (results, _, _, stats) = farm.run_map_supervised(
            &items,
            |&n| {
                if n == 2 {
                    panic!("always broken");
                }
                n * 10
            },
            &policy,
        );
        assert_eq!(results.len(), 4, "no holes in the batch");
        assert_eq!(results[0].1.as_ref().unwrap(), &0);
        assert_eq!(results[1].1.as_ref().unwrap(), &10);
        match &results[2].1 {
            Err(SupervisedError::Panicked(msg)) => assert!(msg.contains("always broken")),
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert_eq!(results[3].1.as_ref().unwrap(), &30);
        // First attempt + 2 retries, all failed.
        assert_eq!(stats.retries, 2);
        // Each hosted panic retires a worker; replacements were spawned.
        assert!(stats.respawns >= 1, "stats: {stats:?}");
    }

    #[test]
    fn slow_worker_is_deadline_cancelled_then_retried() {
        tve_sim::silence_cancelled_panics();
        let farm = Farm::with_workers(2);
        let items = [1u32, 2, 3];
        let policy = SupervisePolicy::new()
            .with_deadline(Duration::from_millis(40))
            .with_retry_budget(1)
            .with_chaos(chaos(vec![(
                (1, 0),
                ChaosFault::Delay(Duration::from_secs(5)),
            )]));
        let started = Instant::now();
        let (results, _, _, stats) = farm.run_map_supervised(&items, |&n| n * 10, &policy);
        assert!(results.iter().all(|(_, r)| r.is_ok()), "retry must heal");
        assert_eq!(results[1].1.as_ref().unwrap(), &20);
        assert!(stats.deadline_cancels >= 1, "stats: {stats:?}");
        assert_eq!(stats.retries, 1);
        // The 5 s stall was cancelled, not waited out.
        assert!(started.elapsed() < Duration::from_secs(4));
    }

    #[test]
    fn simulation_overrunning_deadline_reports_typed_deadline_error() {
        tve_sim::silence_cancelled_panics();
        // A real kernel run large enough to exceed a tiny deadline: the
        // cancellation lands at a scheduling boundary, not mid-poll.
        let config = SocConfig::paper();
        let plan = SocTestPlan::paper();
        let schedule = paper_schedules().into_iter().next().unwrap();
        let jobs = vec![ScenarioJob::new(config, plan, schedule)];
        let policy = SupervisePolicy::new()
            .with_deadline(Duration::from_millis(1))
            .with_retry_budget(0)
            .with_poll(Duration::from_micros(200));
        let started = Instant::now();
        let (results, stats) = run_jobs(&Farm::with_workers(1), &jobs, &policy);
        match &results[0].1 {
            Err(SupervisedError::Deadline { attempts, .. }) => assert_eq!(*attempts, 1),
            other => panic!("expected Deadline, got {other:?}"),
        }
        assert!(stats.deadline_cancels >= 1);
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "cancellation must not wait for the full simulation"
        );
    }

    #[test]
    fn external_cancellation_resolves_everything_quickly() {
        tve_sim::silence_cancelled_panics();
        let farm = Farm::with_workers(1);
        let token = CancelToken::new();
        token.cancel();
        let items: Vec<u32> = (0..64).collect();
        let policy = SupervisePolicy::new().with_external(token);
        let (results, _, _, _) = farm.run_map_supervised(&items, |&n| n, &policy);
        assert_eq!(results.len(), 64);
        assert!(results
            .iter()
            .all(|(_, r)| matches!(r, Err(SupervisedError::Cancelled))));
    }

    #[test]
    fn worker_count_does_not_change_supervised_results() {
        tve_sim::silence_cancelled_panics();
        let jobs = mini_jobs();
        let hook = chaos(vec![
            ((0, 0), ChaosFault::Panic),
            ((2, 0), ChaosFault::Panic),
        ]);
        let policy = SupervisePolicy::new().with_chaos(hook).with_retry_budget(1);
        let (one, _) = run_jobs(&Farm::with_workers(1), &jobs, &policy);
        let (many, _) = run_jobs(&Farm::with_workers(8), &jobs, &policy);
        for (a, b) in one.iter().zip(&many) {
            assert_eq!(digest(a), digest(b));
        }
    }
}
