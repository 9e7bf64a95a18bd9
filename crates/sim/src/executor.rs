//! The event-driven executor: task spawning, timed wakeups, and the
//! simulation run loop.
//!
//! # Kernel architecture
//!
//! Tasks live in a slab arena ([`crate::arena::TaskArena`]): a `Vec` of
//! generation-checked slots with an intrusive FIFO ready queue, so
//! spawning reuses slots and waking a task is a handful of index writes —
//! no per-wake allocation, no hashing. Timers are bucketed by timestamp
//! in a `BTreeMap<u64, Vec<TimerFire>>`: advancing time removes one
//! bucket and fires every same-timestamp wakeup in a single batch,
//! instead of one heap pop per entry. Wakeups carry packed
//! [`TaskId`](crate::arena::TaskId)s rather than cloned `Waker`s; the
//! `Waker` machinery remains only as a fallback for foreign futures.
//!
//! The kernel has one timing mode, cycle-accurate and byte-identical to
//! the pre-arena kernel (see `tests/kernel_digests.rs`). Its one fast
//! path is the *lone-runner advance* (`Kernel::lone_advance`): a timed
//! wait whose end no other process can act before moves `now` forward in
//! place instead of suspending. The wait still counts as a fired timer,
//! so every observable — time, wake order, [`Simulation::kernel_stats`]'s
//! timer count — is the one the event-driven path produces; only task
//! polls drop.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::arena::{LocalFuture, TaskArena, TaskId};
use crate::event::EventState;
use crate::time::{Duration, Time};

/// Identifier of a spawned process, usable for debugging and diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpawnId(pub u64);

impl fmt::Display for SpawnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task#{}", self.0)
    }
}

/// Packed id meaning "no current task".
const NO_TASK: u64 = u64::MAX;

/// What a timer does when it fires.
pub(crate) enum TimerFire {
    /// Wake the task with this packed [`TaskId`] (stale ids are inert).
    Task(u64),
    /// Fire a timed [`Event`](crate::Event) notification.
    Notify(std::rc::Weak<RefCell<EventState>>),
    /// Wake a foreign future's waker (fallback path).
    Waker(Waker),
}

/// The `Waker`-fallback side queue: wakes arriving through foreign
/// futures' cloned `Waker`s land here. The atomic flag lets the (hot)
/// kernel poll loop skip the mutex entirely while the queue is empty.
struct ExtQueue {
    nonempty: AtomicBool,
    queue: Mutex<Vec<u64>>,
}

/// `Waker` fallback for foreign futures: pushes the packed task id onto a
/// thread-safe side queue the kernel drains between polls. Kernel-owned
/// futures ([`Wait`], event and queue waits, [`JoinHandle`]) bypass this
/// entirely and register packed ids directly.
struct TaskWaker {
    packed: u64,
    ext: Arc<ExtQueue>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }
    fn wake_by_ref(self: &Arc<Self>) {
        self.ext
            .queue
            .lock()
            .expect("external wake queue poisoned")
            .push(self.packed);
        self.ext.nonempty.store(true, Ordering::Release);
    }
}

/// Kernel state shared between the [`Simulation`] driver, [`SimHandle`]s and
/// suspended futures.
pub(crate) struct Kernel {
    now: Cell<u64>,
    spawn_seq: Cell<u64>,
    polls: Cell<u64>,
    timers_fired: Cell<u64>,
    /// Pending timers bucketed by absolute firing time; within a bucket,
    /// entries fire in scheduling order (the old `(time, seq)` order).
    timers: RefCell<BTreeMap<u64, Vec<TimerFire>>>,
    /// The earliest key of `timers` (`u64::MAX` when empty), kept
    /// exact by `schedule` and `advance` so neither the lone-runner
    /// check nor `advance` walks the map to find it.
    earliest: Cell<u64>,
    /// Recycled bucket storage, so steady-state scheduling does not
    /// allocate a fresh `Vec` per distinct timestamp.
    bucket_pool: RefCell<Vec<Vec<TimerFire>>>,
    arena: RefCell<TaskArena>,
    /// Packed id of the task currently being polled ([`NO_TASK`] outside
    /// polls); how kernel futures find their owner without a `Waker`.
    current: Cell<u64>,
    pending_spawn: RefCell<Vec<LocalFuture>>,
    /// Side queue for wakes arriving through the `Waker` fallback
    /// (foreign futures); shared with wakers, which must be `Send + Sync`.
    ext: Arc<ExtQueue>,
    /// Horizon of the active [`Simulation::run_until`] call: no lone
    /// advance may carry `now` past it.
    horizon: Cell<u64>,
    /// Testing knob: max timers fired per batch before re-entering the
    /// poll loop (`usize::MAX` = drain whole bucket).
    batch_limit: Cell<usize>,
    /// Cancellation token captured from the thread at construction (see
    /// [`crate::with_cancel_token`]); `None` for uncancellable sims.
    cancel: Option<Arc<crate::CancelToken>>,
}

impl Kernel {
    fn new() -> Rc<Kernel> {
        Rc::new(Kernel {
            now: Cell::new(0),
            spawn_seq: Cell::new(0),
            polls: Cell::new(0),
            timers_fired: Cell::new(0),
            timers: RefCell::new(BTreeMap::new()),
            earliest: Cell::new(u64::MAX),
            bucket_pool: RefCell::new(Vec::new()),
            arena: RefCell::new(TaskArena::new()),
            current: Cell::new(NO_TASK),
            pending_spawn: RefCell::new(Vec::new()),
            ext: Arc::new(ExtQueue {
                nonempty: AtomicBool::new(false),
                queue: Mutex::new(Vec::new()),
            }),
            horizon: Cell::new(0),
            batch_limit: Cell::new(usize::MAX),
            cancel: crate::cancel::current_token(),
        })
    }

    /// Unwinds with [`crate::Cancelled`] if the kernel's token has been
    /// tripped. Called once per scheduling boundary in the run loop.
    fn check_cancelled(&self) {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                std::panic::panic_any(crate::Cancelled);
            }
        }
    }

    pub(crate) fn now(&self) -> u64 {
        self.now.get()
    }

    /// The task currently being polled, if any.
    pub(crate) fn current_task(&self) -> Option<TaskId> {
        let packed = self.current.get();
        (packed != NO_TASK).then(|| TaskId::unpack(packed))
    }

    /// The lone-runner advance: moves `now` to `deadline` in place — the
    /// polled task's timed wait completes without suspending — when the
    /// kernel can prove no other process acts before then. The five
    /// proof obligations:
    ///
    /// 1. a task is being polled (so it, and only it, is running);
    /// 2. nothing else is runnable: the ready queue is empty, no spawn is
    ///    pending and no external `Waker` wake is pending;
    /// 3. the earliest pending timer is *strictly* after `deadline` (a
    ///    timer at `deadline` itself fires first on the event path);
    /// 4. `deadline` is not past the active `run_until` horizon;
    /// 5. the cancel token is not tripped, so the run loop raises
    ///    [`crate::Cancelled`] exactly where it does without the advance.
    ///
    /// The advance counts as one fired timer, as the event path would.
    /// Returns whether it advanced; on `false` nothing changed.
    #[inline]
    pub(crate) fn lone_advance(&self, deadline: u64) -> bool {
        // On a busy kernel another timer is nearly always due first:
        // test that before anything that needs a borrow.
        if deadline >= self.earliest.get()
            || deadline <= self.now.get()
            || deadline > self.horizon.get()
            || self.current.get() == NO_TASK
            || !self.arena.borrow().ready_is_empty()
            || !self.pending_spawn.borrow().is_empty()
            || self.ext.nonempty.load(Ordering::Acquire)
            || self.cancel.as_ref().is_some_and(|t| t.is_cancelled())
        {
            return false;
        }
        self.now.set(deadline);
        self.timers_fired.set(self.timers_fired.get() + 1);
        true
    }

    /// Schedules `fire` at absolute cycle `time` (clamped to now).
    pub(crate) fn schedule(&self, time: u64, fire: TimerFire) {
        let time = time.max(self.now.get());
        if time < self.earliest.get() {
            self.earliest.set(time);
        }
        let mut timers = self.timers.borrow_mut();
        timers
            .entry(time)
            .or_insert_with(|| self.bucket_pool.borrow_mut().pop().unwrap_or_default())
            .push(fire);
    }

    /// Marks the task behind `packed` runnable (stale ids are inert).
    pub(crate) fn wake_packed(&self, packed: u64) {
        self.arena.borrow_mut().enqueue(TaskId::unpack(packed));
    }

    fn spawn_raw(&self, future: LocalFuture) -> u64 {
        let id = self.spawn_seq.get();
        self.spawn_seq.set(id + 1);
        self.pending_spawn.borrow_mut().push(future);
        id
    }

    /// Moves freshly spawned tasks into the arena and marks them ready.
    ///
    /// Spawns are deferred until after the spawning poll completes (the
    /// pre-arena kernel did the same), so wakes issued *during* a poll
    /// enter the ready queue ahead of tasks spawned by that poll,
    /// whatever their program order.
    fn install_spawned(&self) {
        loop {
            // Take one batch at a time: a spawned task's body runs only
            // when polled, so no re-entrancy — but keep the borrow short.
            if self.pending_spawn.borrow().is_empty() {
                return;
            }
            let spawned: Vec<_> = self.pending_spawn.borrow_mut().drain(..).collect();
            if spawned.is_empty() {
                return;
            }
            let mut arena = self.arena.borrow_mut();
            for future in spawned {
                let id = arena.insert(future);
                arena.enqueue(id);
            }
        }
    }

    /// Drains the `Waker`-fallback side queue into the ready queue.
    fn drain_external(&self) {
        if !self.ext.nonempty.swap(false, Ordering::Acquire) {
            return;
        }
        let mut ext = self.ext.queue.lock().expect("external wake queue poisoned");
        let mut arena = self.arena.borrow_mut();
        for packed in ext.drain(..) {
            arena.enqueue(TaskId::unpack(packed));
        }
    }

    /// Polls one task; returns `true` if it completed.
    fn poll_task(&self, id: TaskId) -> bool {
        // Check the future out of the arena so the task body may freely
        // spawn, wake and schedule without re-entrant borrows.
        let checked_out = self.arena.borrow_mut().checkout(id, || {
            Waker::from(Arc::new(TaskWaker {
                packed: id.pack(),
                ext: Arc::clone(&self.ext),
            }))
        });
        let Some((mut future, waker)) = checked_out else {
            return false; // already completed; stale wakeup
        };
        self.polls.set(self.polls.get() + 1);
        let prev = self.current.replace(id.pack());
        let mut cx = Context::from_waker(&waker);
        let poll = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            future.as_mut().poll(&mut cx)
        }));
        self.current.set(prev);
        match poll {
            Ok(Poll::Ready(())) => {
                self.arena.borrow_mut().remove(id);
                true
            }
            Ok(Poll::Pending) => {
                self.arena.borrow_mut().put_back(id, future, waker);
                false
            }
            Err(payload) => {
                // A panicking process is a model bug; retire the task so
                // the kernel stays consistent, then resume unwinding.
                self.arena.borrow_mut().remove(id);
                std::panic::resume_unwind(payload);
            }
        }
    }

    /// Runs every runnable task to quiescence at the current time.
    fn drain_ready(&self) {
        loop {
            self.install_spawned();
            self.drain_external();
            let Some(id) = self.arena.borrow_mut().pop_ready() else {
                break;
            };
            self.poll_task(id);
        }
    }

    /// Advances time to the earliest pending timer not beyond `horizon`
    /// and fires every timer scheduled for that instant in one batch.
    /// Returns `false` when no eligible timer exists.
    fn advance(&self, horizon: u64) -> bool {
        if self.timers.borrow().is_empty() {
            return false;
        }
        let next = self.earliest.get();
        if next > horizon {
            return false;
        }
        self.now.set(next);
        let limit = self.batch_limit.get();
        // Loop: firing can (via `schedule` clamping to now) append new
        // entries at this same timestamp; they belong to this instant.
        loop {
            let Some(mut bucket) = self.timers.borrow_mut().remove(&next) else {
                break;
            };
            if bucket.len() > limit {
                // Testing knob: re-insert the tail and fire only `limit`
                // entries this round.
                let rest = bucket.split_off(limit);
                self.timers.borrow_mut().insert(next, rest);
            }
            self.timers_fired
                .set(self.timers_fired.get() + bucket.len() as u64);
            for fire in bucket.drain(..) {
                match fire {
                    TimerFire::Task(packed) => self.wake_packed(packed),
                    TimerFire::Notify(state) => {
                        if let Some(state) = state.upgrade() {
                            EventState::fire(&state);
                        }
                    }
                    TimerFire::Waker(w) => w.wake(),
                }
            }
            self.bucket_pool.borrow_mut().push(bucket);
            if limit != usize::MAX {
                // With a batch limit, yield back to the poll loop after
                // each partial batch.
                break;
            }
        }
        let earliest = self.timers.borrow().keys().next().copied();
        self.earliest.set(earliest.unwrap_or(u64::MAX));
        true
    }

    fn live_tasks(&self) -> usize {
        self.arena.borrow().live() + self.pending_spawn.borrow().len()
    }
}

/// A cloneable handle through which model code interacts with the kernel:
/// reading time, waiting, and spawning further processes.
///
/// Handles are cheap to clone and are typically moved into each spawned
/// process.
#[derive(Clone)]
pub struct SimHandle {
    pub(crate) kernel: Rc<Kernel>,
}

impl fmt::Debug for SimHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimHandle")
            .field("now", &self.kernel.now())
            .finish()
    }
}

impl SimHandle {
    /// The current simulated time.
    pub fn now(&self) -> Time {
        Time::from_cycles(self.kernel.now())
    }

    /// Suspends the calling process for `d` cycles.
    ///
    /// A zero-length wait is a *delta wait*: the process yields and resumes
    /// at the same simulated time after other runnable processes have run.
    ///
    /// A nonzero wait completes in place, on its first poll, when the
    /// task is provably alone until its end (the lone-runner advance, see
    /// the module docs); every observable is the one the suspension would
    /// produce.
    pub fn wait(&self, d: Duration) -> Wait {
        self.wait_until(Time::from_cycles(
            self.kernel.now().saturating_add(d.as_cycles()),
        ))
    }

    /// Suspends the calling process until absolute time `t` (immediately
    /// resumes via a delta cycle if `t` is not in the future).
    pub fn wait_until(&self, t: Time) -> Wait {
        Wait {
            kernel: Rc::clone(&self.kernel),
            deadline: t.cycles(),
            state: WaitState::Init,
        }
    }

    /// Completes a wait of `d` without suspending, if possible; returns
    /// whether it did. On `false` nothing happened — take the ordinary
    /// `wait(d).await` path instead.
    ///
    /// This is the lone-runner advance: time moves by `d` in place when
    /// no other process can act before then, and the wait counts as a
    /// fired timer.
    pub fn try_local_wait(&self, d: Duration) -> bool {
        let k = &self.kernel;
        k.lone_advance(k.now().saturating_add(d.as_cycles()))
    }

    /// Gives back `d` cycles just consumed by a successful
    /// [`SimHandle::try_local_wait`]: rewinds time and the fired-timer
    /// count of the lone-runner advance. For all-or-nothing composition
    /// of synchronous fast paths: a channel may consume its occupancy
    /// before probing a downstream component, then refund it if that
    /// component declines. Only valid with no intervening waits by the
    /// same task.
    pub fn local_wait_undo(&self, d: Duration) {
        let k = &self.kernel;
        if k.current.get() == NO_TASK {
            return;
        }
        k.now.set(k.now.get().saturating_sub(d.as_cycles()));
        k.timers_fired.set(k.timers_fired.get() - 1);
    }

    /// Spawns a new process and returns a [`JoinHandle`] resolving to its
    /// output.
    pub fn spawn<F>(&self, future: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
    {
        let state: Rc<RefCell<JoinState<F::Output>>> = Rc::new(RefCell::new(JoinState {
            result: None,
            finished: false,
            waiters: Vec::new(),
            kernel: Rc::downgrade(&self.kernel),
        }));
        let state2 = Rc::clone(&state);
        let id = self.kernel.spawn_raw(Box::pin(async move {
            let out = future.await;
            let (waiters, kernel) = {
                let mut s = state2.borrow_mut();
                s.result = Some(out);
                s.finished = true;
                (std::mem::take(&mut s.waiters), s.kernel.clone())
            };
            wake_waiters(waiters, &kernel);
        }));
        JoinHandle {
            id: SpawnId(id),
            state,
        }
    }
}

/// A registered waiter: a kernel task (the fast path) or a foreign
/// future's waker.
pub(crate) enum Waiter {
    Task(u64),
    Ext(Waker),
}

/// Registers the current task (or, outside the kernel, `cx`'s waker) in
/// `waiters` — the common suspend path of every kernel primitive.
pub(crate) fn register_waiter(waiters: &mut Vec<Waiter>, kernel: &Weak<Kernel>, cx: &Context<'_>) {
    let current = kernel.upgrade().and_then(|k| k.current_task());
    match current {
        Some(id) => waiters.push(Waiter::Task(id.pack())),
        None => waiters.push(Waiter::Ext(cx.waker().clone())),
    }
}

/// Wakes every registered waiter, in registration order.
pub(crate) fn wake_waiters(waiters: Vec<Waiter>, kernel: &Weak<Kernel>) {
    let kernel = kernel.upgrade();
    for w in waiters {
        match w {
            Waiter::Task(packed) => {
                if let Some(k) = &kernel {
                    k.wake_packed(packed);
                }
            }
            Waiter::Ext(w) => w.wake(),
        }
    }
}

enum WaitState {
    /// Timer not yet registered.
    Init,
    /// Timer registered; waiting for the deadline.
    Registered,
    /// Completed in place by the lone-runner advance.
    Elapsed,
}

/// Future returned by [`SimHandle::wait`] / [`SimHandle::wait_until`].
#[must_use = "futures do nothing unless awaited"]
pub struct Wait {
    kernel: Rc<Kernel>,
    deadline: u64,
    state: WaitState,
}

impl Future for Wait {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        match self.state {
            WaitState::Elapsed => Poll::Ready(()),
            WaitState::Registered => {
                if self.kernel.now() >= self.deadline {
                    Poll::Ready(())
                } else {
                    // Spurious wake before the deadline: our timer is still
                    // pending and will wake us again.
                    Poll::Pending
                }
            }
            WaitState::Init => {
                if self.kernel.lone_advance(self.deadline) {
                    self.state = WaitState::Elapsed;
                    return Poll::Ready(());
                }
                self.state = WaitState::Registered;
                let fire = match self.kernel.current_task() {
                    Some(id) => TimerFire::Task(id.pack()),
                    None => TimerFire::Waker(cx.waker().clone()),
                };
                self.kernel.schedule(self.deadline, fire);
                Poll::Pending
            }
        }
    }
}

struct JoinState<T> {
    result: Option<T>,
    finished: bool,
    waiters: Vec<Waiter>,
    kernel: Weak<Kernel>,
}

/// Handle to a spawned process; awaiting it yields the process output.
///
/// Dropping the handle is fine — fire-and-forget processes (the norm for
/// model components) keep running without it.
///
/// # Panics
///
/// Awaiting the same handle after it already yielded its output panics, as
/// the output has been moved out.
pub struct JoinHandle<T> {
    id: SpawnId,
    state: Rc<RefCell<JoinState<T>>>,
}

impl<T> fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JoinHandle")
            .field("id", &self.id)
            .field("finished", &self.is_finished())
            .finish()
    }
}

impl<T> JoinHandle<T> {
    /// The spawn identifier of the underlying process.
    pub fn id(&self) -> SpawnId {
        self.id
    }

    /// Whether the process has run to completion.
    pub fn is_finished(&self) -> bool {
        self.state.borrow().finished
    }

    /// Takes the result if the process has completed (non-blocking).
    pub fn try_take(&self) -> Option<T> {
        self.state.borrow_mut().result.take()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut s = self.state.borrow_mut();
        if s.finished {
            match s.result.take() {
                Some(v) => Poll::Ready(v),
                None => panic!("JoinHandle polled after its output was taken"),
            }
        } else {
            let kernel = s.kernel.clone();
            register_waiter(&mut s.waiters, &kernel, cx);
            Poll::Pending
        }
    }
}

/// A deterministic discrete-event simulation.
///
/// Owns the kernel; processes are added with [`Simulation::spawn`] (or via
/// [`SimHandle::spawn`] from inside a running process) and executed by
/// [`Simulation::run`] / [`Simulation::run_until`].
///
/// ```
/// use tve_sim::{Simulation, Duration};
/// let mut sim = Simulation::new();
/// let h = sim.handle();
/// let order = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
/// for (i, delay) in [(0u32, 20u64), (1, 10)] {
///     let h = h.clone();
///     let order = order.clone();
///     sim.spawn(async move {
///         h.wait(Duration::cycles(delay)).await;
///         order.borrow_mut().push(i);
///     });
/// }
/// sim.run();
/// assert_eq!(*order.borrow(), vec![1, 0]); // temporal order, not spawn order
/// ```
pub struct Simulation {
    kernel: Rc<Kernel>,
}

impl fmt::Debug for Simulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.kernel.now())
            .field("live_tasks", &self.kernel.live_tasks())
            .finish()
    }
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulation {
    /// Creates an empty cycle-accurate simulation at time zero.
    pub fn new() -> Self {
        Simulation {
            kernel: Kernel::new(),
        }
    }

    /// The same as [`Simulation::new`]. The kernel has a single timing
    /// mode and reads no environment; this constructor remains because
    /// the standalone `perfbench` harness builds its simulators with it.
    pub fn from_env() -> Self {
        Self::new()
    }

    /// Testing/diagnostic knob: fire at most `limit` same-timestamp
    /// timers per batch before re-running ready tasks. Semantically
    /// inert — `tests/kernel_batch_prop.rs` proves traces are identical
    /// for limit 1 and unlimited — but useful for bisecting wakeup-order
    /// issues. `usize::MAX` (the default) drains whole buckets.
    pub fn set_timer_batch_limit(&mut self, limit: usize) {
        self.kernel.batch_limit.set(limit.max(1));
    }

    /// A handle for use by model code.
    pub fn handle(&self) -> SimHandle {
        SimHandle {
            kernel: Rc::clone(&self.kernel),
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> Time {
        Time::from_cycles(self.kernel.now())
    }

    /// Number of processes that have been spawned and not yet completed.
    pub fn live_tasks(&self) -> usize {
        self.kernel.live_tasks()
    }

    /// Kernel activity counters since construction: `(task polls, timer
    /// events fired)` — the event-density figures behind abstraction-level
    /// comparisons.
    pub fn kernel_stats(&self) -> (u64, u64) {
        (self.kernel.polls.get(), self.kernel.timers_fired.get())
    }

    /// Spawns a process; see [`SimHandle::spawn`].
    pub fn spawn<F>(&mut self, future: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
    {
        self.handle().spawn(future)
    }

    /// Runs until no further activity is possible (event-queue exhaustion).
    ///
    /// Processes still blocked on never-notified events remain suspended;
    /// [`Simulation::live_tasks`] reports them, which is how model-level
    /// deadlock is detected in tests.
    pub fn run(&mut self) -> Time {
        self.run_until(Time::MAX)
    }

    /// Runs until the event queue is exhausted or simulated time would pass
    /// `horizon`; returns the reached time.
    ///
    /// When stopping at the horizon, time is advanced to exactly `horizon`
    /// (unless `horizon` is [`Time::MAX`], which is treated as "no limit").
    pub fn run_until(&mut self, horizon: Time) -> Time {
        self.kernel.horizon.set(horizon.cycles());
        loop {
            self.kernel.check_cancelled();
            self.kernel.drain_ready();
            if !self.kernel.advance(horizon.cycles()) {
                break;
            }
        }
        if horizon != Time::MAX && self.kernel.now() < horizon.cycles() {
            // No event beyond this point: idle until the horizon.
            if self
                .kernel
                .timers
                .borrow()
                .keys()
                .next()
                .map(|&t| t > horizon.cycles())
                .unwrap_or(true)
            {
                self.kernel.now.set(horizon.cycles());
            }
        }
        self.now()
    }

    /// Runs for an additional `d` cycles of simulated time.
    pub fn run_for(&mut self, d: Duration) -> Time {
        let horizon = Time::from_cycles(self.kernel.now().saturating_add(d.as_cycles()));
        self.run_until(horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn empty_simulation_terminates_at_zero() {
        let mut sim = Simulation::new();
        assert_eq!(sim.run(), Time::ZERO);
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn single_wait_advances_time() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        sim.spawn(async move {
            h.wait(Duration::cycles(42)).await;
        });
        assert_eq!(sim.run(), Time::from_cycles(42));
    }

    #[test]
    fn sequential_waits_accumulate() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let handle = sim.spawn(async move {
            for _ in 0..5 {
                h.wait(Duration::cycles(10)).await;
            }
            h.now()
        });
        sim.run();
        assert_eq!(handle.try_take(), Some(Time::from_cycles(50)));
    }

    #[test]
    fn interleaving_is_temporal_then_spawn_order() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let log: Rc<RefCell<Vec<(u64, u32)>>> = Rc::new(RefCell::new(Vec::new()));
        for (i, delay) in [(0u32, 30u64), (1, 10), (2, 20), (3, 10)] {
            let h = h.clone();
            let log = Rc::clone(&log);
            sim.spawn(async move {
                h.wait(Duration::cycles(delay)).await;
                log.borrow_mut().push((h.now().cycles(), i));
            });
        }
        sim.run();
        // At time 10 tasks 1 and 3 fire in spawn (scheduling) order.
        assert_eq!(*log.borrow(), vec![(10, 1), (10, 3), (20, 2), (30, 0)]);
    }

    #[test]
    fn zero_wait_is_delta_yield() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let log: Rc<RefCell<Vec<&str>>> = Rc::new(RefCell::new(Vec::new()));
        {
            let log = Rc::clone(&log);
            let h2 = h.clone();
            sim.spawn(async move {
                log.borrow_mut().push("a1");
                h2.wait(Duration::ZERO).await;
                log.borrow_mut().push("a2");
            });
        }
        {
            let log = Rc::clone(&log);
            sim.spawn(async move {
                log.borrow_mut().push("b1");
            });
        }
        let end = sim.run();
        assert_eq!(end, Time::ZERO);
        assert_eq!(*log.borrow(), vec!["a1", "b1", "a2"]);
    }

    #[test]
    fn spawn_from_inside_process() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let outer = sim.spawn(async move {
            let h2 = h.clone();
            let child = h.spawn(async move {
                h2.wait(Duration::cycles(7)).await;
                h2.now().cycles()
            });
            child.await
        });
        sim.run();
        assert_eq!(outer.try_take(), Some(7));
    }

    #[test]
    fn join_handle_reports_finished() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let jh = sim.spawn(async move {
            h.wait(Duration::cycles(5)).await;
            123u32
        });
        assert!(!jh.is_finished());
        sim.run();
        assert!(jh.is_finished());
        assert_eq!(jh.try_take(), Some(123));
        assert_eq!(jh.try_take(), None);
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let done = Rc::new(Cell::new(false));
        let done2 = Rc::clone(&done);
        sim.spawn(async move {
            h.wait(Duration::cycles(100)).await;
            done2.set(true);
        });
        let t = sim.run_until(Time::from_cycles(50));
        assert_eq!(t, Time::from_cycles(50));
        assert!(!done.get());
        let t = sim.run();
        assert_eq!(t, Time::from_cycles(100));
        assert!(done.get());
    }

    #[test]
    fn run_for_is_relative() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        sim.spawn(async move {
            h.wait(Duration::cycles(1000)).await;
        });
        sim.run_for(Duration::cycles(10));
        assert_eq!(sim.now(), Time::from_cycles(10));
        sim.run_for(Duration::cycles(10));
        assert_eq!(sim.now(), Time::from_cycles(20));
        assert_eq!(sim.live_tasks(), 1);
    }

    #[test]
    fn blocked_task_counts_as_live_after_run() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let ev = crate::Event::new(&h);
        sim.spawn(async move {
            ev.wait().await; // never notified
        });
        sim.run();
        assert_eq!(sim.live_tasks(), 1);
    }

    #[test]
    fn determinism_two_identical_runs() {
        fn run_once() -> Vec<(u64, u32)> {
            let mut sim = Simulation::new();
            let h = sim.handle();
            let log: Rc<RefCell<Vec<(u64, u32)>>> = Rc::new(RefCell::new(Vec::new()));
            for i in 0..20u32 {
                let h = h.clone();
                let log = Rc::clone(&log);
                sim.spawn(async move {
                    for k in 0..10u64 {
                        h.wait(Duration::cycles((i as u64 * 7 + k * 3) % 11 + 1))
                            .await;
                        log.borrow_mut().push((h.now().cycles(), i));
                    }
                });
            }
            sim.run();
            let v = log.borrow().clone();
            v
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn task_panic_propagates_out_of_run() {
        // A panicking process is a model bug; the kernel does not swallow
        // it — the panic unwinds out of `run` with its original message.
        let result = std::panic::catch_unwind(|| {
            let mut sim = Simulation::new();
            let h = sim.handle();
            sim.spawn(async move {
                h.wait(Duration::cycles(5)).await;
                panic!("model bug at cycle 5");
            });
            sim.run();
        });
        let err = result.expect_err("panic must propagate");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(msg.contains("model bug"), "{msg}");
    }

    #[test]
    fn many_tasks_complete() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let count = Rc::new(Cell::new(0u32));
        for i in 0..1000u64 {
            let h = h.clone();
            let count = Rc::clone(&count);
            sim.spawn(async move {
                h.wait(Duration::cycles(i % 97)).await;
                count.set(count.get() + 1);
            });
        }
        sim.run();
        assert_eq!(count.get(), 1000);
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn slot_recycling_keeps_ids_distinct() {
        // Spawn waves of short-lived tasks so arena slots are recycled;
        // completions must be counted exactly once despite reuse.
        let mut sim = Simulation::new();
        let h = sim.handle();
        let count = Rc::new(Cell::new(0u32));
        {
            let h2 = h.clone();
            let count = Rc::clone(&count);
            sim.spawn(async move {
                for wave in 0..50u64 {
                    for _ in 0..10 {
                        let h3 = h2.clone();
                        let count = Rc::clone(&count);
                        h2.spawn(async move {
                            h3.wait(Duration::cycles(1)).await;
                            count.set(count.get() + 1);
                        });
                    }
                    h2.wait(Duration::cycles(wave % 3 + 1)).await;
                }
            });
        }
        sim.run();
        assert_eq!(count.get(), 500);
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn timer_at_the_wait_end_forces_the_event_path() {
        // The second task's wait ends exactly where the first one's timer
        // fires: it must suspend, so the first task's earlier-scheduled
        // timer still wakes first.
        let mut sim = Simulation::new();
        let h = sim.handle();
        let log: Rc<RefCell<Vec<(u64, &str)>>> = Rc::new(RefCell::new(Vec::new()));
        for name in ["first", "second"] {
            let h = h.clone();
            let log = Rc::clone(&log);
            sim.spawn(async move {
                h.wait(Duration::cycles(10)).await;
                log.borrow_mut().push((h.now().cycles(), name));
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![(10, "first"), (10, "second")]);
        assert_eq!(sim.kernel_stats(), (4, 2), "both waits suspended");
    }

    #[test]
    fn run_until_stops_a_lone_waiter_at_the_horizon() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let ticks = Rc::new(Cell::new(0u64));
        let t2 = Rc::clone(&ticks);
        sim.spawn(async move {
            loop {
                h.wait(Duration::cycles(1)).await;
                t2.set(t2.get() + 1);
            }
        });
        assert_eq!(sim.run_until(Time::from_cycles(50)), Time::from_cycles(50));
        assert_eq!(ticks.get(), 50);
        assert_eq!(sim.live_tasks(), 1, "the waiter is still pending");
        assert_eq!(sim.run_for(Duration::cycles(25)), Time::from_cycles(75));
        assert_eq!(ticks.get(), 75);
    }

    #[test]
    fn tripped_token_unwinds_an_endless_lone_task() {
        let token = crate::CancelToken::new();
        let result = std::panic::catch_unwind(|| {
            crate::with_cancel_token(&token, || {
                let mut sim = Simulation::new();
                let h = sim.handle();
                let token = Arc::clone(&token);
                sim.spawn(async move {
                    for tick in 0u64.. {
                        if tick == 1000 {
                            token.cancel();
                        }
                        h.wait(Duration::cycles(1)).await;
                    }
                });
                sim.run();
            })
        });
        let payload = result.expect_err("a tripped token must stop the run");
        assert!(payload.is::<crate::Cancelled>());
    }

    #[test]
    fn wake_or_spawn_earlier_in_the_poll_blocks_the_advance() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let log: Rc<RefCell<Vec<(u64, &str)>>> = Rc::new(RefCell::new(Vec::new()));
        let ev = crate::Event::new(&h);
        {
            let ev = ev.clone();
            let log = Rc::clone(&log);
            let h = h.clone();
            sim.spawn(async move {
                ev.wait().await;
                log.borrow_mut().push((h.now().cycles(), "woken"));
            });
        }
        {
            let log = Rc::clone(&log);
            let h = h.clone();
            sim.spawn(async move {
                h.wait(Duration::cycles(1)).await;
                ev.notify();
                h.wait(Duration::cycles(5)).await;
                log.borrow_mut().push((h.now().cycles(), "notifier"));
                let (h2, log2) = (h.clone(), Rc::clone(&log));
                h.spawn(async move {
                    log2.borrow_mut().push((h2.now().cycles(), "spawned"));
                });
                h.wait(Duration::cycles(5)).await;
                log.borrow_mut().push((h.now().cycles(), "spawner"));
            });
        }
        sim.run();
        assert_eq!(
            *log.borrow(),
            vec![
                (1, "woken"),
                (6, "notifier"),
                (6, "spawned"),
                (11, "spawner")
            ]
        );
    }

    #[test]
    fn lone_advances_count_as_timed_waits_and_undo_rewinds_them() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        assert!(!h.try_local_wait(Duration::cycles(3)), "outside a task");
        let h2 = h.clone();
        let jh = sim.spawn(async move {
            for _ in 0..10 {
                h2.wait(Duration::cycles(3)).await;
            }
            assert!(h2.try_local_wait(Duration::cycles(7)));
            assert_eq!(h2.now(), Time::from_cycles(37));
            h2.local_wait_undo(Duration::cycles(7));
            h2.now()
        });
        sim.run();
        assert_eq!(jh.try_take(), Some(Time::from_cycles(30)));
        assert_eq!(sim.now(), Time::from_cycles(30));
        assert_eq!(sim.kernel_stats(), (1, 10), "one poll, ten timed waits");
    }
}
