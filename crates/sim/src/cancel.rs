//! Cooperative cancellation for simulations.
//!
//! A [`CancelToken`] is a thread-safe flag that an external supervisor
//! (deadline watcher, shutdown path, chaos harness) trips to ask a running
//! simulation to stop. The kernel checks the token once per scheduling
//! boundary — each `advance` to the next distinct timestamp — so a
//! cancelled simulation stops at a deterministic, well-defined point
//! instead of mid-poll. The lone-runner advance, which lets a task move
//! time forward without returning to the run loop, declines once the
//! token is tripped, so even a task that never suspends reaches that
//! check.
//!
//! Cancellation is delivered by unwinding with the [`Cancelled`] payload
//! via [`std::panic::panic_any`]. The kernel's existing panic path retires
//! the in-flight task cleanly, so a cancelled [`Simulation`] drops without
//! leaking arena slots or timers. Supervisors (`tve-sched`'s supervised
//! farm, the `tve-serve` daemon) catch the unwind, downcast to
//! [`Cancelled`], and report a typed deadline error.
//!
//! Tokens reach the kernel through a thread-local: [`with_cancel_token`]
//! installs a token for the duration of a closure, and every
//! [`Simulation`] constructed inside picks it up at construction time.
//! This keeps the `Simulation` API unchanged for the overwhelmingly
//! common uncancellable case (the token field is simply `None`, and the
//! per-boundary check is a single branch).
//!
//! [`Simulation`]: crate::Simulation

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Once};

/// A thread-safe cancellation flag, optionally chained to a parent.
///
/// Child tokens (see [`CancelToken::child`]) observe their parent: a
/// supervisor can cancel one retry attempt without touching the job-level
/// token, while cancelling the job token cancels every attempt under it.
#[derive(Debug, Default)]
pub struct CancelToken {
    flag: AtomicBool,
    parent: Option<Arc<CancelToken>>,
}

impl CancelToken {
    /// Creates a fresh, untripped token.
    pub fn new() -> Arc<CancelToken> {
        Arc::new(CancelToken::default())
    }

    /// Creates a token that is also cancelled whenever `parent` is.
    pub fn child(parent: &Arc<CancelToken>) -> Arc<CancelToken> {
        Arc::new(CancelToken {
            flag: AtomicBool::new(false),
            parent: Some(Arc::clone(parent)),
        })
    }

    /// Trips the token. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// True once this token — or any ancestor — has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        if self.flag.load(Ordering::Acquire) {
            return true;
        }
        self.parent.as_ref().is_some_and(|p| p.is_cancelled())
    }
}

/// Panic payload used to unwind out of a cancelled simulation.
///
/// Catch with [`std::panic::catch_unwind`] and test the payload with
/// `payload.is::<Cancelled>()` to distinguish a deadline cancellation
/// from a genuine model panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

thread_local! {
    static CURRENT: RefCell<Option<Arc<CancelToken>>> = const { RefCell::new(None) };
}

/// Runs `f` with `token` installed as the thread's current cancel token.
///
/// Every [`Simulation`](crate::Simulation) constructed while `f` runs
/// captures the token and checks it at each scheduling boundary. Nesting
/// is supported; the previous token (if any) is restored when `f`
/// returns or unwinds.
pub fn with_cancel_token<R>(token: &Arc<CancelToken>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<CancelToken>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|c| *c.borrow_mut() = self.0.take());
        }
    }
    let prev = CURRENT.with(|c| c.borrow_mut().replace(Arc::clone(token)));
    let _restore = Restore(prev);
    f()
}

/// The token installed by the innermost active [`with_cancel_token`], if
/// any. Called by `Simulation::new` to capture the token at construction.
pub(crate) fn current_token() -> Option<Arc<CancelToken>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Suppresses the default panic-hook report for [`Cancelled`] unwinds.
///
/// Deadline cancellation is a routine, supervised event; without this the
/// default hook would print a `Box<dyn Any>` backtrace banner for every
/// cancelled attempt. Installs once per process (subsequent calls are
/// no-ops) and chains to the previously installed hook for all other
/// payloads, so genuine panics keep their diagnostics.
pub fn silence_cancelled_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<Cancelled>() {
                return;
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_starts_clear_and_trips_once() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn child_observes_parent_but_not_vice_versa() {
        let parent = CancelToken::new();
        let child = CancelToken::child(&parent);
        assert!(!child.is_cancelled());
        parent.cancel();
        assert!(child.is_cancelled());

        let parent2 = CancelToken::new();
        let child2 = CancelToken::child(&parent2);
        child2.cancel();
        assert!(child2.is_cancelled());
        assert!(!parent2.is_cancelled());
    }

    #[test]
    fn with_cancel_token_scopes_and_restores() {
        assert!(current_token().is_none());
        let outer = CancelToken::new();
        with_cancel_token(&outer, || {
            assert!(Arc::ptr_eq(&current_token().unwrap(), &outer));
            let inner = CancelToken::new();
            with_cancel_token(&inner, || {
                assert!(Arc::ptr_eq(&current_token().unwrap(), &inner));
            });
            assert!(Arc::ptr_eq(&current_token().unwrap(), &outer));
        });
        assert!(current_token().is_none());
    }
}
