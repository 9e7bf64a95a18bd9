//! Operational counters for the serving infrastructure.
//!
//! The rest of this crate observes the *simulation* (simulated time,
//! transactions). This module observes the *infrastructure that runs
//! simulations*: worker respawns, job retries, deadline cancellations,
//! shed submissions. These are wall-clock-world events, so unlike trace
//! spans they are thread-safe and unkeyed.
//!
//! [`OpsCounters`] is a cheap, cloneable handle: named monotonic
//! counters plus a bounded ring of recent annotated events (the last
//! [`EVENT_RING`] `note`s), so a `stats` response can show not just
//! *how many* workers were respawned but *why* the recent ones were.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

use crate::json::{JsonObject, Layout};

/// Capacity of the recent-event ring; older events are dropped.
pub const EVENT_RING: usize = 256;

/// One annotated counter bump retained in the event ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpsEvent {
    /// The counter that was bumped.
    pub counter: String,
    /// Human-readable context ("worker 2 respawned after panic", …).
    pub detail: String,
}

#[derive(Default)]
struct OpsInner {
    counters: BTreeMap<String, u64>,
    events: VecDeque<OpsEvent>,
}

/// Shared, thread-safe named counters with a bounded event ring.
/// Clones share state.
#[derive(Clone, Default)]
pub struct OpsCounters {
    inner: Arc<Mutex<OpsInner>>,
}

impl OpsCounters {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        OpsCounters::default()
    }

    /// Adds `n` to `name` (creating it at 0) and returns the new value.
    pub fn add(&self, name: &str, n: u64) -> u64 {
        let mut inner = self.inner.lock().expect("ops lock poisoned");
        let slot = inner.counters.entry(name.to_string()).or_insert(0);
        *slot += n;
        *slot
    }

    /// Increments `name` by one and returns the new value.
    pub fn incr(&self, name: &str) -> u64 {
        self.add(name, 1)
    }

    /// Increments `name` and retains `detail` in the bounded event ring.
    pub fn note(&self, name: &str, detail: impl Into<String>) -> u64 {
        let mut inner = self.inner.lock().expect("ops lock poisoned");
        let slot = inner.counters.entry(name.to_string()).or_insert(0);
        *slot += 1;
        let value = *slot;
        if inner.events.len() == EVENT_RING {
            inner.events.pop_front();
        }
        inner.events.push_back(OpsEvent {
            counter: name.to_string(),
            detail: detail.into(),
        });
        value
    }

    /// Current value of `name` (0 when never bumped).
    pub fn get(&self, name: &str) -> u64 {
        self.inner
            .lock()
            .expect("ops lock poisoned")
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// All counters, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        self.inner
            .lock()
            .expect("ops lock poisoned")
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// The retained recent events, oldest first.
    pub fn recent_events(&self) -> Vec<OpsEvent> {
        self.inner
            .lock()
            .expect("ops lock poisoned")
            .events
            .iter()
            .cloned()
            .collect()
    }

    /// Renders the counters as a compact JSON object (`{}` when empty),
    /// keys in sorted order — deterministic given the same counts.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let mut obj = JsonObject::new(&mut out, Layout::SPACED);
        for (name, value) in self.snapshot() {
            obj.num(&name, value);
        }
        drop(obj);
        out
    }
}

impl std::fmt::Debug for OpsCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "OpsCounters{}", self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_sorted() {
        let ops = OpsCounters::new();
        assert_eq!(ops.incr("b.retries"), 1);
        assert_eq!(ops.add("a.sheds", 2), 2);
        assert_eq!(ops.incr("b.retries"), 2);
        assert_eq!(ops.get("b.retries"), 2);
        assert_eq!(ops.get("missing"), 0);
        assert_eq!(
            ops.snapshot(),
            vec![("a.sheds".to_string(), 2), ("b.retries".to_string(), 2)]
        );
        assert_eq!(ops.to_json(), r#"{"a.sheds": 2, "b.retries": 2}"#);
    }

    #[test]
    fn clones_share_state() {
        let ops = OpsCounters::new();
        let handle = ops.clone();
        handle.incr("x");
        assert_eq!(ops.get("x"), 1);
    }

    #[test]
    fn event_ring_is_bounded() {
        let ops = OpsCounters::new();
        for i in 0..(EVENT_RING + 10) {
            ops.note("respawns", format!("worker {i}"));
        }
        let events = ops.recent_events();
        assert_eq!(events.len(), EVENT_RING);
        assert_eq!(
            events.last().unwrap().detail,
            format!("worker {}", EVENT_RING + 9)
        );
        assert_eq!(ops.get("respawns"), (EVENT_RING + 10) as u64);
    }

    #[test]
    fn empty_counters_render_as_empty_object() {
        assert_eq!(OpsCounters::new().to_json(), "{}");
    }
}
