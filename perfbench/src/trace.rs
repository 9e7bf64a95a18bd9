//! The benchmark's own wall-clock spans, recorded around its calls into
//! each layer. Spans are kept in memory and written out when the run
//! ends; with tracing off, opening a span costs one branch.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. `parent` and `trace` are 0 for none.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    /// Shared by every span of one request, cell or job.
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer::new(false)
    }

    /// Whether spans are recorded: traced passes take a scenario or a
    /// campaign apart at its layers, untraced passes call the library's
    /// entry point whole.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Opens a span that closes when the guard drops. With tracing off the
    /// guard's id is 0 and nothing is recorded.
    pub fn span(&self, name: &'static str, parent: u64, trace: u64) -> Guard<'_> {
        if !self.on {
            return Guard {
                tracer: self,
                id: 0,
                parent,
                trace,
                name,
                start_ns: 0,
            };
        }
        Guard {
            tracer: self,
            // Relaxed: ids only need to be unique, they publish nothing.
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            trace,
            name,
            start_ns: self.now_ns(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer lock"))
    }
}

pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    trace: u64,
    name: &'static str,
    start_ns: u64,
}

impl Guard<'_> {
    /// This span's id, the `parent` of spans opened inside it.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let span = Span {
            id: self.id,
            parent: self.parent,
            trace: self.trace,
            name: self.name,
            start_ns: self.start_ns,
            end_ns: self.tracer.now_ns(),
        };
        // A poisoned buffer only loses spans; never panic in drop.
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// Time per span name: `(count, total_s, self_s)`. A span's self time is
/// its duration minus the part of it its children's intervals cover
/// (children may overlap, e.g. jobs on parallel workers).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get(&s.id)
            .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
        let entry = out.entry(s.name).or_default();
        entry.0 += 1;
        entry.1 += total as f64 / 1e9;
        entry.2 += total.saturating_sub(covered) as f64 / 1e9;
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// The spans as a JSON array, one span per line.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.trace, s.name, s.start_ns, s.end_ns
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            trace: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(1, 0, "pass", 0, 100),
            span(2, 1, "job", 10, 60),
            span(3, 1, "job", 40, 90),
            span(4, 2, "exec", 20, 50),
        ];
        let t = self_times(&spans);
        // pass: 100 ns minus the union 10..90 of its two jobs.
        assert!((t["pass"].2 - 20e-9).abs() < 1e-15);
        // jobs: 50 + 50 ns, one of which contains a 30 ns child.
        assert_eq!(t["job"].0, 2);
        assert!((t["job"].2 - 70e-9).abs() < 1e-15);
        assert!((t["exec"].2 - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::off();
        {
            let outer = tracer.span("outer", 0, 0);
            assert_eq!(outer.id(), 0);
            let _inner = tracer.span("inner", outer.id(), 0);
        }
        assert!(tracer.take().is_empty());
        let tracer = Tracer::new(true);
        {
            let outer = tracer.span("outer", 0, 7);
            let _inner = tracer.span("inner", outer.id(), 7);
        }
        let spans = tracer.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].parent, spans[1].id);
    }
}
