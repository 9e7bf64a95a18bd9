//! The on-chip test controller (paper Section III.E): drives the memory
//! array BIST (march + pattern tests) over the TAM.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

use tve_memtest::{MarchOp, MarchOrder, MarchTest, PatternTest};
use tve_obs::{Recorder, SpanKind, SpanRecord};
use tve_sim::{Duration, SimHandle};
use tve_tlm::{Command, DmiAccess, InitiatorId, TamError, TamIf, TamIfExt};

use crate::model::DataPolicy;
use crate::outcome::TestOutcome;

/// Plan for a memory test sequence: the march algorithm, optional pattern
/// tests, the memory's TAM window, and per-operation cost.
#[derive(Debug, Clone)]
pub struct MemoryTestPlan {
    /// Sequence name.
    pub name: String,
    /// The march algorithm.
    pub march: MarchTest,
    /// Background pattern tests appended after the march.
    pub patterns: Vec<PatternTest>,
    /// TAM base address of the memory window (word addressed: word `i`
    /// lives at `base_addr + i`).
    pub base_addr: u32,
    /// Number of words under test.
    pub words: u32,
    /// Engine overhead per operation, on top of the TAM access itself —
    /// the knob that distinguishes the dedicated BIST controller (test 6)
    /// from the processor-driven variant (test 7).
    pub op_overhead: Duration,
    /// In-flight operation queue depth. `1` models a blocking engine (each
    /// access completes before the next issues — the processor-driven
    /// variant); larger depths model a pipelined BIST FSM with posted
    /// accesses, which keeps requesting under bus contention and can
    /// therefore saturate a shared TAM.
    pub posted_depth: usize,
    /// Volume or full-data simulation.
    pub policy: DataPolicy,
}

impl MemoryTestPlan {
    /// Total operations this plan performs.
    pub fn total_ops(&self) -> u64 {
        let march = self.march.total_ops(self.words as u64);
        let patterns: u64 = self
            .patterns
            .iter()
            .map(|p| p.ops_per_cell() * self.words as u64)
            .sum();
        march + patterns
    }
}

/// The test controller TLM: a TAM initiator executing [`MemoryTestPlan`]s.
///
/// The same component models the paper's test 7 (processor-driven march
/// from a program in L1 cache) with a larger `op_overhead` — the
/// architectural difference the paper's schedule comparison turns on.
#[derive(Clone)]
pub struct TestController {
    handle: SimHandle,
    name: String,
    tam: Rc<dyn TamIf>,
    initiator: InitiatorId,
    recorder: RefCell<Option<Rc<Recorder>>>,
}

impl fmt::Debug for TestController {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TestController")
            .field("name", &self.name)
            .field("initiator", &self.initiator)
            .finish()
    }
}

impl TestController {
    /// Creates a controller injecting into `tam` as `initiator`.
    pub fn new(
        handle: &SimHandle,
        name: impl Into<String>,
        tam: Rc<dyn TamIf>,
        initiator: InitiatorId,
    ) -> Self {
        TestController {
            handle: handle.clone(),
            name: name.into(),
            tam,
            initiator,
            recorder: RefCell::new(None),
        }
    }

    /// Attaches an observability recorder: each executed plan becomes a
    /// [`tve_obs::SpanKind::Test`] span on the `ctrl/<name>` track.
    pub fn attach_recorder(&self, recorder: Rc<Recorder>) {
        *self.recorder.borrow_mut() = Some(recorder);
    }

    /// The controller name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Waits out the engine overhead of one operation, without a `Wait`
    /// future when the kernel lets the wait complete in place.
    async fn overhead(&self, d: Duration) {
        if !self.handle.try_local_wait(d) {
            self.handle.wait(d).await;
        }
    }

    /// Performs `op` through the transactional path and books it in `out`.
    /// `out` is borrowed only after the transfer, so another process may
    /// book into the same outcome while this one is suspended.
    async fn bus_op(&self, plan: &MemoryTestPlan, out: &RefCell<TestOutcome>, op: MemOp) {
        let addr = plan.base_addr + op.addr;
        let volume = plan.policy == DataPolicy::Volume;
        match op.write {
            Some(value) => {
                let result = if volume {
                    self.tam
                        .transfer_volume(self.initiator, Command::Write, addr, 32)
                        .await
                } else {
                    self.tam.write(self.initiator, addr, &[value], 32).await
                };
                let mut out = out.borrow_mut();
                out.patterns += 1;
                out.stimulus_bits += 32;
                out.errors += u64::from(result.is_err());
            }
            None if volume => {
                let result = self
                    .tam
                    .transfer_volume(self.initiator, Command::Read, addr, 32)
                    .await;
                book_read(&mut out.borrow_mut(), result.map(|()| None), op);
            }
            None => {
                let result = self.tam.read(self.initiator, addr, 32).await;
                let word = result.map(|words| Some(words.first().copied().unwrap_or(!op.expect)));
                book_read(&mut out.borrow_mut(), word, op);
            }
        }
    }

    /// Executes the full plan (march, then pattern tests) and returns its
    /// outcome; `patterns` in the outcome counts memory operations.
    pub async fn run_memory_test(&self, plan: &MemoryTestPlan) -> TestOutcome {
        let out = if plan.posted_depth > 1 {
            self.run_posted(plan).await
        } else {
            self.run_blocking(plan).await
        };
        if let Some(rec) = &*self.recorder.borrow() {
            rec.record_with(|| {
                SpanRecord::new(
                    SpanKind::Test,
                    format!("ctrl/{}", self.name),
                    out.name.clone(),
                    out.start,
                    out.end,
                )
                .with_initiator(self.initiator.0)
                .with_bits(out.stimulus_bits + out.response_bits)
            });
        }
        out
    }

    /// The DMI grant over the plan's word window, if the TAM offers one.
    /// A march hammers that window with single-word accesses; the grant
    /// lets each operation skip the transaction build and per-op
    /// interface walk. Every granting layer replicates its observable
    /// side effects (simulated time, bus utilization, power, counters)
    /// per op or declines the op, so results are identical either way
    /// (`tests/kernel_digests.rs`, `tests/lone_runner_equivalence.rs`).
    fn dmi_window(&self, plan: &MemoryTestPlan) -> Option<Rc<dyn DmiAccess>> {
        Rc::clone(&self.tam).dmi_window(plan.base_addr, plan.words, self.initiator)
    }

    /// Blocking engine: each operation waits out the engine overhead,
    /// then completes its access — over the DMI grant when it admits
    /// the access, through the transactional path otherwise.
    async fn run_blocking(&self, plan: &MemoryTestPlan) -> TestOutcome {
        let out = RefCell::new(TestOutcome::begin(&plan.name, self.handle.now()));
        let dmi = self.dmi_window(plan);
        for op in plan.ops() {
            self.overhead(plan.op_overhead).await;
            if !dmi
                .as_ref()
                .is_some_and(|w| dmi_op(w.as_ref(), plan, &out, op))
            {
                self.bus_op(plan, &out, op).await;
            }
        }
        let mut out = out.into_inner();
        out.end = self.handle.now();
        out
    }

    /// Pipelined engine: an address generator issues one operation per
    /// `op_overhead` cycles into a bounded queue; an access unit drains the
    /// queue onto the TAM. Under contention the queue backlogs, so the
    /// engine keeps a request pending at the bus.
    ///
    /// Inline lane (accurate mode): when the access unit is parked on an
    /// empty queue and an access takes less than `op_overhead`, the access
    /// unit would finish the operation before the next one issues. The
    /// generator then performs it itself through the DMI grant — which
    /// admits it only when no other process can act during the access —
    /// and waits only the rest of the overhead. Both write one shared
    /// outcome in operation order, so counts and the order of failing
    /// addresses are the queue's. A declined access leaves no trace and
    /// goes through the queue.
    async fn run_posted(&self, plan: &MemoryTestPlan) -> TestOutcome {
        let start = self.handle.now();
        let out = Rc::new(RefCell::new(TestOutcome::begin(&plan.name, start)));
        let queue: tve_sim::Fifo<Option<MemOp>> =
            tve_sim::Fifo::new(&self.handle, plan.posted_depth);
        let parked = Rc::new(Cell::new(false));
        let consumer = {
            let queue = queue.clone();
            let plan = plan.clone();
            let this = self.clone();
            let out = Rc::clone(&out);
            let parked = Rc::clone(&parked);
            self.handle.spawn(async move {
                loop {
                    // Uncontended fast path: skip the suspension future
                    // when an item is already queued.
                    let next = match queue.try_pop() {
                        Some(v) => v,
                        None => {
                            parked.set(true);
                            let v = queue.pop().await;
                            parked.set(false);
                            v
                        }
                    };
                    let Some(op) = next else {
                        break;
                    };
                    this.bus_op(&plan, &out, op).await;
                }
            })
        };
        let inline = self.dmi_window(plan).filter(|w| {
            !self.handle.lt_active()
                && w.access_time() > Duration::ZERO
                && w.access_time() < plan.op_overhead
        });
        // Time the previous operation already spent in the inline lane.
        let mut spent = Duration::ZERO;
        for op in plan.ops() {
            self.overhead(plan.op_overhead - spent).await;
            spent = Duration::ZERO;
            if let Some(w) = &inline {
                if parked.get() && queue.is_empty() && dmi_op(w.as_ref(), plan, &out, op) {
                    spent = w.access_time();
                    continue;
                }
            }
            if let Err(v) = queue.try_push(Some(op)) {
                queue.push(v).await;
            }
        }
        queue.push(None).await;
        consumer.await;
        let mut out = out.borrow().clone();
        out.start = start;
        out.end = self.handle.now();
        out
    }
}

/// Performs `op` over a DMI grant and books it in `out`; `false`, with no
/// trace, when the grant declines. The bookkeeping mirrors
/// [`TestController::bus_op`] exactly; a granted access cannot fail, so
/// the error counter has no DMI arm.
fn dmi_op(
    window: &dyn DmiAccess,
    plan: &MemoryTestPlan,
    out: &RefCell<TestOutcome>,
    op: MemOp,
) -> bool {
    let addr = plan.base_addr + op.addr;
    let volume = plan.policy == DataPolicy::Volume;
    match op.write {
        Some(value) => {
            // Volume mode carries no data: the transactional path writes
            // zeroes through `is_volume_only`, so mirror that here.
            if !window.dmi_write(addr, if volume { 0 } else { value }) {
                return false;
            }
            let mut out = out.borrow_mut();
            out.patterns += 1;
            out.stimulus_bits += 32;
        }
        None => {
            let Some(word) = window.dmi_read(addr) else {
                return false;
            };
            book_read(&mut out.borrow_mut(), Ok((!volume).then_some(word)), op);
        }
    }
    true
}

/// Books one completed read: `Ok(Some(word))` is compared against the
/// expected value, `Ok(None)` is a volume-only read, `Err` a transport
/// error.
fn book_read(out: &mut TestOutcome, word: Result<Option<u32>, TamError>, op: MemOp) {
    out.patterns += 1;
    out.response_bits += 32;
    match word {
        Ok(Some(word)) if word != op.expect => {
            out.mismatches += 1;
            if out.failing_addresses.len() < 32 && !out.failing_addresses.contains(&op.addr) {
                out.failing_addresses.push(op.addr);
            }
        }
        Ok(_) => {}
        Err(_) => out.errors += 1,
    }
}

/// One memory-test operation: a write of `write`, or (when `write` is
/// `None`) a read expecting `expect`.
#[derive(Debug, Clone, Copy)]
struct MemOp {
    addr: u32,
    write: Option<u32>,
    expect: u32,
}

impl MemoryTestPlan {
    /// Iterates the full operation sequence (march elements, then pattern
    /// tests) in execution order.
    fn ops(&self) -> impl Iterator<Item = MemOp> + '_ {
        let n = self.words;
        let march = self.march.elements().iter().flat_map(move |elem| {
            let addrs: Vec<u32> = match elem.order {
                MarchOrder::Ascending | MarchOrder::Any => (0..n).collect(),
                MarchOrder::Descending => (0..n).rev().collect(),
            };
            // Shared slice: cloning a `Vec` per address would allocate on
            // every word of the array.
            let ops: Rc<[MarchOp]> = elem.ops.as_slice().into();
            addrs.into_iter().flat_map(move |addr| {
                let ops = Rc::clone(&ops);
                (0..ops.len()).map(move |i| match ops[i] {
                    MarchOp::W0 => MemOp {
                        addr,
                        write: Some(0),
                        expect: 0,
                    },
                    MarchOp::W1 => MemOp {
                        addr,
                        write: Some(u32::MAX),
                        expect: 0,
                    },
                    MarchOp::R0 => MemOp {
                        addr,
                        write: None,
                        expect: 0,
                    },
                    MarchOp::R1 => MemOp {
                        addr,
                        write: None,
                        expect: u32::MAX,
                    },
                })
            })
        });
        let patterns = self.patterns.iter().flat_map(move |p| {
            let p = *p;
            let writes = (0..n).map(move |addr| MemOp {
                addr,
                write: Some(p.background(addr)),
                expect: 0,
            });
            let reads = (0..n).map(move |addr| MemOp {
                addr,
                write: None,
                expect: p.background(addr),
            });
            writes.chain(reads)
        });
        march.chain(patterns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};
    use tve_memtest::{Fault, MemoryArray};
    use tve_sim::Simulation;
    use tve_tlm::{LocalBoxFuture, ResponseStatus, Transaction};

    /// A minimal word-RAM TAM target backed by a real `MemoryArray`.
    struct RamTarget {
        mem: RefCell<MemoryArray>,
    }

    impl TamIf for RamTarget {
        fn name(&self) -> &str {
            "ram"
        }
        fn transport<'a>(&'a self, txn: &'a mut Transaction) -> LocalBoxFuture<'a, ()> {
            Box::pin(async move {
                let mut mem = self.mem.borrow_mut();
                match txn.cmd {
                    Command::Write => {
                        let v = txn.data.first().copied().unwrap_or(0);
                        mem.write(txn.addr, v);
                    }
                    Command::Read => {
                        let v = mem.read(txn.addr);
                        txn.data = vec![v];
                    }
                    Command::WriteRead => {
                        let v = txn.data.first().copied().unwrap_or(0);
                        let old = mem.read(txn.addr);
                        mem.write(txn.addr, v);
                        txn.data = vec![old];
                    }
                }
                txn.status = ResponseStatus::Ok;
            })
        }
    }

    fn plan(words: u32, policy: DataPolicy) -> MemoryTestPlan {
        MemoryTestPlan {
            name: "memtest".to_string(),
            march: MarchTest::mats_plus(),
            patterns: vec![PatternTest::Checkerboard, PatternTest::AddressInData],
            base_addr: 0,
            words,
            op_overhead: Duration::cycles(5),
            posted_depth: 1,
            policy,
        }
    }

    fn run(policy: DataPolicy, faults: Vec<Fault>, words: u32) -> TestOutcome {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let mut mem = MemoryArray::new(words as usize);
        for f in faults {
            mem.inject(f);
        }
        let ram = Rc::new(RamTarget {
            mem: RefCell::new(mem),
        });
        let ctrl = TestController::new(&h, "ctrl", ram as Rc<dyn TamIf>, InitiatorId(5));
        let p = plan(words, policy);
        let jh = sim.spawn(async move { ctrl.run_memory_test(&p).await });
        sim.run();
        jh.try_take().unwrap()
    }

    #[test]
    fn op_count_matches_plan() {
        let p = plan(32, DataPolicy::Volume);
        // MATS+ = 5 ops/cell, two pattern tests = 4 ops/cell.
        assert_eq!(p.total_ops(), 32 * 9);
        let out = run(DataPolicy::Volume, vec![], 32);
        assert_eq!(out.patterns, 32 * 9);
        assert!(out.clean());
    }

    #[test]
    fn fault_free_memory_passes_full_mode() {
        let out = run(DataPolicy::Full, vec![], 32);
        assert_eq!(out.mismatches, 0);
        assert_eq!(out.errors, 0);
    }

    #[test]
    fn stuck_at_is_detected_in_full_mode() {
        let out = run(DataPolicy::Full, vec![Fault::stuck_at(7, 3, true)], 32);
        assert!(out.mismatches > 0);
    }

    #[test]
    fn address_alias_is_detected_in_full_mode() {
        let out = run(DataPolicy::Full, vec![Fault::address_alias(2, 20)], 32);
        assert!(out.mismatches > 0);
    }

    /// A [`RamTarget`] that also grants DMI, counting direct accesses so
    /// tests can assert the fast path actually engaged.
    struct DmiRam {
        mem: RefCell<MemoryArray>,
        dmi_ops: Cell<u64>,
    }

    impl TamIf for DmiRam {
        fn name(&self) -> &str {
            "dmi-ram"
        }
        fn transport<'a>(&'a self, txn: &'a mut Transaction) -> LocalBoxFuture<'a, ()> {
            Box::pin(async move {
                let mut mem = self.mem.borrow_mut();
                match txn.cmd {
                    Command::Write => {
                        mem.write(txn.addr, txn.data.first().copied().unwrap_or(0));
                    }
                    Command::Read => txn.data = vec![mem.read(txn.addr)],
                    Command::WriteRead => unreachable!("marches never write-read"),
                }
                txn.status = ResponseStatus::Ok;
            })
        }
        fn dmi_window(
            self: Rc<Self>,
            _base: u32,
            _words: u32,
            _initiator: InitiatorId,
        ) -> Option<Rc<dyn DmiAccess>> {
            Some(self)
        }
    }

    impl DmiAccess for DmiRam {
        fn dmi_read(&self, addr: u32) -> Option<u32> {
            self.dmi_ops.set(self.dmi_ops.get() + 1);
            Some(self.mem.borrow_mut().read(addr))
        }
        fn dmi_write(&self, addr: u32, value: u32) -> bool {
            self.dmi_ops.set(self.dmi_ops.get() + 1);
            self.mem.borrow_mut().write(addr, value);
            true
        }
    }

    #[test]
    fn quantum_march_runs_over_dmi_with_identical_outcome() {
        let faults = vec![Fault::stuck_at(7, 3, true)];
        let accurate = run(DataPolicy::Full, faults.clone(), 32);

        let mut sim = Simulation::with_quantum(Duration::cycles(10_000));
        let h = sim.handle();
        let mut mem = MemoryArray::new(32);
        for f in faults {
            mem.inject(f);
        }
        let ram = Rc::new(DmiRam {
            mem: RefCell::new(mem),
            dmi_ops: Cell::new(0),
        });
        let ctrl =
            TestController::new(&h, "ctrl", Rc::clone(&ram) as Rc<dyn TamIf>, InitiatorId(5));
        let p = plan(32, DataPolicy::Full);
        let total = p.total_ops();
        let jh = sim.spawn(async move { ctrl.run_memory_test(&p).await });
        sim.run();
        let out = jh.try_take().unwrap();

        assert_eq!(ram.dmi_ops.get(), total, "every op took the DMI path");
        assert_eq!(out.patterns, accurate.patterns);
        assert_eq!(out.stimulus_bits, accurate.stimulus_bits);
        assert_eq!(out.response_bits, accurate.response_bits);
        assert_eq!(out.mismatches, accurate.mismatches);
        assert_eq!(out.errors, accurate.errors);
        assert_eq!(out.failing_addresses, accurate.failing_addresses);
        assert_eq!(
            out.duration(),
            accurate.duration(),
            "DMI must absorb exactly the transactional path's time"
        );
    }

    #[test]
    fn volume_mode_cannot_see_faults_but_keeps_timing() {
        let faulty = run(DataPolicy::Volume, vec![Fault::stuck_at(7, 3, true)], 32);
        let clean = run(DataPolicy::Volume, vec![], 32);
        assert_eq!(faulty.mismatches, 0, "volume mode carries no data");
        assert_eq!(faulty.duration(), clean.duration());
        // 9 ops/cell x 32 words x 5 cycles overhead (RAM target is instant).
        assert_eq!(clean.duration().as_cycles(), 9 * 32 * 5);
    }
}
