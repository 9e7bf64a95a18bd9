//! The shared-bus TAM channel.
//!
//! In the paper's case study the functional system bus is *reused* as the
//! test access mechanism; [`BusTam`] is that channel: word-oriented,
//! arbitrated, with address-range routing to bound targets and built-in
//! utilization monitoring. Because [`BusTam`] itself implements [`TamIf`],
//! TAMs can be layered hierarchically.

use std::cell::{Cell, Ref, RefCell};
use std::fmt;
use std::rc::Rc;

use tve_obs::{Counter, Recorder, SpanKind, SpanRecord};
use tve_sim::{Duration, SimHandle, Time};

use crate::arbiter::{Arbiter, ArbiterPolicy};
use crate::monitor::UtilizationMonitor;
use crate::payload::InitiatorId;
use crate::payload::{Command, ResponseStatus, Transaction};
use crate::power::PowerMeter;
use crate::transport::{DmiAccess, LocalBoxFuture, TamIf};

/// A channel's attachment to an observability [`Recorder`]: the shared
/// recorder plus pre-registered counter handles, so per-transfer bumps
/// never do name lookups on the hot path.
pub(crate) struct ChannelRecorder {
    pub(crate) rec: Rc<Recorder>,
    pub(crate) transfers: Counter,
    pub(crate) bits: Counter,
}

impl ChannelRecorder {
    pub(crate) fn new(channel: &str, rec: Rc<Recorder>) -> Self {
        let transfers = rec.metrics().counter(&format!("{channel}.transfers"));
        let bits = rec.metrics().counter(&format!("{channel}.bits"));
        ChannelRecorder {
            rec,
            transfers,
            bits,
        }
    }
}

/// The span label for a TAM command.
pub(crate) fn command_label(cmd: Command) -> &'static str {
    match cmd {
        Command::Read => "read",
        Command::Write => "write",
        Command::WriteRead => "write_read",
    }
}

/// A half-open address range `[base, base + size)` in the TAM address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AddrRange {
    base: u32,
    size: u32,
}

impl AddrRange {
    /// Creates the range `[base, base + size)`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or the range wraps the address space.
    pub fn new(base: u32, size: u32) -> Self {
        assert!(size > 0, "address range must be non-empty");
        assert!(base.checked_add(size - 1).is_some(), "address range wraps");
        AddrRange { base, size }
    }

    /// The first address.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// The range length.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Whether `addr` falls inside the range.
    pub fn contains(&self, addr: u32) -> bool {
        addr >= self.base && (addr - self.base) < self.size
    }

    /// Whether two ranges share any address.
    pub fn overlaps(&self, other: &AddrRange) -> bool {
        self.base < other.base.saturating_add(other.size)
            && other.base < self.base.saturating_add(self.size)
    }
}

impl fmt::Display for AddrRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:#x}, {:#x})",
            self.base,
            self.base as u64 + self.size as u64
        )
    }
}

/// Error returned by [`BusTam::bind`] when a mapping conflicts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BindError {
    /// The rejected range.
    pub range: AddrRange,
    /// The already-bound range it overlaps.
    pub conflict: AddrRange,
}

impl fmt::Display for BindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "range {} overlaps existing mapping {}",
            self.range, self.conflict
        )
    }
}

impl std::error::Error for BindError {}

/// Configuration of a [`BusTam`] channel.
#[derive(Debug, Clone)]
pub struct BusConfig {
    /// Channel name for diagnostics.
    pub name: String,
    /// Data bits moved per occupied cycle.
    pub width_bits: u32,
    /// Fixed per-transaction cycles (arbitration + address phase).
    pub overhead_cycles: u64,
    /// Arbitration policy among initiators.
    pub policy: ArbiterPolicy,
    /// Peak-utilization detection window.
    pub monitor_window: Duration,
    /// Maximum bits moved per granted burst; longer transfers re-arbitrate
    /// between chunks (each chunk pays `overhead_cycles` again). `None`
    /// grants whole transfers — simpler, but long scan bursts then starve
    /// short requesters.
    pub max_burst_bits: Option<u64>,
}

impl Default for BusConfig {
    fn default() -> Self {
        BusConfig {
            name: "bus".to_string(),
            width_bits: 32,
            overhead_cycles: 1,
            policy: ArbiterPolicy::Fcfs,
            monitor_window: Duration::cycles(65_536),
            max_burst_bits: None,
        }
    }
}

/// A shared-bus test access mechanism: arbitrated, bandwidth-accurate,
/// address-routed (paper Section III.A).
///
/// A transaction occupies the bus for
/// `overhead_cycles + ceil(bit_len / width_bits)` cycles, then is delivered
/// to the target bound at its address. Semantics are *split-transaction*:
/// the channel is released after the transfer, and a slow sink (e.g. a
/// wrapper whose pattern buffer is full) back-pressures its own initiator
/// without blocking other traffic — the interleaving effect that makes
/// concurrent schedules interesting to *simulate* rather than estimate.
pub struct BusTam {
    handle: SimHandle,
    cfg: BusConfig,
    arbiter: Arbiter,
    targets: RefCell<Vec<(AddrRange, Rc<dyn TamIf>)>>,
    /// Index of the target that served the last routed transaction; test
    /// traffic hammers one range at a time, so checking it first
    /// short-circuits address decode on the hot path.
    route_hint: Cell<usize>,
    /// `(bit_len, cycles)` memo for [`BusTam::occupancy_of`].
    occ_cache: Cell<(u64, u64)>,
    monitor: RefCell<UtilizationMonitor>,
    rejected: Cell<u64>,
    /// True once a power meter or recorder is attached; lets the
    /// per-transfer path skip two `RefCell` borrows on uninstrumented
    /// channels (the common case).
    instrumented: Cell<bool>,
    power: RefCell<Option<(Rc<RefCell<PowerMeter>>, f64)>>,
    recorder: RefCell<Option<ChannelRecorder>>,
}

impl fmt::Debug for BusTam {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BusTam")
            .field("name", &self.cfg.name)
            .field("width_bits", &self.cfg.width_bits)
            .field("targets", &self.targets.borrow().len())
            .finish()
    }
}

impl BusTam {
    /// Creates an unbound bus channel.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.width_bits` is zero.
    pub fn new(handle: &SimHandle, cfg: BusConfig) -> Self {
        assert!(cfg.width_bits > 0, "bus width must be positive");
        BusTam {
            handle: handle.clone(),
            arbiter: Arbiter::new(handle, cfg.policy),
            targets: RefCell::new(Vec::new()),
            route_hint: Cell::new(0),
            occ_cache: Cell::new((u64::MAX, 0)),
            monitor: RefCell::new(UtilizationMonitor::new(cfg.monitor_window)),
            rejected: Cell::new(0),
            instrumented: Cell::new(false),
            power: RefCell::new(None),
            recorder: RefCell::new(None),
            cfg,
        }
    }

    /// Attaches a power meter: every occupied transfer cycle draws
    /// `active_power`, attributed to the channel's name.
    pub fn attach_power_meter(&self, meter: Rc<RefCell<PowerMeter>>, active_power: f64) {
        *self.power.borrow_mut() = Some((meter, active_power));
        self.instrumented.set(true);
    }

    /// Attaches an observability recorder: every granted occupancy chunk
    /// becomes a [`tve_obs::SpanKind::Transfer`] span on this channel's
    /// track (1:1 with [`UtilizationMonitor::record_busy`] calls), and
    /// the `"<name>.transfers"` / `"<name>.bits"` counters accumulate in
    /// the recorder's metrics registry.
    pub fn attach_recorder(&self, recorder: Rc<Recorder>) {
        *self.recorder.borrow_mut() = Some(ChannelRecorder::new(&self.cfg.name, recorder));
        self.instrumented.set(true);
    }

    /// The channel configuration.
    pub fn config(&self) -> &BusConfig {
        &self.cfg
    }

    /// Binds `target` at `range` (the SystemC `bind` of the paper's Fig. 2).
    ///
    /// # Errors
    ///
    /// Returns [`BindError`] if `range` overlaps an existing mapping.
    pub fn bind(&self, range: AddrRange, target: Rc<dyn TamIf>) -> Result<(), BindError> {
        let mut targets = self.targets.borrow_mut();
        for (existing, _) in targets.iter() {
            if existing.overlaps(&range) {
                return Err(BindError {
                    range,
                    conflict: *existing,
                });
            }
        }
        targets.push((range, target));
        Ok(())
    }

    /// Number of bound targets.
    pub fn target_count(&self) -> usize {
        self.targets.borrow().len()
    }

    /// The channel's utilization monitor.
    pub fn monitor(&self) -> Ref<'_, UtilizationMonitor> {
        self.monitor.borrow()
    }

    /// Clears utilization statistics (e.g. between schedule runs).
    pub fn reset_monitor(&self) {
        self.monitor.borrow_mut().reset();
    }

    /// Marks the channel as observed (idle) up to `t`; see
    /// [`UtilizationMonitor::observe_until`].
    pub fn observe_monitor_until(&self, t: Time) {
        self.monitor.borrow_mut().observe_until(t);
    }

    /// Transactions that failed address decode.
    pub fn rejected_count(&self) -> u64 {
        self.rejected.get()
    }

    /// Cycles a transfer of `bit_len` bits occupies this bus.
    ///
    /// Memoizes the last `bit_len`: memory tests issue millions of
    /// same-size transfers and the `div_ceil` is a hardware divide.
    pub fn occupancy_of(&self, bit_len: u64) -> Duration {
        let (k, v) = self.occ_cache.get();
        if k == bit_len {
            return Duration::cycles(v);
        }
        let cycles = self.cfg.overhead_cycles + bit_len.div_ceil(self.cfg.width_bits as u64);
        self.occ_cache.set((bit_len, cycles));
        Duration::cycles(cycles)
    }

    /// Cold half of the per-chunk bookkeeping: power-meter and recorder
    /// updates for channels that attached either. Kept out of line so
    /// the common (uninstrumented) transfer never touches the two
    /// `Option` cells.
    #[cold]
    fn record_instrumentation(&self, txn: &Transaction, bits: u64, start: Time, dur: Duration) {
        if let Some((meter, p)) = &*self.power.borrow() {
            meter.borrow_mut().record(start, dur, *p, &self.cfg.name);
        }
        if let Some(obs) = &*self.recorder.borrow() {
            obs.rec.record_with(|| {
                SpanRecord::new(
                    SpanKind::Transfer,
                    self.cfg.name.as_str(),
                    command_label(txn.cmd),
                    start,
                    start + dur,
                )
                .with_initiator(txn.initiator.0)
                .with_bits(bits)
            });
            obs.transfers.inc();
            obs.bits.add(bits);
        }
    }

    /// Index of `addr`'s target in `targets`, trying the route hint
    /// before a linear scan.
    fn route_index(&self, targets: &[(AddrRange, Rc<dyn TamIf>)], addr: u32) -> Option<usize> {
        let hint = self.route_hint.get();
        if let Some((range, _)) = targets.get(hint) {
            if range.contains(addr) {
                return Some(hint);
            }
        }
        let i = targets.iter().position(|(range, _)| range.contains(addr))?;
        self.route_hint.set(i);
        Some(i)
    }

    /// Waits out a transfer's occupancy `dur` without suspending, if the
    /// kernel allows it ([`SimHandle::try_local_wait`]), and returns when
    /// the busy interval starts: the pre-advance time, exactly where
    /// [`TamIf::transport`] books it.
    fn consume_occupancy(&self, dur: Duration) -> Option<Time> {
        let before = self.handle.now();
        self.handle.try_local_wait(dur).then_some(before)
    }

    fn lookup(&self, addr: u32) -> Option<Rc<dyn TamIf>> {
        let targets = self.targets.borrow();
        self.route_index(&targets, addr)
            .map(|i| Rc::clone(&targets[i].1))
    }
}

/// A [`DmiAccess`] grant through a [`BusTam`]: each word access gates and
/// books the channel exactly like a single-word
/// [`TamIf::transport_sync_try`] — arbitration-idle check, a wait of the
/// 32-bit occupancy that completes without suspending, utilization-monitor
/// busy record — then delegates the data movement to the routed target's
/// own grant.
struct BusDmi {
    bus: Rc<BusTam>,
    inner: Rc<dyn DmiAccess>,
    /// `occupancy_of(32)`, precomputed: the bus config is immutable.
    occupancy: Duration,
    initiator: InitiatorId,
}

impl BusDmi {
    /// The gates of `transport_sync_try` up to and including consuming
    /// the channel occupancy without suspending. On `Some` the occupancy
    /// has been consumed and the busy interval starts at the returned
    /// time; a subsequent inner decline must refund it with
    /// `local_wait_undo`.
    fn channel_admit(&self) -> Option<Time> {
        // Instrumentation (power meter, span recorder) is recorded on
        // the transactional path only; decline so the fallback keeps
        // those records exact.
        if self.bus.instrumented.get() || !self.bus.arbiter.is_idle() {
            return None;
        }
        self.bus.consume_occupancy(self.occupancy)
    }

    /// The channel-side bookkeeping of a completed access, in the same
    /// order as `transport_sync_try`: acquire, record busy, release.
    fn channel_commit(&self, start: Time) {
        let granted = self.bus.arbiter.try_acquire(self.initiator);
        debug_assert!(granted, "DMI access raced the arbiter");
        self.bus
            .monitor
            .borrow_mut()
            .record_busy(start, self.occupancy, self.initiator);
        self.bus.arbiter.release();
    }
}

impl DmiAccess for BusDmi {
    fn dmi_read(&self, addr: u32) -> Option<u32> {
        let start = self.channel_admit()?;
        match self.inner.dmi_read(addr) {
            Some(word) => {
                self.channel_commit(start);
                Some(word)
            }
            None => {
                self.bus.handle.local_wait_undo(self.occupancy);
                None
            }
        }
    }

    fn dmi_write(&self, addr: u32, value: u32) -> bool {
        let Some(start) = self.channel_admit() else {
            return false;
        };
        if !self.inner.dmi_write(addr, value) {
            self.bus.handle.local_wait_undo(self.occupancy);
            return false;
        }
        self.channel_commit(start);
        true
    }

    fn access_time(&self) -> Duration {
        self.occupancy + self.inner.access_time()
    }
}

impl TamIf for BusTam {
    fn name(&self) -> &str {
        &self.cfg.name
    }

    fn transport<'a>(&'a self, txn: &'a mut Transaction) -> LocalBoxFuture<'a, ()> {
        Box::pin(async move {
            let target = self.lookup(txn.addr);
            // Burst segmentation: move the payload in chunks, releasing
            // the channel between them so short requesters interleave.
            let mut remaining = txn.bit_len;
            loop {
                let chunk = match self.cfg.max_burst_bits {
                    Some(mb) => remaining.min(mb.max(1)),
                    None => remaining,
                };
                self.arbiter.acquire(txn.initiator).await;
                let dur = self.occupancy_of(chunk);
                let start = self.handle.now();
                self.monitor
                    .borrow_mut()
                    .record_busy(start, dur, txn.initiator);
                if self.instrumented.get() {
                    self.record_instrumentation(txn, chunk, start, dur);
                }
                self.handle.wait(dur).await;
                // Split-transaction semantics: the channel is released
                // after each transfer; target-side acceptance (e.g. a
                // wrapper waiting for a free pattern buffer) happens off
                // the bus, so a slow sink back-pressures its initiator
                // without blocking other traffic.
                self.arbiter.release();
                remaining -= chunk;
                if remaining == 0 {
                    break;
                }
            }
            match target {
                Some(target) => target.transport(txn).await,
                None => {
                    self.rejected.set(self.rejected.get() + 1);
                    txn.status = ResponseStatus::AddressError;
                }
            }
        })
    }

    /// Single-pass fast path: the gate checks and the transfer share one
    /// route lookup and one arbiter touch. The routed component runs
    /// first so a decline can refund the consumed occupancy and leave no
    /// trace on this channel; synchronous targets never consume channel
    /// time, so the reordering is not observable in the monitor.
    ///
    /// The path needs the lone-runner advance to take the occupancy
    /// without suspending, and declines on instrumented channels: the
    /// power meter's floating-point sums depend on the transactional
    /// record order (channel before target).
    fn transport_sync_try(&self, txn: &mut Transaction) -> bool {
        if self.instrumented.get() {
            return false;
        }
        // Burst segmentation re-arbitrates between chunks; keep that on
        // the event-driven path.
        if self
            .cfg
            .max_burst_bits
            .is_some_and(|mb| txn.bit_len > mb.max(1))
        {
            return false;
        }
        if !self.arbiter.is_idle() {
            return false;
        }
        let dur = self.occupancy_of(txn.bit_len);
        let Some(start) = self.consume_occupancy(dur) else {
            return false;
        };
        let targets = self.targets.borrow();
        let routed = self.route_index(&targets, txn.addr);
        if let Some(i) = routed {
            if !targets[i].1.transport_sync_try(txn) {
                // Rare: the routed component declined after the channel
                // time was consumed; refund it (all-or-nothing).
                self.handle.local_wait_undo(dur);
                return false;
            }
        }
        let granted = self.arbiter.try_acquire(txn.initiator);
        debug_assert!(granted, "transport_sync_try raced the arbiter");
        self.monitor
            .borrow_mut()
            .record_busy(start, dur, txn.initiator);
        self.arbiter.release();
        if routed.is_none() {
            self.rejected.set(self.rejected.get() + 1);
            txn.status = ResponseStatus::AddressError;
        }
        true
    }

    /// Grants DMI when the whole window routes into one target that
    /// itself grants. Declines on instrumented channels (power/recorder
    /// records stay on the transactional path) and when burst
    /// segmentation would split a 32-bit access.
    fn dmi_window(
        self: Rc<Self>,
        base: u32,
        words: u32,
        initiator: InitiatorId,
    ) -> Option<Rc<dyn DmiAccess>> {
        if words == 0 || self.instrumented.get() {
            return None;
        }
        if self.cfg.max_burst_bits.is_some_and(|mb| mb.max(1) < 32) {
            return None;
        }
        let end = base.checked_add(words - 1)?;
        let target = {
            let targets = self.targets.borrow();
            let i = self.route_index(&targets, base)?;
            let (range, target) = &targets[i];
            if !range.contains(end) {
                return None;
            }
            Rc::clone(target)
        };
        let inner = target.dmi_window(base, words, initiator)?;
        let occupancy = self.occupancy_of(32);
        Some(Rc::new(BusDmi {
            bus: self,
            inner,
            occupancy,
            initiator,
        }))
    }
}

/// A permissive test target: accepts any command instantly, serves zeroed
/// data on reads, and counts traffic. Useful for tests, examples and
/// utilization experiments.
#[derive(Debug)]
pub struct SinkTarget {
    name: String,
    transactions: Cell<u64>,
    bits: Cell<u64>,
}

impl SinkTarget {
    /// Creates a named sink.
    pub fn new(name: impl Into<String>) -> Self {
        SinkTarget {
            name: name.into(),
            transactions: Cell::new(0),
            bits: Cell::new(0),
        }
    }

    /// Transactions absorbed so far.
    pub fn transaction_count(&self) -> u64 {
        self.transactions.get()
    }

    /// Payload bits absorbed so far.
    pub fn bit_count(&self) -> u64 {
        self.bits.get()
    }
}

impl TamIf for SinkTarget {
    fn name(&self) -> &str {
        &self.name
    }

    fn transport<'a>(&'a self, txn: &'a mut Transaction) -> LocalBoxFuture<'a, ()> {
        Box::pin(async move {
            self.transport_sync_try(txn);
        })
    }

    /// A sink consumes no time and never suspends: always completes.
    fn transport_sync_try(&self, txn: &mut Transaction) -> bool {
        self.transactions.set(self.transactions.get() + 1);
        self.bits.set(self.bits.get() + txn.bit_len);
        if matches!(txn.cmd, Command::Read | Command::WriteRead) && !txn.data.is_empty() {
            txn.data.iter_mut().for_each(|w| *w = 0);
        } else if matches!(txn.cmd, Command::Read) {
            txn.data = vec![0; (txn.bit_len as usize).div_ceil(32)];
        }
        txn.status = ResponseStatus::Ok;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::InitiatorId;
    use crate::transport::TamIfExt;
    use tve_sim::Simulation;

    fn setup() -> (Simulation, Rc<BusTam>, Rc<SinkTarget>) {
        let sim = Simulation::new();
        let h = sim.handle();
        let bus = Rc::new(BusTam::new(&h, BusConfig::default()));
        let sink = Rc::new(SinkTarget::new("sink"));
        bus.bind(
            AddrRange::new(0x1000, 0x1000),
            Rc::clone(&sink) as Rc<dyn TamIf>,
        )
        .unwrap();
        (sim, bus, sink)
    }

    #[test]
    fn addr_range_semantics() {
        let r = AddrRange::new(0x100, 0x10);
        assert!(r.contains(0x100));
        assert!(r.contains(0x10F));
        assert!(!r.contains(0x110));
        assert!(!r.contains(0xFF));
        assert!(r.overlaps(&AddrRange::new(0x10F, 1)));
        assert!(!r.overlaps(&AddrRange::new(0x110, 0x10)));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_size_range_panics() {
        let _ = AddrRange::new(0, 0);
    }

    #[test]
    fn transfer_timing_is_width_accurate() {
        let (mut sim, bus, _) = setup();
        let b = Rc::clone(&bus);
        sim.spawn(async move {
            // 128 bits over a 32-bit bus + 1 overhead = 5 cycles.
            b.write(InitiatorId(0), 0x1000, &[1, 2, 3, 4], 128)
                .await
                .unwrap();
        });
        assert_eq!(sim.run().cycles(), 5);
        assert_eq!(bus.monitor().total_busy_cycles(), 5);
        assert_eq!(bus.occupancy_of(128), Duration::cycles(5));
    }

    #[test]
    fn unmapped_address_reports_error_and_counts() {
        let (mut sim, bus, _) = setup();
        let b = Rc::clone(&bus);
        let jh = sim.spawn(async move { b.write(InitiatorId(0), 0x9999_0000, &[1], 32).await });
        sim.run();
        let err = jh.try_take().unwrap().unwrap_err();
        assert_eq!(err.status, ResponseStatus::AddressError);
        assert_eq!(bus.rejected_count(), 1);
    }

    #[test]
    fn overlapping_bind_is_rejected() {
        let (_sim, bus, _) = setup();
        let err = bus
            .bind(AddrRange::new(0x1800, 0x10), Rc::new(SinkTarget::new("x")))
            .unwrap_err();
        assert_eq!(err.conflict, AddrRange::new(0x1000, 0x1000));
        assert_eq!(bus.target_count(), 1);
    }

    #[test]
    fn contention_serializes_and_is_fully_accounted() {
        let (mut sim, bus, sink) = setup();
        for i in 0..3u8 {
            let b = Rc::clone(&bus);
            sim.spawn(async move {
                // each: 1 + 320/32 = 11 cycles
                b.transfer_volume(InitiatorId(i), Command::Write, 0x1000, 320)
                    .await
                    .unwrap();
            });
        }
        assert_eq!(sim.run().cycles(), 33);
        assert_eq!(bus.monitor().total_busy_cycles(), 33);
        assert_eq!(bus.monitor().transfer_count(), 3);
        assert_eq!(sink.transaction_count(), 3);
        assert_eq!(sink.bit_count(), 960);
        // Saturated channel: peak utilization 100 % over the busy window.
        assert!(bus.monitor().average_utilization(sim.now()) > 0.99);
    }

    #[test]
    fn volume_only_transactions_cost_the_same_time() {
        let (mut sim, bus, _) = setup();
        let b = Rc::clone(&bus);
        sim.spawn(async move {
            b.transfer_volume(InitiatorId(0), Command::Write, 0x1000, 128)
                .await
                .unwrap();
        });
        assert_eq!(sim.run().cycles(), 5);
    }

    #[test]
    fn burst_segmentation_pays_overhead_per_chunk() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let bus = Rc::new(BusTam::new(
            &h,
            BusConfig {
                max_burst_bits: Some(32),
                ..BusConfig::default()
            },
        ));
        bus.bind(AddrRange::new(0, 0x10), Rc::new(SinkTarget::new("s")))
            .unwrap();
        let b = Rc::clone(&bus);
        sim.spawn(async move {
            b.transfer_volume(InitiatorId(0), Command::Write, 0, 128)
                .await
                .unwrap();
        });
        // 4 chunks x (1 overhead + 1 transfer) = 8 cycles (vs 5 whole).
        assert_eq!(sim.run().cycles(), 8);
        assert_eq!(bus.monitor().total_busy_cycles(), 8);
        assert_eq!(bus.monitor().transfer_count(), 4);
    }

    #[test]
    fn segmentation_bounds_short_requester_latency() {
        fn short_op_done_at(max_burst: Option<u64>) -> u64 {
            let mut sim = Simulation::new();
            let h = sim.handle();
            let bus = Rc::new(BusTam::new(
                &h,
                BusConfig {
                    max_burst_bits: max_burst,
                    ..BusConfig::default()
                },
            ));
            bus.bind(AddrRange::new(0, 0x10), Rc::new(SinkTarget::new("s")))
                .unwrap();
            // A long 4096-bit burst starts first...
            {
                let b = Rc::clone(&bus);
                sim.spawn(async move {
                    b.transfer_volume(InitiatorId(0), Command::Write, 0, 4096)
                        .await
                        .unwrap();
                });
            }
            // ...then a 32-bit op arrives one delta later.
            let b = Rc::clone(&bus);
            let h2 = h.clone();
            let jh = sim.spawn(async move {
                h2.wait(Duration::cycles(1)).await;
                b.transfer_volume(InitiatorId(1), Command::Write, 0, 32)
                    .await
                    .unwrap();
                h2.now().cycles()
            });
            sim.run();
            jh.try_take().unwrap()
        }
        let whole = short_op_done_at(None);
        let segmented = short_op_done_at(Some(256));
        assert_eq!(whole, 131, "waits for the entire 129-cycle burst");
        assert!(
            segmented <= 15,
            "segmented bus must interleave quickly, got {segmented}"
        );
    }

    #[test]
    fn recorder_spans_mirror_the_monitor_exactly() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let bus = Rc::new(BusTam::new(
            &h,
            BusConfig {
                max_burst_bits: Some(64),
                ..BusConfig::default()
            },
        ));
        bus.bind(
            AddrRange::new(0x1000, 0x1000),
            Rc::new(SinkTarget::new("s")),
        )
        .unwrap();
        let rec = Rc::new(tve_obs::Recorder::unbounded());
        bus.attach_recorder(Rc::clone(&rec));
        for i in 0..3u8 {
            let b = Rc::clone(&bus);
            sim.spawn(async move {
                b.transfer_volume(InitiatorId(i), Command::Write, 0x1000, 160)
                    .await
                    .unwrap();
            });
        }
        sim.run();
        let log = rec.take_log();
        // One span per monitor-recorded chunk, same busy cycles.
        assert_eq!(log.spans.len() as u64, bus.monitor().transfer_count());
        let span_busy: u64 = log.spans.iter().map(|s| s.duration().as_cycles()).sum();
        assert_eq!(span_busy, bus.monitor().total_busy_cycles());
        let u = tve_obs::utilization_from_spans(
            log.spans.iter(),
            bus.config().monitor_window.as_cycles(),
            bus.monitor().last_activity_end(),
        );
        assert_eq!(u.peak(), bus.monitor().peak_utilization());
        assert_eq!(
            u.average(),
            bus.monitor()
                .average_utilization(bus.monitor().last_activity_end())
        );
        for (ini, busy) in bus.monitor().per_initiator() {
            assert_eq!(
                u.per_initiator.iter().find(|&&(i, _)| i == ini.0),
                Some(&(ini.0, busy))
            );
        }
        // Counters accumulated alongside.
        assert_eq!(
            log.counters,
            vec![
                ("bus.transfers".to_string(), log.spans.len() as u64),
                ("bus.bits".to_string(), 480),
            ]
        );
    }

    #[test]
    fn disabled_recorder_changes_nothing_and_stores_nothing() {
        let (mut sim, bus, _) = setup();
        let rec = Rc::new(tve_obs::Recorder::disabled());
        bus.attach_recorder(Rc::clone(&rec));
        let b = Rc::clone(&bus);
        sim.spawn(async move {
            b.write(InitiatorId(0), 0x1000, &[1, 2, 3, 4], 128)
                .await
                .unwrap();
        });
        assert_eq!(sim.run().cycles(), 5);
        assert_eq!(rec.span_count(), 0);
        // Counters still count (they are cheap plain cells).
        assert_eq!(rec.metrics().counter("bus.transfers").get(), 1);
    }

    /// A target that declines every synchronous transfer, counting the
    /// declines, and completes the event-driven one after `latency`.
    struct DecliningTarget {
        handle: SimHandle,
        latency: Duration,
        declines: Cell<u64>,
    }

    impl TamIf for DecliningTarget {
        fn name(&self) -> &str {
            "declining"
        }

        fn transport<'a>(&'a self, txn: &'a mut Transaction) -> LocalBoxFuture<'a, ()> {
            Box::pin(async move {
                self.handle.wait(self.latency).await;
                txn.status = ResponseStatus::Ok;
            })
        }

        fn transport_sync_try(&self, _txn: &mut Transaction) -> bool {
            self.declines.set(self.declines.get() + 1);
            false
        }
    }

    #[test]
    fn declined_sync_transfer_is_refunded_to_the_event_driven_result() {
        /// One 32-bit write through the bus to a [`DecliningTarget`],
        /// optionally with a ticker task due every cycle until the write
        /// is done, which keeps every wait on the event path. Returns the
        /// completion time, the write's own fired timed waits (the
        /// ticker's are subtracted), the monitor's transfer count and
        /// busy cycles, whether the arbiter ended idle, and the target's
        /// decline count.
        fn write_once(with_ticker: bool) -> ((Time, u64, u64, u64, bool), u64) {
            let mut sim = Simulation::new();
            let h = sim.handle();
            let bus = Rc::new(BusTam::new(&h, BusConfig::default()));
            let target = Rc::new(DecliningTarget {
                handle: h.clone(),
                latency: Duration::cycles(3),
                declines: Cell::new(0),
            });
            bus.bind(
                AddrRange::new(0x1000, 0x10),
                Rc::clone(&target) as Rc<dyn TamIf>,
            )
            .unwrap();
            let done = Rc::new(Cell::new(false));
            let ticks = Rc::new(Cell::new(0u64));
            let jh = {
                let (b, h, done) = (Rc::clone(&bus), h.clone(), Rc::clone(&done));
                sim.spawn(async move {
                    b.write(InitiatorId(0), 0x1000, &[7], 32).await.unwrap();
                    done.set(true);
                    h.now()
                })
            };
            if with_ticker {
                let ticks = Rc::clone(&ticks);
                sim.spawn(async move {
                    while !done.get() {
                        h.wait(Duration::cycles(1)).await;
                        ticks.set(ticks.get() + 1);
                    }
                });
            }
            sim.run();
            let m = bus.monitor();
            let observed = (
                jh.try_take().expect("write completed"),
                sim.kernel_stats().1 - ticks.get(),
                m.transfer_count(),
                m.total_busy_cycles(),
                bus.arbiter.is_idle(),
            );
            (observed, target.declines.get())
        }

        let (lone, lone_declines) = write_once(false);
        let (reference, reference_declines) = write_once(true);
        // 2 cycles of bus occupancy, then the target's 3 cycles.
        assert_eq!(reference, (Time::from_cycles(5), 2, 1, 2, true));
        assert_eq!(
            lone, reference,
            "the refund restores the event-driven result"
        );
        assert_eq!(
            lone_declines, 1,
            "the lone write consumed the occupancy, was declined and refunded"
        );
        assert_eq!(
            reference_declines, 0,
            "with the ticker the bus declines before probing the target"
        );
    }

    #[test]
    fn hierarchical_buses_compose() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let outer = Rc::new(BusTam::new(&h, BusConfig::default()));
        let inner = Rc::new(BusTam::new(
            &h,
            BusConfig {
                name: "inner".to_string(),
                width_bits: 8,
                ..BusConfig::default()
            },
        ));
        let sink = Rc::new(SinkTarget::new("leaf"));
        inner
            .bind(
                AddrRange::new(0x2000, 0x100),
                Rc::clone(&sink) as Rc<dyn TamIf>,
            )
            .unwrap();
        outer
            .bind(
                AddrRange::new(0x2000, 0x1000),
                Rc::clone(&inner) as Rc<dyn TamIf>,
            )
            .unwrap();
        let o = Rc::clone(&outer);
        sim.spawn(async move {
            o.write(InitiatorId(0), 0x2000, &[0xAA], 32).await.unwrap();
        });
        // outer: 1 + 1 = 2 cycles; inner: 1 + 4 = 5 cycles.
        assert_eq!(sim.run().cycles(), 7);
        assert_eq!(sink.transaction_count(), 1);
    }
}
