//! The IEEE-1500-style test wrapper TLM (paper Fig. 3).
//!
//! A wrapper is a thin shell around a core. Its wrapper instruction
//! register (WIR) is written over the configuration scan ring; depending on
//! the configured mode, TAM transactions are forwarded to the core
//! (functional/bypass) or interpreted as test data (test modes).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

use tve_obs::{Gauge, Histogram, Recorder, SpanKind, SpanRecord};
use tve_sim::{Duration, SimHandle, Time};
use tve_tlm::{
    Command, DmiAccess, InitiatorId, LocalBoxFuture, PowerMeter, ResponseStatus, TamIf, Transaction,
};
use tve_tpg::{BitVec, Misr};

use crate::config_bus::ConfigClient;
use crate::model::{CoreModel, StuckCell};

/// Wrapper operation mode, decoded from the low WIR bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WrapperMode {
    /// Transparent: transactions are forwarded to the core.
    #[default]
    Functional,
    /// Pass-through with a one-cycle bypass register delay.
    Bypass,
    /// Internal logic test: TAM data is scanned through the core chains;
    /// responses are returned over the TAM.
    IntTest,
    /// External (interconnect) test through the boundary cells.
    ExtTest,
    /// Internal test with responses compacted into the wrapper-local MISR
    /// (the logic-BIST configuration).
    Bist,
}

impl WrapperMode {
    /// The WIR encoding of this mode.
    pub fn encode(self) -> u64 {
        match self {
            WrapperMode::Functional => 0,
            WrapperMode::Bypass => 1,
            WrapperMode::IntTest => 2,
            WrapperMode::ExtTest => 3,
            WrapperMode::Bist => 4,
        }
    }

    /// Decodes a WIR value; unknown encodings are `None`.
    pub fn decode(wir: u64) -> Option<Self> {
        match wir & 0x7 {
            0 => Some(WrapperMode::Functional),
            1 => Some(WrapperMode::Bypass),
            2 => Some(WrapperMode::IntTest),
            3 => Some(WrapperMode::ExtTest),
            4 => Some(WrapperMode::Bist),
            _ => None,
        }
    }
}

impl fmt::Display for WrapperMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            WrapperMode::Functional => "functional",
            WrapperMode::Bypass => "bypass",
            WrapperMode::IntTest => "int-test",
            WrapperMode::ExtTest => "ext-test",
            WrapperMode::Bist => "bist",
        };
        f.write_str(s)
    }
}

/// Static wrapper parameters.
#[derive(Debug, Clone)]
pub struct WrapperConfig {
    /// Wrapper name for diagnostics and addressing.
    pub name: String,
    /// Capture cycles appended to each scan shift.
    pub capture_cycles: u64,
    /// Pattern buffer depth (double buffering decouples TAM transfer from
    /// scan shifting).
    pub buffer_patterns: usize,
    /// Boundary-register length for ext-test mode.
    pub boundary_cells: u32,
}

impl Default for WrapperConfig {
    fn default() -> Self {
        WrapperConfig {
            name: "wrapper".to_string(),
            capture_cycles: 4,
            buffer_patterns: 2,
            boundary_cells: 64,
        }
    }
}

/// Scan power profile of a wrapped core: shift power is modeled as a base
/// component plus a toggle-dependent component,
/// `p = base + toggle_factor × density`, where `density ∈ [0, 1]` is the
/// scan-chain transition density (computed bit-true in full-data runs,
/// 0.5 expected value in volume runs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanPowerProfile {
    /// Power drawn by shifting regardless of data.
    pub base: f64,
    /// Additional power at transition density 1.0.
    pub toggle_factor: f64,
}

struct PowerSink {
    meter: Rc<RefCell<PowerMeter>>,
    profile: ScanPowerProfile,
}

/// Attached observability state: the shared recorder plus the metric
/// handles pre-registered at attach time so the scan path does no name
/// lookups.
struct WrapperRecorder {
    rec: Rc<Recorder>,
    queue_depth: Histogram,
    wir: Gauge,
}

/// A stuck bit in the wrapper instruction register: the WIR flip-flop at
/// `bit` always captures `value`, whatever the configuration ring shifts
/// in. Injected via [`TestWrapper::inject_wir_fault`] to model defective
/// test *infrastructure* (as opposed to a defective core).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StuckWirBit {
    /// Bit index within the WIR (0-based, low bit first).
    pub bit: u8,
    /// The value the flip-flop is stuck at.
    pub value: bool,
}

/// Wrapper activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WrapperStats {
    /// Test patterns accepted (shifts started).
    pub patterns: u64,
    /// Transactions rejected (wrong mode/command/length).
    pub rejected: u64,
    /// Transactions forwarded to the core in functional/bypass mode.
    pub forwarded: u64,
    /// WIR loads carrying an unknown instruction.
    pub invalid_wir_loads: u64,
}

/// The test wrapper TLM: a [`TamIf`] target whose interpretation of
/// transactions is governed by its WIR (a [`ConfigClient`] on the
/// configuration scan ring).
///
/// Scan timing: each accepted pattern occupies the scan engine for
/// `max_chain_len + capture_cycles` cycles; up to `buffer_patterns`
/// transfers may queue, after which pattern delivery back-pressures the
/// initiator — the mechanism that throttles a fast TAM to the core's shift
/// rate and produces the sub-100 % TAM utilizations of Table I.
pub struct TestWrapper {
    handle: SimHandle,
    cfg: WrapperConfig,
    core: Rc<dyn CoreModel>,
    functional: RefCell<Option<Rc<dyn TamIf>>>,
    wir: Cell<u64>,
    mode: Cell<WrapperMode>,
    /// End times of queued/ongoing shifts.
    pending: RefCell<VecDeque<u64>>,
    last_end: Cell<u64>,
    last_response: RefCell<Option<BitVec>>,
    misr: RefCell<Misr>,
    fault: Cell<Option<StuckCell>>,
    wir_fault: Cell<Option<StuckWirBit>>,
    stats: Cell<WrapperStats>,
    power: RefCell<Option<PowerSink>>,
    recorder: RefCell<Option<WrapperRecorder>>,
    /// Boundary register driven toward the interconnect (ext-test out).
    boundary_out: RefCell<Option<BitVec>>,
    /// Boundary register captured from the interconnect (ext-test in).
    boundary_in: RefCell<Option<BitVec>>,
    /// Bumped on every WIR load; outstanding DMI grants carry the value
    /// they were issued under and decline once it moves — a mode change
    /// revokes direct access (the DMI invalidation of TLM-2.0).
    dmi_generation: Cell<u64>,
}

impl fmt::Debug for TestWrapper {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TestWrapper")
            .field("name", &self.cfg.name)
            .field("mode", &self.mode.get())
            .field("scan", &self.core.scan_config())
            .field("stats", &self.stats.get())
            .finish()
    }
}

impl TestWrapper {
    /// Address that unambiguously requests the last *response image* on a
    /// test-mode read. Needed for cores whose pattern is 64 bits or
    /// shorter, where a full-image read is otherwise indistinguishable
    /// from the 64-bit signature readout at address 0.
    pub const RESPONSE_IMAGE_ADDR: u32 = 1;

    /// Wraps `core`.
    pub fn new(handle: &SimHandle, cfg: WrapperConfig, core: Rc<dyn CoreModel>) -> Self {
        TestWrapper {
            handle: handle.clone(),
            cfg,
            core,
            functional: RefCell::new(None),
            wir: Cell::new(0),
            mode: Cell::new(WrapperMode::Functional),
            pending: RefCell::new(VecDeque::new()),
            last_end: Cell::new(0),
            last_response: RefCell::new(None),
            // Responses are absorbed as packed 32-bit words, so the MISR
            // input width is the word width, independent of chain count.
            misr: RefCell::new(Misr::new(64, 32).expect("64-stage MISR")),
            fault: Cell::new(None),
            wir_fault: Cell::new(None),
            stats: Cell::new(WrapperStats::default()),
            power: RefCell::new(None),
            recorder: RefCell::new(None),
            boundary_out: RefCell::new(None),
            boundary_in: RefCell::new(None),
            dmi_generation: Cell::new(0),
        }
    }

    /// The image currently driven onto the interconnect from the boundary
    /// register (ext-test mode), if any pattern has been shifted in.
    pub fn boundary_out(&self) -> Option<BitVec> {
        self.boundary_out.borrow().clone()
    }

    /// Captures `image` into the boundary input register (what the
    /// interconnect model delivers to this core's inputs).
    ///
    /// # Panics
    ///
    /// Panics if the image length differs from the configured boundary.
    pub fn set_boundary_in(&self, image: BitVec) {
        assert_eq!(
            image.len() as u32,
            self.cfg.boundary_cells,
            "boundary image length"
        );
        *self.boundary_in.borrow_mut() = Some(image);
    }

    /// Attaches a power meter: every accepted scan shift reports
    /// `profile.base + profile.toggle_factor × density` over its shift
    /// interval, attributed to this wrapper's name.
    pub fn attach_power_meter(&self, meter: Rc<RefCell<PowerMeter>>, profile: ScanPowerProfile) {
        *self.power.borrow_mut() = Some(PowerSink { meter, profile });
    }

    /// Attaches an observability recorder: every accepted pattern becomes
    /// a [`tve_obs::SpanKind::Scan`] span on this wrapper's track, the
    /// `"<name>.queue_depth"` histogram samples the pattern-buffer
    /// occupancy over time, and the `"<name>.wir"` gauge mirrors WIR
    /// loads.
    pub fn attach_recorder(&self, recorder: Rc<Recorder>) {
        let queue_depth = recorder
            .metrics()
            .histogram(&format!("{}.queue_depth", self.cfg.name));
        let wir = recorder.metrics().gauge(&format!("{}.wir", self.cfg.name));
        *self.recorder.borrow_mut() = Some(WrapperRecorder {
            rec: recorder,
            queue_depth,
            wir,
        });
    }

    /// Sets the functional-mode forwarding target (the core's functional
    /// TLM interface).
    pub fn bind_functional(&self, target: Rc<dyn TamIf>) {
        *self.functional.borrow_mut() = Some(target);
    }

    /// The wrapped core's scan geometry.
    pub fn scan_config(&self) -> tve_tpg::ScanConfig {
        self.core.scan_config()
    }

    /// The current mode.
    pub fn mode(&self) -> WrapperMode {
        self.mode.get()
    }

    /// Activity counters.
    pub fn stats(&self) -> WrapperStats {
        self.stats.get()
    }

    /// The BIST MISR signature accumulated so far.
    pub fn signature(&self) -> u64 {
        self.misr.borrow().signature()
    }

    /// Injects (or clears) a stuck scan cell defect — the hook used to
    /// *validate* that a test strategy detects defects.
    pub fn inject_fault(&self, fault: Option<StuckCell>) {
        self.fault.set(fault);
    }

    /// Injects (or clears) a stuck WIR bit. The fault manifests at the
    /// next [`ConfigClient::load_config`]: the stuck bit overrides the
    /// shifted-in value, so the wrapper may silently decode a different
    /// mode (or an invalid one, falling back to functional) than the test
    /// controller requested. The current mode is not retroactively
    /// changed — a WIR flip-flop only captures on ring update.
    pub fn inject_wir_fault(&self, fault: Option<StuckWirBit>) {
        self.wir_fault.set(fault);
    }

    /// Cycles one accepted pattern occupies the scan engine.
    pub fn shift_duration(&self) -> Duration {
        Duration::cycles(self.core.scan_config().max_chain_len() as u64 + self.cfg.capture_cycles)
    }

    /// Waits until all queued shifts have completed.
    pub async fn drain(&self) {
        let end = self.last_end.get();
        if end > self.handle.now().cycles() {
            self.handle.wait_until(Time::from_cycles(end)).await;
        }
        self.reap();
    }

    fn reap(&self) {
        let now = self.handle.now().cycles();
        let mut pending = self.pending.borrow_mut();
        while pending.front().is_some_and(|&e| e <= now) {
            pending.pop_front();
        }
    }

    fn bump<F: FnOnce(&mut WrapperStats)>(&self, f: F) {
        let mut s = self.stats.get();
        f(&mut s);
        self.stats.set(s);
    }

    async fn accept_pattern(&self, txn: &mut Transaction, shift_cycles: u64) {
        // Back-pressure: wait for a buffer slot.
        loop {
            self.reap();
            let front = {
                let pending = self.pending.borrow();
                if pending.len() < self.cfg.buffer_patterns {
                    break;
                }
                *pending.front().expect("non-empty")
            };
            self.handle.wait_until(Time::from_cycles(front)).await;
        }
        let now = self.handle.now().cycles();
        let start = now.max(self.last_end.get());
        let end = start + shift_cycles + self.cfg.capture_cycles;
        self.pending.borrow_mut().push_back(end);
        self.last_end.set(end);
        // Expected transition density for volume runs; refined below when
        // bit-true data is available.
        let mut toggle_density = 0.5f64;

        if !txn.is_volume_only() && self.mode.get() != WrapperMode::ExtTest {
            let bits = self.core.scan_config().bits_per_pattern() as usize;
            let stim = BitVec::from_words(txn.data.clone(), bits);
            let mut resp = self.core.scan_response(&stim);
            if let Some(fault) = self.fault.get() {
                let len = self.core.scan_config().max_chain_len();
                if fault.chain < self.core.scan_config().chains() && fault.position < len {
                    resp.set((fault.chain * len + fault.position) as usize, fault.value);
                }
            }
            if self.mode.get() == WrapperMode::Bist {
                let mut misr = self.misr.borrow_mut();
                for &w in resp.words() {
                    misr.absorb(w as u64);
                }
            }
            if txn.cmd == Command::WriteRead {
                // Scan pipelining: what shifts out now is the previous
                // pattern's captured response.
                let prev = self.last_response.borrow().clone();
                txn.data = match prev {
                    Some(p) => p.into_words(),
                    None => vec![0; bits.div_ceil(32)],
                };
            }
            // Bit-true shift-power estimate: transition density of the
            // stimulus shifting in and the response shifting out.
            if self.power.borrow().is_some() {
                let scan = self.core.scan_config();
                let stim_tr = tve_tpg::ScanPattern::new(stim.clone(), scan).shift_transitions();
                let resp_tr = tve_tpg::ScanPattern::new(resp.clone(), scan).shift_transitions();
                toggle_density = (stim_tr + resp_tr) as f64 / (2.0 * bits as f64).max(1.0);
            }
            *self.last_response.borrow_mut() = Some(resp);
        } else if self.mode.get() == WrapperMode::ExtTest && !txn.is_volume_only() {
            // Boundary scan: the shifted-in image drives the interconnect;
            // what shifts out is the previously captured boundary input.
            let image = BitVec::from_words(txn.data.clone(), self.cfg.boundary_cells as usize);
            if txn.cmd == Command::WriteRead {
                let prev = self.boundary_in.borrow().clone();
                txn.data = match prev {
                    Some(p) => p.into_words(),
                    None => vec![0; (self.cfg.boundary_cells as usize).div_ceil(32)],
                };
            }
            *self.boundary_out.borrow_mut() = Some(image);
        }
        if let Some(sink) = &*self.power.borrow() {
            let p = sink.profile.base + sink.profile.toggle_factor * toggle_density;
            sink.meter.borrow_mut().record(
                Time::from_cycles(start),
                Duration::cycles(end - start),
                p,
                &self.cfg.name,
            );
        }
        if let Some(obs) = &*self.recorder.borrow() {
            obs.rec.record_with(|| {
                SpanRecord::new(
                    SpanKind::Scan,
                    self.cfg.name.as_str(),
                    self.mode.get().to_string(),
                    Time::from_cycles(start),
                    Time::from_cycles(end),
                )
                .with_initiator(txn.initiator.0)
                .with_bits(txn.bit_len)
            });
            obs.queue_depth
                .observe(self.handle.now(), self.pending.borrow().len() as f64);
        }
        self.bump(|s| s.patterns += 1);
        txn.status = ResponseStatus::Ok;
    }

    async fn serve_test_read(&self, txn: &mut Transaction) {
        let bits = self.core.scan_config().bits_per_pattern();
        // A read of exactly one pattern image is a response readout. For
        // cores whose pattern is 64 bits or less that length collides
        // with the 64-bit signature word, so the response image must be
        // requested explicitly at [`Self::RESPONSE_IMAGE_ADDR`]; address
        // 0 keeps the legacy meaning (signature) for short reads.
        let wants_response =
            txn.bit_len == bits && (bits > 64 || txn.addr == Self::RESPONSE_IMAGE_ADDR);
        if wants_response {
            // Full response image readout (deterministic external test,
            // diagnosis phase 2).
            self.drain().await;
            if !txn.is_volume_only() {
                let resp = self.last_response.borrow().clone();
                txn.data = match resp {
                    Some(r) => r.into_words(),
                    None => vec![0; (bits as usize).div_ceil(32)],
                };
            }
            txn.status = ResponseStatus::Ok;
        } else if txn.bit_len <= 64 {
            // Signature / status readout.
            self.drain().await;
            let sig = self.misr.borrow().signature();
            txn.data = vec![sig as u32, (sig >> 32) as u32];
            txn.status = ResponseStatus::Ok;
        } else {
            self.bump(|s| s.rejected += 1);
            txn.status = ResponseStatus::CommandError;
        }
    }
}

impl TamIf for TestWrapper {
    fn name(&self) -> &str {
        &self.cfg.name
    }

    fn transport<'a>(&'a self, txn: &'a mut Transaction) -> LocalBoxFuture<'a, ()> {
        Box::pin(async move {
            match self.mode.get() {
                WrapperMode::Functional | WrapperMode::Bypass => {
                    if self.mode.get() == WrapperMode::Bypass {
                        self.handle.wait(Duration::cycles(1)).await;
                    }
                    let target = self.functional.borrow().clone();
                    match target {
                        Some(t) => {
                            self.bump(|s| s.forwarded += 1);
                            t.transport(txn).await;
                        }
                        None => {
                            self.bump(|s| s.rejected += 1);
                            txn.status = ResponseStatus::TargetError;
                        }
                    }
                }
                WrapperMode::IntTest | WrapperMode::Bist => match txn.cmd {
                    Command::Write | Command::WriteRead
                        if txn.bit_len == self.core.scan_config().bits_per_pattern() =>
                    {
                        let shift = self.core.scan_config().max_chain_len() as u64;
                        self.accept_pattern(txn, shift).await;
                    }
                    Command::Read => self.serve_test_read(txn).await,
                    _ => {
                        self.bump(|s| s.rejected += 1);
                        txn.status = ResponseStatus::CommandError;
                    }
                },
                WrapperMode::ExtTest => match txn.cmd {
                    Command::Write | Command::WriteRead
                        if txn.bit_len == self.cfg.boundary_cells as u64 =>
                    {
                        self.accept_pattern(txn, self.cfg.boundary_cells as u64)
                            .await;
                    }
                    Command::Read if txn.bit_len == self.cfg.boundary_cells as u64 => {
                        // Read out the captured boundary input image.
                        self.drain().await;
                        if !txn.is_volume_only() {
                            let cells = self.cfg.boundary_cells as usize;
                            let image = self.boundary_in.borrow().clone();
                            txn.data = match image {
                                Some(i) => i.into_words(),
                                None => vec![0; cells.div_ceil(32)],
                            };
                        }
                        txn.status = ResponseStatus::Ok;
                    }
                    _ => {
                        self.bump(|s| s.rejected += 1);
                        txn.status = ResponseStatus::CommandError;
                    }
                },
            }
        })
    }

    /// Functional-mode forwarding is synchronous whenever the bound
    /// functional target is (test modes buffer patterns and must keep the
    /// event-driven path).
    fn transport_sync_try(&self, txn: &mut Transaction) -> bool {
        if self.mode.get() != WrapperMode::Functional {
            return false;
        }
        // Hold the borrow across the forward: the functional target is a
        // leaf (it never re-enters this wrapper), and skipping the `Rc`
        // clone matters at memory-test op rates.
        match &*self.functional.borrow() {
            Some(target) => {
                if !target.transport_sync_try(txn) {
                    return false;
                }
                self.bump(|s| s.forwarded += 1);
                true
            }
            None => {
                self.bump(|s| s.rejected += 1);
                txn.status = ResponseStatus::TargetError;
                true
            }
        }
    }

    /// Functional-mode forwarding grant: chains to the bound functional
    /// target's window, revoked by the next WIR load.
    fn dmi_window(
        self: Rc<Self>,
        base: u32,
        words: u32,
        initiator: InitiatorId,
    ) -> Option<Rc<dyn DmiAccess>> {
        if self.mode.get() != WrapperMode::Functional {
            return None;
        }
        let target = self.functional.borrow().clone()?;
        let inner = target.dmi_window(base, words, initiator)?;
        Some(Rc::new(WrapperDmi {
            generation: self.dmi_generation.get(),
            wrapper: self,
            inner,
        }))
    }
}

/// A [`DmiAccess`] grant through a [`TestWrapper`] in functional mode:
/// forwards to the core's grant and keeps the wrapper's `forwarded`
/// counter exact, declining once a WIR load has moved the generation.
struct WrapperDmi {
    wrapper: Rc<TestWrapper>,
    inner: Rc<dyn DmiAccess>,
    generation: u64,
}

impl DmiAccess for WrapperDmi {
    fn dmi_read(&self, addr: u32) -> Option<u32> {
        if self.wrapper.dmi_generation.get() != self.generation {
            return None;
        }
        let word = self.inner.dmi_read(addr)?;
        self.wrapper.bump(|s| s.forwarded += 1);
        Some(word)
    }

    fn dmi_write(&self, addr: u32, value: u32) -> bool {
        if self.wrapper.dmi_generation.get() != self.generation {
            return false;
        }
        if !self.inner.dmi_write(addr, value) {
            return false;
        }
        self.wrapper.bump(|s| s.forwarded += 1);
        true
    }

    fn access_time(&self) -> Duration {
        self.inner.access_time()
    }
}

impl ConfigClient for TestWrapper {
    fn name(&self) -> &str {
        &self.cfg.name
    }

    fn config_len(&self) -> u32 {
        8 // WIR width
    }

    fn load_config(&self, value: u64) {
        let value = match self.wir_fault.get() {
            Some(f) if f.value => value | (1u64 << f.bit),
            Some(f) => value & !(1u64 << f.bit),
            None => value,
        };
        self.wir.set(value);
        // Any WIR load may change the mode out from under an outstanding
        // DMI grant; revoke them all (re-granted on the next window
        // request if the new mode still forwards).
        self.dmi_generation.set(self.dmi_generation.get() + 1);
        if let Some(obs) = &*self.recorder.borrow() {
            obs.wir.set(value as i64);
        }
        match WrapperMode::decode(value) {
            Some(mode) => self.mode.set(mode),
            None => {
                self.bump(|s| s.invalid_wir_loads += 1);
                self.mode.set(WrapperMode::Functional);
            }
        }
    }

    fn read_config(&self) -> u64 {
        self.wir.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SyntheticLogicCore;
    use tve_sim::Simulation;
    use tve_tlm::{InitiatorId, SinkTarget, TamIfExt};
    use tve_tpg::{BitVec, ScanConfig};

    fn wrapper(sim: &Simulation, chains: u32, len: u32) -> Rc<TestWrapper> {
        let core = Rc::new(SyntheticLogicCore::new(
            "core",
            ScanConfig::new(chains, len),
            7,
        ));
        Rc::new(TestWrapper::new(
            &sim.handle(),
            WrapperConfig::default(),
            core,
        ))
    }

    #[test]
    fn wir_mode_decoding() {
        for m in [
            WrapperMode::Functional,
            WrapperMode::Bypass,
            WrapperMode::IntTest,
            WrapperMode::ExtTest,
            WrapperMode::Bist,
        ] {
            assert_eq!(WrapperMode::decode(m.encode()), Some(m));
        }
        assert_eq!(WrapperMode::decode(7), None);
    }

    #[test]
    fn invalid_wir_falls_back_to_functional() {
        let sim = Simulation::new();
        let w = wrapper(&sim, 2, 8);
        w.load_config(WrapperMode::Bist.encode());
        assert_eq!(w.mode(), WrapperMode::Bist);
        w.load_config(7);
        assert_eq!(w.mode(), WrapperMode::Functional);
        assert_eq!(w.stats().invalid_wir_loads, 1);
    }

    #[test]
    fn stuck_wir_bit_overrides_loaded_mode() {
        let sim = Simulation::new();
        let w = wrapper(&sim, 2, 8);
        // Bit 0 stuck at 1: Bist (100) becomes 101 = invalid -> functional
        // fallback; IntTest (010) becomes 011 = ExtTest.
        w.inject_wir_fault(Some(StuckWirBit {
            bit: 0,
            value: true,
        }));
        w.load_config(WrapperMode::Bist.encode());
        assert_eq!(w.mode(), WrapperMode::Functional);
        assert_eq!(w.stats().invalid_wir_loads, 1);
        assert_eq!(w.read_config(), 5, "readback shows the stuck register");
        w.load_config(WrapperMode::IntTest.encode());
        assert_eq!(w.mode(), WrapperMode::ExtTest);
        // Clearing the fault restores normal loads.
        w.inject_wir_fault(None);
        w.load_config(WrapperMode::Bist.encode());
        assert_eq!(w.mode(), WrapperMode::Bist);
    }

    #[test]
    fn stuck_zero_wir_bit_masks_requested_mode() {
        let sim = Simulation::new();
        let w = wrapper(&sim, 2, 8);
        // Bit 2 stuck at 0: Bist (100) degrades to functional (000).
        w.inject_wir_fault(Some(StuckWirBit {
            bit: 2,
            value: false,
        }));
        w.load_config(WrapperMode::Bist.encode());
        assert_eq!(w.mode(), WrapperMode::Functional);
        assert_eq!(w.stats().invalid_wir_loads, 0, "000 decodes fine");
    }

    #[test]
    fn functional_mode_forwards_to_core_interface() {
        let mut sim = Simulation::new();
        let w = wrapper(&sim, 2, 8);
        let sink = Rc::new(SinkTarget::new("core-func"));
        w.bind_functional(sink.clone());
        let w2 = Rc::clone(&w);
        sim.spawn(async move {
            w2.write(InitiatorId(0), 0, &[42], 32).await.unwrap();
        });
        sim.run();
        assert_eq!(sink.transaction_count(), 1);
        assert_eq!(w.stats().forwarded, 1);
    }

    #[test]
    fn functional_mode_without_binding_reports_target_error() {
        let mut sim = Simulation::new();
        let w = wrapper(&sim, 2, 8);
        let w2 = Rc::clone(&w);
        let jh = sim.spawn(async move { w2.write(InitiatorId(0), 0, &[1], 32).await });
        sim.run();
        assert_eq!(
            jh.try_take().unwrap().unwrap_err().status,
            ResponseStatus::TargetError
        );
    }

    #[test]
    fn test_data_in_functional_mode_is_rejected() {
        // The validation scenario: sending patterns without configuring the
        // WIR must fail loudly.
        let mut sim = Simulation::new();
        let w = wrapper(&sim, 2, 8);
        let w2 = Rc::clone(&w);
        let jh = sim.spawn(async move {
            let stim = vec![0u32; 1];
            w2.write_read(InitiatorId(0), 0, stim, 16).await
        });
        sim.run();
        assert!(jh.try_take().unwrap().is_err());
        assert!(w.stats().rejected >= 1);
    }

    #[test]
    fn shift_timing_throttles_to_chain_rate() {
        let mut sim = Simulation::new();
        let w = wrapper(&sim, 4, 100); // shift = 100 + 4 capture
        w.load_config(WrapperMode::IntTest.encode());
        let w2 = Rc::clone(&w);
        sim.spawn(async move {
            for _ in 0..5 {
                let mut t = Transaction::volume(InitiatorId(0), Command::Write, 0, 400);
                w2.transport(&mut t).await;
                assert!(t.status.is_ok());
            }
            w2.drain().await;
        });
        // 5 patterns, double-buffered: shifts are back-to-back: 5*104.
        assert_eq!(sim.run().cycles(), 520);
        assert_eq!(w.stats().patterns, 5);
    }

    #[test]
    fn buffer_accepts_ahead_then_backpressures() {
        let mut sim = Simulation::new();
        let w = wrapper(&sim, 1, 50);
        w.load_config(WrapperMode::IntTest.encode());
        let w2 = Rc::clone(&w);
        let h = sim.handle();
        sim.spawn(async move {
            // First two accepted immediately (buffer depth 2).
            let mut t = Transaction::volume(InitiatorId(0), Command::Write, 0, 50);
            w2.transport(&mut t).await;
            assert_eq!(h.now().cycles(), 0);
            let mut t = Transaction::volume(InitiatorId(0), Command::Write, 0, 50);
            w2.transport(&mut t).await;
            assert_eq!(h.now().cycles(), 0);
            // Third waits for the first shift to finish (54 cycles).
            let mut t = Transaction::volume(InitiatorId(0), Command::Write, 0, 50);
            w2.transport(&mut t).await;
            assert_eq!(h.now().cycles(), 54);
        });
        sim.run();
    }

    #[test]
    fn bist_signature_reflects_responses_and_faults() {
        fn run(fault: Option<StuckCell>) -> u64 {
            let mut sim = Simulation::new();
            let w = wrapper(&sim, 2, 16);
            w.load_config(WrapperMode::Bist.encode());
            w.inject_fault(fault);
            let w2 = Rc::clone(&w);
            let jh = sim.spawn(async move {
                for i in 0..10u32 {
                    let stim = vec![i, i.wrapping_mul(3)];
                    w2.write(InitiatorId(0), 0, &stim, 32).await.unwrap();
                }
                // Signature readout drains the engine.
                let sig = w2.read(InitiatorId(0), 0, 64).await.unwrap();
                (sig[0] as u64) | ((sig[1] as u64) << 32)
            });
            sim.run();
            jh.try_take().unwrap()
        }
        let clean = run(None);
        let faulty = run(Some(StuckCell {
            chain: 1,
            position: 3,
            value: true,
        }));
        assert_ne!(clean, faulty, "stuck cell must corrupt the signature");
        assert_eq!(clean, run(None), "signatures are reproducible");
    }

    #[test]
    fn response_image_address_disambiguates_short_patterns() {
        // 2 chains x 32 cells = exactly 64 bits per pattern: a 64-bit
        // read at address 0 must stay a signature readout, while the
        // dedicated response address returns the captured image.
        let mut sim = Simulation::new();
        let core = Rc::new(SyntheticLogicCore::new("c", ScanConfig::new(2, 32), 7));
        let w = Rc::new(TestWrapper::new(
            &sim.handle(),
            WrapperConfig::default(),
            core.clone(),
        ));
        w.load_config(WrapperMode::IntTest.encode());
        let w2 = Rc::clone(&w);
        let stim = vec![0x1234_5678u32, 0x9ABC_DEF0];
        let stim2 = stim.clone();
        let jh = sim.spawn(async move {
            w2.write(InitiatorId(0), 0, &stim2, 64).await.unwrap();
            let sig = w2.read(InitiatorId(0), 0, 64).await.unwrap();
            let img = w2
                .read(InitiatorId(0), TestWrapper::RESPONSE_IMAGE_ADDR, 64)
                .await
                .unwrap();
            (sig, img)
        });
        sim.run();
        let (sig, img) = jh.try_take().unwrap();
        let expected = core
            .scan_response(&BitVec::from_words(stim, 64))
            .into_words();
        assert_eq!(img, expected, "address 1 returns the response image");
        assert_ne!(sig, img, "address 0 stays the signature readout");
    }

    #[test]
    fn write_read_returns_previous_response() {
        let mut sim = Simulation::new();
        let core = Rc::new(SyntheticLogicCore::new("c", ScanConfig::new(1, 32), 1));
        let w = Rc::new(TestWrapper::new(
            &sim.handle(),
            WrapperConfig::default(),
            core.clone(),
        ));
        w.load_config(WrapperMode::IntTest.encode());
        let w2 = Rc::clone(&w);
        let jh = sim.spawn(async move {
            let first = w2
                .write_read(InitiatorId(0), 0, vec![0xAAAA_AAAA], 32)
                .await
                .unwrap();
            let second = w2
                .write_read(InitiatorId(0), 0, vec![0x5555_5555], 32)
                .await
                .unwrap();
            (first, second)
        });
        sim.run();
        let (first, second) = jh.try_take().unwrap();
        assert_eq!(first, vec![0], "nothing captured before the first shift");
        let expected = core.scan_response(&BitVec::from_words(vec![0xAAAA_AAAA], 32));
        assert_eq!(second, expected.words().to_vec());
    }

    #[test]
    fn ext_test_uses_boundary_length() {
        let mut sim = Simulation::new();
        let w = wrapper(&sim, 4, 100);
        w.load_config(WrapperMode::ExtTest.encode());
        let w2 = Rc::clone(&w);
        sim.spawn(async move {
            // Boundary is 64 cells: internal-length patterns are rejected.
            let mut t = Transaction::volume(InitiatorId(0), Command::Write, 0, 400);
            w2.transport(&mut t).await;
            assert_eq!(t.status, ResponseStatus::CommandError);
            let mut t = Transaction::volume(InitiatorId(0), Command::Write, 0, 64);
            w2.transport(&mut t).await;
            assert!(t.status.is_ok());
            w2.drain().await;
        });
        // 64 boundary cells + 4 capture.
        assert_eq!(sim.run().cycles(), 68);
    }

    #[test]
    fn volume_policy_skips_data_but_keeps_timing() {
        let mut sim = Simulation::new();
        let w = wrapper(&sim, 4, 100);
        w.load_config(WrapperMode::Bist.encode());
        let sig0 = w.signature();
        let w2 = Rc::clone(&w);
        sim.spawn(async move {
            let mut t = Transaction::volume(InitiatorId(0), Command::Write, 0, 400);
            w2.transport(&mut t).await;
            w2.drain().await;
        });
        assert_eq!(sim.run().cycles(), 104);
        assert_eq!(w.signature(), sig0, "volume mode must not touch the MISR");
    }
}
