//! Functional TLMs of the case-study cores (paper Fig. 4): the embedded
//! memory, the color conversion core and the DCT core. Each exposes a
//! functional [`TamIf`] interface (reached through its wrapper in
//! functional mode) and real data-path behaviour.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;

use std::rc::Rc;

use tve_memtest::{Fault, RepairableMemory};
use tve_sim::{Duration, SimHandle};
use tve_tlm::{
    Command, DmiAccess, InitiatorId, LocalBoxFuture, PowerMeter, ResponseStatus, TamIf, Transaction,
};

use crate::jpeg;

/// The embedded memory core: a word-addressed window over a real
/// [`RepairableMemory`] (1 MiB in the paper's case study), with fault
/// injection for validating the memory test sequences and spare words for
/// built-in repair.
pub struct MemoryCore {
    name: String,
    base_addr: u32,
    mem: RefCell<RepairableMemory>,
    /// Mirrors `power.is_some()` so the per-access path skips the
    /// `RefCell` borrow on unmetered memories (the common case).
    powered: Cell<bool>,
    power: RefCell<Option<MemPowerSink>>,
}

struct MemPowerSink {
    handle: SimHandle,
    meter: Rc<RefCell<PowerMeter>>,
    op_power: f64,
}

impl fmt::Debug for MemoryCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoryCore")
            .field("name", &self.name)
            .field("words", &self.mem.borrow().len())
            .field("base_addr", &self.base_addr)
            .finish()
    }
}

impl MemoryCore {
    /// Creates a memory of `words` 32-bit words mapped at `base_addr`
    /// (word `i` at TAM address `base_addr + i`).
    pub fn new(name: impl Into<String>, base_addr: u32, words: usize) -> Self {
        Self::with_spares(name, base_addr, words, 0)
    }

    /// Creates a memory with `spares` redundancy words for built-in repair
    /// (the "Repair" strategy of the paper's Fig. 1).
    pub fn with_spares(
        name: impl Into<String>,
        base_addr: u32,
        words: usize,
        spares: usize,
    ) -> Self {
        MemoryCore {
            name: name.into(),
            base_addr,
            mem: RefCell::new(RepairableMemory::new(words, spares)),
            powered: Cell::new(false),
            power: RefCell::new(None),
        }
    }

    /// Remaps the word at `index` to a spare; see
    /// [`RepairableMemory::repair`]. Returns `false` when out of spares.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn repair(&self, index: u32) -> bool {
        self.mem.borrow_mut().repair(index)
    }

    /// Spares already allocated.
    pub fn spares_used(&self) -> usize {
        self.mem.borrow().spares_used()
    }

    /// Attaches a power meter: every accessed word draws `op_power` for
    /// one cycle, attributed to this memory's name.
    pub fn attach_power_meter(
        &self,
        handle: &SimHandle,
        meter: Rc<RefCell<PowerMeter>>,
        op_power: f64,
    ) {
        *self.power.borrow_mut() = Some(MemPowerSink {
            handle: handle.clone(),
            meter,
            op_power,
        });
        self.powered.set(true);
    }

    fn record_power(&self, words: u64) {
        if let Some(sink) = &*self.power.borrow() {
            sink.meter.borrow_mut().record(
                sink.handle.now(),
                Duration::cycles(words.max(1)),
                sink.op_power,
                &self.name,
            );
        }
    }

    /// The memory size in words.
    pub fn words(&self) -> usize {
        self.mem.borrow().len()
    }

    /// Injects a functional memory fault.
    ///
    /// # Panics
    ///
    /// Panics if the fault is out of range (see
    /// [`tve_memtest::MemoryArray::inject`]).
    pub fn inject(&self, fault: Fault) {
        self.mem.borrow_mut().inject(fault);
    }

    /// Reads and write counters (reads, writes).
    pub fn op_counts(&self) -> (u64, u64) {
        let m = self.mem.borrow();
        (m.read_count(), m.write_count())
    }
}

impl TamIf for MemoryCore {
    fn name(&self) -> &str {
        &self.name
    }

    fn transport<'a>(&'a self, txn: &'a mut Transaction) -> LocalBoxFuture<'a, ()> {
        Box::pin(async move {
            self.transport_sync_try(txn);
        })
    }

    /// A word RAM access never suspends: always completes.
    fn transport_sync_try(&self, txn: &mut Transaction) -> bool {
        let index = txn.addr.wrapping_sub(self.base_addr);
        let words_needed = (txn.bit_len as usize).div_ceil(32).max(1);
        let mut mem = self.mem.borrow_mut();
        let len = mem.len() as u32;
        let last = index.checked_add(words_needed as u32 - 1);
        if last.is_none_or(|l| l >= len) {
            txn.status = ResponseStatus::AddressError;
            return true;
        }
        if self.powered.get() {
            self.record_power(words_needed as u64);
        }
        match txn.cmd {
            Command::Write | Command::WriteRead => {
                if txn.is_volume_only() {
                    // Timing-only access still touches the array so
                    // read/write counters stay meaningful.
                    for i in 0..words_needed as u32 {
                        mem.write(index + i, 0);
                    }
                } else {
                    for (i, w) in txn.data.iter().enumerate().take(words_needed) {
                        mem.write(index + i as u32, *w);
                    }
                }
                if txn.cmd == Command::WriteRead {
                    txn.data = (0..words_needed as u32)
                        .map(|i| mem.read(index + i))
                        .collect();
                }
            }
            Command::Read => {
                if txn.is_volume_only() {
                    for i in 0..words_needed as u32 {
                        let _ = mem.read(index + i);
                    }
                } else {
                    txn.data = (0..words_needed as u32)
                        .map(|i| mem.read(index + i))
                        .collect();
                }
            }
        }
        txn.status = ResponseStatus::Ok;
        true
    }

    /// The memory grants direct access to any in-bounds word window; it
    /// is the leaf of the DMI chain (bus → wrapper → here).
    fn dmi_window(
        self: Rc<Self>,
        base: u32,
        words: u32,
        _initiator: InitiatorId,
    ) -> Option<Rc<dyn DmiAccess>> {
        if words == 0 {
            return None;
        }
        let len = self.mem.borrow().len() as u32;
        let index = base.checked_sub(self.base_addr)?;
        let last = index.checked_add(words - 1)?;
        if last >= len {
            return None;
        }
        Some(self)
    }
}

/// Per-word direct access: exactly the side effects of a single-word
/// [`TamIf::transport_sync_try`] — power recorded before the access when
/// metered, read/write counters bumped by the array itself.
impl DmiAccess for MemoryCore {
    fn dmi_read(&self, addr: u32) -> Option<u32> {
        let index = addr.wrapping_sub(self.base_addr);
        let mut mem = self.mem.borrow_mut();
        if index >= mem.len() as u32 {
            return None;
        }
        if self.powered.get() {
            self.record_power(1);
        }
        Some(mem.read(index))
    }

    fn dmi_write(&self, addr: u32, value: u32) -> bool {
        let index = addr.wrapping_sub(self.base_addr);
        let mut mem = self.mem.borrow_mut();
        if index >= mem.len() as u32 {
            return false;
        }
        if self.powered.get() {
            self.record_power(1);
        }
        mem.write(index, value);
        true
    }
}

/// The color conversion core: converts packed `0x00RRGGBB` pixels to packed
/// `0x00YYCbCr` using the real JFIF RGB → YCbCr transform.
///
/// Functional protocol: `write` pushes input pixels; `read` pops converted
/// pixels (`CommandError` when empty).
pub struct ColorConversionCore {
    name: String,
    out: RefCell<VecDeque<u32>>,
    converted: Cell<u64>,
}

impl fmt::Debug for ColorConversionCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ColorConversionCore")
            .field("name", &self.name)
            .field("converted", &self.converted.get())
            .finish()
    }
}

impl ColorConversionCore {
    /// Creates the core.
    pub fn new(name: impl Into<String>) -> Self {
        ColorConversionCore {
            name: name.into(),
            out: RefCell::new(VecDeque::new()),
            converted: Cell::new(0),
        }
    }

    /// Pixels converted so far.
    pub fn converted_count(&self) -> u64 {
        self.converted.get()
    }
}

impl TamIf for ColorConversionCore {
    fn name(&self) -> &str {
        &self.name
    }

    fn transport<'a>(&'a self, txn: &'a mut Transaction) -> LocalBoxFuture<'a, ()> {
        Box::pin(async move {
            match txn.cmd {
                Command::Write => {
                    for &px in &txn.data {
                        let rgb = [(px >> 16) as u8, (px >> 8) as u8, px as u8];
                        let [y, cb, cr] = jpeg::rgb_to_ycbcr(rgb);
                        self.out
                            .borrow_mut()
                            .push_back(((y as u32) << 16) | ((cb as u32) << 8) | cr as u32);
                        self.converted.set(self.converted.get() + 1);
                    }
                    txn.status = ResponseStatus::Ok;
                }
                Command::Read => {
                    let want = (txn.bit_len as usize).div_ceil(32).max(1);
                    let mut out = self.out.borrow_mut();
                    if out.len() < want {
                        txn.status = ResponseStatus::CommandError;
                        return;
                    }
                    txn.data = out.drain(..want).collect();
                    txn.status = ResponseStatus::Ok;
                }
                Command::WriteRead => {
                    txn.status = ResponseStatus::CommandError;
                }
            }
        })
    }
}

/// The DCT core: accepts 8×8 blocks of level-shifted samples (one `i32` per
/// word), computes the real forward DCT with JPEG luminance quantization,
/// and returns the 64 quantized coefficients.
pub struct DctCore {
    name: String,
    input: RefCell<Vec<i32>>,
    output: RefCell<VecDeque<i32>>,
    blocks: Cell<u64>,
}

impl fmt::Debug for DctCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DctCore")
            .field("name", &self.name)
            .field("blocks", &self.blocks.get())
            .finish()
    }
}

impl DctCore {
    /// Creates the core.
    pub fn new(name: impl Into<String>) -> Self {
        DctCore {
            name: name.into(),
            input: RefCell::new(Vec::new()),
            output: RefCell::new(VecDeque::new()),
            blocks: Cell::new(0),
        }
    }

    /// Complete blocks transformed so far.
    pub fn block_count(&self) -> u64 {
        self.blocks.get()
    }
}

impl TamIf for DctCore {
    fn name(&self) -> &str {
        &self.name
    }

    fn transport<'a>(&'a self, txn: &'a mut Transaction) -> LocalBoxFuture<'a, ()> {
        Box::pin(async move {
            match txn.cmd {
                Command::Write => {
                    let mut input = self.input.borrow_mut();
                    for &w in &txn.data {
                        input.push(w as i32);
                        if input.len() == 64 {
                            let block: [i32; 64] =
                                input.as_slice().try_into().expect("length checked");
                            let coeffs = jpeg::fdct_quantize(&block, &jpeg::LUMA_QUANT);
                            self.output.borrow_mut().extend(coeffs.iter().copied());
                            input.clear();
                            self.blocks.set(self.blocks.get() + 1);
                        }
                    }
                    txn.status = ResponseStatus::Ok;
                }
                Command::Read => {
                    let want = (txn.bit_len as usize).div_ceil(32).max(1);
                    let mut out = self.output.borrow_mut();
                    if out.len() < want {
                        txn.status = ResponseStatus::CommandError;
                        return;
                    }
                    txn.data = out.drain(..want).map(|c| c as u32).collect();
                    txn.status = ResponseStatus::Ok;
                }
                Command::WriteRead => {
                    txn.status = ResponseStatus::CommandError;
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;
    use tve_sim::Simulation;
    use tve_tlm::{InitiatorId, TamIfExt};

    #[test]
    fn memory_core_round_trips_words() {
        let mut sim = Simulation::new();
        let mem = Rc::new(MemoryCore::new("mem", 0x1000, 64));
        let m = Rc::clone(&mem);
        sim.spawn(async move {
            m.write(InitiatorId(0), 0x1010, &[0xCAFE], 32)
                .await
                .unwrap();
            let v = m.read(InitiatorId(0), 0x1010, 32).await.unwrap();
            assert_eq!(v, vec![0xCAFE]);
        });
        sim.run();
        let (r, w) = mem.op_counts();
        assert_eq!((r, w), (1, 1));
    }

    #[test]
    fn memory_core_rejects_out_of_window() {
        let mut sim = Simulation::new();
        let mem = Rc::new(MemoryCore::new("mem", 0x1000, 64));
        let m = Rc::clone(&mem);
        let jh = sim.spawn(async move { m.read(InitiatorId(0), 0x1040, 32).await });
        sim.run();
        assert_eq!(
            jh.try_take().unwrap().unwrap_err().status,
            ResponseStatus::AddressError
        );
    }

    #[test]
    fn memory_core_burst_access() {
        let mut sim = Simulation::new();
        let mem = Rc::new(MemoryCore::new("mem", 0, 64));
        let m = Rc::clone(&mem);
        sim.spawn(async move {
            m.write(InitiatorId(0), 4, &[1, 2, 3, 4], 128)
                .await
                .unwrap();
            let v = m.read(InitiatorId(0), 4, 128).await.unwrap();
            assert_eq!(v, vec![1, 2, 3, 4]);
        });
        sim.run();
    }

    #[test]
    fn memory_core_faults_are_visible_functionally() {
        let mut sim = Simulation::new();
        let mem = Rc::new(MemoryCore::new("mem", 0, 64));
        mem.inject(Fault::stuck_at(5, 0, true));
        let m = Rc::clone(&mem);
        sim.spawn(async move {
            m.write(InitiatorId(0), 5, &[0], 32).await.unwrap();
            let v = m.read(InitiatorId(0), 5, 32).await.unwrap();
            assert_eq!(v[0] & 1, 1, "stuck-at-1 must be visible");
        });
        sim.run();
    }

    #[test]
    fn color_core_matches_reference_transform() {
        let mut sim = Simulation::new();
        let core = Rc::new(ColorConversionCore::new("cc"));
        let c = Rc::clone(&core);
        sim.spawn(async move {
            c.write(InitiatorId(0), 0, &[0x00FF_0000], 32)
                .await
                .unwrap();
            let out = c.read(InitiatorId(0), 0, 32).await.unwrap();
            let [y, cb, cr] = jpeg::rgb_to_ycbcr([255, 0, 0]);
            assert_eq!(out[0], ((y as u32) << 16) | ((cb as u32) << 8) | cr as u32);
        });
        sim.run();
        assert_eq!(core.converted_count(), 1);
    }

    #[test]
    fn color_core_read_when_empty_errors() {
        let mut sim = Simulation::new();
        let core = Rc::new(ColorConversionCore::new("cc"));
        let c = Rc::clone(&core);
        let jh = sim.spawn(async move { c.read(InitiatorId(0), 0, 32).await });
        sim.run();
        assert!(jh.try_take().unwrap().is_err());
    }

    #[test]
    fn dct_core_transforms_blocks() {
        let mut sim = Simulation::new();
        let core = Rc::new(DctCore::new("dct"));
        let c = Rc::clone(&core);
        sim.spawn(async move {
            let block: Vec<u32> = (0..64).map(|i| ((i % 16) - 8i32) as u32).collect();
            c.write(InitiatorId(0), 0, &block, 64 * 32).await.unwrap();
            let coeffs = c.read(InitiatorId(0), 0, 64 * 32).await.unwrap();
            let expected: [i32; 64] = {
                let b: [i32; 64] = block
                    .iter()
                    .map(|&w| w as i32)
                    .collect::<Vec<_>>()
                    .try_into()
                    .unwrap();
                jpeg::fdct_quantize(&b, &jpeg::LUMA_QUANT)
            };
            let got: Vec<i32> = coeffs.iter().map(|&w| w as i32).collect();
            assert_eq!(got, expected.to_vec());
        });
        sim.run();
        assert_eq!(core.block_count(), 1);
    }

    #[test]
    fn dct_core_partial_block_yields_no_output() {
        let mut sim = Simulation::new();
        let core = Rc::new(DctCore::new("dct"));
        let c = Rc::clone(&core);
        let jh = sim.spawn(async move {
            c.write(InitiatorId(0), 0, &[0; 32], 32 * 32).await.unwrap();
            c.read(InitiatorId(0), 0, 32).await
        });
        sim.run();
        assert!(jh.try_take().unwrap().is_err());
        assert_eq!(core.block_count(), 0);
    }
}
