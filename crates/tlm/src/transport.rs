//! The `TAM_IF` transport interface (paper Fig. 2).

use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

use tve_sim::Duration;

use crate::payload::{Command, InitiatorId, ResponseStatus, Transaction};

/// A non-`Send` boxed future, the return type of object-safe async trait
/// methods in this single-threaded simulation.
pub type LocalBoxFuture<'a, T> = Pin<Box<dyn Future<Output = T> + 'a>>;

/// Error returned by the convenience accessors of [`TamIfExt`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TamError {
    /// The failing status reported by the target or channel.
    pub status: ResponseStatus,
    /// The address the transaction was directed at.
    pub addr: u32,
    /// The attempted command.
    pub cmd: Command,
}

impl fmt::Display for TamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at {:#x} failed: {}",
            self.cmd, self.addr, self.status
        )
    }
}

impl std::error::Error for TamError {}

/// The transaction-level TAM interface: everything reachable over a TAM —
/// the TAM channel itself, test wrappers, decompressors/compactors, pattern
/// sources — implements this trait (the paper's `TAM_IF`, Fig. 2).
///
/// The single entry point [`TamIf::transport`] moves a [`Transaction`]
/// through the component, consuming simulated time as appropriate; the
/// `read` / `write` / `write_read` convenience methods of [`TamIfExt`] are
/// layered on top. The trait is object-safe so components can be bound
/// dynamically (the SystemC `bind` mechanism of the paper).
pub trait TamIf {
    /// A short component name for diagnostics.
    fn name(&self) -> &str;

    /// Transports `txn` through this component, updating its data (for
    /// reads) and `status`, and consuming simulated time for the transfer.
    fn transport<'a>(&'a self, txn: &'a mut Transaction) -> LocalBoxFuture<'a, ()>;

    /// Attempts the synchronous fast path: when `txn` can complete
    /// without suspending the calling process, performs it — with
    /// exactly the side effects and simulated-time cost of awaiting
    /// [`TamIf::transport`] — and returns `true`; otherwise leaves `txn`
    /// and the component untouched and returns `false`.
    ///
    /// A channel's occupancy completes in place only when the calling
    /// task is alone until the transfer ends
    /// ([`tve_sim::SimHandle::try_local_wait`]), so the result is the
    /// event-driven one. Components opt in; the default declines.
    fn transport_sync_try(&self, txn: &mut Transaction) -> bool {
        let _ = txn;
        false
    }

    /// Requests a direct-memory-interface grant over the word window
    /// `[base, base + words)` for single-word (32-bit) accesses by
    /// `initiator` — the TLM-2.0 DMI idea applied to memory marches:
    /// the initiator keeps the returned [`DmiAccess`]
    /// and performs each word access as one call, skipping transaction
    /// construction and the per-op interface walk.
    ///
    /// A grant is a *performance* contract, never a semantic one: every
    /// layer that grants must replicate, per operation, exactly the
    /// observable side effects of the equivalent
    /// [`TamIf::transport_sync_try`] word access — simulated time,
    /// utilization monitoring, power, counters — or decline the
    /// operation so the caller falls back to the transactional path.
    /// Digest equality between the two paths is pinned in
    /// `tests/kernel_digests.rs`.
    ///
    /// The default declines; channels and wrappers forward the request
    /// toward the memory, layering their own per-op bookkeeping on the
    /// way back.
    fn dmi_window(
        self: Rc<Self>,
        base: u32,
        words: u32,
        initiator: InitiatorId,
    ) -> Option<Rc<dyn DmiAccess>> {
        let _ = (base, words, initiator);
        None
    }
}

/// A direct word-access grant obtained from [`TamIf::dmi_window`].
///
/// Both operations are *fallible per call*: a `None` / `false` return
/// declines the single operation (revoked grant after a WIR load, bus
/// contention, another process due to act within the access,
/// instrumentation attached) with
/// no side effects, and the caller must perform that operation through
/// the regular transactional path instead. A successful call has
/// exactly the observable effects of the equivalent single-word
/// [`TamIf::transport_sync_try`].
pub trait DmiAccess {
    /// Reads the 32-bit word at TAM address `addr`.
    fn dmi_read(&self, addr: u32) -> Option<u32>;

    /// Writes the 32-bit word at TAM address `addr`.
    fn dmi_write(&self, addr: u32, value: u32) -> bool;

    /// Simulated time one granted access takes: the channel occupancy
    /// summed along the grant chain. Zero by default (a leaf memory
    /// access is instantaneous).
    fn access_time(&self) -> Duration {
        Duration::ZERO
    }
}

/// Convenience accessors over any [`TamIf`].
///
/// Blanket-implemented; bring the trait into scope and call
/// `channel.write(...)` / `channel.read(...)` / `channel.write_read(...)`.
pub trait TamIfExt: TamIf {
    /// Writes `bit_len` bits of `data` to `addr`.
    ///
    /// # Errors
    ///
    /// Returns a [`TamError`] when the target reports a non-OK status
    /// (unmapped address, incompatible mode, rejected command).
    fn write<'a>(
        &'a self,
        initiator: InitiatorId,
        addr: u32,
        data: &[u32],
        bit_len: u64,
    ) -> impl Future<Output = Result<(), TamError>> + 'a {
        let mut txn = Transaction::write(initiator, addr, data.to_vec(), bit_len);
        async move {
            self.do_transport(&mut txn).await;
            finish(txn).map(|_| ())
        }
    }

    /// Reads `bit_len` bits from `addr`.
    ///
    /// # Errors
    ///
    /// Returns a [`TamError`] when the target reports a non-OK status.
    fn read<'a>(
        &'a self,
        initiator: InitiatorId,
        addr: u32,
        bit_len: u64,
    ) -> impl Future<Output = Result<Vec<u32>, TamError>> + 'a {
        let mut txn = Transaction::read(initiator, addr, bit_len);
        async move {
            self.do_transport(&mut txn).await;
            finish(txn).map(|t| t.data)
        }
    }

    /// Concurrently shifts `data` in and the previous contents out
    /// (scan-style access).
    ///
    /// # Errors
    ///
    /// Returns a [`TamError`] when the target reports a non-OK status.
    fn write_read<'a>(
        &'a self,
        initiator: InitiatorId,
        addr: u32,
        data: Vec<u32>,
        bit_len: u64,
    ) -> impl Future<Output = Result<Vec<u32>, TamError>> + 'a {
        let mut txn = Transaction::write_read(initiator, addr, data, bit_len);
        async move {
            self.do_transport(&mut txn).await;
            finish(txn).map(|t| t.data)
        }
    }

    /// Transports a volume-only (timing) transaction of `bit_len` bits.
    ///
    /// # Errors
    ///
    /// Returns a [`TamError`] when the target reports a non-OK status.
    fn transfer_volume<'a>(
        &'a self,
        initiator: InitiatorId,
        cmd: Command,
        addr: u32,
        bit_len: u64,
    ) -> impl Future<Output = Result<(), TamError>> + 'a {
        let mut txn = Transaction::volume(initiator, cmd, addr, bit_len);
        async move {
            self.do_transport(&mut txn).await;
            finish(txn).map(|_| ())
        }
    }

    /// Transports `txn`, taking the synchronous fast path when the
    /// component completes it in place ([`TamIf::transport_sync_try`]).
    fn do_transport<'a>(&'a self, txn: &'a mut Transaction) -> impl Future<Output = ()> + 'a {
        async move {
            if !self.transport_sync_try(txn) {
                self.transport(txn).await;
            }
        }
    }
}

impl<T: TamIf + ?Sized> TamIfExt for T {}

fn finish(txn: Transaction) -> Result<Transaction, TamError> {
    if txn.status.is_ok() {
        Ok(txn)
    } else {
        Err(TamError {
            status: txn.status,
            addr: txn.addr,
            cmd: txn.cmd,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A loop-back target that stores writes and echoes them on reads.
    struct Echo {
        store: RefCell<Vec<u32>>,
    }

    impl TamIf for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn transport<'a>(&'a self, txn: &'a mut Transaction) -> LocalBoxFuture<'a, ()> {
            Box::pin(async move {
                match txn.cmd {
                    Command::Write => *self.store.borrow_mut() = txn.data.clone(),
                    Command::Read => txn.data = self.store.borrow().clone(),
                    Command::WriteRead => {
                        let old = self.store.replace(txn.data.clone());
                        txn.data = old;
                    }
                }
                txn.status = ResponseStatus::Ok;
            })
        }
    }

    #[test]
    fn ext_methods_round_trip_through_dyn_object() {
        let mut sim = tve_sim::Simulation::new();
        let echo: Rc<dyn TamIf> = Rc::new(Echo {
            store: RefCell::new(vec![7, 8]),
        });
        let e = Rc::clone(&echo);
        let jh = sim.spawn(async move {
            let init = InitiatorId(0);
            let old = e.write_read(init, 0, vec![1, 2], 64).await.unwrap();
            assert_eq!(old, vec![7, 8]);
            e.write(init, 0, &[3], 32).await.unwrap();
            e.read(init, 0, 32).await.unwrap()
        });
        sim.run();
        assert_eq!(jh.try_take(), Some(vec![3]));
    }

    #[test]
    fn tam_error_formats() {
        let e = TamError {
            status: ResponseStatus::AddressError,
            addr: 0x42,
            cmd: Command::Read,
        };
        assert_eq!(e.to_string(), "read at 0x42 failed: address error");
    }
}
