//! The slab task arena and its intrusive ready queue.
//!
//! Tasks live in a `Vec` of slots addressed by `(index, generation)`
//! pairs; vacated slots are recycled through a free list and the
//! generation counter makes stale wakeups harmless. The ready queue is
//! intrusive: each slot carries a `next` link, so waking a task is a few
//! index writes — no allocation, no hashing, no heap traffic.

use std::future::Future;
use std::pin::Pin;
use std::task::Waker;

pub(crate) type LocalFuture = Pin<Box<dyn Future<Output = ()> + 'static>>;

/// Sentinel link value ("null pointer") for the intrusive lists.
pub(crate) const NIL: u32 = u32::MAX;

/// Generation-checked handle to an arena slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TaskId {
    pub(crate) index: u32,
    pub(crate) gen: u32,
}

impl TaskId {
    /// Packs the id into a single word (for `Waker` data and timer
    /// entries).
    pub(crate) fn pack(self) -> u64 {
        ((self.gen as u64) << 32) | self.index as u64
    }

    pub(crate) fn unpack(v: u64) -> TaskId {
        TaskId {
            index: v as u32,
            gen: (v >> 32) as u32,
        }
    }
}

/// One arena slot. `future` is `None` while the slot is vacant *or*
/// while the task is being polled (the future is taken out so the task
/// body may freely re-enter the kernel).
struct Slot {
    gen: u32,
    /// Free-list link when vacant, ready-queue link when queued.
    next: u32,
    /// Linked in the ready queue right now.
    queued: bool,
    /// A live task occupies this slot (its future may be checked out
    /// for polling).
    occupied: bool,
    future: Option<LocalFuture>,
    /// The task's `Waker` (shared with `Context` during polls).
    waker: Option<Waker>,
}

/// Slab arena of task slots plus the intrusive FIFO ready queue.
pub(crate) struct TaskArena {
    slots: Vec<Slot>,
    free_head: u32,
    ready_head: u32,
    ready_tail: u32,
    live: usize,
}

impl TaskArena {
    pub(crate) fn new() -> TaskArena {
        TaskArena {
            slots: Vec::new(),
            free_head: NIL,
            ready_head: NIL,
            ready_tail: NIL,
            live: 0,
        }
    }

    /// Number of live (spawned, not completed) tasks.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Installs a task, reusing a vacant slot when one exists.
    pub(crate) fn insert(&mut self, future: LocalFuture) -> TaskId {
        self.live += 1;
        if self.free_head != NIL {
            let index = self.free_head;
            let slot = &mut self.slots[index as usize];
            self.free_head = slot.next;
            slot.next = NIL;
            slot.queued = false;
            slot.occupied = true;
            slot.future = Some(future);
            slot.waker = None;
            TaskId {
                index,
                gen: slot.gen,
            }
        } else {
            let index = self.slots.len() as u32;
            self.slots.push(Slot {
                gen: 0,
                next: NIL,
                queued: false,
                occupied: true,
                future: Some(future),
                waker: None,
            });
            TaskId { index, gen: 0 }
        }
    }

    fn slot_mut(&mut self, id: TaskId) -> Option<&mut Slot> {
        let s = self.slots.get_mut(id.index as usize)?;
        (s.gen == id.gen && s.occupied).then_some(s)
    }

    /// Whether `id` still names a live task.
    #[cfg(test)]
    pub(crate) fn is_live(&self, id: TaskId) -> bool {
        self.slots
            .get(id.index as usize)
            .is_some_and(|s| s.gen == id.gen && s.occupied)
    }

    /// Checks out the task's future and waker for polling (the waker is
    /// created lazily on the first poll). Both are *moved* out rather
    /// than cloned, so the steady-state poll loop does no refcount
    /// traffic. Returns `None` for stale ids.
    pub(crate) fn checkout(
        &mut self,
        id: TaskId,
        make_waker: impl FnOnce() -> Waker,
    ) -> Option<(LocalFuture, Waker)> {
        let slot = self.slot_mut(id)?;
        let future = slot.future.take()?;
        let waker = slot.waker.take().unwrap_or_else(make_waker);
        Some((future, waker))
    }

    /// Returns a checked-out future and waker to their slot (the task is
    /// still pending).
    pub(crate) fn put_back(&mut self, id: TaskId, future: LocalFuture, waker: Waker) {
        if let Some(slot) = self.slot_mut(id) {
            debug_assert!(slot.future.is_none());
            slot.future = Some(future);
            slot.waker = Some(waker);
        }
    }

    /// Retires a completed task. The generation bump invalidates every
    /// outstanding `TaskId`; if the slot is still linked in the ready
    /// queue it is freed lazily when the queue reaches it.
    pub(crate) fn remove(&mut self, id: TaskId) {
        let Some(slot) = self.slot_mut(id) else {
            return;
        };
        slot.occupied = false;
        slot.future = None;
        slot.waker = None;
        slot.gen = slot.gen.wrapping_add(1);
        let queued = slot.queued;
        self.live -= 1;
        if !queued {
            self.free(id.index);
        }
    }

    fn free(&mut self, index: u32) {
        let slot = &mut self.slots[index as usize];
        slot.next = self.free_head;
        self.free_head = index;
    }

    /// Marks `id` runnable; FIFO order, deduplicated (a task already in
    /// the queue is not enqueued twice). Stale ids are ignored.
    pub(crate) fn enqueue(&mut self, id: TaskId) {
        let tail = self.ready_tail;
        let Some(slot) = self.slot_mut(id) else {
            return;
        };
        if slot.queued {
            return;
        }
        slot.queued = true;
        slot.next = NIL;
        if tail == NIL {
            self.ready_head = id.index;
        } else {
            self.slots[tail as usize].next = id.index;
        }
        self.ready_tail = id.index;
    }

    /// Whether no task is queued to run.
    pub(crate) fn ready_is_empty(&self) -> bool {
        self.ready_head == NIL
    }

    /// Pops the next runnable task, skipping (and freeing) slots whose
    /// task completed while still queued.
    pub(crate) fn pop_ready(&mut self) -> Option<TaskId> {
        while self.ready_head != NIL {
            let index = self.ready_head;
            let slot = &mut self.slots[index as usize];
            self.ready_head = slot.next;
            if self.ready_head == NIL {
                self.ready_tail = NIL;
            }
            slot.next = NIL;
            slot.queued = false;
            if slot.occupied {
                let gen = slot.gen;
                return Some(TaskId { index, gen });
            }
            // Completed while queued: finish the deferred free.
            self.free(index);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noop() -> LocalFuture {
        Box::pin(async {})
    }

    #[test]
    fn insert_pop_roundtrip_is_fifo() {
        let mut a = TaskArena::new();
        let t1 = a.insert(noop());
        let t2 = a.insert(noop());
        let t3 = a.insert(noop());
        a.enqueue(t2);
        a.enqueue(t1);
        a.enqueue(t3);
        assert_eq!(a.pop_ready(), Some(t2));
        assert_eq!(a.pop_ready(), Some(t1));
        assert_eq!(a.pop_ready(), Some(t3));
        assert_eq!(a.pop_ready(), None);
    }

    #[test]
    fn enqueue_deduplicates() {
        let mut a = TaskArena::new();
        let t = a.insert(noop());
        a.enqueue(t);
        a.enqueue(t);
        assert_eq!(a.pop_ready(), Some(t));
        assert_eq!(a.pop_ready(), None);
    }

    #[test]
    fn generation_guards_recycled_slot() {
        let mut a = TaskArena::new();
        let t = a.insert(noop());
        a.remove(t);
        let t2 = a.insert(noop());
        assert_eq!(t.index, t2.index, "slot must be recycled");
        assert_ne!(t.gen, t2.gen);
        a.enqueue(t); // stale: ignored
        assert_eq!(a.pop_ready(), None);
        assert!(!a.is_live(t));
        assert!(a.is_live(t2));
    }

    #[test]
    fn remove_while_queued_defers_free() {
        let mut a = TaskArena::new();
        let t1 = a.insert(noop());
        let t2 = a.insert(noop());
        a.enqueue(t1);
        a.enqueue(t2);
        a.remove(t1);
        assert_eq!(a.live(), 1);
        // The dead-but-queued slot is skipped and freed on pop.
        assert_eq!(a.pop_ready(), Some(t2));
        assert_eq!(a.pop_ready(), None);
        // And the slot is reusable afterwards.
        let t3 = a.insert(noop());
        assert_eq!(t3.index, t1.index);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let id = TaskId {
            index: 0xDEAD,
            gen: 0xBEEF,
        };
        assert_eq!(TaskId::unpack(id.pack()), id);
    }
}
