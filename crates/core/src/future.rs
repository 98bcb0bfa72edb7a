//! Futures over the polled event loop, and the pooled completion state
//! behind them.
//!
//! The paper's API surface is listener pairs (§3.2: success/failure
//! callbacks delivered on the main thread). Production Rust wants
//! `Future`s. This module bridges the two *without* adding a runtime:
//! an `OpFuture` is a thin handle onto the same queued operation a
//! listener pair would observe, resolved inline by the shard worker
//! that polls the loop. The waker registered by the consumer is stored
//! on the operation itself, so completion wakes exactly the interested
//! task — no parked helper thread, no channel.
//!
//! # The completion core, and why it is pooled
//!
//! Every queued operation owns one `OpCore`: a claim flag (resolved
//! exactly once), a cancel-request flag, and a small mutex-guarded slot
//! holding the result and the consumer's waker. Cores are the only
//! per-operation heap state the submit→attempt→complete path needs, so
//! they are recycled through a per-shard `OpPool` freelist: once every
//! handle (the queue's, the future's, any [`OpTicket`]s) has been
//! dropped, the core returns to its pool and the next submit reuses it.
//! Steady state, a cached read on a warm loop performs **zero heap
//! allocations** end to end (asserted by the `ext_sched` bench under
//! the `alloc-profile` counter).
//!
//! # Cancellation safety
//!
//! Dropping an `OpFuture` before it resolves withdraws the operation:
//! the drop clears the registered waker under the slot lock (completion
//! also wakes under that lock, so after `drop` returns no waker
//! invocation can be in flight), requests cancellation, and wakes the
//! loop so the sweep fires promptly. Exactly one resolver ever claims a
//! core — listener delivery, future resolution, timeout, sweep, and
//! shutdown drain all go through the same claim, so an operation can
//! never be counted (or delivered) twice no matter how a cancel races a
//! completion.
//!
//! [`OpTicket`]: crate::eventloop::OpTicket

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::task::{Context, Poll, Wake, Waker};

use morena_obs::MemFootprint;
use morena_obs::Mutex;

use crate::eventloop::{OpFailure, OpResponse};

/// The core has not been resolved yet; resolvers may claim it.
const STATE_PENDING: u8 = 0;
/// Exactly one resolver claimed the core; everyone else backs off.
const STATE_RESOLVED: u8 = 1;

/// A pool keeps at most this many idle cores; beyond it, dropped cores
/// are simply freed. Generous for any realistic queue depth while
/// bounding the freelist of a shard that once saw a burst.
const POOL_CAP: usize = 1024;

#[derive(Default)]
struct CoreSlot {
    result: Option<Result<OpResponse, OpFailure>>,
    waker: Option<Waker>,
}

/// The pooled completion state of one queued operation.
pub(crate) struct OpCore {
    /// `STATE_PENDING` until exactly one resolver wins [`OpCore::try_claim`].
    state: AtomicU8,
    /// Cancellation *request* flag — read by the loop's sweep; the sweep
    /// (or drain) is what actually resolves the op as Cancelled.
    cancelled: AtomicBool,
    /// Live handles (queue side, future side, tickets). The last one to
    /// drop recycles the core into its pool, so a handle can never
    /// observe a core that was re-issued to a different operation.
    refs: AtomicUsize,
    slot: Mutex<CoreSlot>,
    pool: Weak<OpPool>,
}

impl OpCore {
    fn fresh(pool: Weak<OpPool>) -> OpCore {
        OpCore {
            state: AtomicU8::new(STATE_PENDING),
            cancelled: AtomicBool::new(false),
            refs: AtomicUsize::new(0),
            slot: Mutex::new(CoreSlot::default()),
            pool,
        }
    }

    /// Attempts to become the one resolver of this operation. All
    /// delivery paths (success, permanent failure, timeout, sweep,
    /// drain) call this first; only the winner records stats and
    /// delivers.
    pub(crate) fn try_claim(&self) -> bool {
        self.state
            .compare_exchange(STATE_PENDING, STATE_RESOLVED, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Whether the operation has been resolved (claimed) already.
    pub(crate) fn is_resolved(&self) -> bool {
        self.state.load(Ordering::Acquire) == STATE_RESOLVED
    }

    /// Requests cancellation; returns the *previous* flag value.
    pub(crate) fn request_cancel(&self) -> bool {
        self.cancelled.swap(true, Ordering::AcqRel)
    }

    /// Whether cancellation has been requested.
    pub(crate) fn cancel_requested(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// Puts a core whose last counted reference is gone, its slot
    /// already scrubbed, back into its pool.
    fn recycle(core: Arc<OpCore>) {
        if let Some(pool) = core.pool.upgrade() {
            pool.release(core);
        }
    }
}

/// A counted handle to an [`OpCore`]. Clones count; the last drop
/// recycles the core into its pool (after clearing the slot).
pub(crate) struct CoreHandle {
    /// `Some` for the handle's whole life; [`CoreHandle::resolve`] takes
    /// it to give the reference back early.
    core: Option<Arc<OpCore>>,
}

impl CoreHandle {
    fn new(core: Arc<OpCore>) -> CoreHandle {
        CoreHandle { core: Some(core) }
    }

    /// Stores the result of a future-mode operation, gives back this
    /// (queue-side) reference, then wakes the registered waker. Must
    /// only be called by the claiming resolver.
    ///
    /// The reference goes *before* the wake: the woken `block_on` caller
    /// drops its future as the last holder and so recycles the core
    /// before it submits again — otherwise the next submit could find
    /// the freelist empty and allocate. The wake itself happens while
    /// the slot lock is held: `OpFuture::drop` takes the same lock to
    /// clear the waker, so once a drop returns, no waker invocation can
    /// still be in flight (the guarantee the async drop/cancel tests pin
    /// down).
    pub(crate) fn resolve(mut self, result: Result<OpResponse, OpFailure>) {
        let core = self.core.take().expect("a handle holds its core until resolved");
        let mut slot = core.slot.lock();
        if core.refs.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Every other holder is gone: nobody can take the result.
            *slot = CoreSlot::default();
            drop(slot);
            OpCore::recycle(core);
            return;
        }
        slot.result = Some(result);
        if let Some(waker) = slot.waker.take() {
            waker.wake();
        }
    }
}

impl std::ops::Deref for CoreHandle {
    type Target = OpCore;
    fn deref(&self) -> &OpCore {
        self.core.as_deref().expect("a handle holds its core until resolved")
    }
}

impl Clone for CoreHandle {
    fn clone(&self) -> CoreHandle {
        self.refs.fetch_add(1, Ordering::Relaxed);
        CoreHandle::new(Arc::clone(self.core.as_ref().expect("a live handle holds its core")))
    }
}

impl Drop for CoreHandle {
    fn drop(&mut self) {
        let Some(core) = self.core.take() else { return };
        if core.refs.fetch_sub(1, Ordering::AcqRel) != 1 {
            return;
        }
        // Last handle out: scrub and recycle. The slot is cleared fully
        // *before* the core re-enters the pool, so an acquirer can never
        // see a stale result, waker, or payload.
        *core.slot.lock() = CoreSlot::default();
        OpCore::recycle(core);
    }
}

/// A freelist of completion cores. One per scheduler shard (all loops
/// pinned to the shard share it).
pub(crate) struct OpPool {
    free: Mutex<Vec<Arc<OpCore>>>,
}

impl OpPool {
    pub(crate) fn new() -> Arc<OpPool> {
        Arc::new(OpPool { free: Mutex::new(Vec::new()) })
    }

    /// Takes a core out of the freelist (or allocates one) and arms it
    /// for a new operation. The returned handle carries the single
    /// initial reference.
    pub(crate) fn acquire(self: &Arc<OpPool>) -> CoreHandle {
        let reused = self.free.lock().pop();
        let core = match reused {
            Some(core) => {
                core.state.store(STATE_PENDING, Ordering::Release);
                core.cancelled.store(false, Ordering::Release);
                core
            }
            None => Arc::new(OpCore::fresh(Arc::downgrade(self))),
        };
        core.refs.store(1, Ordering::Release);
        CoreHandle::new(core)
    }

    fn release(&self, core: Arc<OpCore>) {
        let mut free = self.free.lock();
        if free.len() < POOL_CAP {
            free.push(core);
        }
    }

    /// Idle cores currently parked in the freelist.
    pub(crate) fn free_len(&self) -> usize {
        self.free.lock().len()
    }

    /// A lone, already-resolved, cancel-flagged core outside any pool —
    /// the state behind dead tickets (operations that never queued).
    pub(crate) fn dead_core() -> CoreHandle {
        let core = Arc::new(OpCore::fresh(Weak::new()));
        core.state.store(STATE_RESOLVED, Ordering::Release);
        core.cancelled.store(true, Ordering::Release);
        core.refs.store(1, Ordering::Release);
        CoreHandle::new(core)
    }
}

impl MemFootprint for OpPool {
    fn mem_bytes(&self) -> u64 {
        let free = self.free.lock();
        (free.capacity() * std::mem::size_of::<Arc<OpCore>>()
            + free.len() * std::mem::size_of::<OpCore>()) as u64
    }
}

/// The untyped future of one queued operation; resolves with the raw
/// [`OpResponse`]. Public surfaces wrap it with conversion
/// (`ReadFuture`, `WriteFuture`) or discard the payload ([`UnitFuture`]).
pub(crate) struct OpFuture {
    /// `None` once the result has been consumed (or never queued).
    core: Option<CoreHandle>,
    task: Weak<crate::eventloop::Shared>,
}

impl OpFuture {
    pub(crate) fn new(core: CoreHandle, task: Weak<crate::eventloop::Shared>) -> OpFuture {
        OpFuture { core: Some(core), task }
    }

    /// A cancellation ticket for the underlying operation. After the
    /// future has resolved this returns a dead ticket (cancel is a
    /// no-op), matching [`OpTicket`](crate::eventloop::OpTicket)
    /// semantics for completed operations.
    pub(crate) fn ticket(&self) -> crate::eventloop::OpTicket {
        match &self.core {
            Some(core) => crate::eventloop::OpTicket::new(core.clone(), self.task.clone()),
            None => crate::eventloop::OpTicket::new(OpPool::dead_core(), Weak::new()),
        }
    }
}

impl Future for OpFuture {
    type Output = Result<OpResponse, OpFailure>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let core = this.core.as_ref().expect("OpFuture polled after completion");
        let mut slot = core.slot.lock();
        if let Some(result) = slot.result.take() {
            drop(slot);
            // Consuming the result releases our handle (and recycles the
            // core once the loop side has dropped its own).
            this.core = None;
            return Poll::Ready(result);
        }
        match &slot.waker {
            Some(waker) if waker.will_wake(cx.waker()) => {}
            _ => slot.waker = Some(cx.waker().clone()),
        }
        Poll::Pending
    }
}

impl Drop for OpFuture {
    fn drop(&mut self) {
        let Some(core) = self.core.take() else { return };
        // Clear the waker under the slot lock: completion wakes under
        // the same lock, so after this drop returns the waker can never
        // be invoked again.
        core.slot.lock().waker = None;
        if !core.is_resolved() && !core.request_cancel() {
            // Withdraw the operation: the loop's sweep resolves it as
            // Cancelled (nobody is listening, but stats and the
            // inspector's in-flight count must stay consistent).
            if let Some(task) = self.task.upgrade() {
                task.wake();
            }
        }
        // `core` drops here, releasing the future-side reference.
    }
}

/// The future of a queued operation whose payload carries no data —
/// beam/peer pushes, tag write-protection, and the bench harness's raw
/// reads. Resolves to `Ok(())` on completion; dropping it before then
/// withdraws the operation.
pub struct UnitFuture {
    state: UnitState,
}

enum UnitState {
    /// The operation is queued; resolve through its core.
    Queued(OpFuture),
    /// The operation never reached the queue (conversion failed, loop
    /// stopped): resolve immediately with the stored failure.
    Immediate(Option<OpFailure>),
}

impl UnitFuture {
    pub(crate) fn queued(inner: OpFuture) -> UnitFuture {
        UnitFuture { state: UnitState::Queued(inner) }
    }

    pub(crate) fn failed(failure: OpFailure) -> UnitFuture {
        UnitFuture { state: UnitState::Immediate(Some(failure)) }
    }

    /// A ticket to cancel the underlying operation without dropping the
    /// future.
    pub fn ticket(&self) -> crate::eventloop::OpTicket {
        match &self.state {
            UnitState::Queued(inner) => inner.ticket(),
            UnitState::Immediate(_) => {
                crate::eventloop::OpTicket::new(OpPool::dead_core(), Weak::new())
            }
        }
    }
}

impl std::fmt::Debug for UnitFuture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = match &self.state {
            UnitState::Queued(_) => "queued",
            UnitState::Immediate(_) => "immediate",
        };
        f.debug_struct("UnitFuture").field("state", &state).finish()
    }
}

impl Future for UnitFuture {
    type Output = Result<(), OpFailure>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        match &mut self.get_mut().state {
            UnitState::Queued(inner) => match Pin::new(inner).poll(cx) {
                Poll::Pending => Poll::Pending,
                Poll::Ready(Ok(_)) => Poll::Ready(Ok(())),
                Poll::Ready(Err(failure)) => Poll::Ready(Err(failure)),
            },
            UnitState::Immediate(failure) => {
                Poll::Ready(Err(failure.take().expect("UnitFuture polled after completion")))
            }
        }
    }
}

struct ThreadParker {
    thread: std::thread::Thread,
    notified: AtomicBool,
}

impl Wake for ThreadParker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        if !self.notified.swap(true, Ordering::Release) {
            self.thread.unpark();
        }
    }
}

thread_local! {
    /// One parker + waker per thread, reused across every `block_on`
    /// call so the blocking adapters allocate nothing per operation.
    static PARKER: (Arc<ThreadParker>, Waker) = {
        let parker = Arc::new(ThreadParker {
            thread: std::thread::current(),
            notified: AtomicBool::new(false),
        });
        let waker = Waker::from(Arc::clone(&parker));
        (parker, waker)
    };
}

/// Drives a future to completion by parking the calling thread between
/// polls — the engine behind the `read_sync`/`write_sync` blocking
/// adapters, usable with any MORENA future.
///
/// The parker waker is cached per thread, so repeated calls perform no
/// allocation of their own. Must not be called from the main thread
/// when the future depends on main-thread listener delivery (the
/// future-based operations do not — they resolve on the loop's polling
/// thread).
pub fn block_on<F: Future>(future: F) -> F::Output {
    let mut future = std::pin::pin!(future);
    PARKER.with(|(parker, waker)| {
        let mut cx = Context::from_waker(waker);
        loop {
            if let Poll::Ready(output) = future.as_mut().poll(&mut cx) {
                return output;
            }
            // Sleep until woken; tolerate spurious unparks and wakes
            // that landed before we parked.
            while !parker.notified.swap(false, Ordering::Acquire) {
                std::thread::park();
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_recycles_cores() {
        let pool = OpPool::new();
        let first = pool.acquire();
        let first_ptr: *const OpCore = &*first;
        assert_eq!(pool.free_len(), 0);
        drop(first);
        assert_eq!(pool.free_len(), 1, "last handle recycles the core");
        let second = pool.acquire();
        assert!(std::ptr::eq(&*second, first_ptr), "served from the freelist");
        assert_eq!(pool.free_len(), 0);
        assert!(!second.is_resolved());
        assert!(!second.cancel_requested());
        let clone = second.clone();
        drop(second);
        assert_eq!(pool.free_len(), 0, "a live clone keeps the core out");
        drop(clone);
        assert_eq!(pool.free_len(), 1);
    }

    #[test]
    fn claim_is_exactly_once() {
        let pool = OpPool::new();
        let core = pool.acquire();
        assert!(core.try_claim());
        assert!(!core.try_claim(), "second resolver must lose");
        assert!(core.is_resolved());
    }

    #[test]
    fn recycled_cores_are_scrubbed() {
        let pool = OpPool::new();
        let core = pool.acquire();
        let future_side = core.clone();
        assert!(core.try_claim());
        future_side.request_cancel();
        core.resolve(Ok(OpResponse::Done));
        assert!(future_side.slot.lock().result.is_some(), "a live holder keeps the result");
        drop(future_side);
        let fresh = pool.acquire();
        assert!(!fresh.is_resolved());
        assert!(!fresh.cancel_requested());
        assert!(fresh.slot.lock().result.is_none());
        assert!(fresh.slot.lock().waker.is_none());
    }

    /// A waker that records how many counted references the core had
    /// when it was woken.
    struct RefProbe {
        core: Arc<OpCore>,
        refs_at_wake: AtomicUsize,
    }

    impl Wake for RefProbe {
        fn wake(self: Arc<Self>) {
            self.refs_at_wake.store(self.core.refs.load(Ordering::Acquire), Ordering::Release);
        }
    }

    #[test]
    fn the_resolver_lets_go_of_the_core_before_it_wakes() {
        let pool = OpPool::new();
        let queue_side = pool.acquire();
        let core = Arc::clone(queue_side.core.as_ref().expect("live handle"));
        let mut future = OpFuture::new(queue_side.clone(), Weak::new());
        let probe = Arc::new(RefProbe { core, refs_at_wake: AtomicUsize::new(0) });
        let waker = Waker::from(Arc::clone(&probe));
        assert!(Pin::new(&mut future).poll(&mut Context::from_waker(&waker)).is_pending());

        assert!(queue_side.try_claim());
        queue_side.resolve(Ok(OpResponse::Done));
        // Only the future's reference is live when it is woken, so the
        // woken owner recycles the core as soon as it lets go.
        assert_eq!(probe.refs_at_wake.load(Ordering::Acquire), 1);
        let ready = Pin::new(&mut future).poll(&mut Context::from_waker(&waker));
        assert!(matches!(ready, Poll::Ready(Ok(OpResponse::Done))));
        assert_eq!(pool.free_len(), 1, "consuming the result recycled the core");
    }

    #[test]
    fn resolving_with_no_other_holder_recycles_at_once() {
        let pool = OpPool::new();
        let queue_side = pool.acquire();
        assert!(queue_side.try_claim());
        queue_side.resolve(Ok(OpResponse::Done));
        assert_eq!(pool.free_len(), 1);
        assert!(pool.acquire().slot.lock().result.is_none());
    }

    #[test]
    fn block_on_runs_simple_futures() {
        assert_eq!(block_on(std::future::ready(7)), 7);
        // A future that wakes itself from another thread.
        struct Late {
            done: Arc<AtomicBool>,
            spawned: bool,
        }
        impl Future for Late {
            type Output = ();
            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                let this = self.get_mut();
                if this.done.load(Ordering::Acquire) {
                    return Poll::Ready(());
                }
                if !this.spawned {
                    this.spawned = true;
                    let done = Arc::clone(&this.done);
                    let waker = cx.waker().clone();
                    std::thread::spawn(move || {
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        done.store(true, Ordering::Release);
                        waker.wake();
                    });
                }
                Poll::Pending
            }
        }
        block_on(Late { done: Arc::new(AtomicBool::new(false)), spawned: false });
    }

    #[test]
    fn pool_mem_footprint_counts_parked_cores() {
        let pool = OpPool::new();
        let handles: Vec<CoreHandle> = (0..8).map(|_| pool.acquire()).collect();
        drop(handles);
        assert!(pool.mem_bytes() >= 8 * std::mem::size_of::<OpCore>() as u64);
    }
}
