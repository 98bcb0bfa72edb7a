//! Futures over the polled event loop, the pooled completion state
//! behind them, and the adapter that delivers them to listeners.
//!
//! Every queued operation completes one way: its result lands on the
//! operation's completion core and wakes whoever polls its `OpFuture`,
//! inline on the shard worker that resolved it — no parked helper
//! thread, no channel. The paper's API surface is listener pairs (§3.2:
//! success/failure callbacks delivered on the main thread); `listen`
//! is the adapter that turns an op future into that shape. It is the
//! only code that knows where a result is delivered.
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
//! takes the waker under that lock, so after `drop` returns no new wake
//! can start), requests cancellation, and wakes the loop so the sweep
//! fires promptly. Exactly one resolver ever claims a core — completion,
//! timeout, sweep, and shutdown drain all go through the same claim, so
//! an operation can never be counted (or delivered) twice no matter how
//! a cancel races a completion.
//!
//! [`OpTicket`]: crate::eventloop::OpTicket

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::task::{Context, Poll, Wake, Waker};

use morena_android_sim::looper::Handler;
use morena_obs::Mutex;
use morena_obs::{trace, MemFootprint, TraceContext};

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

    /// Stores the result of an operation, gives back this (queue-side)
    /// reference, then wakes the registered waker. Must only be called
    /// by the claiming resolver.
    ///
    /// The reference goes *before* the wake: the woken `block_on` caller
    /// drops its future as the last holder and so recycles the core
    /// before it submits again — otherwise the next submit could find
    /// the freelist empty and allocate. The waker is taken under the
    /// slot lock, which `OpFuture::drop` takes to clear it, and woken
    /// after the lock is released: a waker may then poll the future
    /// inline ([`listen`] does once the main thread has quit) without
    /// re-entering the lock.
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
        let waker = slot.waker.take();
        drop(slot);
        if let Some(waker) = waker {
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
    /// `None` once the result has been consumed.
    core: Option<CoreHandle>,
    task: Weak<crate::eventloop::Shared>,
    /// The op's causal context, minted at submit: [`listen`] delivers
    /// under it.
    trace: Option<TraceContext>,
}

impl OpFuture {
    pub(crate) fn new(
        core: CoreHandle,
        task: Weak<crate::eventloop::Shared>,
        trace: Option<TraceContext>,
    ) -> OpFuture {
        OpFuture { core: Some(core), task, trace }
    }

    /// The future of an operation that never queued (its value failed
    /// conversion): a lone core outside any pool, already resolved with
    /// `failure`, whose ticket cancels nothing.
    pub(crate) fn failed(failure: OpFailure) -> OpFuture {
        let core = OpCore {
            state: AtomicU8::new(STATE_RESOLVED),
            cancelled: AtomicBool::new(true),
            refs: AtomicUsize::new(1),
            slot: Mutex::new(CoreSlot { result: Some(Err(failure)), waker: None }),
            pool: Weak::new(),
        };
        OpFuture::new(CoreHandle::new(Arc::new(core)), Weak::new(), None)
    }

    /// A cancellation ticket for the underlying operation. After the
    /// future has resolved, cancelling it is a no-op, matching
    /// [`OpTicket`](crate::eventloop::OpTicket) semantics for completed
    /// operations.
    pub(crate) fn ticket(&self) -> crate::eventloop::OpTicket {
        match &self.core {
            Some(core) => crate::eventloop::OpTicket::new(core.clone(), self.task.clone()),
            None => OpFuture::failed(OpFailure::Cancelled).ticket(),
        }
    }

    /// The op's causal context.
    pub(crate) fn trace(&self) -> Option<TraceContext> {
        self.trace
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
        // Clear the waker under the slot lock: completion takes it under
        // the same lock, so after this drop returns no new wake starts.
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
/// beam/peer pushes and tag write-protection. Resolves to `Ok(())` on
/// completion; dropping it before then withdraws the operation.
pub struct UnitFuture(pub(crate) OpFuture);

impl UnitFuture {
    /// A ticket to cancel the underlying operation without dropping the
    /// future.
    pub fn ticket(&self) -> crate::eventloop::OpTicket {
        self.0.ticket()
    }

    /// Delivers the outcome to a listener pair on the main thread.
    pub(crate) fn listen(
        self,
        handler: Handler,
        on_success: impl FnOnce() + Send + 'static,
        on_failure: impl FnOnce(OpFailure) + Send + 'static,
    ) {
        listen(handler, self.0.trace(), self, move |outcome| match outcome {
            Ok(()) => on_success(),
            Err(failure) => on_failure(failure),
        });
    }
}

impl std::fmt::Debug for UnitFuture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UnitFuture").field("resolved", &self.0.core.is_none()).finish()
    }
}

impl Future for UnitFuture {
    type Output = Result<(), OpFailure>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        Pin::new(&mut self.get_mut().0).poll(cx).map_ok(drop)
    }
}

/// The listener adapter's task: one op future, polled with the task
/// itself as the waker, and what to do with its output.
struct Listen<F, D> {
    handler: Handler,
    trace: Option<TraceContext>,
    /// `None` once the output has been taken for delivery.
    state: Mutex<Option<(F, D)>>,
}

impl<F, D> Listen<F, D>
where
    F: Future + Unpin + Send + 'static,
    F::Output: Send + 'static,
    D: FnOnce(F::Output) + Send + 'static,
{
    /// Polls the future once; when it is ready, takes the output and the
    /// delivery out, so nothing is ever delivered twice.
    fn poll(self: &Arc<Self>) -> Option<(F::Output, D)> {
        let mut state = self.state.lock();
        let (future, _) = state.as_mut()?;
        let waker = Waker::from(Arc::clone(self));
        let output = match Pin::new(future).poll(&mut Context::from_waker(&waker)) {
            Poll::Ready(output) => output,
            Poll::Pending => return None,
        };
        let (_, deliver) = state.take()?;
        Some((output, deliver))
    }

    /// Runs `task` on the main thread under the op's context. Once the
    /// looper has quit (application teardown) it runs inline instead:
    /// the terminal-delivery guarantee outranks thread affinity once the
    /// main thread no longer exists.
    fn on_main(&self, task: impl FnOnce() + Send + 'static) {
        let trace = self.trace;
        if let Err(task) = self.handler.post_or_take(move || trace::with(trace, task)) {
            task();
        }
    }
}

impl<F, D> Wake for Listen<F, D>
where
    F: Future + Unpin + Send + 'static,
    F::Output: Send + 'static,
    D: FnOnce(F::Output) + Send + 'static,
{
    fn wake(self: Arc<Self>) {
        let this = Arc::clone(&self);
        self.on_main(move || {
            if let Some((output, deliver)) = this.poll() {
                deliver(output);
            }
        });
    }
}

/// Delivers `future`'s output to `deliver` on the main thread `handler`
/// posts to — the paper's listener surface over an op future. Delivery
/// runs under the op's causal context `trace`, so an op the listener
/// submits joins the trace as a child hop: a read-then-write chain stays
/// one story.
///
/// The calling thread polls the future once to register the task as
/// its waker; every later poll, and the delivery, runs on the main
/// thread. An output already ready at that first poll is posted too,
/// never delivered inside the submitting call.
pub(crate) fn listen<F, D>(handler: Handler, trace: Option<TraceContext>, future: F, deliver: D)
where
    F: Future + Unpin + Send + 'static,
    F::Output: Send + 'static,
    D: FnOnce(F::Output) + Send + 'static,
{
    let task = Arc::new(Listen { handler, trace, state: Mutex::new(Some((future, deliver))) });
    if let Some((output, deliver)) = task.poll() {
        task.on_main(move || deliver(output));
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
/// allocation of their own. MORENA's futures resolve on the loop's
/// polling thread, never through the main thread, so this is safe to
/// call from the main thread too.
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
        let mut future = OpFuture::new(queue_side.clone(), Weak::new(), None);
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
