//! The far-reference event loop (§3.2 of the paper).
//!
//! Every tag reference (and beamer) *"encapsulates a private event loop
//! that uses its own thread of control to sequentially check if the first
//! message in the queue can be processed. If it fails, it just remains in
//! the queue. […] It is guaranteed that a message is never processed
//! before previously scheduled messages are processed first."*
//!
//! This module implements exactly that machine, generically over an
//! internal executor trait so the same loop drives tag I/O and beam
//! pushes:
//!
//! * strict FIFO processing — the head operation blocks the queue;
//! * automatic retry of transiently failed operations (decoupling in
//!   time) on the loop's [`Policy`] backoff curve (jittered exponential
//!   by default — see [`crate::policy`]), re-armed immediately on
//!   connectivity changes;
//! * optional write coalescing ([`Policy::coalesce_writes`]): a front
//!   run of queued writes collapses into one exchange at flush time,
//!   completing every member exactly once in FIFO order;
//! * per-operation deadlines — an expired head operation is dropped and
//!   its failure listener fired;
//! * cancelled operations are swept from the whole queue (not just the
//!   head) and their failure listeners fired immediately;
//! * listener delivery on the application's main thread, in completion
//!   order.
//!
//! The loop itself is a poll-able state machine (`Shared` implements
//! `PollTask`): one call to `poll` performs at most one unit of work
//! and reports how the loop wants to be resumed. How polls get a thread
//! is the [`crate::sched`] module's business: the loop is pinned to one
//! shard of the context's worker pool, whose single worker polls it.
//!
//! A poll never waits on the radio. An attempt whose exchange needs air
//! time stops with that exchange on the air and the loop asks to be
//! polled again when it lands (`LoopPoll::RunnableAt`). The attempt's
//! `Progress` holds its radio [`Session`]: the NDEF step machine, the
//! exchange on the air, a response held back. The next poll resumes from
//! there and re-runs nothing. Until the attempt ends, a poll does nothing
//! else.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use morena_android_sim::looper::Handler;
use morena_nfc_sim::clock::{Clock, SimInstant};
use morena_nfc_sim::controller::{Resume, Session};
use morena_nfc_sim::error::NfcOpError;
use morena_obs::inspect::{ComponentSnapshot, HeadOp, LoopSnapshot, SnapshotProvider};
use morena_obs::Mutex;
use morena_obs::{
    trace, AttemptOutcome, Counter, EventKind, Histogram, MemFootprint, OpKind, OpOutcome,
    Recorder, Rng, TraceContext,
};

use crate::context::MorenaContext;
use crate::convert::ConvertError;
use crate::future::{CoreHandle, OpFuture, OpPool};
use crate::policy::{BackoffState, Policy};
use crate::sched::{LoopPoll, PollTask, Scheduler, Shard};

/// Why an asynchronous MORENA operation did not succeed, delivered to the
/// operation's failure listener.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum OpFailure {
    /// The operation stayed queued past its timeout. Transient faults
    /// (tag out of range, noise) surface this way after retries.
    TimedOut,
    /// The operation failed for a reason retrying cannot fix (tag is
    /// read-only, message too large, not NDEF-formatted, …).
    Failed(NfcOpError),
    /// The data on the tag could not be converted to the reference's
    /// value type.
    InvalidData(ConvertError),
    /// The reference/beamer was shut down with the operation still
    /// queued.
    Cancelled,
}

impl std::fmt::Display for OpFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpFailure::TimedOut => write!(f, "operation timed out"),
            OpFailure::Failed(e) => write!(f, "operation failed permanently: {e}"),
            OpFailure::InvalidData(e) => write!(f, "operation produced unconvertible data: {e}"),
            OpFailure::Cancelled => write!(f, "operation cancelled by shutdown"),
        }
    }
}

impl std::error::Error for OpFailure {}

/// A queued physical operation. Payloads are shared slices so the
/// per-attempt `clone` on the hot path is a refcount bump, not a buffer
/// copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum OpRequest {
    /// Read the full NDEF message.
    Read,
    /// Replace the NDEF message with these bytes.
    Write(Arc<[u8]>),
    /// Permanently write-protect the tag.
    MakeReadOnly,
    /// Push these bytes to any peer in proximity.
    Push(Arc<[u8]>),
}

/// What a successful operation yields: the bytes a read found on the tag
/// (empty = blank tag), or `Done`. A tag attempt passes its NDEF
/// procedure's outcome through as is.
pub(crate) use morena_nfc_sim::proto::Outcome as OpResponse;

/// The physical half of the loop: connectivity probing and the
/// non-blocking execution of one operation attempt.
///
/// `Sync` because the loop state lives on a shared scheduler; only one
/// thread calls `execute` at a time, but wakers may probe concurrently.
pub(crate) trait OpExecutor: Send + Sync + 'static {
    /// Whether the remote party is reachable right now.
    fn connected(&self) -> bool;

    /// Starts or resumes one attempt of `request` over the radio,
    /// without waiting on air time. `progress` starts empty and carries
    /// the attempt between calls: while an exchange is on the air this
    /// returns [`Resume::WaitUntil`], and the next call, with the same
    /// request and progress, goes on from there.
    fn execute(&self, request: &OpRequest, progress: &mut Progress) -> Attempted;
}

/// How far [`OpExecutor::execute`] got with an attempt.
pub(crate) type Attempted = Resume<Result<OpResponse, NfcOpError>>;

/// What one attempt carries from the poll that stops it to the poll that
/// resumes it.
#[derive(Debug, Default)]
pub(crate) struct Progress {
    /// The radio side: the NDEF procedure running, the exchange on the
    /// air, a response held back.
    pub(crate) session: Session,
    /// Set while a tag attempt whose own procedure failed runs a
    /// recovery procedure: the failure it reports unless the recovery
    /// shows the operation took effect.
    pub(crate) failed: Option<NfcOpError>,
}

// The per-loop lifetime counters migrated to `morena-obs` (one stats
// path for the whole workspace); re-exported here so `core::eventloop`
// remains their canonical middleware-facing home.
pub use morena_obs::{OpStats, OpStatsSnapshot};

/// Where a loop's operations land in the unified observability stream:
/// the world's [`Recorder`] plus the identity stamped on every event.
/// The `target` string must match the simulator's physical-event keying
/// (tag uid rendering, `phone-N` for peers, `*` for undirected beams)
/// so [`morena_obs::correlate`] can join the two streams.
#[derive(Clone)]
pub(crate) struct ObsScope {
    pub(crate) recorder: Arc<Recorder>,
    pub(crate) loop_name: String,
    /// Loop family label surfaced by the inspector (`tag`, `beam`,
    /// `peer`; `test` in harnesses).
    pub(crate) kind: &'static str,
    pub(crate) phone: u64,
    pub(crate) target: String,
}

impl ObsScope {
    /// Scope for a loop owned by `ctx`'s phone, wired to its world's
    /// recorder.
    pub(crate) fn new(
        ctx: &MorenaContext,
        loop_name: String,
        kind: &'static str,
        target: String,
    ) -> ObsScope {
        ObsScope {
            recorder: Arc::clone(ctx.nfc().world().obs()),
            loop_name,
            kind,
            phone: ctx.phone().as_u64(),
            target,
        }
    }

    /// Scope wired to a fresh disabled recorder — events go nowhere.
    #[cfg(any(test, feature = "bench-hooks"))]
    pub(crate) fn detached(name: &str) -> ObsScope {
        ObsScope {
            recorder: Arc::new(Recorder::new()),
            loop_name: name.to_owned(),
            kind: "test",
            phone: 0,
            target: name.to_owned(),
        }
    }

    /// Emits an event with an explicit trace context (overriding the
    /// thread's ambient one — the causal owner of a loop event is a
    /// queued op, not whatever the polling thread happens to be doing),
    /// constructing it only when recording is enabled (the disabled
    /// path is one relaxed atomic load).
    #[inline]
    fn emit_traced(
        &self,
        at: SimInstant,
        trace: Option<TraceContext>,
        make: impl FnOnce() -> EventKind,
    ) {
        if self.recorder.is_enabled() {
            self.recorder.emit_traced(at.as_nanos(), trace, make());
        }
    }
}

/// Metric handles resolved once at spawn so the hot loop never touches
/// the registry lock.
struct LoopMetrics {
    submitted: Counter,
    attempts: Counter,
    retries: Counter,
    succeeded: Counter,
    timed_out: Counter,
    failed: Counter,
    cancelled: Counter,
    attempt_ns: Arc<Histogram>,
    completion_ns: Arc<Histogram>,
    /// Chosen retry delays — the policy layer's observable behavior
    /// (jitter shows up as spread, curve depth as the upper tail).
    backoff_ns: Arc<Histogram>,
    /// Flushes that collapsed ≥2 queued writes into one exchange.
    coalesced_batches: Counter,
    /// Radio exchanges avoided by coalescing (batch size − 1 each).
    saved_exchanges: Counter,
}

impl LoopMetrics {
    fn resolve(recorder: &Recorder) -> LoopMetrics {
        let m = recorder.metrics();
        LoopMetrics {
            submitted: m.counter("ops.submitted"),
            attempts: m.counter("ops.attempts"),
            retries: m.counter("ops.retries"),
            succeeded: m.counter("ops.succeeded"),
            timed_out: m.counter("ops.timed_out"),
            failed: m.counter("ops.failed"),
            cancelled: m.counter("ops.cancelled"),
            attempt_ns: m.histogram("op.attempt_ns"),
            completion_ns: m.histogram("op.completion_ns"),
            backoff_ns: m.histogram("policy.backoff_ns"),
            coalesced_batches: m.counter("coalesce.batches"),
            saved_exchanges: m.counter("coalesce.saved_exchanges"),
        }
    }
}

fn op_kind(request: &OpRequest) -> OpKind {
    match request {
        OpRequest::Read => OpKind::Read,
        OpRequest::Write(_) => OpKind::Write,
        OpRequest::MakeReadOnly => OpKind::MakeReadOnly,
        OpRequest::Push(_) => OpKind::Push,
    }
}

/// A handle to one queued operation, usable to cancel it before it
/// completes (the §3.2 queue made manageable: a user backing out of a
/// pending write can withdraw it instead of waiting for the timeout).
///
/// Cancelling is idempotent; once the operation has completed (or timed
/// out) cancellation has no effect — `cancel` reports `false` and the
/// already-delivered outcome stands. Exactly one of {success listener,
/// failure listener} ever fires per operation, no matter how a cancel
/// races the completion (every resolution path claims the operation's
/// completion core first).
#[derive(Clone)]
pub struct OpTicket {
    core: CoreHandle,
    task: Weak<Shared>,
}

impl std::fmt::Debug for OpTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpTicket").field("cancelled", &self.is_cancelled()).finish()
    }
}

impl OpTicket {
    pub(crate) fn new(core: CoreHandle, task: Weak<Shared>) -> OpTicket {
        OpTicket { core, task }
    }

    /// A ticket for an operation that was never queued: already
    /// resolved, already cancelled, cancelling it is a no-op.
    pub(crate) fn dead() -> OpTicket {
        OpTicket::new(OpPool::dead_core(), Weak::new())
    }

    /// Requests cancellation. Returns whether this call withdrew the
    /// operation (false = already cancelled earlier, or already
    /// completed — a completed op cannot be un-delivered).
    ///
    /// The operation's failure listener fires with
    /// [`OpFailure::Cancelled`] when the loop sweeps it.
    pub fn cancel(&self) -> bool {
        if self.core.is_resolved() {
            return false;
        }
        let flipped = !self.core.request_cancel();
        if flipped {
            if let Some(task) = self.task.upgrade() {
                task.wake();
            }
        }
        flipped
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.core.cancel_requested()
    }
}

/// How a completed operation reaches its consumer.
pub(crate) enum Completion {
    /// The paper's surface: success/failure listener pair, posted to the
    /// application's main thread.
    Listeners {
        on_success: Box<dyn FnOnce(OpResponse) + Send>,
        on_failure: Box<dyn FnOnce(OpFailure) + Send>,
    },
    /// An [`OpFuture`] awaits the result: it is stored on the op's
    /// completion core and the registered waker is woken inline on the
    /// polling thread — no main-thread hop, no boxed closure.
    Future,
}

/// One attempt of the head op (and of the queued writes coalesced into
/// it), from its first exchange to its outcome.
struct Attempt {
    op_id: u64,
    /// The coalesced followers; empty (never allocated) on the common
    /// single-op path.
    rest: Vec<u64>,
    request: OpRequest,
    deadline: SimInstant,
    /// The head op's causal context: installed as the polling thread's
    /// ambient scope around every run of the attempt, so the attempt —
    /// and every physical event the simulator emits inside it — joins
    /// the op's trace.
    trace: Option<TraceContext>,
    started: SimInstant,
    progress: Progress,
    /// While the attempt waits on the air: when to run it again.
    wake: SimInstant,
}

/// Loop state only the polling thread touches (the mutex around it is a
/// formality for `Sync`).
struct Poller {
    /// Retry-streak state and the loop's private jitter RNG.
    backoff: BackoffState,
    /// The head's attempt while it waits on the air. A loop that never
    /// waits carries only this empty slot.
    in_flight: Option<Box<Attempt>>,
}

struct PendingOp {
    op_id: u64,
    request: OpRequest,
    deadline: SimInstant,
    enqueued_at: SimInstant,
    /// The pooled completion state shared with tickets and futures.
    core: CoreHandle,
    completion: Completion,
    /// The op's causal identity: minted at submit (a child of the
    /// submitter's ambient context, or a fresh sampled-or-not root) and
    /// stamped on every event this op causes — attempts, completion,
    /// the simulator's physical ground truth, and listener callbacks.
    trace: Option<TraceContext>,
}

/// The complete state of one event loop — the `LoopState` the scheduler
/// polls. Only the owning shard worker ever calls
/// [`Shared::poll_loop`]; everything else is waker-side.
pub(crate) struct Shared {
    queue: Mutex<VecDeque<PendingOp>>,
    stopped: AtomicBool,
    /// Wake-dedupe flag: set while the task sits in its shard's ready
    /// queue (see [`PollTask::try_schedule`]).
    scheduled: AtomicBool,
    /// The shard this loop is pinned to for life; its worker polls the
    /// loop and its freelist supplies the completion cores.
    shard: Arc<Shard>,
    clock: Arc<dyn Clock>,
    handler: Handler,
    stats: Arc<OpStats>,
    policy: Policy,
    poller: Mutex<Poller>,
    executor: Box<dyn OpExecutor>,
    obs: ObsScope,
    metrics: LoopMetrics,
    /// Which op the polling thread last attempted (`u64::MAX` = none
    /// yet) and how many attempts it has absorbed — the inspector's
    /// retry-storm evidence. Written only by the polling thread, read
    /// by inspector snapshots.
    head_op_id: AtomicU64,
    head_attempts: AtomicU64,
    /// One-shot coalescing suppression, set when a *coalesced* exchange
    /// fails permanently: the failing exchange carried the run's last
    /// payload, so no individual op can be indicted by it. The next
    /// attempt runs the head alone (own bytes, own verdict), after
    /// which batching resumes. Only the polling thread touches it.
    suppress_coalesce: AtomicBool,
}

impl Shared {
    /// Posts a listener to the main thread; if the looper has already
    /// quit (application teardown), runs it inline on the current thread
    /// instead — the terminal-delivery guarantee outranks thread
    /// affinity once the main thread no longer exists.
    fn post_listener(&self, task: impl FnOnce() + Send + 'static) {
        if let Err(task) = self.handler.post_or_take(task) {
            task();
        }
    }

    /// Mints the causal identity of a newly submitted op.
    ///
    /// * Submitted under an ambient context (a listener callback, a
    ///   beam/peer handler, a lease acquire): the op is a *child* hop of
    ///   that context — same trace, new span, parent edge to the cause.
    /// * Submitted cold with recording enabled: a fresh *root*, sampled
    ///   per the policy's [`Policy::trace_sample`] rate (exact on the
    ///   recorder's monotonic trace ids).
    /// * Recording disabled and no ambient context: `None` — the only
    ///   cost was one TLS read and one relaxed load.
    fn mint_trace(&self) -> Option<TraceContext> {
        let recorder = &self.obs.recorder;
        if let Some(parent) = trace::current() {
            return Some(parent.child(recorder.next_span_id()));
        }
        if !recorder.is_enabled() {
            return None;
        }
        let trace_id = recorder.next_trace_id();
        let span_id = recorder.next_span_id();
        Some(if self.policy.trace_sample.admits(trace_id) {
            TraceContext::root(trace_id, span_id)
        } else {
            TraceContext::unsampled_root(trace_id, span_id)
        })
    }

    /// The single resolution path for a queued operation: claims the
    /// op's completion core (exactly one resolver wins — a listener can
    /// never fire *and* the op be swept as cancelled), records
    /// stats/metrics/obs for the winning outcome, and delivers it
    /// through the op's [`Completion`].
    fn complete(&self, op: PendingOp, at: SimInstant, outcome: Result<OpResponse, OpFailure>) {
        if !op.core.try_claim() {
            return;
        }
        // Every lifecycle event of this op carries *its* context, not
        // whatever happens to be ambient on the completing thread (a
        // coalesced follower completes during the head's attempt scope).
        let trace = op.trace;
        match &outcome {
            Ok(_) => {
                let completion_nanos = at.saturating_since(op.enqueued_at).as_nanos() as u64;
                self.stats.record_succeeded(completion_nanos);
                self.metrics.succeeded.inc();
                self.metrics.completion_ns.observe(completion_nanos);
                self.obs.emit_traced(at, trace, || EventKind::OpCompleted {
                    op_id: op.op_id,
                    outcome: OpOutcome::Succeeded,
                });
            }
            Err(OpFailure::TimedOut) => {
                self.stats.record_timed_out();
                self.metrics.timed_out.inc();
                self.obs.emit_traced(at, trace, || EventKind::OpCompleted {
                    op_id: op.op_id,
                    outcome: OpOutcome::TimedOut,
                });
            }
            Err(OpFailure::Cancelled) => {
                self.stats.record_cancelled();
                self.metrics.cancelled.inc();
                self.obs.emit_traced(at, trace, || EventKind::OpCompleted {
                    op_id: op.op_id,
                    outcome: OpOutcome::Cancelled,
                });
            }
            Err(_) => {
                self.stats.record_failed();
                self.metrics.failed.inc();
                self.obs.emit_traced(at, trace, || EventKind::OpCompleted {
                    op_id: op.op_id,
                    outcome: OpOutcome::Failed,
                });
            }
        }
        // Listeners run under the op's context so any operation the
        // application submits from inside the callback joins the trace
        // as a child hop — the read-then-write chain stays one story.
        match op.completion {
            Completion::Listeners { on_success, on_failure } => match outcome {
                Ok(response) => {
                    drop(on_failure);
                    self.post_listener(move || trace::with(trace, move || on_success(response)));
                }
                Err(failure) => {
                    drop(on_success);
                    self.post_listener(move || trace::with(trace, move || on_failure(failure)));
                }
            },
            Completion::Future => op.core.resolve(outcome),
        }
    }

    /// Terminal delivery for an operation that never entered the queue
    /// (submitted after stop): counted as cancelled, resolved through
    /// its completion without any enqueue/complete event pair.
    fn resolve_unqueued(&self, core: CoreHandle, completion: Completion, failure: OpFailure) {
        if !core.try_claim() {
            return;
        }
        self.stats.record_cancelled();
        self.metrics.cancelled.inc();
        match completion {
            Completion::Listeners { on_failure, .. } => {
                self.post_listener(move || on_failure(failure));
            }
            Completion::Future => core.resolve(Err(failure)),
        }
    }

    /// Re-enqueues this loop for a poll.
    pub(crate) fn wake(self: &Arc<Self>) {
        self.shard.wake(Arc::clone(self) as Arc<dyn PollTask>);
    }

    /// Empties the queue, failing every op as Cancelled. Runs on the
    /// polling thread once `stopped` is observed; `submit` races are
    /// closed by its own under-lock `stopped` re-check.
    fn drain_all(&self) {
        let drained: Vec<PendingOp> = self.queue.lock().drain(..).collect();
        if drained.is_empty() {
            return;
        }
        let now = self.clock.now();
        for op in drained {
            self.complete(op, now, Err(OpFailure::Cancelled));
        }
    }

    /// Removes cancelled ops from the *whole* queue (not just the head)
    /// and fires their listeners immediately.
    fn sweep_cancelled(&self, now: SimInstant) {
        let swept: Vec<PendingOp> = {
            let mut queue = self.queue.lock();
            if !queue.iter().any(|op| op.core.cancel_requested()) {
                return;
            }
            let mut kept = VecDeque::with_capacity(queue.len());
            let mut swept = Vec::new();
            for op in queue.drain(..) {
                if op.core.cancel_requested() {
                    swept.push(op);
                } else {
                    kept.push_back(op);
                }
            }
            *queue = kept;
            swept
        };
        for op in swept {
            self.complete(op, now, Err(OpFailure::Cancelled));
        }
    }

    /// Pops the head only if it is still the op we just attempted — a
    /// concurrent drain may have removed it, in which case its Cancelled
    /// listener already fired and the response is dropped.
    fn pop_if_head(&self, op_id: u64) -> Option<PendingOp> {
        let mut queue = self.queue.lock();
        if queue.front().is_some_and(|op| op.op_id == op_id) {
            queue.pop_front()
        } else {
            None
        }
    }

    /// Pops the front run of ops whose ids match `head` then `rest` in
    /// order, skipping any id no longer at the front (a concurrent drain
    /// removed it and already fired its Cancelled listener). The ids were
    /// gathered from the queue front under this same lock earlier in the
    /// poll, so whatever survives is still a contiguous prefix in the
    /// same order.
    fn pop_matching(&self, head: u64, rest: &[u64]) -> Vec<PendingOp> {
        let mut queue = self.queue.lock();
        let mut out = Vec::with_capacity(rest.len() + 1);
        for &id in std::iter::once(&head).chain(rest) {
            if queue.front().is_some_and(|op| op.op_id == id) {
                out.push(queue.pop_front().expect("checked front"));
            }
        }
        out
    }

    /// One unit of loop work; see [`LoopPoll`] for the resume contract.
    fn poll_loop(&self) -> LoopPoll {
        // An attempt waiting on the air owns the loop until it ends, as
        // if it still ran inside one poll: no timeout, cancel sweep,
        // stop drain or coalescing decision is taken meanwhile.
        let in_flight = self.poller.lock().in_flight.take();
        if let Some(mut attempt) = in_flight {
            if self.clock.now() >= attempt.wake {
                if let Some(outcome) = self.run(&mut attempt) {
                    return self.conclude(*attempt, outcome);
                }
            }
            let wake = attempt.wake;
            self.poller.lock().in_flight = Some(attempt);
            return LoopPoll::RunnableAt(wake);
        }
        if self.stopped.load(Ordering::Acquire) {
            self.drain_all();
            return LoopPoll::Park;
        }
        let now = self.clock.now();
        self.sweep_cancelled(now);

        enum Step {
            Empty,
            Timeout(PendingOp),
            Blocked(SimInstant),
            /// Attempt one exchange covering the head op plus `rest` —
            /// the queued writes behind it that coalescing collapsed
            /// into this exchange.
            Attempt {
                op_id: u64,
                rest: Vec<u64>,
                request: OpRequest,
                deadline: SimInstant,
                trace: Option<TraceContext>,
            },
        }

        let step = {
            let mut queue = self.queue.lock();
            match queue.front() {
                None => Step::Empty,
                Some(op) if now >= op.deadline => {
                    Step::Timeout(queue.pop_front().expect("checked front"))
                }
                Some(op) => {
                    if self.executor.connected() {
                        let mut rest = Vec::new();
                        let mut request = op.request.clone();
                        // Write coalescing (policy knob): extend the
                        // exchange over the contiguous run of queued
                        // writes behind the head. Every write in this
                        // codec replaces the whole NDEF message — one
                        // region per tag — so the run's net effect is
                        // the *last* write's bytes; one exchange
                        // carrying those bytes completes every op in
                        // the run. The run stops at the first non-write
                        // (a read must observe its predecessor's bytes
                        // on the tag), cancelled op, or expired op, so
                        // FIFO-observable semantics are untouched.
                        if self.policy.coalesce_writes
                            && matches!(op.request, OpRequest::Write(_))
                            && !self.suppress_coalesce.swap(false, Ordering::Relaxed)
                        {
                            let mut last: Option<&Arc<[u8]>> = None;
                            for next in queue.iter().skip(1) {
                                match &next.request {
                                    OpRequest::Write(bytes)
                                        if !next.core.cancel_requested() && now < next.deadline =>
                                    {
                                        rest.push(next.op_id);
                                        last = Some(bytes);
                                    }
                                    _ => break,
                                }
                            }
                            if let Some(bytes) = last {
                                request = OpRequest::Write(Arc::clone(bytes));
                            }
                        }
                        Step::Attempt {
                            op_id: op.op_id,
                            rest,
                            request,
                            deadline: op.deadline,
                            trace: op.trace,
                        }
                    } else {
                        Step::Blocked(op.deadline)
                    }
                }
            }
        };
        match step {
            Step::Empty => LoopPoll::Park,
            Step::Timeout(op) => {
                self.complete(op, now, Err(OpFailure::TimedOut));
                LoopPoll::Runnable
            }
            Step::Blocked(deadline) => LoopPoll::RunnableAt(deadline),
            Step::Attempt { op_id, rest, request, deadline, trace } => {
                let attempt_started = self.clock.now();
                // The head was selected with `now` from the top of the
                // poll; the connectivity probe (or a concurrent clock
                // advance) may have crossed the deadline since. A retry
                // rescheduled for `backoff.min(deadline)` fires at
                // exactly the deadline instant, and once `now >=
                // deadline` the op must complete as TimedOut — never
                // attempt again.
                if attempt_started >= deadline {
                    if let Some(op) = self.pop_if_head(op_id) {
                        self.complete(op, attempt_started, Err(OpFailure::TimedOut));
                    }
                    return LoopPoll::Runnable;
                }
                if self.head_op_id.swap(op_id, Ordering::Relaxed) == op_id {
                    self.head_attempts.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.head_attempts.store(1, Ordering::Relaxed);
                }
                let mut attempt = Attempt {
                    op_id,
                    rest,
                    request,
                    deadline,
                    trace,
                    started: attempt_started,
                    progress: Progress::default(),
                    wake: attempt_started,
                };
                match self.run(&mut attempt) {
                    Some(outcome) => self.conclude(attempt, outcome),
                    None => {
                        let wake = attempt.wake;
                        self.poller.lock().in_flight = Some(Box::new(attempt));
                        LoopPoll::RunnableAt(wake)
                    }
                }
            }
        }
    }

    /// Runs the attempt as far as the radio allows without waiting, under
    /// the op's ambient trace scope: the simulator's PhysExchange and
    /// PhysBeam ground truth — and anything a sender-side executor does
    /// (e.g. appending the trace record to a beam payload) — inherits the
    /// op's context. `None` while the attempt waits on the air, with
    /// `attempt.wake` set to when to run it again.
    fn run(&self, attempt: &mut Attempt) -> Option<Result<OpResponse, NfcOpError>> {
        let progress = &mut attempt.progress;
        match trace::with(attempt.trace, || self.executor.execute(&attempt.request, progress)) {
            Resume::Ready(outcome) => Some(outcome),
            Resume::WaitUntil(wake) => {
                attempt.wake = wake;
                None
            }
        }
    }

    /// Records an ended attempt and acts on its outcome: completes the
    /// head (and its coalesced run), or keeps it queued for a retry.
    fn conclude(&self, attempt: Attempt, outcome: Result<OpResponse, NfcOpError>) -> LoopPoll {
        let Attempt { op_id, rest, deadline, trace, started: attempt_started, .. } = attempt;
        let finished = self.clock.now();
        let attempt_nanos = finished.saturating_since(attempt_started).as_nanos() as u64;
        self.stats.record_attempt(attempt_nanos);
        self.metrics.attempts.inc();
        self.metrics.attempt_ns.observe(attempt_nanos);
        let attempt_outcome = match &outcome {
            Ok(_) => AttemptOutcome::Success,
            Err(e) if e.is_transient() => AttemptOutcome::Transient,
            Err(_) => AttemptOutcome::Permanent,
        };
        self.obs.emit_traced(finished, trace, || EventKind::OpAttempt {
            op_id,
            started_nanos: attempt_started.as_nanos(),
            duration_nanos: attempt_nanos,
            outcome: attempt_outcome,
        });
        match outcome {
            Ok(response) => {
                if !rest.is_empty() {
                    // One exchange landed the whole coalesced
                    // run: complete every surviving op Ok, in
                    // FIFO order (writes yield `Done`, so no
                    // per-op response needs fabricating).
                    let batch = self.pop_matching(op_id, &rest);
                    let completed = batch.len();
                    for op in batch {
                        self.complete(op, finished, Ok(OpResponse::Done));
                    }
                    if completed > 1 {
                        self.metrics.coalesced_batches.inc();
                        self.metrics.saved_exchanges.add(completed as u64 - 1);
                    }
                } else if let Some(op) = self.pop_if_head(op_id) {
                    self.complete(op, finished, Ok(response));
                }
                LoopPoll::Runnable
            }
            Err(e) if e.is_transient() => {
                // Decoupling in time: the operation stays queued
                // (a failed coalesced exchange keeps the whole
                // run queued — nothing was popped). Back off on
                // the policy's curve; a connectivity
                // notification re-arms the attempt immediately.
                self.stats.record_transient_failure();
                self.metrics.retries.inc();
                let delay = self.poller.lock().backoff.next_delay(&self.policy.backoff, op_id);
                self.metrics.backoff_ns.observe(delay.as_nanos() as u64);
                let backoff = self.clock.now() + delay;
                LoopPoll::RunnableAt(backoff.min(deadline))
            }
            Err(e) => {
                if !rest.is_empty() {
                    // The failed exchange carried the *last*
                    // write's payload — blaming the head for it
                    // would misattribute (e.g. a follower's
                    // too-large message). Keep everything
                    // queued and re-attempt the head alone; it
                    // earns its own verdict next poll.
                    self.suppress_coalesce.store(true, Ordering::Relaxed);
                } else if let Some(op) = self.pop_if_head(op_id) {
                    self.complete(op, finished, Err(OpFailure::Failed(e)));
                }
                LoopPoll::Runnable
            }
        }
    }
}

impl PendingOp {
    /// Heap bytes this op drags along beyond its own struct: the
    /// payload buffer. Listener boxes count only their fat pointers
    /// (already inside the struct) — closure environments are opaque,
    /// and in practice a few machine words.
    fn payload_bytes(&self) -> u64 {
        match &self.request {
            OpRequest::Write(bytes) | OpRequest::Push(bytes) => bytes.len() as u64,
            OpRequest::Read | OpRequest::MakeReadOnly => 0,
        }
    }
}

impl MemFootprint for Shared {
    fn mem_bytes(&self) -> u64 {
        let (slots, payloads) = {
            let queue = self.queue.lock();
            let payloads: u64 = queue.iter().map(PendingOp::payload_bytes).sum();
            (queue.capacity() as u64, payloads)
        };
        // The shard's shared core pool is accounted by its snapshot.
        std::mem::size_of::<Shared>() as u64
            + slots * std::mem::size_of::<PendingOp>() as u64
            + payloads
            + self.obs.loop_name.capacity() as u64
            + self.obs.target.capacity() as u64
    }
}

impl SnapshotProvider for Shared {
    fn snapshot(&self, now_nanos: u64) -> ComponentSnapshot {
        let (queue_depth, head) = {
            let queue = self.queue.lock();
            let head = queue.front().map(|op| {
                let enqueued = op.enqueued_at.as_nanos();
                // The attempt counter only describes the op the polling
                // thread last worked on; a freshly promoted head reads 0.
                let attempts = if self.head_op_id.load(Ordering::Relaxed) == op.op_id {
                    self.head_attempts.load(Ordering::Relaxed)
                } else {
                    0
                };
                HeadOp {
                    op_id: op.op_id,
                    op: op_kind(&op.request).label(),
                    age_nanos: now_nanos.saturating_sub(enqueued),
                    budget_nanos: op.deadline.as_nanos().saturating_sub(enqueued),
                    attempts,
                }
            });
            (queue.len(), head)
        };
        // Probed outside the queue lock: connectivity may take sim locks.
        ComponentSnapshot::Loop(LoopSnapshot {
            name: self.obs.loop_name.clone(),
            kind: self.obs.kind,
            phone: self.obs.phone,
            target: self.obs.target.clone(),
            queue_depth,
            connected: self.executor.connected(),
            head,
            mem_bytes: self.mem_bytes(),
            policy: self.policy.info(),
        })
    }
}

impl PollTask for Shared {
    fn poll(&self) -> LoopPoll {
        self.poll_loop()
    }

    fn try_schedule(&self) -> bool {
        !self.scheduled.swap(true, Ordering::AcqRel)
    }

    fn clear_scheduled(&self) {
        self.scheduled.store(false, Ordering::Release);
    }
}

/// Handle to a running event loop. Cloning shares the loop; the loop
/// stops when [`EventLoop::stop`] is called or every handle is dropped.
#[derive(Clone)]
pub(crate) struct EventLoop {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for EventLoop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLoop").field("queued", &self.queue_len()).finish()
    }
}

impl EventLoop {
    /// Creates the loop state machine and pins it to a shard of `exec`
    /// (no thread is spawned).
    pub(crate) fn spawn(
        name: &str,
        exec: &Scheduler,
        clock: Arc<dyn Clock>,
        handler: Handler,
        policy: Policy,
        executor: impl OpExecutor,
        obs: ObsScope,
    ) -> EventLoop {
        let metrics = LoopMetrics::resolve(&obs.recorder);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            stopped: AtomicBool::new(false),
            scheduled: AtomicBool::new(false),
            shard: exec.assign(),
            clock,
            handler,
            stats: Arc::new(OpStats::default()),
            policy,
            // Seeded from the loop's name: jitter is reproducible per
            // loop across runs, distinct across loops (the anti-lock-
            // step property).
            poller: Mutex::new(Poller {
                backoff: BackoffState::new(Rng::from_name(name)),
                in_flight: None,
            }),
            executor: Box::new(executor),
            obs,
            metrics,
            head_op_id: AtomicU64::new(u64::MAX),
            head_attempts: AtomicU64::new(0),
            suppress_coalesce: AtomicBool::new(false),
        });
        shared
            .obs
            .recorder
            .inspector()
            .register(&shared.obs.loop_name, Arc::downgrade(&shared) as Weak<dyn SnapshotProvider>);
        EventLoop { shared }
    }

    /// Enqueues an operation with an explicit timeout and the given
    /// completion mode, returning the caller's handle onto its pooled
    /// completion core.
    ///
    /// If the loop has been stopped the operation resolves immediately
    /// with [`OpFailure::Cancelled`] (the listener fires, or the future
    /// resolves — nothing ever hangs on a dead loop).
    fn submit_with(
        &self,
        request: OpRequest,
        timeout: Option<Duration>,
        completion: Completion,
    ) -> CoreHandle {
        let shared = &self.shared;
        let core = shared.shard.pool().acquire();
        let handle = core.clone();
        if shared.stopped.load(Ordering::Acquire) {
            shared.resolve_unqueued(core, completion, OpFailure::Cancelled);
            return handle;
        }
        let timeout = timeout.unwrap_or_else(|| shared.policy.timeout_for(op_kind(&request)));
        let now = shared.clock.now();
        let deadline = now + timeout;
        let op_id = shared.obs.recorder.next_op_id();
        let trace = shared.mint_trace();
        shared.stats.record_submitted();
        shared.metrics.submitted.inc();
        shared.obs.emit_traced(now, trace, || EventKind::OpEnqueued {
            op_id,
            loop_name: shared.obs.loop_name.clone(),
            phone: shared.obs.phone,
            target: shared.obs.target.clone(),
            op: op_kind(&request),
            deadline_nanos: deadline.as_nanos(),
        });
        let mut op =
            Some(PendingOp { op_id, request, deadline, enqueued_at: now, core, completion, trace });
        {
            // Re-check `stopped` under the queue lock: the stop-side drain
            // also takes this lock, so either our push lands before the
            // drain (and is cancelled by it) or we observe the flag here
            // and never push — the op can no longer be stranded in a queue
            // nobody will ever poll again.
            let mut queue = shared.queue.lock();
            if !shared.stopped.load(Ordering::Acquire) {
                queue.push_back(op.take().expect("set above"));
            }
        }
        match op {
            None => shared.wake(),
            Some(op) => shared.complete(op, shared.clock.now(), Err(OpFailure::Cancelled)),
        }
        handle
    }

    /// Enqueues an operation with the paper's listener-pair completion.
    ///
    /// If the loop has been stopped the failure listener fires (on the
    /// main thread) with [`OpFailure::Cancelled`].
    pub(crate) fn submit(
        &self,
        request: OpRequest,
        timeout: Option<Duration>,
        on_success: Box<dyn FnOnce(OpResponse) + Send>,
        on_failure: Box<dyn FnOnce(OpFailure) + Send>,
    ) -> OpTicket {
        let core =
            self.submit_with(request, timeout, Completion::Listeners { on_success, on_failure });
        OpTicket::new(core, Arc::downgrade(&self.shared))
    }

    /// Enqueues an operation resolved through a future instead of
    /// listeners. Dropping the returned future withdraws the operation.
    pub(crate) fn submit_future(&self, request: OpRequest, timeout: Option<Duration>) -> OpFuture {
        let task = Arc::downgrade(&self.shared);
        let core = self.submit_with(request, timeout, Completion::Future);
        OpFuture::new(core, task)
    }

    /// Wakes the loop so it re-examines connectivity — called by the
    /// owner when discovery events arrive for this reference.
    pub(crate) fn wake(&self) {
        self.shared.wake();
    }

    /// A ticket for an operation that never entered the queue (e.g. it
    /// failed conversion); cancelling it is a no-op.
    pub(crate) fn dead_ticket(&self) -> OpTicket {
        OpTicket::dead()
    }

    /// Number of operations still queued (including the one currently
    /// being attempted).
    pub(crate) fn queue_len(&self) -> usize {
        self.shared.queue.lock().len()
    }

    /// Lifetime statistics.
    pub(crate) fn stats(&self) -> Arc<OpStats> {
        Arc::clone(&self.shared.stats)
    }

    /// Best-effort deep bytes of the loop state machine (queue slots,
    /// pending payloads, name strings) — see [`MemFootprint`].
    pub(crate) fn mem_bytes(&self) -> u64 {
        self.shared.mem_bytes()
    }

    /// Whether [`EventLoop::stop`] has been called. A stopped loop never
    /// completes another operation, so its owner is dead weight — the
    /// discovery layer uses this to sweep closed references.
    pub(crate) fn is_stopped(&self) -> bool {
        self.shared.stopped.load(Ordering::Acquire)
    }

    /// Stops the loop: queued operations fail with
    /// [`OpFailure::Cancelled`]; the next poll drains the queue and the
    /// loop parks for good.
    pub(crate) fn stop(&self) {
        self.shared.stopped.store(true, Ordering::Release);
        self.shared.wake();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Backoff;
    use crate::sched::ExecutionPolicy;
    use morena_android_sim::looper::MainThread;
    use morena_nfc_sim::clock::{SystemClock, VirtualClock};
    use morena_nfc_sim::error::LinkError;
    use std::sync::mpsc::{channel, Receiver, Sender};

    /// An executor scripted from the test: pops canned results.
    struct Scripted {
        connected: Arc<AtomicBool>,
        results: Arc<Mutex<VecDeque<Result<OpResponse, NfcOpError>>>>,
        executed: Sender<OpRequest>,
    }

    impl OpExecutor for Scripted {
        fn connected(&self) -> bool {
            self.connected.load(Ordering::SeqCst)
        }
        fn execute(&self, request: &OpRequest, _: &mut Progress) -> Attempted {
            let _ = self.executed.send(request.clone());
            Resume::Ready(self.results.lock().pop_front().unwrap_or(Ok(OpResponse::Done)))
        }
    }

    struct Fixture {
        main: MainThread,
        // Keeps the worker pool alive for the fixture's lifetime.
        _exec: Scheduler,
        event_loop: EventLoop,
        connected: Arc<AtomicBool>,
        results: Arc<Mutex<VecDeque<Result<OpResponse, NfcOpError>>>>,
        executed: Receiver<OpRequest>,
        outcomes: Receiver<Result<OpResponse, OpFailure>>,
        outcome_tx: Sender<Result<OpResponse, OpFailure>>,
    }

    impl Fixture {
        fn new(clock: Arc<dyn Clock>, config: Policy) -> Fixture {
            Fixture::with_scope(clock, config, ObsScope::detached("test"))
        }

        fn with_scope(clock: Arc<dyn Clock>, config: Policy, scope: ObsScope) -> Fixture {
            let main = MainThread::spawn();
            let exec =
                Scheduler::new(ExecutionPolicy::default(), Arc::clone(&clock), &scope.recorder);
            let connected = Arc::new(AtomicBool::new(true));
            let results = Arc::new(Mutex::new(VecDeque::new()));
            let (exec_tx, executed) = channel();
            let (outcome_tx, outcomes) = channel();
            let event_loop = EventLoop::spawn(
                "test",
                &exec,
                clock,
                main.handler(),
                config,
                Scripted {
                    connected: Arc::clone(&connected),
                    results: Arc::clone(&results),
                    executed: exec_tx,
                },
                scope,
            );
            Fixture {
                main,
                _exec: exec,
                event_loop,
                connected,
                results,
                executed,
                outcomes,
                outcome_tx,
            }
        }

        fn submit(&self, request: OpRequest, timeout: Option<Duration>) -> OpTicket {
            let ok = self.outcome_tx.clone();
            let err = self.outcome_tx.clone();
            self.event_loop.submit(
                request,
                timeout,
                Box::new(move |r| {
                    ok.send(Ok(r)).unwrap();
                }),
                Box::new(move |f| {
                    err.send(Err(f)).unwrap();
                }),
            )
        }

        fn next_outcome(&self) -> Result<OpResponse, OpFailure> {
            self.outcomes.recv_timeout(Duration::from_secs(10)).expect("outcome in time")
        }
    }

    #[test]
    fn ops_complete_in_fifo_order() {
        let f = Fixture::new(Arc::new(SystemClock::new()), Policy::default());
        for i in 0..5u8 {
            f.results.lock().push_back(Ok(OpResponse::Bytes(vec![i])));
            f.submit(OpRequest::Read, None);
        }
        for i in 0..5u8 {
            assert_eq!(f.next_outcome().unwrap(), OpResponse::Bytes(vec![i]));
        }
        let stats = f.event_loop.stats().snapshot();
        assert_eq!(stats.submitted, 5);
        assert_eq!(stats.succeeded, 5);
        assert_eq!(stats.attempts, 5);
        // Keep the main thread alive until outcomes delivered.
        f.main.run_sync(|| {});
    }

    #[test]
    fn transient_failures_are_retried_until_success() {
        let f = Fixture::new(
            Arc::new(SystemClock::new()),
            Policy::new().with_backoff(Backoff::constant(Duration::from_millis(1))),
        );
        {
            let mut results = f.results.lock();
            results.push_back(Err(NfcOpError::Link(LinkError::TransmissionError)));
            results.push_back(Err(NfcOpError::Link(LinkError::TransmissionError)));
            results.push_back(Ok(OpResponse::Done));
        }
        f.submit(OpRequest::Write(vec![1].into()), None);
        assert_eq!(f.next_outcome().unwrap(), OpResponse::Done);
        let stats = f.event_loop.stats().snapshot();
        assert_eq!(stats.attempts, 3);
        assert_eq!(stats.transient_failures, 2);
        assert_eq!(stats.succeeded, 1);
    }

    #[test]
    fn permanent_failures_fire_failure_listener_immediately() {
        let f = Fixture::new(Arc::new(SystemClock::new()), Policy::default());
        f.results.lock().push_back(Err(NfcOpError::ReadOnly));
        f.submit(OpRequest::Write(vec![1].into()), None);
        assert_eq!(f.next_outcome().unwrap_err(), OpFailure::Failed(NfcOpError::ReadOnly));
        let stats = f.event_loop.stats().snapshot();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.attempts, 1);
    }

    #[test]
    fn disconnected_ops_wait_and_flush_on_reconnect() {
        let f = Fixture::new(Arc::new(SystemClock::new()), Policy::default());
        f.connected.store(false, Ordering::SeqCst);
        for _ in 0..3 {
            f.submit(OpRequest::Write(vec![7].into()), None);
        }
        // Nothing executes while disconnected.
        assert!(f.executed.recv_timeout(Duration::from_millis(50)).is_err());
        assert_eq!(f.event_loop.queue_len(), 3);
        // Reconnect: the whole batch flushes (EXT-BATCH behaviour).
        f.connected.store(true, Ordering::SeqCst);
        f.event_loop.wake();
        for _ in 0..3 {
            assert!(f.next_outcome().is_ok());
        }
        assert_eq!(f.event_loop.queue_len(), 0);
    }

    #[test]
    fn head_op_times_out_while_disconnected_then_next_proceeds() {
        let clock = Arc::new(VirtualClock::with_auto_advance(false));
        let f = Fixture::new(clock.clone() as Arc<dyn Clock>, Policy::default());
        f.connected.store(false, Ordering::SeqCst);
        f.submit(OpRequest::Read, Some(Duration::from_secs(1)));
        f.submit(OpRequest::Read, Some(Duration::from_secs(60)));
        // Rendezvous: block until the loop is actually parked on the
        // head deadline, then pass it.
        clock.await_waiters(1);
        clock.advance(Duration::from_secs(2));
        assert_eq!(f.next_outcome().unwrap_err(), OpFailure::TimedOut);
        // Second op is now head and still pending; reconnect completes it.
        f.connected.store(true, Ordering::SeqCst);
        f.event_loop.wake();
        assert!(f.next_outcome().is_ok());
        let stats = f.event_loop.stats().snapshot();
        assert_eq!(stats.timed_out, 1);
        assert_eq!(stats.succeeded, 1);
    }

    #[test]
    fn attempt_never_fires_at_or_past_the_deadline() {
        use std::sync::atomic::AtomicU64;

        // Satellite regression: the head is selected with `now` read at
        // the top of the poll; if time crosses the deadline before the
        // attempt starts (here: while probing connectivity), the op must
        // time out without executing. `RunnableAt(backoff.min(deadline))`
        // deliberately lets a retry poll fire at exactly the deadline
        // instant — the attempt-time re-check is what keeps that poll
        // from attempting one time too many.
        struct DeadlineCrosser {
            clock: Arc<VirtualClock>,
            executes: Arc<AtomicU64>,
        }
        impl OpExecutor for DeadlineCrosser {
            fn connected(&self) -> bool {
                // Cross the deadline between head selection and the
                // attempt. Only non-empty polls probe connectivity, so
                // the advances stay bounded.
                self.clock.advance(Duration::from_secs(2));
                true
            }
            fn execute(&self, _: &OpRequest, _: &mut Progress) -> Attempted {
                self.executes.fetch_add(1, Ordering::SeqCst);
                Resume::Ready(Ok(OpResponse::Done))
            }
        }

        let main = MainThread::spawn();
        let clock = Arc::new(VirtualClock::with_auto_advance(false));
        let recorder = Recorder::new();
        let exec =
            Scheduler::new(ExecutionPolicy::default(), clock.clone() as Arc<dyn Clock>, &recorder);
        let executes = Arc::new(AtomicU64::new(0));
        let event_loop = EventLoop::spawn(
            "deadline",
            &exec,
            clock.clone() as Arc<dyn Clock>,
            main.handler(),
            Policy::default(),
            DeadlineCrosser { clock: Arc::clone(&clock), executes: Arc::clone(&executes) },
            ObsScope::detached("deadline"),
        );
        let (tx, rx) = channel();
        event_loop.submit(
            OpRequest::Read,
            Some(Duration::from_secs(1)),
            Box::new(|_| panic!("must not succeed past the deadline")),
            Box::new(move |f| tx.send(f).unwrap()),
        );
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), OpFailure::TimedOut);
        assert_eq!(executes.load(Ordering::SeqCst), 0, "no attempt at or past the deadline");
        assert_eq!(event_loop.stats().snapshot().timed_out, 1);
        event_loop.stop();
    }

    #[test]
    fn stop_cancels_queued_ops() {
        let f = Fixture::new(Arc::new(SystemClock::new()), Policy::default());
        f.connected.store(false, Ordering::SeqCst);
        f.submit(OpRequest::Read, None);
        f.submit(OpRequest::Read, None);
        f.event_loop.stop();
        assert_eq!(f.next_outcome().unwrap_err(), OpFailure::Cancelled);
        assert_eq!(f.next_outcome().unwrap_err(), OpFailure::Cancelled);
        // Submissions after stop are cancelled immediately.
        f.submit(OpRequest::Read, None);
        assert_eq!(f.next_outcome().unwrap_err(), OpFailure::Cancelled);
        assert_eq!(f.event_loop.stats().snapshot().cancelled, 3);
    }

    #[test]
    fn submit_stop_race_always_fires_the_listener() {
        // Satellite regression: `submit` used to check `stopped` before
        // taking the queue lock, so a stop-side drain could slip between
        // the check and the push — the op was enqueued into a dead queue
        // and its listeners never fired. Loop the interleaving hard.
        let main = MainThread::spawn();
        let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
        let recorder = Recorder::new();
        let exec = Scheduler::new(ExecutionPolicy::default(), Arc::clone(&clock), &recorder);
        for i in 0..500 {
            let event_loop = EventLoop::spawn(
                &format!("race-{i}"),
                &exec,
                Arc::clone(&clock),
                main.handler(),
                Policy::default(),
                Scripted {
                    connected: Arc::new(AtomicBool::new(false)),
                    results: Arc::new(Mutex::new(VecDeque::new())),
                    executed: channel().0,
                },
                ObsScope::detached("race"),
            );
            let (tx, rx) = channel();
            let stopper = {
                let event_loop = event_loop.clone();
                std::thread::spawn(move || event_loop.stop())
            };
            let ok_tx = tx.clone();
            event_loop.submit(
                OpRequest::Read,
                None,
                Box::new(move |_| ok_tx.send("success").unwrap()),
                Box::new(move |f| {
                    assert_eq!(f, OpFailure::Cancelled);
                    tx.send("cancelled").unwrap();
                }),
            );
            stopper.join().unwrap();
            // Exactly one listener fires, no matter the interleaving.
            assert_eq!(
                rx.recv_timeout(Duration::from_secs(10)).expect("listener fired"),
                "cancelled"
            );
            assert!(rx.try_recv().is_err(), "no double delivery");
        }
    }

    #[test]
    fn cancelled_non_head_ops_are_swept_immediately() {
        // Satellite regression: a cancelled op at position k used to keep
        // its slot (and delay its Cancelled callback) until everything
        // ahead of it completed.
        let f = Fixture::new(Arc::new(SystemClock::new()), Policy::default());
        f.connected.store(false, Ordering::SeqCst);
        f.submit(OpRequest::Read, None);
        let middle = f.submit(OpRequest::Write(vec![1].into()), None);
        f.submit(OpRequest::MakeReadOnly, None);
        assert_eq!(f.event_loop.queue_len(), 3);
        // The head stays blocked (disconnected), yet cancelling the
        // middle op must fire its listener right away.
        assert!(middle.cancel());
        assert_eq!(f.next_outcome().unwrap_err(), OpFailure::Cancelled);
        assert_eq!(f.event_loop.queue_len(), 2, "the swept op freed its slot");
        assert_eq!(f.event_loop.stats().snapshot().cancelled, 1);
        // The remaining ops are untouched and complete on reconnect.
        f.connected.store(true, Ordering::SeqCst);
        f.event_loop.wake();
        assert!(f.next_outcome().is_ok());
        assert!(f.next_outcome().is_ok());
        assert_eq!(f.event_loop.queue_len(), 0);
    }

    fn scoped_fixture(policy: Policy, name: &str) -> (Arc<Recorder>, Fixture) {
        let recorder = Arc::new(Recorder::new());
        let scope = ObsScope {
            recorder: Arc::clone(&recorder),
            loop_name: name.to_owned(),
            kind: "test",
            phone: 0,
            target: name.to_owned(),
        };
        let f = Fixture::with_scope(Arc::new(SystemClock::new()), policy, scope);
        (recorder, f)
    }

    #[test]
    fn coalesced_writes_flush_in_one_exchange() {
        let (recorder, f) = scoped_fixture(Policy::new().with_coalesce_writes(true), "co");
        f.connected.store(false, Ordering::SeqCst);
        for i in 1..=3u8 {
            f.submit(OpRequest::Write(vec![i].into()), None);
        }
        f.connected.store(true, Ordering::SeqCst);
        f.event_loop.wake();
        for _ in 0..3 {
            assert_eq!(f.next_outcome().unwrap(), OpResponse::Done);
        }
        // The whole run flushed as ONE exchange carrying the last
        // write's bytes.
        assert_eq!(
            f.executed.recv_timeout(Duration::from_secs(5)).unwrap(),
            OpRequest::Write(vec![3].into())
        );
        assert!(f.executed.try_recv().is_err(), "no further exchanges");
        let metrics = recorder.metrics().snapshot();
        assert_eq!(metrics.counter("coalesce.batches"), 1);
        assert_eq!(metrics.counter("coalesce.saved_exchanges"), 2);
        assert_eq!(f.event_loop.stats().snapshot().succeeded, 3);
    }

    #[test]
    fn coalescing_stops_at_a_non_write_boundary() {
        // A read between writes must observe its predecessor's bytes on
        // the tag, so the run may not coalesce across it.
        let (recorder, f) = scoped_fixture(Policy::new().with_coalesce_writes(true), "boundary");
        f.connected.store(false, Ordering::SeqCst);
        {
            let mut results = f.results.lock();
            results.push_back(Ok(OpResponse::Done)); // write batch [1,2]
            results.push_back(Ok(OpResponse::Bytes(vec![9]))); // read
            results.push_back(Ok(OpResponse::Done)); // trailing write
        }
        f.submit(OpRequest::Write(vec![1].into()), None);
        f.submit(OpRequest::Write(vec![2].into()), None);
        f.submit(OpRequest::Read, None);
        f.submit(OpRequest::Write(vec![3].into()), None);
        f.connected.store(true, Ordering::SeqCst);
        f.event_loop.wake();
        // FIFO outcomes: two coalesced writes, the read's bytes, the
        // trailing write.
        assert_eq!(f.next_outcome().unwrap(), OpResponse::Done);
        assert_eq!(f.next_outcome().unwrap(), OpResponse::Done);
        assert_eq!(f.next_outcome().unwrap(), OpResponse::Bytes(vec![9]));
        assert_eq!(f.next_outcome().unwrap(), OpResponse::Done);
        let exchanges: Vec<OpRequest> = f.executed.try_iter().collect();
        assert_eq!(
            exchanges,
            vec![
                OpRequest::Write(vec![2].into()),
                OpRequest::Read,
                OpRequest::Write(vec![3].into()),
            ]
        );
        assert_eq!(recorder.metrics().snapshot().counter("coalesce.saved_exchanges"), 1);
    }

    #[test]
    fn failed_coalesced_batch_falls_back_to_per_op_verdicts() {
        // A permanently failed batch exchange carried the *last* payload
        // — the head must not inherit that verdict. The loop retries the
        // head alone; here the solo attempt succeeds, proving no op was
        // misattributed.
        let (_recorder, f) = scoped_fixture(Policy::new().with_coalesce_writes(true), "fallback");
        f.connected.store(false, Ordering::SeqCst);
        {
            let mut results = f.results.lock();
            results.push_back(Err(NfcOpError::ReadOnly)); // batch [1,2] fails
            results.push_back(Ok(OpResponse::Done)); // head solo succeeds
            results.push_back(Ok(OpResponse::Done)); // follower succeeds
        }
        f.submit(OpRequest::Write(vec![1].into()), None);
        f.submit(OpRequest::Write(vec![2].into()), None);
        f.connected.store(true, Ordering::SeqCst);
        f.event_loop.wake();
        assert_eq!(f.next_outcome().unwrap(), OpResponse::Done);
        assert_eq!(f.next_outcome().unwrap(), OpResponse::Done);
        let exchanges: Vec<OpRequest> = f.executed.try_iter().collect();
        assert_eq!(
            exchanges,
            vec![
                OpRequest::Write(vec![2].into()), // the failed batch
                OpRequest::Write(vec![1].into()), // head alone
                OpRequest::Write(vec![2].into()), // follower alone
            ]
        );
        assert_eq!(f.event_loop.stats().snapshot().failed, 0, "nobody inherited the batch verdict");
    }

    #[test]
    fn backoff_delays_land_in_the_policy_histogram() {
        let (recorder, f) = scoped_fixture(
            Policy::new().with_backoff(Backoff::exponential(
                Duration::from_micros(100),
                Duration::from_millis(2),
            )),
            "hist",
        );
        {
            let mut results = f.results.lock();
            results.push_back(Err(NfcOpError::Link(LinkError::TransmissionError)));
            results.push_back(Err(NfcOpError::Link(LinkError::TransmissionError)));
            results.push_back(Ok(OpResponse::Done));
        }
        f.submit(OpRequest::Write(vec![1].into()), None);
        assert!(f.next_outcome().is_ok());
        let metrics = recorder.metrics().snapshot();
        let hist = metrics.histogram("policy.backoff_ns").expect("backoff histogram");
        assert_eq!(hist.count(), 2, "one delay recorded per transient failure");
    }

    #[test]
    fn per_op_timeout_overrides_drive_the_deadline() {
        let clock = Arc::new(VirtualClock::with_auto_advance(false));
        let f = Fixture::new(
            clock.clone() as Arc<dyn Clock>,
            Policy::new()
                .with_timeout(Duration::from_secs(60))
                .with_write_timeout(Duration::from_secs(1)),
        );
        f.connected.store(false, Ordering::SeqCst);
        // No explicit timeout: the write-specific budget applies.
        f.submit(OpRequest::Write(vec![1].into()), None);
        clock.await_waiters(1);
        clock.advance(Duration::from_secs(2));
        assert_eq!(f.next_outcome().unwrap_err(), OpFailure::TimedOut);
    }

    #[test]
    fn listeners_run_on_the_main_thread() {
        let main = MainThread::spawn();
        let main_id = main.thread_id();
        let (tx, rx) = channel();
        let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
        let recorder = Recorder::new();
        let exec = Scheduler::new(ExecutionPolicy::default(), Arc::clone(&clock), &recorder);
        let event_loop = EventLoop::spawn(
            "thread-check",
            &exec,
            clock,
            main.handler(),
            Policy::default(),
            Scripted {
                connected: Arc::new(AtomicBool::new(true)),
                results: Arc::new(Mutex::new(VecDeque::new())),
                executed: channel().0,
            },
            ObsScope::detached("thread-check"),
        );
        event_loop.submit(
            OpRequest::Read,
            None,
            Box::new(move |_| {
                tx.send(std::thread::current().id()).unwrap();
            }),
            Box::new(|_| {}),
        );
        let ran_on = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(ran_on, main_id);
    }

    #[test]
    fn latency_aggregates_accumulate() {
        let f = Fixture::new(Arc::new(SystemClock::new()), Policy::default());
        for _ in 0..3 {
            f.results.lock().push_back(Ok(OpResponse::Done));
            f.submit(OpRequest::Read, None);
            assert!(f.next_outcome().is_ok());
        }
        let stats = f.event_loop.stats().snapshot();
        assert_eq!(stats.succeeded, 3);
        // Completion latency includes queueing; attempts were instant but
        // the clock is real, so totals are monotone and means exist.
        assert!(stats.mean_attempt().is_some());
        assert!(stats.mean_completion().is_some());
        assert!(
            stats.completion_nanos_total >= stats.attempt_nanos_total
                || stats.attempt_nanos_total < 1_000_000
        );
        assert!(stats.attempt_nanos_max <= stats.attempt_nanos_total.max(stats.attempt_nanos_max));
        // Empty stats have no means.
        let empty = OpStatsSnapshot::default();
        assert_eq!(empty.mean_attempt(), None);
        assert_eq!(empty.mean_completion(), None);
    }

    #[test]
    fn op_lifecycle_events_carry_one_correlation_id() {
        let recorder = Arc::new(Recorder::new());
        let ring = Arc::new(morena_obs::RingSink::new(64));
        recorder.install(ring.clone());
        let scope = ObsScope {
            recorder: Arc::clone(&recorder),
            loop_name: "tag-x".into(),
            kind: "test",
            phone: 7,
            target: "tag-x".into(),
        };
        let f = Fixture::with_scope(
            Arc::new(SystemClock::new()),
            Policy::new().with_backoff(Backoff::constant(Duration::from_millis(1))),
            scope,
        );
        {
            let mut results = f.results.lock();
            results.push_back(Err(NfcOpError::Link(LinkError::TransmissionError)));
            results.push_back(Ok(OpResponse::Done));
        }
        f.submit(OpRequest::Write(vec![1].into()), None);
        assert!(f.next_outcome().is_ok());

        // enqueue, failed attempt, retried attempt, completion — all
        // stamped with the same correlation id.
        let events = ring.snapshot();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind.type_label()).collect();
        assert_eq!(kinds, ["op_enqueued", "op_attempt", "op_attempt", "op_completed"]);
        let op_ids: Vec<u64> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::OpEnqueued { op_id, .. }
                | EventKind::OpAttempt { op_id, .. }
                | EventKind::OpCompleted { op_id, .. } => Some(*op_id),
                _ => None,
            })
            .collect();
        assert_eq!(op_ids.len(), 4);
        assert!(op_ids.iter().all(|&id| id == op_ids[0]));
        match &events[1].kind {
            EventKind::OpAttempt { outcome, .. } => assert_eq!(*outcome, AttemptOutcome::Transient),
            other => panic!("unexpected event {other:?}"),
        }
        match &events[3].kind {
            EventKind::OpCompleted { outcome, .. } => assert_eq!(*outcome, OpOutcome::Succeeded),
            other => panic!("unexpected event {other:?}"),
        }

        // The loop's metric counters agree with its OpStats.
        let metrics = recorder.metrics().snapshot();
        assert_eq!(metrics.counter("ops.submitted"), 1);
        assert_eq!(metrics.counter("ops.attempts"), 2);
        assert_eq!(metrics.counter("ops.retries"), 1);
        assert_eq!(metrics.counter("ops.succeeded"), 1);
        assert_eq!(metrics.histogram("op.attempt_ns").unwrap().count(), 2);
        assert_eq!(metrics.histogram("op.completion_ns").unwrap().count(), 1);
    }

    #[test]
    fn scheduler_metrics_record_polls_and_parks() {
        let (recorder, f) = scoped_fixture(Policy::default(), "sched");
        f.results.lock().push_back(Ok(OpResponse::Done));
        f.submit(OpRequest::Read, None);
        assert!(f.next_outcome().is_ok());
        let metrics = recorder.metrics().snapshot();
        assert!(metrics.counter("scheduler.polls") >= 1, "at least one poll happened");
        assert!(metrics.counter("scheduler.wakeups") >= 1, "the submit wake was counted");
        assert!(metrics.histogram("scheduler.poll_ns").unwrap().count() >= 1);
        assert_eq!(metrics.gauge("scheduler.shard_depth"), 0, "queues drained");
    }

    /// An executor whose attempts park until the test drops the gate's
    /// sender, announcing each one first.
    struct Gated {
        entered: Sender<()>,
        gate: Mutex<Receiver<()>>,
    }

    impl OpExecutor for Gated {
        fn connected(&self) -> bool {
            true
        }
        fn execute(&self, _: &OpRequest, _: &mut Progress) -> Attempted {
            let _ = self.entered.send(());
            let _ = self.gate.lock().recv();
            Resume::Ready(Ok(OpResponse::Done))
        }
    }

    #[test]
    fn dropping_the_engine_frees_a_closed_loop_it_never_polled() {
        let main = MainThread::spawn();
        let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
        let recorder = Recorder::new();
        let exec =
            Scheduler::new(ExecutionPolicy::Sharded { workers: 1 }, Arc::clone(&clock), &recorder);
        let (entered_tx, entered) = channel();
        let (open_gate, gate) = channel::<()>();
        let busy = EventLoop::spawn(
            "busy",
            &exec,
            Arc::clone(&clock),
            main.handler(),
            Policy::default(),
            Gated { entered: entered_tx, gate: Mutex::new(gate) },
            ObsScope::detached("busy"),
        );
        busy.submit(OpRequest::Read, None, Box::new(|_| {}), Box::new(|_| {}));
        // The only worker is now stuck inside `busy`'s attempt.
        entered.recv_timeout(Duration::from_secs(10)).unwrap();

        let closed = EventLoop::spawn(
            "closed",
            &exec,
            clock,
            main.handler(),
            Policy::default(),
            Scripted {
                connected: Arc::new(AtomicBool::new(true)),
                results: Arc::new(Mutex::new(VecDeque::new())),
                executed: channel().0,
            },
            ObsScope::detached("closed"),
        );
        // Closing wakes the loop onto the busy shard's ready queue.
        closed.stop();
        let loop_state = Arc::downgrade(&closed.shared);
        let shard = Arc::downgrade(&closed.shared.shard);
        drop((closed, busy, exec));
        // The worker finishes its attempt, then observes the shutdown
        // with the closed loop still queued.
        drop(open_gate);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while loop_state.strong_count() > 0 || shard.strong_count() > 0 {
            assert!(std::time::Instant::now() < deadline, "the queued loop and its shard leaked");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn mem_footprint_grows_with_queued_payloads() {
        let f = Fixture::new(Arc::new(SystemClock::new()), Policy::default());
        f.connected.store(false, Ordering::SeqCst);
        let empty = f.event_loop.shared.mem_bytes();
        assert!(empty >= std::mem::size_of::<Shared>() as u64);
        for _ in 0..16 {
            f.submit(OpRequest::Write(vec![0u8; 1024].into()), None);
        }
        let populated = f.event_loop.shared.mem_bytes();
        assert!(
            populated >= empty + 16 * 1024,
            "populated queue must outweigh the empty one: {populated} vs {empty}"
        );
        // The snapshot surfaces the same figure.
        match f.event_loop.shared.snapshot(0) {
            ComponentSnapshot::Loop(l) => assert_eq!(l.mem_bytes, populated),
            other => panic!("unexpected snapshot {other:?}"),
        }
    }

    #[test]
    fn failure_display_is_nonempty() {
        for f in [
            OpFailure::TimedOut,
            OpFailure::Failed(NfcOpError::NotNdef),
            OpFailure::InvalidData(ConvertError::Json("e".into())),
            OpFailure::Cancelled,
        ] {
            assert!(!f.to_string().is_empty());
        }
    }
}
