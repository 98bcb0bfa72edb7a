//! The execution engine behind far-reference event loops: a sharded
//! worker-pool scheduler.
//!
//! The paper gives every far reference *"a private event loop that uses
//! its own thread of control"* — semantics this module preserves while
//! decoupling them from OS threads (the RAFDA separation of distribution
//! policy from application logic). Each loop is a poll-able state
//! machine (`PollTask`); a fixed pool of workers (default
//! `min(cores, 8)`) drives many such machines:
//!
//! * every loop is pinned to exactly one **shard** (round-robin at
//!   creation), and each shard is owned by exactly one worker thread —
//!   so a loop is only ever polled by a single thread at a time,
//!   trivially preserving per-loop FIFO and the one-in-flight-attempt
//!   invariant;
//! * a per-loop **wake flag** deduplicates wake-ups: `WaitSignal`
//!   notifications, connectivity changes, and new submissions re-enqueue
//!   exactly the affected loop onto its shard's ready queue, at most
//!   once until the next poll;
//! * deadline expiries (op timeouts, retry backoffs, the end of an
//!   exchange's air time) go through a per-shard timer heap owned by the
//!   worker, fed back through the shard's [`WaitSignal`] so virtual
//!   clocks drive them like any other sleeper. A poll never waits on the
//!   radio, so one worker keeps any number of its loops' exchanges on
//!   the air at once;
//! * a task that is not a loop (the context's event router, discovery's
//!   short-lived pre-reads) is placed on a shard without being counted
//!   as a pinned loop.
//!
//! Scheduler health is observable through the `scheduler.*` metrics:
//! `scheduler.polls` / `scheduler.parks` / `scheduler.wakeups` /
//! `scheduler.timer_fires` counters, the `scheduler.shard_depth` gauge
//! (currently enqueued, not-yet-polled loops across all shards), and the
//! `scheduler.poll_ns` histogram (wall-clock latency of single polls,
//! which holds no air time).

use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use morena_nfc_sim::clock::{Clock, SimInstant, WaitSignal};
use morena_obs::inspect::{ComponentSnapshot, ShardSnapshot, SnapshotProvider};
use morena_obs::Mutex;
use morena_obs::{Counter, Gauge, Histogram, MemFootprint, Recorder};

/// What a loop wants from the scheduler after one poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LoopPoll {
    /// Made progress and can make more right now — re-enqueue immediately
    /// (one unit of work per poll keeps shards fair).
    Runnable,
    /// Blocked until the given instant (head-op deadline, retry backoff,
    /// or the end of an exchange's air time) — earlier external wakes
    /// re-arm it sooner.
    RunnableAt(SimInstant),
    /// Nothing to do until an external wake (queue empty, waiting on
    /// events that will call `wake`, or stopped and drained).
    Park,
}

/// A poll-able loop state machine.
///
/// Contract: `poll` is only ever called by the single thread driving the
/// task (its shard's worker), but `try_schedule`/`clear_scheduled` race
/// freely with wakers.
pub(crate) trait PollTask: Send + Sync + 'static {
    /// Runs at most one unit of work; see [`LoopPoll`].
    fn poll(&self) -> LoopPoll;

    /// Attempts to transition unscheduled → scheduled. `true` means the
    /// caller won the race and must enqueue the task; `false` means it is
    /// already queued (the pending poll will observe whatever state the
    /// waker changed).
    fn try_schedule(&self) -> bool;

    /// Clears the scheduled flag. Workers call this *before* polling so
    /// a wake arriving mid-poll re-enqueues the task.
    fn clear_scheduled(&self);
}

/// How far-reference event loops get their processor time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExecutionPolicy {
    /// Green loops on a fixed worker pool: every loop is pinned to one of
    /// `workers` shards. Thread count stays constant no matter how many
    /// references exist.
    Sharded {
        /// Number of worker threads (and shards). Clamped to at least 1.
        workers: usize,
    },
}

impl ExecutionPolicy {
    /// The default sharded policy: `min(available cores, 8)` workers.
    pub fn sharded_default() -> ExecutionPolicy {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        ExecutionPolicy::Sharded { workers: cores.min(8) }
    }
}

impl Default for ExecutionPolicy {
    fn default() -> ExecutionPolicy {
        ExecutionPolicy::sharded_default()
    }
}

/// Metric handles resolved once at pool creation.
#[derive(Clone)]
struct SchedMetrics {
    polls: Counter,
    parks: Counter,
    wakeups: Counter,
    timer_fires: Counter,
    shard_depth: Gauge,
    poll_ns: Arc<Histogram>,
}

impl SchedMetrics {
    fn resolve(recorder: &Recorder) -> SchedMetrics {
        let m = recorder.metrics();
        SchedMetrics {
            polls: m.counter("scheduler.polls"),
            parks: m.counter("scheduler.parks"),
            wakeups: m.counter("scheduler.wakeups"),
            timer_fires: m.counter("scheduler.timer_fires"),
            shard_depth: m.gauge("scheduler.shard_depth"),
            poll_ns: m.histogram("scheduler.poll_ns"),
        }
    }
}

/// One worker's slice of the pool: a ready queue plus the signal its
/// worker parks on. Tasks are pinned to a shard for life.
pub(crate) struct Shard {
    ready: Mutex<VecDeque<Arc<dyn PollTask>>>,
    signal: Arc<WaitSignal>,
    metrics: SchedMetrics,
    /// Completion-core freelist shared by every loop pinned here —
    /// cores recycle across the shard's whole population, so steady
    /// state submits allocate nothing.
    pool: Arc<crate::future::OpPool>,
    /// Position within the pool, for inspector output.
    index: usize,
    /// Loops pinned here over the shard's lifetime (pins are permanent).
    owned: AtomicU64,
    /// Clock nanos of the worker's most recent loop iteration;
    /// `u64::MAX` until the worker first runs. A shard with runnable
    /// work and a stale stamp is starved — the worker parks only when
    /// its ready queue is empty.
    last_poll: AtomicU64,
}

impl MemFootprint for Shard {
    fn mem_bytes(&self) -> u64 {
        // The worker's timer heap lives on its stack, out of reach; the
        // shard's own heap footprint is the ready queue's slot array
        // plus the parked completion-core freelist (tasks report their
        // own bytes through their loop snapshots).
        std::mem::size_of::<Shard>() as u64
            + (self.ready.lock().capacity() * std::mem::size_of::<Arc<dyn PollTask>>()) as u64
            + self.pool.mem_bytes()
    }
}

impl SnapshotProvider for Shard {
    fn snapshot(&self, now_nanos: u64) -> ComponentSnapshot {
        let last_poll = self.last_poll.load(Ordering::Relaxed);
        // Hoisted out of the literal: a `.lock()` temporary inside it
        // would still be held when `mem_bytes` re-locks `ready`.
        let run_queue = self.ready.lock().len();
        let mem_bytes = self.mem_bytes();
        let pool_free = self.pool.free_len();
        let pool_bytes = self.pool.mem_bytes();
        ComponentSnapshot::Shard(ShardSnapshot {
            index: self.index,
            loops_owned: self.owned.load(Ordering::Relaxed),
            run_queue,
            since_poll_nanos: (last_poll != u64::MAX).then(|| now_nanos.saturating_sub(last_poll)),
            pool_free,
            mem_bytes,
            pool_bytes,
        })
    }
}

impl Shard {
    /// Wakes `task`: enqueues it onto this shard's ready queue unless it
    /// is already queued, and pokes the worker.
    pub(crate) fn wake(&self, task: Arc<dyn PollTask>) {
        if task.try_schedule() {
            self.ready.lock().push_back(task);
            self.metrics.shard_depth.add(1);
            self.metrics.wakeups.inc();
            self.signal.notify();
        }
    }

    /// The shard's shared completion-core freelist.
    pub(crate) fn pool(&self) -> &Arc<crate::future::OpPool> {
        &self.pool
    }
}

/// Timer-heap entry: min-ordered by instant, FIFO within an instant.
struct Timer {
    at: SimInstant,
    seq: u64,
    task: Arc<dyn PollTask>,
}

impl PartialEq for Timer {
    fn eq(&self, other: &Timer) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Timer {}
impl PartialOrd for Timer {
    fn partial_cmp(&self, other: &Timer) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Timer {
    fn cmp(&self, other: &Timer) -> std::cmp::Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the earliest instant.
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

/// The sharded worker pool: a context's execution engine.
pub(crate) struct Scheduler {
    shards: Vec<Arc<Shard>>,
    next_shard: AtomicUsize,
    /// Round-robin cursor for tasks that are not loops, apart from
    /// `next_shard` so they do not shift where loops are pinned.
    next_task: AtomicUsize,
    shutdown: Arc<AtomicBool>,
}

impl Scheduler {
    pub(crate) fn new(
        policy: ExecutionPolicy,
        clock: Arc<dyn Clock>,
        recorder: &Recorder,
    ) -> Scheduler {
        let ExecutionPolicy::Sharded { workers } = policy;
        let workers = workers.max(1);
        let metrics = SchedMetrics::resolve(recorder);
        let shutdown = Arc::new(AtomicBool::new(false));
        let shards: Vec<Arc<Shard>> = (0..workers)
            .map(|index| {
                Arc::new(Shard {
                    ready: Mutex::new(VecDeque::new()),
                    signal: Arc::new(WaitSignal::new()),
                    metrics: metrics.clone(),
                    pool: crate::future::OpPool::new(),
                    index,
                    owned: AtomicU64::new(0),
                    last_poll: AtomicU64::new(u64::MAX),
                })
            })
            .collect();
        for (i, shard) in shards.iter().enumerate() {
            recorder.inspector().register(
                format!("shard-{i}"),
                Arc::downgrade(shard) as std::sync::Weak<dyn SnapshotProvider>,
            );
        }
        for (i, shard) in shards.iter().enumerate() {
            let shard = Arc::clone(shard);
            let clock = Arc::clone(&clock);
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name(format!("morena-sched-{i}"))
                .spawn(move || worker(&shard, &clock, &shutdown))
                .expect("spawn scheduler worker");
        }
        Scheduler {
            shards,
            next_shard: AtomicUsize::new(0),
            next_task: AtomicUsize::new(0),
            shutdown,
        }
    }

    /// Pins a new task to a shard (round-robin).
    pub(crate) fn assign(&self) -> Arc<Shard> {
        let i = self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        self.shards[i].owned.fetch_add(1, Ordering::Relaxed);
        Arc::clone(&self.shards[i])
    }

    /// Picks a shard (round-robin) for a task that is not a loop, such as
    /// the router or a short-lived task that leaves the pool when it
    /// parks. Unlike [`Scheduler::assign`] this counts nothing.
    pub(crate) fn place(&self) -> Arc<Shard> {
        let i = self.next_task.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        Arc::clone(&self.shards[i])
    }

    /// The policy this pool runs, with the worker count as clamped.
    pub(crate) fn policy(&self) -> ExecutionPolicy {
        ExecutionPolicy::Sharded { workers: self.shards.len() }
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler").field("workers", &self.shards.len()).finish()
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        for shard in &self.shards {
            shard.signal.notify();
        }
    }
}

/// The shard worker: promote due timers, poll one ready task, park when
/// there is nothing to do.
fn worker(shard: &Shard, clock: &Arc<dyn Clock>, shutdown: &AtomicBool) {
    let m = &shard.metrics;
    let mut timers: BinaryHeap<Timer> = BinaryHeap::new();
    let mut timer_seq: u64 = 0;
    loop {
        if shutdown.load(Ordering::Acquire) {
            release_tasks(shard, timers);
            return;
        }
        // Read the generation before inspecting state so a wake racing
        // with the inspection cuts the park short.
        let generation = shard.signal.generation();
        let now = clock.now();
        shard.last_poll.store(now.as_nanos(), Ordering::Relaxed);
        while timers.peek().is_some_and(|t| t.at <= now) {
            let timer = timers.pop().expect("peeked");
            m.timer_fires.inc();
            shard.wake(timer.task);
        }
        let task = shard.ready.lock().pop_front();
        let Some(task) = task else {
            let deadline = timers.peek().map_or(SimInstant::FAR_FUTURE, |t| t.at);
            m.parks.inc();
            clock.wait_until(&shard.signal, generation, deadline);
            continue;
        };
        m.shard_depth.sub(1);
        // Clear before polling: a wake that lands mid-poll must win the
        // `try_schedule` race and re-enqueue the task.
        task.clear_scheduled();
        let started = std::time::Instant::now();
        let outcome = task.poll();
        m.polls.inc();
        m.poll_ns.observe(started.elapsed().as_nanos() as u64);
        match outcome {
            LoopPoll::Runnable => shard.wake(task),
            LoopPoll::RunnableAt(at) => {
                timer_seq += 1;
                timers.push(Timer { at, seq: timer_seq, task });
            }
            LoopPoll::Park => {}
        }
    }
}

/// Drops every task a stopping worker still holds. A queued loop owns
/// its shard (`Arc<Shard>`) while the shard's ready queue owns the loop,
/// so a task left queued at shutdown would keep the loop, its executor
/// and the whole world alive forever. Tasks are dropped outside the
/// `ready` lock: dropping a loop can wake another loop onto this same
/// shard, which takes that lock again. Such late wakes are drained too.
fn release_tasks(shard: &Shard, timers: BinaryHeap<Timer>) {
    drop(timers);
    loop {
        let orphans = std::mem::take(&mut *shard.ready.lock());
        if orphans.is_empty() {
            return;
        }
        shard.metrics.shard_depth.sub(orphans.len() as i64);
        drop(orphans);
    }
}
