//! Bench-only harness (feature `bench-hooks`): drives the raw
//! submit→attempt→complete path of one event loop with an executor that
//! never touches a simulated radio, so benchmarks (and the CI
//! allocations-per-op gate) measure the middleware alone.
//!
//! Nothing here is meant for applications — the feature exists so
//! `morena-bench` can reach the loop state machine without going
//! through a `World`, whose simulated physics would dominate the
//! numbers the gate is trying to pin down.

use std::sync::Arc;
use std::time::Duration;

use morena_android_sim::looper::MainThread;
use morena_nfc_sim::clock::{Clock, SystemClock};
use morena_nfc_sim::controller::Resume;

use crate::eventloop::{
    Attempted, EventLoop, ObsScope, OpExecutor, OpRequest, OpResponse, OpStatsSnapshot, Progress,
};
use crate::future::block_on;
use crate::policy::Policy;
use crate::sched::{ExecutionPolicy, Scheduler};

/// Completes every attempt immediately: reads return an empty payload
/// (the cached-read shape — `Vec::new()` never allocates), everything
/// else reports done.
struct NullExecutor;

impl OpExecutor for NullExecutor {
    fn connected(&self) -> bool {
        true
    }

    fn execute(&self, request: &OpRequest, _: &mut Progress) -> Attempted {
        Resume::Ready(match request {
            OpRequest::Read => Ok(OpResponse::Bytes(Vec::new())),
            _ => Ok(OpResponse::Done),
        })
    }
}

/// One event loop over a `NullExecutor`, plus the main thread and
/// worker pool keeping it alive. Every operation completes on its first
/// attempt, so the calling thread measures exactly the per-op machinery:
/// pool acquire, enqueue, wake, attempt, claim, resolve, recycle.
pub struct HotLoop {
    event_loop: EventLoop,
    // Order matters for drop: the loop detaches before its engine.
    _exec: Arc<Scheduler>,
    _main: MainThread,
}

impl HotLoop {
    /// Builds the harness on the default worker pool with a detached
    /// (disabled) recorder and the real system clock.
    pub fn new() -> HotLoop {
        let main = MainThread::spawn();
        let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
        let obs = ObsScope::detached("bench-hot-loop");
        let exec =
            Arc::new(Scheduler::new(ExecutionPolicy::default(), Arc::clone(&clock), &obs.recorder));
        let event_loop = EventLoop::spawn(
            "bench-hot-loop",
            &exec,
            clock,
            main.handler(),
            Policy::default(),
            NullExecutor,
            obs,
        );
        HotLoop { event_loop, _exec: exec, _main: main }
    }

    /// Submits one read as a future and blocks until it resolves —
    /// the full round the allocations-per-op gate measures.
    ///
    /// # Panics
    ///
    /// Panics if the loop fails the read (it cannot: the null executor
    /// is infallible and the harness never stops the loop mid-call).
    pub fn read_once(&self) {
        block_on(self.event_loop.submit_future(OpRequest::Read, Some(Duration::from_secs(60))))
            .expect("null executor never fails a read");
    }

    /// Lifetime operation counters of the underlying loop.
    pub fn stats(&self) -> OpStatsSnapshot {
        self.event_loop.stats().snapshot()
    }
}

impl Default for HotLoop {
    fn default() -> HotLoop {
        HotLoop::new()
    }
}

impl std::fmt::Debug for HotLoop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HotLoop").field("event_loop", &self.event_loop).finish()
    }
}
