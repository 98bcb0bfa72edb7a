//! Per-event-loop telemetry: one handle per loop, [`LoopTelemetry`],
//! through which every op lifecycle point is counted once — in the
//! loop's own [`OpStats`] and in the recorder-wide `ops.*`, `op.*`,
//! `policy.backoff_ns` and `coalesce.*` metrics — and emitted as an
//! event.
//!
//! Accumulators saturate instead of wrapping, and the derived means are
//! division-safe at zero samples: a freshly spawned loop (or one that
//! only ever timed out) reports `None` rather than panicking or lying.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::event::{AttemptOutcome, EventKind, OpKind, OpOutcome};
use crate::metrics::{Counter, Histogram, MetricsRegistry};
use crate::recorder::Recorder;
use crate::trace::TraceContext;

/// Saturating `fetch_add` for accumulator counters: once an accumulator
/// reaches `u64::MAX` it stays there instead of wrapping to a small
/// (and badly misleading) value.
fn saturating_add(cell: &AtomicU64, nanos: u64) {
    let add = |current: u64| Some(current.saturating_add(nanos));
    let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, add);
}

/// Monotone counters describing an event loop's lifetime activity — the
/// raw material of the EXT-RETRY / EXT-BATCH experiments. The loop's
/// [`LoopTelemetry`] is their only writer.
#[derive(Debug, Default)]
pub struct OpStats {
    submitted: AtomicU64,
    attempts: AtomicU64,
    transient_failures: AtomicU64,
    succeeded: AtomicU64,
    timed_out: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    attempt_nanos_total: AtomicU64,
    attempt_nanos_max: AtomicU64,
    completion_nanos_total: AtomicU64,
}

impl OpStats {
    /// Takes a snapshot of all counters.
    pub fn snapshot(&self) -> OpStatsSnapshot {
        OpStatsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            attempts: self.attempts.load(Ordering::Relaxed),
            transient_failures: self.transient_failures.load(Ordering::Relaxed),
            succeeded: self.succeeded.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            attempt_nanos_total: self.attempt_nanos_total.load(Ordering::Relaxed),
            attempt_nanos_max: self.attempt_nanos_max.load(Ordering::Relaxed),
            completion_nanos_total: self.completion_nanos_total.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`OpStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpStatsSnapshot {
    /// Operations ever submitted.
    pub submitted: u64,
    /// Physical attempts (submissions × retries).
    pub attempts: u64,
    /// Attempts that failed transiently and stayed queued.
    pub transient_failures: u64,
    /// Operations that completed successfully.
    pub succeeded: u64,
    /// Operations dropped at their deadline.
    pub timed_out: u64,
    /// Operations that failed permanently.
    pub failed: u64,
    /// Operations cancelled before they completed: by a ticket, by
    /// dropping their future, or by stopping the loop (before or after
    /// they were submitted).
    pub cancelled: u64,
    /// Total clock time spent inside physical attempts, in nanoseconds
    /// (saturating).
    pub attempt_nanos_total: u64,
    /// The single longest physical attempt, in nanoseconds.
    pub attempt_nanos_max: u64,
    /// Total queue-to-completion latency over succeeded operations, in
    /// nanoseconds (saturating).
    pub completion_nanos_total: u64,
}

impl OpStatsSnapshot {
    /// Mean duration of one physical attempt, when any were made.
    ///
    /// `checked_div` (rather than a bare `/` behind a `> 0` test) keeps
    /// this safe even if the struct was built by hand with inconsistent
    /// fields.
    pub fn mean_attempt(&self) -> Option<Duration> {
        self.attempt_nanos_total.checked_div(self.attempts).map(Duration::from_nanos)
    }

    /// Mean submit-to-success latency, when any operation succeeded.
    pub fn mean_completion(&self) -> Option<Duration> {
        self.completion_nanos_total.checked_div(self.succeeded).map(Duration::from_nanos)
    }

    /// Fraction of attempts that failed transiently, when any attempts
    /// were made. A retry-policy figure of merit for EXT-RETRY.
    pub fn transient_failure_ratio(&self) -> Option<f64> {
        (self.attempts > 0).then(|| self.transient_failures as f64 / self.attempts as f64)
    }
}

/// The recorder-wide counters and histograms every loop feeds. A
/// [`Recorder`] resolves them from its registry once, on its first
/// loop, so no loop looks a metric up by name.
pub(crate) struct OpMetrics {
    submitted: Counter,
    attempts: Counter,
    retries: Counter,
    succeeded: Counter,
    timed_out: Counter,
    failed: Counter,
    cancelled: Counter,
    attempt_ns: Arc<Histogram>,
    completion_ns: Arc<Histogram>,
    /// Chosen retry delays: jitter shows as spread, curve depth as tail.
    backoff_ns: Arc<Histogram>,
    /// Flushes that collapsed ≥2 queued writes into one exchange.
    coalesced_batches: Counter,
    /// Radio exchanges avoided by coalescing (batch size − 1 each).
    saved_exchanges: Counter,
}

impl OpMetrics {
    pub(crate) fn resolve(m: &MetricsRegistry) -> OpMetrics {
        OpMetrics {
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

/// One event loop's telemetry handle: the loop's identity, its
/// [`OpStats`], and the [`Recorder`] whose op metrics and event stream
/// it feeds. Each lifecycle point of an op is one call here.
///
/// Timestamps are nanoseconds on the loop's clock. The `target` string
/// must match the simulator's physical-event keying (tag uid rendering,
/// `phone-N` for peers, `*` for undirected beams) so
/// [`correlate`](crate::correlate()) can join the two streams.
pub struct LoopTelemetry {
    recorder: Arc<Recorder>,
    stats: Arc<OpStats>,
    /// The loop's name (e.g. `tag-3`).
    pub name: String,
    /// The loop's family label.
    pub kind: &'static str,
    /// The phone running the loop.
    pub phone: u64,
    /// The loop's target identity.
    pub target: String,
}

impl LoopTelemetry {
    /// A handle for the loop `name` of family `kind` (`tag`, `beam`,
    /// `peer`; `test` in harnesses), run by `phone` against `target`.
    pub fn new(
        recorder: Arc<Recorder>,
        name: String,
        kind: &'static str,
        phone: u64,
        target: String,
    ) -> LoopTelemetry {
        recorder.op_metrics(); // registered before any op runs
        LoopTelemetry { recorder, stats: Arc::default(), name, kind, phone, target }
    }

    /// The recorder this loop reports to.
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    /// The loop's lifetime counters.
    pub fn stats(&self) -> &Arc<OpStats> {
        &self.stats
    }

    /// Op `op_id` entered the loop's queue at `at_nanos`.
    pub fn submitted(
        &self,
        at_nanos: u64,
        trace: Option<TraceContext>,
        op_id: u64,
        op: OpKind,
        deadline_nanos: u64,
    ) {
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        self.recorder.op_metrics().submitted.inc();
        self.emit(at_nanos, trace, || EventKind::OpEnqueued {
            op_id,
            loop_name: self.name.clone(),
            phone: self.phone,
            target: self.target.clone(),
            op,
            deadline_nanos,
        });
    }

    /// An attempt at op `op_id`, started at `started_nanos`, ended at
    /// `at_nanos`.
    pub fn attempted(
        &self,
        at_nanos: u64,
        trace: Option<TraceContext>,
        op_id: u64,
        started_nanos: u64,
        outcome: AttemptOutcome,
    ) {
        let nanos = at_nanos.saturating_sub(started_nanos);
        self.stats.attempts.fetch_add(1, Ordering::Relaxed);
        saturating_add(&self.stats.attempt_nanos_total, nanos);
        self.stats.attempt_nanos_max.fetch_max(nanos, Ordering::Relaxed);
        let ops = self.recorder.op_metrics();
        ops.attempts.inc();
        ops.attempt_ns.observe(nanos);
        self.emit(at_nanos, trace, || EventKind::OpAttempt {
            op_id,
            started_nanos,
            duration_nanos: nanos,
            outcome,
        });
    }

    /// A transiently failed attempt left its op queued; the loop retries
    /// it after `delay`.
    pub fn retrying(&self, delay: Duration) {
        self.stats.transient_failures.fetch_add(1, Ordering::Relaxed);
        let ops = self.recorder.op_metrics();
        ops.retries.inc();
        ops.backoff_ns.observe_duration(delay);
    }

    /// One exchange completed `ops` coalesced writes; a lone op is no
    /// batch.
    pub fn coalesced(&self, ops: usize) {
        if ops > 1 {
            let metrics = self.recorder.op_metrics();
            metrics.coalesced_batches.inc();
            metrics.saved_exchanges.add(ops as u64 - 1);
        }
    }

    /// Op `op_id`, enqueued at `enqueued_nanos`, reached `outcome` at
    /// `at_nanos`.
    pub fn completed(
        &self,
        at_nanos: u64,
        trace: Option<TraceContext>,
        op_id: u64,
        outcome: OpOutcome,
        enqueued_nanos: u64,
    ) {
        let (stats, ops) = (&self.stats, self.recorder.op_metrics());
        let (cell, counter) = match outcome {
            OpOutcome::Succeeded => {
                let nanos = at_nanos.saturating_sub(enqueued_nanos);
                saturating_add(&stats.completion_nanos_total, nanos);
                ops.completion_ns.observe(nanos);
                (&stats.succeeded, &ops.succeeded)
            }
            OpOutcome::TimedOut => (&stats.timed_out, &ops.timed_out),
            OpOutcome::Failed => (&stats.failed, &ops.failed),
            OpOutcome::Cancelled => (&stats.cancelled, &ops.cancelled),
            // Not terminal: only the correlator synthesizes it.
            OpOutcome::Pending => return,
        };
        cell.fetch_add(1, Ordering::Relaxed);
        counter.inc();
        self.emit(at_nanos, trace, || EventKind::OpCompleted { op_id, outcome });
    }

    /// Emits under the op's own trace, not the polling thread's, and
    /// builds the event only while recording is enabled.
    #[inline]
    fn emit(&self, at_nanos: u64, trace: Option<TraceContext>, make: impl FnOnce() -> EventKind) {
        if self.recorder.is_enabled() {
            self.recorder.emit_traced(at_nanos, trace, make());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detached() -> LoopTelemetry {
        LoopTelemetry::new(Arc::new(Recorder::new()), "l".into(), "test", 0, "l".into())
    }

    #[test]
    fn empty_snapshot_means_are_none() {
        let snap = OpStatsSnapshot::default();
        assert_eq!(snap.mean_attempt(), None);
        assert_eq!(snap.mean_completion(), None);
        assert_eq!(snap.transient_failure_ratio(), None);
    }

    #[test]
    fn lifecycle_calls_roll_up_in_stats_and_metrics() {
        let t = detached();
        t.submitted(0, None, 1, OpKind::Write, 10);
        t.submitted(0, None, 2, OpKind::Read, 10);
        t.attempted(100, None, 1, 0, AttemptOutcome::Transient);
        t.retrying(Duration::from_nanos(50));
        t.attempted(600, None, 1, 300, AttemptOutcome::Success);
        t.completed(1_000, None, 1, OpOutcome::Succeeded, 0);
        t.completed(2_000, None, 2, OpOutcome::TimedOut, 0);
        t.coalesced(1); // a lone op is no batch
        t.coalesced(3);
        let snap = t.stats().snapshot();
        assert_eq!(snap.submitted, 2);
        assert_eq!(snap.attempts, 2);
        assert_eq!(snap.attempt_nanos_total, 400);
        assert_eq!(snap.attempt_nanos_max, 300);
        assert_eq!(snap.transient_failures, 1);
        assert_eq!(snap.succeeded, 1);
        assert_eq!(snap.timed_out, 1);
        assert_eq!(snap.mean_attempt(), Some(Duration::from_nanos(200)));
        assert_eq!(snap.mean_completion(), Some(Duration::from_nanos(1_000)));
        assert_eq!(snap.transient_failure_ratio(), Some(0.5));
        let metrics = t.recorder().metrics().snapshot();
        assert_eq!(metrics.counter("ops.submitted"), 2);
        assert_eq!(metrics.counter("ops.attempts"), 2);
        assert_eq!(metrics.counter("ops.retries"), 1);
        assert_eq!(metrics.counter("ops.succeeded"), 1);
        assert_eq!(metrics.counter("ops.timed_out"), 1);
        assert_eq!(metrics.histogram("policy.backoff_ns").unwrap().count(), 1);
        assert_eq!(metrics.histogram("op.completion_ns").unwrap().count(), 1);
        assert_eq!(metrics.counter("coalesce.batches"), 1);
        assert_eq!(metrics.counter("coalesce.saved_exchanges"), 2);
    }

    #[test]
    fn accumulators_saturate_instead_of_wrapping() {
        let t = detached();
        t.attempted(u64::MAX - 10, None, 0, 0, AttemptOutcome::Success);
        t.attempted(100, None, 0, 0, AttemptOutcome::Success);
        let snap = t.stats().snapshot();
        assert_eq!(snap.attempt_nanos_total, u64::MAX);
        assert_eq!(snap.attempt_nanos_max, u64::MAX - 10);
        // The mean stays well-defined (if clamped) rather than tiny.
        assert!(snap.mean_attempt().unwrap() > Duration::from_nanos(u64::MAX / 4));
    }
}
