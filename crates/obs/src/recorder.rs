//! The [`Recorder`]: the per-world observability hub.
//!
//! A recorder starts *disabled*. In that state every instrumentation
//! site reduces to one relaxed atomic load — callers are expected to
//! guard event construction behind [`Recorder::is_enabled`], and
//! [`Recorder::emit`] re-checks it anyway. Installing a sink enables
//! recording; the metrics registry is always live (counters are cheap
//! enough to leave on).
//!
//! The recorder is an *instance*, not a global: the simulator's `World`
//! owns one, and the middleware reaches it through its NFC handle. This
//! keeps parallel tests deterministic and lets every world carry its own
//! isolated event stream.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use crate::event::{EventKind, ObsEvent};
use crate::inspect::Inspector;
use crate::metrics::MetricsRegistry;
use crate::opstats::OpMetrics;
use crate::sink::ObsSink;
use crate::trace::{self, SampleRate, TraceContext};

/// Hub that stamps events with sequence numbers and forwards them to
/// the installed sink. See the [module docs](self).
pub struct Recorder {
    enabled: AtomicBool,
    seq: AtomicU64,
    next_op_id: AtomicU64,
    // Trace/span ids start at 1: 0 is the "no parent" sentinel in
    // `TraceContext::parent_span_id` and must never name a real span.
    next_trace_id: AtomicU64,
    next_span_id: AtomicU64,
    sink: RwLock<Option<Arc<dyn ObsSink>>>,
    metrics: MetricsRegistry,
    /// The op metrics every event loop feeds, resolved on first use.
    ops: OnceLock<OpMetrics>,
    inspector: Inspector,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// Create a disabled recorder with an empty metrics registry.
    pub fn new() -> Self {
        Self {
            enabled: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            next_op_id: AtomicU64::new(0),
            next_trace_id: AtomicU64::new(1),
            next_span_id: AtomicU64::new(1),
            sink: RwLock::new(None),
            metrics: MetricsRegistry::new(),
            ops: OnceLock::new(),
            inspector: Inspector::new(),
        }
    }

    /// Whether event recording is enabled. This is the one relaxed
    /// atomic load instrumentation sites pay when observability is off;
    /// callers should skip event construction entirely when it returns
    /// `false`.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Install a sink and enable recording.
    pub fn install(&self, sink: Arc<dyn ObsSink>) {
        *self.sink.write().expect("recorder sink lock") = Some(sink);
        self.enabled.store(true, Ordering::Release);
    }

    /// Add a sink *alongside* whatever is already installed (teeing
    /// with it) and enable recording. This is how an always-on
    /// [`FlightRecorder`](crate::flight::FlightRecorder) rides along
    /// without displacing a test's ring or a bench's JSONL stream.
    pub fn attach(&self, sink: Arc<dyn ObsSink>) {
        let mut slot = self.sink.write().expect("recorder sink lock");
        *slot = Some(match slot.take() {
            Some(existing) => Arc::new(crate::sink::TeeSink::new(vec![existing, sink])),
            None => sink,
        });
        drop(slot);
        self.enabled.store(true, Ordering::Release);
    }

    /// Disable recording and drop the sink (after flushing it).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Release);
        let sink = self.sink.write().expect("recorder sink lock").take();
        if let Some(sink) = sink {
            sink.flush();
        }
    }

    /// Flush the installed sink, if any.
    pub fn flush(&self) {
        if let Some(sink) = self.sink.read().expect("recorder sink lock").as_ref() {
            sink.flush();
        }
    }

    /// Allocate a fresh per-operation correlation id. Ids are unique per
    /// recorder and monotonically increasing; allocation is cheap and
    /// works even while recording is disabled (so an op enqueued before
    /// `install` still correlates afterwards).
    #[inline]
    pub fn next_op_id(&self) -> u64 {
        self.next_op_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Allocate a fresh trace id. Like op ids: unique per recorder,
    /// monotonic from 1, and live even while recording is disabled.
    #[inline]
    pub fn next_trace_id(&self) -> u64 {
        self.next_trace_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Allocate a fresh span id (same contract as trace ids).
    #[inline]
    pub fn next_span_id(&self) -> u64 {
        self.next_span_id.fetch_add(1, Ordering::Relaxed)
    }

    /// A fresh root trace, sampled at `sample` (exact on the monotonic
    /// trace ids); `None` while recording is disabled.
    pub fn mint_root(&self, sample: SampleRate) -> Option<TraceContext> {
        if !self.is_enabled() {
            return None;
        }
        let trace_id = self.next_trace_id();
        let span_id = self.next_span_id();
        Some(if sample.admits(trace_id) {
            TraceContext::root(trace_id, span_id)
        } else {
            TraceContext::unsampled_root(trace_id, span_id)
        })
    }

    /// The causal identity of a new operation: a child hop of the
    /// thread's ambient context, else [`Recorder::mint_root`].
    pub fn mint_trace(&self, sample: SampleRate) -> Option<TraceContext> {
        match trace::current() {
            Some(parent) => Some(parent.child(self.next_span_id())),
            None => self.mint_root(sample),
        }
    }

    /// Stamp `kind` with the next sequence number and the given
    /// timestamp and forward it to the sink. No-op while disabled.
    ///
    /// The event inherits the calling thread's ambient
    /// [`trace::current`] context (if sampled) — this is how the
    /// simulator's `Phys*` ground truth joins the trace of the op whose
    /// attempt triggered it, with no signature change anywhere.
    pub fn emit(&self, at_nanos: u64, kind: EventKind) {
        self.emit_traced(at_nanos, trace::current(), kind);
    }

    /// [`Recorder::emit`] with an explicit trace context (overriding the
    /// ambient one). Unsampled contexts are stripped: they exist to keep
    /// causality flowing, not to appear in the stream.
    pub fn emit_traced(&self, at_nanos: u64, trace: Option<TraceContext>, kind: EventKind) {
        if !self.is_enabled() {
            return;
        }
        let sink = self.sink.read().expect("recorder sink lock");
        let Some(sink) = sink.as_ref() else { return };
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let trace = trace.filter(|t| t.sampled);
        sink.record(&ObsEvent { seq, at_nanos, trace, kind });
    }

    /// The recorder's metrics registry (always live).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    pub(crate) fn op_metrics(&self) -> &OpMetrics {
        self.ops.get_or_init(|| OpMetrics::resolve(&self.metrics))
    }

    /// The live-component registry (always live, like the metrics).
    /// Components register [`SnapshotProvider`](crate::inspect::SnapshotProvider)s
    /// here; a watchdog or "morena-top" renderer polls
    /// [`Inspector::snapshot`].
    pub fn inspector(&self) -> &Inspector {
        &self.inspector
    }

    /// Open an explicit span; close it with [`Span::end`] to emit a
    /// [`EventKind::SpanClosed`] event carrying its duration.
    pub fn span(self: &Arc<Self>, name: &'static str, phone: u64, started_nanos: u64) -> Span {
        Span { recorder: Arc::clone(self), name, phone, started_nanos }
    }
}

/// An open span. Spans are explicit: the caller supplies the end
/// timestamp because `morena-obs` owns no clock (the middleware runs on
/// a virtual clock in tests and a monotonic wall clock on hardware).
#[must_use = "a span only records once `end` is called"]
pub struct Span {
    recorder: Arc<Recorder>,
    name: &'static str,
    phone: u64,
    started_nanos: u64,
}

impl Span {
    /// Close the span at `end_nanos`, emitting its duration.
    pub fn end(self, end_nanos: u64) {
        let duration = end_nanos.saturating_sub(self.started_nanos);
        self.recorder.emit(
            end_nanos,
            EventKind::SpanClosed {
                name: self.name,
                phone: self.phone,
                started_nanos: self.started_nanos,
                duration_nanos: duration,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::RingSink;

    #[test]
    fn disabled_recorder_emits_nothing() {
        let rec = Recorder::new();
        assert!(!rec.is_enabled());
        rec.emit(0, EventKind::PhysTagEntered { phone: 0, target: "t".into() });
        // Sequence numbers are only consumed by delivered events.
        let ring = Arc::new(RingSink::new(4));
        rec.install(ring.clone());
        rec.emit(5, EventKind::PhysTagEntered { phone: 0, target: "t".into() });
        let events = ring.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[0].at_nanos, 5);
    }

    #[test]
    fn disable_stops_delivery_and_flushes() {
        let rec = Recorder::new();
        let ring = Arc::new(RingSink::new(4));
        rec.install(ring.clone());
        rec.disable();
        rec.emit(1, EventKind::PhysTagLeft { phone: 0, target: "t".into() });
        assert!(ring.is_empty());
    }

    #[test]
    fn attach_tees_with_the_installed_sink() {
        let rec = Recorder::new();
        let first = Arc::new(RingSink::new(4));
        let second = Arc::new(RingSink::new(4));
        rec.install(first.clone());
        rec.attach(second.clone());
        rec.emit(1, EventKind::PhysTagEntered { phone: 0, target: "t".into() });
        assert_eq!(first.len(), 1);
        assert_eq!(second.len(), 1);
        // Attaching to a bare recorder just installs and enables.
        let rec = Recorder::new();
        let only = Arc::new(RingSink::new(4));
        rec.attach(only.clone());
        assert!(rec.is_enabled());
        rec.emit(2, EventKind::PhysTagLeft { phone: 0, target: "t".into() });
        assert_eq!(only.len(), 1);
    }

    #[test]
    fn op_ids_are_unique_and_work_while_disabled() {
        let rec = Recorder::new();
        assert_eq!(rec.next_op_id(), 0);
        assert_eq!(rec.next_op_id(), 1);
    }

    #[test]
    fn spans_emit_duration_on_end() {
        let rec = Arc::new(Recorder::new());
        let ring = Arc::new(RingSink::new(4));
        rec.install(ring.clone());
        let span = rec.span("lease.acquire", 3, 100);
        span.end(350);
        let events = ring.snapshot();
        assert_eq!(events.len(), 1);
        match &events[0].kind {
            EventKind::SpanClosed { name, phone, started_nanos, duration_nanos } => {
                assert_eq!(*name, "lease.acquire");
                assert_eq!(*phone, 3);
                assert_eq!(*started_nanos, 100);
                assert_eq!(*duration_nanos, 250);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn span_end_before_start_saturates_to_zero() {
        let rec = Arc::new(Recorder::new());
        let ring = Arc::new(RingSink::new(4));
        rec.install(ring.clone());
        rec.span("s", 0, 100).end(50);
        match &ring.snapshot()[0].kind {
            EventKind::SpanClosed { duration_nanos, .. } => assert_eq!(*duration_nanos, 0),
            other => panic!("unexpected event {other:?}"),
        }
    }
}
