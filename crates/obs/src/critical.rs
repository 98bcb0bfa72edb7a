//! Per-trace critical-path analysis over causal traces.
//!
//! [`crate::correlate()`] attributes *one operation's* latency into
//! out-of-range wait, exchange time, and queue delay. A causal trace
//! ([`crate::trace`]) strings many such operations together — the
//! discovery sighting that minted a reference, the beam that carried a
//! payload to another phone, the handler write it triggered. This
//! module joins the two: for every trace id in an event stream it
//! collects the trace's spans, pairs each operation-bearing span with
//! its [`OpBreakdown`], and reports where the end-to-end time actually
//! went — **which hop** (operation) dominated, and **which component**
//! (out-of-range vs exchange vs queue) dominated within the whole
//! trace.
//!
//! The stream handed to [`analyze_traces`] should be the *full* event
//! stream, not just one trace's events: physical presence events
//! usually carry other (or no) trace contexts, and the per-op
//! attribution needs them.
//!
//! # Examples
//!
//! ```
//! use morena_obs::critical::analyze_traces;
//! use morena_obs::{EventKind, ObsEvent, OpKind, OpOutcome, TraceContext};
//!
//! let root = TraceContext::root(1, 1);
//! let events = [
//!     ObsEvent { seq: 0, at_nanos: 0, trace: Some(root), kind: EventKind::OpEnqueued {
//!         op_id: 0, loop_name: "tag-A".into(), phone: 0, target: "A".into(),
//!         op: OpKind::Write, deadline_nanos: 10_000 } },
//!     ObsEvent { seq: 1, at_nanos: 900, trace: Some(root), kind: EventKind::OpCompleted {
//!         op_id: 0, outcome: OpOutcome::Succeeded } },
//! ];
//! let analysis = analyze_traces(&events);
//! assert_eq!(analysis[0].trace_id, 1);
//! assert_eq!(analysis[0].total_nanos, 900);
//! ```

use std::collections::{BTreeMap, HashSet};

use crate::correlate::{correlate, OpBreakdown};
use crate::event::{EventKind, ObsEvent};
use crate::json::ObjectWriter;

/// The three exhaustive latency components of
/// [`crate::correlate::OpBreakdown`], as a named dominant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostComponent {
    /// The target was physically out of radio range.
    OutOfRange,
    /// Time inside physical attempts.
    Exchange,
    /// Queueing, retry backoff, and scheduling slack.
    Queue,
}

impl CostComponent {
    /// Stable lowercase label (matches the `*_ns` JSON field prefixes).
    pub fn label(self) -> &'static str {
        match self {
            CostComponent::OutOfRange => "out_of_range",
            CostComponent::Exchange => "exchange",
            CostComponent::Queue => "queue",
        }
    }
}

/// One operation-bearing hop of a trace: a span that enqueued an
/// operation, joined with that operation's latency attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceHop {
    /// Span that issued the operation.
    pub span_id: u64,
    /// Its parent span (0 for the trace root).
    pub parent_span_id: u64,
    /// The operation's latency attribution from [`correlate`].
    pub breakdown: OpBreakdown,
}

/// Everything learned about one trace: its span graph, its
/// operation-bearing hops, and where the time went.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceAnalysis {
    /// The trace analyzed.
    pub trace_id: u64,
    /// Earliest event timestamp on the trace, clock nanoseconds.
    pub started_nanos: u64,
    /// Latest event timestamp on the trace.
    pub finished_nanos: u64,
    /// End-to-end wall time: `finished - started`.
    pub total_nanos: u64,
    /// Distinct spans observed on the trace.
    pub spans: u64,
    /// Distinct phones whose events joined the trace (cross-device
    /// reach: 2+ means the trace crossed an NFC link).
    pub phones: u64,
    /// `true` when the span graph is one tree: exactly one root and
    /// every other span's parent was observed.
    pub connected: bool,
    /// Operation-bearing hops in causal (enqueue) order.
    pub hops: Vec<TraceHop>,
    /// Out-of-range wait summed over all hops.
    pub out_of_range_nanos: u64,
    /// Exchange time summed over all hops.
    pub exchange_nanos: u64,
    /// Queue delay summed over all hops.
    pub queue_nanos: u64,
    /// Index into [`TraceAnalysis::hops`] of the hop with the largest
    /// total latency — the hop to optimize first. `None` when the trace
    /// carried no operations.
    pub dominant_hop: Option<usize>,
    /// The component with the largest summed cost, or `None` when all
    /// three are zero.
    pub dominant_component: Option<CostComponent>,
}

impl TraceAnalysis {
    /// Render as one JSON object (hops nested as [`OpBreakdown`]
    /// objects plus their span edges).
    pub fn to_json(&self) -> String {
        let mut w = ObjectWriter::new();
        w.u64("trace_id", self.trace_id)
            .u64("started_ns", self.started_nanos)
            .u64("finished_ns", self.finished_nanos)
            .u64("total_ns", self.total_nanos)
            .u64("spans", self.spans)
            .u64("phones", self.phones)
            .bool("connected", self.connected)
            .u64("out_of_range_ns", self.out_of_range_nanos)
            .u64("exchange_ns", self.exchange_nanos)
            .u64("queue_ns", self.queue_nanos);
        match self.dominant_hop {
            Some(i) => w.u64("dominant_hop_op_id", self.hops[i].breakdown.op_id),
            None => w.raw("dominant_hop_op_id", "null"),
        };
        match self.dominant_component {
            Some(c) => w.str("dominant_component", c.label()),
            None => w.raw("dominant_component", "null"),
        };
        let mut hops = String::from("[");
        for (i, hop) in self.hops.iter().enumerate() {
            if i > 0 {
                hops.push(',');
            }
            let mut h = ObjectWriter::new();
            h.u64("span_id", hop.span_id)
                .u64("parent_span_id", hop.parent_span_id)
                .raw("op", &hop.breakdown.to_json());
            hops.push_str(&h.finish());
        }
        hops.push(']');
        w.raw("hops", &hops);
        w.finish()
    }
}

/// Per-trace working state while scanning the stream.
#[derive(Default)]
struct TraceAccum {
    started: u64,
    finished: u64,
    /// span_id → parent_span_id, first sighting wins.
    spans: BTreeMap<u64, u64>,
    phones: HashSet<u64>,
    /// (span_id, parent_span_id, op_id) for every traced enqueue.
    ops: Vec<(u64, u64, u64)>,
}

/// Phone attribution of an event, when its kind names one.
fn event_phone(kind: &EventKind) -> Option<u64> {
    match kind {
        EventKind::OpEnqueued { phone, .. }
        | EventKind::SpanClosed { phone, .. }
        | EventKind::TagDetected { phone, .. }
        | EventKind::EmptyTagDetected { phone, .. }
        | EventKind::BeamReceived { phone, .. }
        | EventKind::PeerReceived { phone, .. }
        | EventKind::Lease { phone, .. }
        | EventKind::PhysTagEntered { phone, .. }
        | EventKind::PhysTagLeft { phone, .. }
        | EventKind::PhysPeerEntered { phone, .. }
        | EventKind::PhysPeerLeft { phone, .. }
        | EventKind::PhysExchange { phone, .. }
        | EventKind::PhysBeam { phone, .. }
        | EventKind::FaultInjected { phone, .. } => Some(*phone),
        EventKind::OpAttempt { .. } | EventKind::OpCompleted { .. } => None,
    }
}

/// Analyze every trace present in `events`. Returns one
/// [`TraceAnalysis`] per trace id, sorted by trace id. Events without a
/// trace context still participate — they feed the per-op attribution —
/// but form no analysis of their own.
pub fn analyze_traces(events: &[ObsEvent]) -> Vec<TraceAnalysis> {
    let breakdowns: BTreeMap<u64, OpBreakdown> =
        correlate(events).into_iter().map(|b| (b.op_id, b)).collect();

    let mut ordered: Vec<&ObsEvent> = events.iter().collect();
    ordered.sort_by_key(|e| (e.at_nanos, e.seq));

    let mut traces: BTreeMap<u64, TraceAccum> = BTreeMap::new();
    for event in ordered {
        let Some(ctx) = event.trace else { continue };
        let accum = traces
            .entry(ctx.trace_id)
            .or_insert_with(|| TraceAccum { started: event.at_nanos, ..TraceAccum::default() });
        accum.started = accum.started.min(event.at_nanos);
        accum.finished = accum.finished.max(event.at_nanos);
        accum.spans.entry(ctx.span_id).or_insert(ctx.parent_span_id);
        if let Some(phone) = event_phone(&event.kind) {
            accum.phones.insert(phone);
        }
        if let EventKind::OpEnqueued { op_id, .. } = &event.kind {
            accum.ops.push((ctx.span_id, ctx.parent_span_id, *op_id));
        }
    }

    traces
        .into_iter()
        .map(|(trace_id, accum)| {
            let roots = accum.spans.values().filter(|&&parent| parent == 0).count();
            let connected = roots == 1
                && accum
                    .spans
                    .values()
                    .all(|&parent| parent == 0 || accum.spans.contains_key(&parent));

            let mut hops: Vec<TraceHop> = accum
                .ops
                .iter()
                .filter_map(|&(span_id, parent_span_id, op_id)| {
                    let breakdown = breakdowns.get(&op_id)?.clone();
                    Some(TraceHop { span_id, parent_span_id, breakdown })
                })
                .collect();
            hops.sort_by_key(|h| (h.breakdown.enqueued_nanos, h.breakdown.op_id));

            let out_of_range: u64 = hops.iter().map(|h| h.breakdown.out_of_range_nanos).sum();
            let exchange: u64 = hops.iter().map(|h| h.breakdown.exchange_nanos).sum();
            let queue: u64 = hops.iter().map(|h| h.breakdown.queue_nanos).sum();

            let dominant_hop = hops
                .iter()
                .enumerate()
                .max_by_key(|(_, h)| h.breakdown.total_nanos)
                .map(|(i, _)| i);
            let dominant_component = [
                (CostComponent::OutOfRange, out_of_range),
                (CostComponent::Exchange, exchange),
                (CostComponent::Queue, queue),
            ]
            .into_iter()
            .filter(|&(_, cost)| cost > 0)
            .max_by_key(|&(_, cost)| cost)
            .map(|(component, _)| component);

            TraceAnalysis {
                trace_id,
                started_nanos: accum.started,
                finished_nanos: accum.finished,
                total_nanos: accum.finished.saturating_sub(accum.started),
                spans: accum.spans.len() as u64,
                phones: accum.phones.len() as u64,
                connected,
                hops,
                out_of_range_nanos: out_of_range,
                exchange_nanos: exchange,
                queue_nanos: queue,
                dominant_hop,
                dominant_component,
            }
        })
        .collect()
}

/// [`analyze_traces`] narrowed to one trace id.
pub fn analyze_trace(events: &[ObsEvent], trace_id: u64) -> Option<TraceAnalysis> {
    analyze_traces(events).into_iter().find(|a| a.trace_id == trace_id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AttemptOutcome, OpKind, OpOutcome};
    use crate::trace::TraceContext;

    fn ev(seq: u64, at: u64, trace: Option<TraceContext>, kind: EventKind) -> ObsEvent {
        ObsEvent { seq, at_nanos: at, trace, kind }
    }

    fn enqueue(seq: u64, at: u64, trace: Option<TraceContext>, op_id: u64) -> ObsEvent {
        ev(
            seq,
            at,
            trace,
            EventKind::OpEnqueued {
                op_id,
                loop_name: "tag-A".into(),
                phone: op_id % 2,
                target: "A".into(),
                op: OpKind::Write,
                deadline_nanos: at + 1_000_000,
            },
        )
    }

    fn complete(seq: u64, at: u64, trace: Option<TraceContext>, op_id: u64) -> ObsEvent {
        ev(seq, at, trace, EventKind::OpCompleted { op_id, outcome: OpOutcome::Succeeded })
    }

    /// A two-hop trace: op 0 on phone 0 (root span), op 1 on phone 1
    /// (child span), with the tag out of range before op 1's attempt.
    fn two_hop_trace() -> Vec<ObsEvent> {
        let root = TraceContext::root(3, 1);
        let child = root.child(2);
        vec![
            enqueue(0, 0, Some(root), 0),
            complete(1, 100, Some(root), 0),
            enqueue(2, 100, Some(child), 1),
            ev(3, 600, None, EventKind::PhysTagEntered { phone: 1, target: "A".into() }),
            ev(
                4,
                700,
                Some(child),
                EventKind::OpAttempt {
                    op_id: 1,
                    started_nanos: 600,
                    duration_nanos: 100,
                    outcome: AttemptOutcome::Success,
                },
            ),
            complete(5, 700, Some(child), 1),
        ]
    }

    #[test]
    fn joins_hops_with_breakdowns_and_finds_the_dominant() {
        let analysis = analyze_traces(&two_hop_trace());
        assert_eq!(analysis.len(), 1);
        let a = &analysis[0];
        assert_eq!(a.trace_id, 3);
        assert_eq!((a.started_nanos, a.finished_nanos, a.total_nanos), (0, 700, 700));
        assert_eq!(a.spans, 2);
        assert_eq!(a.phones, 2);
        assert!(a.connected);
        assert_eq!(a.hops.len(), 2);
        // Hop 1 (op 1): 600ns total, 500ns out of range, 100ns exchange.
        assert_eq!(a.dominant_hop, Some(1));
        assert_eq!(a.dominant_component, Some(CostComponent::OutOfRange));
        assert_eq!(a.out_of_range_nanos, 500);
        assert_eq!(a.exchange_nanos, 100);
        // Per-hop sums still satisfy each hop's invariant.
        for hop in &a.hops {
            let b = &hop.breakdown;
            assert_eq!(b.out_of_range_nanos + b.exchange_nanos + b.queue_nanos, b.total_nanos);
        }
    }

    #[test]
    fn disconnected_and_multi_root_graphs_are_flagged() {
        // A child span whose parent was never observed.
        let orphan = TraceContext::root(1, 5).child(6);
        let events = [enqueue(0, 0, Some(orphan), 0), complete(1, 10, Some(orphan), 0)];
        assert!(!analyze_traces(&events)[0].connected);

        // Two roots sharing one trace id.
        let events = [
            enqueue(0, 0, Some(TraceContext::root(1, 1)), 0),
            enqueue(1, 5, Some(TraceContext::root(1, 2)), 1),
        ];
        assert!(!analyze_traces(&events)[0].connected);
    }

    #[test]
    fn untraced_events_feed_attribution_but_form_no_trace() {
        let events = two_hop_trace();
        let analysis = analyze_traces(&events);
        // PhysTagEntered carried no trace, yet op 1's out-of-range
        // attribution saw it; and no analysis exists besides trace 3.
        assert_eq!(analysis.len(), 1);
        assert_eq!(analysis[0].out_of_range_nanos, 500);
        assert!(analyze_trace(&events, 3).is_some());
        assert!(analyze_trace(&events, 99).is_none());
    }

    #[test]
    fn empty_trace_without_ops_has_no_dominant_hop() {
        let root = TraceContext::root(2, 1);
        let events = [ev(
            0,
            50,
            Some(root),
            EventKind::TagDetected { phone: 0, target: "A".into(), redetection: false },
        )];
        let a = &analyze_traces(&events)[0];
        assert!(a.hops.is_empty());
        assert_eq!(a.dominant_hop, None);
        assert_eq!(a.dominant_component, None);
        assert_eq!(a.total_nanos, 0);
        assert!(a.connected);
    }

    #[test]
    fn analysis_serializes_to_json() {
        let json = analyze_traces(&two_hop_trace())[0].to_json();
        assert!(json.contains("\"trace_id\":3"));
        assert!(json.contains("\"connected\":true"));
        assert!(json.contains("\"dominant_component\":\"out_of_range\""));
        assert!(json.contains("\"dominant_hop_op_id\":1"));
        assert!(json.contains("\"hops\":[{\"span_id\":1,"));
        assert!(json.contains("\"parent_span_id\":0"));
    }
}
