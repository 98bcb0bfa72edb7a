//! The structured event model.
//!
//! Every instrumentation site in the middleware and the simulator emits
//! an [`EventKind`]; the [`Recorder`](crate::Recorder) stamps it with a
//! global monotonic sequence number and the caller-supplied timestamp to
//! form an [`ObsEvent`]. Identities are deliberately plain (`u64` phone
//! ids, `String` targets) so this crate depends on nothing above it.
//!
//! Two families of events share the stream:
//!
//! * **middleware events** (`Op*`, `TagDetected`, `Lease`, …) describe
//!   what the middleware *did*;
//! * **physical events** (`Phys*`) are the simulator's ground truth,
//!   bridged from `nfc-sim`'s trace plane: what was *actually* in radio
//!   range, which exchanges crossed the air, which beams were delivered.
//!
//! [`correlate`](crate::correlate()) joins the two families by
//! `(phone, target)` to attribute operation latency.

use crate::json::ObjectWriter;
use crate::trace::TraceContext;

/// Sentinel for [`EventKind::PhysExchange::opcode`] when the exchanged
/// command carried no opcode byte (outside the `u8` range on purpose).
pub const NO_OPCODE: u64 = 256;

/// The kind of operation submitted to an event loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Read the NDEF payload of a tag.
    Read,
    /// Write an NDEF payload to a tag.
    Write,
    /// Permanently lock a tag read-only.
    MakeReadOnly,
    /// Push (beam) a payload to a peer phone.
    Push,
}

impl OpKind {
    /// Stable lower-case label used in JSONL output.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Read => "read",
            OpKind::Write => "write",
            OpKind::MakeReadOnly => "make_read_only",
            OpKind::Push => "push",
        }
    }
}

/// How a single attempt of an operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// The attempt succeeded; the operation completes.
    Success,
    /// The attempt failed transiently (tag out of range, link glitch);
    /// the loop will retry until the deadline.
    Transient,
    /// The attempt failed permanently; the operation fails.
    Permanent,
}

impl AttemptOutcome {
    /// Stable lower-case label used in JSONL output.
    pub fn label(self) -> &'static str {
        match self {
            AttemptOutcome::Success => "success",
            AttemptOutcome::Transient => "transient",
            AttemptOutcome::Permanent => "permanent",
        }
    }
}

/// Terminal outcome of a whole operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpOutcome {
    /// The operation succeeded within its deadline.
    Succeeded,
    /// The operation failed permanently.
    Failed,
    /// The deadline elapsed before any attempt succeeded.
    TimedOut,
    /// The submitter cancelled the operation.
    Cancelled,
    /// The operation had not reached a terminal state when the event
    /// stream ended. Never emitted in an [`EventKind::OpCompleted`];
    /// only synthesized by [`correlate`](crate::correlate()) for ops
    /// still in flight at the analysis horizon.
    Pending,
}

impl OpOutcome {
    /// Stable lower-case label used in JSONL output.
    pub fn label(self) -> &'static str {
        match self {
            OpOutcome::Succeeded => "succeeded",
            OpOutcome::Failed => "failed",
            OpOutcome::TimedOut => "timed_out",
            OpOutcome::Cancelled => "cancelled",
            OpOutcome::Pending => "pending",
        }
    }
}

/// What happened to a lease on a shared tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseAction {
    /// A fresh (or expired-and-taken-over) lease was granted.
    Granted,
    /// An existing lease was renewed by its holder.
    Renewed,
    /// The holder released the lease early.
    Released,
    /// The lease was denied: another device holds it.
    Denied,
    /// Two devices raced for a free lease and this one lost.
    LostRace,
}

impl LeaseAction {
    /// Stable lower-case label used in JSONL output.
    pub fn label(self) -> &'static str {
        match self {
            LeaseAction::Granted => "granted",
            LeaseAction::Renewed => "renewed",
            LeaseAction::Released => "released",
            LeaseAction::Denied => "denied",
            LeaseAction::LostRace => "lost_race",
        }
    }
}

/// The payload of one observability event.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EventKind {
    // ---- middleware: operation lifecycle -------------------------------
    /// An operation was submitted to an event loop queue.
    OpEnqueued {
        /// Correlation id, unique per recorder.
        op_id: u64,
        /// Name of the event loop thread (e.g. `tag-3`).
        loop_name: String,
        /// Phone that issued the operation.
        phone: u64,
        /// Target identity: tag uid, peer id, or `*` for undirected beam.
        target: String,
        /// What kind of operation.
        op: OpKind,
        /// Absolute deadline, in clock nanoseconds.
        deadline_nanos: u64,
    },
    /// One attempt at the head-of-queue operation finished.
    OpAttempt {
        /// Correlation id of the operation.
        op_id: u64,
        /// When the attempt started, in clock nanoseconds.
        started_nanos: u64,
        /// How long the attempt took.
        duration_nanos: u64,
        /// How the attempt ended.
        outcome: AttemptOutcome,
    },
    /// An operation reached a terminal state.
    OpCompleted {
        /// Correlation id of the operation.
        op_id: u64,
        /// Terminal outcome.
        outcome: OpOutcome,
    },

    // ---- middleware: discovery ----------------------------------------
    /// Discovery resolved a tag sighting to a far reference.
    TagDetected {
        /// Phone that saw the tag.
        phone: u64,
        /// Tag uid.
        target: String,
        /// `true` if this tag was seen before (redetection).
        redetection: bool,
    },
    /// Discovery pre-read found an empty (blank) tag.
    EmptyTagDetected {
        /// Phone that saw the tag.
        phone: u64,
        /// Tag uid.
        target: String,
    },

    // ---- middleware: beam / peer receive side --------------------------
    /// A beamed payload arrived and was dispatched to a listener.
    BeamReceived {
        /// Receiving phone.
        phone: u64,
        /// Sending phone.
        from: u64,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// A typed peer message arrived on a peer inbox.
    PeerReceived {
        /// Receiving phone.
        phone: u64,
        /// Sending phone.
        from: u64,
        /// Payload size in bytes.
        bytes: u64,
    },

    // ---- middleware: leases -------------------------------------------
    /// A lease transition on a shared tag.
    Lease {
        /// Phone performing the transition.
        phone: u64,
        /// Tag uid the lease lives on.
        target: String,
        /// What happened.
        action: LeaseAction,
        /// Lease expiry in clock nanoseconds (0 when not applicable).
        expires_nanos: u64,
    },

    // ---- explicit spans -------------------------------------------------
    /// A named span closed (see [`Span`](crate::Span)).
    SpanClosed {
        /// Static span name (e.g. `lease.acquire`).
        name: &'static str,
        /// Phone the span belongs to.
        phone: u64,
        /// When the span opened, in clock nanoseconds.
        started_nanos: u64,
        /// Span duration in nanoseconds.
        duration_nanos: u64,
    },

    // ---- physical ground truth (bridged from nfc-sim) -------------------
    /// A tag physically entered a phone's radio range.
    PhysTagEntered {
        /// Phone whose range the tag entered.
        phone: u64,
        /// Tag uid.
        target: String,
    },
    /// A tag physically left a phone's radio range.
    PhysTagLeft {
        /// Phone whose range the tag left.
        phone: u64,
        /// Tag uid.
        target: String,
    },
    /// A raw NDEF exchange crossed the simulated air interface.
    PhysExchange {
        /// Phone driving the exchange.
        phone: u64,
        /// Tag uid.
        target: String,
        /// First command byte (the opcode); `NO_OPCODE` when the
        /// command was empty.
        opcode: u64,
        /// Whether the exchange succeeded at the radio level.
        ok: bool,
    },
    /// A beam crossed the simulated air interface.
    PhysBeam {
        /// Sending phone.
        phone: u64,
        /// Payload size in bytes.
        bytes: u64,
        /// Number of peers the payload was delivered to.
        delivered: u64,
    },
    /// Another phone physically entered P2P range.
    PhysPeerEntered {
        /// Observing phone.
        phone: u64,
        /// The peer that entered, rendered like a target (`phone-N`).
        target: String,
    },
    /// Another phone physically left P2P range.
    PhysPeerLeft {
        /// Observing phone.
        phone: u64,
        /// The peer that left, rendered like a target (`phone-N`).
        target: String,
    },
    /// The simulator's fault injector fired on an exchange — injected
    /// ground truth, correlatable with the middleware's recovery events.
    FaultInjected {
        /// Phone driving the faulted exchange.
        phone: u64,
        /// Tag uid.
        target: String,
        /// Stable label of the injected fault class (e.g. `torn_write`).
        fault: &'static str,
    },
}

impl EventKind {
    /// Stable snake-case type tag used as the `"type"` field in JSONL.
    pub fn type_label(&self) -> &'static str {
        match self {
            EventKind::OpEnqueued { .. } => "op_enqueued",
            EventKind::OpAttempt { .. } => "op_attempt",
            EventKind::OpCompleted { .. } => "op_completed",
            EventKind::TagDetected { .. } => "tag_detected",
            EventKind::EmptyTagDetected { .. } => "empty_tag_detected",
            EventKind::BeamReceived { .. } => "beam_received",
            EventKind::PeerReceived { .. } => "peer_received",
            EventKind::Lease { .. } => "lease",
            EventKind::SpanClosed { .. } => "span",
            EventKind::PhysTagEntered { .. } => "phys_tag_entered",
            EventKind::PhysTagLeft { .. } => "phys_tag_left",
            EventKind::PhysExchange { .. } => "phys_exchange",
            EventKind::PhysBeam { .. } => "phys_beam",
            EventKind::PhysPeerEntered { .. } => "phys_peer_entered",
            EventKind::PhysPeerLeft { .. } => "phys_peer_left",
            EventKind::FaultInjected { .. } => "fault_injected",
        }
    }
}

/// One recorded event: a sequence number, a timestamp, and a payload.
///
/// `seq` is globally monotonic per [`Recorder`](crate::Recorder) and
/// gap-free as long as no sink drops events, which makes it usable both
/// for total ordering and for loss detection. `at_nanos` is on whatever
/// clock the emitting layer uses (the sim's virtual clock in tests, a
/// monotonic wall clock on hardware).
#[derive(Debug, Clone, PartialEq)]
pub struct ObsEvent {
    /// Global monotonic sequence number (per recorder).
    pub seq: u64,
    /// Timestamp in clock nanoseconds.
    pub at_nanos: u64,
    /// The causal trace context this event belongs to, when the emitting
    /// site was traced and the trace is sampled (see [`crate::trace`]).
    pub trace: Option<TraceContext>,
    /// The event payload.
    pub kind: EventKind,
}

impl ObsEvent {
    /// Render this event as a single flat JSON object (one JSONL line,
    /// without the trailing newline).
    pub fn to_json(&self) -> String {
        let mut w = ObjectWriter::new();
        w.u64("seq", self.seq).u64("at_ns", self.at_nanos).str("type", self.kind.type_label());
        match &self.kind {
            EventKind::OpEnqueued { op_id, loop_name, phone, target, op, deadline_nanos } => {
                w.u64("op_id", *op_id)
                    .str("loop", loop_name)
                    .u64("phone", *phone)
                    .str("target", target)
                    .str("op", op.label())
                    .u64("deadline_ns", *deadline_nanos);
            }
            EventKind::OpAttempt { op_id, started_nanos, duration_nanos, outcome } => {
                w.u64("op_id", *op_id)
                    .u64("started_ns", *started_nanos)
                    .u64("duration_ns", *duration_nanos)
                    .str("outcome", outcome.label());
            }
            EventKind::OpCompleted { op_id, outcome } => {
                w.u64("op_id", *op_id).str("outcome", outcome.label());
            }
            EventKind::TagDetected { phone, target, redetection } => {
                w.u64("phone", *phone).str("target", target).bool("redetection", *redetection);
            }
            EventKind::EmptyTagDetected { phone, target } => {
                w.u64("phone", *phone).str("target", target);
            }
            EventKind::BeamReceived { phone, from, bytes }
            | EventKind::PeerReceived { phone, from, bytes } => {
                w.u64("phone", *phone).u64("from", *from).u64("bytes", *bytes);
            }
            EventKind::Lease { phone, target, action, expires_nanos } => {
                w.u64("phone", *phone)
                    .str("target", target)
                    .str("action", action.label())
                    .u64("expires_ns", *expires_nanos);
            }
            EventKind::SpanClosed { name, phone, started_nanos, duration_nanos } => {
                w.str("name", name)
                    .u64("phone", *phone)
                    .u64("started_ns", *started_nanos)
                    .u64("duration_ns", *duration_nanos);
            }
            EventKind::PhysTagEntered { phone, target }
            | EventKind::PhysTagLeft { phone, target }
            | EventKind::PhysPeerEntered { phone, target }
            | EventKind::PhysPeerLeft { phone, target } => {
                w.u64("phone", *phone).str("target", target);
            }
            EventKind::PhysExchange { phone, target, opcode, ok } => {
                w.u64("phone", *phone).str("target", target).u64("opcode", *opcode).bool("ok", *ok);
            }
            EventKind::PhysBeam { phone, bytes, delivered } => {
                w.u64("phone", *phone).u64("bytes", *bytes).u64("delivered", *delivered);
            }
            EventKind::FaultInjected { phone, target, fault } => {
                w.u64("phone", *phone).str("target", target).str("fault", fault);
            }
        }
        if let Some(trace) = &self.trace {
            w.u64("trace_id", trace.trace_id).u64("span_id", trace.span_id);
            if trace.parent_span_id != 0 {
                w.u64("parent_span_id", trace.parent_span_id);
            }
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_rendering_is_flat_and_tagged() {
        let ev = ObsEvent {
            seq: 3,
            at_nanos: 1_500,
            trace: None,
            kind: EventKind::OpEnqueued {
                op_id: 9,
                loop_name: "tag-1".into(),
                phone: 0,
                target: "tag-1".into(),
                op: OpKind::Read,
                deadline_nanos: 10_000,
            },
        };
        let json = ev.to_json();
        assert!(json.starts_with("{\"seq\":3,\"at_ns\":1500,\"type\":\"op_enqueued\""));
        assert!(json.contains("\"op\":\"read\""));
        assert!(json.ends_with('}'));
    }

    #[test]
    fn trace_fields_render_only_when_present() {
        let mut ev = ObsEvent {
            seq: 1,
            at_nanos: 10,
            trace: None,
            kind: EventKind::OpCompleted { op_id: 4, outcome: OpOutcome::Succeeded },
        };
        assert!(!ev.to_json().contains("trace_id"));
        ev.trace = Some(TraceContext::root(6, 2));
        let json = ev.to_json();
        assert!(json.contains("\"trace_id\":6"));
        assert!(json.contains("\"span_id\":2"));
        // A root span has no parent edge to render.
        assert!(!json.contains("parent_span_id"));
        ev.trace = Some(TraceContext::root(6, 2).child(3));
        assert!(ev.to_json().contains("\"parent_span_id\":2"));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(OpKind::MakeReadOnly.label(), "make_read_only");
        assert_eq!(AttemptOutcome::Transient.label(), "transient");
        assert_eq!(OpOutcome::TimedOut.label(), "timed_out");
        assert_eq!(LeaseAction::LostRace.label(), "lost_race");
    }
}
