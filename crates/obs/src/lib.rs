//! # morena-obs
//!
//! The unified tracing and metrics layer of the MORENA reproduction: a
//! lightweight structured event model, pluggable sinks, a metrics
//! registry with fixed-bucket latency histograms, and a correlation
//! module that joins middleware operation events with the simulator's
//! physical ground truth.
//!
//! The middleware's core abstraction — a far reference with a private
//! event loop that retries asynchronous operations while tags drift in
//! and out of range — is exactly the kind of intermittent, retry-heavy
//! system that cannot be tuned blind. This crate gives every layer one
//! vocabulary:
//!
//! * [`ObsEvent`] / [`EventKind`] — structured events with a global
//!   monotonic `seq` and per-operation correlation ids, covering the
//!   full op lifecycle (enqueue, attempt, retry, completion), discovery,
//!   beam, lease, peer traffic, and the *physical* ground truth bridged
//!   from the simulator (tag enter/leave, exchanges, beams).
//! * [`Recorder`] — the per-world hub. Disabled by default: every
//!   instrumentation site costs one relaxed atomic load until a sink is
//!   installed.
//! * [`ObsSink`] implementations — [`RingSink`] (bounded, lock-light,
//!   in-memory), [`JsonlSink`] (one JSON object per line, for bench
//!   runs), [`NullSink`], and [`TeeSink`].
//! * [`MetricsRegistry`] — counters, gauges, and fixed-bucket latency
//!   histograms with p50/p95/p99 snapshots, keyed by static names.
//! * [`correlate()`] — joins op events with physical events to attribute
//!   each operation's latency into *out-of-range wait* vs *exchange
//!   time* vs *queue delay*, summing exactly to the op's total.
//! * [`trace`] — causal [`TraceContext`]s minted at application-visible
//!   operations and propagated through retries, coalesced batches, and
//!   (in-band, as a reserved NDEF record) across devices; head-based
//!   sampling via [`SampleRate`].
//! * [`critical`] — per-trace critical-path analysis joining a trace's
//!   hops with their [`OpBreakdown`]s: which hop, and which latency
//!   component, dominated the end-to-end time.
//! * [`OpStats`] / [`OpStatsSnapshot`] — the per-event-loop lifetime
//!   counters (previously private to `morena-core`), so there is one
//!   stats path, not two.
//! * [`profile`] — the [`MemFootprint`] sizing trait behind the live
//!   `mem_bytes` figures, and (behind the `alloc-profile` feature) a
//!   counting global allocator with [`AllocScope`] regions so benches
//!   can assert allocations per operation.
//! * [`timeseries`] — the continuous plane: a background [`Sampler`]
//!   turning metric deltas and inspector snapshots into bounded
//!   per-series ring buffers, with sparkline rendering for
//!   [`render_top_with_series`].
//! * [`expose`] — OpenMetrics text exposition and the dependency-free
//!   [`ExpositionServer`] HTTP scrape endpoint.
//! * [`flight`] — the always-on [`FlightRecorder`] black box: bounded
//!   per-component event history, dumped to disk on stall transitions,
//!   panics, or demand.
//!
//! It also holds the few primitives every other workspace crate shares,
//! because it is the one crate they can all depend on without a cycle:
//!
//! * [`Mutex`] — `std::sync::Mutex` with poisoning ignored.
//! * [`Rng`] — the one seeded generator (simulator noise and faults,
//!   backoff jitter, property inputs).
//! * [`json`] — the JSON value, parser and writers, with
//!   `#[derive(Json)]` for application things.
//! * [`check`] — the seeded property runner the test suites use.
//!
//! The crate depends on nothing outside the workspace (std, plus the
//! in-repo derive macro) and knows nothing about the middleware or the
//! simulator: identities are plain integers and strings, timestamps are
//! nanoseconds on whatever clock the caller uses. Higher layers own the
//! wiring.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use morena_obs::{EventKind, OpKind, Recorder, RingSink};
//!
//! let recorder = Recorder::new();
//! assert!(!recorder.is_enabled()); // off by default: one atomic check
//!
//! let ring = Arc::new(RingSink::new(1024));
//! recorder.install(ring.clone());
//!
//! let op = recorder.next_op_id();
//! recorder.emit(1_000, EventKind::OpEnqueued {
//!     op_id: op,
//!     loop_name: "tag-1".into(),
//!     phone: 0,
//!     target: "tag-1".into(),
//!     op: OpKind::Write,
//!     deadline_nanos: 10_000_000,
//! });
//! recorder.metrics().counter("ops.submitted").inc();
//!
//! let events = ring.snapshot();
//! assert_eq!(events.len(), 1);
//! assert_eq!(events[0].seq, 0);
//! assert_eq!(recorder.metrics().snapshot().counter("ops.submitted"), 1);
//! ```

// The crate is unsafe-free except for the opt-in tracking allocator
// (`profile`, behind the `alloc-profile` feature), whose `GlobalAlloc`
// impl is irreducibly unsafe. The default build keeps the hard forbid;
// the profiling build downgrades to `deny` so that one module can
// carry a scoped `allow` with its safety comment.
#![cfg_attr(not(feature = "alloc-profile"), forbid(unsafe_code))]
#![deny(unsafe_code)]
#![warn(missing_docs)]

// `#[derive(Json)]` expands to `::morena_obs::json` paths; this lets the
// crate derive for its own types too.
extern crate self as morena_obs;

pub mod check;
pub mod chrome;
pub mod correlate;
pub mod critical;
pub mod event;
pub mod expose;
pub mod flight;
pub mod inspect;
pub mod json;
pub mod metrics;
pub mod opstats;
pub mod profile;
pub mod recorder;
pub mod rng;
pub mod sink;
pub mod sync;
pub mod timeseries;
pub mod trace;

pub use chrome::{export_chrome_trace, ChromeTraceSink};
pub use correlate::{correlate, OpBreakdown};
pub use critical::{analyze_trace, analyze_traces, CostComponent, TraceAnalysis, TraceHop};
pub use event::{AttemptOutcome, EventKind, LeaseAction, ObsEvent, OpKind, OpOutcome, NO_OPCODE};
pub use expose::{render_openmetrics, ExpositionServer, OPENMETRICS_CONTENT_TYPE};
pub use flight::{install_panic_hook, FlightConfig, FlightRecorder};
pub use inspect::{
    render_top, render_top_with_series, ComponentSnapshot, Finding, Health, HealthReport,
    HealthTransition, Inspector, InspectorSnapshot, SnapshotProvider, Watchdog, WatchdogConfig,
};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use opstats::{OpStats, OpStatsSnapshot};
pub use profile::{AllocScope, AllocStats, MemFootprint};
pub use recorder::{Recorder, Span};
pub use rng::Rng;
pub use sink::{JsonlSink, NullSink, ObsSink, RingSink, TeeSink};
pub use sync::Mutex;
pub use timeseries::{sparkline, Sampler, SamplerConfig, SeriesRing, SeriesStore};
pub use trace::{SampleRate, TraceContext, TRACE_WIRE_LEN, TRACE_WIRE_VERSION};
