//! Live introspection: snapshot providers, the [`Inspector`] registry,
//! and the stall [`Watchdog`].
//!
//! `correlate` answers *what happened* after a run; this module answers
//! *what is happening now*. The middleware's characteristic failure mode
//! is not a crash but a silent stall — an op stuck at the head of a far
//! reference's FIFO, a scheduler shard that stopped polling, a retry
//! storm against a stuck tag — and none of those show up in an event
//! stream that simply stops flowing. So every live component registers a
//! cheap [`SnapshotProvider`] with the recorder's [`Inspector`]:
//!
//! * event loops report queue depth, the head (in-flight) op, its
//!   attempt count, and its age against its deadline;
//! * scheduler shards report poll liveness, run-queue length, and the
//!   number of loops they own;
//! * discovery reports live vs closed references in its identity map;
//! * lease managers report held leases and their expiries;
//! * the simulated `World` reports per-phone radio ground truth (tags
//!   and peers in range) plus the installed fault plan.
//!
//! Registration is by [`Weak`] pointer: a component that drops simply
//! disappears from the next snapshot; no deregistration calls, no
//! lifecycle coupling. Taking a snapshot is cheap enough to run from a
//! ~10 Hz poller thread while a swarm drains.
//!
//! The [`Watchdog`] turns one [`InspectorSnapshot`] into a
//! [`HealthReport`]: a ranked list of [`Finding`]s, each with the rule
//! that fired and the evidence behind it, rolled up into an overall
//! [`Health`]. [`render_top`] renders the same data as a
//! "morena-top" text table for terminals.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use morena_obs::inspect::{
//!     ComponentSnapshot, Health, Inspector, LoopSnapshot, SnapshotProvider, Watchdog,
//! };
//!
//! struct FakeLoop;
//! impl SnapshotProvider for FakeLoop {
//!     fn snapshot(&self, _now_nanos: u64) -> ComponentSnapshot {
//!         ComponentSnapshot::Loop(LoopSnapshot {
//!             name: "tag-1".into(),
//!             kind: "tag",
//!             phone: 0,
//!             target: "tag-1".into(),
//!             queue_depth: 0,
//!             connected: true,
//!             head: None,
//!             mem_bytes: 256,
//!             policy: Default::default(),
//!         })
//!     }
//! }
//!
//! let inspector = Inspector::new();
//! let fake = Arc::new(FakeLoop);
//! inspector.register("tag-1", Arc::downgrade(&fake) as _);
//!
//! let snapshot = inspector.snapshot(1_000_000);
//! assert_eq!(snapshot.components.len(), 1);
//! let report = Watchdog::default().evaluate(&snapshot);
//! assert_eq!(report.health, Health::Healthy);
//!
//! drop(fake); // dropped components vanish from the next snapshot
//! assert!(inspector.snapshot(2_000_000).components.is_empty());
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::sync::Weak;

use crate::json::ObjectWriter;
use crate::metrics::MetricsSnapshot;
use crate::metrics::{fmt_bytes, fmt_nanos};
use crate::sync::Mutex;
use crate::timeseries::SeriesStore;

/// A live component that can describe itself cheaply.
///
/// Implementations must be **non-blocking and cheap**: a provider may be
/// polled at ~10 Hz from a watchdog thread while the component is under
/// full load, so a snapshot should cost at most a few short mutex
/// acquisitions and atomic loads — never an I/O call, never a lock that
/// an in-flight operation holds across an exchange.
pub trait SnapshotProvider: Send + Sync {
    /// Describe the component's current state. `now_nanos` is the
    /// inspector's clock reading, on the same clock the component uses
    /// for its own timestamps.
    fn snapshot(&self, now_nanos: u64) -> ComponentSnapshot;
}

/// The head-of-queue (in-flight) operation of an event loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeadOp {
    /// Correlation id of the op (same id as its obs events).
    pub op_id: u64,
    /// Stable label of the op kind (`read`, `write`, …).
    pub op: &'static str,
    /// Nanoseconds since the op was enqueued.
    pub age_nanos: u64,
    /// Total time budget: deadline minus enqueue time.
    pub budget_nanos: u64,
    /// Attempts made at this op so far.
    pub attempts: u64,
}

/// The effective distribution policy of an event loop, as surfaced in
/// inspector snapshots: enough to tell *which* retry curve, deadline
/// budget, and coalescing mode a live loop is actually running under
/// (the core's `Policy` object is the source of truth; this is its
/// observable projection).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyInfo {
    /// Human label of the retry curve (e.g. `exp-jitter(10ms..320ms)`).
    pub backoff: String,
    /// Default deadline budget, in nanoseconds.
    pub timeout_nanos: u64,
    /// Whether queued same-region writes coalesce into one exchange.
    pub coalesce_writes: bool,
}

impl Default for PolicyInfo {
    fn default() -> PolicyInfo {
        PolicyInfo { backoff: "-".into(), timeout_nanos: 0, coalesce_writes: false }
    }
}

/// One event loop's live state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopSnapshot {
    /// Loop name (`tag-3`, `beamer`, `peer-phone-1`).
    pub name: String,
    /// Loop family: `tag`, `beam`, or `peer` (`test` in harnesses).
    pub kind: &'static str,
    /// Phone the loop belongs to.
    pub phone: u64,
    /// Target identity the loop operates against.
    pub target: String,
    /// Ops queued, including the head.
    pub queue_depth: usize,
    /// Whether the executor currently believes its target is reachable.
    pub connected: bool,
    /// The in-flight op, if any.
    pub head: Option<HeadOp>,
    /// Best-effort deep bytes held by the loop (struct, queue,
    /// payloads). See [`MemFootprint`](crate::profile::MemFootprint).
    pub mem_bytes: u64,
    /// The distribution policy the loop is running under.
    pub policy: PolicyInfo,
}

/// One scheduler shard's live state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Shard index within its scheduler.
    pub index: usize,
    /// Event loops assigned to this shard over its lifetime.
    pub loops_owned: u64,
    /// Loops currently in the shard's ready queue.
    pub run_queue: usize,
    /// Nanoseconds since the shard's worker last completed a poll pass
    /// (`None` before the first pass).
    pub since_poll_nanos: Option<u64>,
    /// Completion cores parked in the shard's freelist, ready for reuse
    /// by the next submits.
    pub pool_free: usize,
    /// Best-effort deep bytes held by the shard's own structures (the
    /// ready queue and core freelist) — not the loops it polls, which
    /// report themselves.
    pub mem_bytes: u64,
}

/// A discoverer's identity-map state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiscoverySnapshot {
    /// Phone the discoverer watches.
    pub phone: u64,
    /// MIME type the discoverer converts payloads as.
    pub mime: String,
    /// References in the map whose event loop is still running.
    pub live_refs: usize,
    /// Closed references awaiting their sweep.
    pub closed_refs: usize,
    /// Tags whose discovery pre-read is still running.
    pub prereads: usize,
    /// Best-effort deep bytes held by the identity map itself (the
    /// references' loops report their own bytes).
    pub mem_bytes: u64,
}

/// A lease manager's held leases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseSnapshot {
    /// Device name the manager leases as.
    pub device: String,
    /// Held leases as `(tag uid, expiry nanos)`.
    pub held: Vec<(String, u64)>,
    /// Best-effort deep bytes held by the ledger.
    pub mem_bytes: u64,
}

/// One phone's radio ground truth, as the simulator sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhonePresence {
    /// The phone's id.
    pub phone: u64,
    /// The phone's name.
    pub name: String,
    /// Tag uids in radio range.
    pub tags_in_range: Vec<String>,
    /// Peer phones in P2P range.
    pub peers_in_range: Vec<u64>,
}

/// The simulated world's ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldSnapshot {
    /// Every phone's presence view.
    pub phones: Vec<PhonePresence>,
    /// Installed fault plan as `(class label, rate)` pairs, empty when
    /// no plan is installed.
    pub fault_rates: Vec<(&'static str, f64)>,
    /// Faults injected so far (0 without a plan).
    pub faults_injected: u64,
}

/// What one [`SnapshotProvider`] reported.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ComponentSnapshot {
    /// An event loop.
    Loop(LoopSnapshot),
    /// A scheduler shard.
    Shard(ShardSnapshot),
    /// A discoverer identity map.
    Discovery(DiscoverySnapshot),
    /// A lease manager.
    Leases(LeaseSnapshot),
    /// The simulated world.
    World(WorldSnapshot),
}

/// One registered component's contribution to a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentEntry {
    /// The id the component registered under.
    pub id: String,
    /// Its reported state.
    pub state: ComponentSnapshot,
}

/// A point-in-time view of every live registered component.
#[derive(Debug, Clone, PartialEq)]
pub struct InspectorSnapshot {
    /// When the snapshot was taken, in clock nanoseconds.
    pub at_nanos: u64,
    /// One entry per live component, in registration order.
    pub components: Vec<ComponentEntry>,
}

impl InspectorSnapshot {
    /// All event-loop snapshots, in registration order.
    pub fn loops(&self) -> impl Iterator<Item = &LoopSnapshot> {
        self.components.iter().filter_map(|c| match &c.state {
            ComponentSnapshot::Loop(l) => Some(l),
            _ => None,
        })
    }

    /// All shard snapshots, in registration order.
    pub fn shards(&self) -> impl Iterator<Item = &ShardSnapshot> {
        self.components.iter().filter_map(|c| match &c.state {
            ComponentSnapshot::Shard(s) => Some(s),
            _ => None,
        })
    }

    /// Sum of every component's reported `mem_bytes` — the live
    /// best-effort footprint of the middleware structures (the
    /// simulated world's ground truth carries no byte figure).
    pub fn total_mem_bytes(&self) -> u64 {
        self.components
            .iter()
            .map(|c| match &c.state {
                ComponentSnapshot::Loop(l) => l.mem_bytes,
                ComponentSnapshot::Shard(s) => s.mem_bytes,
                ComponentSnapshot::Discovery(d) => d.mem_bytes,
                ComponentSnapshot::Leases(l) => l.mem_bytes,
                ComponentSnapshot::World(_) => 0,
            })
            .sum()
    }
}

/// Registry of live components, held by the recorder.
///
/// Components register a [`Weak`] provider under a human-readable id;
/// dead weaks are pruned on every snapshot, so dropping a component is
/// all the deregistration there is.
#[derive(Default)]
pub struct Inspector {
    providers: Mutex<Vec<(String, Weak<dyn SnapshotProvider>)>>,
}

impl fmt::Debug for Inspector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let count = self.providers.lock().len();
        f.debug_struct("Inspector").field("registered", &count).finish()
    }
}

impl Inspector {
    /// Creates an empty registry.
    pub fn new() -> Inspector {
        Inspector::default()
    }

    /// Registers a component under `id`. The registry keeps only a weak
    /// pointer; the component vanishes from snapshots when dropped.
    pub fn register(&self, id: impl Into<String>, provider: Weak<dyn SnapshotProvider>) {
        let mut providers = self.providers.lock();
        providers.push((id.into(), provider));
    }

    /// Number of currently live registered components.
    pub fn registered(&self) -> usize {
        let mut providers = self.providers.lock();
        providers.retain(|(_, weak)| weak.strong_count() > 0);
        providers.len()
    }

    /// Snapshots every live component, pruning dropped ones.
    ///
    /// Providers are polled outside the registry lock so a slow provider
    /// cannot block concurrent registrations.
    pub fn snapshot(&self, now_nanos: u64) -> InspectorSnapshot {
        let live: Vec<(String, std::sync::Arc<dyn SnapshotProvider>)> = {
            let mut providers = self.providers.lock();
            providers.retain(|(_, weak)| weak.strong_count() > 0);
            providers
                .iter()
                .filter_map(|(id, weak)| weak.upgrade().map(|p| (id.clone(), p)))
                .collect()
        };
        let components = live
            .into_iter()
            .map(|(id, provider)| ComponentEntry { id, state: provider.snapshot(now_nanos) })
            .collect();
        InspectorSnapshot { at_nanos: now_nanos, components }
    }
}

/// Overall (or per-finding) health classification, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Health {
    /// No rule fired.
    Healthy,
    /// Something needs attention but progress is still plausible.
    Degraded,
    /// A liveness rule fired: something has stopped making progress.
    Stalled,
}

impl Health {
    /// Stable lower-case label (`healthy` / `degraded` / `stalled`).
    pub fn label(self) -> &'static str {
        match self {
            Health::Healthy => "healthy",
            Health::Degraded => "degraded",
            Health::Stalled => "stalled",
        }
    }
}

/// One watchdog rule firing, with its evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Severity this finding contributes to the report.
    pub health: Health,
    /// Stable rule name (`head_op_stall`, `shard_starvation`,
    /// `retry_storm`, `sink_drops`).
    pub rule: &'static str,
    /// Id of the component the rule fired on.
    pub component: String,
    /// Human-readable evidence.
    pub evidence: String,
}

/// Thresholds for the watchdog's stall rules.
///
/// The defaults are calibrated to the event loop's own timeout
/// machinery: a healthy loop times an op out *at* its deadline, so an op
/// older than `stall_factor`× its budget means the timeout path itself
/// is broken — that is [`Health::Stalled`], not merely slow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogConfig {
    /// Head-op age beyond this multiple of its budget ⇒ `Stalled`.
    pub stall_factor: f64,
    /// Head-op age beyond this fraction of its budget ⇒ `Degraded`.
    pub degrade_fraction: f64,
    /// Head-op attempts at or beyond this ⇒ `Degraded` (retry storm).
    pub retry_storm_attempts: u64,
    /// A shard with runnable work but no poll pass within this window ⇒
    /// `Stalled`.
    pub shard_stall_nanos: u64,
    /// `obs.sink.dropped` beyond this ⇒ `Degraded`.
    pub sink_drop_threshold: u64,
}

impl Default for WatchdogConfig {
    fn default() -> WatchdogConfig {
        WatchdogConfig {
            stall_factor: 2.0,
            degrade_fraction: 0.75,
            retry_storm_attempts: 8,
            shard_stall_nanos: 1_000_000_000, // 1 s
            sink_drop_threshold: 0,
        }
    }
}

/// One observed change of overall health, with its timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthTransition {
    /// When the transition was observed (the snapshot's timestamp).
    pub at_nanos: u64,
    /// Health before.
    pub from: Health,
    /// Health after.
    pub to: Health,
}

/// Health verdicts retained per watchdog (transitions only, so a
/// steady state costs one entry).
const HEALTH_HISTORY_CAP: usize = 256;

#[derive(Debug, Clone, Default)]
struct WatchdogState {
    last_health: Option<Health>,
    degraded_since_nanos: Option<u64>,
    last_transition: Option<HealthTransition>,
    history: VecDeque<(u64, Health)>,
}

/// Evaluates snapshots against the stall rules.
///
/// The watchdog is stateful across evaluations: it remembers the last
/// verdict, keeps a bounded history of health *transitions*, and tracks
/// when the current spell of degradation began
/// ([`HealthReport::degraded_since_nanos`]) — an instantaneous verdict
/// says a loop is stuck, the transition timestamp says since when.
#[derive(Debug, Default)]
pub struct Watchdog {
    config: WatchdogConfig,
    state: Mutex<WatchdogState>,
}

impl Clone for Watchdog {
    /// Clones thresholds *and* the accumulated health history.
    fn clone(&self) -> Watchdog {
        Watchdog { config: self.config, state: Mutex::new(self.state.lock().clone()) }
    }
}

impl Watchdog {
    /// A watchdog with explicit thresholds.
    pub fn with_config(config: WatchdogConfig) -> Watchdog {
        Watchdog { config, state: Mutex::new(WatchdogState::default()) }
    }

    /// The active thresholds.
    pub fn config(&self) -> &WatchdogConfig {
        &self.config
    }

    /// Health transitions observed so far, oldest first (bounded; the
    /// first entry is the initial verdict).
    pub fn health_history(&self) -> Vec<(u64, Health)> {
        self.state.lock().history.iter().copied().collect()
    }

    /// The most recent change of overall health, if any happened yet.
    pub fn last_transition(&self) -> Option<HealthTransition> {
        self.state.lock().last_transition
    }

    /// Evaluates one snapshot (no metrics — the sink-drop rule is
    /// skipped).
    pub fn evaluate(&self, snapshot: &InspectorSnapshot) -> HealthReport {
        self.evaluate_inner(snapshot, None)
    }

    /// Evaluates one snapshot plus a metrics snapshot, enabling the
    /// sink-drop rule against the `obs.sink.dropped` counter.
    pub fn evaluate_with_metrics(
        &self,
        snapshot: &InspectorSnapshot,
        metrics: &MetricsSnapshot,
    ) -> HealthReport {
        self.evaluate_inner(snapshot, Some(metrics))
    }

    fn evaluate_inner(
        &self,
        snapshot: &InspectorSnapshot,
        metrics: Option<&MetricsSnapshot>,
    ) -> HealthReport {
        let cfg = &self.config;
        let mut findings = Vec::new();

        for entry in &snapshot.components {
            match &entry.state {
                ComponentSnapshot::Loop(l) => {
                    if let Some(head) = &l.head {
                        // Rule 1: head-op stall. A healthy loop times the
                        // head op out at its deadline; outliving the
                        // budget by `stall_factor` means the loop itself
                        // stopped turning.
                        let budget = head.budget_nanos.max(1) as f64;
                        let age = head.age_nanos as f64;
                        if age > cfg.stall_factor * budget {
                            findings.push(Finding {
                                health: Health::Stalled,
                                rule: "head_op_stall",
                                component: entry.id.clone(),
                                evidence: format!(
                                    "op #{} ({}) age {} exceeds {:.1}x its {} budget \
                                     ({} attempts, queue {})",
                                    head.op_id,
                                    head.op,
                                    fmt_nanos(head.age_nanos),
                                    cfg.stall_factor,
                                    fmt_nanos(head.budget_nanos),
                                    head.attempts,
                                    l.queue_depth,
                                ),
                            });
                        } else if age > cfg.degrade_fraction * budget {
                            findings.push(Finding {
                                health: Health::Degraded,
                                rule: "head_op_stall",
                                component: entry.id.clone(),
                                evidence: format!(
                                    "op #{} ({}) has burned {} of its {} budget \
                                     ({} attempts, connected: {})",
                                    head.op_id,
                                    head.op,
                                    fmt_nanos(head.age_nanos),
                                    fmt_nanos(head.budget_nanos),
                                    head.attempts,
                                    l.connected,
                                ),
                            });
                        }
                        // Rule 3: retry storm. Many attempts with the
                        // target nominally reachable means the exchanges
                        // themselves keep failing (e.g. a stuck tag).
                        if head.attempts >= cfg.retry_storm_attempts {
                            findings.push(Finding {
                                health: Health::Degraded,
                                rule: "retry_storm",
                                component: entry.id.clone(),
                                evidence: format!(
                                    "op #{} ({}) on {} attempts (threshold {}), \
                                     target connected: {}",
                                    head.op_id,
                                    head.op,
                                    head.attempts,
                                    cfg.retry_storm_attempts,
                                    l.connected,
                                ),
                            });
                        }
                    }
                }
                ComponentSnapshot::Shard(s) => {
                    // Rule 2: shard poll starvation. The worker only
                    // parks with an empty ready queue, so runnable work
                    // plus a stale poll stamp means the worker is gone
                    // or wedged.
                    if let (1.., Some(since)) = (s.run_queue, s.since_poll_nanos) {
                        if since > cfg.shard_stall_nanos {
                            findings.push(Finding {
                                health: Health::Stalled,
                                rule: "shard_starvation",
                                component: entry.id.clone(),
                                evidence: format!(
                                    "{} runnable loop(s) but no poll pass for {} \
                                     (threshold {})",
                                    s.run_queue,
                                    fmt_nanos(since),
                                    fmt_nanos(cfg.shard_stall_nanos),
                                ),
                            });
                        }
                    }
                }
                _ => {}
            }
        }

        // Rule 4: sink drops. Overflowing the ring means the analysis
        // surface itself is losing data.
        if let Some(metrics) = metrics {
            let dropped = metrics.counter("obs.sink.dropped");
            if dropped > cfg.sink_drop_threshold {
                findings.push(Finding {
                    health: Health::Degraded,
                    rule: "sink_drops",
                    component: "obs.sink".to_string(),
                    evidence: format!(
                        "{dropped} event(s) dropped by a full sink (threshold {})",
                        cfg.sink_drop_threshold
                    ),
                });
            }
        }

        findings.sort_by_key(|f| std::cmp::Reverse(f.health));
        let health = findings.iter().map(|f| f.health).max().unwrap_or(Health::Healthy);
        let degraded_since_nanos = self.note_verdict(snapshot.at_nanos, health);
        HealthReport {
            at_nanos: snapshot.at_nanos,
            health,
            findings,
            total_mem_bytes: snapshot.total_mem_bytes(),
            degraded_since_nanos,
        }
    }

    /// Fold one verdict into the transition history; returns when the
    /// current degradation spell began (`None` while healthy). Entering
    /// `Degraded`/`Stalled` from `Healthy` starts the spell; moving
    /// between the two non-healthy states keeps the original start, so
    /// the report answers "how long has this been wrong", not "how long
    /// at this exact severity".
    fn note_verdict(&self, at_nanos: u64, health: Health) -> Option<u64> {
        let mut state = self.state.lock();
        if state.last_health != Some(health) {
            if let Some(from) = state.last_health {
                state.last_transition = Some(HealthTransition { at_nanos, from, to: health });
            }
            if state.history.len() == HEALTH_HISTORY_CAP {
                state.history.pop_front();
            }
            state.history.push_back((at_nanos, health));
            match health {
                Health::Healthy => state.degraded_since_nanos = None,
                Health::Degraded | Health::Stalled => {
                    if state.degraded_since_nanos.is_none() {
                        state.degraded_since_nanos = Some(at_nanos);
                    }
                }
            }
            state.last_health = Some(health);
        }
        state.degraded_since_nanos
    }
}

/// The watchdog's verdict on one snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// When the underlying snapshot was taken.
    pub at_nanos: u64,
    /// Worst severity across findings (`Healthy` when none fired).
    pub health: Health,
    /// Every rule firing, most severe first.
    pub findings: Vec<Finding>,
    /// Total best-effort middleware footprint at snapshot time (see
    /// [`InspectorSnapshot::total_mem_bytes`]).
    pub total_mem_bytes: u64,
    /// When the current spell of non-`Healthy` verdicts began, from the
    /// evaluating watchdog's transition history. `None` while healthy
    /// (or when the report was built by a fresh watchdog that has only
    /// ever seen this snapshot — then it equals `at_nanos`).
    pub degraded_since_nanos: Option<u64>,
}

impl HealthReport {
    /// Render as a flat JSON object (for artifacts and dashboards).
    /// `degraded_since_ns` is present only while non-healthy.
    pub fn to_json(&self) -> String {
        let mut findings = String::from("[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                findings.push(',');
            }
            let mut w = ObjectWriter::new();
            w.str("health", f.health.label())
                .str("rule", f.rule)
                .str("component", &f.component)
                .str("evidence", &f.evidence);
            findings.push_str(&w.finish());
        }
        findings.push(']');
        let mut w = ObjectWriter::new();
        w.u64("at_ns", self.at_nanos)
            .str("health", self.health.label())
            .u64("finding_count", self.findings.len() as u64)
            .u64("mem_bytes", self.total_mem_bytes);
        if let Some(since) = self.degraded_since_nanos {
            w.u64("degraded_since_ns", since);
        }
        w.raw("findings", &findings);
        w.finish()
    }
}

fn pad(out: &mut String, text: &str, width: usize) {
    out.push_str(text);
    for _ in text.chars().count()..width {
        out.push(' ');
    }
    out.push_str("  ");
}

/// Width of the sparkline columns rendered by
/// [`render_top_with_series`].
const SPARK_WIDTH: usize = 12;

/// Render a snapshot plus its health report as a "morena-top" text
/// table: one header line, one line per event loop (the busiest
/// components), shard/world summaries, and the findings.
pub fn render_top(snapshot: &InspectorSnapshot, report: &HealthReport) -> String {
    render_top_inner(snapshot, report, None)
}

/// [`render_top`] with history from a sampler's
/// [`crate::timeseries::SeriesStore`]: the loop table
/// gains a `TREND` sparkline column (each loop's recent queue depth),
/// and the non-loop series are listed with sparklines and latest
/// values below the component summaries.
pub fn render_top_with_series(
    snapshot: &InspectorSnapshot,
    report: &HealthReport,
    series: &SeriesStore,
) -> String {
    render_top_inner(snapshot, report, Some(series))
}

fn render_top_inner(
    snapshot: &InspectorSnapshot,
    report: &HealthReport,
    series: Option<&SeriesStore>,
) -> String {
    let mut out = String::new();
    let since = match (report.health, report.degraded_since_nanos) {
        (Health::Healthy, _) | (_, None) => String::new(),
        (_, Some(since)) => {
            format!(" (degraded for {})", fmt_nanos(snapshot.at_nanos.saturating_sub(since)))
        }
    };
    out.push_str(&format!(
        "morena-top @ {}  health: {}{}  mem: {}\n",
        fmt_nanos(snapshot.at_nanos),
        report.health.label().to_uppercase(),
        since,
        fmt_bytes(snapshot.total_mem_bytes()),
    ));

    let loops: Vec<&LoopSnapshot> = snapshot.loops().collect();
    if !loops.is_empty() {
        let mut header = vec![
            "LOOP",
            "KIND",
            "CONN",
            "QUEUE",
            "MEM",
            "HEAD OP",
            "AGE/BUDGET",
            "TRIES",
            "POLICY",
        ];
        if series.is_some() {
            header.push("TREND");
        }
        let mut rows: Vec<Vec<String>> = Vec::with_capacity(loops.len());
        for l in &loops {
            let (head_op, age, tries) = match &l.head {
                Some(h) => (
                    format!("#{} {}", h.op_id, h.op),
                    format!("{}/{}", fmt_nanos(h.age_nanos), fmt_nanos(h.budget_nanos)),
                    h.attempts.to_string(),
                ),
                None => ("-".into(), "-".into(), "-".into()),
            };
            let mut row = vec![
                l.name.clone(),
                l.kind.to_string(),
                if l.connected { "yes".into() } else { "no".into() },
                l.queue_depth.to_string(),
                fmt_bytes(l.mem_bytes),
                head_op,
                age,
                tries,
                if l.policy.coalesce_writes {
                    format!("{} +coalesce", l.policy.backoff)
                } else {
                    l.policy.backoff.clone()
                },
            ];
            if let Some(series) = series {
                row.push(series.sparkline(&format!("loop.{}.queue", l.name), SPARK_WIDTH));
            }
            rows.push(row);
        }
        let mut widths: Vec<usize> = header.iter().map(|h| h.chars().count()).collect();
        for row in &rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        for (i, h) in header.iter().enumerate() {
            pad(&mut out, h, widths[i]);
        }
        out.push('\n');
        for row in &rows {
            for (i, cell) in row.iter().enumerate() {
                pad(&mut out, cell, widths[i]);
            }
            out.push('\n');
        }
    }

    for entry in &snapshot.components {
        match &entry.state {
            ComponentSnapshot::Shard(s) => {
                let since = match s.since_poll_nanos {
                    Some(n) => fmt_nanos(n),
                    None => "never".into(),
                };
                out.push_str(&format!(
                    "shard {}: owned {}, runnable {}, last poll {} ago, pool {}, mem {}\n",
                    s.index,
                    s.loops_owned,
                    s.run_queue,
                    since,
                    s.pool_free,
                    fmt_bytes(s.mem_bytes)
                ));
            }
            ComponentSnapshot::Discovery(d) => {
                out.push_str(&format!(
                    "discovery phone-{} ({}): {} live, {} closed, {} reading, mem {}\n",
                    d.phone,
                    d.mime,
                    d.live_refs,
                    d.closed_refs,
                    d.prereads,
                    fmt_bytes(d.mem_bytes)
                ));
            }
            ComponentSnapshot::Leases(l) => {
                out.push_str(&format!("leases {}: {} held\n", l.device, l.held.len()));
            }
            ComponentSnapshot::World(w) => {
                let faults = if w.fault_rates.is_empty() {
                    "no fault plan".to_string()
                } else {
                    let rates: Vec<String> = w
                        .fault_rates
                        .iter()
                        .map(|(label, rate)| format!("{label}={rate:.2}"))
                        .collect();
                    format!("faults [{}] injected {}", rates.join(" "), w.faults_injected)
                };
                let presence: Vec<String> = w
                    .phones
                    .iter()
                    .map(|p| {
                        format!(
                            "{}: {} tag(s), {} peer(s)",
                            p.name,
                            p.tags_in_range.len(),
                            p.peers_in_range.len()
                        )
                    })
                    .collect();
                out.push_str(&format!("world: {} | {}\n", presence.join("; "), faults));
            }
            ComponentSnapshot::Loop(_) => {}
        }
    }

    if let Some(series) = series {
        for name in series.names() {
            // Per-loop queue history already rendered as the TREND
            // column; everything else (counter rates, gauges,
            // aggregates) gets a line here.
            if name.starts_with("loop.") {
                continue;
            }
            let spark = series.sparkline(&name, SPARK_WIDTH * 2);
            let latest = series.latest(&name).unwrap_or(0.0);
            out.push_str(&format!("series {name:<32} {spark:<24} latest {latest:.1}\n"));
        }
    }

    if report.findings.is_empty() {
        out.push_str("no findings\n");
    } else {
        for f in &report.findings {
            out.push_str(&format!(
                "[{}] {} on {}: {}\n",
                f.health.label().to_uppercase(),
                f.rule,
                f.component,
                f.evidence
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::metrics::MetricsRegistry;

    struct FixedLoop(LoopSnapshot);
    impl SnapshotProvider for FixedLoop {
        fn snapshot(&self, _now: u64) -> ComponentSnapshot {
            ComponentSnapshot::Loop(self.0.clone())
        }
    }

    fn idle_loop(name: &str) -> LoopSnapshot {
        LoopSnapshot {
            name: name.into(),
            kind: "tag",
            phone: 0,
            target: name.into(),
            queue_depth: 0,
            connected: true,
            head: None,
            mem_bytes: 512,
            policy: PolicyInfo {
                backoff: "exp-jitter(10ms..320ms)".into(),
                timeout_nanos: 10_000_000_000,
                coalesce_writes: false,
            },
        }
    }

    fn busy_loop(name: &str, age: u64, budget: u64, attempts: u64) -> LoopSnapshot {
        LoopSnapshot {
            head: Some(HeadOp {
                op_id: 7,
                op: "write",
                age_nanos: age,
                budget_nanos: budget,
                attempts,
            }),
            queue_depth: 3,
            ..idle_loop(name)
        }
    }

    #[test]
    fn dead_providers_are_pruned() {
        let inspector = Inspector::new();
        let live = Arc::new(FixedLoop(idle_loop("tag-1")));
        let doomed = Arc::new(FixedLoop(idle_loop("tag-2")));
        inspector.register("tag-1", Arc::downgrade(&live) as _);
        inspector.register("tag-2", Arc::downgrade(&doomed) as _);
        assert_eq!(inspector.registered(), 2);
        drop(doomed);
        let snapshot = inspector.snapshot(5);
        assert_eq!(snapshot.at_nanos, 5);
        assert_eq!(snapshot.components.len(), 1);
        assert_eq!(snapshot.components[0].id, "tag-1");
        assert_eq!(inspector.registered(), 1);
    }

    #[test]
    fn healthy_snapshot_reports_healthy() {
        let inspector = Inspector::new();
        let l = Arc::new(FixedLoop(idle_loop("tag-1")));
        inspector.register("tag-1", Arc::downgrade(&l) as _);
        let report = Watchdog::default().evaluate(&inspector.snapshot(0));
        assert_eq!(report.health, Health::Healthy);
        assert!(report.findings.is_empty());
        assert!(render_top(&inspector.snapshot(0), &report).contains("no findings"));
    }

    #[test]
    fn head_op_past_budget_degrades_then_stalls() {
        let watchdog = Watchdog::default();
        // 80% of budget burned: degraded.
        let snap = InspectorSnapshot {
            at_nanos: 0,
            components: vec![ComponentEntry {
                id: "tag-1".into(),
                state: ComponentSnapshot::Loop(busy_loop("tag-1", 800, 1_000, 2)),
            }],
        };
        let report = watchdog.evaluate(&snap);
        assert_eq!(report.health, Health::Degraded);
        assert_eq!(report.findings[0].rule, "head_op_stall");
        assert_eq!(report.findings[0].component, "tag-1");

        // 3x budget: the timeout machinery itself is broken — stalled.
        let snap = InspectorSnapshot {
            at_nanos: 0,
            components: vec![ComponentEntry {
                id: "tag-1".into(),
                state: ComponentSnapshot::Loop(busy_loop("tag-1", 3_000, 1_000, 2)),
            }],
        };
        let report = watchdog.evaluate(&snap);
        assert_eq!(report.health, Health::Stalled);
        assert!(report.findings[0].evidence.contains("op #7"));
    }

    #[test]
    fn retry_storm_fires_on_attempt_count() {
        let snap = InspectorSnapshot {
            at_nanos: 0,
            components: vec![ComponentEntry {
                id: "tag-9".into(),
                state: ComponentSnapshot::Loop(busy_loop("tag-9", 100, 1_000_000, 9)),
            }],
        };
        let report = Watchdog::default().evaluate(&snap);
        assert_eq!(report.health, Health::Degraded);
        assert_eq!(report.findings[0].rule, "retry_storm");
    }

    #[test]
    fn shard_with_runnable_work_and_stale_poll_is_stalled() {
        let fine = ShardSnapshot {
            index: 0,
            loops_owned: 4,
            run_queue: 2,
            since_poll_nanos: Some(10_000),
            pool_free: 0,
            mem_bytes: 0,
        };
        let wedged = ShardSnapshot {
            index: 1,
            loops_owned: 4,
            run_queue: 1,
            since_poll_nanos: Some(5_000_000_000),
            pool_free: 0,
            mem_bytes: 0,
        };
        let idle = ShardSnapshot {
            index: 2,
            loops_owned: 0,
            run_queue: 0,
            since_poll_nanos: None,
            pool_free: 0,
            mem_bytes: 0,
        };
        let snap = InspectorSnapshot {
            at_nanos: 0,
            components: [fine, wedged, idle]
                .into_iter()
                .map(|s| ComponentEntry {
                    id: format!("shard-{}", s.index),
                    state: ComponentSnapshot::Shard(s),
                })
                .collect(),
        };
        let report = Watchdog::default().evaluate(&snap);
        assert_eq!(report.health, Health::Stalled);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].component, "shard-1");
        assert_eq!(report.findings[0].rule, "shard_starvation");
    }

    #[test]
    fn sink_drop_rule_reads_the_metrics_counter() {
        let registry = MetricsRegistry::new();
        registry.counter("obs.sink.dropped").add(12);
        let snap = InspectorSnapshot { at_nanos: 0, components: Vec::new() };
        let watchdog = Watchdog::default();
        let report = watchdog.evaluate_with_metrics(&snap, &registry.snapshot());
        assert_eq!(report.health, Health::Degraded);
        assert_eq!(report.findings[0].rule, "sink_drops");
        // Without metrics the rule is skipped.
        assert_eq!(watchdog.evaluate(&snap).health, Health::Healthy);
    }

    #[test]
    fn findings_sort_most_severe_first_and_roll_up() {
        let snap = InspectorSnapshot {
            at_nanos: 0,
            components: vec![
                ComponentEntry {
                    id: "tag-storm".into(),
                    state: ComponentSnapshot::Loop(busy_loop("tag-storm", 100, 1_000_000, 20)),
                },
                ComponentEntry {
                    id: "tag-dead".into(),
                    state: ComponentSnapshot::Loop(busy_loop("tag-dead", 9_000, 1_000, 1)),
                },
            ],
        };
        let report = Watchdog::default().evaluate(&snap);
        assert_eq!(report.health, Health::Stalled);
        assert_eq!(report.findings[0].health, Health::Stalled);
        assert_eq!(report.findings[0].component, "tag-dead");
        assert!(report.findings.iter().any(|f| f.component == "tag-storm"));
    }

    #[test]
    fn report_json_is_flat_and_labelled() {
        let snap = InspectorSnapshot {
            at_nanos: 42,
            components: vec![ComponentEntry {
                id: "tag-1".into(),
                state: ComponentSnapshot::Loop(busy_loop("tag-1", 9_000, 1_000, 1)),
            }],
        };
        let json = Watchdog::default().evaluate(&snap).to_json();
        assert!(json.starts_with("{\"at_ns\":42,\"health\":\"stalled\""));
        assert!(json.contains("\"rule\":\"head_op_stall\""));
        assert!(json.ends_with('}'));
    }

    #[test]
    fn total_mem_rolls_up_across_component_kinds() {
        let snap = InspectorSnapshot {
            at_nanos: 0,
            components: vec![
                ComponentEntry {
                    id: "tag-1".into(),
                    state: ComponentSnapshot::Loop(idle_loop("tag-1")), // 512
                },
                ComponentEntry {
                    id: "shard-0".into(),
                    state: ComponentSnapshot::Shard(ShardSnapshot {
                        index: 0,
                        loops_owned: 1,
                        run_queue: 0,
                        since_poll_nanos: None,
                        pool_free: 0,
                        mem_bytes: 128,
                    }),
                },
                ComponentEntry {
                    id: "disco".into(),
                    state: ComponentSnapshot::Discovery(DiscoverySnapshot {
                        phone: 0,
                        mime: "text/plain".into(),
                        live_refs: 1,
                        closed_refs: 0,
                        prereads: 0,
                        mem_bytes: 64,
                    }),
                },
            ],
        };
        assert_eq!(snap.total_mem_bytes(), 512 + 128 + 64);
        let report = Watchdog::default().evaluate(&snap);
        assert_eq!(report.total_mem_bytes, 704);
        assert!(report.to_json().contains("\"mem_bytes\":704"));
        assert!(render_top(&snap, &report).contains("mem:"));
    }

    fn snap_at(at_nanos: u64, l: LoopSnapshot) -> InspectorSnapshot {
        InspectorSnapshot {
            at_nanos,
            components: vec![ComponentEntry {
                id: l.name.clone(),
                state: ComponentSnapshot::Loop(l),
            }],
        }
    }

    #[test]
    fn watchdog_tracks_degradation_onset_across_evaluations() {
        let watchdog = Watchdog::default();

        let report = watchdog.evaluate(&snap_at(10, idle_loop("tag-1")));
        assert_eq!(report.degraded_since_nanos, None);

        // Healthy → Degraded at t=20: the spell starts here...
        let report = watchdog.evaluate(&snap_at(20, busy_loop("tag-1", 800, 1_000, 2)));
        assert_eq!(report.health, Health::Degraded);
        assert_eq!(report.degraded_since_nanos, Some(20));

        // ...and escalating to Stalled keeps the original onset.
        let report = watchdog.evaluate(&snap_at(30, busy_loop("tag-1", 9_000, 1_000, 2)));
        assert_eq!(report.health, Health::Stalled);
        assert_eq!(report.degraded_since_nanos, Some(20));
        assert!(report.to_json().contains("\"degraded_since_ns\":20"));
        let transition = watchdog.last_transition().unwrap();
        assert_eq!(
            (transition.at_nanos, transition.from, transition.to),
            (30, Health::Degraded, Health::Stalled)
        );

        // Recovery clears the spell; the JSON drops the field.
        let report = watchdog.evaluate(&snap_at(40, idle_loop("tag-1")));
        assert_eq!(report.degraded_since_nanos, None);
        assert!(!report.to_json().contains("degraded_since_ns"));

        assert_eq!(
            watchdog.health_history(),
            vec![
                (10, Health::Healthy),
                (20, Health::Degraded),
                (30, Health::Stalled),
                (40, Health::Healthy)
            ]
        );
    }

    #[test]
    fn render_top_shows_degradation_duration() {
        let watchdog = Watchdog::default();
        watchdog.evaluate(&snap_at(1_000_000_000, busy_loop("tag-1", 800, 1_000, 2)));
        let snap = snap_at(3_000_000_000, busy_loop("tag-1", 900, 1_000, 2));
        let report = watchdog.evaluate(&snap);
        let top = render_top(&snap, &report);
        assert!(top.contains("(degraded for 2.00s)"), "got: {top}");
    }

    #[test]
    fn render_top_with_series_adds_trend_column_and_series_lines() {
        let store = SeriesStore::new(16);
        for t in 0..8u64 {
            store.record("loop.tag-1.queue", t * 1_000, t as f64);
            store.record("ops.test", t * 1_000, 5.0 + t as f64);
        }
        let snap = snap_at(8_000, idle_loop("tag-1"));
        let report = Watchdog::default().evaluate(&snap);
        let top = render_top_with_series(&snap, &report, &store);
        assert!(top.contains("TREND"), "got: {top}");
        assert!(top.contains('█'), "queue sparkline missing: {top}");
        assert!(top.contains("series ops.test"), "got: {top}");
        assert!(top.contains("latest 12.0"), "got: {top}");
        // Per-loop series render only in the TREND column, not as lines.
        assert!(!top.contains("series loop.tag-1.queue"), "got: {top}");
        // The plain renderer is unchanged by history existing.
        assert!(!render_top(&snap, &report).contains("TREND"));
    }

    #[test]
    fn render_top_tabulates_loops() {
        let snap = InspectorSnapshot {
            at_nanos: 1_000_000,
            components: vec![
                ComponentEntry {
                    id: "tag-1".into(),
                    state: ComponentSnapshot::Loop(busy_loop("tag-1", 500, 1_000_000, 3)),
                },
                ComponentEntry {
                    id: "world".into(),
                    state: ComponentSnapshot::World(WorldSnapshot {
                        phones: vec![PhonePresence {
                            phone: 0,
                            name: "phone-0".into(),
                            tags_in_range: vec!["tag-1".into()],
                            peers_in_range: Vec::new(),
                        }],
                        fault_rates: vec![("stuck_tag", 0.25)],
                        faults_injected: 4,
                    }),
                },
            ],
        };
        let report = Watchdog::default().evaluate(&snap);
        let top = render_top(&snap, &report);
        assert!(top.contains("HEAD OP"));
        assert!(top.contains("tag-1"));
        assert!(top.contains("stuck_tag=0.25"));
        assert!(top.contains("health: HEALTHY"));
    }
}
