//! The declarative distribution-policy layer (RAFDA's thesis applied to
//! MORENA): every tuning knob that is *distribution policy* rather than
//! application logic — retry cadence, deadline budgets, per-operation
//! timeouts, cache staleness, lease durations, discovery cadence, and
//! write coalescing — lifted out of the core's hardcoded constants into
//! one runtime-configurable [`Policy`] object.
//!
//! A policy can be set at three altitudes, most specific wins:
//!
//! * **per context** — [`MorenaContext::set_default_policy`](crate::context::MorenaContext::set_default_policy)
//!   (`crate::context::MorenaContext::set_default_policy`) changes the
//!   default every subsequently created reference/discoverer/beamer
//!   inherits;
//! * **per discoverer** — [`TagDiscoverer::with_policy`](crate::discovery::TagDiscoverer::with_policy)
//!   (`crate::discovery::TagDiscoverer::with_policy`) fixes the policy
//!   for every reference that discoverer mints;
//! * **per reference** — [`TagReference::with_policy`](crate::tagref::TagReference::with_policy)
//!   (`crate::tagref::TagReference::with_policy`) pins one reference.
//!
//! # Backoff curves and the synchronized-retry storm
//!
//! The seed implementation retried every transiently failed operation on
//! a constant 25 ms cadence. In a swarm, one shared fault (an RF drop
//! hitting many loops in the same exchange window) then produces
//! *lock-step* retries: every loop re-attempts at exactly the same
//! instants, the link sees periodic load spikes, and the watchdog's
//! `retry_storm` rule fires on the middleware's own behavior. The
//! default [`Backoff`] is therefore **exponential with jitter**: delays
//! double per consecutive transient failure and each loop draws its own
//! jittered delay from a per-loop deterministic RNG, so recovering loops
//! spread out instead of marching in phase. The constant curve survives
//! as an explicit opt-in, and [`Backoff::DecorrelatedJitter`] implements
//! the AWS "decorrelated jitter" curve for long-tailed contention.
//!
//! # Write coalescing
//!
//! §4 of the paper claims batching "comes for free" because writes queue
//! while the tag is away. Queuing alone only batches *user effort* (one
//! tap flushes everything); the radio still performs one full exchange
//! per queued write. With [`Policy::coalesce_writes`] enabled, queued
//! writes to the same tag region (in this codec, every NDEF write
//! replaces the whole message — one region per tag) collapse at flush
//! time into a single exchange carrying the *last* write's bytes. Every
//! coalesced operation still completes exactly once, in FIFO order, and
//! the final tag content is byte-identical to what the uncoalesced
//! sequence would have left behind. The savings surface as the
//! `coalesce.saved_exchanges` counter.

use std::time::Duration;

use morena_obs::inspect::PolicyInfo;
use morena_obs::{OpKind, Rng};

pub use morena_obs::SampleRate;

/// How long a loop waits before re-attempting a transiently failed
/// operation (the party is reachable but exchanges keep failing — a
/// connectivity change always re-arms the attempt immediately,
/// regardless of the curve).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Backoff {
    /// The same pause after every failure. This is the seed behavior —
    /// and the synchronized-retry-storm bug when many loops share a
    /// fault; prefer a jittered curve for anything beyond a single
    /// reference.
    Constant(Duration),
    /// Exponential with equal jitter: the cap doubles per consecutive
    /// failure (`base`, `2·base`, `4·base`, … up to `max`) and the
    /// actual delay is drawn uniformly from `[cap/2, cap]`, so no two
    /// loops recovering from one shared fault retry in phase. This is
    /// the default curve.
    Exponential {
        /// First-failure cap (and the floor of every delay's cap).
        base: Duration,
        /// Ceiling the cap saturates at.
        max: Duration,
    },
    /// AWS-style decorrelated jitter: each delay is drawn uniformly from
    /// `[base, 3·previous]` (clamped to `max`), decorrelating consecutive
    /// retries even harder than the exponential curve.
    DecorrelatedJitter {
        /// Minimum delay (and the first draw's lower bound).
        base: Duration,
        /// Ceiling every draw is clamped to.
        max: Duration,
    },
}

impl Backoff {
    /// The constant curve (the paper-era behavior, explicit).
    pub fn constant(delay: Duration) -> Backoff {
        Backoff::Constant(delay)
    }

    /// The default jittered exponential curve with explicit bounds.
    pub fn exponential(base: Duration, max: Duration) -> Backoff {
        Backoff::Exponential { base, max }
    }

    /// The decorrelated-jitter curve with explicit bounds.
    pub fn decorrelated(base: Duration, max: Duration) -> Backoff {
        Backoff::DecorrelatedJitter { base, max }
    }

    /// Compact human label, surfaced in inspector snapshots.
    pub fn label(&self) -> String {
        match self {
            Backoff::Constant(d) => format!("constant({})", fmt_duration(*d)),
            Backoff::Exponential { base, max } => {
                format!("exp-jitter({}..{})", fmt_duration(*base), fmt_duration(*max))
            }
            Backoff::DecorrelatedJitter { base, max } => {
                format!("decorrelated({}..{})", fmt_duration(*base), fmt_duration(*max))
            }
        }
    }

    /// The delay before retry number `streak` (1-based count of
    /// consecutive transient failures of the same head operation),
    /// drawing any jitter from `rng`. `prev` is the previously chosen
    /// delay (the decorrelated curve's state; pass the returned value
    /// back in).
    pub fn delay(&self, streak: u32, prev: Duration, rng: &mut Rng) -> Duration {
        match *self {
            Backoff::Constant(d) => d,
            Backoff::Exponential { base, max } => {
                let cap = scale_pow2(base, streak.saturating_sub(1)).min(max).max(base);
                let half = cap / 2;
                half + uniform(rng, cap.saturating_sub(half))
            }
            Backoff::DecorrelatedJitter { base, max } => {
                let prev = prev.max(base);
                let upper = prev.saturating_mul(3).min(max).max(base);
                (base + uniform(rng, upper.saturating_sub(base))).min(max)
            }
        }
    }
}

/// `base · 2^exp`, saturating.
fn scale_pow2(base: Duration, exp: u32) -> Duration {
    let nanos = base.as_nanos() as u64;
    Duration::from_nanos(nanos.saturating_shl(exp.min(32)))
}

trait SaturatingShl {
    fn saturating_shl(self, exp: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, exp: u32) -> u64 {
        if self == 0 {
            0
        } else if exp >= self.leading_zeros() {
            u64::MAX
        } else {
            self << exp
        }
    }
}

fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos == 0 {
        "0".into()
    } else if nanos.is_multiple_of(1_000_000_000) {
        format!("{}s", nanos / 1_000_000_000)
    } else if nanos.is_multiple_of(1_000_000) {
        format!("{}ms", nanos / 1_000_000)
    } else if nanos.is_multiple_of(1_000) {
        format!("{}us", nanos / 1_000)
    } else {
        format!("{nanos}ns")
    }
}

/// A uniform duration in `[0, bound]` (inclusive; `bound == 0` is 0).
fn uniform(rng: &mut Rng, bound: Duration) -> Duration {
    let nanos = bound.as_nanos() as u64;
    if nanos == 0 {
        return Duration::ZERO;
    }
    Duration::from_nanos(rng.next_u64() % (nanos + 1))
}

/// Per-loop backoff state: which operation the streak belongs to, how
/// many consecutive transient failures it has absorbed, the previous
/// delay (decorrelated-jitter state), and the loop's private jitter RNG.
///
/// Owned by the loop's polling thread; a new head operation (or a
/// success) resets the streak automatically because the op id no longer
/// matches.
#[derive(Debug)]
pub struct BackoffState {
    op_id: u64,
    streak: u32,
    prev: Duration,
    rng: Rng,
}

impl BackoffState {
    /// Fresh state with the given jitter generator.
    ///
    /// Each event loop seeds one from its own name, so jitter is
    /// *reproducible per loop across runs* (fault schedules stay
    /// replayable) while *distinct across loops* (no two loops draw the
    /// same sequence — the property that breaks retry lock-step).
    pub fn new(rng: Rng) -> BackoffState {
        BackoffState { op_id: u64::MAX, streak: 0, prev: Duration::ZERO, rng }
    }

    /// The delay to apply after a transient failure of `op_id`, per
    /// `curve`. Consecutive calls for the same operation deepen the
    /// streak; a different operation restarts it.
    pub fn next_delay(&mut self, curve: &Backoff, op_id: u64) -> Duration {
        if self.op_id != op_id {
            self.op_id = op_id;
            self.streak = 0;
            self.prev = Duration::ZERO;
        }
        self.streak = self.streak.saturating_add(1);
        let delay = curve.delay(self.streak, self.prev, &mut self.rng);
        self.prev = delay;
        delay
    }
}

/// The complete distribution policy of one reference/discoverer/context.
///
/// Construct with [`Policy::new`] (or `Policy::default()`) and chain the
/// `with_*` builders; every knob has a safe default, so call sites only
/// state what they care about:
///
/// ```
/// use std::time::Duration;
/// use morena_core::policy::{Backoff, Policy};
///
/// let policy = Policy::new()
///     .with_timeout(Duration::from_secs(30))
///     .with_backoff(Backoff::exponential(
///         Duration::from_millis(5),
///         Duration::from_millis(160),
///     ))
///     .with_coalesce_writes(true);
/// assert!(policy.coalesce_writes);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct Policy {
    /// Deadline budget applied when the caller gives no explicit
    /// per-call timeout (and no per-op override matches).
    pub default_timeout: Duration,
    /// Deadline budget for reads, overriding `default_timeout`.
    pub read_timeout: Option<Duration>,
    /// Deadline budget for writes (and `make_read_only`), overriding
    /// `default_timeout`.
    pub write_timeout: Option<Duration>,
    /// The retry curve for transiently failed operations.
    pub backoff: Backoff,
    /// How long a cached value stays servable from
    /// [`TagReference::cached`](crate::tagref::TagReference::cached);
    /// `None` (the default, the paper's semantics) never expires it —
    /// staleness is the application's documented risk.
    pub cache_ttl: Option<Duration>,
    /// Default lease duration for
    /// [`LeaseManager::acquire_default`](crate::lease::LeaseManager::acquire_default).
    pub lease_ttl: Duration,
    /// How often an otherwise-idle discovery thread wakes for
    /// housekeeping (stop-flag re-check). Tag events and explicit stops
    /// interrupt the wait immediately, so this cadence bounds idle CPU,
    /// not responsiveness.
    pub discovery_cadence: Duration,
    /// Collapse queued writes to the same tag region into one exchange
    /// at flush time (see the module docs for the exact semantics).
    /// Off by default: per-write exchanges are the paper's observable
    /// behavior and some applications count them.
    pub coalesce_writes: bool,
    /// Head-based sampling rate for causal traces: applied once when a
    /// *root* context is minted; every hop it causes (retries, verify
    /// probes, cross-device handlers) inherits the decision. Defaults to
    /// always-on — right for tests and debugging; swarms dial it down
    /// with [`SampleRate::one_in`] to keep tracing affordable at scale.
    pub trace_sample: SampleRate,
}

impl Default for Policy {
    fn default() -> Policy {
        Policy {
            default_timeout: Duration::from_secs(10),
            read_timeout: None,
            write_timeout: None,
            // Jittered exponential by default: first retry within
            // 5–10ms, doubling caps up to 320ms. The old constant 25ms
            // cadence is the documented retry-storm bug.
            backoff: Backoff::Exponential {
                base: Duration::from_millis(10),
                max: Duration::from_millis(320),
            },
            cache_ttl: None,
            lease_ttl: Duration::from_secs(30),
            discovery_cadence: Duration::from_millis(200),
            coalesce_writes: false,
            trace_sample: SampleRate::always(),
        }
    }
}

impl Policy {
    /// The default policy (alias for `Policy::default()` that reads
    /// better at the head of a builder chain).
    pub fn new() -> Policy {
        Policy::default()
    }

    /// Sets the default deadline budget.
    pub fn with_timeout(mut self, timeout: Duration) -> Policy {
        self.default_timeout = timeout;
        self
    }

    /// Sets the read-specific deadline budget.
    pub fn with_read_timeout(mut self, timeout: Duration) -> Policy {
        self.read_timeout = Some(timeout);
        self
    }

    /// Sets the write-specific deadline budget.
    pub fn with_write_timeout(mut self, timeout: Duration) -> Policy {
        self.write_timeout = Some(timeout);
        self
    }

    /// Sets the retry curve.
    pub fn with_backoff(mut self, backoff: Backoff) -> Policy {
        self.backoff = backoff;
        self
    }

    /// Sets (or clears) the cache TTL.
    pub fn with_cache_ttl(mut self, ttl: Option<Duration>) -> Policy {
        self.cache_ttl = ttl;
        self
    }

    /// Sets the default lease duration.
    pub fn with_lease_ttl(mut self, ttl: Duration) -> Policy {
        self.lease_ttl = ttl;
        self
    }

    /// Sets the idle discovery housekeeping cadence.
    pub fn with_discovery_cadence(mut self, cadence: Duration) -> Policy {
        self.discovery_cadence = cadence;
        self
    }

    /// Enables or disables write coalescing.
    pub fn with_coalesce_writes(mut self, coalesce: bool) -> Policy {
        self.coalesce_writes = coalesce;
        self
    }

    /// Sets the head-based trace sampling rate.
    pub fn with_trace_sample(mut self, rate: SampleRate) -> Policy {
        self.trace_sample = rate;
        self
    }

    /// The deadline budget for one operation kind: the per-op override
    /// if set, the default otherwise.
    pub fn timeout_for(&self, kind: OpKind) -> Duration {
        match kind {
            OpKind::Read => self.read_timeout.unwrap_or(self.default_timeout),
            OpKind::Write | OpKind::MakeReadOnly => {
                self.write_timeout.unwrap_or(self.default_timeout)
            }
            _ => self.default_timeout,
        }
    }

    /// The effective-policy fields surfaced in inspector loop snapshots.
    pub fn info(&self) -> PolicyInfo {
        PolicyInfo {
            backoff: self.backoff.label(),
            timeout_nanos: self.default_timeout.as_nanos() as u64,
            coalesce_writes: self.coalesce_writes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_curve_is_the_seed_behavior() {
        let curve = Backoff::constant(Duration::from_millis(25));
        let mut rng = Rng::new(1);
        for streak in 1..6 {
            assert_eq!(
                curve.delay(streak, Duration::ZERO, &mut rng),
                Duration::from_millis(25),
                "constant curve never varies"
            );
        }
        assert_eq!(curve.label(), "constant(25ms)");
    }

    #[test]
    fn exponential_caps_double_and_saturate() {
        let base = Duration::from_millis(10);
        let max = Duration::from_millis(80);
        let curve = Backoff::exponential(base, max);
        let mut rng = Rng::new(42);
        for streak in 1..12u32 {
            let cap = scale_pow2(base, streak - 1).min(max);
            let d = curve.delay(streak, Duration::ZERO, &mut rng);
            assert!(
                d >= cap / 2 && d <= cap,
                "streak {streak}: {d:?} outside [{:?}, {cap:?}]",
                cap / 2
            );
        }
        assert_eq!(curve.label(), "exp-jitter(10ms..80ms)");
    }

    #[test]
    fn decorrelated_stays_within_bounds() {
        let base = Duration::from_millis(2);
        let max = Duration::from_millis(64);
        let curve = Backoff::decorrelated(base, max);
        let mut rng = Rng::new(7);
        let mut prev = Duration::ZERO;
        for streak in 1..32u32 {
            let d = curve.delay(streak, prev, &mut rng);
            assert!(d >= base && d <= max, "{d:?} outside [{base:?}, {max:?}]");
            prev = d;
        }
    }

    #[test]
    fn distinct_seeds_draw_distinct_sequences() {
        // The anti-lock-step property: two loops (different names, so
        // different seeds) never share a jitter sequence.
        let curve = Backoff::exponential(Duration::from_millis(10), Duration::from_secs(1));
        let mut a = BackoffState::new(Rng::from_name("tag-a"));
        let mut b = BackoffState::new(Rng::from_name("tag-b"));
        let seq_a: Vec<Duration> = (0..16).map(|_| a.next_delay(&curve, 1)).collect();
        let seq_b: Vec<Duration> = (0..16).map(|_| b.next_delay(&curve, 1)).collect();
        assert_ne!(seq_a, seq_b, "two loops must not retry in lock-step");
        // And the same name reproduces the same sequence (replayability).
        let mut a2 = BackoffState::new(Rng::from_name("tag-a"));
        let seq_a2: Vec<Duration> = (0..16).map(|_| a2.next_delay(&curve, 1)).collect();
        assert_eq!(seq_a, seq_a2, "per-loop jitter is deterministic across runs");
    }

    #[test]
    fn streak_resets_on_a_new_operation() {
        let curve = Backoff::exponential(Duration::from_millis(10), Duration::from_secs(10));
        let mut state = BackoffState::new(Rng::new(3));
        let mut deep = Duration::ZERO;
        for _ in 0..8 {
            deep = state.next_delay(&curve, 1);
        }
        // Eight consecutive failures put the cap at 1.28s; a fresh op
        // must fall back to the base cap.
        assert!(deep >= Duration::from_millis(640), "deep streak reached the big caps: {deep:?}");
        let fresh = state.next_delay(&curve, 2);
        assert!(fresh <= Duration::from_millis(10), "new op restarts at the base cap: {fresh:?}");
    }

    #[test]
    fn per_op_timeouts_override_the_default() {
        let policy = Policy::new()
            .with_timeout(Duration::from_secs(5))
            .with_read_timeout(Duration::from_secs(1))
            .with_write_timeout(Duration::from_secs(2));
        assert_eq!(policy.timeout_for(OpKind::Read), Duration::from_secs(1));
        assert_eq!(policy.timeout_for(OpKind::Write), Duration::from_secs(2));
        assert_eq!(policy.timeout_for(OpKind::MakeReadOnly), Duration::from_secs(2));
        assert_eq!(policy.timeout_for(OpKind::Push), Duration::from_secs(5));
        assert_eq!(Policy::new().timeout_for(OpKind::Read), Duration::from_secs(10));
    }

    #[test]
    fn default_policy_is_jittered() {
        let policy = Policy::default();
        assert!(
            matches!(policy.backoff, Backoff::Exponential { .. }),
            "the default must not be the constant retry-storm curve"
        );
        assert!(!policy.coalesce_writes, "coalescing is opt-in");
        assert_eq!(policy.cache_ttl, None, "paper semantics: the cache never expires by default");
        let info = policy.info();
        assert!(info.backoff.starts_with("exp-jitter"));
        assert_eq!(info.timeout_nanos, 10_000_000_000);
    }

    #[test]
    fn labels_render_sub_millisecond_units() {
        assert_eq!(Backoff::constant(Duration::from_micros(300)).label(), "constant(300us)");
        assert_eq!(Backoff::constant(Duration::from_secs(2)).label(), "constant(2s)");
        assert_eq!(Backoff::constant(Duration::from_nanos(7)).label(), "constant(7ns)");
        assert_eq!(Backoff::constant(Duration::ZERO).label(), "constant(0)");
    }
}
