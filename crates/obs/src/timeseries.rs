//! Continuous time-series telemetry: per-series ring buffers and the
//! background [`Sampler`] that fills them.
//!
//! The inspector ([`crate::inspect`]) answers *what is happening now*;
//! this module answers *what happened over the last minute*. A
//! [`Sampler`] thread wakes on a configurable cadence and captures, per
//! tick:
//!
//! * the [`MetricsSnapshot`](crate::MetricsSnapshot) **delta** since the
//!   previous tick — counters become per-second rates, gauges stay
//!   levels, histograms contribute windowed p99s and event rates;
//! * an [`InspectorSnapshot`](crate::inspect::InspectorSnapshot) —
//!   aggregate queue depth, live loop count, total `mem_bytes`, and
//!   (for a bounded number of loops) per-loop queue depths;
//! * the [`crate::Watchdog`]'s verdict, recorded as a numeric
//!   health series (0 = healthy, 1 = degraded, 2 = stalled).
//!
//! Every series lives in a fixed-capacity [`SeriesRing`]; memory is
//! bounded no matter how long the process runs. The sampler meters its
//! own cost into the recorder's metrics (`obs.sampler.tick_ns`,
//! `obs.sampler.ticks`) so the telemetry plane's overhead is itself a
//! gated bench metric.
//!
//! When a [`crate::flight::FlightRecorder`] is wired
//! into the [`SamplerConfig`], the sampler feeds it the health verdict
//! each tick and dumps the recorder to disk on the first transition to
//! [`Health::Stalled`] — the always-on crash/stall forensics loop.
//!
//! `morena-obs` owns no clock, so the sampler takes a caller-supplied
//! `Fn() -> u64` returning nanoseconds on whatever clock the rest of
//! the world uses (the sim's virtual clock in tests, a monotonic wall
//! clock on hardware). The *cadence* itself runs on real time — the
//! point of a sampler is to observe a possibly-wedged system, so it
//! must never block on the clock it is observing.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::flight::FlightRecorder;
use crate::inspect::{Health, Watchdog, WatchdogConfig};
use crate::recorder::Recorder;
use crate::sync::Mutex;

/// The eight block glyphs sparklines are drawn with, lowest to highest.
const SPARK_GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Render `values` as a unicode sparkline at most `width` characters
/// wide. Values are resampled (bucket-max) when there are more points
/// than columns; the vertical scale is min..max of the rendered window,
/// so a flat series renders as a flat low line. Empty input renders
/// empty.
pub fn sparkline(values: &[f64], width: usize) -> String {
    if values.is_empty() || width == 0 {
        return String::new();
    }
    // Resample to at most `width` buckets, taking each bucket's max so
    // short spikes stay visible.
    let buckets: Vec<f64> = if values.len() <= width {
        values.to_vec()
    } else {
        (0..width)
            .map(|i| {
                let lo = i * values.len() / width;
                let hi = (((i + 1) * values.len() / width).max(lo + 1)).min(values.len());
                values[lo..hi].iter().copied().fold(f64::NEG_INFINITY, f64::max)
            })
            .collect()
    };
    let min = buckets.iter().copied().fold(f64::INFINITY, f64::min);
    let max = buckets.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = max - min;
    buckets
        .iter()
        .map(|&v| {
            if !v.is_finite() || span <= 0.0 {
                SPARK_GLYPHS[0]
            } else {
                let norm = ((v - min) / span * 7.0).round() as usize;
                SPARK_GLYPHS[norm.min(7)]
            }
        })
        .collect()
}

/// A fixed-capacity ring of `(at_nanos, value)` points — one series.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesRing {
    points: std::collections::VecDeque<(u64, f64)>,
    capacity: usize,
    dropped: u64,
}

impl SeriesRing {
    /// A ring holding at most `capacity` points (min 2 so a derivative
    /// is always computable once full).
    pub fn new(capacity: usize) -> SeriesRing {
        SeriesRing {
            points: std::collections::VecDeque::new(),
            capacity: capacity.max(2),
            dropped: 0,
        }
    }

    /// Append a point, evicting the oldest when full.
    pub fn push(&mut self, at_nanos: u64, value: f64) {
        if self.points.len() == self.capacity {
            self.points.pop_front();
            self.dropped += 1;
        }
        self.points.push_back((at_nanos, value));
    }

    /// Points currently held, oldest first.
    pub fn points(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.points.iter().copied()
    }

    /// The most recent point.
    pub fn latest(&self) -> Option<(u64, f64)> {
        self.points.back().copied()
    }

    /// Number of points currently held.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when no points are held.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Points evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Change per second across the retained window: `(last - first) /
    /// Δt`. `None` with fewer than two points or a zero-width window.
    /// For a level series (a gauge) this is its derivative; for a series
    /// that is already a rate it is the rate's trend.
    pub fn derivative_per_sec(&self) -> Option<f64> {
        let (t0, v0) = self.points.front().copied()?;
        let (t1, v1) = self.points.back().copied()?;
        if t1 <= t0 {
            return None;
        }
        Some((v1 - v0) / ((t1 - t0) as f64 / 1e9))
    }

    /// Just the values, oldest first (the sparkline input).
    pub fn values(&self) -> Vec<f64> {
        self.points.iter().map(|&(_, v)| v).collect()
    }
}

/// A named collection of [`SeriesRing`]s behind one lock.
///
/// All rings share one capacity (fixed at construction), so the store's
/// memory is `O(series × capacity)` regardless of run length. Recording
/// into an unknown name creates the series lazily.
#[derive(Debug)]
pub struct SeriesStore {
    capacity: usize,
    series: Mutex<BTreeMap<String, SeriesRing>>,
}

impl SeriesStore {
    /// A store whose rings hold `capacity` points each.
    pub fn new(capacity: usize) -> SeriesStore {
        SeriesStore { capacity: capacity.max(2), series: Mutex::new(BTreeMap::new()) }
    }

    /// Append one point to `name`, creating the series if needed.
    pub fn record(&self, name: &str, at_nanos: u64, value: f64) {
        let mut series = self.series.lock();
        series
            .entry(name.to_string())
            .or_insert_with(|| SeriesRing::new(self.capacity))
            .push(at_nanos, value);
    }

    /// Every series name currently present, sorted.
    pub fn names(&self) -> Vec<String> {
        self.series.lock().keys().cloned().collect()
    }

    /// A copy of one series' points, oldest first.
    pub fn points(&self, name: &str) -> Option<Vec<(u64, f64)>> {
        self.series.lock().get(name).map(|r| r.points().collect())
    }

    /// The most recent value of one series.
    pub fn latest(&self, name: &str) -> Option<f64> {
        self.series.lock().get(name).and_then(|r| r.latest()).map(|(_, v)| v)
    }

    /// Change per second across one series' retained window (see
    /// [`SeriesRing::derivative_per_sec`]).
    pub fn derivative_per_sec(&self, name: &str) -> Option<f64> {
        self.series.lock().get(name).and_then(|r| r.derivative_per_sec())
    }

    /// Sparkline of one series at most `width` characters wide, empty
    /// when the series does not exist.
    pub fn sparkline(&self, name: &str, width: usize) -> String {
        let values = match self.series.lock().get(name) {
            Some(ring) => ring.values(),
            None => return String::new(),
        };
        sparkline(&values, width)
    }

    /// Number of series currently held.
    pub fn series_count(&self) -> usize {
        self.series.lock().len()
    }
}

/// Cadence, retention, and escalation knobs for a [`Sampler`].
///
/// Cadences are configuration, not code (RAFDA's policy-separation
/// lesson): everything here can differ per deployment without touching
/// the sampling loop.
#[derive(Clone)]
pub struct SamplerConfig {
    /// Real-time interval between ticks. Default 100 ms (10 Hz).
    pub interval: Duration,
    /// Points retained per series. Default 600 (one minute at 10 Hz).
    pub capacity: usize,
    /// How many event loops get an individual `loop.<name>.queue`
    /// series (first-registered wins; the aggregate series always
    /// covers everyone). Bounds series cardinality at swarm scale.
    /// Default 64.
    pub per_loop_series: usize,
    /// Thresholds for the health series / stall-dump watchdog.
    pub watchdog: WatchdogConfig,
    /// Flight recorder to feed health transitions into and to dump on
    /// the first transition to `Stalled`.
    pub flight: Option<Arc<FlightRecorder>>,
    /// Directory stall dumps are written into (`flight-stalled-<n>.json`).
    /// Ignored without a flight recorder.
    pub dump_dir: Option<PathBuf>,
}

impl Default for SamplerConfig {
    fn default() -> SamplerConfig {
        SamplerConfig {
            interval: Duration::from_millis(100),
            capacity: 600,
            per_loop_series: 64,
            watchdog: WatchdogConfig::default(),
            flight: None,
            dump_dir: None,
        }
    }
}

#[derive(Default)]
struct SamplerSignal {
    stopped: Mutex<bool>,
    condvar: Condvar,
}

/// The background sampling thread. Construct with [`Sampler::spawn`];
/// the thread stops and joins on [`Sampler::stop`] or drop (shutdown
/// ordering: stop the sampler *before* tearing down the world so the
/// final tick never observes half-dropped components).
pub struct Sampler {
    store: Arc<SeriesStore>,
    signal: Arc<SamplerSignal>,
    handle: Option<JoinHandle<()>>,
}

impl Sampler {
    /// Spawn a sampler over `recorder`, stamping points with `clock`
    /// (nanoseconds on the world's clock; the tick cadence itself is
    /// real time, so a wedged virtual clock cannot wedge the sampler).
    pub fn spawn(
        recorder: Arc<Recorder>,
        clock: impl Fn() -> u64 + Send + 'static,
        config: SamplerConfig,
    ) -> Sampler {
        let store = Arc::new(SeriesStore::new(config.capacity));
        let signal = Arc::new(SamplerSignal::default());
        let thread_store = Arc::clone(&store);
        let thread_signal = Arc::clone(&signal);
        let handle = std::thread::Builder::new()
            .name("morena-sampler".into())
            .spawn(move || run_sampler(recorder, clock, config, thread_store, thread_signal))
            .expect("spawn sampler thread");
        Sampler { store, signal, handle: Some(handle) }
    }

    /// The series this sampler fills; shareable with renderers while
    /// the sampler runs.
    pub fn series(&self) -> &Arc<SeriesStore> {
        &self.store
    }

    /// Stop the sampling thread and join it. Idempotent.
    pub fn stop(&mut self) {
        {
            let mut stopped = self.signal.stopped.lock();
            *stopped = true;
            self.signal.condvar.notify_all();
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop();
    }
}

fn run_sampler(
    recorder: Arc<Recorder>,
    clock: impl Fn() -> u64,
    config: SamplerConfig,
    store: Arc<SeriesStore>,
    signal: Arc<SamplerSignal>,
) {
    let watchdog = Watchdog::with_config(config.watchdog);
    let mut prev_metrics = recorder.metrics().snapshot();
    let mut prev_at = clock();
    let mut prev_health = Health::Healthy;
    loop {
        // Interruptible sleep: `stop()` flips the flag and notifies, so
        // shutdown never waits out a full interval.
        {
            let stopped = signal.stopped.lock();
            let (stopped, _) = signal
                .condvar
                .wait_timeout_while(stopped, config.interval, |stopped| !*stopped)
                .unwrap_or_else(PoisonError::into_inner);
            if *stopped {
                return;
            }
        }

        let tick_started = std::time::Instant::now();
        let now = clock();
        let window_secs = (now.saturating_sub(prev_at) as f64 / 1e9).max(1e-9);

        // Metrics delta: counters and histogram counts become rates.
        let metrics = recorder.metrics().snapshot();
        let delta = metrics.delta(&prev_metrics);
        for (name, &value) in &delta.counters {
            store.record(name, now, value as f64 / window_secs);
        }
        for (name, &value) in &delta.gauges {
            store.record(name, now, value as f64);
        }
        for (name, hist) in &delta.histograms {
            store.record(&format!("{name}.rate"), now, hist.count() as f64 / window_secs);
            if let Some(p99) = hist.p99() {
                store.record(&format!("{name}.p99_ns"), now, p99 as f64);
            }
        }

        // Inspector: aggregates always, per-loop depth for a bounded set.
        let snapshot = recorder.inspector().snapshot(now);
        let mut queue_total = 0u64;
        let mut loops = 0u64;
        for (i, l) in snapshot.loops().enumerate() {
            queue_total += l.queue_depth as u64;
            loops += 1;
            if i < config.per_loop_series {
                store.record(&format!("loop.{}.queue", l.name), now, l.queue_depth as f64);
            }
        }
        store.record("inspect.loops", now, loops as f64);
        store.record("inspect.queue_depth", now, queue_total as f64);
        store.record("inspect.mem_bytes", now, snapshot.total_mem_bytes() as f64);
        for entry in &snapshot.components {
            if let crate::inspect::ComponentSnapshot::World(w) = &entry.state {
                store.record("world.faults_injected", now, w.faults_injected as f64);
            }
        }

        // Health verdict, plus flight-recorder escalation.
        let report = watchdog.evaluate_with_metrics(&snapshot, &metrics);
        store.record("inspect.health", now, health_level(report.health));
        if let Some(flight) = &config.flight {
            flight.note_health(now, report.health);
            if report.health == Health::Stalled && prev_health != Health::Stalled {
                if let Some(dir) = &config.dump_dir {
                    let _ = flight.dump_to_dir(dir, "stalled", now, Some(&report));
                    recorder.metrics().counter("obs.flight.stall_dumps").inc();
                }
            }
        }
        prev_health = report.health;
        prev_metrics = metrics;
        prev_at = now;

        // Meter our own cost so the overhead claim is checkable.
        recorder
            .metrics()
            .histogram("obs.sampler.tick_ns")
            .observe_duration(tick_started.elapsed());
        recorder.metrics().counter("obs.sampler.ticks").inc();
    }
}

/// Numeric encoding of [`Health`] used by the `inspect.health` series
/// and the OpenMetrics `morena_health` gauge: 0 healthy, 1 degraded,
/// 2 stalled.
pub fn health_level(health: Health) -> f64 {
    match health {
        Health::Healthy => 0.0,
        Health::Degraded => 1.0,
        Health::Stalled => 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut ring = SeriesRing::new(3);
        for i in 0..5u64 {
            ring.push(i * 10, i as f64);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let points: Vec<_> = ring.points().collect();
        assert_eq!(points, vec![(20, 2.0), (30, 3.0), (40, 4.0)]);
        assert_eq!(ring.latest(), Some((40, 4.0)));
    }

    #[test]
    fn derivative_spans_the_retained_window() {
        let mut ring = SeriesRing::new(8);
        ring.push(0, 0.0);
        ring.push(2_000_000_000, 10.0); // +10 over 2 s
        assert_eq!(ring.derivative_per_sec(), Some(5.0));
        // A single point has no derivative; nor does a zero-width window.
        let mut flat = SeriesRing::new(8);
        flat.push(5, 1.0);
        assert_eq!(flat.derivative_per_sec(), None);
        flat.push(5, 2.0);
        assert_eq!(flat.derivative_per_sec(), None);
    }

    #[test]
    fn sparkline_scales_and_resamples() {
        assert_eq!(sparkline(&[], 10), "");
        assert_eq!(sparkline(&[1.0], 10), "▁");
        let line = sparkline(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], 8);
        assert_eq!(line, "▁▂▃▄▅▆▇█");
        // Flat series: all-low, not all-high.
        assert_eq!(sparkline(&[3.0, 3.0, 3.0], 3), "▁▁▁");
        // Resampling keeps spikes (bucket max).
        let mut values = vec![0.0; 100];
        values[50] = 9.0;
        let line = sparkline(&values, 10);
        assert_eq!(line.chars().count(), 10);
        assert!(line.contains('█'), "spike lost in resample: {line}");
    }

    #[test]
    fn store_records_lazily_and_queries() {
        let store = SeriesStore::new(4);
        store.record("a", 0, 1.0);
        store.record("a", 1_000_000_000, 3.0);
        store.record("b", 0, 7.0);
        assert_eq!(store.names(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(store.latest("a"), Some(3.0));
        assert_eq!(store.derivative_per_sec("a"), Some(2.0));
        assert_eq!(store.points("b").unwrap(), vec![(0, 7.0)]);
        assert_eq!(store.latest("missing"), None);
        assert!(!store.sparkline("a", 8).is_empty());
        assert!(store.sparkline("missing", 8).is_empty());
    }

    #[test]
    fn sampler_captures_rates_inspector_aggregates_and_health() {
        let recorder = Arc::new(Recorder::new());
        recorder.metrics().counter("ops.test").add(10);
        let now = Arc::new(AtomicU64::new(0));
        let clock_now = Arc::clone(&now);
        let mut sampler = Sampler::spawn(
            Arc::clone(&recorder),
            move || clock_now.load(Ordering::Relaxed),
            SamplerConfig { interval: Duration::from_millis(2), ..SamplerConfig::default() },
        );
        // Advance the fake clock and feed the counter so ticks see a
        // positive rate over a known window.
        for step in 1..=50u64 {
            now.store(step * 10_000_000, Ordering::Relaxed); // 10 ms per step
            recorder.metrics().counter("ops.test").add(5);
            recorder.metrics().histogram("op.lat_ns").observe(2_000);
            std::thread::sleep(Duration::from_millis(2));
            if sampler.series().latest("ops.test").is_some()
                && sampler.series().latest("op.lat_ns.p99_ns").is_some()
            {
                break;
            }
        }
        sampler.stop();
        let store = sampler.series();
        let rate = store.latest("ops.test").expect("counter rate series");
        assert!(rate > 0.0, "rate should be positive, got {rate}");
        assert_eq!(store.latest("inspect.loops"), Some(0.0));
        assert_eq!(store.latest("inspect.health"), Some(0.0));
        assert!(store.latest("op.lat_ns.p99_ns").unwrap_or(0.0) > 0.0);
        // The sampler metered itself.
        let metrics = recorder.metrics().snapshot();
        assert!(metrics.counter("obs.sampler.ticks") > 0);
        assert!(metrics.histogram("obs.sampler.tick_ns").unwrap().count() > 0);
    }

    #[test]
    fn sampler_stop_is_prompt_and_idempotent() {
        let recorder = Arc::new(Recorder::new());
        let mut sampler = Sampler::spawn(
            recorder,
            || 0,
            SamplerConfig { interval: Duration::from_secs(3600), ..SamplerConfig::default() },
        );
        let started = std::time::Instant::now();
        sampler.stop();
        sampler.stop();
        assert!(started.elapsed() < Duration::from_secs(5), "stop must not wait out the interval");
    }
}
