//! **EXT-INSPECT** — measures the cost of live introspection and emits
//! the health-report / Chrome-trace artifacts CI archives.
//!
//! Two phases:
//!
//! 1. **Overhead** — a tight loop of synchronous writes against an
//!    in-range tag over an instant link, once with the inspector hooks
//!    merely registered (they always are) and once with a ~10 Hz
//!    watchdog poller snapshotting every component concurrently. The
//!    delta is the enabled-idle cost of introspection per operation;
//!    the budget is < 1% (see `EXPERIMENTS.md`).
//! 2. **Artifacts** — a deliberately broken run (a `stuck_tag` fault
//!    plan at rate 1.0, so every exchange dwells and fails) that the
//!    watchdog must flag. The final [`HealthReport`](morena_obs::inspect::HealthReport) is written as JSON
//!    (first CLI argument, default `ext_inspect_health.json`) and the
//!    full event stream is exported as Chrome `trace_event` JSON for
//!    Perfetto (second argument, default `ext_inspect_trace.json`).
//!
//! `MORENA_QUICK=1` shrinks the op counts for smoke runs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use morena_bench::{cell, print_table, quick_mode};
use morena_core::context::MorenaContext;
use morena_core::convert::StringConverter;
use morena_core::policy::{Backoff, Policy};
use morena_core::tagref::TagReference;
use morena_nfc_sim::clock::SystemClock;
use morena_nfc_sim::faults::{FaultKind, FaultPlan, FaultRates};
use morena_nfc_sim::link::LinkModel;
use morena_nfc_sim::tag::{TagTech, TagUid, Type2Tag};
use morena_nfc_sim::world::World;
use morena_obs::{ChromeTraceSink, Health, NullSink, Watchdog};

/// One measurement run: `ops` synchronous writes against an in-range
/// tag; optionally a concurrent watchdog poller at ~`poll_hz`.
/// Returns the mean wall-clock nanoseconds per op.
fn per_op_nanos(ops: usize, poll_hz: Option<u64>) -> f64 {
    let world = World::with_link(Arc::new(SystemClock::new()), LinkModel::instant(), 11);
    // Enabled-idle: the recorder is on, but events go nowhere.
    world.obs().install(Arc::new(NullSink));
    let phone = world.add_phone("bench");
    let uid = world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed(1))));
    world.tap_tag(uid, phone);
    let ctx = MorenaContext::headless(&world, phone);
    let reference = TagReference::with_policy(
        &ctx,
        uid,
        TagTech::Type2,
        Arc::new(StringConverter::plain_text()),
        Policy::new().with_timeout(Duration::from_secs(20)),
    );

    let stop = Arc::new(AtomicBool::new(false));
    let poller = poll_hz.map(|hz| {
        let world = world.clone();
        let stop = Arc::clone(&stop);
        let period = Duration::from_nanos(1_000_000_000 / hz.max(1));
        std::thread::spawn(move || {
            let watchdog = Watchdog::default();
            let mut reports = 0u64;
            while !stop.load(Ordering::Acquire) {
                let snapshot = world.obs().inspector().snapshot(world.clock().now().as_nanos());
                let report =
                    watchdog.evaluate_with_metrics(&snapshot, &world.obs().metrics().snapshot());
                reports += u64::from(report.health == Health::Healthy);
                std::thread::sleep(period);
            }
            reports
        })
    });

    let started = std::time::Instant::now();
    for i in 0..ops {
        reference
            .write_sync(format!("p{i}"), Duration::from_secs(20))
            .expect("write over instant link");
    }
    let elapsed = started.elapsed().as_nanos() as f64;

    stop.store(true, Ordering::Release);
    if let Some(handle) = poller {
        handle.join().expect("poller thread");
    }
    reference.close();
    elapsed / ops as f64
}

/// A run the watchdog must flag: every exchange hits a stuck tag, so
/// the head op piles up retries while the trace records the carnage.
fn broken_run(quick: bool) -> (String, String, usize) {
    let world = World::with_link(Arc::new(SystemClock::new()), LinkModel::instant(), 23);
    let sink = Arc::new(ChromeTraceSink::new());
    world.obs().install(sink.clone());
    world.install_fault_plan(
        FaultPlan::new(5, FaultRates::only(FaultKind::StuckTag, 1.0))
            .with_delays(Duration::from_millis(2), Duration::from_millis(2)),
    );
    let phone = world.add_phone("victim");
    let uid = world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed(9))));
    world.tap_tag(uid, phone);
    let ctx = MorenaContext::headless(&world, phone);
    let reference = TagReference::with_policy(
        &ctx,
        uid,
        TagTech::Type2,
        Arc::new(StringConverter::plain_text()),
        Policy::new()
            .with_timeout(Duration::from_secs(60))
            .with_backoff(Backoff::constant(Duration::from_micros(500))),
    );
    reference.write("doomed".to_string(), |_| {}, |_, _| {});

    // Let the retry storm build past the watchdog's threshold.
    let dwell = Duration::from_millis(if quick { 60 } else { 150 });
    std::thread::sleep(dwell);

    let snapshot = world.obs().inspector().snapshot(world.clock().now().as_nanos());
    let watchdog = Watchdog::default();
    let report = watchdog.evaluate_with_metrics(&snapshot, &world.obs().metrics().snapshot());
    println!("{}", morena_obs::render_top(&snapshot, &report));
    assert!(
        report.health != Health::Healthy,
        "a run where every exchange sticks must not report Healthy"
    );

    reference.close();
    world.obs().flush();
    let events = sink.len();
    (report.to_json(), sink.export(), events)
}

fn main() {
    let quick = quick_mode();
    let health_path =
        std::env::args().nth(1).unwrap_or_else(|| "ext_inspect_health.json".to_string());
    let trace_path =
        std::env::args().nth(2).unwrap_or_else(|| "ext_inspect_trace.json".to_string());

    // --- phase 1: enabled-idle overhead ----------------------------------
    let ops = if quick { 1_000 } else { 8_000 };
    // Warm-up run eats one-time costs (thread spawns, allocator).
    let _ = per_op_nanos(ops / 4, None);
    let idle = per_op_nanos(ops, None);
    let polled = per_op_nanos(ops, Some(10));
    let delta_pct = (polled - idle) / idle * 100.0;
    print_table(
        "EXT-INSPECT: per-op cost, inspector registered vs polled at 10 Hz",
        &["config", "ns/op", "delta"],
        &[
            vec![cell("registered, idle"), cell(format!("{idle:.0}")), cell("-")],
            vec![
                cell("watchdog @ 10 Hz"),
                cell(format!("{polled:.0}")),
                cell(format!("{delta_pct:+.2}%")),
            ],
        ],
    );
    println!("overhead-json: {{\"idle_ns\":{idle:.0},\"polled_ns\":{polled:.0},\"delta_pct\":{delta_pct:.3}}}");

    // --- phase 2: artifacts from a broken run -----------------------------
    let (health_json, trace_json, events) = broken_run(quick);
    std::fs::write(&health_path, &health_json).expect("write health report");
    std::fs::write(&trace_path, &trace_json).expect("write chrome trace");
    println!("\nhealth report -> {health_path}");
    println!("health-json: {health_json}");
    println!("chrome trace -> {trace_path} ({events} events captured)");

    let mut report = morena_bench::BenchReport::new("ext_inspect");
    report.config("ops", ops);
    report.metric("idle_ns_per_op", idle);
    report.metric("polled_ns_per_op", polled);
    report.metric("watchdog_overhead_pct", delta_pct);
    report.metric("trace_events", events as f64);
    report.write().expect("write BENCH_ext_inspect.json");
}
