//! **EXT-OBS** — exercises the `morena-obs` observability layer on a
//! scripted run and shows where a far-reference operation's latency
//! actually goes.
//!
//! Workload: a burst of writes (plus one read) is queued on a tag
//! reference *before the tag is anywhere near the phone*; the tag then
//! oscillates in and out of range over a noisy link while the event
//! loop drains the queue. Every middleware event and every physical
//! ground-truth event flows through one `Recorder` into a `TeeSink`:
//!
//! * a `RingSink` kept in memory for post-hoc correlation, and
//! * a `JsonlSink` writing the full trace to `ext_obs_trace.jsonl`
//!   (override with the first CLI argument).
//!
//! After the run the binary prints the metrics snapshot (counters and
//! latency histograms with p50/p95/p99), then joins middleware events
//! with physical presence via [`morena_obs::correlate()`] and prints, per
//! op, the split into **out-of-range wait** / **exchange time** /
//! **queue delay** — the three components that sum exactly to the
//! observed latency. The same breakdowns are echoed as JSON lines so
//! the output is machine-readable end to end.

use std::fs::File;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Duration;

use morena_bench::{cell, print_table, quick_mode};
use morena_core::context::MorenaContext;
use morena_core::convert::StringConverter;
use morena_core::policy::{Backoff, Policy};
use morena_core::tagref::TagReference;
use morena_nfc_sim::clock::SystemClock;
use morena_nfc_sim::link::LinkModel;
use morena_nfc_sim::scenario::Scenario;
use morena_nfc_sim::tag::{TagTech, TagUid, Type2Tag};
use morena_nfc_sim::world::World;
use morena_obs::timeseries::SamplerConfig;
use morena_obs::{
    correlate, AttemptOutcome, EventKind, FlightRecorder, JsonlSink, ObsEvent, ObsSink, OpKind,
    RingSink, TeeSink,
};

const PERIOD: Duration = Duration::from_millis(120);

fn link() -> LinkModel {
    LinkModel {
        setup_latency: Duration::from_millis(1),
        per_byte_latency: Duration::from_micros(10),
        base_failure_prob: 0.15,
        edge_failure_prob: 0.15,
        ..LinkModel::realistic()
    }
}

fn ms(nanos: u64) -> String {
    format!("{:.2}ms", nanos as f64 / 1e6)
}

fn main() -> std::process::ExitCode {
    let quick = quick_mode();
    let cycles = if quick { 6 } else { 10 };
    let writes = if quick { 3 } else { 5 };
    let mut report = morena_bench::BenchReport::new("ext_obs");
    report.config("cycles", cycles);
    report.config("writes", writes);
    let trace_path = std::env::args().nth(1).unwrap_or_else(|| "ext_obs_trace.jsonl".to_string());

    let world = World::with_link(Arc::new(SystemClock::new()), link(), 7);

    // Wire the full trace into memory (for correlation), onto disk (for
    // offline tooling), and into the always-on flight recorder — the
    // telemetry plane runs for the whole workload so its cost shows up
    // in the overhead accounting below.
    let ring = Arc::new(RingSink::new(65_536));
    let file = File::create(&trace_path).expect("create trace file");
    let jsonl = Arc::new(JsonlSink::new(Box::new(file)));
    let flight = Arc::new(FlightRecorder::default());
    world.obs().install(Arc::new(TeeSink::new(vec![
        ring.clone() as Arc<dyn ObsSink>,
        jsonl.clone() as Arc<dyn ObsSink>,
        flight.clone() as Arc<dyn ObsSink>,
    ])));

    let phone = world.add_phone("user");
    let uid = world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed(1))));
    let ctx = MorenaContext::headless(&world, phone);
    let mut sampler = ctx.start_sampler(SamplerConfig {
        interval: Duration::from_millis(100),
        flight: Some(flight.clone()),
        ..SamplerConfig::default()
    });
    let workload_started = std::time::Instant::now();
    let reference = TagReference::with_policy(
        &ctx,
        uid,
        TagTech::Type2,
        Arc::new(StringConverter::plain_text()),
        Policy::new()
            .with_timeout(PERIOD * (cycles as u32 + 2))
            .with_backoff(Backoff::constant(Duration::from_millis(2))),
    );

    // Queue a burst while the tag is still out of range: every op after
    // the first will show head-of-line queue delay on top of the shared
    // out-of-range wait.
    let (tx, rx) = channel();
    for i in 0..writes {
        let done = tx.clone();
        let fail = tx.clone();
        reference.write(
            format!("payload-{i}"),
            move |_| {
                let _ = done.send(true);
            },
            move |_, _| {
                let _ = fail.send(false);
            },
        );
    }
    let done = tx.clone();
    let fail = tx;
    reference.read(
        move |_| {
            let _ = done.send(true);
        },
        move |_, _| {
            let _ = fail.send(false);
        },
    );

    // A fumbling user: the tag flickers in and out of the field.
    let driver = Scenario::new().presence_duty_cycle(uid, phone, PERIOD, 0.5, cycles).spawn(&world);
    let mut completed = 0usize;
    for _ in 0..=writes {
        if rx.recv_timeout(PERIOD * (cycles as u32 + 4)).unwrap_or(false) {
            completed += 1;
        }
    }
    driver.join().expect("scenario driver");
    reference.close();
    let wall_nanos = workload_started.elapsed().as_nanos().max(1) as u64;
    sampler.stop();
    world.obs().flush();

    // --- metrics snapshot -------------------------------------------------
    let snapshot = world.obs().metrics().snapshot();
    println!("EXT-OBS: metrics snapshot after {completed}/{} ops\n", writes + 1);
    println!("{snapshot}");
    println!("metrics-json: {}", snapshot.to_json());

    // --- latency attribution ---------------------------------------------
    let events = ring.snapshot();
    let breakdowns = correlate(&events);
    let rows: Vec<Vec<String>> = breakdowns
        .iter()
        .map(|b| {
            vec![
                cell(b.op_id),
                cell(b.op.label()),
                cell(b.outcome.label()),
                cell(ms(b.total_nanos)),
                cell(ms(b.out_of_range_nanos)),
                cell(ms(b.exchange_nanos)),
                cell(ms(b.queue_nanos)),
                cell(b.attempts),
                cell(b.retries),
            ]
        })
        .collect();
    print_table(
        "EXT-OBS: per-op latency attribution (wait + exchange + queue = total)",
        &["op", "kind", "outcome", "total", "oor-wait", "exchange", "queue", "tries", "retries"],
        &rows,
    );
    for b in &breakdowns {
        println!("breakdown-json: {}", b.to_json());
    }

    println!(
        "\ntrace: {} events captured ({} dropped by the ring), {} JSONL lines -> {}",
        events.len(),
        ring.dropped_entries(),
        jsonl.lines_written(),
        trace_path,
    );
    println!(
        "oor-wait = target physically out of range (physics; §3.2); exchange = time\n\
         inside NFC attempts; queue = head-of-line blocking + retry backoff — the\n\
         only slice middleware engineering can shrink."
    );

    // --- telemetry-plane overhead ----------------------------------------
    // The sampler metered its own ticks during the run; the flight
    // recorder's per-event cost is measured directly on its hot path
    // (an attributed op ring, the common case). Composed, the two give
    // the fraction of one core the always-on plane consumed — the
    // number the baseline gates as the <1% overhead claim.
    let ticks = snapshot.counter("obs.sampler.ticks");
    let sampler_busy_nanos = snapshot.histogram("obs.sampler.tick_ns").map_or(0, |h| h.sum_nanos);
    let sampler_duty_pct = sampler_busy_nanos as f64 / wall_nanos as f64 * 100.0;

    let probe = FlightRecorder::default();
    probe.record(&ObsEvent {
        seq: 0,
        at_nanos: 0,
        trace: None,
        kind: EventKind::OpEnqueued {
            op_id: 1,
            loop_name: "tag-probe".to_string(),
            phone: 0,
            target: "probe".to_string(),
            op: OpKind::Write,
            deadline_nanos: 0,
        },
    });
    let probe_events = if quick { 100_000u64 } else { 500_000 };
    let attempt = ObsEvent {
        seq: 1,
        at_nanos: 0,
        trace: None,
        kind: EventKind::OpAttempt {
            op_id: 1,
            started_nanos: 0,
            duration_nanos: 5,
            outcome: AttemptOutcome::Transient,
        },
    };
    let probe_started = std::time::Instant::now();
    for _ in 0..probe_events {
        probe.record(&attempt);
    }
    let flight_ns_per_event = probe_started.elapsed().as_nanos() as f64 / probe_events as f64;
    let events_per_sec = events.len() as f64 / (wall_nanos as f64 / 1e9);
    let flight_share_pct = flight_ns_per_event * events_per_sec / 1e9 * 100.0;
    let telemetry_overhead_pct = sampler_duty_pct + flight_share_pct;

    println!(
        "\ntelemetry plane: {ticks} sampler ticks ({sampler_duty_pct:.4}% of one core), \
         flight recorder {flight_ns_per_event:.0}ns/event x {events_per_sec:.0} events/s \
         ({flight_share_pct:.4}%) => {telemetry_overhead_pct:.4}% total overhead"
    );

    report.metric("completed_ops", completed as f64);
    report.metric("expected_ops", (writes + 1) as f64);
    report.metric("trace_events", events.len() as f64);
    report.metric("ring_dropped", ring.dropped_entries() as f64);
    report.metric("sampler_ticks", ticks as f64);
    report.metric("sampler_duty_pct", sampler_duty_pct);
    report.metric("flight_ns_per_event", flight_ns_per_event);
    report.metric("telemetry_overhead_pct", telemetry_overhead_pct);
    let failed = completed != writes + 1;
    report.metric("failed", if failed { 1.0 } else { 0.0 });
    report.write().expect("write BENCH_ext_obs.json");
    if failed {
        eprintln!(
            "ext_obs: FAIL: only {completed}/{} ops completed — the scripted run \
             must drain fully for the attribution to mean anything",
            writes + 1
        );
        return std::process::ExitCode::FAILURE;
    }
    std::process::ExitCode::SUCCESS
}
