//! **EXT-RETRY** — quantifies §4's qualitative claim: *"operations that
//! fail due to tag disconnections are automatically retried, which is
//! not incorporated in the handcrafted version, in which the user must
//! manually reattempt the operation."*
//!
//! Workload: one write must reach a tag that is only intermittently in
//! range (a square-wave presence pattern — a user fumbling a tag near
//! the reader) over a noisy link.
//!
//! * **MORENA** — the write is submitted once; the middleware's event
//!   loop retries across noise and across presence windows.
//! * **handcrafted (1 try/tap)** — each tap triggers exactly one write
//!   attempt, as a naive raw-API app does; the user must keep tapping.
//! * **handcrafted (4 tries/tap)** — the more careful raw-API app with a
//!   bounded in-tap retry loop (what `morena-apps`' handcrafted version
//!   implements); still gives up between taps.
//!
//! Expected shape: MORENA succeeds on the first tap nearly always (its
//! attempts counter shows the hidden automatic retries); the baselines
//! need more taps as noise grows or windows shrink, because attempts do
//! not carry over between taps.

use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

use morena_baseline::ndef_tech::Ndef;
use morena_bench::{cell, median, print_table, quick_mode};
use morena_core::context::MorenaContext;
use morena_core::convert::StringConverter;
use morena_core::policy::{Backoff, Policy};
use morena_core::tagref::TagReference;
use morena_ndef::{NdefMessage, NdefRecord};
use morena_nfc_sim::clock::SystemClock;
use morena_nfc_sim::link::LinkModel;
use morena_nfc_sim::scenario::Scenario;
use morena_nfc_sim::tag::{TagTech, TagUid, Type2Tag};
use morena_nfc_sim::world::{NfcEvent, World};

const PERIOD: Duration = Duration::from_millis(200);

fn link(noise: f64) -> LinkModel {
    LinkModel {
        setup_latency: Duration::from_millis(1),
        per_byte_latency: Duration::from_micros(10),
        base_failure_prob: noise,
        edge_failure_prob: noise,
        ..LinkModel::realistic()
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct Outcome {
    success: bool,
    taps: usize,
    millis: f64,
    attempts: u64,
}

/// One MORENA trial: submit the write once, run the presence pattern,
/// and wait for the middleware to get it through.
fn morena_trial(duty: f64, noise: f64, cycles: usize, seed: u64) -> Outcome {
    let world = World::with_link(Arc::new(SystemClock::new()), link(noise), seed);
    let phone = world.add_phone("user");
    let uid = world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed(1))));
    let ctx = MorenaContext::headless(&world, phone);
    let reference = TagReference::with_policy(
        &ctx,
        uid,
        TagTech::Type2,
        Arc::new(StringConverter::plain_text()),
        Policy::new()
            .with_timeout(PERIOD * (cycles as u32 + 1))
            .with_backoff(Backoff::constant(Duration::from_millis(2))),
    );
    let (tx, rx) = channel();
    let err_tx = tx.clone();
    let start = Instant::now();
    reference.write(
        "w".to_string(),
        move |_| {
            let _ = tx.send(true);
        },
        move |_, _| {
            let _ = err_tx.send(false);
        },
    );
    let driver =
        Scenario::new().presence_duty_cycle(uid, phone, PERIOD, duty, cycles).spawn(&world);
    let success = rx.recv_timeout(PERIOD * (cycles as u32 + 2)).unwrap_or(false);
    let elapsed = start.elapsed();
    driver.join().expect("scenario driver");
    let stats = reference.stats().snapshot();
    reference.close();
    Outcome {
        success,
        taps: (elapsed.as_millis() as usize / PERIOD.as_millis() as usize) + 1,
        millis: elapsed.as_secs_f64() * 1e3,
        attempts: stats.attempts,
    }
}

/// One handcrafted trial: each tap triggers `tries_per_tap` blocking
/// write attempts; nothing carries over between taps.
fn handcrafted_trial(
    duty: f64,
    noise: f64,
    cycles: usize,
    tries_per_tap: usize,
    seed: u64,
) -> Outcome {
    let world = World::with_link(Arc::new(SystemClock::new()), link(noise), seed);
    let phone = world.add_phone("user");
    let uid = world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed(1))));
    let nfc = morena_nfc_sim::controller::NfcHandle::new(world.clone(), phone);
    let events = nfc.events();
    let message =
        NdefMessage::single(NdefRecord::mime("text/plain", b"w".to_vec()).expect("record"));

    let start = Instant::now();
    let driver =
        Scenario::new().presence_duty_cycle(uid, phone, PERIOD, duty, cycles).spawn(&world);

    let mut taps = 0usize;
    let mut attempts = 0u64;
    let mut success = false;
    let deadline = Instant::now() + PERIOD * (cycles as u32 + 2);
    while !success && Instant::now() < deadline {
        match events.recv_timeout(Duration::from_millis(20)) {
            Ok(NfcEvent::TagEntered { .. }) => {
                taps += 1;
                let mut ndef = Ndef::get(nfc.clone(), uid);
                for _ in 0..tries_per_tap {
                    attempts += 1;
                    let ok =
                        ndef.connect().and_then(|()| ndef.write_ndef_message(&message)).is_ok();
                    ndef.close();
                    if ok {
                        success = true;
                        break;
                    }
                    if !nfc.tag_in_range(uid) {
                        break; // the tap is over; wait for the user
                    }
                }
            }
            _ => {
                if taps >= cycles {
                    break; // the user gave up
                }
            }
        }
    }
    let elapsed = start.elapsed();
    driver.join().expect("scenario driver");
    Outcome { success, taps, millis: elapsed.as_secs_f64() * 1e3, attempts }
}

struct Aggregate {
    success_pct: f64,
    taps_median: f64,
    attempts_median: f64,
    millis_median: f64,
}

fn aggregate(outcomes: &[Outcome]) -> Aggregate {
    let successes: Vec<&Outcome> = outcomes.iter().filter(|o| o.success).collect();
    let mut taps: Vec<f64> = successes.iter().map(|o| o.taps as f64).collect();
    let mut attempts: Vec<f64> = successes.iter().map(|o| o.attempts as f64).collect();
    let mut millis: Vec<f64> = successes.iter().map(|o| o.millis).collect();
    Aggregate {
        success_pct: 100.0 * successes.len() as f64 / outcomes.len() as f64,
        taps_median: median(&mut taps),
        attempts_median: median(&mut attempts),
        millis_median: median(&mut millis),
    }
}

fn run_row(duty: f64, noise: f64, cycles: usize, trials: usize) -> (Aggregate, Vec<String>) {
    // Distinct RNG seeds per configuration so rows do not share luck.
    let base = (duty * 1000.0) as u64 * 100_000 + (noise * 1000.0) as u64 * 100;
    let morena: Vec<Outcome> =
        (0..trials).map(|t| morena_trial(duty, noise, cycles, base + t as u64)).collect();
    let naive: Vec<Outcome> = (0..trials)
        .map(|t| handcrafted_trial(duty, noise, cycles, 1, base + 41 + t as u64))
        .collect();
    let careful: Vec<Outcome> = (0..trials)
        .map(|t| handcrafted_trial(duty, noise, cycles, 4, base + 83 + t as u64))
        .collect();
    let (m, n, c) = (aggregate(&morena), aggregate(&naive), aggregate(&careful));
    let row = vec![
        cell(format!("{duty:.1}")),
        cell(format!("{noise:.2}")),
        cell(format!("{:.0}%", m.success_pct)),
        cell(format!("{:.0}", m.taps_median)),
        cell(format!("{:.0}", m.attempts_median)),
        cell(format!("{:.0}ms", m.millis_median)),
        cell(format!("{:.0}%", n.success_pct)),
        cell(format!("{:.0}", n.taps_median)),
        cell(format!("{:.0}%", c.success_pct)),
        cell(format!("{:.0}", c.taps_median)),
    ];
    (m, row)
}

fn main() -> std::process::ExitCode {
    let quick = quick_mode();
    let trials = if quick { 3 } else { 8 };
    let cycles = if quick { 8 } else { 12 };
    let header = [
        "duty", "noise", "M ok", "M taps", "M tries", "M time", "B1 ok", "B1 taps", "B4 ok",
        "B4 taps",
    ];

    let mut report = morena_bench::BenchReport::new("ext_retry");
    report.config("trials", trials);
    report.config("cycles", cycles);
    let mut morena_aggregates = Vec::new();

    // Sweep 1: presence duty cycle at a fixed noisy link.
    let mut rows = Vec::new();
    for duty in [0.1, 0.2, 0.3, 0.5, 0.7, 0.9] {
        let (m, row) = run_row(duty, 0.20, cycles, trials);
        report.metric(&format!("morena_success_pct@duty{duty:.1}"), m.success_pct);
        morena_aggregates.push(m);
        rows.push(row);
    }
    print_table(
        "EXT-RETRY: write under intermittent presence (noise 20% per exchange)",
        &header,
        &rows,
    );

    // Sweep 2: link noise at a fixed half-open presence window.
    let mut rows = Vec::new();
    for noise in [0.0, 0.1, 0.2, 0.3, 0.4] {
        let (m, row) = run_row(0.5, noise, cycles, trials);
        report.metric(&format!("morena_success_pct@noise{noise:.2}"), m.success_pct);
        morena_aggregates.push(m);
        rows.push(row);
    }
    print_table("EXT-RETRY: write under link noise (duty 0.5)", &header, &rows);

    println!(
        "\nM = MORENA (one submission, automatic retry; 'tries' = physical attempts the\n\
         middleware made invisibly). B1/B4 = handcrafted with 1 / 4 attempts per tap;\n\
         the user must re-tap until success. Expected shape: MORENA ~100% success on\n\
         the first tap throughout; baseline taps grow with noise and shrink with duty."
    );

    let mean_success = morena_aggregates.iter().map(|a| a.success_pct).sum::<f64>()
        / morena_aggregates.len() as f64;
    report.metric("morena_mean_success_pct", mean_success);
    // Threshold far below the expected ~100%: this gate catches a broken
    // retry path, not statistical noise in a 3-trial quick run.
    let failed = mean_success < 60.0;
    report.metric("failed", if failed { 1.0 } else { 0.0 });
    report.write().expect("write BENCH_ext_retry.json");
    if failed {
        eprintln!(
            "ext_retry: FAIL: MORENA mean success {mean_success:.0}% below the 60% floor — \
             automatic retry is not doing its job"
        );
        return std::process::ExitCode::FAILURE;
    }
    std::process::ExitCode::SUCCESS
}
