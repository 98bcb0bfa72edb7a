//! **EXT-SWARM** — memory and throughput telemetry at swarm scale.
//!
//! Drives 1k/10k/100k live tag references (100/1k under
//! `MORENA_QUICK=1`, plus 1M when `MORENA_SWARM_MAX=1m`) across several
//! phones on the sharded worker pool and reports, per swarm size:
//!
//! * **bytes/ref** and **refs/GB** — the inspector's live
//!   `mem_bytes` roll-up, less the shards' parked completion-core
//!   freelists, divided across the reference population;
//! * **pool bytes** — those freelists on their own: how many cores they
//!   park depends on how many ops were in flight at once, so they measure
//!   scheduling rather than what keeping a reference costs;
//! * **sustained ops/sec** over the full submit→drain window;
//! * **allocs/op** — allocation pressure on the submit→attempt→complete
//!   path, from the `alloc-profile` counting allocator;
//! * **op latency p50/p99** from the `op.completion_ns` histogram,
//!   windowed with `MetricsSnapshot::delta` so only this run counts.
//!
//! Every run must end with the watchdog reporting `Healthy`; any other
//! verdict (or a lost completion) makes the binary exit non-zero. The
//! run always finishes by writing `BENCH_ext_swarm.json`.
//!
//! Flags: `--sizes 1000,10000` overrides the size ladder.

use std::process::ExitCode;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

use morena_bench::{cell, print_table, quick_mode, BenchReport};
use morena_core::context::MorenaContext;
use morena_core::convert::StringConverter;
use morena_core::policy::{Backoff, Policy};
use morena_core::sched::ExecutionPolicy;
use morena_core::tagref::TagReference;
use morena_nfc_sim::clock::SystemClock;
use morena_nfc_sim::link::LinkModel;
use morena_nfc_sim::tag::{TagTech, TagUid, Type2Tag};
use morena_nfc_sim::world::World;
use morena_obs::metrics::fmt_bytes;
use morena_obs::{profile, Health, Watchdog};

const PHONES: usize = 4;
const OPS_PER_REF: usize = 2;

struct RunResult {
    size: usize,
    ops: u64,
    elapsed: Duration,
    mem_bytes: u64,
    /// Of `mem_bytes`, the shards' parked completion-core freelists.
    pool_bytes: u64,
    allocs: u64,
    alloc_bytes: u64,
    p50_nanos: u64,
    p99_nanos: u64,
}

impl RunResult {
    fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    fn bytes_per_ref(&self) -> f64 {
        (self.mem_bytes - self.pool_bytes) as f64 / self.size as f64
    }

    fn refs_per_gb(&self) -> f64 {
        (1u64 << 30) as f64 / self.bytes_per_ref().max(1.0)
    }

    fn allocs_per_op(&self) -> f64 {
        self.allocs as f64 / (self.ops as f64).max(1.0)
    }
}

fn run(size: usize, seed: u64) -> Result<RunResult, String> {
    let world = World::with_link(Arc::new(SystemClock::new()), LinkModel::instant(), seed);
    // The whole backlog is queued up front, so the tail op's latency is
    // the full drain time — the timeout must scale with swarm size or
    // large ladders time out behind the head-of-line queue.
    let op_timeout = Duration::from_secs(300 + size as u64 / 50);
    let config = Policy::new()
        .with_timeout(op_timeout)
        .with_backoff(Backoff::constant(Duration::from_micros(100)));

    // Several phones, each with its own context and worker pool, tags
    // split evenly — the multi-device shape of the swarm_stress suite.
    let contexts: Vec<_> = (0..PHONES)
        .map(|p| {
            let phone = world.add_phone(&format!("swarm-{p}"));
            (phone, MorenaContext::headless_with(&world, phone, ExecutionPolicy::default()))
        })
        .collect();
    let references: Vec<_> = (0..size)
        .map(|i| {
            let (phone, ctx) = &contexts[i % PHONES];
            let uid = world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed(i as u32))));
            world.tap_tag(uid, *phone);
            TagReference::with_policy(
                ctx,
                uid,
                TagTech::Type2,
                Arc::new(StringConverter::plain_text()),
                config.clone(),
            )
        })
        .collect();

    // Window start: everything below is attributed to this run only.
    // Ops execute on the sharded worker pool, so the allocation scope
    // must be the process-global one — a thread scope would miss them.
    let before = world.obs().metrics().snapshot();
    let scope = profile::AllocScope::global();
    let started = Instant::now();

    let (done_tx, done_rx) = channel();
    for (i, reference) in references.iter().enumerate() {
        for op in 0..OPS_PER_REF {
            let done_tx = done_tx.clone();
            let fail_tx = done_tx.clone();
            reference.write(
                format!("r{i}-op{op}"),
                move |_| {
                    let _ = done_tx.send(Ok(()));
                },
                move |_, f| {
                    let _ = fail_tx.send(Err(f.to_string()));
                },
            );
        }
    }
    let ops = (size * OPS_PER_REF) as u64;
    for n in 0..ops {
        match done_rx.recv_timeout(op_timeout + Duration::from_secs(300)) {
            Ok(Ok(())) => {}
            Ok(Err(fault)) => {
                return Err(format!("size {size}: op failed permanently: {fault}"));
            }
            Err(_) => return Err(format!("size {size}: completion {n}/{ops} never arrived")),
        }
    }
    let elapsed = started.elapsed();
    let alloc = scope.stats();
    let window = world.obs().metrics().snapshot().delta(&before);

    // Steady state: every queue drained but all references still live —
    // the inspector's mem roll-up is the cost of *keeping* the swarm.
    let inspector = world.obs().inspector().snapshot(world.clock().now().as_nanos());
    let mem_bytes = inspector.total_mem_bytes();
    let pool_bytes = inspector.shards().map(|shard| shard.pool_bytes).sum();

    let report =
        Watchdog::default().evaluate_with_metrics(&inspector, &world.obs().metrics().snapshot());
    if report.health != Health::Healthy {
        return Err(format!(
            "size {size}: watchdog reported {:?} after drain: {:?}",
            report.health, report.findings
        ));
    }

    let completed = window.counter("ops.succeeded");
    if completed < ops {
        return Err(format!("size {size}: {completed}/{ops} ops succeeded in the window"));
    }
    for reference in references {
        reference.close();
    }

    let completion = window.histogram("op.completion_ns");
    Ok(RunResult {
        size,
        ops,
        elapsed,
        mem_bytes,
        pool_bytes,
        allocs: alloc.allocs,
        alloc_bytes: alloc.bytes,
        p50_nanos: completion.and_then(|h| h.p50()).unwrap_or(0),
        p99_nanos: completion.and_then(|h| h.p99()).unwrap_or(0),
    })
}

fn parse_sizes() -> Vec<usize> {
    let mut sizes = if quick_mode() { vec![100, 1000] } else { vec![1000, 10_000, 100_000] };
    if std::env::var("MORENA_SWARM_MAX").map(|v| v.eq_ignore_ascii_case("1m")).unwrap_or(false) {
        sizes.push(1_000_000);
    }
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--sizes" => {
                let list = args.next().expect("--sizes needs a comma-separated list");
                sizes = list
                    .split(',')
                    .map(|s| s.trim().parse().expect("--sizes entries must be integers"))
                    .collect();
            }
            other => panic!("unknown flag {other:?} (expected --sizes)"),
        }
    }
    sizes
}

fn main() -> ExitCode {
    let sizes = parse_sizes();
    let mut report = BenchReport::new("ext_swarm");
    report.config("sizes", sizes.iter().map(|s| s.to_string()).collect::<Vec<_>>().join(","));
    report.config("phones", PHONES);
    report.config("ops_per_ref", OPS_PER_REF);
    report.config("policy", "sharded");
    report.config("alloc_profile", profile::ENABLED);

    let mut results = Vec::new();
    let mut failure = None;
    for (i, &size) in sizes.iter().enumerate() {
        match run(size, 9000 + i as u64) {
            Ok(result) => {
                println!(
                    "size {size}: {} ops in {:.1}ms, mem {}, watchdog Healthy",
                    result.ops,
                    result.elapsed.as_secs_f64() * 1e3,
                    fmt_bytes(result.mem_bytes),
                );
                results.push(result);
            }
            Err(err) => {
                eprintln!("ext_swarm: FAIL: {err}");
                failure = Some(err);
                break;
            }
        }
    }

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                cell(r.size),
                cell(fmt_bytes(r.mem_bytes)),
                cell(fmt_bytes(r.pool_bytes)),
                cell(format!("{:.0}", r.bytes_per_ref())),
                cell(format!("{:.0}", r.refs_per_gb())),
                cell(format!("{:.0}", r.ops_per_sec())),
                cell(format!("{:.1}", r.allocs_per_op())),
                cell(format!("{}us", r.p50_nanos / 1_000)),
                cell(format!("{}us", r.p99_nanos / 1_000)),
            ]
        })
        .collect();
    print_table(
        "EXT-SWARM: live-reference footprint and sustained throughput",
        &["refs", "mem", "pool", "bytes/ref", "refs/GB", "ops/s", "allocs/op", "p50", "p99"],
        &rows,
    );
    if !profile::ENABLED {
        println!("\nallocs/op reads 0: built without the alloc-profile feature");
    }

    for r in &results {
        let at = format!("@{}", r.size);
        report.metric(&format!("ops_per_sec{at}"), r.ops_per_sec());
        report.metric(&format!("bytes_per_ref{at}"), r.bytes_per_ref());
        report.metric(&format!("pool_bytes{at}"), r.pool_bytes as f64);
        report.metric(&format!("refs_per_gb{at}"), r.refs_per_gb());
        report.metric(&format!("allocs_per_op{at}"), r.allocs_per_op());
        report.metric(&format!("alloc_bytes_per_op{at}"), {
            r.alloc_bytes as f64 / (r.ops as f64).max(1.0)
        });
        report.metric(&format!("op_p50_ns{at}"), r.p50_nanos as f64);
        report.metric(&format!("op_p99_ns{at}"), r.p99_nanos as f64);
    }
    report.metric("failed", if failure.is_some() { 1.0 } else { 0.0 });
    report.write().expect("write BENCH_ext_swarm.json");

    match failure {
        None => ExitCode::SUCCESS,
        Some(_) => ExitCode::FAILURE,
    }
}
