//! **EXT-SCHED** — the sharded worker pool at swarm scale.
//!
//! Workload: one headless context, N far references to N tags all in
//! range over an instant link, each reference queueing a small write
//! backlog. The run measures wall-clock time until every operation
//! resolves, derives throughput, takes a `/proc/self/task` census of
//! middleware (`morena-*`) threads while the swarm is live, and reads
//! back the `scheduler.*` metrics.
//!
//! A second phase drives the **cached-read hot loop** — one null-executor
//! event loop, `submit→attempt→complete` with the futures API and
//! nothing else — and holds its steady state to **zero
//! allocations per op** (asserted in-process whenever the
//! `alloc-profile` allocator is compiled in, and gated in CI through
//! `benches/baseline.json`).
//!
//! A third phase writes over a link with air time: every exchange waits
//! on its shard's timer heap, so each attempt resumes once per command.
//! Its near-deterministic allocations per op are gated in CI.
//!
//! Flags:
//!
//! * `--sizes 100,1000` — comma-separated swarm sizes (default
//!   `100,1000,10000`; `MORENA_QUICK=1` drops the largest size).
//! * `--json PATH` — additionally write one JSON object per run to
//!   `PATH` (a JSON array), for CI artifact upload.

use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

use morena_bench::{cell, print_table, quick_mode, BenchReport};
use morena_core::bench_hooks::HotLoop;
use morena_core::context::MorenaContext;
use morena_core::convert::StringConverter;
use morena_core::policy::{Backoff, Policy};
use morena_core::sched::ExecutionPolicy;
use morena_core::tagref::TagReference;
use morena_nfc_sim::clock::SystemClock;
use morena_nfc_sim::link::LinkModel;
use morena_nfc_sim::tag::{TagTech, TagUid, Type2Tag};
use morena_nfc_sim::world::World;
use morena_obs::profile::{self, AllocScope};

const OPS_PER_REF: usize = 2;

struct RunResult {
    size: usize,
    workers: usize,
    ops: usize,
    elapsed: Duration,
    threads: usize,
    allocs: u64,
    polls: u64,
    parks: u64,
    wakeups: u64,
    timer_fires: u64,
    poll_p50_nanos: u64,
}

impl RunResult {
    fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    fn allocs_per_op(&self) -> f64 {
        self.allocs as f64 / (self.ops as f64).max(1.0)
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"size\":{},\"policy\":\"sharded\",\"workers\":{},\"ops\":{},\
             \"elapsed_ms\":{:.3},\"ops_per_sec\":{:.1},\"allocs_per_op\":{:.2},\
             \"morena_threads\":{},\
             \"scheduler\":{{\"polls\":{},\"parks\":{},\"wakeups\":{},\
             \"timer_fires\":{},\"poll_p50_nanos\":{}}}}}",
            self.size,
            self.workers,
            self.ops,
            self.elapsed.as_secs_f64() * 1e3,
            self.ops_per_sec(),
            self.allocs_per_op(),
            self.threads,
            self.polls,
            self.parks,
            self.wakeups,
            self.timer_fires,
            self.poll_p50_nanos,
        )
    }
}

/// Live `morena-*` threads in this process, via the kernel's per-task
/// `comm` (empty on non-Linux hosts — the census column reads 0 there).
fn morena_thread_count() -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
        .filter(|comm| comm.trim().starts_with("morena"))
        .count()
}

fn run(size: usize, seed: u64) -> RunResult {
    let world = World::with_link(Arc::new(SystemClock::new()), LinkModel::instant(), seed);
    let phone = world.add_phone("bench");
    let ctx = MorenaContext::headless(&world, phone);
    let ExecutionPolicy::Sharded { workers } = ctx.execution_policy() else {
        unreachable!("the worker pool is the only execution engine")
    };

    let references: Vec<_> = (0..size)
        .map(|i| {
            let uid = world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed(i as u32))));
            world.tap_tag(uid, phone);
            TagReference::with_policy(
                &ctx,
                uid,
                TagTech::Type2,
                Arc::new(StringConverter::plain_text()),
                Policy::new()
                    .with_timeout(Duration::from_secs(300))
                    .with_backoff(Backoff::constant(Duration::from_micros(100))),
            )
        })
        .collect();

    // Window start: the scope and the metrics delta cover exactly the
    // submit→attempt→complete path, not world or reference setup. Ops
    // run on pool workers, so the scope must be the global one.
    let before = world.obs().metrics().snapshot();
    let scope = AllocScope::global();
    let (done_tx, done_rx) = channel();
    let started = Instant::now();
    for (i, reference) in references.iter().enumerate() {
        for op in 0..OPS_PER_REF {
            let done_tx = done_tx.clone();
            reference.write(
                format!("r{i}-op{op}"),
                move |_| {
                    let _ = done_tx.send(());
                },
                |_, f| panic!("bench write failed: {f}"),
            );
        }
    }

    // Census while every loop is live and the backlog is draining.
    let threads = morena_thread_count();

    let ops = size * OPS_PER_REF;
    for _ in 0..ops {
        done_rx.recv_timeout(Duration::from_secs(300)).expect("op resolves");
    }
    let elapsed = started.elapsed();
    let allocs = scope.stats().allocs;
    let window = world.obs().metrics().snapshot().delta(&before);
    for reference in references {
        reference.close();
    }

    RunResult {
        size,
        workers,
        ops,
        elapsed,
        threads,
        allocs,
        polls: window.counter("scheduler.polls"),
        parks: window.counter("scheduler.parks"),
        wakeups: window.counter("scheduler.wakeups"),
        timer_fires: window.counter("scheduler.timer_fires"),
        poll_p50_nanos: window.histogram("scheduler.poll_ns").and_then(|h| h.p50()).unwrap_or(0),
    }
}

/// Allocations per write over a link with air time: 200 references,
/// one write each per round, measured on the second round so the
/// completion-core freelist is warm. One write per reference means no
/// submission wakes a loop whose attempt is on the air.
fn run_waiting_link() -> f64 {
    const REFS: usize = 200;
    let world = World::with_link(Arc::new(SystemClock::new()), LinkModel::reliable(), 7);
    let phone = world.add_phone("bench");
    let ctx = MorenaContext::headless(&world, phone);
    let converter = Arc::new(StringConverter::plain_text());
    let references: Vec<_> = (0..REFS as u32)
        .map(|seed| {
            let uid = world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed(seed))));
            world.tap_tag(uid, phone);
            TagReference::new(&ctx, uid, TagTech::Type2, Arc::clone(&converter))
        })
        .collect();
    let round = |label: &str| {
        let (done_tx, done_rx) = channel();
        for (i, reference) in references.iter().enumerate() {
            let done_tx = done_tx.clone();
            reference.write_ok(format!("{label}-{i}"), move |_| done_tx.send(()).unwrap_or(()));
        }
        for _ in 0..REFS {
            done_rx.recv_timeout(Duration::from_secs(60)).expect("write resolves");
        }
    };
    round("warm");
    let scope = AllocScope::global();
    round("gate");
    scope.stats().allocs as f64 / REFS as f64
}

struct CachedReadResult {
    ops: usize,
    elapsed: Duration,
    allocs: u64,
}

impl CachedReadResult {
    fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    fn allocs_per_op(&self) -> f64 {
        self.allocs as f64 / (self.ops as f64).max(1.0)
    }
}

/// The raw submit→attempt→complete round over a null executor: the shape
/// of a cached read, with the simulated world out of the measurement.
/// After a warm-up that fills the completion-core freelist (and every
/// queue's high-water capacity), the steady state must not allocate.
fn run_cached_read() -> CachedReadResult {
    let hot = HotLoop::new();
    for _ in 0..1_000 {
        hot.read_once();
    }
    let ops = if quick_mode() { 20_000 } else { 200_000 };
    let scope = AllocScope::global();
    let started = Instant::now();
    for _ in 0..ops {
        hot.read_once();
    }
    let elapsed = started.elapsed();
    let allocs = scope.stats().allocs;
    if profile::ENABLED {
        assert_eq!(
            allocs, 0,
            "cached-read steady state allocated ({allocs} allocations over {ops} ops)"
        );
    }
    CachedReadResult { ops, elapsed, allocs }
}

fn parse_args() -> (Vec<usize>, Option<String>) {
    let mut sizes = if quick_mode() { vec![100, 1000] } else { vec![100, 1000, 10_000] };
    let mut json = None;
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
            "--json" => json = Some(args.next().expect("--json needs a path")),
            other => panic!("unknown flag {other:?} (expected --sizes or --json)"),
        }
    }
    (sizes, json)
}

fn main() {
    let (sizes, json_path) = parse_args();
    let mut report = BenchReport::new("ext_sched");
    report.config("ops_per_ref", OPS_PER_REF);

    // Seed `1000 + 2i + 1` per size: each row rebuilds the world its
    // committed baseline gate in benches/baseline.json was measured on.
    let results: Vec<RunResult> =
        sizes.iter().enumerate().map(|(i, &size)| run(size, 1000 + (i * 2 + 1) as u64)).collect();

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                cell(r.size),
                cell(r.workers),
                cell(r.ops),
                cell(format!("{:.1}ms", r.elapsed.as_secs_f64() * 1e3)),
                cell(format!("{:.0}", r.ops_per_sec())),
                cell(format!("{:.1}", r.allocs_per_op())),
                cell(r.threads),
                cell(r.polls),
                cell(r.parks),
                cell(r.wakeups),
            ]
        })
        .collect();
    print_table(
        "EXT-SCHED: the sharded worker pool at swarm scale",
        &[
            "refs",
            "workers",
            "ops",
            "elapsed",
            "ops/s",
            "allocs/op",
            "threads",
            "polls",
            "parks",
            "wakeups",
        ],
        &rows,
    );
    println!(
        "\nthreads = live morena-* threads mid-run: the worker pool plus the\n\
         event router, flat as refs grow."
    );
    for r in &results {
        println!("sched-json: {}", r.to_json());
    }

    if let Some(path) = json_path {
        let body: Vec<String> = results.iter().map(RunResult::to_json).collect();
        std::fs::write(&path, format!("[{}]\n", body.join(","))).expect("write --json output file");
        println!("\nwrote {} runs -> {path}", results.len());
    }

    for r in &results {
        report.metric(&format!("ops_per_sec@{}_sharded", r.size), r.ops_per_sec());
        report.metric(&format!("allocs_per_op@{}_sharded", r.size), r.allocs_per_op());
    }

    // Phase 2: the futures hot loop, no world attached.
    let cached = run_cached_read();
    print_table(
        "EXT-SCHED: cached-read hot loop (null executor, futures API)",
        &["ops", "elapsed", "ops/s", "allocs/op"],
        &[vec![
            cell(cached.ops),
            cell(format!("{:.1}ms", cached.elapsed.as_secs_f64() * 1e3)),
            cell(format!("{:.0}", cached.ops_per_sec())),
            cell(format!("{:.3}", cached.allocs_per_op())),
        ]],
    );
    println!(
        "\nallocs/op above covers the whole submit->attempt->complete round\n\
         after warm-up; with the alloc-profile allocator compiled in it is\n\
         asserted to be exactly 0 ({}).",
        if profile::ENABLED { "enabled in this build" } else { "disabled in this build" }
    );
    report.metric("ops_per_sec@cached_read_sharded", cached.ops_per_sec());
    report.metric("allocs_per_op@cached_read_sharded", cached.allocs_per_op());

    // Phase 3: writes over a link with air time.
    let waiting = run_waiting_link();
    println!("\nwrites over a link with air time (LinkModel::reliable): {waiting:.2} allocs/op");
    report.metric("allocs_per_op@waiting_link", waiting);
    report.write().expect("write BENCH_ext_sched.json");
}
