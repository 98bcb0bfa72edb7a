//! Middleware thread census: the context's `morena-*` threads are its
//! pool workers and nothing else, no matter how many far references
//! exist, whether a discoverer runs, or how many tags it pre-reads at
//! once.
//!
//! This file holds exactly one test on purpose: the census walks
//! `/proc/self/task`, so a sibling test running concurrently in the same
//! process would pollute the count.

use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Duration;

use morena::core::policy::{Backoff, Policy};
use morena::obs::inspect::ShardSnapshot;
use morena::prelude::*;

/// Names of all live threads in this process that belong to the
/// middleware (`morena-*`), read from the kernel's per-task `comm`.
fn morena_threads() -> Vec<String> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
        .map(|comm| comm.trim().to_string())
        .filter(|comm| comm.starts_with("morena"))
        .collect()
}

/// Counts blank-tag sightings.
struct CountBlanks(std::sync::mpsc::Sender<()>);

impl DiscoveryListener<StringConverter> for CountBlanks {
    fn on_tag_detected(&self, _: TagReference<StringConverter>) {}
    fn on_tag_redetected(&self, _: TagReference<StringConverter>) {}
    fn on_empty_tag(&self, _: TagReference<StringConverter>) {
        self.0.send(()).unwrap();
    }
}

/// Loops pinned to the context's shards, as the inspector reports them.
fn loops_owned(world: &World) -> u64 {
    let snapshot = world.obs().inspector().snapshot(0);
    snapshot.shards().map(|s: &ShardSnapshot| s.loops_owned).sum()
}

#[test]
fn sharded_pool_bounds_middleware_threads_at_scale() {
    const REFS: usize = 128;
    const WORKERS: usize = 4;

    let world = World::with_link(SystemClock::shared(), LinkModel::instant(), 99);
    let phone = world.add_phone("census");
    let ctx =
        MorenaContext::headless_with(&world, phone, ExecutionPolicy::Sharded { workers: WORKERS });

    let (done_tx, done_rx) = channel();
    let references: Vec<_> = (0..REFS)
        .map(|i| {
            let uid = world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed(i as u32))));
            world.tap_tag(uid, phone);
            let reference = TagReference::with_policy(
                &ctx,
                uid,
                TagTech::Type2,
                Arc::new(StringConverter::plain_text()),
                Policy::new()
                    .with_timeout(Duration::from_secs(60))
                    .with_backoff(Backoff::constant(Duration::from_micros(200))),
            );
            let done_tx = done_tx.clone();
            reference.write(
                format!("census-{i}"),
                move |_| done_tx.send(()).unwrap(),
                |_, f| panic!("census write failed: {f}"),
            );
            reference
        })
        .collect();

    // Census while every loop is live and has work queued or in flight.
    if std::path::Path::new("/proc/self/task").exists() {
        // A thread names itself once it first runs.
        let named_by = std::time::Instant::now() + Duration::from_secs(10);
        while morena_threads().iter().filter(|n| n.starts_with("morena-sched")).count() < WORKERS {
            assert!(std::time::Instant::now() < named_by, "the workers never named themselves");
            std::thread::sleep(Duration::from_millis(1));
        }
        let names = morena_threads();
        let sched = names.iter().filter(|n| n.starts_with("morena-sched")).count();
        let loops = names.iter().filter(|n| n.starts_with("morena-loop")).count();
        assert!(sched <= WORKERS, "worker pool exceeded with {REFS} refs: {names:?}");
        assert_eq!(loops, 0, "sharded policy must not spawn per-loop threads: {names:?}");
        // The pool and nothing else; nothing scales with REFS.
        assert_eq!(names.len(), WORKERS, "middleware threads beyond the pool: {names:?}");
    }

    // The bounded pool still resolves every operation exactly once.
    for _ in 0..REFS {
        done_rx.recv_timeout(Duration::from_secs(60)).expect("write resolves");
    }
    assert!(done_rx.try_recv().is_err(), "no duplicate completions");
    assert_eq!(loops_owned(&world), REFS as u64);

    // Discovery: tapping a burst of badges at once dispatches every
    // sighting and runs every pre-read on the same pool. No thread is
    // added, and the shards count the loops of the references minted, not
    // the router or the pre-reads.
    const BADGES: usize = 200;
    let (seen_tx, seen_rx) = channel();
    let disco = TagDiscoverer::new(
        &ctx,
        Arc::new(StringConverter::plain_text()),
        Arc::new(CountBlanks(seen_tx)),
    );
    let census = std::path::Path::new("/proc/self/task").exists();
    let before = morena_threads();
    for i in 0..BADGES {
        let uid = world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed((REFS + i) as u32))));
        world.tap_tag(uid, phone);
    }
    if census {
        assert_eq!(morena_threads(), before, "a burst of taps started a thread");
        assert_eq!(before.len(), WORKERS, "the pool and nothing else, got {before:?}");
        assert!(
            !before.iter().any(|n| n == "morena-router" || n.starts_with("morena-discov")),
            "an event thread: {before:?}"
        );
    }
    for _ in 0..BADGES {
        seen_rx.recv_timeout(Duration::from_secs(60)).expect("badge detected");
    }
    if census {
        assert_eq!(morena_threads(), before, "the pre-reads started a thread");
    }
    assert_eq!(disco.references().len(), BADGES);
    assert_eq!(loops_owned(&world), (REFS + BADGES) as u64, "shards count loops only");
    for reference in references.into_iter().chain(disco.references()) {
        reference.close();
    }
}
