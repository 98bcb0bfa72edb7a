//! How long a far reference outlives the application's last handle.
//!
//! A push object (`Beamer`, `PeerReference`) dies with its last handle:
//! its queued pushes fail with `Cancelled` at once. A `TagReference`
//! whose queued op has a listener stays alive until that op completes,
//! because exactly-once delivery hands the tag listener a live
//! reference; push listeners take none. The inspector's loop list
//! shows each loop's lifetime.

use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

use morena::prelude::*;

/// Event loops the inspector lists right now.
fn loops(world: &World) -> usize {
    world.obs().inspector().snapshot(0).loops().count()
}

/// Waits up to ten seconds for the inspector to list `n` loops.
fn await_loops(world: &World, n: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while loops(world) != n {
        assert!(Instant::now() < deadline, "{} loops listed, expected {n}", loops(world));
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn dropping_the_last_push_handle_cancels_its_queued_push() {
    let world = World::with_link(VirtualClock::shared(), LinkModel::instant(), 31);
    let alice = world.add_phone("alice");
    let bob = world.add_phone("bob");
    let ctx = MorenaContext::headless(&world, alice);
    let idle = loops(&world);

    let conv = Arc::new(StringConverter::plain_text());
    let beamer = Beamer::new(&ctx, Arc::clone(&conv));
    let to_bob = PeerReference::new(&ctx, bob, conv);
    let (tx, rx) = channel();
    let beam_tx = tx.clone();
    beamer.beam(
        "queued".into(),
        || panic!("no peer is near"),
        move |f| beam_tx.send(("beamer", f)).unwrap(),
    );
    to_bob.send(
        "queued".into(),
        || panic!("bob is not near"),
        move |f| tx.send(("peer", f)).unwrap(),
    );
    assert_eq!(loops(&world), idle + 2);

    drop((beamer, to_bob));
    let mut failures: Vec<_> = (0..2)
        .map(|_| rx.recv_timeout(Duration::from_millis(500)).expect("Cancelled within 500 ms"))
        .collect();
    failures.sort_by_key(|(object, _)| *object);
    assert_eq!(failures, [("beamer", OpFailure::Cancelled), ("peer", OpFailure::Cancelled)]);
    // A stopped loop that had armed its op's deadline on the shard's
    // timer heap stays listed until that instant passes, so only its
    // queue is checked here.
    let snapshot = world.obs().inspector().snapshot(0);
    assert!(snapshot.loops().all(|l| l.queue_depth == 0), "no push left queued");
}

#[test]
fn a_tag_reference_with_a_listener_op_queued_outlives_its_last_handle() {
    let world = World::with_link(Arc::new(SystemClock::new()), LinkModel::instant(), 32);
    let phone = world.add_phone("phone");
    let ctx = MorenaContext::headless(&world, phone);
    // The tag exists but never enters the field.
    let uid = world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed(9))));
    let idle = loops(&world);

    let reference =
        TagReference::new(&ctx, uid, TagTech::Type2, Arc::new(StringConverter::plain_text()));
    let (tx, rx) = channel();
    let started = Instant::now();
    reference.write_with_timeout(
        "late".into(),
        Duration::from_millis(300),
        |_| panic!("the tag never comes"),
        move |reference, failure| {
            tx.send((failure, reference.is_closed(), Instant::now())).unwrap()
        },
    );
    drop(reference);

    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(loops(&world), idle + 1, "the queued op keeps the reference alive");
    let (failure, closed, at) = rx.recv_timeout(Duration::from_secs(10)).expect("a failure");
    assert_eq!(failure, OpFailure::TimedOut);
    assert!(!closed, "the listener gets a live reference");
    assert!(at - started >= Duration::from_millis(300), "not before the deadline");
    assert!(rx.recv_timeout(Duration::from_millis(200)).is_err(), "delivered once");
    await_loops(&world, idle);
}
