//! Radio air time is waited out on the shard's timer heap, not by
//! blocking the worker: an exchange is put on the air in one poll and
//! lands in a later one, while the worker polls other loops.
//!
//! Every scenario runs on one worker and a manual `VirtualClock`, which
//! the test steps from one registered deadline to the next. Each wait on
//! the middleware is bounded in real time, so a worker that blocked on
//! the clock would fail the test rather than hang it.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use morena::prelude::*;
use morena::sim::clock::SimInstant;
use morena::sim::proto::{read_ndef, DirectLink, Transceive};
use morena::sim::tag::type2;

/// The longest any single wait on the middleware may take in real time.
const BOUND: Duration = Duration::from_secs(5);

/// The most deadlines [`Rig::step_until`] steps through.
const MAX_STEPS: usize = 1000;

fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + BOUND;
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_micros(200));
    }
}

fn encode(text: &str) -> Vec<u8> {
    StringConverter::plain_text().to_message(&text.to_string()).expect("encodable").to_bytes()
}

/// The air time and exchange count of writing `text` to a fresh tag with
/// the blocking controller API, on an auto-advancing clock.
fn one_write(text: &str) -> (Duration, u64) {
    let clock = VirtualClock::shared();
    let world = World::with_link(clock.clone(), LinkModel::reliable(), 1);
    let phone = world.add_phone("reference");
    let uid = world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed(99))));
    world.tap_tag(uid, phone);
    let started = clock.now();
    NfcHandle::new(world.clone(), phone).ndef_write(uid, &encode(text)).expect("reliable link");
    (clock.now().saturating_since(started), world.radio_stats().exchanges)
}

/// A world on a manual clock with one phone, fresh tags in its field, and
/// a context on one worker holding a reference to each tag.
struct Rig {
    clock: Arc<VirtualClock>,
    world: World,
    phone: PhoneId,
    tags: Vec<(TagReference<StringConverter>, TagUid)>,
    /// Writes submitted.
    writes: Cell<usize>,
    /// Writes whose success listener has run.
    done: Arc<AtomicUsize>,
}

impl Rig {
    fn new(link: LinkModel, tags: u32) -> Rig {
        let clock = Arc::new(VirtualClock::with_auto_advance(false));
        let world = World::with_link(clock.clone(), link, 1);
        let phone = world.add_phone("reader");
        // Tapped before the context subscribes, so no field event wakes a
        // loop while the test steps the clock.
        let uids: Vec<TagUid> = (1..=tags)
            .map(|seed| {
                let uid = world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed(seed))));
                world.tap_tag(uid, phone);
                uid
            })
            .collect();
        let ctx =
            MorenaContext::headless_with(&world, phone, ExecutionPolicy::Sharded { workers: 1 });
        let policy = Policy::new()
            .with_timeout(Duration::from_secs(600))
            .with_backoff(Backoff::constant(Duration::from_millis(1)));
        let tags = uids
            .into_iter()
            .map(|uid| {
                let converter = Arc::new(StringConverter::plain_text());
                let tag =
                    TagReference::with_policy(&ctx, uid, TagTech::Type2, converter, policy.clone());
                (tag, uid)
            })
            .collect();
        Rig { clock, world, phone, tags, writes: Cell::new(0), done: Arc::new(AtomicUsize::new(0)) }
    }

    fn write(&self, tag: &TagReference<StringConverter>, text: &str) {
        self.writes.set(self.writes.get() + 1);
        let done = Arc::clone(&self.done);
        tag.write(
            text.to_string(),
            move |_| {
                done.fetch_add(1, Ordering::SeqCst);
            },
            |_, failure| panic!("the write must not fail: {failure}"),
        );
    }

    fn done(&self) -> usize {
        self.done.load(Ordering::SeqCst)
    }

    fn exchanges(&self) -> u64 {
        self.world.radio_stats().exchanges
    }

    fn counter(&self, name: &str) -> u64 {
        self.world.obs().metrics().snapshot().counter(name)
    }

    /// Waits until the worker is parked on a registered deadline (or all
    /// `writes` have completed).
    fn settle(&self, writes: usize) {
        wait_for("the worker to park on a deadline", || {
            self.done() == writes || self.clock.finite_waiters() == 1
        });
    }

    fn advance_to(&self, at: SimInstant) {
        self.clock.advance(at.saturating_since(self.clock.now()));
    }

    /// Advances to the earliest registered deadline and waits until the
    /// worker has acted on it and parked again, or until all `writes`
    /// have completed. Exact while no field event wakes a loop.
    fn step(&self, writes: usize) {
        let mut next = None;
        wait_for("a deadline to advance to", || {
            next = self.clock.next_deadline();
            next.is_some() || self.done() == writes
        });
        let Some(next) = next else { return };
        let parks = self.counter("scheduler.parks");
        self.advance_to(next);
        wait_for("the worker to act on the deadline", || {
            self.done() == writes
                || (self.counter("scheduler.parks") > parks && self.clock.finite_waiters() == 1)
        });
    }

    /// Steps from deadline to deadline until `until` holds. Panics with
    /// the exchange count reached when it still does not hold after
    /// [`MAX_STEPS`] steps, or once every write is done and nothing waits
    /// on the clock.
    fn step_until(&self, what: &str, mut until: impl FnMut() -> bool) {
        let writes = self.writes.get();
        for _ in 0..MAX_STEPS {
            if until() {
                return;
            }
            if self.done() == writes && self.clock.next_deadline().is_none() {
                break;
            }
            self.step(writes);
        }
        assert!(
            until(),
            "never reached {what}: stopped at {} exchanges with {}/{writes} writes done",
            self.exchanges(),
            self.done()
        );
    }

    /// The tag's first 176 bytes of memory, read straight off the
    /// emulator.
    fn memory(&self, uid: TagUid) -> Vec<u8> {
        self.world
            .with_tag(uid, |tag| {
                let mut link = DirectLink::new(tag);
                (0..44u8)
                    .step_by(4)
                    .flat_map(|page| link.transceive(&[type2::CMD_READ, page]).expect("READ"))
                    .collect()
            })
            .expect("tag in the world")
    }

    /// The NDEF message bytes on the tag, read straight off the emulator.
    fn stored(&self, uid: TagUid) -> Vec<u8> {
        self.world
            .with_tag(uid, |tag| read_ndef(&mut DirectLink::new(tag), TagTech::Type2))
            .expect("tag in the world")
            .expect("an NDEF TLV")
    }
}

/// With one worker and two loops, both put an exchange on the air before
/// any time passes, and both writes finish after one write's air time.
#[test]
fn one_worker_keeps_two_exchanges_on_the_air() {
    let (air_time, _) = one_write("first");
    let rig = Rig::new(LinkModel::reliable(), 2);
    let started = rig.clock.now();
    rig.write(&rig.tags[0].0, "first");
    rig.write(&rig.tags[1].0, "other");
    wait_for("both loops to begin an exchange", || {
        rig.exchanges() == 2 && rig.clock.finite_waiters() == 1
    });
    assert_eq!(rig.clock.now(), started, "no time passed");
    rig.step_until("both writes done", || rig.done() == 2);
    assert_eq!(rig.clock.now().saturating_since(started), air_time, "the writes overlapped");
}

/// A command's effect lands when its air time ends, so a tag pulled away
/// during the last command of a write is left torn; the retry on the next
/// tap repairs it.
#[test]
fn effects_land_when_the_air_time_ends() {
    // Two messages of one length: the same commands, one page apart.
    let (first, second) = ("first value!", "second value");
    let (_, commands) = one_write(first);
    let rig = Rig::new(LinkModel::reliable(), 1);
    let (tag, uid) = &rig.tags[0];
    let uid = *uid;

    rig.write(tag, first);
    rig.settle(1);
    rig.step_until("the last command on the air", || rig.exchanges() == commands);
    // The last command is on the air: nothing of it is on the tag until
    // its done_at.
    let before = rig.memory(uid);
    let landing = rig.clock.next_deadline().expect("the last command's done_at");
    rig.advance_to(SimInstant::from_nanos(landing.as_nanos() - 1));
    assert_eq!(rig.memory(uid), before, "the last command landed early");
    rig.step(1);
    wait_for("the first write to complete", || rig.done() == 1);
    assert_ne!(rig.memory(uid), before, "the last command never landed");
    assert_eq!(rig.stored(uid), encode(first));

    // Reading the tag through `with_tag` above dropped the phone's
    // detection of it, so the second write reads the capability container
    // again: the same commands as the first.
    rig.write(tag, second);
    rig.settle(2);
    rig.step_until("the second write's last command on the air", || {
        rig.exchanges() == 2 * commands
    });
    let before = rig.memory(uid);
    let landing = rig.clock.next_deadline().expect("the last command's done_at");
    rig.world.remove_tag_from_field(uid);
    rig.advance_to(landing);
    wait_for("the field loss to fail the attempt", || tag.stats().snapshot().attempts == 2);
    let stats = tag.stats().snapshot();
    assert_eq!((stats.transient_failures, stats.succeeded), (1, 1));
    assert_eq!(rig.world.radio_stats().failed, 1, "the last command was lost in flight");
    assert_eq!(rig.memory(uid), before, "the lost command never reached the tag");
    let torn = rig.stored(uid);
    assert!(torn != encode(first) && torn != encode(second), "the tag is torn: {torn:?}");

    rig.world.tap_tag(uid, rig.phone);
    rig.step_until("the retry done", || rig.done() == 2);
    assert_eq!(rig.stored(uid), encode(second), "the retry repaired the tag");
}

/// On an instant link every exchange finishes in the poll that began it:
/// the write completes with no clock advance and no timer.
#[test]
fn instant_exchanges_arm_no_timer() {
    let rig = Rig::new(LinkModel::instant(), 1);
    let (tag, uid) = &rig.tags[0];
    rig.write(tag, "instant");
    wait_for("the write to complete", || rig.done() == 1);
    assert_eq!(rig.counter("scheduler.timer_fires"), 0);
    assert_eq!(rig.clock.next_deadline(), None, "nothing waits on the clock");
    assert_eq!(rig.stored(*uid), encode("instant"));
}

/// Submissions that wake a loop while its attempt is on the air find the
/// attempt's timer already armed and arm no second one: the attempt
/// costs one timer fire per exchange, however often it is woken early.
#[test]
fn an_early_wake_of_an_attempt_on_the_air_arms_no_second_timer() {
    let (_, commands) = one_write("first");
    let rig = Rig::new(LinkModel::reliable(), 1);
    let (tag, uid) = &rig.tags[0];
    rig.write(tag, "first");
    rig.settle(1);
    assert_eq!(rig.exchanges(), 1, "the first command is on the air");

    let (wakeups, polls) = (rig.counter("scheduler.wakeups"), rig.counter("scheduler.polls"));
    for text in ["second", "third", "fourth"] {
        rig.write(tag, text);
    }
    let woken = rig.counter("scheduler.wakeups") - wakeups;
    assert!(woken >= 1, "the submissions wake the loop");
    wait_for("the worker to poll the early wakes and park", || {
        rig.counter("scheduler.polls") - polls == woken && rig.clock.finite_waiters() == 1
    });
    assert_eq!(rig.exchanges(), 1, "an early wake sends nothing");

    // Counted by the worker before it parks again, unlike `done`, which
    // the main thread counts.
    rig.step_until("the first write done", || tag.stats().snapshot().succeeded == 1);
    assert_eq!(rig.counter("scheduler.timer_fires"), commands, "one fire per exchange");
    rig.step_until("all four writes done", || rig.done() == 4);
    assert_eq!(rig.stored(*uid), encode("fourth"));
}
