//! Discovery's pre-read runs as resumable tasks on the context's shard
//! pool: a burst of taps keeps every pre-read on the air at once, a
//! stopped or dropped discoverer delivers nothing for a read still on the
//! air, a tag sighted again mid-read is read once more after the read
//! ends, and a tag that leaves mid-read leaves nothing behind. A write
//! through a discovered reference starts from the pre-read's detection of
//! the tag.
//!
//! Every scenario runs on one worker and a manual `VirtualClock`, which
//! the test steps from one registered deadline to the next, so elapsed
//! time and exchange counts are exact. Each wait on the middleware is
//! bounded in real time, so a worker that blocked on the clock fails the
//! test rather than hanging it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

use morena::obs::inspect::ComponentSnapshot;
use morena::prelude::*;
use morena::sim::clock::SimInstant;
use morena::sim::error::{LinkError, TagError};
use morena::sim::proto::{read_ndef, write_ndef, DirectLink, Transceive};
use morena::sim::tag::TagEmulator;

/// The longest any single wait on the middleware may take in real time.
const BOUND: Duration = Duration::from_secs(5);

fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + BOUND;
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Adds a tag holding `text`, written straight into its memory (no air
/// time, no exchange counted).
fn badge(world: &World, seed: u32, text: &str) -> TagUid {
    let uid = world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed(seed))));
    let bytes =
        StringConverter::plain_text().to_message(&text.to_string()).expect("encodable").to_bytes();
    world
        .with_tag(uid, |tag| write_ndef(&mut DirectLink::new(tag), TagTech::Type2, &bytes))
        .expect("tag in the world")
        .expect("fits an NTAG215");
    uid
}

/// The air time and exchange count of one badge's read alone, with the
/// blocking controller API on an auto-advancing clock.
fn one_read() -> (Duration, u64) {
    let clock = VirtualClock::shared();
    let world = World::with_link(clock.clone(), LinkModel::reliable(), 1);
    let phone = world.add_phone("reference");
    let uid = badge(&world, 999, "badge-00");
    world.tap_tag(uid, phone);
    let started = clock.now();
    NfcHandle::new(world.clone(), phone).ndef_read(uid).expect("reliable link");
    (clock.now().saturating_since(started), world.radio_stats().exchanges)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seen {
    Detected(TagUid),
    Redetected(TagUid),
}

/// Records every callback in the order the main thread runs them.
struct Listener(Arc<Mutex<Vec<Seen>>>);

impl DiscoveryListener<StringConverter> for Listener {
    fn on_tag_detected(&self, reference: TagReference<StringConverter>) {
        self.0.lock().unwrap().push(Seen::Detected(reference.uid()));
    }

    fn on_tag_redetected(&self, reference: TagReference<StringConverter>) {
        self.0.lock().unwrap().push(Seen::Redetected(reference.uid()));
    }
}

/// A phone on a manual clock and a reliable link, with a one-worker
/// context running one discoverer.
struct Rig {
    clock: Arc<VirtualClock>,
    world: World,
    phone: PhoneId,
    ctx: MorenaContext,
    disco: Option<TagDiscoverer<StringConverter>>,
    seen: Arc<Mutex<Vec<Seen>>>,
    /// The discoverer's listener, to tell when the discoverer let go of
    /// it.
    listener: Weak<Listener>,
}

impl Rig {
    fn new() -> Rig {
        let clock = Arc::new(VirtualClock::with_auto_advance(false));
        let world = World::with_link(clock.clone(), LinkModel::reliable(), 1);
        let phone = world.add_phone("kiosk");
        let ctx =
            MorenaContext::headless_with(&world, phone, ExecutionPolicy::Sharded { workers: 1 });
        let seen = Arc::new(Mutex::new(Vec::new()));
        let listener = Arc::new(Listener(Arc::clone(&seen)));
        let weak = Arc::downgrade(&listener);
        let disco = TagDiscoverer::new(&ctx, Arc::new(StringConverter::plain_text()), listener);
        Rig { clock, world, phone, ctx, disco: Some(disco), seen, listener: weak }
    }

    fn disco(&self) -> &TagDiscoverer<StringConverter> {
        self.disco.as_ref().expect("discoverer alive")
    }

    fn seen(&self) -> Vec<Seen> {
        self.seen.lock().unwrap().clone()
    }

    fn exchanges(&self) -> u64 {
        self.world.radio_stats().exchanges
    }

    fn counter(&self, name: &str) -> u64 {
        self.world.obs().metrics().snapshot().counter(name)
    }

    /// Tags whose pre-read the inspector reports as still running.
    fn prereads(&self) -> usize {
        let snapshot = self.world.obs().inspector().snapshot(0);
        snapshot
            .components
            .iter()
            .filter_map(|c| match &c.state {
                ComponentSnapshot::Discovery(d) => Some(d.prereads),
                _ => None,
            })
            .sum()
    }

    /// Waits until the worker has begun `exchanges` exchanges in all and
    /// parked on the air time of the last.
    fn on_the_air(&self, exchanges: u64) {
        wait_for("the pre-read to put its exchange on the air", || {
            self.exchanges() == exchanges && self.clock.finite_waiters() == 1
        });
    }

    /// Waits until every callback the main thread has been handed so far
    /// has run.
    fn drain_main_thread(&self) {
        let (tx, rx) = std::sync::mpsc::channel();
        self.ctx.handler().post(move || tx.send(()).expect("test waits"));
        rx.recv_timeout(BOUND).expect("the main thread runs");
    }

    fn advance_to(&self, at: SimInstant) {
        self.clock.advance(at.saturating_since(self.clock.now()));
    }

    /// Advances to the earliest registered deadline and waits until the
    /// worker has acted on it and parked again, or until `done`.
    fn step(&self, done: impl Fn() -> bool) {
        let mut next = None;
        wait_for("a deadline to advance to", || {
            next = self.clock.next_deadline();
            next.is_some() || done()
        });
        let Some(next) = next else { return };
        let parks = self.counter("scheduler.parks");
        self.advance_to(next);
        wait_for("the worker to act on the deadline", || {
            done() || (self.counter("scheduler.parks") > parks && self.clock.finite_waiters() == 1)
        });
    }
}

/// 32 badges tapped at once are all detected after about one pre-read's
/// air time: one worker puts every badge's first command on the air
/// before any time passes, and the radio work is that of 32 reads.
#[test]
fn a_burst_of_taps_keeps_every_pre_read_on_the_air() {
    const BADGES: u32 = 32;
    let (pre_read, per_read) = one_read();
    let rig = Rig::new();
    let uids: Vec<TagUid> =
        (0..BADGES).map(|b| badge(&rig.world, b, &format!("badge-{b:02}"))).collect();
    let started = rig.clock.now();
    for &uid in &uids {
        rig.world.tap_tag(uid, rig.phone);
    }
    rig.on_the_air(u64::from(BADGES));
    assert_eq!(rig.clock.now(), started, "no time passed");

    let all_seen = || rig.seen().len() == BADGES as usize;
    while !all_seen() {
        rig.step(all_seen);
    }
    let elapsed = rig.clock.now().saturating_since(started);
    assert!(
        elapsed <= pre_read * 2,
        "{BADGES} pre-reads took {elapsed:?}; one alone takes {pre_read:?}"
    );
    assert_eq!(rig.exchanges(), per_read * u64::from(BADGES), "the radio work of {BADGES} reads");
    let mut seen = rig.seen();
    seen.sort_by_key(|s| match s {
        Seen::Detected(uid) | Seen::Redetected(uid) => *uid,
    });
    let mut expected: Vec<Seen> = uids.iter().map(|&uid| Seen::Detected(uid)).collect();
    expected.sort_by_key(|s| match s {
        Seen::Detected(uid) | Seen::Redetected(uid) => *uid,
    });
    assert_eq!(seen, expected, "each badge detected exactly once");
    for &uid in &uids {
        let cached = rig.disco().reference_for(uid).expect("minted").cached();
        assert!(cached.is_some_and(|c| c.starts_with("badge-")), "pre-read content cached");
    }
}

/// Stopping the discoverer, or dropping its last handle, while a
/// pre-read is on the air delivers no callback; the pre-read ends at its
/// next poll without another exchange, and a dropped discoverer lets go
/// of its listener at once.
#[test]
fn stop_or_drop_mid_pre_read_delivers_nothing() {
    for drop_it in [false, true] {
        let mut rig = Rig::new();
        let uid = badge(&rig.world, 1, "badge-01");
        rig.world.tap_tag(uid, rig.phone);
        rig.on_the_air(1);
        if drop_it {
            rig.disco = None;
            // The discovery thread holds the discoverer only while it
            // checks an event or heartbeat; the pre-read never does.
            wait_for("the listener to be freed", || rig.listener.upgrade().is_none());
            assert_eq!(rig.exchanges(), 1, "freed while the pre-read is on the air");
        } else {
            rig.disco().stop();
        }
        let landing = rig.clock.next_deadline().expect("the exchange's done_at");
        rig.advance_to(landing);
        wait_for("the pre-read to end", || rig.prereads() == 0 && rig.clock.finite_waiters() == 0);
        rig.drain_main_thread();
        assert_eq!(rig.seen(), [], "drop_it={drop_it}");
        assert_eq!(rig.exchanges(), 1, "no exchange after the stop (drop_it={drop_it})");
        if !drop_it {
            assert!(rig.disco().reference_for(uid).is_none(), "no reference minted");
        }
    }
}

/// A tag sighted again while its pre-read runs starts no second read;
/// the running one reads it once more when it ends. The tag gets one
/// reference, detected first and then redetected.
#[test]
fn a_second_sighting_mid_pre_read_is_read_after_it() {
    let (_, per_read) = one_read();
    let rig = Rig::new();
    let uid = badge(&rig.world, 1, "badge-01");
    rig.world.tap_tag(uid, rig.phone);
    rig.on_the_air(1);
    rig.world.remove_tag_from_field(uid);
    rig.world.tap_tag(uid, rig.phone);
    wait_for("the second sighting", || rig.counter("discovery.sightings") == 2);
    assert_eq!(rig.exchanges(), 1, "the second sighting started no read of its own");
    assert_eq!(rig.prereads(), 1);

    let both_seen = || rig.seen().len() == 2;
    while !both_seen() {
        rig.step(both_seen);
    }
    assert_eq!(rig.seen(), [Seen::Detected(uid), Seen::Redetected(uid)]);
    assert_eq!(rig.disco().references().len(), 1, "one reference per tag");
    assert_eq!(rig.exchanges(), 2 * per_read, "one read per sighting, one after the other");
    wait_for("the pre-read to retire", || rig.prereads() == 0);
}

/// A tag that leaves while its pre-read is on the air delivers nothing
/// and leaves no pre-read behind: the next tap reads it afresh.
#[test]
fn a_tag_leaving_mid_pre_read_delivers_nothing_and_leaks_nothing() {
    let (_, per_read) = one_read();
    let rig = Rig::new();
    let uid = badge(&rig.world, 1, "badge-01");
    rig.world.tap_tag(uid, rig.phone);
    rig.on_the_air(1);
    rig.world.remove_tag_from_field(uid);
    let landing = rig.clock.next_deadline().expect("the exchange's done_at");
    rig.advance_to(landing);
    wait_for("the pre-read to end", || rig.prereads() == 0 && rig.clock.finite_waiters() == 0);
    rig.drain_main_thread();
    assert_eq!(rig.seen(), []);
    assert_eq!(rig.world.radio_stats().failed, 1, "the exchange was lost with the tag");
    assert_eq!(rig.exchanges(), 1, "no retry for an absent tag");
    assert!(rig.disco().reference_for(uid).is_none());

    rig.world.tap_tag(uid, rig.phone);
    let seen = || !rig.seen().is_empty();
    while !seen() {
        rig.step(seen);
    }
    assert_eq!(rig.seen(), [Seen::Detected(uid)]);
    assert_eq!(rig.exchanges(), 1 + per_read, "the next tap read the tag afresh");
}

/// A tag that counts the reads of its capability container: Type 2's
/// `READ 3`, Type 4's `SELECT` of the CC file.
#[derive(Debug)]
struct CcCounted {
    tag: Box<dyn TagEmulator>,
    cc_reads: Arc<AtomicUsize>,
}

const T4_SELECT_CC: [u8; 7] = [0x00, 0xA4, 0x00, 0x0C, 0x02, 0xE1, 0x03];

impl TagEmulator for CcCounted {
    fn uid(&self) -> TagUid {
        self.tag.uid()
    }
    fn tech(&self) -> TagTech {
        self.tag.tech()
    }
    fn transceive(&mut self, command: &[u8]) -> Result<Vec<u8>, TagError> {
        if command == [0x30, 3] || command == T4_SELECT_CC {
            self.cc_reads.fetch_add(1, Ordering::SeqCst);
        }
        self.tag.transceive(command)
    }
    fn on_field_lost(&mut self) {
        self.tag.on_field_lost();
    }
    fn ndef_capacity(&self) -> usize {
        self.tag.ndef_capacity()
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.tag.as_any_mut()
    }
}

/// Counts the exchanges over a direct link.
struct Counting<'a>(DirectLink<'a>, u64);

impl Transceive for Counting<'_> {
    fn transceive(&mut self, command: &[u8]) -> Result<Vec<u8>, LinkError> {
        self.1 += 1;
        self.0.transceive(command)
    }
}

/// A tap then a write through the discovered reference cost the pre-read
/// and the write's own commands, and read the capability container once:
/// the write starts from what the pre-read detected.
#[test]
fn a_tap_then_a_write_reads_the_capability_container_once() {
    for tech in [TagTech::Type2, TagTech::Type4] {
        let text = |t: &str| {
            StringConverter::plain_text().to_message(&t.to_string()).expect("encodable").to_bytes()
        };
        let fresh_tag = || -> Box<dyn TagEmulator> {
            let mut tag: Box<dyn TagEmulator> = match tech {
                TagTech::Type2 => Box::new(Type2Tag::ntag215(TagUid::from_seed(7))),
                TagTech::Type4 => Box::new(Type4Tag::new(TagUid::from_seed(7), 512)),
            };
            write_ndef(&mut DirectLink::new(&mut *tag), tech, &text("badge-07")).expect("fits");
            tag
        };
        // The commands of a fresh read, and of a fresh write less its
        // capability-container exchanges (Type 4: SELECT CC, READ CC).
        let mut tag = fresh_tag();
        let mut link = Counting(DirectLink::new(&mut *tag), 0);
        read_ndef(&mut link, tech).expect("direct link");
        let pre_read = link.1;
        write_ndef(&mut link, tech, &text("stamped")).expect("direct link");
        let write = link.1 - pre_read - if tech == TagTech::Type2 { 1 } else { 2 };

        let rig = Rig::new();
        let cc_reads = Arc::new(AtomicUsize::new(0));
        let uid = rig
            .world
            .add_tag(Box::new(CcCounted { tag: fresh_tag(), cc_reads: Arc::clone(&cc_reads) }));
        rig.world.tap_tag(uid, rig.phone);
        let seen = || !rig.seen().is_empty();
        for _ in 0..100 {
            if seen() {
                break;
            }
            rig.step(seen);
        }
        assert_eq!(rig.seen(), [Seen::Detected(uid)], "{tech}");
        assert_eq!(rig.exchanges(), pre_read, "{tech}: the pre-read");

        let written = Arc::new(AtomicUsize::new(0));
        let done = Arc::clone(&written);
        let reference = rig.disco().reference_for(uid).expect("minted");
        reference.write(
            "stamped".to_string(),
            move |_| {
                done.fetch_add(1, Ordering::SeqCst);
            },
            |_, failure| panic!("the write must not fail: {failure}"),
        );
        let finished = || written.load(Ordering::SeqCst) == 1;
        for _ in 0..100 {
            if finished() {
                break;
            }
            rig.step(finished);
        }
        assert!(finished(), "{tech}: the write finished");
        assert_eq!(rig.exchanges(), pre_read + write, "{tech}: pre-read + the write's commands");
        assert_eq!(cc_reads.load(Ordering::SeqCst), 1, "{tech}: one detection");
    }
}
