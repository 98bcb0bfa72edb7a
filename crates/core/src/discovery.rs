//! Tag discovery (§3.1 of the paper): turning low-level NFC events into
//! typed detections of *relevant* tags, delivered as first-class tag
//! references.
//!
//! A [`TagDiscoverer`] filters the stream of tags entering the phone's
//! field down to those carrying its converter's MIME type (plus blank
//! tags, for initialization flows), maintains the **one reference per
//! tag** identity map the paper requires, and invokes the application's
//! [`DiscoveryListener`] on the main thread:
//!
//! * [`DiscoveryListener::on_tag_detected`] — first sighting of a tag;
//! * [`DiscoveryListener::on_tag_redetected`] — a known tag came back;
//! * [`DiscoveryListener::on_empty_tag`] — a formatted but blank tag
//!   (the paper's `EmptyRecord` flow);
//! * [`DiscoveryListener::check_condition`] — the §3.4 fine-grained
//!   filter predicate, evaluated against the reference (typically its
//!   freshly cached value) before any callback fires.
//!
//! Each sighting needs a pre-read: discovery must learn what is on a tag
//! before it can tell whether the tag is relevant. A discoverer has no
//! thread: it registers a route on the context's event router, which
//! hands it each field event on a worker of the context's pool, and it
//! sees only sightings from after it was created. For each sighting the
//! route starts a short-lived task on a shard of that pool, which reads
//! the tag over the same non-blocking radio path the event loops use and
//! waits out air time on the shard's timer heap. So a burst of taps
//! keeps all its pre-reads on the air at once instead of queueing them
//! behind one another. One pre-read per tag runs at a time; a tag
//! sighted again while its pre-read runs is read once more after it.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

use morena_ndef::NdefMessage;
use morena_nfc_sim::controller::{Resume, Session};
use morena_nfc_sim::proto::{NdefOp, Outcome};
use morena_nfc_sim::tag::{TagTech, TagUid};
use morena_nfc_sim::world::NfcEvent;
use morena_obs::inspect::{ComponentSnapshot, DiscoverySnapshot, SnapshotProvider};
use morena_obs::Mutex;
use morena_obs::{trace, EventKind, MemFootprint, TraceContext};

use crate::context::MorenaContext;
use crate::convert::TagDataConverter;
use crate::policy::Policy;
use crate::router::{RouteGuard, RouteKey};
use crate::sched::{LoopPoll, PollTask};
use crate::tagref::TagReference;

/// How many times discovery retries the initial content read while the
/// tag stays in range (mirrors the platform pre-read).
const DISCOVERY_READ_ATTEMPTS: usize = 3;

/// Application callbacks for tag discovery. The callbacks run on the main
/// thread; [`check_condition`](DiscoveryListener::check_condition) runs
/// before them, on the pool.
pub trait DiscoveryListener<C: TagDataConverter>: Send + Sync + 'static {
    /// A tag of this discoverer's type was seen for the very first time.
    fn on_tag_detected(&self, reference: TagReference<C>);

    /// A previously seen tag came back into range.
    fn on_tag_redetected(&self, reference: TagReference<C>);

    /// A formatted but blank tag was seen (candidate for initialization).
    fn on_empty_tag(&self, reference: TagReference<C>) {
        let _ = reference;
    }

    /// Fine-grained filter (§3.4): when this returns `false` the
    /// detection callbacks are suppressed for this sighting. The default
    /// accepts everything.
    ///
    /// Unlike the callbacks, this runs on a worker of the context's
    /// pool, at the end of the sighting's pre-read. It must not block on
    /// a middleware operation (such as [`TagReference::read_sync`]),
    /// which may need that same worker; decide from the reference's
    /// freshly cached value instead.
    fn check_condition(&self, reference: &TagReference<C>) -> bool {
        let _ = reference;
        true
    }
}

struct DiscovererInner<C: TagDataConverter> {
    ctx: MorenaContext,
    converter: Arc<C>,
    listener: Arc<dyn DiscoveryListener<C>>,
    policy: Arc<Policy>,
    references: Mutex<HashMap<TagUid, TagReference<C>>>,
    /// Tags with a pre-read running, each with the trace of a sighting
    /// that arrived meanwhile, if any (see `handle_entered`).
    prereads: Mutex<HashMap<TagUid, Option<Option<TraceContext>>>>,
    stop: AtomicBool,
    /// The route on the context's router; `stop()` drops it.
    route: Mutex<Option<RouteGuard>>,
}

impl<C: TagDataConverter> MemFootprint for DiscovererInner<C> {
    fn mem_bytes(&self) -> u64 {
        // The identity map's own storage. Each entry's reference is an
        // `Arc` into an event loop that reports its own bytes through
        // its loop snapshot, so only the map slot is attributed here.
        let entries = self.references.lock().capacity() as u64;
        let prereads = self.prereads.lock().capacity() as u64;
        std::mem::size_of::<Self>() as u64
            + entries * std::mem::size_of::<(TagUid, TagReference<C>)>() as u64
            + prereads * std::mem::size_of::<(TagUid, Option<Option<TraceContext>>)>() as u64
    }
}

impl<C: TagDataConverter> SnapshotProvider for DiscovererInner<C> {
    fn snapshot(&self, _now_nanos: u64) -> ComponentSnapshot {
        let (live, closed) = {
            let references = self.references.lock();
            let closed = references.values().filter(|r| r.is_closed()).count();
            (references.len() - closed, closed)
        };
        // Hoisted out of the literal: a `.lock()` temporary inside it
        // would still be held when `mem_bytes` re-locks `prereads`.
        let prereads = self.prereads.lock().len();
        ComponentSnapshot::Discovery(DiscoverySnapshot {
            phone: self.ctx.phone().as_u64(),
            mime: self.converter.mime_type().to_owned(),
            live_refs: live,
            closed_refs: closed,
            prereads,
            mem_bytes: self.mem_bytes(),
        })
    }
}

/// Watches the phone's field for tags carrying this discoverer's data
/// type and hands out unique [`TagReference`]s for them.
///
/// Dropping the last handle stops discovery at once: its route leaves the
/// context's router, and no callback fires for any later sighting or for
/// a pre-read still on the air. References the application still holds
/// keep working until [`TagReference::close`] (reclaiming references is
/// the application's responsibility, §3.2).
pub struct TagDiscoverer<C: TagDataConverter> {
    inner: Arc<DiscovererInner<C>>,
}

impl<C: TagDataConverter> Clone for TagDiscoverer<C> {
    fn clone(&self) -> TagDiscoverer<C> {
        TagDiscoverer { inner: Arc::clone(&self.inner) }
    }
}

impl<C: TagDataConverter> std::fmt::Debug for TagDiscoverer<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TagDiscoverer")
            .field("mime", &self.inner.converter.mime_type())
            .field("known_tags", &self.inner.references.lock().len())
            .finish()
    }
}

impl<C: TagDataConverter> TagDiscoverer<C> {
    /// Starts discovery inheriting the context's default [`Policy`] for
    /// its traces and for the references it creates.
    pub fn new(
        ctx: &MorenaContext,
        converter: Arc<C>,
        listener: Arc<dyn DiscoveryListener<C>>,
    ) -> TagDiscoverer<C> {
        TagDiscoverer::build(ctx, converter, listener, ctx.shared_policy())
    }

    /// Starts discovery pinned to an explicit [`Policy`]: its
    /// [`trace_sample`](Policy::trace_sample) rate applies to sightings,
    /// and created references inherit the whole policy.
    pub fn with_policy(
        ctx: &MorenaContext,
        converter: Arc<C>,
        listener: Arc<dyn DiscoveryListener<C>>,
        policy: Policy,
    ) -> TagDiscoverer<C> {
        TagDiscoverer::build(ctx, converter, listener, Arc::new(policy))
    }

    /// Starts discovery pinned to a policy it shares with the
    /// references it creates.
    pub(crate) fn build(
        ctx: &MorenaContext,
        converter: Arc<C>,
        listener: Arc<dyn DiscoveryListener<C>>,
        policy: Arc<Policy>,
    ) -> TagDiscoverer<C> {
        let inner = Arc::new(DiscovererInner {
            ctx: ctx.clone(),
            converter,
            listener,
            policy,
            references: Mutex::new(HashMap::new()),
            prereads: Mutex::new(HashMap::new()),
            stop: AtomicBool::new(false),
            route: Mutex::new(None),
        });
        inner.ctx.nfc().world().obs().inspector().register(
            format!("discovery-{}-{}", inner.ctx.phone().as_u64(), inner.converter.mime_type()),
            Arc::downgrade(&inner) as std::sync::Weak<dyn SnapshotProvider>,
        );
        // Held weakly: dropping the last handle drops the discoverer and
        // its route. Tag loss is left to each reference's own route.
        let discoverer = Arc::downgrade(&inner);
        let route = ctx.router().register(RouteKey::AnyTag, move |event| {
            let NfcEvent::TagEntered { uid, tech } = event else { return };
            let Some(inner) = discoverer.upgrade() else { return };
            if !inner.stop.load(Ordering::Acquire) {
                handle_entered(&inner, *uid, *tech);
            }
        });
        *inner.route.lock() = Some(route);
        TagDiscoverer { inner }
    }

    /// The MIME type this discoverer filters on.
    pub fn mime_type(&self) -> &str {
        self.inner.converter.mime_type()
    }

    /// The unique reference for `uid`, if this discoverer has seen it.
    pub fn reference_for(&self, uid: TagUid) -> Option<TagReference<C>> {
        self.inner.references.lock().get(&uid).cloned()
    }

    /// All references this discoverer has handed out so far.
    pub fn references(&self) -> Vec<TagReference<C>> {
        self.inner.references.lock().values().cloned().collect()
    }

    /// Closes and forgets the reference for `uid` (the application-driven
    /// garbage collection the paper prescribes). Returns whether a
    /// reference existed.
    pub fn forget(&self, uid: TagUid) -> bool {
        match self.inner.references.lock().remove(&uid) {
            Some(reference) => {
                reference.close();
                true
            }
            None => false,
        }
    }

    /// Stops discovery (references stay alive). No callback is delivered
    /// for any sighting after this returns: the route leaves the router
    /// here, a dispatch already under way checks the flag before
    /// handling the event, and a pre-read still on the air checks it at
    /// its next poll and again before delivering, then ends.
    pub fn stop(&self) {
        self.inner.stop.store(true, Ordering::Release);
        self.inner.route.lock().take();
    }
}

/// Roots a sighting's causal trace and starts its pre-read on the pool.
///
/// One pre-read per tag runs at a time. A sighting of a tag whose
/// pre-read is still running starts no second one: it asks the running
/// one to read the tag once more when it ends (several such sightings
/// collapse into one re-read, under the latest one's trace). So one
/// tag's callbacks arrive in sighting order, its first detection comes
/// before any redetection, and the identity map is never raced into two
/// references.
fn handle_entered<C: TagDataConverter>(
    inner: &Arc<DiscovererInner<C>>,
    uid: TagUid,
    tech: TagTech,
) {
    // Every sighting roots a fresh causal trace: the pre-read, the
    // detection event, and — because the listener callback runs under
    // this scope — any operation the application submits on the minted
    // reference all share one trace_id ("discovery-minted references").
    let world_recorder = inner.ctx.nfc().world().obs();
    let trace = world_recorder.mint_root(inner.policy.trace_sample);
    let running = match inner.prereads.lock().entry(uid) {
        Entry::Occupied(mut running) => {
            running.insert(Some(trace));
            true
        }
        Entry::Vacant(slot) => {
            slot.insert(None);
            false
        }
    };
    // Counted once the sighting is on record, so a reader that sees the
    // count also sees the pre-read (or re-read) it asked for.
    world_recorder.metrics().counter("discovery.sightings").inc();
    if running {
        return;
    }
    inner.ctx.execution().place().wake(Arc::new(PreRead {
        discoverer: Arc::downgrade(inner),
        uid,
        tech,
        read: Mutex::new(ReadState { trace, attempts: 0, session: Session::default() }),
    }));
}

/// One tag's discovery pre-read, a short-lived task on a shard of the
/// context's pool. A poll resumes the read's [`Session`] as far as the
/// radio allows without waiting; while an exchange is on the air the
/// task waits on the shard's timer heap, so one worker keeps any number
/// of pre-reads on the air at once. The next poll goes on from the
/// session and re-runs nothing.
struct PreRead<C: TagDataConverter> {
    /// Held weakly: a stopped or dropped discoverer ends the task at its
    /// next poll, and nothing is delivered for it.
    discoverer: Weak<DiscovererInner<C>>,
    uid: TagUid,
    tech: TagTech,
    read: Mutex<ReadState>,
}

struct ReadState {
    /// The sighting's trace: the read's exchanges and the delivery run
    /// under it.
    trace: Option<TraceContext>,
    /// Attempts ended so far.
    attempts: usize,
    /// The read on the go; it holds no procedure between attempts.
    session: Session,
}

impl<C: TagDataConverter> PollTask for PreRead<C> {
    fn poll(&self) -> LoopPoll {
        let Some(inner) = self.discoverer.upgrade() else { return LoopPoll::Park };
        let mut read = self.read.lock();
        if !inner.stop.load(Ordering::Acquire) {
            let ReadState { trace, attempts, session } = &mut *read;
            let trace = *trace;
            let nfc = inner.ctx.nfc();
            if !session.is_running() {
                session.start(NdefOp::Read);
            }
            let bytes = match trace::with(trace, || nfc.resume_ndef(self.uid, session)) {
                Resume::Ready(outcome) => outcome,
                Resume::WaitUntil(wake) => return LoopPoll::RunnableAt(wake),
            };
            *attempts += 1;
            match bytes {
                // Arrival is the moment the link is weakest: retry
                // while the tag stays.
                Err(e)
                    if e.is_transient()
                        && *attempts < DISCOVERY_READ_ATTEMPTS
                        && nfc.tag_in_range(self.uid) =>
                {
                    return LoopPoll::Runnable;
                }
                Ok(Outcome::Bytes(bytes)) if !inner.stop.load(Ordering::Acquire) => {
                    trace::with(trace, || deliver(&inner, self.uid, self.tech, &bytes, trace));
                }
                _ => {}
            }
        }
        // This read is over: read again for a sighting that arrived
        // meanwhile, or retire.
        let mut prereads = inner.prereads.lock();
        match prereads.get_mut(&self.uid).and_then(Option::take) {
            Some(trace) => {
                read.trace = trace;
                read.attempts = 0;
                LoopPoll::Runnable
            }
            None => {
                prereads.remove(&self.uid);
                LoopPoll::Park
            }
        }
    }

    // Only the pool wakes a pre-read (when spawned, re-queued or due on
    // its timer), one wake per poll, so it needs no scheduled flag.
    fn try_schedule(&self) -> bool {
        true
    }

    fn clear_scheduled(&self) {}
}

/// The pre-read's outcome: classifies the tag's content, resolves the
/// unique reference, and posts the callback to the main thread.
fn deliver<C: TagDataConverter>(
    inner: &DiscovererInner<C>,
    uid: TagUid,
    tech: TagTech,
    bytes: &[u8],
    trace_ctx: Option<TraceContext>,
) {
    enum Sighting<V> {
        Blank,
        Value(V),
    }

    let sighting = if bytes.is_empty() {
        Sighting::Blank
    } else {
        match NdefMessage::parse(bytes) {
            Ok(message) if message.is_blank() => Sighting::Blank,
            Ok(message) if inner.converter.accepts(&message) => {
                match inner.converter.from_message(&message) {
                    Ok(value) => Sighting::Value(value),
                    Err(_) => return, // corrupt payload of our type: disregard
                }
            }
            // Other data types are disregarded (§3.1).
            _ => return,
        }
    };

    let (reference, known) = {
        let mut references = inner.references.lock();
        // Applications close references they are done with (§3.2); a
        // closed reference never completes another operation, so keeping
        // it in the identity map leaks an event loop entry per retired
        // tag in long swarm runs — and would hand the dead reference
        // back out on redetection. The map only grows on sightings, so
        // sweeping here bounds it by the live reference population.
        references.retain(|_, existing| !existing.is_closed());
        match references.get(&uid) {
            Some(existing) => (existing.clone(), true),
            None => {
                let created = TagReference::build(
                    &inner.ctx,
                    uid,
                    tech,
                    Arc::clone(&inner.converter),
                    Arc::clone(&inner.policy),
                );
                references.insert(uid, created.clone());
                (created, false)
            }
        }
    };

    // Sightings are observable even when `check_condition` later
    // suppresses the application callback.
    let recorder = inner.ctx.nfc().world().obs();
    let phone = inner.ctx.phone().as_u64();
    match sighting {
        Sighting::Blank => {
            recorder.metrics().counter("discovery.empty").inc();
            if recorder.is_enabled() {
                recorder.emit(
                    inner.ctx.clock().now().as_nanos(),
                    EventKind::EmptyTagDetected { phone, target: uid.to_string() },
                );
            }
            // A blank sighting does not wipe the cache: it holds the
            // last value successfully seen (§3.2), and a tag blanked by
            // a torn write reads back empty until repaired.
            if !inner.listener.check_condition(&reference) {
                return;
            }
            let listener = Arc::clone(&inner.listener);
            inner
                .ctx
                .handler()
                .post(move || trace::with(trace_ctx, move || listener.on_empty_tag(reference)));
        }
        Sighting::Value(value) => {
            recorder
                .metrics()
                .counter(if known { "discovery.redetected" } else { "discovery.detected" })
                .inc();
            if recorder.is_enabled() {
                recorder.emit(
                    inner.ctx.clock().now().as_nanos(),
                    EventKind::TagDetected { phone, target: uid.to_string(), redetection: known },
                );
            }
            reference.set_cached(Some(value));
            if !inner.listener.check_condition(&reference) {
                return;
            }
            let listener = Arc::clone(&inner.listener);
            inner.ctx.handler().post(move || {
                trace::with(trace_ctx, move || {
                    if known {
                        listener.on_tag_redetected(reference);
                    } else {
                        listener.on_tag_detected(reference);
                    }
                })
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::StringConverter;
    use morena_nfc_sim::clock::VirtualClock;
    use morena_nfc_sim::link::LinkModel;
    use morena_nfc_sim::tag::Type2Tag;
    use morena_nfc_sim::world::World;
    use std::sync::mpsc::{channel, Sender};
    use std::time::Duration;

    enum Event {
        Detected(TagUid, Option<String>),
        Redetected(TagUid),
        Empty(TagUid),
    }

    type Condition = Box<dyn Fn(&TagReference<StringConverter>) -> bool + Send + Sync>;

    struct Recording {
        tx: Sender<Event>,
        condition: Condition,
    }

    impl DiscoveryListener<StringConverter> for Recording {
        fn on_tag_detected(&self, reference: TagReference<StringConverter>) {
            self.tx.send(Event::Detected(reference.uid(), reference.cached())).unwrap();
        }
        fn on_tag_redetected(&self, reference: TagReference<StringConverter>) {
            self.tx.send(Event::Redetected(reference.uid())).unwrap();
        }
        fn on_empty_tag(&self, reference: TagReference<StringConverter>) {
            self.tx.send(Event::Empty(reference.uid())).unwrap();
        }
        fn check_condition(&self, reference: &TagReference<StringConverter>) -> bool {
            (self.condition)(reference)
        }
    }

    fn setup() -> (World, MorenaContext) {
        let world = World::with_link(VirtualClock::shared(), LinkModel::instant(), 9);
        let phone = world.add_phone("alice");
        let ctx = MorenaContext::headless(&world, phone);
        (world, ctx)
    }

    fn tag_with(world: &World, ctx: &MorenaContext, seed: u32, content: Option<&str>) -> TagUid {
        let uid = world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed(seed))));
        if let Some(text) = content {
            world.tap_tag(uid, ctx.phone());
            let msg = StringConverter::plain_text().to_message(&text.to_string()).unwrap();
            ctx.nfc().ndef_write(uid, &msg.to_bytes()).unwrap();
            world.remove_tag_from_field(uid);
        }
        uid
    }

    fn discoverer(ctx: &MorenaContext, tx: Sender<Event>) -> TagDiscoverer<StringConverter> {
        TagDiscoverer::new(
            ctx,
            Arc::new(StringConverter::plain_text()),
            Arc::new(Recording { tx, condition: Box::new(|_| true) }),
        )
    }

    #[test]
    fn detects_then_redetects_with_unique_reference() {
        let (world, ctx) = setup();
        let uid = tag_with(&world, &ctx, 1, Some("hello"));
        let (tx, rx) = channel();
        let disco = discoverer(&ctx, tx);

        world.tap_tag(uid, ctx.phone());
        match rx.recv_timeout(Duration::from_secs(10)).unwrap() {
            Event::Detected(u, cached) => {
                assert_eq!(u, uid);
                assert_eq!(cached.as_deref(), Some("hello"));
            }
            _ => panic!("expected detection"),
        }
        let first_ref = disco.reference_for(uid).unwrap();

        world.remove_tag_from_field(uid);
        world.tap_tag(uid, ctx.phone());
        assert!(matches!(
            rx.recv_timeout(Duration::from_secs(10)).unwrap(),
            Event::Redetected(u) if u == uid
        ));
        // Identity: still the same shared reference.
        let second_ref = disco.reference_for(uid).unwrap();
        assert!(Arc::ptr_eq(&first_ref.stats(), &second_ref.stats()));
        assert_eq!(disco.references().len(), 1);
    }

    #[test]
    fn blank_tags_surface_as_empty() {
        let (world, ctx) = setup();
        let uid = tag_with(&world, &ctx, 2, None);
        let (tx, rx) = channel();
        let _disco = discoverer(&ctx, tx);
        world.tap_tag(uid, ctx.phone());
        assert!(matches!(
            rx.recv_timeout(Duration::from_secs(10)).unwrap(),
            Event::Empty(u) if u == uid
        ));
    }

    #[test]
    fn foreign_mime_types_are_disregarded() {
        let (world, ctx) = setup();
        let uid = tag_with(&world, &ctx, 3, None);
        world.tap_tag(uid, ctx.phone());
        let other =
            StringConverter::new("application/other").to_message(&"not ours".to_string()).unwrap();
        ctx.nfc().ndef_write(uid, &other.to_bytes()).unwrap();
        world.remove_tag_from_field(uid);

        let (tx, rx) = channel();
        let disco = discoverer(&ctx, tx);
        world.tap_tag(uid, ctx.phone());
        assert!(rx.recv_timeout(Duration::from_millis(200)).is_err());
        assert!(disco.reference_for(uid).is_none());
    }

    #[test]
    fn check_condition_filters_sightings() {
        let (world, ctx) = setup();
        let yes = tag_with(&world, &ctx, 4, Some("keep"));
        let no = tag_with(&world, &ctx, 5, Some("drop"));
        let (tx, rx) = channel();
        let _disco = TagDiscoverer::new(
            &ctx,
            Arc::new(StringConverter::plain_text()),
            Arc::new(Recording {
                tx,
                condition: Box::new(|r| r.cached().as_deref() == Some("keep")),
            }),
        );
        world.tap_tag(no, ctx.phone());
        world.remove_tag_from_field(no);
        world.tap_tag(yes, ctx.phone());
        match rx.recv_timeout(Duration::from_secs(10)).unwrap() {
            Event::Detected(u, _) => assert_eq!(u, yes),
            _ => panic!("expected detection of the kept tag"),
        }
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn forget_closes_and_removes_the_reference() {
        let (world, ctx) = setup();
        let uid = tag_with(&world, &ctx, 6, Some("x"));
        let (tx, rx) = channel();
        let disco = discoverer(&ctx, tx);
        world.tap_tag(uid, ctx.phone());
        rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(disco.forget(uid));
        assert!(!disco.forget(uid));
        assert!(disco.reference_for(uid).is_none());
        assert!(format!("{disco:?}").contains("text/plain"));
    }

    #[test]
    fn closed_references_are_swept_from_the_identity_map() {
        let (world, ctx) = setup();
        let (tx, rx) = channel();
        let disco = discoverer(&ctx, tx);
        // A stream of blank tags that are each seen once, used, and
        // closed — the pattern of a long-running swarm. Blank tags keep
        // it to exactly one sighting per generation (content would make
        // `tag_with` tap once itself), so once the event arrives no
        // sighting is still in flight and the close cannot race one.
        for seed in 10..14 {
            let uid = tag_with(&world, &ctx, seed, None);
            world.tap_tag(uid, ctx.phone());
            assert!(matches!(
                rx.recv_timeout(Duration::from_secs(10)).unwrap(),
                Event::Empty(u) if u == uid
            ));
            world.remove_tag_from_field(uid);
            disco.reference_for(uid).unwrap().close();
        }
        // The next sighting sweeps every closed reference.
        let fresh = tag_with(&world, &ctx, 99, None);
        world.tap_tag(fresh, ctx.phone());
        assert!(matches!(
            rx.recv_timeout(Duration::from_secs(10)).unwrap(),
            Event::Empty(u) if u == fresh
        ));
        assert_eq!(disco.references().len(), 1);
        assert!(disco.references().iter().all(|r| !r.is_closed()));
    }

    #[test]
    fn a_closed_reference_is_replaced_on_redetection() {
        let (world, ctx) = setup();
        let uid = tag_with(&world, &ctx, 8, None);
        let (tx, rx) = channel();
        let disco = discoverer(&ctx, tx);
        world.tap_tag(uid, ctx.phone());
        assert!(matches!(
            rx.recv_timeout(Duration::from_secs(10)).unwrap(),
            Event::Empty(u) if u == uid
        ));
        world.remove_tag_from_field(uid);
        disco.reference_for(uid).unwrap().close();
        // The tag returns: the dead reference must not be handed back
        // out — the sighting must mint a fresh, live one.
        world.tap_tag(uid, ctx.phone());
        assert!(matches!(
            rx.recv_timeout(Duration::from_secs(10)).unwrap(),
            Event::Empty(u) if u == uid
        ));
        assert!(!disco.reference_for(uid).unwrap().is_closed());
    }

    #[test]
    fn stop_unregisters_the_route_at_once() {
        let (world, ctx) = setup();
        let uid = tag_with(&world, &ctx, 20, Some("x"));
        let (tx, rx) = channel();
        let disco = discoverer(&ctx, tx);
        world.tap_tag(uid, ctx.phone());
        assert!(matches!(
            rx.recv_timeout(Duration::from_secs(10)).unwrap(),
            Event::Detected(u, _) if u == uid
        ));
        let routes = format!("{:?}", ctx.router());
        disco.stop();
        // The route is gone when `stop` returns; no heartbeat to wait out.
        assert_ne!(format!("{:?}", ctx.router()), routes);
        world.remove_tag_from_field(uid);
        world.tap_tag(uid, ctx.phone());
        assert!(rx.recv_timeout(Duration::from_millis(200)).is_err());
    }

    #[test]
    fn dropped_discoverer_reports_nothing_and_frees_its_listener() {
        let (world, ctx) = setup();
        let uid = tag_with(&world, &ctx, 21, Some("x"));
        let (tx, rx) = channel();
        let listener = Arc::new(Recording { tx, condition: Box::new(|_| true) });
        let freed = Arc::downgrade(&listener);
        let disco = TagDiscoverer::new(&ctx, Arc::new(StringConverter::plain_text()), listener);
        drop(disco);
        assert!(freed.upgrade().is_none(), "the router kept the discoverer alive");
        world.tap_tag(uid, ctx.phone());
        assert!(rx.recv_timeout(Duration::from_millis(200)).is_err());
    }

    #[test]
    fn stopped_discoverer_reports_nothing() {
        let (world, ctx) = setup();
        let uid = tag_with(&world, &ctx, 7, Some("x"));
        let (tx, rx) = channel();
        let disco = discoverer(&ctx, tx);
        disco.stop();
        world.tap_tag(uid, ctx.phone());
        assert!(rx.recv_timeout(Duration::from_millis(200)).is_err());
    }
}
