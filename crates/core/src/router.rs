//! One event-dispatch task per context, on the context's worker pool.
//!
//! The [`EventRouter`] subscribes to the phone's field events **once**
//! per [`MorenaContext`](crate::context::MorenaContext) and hands each
//! [`NfcEvent`] to the closures registered by references, beamers,
//! inboxes and discoverers. It owns no thread: its sink, run under the
//! world's lock, only queues the event and wakes the router's task on a
//! shard (placed there without counting as a loop), and a poll of the
//! task runs the routes.
//!
//! Dispatch is keyed. Each route registers under a [`RouteKey`] naming
//! what it follows, and an event goes only to the routes its keys
//! select: a tag's `TagEntered`/`TagLeft` to that tag's references and
//! to the discoverers, a peer's `PeerEntered`/`PeerLeft` to that peer's
//! references and to the beamers, a `BeamReceived` to the inboxes and
//! beam receivers. The table is one ordered map keyed by `(key, id)`,
//! so a poll clones only the matching closures and unregistering is a
//! logarithmic remove. Three rules hold:
//!
//! * **Feed order, from registration on.** Each route sees events in the
//!   order the world raised them, and only events queued after it
//!   registered: each queued event is stamped with its place in the
//!   feed, and a route records the next stamp when it registers.
//! * **Registration order.** Among the routes one event selects, calls
//!   follow registration order, across keys too: a tag reference made
//!   before a discoverer runs first on the same `TagEntered`.
//! * **Closures drop outside the lock.** Dropping a route's
//!   [`RouteGuard`] (or a reference calling `close()`) unregisters it;
//!   its closure may own other routes' guards, so it is dropped after
//!   the table's lock is released.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use morena_nfc_sim::controller::NfcHandle;
use morena_nfc_sim::tag::TagUid;
use morena_nfc_sim::world::{NfcEvent, PhoneId};
use morena_obs::inspect::{ComponentSnapshot, RouterSnapshot, SnapshotProvider};
use morena_obs::{Counter, MemFootprint, Mutex};

use crate::sched::{LoopPoll, PollTask, Scheduler, Shard};

type RouteFn = Arc<dyn Fn(&NfcEvent) + Send + Sync>;

/// What a route follows: the events of one tag or peer, or every event
/// of one kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum RouteKey {
    /// One tag entering or leaving the field (a tag reference).
    Tag(TagUid),
    /// One peer entering or leaving beam range (a peer reference).
    Peer(PhoneId),
    /// Every tag entering or leaving the field (a discoverer).
    AnyTag,
    /// Every peer entering or leaving beam range (a beamer).
    AnyPeer,
    /// Every received beam (an inbox or a beam receiver).
    Beam,
}

impl RouteKey {
    /// Inspector labels, one per key kind, in [`RouteKey::kind`] order.
    const KINDS: [&'static str; 5] = ["tag", "peer", "any_tag", "any_peer", "beam"];

    fn kind(self) -> usize {
        match self {
            RouteKey::Tag(_) => 0,
            RouteKey::Peer(_) => 1,
            RouteKey::AnyTag => 2,
            RouteKey::AnyPeer => 3,
            RouteKey::Beam => 4,
        }
    }

    /// The keys whose routes `event` goes to.
    fn of(event: &NfcEvent) -> [Option<RouteKey>; 2] {
        match event {
            NfcEvent::TagEntered { uid, .. } | NfcEvent::TagLeft { uid } => {
                [Some(RouteKey::Tag(*uid)), Some(RouteKey::AnyTag)]
            }
            NfcEvent::PeerEntered { peer } | NfcEvent::PeerLeft { peer } => {
                [Some(RouteKey::Peer(*peer)), Some(RouteKey::AnyPeer)]
            }
            NfcEvent::BeamReceived { .. } => [Some(RouteKey::Beam), None],
        }
    }
}

struct Route {
    /// The stamp of the first event this route sees.
    from: u64,
    route: RouteFn,
}

/// Routes by key, then by registration id: one key's routes are a
/// contiguous range in registration order.
type RouteTable = BTreeMap<(RouteKey, u64), Route>;

/// Events queued by the sink and not yet dispatched, each with its
/// place in the feed.
#[derive(Default)]
struct Feed {
    events: VecDeque<(u64, NfcEvent)>,
    /// The stamp the next queued event gets.
    next_seq: u64,
}

/// The per-context event dispatcher, a task on the context's pool. The
/// world drops its sink at the first event after the last context clone
/// (and so the router) is gone.
pub(crate) struct EventRouter {
    routes: Mutex<RouteTable>,
    feed: Mutex<Feed>,
    next_id: AtomicU64,
    scheduled: AtomicBool,
    shard: Arc<Shard>,
    phone: PhoneId,
    /// `router.events`: events dispatched.
    events: Counter,
    /// `router.route_calls`: route closures called.
    route_calls: Counter,
}

impl PollTask for EventRouter {
    fn poll(&self) -> LoopPoll {
        let batch = std::mem::take(&mut self.feed.lock().events);
        if batch.is_empty() {
            return LoopPoll::Park;
        }
        let mut matched: Vec<(u64, RouteFn)> = Vec::new();
        for (seq, event) in batch {
            // Clone the matching closures and call them outside the
            // lock: a route may drop the last handle to another
            // reference mid-dispatch, whose guard would then re-enter
            // `routes`. Every route registered before this event was
            // queued is in the table or already unregistered.
            {
                let routes = self.routes.lock();
                for key in RouteKey::of(&event).into_iter().flatten() {
                    matched.extend(
                        routes
                            .range((key, 0)..=(key, u64::MAX))
                            .filter(|(_, r)| seq >= r.from)
                            .map(|(&(_, id), r)| (id, Arc::clone(&r.route))),
                    );
                }
            }
            // A tag's routes and the discoverers' interleave by id.
            matched.sort_unstable_by_key(|&(id, _)| id);
            self.events.inc();
            self.route_calls.add(matched.len() as u64);
            for (_, route) in matched.drain(..) {
                route(&event);
            }
        }
        LoopPoll::Park
    }

    fn try_schedule(&self) -> bool {
        !self.scheduled.swap(true, Ordering::AcqRel)
    }

    fn clear_scheduled(&self) {
        self.scheduled.store(false, Ordering::Release);
    }
}

impl std::fmt::Debug for EventRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRouter").field("routes", &self.routes.lock().len()).finish()
    }
}

/// Route count per [`RouteKey::KINDS`] entry, and the closures' bytes.
fn tally(routes: &RouteTable) -> ([usize; 5], u64) {
    let mut kinds = [0; 5];
    let mut closure_bytes = 0;
    for (&(key, _), route) in routes {
        kinds[key.kind()] += 1;
        // The closure's captures plus its `Arc`'s two counts.
        closure_bytes += (std::mem::size_of_val(&*route.route) + 16) as u64;
    }
    (kinds, closure_bytes)
}

/// Bytes per table entry: the key and the route, over a B-tree node
/// about two thirds full (11 slots, split in half when full).
const ENTRY_BYTES: u64 =
    (std::mem::size_of::<(RouteKey, u64)>() + std::mem::size_of::<Route>()) as u64 * 3 / 2;

impl EventRouter {
    fn mem_with(&self, routes: usize, closure_bytes: u64) -> u64 {
        let queued = self.feed.lock().events.capacity();
        std::mem::size_of::<EventRouter>() as u64
            + routes as u64 * ENTRY_BYTES
            + closure_bytes
            + (queued * std::mem::size_of::<(u64, NfcEvent)>()) as u64
    }
}

impl MemFootprint for EventRouter {
    fn mem_bytes(&self) -> u64 {
        let (routes, closure_bytes) = {
            let routes = self.routes.lock();
            (routes.len(), tally(&routes).1)
        };
        self.mem_with(routes, closure_bytes)
    }
}

impl SnapshotProvider for EventRouter {
    fn snapshot(&self, _now_nanos: u64) -> ComponentSnapshot {
        let (kinds, closure_bytes) = tally(&self.routes.lock());
        let queued_events = self.feed.lock().events.len();
        ComponentSnapshot::Router(RouterSnapshot {
            phone: self.phone.as_u64(),
            routes: RouteKey::KINDS.into_iter().zip(kinds).collect(),
            queued_events,
            mem_bytes: self.mem_with(kinds.iter().sum(), closure_bytes),
        })
    }
}

impl EventRouter {
    /// Places the router's task on a shard of `exec`, subscribes it to
    /// `nfc`'s event feed and registers it with the inspector.
    pub(crate) fn spawn(nfc: &NfcHandle, exec: &Scheduler) -> Arc<EventRouter> {
        let recorder = nfc.world().obs();
        let router = Arc::new(EventRouter {
            routes: Mutex::new(BTreeMap::new()),
            feed: Mutex::new(Feed::default()),
            next_id: AtomicU64::new(0),
            scheduled: AtomicBool::new(false),
            shard: exec.place(),
            phone: nfc.phone(),
            events: recorder.metrics().counter("router.events"),
            route_calls: recorder.metrics().counter("router.route_calls"),
        });
        recorder.inspector().register(
            format!("router-{}", nfc.phone().as_u64()),
            Arc::downgrade(&router) as Weak<dyn SnapshotProvider>,
        );
        // Held weakly, so the world does not keep a dropped context's
        // router alive: the sink goes at the next event. It runs under
        // the world's lock, so it takes only the feed's and shard's locks.
        let weak = Arc::downgrade(&router);
        nfc.world().add_sink(nfc.phone(), move |event| {
            let Some(router) = weak.upgrade() else { return false };
            {
                let mut feed = router.feed.lock();
                let seq = feed.next_seq;
                feed.next_seq += 1;
                feed.events.push_back((seq, event.clone()));
            }
            Arc::clone(&router.shard).wake(router);
            true
        });
        router
    }

    /// Registers a closure under `key`; it runs on the router's shard
    /// for every controller event `key` selects queued from now on,
    /// until the returned guard is dropped.
    pub(crate) fn register(
        self: &Arc<Self>,
        key: RouteKey,
        route: impl Fn(&NfcEvent) + Send + Sync + 'static,
    ) -> RouteGuard {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut routes = self.routes.lock();
        // Read under the routes lock: a poll that looks the routes up
        // before this insert drained only events stamped below `from`.
        let from = self.feed.lock().next_seq;
        routes.insert((key, id), Route { from, route: Arc::new(route) });
        RouteGuard { key, id, router: Arc::downgrade(self) }
    }
}

/// Ownership of one route registration; dropping it unregisters.
#[derive(Debug)]
pub(crate) struct RouteGuard {
    key: RouteKey,
    id: u64,
    router: Weak<EventRouter>,
}

impl Drop for RouteGuard {
    fn drop(&mut self) {
        if let Some(router) = self.router.upgrade() {
            // Take the route out under the lock but drop its closure
            // after releasing it: the closure may own references whose
            // teardown unregisters *their* routes on this same router
            // (e.g. an inbox listener holding a `PeerReference`), and
            // the mutex is not reentrant.
            let removed = router.routes.lock().remove(&(self.key, self.id));
            drop(removed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::MorenaContext;
    use crate::sched::ExecutionPolicy;
    use morena_nfc_sim::clock::{Clock, VirtualClock};
    use morena_nfc_sim::link::LinkModel;
    use morena_nfc_sim::tag::{TagTech, TagUid, Type2Tag};
    use morena_nfc_sim::world::{PhoneId, World};
    use morena_obs::Recorder;
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::time::Duration;

    struct Fixture {
        world: World,
        phone: PhoneId,
        uid: TagUid,
        exec: Scheduler,
        router: Arc<EventRouter>,
    }

    fn fixture(seed: u32, workers: usize) -> Fixture {
        let world = World::with_link(VirtualClock::shared(), LinkModel::instant(), 0);
        let phone = world.add_phone("alice");
        let uid = world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed(seed))));
        let nfc = NfcHandle::new(world.clone(), phone);
        let exec = Scheduler::new(
            ExecutionPolicy::Sharded { workers },
            Arc::clone(world.clock()),
            &Recorder::new(),
        );
        let router = EventRouter::spawn(&nfc, &exec);
        Fixture { world, phone, uid, exec, router }
    }

    /// A task that holds its worker inside one poll until the returned
    /// sender is dropped: what it queues meanwhile waits behind it.
    struct Gate {
        entered: Sender<()>,
        open: Mutex<Receiver<()>>,
    }

    impl PollTask for Gate {
        fn poll(&self) -> LoopPoll {
            let _ = self.entered.send(());
            let _ = self.open.lock().recv();
            LoopPoll::Park
        }
        fn try_schedule(&self) -> bool {
            true
        }
        fn clear_scheduled(&self) {}
    }

    fn hold_the_worker(exec: &Scheduler) -> Sender<()> {
        let (entered_tx, entered) = channel();
        let (open, gate) = channel();
        exec.place().wake(Arc::new(Gate { entered: entered_tx, open: Mutex::new(gate) }));
        entered.recv_timeout(Duration::from_secs(10)).expect("the gate runs");
        open
    }

    #[test]
    fn routes_receive_events_until_their_guard_drops() {
        let f = fixture(1, 2);
        let (tx, rx) = channel();
        let guard = f.router.register(RouteKey::Tag(f.uid), move |event| {
            if let NfcEvent::TagEntered { uid, .. } = event {
                tx.send(*uid).unwrap();
            }
        });
        f.world.tap_tag(f.uid, f.phone);
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), f.uid);

        f.world.remove_tag_from_field(f.uid);
        drop(guard);
        f.world.tap_tag(f.uid, f.phone);
        assert!(rx.recv_timeout(Duration::from_millis(120)).is_err(), "route unregistered");
    }

    /// A route closure may own the guard of *another* route on the same
    /// router (an inbox listener holding a peer reference does exactly
    /// this). Unregistering the outer route then unregisters the inner
    /// one mid-drop — which must not re-enter the routes lock.
    #[test]
    fn dropping_a_route_that_owns_another_route_does_not_deadlock() {
        let f = fixture(3, 2);
        let inner = f.router.register(RouteKey::Tag(f.uid), |_| {});
        let outer = f.router.register(RouteKey::Beam, move |_| {
            let _keepalive = &inner;
        });
        drop(outer); // cascades into dropping `inner` under the same router
        assert!(format!("{:?}", f.router).contains("routes: 0"));

        // Both routes are gone and the router still dispatches.
        let (tx, rx) = channel();
        let _live = f.router.register(RouteKey::AnyTag, move |event| {
            if matches!(event, NfcEvent::TagEntered { .. }) {
                tx.send(()).unwrap();
            }
        });
        f.world.tap_tag(f.uid, f.phone);
        rx.recv_timeout(Duration::from_secs(5)).expect("router must keep dispatching");
    }

    #[test]
    fn routes_fan_out_to_every_registration_in_order() {
        let f = fixture(2, 2);
        let (tx, rx) = channel();
        let tx2 = tx.clone();
        let _a = f.router.register(RouteKey::AnyTag, move |event| {
            if matches!(event, NfcEvent::TagEntered { .. }) {
                tx.send("a").unwrap();
            }
        });
        let _b = f.router.register(RouteKey::AnyTag, move |event| {
            if matches!(event, NfcEvent::TagEntered { .. }) {
                tx2.send("b").unwrap();
            }
        });
        f.world.tap_tag(f.uid, f.phone);
        let first = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let second = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((first, second), ("a", "b"), "dispatch follows registration order");
    }

    /// Each route sees only what its key selects, and routes under two
    /// keys run in registration order on the event they share.
    #[test]
    fn keyed_routes_see_only_their_events_in_registration_order() {
        let f = fixture(7, 2);
        let other = f.world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed(8))));
        let bob = f.world.add_phone("bob");
        let (tx, rx) = channel();
        let route = |label: &'static str| {
            let tx = tx.clone();
            move |event: &NfcEvent| tx.send((label, event.clone())).unwrap()
        };
        let _tag = f.router.register(RouteKey::Tag(f.uid), route("tag"));
        let _any_tag = f.router.register(RouteKey::AnyTag, route("any_tag"));
        let _beam = f.router.register(RouteKey::Beam, route("beam"));
        let _late_tag = f.router.register(RouteKey::Tag(f.uid), route("late_tag"));

        f.world.tap_tag(other, f.phone);
        f.world.bring_phones_together(f.phone, bob);
        assert_eq!(NfcHandle::new(f.world.clone(), bob).beam(&[0xD0, 0, 0]), Ok(1));
        f.world.tap_tag(f.uid, f.phone);
        f.world.remove_tag_from_field(f.uid);

        let entered = |uid| NfcEvent::TagEntered { uid, tech: TagTech::Type2 };
        let left = NfcEvent::TagLeft { uid: f.uid };
        let beamed = NfcEvent::BeamReceived { from: bob, bytes: vec![0xD0, 0, 0] };
        let expected = [
            ("any_tag", entered(other)),
            ("beam", beamed),
            ("tag", entered(f.uid)),
            ("any_tag", entered(f.uid)),
            ("late_tag", entered(f.uid)),
            ("tag", left.clone()),
            ("any_tag", left.clone()),
            ("late_tag", left),
        ];
        let seen: Vec<_> = (0..expected.len())
            .map(|_| rx.recv_timeout(Duration::from_secs(10)).unwrap())
            .collect();
        assert_eq!(seen, expected);
        // The last event's last route has run, so every event is done.
        assert!(rx.try_recv().is_err(), "no route saw the peer's arrival");
        let metrics = f.world.obs().metrics().snapshot();
        assert_eq!(metrics.counter("router.events"), 5);
        assert_eq!(metrics.counter("router.route_calls"), expected.len() as u64);
    }

    #[test]
    fn dropping_one_guard_removes_only_its_route() {
        let f = fixture(9, 2);
        let (dropped_tx, dropped) = channel();
        let (kept_tx, kept) = channel();
        let first = f.router.register(RouteKey::Tag(f.uid), move |event| {
            dropped_tx.send(event.clone()).unwrap();
        });
        let _second = f.router.register(RouteKey::Tag(f.uid), move |event| {
            kept_tx.send(event.clone()).unwrap();
        });
        drop(first);
        assert!(format!("{:?}", f.router).contains("routes: 1"));
        // The dropped route's closure, and so its sender, is gone.
        assert_eq!(dropped.try_recv(), Err(std::sync::mpsc::TryRecvError::Disconnected));
        f.world.tap_tag(f.uid, f.phone);
        let event = kept.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(event, NfcEvent::TagEntered { uid: f.uid, tech: TagTech::Type2 });
    }

    fn tag_routes(router: &RouterSnapshot) -> usize {
        router.routes.iter().find(|(kind, _)| *kind == "tag").map_or(0, |(_, n)| *n)
    }

    fn router_snapshot(world: &World) -> RouterSnapshot {
        let snapshot = world.obs().inspector().snapshot(0);
        let mut routers = snapshot.components.into_iter().filter_map(|c| match c.state {
            ComponentSnapshot::Router(r) => Some(r),
            _ => None,
        });
        let router = routers.next().expect("the context's router is registered");
        assert!(routers.next().is_none(), "one context, one router");
        router
    }

    /// The inspector sees the keyed table: one `tag` route per
    /// reference, and bytes that grow with them.
    #[test]
    fn references_show_up_as_tag_routes_in_the_inspector() {
        use crate::convert::StringConverter;
        use crate::tagref::TagReference;

        let world = World::with_link(VirtualClock::shared(), LinkModel::instant(), 0);
        let phone = world.add_phone("alice");
        let ctx =
            MorenaContext::headless_with(&world, phone, ExecutionPolicy::Sharded { workers: 1 });
        let converter = Arc::new(StringConverter::plain_text());
        let mut references = Vec::new();
        let mut mem = Vec::new();
        for n in [10, 20] {
            while references.len() < n {
                let uid = TagUid::from_seed(references.len() as u32);
                references.push(TagReference::new(
                    &ctx,
                    uid,
                    TagTech::Type2,
                    Arc::clone(&converter),
                ));
            }
            let router = router_snapshot(&world);
            assert_eq!(router.phone, phone.as_u64());
            assert_eq!(tag_routes(&router), n);
            assert_eq!(router.routes.iter().map(|(_, r)| r).sum::<usize>(), n);
            assert_eq!(router.queued_events, 0);
            mem.push(router.mem_bytes);
        }
        assert!(mem[1] > mem[0], "route bytes grow with the references: {mem:?}");
        assert_eq!(ctx.router().mem_bytes(), mem[1], "the snapshot reports `mem_bytes`");

        for reference in &references {
            reference.close();
        }
        assert_eq!(tag_routes(&router_snapshot(&world)), 0);
    }

    /// The guarantee discovery relies on: a route never sees an event
    /// queued before it registered, even when the router's task has not
    /// polled that event yet.
    #[test]
    fn a_route_registered_after_an_event_was_queued_never_sees_it() {
        let f = fixture(5, 1);
        let (tx, rx) = channel();
        let early_tx = tx.clone();
        let _early = f.router.register(RouteKey::AnyTag, move |event| {
            early_tx.send(("early", event.clone())).unwrap()
        });
        let open_gate = hold_the_worker(&f.exec);
        // Queued behind the gate on the only worker.
        f.world.tap_tag(f.uid, f.phone);
        let _late = f
            .router
            .register(RouteKey::Tag(f.uid), move |event| tx.send(("late", event.clone())).unwrap());
        f.world.remove_tag_from_field(f.uid);
        drop(open_gate);

        let entered = NfcEvent::TagEntered { uid: f.uid, tech: TagTech::Type2 };
        let left = NfcEvent::TagLeft { uid: f.uid };
        let seen: Vec<_> =
            (0..3).map(|_| rx.recv_timeout(Duration::from_secs(10)).unwrap()).collect();
        assert_eq!(seen, [("early", entered), ("early", left.clone()), ("late", left)]);
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err(), "one event too many");
    }

    /// A context dropped while its router's task is still queued with an
    /// undispatched tap frees the router, its shard and the world, and
    /// the world prunes the router's sink at the next event.
    #[test]
    fn dropping_the_context_frees_a_router_with_a_queued_event() {
        let world = World::with_link(VirtualClock::shared(), LinkModel::instant(), 0);
        let phone = world.add_phone("alice");
        let uid = world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed(6))));
        let ctx =
            MorenaContext::headless_with(&world, phone, ExecutionPolicy::Sharded { workers: 1 });
        let open_gate = hold_the_worker(ctx.execution());
        world.tap_tag(uid, phone);
        let router = Arc::downgrade(ctx.router());
        let shard = Arc::downgrade(&ctx.router().shard);
        let clock: Weak<dyn Clock> = Arc::downgrade(world.clock());
        assert!(format!("{world:?}").contains("sinks: 1"));
        drop(ctx);
        // The worker leaves the gate, sees the shutdown and releases the
        // router it still has queued.
        drop(open_gate);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while router.strong_count() > 0 || shard.strong_count() > 0 {
            assert!(std::time::Instant::now() < deadline, "the queued router and its shard leaked");
            std::thread::sleep(Duration::from_millis(1));
        }
        world.remove_tag_from_field(uid);
        assert!(format!("{world:?}").contains("sinks: 0"), "the next event prunes the sink");
        drop(world);
        while clock.strong_count() > 0 {
            assert!(std::time::Instant::now() < deadline, "the world leaked");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}
