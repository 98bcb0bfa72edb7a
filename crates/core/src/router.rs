//! One event-dispatch task per context, on the context's worker pool.
//!
//! The [`EventRouter`] subscribes to the phone's field events **once**
//! per [`MorenaContext`](crate::context::MorenaContext) and fans each
//! [`NfcEvent`] out to the filter closures registered by references,
//! beamers, inboxes and discoverers, in feed order per registration. It
//! owns no thread: its sink, run under the world's lock, only queues the
//! event and wakes the router's task on a shard (placed there without
//! counting as a loop), and a poll of the task runs the routes.
//!
//! A route sees only events queued after it registered: each queued
//! event is stamped with its place in the feed, and a route records the
//! next stamp when it registers. Dropping a route's [`RouteGuard`] (or
//! a reference calling `close()`) unregisters it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use morena_nfc_sim::controller::NfcHandle;
use morena_nfc_sim::world::NfcEvent;
use morena_obs::Mutex;

use crate::sched::{LoopPoll, PollTask, Scheduler, Shard};

type RouteFn = Arc<dyn Fn(&NfcEvent) + Send + Sync>;

struct Route {
    id: u64,
    /// The stamp of the first event this route sees.
    from: u64,
    route: RouteFn,
}

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
    routes: Mutex<Vec<Route>>,
    feed: Mutex<Feed>,
    next_id: AtomicU64,
    scheduled: AtomicBool,
    shard: Arc<Shard>,
}

impl PollTask for EventRouter {
    fn poll(&self) -> LoopPoll {
        let batch = std::mem::take(&mut self.feed.lock().events);
        if batch.is_empty() {
            return LoopPoll::Park;
        }
        // Snapshot outside the lock: a route may drop the last handle to
        // another reference mid-dispatch, whose guard would then
        // re-enter `routes`. Every route registered before an event in
        // this batch was queued is in the snapshot.
        let routes: Vec<(u64, RouteFn)> =
            self.routes.lock().iter().map(|r| (r.from, Arc::clone(&r.route))).collect();
        for (seq, event) in batch {
            for (from, route) in &routes {
                if seq >= *from {
                    route(&event);
                }
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

impl EventRouter {
    /// Places the router's task on a shard of `exec` and subscribes it
    /// to `nfc`'s event feed.
    pub(crate) fn spawn(nfc: &NfcHandle, exec: &Scheduler) -> Arc<EventRouter> {
        let router = Arc::new(EventRouter {
            routes: Mutex::new(Vec::new()),
            feed: Mutex::new(Feed::default()),
            next_id: AtomicU64::new(0),
            scheduled: AtomicBool::new(false),
            shard: exec.place(),
        });
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

    /// Registers a filter closure; it runs on the router's shard for
    /// every controller event queued from now on, until the returned
    /// guard is dropped.
    pub(crate) fn register(
        self: &Arc<Self>,
        route: impl Fn(&NfcEvent) + Send + Sync + 'static,
    ) -> RouteGuard {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut routes = self.routes.lock();
        // Read under the routes lock: a poll that snapshots the routes
        // before this push drained only events stamped below `from`.
        let from = self.feed.lock().next_seq;
        routes.push(Route { id, from, route: Arc::new(route) });
        RouteGuard { id, router: Arc::downgrade(self) }
    }
}

/// Ownership of one route registration; dropping it unregisters.
#[derive(Debug)]
pub(crate) struct RouteGuard {
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
            let removed = {
                let mut routes = router.routes.lock();
                routes.iter().position(|r| r.id == self.id).map(|i| routes.remove(i))
            };
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
        let guard = f.router.register(move |event| {
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
        let inner = f.router.register(|_| {});
        let outer = f.router.register(move |_| {
            let _keepalive = &inner;
        });
        drop(outer); // cascades into dropping `inner` under the same router

        // Both routes are gone and the router still dispatches.
        let (tx, rx) = channel();
        let _live = f.router.register(move |event| {
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
        let _a = f.router.register(move |event| {
            if matches!(event, NfcEvent::TagEntered { .. }) {
                tx.send("a").unwrap();
            }
        });
        let _b = f.router.register(move |event| {
            if matches!(event, NfcEvent::TagEntered { .. }) {
                tx2.send("b").unwrap();
            }
        });
        f.world.tap_tag(f.uid, f.phone);
        let first = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let second = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((first, second), ("a", "b"), "dispatch follows registration order");
    }

    /// The guarantee discovery relies on: a route never sees an event
    /// queued before it registered, even when the router's task has not
    /// polled that event yet.
    #[test]
    fn a_route_registered_after_an_event_was_queued_never_sees_it() {
        let f = fixture(5, 1);
        let (tx, rx) = channel();
        let early_tx = tx.clone();
        let _early =
            f.router.register(move |event| early_tx.send(("early", event.clone())).unwrap());
        let open_gate = hold_the_worker(&f.exec);
        // Queued behind the gate on the only worker.
        f.world.tap_tag(f.uid, f.phone);
        let _late = f.router.register(move |event| tx.send(("late", event.clone())).unwrap());
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
