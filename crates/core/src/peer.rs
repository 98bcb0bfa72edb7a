//! Far references to **phones**: the general ambient-oriented case.
//!
//! §1.2 of the paper describes the far-reference model for *"remote
//! services and RFID tags"* alike — a first-class reference that stores
//! messages while the party is unreachable and forwards them, in order,
//! when connectivity returns. [`TagReference`](crate::tagref::TagReference)
//! is that model for tags; [`PeerReference`] is the same machine pointed
//! at a specific peer phone, carried over the connection-oriented
//! (LLCP-style) NFC push transport.
//!
//! Unlike the undirected [`Beamer`](crate::beam::Beamer) — which pushes
//! to *whoever* is in proximity — a peer reference addresses one known
//! phone: messages queue until *that* phone is nearby, survive noise
//! through automatic retry, and expire at their timeout. [`PeerInbox`]
//! is the typed receiving side, delivering `(sender, value)` pairs on
//! the main thread.

use std::sync::Arc;
use std::time::Duration;

use morena_ndef::NdefMessage;
use morena_nfc_sim::world::{obs_peer_target, NfcEvent, PhoneId};
use morena_obs::Mutex;
use morena_obs::{trace, EventKind, MemFootprint};

use crate::beam::PushExecutor;
use crate::context::MorenaContext;
use crate::convert::TagDataConverter;
use crate::eventloop::{EventLoop, ObsScope, OpFailure, OpRequest, OpStats};
use crate::future::UnitFuture;
use crate::policy::Policy;
use crate::router::RouteGuard;
use crate::tracewire;

struct PeerRefInner<C: TagDataConverter> {
    ctx: MorenaContext,
    peer: PhoneId,
    converter: Arc<C>,
    event_loop: EventLoop,
    route: Mutex<Option<RouteGuard>>,
}

impl<C: TagDataConverter> Drop for PeerRefInner<C> {
    fn drop(&mut self) {
        self.event_loop.stop();
    }
}

/// A first-class far reference to one peer phone.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use morena_core::context::MorenaContext;
/// use morena_core::convert::StringConverter;
/// use morena_core::peer::PeerReference;
/// use morena_nfc_sim::clock::VirtualClock;
/// use morena_nfc_sim::link::LinkModel;
/// use morena_nfc_sim::world::World;
///
/// let world = World::with_link(VirtualClock::shared(), LinkModel::instant(), 0);
/// let alice = world.add_phone("alice");
/// let bob = world.add_phone("bob");
/// let ctx = MorenaContext::headless(&world, alice);
///
/// let to_bob = PeerReference::new(&ctx, bob, Arc::new(StringConverter::plain_text()));
/// // Queue a message for bob while he is across town.
/// to_bob.send("see you at the meetup".to_string(), || {}, |_| {});
/// assert_eq!(to_bob.queue_len(), 1);
/// ```
pub struct PeerReference<C: TagDataConverter> {
    inner: Arc<PeerRefInner<C>>,
}

impl<C: TagDataConverter> Clone for PeerReference<C> {
    fn clone(&self) -> PeerReference<C> {
        PeerReference { inner: Arc::clone(&self.inner) }
    }
}

impl<C: TagDataConverter> MemFootprint for PeerReference<C> {
    fn mem_bytes(&self) -> u64 {
        std::mem::size_of::<PeerRefInner<C>>() as u64 + self.inner.event_loop.mem_bytes()
    }
}

impl<C: TagDataConverter> std::fmt::Debug for PeerReference<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PeerReference")
            .field("peer", &self.inner.peer.to_string())
            .field("queued", &self.queue_len())
            .field("connected", &self.is_connected())
            .finish()
    }
}

impl<C: TagDataConverter> PeerReference<C> {
    /// Creates a reference to `peer` inheriting the context's default
    /// [`Policy`].
    pub fn new(ctx: &MorenaContext, peer: PhoneId, converter: Arc<C>) -> PeerReference<C> {
        PeerReference::with_policy(ctx, peer, converter, ctx.default_policy())
    }

    /// Creates a reference to `peer` pinned to an explicit distribution
    /// [`Policy`].
    pub fn with_policy(
        ctx: &MorenaContext,
        peer: PhoneId,
        converter: Arc<C>,
        policy: Policy,
    ) -> PeerReference<C> {
        let event_loop = EventLoop::spawn(
            &format!("peer-{peer}"),
            ctx.execution(),
            Arc::clone(ctx.clock()),
            ctx.handler(),
            policy,
            PushExecutor { nfc: ctx.nfc().clone(), to: Some(peer) },
            // Target keyed like the simulator's peer-presence events
            // ("phone-N") so the correlator can join the two streams.
            ObsScope::new(ctx, format!("peer-{peer}"), "peer", obs_peer_target(peer)),
        );
        // Presence changes of *this* peer re-arm the loop, via the
        // context's shared event router.
        let loop_for_route = event_loop.clone();
        let route = ctx.router().register(move |event| match event {
            NfcEvent::PeerEntered { peer: p } | NfcEvent::PeerLeft { peer: p } if *p == peer => {
                loop_for_route.wake();
            }
            _ => {}
        });
        PeerReference {
            inner: Arc::new(PeerRefInner {
                ctx: ctx.clone(),
                peer,
                converter,
                event_loop,
                route: Mutex::new(Some(route)),
            }),
        }
    }

    /// The peer this reference points at.
    pub fn peer(&self) -> PhoneId {
        self.inner.peer
    }

    /// Whether the peer is in proximity right now.
    pub fn is_connected(&self) -> bool {
        self.inner.ctx.nfc().peer_in_range(self.inner.peer)
    }

    /// Messages still queued for the peer.
    pub fn queue_len(&self) -> usize {
        self.inner.event_loop.queue_len()
    }

    /// Lifetime delivery statistics.
    pub fn stats(&self) -> Arc<OpStats> {
        self.inner.event_loop.stats()
    }

    /// Queues `value` for delivery to the peer with the default timeout;
    /// listeners run on the main thread.
    pub fn send<F, G>(&self, value: C::Value, on_delivered: F, on_failure: G)
    where
        F: FnOnce() + Send + 'static,
        G: FnOnce(OpFailure) + Send + 'static,
    {
        self.send_impl(value, None, on_delivered, on_failure);
    }

    /// [`send`](PeerReference::send) with an explicit timeout.
    pub fn send_with_timeout<F, G>(
        &self,
        value: C::Value,
        timeout: Duration,
        on_delivered: F,
        on_failure: G,
    ) where
        F: FnOnce() + Send + 'static,
        G: FnOnce(OpFailure) + Send + 'static,
    {
        self.send_impl(value, Some(timeout), on_delivered, on_failure);
    }

    /// [`send`](PeerReference::send) without listeners.
    pub fn send_ok(&self, value: C::Value) {
        self.send_impl(value, None, || {}, |_| {});
    }

    fn send_impl<F, G>(
        &self,
        value: C::Value,
        timeout: Option<Duration>,
        on_delivered: F,
        on_failure: G,
    ) where
        F: FnOnce() + Send + 'static,
        G: FnOnce(OpFailure) + Send + 'static,
    {
        let bytes = match self.inner.converter.to_message(&value) {
            Ok(message) => message.to_bytes(),
            Err(e) => {
                self.inner.ctx.handler().post(move || on_failure(OpFailure::InvalidData(e)));
                return;
            }
        };
        self.inner.event_loop.submit(
            OpRequest::Push(bytes.into()),
            timeout,
            Box::new(move |_| on_delivered()),
            Box::new(on_failure),
        );
    }

    /// Queues `value` for delivery and returns a future resolving once
    /// it reaches the peer. Conversion failures resolve the future with
    /// [`OpFailure::InvalidData`]; dropping it before completion
    /// withdraws the message.
    pub fn send_async(&self, value: C::Value) -> UnitFuture {
        self.send_async_with_timeout_opt(value, None)
    }

    /// [`send_async`](PeerReference::send_async) with an explicit
    /// timeout.
    pub fn send_async_with_timeout(&self, value: C::Value, timeout: Duration) -> UnitFuture {
        self.send_async_with_timeout_opt(value, Some(timeout))
    }

    fn send_async_with_timeout_opt(
        &self,
        value: C::Value,
        timeout: Option<Duration>,
    ) -> UnitFuture {
        let bytes = match self.inner.converter.to_message(&value) {
            Ok(message) => message.to_bytes(),
            Err(e) => return UnitFuture::failed(OpFailure::InvalidData(e)),
        };
        UnitFuture::queued(
            self.inner.event_loop.submit_future(OpRequest::Push(bytes.into()), timeout),
        )
    }

    /// Stops the reference; queued messages fail with
    /// [`OpFailure::Cancelled`].
    pub fn close(&self) {
        self.inner.route.lock().take();
        self.inner.event_loop.stop();
    }
}

/// Typed reception of directed messages; methods run on the main thread.
pub trait PeerListener<C: TagDataConverter>: Send + Sync + 'static {
    /// A value arrived from `from`.
    fn on_message(&self, from: PhoneId, value: C::Value);

    /// Fine-grained filter applied before
    /// [`on_message`](PeerListener::on_message).
    fn check_condition(&self, from: PhoneId, value: &C::Value) -> bool {
        let _ = (from, value);
        true
    }
}

struct InboxInner {
    route: Mutex<Option<RouteGuard>>,
    _ctx: MorenaContext,
}

/// Receives directed (and broadcast) pushes of one data type, delivering
/// `(sender, value)` to a [`PeerListener`].
pub struct PeerInbox<C: TagDataConverter> {
    inner: Arc<InboxInner>,
    _marker: std::marker::PhantomData<fn() -> C>,
}

impl<C: TagDataConverter> std::fmt::Debug for PeerInbox<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PeerInbox").finish_non_exhaustive()
    }
}

impl<C: TagDataConverter> PeerInbox<C> {
    /// Starts receiving; matching messages reach `listener` on the main
    /// thread.
    pub fn new(
        ctx: &MorenaContext,
        converter: Arc<C>,
        listener: Arc<dyn PeerListener<C>>,
    ) -> PeerInbox<C> {
        let handler = ctx.handler();
        let recorder = Arc::clone(ctx.nfc().world().obs());
        let clock = Arc::clone(ctx.clock());
        let phone = ctx.phone().as_u64();
        let received_ctr = recorder.metrics().counter("peer.received");
        let route = ctx.router().register(move |event| {
            let NfcEvent::BeamReceived { from, bytes } = event else { return };
            let from = *from;
            let Ok(message) = NdefMessage::parse(bytes) else { return };
            // Strip the in-band trace record before converters or the
            // condition see the message, minting this phone's hop as a
            // child of the sender's span (see `crate::tracewire`).
            let wire_ctx = tracewire::find_trace(&message);
            let message = match wire_ctx {
                Some(_) => tracewire::strip_trace(&message),
                None => message,
            };
            let ctx = wire_ctx.map(|sender| sender.child(recorder.next_span_id()));
            if !converter.accepts(&message) {
                return;
            }
            let Ok(value) = converter.from_message(&message) else {
                return;
            };
            if !listener.check_condition(from, &value) {
                return;
            }
            received_ctr.inc();
            if recorder.is_enabled() {
                recorder.emit_traced(
                    clock.now().as_nanos(),
                    ctx,
                    EventKind::PeerReceived {
                        phone,
                        from: from.as_u64(),
                        bytes: bytes.len() as u64,
                    },
                );
            }
            let listener = Arc::clone(&listener);
            // Handler runs under the received context so the app's
            // response continues the sender's trace.
            handler.post(move || trace::with(ctx, move || listener.on_message(from, value)));
        });
        PeerInbox {
            inner: Arc::new(InboxInner { route: Mutex::new(Some(route)), _ctx: ctx.clone() }),
            _marker: std::marker::PhantomData,
        }
    }

    /// Stops receiving.
    pub fn stop(&self) {
        self.inner.route.lock().take();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::StringConverter;
    use morena_nfc_sim::clock::VirtualClock;
    use morena_nfc_sim::link::LinkModel;
    use morena_nfc_sim::world::World;
    use std::sync::mpsc::{channel, Sender};

    struct Collect {
        tx: Sender<(PhoneId, String)>,
    }

    impl PeerListener<StringConverter> for Collect {
        fn on_message(&self, from: PhoneId, value: String) {
            self.tx.send((from, value)).unwrap();
        }
    }

    fn setup() -> (World, MorenaContext, MorenaContext, MorenaContext) {
        let world = World::with_link(VirtualClock::shared(), LinkModel::instant(), 81);
        let a = world.add_phone("alice");
        let b = world.add_phone("bob");
        let c = world.add_phone("carol");
        (
            world.clone(),
            MorenaContext::headless(&world, a),
            MorenaContext::headless(&world, b),
            MorenaContext::headless(&world, c),
        )
    }

    #[test]
    fn messages_queue_until_the_specific_peer_arrives() {
        let (world, actx, bctx, cctx) = setup();
        let conv = Arc::new(StringConverter::plain_text());
        let to_bob = PeerReference::new(&actx, bctx.phone(), Arc::clone(&conv));

        let (b_tx, b_rx) = channel();
        let _bob_inbox = PeerInbox::new(&bctx, Arc::clone(&conv), Arc::new(Collect { tx: b_tx }));
        let (c_tx, c_rx) = channel();
        let _carol_inbox = PeerInbox::new(&cctx, Arc::clone(&conv), Arc::new(Collect { tx: c_tx }));

        let (ok_tx, ok_rx) = channel();
        for i in 0..3 {
            let ok_tx = ok_tx.clone();
            to_bob.send(format!("m{i}"), move || ok_tx.send(i).unwrap(), |f| panic!("{f}"));
        }
        assert_eq!(to_bob.queue_len(), 3);
        assert!(!to_bob.is_connected());

        // Carol showing up does NOT trigger delivery — the reference is
        // to bob specifically.
        world.bring_phones_together(actx.phone(), cctx.phone());
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(to_bob.queue_len(), 3);
        assert!(c_rx.try_recv().is_err());

        // Bob arrives: the whole queue flushes to him, in order.
        world.bring_phones_together(actx.phone(), bctx.phone());
        let received: Vec<(PhoneId, String)> =
            (0..3).map(|_| b_rx.recv_timeout(Duration::from_secs(10)).unwrap()).collect();
        assert_eq!(
            received,
            vec![
                (actx.phone(), "m0".to_string()),
                (actx.phone(), "m1".to_string()),
                (actx.phone(), "m2".to_string()),
            ]
        );
        assert_eq!(ok_rx.iter().take(3).count(), 3);
        // Carol, though equally close, received nothing.
        assert!(c_rx.try_recv().is_err());
        to_bob.close();
    }

    #[test]
    fn send_times_out_if_the_peer_never_comes() {
        let (world, actx, bctx, _cctx) = setup();
        let clock = {
            // Recover the virtual clock through the world for advancing.
            world.clock().clone()
        };
        let to_bob =
            PeerReference::new(&actx, bctx.phone(), Arc::new(StringConverter::plain_text()));
        let (tx, rx) = channel();
        to_bob.send_with_timeout(
            "never".into(),
            Duration::from_secs(3),
            || panic!("bob never arrives"),
            move |f| tx.send(f).unwrap(),
        );
        // Drive virtual time past the deadline.
        clock.sleep(Duration::from_secs(4));
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), OpFailure::TimedOut);
        to_bob.close();
    }

    #[test]
    fn inbox_condition_filters_by_sender() {
        let (world, actx, bctx, cctx) = setup();
        let conv = Arc::new(StringConverter::plain_text());

        struct OnlyFrom {
            wanted: PhoneId,
            tx: Sender<(PhoneId, String)>,
        }
        impl PeerListener<StringConverter> for OnlyFrom {
            fn on_message(&self, from: PhoneId, value: String) {
                self.tx.send((from, value)).unwrap();
            }
            fn check_condition(&self, from: PhoneId, _value: &String) -> bool {
                from == self.wanted
            }
        }

        let (tx, rx) = channel();
        let _inbox = PeerInbox::new(
            &cctx,
            Arc::clone(&conv),
            Arc::new(OnlyFrom { wanted: actx.phone(), tx }),
        );
        world.bring_phones_together(cctx.phone(), actx.phone());
        world.bring_phones_together(cctx.phone(), bctx.phone());

        let from_bob = PeerReference::new(&bctx, cctx.phone(), Arc::clone(&conv));
        from_bob.send_ok("ignored".into());
        let from_alice = PeerReference::new(&actx, cctx.phone(), Arc::clone(&conv));
        from_alice.send_ok("accepted".into());

        let (from, value) = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(from, actx.phone());
        assert_eq!(value, "accepted");
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn stopped_inbox_hears_nothing() {
        let (world, actx, bctx, _cctx) = setup();
        let conv = Arc::new(StringConverter::plain_text());
        let (tx, rx) = channel();
        let inbox = PeerInbox::new(&bctx, Arc::clone(&conv), Arc::new(Collect { tx }));
        inbox.stop();
        std::thread::sleep(Duration::from_millis(60));
        world.bring_phones_together(actx.phone(), bctx.phone());
        let to_bob = PeerReference::new(&actx, bctx.phone(), Arc::clone(&conv));
        to_bob.send_ok("unheard".into());
        assert!(rx.recv_timeout(Duration::from_millis(200)).is_err());
        assert!(format!("{inbox:?}").contains("PeerInbox"));
        to_bob.close();
    }

    #[test]
    fn close_cancels_queued_messages() {
        let (_world, actx, bctx, _cctx) = setup();
        let to_bob =
            PeerReference::new(&actx, bctx.phone(), Arc::new(StringConverter::plain_text()));
        let (tx, rx) = channel();
        to_bob.send("never".into(), || panic!("no"), move |f| tx.send(f).unwrap());
        to_bob.close();
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), OpFailure::Cancelled);
        assert!(format!("{to_bob:?}").contains("PeerReference"));
    }
}
