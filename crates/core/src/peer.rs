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
//!
//! Both push objects run one machine, kept here: a `Beamer` is a push
//! core aimed at no phone in particular, a `PeerReference` one aimed at
//! its peer, and a [`BeamReceiver`](crate::beam::BeamReceiver) and a
//! `PeerInbox` each register the one inbound route.

use std::sync::Arc;
use std::time::Duration;

use morena_ndef::NdefMessage;
use morena_nfc_sim::controller::{NfcHandle, Resume};
use morena_nfc_sim::error::NfcOpError;
use morena_nfc_sim::world::{obs_peer_target, NfcEvent, PhoneId};
use morena_obs::Mutex;
use morena_obs::{trace, EventKind, MemFootprint};

use crate::context::MorenaContext;
use crate::convert::TagDataConverter;
use crate::eventloop::{
    Attempted, EventLoop, OpExecutor, OpFailure, OpRequest, OpResponse, OpStats, Progress,
};
use crate::future::{OpFuture, UnitFuture};
use crate::policy::Policy;
use crate::router::{RouteGuard, RouteKey};
use crate::tracewire;

/// Whether `to` is in push range, any peer when `to` is `None`.
fn in_range(nfc: &NfcHandle, to: Option<PhoneId>) -> bool {
    match to {
        Some(peer) => nfc.peer_in_range(peer),
        None => nfc.any_peer_in_range(),
    }
}

/// The physical executor of a push core: one push per attempt.
struct PushExecutor {
    nfc: NfcHandle,
    to: Option<PhoneId>,
}

impl OpExecutor for PushExecutor {
    fn connected(&self) -> bool {
        in_range(&self.nfc, self.to)
    }

    fn execute(&self, request: &OpRequest, progress: &mut Progress) -> Attempted {
        let OpRequest::Push(bytes) = request else {
            return Resume::Ready(Err(NfcOpError::Protocol("peers only take pushes")));
        };
        // The poll loop runs this under the op's ambient trace scope; a
        // sampled context rides the payload in-band so the receiving
        // phone's handler joins the trace. The stamp is the same on the
        // poll that begins the push and on the one that lands it.
        let stamped = tracewire::stamp_outgoing(bytes);
        let payload = stamped.as_deref().unwrap_or(bytes);
        self.nfc
            .resume_beam(&mut progress.session, self.to, payload)
            .map(|pushed| pushed.map(|_| OpResponse::Done).map_err(NfcOpError::Link))
    }
}

/// The outbound far-reference machine behind a
/// [`Beamer`](crate::beam::Beamer) (`to: None`, any peer in range) and a
/// [`PeerReference`] (`to: Some(peer)`). Everything the two differ in
/// derives from `to`: the loop's name, kind and telemetry target, and
/// the router key whose presence changes re-arm the loop.
///
/// Push listeners take no handle, so the last handle going stops the
/// loop and its queued pushes fail with [`OpFailure::Cancelled`].
pub(crate) struct PushCore<C: TagDataConverter> {
    ctx: MorenaContext,
    to: Option<PhoneId>,
    pub(crate) converter: Arc<C>,
    pub(crate) event_loop: EventLoop,
    route: Mutex<Option<RouteGuard>>,
}

impl<C: TagDataConverter> Drop for PushCore<C> {
    fn drop(&mut self) {
        self.event_loop.stop();
    }
}

impl<C: TagDataConverter> MemFootprint for PushCore<C> {
    fn mem_bytes(&self) -> u64 {
        std::mem::size_of::<PushCore<C>>() as u64 + self.event_loop.mem_bytes()
    }
}

impl<C: TagDataConverter> PushCore<C> {
    /// Starts a push core aimed at `to`, pinned to a policy it shares.
    pub(crate) fn build(
        ctx: &MorenaContext,
        to: Option<PhoneId>,
        converter: Arc<C>,
        policy: Arc<Policy>,
    ) -> Arc<PushCore<C>> {
        // Beaming is undirected; `*` tells the correlator to count *any*
        // peer in range as reachability for these ops. A peer's target is
        // keyed like the simulator's peer-presence events ("phone-N") so
        // the correlator can join the two streams.
        let (name, kind, target, key) = match to {
            None => ("beamer".into(), "beam", "*".into(), RouteKey::AnyPeer),
            Some(peer) => {
                (format!("peer-{peer}"), "peer", obs_peer_target(peer), RouteKey::Peer(peer))
            }
        };
        let event_loop = EventLoop::spawn(
            ctx.execution(),
            Arc::clone(ctx.clock()),
            policy,
            PushExecutor { nfc: ctx.nfc().clone(), to },
            ctx.loop_telemetry(name, kind, target),
        );
        // Presence changes of the target re-arm the loop, via the
        // context's shared event router.
        let loop_for_route = event_loop.clone();
        let route = ctx.router().register(key, move |_| loop_for_route.wake());
        Arc::new(PushCore {
            ctx: ctx.clone(),
            to,
            converter,
            event_loop,
            route: Mutex::new(Some(route)),
        })
    }

    pub(crate) fn in_range(&self) -> bool {
        in_range(self.ctx.nfc(), self.to)
    }

    /// Queues a push of `value`, `timeout` overriding the policy's.
    /// Conversion failures resolve the future with
    /// [`OpFailure::InvalidData`].
    pub(crate) fn push(&self, value: C::Value, timeout: Option<Duration>) -> UnitFuture {
        UnitFuture(match self.converter.to_message(&value) {
            Ok(message) => {
                self.event_loop.submit(OpRequest::Push(message.to_bytes().into()), timeout)
            }
            Err(e) => OpFuture::failed(OpFailure::InvalidData(e)),
        })
    }

    /// [`push`](PushCore::push) with its outcome delivered to a listener
    /// pair on the main thread.
    pub(crate) fn push_then<F, G>(
        &self,
        value: C::Value,
        timeout: Option<Duration>,
        on_success: F,
        on_failure: G,
    ) where
        F: FnOnce() + Send + 'static,
        G: FnOnce(OpFailure) + Send + 'static,
    {
        self.push(value, timeout).listen(self.ctx.handler(), on_success, on_failure);
    }

    /// Stops the loop; queued pushes fail with [`OpFailure::Cancelled`].
    pub(crate) fn close(&self) {
        self.route.lock().take();
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
    peer: PhoneId,
    core: Arc<PushCore<C>>,
}

impl<C: TagDataConverter> Clone for PeerReference<C> {
    fn clone(&self) -> PeerReference<C> {
        PeerReference { peer: self.peer, core: Arc::clone(&self.core) }
    }
}

impl<C: TagDataConverter> MemFootprint for PeerReference<C> {
    fn mem_bytes(&self) -> u64 {
        self.core.mem_bytes()
    }
}

impl<C: TagDataConverter> std::fmt::Debug for PeerReference<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PeerReference")
            .field("peer", &self.peer.to_string())
            .field("queued", &self.queue_len())
            .field("connected", &self.is_connected())
            .finish()
    }
}

impl<C: TagDataConverter> PeerReference<C> {
    /// Creates a reference to `peer` inheriting the context's default
    /// [`Policy`].
    pub fn new(ctx: &MorenaContext, peer: PhoneId, converter: Arc<C>) -> PeerReference<C> {
        PeerReference {
            peer,
            core: PushCore::build(ctx, Some(peer), converter, ctx.shared_policy()),
        }
    }

    /// Creates a reference to `peer` pinned to an explicit distribution
    /// [`Policy`].
    pub fn with_policy(
        ctx: &MorenaContext,
        peer: PhoneId,
        converter: Arc<C>,
        policy: Policy,
    ) -> PeerReference<C> {
        PeerReference { peer, core: PushCore::build(ctx, Some(peer), converter, Arc::new(policy)) }
    }

    /// The peer this reference points at.
    pub fn peer(&self) -> PhoneId {
        self.peer
    }

    /// Whether the peer is in proximity right now.
    pub fn is_connected(&self) -> bool {
        self.core.in_range()
    }

    /// Messages still queued for the peer.
    pub fn queue_len(&self) -> usize {
        self.core.event_loop.queue_len()
    }

    /// Lifetime delivery statistics.
    pub fn stats(&self) -> Arc<OpStats> {
        self.core.event_loop.stats()
    }

    /// Queues `value` for delivery to the peer with the default timeout;
    /// listeners run on the main thread.
    pub fn send<F, G>(&self, value: C::Value, on_delivered: F, on_failure: G)
    where
        F: FnOnce() + Send + 'static,
        G: FnOnce(OpFailure) + Send + 'static,
    {
        self.core.push_then(value, None, on_delivered, on_failure);
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
        self.core.push_then(value, Some(timeout), on_delivered, on_failure);
    }

    /// [`send`](PeerReference::send) without listeners.
    pub fn send_ok(&self, value: C::Value) {
        self.core.push_then(value, None, || {}, |_| {});
    }

    /// Queues `value` for delivery and returns a future resolving once
    /// it reaches the peer. Conversion failures resolve the future with
    /// [`OpFailure::InvalidData`]; dropping it before completion
    /// withdraws the message.
    pub fn send_async(&self, value: C::Value) -> UnitFuture {
        self.core.push(value, None)
    }

    /// [`send_async`](PeerReference::send_async) with an explicit
    /// timeout.
    pub fn send_async_with_timeout(&self, value: C::Value, timeout: Duration) -> UnitFuture {
        self.core.push(value, Some(timeout))
    }

    /// Stops the reference; queued messages fail with
    /// [`OpFailure::Cancelled`]. Dropping the last handle does the same.
    pub fn close(&self) {
        self.core.close();
    }
}

/// Typed reception of directed messages; methods run on the main thread,
/// except `check_condition`.
pub trait PeerListener<C: TagDataConverter>: Send + Sync + 'static {
    /// A value arrived from `from`.
    fn on_message(&self, from: PhoneId, value: C::Value);

    /// Fine-grained filter applied before
    /// [`on_message`](PeerListener::on_message).
    /// It runs on the pool worker that dispatches the message, so it must
    /// not block on a middleware operation, which may need that worker.
    fn check_condition(&self, from: PhoneId, value: &C::Value) -> bool {
        let _ = (from, value);
        true
    }
}

/// The inbound route behind a [`BeamReceiver`](crate::beam::BeamReceiver)
/// and a [`PeerInbox`]: one registration on the context's event router
/// that parses each received push once, strips its trace record,
/// converts and filters it, and posts the value to the main thread.
pub(crate) struct Inbound<C: TagDataConverter> {
    pub(crate) converter: Arc<C>,
    route: Mutex<Option<RouteGuard>>,
    // Keeps the delivery main thread alive for the receiver's lifetime
    // (a headless context owns its main thread).
    _ctx: MorenaContext,
}

impl<C: TagDataConverter> Inbound<C> {
    /// Starts receiving for `listener`; each delivery bumps the counter
    /// `received` and emits the event `kind(phone, from, bytes)`.
    pub(crate) fn new(
        ctx: &MorenaContext,
        converter: Arc<C>,
        listener: Arc<dyn PeerListener<C>>,
        received: &'static str,
        kind: fn(u64, u64, u64) -> EventKind,
    ) -> Inbound<C> {
        let handler = ctx.handler();
        let recorder = Arc::clone(ctx.nfc().world().obs());
        let clock = Arc::clone(ctx.clock());
        let phone = ctx.phone().as_u64();
        let received_ctr = recorder.metrics().counter(received);
        let route_converter = Arc::clone(&converter);
        let route = ctx.router().register(RouteKey::Beam, move |event| {
            let NfcEvent::BeamReceived { from, bytes } = event else { return };
            let from = *from;
            let Ok(message) = NdefMessage::parse(bytes) else { return };
            // Strip the in-band trace record *before* the converter or
            // the condition sees the message (applications never observe
            // it), minting this phone's hop as a child of the sender's
            // span — same trace_id across both devices.
            let wire_ctx = tracewire::find_trace(&message);
            let message = match wire_ctx {
                Some(_) => tracewire::strip_trace(&message),
                None => message,
            };
            let ctx = wire_ctx.map(|sender| sender.child(recorder.next_span_id()));
            if !route_converter.accepts(&message) {
                return;
            }
            let Ok(value) = route_converter.from_message(&message) else {
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
                    kind(phone, from.as_u64(), bytes.len() as u64),
                );
            }
            let listener = Arc::clone(&listener);
            // The handler callback runs under the received context, so
            // anything the app does in response — a tag write, a reply
            // push — continues the sender's trace as a further hop.
            handler.post(move || trace::with(ctx, move || listener.on_message(from, value)));
        });
        Inbound { converter, route: Mutex::new(Some(route)), _ctx: ctx.clone() }
    }

    pub(crate) fn stop(&self) {
        self.route.lock().take();
    }
}

/// Receives directed (and broadcast) pushes of one data type, delivering
/// `(sender, value)` to a [`PeerListener`].
pub struct PeerInbox<C: TagDataConverter> {
    inbound: Inbound<C>,
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
        let kind = |phone, from, bytes| EventKind::PeerReceived { phone, from, bytes };
        PeerInbox { inbound: Inbound::new(ctx, converter, listener, "peer.received", kind) }
    }

    /// Stops receiving.
    pub fn stop(&self) {
        self.inbound.stop();
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
