//! Beam: asynchronous phone-to-phone NFC push (§2.5 and §3.3 of the
//! paper).
//!
//! Android's Beam API shares all the drawbacks of its tag API —
//! synchronous, coupled in time, manual conversion, activity-bound.
//! MORENA wraps it in the same machinery as tag references:
//!
//! * a [`Beamer`] queues outgoing pushes in its own event loop and
//!   delivers them when (and only when) a peer phone is in proximity —
//!   *"beaming is an undirected operation that broadcasts a message to
//!   any device willing to accept the beamed data"*;
//! * a [`BeamReceiver`] converts incoming pushes with its read converter
//!   and invokes a typed [`BeamListener`] on the main thread, with the
//!   §3.4 `check_condition` predicate applied first.

use std::sync::Arc;
use std::time::Duration;

use morena_ndef::NdefMessage;
use morena_nfc_sim::controller::{NfcHandle, Resume};
use morena_nfc_sim::error::NfcOpError;
use morena_nfc_sim::world::{NfcEvent, PhoneId};
use morena_obs::Mutex;
use morena_obs::{trace, EventKind, MemFootprint};

use crate::context::MorenaContext;
use crate::convert::TagDataConverter;
use crate::eventloop::{
    Attempted, EventLoop, ObsScope, OpExecutor, OpFailure, OpRequest, OpResponse, OpStats, Progress,
};
use crate::future::UnitFuture;
use crate::policy::Policy;
use crate::router::RouteGuard;
use crate::tracewire;

/// The physical executor behind a [`Beamer`] (`to: None`, any peer in
/// range) and a [`PeerReference`](crate::peer::PeerReference) (one peer):
/// one push per attempt.
pub(crate) struct PushExecutor {
    pub(crate) nfc: NfcHandle,
    pub(crate) to: Option<PhoneId>,
}

impl OpExecutor for PushExecutor {
    fn connected(&self) -> bool {
        match self.to {
            Some(peer) => self.nfc.peer_in_range(peer),
            None => self.nfc.any_peer_in_range(),
        }
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

struct BeamerInner<C: TagDataConverter> {
    ctx: MorenaContext,
    converter: Arc<C>,
    event_loop: EventLoop,
    route: Mutex<Option<RouteGuard>>,
}

impl<C: TagDataConverter> Drop for BeamerInner<C> {
    fn drop(&mut self) {
        self.event_loop.stop();
    }
}

/// Queues values to be pushed to whatever peer phone comes into
/// proximity, with success/failure listeners and timeouts — the paper's
/// `Beamer` object.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use morena_core::beam::Beamer;
/// use morena_core::context::MorenaContext;
/// use morena_core::convert::StringConverter;
/// use morena_nfc_sim::clock::VirtualClock;
/// use morena_nfc_sim::link::LinkModel;
/// use morena_nfc_sim::world::World;
///
/// let world = World::with_link(VirtualClock::shared(), LinkModel::instant(), 0);
/// let alice = world.add_phone("alice");
/// let ctx = MorenaContext::headless(&world, alice);
/// let beamer = Beamer::new(&ctx, Arc::new(StringConverter::plain_text()));
/// // Queue a push now; it is delivered when a peer phone shows up.
/// beamer.beam("shared secret".to_string(), || {}, |_| {});
/// assert_eq!(beamer.queue_len(), 1);
/// ```
pub struct Beamer<C: TagDataConverter> {
    inner: Arc<BeamerInner<C>>,
}

impl<C: TagDataConverter> Clone for Beamer<C> {
    fn clone(&self) -> Beamer<C> {
        Beamer { inner: Arc::clone(&self.inner) }
    }
}

impl<C: TagDataConverter> MemFootprint for Beamer<C> {
    fn mem_bytes(&self) -> u64 {
        std::mem::size_of::<BeamerInner<C>>() as u64 + self.inner.event_loop.mem_bytes()
    }
}

impl<C: TagDataConverter> std::fmt::Debug for Beamer<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Beamer")
            .field("mime", &self.inner.converter.mime_type())
            .field("queued", &self.queue_len())
            .finish()
    }
}

impl<C: TagDataConverter> Beamer<C> {
    /// Creates a beamer inheriting the context's default [`Policy`].
    pub fn new(ctx: &MorenaContext, converter: Arc<C>) -> Beamer<C> {
        Beamer::with_policy(ctx, converter, ctx.default_policy())
    }

    /// Creates a beamer pinned to an explicit distribution [`Policy`].
    pub fn with_policy(ctx: &MorenaContext, converter: Arc<C>, policy: Policy) -> Beamer<C> {
        let event_loop = EventLoop::spawn(
            "beamer",
            ctx.execution(),
            Arc::clone(ctx.clock()),
            ctx.handler(),
            policy,
            PushExecutor { nfc: ctx.nfc().clone(), to: None },
            // Beaming is undirected; `*` tells the correlator to count
            // *any* peer in range as reachability for these ops.
            ObsScope::new(ctx, "beamer".into(), "beam", "*".into()),
        );
        // Any peer appearing or leaving may change reachability: poke the
        // loop through the context's shared event router.
        let loop_for_route = event_loop.clone();
        let route = ctx.router().register(move |event| {
            if matches!(event, NfcEvent::PeerEntered { .. } | NfcEvent::PeerLeft { .. }) {
                loop_for_route.wake();
            }
        });
        Beamer {
            inner: Arc::new(BeamerInner {
                ctx: ctx.clone(),
                converter,
                event_loop,
                route: Mutex::new(Some(route)),
            }),
        }
    }

    /// Whether a peer phone is in beam range right now.
    pub fn peer_in_range(&self) -> bool {
        self.inner.ctx.nfc().any_peer_in_range()
    }

    /// Number of queued pushes.
    pub fn queue_len(&self) -> usize {
        self.inner.event_loop.queue_len()
    }

    /// Lifetime push statistics.
    pub fn stats(&self) -> Arc<OpStats> {
        self.inner.event_loop.stats()
    }

    /// Queues an asynchronous push of `value` with the default timeout.
    ///
    /// `on_success` / `on_failure` run on the main thread, mirroring the
    /// paper's `BeamSuccessListener` / `BeamFailedListener`.
    pub fn beam<F, G>(&self, value: C::Value, on_success: F, on_failure: G)
    where
        F: FnOnce() + Send + 'static,
        G: FnOnce(OpFailure) + Send + 'static,
    {
        self.beam_impl(value, None, on_success, on_failure);
    }

    /// [`beam`](Beamer::beam) with an explicit timeout.
    pub fn beam_with_timeout<F, G>(
        &self,
        value: C::Value,
        timeout: Duration,
        on_success: F,
        on_failure: G,
    ) where
        F: FnOnce() + Send + 'static,
        G: FnOnce(OpFailure) + Send + 'static,
    {
        self.beam_impl(value, Some(timeout), on_success, on_failure);
    }

    /// [`beam`](Beamer::beam) without listeners (fire and forget).
    pub fn beam_ok(&self, value: C::Value) {
        self.beam_impl(value, None, || {}, |_| {});
    }

    fn beam_impl<F, G>(
        &self,
        value: C::Value,
        timeout: Option<Duration>,
        on_success: F,
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
            Box::new(move |_| on_success()),
            Box::new(on_failure),
        );
    }

    /// Queues an asynchronous push of `value` and returns a future
    /// resolving once it lands on a peer. Conversion failures resolve
    /// the future with [`OpFailure::InvalidData`]; dropping it before
    /// completion withdraws the push.
    pub fn beam_async(&self, value: C::Value) -> UnitFuture {
        self.beam_async_with_timeout_opt(value, None)
    }

    /// [`beam_async`](Beamer::beam_async) with an explicit timeout.
    pub fn beam_async_with_timeout(&self, value: C::Value, timeout: Duration) -> UnitFuture {
        self.beam_async_with_timeout_opt(value, Some(timeout))
    }

    fn beam_async_with_timeout_opt(
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

    /// Stops the beamer; queued pushes fail with [`OpFailure::Cancelled`].
    pub fn close(&self) {
        self.inner.route.lock().take();
        self.inner.event_loop.stop();
    }
}

/// Typed reception callbacks for beamed values. Methods run on the main
/// thread.
pub trait BeamListener<C: TagDataConverter>: Send + Sync + 'static {
    /// A value of this receiver's type arrived over Beam.
    fn on_beam_received(&self, value: C::Value);

    /// Fine-grained filter (§3.4) applied before
    /// [`on_beam_received`](BeamListener::on_beam_received).
    fn check_condition(&self, value: &C::Value) -> bool {
        let _ = value;
        true
    }
}

struct ReceiverInner<C: TagDataConverter> {
    converter: Arc<C>,
    route: Mutex<Option<RouteGuard>>,
    // Keeps the delivery main thread alive for the receiver's lifetime
    // (a headless context owns its main thread).
    _ctx: MorenaContext,
}

/// Listens for incoming beamed messages of one data type — the paper's
/// `BeamReceivedListener`, decoupled from the activity.
pub struct BeamReceiver<C: TagDataConverter> {
    inner: Arc<ReceiverInner<C>>,
}

impl<C: TagDataConverter> std::fmt::Debug for BeamReceiver<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BeamReceiver").field("mime", &self.inner.converter.mime_type()).finish()
    }
}

impl<C: TagDataConverter> BeamReceiver<C> {
    /// Starts receiving; messages that match the converter (and pass
    /// `check_condition`) are delivered to `listener` on the main thread.
    pub fn new(
        ctx: &MorenaContext,
        converter: Arc<C>,
        listener: Arc<dyn BeamListener<C>>,
    ) -> BeamReceiver<C> {
        let handler = ctx.handler();
        let recorder = Arc::clone(ctx.nfc().world().obs());
        let clock = Arc::clone(ctx.clock());
        let phone = ctx.phone().as_u64();
        let received_ctr = recorder.metrics().counter("beam.received");
        let route_converter = Arc::clone(&converter);
        let route = ctx.router().register(move |event| {
            let NfcEvent::BeamReceived { from, bytes } = event else { return };
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
            if !listener.check_condition(&value) {
                return;
            }
            received_ctr.inc();
            if recorder.is_enabled() {
                recorder.emit_traced(
                    clock.now().as_nanos(),
                    ctx,
                    EventKind::BeamReceived {
                        phone,
                        from: from.as_u64(),
                        bytes: bytes.len() as u64,
                    },
                );
            }
            let listener = Arc::clone(&listener);
            // The handler callback runs under the received context, so
            // anything the app does in response — a tag write, a reply
            // beam — continues the sender's trace as a further hop.
            handler.post(move || trace::with(ctx, move || listener.on_beam_received(value)));
        });
        BeamReceiver {
            inner: Arc::new(ReceiverInner {
                converter,
                route: Mutex::new(Some(route)),
                _ctx: ctx.clone(),
            }),
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
        tx: Sender<String>,
        condition: Box<dyn Fn(&String) -> bool + Send + Sync>,
    }

    impl BeamListener<StringConverter> for Collect {
        fn on_beam_received(&self, value: String) {
            self.tx.send(value).unwrap();
        }
        fn check_condition(&self, value: &String) -> bool {
            (self.condition)(value)
        }
    }

    fn setup() -> (World, MorenaContext, MorenaContext) {
        let world = World::with_link(VirtualClock::shared(), LinkModel::instant(), 11);
        let alice = world.add_phone("alice");
        let bob = world.add_phone("bob");
        let actx = MorenaContext::headless(&world, alice);
        let bctx = MorenaContext::headless(&world, bob);
        (world, actx, bctx)
    }

    #[test]
    fn beam_reaches_typed_receiver() {
        let (world, actx, bctx) = setup();
        let (tx, rx) = channel();
        let _receiver = BeamReceiver::new(
            &bctx,
            Arc::new(StringConverter::plain_text()),
            Arc::new(Collect { tx, condition: Box::new(|_| true) }),
        );
        let beamer = Beamer::new(&actx, Arc::new(StringConverter::plain_text()));
        world.bring_phones_together(actx.phone(), bctx.phone());

        let (ok_tx, ok_rx) = channel();
        beamer.beam(
            "beamed!".to_string(),
            move || ok_tx.send(()).unwrap(),
            |f| panic!("beam failed: {f}"),
        );
        ok_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), "beamed!");
    }

    #[test]
    fn beams_queue_until_a_peer_arrives() {
        let (world, actx, bctx) = setup();
        let beamer = Beamer::new(&actx, Arc::new(StringConverter::plain_text()));
        assert!(!beamer.peer_in_range());

        let (ok_tx, ok_rx) = channel();
        for i in 0..3 {
            let ok_tx = ok_tx.clone();
            beamer.beam(format!("m{i}"), move || ok_tx.send(i).unwrap(), |f| panic!("{f}"));
        }
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(beamer.queue_len(), 3, "pushes must wait for a peer");

        let (tx, rx) = channel();
        let _receiver = BeamReceiver::new(
            &bctx,
            Arc::new(StringConverter::plain_text()),
            Arc::new(Collect { tx, condition: Box::new(|_| true) }),
        );
        world.bring_phones_together(actx.phone(), bctx.phone());
        let received: Vec<String> =
            (0..3).map(|_| rx.recv_timeout(Duration::from_secs(10)).unwrap()).collect();
        assert_eq!(received, vec!["m0", "m1", "m2"]);
        assert_eq!(ok_rx.iter().take(3).count(), 3);
    }

    #[test]
    fn receiver_filters_by_mime_and_condition() {
        let (world, actx, bctx) = setup();
        let (tx, rx) = channel();
        let _receiver = BeamReceiver::new(
            &bctx,
            Arc::new(StringConverter::plain_text()),
            Arc::new(Collect { tx, condition: Box::new(|v| v.starts_with("keep")) }),
        );
        world.bring_phones_together(actx.phone(), bctx.phone());

        // Wrong MIME type: silently ignored by this receiver.
        let other = Beamer::new(&actx, Arc::new(StringConverter::new("application/other")));
        other.beam_ok("keep but wrong type".into());
        // Right type, fails the condition.
        let beamer = Beamer::new(&actx, Arc::new(StringConverter::plain_text()));
        beamer.beam_ok("drop this".into());
        // Right type, passes.
        beamer.beam_ok("keep this".into());

        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), "keep this");
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn stopped_receiver_hears_nothing() {
        let (world, actx, bctx) = setup();
        let (tx, rx) = channel();
        let receiver = BeamReceiver::new(
            &bctx,
            Arc::new(StringConverter::plain_text()),
            Arc::new(Collect { tx, condition: Box::new(|_| true) }),
        );
        receiver.stop();
        std::thread::sleep(Duration::from_millis(60));
        world.bring_phones_together(actx.phone(), bctx.phone());
        let beamer = Beamer::new(&actx, Arc::new(StringConverter::plain_text()));
        beamer.beam_ok("into the void".into());
        assert!(rx.recv_timeout(Duration::from_millis(200)).is_err());
        assert!(format!("{receiver:?}").contains("BeamReceiver"));
    }

    #[test]
    fn close_cancels_queued_beams() {
        let (_world, actx, _bctx) = setup();
        let beamer = Beamer::new(&actx, Arc::new(StringConverter::plain_text()));
        let (tx, rx) = channel();
        beamer.beam("never".into(), || panic!("no"), move |f| tx.send(f).unwrap());
        beamer.close();
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), OpFailure::Cancelled);
        assert!(format!("{beamer:?}").contains("Beamer"));
    }
}
