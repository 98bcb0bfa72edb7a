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
//!
//! Both are the undirected case of the push machine in [`crate::peer`]:
//! a `Beamer` is a push core aimed at no phone in particular, and a
//! `BeamReceiver` registers the same inbound route a
//! [`PeerInbox`](crate::peer::PeerInbox) does.

use std::sync::Arc;
use std::time::Duration;

use morena_nfc_sim::world::PhoneId;
use morena_obs::{EventKind, MemFootprint};

use crate::context::MorenaContext;
use crate::convert::TagDataConverter;
use crate::eventloop::{OpFailure, OpStats};
use crate::future::UnitFuture;
use crate::peer::{Inbound, PeerListener, PushCore};
use crate::policy::Policy;

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
    core: Arc<PushCore<C>>,
}

impl<C: TagDataConverter> Clone for Beamer<C> {
    fn clone(&self) -> Beamer<C> {
        Beamer { core: Arc::clone(&self.core) }
    }
}

impl<C: TagDataConverter> MemFootprint for Beamer<C> {
    fn mem_bytes(&self) -> u64 {
        self.core.mem_bytes()
    }
}

impl<C: TagDataConverter> std::fmt::Debug for Beamer<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Beamer")
            .field("mime", &self.core.converter.mime_type())
            .field("queued", &self.queue_len())
            .finish()
    }
}

impl<C: TagDataConverter> Beamer<C> {
    /// Creates a beamer inheriting the context's default [`Policy`].
    pub fn new(ctx: &MorenaContext, converter: Arc<C>) -> Beamer<C> {
        Beamer::build(ctx, converter, ctx.shared_policy())
    }

    /// Creates a beamer pinned to an explicit distribution [`Policy`].
    pub fn with_policy(ctx: &MorenaContext, converter: Arc<C>, policy: Policy) -> Beamer<C> {
        Beamer::build(ctx, converter, Arc::new(policy))
    }

    /// Creates a beamer pinned to a policy it shares.
    pub(crate) fn build(ctx: &MorenaContext, converter: Arc<C>, policy: Arc<Policy>) -> Beamer<C> {
        Beamer { core: PushCore::build(ctx, None, converter, policy) }
    }

    /// Whether a peer phone is in beam range right now.
    pub fn peer_in_range(&self) -> bool {
        self.core.in_range()
    }

    /// Number of queued pushes.
    pub fn queue_len(&self) -> usize {
        self.core.event_loop.queue_len()
    }

    /// Lifetime push statistics.
    pub fn stats(&self) -> Arc<OpStats> {
        self.core.event_loop.stats()
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
        self.core.push_then(value, None, on_success, on_failure);
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
        self.core.push_then(value, Some(timeout), on_success, on_failure);
    }

    /// [`beam`](Beamer::beam) without listeners (fire and forget).
    pub fn beam_ok(&self, value: C::Value) {
        self.core.push_then(value, None, || {}, |_| {});
    }

    /// Queues an asynchronous push of `value` and returns a future
    /// resolving once it lands on a peer. Conversion failures resolve
    /// the future with [`OpFailure::InvalidData`]; dropping it before
    /// completion withdraws the push.
    pub fn beam_async(&self, value: C::Value) -> UnitFuture {
        self.core.push(value, None)
    }

    /// [`beam_async`](Beamer::beam_async) with an explicit timeout.
    pub fn beam_async_with_timeout(&self, value: C::Value, timeout: Duration) -> UnitFuture {
        self.core.push(value, Some(timeout))
    }

    /// Stops the beamer; queued pushes fail with [`OpFailure::Cancelled`].
    /// Dropping the last handle does the same.
    pub fn close(&self) {
        self.core.close();
    }
}

/// Typed reception callbacks for beamed values. Methods run on the main
/// thread, except `check_condition`.
pub trait BeamListener<C: TagDataConverter>: Send + Sync + 'static {
    /// A value of this receiver's type arrived over Beam.
    fn on_beam_received(&self, value: C::Value);

    /// Fine-grained filter (§3.4) applied before
    /// [`on_beam_received`](BeamListener::on_beam_received).
    /// It runs on the pool worker that dispatches the push, so it must
    /// not block on a middleware operation, which may need that worker.
    fn check_condition(&self, value: &C::Value) -> bool {
        let _ = value;
        true
    }
}

/// A [`BeamListener`] as the [`PeerListener`] the inbound route
/// delivers to: a beam listener does not ask who sent the value.
struct BeamAsPeer<C: TagDataConverter>(Arc<dyn BeamListener<C>>);

impl<C: TagDataConverter> PeerListener<C> for BeamAsPeer<C> {
    fn on_message(&self, _from: PhoneId, value: C::Value) {
        self.0.on_beam_received(value);
    }

    fn check_condition(&self, _from: PhoneId, value: &C::Value) -> bool {
        self.0.check_condition(value)
    }
}

/// Listens for incoming beamed messages of one data type — the paper's
/// `BeamReceivedListener`, decoupled from the activity.
pub struct BeamReceiver<C: TagDataConverter> {
    inbound: Inbound<C>,
}

impl<C: TagDataConverter> std::fmt::Debug for BeamReceiver<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BeamReceiver").field("mime", &self.inbound.converter.mime_type()).finish()
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
        let kind = |phone, from, bytes| EventKind::BeamReceived { phone, from, bytes };
        let listener = Arc::new(BeamAsPeer(listener));
        BeamReceiver { inbound: Inbound::new(ctx, converter, listener, "beam.received", kind) }
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
