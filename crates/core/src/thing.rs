//! Things (§2 of the paper): typed application objects **causally
//! connected to an RFID tag**.
//!
//! A [`Thing`] is any `#[derive(Json)]` type with a name; MORENA stores
//! it on tags as JSON (the paper uses GSON) under a per-type MIME type.
//! Mark fields that must not be persisted with `#[json(skip)]` — the
//! Rust spelling of the paper's `transient` fields.
//!
//! The entry point is a [`ThingSpace`]: the Rust shape of the paper's
//! `ThingActivity<T>`, minus the mandatory activity coupling. It watches
//! for tags carrying things of type `T` (and for blank tags to
//! initialize), receives things beamed from other phones, and broadcasts
//! things to nearby phones — invoking a [`ThingObserver`] on the main
//! thread:
//!
//! * `when_discovered(BoundThing<T>)` — a tag with a `T` was scanned;
//! * `when_discovered_empty(EmptyThingSlot<T>)` — a blank tag was
//!   scanned and can be initialized (`EmptyRecord` in the paper);
//! * `when_received(T)` — a `T` arrived over Beam (unbound to any tag).
//!
//! A [`BoundThing`] supports synchronous access to the cached value plus
//! asynchronous `save_async` / `read_async`, all fault-tolerant and
//! non-blocking, exactly like the underlying tag reference.

use std::sync::Arc;
use std::time::Duration;

use morena_nfc_sim::tag::TagUid;
use morena_obs::json::{FromJson, ToJson};

use crate::beam::{BeamListener, BeamReceiver, Beamer};
use crate::context::MorenaContext;
use crate::convert::{ConvertError, JsonConverter};
use crate::discovery::{DiscoveryListener, TagDiscoverer};
use crate::eventloop::OpFailure;
use crate::policy::Policy;
use crate::tagref::TagReference;

/// A value that can live on RFID tags and travel over Beam.
///
/// # Examples
///
/// ```
/// use morena_core::thing::Thing;
/// use morena_obs::json::Json;
///
/// #[derive(Debug, Clone, Json)]
/// struct WifiConfig {
///     ssid: String,
///     key: String,
///     #[json(skip)] // "transient": never stored on the tag
///     attempts: u32,
/// }
///
/// impl Thing for WifiConfig {
///     const TYPE_NAME: &'static str = "wifi-config";
/// }
///
/// assert_eq!(WifiConfig::mime_type(), "application/vnd.morena.wifi-config+json");
/// ```
pub trait Thing: ToJson + FromJson + Clone + Send + Sync + 'static {
    /// Short, stable type name; part of the on-tag MIME type.
    const TYPE_NAME: &'static str;

    /// The MIME type under which this thing type is stored and filtered.
    fn mime_type() -> String {
        format!("application/vnd.morena.{}+json", Self::TYPE_NAME)
    }

    /// The JSON converter for this thing type.
    fn converter() -> JsonConverter<Self> {
        JsonConverter::new(&Self::mime_type())
    }
}

/// The tag-reference converter type used by the things layer.
pub type ThingConverter<T> = JsonConverter<T>;

/// Application callbacks of a [`ThingSpace`]; all run on the main thread.
pub trait ThingObserver<T: Thing>: Send + Sync + 'static {
    /// A tag carrying a `T` was scanned (first sighting or re-sighting).
    fn when_discovered(&self, thing: BoundThing<T>);

    /// A formatted but blank tag was scanned; initialize it to bind a
    /// thing to it.
    fn when_discovered_empty(&self, slot: EmptyThingSlot<T>) {
        let _ = slot;
    }

    /// A `T` arrived over Beam. Unlike the paper — where beamed things
    /// re-enter `whenDiscovered` — the unbound value is delivered
    /// separately, because a beamed thing has no tag to be causally
    /// connected to (it can be bound later by initializing a blank tag).
    fn when_received(&self, thing: T) {
        let _ = thing;
    }
}

/// A thing causally connected to one RFID tag.
///
/// Synchronous access ([`value`](BoundThing::value)) reads the cached
/// copy — instant, but with the paper's caveat that another device may
/// have updated the tag since. [`save_async`](BoundThing::save_async)
/// and [`read_async`](BoundThing::read_async) are the fault-tolerant
/// asynchronous paths.
pub struct BoundThing<T: Thing> {
    reference: TagReference<ThingConverter<T>>,
}

impl<T: Thing> Clone for BoundThing<T> {
    fn clone(&self) -> BoundThing<T> {
        BoundThing { reference: self.reference.clone() }
    }
}

impl<T: Thing> std::fmt::Debug for BoundThing<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundThing")
            .field("type", &T::TYPE_NAME)
            .field("uid", &self.reference.uid().to_string())
            .finish()
    }
}

impl<T: Thing> BoundThing<T> {
    /// Wraps an existing tag reference as a bound thing.
    pub fn from_reference(reference: TagReference<ThingConverter<T>>) -> BoundThing<T> {
        BoundThing { reference }
    }

    /// The UID of the tag this thing lives on.
    pub fn uid(&self) -> TagUid {
        self.reference.uid()
    }

    /// The underlying tag reference, for advanced use.
    pub fn reference(&self) -> &TagReference<ThingConverter<T>> {
        &self.reference
    }

    /// Whether the tag is currently in range.
    pub fn is_connected(&self) -> bool {
        self.reference.is_connected()
    }

    /// The cached thing value, if any (synchronous, possibly stale).
    pub fn try_value(&self) -> Option<T> {
        self.reference.cached()
    }

    /// The cached thing value.
    ///
    /// # Panics
    ///
    /// Panics if no value has been cached yet (a thing delivered by
    /// `when_discovered` always has one).
    pub fn value(&self) -> T {
        self.try_value().expect("bound thing has no cached value yet")
    }

    /// Mutates the cached value locally; call
    /// [`save_async`](BoundThing::save_async) to write the change
    /// through to the tag (§2.4).
    pub fn update(&self, mutate: impl FnOnce(&mut T)) {
        let mut value = self.value();
        mutate(&mut value);
        self.reference.set_cached(Some(value));
    }

    /// Replaces the cached value locally.
    pub fn set_value(&self, value: T) {
        self.reference.set_cached(Some(value));
    }

    /// Asynchronously writes the cached value to the tag with the
    /// default timeout; listeners run on the main thread.
    pub fn save_async<F, G>(&self, on_saved: F, on_failed: G)
    where
        F: FnOnce(BoundThing<T>) + Send + 'static,
        G: FnOnce(OpFailure) + Send + 'static,
    {
        self.save_impl(None, on_saved, on_failed);
    }

    /// [`save_async`](BoundThing::save_async) with an explicit timeout.
    pub fn save_async_with_timeout<F, G>(&self, timeout: Duration, on_saved: F, on_failed: G)
    where
        F: FnOnce(BoundThing<T>) + Send + 'static,
        G: FnOnce(OpFailure) + Send + 'static,
    {
        self.save_impl(Some(timeout), on_saved, on_failed);
    }

    /// [`save_async`](BoundThing::save_async) without a failure listener.
    pub fn save_async_ok<F>(&self, on_saved: F)
    where
        F: FnOnce(BoundThing<T>) + Send + 'static,
    {
        self.save_impl(None, on_saved, |_| {});
    }

    fn save_impl<F, G>(&self, timeout: Option<Duration>, on_saved: F, on_failed: G)
    where
        F: FnOnce(BoundThing<T>) + Send + 'static,
        G: FnOnce(OpFailure) + Send + 'static,
    {
        let Some(value) = self.try_value() else {
            let ctx = self.reference.context().clone();
            ctx.handler().post(move || {
                on_failed(OpFailure::InvalidData(ConvertError::WrongShape {
                    expected: "a cached thing value to save".into(),
                }));
            });
            return;
        };
        let wrap = move |reference: TagReference<ThingConverter<T>>| {
            on_saved(BoundThing { reference });
        };
        match timeout {
            Some(t) => {
                self.reference.write_with_timeout(value, t, wrap, move |_, f| on_failed(f));
            }
            None => {
                self.reference.write(value, wrap, move |_, f| on_failed(f));
            }
        }
    }

    /// Asynchronously re-reads the thing from the tag, refreshing the
    /// cache (the safe alternative to stale synchronous access).
    pub fn read_async<F, G>(&self, on_read: F, on_failed: G)
    where
        F: FnOnce(BoundThing<T>) + Send + 'static,
        G: FnOnce(OpFailure) + Send + 'static,
    {
        self.reference
            .read(move |reference| on_read(BoundThing { reference }), move |_, f| on_failed(f));
    }

    /// Queues an asynchronous, **irreversible** write-protection of the
    /// thing's tag — freeze a provisioned thing so that no guest device
    /// can overwrite it.
    pub fn make_read_only_async<F, G>(&self, on_locked: F, on_failed: G)
    where
        F: FnOnce(BoundThing<T>) + Send + 'static,
        G: FnOnce(OpFailure) + Send + 'static,
    {
        self.reference.make_read_only(
            move |reference| on_locked(BoundThing { reference }),
            move |_, f| on_failed(f),
        );
    }

    /// Saves the cached value under an exclusive tag lease — the race
    /// protection the paper's §6 sets as the first goal of leasing:
    /// *"protect cached thing objects from data races when other
    /// RFID-enabled devices are able to write new data on their
    /// corresponding RFID tags"*.
    ///
    /// The save runs on a worker thread: it acquires a lease of `ttl`,
    /// writes the value with the lock record still in place, and
    /// releases. Listeners run on the main thread. If another device
    /// holds the tag (or wins the lock race), `on_failed` receives the
    /// corresponding [`LeaseError`](crate::lease::LeaseError) — unlike
    /// [`save_async`](BoundThing::save_async), there is no automatic
    /// retry, because a lease conflict is an application-level decision.
    pub fn save_exclusive<F, G>(&self, ttl: Duration, on_saved: F, on_failed: G)
    where
        F: FnOnce(BoundThing<T>) + Send + 'static,
        G: FnOnce(crate::lease::LeaseError) + Send + 'static,
    {
        use crate::convert::TagDataConverter as _;
        use crate::lease::{with_lease, LeaseError, LeaseManager, LeaseRecord};
        use morena_nfc_sim::error::NfcOpError;

        let ctx = self.reference.context().clone();
        let converter = Arc::clone(self.reference.converter());
        let uid = self.uid();
        let this = self.clone();
        let Some(value) = self.try_value() else {
            ctx.handler().post(move || {
                on_failed(LeaseError::Nfc(NfcOpError::Protocol("no cached value to save")));
            });
            return;
        };
        std::thread::Builder::new()
            .name(format!("morena-save-exclusive-{uid}"))
            .spawn(move || {
                let manager = LeaseManager::new(&ctx);
                let result = manager.with_lease_held(uid, ttl, |lease| {
                    let message = converter.to_message(&value).map_err(|_| {
                        LeaseError::Nfc(NfcOpError::Protocol("thing failed to serialize"))
                    })?;
                    let locked = with_lease(
                        &message,
                        LeaseRecord { holder: lease.holder, expires_at: lease.expires_at },
                    );
                    ctx.nfc().ndef_write(uid, &locked.to_bytes()).map_err(LeaseError::Nfc)
                });
                match result {
                    Ok(()) => {
                        this.reference.set_cached(Some(value));
                        ctx.handler().post(move || on_saved(this));
                    }
                    Err(e) => {
                        ctx.handler().post(move || on_failed(e));
                    }
                }
            })
            .expect("spawn exclusive save worker");
    }
}

/// A blank, formatted tag that can be initialized with a thing — the
/// paper's `EmptyRecord` (§2.2).
pub struct EmptyThingSlot<T: Thing> {
    reference: TagReference<ThingConverter<T>>,
}

impl<T: Thing> std::fmt::Debug for EmptyThingSlot<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EmptyThingSlot").field("uid", &self.reference.uid().to_string()).finish()
    }
}

impl<T: Thing> EmptyThingSlot<T> {
    /// The UID of the blank tag.
    pub fn uid(&self) -> TagUid {
        self.reference.uid()
    }

    /// Asynchronously writes `thing` to the blank tag, binding them; on
    /// success the saved listener receives the resulting [`BoundThing`].
    pub fn initialize<F, G>(&self, thing: T, on_saved: F, on_failed: G)
    where
        F: FnOnce(BoundThing<T>) + Send + 'static,
        G: FnOnce(OpFailure) + Send + 'static,
    {
        self.initialize_impl(thing, None, on_saved, on_failed);
    }

    /// [`initialize`](EmptyThingSlot::initialize) with a timeout.
    pub fn initialize_with_timeout<F, G>(
        &self,
        thing: T,
        timeout: Duration,
        on_saved: F,
        on_failed: G,
    ) where
        F: FnOnce(BoundThing<T>) + Send + 'static,
        G: FnOnce(OpFailure) + Send + 'static,
    {
        self.initialize_impl(thing, Some(timeout), on_saved, on_failed);
    }

    /// [`initialize`](EmptyThingSlot::initialize) without a failure
    /// listener.
    pub fn initialize_ok<F>(&self, thing: T, on_saved: F)
    where
        F: FnOnce(BoundThing<T>) + Send + 'static,
    {
        self.initialize_impl(thing, None, on_saved, |_| {});
    }

    fn initialize_impl<F, G>(&self, thing: T, timeout: Option<Duration>, on_saved: F, on_failed: G)
    where
        F: FnOnce(BoundThing<T>) + Send + 'static,
        G: FnOnce(OpFailure) + Send + 'static,
    {
        let bound = BoundThing { reference: self.reference.clone() };
        bound.set_value(thing);
        bound.save_impl(timeout, on_saved, on_failed);
    }
}

struct DiscoveryAdapter<T: Thing> {
    observer: Arc<dyn ThingObserver<T>>,
}

impl<T: Thing> DiscoveryListener<ThingConverter<T>> for DiscoveryAdapter<T> {
    fn on_tag_detected(&self, reference: TagReference<ThingConverter<T>>) {
        self.observer.when_discovered(BoundThing { reference });
    }

    fn on_tag_redetected(&self, reference: TagReference<ThingConverter<T>>) {
        self.observer.when_discovered(BoundThing { reference });
    }

    fn on_empty_tag(&self, reference: TagReference<ThingConverter<T>>) {
        self.observer.when_discovered_empty(EmptyThingSlot { reference });
    }
}

struct BeamAdapter<T: Thing> {
    observer: Arc<dyn ThingObserver<T>>,
}

impl<T: Thing> BeamListener<ThingConverter<T>> for BeamAdapter<T> {
    fn on_beam_received(&self, value: T) {
        self.observer.when_received(value);
    }
}

/// The runtime of the things layer for one thing type on one phone:
/// discovery, beam reception, and broadcasting (the paper's
/// `ThingActivity<T>` decoupled from activities).
pub struct ThingSpace<T: Thing> {
    discoverer: TagDiscoverer<ThingConverter<T>>,
    beamer: Beamer<ThingConverter<T>>,
    receiver: BeamReceiver<ThingConverter<T>>,
}

impl<T: Thing> std::fmt::Debug for ThingSpace<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThingSpace").field("type", &T::TYPE_NAME).finish()
    }
}

impl<T: Thing> ThingSpace<T> {
    /// Starts the things runtime inheriting the context's default
    /// [`Policy`].
    pub fn new(ctx: &MorenaContext, observer: Arc<dyn ThingObserver<T>>) -> ThingSpace<T> {
        ThingSpace::build(ctx, observer, ctx.shared_policy())
    }

    /// Starts the things runtime pinned to an explicit distribution
    /// [`Policy`], shared by its discoverer, references, and beamer.
    pub fn with_policy(
        ctx: &MorenaContext,
        observer: Arc<dyn ThingObserver<T>>,
        policy: Policy,
    ) -> ThingSpace<T> {
        ThingSpace::build(ctx, observer, Arc::new(policy))
    }

    fn build(
        ctx: &MorenaContext,
        observer: Arc<dyn ThingObserver<T>>,
        policy: Arc<Policy>,
    ) -> ThingSpace<T> {
        let converter = Arc::new(T::converter());
        let discoverer = TagDiscoverer::build(
            ctx,
            Arc::clone(&converter),
            Arc::new(DiscoveryAdapter { observer: Arc::clone(&observer) }),
            Arc::clone(&policy),
        );
        let beamer = Beamer::build(ctx, Arc::clone(&converter), policy);
        let receiver = BeamReceiver::new(ctx, converter, Arc::new(BeamAdapter { observer }));
        ThingSpace { discoverer, beamer, receiver }
    }

    /// The discoverer behind this space (e.g. for
    /// [`TagDiscoverer::forget`]).
    pub fn discoverer(&self) -> &TagDiscoverer<ThingConverter<T>> {
        &self.discoverer
    }

    /// The bound thing for a known tag, when it carries a value.
    pub fn thing_for(&self, uid: TagUid) -> Option<BoundThing<T>> {
        self.discoverer.reference_for(uid).map(|reference| BoundThing { reference })
    }

    /// Asynchronously broadcasts `thing` to any phone in proximity
    /// (§2.5); listeners run on the main thread.
    pub fn broadcast<F, G>(&self, thing: T, on_success: F, on_failure: G)
    where
        F: FnOnce() + Send + 'static,
        G: FnOnce(OpFailure) + Send + 'static,
    {
        self.beamer.beam(thing, on_success, on_failure);
    }

    /// [`broadcast`](ThingSpace::broadcast) with an explicit timeout.
    pub fn broadcast_with_timeout<F, G>(
        &self,
        thing: T,
        timeout: Duration,
        on_success: F,
        on_failure: G,
    ) where
        F: FnOnce() + Send + 'static,
        G: FnOnce(OpFailure) + Send + 'static,
    {
        self.beamer.beam_with_timeout(thing, timeout, on_success, on_failure);
    }

    /// Number of broadcasts still waiting for a peer.
    pub fn broadcast_queue_len(&self) -> usize {
        self.beamer.queue_len()
    }

    /// Shuts the space down: discovery and reception stop, queued
    /// broadcasts are cancelled.
    pub fn close(&self) {
        self.discoverer.stop();
        self.receiver.stop();
        self.beamer.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::TagDataConverter;
    use morena_nfc_sim::clock::VirtualClock;
    use morena_nfc_sim::link::LinkModel;
    use morena_nfc_sim::tag::Type2Tag;
    use morena_nfc_sim::world::World;
    use morena_obs::json::Json;
    use std::sync::mpsc::{channel, Sender};

    #[derive(Debug, Clone, PartialEq, Json)]
    struct WifiConfig {
        ssid: String,
        key: String,
        #[json(skip)]
        attempts: u32,
    }

    impl Thing for WifiConfig {
        const TYPE_NAME: &'static str = "wifi-config";
    }

    enum Seen {
        Discovered(TagUid, WifiConfig),
        Empty(TagUid),
        Received(WifiConfig),
    }

    struct Observer {
        tx: Sender<Seen>,
    }

    impl ThingObserver<WifiConfig> for Observer {
        fn when_discovered(&self, thing: BoundThing<WifiConfig>) {
            self.tx.send(Seen::Discovered(thing.uid(), thing.value())).unwrap();
        }
        fn when_discovered_empty(&self, slot: EmptyThingSlot<WifiConfig>) {
            self.tx.send(Seen::Empty(slot.uid())).unwrap();
        }
        fn when_received(&self, thing: WifiConfig) {
            self.tx.send(Seen::Received(thing)).unwrap();
        }
    }

    fn setup() -> (World, MorenaContext) {
        let world = World::with_link(VirtualClock::shared(), LinkModel::instant(), 21);
        let phone = world.add_phone("alice");
        let ctx = MorenaContext::headless(&world, phone);
        (world, ctx)
    }

    fn wifi(ssid: &str) -> WifiConfig {
        WifiConfig { ssid: ssid.into(), key: "secret".into(), attempts: 9 }
    }

    #[test]
    fn blank_tag_initialize_then_rediscover() {
        let (world, ctx) = setup();
        let uid = world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed(1))));
        let (tx, rx) = channel();
        let space = ThingSpace::new(&ctx, Arc::new(Observer { tx }));

        world.tap_tag(uid, ctx.phone());
        let Seen::Empty(seen_uid) = rx.recv_timeout(Duration::from_secs(10)).unwrap() else {
            panic!("expected empty-tag discovery");
        };
        assert_eq!(seen_uid, uid);

        // Initialize the blank tag with a thing.
        let slot = EmptyThingSlot { reference: space.discoverer().reference_for(uid).unwrap() };
        let (done_tx, done_rx) = channel();
        slot.initialize(
            wifi("guest-net"),
            move |bound| done_tx.send(bound.value()).unwrap(),
            |f| panic!("initialize failed: {f}"),
        );
        let stored = done_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(stored.ssid, "guest-net");

        // Re-tapping now discovers the thing (transient field reset).
        world.remove_tag_from_field(uid);
        world.tap_tag(uid, ctx.phone());
        let Seen::Discovered(u, value) = rx.recv_timeout(Duration::from_secs(10)).unwrap() else {
            panic!("expected thing discovery");
        };
        assert_eq!(u, uid);
        assert_eq!(value.ssid, "guest-net");
        assert_eq!(value.attempts, 0, "transient field must not persist");
    }

    #[test]
    fn save_async_persists_updates() {
        let (world, ctx) = setup();
        let uid = world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed(3))));
        world.tap_tag(uid, ctx.phone());
        ctx.nfc()
            .ndef_write(uid, &WifiConfig::converter().to_message(&wifi("old")).unwrap().to_bytes())
            .unwrap();
        world.remove_tag_from_field(uid);

        let (tx, rx) = channel();
        let space = ThingSpace::new(&ctx, Arc::new(Observer { tx }));
        world.tap_tag(uid, ctx.phone());
        rx.recv_timeout(Duration::from_secs(10)).unwrap();

        let bound = space.thing_for(uid).unwrap();
        bound.update(|w| {
            w.ssid = "MyNewWifiName".into();
            w.key = "MyNewWifiPassword".into();
        });
        let (saved_tx, saved_rx) = channel();
        bound.save_async(
            move |b| saved_tx.send(b.value().ssid).unwrap(),
            |f| panic!("save failed: {f}"),
        );
        assert_eq!(saved_rx.recv_timeout(Duration::from_secs(10)).unwrap(), "MyNewWifiName");

        // Verify over the air with a fresh read.
        let (read_tx, read_rx) = channel();
        bound.read_async(move |b| read_tx.send(b.value()).unwrap(), |f| panic!("read failed: {f}"));
        let read_back = read_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(read_back.ssid, "MyNewWifiName");
        assert_eq!(read_back.key, "MyNewWifiPassword");
    }

    #[test]
    fn broadcast_reaches_peer_thing_space() {
        let (world, actx) = setup();
        let bob = world.add_phone("bob");
        let bctx = MorenaContext::headless(&world, bob);

        let (atx, _arx) = channel();
        let aspace = ThingSpace::new(&actx, Arc::new(Observer { tx: atx }));
        let (btx, brx) = channel();
        let _bspace = ThingSpace::<WifiConfig>::new(&bctx, Arc::new(Observer { tx: btx }));

        // Queue the broadcast before the phones even meet (batching).
        let (ok_tx, ok_rx) = channel();
        aspace.broadcast(wifi("shared-net"), move || ok_tx.send(()).unwrap(), |f| panic!("{f}"));
        assert_eq!(aspace.broadcast_queue_len(), 1);

        world.bring_phones_together(actx.phone(), bctx.phone());
        ok_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        let Seen::Received(value) = brx.recv_timeout(Duration::from_secs(10)).unwrap() else {
            panic!("expected beamed thing");
        };
        assert_eq!(value.ssid, "shared-net");
    }

    #[test]
    fn save_without_value_fails_cleanly() {
        let (world, ctx) = setup();
        let uid = world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed(4))));
        let reference = TagReference::new(
            &ctx,
            uid,
            morena_nfc_sim::tag::TagTech::Type2,
            Arc::new(WifiConfig::converter()),
        );
        let bound = BoundThing::from_reference(reference);
        assert!(bound.try_value().is_none());
        let (tx, rx) = channel();
        bound.save_async(|_| panic!("no"), move |f| tx.send(f).unwrap());
        assert!(matches!(
            rx.recv_timeout(Duration::from_secs(10)).unwrap(),
            OpFailure::InvalidData(_)
        ));
    }

    #[test]
    fn frozen_things_cannot_be_saved_again() {
        let (world, ctx) = setup();
        let uid = world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed(7))));
        world.tap_tag(uid, ctx.phone());
        ctx.nfc()
            .ndef_write(
                uid,
                &WifiConfig::converter().to_message(&wifi("frozen")).unwrap().to_bytes(),
            )
            .unwrap();
        world.remove_tag_from_field(uid);

        let (tx, rx) = channel();
        let space = ThingSpace::new(&ctx, Arc::new(Observer { tx }));
        world.tap_tag(uid, ctx.phone());
        rx.recv_timeout(Duration::from_secs(10)).unwrap();
        let bound = space.thing_for(uid).unwrap();

        let (locked_tx, locked_rx) = channel();
        bound.make_read_only_async(move |b| locked_tx.send(b.uid()).unwrap(), |f| panic!("{f}"));
        assert_eq!(locked_rx.recv_timeout(Duration::from_secs(10)).unwrap(), uid);

        bound.update(|w| w.ssid = "tampered".into());
        let (fail_tx, fail_rx) = channel();
        bound.save_async(|_| panic!("frozen tag"), move |f| fail_tx.send(f).unwrap());
        assert!(matches!(
            fail_rx.recv_timeout(Duration::from_secs(10)).unwrap(),
            OpFailure::Failed(_)
        ));
        // The frozen content is intact on the tag.
        let (read_tx, read_rx) = channel();
        bound.read_async(move |b| read_tx.send(b.value().ssid).unwrap(), |f| panic!("{f}"));
        assert_eq!(read_rx.recv_timeout(Duration::from_secs(10)).unwrap(), "frozen");
    }

    #[test]
    fn save_exclusive_writes_under_a_lease_and_respects_holders() {
        use crate::lease::{LeaseError, LeaseManager};

        let (world, ctx) = setup();
        let uid = world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed(6))));
        world.tap_tag(uid, ctx.phone());
        ctx.nfc()
            .ndef_write(uid, &WifiConfig::converter().to_message(&wifi("old")).unwrap().to_bytes())
            .unwrap();
        world.remove_tag_from_field(uid);

        let (tx, rx) = channel();
        let space = ThingSpace::new(&ctx, Arc::new(Observer { tx }));
        world.tap_tag(uid, ctx.phone());
        rx.recv_timeout(Duration::from_secs(10)).unwrap();
        let bound = space.thing_for(uid).unwrap();

        // Happy path: the exclusive save goes through and the lease is gone.
        bound.update(|w| w.ssid = "exclusive-net".into());
        let (saved_tx, saved_rx) = channel();
        bound.save_exclusive(
            Duration::from_secs(5),
            move |b| saved_tx.send(b.value().ssid).unwrap(),
            |e| panic!("exclusive save failed: {e}"),
        );
        assert_eq!(saved_rx.recv_timeout(Duration::from_secs(10)).unwrap(), "exclusive-net");
        assert_eq!(LeaseManager::new(&ctx).inspect(uid).unwrap(), None);
        // Content on the tag is the updated thing (lease stripped).
        let bytes = ctx.nfc().ndef_read(uid).unwrap();
        let message = morena_ndef::NdefMessage::parse(&bytes).unwrap();
        let on_tag =
            WifiConfig::converter().from_message(&crate::lease::strip_lease(&message)).unwrap();
        assert_eq!(on_tag.ssid, "exclusive-net");

        // A foreign lease blocks the exclusive save.
        let rival_phone = world.add_phone("rival");
        world.set_phone_position(rival_phone, morena_nfc_sim::geometry::Point::new(1000.0, 0.0));
        let rival = LeaseManager::new(&MorenaContext::headless(&world, rival_phone));
        let lease = rival.acquire(uid, Duration::from_secs(60)).unwrap();
        let (err_tx, err_rx) = channel();
        bound.save_exclusive(
            Duration::from_secs(5),
            |_| panic!("must not save while leased elsewhere"),
            move |e| err_tx.send(e).unwrap(),
        );
        assert!(matches!(
            err_rx.recv_timeout(Duration::from_secs(10)).unwrap(),
            LeaseError::Held { .. }
        ));
        rival.release(&lease).unwrap();
    }

    #[test]
    fn close_stops_everything() {
        let (world, ctx) = setup();
        let uid = world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed(5))));
        let (tx, rx) = channel();
        let space = ThingSpace::<WifiConfig>::new(&ctx, Arc::new(Observer { tx }));
        space.close();
        std::thread::sleep(Duration::from_millis(60));
        world.tap_tag(uid, ctx.phone());
        assert!(rx.recv_timeout(Duration::from_millis(200)).is_err());
        assert!(format!("{space:?}").contains("wifi-config"));
    }
}
