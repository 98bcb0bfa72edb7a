//! The simulated physical world: phones and tags with positions, an
//! event feed per phone, command exchanges over the lossy link, and the
//! peer-to-peer push channel ("Beam").
//!
//! Radio operations are non-blocking `begin_*`/`finish_*` pairs: the
//! world never waits on its clock. [`crate::controller::NfcHandle`]
//! drives them, blocking or resumable.
//!
//! The world is the single source of truth for *where things are*. Every
//! proximity change (a tap, a tag pulled away, two phones brought
//! together) synchronously produces [`NfcEvent`]s on the affected phones'
//! subscriptions — the simulation-level equivalent of the discovery
//! interrupts a real NFC controller raises.

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

use morena_obs::Mutex;

use crate::clock::{Clock, SimInstant};
use crate::error::{LinkError, TagError};
use morena_obs::inspect::{ComponentSnapshot, PhonePresence, SnapshotProvider, WorldSnapshot};
use morena_obs::{EventKind, Recorder, Rng, NO_OPCODE};

use crate::faults::{self, FaultKind, FaultPlan, FaultStats};
use crate::geometry::Point;
use crate::link::LinkModel;
use crate::tag::{TagEmulator, TagTech, TagUid};
use crate::trace::{TraceBuffer, TraceEntry, TraceEvent};

/// Identity of a phone in the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PhoneId(u64);

impl PhoneId {
    /// Builds a `PhoneId` from its raw value — for test fixtures and
    /// serialized identities. A world only routes to ids it created.
    pub fn from_u64(raw: u64) -> PhoneId {
        PhoneId(raw)
    }

    /// The raw numeric id.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for PhoneId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "phone-{}", self.0)
    }
}

/// A proximity or data event delivered to a phone's NFC stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NfcEvent {
    /// A tag entered this phone's field.
    TagEntered {
        /// The tag's UID.
        uid: TagUid,
        /// The tag platform, learned during activation.
        tech: TagTech,
    },
    /// A tag left this phone's field.
    TagLeft {
        /// The tag's UID.
        uid: TagUid,
    },
    /// Another phone came into beam range.
    PeerEntered {
        /// The peer phone.
        peer: PhoneId,
    },
    /// A peer phone left beam range.
    PeerLeft {
        /// The peer phone.
        peer: PhoneId,
    },
    /// A beamed NDEF payload arrived from a peer.
    BeamReceived {
        /// The sending phone.
        from: PhoneId,
        /// The raw NDEF message bytes.
        bytes: Vec<u8>,
    },
}

struct TagSlot {
    emulator: Box<dyn TagEmulator>,
    tech: TagTech,
    position: Point,
}

struct PhoneSlot {
    name: String,
    position: Point,
    subscribers: Vec<Sender<NfcEvent>>,
}

/// Aggregate radio activity of a world — the simulation-side ground
/// truth experiments use to report how much physical work an approach
/// cost (exchanges, failures, air time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RadioStats {
    /// Command/response exchanges attempted (including failed ones).
    pub exchanges: u64,
    /// Exchanges rejected before the air (target out of range/unknown).
    pub rejected: u64,
    /// Exchanges lost to noise or mid-flight field loss.
    pub failed: u64,
    /// Payload bytes moved over the air (commands of completed
    /// exchanges, both directions approximated).
    pub bytes: u64,
    /// Total simulated air time spent in exchanges, in nanoseconds.
    pub air_time_nanos: u64,
    /// Beam pushes attempted.
    pub beams: u64,
    /// Beam pushes that reached at least one peer.
    pub beams_delivered: u64,
}

/// A radio operation on the air, begun without waiting by
/// [`World::begin_transceive`] or [`World::begin_beam`]. Its effect lands only when the matching
/// `finish_*` runs, at or after [`InFlight::done_at`]; an exchange that is
/// dropped instead never reaches the tag or peer.
#[derive(Debug)]
#[must_use = "an exchange takes effect only when it is finished"]
pub struct InFlight {
    done_at: SimInstant,
    air_time: Duration,
    /// Link noise, sampled when the exchange began.
    fails: bool,
    /// A directed beam's peer.
    to: Option<PhoneId>,
    /// The peers in range when an undirected beam began; empty otherwise.
    peers: Vec<PhoneId>,
}

impl InFlight {
    /// When the air time ends and the exchange may be finished.
    pub fn done_at(&self) -> SimInstant {
        self.done_at
    }
}

struct WorldState {
    link: LinkModel,
    rng: Rng,
    tags: HashMap<TagUid, TagSlot>,
    phones: HashMap<PhoneId, PhoneSlot>,
    next_phone: u64,
    radio: RadioStats,
    trace: Option<TraceBuffer>,
    faults: Option<FaultPlan>,
}

impl WorldState {
    fn trace(&mut self, at: SimInstant, event: TraceEvent) {
        if let Some(buffer) = self.trace.as_mut() {
            buffer.push(at, event);
        }
    }

    fn emit(&self, phone: PhoneId, event: NfcEvent) {
        if let Some(slot) = self.phones.get(&phone) {
            for sub in &slot.subscribers {
                // A dropped receiver is fine; stale subscriptions are pruned
                // lazily on subscribe.
                let _ = sub.send(event.clone());
            }
        }
    }

    /// The one tag-proximity predicate: within the link's NFC range.
    fn in_nfc_range(&self, a: Point, b: Point) -> bool {
        a.distance_to(b) <= self.link.nfc_range_m
    }

    /// The one phone-to-phone proximity predicate: within beam range.
    fn in_p2p_range(&self, a: Point, b: Point) -> bool {
        a.distance_to(b) <= self.link.p2p_range_m
    }

    /// The tag's technology if `uid` is in `phone`'s field: two keyed
    /// lookups, no scan of the world.
    fn tag_tech_in_range(&self, phone: PhoneId, uid: TagUid) -> Option<TagTech> {
        let p = self.phones.get(&phone)?;
        let t = self.tags.get(&uid)?;
        self.in_nfc_range(p.position, t.position).then_some(t.tech)
    }

    fn tag_in_range(&self, phone: PhoneId, uid: TagUid) -> bool {
        self.tag_tech_in_range(phone, uid).is_some()
    }

    /// Delivers `command` to the tag and discards its response.
    fn apply(&mut self, uid: TagUid, command: &[u8]) {
        if let Some(slot) = self.tags.get_mut(&uid) {
            let _ = slot.emulator.transceive(command);
        }
    }

    /// Whether `peer` is a different phone in beam range of `phone`: two
    /// keyed lookups, no scan of the world.
    fn peer_in_range(&self, phone: PhoneId, peer: PhoneId) -> bool {
        match (self.phones.get(&phone), self.phones.get(&peer)) {
            (Some(me), Some(p)) => phone != peer && self.in_p2p_range(me.position, p.position),
            _ => false,
        }
    }

    /// Whether any other phone is in beam range of `phone`.
    fn any_peer_in_range(&self, phone: PhoneId) -> bool {
        let Some(me) = self.phones.get(&phone) else { return false };
        self.phones.iter().any(|(id, p)| *id != phone && self.in_p2p_range(me.position, p.position))
    }

    fn peers_in_range(&self, phone: PhoneId) -> Vec<PhoneId> {
        let Some(me) = self.phones.get(&phone) else { return Vec::new() };
        let mut peers: Vec<PhoneId> = self
            .phones
            .iter()
            .filter(|(id, p)| **id != phone && self.in_p2p_range(me.position, p.position))
            .map(|(id, _)| *id)
            .collect();
        peers.sort();
        peers
    }
}

/// The phone identity rendered the way observability targets are keyed
/// (`phone-N`), shared between the obs bridge here and the peer layer in
/// `morena-core` so correlation joins line up.
pub fn obs_peer_target(peer: PhoneId) -> String {
    peer.to_string()
}

/// The simulated world. Cheap to clone (shared interior), thread-safe.
///
/// # Examples
///
/// ```
/// use morena_nfc_sim::clock::VirtualClock;
/// use morena_nfc_sim::tag::{TagUid, Type2Tag};
/// use morena_nfc_sim::world::World;
///
/// let world = World::new(VirtualClock::shared());
/// let phone = world.add_phone("alice");
/// let uid = TagUid::from_seed(1);
/// world.add_tag(Box::new(Type2Tag::ntag213(uid)));
/// world.tap_tag(uid, phone);
/// assert!(world.tag_in_range(phone, uid));
/// ```
#[derive(Clone)]
pub struct World {
    state: Arc<Mutex<WorldState>>,
    clock: Arc<dyn Clock>,
    obs: Arc<Recorder>,
    // Keeps the inspector's world provider alive for the world's
    // lifetime (the registry only holds a weak reference).
    #[allow(dead_code)]
    inspect: Arc<WorldInspect>,
}

/// The sim-side inspector hook: physical ground truth (who is in range
/// of what) plus the installed fault plan's rates and injected count.
struct WorldInspect {
    state: Arc<Mutex<WorldState>>,
}

impl SnapshotProvider for WorldInspect {
    fn snapshot(&self, _now_nanos: u64) -> ComponentSnapshot {
        let state = self.state.lock();
        let mut phones: Vec<PhonePresence> = state
            .phones
            .iter()
            .map(|(id, slot)| {
                let mut tags: Vec<String> = state
                    .tags
                    .iter()
                    .filter(|(&uid, _)| state.tag_in_range(*id, uid))
                    .map(|(uid, _)| uid.to_string())
                    .collect();
                tags.sort();
                PhonePresence {
                    phone: id.as_u64(),
                    name: slot.name.clone(),
                    tags_in_range: tags,
                    peers_in_range: state
                        .peers_in_range(*id)
                        .into_iter()
                        .map(PhoneId::as_u64)
                        .collect(),
                }
            })
            .collect();
        phones.sort_by_key(|p| p.phone);
        let fault_rates = state
            .faults
            .as_ref()
            .map(|plan| {
                let rates = plan.rates();
                FaultKind::ALL
                    .iter()
                    .map(|kind| (kind.label(), rates.rate(*kind)))
                    .filter(|(_, rate)| *rate > 0.0)
                    .collect()
            })
            .unwrap_or_default();
        let faults_injected = state.faults.as_ref().map(|plan| plan.stats().total()).unwrap_or(0);
        ComponentSnapshot::World(WorldSnapshot { phones, fault_rates, faults_injected })
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("World")
            .field("tags", &state.tags.len())
            .field("phones", &state.phones.len())
            .finish()
    }
}

impl World {
    /// Creates a world with the realistic link model and RNG seed 0.
    pub fn new(clock: Arc<dyn Clock>) -> World {
        World::with_link(clock, LinkModel::realistic(), 0)
    }

    /// Creates a world with an explicit link model and RNG seed.
    pub fn with_link(clock: Arc<dyn Clock>, link: LinkModel, seed: u64) -> World {
        let state = Arc::new(Mutex::new(WorldState {
            link,
            rng: Rng::new(seed),
            tags: HashMap::new(),
            phones: HashMap::new(),
            next_phone: 0,
            radio: RadioStats::default(),
            trace: None,
            faults: None,
        }));
        let obs = Arc::new(Recorder::new());
        let inspect = Arc::new(WorldInspect { state: Arc::clone(&state) });
        obs.inspector()
            .register("world", Arc::downgrade(&inspect) as std::sync::Weak<dyn SnapshotProvider>);
        World { state, clock, obs, inspect }
    }

    /// The world's time source.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The world's observability recorder. Disabled (one atomic check
    /// per instrumentation site) until a sink is installed; the sim
    /// bridges its physical ground truth into it, and the middleware
    /// layers above add operation lifecycle events, so one stream holds
    /// both sides of the correlation.
    pub fn obs(&self) -> &Arc<Recorder> {
        &self.obs
    }

    /// Emits a physical ground-truth event into the obs stream, stamped
    /// with the world clock. Cheap no-op while observability is off.
    fn obs_emit(&self, at: SimInstant, make: impl FnOnce() -> EventKind) {
        if self.obs.is_enabled() {
            self.obs.emit(at.as_nanos(), make());
        }
    }

    /// The current link model (a copy).
    pub fn link_model(&self) -> LinkModel {
        self.state.lock().link.clone()
    }

    /// A snapshot of the world's aggregate radio activity.
    pub fn radio_stats(&self) -> RadioStats {
        self.state.lock().radio
    }

    /// Installs a deterministic [`FaultPlan`] on the radio. Every
    /// subsequent exchange consults the plan; replacing an existing plan
    /// discards it along with its log and counters.
    pub fn install_fault_plan(&self, plan: FaultPlan) {
        self.state.lock().faults = Some(plan);
    }

    /// Removes the active fault plan, returning it (with its final log
    /// and counters) so callers can assert against the injected ground
    /// truth. `None` when no plan was installed.
    pub fn clear_fault_plan(&self) -> Option<FaultPlan> {
        self.state.lock().faults.take()
    }

    /// Counters of faults injected by the active plan (all zero when no
    /// plan is installed).
    pub fn fault_stats(&self) -> FaultStats {
        self.state.lock().faults.as_ref().map(|p| p.stats()).unwrap_or_default()
    }

    /// The active plan's injected-fault schedule so far, as
    /// `(exchange index, class)` pairs. Empty when no plan is installed.
    pub fn fault_log(&self) -> Vec<(u64, FaultKind)> {
        self.state.lock().faults.as_ref().map(|p| p.log().to_vec()).unwrap_or_default()
    }

    /// Turns on physical-event tracing with a bounded buffer of
    /// `capacity` entries (oldest dropped first). Re-enabling clears the
    /// buffer.
    ///
    /// # Examples
    ///
    /// ```
    /// use morena_nfc_sim::clock::VirtualClock;
    /// use morena_nfc_sim::tag::{TagUid, Type2Tag};
    /// use morena_nfc_sim::world::World;
    ///
    /// let world = World::new(VirtualClock::shared());
    /// world.enable_trace(64);
    /// let phone = world.add_phone("alice");
    /// let uid = world.add_tag(Box::new(Type2Tag::ntag213(TagUid::from_seed(1))));
    /// world.tap_tag(uid, phone);
    /// let (entries, dropped) = world.trace_snapshot();
    /// assert_eq!(entries.len(), 1); // the TagEntered event
    /// assert_eq!(dropped, 0);
    /// ```
    pub fn enable_trace(&self, capacity: usize) {
        self.state.lock().trace = Some(TraceBuffer::new(capacity));
    }

    /// Turns tracing off, discarding the buffer.
    pub fn disable_trace(&self) {
        self.state.lock().trace = None;
    }

    /// A snapshot of the trace: `(entries, dropped_count)`. Empty when
    /// tracing is off.
    pub fn trace_snapshot(&self) -> (Vec<TraceEntry>, u64) {
        self.state.lock().trace.as_ref().map(|buffer| buffer.snapshot()).unwrap_or_default()
    }

    /// How many trace entries the bounded buffer has silently discarded
    /// since tracing was enabled (`0` when tracing is off). Non-zero
    /// means `trace_snapshot` is an incomplete window of ground truth.
    pub fn trace_dropped_entries(&self) -> u64 {
        self.state.lock().trace.as_ref().map(|buffer| buffer.dropped_entries()).unwrap_or_default()
    }

    /// Adds a phone. Each phone starts isolated, far from everything.
    pub fn add_phone(&self, name: &str) -> PhoneId {
        let mut state = self.state.lock();
        let id = PhoneId(state.next_phone);
        state.next_phone += 1;
        // Spread fresh phones out so they are not accidentally in range.
        let position = Point::new(1000.0 * (id.0 as f64 + 1.0), 0.0);
        state
            .phones
            .insert(id, PhoneSlot { name: name.to_owned(), position, subscribers: Vec::new() });
        id
    }

    /// A phone's display name.
    ///
    /// # Panics
    ///
    /// Panics if the phone does not exist.
    pub fn phone_name(&self, phone: PhoneId) -> String {
        self.state.lock().phones[&phone].name.clone()
    }

    /// Adds a tag to the world, initially far from every phone.
    ///
    /// # Panics
    ///
    /// Panics if a tag with the same UID already exists.
    pub fn add_tag(&self, emulator: Box<dyn TagEmulator>) -> TagUid {
        let mut state = self.state.lock();
        let uid = emulator.uid();
        let tech = emulator.tech();
        assert!(!state.tags.contains_key(&uid), "a tag with UID {uid} already exists in the world");
        state.tags.insert(uid, TagSlot { emulator, tech, position: Point::far_away() });
        uid
    }

    /// Removes a tag from the world entirely, emitting `TagLeft` to any
    /// phone that had it in range. Returns the emulator so callers can
    /// inspect its final memory.
    pub fn take_tag(&self, uid: TagUid) -> Option<Box<dyn TagEmulator>> {
        let mut state = self.state.lock();
        let slot = state.tags.remove(&uid)?;
        let watchers: Vec<PhoneId> = state
            .phones
            .iter()
            .filter(|(_, p)| state.in_nfc_range(p.position, slot.position))
            .map(|(id, _)| *id)
            .collect();
        for phone in watchers {
            state.emit(phone, NfcEvent::TagLeft { uid });
        }
        Some(slot.emulator)
    }

    /// Subscribes to a phone's NFC event feed.
    pub fn subscribe(&self, phone: PhoneId) -> Receiver<NfcEvent> {
        let (tx, rx) = channel();
        let mut state = self.state.lock();
        let slot = state.phones.get_mut(&phone).expect("unknown phone");
        slot.subscribers.push(tx);
        rx
    }

    /// Runs `f` with mutable access to a tag's emulator — test/debug
    /// introspection that bypasses the radio.
    pub fn with_tag<R>(&self, uid: TagUid, f: impl FnOnce(&mut dyn TagEmulator) -> R) -> Option<R> {
        let mut state = self.state.lock();
        state.tags.get_mut(&uid).map(|slot| f(slot.emulator.as_mut()))
    }

    // -----------------------------------------------------------------
    // Movement
    // -----------------------------------------------------------------

    /// Moves a tag to an absolute position, emitting enter/leave events.
    pub fn set_tag_position(&self, uid: TagUid, position: Point) {
        let mut state = self.state.lock();
        let Some(slot) = state.tags.get(&uid) else { return };
        let old = slot.position;
        let tech = slot.tech;
        let transitions: Vec<(PhoneId, bool)> = state
            .phones
            .iter()
            .filter_map(|(id, p)| {
                let was = state.in_nfc_range(p.position, old);
                let is = state.in_nfc_range(p.position, position);
                (was != is).then_some((*id, is))
            })
            .collect();
        state.tags.get_mut(&uid).expect("checked").position = position;
        let now = self.clock.now();
        let mut left_any = false;
        for (phone, entered) in transitions {
            if entered {
                state.trace(now, TraceEvent::TagEntered { phone, uid });
                self.obs_emit(now, || EventKind::PhysTagEntered {
                    phone: phone.as_u64(),
                    target: uid.to_string(),
                });
                state.emit(phone, NfcEvent::TagEntered { uid, tech });
            } else {
                left_any = true;
                state.trace(now, TraceEvent::TagLeft { phone, uid });
                self.obs_emit(now, || EventKind::PhysTagLeft {
                    phone: phone.as_u64(),
                    target: uid.to_string(),
                });
                state.emit(phone, NfcEvent::TagLeft { uid });
            }
        }
        if left_any {
            state.tags.get_mut(&uid).expect("checked").emulator.on_field_lost();
        }
    }

    /// Moves a phone to an absolute position, emitting tag and peer
    /// enter/leave events for every affected relationship.
    pub fn set_phone_position(&self, phone: PhoneId, position: Point) {
        let mut state = self.state.lock();
        let Some(slot) = state.phones.get(&phone) else { return };
        let old = slot.position;

        let tag_transitions: Vec<(TagUid, TagTech, bool)> = state
            .tags
            .iter()
            .filter_map(|(uid, t)| {
                let was = state.in_nfc_range(t.position, old);
                let is = state.in_nfc_range(t.position, position);
                (was != is).then_some((*uid, t.tech, is))
            })
            .collect();
        let peer_transitions: Vec<(PhoneId, bool)> = state
            .phones
            .iter()
            .filter_map(|(id, p)| {
                if *id == phone {
                    return None;
                }
                let was = state.in_p2p_range(p.position, old);
                let is = state.in_p2p_range(p.position, position);
                (was != is).then_some((*id, is))
            })
            .collect();

        state.phones.get_mut(&phone).expect("checked").position = position;

        let now = self.clock.now();
        for (uid, tech, entered) in tag_transitions {
            if entered {
                state.trace(now, TraceEvent::TagEntered { phone, uid });
                self.obs_emit(now, || EventKind::PhysTagEntered {
                    phone: phone.as_u64(),
                    target: uid.to_string(),
                });
                state.emit(phone, NfcEvent::TagEntered { uid, tech });
            } else {
                state.trace(now, TraceEvent::TagLeft { phone, uid });
                self.obs_emit(now, || EventKind::PhysTagLeft {
                    phone: phone.as_u64(),
                    target: uid.to_string(),
                });
                state.emit(phone, NfcEvent::TagLeft { uid });
                state.tags.get_mut(&uid).expect("checked").emulator.on_field_lost();
            }
        }
        for (peer, entered) in peer_transitions {
            let (a, b) = (phone, peer);
            if entered {
                // The legacy trace plane has no peer events; the obs
                // stream records both directions so `*`-target pushes
                // correlate from either phone's perspective.
                self.obs_emit(now, || EventKind::PhysPeerEntered {
                    phone: a.as_u64(),
                    target: obs_peer_target(b),
                });
                self.obs_emit(now, || EventKind::PhysPeerEntered {
                    phone: b.as_u64(),
                    target: obs_peer_target(a),
                });
                state.emit(a, NfcEvent::PeerEntered { peer: b });
                state.emit(b, NfcEvent::PeerEntered { peer: a });
            } else {
                self.obs_emit(now, || EventKind::PhysPeerLeft {
                    phone: a.as_u64(),
                    target: obs_peer_target(b),
                });
                self.obs_emit(now, || EventKind::PhysPeerLeft {
                    phone: b.as_u64(),
                    target: obs_peer_target(a),
                });
                state.emit(a, NfcEvent::PeerLeft { peer: b });
                state.emit(b, NfcEvent::PeerLeft { peer: a });
            }
        }
    }

    /// Taps a tag on a phone: the tag moves into the phone's field.
    pub fn tap_tag(&self, uid: TagUid, phone: PhoneId) {
        let position = {
            let state = self.state.lock();
            let Some(p) = state.phones.get(&phone) else { return };
            p.position
        };
        self.set_tag_position(uid, position);
    }

    /// Pulls a tag away from everything.
    pub fn remove_tag_from_field(&self, uid: TagUid) {
        self.set_tag_position(uid, Point::far_away());
    }

    /// Places a tag at exactly `distance` meters from a phone's current
    /// position — for exercising the distance-dependent link behaviour
    /// (reliability falls toward the field edge).
    pub fn place_tag_near(&self, uid: TagUid, phone: PhoneId, distance: f64) {
        let position = {
            let state = self.state.lock();
            let Some(p) = state.phones.get(&phone) else { return };
            Point::new(p.position.x + distance, p.position.y)
        };
        self.set_tag_position(uid, position);
    }

    /// Brings phone `b` next to phone `a` (into beam range).
    pub fn bring_phones_together(&self, a: PhoneId, b: PhoneId) {
        let position = {
            let state = self.state.lock();
            let Some(p) = state.phones.get(&a) else { return };
            Point::new(p.position.x + 0.01, p.position.y)
        };
        self.set_phone_position(b, position);
    }

    /// Moves phone `b` far from everything.
    pub fn separate_phone(&self, b: PhoneId) {
        self.set_phone_position(b, Point::new(-1000.0 * (b.0 as f64 + 1.0), -5000.0));
    }

    // -----------------------------------------------------------------
    // Queries
    // -----------------------------------------------------------------

    /// Whether `uid` is currently in `phone`'s field.
    pub fn tag_in_range(&self, phone: PhoneId, uid: TagUid) -> bool {
        self.state.lock().tag_in_range(phone, uid)
    }

    /// The technology of `uid` if it is currently in `phone`'s field;
    /// `None` for a tag out of range or unknown to the world. A keyed
    /// lookup: its cost does not grow with the number of tags.
    pub fn tag_tech_in_range(&self, phone: PhoneId, uid: TagUid) -> Option<TagTech> {
        self.state.lock().tag_tech_in_range(phone, uid)
    }

    /// All tags currently in `phone`'s field.
    pub fn tags_in_range(&self, phone: PhoneId) -> Vec<(TagUid, TagTech)> {
        let state = self.state.lock();
        let Some(p) = state.phones.get(&phone) else { return Vec::new() };
        let mut v: Vec<(TagUid, TagTech)> = state
            .tags
            .iter()
            .filter(|(_, t)| state.in_nfc_range(t.position, p.position))
            .map(|(uid, t)| (*uid, t.tech))
            .collect();
        v.sort_by_key(|(uid, _)| *uid);
        v
    }

    /// All peer phones currently in beam range of `phone`.
    pub fn peers_in_range(&self, phone: PhoneId) -> Vec<PhoneId> {
        self.state.lock().peers_in_range(phone)
    }

    /// Whether `peer` is currently in beam range of `phone` (a phone is
    /// never its own peer).
    pub fn peer_in_range(&self, phone: PhoneId, peer: PhoneId) -> bool {
        self.state.lock().peer_in_range(phone, peer)
    }

    /// Whether any peer phone is currently in beam range of `phone`.
    pub fn any_peer_in_range(&self, phone: PhoneId) -> bool {
        self.state.lock().any_peer_in_range(phone)
    }

    // -----------------------------------------------------------------
    // Radio operations
    // -----------------------------------------------------------------

    /// Puts one command on the air without waiting for it: counts the
    /// exchange, checks that both ends exist and are in range, samples
    /// link noise, and returns when the air time ends. Nothing reaches
    /// the tag until [`World::finish_transceive`] runs at or after
    /// [`InFlight::done_at`].
    ///
    /// # Errors
    ///
    /// [`LinkError::UnknownDevice`] or [`LinkError::OutOfRange`]: the
    /// exchange is rejected before the air.
    pub fn begin_transceive(
        &self,
        phone: PhoneId,
        uid: TagUid,
        command: &[u8],
    ) -> Result<InFlight, LinkError> {
        let mut state = self.state.lock();
        state.radio.exchanges += 1;
        if !state.phones.contains_key(&phone) || !state.tags.contains_key(&uid) {
            state.radio.rejected += 1;
            return Err(LinkError::UnknownDevice);
        }
        if !state.tag_in_range(phone, uid) {
            state.radio.rejected += 1;
            return Err(LinkError::OutOfRange);
        }
        let distance = state.phones[&phone].position.distance_to(state.tags[&uid].position);
        let link = state.link.clone();
        let fails = link.sample_failure(distance, &mut state.rng);
        // Response size is unknown before executing; approximate the
        // air time with command size + a nominal 16-byte response.
        Ok(self.in_flight(link.exchange_latency(command.len() + 16), fails, Vec::new()))
    }

    /// Lands an exchange begun by [`World::begin_transceive`] with the
    /// same `command`: re-checks range, draws the fault plan's decision,
    /// applies the command to the tag and records the trace and obs
    /// events. Returns the response and the dwell a stalled or spiking
    /// tag holds it back for (zero otherwise); the caller serves the
    /// response once the dwell is over.
    pub fn finish_transceive(
        &self,
        phone: PhoneId,
        uid: TagUid,
        command: &[u8],
        flight: InFlight,
    ) -> (Result<Vec<u8>, LinkError>, Duration) {
        let now = self.clock.now();
        let mut state = self.state.lock();
        state.radio.air_time_nanos += flight.air_time.as_nanos() as u64;
        let opcode = command.first().copied();
        let obs_exchange = |ok: bool| EventKind::PhysExchange {
            phone: phone.as_u64(),
            target: uid.to_string(),
            opcode: opcode.map(u64::from).unwrap_or(NO_OPCODE),
            ok,
        };
        let failed = |state: &mut WorldState, error: LinkError| {
            state.radio.failed += 1;
            state.trace(now, TraceEvent::Exchange { phone, uid, opcode, ok: false });
            self.obs_emit(now, || obs_exchange(false));
            Err(error)
        };
        // The command reaches the tag and its response comes back.
        let served = |state: &mut WorldState| {
            state.radio.bytes += command.len() as u64 + 16;
            state.trace(now, TraceEvent::Exchange { phone, uid, opcode, ok: true });
            self.obs_emit(now, || obs_exchange(true));
            let slot = state.tags.get_mut(&uid).ok_or(LinkError::FieldLost)?;
            slot.emulator
                .transceive(command)
                .map_err(|TagError::NoResponse| LinkError::TransmissionError)
        };
        if !state.tag_in_range(phone, uid) {
            return (failed(&mut state, LinkError::FieldLost), Duration::ZERO);
        }
        if flight.fails {
            return (failed(&mut state, LinkError::TransmissionError), Duration::ZERO);
        }
        let injected =
            state.faults.as_mut().and_then(|p| p.decide(faults::is_write_command(command)));
        let Some(kind) = injected else {
            return (served(&mut state), Duration::ZERO);
        };
        state.trace(now, TraceEvent::FaultInjected { phone, uid, fault: kind.label() });
        self.obs_emit(now, || EventKind::FaultInjected {
            phone: phone.as_u64(),
            target: uid.to_string(),
            fault: kind.label(),
        });
        self.obs.metrics().counter("sim.fault_injected").inc();
        // Per-class ground truth next to the aggregate, so the
        // telemetry sampler can expose injection rate by class.
        self.obs.metrics().counter(kind.metric_name()).inc();
        match kind {
            FaultKind::RfDrop => {
                // The command reaches the tag and takes effect; the
                // response is lost on the air. The reader cannot
                // distinguish this from a command that never arrived.
                state.apply(uid, command);
                (failed(&mut state, LinkError::FieldLost), Duration::ZERO)
            }
            FaultKind::TornWrite => {
                // Power loss mid-write: only a torn prefix of the
                // write lands, and no response comes back.
                if let Some(torn) = faults::torn_write_command(command) {
                    state.apply(uid, &torn);
                }
                (failed(&mut state, LinkError::FieldLost), Duration::ZERO)
            }
            FaultKind::Corruption => {
                // The exchange "succeeds" at the radio level but a
                // bit of the response flips on the way back.
                let mut response = served(&mut state);
                if let (Ok(resp), Some(p)) = (response.as_mut(), state.faults.as_mut()) {
                    p.corrupt(resp);
                }
                (response, Duration::ZERO)
            }
            FaultKind::StuckTag => {
                // The tag stalls and never answers: the exchange
                // dwells for the plan's stall time, then fails.
                let response = failed(&mut state, LinkError::TransmissionError);
                let stall = state.faults.as_ref().map(|p| p.stall()).unwrap_or_default();
                state.radio.air_time_nanos += stall.as_nanos() as u64;
                (response, stall)
            }
            FaultKind::LatencySpike => {
                // The exchange completes, just far slower than the
                // link model predicts: the response is held back for
                // the extra dwell like the nominal air time.
                let response = served(&mut state);
                let spike = state.faults.as_ref().map(|p| p.spike()).unwrap_or_default();
                state.radio.air_time_nanos += spike.as_nanos() as u64;
                (response, spike)
            }
        }
    }

    fn in_flight(&self, air_time: Duration, fails: bool, peers: Vec<PhoneId>) -> InFlight {
        InFlight { done_at: self.clock.now() + air_time, air_time, fails, to: None, peers }
    }

    /// Puts a push from `from` on the air without waiting for it; see
    /// [`World::begin_transceive`]. A push `to` one peer models the
    /// connection-oriented (LLCP-style) transport real NFC P2P stacks run
    /// on top of the broadcast radio; with no `to` it goes to every peer
    /// in range, as NFC push is undirected.
    ///
    /// # Errors
    ///
    /// [`LinkError::UnknownDevice`]; [`LinkError::OutOfRange`] when `to`
    /// is not in beam range; [`LinkError::NoPeerInRange`] when an
    /// undirected push has nobody to reach.
    pub fn begin_beam(
        &self,
        from: PhoneId,
        to: Option<PhoneId>,
        bytes: &[u8],
    ) -> Result<InFlight, LinkError> {
        let mut state = self.state.lock();
        state.radio.beams += 1;
        if !state.phones.contains_key(&from) || to.is_some_and(|to| !state.phones.contains_key(&to))
        {
            return Err(LinkError::UnknownDevice);
        }
        let peers = match to {
            Some(to) if !state.peer_in_range(from, to) => return Err(LinkError::OutOfRange),
            Some(_) => Vec::new(),
            None => state.peers_in_range(from),
        };
        if to.is_none() && peers.is_empty() {
            return Err(LinkError::NoPeerInRange);
        }
        let link = state.link.clone();
        let fails = link.sample_failure(0.0, &mut state.rng);
        Ok(InFlight { to, ..self.in_flight(link.exchange_latency(bytes.len()), fails, peers) })
    }

    /// Lands a push begun by [`World::begin_beam`] with the same `bytes`:
    /// delivers it to the peers it was sent to that stayed in range, and
    /// returns how many those are.
    ///
    /// # Errors
    ///
    /// [`LinkError::FieldLost`] or [`LinkError::TransmissionError`].
    pub fn finish_beam(
        &self,
        from: PhoneId,
        bytes: &[u8],
        flight: InFlight,
    ) -> Result<usize, LinkError> {
        let now = self.clock.now();
        let mut state = self.state.lock();
        state.radio.air_time_nanos += flight.air_time.as_nanos() as u64;
        let sent = || flight.to.iter().chain(&flight.peers);
        let delivered = sent().filter(|peer| state.peer_in_range(from, **peer)).count();
        if delivered == 0 {
            state.radio.failed += 1;
            return Err(LinkError::FieldLost);
        }
        if flight.fails {
            state.radio.failed += 1;
            return Err(LinkError::TransmissionError);
        }
        state.radio.beams_delivered += 1;
        state.radio.bytes += bytes.len() as u64;
        state.trace(now, TraceEvent::Beam { from, bytes: bytes.len(), delivered });
        self.obs_emit(now, || EventKind::PhysBeam {
            phone: from.as_u64(),
            bytes: bytes.len() as u64,
            delivered: delivered as u64,
        });
        for peer in sent().filter(|peer| state.peer_in_range(from, **peer)) {
            state.emit(*peer, NfcEvent::BeamReceived { from, bytes: bytes.to_vec() });
        }
        Ok(delivered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::controller::NfcHandle;
    use crate::tag::{Type2Tag, Type4Tag};

    fn world() -> World {
        World::with_link(VirtualClock::shared(), LinkModel::instant(), 7)
    }

    fn transceive(
        w: &World,
        phone: PhoneId,
        uid: TagUid,
        command: &[u8],
    ) -> Result<Vec<u8>, LinkError> {
        NfcHandle::new(w.clone(), phone).transceive(uid, command)
    }

    fn beam(w: &World, from: PhoneId, bytes: &[u8]) -> Result<usize, LinkError> {
        NfcHandle::new(w.clone(), from).beam(bytes)
    }

    fn beam_to(w: &World, from: PhoneId, to: PhoneId, bytes: &[u8]) -> Result<(), LinkError> {
        NfcHandle::new(w.clone(), from).beam_to(to, bytes)
    }

    #[test]
    fn tap_and_remove_emit_events() {
        let w = world();
        let phone = w.add_phone("alice");
        let rx = w.subscribe(phone);
        let uid = w.add_tag(Box::new(Type2Tag::ntag213(TagUid::from_seed(1))));
        w.tap_tag(uid, phone);
        assert_eq!(rx.try_recv().unwrap(), NfcEvent::TagEntered { uid, tech: TagTech::Type2 });
        w.remove_tag_from_field(uid);
        assert_eq!(rx.try_recv().unwrap(), NfcEvent::TagLeft { uid });
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn moving_the_phone_also_emits_tag_events() {
        let w = world();
        let phone = w.add_phone("alice");
        let uid = w.add_tag(Box::new(Type4Tag::new(TagUid::from_seed(2), 256)));
        w.set_tag_position(uid, Point::new(5.0, 5.0));
        let rx = w.subscribe(phone);
        w.set_phone_position(phone, Point::new(5.0, 5.0));
        assert_eq!(rx.try_recv().unwrap(), NfcEvent::TagEntered { uid, tech: TagTech::Type4 });
        w.set_phone_position(phone, Point::new(50.0, 50.0));
        assert_eq!(rx.try_recv().unwrap(), NfcEvent::TagLeft { uid });
    }

    #[test]
    fn transceive_requires_proximity() {
        let w = world();
        let phone = w.add_phone("alice");
        let uid = w.add_tag(Box::new(Type2Tag::ntag213(TagUid::from_seed(3))));
        assert_eq!(transceive(&w, phone, uid, &[0x30, 3]).unwrap_err(), LinkError::OutOfRange);
        w.tap_tag(uid, phone);
        let resp = transceive(&w, phone, uid, &[0x30, 3]).unwrap();
        assert_eq!(resp[0], 0xE1);
    }

    #[test]
    fn keyed_tag_lookup_includes_the_field_edge() {
        let w = world();
        let phone = w.add_phone("alice");
        w.set_phone_position(phone, Point::new(0.0, 0.0));
        let uid = w.add_tag(Box::new(Type4Tag::new(TagUid::from_seed(11), 256)));
        let range = w.link_model().nfc_range_m;
        for (distance, inside) in [(range, true), (range * 1.001, false), (0.0, true)] {
            w.place_tag_near(uid, phone, distance);
            let expected = inside.then_some(TagTech::Type4);
            assert_eq!(w.tag_tech_in_range(phone, uid), expected, "at {distance} m");
            assert_eq!(w.tags_in_range(phone).first().map(|(_, tech)| *tech), expected);
        }
        assert_eq!(w.tag_tech_in_range(phone, TagUid::from_seed(12)), None);
        assert_eq!(w.tag_tech_in_range(PhoneId::from_u64(99), uid), None);
    }

    #[test]
    fn unknown_devices_are_reported() {
        let w = world();
        let phone = w.add_phone("alice");
        assert_eq!(
            transceive(&w, phone, TagUid::from_seed(99), &[0x30, 0]).unwrap_err(),
            LinkError::UnknownDevice
        );
    }

    #[test]
    fn total_failure_link_always_errors() {
        let clock = VirtualClock::shared();
        let w = World::with_link(clock, LinkModel::with_failure_prob(1.0), 1);
        let phone = w.add_phone("alice");
        let uid = w.add_tag(Box::new(Type2Tag::ntag213(TagUid::from_seed(4))));
        w.tap_tag(uid, phone);
        assert_eq!(
            transceive(&w, phone, uid, &[0x30, 3]).unwrap_err(),
            LinkError::TransmissionError
        );
    }

    #[test]
    fn transceive_consumes_virtual_time() {
        let clock = VirtualClock::shared();
        let w = World::with_link(Arc::clone(&clock) as Arc<dyn Clock>, LinkModel::reliable(), 1);
        let phone = w.add_phone("alice");
        let uid = w.add_tag(Box::new(Type2Tag::ntag213(TagUid::from_seed(5))));
        w.tap_tag(uid, phone);
        let before = clock.now();
        transceive(&w, phone, uid, &[0x30, 3]).unwrap();
        assert!(clock.now() > before);
    }

    #[test]
    fn beam_reaches_peers_in_range_only() {
        let w = world();
        let alice = w.add_phone("alice");
        let bob = w.add_phone("bob");
        let carol = w.add_phone("carol");
        let rx_bob = w.subscribe(bob);
        let rx_carol = w.subscribe(carol);
        assert_eq!(beam(&w, alice, b"hi").unwrap_err(), LinkError::NoPeerInRange);
        w.bring_phones_together(alice, bob);
        assert_eq!(rx_bob.try_recv().unwrap(), NfcEvent::PeerEntered { peer: alice });
        assert_eq!(beam(&w, alice, b"hi").unwrap(), 1);
        assert_eq!(
            rx_bob.try_recv().unwrap(),
            NfcEvent::BeamReceived { from: alice, bytes: b"hi".to_vec() }
        );
        assert!(rx_carol.try_recv().is_err());
        w.separate_phone(bob);
        assert_eq!(rx_bob.try_recv().unwrap(), NfcEvent::PeerLeft { peer: alice });
    }

    #[test]
    fn beam_to_is_directed() {
        let w = world();
        let alice = w.add_phone("alice");
        let bob = w.add_phone("bob");
        let carol = w.add_phone("carol");
        let rx_bob = w.subscribe(bob);
        let rx_carol = w.subscribe(carol);
        assert_eq!(beam_to(&w, alice, bob, b"x").unwrap_err(), LinkError::OutOfRange);
        // Bring BOTH bob and carol next to alice; only bob must receive.
        w.bring_phones_together(alice, bob);
        w.bring_phones_together(alice, carol);
        beam_to(&w, alice, bob, b"for bob").unwrap();
        let got: Vec<NfcEvent> = rx_bob.try_iter().collect();
        assert!(got.contains(&NfcEvent::BeamReceived { from: alice, bytes: b"for bob".to_vec() }));
        assert!(rx_carol.try_iter().all(|e| !matches!(e, NfcEvent::BeamReceived { .. })));
        // Unknown device.
        assert_eq!(
            beam_to(&w, alice, PhoneId::from_u64(99), b"x").unwrap_err(),
            LinkError::UnknownDevice
        );
    }

    #[test]
    fn field_loss_resets_type4_session() {
        let w = world();
        let phone = w.add_phone("alice");
        let uid = w.add_tag(Box::new(Type4Tag::new(TagUid::from_seed(6), 256)));
        w.tap_tag(uid, phone);
        // Select the application.
        let mut select = vec![0x00, 0xA4, 0x04, 0x00, 0x07];
        select.extend_from_slice(&crate::tag::type4::NDEF_AID);
        select.push(0x00);
        assert_eq!(transceive(&w, phone, uid, &select).unwrap(), vec![0x90, 0x00]);
        // Losing the field resets selection: READ BINARY now not allowed.
        w.remove_tag_from_field(uid);
        w.tap_tag(uid, phone);
        let resp = transceive(&w, phone, uid, &[0x00, 0xB0, 0x00, 0x00, 0x02]).unwrap();
        assert_eq!(resp, vec![0x69, 0x86]);
    }

    #[test]
    fn take_tag_returns_emulator_and_notifies() {
        let w = world();
        let phone = w.add_phone("alice");
        let uid = w.add_tag(Box::new(Type2Tag::ntag213(TagUid::from_seed(7))));
        w.tap_tag(uid, phone);
        let rx = w.subscribe(phone);
        let emulator = w.take_tag(uid).unwrap();
        assert_eq!(emulator.uid(), uid);
        assert_eq!(rx.try_recv().unwrap(), NfcEvent::TagLeft { uid });
        assert!(w.take_tag(uid).is_none());
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_uid_panics() {
        let w = world();
        w.add_tag(Box::new(Type2Tag::ntag213(TagUid::from_seed(8))));
        w.add_tag(Box::new(Type2Tag::ntag213(TagUid::from_seed(8))));
    }

    #[test]
    fn radio_stats_track_activity() {
        let w = world();
        let phone = w.add_phone("alice");
        let uid = w.add_tag(Box::new(Type2Tag::ntag213(TagUid::from_seed(30))));
        assert_eq!(w.radio_stats(), crate::world::RadioStats::default());
        // Out-of-range exchange: counted and rejected.
        assert!(transceive(&w, phone, uid, &[0x30, 3]).is_err());
        let stats = w.radio_stats();
        assert_eq!(stats.exchanges, 1);
        assert_eq!(stats.rejected, 1);
        // In-range exchange: bytes move.
        w.tap_tag(uid, phone);
        transceive(&w, phone, uid, &[0x30, 3]).unwrap();
        let stats = w.radio_stats();
        assert_eq!(stats.exchanges, 2);
        assert_eq!(stats.bytes, 2 + 16);
        // Beam accounting.
        let bob = w.add_phone("bob");
        assert!(beam(&w, phone, b"xy").is_err());
        w.bring_phones_together(phone, bob);
        beam(&w, phone, b"xy").unwrap();
        let stats = w.radio_stats();
        assert_eq!(stats.beams, 2);
        assert_eq!(stats.beams_delivered, 1);
        assert_eq!(stats.bytes, 2 + 16 + 2);
    }

    #[test]
    fn trace_records_physical_events() {
        use crate::trace::TraceEvent;
        let w = world();
        w.enable_trace(100);
        let phone = w.add_phone("alice");
        let uid = w.add_tag(Box::new(Type2Tag::ntag213(TagUid::from_seed(40))));
        w.tap_tag(uid, phone);
        transceive(&w, phone, uid, &[0x30, 3]).unwrap();
        w.remove_tag_from_field(uid);
        let (entries, dropped) = w.trace_snapshot();
        assert_eq!(dropped, 0);
        let events: Vec<&TraceEvent> = entries.iter().map(|e| &e.event).collect();
        assert!(matches!(events[0], TraceEvent::TagEntered { uid: u, .. } if *u == uid));
        assert!(matches!(events[1], TraceEvent::Exchange { opcode: Some(0x30), ok: true, .. }));
        assert!(matches!(events[2], TraceEvent::TagLeft { uid: u, .. } if *u == uid));
        // Rendering works for all entries.
        for entry in &entries {
            assert!(!entry.to_string().is_empty());
        }
        // Disabling clears.
        w.disable_trace();
        assert_eq!(w.trace_snapshot().0.len(), 0);
    }

    #[test]
    fn obs_bridge_mirrors_physical_events() {
        use morena_obs::{EventKind, RingSink};

        let w = world();
        let ring = Arc::new(RingSink::new(64));
        w.obs().install(ring.clone());

        let phone = w.add_phone("alice");
        let bob = w.add_phone("bob");
        let uid = w.add_tag(Box::new(Type2Tag::ntag213(TagUid::from_seed(41))));
        w.tap_tag(uid, phone);
        transceive(&w, phone, uid, &[0x30, 3]).unwrap();
        w.remove_tag_from_field(uid);
        w.bring_phones_together(phone, bob);
        beam(&w, phone, b"xy").unwrap();
        w.separate_phone(bob);

        let kinds: Vec<&'static str> =
            ring.snapshot().iter().map(|e| e.kind.type_label()).collect();
        assert_eq!(
            kinds,
            vec![
                "phys_tag_entered",
                "phys_exchange",
                "phys_tag_left",
                "phys_peer_entered", // both directions
                "phys_peer_entered",
                "phys_beam",
                "phys_peer_left",
                "phys_peer_left",
            ]
        );
        let events = ring.snapshot();
        assert!(matches!(&events[1].kind, EventKind::PhysExchange { opcode: 0x30, ok: true, .. }));
        // Sequence numbers are gap-free and timestamps follow the world
        // clock.
        for (i, event) in events.iter().enumerate() {
            assert_eq!(event.seq, i as u64);
        }
        assert_eq!(ring.dropped_entries(), 0);
        assert_eq!(w.trace_dropped_entries(), 0);
    }

    #[test]
    fn with_tag_gives_direct_access() {
        let w = world();
        let uid = w.add_tag(Box::new(Type2Tag::ntag213(TagUid::from_seed(9))));
        let tech = w.with_tag(uid, |t| t.tech()).unwrap();
        assert_eq!(tech, TagTech::Type2);
        assert!(w.with_tag(TagUid::from_seed(10), |t| t.tech()).is_none());
    }
}
