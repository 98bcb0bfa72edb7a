//! Leasing (§6 of the paper — proposed as future work, implemented
//! here): exclusive, time-bounded access to a tag's memory.
//!
//! The mechanism is the one the paper sketches: *"write a locking
//! timestamp and a device ID on the RFID tag's memory […] Only if this
//! succeeds, the device is granted exclusive access. The timestamp
//! dictates for how long […] Beyond this timestamp, the lease expires"*,
//! under the stated assumption that clock drift between devices is
//! negligible (in the simulation, all devices literally share a clock).
//!
//! The lock lives in an NFC Forum external-type record
//! (`morena.example:lease`) prepended to the tag's NDEF message, so
//! leased tags remain well-formed NDEF and unleased readers simply see
//! one extra record. On top of the paper's sketch, [`LeaseManager`]
//! performs a **write-then-verify** round: after writing its lock record
//! the device reads the tag back and only claims the lease if its own
//! lock survived — closing most of the window in which two devices could
//! both believe they hold the tag.

use std::collections::HashMap;
use std::time::Duration;

use morena_ndef::{NdefMessage, NdefRecord, Tnf};
use morena_nfc_sim::clock::{Clock, SimInstant};
use morena_nfc_sim::controller::NfcHandle;
use morena_nfc_sim::error::NfcOpError;
use morena_nfc_sim::tag::TagUid;
use morena_obs::inspect::{ComponentSnapshot, LeaseSnapshot, SnapshotProvider};
use morena_obs::Mutex;
use morena_obs::{trace, EventKind, LeaseAction, MemFootprint};
use std::sync::Arc;

use crate::context::MorenaContext;
use crate::policy::Policy;

/// The external record type carrying the lock (domain:type form).
pub const LEASE_RECORD_TYPE: &str = "morena.example:lease";

/// A device's identity for locking purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub u64);

impl std::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "device-{}", self.0)
    }
}

/// The lock record stored on a tag: who holds it and until when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseRecord {
    /// The device holding the lease.
    pub holder: DeviceId,
    /// Expiry instant (shared simulation clock).
    pub expires_at: SimInstant,
}

impl LeaseRecord {
    /// Whether the lease is still in force at `now`.
    pub fn is_valid(&self, now: SimInstant) -> bool {
        now < self.expires_at
    }

    /// Encodes as the external NDEF record.
    pub fn to_record(&self) -> NdefRecord {
        let mut payload = Vec::with_capacity(16);
        payload.extend_from_slice(&self.holder.0.to_be_bytes());
        payload.extend_from_slice(&self.expires_at.as_nanos().to_be_bytes());
        NdefRecord::external(LEASE_RECORD_TYPE, payload).expect("lease record within limits")
    }

    /// Decodes from an NDEF record, if it is a lease record.
    pub fn from_record(record: &NdefRecord) -> Option<LeaseRecord> {
        if record.tnf() != Tnf::External || record.record_type() != LEASE_RECORD_TYPE.as_bytes() {
            return None;
        }
        let payload = record.payload();
        if payload.len() != 16 {
            return None;
        }
        let holder = u64::from_be_bytes(payload[..8].try_into().expect("8 bytes"));
        let expires = u64::from_be_bytes(payload[8..].try_into().expect("8 bytes"));
        Some(LeaseRecord { holder: DeviceId(holder), expires_at: SimInstant::from_nanos(expires) })
    }

    /// Finds the lease record in a message, if present.
    pub fn find_in(message: &NdefMessage) -> Option<LeaseRecord> {
        message.iter().find_map(LeaseRecord::from_record)
    }
}

/// Removes any lease record from `message`, returning the bare
/// application content.
pub fn strip_lease(message: &NdefMessage) -> NdefMessage {
    let records: Vec<NdefRecord> =
        message.iter().filter(|r| LeaseRecord::from_record(r).is_none()).cloned().collect();
    NdefMessage::new(records)
}

/// Prepends `lease` to the application content of `message` (replacing
/// any previous lease record).
pub fn with_lease(message: &NdefMessage, lease: LeaseRecord) -> NdefMessage {
    let mut records = vec![lease.to_record()];
    for record in strip_lease(message).records() {
        if !record.is_empty_record() {
            records.push(record.clone());
        }
    }
    NdefMessage::new(records)
}

/// A successfully acquired lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    /// The leased tag.
    pub uid: TagUid,
    /// Who holds it (this manager's device).
    pub holder: DeviceId,
    /// When it lapses.
    pub expires_at: SimInstant,
}

/// Why a lease operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LeaseError {
    /// Another device holds a still-valid lease.
    Held {
        /// The current holder.
        holder: DeviceId,
        /// When its lease lapses.
        expires_at: SimInstant,
    },
    /// The verify read found a competing lock: a concurrent device won
    /// the race. The caller may simply retry after a backoff.
    LostRace {
        /// Who won instead.
        winner: DeviceId,
    },
    /// Releasing or renewing a lease this device does not hold.
    NotHolder,
    /// The underlying NFC operation failed.
    Nfc(NfcOpError),
}

impl std::fmt::Display for LeaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LeaseError::Held { holder, expires_at } => {
                write!(f, "tag is leased by {holder} until {expires_at}")
            }
            LeaseError::LostRace { winner } => {
                write!(f, "lost the lock race to {winner}")
            }
            LeaseError::NotHolder => write!(f, "this device does not hold the lease"),
            LeaseError::Nfc(e) => write!(f, "nfc failure during lease operation: {e}"),
        }
    }
}

impl std::error::Error for LeaseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LeaseError::Nfc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NfcOpError> for LeaseError {
    fn from(e: NfcOpError) -> LeaseError {
        LeaseError::Nfc(e)
    }
}

/// Acquires, renews, and releases tag leases for one device.
///
/// Operations are blocking (like the raw NDEF operations they are built
/// from) and meant to run from worker threads or inside asynchronous
/// operations' attempt paths.
#[derive(Debug, Clone)]
pub struct LeaseManager {
    nfc: NfcHandle,
    clock: Arc<dyn Clock>,
    device: DeviceId,
    ledger: Arc<LeaseLedger>,
    /// The context's policy at construction: its `lease_ttl` is the TTL
    /// used when the caller picks none, its `trace_sample` samples
    /// acquire roots.
    policy: Arc<Policy>,
}

/// This device's view of the leases it believes it holds — kept for the
/// inspector; the tag's on-memory lock record stays authoritative.
#[derive(Debug)]
struct LeaseLedger {
    device: DeviceId,
    held: Mutex<HashMap<TagUid, SimInstant>>,
}

impl MemFootprint for LeaseLedger {
    fn mem_bytes(&self) -> u64 {
        let entries = self.held.lock().capacity() as u64;
        std::mem::size_of::<Self>() as u64
            + entries * std::mem::size_of::<(TagUid, SimInstant)>() as u64
    }
}

impl SnapshotProvider for LeaseLedger {
    fn snapshot(&self, now_nanos: u64) -> ComponentSnapshot {
        let mut held: Vec<(String, u64)> = {
            let mut map = self.held.lock();
            // Leases lapse by the clock alone; drop expired entries here
            // rather than waiting for an explicit release.
            map.retain(|_, expires| expires.as_nanos() > now_nanos);
            map.iter().map(|(uid, expires)| (uid.to_string(), expires.as_nanos())).collect()
        };
        held.sort();
        ComponentSnapshot::Leases(LeaseSnapshot {
            device: self.device.to_string(),
            held,
            mem_bytes: self.mem_bytes(),
        })
    }
}

impl LeaseManager {
    /// Creates a manager identified by the context's phone id. The
    /// context's default [`Policy::lease_ttl`](crate::policy::Policy)
    /// becomes this manager's default duration.
    pub fn new(ctx: &MorenaContext) -> LeaseManager {
        let device = DeviceId(ctx.phone().as_u64());
        let ledger = Arc::new(LeaseLedger { device, held: Mutex::new(HashMap::new()) });
        ctx.nfc().world().obs().inspector().register(
            format!("leases-{device}"),
            Arc::downgrade(&ledger) as std::sync::Weak<dyn SnapshotProvider>,
        );
        LeaseManager {
            nfc: ctx.nfc().clone(),
            clock: Arc::clone(ctx.clock()),
            device,
            ledger,
            policy: ctx.shared_policy(),
        }
    }

    /// This manager's device identity.
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// The TTL [`acquire_default`](LeaseManager::acquire_default) uses,
    /// as inherited from the context policy at construction.
    pub fn default_ttl(&self) -> Duration {
        self.policy.lease_ttl
    }

    /// [`acquire`](LeaseManager::acquire) with the policy-provided
    /// default TTL.
    ///
    /// # Errors
    ///
    /// Same as [`acquire`](LeaseManager::acquire).
    pub fn acquire_default(&self, uid: TagUid) -> Result<Lease, LeaseError> {
        self.acquire(uid, self.policy.lease_ttl)
    }

    fn read_message(&self, uid: TagUid) -> Result<NdefMessage, LeaseError> {
        let bytes = self.nfc.ndef_read(uid).map_err(LeaseError::Nfc)?;
        if bytes.is_empty() {
            return Ok(NdefMessage::empty_tag());
        }
        // A tag torn by an interrupted write parses as garbage. Treating
        // that as fatal would leave the tag permanently unacquirable
        // (nobody could ever write the repairing message), so corrupt
        // content reads as "blank, no valid lease" — the next acquire's
        // write repairs the tag. The application payload was already
        // lost to the torn write.
        Ok(NdefMessage::parse(&bytes).unwrap_or_else(|_| NdefMessage::empty_tag()))
    }

    fn write_message(&self, uid: TagUid, message: &NdefMessage) -> Result<(), LeaseError> {
        self.nfc.ndef_write(uid, &message.to_bytes()).map_err(LeaseError::Nfc)
    }

    /// Records a lease transition in the world's observability stream.
    fn observe(&self, uid: TagUid, action: LeaseAction, expires_at: Option<SimInstant>) {
        match action {
            LeaseAction::Granted | LeaseAction::Renewed => {
                if let Some(expires) = expires_at {
                    self.ledger.held.lock().insert(uid, expires);
                }
            }
            LeaseAction::Released => {
                self.ledger.held.lock().remove(&uid);
            }
            LeaseAction::Denied | LeaseAction::LostRace => {}
        }
        let recorder = self.nfc.world().obs();
        let counter = match action {
            LeaseAction::Granted => "lease.granted",
            LeaseAction::Renewed => "lease.renewed",
            LeaseAction::Released => "lease.released",
            LeaseAction::Denied => "lease.denied",
            LeaseAction::LostRace => "lease.lost_race",
        };
        recorder.metrics().counter(counter).inc();
        if recorder.is_enabled() {
            recorder.emit(
                self.clock.now().as_nanos(),
                EventKind::Lease {
                    phone: self.device.0,
                    target: uid.to_string(),
                    action,
                    expires_nanos: expires_at.map(SimInstant::as_nanos).unwrap_or(0),
                },
            );
        }
    }

    /// The lease currently on the tag, if any (valid or expired).
    ///
    /// # Errors
    ///
    /// [`LeaseError::Nfc`] when the tag cannot be read.
    pub fn inspect(&self, uid: TagUid) -> Result<Option<LeaseRecord>, LeaseError> {
        Ok(LeaseRecord::find_in(&self.read_message(uid)?))
    }

    /// Attempts to acquire an exclusive lease on `uid` for `ttl`.
    ///
    /// # Errors
    ///
    /// * [`LeaseError::Held`] — a different device holds a valid lease.
    /// * [`LeaseError::LostRace`] — a concurrent acquirer overwrote our
    ///   lock between write and verify; retry if still wanted.
    /// * [`LeaseError::Nfc`] — the tag could not be read or written.
    pub fn acquire(&self, uid: TagUid, ttl: Duration) -> Result<Lease, LeaseError> {
        let recorder = Arc::clone(self.nfc.world().obs());
        // Acquisition is an application-visible op: inherit the caller's
        // ambient context (a listener chaining lease-after-read) or mint
        // a fresh sampled-or-not root, and hold it as the ambient scope
        // so the whole read→write→verify round — including the Phys*
        // ground truth and the Lease outcome event — is one traced hop.
        let ctx = recorder.mint_trace(self.policy.trace_sample);
        let _scope = trace::enter(ctx);
        let span = recorder.span("lease.acquire", self.device.0, self.clock.now().as_nanos());
        let result = self.acquire_inner(uid, ttl);
        span.end(self.clock.now().as_nanos());
        match &result {
            Ok(lease) => self.observe(uid, LeaseAction::Granted, Some(lease.expires_at)),
            Err(LeaseError::Held { expires_at, .. }) => {
                self.observe(uid, LeaseAction::Denied, Some(*expires_at));
            }
            Err(LeaseError::LostRace { .. }) => self.observe(uid, LeaseAction::LostRace, None),
            Err(_) => {}
        }
        result
    }

    fn acquire_inner(&self, uid: TagUid, ttl: Duration) -> Result<Lease, LeaseError> {
        let message = self.read_message(uid)?;
        let now = self.clock.now();
        if let Some(existing) = LeaseRecord::find_in(&message) {
            if existing.is_valid(now) && existing.holder != self.device {
                return Err(LeaseError::Held {
                    holder: existing.holder,
                    expires_at: existing.expires_at,
                });
            }
        }
        let lease = LeaseRecord { holder: self.device, expires_at: now + ttl };
        self.write_message(uid, &with_lease(&message, lease))?;
        // Verify: did our lock survive, or did a concurrent device win?
        let verify = self.read_message(uid)?;
        match LeaseRecord::find_in(&verify) {
            Some(found) if found.holder == self.device => {
                Ok(Lease { uid, holder: self.device, expires_at: found.expires_at })
            }
            Some(found) => Err(LeaseError::LostRace { winner: found.holder }),
            None => Err(LeaseError::Nfc(NfcOpError::Protocol("lease record vanished"))),
        }
    }

    /// Extends a held lease by `ttl` from now.
    ///
    /// # Errors
    ///
    /// [`LeaseError::NotHolder`] when the tag's lock is not ours (expired
    /// and taken, or never held); [`LeaseError::Nfc`] on I/O failure.
    pub fn renew(&self, lease: &Lease, ttl: Duration) -> Result<Lease, LeaseError> {
        let message = self.read_message(lease.uid)?;
        match LeaseRecord::find_in(&message) {
            Some(found) if found.holder == self.device => {
                let renewed =
                    LeaseRecord { holder: self.device, expires_at: self.clock.now() + ttl };
                self.write_message(lease.uid, &with_lease(&message, renewed))?;
                self.observe(lease.uid, LeaseAction::Renewed, Some(renewed.expires_at));
                Ok(Lease { uid: lease.uid, holder: self.device, expires_at: renewed.expires_at })
            }
            _ => Err(LeaseError::NotHolder),
        }
    }

    /// Releases a held lease, removing the lock record from the tag.
    ///
    /// # Errors
    ///
    /// [`LeaseError::NotHolder`] when the tag's lock is not ours;
    /// [`LeaseError::Nfc`] on I/O failure.
    pub fn release(&self, lease: &Lease) -> Result<(), LeaseError> {
        let message = self.read_message(lease.uid)?;
        match LeaseRecord::find_in(&message) {
            Some(found) if found.holder == self.device => {
                self.write_message(lease.uid, &strip_lease(&message))?;
                self.observe(lease.uid, LeaseAction::Released, None);
                Ok(())
            }
            _ => Err(LeaseError::NotHolder),
        }
    }

    /// Runs `body` while holding a lease on `uid`, releasing afterwards
    /// (even when `body` errors, on a best-effort basis).
    ///
    /// # Errors
    ///
    /// Acquisition errors, then any error of `body` itself.
    pub fn with_lease_held<R>(
        &self,
        uid: TagUid,
        ttl: Duration,
        body: impl FnOnce(&Lease) -> Result<R, LeaseError>,
    ) -> Result<R, LeaseError> {
        let lease = self.acquire(uid, ttl)?;
        let result = body(&lease);
        let _ = self.release(&lease);
        result
    }

    /// [`inspect`](LeaseManager::inspect) as a future; see
    /// [`LeaseFuture`] for the execution model.
    pub fn inspect_async(&self, uid: TagUid) -> LeaseFuture<Option<LeaseRecord>> {
        let manager = self.clone();
        LeaseFuture::new(move || manager.inspect(uid))
    }

    /// [`acquire`](LeaseManager::acquire) as a future; see
    /// [`LeaseFuture`] for the execution model.
    pub fn acquire_async(&self, uid: TagUid, ttl: Duration) -> LeaseFuture<Lease> {
        let manager = self.clone();
        LeaseFuture::new(move || manager.acquire(uid, ttl))
    }

    /// [`renew`](LeaseManager::renew) as a future; see [`LeaseFuture`]
    /// for the execution model.
    pub fn renew_async(&self, lease: &Lease, ttl: Duration) -> LeaseFuture<Lease> {
        let manager = self.clone();
        let lease = *lease;
        LeaseFuture::new(move || manager.renew(&lease, ttl))
    }

    /// [`release`](LeaseManager::release) as a future; see
    /// [`LeaseFuture`] for the execution model.
    pub fn release_async(&self, lease: &Lease) -> LeaseFuture<()> {
        let manager = self.clone();
        let lease = *lease;
        LeaseFuture::new(move || manager.release(&lease))
    }
}

/// Future form of a lease operation, completing the `async` surface
/// alongside [`ReadFuture`](crate::tagref::ReadFuture) and friends.
///
/// Lease operations are short, direct write-then-verify rounds on the
/// NFC handle — they have no retry queue to park in, so the future is
/// **eager**: the whole operation runs on the first poll and resolves
/// immediately. Creating it does nothing; dropping it unpolled means the
/// operation never runs.
pub struct LeaseFuture<T> {
    op: Option<Box<dyn FnOnce() -> Result<T, LeaseError> + Send>>,
}

impl<T> LeaseFuture<T> {
    fn new(op: impl FnOnce() -> Result<T, LeaseError> + Send + 'static) -> LeaseFuture<T> {
        LeaseFuture { op: Some(Box::new(op)) }
    }
}

impl<T> std::fmt::Debug for LeaseFuture<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeaseFuture").field("pending", &self.op.is_some()).finish()
    }
}

impl<T> Unpin for LeaseFuture<T> {}

impl<T> std::future::Future for LeaseFuture<T> {
    type Output = Result<T, LeaseError>;

    fn poll(
        self: std::pin::Pin<&mut Self>,
        _cx: &mut std::task::Context<'_>,
    ) -> std::task::Poll<Self::Output> {
        let op = self.get_mut().op.take().expect("LeaseFuture polled after completion");
        std::task::Poll::Ready(op())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morena_nfc_sim::clock::VirtualClock;
    use morena_nfc_sim::link::LinkModel;
    use morena_nfc_sim::tag::Type2Tag;
    use morena_nfc_sim::world::World;

    fn setup() -> (World, Arc<VirtualClock>, MorenaContext, MorenaContext, TagUid) {
        let clock = VirtualClock::shared();
        let world =
            World::with_link(Arc::clone(&clock) as Arc<dyn Clock>, LinkModel::instant(), 31);
        let alice = world.add_phone("alice");
        let bob = world.add_phone("bob");
        let uid = world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed(1))));
        let actx = MorenaContext::headless(&world, alice);
        let bctx = MorenaContext::headless(&world, bob);
        (world, clock, actx, bctx, uid)
    }

    #[test]
    fn record_round_trips_through_ndef() {
        let lease =
            LeaseRecord { holder: DeviceId(42), expires_at: SimInstant::from_nanos(123_456_789) };
        let record = lease.to_record();
        assert_eq!(LeaseRecord::from_record(&record), Some(lease));
        // Not a lease: other records decode to None.
        let other = NdefRecord::mime("a/b", vec![1]).unwrap();
        assert_eq!(LeaseRecord::from_record(&other), None);
        let bad_len = NdefRecord::external(LEASE_RECORD_TYPE, vec![0; 5]).unwrap();
        assert_eq!(LeaseRecord::from_record(&bad_len), None);
    }

    #[test]
    fn with_lease_and_strip_preserve_content() {
        let content = NdefMessage::single(NdefRecord::mime("a/b", b"data".to_vec()).unwrap());
        let lease = LeaseRecord { holder: DeviceId(1), expires_at: SimInstant::from_nanos(10) };
        let locked = with_lease(&content, lease);
        assert_eq!(locked.records().len(), 2);
        assert_eq!(LeaseRecord::find_in(&locked), Some(lease));
        let stripped = strip_lease(&locked);
        assert_eq!(stripped, content);
        // Re-locking replaces, not duplicates.
        let relocked = with_lease(
            &locked,
            LeaseRecord { holder: DeviceId(2), expires_at: SimInstant::from_nanos(20) },
        );
        assert_eq!(relocked.records().len(), 2);
        assert_eq!(LeaseRecord::find_in(&relocked).unwrap().holder, DeviceId(2));
    }

    #[test]
    fn acquire_grants_and_blocks_contender() {
        let (world, _clock, actx, bctx, uid) = setup();
        world.tap_tag(uid, actx.phone());
        // Keep the tag reachable from bob too: both phones share position.
        world.set_phone_position(bctx.phone(), world_position(&world, actx.phone()));

        let alice = LeaseManager::new(&actx);
        let bob = LeaseManager::new(&bctx);
        let lease = alice.acquire(uid, Duration::from_secs(10)).unwrap();
        assert_eq!(lease.holder, alice.device());

        match bob.acquire(uid, Duration::from_secs(10)) {
            Err(LeaseError::Held { holder, .. }) => assert_eq!(holder, alice.device()),
            other => panic!("expected Held, got {other:?}"),
        }
        // Alice can re-acquire (extend) her own lease.
        let again = alice.acquire(uid, Duration::from_secs(20)).unwrap();
        assert!(again.expires_at > lease.expires_at);
    }

    fn world_position(
        _world: &World,
        phone: morena_nfc_sim::world::PhoneId,
    ) -> morena_nfc_sim::geometry::Point {
        // Phones are placed at x = 1000 * (id + 1).
        morena_nfc_sim::geometry::Point::new(1000.0 * (phone.as_u64() as f64 + 1.0), 0.0)
    }

    #[test]
    fn expired_lease_can_be_taken_over() {
        let (world, clock, actx, bctx, uid) = setup();
        world.tap_tag(uid, actx.phone());
        world.set_phone_position(bctx.phone(), world_position(&world, actx.phone()));

        let alice = LeaseManager::new(&actx);
        let bob = LeaseManager::new(&bctx);
        alice.acquire(uid, Duration::from_secs(5)).unwrap();
        clock.advance(Duration::from_secs(6));
        let lease = bob.acquire(uid, Duration::from_secs(5)).unwrap();
        assert_eq!(lease.holder, bob.device());
    }

    #[test]
    fn release_frees_the_tag_and_requires_holding() {
        let (world, _clock, actx, bctx, uid) = setup();
        world.tap_tag(uid, actx.phone());
        world.set_phone_position(bctx.phone(), world_position(&world, actx.phone()));

        let alice = LeaseManager::new(&actx);
        let bob = LeaseManager::new(&bctx);
        let lease = alice.acquire(uid, Duration::from_secs(100)).unwrap();
        assert!(matches!(bob.release(&lease), Err(LeaseError::NotHolder)));
        alice.release(&lease).unwrap();
        assert_eq!(alice.inspect(uid).unwrap(), None);
        let lease = bob.acquire(uid, Duration::from_secs(1)).unwrap();
        assert_eq!(lease.holder, bob.device());
    }

    #[test]
    fn renew_extends_only_for_holder() {
        let (world, clock, actx, bctx, uid) = setup();
        world.tap_tag(uid, actx.phone());
        world.set_phone_position(bctx.phone(), world_position(&world, actx.phone()));

        let alice = LeaseManager::new(&actx);
        let bob = LeaseManager::new(&bctx);
        let lease = alice.acquire(uid, Duration::from_secs(5)).unwrap();
        let renewed = alice.renew(&lease, Duration::from_secs(50)).unwrap();
        assert!(renewed.expires_at > lease.expires_at);
        assert!(matches!(bob.renew(&renewed, Duration::from_secs(1)), Err(LeaseError::NotHolder)));
        // After expiry, renewing fails even for the original holder once
        // someone else takes over.
        clock.advance(Duration::from_secs(60));
        bob.acquire(uid, Duration::from_secs(5)).unwrap();
        assert!(matches!(
            alice.renew(&renewed, Duration::from_secs(1)),
            Err(LeaseError::NotHolder)
        ));
    }

    #[test]
    fn lease_preserves_application_content() {
        let (world, _clock, actx, _bctx, uid) = setup();
        world.tap_tag(uid, actx.phone());
        let content = NdefMessage::single(NdefRecord::mime("a/b", b"keep me".to_vec()).unwrap());
        actx.nfc().ndef_write(uid, &content.to_bytes()).unwrap();

        let alice = LeaseManager::new(&actx);
        let lease = alice.acquire(uid, Duration::from_secs(5)).unwrap();
        let bytes = actx.nfc().ndef_read(uid).unwrap();
        let on_tag = NdefMessage::parse(&bytes).unwrap();
        assert_eq!(on_tag.records().len(), 2);
        assert_eq!(strip_lease(&on_tag), content);

        alice.release(&lease).unwrap();
        let bytes = actx.nfc().ndef_read(uid).unwrap();
        assert_eq!(NdefMessage::parse(&bytes).unwrap(), content);
    }

    #[test]
    fn with_lease_held_releases_after_body() {
        let (world, _clock, actx, _bctx, uid) = setup();
        world.tap_tag(uid, actx.phone());
        let alice = LeaseManager::new(&actx);
        let out = alice
            .with_lease_held(uid, Duration::from_secs(5), |lease| {
                assert_eq!(lease.holder, alice.device());
                Ok(7)
            })
            .unwrap();
        assert_eq!(out, 7);
        assert_eq!(alice.inspect(uid).unwrap(), None);
    }

    #[test]
    fn torn_tag_content_reads_as_unleased_and_is_repaired_by_acquire() {
        let (world, _clock, actx, _bctx, uid) = setup();
        world.tap_tag(uid, actx.phone());
        // Corrupt the tag the way a torn write does: raw garbage bytes.
        actx.nfc().ndef_write(uid, &[0xFF, 0x13, 0x37]).unwrap();
        let alice = LeaseManager::new(&actx);
        assert_eq!(alice.inspect(uid).unwrap(), None, "garbage is not a lease");
        // Acquire repairs the tag: afterwards it parses cleanly again.
        let lease = alice.acquire(uid, Duration::from_secs(5)).unwrap();
        let bytes = actx.nfc().ndef_read(uid).unwrap();
        assert!(NdefMessage::parse(&bytes).is_ok(), "acquire repaired the torn tag");
        alice.release(&lease).unwrap();
        let bytes = actx.nfc().ndef_read(uid).unwrap();
        assert!(NdefMessage::parse(&bytes).unwrap().is_blank());
    }

    #[test]
    fn out_of_range_tag_yields_nfc_error() {
        let (_world, _clock, actx, _bctx, uid) = setup();
        let alice = LeaseManager::new(&actx);
        assert!(matches!(alice.acquire(uid, Duration::from_secs(1)), Err(LeaseError::Nfc(_))));
    }

    #[test]
    fn error_displays_are_nonempty() {
        for e in [
            LeaseError::Held { holder: DeviceId(1), expires_at: SimInstant::EPOCH },
            LeaseError::LostRace { winner: DeviceId(2) },
            LeaseError::NotHolder,
            LeaseError::Nfc(NfcOpError::NotNdef),
        ] {
            assert!(!e.to_string().is_empty());
        }
        assert_eq!(DeviceId(3).to_string(), "device-3");
    }
}
