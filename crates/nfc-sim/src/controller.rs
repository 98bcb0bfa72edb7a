//! The per-phone NFC controller handle: the facade a phone's software
//! stack (the Android layer, the MORENA middleware, or a handcrafted app)
//! uses to talk to its own NFC chip.
//!
//! [`NfcHandle`] bundles a [`World`] with a [`PhoneId`] and exposes
//! events, raw transceive, the NDEF procedures of [`crate::proto`], and
//! beam push.
//!
//! Radio operations have one driver, which never waits:
//! [`NfcHandle::resume_ndef`] and [`NfcHandle::resume_beam`] run as far
//! as the radio allows and return [`Resume::WaitUntil`] while an exchange
//! is on the air or a stalled tag holds its response back. A [`Session`]
//! keeps everything the operation needs to go on: the NDEF step machine,
//! the exchange on the air, the held-back response. Calling again with
//! the same session picks up where it stopped; nothing is re-run. The
//! blocking forms ([`NfcHandle::ndef_read`], [`NfcHandle::beam`], …) are
//! that driver with the calling thread sleeping on the world clock
//! through each wait, as the raw Android API blocks.
//!
//! # Detection once per presence
//!
//! Like Android's NFC service, the phone's stack detects a tag's NDEF
//! once while the tag is in its field: the world keeps, per phone, one
//! [`Detection`](crate::proto::Detection) per tag in the field, and every
//! NDEF procedure starts from it (see [`crate::proto`] for which ones
//! skip the capability container). A detection is remembered only from a
//! procedure that read the capability container itself and succeeded.
//! It is dropped when the tag leaves the phone's field, when the tag is
//! taken out of the world, and on [`World::with_tag`], which can change
//! the tag behind the radio's back; a procedure that began before such a
//! drop remembers nothing.
//!
//! The re-detect rule keeps every NDEF error decided by a fresh read of
//! the capability container, as it was when every procedure read it: a
//! procedure that started from a remembered detection and ends in an
//! NDEF error (read-only, capacity, not NDEF, protocol) drops the
//! detection and runs once more, in the same call, from a fresh read; its
//! result is the one returned. That covers a tag locked by another phone
//! while it stays in this phone's field, and a corrupted capability
//! container that was remembered. Link errors keep the detection: the
//! tag is either still there or its departure drops it.

use std::sync::mpsc::Receiver;
use std::sync::Arc;

use crate::clock::SimInstant;
use crate::error::{LinkError, NfcOpError};
use crate::proto::{NdefOp, NdefTagInfo, Outcome, Procedure};
use crate::tag::{TagTech, TagUid};
use crate::world::{InFlight, NfcEvent, PhoneId, World};

/// A phone's handle to its own NFC controller. Cheap to clone.
///
/// # Examples
///
/// ```
/// use morena_nfc_sim::clock::VirtualClock;
/// use morena_nfc_sim::controller::NfcHandle;
/// use morena_nfc_sim::link::LinkModel;
/// use morena_nfc_sim::tag::{TagUid, Type2Tag};
/// use morena_nfc_sim::world::World;
///
/// # fn main() -> Result<(), morena_nfc_sim::error::NfcOpError> {
/// let world = World::with_link(VirtualClock::shared(), LinkModel::instant(), 0);
/// let phone = world.add_phone("alice");
/// let uid = world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed(1))));
/// world.tap_tag(uid, phone);
///
/// let nfc = NfcHandle::new(world, phone);
/// nfc.ndef_write(uid, b"stored over the air")?;
/// assert_eq!(nfc.ndef_read(uid)?, b"stored over the air");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NfcHandle {
    world: World,
    phone: PhoneId,
}

impl NfcHandle {
    /// Creates a handle for `phone` in `world`.
    pub fn new(world: World, phone: PhoneId) -> NfcHandle {
        NfcHandle { world, phone }
    }

    /// The phone this handle belongs to.
    pub fn phone(&self) -> PhoneId {
        self.phone
    }

    /// The underlying world (for scenario orchestration and clock access).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Subscribes to this phone's NFC event feed.
    pub fn events(&self) -> Receiver<NfcEvent> {
        self.world.subscribe(self.phone)
    }

    /// Tags currently in this phone's field.
    pub fn tags_in_range(&self) -> Vec<(TagUid, TagTech)> {
        self.world.tags_in_range(self.phone)
    }

    /// Whether a specific tag is currently in the field.
    pub fn tag_in_range(&self, uid: TagUid) -> bool {
        self.world.tag_in_range(self.phone, uid)
    }

    /// Peer phones currently in beam range.
    pub fn peers_in_range(&self) -> Vec<PhoneId> {
        self.world.peers_in_range(self.phone)
    }

    /// Whether a specific peer phone is currently in beam range.
    pub fn peer_in_range(&self, peer: PhoneId) -> bool {
        self.world.peer_in_range(self.phone, peer)
    }

    /// Whether any peer phone is currently in beam range.
    pub fn any_peer_in_range(&self) -> bool {
        self.world.any_peer_in_range(self.phone)
    }

    /// One raw command/response exchange with a tag, blocking for its
    /// air time and for any stall or spike dwell. The exchange may fail
    /// probabilistically; if the tag leaves the field while it is on the
    /// air, the command is lost ([`LinkError::FieldLost`]) even though
    /// earlier commands may already have changed the tag — this is how
    /// torn writes arise.
    ///
    /// # Errors
    ///
    /// [`LinkError`] on radio-level failure.
    pub fn transceive(&self, uid: TagUid, command: &[u8]) -> Result<Vec<u8>, LinkError> {
        let mut air = Air::default();
        self.block(|| self.exchange(uid, command, &mut air))
    }

    /// Runs NDEF detection against a tag in the field.
    ///
    /// # Errors
    ///
    /// See [`crate::proto::detect`]; additionally
    /// [`LinkError::OutOfRange`] when the tag is not in the field at all.
    pub fn ndef_detect(&self, uid: TagUid) -> Result<NdefTagInfo, NfcOpError> {
        match self.ndef(uid, NdefOp::Detect)? {
            Outcome::Info(info) => Ok(info),
            _ => unreachable!("detection ends with the tag's info"),
        }
    }

    /// Reads the complete NDEF message bytes from a tag in the field.
    /// This is a **blocking, fallible** operation — exactly what the raw
    /// Android API exposes and what MORENA wraps asynchronously.
    ///
    /// # Errors
    ///
    /// See [`crate::proto::read_ndef`].
    pub fn ndef_read(&self, uid: TagUid) -> Result<Vec<u8>, NfcOpError> {
        match self.ndef(uid, NdefOp::Read)? {
            Outcome::Bytes(bytes) => Ok(bytes),
            _ => unreachable!("a read ends with the message"),
        }
    }

    /// Writes NDEF message bytes to a tag in the field (blocking,
    /// fallible; a mid-operation field loss leaves a torn tag).
    ///
    /// # Errors
    ///
    /// See [`crate::proto::write_ndef`].
    pub fn ndef_write(&self, uid: TagUid, message: &[u8]) -> Result<(), NfcOpError> {
        self.ndef(uid, NdefOp::Write(message.into())).map(drop)
    }

    /// Permanently write-protects a tag in the field (blocking), the
    /// analog of `Ndef.makeReadOnly()`.
    ///
    /// # Errors
    ///
    /// See [`crate::proto::make_read_only`].
    pub fn ndef_make_read_only(&self, uid: TagUid) -> Result<(), NfcOpError> {
        self.ndef(uid, NdefOp::MakeReadOnly).map(drop)
    }

    /// The blocking form of [`NfcHandle::resume_ndef`].
    fn ndef(&self, uid: TagUid, op: NdefOp<Arc<[u8]>>) -> Result<Outcome, NfcOpError> {
        let mut session = Session::default();
        session.start(op);
        self.block(|| self.resume_ndef(uid, &mut session))
    }

    /// Runs `session`'s NDEF procedure against `uid` as far as the radio
    /// allows without waiting. A procedure that has not started first
    /// checks that the tag is in the field, and starts from this phone's
    /// remembered [`Detection`](crate::proto::Detection) of it, if any; no
    /// exchange is made when the tag is not in the field. Once it is
    /// ready, the session holds no procedure until [`Session::start`] sets
    /// the next one.
    ///
    /// An exchange with no air time and no dwell lands inline, so on an
    /// instant link the procedure ends in one call.
    ///
    /// # Errors
    ///
    /// The procedure's own (see [`crate::proto`]);
    /// [`LinkError::OutOfRange`] when the tag is not in the field at the
    /// start. An NDEF error is always decided by a fresh read of the
    /// capability container (see the [module docs](self)).
    ///
    /// # Panics
    ///
    /// When `session` holds no procedure.
    pub fn resume_ndef(
        &self,
        uid: TagUid,
        session: &mut Session,
    ) -> Resume<Result<Outcome, NfcOpError>> {
        if let Some(op) = session.op.take() {
            match self.world.detection_in_range(self.phone, uid) {
                Some((tech, remembered)) => {
                    session.procedure = Some(Procedure::new(op, tech, remembered))
                }
                None => return Resume::Ready(Err(NfcOpError::Link(LinkError::OutOfRange))),
            }
        }
        let procedure = session.procedure.as_mut().expect("a session resumes a procedure");
        loop {
            let response = match self.exchange(uid, procedure.command(), &mut session.air) {
                Resume::Ready(response) => response,
                Resume::WaitUntil(at) => return Resume::WaitUntil(at),
            };
            let Some(result) = procedure.feed(response.as_deref()) else { continue };
            match &result {
                // The re-detect rule (see the module docs).
                Err(e) if procedure.remembered() && !matches!(e, NfcOpError::Link(_)) => {
                    self.world.set_detection(self.phone, uid, None);
                    procedure.redetect();
                    continue;
                }
                Ok(_) if procedure.detection().is_some() => {
                    self.world.set_detection(self.phone, uid, procedure.detection());
                }
                _ => {}
            }
            session.procedure = None;
            return Resume::Ready(result);
        }
    }

    /// Pushes raw NDEF bytes to whatever peer phones are in range
    /// (blocking for the air time). NFC push is undirected. Returns how
    /// many peers received it.
    ///
    /// # Errors
    ///
    /// * [`LinkError::NoPeerInRange`] — nobody to push to.
    /// * [`LinkError::FieldLost`] — the peers moved away mid-transfer.
    /// * [`LinkError::TransmissionError`] — noise corrupted the push.
    pub fn beam(&self, bytes: &[u8]) -> Result<usize, LinkError> {
        let mut session = Session::default();
        self.block(|| self.resume_beam(&mut session, None, bytes))
    }

    /// Pushes raw NDEF bytes to one specific peer (blocking), modelling
    /// the connection-oriented (LLCP-style) transport real NFC P2P stacks
    /// run on top of the broadcast radio.
    ///
    /// # Errors
    ///
    /// * [`LinkError::UnknownDevice`] — either phone does not exist.
    /// * [`LinkError::OutOfRange`] — `to` is not in beam range.
    /// * [`LinkError::FieldLost`] — `to` moved away mid-transfer.
    /// * [`LinkError::TransmissionError`] — noise corrupted the push.
    pub fn beam_to(&self, to: PhoneId, bytes: &[u8]) -> Result<(), LinkError> {
        let mut session = Session::default();
        self.block(|| self.resume_beam(&mut session, Some(to), bytes)).map(drop)
    }

    /// [`NfcHandle::beam_to`] `to` a peer, or [`NfcHandle::beam`] with no
    /// `to`, without waiting: begins the push, or finishes the one
    /// `session` has on the air once its air time is over. Returns how
    /// many peers received it.
    ///
    /// # Errors
    ///
    /// See [`NfcHandle::beam`] and [`NfcHandle::beam_to`].
    pub fn resume_beam(
        &self,
        session: &mut Session,
        to: Option<PhoneId>,
        bytes: &[u8],
    ) -> Resume<Result<usize, LinkError>> {
        let world = &self.world;
        session
            .air
            .land(world, || world.begin_beam(self.phone, to, bytes))
            .map(|flight| flight.and_then(|flight| world.finish_beam(self.phone, bytes, flight)))
    }

    /// One exchange of `command` with `uid` without waiting: begins it,
    /// finishes the one `air` has on the air once its air time is over,
    /// and serves a response a stalled or spiking tag held back once the
    /// dwell is over.
    fn exchange(
        &self,
        uid: TagUid,
        command: &[u8],
        air: &mut Air,
    ) -> Resume<Result<Vec<u8>, LinkError>> {
        let clock = self.world.clock();
        if let Some((_, at)) = air.held {
            if clock.now() < at {
                return Resume::WaitUntil(at);
            }
            return Resume::Ready(air.held.take().expect("checked").0);
        }
        let world = &self.world;
        let flight = match air.land(world, || world.begin_transceive(self.phone, uid, command)) {
            Resume::Ready(Ok(flight)) => flight,
            Resume::Ready(Err(e)) => return Resume::Ready(Err(e)),
            Resume::WaitUntil(at) => return Resume::WaitUntil(at),
        };
        let (response, dwell) = world.finish_transceive(self.phone, uid, command, flight);
        if dwell.is_zero() {
            return Resume::Ready(response);
        }
        let at = clock.now() + dwell;
        air.held = Some((response, at));
        Resume::WaitUntil(at)
    }

    /// The blocking driver: runs `step` until it is ready, sleeping on
    /// the world clock through each wait.
    fn block<T>(&self, mut step: impl FnMut() -> Resume<T>) -> T {
        let clock = self.world.clock();
        loop {
            match step() {
                Resume::Ready(out) => return out,
                Resume::WaitUntil(at) => clock.sleep(at.saturating_since(clock.now())),
            }
        }
    }
}

/// How far a resumable radio operation got.
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use = "a waiting operation must be resumed"]
pub enum Resume<T> {
    /// It ended with this result.
    Ready(T),
    /// It waits on the air: resume it with the same [`Session`] at or
    /// after this instant.
    WaitUntil(SimInstant),
}

impl<T> Resume<T> {
    /// Maps a ready result, keeping a wait as it is.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Resume<U> {
        match self {
            Resume::Ready(out) => Resume::Ready(f(out)),
            Resume::WaitUntil(at) => Resume::WaitUntil(at),
        }
    }
}

/// The state of one resumable radio operation between calls: the NDEF
/// procedure it runs (for tag operations), the exchange it has on the
/// air, and a response a stalled or spiking tag holds back.
///
/// A fresh session holds nothing and allocates nothing. Dropping a
/// session drops its exchange on the air, which then never reaches the
/// tag or peer.
#[derive(Debug, Default)]
pub struct Session {
    /// The procedure to start once the tag is found in the field.
    op: Option<NdefOp<Arc<[u8]>>>,
    procedure: Option<Procedure<Arc<[u8]>>>,
    air: Air,
}

impl Session {
    /// Sets the NDEF procedure the next [`NfcHandle::resume_ndef`] runs,
    /// dropping whatever the session had on the air.
    pub fn start(&mut self, op: NdefOp<Arc<[u8]>>) {
        *self = Session { op: Some(op), ..Session::default() };
    }

    /// Whether the session holds a procedure that has not ended.
    pub fn is_running(&self) -> bool {
        self.op.is_some() || self.procedure.is_some()
    }
}

/// A session's radio side.
#[derive(Debug, Default)]
struct Air {
    /// The exchange on the air: begun, not yet finished.
    flight: Option<InFlight>,
    /// A landed response held back for a dwell, and when it is served.
    held: Option<(Result<Vec<u8>, LinkError>, SimInstant)>,
}

impl Air {
    /// The exchange to finish now: the one on the air, or a new one from
    /// `begin`. While its air time runs, keeps it and waits.
    fn land(
        &mut self,
        world: &World,
        begin: impl FnOnce() -> Result<InFlight, LinkError>,
    ) -> Resume<Result<InFlight, LinkError>> {
        let flight = match self.flight.take() {
            Some(flight) => flight,
            None => match begin() {
                Ok(flight) => flight,
                Err(e) => return Resume::Ready(Err(e)),
            },
        };
        if world.clock().now() < flight.done_at() {
            let at = flight.done_at();
            self.flight = Some(flight);
            return Resume::WaitUntil(at);
        }
        Resume::Ready(Ok(flight))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use super::*;
    use crate::clock::{Clock, VirtualClock};
    use crate::error::TagError;
    use crate::faults::{FaultKind, FaultPlan, FaultRates};
    use crate::link::LinkModel;
    use crate::proto::{self, Transceive};
    use crate::tag::{TagEmulator, Type2Tag, Type4Tag};

    fn setup() -> (World, NfcHandle, TagUid) {
        let world = World::with_link(VirtualClock::shared(), LinkModel::instant(), 3);
        let phone = world.add_phone("alice");
        let uid = world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed(1))));
        let handle = NfcHandle::new(world.clone(), phone);
        (world, handle, uid)
    }

    #[test]
    fn ndef_ops_round_trip_over_the_air() {
        let (world, nfc, uid) = setup();
        world.tap_tag(uid, nfc.phone());
        nfc.ndef_write(uid, b"payload").unwrap();
        assert_eq!(nfc.ndef_read(uid).unwrap(), b"payload");
        let info = nfc.ndef_detect(uid).unwrap();
        assert_eq!(info.tech, TagTech::Type2);
        assert!(info.writable);
    }

    #[test]
    fn out_of_range_tag_is_rejected_before_any_exchange() {
        let (_world, nfc, uid) = setup();
        assert_eq!(nfc.ndef_read(uid).unwrap_err(), NfcOpError::Link(LinkError::OutOfRange));
    }

    #[test]
    fn tags_elsewhere_or_gone_are_rejected_before_any_exchange() {
        let (world, nfc, uid) = setup();
        let out_of_range = NfcOpError::Link(LinkError::OutOfRange);
        // In the field of another phone, far from this one.
        let bob = world.add_phone("bob");
        world.tap_tag(uid, bob);
        assert!(world.tag_in_range(bob, uid));
        let exchanges = world.radio_stats().exchanges;
        assert_eq!(nfc.ndef_read(uid).unwrap_err(), out_of_range);
        assert_eq!(nfc.ndef_write(uid, b"x").unwrap_err(), out_of_range);
        assert_eq!(nfc.ndef_detect(uid).unwrap_err(), out_of_range);
        assert_eq!(world.radio_stats().exchanges, exchanges);
        // Taken out of the world while in this phone's field.
        world.tap_tag(uid, nfc.phone());
        assert_eq!(world.tag_tech_in_range(nfc.phone(), uid), Some(TagTech::Type2));
        assert!(world.take_tag(uid).is_some());
        let exchanges = world.radio_stats().exchanges;
        assert_eq!(world.tag_tech_in_range(nfc.phone(), uid), None);
        assert_eq!(nfc.ndef_read(uid).unwrap_err(), out_of_range);
        assert_eq!(nfc.ndef_make_read_only(uid).unwrap_err(), out_of_range);
        assert_eq!(world.radio_stats().exchanges, exchanges);
    }

    #[test]
    fn peer_lookup_sees_only_this_phones_neighbours() {
        let (world, alice, _uid) = setup();
        let bob = world.add_phone("bob");
        let carol = world.add_phone("carol");
        world.bring_phones_together(carol, bob);
        let carol = NfcHandle::new(world.clone(), carol);
        // Bob is next to carol, not to alice; nobody is their own peer.
        assert!(carol.peer_in_range(bob));
        assert!(!alice.peer_in_range(bob));
        assert!(!alice.any_peer_in_range());
        assert!(!carol.peer_in_range(carol.phone()));
        assert!(!alice.peer_in_range(PhoneId::from_u64(99)));
        let stats = world.radio_stats();
        assert_eq!(alice.beam_to(bob, b"x").unwrap_err(), LinkError::OutOfRange);
        assert_eq!(world.radio_stats().beams_delivered, stats.beams_delivered);
        // Each lookup agrees with the sorted peer list.
        for nfc in [&alice, &carol] {
            for peer in [alice.phone(), bob, carol.phone()] {
                assert_eq!(nfc.peer_in_range(peer), nfc.peers_in_range().contains(&peer));
            }
            assert_eq!(nfc.any_peer_in_range(), !nfc.peers_in_range().is_empty());
        }
    }

    #[test]
    fn type4_tags_work_through_the_handle() {
        let (world, nfc, _t2) = setup();
        let uid = world.add_tag(Box::new(Type4Tag::new(TagUid::from_seed(2), 512)));
        world.tap_tag(uid, nfc.phone());
        nfc.ndef_write(uid, &vec![0xEE; 300]).unwrap();
        assert_eq!(nfc.ndef_read(uid).unwrap(), vec![0xEE; 300]);
    }

    #[test]
    fn events_flow_through_the_handle() {
        let (world, nfc, uid) = setup();
        let rx = nfc.events();
        world.tap_tag(uid, nfc.phone());
        assert!(matches!(rx.try_recv().unwrap(), NfcEvent::TagEntered { .. }));
        assert_eq!(nfc.tags_in_range().len(), 1);
        assert!(nfc.tag_in_range(uid));
    }

    /// A tag that logs every command reaching it.
    #[derive(Debug)]
    struct Logged {
        tag: Box<dyn TagEmulator>,
        log: Arc<Mutex<Vec<Vec<u8>>>>,
    }

    impl TagEmulator for Logged {
        fn uid(&self) -> TagUid {
            self.tag.uid()
        }
        fn tech(&self) -> TagTech {
            self.tag.tech()
        }
        fn transceive(&mut self, command: &[u8]) -> Result<Vec<u8>, TagError> {
            self.log.lock().unwrap().push(command.to_vec());
            self.tag.transceive(command)
        }
        fn on_field_lost(&mut self) {
            self.tag.on_field_lost();
        }
        fn ndef_capacity(&self) -> usize {
            self.tag.ndef_capacity()
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self.tag.as_any_mut()
        }
    }

    /// An NTAG215 or a 1 KiB Type 4 tag holding `stored` (left blank
    /// when it does not fit).
    fn stocked(type4: bool, stored: &[u8]) -> Box<dyn TagEmulator> {
        let mut tag: Box<dyn TagEmulator> = if type4 {
            Box::new(Type4Tag::new(TagUid::from_seed(2), 1024))
        } else {
            Box::new(Type2Tag::ntag215(TagUid::from_seed(1)))
        };
        let tech = tag.tech();
        let _ = proto::write_ndef(&mut proto::DirectLink::new(&mut *tag), tech, stored);
        tag
    }

    fn ndef_op(op: usize, message: &[u8]) -> NdefOp<Arc<[u8]>> {
        match op {
            0 => NdefOp::Detect,
            1 => NdefOp::Read,
            2 => NdefOp::Write(message.into()),
            _ => NdefOp::MakeReadOnly,
        }
    }

    /// Runs `session`'s procedure to its end on a manual clock,
    /// stepping the clock to each wake.
    fn resume_to_end(
        nfc: &NfcHandle,
        clock: &VirtualClock,
        uid: TagUid,
        session: &mut Session,
    ) -> Result<Outcome, NfcOpError> {
        loop {
            match nfc.resume_ndef(uid, session) {
                Resume::Ready(result) => return result,
                Resume::WaitUntil(at) => clock.advance(at.saturating_since(clock.now())),
            }
        }
    }

    /// Runs `procedure` to its end over `link`, from a fresh detection
    /// once more if it started from a remembered one and ended in an NDEF
    /// error: the controller's rule, on a synchronous link.
    fn drive(
        link: &mut impl Transceive,
        mut procedure: Procedure<Arc<[u8]>>,
    ) -> (Result<Outcome, NfcOpError>, Procedure<Arc<[u8]>>) {
        loop {
            let response = link.transceive(procedure.command());
            match procedure.feed(response.as_deref()) {
                Some(Err(e)) if procedure.remembered() && !matches!(e, NfcOpError::Link(_)) => {
                    procedure.redetect()
                }
                Some(result) => return (result, procedure),
                None => {}
            }
        }
    }

    #[test]
    fn resumed_procedures_send_what_proto_sends() {
        struct Recording<'a>(proto::DirectLink<'a>, Vec<Vec<u8>>);
        impl Transceive for Recording<'_> {
            fn transceive(&mut self, command: &[u8]) -> Result<Vec<u8>, LinkError> {
                self.1.push(command.to_vec());
                self.0.transceive(command)
            }
        }

        morena_obs::check::check(
            "resumed_procedures_send_what_proto_sends",
            96,
            |rng| {
                let type4 = rng.random_bool(0.5);
                let remembered = rng.random_bool(0.5);
                let op = morena_obs::check::size(rng, 0..4);
                let stored = morena_obs::check::bytes(rng, 0..701);
                (type4, remembered, op, stored, morena_obs::check::bytes(rng, 0..701))
            },
            |(type4, remembered, op, stored, message)| {
                // The synchronous driver over a direct link, after a
                // detection when the phone remembers one.
                let mut tag = stocked(type4, &stored);
                let tech = tag.tech();
                let mut link = Recording(proto::DirectLink::new(&mut *tag), Vec::new());
                let expected = if remembered {
                    let (_, detect) = drive(&mut link, Procedure::new(NdefOp::Detect, tech, None));
                    link.1.clear();
                    let procedure = Procedure::new(ndef_op(op, &message), tech, detect.detection());
                    drive(&mut link, procedure).0
                } else {
                    match op {
                        0 => proto::detect(&mut link, tech).map(Outcome::Info),
                        1 => proto::read_ndef(&mut link, tech).map(Outcome::Bytes),
                        2 => proto::write_ndef(&mut link, tech, &message).map(|()| Outcome::Done),
                        _ => proto::make_read_only(&mut link, tech).map(|()| Outcome::Done),
                    }
                };
                let sent = link.1;

                // The resumable driver over a link with air time.
                let clock = Arc::new(VirtualClock::with_auto_advance(false));
                let world = World::with_link(clock.clone(), LinkModel::reliable(), 3);
                let phone = world.add_phone("alice");
                let log = Arc::new(Mutex::new(Vec::new()));
                let uid = world.add_tag(Box::new(Logged {
                    tag: stocked(type4, &stored),
                    log: Arc::clone(&log),
                }));
                world.tap_tag(uid, phone);
                let nfc = NfcHandle::new(world.clone(), phone);
                let mut session = Session::default();
                if remembered {
                    session.start(NdefOp::Detect);
                    assert!(resume_to_end(&nfc, &clock, uid, &mut session).is_ok());
                    log.lock().unwrap().clear();
                }
                let exchanges = world.radio_stats().exchanges;
                session.start(ndef_op(op, &message));
                let result = resume_to_end(&nfc, &clock, uid, &mut session);

                assert_eq!(result, expected);
                assert!(!session.is_running());
                assert_eq!(*log.lock().unwrap(), sent);
                // Each command reached the tag once.
                assert_eq!(world.radio_stats().exchanges - exchanges, sent.len() as u64);
            },
        );
    }

    #[test]
    fn blocking_and_resumed_drivers_draw_the_same_fault_schedule() {
        let rates = FaultRates {
            rf_drop: 0.04,
            torn_write: 0.04,
            corruption: 0.04,
            stuck_tag: 0.04,
            latency_spike: 0.04,
        };
        let twin = |clock: Arc<VirtualClock>| {
            let world = World::with_link(clock, LinkModel::realistic(), 11);
            world.install_fault_plan(FaultPlan::new(5, rates));
            let phone = world.add_phone("alice");
            let uid = world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed(1))));
            world.tap_tag(uid, phone);
            (NfcHandle::new(world, phone), uid)
        };
        let (blocking, uid) = twin(Arc::new(VirtualClock::new()));
        let clock = Arc::new(VirtualClock::with_auto_advance(false));
        let (resumed, _) = twin(Arc::clone(&clock));

        let mut results = (Vec::new(), Vec::new());
        for i in 0..60usize {
            let message = vec![i as u8; 20 + 7 * i];
            results.0.push(blocking.ndef_write(uid, &message).map(|()| Outcome::Done));
            results.0.push(blocking.ndef_read(uid).map(Outcome::Bytes));
            let mut session = Session::default();
            session.start(NdefOp::Write(message.into()));
            results.1.push(resume_to_end(&resumed, &clock, uid, &mut session));
            session.start(NdefOp::Read);
            results.1.push(resume_to_end(&resumed, &clock, uid, &mut session));
        }

        let (a, b) = (blocking.world(), resumed.world());
        let faults = a.fault_stats();
        for kind in FaultKind::ALL {
            assert!(faults.count(kind) > 0, "{kind:?} never fired");
        }
        assert_eq!(faults, b.fault_stats());
        assert_eq!(a.radio_stats(), b.radio_stats());
        assert_eq!(results.0, results.1);
        let memory = |world: &World| {
            world.with_tag(uid, |tag| {
                (0..=129u8)
                    .step_by(4)
                    .flat_map(|page| tag.transceive(&[0x30, page]).unwrap())
                    .collect::<Vec<u8>>()
            })
        };
        assert_eq!(memory(a), memory(b));
        assert_eq!(a.clock().now(), b.clock().now());
    }

    /// A phone with a logged NTAG215 or 512-byte Type 4 tag holding
    /// "before" in its field, on an instant link, and how many times the
    /// tag's capability container has been read so far.
    fn presence(type4: bool) -> (NfcHandle, TagUid, impl Fn() -> usize) {
        let world = World::with_link(VirtualClock::shared(), LinkModel::instant(), 3);
        let phone = world.add_phone("alice");
        let log = Arc::new(Mutex::new(Vec::<Vec<u8>>::new()));
        let mut tag: Box<dyn TagEmulator> = if type4 {
            Box::new(Type4Tag::new(TagUid::from_seed(2), 512))
        } else {
            Box::new(Type2Tag::ntag215(TagUid::from_seed(1)))
        };
        let tech = tag.tech();
        proto::write_ndef(&mut proto::DirectLink::new(&mut *tag), tech, b"before").unwrap();
        let uid = world.add_tag(Box::new(Logged { tag, log: Arc::clone(&log) }));
        world.tap_tag(uid, phone);
        let cc_reads = move || {
            let cc: &[u8] = match type4 {
                true => &[0x00, 0xA4, 0x00, 0x0C, 0x02, 0xE1, 0x03],
                false => &[0x30, 3],
            };
            log.lock().unwrap().iter().filter(|command| command[..] == *cc).count()
        };
        (NfcHandle::new(world, phone), uid, cc_reads)
    }

    #[test]
    fn a_presence_is_detected_once() {
        for type4 in [false, true] {
            let (nfc, uid, cc_reads) = presence(type4);
            let world = nfc.world().clone();
            assert_eq!(nfc.ndef_read(uid).unwrap(), b"before");
            nfc.ndef_write(uid, b"after").unwrap();
            assert_eq!(nfc.ndef_read(uid).unwrap(), b"after");
            assert_eq!(cc_reads(), 1, "one detection per presence");
            // Detection and locking read the container afresh.
            assert!(nfc.ndef_detect(uid).unwrap().writable);
            assert_eq!(cc_reads(), 2);

            // A new presence is detected again, whether the tag or the
            // phone moved.
            world.remove_tag_from_field(uid);
            world.tap_tag(uid, nfc.phone());
            assert_eq!(nfc.ndef_read(uid).unwrap(), b"after");
            world.separate_phone(nfc.phone());
            world.tap_tag(uid, nfc.phone());
            assert_eq!(nfc.ndef_read(uid).unwrap(), b"after");
            assert_eq!(cc_reads(), 4);
            // So is a tag handled behind the radio's back.
            world.with_tag(uid, |_| ());
            nfc.ndef_write(uid, b"again").unwrap();
            nfc.ndef_write(uid, b"once more").unwrap();
            assert_eq!(cc_reads(), 5);
        }
    }

    #[test]
    fn a_tag_changed_mid_presence_fails_as_a_fresh_detection_decides() {
        #[derive(Debug, Clone, Copy)]
        enum Change {
            LockedBehindTheRadio,
            LockedByAnotherPhone,
            UnformattedBehindTheRadio,
        }
        /// Changes the tag in alice's field, with or without alice
        /// having read it first, then has alice write it. Returns the
        /// write's result, the tag's memory, and alice's CC reads.
        fn run(type4: bool, read_first: bool, change: Change) -> (NfcOpError, Vec<u8>, usize) {
            let (alice, uid, cc_reads) = presence(type4);
            let world = alice.world().clone();
            let bob = NfcHandle::new(world.clone(), world.add_phone("bob"));
            world.bring_phones_together(alice.phone(), bob.phone());
            if read_first {
                assert_eq!(alice.ndef_read(uid).unwrap(), b"before");
            }
            let reads_before = cc_reads();
            let change_tag = |tag: &mut dyn Any| match (tag.downcast_mut(), change) {
                (Some(t2), Change::LockedBehindTheRadio) => Type2Tag::set_read_only(t2, true),
                (Some(t2), _) => Type2Tag::unformat(t2),
                (None, Change::LockedBehindTheRadio) => {
                    tag.downcast_mut::<Type4Tag>().unwrap().set_read_only(true)
                }
                (None, _) => tag.downcast_mut::<Type4Tag>().unwrap().unformat(),
            };
            match change {
                Change::LockedByAnotherPhone => bob.ndef_make_read_only(uid).unwrap(),
                _ => world.with_tag(uid, |tag| change_tag(tag.as_any_mut())).unwrap(),
            }
            let bob_reads = cc_reads() - reads_before;
            let error = alice.ndef_write(uid, b"a longer message than before").unwrap_err();
            let memory = world
                .with_tag(uid, |tag| {
                    let tag = tag.as_any_mut();
                    match tag.downcast_mut::<Type2Tag>() {
                        Some(t2) => [t2.transceive(&[0x30, 3]).unwrap(), t2.data_area()].concat(),
                        None => tag.downcast_mut::<Type4Tag>().unwrap().ndef_file().to_vec(),
                    }
                })
                .unwrap();
            (error, memory, cc_reads() - bob_reads)
        }

        use std::any::Any;
        for type4 in [false, true] {
            for change in [
                Change::LockedBehindTheRadio,
                Change::LockedByAnotherPhone,
                Change::UnformattedBehindTheRadio,
            ] {
                let expected = match change {
                    Change::UnformattedBehindTheRadio => NfcOpError::NotNdef,
                    _ => NfcOpError::ReadOnly,
                };
                let fresh = run(type4, false, change);
                let remembered = run(type4, true, change);
                let case = format!("type4 {type4}, {change:?}");
                assert_eq!(fresh.0, expected, "{case}");
                assert_eq!(remembered.0, expected, "{case}");
                assert_eq!(remembered.1, fresh.1, "{case}: the tag bytes");
                // Each write went to the container afresh to decide:
                // after `with_tag` dropped alice's detection, or by the
                // re-detect rule once bob's lock refused a write. (A
                // Type 4 tag with no NDEF application fails at the
                // application SELECT, before the container.)
                let decide = match change {
                    Change::UnformattedBehindTheRadio if type4 => 0,
                    _ => 1,
                };
                assert_eq!((fresh.2, remembered.2), (decide, 1 + decide), "{case}");
            }
        }
    }

    #[test]
    fn beam_between_handles() {
        let (world, alice, _uid) = setup();
        let bob_id = world.add_phone("bob");
        let bob = NfcHandle::new(world.clone(), bob_id);
        let rx = bob.events();
        world.bring_phones_together(alice.phone(), bob_id);
        assert_eq!(alice.peers_in_range(), vec![bob_id]);
        assert!(alice.peer_in_range(bob_id));
        assert!(alice.any_peer_in_range());
        alice.beam(b"ndef-bytes").unwrap();
        let events: Vec<NfcEvent> = rx.try_iter().collect();
        assert!(events.contains(&NfcEvent::BeamReceived {
            from: alice.phone(),
            bytes: b"ndef-bytes".to_vec()
        }));
    }
}
