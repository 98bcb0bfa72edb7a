//! A faithful analog of Android's `android.nfc.tech.Ndef`: the
//! *synchronous, blocking, per-call-fallible* tag I/O class that raw
//! applications program against.
//!
//! Everything the MORENA paper criticizes is intentionally preserved
//! here: `connect`/`ndef_message`/`write_ndef_message` block the calling
//! thread for the full link latency, throw on every transient fault, and
//! leave retrying, threading, and data conversion entirely to the
//! application. So is the platform's connection contract: I/O needs a
//! prior `connect()`, one technology object at a time may be connected
//! to a tag, and the application must `close()` it before connecting
//! again.

use std::collections::BTreeSet;
use std::sync::Arc;

use morena_ndef::NdefMessage;
use morena_nfc_sim::controller::NfcHandle;
use morena_nfc_sim::error::{LinkError, NfcOpError};
use morena_nfc_sim::proto::NdefTagInfo;
use morena_nfc_sim::tag::TagUid;
use morena_nfc_sim::world::PhoneId;
use morena_obs::Mutex;

/// Errors thrown by the blocking [`Ndef`] operations — the analog of
/// Android's `IOException` / `TagLostException` / `FormatException`.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TagIoError {
    /// The tag left the field before or during the operation
    /// (`TagLostException`).
    TagLost,
    /// The exchange failed at the radio level (`IOException`).
    Io,
    /// The tag is not NDEF formatted (`FormatException`).
    NotNdef,
    /// The message does not fit on the tag.
    TooLarge {
        /// Bytes required.
        needed: usize,
        /// Bytes available.
        capacity: usize,
    },
    /// The tag rejects writes.
    ReadOnly,
    /// The tag misbehaved at the protocol level.
    Protocol(&'static str),
    /// The payload on the tag is not a parseable NDEF message.
    Malformed,
    /// I/O on a handle that is not connected (`IllegalStateException:
    /// Call connect() first!`).
    NotConnected,
    /// `connect` while a technology object is connected to the tag,
    /// this one included (`IllegalStateException: Close other
    /// technology first!`).
    AlreadyConnected,
}

impl std::fmt::Display for TagIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TagIoError::TagLost => write!(f, "tag was lost"),
            TagIoError::Io => write!(f, "tag I/O error"),
            TagIoError::NotNdef => write!(f, "tag is not NDEF formatted"),
            TagIoError::TooLarge { needed, capacity } => {
                write!(f, "message of {needed} bytes exceeds capacity {capacity}")
            }
            TagIoError::ReadOnly => write!(f, "tag is read-only"),
            TagIoError::Protocol(d) => write!(f, "protocol violation: {d}"),
            TagIoError::Malformed => write!(f, "tag payload is not valid NDEF"),
            TagIoError::NotConnected => write!(f, "call connect() first"),
            TagIoError::AlreadyConnected => write!(f, "close other technology first"),
        }
    }
}

impl std::error::Error for TagIoError {}

impl TagIoError {
    /// Whether the application could plausibly retry (the decision the
    /// raw API forces every caller to make by hand).
    pub fn is_retryable(&self) -> bool {
        matches!(self, TagIoError::TagLost | TagIoError::Io)
    }
}

fn map_err(e: NfcOpError) -> TagIoError {
    match e {
        NfcOpError::Link(LinkError::OutOfRange | LinkError::FieldLost) => TagIoError::TagLost,
        NfcOpError::Link(_) => TagIoError::Io,
        NfcOpError::NotNdef => TagIoError::NotNdef,
        NfcOpError::CapacityExceeded { needed, capacity } => {
            TagIoError::TooLarge { needed, capacity }
        }
        NfcOpError::ReadOnly => TagIoError::ReadOnly,
        NfcOpError::Protocol(d) => TagIoError::Protocol(d),
        _ => TagIoError::Io,
    }
}

/// Tags with a connected technology object, per world and phone: the
/// analog of the connected technology Android keeps on each `Tag`. A
/// world is told apart by its recorder's address, which stays taken
/// while any handle into the world, and so any entry here, is alive.
static CONNECTED: Mutex<BTreeSet<(usize, PhoneId, TagUid)>> = Mutex::new(BTreeSet::new());

/// The blocking NDEF technology handle for one tag, in the image of
/// `android.nfc.tech.Ndef`.
///
/// # Examples
///
/// ```
/// use morena_baseline::ndef_tech::Ndef;
/// use morena_ndef::{NdefMessage, NdefRecord};
/// use morena_nfc_sim::clock::VirtualClock;
/// use morena_nfc_sim::controller::NfcHandle;
/// use morena_nfc_sim::link::LinkModel;
/// use morena_nfc_sim::tag::{TagUid, Type2Tag};
/// use morena_nfc_sim::world::World;
///
/// # fn main() -> Result<(), morena_baseline::ndef_tech::TagIoError> {
/// let world = World::with_link(VirtualClock::shared(), LinkModel::instant(), 0);
/// let phone = world.add_phone("alice");
/// let uid = world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed(1))));
/// world.tap_tag(uid, phone);
///
/// let mut ndef = Ndef::get(NfcHandle::new(world, phone), uid);
/// ndef.connect()?; // blocks; throws if the tag is away
/// let msg = NdefMessage::single(NdefRecord::mime("text/plain", b"hi".to_vec()).unwrap());
/// ndef.write_ndef_message(&msg)?; // blocks for the full write
/// assert_eq!(ndef.ndef_message()?, Some(msg));
/// ndef.close(); // lets another technology object connect
/// # Ok(())
/// # }
/// ```
///
/// Dropping a connected handle closes it.
#[derive(Debug)]
pub struct Ndef {
    nfc: NfcHandle,
    uid: TagUid,
    info: Option<NdefTagInfo>,
    connected: bool,
}

impl Drop for Ndef {
    fn drop(&mut self) {
        self.close();
    }
}

impl Ndef {
    /// Obtains the NDEF technology handle for a discovered tag (the
    /// analog of `Ndef.get(tag)`).
    pub fn get(nfc: NfcHandle, uid: TagUid) -> Ndef {
        Ndef { nfc, uid, info: None, connected: false }
    }

    fn key(&self) -> (usize, PhoneId, TagUid) {
        (Arc::as_ptr(self.nfc.world().obs()) as usize, self.nfc.phone(), self.uid)
    }

    fn check_connected(&self) -> Result<(), TagIoError> {
        if self.connected {
            Ok(())
        } else {
            Err(TagIoError::NotConnected)
        }
    }

    /// The tag this handle is for.
    pub fn uid(&self) -> TagUid {
        self.uid
    }

    /// Connects: runs NDEF detection, blocking for its exchanges. A
    /// failed connect leaves the handle closed.
    ///
    /// # Errors
    ///
    /// [`TagIoError::AlreadyConnected`] while any handle to the tag is
    /// connected, this one included; [`TagIoError::TagLost`] /
    /// [`TagIoError::Io`] on connectivity faults,
    /// [`TagIoError::NotNdef`] for unformatted tags.
    pub fn connect(&mut self) -> Result<(), TagIoError> {
        if !CONNECTED.lock().insert(self.key()) {
            return Err(TagIoError::AlreadyConnected);
        }
        self.connected = true;
        let info = self.nfc.ndef_detect(self.uid).map_err(|e| {
            self.close();
            map_err(e)
        })?;
        self.info = Some(info);
        Ok(())
    }

    /// Closes the connection (`Ndef.close()`), so this or another handle
    /// can connect to the tag again. Closing a closed handle does
    /// nothing.
    pub fn close(&mut self) {
        if std::mem::take(&mut self.connected) {
            CONNECTED.lock().remove(&self.key());
        }
    }

    /// Whether the handle is connected and the tag is still in range.
    pub fn is_connected(&self) -> bool {
        self.connected && self.nfc.tag_in_range(self.uid)
    }

    /// The usable capacity in bytes (known once a `connect` succeeded).
    pub fn max_size(&self) -> Option<usize> {
        self.info.map(|i| i.capacity)
    }

    /// Whether the tag accepts writes (known once a `connect`
    /// succeeded).
    pub fn is_writable(&self) -> Option<bool> {
        self.info.map(|i| i.writable)
    }

    /// Reads the tag's NDEF message, blocking. `Ok(None)` means the tag
    /// is formatted but blank.
    ///
    /// # Errors
    ///
    /// Any [`TagIoError`]; transient ones must be retried by the caller.
    pub fn ndef_message(&self) -> Result<Option<NdefMessage>, TagIoError> {
        self.check_connected()?;
        let bytes = self.nfc.ndef_read(self.uid).map_err(map_err)?;
        if bytes.is_empty() {
            return Ok(None);
        }
        match NdefMessage::parse(&bytes) {
            Ok(message) if message.is_blank() => Ok(None),
            Ok(message) => Ok(Some(message)),
            Err(_) => Err(TagIoError::Malformed),
        }
    }

    /// Permanently write-protects the tag (`Ndef.makeReadOnly()`),
    /// blocking. Irreversible.
    ///
    /// # Errors
    ///
    /// Any [`TagIoError`]; [`TagIoError::ReadOnly`] when already locked.
    pub fn make_read_only(&self) -> Result<(), TagIoError> {
        self.check_connected()?;
        self.nfc.ndef_make_read_only(self.uid).map_err(map_err)
    }

    /// Writes `message` to the tag, blocking for the full multi-command
    /// procedure. A mid-operation field loss leaves a torn tag — exactly
    /// like the real API.
    ///
    /// # Errors
    ///
    /// Any [`TagIoError`]; transient ones must be retried by the caller.
    pub fn write_ndef_message(&self, message: &NdefMessage) -> Result<(), TagIoError> {
        self.check_connected()?;
        self.nfc.ndef_write(self.uid, &message.to_bytes()).map_err(map_err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morena_ndef::NdefRecord;
    use morena_nfc_sim::clock::VirtualClock;
    use morena_nfc_sim::link::LinkModel;
    use morena_nfc_sim::tag::Type2Tag;
    use morena_nfc_sim::world::World;

    fn setup() -> (World, NfcHandle, TagUid) {
        let world = World::with_link(VirtualClock::shared(), LinkModel::instant(), 17);
        let phone = world.add_phone("alice");
        let uid = world.add_tag(Box::new(Type2Tag::ntag215(TagUid::from_seed(1))));
        let nfc = NfcHandle::new(world.clone(), phone);
        (world, nfc, uid)
    }

    fn msg(text: &str) -> NdefMessage {
        NdefMessage::single(NdefRecord::mime("text/plain", text.as_bytes().to_vec()).unwrap())
    }

    #[test]
    fn connect_read_write_round_trip() {
        let (world, nfc, uid) = setup();
        world.tap_tag(uid, nfc.phone());
        let mut ndef = Ndef::get(nfc, uid);
        ndef.connect().unwrap();
        assert!(ndef.is_connected());
        assert_eq!(ndef.max_size(), Some(499)); // 504 - long TLV overhead
        assert_eq!(ndef.is_writable(), Some(true));
        assert_eq!(ndef.ndef_message().unwrap(), None); // blank tag
        ndef.write_ndef_message(&msg("raw api")).unwrap();
        assert_eq!(ndef.ndef_message().unwrap(), Some(msg("raw api")));
    }

    #[test]
    fn operations_throw_when_tag_is_away() {
        let (world, nfc, uid) = setup();
        let mut ndef = Ndef::get(nfc, uid);
        assert_eq!(ndef.connect().unwrap_err(), TagIoError::TagLost);
        assert!(!ndef.is_connected());
        // A tag lost after connecting fails the I/O itself.
        world.tap_tag(uid, ndef.nfc.phone());
        ndef.connect().unwrap();
        world.remove_tag_from_field(uid);
        assert!(!ndef.is_connected());
        assert_eq!(ndef.ndef_message().unwrap_err(), TagIoError::TagLost);
        assert_eq!(ndef.write_ndef_message(&msg("x")).unwrap_err(), TagIoError::TagLost);
    }

    #[test]
    fn io_needs_one_connected_handle_per_tag() {
        let (world, nfc, uid) = setup();
        world.tap_tag(uid, nfc.phone());
        let mut first = Ndef::get(nfc.clone(), uid);
        let mut second = Ndef::get(nfc.clone(), uid);
        // No I/O before connect, and no exchange is made for it.
        let exchanges = world.radio_stats().exchanges;
        assert_eq!(first.ndef_message().unwrap_err(), TagIoError::NotConnected);
        assert_eq!(first.write_ndef_message(&msg("x")).unwrap_err(), TagIoError::NotConnected);
        assert_eq!(first.make_read_only().unwrap_err(), TagIoError::NotConnected);
        assert_eq!(world.radio_stats().exchanges, exchanges);
        // One connected handle per tag, this one included.
        first.connect().unwrap();
        assert_eq!(second.connect().unwrap_err(), TagIoError::AlreadyConnected);
        assert_eq!(first.connect().unwrap_err(), TagIoError::AlreadyConnected);
        assert_eq!(second.ndef_message().unwrap_err(), TagIoError::NotConnected);
        // Closing hands the tag over; closing twice is harmless.
        first.close();
        first.close();
        assert_eq!(first.ndef_message().unwrap_err(), TagIoError::NotConnected);
        second.connect().unwrap();
        assert_eq!(second.ndef_message().unwrap(), None);
        // Dropping a connected handle closes it.
        drop(second);
        first.connect().unwrap();
        // Another phone's handle, or another world's, is independent.
        let bob = world.add_phone("bob");
        world.tap_tag(uid, bob);
        Ndef::get(NfcHandle::new(world.clone(), bob), uid).connect().unwrap();
        let (other_world, other_nfc, other_uid) = setup();
        other_world.tap_tag(other_uid, other_nfc.phone());
        Ndef::get(other_nfc, other_uid).connect().unwrap();
    }

    #[test]
    fn error_mapping_matches_android_semantics() {
        assert_eq!(map_err(NfcOpError::Link(LinkError::OutOfRange)), TagIoError::TagLost);
        assert_eq!(map_err(NfcOpError::Link(LinkError::FieldLost)), TagIoError::TagLost);
        assert_eq!(map_err(NfcOpError::Link(LinkError::TransmissionError)), TagIoError::Io);
        assert_eq!(map_err(NfcOpError::NotNdef), TagIoError::NotNdef);
        assert_eq!(map_err(NfcOpError::ReadOnly), TagIoError::ReadOnly);
        assert_eq!(
            map_err(NfcOpError::CapacityExceeded { needed: 9, capacity: 4 }),
            TagIoError::TooLarge { needed: 9, capacity: 4 }
        );
        assert!(TagIoError::TagLost.is_retryable());
        assert!(TagIoError::Io.is_retryable());
        assert!(!TagIoError::ReadOnly.is_retryable());
        assert!(!TagIoError::NotNdef.is_retryable());
        assert!(!TagIoError::NotConnected.is_retryable());
        assert!(!TagIoError::AlreadyConnected.is_retryable());
    }

    #[test]
    fn make_read_only_locks_the_tag_permanently() {
        let (world, nfc, uid) = setup();
        world.tap_tag(uid, nfc.phone());
        let mut ndef = Ndef::get(nfc, uid);
        ndef.connect().unwrap();
        ndef.write_ndef_message(&msg("keep me")).unwrap();
        ndef.make_read_only().unwrap();
        assert_eq!(ndef.write_ndef_message(&msg("x")).unwrap_err(), TagIoError::ReadOnly);
        assert_eq!(ndef.ndef_message().unwrap(), Some(msg("keep me")));
        // Reconnecting reports the protection.
        ndef.close();
        ndef.connect().unwrap();
        assert_eq!(ndef.is_writable(), Some(false));
        assert_eq!(ndef.make_read_only().unwrap_err(), TagIoError::ReadOnly);
    }

    #[test]
    fn unformatted_tag_reports_not_ndef() {
        let (world, nfc, _uid) = setup();
        let mut raw = Type2Tag::ntag213(TagUid::from_seed(2));
        raw.unformat();
        let uid2 = raw.uid();
        world.add_tag(Box::new(raw));
        world.tap_tag(uid2, nfc.phone());
        let mut ndef = Ndef::get(nfc, uid2);
        assert_eq!(ndef.connect().unwrap_err(), TagIoError::NotNdef);
    }

    #[test]
    fn display_nonempty() {
        for e in [
            TagIoError::TagLost,
            TagIoError::Io,
            TagIoError::NotNdef,
            TagIoError::TooLarge { needed: 1, capacity: 0 },
            TagIoError::ReadOnly,
            TagIoError::Protocol("x"),
            TagIoError::Malformed,
            TagIoError::NotConnected,
            TagIoError::AlreadyConnected,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
