//! Reader-side NDEF procedures: the command sequences a phone's NFC stack
//! executes against a tag to detect the NDEF application, read the stored
//! message, write a new one, and make the tag read-only.
//!
//! Each procedure is written once, as a sans-IO step machine
//! ([`Procedure`]): it holds the next command, is fed the tag's response,
//! and either asks for its new command to be sent or ends with a result.
//! It never touches a link, so every caller runs the same code:
//!
//! * [`detect`], [`read_ndef`], [`write_ndef`] and [`make_read_only`] loop
//!   over it on any [`Transceive`] (a directly connected emulator in unit
//!   tests, or any future transport);
//! * [`crate::controller`] drives it over the simulated radio, blocking
//!   for each exchange's air time or resuming it from a scheduler.
//!
//! Because a write is *many* commands, a mid-operation field loss leaves
//! the tag in a realistic torn state.

use std::ops::Range;

use crate::error::{LinkError, NfcOpError, TagError};
use crate::tag::{type2, type4, TagEmulator, TagTech};

/// A single command/response exchange with a tag.
///
/// Generic reader/writer-style functions in this module take
/// `&mut impl Transceive`; a `&mut T` where `T: Transceive` works too.
pub trait Transceive {
    /// Sends `command` and returns the tag's response.
    ///
    /// # Errors
    ///
    /// [`LinkError`] when the exchange did not complete at the radio level.
    fn transceive(&mut self, command: &[u8]) -> Result<Vec<u8>, LinkError>;
}

impl<T: Transceive + ?Sized> Transceive for &mut T {
    fn transceive(&mut self, command: &[u8]) -> Result<Vec<u8>, LinkError> {
        (**self).transceive(command)
    }
}

/// A zero-latency, loss-free link straight to an emulator: the transport
/// used by unit tests and by in-process tooling.
#[derive(Debug)]
pub struct DirectLink<'a> {
    tag: &'a mut dyn TagEmulator,
}

impl<'a> DirectLink<'a> {
    /// Wraps an emulator.
    pub fn new(tag: &'a mut dyn TagEmulator) -> DirectLink<'a> {
        DirectLink { tag }
    }
}

impl Transceive for DirectLink<'_> {
    fn transceive(&mut self, command: &[u8]) -> Result<Vec<u8>, LinkError> {
        match self.tag.transceive(command) {
            Ok(resp) => Ok(resp),
            // A mute tag manifests to the reader as a response timeout.
            Err(TagError::NoResponse) => Err(LinkError::TransmissionError),
        }
    }
}

/// What NDEF detection learns about a tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NdefTagInfo {
    /// The tag platform.
    pub tech: TagTech,
    /// Usable NDEF message capacity in bytes.
    pub capacity: usize,
    /// Whether the data area accepts writes.
    pub writable: bool,
}

/// Runs the NDEF detection procedure for `tech`.
///
/// # Errors
///
/// * [`NfcOpError::Link`] — the link failed mid-procedure (transient).
/// * [`NfcOpError::NotNdef`] — no capability container / NDEF application.
/// * [`NfcOpError::Protocol`] — the tag answered with malformed data.
pub fn detect(link: &mut impl Transceive, tech: TagTech) -> Result<NdefTagInfo, NfcOpError> {
    match run(link, tech, NdefOp::<&[u8]>::Detect)? {
        Outcome::Info(info) => Ok(info),
        _ => unreachable!("detection ends with the tag's info"),
    }
}

/// Reads the complete NDEF message bytes from the tag.
///
/// An empty vector means the tag is formatted but blank (NDEF TLV / NLEN
/// of length zero).
///
/// # Errors
///
/// Same classes as [`detect`].
pub fn read_ndef(link: &mut impl Transceive, tech: TagTech) -> Result<Vec<u8>, NfcOpError> {
    match run(link, tech, NdefOp::<&[u8]>::Read)? {
        Outcome::Bytes(bytes) => Ok(bytes),
        _ => unreachable!("a read ends with the message"),
    }
}

/// Writes `message` as the tag's NDEF content, replacing what was there.
///
/// # Errors
///
/// * [`NfcOpError::CapacityExceeded`] — the message does not fit.
/// * [`NfcOpError::ReadOnly`] — the tag rejects writes.
/// * plus the classes of [`detect`].
pub fn write_ndef(
    link: &mut impl Transceive,
    tech: TagTech,
    message: &[u8],
) -> Result<(), NfcOpError> {
    run(link, tech, NdefOp::Write(message)).map(drop)
}

/// Permanently write-protects the tag — the analog of Android's
/// `Ndef.makeReadOnly()`. On Type 2 tags this writes the capability
/// container's write-access nibble (and is then itself locked out); on
/// Type 4 tags it sets the CC file's write-access byte. **Irreversible
/// over the air**, as on real tags.
///
/// # Errors
///
/// * [`NfcOpError::ReadOnly`] — the tag is already protected (the write
///   is refused).
/// * plus the classes of [`detect`].
pub fn make_read_only(link: &mut impl Transceive, tech: TagTech) -> Result<(), NfcOpError> {
    run(link, tech, NdefOp::<&[u8]>::MakeReadOnly).map(drop)
}

/// The synchronous driver: one exchange per step until the procedure ends.
fn run<M: AsRef<[u8]>>(
    link: &mut impl Transceive,
    tech: TagTech,
    op: NdefOp<M>,
) -> Result<Outcome, NfcOpError> {
    let mut procedure = Procedure::new(op, tech);
    loop {
        let response = link.transceive(procedure.command());
        if let Some(result) = procedure.feed(response.as_deref()) {
            return result;
        }
    }
}

/// Which NDEF procedure a [`Procedure`] runs; `M` holds a write's message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NdefOp<M> {
    /// [`detect`]: ends with [`Outcome::Info`].
    Detect,
    /// [`read_ndef`]: ends with [`Outcome::Bytes`].
    Read,
    /// [`write_ndef`]: ends with [`Outcome::Done`].
    Write(M),
    /// [`make_read_only`]: ends with [`Outcome::Done`].
    MakeReadOnly,
}

/// What a procedure that succeeded returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// What detection learned.
    Info(NdefTagInfo),
    /// The NDEF message read (empty: a blank tag).
    Bytes(Vec<u8>),
    /// The write or lock took effect.
    Done,
}

/// The most NDEF bytes one Type 4 UPDATE BINARY carries.
const T4_CHUNK: usize = 250;

/// Which command a procedure has out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    T2Cc,
    T2Read,
    T2Write,
    T2Lock,
    T4App,
    T4Cc,
    T4ReadCc,
    T4Ndef,
    T4Nlen,
    T4Read,
    T4Zero,
    T4Write,
    T4Length,
    T4CcToLock,
    T4Lock,
}

/// One NDEF procedure as a sans-IO step machine.
///
/// [`Procedure::new`] puts the first command in place. A driver sends
/// [`Procedure::command`] and feeds the response to [`Procedure::feed`],
/// which puts the next command in place or ends the procedure. Each
/// command follows from the responses before it, so the machine is all
/// the state a driver keeps between exchanges: a driver that stops while
/// an exchange is on the air feeds its response in later and re-runs
/// nothing.
#[derive(Debug, Clone)]
pub struct Procedure<M> {
    op: NdefOp<M>,
    phase: Phase,
    command: [u8; 5 + T4_CHUNK],
    command_len: usize,
    /// From the capability container. `limit` is Type 2's data area or
    /// Type 4's NDEF file size; `mle`, `mlc` and `file` are Type 4's
    /// READ and UPDATE BINARY limits and NDEF file id.
    limit: usize,
    writable: bool,
    mle: usize,
    mlc: usize,
    file: u16,
    /// A read's bytes so far: Type 2's data area, Type 4's message.
    data: Vec<u8>,
    /// Type 2: the next page, or the next byte of the TLV area to write.
    /// Type 4: the next NDEF file offset.
    next: usize,
    /// Type 4: the length of the message read or written.
    nlen: usize,
}

impl<M: AsRef<[u8]>> Procedure<M> {
    /// The procedure for a tag of `tech`, its first command in place.
    pub fn new(op: NdefOp<M>, tech: TagTech) -> Procedure<M> {
        let mut procedure = Procedure {
            op,
            phase: Phase::T2Cc,
            command: [0; 5 + T4_CHUNK],
            command_len: 0,
            limit: 0,
            writable: false,
            mle: 0,
            mlc: 0,
            file: 0,
            data: Vec::new(),
            next: 0,
            nlen: 0,
        };
        if tech == TagTech::Type2 {
            procedure.send(Phase::T2Cc, &[type2::CMD_READ, 3], &[]);
        } else {
            let header = [0x00, 0xA4, 0x04, 0x00, type4::NDEF_AID.len() as u8];
            procedure.send(Phase::T4App, &header, &type4::NDEF_AID);
            procedure.command[procedure.command_len] = 0x00; // Le
            procedure.command_len += 1;
        }
        procedure
    }

    /// The command to send next.
    pub fn command(&self) -> &[u8] {
        &self.command[..self.command_len]
    }

    /// Feeds the response to [`Procedure::command`]: `None` once the next
    /// command is in place, or the procedure's result; a link error ends
    /// it with [`NfcOpError::Link`].
    pub fn feed(
        &mut self,
        response: Result<&[u8], &LinkError>,
    ) -> Option<Result<Outcome, NfcOpError>> {
        match response {
            Ok(response) => self.advance(response).transpose(),
            Err(e) => Some(Err(NfcOpError::Link(e.clone()))),
        }
    }

    fn message(&self) -> &[u8] {
        match &self.op {
            NdefOp::Write(message) => message.as_ref(),
            _ => &[],
        }
    }

    /// Puts `header` then `body` in place as the next command.
    fn send(&mut self, phase: Phase, header: &[u8], body: &[u8]) -> Option<Outcome> {
        self.phase = phase;
        self.command_len = header.len() + body.len();
        self.command[..header.len()].copy_from_slice(header);
        self.command[header.len()..self.command_len].copy_from_slice(body);
        None
    }

    /// A Type 4 APDU: SELECT by file id (INS A4), READ BINARY (B0, `body`
    /// is Le) or UPDATE BINARY (D6, `body` is the data).
    fn apdu(&mut self, phase: Phase, ins: u8, p: usize, body: &[u8]) -> Option<Outcome> {
        let [p1, p2] = (p as u16).to_be_bytes();
        match ins {
            0xB0 => self.send(phase, &[0x00, ins, p1, p2], body),
            _ => self.send(phase, &[0x00, ins, p1, p2, body.len() as u8], body),
        }
    }

    fn select(&mut self, phase: Phase, file: u16) -> Option<Outcome> {
        self.apdu(phase, 0xA4, 0x000C, &file.to_be_bytes())
    }

    /// The step after `r`, the response to the command out: `Ok(None)`
    /// once the next command is in place.
    fn advance(&mut self, r: &[u8]) -> Result<Option<Outcome>, NfcOpError> {
        use Phase::*;
        let sw_ok = r.len() >= 2 && r[r.len() - 2..] == type4::SW_OK;
        let refused = |ok: bool, error: NfcOpError| if ok { Ok(()) } else { Err(error) };
        Ok(match self.phase {
            T2Cc => {
                refused(r.len() >= 4, NfcOpError::Protocol("short CC read response"))?;
                refused(r[0] == type2::CC_MAGIC, NfcOpError::NotNdef)?;
                self.limit = r[2] as usize * 8;
                self.writable = r[3] & 0x0F == 0;
                match self.op {
                    NdefOp::Detect => {
                        let short = self.limit.saturating_sub(3).min(0xFE);
                        let capacity = short.max(self.limit.saturating_sub(5));
                        let writable = self.writable;
                        Some(Outcome::Info(NdefTagInfo {
                            tech: TagTech::Type2,
                            capacity,
                            writable,
                        }))
                    }
                    NdefOp::Read => {
                        self.next = 4;
                        self.t2_read()?
                    }
                    NdefOp::Write(_) => {
                        refused(self.writable, NfcOpError::ReadOnly)?;
                        let needed = self.message().len();
                        let overhead = t2_tlv_header(needed).1 + 1;
                        if needed + overhead > self.limit {
                            let capacity = self.limit.saturating_sub(overhead);
                            return Err(NfcOpError::CapacityExceeded { needed, capacity });
                        }
                        self.t2_write()
                    }
                    NdefOp::MakeReadOnly => {
                        let cc = [r[0], r[1], r[2], r[3] | 0x0F];
                        self.send(T2Lock, &[type2::CMD_WRITE, 3], &cc)
                    }
                }
            }
            T2Read => {
                refused(r.len() == 16, NfcOpError::Protocol("READ response was not 16 bytes"))?;
                self.data.extend_from_slice(r);
                self.data.truncate(self.limit);
                self.next += 4;
                self.t2_read()?
            }
            T2Write | T2Lock => {
                refused(r == [type2::ACK], NfcOpError::ReadOnly)?;
                self.next += 4;
                let area = t2_tlv_header(self.message().len()).1 + self.message().len() + 1;
                match self.phase == T2Lock || self.next >= area {
                    true => Some(Outcome::Done),
                    false => self.t2_write(),
                }
            }
            T4App | T4Cc => {
                refused(sw_ok, NfcOpError::NotNdef)?;
                match self.phase {
                    T4App => self.select(T4Cc, type4::CC_FILE_ID),
                    _ => self.apdu(T4ReadCc, 0xB0, 0, &[15]),
                }
            }
            T4ReadCc => {
                refused(sw_ok && r.len() >= 17, NfcOpError::Protocol("CC file read failed"))?;
                let tlv = r[7] == 0x04 && r[8] == 0x06;
                refused(tlv, NfcOpError::Protocol("CC lacks NDEF file control TLV"))?;
                let word = |i: usize| u16::from_be_bytes([r[i], r[i + 1]]);
                (self.mle, self.mlc) = (word(3) as usize, word(5) as usize);
                (self.file, self.limit) = (word(9), word(11) as usize);
                let valid = self.mle != 0 && self.mlc != 0 && self.limit >= 2;
                refused(valid, NfcOpError::Protocol("CC limits are invalid"))?;
                self.writable = r[14] == 0x00;
                self.nlen = self.message().len();
                match self.op {
                    NdefOp::Detect => Some(Outcome::Info(NdefTagInfo {
                        tech: TagTech::Type4,
                        capacity: self.limit - 2,
                        writable: self.writable,
                    })),
                    NdefOp::Read => self.select(T4Ndef, self.file),
                    NdefOp::Write(_) => {
                        refused(self.writable, NfcOpError::ReadOnly)?;
                        if self.nlen + 2 > self.limit {
                            let (needed, capacity) = (self.nlen, self.limit - 2);
                            return Err(NfcOpError::CapacityExceeded { needed, capacity });
                        }
                        self.select(T4Ndef, self.file)
                    }
                    NdefOp::MakeReadOnly => {
                        refused(self.writable, NfcOpError::ReadOnly)?;
                        self.select(T4CcToLock, type4::CC_FILE_ID)
                    }
                }
            }
            T4Ndef => {
                refused(sw_ok, NfcOpError::Protocol("NDEF file select failed"))?;
                match self.op {
                    // Zero NLEN first so a torn write reads back as an
                    // empty tag rather than as garbage — the Type 4
                    // mapping's prescribed write order.
                    NdefOp::Write(_) => self.apdu(T4Zero, 0xD6, 0, &[0, 0]),
                    _ => self.apdu(T4Nlen, 0xB0, 0, &[2]),
                }
            }
            T4Nlen => {
                refused(sw_ok && r.len() == 4, NfcOpError::Protocol("NLEN read failed"))?;
                self.nlen = u16::from_be_bytes([r[0], r[1]]) as usize;
                let fits = self.nlen + 2 <= self.limit;
                refused(fits, NfcOpError::Protocol("NLEN exceeds the NDEF file"))?;
                self.data = Vec::with_capacity(self.nlen);
                self.next = 2;
                self.t4_read()
            }
            T4Read => {
                let want = self.t4_read_len();
                let ok = sw_ok && r.len() == want + 2;
                refused(ok, NfcOpError::Protocol("NDEF file read failed"))?;
                self.data.extend_from_slice(&r[..want]);
                self.next += want;
                self.t4_read()
            }
            T4Zero | T4Write => {
                refused(sw_ok, NfcOpError::ReadOnly)?;
                self.next = if self.phase == T4Zero { 2 } else { self.t4_chunk().end + 2 };
                let chunk = self.t4_chunk();
                if chunk.is_empty() {
                    let nlen = (self.nlen as u16).to_be_bytes();
                    self.apdu(T4Length, 0xD6, 0, &nlen)
                } else {
                    let mut data = [0; T4_CHUNK];
                    let data = &mut data[..chunk.len()];
                    data.copy_from_slice(&self.message()[chunk]);
                    self.apdu(T4Write, 0xD6, self.next, data)
                }
            }
            T4Length | T4Lock => {
                refused(sw_ok, NfcOpError::ReadOnly)?;
                Some(Outcome::Done)
            }
            T4CcToLock => {
                refused(sw_ok, NfcOpError::Protocol("CC file select failed"))?;
                self.apdu(T4Lock, 0xD6, 14, &[0xFF])
            }
        })
    }

    /// Type 2 reads lazily, 16 bytes at a time, and stops as soon as the
    /// NDEF TLV is complete — real readers do not sweep the whole EEPROM.
    fn t2_read(&mut self) -> Result<Option<Outcome>, NfcOpError> {
        if let Some(payload) = t2_find_ndef(&self.data, self.limit)? {
            self.data.truncate(payload.end);
            self.data.drain(..payload.start);
            return Ok(Some(Outcome::Bytes(std::mem::take(&mut self.data))));
        }
        if self.data.len() >= self.limit {
            return Err(NfcOpError::Protocol("missing NDEF TLV"));
        }
        Ok(self.send(Phase::T2Read, &[type2::CMD_READ, self.next as u8], &[]))
    }

    /// Writes the page at byte `next` of the TLV area: NDEF TLV,
    /// terminator, zero padding to a whole page.
    fn t2_write(&mut self) -> Option<Outcome> {
        let message = self.message();
        let (header, header_len) = t2_tlv_header(message.len());
        let byte = |i: usize| match i.checked_sub(header_len) {
            None => header[i],
            Some(j) => message.get(j).copied().unwrap_or(if j == message.len() { 0xFE } else { 0 }),
        };
        let at = self.next;
        let page = [byte(at), byte(at + 1), byte(at + 2), byte(at + 3)];
        self.send(Phase::T2Write, &[type2::CMD_WRITE, (4 + at / 4) as u8], &page)
    }

    fn t4_read_len(&self) -> usize {
        (self.nlen - self.data.len()).min(self.mle).min(255)
    }

    fn t4_read(&mut self) -> Option<Outcome> {
        if self.data.len() < self.nlen {
            let le = self.t4_read_len() as u8;
            self.apdu(Phase::T4Read, 0xB0, self.next, &[le])
        } else {
            Some(Outcome::Bytes(std::mem::take(&mut self.data)))
        }
    }

    /// The message bytes the UPDATE BINARY at file offset `next` carries.
    fn t4_chunk(&self) -> Range<usize> {
        let start = self.next - 2;
        start..(start + self.mlc.min(T4_CHUNK)).min(self.nlen)
    }
}

/// A Type 2 NDEF TLV's header for a `len`-byte message, and how many of
/// its bytes are used (the 1-byte or the 3-byte length form).
fn t2_tlv_header(len: usize) -> ([u8; 4], usize) {
    match u8::try_from(len) {
        Ok(short) if short != 0xFF => ([0x03, short, 0, 0], 2),
        _ => {
            let [hi, lo] = (len as u16).to_be_bytes();
            ([0x03, 0xFF, hi, lo], 4)
        }
    }
}

/// Walks the TLV blocks gathered so far. Returns where the NDEF payload
/// lies once the NDEF TLV is complete, `None` when more bytes are needed,
/// or a protocol error when the structure is definitely invalid. `limit`
/// is the full data-area size: structures pointing beyond it can never
/// become valid.
fn t2_find_ndef(area: &[u8], limit: usize) -> Result<Option<Range<usize>>, NfcOpError> {
    let mut i = 0usize;
    loop {
        if i >= limit {
            return Err(NfcOpError::Protocol("missing NDEF TLV"));
        }
        let Some(&tag) = area.get(i) else { return Ok(None) };
        match tag {
            0x00 => i += 1, // NULL TLV
            0xFE => return Err(NfcOpError::Protocol("terminator before NDEF TLV")),
            0x01 | 0x02 => {
                // Lock / memory control TLV: 1-byte length + value.
                let Some(&len) = area.get(i + 1) else { return Ok(None) };
                i += 2 + len as usize;
            }
            0x03 => {
                let (len, header) = match area.get(i + 1) {
                    None => return Ok(None),
                    Some(&0xFF) => {
                        let (Some(&hi), Some(&lo)) = (area.get(i + 2), area.get(i + 3)) else {
                            return Ok(None);
                        };
                        (u16::from_be_bytes([hi, lo]) as usize, 4)
                    }
                    Some(&l) => (l as usize, 2),
                };
                let start = i + header;
                let end = start + len;
                if end > limit {
                    return Err(NfcOpError::Protocol("NDEF TLV length exceeds data area"));
                }
                if end > area.len() {
                    return Ok(None);
                }
                return Ok(Some(start..end));
            }
            _ => return Err(NfcOpError::Protocol("unknown TLV block")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::{TagUid, Type2Tag, Type4Tag};

    fn roundtrip(tag: &mut dyn TagEmulator, payload: &[u8]) {
        let tech = tag.tech();
        let mut link = DirectLink::new(tag);
        write_ndef(&mut link, tech, payload).unwrap();
        assert_eq!(read_ndef(&mut link, tech).unwrap(), payload);
    }

    #[test]
    fn type2_write_read_round_trip() {
        let mut tag = Type2Tag::ntag215(TagUid::from_seed(1));
        roundtrip(&mut tag, b"hello type 2");
        roundtrip(&mut tag, b""); // blank rewrite
        roundtrip(&mut tag, &vec![0x5A; 400]); // long TLV form
    }

    #[test]
    fn type4_write_read_round_trip() {
        let mut tag = Type4Tag::new(TagUid::from_seed(2), 1024);
        roundtrip(&mut tag, b"hello type 4");
        roundtrip(&mut tag, b"");
        roundtrip(&mut tag, &vec![0xA5; 700]); // multi-chunk read/write
    }

    #[test]
    fn fresh_tags_read_as_blank() {
        let mut t2 = Type2Tag::ntag213(TagUid::from_seed(3));
        assert_eq!(read_ndef(&mut DirectLink::new(&mut t2), TagTech::Type2).unwrap(), b"");
        let mut t4 = Type4Tag::new(TagUid::from_seed(4), 256);
        assert_eq!(read_ndef(&mut DirectLink::new(&mut t4), TagTech::Type4).unwrap(), b"");
    }

    #[test]
    fn detect_reports_capacity_and_writability() {
        let mut t2 = Type2Tag::ntag213(TagUid::from_seed(5));
        let info = detect(&mut DirectLink::new(&mut t2), TagTech::Type2).unwrap();
        assert_eq!(info, NdefTagInfo { tech: TagTech::Type2, capacity: 141, writable: true });
        t2.set_read_only(true);
        let info = detect(&mut DirectLink::new(&mut t2), TagTech::Type2).unwrap();
        assert!(!info.writable);

        let mut t4 = Type4Tag::new(TagUid::from_seed(6), 512);
        let info = detect(&mut DirectLink::new(&mut t4), TagTech::Type4).unwrap();
        assert_eq!(info, NdefTagInfo { tech: TagTech::Type4, capacity: 510, writable: true });
    }

    #[test]
    fn unformatted_tags_report_not_ndef() {
        let mut t2 = Type2Tag::ntag213(TagUid::from_seed(7));
        t2.unformat();
        assert_eq!(
            detect(&mut DirectLink::new(&mut t2), TagTech::Type2).unwrap_err(),
            NfcOpError::NotNdef
        );
        let mut t4 = Type4Tag::new(TagUid::from_seed(8), 256);
        t4.unformat();
        assert_eq!(
            detect(&mut DirectLink::new(&mut t4), TagTech::Type4).unwrap_err(),
            NfcOpError::NotNdef
        );
    }

    #[test]
    fn capacity_overflow_is_reported_with_numbers() {
        let mut t2 = Type2Tag::ntag213(TagUid::from_seed(9));
        let err = write_ndef(&mut DirectLink::new(&mut t2), TagTech::Type2, &[0; 200]).unwrap_err();
        assert_eq!(err, NfcOpError::CapacityExceeded { needed: 200, capacity: 141 });

        let mut t4 = Type4Tag::new(TagUid::from_seed(10), 64);
        let err = write_ndef(&mut DirectLink::new(&mut t4), TagTech::Type4, &[0; 100]).unwrap_err();
        assert_eq!(err, NfcOpError::CapacityExceeded { needed: 100, capacity: 62 });
    }

    #[test]
    fn read_only_write_is_rejected() {
        let mut t2 = Type2Tag::ntag213(TagUid::from_seed(11));
        t2.set_read_only(true);
        assert_eq!(
            write_ndef(&mut DirectLink::new(&mut t2), TagTech::Type2, b"x").unwrap_err(),
            NfcOpError::ReadOnly
        );
        let mut t4 = Type4Tag::new(TagUid::from_seed(12), 256);
        t4.set_read_only(true);
        assert_eq!(
            write_ndef(&mut DirectLink::new(&mut t4), TagTech::Type4, b"x").unwrap_err(),
            NfcOpError::ReadOnly
        );
    }

    #[test]
    fn type2_overwrite_shorter_message_leaves_clean_state() {
        let mut tag = Type2Tag::ntag215(TagUid::from_seed(13));
        roundtrip(&mut tag, &vec![1; 300]);
        roundtrip(&mut tag, b"tiny");
        // A fresh read still sees only the short message.
        let mut link = DirectLink::new(&mut tag);
        assert_eq!(read_ndef(&mut link, TagTech::Type2).unwrap(), b"tiny");
    }

    /// A link that fails each exchange whose index is in `fail_at`,
    /// simulating noise bursts at precise points of a procedure.
    struct ScriptedLink<'a> {
        inner: DirectLink<'a>,
        exchange: usize,
        fail_at: Vec<usize>,
    }

    impl Transceive for ScriptedLink<'_> {
        fn transceive(&mut self, command: &[u8]) -> Result<Vec<u8>, LinkError> {
            let idx = self.exchange;
            self.exchange += 1;
            if self.fail_at.contains(&idx) {
                return Err(LinkError::TransmissionError);
            }
            self.inner.transceive(command)
        }
    }

    #[test]
    fn torn_type4_write_reads_back_blank() {
        let mut tag = Type4Tag::new(TagUid::from_seed(14), 512);
        // First put real content on the tag.
        write_ndef(&mut DirectLink::new(&mut tag), TagTech::Type4, b"old-content").unwrap();
        // Now interrupt a larger write after NLEN was zeroed: exchanges are
        // selectApp, selectCC, readCC, selectNdef, update NLEN=0 (4), then
        // data updates — fail the first data update (index 5).
        let mut scripted =
            ScriptedLink { inner: DirectLink::new(&mut tag), exchange: 0, fail_at: vec![5] };
        let err = write_ndef(&mut scripted, TagTech::Type4, &[7; 300]).unwrap_err();
        assert!(err.is_transient());
        // The prescribed write order guarantees the torn tag reads as blank.
        assert_eq!(read_ndef(&mut DirectLink::new(&mut tag), TagTech::Type4).unwrap(), b"");
    }

    #[test]
    fn torn_type2_write_leaves_partial_tlv_detectable() {
        let mut tag = Type2Tag::ntag215(TagUid::from_seed(15));
        write_ndef(&mut DirectLink::new(&mut tag), TagTech::Type2, &[3; 100]).unwrap();
        // Type 2 exchanges: read CC (0), then page writes. Fail mid-write.
        let mut scripted =
            ScriptedLink { inner: DirectLink::new(&mut tag), exchange: 0, fail_at: vec![10] };
        let err = write_ndef(&mut scripted, TagTech::Type2, &[9; 200]).unwrap_err();
        assert!(err.is_transient());
        // The tag now holds a torn mixture; a subsequent full write repairs it.
        write_ndef(&mut DirectLink::new(&mut tag), TagTech::Type2, &[9; 200]).unwrap();
        assert_eq!(
            read_ndef(&mut DirectLink::new(&mut tag), TagTech::Type2).unwrap(),
            vec![9; 200]
        );
    }

    #[test]
    fn link_failures_propagate_as_transient() {
        let mut tag = Type2Tag::ntag213(TagUid::from_seed(16));
        let mut scripted =
            ScriptedLink { inner: DirectLink::new(&mut tag), exchange: 0, fail_at: vec![0] };
        let err = read_ndef(&mut scripted, TagTech::Type2).unwrap_err();
        assert_eq!(err, NfcOpError::Link(LinkError::TransmissionError));
        assert!(err.is_transient());
    }

    #[test]
    fn make_read_only_is_permanent_over_the_air() {
        // Type 2: content survives, writes stop, a second lock attempt is
        // refused (the CC page itself is now locked).
        let mut t2 = Type2Tag::ntag215(TagUid::from_seed(20));
        write_ndef(&mut DirectLink::new(&mut t2), TagTech::Type2, b"frozen").unwrap();
        make_read_only(&mut DirectLink::new(&mut t2), TagTech::Type2).unwrap();
        assert!(t2.is_read_only());
        assert_eq!(
            write_ndef(&mut DirectLink::new(&mut t2), TagTech::Type2, b"nope").unwrap_err(),
            NfcOpError::ReadOnly
        );
        assert_eq!(read_ndef(&mut DirectLink::new(&mut t2), TagTech::Type2).unwrap(), b"frozen");
        assert_eq!(
            make_read_only(&mut DirectLink::new(&mut t2), TagTech::Type2).unwrap_err(),
            NfcOpError::ReadOnly
        );

        // Type 4: same contract.
        let mut t4 = Type4Tag::new(TagUid::from_seed(21), 512);
        write_ndef(&mut DirectLink::new(&mut t4), TagTech::Type4, b"frozen4").unwrap();
        make_read_only(&mut DirectLink::new(&mut t4), TagTech::Type4).unwrap();
        assert!(t4.is_read_only());
        assert_eq!(
            write_ndef(&mut DirectLink::new(&mut t4), TagTech::Type4, b"nope").unwrap_err(),
            NfcOpError::ReadOnly
        );
        assert_eq!(read_ndef(&mut DirectLink::new(&mut t4), TagTech::Type4).unwrap(), b"frozen4");
        assert_eq!(
            make_read_only(&mut DirectLink::new(&mut t4), TagTech::Type4).unwrap_err(),
            NfcOpError::ReadOnly
        );
        // Detection reflects the protection.
        let info = detect(&mut DirectLink::new(&mut t4), TagTech::Type4).unwrap();
        assert!(!info.writable);
    }

    #[test]
    fn type2_skips_null_and_control_tlvs() {
        let mut tag = Type2Tag::ntag215(TagUid::from_seed(17));
        // Hand-craft a data area: NULL, lock-control TLV, then NDEF TLV.
        let area: Vec<u8> = {
            let mut a = vec![0x00, 0x01, 0x03, 0xA0, 0x10, 0x44]; // NULL + lock ctl (len 3)
            a.extend_from_slice(&[0x03, 0x02, 0xBE, 0xEF, 0xFE]); // NDEF TLV + term
            a
        };
        for (i, chunk) in area.chunks(4).enumerate() {
            let mut page = [0u8; 4];
            page[..chunk.len()].copy_from_slice(chunk);
            tag.transceive(&[type2::CMD_WRITE, (4 + i) as u8, page[0], page[1], page[2], page[3]])
                .unwrap();
        }
        assert_eq!(
            read_ndef(&mut DirectLink::new(&mut tag), TagTech::Type2).unwrap(),
            vec![0xBE, 0xEF]
        );
    }
}
