use crate::record::{NdefRecord, Tnf};
use crate::{NdefError, MAX_PAYLOAD_LEN};

const FLAG_MB: u8 = 0x80;
const FLAG_ME: u8 = 0x40;
const FLAG_CF: u8 = 0x20;
const FLAG_SR: u8 = 0x10;
const FLAG_IL: u8 = 0x08;
const TNF_MASK: u8 = 0x07;

/// An ordered sequence of [`NdefRecord`]s — the unit of data stored on an
/// NFC tag or pushed between devices.
///
/// # Invariant
///
/// A message always contains at least one record. Constructing a message
/// from an empty vector yields the canonical single-empty-record message,
/// which is also how a formatted-but-blank tag is represented on the wire.
///
/// # Examples
///
/// ```
/// use morena_ndef::{NdefMessage, NdefRecord};
///
/// # fn main() -> Result<(), morena_ndef::NdefError> {
/// let msg = NdefMessage::new(vec![NdefRecord::mime("text/plain", b"hi".to_vec())?]);
/// let wire = msg.to_bytes();
/// assert_eq!(NdefMessage::parse(&wire)?, msg);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NdefMessage {
    records: Vec<NdefRecord>,
}

impl NdefMessage {
    /// Creates a message from `records`, normalizing the empty vector to
    /// the canonical empty-record message (see the type-level invariant).
    pub fn new(records: Vec<NdefRecord>) -> NdefMessage {
        if records.is_empty() {
            NdefMessage { records: vec![NdefRecord::empty()] }
        } else {
            NdefMessage { records }
        }
    }

    /// Creates a message holding a single record.
    pub fn single(record: NdefRecord) -> NdefMessage {
        NdefMessage { records: vec![record] }
    }

    /// The message written to a freshly formatted tag: one empty record.
    pub fn empty_tag() -> NdefMessage {
        NdefMessage::single(NdefRecord::empty())
    }

    /// Returns `true` when the message is the canonical blank-tag message.
    pub fn is_blank(&self) -> bool {
        self.records.len() == 1 && self.records[0].is_empty_record()
    }

    /// The records of the message, in order.
    pub fn records(&self) -> &[NdefRecord] {
        &self.records
    }

    /// Consumes the message, returning its records.
    pub fn into_records(self) -> Vec<NdefRecord> {
        self.records
    }

    /// The first record. A message always has one (see invariant).
    pub fn first(&self) -> &NdefRecord {
        &self.records[0]
    }

    /// Iterates over the records.
    pub fn iter(&self) -> std::slice::Iter<'_, NdefRecord> {
        self.records.iter()
    }

    /// Total encoded size in bytes (without chunking).
    pub fn encoded_len(&self) -> usize {
        self.records.iter().map(NdefRecord::encoded_len).sum()
    }

    /// Encodes the message to its binary wire form, one wire record per
    /// logical record (no chunking).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.to_bytes_into(&mut out);
        out
    }

    /// Appends the binary wire form to `out` without allocating a fresh
    /// buffer (beyond growing `out` once to fit, when needed). Hot paths
    /// reuse one scratch buffer across encodes;
    /// [`to_bytes`](NdefMessage::to_bytes) is this over a fresh `Vec`.
    pub fn to_bytes_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.encoded_len());
        let last = self.records.len() - 1;
        for (i, record) in self.records.iter().enumerate() {
            encode_wire_record(
                out,
                i == 0,
                i == last,
                false,
                record.tnf().bits(),
                record.record_type(),
                record.id(),
                record.payload(),
            );
        }
    }

    /// Encodes the message, splitting any payload larger than `max_chunk`
    /// bytes into a chunked record sequence (`CF` + `TNF_UNCHANGED`).
    ///
    /// Chunked encoding exists so transports with small frame limits can
    /// stream a large record; [`NdefMessage::parse`] transparently
    /// reassembles the sequence.
    ///
    /// # Panics
    ///
    /// Panics if `max_chunk` is zero.
    pub fn to_bytes_chunked(&self, max_chunk: usize) -> Vec<u8> {
        assert!(max_chunk > 0, "max_chunk must be positive");
        let mut out = Vec::new();
        let last = self.records.len() - 1;
        for (i, record) in self.records.iter().enumerate() {
            let mb = i == 0;
            let me = i == last;
            let payload = record.payload();
            if payload.len() <= max_chunk {
                encode_wire_record(
                    &mut out,
                    mb,
                    me,
                    false,
                    record.tnf().bits(),
                    record.record_type(),
                    record.id(),
                    payload,
                );
            } else {
                let chunks: Vec<&[u8]> = payload.chunks(max_chunk).collect();
                let last_chunk = chunks.len() - 1;
                for (c, chunk) in chunks.iter().enumerate() {
                    let initial = c == 0;
                    let terminal = c == last_chunk;
                    encode_wire_record(
                        &mut out,
                        mb && initial,
                        me && terminal,
                        !terminal,
                        if initial { record.tnf().bits() } else { Tnf::Unchanged.bits() },
                        if initial { record.record_type() } else { &[] },
                        if initial { record.id() } else { &[] },
                        chunk,
                    );
                }
            }
        }
        out
    }

    /// Decodes a message from its binary wire form, reassembling chunked
    /// record sequences into logical records.
    ///
    /// # Errors
    ///
    /// Any violation of the NDEF structural rules is reported with a
    /// specific [`NdefError`]: truncated input, reserved TNF, misplaced
    /// begin/end flags, malformed chunk sequences, trailing bytes, or
    /// oversized length fields.
    pub fn parse(data: &[u8]) -> Result<NdefMessage, NdefError> {
        let mut cursor = Cursor { data, pos: 0 };
        let mut records = Vec::new();
        let mut chunk: Option<ChunkState> = None;
        let mut saw_end = false;
        let mut first = true;

        while !saw_end {
            if !first && cursor.pos == data.len() {
                // The input ran out cleanly on a record boundary without
                // any record carrying ME: either a chunk sequence cut
                // off mid-stream or a message whose tail records were
                // lost. Both must be structural errors, not EOF noise —
                // and never a silently shortened message.
                return Err(if chunk.is_some() {
                    NdefError::UnterminatedChunk
                } else {
                    NdefError::MissingMessageEnd
                });
            }
            let wire = cursor.read_wire_record()?;
            if first {
                if !wire.mb {
                    return Err(NdefError::MissingMessageBegin);
                }
                first = false;
            } else if wire.mb {
                return Err(NdefError::DuplicateMessageBegin);
            }
            saw_end = wire.me;

            match (&mut chunk, wire.tnf) {
                (None, Tnf::Unchanged) => return Err(NdefError::UnexpectedUnchanged),
                (None, tnf) => {
                    if wire.cf {
                        if wire.me {
                            // A chunk sequence cannot end the message on its
                            // initial chunk.
                            return Err(NdefError::UnterminatedChunk);
                        }
                        chunk = Some(ChunkState {
                            tnf,
                            record_type: wire.record_type,
                            id: wire.id,
                            payload: wire.payload,
                        });
                    } else {
                        records.push(build_record(tnf, wire.record_type, wire.id, wire.payload)?);
                    }
                }
                (Some(state), Tnf::Unchanged) => {
                    if !wire.record_type.is_empty() || !wire.id.is_empty() {
                        return Err(NdefError::ChunkWithType);
                    }
                    if state.payload.len() + wire.payload.len() > MAX_PAYLOAD_LEN {
                        return Err(NdefError::PayloadTooLarge {
                            declared: state.payload.len() + wire.payload.len(),
                        });
                    }
                    state.payload.extend_from_slice(&wire.payload);
                    if !wire.cf {
                        let done = chunk.take().expect("chunk state present");
                        records.push(build_record(
                            done.tnf,
                            done.record_type,
                            done.id,
                            done.payload,
                        )?);
                    } else if wire.me {
                        return Err(NdefError::UnterminatedChunk);
                    }
                }
                (Some(_), _) => return Err(NdefError::UnterminatedChunk),
            }
        }

        if chunk.is_some() {
            return Err(NdefError::UnterminatedChunk);
        }
        if cursor.pos != data.len() {
            return Err(NdefError::TrailingData { trailing: data.len() - cursor.pos });
        }
        if records.is_empty() {
            // Unreachable with the flag rules above, but keep the invariant airtight.
            return Err(NdefError::MissingMessageEnd);
        }
        Ok(NdefMessage { records })
    }
}

impl From<NdefRecord> for NdefMessage {
    fn from(record: NdefRecord) -> NdefMessage {
        NdefMessage::single(record)
    }
}

impl<'a> IntoIterator for &'a NdefMessage {
    type Item = &'a NdefRecord;
    type IntoIter = std::slice::Iter<'a, NdefRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

impl IntoIterator for NdefMessage {
    type Item = NdefRecord;
    type IntoIter = std::vec::IntoIter<NdefRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.into_iter()
    }
}

impl FromIterator<NdefRecord> for NdefMessage {
    fn from_iter<I: IntoIterator<Item = NdefRecord>>(iter: I) -> NdefMessage {
        NdefMessage::new(iter.into_iter().collect())
    }
}

fn build_record(
    tnf: Tnf,
    record_type: Vec<u8>,
    id: Vec<u8>,
    payload: Vec<u8>,
) -> Result<NdefRecord, NdefError> {
    NdefRecord::new(tnf, record_type, id, payload)
}

struct ChunkState {
    tnf: Tnf,
    record_type: Vec<u8>,
    id: Vec<u8>,
    payload: Vec<u8>,
}

struct WireRecord {
    mb: bool,
    me: bool,
    cf: bool,
    tnf: Tnf,
    record_type: Vec<u8>,
    id: Vec<u8>,
    payload: Vec<u8>,
}

struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], NdefError> {
        if self.pos + n > self.data.len() {
            return Err(NdefError::UnexpectedEof { needed: self.pos + n - self.data.len() });
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn read_u8(&mut self) -> Result<u8, NdefError> {
        Ok(self.take(1)?[0])
    }

    fn read_wire_record(&mut self) -> Result<WireRecord, NdefError> {
        let header = self.read_u8()?;
        let tnf = Tnf::from_bits(header & TNF_MASK)?;
        let type_len = self.read_u8()? as usize;
        let payload_len = if header & FLAG_SR != 0 {
            self.read_u8()? as usize
        } else {
            let b = self.take(4)?;
            u32::from_be_bytes([b[0], b[1], b[2], b[3]]) as usize
        };
        if payload_len > MAX_PAYLOAD_LEN {
            return Err(NdefError::PayloadTooLarge { declared: payload_len });
        }
        let id_len = if header & FLAG_IL != 0 { self.read_u8()? as usize } else { 0 };
        let record_type = self.take(type_len)?.to_vec();
        let id = self.take(id_len)?.to_vec();
        let payload = self.take(payload_len)?.to_vec();
        Ok(WireRecord {
            mb: header & FLAG_MB != 0,
            me: header & FLAG_ME != 0,
            cf: header & FLAG_CF != 0,
            tnf,
            record_type,
            id,
            payload,
        })
    }
}

#[allow(clippy::too_many_arguments)]
fn encode_wire_record(
    out: &mut Vec<u8>,
    mb: bool,
    me: bool,
    cf: bool,
    tnf_bits: u8,
    record_type: &[u8],
    id: &[u8],
    payload: &[u8],
) {
    let short = payload.len() <= u8::MAX as usize;
    let mut header = tnf_bits;
    if mb {
        header |= FLAG_MB;
    }
    if me {
        header |= FLAG_ME;
    }
    if cf {
        header |= FLAG_CF;
    }
    if short {
        header |= FLAG_SR;
    }
    if !id.is_empty() {
        header |= FLAG_IL;
    }
    out.push(header);
    out.push(record_type.len() as u8);
    if short {
        out.push(payload.len() as u8);
    } else {
        out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    }
    if !id.is_empty() {
        out.push(id.len() as u8);
    }
    out.extend_from_slice(record_type);
    out.extend_from_slice(id);
    out.extend_from_slice(payload);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mime(t: &str, p: &[u8]) -> NdefRecord {
        NdefRecord::mime(t, p.to_vec()).unwrap()
    }

    #[test]
    fn round_trip_single_record() {
        let msg = NdefMessage::single(mime("text/plain", b"hello"));
        let parsed = NdefMessage::parse(&msg.to_bytes()).unwrap();
        assert_eq!(parsed, msg);
    }

    #[test]
    fn round_trip_multi_record() {
        let msg = NdefMessage::new(vec![
            mime("text/plain", b"one"),
            NdefRecord::well_known(b"T", vec![0x02, b'e', b'n', b'h', b'i']).unwrap(),
            NdefRecord::external("ex.com:t", vec![1, 2, 3]).unwrap(),
        ]);
        assert_eq!(NdefMessage::parse(&msg.to_bytes()).unwrap(), msg);
    }

    #[test]
    fn to_bytes_into_appends_and_matches_to_bytes() {
        let msg = NdefMessage::new(vec![mime("text/plain", b"one"), mime("a/b", b"two")]);
        let mut buf = vec![0xEE];
        msg.to_bytes_into(&mut buf);
        assert_eq!(buf[0], 0xEE, "existing content is preserved");
        assert_eq!(&buf[1..], msg.to_bytes().as_slice());
        // A reused scratch buffer with enough capacity never reallocates.
        buf.clear();
        buf.reserve(msg.encoded_len());
        let cap = buf.capacity();
        msg.to_bytes_into(&mut buf);
        assert_eq!(buf.capacity(), cap);
        assert_eq!(buf, msg.to_bytes());
    }

    #[test]
    fn empty_vector_normalizes_to_blank() {
        let msg = NdefMessage::new(Vec::new());
        assert!(msg.is_blank());
        assert_eq!(NdefMessage::parse(&msg.to_bytes()).unwrap(), msg);
    }

    #[test]
    fn long_payload_uses_long_record_form() {
        let payload = vec![0xAB; 700];
        let msg = NdefMessage::single(mime("application/octet-stream", &payload));
        let bytes = msg.to_bytes();
        // SR flag must be clear on the first header byte.
        assert_eq!(bytes[0] & FLAG_SR, 0);
        assert_eq!(NdefMessage::parse(&bytes).unwrap(), msg);
    }

    #[test]
    fn chunked_encoding_reassembles() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let msg = NdefMessage::new(vec![mime("a/b", &payload), mime("c/d", b"tail")]);
        for chunk_size in [1usize, 7, 100, 255, 256, 999, 1000, 5000] {
            let bytes = msg.to_bytes_chunked(chunk_size);
            let parsed = NdefMessage::parse(&bytes)
                .unwrap_or_else(|e| panic!("chunk size {chunk_size}: {e}"));
            assert_eq!(parsed, msg, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn chunked_encoding_of_small_payload_is_plain() {
        let msg = NdefMessage::single(mime("a/b", b"xy"));
        assert_eq!(msg.to_bytes_chunked(16), msg.to_bytes());
    }

    #[test]
    #[should_panic(expected = "max_chunk must be positive")]
    fn zero_chunk_size_panics() {
        NdefMessage::single(mime("a/b", b"xy")).to_bytes_chunked(0);
    }

    #[test]
    fn parse_rejects_truncation_at_every_boundary() {
        let msg = NdefMessage::new(vec![mime("text/plain", b"payload-bytes")]);
        let bytes = msg.to_bytes();
        for cut in 0..bytes.len() {
            let err = NdefMessage::parse(&bytes[..cut]).unwrap_err();
            assert!(matches!(err, NdefError::UnexpectedEof { .. }), "cut at {cut} gave {err:?}");
        }
    }

    #[test]
    fn parse_rejects_trailing_data() {
        let mut bytes = NdefMessage::single(mime("a/b", b"x")).to_bytes();
        bytes.push(0xFF);
        assert_eq!(
            NdefMessage::parse(&bytes).unwrap_err(),
            NdefError::TrailingData { trailing: 1 }
        );
    }

    #[test]
    fn parse_rejects_missing_message_begin() {
        let mut bytes = NdefMessage::single(mime("a/b", b"x")).to_bytes();
        bytes[0] &= !FLAG_MB;
        assert_eq!(NdefMessage::parse(&bytes).unwrap_err(), NdefError::MissingMessageBegin);
    }

    #[test]
    fn parse_rejects_duplicate_message_begin() {
        let msg = NdefMessage::new(vec![mime("a/b", b"x"), mime("a/b", b"y")]);
        let mut bytes = msg.to_bytes();
        // Second record starts after the first record's encoding.
        let second = msg.records()[0].encoded_len();
        bytes[second] |= FLAG_MB;
        assert_eq!(NdefMessage::parse(&bytes).unwrap_err(), NdefError::DuplicateMessageBegin);
    }

    #[test]
    fn parse_rejects_reserved_tnf() {
        let mut bytes = NdefMessage::single(mime("a/b", b"x")).to_bytes();
        bytes[0] = (bytes[0] & !TNF_MASK) | 0x07;
        assert_eq!(NdefMessage::parse(&bytes).unwrap_err(), NdefError::ReservedTnf);
    }

    #[test]
    fn parse_rejects_bare_unchanged_record() {
        // Hand-encode a lone TNF_UNCHANGED record with MB|ME|SR set.
        let bytes = vec![FLAG_MB | FLAG_ME | FLAG_SR | 0x06, 0, 0];
        assert_eq!(NdefMessage::parse(&bytes).unwrap_err(), NdefError::UnexpectedUnchanged);
    }

    #[test]
    fn parse_rejects_unterminated_chunk() {
        // Initial chunk (CF=1, MB=1) followed by message end on a CF=1 chunk.
        let mut bytes = Vec::new();
        encode_wire_record(
            &mut bytes,
            true,
            false,
            true,
            Tnf::MimeMedia.bits(),
            b"a/b",
            &[],
            b"xx",
        );
        encode_wire_record(&mut bytes, false, true, true, Tnf::Unchanged.bits(), &[], &[], b"yy");
        assert_eq!(NdefMessage::parse(&bytes).unwrap_err(), NdefError::UnterminatedChunk);
    }

    #[test]
    fn parse_rejects_chunk_sequence_cut_at_a_record_boundary() {
        // Initial chunk plus one middle chunk, then the input simply
        // stops — every record parses, but the sequence never ends.
        let mut bytes = Vec::new();
        encode_wire_record(
            &mut bytes,
            true,
            false,
            true,
            Tnf::MimeMedia.bits(),
            b"a/b",
            &[],
            b"xx",
        );
        encode_wire_record(&mut bytes, false, false, true, Tnf::Unchanged.bits(), &[], &[], b"yy");
        assert_eq!(NdefMessage::parse(&bytes).unwrap_err(), NdefError::UnterminatedChunk);
    }

    #[test]
    fn parse_rejects_message_without_message_end() {
        // Two complete records, neither carrying ME: the wire form of a
        // message whose tail records were lost. This must not decode as
        // a silently shortened message.
        let mut bytes = Vec::new();
        encode_wire_record(
            &mut bytes,
            true,
            false,
            false,
            Tnf::MimeMedia.bits(),
            b"a/b",
            &[],
            b"x",
        );
        encode_wire_record(
            &mut bytes,
            false,
            false,
            false,
            Tnf::MimeMedia.bits(),
            b"c/d",
            &[],
            b"y",
        );
        assert_eq!(NdefMessage::parse(&bytes).unwrap_err(), NdefError::MissingMessageEnd);
    }

    #[test]
    fn parse_rejects_chunk_with_type() {
        let mut bytes = Vec::new();
        encode_wire_record(
            &mut bytes,
            true,
            false,
            true,
            Tnf::MimeMedia.bits(),
            b"a/b",
            &[],
            b"xx",
        );
        encode_wire_record(
            &mut bytes,
            false,
            true,
            false,
            Tnf::Unchanged.bits(),
            b"zz",
            &[],
            b"yy",
        );
        assert_eq!(NdefMessage::parse(&bytes).unwrap_err(), NdefError::ChunkWithType);
    }

    #[test]
    fn parse_rejects_oversized_declared_payload() {
        // Long-form record declaring a 2 MiB payload.
        let mut bytes = vec![FLAG_MB | FLAG_ME | 0x02, 1];
        bytes.extend_from_slice(&(2u32 * 1024 * 1024).to_be_bytes());
        bytes.push(b'a');
        assert!(matches!(
            NdefMessage::parse(&bytes).unwrap_err(),
            NdefError::PayloadTooLarge { .. }
        ));
    }

    #[test]
    fn records_with_ids_round_trip() {
        let r = NdefRecordBuilderHelper::with_id();
        let msg = NdefMessage::single(r);
        assert_eq!(NdefMessage::parse(&msg.to_bytes()).unwrap(), msg);
    }

    struct NdefRecordBuilderHelper;
    impl NdefRecordBuilderHelper {
        fn with_id() -> NdefRecord {
            crate::NdefRecordBuilder::new(Tnf::MimeMedia)
                .record_type(b"a/b")
                .id(b"identifier")
                .payload(b"data".to_vec())
                .build()
                .unwrap()
        }
    }

    #[test]
    fn iteration_and_collect() {
        let msg: NdefMessage = vec![mime("a/b", b"1"), mime("c/d", b"2")].into_iter().collect();
        assert_eq!(msg.records().len(), 2);
        let types: Vec<_> = msg.iter().map(|r| r.record_type_str().unwrap()).collect();
        assert_eq!(types, ["a/b", "c/d"]);
        let owned: Vec<NdefRecord> = msg.clone().into_iter().collect();
        assert_eq!(owned, msg.records());
        let borrowed: Vec<&NdefRecord> = (&msg).into_iter().collect();
        assert_eq!(borrowed.len(), 2);
    }

    #[test]
    fn from_record_makes_single_message() {
        let msg: NdefMessage = mime("a/b", b"1").into();
        assert_eq!(msg.records().len(), 1);
        assert_eq!(msg.first(), &mime("a/b", b"1"));
    }

    #[test]
    fn encoded_len_matches_encoding() {
        let msg = NdefMessage::new(vec![
            mime("text/plain", b"one"),
            NdefRecord::absolute_uri("https://e.com").unwrap(),
            mime("application/octet-stream", &vec![0u8; 300]),
        ]);
        assert_eq!(msg.encoded_len(), msg.to_bytes().len());
    }
}
