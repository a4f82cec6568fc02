//! Client requests, and the run of consecutive requests every batch is. Payloads are
//! synthetic: their declared size is carried and charged, their bytes never exist.

use crate::ids::{ClientId, RequestId};
use crate::wire::{DecodeError, WireReader, WireWriter};

/// Bytes of one request's record (see [`RequestRun::encode`]).
const RECORD_LEN: usize = 4 + 8 + 1 + 4;

/// A client request (`req` in the paper): the unit whose confirmation the protocol's
/// throughput counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Request {
    /// Globally unique identifier.
    pub id: RequestId,
    /// Declared payload size in bytes.
    pub size: u32,
}

impl Request {
    /// Creates a request with a synthetic payload of `size` bytes.
    pub fn new_synthetic(client: ClientId, seq: u64, size: u32) -> Self {
        Self {
            id: RequestId::new(client, seq),
            size,
        }
    }
}

/// A batch as every producer packs one: `count` requests of one client with
/// consecutive sequence numbers from `first_seq`, each carrying `size` payload bytes.
///
/// It encodes to one 17-byte record per request, the payload bytes being charged by
/// [`Self::wire_size`] but never materialised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RequestRun {
    /// The submitting client.
    pub client: ClientId,
    /// Sequence number of the first request.
    pub first_seq: u64,
    /// Number of requests.
    pub count: u32,
    /// Payload size of every request in bytes.
    pub size: u32,
}

impl RequestRun {
    /// Number of requests.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// True for a run of no requests.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Total payload bytes, `count · size`.
    pub fn payload_bytes(&self) -> usize {
        self.len() * self.size as usize
    }

    /// Bytes the wire charges: every record plus its declared payload.
    pub fn wire_size(&self) -> usize {
        self.len() * (RECORD_LEN + self.size as usize)
    }

    /// Length in bytes of [`Self::encode`]'s output.
    pub fn encoded_len(&self) -> usize {
        self.len() * RECORD_LEN
    }

    /// The requests' sequence numbers, ascending.
    pub fn seqs(&self) -> impl Iterator<Item = u64> {
        let first = self.first_seq;
        (0..u64::from(self.count)).map(move |i| first + i)
    }

    /// Writes one record per request: client u32, seq u64, payload tag u8 = 1
    /// ("synthetic"), size u32, all little-endian.
    ///
    /// One pass: the writer grows once, by [`Self::encoded_len`], and one record is
    /// built up front; each request overwrites its sequence number and copies the
    /// record out. Every datablock digest and every real-crypto retrieval encodes
    /// through here.
    pub fn encode(&self, writer: &mut WireWriter) {
        let mut record = [0; RECORD_LEN];
        record[..4].copy_from_slice(&self.client.0.to_le_bytes());
        record[12] = 1;
        record[13..].copy_from_slice(&self.size.to_le_bytes());
        writer.reserve(self.encoded_len());
        for seq in self.seqs() {
            record[4..12].copy_from_slice(&seq.to_le_bytes());
            writer.put_raw(&record);
        }
    }

    /// Reads `count` records. Truncated input, a payload tag other than 1 and a record
    /// that does not continue the run are a [`DecodeError`].
    pub fn decode(reader: &mut WireReader<'_>, count: u32) -> Result<Self, DecodeError> {
        let mut run = Self::default();
        for _ in 0..count {
            let client = ClientId(reader.get_u32("request.client")?);
            let seq = reader.get_u64("request.seq")?;
            if reader.get_u8("request.payload_tag")? != 1 {
                return Err(DecodeError::new("request.payload_tag"));
            }
            let size = reader.get_u32("request.size")?;
            if !run.push(Request::new_synthetic(client, seq, size)) {
                return Err(DecodeError::new("request run"));
            }
        }
        Ok(run)
    }

    /// Appends `request` if it continues the run — same client, same size, the next
    /// sequence number — or the run is empty; otherwise returns false and leaves the
    /// run as it was.
    fn push(&mut self, request: Request) -> bool {
        let RequestId { client, seq } = request.id;
        if self.is_empty() {
            *self = Self { client, first_seq: seq, count: 1, size: request.size };
            return true;
        }
        let next = self.first_seq.checked_add(u64::from(self.count));
        let continues = client == self.client && request.size == self.size && next == Some(seq);
        self.count += u32::from(continues);
        continues
    }
}

/// Folds requests into one run; panics naming the first one that does not continue it.
impl FromIterator<Request> for RequestRun {
    fn from_iter<I: IntoIterator<Item = Request>>(requests: I) -> Self {
        let mut run = Self::default();
        for (index, request) in requests.into_iter().enumerate() {
            assert!(run.push(request), "request {index} ({}) does not continue {run:?}", request.id);
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leopard_crypto::hash_bytes;
    use proptest::prelude::*;

    fn run(first_seq: u64, count: u32) -> RequestRun {
        RequestRun { client: ClientId(3), first_seq, count, size: 128 }
    }

    fn encode(run: &RequestRun) -> Vec<u8> {
        let mut writer = WireWriter::new();
        run.encode(&mut writer);
        writer.into_bytes()
    }

    /// The reference for [`RequestRun::encode`]: the per-field encoder it replaced,
    /// four `put_*` calls per request into a writer that grows as it goes.
    fn encode_per_field(run: &RequestRun, writer: &mut WireWriter) {
        for seq in run.seqs() {
            writer.put_u32(run.client.0);
            writer.put_u64(seq);
            writer.put_u8(1);
            writer.put_u32(run.size);
        }
    }

    /// Encodes a run of four, lets `corrupt` change the record at `index`, and decodes.
    fn decode_corrupted(index: usize, corrupt: impl Fn(&mut [u8])) -> Result<RequestRun, DecodeError> {
        let mut bytes = encode(&run(40, 4));
        corrupt(&mut bytes[index * RECORD_LEN..(index + 1) * RECORD_LEN]);
        RequestRun::decode(&mut WireReader::new(&bytes), 4)
    }

    #[test]
    fn sizes_are_arithmetic() {
        let run = run(40, 5);
        assert_eq!((run.len(), run.payload_bytes()), (5, 5 * 128));
        assert_eq!((run.encoded_len(), run.wire_size()), (5 * 17, 5 * (17 + 128)));
        assert_eq!(run.seqs().collect::<Vec<_>>(), vec![40, 41, 42, 43, 44]);
        assert!(!run.is_empty() && RequestRun::default().is_empty());
    }

    #[test]
    fn synthetic_request_roundtrip_and_digest_stability() {
        let bytes = encode(&run(5, 3));
        assert_eq!(bytes, encode(&run(5, 3)));
        assert_eq!(RequestRun::decode(&mut WireReader::new(&bytes), 3), Ok(run(5, 3)));
        // The record layout: client, seq, payload tag 1, size.
        assert_eq!(bytes[..RECORD_LEN], [3, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 1, 128, 0, 0, 0]);
    }

    #[test]
    fn malformed_payload_tag_is_rejected() {
        // Tag 0 was the retired inline-payload format; only 1 ("synthetic") decodes.
        for tag in [0, 2, 9] {
            let got = decode_corrupted(0, |record| record[12] = tag);
            assert_eq!(got, Err(DecodeError::new("request.payload_tag")));
        }
    }

    #[test]
    fn decode_rejects_every_record_that_breaks_the_run() {
        assert_eq!(decode_corrupted(2, |_| {}), Ok(run(40, 4)));
        let broken = Err(DecodeError::new("request run"));
        assert_eq!(decode_corrupted(2, |record| record[0] ^= 1), broken, "another client");
        assert_eq!(decode_corrupted(1, |record| record[4] ^= 8), broken, "a seq gap");
        assert_eq!(decode_corrupted(3, |record| record[13] ^= 1), broken, "another size");
    }

    #[test]
    #[should_panic(expected = "request 2 (c3:43) does not continue")]
    fn collecting_a_non_run_names_the_breaking_request() {
        let _: RequestRun = [40, 41, 43]
            .into_iter()
            .map(|seq| Request::new_synthetic(ClientId(3), seq, 128))
            .collect();
    }

    proptest! {
        #[test]
        fn any_run_roundtrips_and_is_what_its_requests_collect_to(
            client in any::<u32>(),
            first_seq in 0..u64::MAX / 2,
            count in 1u32..300,
            size in any::<u32>(),
        ) {
            let run = RequestRun { client: ClientId(client), first_seq, count, size };
            let bytes = encode(&run);
            prop_assert_eq!(bytes.len(), run.encoded_len());
            let mut reader = WireReader::new(&bytes);
            prop_assert_eq!(RequestRun::decode(&mut reader, count).unwrap(), run);
            prop_assert!(reader.is_exhausted());
            let collected: RequestRun = run
                .seqs()
                .map(|seq| Request::new_synthetic(run.client, seq, run.size))
                .collect();
            prop_assert_eq!(collected, run);
        }

        /// Byte for byte what the per-field reference writes, behind a datablock's
        /// 16-byte header as `Datablock::encode` writes it, for runs of 0, 1 and up to
        /// 299 requests, half of them ending within a million of `u64::MAX`.
        #[test]
        fn one_pass_encoding_matches_the_per_field_reference(
            client in any::<u32>(),
            count in (0u32..4, 2u32..300).prop_map(|(pick, n)| if pick < 2 { pick } else { n }),
            seq_from in (any::<bool>(), 0u64..1_000_000),
            size in any::<u32>(),
        ) {
            let (at_top, offset) = seq_from;
            let first_seq = if at_top {
                u64::MAX - u64::from(count.saturating_sub(1)) - offset
            } else {
                offset
            };
            let run = RequestRun { client: ClientId(client), first_seq, count, size };
            let header = |writer: &mut WireWriter| {
                writer.put_u32(7);
                writer.put_u64(first_seq);
                writer.put_u32(count);
            };
            let (mut one_pass, mut reference) = (WireWriter::new(), WireWriter::new());
            header(&mut one_pass);
            header(&mut reference);
            run.encode(&mut one_pass);
            encode_per_field(&run, &mut reference);
            let bytes = one_pass.into_bytes();
            prop_assert_eq!(bytes.len(), 16 + run.encoded_len());
            prop_assert_eq!(&bytes, &reference.into_bytes());
            // An empty run carries no client, seq or size: it decodes to the default.
            let decoded = if count == 0 { RequestRun::default() } else { run };
            let mut reader = WireReader::new(&bytes[16..]);
            prop_assert_eq!(RequestRun::decode(&mut reader, count).unwrap(), decoded);
            prop_assert!(reader.is_exhausted());
        }

        #[test]
        fn digests_differ_for_different_requests(
            seq_a in any::<u32>(),
            seq_b in any::<u32>(),
        ) {
            prop_assume!(seq_a != seq_b);
            let a = hash_bytes(&encode(&run(u64::from(seq_a), 2)));
            let b = hash_bytes(&encode(&run(u64::from(seq_b), 2)));
            prop_assert_ne!(a, b);
        }
    }
}
