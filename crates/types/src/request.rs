//! Client requests.

use crate::ids::{ClientId, RequestId};
use crate::wire::{Decode, DecodeError, Encode, WireReader, WireSize, WireWriter};
use leopard_crypto::{hash_bytes, Digest};

/// The payload carried by a request.
///
/// Large-scale simulations (hundreds of replicas, millions of requests) do not
/// materialise payload bytes; they only carry the declared size so that bandwidth
/// accounting stays exact while memory stays bounded. Correctness tests use inline
/// payloads end-to-end.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RequestPayload {
    /// Real bytes, hashed into the request digest.
    Inline(Vec<u8>),
    /// A synthetic payload of the given size in bytes; contents are implied to be the
    /// request id repeated, so two synthetic requests with the same id and size are
    /// identical.
    Synthetic {
        /// Declared size of the payload in bytes.
        size: u32,
    },
}

impl RequestPayload {
    /// Size of the payload in bytes.
    pub fn len(&self) -> usize {
        match self {
            RequestPayload::Inline(bytes) => bytes.len(),
            RequestPayload::Synthetic { size } => *size as usize,
        }
    }

    /// Returns true for a zero-length payload.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A client request (`req` in the paper): the unit whose confirmation the protocol's
/// throughput counts.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Request {
    /// Globally unique identifier.
    pub id: RequestId,
    /// The operation payload.
    pub payload: RequestPayload,
}

impl Request {
    /// Creates a request with an inline payload.
    pub fn new_inline(client: ClientId, seq: u64, payload: Vec<u8>) -> Self {
        Self {
            id: RequestId::new(client, seq),
            payload: RequestPayload::Inline(payload),
        }
    }

    /// Creates a request with a synthetic payload of `size` bytes.
    pub fn new_synthetic(client: ClientId, seq: u64, size: u32) -> Self {
        Self {
            id: RequestId::new(client, seq),
            payload: RequestPayload::Synthetic { size },
        }
    }

    /// A collision-resistant digest of the request, for deduplication.
    pub fn digest(&self) -> Digest {
        hash_bytes(&self.encode_to_vec())
    }
}

impl Request {
    /// Length in bytes of [`Encode::encode`]'s output for this request, computed
    /// without encoding. Differs from [`WireSize::wire_size`] for synthetic payloads:
    /// the declared payload bytes are charged on the wire but not materialised by the
    /// codec (see [`RequestPayload::Synthetic`]).
    pub fn encoded_len(&self) -> usize {
        match &self.payload {
            RequestPayload::Inline(bytes) => 4 + 8 + 1 + 4 + bytes.len(),
            RequestPayload::Synthetic { .. } => 4 + 8 + 1 + 4,
        }
    }
}

impl WireSize for Request {
    fn wire_size(&self) -> usize {
        // id (client u32 + seq u64) + payload tag + length + payload bytes
        4 + 8 + 1 + 4 + self.payload.len()
    }
}

impl Encode for Request {
    fn encode(&self, writer: &mut WireWriter) {
        writer.put_u32(self.id.client.0);
        writer.put_u64(self.id.seq);
        match &self.payload {
            RequestPayload::Inline(bytes) => {
                writer.put_u8(0);
                writer.put_bytes(bytes);
            }
            RequestPayload::Synthetic { size } => {
                writer.put_u8(1);
                writer.put_u32(*size);
            }
        }
    }
}

impl Decode for Request {
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        let client = ClientId(reader.get_u32("request.client")?);
        let seq = reader.get_u64("request.seq")?;
        let tag = reader.get_u8("request.payload_tag")?;
        let payload = match tag {
            0 => RequestPayload::Inline(reader.get_bytes("request.payload")?),
            1 => RequestPayload::Synthetic {
                size: reader.get_u32("request.synthetic_size")?,
            },
            _ => return Err(DecodeError::new("request.payload_tag")),
        };
        Ok(Request {
            id: RequestId::new(client, seq),
            payload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn inline_request_roundtrip() {
        let request = Request::new_inline(ClientId(7), 42, b"transfer 10 coins".to_vec());
        let bytes = request.encode_to_vec();
        assert_eq!(Request::decode_from_slice(&bytes).unwrap(), request);
        assert_eq!(request.payload.len(), 17);
        assert!(!request.payload.is_empty());
    }

    #[test]
    fn synthetic_request_roundtrip_and_digest_stability() {
        let a = Request::new_synthetic(ClientId(1), 5, 128);
        let b = Request::new_synthetic(ClientId(1), 5, 128);
        assert_eq!(a.digest(), b.digest());
        let bytes = a.encode_to_vec();
        assert_eq!(Request::decode_from_slice(&bytes).unwrap(), a);
    }

    #[test]
    fn wire_size_of_inline_matches_encoding_length() {
        let request = Request::new_inline(ClientId(3), 9, vec![0u8; 300]);
        assert_eq!(request.wire_size(), request.encode_to_vec().len());
    }

    #[test]
    fn malformed_payload_tag_is_rejected() {
        let mut bytes = Request::new_synthetic(ClientId(1), 1, 8).encode_to_vec();
        // Corrupt the payload tag (client u32 + seq u64 = offset 12).
        bytes[12] = 9;
        assert!(Request::decode_from_slice(&bytes).is_err());
    }

    proptest! {
        #[test]
        fn roundtrip_any_inline_request(
            client in any::<u32>(),
            seq in any::<u64>(),
            payload in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            let request = Request::new_inline(ClientId(client), seq, payload);
            let bytes = request.encode_to_vec();
            prop_assert_eq!(request.wire_size(), bytes.len());
            prop_assert_eq!(Request::decode_from_slice(&bytes).unwrap(), request);
        }

        #[test]
        fn digests_differ_for_different_requests(
            seq_a in any::<u64>(),
            seq_b in any::<u64>(),
        ) {
            prop_assume!(seq_a != seq_b);
            let a = Request::new_synthetic(ClientId(1), seq_a, 128);
            let b = Request::new_synthetic(ClientId(1), seq_b, 128);
            prop_assert_ne!(a.digest(), b.digest());
        }
    }
}
