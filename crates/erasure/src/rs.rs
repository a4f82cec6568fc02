//! Systematic Reed–Solomon encoder/decoder.

use crate::gf256;
use crate::matrix::Matrix;
use std::fmt;

/// Errors returned by [`ReedSolomon`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErasureError {
    /// `data_shards` or `total_shards` was zero, or `data_shards > total_shards`, or
    /// `total_shards > 256`.
    InvalidParameters {
        /// Requested number of data shards.
        data_shards: usize,
        /// Requested total number of shards.
        total_shards: usize,
    },
    /// Fewer than `data_shards` shards were supplied to the decoder.
    NotEnoughShards {
        /// Number of shards supplied.
        got: usize,
        /// Number of shards needed.
        need: usize,
    },
    /// A shard index was `>= total_shards` or supplied twice.
    BadShardIndex(usize),
    /// The supplied shards do not all have the same length.
    InconsistentShardLength,
    /// The requested payload length exceeds what the shards can carry.
    PayloadTooLong {
        /// Requested payload length.
        requested: usize,
        /// Maximum length the decoded shards can carry.
        available: usize,
    },
}

impl fmt::Display for ErasureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErasureError::InvalidParameters {
                data_shards,
                total_shards,
            } => write!(
                f,
                "invalid erasure-code parameters: data_shards={data_shards}, total_shards={total_shards}"
            ),
            ErasureError::NotEnoughShards { got, need } => {
                write!(f, "not enough shards to decode: got {got}, need {need}")
            }
            ErasureError::BadShardIndex(index) => write!(f, "bad or duplicate shard index {index}"),
            ErasureError::InconsistentShardLength => {
                write!(f, "shards do not all have the same length")
            }
            ErasureError::PayloadTooLong {
                requested,
                available,
            } => write!(
                f,
                "requested payload length {requested} exceeds decoded capacity {available}"
            ),
        }
    }
}

impl std::error::Error for ErasureError {}

/// A systematic `(data_shards, total_shards)` Reed–Solomon code over GF(2^8).
///
/// The first `data_shards` output shards are the original data split into equal pieces;
/// the remaining `total_shards - data_shards` are parity. Any `data_shards` shards
/// reconstruct the input. In Leopard's retrieval mechanism `data_shards = f + 1` and
/// `total_shards = n = 3f + 1`.
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    data_shards: usize,
    total_shards: usize,
    /// `total_shards x data_shards` encoding matrix whose top square block is the
    /// identity (systematic form).
    encoding: Matrix,
}

impl ReedSolomon {
    /// The most shards a code over GF(2^8) can have: one distinct evaluation point per
    /// field element.
    pub const MAX_SHARDS: usize = 256;

    /// Creates a code with the given parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ErasureError::InvalidParameters`] unless
    /// `0 < data_shards <= total_shards <=` [`Self::MAX_SHARDS`].
    pub fn new(data_shards: usize, total_shards: usize) -> Result<Self, ErasureError> {
        if data_shards == 0
            || total_shards == 0
            || data_shards > total_shards
            || total_shards > Self::MAX_SHARDS
        {
            return Err(ErasureError::InvalidParameters {
                data_shards,
                total_shards,
            });
        }
        // Vandermonde matrix, then normalise so the top k x k block is the identity;
        // any k rows of the result remain linearly independent.
        let vandermonde = Matrix::vandermonde(total_shards, data_shards);
        let top: Vec<usize> = (0..data_shards).collect();
        let top_square = vandermonde.select_rows(&top);
        let top_inverse = top_square
            .inverse()
            .expect("Vandermonde top square is always invertible");
        let encoding = vandermonde.multiply(&top_inverse);
        Ok(Self {
            data_shards,
            total_shards,
            encoding,
        })
    }

    /// Number of data shards (`f + 1` in the paper).
    pub fn data_shards(&self) -> usize {
        self.data_shards
    }

    /// Total number of shards (`n` in the paper).
    pub fn total_shards(&self) -> usize {
        self.total_shards
    }

    /// Shard length needed to carry a payload of `payload_len` bytes.
    pub fn shard_len_for(&self, payload_len: usize) -> usize {
        payload_len.div_ceil(self.data_shards).max(1)
    }

    /// Splits a payload into data shards (zero-padded) and encodes the full shard set.
    pub fn encode_payload(&self, payload: &[u8]) -> Vec<Vec<u8>> {
        (0..self.total_shards)
            .map(|index| {
                self.encode_shard(payload, index)
                    .expect("index < total_shards")
            })
            .collect()
    }

    /// Shard `index` of [`Self::encode_payload`]`(payload)`, computed on its own: a data
    /// shard is its zero-padded piece of the payload, a parity shard one
    /// multiply-accumulate per data piece (the padding contributes nothing, so only the
    /// payload bytes are read). Returns `None` if `index >= total_shards`.
    pub fn encode_shard(&self, payload: &[u8], index: usize) -> Option<Vec<u8>> {
        if index >= self.total_shards {
            return None;
        }
        let shard_len = self.shard_len_for(payload.len());
        let piece = |col: usize| {
            let start = (col * shard_len).min(payload.len());
            &payload[start..((col + 1) * shard_len).min(payload.len())]
        };
        let mut shard = vec![0u8; shard_len];
        if index < self.data_shards {
            let data = piece(index);
            shard[..data.len()].copy_from_slice(data);
        } else {
            for col in 0..self.data_shards {
                let data = piece(col);
                gf256::mul_add_slice(
                    &mut shard[..data.len()],
                    data,
                    self.encoding.get(index, col),
                );
            }
        }
        Some(shard)
    }

    /// Reconstructs the `data_shards` original data shards from any `data_shards`
    /// surviving `(index, shard)` pairs; a shard is anything that reads as bytes, so a
    /// caller can decode from borrowed slices without copying them.
    ///
    /// # Errors
    ///
    /// Returns an error if there are not enough shards, indices are out of range or
    /// duplicated, or shard lengths differ.
    pub fn decode_shards<S: AsRef<[u8]>>(
        &self,
        shards: &[(usize, S)],
    ) -> Result<Vec<Vec<u8>>, ErasureError> {
        if shards.len() < self.data_shards {
            return Err(ErasureError::NotEnoughShards {
                got: shards.len(),
                need: self.data_shards,
            });
        }
        let selected = &shards[..self.data_shards];
        let shard_len = selected[0].1.as_ref().len();
        let mut seen = vec![false; self.total_shards];
        for (index, shard) in selected {
            if *index >= self.total_shards || seen[*index] {
                return Err(ErasureError::BadShardIndex(*index));
            }
            seen[*index] = true;
            if shard.as_ref().len() != shard_len {
                return Err(ErasureError::InconsistentShardLength);
            }
        }

        let indices: Vec<usize> = selected.iter().map(|(i, _)| *i).collect();
        let decode_matrix = self
            .encoding
            .select_rows(&indices)
            .inverse()
            .expect("any data_shards rows of the encoding matrix are independent");

        let mut originals = Vec::with_capacity(self.data_shards);
        for row in 0..self.data_shards {
            let mut out = vec![0u8; shard_len];
            for (col, (_, shard)) in selected.iter().enumerate() {
                gf256::mul_add_slice(&mut out, shard.as_ref(), decode_matrix.get(row, col));
            }
            originals.push(out);
        }
        Ok(originals)
    }

    /// Reconstructs a payload of `payload_len` bytes from any `data_shards` surviving
    /// `(index, shard)` pairs.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::decode_shards`] errors and additionally checks that
    /// `payload_len` fits in the decoded shards.
    pub fn decode_payload<S: AsRef<[u8]>>(
        &self,
        shards: &[(usize, S)],
        payload_len: usize,
    ) -> Result<Vec<u8>, ErasureError> {
        self.decode_payload_exact(shards, payload_len)
            .map(|(payload, _)| payload)
    }

    /// [`Self::decode_payload`], plus whether the supplied shards are exactly
    /// [`Self::encode_shard`]`(payload, index)` at their indices: true if they are
    /// [`Self::shard_len_for`]`(payload_len)` bytes long and the padding decodes to
    /// zeros. Shards that decode to the same payload under nonzero padding, or longer
    /// shards, are the code of another input, so other quorums of the same `n` shards
    /// need not decode to this payload.
    ///
    /// # Errors
    ///
    /// As [`Self::decode_payload`].
    pub fn decode_payload_exact<S: AsRef<[u8]>>(
        &self,
        shards: &[(usize, S)],
        payload_len: usize,
    ) -> Result<(Vec<u8>, bool), ErasureError> {
        let data = self.decode_shards(shards)?;
        let available = data.iter().map(|s| s.len()).sum();
        if payload_len > available {
            return Err(ErasureError::PayloadTooLong {
                requested: payload_len,
                available,
            });
        }
        let mut payload = data.concat();
        let exact = data[0].len() == self.shard_len_for(payload_len)
            && payload[payload_len..].iter().all(|&byte| byte == 0);
        payload.truncate(payload_len);
        Ok((payload, exact))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{seq::SliceRandom, Rng, SeedableRng};

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(ReedSolomon::new(0, 4).is_err());
        assert!(ReedSolomon::new(4, 0).is_err());
        assert!(ReedSolomon::new(5, 4).is_err());
        assert!(ReedSolomon::new(4, 300).is_err());
        assert!(ReedSolomon::new(4, 4).is_ok());
    }

    #[test]
    fn systematic_prefix_is_the_original_data() {
        let rs = ReedSolomon::new(3, 7).unwrap();
        let payload: Vec<u8> = (0..30).collect();
        let shards = rs.encode_payload(&payload);
        assert_eq!(shards.len(), 7);
        let shard_len = rs.shard_len_for(payload.len());
        for (i, shard) in shards.iter().take(3).enumerate() {
            let start = i * shard_len;
            let end = ((i + 1) * shard_len).min(payload.len());
            assert_eq!(&shard[..end - start], &payload[start..end]);
        }
    }

    #[test]
    fn decode_from_data_shards_only() {
        let rs = ReedSolomon::new(4, 10).unwrap();
        let payload = b"datablock with two thousand requests".to_vec();
        let shards = rs.encode_payload(&payload);
        let surviving: Vec<(usize, Vec<u8>)> =
            (0..4).map(|i| (i, shards[i].clone())).collect();
        assert_eq!(rs.decode_payload(&surviving, payload.len()).unwrap(), payload);
    }

    #[test]
    fn decode_from_parity_shards_only() {
        let rs = ReedSolomon::new(3, 9).unwrap();
        let payload = b"parity only reconstruction".to_vec();
        let shards = rs.encode_payload(&payload);
        let surviving: Vec<(usize, Vec<u8>)> =
            (6..9).map(|i| (i, shards[i].clone())).collect();
        assert_eq!(rs.decode_payload(&surviving, payload.len()).unwrap(), payload);
    }

    #[test]
    fn leopard_parameters_f_plus_1_of_n() {
        // (f+1, 3f+1) for a range of f values, as used by the retrieval mechanism.
        for f in 1..=10usize {
            let rs = ReedSolomon::new(f + 1, 3 * f + 1).unwrap();
            let payload: Vec<u8> = (0..(128 * (f + 3))).map(|i| (i % 251) as u8).collect();
            let shards = rs.encode_payload(&payload);
            let surviving: Vec<(usize, Vec<u8>)> = shards
                .iter()
                .enumerate()
                .skip(f) // drop the first f shards
                .take(f + 1)
                .map(|(i, s)| (i, s.clone()))
                .collect();
            assert_eq!(
                rs.decode_payload(&surviving, payload.len()).unwrap(),
                payload,
                "f={f}"
            );
        }
    }

    #[test]
    fn not_enough_shards_is_reported() {
        let rs = ReedSolomon::new(3, 7).unwrap();
        let shards = rs.encode_payload(b"hello world");
        let surviving = vec![(0usize, shards[0].clone()), (1, shards[1].clone())];
        assert_eq!(
            rs.decode_payload(&surviving, 11),
            Err(ErasureError::NotEnoughShards { got: 2, need: 3 })
        );
    }

    #[test]
    fn duplicate_and_out_of_range_indices_are_reported() {
        let rs = ReedSolomon::new(2, 4).unwrap();
        let shards = rs.encode_payload(b"abcd");
        let dup = vec![(1usize, shards[1].clone()), (1, shards[1].clone())];
        assert_eq!(rs.decode_shards(&dup), Err(ErasureError::BadShardIndex(1)));
        let oob = vec![(0usize, shards[0].clone()), (9, shards[1].clone())];
        assert_eq!(rs.decode_shards(&oob), Err(ErasureError::BadShardIndex(9)));
    }

    #[test]
    fn inconsistent_lengths_are_reported() {
        let rs = ReedSolomon::new(2, 4).unwrap();
        let shards = rs.encode_payload(b"abcdef");
        let bad = vec![(0usize, shards[0].clone()), (1, vec![1, 2, 3, 4, 5, 6, 7])];
        assert_eq!(
            rs.decode_shards(&bad),
            Err(ErasureError::InconsistentShardLength)
        );
    }

    #[test]
    fn payload_too_long_is_reported() {
        let rs = ReedSolomon::new(2, 4).unwrap();
        let shards = rs.encode_payload(b"abcd");
        let surviving: Vec<(usize, Vec<u8>)> = vec![(0, shards[0].clone()), (1, shards[1].clone())];
        assert!(matches!(
            rs.decode_payload(&surviving, 1000),
            Err(ErasureError::PayloadTooLong { .. })
        ));
    }

    /// Only the payload's own shards decode as exact. The code of the payload under
    /// nonzero padding, or of the payload padded to longer shards, decodes to the same
    /// payload but is another codeword, so a quorum mixing it with the payload's own
    /// shards decodes to other bytes.
    #[test]
    fn decode_payload_exact_tells_the_payloads_own_shards_from_other_codewords() {
        let rs = ReedSolomon::new(3, 7).unwrap();
        let payload = b"eleven byte".to_vec();
        let quorum = |shards: &[Vec<u8>], indices: [usize; 3]| {
            let surviving: Vec<(usize, &[u8])> =
                indices.iter().map(|&i| (i, shards[i].as_slice())).collect();
            rs.decode_payload_exact(&surviving, payload.len()).unwrap()
        };
        let own = rs.encode_payload(&payload);
        assert_eq!(quorum(&own, [1, 4, 6]), (payload.clone(), true));
        assert_eq!(quorum(&own, [0, 1, 2]), (payload.clone(), true));

        let mut padded = payload.clone();
        padded.push(7);
        let other_padding = rs.encode_payload(&padded);
        padded.truncate(payload.len());
        padded.resize(15, 0);
        let longer = rs.encode_payload(&padded);
        for other in [&other_padding, &longer] {
            assert_eq!(quorum(other, [3, 4, 5]), (payload.clone(), false));
        }
        let mut mixed = own.clone();
        mixed[5] = other_padding[5].clone();
        assert_ne!(quorum(&mixed, [2, 4, 5]).0, payload);
        let empty = rs.encode_payload(b"");
        let surviving: Vec<(usize, &[u8])> = (4..7).map(|i| (i, empty[i].as_slice())).collect();
        assert_eq!(
            rs.decode_payload_exact(&surviving, 0).unwrap(),
            (vec![], true)
        );
    }

    #[test]
    fn empty_payload_roundtrips() {
        let rs = ReedSolomon::new(3, 7).unwrap();
        let shards = rs.encode_payload(b"");
        let surviving: Vec<(usize, Vec<u8>)> =
            (2..5).map(|i| (i, shards[i].clone())).collect();
        assert_eq!(rs.decode_payload(&surviving, 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn corrupted_shard_produces_wrong_payload_but_no_panic() {
        let rs = ReedSolomon::new(3, 7).unwrap();
        let payload = b"integrity is checked by merkle proofs, not the code".to_vec();
        let mut shards = rs.encode_payload(&payload);
        shards[4][0] ^= 0xff;
        let surviving: Vec<(usize, Vec<u8>)> =
            vec![(4, shards[4].clone()), (5, shards[5].clone()), (6, shards[6].clone())];
        let decoded = rs.decode_payload(&surviving, payload.len()).unwrap();
        assert_ne!(decoded, payload);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn any_quorum_of_shards_reconstructs_any_payload(
            f in 1usize..12,
            payload in proptest::collection::vec(any::<u8>(), 1..2048),
            seed in any::<u64>(),
        ) {
            let data_shards = f + 1;
            let total = 3 * f + 1;
            let rs = ReedSolomon::new(data_shards, total).unwrap();
            let shards = rs.encode_payload(&payload);

            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut indices: Vec<usize> = (0..total).collect();
            indices.shuffle(&mut rng);
            let surviving: Vec<(usize, Vec<u8>)> = indices[..data_shards]
                .iter()
                .map(|&i| (i, shards[i].clone()))
                .collect();
            prop_assert_eq!(rs.decode_payload(&surviving, payload.len()).unwrap(), payload);
        }

        #[test]
        fn shard_sizes_are_balanced(
            data_shards in 1usize..20,
            extra in 0usize..20,
            payload_len in 0usize..4096,
        ) {
            let rs = ReedSolomon::new(data_shards, data_shards + extra).unwrap();
            let payload: Vec<u8> = (0..payload_len).map(|i| (i % 256) as u8).collect();
            let shards = rs.encode_payload(&payload);
            let shard_len = rs.shard_len_for(payload_len);
            prop_assert!(shards.iter().all(|s| s.len() == shard_len));
            // No shard is more than one "row" longer than strictly necessary.
            prop_assert!(shard_len * data_shards >= payload_len);
            prop_assert!(shard_len.saturating_sub(1) * data_shards <= payload_len.max(1));
        }

        /// Each shard on its own, and the full set, equal the textbook encoding: the
        /// encoding matrix times the zero-padded data shards, one scalar product per
        /// byte — at the retrieval plane's `(f + 1, 3f + 1)` codes and at payload
        /// lengths that leave the last piece empty, short or one byte long.
        #[test]
        fn every_shard_is_the_matrix_product_over_the_padded_data(
            f_index in 0usize..3,
            length_kind in 0usize..5,
            piece_len in 1usize..40,
            random_len in 0usize..4096,
            seed in any::<u64>(),
        ) {
            let (f, n) = [(1, 4), (10, 32), (42, 128)][f_index];
            let k = f + 1;
            let len = [0, 1, k - 1, k * piece_len + 1, random_len][length_kind];
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let payload: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            let rs = ReedSolomon::new(k, n).unwrap();
            let shard_len = rs.shard_len_for(len);
            let mut padded = payload.clone();
            padded.resize(k * shard_len, 0);
            let all = rs.encode_payload(&payload);
            prop_assert_eq!(all.len(), n);
            for (index, shard) in all.iter().enumerate() {
                let expected: Vec<u8> = (0..shard_len)
                    .map(|byte| {
                        (0..k).fold(0, |acc, col| {
                            let data = padded[col * shard_len + byte];
                            gf256::add(acc, gf256::mul(rs.encoding.get(index, col), data))
                        })
                    })
                    .collect();
                prop_assert_eq!(shard, &expected, "shard {}", index);
                prop_assert_eq!(rs.encode_shard(&payload, index), Some(expected));
            }
            prop_assert_eq!(rs.encode_shard(&payload, n), None);
        }
    }

    #[test]
    fn random_erasure_patterns_large_n() {
        // A heavier deterministic test closer to the paper's n=128 retrieval experiment.
        let f = 42;
        let rs = ReedSolomon::new(f + 1, 3 * f + 1).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let payload: Vec<u8> = (0..256_000).map(|_| rng.gen()).collect();
        let shards = rs.encode_payload(&payload);
        let mut indices: Vec<usize> = (0..rs.total_shards()).collect();
        indices.shuffle(&mut rng);
        let surviving: Vec<(usize, Vec<u8>)> = indices[..rs.data_shards()]
            .iter()
            .map(|&i| (i, shards[i].clone()))
            .collect();
        assert_eq!(rs.decode_payload(&surviving, payload.len()).unwrap(), payload);
    }
}
