//! The datablock retrieval mechanism (Algorithm 3).
//!
//! A replica that receives a BFTblock linking a datablock it never got starts a timer;
//! on expiry it multicasts a `Query`. Every replica that holds the datablock
//! erasure-codes it with the `(f+1, n)` code, builds a Merkle tree over the `n`
//! chunks, and sends back *its own* chunk plus the Merkle proof. The querier validates
//! chunks individually and decodes as soon as `f+1` chunks under the same root are
//! available, then checks that the decoded datablock really hashes to the queried
//! digest.
//!
//! A retrieval that stays pending is re-queried after [`REQUERY_TIMEOUTS`] retrieval
//! timeouts: a partition can drop the first `Query` (or its responses) outright, and a
//! one-shot query would then leave the replica unable to vote on any BFTblock linking
//! the lost datablock — permanently, across every view change, because re-proposals
//! carry the same links. Responders answer each received `Query` (the per-datablock
//! encoding cache makes repeat serves free), so a re-query recovers no matter which
//! direction the partition dropped.

use crate::messages::RetrievalPayload;
use leopard_crypto::provider::{ComputeCost, CryptoProvider};
use leopard_crypto::{Digest, MerkleProof, MerkleTree};
use leopard_erasure::ReedSolomon;
use leopard_simnet::{SimDuration, SimTime};
use leopard_types::{Datablock, Decode, Encode, FastMap, FastSet, NodeId, SeqNum};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A chunk of an erasure-coded datablock, as produced by [`encode_response`].
#[derive(Debug, Clone)]
pub struct ResponseChunk {
    /// Merkle root over all `n` chunks.
    pub root: Digest,
    /// Index of the chunk (the responder's replica index).
    pub shard_index: u32,
    /// The chunk bytes.
    pub chunk: Vec<u8>,
    /// Merkle inclusion proof for the chunk.
    pub proof: MerkleProof,
    /// Length of the encoded datablock (needed to strip padding when decoding).
    pub payload_len: u64,
}

/// A retrieval response produced by [`RetrievalManager::encode_response`]: ready to be
/// put on the wire, together with the modeled compute cost the responder incurred
/// (full encode + Merkle tree on the first response for a datablock, nothing on a
/// cache hit — the charge mirrors the cache in both crypto modes).
#[derive(Debug)]
pub struct RetrievalResponse {
    /// Merkle root over the erasure-coded chunks (the datablock digest in metered mode).
    pub root: Digest,
    /// Index of the served chunk (the responder's replica index).
    pub shard_index: u32,
    /// The chunk itself (real or metered).
    pub payload: RetrievalPayload,
    /// Length of the encoded datablock.
    pub payload_len: u64,
    /// Modeled compute the responder spent producing this response.
    pub cost: ComputeCost,
}

/// Erasure-codes `datablock` and returns the chunk owned by `responder`, with proof.
///
/// Returns `None` if the erasure-code parameters are invalid (cannot happen for
/// `n = 3f + 1 ≥ 4`) or the responder index is out of range.
///
/// This is the stateless reference path; replicas answer queries through
/// [`RetrievalManager::encode_response`], which caches the `(f+1, n)` code and the
/// per-datablock encoding across queriers and produces identical chunks.
pub fn encode_response(
    datablock: &Datablock,
    responder: NodeId,
    f: usize,
    n: usize,
) -> Option<ResponseChunk> {
    let rs = ReedSolomon::new(f + 1, n).ok()?;
    let encoding = CachedEncoding::build(&rs, datablock);
    encoding.chunk_for(responder)
}

/// The erasure-coded shards and Merkle tree of one datablock at a responder: built once,
/// then each querier's response is a shard clone plus a Merkle proof.
#[derive(Debug)]
struct CachedEncoding {
    shards: Vec<Vec<u8>>,
    tree: MerkleTree,
    payload_len: u64,
}

impl CachedEncoding {
    fn build(rs: &ReedSolomon, datablock: &Datablock) -> Self {
        let encoded = datablock.encode_to_vec();
        let shards = rs.encode_payload(&encoded);
        let tree = MerkleTree::from_leaves(shards.iter().map(|s| s.as_slice()));
        Self {
            shards,
            tree,
            payload_len: encoded.len() as u64,
        }
    }

    fn chunk_for(&self, responder: NodeId) -> Option<ResponseChunk> {
        let index = responder.as_index();
        if index >= self.shards.len() {
            return None;
        }
        let proof = self.tree.prove(index)?;
        Some(ResponseChunk {
            root: self.tree.root(),
            shard_index: index as u32,
            chunk: self.shards[index].clone(),
            proof,
            payload_len: self.payload_len,
        })
    }
}

/// State of one in-progress retrieval at the querier.
#[derive(Debug)]
struct PendingRetrieval {
    /// Serial numbers of BFTblocks waiting for this datablock.
    waiting: FastSet<SeqNum>,
    /// Valid chunks collected so far, grouped by Merkle root.
    chunks: FastMap<Digest, BTreeMap<u32, Vec<u8>>>,
    /// Declared encoded length per root.
    payload_len: FastMap<Digest, u64>,
    /// The datablock itself, carried by reference in metered responses.
    metered_datablock: Option<Arc<Datablock>>,
    /// When the datablock was first discovered missing.
    started_at: SimTime,
    /// When the query was last multicast (`None` until the first query).
    last_query: Option<SimTime>,
    /// Bytes received for this retrieval (for the Fig. 12 cost accounting).
    received_bytes: u64,
}

/// How many retrieval timeouts a pending retrieval waits before querying again. The
/// interval is far above any fault-free query-to-response round trip (even across the
/// widest WAN pairing), so healthy runs query exactly once and the simulation's event
/// stream is unchanged; only a retrieval whose query or responses were lost to a
/// partition or crash ever reaches the re-query.
pub const REQUERY_TIMEOUTS: u64 = 8;

/// The querier-side manager of all in-progress retrievals, plus the responder-side
/// encoding cache.
#[derive(Debug, Default)]
pub struct RetrievalManager {
    pending: FastMap<Digest, PendingRetrieval>,
    /// Reed–Solomon codes by `(data_shards, total_shards)`; the parameters are fixed
    /// per run, so the Vandermonde construction happens once per replica, not once per
    /// response or decode.
    codes: FastMap<(usize, usize), ReedSolomon>,
    /// Responder-side responses by datablock digest, so serving `k` queriers encodes
    /// and Merkle-hashes the datablock once instead of `k` times (in metered mode, so
    /// the *charged* encoding cost is paid once, mirroring the real cache). Only the
    /// chunk actually served is retained (a replica always responds with its own
    /// shard), not the full shard set; the cached `(responder, data_shards,
    /// total_shards)` guards against a mismatched lookup.
    chunks_served: FastMap<Digest, ((NodeId, usize, usize), CachedServe)>,
}

/// A cached, ready-to-send retrieval response (real or metered).
#[derive(Debug, Clone)]
struct CachedServe {
    root: Digest,
    shard_index: u32,
    payload: RetrievalPayload,
    payload_len: u64,
}

/// Entry cap for the responder-side chunk cache. PR 4's profiling of the full fig9
/// sweep found the old cap of 64 thrashing at n = 256 — more than 64 datablocks were
/// being queried concurrently, so nearly every one of the ~270k responses re-ran the
/// (f+1, n) encoder over a ~550 KB datablock, which was 74% of the sweep's wall-clock.
/// The cap is a backstop only: the cache is pruned alongside the datablock pool at
/// every checkpoint ([`RetrievalManager::prune`]), which also keeps a metered entry's
/// `Arc<Datablock>` from outliving the pool's copy.
const ENCODING_CACHE_CAP: usize = 512;

/// Outcome of feeding a response chunk into the manager.
#[derive(Debug, PartialEq, Eq)]
pub enum ChunkOutcome {
    /// The chunk was stored; more are needed.
    Stored,
    /// The chunk was invalid or irrelevant and was ignored.
    Ignored,
    /// Enough chunks arrived and the datablock was reconstructed.
    Recovered {
        /// The reconstructed datablock.
        datablock: Arc<Datablock>,
        /// Serial numbers that were waiting for it.
        waiting: Vec<SeqNum>,
        /// Time the retrieval took.
        elapsed_nanos: u64,
        /// Bytes received over the course of the retrieval.
        received_bytes: u64,
    },
}

impl RetrievalManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers that BFTblock `seq` needs the missing datablock `digest`.
    ///
    /// Returns true if this is the first time the datablock is reported missing (i.e.
    /// the caller should start the retrieval timer).
    pub fn note_missing(&mut self, digest: Digest, seq: SeqNum, now: SimTime) -> bool {
        match self.pending.get_mut(&digest) {
            Some(pending) => {
                pending.waiting.insert(seq);
                false
            }
            None => {
                let mut waiting = FastSet::default();
                waiting.insert(seq);
                self.pending.insert(
                    digest,
                    PendingRetrieval {
                        waiting,
                        chunks: FastMap::default(),
                        payload_len: FastMap::default(),
                        metered_datablock: None,
                        started_at: now,
                        last_query: None,
                        received_bytes: 0,
                    },
                );
                true
            }
        }
    }

    /// True if `digest` is still being retrieved.
    pub fn is_pending(&self, digest: &Digest) -> bool {
        self.pending.contains_key(digest)
    }

    /// Called when the retrieval timer fires: returns the digests that need to be
    /// queried — never queried before, or still pending [`REQUERY_TIMEOUTS`] retrieval
    /// timeouts after the last query (the loss-recovery path) — and stamps them.
    pub fn digests_to_query(&mut self, now: SimTime, retrieval_timeout: SimDuration) -> Vec<Digest> {
        let requery_after = retrieval_timeout.saturating_mul(REQUERY_TIMEOUTS);
        let mut digests: Vec<Digest> = self
            .pending
            .iter()
            .filter(|(_, p)| {
                p.last_query
                    .map_or(true, |at| now.saturating_since(at) >= requery_after)
            })
            .map(|(d, _)| *d)
            .collect();
        digests.sort_unstable();
        for digest in &digests {
            if let Some(pending) = self.pending.get_mut(digest) {
                pending.last_query = Some(now);
            }
        }
        digests
    }

    /// Cancels a retrieval because the datablock arrived through normal dissemination.
    ///
    /// Returns the serial numbers that were waiting for it.
    pub fn cancel(&mut self, digest: &Digest) -> Vec<SeqNum> {
        self.pending
            .remove(digest)
            .map(|p| p.waiting.into_iter().collect())
            .unwrap_or_default()
    }

    /// Abandons pending retrievals that only gate sequence numbers at or below a
    /// stable checkpoint watermark. Those blocks are summarised by the quorum-signed
    /// checkpoint and their datablocks are pruned cluster-wide, so the queries can
    /// never be answered — without this, a straggler that jumped its execution point
    /// to the watermark would keep re-querying the dead digests forever.
    pub fn abandon_waiting_through(&mut self, watermark: SeqNum) {
        self.pending.retain(|_, p| {
            p.waiting.retain(|&seq| seq > watermark);
            !p.waiting.is_empty()
        });
    }

    /// Drops responder-side state for datablocks garbage-collected at a checkpoint:
    /// the cached responses (whose metered variant pins an `Arc<Datablock>` that must
    /// not outlive the pool's copy).
    pub fn prune(&mut self, executed: impl IntoIterator<Item = Digest>) {
        let executed: FastSet<Digest> = executed.into_iter().collect();
        if executed.is_empty() {
            return;
        }
        self.chunks_served.retain(|digest, _| !executed.contains(digest));
    }

    /// The `(data_shards, total_shards)` code, constructed on first use.
    fn code_for(
        codes: &mut FastMap<(usize, usize), ReedSolomon>,
        data_shards: usize,
        total_shards: usize,
    ) -> Option<&ReedSolomon> {
        match codes.entry((data_shards, total_shards)) {
            std::collections::hash_map::Entry::Occupied(entry) => Some(entry.into_mut()),
            std::collections::hash_map::Entry::Vacant(entry) => {
                let rs = ReedSolomon::new(data_shards, total_shards).ok()?;
                Some(entry.insert(rs))
            }
        }
    }

    /// Responder-side: produces this responder's retrieval response for `datablock`,
    /// through the crypto provider.
    ///
    /// With real crypto the datablock is erasure-coded and Merkle-hashed (or the cached
    /// chunk reused), exactly as the stateless [`encode_response`] would. In metered
    /// mode the expensive work is skipped: the response declares the byte sizes the
    /// real chunk and proof would occupy and carries the datablock by reference. Both
    /// modes charge the same modeled [`ComputeCost`]: the full encode on the first
    /// response for a datablock, nothing on cache hits.
    pub fn encode_response(
        &mut self,
        datablock: &Arc<Datablock>,
        responder: NodeId,
        f: usize,
        n: usize,
        provider: &CryptoProvider,
    ) -> Option<RetrievalResponse> {
        let digest = datablock.digest();
        let cache_key = (responder, f + 1, n);
        if let Some((cached_key, cached)) = self.chunks_served.get(&digest) {
            if *cached_key == cache_key {
                return Some(RetrievalResponse {
                    root: cached.root,
                    shard_index: cached.shard_index,
                    payload: cached.payload.clone(),
                    payload_len: cached.payload_len,
                    cost: ComputeCost::ZERO,
                });
            }
        }
        if responder.as_index() >= n {
            return None;
        }
        // Chunks derive from the *encoded* datablock bytes (synthetic payloads charge
        // their declared size on the wire but encode compactly — see
        // `Datablock::encoded_len`), matching the real encoder byte for byte.
        let encoded_len = datablock.encoded_len();
        let shard_len = encoded_len.div_ceil(f + 1).max(1);
        let cost = provider.model().erasure_encode(encoded_len, f + 1, n)
            + provider.model().merkle_tree(shard_len, n);
        let serve = if provider.is_metered() {
            CachedServe {
                root: digest,
                shard_index: responder.as_index() as u32,
                payload: RetrievalPayload::Metered {
                    chunk_len: shard_len as u32,
                    proof_len: MerkleProof::wire_size_for(n, responder.as_index())? as u32,
                    datablock: Arc::clone(datablock),
                },
                payload_len: encoded_len as u64,
            }
        } else {
            let rs = Self::code_for(&mut self.codes, f + 1, n)?;
            let chunk = CachedEncoding::build(rs, datablock).chunk_for(responder)?;
            CachedServe {
                root: chunk.root,
                shard_index: chunk.shard_index,
                payload: RetrievalPayload::Real {
                    chunk: chunk.chunk,
                    proof: chunk.proof,
                },
                payload_len: chunk.payload_len,
            }
        };
        if self.chunks_served.len() >= ENCODING_CACHE_CAP {
            self.chunks_served.clear();
        }
        let response = RetrievalResponse {
            root: serve.root,
            shard_index: serve.shard_index,
            payload: serve.payload.clone(),
            payload_len: serve.payload_len,
            cost,
        };
        self.chunks_served.insert(digest, (cache_key, serve));
        Some(response)
    }

    /// Feeds a received chunk into the matching retrieval, returning the outcome plus
    /// the modeled compute the querier spent on it (proof verification per chunk, and
    /// the decode plus digest check when a quorum of chunks completes).
    ///
    /// With real crypto the Merkle proof is verified, chunks are grouped by root, and a
    /// decode is attempted once `f + 1` chunks under one root are available; the
    /// decoded datablock must hash to the queried digest, otherwise the chunks under
    /// that root are discarded (the root was forged). A metered chunk skips the real
    /// verification and decode — responses are honest by construction in that mode —
    /// but follows the same counting and charges the same modeled time.
    #[allow(clippy::too_many_arguments)]
    pub fn add_chunk(
        &mut self,
        digest: Digest,
        root: Digest,
        shard_index: u32,
        payload: RetrievalPayload,
        payload_len: u64,
        f: usize,
        n: usize,
        now: SimTime,
        provider: &CryptoProvider,
    ) -> (ChunkOutcome, ComputeCost) {
        let model = provider.model();
        let Some(pending) = self.pending.get_mut(&digest) else {
            return (ChunkOutcome::Ignored, ComputeCost::ZERO);
        };
        let declared_len = payload.wire_len();
        let shard_len = payload_len.div_ceil(f as u64 + 1).max(1) as usize;
        let mut cost = model.merkle_verify(shard_len, n);
        let chunk_bytes = match payload {
            RetrievalPayload::Real { chunk, proof } => {
                if proof.leaf_index() != shard_index as usize || !proof.verify(root, &chunk) {
                    return (ChunkOutcome::Ignored, cost);
                }
                chunk
            }
            RetrievalPayload::Metered { datablock, .. } => {
                if shard_index as usize >= n {
                    return (ChunkOutcome::Ignored, cost);
                }
                pending.metered_datablock = Some(datablock);
                Vec::new()
            }
        };
        pending.received_bytes += declared_len as u64 + 64;
        pending.payload_len.insert(root, payload_len);
        let chunks = pending.chunks.entry(root).or_default();
        chunks.insert(shard_index, chunk_bytes);

        if chunks.len() < f + 1 {
            return (ChunkOutcome::Stored, cost);
        }

        // A quorum of chunks under one root: decode and check the digest.
        let encoded_len = pending.payload_len.get(&root).copied().unwrap_or(0) as usize;
        cost += model.erasure_decode(encoded_len, f + 1) + model.hash(encoded_len);
        let datablock = if let Some(datablock) = pending.metered_datablock.clone() {
            if datablock.digest() != digest {
                pending.chunks.remove(&root);
                pending.metered_datablock = None;
                return (ChunkOutcome::Ignored, cost);
            }
            datablock
        } else {
            let Some(rs) = Self::code_for(&mut self.codes, f + 1, n) else {
                return (ChunkOutcome::Ignored, cost);
            };
            let pending = self.pending.get_mut(&digest).expect("checked above");
            let chunks = pending.chunks.get(&root).expect("just inserted");
            let shards: Vec<(usize, Vec<u8>)> = chunks
                .iter()
                .take(f + 1)
                .map(|(&i, c)| (i as usize, c.clone()))
                .collect();
            let decoded = match rs.decode_payload(&shards, encoded_len) {
                Ok(bytes) => bytes,
                Err(_) => {
                    pending.chunks.remove(&root);
                    return (ChunkOutcome::Ignored, cost);
                }
            };
            let datablock = match Datablock::decode_from_slice(&decoded) {
                Ok(db) => db,
                Err(_) => {
                    pending.chunks.remove(&root);
                    return (ChunkOutcome::Ignored, cost);
                }
            };
            if datablock.digest() != digest {
                // The responders under this root colluded on a different datablock.
                pending.chunks.remove(&root);
                return (ChunkOutcome::Ignored, cost);
            }
            Arc::new(datablock)
        };

        let pending = self.pending.remove(&digest).expect("checked above");
        (
            ChunkOutcome::Recovered {
                datablock,
                waiting: pending.waiting.into_iter().collect(),
                elapsed_nanos: now.saturating_since(pending.started_at).as_nanos(),
                received_bytes: pending.received_bytes,
            },
            cost,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leopard_crypto::provider::{CryptoCostModel, CryptoMode};
    use leopard_crypto::threshold::ThresholdScheme;
    use leopard_types::{ClientId, Request};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn provider(mode: CryptoMode) -> CryptoProvider {
        let mut rng = StdRng::seed_from_u64(5);
        let (scheme, _) = ThresholdScheme::trusted_setup(3, 4, &mut rng);
        CryptoProvider::new(scheme, mode, CryptoCostModel::free())
    }

    /// Adapts a stateless [`ResponseChunk`] into the payload `add_chunk` consumes.
    fn real_payload(r: &ResponseChunk) -> RetrievalPayload {
        RetrievalPayload::Real {
            chunk: r.chunk.clone(),
            proof: r.proof.clone(),
        }
    }

    fn sample_datablock(requests: usize) -> Datablock {
        Datablock::new(
            NodeId(2),
            1,
            (0..requests)
                .map(|i| Request::new_inline(ClientId(1), i as u64, vec![i as u8; 128]))
                .collect(),
        )
    }

    #[test]
    fn encode_response_produces_verifiable_chunks() {
        let db = sample_datablock(50);
        let (f, n) = (1, 4);
        for responder in 0..n as u32 {
            let chunk = encode_response(&db, NodeId(responder), f, n).unwrap();
            assert_eq!(chunk.shard_index, responder);
            assert!(chunk.proof.verify(chunk.root, &chunk.chunk));
        }
        assert!(encode_response(&db, NodeId(99), f, n).is_none());
    }

    #[test]
    fn cached_manager_responses_match_stateless_encoding() {
        let db = Arc::new(sample_datablock(50));
        let other = Arc::new(sample_datablock(33));
        let (f, n) = (1, 4);
        let provider = provider(CryptoMode::Real);
        let mut manager = RetrievalManager::new();
        // Serve several queriers and a second datablock: every cached chunk must be
        // byte-identical to the stateless reference path.
        for datablock in [&db, &other] {
            for responder in 0..n as u32 {
                let cached = manager
                    .encode_response(datablock, NodeId(responder), f, n, &provider)
                    .unwrap();
                let fresh = encode_response(datablock, NodeId(responder), f, n).unwrap();
                assert_eq!(cached.root, fresh.root);
                assert_eq!(cached.shard_index, fresh.shard_index);
                assert_eq!(cached.payload_len, fresh.payload_len);
                match &cached.payload {
                    RetrievalPayload::Real { chunk, proof } => {
                        assert_eq!(*chunk, fresh.chunk);
                        assert!(proof.verify(cached.root, chunk));
                    }
                    other => panic!("real provider produced {other:?}"),
                }
            }
        }
        assert!(manager.encode_response(&db, NodeId(99), f, n, &provider).is_none());
    }

    /// A metered response declares exactly the wire bytes the real response occupies,
    /// and carries the datablock by reference.
    #[test]
    fn metered_response_sizes_match_real_responses() {
        for (requests, f, n) in [(50usize, 1usize, 4usize), (200, 10, 31), (64, 5, 16)] {
            let db = Arc::new(sample_datablock(requests));
            let metered = provider(CryptoMode::Metered);
            let mut manager = RetrievalManager::new();
            for responder in 0..n as u32 {
                let m = manager
                    .encode_response(&db, NodeId(responder), f, n, &metered)
                    .unwrap();
                let real = encode_response(&db, NodeId(responder), f, n).unwrap();
                assert_eq!(
                    m.payload.wire_len(),
                    real.chunk.len() + real.proof.wire_size(),
                    "requests={requests} f={f} n={n} responder={responder}"
                );
                assert_eq!(m.payload_len, real.payload_len);
                match m.payload {
                    RetrievalPayload::Metered { datablock, .. } => {
                        assert_eq!(datablock.digest(), db.digest());
                    }
                    other => panic!("metered provider produced {other:?}"),
                }
            }
        }
    }

    /// A full metered retrieval recovers the datablock after exactly `f + 1` chunks,
    /// with the same per-chunk byte accounting as the real path.
    #[test]
    fn metered_retrieval_roundtrip_matches_real_accounting() {
        let db = Arc::new(sample_datablock(40));
        let digest = db.digest();
        let (f, n) = (1, 4);
        let metered = provider(CryptoMode::Metered);

        let run = |use_metered: bool| -> (ChunkOutcome, u64) {
            let mut manager = RetrievalManager::new();
            manager.note_missing(digest, SeqNum(3), SimTime(1_000));
            let mut outcome = ChunkOutcome::Stored;
            for responder in [NodeId(1), NodeId(3)] {
                let (root, shard_index, payload, payload_len) = if use_metered {
                    let mut side = RetrievalManager::new();
                    let r = side
                        .encode_response(&db, responder, f, n, &metered)
                        .unwrap();
                    (r.root, r.shard_index, r.payload, r.payload_len)
                } else {
                    let r = encode_response(&db, responder, f, n).unwrap();
                    (r.root, r.shard_index, real_payload(&r), r.payload_len)
                };
                let (o, _) = manager.add_chunk(
                    digest,
                    root,
                    shard_index,
                    payload,
                    payload_len,
                    f,
                    n,
                    SimTime(5_000_000),
                    &metered,
                );
                outcome = o;
            }
            let bytes = match &outcome {
                ChunkOutcome::Recovered { received_bytes, .. } => *received_bytes,
                other => panic!("expected recovery, got {other:?}"),
            };
            (outcome, bytes)
        };

        let (metered_outcome, metered_bytes) = run(true);
        let (_, real_bytes) = run(false);
        assert_eq!(metered_bytes, real_bytes);
        if let ChunkOutcome::Recovered { datablock, .. } = metered_outcome {
            assert_eq!(datablock.digest(), digest);
        }
    }

    #[test]
    fn full_retrieval_roundtrip() {
        let db = sample_datablock(40);
        let digest = db.digest();
        let (f, n) = (1, 4);
        let mut manager = RetrievalManager::new();

        let timeout = SimDuration::from_millis(100);
        assert!(manager.note_missing(digest, SeqNum(3), SimTime(1_000)));
        assert!(!manager.note_missing(digest, SeqNum(4), SimTime(2_000)));
        assert_eq!(manager.digests_to_query(SimTime(3_000), timeout), vec![digest]);
        // Subsequent fires inside the re-query window do not re-query.
        assert!(manager.digests_to_query(SimTime(100_003_000), timeout).is_empty());

        let provider = provider(CryptoMode::Real);
        let mut outcome = ChunkOutcome::Stored;
        for responder in [NodeId(1), NodeId(3)] {
            let r = encode_response(&db, responder, f, n).unwrap();
            let (o, _) = manager.add_chunk(
                digest,
                r.root,
                r.shard_index,
                real_payload(&r),
                r.payload_len,
                f,
                n,
                SimTime(5_000_000),
                &provider,
            );
            outcome = o;
        }
        match outcome {
            ChunkOutcome::Recovered {
                datablock,
                mut waiting,
                elapsed_nanos,
                received_bytes,
            } => {
                assert_eq!(datablock.digest(), digest);
                waiting.sort();
                assert_eq!(waiting, vec![SeqNum(3), SeqNum(4)]);
                assert_eq!(elapsed_nanos, 4_999_000);
                assert!(received_bytes > 0);
            }
            other => panic!("expected recovery, got {other:?}"),
        }
        assert!(!manager.is_pending(&digest));
    }

    #[test]
    fn invalid_chunks_are_ignored() {
        let db = sample_datablock(10);
        let digest = db.digest();
        let (f, n) = (1, 4);
        let mut manager = RetrievalManager::new();
        manager.note_missing(digest, SeqNum(1), SimTime(0));

        let provider = provider(CryptoMode::Real);
        let r = encode_response(&db, NodeId(1), f, n).unwrap();
        // Tampered chunk fails the Merkle proof.
        let mut tampered = r.chunk.clone();
        tampered[0] ^= 0xff;
        let tampered_payload = RetrievalPayload::Real {
            chunk: tampered,
            proof: r.proof.clone(),
        };
        assert_eq!(
            manager
                .add_chunk(digest, r.root, r.shard_index, tampered_payload, r.payload_len, f, n, SimTime(1), &provider)
                .0,
            ChunkOutcome::Ignored
        );
        // Chunk for an unknown digest is ignored.
        let other_digest = sample_datablock(11).digest();
        assert_eq!(
            manager
                .add_chunk(other_digest, r.root, r.shard_index, real_payload(&r), r.payload_len, f, n, SimTime(1), &provider)
                .0,
            ChunkOutcome::Ignored
        );
        // The original chunk still works.
        assert_eq!(
            manager
                .add_chunk(digest, r.root, r.shard_index, real_payload(&r), r.payload_len, f, n, SimTime(1), &provider)
                .0,
            ChunkOutcome::Stored
        );
    }

    #[test]
    fn forged_root_does_not_recover_wrong_datablock() {
        // Two colluding responders serve chunks of a *different* datablock under a
        // consistent root; the decode succeeds but the digest check rejects it.
        let real = sample_datablock(10);
        let fake = sample_datablock(12);
        let digest = real.digest();
        let (f, n) = (1, 4);
        let mut manager = RetrievalManager::new();
        manager.note_missing(digest, SeqNum(1), SimTime(0));

        let provider = provider(CryptoMode::Real);
        let mut last = ChunkOutcome::Stored;
        for responder in [NodeId(0), NodeId(2)] {
            let r = encode_response(&fake, responder, f, n).unwrap();
            last = manager
                .add_chunk(
                    digest,
                    r.root,
                    r.shard_index,
                    real_payload(&r),
                    r.payload_len,
                    f,
                    n,
                    SimTime(1),
                    &provider,
                )
                .0;
        }
        assert_eq!(last, ChunkOutcome::Ignored);
        // The retrieval is still pending: honest chunks can still recover it.
        assert!(manager.is_pending(&digest));
        let mut outcome = ChunkOutcome::Stored;
        for responder in [NodeId(1), NodeId(3)] {
            let r = encode_response(&real, responder, f, n).unwrap();
            outcome = manager
                .add_chunk(
                    digest,
                    r.root,
                    r.shard_index,
                    real_payload(&r),
                    r.payload_len,
                    f,
                    n,
                    SimTime(2),
                    &provider,
                )
                .0;
        }
        assert!(matches!(outcome, ChunkOutcome::Recovered { .. }));
    }

    #[test]
    fn cancel_returns_waiting_sequences() {
        let db = sample_datablock(5);
        let digest = db.digest();
        let mut manager = RetrievalManager::new();
        manager.note_missing(digest, SeqNum(7), SimTime(0));
        manager.note_missing(digest, SeqNum(9), SimTime(0));
        let mut waiting = manager.cancel(&digest);
        waiting.sort();
        assert_eq!(waiting, vec![SeqNum(7), SeqNum(9)]);
        assert!(manager.cancel(&digest).is_empty());
    }

    /// A retrieval whose first query (or its responses) was lost — e.g. to a
    /// partition window — is queried again after the re-query interval; recovery or
    /// cancellation stops the cycle.
    #[test]
    fn pending_retrievals_are_requeried_after_message_loss() {
        let digest = sample_datablock(5).digest();
        let timeout = SimDuration::from_millis(100);
        let requery = timeout.saturating_mul(REQUERY_TIMEOUTS);
        let mut manager = RetrievalManager::new();
        manager.note_missing(digest, SeqNum(1), SimTime(0));
        let first = SimTime(0) + timeout;
        assert_eq!(manager.digests_to_query(first, timeout), vec![digest]);
        // Still pending just before the re-query interval elapses: nothing.
        let early = SimTime(0) + timeout + timeout.saturating_mul(REQUERY_TIMEOUTS - 1);
        assert!(manager.digests_to_query(early, timeout).is_empty());
        // One interval after the lost query: queried again.
        let late = first + requery;
        assert_eq!(manager.digests_to_query(late, timeout), vec![digest]);
        // Cancellation (the datablock arrived) ends the cycle.
        manager.cancel(&digest);
        assert!(manager.digests_to_query(late + requery, timeout).is_empty());
    }

    #[test]
    fn large_committee_retrieval_matches_paper_scale() {
        // n = 128, f = 42: the Fig. 12 / Table V configuration with a 2000-request
        // datablock. Chunk cost per responder should be roughly α / (f+1).
        let requests = 200; // scaled down ×10 to keep the unit test fast
        let db = sample_datablock(requests);
        let digest = db.digest();
        let (f, n) = (42usize, 128usize);
        let mut manager = RetrievalManager::new();
        manager.note_missing(digest, SeqNum(1), SimTime(0));

        let provider = provider(CryptoMode::Real);
        let encoded_len = db.encode_to_vec().len();
        let mut outcome = ChunkOutcome::Stored;
        let mut per_responder_bytes = 0usize;
        for responder in 0..=f as u32 {
            let r = encode_response(&db, NodeId(responder), f, n).unwrap();
            per_responder_bytes = r.chunk.len();
            outcome = manager
                .add_chunk(
                    digest,
                    r.root,
                    r.shard_index,
                    real_payload(&r),
                    r.payload_len,
                    f,
                    n,
                    SimTime(1),
                    &provider,
                )
                .0;
        }
        assert!(matches!(outcome, ChunkOutcome::Recovered { .. }));
        // Each responder ships ~1/(f+1) of the datablock.
        assert!(per_responder_bytes <= encoded_len / (f + 1) + 2);
    }
}
