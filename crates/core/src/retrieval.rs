//! The datablock retrieval mechanism (Algorithm 3).
//!
//! A replica that receives a BFTblock linking a datablock it never got waits one
//! first-query wait `D` for the copy still in honest flight, then multicasts a `Query`.
//! Every replica that holds the datablock answers with one [`RetrievalChunk`]: *its
//! own* chunk of the datablock's `(f+1, n)` erasure coding, the Merkle proof of that
//! chunk and the root over all `n` chunks. The same value is what the responder caches,
//! what `QueryResponse` carries and what the querier's decoder consumes. The querier
//! validates chunks individually and decodes as soon as `f+1` chunks under the same root
//! and payload length are available, then checks that the decoded bytes really hash to
//! the queried digest.
//!
//! The root commits to all `n` shards, so every responder needs the same Merkle tree;
//! only its own shard and proof differ. The tree is therefore cached on the datablock
//! copy next to its digest ([`Datablock::shard_tree`]): the first replica to serve a
//! copy runs the full encode and builds the tree, every other holder of the same
//! `Arc<Datablock>` reuses it and computes just its own shard
//! ([`ReedSolomon::encode_shard`]).
//!
//! The querier side shares work the same way. A served chunk travels as one
//! `Arc<RetrievalChunk>` to every querier that asked, and the chunk records the verdict
//! of its proof check ([`RetrievalChunk::proof_holds`]): the first querier to receive
//! it runs the check, later ones read the verdict. A chunk cannot change after it is
//! built and a clone starts unchecked, so the verdict is always about the bytes in hand.
//! Every querier is still charged the modeled verification.
//!
//! Recovery is shared the same way: the querier that recovers a datablock from a group
//! of `f + 1` chunks records the copy on each chunk that is exactly one of its shards
//! (`RetrievalChunk::shard_of`), and a later querier whose group consists of that
//! copy's shards adopts the copy instead of decoding and hashing it again. Every
//! querier is still charged the modeled decode and digest check.
//!
//! A replica's [`RetrievalManager`] holds both sides and is built with what never
//! changes for the replica: its id (the shard it serves), `f`, `n`, the retrieval
//! timeout and the first-query wait. The `(f+1, n)` Reed–Solomon code is built on the
//! first real-crypto encode or decode; a metered run never builds it.
//!
//! The manager owns the timing of the queries, on one clock: a replica keeps one
//! wake-up armed for the earliest deadline among its pending retrievals — `D` after a
//! datablock was noted missing, [`REQUERY_TIMEOUTS`] retrieval timeouts after its last
//! query. A fire queries everything due in one `Query` and re-arms for the next
//! deadline; a restart, which loses the armed wake-up, re-arms from what is pending.
//! The re-query exists because a partition can drop the first `Query` (or its
//! responses) outright, and a one-shot query would then leave the replica unable to vote
//! on any BFTblock linking the lost datablock — permanently, across every view change,
//! because re-proposals carry the same links. Responders answer each received `Query`
//! (the per-datablock encoding cache makes repeat serves free), so a re-query recovers
//! no matter which direction the partition dropped.

use crate::messages::{RetrievalChunk, RetrievalPayload};
use leopard_crypto::provider::{ComputeCost, CryptoProvider};
use leopard_crypto::{Digest, MerkleProof, MerkleTree};
use leopard_erasure::ReedSolomon;
use leopard_simnet::{SimDuration, SimTime};
use leopard_types::{Datablock, Encode, FastMap, FastSet, NodeId, SeqNum};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Erasure-codes `datablock` and returns the chunk owned by `responder`, with proof
/// (a [`RetrievalPayload::Real`] payload).
///
/// Returns `None` if the erasure-code parameters are invalid (cannot happen for
/// `n = 3f + 1 ≥ 4`) or the responder index is out of range.
///
/// This is the stateless reference path: a fresh code, the full encode and a fresh
/// tree on every call, never reading or filling the datablock's shard-tree cell.
/// Replicas answer queries through [`RetrievalManager::encode_response`], which shares
/// the tree per datablock copy, computes only its own shard and produces identical
/// chunks.
pub fn encode_response(
    datablock: &Datablock,
    responder: NodeId,
    f: usize,
    n: usize,
) -> Option<RetrievalChunk> {
    let rs = ReedSolomon::new(f + 1, n).ok()?;
    let index = responder.as_index();
    let encoded = datablock.encode_to_vec();
    let shards = rs.encode_payload(&encoded);
    let tree = MerkleTree::from_leaves(shards.iter().map(Vec::as_slice));
    real_chunk(&tree, index, shards.get(index)?.clone(), encoded.len())
}

/// Shard `index` of a datablock whose encoding is `payload_len` bytes long, with its
/// proof under `tree`, the Merkle tree over all shards.
fn real_chunk(
    tree: &MerkleTree,
    index: usize,
    chunk: Vec<u8>,
    payload_len: usize,
) -> Option<RetrievalChunk> {
    let proof = tree.prove(index)?;
    Some(RetrievalChunk::new(
        tree.root(),
        index as u32,
        RetrievalPayload::Real { chunk, proof },
        payload_len as u64,
    ))
}

/// State of one in-progress retrieval at the querier.
#[derive(Debug)]
struct PendingRetrieval {
    /// Serial numbers of BFTblocks waiting for this datablock.
    waiting: FastSet<SeqNum>,
    /// Valid chunks collected so far, grouped by Merkle root and declared payload
    /// length (the length is not covered by the proof). Each is the response's own
    /// `Arc`, shared with the responder's cache: the decoder reads the bytes in place.
    chunks: FastMap<(Digest, u64), BTreeMap<u32, Arc<RetrievalChunk>>>,
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
/// widest WAN pairing), so healthy runs query at most once; only a retrieval whose query
/// or responses were lost to a partition or crash ever reaches the re-query.
pub const REQUERY_TIMEOUTS: u64 = 8;

/// One replica's retrieval plane: the querier-side manager of all in-progress
/// retrievals, plus the responder-side cache of served chunks.
#[derive(Debug)]
pub struct RetrievalManager {
    /// This replica: the shard it serves.
    id: NodeId,
    f: usize,
    n: usize,
    /// How long a pending retrieval waits after its last query before querying again.
    requery_after: SimDuration,
    /// How long a missing datablock waits for its copy in flight before its first
    /// query (`D`).
    first_query_after: SimDuration,
    /// The deadline the replica's wake-up is armed for (`None` before the first note,
    /// once a fire reaches it, and after a restart, which loses every armed timer).
    armed: Option<SimTime>,
    pending: FastMap<Digest, PendingRetrieval>,
    /// The `(f+1, n)` Reed–Solomon code, built on the first real-crypto encode or
    /// decode, so the Vandermonde construction happens once per replica. A metered run
    /// never builds it, which is what lets it run above `ReedSolomon::MAX_SHARDS`.
    code: Option<ReedSolomon>,
    /// Responder-side chunks by datablock digest, so serving `k` queriers builds the
    /// chunk once and charges the modeled encode once instead of `k` times (in metered
    /// mode too, mirroring the real cache). Only the chunk actually served is retained
    /// (a replica always responds with its own shard), and every response shares it:
    /// a cache hit is a refcount, not a copy of the chunk bytes and proof. The cache is
    /// bounded as the datablock pool is: pruned with it at every checkpoint
    /// ([`Self::prune`]), which also keeps a metered entry's `Arc<Datablock>` from
    /// outliving the pool's copy. No measured run holds 100 entries in one cache (the
    /// most is `--full chaos`, under 96), so it has no size cap: a clear-all would charge
    /// the modeled encode again and let a host-side limit move a simulated number.
    served: FastMap<Digest, Arc<RetrievalChunk>>,
}

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
    /// Creates an empty manager for replica `id` of an `n`-replica committee
    /// tolerating `f` faults, querying a missing datablock first `first_query_wait`
    /// after noting it and again after [`REQUERY_TIMEOUTS`] × `retrieval_timeout`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not one of the `n` replicas. (`LeopardConfig::validate` rejects
    /// a zero `first_query_wait`.)
    pub fn new(
        id: NodeId,
        f: usize,
        n: usize,
        retrieval_timeout: SimDuration,
        first_query_wait: SimDuration,
    ) -> Self {
        assert!(
            id.as_index() < n,
            "RetrievalManager: replica {id:?} is not one of the {n} replicas"
        );
        Self {
            id,
            f,
            n,
            requery_after: retrieval_timeout.saturating_mul(REQUERY_TIMEOUTS),
            first_query_after: first_query_wait,
            armed: None,
            pending: FastMap::default(),
            code: None,
            served: FastMap::default(),
        }
    }

    /// Registers that BFTblock `seq` needs the missing datablock `digest`.
    ///
    /// Returns the delay of the wake-up the caller arms (`D`), or `None` if none is
    /// needed: the datablock was already missing, or the armed wake-up fires no later.
    pub fn note_missing(
        &mut self,
        digest: Digest,
        seq: SeqNum,
        now: SimTime,
    ) -> Option<SimDuration> {
        if let Some(pending) = self.pending.get_mut(&digest) {
            pending.waiting.insert(seq);
            return None;
        }
        let pending = PendingRetrieval {
            waiting: [seq].into_iter().collect(),
            chunks: FastMap::default(),
            metered_datablock: None,
            started_at: now,
            last_query: None,
            received_bytes: 0,
        };
        self.pending.insert(digest, pending);
        self.arm(now + self.first_query_after, now)
    }

    /// Arms the wake-up for `deadline` unless one is armed no later; returns its delay.
    fn arm(&mut self, deadline: SimTime, now: SimTime) -> Option<SimDuration> {
        if self.armed.is_some_and(|armed| armed <= deadline) {
            return None;
        }
        self.armed = Some(deadline);
        Some(deadline.saturating_since(now))
    }

    /// Called when the wake-up fires, after [`Self::digests_to_query`]: forgets an armed
    /// deadline the fire reached or passed (a wake-up lands late when its arming handler
    /// charged compute) and arms for the earliest pending deadline, returning its delay.
    pub fn rearm(&mut self, now: SimTime) -> Option<SimDuration> {
        self.armed = self.armed.filter(|&armed| armed > now);
        let next = self.pending.values().map(|p| self.due_at(p)).min()?;
        self.arm(next, now)
    }

    /// When `pending` is next queried: `D` after its note, then [`REQUERY_TIMEOUTS`]
    /// retrieval timeouts after its last query.
    fn due_at(&self, pending: &PendingRetrieval) -> SimTime {
        match pending.last_query {
            None => pending.started_at + self.first_query_after,
            Some(at) => at + self.requery_after,
        }
    }

    /// A restarted replica lost its armed wake-up: arms for what is still pending (at
    /// once for a deadline the crash outlasted), as [`Self::rearm`].
    pub fn on_restart(&mut self, now: SimTime) -> Option<SimDuration> {
        self.armed = None;
        self.rearm(now)
    }

    /// True if `digest` is still being retrieved.
    pub fn is_pending(&self, digest: &Digest) -> bool {
        self.pending.contains_key(digest)
    }

    /// Called when the wake-up fires: returns the digests that are due — never queried
    /// and missing for at least the first-query wait, or still pending
    /// [`REQUERY_TIMEOUTS`] retrieval timeouts after the last query (the loss-recovery
    /// path) — and stamps them.
    pub fn digests_to_query(&mut self, now: SimTime) -> Vec<Digest> {
        let mut digests: Vec<Digest> =
            self.pending.iter().filter(|(_, p)| self.due_at(p) <= now).map(|(d, _)| *d).collect();
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
        self.served.retain(|digest, _| !executed.contains(digest));
    }

    /// The `(f+1, n)` code, built on first use. Only real crypto asks for it, and
    /// `LeopardConfig::validate` rejects real crypto above `ReedSolomon::MAX_SHARDS`.
    fn code(code: &mut Option<ReedSolomon>, f: usize, n: usize) -> &ReedSolomon {
        code.get_or_insert_with(|| {
            ReedSolomon::new(f + 1, n).expect("real crypto runs at most MAX_SHARDS replicas")
        })
    }

    /// Responder-side: produces this replica's chunk of `datablock`, with the modeled
    /// compute the responder spent on it, through the crypto provider.
    ///
    /// With real crypto the chunk is byte for byte what the stateless
    /// [`encode_response`] returns, built from less host work: the Merkle tree over all
    /// `n` shards comes from the datablock copy ([`Datablock::shard_tree`]), so the
    /// full encode and the tree are computed once per copy for every replica holding
    /// it, and this replica computes only its own shard and proof. In metered mode the
    /// expensive work is skipped: the chunk declares the byte sizes the real chunk and
    /// proof would occupy and carries the datablock by reference. Both modes charge the
    /// same modeled [`ComputeCost`]: the full encode and tree on a replica's first
    /// response for a datablock, nothing on cache hits, which share the cached chunk.
    pub fn encode_response(
        &mut self,
        datablock: &Arc<Datablock>,
        provider: &CryptoProvider,
    ) -> (Arc<RetrievalChunk>, ComputeCost) {
        let digest = datablock.digest();
        if let Some(cached) = self.served.get(&digest) {
            return (Arc::clone(cached), ComputeCost::ZERO);
        }
        let (f, n, index) = (self.f, self.n, self.id.as_index());
        // Chunks derive from the *encoded* datablock bytes (synthetic payloads charge
        // their declared size on the wire but encode compactly — see
        // `Datablock::encoded_len`), matching the real encoder byte for byte.
        let encoded_len = datablock.encoded_len();
        let shard_len = encoded_len.div_ceil(f + 1).max(1);
        let cost = provider.model().erasure_encode(encoded_len, f + 1, n)
            + provider.model().merkle_tree(shard_len, n);
        let chunk = Arc::new(if provider.is_metered() {
            RetrievalChunk::new(
                digest,
                index as u32,
                RetrievalPayload::Metered {
                    chunk_len: shard_len as u32,
                    proof_len: MerkleProof::wire_size_for(n, index).expect("id < n") as u32,
                    datablock: Arc::clone(datablock),
                },
                encoded_len as u64,
            )
        } else {
            let rs = Self::code(&mut self.code, f, n);
            let encoded = datablock.encode_to_vec();
            let tree = datablock.shard_tree(f + 1, n, || {
                MerkleTree::from_leaves(rs.encode_payload(&encoded).iter().map(Vec::as_slice))
            });
            let shard = rs.encode_shard(&encoded, index).expect("id < n");
            real_chunk(tree, index, shard, encoded.len()).expect("id < n")
        });
        self.served.insert(digest, Arc::clone(&chunk));
        (chunk, cost)
    }

    /// Feeds a received chunk into the matching retrieval, returning the outcome plus
    /// the modeled compute the querier spent on it (proof verification per chunk, and
    /// the decode plus digest check when a quorum of chunks completes).
    ///
    /// A chunk whose shard index is not one of the `n` replicas is ignored. With real
    /// crypto the Merkle proof must be for that index and verify against the chunk's
    /// root ([`RetrievalChunk::proof_holds`]: run by the chunk's first receiver, read
    /// by the others, charged to each). Chunks are grouped by root and declared payload
    /// length — the proof does not cover the length, so a responder lying about it only
    /// spoils its own group — and a group that holds `f + 1` chunks is recovered: by
    /// adopting the copy another querier recovered from the same chunks, if every chunk
    /// is that copy's shard, otherwise by a decode whose bytes must hash to the queried
    /// digest ([`Datablock::decode_hashed`]). A group that does not recover is discarded
    /// (the root was forged). A metered chunk skips the real verification and decode —
    /// responses are honest by construction in that mode — but follows the same
    /// counting and charges the same modeled time. Either way the querier is charged the
    /// modeled decode and digest check.
    ///
    /// A chunk for a digest that is not pending is dropped before anything is read from
    /// it; a kept chunk is kept as the response's `Arc`, never copied.
    pub fn add_chunk(
        &mut self,
        digest: Digest,
        chunk: Arc<RetrievalChunk>,
        now: SimTime,
        provider: &CryptoProvider,
    ) -> (ChunkOutcome, ComputeCost) {
        let (f, n) = (self.f, self.n);
        let model = provider.model();
        let Some(pending) = self.pending.get_mut(&digest) else {
            return (ChunkOutcome::Ignored, ComputeCost::ZERO);
        };
        let (root, shard_index, payload_len) =
            (chunk.root(), chunk.shard_index(), chunk.payload_len());
        let shard_len = payload_len.div_ceil(f as u64 + 1).max(1) as usize;
        // Every querier is charged the verification, including those that read the
        // verdict another querier's check left on the shared chunk.
        let mut cost = model.merkle_verify(shard_len, n);
        if shard_index as usize >= n || !chunk.proof_holds() {
            return (ChunkOutcome::Ignored, cost);
        }
        if let RetrievalPayload::Metered { datablock, .. } = chunk.payload() {
            pending.metered_datablock = Some(Arc::clone(datablock));
        }
        pending.received_bytes += chunk.response_wire_size() as u64;
        let group = (root, payload_len);
        let chunks = pending.chunks.entry(group).or_default();
        chunks.insert(shard_index, chunk);

        if chunks.len() < f + 1 {
            return (ChunkOutcome::Stored, cost);
        }

        // A quorum of chunks in one group: decode and check the digest.
        let encoded_len = payload_len as usize;
        cost += model.erasure_decode(encoded_len, f + 1) + model.hash(encoded_len);
        let datablock = if let Some(datablock) = pending.metered_datablock.clone() {
            if datablock.digest() != digest {
                pending.chunks.remove(&group);
                pending.metered_datablock = None;
                return (ChunkOutcome::Ignored, cost);
            }
            datablock
        } else {
            let rs = Self::code(&mut self.code, f, n);
            // Every exit from here on — recovery, a decode error, a digest mismatch —
            // is done with this group's chunks.
            let chunks = pending.chunks.remove(&group).expect("just inserted");
            match recover(rs, &chunks, digest, encoded_len) {
                Some(datablock) => datablock,
                None => return (ChunkOutcome::Ignored, cost),
            }
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
thread_local! {
    /// Reed–Solomon decodes [`recover`] ran on this thread.
    static DECODES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Decoded payloads [`recover`] hashed on this thread.
    static HASHES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Recovers datablock `digest`, `encoded_len` bytes long, from a group of `f + 1` real
/// chunks under one root, or `None` if the group does not hold it. On recovery every
/// chunk of the group is certified a shard of the returned copy
/// ([`RetrievalChunk::shard_of`]) if it is one.
///
/// Two paths, one outcome. If a chunk names a copy of `digest` with this length, and
/// every chunk of the group is that copy's shard — certified for a copy of `digest`, or
/// equal to the shard recomputed from the copy's bytes — the copy is adopted: `f + 1`
/// shards of one codeword decode to its bytes, which hash to `digest`, so the decode
/// would recover the same datablock. Otherwise the chunks are decoded and the bytes
/// must hash to `digest` (a mismatch means the group's responders colluded on a
/// different datablock); the chunks are certified only if they are exactly the
/// recovered bytes' shards, as shards of another codeword that decode to the same
/// bytes need not agree with the copy's other shards. A metered chunk here (possible
/// only after another group's metered datablock was refused) is no copy's shard and
/// reads as empty, which fails the decoder's length check.
fn recover(
    rs: &ReedSolomon,
    chunks: &BTreeMap<u32, Arc<RetrievalChunk>>,
    digest: Digest,
    encoded_len: usize,
) -> Option<Arc<Datablock>> {
    let is_the_datablock =
        |copy: &Arc<Datablock>| copy.digest() == digest && copy.encoded_len() == encoded_len;
    let known = chunks
        .values()
        .find_map(|chunk| chunk.shard_of().filter(|copy| is_the_datablock(copy)));
    if let Some(copy) = known {
        let mut bytes = None;
        let all_shards = chunks.iter().all(|(&index, chunk)| {
            if chunk.shard_of().is_some_and(is_the_datablock) {
                return true;
            }
            let RetrievalPayload::Real { chunk, .. } = chunk.payload() else {
                return false;
            };
            let bytes = bytes.get_or_insert_with(|| copy.encode_to_vec());
            rs.encode_shard(bytes, index as usize)
                .is_some_and(|shard| shard == *chunk)
        });
        if all_shards {
            let copy = Arc::clone(copy);
            chunks
                .values()
                .for_each(|chunk| chunk.certify_shard_of(&copy));
            return Some(copy);
        }
    }
    let shards: Vec<(usize, &[u8])> = chunks
        .iter()
        .map(|(&i, chunk)| {
            let bytes = match chunk.payload() {
                RetrievalPayload::Real { chunk, .. } => chunk.as_slice(),
                RetrievalPayload::Metered { .. } => &[],
            };
            (i as usize, bytes)
        })
        .collect();
    #[cfg(test)]
    DECODES.with(|decodes| decodes.set(decodes.get() + 1));
    let (decoded, exact) = rs.decode_payload_exact(&shards, encoded_len).ok()?;
    #[cfg(test)]
    HASHES.with(|hashes| hashes.set(hashes.get() + 1));
    let datablock = Arc::new(Datablock::decode_hashed(&decoded, digest).ok()?);
    if exact {
        chunks
            .values()
            .for_each(|chunk| chunk.certify_shard_of(&datablock));
    }
    Some(datablock)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::PROOF_CHECKS;
    use leopard_crypto::provider::{CryptoCostModel, CryptoMode};
    use leopard_crypto::threshold::ThresholdScheme;
    use leopard_types::{calibrated_crypto_costs, ClientId, Request};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn provider_with(mode: CryptoMode, model: CryptoCostModel) -> CryptoProvider {
        let mut rng = StdRng::seed_from_u64(5);
        let (scheme, _) = ThresholdScheme::trusted_setup(3, 4, &mut rng);
        CryptoProvider::new(scheme, mode, model)
    }

    fn provider(mode: CryptoMode) -> CryptoProvider {
        provider_with(mode, CryptoCostModel::free())
    }

    /// A provider that charges the calibrated costs, so a charge can be told from none.
    fn charging_provider(mode: CryptoMode) -> CryptoProvider {
        provider_with(mode, calibrated_crypto_costs())
    }

    /// The first-query wait `D` of the managers under test.
    const WAIT: SimDuration = SimDuration(10_000_000);

    fn manager(id: u32, f: usize, n: usize) -> RetrievalManager {
        RetrievalManager::new(NodeId(id), f, n, SimDuration::from_millis(100), WAIT)
    }

    /// `millis` milliseconds after the start.
    fn at_ms(millis: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(millis)
    }

    /// A missing digest arms a wake-up exactly the first-query wait `D` after it was
    /// noted: it is not queried one nanosecond earlier, and is queried at `noted + D`.
    #[test]
    fn a_missing_digest_is_first_queried_one_wait_after_it_was_noted() {
        let digest = sample_datablock(1).digest();
        let noted = at_ms(3);
        let mut querier = manager(0, 1, 4);
        assert_eq!(querier.note_missing(digest, SeqNum(1), noted), Some(WAIT));
        let early = noted + SimDuration(WAIT.as_nanos() - 1);
        assert!(querier.digests_to_query(early).is_empty(), "queried before D");
        assert_eq!(querier.digests_to_query(noted + WAIT), [digest]);
        // Stamped: a later fire finds nothing left to query.
        assert!(querier.digests_to_query(at_ms(20)).is_empty());
    }

    /// One wake-up is armed at a time: a digest noted while it is armed for an earlier
    /// deadline arms nothing, and the fire at that deadline queries what is due in one
    /// `Query` and re-arms for the next deadline, exactly `D` after the later note.
    #[test]
    fn digests_noted_at_one_instant_share_one_query() {
        let digests: Vec<Digest> = (1..=4).map(|i| sample_datablock(i).digest()).collect();
        let mut querier = manager(0, 1, 4);
        let (first, second) = (at_ms(1), at_ms(1) + SimDuration(1));
        let noted = [first, first, first, second];
        let wakes: Vec<Option<SimDuration>> = digests
            .iter()
            .zip(noted)
            .map(|(&digest, at)| querier.note_missing(digest, SeqNum(1), at))
            .collect();
        assert_eq!(wakes, [Some(WAIT), None, None, None]);
        let mut together = digests[..3].to_vec();
        together.sort_unstable();
        assert_eq!(querier.digests_to_query(first + WAIT), together);
        assert_eq!(querier.rearm(first + WAIT), Some(SimDuration(1)));
        assert_eq!(querier.digests_to_query(second + WAIT), [digests[3]]);
        // All four queried: the next deadline is the first three's re-query.
        let requery = SimDuration::from_millis(100).saturating_mul(REQUERY_TIMEOUTS);
        assert_eq!(querier.rearm(second + WAIT), Some(SimDuration(requery.as_nanos() - 1)));
    }

    /// A wake-up can land after its deadline (its arming handler charged compute): the
    /// late fire still clears the armed deadline, so the fire re-arms for a digest noted
    /// in between, and a fire before the armed deadline arms nothing more.
    #[test]
    fn a_late_fire_clears_the_armed_deadline() {
        let [a, b] = [1, 2].map(|i| sample_datablock(i).digest());
        let mut querier = manager(0, 1, 4);
        assert_eq!(querier.note_missing(a, SeqNum(1), at_ms(1)), Some(WAIT));
        assert_eq!(querier.note_missing(b, SeqNum(2), at_ms(5)), None);
        let late = at_ms(1) + WAIT + SimDuration::from_millis(2);
        assert_eq!(querier.digests_to_query(late), [a]);
        assert_eq!(querier.rearm(late), Some(SimDuration::from_millis(2)));
        // A stray fire before the new deadline leaves it armed.
        assert_eq!(querier.rearm(late + SimDuration(1)), None);
        assert_eq!(querier.digests_to_query(at_ms(5) + WAIT), [b]);
    }

    /// A restart loses the armed wake-up: the replica re-arms for the earliest pending
    /// deadline, at once for one the crash outlasted, and with nothing pending arms
    /// nothing.
    #[test]
    fn a_restart_forgets_the_armed_wake_up() {
        let [a, b] = [1, 2].map(|i| sample_datablock(i).digest());
        let mut querier = manager(0, 1, 4);
        assert_eq!(querier.on_restart(at_ms(1)), None);
        assert_eq!(querier.note_missing(a, SeqNum(1), at_ms(1)), Some(WAIT));
        assert_eq!(querier.note_missing(b, SeqNum(1), at_ms(2)), None);
        assert_eq!(querier.on_restart(at_ms(3)), Some(SimDuration::from_millis(8)));
        let outlasted = at_ms(2) + WAIT;
        assert_eq!(querier.on_restart(outlasted), Some(SimDuration::ZERO));
        let mut both = vec![a, b];
        both.sort_unstable();
        assert_eq!(querier.digests_to_query(outlasted), both);
    }

    /// The chunk bytes and Merkle proof of a real-crypto chunk.
    fn real_parts(chunk: &RetrievalChunk) -> (&[u8], &MerkleProof) {
        match chunk.payload() {
            RetrievalPayload::Real { chunk, proof } => (chunk, proof),
            other => panic!("expected a real payload, got {other:?}"),
        }
    }

    /// A chunk's parts: root, shard index, payload and payload length.
    type Parts = (Digest, u32, RetrievalPayload, u64);

    /// A new chunk built from `chunk`'s parts after `edit` changed them.
    fn edited(chunk: &RetrievalChunk, edit: impl FnOnce(&mut Parts)) -> RetrievalChunk {
        let mut parts = (
            chunk.root(),
            chunk.shard_index(),
            chunk.payload().clone(),
            chunk.payload_len(),
        );
        edit(&mut parts);
        let (root, shard_index, payload, payload_len) = parts;
        RetrievalChunk::new(root, shard_index, payload, payload_len)
    }

    fn sample_datablock(requests: usize) -> Datablock {
        Datablock::new(
            NodeId(2),
            1,
            (0..requests)
                .map(|i| Request::new_synthetic(ClientId(1), i as u64, 128))
                .collect(),
        )
    }

    #[test]
    fn encode_response_produces_verifiable_chunks() {
        let db = sample_datablock(50);
        let (f, n) = (1, 4);
        for responder in 0..n as u32 {
            let response = encode_response(&db, NodeId(responder), f, n).unwrap();
            assert_eq!(response.shard_index(), responder);
            let (chunk, proof) = real_parts(&response);
            assert!(proof.verify(response.root(), chunk));
        }
        assert!(encode_response(&db, NodeId(99), f, n).is_none());
    }

    #[test]
    fn cached_manager_responses_match_stateless_encoding() {
        let provider = provider(CryptoMode::Real);
        for (f, n) in [(1, 4), (10, 32)] {
            // One copy of each datablock shared by every replica, as the simulator
            // shares them: the first server builds its shard tree for all the others.
            let db = Arc::new(sample_datablock(50));
            let other = Arc::new(sample_datablock(33));
            // Every replica serves two datablocks twice (the second time from its
            // cache): every chunk, data or parity, must be byte-identical to the
            // stateless reference path.
            for responder in 0..n as u32 {
                let mut manager = manager(responder, f, n);
                for datablock in [&db, &other, &db, &other] {
                    let (cached, _) = manager.encode_response(datablock, &provider);
                    let fresh = encode_response(datablock, NodeId(responder), f, n).unwrap();
                    assert_eq!(cached.root(), fresh.root());
                    assert_eq!(cached.shard_index(), fresh.shard_index());
                    assert_eq!(cached.payload_len(), fresh.payload_len());
                    assert_eq!(real_parts(&cached), real_parts(&fresh), "f={f} n={n}");
                    let (chunk, proof) = real_parts(&cached);
                    assert!(proof.verify(cached.root(), chunk));
                }
            }
        }
    }

    /// Replicas holding one `Arc<Datablock>` share one shard tree: the first serve
    /// builds it, the next reuses it. The stateless reference neither fills the cell
    /// nor reads it.
    #[test]
    fn responders_sharing_a_datablock_copy_build_one_tree() {
        let (f, n) = (10, 32);
        let provider = provider(CryptoMode::Real);
        let db = Arc::new(sample_datablock(50));
        let reference = encode_response(&db, NodeId(3), f, n).unwrap();
        let (first, _) = manager(3, f, n).encode_response(&db, &provider);
        let tree: *const MerkleTree = db.shard_tree(f + 1, n, || unreachable!("built"));
        let (second, _) = manager(7, f, n).encode_response(&db, &provider);
        assert!(std::ptr::eq(
            tree,
            db.shard_tree(f + 1, n, || unreachable!("built"))
        ));
        assert_eq!(real_parts(&first), real_parts(&reference));
        assert_eq!(second.root(), reference.root());
        assert_eq!(second.shard_index(), 7);

        // The stateless path leaves an empty cell empty...
        let fresh = sample_datablock(50);
        encode_response(&fresh, NodeId(3), f, n).unwrap();
        let mut built = false;
        fresh.shard_tree(f + 1, n, || {
            built = true;
            MerkleTree::from_leaves([b"decoy".as_slice()])
        });
        assert!(built);
        // ... and ignores a filled one (here with a decoy tree).
        let again = encode_response(&fresh, NodeId(3), f, n).unwrap();
        assert_eq!(
            (again.root(), real_parts(&again)),
            (reference.root(), real_parts(&reference))
        );
    }

    #[test]
    #[should_panic(expected = "is not one of the 4 replicas")]
    fn manager_rejects_a_replica_outside_the_committee() {
        manager(4, 1, 4);
    }

    /// The responder's charge mirrors its cache, identically in both crypto modes: the
    /// first response for a datablock pays the encode and the Merkle tree, a repeat pays
    /// nothing, and once `prune` dropped the entry the next response pays again.
    #[test]
    fn responder_charges_encode_once_per_cached_datablock_in_both_modes() {
        let (f, n) = (1, 4);
        let db = Arc::new(sample_datablock(50));
        let charges = |mode: CryptoMode| -> Vec<ComputeCost> {
            let provider = charging_provider(mode);
            let mut manager = manager(1, f, n);
            let mut charges = Vec::new();
            charges.push(manager.encode_response(&db, &provider).1);
            charges.push(manager.encode_response(&db, &provider).1);
            manager.prune([db.digest()]);
            charges.push(manager.encode_response(&db, &provider).1);
            charges
        };
        let model = calibrated_crypto_costs();
        let encoded_len = db.encoded_len();
        let full = model.erasure_encode(encoded_len, f + 1, n)
            + model.merkle_tree(encoded_len.div_ceil(f + 1), n);
        assert!(!full.is_zero());
        let expected = vec![full, ComputeCost::ZERO, full];
        assert_eq!(charges(CryptoMode::Real), expected);
        assert_eq!(charges(CryptoMode::Metered), expected);
    }

    /// A responder serving `k` queriers for one datablock hands every one of them the
    /// chunk its cache holds, in both crypto modes: a repeat serve is a refcount, not a
    /// copy of the chunk bytes and proof.
    #[test]
    fn repeat_serves_share_one_cached_chunk() {
        let (f, n) = (1, 4);
        let db = Arc::new(sample_datablock(50));
        for mode in [CryptoMode::Real, CryptoMode::Metered] {
            let provider = provider(mode);
            let mut responder = manager(2, f, n);
            let served: Vec<Arc<RetrievalChunk>> = (0..3)
                .map(|_| responder.encode_response(&db, &provider).0)
                .collect();
            assert!(
                served.iter().all(|chunk| Arc::ptr_eq(chunk, &served[0])),
                "{mode:?}"
            );
            // The three responses plus the cache entry.
            assert_eq!(Arc::strong_count(&served[0]), 4, "{mode:?}");
        }
    }

    /// The querier keeps a valid chunk for a pending digest as the response's own
    /// `Arc`, and drops one for a digest it is not retrieving without keeping (or
    /// copying) anything of it.
    #[test]
    fn chunks_are_kept_by_reference_and_only_for_pending_digests() {
        let (f, n) = (1, 4);
        let db = sample_datablock(10);
        let digest = db.digest();
        let provider = provider(CryptoMode::Real);
        let chunk = Arc::new(encode_response(&db, NodeId(1), f, n).unwrap());
        let mut querier = manager(0, f, n);

        let (outcome, cost) = querier.add_chunk(digest, Arc::clone(&chunk), SimTime(1), &provider);
        assert_eq!((outcome, cost), (ChunkOutcome::Ignored, ComputeCost::ZERO));
        assert_eq!(
            Arc::strong_count(&chunk),
            1,
            "an unsolicited chunk is not kept"
        );

        querier.note_missing(digest, SeqNum(1), SimTime(0));
        let (outcome, _) = querier.add_chunk(digest, Arc::clone(&chunk), SimTime(1), &provider);
        assert_eq!(outcome, ChunkOutcome::Stored);
        assert_eq!(
            Arc::strong_count(&chunk),
            2,
            "a pending digest keeps the response itself"
        );

        // Recovery (or cancellation) releases it.
        let last = Arc::new(encode_response(&db, NodeId(3), f, n).unwrap());
        let (outcome, _) = querier.add_chunk(digest, last, SimTime(2), &provider);
        assert!(matches!(outcome, ChunkOutcome::Recovered { .. }));
        assert_eq!(Arc::strong_count(&chunk), 1);
    }

    /// A metered response declares exactly the wire bytes the real response occupies,
    /// and carries the datablock by reference.
    #[test]
    fn metered_response_sizes_match_real_responses() {
        for (requests, f, n) in [(50usize, 1usize, 4usize), (200, 10, 31), (64, 5, 16)] {
            let db = Arc::new(sample_datablock(requests));
            let metered = provider(CryptoMode::Metered);
            for responder in 0..n as u32 {
                let (m, _) = manager(responder, f, n).encode_response(&db, &metered);
                let real = encode_response(&db, NodeId(responder), f, n).unwrap();
                let (chunk, proof) = real_parts(&real);
                assert_eq!(
                    m.payload().wire_len(),
                    chunk.len() + proof.wire_size(),
                    "requests={requests} f={f} n={n} responder={responder}"
                );
                assert_eq!((m.root(), m.shard_index()), (db.digest(), responder));
                assert_eq!(m.payload_len(), real.payload_len());
                match m.payload() {
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
            let mut querier = manager(0, f, n);
            querier.note_missing(digest, SeqNum(3), SimTime(1_000));
            let mut outcome = ChunkOutcome::Stored;
            for responder in [1, 3] {
                let chunk = if use_metered {
                    manager(responder, f, n).encode_response(&db, &metered).0
                } else {
                    Arc::new(encode_response(&db, NodeId(responder), f, n).unwrap())
                };
                outcome = querier
                    .add_chunk(digest, chunk, SimTime(5_000_000), &metered)
                    .0;
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
        let mut manager = manager(0, f, n);

        assert_eq!(manager.note_missing(digest, SeqNum(3), SimTime(1_000)), Some(WAIT));
        assert_eq!(manager.note_missing(digest, SeqNum(4), SimTime(2_000)), None);
        // Nothing is queried before the first-query wait, everything at the wake-up.
        let early = SimTime(1_000) + SimDuration(WAIT.as_nanos() - 1);
        assert!(manager.digests_to_query(early).is_empty());
        let wake = SimTime(1_000) + WAIT;
        assert_eq!(manager.digests_to_query(wake), vec![digest]);
        // Subsequent fires inside the re-query window do not re-query.
        assert!(manager
            .digests_to_query(wake + SimDuration::from_millis(100))
            .is_empty());

        let provider = provider(CryptoMode::Real);
        let mut outcome = ChunkOutcome::Stored;
        let mut response_bytes = 0;
        for responder in [NodeId(1), NodeId(3)] {
            let chunk = Arc::new(encode_response(&db, responder, f, n).unwrap());
            let response = crate::messages::LeopardMessage::QueryResponse {
                digest,
                chunk: chunk.clone(),
            };
            response_bytes += leopard_types::WireSize::wire_size(&response) as u64;
            outcome = manager
                .add_chunk(digest, chunk, wake + SimDuration::from_millis(5), &provider)
                .0;
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
                // From the note at 1 µs to the recovery 5 ms after the wake-up D later.
                assert_eq!(elapsed_nanos, 15_000_000);
                // The bytes counted are the accepted QueryResponses' wire bytes.
                assert_eq!(received_bytes, response_bytes);
            }
            other => panic!("expected recovery, got {other:?}"),
        }
        assert!(!manager.is_pending(&digest));
    }

    /// Chunks come from other replicas, so `add_chunk` must ignore malformed ones —
    /// a tampered chunk, a proof for another shard than the one claimed, a shard index
    /// outside the committee (real, with a proof that verifies on its own, or metered),
    /// a chunk for a datablock nobody asked for, a valid chunk under a lying payload
    /// length — under either crypto mode, and charge the same for them in both.
    #[test]
    fn invalid_chunks_are_ignored() {
        let db = Arc::new(sample_datablock(10));
        let digest = db.digest();
        let (f, n) = (1, 4);
        let response = encode_response(&db, NodeId(1), f, n).unwrap();
        let (chunk, proof) = real_parts(&response);
        let with_payload = |shard_index: u32, chunk: Vec<u8>| {
            edited(&response, |parts| {
                parts.1 = shard_index;
                parts.2 = RetrievalPayload::Real {
                    chunk,
                    proof: proof.clone(),
                };
            })
        };
        let mut tampered = chunk.to_vec();
        tampered[0] ^= 0xff;
        // Leaf 6 of an 8-chunk coding: its proof verifies against its own root.
        let outside = encode_response(&db, NodeId(6), f, 8).unwrap();
        let metered_outside = edited(
            &manager(3, f, n)
                .encode_response(&db, &provider(CryptoMode::Metered))
                .0,
            |parts| parts.1 = n as u32,
        );
        let malformed = [
            with_payload(1, tampered),
            with_payload(2, chunk.to_vec()),
            outside,
            metered_outside,
        ];
        let charges = |mode: CryptoMode| -> Vec<ComputeCost> {
            let provider = charging_provider(mode);
            let mut manager = manager(0, f, n);
            manager.note_missing(digest, SeqNum(1), SimTime(0));
            let mut charges = Vec::new();
            for bad in malformed.clone() {
                let (outcome, cost) =
                    manager.add_chunk(digest, Arc::new(bad), SimTime(1), &provider);
                assert_eq!(outcome, ChunkOutcome::Ignored, "{mode:?}");
                charges.push(cost);
            }
            // A chunk for an unknown digest is ignored.
            let other_digest = sample_datablock(11).digest();
            let (outcome, _) = manager.add_chunk(
                other_digest,
                Arc::new(response.clone()),
                SimTime(1),
                &provider,
            );
            assert_eq!(outcome, ChunkOutcome::Ignored);
            // The original chunk still works.
            let (outcome, _) =
                manager.add_chunk(digest, Arc::new(response.clone()), SimTime(1), &provider);
            assert_eq!(outcome, ChunkOutcome::Stored);
            // A holder sends its own valid-proof chunk under a lying payload length:
            // it lands in a group of its own instead of spoiling the honest chunk's
            // decode, so the next honest chunk recovers the datablock.
            let liar = edited(&encode_response(&db, NodeId(2), f, n).unwrap(), |parts| {
                parts.3 = response.payload_len() - 1
            });
            let (outcome, cost) = manager.add_chunk(digest, Arc::new(liar), SimTime(1), &provider);
            assert_eq!(outcome, ChunkOutcome::Stored, "{mode:?}");
            charges.push(cost);
            let honest = encode_response(&db, NodeId(3), f, n).unwrap();
            let (outcome, cost) =
                manager.add_chunk(digest, Arc::new(honest), SimTime(1), &provider);
            assert!(
                matches!(outcome, ChunkOutcome::Recovered { .. }),
                "{mode:?}: {outcome:?}"
            );
            charges.push(cost);
            charges
        };
        assert_eq!(charges(CryptoMode::Real), charges(CryptoMode::Metered));
    }

    /// The verdict a chunk carries vouches for that chunk only. Two queriers that
    /// receive one `Arc` run one real check and are both charged the verification. A
    /// clone of a checked chunk is checked afresh, and so is a new chunk that changes
    /// one part of it — its bytes, proof, index or root — which both queriers then
    /// reject, though all but the last keep the checked chunk's root and index.
    #[test]
    fn a_checked_chunk_vouches_only_for_itself() {
        let db = sample_datablock(10);
        let digest = db.digest();
        let (f, n) = (1, 4);
        let provider = charging_provider(CryptoMode::Real);
        let querier = |id: u32| {
            let mut querier = manager(id, f, n);
            querier.note_missing(digest, SeqNum(1), SimTime(0));
            querier
        };
        let checks = || PROOF_CHECKS.with(std::cell::Cell::get);
        let start = checks();

        let shared = Arc::new(encode_response(&db, NodeId(1), f, n).unwrap());
        let first = querier(0).add_chunk(digest, Arc::clone(&shared), SimTime(1), &provider);
        let second = querier(2).add_chunk(digest, Arc::clone(&shared), SimTime(1), &provider);
        let verify = first.1;
        assert!(!verify.is_zero());
        assert_eq!(first, (ChunkOutcome::Stored, verify));
        assert_eq!(second, (ChunkOutcome::Stored, verify));
        assert_eq!(checks() - start, 1, "one real check for one shared chunk");

        let clone = Arc::new(RetrievalChunk::clone(&shared));
        let outcome = querier(0).add_chunk(digest, clone, SimTime(1), &provider);
        assert_eq!(outcome, (ChunkOutcome::Stored, verify));
        assert_eq!(checks() - start, 2, "a clone is checked afresh");

        // The same leaf of another datablock's coding: a proof for index 1 that does
        // not lead from the checked bytes to the checked root.
        let other = encode_response(&sample_datablock(11), NodeId(1), f, n).unwrap();
        let other_proof = real_parts(&other).1.clone();
        let flip_a_byte = |payload: &mut RetrievalPayload| match payload {
            RetrievalPayload::Real { chunk, .. } => chunk[0] ^= 1,
            RetrievalPayload::Metered { .. } => unreachable!("a real chunk"),
        };
        let changed = [
            ("bytes", edited(&shared, |parts| flip_a_byte(&mut parts.2))),
            (
                "proof",
                edited(&shared, |parts| {
                    if let RetrievalPayload::Real { proof, .. } = &mut parts.2 {
                        *proof = other_proof;
                    }
                }),
            ),
            // Leaf 1's proof still verifies leaf 1's bytes; only the index test fails.
            ("index", edited(&shared, |parts| parts.1 = 2)),
            ("root", edited(&shared, |parts| parts.0 = other.root())),
        ];
        for (part, chunk) in changed {
            let chunk = Arc::new(chunk);
            for id in [0, 2] {
                let outcome =
                    querier(id).add_chunk(digest, Arc::clone(&chunk), SimTime(1), &provider);
                let expected = (ChunkOutcome::Ignored, verify);
                assert_eq!(outcome, expected, "changed {part}, querier {id}");
            }
        }
        assert_eq!(checks() - start, 6, "each changed chunk is checked once");
    }

    #[test]
    fn forged_root_does_not_recover_wrong_datablock() {
        // Two colluding responders serve chunks of a *different* datablock under a
        // consistent root; the decode succeeds but the digest check rejects it, and
        // certifies none of the chunks.
        let real = sample_datablock(10);
        let fake = sample_datablock(12);
        let digest = real.digest();
        let (f, n) = (1, 4);
        let mut manager = manager(0, f, n);
        manager.note_missing(digest, SeqNum(1), SimTime(0));

        let provider = provider(CryptoMode::Real);
        let forged = [NodeId(0), NodeId(2)]
            .map(|responder| Arc::new(encode_response(&fake, responder, f, n).unwrap()));
        let start = decodes_and_hashes();
        let mut last = ChunkOutcome::Stored;
        for chunk in &forged {
            last = manager.add_chunk(digest, Arc::clone(chunk), SimTime(1), &provider).0;
        }
        assert_eq!(last, ChunkOutcome::Ignored);
        assert_eq!(decodes_and_hashes(), (start.0 + 1, start.1 + 1));
        assert!(forged.iter().all(|chunk| chunk.shard_of().is_none()));
        // The retrieval is still pending: honest chunks can still recover it.
        assert!(manager.is_pending(&digest));
        let mut outcome = ChunkOutcome::Stored;
        for responder in [NodeId(1), NodeId(3)] {
            let chunk = Arc::new(encode_response(&real, responder, f, n).unwrap());
            outcome = manager.add_chunk(digest, chunk, SimTime(2), &provider).0;
        }
        assert!(matches!(outcome, ChunkOutcome::Recovered { .. }));
    }

    /// Reed–Solomon decodes and payload hashes run on this thread so far.
    fn decodes_and_hashes() -> (usize, usize) {
        (
            DECODES.with(std::cell::Cell::get),
            HASHES.with(std::cell::Cell::get),
        )
    }

    /// A querier of `n` replicas missing `digest`.
    fn querier_of(id: u32, f: usize, n: usize, digest: Digest) -> RetrievalManager {
        let mut querier = manager(id, f, n);
        querier.note_missing(digest, SeqNum(1), SimTime(0));
        querier
    }

    /// Feeds `chunks` to `querier` in order and returns the last outcome and charge.
    fn feed(
        querier: &mut RetrievalManager,
        digest: Digest,
        chunks: &[Arc<RetrievalChunk>],
    ) -> (ChunkOutcome, ComputeCost) {
        let provider = charging_provider(CryptoMode::Real);
        let mut last = (ChunkOutcome::Stored, ComputeCost::ZERO);
        for chunk in chunks {
            last = querier.add_chunk(digest, Arc::clone(chunk), SimTime(1), &provider);
        }
        last
    }

    /// The datablock of a recovery.
    fn recovered(outcome: &ChunkOutcome) -> &Arc<Datablock> {
        match outcome {
            ChunkOutcome::Recovered { datablock, .. } => datablock,
            other => panic!("expected recovery, got {other:?}"),
        }
    }

    /// Chunks `indices` of a coding whose Merkle tree is built over `shards`, declaring
    /// `payload_len`: responders committing to shards of their choosing.
    fn chunks_over(
        shards: &[Vec<u8>],
        indices: &[usize],
        payload_len: usize,
    ) -> Vec<Arc<RetrievalChunk>> {
        let tree = MerkleTree::from_leaves(shards.iter().map(Vec::as_slice));
        indices
            .iter()
            .map(|&i| Arc::new(real_chunk(&tree, i, shards[i].clone(), payload_len).unwrap()))
            .collect()
    }

    /// Clones of `chunks`: the same values, unchecked and uncertified.
    fn fresh(chunks: &[Arc<RetrievalChunk>]) -> Vec<Arc<RetrievalChunk>> {
        chunks
            .iter()
            .map(|chunk| Arc::new(RetrievalChunk::clone(chunk)))
            .collect()
    }

    /// Two queriers fed the same responders' chunk `Arc`s: the first decodes and hashes
    /// once, the second adopts the first's copy with neither, and both are charged the
    /// same.
    #[test]
    fn a_second_querier_adopts_the_first_ones_copy() {
        let (f, n) = (10, 32);
        let db = sample_datablock(50);
        let digest = db.digest();
        let chunks: Vec<Arc<RetrievalChunk>> = (0..=f as u32)
            .map(|responder| Arc::new(encode_response(&db, NodeId(responder), f, n).unwrap()))
            .collect();
        let start = decodes_and_hashes();
        let first = feed(&mut querier_of(31, f, n, digest), digest, &chunks);
        assert_eq!(decodes_and_hashes(), (start.0 + 1, start.1 + 1));
        let copy = recovered(&first.0);
        assert_eq!(**copy, db);
        assert!(chunks
            .iter()
            .all(|chunk| chunk.shard_of().is_some_and(|c| Arc::ptr_eq(c, copy))));

        let second = feed(&mut querier_of(30, f, n, digest), digest, &chunks);
        assert!(Arc::ptr_eq(recovered(&second.0), copy));
        assert_eq!(
            decodes_and_hashes(),
            (start.0 + 1, start.1 + 1),
            "no decode, no hash"
        );
        assert!(!second.1.is_zero());
        assert_eq!(second, first);
    }

    /// Certified chunks plus one fresh honest chunk recover through the per-chunk check
    /// (the fresh chunk against the shard recomputed from the copy), without a decode,
    /// and the fresh chunk is certified too.
    #[test]
    fn certified_chunks_and_a_fresh_honest_one_recover_without_a_decode() {
        let (f, n) = (1, 4);
        let db = sample_datablock(11);
        let digest = db.digest();
        let chunk = |responder| Arc::new(encode_response(&db, NodeId(responder), f, n).unwrap());
        let (one, two, three) = (chunk(1), chunk(2), chunk(3));
        let first = feed(
            &mut querier_of(0, f, n, digest),
            digest,
            &[Arc::clone(&one), two],
        );
        let copy = recovered(&first.0);

        let start = decodes_and_hashes();
        let second = feed(
            &mut querier_of(2, f, n, digest),
            digest,
            &[one, Arc::clone(&three)],
        );
        assert!(Arc::ptr_eq(recovered(&second.0), copy));
        assert_eq!(decodes_and_hashes(), start);
        assert!(three.shard_of().is_some_and(|c| Arc::ptr_eq(c, copy)));
        assert_eq!(second.1, first.1);
    }

    /// Shards of another codeword that decode to the queried bytes — here the code of
    /// the datablock under nonzero padding — recover it but certify nothing: another
    /// quorum of the same root, mixing them with the datablock's own shards, does not
    /// decode to it, and the querier holding that quorum still decodes (and fails)
    /// exactly as a querier holding clones does.
    #[test]
    fn shards_of_another_codeword_are_recovered_but_not_certified() {
        let (f, n) = (1, 4);
        let db = sample_datablock(11);
        let digest = db.digest();
        let bytes = db.encode_to_vec();
        assert_eq!(bytes.len() % 2, 1, "one byte of padding");
        let rs = ReedSolomon::new(f + 1, n).unwrap();
        let own = rs.encode_payload(&bytes);
        let padded = rs.encode_payload(&[bytes.as_slice(), &[7]].concat());
        let shards = [
            own[0].clone(),
            own[1].clone(),
            padded[2].clone(),
            padded[3].clone(),
        ];
        let chunks = chunks_over(&shards, &[1, 2, 3], bytes.len());

        let first = feed(&mut querier_of(0, f, n, digest), digest, &chunks[1..]).0;
        assert_eq!(**recovered(&first), db);
        assert!(chunks.iter().all(|chunk| chunk.shard_of().is_none()));

        let mixed = &chunks[..2];
        let start = decodes_and_hashes();
        let second = feed(&mut querier_of(2, f, n, digest), digest, mixed).0;
        assert_eq!(decodes_and_hashes(), (start.0 + 1, start.1 + 1));
        assert_eq!(second, ChunkOutcome::Ignored);
        assert_eq!(
            feed(&mut querier_of(2, f, n, digest), digest, &fresh(mixed)).0,
            second
        );
    }

    /// One wrong chunk among certified ones (a responder committed to the datablock's
    /// shards but one) falls back to the decode and gives the outcome a querier holding
    /// clones gets.
    #[test]
    fn one_wrong_chunk_among_certified_ones_falls_back_to_the_decode() {
        let (f, n) = (1, 4);
        let db = sample_datablock(11);
        let digest = db.digest();
        let bytes = db.encode_to_vec();
        let mut shards = ReedSolomon::new(f + 1, n).unwrap().encode_payload(&bytes);
        shards[3][0] ^= 1;
        let chunks = chunks_over(&shards, &[0, 1, 3], bytes.len());
        let first = feed(&mut querier_of(2, f, n, digest), digest, &chunks[..2]).0;
        let copy = recovered(&first);
        assert!(chunks[..2]
            .iter()
            .all(|chunk| chunk.shard_of().is_some_and(|c| Arc::ptr_eq(c, copy))));

        let with_wrong = [Arc::clone(&chunks[0]), Arc::clone(&chunks[2])];
        let start = decodes_and_hashes();
        let second = feed(&mut querier_of(1, f, n, digest), digest, &with_wrong).0;
        assert_eq!(decodes_and_hashes().0, start.0 + 1, "the decode ran");
        assert_eq!(second, ChunkOutcome::Ignored);
        assert_eq!(
            feed(
                &mut querier_of(1, f, n, digest),
                digest,
                &fresh(&with_wrong)
            )
            .0,
            second
        );
        assert!(chunks[2].shard_of().is_none());
    }

    /// A clone of a certified chunk starts uncertified, and the certificate costs a
    /// chunk 16 bytes at most.
    #[test]
    fn a_clone_starts_uncertified() {
        assert!(std::mem::size_of::<RetrievalChunk>() <= 120);
        let (f, n) = (1, 4);
        let db = sample_datablock(10);
        let digest = db.digest();
        let chunks = [1, 3]
            .map(|responder| Arc::new(encode_response(&db, NodeId(responder), f, n).unwrap()));
        feed(&mut querier_of(0, f, n, digest), digest, &chunks);
        assert!(chunks.iter().all(|chunk| chunk.shard_of().is_some()));
        assert!(fresh(&chunks)
            .iter()
            .all(|chunk| chunk.shard_of().is_none()));
    }

    #[test]
    fn cancel_returns_waiting_sequences() {
        let db = sample_datablock(5);
        let digest = db.digest();
        let mut manager = manager(0, 1, 4);
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
        let mut manager = RetrievalManager::new(NodeId(0), 1, 4, timeout, WAIT);
        manager.note_missing(digest, SeqNum(1), SimTime(0));
        let first = SimTime(0) + timeout;
        assert_eq!(manager.digests_to_query(first), vec![digest]);
        // Still pending just before the re-query interval elapses: nothing.
        let early = SimTime(0) + timeout + timeout.saturating_mul(REQUERY_TIMEOUTS - 1);
        assert!(manager.digests_to_query(early).is_empty());
        // One interval after the lost query: queried again.
        let late = first + requery;
        assert_eq!(manager.digests_to_query(late), vec![digest]);
        // Cancellation (the datablock arrived) ends the cycle.
        manager.cancel(&digest);
        assert!(manager.digests_to_query(late + requery).is_empty());
    }

    /// Byte-level golden, **captured at the commit before the hardware kernels landed**
    /// (scalar SHA-256, byte-at-a-time GF(2^8) lookup): the Merkle root, parity shard 31
    /// and its inclusion proof of the `(11, 32)` encoding of a fixed 2000-request
    /// synthetic datablock — the `retrieval-real-n32` shapes (34,016 encoded bytes,
    /// 3,093-byte shards). A kernel may not change a byte a replica puts on the wire.
    const GOLDEN_ROOT: &str = "c68d9a62b180dc97b434b47ec6eebb4b5e81dff797951d69a13a0f93f2920400";
    /// The five sibling digests of leaf 31, from the leaves towards the root.
    const GOLDEN_PROOF_31: [&str; 5] = [
        "02f49b3078bc29ae80bf24d73d1b2df8b872a97b1b8c8a3f029d78546dca1aac",
        "af65b5c34a09c6775e70fa97d1bccb7ac0b5d784a4782c78c2626ee21a1403eb",
        "4edefd7f33f3d48b11da7e539f07aca0a17a2283fce02d7c19209c3c55c61af4",
        "48c5e09e6fa332e61c5433d60f030cadd829b394449c853e660ceaa83eb0fc79",
        "11db04d695942fef4b9b18ba93b08ff79796a9a9672e19595175bffe594f6f6d",
    ];
    const GOLDEN_SHARD_31: &str = "\
         66ac5ef6c8a389c9a66048d3da5ab8acde6fac5ef65b08474f8d315edf3256b8acde6fac5e7fa458\
         f4919495a561b264b8acde6fac5effd6a8c0e8986272b87332b8acde6fac5e7629f8733681c68906\
         f300b8acde6fac5ee43392bd1aaac09f116802b8acde6fac5e6dccc20ec4b36464afe830b8acde6f\
         ac5eed0732d5bdfc93a68d4566b8acde6fac5e64f8626663e5375d33c554b8acde6fac5ed2e2c9a8\
         34ce664ba35ecab8acde6fac5e5b1d991bead7c2b01ddef8b8acde6fac5edb6b692f93503567c4c7\
         aeb8acde6fac5e5294399c4d49919c7a479cb8acde6fac5ec08e24526162398a6ddc89b8acde6fac\
         5e497174e1bf7b9d71d35cbbb8acde6fac5ec9ba84ffc6346a3f0af1edb8acde6fac5e4045d44c18\
         2dcec4b471dfb8acde6fac5ebe5f7f829e069fd24fea41b8acde6fac5e37a02f31401f3b29f16a73\
         b8acde6fac5eb7d2df05391eccfe28ab25b8acde6fac5e3e2d8fb6e7076805962b17b8acde6fac5e\
         ac375978cb2c6e1381b00fb8acde6fac5e25c809cb1535cae83f303db8acde6fac5ea503f9106c7a\
         3d8fe69d6bb8acde6fac5e2cfca9a3b2639974581d59b8acde6fac5e9ae6026d7b48c862c886c7b8\
         acde6fac5e131952dea5516c997606f5b8acde6fac5e9302a2eadcd69b4eaf63a3b8acde6fac5e1a\
         fdf25902cf3fb511e391b8acde6fac5e88e7ef972ee4d0a3067884b8acde6fac5e0118bf24f0fd74\
         58b8f8b6b8acde6fac5e81d34f9289b283166155e0b8acde6fac5e082c1f2157ab27eddfd5d2b8ac\
         de6fac5e6636b4efd18076fb5a4e4cb8acde6fac5eefc9e45c0f99d200e4ce7eb8acde6fac5e6fbb\
         1468769525d73d0f28b8acde6fac5ee64444dba88c812c838f1ab8acde6fac5e745e2e1584a7873a\
         94142cb8acde6fac5efda17ea65abe23c12a941eb8acde6fac5e7d6a8e7d23f1d4f4f33948b8acde\
         6fac5ef495decefde8700f4db97ab8acde6fac5e428f7500c31d2119dd22e4b8acde6fac5ecb7025\
         b31d0485e263a2d6b8acde6fac5e4bb9d58764837235babb80b8acde6fac5ec2468534ba9ad6ce04\
         3bb2b8acde6fac5e505c98fa96b17ed813a0a7b8acde6fac5ed9a3c84948a8da23ad2095b8acde6f\
         ac5e5968385731e72d6d748dc3b8acde6fac5ed09768e4effe8996ca0df1b8acde6fac5e2e8dc32a\
         69d5d88065966fb8acde6fac5ea7729399b7cc7c7bdb165db8acde6fac5e270063adced78bac02d7\
         0bb8acde6fac5eaeff331e10ce2f57bc5739b8acde6fac5e3ce5b7d03ce52941abcc21b8acde6fac\
         5eb51ae763e2fc8dba154c13b8acde6fac5e35d117b89bb37addcce145b8acde6fac5ebc2e470b45\
         aade26726177b8acde6fac5e0a34ecc58c818f30e2fae9b8acde6fac5e83cbbc7652982bcb5c7adb\
         b8acde6fac5e03d04c422b1fdc1c85c88db8acde6fac5e8a2f1cf1f50678e73b48bfb8acde6fac5e\
         1835013fd92d1ef12cd3aab8acde6fac5e91ca518c0734ba0a925398b8acde6fac5e1101a1037e7b\
         4d444bfeceb8acde6fac5e98fef1b0a062e9bff57efcb8acde6fac5ecde45a7e2649b8a970e562b8\
         acde6fac5e441b0acdf8501c52ce6550b8acde6fac5ec469faf9815ceb8517a406b8acde6fac5e4d\
         96aa4a5f454f7ea92434b8acde6fac5edf8cc084736e4968bebf36b8acde6fac5e56739037ad77ed\
         93003f04b8acde6fac5ed6b860ecd4381a02d99252b8acde6fac5e5f47305f0a21bef9671260b8ac\
         de6fac5ee95d9b915d0aefeff789feb8acde6fac5e60a2cb2283134b144909ccb8acde6fac5ee0b1\
         c416fa94bcc390109ab8acde6fac5e694e94a5248d18382e90a8b8acde6fac5efb54896b08a6b02e\
         390bbdb8acde6fac5e72abd9d8d6bf14d5878b8fb8acde6fac5ef26029c6aff0e39b5e26d9b8acde\
         6fac5e7b9f797571e94760e0a6ebb8acde6fac5e8585d2bbf7c21676b3e475b8acde6fac5e0c7a82\
         0829dbb28d0d6447b8acde6fac5e8c08723c50da455ad4a511b8acde6fac5e05f7228f8ec3e1a16a\
         2523b8acde6fac5e97ed6141a2e8e7b77dbe3bb8acde6fac5e1e1231f27cf1434cc33e09b8acde6f\
         ac5e9ed9c12905beb42b1a935fb8acde6fac5e1726919adba710d0a4136db8acde6fac5ea13c3a54\
         128c41c63488f3b8acde6fac5e28c36ae7cc95e53d8a08c1b8acde6fac5ea8d89ad3b51212ea53f7\
         97b8acde6fac5e2127ca606b0bb611ed77a5b8acde6fac5eb33dd7ae47205907faecb0b8acde6fac\
         5e3ac2871d9939fdfc446c82b8acde6fac5eba0977d9e0760ab29dc1d4b8acde6fac5e33f6276a3e\
         6fae492341e6b8acde6fac5e5dec8ca4b844ff5fa6da78b8acde6fac5ed413dc17665d5ba4185a4a\
         b8acde6fac5e54612c231f51ac73c19b1cb8acde6fac5edd9e7c90c14808887f1b2eb8acde6fac5e\
         4f84165eed630e9e688070b8acde6fac5ec67b46ed337aaa65d60042b8acde6fac5e46b0b6364a35\
         5d500fad14b8acde6fac5ecf4fe685942cf9abb12d26b8acde6fac5e79554d4be407a8bd21b6b8b8\
         acde6fac5ef0aa1df83a1e0c469f368ab8acde6fac5e7063edcc4399fb91462fdcb8acde6fac5ef9\
         9cbd7f9d805f6af8afeeb8acde6fac5e6b86a0b1b1abf77cef34fbb8acde6fac5ee279f0026fb253\
         8751b4c9b8acde6fac5e62b2001c16fda4c988199fb8acde6fac5eeb4d50afc8e400323699adb8ac\
         de6fac5e1557fb614ecf5124990233b8acde6fac5e9ca8abd290d6f5df278201b8acde6fac5e1cda\
         5be6e9f94d08fe4357b8acde6fac5e95250b5537e0e9f340c365b8acde6fac5e073f8f9b1bcbefe5\
         57587db8acde6fac5e8ec0df28c5d24b1ee9d84fb8acde6fac5e0e0b2ff3bc9dbc79307519b8acde\
         6fac5e87f47f40628418828ef52bb8acde6fac5e31eed48eabaf49941e6eb5b8acde6fac5eb81184\
         3d75b6ed6fa0ee87b8acde6fac5e380a74090c311ab8795cd1b8acde6fac5eb1f524bad228be43c7\
         dce3b8acde6fac5e23ef3974fe03df55d047f6b8acde6fac5eaa1069c7201a7bae6ec7c4b8acde6f\
         ac5e2adb994859558ce0b76a92b8acde6fac5ea324c9fb874c281b09eaa0b8acde6fac5e803e6235\
         0167790d8c713eb8acde6fac5e09c13286df7eddf632f10cb8acde6fac5e89b3c2b2a6722a21eb30\
         5ab8acde6fac5e004c9201786b8eda55b068b8acde6fac5e9256f8cf544088cc422b6ab8acde6fac\
         5e1ba9a87c8a592c37fcab58b8acde6fac5e9b6258a7f316dbf525060eb8acde6fac5e129d08142d\
         0f7f0e9b863cb8acde6fac5ea487a3da7a242e180b1da2b8acde6fac5e2d78f369a43d8ae3b59d90\
         b8acde6fac5ead0e035dddba7d346c84c6b8acde6fac5e24f153ee03a3d9cfd204f4b8acde6fac5e\
         b6eb4e202f8871d9c59fe1b8acde6fac5e3f141e93f191d5227b1fd3b8acde6fac5ebfdfee8d88de\
         226ca2b285b8acde6fac5e3620be3e56c786971c32b7b8acde6fac5ec83a15f0d0ecd781e7a929b8\
         acde6fac5e41c545430ef5737a59291bb8acde6fac5ec1b7b57777f484ad80e84db8acde6fac5e48\
         48e5c4a9ed20563e687fb8acde6fac5eda5233fa85c6264029f367b8acde6fac5e53ad63495bdf82\
         bb977355b8acde6fac5ed3669392229075dc4ede03b8acde6fac5e5a99c321fc89d127f05e31b8ac\
         de6fac5eec8368ef35a2803160c5afb8acde6fac5e657c385cebbb24cade459db8acde6fac5ee567\
         c868923cd31d07204bb8acde6fac5e6c9898db4c2577e6b9a079b8acde6fac5efe828515600e98f0\
         ae3b6cb8acde6fac5e777dd5a6be173c0b10bb5eb8acde6fac5ef7b62510c758cb45c91608b8acde\
         6fac5e7e4975a319416fbe77963ab8acde6fac5e1053de6d9f6a3ea8f20da4b8acde6fac5e99ac8e\
         de41739a534c8d96b8acde6fac5e19de7eea387f6d84954cc0b8acde6fac5e90212e59e666c97f2b\
         ccf2b8acde6fac5e023b4497ca4dcf693c57c4b8acde6fac5e8bc4142414546b9282d7f6b8acde6f\
         ac5e0b0fe4ff6d1b9ca75b7aa0b8acde6fac5e82f0b44cb302385ce5fa92b8acde6fac5e34ea1f82\
         8d29694a75610cb8acde6fac5ebd154f315330cdb1cbe13eb8acde6fac5e3ddcbf052ab73a6612f8\
         68b8acde6fac5eb423efb6f4ae9e9dac785ab8acde6fac5e2639f278d885368bbbe34fb8acde6fac\
         5eafc6a2cb069c927005637db8acde6fac5e2f0d52d57fd3653edcce2bb8acde6fac5ea6f20266a1\
         cac1c5624e19b8acde6fac5e58e8a9a827e190d3cdd587b8acde6fac5ed117f91bf9f834287355b5\
         b8acde6fac5e5165092f80e3c3ffaa94e3b8acde6fac5ed89a599c5efa67041414d1b8acde6fac5e\
         4a80dd5272d15312038f9826ac\
         ";

    #[test]
    fn wire_bytes_match_the_pre_kernel_golden() {
        let db = Datablock::new(
            NodeId(2),
            1,
            (0..2000u64)
                .map(|i| Request::new_synthetic(ClientId(1), i, 128))
                .collect(),
        );
        let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
        let r = encode_response(&db, NodeId(31), 10, 32).unwrap();
        let (chunk, proof) = real_parts(&r);
        assert_eq!(r.payload_len(), 34_016);
        assert_eq!(r.root().to_hex(), GOLDEN_ROOT);
        assert_eq!(hex(chunk), GOLDEN_SHARD_31);

        // `MerkleProof` keeps its siblings private, so the proof bytes are pinned from
        // outside: sibling k of the last leaf is the root of the perfect subtree over
        // the 2^k shards before it, and the proof object must carry exactly those
        // (it verifies the golden shard against the golden root).
        let shards = ReedSolomon::new(11, 32)
            .unwrap()
            .encode_payload(&db.encode_to_vec());
        assert_eq!(shards[31], chunk);
        for (k, golden) in GOLDEN_PROOF_31.iter().enumerate() {
            let (lo, hi) = (32 - (2 << k), 32 - (1 << k));
            let subtree = MerkleTree::from_leaves(shards[lo..hi].iter().map(|s| s.as_slice()));
            assert_eq!(subtree.root().to_hex(), *golden, "sibling {k}");
        }
        assert_eq!(
            (proof.leaf_index(), proof.len()),
            (31, GOLDEN_PROOF_31.len())
        );
        assert!(proof.verify(r.root(), chunk));
    }

    #[test]
    fn large_committee_retrieval_matches_paper_scale() {
        // n = 128, f = 42: the Fig. 12 / Table V configuration with a 2000-request
        // datablock. Chunk cost per responder should be roughly α / (f+1).
        let requests = 200; // scaled down ×10 to keep the unit test fast
        let db = sample_datablock(requests);
        let digest = db.digest();
        let (f, n) = (42usize, 128usize);
        let mut manager = manager(0, f, n);
        manager.note_missing(digest, SeqNum(1), SimTime(0));

        let provider = provider(CryptoMode::Real);
        let encoded_len = db.encode_to_vec().len();
        let mut outcome = ChunkOutcome::Stored;
        let mut per_responder_bytes = 0usize;
        for responder in 0..=f as u32 {
            let chunk = encode_response(&db, NodeId(responder), f, n).unwrap();
            per_responder_bytes = real_parts(&chunk).0.len();
            outcome = manager
                .add_chunk(digest, Arc::new(chunk), SimTime(1), &provider)
                .0;
        }
        assert!(matches!(outcome, ChunkOutcome::Recovered { .. }));
        // Each responder ships ~1/(f+1) of the datablock.
        assert!(per_responder_bytes <= encoded_len / (f + 1) + 2);
    }
}
