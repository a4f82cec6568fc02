//! The messages exchanged by Leopard replicas, with wire-size accounting and the
//! category labels used by the bandwidth-utilisation breakdown (Table III).
//!
//! A [`LeopardMessage`] is a small value: the simulator's fan-out slot holds it inline,
//! moves it to the last receiver and clones it for the others, so every variant stays
//! within 64 bytes (DESIGN.md §5.9; a unit test enforces it). Payloads that are large
//! or shared — datablocks, BFTblocks, query digests, retrieval chunks — travel behind
//! an [`Arc`], so a clone for one more receiver is a refcount, not a copy; the rare
//! state-transfer body travels behind a [`Box`].

use crate::view_change::view_change_wire_size;
use leopard_crypto::threshold::{CombinedSignature, SignatureShare};
use leopard_crypto::{Digest, MerkleProof, DEFAULT_SIGNATURE_WIRE_BYTES, DIGEST_LEN};
use leopard_simnet::SimMessage;
use leopard_types::{BftBlock, Datablock, SeqNum, View, WireSize};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

/// The payload of one retrieval response (Algorithm 3).
///
/// The real variant carries an erasure-coded chunk plus its Merkle inclusion proof.
/// The metered variant (see `leopard_crypto::provider::CryptoMode::Metered`) skips the
/// erasure encoding and Merkle hashing entirely: it transports the datablock by
/// `Arc`-reference while *declaring* exactly the wire bytes the real chunk and proof
/// would occupy, so bandwidth accounting, event schedules and retrieval-cost figures
/// are identical between the two modes. Metered responses are honest by construction —
/// Byzantine chunk-forgery experiments must run with real crypto.
#[derive(Debug, Clone)]
pub enum RetrievalPayload {
    /// A real erasure-coded chunk with its Merkle proof.
    Real {
        /// The chunk bytes.
        chunk: Vec<u8>,
        /// Merkle inclusion proof of the chunk.
        proof: MerkleProof,
    },
    /// The metered stand-in: declared sizes plus the datablock itself by reference.
    Metered {
        /// Wire bytes the real chunk would occupy.
        chunk_len: u32,
        /// Wire bytes the real Merkle proof would occupy.
        proof_len: u32,
        /// The datablock being recovered (local reference, never deep-copied).
        datablock: Arc<Datablock>,
    },
}

impl RetrievalPayload {
    /// Bytes this payload occupies on the wire (identical between the two variants for
    /// the same datablock, code parameters and responder).
    pub fn wire_len(&self) -> usize {
        match self {
            RetrievalPayload::Real { chunk, proof } => chunk.len() + proof.wire_size(),
            RetrievalPayload::Metered {
                chunk_len,
                proof_len,
                ..
            } => *chunk_len as usize + *proof_len as usize,
        }
    }
}

/// One responder's answer to a query (Algorithm 3): its own erasure-coded chunk of the
/// datablock, committed to by a Merkle root over all `n` chunks. The same value is
/// cached by the responder, carried by [`LeopardMessage::QueryResponse`] and fed to the
/// querier's decoder.
///
/// A chunk is immutable: its fields are private and set once, by [`Self::new`]. That
/// is what lets it carry the verdict of its own proof check ([`Self::proof_holds`]):
/// the first querier to receive the `Arc` runs the check, every other receiver of the
/// same `Arc` reads the verdict, and nothing can change the root, index, bytes or proof
/// the verdict is about. For the same reason it can carry the datablock copy it is
/// known to be a shard of (`shard_of`), which the querier that recovered the
/// copy records. A clone starts with neither (DESIGN.md §5.2).
#[derive(Debug)]
pub struct RetrievalChunk {
    // The four parts, documented on their getters.
    root: Digest,
    shard_index: u32,
    payload: RetrievalPayload,
    payload_len: u64,
    /// The verdict of [`Self::proof_holds`] for a real payload: [`UNCHECKED`] until its
    /// first call, then [`HOLDS`] or [`FAILS`]. One byte, in what would be padding, so
    /// carrying it makes a chunk no larger.
    proof_verdict: AtomicU8,
    /// See [`Self::shard_of`]; set by [`Self::certify_shard_of`] only.
    shard_of: OnceLock<Arc<Datablock>>,
}

/// [`RetrievalChunk::proof_verdict`] before the first check.
const UNCHECKED: u8 = 0;
/// [`RetrievalChunk::proof_verdict`] of a chunk whose proof holds.
const HOLDS: u8 = 1;
/// [`RetrievalChunk::proof_verdict`] of a chunk whose proof fails.
const FAILS: u8 = 2;

#[cfg(test)]
thread_local! {
    /// Real proof checks [`RetrievalChunk::proof_holds`] ran on this thread.
    pub(crate) static PROOF_CHECKS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl RetrievalChunk {
    /// A chunk whose proof has not been checked yet.
    pub fn new(
        root: Digest,
        shard_index: u32,
        payload: RetrievalPayload,
        payload_len: u64,
    ) -> Self {
        Self {
            root,
            shard_index,
            payload,
            payload_len,
            proof_verdict: AtomicU8::new(UNCHECKED),
            shard_of: OnceLock::new(),
        }
    }

    /// Merkle root over the erasure-coded chunks (the datablock digest in metered mode).
    pub fn root(&self) -> Digest {
        self.root
    }

    /// Index of this chunk (the responder's replica index).
    pub fn shard_index(&self) -> u32 {
        self.shard_index
    }

    /// The chunk itself (real or metered).
    pub fn payload(&self) -> &RetrievalPayload {
        &self.payload
    }

    /// Length of the encoded datablock, needed to strip the padding after decoding. The
    /// proof does not cover it.
    pub fn payload_len(&self) -> u64 {
        self.payload_len
    }

    /// Wire bytes of the `QueryResponse` carrying this chunk: the digest, the root, a
    /// u32 shard index, the u64 payload length and the payload.
    pub fn response_wire_size(&self) -> usize {
        2 * DIGEST_LEN + 4 + 8 + self.payload.wire_len()
    }

    /// True if the Merkle proof is for [`Self::shard_index`] and verifies the chunk
    /// bytes against [`Self::root`]. A real chunk runs the check on the first call and
    /// answers every later call, from any holder of the chunk, with that verdict; a
    /// metered chunk is honest by construction and always holds.
    ///
    /// The verdict is a function of fields that never change, so a relaxed load sees
    /// either no verdict or the right one; two threads racing on an unchecked chunk both
    /// run the check and store the same verdict.
    pub fn proof_holds(&self) -> bool {
        let RetrievalPayload::Real { chunk, proof } = &self.payload else {
            return true;
        };
        match self.proof_verdict.load(Ordering::Relaxed) {
            UNCHECKED => {
                #[cfg(test)]
                PROOF_CHECKS.with(|checks| checks.set(checks.get() + 1));
                let holds = proof.leaf_index() == self.shard_index as usize
                    && proof.verify(self.root, chunk);
                let verdict = if holds { HOLDS } else { FAILS };
                self.proof_verdict.store(verdict, Ordering::Relaxed);
                holds
            }
            verdict => verdict == HOLDS,
        }
    }

    /// The recovered datablock copy this chunk is known to be a shard of: `None` until
    /// a querier recovers and verifies a copy from a group of chunks holding this one,
    /// and always `None` on a clone. When set, the chunk's bytes are exactly shard
    /// [`Self::shard_index`] of the copy's encoding under the committee's `(f + 1, n)`
    /// code, and [`Self::payload_len`] is the copy's encoded length. Only the retrieval
    /// plane sets it, and adopts the copy instead of decoding again (DESIGN.md §5.4).
    pub(crate) fn shard_of(&self) -> Option<&Arc<Datablock>> {
        self.shard_of.get()
    }

    /// Records that this chunk's bytes are shard [`Self::shard_index`] of `copy`'s
    /// encoding. The caller must have verified it; a chunk that already names a copy
    /// keeps it, as that statement stays true.
    pub(crate) fn certify_shard_of(&self, copy: &Arc<Datablock>) {
        let _ = self.shard_of.set(Arc::clone(copy));
    }
}

/// A clone is a new chunk and starts unchecked and uncertified: a verdict or a copy
/// vouches only for the value whose bytes were checked.
impl Clone for RetrievalChunk {
    fn clone(&self) -> Self {
        Self::new(
            self.root,
            self.shard_index,
            self.payload.clone(),
            self.payload_len,
        )
    }
}

/// A notarized BFTblock carried by view-change and new-view messages: the block plus its
/// notarization proof.
#[derive(Debug, Clone)]
pub struct NotarizedEntry {
    /// The notarized BFTblock.
    pub block: Arc<BftBlock>,
    /// The notarization proof (first-round combined signature).
    pub proof: CombinedSignature,
}

impl WireSize for NotarizedEntry {
    fn wire_size(&self) -> usize {
        self.block.wire_size() + DEFAULT_SIGNATURE_WIRE_BYTES
    }
}

/// A confirmed BFTblock carried by a state-transfer response: the block plus the two
/// proofs a requester needs to accept it without having voted — the notarization (to
/// recompute the second-round message) and the confirmation over it.
#[derive(Debug, Clone)]
pub struct ConfirmedEntry {
    /// The confirmed BFTblock.
    pub block: Arc<BftBlock>,
    /// The notarization proof (first-round combined signature).
    pub notarization: CombinedSignature,
    /// The confirmation proof (second-round combined signature).
    pub confirmation: CombinedSignature,
}

impl WireSize for ConfirmedEntry {
    fn wire_size(&self) -> usize {
        self.block.wire_size() + 2 * DEFAULT_SIGNATURE_WIRE_BYTES
    }
}

/// All messages of the Leopard protocol.
#[derive(Debug, Clone)]
pub enum LeopardMessage {
    /// Algorithm 1: a datablock multicast by its producer.
    Datablock(Arc<Datablock>),
    /// Algorithm 3 (ready round): acknowledgement that the sender stores the datablock.
    Ready {
        /// Digest of the acknowledged datablock.
        digest: Digest,
    },
    /// Algorithm 2, pre-prepare: the leader proposes a BFTblock (with its own signature
    /// share on it).
    PrePrepare {
        /// The proposed BFTblock.
        block: Arc<BftBlock>,
        /// The leader's signature share on the block digest.
        share: SignatureShare,
    },
    /// Algorithm 2, prepare: a replica's first-round vote, sent to the leader.
    PrepareVote {
        /// Serial number of the voted block.
        seq: SeqNum,
        /// Digest of the voted block.
        block_digest: Digest,
        /// The voter's signature share on the block digest.
        share: SignatureShare,
    },
    /// Algorithm 2, notarize: the combined first-round proof, multicast by the leader.
    NotarizationProof {
        /// Serial number of the notarized block.
        seq: SeqNum,
        /// Digest of the notarized block.
        block_digest: Digest,
        /// The notarization proof.
        proof: CombinedSignature,
    },
    /// Algorithm 2, commit: a replica's second-round vote on the notarization proof.
    CommitVote {
        /// Serial number of the block.
        seq: SeqNum,
        /// Digest of the notarization proof being signed.
        proof_digest: Digest,
        /// The voter's signature share.
        share: SignatureShare,
    },
    /// Algorithm 2, confirm: the combined second-round proof, multicast by the leader.
    ConfirmationProof {
        /// Serial number of the confirmed block.
        seq: SeqNum,
        /// Digest of the notarization proof that was signed.
        proof_digest: Digest,
        /// The confirmation proof.
        proof: CombinedSignature,
    },
    /// Algorithm 3: a query for missing datablocks, multicast by the replica that needs
    /// them.
    Query {
        /// Digests of the missing datablocks, shared by every receiver's copy.
        digests: Arc<[Digest]>,
    },
    /// Algorithm 3: one erasure-coded chunk of a queried datablock plus its Merkle proof
    /// (or the metered stand-in occupying identical wire bytes).
    QueryResponse {
        /// Digest of the datablock being recovered.
        digest: Digest,
        /// The responder's chunk, root and proof, shared with the responder's cache of
        /// served chunks.
        chunk: Arc<RetrievalChunk>,
    },
    /// Algorithm 4: a replica's checkpoint vote.
    Checkpoint {
        /// Serial number of the latest executed BFTblock.
        seq: SeqNum,
        /// Digest of the execution state.
        state_digest: Digest,
        /// The replica's signature share on the checkpoint.
        share: SignatureShare,
    },
    /// Algorithm 4: the combined checkpoint proof, multicast by the leader.
    CheckpointProof {
        /// Serial number of the checkpointed BFTblock.
        seq: SeqNum,
        /// Digest of the execution state.
        state_digest: Digest,
        /// The checkpoint proof.
        proof: CombinedSignature,
    },
    /// View-change trigger: a replica complains that view `view` is not making progress.
    Timeout {
        /// The view being complained about.
        view: View,
        /// The complainer's signature share on the timeout statement.
        share: SignatureShare,
    },
    /// State synchronisation: sent to the next leader when a replica gives up on the
    /// current view.
    ViewChange {
        /// The view the sender wants to move to.
        new_view: View,
        /// Serial number of the sender's latest stable checkpoint.
        checkpoint_seq: SeqNum,
        /// Notarized (or confirmed) BFTblocks above the checkpoint, with proofs.
        notarized: Vec<NotarizedEntry>,
    },
    /// The next leader's new-view message carrying `2f+1` view-change messages and the
    /// blocks it re-proposes. Receivers read only the view and the count; the contents
    /// are accounted by their size.
    NewView {
        /// The new view.
        view: View,
        /// Number of view-change messages aggregated.
        view_change_count: u32,
        /// Wire bytes of the aggregated view-change messages plus the re-proposed
        /// blocks.
        bytes: u64,
    },
    /// State transfer: a replica that rebooted (or fell behind a watermark advance)
    /// asks peers for everything confirmed past its own execution point.
    StateRequest {
        /// Serial number of the requester's latest executed BFTblock.
        last_executed: SeqNum,
    },
    /// State transfer: a peer's answer — its stable checkpoint (with proof) plus the
    /// confirmed blocks above it, each carried with both agreement proofs. Boxed: the
    /// message is rare and its body would more than double the enum.
    StateResponse(Box<StateTransfer>),
}

/// The body of a [`LeopardMessage::StateResponse`].
#[derive(Debug, Clone)]
pub struct StateTransfer {
    /// The responder's current view (lets a rebooted replica rejoin after missing a
    /// view change).
    pub view: View,
    /// Serial number of the responder's stable checkpoint.
    pub checkpoint_seq: SeqNum,
    /// Execution-state digest of that checkpoint.
    pub checkpoint_state: Digest,
    /// The checkpoint proof; `None` only while the responder is still at the genesis
    /// checkpoint (seq 0), which needs no proof.
    pub checkpoint_proof: Option<CombinedSignature>,
    /// Confirmed blocks above the requester's execution point, with proofs.
    pub entries: Vec<ConfirmedEntry>,
}

impl WireSize for LeopardMessage {
    fn wire_size(&self) -> usize {
        match self {
            LeopardMessage::Datablock(db) => db.wire_size(),
            LeopardMessage::Ready { .. } => DIGEST_LEN + 8,
            LeopardMessage::PrePrepare { block, share } => block.wire_size() + share.wire_size(),
            // A serial (or checkpoint) number, a digest and one signature.
            LeopardMessage::PrepareVote { .. }
            | LeopardMessage::NotarizationProof { .. }
            | LeopardMessage::CommitVote { .. }
            | LeopardMessage::ConfirmationProof { .. }
            | LeopardMessage::Checkpoint { .. }
            | LeopardMessage::CheckpointProof { .. } => {
                8 + DIGEST_LEN + DEFAULT_SIGNATURE_WIRE_BYTES
            }
            LeopardMessage::Query { digests } => 4 + DIGEST_LEN * digests.len(),
            LeopardMessage::QueryResponse { chunk, .. } => chunk.response_wire_size(),
            LeopardMessage::Timeout { .. } => 8 + DEFAULT_SIGNATURE_WIRE_BYTES,
            LeopardMessage::ViewChange { notarized, .. } => view_change_wire_size(notarized),
            LeopardMessage::NewView { bytes, .. } => 8 + 4 + *bytes as usize,
            LeopardMessage::StateRequest { .. } => 8,
            LeopardMessage::StateResponse(response) => {
                let StateTransfer {
                    checkpoint_proof,
                    entries,
                    ..
                } = &**response;
                8 + 8
                    + DIGEST_LEN
                    + checkpoint_proof.map_or(0, |_| DEFAULT_SIGNATURE_WIRE_BYTES)
                    + entries.iter().map(WireSize::wire_size).sum::<usize>()
            }
        }
    }
}

impl SimMessage for LeopardMessage {
    fn category(&self) -> &'static str {
        match self {
            LeopardMessage::Datablock(_) => "datablock",
            LeopardMessage::Ready { .. } => "ready",
            LeopardMessage::PrePrepare { .. } => "bftblock",
            LeopardMessage::PrepareVote { .. } | LeopardMessage::CommitVote { .. } => "vote",
            LeopardMessage::NotarizationProof { .. } | LeopardMessage::ConfirmationProof { .. } => {
                "proof"
            }
            LeopardMessage::Query { .. } => "query",
            LeopardMessage::QueryResponse { .. } => "retrieval",
            LeopardMessage::Checkpoint { .. } | LeopardMessage::CheckpointProof { .. } => {
                "checkpoint"
            }
            LeopardMessage::Timeout { .. }
            | LeopardMessage::ViewChange { .. }
            | LeopardMessage::NewView { .. } => "viewchange",
            LeopardMessage::StateRequest { .. } | LeopardMessage::StateResponse { .. } => {
                "statesync"
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leopard_crypto::hash_bytes;
    use leopard_crypto::threshold::ThresholdScheme;
    use leopard_types::{ClientId, NodeId, Request};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_share() -> (SignatureShare, CombinedSignature) {
        let mut rng = StdRng::seed_from_u64(1);
        let (scheme, keys) = ThresholdScheme::trusted_setup(3, 4, &mut rng);
        let msg = hash_bytes(b"m");
        let shares: Vec<_> = keys.iter().map(|k| scheme.sign_share(k, &msg)).collect();
        let proof = scheme.combine(&shares[..3], &msg).unwrap();
        (shares[0], proof)
    }

    /// A metered response declaring a 100-byte chunk and a 64-byte proof.
    fn query_response(datablock: Arc<Datablock>) -> LeopardMessage {
        let digest = datablock.digest();
        LeopardMessage::QueryResponse {
            digest,
            chunk: Arc::new(RetrievalChunk::new(
                digest,
                1,
                RetrievalPayload::Metered {
                    chunk_len: 100,
                    proof_len: 64,
                    datablock,
                },
                300,
            )),
        }
    }

    #[test]
    fn query_response_size_is_digest_root_index_length_and_payload() {
        let db = Arc::new(Datablock::new(
            NodeId(1),
            1,
            vec![Request::new_synthetic(ClientId(0), 0, 128)],
        ));
        assert_eq!(
            query_response(db).wire_size(),
            2 * DIGEST_LEN + 4 + 8 + 100 + 64
        );
    }

    #[test]
    fn categories_cover_all_variants() {
        let (share, proof) = sample_share();
        let db = Arc::new(Datablock::new(
            NodeId(1),
            1,
            vec![Request::new_synthetic(ClientId(0), 0, 128)],
        ));
        let block = Arc::new(BftBlock::new(View(1), SeqNum(1), vec![db.digest()]));
        let digest = db.digest();

        let cases: Vec<(LeopardMessage, &str)> = vec![
            (LeopardMessage::Datablock(db.clone()), "datablock"),
            (LeopardMessage::Ready { digest }, "ready"),
            (
                LeopardMessage::PrePrepare {
                    block: block.clone(),
                    share,
                },
                "bftblock",
            ),
            (
                LeopardMessage::PrepareVote {
                    seq: SeqNum(1),
                    block_digest: digest,
                    share,
                },
                "vote",
            ),
            (
                LeopardMessage::NotarizationProof {
                    seq: SeqNum(1),
                    block_digest: digest,
                    proof,
                },
                "proof",
            ),
            (
                LeopardMessage::CommitVote {
                    seq: SeqNum(1),
                    proof_digest: digest,
                    share,
                },
                "vote",
            ),
            (
                LeopardMessage::ConfirmationProof {
                    seq: SeqNum(1),
                    proof_digest: digest,
                    proof,
                },
                "proof",
            ),
            (LeopardMessage::Query { digests: Arc::new([digest]) }, "query"),
            (query_response(db.clone()), "retrieval"),
            (
                LeopardMessage::Checkpoint {
                    seq: SeqNum(2),
                    state_digest: digest,
                    share,
                },
                "checkpoint",
            ),
            (
                LeopardMessage::CheckpointProof {
                    seq: SeqNum(2),
                    state_digest: digest,
                    proof,
                },
                "checkpoint",
            ),
            (
                LeopardMessage::Timeout {
                    view: View(1),
                    share,
                },
                "viewchange",
            ),
            (
                LeopardMessage::ViewChange {
                    new_view: View(2),
                    checkpoint_seq: SeqNum(0),
                    notarized: vec![NotarizedEntry {
                        block: block.clone(),
                        proof,
                    }],
                },
                "viewchange",
            ),
            (
                LeopardMessage::NewView {
                    view: View(2),
                    view_change_count: 3,
                    bytes: 300,
                },
                "viewchange",
            ),
            (
                LeopardMessage::StateRequest {
                    last_executed: SeqNum(4),
                },
                "statesync",
            ),
            (
                LeopardMessage::StateResponse(Box::new(StateTransfer {
                    view: View(1),
                    checkpoint_seq: SeqNum(8),
                    checkpoint_state: digest,
                    checkpoint_proof: Some(proof),
                    entries: vec![ConfirmedEntry {
                        block: block.clone(),
                        notarization: proof,
                        confirmation: proof,
                    }],
                })),
                "statesync",
            ),
        ];
        for (message, expected) in cases {
            assert_eq!(message.category(), expected);
            assert!(message.wire_size() > 0);
        }
    }

    #[test]
    fn bftblock_messages_are_much_smaller_than_datablocks() {
        let (share, _) = sample_share();
        let requests: Vec<Request> = (0..2000)
            .map(|i| Request::new_synthetic(ClientId(0), i, 128))
            .collect();
        let db = Arc::new(Datablock::new(NodeId(1), 1, requests));
        let links: Vec<Digest> = (0..100u64).map(|i| hash_bytes(&i.to_le_bytes())).collect();
        let block = Arc::new(BftBlock::new(View(1), SeqNum(1), links));

        let datablock_size = LeopardMessage::Datablock(db).wire_size();
        let preprepare_size = LeopardMessage::PrePrepare { block, share }.wire_size();
        assert!(datablock_size > 50 * preprepare_size);
    }

    #[test]
    fn query_size_scales_with_digest_count() {
        let one = LeopardMessage::Query {
            digests: Arc::new([hash_bytes(b"a")]),
        };
        let five = LeopardMessage::Query {
            digests: (0..5u8).map(|i| hash_bytes(&[i])).collect(),
        };
        assert_eq!(five.wire_size() - one.wire_size(), 4 * DIGEST_LEN);
        // A receiver's copy shares the list instead of copying it.
        let LeopardMessage::Query { digests } = &five else { unreachable!() };
        let LeopardMessage::Query { digests: copied } = five.clone() else { unreachable!() };
        assert!(Arc::ptr_eq(digests, &copied));
    }

    #[test]
    fn state_response_accounts_for_carried_entries() {
        let (_, proof) = sample_share();
        let block = Arc::new(BftBlock::new(View(1), SeqNum(1), vec![hash_bytes(b"l")]));
        let entry = ConfirmedEntry {
            block,
            notarization: proof,
            confirmation: proof,
        };
        let empty = LeopardMessage::StateResponse(Box::new(StateTransfer {
            view: View(1),
            checkpoint_seq: SeqNum(0),
            checkpoint_state: hash_bytes(b"s"),
            checkpoint_proof: None,
            entries: vec![],
        }));
        let loaded = LeopardMessage::StateResponse(Box::new(StateTransfer {
            view: View(1),
            checkpoint_seq: SeqNum(0),
            checkpoint_state: hash_bytes(b"s"),
            checkpoint_proof: Some(proof),
            entries: vec![entry.clone(), entry.clone()],
        }));
        assert_eq!(
            loaded.wire_size() - empty.wire_size(),
            DEFAULT_SIGNATURE_WIRE_BYTES + 2 * entry.wire_size()
        );
    }

    /// The simulator's fan-out slot holds a message inline, and every in-flight copy
    /// takes a slot (`lan-n400` peaks at ≈ 73.6 k live slots), so a variant that grows
    /// the enum grows them all. Large or rare bodies go behind an `Arc` or a `Box`.
    #[test]
    fn every_message_fits_in_64_bytes() {
        assert!(
            std::mem::size_of::<LeopardMessage>() <= 64,
            "LeopardMessage is {} bytes: every in-flight copy's fan-out slot is that size, \
             and lan-n400 peaks at ≈ 73.6 k live slots; box the variant that grew it",
            std::mem::size_of::<LeopardMessage>()
        );
    }

    #[test]
    fn new_view_accounts_for_carried_view_changes() {
        let small = LeopardMessage::NewView {
            view: View(2),
            view_change_count: 3,
            bytes: 100,
        };
        let large = LeopardMessage::NewView {
            view: View(2),
            view_change_count: 300,
            bytes: 100_000,
        };
        assert!(large.wire_size() > small.wire_size());
    }
}
