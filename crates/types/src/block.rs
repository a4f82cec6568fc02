//! The two block planes of the paper: datablocks (request payloads) and BFTblocks
//! (index blocks the replicas agree on).

use crate::ids::{NodeId, SeqNum, View};
use crate::request::{Request, RequestRun};
use crate::wire::{Decode, DecodeError, Encode, WireReader, WireSize, WireWriter};
use leopard_crypto::{hash_bytes, Digest, MerkleTree, DIGEST_LEN};
use std::sync::Arc;

/// Identifier of a datablock: the producing replica plus that replica's local counter
/// (`(i, counter)` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DatablockId {
    /// The non-leader replica that generated the datablock.
    pub producer: NodeId,
    /// The producer's local counter `d`, starting at 1.
    pub counter: u64,
}

impl DatablockId {
    /// Creates a datablock id.
    pub fn new(producer: NodeId, counter: u64) -> Self {
        Self { producer, counter }
    }
}

impl std::fmt::Display for DatablockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "db({}, {})", self.producer, self.counter)
    }
}

/// A datablock: `⟨datablock, (i, counter), R⟩` — a batch of pending requests generated
/// and multicast by a non-leader replica (paper, Algorithm 1).
#[derive(Debug, Clone)]
pub struct Datablock {
    /// Producer and counter.
    pub id: DatablockId,
    /// The batched requests `R`.
    pub requests: RequestRun,
    /// Lazily computed digest; shared clones (e.g. through `Arc`) compute it once.
    cached_digest: std::sync::OnceLock<Digest>,
    /// The Merkle tree over this copy's erasure-coded shards, with the
    /// `(data_shards, total_shards)` code it was built under (see [`Self::shard_tree`]).
    cached_shard_tree: std::sync::OnceLock<Arc<(usize, usize, MerkleTree)>>,
}

impl PartialEq for Datablock {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id && self.requests == other.requests
    }
}

impl Eq for Datablock {}

impl Datablock {
    /// Creates a datablock from requests that form one run.
    ///
    /// # Panics
    ///
    /// Panics naming the first request that does not continue the run.
    pub fn new(producer: NodeId, counter: u64, requests: Vec<Request>) -> Self {
        Self::from_run(producer, counter, requests.into_iter().collect())
    }

    /// Creates a datablock carrying `requests`.
    pub fn from_run(producer: NodeId, counter: u64, requests: RequestRun) -> Self {
        Self {
            id: DatablockId::new(producer, counter),
            requests,
            cached_digest: std::sync::OnceLock::new(),
            cached_shard_tree: std::sync::OnceLock::new(),
        }
    }

    /// Decodes the datablock encoded in `bytes`, which must hash to `expected`. The
    /// digest is checked on the bytes themselves, before any record is decoded, and
    /// seeds the copy's digest cell: the codec is canonical (fixed widths, one payload
    /// tag, no trailing bytes), so bytes that decode are exactly the bytes the decoded
    /// datablock encodes to and [`Self::digest`] would hash.
    ///
    /// # Errors
    ///
    /// A [`DecodeError`] with context `"datablock digest"` if the bytes hash to another
    /// digest, otherwise whatever [`Decode::decode_from_slice`] reports.
    pub fn decode_hashed(bytes: &[u8], expected: Digest) -> Result<Self, DecodeError> {
        if hash_bytes(bytes) != expected {
            return Err(DecodeError::new("datablock digest"));
        }
        let datablock = Self::decode_from_slice(bytes)?;
        let _ = datablock.cached_digest.set(expected);
        Ok(datablock)
    }

    /// The digest linking this datablock from BFTblocks.
    ///
    /// The digest covers the encoded representation and is cached after the first call.
    pub fn digest(&self) -> Digest {
        *self
            .cached_digest
            .get_or_init(|| hash_bytes(&self.encode_to_vec()))
    }

    /// The Merkle tree over this datablock's shards under the `(data_shards,
    /// total_shards)` erasure code. `build` runs on the first call only; every holder
    /// of this copy (e.g. through `Arc`) shares the tree, as it shares [`Self::digest`].
    /// A decoded or newly built copy starts without one.
    ///
    /// # Panics
    ///
    /// Panics naming both codes if the tree was built under another code: a copy
    /// belongs to one committee.
    pub fn shard_tree(
        &self,
        data_shards: usize,
        total_shards: usize,
        build: impl FnOnce() -> MerkleTree,
    ) -> &MerkleTree {
        let (built_k, built_n, tree) = &**self
            .cached_shard_tree
            .get_or_init(|| Arc::new((data_shards, total_shards, build())));
        assert!(
            (*built_k, *built_n) == (data_shards, total_shards),
            "{}: shard tree built for the ({built_k}, {built_n}) code, asked for the \
             ({data_shards}, {total_shards}) code",
            self.id
        );
        tree
    }

    /// Number of requests carried.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True if the datablock carries no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Total payload bytes carried by the datablock (`α` when full).
    pub fn payload_bytes(&self) -> usize {
        self.requests.payload_bytes()
    }

    /// Length in bytes of [`Encode::encode`]'s output for this datablock;
    /// [`WireSize::wire_size`] also charges the synthetic payloads. The retrieval
    /// mechanism erasure-codes the encoded representation, so chunk sizes derive from
    /// this length.
    pub fn encoded_len(&self) -> usize {
        4 + 8 + 4 + self.requests.encoded_len()
    }
}

impl WireSize for Datablock {
    fn wire_size(&self) -> usize {
        // producer u32 + counter u64 + request count u32 + requests
        4 + 8 + 4 + self.requests.wire_size()
    }
}

impl Encode for Datablock {
    fn encode(&self, writer: &mut WireWriter) {
        writer.put_u32(self.id.producer.0);
        writer.put_u64(self.id.counter);
        writer.put_u32(self.requests.count);
        self.requests.encode(writer);
    }
}

impl Decode for Datablock {
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        let producer = NodeId(reader.get_u32("datablock.producer")?);
        let counter = reader.get_u64("datablock.counter")?;
        let count = reader.get_u32("datablock.request_count")?;
        let requests = RequestRun::decode(reader, count)?;
        Ok(Datablock::from_run(producer, counter, requests))
    }
}

/// Identifier of a BFTblock: the view it was proposed in plus its serial number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BftBlockId {
    /// The view in which the block was proposed.
    pub view: View,
    /// The serial number assigned by the leader.
    pub seq: SeqNum,
}

impl BftBlockId {
    /// Creates a BFTblock id.
    pub fn new(view: View, seq: SeqNum) -> Self {
        Self { view, seq }
    }
}

impl std::fmt::Display for BftBlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bft({}, {})", self.view, self.seq)
    }
}

/// A BFTblock: `⟨BFTblock, (v, sn), ct⟩` — the index block the replicas agree on; `ct`
/// contains only the hashes of datablocks (paper §IV).
#[derive(Debug, Clone)]
pub struct BftBlock {
    /// View and serial number.
    pub id: BftBlockId,
    /// Hashes of the linked datablocks (`ct`).
    pub links: Vec<Digest>,
    /// True for the dummy blocks that fill serial-number gaps after a view-change.
    pub dummy: bool,
    /// Lazily computed digest; shared clones (e.g. through `Arc`) compute it once.
    cached_digest: std::sync::OnceLock<Digest>,
}

impl PartialEq for BftBlock {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id && self.links == other.links && self.dummy == other.dummy
    }
}

impl Eq for BftBlock {}

impl BftBlock {
    /// Creates a BFTblock linking the given datablock digests.
    pub fn new(view: View, seq: SeqNum, links: Vec<Digest>) -> Self {
        Self {
            id: BftBlockId::new(view, seq),
            links,
            dummy: false,
            cached_digest: std::sync::OnceLock::new(),
        }
    }

    /// Creates the dummy block used to fill a serial-number gap during a view-change.
    pub fn dummy(view: View, seq: SeqNum) -> Self {
        Self {
            id: BftBlockId::new(view, seq),
            links: Vec::new(),
            dummy: true,
            cached_digest: std::sync::OnceLock::new(),
        }
    }

    /// The digest replicas vote on.
    ///
    /// The digest covers the encoded representation and is cached after the first call.
    pub fn digest(&self) -> Digest {
        *self
            .cached_digest
            .get_or_init(|| hash_bytes(&self.encode_to_vec()))
    }

    /// Number of datablock links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// True if the block links no datablocks.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }
}

impl WireSize for BftBlock {
    fn wire_size(&self) -> usize {
        // view u64 + seq u64 + dummy u8 + link count u32 + one digest (β) per link
        8 + 8 + 1 + 4 + self.links.len() * DIGEST_LEN
    }
}

impl Encode for BftBlock {
    fn encode(&self, writer: &mut WireWriter) {
        writer.put_u64(self.id.view.0);
        writer.put_u64(self.id.seq.0);
        writer.put_u8(u8::from(self.dummy));
        writer.put_u32(self.links.len() as u32);
        for link in &self.links {
            writer.put_raw(link.as_bytes());
        }
    }
}

impl Decode for BftBlock {
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        let view = View(reader.get_u64("bftblock.view")?);
        let seq = SeqNum(reader.get_u64("bftblock.seq")?);
        let dummy = reader.get_u8("bftblock.dummy")? != 0;
        let count = reader.get_u32("bftblock.link_count")? as usize;
        let mut links = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            let raw = reader.get_raw(DIGEST_LEN, "bftblock.link")?;
            links.push(Digest::from_slice(raw).ok_or(DecodeError::new("bftblock.link"))?);
        }
        let mut block = BftBlock::new(view, seq, links);
        block.dummy = dummy;
        Ok(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClientId;
    use proptest::prelude::*;

    fn sample_requests(count: usize) -> Vec<Request> {
        (0..count as u64)
            .map(|i| Request::new_synthetic(ClientId(1), i, 16))
            .collect()
    }

    #[test]
    fn datablock_roundtrip_and_sizes() {
        let db = Datablock::new(NodeId(2), 7, sample_requests(5));
        let bytes = db.encode_to_vec();
        assert_eq!(Datablock::decode_from_slice(&bytes).unwrap(), db);
        assert_eq!(db.len(), 5);
        assert!(!db.is_empty());
        assert_eq!(db.payload_bytes(), 5 * 16);
        let run = RequestRun { client: ClientId(1), first_seq: 0, count: 5, size: 16 };
        assert_eq!(db, Datablock::from_run(NodeId(2), 7, run));
    }

    #[test]
    fn encoded_len_matches_actual_encoding() {
        // The codec writes 17 bytes per request while the wire also charges the
        // declared payload size.
        let db = Datablock::new(NodeId(2), 3, sample_requests(4));
        assert_eq!(db.encoded_len(), db.encode_to_vec().len());
        assert_eq!(db.encoded_len(), 16 + 4 * 17);
        assert_eq!(db.wire_size(), db.encoded_len() + db.payload_bytes());
    }

    #[test]
    #[should_panic(expected = "request 3 (c1:4) does not continue")]
    fn datablock_of_a_non_run_panics_naming_the_request() {
        let mut requests = sample_requests(4);
        requests[3].id.seq = 4;
        let _ = Datablock::new(NodeId(2), 1, requests);
    }

    #[test]
    fn decode_rejects_a_datablock_whose_requests_break_the_run() {
        let mut bytes = Datablock::new(NodeId(2), 1, sample_requests(3)).encode_to_vec();
        // The third request's client (after the 16-byte header and two records).
        bytes[16 + 2 * 17] = 9;
        let err = Datablock::decode_from_slice(&bytes).unwrap_err();
        assert_eq!(err.context, "request run");
    }

    #[test]
    fn datablock_digest_changes_with_contents() {
        let a = Datablock::new(NodeId(2), 7, sample_requests(3));
        let b = Datablock::new(NodeId(2), 8, sample_requests(3));
        let c = Datablock::new(NodeId(3), 7, sample_requests(3));
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_eq!(a.digest(), Datablock::new(NodeId(2), 7, sample_requests(3)).digest());
    }

    #[test]
    fn decode_hashed_checks_the_digest_of_the_bytes_and_caches_it() {
        let db = Datablock::new(NodeId(2), 7, sample_requests(3));
        let bytes = db.encode_to_vec();
        let decoded = Datablock::decode_hashed(&bytes, db.digest()).unwrap();
        assert_eq!(decoded, db);
        assert_eq!(decoded.cached_digest.get(), Some(&db.digest()));
        let other = Datablock::new(NodeId(2), 8, sample_requests(3)).digest();
        let err = Datablock::decode_hashed(&bytes, other).unwrap_err();
        assert_eq!(err.context, "datablock digest");
        // Bytes that hash right but do not decode are still rejected by the codec.
        let err = Datablock::decode_hashed(&bytes[..20], hash_bytes(&bytes[..20])).unwrap_err();
        assert_eq!(err.context, "request.seq");
    }

    fn one_leaf_tree() -> MerkleTree {
        MerkleTree::from_leaves([b"shard".as_slice()])
    }

    /// The tree is built once per copy and shared by its clones; a decoded copy starts
    /// without one and neither equality nor the codec sees it.
    #[test]
    fn shard_tree_is_built_once_per_copy_and_shared_by_clones() {
        let db = Datablock::new(NodeId(2), 7, sample_requests(3));
        let root = db.shard_tree(2, 4, one_leaf_tree).root();
        assert_eq!(root, one_leaf_tree().root());
        let again = db.shard_tree(2, 4, || unreachable!("the tree is cached"));
        assert!(std::ptr::eq(again, db.shard_tree(2, 4, one_leaf_tree)));
        let clone = db.clone();
        assert!(Arc::ptr_eq(
            clone.cached_shard_tree.get().unwrap(),
            db.cached_shard_tree.get().unwrap()
        ));
        let copy = Datablock::decode_from_slice(&db.encode_to_vec()).unwrap();
        assert!(copy.cached_shard_tree.get().is_none());
        assert_eq!(copy, db);
        assert_eq!(copy.encode_to_vec(), db.encode_to_vec());
    }

    #[test]
    #[should_panic(
        expected = "db(r2, 7): shard tree built for the (2, 4) code, asked for the (11, 32) code"
    )]
    fn shard_tree_under_another_code_panics_naming_both() {
        let db = Datablock::new(NodeId(2), 7, sample_requests(3));
        db.shard_tree(2, 4, one_leaf_tree);
        db.shard_tree(11, 32, one_leaf_tree);
    }

    #[test]
    fn bftblock_roundtrip_and_sizes() {
        let links: Vec<Digest> = (0..10u8).map(|i| hash_bytes(&[i])).collect();
        let block = BftBlock::new(View(3), SeqNum(9), links.clone());
        let bytes = block.encode_to_vec();
        assert_eq!(block.wire_size(), bytes.len());
        assert_eq!(BftBlock::decode_from_slice(&bytes).unwrap(), block);
        assert_eq!(block.len(), 10);
    }

    #[test]
    fn dummy_block_is_empty_and_flagged() {
        let dummy = BftBlock::dummy(View(4), SeqNum(2));
        assert!(dummy.dummy);
        assert!(dummy.is_empty());
        let decoded = BftBlock::decode_from_slice(&dummy.encode_to_vec()).unwrap();
        assert!(decoded.dummy);
    }

    #[test]
    fn bftblock_wire_size_is_small_relative_to_payload() {
        // The whole point of the decoupling: a BFTblock linking 100 datablocks of 2000
        // 128-byte requests is ~3 KB while the payload it confirms is ~25 MB.
        let links: Vec<Digest> = (0..100u8).map(|i| hash_bytes(&[i])).collect();
        let block = BftBlock::new(View(1), SeqNum(1), links);
        assert!(block.wire_size() < 4 * 1024);
    }

    proptest! {
        #[test]
        fn datablock_roundtrips_with_any_requests(
            producer in 0u32..1000,
            counter in any::<u64>(),
            client in any::<u32>(),
            first_seq in any::<u32>(),
            count in 0u64..20,
            size in 0u32..256,
        ) {
            let requests: Vec<Request> = (0..count)
                .map(|i| Request::new_synthetic(ClientId(client), u64::from(first_seq) + i, size))
                .collect();
            let db = Datablock::new(NodeId(producer), counter, requests);
            let bytes = db.encode_to_vec();
            prop_assert_eq!(bytes.len(), db.encoded_len());
            prop_assert_eq!(db.wire_size(), db.encoded_len() + db.payload_bytes());
            let decoded = Datablock::decode_from_slice(&bytes).unwrap();
            prop_assert_eq!(decoded, db);
        }

        /// The codec is canonical, which is what lets `decode_hashed` hash the received
        /// bytes instead of re-encoding: every single-byte change, insertion and
        /// truncation of a valid encoding that still decodes re-encodes to exactly its
        /// own bytes.
        #[test]
        fn every_mutation_that_decodes_reencodes_to_its_own_bytes(
            counter in any::<u64>(),
            first_seq in 0..u64::MAX / 2,
            count in 0u64..8,
            mask in 1u8..=255,
        ) {
            let requests: Vec<Request> = (0..count)
                .map(|i| Request::new_synthetic(ClientId(5), first_seq + i, 128))
                .collect();
            let valid = Datablock::new(NodeId(2), counter, requests).encode_to_vec();
            let mut mutations = Vec::new();
            for at in 0..=valid.len() {
                let mut inserted = valid.clone();
                inserted.insert(at, mask);
                mutations.push(inserted);
                mutations.push(valid[..at].to_vec());
                if at < valid.len() {
                    let mut flipped = valid.clone();
                    flipped[at] ^= mask;
                    mutations.push(flipped);
                }
            }
            let mut accepted = 0;
            for bytes in mutations {
                if let Ok(decoded) = Datablock::decode_from_slice(&bytes) {
                    prop_assert_eq!(decoded.encode_to_vec(), bytes);
                    accepted += 1;
                }
            }
            // At least every flip of the producer and counter bytes decodes.
            prop_assert!(accepted >= 12, "only {} mutations decoded", accepted);
        }

        #[test]
        fn bftblock_roundtrips_with_any_links(
            view in 1u64..1_000,
            seq in 1u64..1_000_000,
            link_seeds in proptest::collection::vec(any::<u64>(), 0..64),
        ) {
            let links: Vec<Digest> = link_seeds
                .iter()
                .map(|s| hash_bytes(&s.to_le_bytes()))
                .collect();
            let block = BftBlock::new(View(view), SeqNum(seq), links);
            let bytes = block.encode_to_vec();
            prop_assert_eq!(block.wire_size(), bytes.len());
            prop_assert_eq!(BftBlock::decode_from_slice(&bytes).unwrap(), block);
        }
    }
}
