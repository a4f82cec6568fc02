//! HotStuff blocks and quorum certificates.

use leopard_crypto::threshold::CombinedSignature;
use leopard_crypto::{hash_parts, Digest, DEFAULT_SIGNATURE_WIRE_BYTES, DIGEST_LEN};
use leopard_types::{RequestRun, View, WireSize};

/// A quorum certificate: `2f+1` combined votes on a block at a given height.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuorumCertificate {
    /// Height of the certified block.
    pub height: u64,
    /// Digest of the certified block.
    pub block_digest: Digest,
    /// The combined threshold signature, `None` only for the genesis certificate.
    pub proof: Option<CombinedSignature>,
}

impl QuorumCertificate {
    /// The genesis certificate every replica starts from.
    pub fn genesis() -> Self {
        Self {
            height: 0,
            block_digest: Digest::zero(),
            proof: None,
        }
    }

    /// True for the genesis certificate.
    pub fn is_genesis(&self) -> bool {
        self.proof.is_none()
    }
}

impl WireSize for QuorumCertificate {
    fn wire_size(&self) -> usize {
        // height u64 + block digest + combined signature
        8 + DIGEST_LEN + DEFAULT_SIGNATURE_WIRE_BYTES
    }
}

/// A HotStuff block: the leader's proposal carrying the full request batch plus the QC
/// of its parent (chained / pipelined HotStuff).
#[derive(Debug, Clone)]
pub struct HotStuffBlock {
    /// Height (one per proposal; equals the view in the happy path).
    pub height: u64,
    /// View in which the block was proposed.
    pub view: View,
    /// Digest of the parent block.
    pub parent: Digest,
    /// The request batch carried by the block.
    pub requests: RequestRun,
    /// Lazily computed digest; shared clones (e.g. through `Arc`) compute it once.
    cached_digest: std::sync::OnceLock<Digest>,
}

impl PartialEq for HotStuffBlock {
    fn eq(&self, other: &Self) -> bool {
        self.height == other.height
            && self.view == other.view
            && self.parent == other.parent
            && self.requests == other.requests
    }
}

impl Eq for HotStuffBlock {}

impl HotStuffBlock {
    /// Creates a block.
    pub fn new(height: u64, view: View, parent: Digest, requests: RequestRun) -> Self {
        Self {
            height,
            view,
            parent,
            requests,
            cached_digest: std::sync::OnceLock::new(),
        }
    }

    /// The block digest replicas vote on.
    ///
    /// The digest commits to the height, view, parent and the request identifiers; it is
    /// *not* a full serialisation hash to keep large-batch simulations cheap (the
    /// request payloads are synthetic). Cached after the first call: every replica that
    /// receives the `Arc`-shared proposal reuses the same digest.
    pub fn digest(&self) -> Digest {
        *self.cached_digest.get_or_init(|| {
            let mut id_bytes = Vec::with_capacity(12 * self.requests.len() + 16 + DIGEST_LEN);
            id_bytes.extend_from_slice(&self.height.to_le_bytes());
            id_bytes.extend_from_slice(&self.view.0.to_le_bytes());
            id_bytes.extend_from_slice(self.parent.as_bytes());
            for seq in self.requests.seqs() {
                id_bytes.extend_from_slice(&self.requests.client.0.to_le_bytes());
                id_bytes.extend_from_slice(&seq.to_le_bytes());
            }
            hash_parts([b"hotstuff-block".as_slice(), &id_bytes])
        })
    }

    /// Number of requests in the batch.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True if the block carries no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }
}

impl WireSize for HotStuffBlock {
    fn wire_size(&self) -> usize {
        // height u64 + view u64 + parent digest + request count u32 + requests
        8 + 8 + DIGEST_LEN + 4 + self.requests.wire_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leopard_types::ClientId;

    fn requests(count: u32) -> RequestRun {
        RequestRun { client: ClientId(0), first_seq: 0, count, size: 128 }
    }

    #[test]
    fn genesis_certificate() {
        let qc = QuorumCertificate::genesis();
        assert!(qc.is_genesis());
        assert_eq!(qc.height, 0);
        assert!(qc.wire_size() > 0);
    }

    #[test]
    fn block_digest_depends_on_contents() {
        let a = HotStuffBlock::new(1, View(1), Digest::zero(), requests(3));
        let b = HotStuffBlock::new(2, View(1), Digest::zero(), requests(3));
        let c = HotStuffBlock::new(1, View(1), a.digest(), requests(3));
        let d = HotStuffBlock::new(1, View(1), Digest::zero(), requests(4));
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_ne!(a.digest(), d.digest());
        assert_eq!(a.digest(), HotStuffBlock::new(1, View(1), Digest::zero(), requests(3)).digest());
    }

    #[test]
    fn wire_size_counts_the_full_payload() {
        let block = HotStuffBlock::new(1, View(1), Digest::zero(), requests(800));
        // 800 requests of 128 bytes: the proposal is payload-dominated.
        assert!(block.wire_size() > 800 * 128);
        assert_eq!(block.len(), 800);
        assert_eq!(block.requests.payload_bytes(), 800 * 128);
        assert!(!block.is_empty());
    }
}
