//! Per-serial-number agreement instance bookkeeping (Algorithm 2), for both the leader
//! and non-leader replicas.

use leopard_crypto::threshold::CombinedSignature;
use leopard_crypto::{Digest, ShareCollector};
use leopard_types::{BftBlock, BlockState, FastSet};
use std::sync::Arc;

/// The leader's state for one agreement instance.
///
/// Leader instances live inside [`crate::pipeline::Pipeline`], which maintains an O(1)
/// count of unconfirmed instances: set `confirmation` through
/// [`crate::pipeline::Pipeline::record_confirmation`], not by writing the field
/// directly, or the counter drifts.
#[derive(Debug)]
pub struct LeaderInstance {
    /// The proposed block.
    pub block: Arc<BftBlock>,
    /// Digest of the proposed block (the message of the first voting round).
    pub block_digest: Digest,
    /// First-round (prepare) shares.
    pub prepares: ShareCollector,
    /// The notarization proof once formed.
    pub notarization: Option<CombinedSignature>,
    /// Digest of the notarization proof (the message of the second voting round).
    pub notarization_digest: Option<Digest>,
    /// Second-round (commit) shares.
    pub commits: ShareCollector,
    /// The confirmation proof once formed.
    pub confirmation: Option<CombinedSignature>,
}

impl LeaderInstance {
    /// Creates the leader-side state for a freshly proposed block.
    pub fn new(block: Arc<BftBlock>) -> Self {
        let block_digest = block.digest();
        Self {
            block,
            block_digest,
            prepares: ShareCollector::default(),
            notarization: None,
            notarization_digest: None,
            commits: ShareCollector::default(),
            confirmation: None,
        }
    }

    /// True once the confirmation proof exists.
    pub fn is_confirmed(&self) -> bool {
        self.confirmation.is_some()
    }
}

/// A non-leader replica's state for one agreement instance.
#[derive(Debug)]
pub struct ReplicaInstance {
    /// The block, once received (a replica can learn the serial number from votes or a
    /// view-change before seeing the block itself).
    pub block: Option<Arc<BftBlock>>,
    /// Digest of the block, once known.
    pub block_digest: Option<Digest>,
    /// Protocol state of the block.
    pub state: BlockState,
    /// True once the first-round vote was cast (an honest replica votes at most once per
    /// serial number and view — the safety argument relies on this).
    pub prepare_voted: bool,
    /// True once the second-round vote was cast.
    pub commit_voted: bool,
    /// Digests of linked datablocks this replica has not received yet.
    pub missing_links: FastSet<Digest>,
    /// The notarization proof once received.
    pub notarization: Option<CombinedSignature>,
    /// Digest of the notarization proof.
    pub notarization_digest: Option<Digest>,
    /// The confirmation proof once received.
    pub confirmation: Option<CombinedSignature>,
    /// Digest of a later view's re-proposal of the *same content* this instance
    /// already confirmed, endorsed with a prepare vote (a commit vote follows its
    /// notarization, then this clears). A view change re-stamps surviving blocks
    /// with the new view, which changes the digest; replicas that already confirmed
    /// the block must still vote for the identical-content twin or replicas that
    /// missed the original confirmation could never assemble a quorum for the serial
    /// number again. The confirmed state above is never touched by an endorsement.
    pub endorsed_repropose: Option<Digest>,
}

impl Default for ReplicaInstance {
    fn default() -> Self {
        Self::new()
    }
}

impl ReplicaInstance {
    /// Creates an empty instance.
    pub fn new() -> Self {
        Self {
            block: None,
            block_digest: None,
            state: BlockState::Proposed,
            prepare_voted: false,
            commit_voted: false,
            missing_links: FastSet::default(),
            notarization: None,
            notarization_digest: None,
            confirmation: None,
            endorsed_repropose: None,
        }
    }

    /// True once every linked datablock is locally available.
    pub fn links_complete(&self) -> bool {
        self.missing_links.is_empty()
    }

    /// True once the block is confirmed.
    pub fn is_confirmed(&self) -> bool {
        self.state == BlockState::Confirmed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leopard_types::{SeqNum, View};

    #[test]
    fn leader_instance_tracks_confirmation() {
        let block = Arc::new(BftBlock::new(View(1), SeqNum(1), vec![]));
        let instance = LeaderInstance::new(block.clone());
        assert_eq!(instance.block_digest, block.digest());
        assert!(!instance.is_confirmed());
    }

    #[test]
    fn replica_instance_defaults() {
        let instance = ReplicaInstance::new();
        assert!(instance.links_complete());
        assert!(!instance.is_confirmed());
        assert_eq!(instance.state, BlockState::Proposed);
        assert!(!instance.prepare_voted);
        let default_instance = ReplicaInstance::default();
        assert_eq!(default_instance.state, instance.state);
    }
}
