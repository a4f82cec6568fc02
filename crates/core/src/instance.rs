//! Per-serial-number agreement instance bookkeeping (Algorithm 2), for both the leader
//! and non-leader replicas.

use crate::messages::NotarizedEntry;
use leopard_crypto::threshold::CombinedSignature;
use leopard_crypto::{Digest, ShareCollector};
use leopard_types::{BftBlock, FastSet};
use std::sync::Arc;

/// The leader's state for one agreement instance: what it reads to collect the two
/// voting rounds. The proofs it forms are broadcast, not kept.
#[derive(Debug)]
pub struct LeaderInstance {
    /// Digest of the proposed block (the message of the first voting round).
    pub block_digest: Digest,
    /// First-round (prepare) shares.
    pub prepares: ShareCollector,
    /// Digest of the notarization proof (the message of the second voting round),
    /// once the first round formed it.
    pub notarization_digest: Option<Digest>,
    /// Second-round (commit) shares.
    pub commits: ShareCollector,
    /// True once the second round formed the confirmation proof.
    pub confirmed: bool,
}

impl LeaderInstance {
    /// Creates the leader-side state for a freshly proposed block with digest
    /// `block_digest`.
    pub fn new(block_digest: Digest) -> Self {
        Self {
            block_digest,
            prepares: ShareCollector::default(),
            notarization_digest: None,
            commits: ShareCollector::default(),
            confirmed: false,
        }
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
    /// PBFT's "prepared" evidence: the last notarized block + proof seen here, kept
    /// through [`Self::reset_for_new_view`] until a quorum checkpoint covers the serial.
    /// A block that may have confirmed elsewhere must keep appearing in this replica's
    /// view-change messages — dropping it would let a second view change replace a
    /// confirmed block with a dummy.
    pub(crate) prepared: Option<NotarizedEntry>,
    /// A confirmation proof `(notarization digest, proof)` that arrived before the
    /// notarization binding it to a block. Accepting it blind would attach whatever
    /// block shows up next at this serial — under a view-change race, different
    /// content than the quorum signed — so it is held until the notarization arrives.
    pub(crate) held_confirmation: Option<(Digest, CombinedSignature)>,
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
            prepare_voted: false,
            commit_voted: false,
            missing_links: FastSet::default(),
            notarization: None,
            notarization_digest: None,
            confirmation: None,
            endorsed_repropose: None,
            prepared: None,
            held_confirmation: None,
        }
    }

    /// True once every linked datablock is locally available.
    pub fn links_complete(&self) -> bool {
        self.missing_links.is_empty()
    }

    /// True once the block is confirmed: a confirmation proof is held.
    pub fn is_confirmed(&self) -> bool {
        self.confirmation.is_some()
    }

    /// The live view-change evidence: the notarized block and its proof, once both
    /// are held.
    pub(crate) fn notarized_entry(&self) -> Option<NotarizedEntry> {
        match (&self.block, self.notarization) {
            (Some(block), Some(proof)) => Some(NotarizedEntry {
                block: block.clone(),
                proof,
            }),
            _ => None,
        }
    }

    /// Entering a new view: an unconfirmed instance will be re-proposed, so it drops
    /// its block, votes and notarization to vote again. It keeps its prepared
    /// evidence and any held confirmation. A confirmed instance is untouched.
    pub(crate) fn reset_for_new_view(&mut self) {
        if !self.is_confirmed() {
            *self = Self {
                prepared: self.prepared.take(),
                held_confirmation: self.held_confirmation.take(),
                ..Self::new()
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leopard_crypto::threshold::ThresholdScheme;
    use leopard_types::{SeqNum, View};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn proof() -> CombinedSignature {
        let mut rng = StdRng::seed_from_u64(1);
        let (scheme, keys) = ThresholdScheme::trusted_setup(1, 1, &mut rng);
        let digest = leopard_crypto::hash_bytes(b"instance");
        let share = scheme.sign_share(&keys[0], &digest);
        scheme.combine(&[share], &digest).expect("1-of-1 combine")
    }

    /// An instance mid-agreement: block, digests, both votes, notarization, one missing
    /// link, stashed prepared evidence and a held confirmation; and the confirmation
    /// itself if `confirmed`.
    fn voted_instance(confirmed: bool) -> ReplicaInstance {
        let block = Arc::new(BftBlock::new(View(1), SeqNum(3), vec![]));
        let mut instance = ReplicaInstance::new();
        instance.block_digest = Some(block.digest());
        instance.block = Some(block);
        instance.prepare_voted = true;
        instance.commit_voted = true;
        instance.missing_links.insert(leopard_crypto::hash_bytes(b"link"));
        instance.notarization = Some(proof());
        instance.notarization_digest = Some(leopard_crypto::hash_bytes(b"notarized"));
        instance.prepared = instance.notarized_entry();
        instance.held_confirmation = Some((leopard_crypto::hash_bytes(b"held"), proof()));
        instance.confirmation = confirmed.then(proof);
        instance
    }

    #[test]
    fn leader_instance_tracks_confirmation() {
        let block = BftBlock::new(View(1), SeqNum(1), vec![]);
        let instance = LeaderInstance::new(block.digest());
        assert_eq!(instance.block_digest, block.digest());
        assert!(instance.notarization_digest.is_none() && !instance.confirmed);
    }

    #[test]
    fn replica_instance_defaults() {
        let instance = ReplicaInstance::new();
        assert!(instance.links_complete());
        assert!(!instance.is_confirmed());
        assert!(instance.notarized_entry().is_none());
        assert!(!instance.prepare_voted);
        let default_instance = ReplicaInstance::default();
        assert!(!default_instance.is_confirmed() && default_instance.block.is_none());
    }

    #[test]
    fn view_entry_resets_votes_but_keeps_evidence_and_held_confirmation() {
        let mut instance = voted_instance(false);
        assert!(!instance.is_confirmed());
        let prepared = instance.prepared.clone().expect("stashed");
        let held = instance.held_confirmation.expect("held");
        instance.reset_for_new_view();
        assert!(instance.block.is_none() && instance.block_digest.is_none());
        assert!(!instance.prepare_voted && !instance.commit_voted);
        assert!(instance.notarization.is_none() && instance.notarization_digest.is_none());
        assert!(!instance.is_confirmed());
        assert!(instance.links_complete());
        assert!(instance.notarized_entry().is_none());
        let kept = instance.prepared.expect("prepared evidence survives view entry");
        assert_eq!(kept.block.digest(), prepared.block.digest());
        assert_eq!(instance.held_confirmation, Some(held));

        // A confirmed instance keeps everything.
        let mut confirmed = voted_instance(true);
        confirmed.reset_for_new_view();
        assert!(confirmed.block.is_some() && confirmed.block_digest.is_some());
        assert!(confirmed.prepare_voted && confirmed.commit_voted);
        assert!(confirmed.notarization.is_some() && confirmed.notarization_digest.is_some());
        assert!(confirmed.is_confirmed() && !confirmed.links_complete());
        assert!(confirmed.prepared.is_some() && confirmed.held_confirmation.is_some());
    }
}
