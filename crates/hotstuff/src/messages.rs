//! HotStuff protocol messages.
//!
//! Like Leopard's, a [`HotStuffMessage`] is a small value the simulator's fan-out slot
//! holds inline, so every variant stays within 64 bytes (a unit test enforces it): the
//! request batch travels behind an [`Arc`], and the 56-byte quorum certificate of a
//! proposal or a new-view message behind a [`Box`] (one per block or per view change).

use crate::block::{HotStuffBlock, QuorumCertificate};
use leopard_crypto::threshold::SignatureShare;
use leopard_crypto::{Digest, DIGEST_LEN};
use leopard_simnet::SimMessage;
use leopard_types::{View, WireSize};
use std::sync::Arc;

/// Messages exchanged by HotStuff replicas.
#[derive(Debug, Clone)]
pub enum HotStuffMessage {
    /// The leader's proposal: a block carrying the full request batch plus the QC of its
    /// parent (pipelined voting).
    Proposal {
        /// The proposed block.
        block: Arc<HotStuffBlock>,
        /// QC certifying the parent block.
        justify: Box<QuorumCertificate>,
        /// The leader's own vote share on the block.
        share: SignatureShare,
    },
    /// A replica's vote on a proposal, sent to the leader.
    Vote {
        /// Height of the voted block.
        height: u64,
        /// Digest of the voted block.
        block_digest: Digest,
        /// The voter's signature share.
        share: SignatureShare,
    },
    /// Pacemaker: a replica's complaint that the current view makes no progress,
    /// carrying its highest QC for the next leader.
    NewView {
        /// The view being abandoned.
        view: View,
        /// The sender's highest QC.
        high_qc: Box<QuorumCertificate>,
        /// The sender's signature share on the complaint.
        share: SignatureShare,
    },
}

impl WireSize for HotStuffMessage {
    fn wire_size(&self) -> usize {
        match self {
            HotStuffMessage::Proposal {
                block,
                justify,
                share,
            } => block.wire_size() + justify.wire_size() + share.wire_size(),
            HotStuffMessage::Vote { share, .. } => 8 + DIGEST_LEN + share.wire_size(),
            HotStuffMessage::NewView { high_qc, share, .. } => {
                8 + high_qc.wire_size() + share.wire_size()
            }
        }
    }
}

impl SimMessage for HotStuffMessage {
    fn category(&self) -> &'static str {
        match self {
            HotStuffMessage::Proposal { .. } => "block",
            HotStuffMessage::Vote { .. } => "vote",
            HotStuffMessage::NewView { .. } => "newview",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leopard_crypto::hash_bytes;
    use leopard_crypto::threshold::ThresholdScheme;
    use leopard_types::{ClientId, Request};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn categories_and_sizes() {
        let mut rng = StdRng::seed_from_u64(1);
        let (scheme, keys) = ThresholdScheme::trusted_setup(3, 4, &mut rng);
        let digest = hash_bytes(b"x");
        let share = scheme.sign_share(&keys[0], &digest);

        let block = Arc::new(HotStuffBlock::new(
            1,
            View(1),
            Digest::zero(),
            (0..100)
                .map(|i| Request::new_synthetic(ClientId(0), i, 128))
                .collect(),
        ));
        let proposal = HotStuffMessage::Proposal {
            block: block.clone(),
            justify: Box::new(QuorumCertificate::genesis()),
            share,
        };
        let vote = HotStuffMessage::Vote {
            height: 1,
            block_digest: digest,
            share,
        };
        let newview = HotStuffMessage::NewView {
            view: View(1),
            high_qc: Box::new(QuorumCertificate::genesis()),
            share,
        };
        assert_eq!(proposal.category(), "block");
        assert_eq!(vote.category(), "vote");
        assert_eq!(newview.category(), "newview");
        // The proposal dominates: it carries the whole batch.
        assert!(proposal.wire_size() > 100 * 128);
        assert!(vote.wire_size() < 128);
        assert!(newview.wire_size() < 256);
    }

    /// The simulator's fan-out slot holds a message inline and every in-flight copy
    /// takes one, so a variant that grows the enum grows them all.
    #[test]
    fn every_message_fits_in_64_bytes() {
        assert!(
            std::mem::size_of::<HotStuffMessage>() <= 64,
            "HotStuffMessage is {} bytes: every in-flight copy's fan-out slot is that size; \
             box the variant that grew it",
            std::mem::size_of::<HotStuffMessage>()
        );
    }
}
