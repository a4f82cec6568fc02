//! Checkpointing and garbage collection (Algorithm 4).
//!
//! Every `checkpoint_interval` executed BFTblocks each replica threshold-signs a
//! checkpoint statement `⟨checkpoint, sn, H(state)⟩` and sends it to the leader; the
//! leader combines `2f+1` shares into a checkpoint proof and multicasts it. A valid
//! proof advances the low watermark `lw` and lets replicas prune executed datablocks and
//! instances below it.

use leopard_crypto::threshold::{CombinedSignature, SignatureShare};
use leopard_crypto::{hash_parts, Digest, ShareCollector};
use leopard_types::{FastMap, SeqNum};

/// The execution-state digest an honest replica reports at checkpoint `seq` (and for
/// the genesis checkpoint, `seq = 0`). It is a function of the serial alone: it names
/// the checkpoint but certifies nothing about what was executed.
pub fn state_digest(seq: SeqNum) -> Digest {
    hash_parts([b"state".as_slice(), &seq.0.to_le_bytes()])
}

/// The digest replicas sign for a checkpoint at `seq` with execution-state digest
/// `state`.
pub fn checkpoint_digest(seq: SeqNum, state: &Digest) -> Digest {
    hash_parts([b"checkpoint".as_slice(), &seq.0.to_le_bytes(), state.as_bytes()])
}

/// Checkpoint bookkeeping for one replica (leader and non-leader roles).
#[derive(Debug, Default)]
pub struct CheckpointState {
    /// The latest stable (proven) checkpoint sequence number; this is the low watermark.
    stable: SeqNum,
    /// State digest and combined proof of the stable checkpoint, kept so this replica
    /// can serve state-transfer requests (`None` only at the genesis checkpoint, which
    /// needs no proof).
    stable_proof: Option<(Digest, CombinedSignature)>,
    /// Leader-side share collection per candidate checkpoint, keyed by the full
    /// `(seq, state)` claim so an equivocating replica's divergent digest collects in
    /// its own (never-completing) bucket instead of blocking the honest quorum.
    collecting: FastMap<(SeqNum, Digest), ShareCollector>,
}

impl CheckpointState {
    /// Creates the initial state (stable checkpoint at serial number 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// The current low watermark `lw`.
    pub fn low_watermark(&self) -> SeqNum {
        self.stable
    }

    /// The high watermark `lw + k`: the largest serial number the window of `k`
    /// parallel instances admits before the next checkpoint must advance `lw`.
    pub fn high_watermark(&self, k: usize) -> SeqNum {
        SeqNum(self.stable.0 + k as u64)
    }

    /// True if `seq` should trigger a checkpoint given the configured interval.
    pub fn is_checkpoint_height(seq: SeqNum, interval: u64) -> bool {
        interval > 0 && seq.0 > 0 && seq.0 % interval == 0
    }

    /// Leader-side: records a checkpoint share. Returns the shares once `quorum` of them
    /// are available for the same `(seq, state)` (exactly once).
    pub fn record_share(
        &mut self,
        seq: SeqNum,
        state: Digest,
        share: SignatureShare,
        quorum: usize,
    ) -> Option<Vec<SignatureShare>> {
        if seq <= self.stable {
            return None;
        }
        let entry = self.collecting.entry((seq, state)).or_default();
        let count = entry.add(share);
        if count == quorum {
            Some(entry.shares().to_vec())
        } else {
            None
        }
    }

    /// Advances the stable checkpoint to `seq` if it lies above the current one, and
    /// retains its (already verified) state digest and proof for serving state
    /// transfers. Returns true if the watermark moved; the one way it moves.
    pub fn advance_proven(&mut self, seq: SeqNum, state: Digest, proof: CombinedSignature) -> bool {
        if seq <= self.stable {
            return false;
        }
        self.stable = seq;
        self.stable_proof = Some((state, proof));
        self.collecting.retain(|&(s, _), _| s > seq);
        true
    }

    /// The stable checkpoint's state digest and proof, if past genesis.
    pub fn stable_proof(&self) -> Option<&(Digest, CombinedSignature)> {
        self.stable_proof.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leopard_crypto::hash_bytes;
    use leopard_crypto::threshold::ThresholdScheme;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn checkpoint_heights_follow_the_interval() {
        assert!(!CheckpointState::is_checkpoint_height(SeqNum(0), 8));
        assert!(!CheckpointState::is_checkpoint_height(SeqNum(7), 8));
        assert!(CheckpointState::is_checkpoint_height(SeqNum(8), 8));
        assert!(CheckpointState::is_checkpoint_height(SeqNum(16), 8));
        assert!(!CheckpointState::is_checkpoint_height(SeqNum(8), 0));
    }

    #[test]
    fn checkpoint_digest_is_deterministic_and_distinct() {
        let state = hash_bytes(b"log");
        assert_eq!(checkpoint_digest(SeqNum(8), &state), checkpoint_digest(SeqNum(8), &state));
        assert_ne!(checkpoint_digest(SeqNum(8), &state), checkpoint_digest(SeqNum(16), &state));
        assert_ne!(
            checkpoint_digest(SeqNum(8), &state),
            checkpoint_digest(SeqNum(8), &hash_bytes(b"other"))
        );
    }

    #[test]
    fn shares_accumulate_until_quorum_once() {
        let mut rng = StdRng::seed_from_u64(9);
        let (scheme, keys) = ThresholdScheme::trusted_setup(3, 4, &mut rng);
        let state = hash_bytes(b"state");
        let digest = checkpoint_digest(SeqNum(8), &state);
        let mut checkpoints = CheckpointState::new();

        let mut reached = None;
        for key in &keys[..3] {
            reached = checkpoints.record_share(SeqNum(8), state, scheme.sign_share(key, &digest), 3);
        }
        let shares = reached.expect("third share reaches the quorum");
        assert_eq!(shares.len(), 3);
        assert!(scheme.combine(&shares, &digest).is_ok());
        // A fourth share does not report quorum again.
        assert!(checkpoints
            .record_share(SeqNum(8), state, scheme.sign_share(&keys[3], &digest), 3)
            .is_none());
    }

    #[test]
    fn divergent_state_digests_collect_separately() {
        let mut rng = StdRng::seed_from_u64(9);
        let (scheme, keys) = ThresholdScheme::trusted_setup(3, 4, &mut rng);
        let state_a = hash_bytes(b"a");
        let state_b = hash_bytes(b"b");
        let digest_a = checkpoint_digest(SeqNum(8), &state_a);
        let digest_b = checkpoint_digest(SeqNum(8), &state_b);
        let mut checkpoints = CheckpointState::new();
        // The equivocating share arrives FIRST — it must not poison the height.
        assert!(checkpoints
            .record_share(SeqNum(8), state_b, scheme.sign_share(&keys[3], &digest_b), 3)
            .is_none());
        let mut reached = None;
        for key in &keys[..3] {
            reached =
                checkpoints.record_share(SeqNum(8), state_a, scheme.sign_share(key, &digest_a), 3);
        }
        let shares = reached.expect("the honest quorum still forms");
        assert!(scheme.combine(&shares, &digest_a).is_ok());
    }

    /// A combined proof over checkpoint `seq` at the honest state digest.
    fn proof_at(seq: u64) -> CombinedSignature {
        let mut rng = StdRng::seed_from_u64(9);
        let (scheme, keys) = ThresholdScheme::trusted_setup(3, 4, &mut rng);
        let digest = checkpoint_digest(SeqNum(seq), &state_digest(SeqNum(seq)));
        let shares: Vec<_> = keys[..3]
            .iter()
            .map(|k| scheme.sign_share(k, &digest))
            .collect();
        scheme.combine(&shares, &digest).unwrap()
    }

    #[test]
    fn advance_moves_watermark_monotonically() {
        let advance = |checkpoints: &mut CheckpointState, seq| {
            checkpoints.advance_proven(SeqNum(seq), state_digest(SeqNum(seq)), proof_at(seq))
        };
        let mut checkpoints = CheckpointState::new();
        assert_eq!(checkpoints.low_watermark(), SeqNum(0));
        assert!(advance(&mut checkpoints, 8));
        assert_eq!(checkpoints.low_watermark(), SeqNum(8));
        assert!(!advance(&mut checkpoints, 4));
        assert!(!advance(&mut checkpoints, 8));
        assert!(advance(&mut checkpoints, 16));
        assert_eq!(checkpoints.low_watermark(), SeqNum(16));
    }

    #[test]
    fn advance_proven_retains_the_stable_proof_for_state_transfer() {
        let mut rng = StdRng::seed_from_u64(9);
        let (scheme, keys) = ThresholdScheme::trusted_setup(3, 4, &mut rng);
        let state = hash_bytes(b"state");
        let digest = checkpoint_digest(SeqNum(8), &state);
        let shares: Vec<_> = keys[..3].iter().map(|k| scheme.sign_share(k, &digest)).collect();
        let proof = scheme.combine(&shares, &digest).unwrap();

        let mut checkpoints = CheckpointState::new();
        assert!(checkpoints.stable_proof().is_none());
        assert!(checkpoints.advance_proven(SeqNum(8), state, proof));
        let (stored_state, stored_proof) = checkpoints.stable_proof().expect("proof retained");
        assert_eq!(*stored_state, state);
        assert!(scheme.verify_combined(stored_proof, &digest));
        // A stale advance neither moves the watermark nor clobbers the proof.
        assert!(!checkpoints.advance_proven(SeqNum(4), hash_bytes(b"old"), proof));
        assert_eq!(checkpoints.stable_proof().unwrap().0, state);
    }

    #[test]
    fn shares_below_the_watermark_are_rejected() {
        let mut rng = StdRng::seed_from_u64(9);
        let (scheme, keys) = ThresholdScheme::trusted_setup(3, 4, &mut rng);
        let state = hash_bytes(b"state");
        let digest = checkpoint_digest(SeqNum(8), &state);
        let mut checkpoints = CheckpointState::new();
        checkpoints.advance_proven(SeqNum(8), state, proof_at(8));
        assert!(checkpoints
            .record_share(SeqNum(8), state, scheme.sign_share(&keys[0], &digest), 3)
            .is_none());
    }
}
