//! Per-serial-number agreement instance bookkeeping (Algorithm 2), for both the leader
//! and non-leader replicas, and the watermark window both are kept in.

use crate::messages::NotarizedEntry;
use leopard_crypto::threshold::CombinedSignature;
use leopard_crypto::{Digest, ShareCollector};
use leopard_types::{BftBlock, FastSet};
use std::collections::VecDeque;
use std::sync::Arc;

/// How many checkpoint windows of `k·p` serials a [`SerialWindow`] admits above its
/// base. Honest replicas vote only on `lw + 1 ..= lw + k·p`, but notarizations,
/// confirmations and state-transfer entries of serials ahead of a lagging replica's
/// watermark still arrive; the widest span the tests and the full fault profiles
/// reach is about 13 windows, so 64 leaves about 5× headroom.
const SPAN_WINDOWS: u64 = 64;

/// Per-serial state over the serials a replica works on (Algorithm 4's watermark
/// window): one slot per serial from `base`, the low watermark plus one, upwards.
///
/// Slots are boxed: an empty one costs 8 bytes, so the ring's spare capacity stays
/// small next to the 240-byte [`ReplicaInstance`] it would otherwise hold inline. The
/// span is bounded: a serial at or beyond `base + 64·k·p` has no slot. A
/// `NotarizationProof` signs only its block digest, not the serial it names, so a
/// replayed proof can name any serial; without the bound it would make the window
/// allocate a slot for every serial up to it.
#[derive(Debug)]
pub(crate) struct SerialWindow<T> {
    /// The serial of the front slot: the low watermark plus one.
    base: u64,
    /// The number of serials from `base` that may hold a slot.
    span: u64,
    slots: VecDeque<Option<Box<T>>>,
}

impl<T> SerialWindow<T> {
    /// An empty window at watermark 0 for a checkpoint window of `window` (`k·p`)
    /// serials.
    pub(crate) fn new(window: usize) -> Self {
        Self {
            base: 1,
            span: (window as u64).saturating_mul(SPAN_WINDOWS),
            slots: VecDeque::new(),
        }
    }

    /// The slot index of `seq`, if `seq` lies inside the span.
    fn offset(&self, seq: u64) -> Option<usize> {
        let offset = seq.checked_sub(self.base)?;
        (offset < self.span).then_some(offset as usize)
    }

    /// The slot of `seq`, growing the window to reach it, or `None` outside the span.
    fn slot(&mut self, seq: u64) -> Option<&mut Option<Box<T>>> {
        let offset = self.offset(seq)?;
        if offset >= self.slots.len() {
            self.slots.resize_with(offset + 1, || None);
        }
        Some(&mut self.slots[offset])
    }

    /// The state at `seq`, created empty if absent, or `None` outside the span.
    pub(crate) fn entry(&mut self, seq: u64) -> Option<&mut T>
    where
        T: Default,
    {
        Some(self.slot(seq)?.get_or_insert_with(Box::default))
    }

    /// Puts `value` at `seq`, replacing what was there; drops it if `seq` lies
    /// outside the span.
    pub(crate) fn insert(&mut self, seq: u64, value: T) {
        if let Some(slot) = self.slot(seq) {
            *slot = Some(Box::new(value));
        }
    }

    /// The state at `seq`, if any.
    pub(crate) fn get(&self, seq: u64) -> Option<&T> {
        self.slots.get(self.offset(seq)?)?.as_deref()
    }

    /// The state at `seq`, if any, mutably.
    pub(crate) fn get_mut(&mut self, seq: u64) -> Option<&mut T> {
        let offset = self.offset(seq)?;
        self.slots.get_mut(offset)?.as_deref_mut()
    }

    /// Drops every serial at or below `watermark` and moves the base to
    /// `watermark + 1`; an older watermark changes nothing. Gives the ring's memory
    /// back once its capacity exceeds four times what is left.
    pub(crate) fn prune_through(&mut self, watermark: u64) {
        let base = watermark.saturating_add(1);
        if base <= self.base {
            return;
        }
        let dropped = (base - self.base).min(self.slots.len() as u64) as usize;
        self.slots.drain(..dropped);
        self.base = base;
        if self.slots.capacity() > 4 * self.slots.len() {
            self.slots.shrink_to(2 * self.slots.len());
        }
    }

    /// `(seq, state)` of every occupied serial, in serial order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        let base = self.base;
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(offset, slot)| Some((base + offset as u64, slot.as_deref()?)))
    }

    /// Every occupied serial's state, mutably, in serial order.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut T> + '_ {
        self.slots.iter_mut().flatten().map(|state| &mut **state)
    }
}

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

    /// Window 2 (`k·p` = 2) spans the 128 serials `base ..= base + 127`.
    fn new_window() -> SerialWindow<u64> {
        SerialWindow::new(2)
    }

    #[test]
    fn window_entry_and_get_inside_below_and_beyond_the_span() {
        let mut window = new_window();
        assert_eq!(window.entry(1).copied(), Some(0));
        *window.entry(128).expect("the last serial of the span") = 128;
        assert!(window.entry(129).is_none() && window.entry(u64::MAX).is_none());
        assert!(window.entry(0).is_none());
        window.insert(129, 129);
        assert!(window.get(129).is_none());
        assert!(window.slots.len() == 128, "a refused serial grew the ring");
        assert_eq!(window.get(128), Some(&128));
        assert_eq!(window.get(1), Some(&0));
        assert!(window.get(2).is_none() && window.get(129).is_none() && window.get(0).is_none());
        *window.get_mut(1).expect("occupied") = 1;
        assert!(window.get_mut(2).is_none());
        window.insert(2, 2);
        assert_eq!(window.get(2), Some(&2));

        // Past a watermark the span moves with the base.
        window.prune_through(10);
        assert!(window.entry(10).is_none() && window.get(10).is_none());
        assert!(window.entry(138).is_some() && window.entry(139).is_none());
    }

    #[test]
    fn window_prunes_past_its_end_and_ignores_an_older_watermark() {
        let mut window = new_window();
        for seq in [3, 5, 6] {
            window.insert(seq, seq);
        }
        window.prune_through(4);
        assert_eq!(window.iter().collect::<Vec<_>>(), [(5, &5), (6, &6)]);
        // An older watermark (or the same one) is a no-op.
        window.prune_through(2);
        window.prune_through(4);
        assert_eq!(window.iter().collect::<Vec<_>>(), [(5, &5), (6, &6)]);
        assert!(window.entry(4).is_none());
        // A watermark past every occupied serial empties the ring and moves the base
        // there, not to the end of the ring.
        window.prune_through(50);
        assert!(window.slots.is_empty() && window.iter().next().is_none());
        assert!(window.entry(50).is_none());
        window.insert(51, 51);
        assert_eq!(window.slots.len(), 1);
        assert_eq!(window.iter().collect::<Vec<_>>(), [(51, &51)]);
    }

    #[test]
    fn window_iterates_in_serial_order() {
        let mut window = new_window();
        for seq in [9, 2, 40, 7, 3] {
            window.insert(seq, seq * 10);
        }
        let seqs: Vec<(u64, u64)> = window.iter().map(|(seq, &value)| (seq, value)).collect();
        assert_eq!(seqs, [(2, 20), (3, 30), (7, 70), (9, 90), (40, 400)]);
        for value in window.values_mut() {
            *value += 1;
        }
        window.prune_through(3);
        let values: Vec<u64> = window.iter().map(|(_, &value)| value).collect();
        assert_eq!(values, [71, 91, 401]);
    }

    #[test]
    fn window_gives_capacity_back_after_a_wide_prune() {
        let mut window = new_window();
        for seq in 1..=120 {
            window.insert(seq, seq);
        }
        assert!(window.slots.capacity() >= 120);
        // Three serials left: the ring shrinks to at most twice that.
        window.prune_through(117);
        assert_eq!(window.iter().count(), 3);
        assert!(window.slots.capacity() <= 6, "capacity {}", window.slots.capacity());
        // A prune that leaves most of the ring keeps its capacity.
        let mut narrow = new_window();
        for seq in 1..=16 {
            narrow.insert(seq, seq);
        }
        let capacity = narrow.slots.capacity();
        narrow.prune_through(8);
        assert_eq!(narrow.slots.capacity(), capacity);
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
