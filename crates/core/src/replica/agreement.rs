//! Algorithm 2: the two-round agreement on BFTblocks, the confirmed log and
//! in-order execution.

use super::{charge, Ctx, LeopardReplica};
use crate::byzantine::ByzantineBehavior;
use crate::checkpoint::{checkpoint_digest, state_digest, CheckpointState};
use crate::messages::LeopardMessage;
use leopard_crypto::threshold::{CombinedSignature, SignatureShare};
use leopard_crypto::{hash_parts, Digest};
use leopard_simnet::ObservationKind;
use leopard_types::{BftBlock, BftBlockId, NodeId, SeqNum, WireSize};
use std::sync::Arc;

/// Algorithm 2's two voting rounds, which run alike: prepare votes sign the block digest
/// and form the notarization, commit votes sign its digest and form the confirmation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Round {
    Prepare,
    Commit,
}

/// The confirmed log, one slot per serial: slot `seq − 1` holds the block confirmed at
/// `seq`, or `None` while this replica has not seen `seq` confirmed. A slot costs 8
/// bytes, against about 34 for a B-tree entry.
///
/// A block enters only after a verified confirmation proof or a verified
/// state-transfer entry. Both are quorum-signed over the serial, and honest replicas
/// vote only inside their watermark window, so the length is bounded by confirmed
/// progress, never by a serial a message merely names. Nothing is pruned: the
/// invariant checker reads the whole log.
#[derive(Default)]
pub(super) struct SerialLog {
    pub(super) slots: Vec<Option<Arc<BftBlock>>>,
    /// Checkpoint GC has taken the links of every logged serial at or below this one
    /// (see [`Self::take_executed_links`]).
    collected_through: u64,
}

impl SerialLog {
    fn slot(seq: u64) -> Option<usize> {
        usize::try_from(seq.checked_sub(1)?).ok()
    }

    pub(super) fn insert(&mut self, seq: u64, block: Arc<BftBlock>) {
        let index = Self::slot(seq).expect("serials start at 1");
        if index >= self.slots.len() {
            // Grow by 25 % instead of doubling, like the engine's vectors: every
            // replica keeps its log for the whole run.
            if index >= self.slots.capacity() {
                let needed = index + 1 - self.slots.len();
                self.slots
                    .reserve_exact(needed.max(self.slots.len() / 4).max(32));
            }
            self.slots.resize(index + 1, None);
        }
        self.slots[index] = Some(block);
    }

    pub(super) fn get(&self, seq: u64) -> Option<&Arc<BftBlock>> {
        self.slots.get(Self::slot(seq)?)?.as_ref()
    }

    /// The links of the logged serials at or below `min(watermark, last_executed)` that
    /// no earlier call returned, in serial order: the executed datablocks a checkpoint
    /// at `watermark` lets the replica drop. Each call walks only the serials past the
    /// previous one's, and a serial checkpointed before this replica executed it is
    /// returned by a later call.
    pub(super) fn take_executed_links(&mut self, watermark: u64, last_executed: u64) -> Vec<Digest> {
        let from = self.collected_through;
        let through = watermark.min(last_executed).max(from);
        self.collected_through = through;
        let len = self.slots.len() as u64;
        self.slots[from.min(len) as usize..through.min(len) as usize]
            .iter()
            .flatten()
            .flat_map(|block| block.links.iter().copied())
            .collect()
    }
}

impl LeopardReplica {
    // ------------------------------------------------------------------
    // Agreement: replica side (Algorithm 2)
    // ------------------------------------------------------------------

    pub(super) fn handle_pre_prepare(
        &mut self,
        from: NodeId,
        block: Arc<BftBlock>,
        share: leopard_crypto::threshold::SignatureShare,
        ctx: &mut Ctx<'_>,
    ) {
        // VRFBFTBLOCK checks (Algorithm 2, line 37).
        if block.id.view.0 > self.view.0 {
            // The proposal is from a view this replica has not entered yet: the new
            // leader's re-proposals race the NewView that announces the view. Hold
            // the proposal and replay it from `enter_view` — leader identity and the
            // share are validated then, against the entered view.
            self.pacemaker.defer(from, block, share);
            return;
        }
        if block.id.view != self.view || self.in_view_change() {
            return;
        }
        if from != self.proposer_of_seq(block.id.seq) {
            // Under the multi-proposer plane each serial has exactly one legitimate
            // proposer per view (the stripe owner); for `proposers = 1` this is the
            // classic `from != leader` check.
            return;
        }
        let digest = block.digest();
        charge(ctx, self.keys.provider.model().hash(block.wire_size()));
        if !self.verify_share(from, &share, &digest, ctx) {
            return;
        }
        let seq = block.id.seq;
        let lw = self.checkpoints.low_watermark().0;
        let window = self.instance_window() as u64;
        if seq.0 <= lw || seq.0 > lw + window {
            return;
        }
        let Some(instance) = self.replica_instances.entry(seq.0) else {
            return;
        };
        if let Some(existing) = instance.block_digest {
            if existing != digest {
                // A later view legitimately re-proposes a block this replica already
                // confirmed: same links, new view stamp, hence a new digest. Endorse
                // the identical-content twin with a prepare vote (without touching the
                // confirmed state) — replicas that missed the original confirmation
                // can only assemble a quorum for this serial number if the replicas
                // that *did* confirm it keep voting. Anything else — a conflicting
                // block in the same view, or different content — is equivocation and
                // is refused.
                let same_content = instance.is_confirmed()
                    && instance
                        .block
                        .as_ref()
                        .map_or(false, |held| held.links == block.links && held.dummy == block.dummy);
                if !same_content || instance.endorsed_repropose.as_deref() == Some(&digest) {
                    return;
                }
                instance.endorsed_repropose = Some(Box::new(digest));
                if !self.votes_muted() {
                    self.send_vote(Round::Prepare, block.id, digest, ctx);
                }
                return;
            }
        }
        instance.block = Some(block.clone());
        instance.block_digest = Some(digest);
        if instance.is_confirmed() {
            // The instance confirmed while block-less (notarization then proof arrived
            // ahead of the proposal). The digest equality above bound this block to the
            // confirmed notarization; log it and resume in-order execution — no votes
            // are owed for an already-confirmed instance.
            self.log_confirmed(seq);
            self.try_execute(ctx);
            return;
        }

        // Record the link time of our own datablocks (latency breakdown).
        self.producer.note_linked(&block.links, ctx.now());

        // Check the availability of every linked datablock.
        let missing = self.note_missing_links(&block, seq, ctx);
        if !missing.is_empty() {
            let instance = self.replica_instances.get_mut(seq.0).expect("just inserted");
            instance.missing_links = missing;
            return;
        }
        self.cast_prepare_vote(seq, ctx);
        // The block may have arrived after its notarization (reordered delivery, or a
        // partition that dropped the PrePrepare): the commit vote waits for the block.
        self.maybe_commit_vote(seq, ctx);
    }

    /// True while this replica casts no agreement vote: it withholds votes (a Byzantine
    /// behaviour), or it has complained about the current view. The latter is PBFT's
    /// participation rule: a replica's Timeout/ViewChange evidence snapshot must
    /// dominate every vote it ever cast — a vote slipped in *after* the complaint could
    /// complete a quorum whose existence the new leader's evidence cannot see, letting
    /// a later view confirm different content at the same serial number (a fork).
    fn votes_muted(&self) -> bool {
        self.behaviour() == ByzantineBehavior::WithholdVotes || self.in_view_change()
    }

    /// Casts the first-round (prepare) vote for `seq` once the replica holds every
    /// linked datablock, unless it voted already or the instance confirmed meanwhile (a
    /// vote for a confirmed instance reaches a proposer that has no use for it).
    fn cast_prepare_vote(&mut self, seq: SeqNum, ctx: &mut Ctx<'_>) {
        if self.votes_muted() {
            return;
        }
        let Some(instance) = self.replica_instances.get_mut(seq.0) else {
            return;
        };
        if instance.prepare_voted || instance.is_confirmed() || !instance.links_complete() {
            return;
        }
        let Some(digest) = instance.block_digest else {
            return;
        };
        instance.prepare_voted = true;
        // A block-less instance votes for the digest a notarization of this view named.
        let view = instance
            .block
            .as_ref()
            .map_or(self.view, |block| block.id.view);
        self.send_vote(Round::Prepare, BftBlockId::new(view, seq), digest, ctx);
    }

    /// Signs `digest` and sends it as this replica's `round` vote on block `id` to the
    /// proposer of `id.seq` (a commit vote reads only `id.seq`): the one place a replica
    /// signs a vote.
    pub(super) fn send_vote(&mut self, round: Round, id: BftBlockId, digest: Digest, ctx: &mut Ctx<'_>) {
        #[cfg(debug_assertions)]
        if round == Round::Prepare {
            let signed = self.signed_prepares.entry(id).or_insert(digest);
            debug_assert_eq!(*signed, digest, "signed two PrepareVotes for {id:?}");
        }
        let share = self.sign(&digest, ctx);
        let seq = id.seq;
        let vote = match round {
            Round::Prepare => LeopardMessage::PrepareVote {
                seq,
                block_digest: digest,
                share,
            },
            Round::Commit => LeopardMessage::CommitVote {
                seq,
                proof_digest: digest,
                share,
            },
        };
        ctx.send(self.proposer_of_seq(seq), vote);
    }

    pub(super) fn resolve_missing_link(&mut self, seq: SeqNum, digest: Digest, ctx: &mut Ctx<'_>) {
        let Some(instance) = self.replica_instances.get_mut(seq.0) else {
            return;
        };
        instance.resolve_link(&digest);
        if instance.links_complete() && !instance.prepare_voted {
            self.cast_prepare_vote(seq, ctx);
            self.maybe_commit_vote(seq, ctx);
        }
        // A confirmed block may have been waiting for this datablock to execute.
        self.try_execute(ctx);
    }

    pub(super) fn notarization_digest(seq: SeqNum, block_digest: &Digest, proof: &CombinedSignature) -> Digest {
        hash_parts([
            b"notarize".as_slice(),
            &seq.0.to_le_bytes(),
            block_digest.as_bytes(),
            &proof.value.value().to_le_bytes(),
        ])
    }

    /// The proposer's side of both voting rounds: adds `from`'s `round` vote on
    /// instance `seq` and, once a quorum settles into a proof, broadcasts it.
    pub(super) fn handle_vote(
        &mut self,
        from: NodeId,
        round: Round,
        seq: SeqNum,
        digest: Digest,
        share: SignatureShare,
        ctx: &mut Ctx<'_>,
    ) {
        // Only the signer-identity check happens per vote; the share values are
        // verified in one batch when the quorum completes (randomized linear
        // combination — the amortisation that keeps the leader's sequential CPU work
        // per round at one batch check instead of `2f` scheme verifications).
        if self.proposer_of_seq(seq) != self.id || share.signer != from.signer_index() {
            return;
        }
        let quorum = self.quorum();
        let Some(instance) = self.pipeline.get_mut(seq) else {
            return;
        };
        let (signs, settled, shares) = match round {
            Round::Prepare => (
                Some(instance.block_digest),
                instance.notarization_digest.is_some(),
                &mut instance.prepares,
            ),
            Round::Commit => (
                instance.notarization_digest,
                instance.confirmed,
                &mut instance.commits,
            ),
        };
        if signs != Some(digest) || settled || shares.add(share) < quorum {
            return;
        }
        let (proof, cost) = shares.settle(&self.keys.provider, &digest);
        charge(ctx, cost);
        let Some(proof) = proof else {
            return;
        };
        match round {
            Round::Prepare => {
                let notarization_digest = Self::notarization_digest(seq, &digest, &proof);
                instance.notarization_digest = Some(notarization_digest);
                ctx.broadcast(LeopardMessage::NotarizationProof {
                    seq,
                    block_digest: digest,
                    proof,
                });
            }
            Round::Commit => {
                instance.confirmed = true;
                self.highest_confirmed_seen = self.highest_confirmed_seen.max(seq.0);
                ctx.broadcast(LeopardMessage::ConfirmationProof {
                    seq,
                    proof_digest: digest,
                    proof,
                });
                // Event-driven pipeline: the confirmation freed an in-flight slot, so
                // the `InstancesFull` guard may have cleared.
                self.propose(ctx, false);
            }
        }
    }

    pub(super) fn handle_notarization(
        &mut self,
        seq: SeqNum,
        block_digest: Digest,
        proof: CombinedSignature,
        ctx: &mut Ctx<'_>,
    ) {
        if !self.verify_combined(&proof, &block_digest, ctx) {
            return;
        }
        let lw = self.checkpoints.low_watermark().0;
        if seq.0 <= lw {
            return;
        }
        let muted = self.votes_muted();
        let Some(instance) = self.replica_instances.entry(seq.0) else {
            return;
        };
        if instance.block_digest.is_some() && instance.block_digest != Some(block_digest) {
            // Notarization of an endorsed re-proposal — the same content this replica
            // already confirmed, re-stamped by a later view. Cast the commit vote for
            // the twin without touching the confirmed state (see `endorsed_repropose`).
            if instance.endorsed_repropose.as_deref() == Some(&block_digest) && !muted {
                instance.endorsed_repropose = None;
                let notarization_digest = Self::notarization_digest(seq, &block_digest, &proof);
                let twin = BftBlockId::new(self.view, seq);
                self.send_vote(Round::Commit, twin, notarization_digest, ctx);
            }
            return;
        }
        instance.block_digest.get_or_insert(block_digest);
        instance.notarization = Some(proof);
        let notarization_digest = Self::notarization_digest(seq, &block_digest, &proof);
        instance.notarization_digest = Some(notarization_digest);
        // A confirmation proof may have raced ahead of this notarization; now that
        // the binding digest is known, a held proof that matches can be applied.
        let held = instance
            .held_confirmation
            .take_if(|held| held.0 == notarization_digest);
        if let Some((held_digest, held_proof)) = held.map(|held| *held) {
            self.handle_confirmation(seq, held_digest, held_proof, ctx);
        }
        self.maybe_commit_vote(seq, ctx);
    }

    /// Casts the second-round (commit) vote for `seq` once every precondition holds:
    /// a notarization is present, the replica actually *holds the block*, and it has
    /// not commit-voted yet. Requiring the block before the commit
    /// vote keeps the prepared set sound: every member of a confirmation's commit
    /// quorum can carry the notarized block through a view change, so a possibly-
    /// confirmed block can never be replaced by different content in a later view. A
    /// replica that learns the notarization before the block (reordered delivery, or
    /// a partition that dropped the PrePrepare) votes when the block arrives. A replica
    /// that learns the confirmation first casts no vote at all.
    fn maybe_commit_vote(&mut self, seq: SeqNum, ctx: &mut Ctx<'_>) {
        let muted = self.votes_muted();
        let Some(instance) = self.replica_instances.get_mut(seq.0) else {
            return;
        };
        // Wherever a commit vote could fire, the evidence may have just become
        // stashable too (block and notarization both present). The stash happens
        // even when muted: evidence collection is passive and only strengthens
        // future view changes. (Evidence is read only above the stable checkpoint.)
        if let Some(entry) = instance.notarized_entry() {
            instance.prepared = Some(entry);
        }
        if muted || instance.commit_voted || instance.is_confirmed() {
            return;
        }
        let (Some(block), Some(notarization_digest)) =
            (&instance.block, instance.notarization_digest)
        else {
            return;
        };
        let id = block.id;
        instance.commit_voted = true;
        self.send_vote(Round::Commit, id, notarization_digest, ctx);
    }

    pub(super) fn handle_confirmation(
        &mut self,
        seq: SeqNum,
        proof_digest: Digest,
        proof: CombinedSignature,
        ctx: &mut Ctx<'_>,
    ) {
        if !self.verify_combined(&proof, &proof_digest, ctx) {
            return;
        }
        // At or below the watermark the serial is checkpointed: a held proof there
        // could never be applied, since `handle_notarization` drops those serials.
        if seq <= self.checkpoints.low_watermark() {
            return;
        }
        let Some(instance) = self.replica_instances.entry(seq.0) else {
            return;
        };
        if instance.is_confirmed() {
            return;
        }
        match instance.notarization_digest {
            Some(expected) if expected == proof_digest => {}
            Some(_) => return,
            // No notarization yet: the proof cannot be bound to a block (see
            // `held_confirmation`). Hold it; `handle_notarization` replays it.
            None => {
                instance.held_confirmation = Some(Box::new((proof_digest, proof)));
                return;
            }
        }
        instance.held_confirmation = None;
        instance.confirmation = Some(proof);
        self.log_confirmed(seq);
        self.try_execute(ctx);
    }

    /// Records that `seq` confirmed: raises `highest_confirmed_seen` and, once the
    /// instance holds its block, enters the block in the log — the log's one writer.
    pub(super) fn log_confirmed(&mut self, seq: SeqNum) {
        self.highest_confirmed_seen = self.highest_confirmed_seen.max(seq.0);
        if let Some(block) = self.replica_instances.get(seq.0).and_then(|i| i.block.clone()) {
            self.log.insert(seq.0, block);
        }
    }

    // ------------------------------------------------------------------
    // Execution, acknowledgement, checkpoints
    // ------------------------------------------------------------------

    pub(super) fn try_execute(&mut self, ctx: &mut Ctx<'_>) {
        loop {
            let next = SeqNum(self.last_executed.0 + 1);
            let Some(block) = self.log.get(next.0).cloned() else {
                break;
            };
            // Every linked datablock must be locally available before execution (a
            // missing one is queried from the wake-up `note_missing_links` arms).
            if !self.note_missing_links(&block, next, ctx).is_empty() {
                break;
            }

            let mut request_count = 0u64;
            for link in &block.links {
                let datablock = self.pool.get(link).expect("checked above").clone();
                request_count += datablock.len() as u64;
                // Latency of our own requests, then its breakdown by stage.
                self.producer.observe_executed(link, datablock.len() as u64, ctx);
            }
            self.confirmed_requests += request_count;
            ctx.observe(ObservationKind::BlockCommitted {
                sequence: next.0,
                requests: request_count,
            });
            self.last_executed = next;
            self.last_confirmation_at = Some(ctx.now());

            // Checkpoint (Algorithm 4).
            if CheckpointState::is_checkpoint_height(next, self.config.checkpoint_interval())
                && self.behaviour() != ByzantineBehavior::WithholdVotes
            {
                // An equivocating checkpointer claims a divergent execution state. The
                // share itself is properly signed (over the divergent digest), so it
                // passes the leader's share verification — it must be the per-state
                // collection buckets that keep it away from the honest quorum.
                let state_digest =
                    if self.behaviour() == ByzantineBehavior::EquivocatingCheckpointer {
                        hash_parts([b"equivocated-state".as_slice(), &next.0.to_le_bytes()])
                    } else {
                        state_digest(next)
                    };
                let digest = checkpoint_digest(next, &state_digest);
                let share = self.sign(&digest, ctx);
                ctx.send(
                    self.leader(),
                    LeopardMessage::Checkpoint {
                        seq: next,
                        state_digest,
                        share,
                    },
                );
            }
        }
    }
}
