//! Algorithm 4's checkpoints, state transfer, and the replica's side of Algorithm 3's
//! retrieval.

use super::{charge, Ctx, LeopardReplica, TOKEN_RETRIEVAL};
use crate::byzantine::ByzantineBehavior;
use crate::checkpoint::{checkpoint_digest, state_digest};
use crate::messages::{ConfirmedEntry, LeopardMessage, RetrievalChunk, StateTransfer};
use crate::retrieval::ChunkOutcome;
use leopard_crypto::threshold::CombinedSignature;
use leopard_crypto::{hash_parts, Digest};
use leopard_simnet::{ObservationKind, SimDuration, SimTime};
use leopard_types::{BftBlock, NodeId, SeqNum, View, WireSize};
use std::sync::Arc;

/// State transfer's rounds (catch-up after a crash-restart or partition heal): when
/// the current round began, the peers it asked and the views they claimed, and how
/// many rounds ran.
#[derive(Default)]
pub(super) struct StateSync {
    started_at: Option<SimTime>,
    // The peers the current round asked, each with the view it claimed once it
    // answered.
    peers: Vec<(NodeId, Option<View>)>,
    round: u64,
}

impl StateSync {
    /// Opens a round at `now` for replica `id` of `n` and returns the `f + 1` peers it
    /// asks (at least one of them honest). The set rotates one position per round, so
    /// a recovery-plane adversary that happens to sit among the first `f + 1` ids (a
    /// silent or lying state responder) cannot starve every retry of its honest
    /// majority forever.
    fn begin(
        &mut self,
        now: SimTime,
        id: NodeId,
        n: usize,
        f: usize,
    ) -> impl Iterator<Item = NodeId> + '_ {
        self.started_at = Some(now);
        self.peers.clear();
        let offset = (self.round as usize) % n;
        self.round += 1;
        let mut remaining = f + 1;
        for index in 0..n {
            let peer = NodeId(((index + offset) % n) as u32);
            if peer == id {
                continue;
            }
            self.peers.push((peer, None));
            remaining -= 1;
            if remaining == 0 {
                break;
            }
        }
        self.peers.iter().map(|&(peer, _)| peer)
    }

    /// True while the round begun last is younger than `cooldown`.
    fn cooling_down(&self, now: SimTime, cooldown: SimDuration) -> bool {
        self.started_at
            .is_some_and(|at| now.saturating_since(at) < cooldown)
    }

    /// Records `from`'s claim that it is in `view`. Returns `None` if the current
    /// round did not ask `from`: the response is an unsolicited push from an arbitrary
    /// (possibly Byzantine) replica. Otherwise returns the view to rejoin, if any.
    ///
    /// A replica rejoins a view it missed while down, but never on the word of a
    /// single responder. View claims are unsigned metadata, so a lying responder could
    /// inflate one and wedge the replica in a view nobody else is in (it would neither
    /// vote nor complain usefully until the next genuine view change). Instead, once
    /// all `f + 1` responders of the round answered, the replica adopts the highest
    /// view they all corroborate, the lowest claim: at least one of them is honest, so
    /// it is one an honest replica has genuinely entered. A responder's first claim in
    /// a round counts.
    fn record_claim(&mut self, from: NodeId, view: View) -> Option<Option<View>> {
        let asked = self.peers.iter().position(|p| p.0 == from)?;
        self.peers[asked].1.get_or_insert(view);
        // `None < Some`, so the minimum is `Some(None)` while one has not answered.
        let claims = self.peers.iter().map(|&(_, claim)| claim);
        claims.min()
    }
}

impl LeopardReplica {
    pub(super) fn handle_checkpoint_share(
        &mut self,
        from: NodeId,
        seq: SeqNum,
        state_digest: Digest,
        share: leopard_crypto::threshold::SignatureShare,
        ctx: &mut Ctx<'_>,
    ) {
        if !self.is_leader() {
            return;
        }
        let digest = checkpoint_digest(seq, &state_digest);
        // Checkpoints are rare (one per k/2 blocks), so shares are verified on arrival
        // rather than batched; the combine still skips re-verification.
        if !self.verify_share(from, &share, &digest, ctx) {
            return;
        }
        if let Some(shares) = self
            .checkpoints
            .record_share(seq, state_digest, share, self.quorum())
        {
            let (combined, cost) = self.keys.provider.combine_preverified(&shares, &digest);
            charge(ctx, cost);
            if let Ok(proof) = combined {
                ctx.broadcast(LeopardMessage::CheckpointProof {
                    seq,
                    state_digest,
                    proof,
                });
            }
        }
    }

    pub(super) fn handle_checkpoint_proof(
        &mut self,
        seq: SeqNum,
        state: Digest,
        proof: CombinedSignature,
        ctx: &mut Ctx<'_>,
    ) {
        if !self.adopt_checkpoint(seq, state, proof, ctx) {
            return;
        }
        self.try_execute(ctx);
        // Event-driven pipeline: the watermark advance may have cleared the
        // `WatermarkFull` guard.
        self.propose(ctx, false);
    }

    /// Adopts checkpoint `seq` (execution-state digest `state`) as the stable one if
    /// `proof` verifies and `seq` lies above the watermark, whether the proof came in
    /// the leader's multicast or a state-transfer response. Returns true if it did.
    fn adopt_checkpoint(
        &mut self,
        seq: SeqNum,
        state: Digest,
        proof: CombinedSignature,
        ctx: &mut Ctx<'_>,
    ) -> bool {
        let digest = checkpoint_digest(seq, &state);
        if !self.verify_combined(&proof, &digest, ctx)
            || !self.checkpoints.advance_proven(seq, state, proof)
        {
            return false;
        }
        // A stable checkpoint is quorum evidence that everything at or below it
        // confirmed, even if this replica never saw the individual proofs.
        self.highest_confirmed_seen = self.highest_confirmed_seen.max(seq.0);
        // Garbage collection: drop the executed datablocks and every agreement
        // instance, leader and replica side, at or below the new watermark (with it
        // the prepared evidence and held confirmations).
        let executed_links = self.log.take_executed_links(seq.0, self.last_executed.0);
        self.pool.prune(executed_links.iter().copied());
        self.retrieval.prune(executed_links.iter().copied());
        self.ready.prune(executed_links);
        self.pipeline.prune_through(seq);
        self.replica_instances.prune_through(seq.0);
        #[cfg(debug_assertions)]
        self.signed_prepares.retain(|id, _| id.seq > seq);
        // The system checkpointed past this replica's execution point: it missed
        // confirmations (partition, crash) and can never replay them — the blocks
        // below the watermark are being garbage-collected cluster-wide right now
        // (including any instance this GC just dropped while its datablocks were
        // still in retrieval). The quorum-signed proof summarises everything below
        // the watermark, so jump execution to it, and abandon the retrievals whose
        // only waiters sit below it (their datablocks are pruned cluster-wide).
        if seq > self.last_executed {
            self.last_executed = seq;
            self.last_confirmation_at = Some(ctx.now());
            self.retrieval.abandon_waiting_through(seq);
        }
        true
    }

    // ------------------------------------------------------------------
    // State transfer (catch-up after a crash-restart or partition heal)
    // ------------------------------------------------------------------

    /// Asks `f + 1` peers (see [`StateSync::begin`]) for everything confirmed past
    /// this replica's execution point.
    pub(super) fn begin_state_sync(&mut self, ctx: &mut Ctx<'_>) {
        let request = LeopardMessage::StateRequest {
            last_executed: self.last_executed,
        };
        let (n, f) = (self.n(), self.f());
        for peer in self.state_sync.begin(ctx.now(), self.id, n, f) {
            ctx.send(peer, request.clone());
        }
    }

    /// Starts a state sync unless one is already in flight (cooldown of one progress
    /// timeout) or a view change will re-synchronise the replica anyway.
    pub(super) fn maybe_state_sync(&mut self, ctx: &mut Ctx<'_>) {
        if self.in_view_change() {
            return;
        }
        if self.state_sync.cooling_down(ctx.now(), self.config.progress_timeout) {
            return;
        }
        self.begin_state_sync(ctx);
    }

    pub(super) fn handle_state_request(&mut self, from: NodeId, last_executed: SeqNum, ctx: &mut Ctx<'_>) {
        if matches!(
            self.behaviour(),
            ByzantineBehavior::IgnoreQueries | ByzantineBehavior::SilentStateResponder
        ) {
            return;
        }
        let (checkpoint_seq, mut checkpoint_state, checkpoint_proof) =
            match self.checkpoints.stable_proof() {
                Some((state, proof)) => (self.checkpoints.low_watermark(), *state, Some(*proof)),
                None => (SeqNum(0), state_digest(SeqNum(0)), None),
            };
        let mut entries = Vec::new();
        for (seq, instance) in self.replica_instances.iter() {
            if seq <= last_executed.0 || !instance.is_confirmed() {
                continue;
            }
            // Both proofs are needed for the requester to accept the block without
            // having voted; an entry missing either is skipped (another responder or
            // the live protocol will cover it).
            if let (Some(block), Some(notarization), Some(confirmation)) =
                (&instance.block, instance.notarization, instance.confirmation)
            {
                entries.push(ConfirmedEntry {
                    block: block.clone(),
                    notarization,
                    confirmation,
                });
            }
        }
        let mut view = self.view;
        if self.behaviour() == ByzantineBehavior::LyingStateResponder {
            // Every lie is detectable by an honest verifier: the checkpoint proof is a
            // genuine signature but over a different state digest than the one claimed;
            // each entry's notarization and confirmation are swapped (valid signatures
            // over the wrong statements); and the view claim is wildly inflated, which
            // the requester must refuse to adopt without f+1 corroborating responders.
            checkpoint_state =
                hash_parts([b"forged-state".as_slice(), &checkpoint_seq.0.to_le_bytes()]);
            for entry in &mut entries {
                std::mem::swap(&mut entry.notarization, &mut entry.confirmation);
            }
            view = View(self.view.0 + 64);
        }
        ctx.send(
            from,
            LeopardMessage::StateResponse(Box::new(StateTransfer {
                view,
                checkpoint_seq,
                checkpoint_state,
                checkpoint_proof,
                entries,
            })),
        );
    }

    pub(super) fn handle_state_response(&mut self, from: NodeId, response: StateTransfer, ctx: &mut Ctx<'_>) {
        let StateTransfer {
            view,
            checkpoint_seq,
            checkpoint_state,
            checkpoint_proof,
            entries,
        } = response;
        // Only solicited responses are processed: the sender must be one of the peers
        // the current sync round actually asked.
        let Some(corroborated) = self.state_sync.record_claim(from, view) else {
            return;
        };
        // Adopt the responder's stable checkpoint if its proof verifies and it is newer
        // than ours (a `CheckpointProof` multicast may have raced ahead of it).
        if let Some(proof) = checkpoint_proof {
            self.adopt_checkpoint(checkpoint_seq, checkpoint_state, proof, ctx);
        }
        for entry in entries {
            self.install_confirmed_entry(entry, ctx);
        }
        // Rejoin a view this replica missed while down, once the whole round
        // corroborates it (see `StateSync::record_claim`).
        if let Some(lowest) = corroborated {
            self.enter_view(lowest, ctx);
        }
        self.try_execute(ctx);
    }

    /// Installs one confirmed block received via state transfer, after verifying its
    /// notarization and confirmation proofs.
    fn install_confirmed_entry(&mut self, entry: ConfirmedEntry, ctx: &mut Ctx<'_>) {
        let seq = entry.block.id.seq;
        if seq.0 <= self.last_executed.0 || seq <= self.checkpoints.low_watermark() {
            return;
        }
        let block_digest = entry.block.digest();
        charge(ctx, self.keys.provider.model().hash(entry.block.wire_size()));
        if !self.verify_combined(&entry.notarization, &block_digest, ctx) {
            return;
        }
        let notarization_digest = Self::notarization_digest(seq, &block_digest, &entry.notarization);
        if !self.verify_combined(&entry.confirmation, &notarization_digest, ctx) {
            return;
        }
        let Some(instance) = self.replica_instances.entry(seq.0) else {
            return;
        };
        // An instance that confirmed block-less (the proof arrived but the PrePrepare
        // was lost to a crash or partition) still needs the entry — the block is
        // exactly what state transfer exists to deliver. Only a fully-populated
        // confirmed instance has nothing to gain.
        if instance.is_confirmed() && instance.block.is_some() {
            return;
        }
        instance.block = Some(entry.block.clone());
        instance.block_digest = Some(block_digest);
        instance.notarization = Some(entry.notarization);
        instance.notarization_digest = Some(notarization_digest);
        instance.confirmation = Some(entry.confirmation);
        self.log_confirmed(seq);
        // Any linked datablock this replica does not hold is fetched through the
        // regular retrieval plane (Algorithm 3) before execution.
        self.note_missing_links(&entry.block, seq, ctx);
    }

    /// Notes every link of `block` this replica does not hold as missing for `seq`,
    /// arms the retrieval wake-up if the retrieval plane asks for it, and returns them.
    pub(super) fn note_missing_links(
        &mut self,
        block: &BftBlock,
        seq: SeqNum,
        ctx: &mut Ctx<'_>,
    ) -> Vec<Digest> {
        let missing: Vec<Digest> =
            block.links.iter().filter(|link| !self.pool.contains(link)).copied().collect();
        for &link in &missing {
            if let Some(delay) = self.retrieval.note_missing(link, seq, ctx.now()) {
                ctx.set_timer(delay, TOKEN_RETRIEVAL);
            }
        }
        missing
    }

    // ------------------------------------------------------------------
    // Retrieval (Algorithm 3)
    // ------------------------------------------------------------------

    pub(super) fn handle_query(&mut self, from: NodeId, digests: &[Digest], ctx: &mut Ctx<'_>) {
        if self.behaviour() == ByzantineBehavior::IgnoreQueries {
            return;
        }
        for &digest in digests {
            let Some(datablock) = self.pool.get(&digest) else {
                continue;
            };
            let (chunk, cost) = self
                .retrieval
                .encode_response(datablock, &self.keys.provider);
            charge(ctx, cost);
            ctx.send(from, LeopardMessage::QueryResponse { digest, chunk });
        }
    }

    pub(super) fn handle_query_response(
        &mut self,
        digest: Digest,
        chunk: Arc<RetrievalChunk>,
        ctx: &mut Ctx<'_>,
    ) {
        let (outcome, cost) =
            self.retrieval
                .add_chunk(digest, chunk, ctx.now(), &self.keys.provider);
        charge(ctx, cost);
        if let ChunkOutcome::Recovered {
            datablock,
            waiting,
            elapsed_nanos,
            received_bytes,
        } = outcome
        {
            ctx.observe(ObservationKind::RetrievalCompleted {
                nanos: elapsed_nanos,
                received_bytes,
            });
            if self.pool.insert(datablock).is_some() {
                self.send_ready(digest, ctx);
            }
            for seq in waiting {
                self.resolve_missing_link(seq, digest, ctx);
            }
        }
    }

    /// The retrieval wake-up fired: queries what the retrieval plane says is due, then
    /// arms the wake-up for the next deadline.
    pub(super) fn fire_retrieval_timer(&mut self, ctx: &mut Ctx<'_>) {
        let digests = self.retrieval.digests_to_query(ctx.now());
        if !digests.is_empty() {
            ctx.multicast(LeopardMessage::Query { digests: digests.into() });
        }
        if let Some(delay) = self.retrieval.rearm(ctx.now()) {
            ctx.set_timer(delay, TOKEN_RETRIEVAL);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replica 3 of n = 7 (f = 2) opens a state-sync round at `now`: the peers asked.
    fn round(sync: &mut StateSync, now: SimTime) -> Vec<NodeId> {
        sync.begin(now, NodeId(3), 7, 2).collect()
    }

    /// A round adopts the lowest view its `f + 1` responders claim, and only once all
    /// have answered; an unsolicited responder counts for nothing.
    #[test]
    fn state_sync_adopts_the_lowest_claim_once_the_round_answered() {
        let mut sync = StateSync::default();
        assert_eq!(round(&mut sync, SimTime::ZERO), [NodeId(0), NodeId(1), NodeId(2)]);
        // A lying responder claims view + 64; nothing is adopted on its word.
        assert_eq!(sync.record_claim(NodeId(1), View(66)), Some(None));
        // Replica 4 was not asked: its claim, lower than any other, is ignored.
        assert_eq!(sync.record_claim(NodeId(4), View(1)), None);
        assert_eq!(sync.record_claim(NodeId(0), View(2)), Some(None));
        // A responder's second claim changes nothing, and the round is still open.
        assert_eq!(sync.record_claim(NodeId(0), View(1)), Some(None));
        // The last answer completes the round: the lowest claim wins.
        assert_eq!(sync.record_claim(NodeId(2), View(3)), Some(Some(View(2))));
    }

    /// Each round starts one position further round the committee, skipping the
    /// replica itself, forgets the last round's claims, and restarts the cooldown.
    #[test]
    fn state_sync_rotates_its_peers_each_round() {
        let mut sync = StateSync::default();
        let cooldown = SimDuration::from_millis(100);
        assert!(!sync.cooling_down(SimTime::ZERO, cooldown));
        round(&mut sync, SimTime::ZERO);
        assert_eq!(sync.record_claim(NodeId(0), View(1)), Some(None));
        let later = SimTime::ZERO + SimDuration::from_millis(99);
        assert!(sync.cooling_down(later, cooldown));
        let start = SimTime::ZERO + cooldown;
        assert!(!sync.cooling_down(start, cooldown));
        assert_eq!(round(&mut sync, start), [NodeId(1), NodeId(2), NodeId(4)]);
        assert!(sync.cooling_down(later + cooldown, cooldown));
        // Replica 0 is not asked this round: its answer to the last one is ignored.
        assert_eq!(sync.record_claim(NodeId(0), View(1)), None);
        assert_eq!(round(&mut sync, start), [NodeId(2), NodeId(4), NodeId(5)]);
        let rounds: Vec<Vec<NodeId>> = (0..4).map(|_| round(&mut sync, start)).collect();
        assert_eq!(rounds[3], [NodeId(6), NodeId(0), NodeId(1)]);
    }
}
