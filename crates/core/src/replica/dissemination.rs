//! Algorithm 1: the saturated producer's datablocks and their dissemination, the
//! ready round, and the proposer's BFTblock proposals.

use super::{charge, Ctx, LeopardReplica};
use crate::byzantine::ByzantineBehavior;
use crate::instance::LeaderInstance;
use crate::messages::LeopardMessage;
use crate::pipeline::StallReason;
use leopard_crypto::Digest;
use leopard_simnet::{ObservationKind, SimTime};
use leopard_types::{
    BftBlock, ClientId, Datablock, FastMap, NodeId, RequestRun, SeqNum, WireSize,
};
use std::sync::Arc;

/// Latency bookkeeping for a datablock this replica produced (its requests were
/// created with it).
#[derive(Debug, Clone, Copy)]
struct DatablockTiming {
    created_at: SimTime,
    linked_at: Option<SimTime>,
}

/// The saturated producer's own state: the counter of its next datablock and the
/// latency bookkeeping of the datablocks it produced that have not executed yet.
pub(super) struct Producer {
    /// The counter `k` of the next datablock; the first is 1.
    counter: u64,
    own: FastMap<Digest, DatablockTiming>,
}

impl Producer {
    pub(super) fn new() -> Self {
        Self {
            counter: 1,
            own: FastMap::default(),
        }
    }

    /// Records `now` as the link time of each of this replica's datablocks among
    /// `links` that was not linked before (latency breakdown).
    pub(super) fn note_linked(&mut self, links: &[Digest], now: SimTime) {
        for link in links {
            if let Some(timing) = self.own.get_mut(link) {
                if timing.linked_at.is_none() {
                    timing.linked_at = Some(now);
                }
            }
        }
    }

    /// If `link` is this replica's datablock, observes the latency of its `requests`
    /// requests, executed now, then its breakdown by stage, and forgets it.
    pub(super) fn observe_executed(&mut self, link: &Digest, requests: u64, ctx: &mut Ctx<'_>) {
        if let Some(timing) = self.own.remove(link) {
            ctx.observe(ObservationKind::RequestLatencies {
                nanos: ctx.now().saturating_since(timing.created_at).as_nanos(),
                count: requests,
            });
            let linked = timing.linked_at.unwrap_or(ctx.now());
            let dissemination = linked.saturating_since(timing.created_at).as_nanos();
            let agreement = ctx.now().saturating_since(linked).as_nanos();
            ctx.observe(ObservationKind::Custom {
                label: "latency_dissemination",
                value: dissemination,
            });
            ctx.observe(ObservationKind::Custom {
                label: "latency_agreement",
                value: agreement,
            });
        }
    }

    /// True while a datablock this replica produced has not executed.
    pub(super) fn has_unexecuted(&self) -> bool {
        !self.own.is_empty()
    }
}

impl LeopardReplica {
    // ------------------------------------------------------------------
    // Saturated producer: datablock generation (Algorithm 1)
    // ------------------------------------------------------------------

    /// Packs one full datablock. A saturated producer always has `D` requests ready:
    /// datablock `k` holds this replica's requests `(k − 1)·D .. k·D`, so request ids,
    /// and with them digests and stripe routing, are a function of `k` alone.
    pub(super) fn generate_datablock(&mut self, ctx: &mut Ctx<'_>) {
        if self.is_proposer() || self.in_view_change() {
            return;
        }
        if let Some(stop) = self.config.workload_stop {
            // Drain window: past the stop offset no new datablocks enter the system,
            // so everything already in flight can land before the run ends.
            if ctx.now().saturating_since(SimTime::ZERO) >= stop {
                return;
            }
        }
        let count = self.config.params.datablock_size as u32;
        let requests = RequestRun {
            client: ClientId(self.id.0),
            first_seq: (self.producer.counter - 1) * u64::from(count),
            count,
            size: self.config.params.payload_size as u32,
        };
        let datablock = Arc::new(Datablock::from_run(self.id, self.producer.counter, requests));
        self.producer.counter += 1;
        let digest = datablock.digest();
        // Producing the datablock hashes its encoded bytes once.
        charge(ctx, self.keys.provider.model().hash(datablock.wire_size()));
        self.producer.own.insert(
            digest,
            DatablockTiming {
                created_at: ctx.now(),
                linked_at: None,
            },
        );
        self.pool.insert(datablock.clone());
        ctx.multicast(LeopardMessage::Datablock(datablock));
        self.send_ready(digest, ctx);
    }

    /// Acknowledges a pooled datablock to the proposer that links `digest`.
    pub(super) fn send_ready(&self, digest: Digest, ctx: &mut Ctx<'_>) {
        if self.behaviour() != ByzantineBehavior::WithholdVotes {
            ctx.send(self.proposer_for_digest(&digest), LeopardMessage::Ready { digest });
        }
    }

    // ------------------------------------------------------------------
    // Leader: proposing BFTblocks (Algorithm 2, pre-prepare)
    // ------------------------------------------------------------------

    /// Proposes BFTblocks until a pipeline guard blocks (recording that guard) or the
    /// batching policy defers.
    ///
    /// This is **event-driven**: instead of only running on a fixed timer tick, it is
    /// invoked from every event that changes one of its guards — a datablock crossing
    /// the ready threshold ([`Self::handle_ready`]), an instance confirming
    /// ([`Self::handle_vote`]), the watermark advancing
    /// ([`Self::handle_checkpoint_proof`]) and a new view starting
    /// ([`Self::handle_view_change`]).
    ///
    /// Batching policy: an event-driven call (`flush = false`) proposes eagerly only
    /// when a full `τ` batch of ready datablocks is available or the pipeline is idle
    /// (an empty pipeline must never wait — that is the availability-triggered
    /// proposing of FnF-BFT/Raptr). While instances are in flight, partial batches
    /// accumulate so the per-block vote rounds amortise over `τ` links as in the
    /// paper; the `TOKEN_PROPOSE` tick (`flush = true`) bounds how long a partial
    /// batch can wait.
    pub(super) fn propose(&mut self, ctx: &mut Ctx<'_>, flush: bool) {
        if !self.is_proposer() {
            return;
        }
        // Never extend the serial space from a view this replica did not anchor
        // (see `Pacemaker::anchored_view`): without the quorum evidence the pipeline
        // frontier may sit below serials an earlier view notarized under the shifted
        // stripe map, and replicas reset those instances on view entry — a fresh block
        // at such a serial forks the log. Staying mute here costs one view of this
        // stripe's throughput at most: the stall feeds the complaint path and the
        // next view change re-anchors every live proposer.
        if self.view != self.pacemaker.anchored_view() {
            return;
        }
        loop {
            let reason = self.pipeline_guard();
            if reason != StallReason::None {
                self.pipeline.record_stall(reason, ctx.now());
                return;
            }
            if !flush
                && self.pipeline.in_flight() > 0
                && self.ready.ready_count() < self.config.params.bftblock_size
            {
                // Work is in flight and the batch is partial: let it fill. Not a
                // stall — the next confirmation or the flush tick picks it up.
                self.pipeline.record_stall(StallReason::None, ctx.now());
                return;
            }
            let links = self.ready.take_ready(self.config.params.bftblock_size);
            let seq = self.pipeline.take_seq();

            if self.behaviour() == ByzantineBehavior::EquivocatingLeader {
                self.propose_equivocating(seq, links, ctx);
                continue;
            }

            self.broadcast_proposal(Arc::new(BftBlock::new(self.view, seq, links)), true, ctx);
        }
    }

    /// Signs and broadcasts an honest PrePrepare for `block`, opening its pipeline
    /// instance. `hash_charge` charges the proposer for hashing the block it built.
    pub(super) fn broadcast_proposal(&mut self, block: Arc<BftBlock>, hash_charge: bool, ctx: &mut Ctx<'_>) {
        let digest = block.digest();
        if hash_charge {
            charge(ctx, self.keys.provider.model().hash(block.wire_size()));
        }
        let share = self.sign(&digest, ctx);
        self.pipeline
            .insert(block.id.seq, LeaderInstance::new(digest));
        ctx.broadcast(LeopardMessage::PrePrepare { block, share });
    }

    /// Fills this proposer's residue class with dummy blocks when the stripe is
    /// idle but other stripes have confirmed past it (Mir-BFT's null blocks).
    ///
    /// Execution is strictly sequential over serial numbers, so with `p > 1` a
    /// stripe with no ready datablocks would otherwise hold every later serial of
    /// the other stripes hostage. Dummies are bounded by the highest confirmation
    /// seen anywhere, so a stripe never runs ahead of real progress, and go out only
    /// while the empty ready queue is the one guard blocking `propose`; with `p = 1`
    /// there is exactly one stripe and this is dead code (gated below).
    pub(super) fn fill_idle_stripe(&mut self, ctx: &mut Ctx<'_>) {
        if self.proposer_count() <= 1
            || !self.is_proposer()
            // Dummies extend the serial space just like real proposals — an
            // un-anchored view must not fill either (see `propose`).
            || self.view != self.pacemaker.anchored_view()
            || self.pipeline.in_flight() > 0
        {
            return;
        }
        while self.pipeline_guard() == StallReason::AwaitingReady
            && self.pipeline.next_seq().0 <= self.highest_confirmed_seen
        {
            let seq = self.pipeline.take_seq();
            self.broadcast_proposal(Arc::new(BftBlock::dummy(self.view, seq)), true, ctx);
        }
    }

    /// Byzantine leader: send conflicting blocks with the same serial number to two
    /// halves of the replicas. Safety must hold regardless.
    fn propose_equivocating(&mut self, seq: SeqNum, links: Vec<Digest>, ctx: &mut Ctx<'_>) {
        let block_a = Arc::new(BftBlock::new(self.view, seq, links.clone()));
        let mut reversed = links;
        reversed.reverse();
        // Ensure the digests differ even for a single link by dropping it in block B.
        let block_b = if reversed.len() == 1 {
            Arc::new(BftBlock::new(self.view, seq, Vec::new()))
        } else {
            Arc::new(BftBlock::new(self.view, seq, reversed))
        };
        let digest_a = block_a.digest();
        let share_a = self.sign(&digest_a, ctx);
        let share_b = self.sign(&block_b.digest(), ctx);
        self.pipeline.insert(seq, LeaderInstance::new(digest_a));
        let half = self.n() / 2;
        for index in 0..self.n() {
            let peer = NodeId(index as u32);
            if peer == self.id {
                continue;
            }
            let message = if index < half {
                LeopardMessage::PrePrepare {
                    block: block_a.clone(),
                    share: share_a,
                }
            } else {
                LeopardMessage::PrePrepare {
                    block: block_b.clone(),
                    share: share_b,
                }
            };
            ctx.send(peer, message);
        }
        ctx.send(
            self.id,
            LeopardMessage::PrePrepare {
                block: block_a,
                share: share_a,
            },
        );
    }


    pub(super) fn handle_datablock(&mut self, from: NodeId, datablock: Arc<Datablock>, ctx: &mut Ctx<'_>) {
        if datablock.id.producer != from {
            // A replica may only disseminate its own datablocks.
            return;
        }
        // Receiving a datablock re-hashes it to validate the digest it will be linked
        // and acknowledged under (the real hash is memoized on the shared envelope, but
        // every replica pays the modeled cost — in a deployment each would hash).
        charge(ctx, self.keys.provider.model().hash(datablock.wire_size()));
        let Some(digest) = self.pool.insert(datablock) else {
            return; // duplicate counter
        };
        self.send_ready(digest, ctx);
        // A pending retrieval for this datablock is no longer needed.
        let waiting = self.retrieval.cancel(&digest);
        for seq in waiting {
            self.resolve_missing_link(seq, digest, ctx);
        }
    }

    pub(super) fn handle_ready(&mut self, from: NodeId, digest: Digest, ctx: &mut Ctx<'_>) {
        // Each digest is routed to exactly one proposer (`proposer_for_digest`), so no
        // two stripes can ever link the same datablock: a Ready that lands on any other
        // replica is dropped, which also keeps `p = 1` identical to the leader-only path.
        if self.proposer_for_digest(&digest) != self.id {
            return;
        }
        // Only datablocks the proposer itself stores may become ready (it must be able
        // to serve retrieval queries for everything it links).
        if !self.pool.contains(&digest) {
            return;
        }
        if self.ready.record_ack(digest, from, self.quorum()) {
            // Event-driven pipeline: a datablock just crossed the `2f+1` threshold, so
            // the `AwaitingReady` guard may have cleared.
            self.propose(ctx, false);
        }
    }
}
