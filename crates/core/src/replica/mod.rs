//! The Leopard replica state machine: one [`LeopardReplica`] per node, implementing
//! [`leopard_simnet::Protocol`].
//!
//! The replica combines every component of the protocol, one plane per file:
//!
//! * `dissemination.rs`: the saturated producer's datablock generation and
//!   dissemination, the ready round and the proposers' BFTblock proposals
//!   (Algorithm 1);
//! * `agreement.rs`: the two-round agreement with threshold-signature aggregation,
//!   the confirmed log and in-order execution (Algorithm 2);
//! * `recovery.rs`: checkpoints and garbage collection (Algorithm 4), state
//!   transfer, and the replica's side of datablock retrieval (Algorithm 3);
//! * `views.rs`: the progress watchdog and the PBFT-style view change (Appendix A);
//! * this file: the replica's state, its accessors, signing, and the routing of
//!   messages and timers to the planes.
//!
//! Optional Byzantine behaviours ([`crate::byzantine`]) are switches inside the planes.

mod agreement;
mod dissemination;
mod recovery;
mod views;

use crate::byzantine::ByzantineBehavior;
use crate::checkpoint::CheckpointState;
use crate::config::{LeopardConfig, WorkloadMode};
use crate::instance::{ReplicaInstance, SerialWindow};
use crate::messages::LeopardMessage;
use crate::pipeline::{Pipeline, StallReason};
use crate::pool::{DatablockPool, ReadyTracker};
use crate::retrieval::RetrievalManager;
use agreement::{Round, SerialLog};
use dissemination::Producer;
use leopard_crypto::provider::ComputeCost;
use leopard_crypto::threshold::{CombinedSignature, SignatureShare};
use leopard_crypto::{Digest, SharedKeys};
use leopard_simnet::{Context, ProgressProbe, Protocol, SimDuration, SimTime};
#[cfg(debug_assertions)]
use leopard_types::{BftBlockId, FastMap};
use leopard_types::{digest_stripe, BftBlock, NodeId, SeqNum, View};
use rand::Rng;
use recovery::StateSync;
use std::sync::Arc;
use views::Pacemaker;

/// Periodic timer tokens.
const TOKEN_BATCH: u64 = 2;
const TOKEN_PROPOSE: u64 = 3;
const TOKEN_PROGRESS: u64 = 4;
const TOKEN_RETRIEVAL: u64 = 5;
/// The one-shot wake-up that sends a missing datablock's first query (armed with the
/// delay `RetrievalManager::note_missing` returns).
const TOKEN_FIRST_QUERY: u64 = 6;

/// How often a proposer flushes a partial batch (see [`LeopardReplica::propose`]).
const PROPOSE_INTERVAL: SimDuration = SimDuration(20_000_000); // 20 ms

/// A Leopard replica.
pub struct LeopardReplica {
    id: NodeId,
    config: LeopardConfig,
    keys: Arc<SharedKeys>,

    // --- normal-case state ---
    view: View,
    pool: DatablockPool,
    ready: ReadyTracker,
    pipeline: Pipeline,
    replica_instances: SerialWindow<ReplicaInstance>,
    checkpoints: CheckpointState,
    retrieval: RetrievalManager,
    producer: Producer,

    // --- log / execution ---
    log: SerialLog,
    last_executed: SeqNum,
    confirmed_requests: u64,
    last_confirmation_at: Option<SimTime>,
    // Highest serial this replica has seen confirmed anywhere (own stripe or not).
    // Under multiple proposers a starved stripe must not hold the whole serial
    // space hostage: an idle proposer fills its residue class with dummy blocks up
    // to this mark so execution (which is strictly sequential) can drain past it.
    highest_confirmed_seen: u64,

    // --- view change and the progress watchdog ---
    pacemaker: Pacemaker,
    // Every PrepareVote signed, by the voted block's view and serial (debug builds
    // check the clause the safety argument rests on: never two blocks for one).
    #[cfg(debug_assertions)]
    signed_prepares: FastMap<BftBlockId, Digest>,

    // --- state transfer (catch-up after a crash-restart or partition heal) ---
    state_sync: StateSync,
}

impl std::fmt::Debug for LeopardReplica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeopardReplica")
            .field("id", &self.id)
            .field("view", &self.view)
            .field("last_executed", &self.last_executed)
            .field("confirmed_requests", &self.confirmed_requests)
            .finish()
    }
}

type Ctx<'a> = dyn Context<Message = LeopardMessage> + 'a;

/// Charges a modeled crypto cost to the replica's compute queue (free function so it
/// can be called while instance state is mutably borrowed).
fn charge(ctx: &mut Ctx<'_>, cost: ComputeCost) {
    if !cost.is_zero() {
        ctx.charge_compute(SimDuration::from_nanos(cost.as_nanos()));
    }
}

impl LeopardReplica {
    /// Creates a replica with the given configuration and shared key material.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(id: NodeId, config: LeopardConfig, keys: Arc<SharedKeys>) -> Self {
        config
            .validate()
            .unwrap_or_else(|message| panic!("invalid Leopard config: {message}"));
        let k = config.params.max_parallel_instances;
        let window = k * config.params.proposers;
        let mut replica = Self {
            id,
            pool: DatablockPool::new(config.params.n),
            ready: ReadyTracker::new(),
            pipeline: Pipeline::new(k, window),
            replica_instances: SerialWindow::new(window),
            checkpoints: CheckpointState::new(),
            retrieval: RetrievalManager::new(
                id,
                config.params.f(),
                config.params.n,
                config.retrieval_timeout,
                config.first_query_wait,
            ),
            producer: Producer::new(),
            log: SerialLog::default(),
            last_executed: SeqNum(0),
            confirmed_requests: 0,
            last_confirmation_at: None,
            highest_confirmed_seen: 0,
            pacemaker: Pacemaker::new(),
            #[cfg(debug_assertions)]
            signed_prepares: FastMap::default(),
            state_sync: StateSync::default(),
            view: View::initial(),
            config,
            keys,
        };
        replica.anchor_pipeline_stripe();
        replica
    }

    /// The replica's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The replica's current view.
    pub fn view(&self) -> View {
        self.view
    }

    /// The current leader from this replica's point of view.
    pub fn leader(&self) -> NodeId {
        self.view.leader(self.config.params.n)
    }

    /// True if this replica is the current leader.
    pub fn is_leader(&self) -> bool {
        self.leader() == self.id
    }

    /// True while a view change is in progress: from this replica's complaint until
    /// it enters the next view.
    fn in_view_change(&self) -> bool {
        self.pacemaker.in_view_change()
    }

    // ------------------------------------------------------------------
    // Multi-proposer schedule
    //
    // Serial numbers are striped round-robin over `p = params.proposers`
    // replicas; the schedule lives in `leopard_types::ids` (`View::proposer`,
    // `View::stripe_of`, `SeqNum::stripe`, `digest_stripe`). Stripe 0 is the
    // classic leader, so `p = 1` is the single-leader protocol, bit for bit.
    // Quorum intersection holds per serial because at most one replica may
    // propose at any serial of any view — the stripes partition the serial space
    // and the schedule is a deterministic function of `(view, n, p)` every honest
    // replica evaluates identically.
    // ------------------------------------------------------------------

    /// Number of concurrent proposers `p`.
    fn proposer_count(&self) -> u64 {
        self.config.params.proposers as u64
    }

    /// The proposer that owns serial `seq` in the current view.
    fn proposer_of_seq(&self, seq: SeqNum) -> NodeId {
        self.view.proposer(seq.stripe(self.proposer_count()), self.n())
    }

    /// This replica's stripe in `view`, if it is a proposer there.
    fn my_stripe(&self, view: View) -> Option<u64> {
        view.stripe_of(self.id, self.n(), self.proposer_count())
    }

    /// True if this replica proposes some stripe of the current view (equals
    /// [`Self::is_leader`] when `proposers = 1`).
    pub fn is_proposer(&self) -> bool {
        self.my_stripe(self.view).is_some()
    }

    /// The proposer that Ready acks for `digest` are routed to. Datablocks are
    /// keyed onto stripes by digest bytes so the linking (and the batch-verify /
    /// combine load that follows) spreads evenly; each digest has exactly one
    /// linking proposer per view, which is what keeps a datablock from being
    /// linked twice by two stripes. `p = 1` routes to the leader, exactly as
    /// before.
    fn proposer_for_digest(&self, digest: &Digest) -> NodeId {
        self.view.proposer(digest_stripe(digest, self.proposer_count()), self.n())
    }

    /// Re-anchors the pipeline onto this replica's stripe of the current view
    /// (stripe 0 of 1 for `proposers = 1`: the single-leader schedule).
    fn anchor_pipeline_stripe(&mut self) {
        if let Some(stripe) = self.my_stripe(self.view) {
            self.pipeline.set_stripe(stripe, self.proposer_count());
        }
    }

    /// Serial number of the latest executed BFTblock.
    pub fn last_executed(&self) -> SeqNum {
        self.last_executed
    }

    /// Total requests confirmed (executed) by this replica.
    pub fn confirmed_requests(&self) -> u64 {
        self.confirmed_requests
    }

    /// Current low watermark (latest stable checkpoint).
    pub fn low_watermark(&self) -> SeqNum {
        self.checkpoints.low_watermark()
    }

    /// This replica's configuration (Byzantine behaviour, timers, protocol parameters).
    pub fn config(&self) -> &LeopardConfig {
        &self.config
    }

    /// The confirmed log, one slot per serial: the block confirmed at serial `i + 1`
    /// is at index `i`, and a serial not (yet) logged here is `None`.
    pub fn log_slots(&self) -> &[Option<Arc<BftBlock>>] {
        &self.log.slots
    }

    /// The local datablock pool (read in place by the harness invariant checker for
    /// retrieval completeness).
    pub fn pool(&self) -> &DatablockPool {
        &self.pool
    }

    /// When this replica last executed a BFTblock, if ever.
    pub fn last_confirmation_at(&self) -> Option<SimTime> {
        self.last_confirmation_at
    }

    /// The guard currently blocking this replica's pipeline, as a first-class value.
    ///
    /// For a proposer this is the first failing `propose()` guard; a non-proposer
    /// only ever reports [`StallReason::ViewChange`] or [`StallReason::None`].
    pub fn current_stall(&self) -> StallReason {
        if self.is_proposer() {
            self.pipeline_guard()
        } else if self.in_view_change() {
            StallReason::ViewChange
        } else {
            StallReason::None
        }
    }

    /// The first `propose()` guard that blocks this replica's pipeline right now.
    fn pipeline_guard(&self) -> StallReason {
        self.pipeline.stall_reason(
            self.behaviour() == ByzantineBehavior::SilentLeader,
            self.in_view_change(),
            self.ready.ready_count(),
            self.checkpoints.high_watermark(self.instance_window()),
        )
    }

    /// The checkpoint-window span: `k` serials for a single leader, `k·p` under the
    /// multi-proposer plane (each of the `p` stripes may hold `k` instances in
    /// flight, and the stripes interleave in the serial space).
    fn instance_window(&self) -> usize {
        self.config.params.max_parallel_instances * self.config.params.proposers
    }

    fn quorum(&self) -> usize {
        self.config.params.quorum()
    }

    fn f(&self) -> usize {
        self.config.params.f()
    }

    fn n(&self) -> usize {
        self.config.params.n
    }

    fn behaviour(&self) -> ByzantineBehavior {
        self.config.byzantine
    }

    /// Signs `digest` with this replica's key share, charging the modeled cost.
    fn sign(&self, digest: &Digest, ctx: &mut Ctx<'_>) -> SignatureShare {
        let (share, cost) = self
            .keys
            .provider
            .sign_share(self.keys.keypair(self.id.as_index()), digest);
        charge(ctx, cost);
        share
    }

    /// Verifies a single signature share sent by `from`: false at no cost if `from`
    /// did not sign it, else the verdict of the check, charging its modeled cost.
    fn verify_share(
        &self,
        from: NodeId,
        share: &SignatureShare,
        digest: &Digest,
        ctx: &mut Ctx<'_>,
    ) -> bool {
        if share.signer != from.signer_index() {
            return false;
        }
        let (ok, cost) = self.keys.provider.verify_share(share, digest);
        charge(ctx, cost);
        ok
    }

    /// Verifies a combined signature, charging the modeled cost.
    fn verify_combined(
        &self,
        proof: &CombinedSignature,
        digest: &Digest,
        ctx: &mut Ctx<'_>,
    ) -> bool {
        let (ok, cost) = self.keys.provider.verify_combined(proof, digest);
        charge(ctx, cost);
        ok
    }
}

impl LeopardReplica {
    /// Arms all periodic timers (at start, and again after a crash-restart — pre-crash
    /// timers die with the process).
    fn arm_timers(&mut self, ctx: &mut Ctx<'_>) {
        // Stagger the batch timer so system-wide datablock generation is spread evenly.
        //
        // The first fire lands at `stagger ∈ [0, interval)`, *not* at
        // `interval + stagger`: production must start immediately. With the paper's
        // saturated pacing the per-replica interval grows with `n · datablock_size`
        // (≈ 2.9 s at n = 128, ≈ 18 s at n = 600) — deferring the first datablock by a
        // full interval pushed it past the end of a 3 s run, which is exactly the
        // "Leopard confirms nothing at n ≥ 128" collapse: the leader's Ready queue
        // stayed empty forever while every downstream stage waited on it.
        let WorkloadMode::Saturated { pacing } = self.config.workload;
        let stagger = SimDuration::from_nanos(ctx.rng().gen_range(0..pacing.as_nanos()));
        ctx.set_timer(stagger, TOKEN_BATCH);
        ctx.set_timer(PROPOSE_INTERVAL, TOKEN_PROPOSE);
        ctx.set_timer(self.config.progress_timeout, TOKEN_PROGRESS);
        ctx.set_timer(self.config.retrieval_timeout, TOKEN_RETRIEVAL);
    }
}

impl Protocol for LeopardReplica {
    type Message = LeopardMessage;

    fn on_start(&mut self, ctx: &mut dyn Context<Message = LeopardMessage>) {
        self.arm_timers(ctx);
    }

    fn on_restart(&mut self, ctx: &mut dyn Context<Message = LeopardMessage>) {
        self.arm_timers(ctx);
        self.retrieval.on_restart();
        // Rejoin via state transfer instead of replaying from genesis: peers answer
        // with their stable checkpoint proof and the confirmed blocks above it.
        self.begin_state_sync(ctx);
    }

    fn on_message(
        &mut self,
        from: NodeId,
        message: LeopardMessage,
        ctx: &mut dyn Context<Message = LeopardMessage>,
    ) {
        match message {
            LeopardMessage::Datablock(datablock) => self.handle_datablock(from, datablock, ctx),
            LeopardMessage::Ready { digest } => self.handle_ready(from, digest, ctx),
            LeopardMessage::PrePrepare { block, share } => {
                self.handle_pre_prepare(from, block, share, ctx)
            }
            LeopardMessage::PrepareVote {
                seq,
                block_digest,
                share,
            } => self.handle_vote(from, Round::Prepare, seq, block_digest, share, ctx),
            LeopardMessage::NotarizationProof {
                seq,
                block_digest,
                proof,
            } => self.handle_notarization(seq, block_digest, proof, ctx),
            LeopardMessage::CommitVote {
                seq,
                proof_digest,
                share,
            } => self.handle_vote(from, Round::Commit, seq, proof_digest, share, ctx),
            LeopardMessage::ConfirmationProof {
                seq,
                proof_digest,
                proof,
            } => self.handle_confirmation(seq, proof_digest, proof, ctx),
            LeopardMessage::Query { digests } => self.handle_query(from, &digests, ctx),
            LeopardMessage::QueryResponse { digest, chunk } => {
                self.handle_query_response(digest, chunk, ctx)
            }
            LeopardMessage::Checkpoint {
                seq,
                state_digest,
                share,
            } => self.handle_checkpoint_share(from, seq, state_digest, share, ctx),
            LeopardMessage::CheckpointProof {
                seq,
                state_digest,
                proof,
            } => self.handle_checkpoint_proof(seq, state_digest, proof, ctx),
            LeopardMessage::Timeout { view, share } => self.handle_timeout(from, view, share, ctx),
            LeopardMessage::ViewChange {
                new_view,
                checkpoint_seq,
                notarized,
            } => self.handle_view_change(from, new_view, checkpoint_seq, notarized, ctx),
            LeopardMessage::NewView {
                view,
                view_change_count,
                ..
            } => self.handle_new_view(from, view, view_change_count, ctx),
            LeopardMessage::StateRequest { last_executed } => {
                self.handle_state_request(from, last_executed, ctx)
            }
            LeopardMessage::StateResponse(response) => {
                self.handle_state_response(from, *response, ctx)
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut dyn Context<Message = LeopardMessage>) {
        match token {
            TOKEN_BATCH => {
                self.generate_datablock(ctx);
                let WorkloadMode::Saturated { pacing } = self.config.workload;
                ctx.set_timer(pacing, TOKEN_BATCH);
            }
            TOKEN_PROPOSE => {
                // The batch-flush tick: the pipeline is event-driven (see `propose`);
                // the periodic tick bounds how long a partial batch waits and guards
                // against a missed wake-up.
                self.propose(ctx, true);
                self.fill_idle_stripe(ctx);
                ctx.set_timer(PROPOSE_INTERVAL, TOKEN_PROPOSE);
            }
            TOKEN_PROGRESS => {
                self.fire_progress_timer(ctx);
                ctx.set_timer(self.current_progress_timeout(), TOKEN_PROGRESS);
            }
            TOKEN_RETRIEVAL => {
                self.fire_retrieval_timer(ctx);
                ctx.set_timer(self.config.retrieval_timeout, TOKEN_RETRIEVAL);
            }
            TOKEN_FIRST_QUERY => self.fire_retrieval_timer(ctx),
            _ => {}
        }
    }

    fn progress_probe(&self, now: SimTime) -> Option<ProgressProbe> {
        let guard = self.current_stall();
        // A guard snapshot alone is not a stall: between two datablock arrivals the
        // leader legitimately sits on `AwaitingReady`. Report a stall only when the
        // guard blocks *and* nothing has confirmed for a full progress-timeout window.
        let making_progress = self
            .last_confirmation_at
            .map(|at| now.saturating_since(at) < self.config.progress_timeout)
            .unwrap_or(false);
        let stall = if guard == StallReason::None || making_progress {
            StallReason::None
        } else {
            guard
        };
        let stalled_since = if stall == StallReason::None {
            None
        } else {
            Some(self.pipeline.stalled_since(guard, now))
        };
        Some(ProgressProbe {
            last_confirmation_at: self.last_confirmation_at,
            stall: stall.as_str(),
            stalled_since,
        })
    }
}

#[cfg(test)]
mod tests;
