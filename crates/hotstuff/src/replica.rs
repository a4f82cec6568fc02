//! The HotStuff replica state machine.

use crate::block::{HotStuffBlock, QuorumCertificate};
use crate::config::HotStuffConfig;
use crate::mempool::Mempool;
use crate::messages::HotStuffMessage;
use leopard_crypto::provider::ComputeCost;
use leopard_crypto::threshold::SignatureShare;
use leopard_crypto::{Digest, ShareCollector, SharedKeys};
use leopard_simnet::{Context, ObservationKind, ProgressProbe, Protocol, SimDuration, SimTime};
use leopard_types::{ClientId, FastMap, NodeId, View, WireSize};
use std::sync::{Arc, OnceLock};

const TOKEN_WORKLOAD: u64 = 1;
const TOKEN_PROPOSE: u64 = 2;
const TOKEN_PROGRESS: u64 = 3;

/// How often the leader tries to propose.
const PROPOSE_INTERVAL: SimDuration = SimDuration(10_000_000); // 10 ms

type Ctx<'a> = dyn Context<Message = HotStuffMessage> + 'a;

/// Charges a modeled crypto cost to the replica's compute queue.
fn charge(ctx: &mut Ctx<'_>, cost: ComputeCost) {
    if !cost.is_zero() {
        ctx.charge_compute(SimDuration::from_nanos(cost.as_nanos()));
    }
}

/// The committed log every replica starts from. Sharing one empty log means building a
/// replica allocates nothing for it; its first commit copies it (`Arc::make_mut`).
fn empty_committed_log() -> Arc<Vec<(u64, Digest)>> {
    static EMPTY: OnceLock<Arc<Vec<(u64, Digest)>>> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(Arc::default))
}

/// A chained-HotStuff replica.
///
/// Its state is bounded by the uncommitted suffix of the chain: after each commit,
/// `prune_below_committed` drops every block, certificate and vote collector
/// below the committed height. Only the committed log grows, one `(height, digest)`
/// per executed block, and the invariant checker shares it rather than copying it.
pub struct HotStuffReplica {
    id: NodeId,
    config: HotStuffConfig,
    keys: Arc<SharedKeys>,

    view: View,
    /// Client stub (requests are submitted to the leader in HotStuff).
    mempool: Mempool,

    /// Blocks at or above the committed height, by digest.
    blocks: FastMap<Digest, Arc<HotStuffBlock>>,
    /// QCs at or above the committed height, by certified block digest.
    certificates: FastMap<Digest, QuorumCertificate>,
    /// The highest QC known.
    high_qc: QuorumCertificate,
    /// Leader: `(height, collected votes)` per block digest at or above the committed
    /// height.
    votes: FastMap<Digest, (u64, ShareCollector)>,
    /// Leader: digest of the proposal still waiting for its QC, and when it was made
    /// (progress-probe bookkeeping).
    awaiting_qc: Option<(Digest, SimTime)>,
    /// The highest height this replica voted for.
    last_voted_height: u64,
    /// Height of the latest committed block. `try_commit` executes every block it
    /// commits in the same call, so this is also the executed-height watermark.
    committed_height: u64,
    /// `(height, digest)` of every executed block, oldest first. Snapshots share it;
    /// `execute` appends through `Arc::make_mut`, so a shared copy stays as it was.
    committed: Arc<Vec<(u64, Digest)>>,
    /// Total requests confirmed by this replica.
    confirmed_requests: u64,
    confirmed_at_last_check: u64,
    /// When this replica last executed a block (progress-probe bookkeeping).
    last_confirmation_at: Option<SimTime>,
}

impl std::fmt::Debug for HotStuffReplica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HotStuffReplica")
            .field("id", &self.id)
            .field("view", &self.view)
            .field("committed_height", &self.committed_height)
            .field("confirmed_requests", &self.confirmed_requests)
            .finish()
    }
}

impl HotStuffReplica {
    /// Creates a replica.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(id: NodeId, config: HotStuffConfig, keys: Arc<SharedKeys>) -> Self {
        config
            .validate()
            .unwrap_or_else(|message| panic!("invalid HotStuff config: {message}"));
        Self {
            id,
            view: View::initial(),
            mempool: Mempool::new(ClientId(id.0), config.payload_size as u32),
            blocks: FastMap::default(),
            certificates: FastMap::default(),
            high_qc: QuorumCertificate::genesis(),
            votes: FastMap::default(),
            awaiting_qc: None,
            last_voted_height: 0,
            committed_height: 0,
            committed: empty_committed_log(),
            confirmed_requests: 0,
            confirmed_at_last_check: 0,
            last_confirmation_at: None,
            config,
            keys,
        }
    }

    /// This replica's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The current view.
    pub fn view(&self) -> View {
        self.view
    }

    /// The current leader.
    pub fn leader(&self) -> NodeId {
        self.view.leader(self.config.n)
    }

    /// True if this replica currently leads.
    pub fn is_leader(&self) -> bool {
        self.leader() == self.id
    }

    /// Height of the latest committed block.
    pub fn committed_height(&self) -> u64 {
        self.committed_height
    }

    /// Total requests confirmed (committed and executed) by this replica.
    pub fn confirmed_requests(&self) -> u64 {
        self.confirmed_requests
    }

    /// When this replica last executed a block, if ever.
    pub fn last_confirmation_at(&self) -> Option<SimTime> {
        self.last_confirmation_at
    }

    /// `(height, digest)` of every block this replica executed, in execution order:
    /// its committed chain, oldest first, one entry per `BlockCommitted` it emitted.
    pub fn committed_log(&self) -> &Arc<Vec<(u64, Digest)>> {
        &self.committed
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

    // ------------------------------------------------------------------
    // Proposing and voting
    // ------------------------------------------------------------------

    fn try_propose(&mut self, ctx: &mut Ctx<'_>) {
        if !self.is_leader() || self.awaiting_qc.is_some() {
            return;
        }
        let pipeline_pending = self.high_qc.height > self.committed_height;
        let batch = self.mempool.take_batch(self.config.batch_size);
        if batch.is_empty() && !pipeline_pending {
            return;
        }
        let height = self.high_qc.height + 1;
        let block = Arc::new(HotStuffBlock::new(
            height,
            self.view,
            self.high_qc.block_digest,
            batch,
        ));
        let digest = block.digest();
        // The proposal hashes the full request batch (HotStuff blocks carry payload).
        charge(ctx, self.keys.provider.model().hash(block.wire_size()));
        self.blocks.insert(digest, block.clone());
        self.awaiting_qc = Some((digest, ctx.now()));
        let share = self.sign(&digest, ctx);
        // The leader's own vote.
        self.votes
            .entry(digest)
            .or_insert_with(|| (height, ShareCollector::default()));
        // Broadcast includes the local self-delivery without another clone of the
        // message (same audit as the Leopard proposer's).
        ctx.broadcast(HotStuffMessage::Proposal {
            block,
            justify: Box::new(self.high_qc),
            share,
        });
    }

    fn handle_proposal(
        &mut self,
        from: NodeId,
        block: Arc<HotStuffBlock>,
        justify: QuorumCertificate,
        share: SignatureShare,
        ctx: &mut Ctx<'_>,
    ) {
        if from != self.leader() {
            return;
        }
        let digest = block.digest();
        charge(ctx, self.keys.provider.model().hash(block.wire_size()));
        let (share_ok, cost) = self.keys.provider.verify_share(&share, &digest);
        charge(ctx, cost);
        if share.signer != from.signer_index() || !share_ok {
            return;
        }
        // Verify and adopt the carried QC (this is what makes the protocol pipelined).
        if !justify.is_genesis() {
            let Some(proof) = justify.proof else { return };
            let (qc_ok, cost) = self.keys.provider.verify_combined(&proof, &justify.block_digest);
            charge(ctx, cost);
            if !qc_ok {
                return;
            }
            self.certificates.insert(justify.block_digest, justify);
            if justify.height > self.high_qc.height {
                self.high_qc = justify;
            }
        }
        self.blocks.insert(digest, block.clone());
        self.try_commit(&justify, ctx);

        // Vote once per height, only on blocks extending the highest QC.
        if block.height <= self.last_voted_height || block.height != self.high_qc.height + 1 {
            return;
        }
        self.last_voted_height = block.height;
        let vote_share = self.sign(&digest, ctx);
        ctx.send(
            self.leader(),
            HotStuffMessage::Vote {
                height: block.height,
                block_digest: digest,
                share: vote_share,
            },
        );
    }

    fn handle_vote(
        &mut self,
        from: NodeId,
        height: u64,
        block_digest: Digest,
        share: SignatureShare,
        ctx: &mut Ctx<'_>,
    ) {
        if !self.is_leader() {
            return;
        }
        // Signer identity per vote; share values verified in one batch at quorum
        // (randomized linear combination — same amortisation as the Leopard leader).
        if share.signer != from.signer_index() {
            return;
        }
        // A block below the committed height is never read again (its certificate, if
        // any, was pruned): a late vote for it is as spent as one for a certified block.
        if height < self.committed_height || self.certificates.contains_key(&block_digest) {
            return;
        }
        let quorum = self.config.quorum();
        let (_, votes) = self
            .votes
            .entry(block_digest)
            .or_insert_with(|| (height, ShareCollector::default()));
        if votes.add(share) < quorum {
            return;
        }
        let (proof, cost) = votes.settle(&self.keys.provider, &block_digest);
        charge(ctx, cost);
        let Some(proof) = proof else {
            return;
        };
        let qc = QuorumCertificate {
            height,
            block_digest,
            proof: Some(proof),
        };
        self.certificates.insert(block_digest, qc);
        if qc.height > self.high_qc.height {
            self.high_qc = qc;
        }
        self.awaiting_qc
            .take_if(|(digest, _)| *digest == block_digest);
        self.try_commit(&qc, ctx);
        // Pipelining: the next proposal carries this QC immediately.
        self.try_propose(ctx);
    }

    // ------------------------------------------------------------------
    // Commit rule and execution
    // ------------------------------------------------------------------

    /// The three-chain commit rule: when a QC certifies block `b1`, and `b1 → b2 → b3`
    /// is a chain of parent links with consecutive heights where `b2` is also certified,
    /// then `b3` (and all its ancestors) become committed.
    fn try_commit(&mut self, qc: &QuorumCertificate, ctx: &mut Ctx<'_>) {
        if qc.is_genesis() {
            return;
        }
        let Some(b1) = self.blocks.get(&qc.block_digest).cloned() else {
            return;
        };
        let Some(b2) = self.blocks.get(&b1.parent).cloned() else {
            return;
        };
        if !self.certificates.contains_key(&b1.parent) || b2.height + 1 != b1.height {
            return;
        }
        let Some(b3) = self.blocks.get(&b2.parent).cloned() else {
            return;
        };
        if b3.height + 1 != b2.height {
            return;
        }
        if b3.height <= self.committed_height {
            return;
        }
        // Commit b3 and all its uncommitted ancestors, oldest first.
        let mut chain = Vec::new();
        let mut cursor = Some(b3.clone());
        while let Some(block) = cursor {
            if block.height <= self.committed_height {
                break;
            }
            cursor = self.blocks.get(&block.parent).cloned();
            chain.push(block);
        }
        self.committed_height = b3.height;
        for block in chain.into_iter().rev() {
            self.execute(&block, ctx);
        }
        self.prune_below_committed();
    }

    /// Drops every block, certificate and vote collector below the committed height.
    /// The three-chain rule never reads below the committed block. That block stays:
    /// the next walk in `try_commit` stops at it.
    fn prune_below_committed(&mut self) {
        let floor = self.committed_height;
        self.blocks.retain(|_, block| block.height >= floor);
        self.certificates.retain(|_, qc| qc.height >= floor);
        self.votes.retain(|_, (height, _)| *height >= floor);
    }

    /// Executes a newly committed block. Each block on the walk in `try_commit` lies
    /// above the previous committed height and every executed block at or below it,
    /// so no block executes twice.
    fn execute(&mut self, block: &Arc<HotStuffBlock>, ctx: &mut Ctx<'_>) {
        Arc::make_mut(&mut self.committed).push((block.height, block.digest()));
        let count = block.len() as u64;
        self.confirmed_requests += count;
        self.last_confirmation_at = Some(ctx.now());
        ctx.observe(ObservationKind::BlockCommitted {
            sequence: block.height,
            requests: count,
        });
        // Client-side latency: the leader's stub submitted these requests.
        self.mempool
            .acknowledge(&block.requests, ctx.now(), |nanos, count| {
                ctx.observe(ObservationKind::RequestLatencies { nanos, count });
            });
    }

    // ------------------------------------------------------------------
    // Pacemaker
    // ------------------------------------------------------------------

    fn fire_progress_timer(&mut self, ctx: &mut Ctx<'_>) {
        // Clients keep submitting requests (to whoever leads), so a replica that has
        // never committed anything treats the view as stalled even before it received
        // any request of its own.
        let outstanding = self.mempool.outstanding() > 0
            || self.high_qc.height > self.committed_height
            || self.committed_height == 0;
        let progressed = self.confirmed_requests > self.confirmed_at_last_check;
        self.confirmed_at_last_check = self.confirmed_requests;
        if progressed || !outstanding {
            return;
        }
        // Abandon the view: rotate the leader and hand it our highest QC.
        let old_view = self.view;
        self.view = self.view.next();
        self.awaiting_qc = None;
        ctx.observe(ObservationKind::ViewChange { view: self.view.0 });
        let share = self.sign(&self.high_qc.block_digest, ctx);
        ctx.send(
            self.leader(),
            HotStuffMessage::NewView {
                view: old_view,
                high_qc: Box::new(self.high_qc),
                share,
            },
        );
    }

    fn handle_new_view(&mut self, high_qc: QuorumCertificate, ctx: &mut Ctx<'_>) {
        if high_qc.is_genesis() {
            return;
        }
        let Some(proof) = high_qc.proof else { return };
        let (ok, cost) = self.keys.provider.verify_combined(&proof, &high_qc.block_digest);
        charge(ctx, cost);
        if !ok {
            return;
        }
        self.certificates.insert(high_qc.block_digest, high_qc);
        if high_qc.height > self.high_qc.height {
            self.high_qc = high_qc;
        }
    }
}

impl Protocol for HotStuffReplica {
    type Message = HotStuffMessage;

    fn on_start(&mut self, ctx: &mut dyn Context<Message = HotStuffMessage>) {
        ctx.set_timer(Mempool::TICK, TOKEN_WORKLOAD);
        ctx.set_timer(PROPOSE_INTERVAL, TOKEN_PROPOSE);
        ctx.set_timer(self.config.progress_timeout, TOKEN_PROGRESS);
    }

    fn on_message(
        &mut self,
        from: NodeId,
        message: HotStuffMessage,
        ctx: &mut dyn Context<Message = HotStuffMessage>,
    ) {
        match message {
            HotStuffMessage::Proposal {
                block,
                justify,
                share,
            } => self.handle_proposal(from, block, *justify, share, ctx),
            HotStuffMessage::Vote {
                height,
                block_digest,
                share,
            } => self.handle_vote(from, height, block_digest, share, ctx),
            HotStuffMessage::NewView { high_qc, .. } => self.handle_new_view(*high_qc, ctx),
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut dyn Context<Message = HotStuffMessage>) {
        match token {
            TOKEN_WORKLOAD => {
                // The client stub: clients submit to the leader.
                if self.is_leader() {
                    self.mempool
                        .inject_tick(self.config.aggregate_rps as f64, ctx.now());
                }
                ctx.set_timer(Mempool::TICK, TOKEN_WORKLOAD);
            }
            TOKEN_PROPOSE => {
                self.try_propose(ctx);
                ctx.set_timer(PROPOSE_INTERVAL, TOKEN_PROPOSE);
            }
            TOKEN_PROGRESS => {
                self.fire_progress_timer(ctx);
                ctx.set_timer(self.config.progress_timeout, TOKEN_PROGRESS);
            }
            _ => {}
        }
    }

    fn progress_probe(&self, now: SimTime) -> Option<ProgressProbe> {
        let making_progress = self
            .last_confirmation_at
            .map(|at| now.saturating_since(at) < self.config.progress_timeout)
            .unwrap_or(false);
        let stall = if making_progress {
            "None"
        } else if self.is_leader() && self.awaiting_qc.is_some() {
            "AwaitingVotes"
        } else {
            "AwaitingProposal"
        };
        let stalled_since = match stall {
            "None" => None,
            // The vote wait began when the open proposal was made.
            "AwaitingVotes" => self.awaiting_qc.map(|(_, since)| since),
            // Otherwise progress stopped with the last confirmation (start of run if
            // nothing ever confirmed).
            _ => Some(self.last_confirmation_at.unwrap_or(SimTime(0))),
        };
        Some(ProgressProbe {
            last_confirmation_at: self.last_confirmation_at,
            stall,
            stalled_since,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leopard_simnet::{FaultPlan, NetworkConfig, SimTime, Simulation};

    fn simulation(
        n: usize,
        config: HotStuffConfig,
        faults: FaultPlan,
    ) -> Simulation<HotStuffReplica> {
        let keys = config.shared_keys(11);
        Simulation::new(NetworkConfig::datacenter(n), faults, move |id| {
            HotStuffReplica::new(id, config.clone(), keys.clone())
        })
    }

    fn run(n: usize, config: HotStuffConfig, faults: FaultPlan, secs: u64) -> leopard_simnet::SimulationReport {
        simulation(n, config, faults).run_to_report(at_secs(secs), 10_000_000)
    }

    fn at_secs(secs: u64) -> SimTime {
        SimTime(SimDuration::from_secs(secs).as_nanos())
    }

    /// `node`'s block executions so far, in emission order.
    fn commit_heights(sim: &Simulation<HotStuffReplica>, node: NodeId) -> Vec<u64> {
        sim.metrics()
            .commits()
            .iter()
            .filter(|commit| commit.node == node)
            .map(|commit| commit.sequence)
            .collect()
    }

    #[test]
    fn four_replicas_commit_requests() {
        let report = run(4, HotStuffConfig::small_test(4), FaultPlan::none(), 2);
        assert!(report.metrics.max_confirmed_requests(4) > 100);
        for node in 0..4u32 {
            assert!(report.metrics.confirmed_requests_at(NodeId(node)) > 0);
        }
        assert!(!report.metrics.latency_samples().is_empty());
    }

    #[test]
    fn seven_replicas_commit_requests() {
        let report = run(7, HotStuffConfig::small_test(7), FaultPlan::none(), 2);
        assert!(report.metrics.max_confirmed_requests(7) > 100);
    }

    #[test]
    fn leader_crash_triggers_pacemaker_view_change() {
        let faults = FaultPlan::none().with_crash(NodeId(1), SimTime(0));
        let report = run(4, HotStuffConfig::small_test(4), faults, 5);
        let saw_view_change = report
            .metrics
            .observations
            .iter()
            .any(|o| matches!(o.kind, ObservationKind::ViewChange { .. }));
        assert!(saw_view_change, "pacemaker never rotated the leader");
    }

    #[test]
    fn leader_uplink_dominates_traffic() {
        // The structural property the paper's Fig. 2 measures: the leader ships the
        // payload to everyone, so its sent bytes dwarf any other replica's.
        let report = run(4, HotStuffConfig::small_test(4), FaultPlan::none(), 2);
        let leader_sent = report.metrics.traffic.sent_bytes(NodeId(1));
        for node in [0u32, 2, 3] {
            let other_sent = report.metrics.traffic.sent_bytes(NodeId(node));
            assert!(
                leader_sent > 3 * other_sent,
                "leader {leader_sent} vs replica {node} {other_sent}"
            );
        }
    }

    #[test]
    fn retained_state_stays_flat_over_a_long_run() {
        // Ten times the harness's small scenario (2 s), read at t = 7 s and at 3t.
        const BOUND: usize = 8;
        let mut sim = simulation(4, HotStuffConfig::small_test(4), FaultPlan::none());
        let mut logged = Vec::new();
        for secs in [7, 21] {
            sim.run_until(at_secs(secs), u64::MAX);
            for node in (0..4).map(NodeId) {
                let replica = sim.node(node);
                let retained = [
                    replica.blocks.len(),
                    replica.certificates.len(),
                    replica.votes.len(),
                ];
                assert!(
                    retained.iter().all(|&len| len <= BOUND),
                    "node {node} at {secs} s retains {retained:?} blocks / certificates / votes"
                );
                // Nothing below the committed height, and the committed block itself.
                let floor = replica.committed_height();
                assert!(replica.blocks.values().all(|block| block.height >= floor));
                assert!(replica.certificates.values().all(|qc| qc.height >= floor));
                assert!(replica.votes.values().all(|&(height, _)| height >= floor));
                let &(height, digest) = replica.committed_log().last().expect("executed nothing");
                assert_eq!(height, floor);
                assert!(
                    replica.blocks.contains_key(&digest),
                    "node {node} dropped the committed block"
                );
                logged.push((
                    replica.committed_log().len(),
                    commit_heights(&sim, node).len(),
                ));
            }
        }
        for (node, (at_t, at_3t)) in logged[..4].iter().zip(&logged[4..]).enumerate() {
            let (grown, executed) = (at_3t.0 - at_t.0, at_3t.1 - at_t.1);
            assert_eq!(
                grown, executed,
                "node {node}: log grew {grown}, {executed} blocks executed"
            );
            assert!(
                executed > 100,
                "node {node} executed only {executed} blocks in 14 s"
            );
        }
    }

    #[test]
    fn the_committed_log_is_the_commit_stream() {
        let mut sim = simulation(4, HotStuffConfig::small_test(4), FaultPlan::none());
        sim.run_until(at_secs(2), 10_000_000);
        for node in (0..4).map(NodeId) {
            let heights: Vec<u64> = sim
                .node(node)
                .committed_log()
                .iter()
                .map(|&(h, _)| h)
                .collect();
            assert!(!heights.is_empty(), "node {node} executed nothing");
            assert_eq!(heights, commit_heights(&sim, node), "node {node}");
            // Fault-free, the chain executes every height once, in order.
            assert!(
                heights.iter().copied().eq(1..=heights.len() as u64),
                "node {node}: {heights:?}"
            );
        }
        // Every replica executed the same chain.
        let log = sim.node(NodeId(0)).committed_log();
        for node in (1..4).map(NodeId) {
            let other = sim.node(node).committed_log();
            let shared = log.len().min(other.len());
            assert_eq!(log[..shared], other[..shared], "node {node}");
        }
    }
}
