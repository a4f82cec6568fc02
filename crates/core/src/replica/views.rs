//! Appendix A: the progress watchdog and the PBFT-style view change.

use super::{Ctx, LeopardReplica};
use crate::messages::{LeopardMessage, NotarizedEntry};
use crate::view_change::{timeout_digest, view_change_wire_size, ViewChangeState};
use leopard_crypto::threshold::SignatureShare;
use leopard_simnet::{ObservationKind, SimDuration, SimTime};
use leopard_types::{BftBlock, NodeId, SeqNum, View, WireSize};
use std::sync::Arc;

/// Bound on buffered future-view PrePrepares (see [`Pacemaker::defer`]). A full
/// re-proposal sweep is at most `max_parallel_instances` blocks; the slack covers a
/// couple of view transitions arriving back-to-back. Beyond the cap, entries are
/// dropped — the view-change stall path recovers the loss, just more slowly.
const DEFERRED_PRE_PREPARE_CAP: usize = 256;

/// What drives this replica from view to view: the complaint and ViewChange records,
/// the view change in progress, the PrePrepares that raced ahead of their view, the
/// progress back-off and the watchdog's confirmation mark.
pub(super) struct Pacemaker {
    view_changes: ViewChangeState,
    // When the view change in progress started; `None` while not changing views.
    started_at: Option<SimTime>,
    // PrePrepares for views ahead of this replica. The new leader's re-proposals
    // race the NewView announcement through the network; a re-proposal delivered
    // first used to be silently dropped — and PrePrepares are never re-sent, so a
    // straggler could permanently miss the re-proposed block and the serial number
    // would never regain a quorum. Buffered (bounded) and replayed on `enter_view`.
    deferred: Vec<(NodeId, Arc<BftBlock>, SignatureShare)>,
    // Consecutive view changes without progress double the effective progress
    // timeout (capped at 8x). A configured timeout below the network's agreement
    // round otherwise fires mid-agreement forever: every view is abandoned before
    // its re-proposals can confirm, and the system thrashes into a permanent stall.
    backoff: u32,
    // The replica's confirmed requests when the progress watchdog last fired.
    confirmed_at_last_check: u64,
    // The latest view whose ViewChange quorum this replica assembled itself (the
    // genesis view counts: nothing precedes it). Proposing fresh blocks is only
    // safe in an anchored view: the quorum evidence is what bumps `pipeline`
    // past every serial an earlier view may have notarized, and stripe ownership
    // shifts by one replica per view — a proposer that entered the view through a
    // peer's NewView or a state-sync view claim has no such frontier and could
    // double-assign a serial another proposer's block already holds.
    anchored_view: View,
}

impl Pacemaker {
    pub(super) fn new() -> Self {
        Self {
            view_changes: ViewChangeState::new(),
            started_at: None,
            deferred: Vec::new(),
            backoff: 0,
            confirmed_at_last_check: 0,
            anchored_view: View::initial(),
        }
    }

    /// True while a view change is in progress: from this replica's complaint until
    /// it enters the next view.
    pub(super) fn in_view_change(&self) -> bool {
        self.started_at.is_some()
    }

    /// The latest view whose ViewChange quorum this replica assembled itself.
    pub(super) fn anchored_view(&self) -> View {
        self.anchored_view
    }

    /// Holds `from`'s PrePrepare for a view this replica has not entered, to replay it
    /// from `enter_view` (dropped beyond [`DEFERRED_PRE_PREPARE_CAP`]).
    pub(super) fn defer(&mut self, from: NodeId, block: Arc<BftBlock>, share: SignatureShare) {
        if self.deferred.len() < DEFERRED_PRE_PREPARE_CAP {
            self.deferred.push((from, block, share));
        }
    }
}

impl LeopardReplica {
    // ------------------------------------------------------------------
    // View-change (Appendix A)
    // ------------------------------------------------------------------

    /// The progress timeout with the current view-change back-off applied.
    pub(super) fn current_progress_timeout(&self) -> SimDuration {
        self.config
            .progress_timeout
            .saturating_mul(1u64 << self.pacemaker.backoff.min(3))
    }

    pub(super) fn outstanding_work(&self) -> bool {
        // A confirmed instance whose block never arrived still owes work: execution
        // is stuck at it, and only a state sync can fill it. Without counting it the
        // replica believes it is idle and never repairs the gap.
        self.producer.has_unexecuted()
            || self
                .replica_instances
                .iter()
                .any(|(_, instance)| !instance.is_confirmed() || instance.block.is_none())
    }

    pub(super) fn fire_progress_timer(&mut self, ctx: &mut Ctx<'_>) {
        let progressed = self.confirmed_requests > self.pacemaker.confirmed_at_last_check
            || self.last_executed.0 > 0 && self.confirmed_requests == self.pacemaker.confirmed_at_last_check && !self.outstanding_work();
        let stalled = !progressed && self.outstanding_work();
        self.pacemaker.confirmed_at_last_check = self.confirmed_requests;
        if progressed {
            self.pacemaker.backoff = 0;
            return;
        }
        if let Some(started) = self.pacemaker.started_at {
            // The view change itself stalled: the incoming leader never produced a
            // NewView (crashed or Byzantine). Give it one full (backed-off) timeout,
            // then advance locally and complain in the next view so the cluster can
            // rotate past a run of bad leaders.
            if ctx.now().saturating_since(started) >= self.current_progress_timeout() {
                self.enter_view(self.view.next(), ctx);
                self.complain(ctx);
            }
            return;
        }
        if stalled {
            // A stall caused by an execution gap the replica can repair on its own is
            // not the leader's fault: the instance at the gap already confirmed, but
            // this replica never received the block (the PrePrepare was lost to a
            // partition or a crash window, and nobody re-sends PrePrepares). A view
            // change cannot fill it — confirmed instances are not re-proposed, and the
            // endorsement path needs the held block — so fetch the confirmed entry
            // from peers instead of dragging the whole cluster through a view change.
            let gap = self.last_executed.0 + 1;
            let confirmed_blockless = self
                .replica_instances
                .get(gap)
                .map_or(false, |instance| instance.is_confirmed() && instance.block.is_none());
            if confirmed_blockless {
                self.maybe_state_sync(ctx);
                return;
            }
            // The cluster confirmed serials past this replica's execution gap, but the
            // gap's own agreement messages never arrived — PrePrepare, notarization and
            // confirmation were all lost to a partition or crash window, and none are
            // ever re-sent. With one proposer the leader's region is every replica's
            // region-of-interest, so a severed minority always took the whole cluster
            // (and a view change) with it; with striped proposers a minority region can
            // lose exactly one stripe's window while the rest of the system keeps
            // confirming, so no complaint quorum ever assembles. Peers hold the
            // confirmed entries — fetch them. Still complain below: if the gap's
            // stripe is genuinely dead (its proposer crashed before notarizing it),
            // no peer has the entry and only a view change can fill the serial.
            if self.highest_confirmed_seen >= gap {
                self.maybe_state_sync(ctx);
            }
            // Re-broadcast on every fire while the stall lasts: replicas enter a view
            // at different instants, and a Timeout share delivered before the receiver
            // entered the view is dropped — the periodic re-send makes the 2f+1
            // complaint quorum assemble regardless of entry order (receivers
            // deduplicate by sender).
            self.complain(ctx);
        }
    }

    fn complain(&mut self, ctx: &mut Ctx<'_>) {
        let view = self.view;
        self.pacemaker.view_changes.mark_complained(view);
        let digest = timeout_digest(view);
        let share = self.sign(&digest, ctx);
        ctx.broadcast(LeopardMessage::Timeout { view, share });
    }

    pub(super) fn handle_timeout(
        &mut self,
        from: NodeId,
        view: View,
        share: leopard_crypto::threshold::SignatureShare,
        ctx: &mut Ctx<'_>,
    ) {
        if view.0 < self.view.0 {
            return;
        }
        if !self.verify_share(from, &share, &timeout_digest(view), ctx) {
            return;
        }
        let count = self.pacemaker.view_changes.record_timeout(view, from);
        if count <= self.f() {
            return;
        }
        // Join the complaint once f+1 replicas complained. If they complain in a view
        // ahead of ours, at least one of them is honest and the cluster has moved on:
        // jump to that view first (view synchronization, the PBFT f+1 rule). Without
        // this, replicas that advanced locally past a stalled view change would be
        // split across views, each complaining where nobody listens.
        self.enter_view(view, ctx);
        if !self.pacemaker.view_changes.has_complained(view) {
            self.complain(ctx);
        }
        // Abandon the view once 2f+1 replicas complained.
        if count >= self.quorum() && self.pacemaker.view_changes.mark_abandoned(view) {
            self.start_view_change(ctx);
        }
    }

    fn start_view_change(&mut self, ctx: &mut Ctx<'_>) {
        let old_view = self.view;
        self.pacemaker.started_at = Some(ctx.now());
        let new_view = old_view.next();

        // Collect every notarized-or-better block above the stable checkpoint (the
        // window holds nothing else), in serial order: the live evidence (which may
        // have re-notarized under a newer view) or else the prepared evidence that
        // survived earlier view entries.
        let notarized: Vec<NotarizedEntry> = self
            .replica_instances
            .iter()
            .filter_map(|(_, instance)| {
                instance.notarized_entry().or_else(|| instance.prepared.clone())
            })
            .collect();
        let message = LeopardMessage::ViewChange {
            new_view,
            checkpoint_seq: self.checkpoints.low_watermark(),
            notarized,
        };
        // Every proposer of the new view needs the evidence: each re-proposes only
        // its own stripe, so all `p` of them must independently reach a `2f+1`
        // quorum of ViewChange messages. With `p = 1` this is exactly the classic
        // single send to the next leader.
        for j in 0..self.proposer_count() {
            ctx.send(new_view.proposer(j, self.n()), message.clone());
        }
        // The replica stops participating in the old view; it resumes on new-view.
    }

    pub(super) fn handle_view_change(
        &mut self,
        from: NodeId,
        new_view: View,
        checkpoint_seq: SeqNum,
        notarized: Vec<NotarizedEntry>,
        ctx: &mut Ctx<'_>,
    ) {
        // Only a prospective proposer of `new_view` processes these (with a single
        // proposer that is exactly the prospective leader), and only for a view this
        // replica has not left: `enter_view` dropped the records of older ones.
        if new_view < self.view || self.my_stripe(new_view).is_none() {
            return;
        }
        // Verify the notarization proofs before accepting the entries.
        let valid: Vec<NotarizedEntry> = notarized
            .into_iter()
            .filter(|entry| self.verify_combined(&entry.proof, &entry.block.digest(), ctx))
            .collect();
        let bytes = view_change_wire_size(&valid);
        self.pacemaker.view_changes
            .record_view_change(new_view, from, checkpoint_seq, valid, bytes);
        if let Some(payload) = self.pacemaker.view_changes.build_new_view(new_view, self.quorum()) {
            // Become a proposer of the new view. If a peer's NewView already brought
            // this replica in, it stays (keeping its votes) and still re-proposes its
            // own stripe below, which no other proposer covers.
            self.enter_view(new_view, ctx);
            let reproposed: usize = payload.entries.iter().map(WireSize::wire_size).sum();
            ctx.broadcast(LeopardMessage::NewView {
                view: new_view,
                view_change_count: payload.view_change_count,
                bytes: payload.view_change_bytes + reproposed as u64,
            });

            // Re-propose the surviving blocks, then dummies for the gaps, in the new
            // view — but only the serials on this replica's own stripe. The other
            // proposers of `new_view` received the same ViewChange quorum and cover
            // their stripes from the identical evidence, so every serial above the
            // stable checkpoint is re-proposed exactly once system-wide. Two known
            // quirks: re-proposals skip the block-hash charge a fresh proposal pays,
            // and a re-proposed entry drops its dummy flag.
            let p = self.proposer_count();
            let stripe = self.my_stripe(new_view).expect("checked by the guard above");
            let entries = payload.entries.iter().map(|e| (e.block.id.seq, Some(&e.block.links)));
            let gaps = payload.gaps.iter().map(|&gap| (gap, None));
            for (seq, links) in entries.chain(gaps).filter(|(seq, _)| seq.stripe(p) == stripe) {
                let block = match links {
                    Some(links) => BftBlock::new(new_view, seq, links.clone()),
                    None => BftBlock::dummy(new_view, seq),
                };
                self.broadcast_proposal(Arc::new(block), false, ctx);
            }
            // Entries come sorted and every gap lies below the last one.
            let last_entry = payload.entries.last().map_or(0, |e| e.block.id.seq.0);
            let highest = last_entry.max(payload.stable_checkpoint.0);
            self.pipeline.bump_next_seq(SeqNum(highest.saturating_add(1)));
            // The frontier now clears everything the quorum evidence could have
            // notarized — fresh proposals in this view are safe.
            self.pacemaker.anchored_view = new_view;
            // Event-driven pipeline: the new leader extends with whatever became ready
            // while the view-change was in flight.
            self.propose(ctx, true);
        }
    }

    pub(super) fn handle_new_view(
        &mut self,
        from: NodeId,
        view: View,
        view_change_count: u32,
        ctx: &mut Ctx<'_>,
    ) {
        // Any proposer of `view` may announce it (each one independently assembles
        // the same ViewChange quorum); with a single proposer only the new leader
        // qualifies, as before.
        let from_proposer = view.stripe_of(from, self.n(), self.proposer_count()).is_some();
        if from_proposer && view_change_count as usize >= self.quorum() {
            self.enter_view(view, ctx);
        }
    }

    /// Moves this replica into `view` if it is ahead of the current one: the one view
    /// guard. Re-entering the current view would reset the votes cast in it.
    pub(super) fn enter_view(&mut self, view: View, ctx: &mut Ctx<'_>) {
        if view <= self.view {
            return;
        }
        self.view = view;
        // Nothing reads the view-change records of the views now behind.
        self.pacemaker.view_changes.forget_views_before(view);
        // The proposer rotation shifted by one: re-anchor the pipeline onto this
        // replica's stripe of the new view (no-op for a single proposer).
        self.anchor_pipeline_stripe();
        // Each view entered without intervening progress doubles the patience before
        // the next complaint (reset by `fire_progress_timer` once confirmations flow).
        self.pacemaker.backoff = (self.pacemaker.backoff + 1).min(3);
        if let Some(started) = self.pacemaker.started_at.take() {
            ctx.observe(ObservationKind::Custom {
                label: "view_change_nanos",
                value: ctx.now().saturating_since(started).as_nanos(),
            });
        }
        ctx.observe(ObservationKind::ViewChange { view: view.0 });
        // Unconfirmed instances will be re-proposed in the new view; reset their voting
        // state so replicas can vote again (for the re-proposed block).
        for instance in self.replica_instances.values_mut() {
            instance.reset_for_new_view();
        }
        self.pacemaker.confirmed_at_last_check = self.confirmed_requests;
        // Replay proposals that arrived for this view before we entered it (they
        // raced the NewView). `handle_pre_prepare` buffers those for still-future
        // views again and drops stale ones.
        for (from, block, share) in std::mem::take(&mut self.pacemaker.deferred) {
            self.handle_pre_prepare(from, block, share, ctx);
        }
    }
}
