//! The leader's proposal pipeline as an explicit, queryable state object.
//!
//! Historically the leader's progress machinery was timer-polled: a fixed
//! `TOKEN_PROPOSE` tick rescanned `leader_instances` (O(k)) to count in-flight
//! instances and silently did nothing when a guard blocked. When one link of the
//! Ready → propose → Confirm → checkpoint → watermark-advance chain stopped turning,
//! the leader idled forever and the only symptom was a bare `0.00` in a throughput
//! table.
//!
//! [`Pipeline`] replaces that with event-driven bookkeeping:
//!
//! * it owns the per-serial-number [`LeaderInstance`]s, in the same watermark window
//!   the replica keeps its own instances in (a ring from the low watermark up, pruned
//!   at each checkpoint); the in-flight count is a count over that window's
//!   unconfirmed instances (at most `k` per stripe between checkpoints), taken when a
//!   proposal is attempted, so it cannot drift from the instances;
//! * its stall condition is a first-class value, [`StallReason`], computed from the
//!   same guards `propose()` uses — so a stalled run can *name* the guard that blocks
//!   it (and a zero cell in `fig9` output comes annotated, never bare).

use crate::instance::{LeaderInstance, SerialWindow};
use leopard_simnet::SimTime;
use leopard_types::SeqNum;

/// Why the leader's proposal pipeline is (or would be) unable to extend right now.
///
/// `None` means no guard blocks: the leader either just proposed everything it could or
/// could propose immediately. The variants are ordered by diagnostic precedence — the
/// first blocking guard wins, matching the order `propose()` checks them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallReason {
    /// Nothing blocks the pipeline.
    None,
    /// The replica deliberately stays silent (an injected Byzantine behaviour).
    Byzantine,
    /// A view-change is in progress; proposing is suspended until the new view starts.
    ViewChange,
    /// All `k` parallel agreement instances are in flight and none has confirmed.
    InstancesFull,
    /// The next serial number is beyond `low_watermark + k`: the checkpoint protocol
    /// has not advanced the watermark (confirmations or checkpoint shares are stuck).
    WatermarkFull,
    /// No datablock has reached the `2f+1` ready threshold: the leader has nothing to
    /// link (datablock generation, dissemination or Ready acks are stuck).
    AwaitingReady,
}

impl StallReason {
    /// The stable string label used in probes, tables and logs.
    pub fn as_str(&self) -> &'static str {
        match self {
            StallReason::None => "None",
            StallReason::Byzantine => "Byzantine",
            StallReason::ViewChange => "ViewChange",
            StallReason::InstancesFull => "InstancesFull",
            StallReason::WatermarkFull => "WatermarkFull",
            StallReason::AwaitingReady => "AwaitingReady",
        }
    }
}

impl std::fmt::Display for StallReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The leader-side proposal pipeline: the in-flight [`LeaderInstance`]s, the next
/// serial number, and the parallelism bound `k` — with a queryable [`StallReason`].
#[derive(Debug)]
pub struct Pipeline {
    /// Per-serial-number leader state, from the low watermark up.
    instances: SerialWindow<LeaderInstance>,
    /// The serial number the next proposal will use.
    next_seq: SeqNum,
    /// The parallelism bound `k` (`max_parallel_instances`).
    k: usize,
    /// The stripe this pipeline proposes on: the serials whose
    /// [`SeqNum::stripe`] of `stride` is `stripe`. The default
    /// `(0, 1)` is the classic single-leader pipeline over every serial.
    stripe: u64,
    /// Number of stripes (`p`, the proposer count); `1` = single leader.
    stride: u64,
    /// The guard the last proposal attempt stopped at, and since when it has been the
    /// one (for progress probes).
    guard: StallReason,
    guard_since: SimTime,
}

impl Pipeline {
    /// Creates an empty pipeline with parallelism bound `k` (stripe `0` of `1`:
    /// the single-leader pipeline) under a checkpoint window of `window` (`k·p`)
    /// serials.
    pub fn new(k: usize, window: usize) -> Self {
        Self {
            instances: SerialWindow::new(window),
            next_seq: SeqNum::first(),
            k,
            stripe: 0,
            stride: 1,
            guard: StallReason::None,
            guard_since: SimTime(0),
        }
    }

    /// Re-anchors this pipeline to `stripe` of `stride` (called on entering a view;
    /// stripe 0 of 1 changes nothing). `next_seq` never decreases; it is advanced
    /// to the nearest serial of the new stripe's residue class.
    pub fn set_stripe(&mut self, stripe: u64, stride: u64) {
        assert!(stride >= 1 && stripe < stride, "stripe {stripe} of {stride}");
        self.stripe = stripe;
        self.stride = stride;
        self.align_next_seq();
    }

    /// Advances `next_seq` (without decreasing it) to the pipeline's residue class.
    fn align_next_seq(&mut self) {
        let r = self.next_seq.stripe(self.stride);
        let delta = (self.stripe + self.stride - r) % self.stride;
        self.next_seq = SeqNum(self.next_seq.0 + delta);
    }

    /// The serial number the next proposal will use.
    pub fn next_seq(&self) -> SeqNum {
        self.next_seq
    }

    /// Takes the next serial number, advancing the counter to the next serial of
    /// this pipeline's stripe (`+1` for the single-leader stripe `0` of `1`).
    pub fn take_seq(&mut self) -> SeqNum {
        let seq = self.next_seq;
        self.next_seq = SeqNum(self.next_seq.0 + self.stride);
        seq
    }

    /// Raises `next_seq` to at least `seq` (used when a new view adopts re-proposed
    /// blocks above the current counter), then re-aligns it onto this pipeline's
    /// stripe (a no-op for the single-leader stripe).
    pub fn bump_next_seq(&mut self, seq: SeqNum) {
        self.next_seq = self.next_seq.max(seq);
        self.align_next_seq();
    }

    /// Number of unconfirmed instances.
    pub fn in_flight(&self) -> usize {
        self.instances
            .iter()
            .filter(|(_, instance)| !instance.confirmed)
            .count()
    }

    /// Inserts the instance at `seq`, replacing the old view's instance at the same
    /// serial number on a view-change re-proposal. A serial at or below the low
    /// watermark, or beyond the window's span, is not tracked: its votes are ignored.
    pub fn insert(&mut self, seq: SeqNum, instance: LeaderInstance) {
        self.instances.insert(seq.0, instance);
    }

    /// Mutable access to the instance at `seq` for vote collection; setting its
    /// `confirmed` flag frees the pipeline slot.
    pub fn get_mut(&mut self, seq: SeqNum) -> Option<&mut LeaderInstance> {
        self.instances.get_mut(seq.0)
    }

    /// Drops every instance at or below `watermark` (checkpoint garbage collection).
    /// Unconfirmed instances below the watermark free their slot: a quorum checkpoint
    /// proves the chain is durable past them.
    pub fn prune_through(&mut self, watermark: SeqNum) {
        self.instances.prune_through(watermark.0);
    }

    /// The first guard that blocks proposing right now, or [`StallReason::None`] if the
    /// leader could propose. `ready_count` is the number of ready, unlinked datablocks;
    /// `high_watermark` is the checkpoint window bound `lw + k`
    /// ([`crate::checkpoint::CheckpointState::high_watermark`]).
    pub fn stall_reason(
        &self,
        silent_byzantine: bool,
        in_view_change: bool,
        ready_count: usize,
        high_watermark: SeqNum,
    ) -> StallReason {
        if silent_byzantine {
            StallReason::Byzantine
        } else if in_view_change {
            StallReason::ViewChange
        } else if self.in_flight() >= self.k {
            StallReason::InstancesFull
        } else if self.next_seq > high_watermark {
            StallReason::WatermarkFull
        } else if ready_count == 0 {
            StallReason::AwaitingReady
        } else {
            StallReason::None
        }
    }

    /// Tracks when the currently blocking guard last changed (for progress probes).
    pub(crate) fn record_stall(&mut self, reason: StallReason, now: SimTime) {
        if self.guard != reason {
            self.guard = reason;
            self.guard_since = now;
        }
    }

    /// Since when `guard` has blocked: the instant it was recorded, if it is the guard
    /// the last attempt recorded, else `now`.
    pub(crate) fn stalled_since(&self, guard: StallReason, now: SimTime) -> SimTime {
        if self.guard == guard {
            self.guard_since
        } else {
            now
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leopard_types::{BftBlock, View};

    fn instance(seq: SeqNum) -> LeaderInstance {
        LeaderInstance::new(BftBlock::new(View(1), seq, Vec::new()).digest())
    }

    fn confirm(pipeline: &mut Pipeline, seq: SeqNum) {
        pipeline.get_mut(seq).expect("instance").confirmed = true;
    }

    #[test]
    fn counter_tracks_insert_confirm_prune() {
        let mut pipeline = Pipeline::new(4, 4);
        assert_eq!(pipeline.in_flight(), 0);
        let s1 = pipeline.take_seq();
        pipeline.insert(s1, instance(s1));
        let s2 = pipeline.take_seq();
        pipeline.insert(s2, instance(s2));
        assert_eq!(pipeline.in_flight(), 2);

        confirm(&mut pipeline, s1);
        assert_eq!(pipeline.in_flight(), 1);

        // Replacement (view-change re-proposal) keeps the count stable.
        pipeline.insert(s2, instance(s2));
        assert_eq!(pipeline.in_flight(), 1);

        // Pruning through s2 drops both the confirmed and the unconfirmed instance.
        pipeline.prune_through(s2);
        assert_eq!(pipeline.in_flight(), 0);
    }

    #[test]
    fn stall_reasons_follow_guard_precedence() {
        let mut pipeline = Pipeline::new(2, 2);
        // Stable checkpoint at 0 with k = 2: the window admits serial numbers 1..=2.
        let hw = crate::checkpoint::CheckpointState::new().high_watermark(2);
        assert_eq!(hw, SeqNum(2));
        assert_eq!(pipeline.stall_reason(true, true, 5, hw), StallReason::Byzantine);
        assert_eq!(pipeline.stall_reason(false, true, 5, hw), StallReason::ViewChange);
        assert_eq!(pipeline.stall_reason(false, false, 5, hw), StallReason::None);
        assert_eq!(pipeline.stall_reason(false, false, 0, hw), StallReason::AwaitingReady);

        let s1 = pipeline.take_seq();
        pipeline.insert(s1, instance(s1));
        let s2 = pipeline.take_seq();
        pipeline.insert(s2, instance(s2));
        assert_eq!(pipeline.stall_reason(false, false, 5, hw), StallReason::InstancesFull);

        // Confirm both: instances free but next_seq = 3 > lw + k = 2.
        confirm(&mut pipeline, s1);
        confirm(&mut pipeline, s2);
        assert_eq!(pipeline.stall_reason(false, false, 5, hw), StallReason::WatermarkFull);
        // The checkpoint advances: proposing is possible again.
        assert_eq!(pipeline.stall_reason(false, false, 5, SeqNum(4)), StallReason::None);
    }

    #[test]
    fn striped_pipeline_walks_its_residue_class() {
        // Stripe 1 of 4: serials 2, 6, 10, …
        let mut pipeline = Pipeline::new(8, 32);
        pipeline.set_stripe(1, 4);
        assert_eq!(pipeline.take_seq(), SeqNum(2));
        assert_eq!(pipeline.take_seq(), SeqNum(6));
        assert_eq!(pipeline.next_seq(), SeqNum(10));
        // A bump to an off-stripe serial aligns up to the class, never down.
        pipeline.bump_next_seq(SeqNum(11));
        assert_eq!(pipeline.next_seq(), SeqNum(14));
        pipeline.bump_next_seq(SeqNum(14));
        assert_eq!(pipeline.next_seq(), SeqNum(14));
        // Re-anchoring to another stripe (a view change rotated the schedule)
        // advances to that stripe's next serial.
        pipeline.set_stripe(0, 4);
        assert_eq!(pipeline.next_seq(), SeqNum(17));
        // Every serial it takes lies on its stripe.
        assert_eq!(pipeline.take_seq().stripe(4), 0);
    }

    #[test]
    fn single_stripe_is_the_classic_pipeline() {
        // `set_stripe(0, 1)` must not perturb the sequential counter at all.
        let mut pipeline = Pipeline::new(4, 4);
        pipeline.set_stripe(0, 1);
        assert_eq!(pipeline.take_seq(), SeqNum(1));
        assert_eq!(pipeline.take_seq(), SeqNum(2));
        pipeline.bump_next_seq(SeqNum(9));
        assert_eq!(pipeline.next_seq(), SeqNum(9));
    }

    #[test]
    fn bump_next_seq_is_monotonic() {
        let mut pipeline = Pipeline::new(4, 4);
        pipeline.bump_next_seq(SeqNum(7));
        assert_eq!(pipeline.next_seq(), SeqNum(7));
        pipeline.bump_next_seq(SeqNum(3));
        assert_eq!(pipeline.next_seq(), SeqNum(7));
        assert_eq!(pipeline.take_seq(), SeqNum(7));
        assert_eq!(pipeline.next_seq(), SeqNum(8));
    }

    #[test]
    fn get_mut_finds_only_inserted_instances() {
        let mut pipeline = Pipeline::new(4, 4);
        let s1 = pipeline.take_seq();
        pipeline.insert(s1, instance(s1));
        let digest = instance(s1).block_digest;
        assert_eq!(
            pipeline.get_mut(s1).map(|found| found.block_digest),
            Some(digest)
        );
        assert!(pipeline.get_mut(SeqNum(99)).is_none());
        pipeline.prune_through(s1);
        assert!(pipeline.get_mut(s1).is_none());
    }
}
