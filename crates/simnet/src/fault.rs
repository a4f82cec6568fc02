//! Fault injection: the selective attack, crash/restart schedules and region partitions.
//!
//! The paper's Byzantine experiments need three kinds of interference below the
//! protocol level: *selective dissemination* (a faulty replica sends its datablocks
//! only to a subset of replicas — §IV "Datablock Retrieval"), *crashes* (the leader is
//! stopped to trigger a view-change — §VI-D, optionally restarting later to exercise
//! the state-transfer catch-up path), and *region partitions* (a whole region of a
//! [`crate::network::Topology`] is cut off for a time window and healed, the classic
//! partial-synchrony disruption). Protocol-level misbehaviour (equivocation, vote
//! withholding) is implemented inside the protocol crates; this module only interferes
//! with message delivery.

use crate::time::{SimDuration, SimTime};
use leopard_types::NodeId;

/// The severed windows of a flapping partition: `cycles` repetitions of
/// `period`, each severed for the first `duty` fraction and healed for the rest.
/// Cycle `k` is severed over `[start + k·period, start + k·period + duty·period)`.
/// The harness scenario builder feeds each window to [`FaultPlan::with_partition`].
///
/// # Panics
///
/// Panics if `cycles` is zero, `period` is zero, or `duty` is outside `(0, 1)`
/// (a full-duty cycle would fuse adjacent windows into one long partition and a
/// zero-duty cycle would sever nothing — both are almost certainly configuration
/// mistakes).
pub fn flapping_windows(
    start: SimTime,
    period: SimDuration,
    duty: f64,
    cycles: usize,
) -> Vec<(SimTime, SimTime)> {
    assert!(cycles > 0, "flapping_windows: need at least one cycle");
    assert!(period.as_nanos() > 0, "flapping_windows: period must be positive");
    assert!(
        duty > 0.0 && duty < 1.0,
        "flapping_windows: duty fraction {duty} must lie strictly between 0 and 1"
    );
    let severed = (period.as_nanos() as f64 * duty) as u64;
    assert!(
        severed > 0 && severed < period.as_nanos(),
        "flapping_windows: duty fraction {duty} of period {period:?} leaves no whole \
         nanosecond severed or healed"
    );
    (0..cycles)
        .map(|k| {
            let at = start + SimDuration::from_nanos(k as u64 * period.as_nanos());
            (at, at + SimDuration::from_nanos(severed))
        })
        .collect()
}

/// The fate of a message decided by a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageFate {
    /// Deliver normally.
    Deliver,
    /// Silently drop the message. The sender still pays the uplink cost (it did send the
    /// bytes); the receiver never sees it.
    Drop,
}

/// One crash window: the node is down from `at` until `until` (or forever when
/// `until` is `None`). While down it neither sends nor receives messages and its
/// timers do not fire; a finite window ends with a restart callback
/// ([`crate::Protocol::on_restart`]) at exactly `until`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashWindow {
    /// The crashed node.
    pub node: NodeId,
    /// Crash instant (inclusive: the node is already down at `at`).
    pub at: SimTime,
    /// Restart instant (exclusive: the node is back up at `until`), or `None` for a
    /// permanent crash.
    pub until: Option<SimTime>,
}

impl CrashWindow {
    /// True if this window has `node` down at `now` — the crash-coverage rule behind
    /// [`FaultPlan::is_crashed`].
    pub fn covers(&self, node: NodeId, now: SimTime) -> bool {
        self.node == node && now >= self.at && self.until.map_or(true, |until| now < until)
    }
}

/// One region-level partition window: all traffic between `region_a` and `region_b`
/// is dropped for `at <= now < until` (symmetric, both directions). Senders still pay
/// the uplink cost for the lost bytes, like any other [`MessageFate::Drop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionWindow {
    /// First region of the severed pair.
    pub region_a: usize,
    /// Second region of the severed pair.
    pub region_b: usize,
    /// Start of the partition (inclusive).
    pub at: SimTime,
    /// Heal instant (exclusive: traffic flows again at `until`).
    pub until: SimTime,
}

impl PartitionWindow {
    /// True if this window severs the (unordered) region pair at `now`.
    fn severs(&self, now: SimTime, a: usize, b: usize) -> bool {
        let pair_matches = (self.region_a == a && self.region_b == b)
            || (self.region_a == b && self.region_b == a);
        pair_matches && now >= self.at && now < self.until
    }
}

/// The selective attack of the paper (see [`FaultPlan::selective_attack`]). It
/// discriminates by message category, so it needs nothing of the concrete protocol
/// message type.
#[derive(Debug)]
struct SelectiveAttack {
    faulty: Vec<NodeId>,
    category: &'static str,
    keep: usize,
}

impl SelectiveAttack {
    fn judge(&self, from: NodeId, to: NodeId, category: &'static str) -> MessageFate {
        if category != self.category {
            return MessageFate::Deliver;
        }
        let from_faulty = self.faulty.contains(&from);
        let to_faulty = self.faulty.contains(&to);
        if from_faulty && to.as_index() >= self.keep {
            // Faulty producer only serves a small subset.
            MessageFate::Drop
        } else if to_faulty && !from_faulty {
            // Faulty replicas pretend not to receive honest datablocks.
            MessageFate::Drop
        } else {
            MessageFate::Deliver
        }
    }
}

/// A plan describing which messages to drop, which nodes crash (and restart) when,
/// and which region pairs are partitioned over which windows.
#[derive(Debug)]
pub struct FaultPlan {
    attack: Option<SelectiveAttack>,
    crashes: Vec<CrashWindow>,
    partitions: Vec<PartitionWindow>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// No faults: every message is delivered, no node crashes, no partitions.
    pub fn none() -> Self {
        Self {
            attack: None,
            crashes: Vec::new(),
            partitions: Vec::new(),
        }
    }

    /// Schedules `node` to crash permanently at `at`: from that instant it neither
    /// sends nor receives messages and its timers stop firing.
    ///
    /// Node-range validation happens in [`crate::Simulation::new`], where `n` is known.
    pub fn with_crash(mut self, node: NodeId, at: SimTime) -> Self {
        self.crashes.push(CrashWindow { node, at, until: None });
        self
    }

    /// Schedules `node` to crash at `at` and restart at `until`: the window behaves
    /// like [`Self::with_crash`] while it lasts, then the engine calls
    /// [`crate::Protocol::on_restart`] on the node at `until` and delivery resumes.
    /// Timers set before the crash never fire after the restart (the process died);
    /// the restart callback must re-arm whatever it needs.
    ///
    /// # Panics
    ///
    /// Panics if the window is inverted (`until <= at`). Node-range validation happens
    /// in [`crate::Simulation::new`], where `n` is known.
    pub fn with_crash_restart(mut self, node: NodeId, at: SimTime, until: SimTime) -> Self {
        assert!(
            until > at,
            "with_crash_restart: restart instant {until} must lie after the crash instant {at}"
        );
        self.crashes.push(CrashWindow {
            node,
            at,
            until: Some(until),
        });
        self
    }

    /// Severs all traffic between `region_a` and `region_b` (symmetric) for
    /// `from <= now < until` — a full region partition healed at `until`. To isolate a
    /// region of a `k`-region topology entirely, add the `k - 1` pairwise windows.
    ///
    /// # Panics
    ///
    /// Panics if the window is inverted (`until <= from`) or the two regions are the
    /// same. Region-range validation happens in [`crate::Simulation::new`], where the
    /// topology is known.
    pub fn with_partition(
        mut self,
        region_a: usize,
        region_b: usize,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        assert!(
            until > from,
            "with_partition: heal instant {until} must lie after the partition instant {from}"
        );
        assert!(
            region_a != region_b,
            "with_partition: cannot partition region {region_a} from itself"
        );
        self.partitions.push(PartitionWindow {
            region_a,
            region_b,
            at: from,
            until,
        });
        self
    }

    /// The selective attack of the paper: every faulty replica (the experiments pick the
    /// highest-numbered non-leader replicas) sends messages of the given category only
    /// to the `keep` lowest-numbered replicas (which include the leader), and drops that
    /// category entirely when it is inbound from honest replicas.
    pub fn selective_attack(
        faulty: Vec<NodeId>,
        category: &'static str,
        keep: usize,
    ) -> Self {
        Self {
            attack: Some(SelectiveAttack {
                faulty,
                category,
                keep,
            }),
            ..Self::none()
        }
    }

    /// Decides the fate of one message of `category` from `from` to `to` at `now`.
    pub fn judge(
        &self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        category: &'static str,
    ) -> MessageFate {
        if self.is_crashed(from, now) || self.is_crashed(to, now) {
            return MessageFate::Drop;
        }
        match &self.attack {
            Some(attack) => attack.judge(from, to, category),
            None => MessageFate::Deliver,
        }
    }

    /// True if `node` is down at `now` (inside any crash window; a restarting window
    /// is half-open, so the node is back up exactly at its restart instant).
    pub fn is_crashed(&self, node: NodeId, now: SimTime) -> bool {
        self.crashes.iter().any(|window| window.covers(node, now))
    }

    /// True if the (unordered) region pair `(a, b)` is severed at `now`.
    pub fn is_partitioned(&self, now: SimTime, a: usize, b: usize) -> bool {
        self.partitions.iter().any(|window| window.severs(now, a, b))
    }

    /// True if any partition window is configured (lets the engine skip the region
    /// lookup entirely on partition-free runs).
    pub fn has_partitions(&self) -> bool {
        !self.partitions.is_empty()
    }

    /// The configured crash windows, in insertion order.
    pub fn crash_windows(&self) -> &[CrashWindow] {
        &self.crashes
    }

    /// The configured partition windows, in insertion order.
    pub fn partitions(&self) -> &[PartitionWindow] {
        &self.partitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_delivers_everything() {
        let plan = FaultPlan::none();
        assert_eq!(
            plan.judge(SimTime(0), NodeId(0), NodeId(1), "datablock"),
            MessageFate::Deliver
        );
        assert!(!plan.is_crashed(NodeId(0), SimTime(1_000_000)));
        assert!(!plan.is_partitioned(SimTime(0), 0, 1));
        assert!(!plan.has_partitions());
    }

    #[test]
    fn crash_drops_messages_after_the_crash_instant() {
        let plan = FaultPlan::none().with_crash(NodeId(2), SimTime(1000));
        assert_eq!(
            plan.judge(SimTime(999), NodeId(2), NodeId(0), "vote"),
            MessageFate::Deliver
        );
        assert_eq!(
            plan.judge(SimTime(1000), NodeId(2), NodeId(0), "vote"),
            MessageFate::Drop
        );
        assert_eq!(
            plan.judge(SimTime(2000), NodeId(0), NodeId(2), "vote"),
            MessageFate::Drop
        );
        assert!(plan.is_crashed(NodeId(2), SimTime(1500)));
        assert_eq!(
            plan.crash_windows(),
            &[CrashWindow {
                node: NodeId(2),
                at: SimTime(1000),
                until: None,
            }]
        );
    }

    #[test]
    fn crash_restart_window_is_half_open() {
        let plan = FaultPlan::none().with_crash_restart(NodeId(1), SimTime(1000), SimTime(5000));
        assert!(!plan.is_crashed(NodeId(1), SimTime(999)));
        assert!(plan.is_crashed(NodeId(1), SimTime(1000)));
        assert!(plan.is_crashed(NodeId(1), SimTime(4999)));
        // Back up exactly at the restart instant.
        assert!(!plan.is_crashed(NodeId(1), SimTime(5000)));
        assert_eq!(plan.crash_windows().len(), 1);
        assert_eq!(plan.crash_windows()[0].until, Some(SimTime(5000)));
    }

    #[test]
    #[should_panic(expected = "with_crash_restart: restart instant")]
    fn inverted_crash_restart_window_panics() {
        let _ = FaultPlan::none().with_crash_restart(NodeId(0), SimTime(5000), SimTime(1000));
    }

    #[test]
    fn partition_windows_sever_symmetrically_and_heal() {
        let plan = FaultPlan::none().with_partition(0, 2, SimTime(100), SimTime(200));
        assert!(plan.has_partitions());
        assert!(!plan.is_partitioned(SimTime(99), 0, 2));
        assert!(plan.is_partitioned(SimTime(100), 0, 2));
        // Symmetric: the reversed pair is severed too.
        assert!(plan.is_partitioned(SimTime(150), 2, 0));
        // Other pairs are unaffected.
        assert!(!plan.is_partitioned(SimTime(150), 0, 1));
        assert!(!plan.is_partitioned(SimTime(150), 1, 2));
        // Healed exactly at `until`.
        assert!(!plan.is_partitioned(SimTime(200), 0, 2));
        // The partition check is orthogonal to the selective attack.
        assert_eq!(
            plan.judge(SimTime(150), NodeId(0), NodeId(2), "vote"),
            MessageFate::Deliver
        );
        assert_eq!(plan.partitions().len(), 1);
    }

    #[test]
    #[should_panic(expected = "with_partition: heal instant")]
    fn inverted_partition_window_panics() {
        let _ = FaultPlan::none().with_partition(0, 1, SimTime(200), SimTime(100));
    }

    #[test]
    #[should_panic(expected = "with_partition: cannot partition region 1 from itself")]
    fn self_partition_panics() {
        let _ = FaultPlan::none().with_partition(1, 1, SimTime(0), SimTime(100));
    }

    /// One [`FaultPlan::with_partition`] window per [`flapping_windows`] cycle of
    /// 1000 ns, as the harness scenario builder assembles a flapping link.
    fn flapping_plan(region_a: usize, region_b: usize, start: SimTime, duty: f64, cycles: usize) -> FaultPlan {
        flapping_windows(start, SimDuration::from_nanos(1000), duty, cycles)
            .into_iter()
            .fold(FaultPlan::none(), |plan, (at, until)| {
                plan.with_partition(region_a, region_b, at, until)
            })
    }

    #[test]
    fn flapping_partition_severs_and_heals_each_cycle() {
        // 3 cycles of 1000 ns, severed for the first 400 ns of each.
        let plan = flapping_plan(0, 1, SimTime(2000), 0.4, 3);
        assert_eq!(plan.partitions().len(), 3);
        for k in 0..3u64 {
            let base = 2000 + k * 1000;
            assert!(!plan.is_partitioned(SimTime(base - 1), 0, 1), "cycle {k} starts early");
            assert!(plan.is_partitioned(SimTime(base), 0, 1), "cycle {k} not severed");
            assert!(plan.is_partitioned(SimTime(base + 399), 0, 1), "cycle {k} healed early");
            assert!(!plan.is_partitioned(SimTime(base + 400), 0, 1), "cycle {k} healed late");
            assert!(!plan.is_partitioned(SimTime(base + 999), 0, 1), "cycle {k} gap severed");
        }
        // Nothing flaps after the last cycle.
        assert!(!plan.is_partitioned(SimTime(5000), 0, 1));
    }

    #[test]
    fn flapping_windows_are_disjoint_and_ordered() {
        // Adjacent windows must never touch: each cycle keeps a healed gap, so the
        // state-sync path genuinely observes a heal edge between severed spans.
        let windows =
            flapping_windows(SimTime(0), SimDuration::from_nanos(10), 0.9, 5);
        assert_eq!(windows.len(), 5);
        for pair in windows.windows(2) {
            assert!(pair[0].1 < pair[1].0, "windows {pair:?} overlap or touch");
        }
        // Duty 0.9 of 10 ns severs 9 ns and heals 1 ns.
        assert_eq!(windows[0], (SimTime(0), SimTime(9)));
        assert_eq!(windows[4], (SimTime(40), SimTime(49)));
    }

    #[test]
    #[should_panic(expected = "flapping_windows: duty fraction")]
    fn full_duty_flapping_panics() {
        let _ = flapping_windows(SimTime(0), SimDuration::from_nanos(1000), 1.0, 2);
    }

    #[test]
    #[should_panic(expected = "flapping_windows: duty fraction")]
    fn zero_duty_flapping_panics() {
        let _ = flapping_windows(SimTime(0), SimDuration::from_nanos(1000), 0.0, 2);
    }

    #[test]
    #[should_panic(expected = "flapping_windows: need at least one cycle")]
    fn zero_cycle_flapping_panics() {
        let _ = flapping_windows(SimTime(0), SimDuration::from_nanos(1000), 0.5, 0);
    }

    #[test]
    #[should_panic(expected = "with_partition: cannot partition region 2 from itself")]
    fn self_region_flapping_panics() {
        let _ = flapping_plan(2, 2, SimTime(0), 0.5, 2);
    }

    #[test]
    fn selective_attack_filters_only_the_target_category() {
        let faulty = vec![NodeId(3)];
        let plan = FaultPlan::selective_attack(faulty, "datablock", 2);
        // Faulty producer -> low-numbered replica: delivered.
        assert_eq!(
            plan.judge(SimTime(0), NodeId(3), NodeId(0), "datablock"),
            MessageFate::Deliver
        );
        // Faulty producer -> high-numbered replica: dropped.
        assert_eq!(
            plan.judge(SimTime(0), NodeId(3), NodeId(2), "datablock"),
            MessageFate::Drop
        );
        // Honest producer -> faulty replica: dropped (pretends not to receive).
        assert_eq!(
            plan.judge(SimTime(0), NodeId(1), NodeId(3), "datablock"),
            MessageFate::Drop
        );
        // Other categories unaffected.
        assert_eq!(
            plan.judge(SimTime(0), NodeId(3), NodeId(2), "vote"),
            MessageFate::Deliver
        );
        // Honest to honest unaffected.
        assert_eq!(
            plan.judge(SimTime(0), NodeId(0), NodeId(2), "datablock"),
            MessageFate::Deliver
        );
    }
}
