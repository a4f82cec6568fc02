//! The always-on invariant checker: every scenario run, Leopard or HotStuff, ends with
//! a pure check over a snapshot of the replicas' states, and any violation fails the
//! run.
//!
//! Four invariant families are checked (see `DESIGN.md` §8):
//!
//! * **Safety** — no two honest replicas confirm conflicting content at the same
//!   serial number, ever: the linked datablocks of a Leopard BFTblock, the block
//!   digest of a HotStuff height. A fork here would mean the quorum intersection
//!   argument of the protocol was broken (or the implementation equivocated its own
//!   log).
//! * **Liveness** — after the system has quiesced (the last scheduled fault has
//!   fired, every partition has healed), every honest live replica keeps
//!   confirming requests; none may stall longer than a configurable bound.
//! * **Retrieval completeness** — every datablock linked by a confirmed BFTblock
//!   above a replica's low watermark is either already in that replica's pool or
//!   still recoverable from the pools of at least `f + 1` honest live replicas
//!   (the erasure-coded retrieval plane needs `f + 1` honest chunks to rebuild).
//!   HotStuff blocks carry their own payload, so this clause has nothing to check there.
//! * **View-change thrash** — the number of views honest replicas burn through is
//!   bounded by the number of scheduled disturbances: a recovery that consumes
//!   views far in excess of the faults that provoked them is a view-change
//!   livelock even if requests eventually confirm.
//!
//! The checker is deliberately split into a *snapshot* (extracted from a live
//! [`Simulation`]) and a *pure* [`SystemSnapshot::check`] over it, so the
//! mutation tests below can seed known-bad states (a forked log, a permanent
//! stall, an unretrievable datablock) and prove the checker flags each one.

use crate::scenario::ScenarioProtocol;
use leopard_crypto::Digest;
use leopard_simnet::{SimDuration, SimTime, Simulation};
use leopard_types::{fault_bound, BftBlock, FastSet, NodeId};
use std::fmt;
use std::sync::Arc;

/// One invariant violation found by [`SystemSnapshot::check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Two honest replicas confirmed conflicting blocks at the same serial.
    SafetyFork {
        /// The serial number both replicas hold a block for.
        seq: u64,
        /// The first replica of the conflicting pair.
        node_a: NodeId,
        /// Digest of the block `node_a` holds at `seq`.
        digest_a: Digest,
        /// The second replica of the conflicting pair.
        node_b: NodeId,
        /// Digest of the block `node_b` holds at `seq`.
        digest_b: Digest,
    },
    /// An honest live replica stopped confirming requests for longer than the
    /// stall bound after the system quiesced.
    LivenessStall {
        /// The stalled replica.
        node: NodeId,
        /// Its last confirmation instant (or the quiesce instant if it never
        /// confirmed after the last fault).
        last_progress: SimTime,
        /// How long it had been stalled at the end of the run.
        stalled_for: SimDuration,
        /// The bound it exceeded.
        bound: SimDuration,
    },
    /// A datablock linked by a confirmed BFTblock is neither in the replica's own
    /// pool nor held by enough honest live replicas to be recoverable.
    UnretrievableDatablock {
        /// The replica that still needs the datablock.
        node: NodeId,
        /// Serial number of the BFTblock linking it.
        seq: u64,
        /// Digest of the missing datablock.
        link: Digest,
        /// How many honest live replicas hold it.
        holders: usize,
        /// How many are needed (`f + 1`).
        needed: usize,
    },
    /// Honest replicas consumed more views than the scheduled disturbances justify —
    /// a view-change livelock (thrash) rather than a recovery.
    ViewChangeThrash {
        /// The honest replica that reached the highest view.
        node: NodeId,
        /// Views it entered beyond the initial one.
        views_entered: u64,
        /// The bound it exceeded.
        bound: u64,
        /// The number of scheduled disturbances the bound was derived from.
        disturbances: usize,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::SafetyFork {
                seq,
                node_a,
                digest_a,
                node_b,
                digest_b,
            } => write!(
                f,
                "safety fork at seq {seq}: node {} holds {digest_a}, node {} holds {digest_b}",
                node_a.0, node_b.0
            ),
            Violation::LivenessStall {
                node,
                last_progress,
                stalled_for,
                bound,
            } => write!(
                f,
                "liveness stall at node {}: no confirmation since {last_progress} \
                 ({stalled_for} > bound {bound})",
                node.0
            ),
            Violation::UnretrievableDatablock {
                node,
                seq,
                link,
                holders,
                needed,
            } => write!(
                f,
                "unretrievable datablock {link} (linked at seq {seq}): node {} lacks it and \
                 only {holders}/{needed} honest live replicas hold it",
                node.0
            ),
            Violation::ViewChangeThrash {
                node,
                views_entered,
                bound,
                disturbances,
            } => write!(
                f,
                "view-change thrash at node {}: {views_entered} views entered > bound {bound} \
                 for {disturbances} disturbance(s)",
                node.0
            ),
        }
    }
}

/// One replica's state distilled to what the invariants need.
#[derive(Debug, Clone)]
pub struct ReplicaSnapshot {
    /// The replica's identifier.
    pub node: NodeId,
    /// False for replicas configured with a Byzantine behaviour — their state is
    /// excluded from every invariant (a Byzantine log may say anything).
    pub honest: bool,
    /// False for replicas that are crashed at the end of the run.
    pub live: bool,
    /// The replica's stable checkpoint (entries at or below it may be pruned).
    pub low_watermark: u64,
    /// When the replica last confirmed requests, if ever.
    pub last_confirmation_at: Option<SimTime>,
    /// The view the replica ended the run in (views start at 1).
    pub view: u64,
    /// The confirmed log.
    pub log: ConfirmedLog,
    /// Digests of the datablocks in the replica's pool.
    pub pool: FastSet<Digest>,
}

/// A replica's confirmed log, in its protocol's shape.
#[derive(Debug, Clone)]
pub enum ConfirmedLog {
    /// Leopard: `(seq, BFTblock)`, the replica's own blocks shared, not copied. Honest
    /// replicas must agree on the links: a view change re-proposes the same links under
    /// a new block digest (the digest covers the view).
    Linked(Vec<(u64, Arc<BftBlock>)>),
    /// HotStuff: `(height, block digest)`, the replica's own committed log shared, not
    /// copied. Honest replicas must agree on the digest: chained blocks are never
    /// re-proposed.
    Chained(Arc<Vec<(u64, Digest)>>),
}

impl ConfirmedLog {
    /// `(seq, block digest, what honest replicas must agree on)` per entry.
    fn entries(&self) -> impl Iterator<Item = (u64, Digest, &[Digest])> + '_ {
        // One chain over both shapes, the other one empty, so both arms share a type.
        let (linked, chained) = match self {
            Self::Linked(log) => (&log[..], &[][..]),
            Self::Chained(log) => (&[][..], &log[..]),
        };
        let chained = chained.iter().map(|(seq, d)| (*seq, *d, std::slice::from_ref(d)));
        linked.iter().map(|(seq, block)| (*seq, block.digest(), &block.links[..])).chain(chained)
    }
}

/// A checkable snapshot of the whole system at the end of a run.
#[derive(Debug, Clone)]
pub struct SystemSnapshot {
    /// Number of replicas.
    pub n: usize,
    /// The fault bound `f = ⌊(n − 1) / 3⌋`.
    pub f: usize,
    /// Simulated time at the end of the run.
    pub end_time: SimTime,
    /// The instant the last scheduled disturbance ended (crash instants, restart
    /// instants, partition heals). The liveness invariant only binds after this.
    pub quiet_after: SimTime,
    /// Longest tolerated confirmation stall after [`Self::quiet_after`].
    pub stall_bound: SimDuration,
    /// Number of scheduled disturbances (crash/restart windows, partition windows,
    /// Byzantine replicas, a leader crash) the run was configured with; recorded in
    /// any thrash violation so the bound is explicable.
    pub disturbances: usize,
    /// Most views honest replicas may enter beyond the initial one.
    pub view_thrash_bound: u64,
    /// Per-replica snapshots, indexed by node id.
    pub replicas: Vec<ReplicaSnapshot>,
}

impl SystemSnapshot {
    /// Extracts a snapshot from a finished (but not yet consumed) simulation.
    ///
    /// `quiet_after` should be the latest instant any scheduled fault acts (see
    /// [`crate::ScenarioConfig::quiet_after`]); `stall_bound` the longest tolerated
    /// post-quiesce confirmation gap.
    pub fn capture<P: ScenarioProtocol>(
        sim: &Simulation<P>,
        n: usize,
        quiet_after: SimTime,
        stall_bound: SimDuration,
        disturbances: usize,
        view_thrash_bound: u64,
    ) -> Self {
        let end_time = sim.now();
        let f = fault_bound(n);
        let replicas = (0..n as u32)
            .map(NodeId)
            .map(|node| sim.node(node).snapshot(node, !sim.faults().is_crashed(node, end_time)))
            .collect();
        Self {
            n,
            f,
            end_time,
            quiet_after,
            stall_bound,
            disturbances,
            view_thrash_bound,
            replicas,
        }
    }

    /// Runs every invariant and returns the violations found (empty = all good).
    pub fn check(&self) -> Vec<Violation> {
        let mut violations = Vec::new();
        self.check_safety(&mut violations);
        self.check_liveness(&mut violations);
        self.check_retrieval(&mut violations);
        self.check_view_thrash(&mut violations);
        violations
    }

    fn honest_replicas(&self) -> impl Iterator<Item = &ReplicaSnapshot> + '_ {
        self.replicas.iter().filter(|r| r.honest)
    }

    /// Safety: for every serial number, all honest replicas that hold a confirmed
    /// block there committed the *same content* (see [`ConfirmedLog`]: the linked
    /// datablocks of Leopard, the block digest of HotStuff). Divergent content —
    /// including a Leopard dummy block replacing a confirmed one — is the violation.
    /// Crashed replicas are included — a crash must never un-confirm anything.
    fn check_safety(&self, violations: &mut Vec<Violation>) {
        use std::collections::HashMap;
        // seq -> first (node, digest, content) seen; every later holder must match it.
        let mut canonical: HashMap<u64, (NodeId, Digest, &[Digest])> = HashMap::new();
        let mut forked: FastSet<u64> = FastSet::default();
        for replica in self.honest_replicas() {
            for (seq, digest, content) in replica.log.entries() {
                match canonical.get(&seq) {
                    None => {
                        canonical.insert(seq, (replica.node, digest, content));
                    }
                    Some(&(node_a, digest_a, content_a)) => {
                        if content_a != content && forked.insert(seq) {
                            violations.push(Violation::SafetyFork {
                                seq,
                                node_a,
                                digest_a,
                                node_b: replica.node,
                                digest_b: digest,
                            });
                        }
                    }
                }
            }
        }
    }

    /// Liveness: once the run outlasts `quiet_after` by more than the stall bound,
    /// every honest live replica's last confirmation must be within the bound of
    /// the end of the run.
    fn check_liveness(&self, violations: &mut Vec<Violation>) {
        if self.end_time.saturating_since(self.quiet_after) <= self.stall_bound {
            // The run ended too soon after the last disturbance to judge.
            return;
        }
        for replica in self.honest_replicas().filter(|r| r.live) {
            let last_progress = replica
                .last_confirmation_at
                .map_or(self.quiet_after, |at| at.max(self.quiet_after));
            let stalled_for = self.end_time.saturating_since(last_progress);
            if stalled_for > self.stall_bound {
                violations.push(Violation::LivenessStall {
                    node: replica.node,
                    last_progress,
                    stalled_for,
                    bound: self.stall_bound,
                });
            }
        }
    }

    /// Retrieval completeness: every datablock linked by a confirmed BFTblock above
    /// a replica's own low watermark (below it the link may be legitimately pruned)
    /// is in that replica's pool or held by ≥ `f + 1` honest live replicas.
    fn check_retrieval(&self, violations: &mut Vec<Violation>) {
        let needed = self.f + 1;
        for replica in self.honest_replicas().filter(|r| r.live) {
            let ConfirmedLog::Linked(log) = &replica.log else {
                continue;
            };
            for (seq, block) in log {
                if *seq <= replica.low_watermark {
                    continue;
                }
                for link in &block.links {
                    if replica.pool.contains(link) {
                        continue;
                    }
                    let holders = self
                        .honest_replicas()
                        .filter(|r| r.live && r.pool.contains(link))
                        .count();
                    if holders < needed {
                        violations.push(Violation::UnretrievableDatablock {
                            node: replica.node,
                            seq: *seq,
                            link: *link,
                            holders,
                            needed,
                        });
                    }
                }
            }
        }
    }

    /// View-change thrash: no honest replica may end the run more than
    /// `view_thrash_bound` views past the initial one. Crashed honest replicas are
    /// included — their view is at most stale (too low), never spuriously high, so
    /// they can only under-report, not false-positive.
    fn check_view_thrash(&self, violations: &mut Vec<Violation>) {
        let Some(worst) = self.honest_replicas().max_by_key(|r| r.view) else {
            return;
        };
        let views_entered = worst.view.saturating_sub(1);
        if views_entered > self.view_thrash_bound {
            violations.push(Violation::ViewChangeThrash {
                node: worst.node,
                views_entered,
                bound: self.view_thrash_bound,
                disturbances: self.disturbances,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leopard_crypto::hash_bytes;
    use leopard_types::{SeqNum, View};

    fn digest(tag: &str) -> Digest {
        hash_bytes(tag.as_bytes())
    }

    /// The BFTblock of `view` at `seq` linking the datablocks tagged `links`.
    fn block(view: u64, seq: u64, links: &[&str]) -> Arc<BftBlock> {
        let links = links.iter().map(|tag| digest(tag)).collect();
        Arc::new(BftBlock::new(View(view), SeqNum(seq), links))
    }

    fn linked(replica: &mut ReplicaSnapshot) -> &mut Vec<(u64, Arc<BftBlock>)> {
        match &mut replica.log {
            ConfirmedLog::Linked(log) => log,
            ConfirmedLog::Chained(_) => unreachable!("the healthy snapshot is Leopard-shaped"),
        }
    }

    /// A healthy 4-replica system: identical logs (every replica shares the same two
    /// blocks, as replicas do), every link everywhere, fresh confirmations.
    fn healthy_snapshot() -> SystemSnapshot {
        let link_a = digest("link-a");
        let link_b = digest("link-b");
        let block_1 = block(1, 1, &["link-a"]);
        let block_2 = block(1, 2, &["link-b"]);
        let replicas = (0..4)
            .map(|i| ReplicaSnapshot {
                node: NodeId(i),
                honest: true,
                live: true,
                low_watermark: 0,
                last_confirmation_at: Some(SimTime(4_900_000_000)),
                view: 1,
                log: ConfirmedLog::Linked(vec![(1, block_1.clone()), (2, block_2.clone())]),
                pool: [link_a, link_b].into_iter().collect(),
            })
            .collect();
        SystemSnapshot {
            n: 4,
            f: 1,
            end_time: SimTime(5_000_000_000),
            quiet_after: SimTime(1_000_000_000),
            stall_bound: SimDuration::from_secs(2),
            disturbances: 1,
            view_thrash_bound: 8,
            replicas,
        }
    }

    #[test]
    fn healthy_snapshot_has_no_violations() {
        assert_eq!(healthy_snapshot().check(), Vec::new());
    }

    #[test]
    fn checker_flags_a_forked_log() {
        let mut snapshot = healthy_snapshot();
        // Mutation: replica 3 confirmed a different block at seq 2 — different
        // digest AND different committed content.
        let evil = block(1, 2, &["evil-payload-2"]);
        linked(&mut snapshot.replicas[3])[1].1 = evil.clone();
        let violations = snapshot.check();
        let honest = block(1, 2, &["link-b"]).digest();
        assert!(
            violations.iter().any(|v| *v
                == Violation::SafetyFork {
                    seq: 2,
                    node_a: NodeId(0),
                    digest_a: honest,
                    node_b: NodeId(3),
                    digest_b: evil.digest(),
                }),
            "fork not flagged: {violations:?}"
        );
        // The same fork is reported once, not once per honest observer pair.
        let forks = violations
            .iter()
            .filter(|v| matches!(v, Violation::SafetyFork { .. }))
            .count();
        assert_eq!(forks, 1);
    }

    #[test]
    fn byzantine_logs_are_excluded_from_safety() {
        let mut snapshot = healthy_snapshot();
        linked(&mut snapshot.replicas[3])[1].1 = block(1, 2, &["evil-payload-2"]);
        assert!(!snapshot.check().is_empty());
        // The same divergent log on a Byzantine replica says nothing.
        snapshot.replicas[3].honest = false;
        assert_eq!(snapshot.check(), Vec::new());
    }

    #[test]
    fn checker_flags_a_permanent_stall() {
        let mut snapshot = healthy_snapshot();
        // Mutation: replica 2 stopped confirming right after the quiesce instant.
        snapshot.replicas[2].last_confirmation_at = Some(SimTime(1_100_000_000));
        let violations = snapshot.check();
        assert!(
            violations.iter().any(|v| matches!(
                v,
                Violation::LivenessStall { node: NodeId(2), .. }
            )),
            "stall not flagged: {violations:?}"
        );
    }

    #[test]
    fn never_confirming_after_quiesce_is_a_stall() {
        let mut snapshot = healthy_snapshot();
        snapshot.replicas[1].last_confirmation_at = None;
        let violations = snapshot.check();
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::LivenessStall { node: NodeId(1), .. })));
    }

    #[test]
    fn reproposed_blocks_with_identical_links_are_not_a_fork() {
        let mut snapshot = healthy_snapshot();
        // A view change re-proposed seq 2 under the new view at replica 3: the block
        // digest changes (it covers the view) but the committed content is identical.
        let reproposal = block(2, 2, &["link-b"]);
        assert_ne!(reproposal.digest(), linked(&mut snapshot.replicas[0])[1].1.digest());
        linked(&mut snapshot.replicas[3])[1].1 = reproposal;
        assert_eq!(snapshot.check(), Vec::new());
    }

    #[test]
    fn a_dummy_replacing_a_confirmed_block_is_a_fork() {
        let mut snapshot = healthy_snapshot();
        // A second view change filled seq 2 with a dummy at replica 3, although the
        // others confirmed real content there.
        linked(&mut snapshot.replicas[3])[1].1 = Arc::new(BftBlock::dummy(View(3), SeqNum(2)));
        let violations = snapshot.check();
        assert!(
            violations.iter().any(|v| matches!(
                v,
                Violation::SafetyFork { seq: 2, node_b: NodeId(3), .. }
            )),
            "dummy replacement not flagged: {violations:?}"
        );
    }

    #[test]
    fn hotstuff_logs_fork_on_differing_block_digests() {
        let mut snapshot = healthy_snapshot();
        let chain =
            |tip| ConfirmedLog::Chained(Arc::new(vec![(1, digest("block-1")), (2, digest(tip))]));
        for replica in &mut snapshot.replicas {
            replica.log = chain("block-2");
            replica.pool.clear(); // HotStuff blocks carry their payload: nothing to retrieve
        }
        assert_eq!(snapshot.check(), Vec::new());
        // Mutation: replica 3 committed a different block at height 2.
        snapshot.replicas[3].log = chain("evil-block-2");
        assert_eq!(
            snapshot.check(),
            vec![Violation::SafetyFork {
                seq: 2,
                node_a: NodeId(0),
                digest_a: digest("block-2"),
                node_b: NodeId(3),
                digest_b: digest("evil-block-2"),
            }]
        );
    }

    #[test]
    fn liveness_is_not_judged_on_short_runs() {
        let mut snapshot = healthy_snapshot();
        snapshot.replicas[2].last_confirmation_at = None;
        // The run barely outlasts the last disturbance: no verdict.
        snapshot.quiet_after = SimTime(4_000_000_000);
        assert_eq!(snapshot.check(), Vec::new());
    }

    #[test]
    fn crashed_replicas_are_exempt_from_liveness_but_not_safety() {
        let mut snapshot = healthy_snapshot();
        snapshot.replicas[2].live = false;
        snapshot.replicas[2].last_confirmation_at = None;
        assert_eq!(snapshot.check(), Vec::new());
        // ... but its confirmed log still participates in the fork check.
        linked(&mut snapshot.replicas[2])[0].1 = block(1, 1, &["evil-payload-1"]);
        assert!(snapshot
            .check()
            .iter()
            .any(|v| matches!(v, Violation::SafetyFork { seq: 1, .. })));
    }

    #[test]
    fn checker_flags_an_unretrievable_datablock() {
        let mut snapshot = healthy_snapshot();
        let lost = digest("link-b");
        // Mutation: the datablock behind seq 2 vanished from every pool.
        for replica in &mut snapshot.replicas {
            replica.pool.remove(&lost);
        }
        let violations = snapshot.check();
        assert!(
            violations.iter().any(|v| matches!(
                v,
                Violation::UnretrievableDatablock { seq: 2, holders: 0, needed: 2, .. }
            )),
            "lost datablock not flagged: {violations:?}"
        );
    }

    #[test]
    fn a_quorum_of_holders_keeps_a_missing_link_retrievable() {
        let mut snapshot = healthy_snapshot();
        let link = digest("link-b");
        // Replica 0 is missing the datablock, but f + 1 = 2 honest live peers hold it.
        snapshot.replicas[0].pool.remove(&link);
        snapshot.replicas[1].pool.remove(&link);
        assert_eq!(snapshot.check(), Vec::new());
        // One more loss drops the holder count below f + 1.
        snapshot.replicas[2].pool.remove(&link);
        assert!(!snapshot.check().is_empty());
    }

    #[test]
    fn pruned_entries_below_the_watermark_are_not_checked() {
        let mut snapshot = healthy_snapshot();
        let link = digest("link-a");
        for replica in &mut snapshot.replicas {
            replica.low_watermark = 1; // seq 1 checkpointed and pruned everywhere
            replica.pool.remove(&link);
        }
        assert_eq!(snapshot.check(), Vec::new());
    }

    #[test]
    fn checker_flags_view_change_thrash() {
        let mut snapshot = healthy_snapshot();
        // Mutation: replica 1 ended the run 42 views in — far more than the single
        // scheduled disturbance (bound 8) can explain.
        snapshot.replicas[1].view = 43;
        let violations = snapshot.check();
        assert!(
            violations.iter().any(|v| matches!(
                v,
                Violation::ViewChangeThrash {
                    node: NodeId(1),
                    views_entered: 42,
                    bound: 8,
                    disturbances: 1,
                }
            )),
            "thrash not flagged: {violations:?}"
        );
    }

    #[test]
    fn views_within_the_bound_are_not_thrash() {
        let mut snapshot = healthy_snapshot();
        for replica in &mut snapshot.replicas {
            replica.view = 9; // exactly bound views past the initial view
        }
        assert_eq!(snapshot.check(), Vec::new());
    }

    #[test]
    fn byzantine_views_are_excluded_from_thrash() {
        let mut snapshot = healthy_snapshot();
        snapshot.replicas[3].honest = false;
        snapshot.replicas[3].view = 1000; // a Byzantine replica may claim anything
        assert_eq!(snapshot.check(), Vec::new());
    }

    #[test]
    fn violations_render_readably() {
        let fork = Violation::SafetyFork {
            seq: 7,
            node_a: NodeId(0),
            digest_a: digest("a"),
            node_b: NodeId(1),
            digest_b: digest("b"),
        };
        assert!(fork.to_string().contains("safety fork at seq 7"));
        let stall = Violation::LivenessStall {
            node: NodeId(2),
            last_progress: SimTime(1_000_000_000),
            stalled_for: SimDuration::from_secs(3),
            bound: SimDuration::from_secs(2),
        };
        assert!(stall.to_string().contains("liveness stall at node 2"));
        let lost = Violation::UnretrievableDatablock {
            node: NodeId(3),
            seq: 9,
            link: digest("c"),
            holders: 1,
            needed: 2,
        };
        assert!(lost.to_string().contains("unretrievable datablock"));
        assert!(lost.to_string().contains("1/2"));
        let thrash = Violation::ViewChangeThrash {
            node: NodeId(1),
            views_entered: 40,
            bound: 8,
            disturbances: 1,
        };
        assert!(thrash.to_string().contains("view-change thrash at node 1"));
        assert!(thrash.to_string().contains("40 views entered > bound 8"));
    }
}
