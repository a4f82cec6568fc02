//! Fault-injection integration tests: the selective-dissemination attack (retrieval
//! path), leader crashes (view-change path) and crash-restart catch-up (state-transfer
//! path), exercised through the public scenario API and direct simulation access.

mod common;

use common::{assert_logs_consistent, build_simulation, run};
use leopard::core::byzantine::ByzantineBehavior;
use leopard::core::LeopardReplica;
use leopard::harness::scenario::{run_leopard_scenario, run_scenario, ScenarioConfig};
use leopard::harness::workload::WorkloadConfig;
use leopard::simnet::{FaultPlan, SimDuration, SimTime};
use leopard::types::NodeId;

#[test]
fn selective_attacker_forces_retrievals_but_not_stalls() {
    let config = ScenarioConfig::small(7)
        .with_selective_attackers(2)
        .with_duration(SimDuration::from_secs(4));
    let report = run_leopard_scenario(&config);
    assert!(report.confirmed_requests > 0, "the system stalled");
    assert!(report.retrievals > 0, "no retrieval happened despite the attack");
    assert!(report.average_retrieval_secs.unwrap_or(0.0) < 2.0);
}

/// Without a fault every datablock reaches every replica by dissemination. A replica
/// that notes one missing (the PrePrepare linking it outran the copy) waits two
/// dissemination times before its first query, so the fault-free run retrieves nothing;
/// querying at the next tick of a periodic retrieval timer instead rebuilt 25 datablocks
/// still in flight.
#[test]
fn a_fault_free_run_retrieves_nothing() {
    let report = run_leopard_scenario(&ScenarioConfig::paper(128));
    assert!(report.confirmed_requests > 0, "the system stalled");
    assert_eq!(report.retrievals, 0);
}

#[test]
fn leader_crash_recovers_via_view_change() {
    let config = ScenarioConfig::small(4)
        .with_leader_crash_at(SimDuration::from_millis(400))
        .with_duration(SimDuration::from_secs(6));
    let report = run_leopard_scenario(&config);
    assert!(report.view_changes > 0, "no view change after the leader crash");
    assert!(
        report.average_view_change_secs.is_some(),
        "no replica completed the view change"
    );
    assert!(report.view_change_bytes > 0);
    assert!(report.confirmed_requests > 0, "no progress after recovery");
}

#[test]
fn combined_faults_still_make_progress() {
    let config = ScenarioConfig::small(7)
        .with_selective_attackers(1)
        .with_leader_crash_at(SimDuration::from_secs(1))
        .with_workload(WorkloadConfig {
            aggregate_rps: 3_000,
            payload_size: 128,
        })
        .with_duration(SimDuration::from_secs(8));
    let report = run_leopard_scenario(&config);
    assert!(report.confirmed_requests > 0);
    assert!(report.view_changes > 0);
}

#[test]
fn crash_restart_catches_up_and_logs_agree() {
    let n = 4;
    // Replica 2 (a follower) is down for a full second — long enough for the rest of
    // the cluster to checkpoint past it, forcing catch-up via state transfer rather
    // than ordinary replay.
    let faults = FaultPlan::none().with_crash_restart(
        NodeId(2),
        SimTime::ZERO + SimDuration::from_millis(500),
        SimTime::ZERO + SimDuration::from_millis(1500),
    );
    let mut sim = build_simulation(n, |_, c| c, faults);
    run(&mut sim, 4);
    let rejoined = sim.node(NodeId(2));
    assert!(
        rejoined.last_executed().0 > 0,
        "the restarted replica never executed anything"
    );
    let healthy_head = sim.node(NodeId(0)).last_executed().0;
    assert!(
        healthy_head.saturating_sub(rejoined.last_executed().0) <= 16,
        "the restarted replica never caught back up (at {} vs head {healthy_head})",
        rejoined.last_executed().0
    );
    assert_logs_consistent(&sim, n);
}

/// Runs a crash-restart of replica 2 with one recovery-plane adversary among the
/// peers its catch-up will ask, and asserts the restarted replica still catches up
/// (honest-majority rotation defeats the attacker) with logs consistent. Returns the
/// state-sync bytes the adversary sent.
fn assert_catchup_despite(behaviour: ByzantineBehavior) -> u64 {
    let n = 7;
    let adversary = NodeId(1);
    let faults = FaultPlan::none().with_crash_restart(
        NodeId(2),
        SimTime::ZERO + SimDuration::from_millis(500),
        SimTime::ZERO + SimDuration::from_millis(1500),
    );
    let mut sim = build_simulation(
        n,
        move |id, config| {
            if id == adversary {
                config.with_byzantine(behaviour)
            } else {
                config
            }
        },
        faults,
    );
    run(&mut sim, 5);
    let rejoined = sim.node(NodeId(2));
    assert!(
        rejoined.last_executed().0 > 0,
        "the restarted replica never executed anything"
    );
    let healthy_head = sim.node(NodeId(0)).last_executed().0;
    assert!(
        healthy_head.saturating_sub(rejoined.last_executed().0) <= 16,
        "the restarted replica never caught back up (at {} vs head {healthy_head})",
        rejoined.last_executed().0
    );
    // A lying responder inflates its view claim by 64; adopting it would leave the
    // restarted replica complaining in a view nobody else occupies.
    let healthy_view = sim.node(NodeId(0)).view().0;
    assert!(
        rejoined.view().0 <= healthy_view + 1,
        "the restarted replica adopted a forged view claim ({} vs healthy {healthy_view})",
        rejoined.view().0
    );
    assert_logs_consistent(&sim, n);
    sim.metrics().traffic.sent_bytes_in(adversary, "statesync")
}

#[test]
fn lying_state_responder_is_rejected_without_wedging_catchup() {
    // The forged checkpoint state, swapped proofs and inflated view claim must all be
    // detected: the requester verifies every proof and only adopts a view corroborated
    // by f+1 responders of one sync round.
    assert!(assert_catchup_despite(ByzantineBehavior::LyingStateResponder) > 0);
}

#[test]
fn silent_state_responder_does_not_wedge_catchup() {
    // A responder that simply never answers state requests must not starve catch-up:
    // the responder set rotates every retry, so an honest peer is reached.
    assert_eq!(assert_catchup_despite(ByzantineBehavior::SilentStateResponder), 0);
}

#[test]
fn equivocating_checkpointer_does_not_block_garbage_collection() {
    // Forged checkpoint shares carry a wrong state digest; the quorum signature over
    // the honest digest still forms (n - 1 honest replicas > 2f + 1), so the stable
    // watermark keeps advancing and logs stay consistent.
    let n = 7;
    let adversary = NodeId(1);
    let mut sim = build_simulation(
        n,
        move |id, config| {
            if id == adversary {
                config.with_byzantine(ByzantineBehavior::EquivocatingCheckpointer)
            } else {
                config
            }
        },
        FaultPlan::none(),
    );
    run(&mut sim, 4);
    for id in [0u32, 2, 3, 4, 5, 6] {
        assert!(
            sim.node(NodeId(id)).low_watermark().0 > 0,
            "garbage collection never advanced at replica {id}"
        );
    }
    assert_logs_consistent(&sim, n);
}

#[test]
fn view_change_thrash_flag_trips_when_bound_is_exceeded() {
    // A progress timeout shorter than one round trip makes honest replicas abandon
    // view after view: a genuine view-change livelock, far past the default bound of
    // 4 + 4 × one disturbance. The checker must flag it, proving the invariant is wired
    // through the scenario runner (the default bound keeps real recoveries clean).
    let config = ScenarioConfig::small(4)
        .with_leader_crash_at(SimDuration::from_millis(400))
        .with_progress_timeout(SimDuration::from_micros(500))
        .with_duration(SimDuration::from_secs(6));
    let report = run_scenario::<LeopardReplica>(&config);
    assert!(
        report.violations.iter().any(|v| v.contains("view-change thrash")),
        "thrash violation not reported: {:?}",
        report.violations
    );
    assert!(report.views_entered >= 1);
    assert!(report.max_views_per_disturbance >= 1);
}

#[test]
fn retrieval_cost_is_split_across_the_committee() {
    // The Fig. 12 property: the per-responder cost is a fraction of the full datablock,
    // because responses are erasure-coded chunks rather than whole datablocks.
    let config = ScenarioConfig::small(7)
        .with_batches(64, 8)
        .with_selective_attackers(1)
        .with_duration(SimDuration::from_secs(4));
    let report = run_leopard_scenario(&config);
    // A 64-request synthetic datablock encodes to 64 × 17 B + header ≈ 1.1 KB; a single
    // response carries only a (f+1 = 3)-way chunk of it plus a Merkle proof.
    let encoded_datablock_bytes = 64.0 * 17.0;
    if let (Some(responder), Some(recovered)) = (
        report.average_responder_bytes,
        report.average_retrieval_recv_bytes,
    ) {
        assert!(
            responder < encoded_datablock_bytes,
            "per-response cost {responder} should be below a full encoded datablock {encoded_datablock_bytes}"
        );
        assert!(recovered > 0.0);
        // Recovering needs f+1 chunks, so it costs more than a single response.
        assert!(recovered > responder);
    } else {
        panic!("retrieval statistics missing: {report:?}");
    }
}
