//! Cross-crate integration tests: safety and liveness of Leopard end-to-end on the
//! simulator, with direct access to replica state.
//!
//! Small scales (n ≤ 7) run real crypto; the large-scale tests (n ∈ {64, 128}) use
//! metered crypto, which `tests/metered_equivalence.rs` proves bit-identical in
//! schedule and decisions, to keep wall-clock time in budget.

mod common;

use common::{assert_logs_consistent, build_simulation, build_simulation_with, run};
use leopard::core::byzantine::ByzantineBehavior;
use leopard::core::config::WorkloadMode;
use leopard::core::LeopardConfig;
use leopard::crypto::provider::CryptoMode;
use leopard::harness::experiments::FIG9GEO_REGIONS;
use leopard::harness::scenario::{run_leopard_scenario, ScenarioConfig};
use leopard::simnet::{FaultPlan, NetworkConfig, SimDuration};
use leopard::types::NodeId;

#[test]
fn honest_run_is_safe_and_live() {
    let n = 4;
    let mut sim = build_simulation(n, |_, c| c, FaultPlan::none());
    run(&mut sim, 2);
    let honest: Vec<u32> = (0..n as u32).collect();
    // Liveness: a non-trivial prefix of the log executed everywhere.
    for &i in &honest {
        assert!(
            sim.node(NodeId(i)).last_executed().0 >= 2,
            "replica {i} executed too little"
        );
        assert!(sim.node(NodeId(i)).confirmed_requests() > 0);
    }
    assert_logs_consistent(&sim, n);
}

#[test]
fn logs_agree_under_an_equivocating_leader() {
    let n = 4;
    let mut sim = build_simulation(
        n,
        |id, config| {
            if id == NodeId(1) {
                config.with_byzantine(ByzantineBehavior::EquivocatingLeader)
            } else {
                config
            }
        },
        FaultPlan::none(),
    );
    run(&mut sim, 3);
    // The checker leaves replica 1 (the equivocator) out by its configured behaviour.
    assert_logs_consistent(&sim, n);
}

#[test]
fn logs_agree_and_progress_with_vote_withholders() {
    let n = 7; // f = 2
    let mut sim = build_simulation(
        n,
        |id, config| {
            if id.as_index() >= 5 {
                config.with_byzantine(ByzantineBehavior::WithholdVotes)
            } else {
                config
            }
        },
        FaultPlan::none(),
    );
    run(&mut sim, 3);
    let honest: Vec<u32> = (0..5).collect();
    for &i in &honest {
        assert!(sim.node(NodeId(i)).confirmed_requests() > 0, "replica {i} stalled");
    }
    assert_logs_consistent(&sim, n);
}

#[test]
fn watermark_advances_through_checkpoints() {
    let n = 4;
    let mut sim = build_simulation(n, |_, c| c, FaultPlan::none());
    run(&mut sim, 3);
    // With the small-test checkpoint interval of 8 and a couple of seconds of traffic,
    // garbage collection must have advanced the low watermark at least once.
    let advanced = (0..n as u32).any(|i| sim.node(NodeId(i)).low_watermark().0 >= 8);
    assert!(advanced, "no replica ever advanced its checkpoint watermark");
}

/// The `small_test` defaults with metered crypto, coarser blocks and a fixed datablock
/// cadence: at n = 128 the dominant cost is the per-node datablock multicast (O(n)
/// messages each), so one datablock per producer every 100 ms keeps the run within a
/// few seconds of wall clock.
fn large_scale_config(n: usize) -> LeopardConfig {
    let mut config = LeopardConfig::small_test(n).with_crypto_mode(CryptoMode::Metered);
    config.params.datablock_size = 64;
    config.params.bftblock_size = 8;
    config.workload = WorkloadMode::Saturated {
        pacing: SimDuration::from_millis(100),
    };
    config
}

#[test]
fn honest_run_is_safe_and_live_at_n64() {
    let n = 64;
    let mut sim = build_simulation_with(
        NetworkConfig::datacenter(n),
        large_scale_config(n),
        |_, c| c,
        FaultPlan::none(),
    );
    run(&mut sim, 2);
    let honest: Vec<u32> = (0..n as u32).collect();
    for &i in &honest {
        assert!(
            sim.node(NodeId(i)).last_executed().0 >= 2,
            "replica {i} executed too little"
        );
        assert!(sim.node(NodeId(i)).confirmed_requests() > 0, "replica {i} stalled");
    }
    assert_logs_consistent(&sim, n);
}

#[test]
fn logs_agree_with_vote_withholders_at_n128() {
    let n = 128; // f = 42
    let byzantine = 16; // well inside the f-bound, enough to bite into every quorum
    let mut sim = build_simulation_with(
        NetworkConfig::datacenter(n),
        large_scale_config(n),
        move |id, config| {
            if id.as_index() >= n - byzantine {
                config.with_byzantine(ByzantineBehavior::WithholdVotes)
            } else {
                config
            }
        },
        FaultPlan::none(),
    );
    // One virtual second is ~50 proposal rounds under the 20 ms cadence — plenty to
    // prove progress and agreement, and n = 128 wall-clock cost scales with duration.
    run(&mut sim, 1);
    let honest: Vec<u32> = (0..(n - byzantine) as u32).collect();
    for &i in &honest {
        assert!(sim.node(NodeId(i)).confirmed_requests() > 0, "replica {i} stalled");
    }
    assert_logs_consistent(&sim, n);
}

#[test]
fn wan_run_at_n64_holds_steady_state_throughput() {
    // One scenario over the four-region WAN topology, with throughput bounds rather
    // than bare termination. The scenario runner's always-on invariant checker covers
    // safety, liveness and retrieval completeness on top.
    let config = ScenarioConfig::small(64)
        .with_crypto_mode(CryptoMode::Metered)
        .with_wan_regions(&FIG9GEO_REGIONS)
        .with_duration(SimDuration::from_secs(3))
        .with_warmup(SimDuration::from_secs(1));
    let report = run_leopard_scenario(&config);
    let offered = config.workload.aggregate_rps as f64;
    assert!(
        report.steady_state_throughput_rps >= 0.5 * offered,
        "steady-state throughput {:.0} req/s fell below half the offered {offered:.0} req/s",
        report.steady_state_throughput_rps
    );
    assert!(
        report.steady_state_throughput_rps <= 1.2 * offered,
        "steady-state throughput {:.0} req/s exceeds the offered load {offered:.0} req/s",
        report.steady_state_throughput_rps
    );
    assert!(report.regions.len() == FIG9GEO_REGIONS.len());
}
