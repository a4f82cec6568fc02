//! Shared support for the cross-crate integration tests (`safety_liveness.rs`,
//! `fault_recovery.rs`): simulation construction, a bounded run helper and the
//! safety check (Theorem 1) that several binaries assert.
//!
//! Each integration-test binary compiles its own copy of this module via
//! `mod common;`, so not every binary uses every helper.
#![allow(dead_code)]

use leopard::core::{LeopardConfig, LeopardReplica};
use leopard::harness::SystemSnapshot;
use leopard::simnet::{FaultPlan, NetworkConfig, SimDuration, SimTime, Simulation};
use leopard::types::NodeId;

/// The key-material seed every direct-simulation integration test shares.
pub const SHARED_KEY_SEED: u64 = 99;

/// The event budget [`run`] hands to the simulator — generous enough for the largest
/// scales the integration tests exercise.
pub const MAX_EVENTS: u64 = 20_000_000;

/// Builds an `n`-replica simulation from `base` on an arbitrary network, with a
/// per-replica configuration hook (Byzantine behaviour, crypto mode, ...). The shared
/// key material is derived from `base`, so a metered-crypto `base` yields a metered
/// provider as well.
pub fn build_simulation_with(
    network: NetworkConfig,
    base: LeopardConfig,
    configure: impl Fn(NodeId, LeopardConfig) -> LeopardConfig + 'static,
    faults: FaultPlan,
) -> Simulation<LeopardReplica> {
    let shared = LeopardConfig::shared_keys(&base, SHARED_KEY_SEED);
    Simulation::new(network, faults, move |id| {
        let config = configure(id, base.clone());
        LeopardReplica::new(id, config, shared.clone())
    })
}

/// [`build_simulation_with`] on the flat datacenter network with `small_test`
/// defaults — the configuration the original safety/liveness tests were written for.
pub fn build_simulation(
    n: usize,
    configure: impl Fn(NodeId, LeopardConfig) -> LeopardConfig + 'static,
    faults: FaultPlan,
) -> Simulation<LeopardReplica> {
    build_simulation_with(
        NetworkConfig::datacenter(n),
        LeopardConfig::small_test(n),
        configure,
        faults,
    )
}

/// Runs the simulation for `secs` of virtual time under the shared event budget.
pub fn run(sim: &mut Simulation<LeopardReplica>, secs: u64) {
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(secs), MAX_EVENTS);
}

/// Safety (Theorem 1): the harness's invariant checker finds no violation. With the
/// quiesce instant at the end of the run liveness is not judged, and each replica's
/// configured behaviour decides whether it counts as honest.
pub fn assert_logs_consistent(sim: &Simulation<LeopardReplica>, n: usize) {
    let snapshot = SystemSnapshot::capture(sim, n, sim.now(), SimDuration::ZERO, 0, u64::MAX);
    let violations = snapshot.check();
    assert!(violations.is_empty(), "invariant violations: {violations:?}");
}
