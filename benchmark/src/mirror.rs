//! The scenario runners' private set-up, rebuilt from public constructors.
//!
//! `run_leopard_scenario` / `run_hotstuff_scenario` derive a `NetworkConfig`, a
//! `FaultPlan` and a protocol config from a `ScenarioConfig` in private methods and
//! give no access to the `Simulation` they build. The traced run needs that
//! simulation (to wrap its replicas), and `setup_s` needs the set-up on its own, so
//! this module repeats the derivation for the fields the benchmark's workloads use.
//! `harness.mirror_event_drift` reports whether the copy still matches the original.

use std::sync::Arc;

use leopard_core::config::WorkloadMode;
use leopard_core::{LeopardConfig, LeopardReplica};
use leopard_harness::ScenarioConfig;
use leopard_hotstuff::{HotStuffConfig, HotStuffReplica};
use leopard_simnet::{FaultPlan, NetworkConfig, Protocol, SimDuration, SimTime, Simulation};
use leopard_types::NodeId;

/// The `count` highest replica ids, skipping the initial leader — the runners' shared
/// choice of stragglers and selective attackers.
fn highest_non_leader_ids(config: &ScenarioConfig, count: usize) -> Vec<NodeId> {
    let leader = config.initial_leader();
    (0..config.n as u32)
        .rev()
        .map(NodeId)
        .filter(|&id| id != leader)
        .take(count)
        .collect()
}

pub fn network(config: &ScenarioConfig) -> NetworkConfig {
    // Fields no workload sets are not mirrored; a workload that starts to use one
    // must extend this module first.
    assert!(
        config.bandwidth_mbps.is_none()
            && config.slow_replicas == 0
            && config.byzantine.is_empty()
            && config.crash_restarts.is_empty()
            && config.partitions.is_empty()
            && config.progress_timeout.is_none()
            && !config.parallel,
        "mirror: scenario uses a field the benchmark does not mirror"
    );
    let mut net = NetworkConfig::datacenter(config.n);
    if config.cores > 1 {
        net = net.with_cores(config.cores);
    }
    if let Some(topology) = config.effective_topology() {
        net = net.with_topology(topology);
    }
    net.with_seed(config.seed)
}

pub fn faults(config: &ScenarioConfig) -> FaultPlan {
    let mut plan = if config.selective_attackers > 0 {
        let quorum = 2 * ((config.n - 1) / 3) + 1;
        let attackers = highest_non_leader_ids(config, config.selective_attackers);
        FaultPlan::selective_attack(attackers, "datablock", quorum)
    } else {
        FaultPlan::none()
    };
    if let Some(at) = config.leader_crash_at {
        plan = plan.with_crash(config.initial_leader(), SimTime::ZERO + at);
    }
    plan
}

pub fn leopard_config(config: &ScenarioConfig) -> LeopardConfig {
    let mut lc = LeopardConfig::paper(config.n, config.workload.aggregate_rps);
    lc.params.payload_size = config.workload.payload_size;
    lc.params.datablock_size = config.datablock_size;
    lc.params.bftblock_size = config.bftblock_size;
    lc.params.proposers = config.proposers;
    let producers = (config.n - config.proposers.max(1)).max(1) as f64;
    let pacing_secs =
        producers * config.datablock_size as f64 / config.workload.aggregate_rps.max(1) as f64;
    lc.workload = WorkloadMode::Saturated {
        pacing: SimDuration::from_secs_f64(pacing_secs),
    };
    lc.crypto_mode = config.crypto_mode;
    lc.cost_model = config.cost_model;
    lc.workload_stop = config.workload_stop;

    // Retrieval timeout: three dissemination times through the slowest uplink plus
    // four one-way WAN latencies, never below the protocol default.
    let net = network(config);
    let min_uplink_bps = net
        .resolve()
        .links
        .iter()
        .map(|link| {
            if link.uplink_bps == 0 {
                u64::MAX
            } else {
                link.uplink_bps
            }
        })
        .min()
        .unwrap_or(u64::MAX);
    let datablock_bytes = (config.datablock_size * config.workload.payload_size) as f64;
    let dissemination_secs = if min_uplink_bps == u64::MAX {
        0.0
    } else {
        (config.n - 1) as f64 * datablock_bytes * 8.0 / min_uplink_bps as f64
    };
    let wan_headroom = net
        .topology
        .as_ref()
        .map(|topology| topology.max_one_way_latency().saturating_mul(4))
        .unwrap_or(SimDuration::ZERO);
    lc.retrieval_timeout = lc
        .retrieval_timeout
        .max(SimDuration::from_secs_f64(3.0 * dissemination_secs) + wan_headroom);
    lc
}

/// The interval at which each saturated producer emits a datablock.
pub fn pacing_period(config: &ScenarioConfig) -> SimDuration {
    match leopard_config(config).workload {
        WorkloadMode::Saturated { pacing } => pacing,
        _ => unreachable!("leopard_config always selects saturated pacing"),
    }
}

pub fn hotstuff_config(config: &ScenarioConfig) -> HotStuffConfig {
    let mut hc = HotStuffConfig::paper(config.n, config.workload.aggregate_rps);
    hc.payload_size = config.workload.payload_size;
    hc.batch_size = config.hotstuff_batch;
    hc.crypto_mode = config.crypto_mode;
    hc.cost_model = config.cost_model;
    hc
}

/// Everything before `run_until`: configs, trusted set-up and `Simulation::new`.
/// `wrap` lets the traced run put each replica inside a `Traced`.
pub fn leopard_sim<P: Protocol>(
    config: &ScenarioConfig,
    mut wrap: impl FnMut(LeopardReplica) -> P,
) -> Simulation<P> {
    let lc = leopard_config(config);
    let keys = LeopardConfig::shared_keys(&lc, config.seed);
    Simulation::new(network(config), faults(config), move |id| {
        wrap(LeopardReplica::new(id, lc.clone(), Arc::clone(&keys)))
    })
}

pub fn hotstuff_sim<P: Protocol>(
    config: &ScenarioConfig,
    mut wrap: impl FnMut(HotStuffReplica) -> P,
) -> Simulation<P> {
    let hc = hotstuff_config(config);
    let keys = hc.shared_keys(config.seed);
    Simulation::new(network(config), faults(config), move |id| {
        wrap(HotStuffReplica::new(id, hc.clone(), Arc::clone(&keys)))
    })
}

/// The liveness bound the Leopard runner hands to the invariant checker.
pub fn stall_bound(config: &ScenarioConfig) -> SimDuration {
    config
        .liveness_bound
        .unwrap_or_else(|| leopard_config(config).progress_timeout.saturating_mul(4))
}
