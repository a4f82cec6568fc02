//! The topology refactor's contract, end to end:
//!
//! 1. **RNG compatibility** — a flat single-region `Topology` with the LAN's numbers
//!    must reproduce the default network's (no topology, `Topology::lan`) event
//!    schedule bit-identically, through the whole stack (simnet delivery, harness
//!    scenario runner, protocol above).
//! 2. **Builder round-trip** — every topology built through the public builders has a
//!    symmetric latency matrix (property-tested), valid region bookkeeping, and
//!    accessors that return exactly what the builders set.
//! 3. **Straggler plumbing** — `ScenarioConfig::with_straggler_fraction` degrades the
//!    highest non-leader ids and the system still confirms requests.

use leopard::harness::scenario::{run_leopard_scenario, ScenarioConfig, ScenarioReport};
use leopard::simnet::{CommitDigest, SimDuration, StragglerProfile, Topology};
use proptest::prelude::*;

/// Everything the goldens pin down, extracted for cheap comparison: the instants of
/// the observation log and the digest of every block execution.
fn fingerprint(report: &ScenarioReport) -> (u64, u64, u64, Vec<u64>, CommitDigest) {
    let metrics = &report.sim.metrics;
    (
        report.sim.events,
        report.confirmed_requests,
        metrics.traffic.total_sent_bytes(),
        metrics.observations.iter().map(|o| o.at.as_nanos()).collect(),
        metrics.commit_digest(),
    )
}

/// A flat topology matching the default LAN (500 µs base, 50 µs jitter) must leave
/// the scenario's schedule bit-identical: same events, same observation timestamps,
/// same traffic. This is the constraint that makes the topology layer safe — all
/// pre-topology goldens keep passing because `None` and `flat` are the same model.
#[test]
fn flat_topology_scenario_is_bit_identical_to_the_scalar_model() {
    let scalar = run_leopard_scenario(&ScenarioConfig::small(7).with_seed(0xF1A7));
    let flat = run_leopard_scenario(&ScenarioConfig::small(7).with_seed(0xF1A7).with_topology(
        Topology::flat(SimDuration::from_micros(500), SimDuration::from_micros(50)),
    ));
    assert_eq!(fingerprint(&scalar), fingerprint(&flat));
    // The only visible difference: the flat topology reports its single region.
    assert!(scalar.regions.is_empty());
    assert_eq!(flat.regions.len(), 1);
    assert_eq!(flat.regions[0].name, "flat");
    assert_eq!(flat.regions[0].nodes, 7);
}

#[test]
fn wan_scenario_populates_regions_and_percentiles() {
    let config = ScenarioConfig::small(8)
        .with_wan_regions(&["us-east", "eu-west", "ap-northeast", "sa-east"])
        .with_duration(SimDuration::from_secs(3));
    let report = run_leopard_scenario(&config);
    assert!(report.confirmed_requests > 0, "WAN run confirmed nothing");
    assert_eq!(report.regions.len(), 4);
    for region in &report.regions {
        assert_eq!(region.nodes, 2);
        assert!(region.throughput_rps > 0.0, "region {} made no progress", region.name);
    }
    // At least the non-leader regions ack client requests, so per-region latency
    // columns are populated.
    assert!(report.regions.iter().any(|r| r.average_latency_secs.is_some()));
    let (p50, p95, p99) = (
        report.latency_p50_secs.expect("p50"),
        report.latency_p95_secs.expect("p95"),
        report.latency_p99_secs.expect("p99"),
    );
    assert!(p50 <= p95 && p95 <= p99, "percentiles out of order: {p50} {p95} {p99}");
    // WAN client latency must at least exceed one inter-region hop.
    assert!(p50 > 0.030, "p50 = {p50}s is below a single WAN hop");
}

#[test]
fn straggler_fraction_degrades_highest_non_leader_ids() {
    let config = ScenarioConfig::small(8).with_straggler_fraction(0.25);
    assert_eq!(config.straggler_count(), 2);
    let topology = config.effective_topology().expect("stragglers imply a topology");
    // Initial leader of an 8-replica deployment is r1; stragglers come from the top.
    let nodes: Vec<usize> = topology.stragglers().iter().map(|(n, _)| *n).collect();
    assert_eq!(nodes, vec![6, 7]);
    assert!(config.initial_leader().as_index() != 6 && config.initial_leader().as_index() != 7);

    // The degraded system still confirms requests.
    let report = run_leopard_scenario(&config.with_duration(SimDuration::from_secs(3)));
    assert!(report.confirmed_requests > 0, "straggler run confirmed nothing");
}

#[test]
fn straggler_on_flat_lan_leaves_the_clean_replicas_schedule_unperturbed() {
    // Degrading node 7 must not shift any RNG draw of the remaining replicas' traffic:
    // the straggler extras are deterministic. We can't expect bit-identity of the whole
    // run (the straggler's own messages shift), but the run must stay deterministic.
    let run = || {
        let config = ScenarioConfig::small(8).with_seed(7).with_straggler_fraction(0.125);
        fingerprint(&run_leopard_scenario(&config))
    };
    assert_eq!(run(), run());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `uniform` round-trip: the matrix is symmetric, accessors return what was set,
    /// and validation accepts the result for any node count.
    #[test]
    fn uniform_topology_round_trips(
        region_count in 1usize..6,
        intra in 0u64..2_000_000,
        inter in 0u64..200_000_000,
        jitter in 0u64..20_000_000,
        nodes in 1usize..100,
    ) {
        let names: Vec<String> = (0..region_count).map(|i| format!("r{i}")).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let topology = Topology::uniform(
            &name_refs,
            SimDuration::from_nanos(intra),
            SimDuration::from_nanos(inter),
            SimDuration::from_nanos(jitter),
        );
        prop_assert_eq!(topology.region_count(), region_count);
        for i in 0..region_count {
            for j in 0..region_count {
                let base = if i == j { intra } else { inter };
                prop_assert_eq!(topology.base_between(i, j), SimDuration::from_nanos(base));
                prop_assert_eq!(topology.jitter_between(i, j), SimDuration::from_nanos(jitter));
            }
        }
        for node in 0..nodes {
            prop_assert!(topology.region_of(node) < region_count);
        }
        prop_assert!(topology.validate(nodes).is_ok());
    }

    /// The `wan` builder produces a symmetric, validated topology for any subset of
    /// the known region names (and `uniform` a two-datacenter one for any latency
    /// pair), and straggler profiles survive the round-trip through `with_straggler`.
    #[test]
    fn wan_and_two_dc_round_trip(
        mask in 1u8..127,
        intra in 0u64..5_000_000,
        inter in 0u64..50_000_000,
        straggler_node in 0usize..64,
        extra in 0u64..100_000_000,
        nodes in 64usize..200,
    ) {
        const NAMES: [&str; 7] = [
            "us-east", "us-west", "eu-west", "eu-central", "ap-northeast", "ap-southeast", "sa-east",
        ];
        let selected: Vec<&str> = NAMES
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, n)| *n)
            .collect();
        let wan = Topology::wan(&selected);
        prop_assert_eq!(wan.region_count(), selected.len());
        for i in 0..selected.len() {
            for j in 0..selected.len() {
                prop_assert_eq!(wan.base_between(i, j), wan.base_between(j, i));
                prop_assert_eq!(wan.jitter_between(i, j), wan.jitter_between(j, i));
            }
            prop_assert_eq!(wan.region_name(i), selected[i]);
        }
        let profile = StragglerProfile {
            extra_latency: SimDuration::from_nanos(extra),
            ..StragglerProfile::wan_default()
        };
        let wan = wan.with_straggler(straggler_node, profile);
        prop_assert_eq!(wan.straggler(straggler_node).copied(), Some(profile));
        prop_assert!(wan.validate(nodes).is_ok());
        prop_assert!(wan.max_one_way_latency().as_nanos() >= 2 * extra);

        let dc = Topology::uniform(
            &["dc-a", "dc-b"],
            SimDuration::from_nanos(intra),
            SimDuration::from_nanos(inter),
            SimDuration::ZERO,
        );
        prop_assert_eq!(dc.region_count(), 2);
        prop_assert_eq!(dc.base_between(0, 1), SimDuration::from_nanos(inter));
        prop_assert_eq!(dc.base_between(1, 0), SimDuration::from_nanos(inter));
        prop_assert!(dc.validate(nodes).is_ok());
    }
}
