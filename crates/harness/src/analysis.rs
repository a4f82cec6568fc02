//! The closed-form cost model of the paper: amortized communication complexity, scaling
//! factor and voting rounds (Table I), the scaling-factor formulas of §V-B, and the
//! per-region breakdown of geo-distributed runs.

use crate::report::Table;
use crate::scenario::ScenarioReport;
use leopard_types::ProtocolParams;

/// The protocols compared in Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// PBFT (Castro & Liskov, 1999).
    Pbft,
    /// SBFT (Golan-Gueta et al., 2019).
    Sbft,
    /// HotStuff with pipelining (Yin et al., 2019).
    HotStuff,
    /// Leopard (this paper).
    Leopard,
}

impl Protocol {
    /// All protocols, in the order of the paper's Table I.
    pub fn all() -> [Protocol; 4] {
        [Protocol::Pbft, Protocol::Sbft, Protocol::HotStuff, Protocol::Leopard]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Protocol::Pbft => "PBFT",
            Protocol::Sbft => "SBFT",
            Protocol::HotStuff => "HotStuff",
            Protocol::Leopard => "Leopard",
        }
    }
}

/// One row of Table I: amortized costs when the leader is honest and after GST.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostRow {
    /// Which protocol.
    pub protocol: Protocol,
    /// Leader's amortized communication complexity (as a big-O string).
    pub leader_communication: &'static str,
    /// Non-leader replica's amortized communication complexity.
    pub non_leader_communication: &'static str,
    /// Scaling factor.
    pub scaling_factor: &'static str,
    /// Voting rounds in the optimistic case.
    pub voting_rounds_optimistic: u32,
    /// Voting rounds with `f` faulty non-leader replicas.
    pub voting_rounds_faulty: u32,
}

/// The rows of Table I.
pub fn table1_rows() -> Vec<CostRow> {
    vec![
        CostRow {
            protocol: Protocol::Pbft,
            leader_communication: "O(n)",
            non_leader_communication: "O(1)",
            scaling_factor: "O(n)",
            voting_rounds_optimistic: 2,
            voting_rounds_faulty: 2,
        },
        CostRow {
            protocol: Protocol::Sbft,
            leader_communication: "O(n)",
            non_leader_communication: "O(1)",
            scaling_factor: "O(n)",
            voting_rounds_optimistic: 1,
            voting_rounds_faulty: 2,
        },
        CostRow {
            protocol: Protocol::HotStuff,
            leader_communication: "O(n)",
            non_leader_communication: "O(1)",
            scaling_factor: "O(n)",
            voting_rounds_optimistic: 1,
            voting_rounds_faulty: 1,
        },
        CostRow {
            protocol: Protocol::Leopard,
            leader_communication: "O(1)",
            non_leader_communication: "O(1)",
            scaling_factor: "O(1)",
            voting_rounds_optimistic: 2,
            voting_rounds_faulty: 3,
        },
    ]
}

/// Renders Table I, appending the *numerical* scaling factor predicted by the closed
/// forms of §V-B for the given scale so the asymptotic claim can be eyeballed.
pub fn table1(n: usize) -> Table {
    let params = ProtocolParams::paper_defaults(n);
    let mut table = Table::new(
        format!("Table I — amortized cost when the leader is honest and after GST (numeric column computed for n = {n})"),
        &[
            "protocol",
            "leader comm.",
            "non-leader comm.",
            "scaling factor",
            "votes (optimistic)",
            "votes (faulty)",
            &format!("SF at n={n}"),
        ],
    );
    for row in table1_rows() {
        let numeric = match row.protocol {
            Protocol::Leopard => params.leopard_scaling_factor(),
            _ => params.leader_based_scaling_factor(),
        };
        table.push_row(vec![
            row.protocol.name().to_string(),
            row.leader_communication.to_string(),
            row.non_leader_communication.to_string(),
            row.scaling_factor.to_string(),
            row.voting_rounds_optimistic.to_string(),
            row.voting_rounds_faulty.to_string(),
            format!("{numeric:.2}"),
        ]);
    }
    table
}

/// Per-region throughput and latency of a geo-distributed run: one row per region of
/// the scenario's topology, plus a whole-system row. Empty-bodied (headers only) when
/// the report has no per-region stats (flat scenarios).
pub fn region_breakdown(report: &ScenarioReport) -> Table {
    let mut table = Table::new(
        format!(
            "Per-region breakdown — {} at n = {}",
            report.protocol, report.n
        ),
        &[
            "region",
            "replicas",
            "throughput (Kreqs/s)",
            "avg latency (ms)",
            "latency samples",
        ],
    );
    let fmt_latency = |secs: Option<f64>| {
        secs.map(|s| format!("{:.1}", s * 1000.0))
            .unwrap_or_else(|| "-".to_string())
    };
    for region in &report.regions {
        table.push_row(vec![
            region.name.clone(),
            region.nodes.to_string(),
            format!("{:.2}", region.throughput_kreqs()),
            fmt_latency(region.average_latency_secs),
            region.latency_samples.to_string(),
        ]);
    }
    if !report.regions.is_empty() {
        table.push_row(vec![
            "(system)".to_string(),
            report.n.to_string(),
            format!("{:.2}", report.throughput_kreqs()),
            fmt_latency(report.average_latency_secs),
            report.sim.metrics.latency_histogram.total().to_string(),
        ]);
    }
    table
}

/// Leader communication cost in bytes for confirming `requests` requests, following the
/// closed form (2) of §V-B ([`ProtocolParams::leopard_leader_term`]).
pub fn leopard_leader_cost_bytes(params: &ProtocolParams, requests: u64) -> f64 {
    params.leopard_leader_term() * payload_bytes(params, requests)
}

/// Non-leader communication cost in bytes for confirming `requests` requests, following
/// the closed form (3) of §V-B ([`ProtocolParams::leopard_non_leader_term`]).
pub fn leopard_replica_cost_bytes(params: &ProtocolParams, requests: u64) -> f64 {
    params.leopard_non_leader_term() * payload_bytes(params, requests)
}

/// Payload bytes of `requests` requests.
fn payload_bytes(params: &ProtocolParams, requests: u64) -> f64 {
    (requests * params.payload_size as u64) as f64
}

/// Leader communication cost in bytes in a leader-disseminates-payload protocol
/// (equation (1) of §I), for confirming `requests` requests.
pub fn leader_based_leader_cost_bytes(params: &ProtocolParams, requests: u64) -> f64 {
    payload_bytes(params, requests) * (params.n as f64 - 1.0)
}

/// Predicted throughput (requests/s) of Leopard under a per-replica capacity of
/// `capacity_bps` bits per second: `C / SF / payload`.
pub fn leopard_predicted_throughput(params: &ProtocolParams, capacity_bps: u64) -> f64 {
    capacity_bps as f64 / params.leopard_scaling_factor() / (params.payload_size as f64 * 8.0)
}

/// Predicted throughput (requests/s) of a leader-based protocol under a per-replica
/// capacity of `capacity_bps` bits per second.
pub fn leader_based_predicted_throughput(params: &ProtocolParams, capacity_bps: u64) -> f64 {
    capacity_bps as f64 / params.leader_based_scaling_factor() / (params.payload_size as f64 * 8.0)
}

/// The effectiveness-of-scaling-up ratio `Λ_b^Δ / C^Δ` of equation (4): how much of each
/// added bit per second of capacity turns into confirmed payload bits.
pub fn scaling_up_gamma(params: &ProtocolParams) -> f64 {
    1.0 / params.leopard_scaling_factor()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_the_paper_rows() {
        let rows = table1_rows();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[3].protocol, Protocol::Leopard);
        assert_eq!(rows[3].leader_communication, "O(1)");
        assert_eq!(rows[3].voting_rounds_faulty, 3);
        assert_eq!(rows[2].voting_rounds_optimistic, 1); // HotStuff pipelined
        let table = table1(300);
        assert_eq!(table.rows.len(), 4);
        assert_eq!(Protocol::all().len(), 4);
        assert_eq!(Protocol::Pbft.name(), "PBFT");
    }

    #[test]
    fn leader_cost_grows_linearly_only_for_leader_based() {
        let small = ProtocolParams::paper_defaults(32);
        let large = ProtocolParams::paper_defaults(320);
        let requests = 1_000_000;
        let leopard_growth = leopard_leader_cost_bytes(&large, requests)
            / leopard_leader_cost_bytes(&small, requests);
        let hotstuff_growth = leader_based_leader_cost_bytes(&large, requests)
            / leader_based_leader_cost_bytes(&small, requests);
        assert!(leopard_growth < 1.5, "leopard leader cost grew {leopard_growth}x");
        assert!(hotstuff_growth > 9.0, "hotstuff leader cost grew only {hotstuff_growth}x");
    }

    /// The closed forms (2) and (3) at the paper's κ and β, captured before they were
    /// folded into `ProtocolParams`: a change to either term moves these values, and at
    /// n = 128 so does evaluating the leader's term in another order.
    #[test]
    fn leopard_cost_bytes_are_pinned() {
        let cases = [
            (16, 128254.40000000001, 256016.96),
            (128, 129381.75999999998, 256010.87999999998),
            (600, 132863.88, 256008.12000000002),
        ];
        for (n, leader, replica) in cases {
            let params = ProtocolParams::paper_defaults(n);
            assert_eq!(leopard_leader_cost_bytes(&params, 1000), leader, "n = {n}");
            assert_eq!(
                leopard_replica_cost_bytes(&params, 1000),
                replica,
                "n = {n}"
            );
        }
    }

    #[test]
    fn replica_cost_is_about_twice_the_payload() {
        let params = ProtocolParams::paper_defaults(300);
        let requests = 10_000;
        let payload = (requests * params.payload_size as u64) as f64;
        let cost = leopard_replica_cost_bytes(&params, requests);
        assert!(cost > 1.9 * payload && cost < 2.2 * payload);
    }

    #[test]
    fn predicted_throughput_matches_the_shape_of_fig9() {
        let capacity = 9_800_000_000u64;
        let leopard_small = leopard_predicted_throughput(&ProtocolParams::paper_defaults(32), capacity);
        let leopard_large = leopard_predicted_throughput(&ProtocolParams::paper_defaults(600), capacity);
        let hotstuff_small =
            leader_based_predicted_throughput(&ProtocolParams::paper_defaults(32), capacity);
        let hotstuff_large =
            leader_based_predicted_throughput(&ProtocolParams::paper_defaults(600), capacity);
        // Leopard barely moves; HotStuff collapses.
        assert!(leopard_large > 0.9 * leopard_small);
        assert!(hotstuff_large < 0.1 * hotstuff_small);
        // And at large scale Leopard wins by a wide margin.
        assert!(leopard_large > 5.0 * hotstuff_large);
    }

    #[test]
    fn gamma_approaches_one_half() {
        let gamma = scaling_up_gamma(&ProtocolParams::paper_defaults(600));
        assert!(gamma > 0.4 && gamma <= 0.55, "gamma = {gamma}");
    }

    #[test]
    fn region_breakdown_renders_one_row_per_region_plus_system() {
        use crate::scenario::{run_leopard_scenario, ScenarioConfig};
        use leopard_simnet::SimDuration;

        let config = ScenarioConfig::small(4)
            .with_wan_regions(&["us-east", "eu-west"])
            .with_duration(SimDuration::from_secs(3));
        let report = run_leopard_scenario(&config);
        let table = region_breakdown(&report);
        assert_eq!(table.rows.len(), 3); // us-east, eu-west, (system)
        assert_eq!(table.rows[0][0], "us-east");
        assert_eq!(table.rows[2][0], "(system)");

        // A flat run renders headers only.
        let flat = run_leopard_scenario(&ScenarioConfig::small(4));
        assert!(region_breakdown(&flat).rows.is_empty());
    }
}
