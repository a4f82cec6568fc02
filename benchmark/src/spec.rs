//! What the benchmark measures: the six workloads and the metric names, units and
//! directions. `BENCHMARK.json` at the repo root carries the same lists (plus the
//! bounds); a test keeps the two equal.

use leopard_crypto::provider::CryptoMode;
use leopard_harness::experiments::FIG9GEO_REGIONS;
use leopard_harness::ScenarioConfig;
use leopard_simnet::SimDuration;
use leopard_types::CostModelKind;

use crate::mirror;

/// A metric's name, unit and direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

impl Metric {
    fn new(name: impl Into<String>, unit: &'static str, higher_is_better: bool) -> Self {
        Self {
            name: name.into(),
            unit,
            higher_is_better,
        }
    }

    pub fn better(&self) -> &'static str {
        if self.higher_is_better {
            "higher"
        } else {
            "lower"
        }
    }
}

/// The end-to-end metrics, in output order. `sim_*` are simulated time and a function
/// of the seed alone; `host_*` and `setup_s` are host time.
pub fn end_to_end() -> Vec<Metric> {
    vec![
        Metric::new("sim_kreqs", "Kreq/s", true),
        Metric::new("sim_lat_p50_ms", "ms", false),
        Metric::new("sim_lat_p95_ms", "ms", false),
        Metric::new("sim_leader_bytes_per_req", "B/req", false),
        Metric::new("sim_leader_cpu_us_per_req", "us/req", false),
        Metric::new("host_us_per_req", "us/req", false),
        Metric::new("host_ns_per_event", "ns/event", false),
        Metric::new("host_peak_rss_mb", "MB", false),
        Metric::new("setup_s", "s", false),
    ]
}

/// Message categories of `leopard_core::LeopardMessage`, in `Categorised::slot` order.
pub const CORE_CATEGORIES: [&str; 10] = [
    "datablock",
    "ready",
    "bftblock",
    "vote",
    "proof",
    "query",
    "retrieval",
    "checkpoint",
    "viewchange",
    "statesync",
];

/// Message categories of `leopard_hotstuff::HotStuffMessage`, in slot order.
pub const HOTSTUFF_CATEGORIES: [&str; 3] = ["block", "vote", "newview"];

/// The per-layer metrics, in output order. The prefix before the first `.` is the
/// crate the number belongs to.
pub fn per_layer() -> Vec<Metric> {
    let mut m = Vec::new();
    let mut lower = |name: String, unit: &'static str| m.push(Metric::new(name, unit, false));

    for (name, unit) in [
        ("host_s", "s"),
        ("cpu_s", "s"),
        ("setup_ns", "ns"),
        ("check_ns", "ns"),
        ("report_ns", "ns"),
        ("mirror_event_drift", "ratio"),
        ("trace_overhead_ratio", "ratio"),
    ] {
        lower(format!("harness.{name}"), unit);
    }

    for (name, unit) in [
        ("events", "count"),
        ("engine_self_ns", "ns"),
        ("engine_self_ns_per_event", "ns/event"),
        ("ctx_send_ns", "ns"),
        ("ctx_send_calls", "count"),
        ("ctx_fanout_ns", "ns"),
        ("ctx_fanout_calls", "count"),
        ("ctx_timer_ns", "ns"),
        ("ctx_timer_calls", "count"),
        ("ctx_observe_ns", "ns"),
        ("ctx_observe_calls", "count"),
        ("ctx_charge_calls", "count"),
        ("events_per_req", "1/req"),
        ("fanouts_peak", "count"),
        ("observations_len", "count"),
        ("cpu_util_max", "ratio"),
        ("cpu_util_mean", "ratio"),
        ("leader_uplink_util", "ratio"),
        ("flood_ns_per_event", "ns/event"),
        ("unicast_ns_per_event", "ns/event"),
        ("observe_ns", "ns"),
        ("histogram_record_ns", "ns"),
    ] {
        lower(format!("simnet.{name}"), unit);
    }

    for category in CORE_CATEGORIES {
        lower(format!("core.on_message_ns.{category}"), "ns");
    }
    for category in CORE_CATEGORIES {
        lower(format!("core.on_message_calls.{category}"), "count");
    }
    for (name, unit) in [
        ("on_timer_ns", "ns"),
        ("on_timer_calls", "count"),
        ("handler_self_ns", "ns"),
        ("stage_generation_ms", "ms"),
        ("stage_dissemination_ms", "ms"),
        ("stage_agreement_ms", "ms"),
        ("retrievals_per_kreq", "1/Kreq"),
        ("retrieval_ms_mean", "ms"),
        ("view_changes", "count"),
        ("views_entered", "count"),
        ("view_change_ms", "ms"),
    ] {
        lower(format!("core.{name}"), unit);
    }
    for category in CORE_CATEGORIES {
        lower(format!("core.bytes_per_req.{category}"), "B/req");
    }

    for category in HOTSTUFF_CATEGORIES {
        lower(format!("hotstuff.on_message_ns.{category}"), "ns");
    }
    for category in HOTSTUFF_CATEGORIES {
        lower(format!("hotstuff.on_message_calls.{category}"), "count");
    }
    lower("hotstuff.on_timer_ns".into(), "ns");
    for category in HOTSTUFF_CATEGORIES {
        lower(format!("hotstuff.bytes_per_req.{category}"), "B/req");
    }

    for (name, unit) in [
        ("sign_share_ns", "ns"),
        ("verify_share_ns", "ns"),
        ("batch_verify_ns_per_share", "ns"),
        ("combine_ns", "ns"),
        ("verify_combined_ns", "ns"),
        ("merkle_build_ns", "ns"),
        ("merkle_verify_ns", "ns"),
        ("trusted_setup_ms", "ms"),
        ("metered_sign_ns", "ns"),
    ] {
        lower(format!("crypto.{name}"), unit);
    }
    lower("types.datablock_digest_ns".into(), "ns");
    lower("types.wire_roundtrip_ns".into(), "ns");

    // Rates and shares: the only per-layer metrics where higher is better.
    for (name, unit) in [
        ("harness.confirmed_share", "ratio"),
        ("simnet.mev_per_s", "Mev/s"),
        ("crypto.sha256_mb_per_s", "MB/s"),
        ("erasure.encode_mb_per_s.n32", "MB/s"),
        ("erasure.decode_mb_per_s.n32", "MB/s"),
        ("erasure.encode_mb_per_s.n128", "MB/s"),
        ("erasure.decode_mb_per_s.n128", "MB/s"),
        ("erasure.mul_add_slice_gb_per_s", "GB/s"),
    ] {
        m.push(Metric::new(name, unit, true));
    }
    m
}

/// Which replica implementation a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    Leopard,
    HotStuff,
}

impl ProtocolKind {
    /// The crate that implements the protocol and its message categories in slot order.
    pub fn layer(self) -> (&'static str, &'static [&'static str]) {
        match self {
            ProtocolKind::Leopard => ("core", &CORE_CATEGORIES),
            ProtocolKind::HotStuff => ("hotstuff", &HOTSTUFF_CATEGORIES),
        }
    }

    pub fn other(self) -> Self {
        match self {
            ProtocolKind::Leopard => ProtocolKind::HotStuff,
            ProtocolKind::HotStuff => ProtocolKind::Leopard,
        }
    }
}

/// One named workload: a scenario shape, instantiated per seed by [`Workload::scenario`].
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub protocol: ProtocolKind,
    pub n: usize,
    /// Leopard: the instant throughput is measured from, in pacing periods (0 = the
    /// start of the run; the leader-crash workload starts at the crash).
    /// HotStuff: ignored (a fixed warm-up, see [`HOTSTUFF_WARMUP`]).
    measure_from_periods: u64,
    /// Leopard: how long load is offered, in pacing periods.
    load_periods: u64,
    /// Leopard: the drain tail after the load stop. HotStuff: the whole run.
    tail_ms: u64,
    shape: fn(ScenarioConfig, SimDuration) -> ScenarioConfig,
}

/// HotStuff has no load stop; its throughput window is `[warm-up, end]`.
const HOTSTUFF_WARMUP: SimDuration = SimDuration(2_000_000_000);

/// A scenario ready to run, with the instants the metrics are defined on.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub config: ScenarioConfig,
    /// Throughput is counted from here (simulated offset from the start).
    pub measure_from: SimDuration,
    /// `true` when load stops before the run ends, so that what was offered has had
    /// time to confirm and throughput is counted until the last confirmation.
    pub drained: bool,
    /// `true` when the run has to confirm every request it puts on the wire: a drained
    /// run whose leader stays up. (Requests offered between a leader's crash and the
    /// next view are dropped by the program as it stands; `harness.confirmed_share`
    /// and `sim_kreqs` show them.)
    pub lossless: bool,
}

fn plain(config: ScenarioConfig, _period: SimDuration) -> ScenarioConfig {
    config
}

fn wan_stragglers(config: ScenarioConfig, _period: SimDuration) -> ScenarioConfig {
    config
        .with_wan_regions(&FIG9GEO_REGIONS)
        .with_straggler_fraction(0.10)
}

fn retrieval_real(config: ScenarioConfig, _period: SimDuration) -> ScenarioConfig {
    let f = (config.n - 1) / 3;
    config
        .with_crypto_mode(CryptoMode::Real)
        .with_selective_attackers(f)
}

fn leader_crash(config: ScenarioConfig, period: SimDuration) -> ScenarioConfig {
    config.with_leader_crash_at(period)
}

fn cpu_p4k4(config: ScenarioConfig, _period: SimDuration) -> ScenarioConfig {
    config
        .with_cost_model(CostModelKind::BlsPaper)
        .with_proposers(4)
        .with_cores(4)
}

/// The workloads. Names are fixed: later changes refer to them.
///
/// Every Leopard workload offers load for a whole number of *pacing periods*. A
/// saturated producer emits one datablock per period, its first at a seed-drawn
/// offset inside the period, so a load window of `k` periods holds exactly `k`
/// datablocks of every producer for every seed. A window that is not a multiple
/// holds a binomial draw of them instead, which moved throughput by ±15 % and the
/// latency tail by ±30 % between seeds at the Table II batch sizes.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "lan-n400",
        protocol: ProtocolKind::Leopard,
        n: 400,
        measure_from_periods: 0,
        load_periods: 1,
        tail_ms: 1_500,
        shape: plain,
    },
    Workload {
        name: "hotstuff-n300",
        protocol: ProtocolKind::HotStuff,
        n: 300,
        measure_from_periods: 0,
        load_periods: 0,
        tail_ms: 10_000,
        shape: plain,
    },
    Workload {
        name: "wan-n256-stragglers",
        protocol: ProtocolKind::Leopard,
        n: 256,
        measure_from_periods: 0,
        load_periods: 1,
        tail_ms: 3_000,
        shape: wan_stragglers,
    },
    Workload {
        name: "retrieval-real-n32",
        protocol: ProtocolKind::Leopard,
        n: 32,
        measure_from_periods: 0,
        load_periods: 3,
        tail_ms: 1_000,
        shape: retrieval_real,
    },
    Workload {
        name: "leader-crash-n128",
        protocol: ProtocolKind::Leopard,
        n: 128,
        measure_from_periods: 1,
        load_periods: 3,
        tail_ms: 2_000,
        shape: leader_crash,
    },
    Workload {
        name: "cpu-p4k4-n256",
        protocol: ProtocolKind::Leopard,
        n: 256,
        measure_from_periods: 0,
        load_periods: 1,
        tail_ms: 2_000,
        shape: cpu_p4k4,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Instantiates the workload for one seed.
    pub fn scenario(&self, seed: u64) -> Scenario {
        let base = ScenarioConfig::paper(self.n)
            .with_seed(seed)
            .with_max_events(400_000_000);
        let tail = SimDuration::from_millis(self.tail_ms);
        match self.protocol {
            // The seed moves nothing in a HotStuff run but a 50 us jitter, so it also
            // draws up to 127 ms of run length (four blocks): otherwise every seed
            // would confirm the same number of requests.
            ProtocolKind::HotStuff => Scenario {
                config: (self.shape)(base, SimDuration::ZERO)
                    .with_warmup(HOTSTUFF_WARMUP)
                    .with_duration(tail + SimDuration::from_millis(seed % 128)),
                measure_from: HOTSTUFF_WARMUP,
                drained: false,
                lossless: false,
            },
            ProtocolKind::Leopard => {
                // The shape may change the proposer count, and with it the period.
                let period = mirror::pacing_period(&(self.shape)(base.clone(), SimDuration::ZERO));
                let measure_from = period.saturating_mul(self.measure_from_periods);
                let load_end = period.saturating_mul(self.load_periods);
                let config = (self.shape)(base, period)
                    .with_warmup(measure_from)
                    .with_workload_stop(load_end)
                    .with_duration(load_end + tail);
                Scenario {
                    lossless: config.leader_crash_at.is_none(),
                    config,
                    measure_from,
                    drained: true,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_windows_are_whole_pacing_periods() {
        for w in WORKLOADS
            .iter()
            .filter(|w| w.protocol == ProtocolKind::Leopard)
        {
            let s = w.scenario(7);
            let period = mirror::pacing_period(&s.config);
            let load_end = s
                .config
                .workload_stop
                .expect("Leopard workloads stop their load");
            assert_eq!(
                load_end.as_nanos(),
                period.as_nanos() * w.load_periods,
                "{}",
                w.name
            );
            assert!(s.config.duration > load_end, "{} has no drain tail", w.name);
            assert!(s.drained);
        }
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<String> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|m| m.name)
            .collect();
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
