//! Counted latency observations are the per-request ones, regrouped (PR 12).
//!
//! A replica used to emit one `RequestLatency` observation per acknowledged request
//! and `MetricsSink` kept each in its log; now the client stub reports one
//! `RequestLatencies { nanos, count }` per run of requests it submitted at one instant,
//! and the sink keeps `(node, nanos, count)` outside the log (`DESIGN.md` §5). Every
//! figure derived from the samples must be the one the per-request stream gave, to the
//! last bit: the sample sequence *in emission order* (the mean is an f64 sum, so order
//! and grouping both matter), the histogram behind the percentiles, and the per-region
//! split. The constants below were captured on the parent commit, before the refactor.

use leopard::harness::experiments::FIG9GEO_REGIONS;
use leopard::harness::scenario::{
    run_hotstuff_scenario, run_leopard_scenario, ScenarioConfig, ScenarioReport,
};
use leopard::simnet::ObservationKind;

/// What the parent commit's per-request observations gave for one run.
struct Captured {
    samples: usize,
    /// FNV-1a over the little-endian bytes of `latency_samples()`, in order.
    samples_fnv: u64,
    average_bits: u64,
    p50_bits: u64,
    p95_bits: u64,
    /// `(name, throughput_rps bits, average latency bits or 0, samples)` per region.
    regions: &'static [(&'static str, u64, u64, u64)],
}

fn fnv1a(samples: &[u64]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in samples.iter().flat_map(|sample| sample.to_le_bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn assert_matches(label: &str, report: &ScenarioReport, captured: &Captured) {
    let metrics = &report.sim.metrics;
    let samples = metrics.latency_samples();
    assert_eq!(samples.len(), captured.samples, "{label}: sample count");
    assert_eq!(
        fnv1a(&samples),
        captured.samples_fnv,
        "{label}: sample sequence"
    );
    assert_eq!(
        metrics.latency_histogram.total(),
        captured.samples as u64,
        "{label}: histogram"
    );
    let bits = |value: Option<f64>| value.map_or(0, f64::to_bits);
    assert_eq!(
        bits(report.average_latency_secs),
        captured.average_bits,
        "{label}: mean"
    );
    assert_eq!(
        bits(report.latency_p50_secs),
        captured.p50_bits,
        "{label}: p50"
    );
    assert_eq!(
        bits(report.latency_p95_secs),
        captured.p95_bits,
        "{label}: p95"
    );
    let regions: Vec<(&str, u64, u64, u64)> = report
        .regions
        .iter()
        .map(|region| {
            (
                region.name.as_str(),
                region.throughput_rps.to_bits(),
                bits(region.average_latency_secs),
                region.latency_samples,
            )
        })
        .collect();
    assert_eq!(regions, captured.regions, "{label}: regions");

    // One commit record per block execution: every replica executes heights 1, 2, 3, …
    // in order, each once, so its records' sequences must be exactly that run — a
    // missing or repeated record breaks it.
    let commits = metrics.commits();
    let mut executed = vec![0u64; report.n];
    for commit in commits {
        let last = &mut executed[commit.node.as_index()];
        *last += 1;
        assert_eq!(
            commit.sequence, *last,
            "{label}: node {} executed sequence {} as its execution {}",
            commit.node.0, commit.sequence, *last
        );
    }
    let committed = commits.len();
    // The log keeps no per-block entry: what is left is the two stage latencies of
    // every datablock at its producer, plus the rare view changes, retrievals and
    // custom samples — fewer than one per replica in these fault-free runs.
    let datablocks = metrics.custom_samples("latency_dissemination").len();
    let per_block = metrics.observations.iter().filter(|o| {
        matches!(
            o.kind,
            ObservationKind::BlockCommitted { .. } | ObservationKind::RequestsConfirmed { .. }
        )
    });
    assert_eq!(per_block.count(), 0, "{label}: a block execution in the log");
    let residual = metrics.observations.len() - 2 * datablocks;
    assert!(
        residual < report.n,
        "{label}: {residual} log entries besides {datablocks} datablocks' stage latencies"
    );
    assert!(
        metrics.latency_runs().len() <= committed,
        "{label}: {} latency runs for {committed} block executions",
        metrics.latency_runs().len()
    );
}

fn geo() -> ScenarioConfig {
    ScenarioConfig::paper(16)
        .with_wan_regions(&FIG9GEO_REGIONS)
        .with_straggler_fraction(0.10)
        .with_seed(0x6E0)
}

#[test]
fn leopard_quick_scale_latencies_match_the_per_request_stream() {
    let report = run_leopard_scenario(&ScenarioConfig::paper(16).with_seed(0xA5A5));
    assert_matches(
        "leopard paper(16) seed 0xA5A5",
        &report,
        &Captured {
            samples: 386_000,
            samples_fnv: 0x43ec_3806_f9b1_eac5,
            average_bits: 0x3f84_09de_7963_a322,
            p50_bits: 0x3f82_ca5d_05ea_7ab3,
            p95_bits: 0x3f89_3ba1_7cf9_0b2a,
            regions: &[],
        },
    );
}

#[test]
fn hotstuff_quick_scale_latencies_match_the_per_request_stream() {
    let report = run_hotstuff_scenario(&ScenarioConfig::paper(16).with_seed(0xA5A5));
    assert_matches(
        "hotstuff paper(16) seed 0xA5A5",
        &report,
        &Captured {
            samples: 388_700,
            samples_fnv: 0x8134_92ef_8b6f_860d,
            average_bits: 0x3f7e_a8ca_d299_bf86,
            p50_bits: 0x3f7e_9a05_3585_2e39,
            p95_bits: 0x3f81_b77c_4768_0d49,
            regions: &[],
        },
    );
}

#[test]
fn leopard_geo_region_latencies_match_the_per_request_stream() {
    assert_matches(
        "leopard fig9geo paper(16) seed 0x6E0",
        &run_leopard_scenario(&geo()),
        &Captured {
            samples: 284_000,
            samples_fnv: 0x6ea7_a362_2c09_a945,
            average_bits: 0x3fe5_7846_9004_1286,
            p50_bits: 0x3fe3_dd3d_c46c_e81c,
            p95_bits: 0x3fe9_3ba1_7cf9_0b2a,
            regions: &[
                ("us-east", 0x40f7_7000_0000_0000, 0x3fe4_24bc_4992_76e5, 80_000),
                ("eu-west", 0x40f7_ed00_0000_0000, 0x3fe3_f44c_e445_b4d9, 62_000),
                ("ap-northeast", 0x40f6_c955_5555_5555, 0x3fe6_dea1_a79a_7006, 70_000),
                ("sa-east", 0x40f6_c955_5555_5555, 0x3fe6_e33b_1422_6e67, 72_000),
            ],
        },
    );
}

#[test]
fn hotstuff_geo_region_latencies_match_the_per_request_stream() {
    assert_matches(
        "hotstuff fig9geo paper(16) seed 0x6E0",
        &run_hotstuff_scenario(&geo()),
        &Captured {
            samples: 9_600,
            samples_fnv: 0xdd03_21de_fc27_bd9d,
            average_bits: 0x3ffb_17ca_0637_c229,
            p50_bits: 0x3ff9_3ba1_7cf9_0b2a,
            p95_bits: 0x4006_02ff_4171_c2ef,
            regions: &[
                ("us-east", 0x40a9_0000_0000_0000, 0, 0),
                ("eu-west", 0x40a9_0000_0000_0000, 0x3ffb_17ca_0637_c229, 9_600),
                ("ap-northeast", 0x40a9_0000_0000_0000, 0, 0),
                ("sa-east", 0x40a9_0000_0000_0000, 0, 0),
            ],
        },
    );
}
