//! Validation of the `MeteredCrypto` mode (see `leopard_crypto::provider`): a metered
//! run skips the expensive real field/erasure/hash work but must make identical
//! decisions and charge identical modeled time, so at every scale where running both
//! modes is affordable the two schedules must agree.
//!
//! The acceptance bar from the issue is "identical confirmation ordering and
//! steady-state throughput within 1% at n ≤ 64"; these tests hold the stronger
//! property that actually falls out of the design — the runs are *bit-identical* in
//! event count, confirmation sequence and traffic totals — and additionally assert the
//! 1% throughput bound explicitly so a future relaxation of bit-identity still has a
//! guard. The retrieval path is held to the same bar at n = 128 and n = 256 too, above
//! the n > 64 scale where `ScenarioConfig::paper` switches to metered crypto.

use leopard::harness::scenario::{run_leopard_scenario, ScenarioConfig, ScenarioReport};
use leopard::harness::workload::WorkloadConfig;
use leopard::simnet::SimDuration;
use leopard_crypto::provider::CryptoMode;

/// Runs `config` under both crypto modes, asserts the runs agree and returns them (real
/// first).
fn assert_equivalent(label: &str, config: ScenarioConfig) -> (ScenarioReport, ScenarioReport) {
    let real = run_leopard_scenario(&config.clone().with_crypto_mode(CryptoMode::Real));
    let metered = run_leopard_scenario(&config.with_crypto_mode(CryptoMode::Metered));

    assert!(
        real.confirmed_requests > 0,
        "{label}: the real run confirmed nothing — the comparison would be vacuous"
    );
    // The confirmation ordering: every commit record (one per block execution, with
    // its time, node, sequence and request count), in emission order.
    assert_eq!(
        real.sim.metrics.commits(),
        metered.sim.metrics.commits(),
        "{label}: confirmation ordering diverged between real and metered crypto"
    );
    assert_eq!(
        real.sim.events, metered.sim.events,
        "{label}: event counts diverged"
    );
    assert_eq!(
        real.sim.metrics.traffic.total_sent_bytes(),
        metered.sim.metrics.traffic.total_sent_bytes(),
        "{label}: traffic totals diverged"
    );
    assert_eq!(
        real.sim.compute_busy_nanos, metered.sim.compute_busy_nanos,
        "{label}: modeled compute diverged — the metered mode is not charging identical time"
    );
    // The issue's explicit acceptance bound, kept as its own assertion.
    let relative = (real.steady_state_throughput_rps - metered.steady_state_throughput_rps).abs()
        / real.steady_state_throughput_rps.max(1.0);
    assert!(
        relative <= 0.01,
        "{label}: steady-state throughput diverged by {:.3}% (real {:.1} vs metered {:.1})",
        relative * 100.0,
        real.steady_state_throughput_rps,
        metered.steady_state_throughput_rps
    );
    (real, metered)
}

/// As [`assert_equivalent`] for a run under a selective attack, whose retrievals must
/// also agree: both modes complete the same retrievals with the same byte costs and
/// times.
fn assert_retrieval_equivalent(label: &str, config: ScenarioConfig) {
    let (real, metered) = assert_equivalent(label, config);
    assert!(
        real.retrievals > 0,
        "{label}: the selective attack produced no retrievals — the comparison would be vacuous"
    );
    assert_eq!(real.retrievals, metered.retrievals, "{label}: retrievals");
    assert_eq!(
        real.average_retrieval_recv_bytes, metered.average_retrieval_recv_bytes,
        "{label}: retrieval byte accounting diverged"
    );
    assert_eq!(
        real.average_retrieval_secs, metered.average_retrieval_secs,
        "{label}: retrieval times diverged"
    );
}

#[test]
fn paper_scale_16_is_equivalent() {
    assert_equivalent("paper(16)", ScenarioConfig::paper(16).with_seed(0x51EE));
}

/// The upper end of the validated range (n = 64), with the offered load, batches and
/// duration reduced so the real-crypto debug-profile run stays fast; the protocol
/// parameters are the paper's.
#[test]
fn paper_scale_64_is_equivalent() {
    let config = ScenarioConfig::paper(64)
        .with_workload(WorkloadConfig {
            aggregate_rps: 40_000,
            payload_size: 128,
        })
        .with_batches(500, 50)
        .with_duration(SimDuration::from_millis(1_500));
    assert_equivalent("paper(64) reduced", config);
}

/// A selective-attack run, so the *retrieval* path — where metered mode fabricates
/// responses of identical wire size instead of erasure-coding — is exercised
/// end-to-end. Both modes must complete the same retrievals with the same byte costs.
#[test]
fn retrieval_path_is_equivalent() {
    let config = ScenarioConfig::small(7)
        .with_selective_attackers(1)
        .with_duration(SimDuration::from_secs(4))
        .with_seed(0x7E7);
    assert_retrieval_equivalent("small(7), one selective attacker", config);
}

/// The retrieval path above the n > 64 metered switch, where `paper(n)` runs metered:
/// n = 128 with f = 42 selective attackers, real bytes (a `(43, 128)` Reed–Solomon
/// code, Merkle proofs over 128 shards) against the metered stand-in. Load and batches
/// are reduced as at n = 64, and the run lasts 0.3 s of simulated time, which still
/// completes 714 retrievals; each costs the real run a decode and `f + 1` proof checks,
/// so the test takes about 7 s in the debug profile on a 2-vCPU box (0.2 s in release).
#[test]
fn retrieval_at_paper_scale_128_is_equivalent() {
    let config = ScenarioConfig::paper(128)
        .with_workload(WorkloadConfig {
            aggregate_rps: 40_000,
            payload_size: 128,
        })
        .with_batches(500, 50)
        .with_selective_attackers(42)
        .with_duration(SimDuration::from_millis(300));
    assert_retrieval_equivalent("paper(128) reduced, 42 selective attackers", config);
}

/// The retrieval path at n = 256, the largest committee the `(f + 1, n)` Reed–Solomon
/// code over GF(2^8) allows: f = 85 selective attackers, real bytes (an `(86, 256)`
/// code, Merkle proofs over 256 shards) against the metered stand-in, with the n = 128
/// test's load, batches and 0.3 s of simulated time (1,356 retrievals). Each digest is
/// decoded once; the other queriers of it adopt the recovered copy from the shared
/// chunks. About 1 s in release and 25 s in debug, so it is compiled for release only
/// (`cargo test --release -p leopard --test metered_equivalence`).
#[cfg(not(debug_assertions))]
#[test]
fn retrieval_at_paper_scale_256_is_equivalent() {
    let config = ScenarioConfig::paper(256)
        .with_workload(WorkloadConfig {
            aggregate_rps: 40_000,
            payload_size: 128,
        })
        .with_batches(500, 50)
        .with_selective_attackers(85)
        .with_duration(SimDuration::from_millis(300));
    assert_retrieval_equivalent("paper(256) reduced, 85 selective attackers", config);
}
