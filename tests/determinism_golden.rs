//! Golden determinism tests.
//!
//! Any engine or protocol **performance** change must be observationally pure: for a
//! fixed seed a simulation run produces exactly the same event count, confirmed
//! requests, and traffic totals. The constants below were captured from the PR-4 build
//! (release profile) after its **intentional semantic changes** — the compute-resource
//! model (crypto and erasure ops now charge modeled CPU time to a per-replica
//! sequential compute queue, shifting every downstream timestamp), quorum-batched vote
//! verification on the leaders, and the scale-aware retrieval timeout. They must not
//! drift as a side effect of a pure performance change.
//!
//! If a future PR changes these numbers **intentionally** (a protocol change, a network
//! model change), re-capture the constants and say so in the PR description — a diff
//! here is a semantic change, not a perf regression.
//!
//! PR 5 (the topology layer) kept every pre-existing constant byte-for-byte: a flat
//! scenario resolves to a single-region topology whose delivery path draws the same
//! jitter values in the same order as the old scalar model. The `fig9geo` golden below
//! was captured once when the geo-distributed path landed.
//!
//! When the Leopard replica lost its open-loop client stub, the four Leopard `events`
//! constants dropped by exactly the removed 10 ms workload ticks (a timer chain whose
//! handler did nothing under the saturated producer); every other constant passed
//! uncaptured.
//!
//! When the periodic retrieval tick and the per-note first-query wake-ups became one
//! armed wake-up per replica, the four Leopard `events` constants dropped by exactly
//! the retrieval timer events removed; every other constant passed uncaptured. The
//! three fault-free runs never noted a datablock missing, so they lost exactly their
//! ticks and arm no wake-up.

use leopard::core::LeopardReplica;
use leopard::harness::chaos::FaultScheduleGenerator;
use leopard::harness::scenario::{run_hotstuff_scenario, run_leopard_scenario, run_scenario, ScenarioConfig};
use leopard::harness::experiments::FIG9GEO_REGIONS;

struct Golden {
    events: u64,
    confirmed: u64,
    sent_bytes: u64,
    recv_bytes: u64,
}

fn assert_matches(label: &str, report: &leopard::harness::scenario::ScenarioReport, golden: &Golden) {
    assert_eq!(report.sim.events, golden.events, "{label}: events_processed drifted");
    assert_eq!(
        report.confirmed_requests, golden.confirmed,
        "{label}: confirmed requests drifted"
    );
    assert_eq!(
        report.sim.metrics.traffic.total_sent_bytes(),
        golden.sent_bytes,
        "{label}: total sent bytes drifted"
    );
    assert_eq!(
        report.sim.metrics.traffic.total_received_bytes(),
        golden.recv_bytes,
        "{label}: total received bytes drifted"
    );
}

#[test]
fn leopard_quick_scale_matches_recaptured_golden() {
    let config = ScenarioConfig::paper(16).with_seed(0xA5A5);
    let report = run_leopard_scenario(&config);
    assert_matches(
        "leopard paper(16) seed 0xA5A5",
        &report,
        &Golden {
            // 45,083 = 49,883 − 16 · 300: the removed 10 ms workload tick, 300 per
            // replica over the 3 s run. 44,603 = 45,083 − 16 · 30: the removed 100 ms
            // retrieval tick, 30 per replica.
            events: 44_603,
            confirmed: 386_000,
            sent_bytes: 845_385_150,
            recv_bytes: 845_385_150,
        },
    );
}

#[test]
fn hotstuff_quick_scale_matches_recaptured_golden() {
    let config = ScenarioConfig::paper(16).with_seed(0xA5A5);
    let report = run_hotstuff_scenario(&config);
    assert_matches(
        "hotstuff paper(16) seed 0xA5A5",
        &report,
        &Golden {
            events: 125_449,
            confirmed: 388_700,
            sent_bytes: 853_158_840,
            recv_bytes: 853_158_840,
        },
    );
}

#[test]
fn leopard_small_scale_matches_recaptured_golden() {
    let config = ScenarioConfig::small(7).with_seed(0xD00D);
    let report = run_leopard_scenario(&config);
    assert_matches(
        "leopard small(7) seed 0xD00D",
        &report,
        &Golden {
            // 23,658 = 25,058 − 7 · 200: the removed 10 ms workload tick, 200 per
            // replica over the 2 s run. 23,518 = 23,658 − 7 · 20: the removed 100 ms
            // retrieval tick, 20 per replica.
            events: 23_518,
            confirmed: 3_984,
            sent_bytes: 4_230_750,
            recv_bytes: 4_230_750,
        },
    );
}

#[test]
fn hotstuff_small_scale_matches_recaptured_golden() {
    let config = ScenarioConfig::small(7).with_seed(0xD00D);
    let report = run_hotstuff_scenario(&config);
    assert_matches(
        "hotstuff small(7) seed 0xD00D",
        &report,
        &Golden {
            events: 51_577,
            confirmed: 3_980,
            sent_bytes: 6_569_256,
            recv_bytes: 6_569_256,
        },
    );
}

/// One point of the geo-distributed `fig9geo` sweep: Leopard at n = 16 over the
/// 4-region WAN with 10% stragglers (2 degraded replicas). Captured once when the
/// topology layer landed (PR 5); pins the WAN latency matrix, the straggler profile
/// resolution and the per-pair jitter draws all at once.
#[test]
fn leopard_fig9geo_point_matches_captured_golden() {
    let config = ScenarioConfig::paper(16)
        .with_wan_regions(&FIG9GEO_REGIONS)
        .with_straggler_fraction(0.10)
        .with_seed(0x6E0);
    let report = run_leopard_scenario(&config);
    assert_matches(
        "leopard fig9geo paper(16) wan4 +10% stragglers seed 0x6E0",
        &report,
        &Golden {
            // 28,174 = 32,974 − 16 · 300: the removed 10 ms workload tick, 300 per
            // replica over the 3 s run. 28,126 = 28,174 − 16 · 3: the removed retrieval
            // tick, 3 per replica (its period is 3 dissemination times plus the WAN
            // headroom, about 0.9 s here).
            events: 28_126,
            confirmed: 294_000,
            sent_bytes: 844_733_759,
            recv_bytes: 844_733_759,
        },
    );
}

/// One chaos-engine case: seed 7, case 142 at n = 16 — the schedule (two overlapping
/// crash-restart windows plus a flapping region partition on a 4-region WAN) that
/// historically wedged recovery hardest. Captured when the chaos engine landed (PR 7);
/// pins the fault-schedule generator's draws, the crash/partition delivery model and
/// every recovery path the schedule exercises (state transfer, re-proposal
/// endorsement, deferred PrePrepares, the checkpoint watermark jump) all at once.
/// Sent and received totals differ here by design: crashes and partition windows drop
/// in-flight bytes.
///
/// Re-captured when the multi-proposer plane landed: the fault schedule is unchanged
/// (the generator's proposer overlay draws from a forked RNG stream, and this case
/// draws 1 proposer), but a stalled replica behind a confirmed frontier now
/// state-syncs its execution gap instead of waiting out the checkpoint watermark —
/// the wedge this case pinned heals ~1.4 s sooner (confirmed 42 800 → 65 200) and
/// one of the two view changes is no longer needed.
///
/// Re-captured when a missing datablock's first query moved from the next retrieval
/// tick to its own deadline (events 78,756 → 79,046, confirmed 65,200 → 62,200, sent
/// 250,904,315 → 251,343,987 and received 243,161,414 → 243,601,086 bytes; still no
/// violation and one view). On this WAN the first-query wait D is 572 ms, and wake-ups
/// land on multiples of D. Replicas 3, 7, 11 and 15 (the partitioned region) note
/// their missing datablocks at 680–738 ms; the parent's tick queried them at 1,145 ms,
/// the first multiple of D at or after each deadline is 1,717 ms, so they recover at
/// 1.91 s instead of 1.34 s. Their Readies come later, the leader's batches differ from
/// serial 33 on, and by the end of the 6 s run the furthest replica has executed 182
/// serials linking 311 datablocks instead of 180 linking 326: 15 datablocks of 200
/// requests fewer. (The rule against voting for a confirmed instance alone reads
/// 65,600; the first-query timing alone, 63,600.)
///
/// Re-captured when each first query moved to exactly D after its note, no longer
/// rounded up to a multiple of D (events 79,046 → 79,817, confirmed 62,200 → 66,200,
/// sent 251,343,987 → 251,358,930 and received 243,601,086 → 243,616,029 bytes; still
/// no violation and one view). The partitioned region's wake-ups now fire at
/// 1,252–1,310 ms, each D after its note at 680–738 ms, not all at 1,717 ms, so its
/// four replicas recover their datablocks at 1.44–1.51 s instead of 1.91 s.
///
/// Re-captured when the retrieval tick and the per-note wake-ups became one armed
/// wake-up per replica (events 79,817 → 79,662; confirmed, both byte totals, the
/// execution count and the out-of-order count unchanged, still no violation and one
/// view). The 155 events are the retrieval timer events removed: 190 before (157 tick
/// and 31 wake-up fires, and two ticks that fired into the crash windows of replicas
/// 5 and 13), 35 wake-ups now. The same 31 queries go out in the same order, and 24 of
/// them leave 0.6–1.1 µs earlier: they are sent from a wake-up that an earlier fire
/// re-armed, which lands at exactly the note plus D, where the parent's per-note
/// wake-up landed after the noting handler's charged compute. The retrievals and the
/// executions they gate move by as much, so the commit fingerprint moves; no count
/// does.
#[test]
fn chaos_case_matches_captured_golden() {
    let schedule = FaultScheduleGenerator::new(16, 7).schedule(142);
    let report = run_scenario::<LeopardReplica>(&schedule.to_config());
    assert_eq!(report.violations, Vec::<String>::new(), "chaos case 142 regressed");
    // The removed 10 ms workload ticks were 9,495 of the 6 s run's events (88,251 →
    // 78,756): 600 on each of the 14 replicas that never crash; 535 on replica 5 (49
    // before its crash at 492 ms, one that fires into the crash window, 485 after its
    // restart at 1,145 ms) and 560 on replica 13 (65 + 1 + 494 around its
    // [655 ms, 1,053 ms) window).
    assert_eq!(report.sim.events, 79_662, "chaos golden: events drifted");
    assert_eq!(report.confirmed_requests, 66_200, "chaos golden: confirmed drifted");
    assert_eq!(
        report.sim.metrics.traffic.total_sent_bytes(),
        251_358_930,
        "chaos golden: sent bytes drifted"
    );
    assert_eq!(
        report.sim.metrics.traffic.total_received_bytes(),
        243_616_029,
        "chaos golden: received bytes drifted"
    );
    assert_eq!(report.views_entered, 1);
    assert_eq!(report.max_views_per_disturbance, 1);
}

/// Two chaos runs of the same seeded schedule are bit-identical — the property the
/// one-line reproducer printed for a violating case depends on.
#[test]
fn repeated_chaos_runs_are_bit_identical() {
    let run = || {
        let schedule = FaultScheduleGenerator::new(16, 7).schedule(17);
        let report = run_scenario::<LeopardReplica>(&schedule.to_config());
        (
            report.sim.events,
            report.confirmed_requests,
            report.views_entered,
            report.violations.clone(),
            report.sim.metrics.traffic.total_sent_bytes(),
        )
    };
    assert_eq!(run(), run());
}

/// Two runs with the same seed agree on everything the golden constants pin down, at a
/// scale the constants do not cover (guards seed-plumbing, not just the four scenarios
/// above).
#[test]
fn repeated_runs_are_bit_identical() {
    let run = || {
        let config = ScenarioConfig::small(10).with_seed(42);
        let report = run_leopard_scenario(&config);
        let metrics = &report.sim.metrics;
        (
            report.sim.events,
            report.confirmed_requests,
            metrics.traffic.total_sent_bytes(),
            metrics.observations.iter().map(|o| o.at.as_nanos()).collect::<Vec<_>>(),
            metrics.commit_digest(),
        )
    };
    assert_eq!(run(), run());
}
