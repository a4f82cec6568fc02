//! Fan-out side-table properties (PR 10) under fuzzed fault schedules.
//!
//! The compressed event queue (see `DESIGN.md` §10) interns each logical fan-out
//! once in a per-run side table and queues `{fanout, receiver}` handles in place of
//! the expanded per-copy `{from, to, Arc<message>, size}` events. The expanded
//! representation no longer exists in the code, but its observable behaviour is
//! pinned by the constants in `tests/determinism_golden.rs`, which were captured
//! from it. This file adds the *property* layer on top of those point checks: across
//! fuzzed seeds, fault schedules and topologies (the chaos generator's space —
//! WAN/LAN, crash windows, region partitions, Byzantine proposers), a run must
//!
//! * be deterministic: a second run of the same fuzzed config yields the identical
//!   observation stream (the goldens pin this under faults only at chaos case 142),
//!   and
//! * pass the fan-out reference audit at the end of the run: every slot's refcount
//!   equals the number of `Arrive`/`Deliver` handles still queued against it (runs
//!   cut off at their deadline legitimately end with handles in flight, so "live
//!   slots == 0" would be the wrong invariant). A leaked reference leaves a slot
//!   out-referenced and fails the audit; a double-free underflows the slot's
//!   refcount and panics inside the table (debug assertions and overflow checks are
//!   active in the test profile) before the comparison even runs.
//!
//! Crash windows and partitions matter specifically because they drop *individual
//! receivers* out of a fan-out: the dropped copy's reference must come back via the
//! crash-path `release` (never `consume`), and a fan-out whose every copy is dropped
//! at route time must be reclaimed by `release_if_unused` without ever being
//! referenced.

use leopard::harness::chaos::FaultScheduleGenerator;
use leopard::core::LeopardReplica;
use leopard::harness::scenario::{run_scenario, ScenarioReport};
use leopard::simnet::CommitRecord;
use proptest::prelude::*;

/// The full observable surface of a run: headline totals plus the complete
/// observation stream with instants and every commit record, so two runs agreeing
/// here are observationally interchangeable.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    events: u64,
    confirmed: u64,
    sent_bytes: u64,
    recv_bytes: u64,
    views_entered: u64,
    observations: Vec<(u64, u32)>,
    commits: Vec<CommitRecord>,
}

fn fingerprint(report: &ScenarioReport) -> Fingerprint {
    Fingerprint {
        events: report.sim.events,
        confirmed: report.confirmed_requests,
        sent_bytes: report.sim.metrics.traffic.total_sent_bytes(),
        recv_bytes: report.sim.metrics.traffic.total_received_bytes(),
        views_entered: report.views_entered,
        observations: report
            .sim
            .metrics
            .observations
            .iter()
            .map(|o| (o.at.as_nanos(), o.node.0))
            .collect(),
        commits: report.sim.metrics.commits().to_vec(),
    }
}

proptest::proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// One fuzzed chaos schedule per case: `(n, master_seed, case_index)` select a
    /// schedule from the same generator CI's chaos smoke fuzzes — crash/restart
    /// windows, region partitions (WAN cases), message filters and Byzantine
    /// proposer draws included.
    #[test]
    fn compressed_queue_is_stream_equivalent_and_leak_free(
        n in 4usize..10,
        master_seed in 0u64..1024,
        case in 0usize..64,
    ) {
        let config = FaultScheduleGenerator::new(n, master_seed).schedule(case).to_config();

        let first = run_scenario::<LeopardReplica>(&config);
        prop_assert!(
            first.sim.fanouts_balanced,
            "run failed the reference audit ({} live, peak {})",
            first.sim.fanouts_live, first.sim.fanouts_peak
        );

        let second = run_scenario::<LeopardReplica>(&config);
        prop_assert_eq!(
            fingerprint(&first),
            fingerprint(&second),
            "two runs of one fuzzed schedule diverged"
        );
        // The slot *lifecycle* must also repeat: live count and peak table size are
        // functions of the (identical) event schedule.
        prop_assert_eq!(first.sim.fanouts_live, second.sim.fanouts_live);
        prop_assert_eq!(first.sim.fanouts_peak, second.sim.fanouts_peak);
        prop_assert_eq!(first.violations, second.violations);
    }
}

/// Deterministic regression anchor next to the fuzzed property: the recovery-wedging
/// chaos schedule (seed 7, case 142 — the PR 7 reproducer) passes the reference
/// audit even though crashes and partitions drop receivers mid-flight (the
/// crash-path `release` must return exactly the dropped handles).
#[test]
fn chaos_reproducer_balances_every_slot() {
    let config = FaultScheduleGenerator::new(16, 7).schedule(142).to_config();
    let report = run_scenario::<LeopardReplica>(&config);
    assert!(
        report.sim.fanouts_balanced,
        "reference audit failed ({} live, peak {})",
        report.sim.fanouts_live,
        report.sim.fanouts_peak
    );
    assert!(report.sim.fanouts_peak > 0, "table never used");
}
