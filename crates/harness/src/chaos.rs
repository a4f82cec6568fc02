//! The chaos engine: seeded fault-schedule fuzzing over the invariant checker.
//!
//! [`FaultScheduleGenerator`] composes random-but-valid adversarial runs — crash-restart
//! windows, flapping region partitions over the WAN topology, straggler assignments and
//! Byzantine role draws (including the recovery-plane attackers of
//! [`ByzantineBehavior::all_byzantine`]) — and the `chaos` experiment pushes hundreds of
//! them through [`run_scenario`] and the invariant checker.
//!
//! Every generated schedule satisfies two validity constraints *by construction*:
//!
//! * **corrupt + crashed ≤ f at every instant** — the generator first draws
//!   `b ≤ min(f, 2)` Byzantine roles, then at most `min(f − b, 2)` crash-restart
//!   windows on *distinct, non-Byzantine* replicas, so even if every crash window
//!   overlapped the budget cannot be exceeded;
//! * **a forced quiet tail after GST** — every scheduled fault ends by
//!   [`ChaosSchedule::gst`] (2.5 s into a 6 s run), so `ScenarioConfig::quiet_after()`
//!   leaves a 3.5 s disturbance-free tail, longer than the 2.5 s liveness bound, and
//!   the [`crate::invariants`] checker can always judge liveness.
//!
//! A violating seed is automatically shrunk by [`shrink_schedule`]: deterministically
//! drop one scheduled fault at a time, re-run, and keep the failure — repeated until no
//! single-fault removal still fails. The minimal schedule is printed together with a
//! one-line reproducer (`chaos --chaos-seed N --chaos-case K`) that regenerates the
//! exact same schedule from the seed pair alone.

use std::fmt;
use std::time::Instant;

use crate::experiments::FIG9GEO_REGIONS;
use crate::report::Table;
use crate::scenario::{run_scenario, ScenarioConfig, ScenarioReport};
use leopard_core::byzantine::ByzantineBehavior;
use leopard_core::LeopardReplica;
use leopard_crypto::provider::CryptoMode;
use leopard_simnet::{flapping_windows, SimDuration, SimTime};
use leopard_types::{fault_bound, NodeId, View};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// One scheduled fault — the unit the shrinker drops. Each variant maps onto exactly
/// one `ScenarioConfig` builder call in [`ChaosSchedule::to_config`].
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosFault {
    /// A replica plays one of the Byzantine roles for the whole run.
    Byzantine {
        /// The corrupted replica.
        node: NodeId,
        /// Its behaviour, drawn from [`ByzantineBehavior::all_byzantine`].
        behaviour: ByzantineBehavior,
    },
    /// A replica crashes at `at` and restarts (cold, via state transfer) at `until`.
    CrashRestart {
        /// The crashed replica.
        node: NodeId,
        /// Crash instant, as an offset from the start of the run.
        at: SimDuration,
        /// Restart instant; always at or before GST.
        until: SimDuration,
    },
    /// One severed window of a flapping region partition (each window shrinks away
    /// independently).
    Partition {
        /// First region index of the severed pair.
        region_a: usize,
        /// Second region index of the severed pair.
        region_b: usize,
        /// Start of the severed window.
        from: SimDuration,
        /// Heal instant of the window.
        until: SimDuration,
    },
    /// `count` replicas run as stragglers (network- and CPU-slow) for the whole run.
    Stragglers {
        /// Number of straggler replicas.
        count: usize,
    },
}

impl fmt::Display for ChaosFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosFault::Byzantine { node, behaviour } => {
                write!(f, "byzantine node {} ({behaviour:?})", node.0)
            }
            ChaosFault::CrashRestart { node, at, until } => write!(
                f,
                "crash-restart node {} [{:.3}s, {:.3}s)",
                node.0,
                at.as_secs_f64(),
                until.as_secs_f64()
            ),
            ChaosFault::Partition {
                region_a,
                region_b,
                from,
                until,
            } => write!(
                f,
                "partition regions {region_a}<->{region_b} [{:.3}s, {:.3}s)",
                from.as_secs_f64(),
                until.as_secs_f64()
            ),
            ChaosFault::Stragglers { count } => write!(f, "{count} straggler replica(s)"),
        }
    }
}

/// A complete generated adversarial run: the seed pair that reproduces it, the scale,
/// whether it runs over the four-region WAN topology, and the fault list.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSchedule {
    /// The master seed the generator was built with (`--chaos-seed`).
    pub master_seed: u64,
    /// The case index within the master seed's stream (`--chaos-case`).
    pub case_index: usize,
    /// Replica count.
    pub n: usize,
    /// `true` when the run uses the four-region WAN topology ([`FIG9GEO_REGIONS`]).
    pub wan: bool,
    /// Concurrent BFTblock proposers (the PR 9 multi-proposer plane); `1` is the
    /// classic single-leader protocol. Schedules with `proposers > 1` bias their
    /// Byzantine/crash draws onto the initial view's proposer slots, so faulty
    /// *proposers* — not just faulty leaders — are part of the fuzzed space.
    pub proposers: usize,
    /// The scheduled faults, in generation order.
    pub faults: Vec<ChaosFault>,
}

impl ChaosSchedule {
    /// Global stabilisation time: every scheduled fault has ended by this offset, and
    /// the remaining tail of the run is fault-free.
    pub fn gst() -> SimDuration {
        SimDuration::from_millis(2_500)
    }

    /// Total simulated duration of a chaos run.
    pub fn duration() -> SimDuration {
        SimDuration::from_secs(6)
    }

    /// The worst-case instantaneous `corrupt + crashed` count, assuming every crash
    /// window overlaps (an upper bound; the checker's validity argument needs only
    /// that this never exceeds f).
    pub fn max_corrupt_and_crashed(&self) -> usize {
        let byzantine = self
            .faults
            .iter()
            .filter(|fault| matches!(fault, ChaosFault::Byzantine { .. }))
            .count();
        let crashed = self
            .faults
            .iter()
            .filter(|fault| matches!(fault, ChaosFault::CrashRestart { .. }))
            .count();
        byzantine + crashed
    }

    /// The latest instant at which any scheduled fault is still active. The generator
    /// guarantees this is at most [`Self::gst`].
    pub fn last_fault_end(&self) -> SimDuration {
        let mut last = SimDuration::ZERO;
        for fault in &self.faults {
            let end = match fault {
                ChaosFault::CrashRestart { until, .. } | ChaosFault::Partition { until, .. } => {
                    *until
                }
                // Byzantine roles and stragglers run for the whole schedule but do not
                // disturb quiescence: the liveness bound already tolerates them.
                ChaosFault::Byzantine { .. } | ChaosFault::Stragglers { .. } => SimDuration::ZERO,
            };
            last = last.max(end);
        }
        last
    }

    /// Expands the schedule into a runnable [`ScenarioConfig`]: a 6 s metered run at
    /// 20 Kreqs/s with an aggressive progress timeout (400 ms on the flat LAN, 1 s
    /// over the WAN — in both cases just above the network's agreement round, so even
    /// two consecutive bad leaders are voted out well inside the 2.5 s liveness
    /// bound) and the liveness bound armed, so the invariant checker judges all four
    /// violation families.
    pub fn to_config(&self) -> ScenarioConfig {
        let timeout_ms = if self.wan { 1_000 } else { 400 };
        let mut config = ScenarioConfig::fault_load(self.n)
            .with_duration(Self::duration())
            .with_liveness_bound(Self::gst())
            .with_progress_timeout(SimDuration::from_millis(timeout_ms))
            .with_crypto_mode(CryptoMode::Metered)
            .with_proposers(self.proposers.max(1))
            .with_seed(case_seed(self.master_seed, self.case_index));
        if self.wan {
            config = config.with_wan_regions(&FIG9GEO_REGIONS);
        }
        let mut straggler_count = 0usize;
        for fault in &self.faults {
            match *fault {
                ChaosFault::Byzantine { node, behaviour } => {
                    config = config.with_byzantine_replica(node, behaviour);
                }
                ChaosFault::CrashRestart { node, at, until } => {
                    config = config.with_crash_restart(node, at, until);
                }
                ChaosFault::Partition {
                    region_a,
                    region_b,
                    from,
                    until,
                } => {
                    config = config.with_partition_window(region_a, region_b, from, until);
                }
                ChaosFault::Stragglers { count } => straggler_count += count,
            }
        }
        if straggler_count > 0 {
            // Offset down by half a replica so `ceil(fraction * n)` is immune to
            // floating-point rounding and lands exactly on `straggler_count`.
            let fraction = (straggler_count as f64 - 0.5) / self.n as f64;
            config = config.with_straggler_fraction(fraction);
        }
        config
    }

    /// A multi-line human-readable rendering of the schedule.
    pub fn describe(&self) -> String {
        let mut out = format!(
            "schedule seed {} case {} (n = {}, {}, {} proposer(s)): {} fault(s)",
            self.master_seed,
            self.case_index,
            self.n,
            if self.wan { "4-region WAN" } else { "flat LAN" },
            self.proposers.max(1),
            self.faults.len()
        );
        for fault in &self.faults {
            out.push_str("\n  * ");
            out.push_str(&fault.to_string());
        }
        out
    }
}

/// Mixes the master seed and the case index into the per-case RNG seed (and the
/// simulation seed), so `--chaos-case K` reproduces case `K` without replaying the
/// stream. SplitMix64's odd multiplicative constant decorrelates adjacent cases.
fn case_seed(master_seed: u64, case_index: usize) -> u64 {
    master_seed ^ (case_index as u64)
        .wrapping_add(1)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The single-line deterministic reproducer for a chaos case.
pub fn reproducer(master_seed: u64, case_index: usize) -> String {
    format!(
        "cargo run -p leopard-bench --release --bin experiments -- chaos --chaos-seed {master_seed} --chaos-case {case_index}"
    )
}

/// Runs a schedule through [`run_scenario`]; `report.violations` carries whatever the
/// invariant checker found.
pub fn run_schedule(schedule: &ChaosSchedule) -> ScenarioReport {
    run_scenario::<LeopardReplica>(&schedule.to_config())
}

/// Seeded generator of valid adversarial schedules at a fixed scale. The same
/// `(n, master_seed, case_index)` triple always yields the same schedule.
#[derive(Debug, Clone)]
pub struct FaultScheduleGenerator {
    n: usize,
    master_seed: u64,
}

impl FaultScheduleGenerator {
    /// Creates a generator for `n` replicas under `master_seed`.
    ///
    /// # Panics
    /// If `n < 4` (no fault budget exists below four replicas).
    pub fn new(n: usize, master_seed: u64) -> Self {
        assert!(n >= 4, "FaultScheduleGenerator: need n >= 4, got {n}");
        Self { n, master_seed }
    }

    /// Generates case `case_index` of this generator's schedule stream.
    pub fn schedule(&self, case_index: usize) -> ChaosSchedule {
        let mut rng = StdRng::seed_from_u64(case_seed(self.master_seed, case_index));
        // The proposer overlay draws from a forked sub-stream: growing the generator
        // must not reshuffle the crash/Byzantine/partition draws of every historical
        // case, or shrunk reproducer lines recorded before the feature landed would
        // silently reproduce different fault schedules.
        let mut overlay_rng =
            StdRng::seed_from_u64(case_seed(self.master_seed, case_index) ^ 0x70726F_706F73_6572);
        let f = fault_bound(self.n);
        let mut faults = Vec::new();

        // Multi-proposer draw: half the schedules run the PR 9 agreement plane with
        // p ∈ {2, 4} concurrent proposers (capped at n/4 so non-proposing producers
        // always remain; below n = 8 the cap collapses the draw back to 1).
        let proposers = if overlay_rng.gen_bool(0.5) {
            (*[2usize, 4].choose(&mut overlay_rng).expect("non-empty")).min(self.n / 4).max(1)
        } else {
            1
        };

        // Byzantine role draws: b ≤ min(f, 2) distinct replicas, behaviours from the
        // full adversarial catalogue (agreement plane and recovery plane alike).
        let mut ids: Vec<u32> = (0..self.n as u32).collect();
        ids.shuffle(&mut rng);
        if proposers > 1 && overlay_rng.gen_bool(0.5) {
            // Bias the corruption/crash draws onto the initial view's proposer slots
            // (stripes `j < p` of view 1): a faulty replica that *owns a stripe*
            // exercises the per-stripe view-change demotion path, which a uniform
            // draw at n = 16+ would rarely hit. A stable sort keeps the shuffled
            // order within each group, so the draw stays seed-deterministic.
            let p = proposers as u64;
            ids.sort_by_key(|&id| View::initial().stripe_of(NodeId(id), self.n, p).is_none());
        }
        let byzantine_count = rng.gen_range(0..=f.min(2));
        let behaviours = ByzantineBehavior::all_byzantine();
        for &id in &ids[..byzantine_count] {
            let behaviour = *behaviours.choose(&mut rng).expect("catalogue is non-empty");
            faults.push(ChaosFault::Byzantine {
                node: NodeId(id),
                behaviour,
            });
        }

        // Crash-restart windows on distinct non-Byzantine replicas. Even if every
        // window overlapped, corrupt + crashed ≤ byzantine_count + crash_count ≤ f.
        let crash_budget = (f - byzantine_count).min(2);
        let crash_count = if crash_budget == 0 {
            0
        } else {
            rng.gen_range(0..=crash_budget)
        };
        for &id in &ids[byzantine_count..byzantine_count + crash_count] {
            let at_ms = rng.gen_range(400..=1_500u64);
            let len_ms = rng.gen_range(300..=1_000u64);
            faults.push(ChaosFault::CrashRestart {
                node: NodeId(id),
                at: SimDuration::from_millis(at_ms),
                until: SimDuration::from_millis(at_ms + len_ms),
            });
        }

        // Topology draw; half the schedules run over the four-region WAN, and most of
        // those flap one region in and out of the network before GST.
        let wan = rng.gen_bool(0.5);
        if wan && rng.gen_bool(0.7) {
            let regions = FIG9GEO_REGIONS.len();
            let victim = rng.gen_range(0..regions);
            let start_ms = rng.gen_range(300..=800u64);
            let period_ms = rng.gen_range(300..=600u64);
            let duty = rng.gen_range(0.3..0.7);
            let cycles = rng.gen_range(2..=3usize);
            // Worst case 800 + 2·600 + 0.7·600 = 2 420 ms: the last heal always lands
            // before GST at 2 500 ms.
            let windows = flapping_windows(
                SimTime::ZERO + SimDuration::from_millis(start_ms),
                SimDuration::from_millis(period_ms),
                duty,
                cycles,
            );
            for (at, until) in windows {
                for other in 0..regions {
                    if other == victim {
                        continue;
                    }
                    faults.push(ChaosFault::Partition {
                        region_a: victim.min(other),
                        region_b: victim.max(other),
                        from: at.saturating_since(SimTime::ZERO),
                        until: until.saturating_since(SimTime::ZERO),
                    });
                }
            }
        }

        // Stragglers: honest-but-slow replicas, not counted against the fault budget.
        if rng.gen_bool(0.3) {
            faults.push(ChaosFault::Stragglers {
                count: rng.gen_range(1..=2usize),
            });
        }

        ChaosSchedule {
            master_seed: self.master_seed,
            case_index,
            n: self.n,
            wan,
            proposers,
            faults,
        }
    }
}

/// Greedily shrinks a failing schedule: scan the fault list, drop one fault, re-run
/// via `fails`, and restart the scan from the shortened schedule whenever the failure
/// persists. Terminates when no single-fault removal still fails — a 1-minimal
/// schedule. Deterministic because the scan order and the runner are.
pub fn shrink_schedule(
    schedule: &ChaosSchedule,
    mut fails: impl FnMut(&ChaosSchedule) -> bool,
) -> ChaosSchedule {
    let mut current = schedule.clone();
    loop {
        let mut shrunk = false;
        for index in 0..current.faults.len() {
            let mut candidate = current.clone();
            candidate.faults.remove(index);
            if fails(&candidate) {
                current = candidate;
                shrunk = true;
                break;
            }
        }
        if !shrunk {
            return current;
        }
    }
}

/// Knobs of the `chaos` experiment, settable from the CLI
/// (`--schedules`, `--chaos-seed`, `--chaos-case`).
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Number of generated schedules per scale.
    pub schedules: usize,
    /// Master seed of the schedule stream.
    pub seed: u64,
    /// Run exactly this one case instead of `0..schedules` (the reproducer path).
    pub case: Option<usize>,
    /// Replica counts to fuzz at.
    pub scales: Vec<usize>,
}

impl ChaosOptions {
    /// The quick profile, the one CI runs: 25 schedules at n = 16.
    pub fn quick() -> Self {
        Self {
            schedules: 25,
            seed: 7,
            case: None,
            scales: vec![16],
        }
    }

    /// The full acceptance profile: 200 schedules at each of n ∈ {16, 32, 64}.
    pub fn full() -> Self {
        Self {
            schedules: 200,
            seed: 7,
            case: None,
            scales: vec![16, 32, 64],
        }
    }
}

/// CLI overrides for [`ChaosOptions`], parsed by the `experiments` binary and applied
/// on top of the profile the experiment id selects.
#[derive(Debug, Clone, Default)]
pub struct ChaosOverrides {
    /// Overrides [`ChaosOptions::schedules`].
    pub schedules: Option<usize>,
    /// Overrides [`ChaosOptions::seed`].
    pub seed: Option<u64>,
    /// Sets [`ChaosOptions::case`].
    pub case: Option<usize>,
}

impl ChaosOverrides {
    /// Applies the overrides to a profile.
    pub fn apply(&self, mut options: ChaosOptions) -> ChaosOptions {
        if let Some(schedules) = self.schedules {
            options.schedules = schedules;
        }
        if let Some(seed) = self.seed {
            options.seed = seed;
        }
        if self.case.is_some() {
            options.case = self.case;
        }
        options
    }
}

/// Column set of the chaos table. The `clean (1=ok)` column is the table's gate: it
/// reads `1` only when every schedule at that scale passed all four invariant
/// families, so any violation fails the build.
pub const CHAOS_HEADERS: &[&str] = &[
    "n",
    "schedules",
    "clean (1=ok)",
    "violations",
    "worst views",
    "worst views/disturbance",
    "min confirmed",
    "schedules/sec",
];

/// The `chaos` experiment: run every generated schedule through [`run_scenario`] and
/// the invariant checker, one row per scale. Any violating case is shrunk to a
/// 1-minimal schedule and printed with its one-line reproducer.
pub fn chaos_experiment(options: &ChaosOptions) -> Table {
    let mut table = Table::new(
        "Chaos — seeded fault-schedule fuzzing over the invariant checker",
        CHAOS_HEADERS,
    )
    .gate(&["clean (1=ok)"]);
    for &n in &options.scales {
        let generator = FaultScheduleGenerator::new(n, options.seed);
        let cases: Vec<usize> = match options.case {
            Some(case) => vec![case],
            None => (0..options.schedules).collect(),
        };
        let started = Instant::now();
        let mut violating = 0usize;
        let mut worst_views = 0u64;
        let mut worst_views_per_disturbance = 0u64;
        let mut min_confirmed = u64::MAX;
        for &case in &cases {
            let schedule = generator.schedule(case);
            let report = run_schedule(&schedule);
            worst_views = worst_views.max(report.views_entered);
            worst_views_per_disturbance =
                worst_views_per_disturbance.max(report.max_views_per_disturbance);
            min_confirmed = min_confirmed.min(report.confirmed_requests);
            if !report.violations.is_empty() {
                violating += 1;
                report_violating_case(&schedule, &report);
            }
        }
        let elapsed = started.elapsed().as_secs_f64().max(1e-9);
        table.push_row(vec![
            n.to_string(),
            cases.len().to_string(),
            usize::from(violating == 0).to_string(),
            violating.to_string(),
            worst_views.to_string(),
            worst_views_per_disturbance.to_string(),
            if min_confirmed == u64::MAX {
                0
            } else {
                min_confirmed
            }
            .to_string(),
            format!("{:.2}", cases.len() as f64 / elapsed),
        ]);
    }
    table
}

/// Prints a violating case's verdicts, shrinks it to a 1-minimal schedule, and emits
/// the deterministic reproducer line.
fn report_violating_case(schedule: &ChaosSchedule, report: &ScenarioReport) {
    println!(
        "chaos: seed {} case {} (n = {}) VIOLATED invariants:",
        schedule.master_seed, schedule.case_index, schedule.n
    );
    for violation in &report.violations {
        println!("  - {violation}");
    }
    let minimal = shrink_schedule(schedule, |candidate| {
        !run_schedule(candidate).violations.is_empty()
    });
    println!(
        "chaos: shrunk from {} to {} fault(s); minimal {}",
        schedule.faults.len(),
        minimal.faults.len(),
        minimal.describe()
    );
    println!("chaos: reproduce with: {}", reproducer(schedule.master_seed, schedule.case_index));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The proposer bias picks exactly the proposers of view 1: the nodes
    /// `View::stripe_of` gives a stripe are those `View::proposer` names.
    #[test]
    fn proposer_bias_picks_the_initial_proposers() {
        for n in (1..=40).chain([255, 600, 1000]) {
            for p in 1..=n.min(8) as u64 {
                for id in 0..n as u32 {
                    let node = NodeId(id);
                    let held = View::initial().stripe_of(node, n, p).is_some();
                    let schedule = (0..p).any(|j| View::initial().proposer(j, n) == node);
                    assert_eq!(held, schedule, "n {n} p {p} {node}");
                }
            }
        }
    }

    /// Every generated schedule keeps the corrupt + crashed budget within f and ends
    /// every fault by GST, across a spread of seeds, cases and scales.
    #[test]
    fn generated_schedules_are_valid() {
        for &n in &[4usize, 16, 32] {
            let f = fault_bound(n);
            for seed in 0..4u64 {
                let generator = FaultScheduleGenerator::new(n, seed);
                for case in 0..25 {
                    let schedule = generator.schedule(case);
                    assert!(
                        schedule.max_corrupt_and_crashed() <= f,
                        "seed {seed} case {case} n {n}: corrupt+crashed budget exceeded: {}",
                        schedule.describe()
                    );
                    assert!(
                        schedule.last_fault_end() <= ChaosSchedule::gst(),
                        "seed {seed} case {case} n {n}: fault past GST: {}",
                        schedule.describe()
                    );
                    // Byzantine and crash nodes are distinct and in range.
                    let mut seen = std::collections::HashSet::new();
                    for fault in &schedule.faults {
                        match fault {
                            ChaosFault::Byzantine { node, .. }
                            | ChaosFault::CrashRestart { node, .. } => {
                                assert!((node.0 as usize) < n);
                                assert!(seen.insert(node.0), "node {} drawn twice", node.0);
                            }
                            ChaosFault::Partition {
                                region_a, region_b, ..
                            } => {
                                assert!(schedule.wan, "partition without WAN topology");
                                assert!(region_a < region_b);
                                assert!(*region_b < FIG9GEO_REGIONS.len());
                            }
                            ChaosFault::Stragglers { count } => {
                                assert!((1..=2).contains(count));
                            }
                        }
                    }
                }
            }
        }
    }

    /// The same (n, seed, case) triple always regenerates the identical schedule —
    /// the property the one-line reproducer relies on.
    #[test]
    fn schedules_are_deterministic_per_seed_and_case() {
        let a = FaultScheduleGenerator::new(16, 7).schedule(13);
        let b = FaultScheduleGenerator::new(16, 7).schedule(13);
        assert_eq!(a, b);
        let other_seed = FaultScheduleGenerator::new(16, 8).schedule(13);
        let other_case = FaultScheduleGenerator::new(16, 7).schedule(14);
        assert!(a != other_seed || a != other_case, "stream should vary");
    }

    /// The schedule stream exercises the recovery-plane Byzantine roles: across a
    /// modest prefix of cases, all three PR 7 attacker variants show up.
    #[test]
    fn generator_draws_recovery_plane_attackers() {
        let generator = FaultScheduleGenerator::new(16, 7);
        let mut lying = false;
        let mut equivocating = false;
        let mut silent = false;
        for case in 0..200 {
            for fault in &generator.schedule(case).faults {
                if let ChaosFault::Byzantine { behaviour, .. } = fault {
                    lying |= *behaviour == ByzantineBehavior::LyingStateResponder;
                    equivocating |= *behaviour == ByzantineBehavior::EquivocatingCheckpointer;
                    silent |= *behaviour == ByzantineBehavior::SilentStateResponder;
                }
            }
        }
        assert!(lying, "no LyingStateResponder drawn in 200 cases");
        assert!(equivocating, "no EquivocatingCheckpointer drawn in 200 cases");
        assert!(silent, "no SilentStateResponder drawn in 200 cases");
    }

    /// The schedule stream exercises the multi-proposer plane, including faulty
    /// replicas landing on the initial view's proposer slots.
    #[test]
    fn generator_draws_multi_proposer_schedules_with_faulty_proposers() {
        let generator = FaultScheduleGenerator::new(16, 7);
        let mut multi = 0usize;
        let mut faulty_proposer = false;
        for case in 0..200 {
            let schedule = generator.schedule(case);
            assert!(schedule.proposers >= 1 && schedule.proposers <= 16 / 4);
            if schedule.proposers > 1 {
                multi += 1;
                for fault in &schedule.faults {
                    if let ChaosFault::Byzantine { node, .. } | ChaosFault::CrashRestart { node, .. } =
                        fault
                    {
                        let p = schedule.proposers as u64;
                        faulty_proposer |= View::initial().stripe_of(*node, 16, p).is_some();
                    }
                }
            }
        }
        assert!(multi >= 50, "only {multi}/200 schedules drew multiple proposers");
        assert!(faulty_proposer, "no Byzantine/crashed replica landed on a proposer slot in 200 cases");
    }

    /// `to_config` maps every fault onto the scenario builder and arms the liveness
    /// bound, thrash bound and progress-timeout override.
    #[test]
    fn to_config_expands_faults() {
        let schedule = ChaosSchedule {
            master_seed: 3,
            case_index: 0,
            n: 16,
            wan: true,
            proposers: 2,
            faults: vec![
                ChaosFault::Byzantine {
                    node: NodeId(5),
                    behaviour: ByzantineBehavior::LyingStateResponder,
                },
                ChaosFault::CrashRestart {
                    node: NodeId(6),
                    at: SimDuration::from_millis(500),
                    until: SimDuration::from_millis(900),
                },
                ChaosFault::Partition {
                    region_a: 0,
                    region_b: 2,
                    from: SimDuration::from_millis(700),
                    until: SimDuration::from_millis(1_000),
                },
                ChaosFault::Stragglers { count: 2 },
            ],
        };
        let config = schedule.to_config();
        assert_eq!(config.n, 16);
        assert_eq!(config.proposers, 2);
        assert_eq!(config.byzantine.len(), 1);
        assert_eq!(config.crash_restarts.len(), 1);
        assert_eq!(config.partitions.len(), 1);
        assert_eq!(config.straggler_count(), 2);
        assert!(config.topology.is_some());
        assert_eq!(config.liveness_bound, Some(ChaosSchedule::gst()));
        // WAN schedules get the 1 s timeout; the 400 ms setting is LAN-only.
        assert_eq!(config.progress_timeout, Some(SimDuration::from_millis(1_000)));
        assert_eq!(
            config.quiet_after(),
            SimTime::ZERO + SimDuration::from_millis(1_000)
        );
        // 1 byz + 1 crash + 1 partition window = 3 disturbances.
        assert_eq!(config.disturbance_count(), 3);
        assert_eq!(config.effective_view_thrash_bound(), 16);
    }

    /// The shrinker finds a 1-minimal schedule: with a failure predicate that needs
    /// both the crash and the partition (but not the other faults), exactly those two
    /// survive, in the original order.
    #[test]
    fn shrinker_reaches_one_minimal_schedule() {
        let schedule = ChaosSchedule {
            master_seed: 1,
            case_index: 2,
            n: 16,
            wan: true,
            proposers: 1,
            faults: vec![
                ChaosFault::Stragglers { count: 1 },
                ChaosFault::CrashRestart {
                    node: NodeId(3),
                    at: SimDuration::from_millis(500),
                    until: SimDuration::from_millis(900),
                },
                ChaosFault::Byzantine {
                    node: NodeId(4),
                    behaviour: ByzantineBehavior::SilentStateResponder,
                },
                ChaosFault::Partition {
                    region_a: 1,
                    region_b: 3,
                    from: SimDuration::from_millis(600),
                    until: SimDuration::from_millis(800),
                },
            ],
        };
        let mut runs = 0usize;
        let minimal = shrink_schedule(&schedule, |candidate| {
            runs += 1;
            let crash = candidate
                .faults
                .iter()
                .any(|fault| matches!(fault, ChaosFault::CrashRestart { .. }));
            let partition = candidate
                .faults
                .iter()
                .any(|fault| matches!(fault, ChaosFault::Partition { .. }));
            crash && partition
        });
        assert_eq!(minimal.faults.len(), 2);
        assert!(matches!(minimal.faults[0], ChaosFault::CrashRestart { .. }));
        assert!(matches!(minimal.faults[1], ChaosFault::Partition { .. }));
        assert!(runs > 0);
        // The seed pair survives shrinking, so the reproducer stays valid.
        assert_eq!(minimal.master_seed, 1);
        assert_eq!(minimal.case_index, 2);
    }

    /// The reproducer line round-trips the seed pair in the documented CLI syntax.
    #[test]
    fn reproducer_line_carries_seed_and_case() {
        let line = reproducer(7, 42);
        assert!(line.contains("chaos --chaos-seed 7 --chaos-case 42"), "{line}");
        assert!(line.starts_with("cargo run -p leopard-bench"), "{line}");
    }

    /// Overrides apply on top of a profile without clobbering unset fields.
    #[test]
    fn overrides_apply_on_top_of_profile() {
        let overrides = ChaosOverrides {
            schedules: Some(3),
            seed: None,
            case: Some(9),
        };
        let options = overrides.apply(ChaosOptions::quick());
        assert_eq!(options.schedules, 3);
        assert_eq!(options.seed, 7);
        assert_eq!(options.case, Some(9));
        assert_eq!(options.scales, vec![16]);
    }
}

