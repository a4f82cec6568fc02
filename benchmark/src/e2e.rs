//! One end-to-end run: set-up timings, then rounds of the workload through the
//! harness's own scenario runner for `--seconds` of host time.
//!
//! A round runs [`INSTANCES`] instances of the workload, each with a seed of its own
//! derived from `--seed`, and the metrics are taken over all of them: one instance's
//! figures depend on where the seed puts each producer inside the pacing period, which
//! moved a latency percentile by up to 15 % between seeds. Simulated figures are a
//! function of the seed and must repeat bit for bit in every round. The work is the
//! same in every round, so what differs is what the machine adds. For minutes on end
//! that is a slower clock or slower memory: two reference kernels run after every
//! instance, and the host times of a round are divided by what they say about it (see
//! `reference.rs`). The host time of an instance is the median of its rounds after that.

use std::time::Instant;

use leopard_harness::report::peak_rss_bytes;
use leopard_harness::{run_hotstuff_scenario, run_leopard_scenario, ScenarioReport};
use leopard_simnet::SimTime;

use crate::mirror;
use crate::reference;
use crate::spec::{ProtocolKind, Scenario, Workload};
use crate::stats::median;

/// Scenario instances per round.
pub const INSTANCES: u64 = 4;
/// Every run makes at least this many rounds, whatever `--seconds` says, so that every
/// instance is compared with itself once and is timed twice.
const MIN_ROUNDS: usize = 2;

/// Set-up is timed this many times per run; `setup_s` is the median.
const SETUP_TIMINGS: usize = 15;
/// Set-ups per timing: at n = 32 one set-up takes 12 µs, too short to time alone.
const SETUPS_PER_TIMING: usize = 20;

/// The seed of one instance. Distinct `(seed, instance)` pairs give distinct seeds, so
/// two runs with neighbouring `--seed` values share no instance.
pub fn instance_seed(seed: u64, instance: u64) -> u64 {
    seed.wrapping_mul(INSTANCES).wrapping_add(instance)
}

/// What one instance says about the simulated system. Equal seeds give equal values.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    pub events: u64,
    pub confirmed: u64,
    /// Requests put on the wire: payload-category messages sent, over the fan-out of
    /// one multicast, times the batch size.
    pub offered: u64,
    /// `false` when the payload messages sent are not a whole number of fan-outs.
    pub whole_fanouts: bool,
    pub sent_bytes: u64,
    pub received_bytes: u64,
    /// Requests confirmed from the measuring instant on, and the nanoseconds they took.
    pub window_confirmed: u64,
    pub window_nanos: u64,
    /// Client latencies as sorted `(nanoseconds, requests)` pairs: the requests of one
    /// datablock confirm together, so there are few distinct values.
    pub latencies: Vec<(u64, u64)>,
    pub leader_bytes: u64,
    pub leader_cpu_nanos: u64,
    pub reached_deadline: bool,
    pub fanouts_balanced: bool,
}

/// The simulated figures of a set of instances, taken over all their requests.
#[derive(Debug, Clone, PartialEq)]
pub struct Pooled {
    pub events: u64,
    pub confirmed: u64,
    pub offered: u64,
    pub kreqs: f64,
    pub lat_p50_ms: f64,
    pub lat_p95_ms: f64,
    pub lat_samples: u64,
    pub leader_bytes_per_req: f64,
    pub leader_cpu_us_per_req: f64,
}

pub fn run_scenario(workload: &Workload, scenario: &Scenario) -> ScenarioReport {
    match workload.protocol {
        ProtocolKind::Leopard => run_leopard_scenario(&scenario.config),
        ProtocolKind::HotStuff => run_hotstuff_scenario(&scenario.config),
    }
}

/// `p`-quantile (nearest rank) of sorted `(nanoseconds, count)` pairs, in milliseconds.
fn quantile_ms(sorted: &[(u64, u64)], p: f64) -> f64 {
    let total: u64 = sorted.iter().map(|(_, count)| count).sum();
    let rank = ((total - 1) as f64 * p).round() as u64;
    let mut seen = 0;
    for &(nanos, count) in sorted {
        seen += count;
        if seen > rank {
            return nanos as f64 / 1e6;
        }
    }
    unreachable!("the rank lies below the total")
}

pub fn sim_outcome(
    workload: &Workload,
    scenario: &Scenario,
    report: &ScenarioReport,
) -> SimOutcome {
    let config = &scenario.config;
    let metrics = &report.sim.metrics;

    let (category, batch) = match workload.protocol {
        ProtocolKind::Leopard => ("datablock", config.datablock_size),
        ProtocolKind::HotStuff => ("block", config.hotstuff_batch),
    };
    let payload_messages: u64 = metrics
        .traffic
        .iter_sent()
        .filter(|(_, sent_category, _, _)| *sent_category == category)
        .map(|(_, _, _, count)| count)
        .sum();
    let fanout = config.n as u64 - 1;

    // Work completed per second of simulated time: what confirmed from the measuring
    // instant on, over the time until the last confirmation (a drained Leopard run)
    // or the end of the run (HotStuff, which never stops offering load).
    let from = SimTime::ZERO + scenario.measure_from;
    let until = if scenario.drained {
        report
            .sim
            .probes
            .iter()
            .flatten()
            .filter_map(|probe| probe.last_confirmation_at)
            .max()
            .unwrap_or(from)
    } else {
        report.sim.end_time
    };

    // Exact order statistics, not the report's histogram percentiles: one histogram
    // bucket is 4.4 % wide, which is the size of the change a bound should catch.
    let mut samples = metrics.latency_samples();
    samples.sort_unstable();
    let mut latencies: Vec<(u64, u64)> = Vec::new();
    for nanos in samples {
        match latencies.last_mut() {
            Some((last, count)) if *last == nanos => *count += 1,
            _ => latencies.push((nanos, 1)),
        }
    }

    let leader = config.initial_leader();
    SimOutcome {
        events: report.sim.events,
        confirmed: report.confirmed_requests,
        offered: payload_messages * batch as u64 / fanout,
        whole_fanouts: payload_messages.is_multiple_of(fanout),
        sent_bytes: metrics.traffic.total_sent_bytes(),
        received_bytes: metrics.traffic.total_received_bytes(),
        window_confirmed: metrics.max_confirmed_requests_since(config.n, from),
        window_nanos: until.saturating_since(from).as_nanos(),
        latencies,
        leader_bytes: metrics.traffic.sent_bytes(leader) + metrics.traffic.received_bytes(leader),
        leader_cpu_nanos: report.sim.compute_busy_nanos[leader.as_index()],
        reached_deadline: report.sim.end_time >= SimTime::ZERO + config.duration,
        fanouts_balanced: report.sim.fanouts_balanced,
    }
}

/// Takes the simulated figures over every request of `outcomes`.
pub fn pool(outcomes: &[SimOutcome]) -> Pooled {
    let sum = |field: fn(&SimOutcome) -> u64| outcomes.iter().map(field).sum::<u64>();
    let confirmed = sum(|o| o.confirmed);
    let per_req = |total: u64| total as f64 / confirmed.max(1) as f64;

    let mut latencies: Vec<(u64, u64)> = outcomes
        .iter()
        .flat_map(|o| o.latencies.iter().copied())
        .collect();
    latencies.sort_unstable();
    let (lat_p50_ms, lat_p95_ms) = if latencies.is_empty() {
        (0.0, 0.0)
    } else {
        (quantile_ms(&latencies, 0.50), quantile_ms(&latencies, 0.95))
    };

    let window_nanos = sum(|o| o.window_nanos);
    Pooled {
        events: sum(|o| o.events),
        confirmed,
        offered: sum(|o| o.offered),
        kreqs: if window_nanos > 0 {
            sum(|o| o.window_confirmed) as f64 / (window_nanos as f64 / 1e9) / 1e3
        } else {
            0.0
        },
        lat_p50_ms,
        lat_p95_ms,
        lat_samples: latencies.iter().map(|(_, count)| count).sum(),
        leader_bytes_per_req: per_req(sum(|o| o.leader_bytes)),
        leader_cpu_us_per_req: per_req(sum(|o| o.leader_cpu_nanos)) / 1e3,
    }
}

/// Why a finished instance is not correct; empty when it is.
pub fn problems(outcome: &SimOutcome) -> Vec<String> {
    let mut problems = Vec::new();
    if !outcome.reached_deadline {
        problems.push(format!(
            "stopped at the event budget after {} events",
            outcome.events
        ));
    }
    if !outcome.fanouts_balanced {
        problems.push("fan-out reference audit failed".into());
    }
    if !outcome.whole_fanouts {
        problems.push("a payload fan-out was counted in part".into());
    }
    if outcome.confirmed == 0 {
        problems.push("nothing confirmed".into());
    }
    if outcome.confirmed > outcome.offered {
        problems.push(format!(
            "confirmed {} of {} offered requests",
            outcome.confirmed, outcome.offered
        ));
    }
    problems
}

/// Operations attempted and failed. An operation is a request the run has to confirm:
/// on a lossless workload every request put on the wire, so the difference to what
/// confirmed is lost requests. The other workloads end with requests that cannot
/// confirm (HotStuff is cut off with ~1 % in flight, a crashed leader takes what was
/// offered to it along), so they attempt what they confirmed. A run that is not correct
/// fails everything it attempted.
pub fn operations(lossless: bool, pooled: &Pooled, correct: bool) -> (u64, u64) {
    let attempted = if lossless {
        pooled.offered
    } else {
        pooled.confirmed
    }
    .max(1);
    let failed = if correct {
        attempted.saturating_sub(pooled.confirmed)
    } else {
        attempted
    };
    (attempted, failed)
}

/// Seconds per set-up: config derivation + trusted set-up + `Simulation::new`.
fn time_setup(workload: &Workload, scenario: &Scenario) -> f64 {
    let start = Instant::now();
    for _ in 0..SETUPS_PER_TIMING {
        match workload.protocol {
            ProtocolKind::Leopard => drop(mirror::leopard_sim(&scenario.config, |r| r)),
            ProtocolKind::HotStuff => drop(mirror::hotstuff_sim(&scenario.config, |r| r)),
        }
    }
    start.elapsed().as_secs_f64() / SETUPS_PER_TIMING as f64
}

/// The result of one `--trace 0` run.
#[derive(Debug)]
pub struct EndToEnd {
    pub lossless: bool,
    pub sim: Pooled,
    /// The pace of every round: what its reference passes say the machine added to
    /// its host times, as a factor (1 = nothing).
    pub paces: Vec<f64>,
    /// Host seconds of each instance's runner call over the pace of the round, the
    /// median of its rounds.
    pub instance_secs: Vec<f64>,
    /// The same without the division: host seconds as measured.
    pub measured_secs: Vec<f64>,
    pub setup_secs: Vec<f64>,
    pub peak_rss_mb: f64,
    /// Why the run is not correct; empty when it is.
    pub problems: Vec<String>,
}

impl EndToEnd {
    /// Values in the order of `spec::end_to_end()`.
    pub fn values(&self) -> [f64; 9] {
        let host: f64 = self.instance_secs.iter().sum();
        [
            self.sim.kreqs,
            self.sim.lat_p50_ms,
            self.sim.lat_p95_ms,
            self.sim.leader_bytes_per_req,
            self.sim.leader_cpu_us_per_req,
            host * 1e6 / self.sim.confirmed.max(1) as f64,
            host * 1e9 / self.sim.events.max(1) as f64,
            self.peak_rss_mb,
            median(&self.setup_secs),
        ]
    }
}

pub fn run(workload: &Workload, seed: u64, seconds: f64) -> EndToEnd {
    let scenarios: Vec<Scenario> = (0..INSTANCES)
        .map(|instance| workload.scenario(instance_seed(seed, instance)))
        .collect();

    let setup_secs: Vec<f64> = (0..SETUP_TIMINGS)
        .map(|_| time_setup(workload, &scenarios[0]))
        .collect();

    let mut events = reference::Events::new();
    let mut paces: Vec<f64> = Vec::new();
    // Per instance, the host seconds of every round: at the reference pace, as measured.
    let mut paced: Vec<Vec<f64>> = vec![Vec::new(); scenarios.len()];
    let mut measured = paced.clone();
    let mut outcomes: Vec<SimOutcome> = Vec::new();
    let mut peak_rss_mb = 0.0;
    let mut problems = Vec::new();
    let measuring = Instant::now();
    loop {
        let first_round = paces.is_empty();
        let mut secs = Vec::with_capacity(scenarios.len());
        let mut passes = Vec::new();
        for (instance, scenario) in scenarios.iter().enumerate() {
            let start = Instant::now();
            let report = run_scenario(workload, scenario);
            secs.push(start.elapsed().as_secs_f64());
            if first_round && instance == 0 {
                // Read after one instance in a fresh process, before the reference
                // kernels have run: their memory is not the program's, and later
                // instances only add allocator fragmentation.
                peak_rss_mb = peak_rss_bytes() as f64 / 1e6;
            }
            // Reference passes for a twentieth of the instance's own time.
            let mut spent = 0.0;
            while spent < secs[instance] / 20.0 {
                let pass = reference::pass(&mut events);
                spent += pass.compute_secs + pass.events_secs;
                passes.push(pass);
            }
            let outcome = sim_outcome(workload, scenario, &report);
            if first_round {
                outcomes.push(outcome);
            } else if outcomes[instance] != outcome {
                problems.push(format!(
                    "instance {instance} differs between rounds: {} events and {} confirmed, then {} and {}",
                    outcomes[instance].events, outcomes[instance].confirmed, outcome.events, outcome.confirmed
                ));
            }
        }
        let pace = reference::pace(&passes);
        for (instance, secs) in secs.iter().enumerate() {
            paced[instance].push(secs / pace);
            measured[instance].push(*secs);
        }
        paces.push(pace);
        // Another round only if it should end nearer to `seconds` than this one did.
        let rounds = paces.len();
        let elapsed = measuring.elapsed().as_secs_f64();
        let half_a_round = elapsed / rounds as f64 / 2.0;
        if !problems.is_empty() || (rounds >= MIN_ROUNDS && elapsed + half_a_round >= seconds) {
            break;
        }
    }
    for (instance, outcome) in outcomes.iter().enumerate() {
        for problem in self::problems(outcome) {
            problems.push(format!("instance {instance}: {problem}"));
        }
    }

    EndToEnd {
        lossless: scenarios[0].lossless,
        sim: pool(&outcomes),
        paces,
        instance_secs: paced.iter().map(|rounds| median(rounds)).collect(),
        measured_secs: measured.iter().map(|rounds| median(rounds)).collect(),
        setup_secs,
        peak_rss_mb,
        problems,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;
    use leopard_harness::ScenarioConfig;
    use leopard_simnet::SimDuration;

    #[test]
    fn every_offered_request_confirms_on_a_drained_fault_free_run() {
        // The lan workload's shape at n = 16: three pacing periods of load, then a tail.
        let workload = &WORKLOADS[0];
        let base = ScenarioConfig::paper(16).with_seed(3);
        let period = mirror::pacing_period(&base);
        let load_end = period.saturating_mul(3);
        let scenario = Scenario {
            config: base
                .with_warmup(SimDuration::ZERO)
                .with_workload_stop(load_end)
                .with_duration(load_end + SimDuration::from_secs(1)),
            measure_from: SimDuration::ZERO,
            drained: true,
            lossless: true,
        };
        let outcome = sim_outcome(workload, &scenario, &run_scenario(workload, &scenario));
        assert_eq!(
            outcome.offered,
            15 * 3 * scenario.config.datablock_size as u64
        );
        assert_eq!(outcome.confirmed, outcome.offered);
        assert_eq!(problems(&outcome), Vec::<String>::new());
        // Same seed, same numbers.
        assert_eq!(
            outcome,
            sim_outcome(workload, &scenario, &run_scenario(workload, &scenario))
        );

        let pooled = pool(&[outcome.clone(), outcome.clone()]);
        assert_eq!(pooled.confirmed, 2 * outcome.confirmed);
        assert_eq!(pooled.lat_samples, pooled.confirmed);
        assert_eq!(pooled, {
            // Twice the same instance is that instance, with twice the counts.
            let mut single = pool(&[outcome]);
            single.events *= 2;
            single.confirmed *= 2;
            single.offered *= 2;
            single.lat_samples *= 2;
            single
        });
        assert!(pooled.kreqs > 0.0 && pooled.lat_p50_ms > 0.0);
        assert!(pooled.lat_p95_ms >= pooled.lat_p50_ms);
        assert_eq!(operations(true, &pooled, true), (pooled.offered, 0));
        assert_eq!(
            operations(true, &pooled, false),
            (pooled.offered, pooled.offered)
        );
    }

    #[test]
    fn quantiles_use_the_nearest_rank() {
        // 1 ms .. 101 ms, each twice: ranks 100 and 191 of 202 samples.
        let samples: Vec<(u64, u64)> = (1..=101).map(|v| (v * 1_000_000, 2)).collect();
        assert_eq!(quantile_ms(&samples, 0.50), 51.0);
        assert_eq!(quantile_ms(&samples, 0.95), 96.0);
        assert_eq!(quantile_ms(&[(7_000_000, 1)], 0.95), 7.0);
    }

    #[test]
    fn instances_of_different_seeds_never_share_a_seed() {
        let seeds: std::collections::BTreeSet<u64> = (100..110)
            .flat_map(|seed| (0..INSTANCES).map(move |i| instance_seed(seed, i)))
            .collect();
        assert_eq!(seeds.len(), 10 * INSTANCES as usize);
    }
}
