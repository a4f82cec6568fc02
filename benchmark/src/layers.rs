//! One `--trace 1` run: the per-layer ledger of a workload.
//!
//! Three runs of the first of the instances an end-to-end run with the same seed pools,
//! then the isolated drivers:
//! 1. through the harness's runner — the reference event count and the simulated
//!    per-layer figures (stage latencies, bytes per request, utilisation);
//! 2. through the mirror, unwrapped, with the phases timed — set-up, `run_until`,
//!    invariant check, report;
//! 3. through the mirror with every replica wrapped in a `Traced` — host time per
//!    handler kind and per context call.
//!
//! End-to-end metrics never come from here; the ratio of run 3 to run 2 is the
//! tracing overhead.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use leopard_harness::report::json_string;
use leopard_harness::{ScenarioReport, SystemSnapshot};
use leopard_simnet::{Protocol, SimTime, Simulation, SimulationReport};
use leopard_types::NodeId;

use crate::drivers;
use crate::e2e::{self, instance_seed, operations, pool, run_scenario, sim_outcome};
use crate::mirror;
use crate::spec::{self, ProtocolKind, Scenario, Workload};
use crate::trace::{
    self_ns, slot_name, Categorised, Ledger, Span, Traced, Tracer, SAMPLE_EVERY, SLOTS,
    SLOT_CHARGE, SLOT_FANOUT, SLOT_OBSERVE, SLOT_SEND, SLOT_SET_TIMER, SLOT_TIMER, TIME_EVERY,
};

/// Nanoseconds this thread has spent on a CPU (`/proc/thread-self/schedstat`), or 0
/// where the kernel does not say.
fn cpu_nanos() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|text| text.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Host nanoseconds of the phases of one unwrapped run.
struct Phases {
    setup_ns: u64,
    run_ns: u64,
    check_ns: u64,
    report_ns: u64,
    events: u64,
}

/// What the wrapped run recorded.
struct TracedRun {
    run_ns: u64,
    /// Cost of one clock read, measured before the run.
    read_ns: f64,
    events: u64,
    ledger: Ledger,
    spans: Vec<Span>,
}

impl TracedRun {
    /// `run_until` less the handlers and less the clock reads the run made.
    fn engine_self_ns(&self) -> f64 {
        let clock = self.ledger.clock_reads_made() as f64 * self.read_ns;
        (self.run_ns as f64 - self.ledger.handler_ns(self.read_ns) - clock).max(0.0)
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_nanos() as u64)
}

fn run_to_deadline<P: Protocol>(sim: &mut Simulation<P>, scenario: &Scenario) -> u64 {
    let config = &scenario.config;
    timed(|| sim.run_until(SimTime::ZERO + config.duration, config.max_events)).1
}

/// Calls the accessors the runners' private `ScenarioReport::from_sim` calls, so that
/// `harness.report_ns` covers turning a finished simulation into numbers, not only
/// `into_report`.
fn extract(report: &SimulationReport, scenario: &Scenario) -> f64 {
    report.throughput_rps()
        + report.steady_state_throughput_rps(scenario.config.effective_warmup())
        + report.average_latency_secs().unwrap_or(0.0)
        + report.latency_percentile_secs(0.99).unwrap_or(0.0)
        + report.max_compute_utilization()
        + report.mean_compute_utilization()
        + report.metrics.custom_samples("view_change_nanos").len() as f64
}

/// Runs a freshly set-up simulation to its deadline and times what follows. `check`
/// returns the nanoseconds the invariant check took (HotStuff runs have none).
fn finish_phases<P: Protocol>(
    (mut sim, setup_ns): (Simulation<P>, u64),
    scenario: &Scenario,
    check: impl FnOnce(&Simulation<P>) -> u64,
) -> Phases {
    let run_ns = run_to_deadline(&mut sim, scenario);
    let check_ns = check(&sim);
    let events = sim.events_processed();
    let (_, report_ns) = timed(|| std::hint::black_box(extract(&sim.into_report(), scenario)));
    Phases {
        setup_ns,
        run_ns,
        check_ns,
        report_ns,
        events,
    }
}

fn phased_run(workload: &Workload, scenario: &Scenario) -> Phases {
    let config = &scenario.config;
    match workload.protocol {
        ProtocolKind::Leopard => finish_phases(
            timed(|| mirror::leopard_sim(config, |r| r)),
            scenario,
            |sim| {
                let (violations, check_ns) = timed(|| {
                    SystemSnapshot::capture(
                        sim,
                        config.n,
                        config.quiet_after(),
                        mirror::stall_bound(config),
                        config.disturbance_count(),
                        config.effective_view_thrash_bound(),
                    )
                    .check()
                });
                assert!(
                    violations.is_empty(),
                    "the mirrored run violated an invariant: {violations:?}"
                );
                check_ns
            },
        ),
        ProtocolKind::HotStuff => finish_phases(
            timed(|| mirror::hotstuff_sim(config, |r| r)),
            scenario,
            |_| 0,
        ),
    }
}

fn finish_traced<P: Protocol>(
    mut sim: Simulation<Traced<P>>,
    tracer: &Tracer,
    scenario: &Scenario,
) -> TracedRun
where
    P::Message: Categorised,
{
    let read_ns = tracer.clock_read_ns();
    let run_ns = run_to_deadline(&mut sim, scenario);
    let mut ledger = Ledger::default();
    let mut spans = Vec::new();
    for node in 0..scenario.config.n {
        let replica = sim.node(NodeId(node as u32));
        ledger.merge(replica.ledger());
        // Parent indices are per replica; shift them into the merged list.
        let base = spans.len() as u32;
        spans.extend(replica.spans().iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..*s
        }));
    }
    TracedRun {
        run_ns,
        read_ns,
        events: sim.events_processed(),
        ledger,
        spans,
    }
}

fn traced_run(workload: &Workload, scenario: &Scenario) -> TracedRun {
    let tracer = Tracer::new();
    match workload.protocol {
        ProtocolKind::Leopard => finish_traced(
            mirror::leopard_sim(&scenario.config, |r| tracer.wrap(r)),
            &tracer,
            scenario,
        ),
        ProtocolKind::HotStuff => finish_traced(
            mirror::hotstuff_sim(&scenario.config, |r| tracer.wrap(r)),
            &tracer,
            scenario,
        ),
    }
}

fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<u64>() as f64 / samples.len() as f64
    }
}

/// Simulated per-layer figures, read from the harness run's report.
fn simulated(
    workload: &Workload,
    scenario: &Scenario,
    report: &ScenarioReport,
    out: &mut BTreeMap<String, f64>,
) {
    let config = &scenario.config;
    let sim = &report.sim;
    let confirmed = report.confirmed_requests.max(1) as f64;

    out.insert(
        "simnet.events_per_req".into(),
        sim.events as f64 / confirmed,
    );
    out.insert("simnet.fanouts_peak".into(), sim.fanouts_peak as f64);
    out.insert(
        "simnet.observations_len".into(),
        sim.metrics.observations.len() as f64,
    );
    out.insert("simnet.cpu_util_max".into(), report.max_compute_utilization);
    out.insert(
        "simnet.cpu_util_mean".into(),
        report.mean_compute_utilization,
    );
    let leader = config.initial_leader();
    let uplink_bps = mirror::network(config).link(leader.as_index()).uplink_bps;
    let uplink_bits = sim.metrics.traffic.sent_bytes(leader) as f64 * 8.0;
    out.insert(
        "simnet.leader_uplink_util".into(),
        if uplink_bps == 0 {
            0.0
        } else {
            uplink_bits / (report.duration_secs * uplink_bps as f64)
        },
    );

    let mut sent_by_category: BTreeMap<&str, u64> = BTreeMap::new();
    for (_, category, bytes, _) in sim.metrics.traffic.iter_sent() {
        *sent_by_category.entry(category).or_default() += bytes;
    }
    let (layer, categories) = workload.protocol.layer();
    for category in categories {
        let bytes = sent_by_category.get(category).copied().unwrap_or(0);
        out.insert(
            format!("{layer}.bytes_per_req.{category}"),
            bytes as f64 / confirmed,
        );
    }

    // The paper's Table IV, as means of the replicas' own stage samples; zero for HotStuff.
    for stage in ["generation", "dissemination", "agreement"] {
        let samples = sim.metrics.custom_samples(&format!("latency_{stage}"));
        out.insert(format!("core.stage_{stage}_ms"), mean(&samples) / 1e6);
    }
    out.insert(
        "core.retrievals_per_kreq".into(),
        report.retrievals as f64 / (confirmed / 1e3),
    );
    out.insert(
        "core.retrieval_ms_mean".into(),
        report.average_retrieval_secs.unwrap_or(0.0) * 1e3,
    );
    out.insert("core.view_changes".into(), report.view_changes as f64);
    out.insert("core.views_entered".into(), report.views_entered as f64);
    out.insert(
        "core.view_change_ms".into(),
        report.average_view_change_secs.unwrap_or(0.0) * 1e3,
    );
}

/// Host time per handler kind and context call, from the wrapped run.
fn traced(workload: &Workload, run: &TracedRun, out: &mut BTreeMap<String, f64>) {
    let ledger = &run.ledger;
    let read_ns = run.read_ns;
    let engine_self = run.engine_self_ns();
    out.insert("simnet.events".into(), run.events as f64);
    out.insert("simnet.engine_self_ns".into(), engine_self);
    out.insert(
        "simnet.engine_self_ns_per_event".into(),
        engine_self / run.events.max(1) as f64,
    );
    for (name, slot) in [
        ("send", SLOT_SEND),
        ("fanout", SLOT_FANOUT),
        ("timer", SLOT_SET_TIMER),
        ("observe", SLOT_OBSERVE),
    ] {
        out.insert(format!("simnet.ctx_{name}_ns"), ledger.ns(slot, read_ns));
        out.insert(
            format!("simnet.ctx_{name}_calls"),
            ledger.calls[slot] as f64,
        );
    }
    out.insert(
        "simnet.ctx_charge_calls".into(),
        ledger.calls[SLOT_CHARGE] as f64,
    );

    let (layer, categories) = workload.protocol.layer();
    for (slot, category) in categories.iter().enumerate() {
        out.insert(
            format!("{layer}.on_message_ns.{category}"),
            ledger.ns(slot, read_ns),
        );
        out.insert(
            format!("{layer}.on_message_calls.{category}"),
            ledger.calls[slot] as f64,
        );
    }
    out.insert(
        format!("{layer}.on_timer_ns"),
        ledger.ns(SLOT_TIMER, read_ns),
    );
    if workload.protocol == ProtocolKind::Leopard {
        out.insert(
            "core.on_timer_calls".into(),
            ledger.calls[SLOT_TIMER] as f64,
        );
        out.insert(
            "core.handler_self_ns".into(),
            ledger.handler_ns(read_ns) - ledger.context_ns(read_ns),
        );
    }
}

/// Writes the aggregates and the sampled span trees of one traced run.
fn write_trace<M: Categorised>(
    workload: &Workload,
    seed: u64,
    run: &TracedRun,
) -> std::io::Result<PathBuf> {
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"workload\":{},\"seed\":{seed},\"events\":{},\"time_every\":{TIME_EVERY},\"sample_every\":{SAMPLE_EVERY},\"clock_read_ns\":{:.1},\n\"root\":{{\"name\":\"simnet.run_until\",\"start_ns\":0,\"end_ns\":{},\"self_ns\":{:.0}}},\n\"totals\":[",
        json_string(workload.name),
        run.events,
        run.read_ns,
        run.run_ns,
        run.engine_self_ns(),
    );
    let mut first = true;
    for slot in (0..SLOTS).filter(|&slot| run.ledger.calls[slot] > 0) {
        let _ = write!(
            json,
            "{}\n{{\"name\":{},\"calls\":{},\"timed_calls\":{},\"timed_ns\":{},\"estimated_total_ns\":{:.0}}}",
            if first { "" } else { "," },
            json_string(&slot_name::<M>(slot)),
            run.ledger.calls[slot],
            run.ledger.timed_calls[slot],
            run.ledger.timed_ns[slot],
            run.ledger.ns(slot, run.read_ns),
        );
        first = false;
    }
    json.push_str("],\n\"spans\":[");
    for (index, span) in run.spans.iter().enumerate() {
        let parent = match span.parent {
            Some(parent) => slot_name::<M>(run.spans[parent as usize].slot as usize),
            None => "simnet.run_until".into(),
        };
        // A handler's children follow it directly in the list.
        let children: Vec<(u64, u64)> = run.spans[index + 1..]
            .iter()
            .take_while(|child| child.parent == Some(index as u32))
            .map(|child| (child.start_ns, child.end_ns))
            .collect();
        let _ = write!(
            json,
            "{}\n{{\"id\":{},\"node\":{},\"name\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            if index == 0 { "" } else { "," },
            span.id,
            span.node,
            json_string(&slot_name::<M>(span.slot as usize)),
            json_string(&parent),
            span.start_ns,
            span.end_ns,
            self_ns((span.start_ns, span.end_ns), &children),
        );
    }
    json.push_str("]}\n");

    // Next to the executable: inside the build directory, wherever that is.
    let path = std::env::current_exe()?.with_file_name(format!("trace-{}.json", workload.name));
    std::fs::write(&path, json)?;
    Ok(path)
}

/// The result of one `--trace 1` run.
pub struct Layers {
    /// One value per metric of `spec::per_layer()`, in that order.
    pub values: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub trace_file: Option<PathBuf>,
}

pub fn run(workload: &Workload, seed: u64) -> Layers {
    let scenario = workload.scenario(instance_seed(seed, 0));
    let mut out = BTreeMap::new();

    let cpu_before = cpu_nanos();
    let (report, host_ns) = timed(|| run_scenario(workload, &scenario));
    let cpu_ns = cpu_nanos() - cpu_before;
    let outcome = sim_outcome(workload, &scenario, &report);
    let mut problems = e2e::problems(&outcome);
    simulated(workload, &scenario, &report, &mut out);
    drop(report);

    let phases = phased_run(workload, &scenario);
    let run = traced_run(workload, &scenario);
    traced(workload, &run, &mut out);

    out.insert("harness.host_s".into(), host_ns as f64 / 1e9);
    out.insert("harness.cpu_s".into(), cpu_ns as f64 / 1e9);
    out.insert("harness.setup_ns".into(), phases.setup_ns as f64);
    out.insert("harness.check_ns".into(), phases.check_ns as f64);
    out.insert("harness.report_ns".into(), phases.report_ns as f64);
    out.insert(
        "harness.confirmed_share".into(),
        outcome.confirmed as f64 / outcome.offered.max(1) as f64,
    );
    out.insert(
        "harness.mirror_event_drift".into(),
        run.events.abs_diff(outcome.events) as f64 / outcome.events.max(1) as f64,
    );
    out.insert(
        "harness.trace_overhead_ratio".into(),
        run.run_ns as f64 / phases.run_ns.max(1) as f64,
    );
    out.insert(
        "simnet.mev_per_s".into(),
        phases.events as f64 / 1e6 / (phases.run_ns.max(1) as f64 / 1e9),
    );
    if phases.events != run.events {
        problems.push(format!(
            "wrapping the replicas changed the run: {} events unwrapped, {} wrapped",
            phases.events, run.events
        ));
    }

    out.extend(drivers::run_all(seed));

    let trace_file = match workload.protocol {
        ProtocolKind::Leopard => write_trace::<leopard_core::LeopardMessage>(workload, seed, &run),
        ProtocolKind::HotStuff => {
            write_trace::<leopard_hotstuff::HotStuffMessage>(workload, seed, &run)
        }
    };
    // The spans are a by-product: a directory that cannot be written to does not make
    // the measured run wrong.
    let trace_file = trace_file
        .map_err(|error| eprintln!("leopard-benchmark: could not write the trace file: {error}"))
        .ok();

    // The traced and per-category metrics of the protocol that did not run read 0.
    let idle_layer = format!("{}.", workload.protocol.other().layer().0);
    let values = spec::per_layer()
        .iter()
        .map(|metric| {
            out.remove(&metric.name).unwrap_or_else(|| {
                assert!(
                    metric.name.starts_with(&idle_layer),
                    "no value computed for {}",
                    metric.name
                );
                0.0
            })
        })
        .collect();
    assert!(
        out.is_empty(),
        "values computed for unknown metrics: {:?}",
        out.keys()
    );

    let (attempted, failed) = operations(scenario.lossless, &pool(&[outcome]), problems.is_empty());
    Layers {
        values,
        attempted,
        failed,
        problems,
        trace_file,
    }
}
