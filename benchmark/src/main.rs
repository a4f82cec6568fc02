//! The repo's benchmark: six workloads, nine end-to-end metrics, a per-layer ledger.
//! See `README.md` next to `Cargo.toml`, and `BENCHMARK.json` at the repo root.
//!
//! ```text
//! leopard-benchmark --workload W [--seed S] [--seconds T] [--trace 0|1]
//!     one run: end-to-end metrics (--trace 0, the default) or per-layer metrics;
//!     the last stdout line is its JSON result
//! leopard-benchmark [--seed S] [--seconds T] [--trace 0|1] [--out FILE]
//!     every workload, one child process per run; --trace 0 leaves the traced runs out
//! leopard-benchmark --compare A.json B.json
//!     two --out files against the bounds in BENCHMARK.json
//! ```

mod compare;
mod drivers;
mod e2e;
mod layers;
mod mirror;
mod reference;
mod spec;
mod stats;
mod suite;
mod trace;

use std::process::ExitCode;

use leopard_harness::report::json_string;

use spec::Metric;

/// The seed the scenario runners default to.
const DEFAULT_SEED: u64 = 0xBEEF;

/// Prints the metrics by name and, last, the one-line JSON result.
fn print_result(
    metrics: &[Metric],
    values: &[f64],
    attempted: u64,
    failed: u64,
    problems: &[String],
) {
    for (metric, value) in metrics.iter().zip(values) {
        println!(
            "  {:<34} {:>18.6} {:<9} ({} is better)",
            metric.name,
            value,
            metric.unit,
            metric.better()
        );
    }
    println!("  ops_attempted {attempted}  ops_failed {failed}");
    for problem in problems {
        println!("  NOT CORRECT: {problem}");
    }
    let body: Vec<String> = metrics
        .iter()
        .zip(values)
        .map(|(metric, value)| {
            format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                json_string(&metric.name),
                json_string(metric.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        problems.is_empty(),
        body.join(",")
    );
}

fn one_run(workload: &spec::Workload, seed: u64, seconds: f64, trace: bool) -> ExitCode {
    println!(
        "workload {} seed {seed} trace {}",
        workload.name,
        u8::from(trace)
    );
    let correct = if trace {
        let run = layers::run(workload, seed);
        if let Some(path) = &run.trace_file {
            println!("  spans written to {}", path.display());
        }
        print_result(
            &spec::per_layer(),
            &run.values,
            run.attempted,
            run.failed,
            &run.problems,
        );
        run.problems.is_empty()
    } else {
        let run = e2e::run(workload, seed, seconds);
        let (attempted, failed) = e2e::operations(run.lossless, &run.sim, run.problems.is_empty());
        let paces: Vec<String> = run.paces.iter().map(|p| format!("{p:.3}")).collect();
        println!(
            "  {} rounds of {} instances at {} of the reference pace: {} events, {} of {} offered requests confirmed, {} latency samples",
            run.paces.len(),
            e2e::INSTANCES,
            paces.join(" "),
            run.sim.events,
            run.sim.confirmed,
            run.sim.offered,
            run.sim.lat_samples
        );
        println!(
            "  host_us_per_req as measured, before the reference pace is taken out: {:.6}",
            run.measured_secs.iter().sum::<f64>() * 1e6 / run.sim.confirmed.max(1) as f64
        );
        print_result(
            &spec::end_to_end(),
            &run.values(),
            attempted,
            failed,
            &run.problems,
        );
        run.problems.is_empty()
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Command-line options; every flag takes one value (`--compare` two).
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `None`: a single run is an end-to-end run, the suite includes the traced runs.
    trace: Option<bool>,
    out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: compare::run_seconds(),
        trace: None,
        out: None,
        compare: None,
    };
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let mut value = || {
            rest.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => options.workload = Some(value()?),
            "--seed" => options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {seconds}"));
                }
                options.seconds = seconds;
            }
            "--trace" => {
                options.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            "--out" => options.out = Some(value()?),
            "--compare" => options.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(options)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("leopard-benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &options.compare {
        return compare::run(a, b);
    }
    match &options.workload {
        Some(name) => match spec::workload(name) {
            Some(workload) => one_run(
                workload,
                options.seed,
                options.seconds,
                options.trace.unwrap_or(false),
            ),
            None => {
                let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!(
                    "leopard-benchmark: unknown workload {name}; the workloads are {}",
                    names.join(", ")
                );
                ExitCode::from(2)
            }
        },
        None => suite::run(
            options.seed,
            options.seconds,
            options.trace.unwrap_or(true),
            options.out.as_deref(),
        ),
    }
}
