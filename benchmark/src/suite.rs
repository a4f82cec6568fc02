//! Every workload in one go: each run is a child process of this same binary, one at a
//! time, so peak memory is per run and nothing competes for the cores.

use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

use leopard_harness::report::json_string;
use leopard_harness::trajectory::{parse_json, Json};

use crate::spec::{self, Metric, Workload};
use crate::stats::{median, quartiles};

/// End-to-end runs per workload. Three is the fewest that have quartiles of their own.
const RUNS: usize = 3;

/// The parsed last line of one child run.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    values: Vec<f64>,
}

fn run_child(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    metrics: &[Metric],
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let json = parse_json(last)
        .map_err(|e| format!("run ended with {} and no result line: {e}", output.status))?;
    let field = |key: &str| json.get(key).ok_or_else(|| format!("result has no {key}"));
    let values = metrics
        .iter()
        .map(|metric| {
            field("metrics")?
                .get(&metric.name)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("result has no metric {}", metric.name))
        })
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(ChildResult {
        correct: matches!(field("correct")?, Json::Bool(true)) && output.status.success(),
        attempted: field("attempted")?.as_f64().unwrap_or(0.0) as u64,
        failed: field("failed")?.as_f64().unwrap_or(0.0) as u64,
        values,
    })
}

fn number_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(f64::to_string).collect();
    format!("[{}]", items.join(","))
}

pub fn run(seed: u64, seconds: f64, trace: bool, out: Option<&str>) -> ExitCode {
    let e2e_metrics = spec::end_to_end();
    let layer_metrics = spec::per_layer();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    println!(
        "leopard-benchmark: {} workloads x {RUNS} runs of {seconds} s, seed {seed}, {nproc} cpus, kernel {}",
        spec::WORKLOADS.len(),
        kernel.trim()
    );

    let mut all_correct = true;
    let mut workloads_json = Vec::new();
    for workload in &spec::WORKLOADS {
        println!("\n{}", workload.name);
        let mut correct = true;
        let mut runs_done: Vec<ChildResult> = Vec::new();
        for _ in 0..RUNS {
            match run_child(workload, seed, seconds, false, &e2e_metrics) {
                Ok(result) => runs_done.push(result),
                Err(message) => {
                    println!("  NOT CORRECT: {message}");
                    correct = false;
                }
            }
        }
        correct &= runs_done.iter().all(|r| r.correct);
        let (attempted, failed) = runs_done
            .first()
            .map_or((0, 0), |r| (r.attempted, r.failed));

        let mut e2e_json = Vec::new();
        for (index, metric) in e2e_metrics.iter().enumerate() {
            let values: Vec<f64> = runs_done.iter().map(|r| r.values[index]).collect();
            if values.is_empty() {
                continue;
            }
            let (q1, q3) = quartiles(&values);
            println!(
                "  {:<34} {:>16.6} {:<9} q1 {:.6} q3 {:.6} ({} is better)",
                metric.name,
                median(&values),
                metric.unit,
                q1,
                q3,
                metric.better()
            );
            // A simulated metric that differs between runs of one seed is a broken run.
            if metric.name.starts_with("sim_") && values.iter().any(|v| *v != values[0]) {
                println!(
                    "  NOT CORRECT: {} differs between runs of the same seed",
                    metric.name
                );
                correct = false;
            }
            e2e_json.push(format!(
                "{}:{{\"unit\":{},\"better\":{},\"values\":{}}}",
                json_string(&metric.name),
                json_string(metric.unit),
                json_string(metric.better()),
                number_list(&values)
            ));
        }
        println!("  ops_attempted {attempted}  ops_failed {failed}");

        let mut layer_json = Vec::new();
        if trace {
            match run_child(workload, seed, seconds, true, &layer_metrics) {
                Ok(result) => {
                    correct &= result.correct;
                    for (metric, value) in layer_metrics.iter().zip(&result.values) {
                        println!(
                            "  {:<34} {:>16.6} {:<9} ({} is better)",
                            metric.name,
                            value,
                            metric.unit,
                            metric.better()
                        );
                        layer_json.push(format!(
                            "{}:{{\"unit\":{},\"better\":{},\"value\":{value}}}",
                            json_string(&metric.name),
                            json_string(metric.unit),
                            json_string(metric.better()),
                        ));
                    }
                }
                Err(message) => {
                    println!("  NOT CORRECT: traced run: {message}");
                    correct = false;
                }
            }
        }
        if !correct {
            println!("  NOT CORRECT: {} failed its checks", workload.name);
        }
        all_correct &= correct;
        workloads_json.push(format!(
            "{{\"name\":{},\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\n\"end_to_end\":{{{}}},\n\"per_layer\":{{{}}}}}",
            json_string(workload.name),
            e2e_json.join(","),
            layer_json.join(",")
        ));
    }

    let mut summary = String::new();
    let _ = write!(
        summary,
        "{{\"schema\":\"leopard-benchmark/v1\",\"seed\":{seed},\"seconds\":{seconds},\"runs\":{RUNS},\n\"machine\":{{\"nproc\":{nproc},\"kernel\":{}}},\n\"workloads\":[\n{}\n],\n\"claim\":null}}\n",
        json_string(kernel.trim()),
        workloads_json.join(",\n")
    );
    if let Some(path) = out {
        if let Err(error) = std::fs::write(path, &summary) {
            eprintln!("leopard-benchmark: cannot write {path}: {error}");
            return ExitCode::FAILURE;
        }
        println!("\nsummary written to {path}");
    } else {
        println!("\n{summary}");
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
