//! `--compare A.json B.json`: two `--out` files of the suite, judged against the
//! bounds in `BENCHMARK.json`.

use std::process::ExitCode;

use leopard_harness::trajectory::{parse_json, Json};

use crate::stats::{median, quartiles, spread};

/// The benchmark's definition; the bounds are read from it, never repeated in code.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `run_seconds`: how long a run measures when `--seconds` is not given.
pub fn run_seconds() -> f64 {
    parse_json(BENCHMARK_JSON)
        .expect("BENCHMARK.json parses")
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("BENCHMARK.json has run_seconds")
}

/// `(name, bound, higher is better)` of every end-to-end metric.
pub fn bounds() -> Vec<(String, f64, bool)> {
    let json = parse_json(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    json.get("end_to_end")
        .and_then(Json::as_arr)
        .expect("BENCHMARK.json lists end_to_end metrics")
        .iter()
        .map(|metric| {
            let text = |key: &str| {
                metric
                    .get(key)
                    .and_then(Json::as_str)
                    .expect("metric field")
            };
            let bound = metric
                .get("bound")
                .and_then(Json::as_f64)
                .expect("metric bound");
            (text("name").to_string(), bound, text("better") == "higher")
        })
        .collect()
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Worse,
    /// The run-to-run spread of either side is wider than the bound.
    Unresolved,
}

/// Judges B against A. The delta is positive when B is worse.
pub fn judge(a: &[f64], b: &[f64], bound: f64, higher_is_better: bool) -> (f64, Verdict) {
    let (median_a, median_b) = (median(a), median(b));
    let change = if median_a == 0.0 {
        0.0
    } else {
        (median_b - median_a) / median_a.abs()
    };
    let worse_by = if higher_is_better { -change } else { change };
    let verdict = if worse_by > bound {
        Verdict::Worse
    } else if spread(a) > bound || spread(b) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn workloads(doc: &Json) -> &[Json] {
    doc.get("workloads").and_then(Json::as_arr).unwrap_or(&[])
}

fn named<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    workloads(doc)
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

fn values(workload: &Json, metric: &str) -> Vec<f64> {
    workload
        .get("end_to_end")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("values"))
        .and_then(Json::as_arr)
        .map(|list| list.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

fn number(workload: &Json, key: &str) -> f64 {
    workload.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

pub fn run(path_a: &str, path_b: &str) -> ExitCode {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(message), _) | (_, Err(message)) => {
            eprintln!("leopard-benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    let same_seed = a.get("seed").and_then(Json::as_f64) == b.get("seed").and_then(Json::as_f64);
    let mut failures = 0;
    println!(
        "{:<22} {:<26} {:>14} {:>14} {:>9} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "B worse", "bound"
    );
    for workload_a in workloads(&a) {
        let name = workload_a.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(workload_b) = named(&b, name) else {
            println!("{name:<22} missing from {path_b}");
            failures += 1;
            continue;
        };
        for (metric, bound, higher) in bounds() {
            let (va, vb) = (values(workload_a, &metric), values(workload_b, &metric));
            if va.is_empty() || vb.is_empty() {
                println!("{name:<22} {metric:<26} missing");
                failures += 1;
                continue;
            }
            let (worse_by, mut verdict) = judge(&va, &vb, bound, higher);
            let mut note = String::new();
            if same_seed && metric.starts_with("sim_") && median(&va) != median(&vb) {
                verdict = Verdict::Worse;
                note = " (simulated metric differs on the same seed)".into();
            }
            let (q1a, q3a) = quartiles(&va);
            let (q1b, q3b) = quartiles(&vb);
            println!(
                "{name:<22} {metric:<26} {:>14.6} {:>14.6} {:>+8.2}% {:>7.0}%  {}{note}  A[{q1a:.6}, {q3a:.6}] B[{q1b:.6}, {q3b:.6}]",
                median(&va),
                median(&vb),
                worse_by * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                },
            );
            failures += usize::from(verdict == Verdict::Worse);
        }

        let events = |w: &Json| {
            w.get("per_layer")
                .and_then(|m| m.get("simnet.events"))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        };
        if same_seed && events(workload_a) != events(workload_b) {
            println!(
                "{name:<22} simnet.events differs on the same seed: {:?} vs {:?}",
                events(workload_a),
                events(workload_b)
            );
            failures += 1;
        }
        let share = |w: &Json| number(w, "failed") / number(w, "attempted").max(1.0);
        if share(workload_b) > share(workload_a) {
            println!(
                "{name:<22} failure share rose from {:.4} to {:.4}",
                share(workload_a),
                share(workload_b)
            );
            failures += 1;
        }
        if workload_b.get("correct") != Some(&Json::Bool(true)) {
            println!("{name:<22} is not correct in {path_b}");
            failures += 1;
        }
    }
    if failures == 0 {
        println!("no metric is worse than its bound allows");
        ExitCode::SUCCESS
    } else {
        println!("{failures} finding(s)");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn verdicts() {
        let steady = [100.0, 101.0, 99.0];
        assert_eq!(
            judge(&steady, &[100.5, 101.5, 99.5], 0.05, false).1,
            Verdict::Ok
        );
        // Lower is better: 10 % up is worse, 10 % down is fine.
        assert_eq!(
            judge(&steady, &[110.0, 111.0, 109.0], 0.05, false).1,
            Verdict::Worse
        );
        assert_eq!(
            judge(&steady, &[90.0, 91.0, 89.0], 0.05, false).1,
            Verdict::Ok
        );
        // Higher is better: the other way round.
        assert_eq!(
            judge(&steady, &[90.0, 91.0, 89.0], 0.05, true).1,
            Verdict::Worse
        );
        assert_eq!(
            judge(&steady, &[110.0, 111.0, 109.0], 0.05, true).1,
            Verdict::Ok
        );
        // A spread wider than the bound cannot show "unchanged".
        assert_eq!(
            judge(&[80.0, 100.0, 120.0], &steady, 0.05, false).1,
            Verdict::Unresolved
        );
        let (worse_by, _) = judge(&steady, &[110.0], 0.05, false);
        assert!((worse_by - 0.10).abs() < 1e-12);
    }

    fn names(json: &Json, key: &str) -> Vec<String> {
        json.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
            .iter()
            .map(|entry| {
                entry
                    .get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    fn is_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn is_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn benchmark_json_matches_what_the_binary_prints() {
        let json = parse_json(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let Json::Obj(members) = &json else {
            panic!("BENCHMARK.json is not an object")
        };
        let mut keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert!(BENCHMARK_JSON.len() <= 64 << 10);

        let workloads: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names(&json, "workloads"), workloads);
        assert!((2..=8).contains(&workloads.len()));
        for entry in json.get("workloads").and_then(Json::as_arr).unwrap() {
            let why = entry
                .get("why")
                .and_then(Json::as_str)
                .expect("every workload has a why");
            assert!(
                !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
                "{why}"
            );
        }

        for (key, metrics, limit) in [
            ("end_to_end", spec::end_to_end(), 16),
            ("per_layer", spec::per_layer(), 128),
        ] {
            let listed = json.get(key).and_then(Json::as_arr).unwrap();
            assert!(
                !listed.is_empty() && listed.len() <= limit,
                "{key} has {} metrics",
                listed.len()
            );
            assert_eq!(
                names(&json, key),
                metrics.iter().map(|m| m.name.clone()).collect::<Vec<_>>()
            );
            for (entry, metric) in listed.iter().zip(&metrics) {
                assert!(is_name(&metric.name), "{}", metric.name);
                assert!(is_unit(metric.unit), "{}", metric.unit);
                assert_eq!(
                    entry.get("unit").and_then(Json::as_str),
                    Some(metric.unit),
                    "{}",
                    metric.name
                );
                assert_eq!(
                    entry.get("better").and_then(Json::as_str),
                    Some(metric.better()),
                    "{}",
                    metric.name
                );
            }
        }
        for name in workloads {
            assert!(is_name(name), "{name}");
        }

        let bounds = bounds();
        assert_eq!(bounds.len(), spec::end_to_end().len());
        for (name, bound, _) in &bounds {
            // 0.25 is the most the file format allows, not a judgement on the metric.
            assert!(*bound > 0.0 && *bound <= 0.25, "{name} has bound {bound}");
        }
        assert!(
            bounds
                .iter()
                .any(|(name, _, higher)| name == "setup_s" && !higher),
            "setup_s is listed, lower is better"
        );

        let seconds = run_seconds();
        assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
        assert_eq!(names_of_paths(&json), ["benchmark"]);
    }

    fn names_of_paths(json: &Json) -> Vec<String> {
        json.get("paths")
            .and_then(Json::as_arr)
            .expect("paths")
            .iter()
            .map(|p| p.as_str().expect("path").to_string())
            .collect()
    }
}
