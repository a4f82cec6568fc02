//! The `experiments` binary: regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run -p leopard-bench --release --bin experiments -- \
//!     [--full] [--bench-json <path>] [<id>...]
//! ```
//!
//! With no ids every experiment runs. `--full` selects the paper-scale parameter sets
//! (slower); the default "quick" profile uses reduced scales suitable for a laptop.
//! Each table is printed to stdout and written to `target/experiments/<id>.csv`.
//!
//! `--bench-json <path>` additionally writes a machine-readable JSON document with the
//! wall-clock seconds and result table of every experiment run — the format of the
//! repo's `BENCH_*.json` performance trajectory (see `EXPERIMENTS.md`).
//!
//! `--require-nonzero <substr>` makes the binary exit non-zero if any cell in a column
//! whose header contains `<substr>` does not start with a positive number — the CI
//! guard that keeps the "Leopard confirms nothing at paper scale" collapse from
//! silently regressing (used with the `fig9smoke` experiment).
//!
//! `--schedules <N>`, `--chaos-seed <S>` and `--chaos-case <K>` tune the `chaos` /
//! `chaossmoke` experiments: schedule count and master seed of the fuzzed stream, or a
//! single case index — the one-line reproducer the chaos engine prints on a violation
//! (`chaos --chaos-seed S --chaos-case K`) uses the last two.
//!
//! `--max-wall-clock <secs>` makes the binary exit non-zero if the *total* wall clock
//! of the selected experiments exceeds the budget — the CI guard that keeps the quick
//! experiment suite inside its stated time budget (see `EXPERIMENTS.md`), so a
//! performance regression in the simulator or a protocol hot path fails the build
//! instead of quietly making every future benchmark run slower.
//!
//! `--parallel` runs every scenario on the parallel engine (shard-parallel rounds
//! under the conservative-lookahead horizon; see `DESIGN.md` §10). Results are
//! bit-identical to the default sequential engine — the flag is purely a wall-clock
//! knob for large-`n` sweeps on multi-core machines.
//!
//! `--ab-compare <N>` turns the run into a same-process A/B benchmark: each selected
//! experiment is run `N` times on the sequential engine and `N` times on the
//! parallel engine, **interleaved** (A B A B …) so slow drift in the machine's
//! background load lands on both sides equally, and the reported figure per side is
//! the *minimum* wall clock and minimum CPU time over its `N` runs — the standard
//! defence against scheduler noise (observed at ±13% on a busy 1-vCPU container;
//! see `EXPERIMENTS.md`). CPU time is read from `/proc/self/stat` (utime + stime
//! deltas around each run), so a parallel run that burns two cores to halve the
//! wall clock is visible as such. The tables and CSVs of the measured runs are not
//! written — `--ab-compare` prints one comparison table instead.
//!
//! `--min-events-per-sec <threshold>` makes the binary exit non-zero if any selected
//! experiment's engine events/sec figure lands below the threshold — the CI floor
//! that catches an engine-speed collapse (used with `fig9xlsmoke`; see the note in
//! `.github/workflows/ci.yml` for how the threshold was chosen). Use it only with
//! experiment ids that run a simulation: analytical tables report 0 events/sec and
//! would trip the floor by construction.
//!
//! `bench-trajectory` (a subcommand, not a flag) ignores every experiment id and
//! instead folds all `BENCH_PR*.json` documents in the current directory into
//! `BENCH_TRAJECTORY.md` — the per-PR table of quick-suite wall clock, engine
//! events/sec and peak RSS. Run it from the repo root after recording a new
//! `BENCH_PR*.json` (see `leopard_harness::trajectory`).

use leopard_harness::chaos::ChaosOverrides;
use leopard_harness::experiments::{run_experiment_with, EXPERIMENT_IDS};
use leopard_harness::report::{
    bench_records_to_json, peak_rss_bytes, reset_peak_rss, BenchRecord,
};
use leopard_harness::scenario::set_default_parallel;
use leopard_harness::trajectory::{fold_document, render_trajectory};
use leopard_simnet::global_events_processed;
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let mut bench_json: Option<PathBuf> = None;
    let mut require_nonzero: Option<String> = None;
    let mut max_wall_clock: Option<f64> = None;
    let mut min_events_per_sec: Option<f64> = None;
    let mut ab_compare: Option<usize> = None;
    let mut chaos = ChaosOverrides::default();
    let mut requested: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--full" => {}
            "--parallel" => set_default_parallel(true),
            "--bench-json" => match iter.next() {
                Some(path) => bench_json = Some(PathBuf::from(path)),
                None => {
                    eprintln!("--bench-json requires a path argument");
                    std::process::exit(2);
                }
            },
            "--require-nonzero" => match iter.next() {
                Some(substr) => require_nonzero = Some(substr),
                None => {
                    eprintln!("--require-nonzero requires a column-substring argument");
                    std::process::exit(2);
                }
            },
            "--max-wall-clock" => match iter.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(secs) => max_wall_clock = Some(secs),
                None => {
                    eprintln!("--max-wall-clock requires a seconds argument");
                    std::process::exit(2);
                }
            },
            "--min-events-per-sec" => match iter.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(floor) => min_events_per_sec = Some(floor),
                None => {
                    eprintln!("--min-events-per-sec requires an events/sec argument");
                    std::process::exit(2);
                }
            },
            "--ab-compare" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(rounds) if rounds > 0 => ab_compare = Some(rounds),
                _ => {
                    eprintln!("--ab-compare requires a positive round-count argument");
                    std::process::exit(2);
                }
            },
            "--schedules" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(count) => chaos.schedules = Some(count),
                None => {
                    eprintln!("--schedules requires a count argument");
                    std::process::exit(2);
                }
            },
            "--chaos-seed" => match iter.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(seed) => chaos.seed = Some(seed),
                None => {
                    eprintln!("--chaos-seed requires a seed argument");
                    std::process::exit(2);
                }
            },
            "--chaos-case" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(case) => chaos.case = Some(case),
                None => {
                    eprintln!("--chaos-case requires a case-index argument");
                    std::process::exit(2);
                }
            },
            _ => requested.push(arg),
        }
    }
    if requested.iter().any(|id| id == "bench-trajectory") {
        std::process::exit(write_bench_trajectory());
    }
    let ids: Vec<&str> = if requested.is_empty() {
        EXPERIMENT_IDS.to_vec()
    } else {
        requested.iter().map(String::as_str).collect()
    };
    if let Some(rounds) = ab_compare {
        std::process::exit(run_ab_compare(&ids, rounds, full, &chaos));
    }

    let out_dir = PathBuf::from("target/experiments");
    let mut records: Vec<BenchRecord> = Vec::new();
    let mut failures = 0usize;
    for id in ids {
        eprintln!("running experiment {id} ({}) ...", if full { "full" } else { "quick" });
        let events_before = global_events_processed();
        // Per-experiment peak: without the reset every id reports the largest
        // experiment that ran before it.
        reset_peak_rss();
        let start = Instant::now();
        match run_experiment_with(id, !full, &chaos) {
            Some(table) => {
                let wall_clock_secs = start.elapsed().as_secs_f64();
                let events = global_events_processed() - events_before;
                let events_per_sec = if wall_clock_secs > 0.0 {
                    events as f64 / wall_clock_secs
                } else {
                    0.0
                };
                let peak_memory_bytes = peak_rss_bytes();
                println!("{}", table.to_text());
                if let Some(substr) = &require_nonzero {
                    failures += check_nonzero_columns(&table, substr);
                }
                match table.write_csv(&out_dir, id) {
                    Ok(path) => eprintln!("  wrote {}", path.display()),
                    Err(error) => eprintln!("  could not write CSV: {error}"),
                }
                eprintln!(
                    "  wall clock: {wall_clock_secs:.3}s ({:.2} Mev/s, peak RSS {} MB)",
                    events_per_sec / 1e6,
                    peak_memory_bytes / 1_000_000
                );
                if let Some(floor) = min_events_per_sec {
                    if events_per_sec < floor {
                        eprintln!(
                            "MIN-EVENTS-PER-SEC FAILED: {id} ran at {:.0} events/sec, floor is {:.0}",
                            events_per_sec, floor
                        );
                        failures += 1;
                    } else {
                        eprintln!(
                            "  events/sec floor ok: {:.0} >= {:.0}",
                            events_per_sec, floor
                        );
                    }
                }
                records.push(BenchRecord {
                    id: id.to_string(),
                    wall_clock_secs,
                    events_per_sec,
                    peak_memory_bytes,
                    table,
                });
            }
            None => {
                eprintln!("  unknown experiment id: {id}");
                failures += 1;
            }
        }
    }
    let total_wall_clock: f64 = records.iter().map(|r| r.wall_clock_secs).sum();
    if let Some(budget) = max_wall_clock {
        if total_wall_clock > budget {
            eprintln!(
                "MAX-WALL-CLOCK FAILED: experiments took {total_wall_clock:.3}s, budget is {budget:.3}s"
            );
            failures += 1;
        } else {
            eprintln!("wall-clock budget ok: {total_wall_clock:.3}s <= {budget:.3}s");
        }
    }
    if let Some(path) = bench_json {
        let profile = if full { "full" } else { "quick" };
        let json = bench_records_to_json(profile, &records);
        match std::fs::write(&path, json) {
            Ok(()) => eprintln!("wrote bench trajectory to {}", path.display()),
            Err(error) => {
                eprintln!("could not write bench JSON to {}: {error}", path.display());
                failures += 1;
            }
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
}

/// Counts cells that are not strictly positive in every column whose header contains
/// `substr`. Cells may carry a stall annotation (`"0.00 [AwaitingReady]"`); only the
/// leading number is parsed, so the diagnostics never hide a failure.
fn check_nonzero_columns(table: &leopard_harness::report::Table, substr: &str) -> usize {
    let mut failures = 0;
    for (column, header) in table.headers.iter().enumerate() {
        // Only numeric columns carry a unit in parentheses; this skips non-numeric
        // companions like "Leopard diagnostics" when matching on "Leopard".
        if !header.contains(substr) || !header.contains('(') {
            continue;
        }
        for row in &table.rows {
            let cell = &row[column];
            let value: f64 = cell
                .split_whitespace()
                .next()
                .and_then(|prefix| prefix.parse().ok())
                .unwrap_or(0.0);
            if value <= 0.0 {
                eprintln!("  REQUIRE-NONZERO FAILED: column {header:?} has cell {cell:?} (row n={})", row[0]);
                failures += 1;
            }
        }
    }
    failures
}

/// Process CPU seconds so far (utime + stime from `/proc/self/stat`, at the
/// kernel's 100 Hz USER_HZ). Returns 0.0 where procfs is unavailable, which turns
/// the A/B CPU columns into zeros instead of failing the run.
fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The comm field (2) is parenthesised and may itself contain spaces or parens;
    // everything after the *last* ')' is fields 3..=52, whitespace-separated, so
    // utime (field 14) and stime (15) are at post-paren indices 11 and 12.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |index: usize| fields.get(index).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// `--ab-compare <rounds>`: interleaved sequential-vs-parallel engine benchmark over
/// the selected experiments (see the module docs). Returns the process exit code.
fn run_ab_compare(ids: &[&str], rounds: usize, full: bool, chaos: &ChaosOverrides) -> i32 {
    /// Per-side minima over the interleaved rounds.
    struct Side {
        label: &'static str,
        parallel: bool,
        min_wall: f64,
        min_cpu: f64,
        events: u64,
    }
    let mut failures = 0;
    let mut table = leopard_harness::report::Table::new(
        format!(
            "A/B engine comparison — min over {rounds} interleaved round(s) per side ({} profile)",
            if full { "full" } else { "quick" }
        ),
        &["experiment", "engine", "min wall (s)", "min CPU (s)", "events", "engine (Mev/s)", "wall speedup"],
    );
    for id in ids {
        let mut sides = [
            Side { label: "sequential", parallel: false, min_wall: f64::INFINITY, min_cpu: f64::INFINITY, events: 0 },
            Side { label: "parallel", parallel: true, min_wall: f64::INFINITY, min_cpu: f64::INFINITY, events: 0 },
        ];
        eprintln!("ab-compare {id}: {rounds} interleaved round(s) per engine ...");
        for round in 0..rounds {
            for side in sides.iter_mut() {
                set_default_parallel(side.parallel);
                let events_before = global_events_processed();
                let cpu_before = cpu_seconds();
                let start = Instant::now();
                let ran = run_experiment_with(id, !full, chaos).is_some();
                let wall = start.elapsed().as_secs_f64();
                let cpu = cpu_seconds() - cpu_before;
                let events = global_events_processed() - events_before;
                if !ran {
                    eprintln!("  unknown experiment id: {id}");
                    failures += 1;
                    break;
                }
                side.min_wall = side.min_wall.min(wall);
                side.min_cpu = side.min_cpu.min(cpu);
                side.events = events;
                eprintln!(
                    "  round {}/{} {}: wall {wall:.3}s cpu {cpu:.3}s ({} events)",
                    round + 1, rounds, side.label, events
                );
            }
        }
        set_default_parallel(false);
        if sides.iter().any(|s| s.min_wall.is_infinite()) {
            continue; // unknown id, already counted
        }
        if sides[0].events != sides[1].events {
            eprintln!(
                "AB-COMPARE FAILED: {id} event counts diverged ({} sequential vs {} parallel) — engines are not equivalent",
                sides[0].events, sides[1].events
            );
            failures += 1;
        }
        let sequential_wall = sides[0].min_wall;
        for side in &sides {
            table.push_row(vec![
                id.to_string(),
                side.label.to_string(),
                format!("{:.3}", side.min_wall),
                format!("{:.3}", side.min_cpu),
                side.events.to_string(),
                format!("{:.2}", side.events as f64 / side.min_wall / 1e6),
                format!("{:.2}x", sequential_wall / side.min_wall),
            ]);
        }
    }
    println!("{}", table.to_text());
    if failures > 0 {
        1
    } else {
        0
    }
}

/// The `bench-trajectory` subcommand: folds every `BENCH_PR*.json` in the current
/// directory into `BENCH_TRAJECTORY.md`. Returns the process exit code.
fn write_bench_trajectory() -> i32 {
    let mut rows = Vec::new();
    let mut failures = 0;
    let mut names: Vec<String> = match std::fs::read_dir(".") {
        Ok(entries) => entries
            .filter_map(|entry| entry.ok())
            .filter_map(|entry| entry.file_name().into_string().ok())
            .filter(|name| name.starts_with("BENCH_PR") && name.ends_with(".json"))
            .collect(),
        Err(error) => {
            eprintln!("could not scan the current directory: {error}");
            return 1;
        }
    };
    names.sort();
    if names.is_empty() {
        eprintln!("no BENCH_PR*.json files here — run from the repo root");
        return 1;
    }
    for name in &names {
        match std::fs::read_to_string(name).map_err(|e| e.to_string()).and_then(|content| fold_document(name, &content)) {
            Ok(row) => rows.push(row),
            Err(error) => {
                eprintln!("skipping {name}: {error}");
                failures += 1;
            }
        }
    }
    let folded = rows.len();
    let markdown = render_trajectory(rows);
    match std::fs::write("BENCH_TRAJECTORY.md", &markdown) {
        Ok(()) => eprintln!("wrote BENCH_TRAJECTORY.md ({folded} documents folded)"),
        Err(error) => {
            eprintln!("could not write BENCH_TRAJECTORY.md: {error}");
            failures += 1;
        }
    }
    if failures > 0 {
        1
    } else {
        0
    }
}
