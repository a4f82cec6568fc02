//! The `experiments` binary: regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run -p leopard-bench --release --bin experiments -- \
//!     [--full] [--bench-json <path>] [--against <path> [--expect-changes]] [<id>...]
//! ```
//!
//! With no ids every experiment runs. `--full` selects the paper-scale parameter sets
//! (slower); the default "quick" profile uses reduced scales suitable for a laptop.
//! Each table is printed to stdout and written to `target/experiments/<id>.csv`.
//! An argument that starts with `--` and is not one of the flags below is refused
//! (exit 2) before anything runs. The tables come from here; performance claims come
//! from `benchmark/ --compare` (see `EXPERIMENTS.md`).
//!
//! `--bench-json <path>` additionally writes a machine-readable JSON document with the
//! wall-clock seconds and result table of every experiment run — the format of the
//! repo's `BENCH_*.json` performance trajectory (see `EXPERIMENTS.md`).
//!
//! Some tables carry a gate (`Table::gate`; the list is in `EXPERIMENTS.md`): columns
//! whose every cell must be positive. Under either profile each failing cell is
//! printed with its column and row, and the binary exits non-zero after every selected
//! table has printed — the CI guard that keeps a silent collapse (such as "Leopard
//! confirms nothing at paper scale") from regressing unnoticed.
//!
//! `--schedules <N>`, `--chaos-seed <S>` and `--chaos-case <K>` tune the `chaos`
//! experiment: schedule count and master seed of the fuzzed stream, or a single case
//! index — the one-line reproducer the chaos engine prints on a violation
//! (`chaos --chaos-seed S --chaos-case K`) uses the last two.
//!
//! `--max-wall-clock <secs>` makes the binary exit non-zero if the *total* wall clock
//! of the selected experiments exceeds the budget — the CI guard that keeps the quick
//! experiment suite inside its stated time budget (see `EXPERIMENTS.md`), so a
//! performance regression in the simulator or a protocol hot path fails the build
//! instead of quietly making every future benchmark run slower.
//!
//! `--min-events-per-sec <threshold>` makes the binary exit non-zero if the selection's
//! pooled engine speed lands below the threshold: total events over the total wall
//! clock of the experiments that ran events, the engine column of
//! `BENCH_TRAJECTORY.md` — the CI floor that catches an engine-speed collapse (see the
//! note in `.github/workflows/ci.yml` for how the threshold was chosen). Analytical
//! tables neither count nor dilute it; a selection that ran no simulation fails it.
//!
//! `--against <path>` diffs every table of the run against a recorded `--bench-json`
//! document (a `BENCH_PR*.json`) and prints one line per changed cell, `id / row /
//! column: old → new`, skipping the host columns (wall clock, engine rate, peak RSS,
//! schedules/sec; see `leopard_harness::trajectory::diff_run`). Any change makes the
//! binary exit non-zero unless `--expect-changes` is given too — the check behind "no
//! simulated number moved", and the list of what did for a change that moves some.
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
use leopard_harness::trajectory::{diff_run, fold_document, parse_recorded, render_trajectory};
use leopard_simnet::global_events_processed;
use std::path::PathBuf;
use std::time::Instant;

/// Every flag `main` accepts, for the unknown-flag error.
const VALID_FLAGS: &str = "--full, --bench-json <path>, --max-wall-clock <secs>, \
     --min-events-per-sec <threshold>, --schedules <N>, --chaos-seed <S>, --chaos-case <K>, \
     --against <path>, --expect-changes";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let mut bench_json: Option<PathBuf> = None;
    let mut max_wall_clock: Option<f64> = None;
    let mut min_events_per_sec: Option<f64> = None;
    let mut against: Option<PathBuf> = None;
    let mut expect_changes = false;
    let mut chaos = ChaosOverrides::default();
    let mut requested: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--full" => {}
            "--bench-json" => bench_json = Some(flag_value(&mut iter, &arg, "a path")),
            "--max-wall-clock" => max_wall_clock = Some(flag_value(&mut iter, &arg, "a seconds")),
            "--min-events-per-sec" => {
                min_events_per_sec = Some(flag_value(&mut iter, &arg, "an events/sec"))
            }
            "--schedules" => chaos.schedules = Some(flag_value(&mut iter, &arg, "a count")),
            "--chaos-seed" => chaos.seed = Some(flag_value(&mut iter, &arg, "a seed")),
            "--chaos-case" => chaos.case = Some(flag_value(&mut iter, &arg, "a case-index")),
            "--against" => against = Some(flag_value(&mut iter, &arg, "a path")),
            "--expect-changes" => expect_changes = true,
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag}; valid flags: {VALID_FLAGS}");
                std::process::exit(2);
            }
            _ => requested.push(arg),
        }
    }
    if requested.iter().any(|id| id == "bench-trajectory") {
        std::process::exit(write_bench_trajectory());
    }
    if expect_changes && against.is_none() {
        eprintln!("--expect-changes needs --against <path>");
        std::process::exit(2);
    }
    // Read the recorded run before anything runs, so a bad path costs no experiments.
    let recorded = against.as_ref().map(|path| {
        std::fs::read_to_string(path)
            .map_err(|error| error.to_string())
            .and_then(|content| parse_recorded(&content))
            .unwrap_or_else(|error| {
                eprintln!("--against {}: {error}", path.display());
                std::process::exit(2)
            })
    });
    let ids: Vec<&str> = if requested.is_empty() {
        EXPERIMENT_IDS.to_vec()
    } else {
        requested.iter().map(String::as_str).collect()
    };

    let out_dir = PathBuf::from("target/experiments");
    let mut records: Vec<BenchRecord> = Vec::new();
    let mut failures = 0usize;
    // The pooled engine speed: events and wall clock of the experiments that ran events.
    let (mut sim_events, mut sim_wall) = (0u64, 0.0f64);
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
                for failure in table.gate_failures() {
                    eprintln!("  GATE FAILED: {id}: {failure}");
                    failures += 1;
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
                if events > 0 {
                    sim_events += events;
                    sim_wall += wall_clock_secs;
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
    if let Some(floor) = min_events_per_sec {
        if sim_wall > 0.0 {
            let pooled = sim_events as f64 / sim_wall;
            if pooled < floor {
                eprintln!(
                    "MIN-EVENTS-PER-SEC FAILED: the selection ran at {pooled:.0} events/sec, floor is {floor:.0}"
                );
                failures += 1;
            } else {
                eprintln!("events/sec floor ok: {pooled:.0} >= {floor:.0}");
            }
        } else {
            eprintln!("MIN-EVENTS-PER-SEC FAILED: no selected experiment ran a simulation");
            failures += 1;
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
    let profile = if full { "full" } else { "quick" };
    if let (Some(recorded), Some(path)) = (&recorded, &against) {
        let tables: Vec<(&str, &_)> = records.iter().map(|r| (r.id.as_str(), &r.table)).collect();
        let changes = diff_run(recorded, profile, &tables);
        eprintln!("against {}: {} changes outside the host columns", path.display(), changes.len());
        for change in &changes {
            eprintln!("  {change}");
        }
        if !changes.is_empty() && !expect_changes {
            eprintln!("AGAINST FAILED: the tables moved (pass --expect-changes if they should)");
            failures += 1;
        }
    }
    if let Some(path) = bench_json {
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

/// The argument after `flag`, parsed; a missing or unparsable one exits 2 naming `what`.
fn flag_value<T: std::str::FromStr>(iter: &mut impl Iterator<Item = String>, flag: &str, what: &str) -> T {
    iter.next().and_then(|value| value.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} requires {what} argument");
        std::process::exit(2)
    })
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
