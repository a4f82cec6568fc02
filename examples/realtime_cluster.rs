//! Run the *same* Leopard replica state machines on the thread-based real-time runtime
//! (crossbeam channels, OS threads, wall-clock timers) instead of the discrete-event
//! simulator — demonstrating that the protocol implementation is genuinely sans-IO.
//!
//! ```text
//! cargo run --release --example realtime_cluster
//! ```

use leopard::core::{LeopardConfig, LeopardReplica};
use leopard::simnet::runtime::run_threaded;
use leopard::simnet::SimDuration;
use std::time::Duration;

fn main() {
    let n = 4;
    let config = LeopardConfig::small_test(n);
    let shared = LeopardConfig::shared_keys(&config, 2026);

    println!("starting {n} Leopard replicas on OS threads for 2 seconds of wall-clock time ...");
    let metrics = run_threaded(
        n,
        move |id| LeopardReplica::new(id, config.clone(), shared.clone()),
        Duration::from_secs(2),
        2026,
    );

    let confirmed = metrics.max_confirmed_requests(n);
    let latencies = metrics.latency_samples();
    let average_latency_ms = if latencies.is_empty() {
        None
    } else {
        Some(latencies.iter().map(|&v| v as f64 / 1e6).sum::<f64>() / latencies.len() as f64)
    };
    println!("confirmed requests : {confirmed}");
    println!(
        "average latency    : {}",
        average_latency_ms
            .map(|ms| format!("{ms:.1} ms"))
            .unwrap_or_else(|| "n/a".to_string())
    );
    println!(
        "bytes on the wire  : {} sent / {} received",
        metrics.traffic.total_sent_bytes(),
        metrics.traffic.total_received_bytes()
    );
    let _ = SimDuration::ZERO; // (the runtime shares the simulator's time types)
}
