//! Experiment harness: everything needed to regenerate the paper's tables and figures.
//!
//! * [`workload`] — workload descriptions shared by the two protocols;
//! * [`scenario`] — the end-to-end scenario runner (`n` replicas, bandwidth, faults →
//!   throughput / latency / bandwidth report), one body for Leopard and HotStuff;
//! * [`invariants`] — the always-on invariant checker (safety, liveness, retrieval
//!   completeness, view-change thrash) every scenario run of either protocol passes;
//! * [`chaos`] — the chaos engine: a seeded generator of valid adversarial fault
//!   schedules, an auto-shrinker for violating seeds, and the `chaos` experiment
//!   that fuzzes the invariant checker with hundreds of schedules per scale;
//! * [`analysis`] — the closed-form cost model behind Table I and §V-B;
//! * [`report`] — plain-text table rendering and CSV output (no external dependencies);
//! * [`experiments`] — one function per table/figure of the evaluation section, each
//!   returning a [`report::Table`] whose rows mirror the paper's plots.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod chaos;
pub mod experiments;
pub mod invariants;
pub mod report;
pub mod scenario;
pub mod trajectory;
pub mod workload;

pub use chaos::{ChaosFault, ChaosOptions, ChaosSchedule, FaultScheduleGenerator};
pub use invariants::{SystemSnapshot, Violation};
pub use report::Table;
pub use scenario::{
    run_hotstuff_scenario, run_leopard_scenario, run_scenario, ScenarioConfig, ScenarioProtocol,
    ScenarioReport,
};
pub use workload::WorkloadConfig;
