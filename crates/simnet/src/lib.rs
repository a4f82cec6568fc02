//! A bandwidth-accurate discrete-event network simulator for sans-IO BFT protocol
//! state machines.
//!
//! The paper evaluates Leopard and HotStuff on up to 600 EC2 instances whose 9.8 Gbps
//! NICs are the binding resource; this crate is the substitute substrate (see
//! `DESIGN.md` §3). Every message a protocol sends is charged its exact wire size
//! against the sender's uplink and the receiver's downlink, modelled as FIFO
//! serialisation queues, plus a propagation delay. Throughput, latency, per-category
//! bandwidth utilisation and leader-bottleneck effects then emerge from the protocol
//! code itself.
//!
//! # Architecture
//!
//! * [`Protocol`] / [`Context`] — the sans-IO interface protocol state machines
//!   implement ([`protocol`]);
//! * [`Simulation`] — the deterministic discrete-event engine ([`sim`]);
//! * [`NetworkConfig`] / [`LinkConfig`] — bandwidth, latency, CPU speed and core
//!   count ([`network`]);
//! * [`Topology`] / [`StragglerProfile`] — geo-distributed deployments: named regions,
//!   a pairwise latency/jitter matrix and per-node stragglers that are network- and
//!   CPU-slow at once ([`network`]);
//! * [`FaultPlan`] — the selective attack, crash/restart schedules and region partition
//!   windows for Byzantine experiments ([`fault`]);
//! * [`MetricsSink`], [`TrafficMatrix`] — per-node, per-category byte accounting and
//!   protocol observations ([`metrics`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod fanout;
pub mod fault;
pub mod metrics;
pub mod network;
pub mod protocol;
pub(crate) mod queue;
pub mod sim;
pub mod time;

pub use fault::{flapping_windows, CrashWindow, FaultPlan, MessageFate, PartitionWindow};
pub use metrics::{
    CommitRecord, LatencyHistogram, LatencyRun, MetricsSink, Observation, ObservationKind,
    TrafficMatrix,
};
pub use network::{LinkConfig, NetworkConfig, ResolvedTopology, StragglerProfile, Topology};
pub use protocol::{Context, ProgressProbe, Protocol, SimMessage};
pub use sim::{global_events_processed, Simulation, SimulationReport};
pub use time::{SimDuration, SimTime};
