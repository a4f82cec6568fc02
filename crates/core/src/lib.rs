//! The Leopard BFT protocol (the paper's primary contribution).
//!
//! Leopard is a leader-based, partially-synchronous BFT protocol that preserves high
//! throughput as the number of replicas grows. It does so by decoupling consensus
//! proposals into two planes:
//!
//! * **datablocks** — batches of client requests, produced and multicast by *every*
//!   non-leader replica, a saturated producer paced by [`config::WorkloadMode`]
//!   (Algorithm 1 of the paper);
//! * **BFTblocks** — tiny index blocks containing only datablock hashes, proposed by the
//!   leader and agreed on with a PBFT-style two-round voting protocol whose votes are
//!   aggregated with threshold signatures ([`instance`], Algorithm 2).
//!
//! Liveness against faulty datablock producers is restored by a **ready round** (the
//! leader only links datablocks for which `2f+1` replicas acknowledged receipt) plus a
//! **retrieval mechanism** based on `(f+1, n)` erasure codes and Merkle proofs
//! ([`retrieval`], Algorithm 3). Checkpoints ([`checkpoint`], Algorithm 4) garbage-
//! collect the pools and advance the watermark window; a PBFT-style view-change
//! ([`view_change`]) replaces faulty leaders.
//!
//! The replica is a sans-IO state machine ([`replica::LeopardReplica`]) implementing
//! [`leopard_simnet::Protocol`], so it runs under the bandwidth-accurate simulator.
//!
//! ```
//! use leopard_core::{config::LeopardConfig, replica::LeopardReplica};
//! use leopard_simnet::{FaultPlan, NetworkConfig, SimDuration, SimTime, Simulation};
//!
//! let config = LeopardConfig::small_test(4);
//! let shared = LeopardConfig::shared_keys(&config, 42);
//! let sim = Simulation::new(
//!     NetworkConfig::datacenter(4),
//!     FaultPlan::none(),
//!     |id| LeopardReplica::new(id, config.clone(), shared.clone()),
//! );
//! let report = sim.run_to_report(SimTime(SimDuration::from_secs(2).as_nanos()), 2_000_000);
//! assert!(report.metrics.max_confirmed_requests(4) > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod byzantine;
pub mod checkpoint;
pub mod config;
pub mod instance;
pub mod messages;
pub mod pipeline;
pub mod pool;
pub mod replica;
pub mod retrieval;
pub mod view_change;

pub use config::{LeopardConfig, WorkloadMode};
pub use leopard_crypto::SharedKeys;
pub use messages::LeopardMessage;
pub use pipeline::{Pipeline, StallReason};
pub use replica::LeopardReplica;
