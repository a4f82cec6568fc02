//! A chained, pipelined HotStuff baseline — the comparison system of the paper's
//! evaluation (§VI), re-implemented over the same simulator and crypto substrate as
//! Leopard so the comparison is apples-to-apples.
//!
//! The implementation follows the structure of the basic chained HotStuff protocol
//! (Yin et al., 2019) with the stable-leader configuration used by `libhotstuff`:
//!
//! * the leader batches client requests into blocks and multicasts the **full payload**
//!   to every replica (this is exactly the `Λ · payload · (n−1)` leader cost that
//!   Leopard removes);
//! * replicas send threshold-signature votes to the leader; `2f+1` votes form a quorum
//!   certificate (QC);
//! * proposals are pipelined: each new block carries the QC of its parent, so each block
//!   needs only one voting round;
//! * a block is committed through the three-chain rule (a block is committed once it has
//!   three consecutive certified descendants ending in the newest QC);
//! * a round-robin pacemaker rotates the leader when progress stalls.
//!
//! The replica ([`HotStuffReplica`]) is a sans-IO [`leopard_simnet::Protocol`], exactly
//! like [`leopard-core`'s replica](https://docs.rs/leopard-core).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod config;
mod mempool;
pub mod messages;
pub mod replica;

pub use block::{HotStuffBlock, QuorumCertificate};
pub use config::HotStuffConfig;
pub use messages::HotStuffMessage;
pub use replica::HotStuffReplica;
