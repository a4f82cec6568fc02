//! Common protocol types shared by the Leopard protocol, the HotStuff baseline, the
//! simulator and the experiment harness.
//!
//! The crate defines:
//!
//! * strongly-typed identifiers ([`NodeId`], [`View`], [`SeqNum`], [`ClientId`],
//!   [`RequestId`]) — see [`ids`];
//! * client [`Request`]s with *synthetic payloads* (the byte size is carried, the bytes
//!   are not materialised), batched as one [`RequestRun`] of a client's consecutive
//!   requests;
//! * the two block planes of the paper: [`Datablock`] (request payloads produced by
//!   non-leader replicas) and [`BftBlock`] (index blocks proposed by the leader);
//! * a tiny hand-rolled binary codec ([`wire`]) plus the [`WireSize`] trait used for
//!   bandwidth accounting in the simulator;
//! * protocol-wide [`params`] such as the sizes `β` (hash) and `κ` (vote) from the
//!   paper's cost model;
//! * the seed-free [`hash`] module ([`FastMap`]/[`FastSet`]) used on the replicas'
//!   bookkeeping hot paths instead of SipHash.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod hash;
pub mod ids;
pub mod params;
pub mod request;
pub mod wire;

pub use block::{BftBlock, BftBlockId, Datablock, DatablockId};
pub use hash::{FastMap, FastSet, FxHasher};
pub use ids::{digest_stripe, ClientId, NodeId, RequestId, SeqNum, View};
pub use params::{
    bls_paper_crypto_costs, calibrated_crypto_costs, fault_bound, quorum_size, CostModelKind,
    ProtocolParams, PAPER_PAYLOAD_SIZE,
};
pub use request::{Request, RequestRun};
pub use wire::{Decode, Encode, WireReader, WireSize, WireWriter};
