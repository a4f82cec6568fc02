//! Cryptographic substrate for the Leopard BFT reproduction.
//!
//! The paper relies on three cryptographic building blocks:
//!
//! * a collision-resistant hash function `H(·)` (SHA-256 in the original prototype) —
//!   implemented from scratch in [`sha256`] (the x86 SHA extensions where the CPU has
//!   them, the portable reference rounds elsewhere) and wrapped by [`hash::Digest`];
//! * Merkle trees over erasure-coded chunks for the datablock retrieval mechanism —
//!   implemented in [`merkle`];
//! * a `(2f+1, n)` threshold signature scheme `TS = (TSig, TVrf, TSR)` (threshold BLS in
//!   the original prototype) — implemented in [`threshold`] as a Shamir-secret-sharing
//!   based scheme over the prime field GF(2^61 − 1).
//!
//! # Security note on the threshold scheme
//!
//! The threshold scheme reproduces the *interface*, the *threshold semantics* (any
//! `2f+1` of `n` shares combine into a valid signature, any smaller set does not) and
//! the *wire sizes* of threshold BLS, but it is **not** unforgeable against a real
//! network adversary: verification keys are derived from the same dealer secret that
//! produces signatures. This is an intentional, documented substitution (see
//! `DESIGN.md` §3): the adversary in this repository is always simulated by our own
//! fault-injection code, never by an untrusted peer, so unforgeability is not load
//! bearing while the combination algebra (Lagrange interpolation over a quorum) is
//! exercised for real.
//!
//! # Unsafe code
//!
//! The crate is `#![deny(unsafe_code)]`, not `forbid`, so that exactly one private
//! module can opt out: `sha256::x86`, the SHA-extensions compression function. Its
//! `unsafe` is one call into a `#[target_feature]` function behind
//! `is_x86_feature_detected!` and the unaligned loads of the message words; everything
//! else in the crate, the scalar reference path included, is safe code (see
//! `DESIGN.md` §5.8 for the inventory).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod field;
pub mod hash;
pub mod merkle;
pub mod provider;
pub mod sha256;
pub mod threshold;

pub use hash::{hash_bytes, hash_pair, hash_parts, Digest, DIGEST_LEN};
pub use merkle::{MerkleProof, MerkleTree};
pub use provider::{
    BatchOutcome, ComputeCost, CryptoCostModel, CryptoMode, CryptoProvider, ShareCollector,
    SharedKeys,
};
pub use threshold::{
    CombinedSignature, SignatureShare, ThresholdError, ThresholdKeyPair, ThresholdScheme,
    DEFAULT_SIGNATURE_WIRE_BYTES,
};
