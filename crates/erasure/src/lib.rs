//! Reed–Solomon erasure coding over GF(2^8).
//!
//! The Leopard retrieval mechanism (paper, Algorithm 3) encodes a missing datablock with
//! an `(f+1, n)` erasure code: the datablock is split into `f+1` data shards, extended to
//! `n` coded shards, and any `f+1` valid shards reconstruct the datablock. This crate
//! provides that code from scratch:
//!
//! * [`gf256`] — arithmetic in GF(2^8) with the AES polynomial `x^8+x^4+x^3+x+1`,
//!   log/antilog tables built at runtime; the bulk multiply-accumulate runs an AVX2
//!   kernel where the CPU has one and a table-row loop elsewhere;
//! * [`matrix`] — dense matrices over GF(2^8) with Gaussian-elimination inversion;
//! * [`ReedSolomon`] — a systematic encoder (Vandermonde-derived encoding matrix) and a
//!   decoder that recovers the original data shards from any `data_shards` surviving
//!   shards.
//!
//! ```
//! use leopard_erasure::ReedSolomon;
//!
//! let rs = ReedSolomon::new(3, 7).unwrap();              // (f+1, n) = (3, 7)
//! let payload = b"the quick brown fox jumps over the lazy dog".to_vec();
//! let shards = rs.encode_payload(&payload);
//! // Drop all but 3 arbitrary shards and reconstruct.
//! let surviving: Vec<(usize, Vec<u8>)> = vec![
//!     (1, shards[1].clone()),
//!     (4, shards[4].clone()),
//!     (6, shards[6].clone()),
//! ];
//! let recovered = rs.decode_payload(&surviving, payload.len()).unwrap();
//! assert_eq!(recovered, payload);
//! ```
//!
//! # Unsafe code
//!
//! The crate is `#![deny(unsafe_code)]`, not `forbid`, so that exactly one private
//! module can opt out: `gf256::x86`, the AVX2 kernel of [`gf256::mul_add_slice`]. Its
//! `unsafe` is one call into a `#[target_feature]` function behind
//! `is_x86_feature_detected!` and the unaligned loads and stores of 32-byte blocks;
//! everything else in the crate, the scalar path included, is safe code (see
//! `DESIGN.md` §5.8 for the inventory).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod gf256;
pub mod matrix;
mod rs;

pub use rs::{ErasureError, ReedSolomon};
