//! A 32-byte digest type and hashing helpers used across the workspace.

use crate::sha256::Sha256;
use std::fmt;

/// Length in bytes of a [`Digest`]; matches the paper's `β = 32` bytes (SHA-256).
pub const DIGEST_LEN: usize = 32;

/// A 32-byte SHA-256 digest.
///
/// `Digest` is used as the identifier of datablocks, BFTblocks and requests throughout
/// the protocol crates, and as node labels in [`crate::merkle::MerkleTree`].
///
/// ```
/// use leopard_crypto::{hash_bytes, Digest};
///
/// let d: Digest = hash_bytes(b"hello");
/// assert_ne!(d, Digest::zero());
/// assert_eq!(d, hash_bytes(b"hello"));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; DIGEST_LEN]);

impl Digest {
    /// The all-zero digest; used as a placeholder (e.g. the parent of a genesis block).
    pub fn zero() -> Self {
        Digest([0u8; DIGEST_LEN])
    }

    /// Returns true if every byte of the digest is zero.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&b| b == 0)
    }

    /// Borrows the digest as a byte slice.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Parses a digest from a slice.
    ///
    /// Returns `None` if the slice is not exactly [`DIGEST_LEN`] bytes.
    pub fn from_slice(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != DIGEST_LEN {
            return None;
        }
        let mut out = [0u8; DIGEST_LEN];
        out.copy_from_slice(bytes);
        Some(Digest(out))
    }

    /// Hex representation, mostly for logs and debugging.
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// A short prefix of the hex representation, for compact log lines.
    pub fn short_hex(&self) -> String {
        self.to_hex()[..8].to_string()
    }

    /// Interprets the first 8 bytes as a big-endian integer.
    ///
    /// Used by the threshold scheme to map a digest into the field, and by tests that
    /// need a deterministic pseudo-random value derived from a digest.
    pub fn to_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("digest has at least 8 bytes"))
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; DIGEST_LEN]> for Digest {
    fn from(bytes: [u8; DIGEST_LEN]) -> Self {
        Digest(bytes)
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}…)", self.short_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.short_hex())
    }
}

/// Hashes a byte slice with SHA-256.
pub fn hash_bytes(data: &[u8]) -> Digest {
    Digest(Sha256::digest(data))
}

/// Hashes the concatenation of two digests; used for Merkle tree interior nodes.
pub fn hash_pair(left: &Digest, right: &Digest) -> Digest {
    let mut hasher = Sha256::new();
    hasher.update(left.as_bytes());
    hasher.update(right.as_bytes());
    Digest(hasher.finalize())
}

/// Hashes an iterator of byte slices as if they were concatenated.
pub fn hash_parts<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> Digest {
    let mut hasher = Sha256::new();
    for part in parts {
        hasher.update(part);
    }
    Digest(hasher.finalize())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_roundtrip_and_accessors() {
        let d = hash_bytes(b"leopard");
        assert_eq!(Digest::from_slice(d.as_bytes()), Some(d));
        assert_eq!(Digest::from(d.0), d);
        assert_eq!(d.to_hex().len(), 64);
        assert_eq!(d.short_hex().len(), 8);
        assert!(!d.is_zero());
        assert!(Digest::zero().is_zero());
    }

    #[test]
    fn from_slice_rejects_wrong_length() {
        assert!(Digest::from_slice(&[0u8; 31]).is_none());
        assert!(Digest::from_slice(&[0u8; 33]).is_none());
        assert!(Digest::from_slice(&[]).is_none());
    }

    #[test]
    fn hash_pair_is_order_sensitive() {
        let a = hash_bytes(b"a");
        let b = hash_bytes(b"b");
        assert_ne!(hash_pair(&a, &b), hash_pair(&b, &a));
    }

    #[test]
    fn hash_parts_equals_concatenation() {
        let concatenated = hash_bytes(b"hello world");
        let parts = hash_parts([b"hello".as_slice(), b" ".as_slice(), b"world".as_slice()]);
        assert_eq!(concatenated, parts);
    }

    #[test]
    fn to_u64_uses_leading_bytes() {
        let mut bytes = [0u8; DIGEST_LEN];
        bytes[7] = 1;
        assert_eq!(Digest::from(bytes).to_u64(), 1);
        bytes[0] = 0x80;
        assert!(Digest::from(bytes).to_u64() > u64::MAX / 2);
    }
}
