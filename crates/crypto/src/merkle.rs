//! Merkle trees over arbitrary leaves, with inclusion proofs.
//!
//! The datablock retrieval mechanism (paper, Algorithm 3) erasure-codes a datablock into
//! `n` chunks, builds a Merkle tree over the chunks, and ships each chunk together with
//! its Merkle proof so the querier can validate chunks individually before decoding.

use crate::hash::{hash_parts, Digest};

/// Domain separation prefixes so that a leaf hash can never collide with an interior
/// node hash (second-preimage hardening, as in RFC 6962).
const LEAF_PREFIX: &[u8] = &[0x00];
const NODE_PREFIX: &[u8] = &[0x01];

fn hash_leaf(data: &[u8]) -> Digest {
    hash_parts([LEAF_PREFIX, data])
}

fn hash_node(left: &Digest, right: &Digest) -> Digest {
    hash_parts([NODE_PREFIX, left.as_bytes(), right.as_bytes()])
}

/// A full Merkle tree, retaining every level so proofs can be generated for any leaf.
///
/// ```
/// use leopard_crypto::MerkleTree;
///
/// let leaves: Vec<Vec<u8>> = (0u8..7).map(|i| vec![i; 16]).collect();
/// let tree = MerkleTree::from_leaves(leaves.iter().map(|l| l.as_slice()));
/// let proof = tree.prove(3).unwrap();
/// assert!(proof.verify(tree.root(), &leaves[3]));
/// assert!(!proof.verify(tree.root(), &leaves[4]));
/// ```
#[derive(Debug, Clone)]
pub struct MerkleTree {
    /// `levels[0]` are the leaf hashes; the last level contains the single root.
    levels: Vec<Vec<Digest>>,
    leaf_count: usize,
}

impl MerkleTree {
    /// Builds a tree over the given leaves.
    ///
    /// An empty iterator yields a tree whose root is [`Digest::zero`]. Odd levels are
    /// handled by promoting the last node unchanged (Bitcoin-style duplication is avoided
    /// to keep proofs unambiguous).
    pub fn from_leaves<'a>(leaves: impl IntoIterator<Item = &'a [u8]>) -> Self {
        let leaf_hashes: Vec<Digest> = leaves.into_iter().map(hash_leaf).collect();
        let leaf_count = leaf_hashes.len();
        if leaf_count == 0 {
            return Self {
                levels: vec![vec![Digest::zero()]],
                leaf_count: 0,
            };
        }
        let mut levels = vec![leaf_hashes];
        while levels.last().expect("at least one level").len() > 1 {
            let prev = levels.last().expect("at least one level");
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                if pair.len() == 2 {
                    next.push(hash_node(&pair[0], &pair[1]));
                } else {
                    next.push(pair[0]);
                }
            }
            levels.push(next);
        }
        Self { levels, leaf_count }
    }

    /// The Merkle root.
    pub fn root(&self) -> Digest {
        self.levels
            .last()
            .and_then(|level| level.first())
            .copied()
            .unwrap_or_else(Digest::zero)
    }

    /// Number of leaves the tree was built over.
    pub fn leaf_count(&self) -> usize {
        self.leaf_count
    }

    /// Generates the inclusion proof for the leaf at `index`, or `None` if out of range.
    pub fn prove(&self, index: usize) -> Option<MerkleProof> {
        if index >= self.leaf_count {
            return None;
        }
        let mut siblings = Vec::new();
        let mut position = index;
        for level in &self.levels[..self.levels.len().saturating_sub(1)] {
            let sibling_index = position ^ 1;
            if sibling_index < level.len() {
                siblings.push(Some(level[sibling_index]));
            } else {
                // Last node of an odd level was promoted unchanged.
                siblings.push(None);
            }
            position /= 2;
        }
        Some(MerkleProof {
            leaf_index: index,
            siblings,
        })
    }
}

/// An inclusion proof for a single leaf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleProof {
    leaf_index: usize,
    /// Sibling hash at each level from the leaves towards the root; `None` where the
    /// node was promoted without a sibling.
    siblings: Vec<Option<Digest>>,
}

impl MerkleProof {
    /// Index of the leaf this proof is about.
    pub fn leaf_index(&self) -> usize {
        self.leaf_index
    }

    /// Number of sibling hashes carried by the proof.
    pub fn len(&self) -> usize {
        self.siblings.len()
    }

    /// Returns true if the proof carries no siblings (single-leaf tree).
    pub fn is_empty(&self) -> bool {
        self.siblings.is_empty()
    }

    /// Size of the proof in bytes when serialised: one digest per present sibling plus a
    /// small header. Used for communication-cost accounting in the simulator.
    pub fn wire_size(&self) -> usize {
        8 + self
            .siblings
            .iter()
            .map(|s| if s.is_some() { 33 } else { 1 })
            .sum::<usize>()
    }

    /// The wire size a proof for leaf `index` of a `leaf_count`-leaf tree *would* have,
    /// computed without building the tree. Walks the level sizes arithmetically:
    /// a level of `len` nodes has a present sibling for `position` iff `position ^ 1`
    /// is still inside the level (the last node of an odd level is promoted without a
    /// sibling and contributes only the 1-byte `None` marker).
    ///
    /// The metered retrieval path uses this so a fabricated response is charged exactly
    /// the bytes a real erasure-coded response would occupy. Returns `None` if `index`
    /// is out of range.
    pub fn wire_size_for(leaf_count: usize, index: usize) -> Option<usize> {
        if index >= leaf_count {
            return None;
        }
        let mut size = 8;
        let mut len = leaf_count;
        let mut position = index;
        while len > 1 {
            let sibling = position ^ 1;
            size += if sibling < len { 33 } else { 1 };
            position /= 2;
            len = len.div_ceil(2);
        }
        Some(size)
    }

    /// Verifies that `leaf_data` is the leaf at [`Self::leaf_index`] of the tree with the
    /// given `root`.
    pub fn verify(&self, root: Digest, leaf_data: &[u8]) -> bool {
        let mut acc = hash_leaf(leaf_data);
        let mut position = self.leaf_index;
        for sibling in &self.siblings {
            match sibling {
                Some(sib) => {
                    acc = if position % 2 == 0 {
                        hash_node(&acc, sib)
                    } else {
                        hash_node(sib, &acc)
                    };
                }
                None => {
                    // Promoted node: hash passes through unchanged.
                }
            }
            position /= 2;
        }
        acc == root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("leaf-{i}").into_bytes()).collect()
    }

    #[test]
    fn empty_tree_has_zero_root() {
        let tree = MerkleTree::from_leaves(std::iter::empty());
        assert_eq!(tree.root(), Digest::zero());
        assert_eq!(tree.leaf_count(), 0);
        assert!(tree.prove(0).is_none());
    }

    #[test]
    fn single_leaf_tree() {
        let data = leaves(1);
        let tree = MerkleTree::from_leaves(data.iter().map(|l| l.as_slice()));
        let proof = tree.prove(0).unwrap();
        assert!(proof.is_empty());
        assert!(proof.verify(tree.root(), &data[0]));
        assert!(!proof.verify(tree.root(), b"other"));
    }

    #[test]
    fn all_leaves_provable_for_various_sizes() {
        for n in 1..=33 {
            let data = leaves(n);
            let tree = MerkleTree::from_leaves(data.iter().map(|l| l.as_slice()));
            for (i, leaf) in data.iter().enumerate() {
                let proof = tree.prove(i).unwrap();
                assert!(proof.verify(tree.root(), leaf), "n={n} leaf={i}");
            }
            assert!(tree.prove(n).is_none());
        }
    }

    #[test]
    fn proof_fails_for_wrong_leaf_or_root() {
        let data = leaves(8);
        let tree = MerkleTree::from_leaves(data.iter().map(|l| l.as_slice()));
        let proof = tree.prove(2).unwrap();
        assert!(!proof.verify(tree.root(), &data[3]));
        let other = MerkleTree::from_leaves(leaves(9).iter().map(|l| l.as_slice()));
        assert!(!proof.verify(other.root(), &data[2]));
    }

    #[test]
    fn leaf_and_node_domains_are_separated() {
        // A single leaf equal to the concatenation of two hashed children must not
        // produce the same root as the two-leaf tree.
        let a = leaves(2);
        let two = MerkleTree::from_leaves(a.iter().map(|l| l.as_slice()));
        let forged: Vec<u8> = {
            let l0 = hash_leaf(&a[0]);
            let l1 = hash_leaf(&a[1]);
            let mut v = Vec::new();
            v.extend_from_slice(l0.as_bytes());
            v.extend_from_slice(l1.as_bytes());
            v
        };
        let one = MerkleTree::from_leaves([forged.as_slice()]);
        assert_ne!(two.root(), one.root());
    }

    #[test]
    fn wire_size_for_matches_real_proofs() {
        for n in 1..=66usize {
            let data = leaves(n);
            let tree = MerkleTree::from_leaves(data.iter().map(|l| l.as_slice()));
            for index in 0..n {
                let real = tree.prove(index).unwrap().wire_size();
                assert_eq!(
                    MerkleProof::wire_size_for(n, index),
                    Some(real),
                    "n={n} index={index}"
                );
            }
            assert_eq!(MerkleProof::wire_size_for(n, n), None);
        }
    }

    #[test]
    fn wire_size_is_positive_and_grows_with_depth() {
        let small = MerkleTree::from_leaves(leaves(2).iter().map(|l| l.as_slice()));
        let large = MerkleTree::from_leaves(leaves(64).iter().map(|l| l.as_slice()));
        let ps = small.prove(0).unwrap().wire_size();
        let pl = large.prove(0).unwrap().wire_size();
        assert!(ps > 0);
        assert!(pl > ps);
    }

    proptest! {
        #[test]
        fn random_trees_verify_and_reject(
            leaf_payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..40),
            tweak_index in any::<usize>(),
        ) {
            let tree = MerkleTree::from_leaves(leaf_payloads.iter().map(|l| l.as_slice()));
            for (i, leaf) in leaf_payloads.iter().enumerate() {
                let proof = tree.prove(i).unwrap();
                prop_assert!(proof.verify(tree.root(), leaf));
                // A tampered leaf must not verify under the same proof.
                let mut tampered = leaf.clone();
                if tampered.is_empty() {
                    tampered.push(1);
                } else {
                    let idx = tweak_index % tampered.len();
                    tampered[idx] ^= 0xff;
                }
                prop_assert!(!proof.verify(tree.root(), &tampered));
            }
        }
    }
}
