//! Strongly-typed identifiers used throughout the workspace, and the multi-proposer
//! schedule over them: which replica proposes which stripe, serial and digest.

use leopard_crypto::Digest;
use std::fmt;

/// Identifier of a replica (`i ∈ [n]` in the paper). Replica indices are zero-based in
/// this codebase; the threshold-signature signer index is `NodeId::as_index() + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Creates a node id from a zero-based index.
    pub fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// The zero-based index as `usize`.
    pub fn as_index(&self) -> usize {
        self.0 as usize
    }

    /// The 1-based signer index used by the threshold-signature scheme.
    pub fn signer_index(&self) -> usize {
        self.0 as usize + 1
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(value: u32) -> Self {
        NodeId(value)
    }
}

/// A view number (`v` in the paper). Views start at 1; view 0 is reserved as "before the
/// protocol started".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct View(pub u64);

impl View {
    /// The first view of the protocol.
    pub fn initial() -> Self {
        View(1)
    }

    /// The next view.
    pub fn next(&self) -> Self {
        View(self.0 + 1)
    }

    /// The leader of this view under the round-robin policy of the paper
    /// (`(v mod n)`-th replica): the proposer of stripe 0.
    pub fn leader(&self, n: usize) -> NodeId {
        self.proposer(0, n)
    }

    /// The proposer of stripe `j` in this view: replica `((v mod n) + j) mod n`. The
    /// proposer window rotates by one replica per view, so a view change demotes a
    /// faulty proposer without renumbering the honest stripes.
    pub fn proposer(&self, j: u64, n: usize) -> NodeId {
        let n = n as u64;
        NodeId(((self.0 % n + j) % n) as u32)
    }

    /// The stripe `node` proposes in this view under `p` proposers, if any: the inverse
    /// of [`Self::proposer`], `(node − v) mod n` when that is below `p`.
    pub fn stripe_of(&self, node: NodeId, n: usize, p: u64) -> Option<u64> {
        let n = n as u64;
        let j = (u64::from(node.0) + n - self.0 % n) % n;
        (j < p).then_some(j)
    }
}

/// The stripe whose proposer links `digest` under `p` proposers: the digest's first
/// eight bytes, little-endian, mod `p`.
pub fn digest_stripe(digest: &Digest, p: u64) -> u64 {
    let mut prefix = [0u8; 8];
    prefix.copy_from_slice(&digest.as_bytes()[..8]);
    u64::from_le_bytes(prefix) % p
}

impl fmt::Display for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A BFTblock serial number (`sn` in the paper), assigned by the leader. Serial numbers
/// start at 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SeqNum(pub u64);

impl SeqNum {
    /// The first serial number.
    pub fn first() -> Self {
        SeqNum(1)
    }

    /// The next serial number.
    pub fn next(&self) -> Self {
        SeqNum(self.0 + 1)
    }

    /// The stripe this serial belongs to under `p` proposers, `(s − 1) mod p`.
    pub fn stripe(&self, p: u64) -> u64 {
        debug_assert!(self.0 >= 1 && p >= 1);
        (self.0 - 1) % p
    }
}

impl fmt::Display for SeqNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Identifier of a client submitting requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ClientId(pub u32);

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Globally unique identifier of a request: the submitting client plus a per-client
/// sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct RequestId {
    /// The submitting client.
    pub client: ClientId,
    /// Per-client sequence number.
    pub seq: u64,
}

impl RequestId {
    /// Creates a request id.
    pub fn new(client: ClientId, seq: u64) -> Self {
        RequestId { client, seq }
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.client, self.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn node_id_indices() {
        let node = NodeId::new(3);
        assert_eq!(node.as_index(), 3);
        assert_eq!(node.signer_index(), 4);
        assert_eq!(node.to_string(), "r3");
        assert_eq!(NodeId::from(7u32), NodeId(7));
    }

    #[test]
    fn view_round_robin_leader() {
        let n = 4;
        assert_eq!(View(1).leader(n), NodeId(1));
        assert_eq!(View(4).leader(n), NodeId(0));
        assert_eq!(View(5).leader(n), NodeId(1));
        assert_eq!(View::initial().next(), View(2));
    }

    #[test]
    fn proposer_window_rotates_with_the_view() {
        // n = 4, p = 2: view 1 is proposed by r1 (stripe 0) and r2 (stripe 1); view 4
        // wraps to r0 and r1.
        assert_eq!(View(1).proposer(1, 4), NodeId(2));
        assert_eq!(View(4).proposer(0, 4), NodeId(0));
        assert_eq!(View(4).proposer(1, 4), NodeId(1));
        assert_eq!(View(1).stripe_of(NodeId(0), 4, 4), Some(3));
        assert_eq!(View(1).stripe_of(NodeId(0), 4, 2), None);
        assert_eq!(View(4).stripe_of(NodeId(1), 4, 2), Some(1));
        // Serials stripe round-robin: (s − 1) mod p.
        assert_eq!(SeqNum(1).stripe(4), 0);
        assert_eq!(SeqNum(2).stripe(4), 1);
        assert_eq!(SeqNum(8).stripe(4), 3);
        assert_eq!(SeqNum(9).stripe(4), 0);
        assert_eq!(SeqNum(7).stripe(1), 0);
    }

    proptest! {
        /// `stripe_of` inverts `proposer`, and the leader is the proposer of stripe 0.
        #[test]
        fn stripe_of_inverts_proposer(n in 1usize..=1000, v in 0u64..1_000_000, j in 0u64..1000) {
            let view = View(v);
            let j = j % n as u64;
            prop_assert_eq!(view.stripe_of(view.proposer(j, n), n, n as u64), Some(j));
            prop_assert_eq!(view.leader(n), view.proposer(0, n));
            prop_assert_eq!(view.leader(n), NodeId((v % n as u64) as u32));
        }

        /// A node holds a stripe of view 1 exactly when `(id + n − 1) mod n < p`, every
        /// serial lands on one of the `p` stripes, and a digest on its prefix mod `p`.
        #[test]
        fn the_schedule_has_closed_forms(
            n in 1usize..=1000,
            id in 0u32..1000,
            p in 1u64..=8,
            s in 1u64..1_000_000,
            prefix in any::<u64>(),
        ) {
            let id = id % n as u32;
            let n32 = n as u32;
            let held = View::initial().stripe_of(NodeId(id), n, p).is_some();
            prop_assert_eq!(held, u64::from((id + n32 - 1) % n32) < p);
            prop_assert!(SeqNum(s).stripe(p) < p);
            let mut digest = Digest([0xA5; 32]);
            digest.0[..8].copy_from_slice(&prefix.to_le_bytes());
            prop_assert_eq!(digest_stripe(&digest, p), prefix % p);
        }
    }

    #[test]
    fn seq_num_ordering_and_next() {
        assert!(SeqNum::first() < SeqNum(2));
        assert_eq!(SeqNum(9).next(), SeqNum(10));
        assert_eq!(SeqNum(3).to_string(), "#3");
    }

    #[test]
    fn request_id_display() {
        let id = RequestId::new(ClientId(2), 17);
        assert_eq!(id.to_string(), "c2:17");
    }
}
