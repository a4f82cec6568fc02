//! The datablock pool (`datablockPool` in the paper) plus the leader's ready
//! bookkeeping (`readyblockPool`).

use leopard_crypto::Digest;
use leopard_types::{Datablock, FastMap, FastSet, NodeId};
use std::collections::VecDeque;
use std::sync::Arc;

/// Storage of received datablocks, indexed by digest, with per-producer counter
/// de-duplication (a producer may use each counter value only once — the rate-limit of
/// Algorithm 1).
#[derive(Debug, Default)]
pub struct DatablockPool {
    by_digest: FastMap<Digest, Arc<Datablock>>,
    seen_counters: FastMap<NodeId, FastSet<u64>>,
}

impl DatablockPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored datablocks.
    pub fn len(&self) -> usize {
        self.by_digest.len()
    }

    /// True if the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.by_digest.is_empty()
    }

    /// Inserts a datablock if its `(producer, counter)` pair has not been seen before.
    ///
    /// Returns the digest if the datablock was accepted, `None` if it was a duplicate.
    pub fn insert(&mut self, datablock: Arc<Datablock>) -> Option<Digest> {
        let counters = self.seen_counters.entry(datablock.id.producer).or_default();
        if !counters.insert(datablock.id.counter) {
            return None;
        }
        let digest = datablock.digest();
        self.by_digest.insert(digest, datablock);
        Some(digest)
    }

    /// Looks up a datablock by digest.
    pub fn get(&self, digest: &Digest) -> Option<&Arc<Datablock>> {
        self.by_digest.get(digest)
    }

    /// True if the pool holds a datablock with this digest.
    pub fn contains(&self, digest: &Digest) -> bool {
        self.by_digest.contains_key(digest)
    }

    /// Iterates over the digests of every stored datablock (used by the harness
    /// invariant checker to snapshot retrieval completeness).
    pub fn digests(&self) -> impl Iterator<Item = &Digest> + '_ {
        self.by_digest.keys()
    }

    /// Removes datablocks whose digests appear in `digests` (garbage collection after a
    /// checkpoint). The per-producer counter history is retained so counters can never
    /// be reused.
    pub fn prune(&mut self, digests: impl IntoIterator<Item = Digest>) {
        for digest in digests {
            self.by_digest.remove(&digest);
        }
    }
}

/// The leader's ready bookkeeping: which replicas acknowledged which datablock, and the
/// FIFO queue of datablocks that reached the `2f+1` threshold but have not been linked
/// by a BFTblock yet.
#[derive(Debug, Default)]
pub struct ReadyTracker {
    acks: FastMap<Digest, FastSet<NodeId>>,
    ready_queue: VecDeque<Digest>,
    queued: FastSet<Digest>,
    linked: FastSet<Digest>,
}

impl ReadyTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a ready acknowledgement. Once `quorum` distinct replicas acknowledged a
    /// datablock it joins the ready queue (exactly once).
    ///
    /// Returns true if the datablock just became ready.
    pub fn record_ack(&mut self, digest: Digest, from: NodeId, quorum: usize) -> bool {
        let acks = self.acks.entry(digest).or_default();
        acks.insert(from);
        if acks.len() >= quorum && !self.queued.contains(&digest) && !self.linked.contains(&digest)
        {
            self.queued.insert(digest);
            self.ready_queue.push_back(digest);
            true
        } else {
            false
        }
    }

    /// Number of ready, not yet linked datablocks.
    pub fn ready_count(&self) -> usize {
        self.ready_queue.len()
    }

    /// Takes up to `max` ready datablock digests to link in a new BFTblock.
    pub fn take_ready(&mut self, max: usize) -> Vec<Digest> {
        let take = max.min(self.ready_queue.len());
        let digests: Vec<Digest> = self.ready_queue.drain(..take).collect();
        for digest in &digests {
            self.queued.remove(digest);
            self.linked.insert(*digest);
        }
        digests
    }

    /// Returns previously linked digests to the front of the queue (used when a proposal
    /// is abandoned by a view-change before being confirmed).
    pub fn requeue(&mut self, digests: impl IntoIterator<Item = Digest>) {
        for digest in digests {
            if self.linked.remove(&digest) && !self.queued.contains(&digest) {
                self.queued.insert(digest);
                self.ready_queue.push_front(digest);
            }
        }
    }

    /// Drops bookkeeping for the given digests (after checkpointing).
    pub fn prune(&mut self, digests: impl IntoIterator<Item = Digest>) {
        let mut dropped = FastSet::default();
        for digest in digests {
            self.acks.remove(&digest);
            self.linked.remove(&digest);
            if self.queued.remove(&digest) {
                dropped.insert(digest);
            }
        }
        // One queue sweep for the whole batch instead of one per digest (checkpoint GC
        // hands over every executed link at once).
        if !dropped.is_empty() {
            self.ready_queue.retain(|digest| !dropped.contains(digest));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leopard_types::{ClientId, Request};

    fn datablock(producer: u32, counter: u64, seed: u64) -> Arc<Datablock> {
        Arc::new(Datablock::new(
            NodeId(producer),
            counter,
            vec![Request::new_synthetic(ClientId(producer), seed, 64)],
        ))
    }

    #[test]
    fn pool_inserts_and_deduplicates_by_counter() {
        let mut pool = DatablockPool::new();
        let a = datablock(1, 1, 1);
        let digest = pool.insert(a.clone()).unwrap();
        assert!(pool.contains(&digest));
        assert_eq!(pool.get(&digest).unwrap().id, a.id);
        assert_eq!(pool.len(), 1);

        // Same producer, same counter, different contents: rejected.
        let forged = datablock(1, 1, 999);
        assert!(pool.insert(forged).is_none());
        assert_eq!(pool.len(), 1);

        // Same producer, new counter: accepted.
        assert!(pool.insert(datablock(1, 2, 2)).is_some());
        // Different producer, same counter: accepted.
        assert!(pool.insert(datablock(2, 1, 3)).is_some());
        assert_eq!(pool.len(), 3);
    }

    #[test]
    fn pruning_removes_blocks_but_keeps_counter_history() {
        let mut pool = DatablockPool::new();
        let a = datablock(1, 1, 1);
        let digest = pool.insert(a).unwrap();
        pool.prune([digest]);
        assert!(!pool.contains(&digest));
        assert!(pool.is_empty());
        // Counter 1 from producer 1 can still not be reused.
        assert!(pool.insert(datablock(1, 1, 42)).is_none());
    }

    #[test]
    fn ready_tracker_requires_quorum_and_is_idempotent() {
        let mut tracker = ReadyTracker::new();
        let digest = datablock(1, 1, 1).digest();
        assert!(!tracker.record_ack(digest, NodeId(0), 3));
        assert!(!tracker.record_ack(digest, NodeId(0), 3)); // duplicate ack
        assert!(!tracker.record_ack(digest, NodeId(1), 3));
        assert!(tracker.record_ack(digest, NodeId(2), 3));
        // Further acks do not re-queue it.
        assert!(!tracker.record_ack(digest, NodeId(3), 3));
        assert_eq!(tracker.ready_count(), 1);
    }

    #[test]
    fn take_ready_links_and_requeue_restores() {
        let mut tracker = ReadyTracker::new();
        let d1 = datablock(1, 1, 1).digest();
        let d2 = datablock(2, 1, 2).digest();
        for node in 0..3u32 {
            tracker.record_ack(d1, NodeId(node), 3);
            tracker.record_ack(d2, NodeId(node), 3);
        }
        assert_eq!(tracker.ready_count(), 2);
        let linked = tracker.take_ready(1);
        assert_eq!(linked, vec![d1]);
        assert_eq!(tracker.ready_count(), 1);
        // Once linked, more acks do not bring it back.
        assert!(!tracker.record_ack(d1, NodeId(3), 3));
        // But an explicit requeue does.
        tracker.requeue([d1]);
        assert_eq!(tracker.ready_count(), 2);
        assert_eq!(tracker.take_ready(10), vec![d1, d2]);
    }

    #[test]
    fn prune_clears_all_tracker_state() {
        let mut tracker = ReadyTracker::new();
        let d1 = datablock(1, 1, 1).digest();
        for node in 0..3u32 {
            tracker.record_ack(d1, NodeId(node), 3);
        }
        tracker.prune([d1]);
        assert_eq!(tracker.ready_count(), 0);
        // The acks went with it: a fresh quorum is needed to queue it again.
        assert!(!tracker.record_ack(d1, NodeId(0), 3));
        assert!(!tracker.record_ack(d1, NodeId(1), 3));
        assert!(tracker.record_ack(d1, NodeId(2), 3));
    }
}
