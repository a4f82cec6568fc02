//! The datablock pool (`datablockPool` in the paper) plus the leader's ready
//! bookkeeping (`readyblockPool`).

use leopard_crypto::Digest;
use leopard_types::{Datablock, DatablockId, FastMap, FastSet, NodeId};
use std::collections::VecDeque;
use std::sync::Arc;

/// Storage of received datablocks, indexed by digest, with per-producer counter
/// de-duplication: a producer may use each counter value only once. That is
/// uniqueness only, not a rate limit; Algorithm 1's counter bounds nothing yet (see
/// ROADMAP item 6(a)).
///
/// The counters seen are kept exactly, as a per-producer watermark plus the few that
/// arrived above it (DESIGN.md §5.7): an in-order producer costs one 8-byte slot, not a
/// hash set of its own.
#[derive(Debug)]
pub struct DatablockPool {
    by_digest: FastMap<Digest, Arc<Datablock>>,
    /// The number of replicas, `n`: producers `0..n` have a watermark slot.
    producers: usize,
    /// `watermarks[p] = w`: every counter `1..=w` of producer `p` has been seen. Empty
    /// until the first datablock of a producer below `n`, then `n` slots long.
    watermarks: Vec<u64>,
    /// Counters seen that their producer's watermark does not cover: above it, or 0,
    /// and every counter of a producer at or above `n`. Only a recovered datablock can
    /// name such a producer (a Byzantine proposer can link a crafted one), and that
    /// wire value must not size the watermark vector.
    above_watermark: FastSet<DatablockId>,
}

impl DatablockPool {
    /// Creates an empty pool for a system of `n` replicas; allocates nothing.
    pub fn new(n: usize) -> Self {
        Self {
            by_digest: FastMap::default(),
            producers: n,
            watermarks: Vec::new(),
            above_watermark: FastSet::default(),
        }
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
        if !self.mark_seen(datablock.id) {
            return None;
        }
        let digest = datablock.digest();
        self.by_digest.insert(digest, datablock);
        Some(digest)
    }

    /// Records `id` as seen; false if it had been seen before.
    fn mark_seen(&mut self, id: DatablockId) -> bool {
        let DatablockId { producer, counter } = id;
        let slot = producer.0 as usize;
        if slot >= self.producers {
            return self.above_watermark.insert(id);
        }
        let watermark = self.watermarks.get(slot).copied().unwrap_or(0);
        if (1..=watermark).contains(&counter) {
            return false;
        }
        if watermark.checked_add(1) != Some(counter) {
            return self.above_watermark.insert(id);
        }
        // The next counter in line: the watermark absorbs it, then every counter that
        // arrived early and now follows on.
        let mut watermark = counter;
        while let Some(next) = watermark.checked_add(1) {
            if !self
                .above_watermark
                .remove(&DatablockId::new(producer, next))
            {
                break;
            }
            watermark = next;
        }
        if self.watermarks.is_empty() {
            self.watermarks = vec![0; self.producers];
        }
        self.watermarks[slot] = watermark;
        true
    }

    /// Looks up a datablock by digest.
    pub fn get(&self, digest: &Digest) -> Option<&Arc<Datablock>> {
        self.by_digest.get(digest)
    }

    /// True if the pool holds a datablock with this digest.
    pub fn contains(&self, digest: &Digest) -> bool {
        self.by_digest.contains_key(digest)
    }

    /// Every stored datablock, in no particular order.
    #[cfg(test)]
    pub(crate) fn datablocks(&self) -> impl Iterator<Item = &Arc<Datablock>> + '_ {
        self.by_digest.values()
    }

    /// Removes datablocks whose digests appear in `digests` (garbage collection after a
    /// checkpoint). The counters seen are retained so counters can never be reused.
    pub fn prune(&mut self, digests: impl IntoIterator<Item = Digest>) {
        for digest in digests {
            self.by_digest.remove(&digest);
        }
    }
}

/// The leader's ready bookkeeping: where each acknowledged datablock stands, and the
/// FIFO queue of datablocks that reached the `2f+1` threshold but have not been linked
/// by a BFTblock yet.
#[derive(Debug, Default)]
pub struct ReadyTracker {
    state: FastMap<Digest, Ready>,
    ready_queue: VecDeque<Digest>,
}

/// Where one datablock stands at the proposer that links it.
#[derive(Debug)]
enum Ready {
    /// Below the quorum: the replicas that acknowledged it so far.
    Acking(FastSet<NodeId>),
    /// In the ready queue.
    Queued,
    /// Linked by a proposed BFTblock.
    Linked,
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
        let acking = Ready::Acking(FastSet::default());
        let state = self.state.entry(digest).or_insert(acking);
        let Ready::Acking(acks) = state else {
            return false;
        };
        if !acks.insert(from) || acks.len() < quorum {
            return false;
        }
        *state = Ready::Queued;
        self.ready_queue.push_back(digest);
        true
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
            self.state.insert(*digest, Ready::Linked);
        }
        digests
    }

    /// Returns previously linked digests to the front of the queue (used when a proposal
    /// is abandoned by a view-change before being confirmed).
    pub fn requeue(&mut self, digests: impl IntoIterator<Item = Digest>) {
        for digest in digests {
            if let Some(state @ Ready::Linked) = self.state.get_mut(&digest) {
                *state = Ready::Queued;
                self.ready_queue.push_front(digest);
            }
        }
    }

    /// Drops bookkeeping for the given digests (after checkpointing).
    pub fn prune(&mut self, digests: impl IntoIterator<Item = Digest>) {
        let mut queued = false;
        for digest in digests {
            queued |= matches!(self.state.remove(&digest), Some(Ready::Queued));
        }
        // One queue sweep for the whole batch instead of one per digest (checkpoint GC
        // hands over every executed link at once). Every digest in the queue is
        // `Queued`, so the pruned ones are those whose state is gone.
        if queued {
            self.ready_queue
                .retain(|digest| self.state.contains_key(digest));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leopard_types::{ClientId, Request};
    use proptest::prelude::*;

    fn datablock(producer: u32, counter: u64, seed: u64) -> Arc<Datablock> {
        Arc::new(Datablock::new(
            NodeId(producer),
            counter,
            vec![Request::new_synthetic(ClientId(producer), seed, 64)],
        ))
    }

    #[test]
    fn pool_inserts_and_deduplicates_by_counter() {
        let mut pool = DatablockPool::new(4);
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
        let mut pool = DatablockPool::new(4);
        let a = datablock(1, 1, 1);
        let digest = pool.insert(a).unwrap();
        pool.prune([digest]);
        assert!(!pool.contains(&digest));
        assert!(pool.is_empty());
        // Counter 1 from producer 1 can still not be reused.
        assert!(pool.insert(datablock(1, 1, 42)).is_none());
    }

    #[test]
    fn in_order_producers_leave_nothing_above_the_watermark() {
        let mut pool = DatablockPool::new(4);
        for counter in 1..=50 {
            for producer in 0..4 {
                assert!(pool.insert(datablock(producer, counter, counter)).is_some());
            }
        }
        assert!(pool.above_watermark.is_empty());
        assert_eq!(pool.watermarks, [50; 4]);
    }

    #[test]
    fn early_counters_are_absorbed_once_the_gap_closes() {
        let mut pool = DatablockPool::new(4);
        for counter in [3, 4, 2] {
            assert!(pool.insert(datablock(1, counter, counter)).is_some());
        }
        assert_eq!(pool.above_watermark.len(), 3);
        assert!(pool.insert(datablock(1, 1, 1)).is_some());
        assert!(pool.above_watermark.is_empty());
        assert_eq!(pool.watermarks[1], 4);
        for counter in 1..=4 {
            assert!(pool.insert(datablock(1, counter, 99)).is_none());
        }
    }

    #[test]
    fn the_watermark_stops_at_the_last_counter() {
        let mut pool = DatablockPool::new(4);
        // Reaching u64::MAX - 2 in order takes 2^64 datablocks; start the watermark there.
        pool.watermarks = vec![0, u64::MAX - 2, 0, 0];
        assert!(pool.insert(datablock(1, u64::MAX, 1)).is_some());
        assert!(pool.insert(datablock(1, u64::MAX - 1, 2)).is_some());
        assert_eq!(pool.watermarks[1], u64::MAX);
        assert!(pool.above_watermark.is_empty());
        assert!(pool.insert(datablock(1, u64::MAX, 3)).is_none());
        assert!(pool.insert(datablock(1, 7, 4)).is_none());
        // Counter 0 lies below every watermark's range: seen once, like any other.
        assert!(pool.insert(datablock(1, 0, 5)).is_some());
        assert!(pool.insert(datablock(1, 0, 6)).is_none());
    }

    #[test]
    fn producers_beyond_n_never_size_the_watermarks() {
        let n = 4;
        let mut pool = DatablockPool::new(n);
        assert_eq!(pool.watermarks.capacity(), 0, "construction allocated");
        for producer in [n as u32 + 5, u32::MAX] {
            assert!(pool.insert(datablock(producer, 1, 1)).is_some());
            assert!(pool.insert(datablock(producer, 1, 2)).is_none());
            assert!(pool.insert(datablock(producer, 2, 3)).is_some());
            assert!(pool.insert(datablock(producer, 2, 4)).is_none());
        }
        assert!(pool.watermarks.len() <= n, "{} watermarks", pool.watermarks.len());
        assert_eq!(pool.above_watermark.len(), 4);
        // A producer below n takes the dense path: n slots, allocated once.
        assert!(pool.insert(datablock(3, 1, 5)).is_some());
        assert_eq!(pool.watermarks, [0, 0, 0, 1]);
    }

    /// The counter-uniqueness rule as a plain set per producer: what the watermark
    /// must decide, insert for insert.
    #[derive(Default)]
    struct SetPerProducer(FastMap<NodeId, FastSet<u64>>);

    impl SetPerProducer {
        fn insert(&mut self, producer: NodeId, counter: u64) -> bool {
            self.0.entry(producer).or_default().insert(counter)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn watermark_accepts_exactly_what_a_set_per_producer_accepts(
            ops in proptest::collection::vec((0u8..10, 0usize..5, 0u64..12), 0..300),
        ) {
            // n = 8: the first three producers have a watermark, the last two do not.
            let producers = [0, 1, 7, 1 << 20, u32::MAX];
            let edges = [0, 1 << 63, u64::MAX - 1, u64::MAX];
            let mut next = [1u64; 5];
            let mut pool = DatablockPool::new(8);
            let mut model = SetPerProducer::default();
            let mut accepted = Vec::new();
            for (step, &(kind, p, c)) in ops.iter().enumerate() {
                let counter = match kind {
                    // In order, the common case.
                    0..=3 => {
                        next[p] += 1;
                        next[p] - 1
                    }
                    // Reordered, duplicated or 0.
                    4..=6 => c,
                    // Ahead of the producer's next counter: arrives early.
                    7 => next[p] + c,
                    8 => edges[c as usize % edges.len()],
                    _ => {
                        pool.prune(accepted.drain(..));
                        continue;
                    }
                };
                let producer = NodeId(producers[p]);
                let got = pool.insert(datablock(producer.0, counter, step as u64));
                prop_assert_eq!(
                    got.is_some(),
                    model.insert(producer, counter),
                    "step {} producer {} counter {}",
                    step,
                    producer.0,
                    counter
                );
                accepted.extend(got);
            }
        }
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
