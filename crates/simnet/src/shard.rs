//! Sharded event queues with a deterministic merge.
//!
//! The single global `BinaryHeap` of the old engine made every push and pop pay
//! `O(log N)` sifts over the *whole* in-flight event population — at n ≥ 600 that is
//! hundreds of thousands of 48-byte entries being moved on every operation. This
//! module partitions events by **owning node** — the node whose state the event will
//! touch when it fires (`to` for arrivals and deliveries, the timer's node, the
//! started/restarted node) — into one small per-shard heap each, and merges the shard
//! heads through a flat **winner tree** (tournament tree) that preserves the engine's
//! exact `(time, seq)` total order.
//!
//! # Merge order
//!
//! Every queued event carries the globally unique, monotonically increasing `seq`
//! assigned at push time, exactly as in the single-heap engine. Each shard's current
//! head key is packed into a `u128` (`time << 64 | seq`, empty = `u128::MAX`) and the
//! winner tree holds, per internal node, the shard index with the smaller key of its
//! subtree; `tree[1]` is the shard owning the globally minimal event — the same event
//! the single heap would pop, because `(time, seq)` keys are unique. Updating one
//! shard's head replays only its leaf-to-root path: `log2(shards)` integer compares
//! on a flat 8 KB array, with none of the sift-down element movement or stale-entry
//! bookkeeping a candidate heap would need.

use crate::sim::{EventKind, QueuedEvent};
use crate::time::SimTime;
use leopard_types::NodeId;
use std::collections::VecDeque;

/// The `(time, seq)` key that totally orders events; `seq` is globally unique.
pub(crate) type EventKey = (SimTime, u64);

/// Packs an event key into a single integer preserving `(time, seq)` order.
#[inline]
fn pack(at: SimTime, seq: u64) -> u128 {
    (u128::from(at.as_nanos()) << 64) | u128::from(seq)
}

/// Unpacks a [`pack`]ed key.
#[inline]
fn unpack(key: u128) -> EventKey {
    (SimTime((key >> 64) as u64), key as u64)
}

/// The packed key of an empty shard; no real event reaches it (`seq` would have to
/// be `u64::MAX` at time `u64::MAX`).
const EMPTY: u128 = u128::MAX;

/// A 4-ary min-heap with the comparison keys split from the event payloads.
///
/// Three layout decisions, all for the cache: a node's four children share one
/// 64-byte line of the `keys` array, so a sift-down touches one line per level and
/// half as many levels as a binary heap; the 16-byte packed keys live apart from the
/// `EventKind` payloads, so the search path reads only `keys`; and both sifts find
/// the moving entry's final position by **walking the key array alone** before any
/// payload is touched — the key chain is then shifted with plain stores and the
/// payloads rotated along the same (already cache-hot) path. Combined with the
/// PR 10 fan-out compression (queue-resident `Arrive`/`Deliver` payloads shrank to a
/// `{fanout: u32, to}` handle into a side table — see `crate::fanout` — making
/// `EventKind` a 24-byte `Copy` value with no `Arc` refcounts and no drop glue), this
/// trims the remaining DRAM-bound payload traffic the PR 8 profile showed: at
/// n ≥ 1000 a shard heap holds several hundred in-flight arrivals and this sift walk
/// is the hottest data movement in the engine. (An arena/slab indirection that never
/// moves payloads at all was measured and rejected: with per-shard heaps this
/// shallow, the extra random-access load per pop costs more than the rotation it
/// saves.)
struct QuadHeap {
    keys: Vec<u128>,
    kinds: Vec<EventKind>,
}

impl QuadHeap {
    const fn new() -> Self {
        Self {
            keys: Vec::new(),
            kinds: Vec::new(),
        }
    }

    #[inline]
    fn peek_key(&self) -> Option<u128> {
        self.keys.first().copied()
    }

    fn push(&mut self, key: u128, kind: EventKind) {
        // Grow by 25% instead of Vec's doubling: a saturated large-n run keeps
        // thousands of shard heaps at their high-water mark, and the halved
        // overallocation is worth far more than the extra (amortized, memcpy-only)
        // reallocations it costs — see the RSS notes in DESIGN.md §10.
        if self.keys.len() == self.keys.capacity() {
            let grow = (self.keys.len() / 4).max(32);
            self.keys.reserve_exact(grow);
            self.kinds.reserve_exact(grow);
        }
        // Hole-based sift-up: append a hole, shift ancestors down into it, write the
        // new entry once at its final slot. `kinds` grows with a placeholder read
        // from the hole's final position, so no `unsafe` and no `Option` tax.
        self.keys.push(key);
        self.kinds.push(kind);
        let mut i = self.keys.len() - 1;
        let mut hole = i;
        while hole > 0 {
            let parent = (hole - 1) / 4;
            if self.keys[parent] <= key {
                break;
            }
            hole = parent;
        }
        if hole < i {
            // Rotate the displaced ancestors down in one pass: the path
            // root-ward from `i` to `hole` is exactly the ancestor chain.
            while i > hole {
                let parent = (i - 1) / 4;
                self.keys[i] = self.keys[parent];
                self.kinds.swap(i, parent);
                i = parent;
            }
            self.keys[hole] = key;
        }
    }

    fn pop(&mut self) -> Option<(u128, EventKind)> {
        let len = self.keys.len();
        if len == 0 {
            return None;
        }
        self.keys.swap(0, len - 1);
        self.kinds.swap(0, len - 1);
        let key = self.keys.pop().expect("nonempty");
        let kind = self.kinds.pop().expect("nonempty");
        let len = len - 1;
        if len > 0 {
            // Hole-based sift-down of the former tail: find its final position by
            // walking keys only, then shift the winning children up the path.
            let tail_key = self.keys[0];
            let mut path = [0usize; 32];
            let mut depth = 0;
            let mut i = 0;
            loop {
                let first = 4 * i + 1;
                if first >= len {
                    break;
                }
                let fence = (first + 4).min(len);
                let mut min = first;
                for child in first + 1..fence {
                    if self.keys[child] < self.keys[min] {
                        min = child;
                    }
                }
                if tail_key <= self.keys[min] {
                    break;
                }
                path[depth] = min;
                depth += 1;
                i = min;
            }
            let mut hole = 0;
            for &next in &path[..depth] {
                self.keys[hole] = self.keys[next];
                self.kinds.swap(hole, next);
                hole = next;
            }
            self.keys[hole] = tail_key;
        }
        Some((key, kind))
    }
}

/// One shard's event store: a [`QuadHeap`] for arbitrarily-ordered events plus a
/// FIFO for the **downlink delivery stream**, which needs no heap at all.
///
/// Every `Arrive` dispatch reserves the receiver's link FIFO
/// (`delivery = max(arrival, link_free) + tx`, then `link_free = delivery`)
/// and `Arrive` events of one shard fire in `(time, seq)` order — so the matured
/// `Deliver` events of a shard are *created* with nondecreasing `(time, seq)` keys.
/// Pushing them into the heap just to pop them in insertion order paid two key
/// sifts for nothing; they are ≈ 46% of all queued events in a saturated large-`n`
/// run. The FIFO stores them as split key/fanout streams (`to` is the shard
/// itself), and the shard's head is the smaller of the heap head and the FIFO
/// front. Self-deliveries (whose completion instants are *not* monotone — compute
/// lanes can reorder them) and everything else stay in the heap.
struct Shard {
    heap: QuadHeap,
    /// Packed `(time, seq)` keys of the deliver FIFO, nondecreasing.
    fifo_keys: VecDeque<u128>,
    /// The matching fan-out table handles (`crate::fanout`), in lockstep.
    fifo_fanouts: VecDeque<u32>,
    /// The owning node: the `to` of every FIFO delivery.
    node: u32,
}

impl Shard {
    fn new(node: u32) -> Self {
        Self {
            heap: QuadHeap::new(),
            fifo_keys: VecDeque::new(),
            fifo_fanouts: VecDeque::new(),
            node,
        }
    }

    /// The shard's minimal key over both stores.
    #[inline]
    fn peek_key(&self) -> Option<u128> {
        match (self.heap.peek_key(), self.fifo_keys.front().copied()) {
            (Some(heap), Some(fifo)) => Some(heap.min(fifo)),
            (Some(heap), None) => Some(heap),
            (None, Some(fifo)) => Some(fifo),
            (None, None) => None,
        }
    }

    /// Pops the shard's minimal event. FIFO deliveries win ties by construction:
    /// keys are unique, so a tie cannot happen and the comparison is strict.
    #[inline]
    fn pop(&mut self) -> Option<(u128, EventKind)> {
        let take_fifo = match (self.heap.peek_key(), self.fifo_keys.front()) {
            (Some(heap), Some(&fifo)) => fifo < heap,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (None, None) => return None,
        };
        if take_fifo {
            let key = self.fifo_keys.pop_front().expect("peeked front");
            let fanout = self.fifo_fanouts.pop_front().expect("lockstep");
            Some((
                key,
                EventKind::Deliver {
                    fanout,
                    to: NodeId(self.node),
                },
            ))
        } else {
            self.heap.pop()
        }
    }

    #[inline]
    fn push(&mut self, key: u128, kind: EventKind) {
        self.heap.push(key, kind);
    }

    /// Appends a matured downlink delivery; keys must arrive nondecreasing.
    #[inline]
    fn push_deliver(&mut self, key: u128, fanout: u32) {
        if self.fifo_keys.len() == self.fifo_keys.capacity() {
            let grow = (self.fifo_keys.len() / 4).max(32);
            self.fifo_keys.reserve_exact(grow);
            self.fifo_fanouts.reserve_exact(grow);
        }
        debug_assert!(
            self.fifo_keys.back().map_or(true, |&back| back <= key),
            "downlink deliveries of a shard must be created in (time, seq) order"
        );
        self.fifo_keys.push_back(key);
        self.fifo_fanouts.push_back(fanout);
    }
}

/// A set of per-shard event stores merged through a flat winner tree.
pub(crate) struct ShardedQueue {
    /// One store per owning node.
    shards: Vec<Shard>,
    /// Per-shard packed head key (`EMPTY` when the shard has no events).
    keys: Vec<u128>,
    /// Winner tree over `keys`: `tree[j]` for `1 ≤ j < leaves` is the shard index
    /// with the smaller key among the leaves of `j`'s subtree; leaf `i` sits at
    /// `tree[leaves + i]`. `tree[1]` is the overall winner.
    tree: Vec<u32>,
    /// Number of leaves (shard count rounded up to a power of two).
    leaves: usize,
    len: usize,
}

impl ShardedQueue {
    /// Creates a queue with one shard per node (at least one).
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        let leaves = shards.next_power_of_two();
        let mut tree = vec![u32::MAX; 2 * leaves];
        for (i, slot) in tree[leaves..].iter_mut().enumerate() {
            // Leaves beyond the shard count keep index `shards - 1`: a valid index
            // whose key is EMPTY forever, so it never wins a comparison that matters.
            *slot = (i.min(shards - 1)) as u32;
        }
        for j in (1..leaves).rev() {
            tree[j] = tree[2 * j]; // all keys start EMPTY; either child works
        }
        Self {
            shards: (0..shards).map(|i| Shard::new(i as u32)).collect(),
            keys: vec![EMPTY; shards],
            tree,
            leaves,
            len: 0,
        }
    }

    /// Number of queued events across all shards.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Rewrites shard `i`'s leaf with `key` and replays its path to the root:
    /// `log2(leaves)` compares, no element movement.
    #[inline]
    fn update_leaf(&mut self, i: u32, key: u128) {
        self.keys[i as usize] = key;
        let mut node = self.leaves + i as usize;
        while node > 1 {
            node /= 2;
            let left = self.tree[2 * node];
            let right = self.tree[2 * node + 1];
            self.tree[node] = if self.keys[left as usize] <= self.keys[right as usize] {
                left
            } else {
                right
            };
        }
    }

    /// Pushes an event onto `shard`, updating the merge tree if it becomes the
    /// shard's new head.
    pub fn push(&mut self, shard: u32, event: QueuedEvent) {
        let key = pack(event.at, event.seq);
        self.shards[shard as usize].push(key, event.kind);
        self.len += 1;
        if key < self.keys[shard as usize] {
            self.update_leaf(shard, key);
        }
    }

    /// Pushes a matured downlink delivery onto `shard`'s deliver FIFO (see
    /// [`Shard`]): O(1), no sifts. The caller (the `Arrive` dispatch) guarantees the
    /// per-shard keys arrive nondecreasing.
    pub fn push_deliver(&mut self, shard: u32, at: SimTime, seq: u64, fanout: u32) {
        let key = pack(at, seq);
        self.shards[shard as usize].push_deliver(key, fanout);
        self.len += 1;
        if key < self.keys[shard as usize] {
            self.update_leaf(shard, key);
        }
    }

    /// The `(time, seq)` key of the globally minimal event, if any.
    pub fn peek_key(&self) -> Option<EventKey> {
        let winner = self.tree[1];
        let key = self.keys[winner as usize];
        if key == EMPTY {
            return None;
        }
        Some(unpack(key))
    }

    /// Pops the globally minimal event (for tests; the engine uses
    /// [`Self::pop_min`]).
    #[cfg(test)]
    pub fn pop(&mut self) -> Option<QueuedEvent> {
        self.pop_min(SimTime(u64::MAX))
    }

    /// Pops the globally minimal event if its time is at or below `deadline`: one
    /// shard pop plus a single leaf-to-root replay.
    ///
    /// A conservative-lookahead *run* API (`begin_run`/`pop_run`/`end_run`) used to
    /// sit here so the engine could drain a shard without consulting the
    /// merge tree. Measured run lengths at the fig9xl scales are 1.1–1.3 events —
    /// saturated shards interleave at nearly identical instants, so a run died on
    /// the cross-shard bound almost immediately and every event paid *two* leaf
    /// repairs (park + restore) plus a failed continuation probe. The classic merge
    /// pop dispatches the exact same `(time, seq)` sequence for one repair and no
    /// bookkeeping.
    pub fn pop_min(&mut self, deadline: SimTime) -> Option<QueuedEvent> {
        let shard = self.tree[1];
        let key = self.keys[shard as usize];
        if key == EMPTY || (key >> 64) as u64 > deadline.as_nanos() {
            return None;
        }
        let (key, kind) = self.shards[shard as usize].pop().expect("winner has a head");
        self.len -= 1;
        let head = self.shards[shard as usize].peek_key().unwrap_or(EMPTY);
        self.update_leaf(shard, head);
        let (at, seq) = unpack(key);
        Some(QueuedEvent { at, seq, kind })
    }

    /// Visits every queued event's kind — heap entries and deliver-FIFO entries
    /// alike, the latter materialised exactly as [`Shard::pop`] would — in no
    /// particular order. This is the read side of the fan-out reference audit
    /// (`Simulation::into_report`): the audit tallies the queued handles per slot
    /// and compares the tally against the side table's refcounts.
    pub fn for_each_kind(&self, mut f: impl FnMut(&EventKind)) {
        for shard in &self.shards {
            for kind in &shard.heap.kinds {
                f(kind);
            }
            for &fanout in &shard.fifo_fanouts {
                f(&EventKind::Deliver {
                    fanout,
                    to: NodeId(shard.node),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::test_event as queued;

    /// Classic pops drain an arbitrary interleaving in exact `(time, seq)` order.
    #[test]
    fn pops_follow_global_time_seq_order() {
        for shards in [1usize, 3, 4, 7] {
            let mut queue = ShardedQueue::new(shards);
            // A deterministic scramble: times descend, wrap, collide; seqs are unique.
            let mut entries: Vec<(u32, u64, u64)> = Vec::new(); // (shard, time, seq)
            let mut state = 0x9E3779B97F4A7C15u64;
            for seq in 1..=200u64 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let shard = (state >> 33) as u32 % shards as u32;
                let time = (state >> 7) % 17; // plenty of same-time collisions
                entries.push((shard, time, seq));
            }
            for &(shard, time, seq) in &entries {
                queue.push(shard, queued(SimTime(time), seq));
            }
            let mut keys = Vec::new();
            while let Some(event) = queue.pop() {
                keys.push((event.at, event.seq));
            }
            let mut expected: Vec<EventKey> =
                entries.iter().map(|&(_, time, seq)| (SimTime(time), seq)).collect();
            expected.sort_unstable();
            assert_eq!(keys, expected);
            assert_eq!(queue.len(), 0);
        }
    }

    /// `pop_min` honours the deadline and repairs the winner's leaf on every pop.
    #[test]
    fn pop_min_respects_the_deadline() {
        let mut queue = ShardedQueue::new(2);
        queue.push(0, queued(SimTime(10), 1));
        queue.push(0, queued(SimTime(30), 2));
        queue.push(1, queued(SimTime(25), 3));

        let first = queue.pop_min(SimTime(25)).unwrap();
        assert_eq!((first.at, first.seq), (SimTime(10), 1));
        let second = queue.pop_min(SimTime(25)).unwrap();
        assert_eq!((second.at, second.seq), (SimTime(25), 3));
        assert!(queue.pop_min(SimTime(25)).is_none(), "t = 30 is past the deadline");
        assert_eq!(queue.peek_key(), Some((SimTime(30), 2)));
        let tail = queue.pop_min(SimTime(u64::MAX)).unwrap();
        assert_eq!((tail.at, tail.seq), (SimTime(30), 2));
        assert_eq!(queue.len(), 0);
    }

    /// Zero-delay follow-ups pushed between pops are seen immediately: the push
    /// updates the leaf, so the very next `pop_min` returns them in `(time, seq)`
    /// order.
    #[test]
    fn pushes_between_pops_are_merged_immediately() {
        let mut queue = ShardedQueue::new(2);
        queue.push(0, queued(SimTime(10), 1));
        queue.push(0, queued(SimTime(40), 2));
        queue.push(1, queued(SimTime(50), 3));

        let first = queue.pop_min(SimTime(u64::MAX)).unwrap();
        assert_eq!((first.at, first.seq), (SimTime(10), 1));
        // The event's callback schedules a follow-up at t = 15 on the same shard.
        queue.push(0, queued(SimTime(15), 4));
        let order: Vec<u64> = std::iter::from_fn(|| queue.pop()).map(|e| e.seq).collect();
        assert_eq!(order, vec![4, 2, 3]);
        assert_eq!(queue.len(), 0);
    }
}
