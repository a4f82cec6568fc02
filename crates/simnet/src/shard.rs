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
//!
//! # Fan-out runs
//!
//! A multicast or broadcast routes its `n − 1` peer copies in one go, and their
//! `Arrive` events carry the same fan-out handle and wire size; only the receiver and
//! the `(time, seq)` key differ. Pushed one by one, each copy paid a shard-heap sift
//! and a leaf replay, and then sat among every other in-flight arrival of its
//! receiver until popped. Instead the engine stages the copies in route order
//! ([`ShardedQueue::stage_arrival`], which takes each copy's `seq` exactly where a
//! unicast push would) and [`ShardedQueue::push_run`] sorts them once and queues them
//! as one **run**: a 16-byte entry per copy in one buffer, in `(time, seq)` order. The
//! queue's second source beside the winner tree is a small heap of run heads, keyed
//! by each run's next key; [`ShardedQueue::pop_min`] takes the smaller of the tree
//! root and that heap's top. Keys are unique, so the dispatch order is the
//! single-heap `(time, seq)` order to the last event. A drained run's buffer is kept
//! and becomes the next run's staging buffer, so a steady-state fan-out allocates
//! nothing.
//!
//! # Timer lanes
//!
//! A timer a callback arms at `now` with delay `d` is due at `now + d`, and `now`
//! never decreases, so the timers armed with one delay — the periodic ticks every
//! replica re-arms — reach the queue already sorted. [`ShardedQueue::push_timer`]
//! appends such a timer to its delay's **lane**, a FIFO of packed keys and kinds, when
//! its key is larger than the lane's last one; a timer that would break the lane's
//! order (a compute lane finished its callback late), or whose delay finds no lane free
//! among the [`LANES`], waits in its shard heap instead. A non-empty lane sits in the
//! run-head heap beside the runs, its slot id tagged with [`LANE`], so a lane pop is
//! one step along the FIFO and one `replace_top_key`, with no shard sift and no leaf
//! replay. A lane that drains frees itself for another delay. Every lane is sorted and
//! keys are unique, so the dispatch order is still the single-heap order.

use crate::sim::{EventKind, QueuedEvent};
use crate::time::{SimDuration, SimTime};
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

/// The most timer delays that hold a lane at once. A steady-state run arms two to
/// four delays; the rest (one-shot start staggers, rare timeouts) use the shard heaps.
const LANES: usize = 8;

/// Tags a run-head payload as a timer lane's index rather than a run slot.
const LANE: u32 = 1 << 31;

/// A 4-ary min-heap with the comparison keys split from the payloads: a shard's
/// `EventKind`s, or the run heap's run slots.
///
/// Three layout decisions, all for the cache: a node's four children share one
/// 64-byte line of the `keys` array, so a sift-down touches one line per level and
/// half as many levels as a binary heap; the 16-byte packed keys live apart from the
/// payloads, so the comparisons read only `keys`; and both sifts are hole-based — each
/// level moves one key and one payload into the hole, and the moving entry is written
/// once, at its final slot. Combined with the fan-out compression (queue-resident
/// `Arrive`/`Deliver` payloads are a `{fanout: u32, to}` handle into a side table —
/// see `crate::fanout` — making `EventKind` a 24-byte `Copy` value with no `Arc`
/// refcounts and no drop glue), this trims the DRAM-bound payload traffic of the
/// sifts (DESIGN.md §10). (An
/// arena/slab indirection that never moves payloads at all was measured and
/// rejected: with per-shard heaps this shallow, the extra random-access load per pop
/// costs more than the payload moves it saves.)
struct QuadHeap<T> {
    keys: Vec<u128>,
    payloads: Vec<T>,
}

impl<T: Copy> QuadHeap<T> {
    const fn new() -> Self {
        Self {
            keys: Vec::new(),
            payloads: Vec::new(),
        }
    }

    #[inline]
    fn peek_key(&self) -> Option<u128> {
        self.keys.first().copied()
    }

    #[inline]
    fn peek(&self) -> Option<(u128, T)> {
        Some((*self.keys.first()?, self.payloads[0]))
    }

    fn push(&mut self, key: u128, payload: T) {
        // Grow by 25% instead of Vec's doubling: a saturated large-n run keeps
        // thousands of shard heaps at their high-water mark, and the halved
        // overallocation is worth far more than the extra (amortized, memcpy-only)
        // reallocations it costs — see the RSS notes in DESIGN.md §10.
        if self.keys.len() == self.keys.capacity() {
            let grow = (self.keys.len() / 4).max(32);
            self.keys.reserve_exact(grow);
            self.payloads.reserve_exact(grow);
        }
        // Hole-based sift-up: append a hole, shift ancestors down into it, write the
        // new entry once at its final slot.
        self.keys.push(key);
        self.payloads.push(payload);
        let mut hole = self.keys.len() - 1;
        while hole > 0 {
            let parent = (hole - 1) / 4;
            if self.keys[parent] <= key {
                break;
            }
            self.keys[hole] = self.keys[parent];
            self.payloads[hole] = self.payloads[parent];
            hole = parent;
        }
        self.keys[hole] = key;
        self.payloads[hole] = payload;
    }

    fn pop(&mut self) -> Option<(u128, T)> {
        if self.keys.is_empty() {
            return None;
        }
        // The tail moves to the root and sifts down.
        let top = (self.keys.swap_remove(0), self.payloads.swap_remove(0));
        self.sift_down_root();
        Some(top)
    }

    /// Gives the root entry a new, larger key and restores the heap: one sift-down
    /// where a pop and a push would pay two sifts.
    fn replace_top_key(&mut self, key: u128) {
        self.keys[0] = key;
        self.sift_down_root();
    }

    /// Hole-based sift-down of the root entry: at each level the smallest of the four
    /// children (one cache line of `keys`) moves up into the hole, until the root
    /// entry's key is no larger; the entry is written once, at its final slot.
    fn sift_down_root(&mut self) {
        let len = self.keys.len();
        if len == 0 {
            return;
        }
        let (key, payload) = (self.keys[0], self.payloads[0]);
        let mut hole = 0;
        loop {
            let first = 4 * hole + 1;
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
            if key <= self.keys[min] {
                break;
            }
            self.keys[hole] = self.keys[min];
            self.payloads[hole] = self.payloads[min];
            hole = min;
        }
        self.keys[hole] = key;
        self.payloads[hole] = payload;
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
/// lanes can reorder them), unicast arrivals, start events and the timers no lane
/// takes stay in the heap; fan-out arrivals wait in runs (see [`Run`]) and most timers
/// in lanes (see [`Lane`]), outside any shard.
struct Shard {
    heap: QuadHeap<EventKind>,
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

/// One fan-out's queued `Arrive`s, sorted: `entries[next..]` are the copies not yet
/// popped. Every copy shares the fan-out handle and the wire size, and the copies
/// took consecutive `seq`s in route order, so an entry needs only its arrival time,
/// its route index (`seq − first_seq`) and its receiver: `arrival << 64 | index << 32
/// | to`, 16 bytes, whose integer order is the copies' `(time, seq)` order.
#[derive(Default)]
struct Run {
    entries: Vec<u128>,
    next: usize,
    first_seq: u64,
    fanout: u32,
    size: u32,
}

impl Run {
    /// The packed `(time, seq)` key of entry `i`.
    #[inline]
    fn key(&self, i: usize) -> u128 {
        let entry = self.entries[i];
        let seq = self.first_seq + u64::from((entry >> 32) as u32);
        (entry >> 64 << 64) | u128::from(seq)
    }

    /// Entry `i` as the event it stands for.
    #[inline]
    fn kind(&self, i: usize) -> EventKind {
        EventKind::Arrive {
            fanout: self.fanout,
            to: NodeId(self.entries[i] as u32),
            size: self.size,
        }
    }

    /// Takes the next entry; returns it with the run's new head key, or `None` for
    /// the key once the run has drained (its buffer is cleared, its capacity kept).
    #[inline]
    fn pop(&mut self) -> (EventKind, Option<u128>) {
        let kind = self.kind(self.next);
        self.next += 1;
        if self.next < self.entries.len() {
            (kind, Some(self.key(self.next)))
        } else {
            self.entries.clear();
            self.next = 0;
            (kind, None)
        }
    }
}

/// The timers armed with one delay, in `(time, seq)` order: a FIFO of packed keys and
/// the matching `Timer` kinds. An empty lane is free; its `delay` is stale until the
/// next timer starts it.
#[derive(Default)]
struct Lane {
    delay: u64,
    keys: VecDeque<u128>,
    kinds: VecDeque<EventKind>,
}

impl Lane {
    /// Appends a timer; keys must arrive increasing (`push_timer` checks it).
    #[inline]
    fn push(&mut self, key: u128, kind: EventKind) {
        debug_assert!(
            self.keys.back().is_none_or(|&back| back <= key),
            "a timer lane's keys must be nondecreasing"
        );
        self.keys.push_back(key);
        self.kinds.push_back(kind);
    }

    /// Takes the front timer; returns it with the lane's new head key, or `None` for
    /// the key once the lane has drained.
    #[inline]
    fn pop(&mut self) -> (EventKind, Option<u128>) {
        self.keys.pop_front();
        let kind = self.kinds.pop_front().expect("lockstep");
        (kind, self.keys.front().copied())
    }
}

/// A set of per-shard event stores merged through a flat winner tree, plus the
/// fan-out runs and timer lanes merged through a heap of run heads (see the module
/// docs).
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
    /// Run slots; a drained slot keeps its (cleared) buffer for reuse.
    runs: Vec<Run>,
    /// The live run slots and, tagged with [`LANE`], the non-empty timer lanes, keyed
    /// by each one's next key.
    run_heads: QuadHeap<u32>,
    /// The timer lanes, one delay each while non-empty.
    lanes: [Lane; LANES],
    /// Drained run slots.
    free_runs: Vec<u32>,
    /// The copies staged by [`Self::stage_arrival`] for the next [`Self::push_run`],
    /// packed as in [`Run`]; a recycled buffer after each run is queued.
    staged: Vec<u128>,
    /// The `seq` of the first staged copy.
    staged_first_seq: u64,
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
            runs: Vec::new(),
            run_heads: QuadHeap::new(),
            lanes: Default::default(),
            free_runs: Vec::new(),
            staged: Vec::new(),
            staged_first_seq: 0,
            len: 0,
        }
    }

    /// Number of queued events across all shards.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// The timers waiting in lanes (for the engine's tests).
    #[cfg(test)]
    pub(crate) fn lane_kinds(&self) -> impl Iterator<Item = &EventKind> {
        self.lanes.iter().flat_map(|lane| lane.kinds.iter())
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

    /// Queues a timer armed with `delay`: at the back of that delay's lane if its key
    /// is larger than the lane's last one, in a free lane if no lane has the delay,
    /// and otherwise on `shard`'s heap (see the module docs).
    pub fn push_timer(&mut self, shard: u32, delay: SimDuration, event: QueuedEvent) {
        let key = pack(event.at, event.seq);
        let delay = delay.as_nanos();
        let armed_alike = |lane: &Lane| !lane.keys.is_empty() && lane.delay == delay;
        let lane = match self.lanes.iter().position(armed_alike) {
            Some(i) if self.lanes[i].keys.back().is_some_and(|&last| last < key) => i,
            Some(_) => return self.push(shard, event),
            None => match self.lanes.iter().position(|lane| lane.keys.is_empty()) {
                Some(i) => {
                    self.lanes[i].delay = delay;
                    self.run_heads.push(key, LANE | i as u32);
                    i
                }
                None => return self.push(shard, event),
            },
        };
        self.lanes[lane].push(key, event.kind);
        self.len += 1;
    }

    /// Stages one fan-out copy's `Arrive` for the next [`Self::push_run`]. The
    /// copies of one fan-out are staged in route order with consecutive `seq`s.
    pub fn stage_arrival(&mut self, at: SimTime, seq: u64, to: NodeId) {
        if self.staged.is_empty() {
            self.staged_first_seq = seq;
        }
        let index = self.staged.len() as u64;
        debug_assert_eq!(seq, self.staged_first_seq + index, "staged seqs are consecutive");
        self.staged
            .push((u128::from(at.as_nanos()) << 64) | (u128::from(index) << 32) | u128::from(to.0));
    }

    /// Queues the staged copies as one run of `fanout`'s `Arrive`s (each `size`
    /// bytes): one sort and one run-head push for the whole fan-out. Returns the
    /// number of copies queued (zero if every copy was dropped).
    pub fn push_run(&mut self, fanout: u32, size: u32) -> u32 {
        let copies = self.staged.len();
        if copies == 0 {
            return 0;
        }
        self.staged.sort_unstable();
        let slot = self.free_runs.pop().unwrap_or_else(|| {
            self.runs.push(Run::default());
            (self.runs.len() - 1) as u32
        });
        let run = &mut self.runs[slot as usize];
        // The staged buffer becomes the run; the slot's drained buffer (empty, its
        // capacity kept) becomes the next staging buffer.
        std::mem::swap(&mut run.entries, &mut self.staged);
        run.next = 0;
        run.first_seq = self.staged_first_seq;
        run.fanout = fanout;
        run.size = size;
        self.run_heads.push(run.key(0), slot);
        self.len += copies;
        copies as u32
    }

    /// The `(time, seq)` key of the globally minimal event, if any: the smaller of
    /// the winner tree's root and the top run or lane head.
    pub fn peek_key(&self) -> Option<EventKey> {
        let tree = self.keys[self.tree[1] as usize];
        let key = self.run_heads.peek_key().map_or(tree, |run| run.min(tree));
        (key != EMPTY).then(|| unpack(key))
    }

    /// Pops the globally minimal event (for tests; the engine uses
    /// [`Self::pop_min`]).
    #[cfg(test)]
    pub fn pop(&mut self) -> Option<QueuedEvent> {
        self.pop_min(SimTime(u64::MAX))
    }

    /// Pops the globally minimal event if its time is at or below `deadline`: one
    /// shard pop plus a single leaf-to-root replay, or, when a run or lane head is
    /// smaller, one step along that run or lane plus one sift of the run-head heap.
    ///
    /// A conservative-lookahead API (`begin_run`/`pop_run`/`end_run`, unrelated to
    /// the fan-out runs) used to sit here so the engine could drain a shard without
    /// consulting the merge tree. Measured run lengths at the fig9xl scales are 1.1–1.3 events —
    /// saturated shards interleave at nearly identical instants, so a run died on
    /// the cross-shard bound almost immediately and every event paid *two* leaf
    /// repairs (park + restore) plus a failed continuation probe. The classic merge
    /// pop dispatches the exact same `(time, seq)` sequence for one repair and no
    /// bookkeeping.
    pub fn pop_min(&mut self, deadline: SimTime) -> Option<QueuedEvent> {
        let shard = self.tree[1];
        let tree_key = self.keys[shard as usize];
        let (key, kind) = match self.run_heads.peek() {
            Some((head_key, slot)) if head_key < tree_key => {
                if (head_key >> 64) as u64 > deadline.as_nanos() {
                    return None;
                }
                let (kind, next) = if slot & LANE != 0 {
                    self.lanes[(slot & !LANE) as usize].pop()
                } else {
                    self.runs[slot as usize].pop()
                };
                match next {
                    Some(next) => self.run_heads.replace_top_key(next),
                    None => {
                        self.run_heads.pop();
                        if slot & LANE == 0 {
                            self.free_runs.push(slot);
                        }
                    }
                }
                (head_key, kind)
            }
            _ => {
                if tree_key == EMPTY || (tree_key >> 64) as u64 > deadline.as_nanos() {
                    return None;
                }
                let popped = self.shards[shard as usize].pop().expect("winner has a head");
                let head = self.shards[shard as usize].peek_key().unwrap_or(EMPTY);
                self.update_leaf(shard, head);
                popped
            }
        };
        self.len -= 1;
        let (at, seq) = unpack(key);
        Some(QueuedEvent { at, seq, kind })
    }

    /// Visits every queued event's kind — heap entries, lane timers, deliver-FIFO
    /// entries and the copies each run has not yet popped, the last two materialised
    /// exactly as a pop would — in no particular order. This is the read side of the
    /// fan-out reference audit (`Simulation::into_report`): the audit tallies the
    /// queued handles per slot and compares the tally against the side table's
    /// refcounts.
    pub fn for_each_kind(&self, mut f: impl FnMut(&EventKind)) {
        for run in &self.runs {
            for i in run.next..run.entries.len() {
                f(&run.kind(i));
            }
        }
        for lane in &self.lanes {
            lane.kinds.iter().for_each(&mut f);
        }
        for shard in &self.shards {
            for kind in &shard.heap.payloads {
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

    /// The receiver or owner an event stands for, to check that a pop returns the
    /// event pushed under its key.
    fn owner(kind: &EventKind) -> u32 {
        match *kind {
            EventKind::Start(node) | EventKind::Restart(node) => node.0,
            EventKind::Arrive { to, .. } | EventKind::Deliver { to, .. } => to.0,
            EventKind::Timer { node, .. } => node.0,
        }
    }

    /// Pops every event at or before `deadline` and checks each against the
    /// reference heap's `(time, seq, owner)`; `now` follows the popped times.
    fn pop_until(
        queue: &mut ShardedQueue,
        reference: &mut std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64, u32)>>,
        deadline: u64,
        now: &mut u64,
    ) {
        while let Some(event) = queue.pop_min(SimTime(deadline)) {
            let std::cmp::Reverse(expected) = reference.pop().expect("the reference holds as many");
            assert_eq!((event.at.as_nanos(), event.seq, owner(&event.kind)), expected);
            *now = event.at.as_nanos();
        }
        assert!(
            reference.peek().map_or(true, |std::cmp::Reverse((at, _, _))| *at > deadline),
            "the queue stopped before the deadline"
        );
    }

    proptest::proptest! {
        /// Fan-out runs (jittered, so not monotone in route order), unicast pushes,
        /// deliver-FIFO pushes, timer pushes and pops against a deadline, interleaved at
        /// random, drain in exactly the order of a single `(time, seq)` binary heap, and
        /// every pop returns the receiver or node pushed under its key. The timers take
        /// twelve delays, more than there are lanes, and some arrive a little late, so
        /// they fill lanes, fall back to the heaps out of order or when no lane is free,
        /// and reuse lanes that drained.
        #[test]
        fn runs_heaps_and_fifos_drain_in_single_heap_order(
            ops in proptest::collection::vec((0u8..5, 0u64..64, 0u64..1 << 20, 0u32..5), 0..160),
        ) {
            use std::cmp::Reverse;
            use std::collections::BinaryHeap;
            const SHARDS: u32 = 5;
            let mut queue = ShardedQueue::new(SHARDS as usize);
            let mut reference = BinaryHeap::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            let mut last_deliver = [0u64; SHARDS as usize];
            for (op, a, b, shard) in ops {
                match op {
                    0 => {
                        // A fan-out of up to eight copies from one sender: departures
                        // climb, each copy's jitter does not.
                        let mut jitter = b;
                        for copy in 0..=a % 8 {
                            jitter = jitter.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                            let at = now + copy * 3 + (jitter >> 59);
                            let to = (shard + copy as u32) % SHARDS;
                            seq += 1;
                            queue.stage_arrival(SimTime(at), seq, NodeId(to));
                            reference.push(Reverse((at, seq, to)));
                        }
                        proptest::prop_assert_eq!(queue.push_run(7, 64), a as u32 % 8 + 1);
                    }
                    1 => {
                        seq += 1;
                        let at = now + a;
                        queue.push(shard, QueuedEvent { at: SimTime(at), seq, kind: EventKind::Start(NodeId(shard)) });
                        reference.push(Reverse((at, seq, shard)));
                    }
                    2 => {
                        // Deliveries of one shard are created in (time, seq) order.
                        seq += 1;
                        let at = last_deliver[shard as usize].max(now) + a % 4;
                        last_deliver[shard as usize] = at;
                        queue.push_deliver(shard, SimTime(at), seq, 9);
                        reference.push(Reverse((at, seq, shard)));
                    }
                    3 => {
                        // A timer armed now, its callback finishing up to 2 ns late.
                        seq += 1;
                        let delay = 10 + a % 12;
                        let at = now + b % 3 + delay;
                        queue.push_timer(shard, SimDuration(delay), timer(at, seq, shard));
                        reference.push(Reverse((at, seq, shard)));
                    }
                    _ => pop_until(&mut queue, &mut reference, now + a, &mut now),
                }
                proptest::prop_assert_eq!(queue.len(), reference.len());
                let expected = reference.peek().map(|Reverse((at, seq, _))| (SimTime(*at), *seq));
                proptest::prop_assert_eq!(queue.peek_key(), expected);
            }
            pop_until(&mut queue, &mut reference, u64::MAX, &mut now);
            proptest::prop_assert_eq!(queue.len(), 0);
            proptest::prop_assert!(reference.is_empty());
        }
    }

    /// A drained run's buffer is reused: the next fan-out is staged into it, so a
    /// steady stream of fan-outs keeps one run slot and allocates nothing new.
    #[test]
    fn a_drained_run_is_recycled() {
        let mut queue = ShardedQueue::new(4);
        for round in 0..3u64 {
            if round >= 2 {
                // Two buffers circulate: the stage and the drained slot swap on each
                // push, so from the third fan-out on the stage has room already.
                assert!(queue.staged.capacity() >= 3, "the stage reuses a drained buffer");
            }
            let base = round * 100;
            for (i, at) in [30u64, 10, 20].into_iter().enumerate() {
                queue.stage_arrival(SimTime(base + at), base + i as u64 + 1, NodeId(i as u32 + 1));
            }
            assert_eq!(queue.push_run(round as u32, 64), 3);
            let popped: Vec<(u64, u32)> = std::iter::from_fn(|| queue.pop())
                .map(|e| match e.kind {
                    EventKind::Arrive { fanout, to, size } => {
                        assert_eq!((fanout, size), (round as u32, 64));
                        (e.at.as_nanos() - base, to.0)
                    }
                    _ => panic!("a run holds only arrivals"),
                })
                .collect();
            assert_eq!(popped, vec![(10, 2), (20, 3), (30, 1)]);
            assert_eq!(queue.runs.len(), 1, "the drained slot is reused");
        }
        assert_eq!(queue.push_run(0, 64), 0, "an empty stage queues nothing");
        assert_eq!(queue.peek_key(), None);
    }

    fn timer(at: u64, seq: u64, node: u32) -> QueuedEvent {
        QueuedEvent {
            at: SimTime(at),
            seq,
            kind: EventKind::Timer { node: NodeId(node), token: seq, epoch: 0 },
        }
    }

    /// The timers on each lane, by delay, in lane order.
    fn lanes(queue: &ShardedQueue) -> Vec<(u64, Vec<u64>)> {
        let mut lanes: Vec<(u64, Vec<u64>)> = queue
            .lanes
            .iter()
            .filter(|lane| !lane.keys.is_empty())
            .map(|lane| (lane.delay, lane.keys.iter().map(|&key| unpack(key).1).collect()))
            .collect();
        lanes.sort_unstable();
        lanes
    }

    /// A lane takes the timers of its delay while their keys climb; a timer that
    /// would break the order, or whose delay finds every lane taken, waits in its
    /// shard heap; a drained lane serves the next delay.
    #[test]
    fn a_lane_holds_one_delay_in_order_and_frees_itself_when_drained() {
        let mut queue = ShardedQueue::new(4);
        queue.push_timer(0, SimDuration(10), timer(10, 1, 0));
        queue.push_timer(1, SimDuration(10), timer(12, 2, 1));
        queue.push_timer(2, SimDuration(10), timer(11, 3, 2)); // armed by a late callback
        for (i, delay) in (20..=100).step_by(10).enumerate() {
            queue.push_timer(3, SimDuration(delay), timer(delay, 4 + i as u64, 3));
        }
        let mut expected = vec![(10, vec![1, 2])];
        expected.extend((20..=80).step_by(10).zip(4..).map(|(delay, seq)| (delay, vec![seq])));
        assert_eq!(lanes(&queue), expected, "seqs 3, 11 and 12 wait in shard heaps");
        assert_eq!(queue.shards[2].heap.keys.len() + queue.shards[3].heap.keys.len(), 3);
        assert_eq!(queue.len(), 12);

        let order: Vec<u64> = std::iter::from_fn(|| queue.pop()).map(|e| e.seq).collect();
        assert_eq!(order, vec![1, 3, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12]);
        assert!(lanes(&queue).is_empty() && queue.run_heads.keys.is_empty());

        queue.push_timer(1, SimDuration(500), timer(600, 13, 1));
        queue.push_timer(2, SimDuration(500), timer(600, 14, 2));
        assert_eq!(lanes(&queue), vec![(500, vec![13, 14])], "a drained lane serves a new delay");
    }

    /// `for_each_kind` visits every queued event exactly once, wherever it waits: a
    /// shard heap, a deliver FIFO, a run or a lane, before and after partial drains.
    #[test]
    fn for_each_kind_visits_every_queued_event_once() {
        let mut queue = ShardedQueue::new(3);
        let mut seq = 0;
        let mut next = || {
            seq += 1;
            seq
        };
        for to in 0..3 {
            queue.stage_arrival(SimTime(5 + to as u64), next(), NodeId(to));
        }
        queue.push_run(0, 64);
        queue.push(1, queued(SimTime(3), next()));
        queue.push_deliver(2, SimTime(4), next(), 1);
        for node in 0..3 {
            queue.push_timer(node, SimDuration(2), timer(2 + u64::from(node), next(), node));
        }
        assert!(!queue.runs[0].entries.is_empty() && queue.lane_kinds().count() == 3);
        for _ in 0..=queue.len() {
            let mut visited = 0;
            queue.for_each_kind(|_| visited += 1);
            assert_eq!(visited, queue.len());
            queue.pop();
        }
    }
}
