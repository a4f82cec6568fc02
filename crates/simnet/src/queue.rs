//! The engine's event queue: one event heap beside a heap of sorted streams, merged
//! in exact `(time, seq)` order.
//!
//! # Merge order
//!
//! Every queued event carries the globally unique, monotonically increasing `seq`
//! assigned at push time, and its `(time, seq)` key is packed into a `u128`
//! (`time << 64 | seq`) whose integer order is the key order. An event waits in one of
//! two places:
//!
//! * the **event heap**, a [`QuadHeap`] of the events that reach the queue in no
//!   particular order: unicast `Arrive`s, self-deliveries, `Start`/`Restart` and the
//!   timers no lane takes;
//! * a **stream**, a buffer its events reach already sorted: a fan-out's run of
//!   `Arrive`s, a timer lane, or a node's Deliver FIFO. Each non-empty stream holds
//!   exactly one entry in the **run-head heap**, keyed by the stream's next key.
//!
//! [`EventQueue::pop_min`] takes the smaller of the two heap tops. Keys are unique, so
//! the dispatch order is the order one `(time, seq)` heap over every event would pop,
//! to the last event. A stream pop is one step along the stream plus one
//! `replace_top_key` of the run-head heap (or its pop, once the stream drains); only
//! the events the streams cannot take pay a sift in the event heap.
//!
//! # Fan-out runs
//!
//! A multicast or broadcast routes its `n − 1` peer copies in one go, and their
//! `Arrive` events carry the same fan-out handle and wire size; only the receiver and
//! the `(time, seq)` key differ. The engine stages the copies in route order
//! ([`EventQueue::stage_arrival`], which takes each copy's `seq` exactly where a
//! unicast push would) and [`EventQueue::push_run`] sorts them once and queues them
//! as one **run**: a 16-byte entry per copy in one buffer, in `(time, seq)` order. A
//! drained run's buffer is kept and becomes the next run's staging buffer, so a
//! steady-state fan-out allocates nothing.
//!
//! # Timer lanes
//!
//! A timer a callback arms at `now` with delay `d` is due at `now + d`, and `now`
//! never decreases, so the timers armed with one delay — the periodic ticks every
//! replica re-arms — reach the queue already sorted. [`EventQueue::push_timer`]
//! appends such a timer to a **lane** of its delay, a FIFO of packed keys and kinds:
//! the one whose last key is the largest below the timer's. A timer armed late (a
//! compute lane finished its callback after the clock) has a larger key than the
//! on-time ticks armed after it; it sits at one lane's tail, and the on-time ticks
//! start a second lane of that delay instead of falling back. A timer that no lane
//! of its delay can take and that finds no lane free among the [`LANES`] waits in the
//! event heap. A lane that drains frees itself for another delay.
//!
//! # Deliver FIFOs
//!
//! Every `Arrive` dispatch reserves the receiver's downlink (`delivery = max(arrival,
//! link_free) + tx`, then `link_free = delivery`), and `Arrive`s fire in `(time, seq)`
//! order, so the `Deliver`s of one receiver are created with increasing keys. Each
//! node keeps them in its own FIFO of packed keys and fan-out handles (the node is the
//! FIFO's index, so an entry is 20 bytes): an O(1) append, and a head push only when
//! the FIFO was empty. Self-deliveries, whose completion instants compute lanes can
//! reorder, go to the event heap.

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

/// The most timer lanes at once. A steady-state run arms two to four delays, a few
/// of them in a second lane behind a late timer; the rest (one-shot start staggers,
/// rare timeouts) use the event heap.
const LANES: usize = 8;

/// A run-head payload is a stream's index under a two-bit tag saying which kind of
/// stream it is: a run slot, a timer lane or a node's Deliver FIFO.
const RUN: u32 = 0;
/// Tags a run-head payload as a timer lane's index.
const LANE: u32 = 1 << 30;
/// Tags a run-head payload as a node's Deliver FIFO.
const FIFO: u32 = 2 << 30;
/// The tag bits of a run-head payload.
const TAG: u32 = 3 << 30;

/// A 4-ary min-heap with the comparison keys split from the payloads: the event
/// heap's `EventKind`s, or the run-head heap's tagged stream indices.
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
/// sifts (DESIGN.md §10).
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
    ///
    /// A node with four children picks the smallest without a branch: the smaller of
    /// each pair is a `bool`-indexed offset, the smaller of the two winners one select
    /// (`setb`/`adc`/`cmov` on x86-64). Keys are unique, so a tie never decides.
    fn sift_down_root(&mut self) {
        let len = self.keys.len();
        if len == 0 {
            return;
        }
        let (key, payload) = (self.keys[0], self.payloads[0]);
        let mut hole = 0;
        loop {
            let first = 4 * hole + 1;
            let min = if first + 4 <= len {
                let children = &self.keys[first..first + 4];
                let left = usize::from(children[1] < children[0]);
                let right = 2 + usize::from(children[3] < children[2]);
                first + if children[right] < children[left] { right } else { left }
            } else if first < len {
                (first + 1..len).fold(first, |min, child| {
                    if self.keys[child] < self.keys[min] {
                        child
                    } else {
                        min
                    }
                })
            } else {
                break;
            };
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

/// A stream of events that reach the queue in key order: increasing packed keys and
/// their payloads in lockstep — a timer lane's `Timer` kinds, or a node's `Deliver`
/// fan-out handles.
struct Fifo<T> {
    keys: VecDeque<u128>,
    items: VecDeque<T>,
}

impl<T> Default for Fifo<T> {
    fn default() -> Self {
        Self {
            keys: VecDeque::new(),
            items: VecDeque::new(),
        }
    }
}

impl<T> Fifo<T> {
    /// Appends an event; its key must be larger than every key queued before it.
    #[inline]
    fn push(&mut self, key: u128, item: T) {
        debug_assert!(
            self.keys.back().is_none_or(|&back| back < key),
            "a FIFO's keys must increase"
        );
        self.keys.push_back(key);
        self.items.push_back(item);
    }

    /// Takes the front event; returns it with the FIFO's new head key, or `None` for
    /// the key once the FIFO has drained.
    #[inline]
    fn pop(&mut self) -> (T, Option<u128>) {
        self.keys.pop_front();
        let item = self.items.pop_front().expect("lockstep");
        (item, self.keys.front().copied())
    }
}

/// Timers armed with one delay, in `(time, seq)` order; one delay may hold several
/// lanes. An empty lane is free; its `delay` is stale until the next timer starts it.
#[derive(Default)]
struct Lane {
    delay: u64,
    timers: Fifo<EventKind>,
}

/// The event heap plus the run-head heap over the fan-out runs, the timer lanes and
/// the nodes' Deliver FIFOs (see the module docs).
pub(crate) struct EventQueue {
    /// The events no stream takes.
    events: QuadHeap<EventKind>,
    /// One entry per live run slot, non-empty timer lane and non-empty Deliver FIFO,
    /// tagged with [`RUN`], [`LANE`] or [`FIFO`] and keyed by the stream's next key.
    run_heads: QuadHeap<u32>,
    /// Run slots; a drained slot keeps its (cleared) buffer for reuse.
    runs: Vec<Run>,
    /// The timer lanes, one delay each while non-empty.
    lanes: [Lane; LANES],
    /// One Deliver FIFO per node: the fan-out handles of its matured downlink
    /// deliveries.
    fifos: Vec<Fifo<u32>>,
    /// Drained run slots.
    free_runs: Vec<u32>,
    /// The copies staged by [`Self::stage_arrival`] for the next [`Self::push_run`],
    /// packed as in [`Run`]; a recycled buffer after each run is queued.
    staged: Vec<u128>,
    /// The `seq` of the first staged copy.
    staged_first_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue with one Deliver FIFO per node.
    pub fn new(nodes: usize) -> Self {
        Self {
            events: QuadHeap::new(),
            run_heads: QuadHeap::new(),
            runs: Vec::new(),
            lanes: Default::default(),
            fifos: (0..nodes).map(|_| Fifo::default()).collect(),
            free_runs: Vec::new(),
            staged: Vec::new(),
            staged_first_seq: 0,
        }
    }

    /// The timers waiting in lanes (for the engine's tests).
    #[cfg(test)]
    pub(crate) fn lane_kinds(&self) -> impl Iterator<Item = &EventKind> {
        self.lanes.iter().flat_map(|lane| lane.timers.items.iter())
    }

    /// Pushes an event onto the event heap.
    pub fn push(&mut self, event: QueuedEvent) {
        self.events.push(pack(event.at, event.seq), event.kind);
    }

    /// Appends a matured downlink delivery to `to`'s Deliver FIFO: O(1), and one
    /// run-head push if the FIFO was empty. The caller (the `Arrive` dispatch)
    /// guarantees that one receiver's keys arrive increasing.
    pub fn push_deliver(&mut self, to: NodeId, at: SimTime, seq: u64, fanout: u32) {
        let key = pack(at, seq);
        let fifo = &mut self.fifos[to.as_index()];
        if fifo.keys.is_empty() {
            self.run_heads.push(key, FIFO | to.0);
        }
        fifo.push(key, fanout);
    }

    /// Queues a timer armed with `delay`: at the back of the lane of that delay whose
    /// last key is the largest below the timer's, else in a free lane, else on the
    /// event heap (see the module docs).
    pub fn push_timer(&mut self, delay: SimDuration, event: QueuedEvent) {
        let key = pack(event.at, event.seq);
        let delay = delay.as_nanos();
        let mut best: Option<(usize, u128)> = None;
        let mut free = None;
        for (i, lane) in self.lanes.iter().enumerate() {
            match lane.timers.keys.back() {
                None => free = free.or(Some(i)),
                Some(&last) if lane.delay == delay && last < key => {
                    if best.is_none_or(|(_, tail)| tail < last) {
                        best = Some((i, last));
                    }
                }
                Some(_) => {}
            }
        }
        let lane = match (best, free) {
            (Some((i, _)), _) => i,
            (None, Some(i)) => {
                self.lanes[i].delay = delay;
                self.run_heads.push(key, LANE | i as u32);
                i
            }
            (None, None) => return self.push(event),
        };
        self.lanes[lane].timers.push(key, event.kind);
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
        self.run_heads.push(run.key(0), RUN | slot);
        copies as u32
    }

    /// The `(time, seq)` key of the globally minimal event, if any: the smaller of
    /// the two heap tops.
    pub fn peek_key(&self) -> Option<EventKey> {
        let key = match (self.events.peek_key(), self.run_heads.peek_key()) {
            (Some(event), Some(head)) => event.min(head),
            (event, head) => event.or(head)?,
        };
        Some(unpack(key))
    }

    /// Pops the globally minimal event (for tests; the engine uses
    /// [`Self::pop_min`]).
    #[cfg(test)]
    pub fn pop(&mut self) -> Option<QueuedEvent> {
        self.pop_min(SimTime(u64::MAX))
    }

    /// Pops the globally minimal event if its time is at or below `deadline`: one
    /// event-heap pop, or, when the top stream head is smaller, one step along that
    /// stream plus one sift of the run-head heap.
    pub fn pop_min(&mut self, deadline: SimTime) -> Option<QueuedEvent> {
        let horizon = pack(deadline, u64::MAX);
        let event_key = self.events.peek_key().unwrap_or(u128::MAX);
        let (key, kind) = match self.run_heads.peek() {
            Some((key, head)) if key < event_key => {
                if key > horizon {
                    return None;
                }
                (key, self.pop_stream(head))
            }
            _ => {
                if event_key > horizon {
                    return None;
                }
                self.events.pop()?
            }
        };
        let (at, seq) = unpack(key);
        Some(QueuedEvent { at, seq, kind })
    }

    /// Takes the next event of the stream `head` names, which holds the run-head
    /// heap's top, and re-keys that top to the stream's new head or, once the stream
    /// has drained, removes it.
    #[inline]
    fn pop_stream(&mut self, head: u32) -> EventKind {
        let index = (head & !TAG) as usize;
        let (kind, next) = match head & TAG {
            RUN => self.runs[index].pop(),
            LANE => self.lanes[index].timers.pop(),
            _ => {
                let (fanout, next) = self.fifos[index].pop();
                let to = NodeId(index as u32);
                (EventKind::Deliver { fanout, to }, next)
            }
        };
        match next {
            Some(next) => self.run_heads.replace_top_key(next),
            None => {
                self.run_heads.pop();
                if head & TAG == RUN {
                    self.free_runs.push(head);
                }
            }
        }
        kind
    }

    /// Visits every queued event's kind — event-heap entries, lane timers, Deliver
    /// FIFO entries and the copies each run has not yet popped, the last two
    /// materialised exactly as a pop would — in no particular order. This is the read
    /// side of the fan-out reference audit (`Simulation::into_report`): the audit
    /// tallies the queued handles per slot and compares the tally against the side
    /// table's refcounts.
    pub fn for_each_kind(&self, mut f: impl FnMut(&EventKind)) {
        self.events.payloads.iter().for_each(&mut f);
        for run in &self.runs {
            for i in run.next..run.entries.len() {
                f(&run.kind(i));
            }
        }
        for lane in &self.lanes {
            lane.timers.items.iter().for_each(&mut f);
        }
        for (node, fifo) in self.fifos.iter().enumerate() {
            let to = NodeId(node as u32);
            for &fanout in &fifo.items {
                f(&EventKind::Deliver { fanout, to });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::test_event as queued;

    impl EventQueue {
        /// Number of queued events, counted where they wait.
        fn len(&self) -> usize {
            let runs: usize = self.runs.iter().map(|run| run.entries.len() - run.next).sum();
            let lanes: usize = self.lanes.iter().map(|lane| lane.timers.keys.len()).sum();
            let fifos: usize = self.fifos.iter().map(|fifo| fifo.keys.len()).sum();
            self.events.keys.len() + runs + lanes + fifos
        }

        /// Checks that the run-head heap holds exactly one entry for each live run,
        /// non-empty lane and non-empty Deliver FIFO, keyed by that stream's next key.
        fn assert_one_head_per_stream(&self) {
            let mut expected: Vec<(u32, u128)> = Vec::new();
            for (slot, run) in self.runs.iter().enumerate() {
                if run.next < run.entries.len() {
                    expected.push((RUN | slot as u32, run.key(run.next)));
                }
            }
            for (i, lane) in self.lanes.iter().enumerate() {
                if let Some(&key) = lane.timers.keys.front() {
                    expected.push((LANE | i as u32, key));
                }
            }
            for (node, fifo) in self.fifos.iter().enumerate() {
                if let Some(&key) = fifo.keys.front() {
                    expected.push((FIFO | node as u32, key));
                }
            }
            let mut heads: Vec<(u32, u128)> =
                self.run_heads.payloads.iter().copied().zip(self.run_heads.keys.iter().copied()).collect();
            expected.sort_unstable();
            heads.sort_unstable();
            assert_eq!(heads, expected, "one run head per non-empty stream, at its next key");
            for slot in &self.free_runs {
                assert!(self.runs[*slot as usize].entries.is_empty(), "a free run slot is drained");
            }
        }
    }

    /// Pops drain an arbitrary interleaving in exact `(time, seq)` order.
    #[test]
    fn pops_follow_global_time_seq_order() {
        let mut queue = EventQueue::new(1);
        // A deterministic scramble: times descend, wrap, collide; seqs are unique.
        let mut entries: Vec<EventKey> = Vec::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        for seq in 1..=200u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let time = (state >> 7) % 17; // plenty of same-time collisions
            entries.push((SimTime(time), seq));
        }
        for &(time, seq) in &entries {
            queue.push(queued(time, seq));
        }
        let mut keys = Vec::new();
        while let Some(event) = queue.pop() {
            keys.push((event.at, event.seq));
        }
        entries.sort_unstable();
        assert_eq!(keys, entries);
        assert_eq!(queue.len(), 0);
    }

    /// `pop_min` honours the deadline.
    #[test]
    fn pop_min_respects_the_deadline() {
        let mut queue = EventQueue::new(2);
        queue.push(queued(SimTime(10), 1));
        queue.push(queued(SimTime(30), 2));
        queue.push(queued(SimTime(25), 3));

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

    /// Zero-delay follow-ups pushed between pops are seen immediately: the very next
    /// `pop_min` returns them in `(time, seq)` order.
    #[test]
    fn pushes_between_pops_are_merged_immediately() {
        let mut queue = EventQueue::new(2);
        queue.push(queued(SimTime(10), 1));
        queue.push(queued(SimTime(40), 2));
        queue.push(queued(SimTime(50), 3));

        let first = queue.pop_min(SimTime(u64::MAX)).unwrap();
        assert_eq!((first.at, first.seq), (SimTime(10), 1));
        // The event's callback schedules a follow-up at t = 15.
        queue.push(queued(SimTime(15), 4));
        let order: Vec<u64> = std::iter::from_fn(|| queue.pop()).map(|e| e.seq).collect();
        assert_eq!(order, vec![4, 2, 3]);
        assert_eq!(queue.len(), 0);
    }

    /// The receiver or node an event stands for, to check that a pop returns the
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
        queue: &mut EventQueue,
        reference: &mut std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64, u32)>>,
        deadline: u64,
        now: &mut u64,
    ) {
        while let Some(event) = queue.pop_min(SimTime(deadline)) {
            let std::cmp::Reverse(expected) = reference.pop().expect("the reference holds as many");
            assert_eq!((event.at.as_nanos(), event.seq, owner(&event.kind)), expected);
            *now = event.at.as_nanos();
            queue.assert_one_head_per_stream();
        }
        assert!(
            reference.peek().map_or(true, |std::cmp::Reverse((at, _, _))| *at > deadline),
            "the queue stopped before the deadline"
        );
    }

    proptest::proptest! {
        /// Fan-out runs (jittered, so not monotone in route order), event-heap pushes,
        /// Deliver FIFO pushes, timer pushes and pops against a deadline, interleaved
        /// at random, drain in exactly the order of a single `(time, seq)` binary heap,
        /// and every pop returns the receiver or node pushed under its key. A FIFO
        /// operation refills the Deliver FIFOs of up to three nodes with deliveries due
        /// within a few nanoseconds, which the pops drain again, so FIFOs join and
        /// leave the run-head heap over and over. The timers take twelve delays, more
        /// than there are lanes, and some arrive a little late, so they fill lanes,
        /// open further lanes of one delay behind a late timer, fall back to the event
        /// heap when no lane can take them, and reuse lanes that drained. After every
        /// operation and every pop, the run-head heap holds exactly one entry per live
        /// run, non-empty lane and non-empty FIFO.
        #[test]
        fn runs_heaps_and_fifos_drain_in_single_heap_order(
            ops in proptest::collection::vec((0u8..5, 0u64..64, 0u64..1 << 20, 0u32..5), 0..160),
        ) {
            use std::cmp::Reverse;
            use std::collections::BinaryHeap;
            const NODES: u32 = 5;
            let mut queue = EventQueue::new(NODES as usize);
            let mut reference = BinaryHeap::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            let mut last_deliver = [0u64; NODES as usize];
            for (op, a, b, node) in ops {
                match op {
                    0 => {
                        // A fan-out of up to eight copies from one sender: departures
                        // climb, each copy's jitter does not.
                        let mut jitter = b;
                        for copy in 0..=a % 8 {
                            jitter = jitter.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                            let at = now + copy * 3 + (jitter >> 59);
                            let to = (node + copy as u32) % NODES;
                            seq += 1;
                            queue.stage_arrival(SimTime(at), seq, NodeId(to));
                            reference.push(Reverse((at, seq, to)));
                        }
                        proptest::prop_assert_eq!(queue.push_run(7, 64), a as u32 % 8 + 1);
                    }
                    1 => {
                        seq += 1;
                        let at = now + a;
                        queue.push(QueuedEvent { at: SimTime(at), seq, kind: EventKind::Start(NodeId(node)) });
                        reference.push(Reverse((at, seq, node)));
                    }
                    2 => {
                        // Deliveries to up to three nodes, each node's created in
                        // (time, seq) order.
                        for to in (node..node + 1 + (b % 3) as u32).map(|to| to % NODES) {
                            seq += 1;
                            let at = last_deliver[to as usize].max(now) + a % 4;
                            last_deliver[to as usize] = at;
                            queue.push_deliver(NodeId(to), SimTime(at), seq, 9);
                            reference.push(Reverse((at, seq, to)));
                        }
                    }
                    3 => {
                        // A timer armed now, its callback finishing up to 2 ns late.
                        seq += 1;
                        let delay = 10 + a % 12;
                        let at = now + b % 3 + delay;
                        queue.push_timer(SimDuration(delay), timer(at, seq, node));
                        reference.push(Reverse((at, seq, node)));
                    }
                    _ => pop_until(&mut queue, &mut reference, now + a, &mut now),
                }
                queue.assert_one_head_per_stream();
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
        let mut queue = EventQueue::new(4);
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
    fn lanes(queue: &EventQueue) -> Vec<(u64, Vec<u64>)> {
        let mut lanes: Vec<(u64, Vec<u64>)> = queue
            .lanes
            .iter()
            .filter(|lane| !lane.timers.keys.is_empty())
            .map(|lane| (lane.delay, lane.timers.keys.iter().map(|&key| unpack(key).1).collect()))
            .collect();
        lanes.sort_unstable();
        lanes
    }

    /// A lane takes timers of its delay while their keys climb. An on-time timer
    /// armed after a late one starts a second lane of that delay, and a timer goes to
    /// the lane of its delay whose tail is the largest below it. A timer that no lane
    /// of its delay can take, once every lane is taken, waits in the event heap; a
    /// drained lane serves the next delay.
    #[test]
    fn a_lane_holds_one_delay_in_order_and_frees_itself_when_drained() {
        let mut queue = EventQueue::new(4);
        queue.push_timer(SimDuration(10), timer(10, 1, 0));
        queue.push_timer(SimDuration(10), timer(13, 2, 1)); // armed by a late callback
        queue.push_timer(SimDuration(10), timer(11, 3, 2)); // on time: a second lane
        queue.push_timer(SimDuration(10), timer(14, 4, 3)); // behind seq 2, the best fit
        queue.push_timer(SimDuration(10), timer(12, 5, 0)); // only behind seq 3
        assert_eq!(lanes(&queue), vec![(10, vec![1, 2, 4]), (10, vec![3, 5])]);
        for (i, delay) in (20..=100).step_by(10).enumerate() {
            queue.push_timer(SimDuration(delay), timer(delay, 6 + i as u64, 3));
        }
        queue.push_timer(SimDuration(10), timer(10, 15, 1)); // below both lanes' tails
        let mut expected = vec![(10, vec![1, 2, 4]), (10, vec![3, 5])];
        expected.extend((20..=70).step_by(10).zip(6..).map(|(delay, seq)| (delay, vec![seq])));
        assert_eq!(lanes(&queue), expected, "seqs 12 to 15 wait in the heap");
        assert_eq!(queue.events.keys.len(), 4);
        assert_eq!(queue.len(), 15);

        let order: Vec<u64> = std::iter::from_fn(|| queue.pop()).map(|e| e.seq).collect();
        assert_eq!(order, vec![1, 15, 3, 5, 2, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14]);
        assert!(lanes(&queue).is_empty() && queue.run_heads.keys.is_empty());

        queue.push_timer(SimDuration(500), timer(600, 16, 1));
        queue.push_timer(SimDuration(500), timer(600, 17, 2));
        assert_eq!(lanes(&queue), vec![(500, vec![16, 17])], "a drained lane serves a new delay");
    }

    /// `for_each_kind` visits every queued event exactly once, wherever it waits: the
    /// event heap, a Deliver FIFO, a run or a lane, before and after partial drains.
    #[test]
    fn for_each_kind_visits_every_queued_event_once() {
        let mut queue = EventQueue::new(3);
        let mut seq = 0;
        let mut next = || {
            seq += 1;
            seq
        };
        for to in 0..3 {
            queue.stage_arrival(SimTime(5 + to as u64), next(), NodeId(to));
        }
        queue.push_run(0, 64);
        queue.push(queued(SimTime(3), next()));
        queue.push_deliver(NodeId(2), SimTime(4), next(), 1);
        for node in 0..3 {
            queue.push_timer(SimDuration(2), timer(2 + u64::from(node), next(), node));
        }
        assert!(!queue.runs[0].entries.is_empty() && queue.lane_kinds().count() == 3);
        for left in (0..=8).rev() {
            let mut visited = 0;
            queue.for_each_kind(|_| visited += 1);
            assert_eq!(visited, left);
            queue.pop();
        }
    }
}
