//! The interned fan-out side table behind the compressed event queue.
//!
//! A multicast at `n` nodes used to queue `2(n − 1)` independent `Arrive`/`Deliver`
//! events, each carrying `{from, to, Arc<message>, size}` — 32 payload bytes that
//! every heap sift moved and an `Arc` refcount that every clone/drop bounced between
//! cores. The profile in `DESIGN.md` §10 showed this queue-resident payload traffic,
//! not queue management, as the engine's remaining cost at n ≥ 1000.
//!
//! This table interns each *logical* fan-out once: a slot holds the sender and the
//! message itself, inline, and the queue-resident events shrink to a
//! `{fanout: u32, to: NodeId}` handle. Nothing about event *keys* changes — the
//! `(time, seq)` assignment order is identical by construction — so every
//! determinism golden captured before the compression passes uncaptured.
//!
//! # Slot lifecycle (refcount)
//!
//! `intern` moves the message into a slot with zero references; the slot is its only
//! owner from then on (no heap envelope, so a send allocates nothing). The engine
//! takes one reference per queued handle through [`FanoutTable::incref`]: one for a
//! unicast `Arrive` push or a self-delivery `Deliver` push, and one per copy, in a
//! single call, for the peer copies a multicast or broadcast queues as one sorted run
//! (`crate::queue`; a run entry is a handle like any other until it is popped). An
//! `Arrive` that matures into its downlink `Deliver` *transfers* its reference (no
//! count change). A reference is returned when the handle leaves the schedule:
//! [`FanoutTable::consume`] when a `Deliver` reaches its callback — a clone of the
//! message while other references remain, the message itself, moved out, for the
//! last one — and [`FanoutTable::release`] when a crashed receiver swallows the event
//! (no clone). The slot is reclaimed onto a free list the moment its count returns
//! to zero, dropping the message if no callback took it — so peak table size tracks
//! the number of *in-flight logical messages*, not the fan-out width, and a fan-out
//! whose every copy was dropped at route time (crashed sender, severed partition) is
//! reclaimed immediately by [`FanoutTable::release_if_unused`]. A unicast is thus
//! moved from the sender's callback to the receiver's and never cloned; a fan-out to
//! `k` receivers is cloned `k − 1` times.
//!
//! A slot is as large as the message type, and the table keeps its high-water mark,
//! so protocols keep their message enums small (DESIGN.md §5.9: at most 64 bytes,
//! large payloads behind an `Arc` or a `Box`).

use leopard_types::NodeId;

/// One interned logical fan-out.
struct Slot<M> {
    /// The sending node (the `from` of every copy). The wire size is *not* here:
    /// `Arrive` events carry it inline (it fits in `EventKind` padding), so the slot
    /// holds nothing only the queue needs.
    from: NodeId,
    /// Outstanding queue handles referencing this slot.
    refs: u32,
    /// The message; `None` once the slot is on the free list.
    message: Option<M>,
}

/// The per-run fan-out side table. See the module docs for the slot lifecycle.
pub(crate) struct FanoutTable<M> {
    slots: Vec<Slot<M>>,
    /// Reclaimed slot indices, reused LIFO so the table stays dense and cache-warm.
    free: Vec<u32>,
    live: usize,
}

impl<M> FanoutTable<M> {
    pub(crate) fn new() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Number of live (referenced) slots — in-flight logical messages.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// High-water slot count: the table never shrinks its backing storage, so this
    /// is the peak number of concurrently in-flight logical messages.
    pub(crate) fn peak(&self) -> usize {
        self.slots.len()
    }

    /// Interns one logical fan-out with zero references; pair with
    /// [`Self::release_if_unused`] after routing every copy.
    pub(crate) fn intern(&mut self, from: NodeId, message: M) -> u32 {
        self.live += 1;
        let slot = Slot {
            from,
            refs: 0,
            message: Some(message),
        };
        match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = slot;
                id
            }
            None => {
                // 25% growth instead of doubling: peak slot count tracks in-flight
                // logical messages (hundreds of thousands at n >= 1000), so halving
                // the overallocation is a real RSS win.
                if self.slots.len() == self.slots.capacity() {
                    self.slots.reserve_exact((self.slots.len() / 4).max(32));
                }
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Takes `count` references: that many queue handles (a unicast `Arrive` push, a
    /// self-delivery `Deliver` push, or the copies of one fan-out run) now point at
    /// the slot.
    pub(crate) fn incref(&mut self, id: u32, count: u32) {
        let slot = &mut self.slots[id as usize];
        debug_assert!(slot.message.is_some(), "incref on a reclaimed fan-out slot");
        slot.refs += count;
    }

    /// Reclaims a freshly interned slot nothing ended up referencing (every copy of
    /// the fan-out was dropped at route time). No-op if any handle was queued.
    pub(crate) fn release_if_unused(&mut self, id: u32) {
        if self.slots[id as usize].refs == 0 {
            self.reclaim(id);
        }
    }

    /// Returns one reference without taking the message (a crashed receiver swallowed
    /// the event); reclaims the slot, dropping the message, when the last reference
    /// returns.
    pub(crate) fn release(&mut self, id: u32) {
        let slot = &mut self.slots[id as usize];
        debug_assert!(slot.refs > 0, "release on an unreferenced fan-out slot");
        slot.refs -= 1;
        if slot.refs == 0 {
            self.reclaim(id);
        }
    }

    /// Consumes one reference and produces the sender plus an owned message for the
    /// receiver's callback: a clone while other references remain, the message itself,
    /// moved out of the slot, for the last one.
    pub(crate) fn consume(&mut self, id: u32) -> (NodeId, M)
    where
        M: Clone,
    {
        let slot = &mut self.slots[id as usize];
        debug_assert!(slot.refs > 0, "consume on an unreferenced fan-out slot");
        let from = slot.from;
        slot.refs -= 1;
        if slot.refs == 0 {
            let message = slot.message.take().expect("live slot holds the message");
            self.reclaim(id);
            (from, message)
        } else {
            let message = slot.message.as_ref().expect("live slot holds the message");
            (from, message.clone())
        }
    }

    /// Audit view: outstanding references per slot index, `0` for reclaimed slots.
    /// `Simulation::into_report` compares this against a tally of the handles still
    /// queued, so a leak (slot refs > queued handles) and a lost reference (queued
    /// handles > slot refs) are both caught even for runs cut off mid-flight.
    pub(crate) fn refcounts(&self) -> Vec<u32> {
        self.slots
            .iter()
            .map(|slot| if slot.message.is_some() { slot.refs } else { 0 })
            .collect()
    }

    fn reclaim(&mut self, id: u32) {
        let slot = &mut self.slots[id as usize];
        slot.message = None;
        slot.refs = 0;
        self.free.push(id);
        self.live -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_reference_reclaims_the_slot_and_avoids_the_deep_clone() {
        let mut table: FanoutTable<Vec<u8>> = FanoutTable::new();
        let id = table.intern(NodeId(3), vec![1, 2, 3]);
        table.incref(id, 1);
        table.incref(id, 1);
        table.release_if_unused(id); // referenced: must not reclaim
        assert_eq!(table.live(), 1);

        let (from, first) = table.consume(id);
        assert_eq!(from, NodeId(3));
        assert_eq!(first, vec![1, 2, 3]);
        assert_eq!(table.live(), 1, "one reference still outstanding");

        let (_, last) = table.consume(id);
        assert_eq!(last, vec![1, 2, 3]);
        assert_eq!(table.live(), 0, "last consume reclaims the slot");

        // The freed slot is reused before the table grows.
        let reused = table.intern(NodeId(0), vec![9]);
        assert_eq!(reused, id);
        assert_eq!(table.peak(), 1);
    }

    #[test]
    fn dropped_fanouts_are_reclaimed_immediately() {
        let mut table: FanoutTable<u64> = FanoutTable::new();
        let id = table.intern(NodeId(0), 7);
        // Every copy was dropped at route time: nothing ever referenced the slot.
        table.release_if_unused(id);
        assert_eq!(table.live(), 0);

        // Crash-path returns (release) reclaim exactly like consumption.
        let id = table.intern(NodeId(1), 8);
        table.incref(id, 1);
        table.incref(id, 1);
        table.release_if_unused(id);
        table.release(id);
        assert_eq!(table.live(), 1);
        table.release(id);
        assert_eq!(table.live(), 0);
        assert_eq!(table.peak(), 1, "the slab reuses slots instead of growing");
    }
}
