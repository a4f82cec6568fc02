//! The machine's pace, read next to every instance of an end-to-end run.
//!
//! This box is a slice of a shared host, and for a minute or two at a time the same
//! instance takes 10 to 30 % longer, its neighbours in the run too, and so do the next
//! three or four runs: no statistic over the rounds of one 15 s run takes that out,
//! and ten runs of a workload spread as far as the machine happened to move under
//! them. Two things were seen to move. The clock: everything, arithmetic included,
//! runs 7 to 8 % faster or slower for five minutes. And the memory the host's tenants
//! share: what misses its private cache slows down by 10 to 30 %, arithmetic by
//! nothing.
//!
//! Two fixed pieces of work are timed after every instance, one for each. [`compute`]
//! is four independent chains of integer arithmetic in registers. [`events`] is work
//! of the simulator's own kind: a small discrete-event loop with a timer heap, a hash
//! map of 256-byte records per node and the allocations that come with both, over some
//! 50 MB. [`pace`] is the mean of their slow-downs, and host times are divided by it.
//! Both kernels live here, call nothing in the crates and never change, so a faster
//! program still reads faster.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Seconds the two kernels take on the box the benchmark was defined on while the host
/// is quiet: the pace every host time is reported at.
pub const NOMINAL: Pass = Pass {
    compute_secs: 0.0130,
    events_secs: 0.0540,
};

/// The seconds of one run of each kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pass {
    pub compute_secs: f64,
    pub events_secs: f64,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Four chains of shifts, multiplications and rotations that never leave the
/// registers: as fast as the clock, whatever the memory system does.
fn compute() -> f64 {
    let start = Instant::now();
    let (mut a, mut b, mut c, mut d): (u64, u64, u64, u64) =
        (black_box(1), 0x0123_4567, 0x00AB_CDEF, 0x0055_AA55);
    for _ in 0..6_000_000 {
        xorshift(&mut a);
        b = b
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        c ^= c << 5;
        c ^= c >> 9;
        c = c.wrapping_add(b >> 60);
        d = d.rotate_left(7) ^ a.wrapping_mul(3);
    }
    assert_eq!(
        a ^ b ^ c ^ d,
        16_970_842_682_939_518_882,
        "the compute kernel did other work than it is timed for"
    );
    start.elapsed().as_secs_f64()
}

/// A fixed hasher, so that the maps are laid out alike in every process.
type Records = HashMap<u32, Vec<u8>, BuildHasherDefault<DefaultHasher>>;

const NODES: u32 = 4096;

/// The events kernel's heap and per-node records. They are emptied, not freed, between
/// passes: a pass that fetches its 50 MB from the kernel page by page varies by 10 %
/// from one to the next on a quiet machine, one that gets them back from the allocator
/// by 3 %.
pub struct Events {
    heap: BinaryHeap<Reverse<(u64, u32, u32)>>,
    nodes: Vec<Records>,
}

impl Events {
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            nodes: (0..NODES).map(|_| Records::default()).collect(),
        }
    }

    /// 200 000 events over 4096 nodes.
    fn pass(&mut self) -> f64 {
        let start = Instant::now();
        let Self { heap, nodes } = self;
        heap.clear();
        heap.extend((0..NODES).map(|node| Reverse((u64::from(node), node, 0))));
        nodes.iter_mut().for_each(Records::clear);
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let mut checksum = 0_u64;
        for _ in 0..200_000 {
            let Reverse((time, node, id)) = heap.pop().expect("every event schedules another");
            let draw = xorshift(&mut x);
            // Handle the event: touch one record of the node, forget an old one.
            let records = &mut nodes[node as usize];
            let record = records.entry(id % 64).or_insert_with(|| vec![0; 256]);
            let byte = &mut record[(draw % 256) as usize];
            *byte = byte.wrapping_add(1);
            checksum = checksum.rotate_left(5) ^ time ^ u64::from(*byte);
            if records.len() > 48 {
                records.remove(&((id + 17) % 64));
            }
            // Send to another node, sometimes to two.
            let to = (draw >> 20) as u32 % NODES;
            heap.push(Reverse((time + 1 + (draw & 1023), to, id + 1)));
            if draw & 7 == 0 {
                let later = time + 5 + (draw >> 40 & 4095);
                heap.push(Reverse((later, (to + 1) % NODES, id + 7)));
            }
        }
        assert_eq!(
            checksum ^ heap.len() as u64,
            15_337_801_944_940_107_138,
            "the events kernel did other work than it is timed for"
        );
        start.elapsed().as_secs_f64()
    }
}

/// Runs both kernels once.
pub fn pass(events: &mut Events) -> Pass {
    Pass {
        compute_secs: compute(),
        events_secs: events.pass(),
    }
}

/// What the machine added to the host times measured next to `passes`, as a factor
/// (1 = nothing): the mean of the two kernels' slow-downs against [`NOMINAL`], each
/// taken from its median pass. The mean, because the workloads lie between the
/// kernels: when only memory was slow they slowed down by 0.2 (`retrieval-real-n32`) to
/// 0.75 (`cpu-p4k4-n256`) of what the events kernel did; fitted over half an hour the
/// weights of (compute, events) were (0.78, 0.23), (0.63, 0.37) and (0.41, 0.59) for
/// `retrieval-real-n32`, `hotstuff-n300` and `cpu-p4k4-n256`, and (0.5, 0.5) for all
/// left the slow minutes a spread within a tenth of what the fitted weights left.
pub fn pace(passes: &[Pass]) -> f64 {
    let slow_down = |secs: fn(&Pass) -> f64| median(&passes.iter().map(secs).collect::<Vec<f64>>());
    let compute = slow_down(|p| p.compute_secs) / NOMINAL.compute_secs;
    let events = slow_down(|p| p.events_secs) / NOMINAL.events_secs;
    (compute + events) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernels_repeat_their_work_and_the_nominal_pace_is_one() {
        // The kernels assert their own checksums.
        let mut events = Events::new();
        let passes = [pass(&mut events), pass(&mut events)];
        assert!(pace(&passes) > 0.0);
        assert_eq!(pace(&[NOMINAL]), 1.0);
        // A slower clock slows both kernels and is taken out whole; slow memory slows
        // the events kernel alone and is taken out by half; one slow pass of three is
        // a burst and counts for nothing.
        let slow = |compute: f64, events: f64| Pass {
            compute_secs: compute * NOMINAL.compute_secs,
            events_secs: events * NOMINAL.events_secs,
        };
        assert!((pace(&[slow(1.2, 1.2)]) - 1.2).abs() < 1e-12);
        assert!((pace(&[slow(1.0, 1.2)]) - 1.1).abs() < 1e-12);
        let burst = [slow(1.0, 1.0), slow(1.4, 1.3), slow(1.0, 1.0)];
        assert!((pace(&burst) - 1.0).abs() < 1e-12);
    }
}
