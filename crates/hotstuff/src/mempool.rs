//! The HotStuff leader's co-located client stub and mempool.
//!
//! Clients in HotStuff submit to the leader. In this reproduction the client stub is
//! co-located with each replica (see `DESIGN.md` §3): while the replica leads, it
//! injects synthetic requests at the configured rate and measures the submission →
//! execution latency of exactly the requests it injected.
//!
//! Nothing here is per-request (`DESIGN.md` §5). The stub injects requests with
//! contiguous sequence numbers once per tick, so what is pending is one range of
//! sequence numbers, a batch is a [`RequestRun`], and what is outstanding is a FIFO of
//! runs `(first seq, count)`, one per injection.
//!
//! A FIFO suffices because a stub acknowledges only its own batches,
//! [`Mempool::take_batch`] hands them out in sequence order, and a chain commits a
//! block's ancestors first and never re-proposes a block. So one stub's batches
//! execute in sequence order, and a batch that a view change dropped never executes:
//! an acknowledgement starts at or after the oldest outstanding run, and what
//! precedes it in the queue belongs to a dropped batch.

use leopard_simnet::{SimDuration, SimTime};
use leopard_types::{ClientId, RequestRun};
use std::collections::VecDeque;

/// The requests of one injection that are still outstanding: `count` requests from
/// sequence number `first` on, all submitted at `submitted_at`.
#[derive(Debug)]
struct Run {
    first: u64,
    count: u64,
    submitted_at: SimTime,
}

/// Pending-request counter plus the client stub's latency bookkeeping.
#[derive(Debug)]
pub(crate) struct Mempool {
    client: ClientId,
    payload_size: u32,
    /// Sequence number of the next request to inject.
    next_seq: u64,
    /// Sequence number of the first request not yet handed to a batch: the pending
    /// requests are `batched .. next_seq`.
    batched: u64,
    /// Submitted requests neither executed nor known to be dropped, oldest first. The
    /// runs cover `runs[0].first .. next_seq` contiguously.
    runs: VecDeque<Run>,
    /// Submitted requests not executed yet, including those of dropped batches (which
    /// never execute).
    outstanding: usize,
    /// Fraction of a request the open-loop injector still owes (see
    /// [`Self::inject_tick`]).
    carry: f64,
}

impl Mempool {
    /// Interval of the injection timer the replica arms.
    pub(crate) const TICK: SimDuration = SimDuration(10_000_000); // 10 ms

    /// Creates an empty mempool whose client stub signs requests as `client`.
    pub(crate) fn new(client: ClientId, payload_size: u32) -> Self {
        Self {
            client,
            payload_size,
            next_seq: 0,
            batched: 0,
            runs: VecDeque::new(),
            outstanding: 0,
            carry: 0.0,
        }
    }

    /// Number of submitted requests whose acknowledgement is still outstanding.
    pub(crate) fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Injects `count` synthetic requests at time `now`.
    fn inject(&mut self, count: usize, now: SimTime) {
        if count == 0 {
            return;
        }
        self.runs.push_back(Run {
            first: self.next_seq,
            count: count as u64,
            submitted_at: now,
        });
        self.outstanding += count;
        self.next_seq += count as u64;
    }

    /// One tick of the open-loop client stub: injects what `rps` requests per second
    /// offer over [`Self::TICK`], carrying the fractional request over to the next tick.
    pub(crate) fn inject_tick(&mut self, rps: f64, now: SimTime) {
        let per_tick = rps * Self::TICK.as_secs_f64() + self.carry;
        let whole = per_tick.floor() as usize;
        self.carry = per_tick - whole as f64;
        self.inject(whole, now);
    }

    /// Extracts up to `max` pending requests, oldest first, for a new block.
    pub(crate) fn take_batch(&mut self, max: usize) -> RequestRun {
        let first_seq = self.batched;
        self.batched = self.next_seq.min(first_seq.saturating_add(max as u64));
        let count = (self.batched - first_seq) as u32;
        RequestRun { client: self.client, first_seq, count, size: self.payload_size }
    }

    /// Marks the requests of `batch` as executed at `now`. Calls `latencies(nanos,
    /// count)` for every stretch of the batch that lies inside one outstanding run —
    /// `count` requests of the local client stub whose submission-to-execution latency
    /// is `nanos` — in ascending sequence order. Another client's batch is skipped.
    /// Queued requests below the batch belong to a dropped batch: they leave the queue
    /// but stay in [`Self::outstanding`].
    pub(crate) fn acknowledge(
        &mut self,
        batch: &RequestRun,
        now: SimTime,
        mut latencies: impl FnMut(u64, u64),
    ) {
        if batch.client != self.client {
            return;
        }
        debug_assert!(
            batch.first_seq >= self.runs.front().map_or(self.next_seq, |run| run.first),
            "acknowledgements go backwards"
        );
        let end = batch.first_seq + u64::from(batch.count);
        while let Some(run) = self.runs.front_mut() {
            if run.first >= end {
                return;
            }
            let run_end = run.first + run.count;
            let taken = run_end
                .min(end)
                .saturating_sub(batch.first_seq.max(run.first));
            if taken > 0 {
                self.outstanding -= taken as usize;
                latencies(now.saturating_since(run.submitted_at).as_nanos(), taken);
            }
            if run_end > end {
                run.first = end;
                run.count = run_end - end;
                return;
            }
            self.runs.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leopard_types::RequestId;
    use proptest::prelude::*;
    use std::collections::HashMap;

    impl Mempool {
        /// Number of pending (not yet batched) requests.
        fn len(&self) -> usize {
            (self.next_seq - self.batched) as usize
        }

        /// Total injected so far.
        fn injected(&self) -> u64 {
            self.next_seq
        }
    }

    /// Acknowledges `batch` and returns the `(nanos, count)` stretches reported.
    fn acknowledge(pool: &mut Mempool, batch: &RequestRun, now: SimTime) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        pool.acknowledge(batch, now, |nanos, count| out.push((nanos, count)));
        out
    }

    fn run(client: u32, first_seq: u64, count: u32) -> RequestRun {
        RequestRun { client: ClientId(client), first_seq, count, size: 128 }
    }

    #[test]
    fn inject_and_batch() {
        let mut pool = Mempool::new(ClientId(3), 128);
        assert_eq!(pool.len(), 0);
        pool.inject(10, SimTime(0));
        assert_eq!(pool.len(), 10);
        assert_eq!(pool.outstanding(), 10);
        assert_eq!(pool.injected(), 10);

        let batch = pool.take_batch(4);
        assert_eq!(batch.len(), 4);
        assert_eq!(pool.len(), 6);
        // Batch extraction does not complete requests.
        assert_eq!(pool.outstanding(), 10);
        // Request ids are unique, in order, and owned by this client.
        assert_eq!(batch, run(3, 0, 4));
        assert_eq!(pool.take_batch(1), run(3, 4, 1));
    }

    #[test]
    fn inject_tick_carries_the_fraction() {
        // 250 requests/s is 2.5 per 10 ms tick: 2, 3, 2, 3 — and nothing is lost.
        let mut pool = Mempool::new(ClientId(0), 128);
        let mut per_tick = Vec::new();
        for tick in 0..4u64 {
            let before = pool.injected();
            pool.inject_tick(250.0, SimTime(tick * Mempool::TICK.as_nanos()));
            per_tick.push(pool.injected() - before);
        }
        assert_eq!(per_tick, vec![2, 3, 2, 3]);
        // Below one request per tick the carry accumulates until a whole one is due.
        let mut slow = Mempool::new(ClientId(0), 128);
        for _ in 0..3 {
            slow.inject_tick(25.0, SimTime(0));
            assert_eq!(slow.injected(), 0);
        }
        slow.inject_tick(25.0, SimTime(0));
        assert_eq!(slow.injected(), 1);
    }

    #[test]
    fn take_batch_larger_than_queue_drains_it() {
        let mut pool = Mempool::new(ClientId(0), 128);
        pool.inject(3, SimTime(0));
        assert_eq!(pool.take_batch(100).len(), 3);
        assert_eq!(pool.len(), 0);
        assert!(pool.take_batch(5).is_empty());
    }

    #[test]
    fn acknowledge_measures_latency_for_own_requests_only() {
        let mut pool = Mempool::new(ClientId(1), 128);
        pool.inject(1, SimTime(1_000));
        let batch = pool.take_batch(1);
        assert_eq!(
            acknowledge(&mut pool, &batch, SimTime(5_000)),
            vec![(4_000, 1)]
        );
        // Requests from other clients are not ours.
        pool.inject(1, SimTime(9_000));
        assert_eq!(acknowledge(&mut pool, &run(9, 1, 1), SimTime(9_000)), vec![]);
        assert_eq!(pool.outstanding(), 1);
    }

    #[test]
    fn one_stretch_per_run_and_runs_split_on_partial_acknowledgement() {
        let mut pool = Mempool::new(ClientId(2), 64);
        pool.inject(4, SimTime(100));
        pool.inject(2, SimTime(300));
        // A batch inside the first run splits it.
        let first = pool.take_batch(3);
        assert_eq!(
            acknowledge(&mut pool, &first, SimTime(1_000)),
            vec![(900, 3)]
        );
        assert_eq!((pool.outstanding(), pool.runs.len()), (3, 2));
        // A batch across the boundary reports one stretch per run.
        let second = pool.take_batch(10);
        assert_eq!(
            acknowledge(&mut pool, &second, SimTime(2_000)),
            vec![(1_900, 1), (1_700, 2)]
        );
        assert_eq!((pool.outstanding(), pool.runs.len()), (0, 0));
    }

    /// A view change dropped the batch that took a run's head; the next batch starts
    /// inside that run. The dropped head leaves the queue but stays outstanding, since
    /// it never executes.
    #[test]
    fn a_batch_may_start_inside_a_run_whose_head_a_dropped_batch_took() {
        let mut pool = Mempool::new(ClientId(4), 128);
        pool.inject(6, SimTime(100));
        pool.inject(4, SimTime(200));
        let dropped = pool.take_batch(2);
        let kept = pool.take_batch(5);
        assert_eq!((dropped.first_seq, kept.first_seq), (0, 2));
        assert_eq!(
            acknowledge(&mut pool, &kept, SimTime(1_000)),
            vec![(900, 4), (800, 1)]
        );
        assert_eq!(pool.outstanding(), 2 + 3);
        assert_eq!(pool.runs.len(), 1);
        assert_eq!((pool.runs[0].first, pool.runs[0].count), (7, 3));
    }

    /// A saturated producer's cycle leaves nothing behind: no queue entries that scale
    /// with the requests that went through.
    #[test]
    fn saturated_cycles_hold_constant_heap() {
        let mut pool = Mempool::new(ClientId(5), 128);
        for round in 0..50u64 {
            pool.inject(4_000, SimTime(round * 1_000));
            let batch = pool.take_batch(4_000);
            assert_eq!(batch.len(), 4_000);
            assert_eq!(pool.runs.len(), 1);
            assert_eq!(
                acknowledge(&mut pool, &batch, SimTime(round * 1_000 + 7)),
                vec![(7, 4_000)]
            );
        }
        assert_eq!(pool.injected(), 200_000);
        assert_eq!((pool.outstanding(), pool.runs.len(), pool.len()), (0, 0, 0));
    }

    /// One step of a random schedule, decoded from a `(selector, a, b)` triple.
    #[derive(Debug)]
    enum Op {
        Inject(usize),
        Take(usize),
        /// The oldest batch taken and not yet settled executes (`dropped == false`)
        /// or is dropped by a view change (`dropped == true`).
        Settle {
            dropped: bool,
        },
        /// Another client's batch executes.
        Foreign {
            client: u32,
            first_seq: u64,
            count: u32,
        },
    }

    fn decode((selector, a, b): (u8, u16, u16)) -> Op {
        match selector % 8 {
            0 | 1 => Op::Inject(a as usize % 40),
            2 | 3 => Op::Take(a as usize % 50),
            4 | 5 => Op::Settle { dropped: false },
            6 => Op::Settle { dropped: true },
            _ => Op::Foreign {
                client: u32::from(a % 5),
                first_seq: u64::from(b),
                count: u32::from(a % 17),
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The FIFO of runs against one map entry per request: same latency stream,
        /// same `outstanding()`, same batches, while the stub's own batches execute in
        /// take order, a random subset of them is dropped, and other clients' batches
        /// execute in between.
        #[test]
        fn matches_a_per_request_model(
            steps in proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 1..120),
        ) {
            const OWN: ClientId = ClientId(5);
            let mut pool = Mempool::new(OWN, 32);
            let mut in_flight: VecDeque<RequestRun> = VecDeque::new();
            let mut model_queue: VecDeque<u64> = VecDeque::new();
            let mut model_outstanding: HashMap<RequestId, SimTime> = HashMap::new();
            let mut model_next_seq = 0u64;

            for (step, triple) in steps.into_iter().enumerate() {
                // One injection per instant, as the replica's tick injects.
                let now = SimTime(1_000 * step as u64);
                let executed = match decode(triple) {
                    Op::Inject(count) => {
                        pool.inject(count, now);
                        for _ in 0..count {
                            model_outstanding.insert(RequestId::new(OWN, model_next_seq), now);
                            model_queue.push_back(model_next_seq);
                            model_next_seq += 1;
                        }
                        None
                    }
                    Op::Take(max) => {
                        let batch = pool.take_batch(max);
                        let expected: Vec<u64> = model_queue.drain(..max.min(model_queue.len())).collect();
                        prop_assert_eq!(batch.seqs().collect::<Vec<_>>(), expected);
                        prop_assert_eq!((batch.client, batch.size), (OWN, 32));
                        in_flight.push_back(batch);
                        None
                    }
                    Op::Settle { dropped } => in_flight.pop_front().filter(|_| !dropped),
                    Op::Foreign { client, first_seq, count } => {
                        Some(RequestRun { client: ClientId(client), first_seq, count, size: 32 })
                    }
                };
                if let Some(batch) = executed {
                    let mut got = Vec::new();
                    pool.acknowledge(&batch, now, |nanos, count| {
                        got.extend(std::iter::repeat_n(nanos, count as usize));
                    });
                    let expected: Vec<u64> = batch
                        .seqs()
                        .filter_map(|seq| model_outstanding.remove(&RequestId::new(batch.client, seq)))
                        .map(|at| now.saturating_since(at).as_nanos())
                        .collect();
                    // Emission order, which is stronger than the multiset.
                    prop_assert_eq!(got, expected);
                }
                prop_assert_eq!(pool.outstanding(), model_outstanding.len());
                prop_assert_eq!(pool.len(), model_queue.len());
                prop_assert_eq!(pool.injected(), model_next_seq);
                let queued: u64 = pool.runs.iter().map(|run| run.count).sum();
                prop_assert!(queued as usize <= pool.outstanding());
            }
        }
    }
}
