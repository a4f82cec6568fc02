//! The HotStuff leader's co-located client stub and mempool.
//!
//! Clients in HotStuff submit to the leader. In this reproduction the client stub is
//! co-located with each replica (see `DESIGN.md` §3): while the replica leads, it
//! injects synthetic requests at the configured rate and measures the submission →
//! execution latency of exactly the requests it injected.
//!
//! Nothing here is per-request (`DESIGN.md` §5). The stub injects requests with
//! contiguous sequence numbers at one instant, so what is pending is one range of
//! sequence numbers and what is outstanding is kept as *runs* `(first id, count)`; a
//! `Request` value exists only inside the batch `take_batch` hands to a block.

use leopard_simnet::{SimDuration, SimTime};
use leopard_types::{ClientId, Request, RequestId};
use std::collections::BTreeMap;

/// The tail of an outstanding run: how many requests follow its first id with
/// contiguous sequence numbers, and when all of them were submitted.
#[derive(Debug, Clone, Copy)]
struct Run {
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
    /// Submitted requests that have not been executed yet: disjoint runs keyed by
    /// the id of their first request.
    runs: BTreeMap<RequestId, Run>,
    /// Requests in `runs`.
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
            runs: BTreeMap::new(),
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
        let count = count as u64;
        self.track(RequestId::new(self.client, self.next_seq), count, now);
        self.next_seq += count;
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
    pub(crate) fn take_batch(&mut self, max: usize) -> Vec<Request> {
        let first = self.batched;
        self.batched = self.next_seq.min(first.saturating_add(max as u64));
        let (client, size) = (self.client, self.payload_size);
        (first..self.batched)
            .map(|seq| Request::new_synthetic(client, seq, size))
            .collect()
    }

    /// Marks `requests` as executed at `now`, walking them once. Calls
    /// `latencies(nanos, count)` for every maximal stretch of consecutive requests that
    /// share one outstanding run — `count` requests of the local client stub whose
    /// submission-to-execution latency is `nanos` — in the order of `requests`.
    /// Requests that are not outstanding (other clients', or acknowledged before) are
    /// skipped.
    pub(crate) fn acknowledge(
        &mut self,
        requests: &[Request],
        now: SimTime,
        mut latencies: impl FnMut(u64, u64),
    ) {
        let mut rest = requests;
        while self.outstanding > 0 && !rest.is_empty() {
            let id = rest[0].id;
            let Some((first, run)) = self.run_containing(id) else {
                rest = &rest[1..];
                continue;
            };
            let available = first.seq + run.count - id.seq;
            let mut taken = 1u64;
            while taken < available
                && rest
                    .get(taken as usize)
                    .is_some_and(|r| r.id.client == id.client && r.id.seq == id.seq + taken)
            {
                taken += 1;
            }
            self.untrack(first, run, id.seq, taken);
            latencies(now.saturating_since(run.submitted_at).as_nanos(), taken);
            rest = &rest[taken as usize..];
        }
    }

    /// The outstanding run that holds `id`, with the id of its first request.
    fn run_containing(&self, id: RequestId) -> Option<(RequestId, Run)> {
        let (&first, &run) = self.runs.range(..=id).next_back()?;
        (first.client == id.client && id.seq - first.seq < run.count).then_some((first, run))
    }

    /// Records `count` requests starting at `first` as submitted at `now`, extending the
    /// run that ends right before them if it was submitted at the same instant.
    fn track(&mut self, first: RequestId, count: u64, now: SimTime) {
        self.outstanding += count as usize;
        if let Some((&before, run)) = self.runs.range_mut(..first).next_back() {
            if before.client == first.client
                && before.seq + run.count == first.seq
                && run.submitted_at == now
            {
                run.count += count;
                return;
            }
        }
        self.runs.insert(
            first,
            Run {
                count,
                submitted_at: now,
            },
        );
    }

    /// Removes the `count` requests starting at sequence `from` out of `run` (which
    /// starts at `first`), keeping what lies before and after them as runs of their own.
    fn untrack(&mut self, first: RequestId, run: Run, from: u64, count: u64) {
        self.outstanding -= count as usize;
        let end = from + count;
        let run_end = first.seq + run.count;
        if from > first.seq {
            self.runs
                .get_mut(&first)
                .expect("caller looked it up")
                .count = from - first.seq;
        } else {
            self.runs.remove(&first);
        }
        if end < run_end {
            self.runs.insert(
                RequestId::new(first.client, end),
                Run {
                    count: run_end - end,
                    submitted_at: run.submitted_at,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{HashMap, VecDeque};

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

    /// Acknowledges `requests` and returns the `(nanos, count)` stretches reported.
    fn acknowledge(pool: &mut Mempool, requests: &[Request], now: SimTime) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        pool.acknowledge(requests, now, |nanos, count| out.push((nanos, count)));
        out
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
        let expected: Vec<Request> = (0..4)
            .map(|seq| Request::new_synthetic(ClientId(3), seq, 128))
            .collect();
        assert_eq!(batch, expected);
        assert_eq!(pool.take_batch(1)[0].id.seq, 4);
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
        // Second acknowledgement of the same request is ignored.
        assert_eq!(acknowledge(&mut pool, &batch, SimTime(9_000)), vec![]);
        // Requests from other clients are not ours.
        let foreign = [Request::new_synthetic(ClientId(9), 0, 128)];
        pool.inject(1, SimTime(9_000));
        assert_eq!(acknowledge(&mut pool, &foreign, SimTime(9_000)), vec![]);
        assert_eq!(pool.outstanding(), 1);
    }

    #[test]
    fn one_stretch_per_run_and_runs_split_on_partial_acknowledgement() {
        let mut pool = Mempool::new(ClientId(2), 64);
        pool.inject(4, SimTime(100));
        pool.inject(4, SimTime(100)); // same instant: extends the run
        pool.inject(2, SimTime(300));
        let batch = pool.take_batch(10);
        // The middle of the first run, then across the boundary to the second.
        assert_eq!(
            acknowledge(&mut pool, &batch[2..5], SimTime(1_000)),
            vec![(900, 3)]
        );
        assert_eq!(pool.outstanding(), 7);
        assert_eq!(
            acknowledge(&mut pool, &batch, SimTime(2_000)),
            vec![(1_900, 2), (1_900, 3), (1_700, 2)]
        );
        assert_eq!(pool.outstanding(), 0);
        // Out of order: every request is a stretch of its own.
        pool.inject(3, SimTime(2_000));
        let mut batch = pool.take_batch(3);
        batch.reverse();
        assert_eq!(
            acknowledge(&mut pool, &batch, SimTime(2_500)),
            vec![(500, 1), (500, 1), (500, 1)]
        );
    }

    /// A saturated producer's cycle leaves nothing behind: no map buckets that scale
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
        /// Acknowledge `len` of the taken-but-unacknowledged requests from `start`
        /// (both modulo what is there), reversed if `reverse`, then keep or forget them.
        Acknowledge {
            start: usize,
            len: usize,
            reverse: bool,
            forget: bool,
        },
        AcknowledgeForeign {
            client: u32,
            seq: u64,
        },
    }

    fn decode((selector, a, b): (u8, u16, u16)) -> Op {
        match selector % 7 {
            0 | 1 => Op::Inject(a as usize % 40),
            2 | 3 => Op::Take(a as usize % 50),
            4 | 5 => Op::Acknowledge {
                start: a as usize,
                len: b as usize % 64,
                reverse: a % 5 == 0,
                forget: b % 3 != 0,
            },
            _ => Op::AcknowledgeForeign {
                client: u32::from(a % 9),
                seq: u64::from(b),
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The run-length bookkeeping against one map entry per request: same latency
        /// multiset, same `outstanding()`, same batches, under partial, out-of-order,
        /// repeated and foreign acknowledgements.
        #[test]
        fn matches_a_per_request_model(
            steps in proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 1..120),
        ) {
            const OWN: ClientId = ClientId(5);
            let mut pool = Mempool::new(OWN, 32);
            let mut model_queue: VecDeque<Request> = VecDeque::new();
            let mut model_outstanding: HashMap<RequestId, SimTime> = HashMap::new();
            let mut model_next_seq = 0u64;
            let mut taken: Vec<Request> = Vec::new();

            for (step, triple) in steps.into_iter().enumerate() {
                // Time advances every other step, so some runs share an instant.
                let now = SimTime(1_000 * (step as u64 / 2));
                match decode(triple) {
                    Op::Inject(count) => {
                        pool.inject(count, now);
                        for _ in 0..count {
                            let request = Request::new_synthetic(OWN, model_next_seq, 32);
                            model_next_seq += 1;
                            model_outstanding.insert(request.id, now);
                            model_queue.push_back(request);
                        }
                    }
                    Op::Take(max) => {
                        let batch = pool.take_batch(max);
                        let take = max.min(model_queue.len());
                        let expected: Vec<Request> = model_queue.drain(..take).collect();
                        prop_assert_eq!(&batch, &expected);
                        taken.extend(batch);
                    }
                    Op::Acknowledge { start, len, reverse, forget } => {
                        if taken.is_empty() {
                            continue;
                        }
                        let start = start % taken.len();
                        let end = (start + len).min(taken.len());
                        let mut requests: Vec<Request> = taken[start..end].to_vec();
                        if reverse {
                            requests.reverse();
                        }
                        let mut got = Vec::new();
                        pool.acknowledge(&requests, now, |nanos, count| {
                            got.extend(std::iter::repeat_n(nanos, count as usize));
                        });
                        let expected: Vec<u64> = requests
                            .iter()
                            .filter_map(|r| model_outstanding.remove(&r.id))
                            .map(|at| now.saturating_since(at).as_nanos())
                            .collect();
                        // Emission order, which is stronger than the multiset.
                        prop_assert_eq!(got, expected);
                        if forget {
                            taken.drain(start..end);
                        }
                    }
                    Op::AcknowledgeForeign { client, seq } => {
                        let request = Request::new_synthetic(ClientId(client), seq, 32);
                        let got = acknowledge(&mut pool, std::slice::from_ref(&request), now);
                        let expected: Vec<(u64, u64)> = model_outstanding
                            .remove(&request.id)
                            .map(|at| (now.saturating_since(at).as_nanos(), 1))
                            .into_iter()
                            .collect();
                        prop_assert_eq!(got, expected);
                    }
                }
                prop_assert_eq!(pool.outstanding(), model_outstanding.len());
                prop_assert_eq!(pool.len(), model_queue.len());
                prop_assert_eq!(pool.injected(), model_next_seq);
                let tracked: u64 = pool.runs.values().map(|run| run.count).sum();
                prop_assert_eq!(tracked as usize, pool.outstanding());
            }
        }
    }
}
