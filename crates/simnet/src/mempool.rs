//! The embedded client stub and per-replica mempool, shared by both protocols.
//!
//! Clients in the paper are separate machines that pick a responsible replica with the
//! deterministic function `µ(req)` and re-submit on timeout. In this reproduction the
//! client stub is co-located with each replica (see `DESIGN.md` §3): it injects
//! synthetic requests into the local mempool at the configured rate and measures the
//! submission → execution latency of exactly the requests it injected.
//!
//! Nothing here is per-request for synthetic load (`DESIGN.md` §5). The stub injects
//! requests with contiguous sequence numbers at one instant, so what is pending and
//! what is outstanding are both kept as *runs* `(first id, count)`; a `Request` value
//! exists only inside the batch `take_batch` hands to a datablock.

use crate::time::{SimDuration, SimTime};
use leopard_types::{ClientId, Request, RequestId};
use std::collections::{BTreeMap, VecDeque};

/// Requests waiting to be batched, in submission order.
#[derive(Debug)]
enum Pending {
    /// `count` synthetic requests of the local client starting at sequence `first_seq`.
    Synthetic { first_seq: u64, count: u64 },
    /// An externally supplied request.
    External(Request),
}

/// The tail of an outstanding run: how many requests follow its first id with
/// contiguous sequence numbers, and when all of them were submitted.
#[derive(Debug, Clone, Copy)]
struct Run {
    count: u64,
    submitted_at: SimTime,
}

/// Pending-request buffer plus the client stub's latency bookkeeping.
#[derive(Debug)]
pub struct Mempool {
    client: ClientId,
    payload_size: u32,
    next_seq: u64,
    queue: VecDeque<Pending>,
    /// Requests in `queue`.
    pending: usize,
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
    /// Creates an empty mempool whose client stub signs requests as `client`.
    pub fn new(client: ClientId, payload_size: u32) -> Self {
        Self {
            client,
            payload_size,
            next_seq: 0,
            queue: VecDeque::new(),
            pending: 0,
            runs: BTreeMap::new(),
            outstanding: 0,
            carry: 0.0,
        }
    }

    /// Number of pending (not yet batched) requests.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// True if no requests are pending.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Number of submitted requests whose acknowledgement is still outstanding.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Injects `count` synthetic requests at time `now`.
    pub fn inject(&mut self, count: usize, now: SimTime) {
        if count == 0 {
            return;
        }
        let first_seq = self.next_seq;
        let first = RequestId::new(self.client, first_seq);
        debug_assert!(
            self.runs
                .range(first..)
                .next()
                .is_none_or(|(id, _)| id.client != self.client),
            "an external request ran ahead of the local stub's sequence numbers"
        );
        let count = count as u64;
        match self.queue.back_mut() {
            Some(Pending::Synthetic {
                first_seq: queued_from,
                count: queued,
            }) if *queued_from + *queued == first_seq => *queued += count,
            _ => self.queue.push_back(Pending::Synthetic { first_seq, count }),
        }
        self.pending += count as usize;
        self.track(first, count, now);
        self.next_seq += count;
    }

    /// Interval of the open-loop injection timer both replicas arm.
    pub const TICK: SimDuration = SimDuration(10_000_000); // 10 ms

    /// One tick of the open-loop client stub: injects what `rps` requests per second
    /// offer over [`Self::TICK`], carrying the fractional request over to the next tick.
    pub fn inject_tick(&mut self, rps: f64, now: SimTime) {
        let per_tick = rps * Self::TICK.as_secs_f64() + self.carry;
        let whole = per_tick.floor() as usize;
        self.carry = per_tick - whole as f64;
        self.inject(whole, now);
    }

    /// Injects an externally supplied request (today only tests do; it is the entry
    /// point an external client needs). Submitting an id again restarts
    /// its latency clock; an id of the local client must be one [`Self::inject`] has
    /// already handed out.
    pub fn submit(&mut self, request: Request, now: SimTime) {
        if let Some((first, run)) = self.run_containing(request.id) {
            self.untrack(first, run, request.id.seq, 1);
        }
        self.track(request.id, 1, now);
        self.queue.push_back(Pending::External(request));
        self.pending += 1;
    }

    /// Extracts up to `max` requests for a new datablock.
    pub fn take_batch(&mut self, max: usize) -> Vec<Request> {
        let take = max.min(self.pending);
        let mut batch = Vec::with_capacity(take);
        let (client, size) = (self.client, self.payload_size);
        let synthetic = |first_seq: u64, count: u64| {
            (first_seq..first_seq + count).map(move |seq| Request::new_synthetic(client, seq, size))
        };
        while batch.len() < take {
            let room = (take - batch.len()) as u64;
            match self.queue.front_mut() {
                Some(Pending::Synthetic { first_seq, count }) if *count > room => {
                    batch.extend(synthetic(*first_seq, room));
                    *first_seq += room;
                    *count -= room;
                }
                _ => match self.queue.pop_front().expect("pending counts the queue") {
                    Pending::Synthetic { first_seq, count } => {
                        batch.extend(synthetic(first_seq, count));
                    }
                    Pending::External(request) => batch.push(request),
                },
            }
        }
        self.pending -= take;
        batch
    }

    /// Marks `requests` as executed at `now`, walking them once. Calls
    /// `latencies(nanos, count)` for every maximal stretch of consecutive requests that
    /// share one outstanding run — `count` requests of the local client stub whose
    /// submission-to-execution latency is `nanos` — in the order of `requests`.
    /// Requests that are not outstanding (other clients', or acknowledged before) are
    /// skipped.
    pub fn acknowledge(
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

    /// Total injected so far (for tests).
    pub fn injected(&self) -> u64 {
        self.next_seq
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
    use std::collections::HashMap;

    /// Acknowledges `requests` and returns the `(nanos, count)` stretches reported.
    fn acknowledge(pool: &mut Mempool, requests: &[Request], now: SimTime) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        pool.acknowledge(requests, now, |nanos, count| out.push((nanos, count)));
        out
    }

    #[test]
    fn inject_and_batch() {
        let mut pool = Mempool::new(ClientId(3), 128);
        assert!(pool.is_empty());
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
        assert!(pool.is_empty());
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
    fn submit_external_request() {
        let mut pool = Mempool::new(ClientId(1), 128);
        let request = Request::new_inline(ClientId(7), 3, b"external".to_vec());
        pool.submit(request.clone(), SimTime(10));
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.take_batch(1), vec![request.clone()]);
        assert_eq!(
            acknowledge(&mut pool, &[request], SimTime(30)),
            vec![(20, 1)]
        );
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

    /// A saturated producer's cycle leaves nothing behind: no queue slots and no map
    /// buckets that scale with the requests that went through.
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
        assert_eq!((pool.outstanding(), pool.runs.len()), (0, 0));
        assert!(
            pool.queue.capacity() <= 8,
            "queue kept {} slots",
            pool.queue.capacity()
        );
    }

    /// One step of a random schedule, decoded from a `(selector, a, b)` triple.
    #[derive(Debug)]
    enum Op {
        Inject(usize),
        Submit {
            client: u32,
            seq: u64,
        },
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
        match selector % 8 {
            0 | 1 => Op::Inject(a as usize % 40),
            2 => Op::Submit {
                client: 5 + u32::from(a % 3),
                seq: u64::from(b % 24),
            },
            3 | 4 => Op::Take(a as usize % 50),
            5 | 6 => Op::Acknowledge {
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
                    Op::Submit { client, seq } => {
                        // External ids collide with each other, and as re-submissions
                        // with injected ones (never ahead of the stub's own numbering).
                        let seq = if ClientId(client) == OWN {
                            if model_next_seq == 0 {
                                continue;
                            }
                            seq % model_next_seq
                        } else {
                            seq
                        };
                        let request = Request::new_inline(ClientId(client), seq, vec![1, 2, 3]);
                        pool.submit(request.clone(), now);
                        model_outstanding.insert(request.id, now);
                        model_queue.push_back(request);
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
