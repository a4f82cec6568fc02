//! Metric collection: per-node, per-category traffic accounting and protocol
//! observations.

use crate::time::SimTime;
use leopard_types::NodeId;
use std::borrow::Cow;

/// A protocol-level observation emitted through [`crate::Context::observe`].
///
/// Observations are the channel through which protocol implementations report
/// throughput-, latency- and fault-related facts to the experiment harness without the
/// harness having to understand protocol internals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObservationKind {
    /// `count` requests totalling `payload_bytes` became confirmed at this node. The
    /// sink counts it exactly like a [`Self::BlockCommitted`] of `count` requests
    /// without a sequence number; the bundled protocols emit only the latter.
    RequestsConfirmed {
        /// Number of requests confirmed.
        count: u64,
        /// Total request payload bytes confirmed.
        payload_bytes: u64,
    },
    /// A client measured end-to-end latency for one request (submission →
    /// acknowledgement), in nanoseconds.
    RequestLatency {
        /// Latency in nanoseconds.
        nanos: u64,
    },
    /// A client measured the same end-to-end latency for `count` requests at once —
    /// what a datablock's worth of requests submitted at one instant and executed at
    /// one instant yields. Equivalent to `count` [`Self::RequestLatency`] observations.
    RequestLatencies {
        /// Latency in nanoseconds, of each of the requests.
        nanos: u64,
        /// Number of requests.
        count: u64,
    },
    /// A BFTblock (or HotStuff block) was executed at this node, confirming its
    /// `requests`. The sink counts it (see [`MetricsSink`]); it never enters the log.
    BlockCommitted {
        /// The serial number / height of the block.
        sequence: u64,
        /// Number of requests the block confirms.
        requests: u64,
    },
    /// The node entered a new view.
    ViewChange {
        /// The new view number.
        view: u64,
    },
    /// One datablock retrieval round-trip completed.
    RetrievalCompleted {
        /// Nanoseconds between the query and the successful decode.
        nanos: u64,
        /// Bytes received while recovering the datablock.
        received_bytes: u64,
    },
    /// A labelled scalar sample, for protocol-specific breakdowns (e.g. stage latencies).
    Custom {
        /// Sample label.
        label: &'static str,
        /// Sample value.
        value: u64,
    },
}

/// An observation together with when and where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observation {
    /// Simulated time at which the observation was emitted.
    pub at: SimTime,
    /// Node that emitted it.
    pub node: NodeId,
    /// The payload.
    pub kind: ObservationKind,
}

/// One block execution at one node: how a [`MetricsSink`] that has not declared its
/// instants keeps [`ObservationKind::BlockCommitted`] (and
/// [`ObservationKind::RequestsConfirmed`]) observations, one 24-byte record per
/// (replica, executed block) instead of a log entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitRecord {
    /// Simulated time of the execution.
    pub at: SimTime,
    /// The block's serial number / height (0 for a folded `RequestsConfirmed`).
    pub sequence: u64,
    /// Node that executed the block.
    pub node: NodeId,
    /// Requests the block confirmed; a block with none is not a confirmation.
    pub requests: u32,
}

const _: () = assert!(std::mem::size_of::<CommitRecord>() <= 24);

/// `count` request-latency samples of `nanos` each, measured at `node`: how
/// [`MetricsSink`] keeps [`ObservationKind::RequestLatency`] and
/// [`ObservationKind::RequestLatencies`] observations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyRun {
    /// Node whose client stub measured the samples.
    pub node: NodeId,
    /// Latency of every sample, in nanoseconds.
    pub nanos: u64,
    /// Number of samples.
    pub count: u64,
}

impl LatencyRun {
    /// Adds the run's samples, in seconds, to `sum` one sample at a time. Averages in
    /// reports are f64 sums over samples in emission order; `secs * count` would
    /// round differently and move table cells in their last digits.
    pub fn add_secs_to(&self, sum: &mut f64) {
        let secs = self.nanos as f64 / 1e9;
        for _ in 0..self.count {
            *sum += secs;
        }
    }
}

/// Per-node, per-category traffic counters (bytes and message counts).
///
/// Recording is the engine's hottest metrics path (once per received copy of every
/// multicast, plus one sent record per message), so the counters live in two flat
/// `Vec`s indexed by `category-slot × node` with the categories interned into a tiny
/// table — a handful of `&'static str` labels per protocol. The engine resolves a
/// message's category row once ([`TrafficMatrix::category_row`]) and records each
/// copy at `row + node`. The old `BTreeMap<(node, category), …>`
/// paid an ordered-map walk per record; interning costs a short linear scan over
/// ≤ ~12 labels instead, and query/iteration APIs sort on demand so the observable
/// order (node-major, categories alphabetical, only touched cells) is exactly the
/// old map iteration order.
#[derive(Debug, Clone)]
pub struct TrafficMatrix {
    /// Interned category labels, in first-seen order.
    categories: Vec<&'static str>,
    /// Row stride: counters are stored at `slot * nodes + node`.
    nodes: usize,
    /// `(bytes, messages)` sent, `categories.len() * nodes` entries.
    sent: Vec<(u64, u64)>,
    /// `(bytes, messages)` received, `categories.len() * nodes` entries.
    received: Vec<(u64, u64)>,
}

impl TrafficMatrix {
    /// Creates an empty matrix for `nodes` nodes.
    pub fn with_nodes(nodes: usize) -> Self {
        Self {
            categories: Vec::new(),
            nodes,
            sent: Vec::new(),
            received: Vec::new(),
        }
    }

    /// The row of `category`, interning it if it is new: the counters of
    /// `(node, category)` sit at `row + node`. The engine resolves it once per sent
    /// message, so the copies of a fan-out skip the label scan.
    pub fn category_row(&mut self, category: &'static str) -> usize {
        // Categories are `'static` literals from a handful of call sites, so the
        // pointer comparison almost always hits before the content fallback (which
        // stays for the correctness of distinct-address equal-content strings).
        let found = self
            .categories
            .iter()
            .position(|&c| std::ptr::eq(c.as_ptr(), category.as_ptr()) && c.len() == category.len())
            .or_else(|| self.categories.iter().position(|&c| c == category));
        let slot = match found {
            Some(slot) => slot,
            None => {
                self.categories.push(category);
                self.sent.resize(self.categories.len() * self.nodes, (0, 0));
                self.received.resize(self.categories.len() * self.nodes, (0, 0));
                self.categories.len() - 1
            }
        };
        slot * self.nodes
    }

    /// The flat index of `node` in the category at `row`.
    fn index(&self, row: usize, node: NodeId) -> usize {
        assert!(
            node.as_index() < self.nodes,
            "traffic matrix sized for {} nodes, got node {}",
            self.nodes,
            node.as_index()
        );
        row + node.as_index()
    }

    /// Records `messages` sent messages of `bytes` each by `node` in the category at
    /// `row` (a fan-out's `n − 1` copies in one call).
    pub fn add_sent(&mut self, row: usize, node: NodeId, bytes: u64, messages: u64) {
        let index = self.index(row, node);
        let entry = &mut self.sent[index];
        entry.0 += bytes * messages;
        entry.1 += messages;
    }

    /// Records one received message of `bytes` at `node` in the category at `row`.
    pub fn add_received(&mut self, row: usize, node: NodeId, bytes: u64) {
        let index = self.index(row, node);
        let entry = &mut self.received[index];
        entry.0 += bytes;
        entry.1 += 1;
    }

    /// Sums one node's column of `counters` across all categories.
    fn node_bytes(&self, counters: &[(u64, u64)], node: usize) -> u64 {
        if node >= self.nodes {
            return 0;
        }
        (0..self.categories.len())
            .map(|slot| counters[slot * self.nodes + node].0)
            .sum()
    }

    /// Total bytes sent by `node` across all categories.
    pub fn sent_bytes(&self, node: NodeId) -> u64 {
        self.node_bytes(&self.sent, node.as_index())
    }

    /// Total bytes received by `node` across all categories.
    pub fn received_bytes(&self, node: NodeId) -> u64 {
        self.node_bytes(&self.received, node.as_index())
    }

    /// One cell of `counters`, or zero if the node or category was never touched.
    fn bytes_in(&self, counters: &[(u64, u64)], node: usize, category: &str) -> u64 {
        if node >= self.nodes {
            return 0;
        }
        self.categories
            .iter()
            .position(|&c| c == category)
            .map_or(0, |slot| counters[slot * self.nodes + node].0)
    }

    /// Bytes sent by `node` in a given category.
    pub fn sent_bytes_in(&self, node: NodeId, category: &'static str) -> u64 {
        self.bytes_in(&self.sent, node.as_index(), category)
    }

    /// Bytes received by `node` in a given category.
    pub fn received_bytes_in(&self, node: NodeId, category: &'static str) -> u64 {
        self.bytes_in(&self.received, node.as_index(), category)
    }

    /// Iterates over `(node, category, bytes, messages)` for sent traffic: the touched
    /// cells, node-major, categories alphabetical within a node.
    pub fn iter_sent(&self) -> impl Iterator<Item = (NodeId, &'static str, u64, u64)> + '_ {
        let mut order: Vec<usize> = (0..self.categories.len()).collect();
        order.sort_unstable_by_key(|&slot| self.categories[slot]);
        (0..self.nodes).flat_map(move |node| {
            order.clone().into_iter().filter_map(move |slot| {
                let (bytes, messages) = self.sent[slot * self.nodes + node];
                (messages > 0)
                    .then(|| (NodeId(node as u32), self.categories[slot], bytes, messages))
            })
        })
    }

    /// All categories in which a message was recorded, sent or received. The engine
    /// interns a message's category before it knows whether any copy leaves (a
    /// crashed sender, a self-delivery), so a row with no record is left out.
    pub fn categories(&self) -> Vec<&'static str> {
        let recorded = |slot: usize| {
            let row = slot * self.nodes..(slot + 1) * self.nodes;
            self.sent[row.clone()].iter().chain(&self.received[row]).any(|&(_, messages)| messages > 0)
        };
        let mut categories: Vec<&'static str> =
            (0..self.categories.len()).filter(|&slot| recorded(slot)).map(|slot| self.categories[slot]).collect();
        categories.sort_unstable();
        categories
    }

    /// Total bytes sent across the whole system.
    pub fn total_sent_bytes(&self) -> u64 {
        self.sent.iter().map(|&(bytes, _)| bytes).sum()
    }

    /// Total bytes received across the whole system.
    pub fn total_received_bytes(&self) -> u64 {
        self.received.iter().map(|&(bytes, _)| bytes).sum()
    }
}

/// A fixed-bucket logarithmic histogram of latency samples in nanoseconds.
///
/// Buckets are exact below 32 ns and 1/16-octave geometric above (16 sub-buckets per
/// power of two), covering the full `u64` nanosecond range in a constant 976 counters
/// — memory stays O(1) no matter how many samples a run records. Percentile queries
/// return the midpoint of the bucket holding the requested rank, so the relative
/// error is bounded by half a bucket width (≈ 3%).
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
}

/// Exact buckets cover `[0, LINEAR_LIMIT)`; geometric buckets take over above.
const LINEAR_LIMIT: u64 = 32;
/// Sub-buckets per octave in the geometric range.
const SUB_BUCKETS: usize = 16;
/// Total bucket count: `63 * 16 + 15 - 48 + 1` (the index of `u64::MAX`, plus one).
const NUM_BUCKETS: usize = 976;

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; NUM_BUCKETS],
            total: 0,
        }
    }

    fn bucket_index(nanos: u64) -> usize {
        if nanos < LINEAR_LIMIT {
            return nanos as usize;
        }
        let exp = 63 - nanos.leading_zeros() as usize; // ≥ 5 here
        let frac = ((nanos >> (exp - 4)) & 15) as usize;
        exp * SUB_BUCKETS + frac - 48
    }

    /// The `[lower, upper)` nanosecond range of bucket `index` (`upper` saturates at
    /// `u64::MAX` for the topmost buckets).
    fn bucket_bounds(index: usize) -> (u64, u64) {
        if index < LINEAR_LIMIT as usize {
            return (index as u64, index as u64 + 1);
        }
        let exp = (index + 48) / SUB_BUCKETS;
        let frac = ((index + 48) % SUB_BUCKETS) as u64;
        let lower = (1u64 << exp) + (frac << (exp - 4));
        let width = 1u64 << (exp - 4);
        (lower, lower.saturating_add(width))
    }

    /// Records one latency sample.
    pub fn record(&mut self, nanos: u64) {
        self.record_n(nanos, 1);
    }

    /// Records `count` samples of the same latency.
    pub fn record_n(&mut self, nanos: u64, count: u64) {
        self.counts[Self::bucket_index(nanos)] += count;
        self.total += count;
    }

    /// Number of samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Whether no sample has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The `p`-quantile (`p` in `[0, 1]`, clamped) in nanoseconds, or `None` if the
    /// histogram is empty. Returns the midpoint of the bucket containing the rank
    /// `ceil(p · total)`.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cumulative = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            cumulative += count;
            if cumulative >= rank {
                let (lower, upper) = Self::bucket_bounds(index);
                return Some(lower + (upper - lower) / 2);
            }
        }
        None // unreachable: total > 0 guarantees some bucket reaches the rank
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-node confirmation totals from one instant on: what the confirmation queries
/// ask of the block executions at or after `start`.
#[derive(Debug, Clone)]
struct Tally {
    start: SimTime,
    /// Requests confirmed at or after `start`, per node.
    confirmed: Vec<u64>,
    /// The earliest confirmation at or after `start`, per node. The smallest instant
    /// seen, not the first: with more than one core a node's completions reach the
    /// sink out of order.
    first: Vec<Option<SimTime>>,
}

impl Tally {
    fn new(start: SimTime, nodes: usize) -> Self {
        Self {
            start,
            confirmed: vec![0; nodes],
            first: vec![None; nodes],
        }
    }

    /// The totals of `records` from `start` on.
    fn of_records(start: SimTime, nodes: usize, records: &[CommitRecord]) -> Self {
        let mut tally = Self::new(start, nodes);
        for record in records {
            tally.add(record.at, record.node.as_index(), u64::from(record.requests));
        }
        tally
    }

    fn add(&mut self, at: SimTime, index: usize, requests: u64) {
        if at < self.start {
            return;
        }
        self.confirmed[index] += requests;
        let first = &mut self.first[index];
        if requests > 0 && first.is_none_or(|first| at < first) {
            *first = Some(at);
        }
    }

    fn max_confirmed(&self, nodes: usize) -> u64 {
        self.confirmed.iter().take(nodes).copied().max().unwrap_or(0)
    }

    fn first_confirmations(&self, nodes: usize) -> Vec<Option<SimTime>> {
        (0..nodes).map(|node| self.first.get(node).copied().flatten()).collect()
    }

    fn heap_bytes(&self) -> usize {
        self.confirmed.capacity() * std::mem::size_of::<u64>()
            + self.first.capacity() * std::mem::size_of::<Option<SimTime>>()
    }
}

/// Two checks over the whole stream of block executions, kept as the executions
/// happen whether or not the sink keeps their [`CommitRecord`]s: two runs with equal
/// digests executed the same blocks at the same instants in the same order (up to a
/// 64-bit hash collision).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitDigest {
    /// Block executions, confirming requests or not.
    pub executions: u64,
    /// [`ObservationKind::BlockCommitted`] executions whose sequence is not the
    /// previous sequence its node executed plus one (a node's first execution is
    /// expected at 1). A [`ObservationKind::RequestsConfirmed`] carries no sequence
    /// and is not counted.
    pub out_of_order: u64,
    /// A 64-bit hash of every execution's `(node, sequence, at, requests)`, in
    /// emission order.
    pub fingerprint: u64,
}

impl CommitDigest {
    fn add(&mut self, record: &CommitRecord) {
        self.executions += 1;
        // FxHash's word step: a rotate, an xor and a multiply per word.
        let words = [
            u64::from(record.node.0),
            record.sequence,
            record.at.as_nanos(),
            u64::from(record.requests),
        ];
        for word in words {
            self.fingerprint =
                (self.fingerprint.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }
}

/// Collects traffic counters and observations during a run.
///
/// # Block executions
///
/// A sink keeps one [`CommitRecord`] per block execution until the instants its
/// confirmation queries will ask about are declared
/// ([`Self::declare_instants`]); from then on it keeps, per node, only the running
/// totals from each declared instant on, and any instant can no longer be asked.
/// The whole-run totals and the [`CommitDigest`] are kept either way.
#[derive(Debug)]
pub struct MetricsSink {
    /// Traffic counters.
    pub traffic: TrafficMatrix,
    /// Ordered list of protocol observations, request latencies (see
    /// [`Self::latency_runs`]) and block executions (see [`Self::commit_digest`])
    /// excepted: view changes, retrievals and custom samples.
    pub observations: Vec<Observation>,
    /// O(1)-memory histogram of every request-latency sample, for percentile
    /// reporting.
    pub latency_histogram: LatencyHistogram,
    /// Request-latency samples in emission order, one entry per observation rather
    /// than per request.
    latency_runs: Vec<LatencyRun>,
    /// Every block execution in emission order, until instants are declared.
    commits: Option<Vec<CommitRecord>>,
    /// The per-node totals of the whole run, maintained on [`Self::observe`] so
    /// whole-run queries never rescan the records.
    totals: Tally,
    /// The per-node totals from each declared instant other than zero on.
    windows: Vec<Tally>,
    /// The streaming checks over every block execution.
    digest: CommitDigest,
    /// The sequence of each node's latest [`ObservationKind::BlockCommitted`].
    last_sequence: Vec<u64>,
}

impl MetricsSink {
    /// Creates an empty sink for `nodes` nodes: the traffic matrix rows and the
    /// per-node confirmation counters are allocated up front.
    pub fn with_nodes(nodes: usize) -> Self {
        Self {
            traffic: TrafficMatrix::with_nodes(nodes),
            observations: Vec::new(),
            latency_histogram: LatencyHistogram::new(),
            latency_runs: Vec::new(),
            commits: Some(Vec::new()),
            totals: Tally::new(SimTime::ZERO, nodes),
            windows: Vec::new(),
            digest: CommitDigest::default(),
            last_sequence: vec![0; nodes],
        }
    }

    /// Declares every instant the confirmation queries
    /// ([`Self::max_confirmed_requests_since`], [`Self::first_confirmations_since`])
    /// will ask about. The sink folds the records it kept so far into per-node
    /// totals from each instant on, drops them and keeps no further record: its
    /// commit state no longer grows with the run. Zero is always answerable, from the
    /// whole-run totals.
    ///
    /// # Panics
    ///
    /// If instants were declared before.
    pub fn declare_instants(&mut self, instants: &[SimTime]) {
        let records = self.commits.take().expect("a metrics sink declares its instants once");
        let nodes = self.totals.confirmed.len();
        for &start in instants {
            if start == SimTime::ZERO || self.windows.iter().any(|window| window.start == start) {
                continue;
            }
            self.windows.push(Tally::of_records(start, nodes, &records));
        }
    }

    /// Records an observation. Request latencies go to the histogram and
    /// [`Self::latency_runs`], block executions to the per-node totals, the
    /// [`CommitDigest`] and, until instants are declared, [`Self::commits`];
    /// everything else is appended to [`Self::observations`].
    ///
    /// # Panics
    ///
    /// If a block execution names a node at or above the sink's size, or confirms more
    /// than `u32::MAX` requests.
    pub fn observe(&mut self, at: SimTime, node: NodeId, kind: ObservationKind) {
        match kind {
            ObservationKind::RequestLatency { nanos } => self.record_latencies(node, nanos, 1),
            ObservationKind::RequestLatencies { nanos, count } => {
                self.record_latencies(node, nanos, count)
            }
            ObservationKind::BlockCommitted { sequence, requests } => {
                self.record_commit(at, node, sequence, requests);
                let last = &mut self.last_sequence[node.as_index()];
                if sequence != *last + 1 {
                    self.digest.out_of_order += 1;
                }
                *last = sequence;
            }
            ObservationKind::RequestsConfirmed { count, .. } => {
                self.record_commit(at, node, 0, count)
            }
            _ => self.observations.push(Observation { at, node, kind }),
        }
    }

    fn record_commit(&mut self, at: SimTime, node: NodeId, sequence: u64, requests: u64) {
        let index = node.as_index();
        assert!(
            index < self.last_sequence.len(),
            "metrics sink sized for {} nodes, got node {index}",
            self.last_sequence.len()
        );
        let count = u32::try_from(requests)
            .unwrap_or_else(|_| panic!("node {index} confirmed {requests} requests in one block"));
        let record = CommitRecord {
            at,
            sequence,
            node,
            requests: count,
        };
        self.digest.add(&record);
        self.totals.add(at, index, requests);
        for window in &mut self.windows {
            window.add(at, index, requests);
        }
        if let Some(commits) = &mut self.commits {
            commits.push(record);
        }
    }

    fn record_latencies(&mut self, node: NodeId, nanos: u64, count: u64) {
        if count > 0 {
            self.latency_histogram.record_n(nanos, count);
            self.latency_runs.push(LatencyRun { node, nanos, count });
        }
    }

    /// Every block execution, in emission order.
    ///
    /// # Panics
    ///
    /// If the sink declared its instants and so keeps no records; compare
    /// [`Self::commit_digest`] instead.
    pub fn commits(&self) -> &[CommitRecord] {
        self.commits.as_deref().expect(
            "this metrics sink declared its instants and keeps no commit records; \
             read commit_digest() instead",
        )
    }

    /// The block executions that confirmed at least one request, in emission order.
    ///
    /// # Panics
    ///
    /// As [`Self::commits`].
    pub fn confirmations(&self) -> impl Iterator<Item = &CommitRecord> + '_ {
        self.commits().iter().filter(|commit| commit.requests > 0)
    }

    /// The streaming checks over every block execution so far.
    pub fn commit_digest(&self) -> CommitDigest {
        self.digest
    }

    /// Heap bytes the sink holds for block executions: the records, if it keeps
    /// them, and the per-node totals. Constant over a run once instants are declared.
    pub fn commit_state_bytes(&self) -> usize {
        let records = self.commits.as_ref().map_or(0, |commits| {
            commits.capacity() * std::mem::size_of::<CommitRecord>()
        });
        records
            + self.totals.heap_bytes()
            + self.windows.iter().map(Tally::heap_bytes).sum::<usize>()
            + self.last_sequence.capacity() * std::mem::size_of::<u64>()
    }

    /// The per-node totals from `start` on: the whole-run totals for zero, a
    /// declared instant's, or, while the sink keeps its records, a fold over them.
    ///
    /// # Panics
    ///
    /// If the sink declared its instants and `start` is neither zero nor one of them.
    fn tally_since(&self, start: SimTime) -> Cow<'_, Tally> {
        if start == SimTime::ZERO {
            return Cow::Borrowed(&self.totals);
        }
        if let Some(window) = self.windows.iter().find(|window| window.start == start) {
            return Cow::Borrowed(window);
        }
        let Some(records) = &self.commits else {
            let declared: Vec<SimTime> = self.windows.iter().map(|window| window.start).collect();
            panic!(
                "metrics sink asked about {start:?}, which it did not declare (declared: zero and \
                 {declared:?})"
            );
        };
        Cow::Owned(Tally::of_records(start, self.totals.confirmed.len(), records))
    }

    /// For each node in `0..nodes`, the instant of its first confirmation at or after
    /// `start`, or `None` if it confirmed nothing from then on.
    ///
    /// # Panics
    ///
    /// If the sink declared its instants and `start` is neither zero nor one of them.
    pub fn first_confirmations_since(&self, nodes: usize, start: SimTime) -> Vec<Option<SimTime>> {
        self.tally_since(start).first_confirmations(nodes)
    }

    /// Total requests confirmed by the block executions of `node`.
    pub fn confirmed_requests_at(&self, node: NodeId) -> u64 {
        self.totals.confirmed.get(node.as_index()).copied().unwrap_or(0)
    }

    /// The largest number of confirmed requests reported by any single node.
    ///
    /// Throughput is measured "from the server's side" in the paper; using the maximum
    /// over nodes avoids double counting while still reflecting system progress.
    pub fn max_confirmed_requests(&self, nodes: usize) -> u64 {
        self.totals.max_confirmed(nodes)
    }

    /// The largest number of confirmed requests reported by any single node, counting
    /// only block executions at or after `start` (for warm-up-excluding throughput).
    ///
    /// # Panics
    ///
    /// If the sink declared its instants and `start` is neither zero nor one of them.
    pub fn max_confirmed_requests_since(&self, nodes: usize, start: SimTime) -> u64 {
        self.tally_since(start).max_confirmed(nodes)
    }

    /// Request-latency samples in emission order, run-length encoded.
    pub fn latency_runs(&self) -> &[LatencyRun] {
        &self.latency_runs
    }

    /// All request latency samples in nanoseconds, in emission order.
    pub fn latency_samples(&self) -> Vec<u64> {
        let mut samples = Vec::with_capacity(self.latency_histogram.total() as usize);
        for run in &self.latency_runs {
            samples.extend(std::iter::repeat_n(run.nanos, run.count as usize));
        }
        samples
    }

    /// Samples recorded under a custom label.
    pub fn custom_samples(&self, label: &str) -> Vec<u64> {
        self.observations
            .iter()
            .filter_map(|o| match &o.kind {
                ObservationKind::Custom { label: l, value } if *l == label => Some(*value),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_matrix_accumulates_by_node_and_category() {
        let mut matrix = TrafficMatrix::with_nodes(2);
        let datablock = matrix.category_row("datablock");
        matrix.add_sent(datablock, NodeId(0), 50, 3);
        let vote = matrix.category_row("vote");
        matrix.add_sent(vote, NodeId(0), 10, 1);
        assert_eq!(matrix.category_row("datablock"), datablock, "a category is interned once");
        matrix.category_row("self-only");
        matrix.add_received(datablock, NodeId(1), 150);

        assert_eq!(matrix.sent_bytes(NodeId(0)), 160);
        assert_eq!(matrix.sent_bytes_in(NodeId(0), "datablock"), 150);
        assert_eq!(matrix.sent_bytes_in(NodeId(0), "vote"), 10);
        assert_eq!(matrix.received_bytes(NodeId(1)), 150);
        assert_eq!(matrix.received_bytes(NodeId(0)), 0);
        assert_eq!(matrix.categories(), vec!["datablock", "vote"], "an unrecorded row is left out");
        assert_eq!(matrix.total_sent_bytes(), 160);
        assert_eq!(matrix.total_received_bytes(), 150);
        assert_eq!(matrix.iter_sent().count(), 2);
        let messages: Vec<u64> = matrix.iter_sent().map(|(_, _, _, count)| count).collect();
        assert_eq!(messages, vec![3, 1], "a fan-out's sent record counts each copy");
    }

    #[test]
    fn node_ranges_do_not_bleed_into_each_other() {
        let mut matrix = TrafficMatrix::with_nodes(3);
        let a = matrix.category_row("a");
        matrix.add_sent(a, NodeId(1), 5, 1);
        matrix.add_sent(a, NodeId(2), 7, 1);
        assert_eq!(matrix.sent_bytes(NodeId(1)), 5);
        assert_eq!(matrix.sent_bytes(NodeId(2)), 7);
    }

    #[test]
    fn sink_aggregates_observations() {
        let mut sink = MetricsSink::with_nodes(2);
        sink.observe(
            SimTime(10),
            NodeId(0),
            ObservationKind::RequestsConfirmed {
                count: 5,
                payload_bytes: 640,
            },
        );
        sink.observe(
            SimTime(20),
            NodeId(0),
            ObservationKind::RequestsConfirmed {
                count: 7,
                payload_bytes: 896,
            },
        );
        sink.observe(SimTime(30), NodeId(1), ObservationKind::RequestLatency { nanos: 500 });
        sink.observe(
            SimTime(40),
            NodeId(1),
            ObservationKind::Custom {
                label: "stage",
                value: 3,
            },
        );

        assert_eq!(sink.confirmed_requests_at(NodeId(0)), 12);
        assert_eq!(sink.confirmed_requests_at(NodeId(1)), 0);
        assert_eq!(sink.max_confirmed_requests(2), 12);
        assert_eq!(sink.latency_samples(), vec![500]);
        assert_eq!(sink.custom_samples("stage"), vec![3]);
        assert_eq!(sink.custom_samples("missing"), Vec::<u64>::new());

        // Windowed counting: observations before the window start are excluded.
        assert_eq!(sink.max_confirmed_requests_since(2, SimTime(0)), 12);
        assert_eq!(sink.max_confirmed_requests_since(2, SimTime(15)), 7);
        assert_eq!(sink.max_confirmed_requests_since(2, SimTime(21)), 0);
    }

    /// Every confirmation query of `sink` over two nodes, at the instants the
    /// confirmation tests use.
    fn confirmation_answers(sink: &MetricsSink) -> Vec<String> {
        let mut answers = vec![
            format!("{:?}", [0, 1].map(|node| sink.confirmed_requests_at(NodeId(node)))),
            format!("{}", sink.max_confirmed_requests(2)),
        ];
        for start in [0, 10, 11, 15, 20, 21, 30, 31] {
            answers.push(format!("{}", sink.max_confirmed_requests_since(2, SimTime(start))));
            answers.push(format!("{:?}", sink.first_confirmations_since(2, SimTime(start))));
        }
        answers
    }

    #[test]
    fn requests_confirmed_counts_exactly_like_block_committed() {
        let confirmations = [(10, 0, 5), (20, 0, 7), (30, 1, 4)];
        let mut confirmed = MetricsSink::with_nodes(2);
        let mut committed = MetricsSink::with_nodes(2);
        for (at, node, count) in confirmations {
            confirmed.observe(
                SimTime(at),
                NodeId(node),
                ObservationKind::RequestsConfirmed {
                    count,
                    payload_bytes: 128 * count,
                },
            );
            committed.observe(
                SimTime(at),
                NodeId(node),
                ObservationKind::BlockCommitted {
                    sequence: at,
                    requests: count,
                },
            );
        }
        // Empty blocks change no answer: a commit without requests is no confirmation.
        for at in [11, 25] {
            committed.observe(
                SimTime(at),
                NodeId(1),
                ObservationKind::BlockCommitted {
                    sequence: at,
                    requests: 0,
                },
            );
        }
        assert_eq!(confirmation_answers(&confirmed), confirmation_answers(&committed));
        assert_eq!(
            committed.first_confirmations_since(2, SimTime(11)),
            vec![Some(SimTime(20)), Some(SimTime(30))]
        );
        assert_eq!(committed.first_confirmations_since(2, SimTime(31)), vec![None, None]);
        assert_eq!(committed.max_confirmed_requests_since(2, SimTime(11)), 7);
        // Both kinds land in the commit records, none in the log.
        assert!(confirmed.observations.is_empty() && committed.observations.is_empty());
        assert_eq!(confirmed.commits().len(), 3);
        assert_eq!(committed.commits().len(), 5);
        assert_eq!(
            committed.commits()[2],
            CommitRecord {
                at: SimTime(30),
                sequence: 30,
                node: NodeId(1),
                requests: 4,
            }
        );
        assert_eq!(committed.confirmations().count(), 3);
    }

    proptest::proptest! {
        /// A sink that declared its instants and one that kept the records both answer
        /// every query about those instants as a direct count over the executions,
        /// however they interleave: instants climb and fall (a node with several cores
        /// completes out of order, so its first confirmation is not its earliest),
        /// blocks may confirm nothing, and the instants are declared after some
        /// executions. The digest is the same either way.
        #[test]
        fn declared_totals_answer_like_the_records(
            executions in proptest::collection::vec((0u64..40, 0u32..3, 0u64..4), 0..60),
            instants in proptest::collection::vec(0u64..45, 1..4),
            declare_after in 0usize..8,
        ) {
            let instants: Vec<SimTime> = instants.into_iter().map(SimTime).collect();
            let mut kept = MetricsSink::with_nodes(3);
            let mut declared = MetricsSink::with_nodes(3);
            for (i, &(at, node, requests)) in executions.iter().enumerate() {
                if i == declare_after {
                    declared.declare_instants(&instants);
                }
                for sink in [&mut kept, &mut declared] {
                    let kind = ObservationKind::BlockCommitted { sequence: i as u64 % 5, requests };
                    sink.observe(SimTime(at), NodeId(node), kind);
                }
            }
            if executions.len() <= declare_after {
                declared.declare_instants(&instants);
            }
            for &start in instants.iter().chain([&SimTime::ZERO]) {
                // (instant, requests) of each execution of `node` from `start` on.
                let of_node = |node: usize| {
                    executions
                        .iter()
                        .filter(move |&&(at, of, _)| of as usize == node && SimTime(at) >= start)
                        .map(|&(at, _, requests)| (SimTime(at), requests))
                };
                for nodes in [2, 3, 4] {
                    let max = (0..nodes)
                        .map(|node| of_node(node).map(|(_, requests)| requests).sum::<u64>())
                        .max()
                        .unwrap_or(0);
                    let first: Vec<Option<SimTime>> = (0..nodes)
                        .map(|node| of_node(node).filter(|&(_, requests)| requests > 0).min())
                        .map(|earliest| earliest.map(|(at, _)| at))
                        .collect();
                    for sink in [&kept, &declared] {
                        let answered = sink.max_confirmed_requests_since(nodes, start);
                        proptest::prop_assert_eq!(answered, max);
                        let answered = sink.first_confirmations_since(nodes, start);
                        proptest::prop_assert_eq!(answered, first.clone());
                    }
                }
            }
            proptest::prop_assert_eq!(declared.commit_digest(), kept.commit_digest());
            proptest::prop_assert_eq!(
                declared.max_confirmed_requests(3),
                kept.max_confirmed_requests(3)
            );
        }
    }

    #[test]
    #[should_panic(expected = "metrics sink asked about SimTime(7), which it did not declare")]
    fn a_declared_sink_panics_on_an_undeclared_instant() {
        let mut sink = MetricsSink::with_nodes(2);
        sink.declare_instants(&[SimTime(5), SimTime(9)]);
        let kind = ObservationKind::BlockCommitted { sequence: 1, requests: 2 };
        sink.observe(SimTime(8), NodeId(0), kind);
        assert_eq!(sink.max_confirmed_requests_since(2, SimTime(5)), 2);
        assert_eq!(sink.max_confirmed_requests_since(2, SimTime(9)), 0);
        assert_eq!(sink.max_confirmed_requests_since(2, SimTime::ZERO), 2);
        sink.first_confirmations_since(2, SimTime(7));
    }

    #[test]
    #[should_panic(expected = "keeps no commit records")]
    fn a_declared_sink_keeps_no_records() {
        let mut sink = MetricsSink::with_nodes(2);
        let kind = ObservationKind::BlockCommitted { sequence: 1, requests: 2 };
        sink.observe(SimTime(1), NodeId(0), kind);
        assert_eq!(sink.commits().len(), 1);
        sink.declare_instants(&[SimTime(5)]);
        sink.commits();
    }

    /// The digest counts executions, counts each one whose sequence does not follow its
    /// node's previous one, and its fingerprint sees any one field of one record move.
    #[test]
    fn the_commit_digest_sees_order_and_every_field() {
        let digest = |records: &[(u64, u32, u64, u64)]| {
            let mut sink = MetricsSink::with_nodes(2);
            for &(at, node, sequence, requests) in records {
                let kind = ObservationKind::BlockCommitted { sequence, requests };
                sink.observe(SimTime(at), NodeId(node), kind);
            }
            sink.commit_digest()
        };
        let base = [(10, 0, 1, 3), (11, 1, 1, 3), (20, 0, 2, 0), (21, 1, 2, 4)];
        let reference = digest(&base);
        assert_eq!((reference.executions, reference.out_of_order), (4, 0));
        let skipped = digest(&[(10, 0, 1, 3), (20, 0, 3, 0), (21, 0, 3, 1), (22, 1, 2, 1)]);
        assert_eq!(skipped.out_of_order, 3, "a skip, a repeat and a first execution past 1");
        for field in 0..4 {
            let mut moved = base;
            let record = &mut moved[2];
            match field {
                0 => record.0 += 1,
                1 => record.1 = 1,
                2 => record.2 = 7,
                _ => record.3 = 1,
            }
            assert_ne!(digest(&moved).fingerprint, reference.fingerprint, "field {field}");
        }
        let swapped = [base[1], base[0], base[2], base[3]];
        assert_ne!(digest(&swapped).fingerprint, reference.fingerprint, "emission order");
    }

    #[test]
    #[should_panic(expected = "metrics sink sized for 2 nodes, got node 2")]
    fn a_commit_from_outside_the_sink_panics() {
        let mut sink = MetricsSink::with_nodes(2);
        sink.observe(
            SimTime(1),
            NodeId(2),
            ObservationKind::BlockCommitted {
                sequence: 1,
                requests: 1,
            },
        );
    }

    #[test]
    fn histogram_buckets_are_contiguous_and_exhaustive() {
        // Every boundary value maps into range, and indices never decrease.
        let mut last = 0usize;
        for nanos in (0u64..1000).chain([1 << 20, (1 << 20) + 1, 1 << 40, u64::MAX / 2, u64::MAX]) {
            let index = LatencyHistogram::bucket_index(nanos);
            assert!(index < NUM_BUCKETS, "index {index} out of range for {nanos}");
            assert!(index >= last, "bucket index decreased at {nanos}");
            last = index;
            let (lower, upper) = LatencyHistogram::bucket_bounds(index);
            assert!(lower <= nanos, "{nanos} below its bucket [{lower}, {upper})");
            assert!(nanos < upper || upper == u64::MAX, "{nanos} above its bucket");
        }
        assert_eq!(LatencyHistogram::bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn histogram_percentiles_are_bucket_accurate() {
        let mut histogram = LatencyHistogram::new();
        assert!(histogram.is_empty());
        assert_eq!(histogram.percentile(0.5), None);
        // 100 samples of 1 ms, 10 of 100 ms: p50 lands in the 1 ms bucket, p99 and
        // beyond in the 100 ms bucket, with ≤ ~3% bucket-midpoint error.
        for _ in 0..100 {
            histogram.record(1_000_000);
        }
        for _ in 0..10 {
            histogram.record(100_000_000);
        }
        assert_eq!(histogram.total(), 110);
        let p50 = histogram.percentile(0.5).unwrap() as f64;
        assert!((p50 / 1_000_000.0 - 1.0).abs() < 0.04, "p50 = {p50}");
        let p99 = histogram.percentile(0.99).unwrap() as f64;
        assert!((p99 / 100_000_000.0 - 1.0).abs() < 0.04, "p99 = {p99}");
        // p at the extremes is clamped, not panicking.
        assert!(histogram.percentile(0.0).is_some());
        assert!(histogram.percentile(1.5).is_some());
        // Tiny exact-bucket samples are exact.
        let mut small = LatencyHistogram::new();
        small.record(7);
        assert_eq!(small.percentile(0.5), Some(7));
    }

    #[test]
    fn sink_feeds_latency_samples_into_the_histogram() {
        let mut sink = MetricsSink::with_nodes(2);
        sink.observe(SimTime(1), NodeId(0), ObservationKind::RequestLatency { nanos: 2_000_000 });
        sink.observe(SimTime(2), NodeId(1), ObservationKind::RequestLatency { nanos: 8_000_000 });
        sink.observe(
            SimTime(3),
            NodeId(0),
            ObservationKind::Custom { label: "x", value: 1 },
        );
        assert_eq!(sink.latency_histogram.total(), 2);
        assert_eq!(sink.latency_samples().len(), 2);
    }

    #[test]
    fn counted_latencies_equal_that_many_single_ones() {
        let mut counted = MetricsSink::with_nodes(2);
        let mut single = MetricsSink::with_nodes(2);
        for (node, nanos, count) in [(0, 2_000_000, 3), (1, 8_000_000, 2), (0, 2_000_000, 0), (0, 5, 1)] {
            counted.observe(
                SimTime(1),
                NodeId(node),
                ObservationKind::RequestLatencies { nanos, count },
            );
            for _ in 0..count {
                single.observe(SimTime(1), NodeId(node), ObservationKind::RequestLatency { nanos });
            }
        }
        // Same samples in the same order, same histogram; neither kind enters the log.
        assert_eq!(counted.latency_samples(), single.latency_samples());
        assert_eq!(
            counted.latency_samples(),
            vec![2_000_000, 2_000_000, 2_000_000, 8_000_000, 8_000_000, 5]
        );
        assert_eq!(counted.latency_histogram.total(), 6);
        assert_eq!(counted.latency_histogram.percentile(0.5), single.latency_histogram.percentile(0.5));
        assert!(counted.observations.is_empty() && single.observations.is_empty());
        assert_eq!(counted.latency_runs().len(), 3);
        assert_eq!(single.latency_runs().len(), 6);
        // Summing sample by sample is what the per-request code did.
        let (mut by_run, mut by_sample) = (0.0, 0.0);
        counted.latency_runs().iter().for_each(|run| run.add_secs_to(&mut by_run));
        single.latency_samples().iter().for_each(|&n| by_sample += n as f64 / 1e9);
        assert_eq!(by_run.to_bits(), by_sample.to_bits());
    }
}
