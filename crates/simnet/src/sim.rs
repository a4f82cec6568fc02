//! The deterministic discrete-event simulation engine.
//!
//! # Network model
//!
//! Sending a message of `s` bytes from `a` to `b` at time `t`:
//!
//! 1. The message queues at `a`'s uplink: it departs at
//!    `departure = max(t, link_free[a]) + s·8 / uplink_bps`.
//! 2. It propagates for `base + U(0, jitter)`, where `base` and `jitter` come from the
//!    region-pair latency matrix of the configuration's [`crate::network::Topology`]
//!    ([`crate::network::Topology::lan`] when it has none), plus the deterministic
//!    straggler extras of both endpoints. Exactly one uniform jitter sample is drawn
//!    per routed message whose pair jitter bound is non-zero, in route order, so two
//!    topologies with the same matrix give the same schedule bit for bit.
//! 3. It queues at `b`'s downlink **on arrival**: it is delivered at
//!    `max(arrival, link_free[b]) + s·8 / downlink_bps`, where the reservation is
//!    made when the bytes arrive (the `Arrive` event), so the downlink FIFO is ordered
//!    by arrival time — not by the order in which messages happened to be routed.
//!    (Route-time reservation let one fan-out's far-future tail copy block control
//!    messages routed later but arriving earlier, an artificial head-of-line blocking
//!    that starved votes and collapsed Leopard's throughput at n ≥ 128.)
//!
//! A node's uplink and downlink share one horizon, `link_free` (half duplex, the
//! paper's cost model, where `C` is the total bits a replica can move per second and
//! Leopard's predicted scaling-up gain is `C/2`): a departure and a delivery each
//! occupy the node's one link, at the rate of the direction they use.
//!
//! The model is a *fluid approximation*: queue occupancy is tracked through the
//! `link_free` horizons rather than per-packet, which is exact for FIFO links and accurate
//! enough to reproduce the paper's bandwidth-bound behaviour. Determinism: for a fixed
//! seed and protocol, the event order is completely reproducible.

use crate::fanout::FanoutTable;
use crate::fault::{FaultPlan, MessageFate};
use crate::metrics::{MetricsSink, ObservationKind};
use crate::network::{NetworkConfig, ResolvedTopology};
use crate::protocol::{Context, Protocol, SimMessage};
use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};
use leopard_types::{NodeId, WireSize};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};

/// Events processed by every simulation in this process, for events/sec accounting
/// around an experiment (see [`global_events_processed`]). Monotonic; the bench
/// harness samples it before and after a run and divides the delta by wall time.
static EVENTS_PROCESSED: AtomicU64 = AtomicU64::new(0);

/// Total events processed by all [`Simulation`] runs in this process so far.
pub fn global_events_processed() -> u64 {
    EVENTS_PROCESSED.load(Ordering::Relaxed)
}

/// What a queued event does when it fires.
///
/// `Arrive` and `Deliver` carry a `{fanout, to}` handle: the sender and the message
/// itself live once per logical fan-out, inline in a slot of the engine's
/// [`crate::fanout::FanoutTable`], and `Arrive` carries the wire size. The kind is
/// therefore plain data (no drop glue, no refcount traffic on the queue path), and
/// moving it is a `memcpy`.
#[derive(Clone, Copy)]
pub(crate) enum EventKind {
    /// Call `on_start` on the node.
    Start(NodeId),
    /// Call `on_restart` on a node coming back from a finite crash window. Scheduled
    /// at construction from the fault plan's restart instants; bumps the node's timer
    /// epoch first, so timers armed before the crash never fire after the restart
    /// (the process died — its pending timers died with it).
    Restart(NodeId),
    /// A message finishes propagating and reaches the receiver's downlink queue. The
    /// downlink serialisation slot is reserved **when this fires** — i.e. in arrival
    /// order — not when the message was routed. Reserving at route time would let a
    /// large fan-out's tail copy (whose arrival lies far in the future behind the
    /// sender's uplink backlog) block small control messages routed later but arriving
    /// earlier; that artificial head-of-line blocking compounds through the half-duplex
    /// coupling and starves votes at large `n`.
    ///
    /// A unicast's `Arrive` waits in the event heap. A multicast's or broadcast's
    /// peer copies never enter it: they wait together in one sorted run
    /// (`crate::queue`), which hands each back as this variant when it is popped.
    Arrive {
        /// The interned fan-out (sender and message).
        fanout: u32,
        /// Receiver.
        to: NodeId,
        /// Wire size of this copy, carried inline so the downlink reservation
        /// needs no fan-out table lookup (the sender is not needed until the
        /// `Deliver` consumes the slot). Fits in the `Timer`-variant padding, so
        /// `EventKind` stays 24 bytes.
        size: u32,
    },
    /// Deliver a message: the receiver's callback runs and takes one reference off
    /// the fan-out slot (the last reference reclaims it).
    Deliver {
        /// The interned fan-out.
        fanout: u32,
        /// Receiver.
        to: NodeId,
    },
    /// Fire a timer. It waits in the lane of its delay, beside the fan-out runs, when
    /// its key is larger than that lane's last one, and otherwise in the event heap
    /// (`crate::queue`); either way it is popped in `(time, seq)` order.
    Timer {
        /// The node whose timer fires.
        node: NodeId,
        /// The token passed to `set_timer`.
        token: u64,
        /// The node's timer epoch when the timer was armed. A restart bumps the
        /// node's epoch, so timers armed before a crash are swallowed when they fire
        /// afterwards. Stays `0` forever on runs without restarts.
        epoch: u32,
    },
}

/// An entry in the event queue, popped in order of time, then insertion sequence.
pub(crate) struct QueuedEvent {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) kind: EventKind,
}

/// Builds a payload-free queue entry for the event-queue unit tests.
#[cfg(test)]
pub(crate) fn test_event(at: SimTime, seq: u64) -> QueuedEvent {
    QueuedEvent {
        at,
        seq,
        kind: EventKind::Start(NodeId(0)),
    }
}

/// What every copy of one sent message shares, computed once per message.
struct Outbound {
    /// The interned fan-out (sender and message).
    fanout: u32,
    /// Wire size of one copy.
    size: usize,
    /// The message's traffic category, which the fault plan's filters judge.
    category: &'static str,
    /// The category's row in the traffic matrix (`TrafficMatrix::category_row`).
    traffic_row: usize,
    /// The sender-side uplink serialisation time of one copy.
    uplink_tx: SimDuration,
}

/// One outgoing transmission requested during a callback. Keeping unicasts and
/// multicasts in a single ordered list preserves the exact send order (and therefore
/// the exact event-queue sequence numbers) of the equivalent unicast-only engine.
enum Outgoing<M> {
    /// A single-recipient send.
    Unicast(NodeId, M),
    /// A send to every other node (`multicast`), and with `to_self` also to the sender
    /// (`broadcast`). The engine expands it with `wire_size()` and `category()` computed
    /// once for the whole fan-out; the self-delivery takes a reference to the same
    /// fan-out slot, so no extra clone of the message is made.
    Fanout { message: M, to_self: bool },
}

/// Actions a protocol requested during one callback, applied by the engine afterwards.
struct ActionBuffer<M> {
    sends: Vec<Outgoing<M>>,
    timers: Vec<(SimDuration, u64)>,
    observations: Vec<ObservationKind>,
    /// Modeled CPU charged via [`Context::charge_compute`] during the callback.
    compute: SimDuration,
}

impl<M> Default for ActionBuffer<M> {
    fn default() -> Self {
        Self {
            sends: Vec::new(),
            timers: Vec::new(),
            observations: Vec::new(),
            compute: SimDuration::ZERO,
        }
    }
}

impl<M> ActionBuffer<M> {
    /// Empties the buffer while keeping its allocations, so the engine can reuse one
    /// scratch buffer across callbacks instead of allocating three `Vec`s per event.
    fn clear(&mut self) {
        self.sends.clear();
        self.timers.clear();
        self.observations.clear();
        self.compute = SimDuration::ZERO;
    }
}

/// One protocol-callback invocation in engine event terms. `Message` carries the
/// already-materialised owned message (see [`FanoutTable::consume`]).
enum Invoke<M> {
    Start,
    Restart,
    Message { from: NodeId, message: M },
    Timer { token: u64 },
}

/// The [`Context`] implementation handed to protocols during callbacks.
struct SimContext<'a, M> {
    now: SimTime,
    node: NodeId,
    node_count: usize,
    actions: &'a mut ActionBuffer<M>,
    rng: &'a mut StdRng,
}

impl<M: SimMessage> Context for SimContext<'_, M> {
    type Message = M;

    fn now(&self) -> SimTime {
        self.now
    }

    fn node_id(&self) -> NodeId {
        self.node
    }

    fn node_count(&self) -> usize {
        self.node_count
    }

    fn send(&mut self, to: NodeId, message: M) {
        self.actions.sends.push(Outgoing::Unicast(to, message));
    }

    fn multicast(&mut self, message: M) {
        // Fast path: defer the fan-out to the engine, which charges the paper's
        // `n − 1`-unicast cost model while computing the wire size only once.
        self.actions.sends.push(Outgoing::Fanout {
            message,
            to_self: false,
        });
    }

    fn broadcast(&mut self, message: M) {
        // Fast path: one fan-out slot for the peers *and* the self-delivery —
        // `multicast(m.clone()) + send(self, m)` would clone the message once more
        // just to hand it back to the sender.
        self.actions.sends.push(Outgoing::Fanout {
            message,
            to_self: true,
        });
    }

    fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.actions.timers.push((delay, token));
    }

    fn charge_compute(&mut self, cost: SimDuration) {
        self.actions.compute = self.actions.compute + cost;
    }

    fn observe(&mut self, observation: ObservationKind) {
        self.actions.observations.push(observation);
    }

    fn rng(&mut self) -> &mut dyn RngCore {
        self.rng
    }
}

/// The per-node worker-lane compute model: each node owns a fixed set of lanes
/// (one per configured core) and every charged callback is dispatched to the
/// **earliest-free lane**, ties broken by the **lowest lane index**. Both rules
/// are deterministic functions of prior history, so the model needs no RNG. With
/// a single lane the dispatch is `start = max(now, free[0])`, one sequential compute
/// queue, which the `cores = 1` determinism goldens depend on.
#[derive(Debug, Clone)]
pub(crate) struct ComputeLanes {
    /// Lanes per node: node `i` owns lanes `i * cores..(i + 1) * cores` of the two
    /// flat vectors below.
    cores: usize,
    /// Per lane: how far into the virtual future the lane is committed.
    free: Vec<SimTime>,
    /// Per lane: modeled CPU nanoseconds the lane has retired.
    busy: Vec<u64>,
}

impl ComputeLanes {
    /// `cores` lanes for each of `nodes` nodes; `cores` must be at least 1 (enforced
    /// upstream by [`crate::NetworkConfig::validate`]).
    pub(crate) fn new(nodes: usize, cores: usize) -> Self {
        Self {
            cores,
            free: vec![SimTime::ZERO; nodes * cores],
            busy: vec![0; nodes * cores],
        }
    }

    /// `node`'s lanes, as indices into `free` and `busy`.
    fn lanes(&self, node: usize) -> std::ops::Range<usize> {
        node * self.cores..(node + 1) * self.cores
    }

    /// Dispatches `scaled` nanoseconds of modeled work arriving at `now` on
    /// `node` and returns the completion instant: the work occupies
    /// `[max(now, free[lane]), +scaled]` of the earliest-free lane (lowest
    /// index on ties).
    pub(crate) fn dispatch(&mut self, node: usize, now: SimTime, scaled: u64) -> SimTime {
        let lanes = self.lanes(node);
        let mut lane = lanes.start;
        for i in lanes.start + 1..lanes.end {
            if self.free[i] < self.free[lane] {
                lane = i;
            }
        }
        let start = now.max(self.free[lane]);
        let done = start + SimDuration::from_nanos(scaled);
        self.free[lane] = done;
        self.busy[lane] += scaled;
        done
    }

    /// The node's nearest-free-lane horizon: the earliest instant any lane can
    /// accept new work.
    #[cfg(test)]
    fn horizon(&self, node: usize) -> SimTime {
        let lanes = &self.free[self.lanes(node)];
        lanes.iter().copied().min().unwrap_or(SimTime::ZERO)
    }

    /// Modeled CPU nanoseconds each of `node`'s lanes retired.
    pub(crate) fn lane_busy_nanos(&self, node: usize) -> &[u64] {
        &self.busy[self.lanes(node)]
    }

    /// Total modeled CPU nanoseconds `node` retired, summed over its lanes.
    pub(crate) fn busy_nanos(&self, node: usize) -> u64 {
        self.lane_busy_nanos(node).iter().sum()
    }
}

/// Summary of a finished simulation run.
#[derive(Debug)]
pub struct SimulationReport {
    /// Number of nodes simulated.
    pub nodes: usize,
    /// Simulated time at the end of the run.
    pub end_time: SimTime,
    /// Number of events processed.
    pub events: u64,
    /// Collected metrics.
    pub metrics: MetricsSink,
    /// Per-node progress probes snapshotted at `end_time` (empty for protocols that do
    /// not implement [`Protocol::progress_probe`]). Indexed by node.
    pub probes: Vec<Option<crate::ProgressProbe>>,
    /// Modeled CPU nanoseconds each node's compute queue was busy (indexed by node,
    /// summed over the node's worker lanes). All zeros unless the protocol charges
    /// compute via [`Context::charge_compute`].
    pub compute_busy_nanos: Vec<u64>,
    /// Worker-lane (core) count of every node, as resolved from the network config.
    pub cores: usize,
    /// Live fan-out table slots at the end of the run (see
    /// [`Simulation::fanouts_live`]) — in-flight logical messages whose handles are
    /// still queued at the deadline (zero only if the run fully quiesced).
    pub fanouts_live: usize,
    /// Peak fan-out table size over the run (see [`Simulation::fanouts_peak`]).
    pub fanouts_peak: usize,
    /// Result of the fan-out reference audit: `true` iff every slot's refcount
    /// equals the number of `Arrive`/`Deliver` handles still queued against it.
    /// `false` means the slot accounting leaked a reference (the slot outlives its
    /// handles) or lost one (a queued handle points at a reclaimed slot).
    pub fanouts_balanced: bool,
}

impl SimulationReport {
    /// Confirmed requests per second, measured as the maximum per-node confirmation
    /// count divided by the run duration.
    ///
    /// # Measurement window
    ///
    /// The denominator is the **full virtual run time** `[0, end_time]`, including the
    /// start-up transient during which pipelines fill and nothing is confirmed yet. This
    /// matches how the paper reports steady-state runs and is what every `BENCH_*.json`
    /// entry records, so cross-PR numbers stay comparable. For short runs where the
    /// warm-up is a significant fraction of the window, use
    /// [`Self::steady_state_throughput_rps`] to exclude it.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.end_time.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.metrics.max_confirmed_requests(self.nodes) as f64 / secs
    }

    /// Confirmed requests per second over the window `[warmup, end_time]` only:
    /// confirmations observed before `warmup` are discarded and the elapsed time starts
    /// at `warmup`. Returns 0 if the warm-up covers the whole run.
    pub fn steady_state_throughput_rps(&self, warmup: SimDuration) -> f64 {
        let start = SimTime::ZERO + warmup;
        if start >= self.end_time {
            return 0.0;
        }
        let secs = (self.end_time.as_nanos() - start.as_nanos()) as f64 / 1e9;
        if secs == 0.0 {
            return 0.0;
        }
        self.metrics.max_confirmed_requests_since(self.nodes, start) as f64 / secs
    }

    /// Average request latency in seconds over all latency samples, or `None` if no
    /// request completed.
    pub fn average_latency_secs(&self) -> Option<f64> {
        let samples = self.metrics.latency_histogram.total();
        if samples == 0 {
            return None;
        }
        let mut sum = 0.0;
        for run in self.metrics.latency_runs() {
            run.add_secs_to(&mut sum);
        }
        Some(sum / samples as f64)
    }

    /// The `p`-quantile (`p` in `[0, 1]`) of request latency in seconds, computed from
    /// the O(1) fixed-bucket histogram (bucket-midpoint accuracy, ≈ 3% relative
    /// error), or `None` if no request completed. See
    /// [`crate::metrics::LatencyHistogram`].
    pub fn latency_percentile_secs(&self, p: f64) -> Option<f64> {
        self.metrics
            .latency_histogram
            .percentile(p)
            .map(|nanos| nanos as f64 / 1e9)
    }

    /// Average bits per second moved (sent + received) by `node` over the run.
    pub fn node_bandwidth_bps(&self, node: NodeId) -> f64 {
        let secs = self.end_time.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        let bytes = self.metrics.traffic.sent_bytes(node) + self.metrics.traffic.received_bytes(node);
        bytes as f64 * 8.0 / secs
    }

    /// Fraction of the run `node`'s compute capacity was busy with modeled work
    /// (busy nanoseconds over `end_time × cores`), in `[0, 1]` under steady state
    /// (a backlogged queue can report more than `1.0`, which is itself a diagnosis:
    /// the replica was handed more work than its CPUs could retire in the run).
    pub fn compute_utilization(&self, node: NodeId) -> f64 {
        let total = self.end_time.as_nanos().saturating_mul(self.cores as u64);
        if total == 0 {
            return 0.0;
        }
        self.compute_busy_nanos
            .get(node.as_index())
            .copied()
            .unwrap_or(0) as f64
            / total as f64
    }

    /// The highest per-node compute utilization of the run.
    pub fn max_compute_utilization(&self) -> f64 {
        (0..self.nodes)
            .map(|i| self.compute_utilization(NodeId(i as u32)))
            .fold(0.0, f64::max)
    }

    /// The mean per-node compute utilization of the run.
    pub fn mean_compute_utilization(&self) -> f64 {
        if self.nodes == 0 {
            return 0.0;
        }
        (0..self.nodes)
            .map(|i| self.compute_utilization(NodeId(i as u32)))
            .sum::<f64>()
            / self.nodes as f64
    }
}

/// A deterministic discrete-event simulation of `n` nodes running a [`Protocol`].
pub struct Simulation<P: Protocol> {
    config: NetworkConfig,
    /// The per-node view of `config` (effective links, CPU speeds, region latency
    /// matrix) consulted on the hot path; resolved once at construction.
    resolved: ResolvedTopology,
    faults: FaultPlan,
    nodes: Vec<P>,
    node_rngs: Vec<StdRng>,
    net_rng: StdRng,
    queue: EventQueue,
    /// The interned fan-out side table: queue-resident `Arrive`/`Deliver` events
    /// carry a `{fanout, to}` handle into it (see [`crate::fanout`]).
    fanouts: FanoutTable<P::Message>,
    /// Reused across callbacks so steady-state dispatch allocates nothing.
    scratch: ActionBuffer<P::Message>,
    now: SimTime,
    seq: u64,
    events: u64,
    started: bool,
    /// Per node, the instant its half-duplex link finishes the bytes already
    /// committed to it, in either direction.
    link_free: Vec<SimTime>,
    /// The per-node worker-lane compute model (the CPU analogue of the link
    /// horizons). One lane per configured core; `cores = 1` reproduces the old
    /// single sequential `cpu_free` horizon bit for bit.
    compute: ComputeLanes,
    /// Per-node timer epoch, bumped on restart so pre-crash timers are swallowed.
    timer_epochs: Vec<u32>,
    metrics: MetricsSink,
}

impl<P: Protocol> Simulation<P> {
    /// Builds a simulation, creating one protocol instance per node with `factory`.
    ///
    /// # Panics
    ///
    /// Panics if the network configuration is invalid, if the fault plan schedules a
    /// crash for a node outside the network, or if it partitions a region outside the
    /// configured topology.
    pub fn new(config: NetworkConfig, faults: FaultPlan, mut factory: impl FnMut(NodeId) -> P) -> Self {
        config
            .validate()
            .unwrap_or_else(|message| panic!("invalid network config: {message}"));
        let resolved = config.resolve();
        let n = config.nodes;
        for window in faults.crash_windows() {
            assert!(
                window.node.as_index() < n,
                "with_crash: node {} out of range for a {n}-node network",
                window.node.as_index()
            );
        }
        for window in faults.partitions() {
            let regions = resolved.region_count;
            for region in [window.region_a, window.region_b] {
                assert!(
                    region < regions,
                    "with_partition: region {region} out of range for a {regions}-region topology"
                );
            }
        }
        let nodes: Vec<P> = (0..n).map(|i| factory(NodeId(i as u32))).collect();
        let node_rngs = (0..n)
            .map(|i| StdRng::seed_from_u64(config.seed ^ (0x9E3779B97F4A7C15u64.wrapping_mul(i as u64 + 1))))
            .collect();
        let net_rng = StdRng::seed_from_u64(config.seed ^ 0xD1B54A32D192ED03);
        Self {
            faults,
            nodes,
            node_rngs,
            net_rng,
            queue: EventQueue::new(n),
            fanouts: FanoutTable::new(),
            scratch: ActionBuffer::default(),
            now: SimTime::ZERO,
            seq: 0,
            events: 0,
            started: false,
            link_free: vec![SimTime::ZERO; n],
            compute: ComputeLanes::new(n, resolved.cores),
            timer_epochs: vec![0; n],
            metrics: MetricsSink::with_nodes(n),
            resolved,
            config,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Number of live interned fan-outs — in-flight logical messages whose queue
    /// handles have not all been consumed yet. Zero once a run has quiesced; the
    /// equivalence proptests assert this to catch reference leaks (a leak would pin
    /// slots forever) and double-frees (which panic inside the table instead).
    pub fn fanouts_live(&self) -> usize {
        self.fanouts.live()
    }

    /// High-water fan-out table size — the peak number of concurrently in-flight
    /// logical messages over the run so far (the compressed queue's memory ceiling).
    pub fn fanouts_peak(&self) -> usize {
        self.fanouts.peak()
    }

    /// Immutable access to the metrics collected so far.
    pub fn metrics(&self) -> &MetricsSink {
        &self.metrics
    }

    /// Immutable access to a node's protocol state (for tests and assertions).
    pub fn node(&self, node: NodeId) -> &P {
        &self.nodes[node.as_index()]
    }

    /// Immutable access to the fault plan (e.g. for post-run invariant checks that
    /// need to know which nodes are down at the end of the run).
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The serialisation horizon of `node`'s link — how far into the (virtual) future
    /// its FIFO link queue is already committed.
    #[cfg(test)]
    fn link_horizon(&self, node: NodeId) -> SimTime {
        self.link_free[node.as_index()]
    }

    fn push_event(&mut self, at: SimTime, kind: EventKind) {
        self.seq += 1;
        self.queue.push(QueuedEvent {
            at,
            seq: self.seq,
            kind,
        });
    }

    /// Appends a matured downlink `Deliver` to its receiver's Deliver FIFO (see
    /// `crate::queue`): `Arrive`s fire in `(time, seq)` order and each one advances
    /// the receiver's `link_free`, so one receiver's keys increase by construction —
    /// an O(1) append, no heap sift. The seq is assigned exactly as
    /// [`Self::push_event`] would.
    fn push_deliver_event(&mut self, at: SimTime, fanout: u32, to: NodeId) {
        self.seq += 1;
        self.queue.push_deliver(to, at, self.seq, fanout);
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.config.nodes {
            self.push_event(SimTime::ZERO, EventKind::Start(NodeId(i as u32)));
        }
        // Schedule the restart instant of every finite crash window. On fault-free
        // runs this pushes nothing, keeping the event schedule byte-identical.
        let restarts: Vec<(SimTime, NodeId)> = self
            .faults
            .crash_windows()
            .iter()
            .filter_map(|window| window.until.map(|until| (until, window.node)))
            .collect();
        for (until, node) in restarts {
            self.push_event(until, EventKind::Restart(node));
        }
    }

    /// Runs until the event queue is exhausted, `deadline` is reached, or `max_events`
    /// events have been processed: classic merge pops in exact `(time, seq)` order
    /// (see `EventQueue::pop_min` in `queue.rs`). The simulation is not consumed, so
    /// a run can be resumed with a later deadline or inspected in between.
    pub fn run_until(&mut self, deadline: SimTime, max_events: u64) {
        self.ensure_started();
        let mut processed = 0u64;
        while processed < max_events {
            let Some(event) = self.queue.pop_min(deadline) else {
                break;
            };
            self.now = event.at.max(self.now);
            self.dispatch(event.kind);
            processed += 1;
        }
        self.events += processed;
        EVENTS_PROCESSED.fetch_add(processed, Ordering::Relaxed);
        // Advance the clock to the deadline if we stopped because the queue ran dry or
        // only future events remain; throughput is measured against wall-clock windows.
        if self.queue.peek_key().map_or(true, |(at, _)| at > deadline) {
            self.now = self.now.max(deadline);
        }
    }

    /// Snapshots every node's [`Protocol::progress_probe`] at the current time.
    pub fn probes(&self) -> Vec<Option<crate::ProgressProbe>> {
        self.nodes.iter().map(|node| node.progress_probe(self.now)).collect()
    }

    /// Consumes the simulation and produces the final report.
    pub fn into_report(self) -> SimulationReport {
        let probes = self.probes();
        let n = self.config.nodes;
        // Fan-out reference audit: tally the handles still queued per slot and
        // compare against the side table's refcounts (see
        // `SimulationReport::fanouts_balanced`). O(queue length), once per run.
        let mut counted = vec![0u32; self.fanouts.peak()];
        let mut in_range = true;
        self.queue.for_each_kind(|kind| match *kind {
            EventKind::Arrive { fanout, .. } | EventKind::Deliver { fanout, .. } => {
                match counted.get_mut(fanout as usize) {
                    Some(slot) => *slot += 1,
                    None => in_range = false,
                }
            }
            _ => {}
        });
        let fanouts_balanced = in_range && counted == self.fanouts.refcounts();
        SimulationReport {
            nodes: n,
            end_time: self.now,
            events: self.events,
            metrics: self.metrics,
            probes,
            compute_busy_nanos: (0..n).map(|i| self.compute.busy_nanos(i)).collect(),
            cores: self.resolved.cores,
            fanouts_live: self.fanouts.live(),
            fanouts_peak: self.fanouts.peak(),
            fanouts_balanced,
        }
    }

    /// Convenience: run until `deadline` (with an event budget) and produce the report.
    pub fn run_to_report(mut self, deadline: SimTime, max_events: u64) -> SimulationReport {
        self.run_until(deadline, max_events);
        self.into_report()
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::Start(node) => {
                if self.faults.is_crashed(node, self.now) {
                    return;
                }
                self.run_callback(node, Invoke::Start);
            }
            EventKind::Restart(node) => {
                // Overlapping windows could have the node down again already.
                if self.faults.is_crashed(node, self.now) {
                    return;
                }
                // The process died: whatever timers it had armed died with it.
                self.timer_epochs[node.as_index()] += 1;
                self.run_callback(node, Invoke::Restart);
            }
            EventKind::Arrive { fanout, to, size } => self.apply_arrive(fanout, to, size),
            EventKind::Deliver { fanout, to } => {
                if self.faults.is_crashed(to, self.now) {
                    // The receiver is down: the queued handle's reference comes back
                    // (the last one reclaims the slot) and no callback runs.
                    self.fanouts.release(fanout);
                    return;
                }
                let (from, message) = self.fanouts.consume(fanout);
                self.run_callback(to, Invoke::Message { from, message });
            }
            EventKind::Timer { node, token, epoch } => {
                if self.faults.is_crashed(node, self.now) {
                    return;
                }
                // A stale epoch means the timer was armed before a crash the node has
                // since restarted from: the timer belongs to the dead incarnation.
                if epoch != self.timer_epochs[node.as_index()] {
                    return;
                }
                self.run_callback(node, Invoke::Timer { token });
            }
        }
    }

    /// Runs one protocol callback against the engine's scratch action buffer (no
    /// per-event allocation) and settles its outputs.
    fn run_callback(&mut self, node: NodeId, invoke: Invoke<P::Message>) {
        let mut actions = std::mem::take(&mut self.scratch);
        {
            let mut ctx = SimContext {
                now: self.now,
                node,
                node_count: self.config.nodes,
                actions: &mut actions,
                rng: &mut self.node_rngs[node.as_index()],
            };
            match invoke {
                Invoke::Start => self.nodes[node.as_index()].on_start(&mut ctx),
                Invoke::Restart => self.nodes[node.as_index()].on_restart(&mut ctx),
                Invoke::Message { from, message } => {
                    // `FanoutTable::consume` already materialised the owned message
                    // (the last recipient of a fan-out takes it out of the slot
                    // without a clone).
                    self.nodes[node.as_index()].on_message(from, message, &mut ctx);
                }
                Invoke::Timer { token } => {
                    self.nodes[node.as_index()].on_timer(token, &mut ctx)
                }
            }
        }
        self.finish_callback(node, &mut actions);
        actions.clear();
        self.scratch = actions;
    }

    /// An `Arrive` event fires: the message reaches the receiver's downlink, whose
    /// serialisation slot is reserved now — in arrival order. The fan-out reference
    /// held by the `Arrive` handle transfers to the pushed `Deliver` handle (no
    /// refcount change) — unless the receiver is down, in which case it comes back.
    fn apply_arrive(&mut self, fanout: u32, to: NodeId, size: u32) {
        if self.faults.is_crashed(to, self.now) {
            self.fanouts.release(fanout);
            return;
        }
        let to_link = self.resolved.links[to.as_index()];
        let start = self.now.max(self.link_free[to.as_index()]);
        let delivery = start + SimDuration::transmission(size as usize, to_link.downlink_bps);
        self.link_free[to.as_index()] = delivery;
        self.push_deliver_event(delivery, fanout, to);
    }

    /// Settles a finished callback against the node's compute lanes: the charged
    /// modeled work occupies `[max(now, lane_free), +cost/speed]` of the node's
    /// earliest-free worker lane (lowest index on ties — see [`ComputeLanes`]),
    /// and every output of the callback (sends, timers, observations) takes effect
    /// at the completion instant. With nothing charged the completion instant is
    /// `now` and the engine behaves exactly as it did before the compute-resource
    /// model existed.
    fn finish_callback(&mut self, node: NodeId, actions: &mut ActionBuffer<P::Message>) {
        let done = if actions.compute.as_nanos() == 0 {
            self.now
        } else {
            let speed = self.resolved.cpu_speeds[node.as_index()];
            let scaled = (actions.compute.as_nanos() as f64 / speed).round() as u64;
            self.compute.dispatch(node.as_index(), self.now, scaled)
        };
        self.apply_actions(node, actions, done);
    }

    fn apply_actions(&mut self, node: NodeId, actions: &mut ActionBuffer<P::Message>, at: SimTime) {
        for observation in actions.observations.drain(..) {
            self.metrics.observe(at, node, observation);
        }
        let epoch = self.timer_epochs[node.as_index()];
        for (delay, token) in actions.timers.drain(..) {
            self.seq += 1;
            let timer = QueuedEvent {
                at: at + delay,
                seq: self.seq,
                kind: EventKind::Timer { node, token, epoch },
            };
            self.queue.push_timer(delay, timer);
        }
        for outgoing in actions.sends.drain(..) {
            match outgoing {
                Outgoing::Unicast(to, message) => {
                    let out = self.outbound(node, message);
                    self.route(node, to, &out, at);
                    self.fanouts.release_if_unused(out.fanout);
                }
                Outgoing::Fanout { message, to_self } => {
                    // A broadcast's local self-delivery is routed last, as `multicast`
                    // then `send(self)` would route it.
                    let out = self.outbound(node, message);
                    self.route_fanout(node, &out, at);
                    if to_self {
                        self.route(node, node, &out, at);
                    }
                    self.fanouts.release_if_unused(out.fanout);
                }
            }
        }
    }

    /// Interns a sent message and computes what all its copies share.
    fn outbound(&mut self, from: NodeId, message: P::Message) -> Outbound {
        let size = message.wire_size();
        let category = message.category();
        Outbound {
            traffic_row: self.metrics.traffic.category_row(category),
            uplink_tx: SimDuration::transmission(size, self.resolved.links[from.as_index()].uplink_bps),
            fanout: self.fanouts.intern(from, message),
            size,
            category,
        }
    }

    /// Routes one unicast copy of `out` to `to`, taking one table reference if a handle
    /// is queued: a self-delivery's `Deliver`, or the `Arrive` of a copy
    /// [`Self::transmit`] did not drop. A crashed sender sends nothing.
    fn route(&mut self, from: NodeId, to: NodeId, out: &Outbound, at: SimTime) {
        if from == to {
            // Local delivery: no bandwidth cost, a negligible scheduling delay.
            self.fanouts.incref(out.fanout, 1);
            self.push_event(at, EventKind::Deliver { fanout: out.fanout, to });
            return;
        }
        if self.faults.is_crashed(from, at) {
            return;
        }
        self.metrics.traffic.add_sent(out.traffic_row, from, out.size as u64, 1);
        if let Some(arrival) = self.transmit(from, to, out, at) {
            // Downlink serialisation is reserved when the bytes actually arrive (the
            // `Arrive` event), so the receiver's FIFO queue is ordered by arrival time.
            self.fanouts.incref(out.fanout, 1);
            self.push_event(
                arrival,
                EventKind::Arrive {
                    fanout: out.fanout,
                    to,
                    size: out.size as u32,
                },
            );
        }
    }

    /// Routes a multicast's peer copies exactly as `n − 1` unicasts in peer order would
    /// be routed: the same uplink reservations, fates, jitter draws and `seq`s. What is
    /// the same for every copy is settled once: the sender's crash state, its sent
    /// record (`n − 1` copies, dropped ones included, as a unicast's is) and the table
    /// references, one per queued copy. The copies that survive are queued as one
    /// sorted run (`crate::queue`).
    fn route_fanout(&mut self, from: NodeId, out: &Outbound, at: SimTime) {
        if self.faults.is_crashed(from, at) {
            return;
        }
        let peers = self.config.nodes as u64 - 1;
        self.metrics.traffic.add_sent(out.traffic_row, from, out.size as u64, peers);
        for index in 0..self.config.nodes {
            let peer = NodeId(index as u32);
            if peer == from {
                continue;
            }
            if let Some(arrival) = self.transmit(from, peer, out, at) {
                self.seq += 1;
                self.queue.stage_arrival(arrival, self.seq, peer);
            }
        }
        let copies = self.queue.push_run(out.fanout, out.size as u32);
        self.fanouts.incref(out.fanout, copies);
    }

    /// Carries one cross-node copy from a live sender whose sent record the caller
    /// made: judges its fate, reserves the sender's uplink and, for a copy the network
    /// keeps, records it received and draws its propagation jitter. Returns the
    /// instant the bytes reach `to`, or `None` if the copy was dropped (filter or
    /// partition drop); the caller queues its `Arrive`.
    fn transmit(&mut self, from: NodeId, to: NodeId, out: &Outbound, at: SimTime) -> Option<SimTime> {
        let mut fate = self.faults.judge(at, from, to, out.category);
        // A severed region pair drops the message after uplink accounting, exactly
        // like an attack Drop: the sender paid for bytes the network lost.
        if fate == MessageFate::Deliver && self.faults.has_partitions() {
            let from_region = self.resolved.node_region[from.as_index()] as usize;
            let to_region = self.resolved.node_region[to.as_index()] as usize;
            if self.faults.is_partitioned(at, from_region, to_region) {
                fate = MessageFate::Drop;
            }
        }

        // Uplink serialisation at the sender.
        let departure = at.max(self.link_free[from.as_index()]) + out.uplink_tx;
        self.link_free[from.as_index()] = departure;

        if fate == MessageFate::Drop {
            return None;
        }

        // Propagation: the pair's base latency (plus both endpoints' deterministic
        // straggler extras) and one uniform jitter draw against the pair's bound.
        let (base_nanos, jitter_bound) = self.resolved.delay_parts(from.as_index(), to.as_index());
        let jitter_nanos = if jitter_bound == 0 {
            0
        } else {
            self.net_rng.gen_range(0..=jitter_bound)
        };
        self.metrics.traffic.add_received(out.traffic_row, to, out.size as u64);
        Some(departure + SimDuration::from_nanos(base_nanos + jitter_nanos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{StragglerProfile, Topology};
    use crate::protocol::test_support::{PingMessage, PingPong};
    use crate::LinkConfig;

    /// A 100 µs network without jitter, so delivery times are exact.
    fn no_jitter() -> Topology {
        Topology::flat(SimDuration::from_micros(100), SimDuration::ZERO)
    }

    fn two_node_config(bps: u64) -> NetworkConfig {
        let mut config = NetworkConfig::datacenter(2).with_topology(no_jitter());
        config.link = LinkConfig::symmetric(bps);
        config
    }

    fn pingpong_factory(max_hops: u32, payload: usize) -> impl FnMut(NodeId) -> PingPong {
        move |_| PingPong {
            max_hops,
            payload,
            received: 0,
        }
    }

    #[test]
    fn pingpong_completes_and_counts_messages() {
        let config = two_node_config(0);
        let sim = Simulation::new(config, FaultPlan::none(), pingpong_factory(4, 100));
        let report = sim.run_to_report(SimTime(SimDuration::from_secs(1).as_nanos()), 10_000);
        // 4 pings + 1 done message.
        let total_messages: u64 = report
            .metrics
            .traffic
            .iter_sent()
            .map(|(_, _, _, count)| count)
            .sum();
        assert_eq!(total_messages, 5);
        assert_eq!(report.metrics.custom_samples("pingpong_done"), vec![4]);
    }

    #[test]
    fn latency_determines_completion_time_on_unlimited_links() {
        let config = two_node_config(0);
        let mut sim = Simulation::new(config, FaultPlan::none(), pingpong_factory(4, 0));
        sim.run_until(SimTime(SimDuration::from_secs(1).as_nanos()), 10_000);
        // 5 messages, each 100 µs of latency: the last delivery is at 500 µs.
        let done_at = sim
            .metrics()
            .observations
            .iter()
            .find(|o| matches!(o.kind, ObservationKind::Custom { label: "pingpong_done", .. }))
            .map(|o| o.at)
            .unwrap();
        assert_eq!(done_at.as_micros(), 400);
    }

    #[test]
    fn bandwidth_adds_serialisation_delay() {
        // 1 Mbps, 12_500-byte payload: 100 ms per hop of serialisation at each side.
        let config = two_node_config(1_000_000);
        let mut sim = Simulation::new(config, FaultPlan::none(), pingpong_factory(1, 12_500 - 8));
        sim.run_until(SimTime(SimDuration::from_secs(10).as_nanos()), 10_000);
        let done_at = sim
            .metrics()
            .observations
            .iter()
            .find(|o| matches!(o.kind, ObservationKind::Custom { label: "pingpong_done", .. }))
            .map(|o| o.at)
            .unwrap();
        // One ping: 100 ms uplink + 100 µs latency + 100 ms downlink ≈ 200.1 ms.
        assert!(done_at.as_millis() >= 200 && done_at.as_millis() <= 201, "{done_at}");
    }

    #[test]
    fn traffic_is_conserved_when_nothing_is_dropped() {
        let config = two_node_config(0);
        let sim = Simulation::new(config, FaultPlan::none(), pingpong_factory(10, 64));
        let report = sim.run_to_report(SimTime(SimDuration::from_secs(1).as_nanos()), 10_000);
        assert_eq!(
            report.metrics.traffic.total_sent_bytes(),
            report.metrics.traffic.total_received_bytes()
        );
    }

    #[test]
    fn dropped_messages_charge_sender_but_not_receiver() {
        let config = two_node_config(0);
        // Node 0 "attacks" the ping category towards everyone (`keep = 0`), and
        // node 1 refuses pings from it: every ping is dropped.
        let faults = FaultPlan::selective_attack(vec![NodeId(0)], "ping", 0);
        let sim = Simulation::new(config, faults, pingpong_factory(4, 100));
        let report = sim.run_to_report(SimTime(SimDuration::from_secs(1).as_nanos()), 10_000);
        assert!(report.metrics.traffic.total_sent_bytes() > 0);
        assert_eq!(report.metrics.traffic.total_received_bytes(), 0);
    }

    #[test]
    fn crashed_node_goes_silent() {
        let config = two_node_config(0);
        let faults = FaultPlan::none().with_crash(NodeId(1), SimTime::ZERO);
        let sim = Simulation::new(config, faults, pingpong_factory(4, 100));
        let report = sim.run_to_report(SimTime(SimDuration::from_secs(1).as_nanos()), 10_000);
        // Node 0 sends the first ping; node 1 never responds.
        assert_eq!(report.metrics.traffic.received_bytes(NodeId(1)), 0);
        assert!(report.metrics.custom_samples("pingpong_done").is_empty());
    }

    #[test]
    fn deterministic_given_a_seed() {
        let run = |seed: u64| {
            let config = NetworkConfig::datacenter(2).with_seed(seed);
            let sim = Simulation::new(config, FaultPlan::none(), pingpong_factory(20, 256));
            let report = sim.run_to_report(SimTime(SimDuration::from_secs(1).as_nanos()), 100_000);
            (
                report.events,
                report.metrics.traffic.total_sent_bytes(),
                report
                    .metrics
                    .observations
                    .iter()
                    .map(|o| o.at.as_nanos())
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn event_budget_is_respected() {
        let config = two_node_config(0);
        let mut sim = Simulation::new(config, FaultPlan::none(), pingpong_factory(1000, 8));
        sim.run_until(SimTime(SimDuration::from_secs(100).as_nanos()), 10);
        assert_eq!(sim.events_processed(), 10);
    }

    #[test]
    fn steady_state_throughput_excludes_warmup() {
        let mut report = SimulationReport {
            nodes: 1,
            end_time: SimTime(SimDuration::from_secs(10).as_nanos()),
            events: 0,
            metrics: MetricsSink::with_nodes(1),
            probes: Vec::new(),
            compute_busy_nanos: Vec::new(),
            cores: 1,
            fanouts_live: 0,
            fanouts_peak: 0,
            fanouts_balanced: true,
        };
        // 100 requests confirmed at t = 6 s: full-window rate is 10 rps, the rate over
        // the [5 s, 10 s] window is 20 rps, and a warm-up covering the run yields 0.
        report.metrics.observe(
            SimTime(SimDuration::from_secs(6).as_nanos()),
            NodeId(0),
            ObservationKind::RequestsConfirmed {
                count: 100,
                payload_bytes: 0,
            },
        );
        assert!((report.throughput_rps() - 10.0).abs() < 1e-9);
        let steady = report.steady_state_throughput_rps(SimDuration::from_secs(5));
        assert!((steady - 20.0).abs() < 1e-9);
        assert_eq!(report.steady_state_throughput_rps(SimDuration::from_secs(10)), 0.0);
        assert_eq!(report.steady_state_throughput_rps(SimDuration::from_secs(11)), 0.0);
    }

    #[test]
    fn clock_advances_to_deadline_when_idle() {
        let config = two_node_config(0);
        let mut sim = Simulation::new(config, FaultPlan::none(), pingpong_factory(1, 8));
        let deadline = SimTime(SimDuration::from_secs(2).as_nanos());
        sim.run_until(deadline, 100_000);
        assert_eq!(sim.now(), deadline);
    }

    /// Regression test for the arrival-order downlink reservation: a small message
    /// routed *after* two bulk transfers, but arriving long *before* their tail, must
    /// not queue behind them. Under route-time reservation (the pre-PR-3 model) the
    /// small ping below was delivered after ~300 ms instead of ~1 ms — the artificial
    /// head-of-line blocking that starved votes at paper scale.
    #[test]
    fn later_routed_small_message_is_not_blocked_by_earlier_bulk_reservation() {
        #[derive(Debug)]
        struct BulkThenPing {
            small_delivered: bool,
        }
        impl Protocol for BulkThenPing {
            type Message = PingMessage;

            fn on_start(&mut self, ctx: &mut dyn Context<Message = PingMessage>) {
                match ctx.node_id() {
                    // Two back-to-back bulk transfers: 125 kB at 10 Mbps is 100 ms of
                    // uplink each, so the second copy arrives at ~200 ms.
                    NodeId(0) => {
                        ctx.send(NodeId(2), PingMessage::Ping { hops: 0, payload: 125_000 });
                        ctx.send(NodeId(2), PingMessage::Ping { hops: 0, payload: 125_000 });
                    }
                    // A tiny ping routed 1 ms later (well after the bulk transfers were
                    // routed) that physically arrives at ~1.1 ms.
                    NodeId(1) => ctx.set_timer(SimDuration::from_millis(1), 7),
                    _ => {}
                }
            }

            fn on_message(
                &mut self,
                _from: NodeId,
                message: PingMessage,
                ctx: &mut dyn Context<Message = PingMessage>,
            ) {
                if let PingMessage::Ping { payload, .. } = message {
                    if payload < 1_000 && !self.small_delivered {
                        self.small_delivered = true;
                        ctx.observe(ObservationKind::Custom {
                            label: "small_delivered_at",
                            value: ctx.now().as_nanos(),
                        });
                    }
                }
            }

            fn on_timer(&mut self, _token: u64, ctx: &mut dyn Context<Message = PingMessage>) {
                ctx.send(NodeId(2), PingMessage::Ping { hops: 1, payload: 8 });
            }
        }

        let mut config = NetworkConfig::datacenter(3).with_topology(no_jitter());
        config.link = LinkConfig::symmetric(10_000_000);
        let mut sim = Simulation::new(config, FaultPlan::none(), |_| BulkThenPing {
            small_delivered: false,
        });
        sim.run_until(SimTime(SimDuration::from_secs(1).as_nanos()), 10_000);
        let delivered_at = sim
            .metrics()
            .custom_samples("small_delivered_at")
            .first()
            .copied()
            .expect("small ping was delivered");
        assert!(
            delivered_at < SimDuration::from_millis(10).as_nanos(),
            "small ping delivered at {delivered_at} ns — queued behind the bulk reservations"
        );
        // The bulk transfers still occupy the receiver's link until ~300 ms: the
        // horizon reflects real serialisation work, just reserved in arrival order.
        let horizon = sim.link_horizon(NodeId(2));
        assert!(
            horizon.as_nanos() >= SimDuration::from_millis(250).as_nanos(),
            "bulk transfers should keep the link horizon high, got {horizon:?}"
        );
    }

    /// Node 0 sends `requests` pings to node 1 at start; node 1 charges `charge` of
    /// modeled work per ping and acks; node 0 observes each ack as
    /// `ack_at = now · 1000 + hops` (acks carry `100 + request index` hops).
    #[derive(Debug)]
    struct ChargingEcho {
        requests: u32,
        charge: SimDuration,
    }
    impl Protocol for ChargingEcho {
        type Message = PingMessage;

        fn on_start(&mut self, ctx: &mut dyn Context<Message = PingMessage>) {
            if ctx.node_id() == NodeId(0) {
                for hops in 0..self.requests {
                    ctx.send(NodeId(1), PingMessage::Ping { hops, payload: 8 });
                }
            }
        }

        fn on_message(
            &mut self,
            from: NodeId,
            message: PingMessage,
            ctx: &mut dyn Context<Message = PingMessage>,
        ) {
            match (ctx.node_id(), message) {
                (NodeId(1), PingMessage::Ping { hops, .. }) => {
                    ctx.charge_compute(self.charge);
                    ctx.send(from, PingMessage::Ping { hops: 100 + hops, payload: 8 });
                }
                (NodeId(0), PingMessage::Ping { hops, .. }) => {
                    ctx.observe(ObservationKind::Custom {
                        label: "ack_at",
                        value: ctx.now().as_nanos() * 1000 + u64::from(hops),
                    });
                }
                _ => {}
            }
        }

        fn on_timer(&mut self, _token: u64, _ctx: &mut dyn Context<Message = PingMessage>) {}
    }

    /// Two back-to-back requests, 10 ms of modeled work each.
    fn two_charged_requests(_: NodeId) -> ChargingEcho {
        ChargingEcho {
            requests: 2,
            charge: SimDuration::from_millis(10),
        }
    }

    /// The compute queue is a scheduled resource: charged work serialises FIFO per
    /// node, defers the callback's outputs, scales with the node's CPU speed, and is
    /// reported as utilization.
    #[test]
    fn charged_compute_defers_outputs_and_reports_utilization() {
        let run = |speed: f64| {
            let mut config = two_node_config(0);
            config = config.with_node_cpu_speed(1, speed);
            let sim = Simulation::new(config, FaultPlan::none(), two_charged_requests);
            sim.run_to_report(SimTime(SimDuration::from_secs(1).as_nanos()), 10_000)
        };

        let report = run(1.0);
        let acks = report.metrics.custom_samples("ack_at");
        assert_eq!(acks.len(), 2);
        // First ack: ~100 µs latency + 10 ms compute + ~100 µs back. Second ack must
        // queue behind the first charge: ≥ 20 ms of compute before it leaves.
        let first_ms = acks[0] / 1000 / 1_000_000;
        let second_ms = acks[1] / 1000 / 1_000_000;
        assert!((10..12).contains(&first_ms), "first ack at {first_ms} ms");
        assert!((20..22).contains(&second_ms), "second ack at {second_ms} ms");
        // FIFO order is preserved (hops 100 before hops 101).
        assert_eq!(acks[0] % 1000, 100);
        assert_eq!(acks[1] % 1000, 101);
        // 20 ms of busy time over a 1 s run.
        assert_eq!(report.compute_busy_nanos[1], 20_000_000);
        assert!((report.compute_utilization(NodeId(1)) - 0.02).abs() < 1e-9);
        assert_eq!(report.compute_busy_nanos[0], 0);
        assert!((report.max_compute_utilization() - 0.02).abs() < 1e-9);
        assert!(report.mean_compute_utilization() > 0.0);

        // A half-speed CPU doubles the busy time and pushes the acks out.
        let slow = run(0.5);
        assert_eq!(slow.compute_busy_nanos[1], 40_000_000);
        let slow_acks = slow.metrics.custom_samples("ack_at");
        assert!(slow_acks[1] / 1000 > acks[1] / 1000);
    }

    #[test]
    fn zero_charge_keeps_the_engine_schedule_unchanged() {
        // A protocol that never charges compute must see `compute_busy_nanos == 0` and
        // the exact same behaviour as before the compute model existed.
        let config = two_node_config(0);
        let sim = Simulation::new(config, FaultPlan::none(), pingpong_factory(4, 100));
        let report = sim.run_to_report(SimTime(SimDuration::from_secs(1).as_nanos()), 10_000);
        assert!(report.compute_busy_nanos.iter().all(|&b| b == 0));
        assert_eq!(report.max_compute_utilization(), 0.0);
        assert_eq!(report.metrics.custom_samples("pingpong_done"), vec![4]);
    }

    /// With two worker lanes the two 10 ms charges overlap instead of queueing:
    /// both acks return in the first-ack window, and utilization is normalised by the
    /// core count (`lane_dispatch_breaks_ties_by_lowest_index` checks the per-lane
    /// split).
    #[test]
    fn two_lanes_overlap_charged_work_and_normalise_utilization() {
        let config = two_node_config(0).with_cores(2);
        let sim = Simulation::new(config, FaultPlan::none(), two_charged_requests);
        let report = sim.run_to_report(SimTime(SimDuration::from_secs(1).as_nanos()), 10_000);
        let acks = report.metrics.custom_samples("ack_at");
        assert_eq!(acks.len(), 2);
        // Both requests land on a free lane, so both acks are back within ~10-12 ms
        // (compare charged_compute_defers_outputs_and_reports_utilization, where the
        // second ack queues to ≥ 20 ms on a single lane).
        for ack in &acks {
            let ms = ack / 1000 / 1_000_000;
            assert!((10..12).contains(&ms), "ack at {ms} ms should not queue");
        }
        // 20 ms of busy time total, normalised utilization 20 ms / (1 s × 2 cores) = 1%.
        assert_eq!(report.compute_busy_nanos, vec![0, 20_000_000]);
        assert_eq!(report.cores, 2);
        assert!((report.compute_utilization(NodeId(1)) - 0.01).abs() < 1e-9);
    }

    /// The k = 1 lane-equivalence gate: a run with an explicit `cores = 1` through
    /// the multi-lane model must be bit-identical — same event count, same ack
    /// instants, same busy nanoseconds — to the default config (the schedule the
    /// pre-multi-core goldens were captured against).
    #[test]
    fn single_lane_run_is_bit_identical_to_the_default_model() {
        let run = |explicit_single_core: bool| {
            let mut config = two_node_config(7);
            if explicit_single_core {
                config = config.with_cores(1);
            }
            let sim = Simulation::new(config, FaultPlan::none(), |_| ChargingEcho {
                requests: 4,
                charge: SimDuration::from_millis(3),
            });
            let report = sim.run_to_report(SimTime(SimDuration::from_secs(1).as_nanos()), 10_000);
            (
                report.events,
                report.metrics.custom_samples("ack_at"),
                report.compute_busy_nanos.clone(),
            )
        };
        let default = run(false);
        let single = run(true);
        assert_eq!(default, single);
    }

    proptest::proptest! {
        /// Earliest-free-lane dispatch at k = 1 is the sequential model: for any
        /// sequence of (arrival-gap, cost) charges on one node, completion instants
        /// match the scalar `start = max(now, free); free = start + cost` fold
        /// exactly, and completions never reorder (monotone non-decreasing).
        #[test]
        fn single_lane_dispatch_matches_the_sequential_model(
            ops in proptest::collection::vec((0u64..5_000, 0u64..10_000), 0..64),
        ) {
            let mut lanes = ComputeLanes::new(1, 1);
            let mut scalar_free = SimTime::ZERO;
            let mut now = SimTime::ZERO;
            let mut last_done = SimTime::ZERO;
            let mut charged = 0u64;
            for (gap, cost) in ops {
                now = now + SimDuration::from_nanos(gap);
                let done = lanes.dispatch(0, now, cost);
                let start = now.max(scalar_free);
                let expected = start + SimDuration::from_nanos(cost);
                scalar_free = expected;
                proptest::prop_assert_eq!(done, expected);
                proptest::prop_assert!(done >= last_done, "completions reordered");
                last_done = done;
                proptest::prop_assert_eq!(lanes.horizon(0), scalar_free);
                charged += cost;
                proptest::prop_assert_eq!(lanes.busy_nanos(0), charged);
                proptest::prop_assert_eq!(lanes.lane_busy_nanos(0), &[charged][..]);
            }
        }
    }

    /// Lane selection is deterministic: earliest-free lane wins, lowest index on
    /// ties — three equal charges at t = 0 on two lanes go lane 0, lane 1, lane 0.
    #[test]
    fn lane_dispatch_breaks_ties_by_lowest_index() {
        // A neighbour on either side: the flat layout must keep node 1's two lanes to
        // itself.
        let mut lanes = ComputeLanes::new(3, 2);
        assert_eq!(lanes.lane_busy_nanos(1).len(), 2);
        let at = |nanos: u64| SimTime(SimDuration::from_nanos(nanos).as_nanos());
        // Both lanes free at ZERO: lane 0 wins the tie.
        assert_eq!(lanes.dispatch(1, SimTime::ZERO, 10), at(10));
        // Lane 1 is now strictly earlier-free.
        assert_eq!(lanes.dispatch(1, SimTime::ZERO, 10), at(10));
        // Both free at 10 again: lane 0 wins, so its busy total doubles.
        assert_eq!(lanes.dispatch(1, SimTime::ZERO, 10), at(20));
        assert_eq!(lanes.lane_busy_nanos(1), [20, 10]);
        assert_eq!(lanes.busy_nanos(1), 30);
        assert_eq!(lanes.horizon(1), at(10));
        // The neighbours saw none of it, and their own work stays theirs.
        assert_eq!((lanes.busy_nanos(0), lanes.busy_nanos(2)), (0, 0));
        assert_eq!(lanes.dispatch(2, SimTime::ZERO, 7), at(7));
        assert_eq!(lanes.lane_busy_nanos(2), [7, 0]);
        assert_eq!(lanes.lane_busy_nanos(1), [20, 10]);
        assert_eq!(lanes.horizon(0), SimTime::ZERO);
    }

    /// A flat single-region [`Topology`] with the LAN's numbers must reproduce the
    /// default (topology-less) schedule bit-identically — same event count, same
    /// observation timestamps (the RNG compatibility contract of `DESIGN.md` §7).
    #[test]
    fn flat_topology_is_bit_identical_to_the_scalar_model() {
        let run = |topology: Option<Topology>| {
            let mut config = NetworkConfig::datacenter(3).with_seed(99);
            config.topology = topology;
            let sim = Simulation::new(config, FaultPlan::none(), pingpong_factory(20, 256));
            let report = sim.run_to_report(SimTime(SimDuration::from_secs(1).as_nanos()), 100_000);
            (
                report.events,
                report.metrics.traffic.total_sent_bytes(),
                report
                    .metrics
                    .observations
                    .iter()
                    .map(|o| o.at.as_nanos())
                    .collect::<Vec<_>>(),
            )
        };
        let lan = run(None);
        let flat = run(Some(Topology::flat(
            SimDuration::from_micros(500),
            SimDuration::from_micros(50),
        )));
        assert_eq!(lan, flat);
    }

    /// Propagation delay is drawn from the region-pair matrix: an intra-region ping
    /// arrives at the intra latency, a cross-region ping at the inter latency, and a
    /// straggler's extra is charged on top deterministically.
    #[test]
    fn topology_matrix_and_straggler_extras_drive_delivery_times() {
        #[derive(Debug)]
        struct Fanout;
        impl Protocol for Fanout {
            type Message = PingMessage;

            fn on_start(&mut self, ctx: &mut dyn Context<Message = PingMessage>) {
                if ctx.node_id() == NodeId(0) {
                    // Node 1 is region "b" (cross-region), node 2 is region "a"
                    // (intra-region), node 3 is region "b" and a straggler.
                    for peer in [1u32, 2, 3] {
                        ctx.send(NodeId(peer), PingMessage::Ping { hops: 0, payload: 8 });
                    }
                }
            }

            fn on_message(
                &mut self,
                _from: NodeId,
                _message: PingMessage,
                ctx: &mut dyn Context<Message = PingMessage>,
            ) {
                ctx.observe(ObservationKind::Custom {
                    label: "arrived",
                    value: ctx.node_id().0 as u64 * 1_000_000_000 + ctx.now().as_nanos(),
                });
            }

            fn on_timer(&mut self, _token: u64, _ctx: &mut dyn Context<Message = PingMessage>) {}
        }

        let topology = Topology::uniform(
            &["a", "b"],
            SimDuration::from_micros(100),
            SimDuration::from_millis(5),
            SimDuration::ZERO,
        )
        .with_straggler(
            3,
            StragglerProfile {
                link: None,
                cpu_factor: 1.0,
                extra_latency: SimDuration::from_millis(25),
            },
        );
        let mut config = NetworkConfig::datacenter(4).with_topology(topology);
        config.link = LinkConfig::unlimited();
        let mut sim = Simulation::new(config, FaultPlan::none(), |_| Fanout);
        sim.run_until(SimTime(SimDuration::from_secs(1).as_nanos()), 1_000);
        let mut arrivals: Vec<(u64, u64)> = sim
            .metrics()
            .custom_samples("arrived")
            .into_iter()
            .map(|v| (v / 1_000_000_000, v % 1_000_000_000))
            .collect();
        arrivals.sort_unstable();
        assert_eq!(
            arrivals,
            vec![
                (1, 5_000_000),  // cross-region: 5 ms
                (2, 100_000),    // intra-region: 100 µs
                (3, 30_000_000), // cross-region + straggler extra: 5 ms + 25 ms
            ]
        );
    }

    /// A ticker protocol for the crash-restart tests: a 100 ms periodic timer that
    /// observes each tick, plus one long one-shot "ghost" timer armed at (re)start.
    #[derive(Debug)]
    struct Ticker;
    impl Protocol for Ticker {
        type Message = PingMessage;

        fn on_start(&mut self, ctx: &mut dyn Context<Message = PingMessage>) {
            ctx.set_timer(SimDuration::from_millis(100), 1);
            ctx.set_timer(SimDuration::from_millis(800), 2);
        }

        fn on_message(
            &mut self,
            _from: NodeId,
            _message: PingMessage,
            _ctx: &mut dyn Context<Message = PingMessage>,
        ) {
        }

        fn on_timer(&mut self, token: u64, ctx: &mut dyn Context<Message = PingMessage>) {
            if ctx.node_id() != NodeId(0) {
                return;
            }
            match token {
                1 => {
                    ctx.observe(ObservationKind::Custom {
                        label: "tick",
                        value: ctx.now().as_nanos(),
                    });
                    ctx.set_timer(SimDuration::from_millis(100), 1);
                }
                2 => ctx.observe(ObservationKind::Custom {
                    label: "ghost",
                    value: ctx.now().as_nanos(),
                }),
                _ => unreachable!(),
            }
        }
    }

    /// A finite crash window silences the node while it lasts, calls `on_restart` at
    /// the restart instant, and swallows every timer armed by the dead incarnation —
    /// including long timers that would only fire *after* the restart.
    #[test]
    fn crash_restart_resumes_timers_in_a_fresh_epoch() {
        let config = two_node_config(0);
        let faults = FaultPlan::none().with_crash_restart(
            NodeId(0),
            SimTime(SimDuration::from_millis(250).as_nanos()),
            SimTime(SimDuration::from_millis(500).as_nanos()),
        );
        let sim = Simulation::new(config, faults, |_| Ticker);
        let report = sim.run_to_report(SimTime(SimDuration::from_secs(1).as_nanos()), 10_000);
        let ticks: Vec<u64> = report
            .metrics
            .custom_samples("tick")
            .iter()
            .map(|&nanos| nanos / 1_000_000)
            .collect();
        // Pre-crash ticks at 100 and 200 ms; the 300 ms tick dies with the crash, and
        // the restart re-arms a fresh chain at 600..=1000 ms.
        assert_eq!(ticks, vec![100, 200, 600, 700, 800, 900, 1000]);
        // The ghost timer armed at t = 0 would fire at 800 ms — after the restart. It
        // belongs to the dead incarnation, so the epoch check must swallow it (the
        // re-armed copy from `on_restart` lands at 1300 ms, past the deadline).
        assert!(report.metrics.custom_samples("ghost").is_empty());
    }

    /// Eight nodes tick on one 100 ms period and each arms an 800 ms "ghost" at
    /// (re)start, so both delays wait in timer lanes. Node 3 is down from 250 to
    /// 500 ms. Its ghost from t = 0 is still in the 800 ms lane after the restart, and
    /// the epoch check swallows it at 800 ms, when the seven live nodes' ghosts fire.
    #[test]
    fn stale_timers_in_a_lane_are_swallowed_after_a_restart() {
        #[derive(Debug)]
        struct Periodic;
        impl Protocol for Periodic {
            type Message = PingMessage;

            fn on_start(&mut self, ctx: &mut dyn Context<Message = PingMessage>) {
                ctx.set_timer(SimDuration::from_millis(100), 1);
                ctx.set_timer(SimDuration::from_millis(800), 2);
            }

            fn on_message(
                &mut self,
                _from: NodeId,
                _message: PingMessage,
                _ctx: &mut dyn Context<Message = PingMessage>,
            ) {
            }

            fn on_timer(&mut self, token: u64, ctx: &mut dyn Context<Message = PingMessage>) {
                let label = if token == 1 { "tick" } else { "ghost" };
                let value = u64::from(ctx.node_id().0) * 10_000 + ctx.now().as_millis();
                ctx.observe(ObservationKind::Custom { label, value });
                if token == 1 {
                    ctx.set_timer(SimDuration::from_millis(100), 1);
                }
            }
        }

        let config = NetworkConfig::datacenter(8).with_topology(no_jitter());
        let ms = |millis| SimTime(SimDuration::from_millis(millis).as_nanos());
        let faults = FaultPlan::none().with_crash_restart(NodeId(3), ms(250), ms(500));
        let mut sim = Simulation::new(config, faults, |_| Periodic);
        sim.run_until(ms(550), 10_000);
        let laned = |sim: &Simulation<Periodic>, node: u32, epoch: u32| {
            let ghost = |kind: &&EventKind| {
                matches!(**kind, EventKind::Timer { node: n, token: 2, epoch: e } if n.0 == node && e == epoch)
            };
            sim.queue.lane_kinds().filter(ghost).count()
        };
        assert_eq!(laned(&sim, 3, 0), 1, "the dead incarnation's ghost waits in a lane");
        assert_eq!(laned(&sim, 3, 1), 1, "so does the one armed at the restart");
        assert_eq!((0..8).map(|node| laned(&sim, node, 0)).sum::<usize>(), 8);

        let report = sim.run_to_report(ms(1_000), 10_000);
        let mut ghosts = report.metrics.custom_samples("ghost").to_vec();
        ghosts.sort_unstable();
        assert_eq!(ghosts, [0, 1, 2, 4, 5, 6, 7].map(|node| node * 10_000 + 800));
        let node_3_ticks: Vec<u64> = report
            .metrics
            .custom_samples("tick")
            .iter()
            .filter_map(|&value| (value / 10_000 == 3).then_some(value % 10_000))
            .collect();
        assert_eq!(node_3_ticks, vec![100, 200, 600, 700, 800, 900, 1000]);
        assert_eq!(report.metrics.custom_samples("tick").len(), 7 * 10 + 7);
    }

    /// A partition window drops cross-region traffic (sender still charged) and heals
    /// at its end instant.
    #[test]
    fn partition_window_severs_and_heals_region_pairs() {
        #[derive(Debug)]
        struct RetrySender;
        impl Protocol for RetrySender {
            type Message = PingMessage;

            fn on_start(&mut self, ctx: &mut dyn Context<Message = PingMessage>) {
                if ctx.node_id() == NodeId(0) {
                    // First copy at t = 0 (inside the partition), retry at 150 ms.
                    ctx.send(NodeId(1), PingMessage::Ping { hops: 0, payload: 92 });
                    ctx.set_timer(SimDuration::from_millis(150), 1);
                }
            }

            fn on_message(
                &mut self,
                _from: NodeId,
                _message: PingMessage,
                ctx: &mut dyn Context<Message = PingMessage>,
            ) {
                ctx.observe(ObservationKind::Custom {
                    label: "delivered_at",
                    value: ctx.now().as_nanos(),
                });
            }

            fn on_timer(&mut self, _token: u64, ctx: &mut dyn Context<Message = PingMessage>) {
                ctx.send(NodeId(1), PingMessage::Ping { hops: 1, payload: 92 });
            }
        }

        // Nodes 0 and 1 land in regions "a" and "b" (round-robin); partition the pair
        // for the first 100 ms.
        let topology = Topology::uniform(
            &["a", "b"],
            SimDuration::from_micros(100),
            SimDuration::from_millis(5),
            SimDuration::ZERO,
        );
        let mut config = NetworkConfig::datacenter(2).with_topology(topology);
        config.link = LinkConfig::unlimited();
        let faults = FaultPlan::none().with_partition(
            0,
            1,
            SimTime::ZERO,
            SimTime(SimDuration::from_millis(100).as_nanos()),
        );
        let sim = Simulation::new(config, faults, |_| RetrySender);
        let report = sim.run_to_report(SimTime(SimDuration::from_secs(1).as_nanos()), 10_000);
        // Only the retry got through: 150 ms departure + 5 ms cross-region latency.
        let delivered = report.metrics.custom_samples("delivered_at");
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0], SimDuration::from_millis(155).as_nanos());
        // The sender paid the uplink for both copies; the receiver saw only one.
        assert_eq!(report.metrics.traffic.sent_bytes(NodeId(0)), 200);
        assert_eq!(report.metrics.traffic.received_bytes(NodeId(1)), 100);
    }

    #[test]
    #[should_panic(expected = "with_partition: region 2 out of range for a 2-region topology")]
    fn partition_region_out_of_range_panics_with_context() {
        let topology = Topology::uniform(
            &["a", "b"],
            SimDuration::from_micros(100),
            SimDuration::from_millis(5),
            SimDuration::ZERO,
        );
        let config = NetworkConfig::datacenter(2).with_topology(topology);
        let faults = FaultPlan::none().with_partition(0, 2, SimTime::ZERO, SimTime(100));
        let _ = Simulation::new(config, faults, pingpong_factory(1, 8));
    }

    #[test]
    #[should_panic(expected = "with_partition: region 1 out of range for a 1-region topology")]
    fn partition_without_topology_panics_with_context() {
        let config = two_node_config(0);
        let faults = FaultPlan::none().with_partition(0, 1, SimTime::ZERO, SimTime(100));
        let _ = Simulation::new(config, faults, pingpong_factory(1, 8));
    }

    #[test]
    #[should_panic(expected = "with_crash: node 7 out of range for a 2-node network")]
    fn crash_node_out_of_range_panics_with_context() {
        let config = two_node_config(0);
        let faults = FaultPlan::none().with_crash(NodeId(7), SimTime::ZERO);
        let _ = Simulation::new(config, faults, pingpong_factory(1, 8));
    }

    thread_local! {
        static CLONES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
        static DROPS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// A message that counts its clones and drops on the test's thread.
    #[derive(Debug)]
    struct Counted;
    impl Clone for Counted {
        fn clone(&self) -> Self {
            CLONES.with(|clones| clones.set(clones.get() + 1));
            Counted
        }
    }
    impl Drop for Counted {
        fn drop(&mut self) {
            DROPS.with(|drops| drops.set(drops.get() + 1));
        }
    }
    impl WireSize for Counted {
        fn wire_size(&self) -> usize {
            64
        }
    }
    impl SimMessage for Counted {
        fn category(&self) -> &'static str {
            "counted"
        }
    }

    #[derive(Clone, Copy, Debug)]
    enum Send {
        Unicast,
        Multicast,
        Broadcast,
    }

    /// Node 0 sends one [`Counted`] at start; every receiver observes it and drops it.
    #[derive(Debug)]
    struct CountedSender(Send);
    impl Protocol for CountedSender {
        type Message = Counted;

        fn on_start(&mut self, ctx: &mut dyn Context<Message = Counted>) {
            if ctx.node_id() == NodeId(0) {
                match self.0 {
                    Send::Unicast => ctx.send(NodeId(1), Counted),
                    Send::Multicast => ctx.multicast(Counted),
                    Send::Broadcast => ctx.broadcast(Counted),
                }
            }
        }

        fn on_message(
            &mut self,
            _from: NodeId,
            _message: Counted,
            ctx: &mut dyn Context<Message = Counted>,
        ) {
            ctx.observe(ObservationKind::Custom {
                label: "received",
                value: ctx.node_id().0 as u64,
            });
        }

        fn on_timer(&mut self, _token: u64, _ctx: &mut dyn Context<Message = Counted>) {}
    }

    /// Runs one send at n = 4 to quiescence: the receivers, the clones and drops of the
    /// message, and the fan-out slots still live.
    fn run_counted(
        send: Send,
        config: NetworkConfig,
        faults: FaultPlan,
    ) -> (Vec<u64>, usize, usize, usize) {
        CLONES.with(|clones| clones.set(0));
        DROPS.with(|drops| drops.set(0));
        let mut sim = Simulation::new(config, faults, |_| CountedSender(send));
        sim.run_until(SimTime(SimDuration::from_secs(1).as_nanos()), 1_000);
        let mut received = sim.metrics().custom_samples("received");
        received.sort_unstable();
        let live = sim.fanouts_live();
        drop(sim);
        let (clones, drops) = (CLONES.with(|c| c.get()), DROPS.with(|d| d.get()));
        (received, clones, drops, live)
    }

    /// The fan-out slot owns the message: a unicast is moved from sender to receiver
    /// and never cloned, a fan-out to `k` receivers is cloned `k − 1` times (the last
    /// receiver takes the message itself), a copy the network or a crashed receiver
    /// drops is never cloned, and every slot is reclaimed once the run quiesces.
    #[test]
    fn the_fanout_slot_moves_the_message_and_clones_only_for_extra_receivers() {
        let lan = || NetworkConfig::datacenter(4).with_topology(no_jitter());
        // (receivers, clones, drops, live slots)
        assert_eq!(
            run_counted(Send::Unicast, lan(), FaultPlan::none()),
            (vec![1], 0, 1, 0),
            "a unicast is moved, never cloned"
        );
        assert_eq!(
            run_counted(Send::Multicast, lan(), FaultPlan::none()),
            (vec![1, 2, 3], 2, 3, 0),
            "a multicast to n − 1 peers clones n − 2 times"
        );
        assert_eq!(
            run_counted(Send::Broadcast, lan(), FaultPlan::none()),
            (vec![0, 1, 2, 3], 3, 4, 0),
            "a broadcast clones n − 1 times"
        );

        // Node 3 crashes while its copy is in flight (the route at t = 0 queued it, the
        // bytes arrive after 100 µs), so its `Arrive` hands the reference back without
        // a clone. The two live receivers cost one clone; the last delivery moves the
        // message.
        let crashed = FaultPlan::none().with_crash(NodeId(3), SimTime(50_000));
        assert_eq!(
            run_counted(Send::Multicast, lan(), crashed),
            (vec![1, 2], 1, 2, 0),
            "a crashed receiver's copy is dropped without a clone"
        );

        // Regions round-robin: nodes 1 and 3 sit across the severed pair, so their
        // copies are dropped at route time and never reference the slot; node 2, the
        // only receiver, gets the message itself.
        let regions = Topology::uniform(
            &["a", "b"],
            SimDuration::from_micros(100),
            SimDuration::from_millis(5),
            SimDuration::ZERO,
        );
        let severed = FaultPlan::none().with_partition(0, 1, SimTime::ZERO, SimTime(u64::MAX));
        assert_eq!(
            run_counted(
                Send::Multicast,
                NetworkConfig::datacenter(4).with_topology(regions),
                severed
            ),
            (vec![2], 0, 1, 0),
            "partition-dropped copies are dropped without a clone"
        );
    }

    /// A run cut by the deadline: node 0 multicasts three datablock-sized messages at
    /// n = 8 over 1 Gbps links, so its 21 copies depart 2 ms apart, and the run stops
    /// at 21 ms. Copies 1–9 are delivered, copy 10 waits in its receiver's deliver
    /// FIFO, and copies 11–21 still wait in two runs (the second multicast's last four
    /// copies and the whole third). The audit finds every undelivered copy: the queued
    /// handles equal the table's references, and the first multicast's slot is gone.
    #[test]
    fn the_audit_counts_the_copies_a_cut_run_has_not_delivered() {
        #[derive(Debug)]
        struct Datablocks;
        impl Protocol for Datablocks {
            type Message = PingMessage;

            fn on_start(&mut self, ctx: &mut dyn Context<Message = PingMessage>) {
                if ctx.node_id() == NodeId(0) {
                    for _ in 0..3 {
                        ctx.multicast(PingMessage::Ping { hops: 0, payload: 250_000 - 8 });
                    }
                }
            }

            fn on_message(
                &mut self,
                _from: NodeId,
                _message: PingMessage,
                ctx: &mut dyn Context<Message = PingMessage>,
            ) {
                ctx.observe(ObservationKind::Custom {
                    label: "received",
                    value: ctx.node_id().0 as u64,
                });
            }

            fn on_timer(&mut self, _token: u64, _ctx: &mut dyn Context<Message = PingMessage>) {}
        }

        let mut config = NetworkConfig::datacenter(8).with_topology(no_jitter());
        config.link = LinkConfig::symmetric(1_000_000_000);
        let mut sim = Simulation::new(config, FaultPlan::none(), |_| Datablocks);
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(21), 1_000);

        assert_eq!(sim.metrics().custom_samples("received").len(), 9);
        assert_eq!(sim.fanouts_live(), 2, "the first multicast is fully delivered");
        let (mut arrivals, mut deliveries) = (0, 0);
        sim.queue.for_each_kind(|kind| match kind {
            EventKind::Arrive { .. } => arrivals += 1,
            EventKind::Deliver { .. } => deliveries += 1,
            _ => {}
        });
        assert_eq!((arrivals, deliveries), (11, 1), "queued handles by kind");
        assert_eq!(sim.fanouts.refcounts().iter().sum::<u32>(), 12);
        let report = sim.into_report();
        assert!(report.fanouts_balanced);
        assert_eq!(report.fanouts_live, 2);
    }

    /// Uplink and downlink are one budget: a sender's link is busy while its copy
    /// departs, and a receiver's while the copy is delivered.
    #[test]
    fn uplink_and_downlink_horizons_are_coupled() {
        // 12,500 bytes at 1 Mbps: 100 ms of serialisation on each side.
        let config = two_node_config(1_000_000);
        let mut sim = Simulation::new(config, FaultPlan::none(), pingpong_factory(1, 12_492));
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(150), 10_000);
        let at = |micros| SimTime::ZERO + SimDuration::from_micros(micros);
        // Node 0's copy departs at 100 ms; node 1 reserves its downlink when the bytes
        // arrive (100.1 ms) through their delivery at 200.1 ms.
        assert_eq!(sim.link_horizon(NodeId(0)), at(100_000));
        assert_eq!(sim.link_horizon(NodeId(1)), at(200_100));
    }
}

