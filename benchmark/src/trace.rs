//! Spans recorded from outside the crates: a [`Traced`] replica wraps a real one and
//! hands it a [`TracedContext`], so every handler call and every call the handler
//! makes back into the engine is timed at the `Protocol` / `Context` boundary.
//!
//! Span tree of one run:
//! `simnet.run_until` → `<crate>.on_message.<category>` / `on_timer` / `on_start`
//! → `simnet.ctx.{send,fanout,set_timer,observe}`.
//! A layer's self time is its spans' duration minus what their children cover.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use leopard_core::LeopardMessage;
use leopard_hotstuff::HotStuffMessage;
use leopard_simnet::{
    Context, ObservationKind, ProgressProbe, Protocol, SimDuration, SimMessage, SimTime,
};
use leopard_types::NodeId;
use rand::RngCore;

use crate::spec::{CORE_CATEGORIES, HOTSTUFF_CATEGORIES};

/// Message slots come first (at most [`SLOT_TIMER`] categories per protocol), then the
/// other handler kinds, then the context calls.
pub const SLOT_TIMER: usize = 10;
pub const SLOT_START: usize = 11;
pub const SLOT_SEND: usize = 12;
pub const SLOT_FANOUT: usize = 13;
pub const SLOT_SET_TIMER: usize = 14;
pub const SLOT_OBSERVE: usize = 15;
/// `charge_compute` is counted, not timed: it is the most frequent context call and
/// two clock reads would cost more than the call itself.
pub const SLOT_CHARGE: usize = 16;
pub const SLOTS: usize = 17;

/// Every this-many-th callback is timed; all are counted. One clock read costs 37 ns
/// on the reference machine against ~400 ns per event, and a callback with `c` context
/// calls needs `2 + 2c` of them: timing every callback made the run 1.3 to 1.6 times
/// longer and charged the reads to the layers being measured.
pub const TIME_EVERY: u64 = 4;
/// Every this-many-th callback keeps its full span tree. A multiple of [`TIME_EVERY`].
pub const SAMPLE_EVERY: u64 = 1024;
const _: () = assert!(SAMPLE_EVERY.is_multiple_of(TIME_EVERY));

/// A message type whose categories are known at compile time, so a span is filed by
/// array index and not by comparing category strings.
pub trait Categorised: SimMessage {
    /// Category names in slot order, equal to what `category()` returns.
    const CATEGORIES: &'static [&'static str];
    /// The crate that handles these messages (the span-name prefix).
    const LAYER: &'static str;
    fn slot(&self) -> usize;
}

impl Categorised for LeopardMessage {
    const CATEGORIES: &'static [&'static str] = &CORE_CATEGORIES;
    const LAYER: &'static str = "core";

    fn slot(&self) -> usize {
        match self {
            LeopardMessage::Datablock(_) => 0,
            LeopardMessage::Ready { .. } => 1,
            LeopardMessage::PrePrepare { .. } => 2,
            LeopardMessage::PrepareVote { .. } | LeopardMessage::CommitVote { .. } => 3,
            LeopardMessage::NotarizationProof { .. } | LeopardMessage::ConfirmationProof { .. } => {
                4
            }
            LeopardMessage::Query { .. } => 5,
            LeopardMessage::QueryResponse { .. } => 6,
            LeopardMessage::Checkpoint { .. } | LeopardMessage::CheckpointProof { .. } => 7,
            LeopardMessage::Timeout { .. }
            | LeopardMessage::ViewChange { .. }
            | LeopardMessage::NewView { .. } => 8,
            LeopardMessage::StateRequest { .. } | LeopardMessage::StateResponse { .. } => 9,
        }
    }
}

impl Categorised for HotStuffMessage {
    const CATEGORIES: &'static [&'static str] = &HOTSTUFF_CATEGORIES;
    const LAYER: &'static str = "hotstuff";

    fn slot(&self) -> usize {
        match self {
            HotStuffMessage::Proposal { .. } => 0,
            HotStuffMessage::Vote { .. } => 1,
            HotStuffMessage::NewView { .. } => 2,
        }
    }
}

/// The span name of a slot, for a protocol whose messages are `M`.
pub fn slot_name<M: Categorised>(slot: usize) -> String {
    match slot {
        SLOT_TIMER => format!("{}.on_timer", M::LAYER),
        SLOT_START => format!("{}.on_start", M::LAYER),
        SLOT_SEND => "simnet.ctx.send".into(),
        SLOT_FANOUT => "simnet.ctx.fanout".into(),
        SLOT_SET_TIMER => "simnet.ctx.set_timer".into(),
        SLOT_OBSERVE => "simnet.ctx.observe".into(),
        SLOT_CHARGE => "simnet.ctx.charge_compute".into(),
        message => format!("{}.on_message.{}", M::LAYER, M::CATEGORIES[message]),
    }
}

/// Per slot: how many calls there were, how many of them were timed, and how long the
/// timed ones took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    pub calls: [u64; SLOTS],
    pub timed_calls: [u64; SLOTS],
    pub timed_ns: [u64; SLOTS],
    /// Clock reads that fell inside the timed spans of a slot: one per span (half of
    /// its first read, half of its last) and two per timed context call inside it.
    pub clock_reads: [u64; SLOTS],
}

impl Ledger {
    #[inline]
    fn add_timed(&mut self, slot: usize, ns: u64, nested_context_calls: u64) {
        self.calls[slot] += 1;
        self.timed_calls[slot] += 1;
        self.timed_ns[slot] += ns;
        self.clock_reads[slot] += 1 + 2 * nested_context_calls;
    }

    pub fn merge(&mut self, other: &Ledger) {
        for slot in 0..SLOTS {
            self.calls[slot] += other.calls[slot];
            self.timed_calls[slot] += other.timed_calls[slot];
            self.timed_ns[slot] += other.timed_ns[slot];
            self.clock_reads[slot] += other.clock_reads[slot];
        }
    }

    /// Estimated total time of a slot had nothing been timed: the timed calls' mean,
    /// less the clock reads inside them at `read_ns` each, over all its calls.
    pub fn ns(&self, slot: usize, read_ns: f64) -> f64 {
        if self.timed_calls[slot] == 0 {
            return 0.0;
        }
        let timed = (self.timed_ns[slot] as f64 - self.clock_reads[slot] as f64 * read_ns).max(0.0);
        timed * self.calls[slot] as f64 / self.timed_calls[slot] as f64
    }

    /// Estimated total time inside handlers (context calls included).
    pub fn handler_ns(&self, read_ns: f64) -> f64 {
        (0..SLOT_SEND).map(|slot| self.ns(slot, read_ns)).sum()
    }

    /// Estimated total time inside timed context calls.
    pub fn context_ns(&self, read_ns: f64) -> f64 {
        (SLOT_SEND..SLOT_CHARGE)
            .map(|slot| self.ns(slot, read_ns))
            .sum()
    }

    /// Clock reads the run actually made: two per timed span.
    pub fn clock_reads_made(&self) -> u64 {
        2 * self.timed_calls.iter().sum::<u64>()
    }
}

/// One recorded span of a sampled callback. `parent` indexes the same list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub slot: u8,
    pub node: u32,
    /// Ordinal of the callback across all replicas; shared by the spans of one tree.
    pub id: u64,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Duration of `span` minus the part of it that `children` cover. Children may touch,
/// overlap or be empty; parts of a child outside the span do not count.
pub fn self_ns(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.clamp(start, end), e.clamp(start, end)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let from = s.max(reach);
        if e > from {
            covered += e - from;
            reach = e;
        }
    }
    (end - start) - covered
}

/// Shared by all replicas of one traced run: the time origin and the callback ordinal.
#[derive(Debug, Clone)]
pub struct Tracer {
    epoch: Instant,
    ordinal: Arc<AtomicU64>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            ordinal: Arc::new(AtomicU64::new(0)),
        }
    }

    /// What one [`Self::now_ns`] costs on this machine, in nanoseconds.
    pub fn clock_read_ns(&self) -> f64 {
        crate::stats::median_of_batches(11, || {
            let start = Instant::now();
            for _ in 0..10_000 {
                std::hint::black_box(self.now_ns());
            }
            start.elapsed().as_nanos() as f64 / 10_000.0
        })
    }

    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn wrap<P: Protocol>(&self, inner: P) -> Traced<P> {
        Traced {
            inner,
            tracer: self.clone(),
            ledger: Ledger::default(),
            spans: Vec::new(),
        }
    }
}

/// A replica that counts every callback of the replica inside it, times every
/// [`TIME_EVERY`]-th, and changes nothing else: same calls, same order, same arguments.
pub struct Traced<P: Protocol> {
    inner: P,
    tracer: Tracer,
    ledger: Ledger,
    spans: Vec<Span>,
}

impl<P: Protocol> Traced<P> {
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn callback(
        &mut self,
        slot: usize,
        ctx: &mut dyn Context<Message = P::Message>,
        run: impl FnOnce(&mut P, &mut dyn Context<Message = P::Message>),
    ) {
        // Relaxed: the ordinal only labels spans, it publishes no other data.
        let id = self.tracer.ordinal.fetch_add(1, Ordering::Relaxed);
        let timing = id.is_multiple_of(TIME_EVERY);
        let root = id.is_multiple_of(SAMPLE_EVERY).then(|| {
            self.spans.push(Span {
                slot: slot as u8,
                node: ctx.node_id().0,
                id,
                parent: None,
                start_ns: 0,
                end_ns: 0,
            });
            (self.spans.len() - 1) as u32
        });
        let start = if timing { self.tracer.now_ns() } else { 0 };
        let mut traced = TracedContext {
            inner: ctx,
            tracer: &self.tracer,
            ledger: &mut self.ledger,
            timing,
            timed_calls: 0,
            sample: root.map(|root| (root, &mut self.spans)),
        };
        run(&mut self.inner, &mut traced);
        if !timing {
            self.ledger.calls[slot] += 1;
            return;
        }
        let nested = traced.timed_calls;
        let end = self.tracer.now_ns();
        self.ledger.add_timed(slot, end - start, nested);
        if let Some(root) = root {
            let span = &mut self.spans[root as usize];
            span.start_ns = start;
            span.end_ns = end;
        }
    }
}

impl<P: Protocol> Protocol for Traced<P>
where
    P::Message: Categorised,
{
    type Message = P::Message;

    fn on_start(&mut self, ctx: &mut dyn Context<Message = Self::Message>) {
        self.callback(SLOT_START, ctx, |inner, ctx| inner.on_start(ctx));
    }

    fn on_restart(&mut self, ctx: &mut dyn Context<Message = Self::Message>) {
        self.callback(SLOT_START, ctx, |inner, ctx| inner.on_restart(ctx));
    }

    fn on_message(
        &mut self,
        from: NodeId,
        message: Self::Message,
        ctx: &mut dyn Context<Message = Self::Message>,
    ) {
        let slot = message.slot();
        debug_assert_eq!(Self::Message::CATEGORIES[slot], message.category());
        self.callback(slot, ctx, |inner, ctx| inner.on_message(from, message, ctx));
    }

    fn on_timer(&mut self, token: u64, ctx: &mut dyn Context<Message = Self::Message>) {
        self.callback(SLOT_TIMER, ctx, |inner, ctx| inner.on_timer(token, ctx));
    }

    fn progress_probe(&self, now: SimTime) -> Option<ProgressProbe> {
        self.inner.progress_probe(now)
    }
}

/// The context a traced replica sees: forwards every call to the engine's context,
/// timing the ones that do work there.
struct TracedContext<'a, M: SimMessage> {
    inner: &'a mut dyn Context<Message = M>,
    tracer: &'a Tracer,
    ledger: &'a mut Ledger,
    /// Whether this callback is a timed one.
    timing: bool,
    /// Context calls timed so far in this callback.
    timed_calls: u64,
    /// Index of the handler span and the list to push child spans to, when this
    /// callback is sampled.
    sample: Option<(u32, &'a mut Vec<Span>)>,
}

impl<M: SimMessage> TracedContext<'_, M> {
    #[inline]
    fn timed(&mut self, slot: usize, call: impl FnOnce(&mut dyn Context<Message = M>)) {
        if !self.timing {
            self.ledger.calls[slot] += 1;
            return call(self.inner);
        }
        let start = self.tracer.now_ns();
        call(self.inner);
        let end = self.tracer.now_ns();
        self.ledger.add_timed(slot, end - start, 0);
        self.timed_calls += 1;
        if let Some((root, spans)) = &mut self.sample {
            let handler = spans[*root as usize];
            spans.push(Span {
                slot: slot as u8,
                parent: Some(*root),
                start_ns: start,
                end_ns: end,
                ..handler
            });
        }
    }
}

impl<M: SimMessage> Context for TracedContext<'_, M> {
    type Message = M;

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn node_id(&self) -> NodeId {
        self.inner.node_id()
    }

    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn send(&mut self, to: NodeId, message: M) {
        self.timed(SLOT_SEND, |ctx| ctx.send(to, message));
    }

    // multicast and broadcast must reach the engine's own implementations (one shared
    // envelope per fan-out), not the trait's default loop over `send`.
    fn multicast(&mut self, message: M) {
        self.timed(SLOT_FANOUT, |ctx| ctx.multicast(message));
    }

    fn broadcast(&mut self, message: M) {
        self.timed(SLOT_FANOUT, |ctx| ctx.broadcast(message));
    }

    fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.timed(SLOT_SET_TIMER, |ctx| ctx.set_timer(delay, token));
    }

    fn charge_compute(&mut self, cost: SimDuration) {
        self.ledger.calls[SLOT_CHARGE] += 1;
        self.inner.charge_compute(cost);
    }

    fn observe(&mut self, observation: ObservationKind) {
        self.timed(SLOT_OBSERVE, |ctx| ctx.observe(observation));
    }

    fn rng(&mut self) -> &mut dyn RngCore {
        self.inner.rng()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mirror;
    use leopard_harness::ScenarioConfig;
    use leopard_simnet::{Simulation, SimulationReport};

    #[test]
    fn self_time_of_nested_and_adjacent_children() {
        // Two back-to-back children and a gap on either side.
        assert_eq!(self_ns((100, 200), &[(110, 130), (130, 150)]), 60);
        // A child nested in another counts once.
        assert_eq!(self_ns((100, 200), &[(110, 150), (120, 140)]), 60);
        // Overlapping children count their union.
        assert_eq!(self_ns((100, 200), &[(110, 140), (130, 160)]), 50);
        // Children given out of order.
        assert_eq!(self_ns((100, 200), &[(150, 160), (110, 120)]), 80);
        // No children: all of it is self time.
        assert_eq!(self_ns((100, 200), &[]), 100);
        // A child covering everything leaves nothing.
        assert_eq!(self_ns((100, 200), &[(100, 200)]), 0);
    }

    #[test]
    fn self_time_with_zero_length_spans_and_overhang() {
        assert_eq!(self_ns((100, 100), &[]), 0);
        assert_eq!(self_ns((100, 100), &[(100, 100)]), 0);
        assert_eq!(self_ns((100, 200), &[(150, 150)]), 100);
        // Only the part of a child inside the span counts.
        assert_eq!(self_ns((100, 200), &[(50, 120), (190, 250)]), 70);
        assert_eq!(self_ns((100, 200), &[(0, 50), (300, 400)]), 100);
    }

    #[test]
    fn ledger_self_times_add_up() {
        let mut ledger = Ledger::default();
        ledger.add_timed(0, 100, 2);
        ledger.add_timed(SLOT_TIMER, 50, 0);
        ledger.add_timed(SLOT_SEND, 30, 0);
        ledger.add_timed(SLOT_OBSERVE, 5, 0);
        ledger.calls[SLOT_CHARGE] += 3;
        assert_eq!(ledger.handler_ns(0.0), 150.0);
        assert_eq!(ledger.context_ns(0.0), 35.0);
        assert_eq!(ledger.clock_reads_made(), 8);
        // With a 4 ns clock: slot 0 held 1 + 2·2 reads, the others one each; a span
        // shorter than its reads is worth nothing, not less.
        assert_eq!(ledger.ns(0, 4.0), 80.0);
        assert_eq!(ledger.ns(SLOT_SEND, 4.0), 26.0);
        assert_eq!(ledger.ns(SLOT_OBSERVE, 10.0), 0.0);
        // Three more untimed calls of slot 0: its estimate scales with the call count.
        ledger.calls[0] += 3;
        assert_eq!(ledger.ns(0, 0.0), 400.0);
        assert_eq!(ledger.ns(1, 0.0), 0.0);
        let mut sum = Ledger::default();
        sum.merge(&ledger);
        sum.merge(&ledger);
        assert_eq!(
            (sum.calls[0], sum.timed_calls[0], sum.clock_reads[0]),
            (8, 2, 10)
        );
        assert_eq!(
            sum.handler_ns(0.0) - sum.context_ns(0.0),
            2.0 * (450.0 - 35.0)
        );
    }

    fn totals(report: &SimulationReport) -> (u64, u64, u64, u64) {
        (
            report.events,
            report.metrics.max_confirmed_requests(report.nodes),
            report.metrics.traffic.total_sent_bytes(),
            report.metrics.traffic.total_received_bytes(),
        )
    }

    fn run<P: Protocol>(mut sim: Simulation<P>, config: &ScenarioConfig) -> SimulationReport {
        sim.run_until(SimTime::ZERO + config.duration, config.max_events);
        sim.into_report()
    }

    #[test]
    fn wrapping_leopard_replicas_changes_nothing() {
        let config = ScenarioConfig::small(4);
        let plain = run(mirror::leopard_sim(&config, |r| r), &config);
        let tracer = Tracer::new();
        let mut sim = mirror::leopard_sim(&config, |r| tracer.wrap(r));
        sim.run_until(SimTime::ZERO + config.duration, config.max_events);
        let mut ledger = Ledger::default();
        let mut sampled = 0;
        for node in 0..config.n {
            let replica = sim.node(NodeId(node as u32));
            ledger.merge(replica.ledger());
            sampled += replica
                .spans()
                .iter()
                .filter(|s| s.parent.is_none())
                .count();
            for span in replica.spans() {
                assert!(span.end_ns >= span.start_ns);
                if let Some(parent) = span.parent {
                    let parent = replica.spans()[parent as usize];
                    assert_eq!(parent.id, span.id);
                    assert!(parent.start_ns <= span.start_ns && span.end_ns <= parent.end_ns);
                }
            }
        }
        let traced = sim.into_report();
        assert!(totals(&plain).1 > 0, "the small scenario confirms nothing");
        assert_eq!(totals(&plain), totals(&traced));
        // Every event of this fault-free run is one callback.
        let callbacks: u64 = ledger.calls[..SLOT_SEND].iter().sum();
        assert!(callbacks > 0 && callbacks <= traced.events);
        assert_eq!(sampled as u64, callbacks.div_ceil(SAMPLE_EVERY));
        let timed: u64 = ledger.timed_calls[..SLOT_SEND].iter().sum();
        assert_eq!(timed, callbacks.div_ceil(TIME_EVERY));
        assert!(ledger.context_ns(0.0) <= ledger.handler_ns(0.0));
        assert!(tracer.clock_read_ns() > 0.0);
    }

    #[test]
    fn wrapping_hotstuff_replicas_changes_nothing() {
        let config = ScenarioConfig::small(4);
        let plain = run(mirror::hotstuff_sim(&config, |r| r), &config);
        let tracer = Tracer::new();
        let traced = run(mirror::hotstuff_sim(&config, |r| tracer.wrap(r)), &config);
        assert!(totals(&plain).1 > 0, "the small scenario confirms nothing");
        assert_eq!(totals(&plain), totals(&traced));
    }
}
