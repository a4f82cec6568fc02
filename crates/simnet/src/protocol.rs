//! The sans-IO interface implemented by protocol state machines.
//!
//! A [`Protocol`] never performs IO: it reacts to `on_start`, `on_message` and
//! `on_timer` callbacks by calling methods on a [`Context`] (send, multicast, set a
//! timer, emit an observation), which the deterministic discrete-event
//! [`crate::Simulation`] implements.

use crate::metrics::ObservationKind;
use crate::time::{SimDuration, SimTime};
use leopard_types::{NodeId, WireSize};
use rand::RngCore;

/// Messages exchanged by a protocol.
///
/// `category()` labels each message for the bandwidth-utilisation breakdown
/// (paper, Table III); it should be a small, fixed set of labels such as
/// `"datablock"`, `"bftblock"`, `"vote"`, `"proof"`.
pub trait SimMessage: Clone + WireSize + 'static {
    /// The accounting category of this message.
    fn category(&self) -> &'static str;
}

/// The environment a protocol interacts with.
pub trait Context {
    /// The message type of the protocol.
    type Message: SimMessage;

    /// Current simulated time.
    fn now(&self) -> SimTime;

    /// This node's identifier.
    fn node_id(&self) -> NodeId;

    /// Total number of nodes in the system.
    fn node_count(&self) -> usize;

    /// Sends a message to a single peer. Sending to oneself delivers the message
    /// locally without charging any bandwidth.
    fn send(&mut self, to: NodeId, message: Self::Message);

    /// Sends a message to every other node (not to oneself), charged as
    /// `node_count() - 1` unicasts — exactly how the paper's model costs a multicast.
    fn multicast(&mut self, message: Self::Message);

    /// Sends a message to every node **including oneself**; the self-delivery is local
    /// (no bandwidth charged), the other `node_count() - 1` deliveries are charged as
    /// unicasts.
    ///
    /// Protocols that process their own proposals/proofs through the regular message
    /// path should prefer this over `multicast(m.clone()); send(self, m)`: the
    /// simulation engine interns the message once for the whole fan-out, so no extra
    /// clone of the message is made for the self-delivery.
    fn broadcast(&mut self, message: Self::Message);

    /// Schedules `on_timer(token)` to fire after `delay`.
    fn set_timer(&mut self, delay: SimDuration, token: u64);

    /// Charges `cost` of modeled CPU work to this node's compute queue.
    ///
    /// Under the discrete-event simulation the node's CPU is a scheduled resource like
    /// its links: the charged work is dispatched to the node's earliest-free worker
    /// lane (lowest index on ties; one lane per configured core, see
    /// [`crate::NetworkConfig::with_cores`]) starting at `max(now, lane_free)`, and
    /// every *output* of the current callback (sends, timers, observations) takes
    /// effect only once the work completes. Charges accumulate within one callback.
    fn charge_compute(&mut self, cost: SimDuration);

    /// Emits a protocol observation (confirmed requests, view changes, stage latencies…)
    /// for the metrics sink.
    fn observe(&mut self, observation: ObservationKind);

    /// A deterministic per-node random number generator.
    fn rng(&mut self) -> &mut dyn RngCore;
}

/// A point-in-time liveness self-report from a protocol instance.
///
/// The probe turns a silent stall into a diagnosable one: instead of a bare zero in a
/// throughput table, a run can report "last confirmation at `t`, stalled on `X` since
/// `t'`". The `stall` label is protocol-defined (Leopard reports its `StallReason`
/// taxonomy); `"None"` by convention means the node is making progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgressProbe {
    /// When this node last confirmed (executed) anything, if ever.
    pub last_confirmation_at: Option<SimTime>,
    /// The protocol-defined stall label; `"None"` when the node is healthy.
    pub stall: &'static str,
    /// Since when the current stall has persisted (`None` when not stalled).
    pub stalled_since: Option<SimTime>,
}

impl ProgressProbe {
    /// True if the probe reports no stall.
    pub fn is_healthy(&self) -> bool {
        self.stall == "None"
    }

    /// A compact human-readable rendering, e.g.
    /// `"AwaitingReady since 2.100s; last confirmation at 1.950s"`.
    pub fn summary(&self) -> String {
        let confirm = match self.last_confirmation_at {
            Some(at) => format!("last confirmation at {:.3}s", at.as_secs_f64()),
            None => "never confirmed".to_string(),
        };
        match self.stalled_since {
            Some(since) if !self.is_healthy() => {
                format!("{} since {:.3}s; {confirm}", self.stall, since.as_secs_f64())
            }
            _ => confirm,
        }
    }
}

/// A sans-IO protocol state machine.
pub trait Protocol {
    /// The message type exchanged between nodes running this protocol.
    type Message: SimMessage;

    /// Called once when the node starts.
    fn on_start(&mut self, ctx: &mut dyn Context<Message = Self::Message>);

    /// Called when the node comes back from a finite crash window scheduled via
    /// [`crate::FaultPlan::with_crash_restart`]. The node keeps its in-memory state
    /// (the simulation does not reconstruct the instance), but none of its pre-crash
    /// timers will ever fire — the implementation must re-arm them and should trigger
    /// whatever catch-up the protocol defines (e.g. a state-transfer request). The
    /// default simply runs [`Self::on_start`] again.
    fn on_restart(&mut self, ctx: &mut dyn Context<Message = Self::Message>) {
        self.on_start(ctx);
    }

    /// Called when a message from `from` is delivered.
    fn on_message(
        &mut self,
        from: NodeId,
        message: Self::Message,
        ctx: &mut dyn Context<Message = Self::Message>,
    );

    /// Called when a timer set via [`Context::set_timer`] fires.
    fn on_timer(&mut self, token: u64, ctx: &mut dyn Context<Message = Self::Message>);

    /// Reports this node's liveness state at time `now`, if the protocol is
    /// instrumented for it. The default is `None` (not instrumented); the simulation
    /// snapshots every node's probe into [`crate::SimulationReport::probes`] when a run
    /// ends.
    fn progress_probe(&self, _now: SimTime) -> Option<ProgressProbe> {
        None
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! A tiny ping/pong protocol used by the simulator unit tests.

    use super::*;

    /// Message of the test protocol.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum PingMessage {
        /// A ping carrying a hop counter and a payload size.
        Ping {
            /// Number of hops performed so far.
            hops: u32,
            /// Size of the simulated payload.
            payload: usize,
        },
        /// Final acknowledgement.
        Done,
    }

    impl WireSize for PingMessage {
        fn wire_size(&self) -> usize {
            match self {
                PingMessage::Ping { payload, .. } => 8 + payload,
                PingMessage::Done => 8,
            }
        }
    }

    impl SimMessage for PingMessage {
        fn category(&self) -> &'static str {
            match self {
                PingMessage::Ping { .. } => "ping",
                PingMessage::Done => "done",
            }
        }
    }

    /// Bounces a ping back and forth `max_hops` times, then emits an observation.
    #[derive(Debug)]
    pub struct PingPong {
        /// Maximum number of hops before stopping.
        pub max_hops: u32,
        /// Payload size attached to each ping.
        pub payload: usize,
        /// Number of pings this node received.
        pub received: u32,
    }

    impl Protocol for PingPong {
        type Message = PingMessage;

        fn on_start(&mut self, ctx: &mut dyn Context<Message = Self::Message>) {
            if ctx.node_id() == NodeId(0) {
                ctx.send(
                    NodeId(1),
                    PingMessage::Ping {
                        hops: 0,
                        payload: self.payload,
                    },
                );
            }
        }

        fn on_message(
            &mut self,
            from: NodeId,
            message: Self::Message,
            ctx: &mut dyn Context<Message = Self::Message>,
        ) {
            if let PingMessage::Ping { hops, payload } = message {
                self.received += 1;
                if hops + 1 >= self.max_hops {
                    ctx.observe(ObservationKind::Custom {
                        label: "pingpong_done",
                        value: u64::from(hops + 1),
                    });
                    ctx.send(from, PingMessage::Done);
                } else {
                    ctx.send(
                        from,
                        PingMessage::Ping {
                            hops: hops + 1,
                            payload,
                        },
                    );
                }
            }
        }

        fn on_timer(&mut self, _token: u64, _ctx: &mut dyn Context<Message = Self::Message>) {}
    }
}
