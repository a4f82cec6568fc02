//! A thread-based real-time runtime driving the same [`Protocol`] state machines as the
//! discrete-event simulator.
//!
//! Every node runs on its own OS thread; messages travel over crossbeam channels and are
//! delivered immediately (the runtime does not emulate bandwidth — it exists to
//! demonstrate that the protocol state machines are genuinely IO-free and to provide a
//! "real deployment" path for the examples). Traffic is still accounted per category so
//! example programs can print utilisation summaries.

use crate::metrics::{MetricsSink, ObservationKind};
use crate::protocol::{Context, Protocol, SimMessage};
use crate::time::{SimDuration, SimTime};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use leopard_types::NodeId;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A message envelope travelling between node threads.
enum Envelope<M> {
    /// A protocol message from a peer.
    Message {
        /// Sender of the message.
        from: NodeId,
        /// The message.
        message: M,
    },
    /// Stop the node thread.
    Shutdown,
}

/// A pending timer inside a node thread.
#[derive(PartialEq, Eq)]
struct PendingTimer {
    fires_at: Instant,
    token: u64,
}

impl Ord for PendingTimer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse so the BinaryHeap pops the earliest deadline first.
        other
            .fires_at
            .cmp(&self.fires_at)
            .then(other.token.cmp(&self.token))
    }
}

impl PartialOrd for PendingTimer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Shared state between node threads.
struct Shared<M> {
    senders: Vec<Sender<Envelope<M>>>,
    metrics: Mutex<MetricsSink>,
    epoch: Instant,
}

/// The [`Context`] implementation used by node threads.
struct RuntimeContext<'a, M> {
    node: NodeId,
    node_count: usize,
    shared: &'a Shared<M>,
    timers: &'a mut BinaryHeap<PendingTimer>,
    rng: &'a mut StdRng,
    now: SimTime,
}

impl<M: SimMessage> Context for RuntimeContext<'_, M> {
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
        let size = message.wire_size() as u64;
        let category = message.category();
        {
            let mut metrics = self.shared.metrics.lock();
            metrics.traffic.record_sent(self.node, category, size);
            metrics.traffic.record_received(to, category, size);
        }
        // A full channel or a disconnected receiver simply drops the message; BFT
        // protocols tolerate message loss by design.
        let _ = self.shared.senders[to.as_index()].send(Envelope::Message {
            from: self.node,
            message,
        });
    }

    fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.timers.push(PendingTimer {
            fires_at: Instant::now() + Duration::from_nanos(delay.as_nanos()),
            token,
        });
    }

    fn observe(&mut self, observation: ObservationKind) {
        self.shared
            .metrics
            .lock()
            .observe(self.now, self.node, observation);
    }

    fn rng(&mut self) -> &mut dyn RngCore {
        self.rng
    }
}

/// Runs `n` nodes of a protocol on OS threads for `duration`, then shuts them down and
/// returns the collected metrics.
///
/// The `factory` is called once per node. The runtime delivers messages instantly and
/// fires timers on wall-clock deadlines; it is intended for small-`n` demonstrations
/// and soak tests, not for bandwidth experiments (use [`crate::Simulation`] for those).
pub fn run_threaded<P, F>(n: usize, factory: F, duration: Duration, seed: u64) -> MetricsSink
where
    P: Protocol + Send + 'static,
    F: Fn(NodeId) -> P,
{
    let mut senders = Vec::with_capacity(n);
    let mut receivers: Vec<Receiver<Envelope<P::Message>>> = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = unbounded();
        senders.push(tx);
        receivers.push(rx);
    }
    let shared = Arc::new(Shared {
        senders,
        metrics: Mutex::new(MetricsSink::with_nodes(n)),
        epoch: Instant::now(),
    });

    let mut handles = Vec::with_capacity(n);
    for (index, receiver) in receivers.into_iter().enumerate() {
        let node = NodeId(index as u32);
        let mut protocol = factory(node);
        let shared = Arc::clone(&shared);
        handles.push(std::thread::spawn(move || {
            node_loop(node, n, &mut protocol, receiver, &shared, seed);
        }));
    }

    std::thread::sleep(duration);
    for sender in &shared.senders {
        let _ = sender.send(Envelope::Shutdown);
    }
    for handle in handles {
        let _ = handle.join();
    }

    let shared = Arc::try_unwrap(shared).unwrap_or_else(|_| panic!("all node threads joined"));
    shared.metrics.into_inner()
}

fn node_loop<P: Protocol>(
    node: NodeId,
    node_count: usize,
    protocol: &mut P,
    receiver: Receiver<Envelope<P::Message>>,
    shared: &Shared<P::Message>,
    seed: u64,
) {
    let mut timers: BinaryHeap<PendingTimer> = BinaryHeap::new();
    let mut rng = StdRng::seed_from_u64(seed ^ (node.0 as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15));

    let now = |shared: &Shared<P::Message>| SimTime(shared.epoch.elapsed().as_nanos() as u64);

    {
        let mut ctx = RuntimeContext {
            node,
            node_count,
            shared,
            timers: &mut timers,
            rng: &mut rng,
            now: now(shared),
        };
        protocol.on_start(&mut ctx);
    }

    loop {
        // Fire any due timers first.
        let mut due = Vec::new();
        let instant_now = Instant::now();
        while timers
            .peek()
            .map_or(false, |timer| timer.fires_at <= instant_now)
        {
            due.push(timers.pop().expect("peeked").token);
        }
        for token in due {
            let mut ctx = RuntimeContext {
                node,
                node_count,
                shared,
                timers: &mut timers,
                rng: &mut rng,
                now: now(shared),
            };
            protocol.on_timer(token, &mut ctx);
        }

        // Wait for the next message or the next timer deadline.
        let timeout = timers
            .peek()
            .map(|timer| timer.fires_at.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(10));
        match receiver.recv_timeout(timeout) {
            Ok(Envelope::Message { from, message }) => {
                let mut ctx = RuntimeContext {
                    node,
                    node_count,
                    shared,
                    timers: &mut timers,
                    rng: &mut rng,
                    now: now(shared),
                };
                protocol.on_message(from, message, &mut ctx);
            }
            Ok(Envelope::Shutdown) => break,
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::test_support::PingPong;

    #[test]
    fn threaded_pingpong_completes() {
        let metrics = run_threaded(
            2,
            |_| PingPong {
                max_hops: 6,
                payload: 32,
                received: 0,
            },
            Duration::from_millis(300),
            7,
        );
        assert_eq!(metrics.custom_samples("pingpong_done"), vec![6]);
        assert!(metrics.traffic.total_sent_bytes() > 0);
    }

    #[test]
    fn threaded_runtime_fires_timers() {
        use crate::protocol::test_support::PingMessage;

        struct TimerCounter {
            fired: u32,
        }
        impl Protocol for TimerCounter {
            type Message = PingMessage;
            fn on_start(&mut self, ctx: &mut dyn Context<Message = PingMessage>) {
                ctx.set_timer(SimDuration::from_millis(20), 1);
            }
            fn on_message(
                &mut self,
                _from: NodeId,
                _message: PingMessage,
                _ctx: &mut dyn Context<Message = PingMessage>,
            ) {
            }
            fn on_timer(&mut self, token: u64, ctx: &mut dyn Context<Message = PingMessage>) {
                self.fired += 1;
                ctx.observe(ObservationKind::Custom {
                    label: "timer",
                    value: token,
                });
                if self.fired < 3 {
                    ctx.set_timer(SimDuration::from_millis(20), token + 1);
                }
            }
        }

        let metrics = run_threaded(
            1,
            |_| TimerCounter { fired: 0 },
            Duration::from_millis(300),
            1,
        );
        assert_eq!(metrics.custom_samples("timer"), vec![1, 2, 3]);
    }
}
