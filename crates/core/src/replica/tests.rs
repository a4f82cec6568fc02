use super::*;
use crate::checkpoint::{checkpoint_digest, state_digest};
use crate::instance::LeaderInstance;
use crate::messages::{ConfirmedEntry, StateTransfer};
use leopard_simnet::ObservationKind;
use leopard_types::{ClientId, Datablock, RequestRun};
use leopard_simnet::{FaultPlan, NetworkConfig, Simulation};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// A [`Context`] that records what a replica does instead of simulating it, so a
/// test can deliver messages to one replica in an order it chooses.
struct Recorder {
    now: SimTime,
    id: NodeId,
    n: usize,
    /// Every message sent: `Some(to)` for a unicast, `None` for a fan-out.
    sent: Vec<(Option<NodeId>, LeopardMessage)>,
    timers: Vec<(SimDuration, u64)>,
    observations: Vec<ObservationKind>,
    rng: StdRng,
}

impl Context for Recorder {
    type Message = LeopardMessage;

    fn now(&self) -> SimTime {
        self.now
    }

    fn node_id(&self) -> NodeId {
        self.id
    }

    fn node_count(&self) -> usize {
        self.n
    }

    fn send(&mut self, to: NodeId, message: LeopardMessage) {
        self.sent.push((Some(to), message));
    }

    fn multicast(&mut self, message: LeopardMessage) {
        self.sent.push((None, message));
    }

    fn broadcast(&mut self, message: LeopardMessage) {
        self.sent.push((None, message));
    }

    fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.timers.push((delay, token));
    }

    fn charge_compute(&mut self, _cost: SimDuration) {}

    fn observe(&mut self, observation: ObservationKind) {
        self.observations.push(observation);
    }

    fn rng(&mut self) -> &mut dyn RngCore {
        &mut self.rng
    }
}

/// Replica `id` of a four-replica cluster under `config`, the cluster's keys, and
/// a recorder to drive it with.
fn driven(id: u32, config: LeopardConfig) -> (LeopardReplica, Arc<SharedKeys>, Recorder) {
    let keys = LeopardConfig::shared_keys(&config, 7);
    let recorder = Recorder {
        now: SimTime::ZERO,
        id: NodeId(id),
        n: config.params.n,
        sent: Vec::new(),
        timers: Vec::new(),
        observations: Vec::new(),
        rng: StdRng::seed_from_u64(u64::from(id)),
    };
    (
        LeopardReplica::new(NodeId(id), config, keys.clone()),
        keys,
        recorder,
    )
}

/// Replica `signer`'s share over `digest`.
fn share(keys: &SharedKeys, signer: u32, digest: &Digest) -> SignatureShare {
    keys.provider
        .sign_share(keys.keypair(signer as usize), digest)
        .0
}

/// A proof over `digest` combined from the shares of replicas 0, 1 and 2.
fn quorum_proof(keys: &SharedKeys, digest: &Digest) -> CombinedSignature {
    let shares: Vec<_> = (0..3).map(|signer| share(keys, signer, digest)).collect();
    keys.provider.scheme().combine(&shares, digest).unwrap()
}

/// The block digests of every PrepareVote `ctx` recorded for `seq`.
fn prepare_votes(ctx: &Recorder, seq: SeqNum) -> Vec<Digest> {
    ctx.sent
        .iter()
        .filter_map(|(_, message)| match message {
            LeopardMessage::PrepareVote {
                seq: s,
                block_digest,
                ..
            } if *s == seq => Some(*block_digest),
            _ => None,
        })
        .collect()
}

/// Delivers an empty ViewChange for `view` from each replica but `replica`: a quorum.
fn view_change_quorum(replica: &mut LeopardReplica, ctx: &mut Recorder, view: View) {
    let id = replica.id();
    for from in (0..4).map(NodeId).filter(|&from| from != id) {
        let message = LeopardMessage::ViewChange {
            new_view: view,
            checkpoint_seq: SeqNum(0),
            notarized: Vec::new(),
        };
        replica.on_message(from, message, ctx);
    }
}

/// A stripe proposer that a peer's NewView brought into view v keeps the votes it
/// cast in v when its own ViewChange quorum for v completes later, and a quorum
/// for v − 1 delivered after that does not rewind it.
#[test]
fn a_late_view_change_quorum_keeps_the_votes_cast_in_its_view() {
    // n = 4, p = 2: view 2 is proposed by replicas 2 (stripe 0) and 3 (stripe 1);
    // replica 2 also held stripe 1 of view 1.
    let (mut replica, keys, mut ctx) =
        driven(2, LeopardConfig::small_test(4).with_proposers(2));
    let new_view = LeopardMessage::NewView {
        view: View(2),
        view_change_count: 3,
        bytes: 0,
    };
    replica.on_message(NodeId(3), new_view, &mut ctx);
    assert_eq!(replica.view(), View(2));
    // Replica 3 proposes serial 2, on its stripe; replica 2 votes for it.
    let propose = |block: &Arc<BftBlock>| LeopardMessage::PrePrepare {
        block: block.clone(),
        share: share(&keys, 3, &block.digest()),
    };
    let block = Arc::new(BftBlock::new(View(2), SeqNum(2), Vec::new()));
    replica.on_message(NodeId(3), propose(&block), &mut ctx);
    assert_eq!(prepare_votes(&ctx, SeqNum(2)), [block.digest()]);

    // Its own quorum for view 2 completes: it announces the view and re-proposes
    // its stripe, but does not enter the view a second time.
    view_change_quorum(&mut replica, &mut ctx, View(2));
    assert!(ctx
        .sent
        .iter()
        .any(|(_, message)| matches!(message, LeopardMessage::NewView { view: View(2), .. })));
    let entries = ctx
        .observations
        .iter()
        .filter(|observation| matches!(observation, ObservationKind::ViewChange { .. }))
        .count();
    assert_eq!(entries, 1, "view 2 entered twice");
    assert!(replica.replica_instances.get(2).unwrap().prepare_voted);

    // Neither the same block again nor a conflicting one draws a second vote.
    replica.on_message(NodeId(3), propose(&block), &mut ctx);
    let conflicting = Arc::new(BftBlock::dummy(View(2), SeqNum(2)));
    replica.on_message(NodeId(3), propose(&conflicting), &mut ctx);
    assert_eq!(prepare_votes(&ctx, SeqNum(2)), [block.digest()]);

    // A quorum for view 1 is stale: nothing is sent and the view stays.
    let sent = ctx.sent.len();
    view_change_quorum(&mut replica, &mut ctx, View(1));
    assert_eq!(replica.view(), View(2));
    assert_eq!(ctx.sent.len(), sent);
}

/// The proposer's side of both voting rounds: a share signed by someone other than
/// its sender, a vote over another digest and a vote after the round settled are
/// ignored; a forged share is purged and the proof re-forms from honest votes; each
/// round sends its proof once.
#[test]
fn the_proposer_collects_both_rounds_through_one_vote_path() {
    // n = 4, quorum 3: replica 1 leads view 1 and proposes serial 1.
    let (mut replica, keys, mut ctx) = driven(1, LeopardConfig::small_test(4));
    let seq = SeqNum(1);
    let block_digest = BftBlock::new(View(1), seq, Vec::new()).digest();
    replica.pipeline.insert(seq, LeaderInstance::new(block_digest));
    let other = leopard_crypto::hash_bytes(b"another digest");
    let prepare = |signer, digest: Digest| LeopardMessage::PrepareVote {
        seq,
        block_digest: digest,
        share: share(&keys, signer, &digest),
    };
    let notarizations = |ctx: &Recorder| -> Vec<CombinedSignature> {
        let proofs = ctx.sent.iter().filter_map(|(_, message)| match message {
            LeopardMessage::NotarizationProof { proof, .. } => Some(*proof),
            _ => None,
        });
        proofs.collect()
    };

    // Replica 3's share sent by replica 0, and replica 2's vote over another digest.
    let misattributed = LeopardMessage::PrepareVote {
        seq,
        block_digest,
        share: share(&keys, 3, &block_digest),
    };
    replica.on_message(NodeId(0), misattributed, &mut ctx);
    replica.on_message(NodeId(2), prepare(2, other), &mut ctx);
    // Two honest votes: had either vote above counted, a proof would form here or
    // fail its batch check below.
    for signer in [0, 2] {
        replica.on_message(NodeId(signer), prepare(signer, block_digest), &mut ctx);
    }
    assert!(notarizations(&ctx).is_empty());
    replica.on_message(NodeId(1), prepare(1, block_digest), &mut ctx);
    let [notarization] = notarizations(&ctx)[..] else {
        panic!("expected one NotarizationProof, sent {:?}", ctx.sent);
    };
    assert!(keys.provider.verify_combined(&notarization, &block_digest).0);
    // A vote after the round settled forms no second proof.
    replica.on_message(NodeId(3), prepare(3, block_digest), &mut ctx);
    assert_eq!(notarizations(&ctx).len(), 1);

    // Second round, over the notarization's digest.
    let proof_digest = LeopardReplica::notarization_digest(seq, &block_digest, &notarization);
    let commit = |signer, digest: Digest, signed: &Digest| LeopardMessage::CommitVote {
        seq,
        proof_digest: digest,
        share: share(&keys, signer, signed),
    };
    let confirmations = |ctx: &Recorder| -> Vec<CombinedSignature> {
        let proofs = ctx.sent.iter().filter_map(|(_, message)| match message {
            LeopardMessage::ConfirmationProof { proof, .. } => Some(*proof),
            _ => None,
        });
        proofs.collect()
    };
    // A commit vote over the block digest is a vote over the wrong digest, and
    // replica 2's share sent by replica 1 is not replica 1's vote.
    replica.on_message(NodeId(0), commit(0, block_digest, &block_digest), &mut ctx);
    replica.on_message(NodeId(1), commit(2, proof_digest, &proof_digest), &mut ctx);
    // Replica 3's share does not sign `proof_digest`: it is forged, and purged when
    // the first quorum fails its batch check.
    replica.on_message(NodeId(3), commit(3, proof_digest, &other), &mut ctx);
    for signer in [0, 1] {
        let vote = commit(signer, proof_digest, &proof_digest);
        replica.on_message(NodeId(signer), vote, &mut ctx);
    }
    assert!(confirmations(&ctx).is_empty());
    replica.on_message(NodeId(2), commit(2, proof_digest, &proof_digest), &mut ctx);
    let [confirmation] = confirmations(&ctx)[..] else {
        panic!("expected one ConfirmationProof, sent {:?}", ctx.sent);
    };
    assert!(keys.provider.verify_combined(&confirmation, &proof_digest).0);
    replica.on_message(NodeId(3), commit(3, proof_digest, &proof_digest), &mut ctx);
    assert_eq!(confirmations(&ctx).len(), 1);
    assert_eq!(notarizations(&ctx).len(), 1);
}

/// Replica 2 of n = 4, p = 2 (the stripe-1 proposer of view 1) once serial 5, on
/// stripe 0, has confirmed: serials 2 and 4 of its own stripe lie below it.
fn stripe_one_proposer_behind_serial_5() -> (LeopardReplica, Recorder) {
    let (mut replica, keys, mut ctx) =
        driven(2, LeopardConfig::small_test(4).with_proposers(2));
    let seq = SeqNum(5);
    let block_digest = BftBlock::new(View(1), seq, Vec::new()).digest();
    let proof = quorum_proof(&keys, &block_digest);
    let notarize = LeopardMessage::NotarizationProof {
        seq,
        block_digest,
        proof,
    };
    replica.on_message(NodeId(1), notarize, &mut ctx);
    let proof_digest = LeopardReplica::notarization_digest(seq, &block_digest, &proof);
    let confirm = LeopardMessage::ConfirmationProof {
        seq,
        proof_digest,
        proof: quorum_proof(&keys, &proof_digest),
    };
    replica.on_message(NodeId(1), confirm, &mut ctx);
    ctx.sent.clear();
    (replica, ctx)
}

/// The serial and dummy flag of every PrePrepare `ctx` recorded.
fn proposals(ctx: &Recorder) -> Vec<(SeqNum, bool)> {
    ctx.sent
        .iter()
        .filter_map(|(_, message)| match message {
            LeopardMessage::PrePrepare { block, .. } => Some((block.id.seq, block.dummy)),
            _ => None,
        })
        .collect()
}

/// An idle stripe fills its serials below the highest confirmation with dummies on
/// the propose tick, but not while a block is in flight or a datablock is ready.
#[test]
fn an_idle_stripe_fills_its_serials_below_the_highest_confirmation() {
    let (mut replica, mut ctx) = stripe_one_proposer_behind_serial_5();
    replica.on_timer(TOKEN_PROPOSE, &mut ctx);
    assert_eq!(proposals(&ctx), [(SeqNum(2), true), (SeqNum(4), true)]);

    // Serial 2 in flight: no dummy until it confirms, then only serial 4.
    let (mut replica, mut ctx) = stripe_one_proposer_behind_serial_5();
    let seq = replica.pipeline.take_seq();
    let digest = BftBlock::new(View(1), seq, Vec::new()).digest();
    replica.pipeline.insert(seq, LeaderInstance::new(digest));
    replica.on_timer(TOKEN_PROPOSE, &mut ctx);
    assert!(proposals(&ctx).is_empty());
    replica.pipeline.get_mut(seq).expect("in flight").confirmed = true;
    replica.on_timer(TOKEN_PROPOSE, &mut ctx);
    assert_eq!(proposals(&ctx), [(SeqNum(4), true)]);

    // A ready datablock: the tick links it at serial 2 and fills nothing.
    let (mut replica, mut ctx) = stripe_one_proposer_behind_serial_5();
    let ready = leopard_crypto::hash_bytes(b"ready datablock");
    for from in [0, 1, 3] {
        replica.ready.record_ack(ready, NodeId(from), 3);
    }
    replica.fill_idle_stripe(&mut ctx);
    assert!(proposals(&ctx).is_empty());
    replica.on_timer(TOKEN_PROPOSE, &mut ctx);
    assert_eq!(proposals(&ctx), [(SeqNum(2), false)]);
}

/// A replica that confirmed an instance before it held every linked datablock casts
/// neither vote once the missing datablock arrives: the proposer has no use for it.
/// Noting the datablock missing arms one first-query wake-up.
#[test]
fn a_confirmed_instance_draws_no_vote() {
    // n = 4: replica 1 leads view 1; replica 0 is driven.
    let (mut replica, keys, mut ctx) = driven(0, LeopardConfig::small_test(4));
    let seq = SeqNum(1);
    let requests = (0..8).map(|i| leopard_types::Request::new_synthetic(ClientId(1), i, 128));
    let datablock = Arc::new(Datablock::new(NodeId(2), 1, requests.collect()));
    let block = Arc::new(BftBlock::new(View(1), seq, vec![datablock.digest()]));
    let block_digest = block.digest();
    let notarization = quorum_proof(&keys, &block_digest);
    let proof_digest = LeopardReplica::notarization_digest(seq, &block_digest, &notarization);
    let messages = [
        LeopardMessage::NotarizationProof {
            seq,
            block_digest,
            proof: notarization,
        },
        LeopardMessage::ConfirmationProof {
            seq,
            proof_digest,
            proof: quorum_proof(&keys, &proof_digest),
        },
        LeopardMessage::PrePrepare {
            share: share(&keys, 1, &block_digest),
            block,
        },
    ];
    for message in messages {
        replica.on_message(NodeId(1), message, &mut ctx);
    }
    assert_eq!(ctx.timers, [(SimDuration::from_millis(10), TOKEN_FIRST_QUERY)]);
    replica.on_message(NodeId(2), LeopardMessage::Datablock(datablock), &mut ctx);
    assert_eq!(replica.last_executed(), seq);
    let votes = ctx.sent.iter().filter(|(_, message)| {
        matches!(
            message,
            LeopardMessage::PrepareVote { .. } | LeopardMessage::CommitVote { .. }
        )
    });
    assert_eq!(votes.count(), 0, "voted for a confirmed instance: {:?}", ctx.sent);
}

/// A block that links one missing datablock twice waits for it once: its arrival
/// casts the prepare vote and leaves the instance's missing-link list holding no
/// memory.
#[test]
fn a_datablock_linked_twice_is_resolved_by_one_arrival() {
    // n = 4: replica 1 leads view 1; replica 0 is driven.
    let (mut replica, keys, mut ctx) = driven(0, LeopardConfig::small_test(4));
    let seq = SeqNum(1);
    let requests = (0..8).map(|i| leopard_types::Request::new_synthetic(ClientId(1), i, 128));
    let datablock = Arc::new(Datablock::new(NodeId(2), 1, requests.collect()));
    let block = Arc::new(BftBlock::new(View(1), seq, vec![datablock.digest(); 2]));
    let block_digest = block.digest();
    let share = share(&keys, 1, &block_digest);
    replica.on_message(NodeId(1), LeopardMessage::PrePrepare { share, block }, &mut ctx);
    let instance = replica.replica_instances.get(seq.0).expect("an instance");
    assert_eq!(instance.missing_links, [datablock.digest(); 2]);
    assert!(prepare_votes(&ctx, seq).is_empty());
    replica.on_message(NodeId(2), LeopardMessage::Datablock(datablock), &mut ctx);
    assert_eq!(prepare_votes(&ctx, seq), [block_digest]);
    let instance = replica.replica_instances.get(seq.0).expect("an instance");
    assert!(instance.links_complete());
    assert_eq!(instance.missing_links.capacity(), 0);
}

/// The clause the safety argument rests on: an honest replica never signs two
/// different PrepareVotes for one (view, serial).
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "signed two PrepareVotes")]
fn signing_two_prepare_votes_for_one_view_and_serial_panics() {
    let (mut replica, _, mut ctx) = driven(0, LeopardConfig::small_test(4));
    let id = BftBlockId::new(View(1), SeqNum(1));
    let digest = |links| BftBlock::new(id.view, id.seq, links).digest();
    replica.send_vote(Round::Prepare, id, digest(Vec::new()), &mut ctx);
    // The same vote again is no equivocation, nor a vote for the serial in view 2.
    replica.send_vote(Round::Prepare, id, digest(Vec::new()), &mut ctx);
    let later = BftBlock::new(View(2), id.seq, Vec::new());
    replica.send_vote(Round::Prepare, later.id, later.digest(), &mut ctx);
    let link = leopard_crypto::hash_bytes(b"link");
    replica.send_vote(Round::Prepare, id, digest(vec![link]), &mut ctx);
}

/// A checkpoint adopted from a state-transfer response is garbage-collected like
/// one adopted from the leader's multicast: the datablocks the replica executed at
/// or below it go at once, not at the next checkpoint.
#[test]
fn a_checkpoint_adopted_by_state_transfer_collects_the_executed_datablocks() {
    let (mut replica, keys, mut ctx) = driven(3, LeopardConfig::small_test(4));
    let datablocks: Vec<Arc<Datablock>> = [0, 2]
        .into_iter()
        .map(|producer| {
            let requests = RequestRun {
                client: ClientId(producer),
                first_seq: 0,
                count: 8,
                size: 128,
            };
            Arc::new(Datablock::from_run(NodeId(producer), 1, requests))
        })
        .collect();
    for datablock in &datablocks {
        let message = LeopardMessage::Datablock(datablock.clone());
        replica.on_message(datablock.id.producer, message, &mut ctx);
    }
    // Back from a crash, it re-arms its timers and asks replicas 0 and 1 for state.
    replica.on_restart(&mut ctx);
    assert!(ctx.timers.contains(&(PROPOSE_INTERVAL, TOKEN_PROPOSE)));
    let respond = |replica: &mut LeopardReplica, ctx: &mut Recorder, transfer| {
        let message = LeopardMessage::StateResponse(Box::new(transfer));
        replica.on_message(NodeId(0), message, ctx);
    };
    // The first response carries serials 1 and 2, one datablock each, and the
    // replica executes them.
    let entries = datablocks
        .iter()
        .zip(1..)
        .map(|(datablock, seq)| {
            let block = Arc::new(BftBlock::new(
                View(1),
                SeqNum(seq),
                vec![datablock.digest()],
            ));
            let notarization = quorum_proof(&keys, &block.digest());
            let notarized = LeopardReplica::notarization_digest(
                SeqNum(seq),
                &block.digest(),
                &notarization,
            );
            ConfirmedEntry {
                block,
                notarization,
                confirmation: quorum_proof(&keys, &notarized),
            }
        })
        .collect();
    let genesis = StateTransfer {
        view: View(1),
        checkpoint_seq: SeqNum(0),
        checkpoint_state: state_digest(SeqNum(0)),
        checkpoint_proof: None,
        entries,
    };
    respond(&mut replica, &mut ctx, genesis);
    assert_eq!(replica.last_executed(), SeqNum(2));
    assert!(datablocks
        .iter()
        .all(|datablock| replica.pool().contains(&datablock.digest())));

    // The second carries the stable checkpoint at serial 2.
    let state = state_digest(SeqNum(2));
    let checkpoint = StateTransfer {
        view: View(1),
        checkpoint_seq: SeqNum(2),
        checkpoint_state: state,
        checkpoint_proof: Some(quorum_proof(&keys, &checkpoint_digest(SeqNum(2), &state))),
        entries: Vec::new(),
    };
    respond(&mut replica, &mut ctx, checkpoint);
    assert_eq!(replica.low_watermark(), SeqNum(2));
    for datablock in &datablocks {
        assert!(
            !replica.pool().contains(&datablock.digest()),
            "executed datablock {:?} outlived the adopted checkpoint",
            datablock.id
        );
    }
}

/// The serials that hold an agreement instance at `replica`, in serial order.
fn instance_serials(replica: &LeopardReplica) -> Vec<u64> {
    replica.replica_instances.iter().map(|(seq, _)| seq).collect()
}

/// A `NotarizationProof` signs only its block digest, so a valid proof can be replayed
/// under any serial. One named far beyond the watermark window plants no instance: it
/// would never be pruned, and the progress watchdog would count it as unconfirmed
/// work forever.
#[test]
fn a_replayed_proof_far_beyond_the_window_plants_no_instance() {
    let (mut replica, keys, mut ctx) = driven(3, LeopardConfig::small_test(4));
    let block_digest = BftBlock::new(View(1), SeqNum(2), Vec::new()).digest();
    let proof = quorum_proof(&keys, &block_digest);
    let notarize = |seq| LeopardMessage::NotarizationProof {
        seq: SeqNum(seq),
        block_digest,
        proof,
    };
    let lw = replica.low_watermark().0;
    for seq in [u64::MAX, lw + 1_000_000] {
        replica.on_message(NodeId(0), notarize(seq), &mut ctx);
        let proof_digest = LeopardReplica::notarization_digest(SeqNum(seq), &block_digest, &proof);
        let confirm = LeopardMessage::ConfirmationProof {
            seq: SeqNum(seq),
            proof_digest,
            proof: quorum_proof(&keys, &proof_digest),
        };
        replica.on_message(NodeId(0), confirm, &mut ctx);
    }
    assert_eq!(instance_serials(&replica), [] as [u64; 0]);
    assert!(!replica.outstanding_work());
    // The same proof inside the window is taken.
    replica.on_message(NodeId(0), notarize(2), &mut ctx);
    assert_eq!(instance_serials(&replica), [2]);
}

/// A confirmation proof at or below the low watermark is not held: the serial is
/// checkpointed, so no notarization can ever come to apply it. Above the watermark
/// a proof that beat its notarization is held.
#[test]
fn a_confirmation_at_or_below_the_watermark_is_not_held() {
    let (mut replica, keys, mut ctx) = driven(3, LeopardConfig::small_test(4));
    let state = state_digest(SeqNum(2));
    let checkpoint = LeopardMessage::CheckpointProof {
        seq: SeqNum(2),
        state_digest: state,
        proof: quorum_proof(&keys, &checkpoint_digest(SeqNum(2), &state)),
    };
    replica.on_message(NodeId(0), checkpoint, &mut ctx);
    assert_eq!(replica.low_watermark(), SeqNum(2));
    let confirm = |seq| {
        let proof_digest = leopard_crypto::hash_bytes(&[seq as u8]);
        LeopardMessage::ConfirmationProof {
            seq: SeqNum(seq),
            proof_digest,
            proof: quorum_proof(&keys, &proof_digest),
        }
    };
    for seq in [1, 2] {
        replica.on_message(NodeId(0), confirm(seq), &mut ctx);
    }
    assert_eq!(instance_serials(&replica), [] as [u64; 0]);
    assert!(!replica.outstanding_work());
    replica.on_message(NodeId(0), confirm(3), &mut ctx);
    assert_eq!(instance_serials(&replica), [3]);
    let instance = replica.replica_instances.get(3).expect("held at 3");
    assert!(instance.held_confirmation.is_some() && !instance.is_confirmed());
}

/// After a fault-free run at n = 16 every replica checkpointed, and no replica's
/// window holds an instance at or below its low watermark.
#[test]
fn no_instance_outlives_its_checkpoint() {
    let n = 16;
    let config = LeopardConfig::small_test(n);
    let keys = LeopardConfig::shared_keys(&config, 7);
    let mut sim = Simulation::new(NetworkConfig::datacenter(n), FaultPlan::none(), move |id| {
        LeopardReplica::new(id, config.clone(), keys.clone())
    });
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(2), 10_000_000);
    for node in (0..n as u32).map(NodeId) {
        let replica = sim.node(node);
        let lw = replica.low_watermark().0;
        assert!(lw > 0, "replica {node:?} never checkpointed");
        let serials = instance_serials(replica);
        assert!(
            serials.iter().all(|&seq| seq > lw),
            "replica {node:?} at watermark {lw} holds {serials:?}"
        );
    }
}

fn run_small(
    n: usize,
    config_for: impl Fn(NodeId) -> LeopardConfig,
    faults: FaultPlan,
    secs: u64,
) -> (leopard_simnet::SimulationReport, Vec<LeopardConfig>) {
    let base = LeopardConfig::small_test(n);
    let shared = LeopardConfig::shared_keys(&base, 7);
    let configs: Vec<LeopardConfig> = (0..n).map(|i| config_for(NodeId(i as u32))).collect();
    let configs_clone = configs.clone();
    let sim = Simulation::new(NetworkConfig::datacenter(n), faults, move |id| {
        LeopardReplica::new(id, configs_clone[id.as_index()].clone(), shared.clone())
    });
    let report = sim.run_to_report(
        SimTime(SimDuration::from_secs(secs).as_nanos()),
        10_000_000,
    );
    (report, configs)
}

#[test]
fn serial_log_keeps_one_slot_per_serial_in_order() {
    let block = |seq| Arc::new(BftBlock::new(View(1), SeqNum(seq), Vec::new()));
    let mut log = SerialLog::default();
    assert!(log.get(0).is_none() && log.get(1).is_none());
    // Out of order and with a gap, as confirmations may arrive.
    for seq in [3, 1, 40, 2] {
        log.insert(seq, block(seq));
    }
    let logged = |log: &SerialLog| -> Vec<(u64, u64)> {
        (1..)
            .zip(&log.slots)
            .filter_map(|(seq, slot)| Some((seq, slot.as_ref()?.id.seq.0)))
            .collect()
    };
    let seqs = logged(&log);
    assert_eq!(seqs, [(1, 1), (2, 2), (3, 3), (40, 40)]);
    assert!(log.get(4).is_none() && log.get(41).is_none() && log.get(u64::MAX).is_none());
    // Re-inserting a serial replaces its block, like the map it replaced.
    let twin = Arc::new(BftBlock::new(View(2), SeqNum(2), Vec::new()));
    log.insert(2, twin.clone());
    assert!(Arc::ptr_eq(log.get(2).unwrap(), &twin));
    assert_eq!(logged(&log).len(), 4);
    // Growth is 25 %, not doubling (which would hold 2048 slots here).
    for seq in 41..=1100 {
        log.insert(seq, block(seq));
    }
    let capacity = log.slots.capacity();
    assert!(capacity <= 1100 * 5 / 4, "capacity {capacity}");
}

/// Checkpoint GC takes each logged serial's links once, and only once the replica
/// executed it: a serial checkpointed ahead of execution waits for a later
/// checkpoint, and a gap in the log is skipped.
#[test]
fn checkpoint_gc_takes_each_executed_serials_links_once() {
    let link = |seq: u64| leopard_crypto::hash_bytes(&seq.to_le_bytes());
    let mut log = SerialLog::default();
    for seq in [1, 2, 3, 4, 6, 7] {
        log.insert(seq, Arc::new(BftBlock::new(View(1), SeqNum(seq), vec![link(seq)])));
    }
    let links = |seqs: &[u64]| seqs.iter().map(|&seq| link(seq)).collect::<Vec<_>>();
    // Checkpoint 4 while this replica has executed through 2 only.
    assert_eq!(log.take_executed_links(4, 2), links(&[1, 2]));
    // Checkpoint 8 after executing through 7: 3 and 4 are collected now; 5 was
    // never logged.
    assert_eq!(log.take_executed_links(8, 7), links(&[3, 4, 6, 7]));
    // Nothing twice.
    assert_eq!(log.take_executed_links(8, 7), links(&[]));
    // A serial logged after the last checkpoint is collected by the next one, and a
    // bound past the log's end walks to its end.
    log.insert(9, Arc::new(BftBlock::new(View(1), SeqNum(9), vec![link(9)])));
    assert_eq!(log.take_executed_links(u64::MAX, u64::MAX), links(&[9]));
}

#[test]
fn four_replicas_confirm_requests() {
    let (report, _) = run_small(4, |_| LeopardConfig::small_test(4), FaultPlan::none(), 2);
    assert!(report.metrics.max_confirmed_requests(4) > 100);
    // Every replica confirms (not only the leader).
    for node in 0..4u32 {
        assert!(
            report.metrics.confirmed_requests_at(NodeId(node)) > 0,
            "replica {node} confirmed nothing"
        );
    }
    // Latency samples exist (clients got acknowledgements).
    assert!(!report.metrics.latency_samples().is_empty());
}

/// Datablock `(p, k)` carries `ClientId(p)`'s requests `(k − 1)·D .. k·D`, wherever
/// it is pooled: the numbering its digest and Ready route are a function of.
#[test]
fn producer_numbers_requests_by_datablock_counter() {
    let n = 4;
    let config = LeopardConfig::small_test(n);
    let (size, payload) = (
        config.params.datablock_size as u32,
        config.params.payload_size as u32,
    );
    let keys = LeopardConfig::shared_keys(&config, 7);
    let mut sim = Simulation::new(NetworkConfig::datacenter(n), FaultPlan::none(), move |id| {
        LeopardReplica::new(id, config.clone(), keys.clone())
    });
    sim.run_until(SimTime::ZERO + SimDuration::from_millis(100), 10_000_000);
    let mut checked = 0;
    for node in 0..n as u32 {
        let pool = sim.node(NodeId(node)).pool();
        for datablock in pool.datablocks() {
            let (producer, k) = (datablock.id.producer, datablock.id.counter);
            let expected = RequestRun {
                client: ClientId(producer.0),
                first_seq: (k - 1) * u64::from(size),
                count: size,
                size: payload,
            };
            assert_eq!(
                datablock.requests, expected,
                "datablock ({producer:?}, {k}) pooled at replica {node}"
            );
            checked += 1;
        }
    }
    assert!(checked > 3 * n, "only {checked} pooled datablocks checked");
}

#[test]
fn seven_replicas_confirm_requests() {
    let (report, _) = run_small(7, |_| LeopardConfig::small_test(7), FaultPlan::none(), 2);
    assert!(report.metrics.max_confirmed_requests(7) > 100);
}

#[test]
fn two_proposers_confirm_requests() {
    let (report, _) = run_small(
        4,
        |_| LeopardConfig::small_test(4).with_proposers(2),
        FaultPlan::none(),
        2,
    );
    assert!(report.metrics.max_confirmed_requests(4) > 100);
    for node in 0..4u32 {
        assert!(
            report.metrics.confirmed_requests_at(NodeId(node)) > 0,
            "replica {node} confirmed nothing under two proposers"
        );
    }
}

#[test]
fn four_proposers_confirm_requests_at_seven() {
    let (report, _) = run_small(
        7,
        |_| LeopardConfig::small_test(7).with_proposers(4),
        FaultPlan::none(),
        2,
    );
    assert!(report.metrics.max_confirmed_requests(7) > 100);
}

#[test]
fn silent_proposer_on_secondary_stripe_triggers_view_change_and_recovery() {
    let n = 7; // f = 2: tolerates the faulty replica staying Byzantine across views.
    let (report, _) = run_small(
        n,
        |id| {
            let config = LeopardConfig::small_test(n).with_proposers(2);
            // View 1's proposers are replicas 1 (stripe 0 = the leader) and 2
            // (stripe 1). Replica 2 never proposes, so its residue class stalls
            // while the leader's stripe keeps confirming — the progress watchdog
            // must still demote it rather than wedging execution forever.
            if id == NodeId(2) {
                config.with_byzantine(ByzantineBehavior::SilentLeader)
            } else {
                config
            }
        },
        FaultPlan::none(),
        6,
    );
    let view_changes: Vec<_> = report
        .metrics
        .observations
        .iter()
        .filter(|o| matches!(o.kind, ObservationKind::ViewChange { .. }))
        .collect();
    assert!(!view_changes.is_empty(), "no view change demoted the silent proposer");
    assert!(report.metrics.max_confirmed_requests(n) > 0);
}

#[test]
fn withholding_votes_by_f_replicas_does_not_stop_progress() {
    let n = 7; // f = 2
    let (report, _) = run_small(
        n,
        |id| {
            let config = LeopardConfig::small_test(n);
            if id.as_index() >= n - 2 {
                config.with_byzantine(ByzantineBehavior::WithholdVotes)
            } else {
                config
            }
        },
        FaultPlan::none(),
        2,
    );
    assert!(report.metrics.max_confirmed_requests(n) > 100);
}

#[test]
fn equivocating_leader_cannot_violate_safety() {
    let n = 4;
    let (report, _) = run_small(
        n,
        |id| {
            let config = LeopardConfig::small_test(n);
            // View 1's leader is replica 1.
            if id == NodeId(1) {
                config.with_byzantine(ByzantineBehavior::EquivocatingLeader)
            } else {
                config
            }
        },
        FaultPlan::none(),
        2,
    );
    // Safety: for every sequence number, all replicas that committed a block at that
    // sequence committed a block with the same request count. (The detailed
    // block-equality check lives in the integration tests where replica state is
    // accessible; here we check that nothing paniced and progress was not required.)
    let _ = report;
}

#[test]
fn silent_leader_triggers_view_change_and_recovery() {
    let n = 4;
    let (report, _) = run_small(
        n,
        |id| {
            let config = LeopardConfig::small_test(n);
            if id == NodeId(1) {
                // Replica 1 leads view 1 and stays silent.
                config.with_byzantine(ByzantineBehavior::SilentLeader)
            } else {
                config
            }
        },
        FaultPlan::none(),
        6,
    );
    // A view change happened...
    let view_changes: Vec<_> = report
        .metrics
        .observations
        .iter()
        .filter(|o| matches!(o.kind, ObservationKind::ViewChange { .. }))
        .collect();
    assert!(!view_changes.is_empty(), "no view change was observed");
    // ...and requests are confirmed afterwards under the new leader.
    assert!(report.metrics.max_confirmed_requests(n) > 0);
}

#[test]
fn crash_restarted_replica_catches_up_via_state_transfer() {
    let n = 4;
    // Replica 2 (a non-leader) is down for [1s, 2s); the other three keep the
    // quorum, so confirmation continues while it is dark.
    let faults = FaultPlan::none().with_crash_restart(
        NodeId(2),
        SimTime(SimDuration::from_secs(1).as_nanos()),
        SimTime(SimDuration::from_secs(2).as_nanos()),
    );
    let (report, _) = run_small(n, |_| LeopardConfig::small_test(n), faults, 5);
    assert!(report.metrics.max_confirmed_requests(n) > 100);
    // The restarted replica asked for state transfer and got answers.
    assert!(
        report.metrics.traffic.sent_bytes_in(NodeId(2), "statesync") > 0,
        "restarted replica sent no state request"
    );
    assert!(
        report.metrics.traffic.received_bytes_in(NodeId(2), "statesync") > 0,
        "restarted replica received no state response"
    );
    // It resumes executing after the restart instead of staying dark.
    let restart = SimTime(SimDuration::from_secs(2).as_nanos());
    let resumed = report
        .metrics
        .confirmations()
        .any(|commit| commit.node == NodeId(2) && commit.at > restart);
    assert!(resumed, "restarted replica never confirmed after rejoining");
}

#[test]
fn selective_attack_is_survived_via_retrieval() {
    let n = 4;
    // Replica 3 sends its datablocks only to the leader (replica 1) and replica 0.
    let faults = FaultPlan::selective_attack(vec![NodeId(3)], "datablock", 2);
    let (report, _) = run_small(n, |_| LeopardConfig::small_test(n), faults, 4);
    assert!(report.metrics.max_confirmed_requests(n) > 0);
}
