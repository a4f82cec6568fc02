//! Isolated drivers for the layers a protocol wrapper cannot see into: `crypto`,
//! `erasure`, `types`, and the `simnet` engine and metrics sink on their own.
//!
//! Each driver builds its input from the seed, times [`BATCHES`] batches after one
//! warm-up batch and reports the median, and checks its output, so that it cannot be
//! made faster by returning something wrong.

use std::hint::black_box;
use std::time::Instant;

use leopard_crypto::provider::{CryptoMode, CryptoProvider};
use leopard_crypto::sha256::Sha256;
use leopard_crypto::threshold::{SignatureShare, ThresholdKeyPair, ThresholdScheme};
use leopard_crypto::{hash_bytes, BatchOutcome, Digest, MerkleTree};
use leopard_erasure::{gf256, ReedSolomon};
use leopard_simnet::{
    Context, FaultPlan, LatencyHistogram, MetricsSink, NetworkConfig, ObservationKind, Protocol,
    SimDuration, SimMessage, SimTime, Simulation,
};
use leopard_types::{
    BftBlock, ClientId, CostModelKind, Datablock, Decode, Encode, NodeId, Request, SeqNum, View,
    WireSize,
};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::stats::median_of_batches;

const BATCHES: usize = 11;

/// Times `iterations` calls of `op` and returns nanoseconds per call.
fn per_call_ns(iterations: usize, mut op: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..iterations {
        op(i);
    }
    start.elapsed().as_nanos() as f64 / iterations as f64
}

fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    let mut bytes = vec![0u8; len];
    rng.fill_bytes(&mut bytes);
    bytes
}

/// Runs every driver; returns `(metric name, value)` pairs.
pub fn run_all(seed: u64) -> Vec<(String, f64)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD21E_55EE_D000_0001);
    let mut out = Vec::new();
    crypto(&mut rng, &mut out);
    erasure(&mut rng, &mut out);
    types(&mut rng, &mut out);
    simnet(&mut out);
    out
}

fn crypto(rng: &mut StdRng, out: &mut Vec<(String, f64)>) {
    let mut put = |name: &str, value: f64| out.push((format!("crypto.{name}"), value));

    // SHA-256 over 1 MiB, checked against the streaming interface fed in odd pieces.
    let data = random_bytes(rng, 1 << 20);
    let mut streamed = Sha256::new();
    for piece in data.chunks(4093) {
        streamed.update(piece);
    }
    let expected = streamed.finalize();
    let ns = median_of_batches(BATCHES, || {
        per_call_ns(4, |_| {
            assert_eq!(Sha256::digest(black_box(&data)), expected)
        })
    });
    put("sha256_mb_per_s", data.len() as f64 / 1e6 / (ns / 1e9));

    // Threshold signatures at n = 128 (threshold 2f + 1 = 85).
    let n = 128;
    let threshold = 2 * ((n - 1) / 3) + 1;
    let (scheme, keypairs): (ThresholdScheme, Vec<ThresholdKeyPair>) =
        ThresholdScheme::trusted_setup(threshold, n, rng);
    let message = hash_bytes(&random_bytes(rng, 64));
    let other_message = hash_bytes(b"another message");
    let shares: Vec<SignatureShare> = keypairs
        .iter()
        .take(threshold)
        .map(|kp| scheme.sign_share(kp, &message))
        .collect();

    put(
        "sign_share_ns",
        median_of_batches(BATCHES, || {
            per_call_ns(4096, |i| {
                let share = scheme.sign_share(black_box(&keypairs[i % n]), &message);
                debug_assert_eq!(share.signer, i % n + 1);
                black_box(share);
            })
        }),
    );
    assert!(
        !scheme.verify_share(&shares[0], &other_message),
        "a share verified on the wrong message"
    );
    put(
        "verify_share_ns",
        median_of_batches(BATCHES, || {
            per_call_ns(4096, |i| {
                assert!(scheme.verify_share(black_box(&shares[i % threshold]), &message))
            })
        }),
    );

    let real = CryptoProvider::new(
        scheme.clone(),
        CryptoMode::Real,
        CostModelKind::Calibrated.model(),
    );
    let mut forged = shares.clone();
    forged[3] = scheme.sign_share(&keypairs[3], &other_message);
    assert_eq!(
        real.verify_shares_batch(&forged, &message).0,
        BatchOutcome::Invalid(vec![4])
    );
    put(
        "batch_verify_ns_per_share",
        median_of_batches(BATCHES, || {
            per_call_ns(64, |_| {
                assert!(real
                    .verify_shares_batch(black_box(&shares), &message)
                    .0
                    .is_valid())
            })
        }) / threshold as f64,
    );

    let combined = real
        .combine_preverified(&shares, &message)
        .0
        .expect("a full quorum combines");
    assert!(scheme.verify_combined(&combined, &message));
    assert!(!scheme.verify_combined(&combined, &other_message));
    put(
        "combine_ns",
        median_of_batches(BATCHES, || {
            per_call_ns(64, |_| {
                let again = real
                    .combine_preverified(black_box(&shares), &message)
                    .0
                    .expect("combines");
                assert_eq!(again, combined);
            })
        }),
    );
    put(
        "verify_combined_ns",
        median_of_batches(BATCHES, || {
            per_call_ns(4096, |_| {
                assert!(scheme.verify_combined(black_box(&combined), &message))
            })
        }),
    );

    // Merkle tree over the 32 shards of one retrieval-real-n32 datablock.
    let rs = ReedSolomon::new(11, 32).expect("(11, 32) is a valid code");
    let shards = rs.encode_payload(&random_bytes(rng, 2000 * 128));
    let tree = MerkleTree::from_leaves(shards.iter().map(Vec::as_slice));
    let proofs: Vec<_> = (0..32)
        .map(|i| tree.prove(i).expect("leaf exists"))
        .collect();
    assert!(
        !proofs[0].verify(tree.root(), &shards[1]),
        "a proof verified the wrong leaf"
    );
    put(
        "merkle_build_ns",
        median_of_batches(BATCHES, || {
            per_call_ns(8, |_| {
                let rebuilt = MerkleTree::from_leaves(black_box(&shards).iter().map(Vec::as_slice));
                assert_eq!(rebuilt.root(), tree.root());
            })
        }),
    );
    put(
        "merkle_verify_ns",
        median_of_batches(BATCHES, || {
            per_call_ns(64, |i| {
                assert!(proofs[i % 32].verify(tree.root(), black_box(&shards[i % 32])))
            })
        }),
    );

    // Trusted set-up at the largest workload's scale.
    let big_n = 400;
    let big_threshold = 2 * ((big_n - 1) / 3) + 1;
    put(
        "trusted_setup_ms",
        median_of_batches(BATCHES, || {
            per_call_ns(1, |_| {
                let (scheme, keypairs) = ThresholdScheme::trusted_setup(big_threshold, big_n, rng);
                assert_eq!((scheme.participants(), keypairs.len()), (big_n, big_n));
                black_box(scheme);
            })
        }) / 1e6,
    );

    // What a signature still costs the large-n runs, where crypto is metered.
    let metered = CryptoProvider::new(
        scheme,
        CryptoMode::Metered,
        CostModelKind::Calibrated.model(),
    );
    assert_eq!(metered.sign_share(&keypairs[0], &message).0, shares[0]);
    put(
        "metered_sign_ns",
        median_of_batches(BATCHES, || {
            per_call_ns(4096, |i| {
                black_box(metered.sign_share(black_box(&keypairs[i % n]), &message));
            })
        }),
    );
}

fn erasure(rng: &mut StdRng, out: &mut Vec<(String, f64)>) {
    for (label, data_shards, total, requests) in [("n32", 11, 32, 2000), ("n128", 43, 128, 3000)] {
        let rs = ReedSolomon::new(data_shards, total).expect("valid code");
        let payload = random_bytes(rng, requests * 128);
        let mb = payload.len() as f64 / 1e6;
        let shards = rs.encode_payload(&payload);
        // Decode from the last `data_shards` shards: as many parity shards as possible.
        let surviving: Vec<(usize, Vec<u8>)> = shards
            .iter()
            .cloned()
            .enumerate()
            .skip(total - data_shards)
            .collect();

        let ns = median_of_batches(BATCHES, || {
            per_call_ns(2, |_| {
                assert_eq!(rs.encode_payload(black_box(&payload)), shards)
            })
        });
        out.push((format!("erasure.encode_mb_per_s.{label}"), mb / (ns / 1e9)));
        let ns = median_of_batches(BATCHES, || {
            per_call_ns(2, |_| {
                let decoded = rs
                    .decode_payload(black_box(&surviving), payload.len())
                    .expect("decodes");
                assert_eq!(decoded, payload);
            })
        });
        out.push((format!("erasure.decode_mb_per_s.{label}"), mb / (ns / 1e9)));
    }

    let src = random_bytes(rng, 64 << 10);
    let coefficient = rng.gen_range(2u8..=255);
    let mut expected = vec![0u8; src.len()];
    for (e, s) in expected.iter_mut().zip(&src) {
        *e = gf256::mul_slow(coefficient, *s);
    }
    let ns = median_of_batches(BATCHES, || {
        let mut dst = vec![0u8; src.len()];
        gf256::mul_add_slice(&mut dst, &src, coefficient);
        assert_eq!(dst, expected);
        let ns = per_call_ns(64, |_| {
            gf256::mul_add_slice(black_box(&mut dst), black_box(&src), coefficient)
        });
        // An even number of further passes cancels.
        assert_eq!(dst, expected);
        ns
    });
    out.push((
        "erasure.mul_add_slice_gb_per_s".into(),
        src.len() as f64 / ns,
    ));
}

fn types(rng: &mut StdRng, out: &mut Vec<(String, f64)>) {
    // The digest is memoised inside the datablock, so every timed call gets a fresh one.
    let fresh = |counter: u64| {
        let requests =
            (0..2000).map(|seq| Request::new_synthetic(ClientId(7), counter * 2000 + seq, 128));
        Datablock::new(NodeId(7), counter, requests.collect())
    };
    assert_eq!(fresh(1).digest(), fresh(1).digest());
    assert_ne!(fresh(1).digest(), fresh(2).digest());
    out.push((
        "types.datablock_digest_ns".into(),
        median_of_batches(BATCHES, || {
            let blocks: Vec<Datablock> = (0..8).map(fresh).collect();
            let ns = per_call_ns(8, |i| {
                black_box(blocks[i].digest());
            });
            assert_eq!(blocks[1].digest(), fresh(1).digest());
            ns
        }),
    ));

    let links: Vec<Digest> = (0..400)
        .map(|_| hash_bytes(&rng.next_u64().to_le_bytes()))
        .collect();
    let block = BftBlock::new(View(3), SeqNum(17), links);
    out.push((
        "types.wire_roundtrip_ns".into(),
        median_of_batches(BATCHES, || {
            per_call_ns(64, |_| {
                let bytes = black_box(&block).encode_to_vec();
                assert_eq!(bytes.len(), block.wire_size());
                let decoded = BftBlock::decode_from_slice(&bytes).expect("decodes");
                assert_eq!(decoded.digest(), block.digest());
            })
        }),
    ));
}

/// A message that carries nothing: the engine's cost per event with no protocol work.
#[derive(Debug, Clone)]
struct Ping;

impl WireSize for Ping {
    fn wire_size(&self) -> usize {
        64
    }
}

impl SimMessage for Ping {
    fn category(&self) -> &'static str {
        "ping"
    }
}

/// Sends its pings at start and ignores what it receives.
struct Pinger {
    /// `true`: one multicast to everyone. `false`: `n − 1` unicasts to node 0.
    flood: bool,
    received: u64,
}

impl Protocol for Pinger {
    type Message = Ping;

    fn on_start(&mut self, ctx: &mut dyn Context<Message = Ping>) {
        if self.flood {
            ctx.multicast(Ping);
        } else if ctx.node_id() != NodeId(0) {
            for _ in 1..ctx.node_count() {
                ctx.send(NodeId(0), Ping);
            }
        }
    }

    fn on_message(
        &mut self,
        _from: NodeId,
        _message: Ping,
        _ctx: &mut dyn Context<Message = Ping>,
    ) {
        self.received += 1;
    }

    fn on_timer(&mut self, _token: u64, _ctx: &mut dyn Context<Message = Ping>) {}
}

fn simnet(out: &mut Vec<(String, f64)>) {
    const N: usize = 256;
    for (name, flood) in [
        ("flood_ns_per_event", true),
        ("unicast_ns_per_event", false),
    ] {
        let ns = median_of_batches(BATCHES, || {
            let mut sim = Simulation::new(NetworkConfig::datacenter(N), FaultPlan::none(), |_| {
                Pinger { flood, received: 0 }
            });
            let start = Instant::now();
            sim.run_until(SimTime::ZERO + SimDuration::from_secs(60), u64::MAX);
            let elapsed = start.elapsed().as_nanos() as f64;
            let events = sim.events_processed();
            let received: u64 = (0..N).map(|i| sim.node(NodeId(i as u32)).received).sum();
            let expected = if flood {
                N * (N - 1)
            } else {
                (N - 1) * (N - 1)
            } as u64;
            assert_eq!(received, expected, "{name}: pings lost");
            let traffic = &sim.metrics().traffic;
            assert_eq!(traffic.total_sent_bytes(), expected * 64);
            assert_eq!(traffic.total_received_bytes(), expected * 64);
            elapsed / events as f64
        });
        out.push((format!("simnet.{name}"), ns));
    }

    const OBSERVATIONS: usize = 100_000;
    out.push((
        "simnet.observe_ns".into(),
        median_of_batches(BATCHES, || {
            let mut sink = MetricsSink::with_nodes(N);
            let ns = per_call_ns(OBSERVATIONS, |i| {
                let node = NodeId((i % N) as u32);
                let kind = if i % 2 == 0 {
                    ObservationKind::RequestsConfirmed {
                        count: 3,
                        payload_bytes: 384,
                    }
                } else {
                    ObservationKind::RequestLatency {
                        nanos: 1_000 + i as u64,
                    }
                };
                sink.observe(SimTime(i as u64), node, black_box(kind));
            });
            // N is even, so node 0 sees every N-th observation and all of them confirm.
            assert_eq!(
                sink.max_confirmed_requests(N),
                3 * OBSERVATIONS.div_ceil(N) as u64
            );
            assert_eq!(sink.latency_histogram.total(), (OBSERVATIONS / 2) as u64);
            ns
        }),
    ));
    out.push((
        "simnet.histogram_record_ns".into(),
        median_of_batches(BATCHES, || {
            let mut histogram = LatencyHistogram::new();
            let ns = per_call_ns(OBSERVATIONS, |i| {
                histogram.record(black_box(1_000 + 977 * i as u64))
            });
            assert_eq!(histogram.total(), OBSERVATIONS as u64);
            let p50 = histogram.percentile(0.5).expect("non-empty") as f64;
            let exact = 1_000.0 + 977.0 * (OBSERVATIONS / 2) as f64;
            assert!(
                (p50 / exact - 1.0).abs() < 0.05,
                "median {p50} is not near {exact}"
            );
            ns
        }),
    ));
}
