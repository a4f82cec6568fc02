//! The crypto-provider layer: every cryptographic operation the protocols perform goes
//! through a [`CryptoProvider`], which (a) supports **batched share verification**
//! (randomized linear combination, amortising field work across a whole quorum) and
//! (b) reports a modeled [`ComputeCost`] per operation, so the simulator can charge
//! replica CPU as a scheduled resource alongside link bandwidth.
//!
//! # The two modes
//!
//! * [`CryptoMode::Real`] executes every field operation for real (Lagrange
//!   interpolation, share verification, erasure coding, Merkle hashing).
//! * [`CryptoMode::Metered`] makes **identical accept/reject decisions** and produces
//!   **bit-identical combined signatures**, but skips the expensive real work where the
//!   result is algebraically forced: a combine over verified shares must interpolate to
//!   `s · h(m)`, which the provider computes directly from the master verification
//!   value in one field multiplication instead of a `t`-term Lagrange sum. The modeled
//!   [`ComputeCost`] charged is the same in both modes, so a metered run follows the
//!   same simulated-time schedule as a real run while costing far less wall-clock.
//!   (The retrieval path applies the same idea to erasure coding and Merkle proofs —
//!   see `leopard-core`'s `retrieval` module.)
//!
//! Cost constants are supplied by [`CryptoCostModel`]; the calibrated values live in
//! `leopard_types::params` next to the rest of the paper's cost-model parameters.

use crate::field::Fp;
use crate::hash::Digest;
use crate::threshold::{
    CombinedSignature, SignatureShare, ThresholdError, ThresholdKeyPair, ThresholdScheme,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Modeled CPU time of one operation, in nanoseconds of replica compute.
///
/// Costs are *modeled*, not measured per call: they are computed from the operation's
/// input sizes and the calibrated per-byte / per-share constants of a
/// [`CryptoCostModel`], so a run charges the same simulated time whether the real work
/// was executed ([`CryptoMode::Real`]) or skipped ([`CryptoMode::Metered`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct ComputeCost {
    nanos: u64,
}

impl ComputeCost {
    /// Zero cost.
    pub const ZERO: ComputeCost = ComputeCost { nanos: 0 };

    /// A cost of `nanos` nanoseconds of replica CPU.
    pub const fn from_nanos(nanos: u64) -> Self {
        Self { nanos }
    }

    /// The modeled CPU time in nanoseconds.
    pub const fn as_nanos(&self) -> u64 {
        self.nanos
    }

    /// True for a zero cost.
    pub const fn is_zero(&self) -> bool {
        self.nanos == 0
    }
}

impl std::ops::Add for ComputeCost {
    type Output = ComputeCost;
    fn add(self, rhs: ComputeCost) -> ComputeCost {
        ComputeCost {
            nanos: self.nanos.saturating_add(rhs.nanos),
        }
    }
}

impl std::ops::AddAssign for ComputeCost {
    fn add_assign(&mut self, rhs: ComputeCost) {
        *self = *self + rhs;
    }
}

impl std::fmt::Display for ComputeCost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}ns", self.nanos)
    }
}

/// Whether crypto operations execute their field work for real or only charge it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CryptoMode {
    /// Execute every operation for real (the default; required when Byzantine tests
    /// inject tampered shares or chunks).
    #[default]
    Real,
    /// Make identical decisions and produce identical outputs, but skip the expensive
    /// real work whose result is forced (Lagrange combine, erasure coding, Merkle
    /// hashing in the retrieval path) while charging identical modeled time.
    Metered,
}

/// Per-operation cost constants of the compute-resource model.
///
/// All constants are modeled replica-CPU time. Two calibrations ship with the
/// repository (see `leopard_types::params`): `calibrated_crypto_costs()`, measured from
/// the real in-process implementations with `examples/calibrate_costs.rs`, and
/// `bls_paper_crypto_costs()`, which substitutes published BLS12-381 threshold-signature
/// timings to model the paper's actual crypto stack (used by the CPU-bound scaling
/// experiment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CryptoCostModel {
    /// Producing one signature share.
    pub sign_share_nanos: u64,
    /// Verifying one signature share on its own.
    pub verify_share_nanos: u64,
    /// Fixed cost of one batched share verification.
    pub batch_verify_base_nanos: u64,
    /// Additional cost per share in a batched verification.
    pub batch_verify_per_share_nanos: u64,
    /// Fixed cost of combining a quorum of shares.
    pub combine_base_nanos: u64,
    /// Additional cost per combined share.
    pub combine_per_share_nanos: u64,
    /// Verifying a combined signature.
    pub verify_combined_nanos: u64,
    /// Fixed cost of one hash invocation.
    pub hash_base_nanos: u64,
    /// Hashing cost per byte, in picoseconds.
    pub hash_per_byte_picos: u64,
    /// Erasure-coding kernel cost per processed byte (one GF(2^8) multiply-accumulate),
    /// in picoseconds.
    pub erasure_per_byte_picos: u64,
    /// Per-leaf overhead of building or verifying a Merkle tree, beyond the hashing of
    /// the leaf bytes themselves.
    pub merkle_per_leaf_nanos: u64,
}

impl CryptoCostModel {
    /// A model that charges nothing (compute stays free, as before this layer existed).
    pub const fn free() -> Self {
        Self {
            sign_share_nanos: 0,
            verify_share_nanos: 0,
            batch_verify_base_nanos: 0,
            batch_verify_per_share_nanos: 0,
            combine_base_nanos: 0,
            combine_per_share_nanos: 0,
            verify_combined_nanos: 0,
            hash_base_nanos: 0,
            hash_per_byte_picos: 0,
            erasure_per_byte_picos: 0,
            merkle_per_leaf_nanos: 0,
        }
    }

    /// Cost of hashing `bytes` bytes.
    pub fn hash(&self, bytes: usize) -> ComputeCost {
        ComputeCost::from_nanos(
            self.hash_base_nanos + (bytes as u64).saturating_mul(self.hash_per_byte_picos) / 1000,
        )
    }

    /// Cost of one signature share.
    pub fn sign_share(&self) -> ComputeCost {
        ComputeCost::from_nanos(self.sign_share_nanos)
    }

    /// Cost of verifying one share on its own.
    pub fn verify_share(&self) -> ComputeCost {
        ComputeCost::from_nanos(self.verify_share_nanos)
    }

    /// Cost of verifying `count` shares in one batch.
    pub fn batch_verify(&self, count: usize) -> ComputeCost {
        ComputeCost::from_nanos(
            self.batch_verify_base_nanos
                + (count as u64).saturating_mul(self.batch_verify_per_share_nanos),
        )
    }

    /// Cost of combining `count` shares.
    pub fn combine(&self, count: usize) -> ComputeCost {
        ComputeCost::from_nanos(
            self.combine_base_nanos + (count as u64).saturating_mul(self.combine_per_share_nanos),
        )
    }

    /// Cost of verifying a combined signature.
    pub fn verify_combined(&self) -> ComputeCost {
        ComputeCost::from_nanos(self.verify_combined_nanos)
    }

    /// Cost of erasure-encoding a payload into a `(data_shards, total_shards)` shard
    /// set: the parity rows perform one GF(2^8) multiply-accumulate per data byte each.
    pub fn erasure_encode(
        &self,
        payload_len: usize,
        data_shards: usize,
        total_shards: usize,
    ) -> ComputeCost {
        let shard_len = payload_len.div_ceil(data_shards.max(1)).max(1) as u64;
        let parity = total_shards.saturating_sub(data_shards) as u64;
        let byte_ops = shard_len
            .saturating_mul(data_shards as u64)
            .saturating_mul(parity);
        ComputeCost::from_nanos(byte_ops.saturating_mul(self.erasure_per_byte_picos) / 1000)
    }

    /// Cost of reconstructing the data shards from `data_shards` surviving shards.
    pub fn erasure_decode(&self, payload_len: usize, data_shards: usize) -> ComputeCost {
        let shard_len = payload_len.div_ceil(data_shards.max(1)).max(1) as u64;
        let byte_ops = shard_len
            .saturating_mul(data_shards as u64)
            .saturating_mul(data_shards as u64);
        ComputeCost::from_nanos(byte_ops.saturating_mul(self.erasure_per_byte_picos) / 1000)
    }

    /// Cost of building a Merkle tree over `leaves` leaves of `leaf_len` bytes each
    /// (leaf hashing plus interior-node hashing).
    pub fn merkle_tree(&self, leaf_len: usize, leaves: usize) -> ComputeCost {
        // Leaf hashing: one hash over the leaf bytes per leaf; interior nodes cost
        // about one 65-byte hash per leaf in total, folded into the per-leaf constant.
        let per_leaf = self.hash(leaf_len + 1).as_nanos() + self.merkle_per_leaf_nanos;
        ComputeCost::from_nanos((leaves as u64).saturating_mul(per_leaf))
    }

    /// Cost of verifying one Merkle inclusion proof for a tree of `leaves` leaves with
    /// `leaf_len`-byte leaves (one leaf hash plus `log2(leaves)` node hashes).
    pub fn merkle_verify(&self, leaf_len: usize, leaves: usize) -> ComputeCost {
        let depth = (usize::BITS - leaves.max(1).leading_zeros()) as u64;
        ComputeCost::from_nanos(
            self.hash(leaf_len + 1).as_nanos() + depth.saturating_mul(self.hash(65).as_nanos()),
        )
    }
}

impl Default for CryptoCostModel {
    fn default() -> Self {
        Self::free()
    }
}

/// Outcome of a batched share verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOutcome {
    /// Every share in the batch is a valid signature share on the message.
    AllValid,
    /// At least one share is invalid; the signer indices of every invalid share are
    /// listed (the batch is never silently accepted).
    Invalid(Vec<usize>),
}

impl BatchOutcome {
    /// True if the whole batch verified.
    pub fn is_valid(&self) -> bool {
        matches!(self, BatchOutcome::AllValid)
    }
}

/// The crypto-provider: a [`ThresholdScheme`] plus a mode and a cost model.
///
/// One provider is shared by all replicas of a simulated system (it is part of the
/// shared key material); every operation returns the result together with its modeled
/// [`ComputeCost`], which the caller charges to its replica's compute queue.
#[derive(Debug, Clone)]
pub struct CryptoProvider {
    scheme: ThresholdScheme,
    mode: CryptoMode,
    model: CryptoCostModel,
}

/// `splitmix64` — a tiny, fast mixer used to derive batch coefficients
/// deterministically from the message and the shares (Fiat–Shamir style). The
/// coefficients must be outside the signers' control *before they fix their shares*;
/// deriving them from a hash of the batch contents achieves that without consuming
/// simulation randomness (so Real and Metered runs draw identical RNG streams).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl CryptoProvider {
    /// Wraps a threshold scheme in the given mode and cost model.
    pub fn new(scheme: ThresholdScheme, mode: CryptoMode, model: CryptoCostModel) -> Self {
        Self {
            scheme,
            mode,
            model,
        }
    }

    /// The underlying threshold scheme (public verification values).
    pub fn scheme(&self) -> &ThresholdScheme {
        &self.scheme
    }

    /// The provider's mode.
    pub fn mode(&self) -> CryptoMode {
        self.mode
    }

    /// True when the provider skips real field/erasure work (charging identical time).
    pub fn is_metered(&self) -> bool {
        self.mode == CryptoMode::Metered
    }

    /// The cost model used for charging.
    pub fn model(&self) -> &CryptoCostModel {
        &self.model
    }

    /// `TSig`: produces a signature share. One field multiplication; executed for real
    /// in both modes.
    pub fn sign_share(
        &self,
        keypair: &ThresholdKeyPair,
        message: &Digest,
    ) -> (SignatureShare, ComputeCost) {
        (
            self.scheme.sign_share(keypair, message),
            self.model.sign_share(),
        )
    }

    /// `TVrf` on a single share. Executed for real in both modes (the check is one
    /// field multiplication, and Byzantine tests rely on tampered shares being caught).
    pub fn verify_share(&self, share: &SignatureShare, message: &Digest) -> (bool, ComputeCost) {
        (
            self.scheme.verify_share(share, message),
            self.model.verify_share(),
        )
    }

    /// `TVrf` on a combined signature. Executed for real in both modes.
    pub fn verify_combined(
        &self,
        signature: &CombinedSignature,
        message: &Digest,
    ) -> (bool, ComputeCost) {
        (
            self.scheme.verify_combined(signature, message),
            self.model.verify_combined(),
        )
    }

    /// Batched share verification by randomized linear combination: checks
    /// `Σ rᵢ·σᵢ == (Σ rᵢ·vᵢ)·h(m)` for coefficients `rᵢ` derived from the batch
    /// contents, so a whole quorum verifies with two inner products instead of one
    /// scheme verification per share. On mismatch the batch is re-checked share by
    /// share and the invalid signers are reported — a batch containing a corrupted
    /// share is **never accepted**.
    ///
    /// Shares with out-of-range signer indices are reported as invalid.
    pub fn verify_shares_batch(
        &self,
        shares: &[SignatureShare],
        message: &Digest,
    ) -> (BatchOutcome, ComputeCost) {
        let cost = self.model.batch_verify(shares.len());
        // The localisation fallback really verifies every share individually, so the
        // failure path is charged batch + per-share work — a forged vote costs the
        // verifier real serial CPU, it is not free in the model.
        let fallback_cost = ComputeCost::from_nanos(
            cost.as_nanos()
                + (shares.len() as u64).saturating_mul(self.model.verify_share_nanos),
        );
        let n = self.scheme.participants();
        if shares.iter().any(|s| s.signer == 0 || s.signer > n) {
            return (self.locate_invalid(shares, message), fallback_cost);
        }
        let seed = splitmix64(message.to_u64());
        let mut lhs = Fp::zero();
        let mut keys = Fp::zero();
        for share in shares {
            let r = Fp::new(splitmix64(
                seed ^ (share.signer as u64).wrapping_mul(0xA24BAED4963EE407)
                    ^ share.value.value(),
            ));
            lhs = lhs + r * share.value;
            keys = keys + r * self.scheme.verification_value(share.signer);
        }
        let rhs = keys * ThresholdScheme::message_point_of(message);
        if lhs == rhs {
            (BatchOutcome::AllValid, cost)
        } else {
            (self.locate_invalid(shares, message), fallback_cost)
        }
    }

    /// Fallback localisation: per-share verification of a batch that failed (or that
    /// contained malformed signer indices).
    fn locate_invalid(&self, shares: &[SignatureShare], message: &Digest) -> BatchOutcome {
        let invalid: Vec<usize> = shares
            .iter()
            .filter(|share| !self.scheme.verify_share(share, message))
            .map(|share| share.signer)
            .collect();
        if invalid.is_empty() {
            // The linear combination can only fail if some share is invalid, but keep
            // the defensive branch: report the batch as all-valid when the per-share
            // pass clears everything.
            BatchOutcome::AllValid
        } else {
            BatchOutcome::Invalid(invalid)
        }
    }

    /// `TSR` over shares the caller has **already verified** (individually or with
    /// [`Self::verify_shares_batch`]): skips the redundant per-share re-verification
    /// that `ThresholdScheme::combine` performs.
    ///
    /// Structural checks (threshold count, signer range, duplicates) still run in both
    /// modes. In [`CryptoMode::Real`] the combination interpolates for real; in
    /// [`CryptoMode::Metered`] the provider returns the algebraically forced result
    /// `s · h(m)` directly — bit-identical output, one multiplication instead of a
    /// `t`-term Lagrange sum.
    ///
    /// # Errors
    ///
    /// The same structural [`ThresholdError`]s as `ThresholdScheme::combine`.
    pub fn combine_preverified(
        &self,
        shares: &[SignatureShare],
        message: &Digest,
    ) -> (Result<CombinedSignature, ThresholdError>, ComputeCost) {
        let threshold = self.scheme.threshold();
        let cost = self.model.combine(threshold.min(shares.len()));
        let result = match self.mode {
            CryptoMode::Real => self.scheme.combine_preverified(shares, message),
            CryptoMode::Metered => self
                .scheme
                .check_combine_structure(shares)
                .map(|()| self.scheme.master_signature(message)),
        };
        (result, cost)
    }
}

/// The key material shared by all replicas of one deployment, of either protocol: the
/// crypto provider (threshold scheme + mode + cost model) plus every replica's key pair.
///
/// In a real deployment each replica would hold only its own key pair; bundling them is
/// a simulation convenience (replicas only ever read their own entry).
#[derive(Debug)]
pub struct SharedKeys {
    /// The crypto provider every operation goes through.
    pub provider: CryptoProvider,
    /// Per-replica key pairs, indexed by replica index.
    pub keypairs: Vec<ThresholdKeyPair>,
}

impl SharedKeys {
    /// Runs the trusted setup for a `(threshold, n)` deployment, seeded by `seed`.
    pub fn generate(
        threshold: usize,
        n: usize,
        seed: u64,
        mode: CryptoMode,
        model: CryptoCostModel,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let (scheme, keypairs) = ThresholdScheme::trusted_setup(threshold, n, &mut rng);
        Self {
            provider: CryptoProvider::new(scheme, mode, model),
            keypairs,
        }
    }

    /// The key pair of replica `index`.
    pub fn keypair(&self, index: usize) -> &ThresholdKeyPair {
        &self.keypairs[index]
    }
}

/// A quorum in the making: the signature shares collected for one message, at most one
/// per signer, and their settlement into a combined signature. Both protocols' leaders
/// use it for every vote round.
///
/// Callers check `share.signer` against the sender's identity before [`Self::add`];
/// the collector itself never sizes anything by a signer index.
#[derive(Debug, Default, Clone)]
pub struct ShareCollector {
    shares: Vec<SignatureShare>,
    /// Every signer that ever contributed, sorted. A signer whose share was purged as
    /// forged stays listed (see [`Self::settle`]).
    signers: Vec<usize>,
}

impl ShareCollector {
    /// Adds a share unless the signer already contributed; returns the new count.
    pub fn add(&mut self, share: SignatureShare) -> usize {
        if let Err(position) = self.signers.binary_search(&share.signer) {
            self.signers.insert(position, share.signer);
            self.shares.push(share);
        }
        self.shares.len()
    }

    /// Borrows the collected shares.
    pub fn shares(&self) -> &[SignatureShare] {
        &self.shares
    }

    /// The quorum settlement: batch-verifies the collected shares over `digest`
    /// (randomized linear combination — one batch check instead of one scheme
    /// verification per share) and combines the pre-verified quorum. Returns the proof,
    /// if one formed, and the modeled cost of the work done.
    ///
    /// When the batch check locates forged shares they are dropped and `None` is
    /// returned, so the quorum re-forms from the remaining honest voters. The forgers
    /// stay *marked* as having contributed: an honest signer sends at most one share,
    /// so a replacement can only be another attempt by the forger — keeping the mark
    /// stops a replayed forgery from re-triggering a batch check on every arrival.
    pub fn settle(
        &mut self,
        provider: &CryptoProvider,
        digest: &Digest,
    ) -> (Option<CombinedSignature>, ComputeCost) {
        let (outcome, verify_cost) = provider.verify_shares_batch(&self.shares, digest);
        if let BatchOutcome::Invalid(forgers) = outcome {
            self.shares.retain(|share| !forgers.contains(&share.signer));
            return (None, verify_cost);
        }
        let (combined, combine_cost) = provider.combine_preverified(&self.shares, digest);
        (combined.ok(), verify_cost + combine_cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::hash_bytes;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn provider(mode: CryptoMode) -> (CryptoProvider, Vec<ThresholdKeyPair>) {
        let mut rng = StdRng::seed_from_u64(7);
        let (scheme, keys) = ThresholdScheme::trusted_setup(5, 7, &mut rng);
        (
            CryptoProvider::new(scheme, mode, CryptoCostModel::free()),
            keys,
        )
    }

    #[test]
    fn batch_accepts_valid_quorum() {
        let (provider, keys) = provider(CryptoMode::Real);
        let msg = hash_bytes(b"batch");
        let shares: Vec<_> = keys
            .iter()
            .map(|k| provider.sign_share(k, &msg).0)
            .collect();
        let (outcome, _) = provider.verify_shares_batch(&shares, &msg);
        assert_eq!(outcome, BatchOutcome::AllValid);
    }

    #[test]
    fn batch_locates_corrupted_share() {
        let (provider, keys) = provider(CryptoMode::Real);
        let msg = hash_bytes(b"batch");
        let mut shares: Vec<_> = keys
            .iter()
            .map(|k| provider.sign_share(k, &msg).0)
            .collect();
        shares[3].value = shares[3].value + Fp::one();
        let (outcome, _) = provider.verify_shares_batch(&shares, &msg);
        assert_eq!(outcome, BatchOutcome::Invalid(vec![4])); // signer indices are 1-based
    }

    #[test]
    fn batch_rejects_out_of_range_signer() {
        let (provider, keys) = provider(CryptoMode::Real);
        let msg = hash_bytes(b"batch");
        let mut shares: Vec<_> = keys
            .iter()
            .map(|k| provider.sign_share(k, &msg).0)
            .collect();
        shares[0].signer = 99;
        let (outcome, _) = provider.verify_shares_batch(&shares, &msg);
        assert_eq!(outcome, BatchOutcome::Invalid(vec![99]));
    }

    #[test]
    fn metered_combine_matches_real_combine() {
        let (real, keys) = provider(CryptoMode::Real);
        let (metered, _) = provider(CryptoMode::Metered);
        let msg = hash_bytes(b"combine");
        let shares: Vec<_> = keys.iter().map(|k| real.sign_share(k, &msg).0).collect();
        let (a, _) = real.combine_preverified(&shares[..5], &msg);
        let (b, _) = metered.combine_preverified(&shares[..5], &msg);
        let a = a.unwrap();
        assert_eq!(a, b.unwrap());
        assert!(real.verify_combined(&a, &msg).0);
    }

    #[test]
    fn metered_combine_reports_structural_errors() {
        let (metered, keys) = provider(CryptoMode::Metered);
        let msg = hash_bytes(b"errors");
        let shares: Vec<_> = keys.iter().map(|k| metered.sign_share(k, &msg).0).collect();
        let (short, _) = metered.combine_preverified(&shares[..2], &msg);
        assert_eq!(short, Err(ThresholdError::NotEnoughShares { got: 2, need: 5 }));
        let dup = [shares[0], shares[0], shares[1], shares[2], shares[3]];
        let (dup_result, _) = metered.combine_preverified(&dup, &msg);
        assert_eq!(dup_result, Err(ThresholdError::DuplicateSigner(1)));
    }

    #[test]
    fn share_collector_deduplicates_by_signer() {
        let (provider, keys) = provider(CryptoMode::Real);
        let msg = hash_bytes(b"block");
        let share = |k: usize| provider.sign_share(&keys[k], &msg).0;
        let mut collector = ShareCollector::default();
        assert!(collector.shares().is_empty());
        assert_eq!(collector.add(share(0)), 1);
        assert_eq!(collector.add(share(0)), 1);
        // Arrival order is kept, whatever the signer order.
        for (count, k) in [(2, 4), (3, 1), (4, 3), (4, 4), (5, 2)] {
            assert_eq!(collector.add(share(k)), count);
        }
        let signers: Vec<usize> = collector.shares().iter().map(|s| s.signer).collect();
        assert_eq!(signers, vec![1, 5, 2, 4, 3]); // signer indices are 1-based
        assert!(provider.scheme().combine(collector.shares(), &msg).is_ok());
    }

    #[test]
    fn settle_purges_a_forged_share_and_reforms_the_quorum() {
        let model = CryptoCostModel {
            verify_share_nanos: 20,
            batch_verify_base_nanos: 100,
            batch_verify_per_share_nanos: 3,
            combine_base_nanos: 50,
            combine_per_share_nanos: 2,
            ..CryptoCostModel::free()
        };
        let keys = SharedKeys::generate(5, 7, 7, CryptoMode::Real, model);
        let provider = &keys.provider;
        let msg = hash_bytes(b"vote");
        let share = |k: usize| provider.sign_share(keys.keypair(k), &msg).0;
        let mut forged = share(2);
        forged.value += Fp::one();

        // 5-of-7: the first five arrivals hold one forgery. Settling costs the batch
        // check plus the per-share localisation, and no combine.
        let mut collector = ShareCollector::default();
        for s in [share(0), share(1), forged, share(3)] {
            collector.add(s);
        }
        assert_eq!(collector.add(share(4)), 5);
        let (proof, cost) = collector.settle(provider, &msg);
        assert_eq!(proof, None);
        assert_eq!(cost.as_nanos(), (100 + 5 * 3) + 5 * 20);
        assert_eq!(collector.shares().len(), 4);
        assert!(collector.shares().iter().all(|s| s.signer != forged.signer));

        // The forger stays marked: neither the forgery nor an honest share re-enters.
        assert_eq!(collector.add(forged), 4);
        assert_eq!(collector.add(share(2)), 4);

        // A fifth honest voter completes a quorum that combines (batch check + combine)
        // into a proof that verifies.
        assert_eq!(collector.add(share(5)), 5);
        let (proof, cost) = collector.settle(provider, &msg);
        assert_eq!(cost.as_nanos(), (100 + 5 * 3) + (50 + 5 * 2));
        let proof = proof.expect("five honest shares form a quorum");
        assert!(provider.verify_combined(&proof, &msg).0);
    }

    #[test]
    fn costs_follow_the_model() {
        let model = CryptoCostModel {
            sign_share_nanos: 10,
            verify_share_nanos: 20,
            batch_verify_base_nanos: 100,
            batch_verify_per_share_nanos: 3,
            combine_base_nanos: 50,
            combine_per_share_nanos: 2,
            verify_combined_nanos: 7,
            hash_base_nanos: 5,
            hash_per_byte_picos: 2000,
            erasure_per_byte_picos: 500,
            merkle_per_leaf_nanos: 11,
        };
        assert_eq!(model.sign_share().as_nanos(), 10);
        assert_eq!(model.batch_verify(10).as_nanos(), 130);
        assert_eq!(model.combine(5).as_nanos(), 60);
        assert_eq!(model.hash(1000).as_nanos(), 5 + 2000);
        // (1000/4=250-byte shards) x 4 data x 6 parity = 6000 byte ops at 0.5 ns.
        assert_eq!(model.erasure_encode(1000, 4, 10).as_nanos(), 3000);
        assert!(model.erasure_decode(1000, 4).as_nanos() > 0);
        assert!(model.merkle_tree(256, 8).as_nanos() > 0);
        assert!(model.merkle_verify(256, 8).as_nanos() > 0);
        assert_eq!(CryptoCostModel::free().hash(1 << 20), ComputeCost::ZERO);
        let sum = ComputeCost::from_nanos(1) + ComputeCost::from_nanos(2);
        assert_eq!(sum.as_nanos(), 3);
        assert!(!sum.is_zero());
        assert_eq!(format!("{sum}"), "3ns");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Batched verification accepts iff per-share verification accepts, for any
            /// scheme, quorum and message.
            #[test]
            fn batch_agrees_with_per_share(
                f in 1usize..5,
                seed in any::<u64>(),
                msg_bytes in proptest::collection::vec(any::<u8>(), 1..64),
            ) {
                let n = 3 * f + 1;
                let t = 2 * f + 1;
                let mut rng = StdRng::seed_from_u64(seed);
                let (scheme, keys) = ThresholdScheme::trusted_setup(t, n, &mut rng);
                let provider = CryptoProvider::new(scheme, CryptoMode::Real, CryptoCostModel::free());
                let msg = hash_bytes(&msg_bytes);
                let shares: Vec<_> = keys
                    .iter()
                    .map(|k| provider.sign_share(k, &msg).0)
                    .collect();
                let per_share_ok = shares.iter().all(|s| provider.verify_share(s, &msg).0);
                let (outcome, _) = provider.verify_shares_batch(&shares, &msg);
                prop_assert_eq!(outcome.is_valid(), per_share_ok);
                prop_assert!(outcome.is_valid());
            }

            /// A single corrupted share in an otherwise-valid batch is located (or the
            /// batch rejected) — never silently accepted.
            #[test]
            fn corrupted_share_is_never_accepted(
                f in 1usize..5,
                seed in any::<u64>(),
                victim in any::<usize>(),
                delta in 1u64..1_000_000,
                msg_bytes in proptest::collection::vec(any::<u8>(), 1..64),
            ) {
                let n = 3 * f + 1;
                let t = 2 * f + 1;
                let mut rng = StdRng::seed_from_u64(seed);
                let (scheme, keys) = ThresholdScheme::trusted_setup(t, n, &mut rng);
                let provider = CryptoProvider::new(scheme, CryptoMode::Real, CryptoCostModel::free());
                let msg = hash_bytes(&msg_bytes);
                let mut shares: Vec<_> = keys
                    .iter()
                    .map(|k| provider.sign_share(k, &msg).0)
                    .collect();
                let victim = victim % shares.len();
                shares[victim].value = shares[victim].value + Fp::new(delta);
                let corrupted_signer = shares[victim].signer;
                let (outcome, _) = provider.verify_shares_batch(&shares, &msg);
                match outcome {
                    BatchOutcome::AllValid => prop_assert!(false, "corrupted batch accepted"),
                    BatchOutcome::Invalid(signers) => {
                        prop_assert_eq!(signers, vec![corrupted_signer]);
                    }
                }
            }

            /// Metered and real combines agree bit-for-bit over any valid quorum.
            #[test]
            fn metered_real_combine_agree(
                f in 1usize..5,
                seed in any::<u64>(),
                msg_bytes in proptest::collection::vec(any::<u8>(), 1..64),
            ) {
                let n = 3 * f + 1;
                let t = 2 * f + 1;
                let mut rng = StdRng::seed_from_u64(seed);
                let (scheme, keys) = ThresholdScheme::trusted_setup(t, n, &mut rng);
                let real = CryptoProvider::new(scheme.clone(), CryptoMode::Real, CryptoCostModel::free());
                let metered = CryptoProvider::new(scheme, CryptoMode::Metered, CryptoCostModel::free());
                let msg = hash_bytes(&msg_bytes);
                let shares: Vec<_> = keys
                    .iter()
                    .map(|k| real.sign_share(k, &msg).0)
                    .collect();
                let (a, cost_a) = real.combine_preverified(&shares[..t], &msg);
                let (b, cost_b) = metered.combine_preverified(&shares[..t], &msg);
                prop_assert_eq!(a.unwrap(), b.unwrap());
                prop_assert_eq!(cost_a, cost_b);
            }
        }
    }
}
