//! A `(t, n)` threshold signature scheme based on Shamir secret sharing over
//! GF(2^61 − 1).
//!
//! The paper instantiates its vote aggregation with threshold BLS (48-byte signatures).
//! Re-implementing pairing-based BLS from scratch is out of scope for this reproduction,
//! so this module provides a scheme with the same *shape*:
//!
//! * a trusted dealer ([`ThresholdScheme::trusted_setup`]) splits a master secret `s`
//!   into `n` Shamir shares `s_i` (a degree `t−1` polynomial evaluated at `i`);
//! * a **signature share** on message `m` by replica `i` is `σ_i = s_i · h(m)` where
//!   `h(m)` maps the SHA-256 digest of `m` into the field;
//! * any `t` valid shares combine by Lagrange interpolation at zero into the **combined
//!   signature** `σ = s · h(m)`;
//! * verification of shares and combined signatures is done against per-replica and
//!   master *verification values* derived during setup.
//!
//! The threshold semantics are real (fewer than `t` shares give no information about
//! `σ`, and combination genuinely performs polynomial interpolation), but because
//! verification values reveal the shares the scheme is **not unforgeable** against an
//! adversary outside the simulation. See the crate-level documentation and `DESIGN.md`
//! §3 for why this substitution is sound for this repository.
//!
//! Wire sizes are configurable so the communication-cost accounting matches the paper's
//! `κ = 48` bytes per vote.

use crate::field::{lagrange_coefficients, poly_eval, Fp};
use crate::hash::Digest;
use rand::Rng;
use std::fmt;

/// Default serialized size of a signature share / combined signature in bytes, matching
/// the 48-byte BLS signatures used by the paper (`κ = 48`).
pub const DEFAULT_SIGNATURE_WIRE_BYTES: usize = 48;

/// Errors returned by the threshold scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThresholdError {
    /// The share's signer index is outside `1..=n`.
    SignerOutOfRange {
        /// The offending signer index.
        signer: usize,
        /// Number of participants in the scheme.
        n: usize,
    },
    /// Not enough shares were provided to reach the threshold.
    NotEnoughShares {
        /// Number of shares provided.
        got: usize,
        /// Threshold required.
        need: usize,
    },
    /// Two shares from the same signer were provided.
    DuplicateSigner(usize),
    /// A share failed verification.
    InvalidShare(usize),
}

impl fmt::Display for ThresholdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThresholdError::SignerOutOfRange { signer, n } => {
                write!(f, "signer index {signer} out of range for n={n}")
            }
            ThresholdError::NotEnoughShares { got, need } => {
                write!(f, "not enough signature shares: got {got}, need {need}")
            }
            ThresholdError::DuplicateSigner(signer) => {
                write!(f, "duplicate signature share from signer {signer}")
            }
            ThresholdError::InvalidShare(signer) => {
                write!(f, "invalid signature share from signer {signer}")
            }
        }
    }
}

impl std::error::Error for ThresholdError {}

/// A signature share produced by a single replica (`TSig` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SignatureShare {
    /// 1-based index of the signer (the Shamir evaluation point).
    pub signer: usize,
    /// The share value `s_i · h(m)`.
    pub value: Fp,
}

impl SignatureShare {
    /// Serialized size in bytes used for communication accounting.
    pub fn wire_size(&self) -> usize {
        DEFAULT_SIGNATURE_WIRE_BYTES
    }
}

/// A combined (threshold) signature (`TSR` output in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CombinedSignature {
    /// The combined value `s · h(m)`.
    pub value: Fp,
}

impl CombinedSignature {
    /// Serialized size in bytes used for communication accounting.
    pub fn wire_size(&self) -> usize {
        DEFAULT_SIGNATURE_WIRE_BYTES
    }
}

/// Per-replica key material.
#[derive(Debug, Clone)]
pub struct ThresholdKeyPair {
    /// 1-based index of this replica.
    pub index: usize,
    /// The Shamir share of the master secret (the signing key `tsk_i`).
    pub secret_share: Fp,
}

/// Public parameters plus verification values of the scheme.
///
/// One `ThresholdScheme` value is shared by all replicas of one simulated system; it
/// plays the role of the public keys `{tpk_i}` and `mpk`.
#[derive(Debug, Clone)]
pub struct ThresholdScheme {
    n: usize,
    threshold: usize,
    /// Per-replica verification values (equal to the shares — see module docs).
    verification: Vec<Fp>,
    /// Master verification value (the secret `s`).
    master: Fp,
}

/// The polynomial's values at `1..=n`: Horner's rule over four points per pass.
///
/// One evaluation is a chain of `coefficients.len()` dependent multiply-reduce steps;
/// walking the coefficients once per *group* of points gives the CPU four independent
/// chains to overlap. Each value is the same field element [`poly_eval`] returns.
fn shamir_shares(coefficients: &[Fp], n: usize) -> Vec<Fp> {
    let mut shares = Vec::with_capacity(n + 3);
    for first in (1..=n as u64).step_by(4) {
        let points: [Fp; 4] = std::array::from_fn(|lane| Fp::new(first + lane as u64));
        let mut values = [Fp::zero(); 4];
        for &coefficient in coefficients.iter().rev() {
            for (value, &x) in values.iter_mut().zip(&points) {
                *value = *value * x + coefficient;
            }
        }
        shares.extend_from_slice(&values);
    }
    // The last group may have reached past `n`; the surplus points are simply dropped.
    shares.truncate(n);
    debug_assert!((1..=n).all(|i| shares[i - 1] == poly_eval(coefficients, Fp::new(i as u64))));
    shares
}

impl ThresholdScheme {
    /// Runs the trusted-dealer setup for an `(threshold, n)` scheme.
    ///
    /// Returns the public scheme plus one key pair per replica (index `1..=n`).
    ///
    /// # Panics
    ///
    /// Panics if `threshold == 0`, `n == 0` or `threshold > n` — these are configuration
    /// errors that cannot arise from valid protocol parameters (`n = 3f+1`,
    /// `threshold = 2f+1`).
    pub fn trusted_setup<R: Rng + ?Sized>(
        threshold: usize,
        n: usize,
        rng: &mut R,
    ) -> (Self, Vec<ThresholdKeyPair>) {
        assert!(threshold > 0, "threshold must be positive");
        assert!(n > 0, "n must be positive");
        assert!(threshold <= n, "threshold cannot exceed n");

        // Random polynomial of degree threshold-1; the constant term is the secret.
        let coefficients: Vec<Fp> = (0..threshold)
            .map(|_| Fp::new(rng.gen_range(0..crate::field::MODULUS)))
            .collect();
        let master = coefficients[0];

        let verification = shamir_shares(&coefficients, n);
        let shares = verification
            .iter()
            .enumerate()
            .map(|(i, &secret_share)| ThresholdKeyPair {
                index: i + 1,
                secret_share,
            })
            .collect();

        (
            Self {
                n,
                threshold,
                verification,
                master,
            },
            shares,
        )
    }

    /// Number of participants `n`.
    pub fn participants(&self) -> usize {
        self.n
    }

    /// The combination threshold `t` (the paper uses `2f + 1`).
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Maps a message digest into the field. Zero is avoided so a signature can never be
    /// trivially valid for every key.
    fn message_point(message: &Digest) -> Fp {
        let v = Fp::new(message.to_u64());
        if v.is_zero() {
            Fp::one()
        } else {
            v
        }
    }

    /// The field point a message maps to (exposed for the provider's batched
    /// verification, which needs `h(m)` once per batch instead of once per share).
    pub(crate) fn message_point_of(message: &Digest) -> Fp {
        Self::message_point(message)
    }

    /// Replica `signer`'s public verification value (1-based index; must be in range).
    pub(crate) fn verification_value(&self, signer: usize) -> Fp {
        self.verification[signer - 1]
    }

    /// The combined signature the scheme is algebraically forced to produce on
    /// `message`: `s · h(m)`. Interpolating any valid quorum yields exactly this value,
    /// so the metered provider can return it without performing the Lagrange sum.
    pub(crate) fn master_signature(&self, message: &Digest) -> CombinedSignature {
        CombinedSignature {
            value: self.master * Self::message_point(message),
        }
    }

    /// The structural half of [`Self::combine`]: threshold count, signer range and
    /// duplicate checks over the first `threshold` shares, without verifying share
    /// values.
    pub(crate) fn check_combine_structure(
        &self,
        shares: &[SignatureShare],
    ) -> Result<(), ThresholdError> {
        if shares.len() < self.threshold {
            return Err(ThresholdError::NotEnoughShares {
                got: shares.len(),
                need: self.threshold,
            });
        }
        let mut seen = vec![false; self.n + 1];
        for share in &shares[..self.threshold] {
            if share.signer == 0 || share.signer > self.n {
                return Err(ThresholdError::SignerOutOfRange {
                    signer: share.signer,
                    n: self.n,
                });
            }
            if seen[share.signer] {
                return Err(ThresholdError::DuplicateSigner(share.signer));
            }
            seen[share.signer] = true;
        }
        Ok(())
    }

    /// `TSR` over shares the caller has already verified: performs the structural
    /// checks and the Lagrange combination, but not the per-share verification that
    /// [`Self::combine`] adds. Votes are verified when they arrive (individually or
    /// in a batch), so the combine does not verify them again.
    ///
    /// # Errors
    ///
    /// The structural [`ThresholdError`]s only ([`ThresholdError::InvalidShare`] cannot
    /// be returned — validity is the caller's contract).
    pub fn combine_preverified(
        &self,
        shares: &[SignatureShare],
        _message: &Digest,
    ) -> Result<CombinedSignature, ThresholdError> {
        self.check_combine_structure(shares)?;
        let selected = &shares[..self.threshold];
        let xs: Vec<Fp> = selected.iter().map(|s| Fp::new(s.signer as u64)).collect();
        let lambdas = lagrange_coefficients(&xs, Fp::zero())
            .expect("signer indices are distinct, interpolation cannot fail");
        let mut value = Fp::zero();
        for (lambda, share) in lambdas.iter().zip(selected) {
            value = value + *lambda * share.value;
        }
        Ok(CombinedSignature { value })
    }

    /// `TSig`: produces replica `keypair.index`'s signature share on `message`.
    pub fn sign_share(&self, keypair: &ThresholdKeyPair, message: &Digest) -> SignatureShare {
        SignatureShare {
            signer: keypair.index,
            value: keypair.secret_share * Self::message_point(message),
        }
    }

    /// `TVrf` on shares: checks that `share` is a valid signature share on `message`.
    pub fn verify_share(&self, share: &SignatureShare, message: &Digest) -> bool {
        if share.signer == 0 || share.signer > self.n {
            return false;
        }
        let expected = self.verification[share.signer - 1] * Self::message_point(message);
        expected == share.value
    }

    /// `TSR`: combines at least [`Self::threshold`] distinct valid shares into a
    /// combined signature.
    ///
    /// # Errors
    ///
    /// Returns an error if there are fewer than `threshold` shares, a duplicate or
    /// out-of-range signer, or a share that fails verification.
    pub fn combine(
        &self,
        shares: &[SignatureShare],
        message: &Digest,
    ) -> Result<CombinedSignature, ThresholdError> {
        self.check_combine_structure(shares)?;
        let selected = &shares[..self.threshold];
        for share in selected {
            if !self.verify_share(share, message) {
                return Err(ThresholdError::InvalidShare(share.signer));
            }
        }
        self.combine_preverified(shares, message)
    }

    /// `TVrf` on combined signatures: checks a combined signature on `message` against
    /// the master verification value.
    pub fn verify_combined(&self, signature: &CombinedSignature, message: &Digest) -> bool {
        signature.value == self.master * Self::message_point(message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::hash_bytes;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(threshold: usize, n: usize) -> (ThresholdScheme, Vec<ThresholdKeyPair>) {
        let mut rng = StdRng::seed_from_u64(42);
        ThresholdScheme::trusted_setup(threshold, n, &mut rng)
    }

    /// The four-points-per-pass evaluation yields, bit for bit, the shares of one
    /// `poly_eval` per point — for every remainder of `n` modulo the group size, in
    /// release builds too (where the `debug_assert!` inside is compiled out).
    #[test]
    fn grouped_evaluation_yields_the_shares_of_poly_eval() {
        let mut rng = StdRng::seed_from_u64(9);
        for n in [1usize, 2, 3, 4, 5, 7, 32, 400] {
            let threshold = 2 * ((n - 1) / 3) + 1;
            let coefficients: Vec<Fp> = (0..threshold)
                .map(|_| Fp::new(rng.gen_range(0..crate::field::MODULUS)))
                .collect();
            let shares = shamir_shares(&coefficients, n);
            assert_eq!(shares.len(), n);
            for (i, share) in shares.iter().enumerate() {
                assert_eq!(
                    *share,
                    poly_eval(&coefficients, Fp::new(i as u64 + 1)),
                    "n={n} i={i}"
                );
            }
        }
    }

    #[test]
    fn quorum_combines_and_verifies() {
        let (scheme, keys) = setup(3, 4);
        let msg = hash_bytes(b"BFTblock #1");
        let shares: Vec<_> = keys.iter().map(|k| scheme.sign_share(k, &msg)).collect();
        for share in &shares {
            assert!(scheme.verify_share(share, &msg));
        }
        let combined = scheme.combine(&shares[..3], &msg).unwrap();
        assert!(scheme.verify_combined(&combined, &msg));
        // Any quorum yields the same signature.
        let other = scheme.combine(&shares[1..4], &msg).unwrap();
        assert_eq!(combined, other);
    }

    #[test]
    fn sub_threshold_fails() {
        let (scheme, keys) = setup(3, 4);
        let msg = hash_bytes(b"msg");
        let shares: Vec<_> = keys.iter().map(|k| scheme.sign_share(k, &msg)).collect();
        assert_eq!(
            scheme.combine(&shares[..2], &msg),
            Err(ThresholdError::NotEnoughShares { got: 2, need: 3 })
        );
    }

    #[test]
    fn duplicate_signer_is_rejected() {
        let (scheme, keys) = setup(3, 4);
        let msg = hash_bytes(b"msg");
        let s0 = scheme.sign_share(&keys[0], &msg);
        let s1 = scheme.sign_share(&keys[1], &msg);
        assert_eq!(
            scheme.combine(&[s0, s1, s0], &msg),
            Err(ThresholdError::DuplicateSigner(1))
        );
    }

    #[test]
    fn tampered_share_is_rejected() {
        let (scheme, keys) = setup(3, 4);
        let msg = hash_bytes(b"msg");
        let mut shares: Vec<_> = keys.iter().map(|k| scheme.sign_share(k, &msg)).collect();
        shares[1].value = shares[1].value + Fp::one();
        assert!(!scheme.verify_share(&shares[1], &msg));
        assert_eq!(
            scheme.combine(&shares[..3], &msg),
            Err(ThresholdError::InvalidShare(2))
        );
    }

    #[test]
    fn signature_does_not_verify_for_other_message() {
        let (scheme, keys) = setup(3, 4);
        let msg = hash_bytes(b"msg");
        let other = hash_bytes(b"other");
        let shares: Vec<_> = keys.iter().map(|k| scheme.sign_share(k, &msg)).collect();
        let combined = scheme.combine(&shares[..3], &msg).unwrap();
        assert!(!scheme.verify_combined(&combined, &other));
        assert!(!scheme.verify_share(&shares[0], &other));
    }

    #[test]
    fn out_of_range_signer_is_rejected() {
        let (scheme, keys) = setup(3, 4);
        let msg = hash_bytes(b"msg");
        let mut share = scheme.sign_share(&keys[0], &msg);
        share.signer = 9;
        assert!(!scheme.verify_share(&share, &msg));
        let good: Vec<_> = keys.iter().map(|k| scheme.sign_share(k, &msg)).collect();
        let result = scheme.combine(&[share, good[1], good[2]], &msg);
        assert_eq!(
            result,
            Err(ThresholdError::SignerOutOfRange { signer: 9, n: 4 })
        );
    }

    #[test]
    fn wire_sizes_match_paper_kappa() {
        let (scheme, keys) = setup(3, 4);
        let msg = hash_bytes(b"msg");
        let share = scheme.sign_share(&keys[0], &msg);
        assert_eq!(share.wire_size(), 48);
        let shares: Vec<_> = keys.iter().map(|k| scheme.sign_share(k, &msg)).collect();
        let combined = scheme.combine(&shares[..3], &msg).unwrap();
        assert_eq!(combined.wire_size(), 48);
    }

    #[test]
    fn larger_committee_2f_plus_1_of_3f_plus_1() {
        for f in 1..6usize {
            let n = 3 * f + 1;
            let t = 2 * f + 1;
            let (scheme, keys) = setup(t, n);
            let msg = hash_bytes(format!("view change f={f}").as_bytes());
            let shares: Vec<_> = keys.iter().map(|k| scheme.sign_share(k, &msg)).collect();
            let combined = scheme.combine(&shares[f..f + t], &msg).unwrap();
            assert!(scheme.verify_combined(&combined, &msg));
        }
    }

    #[test]
    #[should_panic(expected = "threshold cannot exceed n")]
    fn setup_rejects_threshold_above_n() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = ThresholdScheme::trusted_setup(5, 4, &mut rng);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn any_quorum_of_any_scheme_combines(
                f in 1usize..5,
                seed in any::<u64>(),
                msg_bytes in proptest::collection::vec(any::<u8>(), 1..64),
                quorum_seed in any::<u64>(),
            ) {
                let n = 3 * f + 1;
                let t = 2 * f + 1;
                let mut rng = StdRng::seed_from_u64(seed);
                let (scheme, keys) = ThresholdScheme::trusted_setup(t, n, &mut rng);
                let msg = hash_bytes(&msg_bytes);

                // Pick a pseudo-random quorum of exactly t distinct signers.
                let mut order: Vec<usize> = (0..n).collect();
                let mut qrng = StdRng::seed_from_u64(quorum_seed);
                for i in (1..order.len()).rev() {
                    let j = rand::Rng::gen_range(&mut qrng, 0..=i);
                    order.swap(i, j);
                }
                let shares: Vec<_> = order[..t]
                    .iter()
                    .map(|&i| scheme.sign_share(&keys[i], &msg))
                    .collect();
                let combined = scheme.combine(&shares, &msg).unwrap();
                prop_assert!(scheme.verify_combined(&combined, &msg));
            }

            /// The combined signature depends on the quorum, not on the order its
            /// shares arrived in: any two permutations of one quorum combine to the
            /// same value.
            #[test]
            fn permutations_of_one_quorum_combine_to_the_same_signature(
                f in 1usize..5,
                seed in any::<u64>(),
                quorum_seed in any::<u64>(),
                order_seed in any::<u64>(),
                msg_bytes in proptest::collection::vec(any::<u8>(), 1..64),
            ) {
                let n = 3 * f + 1;
                let t = 2 * f + 1;
                let mut rng = StdRng::seed_from_u64(seed);
                let (scheme, keys) = ThresholdScheme::trusted_setup(t, n, &mut rng);
                let msg = hash_bytes(&msg_bytes);

                let shuffle = |items: &mut [usize], seed: u64| {
                    let mut rng = StdRng::seed_from_u64(seed);
                    for i in (1..items.len()).rev() {
                        let j = rand::Rng::gen_range(&mut rng, 0..=i);
                        items.swap(i, j);
                    }
                };
                let mut order: Vec<usize> = (0..n).collect();
                shuffle(&mut order, quorum_seed);
                let mut quorum = order[..t].to_vec();
                let shares_in = |quorum: &[usize]| -> Vec<SignatureShare> {
                    quorum.iter().map(|&i| scheme.sign_share(&keys[i], &msg)).collect()
                };
                let first = scheme.combine(&shares_in(&quorum), &msg).unwrap();
                shuffle(&mut quorum, order_seed);
                let second = scheme.combine(&shares_in(&quorum), &msg).unwrap();
                quorum.reverse();
                let third = scheme.combine_preverified(&shares_in(&quorum), &msg).unwrap();
                prop_assert_eq!(first, second);
                prop_assert_eq!(second, third);
                prop_assert!(scheme.verify_combined(&first, &msg));
            }
        }
    }
}
