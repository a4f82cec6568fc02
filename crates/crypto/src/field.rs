//! Arithmetic in the prime field GF(p) with p = 2^61 − 1 (a Mersenne prime).
//!
//! The threshold signature scheme in [`crate::threshold`] performs Shamir secret
//! sharing and Lagrange interpolation over this field. A 61-bit Mersenne prime keeps
//! multiplication within `u128` intermediates and makes reduction a couple of shifts,
//! which is plenty for the simulator workloads while remaining an honest finite-field
//! implementation (with inversion via Fermat's little theorem and full test coverage of
//! the field axioms).

/// The field modulus, `2^61 − 1`.
pub const MODULUS: u64 = (1u64 << 61) - 1;

/// An element of GF(2^61 − 1), kept in canonical reduced form `0 <= value < MODULUS`.
///
/// ```
/// use leopard_crypto::field::Fp;
///
/// let a = Fp::new(7);
/// let b = Fp::new(11);
/// assert_eq!((a + b).value(), 18);
/// assert_eq!((a * b).value(), 77);
/// assert_eq!((a - b) + b, a);
/// assert_eq!(a * a.inverse().unwrap(), Fp::one());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Fp(u64);

impl Fp {
    /// Creates a field element, reducing the input modulo p.
    pub fn new(value: u64) -> Self {
        Fp(reduce_u64(value))
    }

    /// The additive identity.
    pub fn zero() -> Self {
        Fp(0)
    }

    /// The multiplicative identity.
    pub fn one() -> Self {
        Fp(1)
    }

    /// Returns the canonical representative in `[0, p)`.
    pub fn value(&self) -> u64 {
        self.0
    }

    /// Returns true if this is the additive identity.
    pub fn is_zero(&self) -> bool {
        self.0 == 0
    }

    /// Raises the element to the power `exp` by square-and-multiply.
    pub fn pow(&self, mut exp: u64) -> Self {
        let mut base = *self;
        let mut acc = Fp::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = acc * base;
            }
            base = base * base;
            exp >>= 1;
        }
        acc
    }

    /// The multiplicative inverse, or `None` for zero.
    ///
    /// Uses Fermat's little theorem: `a^(p-2) = a^(-1) (mod p)`.
    pub fn inverse(&self) -> Option<Self> {
        if self.is_zero() {
            None
        } else {
            Some(self.pow(MODULUS - 2))
        }
    }
}

impl From<u64> for Fp {
    fn from(value: u64) -> Self {
        Fp::new(value)
    }
}

/// Reduces an arbitrary `u64` modulo `2^61 − 1`.
fn reduce_u64(x: u64) -> u64 {
    // x = hi * 2^61 + lo  =>  x ≡ hi + lo (mod 2^61 − 1)
    let mut r = (x >> 61) + (x & MODULUS);
    if r >= MODULUS {
        r -= MODULUS;
    }
    r
}

/// Reduces a `u128` product modulo `2^61 − 1`.
fn reduce_u128(x: u128) -> u64 {
    // Split into 61-bit limbs: x = a * 2^122 + b * 2^61 + c ≡ a + b + c (mod p).
    let c = (x & (MODULUS as u128)) as u64;
    let b = ((x >> 61) & (MODULUS as u128)) as u64;
    let a = (x >> 122) as u64;
    let mut r = a as u128 + b as u128 + c as u128;
    // r < 3 * 2^61, two conditional subtractions suffice.
    if r >= MODULUS as u128 {
        r -= MODULUS as u128;
    }
    if r >= MODULUS as u128 {
        r -= MODULUS as u128;
    }
    r as u64
}

impl std::ops::Add for Fp {
    type Output = Fp;
    fn add(self, rhs: Fp) -> Fp {
        let mut sum = self.0 + rhs.0;
        if sum >= MODULUS {
            sum -= MODULUS;
        }
        Fp(sum)
    }
}

impl std::ops::Sub for Fp {
    type Output = Fp;
    fn sub(self, rhs: Fp) -> Fp {
        if self.0 >= rhs.0 {
            Fp(self.0 - rhs.0)
        } else {
            Fp(self.0 + MODULUS - rhs.0)
        }
    }
}

impl std::ops::Mul for Fp {
    type Output = Fp;
    fn mul(self, rhs: Fp) -> Fp {
        Fp(reduce_u128(self.0 as u128 * rhs.0 as u128))
    }
}

impl std::ops::AddAssign for Fp {
    fn add_assign(&mut self, rhs: Fp) {
        *self = *self + rhs;
    }
}

impl std::ops::SubAssign for Fp {
    fn sub_assign(&mut self, rhs: Fp) {
        *self = *self - rhs;
    }
}

impl std::ops::MulAssign for Fp {
    fn mul_assign(&mut self, rhs: Fp) {
        *self = *self * rhs;
    }
}

impl std::fmt::Display for Fp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Evaluates the polynomial with the given coefficients (constant term first) at `x`,
/// using Horner's rule.
pub fn poly_eval(coefficients: &[Fp], x: Fp) -> Fp {
    let mut acc = Fp::zero();
    for &coeff in coefficients.iter().rev() {
        acc = acc * x + coeff;
    }
    acc
}

/// Computes the Lagrange coefficient `λ_j(at)` for interpolation point `x_j` among the
/// evaluation points `xs`, i.e. `Π_{m != j} (at - x_m) / (x_j - x_m)`.
///
/// Returns `None` if two evaluation points coincide (division by zero).
pub fn lagrange_coefficient(xs: &[Fp], j: usize, at: Fp) -> Option<Fp> {
    let xj = xs[j];
    let mut numerator = Fp::one();
    let mut denominator = Fp::one();
    for (m, &xm) in xs.iter().enumerate() {
        if m == j {
            continue;
        }
        numerator = numerator * (at - xm);
        denominator = denominator * (xj - xm);
    }
    denominator.inverse().map(|inv| numerator * inv)
}

/// Computes all Lagrange coefficients `λ_j(at)` for the evaluation points `xs` at once.
///
/// Equivalent to calling [`lagrange_coefficient`] for every `j`, but shares the
/// numerator products through prefix/suffix arrays and inverts all denominators with a
/// single field inversion (Montgomery's batch-inversion trick), so the whole vector
/// costs one `pow` instead of `xs.len()` of them.
///
/// Returns `None` if two evaluation points coincide (division by zero).
pub fn lagrange_coefficients(xs: &[Fp], at: Fp) -> Option<Vec<Fp>> {
    let t = xs.len();
    if t == 0 {
        return Some(Vec::new());
    }
    // numerator_j = Π_{m != j} (at - x_m) = prefix[j] * suffix[j].
    let mut prefix = vec![Fp::one(); t];
    for j in 1..t {
        prefix[j] = prefix[j - 1] * (at - xs[j - 1]);
    }
    let mut suffix = vec![Fp::one(); t];
    for j in (0..t - 1).rev() {
        suffix[j] = suffix[j + 1] * (at - xs[j + 1]);
    }
    // denominator_j = Π_{m != j} (x_j - x_m).
    let mut denominators = Vec::with_capacity(t);
    for (j, &xj) in xs.iter().enumerate() {
        let mut denominator = Fp::one();
        for (m, &xm) in xs.iter().enumerate() {
            if m != j {
                denominator = denominator * (xj - xm);
            }
        }
        if denominator.is_zero() {
            return None;
        }
        denominators.push(denominator);
    }
    // Batch inversion: running[j] = d_0 * ... * d_{j-1}; invert the full product once,
    // then peel the individual inverses off the back.
    let mut running = Vec::with_capacity(t);
    let mut acc = Fp::one();
    for &d in &denominators {
        running.push(acc);
        acc = acc * d;
    }
    let mut inv_acc = acc.inverse()?;
    let mut inverses = vec![Fp::zero(); t];
    for j in (0..t).rev() {
        inverses[j] = inv_acc * running[j];
        inv_acc = inv_acc * denominators[j];
    }
    Some(
        (0..t)
            .map(|j| prefix[j] * suffix[j] * inverses[j])
            .collect(),
    )
}

/// Interpolates the polynomial defined by points `(xs[i], ys[i])` and evaluates it at
/// `at`.
///
/// Returns `None` if the evaluation points are not pairwise distinct.
pub fn lagrange_interpolate(xs: &[Fp], ys: &[Fp], at: Fp) -> Option<Fp> {
    debug_assert_eq!(xs.len(), ys.len());
    let lambdas = lagrange_coefficients(xs, at)?;
    let mut acc = Fp::zero();
    for (lambda, &y) in lambdas.into_iter().zip(ys) {
        acc = acc + lambda * y;
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn reduction_of_modulus_is_zero() {
        assert_eq!(Fp::new(MODULUS), Fp::zero());
        assert_eq!(Fp::new(MODULUS + 5), Fp::new(5));
        assert_eq!(Fp::new(u64::MAX).value() < MODULUS, true);
    }

    #[test]
    fn additive_and_multiplicative_identities() {
        let a = Fp::new(123456789);
        assert_eq!(a + Fp::zero(), a);
        assert_eq!(a * Fp::one(), a);
        assert_eq!(a * Fp::zero(), Fp::zero());
        assert_eq!(a - a, Fp::zero());
    }

    #[test]
    fn inverse_of_zero_is_none() {
        assert!(Fp::zero().inverse().is_none());
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        let a = Fp::new(3);
        let mut expected = Fp::one();
        for e in 0..20u64 {
            assert_eq!(a.pow(e), expected);
            expected = expected * a;
        }
    }

    #[test]
    fn poly_eval_constant_and_linear() {
        assert_eq!(poly_eval(&[Fp::new(42)], Fp::new(1000)), Fp::new(42));
        // 5 + 3x at x=7 = 26
        assert_eq!(poly_eval(&[Fp::new(5), Fp::new(3)], Fp::new(7)), Fp::new(26));
        assert_eq!(poly_eval(&[], Fp::new(7)), Fp::zero());
    }

    #[test]
    fn lagrange_recovers_secret() {
        // Polynomial of degree 2 with secret 99 at x=0.
        let coeffs = [Fp::new(99), Fp::new(17), Fp::new(23)];
        let xs: Vec<Fp> = [1u64, 2, 3].iter().map(|&x| Fp::new(x)).collect();
        let ys: Vec<Fp> = xs.iter().map(|&x| poly_eval(&coeffs, x)).collect();
        assert_eq!(
            lagrange_interpolate(&xs, &ys, Fp::zero()),
            Some(Fp::new(99))
        );
    }

    #[test]
    fn lagrange_with_duplicate_points_is_none() {
        let xs = [Fp::new(1), Fp::new(1)];
        let ys = [Fp::new(2), Fp::new(3)];
        assert_eq!(lagrange_interpolate(&xs, &ys, Fp::zero()), None);
        assert_eq!(lagrange_coefficients(&xs, Fp::zero()), None);
    }

    #[test]
    fn batch_coefficients_match_single_coefficients() {
        let xs: Vec<Fp> = [2u64, 5, 9, 11, 40].iter().map(|&x| Fp::new(x)).collect();
        for at in [Fp::zero(), Fp::new(7), Fp::new(1_000_003)] {
            let batch = lagrange_coefficients(&xs, at).unwrap();
            for j in 0..xs.len() {
                assert_eq!(batch[j], lagrange_coefficient(&xs, j, at).unwrap());
            }
        }
        assert_eq!(lagrange_coefficients(&[], Fp::zero()), Some(Vec::new()));
    }

    fn arb_fp() -> impl Strategy<Value = Fp> {
        (0u64..MODULUS).prop_map(Fp::new)
    }

    proptest! {
        #[test]
        fn addition_commutes(a in arb_fp(), b in arb_fp()) {
            prop_assert_eq!(a + b, b + a);
        }

        #[test]
        fn multiplication_commutes_and_associates(a in arb_fp(), b in arb_fp(), c in arb_fp()) {
            prop_assert_eq!(a * b, b * a);
            prop_assert_eq!((a * b) * c, a * (b * c));
        }

        #[test]
        fn distributivity(a in arb_fp(), b in arb_fp(), c in arb_fp()) {
            prop_assert_eq!(a * (b + c), a * b + a * c);
        }

        #[test]
        fn subtraction_inverts_addition(a in arb_fp(), b in arb_fp()) {
            prop_assert_eq!((a + b) - b, a);
        }

        #[test]
        fn nonzero_elements_have_inverses(a in (1u64..MODULUS).prop_map(Fp::new)) {
            let inv = a.inverse().unwrap();
            prop_assert_eq!(a * inv, Fp::one());
        }

        #[test]
        fn interpolation_recovers_random_polynomials(
            coeffs in proptest::collection::vec(0u64..MODULUS, 1..6),
            at in 0u64..MODULUS,
        ) {
            let coeffs: Vec<Fp> = coeffs.into_iter().map(Fp::new).collect();
            let degree = coeffs.len() - 1;
            let xs: Vec<Fp> = (1..=degree as u64 + 1).map(Fp::new).collect();
            let ys: Vec<Fp> = xs.iter().map(|&x| poly_eval(&coeffs, x)).collect();
            let expected = poly_eval(&coeffs, Fp::new(at));
            prop_assert_eq!(lagrange_interpolate(&xs, &ys, Fp::new(at)), Some(expected));
        }
    }
}
