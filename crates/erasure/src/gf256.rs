//! Arithmetic in GF(2^8) with the irreducible polynomial `x^8 + x^4 + x^3 + x + 1`
//! (0x11B, the AES polynomial), generator 0x03.
//!
//! Multiplication and inversion go through log/antilog tables that are computed once at
//! first use; addition is XOR.

use std::sync::OnceLock;

/// The reduction polynomial without the leading x^8 term.
const POLY: u16 = 0x11B;
/// Generator element used to build the log/antilog tables.
const GENERATOR: u8 = 0x03;

struct Tables {
    log: [u8; 256],
    exp: [u8; 512],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut log = [0u8; 256];
        let mut exp = [0u8; 512];
        // Tables are built once; the bit-by-bit multiply keeps this obviously correct.
        let mut x: u8 = 1;
        for i in 0..255usize {
            exp[i] = x;
            log[x as usize] = i as u8;
            x = mul_slow(x, GENERATOR);
        }
        // Duplicate the exp table so `exp[a + b]` never needs a modulo.
        for i in 255..512usize {
            exp[i] = exp[i - 255];
        }
        Tables { log, exp }
    })
}

/// Bit-by-bit ("Russian peasant") multiplication used to build the tables and as a
/// cross-check in tests.
pub fn mul_slow(mut a: u8, mut b: u8) -> u8 {
    let mut acc: u8 = 0;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        let carry = a & 0x80 != 0;
        a <<= 1;
        if carry {
            a ^= (POLY & 0xFF) as u8;
        }
        b >>= 1;
    }
    acc
}

/// Addition in GF(2^8) (XOR).
#[inline]
pub fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Multiplication in GF(2^8).
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let t = tables();
    let log_a = t.log[a as usize] as usize;
    let log_b = t.log[b as usize] as usize;
    t.exp[log_a + log_b]
}

/// Multiplicative inverse; `None` for zero.
#[inline]
pub fn inverse(a: u8) -> Option<u8> {
    if a == 0 {
        return None;
    }
    let t = tables();
    let log_a = t.log[a as usize] as usize;
    Some(t.exp[255 - log_a])
}

/// Exponentiation `base^power` where the exponent is an ordinary integer.
pub fn pow(base: u8, power: usize) -> u8 {
    if power == 0 {
        return 1;
    }
    if base == 0 {
        return 0;
    }
    let t = tables();
    let log_base = t.log[base as usize] as usize;
    let log_result = (log_base * power) % 255;
    t.exp[log_result]
}

/// The full 256 × 256 multiplication table: `MUL_TABLE[a][b] == mul(a, b)`.
///
/// 64 KiB, built once at first use. The bulk kernels below fetch one 256-entry row per
/// *multiplier* and then run a branch-free single-lookup inner loop — no log/exp pair,
/// no zero test, and no `OnceLock` dereference per byte.
fn mul_table() -> &'static [[u8; 256]; 256] {
    static MUL_TABLE: OnceLock<Box<[[u8; 256]; 256]>> = OnceLock::new();
    MUL_TABLE.get_or_init(|| {
        let t = tables();
        let mut full = vec![[0u8; 256]; 256].into_boxed_slice();
        for a in 1..256usize {
            let log_a = t.log[a] as usize;
            let row = &mut full[a];
            for b in 1..256usize {
                row[b] = t.exp[log_a + t.log[b] as usize];
            }
        }
        full.try_into().expect("built exactly 256 rows")
    })
}

/// The 256-entry row table of a single multiplier: `mul_table_row(c)[s] == mul(c, s)`.
///
/// Useful for callers that apply the same coefficient to many independent slices (e.g.
/// a Reed–Solomon encoding-matrix cell applied shard by shard).
pub fn mul_table_row(c: u8) -> &'static [u8; 256] {
    &mul_table()[c as usize]
}

/// Multiplies every byte of `dst` by `c` in place (`dst[i] = c * dst[i]`).
pub fn mul_slice(dst: &mut [u8], c: u8) {
    if c == 1 {
        return;
    }
    if c == 0 {
        dst.fill(0);
        return;
    }
    let row = mul_table_row(c);
    for d in dst.iter_mut() {
        *d = row[*d as usize];
    }
}

/// Multiplies every byte of `src` by `c` and XORs the result into `dst`
/// (`dst[i] ^= c * src[i]`). This is the inner loop of Reed–Solomon encoding/decoding.
///
/// On x86-64 with AVX2 detected, whole 32-byte blocks go through the split-nibble
/// `vpshufb` kernel of the private `x86` module; the tail, slices shorter than one
/// vector (the 11–43-byte matrix rows) and every other CPU take the table-row loop.
/// Both compute the same products, so a shard never depends on the machine.
///
/// # Panics
///
/// Panics if the slices differ in length (in release builds too: a silently truncated
/// `zip` would turn a caller bug into a wrong parity shard).
pub fn mul_add_slice(dst: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(
        dst.len(),
        src.len(),
        "mul_add_slice: slices differ in length"
    );
    if c == 0 {
        return;
    }
    if c == 1 {
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= *s;
        }
        return;
    }
    let row = mul_table_row(c);
    #[cfg(target_arch = "x86_64")]
    let done = x86::mul_add_blocks(dst, src, row);
    #[cfg(not(target_arch = "x86_64"))]
    let done = 0;
    for (d, s) in dst[done..].iter_mut().zip(&src[done..]) {
        *d ^= row[*s as usize];
    }
}

/// The AVX2 path. The only module of this crate allowed to use `unsafe`: one call into
/// a `#[target_feature]` function behind run-time detection, and the unaligned loads
/// and stores of the 32-byte blocks.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use std::arch::x86_64::*;

    /// Bytes per AVX2 vector.
    const BLOCK: usize = 32;

    /// Applies `dst[i] ^= row[src[i]]` to the leading whole 32-byte blocks and returns
    /// how many bytes that covered: the caller finishes the tail. Returns 0, untouched,
    /// for slices shorter than one block or on a CPU without AVX2.
    pub(super) fn mul_add_blocks(dst: &mut [u8], src: &[u8], row: &[u8; 256]) -> usize {
        if dst.len() < BLOCK || !is_x86_feature_detected!("avx2") {
            return 0;
        }
        // SAFETY: `avx2`, the one feature `mul_add_avx2` enables, was detected on this
        // CPU by the `is_x86_feature_detected!` check just above.
        unsafe { mul_add_avx2(dst, src, row) };
        dst.len() - dst.len() % BLOCK
    }

    /// Multiplication by a constant is linear over XOR, so `c·s = c·(s & 0x0f) ^
    /// c·(s & 0xf0)`: two 16-entry tables read from the multiplier's row, each applied
    /// to 32 bytes at once by `vpshufb`.
    #[target_feature(enable = "avx2")]
    fn mul_add_avx2(dst: &mut [u8], src: &[u8], row: &[u8; 256]) {
        // The low-nibble table `c·i` is the row's first 16 entries as they lie; the
        // high-nibble table `c·(i << 4)` is every 16th entry.
        let low = &row[..16];
        let high: [u8; 16] = std::array::from_fn(|i| row[i << 4]);
        // SAFETY: `low` is a 16-byte subslice and `high` a `[u8; 16]`, each exactly the
        // 16 bytes its load reads; `_mm_loadu_si128` has no alignment requirement.
        let (low, high) = unsafe {
            (
                _mm256_broadcastsi128_si256(_mm_loadu_si128(low.as_ptr().cast())),
                _mm256_broadcastsi128_si256(_mm_loadu_si128(high.as_ptr().cast())),
            )
        };
        let nibble = _mm256_set1_epi8(0x0f);
        for (d, s) in dst.chunks_exact_mut(BLOCK).zip(src.chunks_exact(BLOCK)) {
            // SAFETY: `d` and `s` come from `chunks_exact(_mut)(32)`, so each is exactly
            // the 32 bytes read (and, for `d`, written); the unaligned load / store
            // intrinsics have no alignment requirement. The caller's `assert_eq!` on
            // the lengths makes both slices yield the same number of blocks.
            unsafe {
                let source = _mm256_loadu_si256(s.as_ptr().cast());
                let product = _mm256_xor_si256(
                    _mm256_shuffle_epi8(low, _mm256_and_si256(source, nibble)),
                    _mm256_shuffle_epi8(
                        high,
                        _mm256_and_si256(_mm256_srli_epi64(source, 4), nibble),
                    ),
                );
                let sum = _mm256_xor_si256(_mm256_loadu_si256(d.as_ptr().cast()), product);
                _mm256_storeu_si256(d.as_mut_ptr().cast(), sum);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn table_mul_matches_slow_mul_exhaustively() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(mul(a, b), mul_slow(a, b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn known_aes_products() {
        // Classic AES MixColumns constants.
        assert_eq!(mul(0x57, 0x83), 0xc1);
        assert_eq!(mul(0x57, 0x13), 0xfe);
        assert_eq!(mul(2, 0x80), 0x1b);
    }

    #[test]
    fn every_nonzero_element_has_an_inverse() {
        for a in 1..=255u8 {
            let inv = inverse(a).unwrap();
            assert_eq!(mul(a, inv), 1, "a={a}");
        }
        assert!(inverse(0).is_none());
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        for base in [0u8, 1, 2, 3, 0x53, 0xFF] {
            let mut acc = 1u8;
            for e in 0..20usize {
                assert_eq!(pow(base, e), if base == 0 && e > 0 { 0 } else { acc });
                acc = mul(acc, base);
            }
        }
    }

    #[test]
    fn mul_table_row_matches_mul_exhaustively() {
        for c in 0..=255u8 {
            let row = mul_table_row(c);
            for s in 0..=255u8 {
                assert_eq!(row[s as usize], mul_slow(c, s), "c={c} s={s}");
            }
        }
    }

    /// Every multiplier at every length that reaches a different branch — below one
    /// vector, exactly one, one plus a tail, several, and the retrieval plane's
    /// 3,093-byte shard — against the bit-by-bit oracle, with `dst` pre-filled so the
    /// XOR-accumulate is checked and not only the product.
    #[test]
    fn mul_add_slice_matches_scalar_loop() {
        #[cfg(target_arch = "x86_64")]
        let vectorised = is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let vectorised = false;
        if !vectorised {
            println!("skipped: avx2 not detected (the table-row loop ran alone)");
        }
        for len in [0usize, 1, 31, 32, 33, 63, 64, 65, 1000, 3093] {
            let src: Vec<u8> = (0..len).map(|i| (i * 7 + i / 256) as u8).collect();
            let fill: Vec<u8> = (0..len).map(|i| (i * 13 + 5) as u8).collect();
            for c in 0..=255u8 {
                let mut dst = fill.clone();
                mul_add_slice(&mut dst, &src, c);
                for i in 0..len {
                    assert_eq!(
                        dst[i],
                        fill[i] ^ mul_slow(c, src[i]),
                        "c={c} len={len} i={i}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "slices differ in length")]
    fn mul_add_slice_rejects_unequal_lengths() {
        mul_add_slice(&mut [0u8; 64], &[0u8; 63], 2);
    }

    proptest! {
        #[test]
        fn field_axioms(a in any::<u8>(), b in any::<u8>(), c in any::<u8>()) {
            prop_assert_eq!(mul(a, b), mul(b, a));
            prop_assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
            prop_assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
            prop_assert_eq!(mul(a, 1), a);
            prop_assert_eq!(add(a, a), 0);
        }

        #[test]
        fn division_inverts_multiplication(a in any::<u8>(), b in 1u8..=255) {
            prop_assert_eq!(mul(mul(a, b), inverse(b).unwrap()), a);
        }

        /// The bulk kernels agree with the scalar `mul`/`mul_slow` reference byte by
        /// byte on random slices and random coefficients.
        #[test]
        fn bulk_kernels_match_scalar_reference(
            src in proptest::collection::vec(any::<u8>(), 0..512),
            dst_seed in proptest::collection::vec(any::<u8>(), 0..512),
            c in any::<u8>(),
        ) {
            let len = src.len().min(dst_seed.len());
            let src = &src[..len];

            // mul_add_slice: dst[i] ^= c * src[i].
            let mut dst = dst_seed[..len].to_vec();
            let expected: Vec<u8> = dst
                .iter()
                .zip(src)
                .map(|(&d, &s)| d ^ mul_slow(c, s))
                .collect();
            mul_add_slice(&mut dst, src, c);
            prop_assert_eq!(&dst, &expected);

            // mul_slice: dst[i] = c * dst[i].
            let mut in_place = src.to_vec();
            let expected_mul: Vec<u8> = src.iter().map(|&s| mul(c, s)).collect();
            mul_slice(&mut in_place, c);
            prop_assert_eq!(in_place, expected_mul);
        }
    }
}
