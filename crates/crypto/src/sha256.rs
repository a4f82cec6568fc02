//! A from-scratch SHA-256 (FIPS 180-4): streaming hasher over one block-compression
//! entry point.
//!
//! SHA-256 is on every workload's host path — each datablock digest, and with real
//! crypto every Merkle leaf of every erasure-coded response — so [`Sha256::update`]
//! hands all whole 64-byte blocks of its input, borrowed, to `compress_blocks`, which
//! picks the implementation at run time from the CPU's feature bits:
//!
//! * on x86-64 with `sha`, `ssse3` and `sse4.1` detected, the SHA extensions
//!   (`sha256rnds2` / `sha256msg1` / `sha256msg2`) in the private `x86` module — the one
//!   place in this crate where `unsafe` is allowed;
//! * everywhere else `compress_scalar`, the portable rounds. They are the reference the
//!   accelerated path is tested against, so they stay compiled and tested on every
//!   target.
//!
//! Both compute the same function, so a digest never depends on the machine. The unit
//! tests below check the FIPS vectors through each path explicitly and the two paths
//! against each other at every length, split and alignment that reaches a different
//! branch.

/// Initial hash values: the first 32 bits of the fractional parts of the square roots of
/// the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
    0x5be0cd19,
];

/// Round constants: the first 32 bits of the fractional parts of the cube roots of the
/// first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2,
];

/// Incremental SHA-256 hasher.
///
/// ```
/// use leopard_crypto::sha256::Sha256;
///
/// let mut hasher = Sha256::new();
/// hasher.update(b"abc");
/// let digest = hasher.finalize();
/// assert_eq!(
///     hex(&digest),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
///
/// fn hex(bytes: &[u8]) -> String {
///     bytes.iter().map(|b| format!("{b:02x}")).collect()
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered until a full 64-byte block is available.
    buffer: [u8; 64],
    buffer_len: usize,
    /// Total number of message bytes processed so far.
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a new hasher with the standard initial state.
    pub fn new() -> Self {
        Self {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;

        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len < 64 {
                return;
            }
            compress_blocks(&mut self.state, &self.buffer);
        }

        // Whole blocks are compressed where they lie; only the tail is buffered.
        let (blocks, tail) = input.split_at(input.len() - input.len() % 64);
        if !blocks.is_empty() {
            compress_blocks(&mut self.state, blocks);
        }
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffer_len = tail.len();
    }

    /// Finishes the computation and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);

        // Padding: a single 0x80 byte, zeroes, then the 64-bit big-endian length — one
        // block if the buffered tail leaves room for all nine bytes, two otherwise.
        let mut padded = [0u8; 128];
        padded[..self.buffer_len].copy_from_slice(&self.buffer[..self.buffer_len]);
        padded[self.buffer_len] = 0x80;
        let end = if self.buffer_len < 56 { 64 } else { 128 };
        padded[end - 8..end].copy_from_slice(&bit_len.to_be_bytes());
        compress_blocks(&mut self.state, &padded[..end]);
        state_bytes(&self.state)
    }

    /// Convenience one-shot digest.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut hasher = Self::new();
        hasher.update(data);
        hasher.finalize()
    }
}

/// The digest a final state stands for: its eight words, big-endian.
fn state_bytes(state: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Folds `blocks` — a whole number of 64-byte blocks — into `state`, on the fastest
/// path this CPU has.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    #[cfg(target_arch = "x86_64")]
    if x86::compress_blocks(state, blocks) {
        return;
    }
    compress_scalar(state, blocks);
}

/// The portable rounds of FIPS 180-4 §6.2.2: the reference implementation, and the only
/// path on CPUs without SHA extensions.
fn compress_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);

            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }

        for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(add);
        }
    }
}

/// The SHA-extensions path. The only module of this crate allowed to use `unsafe`:
/// one call into a `#[target_feature]` function behind run-time detection, and the
/// unaligned 16-byte loads of the message words.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use super::K;
    use std::arch::x86_64::*;

    /// Compresses `blocks` into `state` with the SHA extensions and returns `true`, or
    /// returns `false` untouched if this CPU lacks them.
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) -> bool {
        if !(is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1"))
        {
            return false;
        }
        // SAFETY: every feature `compress_sha_ni` enables was detected on this CPU by
        // the `is_x86_feature_detected!` checks just above (`sse2` is x86-64 baseline).
        unsafe { compress_sha_ni(state, blocks) };
        true
    }

    /// `sha256rnds2` takes the state as two vectors, `ABEF` and `CDGH` (`A` / `C` in the
    /// highest lane), and performs two rounds per call from the low two lanes of
    /// `W + K`; `sha256msg1` / `sha256msg2` extend the message schedule four words at a
    /// time.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn compress_sha_ni(state: &mut [u32; 8], blocks: &[u8]) {
        let [a, b, c, d, e, f, g, h] = state.map(|word| word as i32);
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);
        // Byte shuffle that turns four big-endian message words into four lanes.
        let big_endian = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // Four vectors of four schedule words each: `w0` holds W[t-16 .. t-12] when
            // the words at `t` are due, `w3` holds W[t-4 .. t].
            let [mut w0, mut w1, mut w2, mut w3] = [0, 16, 32, 48].map(|at| {
                let words = &block[at..at + 16];
                // SAFETY: `words` is a 16-byte subslice (the indexing above checked
                // it), exactly what the load reads; `_mm_loadu_si128` has no alignment
                // requirement.
                let raw = unsafe { _mm_loadu_si128(words.as_ptr().cast()) };
                _mm_shuffle_epi8(raw, big_endian)
            });
            four_rounds(&mut abef, &mut cdgh, w0, 0);
            four_rounds(&mut abef, &mut cdgh, w1, 1);
            four_rounds(&mut abef, &mut cdgh, w2, 2);
            four_rounds(&mut abef, &mut cdgh, w3, 3);
            for group in [4, 8, 12] {
                w0 = next_words(w0, w1, w2, w3);
                four_rounds(&mut abef, &mut cdgh, w0, group);
                w1 = next_words(w1, w2, w3, w0);
                four_rounds(&mut abef, &mut cdgh, w1, group + 1);
                w2 = next_words(w2, w3, w0, w1);
                four_rounds(&mut abef, &mut cdgh, w2, group + 2);
                w3 = next_words(w3, w0, w1, w2);
                four_rounds(&mut abef, &mut cdgh, w3, group + 3);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        *state = [
            _mm_extract_epi32(abef, 3),
            _mm_extract_epi32(abef, 2),
            _mm_extract_epi32(cdgh, 3),
            _mm_extract_epi32(cdgh, 2),
            _mm_extract_epi32(abef, 1),
            _mm_extract_epi32(abef, 0),
            _mm_extract_epi32(cdgh, 1),
            _mm_extract_epi32(cdgh, 0),
        ]
        .map(|word| word as u32);
    }

    /// Rounds `4·group .. 4·group + 4` from the four schedule words in `w`.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn four_rounds(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, group: usize) {
        let k = &K[4 * group..4 * group + 4];
        let wk = _mm_add_epi32(
            w,
            _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32),
        );
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }

    /// The next four schedule words, `W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16]`,
    /// from the sixteen before them (`w16` = `W[t-16 .. t-12]`, …, `w4` = `W[t-4 .. t]`).
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn next_words(w16: __m128i, w12: __m128i, w8: __m128i, w4: __m128i) -> __m128i {
        let partial = _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12), _mm_alignr_epi8(w4, w8, 4));
        _mm_sha256msg2_epu32(partial, w4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    type Compress = fn(&mut [u32; 8], &[u8]);

    /// One-shot digest through an explicitly chosen compression function, with its own
    /// naive padding — independent of [`Sha256`]'s buffering and of the dispatch.
    fn digest_with(compress: Compress, data: &[u8]) -> [u8; 32] {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        compress(&mut state, &padded);
        state_bytes(&state)
    }

    /// Every compression path this runner can execute: always the scalar reference,
    /// plus the SHA extensions where detected (a runner without them says so).
    fn paths() -> Vec<(&'static str, Compress)> {
        let mut paths: Vec<(&'static str, Compress)> = vec![("scalar", compress_scalar)];
        #[cfg(target_arch = "x86_64")]
        if x86::compress_blocks(&mut H0.clone(), &[]) {
            paths.push(("sha_ni", |state, blocks| {
                assert!(x86::compress_blocks(state, blocks));
            }));
        }
        if paths.len() == 1 {
            println!("skipped: sha_ni not detected");
        }
        paths
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + i / 251) as u8).collect()
    }

    #[test]
    fn fips_vectors_through_each_path() {
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 6] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                &[0x61; 55],
                "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318",
            ),
            (
                &[0x61; 56],
                "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a",
            ),
            (
                &million_a,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        for (name, compress) in paths() {
            for (message, expected) in vectors {
                assert_eq!(
                    hex(&digest_with(compress, message)),
                    expected,
                    "{name}, {} bytes",
                    message.len()
                );
            }
        }
    }

    /// The dispatched hasher and every explicit path agree with the scalar reference
    /// at every length around the block and padding boundaries, and at every buffer
    /// offset (the accelerated loads are unaligned by design).
    #[test]
    fn every_path_matches_the_scalar_reference_at_every_length_and_alignment() {
        let buffer = pattern((1 << 20) + 4);
        let paths = paths();
        for len in (0..=257).chain([1 << 20]) {
            for offset in 0..4 {
                let message = &buffer[offset..offset + len];
                let reference = digest_with(compress_scalar, message);
                assert_eq!(
                    Sha256::digest(message),
                    reference,
                    "dispatched, len {len} offset {offset}"
                );
                for (name, compress) in &paths[1..] {
                    assert_eq!(
                        digest_with(*compress, message),
                        reference,
                        "{name}, len {len} offset {offset}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_message() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn long_message_one_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&Sha256::digest(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    /// Every two-way split of a message — every buffered-tail length meeting every
    /// remainder — against the one-shot digest and the scalar reference.
    #[test]
    fn incremental_matches_one_shot() {
        let data = pattern(1000);
        let reference = digest_with(compress_scalar, &data);
        assert_eq!(Sha256::digest(&data), reference);
        for split in 0..=data.len() {
            let mut hasher = Sha256::new();
            hasher.update(&data[..split]);
            hasher.update(&data[split..]);
            assert_eq!(hasher.finalize(), reference, "split at {split}");
        }
    }

    #[test]
    fn fifty_five_and_fifty_six_byte_boundary() {
        // 55 bytes leaves exactly enough room for padding in one block; 56 forces a
        // second block. Both are classic off-by-one hotspots.
        let m55 = vec![0x61u8; 55];
        let m56 = vec![0x61u8; 56];
        assert_eq!(
            hex(&Sha256::digest(&m55)),
            "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"
        );
        assert_eq!(
            hex(&Sha256::digest(&m56)),
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"
        );
    }
}
