//! SHA-256 (FIPS-180-4), implemented from first principles.
//!
//! Seculator computes a 32-byte MAC per memory block as
//! `SHA256(P || L || F || VN || I || B)` (paper §6.4). The round constants
//! are *derived* from the fractional parts of the cube roots of the first
//! 64 primes (and the IV from square roots of the first 8 primes), exactly
//! as the standard defines them, so the only transcribed data is the list
//! of small primes.

use std::sync::OnceLock;

const PRIMES: [u32; 64] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307,
    311,
];

/// First 32 bits of the fractional part of `p^(1/n)`.
fn frac_root_bits(p: u32, n: u32) -> u32 {
    let root = (p as f64).powf(1.0 / n as f64);
    let frac = root - root.floor();
    // 2^32 * frac, truncated. f64 has 52 fraction bits, enough for exact
    // agreement with the standard's constants.
    (frac * 4294967296.0) as u32
}

pub(crate) fn k() -> &'static [u32; 64] {
    static K: OnceLock<[u32; 64]> = OnceLock::new();
    K.get_or_init(|| {
        let mut k = [0u32; 64];
        for (i, p) in PRIMES.iter().enumerate() {
            k[i] = frac_root_bits(*p, 3);
        }
        k
    })
}

/// The initial hash value, derived once like [`k`]: the floating-point
/// roots are far too slow to recompute for every hasher.
pub(crate) fn iv() -> [u32; 8] {
    static IV: OnceLock<[u32; 8]> = OnceLock::new();
    *IV.get_or_init(|| {
        let mut h = [0u32; 8];
        for i in 0..8 {
            h[i] = frac_root_bits(PRIMES[i], 2);
        }
        h
    })
}

/// One SHA-256 compression over a message block already loaded as 16
/// big-endian words: folds it into `state`.
///
/// Free-standing (rather than a method on [`Sha256`]) so fixed-length
/// callers — the XOR-MAC engine through the portable
/// [`crate::backend::CryptoBackend`] — can run the compression directly
/// over stack buffers with a cached `k`, skipping the incremental
/// hasher's buffering, and assemble the block from word-sized fields
/// without a byte-serialize/word-deserialize round trip.
pub(crate) fn compress_words(state: &mut [u32; 8], words: &[u32; 16], k: &[u32; 64]) {
    // The message schedule lives in a rolling 16-word window instead of a
    // flat `[u32; 64]` (§6.2.2 only ever reads the last 16 entries), and
    // each round updates the rotating a..h registers through a macro so
    // the eight-way register shuffle compiles to nothing. Same math,
    // roughly a third faster per block — this compression runs twice per
    // 64-byte memory block and dominates the MAC datapath.
    let mut w = *words;
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    macro_rules! round {
        ($a:ident $b:ident $c:ident $d:ident $e:ident $f:ident $g:ident $h:ident, $ki:expr, $wi:expr) => {
            let s1 = $e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25);
            let ch = ($e & $f) ^ (!$e & $g);
            let temp1 = $h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add($ki)
                .wrapping_add($wi);
            let s0 = $a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22);
            let maj = ($a & $b) ^ ($a & $c) ^ ($b & $c);
            $d = $d.wrapping_add(temp1);
            $h = temp1.wrapping_add(s0.wrapping_add(maj));
        };
    }
    // Eight rounds rotate the registers through a full cycle, so every
    // group of eight starts from the same a..h alignment.
    macro_rules! eight_rounds {
        ($base:expr, $w0:expr, $w1:expr, $w2:expr, $w3:expr, $w4:expr, $w5:expr, $w6:expr, $w7:expr) => {
            round!(a b c d e f g h, k[$base], $w0);
            round!(h a b c d e f g, k[$base + 1], $w1);
            round!(g h a b c d e f, k[$base + 2], $w2);
            round!(f g h a b c d e, k[$base + 3], $w3);
            round!(e f g h a b c d, k[$base + 4], $w4);
            round!(d e f g h a b c, k[$base + 5], $w5);
            round!(c d e f g h a b, k[$base + 6], $w6);
            round!(b c d e f g h a, k[$base + 7], $w7);
        };
    }
    for chunk in 0..4usize {
        if chunk > 0 {
            for i in 0..16usize {
                let w15 = w[(i + 1) & 15];
                let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
                let w2 = w[(i + 14) & 15];
                let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
                w[i] = w[i]
                    .wrapping_add(s0)
                    .wrapping_add(w[(i + 9) & 15])
                    .wrapping_add(s1);
            }
        }
        let base = 16 * chunk;
        eight_rounds!(base, w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]);
        eight_rounds!(
            base + 8,
            w[8],
            w[9],
            w[10],
            w[11],
            w[12],
            w[13],
            w[14],
            w[15]
        );
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use seculator_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(digest[0], 0xba);
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
    /// Round constants resolved once at construction so per-block
    /// compressions skip the `OnceLock` check.
    k: &'static [u32; 64],
    /// Execution backend for the compression function: the process
    /// default for [`Self::new`], or the one [`Self::with_backend`]
    /// names. Digests are the same on every backend.
    backend: crate::backend::Backend,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a hasher in the initial state whose compressions run on
    /// the process-wide [`crate::backend::default_backend`] (`SHA-NI`
    /// where the host has it). Callers that must stay
    /// backend-independent, like the serial datapath's
    /// [`crate::xor_mac::block_mac`], use [`Self::with_backend`] with
    /// [`crate::backend::portable`].
    #[must_use]
    pub fn new() -> Self {
        Self::with_backend(crate::backend::default_backend())
    }

    /// Creates a hasher whose compressions run on `backend`. Digests
    /// are bit-identical across backends (FIPS-180-4 KATs below run on
    /// every backend the host supports).
    #[must_use]
    pub fn with_backend(backend: crate::backend::Backend) -> Self {
        Self {
            state: iv(),
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
            k: k(),
            backend,
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
            if self.buffer_len == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffer_len = 0;
            }
        }
        while input.len() >= 64 {
            let block: [u8; 64] = input[..64].try_into().expect("slice is 64 bytes");
            self.compress(&block);
            input = &input[64..];
        }
        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffer_len = input.len();
        }
    }

    /// Finishes the hash and returns the 32-byte digest.
    #[must_use]
    pub fn finalize(mut self) -> [u8; 32] {
        // FIPS-180-4 §5.1.1 padding in one update: the 0x80 marker,
        // zeros up to 56 mod 64, then the message length in bits.
        let bit_len = self.total_len.wrapping_mul(8);
        let zeros = (55 - self.buffer_len as isize).rem_euclid(64) as usize;
        let mut tail = [0u8; 72];
        tail[0] = 0x80;
        tail[1 + zeros..9 + zeros].copy_from_slice(&bit_len.to_be_bytes());
        self.update(&tail[..9 + zeros]);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One-shot convenience: hash `data` and return the digest.
    #[must_use]
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    /// Hashes the concatenation of `parts` without materializing it.
    ///
    /// Equivalent to `digest(parts.concat())` but feeds each buffer to
    /// the one hasher state directly — the multi-buffer entry point the
    /// per-block MAC uses so building `P ‖ L ‖ F ‖ VN ‖ I ‖ B` never
    /// allocates.
    #[must_use]
    pub fn digest_parts(parts: &[&[u8]]) -> [u8; 32] {
        let mut h = Self::new();
        for p in parts {
            h.update(p);
        }
        h.finalize()
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 16];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes(bytes.try_into().expect("4 bytes"));
        }
        self.backend.sha256_compress(&mut self.state, &w, self.k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn constants_match_standard() {
        // Spot-check derived constants against FIPS-180-4 §4.2.2/§5.3.3.
        assert_eq!(k()[0], 0x428a2f98);
        assert_eq!(k()[1], 0x71374491);
        assert_eq!(k()[63], 0xc67178f2);
        assert_eq!(iv()[0], 0x6a09e667);
        assert_eq!(iv()[7], 0x5be0cd19);
    }

    #[test]
    fn empty_string() {
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
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn digest_parts_matches_concatenation() {
        let a = b"seculator".as_slice();
        let b = &[0u8; 17][..];
        let c: Vec<u8> = (0..100u8).collect();
        let concat: Vec<u8> = [a, b, &c].concat();
        assert_eq!(Sha256::digest_parts(&[a, b, &c]), Sha256::digest(&concat));
        assert_eq!(Sha256::digest_parts(&[]), Sha256::digest(b""));
    }

    #[test]
    fn all_nist_vectors_pass_on_every_backend() {
        // FIPS-180-4 / NIST SHA-256 test vectors, run through each
        // backend's compression (exercises SHA-NI where available).
        let vectors: [(&[u8], &str); 4] = [
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
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
                  ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
        ];
        for backend in crate::backend::available() {
            for (msg, want) in vectors {
                let mut h = Sha256::with_backend(backend);
                h.update(msg);
                assert_eq!(
                    hex(&h.finalize()),
                    want,
                    "backend {:?} msg len {}",
                    backend.kind(),
                    msg.len()
                );
            }
            // The million-'a' vector, fed in chunks that straddle block
            // boundaries.
            let mut h = Sha256::with_backend(backend);
            let chunk = [b'a'; 1000];
            for _ in 0..1000 {
                h.update(&chunk);
            }
            assert_eq!(
                hex(&h.finalize()),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "backend {:?}",
                backend.kind()
            );
        }
    }

    #[test]
    fn backend_compressions_match_rolling_window_templates() {
        // Random 16-word schedule templates (the XOR-MAC engine's input
        // form): every backend's raw compression must match the
        // rolling-window software implementation word for word.
        let mut x: u32 = 0xC0FF_EE01;
        for case in 0..64u32 {
            let mut words = [0u32; 16];
            for w in words.iter_mut() {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                *w = x;
            }
            let mut want = iv();
            compress_words(&mut want, &words, k());
            for backend in crate::backend::available() {
                let mut got = iv();
                backend.sha256_compress(&mut got, &words, k());
                assert_eq!(got, want, "backend {:?} case {case}", backend.kind());
            }
        }
    }

    /// Reference padding: the marker, then one zero byte per `update`
    /// call until 56 mod 64, then the length.
    fn finalize_bytewise(mut h: Sha256) -> [u8; 32] {
        let bit_len = h.total_len.wrapping_mul(8);
        h.update(&[0x80]);
        while h.buffer_len != 56 {
            h.update(&[0]);
        }
        h.update(&bit_len.to_be_bytes());
        let mut out = [0u8; 32];
        for (i, word) in h.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    #[test]
    fn one_update_padding_matches_bytewise_padding() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 7 + 3) as u8).collect();
        for backend in crate::backend::available() {
            for len in 0..=data.len() {
                let msg = &data[..len];
                for split in [0, 1, 55, 56, 63, 64, 65, 128, len / 2, len] {
                    let split = split.min(len);
                    let mut h = Sha256::with_backend(backend);
                    h.update(&msg[..split]);
                    h.update(&msg[split..]);
                    assert_eq!(
                        h.clone().finalize(),
                        finalize_bytewise(h),
                        "backend {:?} len {len} split {split}",
                        backend.kind()
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for split in [0, 1, 17, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split={split}");
        }
    }
}
