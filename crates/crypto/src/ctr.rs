//! AES counter-mode (CTR) encryption, the scheme used by SGX-Client,
//! GuardNN, and Seculator.
//!
//! The block counter is encrypted to produce a one-time pad (OTP) that is
//! XORed with the plaintext (paper §2.1.1, §6.3). Because XOR is an
//! involution, encryption and decryption are the same operation; the
//! security obligation is therefore *never reusing a counter under one
//! key*, which `seculator-core` enforces by deriving counters from
//! `(fmap id, layer id, VN, block index)`.

use crate::aes::Aes128;
use crate::backend::{default_backend, Backend};

/// A 128-bit CTR counter split into Seculator's major/minor halves.
///
/// The major half identifies *where* the block lives (fmap id ‖ layer id),
/// the minor half identifies *which version* of it this is
/// (version number ‖ block index within the fmap) — paper §6.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockCounter {
    /// Major counter: `fmap id ‖ layer id`.
    pub major: u64,
    /// Minor counter: `version number ‖ block index`.
    pub minor: u64,
}

impl BlockCounter {
    /// Builds a counter from its four architectural components.
    ///
    /// `fmap_id` and `layer_id` each occupy 32 bits of the major counter;
    /// `version` and `block_index` each occupy 32 bits of the minor
    /// counter. Components are truncated to 32 bits, which matches the
    /// hardware register widths in the paper's design.
    #[must_use]
    pub fn from_parts(fmap_id: u32, layer_id: u32, version: u32, block_index: u32) -> Self {
        Self {
            major: (u64::from(fmap_id) << 32) | u64::from(layer_id),
            minor: (u64::from(version) << 32) | u64::from(block_index),
        }
    }

    /// Serializes the counter into the 16-byte AES input block.
    #[must_use]
    pub fn to_bytes(self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.major.to_be_bytes());
        out[8..].copy_from_slice(&self.minor.to_be_bytes());
        out
    }
}

/// AES-128 CTR-mode cipher over 64-byte memory blocks.
///
/// A 64-byte block is processed as four consecutive 16-byte AES blocks
/// whose counters differ in the low 2 bits — mirroring the four parallel
/// AES engines of the paper's datapath.
///
/// # Examples
///
/// ```
/// use seculator_crypto::ctr::{AesCtr, BlockCounter};
///
/// let ctr = AesCtr::new(b"super-secret-key");
/// let counter = BlockCounter::from_parts(1, 2, 3, 4);
/// let plain = [0xAAu8; 64];
/// let cipher = ctr.encrypt_block64(&plain, counter);
/// assert_ne!(cipher, plain);
/// assert_eq!(ctr.decrypt_block64(&cipher, counter), plain);
/// ```
#[derive(Debug, Clone)]
pub struct AesCtr {
    aes: Aes128,
    /// Execution backend for pad generation. Selection only affects
    /// speed and timing behaviour — pads are bit-identical across
    /// backends.
    backend: Backend,
}

impl AesCtr {
    /// Creates a CTR cipher from a 16-byte key, using the process-wide
    /// default backend ([`crate::backend::default_backend`]).
    #[must_use]
    pub fn new(key: &[u8; 16]) -> Self {
        Self::with_backend(key, default_backend())
    }

    /// Creates a CTR cipher pinned to an explicit execution backend.
    #[must_use]
    pub fn with_backend(key: &[u8; 16], backend: Backend) -> Self {
        Self {
            aes: Aes128::new(key),
            backend,
        }
    }

    /// The execution backend this cipher dispatches to.
    #[must_use]
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Fills `pad` with the 64-byte one-time pad for `counter`.
    ///
    /// The four AES lanes use `counter.minor * 4 + lane` so that distinct
    /// 64-byte blocks (distinct minor counters) never overlap lanes. All
    /// four lanes reuse the one key schedule expanded at [`Self::new`] —
    /// this models the paper's four parallel AES engines sharing a key
    /// (§6.3) and is what makes the batched APIs cheap.
    pub fn pad64_into(&self, counter: BlockCounter, pad: &mut [u8; 64]) {
        let mut lanes = [counter.to_bytes(); 4];
        let base = counter.minor.wrapping_mul(4);
        for (lane, input) in lanes.iter_mut().enumerate() {
            input[8..].copy_from_slice(&base.wrapping_add(lane as u64).to_be_bytes());
        }
        self.backend.aes_encrypt_blocks(&self.aes, &mut lanes);
        for (lane, block) in lanes.iter().enumerate() {
            pad[16 * lane..16 * (lane + 1)].copy_from_slice(block);
        }
    }

    /// Fills one 64-byte pad per counter, batching the AES lanes of up
    /// to eight blocks (32 lanes) into single backend calls so wide
    /// backends (`AES-NI`, bitsliced) run full batches instead of one
    /// four-lane group at a time. Bit-identical to per-counter
    /// [`Self::pad64_into`].
    ///
    /// # Panics
    ///
    /// Panics if `counters.len() != pads.len()`.
    pub fn pads_into(&self, counters: &[BlockCounter], pads: &mut [[u8; 64]]) {
        assert_eq!(counters.len(), pads.len(), "one pad buffer per counter");
        for (counters, pads) in counters.chunks(8).zip(pads.chunks_mut(8)) {
            let mut lanes = [[0u8; 16]; 32];
            for (i, c) in counters.iter().enumerate() {
                let bytes = c.to_bytes();
                let base = c.minor.wrapping_mul(4);
                for (lane, buf) in lanes[4 * i..4 * i + 4].iter_mut().enumerate() {
                    buf.copy_from_slice(&bytes);
                    buf[8..].copy_from_slice(&base.wrapping_add(lane as u64).to_be_bytes());
                }
            }
            let used = 4 * counters.len();
            self.backend
                .aes_encrypt_blocks(&self.aes, &mut lanes[..used]);
            for (pad, quad) in pads.iter_mut().zip(lanes.chunks_exact(4)) {
                for (lane, block) in quad.iter().enumerate() {
                    pad[16 * lane..16 * (lane + 1)].copy_from_slice(block);
                }
            }
        }
    }

    /// Produces the 64-byte one-time pad for `counter`.
    #[must_use]
    pub fn pad64(&self, counter: BlockCounter) -> [u8; 64] {
        let mut pad = [0u8; 64];
        self.pad64_into(counter, &mut pad);
        pad
    }

    /// Reference pad generation through the per-byte scalar AES rounds.
    ///
    /// Exists so tests and the benchmark's serial baseline can prove the
    /// table-driven fast path produces identical pads.
    #[must_use]
    pub fn pad64_scalar(&self, counter: BlockCounter) -> [u8; 64] {
        let mut pad = [0u8; 64];
        for lane in 0..4u64 {
            let lane_counter = BlockCounter {
                major: counter.major,
                minor: counter.minor.wrapping_mul(4).wrapping_add(lane),
            };
            let block = self.aes.encrypt_block_scalar(&lane_counter.to_bytes());
            pad[16 * lane as usize..16 * (lane as usize + 1)].copy_from_slice(&block);
        }
        pad
    }

    /// Encrypts a 64-byte block (`plaintext ⊕ OTP`) into `out`.
    pub fn encrypt_block64_into(
        &self,
        plaintext: &[u8; 64],
        counter: BlockCounter,
        out: &mut [u8; 64],
    ) {
        self.pad64_into(counter, out);
        for (o, p) in out.iter_mut().zip(plaintext.iter()) {
            *o ^= p;
        }
    }

    /// Encrypts a 64-byte block (`plaintext ⊕ OTP`).
    #[must_use]
    pub fn encrypt_block64(&self, plaintext: &[u8; 64], counter: BlockCounter) -> [u8; 64] {
        let mut out = [0u8; 64];
        self.encrypt_block64_into(plaintext, counter, &mut out);
        out
    }

    /// Reference encryption through [`Self::pad64_scalar`].
    #[must_use]
    pub fn encrypt_block64_scalar(&self, plaintext: &[u8; 64], counter: BlockCounter) -> [u8; 64] {
        let mut out = self.pad64_scalar(counter);
        for (o, p) in out.iter_mut().zip(plaintext.iter()) {
            *o ^= p;
        }
        out
    }

    /// Decrypts a 64-byte block. Identical to encryption (XOR involution).
    #[must_use]
    pub fn decrypt_block64(&self, ciphertext: &[u8; 64], counter: BlockCounter) -> [u8; 64] {
        self.encrypt_block64(ciphertext, counter)
    }

    /// Encrypts an arbitrary byte stream starting at `initial`, advancing
    /// the minor counter per 16-byte AES block (classic SP 800-38A CTR).
    ///
    /// This variant exists for conformance testing against the NIST
    /// vectors; the NPU datapath uses [`Self::encrypt_block64`].
    #[must_use]
    pub fn encrypt_stream(&self, data: &[u8], initial: [u8; 16]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len());
        let mut counter = initial;
        for chunk in data.chunks(16) {
            let pad = self.aes.encrypt_block(&counter);
            for (i, b) in chunk.iter().enumerate() {
                out.push(b ^ pad[i]);
            }
            // 128-bit big-endian increment.
            for byte in counter.iter_mut().rev() {
                *byte = byte.wrapping_add(1);
                if *byte != 0 {
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn nist_sp800_38a_ctr_vector() {
        // SP 800-38A §F.5.1 CTR-AES128.Encrypt, first block.
        let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        let init: [u8; 16] = hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff").try_into().unwrap();
        let pt = hex("6bc1bee22e409f96e93d7e117393172a");
        let expected = hex("874d6191b620e3261bef6864990db6ce");
        let ctr = AesCtr::new(&key);
        assert_eq!(ctr.encrypt_stream(&pt, init), expected);
    }

    #[test]
    fn nist_sp800_38a_ctr_vector_second_block() {
        // Second block of the same vector, exercising counter increment.
        let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        let init: [u8; 16] = hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff").try_into().unwrap();
        let pt = hex("6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51");
        let out = AesCtr::new(&key).encrypt_stream(&pt, init);
        assert_eq!(&out[16..32], &hex("9806f66b7970fdff8617187bb9fffdff")[..]);
    }

    #[test]
    fn block64_roundtrip_and_counter_sensitivity() {
        let ctr = AesCtr::new(b"0123456789abcdef");
        let c1 = BlockCounter::from_parts(0, 1, 2, 3);
        let c2 = BlockCounter::from_parts(0, 1, 2, 4);
        let pt = [0x5Au8; 64];
        let e1 = ctr.encrypt_block64(&pt, c1);
        let e2 = ctr.encrypt_block64(&pt, c2);
        assert_ne!(
            e1, e2,
            "different block indices must yield different ciphertext"
        );
        assert_eq!(ctr.decrypt_block64(&e1, c1), pt);
        // Decrypting with the wrong counter yields garbage, not plaintext.
        assert_ne!(ctr.decrypt_block64(&e1, c2), pt);
    }

    #[test]
    fn version_bump_changes_ciphertext() {
        let ctr = AesCtr::new(b"0123456789abcdef");
        let pt = [9u8; 64];
        let v1 = ctr.encrypt_block64(&pt, BlockCounter::from_parts(7, 3, 1, 0));
        let v2 = ctr.encrypt_block64(&pt, BlockCounter::from_parts(7, 3, 2, 0));
        assert_ne!(
            v1, v2,
            "freshness: same data re-encrypted under a new VN must differ"
        );
    }

    #[test]
    fn fips197_known_answer_through_the_batched_lane_path() {
        // Drive the FIPS-197 Appendix C vector through `pad64`'s lane
        // arithmetic: with minor = (0x8899aabbccddeeff - 3) / 4, lane 3
        // computes AES-ENC over exactly the Appendix C plaintext
        // 00112233445566778899aabbccddeeff, so pad bytes 48..64 must be
        // the Appendix C ciphertext. This pins the *batched* path (shared
        // key schedule, lane counter = minor*4 + lane) to the standard,
        // not just single-block encrypt.
        let key: [u8; 16] = hex("000102030405060708090a0b0c0d0e0f").try_into().unwrap();
        let expected = hex("69c4e0d86a7b0430d8cdb78070b4c55a");
        let counter = BlockCounter {
            major: 0x0011_2233_4455_6677,
            minor: 0x2226_6aae_f337_7bbf, // minor*4 + 3 == 0x8899aabbccddeeff
        };
        let ctr = AesCtr::new(&key);
        let pad = ctr.pad64(counter);
        assert_eq!(&pad[48..64], &expected[..]);
        // The scalar reference path must agree byte-for-byte.
        assert_eq!(pad, ctr.pad64_scalar(counter));
        // And a batch of pads must match the single-block API.
        let pt = [[0x5Au8; 64], [0xA5u8; 64]];
        let counters = [counter, BlockCounter::from_parts(1, 2, 3, 4)];
        let mut batch = [[0u8; 64]; 2];
        ctr.pads_into(&counters, &mut batch);
        for ((block, p), &c) in batch.iter_mut().zip(&pt).zip(&counters) {
            block.iter_mut().zip(p).for_each(|(b, x)| *b ^= x);
            assert_eq!(*block, ctr.encrypt_block64(p, c));
        }
    }

    #[test]
    fn from_parts_packs_saturated_components_without_overflow() {
        // All four architectural components at their 2^32 - 1 register
        // ceiling: the packing must fill both halves exactly, and the
        // serialized counter must be all-ones.
        let c = BlockCounter::from_parts(u32::MAX, u32::MAX, u32::MAX, u32::MAX);
        assert_eq!(c.major, u64::MAX);
        assert_eq!(c.minor, u64::MAX);
        assert_eq!(c.to_bytes(), [0xFF; 16]);
        // And a single saturated component lands in its own half only.
        let v = BlockCounter::from_parts(0, 0, u32::MAX, 0);
        assert_eq!(v.major, 0);
        assert_eq!(v.minor, u64::from(u32::MAX) << 32);
    }

    #[test]
    fn lane_paths_agree_at_the_minor_counter_wrap_edge() {
        // minor = u64::MAX makes the lane base (minor * 4) wrap; the
        // table-driven four-lane path and the scalar reference must still
        // produce the same pad, and the pad must round-trip.
        let ctr = AesCtr::new(b"0123456789abcdef");
        for c in [
            BlockCounter::from_parts(1, 2, u32::MAX, u32::MAX),
            BlockCounter::from_parts(1, 2, u32::MAX, 0),
            BlockCounter::from_parts(1, 2, 0, u32::MAX),
        ] {
            assert_eq!(ctr.pad64(c), ctr.pad64_scalar(c), "{c:?}");
            let pt = [0x3Cu8; 64];
            assert_eq!(ctr.decrypt_block64(&ctr.encrypt_block64(&pt, c), c), pt);
        }
    }

    #[test]
    fn lane_counters_do_not_collide_across_the_block_index_ceiling() {
        // The last block of one version (block_index = 2^32 - 1) sits
        // right next to the first block of the next version in minor
        // space; their lane counters are 4 apart and must not collide —
        // lane 3 of the former vs lane 0 of the latter.
        let ctr = AesCtr::new(b"0123456789abcdef");
        let zero = [0u8; 64];
        let last = ctr.encrypt_block64(&zero, BlockCounter::from_parts(0, 0, 6, u32::MAX));
        let next = ctr.encrypt_block64(&zero, BlockCounter::from_parts(0, 0, 7, 0));
        assert_ne!(&last[48..64], &next[0..16]);
        // Same check at the absolute top of minor space, where minor*4
        // wraps: the saturated block and block (0, 0) of version 0 map to
        // lane bases u64::MAX*4 and 0 — adjacent modulo 2^64.
        let wrap = ctr.encrypt_block64(&zero, BlockCounter::from_parts(0, 0, u32::MAX, u32::MAX));
        let first = ctr.encrypt_block64(&zero, BlockCounter::from_parts(0, 0, 0, 0));
        assert_ne!(&wrap[48..64], &first[0..16]);
    }

    #[test]
    fn lane_counters_do_not_collide_across_adjacent_blocks() {
        // block index i lane 3 vs block index i+1 lane 0 must use
        // different AES inputs: minor*4+3 != (minor+1)*4+0.
        let ctr = AesCtr::new(b"0123456789abcdef");
        let zero = [0u8; 64];
        let p1 = ctr.encrypt_block64(&zero, BlockCounter::from_parts(0, 0, 0, 0));
        let p2 = ctr.encrypt_block64(&zero, BlockCounter::from_parts(0, 0, 0, 1));
        assert_ne!(&p1[48..64], &p2[0..16]);
    }
}
