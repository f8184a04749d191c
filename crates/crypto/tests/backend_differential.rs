//! Differential fuzz across crypto backends.
//!
//! Every backend the host can execute must produce byte-identical
//! output for random keys, counters, coordinates, and batch lengths.
//! The portable backend is the reference (it is itself pinned to the
//! scalar FIPS-197/FIPS-180-4 paths by the crate's unit KATs), so any
//! divergence here localizes a bug to one backend implementation.

use seculator_crypto::backend::{self, Backend};
use seculator_crypto::ctr::{AesCtr, BlockCounter};
use seculator_crypto::xor_mac::BlockMacEngine;
use seculator_crypto::Sha256;

/// Deterministic xorshift-style generator so failures replay exactly.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let bytes = self.next().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

fn backends() -> Vec<Backend> {
    let available = backend::available();
    assert!(
        available.len() >= 2,
        "portable and bitsliced must always be available"
    );
    available
}

#[test]
fn random_pads_are_bit_identical_across_backends() {
    let mut rng = Rng(0x5EC0_1A70_D1FF_0001);
    for case in 0..64 {
        let mut key = [0u8; 16];
        rng.fill(&mut key);
        let counters: Vec<BlockCounter> = (0..(rng.next() % 23) as u32 + 1)
            .map(|_| BlockCounter {
                major: rng.next(),
                minor: rng.next(),
            })
            .collect();
        let reference = AesCtr::with_backend(&key, backend::portable());
        let mut want = vec![[0u8; 64]; counters.len()];
        reference.pads_into(&counters, &mut want);
        // The batched path must agree with the per-counter path...
        for (i, &c) in counters.iter().enumerate() {
            assert_eq!(want[i], reference.pad64(c), "case {case} counter {i}");
            // ...which is itself pinned to the scalar FIPS-197 rounds.
            assert_eq!(want[i], reference.pad64_scalar(c), "case {case} scalar");
        }
        for b in backends() {
            let ctr = AesCtr::with_backend(&key, b);
            let mut got = vec![[0u8; 64]; counters.len()];
            ctr.pads_into(&counters, &mut got);
            assert_eq!(got, want, "case {case} backend {:?}", b.kind());
            for (i, &c) in counters.iter().enumerate() {
                assert_eq!(ctr.pad64(c), want[i], "case {case} single {i}");
            }
        }
    }
}

#[test]
fn random_stream_encryption_matches_across_backends_and_lengths() {
    let mut rng = Rng(0xBADC_0FFE_E5EC_0002);
    for case in 0..32 {
        let mut key = [0u8; 16];
        rng.fill(&mut key);
        let mut init = [0u8; 16];
        rng.fill(&mut init);
        let len = (rng.next() % 300) as usize;
        let mut data = vec![0u8; len];
        rng.fill(&mut data);
        let want = AesCtr::with_backend(&key, backend::portable()).encrypt_stream(&data, init);
        for b in backends() {
            let got = AesCtr::with_backend(&key, b).encrypt_stream(&data, init);
            assert_eq!(got, want, "case {case} len {len} backend {:?}", b.kind());
        }
    }
}

#[test]
fn random_macs_are_bit_identical_across_backends() {
    let mut rng = Rng(0x0DD5_EED5_0000_0003);
    for case in 0..48 {
        let mut secret = [0u8; 16];
        rng.fill(&mut secret);
        let mut block0 = [0u8; 64];
        let mut block1 = [0u8; 64];
        rng.fill(&mut block0);
        rng.fill(&mut block1);
        let c0 = [
            rng.next() as u32,
            rng.next() as u32,
            rng.next() as u32,
            rng.next() as u32,
        ];
        let c1 = [
            rng.next() as u32,
            rng.next() as u32,
            rng.next() as u32,
            rng.next() as u32,
        ];
        let reference = BlockMacEngine::with_backend(&secret, backend::portable());
        let want0 = reference.mac(c0[0], c0[1], c0[2], c0[3], &block0);
        let want1 = reference.mac(c1[0], c1[1], c1[2], c1[3], &block1);
        for b in backends() {
            let engine = BlockMacEngine::with_backend(&secret, b);
            assert_eq!(
                engine.mac(c0[0], c0[1], c0[2], c0[3], &block0),
                want0,
                "case {case} backend {:?}",
                b.kind()
            );
            let (m0, m1) = engine.mac2(c0, &block0, c1, &block1);
            assert_eq!((m0, m1), (want0, want1), "case {case} mac2 {:?}", b.kind());
        }
    }
}

#[test]
fn random_digests_match_across_backends_and_lengths() {
    let mut rng = Rng(0xD16E_5700_0000_0004);
    for case in 0..32 {
        let len = (rng.next() % 500) as usize;
        let mut data = vec![0u8; len];
        rng.fill(&mut data);
        let mut reference = Sha256::with_backend(backend::portable());
        reference.update(&data);
        let want = reference.finalize();
        for b in backends() {
            let mut h = Sha256::with_backend(b);
            h.update(&data);
            assert_eq!(
                h.finalize(),
                want,
                "case {case} len {len} backend {:?}",
                b.kind()
            );
        }
    }
}

#[test]
fn aesni_detection_is_consistent_with_selection() {
    match backend::aesni() {
        Ok(b) => {
            assert!(backend::aesni_available());
            assert_eq!(b.kind(), backend::BackendKind::AesNi);
        }
        Err(err) => {
            assert!(!backend::aesni_available());
            assert!(err.to_string().contains("aesni"));
        }
    }
}
