//! Property-based tests on the cryptographic substrate: round-trip
//! identities, counter non-reuse, and the order-independence /
//! tamper-sensitivity of the XOR-MAC aggregation.

use proptest::prelude::*;
use seculator::crypto::ctr::{AesCtr, BlockCounter};
use seculator::crypto::xor_mac::{block_mac, BlockMacInput, MacRegister};
use seculator::crypto::{Aes128, Sha256};

fn any_block64() -> impl Strategy<Value = [u8; 64]> {
    prop::array::uniform32(any::<u8>()).prop_flat_map(|a| {
        prop::array::uniform32(any::<u8>()).prop_map(move |b| {
            let mut out = [0u8; 64];
            out[..32].copy_from_slice(&a);
            out[32..].copy_from_slice(&b);
            out
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn aes_roundtrip(key in prop::array::uniform16(any::<u8>()),
                     block in prop::array::uniform16(any::<u8>())) {
        let aes = Aes128::new(&key);
        prop_assert_eq!(aes.decrypt_block(&aes.encrypt_block(&block)), block);
    }

    #[test]
    fn ctr_roundtrip_and_freshness(
        key in prop::array::uniform16(any::<u8>()),
        data in any_block64(),
        fmap in any::<u32>(), layer in any::<u32>(), vn in 1u32..1000, idx in any::<u32>(),
    ) {
        let ctr = AesCtr::new(&key);
        let c = BlockCounter::from_parts(fmap, layer, vn, idx);
        let ct = ctr.encrypt_block64(&data, c);
        prop_assert_eq!(ctr.decrypt_block64(&ct, c), data);
        // A bumped version must change the ciphertext (freshness).
        let c2 = BlockCounter::from_parts(fmap, layer, vn + 1, idx);
        prop_assert_ne!(ctr.encrypt_block64(&data, c2), ct);
    }

    #[test]
    fn sha256_incremental_equals_oneshot(data in prop::collection::vec(any::<u8>(), 0..512),
                                         split in 0usize..512) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    /// Absorbing any permutation of the same MAC multiset yields the
    /// same register value (the property Eq. 1 relies on).
    #[test]
    fn xor_mac_is_permutation_invariant(blocks in prop::collection::vec(any_block64(), 1..12),
                                        seed in any::<u64>()) {
        let secret = [0xAB; 16];
        let macs: Vec<[u8; 32]> = blocks.iter().enumerate().map(|(i, b)| {
            block_mac(BlockMacInput {
                device_secret: &secret, layer_id: 0, fmap_id: 0,
                version: 1, block_index: i as u32,
            }, b)
        }).collect();
        let mut forward = MacRegister::new();
        for m in &macs { forward.absorb(m); }
        // A deterministic pseudo-random permutation from the seed.
        let mut perm: Vec<usize> = (0..macs.len()).collect();
        let mut state = seed;
        for i in (1..perm.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            perm.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let mut shuffled = MacRegister::new();
        for i in perm { shuffled.absorb(&macs[i]); }
        prop_assert_eq!(forward, shuffled);
    }

    /// Any single-bit flip in any block breaks the aggregate equality.
    #[test]
    fn xor_mac_detects_any_single_bit_flip(
        blocks in prop::collection::vec(any_block64(), 1..8),
        victim in any::<prop::sample::Index>(),
        byte in 0usize..64, bit in 0u8..8,
    ) {
        let secret = [0xCD; 16];
        let mac_of = |i: usize, b: &[u8; 64]| block_mac(BlockMacInput {
            device_secret: &secret, layer_id: 3, fmap_id: 1,
            version: 2, block_index: i as u32,
        }, b);
        let mut written = MacRegister::new();
        for (i, b) in blocks.iter().enumerate() { written.absorb(&mac_of(i, b)); }
        let v = victim.index(blocks.len());
        let mut read = MacRegister::new();
        for (i, b) in blocks.iter().enumerate() {
            let mut content = *b;
            if i == v { content[byte] ^= 1 << bit; }
            read.absorb(&mac_of(i, &content));
        }
        prop_assert_ne!(written, read);
    }
}
