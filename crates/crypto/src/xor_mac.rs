//! XOR-aggregated message authentication (Bellare, Guérin, Rogaway style),
//! the heart of Seculator's *layer-level* integrity scheme (paper §6.4).
//!
//! Instead of storing one MAC per 64-byte block (as TNPU/GuardNN do),
//! Seculator keeps a handful of 256-bit on-chip registers and XORs the
//! per-block MAC `SHA256(P ‖ L ‖ F ‖ VN ‖ I ‖ B)` into the register that
//! corresponds to the access class (write, read, first-read, input-read).
//! At a layer boundary the single check `MAC_W = MAC_FR ⊕ MAC_R`
//! (paper Eq. 1) verifies that everything written was read back exactly,
//! in any order — XOR is commutative, and the block index `I` inside the
//! MAC pins each block to its position.

use crate::backend::{default_backend, Backend};
use crate::sha256::{iv, k, Sha256};

/// A 256-bit XOR-accumulating MAC register (one of `MAC_W`, `MAC_R`,
/// `MAC_FR`, `MAC_IR` in the paper).
///
/// # Examples
///
/// ```
/// use seculator_crypto::xor_mac::MacRegister;
///
/// let mut w = MacRegister::new();
/// let mut r = MacRegister::new();
/// w.absorb(&[1u8; 32]);
/// w.absorb(&[2u8; 32]);
/// r.absorb(&[2u8; 32]);
/// r.absorb(&[1u8; 32]); // order does not matter
/// assert_eq!(w, r);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MacRegister([u8; 32]);

impl MacRegister {
    /// Creates a zeroed register.
    #[must_use]
    pub fn new() -> Self {
        Self([0u8; 32])
    }

    /// XORs a 32-byte block MAC into the register.
    pub fn absorb(&mut self, mac: &[u8; 32]) {
        for (slot, byte) in self.0.iter_mut().zip(mac) {
            *slot ^= byte;
        }
    }

    /// Returns the register contents.
    #[must_use]
    pub fn value(&self) -> [u8; 32] {
        self.0
    }

    /// Rebuilds a register from previously-saved contents — how the
    /// crash-recovery journal restores a sealed MAC register after a
    /// power loss.
    #[must_use]
    pub fn from_value(value: [u8; 32]) -> Self {
        Self(value)
    }

    /// True if the register is all-zero (the state after absorbing every
    /// MAC an even number of times).
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.0 == [0u8; 32]
    }

    /// Resets the register to zero (done at each layer boundary).
    pub fn reset(&mut self) {
        self.0 = [0u8; 32];
    }

    /// Returns `self ⊕ other` without mutating either register.
    #[must_use]
    pub fn xor(&self, other: &Self) -> Self {
        let mut out = *self;
        out.absorb(&other.0);
        out
    }
}

impl std::fmt::Display for MacRegister {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// Identifies one 64-byte block for MAC purposes: the architectural
/// coordinates that the paper concatenates into the hash input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockMacInput<'a> {
    /// Secret id of the accelerator (`P` in the paper).
    pub device_secret: &'a [u8; 16],
    /// Layer id (`L`).
    pub layer_id: u32,
    /// Feature-map id (`F`).
    pub fmap_id: u32,
    /// Version number of the tile this block belongs to (`VN`).
    pub version: u32,
    /// Block index within the fmap (`I`).
    pub block_index: u32,
}

/// Computes the per-block MAC `SHA256(P ‖ L ‖ F ‖ VN ‖ I ‖ B)`.
///
/// `block` is the 64-byte *plaintext* content (the MAC is computed at the
/// global-buffer boundary, before encryption on a write and after
/// decryption on a read).
#[must_use]
pub fn block_mac(input: BlockMacInput<'_>, block: &[u8; 64]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(input.device_secret);
    h.update(&input.layer_id.to_be_bytes());
    h.update(&input.fmap_id.to_be_bytes());
    h.update(&input.version.to_be_bytes());
    h.update(&input.block_index.to_be_bytes());
    h.update(block);
    h.finalize()
}

/// Total MAC preimage length: `P(16) ‖ L(4) ‖ F(4) ‖ VN(4) ‖ I(4) ‖ B(64)`.
const MAC_MSG_LEN: usize = 96;

/// Precomputed per-block MAC engine: the high-throughput counterpart of
/// [`block_mac`].
///
/// The MAC preimage is always exactly 96 bytes (`MAC_MSG_LEN`), so the hash
/// is always exactly two SHA-256 compressions with a fixed padding tail.
/// The engine freezes the device secret and the fully-padded second
/// block at construction — already converted to the big-endian schedule
/// words the compression consumes, so each [`Self::mac`] call drops the
/// u32 coordinates straight into the schedule and runs the compressions
/// directly: no incremental-hasher buffering, no length bookkeeping, no
/// byte-serialize/word-deserialize round trip, no allocation. Output is
/// bit-identical to [`block_mac`] (unit-tested below), which stays as
/// the serial reference path.
#[derive(Debug, Clone)]
pub struct BlockMacEngine {
    /// First compression block as 16 schedule words: `P` in words 0..4;
    /// the per-call coordinates (words 4..8) and `B[0..32]` (words
    /// 8..16) fill the rest.
    first: [u32; 16],
    /// Second compression block as schedule words: `B[32..64]` goes in
    /// words 0..8; words 8..16 carry the fixed FIPS-180-4 padding (the
    /// 0x80 marker, zeros, then the message bit length 768).
    second: [u32; 16],
    /// Initial hash state, frozen here because `iv()` derives it from
    /// floating-point roots — far too slow to recompute per block.
    iv: [u32; 8],
    k: &'static [u32; 64],
    /// Execution backend for the compression function. MACs are
    /// bit-identical across backends; only speed differs.
    backend: Backend,
}

impl BlockMacEngine {
    /// Builds an engine bound to one device secret (`P`), using the
    /// process-wide default backend.
    #[must_use]
    pub fn new(device_secret: &[u8; 16]) -> Self {
        Self::with_backend(device_secret, default_backend())
    }

    /// Builds an engine pinned to an explicit execution backend.
    #[must_use]
    pub fn with_backend(device_secret: &[u8; 16], backend: Backend) -> Self {
        let mut first = [0u32; 16];
        for (w, bytes) in first.iter_mut().zip(device_secret.chunks_exact(4)) {
            *w = u32::from_be_bytes(bytes.try_into().expect("4 bytes"));
        }
        let mut second = [0u32; 16];
        second[8] = 0x8000_0000;
        second[15] = (MAC_MSG_LEN as u32) * 8;
        Self {
            first,
            second,
            iv: iv(),
            k: k(),
            backend,
        }
    }

    /// Drops the per-block coordinates and content into the two frozen
    /// compression blocks.
    #[inline]
    fn schedule(
        &self,
        layer_id: u32,
        fmap_id: u32,
        version: u32,
        block_index: u32,
        block: &[u8; 64],
    ) -> ([u32; 16], [u32; 16]) {
        let mut first = self.first;
        first[4] = layer_id;
        first[5] = fmap_id;
        first[6] = version;
        first[7] = block_index;
        for (w, bytes) in first[8..].iter_mut().zip(block[..32].chunks_exact(4)) {
            *w = u32::from_be_bytes(bytes.try_into().expect("4 bytes"));
        }
        let mut second = self.second;
        for (w, bytes) in second[..8].iter_mut().zip(block[32..].chunks_exact(4)) {
            *w = u32::from_be_bytes(bytes.try_into().expect("4 bytes"));
        }
        (first, second)
    }

    /// Computes `SHA256(P ‖ L ‖ F ‖ VN ‖ I ‖ B)` via the fixed
    /// two-compression fast path.
    #[must_use]
    pub fn mac(
        &self,
        layer_id: u32,
        fmap_id: u32,
        version: u32,
        block_index: u32,
        block: &[u8; 64],
    ) -> [u8; 32] {
        let (first, second) = self.schedule(layer_id, fmap_id, version, block_index, block);
        let mut state = self.iv;
        self.backend.sha256_compress(&mut state, &first, self.k);
        self.backend.sha256_compress(&mut state, &second, self.k);
        let mut out = [0u8; 32];
        for (i, word) in state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Computes two independent block MACs with their compression
    /// chains interleaved (`coords` = `[layer, fmap, VN, index]`).
    ///
    /// Each MAC is a serially-dependent two-compression chain; running
    /// two chains through [`crate::backend::CryptoBackend::
    /// sha256_compress2`] hides the per-round latency of one behind the
    /// other on hardware SHA units. Bit-identical to two [`Self::mac`]
    /// calls on every backend.
    #[must_use]
    pub fn mac2(
        &self,
        coords0: [u32; 4],
        block0: &[u8; 64],
        coords1: [u32; 4],
        block1: &[u8; 64],
    ) -> ([u8; 32], [u8; 32]) {
        let (first0, second0) =
            self.schedule(coords0[0], coords0[1], coords0[2], coords0[3], block0);
        let (first1, second1) =
            self.schedule(coords1[0], coords1[1], coords1[2], coords1[3], block1);
        let mut s0 = self.iv;
        let mut s1 = self.iv;
        self.backend
            .sha256_compress2(&mut s0, &first0, &mut s1, &first1, self.k);
        self.backend
            .sha256_compress2(&mut s0, &second0, &mut s1, &second1, self.k);
        let mut out0 = [0u8; 32];
        let mut out1 = [0u8; 32];
        for i in 0..8 {
            out0[4 * i..4 * i + 4].copy_from_slice(&s0[i].to_be_bytes());
            out1[4 * i..4 * i + 4].copy_from_slice(&s1[i].to_be_bytes());
        }
        (out0, out1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SECRET: [u8; 16] = *b"device-secret-id";

    fn input(layer: u32, fmap: u32, vn: u32, idx: u32) -> BlockMacInput<'static> {
        BlockMacInput {
            device_secret: &SECRET,
            layer_id: layer,
            fmap_id: fmap,
            version: vn,
            block_index: idx,
        }
    }

    #[test]
    fn mac_distinguishes_every_coordinate() {
        let block = [7u8; 64];
        let base = block_mac(input(1, 2, 3, 4), &block);
        assert_ne!(base, block_mac(input(9, 2, 3, 4), &block), "layer id");
        assert_ne!(base, block_mac(input(1, 9, 3, 4), &block), "fmap id");
        assert_ne!(base, block_mac(input(1, 2, 9, 4), &block), "version");
        assert_ne!(base, block_mac(input(1, 2, 3, 9), &block), "block index");
        let mut tampered = block;
        tampered[63] ^= 1;
        assert_ne!(base, block_mac(input(1, 2, 3, 4), &tampered), "content");
    }

    #[test]
    fn engine_matches_reference_block_mac_exactly() {
        // The two-compression fast path must be bit-identical to the
        // incremental-hasher reference for arbitrary coordinates/content.
        let engine = BlockMacEngine::new(&SECRET);
        let mut block = [0u8; 64];
        for i in 0..50u32 {
            for (j, b) in block.iter_mut().enumerate() {
                *b = (i as u8).wrapping_mul(37).wrapping_add(j as u8);
            }
            let coords = (i, i ^ 3, i.wrapping_mul(7), u32::MAX - i);
            assert_eq!(
                engine.mac(coords.0, coords.1, coords.2, coords.3, &block),
                block_mac(
                    BlockMacInput {
                        device_secret: &SECRET,
                        layer_id: coords.0,
                        fmap_id: coords.1,
                        version: coords.2,
                        block_index: coords.3,
                    },
                    &block
                )
            );
        }
    }

    #[test]
    fn register_xor_is_order_independent_and_self_inverse() {
        let macs: Vec<[u8; 32]> = (0..8u32)
            .map(|i| block_mac(input(0, 0, 1, i), &[i as u8; 64]))
            .collect();
        let mut fwd = MacRegister::new();
        let mut rev = MacRegister::new();
        for m in &macs {
            fwd.absorb(m);
        }
        for m in macs.iter().rev() {
            rev.absorb(m);
        }
        assert_eq!(fwd, rev);
        // Absorbing everything a second time cancels out.
        for m in &macs {
            fwd.absorb(m);
        }
        assert!(fwd.is_zero());
    }

    #[test]
    fn write_read_equation_holds_for_interleaved_order() {
        // Simulate: layer writes blocks 0..16; re-reads 0..12 within the
        // layer; the next layer first-reads 12..16. Check Eq. 1.
        let blocks: Vec<[u8; 64]> = (0..16u8).map(|i| [i; 64]).collect();
        let mut mac_w = MacRegister::new();
        let mut mac_r = MacRegister::new();
        let mut mac_fr = MacRegister::new();
        for (i, b) in blocks.iter().enumerate() {
            mac_w.absorb(&block_mac(input(5, 0, 1, i as u32), b));
        }
        for i in (0..12).rev() {
            // arbitrary (reverse) order
            mac_r.absorb(&block_mac(input(5, 0, 1, i as u32), &blocks[i as usize]));
        }
        for i in 12..16 {
            mac_fr.absorb(&block_mac(input(5, 0, 1, i as u32), &blocks[i as usize]));
        }
        assert_eq!(mac_w, mac_fr.xor(&mac_r));
    }

    #[test]
    fn equation_detects_single_bit_tamper() {
        let blocks: Vec<[u8; 64]> = (0..4u8).map(|i| [i; 64]).collect();
        let mut mac_w = MacRegister::new();
        let mut mac_fr = MacRegister::new();
        for (i, b) in blocks.iter().enumerate() {
            mac_w.absorb(&block_mac(input(0, 0, 1, i as u32), b));
        }
        for (i, b) in blocks.iter().enumerate() {
            let mut read_back = *b;
            if i == 2 {
                read_back[5] ^= 0x80; // adversarial flip
            }
            mac_fr.absorb(&block_mac(input(0, 0, 1, i as u32), &read_back));
        }
        assert_ne!(mac_w, mac_fr);
    }

    #[test]
    fn equation_detects_block_swap() {
        // Swapping two blocks preserves the multiset of contents but not
        // the (index, content) pairs, so the MACs must differ.
        let a = [1u8; 64];
        let b = [2u8; 64];
        let mut written = MacRegister::new();
        written.absorb(&block_mac(input(0, 0, 1, 0), &a));
        written.absorb(&block_mac(input(0, 0, 1, 1), &b));
        let mut swapped = MacRegister::new();
        swapped.absorb(&block_mac(input(0, 0, 1, 0), &b));
        swapped.absorb(&block_mac(input(0, 0, 1, 1), &a));
        assert_ne!(written, swapped);
    }

    #[test]
    fn even_reads_of_readonly_data_cancel() {
        // Paper §6.4: if an ifmap tile is read an even number of times the
        // MAC_IR register returns to zero.
        let block = [3u8; 64];
        let m = block_mac(input(1, 0, 7, 0), &block);
        let mut ir = MacRegister::new();
        ir.absorb(&m);
        ir.absorb(&m);
        assert!(ir.is_zero());
        ir.absorb(&m);
        assert!(!ir.is_zero());
    }

    #[test]
    fn mac2_matches_two_mac_calls_on_every_backend() {
        // The interleaved pair must be bit-identical to sequential MACs
        // for every backend this host can run.
        for backend in crate::backend::available() {
            let engine = BlockMacEngine::with_backend(&SECRET, backend);
            for i in 0..20u32 {
                let block0 = [(i as u8).wrapping_mul(3); 64];
                let mut block1 = [0u8; 64];
                for (j, b) in block1.iter_mut().enumerate() {
                    *b = (i as u8) ^ (j as u8);
                }
                let c0 = [i, i ^ 1, i.wrapping_mul(5), u32::MAX - i];
                let c1 = [i + 7, i, 0, i];
                let (m0, m1) = engine.mac2(c0, &block0, c1, &block1);
                assert_eq!(m0, engine.mac(c0[0], c0[1], c0[2], c0[3], &block0));
                assert_eq!(m1, engine.mac(c1[0], c1[1], c1[2], c1[3], &block1));
            }
        }
    }

    #[test]
    fn engine_is_bit_identical_across_backends() {
        let reference = BlockMacEngine::with_backend(&SECRET, crate::backend::portable());
        for backend in crate::backend::available() {
            let engine = BlockMacEngine::with_backend(&SECRET, backend);
            for i in 0..10u32 {
                let block = [(i as u8).wrapping_mul(41).wrapping_add(1); 64];
                assert_eq!(
                    engine.mac(i, 2 * i, 3 * i, 4 * i, &block),
                    reference.mac(i, 2 * i, 3 * i, 4 * i, &block),
                    "backend {:?}",
                    backend.kind()
                );
            }
        }
    }

    #[test]
    fn display_is_hex() {
        let mut r = MacRegister::new();
        r.absorb(&[0xAB; 32]);
        assert_eq!(r.to_string().len(), 64);
        assert!(r.to_string().starts_with("abab"));
    }
}
