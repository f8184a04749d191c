//! Functional (bit-exact) secure-memory datapath: a simulated DRAM that
//! Seculator encrypts with AES-CTR and authenticates with layer-level
//! XOR-MACs, plus an adversary API that can tamper, replay, and swap
//! blocks — exactly the attacker of the paper's threat model (§3).
//!
//! This module is the *functional* counterpart of the timing engines in
//! [`crate::engine`]: the timing engines count cycles for full-size
//! networks; this datapath actually encrypts/decrypts/verifies every byte
//! and is exercised on small networks in tests and examples.

use crate::telemetry;
use rayon::prelude::*;
use seculator_crypto::backend::{self, Backend, BackendKind};
use seculator_crypto::ctr::{AesCtr, BlockCounter};
use seculator_crypto::keys::{DeviceSecret, SessionKey};
use seculator_crypto::xor_mac::{block_mac, BlockMacEngine, BlockMacInput};
use std::collections::HashMap;

/// One 64-byte ciphertext block in the simulated DRAM.
pub type Block = [u8; 64];

/// Untrusted off-chip memory: block-addressed ciphertext storage the
/// adversary has full control over.
#[derive(Debug, Clone, Default)]
pub struct UntrustedDram {
    blocks: HashMap<u64, Block>,
}

impl UntrustedDram {
    /// Creates empty DRAM.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores a ciphertext block.
    pub fn store(&mut self, addr: u64, block: Block) {
        self.blocks.insert(addr, block);
    }

    /// Loads a ciphertext block (zeroes for untouched memory).
    #[must_use]
    pub fn load(&self, addr: u64) -> Block {
        self.blocks.get(&addr).copied().unwrap_or([0u8; 64])
    }

    /// Every stored `(addr, block)` pair in ascending address order —
    /// the canonical serialization order for durable snapshots.
    #[must_use]
    pub fn sorted_blocks(&self) -> Vec<(u64, Block)> {
        let mut out: Vec<(u64, Block)> = self.blocks.iter().map(|(&a, &b)| (a, b)).collect();
        out.sort_unstable_by_key(|&(a, _)| a);
        out
    }

    /// Rebuilds DRAM from a serialized snapshot. The image is untrusted
    /// (the adversary owns this memory), so no authentication happens
    /// here — tamper is caught later by the MAC machinery.
    #[must_use]
    pub fn from_blocks(blocks: impl IntoIterator<Item = (u64, Block)>) -> Self {
        Self {
            blocks: blocks.into_iter().collect(),
        }
    }

    // ---- Adversary API (the attacker owns this memory) ----

    /// Flips one bit of a stored block (integrity attack).
    pub fn tamper_bit(&mut self, addr: u64, byte: usize, bit: u8) {
        let entry = self.blocks.entry(addr).or_insert([0u8; 64]);
        entry[byte % 64] ^= 1 << (bit % 8);
    }

    /// Overwrites a block with attacker-chosen bytes.
    pub fn overwrite(&mut self, addr: u64, block: Block) {
        self.blocks.insert(addr, block);
    }

    /// Takes a snapshot of a block for a later replay.
    #[must_use]
    pub fn snapshot(&self, addr: u64) -> Block {
        self.load(addr)
    }

    /// Replays a previously-snapshotted (stale) block.
    pub fn replay(&mut self, addr: u64, stale: Block) {
        self.blocks.insert(addr, stale);
    }

    /// Swaps the ciphertexts of two addresses (relocation attack).
    pub fn swap(&mut self, a: u64, b: u64) {
        let (ba, bb) = (self.load(a), self.load(b));
        self.store(a, bb);
        self.store(b, ba);
    }
}

/// Architectural coordinates of one block access — the inputs to both the
/// CTR counter and the MAC (paper §6.3–6.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockCoords {
    /// Feature-map / tensor id (`F`).
    pub fmap_id: u32,
    /// Id of the layer that *produced* this version of the block (`L`).
    pub layer_id: u32,
    /// Version number (`VN`).
    pub version: u32,
    /// Block index within the tensor (`I`).
    pub block_index: u32,
}

/// Which implementation the crypto datapath routes block operations
/// through. Both modes are bit-identical by construction (and by test);
/// they differ only in throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DatapathMode {
    /// Reference path: per-byte scalar AES rounds and the incremental
    /// SHA-256 hasher, one block at a time. This is what every call
    /// cost before the parallel datapath existed, kept as the
    /// benchmark baseline and equivalence oracle.
    Serial,
    /// Fast path: T-table AES, the fixed two-compression
    /// [`BlockMacEngine`], and rayon fan-out across the blocks of a
    /// batch in [`CryptoDatapath::seal_blocks`] /
    /// [`CryptoDatapath::open_blocks`].
    #[default]
    Parallel,
}

/// The on-chip crypto datapath: computes one-time pads and block MACs
/// from a device secret and per-execution session key.
#[derive(Debug, Clone)]
pub struct CryptoDatapath {
    secret: DeviceSecret,
    cipher: AesCtr,
    mac_engine: BlockMacEngine,
    mode: DatapathMode,
}

impl CryptoDatapath {
    /// Derives the datapath from the device secret and execution nonce
    /// (paper §6.3: key = hardware id ‖ boot random).
    #[must_use]
    pub fn new(secret: DeviceSecret, execution_nonce: u64) -> Self {
        Self::with_epoch(secret, execution_nonce, 0)
    }

    /// Derives the datapath for a specific *nonce epoch* — epoch 0 is the
    /// plain execution key, and every crash-resume re-keys the cipher by
    /// bumping the epoch so no CTR pad is ever generated twice even when
    /// the resumed layer repeats the interrupted layer's version numbers
    /// (see [`crate::journal`]).
    #[must_use]
    pub fn with_epoch(secret: DeviceSecret, execution_nonce: u64, epoch: u32) -> Self {
        Self::with_epoch_mode(secret, execution_nonce, epoch, DatapathMode::default())
    }

    /// [`Self::with_epoch`] with an explicit [`DatapathMode`] — the
    /// constructor the throughput benchmark uses to pit the two
    /// implementations against each other on identical inputs. The
    /// crypto backend is the process default
    /// ([`seculator_crypto::backend::default_backend`]).
    #[must_use]
    pub fn with_epoch_mode(
        secret: DeviceSecret,
        execution_nonce: u64,
        epoch: u32,
        mode: DatapathMode,
    ) -> Self {
        Self::with_epoch_mode_backend(
            secret,
            execution_nonce,
            epoch,
            mode,
            backend::default_backend(),
        )
    }

    /// [`Self::with_epoch_mode`] with an explicit crypto [`Backend`] —
    /// the fully-specified constructor behind the `--backend` CLI flag
    /// and the per-backend throughput benchmark rows.
    ///
    /// The backend governs [`DatapathMode::Parallel`] only: serial mode
    /// stays pinned to the scalar FIPS-197 rounds and the incremental
    /// SHA-256 hasher so it remains the backend-independent equivalence
    /// oracle every backend is differenced against.
    #[must_use]
    pub fn with_epoch_mode_backend(
        secret: DeviceSecret,
        execution_nonce: u64,
        epoch: u32,
        mode: DatapathMode,
        backend: Backend,
    ) -> Self {
        let key = SessionKey::derive_epoch(&secret, execution_nonce, epoch);
        let mac_engine = BlockMacEngine::with_backend(&secret.0, backend);
        Self {
            secret,
            cipher: AesCtr::with_backend(&key.0, backend),
            mac_engine,
            mode,
        }
    }

    /// The mode this datapath routes block operations through.
    #[must_use]
    pub fn mode(&self) -> DatapathMode {
        self.mode
    }

    /// The crypto backend the parallel-mode primitives execute on.
    #[must_use]
    pub fn backend(&self) -> Backend {
        self.cipher.backend()
    }

    fn counter(coords: BlockCoords) -> BlockCounter {
        BlockCounter::from_parts(
            coords.fmap_id,
            coords.layer_id,
            coords.version,
            coords.block_index,
        )
    }

    /// MAC coordinates in the `[layer, fmap, VN, index]` order
    /// [`BlockMacEngine::mac2`] takes.
    fn mac_coords(coords: BlockCoords) -> [u32; 4] {
        [
            coords.layer_id,
            coords.fmap_id,
            coords.version,
            coords.block_index,
        ]
    }

    /// Encrypts one plaintext block under its coordinates.
    #[must_use]
    pub fn encrypt(&self, coords: BlockCoords, plaintext: &Block) -> Block {
        match self.mode {
            DatapathMode::Serial => self
                .cipher
                .encrypt_block64_scalar(plaintext, Self::counter(coords)),
            DatapathMode::Parallel => self
                .cipher
                .encrypt_block64(plaintext, Self::counter(coords)),
        }
    }

    /// Decrypts one ciphertext block under its coordinates.
    #[must_use]
    pub fn decrypt(&self, coords: BlockCoords, ciphertext: &Block) -> Block {
        // CTR decryption is the same XOR; route through `encrypt` so both
        // modes share one dispatch point.
        self.encrypt(coords, ciphertext)
    }

    /// Computes the block MAC `SHA256(P ‖ L ‖ F ‖ VN ‖ I ‖ B)` over
    /// *plaintext* content.
    #[must_use]
    pub fn mac(&self, coords: BlockCoords, plaintext: &Block) -> [u8; 32] {
        match self.mode {
            DatapathMode::Serial => block_mac(
                BlockMacInput {
                    device_secret: &self.secret.0,
                    layer_id: coords.layer_id,
                    fmap_id: coords.fmap_id,
                    version: coords.version,
                    block_index: coords.block_index,
                },
                plaintext,
            ),
            DatapathMode::Parallel => self.mac_engine.mac(
                coords.layer_id,
                coords.fmap_id,
                coords.version,
                coords.block_index,
                plaintext,
            ),
        }
    }

    /// Seals a tile: for each `(coords, plaintext)` pair computes
    /// `(ciphertext, mac)`.
    ///
    /// In [`DatapathMode::Parallel`] the per-block work — CTR pad
    /// generation and MAC computation, both pure functions of the
    /// coordinates and content — fans out across the batch with rayon,
    /// modeling the paper's parallel AES/SHA engines (§6.3–6.4). Results
    /// come back in input order, so callers absorb MACs and perform
    /// stores in exactly the sequence the serial path would have; XOR
    /// aggregation makes even that ordering irrelevant to the final
    /// registers (Eq. 1).
    ///
    /// # Panics
    ///
    /// Panics if `coords.len() != blocks.len()`.
    #[must_use]
    pub fn seal_blocks(&self, coords: &[BlockCoords], blocks: &[Block]) -> Vec<(Block, [u8; 32])> {
        let _span = telemetry::span(telemetry::Hist::SealNs);
        self.seal_batch(coords, blocks)
    }

    /// [`Self::seal_blocks`] without its `seal_ns` span, for a caller
    /// whose own stage timer feeds that histogram.
    pub(crate) fn seal_batch(
        &self,
        coords: &[BlockCoords],
        blocks: &[Block],
    ) -> Vec<(Block, [u8; 32])> {
        assert_eq!(coords.len(), blocks.len(), "one coordinate tuple per block");
        // Telemetry is batch-level only: one counter bump here and one
        // timed interval per tile, never per block, so the rayon fan-out
        // stays clean.
        self.note_batch(telemetry::Counter::SealBatches, coords.len());
        match self.mode {
            DatapathMode::Serial => coords
                .iter()
                .enumerate()
                .map(|(i, &c)| (self.encrypt(c, &blocks[i]), self.mac(c, &blocks[i])))
                .collect(),
            DatapathMode::Parallel => self.batched(coords, blocks, |chunk_coords, chunk_blocks| {
                self.seal_chunk(chunk_coords, chunk_blocks)
            }),
        }
    }

    /// Chunk width of the batched parallel path: 8 blocks = 32 AES
    /// lanes, a full batch for the widest backends (bitsliced and the
    /// 8-wide interleaved `AES-NI` loop) and one [`BlockMacEngine::mac2`]
    /// pair chain per two blocks.
    const CHUNK_BLOCKS: usize = 8;

    /// Fans a tile out across rayon workers in [`Self::CHUNK_BLOCKS`]
    /// chunks, concatenating the per-chunk results in input order (the
    /// shim's `collect` is order-preserving, so this is bit-identical to
    /// the serial sweep for any thread count).
    fn batched<F>(
        &self,
        coords: &[BlockCoords],
        blocks: &[Block],
        per_chunk: F,
    ) -> Vec<(Block, [u8; 32])>
    where
        F: Fn(&[BlockCoords], &[Block]) -> Vec<(Block, [u8; 32])> + Sync,
    {
        let ranges: Vec<(usize, usize)> = (0..coords.len())
            .step_by(Self::CHUNK_BLOCKS)
            .map(|lo| (lo, (lo + Self::CHUNK_BLOCKS).min(coords.len())))
            .collect();
        let chunks: Vec<Vec<(Block, [u8; 32])>> = ranges
            .par_iter()
            .map(|&(lo, hi)| per_chunk(&coords[lo..hi], &blocks[lo..hi]))
            .collect();
        chunks.into_iter().flatten().collect()
    }

    /// Seals one chunk through the batched backend primitives: one
    /// `pads_into` call for every AES lane in the chunk, an XOR sweep,
    /// then paired `mac2` compressions over the plaintext (odd tail via
    /// the single-block `mac`).
    fn seal_chunk(&self, coords: &[BlockCoords], blocks: &[Block]) -> Vec<(Block, [u8; 32])> {
        let counters: Vec<BlockCounter> = coords.iter().map(|&c| Self::counter(c)).collect();
        let mut pads = [[0u8; 64]; Self::CHUNK_BLOCKS];
        self.cipher.pads_into(&counters, &mut pads[..coords.len()]);
        let mut out: Vec<(Block, [u8; 32])> = Vec::with_capacity(coords.len());
        for (pad, pt) in pads.iter_mut().zip(blocks.iter()) {
            for (o, p) in pad.iter_mut().zip(pt.iter()) {
                *o ^= p;
            }
            out.push((*pad, [0u8; 32]));
        }
        self.mac_chunk_into(coords, blocks, &mut out);
        out
    }

    /// Opens one chunk: pads, XOR back to plaintext, then the same
    /// paired MAC sweep over the recovered plaintext.
    fn open_chunk(&self, coords: &[BlockCoords], blocks: &[Block]) -> Vec<(Block, [u8; 32])> {
        let counters: Vec<BlockCounter> = coords.iter().map(|&c| Self::counter(c)).collect();
        let mut pads = [[0u8; 64]; Self::CHUNK_BLOCKS];
        self.cipher.pads_into(&counters, &mut pads[..coords.len()]);
        let mut out: Vec<(Block, [u8; 32])> = Vec::with_capacity(coords.len());
        for (pad, ct) in pads.iter_mut().zip(blocks.iter()) {
            for (o, c) in pad.iter_mut().zip(ct.iter()) {
                *o ^= c;
            }
            out.push((*pad, [0u8; 32]));
        }
        let plaintexts: Vec<Block> = out.iter().map(|(pt, _)| *pt).collect();
        self.mac_chunk_into(coords, &plaintexts, &mut out);
        out
    }

    /// Fills the MAC halves of `out` from `plaintexts`, two blocks per
    /// [`BlockMacEngine::mac2`] call so the interleaved SHA compressions
    /// stay saturated.
    fn mac_chunk_into(
        &self,
        coords: &[BlockCoords],
        plaintexts: &[Block],
        out: &mut [(Block, [u8; 32])],
    ) {
        let mut i = 0;
        while i + 1 < coords.len() {
            let (m0, m1) = self.mac_engine.mac2(
                Self::mac_coords(coords[i]),
                &plaintexts[i],
                Self::mac_coords(coords[i + 1]),
                &plaintexts[i + 1],
            );
            out[i].1 = m0;
            out[i + 1].1 = m1;
            i += 2;
        }
        if i < coords.len() {
            out[i].1 = self.mac(coords[i], &plaintexts[i]);
        }
    }

    /// Batch-level telemetry shared by [`Self::seal_blocks`] and
    /// [`Self::open_blocks`]: the batch counter, its per-block twin, the
    /// AES path split by mode, the MAC-block total, and the
    /// `backend_dispatch` family attributing every block to the backend
    /// that actually executed it (serial mode always runs the scalar
    /// reference, which is the portable implementation).
    fn note_batch(&self, batch_counter: telemetry::Counter, blocks: usize) {
        let n = blocks as u64;
        telemetry::incr(batch_counter);
        telemetry::add(
            match batch_counter {
                telemetry::Counter::SealBatches => telemetry::Counter::SealBlocks,
                _ => telemetry::Counter::OpenBlocks,
            },
            n,
        );
        telemetry::add(
            match self.mode {
                DatapathMode::Serial => telemetry::Counter::AesBlocksSerial,
                DatapathMode::Parallel => telemetry::Counter::AesBlocksParallel,
            },
            n,
        );
        telemetry::add(telemetry::Counter::MacBlocks, n);
        let kind = match self.mode {
            DatapathMode::Serial => BackendKind::Portable,
            DatapathMode::Parallel => self.backend().kind(),
        };
        telemetry::add(
            match kind {
                BackendKind::Portable => telemetry::Counter::BackendPortableBlocks,
                BackendKind::Bitsliced => telemetry::Counter::BackendBitslicedBlocks,
                BackendKind::AesNi => telemetry::Counter::BackendAesNiBlocks,
            },
            n,
        );
    }

    /// Opens a tile: for each `(coords, ciphertext)` pair computes
    /// `(plaintext, mac-over-plaintext)`. The parallel-mode contract is
    /// the same as [`Self::seal_blocks`].
    ///
    /// # Panics
    ///
    /// Panics if `coords.len() != blocks.len()`.
    #[must_use]
    pub fn open_blocks(&self, coords: &[BlockCoords], blocks: &[Block]) -> Vec<(Block, [u8; 32])> {
        let _span = telemetry::span(telemetry::Hist::OpenNs);
        self.open_batch(coords, blocks)
    }

    /// [`Self::open_blocks`] without its `open_ns` span, for a caller
    /// whose own stage timer feeds that histogram.
    pub(crate) fn open_batch(
        &self,
        coords: &[BlockCoords],
        blocks: &[Block],
    ) -> Vec<(Block, [u8; 32])> {
        assert_eq!(coords.len(), blocks.len(), "one coordinate tuple per block");
        self.note_batch(telemetry::Counter::OpenBatches, coords.len());
        match self.mode {
            DatapathMode::Serial => coords
                .iter()
                .enumerate()
                .map(|(i, &c)| {
                    let pt = self.decrypt(c, &blocks[i]);
                    let mac = self.mac(c, &pt);
                    (pt, mac)
                })
                .collect(),
            DatapathMode::Parallel => self.batched(coords, blocks, |chunk_coords, chunk_blocks| {
                self.open_chunk(chunk_coords, chunk_blocks)
            }),
        }
    }

    /// Writes a block: MAC the plaintext, encrypt, store. Returns the MAC
    /// for the caller's aggregation registers.
    pub fn write_block(
        &self,
        dram: &mut UntrustedDram,
        addr: u64,
        coords: BlockCoords,
        plaintext: &Block,
    ) -> [u8; 32] {
        let mac = self.mac(coords, plaintext);
        dram.store(addr, self.encrypt(coords, plaintext));
        mac
    }

    /// Reads a block: load, decrypt, MAC the recovered plaintext. Returns
    /// `(plaintext, mac)`; the MAC only matches the writer's if the
    /// ciphertext, address binding, and version were all intact.
    pub fn read_block(
        &self,
        dram: &UntrustedDram,
        addr: u64,
        coords: BlockCoords,
    ) -> (Block, [u8; 32]) {
        let plaintext = self.decrypt(coords, &dram.load(addr));
        let mac = self.mac(coords, &plaintext);
        (plaintext, mac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn datapath() -> CryptoDatapath {
        CryptoDatapath::new(DeviceSecret::from_seed(1), 42)
    }

    fn coords(vn: u32, idx: u32) -> BlockCoords {
        BlockCoords {
            fmap_id: 3,
            layer_id: 1,
            version: vn,
            block_index: idx,
        }
    }

    #[test]
    fn write_read_roundtrip_preserves_content_and_mac() {
        let dp = datapath();
        let mut dram = UntrustedDram::new();
        let pt: Block = [7u8; 64];
        let wmac = dp.write_block(&mut dram, 0x1000, coords(1, 0), &pt);
        let (rpt, rmac) = dp.read_block(&dram, 0x1000, coords(1, 0));
        assert_eq!(rpt, pt);
        assert_eq!(rmac, wmac);
    }

    #[test]
    fn ciphertext_differs_from_plaintext_and_across_versions() {
        let dp = datapath();
        let pt: Block = [9u8; 64];
        let c1 = dp.encrypt(coords(1, 0), &pt);
        let c2 = dp.encrypt(coords(2, 0), &pt);
        assert_ne!(c1, pt);
        assert_ne!(c1, c2, "freshness: new VN ⇒ new ciphertext for same data");
    }

    #[test]
    fn tampering_changes_the_recovered_mac() {
        let dp = datapath();
        let mut dram = UntrustedDram::new();
        let wmac = dp.write_block(&mut dram, 0, coords(1, 0), &[1u8; 64]);
        dram.tamper_bit(0, 13, 5);
        let (_, rmac) = dp.read_block(&dram, 0, coords(1, 0));
        assert_ne!(rmac, wmac);
    }

    #[test]
    fn replayed_stale_ciphertext_fails_the_mac() {
        let dp = datapath();
        let mut dram = UntrustedDram::new();
        dp.write_block(&mut dram, 0, coords(1, 0), &[1u8; 64]);
        let stale = dram.snapshot(0);
        let wmac2 = dp.write_block(&mut dram, 0, coords(2, 0), &[2u8; 64]);
        dram.replay(0, stale);
        // Reader expects version 2.
        let (_, rmac) = dp.read_block(&dram, 0, coords(2, 0));
        assert_ne!(
            rmac, wmac2,
            "stale data under a new VN must not authenticate"
        );
    }

    #[test]
    fn swapped_blocks_fail_because_macs_bind_the_index() {
        let dp = datapath();
        let mut dram = UntrustedDram::new();
        let m0 = dp.write_block(&mut dram, 0, coords(1, 0), &[1u8; 64]);
        let m1 = dp.write_block(&mut dram, 64, coords(1, 1), &[2u8; 64]);
        dram.swap(0, 64);
        let (_, r0) = dp.read_block(&dram, 0, coords(1, 0));
        let (_, r1) = dp.read_block(&dram, 64, coords(1, 1));
        assert_ne!(r0, m0);
        assert_ne!(r1, m1);
    }

    #[test]
    fn different_execution_nonces_produce_different_ciphertexts() {
        let a = CryptoDatapath::new(DeviceSecret::from_seed(1), 1);
        let b = CryptoDatapath::new(DeviceSecret::from_seed(1), 2);
        let pt: Block = [3u8; 64];
        assert_ne!(a.encrypt(coords(1, 0), &pt), b.encrypt(coords(1, 0), &pt));
    }

    #[test]
    fn epoch_rekeys_the_cipher_but_not_the_macs() {
        let e0 = CryptoDatapath::with_epoch(DeviceSecret::from_seed(1), 42, 0);
        let e1 = CryptoDatapath::with_epoch(DeviceSecret::from_seed(1), 42, 1);
        let pt: Block = [5u8; 64];
        // Same coordinates, different epoch ⇒ different pad ⇒ different
        // ciphertext (no counter reuse across a crash-resume)...
        assert_ne!(e0.encrypt(coords(1, 0), &pt), e1.encrypt(coords(1, 0), &pt));
        // ...while the plaintext-bound MAC is epoch-independent, which is
        // what lets a resumed run verify a pre-crash layer's output.
        assert_eq!(e0.mac(coords(1, 0), &pt), e1.mac(coords(1, 0), &pt));
    }

    fn tile(n: u32) -> (Vec<BlockCoords>, Vec<Block>) {
        let coords: Vec<BlockCoords> = (0..n).map(|i| coords(1, i)).collect();
        let blocks: Vec<Block> = (0..n)
            .map(|i| {
                let mut b = [0u8; 64];
                for (j, byte) in b.iter_mut().enumerate() {
                    *byte = (i as u8).wrapping_mul(31).wrapping_add(j as u8);
                }
                b
            })
            .collect();
        (coords, blocks)
    }

    #[test]
    fn serial_and_parallel_datapaths_are_bit_identical() {
        let secret = DeviceSecret::from_seed(1);
        let serial = CryptoDatapath::with_epoch_mode(secret, 42, 0, DatapathMode::Serial);
        let parallel = CryptoDatapath::with_epoch_mode(secret, 42, 0, DatapathMode::Parallel);
        let (coords, blocks) = tile(100);
        let sealed_s = serial.seal_blocks(&coords, &blocks);
        let sealed_p = parallel.seal_blocks(&coords, &blocks);
        assert_eq!(sealed_s, sealed_p, "seal: same ciphertext, same MACs");
        let cts: Vec<Block> = sealed_p.iter().map(|(ct, _)| *ct).collect();
        let opened_s = serial.open_blocks(&coords, &cts);
        let opened_p = parallel.open_blocks(&coords, &cts);
        assert_eq!(opened_s, opened_p, "open: same plaintext, same MACs");
        for (i, (pt, mac)) in opened_p.iter().enumerate() {
            assert_eq!(*pt, blocks[i], "roundtrip recovers the tile");
            assert_eq!(*mac, sealed_p[i].1, "read MAC matches write MAC");
        }
    }

    #[test]
    fn every_available_backend_is_bit_identical_to_the_serial_oracle() {
        // Ragged lengths exercise the chunked path's partial final chunk
        // (odd tails hit the single-block MAC fallback).
        let secret = DeviceSecret::from_seed(7);
        let serial = CryptoDatapath::with_epoch_mode(secret, 99, 0, DatapathMode::Serial);
        for n in [1u32, 2, 7, 8, 9, 15, 16, 33, 100] {
            let (coords, blocks) = tile(n);
            let want_sealed = serial.seal_blocks(&coords, &blocks);
            let cts: Vec<Block> = want_sealed.iter().map(|(ct, _)| *ct).collect();
            let want_opened = serial.open_blocks(&coords, &cts);
            for b in seculator_crypto::backend::available() {
                let dp = CryptoDatapath::with_epoch_mode_backend(
                    secret,
                    99,
                    0,
                    DatapathMode::Parallel,
                    b,
                );
                assert_eq!(dp.backend().kind(), b.kind());
                assert_eq!(
                    dp.seal_blocks(&coords, &blocks),
                    want_sealed,
                    "seal n={n} backend {:?}",
                    b.kind()
                );
                assert_eq!(
                    dp.open_blocks(&coords, &cts),
                    want_opened,
                    "open n={n} backend {:?}",
                    b.kind()
                );
            }
        }
    }

    #[test]
    fn parallel_mac_fold_equals_sequential_fold() {
        // The XOR fold of per-block MACs must not depend on how the batch
        // was split across workers: absorb the batched results in input
        // order, in reverse, and via a pairwise reduction — all three
        // registers must agree with the one built by per-block serial
        // calls.
        use seculator_crypto::xor_mac::MacRegister;
        let dp = datapath();
        let (coords, blocks) = tile(64);
        let sealed = dp.seal_blocks(&coords, &blocks);
        let mut serial_reg = MacRegister::new();
        for (c, b) in coords.iter().zip(blocks.iter()) {
            serial_reg.absorb(&dp.mac(*c, b));
        }
        let mut fwd = MacRegister::new();
        let mut rev = MacRegister::new();
        for (_, m) in &sealed {
            fwd.absorb(m);
        }
        for (_, m) in sealed.iter().rev() {
            rev.absorb(m);
        }
        let reduced = sealed
            .iter()
            .map(|(_, m)| MacRegister::from_value(*m))
            .fold(MacRegister::new(), |a, b| a.xor(&b));
        assert_eq!(serial_reg, fwd);
        assert_eq!(serial_reg, rev);
        assert_eq!(serial_reg, reduced);
    }

    #[test]
    fn untouched_memory_reads_as_zero_ciphertext() {
        let dram = UntrustedDram::new();
        assert_eq!(dram.load(0xDEAD), [0u8; 64]);
        assert!(dram.blocks.is_empty());
    }
}
