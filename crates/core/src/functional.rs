//! End-to-end *functional* execution of a network under Seculator's
//! protections: every tile transfer of the schedule really encrypts,
//! decrypts, MACs and verifies, against an adversary-controlled DRAM.
//!
//! Tile contents are synthetic (a deterministic function of the tile's
//! coordinates) — the integrity/freshness machinery is agnostic to the
//! arithmetic the PE array performs, so this exercises exactly the
//! security-relevant code paths at a fraction of the cost of real
//! convolution arithmetic.

use crate::mac_verify::{LayerMacVerifier, ReadOnlyVerifier};
use crate::secure_memory::{Block, BlockCoords, CryptoDatapath, UntrustedDram};
use crate::vngen::VnGenerator;
use seculator_arch::dataflow::ReadFactor;
use seculator_arch::trace::{AccessOp, LayerSchedule, TensorClass};
use seculator_crypto::keys::DeviceSecret;
use seculator_crypto::xor_mac::MacRegister;
use seculator_sim::address::{AddressAllocator, TensorRegion};

pub use crate::error::SecurityError;

/// An attack to inject at a chosen point of the run (between schedule
/// steps), driving the adversary API of [`UntrustedDram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attack {
    /// Flip one bit of the `block_index`-th block of layer `layer_id`'s
    /// ofmap after it was written.
    TamperOfmap {
        /// Producing layer.
        layer_id: u32,
        /// Block index within the ofmap tensor.
        block_index: u64,
    },
    /// Snapshot the block at its first version and replay it after the
    /// final version was written.
    ReplayOfmap {
        /// Producing layer.
        layer_id: u32,
        /// Block index within the ofmap tensor.
        block_index: u64,
    },
    /// Swap two blocks of the ofmap tensor after the layer completes.
    SwapOfmapBlocks {
        /// Producing layer.
        layer_id: u32,
        /// First block.
        a: u64,
        /// Second block.
        b: u64,
    },
    /// Flip a bit in a weight block before the layer runs.
    TamperWeights {
        /// Layer whose weights to corrupt.
        layer_id: u32,
        /// Block index within the weight tensor.
        block_index: u64,
    },
}

/// Per-layer tensor bindings in the simulated address space.
#[derive(Debug, Clone, Copy)]
struct LayerRegions {
    ifmap: TensorRegion,
    weights: Option<TensorRegion>,
    ofmap: TensorRegion,
    /// Layer id that produced the ifmap contents (MACs bind to it).
    ifmap_producer: u32,
    /// VN the ifmap carries.
    ifmap_vn: u32,
}

/// Result of a functional run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionalReport {
    /// Blocks written to DRAM over the whole run.
    pub blocks_written: u64,
    /// Blocks read from DRAM.
    pub blocks_read: u64,
    /// Layer verifications that passed.
    pub layers_verified: u32,
}

/// Blocks occupied by one tile when tiles are laid out block-aligned
/// (tile `i` owns blocks `[i·bpt, (i+1)·bpt)` with
/// `bpt = ⌈tile_bytes / 64⌉`). Alignment guarantees distinct tiles never
/// share a block, which the XOR-MAC aggregation relies on.
fn tile_blocks(tile: u64, tile_bytes: u64) -> std::ops::Range<u64> {
    let bpt = tile_bytes.div_ceil(64);
    tile * bpt..(tile + 1) * bpt
}

/// Region size for `tiles` block-aligned tiles of `tile_bytes` each.
fn region_bytes(tiles: u64, tile_bytes: u64) -> u64 {
    tiles * tile_bytes.div_ceil(64) * 64
}

/// Deterministic synthetic plaintext for a block: a keyed fill pattern
/// over the block's coordinates, so re-reads can recompute the expected
/// content without shadow storage.
fn synthetic_block(fmap: u32, layer: u32, vn: u32, index: u64) -> Block {
    let mut b = [0u8; 64];
    let seed = (u64::from(fmap) << 48)
        ^ (u64::from(layer) << 40)
        ^ (u64::from(vn) << 32)
        ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for (i, byte) in b.iter_mut().enumerate() {
        *byte = ((seed >> (8 * (i % 8))) as u8).wrapping_add(i as u8);
    }
    b
}

/// Functional Seculator executor over a sequence of per-layer schedules.
#[derive(Debug)]
pub struct FunctionalNpu {
    datapath: CryptoDatapath,
    dram: UntrustedDram,
    verifier: LayerMacVerifier,
    attacks: Vec<Attack>,
    report: FunctionalReport,
}

impl FunctionalNpu {
    /// Creates an executor with a fresh session key.
    #[must_use]
    pub fn new(secret: DeviceSecret, execution_nonce: u64) -> Self {
        Self {
            datapath: CryptoDatapath::new(secret, execution_nonce),
            dram: UntrustedDram::new(),
            verifier: LayerMacVerifier::new(),
            attacks: Vec::new(),
            report: FunctionalReport {
                blocks_written: 0,
                blocks_read: 0,
                layers_verified: 0,
            },
        }
    }

    /// Queues an attack for injection during the run.
    pub fn inject(&mut self, attack: Attack) {
        self.attacks.push(attack);
    }

    /// Runs the given per-layer schedules as one network. Layer `i+1`'s
    /// ifmap is layer `i`'s ofmap. Tile partitions must tile the tensors
    /// exactly (the mapper's divisible tilings guarantee this).
    ///
    /// # Errors
    ///
    /// Returns the first [`SecurityError`] detected. An error is the
    /// *desired* outcome when an [`Attack`] was injected.
    pub fn run(&mut self, schedules: &[LayerSchedule]) -> Result<FunctionalReport, SecurityError> {
        let mut alloc = AddressAllocator::new();
        // Input image region (producer "layer" id = u32::MAX sentinel 0
        // is fine as long as it is consistent; we use the first layer's
        // id with vn 0 and pre-populate DRAM as the host would).
        let mut regions: Vec<LayerRegions> = Vec::with_capacity(schedules.len());
        let input_region = alloc.alloc(
            schedules
                .first()
                .map(|s| region_bytes(s.ifmap_tiles(), s.ifmap_tile_bytes()))
                .unwrap_or(0),
        );
        let mut prev_ofmap: Option<(TensorRegion, u32, u32)> = None; // (region, producer, vn)
        for s in schedules {
            let (ifmap, producer, vn) = match prev_ofmap {
                Some(x) => x,
                None => (input_region, u32::MAX, 1),
            };
            let weights = (s.weight_tile_bytes() > 0).then(|| {
                alloc.alloc(region_bytes(
                    u64::from(s.spec().alphas.alpha_c) * u64::from(s.spec().alphas.alpha_k),
                    s.weight_tile_bytes(),
                ))
            });
            let ofmap = alloc.alloc(region_bytes(s.ofmap_tiles(), s.ofmap_tile_bytes()));
            regions.push(LayerRegions {
                ifmap,
                weights,
                ofmap,
                ifmap_producer: producer,
                ifmap_vn: vn,
            });
            prev_ofmap = Some((ofmap, s.layer().id, s.write_pattern().final_vn()));
        }

        // Host provisions the encrypted input image and weights.
        self.provision_tensor(input_region, u32::MAX, 1);
        let mut weight_refs: Vec<Option<MacRegister>> = Vec::with_capacity(schedules.len());
        for (s, r) in schedules.iter().zip(&regions) {
            weight_refs.push(
                r.weights
                    .map(|w| self.provision_tensor(w, weight_producer_id(s.layer().id), 1)),
            );
        }

        // Pre-run attacks on weights.
        let weight_attacks: Vec<Attack> = self
            .attacks
            .iter()
            .copied()
            .filter(|a| matches!(a, Attack::TamperWeights { .. }))
            .collect();
        for a in weight_attacks {
            if let Attack::TamperWeights {
                layer_id,
                block_index,
            } = a
            {
                if let Some(region) = regions.get(layer_id as usize).and_then(|r| r.weights) {
                    let addr = region.block_addr(block_index % region.blocks().max(1));
                    self.dram.tamper_bit(addr, 0, 0);
                }
            }
        }

        for (idx, s) in schedules.iter().enumerate() {
            self.run_layer(s, &regions[idx], weight_refs[idx].as_ref())?;
            self.apply_post_layer_attacks(s.layer().id, &regions[idx]);
        }

        // Host drains the last layer's output and closes its equation.
        if let Some((s, r)) = schedules.last().zip(regions.last()) {
            let final_vn = s.write_pattern().final_vn();
            for b in 0..r.ofmap.blocks() {
                let coords = BlockCoords {
                    fmap_id: r.ofmap.fmap_id,
                    layer_id: s.layer().id,
                    version: final_vn,
                    block_index: b as u32,
                };
                let (_, mac) = self
                    .datapath
                    .read_block(&self.dram, r.ofmap.block_addr(b), coords);
                self.report.blocks_read += 1;
                self.verifier.record_output_drain(&mac);
            }
            if !self.verifier.finish().is_verified() {
                return Err(SecurityError::OutputIntegrity);
            }
        }
        Ok(self.report.clone())
    }

    /// Writes a tensor into DRAM as the host would (encrypted, version 1)
    /// and returns its aggregate reference MAC.
    fn provision_tensor(&mut self, region: TensorRegion, layer_id: u32, vn: u32) -> MacRegister {
        let mut agg = MacRegister::new();
        for b in 0..region.blocks() {
            let coords = BlockCoords {
                fmap_id: region.fmap_id,
                layer_id,
                version: vn,
                block_index: b as u32,
            };
            let content = synthetic_block(region.fmap_id, layer_id, vn, b);
            let mac =
                self.datapath
                    .write_block(&mut self.dram, region.block_addr(b), coords, &content);
            agg.absorb(&mac);
            self.report.blocks_written += 1;
        }
        agg
    }

    fn apply_post_layer_attacks(&mut self, layer_id: u32, r: &LayerRegions) {
        let attacks: Vec<Attack> = self.attacks.clone();
        for a in attacks {
            match a {
                Attack::TamperOfmap {
                    layer_id: l,
                    block_index,
                } if l == layer_id => {
                    let addr = r.ofmap.block_addr(block_index % r.ofmap.blocks().max(1));
                    self.dram.tamper_bit(addr, 7, 3);
                }
                Attack::SwapOfmapBlocks { layer_id: l, a, b } if l == layer_id => {
                    let blocks = r.ofmap.blocks().max(1);
                    self.dram.swap(
                        r.ofmap.block_addr(a % blocks),
                        r.ofmap.block_addr(b % blocks),
                    );
                }
                _ => {}
            }
        }
    }

    #[allow(clippy::too_many_lines)]
    fn run_layer(
        &mut self,
        s: &LayerSchedule,
        r: &LayerRegions,
        weight_ref: Option<&MacRegister>,
    ) -> Result<(), SecurityError> {
        self.verifier.begin_layer();
        let mut vngen = VnGenerator::new(s.write_pattern(), s.read_pattern(), r.ifmap_vn);
        let mut weights = ReadOnlyVerifier::new();
        let layer_id = s.layer().id;
        let ifmap_tile_b = s.ifmap_tile_bytes();
        let weight_tile_b = s.weight_tile_bytes();
        let ofmap_tile_b = s.ofmap_tile_bytes();

        // Replay attack bookkeeping: snapshot target blocks after their
        // first write, restore after their last write.
        let replay_targets: Vec<u64> = self
            .attacks
            .iter()
            .filter_map(|a| match a {
                Attack::ReplayOfmap {
                    layer_id: l,
                    block_index,
                } if *l == layer_id => Some(*block_index % r.ofmap.blocks().max(1)),
                _ => None,
            })
            .collect();
        let mut replay_snapshots: std::collections::HashMap<u64, Block> =
            std::collections::HashMap::new();

        let mut error: Option<SecurityError> = None;
        s.for_each_step(|step| {
            if error.is_some() {
                return;
            }
            for a in &step.accesses {
                match (a.tensor, a.op) {
                    (TensorClass::Ifmap, AccessOp::Read) => {
                        for b in tile_blocks(a.tile, ifmap_tile_b) {
                            let coords = BlockCoords {
                                fmap_id: r.ifmap.fmap_id,
                                layer_id: r.ifmap_producer,
                                version: r.ifmap_vn,
                                block_index: b as u32,
                            };
                            let (_, mac) =
                                self.datapath
                                    .read_block(&self.dram, r.ifmap.block_addr(b), coords);
                            self.report.blocks_read += 1;
                            if a.first_read {
                                self.verifier.on_first_read(&mac);
                            }
                        }
                    }
                    (TensorClass::Weight, AccessOp::Read) => {
                        let Some(w) = r.weights else {
                            error = Some(SecurityError::MissingRegion {
                                layer_id,
                                tensor: "weights",
                            });
                            return;
                        };
                        for b in tile_blocks(a.tile, weight_tile_b) {
                            let coords = BlockCoords {
                                fmap_id: w.fmap_id,
                                layer_id: weight_producer_id(layer_id),
                                version: 1,
                                block_index: b as u32,
                            };
                            let (_, mac) =
                                self.datapath
                                    .read_block(&self.dram, w.block_addr(b), coords);
                            self.report.blocks_read += 1;
                            weights.on_read(&mac, a.first_read);
                        }
                    }
                    (TensorClass::Ofmap, AccessOp::Read) => {
                        let Some(vn) = vngen.next_read_vn() else {
                            error = Some(SecurityError::VnExhausted {
                                layer_id,
                                write: false,
                            });
                            return;
                        };
                        debug_assert_eq!(vn, a.vn, "generator must agree with schedule");
                        for b in tile_blocks(a.tile, ofmap_tile_b) {
                            let coords = BlockCoords {
                                fmap_id: r.ofmap.fmap_id,
                                layer_id,
                                version: vn,
                                block_index: b as u32,
                            };
                            let (_, mac) =
                                self.datapath
                                    .read_block(&self.dram, r.ofmap.block_addr(b), coords);
                            self.report.blocks_read += 1;
                            self.verifier.on_read(&mac);
                        }
                    }
                    (TensorClass::Ofmap, AccessOp::Write) => {
                        let Some(vn) = vngen.next_write_vn() else {
                            error = Some(SecurityError::VnExhausted {
                                layer_id,
                                write: true,
                            });
                            return;
                        };
                        debug_assert_eq!(vn, a.vn, "generator must agree with schedule");
                        for b in tile_blocks(a.tile, ofmap_tile_b) {
                            let coords = BlockCoords {
                                fmap_id: r.ofmap.fmap_id,
                                layer_id,
                                version: vn,
                                block_index: b as u32,
                            };
                            let content = synthetic_block(r.ofmap.fmap_id, layer_id, vn, b);
                            let mac = self.datapath.write_block(
                                &mut self.dram,
                                r.ofmap.block_addr(b),
                                coords,
                                &content,
                            );
                            self.report.blocks_written += 1;
                            self.verifier.on_write(&mac);
                            // Replay machinery.
                            if replay_targets.contains(&b) {
                                if a.vn == 1 {
                                    replay_snapshots
                                        .insert(b, self.dram.snapshot(r.ofmap.block_addr(b)));
                                } else if a.last_write {
                                    if let Some(stale) = replay_snapshots.get(&b) {
                                        self.dram.replay(r.ofmap.block_addr(b), *stale);
                                    }
                                }
                            }
                        }
                    }
                    _ => {
                        error = Some(SecurityError::MalformedAccess {
                            layer_id,
                            access: "write to a read-only tensor class",
                        });
                    }
                }
            }
        });
        if let Some(e) = error.take() {
            return Err(e);
        }

        // Single-version tiles (write pattern 1^x) have no in-layer
        // replay window; replay them now, before the next layer reads.
        if !replay_targets.is_empty() && s.write_pattern().final_vn() == 1 {
            // Re-snapshot trick does not apply: with one version there is
            // no stale ciphertext; overwrite with garbage instead so the
            // attack is still meaningful.
            for b in &replay_targets {
                self.dram.tamper_bit(r.ofmap.block_addr(*b), 1, 1);
            }
        }

        // Verify read-only weights.
        if let Some(reference) = weight_ref {
            let odd = weight_read_parity(s);
            if !weights.verify(reference, odd).is_verified() {
                return Err(SecurityError::WeightIntegrity { layer_id });
            }
        }

        // Closing the boundary check verifies the *previous* layer.
        if !self.verifier.end_layer().is_verified() {
            return Err(SecurityError::LayerIntegrity {
                layer_id: layer_id.saturating_sub(1),
            });
        }
        self.report.layers_verified += 1;
        Ok(())
    }
}

/// Weights are provisioned by the host; their MACs use a per-layer
/// pseudo-producer id so different layers' weights can never be confused.
fn weight_producer_id(layer_id: u32) -> u32 {
    0x8000_0000 | layer_id
}

/// Whether every weight tile is read an odd number of times under the
/// schedule (determines the expected `MAC_IR` residue, paper §6.4).
fn weight_read_parity(s: &LayerSchedule) -> bool {
    use seculator_arch::dataflow::ScheduleShape;
    let reads_per_tile = match s.spec().weight_factor {
        ReadFactor::Once => 1,
        _ => match s.spec().shape {
            ScheduleShape::SingleWrite
            | ScheduleShape::AccumAlongChannel
            | ScheduleShape::AccumAlongSpace => u64::from(s.spec().alphas.alpha_hw),
        },
    };
    reads_per_tile % 2 == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use seculator_arch::dataflow::{ConvDataflow, Dataflow};
    use seculator_arch::layer::{ConvShape, LayerDesc, LayerKind};
    use seculator_arch::tiling::TileConfig;

    fn two_layer_schedules() -> Vec<LayerSchedule> {
        // 16x16 fmaps, divisible tilings; layer 1 consumes layer 0's 8
        // output channels.
        let l0 = LayerDesc::new(0, LayerKind::Conv(ConvShape::simple(8, 4, 16, 3)));
        let l1 = LayerDesc::new(1, LayerKind::Conv(ConvShape::simple(4, 8, 16, 3)));
        let t = TileConfig {
            kt: 4,
            ct: 2,
            ht: 8,
            wt: 8,
        };
        vec![
            LayerSchedule::new(
                l0,
                Dataflow::Conv(ConvDataflow::IrMultiChannelAlongChannel),
                t,
            )
            .unwrap(),
            LayerSchedule::new(
                l1,
                Dataflow::Conv(ConvDataflow::IrMultiChannelAlongChannel),
                t,
            )
            .unwrap(),
        ]
    }

    #[test]
    fn clean_run_verifies_all_layers() {
        let mut npu = FunctionalNpu::new(DeviceSecret::from_seed(7), 1);
        let report = npu
            .run(&two_layer_schedules())
            .expect("clean run must verify");
        assert!(report.blocks_written > 0);
        assert!(report.blocks_read > 0);
    }

    #[test]
    fn ofmap_tamper_is_detected() {
        let mut npu = FunctionalNpu::new(DeviceSecret::from_seed(7), 1);
        npu.inject(Attack::TamperOfmap {
            layer_id: 0,
            block_index: 3,
        });
        let err = npu.run(&two_layer_schedules()).unwrap_err();
        assert!(
            matches!(err, SecurityError::LayerIntegrity { layer_id: 0 }),
            "{err:?}"
        );
    }

    #[test]
    fn last_layer_tamper_is_caught_at_output_drain() {
        let mut npu = FunctionalNpu::new(DeviceSecret::from_seed(7), 1);
        npu.inject(Attack::TamperOfmap {
            layer_id: 1,
            block_index: 0,
        });
        let err = npu.run(&two_layer_schedules()).unwrap_err();
        assert_eq!(err, SecurityError::OutputIntegrity);
    }

    #[test]
    fn replay_attack_is_detected() {
        let mut npu = FunctionalNpu::new(DeviceSecret::from_seed(7), 1);
        npu.inject(Attack::ReplayOfmap {
            layer_id: 0,
            block_index: 1,
        });
        let err = npu.run(&two_layer_schedules()).unwrap_err();
        assert!(
            matches!(err, SecurityError::LayerIntegrity { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn block_swap_is_detected() {
        let mut npu = FunctionalNpu::new(DeviceSecret::from_seed(7), 1);
        npu.inject(Attack::SwapOfmapBlocks {
            layer_id: 0,
            a: 0,
            b: 5,
        });
        let err = npu.run(&two_layer_schedules()).unwrap_err();
        assert!(
            matches!(err, SecurityError::LayerIntegrity { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn weight_tamper_is_detected() {
        let mut npu = FunctionalNpu::new(DeviceSecret::from_seed(7), 1);
        npu.inject(Attack::TamperWeights {
            layer_id: 1,
            block_index: 2,
        });
        let err = npu.run(&two_layer_schedules()).unwrap_err();
        assert_eq!(err, SecurityError::WeightIntegrity { layer_id: 1 });
    }
}
