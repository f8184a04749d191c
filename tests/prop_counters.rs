//! Counter-uniqueness: the security of AES-CTR collapses if any
//! (key, counter) pair is ever reused. Seculator's counters are built
//! from `(fmap id, layer id, VN, block index)`, so uniqueness must hold
//! *structurally* across a whole network execution: every block write
//! uses a coordinate tuple no other write uses.

use proptest::prelude::*;
use seculator::arch::dataflow::{ConvDataflow, Dataflow};
use seculator::arch::layer::{ConvShape, LayerDesc, LayerKind};
use seculator::arch::tiling::TileConfig;
use seculator::arch::trace::{AccessOp, LayerSchedule, TensorClass};
use std::collections::HashSet;

fn network(depth: u32, df: ConvDataflow, channels: u32) -> Vec<LayerSchedule> {
    let tiling = TileConfig {
        kt: channels.min(4),
        ct: channels.min(2),
        ht: 8,
        wt: 8,
    };
    (0..depth)
        .map(|i| {
            let layer = LayerDesc::new(
                i,
                LayerKind::Conv(ConvShape::simple(channels, channels, 16, 3)),
            );
            LayerSchedule::new(layer, Dataflow::Conv(df), tiling).expect("resolves")
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every (fmap, layer, vn, block) write coordinate is unique across
    /// the whole execution — no CTR pad is ever reused.
    #[test]
    fn write_counter_tuples_are_globally_unique(
        depth in 1u32..4,
        channels in prop::sample::select(vec![4u32, 8]),
        df in prop::sample::select(ConvDataflow::ALL.to_vec()),
    ) {
        let schedules = network(depth, df, channels);
        let mut seen: HashSet<(u32, u32, u32, u64)> = HashSet::new();
        for (li, s) in schedules.iter().enumerate() {
            // Each layer's ofmap is a distinct tensor → distinct fmap id.
            let fmap_id = li as u32;
            let ofmap_tile_b = s.ofmap_tile_bytes();
            let bpt = ofmap_tile_b.div_ceil(64);
            s.for_each_step(|step| {
                for a in &step.accesses {
                    if a.tensor == TensorClass::Ofmap && a.op == AccessOp::Write {
                        for b in a.tile * bpt..(a.tile + 1) * bpt {
                            let tuple = (fmap_id, li as u32, a.vn, b);
                            assert!(
                                seen.insert(tuple),
                                "counter tuple reused: {tuple:?} under {df:?}"
                            );
                        }
                    }
                }
            });
        }
        prop_assert!(!seen.is_empty());
    }

    /// Within one layer, a (tile, vn) pair is written at most once — the
    /// generator bumps the VN on every eviction of the same tile.
    #[test]
    fn tile_version_writes_never_repeat(
        channels in prop::sample::select(vec![4u32, 8, 12]),
        df in prop::sample::select(ConvDataflow::ALL.to_vec()),
    ) {
        let s = &network(1, df, channels)[0];
        let mut seen = HashSet::new();
        s.for_each_step(|step| {
            for a in &step.accesses {
                if a.tensor == TensorClass::Ofmap && a.op == AccessOp::Write {
                    assert!(seen.insert((a.tile, a.vn)), "(tile, vn) rewritten under {df:?}");
                }
            }
        });
        prop_assert_eq!(seen.len() as u64, s.write_pattern().len());
    }
}

#[test]
fn mapper_is_deterministic_across_invocations() {
    use seculator::arch::mapper::{map_network, MapperConfig};
    use seculator::models::zoo;
    let net = zoo::resnet18();
    let cfg = MapperConfig::default();
    let mapping = || {
        map_network(&net.layers, &cfg)
            .unwrap()
            .iter()
            .map(|s| (*s.layer(), s.dataflow(), s.spec().tiling))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        mapping(),
        mapping(),
        "mapping must be a pure function of (network, config)"
    );
}
