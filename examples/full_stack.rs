//! Full vertical slice of the secure NPU: the host drives the accelerator
//! over the authenticated command channel (§6.1), the NPU runs *real*
//! int8 convolutions on the compute substrate, every inter-layer tensor
//! crosses adversary-controlled DRAM under AES-CTR + layer-level XOR-MACs
//! (§6.3–6.4), and the final answer is bit-identical to an unprotected
//! run — even when the adversary corrupts a stored tensor: the breach is
//! detected at the producing layer's boundary and the layer re-executes.
//!
//! ```sh
//! cargo run --release --example full_stack
//! ```

use seculator::arch::pattern::PatternSpec;
use seculator::compute::quant::{QTensor3, QTensor4};
use seculator::core::command::{Command, HostChannel, NpuCommandProcessor};
use seculator::core::journal::{DurableState, PadTracker};
use seculator::core::secure_infer::{
    infer_journaled, infer_plain, Instruments, QConvLayer, SecureSession,
};
use seculator::core::{FaultInjector, FaultKind, FaultSpec, Persistence};
use seculator::crypto::keys::{DeviceSecret, SessionKey};

fn network() -> Vec<QConvLayer> {
    vec![
        QConvLayer {
            weights: QTensor4::seeded(8, 3, 3, 3, 11),
            stride: 1,
            channel_groups: vec![0..2, 2..3],
        },
        QConvLayer {
            weights: QTensor4::seeded(8, 8, 3, 3, 12),
            stride: 2,
            channel_groups: vec![4..8, 0..4],
        },
        QConvLayer::simple(QTensor4::seeded(4, 8, 3, 3, 13), 1),
    ]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let secret = DeviceSecret::from_seed(0xF00D);
    let session = SessionKey::derive(&secret, 1);
    let layers = network();
    let input = QTensor3::seeded(3, 16, 16, 42);
    const SHIFT: u32 = 6;

    // ── 1. Host drives the NPU through the authenticated channel ──
    let mut host = HostChannel::new(session);
    let mut npu_ctl = NpuCommandProcessor::new(session);
    npu_ctl.receive(&host.send(Command::LoadModel {
        layers: layers.len() as u32,
        weight_base: 0x10_0000,
    }))?;
    for (i, _) in layers.iter().enumerate() {
        // One tensor per layer here, so the triplet is the trivial 1^1 —
        // the point is that the *channel* carrying it is authenticated.
        let cfg = HostChannel::configure_layer(i as u32, PatternSpec::new(1, 1, 1), 1);
        npu_ctl.receive(&host.send(cfg))?;
        npu_ctl.receive(&host.send(Command::RunLayer { layer_id: i as u32 }))?;
    }
    npu_ctl.receive(&host.send(Command::Finalize))?;
    println!(
        "command channel: {} layers dispatched, all tags verified",
        npu_ctl.layers_run()
    );

    // ── 2. Clean protected inference ──
    let reference = infer_plain(&layers, &input, SHIFT);
    let clean = SecureSession {
        secret,
        nonce: 1,
        shift: SHIFT,
    };
    let protected = infer_journaled(
        &layers,
        &input,
        &clean,
        &mut DurableState::default(),
        &mut Instruments {
            tracker: &mut PadTracker::new(),
            injector: None,
            clock: None,
        },
    )?;
    assert_eq!(reference, protected.output);
    println!(
        "protected inference: bit-identical to the unprotected run \
         ({}×{}×{} output, {} layer commits)",
        protected.output.c, protected.output.h, protected.output.w, protected.commits
    );

    // ── 3. Under attack: detect at the layer boundary, re-execute ──
    // The adversary flips a bit of layer 1's stored output. The
    // consumer's first reads break MAC_W = MAC_FR ⊕ MAC_R; a re-fetch
    // returns the same bad bytes, so the ladder redoes the layer under
    // fresh version numbers.
    let mut adversary = FaultInjector::new(
        7,
        vec![FaultSpec {
            kind: FaultKind::BitFlip,
            persistence: Persistence::Persistent,
            layer: 1,
            block: 7,
        }],
    );
    let attacked = infer_journaled(
        &layers,
        &input,
        &SecureSession { nonce: 2, ..clean },
        &mut DurableState::default(),
        &mut Instruments {
            tracker: &mut PadTracker::new(),
            injector: Some(&mut adversary),
            clock: None,
        },
    )?;
    assert!(adversary.injections() > 0, "the adversary must strike");
    assert_eq!(attacked.output, reference);
    println!(
        "attack survived: breach at layer 1 detected and recovered \
         (re-fetches: {}, re-executions: {}); nothing incorrect ever left \
         protected memory",
        attacked.incidents.refetches(),
        attacked.incidents.reexecutions()
    );

    // ── 4. A forged command never reaches the datapath ──
    let mut msg = host.send(Command::RunLayer { layer_id: 0 });
    msg.command = Command::RunLayer { layer_id: 2 };
    match npu_ctl.receive(&msg) {
        Err(e) => println!("forged command rejected: {e}"),
        Ok(()) => unreachable!("tampered command must not verify"),
    }
    Ok(())
}
