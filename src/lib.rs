//! # seculator
//!
//! Facade crate for the Seculator (HPCA 2023) reproduction: a fast and
//! secure neural processing unit with on-the-fly version-number
//! generation and layer-level integrity verification.
//!
//! The workspace is organized bottom-up:
//!
//! - [`crypto`] (`seculator-crypto`) — AES-128/CTR, SHA-256, XOR-MACs,
//!   key derivation (all from scratch).
//! - [`arch`] (`seculator-arch`) — layers, tilings, dataflows, tile
//!   traces, and the master-equation VN pattern machinery.
//! - [`models`] (`seculator-models`) — MobileNet / ResNet / AlexNet /
//!   VGG16 / VGG19 and the auxiliary workloads.
//! - [`sim`] (`seculator-sim`) — the cycle-level NPU substrate
//!   (systolic array, DRAM, metadata caches).
//! - [`core`] (`seculator-core`) — the Seculator architecture itself:
//!   VN generator, layer MAC verifier, the six simulated designs, the
//!   functional encrypted datapath, attacks, and Seculator+ widening.
//! - [`wire`] (`seculator-wire`) — the `SWP1` serving protocol:
//!   CRC32-framed messages, challenge–response auth, TCP + loopback
//!   transports, and the `seculatord` daemon engine.
//! - [`client`] (`seculator-client`) — the typed daemon client.
//! - [`campaigns`] (`seculator-campaigns`) — the seeded fault, crash,
//!   serve, chaos, restart and daemon campaigns that attack all of the
//!   above from outside the library.
//!
//! # Quickstart
//!
//! ```
//! use seculator::core::{SchemeKind, TimingNpu};
//! use seculator::models::zoo::tiny_cnn;
//!
//! let npu = TimingNpu::default();
//! let runs = npu
//!     .compare_schemes(&tiny_cnn(), &[SchemeKind::Baseline, SchemeKind::Seculator])
//!     .expect("network maps onto the 240 KB global buffer");
//! let relative_perf = runs[1].performance_vs(&runs[0]);
//! assert!(relative_perf > 0.7, "Seculator stays close to the unsecure baseline");
//! ```

pub use seculator_arch as arch;
pub use seculator_campaigns as campaigns;
pub use seculator_client as client;
pub use seculator_compute as compute;
pub use seculator_core as core;
pub use seculator_crypto as crypto;
pub use seculator_models as models;
pub use seculator_sim as sim;
pub use seculator_wire as wire;
