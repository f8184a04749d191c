//! # seculator-arch
//!
//! Architecture-level descriptors for the Seculator (HPCA 2023)
//! reproduction: layers, tilings, dataflows, tile-level memory traces,
//! and the version-number *pattern* machinery that is the paper's central
//! observation.
//!
//! The flow is:
//!
//! 1. Describe a layer ([`layer::LayerDesc`]).
//! 2. Pick (or auto-map with [`mapper`]) a dataflow + tiling, yielding a
//!    [`trace::LayerSchedule`].
//! 3. The schedule exposes both the *actual* tile transfer trace
//!    ([`trace::LayerSchedule::for_each_step`]) and the *predicted* VN
//!    pattern triplet ([`pattern::PatternSpec`]) — and the reproduction's
//!    key validation is that the two always agree.
//!
//! # Example
//!
//! ```
//! use seculator_arch::layer::{ConvShape, LayerDesc, LayerKind};
//! use seculator_arch::dataflow::{ConvDataflow, Dataflow};
//! use seculator_arch::tiling::TileConfig;
//! use seculator_arch::trace::LayerSchedule;
//!
//! let layer = LayerDesc::new(0, LayerKind::Conv(ConvShape::simple(8, 4, 16, 3)));
//! let schedule = LayerSchedule::new(
//!     layer,
//!     Dataflow::Conv(ConvDataflow::IrMultiChannelAlongChannel),
//!     TileConfig { kt: 4, ct: 2, ht: 8, wt: 8 },
//! )?;
//! // The hardware VN formula reproduces the observed write sequence.
//! let predicted: Vec<u32> = schedule.write_pattern().iter().collect();
//! assert_eq!(schedule.observed_write_vns(), predicted);
//! # Ok::<(), seculator_arch::dataflow::DataflowError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod dataflow;
pub mod layer;
pub mod mapper;
pub mod pattern;
pub mod tiling;
pub mod trace;

pub use analysis::{network_roofline, roofline, Bound, LayerRoofline, MachineBalance};
pub use dataflow::{ConvDataflow, Dataflow, MatmulDataflow, PreprocDataflow, ScheduleShape};
pub use layer::{ConvShape, LayerDesc, LayerDims, LayerKind, MatmulShape, PreprocStyle};
pub use mapper::{map_layer, map_network, MapperConfig};
pub use pattern::{PatternFamily, PatternSpec};
pub use tiling::{Alphas, TileConfig};
pub use trace::{AccessOp, LayerSchedule, Step, TensorClass, TileAccess, TrafficSummary};
