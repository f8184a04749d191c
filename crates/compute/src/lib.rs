//! # seculator-compute
//!
//! Functional int8 tensor arithmetic for the Seculator (HPCA 2023)
//! reproduction. Products accumulate exactly in `i32`, so every
//! comparison between two ways of computing a layer is bit equality:
//!
//! - [`quant`] — int8 tensors and the direct convolution [`qconv2d`]
//!   (and [`qconv2d_grouped`], the channel-group order serving runs).
//! - [`executor`] — schedule replay: [`execute_qconv`] walks a
//!   `LayerSchedule`'s trace step by step and accumulates each step's
//!   region. Property tests show every dataflow of the paper's Tables
//!   2–3 reproduces [`qconv2d`] exactly, so the VN patterns derived
//!   from those schedules describe a real computation.
//! - [`systolic`] — a cycle-stepped output-stationary systolic PE grid
//!   with skewed operand injection, the compute substrate the timing
//!   model abstracts.
//!
//! # Example
//!
//! ```
//! use seculator_compute::{execute_qconv, qconv2d, QTensor3, QTensor4};
//! use seculator_arch::dataflow::{ConvDataflow, Dataflow};
//! use seculator_arch::layer::{ConvShape, LayerDesc, LayerKind};
//! use seculator_arch::tiling::TileConfig;
//! use seculator_arch::trace::LayerSchedule;
//!
//! let layer = LayerDesc::new(0, LayerKind::Conv(ConvShape::simple(4, 2, 8, 3)));
//! let schedule = LayerSchedule::new(
//!     layer,
//!     Dataflow::Conv(ConvDataflow::IrMultiChannelAlongChannel),
//!     TileConfig { kt: 2, ct: 1, ht: 4, wt: 4 },
//! )?;
//! let input = QTensor3::seeded(2, 8, 8, 1);
//! let weights = QTensor4::seeded(4, 2, 3, 3, 2);
//! assert_eq!(execute_qconv(&schedule, &input, &weights)?, qconv2d(&input, &weights, 1));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod executor;
pub mod quant;
pub mod systolic;

pub use executor::{execute_qconv, ExecError};
pub use quant::{qconv2d, qconv2d_grouped, QAccum3, QTensor3, QTensor4};
pub use systolic::SystolicGrid;
