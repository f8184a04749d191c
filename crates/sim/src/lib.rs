//! # seculator-sim
//!
//! Cycle-level NPU substrate for the Seculator (HPCA 2023) reproduction —
//! the stand-in for the paper's in-house simulator (validated against
//! SCALE-Sim, §4.1):
//!
//! - [`config`] — the Table 1 machine configuration and every latency
//!   constant the cycle model uses.
//! - [`systolic`] — analytical timing for the 32×32 PE array.
//! - [`dram`] — dual-channel DDR4 latency/bandwidth model with traffic
//!   accounting split into data vs security metadata.
//! - [`cache`] — set-associative LRU model for the 4 KB counter cache
//!   and 8 KB MAC cache.
//! - [`address`] — tensor address-space layout for realistic cache line
//!   addresses.
//! - [`executor`] — double-buffered compute/memory overlap and
//!   non-hideable security overhead accumulation.
//! - [`stats`] — per-layer and per-run statistics (the raw material of
//!   the paper's Figures 4, 5, 7, 8, 9).
//!
//! The *security semantics* (which metadata each scheme touches and when)
//! live in `seculator-core`; this crate only knows how much things cost.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod address;
pub mod cache;
pub mod config;
pub mod dram;
pub mod energy;
pub mod executor;
pub mod reuse;
pub mod stats;
pub mod systolic;

pub use address::{AddressAllocator, TensorRegion};
pub use cache::{Cache, CacheStats};
pub use config::{DramConfig, NpuConfig};
pub use dram::{Dram, DramStats, TrafficClass};
pub use energy::{EnergyBreakdown, EnergyModel};
pub use executor::{LayerTimer, StepCost};
pub use reuse::{ReuseHistogram, StackDistance};
pub use stats::{LayerStats, RunStats};
pub use systolic::SystolicArray;
