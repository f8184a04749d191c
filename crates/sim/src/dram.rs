//! Dual-channel DRAM model: a fixed first-access latency plus a sustained
//! bandwidth term, with byte-accurate traffic accounting (the quantity
//! paper Figure 8 plots).

use crate::config::DramConfig;
use serde::{Deserialize, Serialize};

/// Aggregate DRAM traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramStats {
    /// Data bytes read (feature maps and weights).
    pub data_read_bytes: u64,
    /// Data bytes written.
    pub data_write_bytes: u64,
    /// Security-metadata bytes read (MACs, counters, Merkle nodes, VNs).
    pub meta_read_bytes: u64,
    /// Security-metadata bytes written.
    pub meta_write_bytes: u64,
    /// Number of discrete bursts serviced.
    pub bursts: u64,
}

impl DramStats {
    /// Total bytes moved.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.data_read_bytes + self.data_write_bytes + self.meta_read_bytes + self.meta_write_bytes
    }

    /// Metadata share of total traffic in [0, 1].
    #[must_use]
    pub fn metadata_fraction(&self) -> f64 {
        let total = self.total_bytes();
        if total == 0 {
            0.0
        } else {
            (self.meta_read_bytes + self.meta_write_bytes) as f64 / total as f64
        }
    }
}

/// Whether a transfer carries tensor data or security metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficClass {
    /// Feature maps / weights.
    Data,
    /// MACs, counters, Merkle nodes, version numbers.
    Metadata,
}

/// The DRAM device model.
///
/// # Examples
///
/// ```
/// use seculator_sim::dram::{Dram, TrafficClass};
/// use seculator_sim::config::DramConfig;
///
/// let mut dram = Dram::new(DramConfig::default());
/// let cycles = dram.read(4096, TrafficClass::Data);
/// assert!(cycles > 100, "latency plus bandwidth term");
/// assert_eq!(dram.stats().data_read_bytes, 4096);
/// ```
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    stats: DramStats,
}

impl Dram {
    /// Creates a DRAM model with the given timing parameters.
    #[must_use]
    pub fn new(cfg: DramConfig) -> Self {
        Self {
            cfg,
            stats: DramStats::default(),
        }
    }

    /// Cycles to service one contiguous burst of `bytes`: the access
    /// latency plus the bandwidth term. Zero-byte bursts are free.
    #[must_use]
    pub fn burst_cycles(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        self.cfg.latency_cycles + (bytes as f64 / self.cfg.bytes_per_cycle).ceil() as u64
    }

    /// Records a read burst and returns its service cycles.
    pub fn read(&mut self, bytes: u64, class: TrafficClass) -> u64 {
        if bytes == 0 {
            return 0;
        }
        match class {
            TrafficClass::Data => self.stats.data_read_bytes += bytes,
            TrafficClass::Metadata => self.stats.meta_read_bytes += bytes,
        }
        self.stats.bursts += 1;
        self.burst_cycles(bytes)
    }

    /// Records a write burst and returns its service cycles.
    pub fn write(&mut self, bytes: u64, class: TrafficClass) -> u64 {
        if bytes == 0 {
            return 0;
        }
        match class {
            TrafficClass::Data => self.stats.data_write_bytes += bytes,
            TrafficClass::Metadata => self.stats.meta_write_bytes += bytes,
        }
        self.stats.bursts += 1;
        self.burst_cycles(bytes)
    }

    /// Records traffic without returning a latency (used for metadata
    /// streams whose cycles the caller computes with a pipelined model).
    pub fn record_read(&mut self, bytes: u64, class: TrafficClass) {
        if bytes == 0 {
            return;
        }
        match class {
            TrafficClass::Data => self.stats.data_read_bytes += bytes,
            TrafficClass::Metadata => self.stats.meta_read_bytes += bytes,
        }
        self.stats.bursts += 1;
    }

    /// Write-side counterpart of [`Self::record_read`].
    pub fn record_write(&mut self, bytes: u64, class: TrafficClass) {
        if bytes == 0 {
            return;
        }
        match class {
            TrafficClass::Data => self.stats.data_write_bytes += bytes,
            TrafficClass::Metadata => self.stats.meta_write_bytes += bytes,
        }
        self.stats.bursts += 1;
    }

    /// Cycles for a metadata stream that pipelines with in-flight data
    /// transfers: pure bandwidth plus one dependency stall (a fraction of
    /// the access latency) for the first metadata fetch the data consume
    /// depends on.
    #[must_use]
    pub fn pipelined_meta_cycles(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        self.cfg.latency_cycles / 4 + (bytes as f64 / self.cfg.bytes_per_cycle).ceil() as u64
    }

    /// Current traffic statistics.
    #[must_use]
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Resets traffic statistics.
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(DramConfig {
            latency_cycles: 100,
            bytes_per_cycle: 16.0,
        })
    }

    #[test]
    fn burst_cost_has_latency_plus_bandwidth() {
        let d = dram();
        assert_eq!(d.burst_cycles(0), 0);
        assert_eq!(d.burst_cycles(64), 100 + 4);
        assert_eq!(d.burst_cycles(1600), 100 + 100);
    }

    #[test]
    fn large_bursts_amortize_latency() {
        let d = dram();
        let one_big = d.burst_cycles(64 * 100);
        let many_small: u64 = (0..100).map(|_| d.burst_cycles(64)).sum();
        assert!(one_big < many_small / 5);
    }

    #[test]
    fn traffic_classes_are_separated() {
        let mut d = dram();
        d.read(128, TrafficClass::Data);
        d.write(64, TrafficClass::Metadata);
        let s = d.stats();
        assert_eq!(s.data_read_bytes, 128);
        assert_eq!(s.meta_write_bytes, 64);
        assert_eq!(s.total_bytes(), 192);
        assert!((s.metadata_fraction() - 64.0 / 192.0).abs() < 1e-12);
    }
}
