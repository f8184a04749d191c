//! Order statistics with the sample-count guard, and process memory
//! readings.

/// Samples a reported percentile must leave above it. Below this the
/// percentile would name a handful of outliers, so a run refuses to
/// print it.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `q` over `n` samples, failing
/// when fewer than [`MIN_BEYOND`] samples lie above it.
fn guarded_rank(what: &str, n: usize, q: f64) -> Result<usize, String> {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "{what}: p{} over {n} samples leaves {beyond} beyond it (need {MIN_BEYOND})",
            q * 100.0
        ));
    }
    Ok(rank)
}

/// Nearest-rank percentile of ascending-sorted `sorted` (`q` in 0..=1).
///
/// # Errors
///
/// Fewer than [`MIN_BEYOND`] samples beyond the percentile.
pub fn percentile(what: &str, sorted: &[f64], q: f64) -> Result<f64, String> {
    Ok(sorted[guarded_rank(what, sorted.len(), q)? - 1])
}

/// Log-bucketed histogram of millisecond samples: constant memory for
/// any sample count, percentiles within half a bucket (0.5 %).
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    n: usize,
}

/// Ratio between neighbouring bucket bounds.
const BUCKET_RATIO: f64 = 1.01;

impl Default for Histogram {
    fn default() -> Self {
        // 1.01^2600 ns is about 170 s: above any latency a run can see.
        Self {
            counts: vec![0; 2600],
            n: 0,
        }
    }
}

impl Histogram {
    /// Counts one sample.
    pub fn record(&mut self, ms: f64) {
        let ns = (ms * 1e6).max(1.0);
        let i = ((ns.ln() / BUCKET_RATIO.ln()) as usize).min(self.counts.len() - 1);
        self.counts[i] += 1;
        self.n += 1;
    }

    /// Samples recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether no sample was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Nearest-rank percentile (ms), at its bucket's geometric middle.
    ///
    /// # Errors
    ///
    /// Fewer than [`MIN_BEYOND`] samples beyond the percentile.
    pub fn percentile(&self, what: &str, q: f64) -> Result<f64, String> {
        let rank = guarded_rank(what, self.n, q)?;
        let mut seen = 0;
        let bucket = self
            .counts
            .iter()
            .position(|&c| {
                seen += c as usize;
                seen >= rank
            })
            .expect("rank within the recorded count");
        Ok(BUCKET_RATIO.powf(bucket as f64 + 0.5) / 1e6)
    }
}

/// Median of unsorted samples (mean of the middle pair when even).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Arithmetic mean (0 for no samples).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Geometric mean of positive values.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`); 0 where the
/// file does not exist.
#[must_use]
pub fn proc_status_kb(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile("t", &v, 0.99).unwrap(), 990.0);
        assert_eq!(percentile("t", &v, 0.5).unwrap(), 500.0);
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(percentile("t", &short, 0.99).is_err());
        assert!(percentile("t", &[], 0.5).is_err());
    }

    #[test]
    fn histogram_percentiles_are_within_a_bucket() {
        let mut h = Histogram::default();
        for i in 1..=1000 {
            h.record(f64::from(i) * 0.01);
        }
        let p99 = h.percentile("t", 0.99).unwrap();
        assert!((p99 / 9.9 - 1.0).abs() < 0.006, "{p99}");
        assert!((h.percentile("t", 0.5).unwrap() / 5.0 - 1.0).abs() < 0.006);
        h = Histogram::default();
        for _ in 0..999 {
            h.record(1.0);
        }
        assert!(h.percentile("t", 0.99).is_err());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn reads_own_memory() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(proc_status_kb("VmHWM") >= proc_status_kb("VmRSS") / 2);
            assert!(proc_status_kb("VmRSS") > 0);
        }
    }
}
