//! Sample statistics: medians, the tail-percentile rule and host
//! metadata.
//!
//! A timing is reported as its median plus the highest percentile the
//! sample supports, where "supports" means at least [`MIN_BEYOND`]
//! samples lie beyond it. A run with too few samples for p99 therefore
//! reports a lower percentile and names it, rather than quoting a
//! maximum as if it were a p99.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of percentile `p` (0 < p < 100) in `n` sorted
/// samples.
fn rank(n: usize, p: u32) -> usize {
    // ceil(p * n / 100) - 1, in integers so 99 % of 1000 is exactly 990.
    ((p as usize * n).div_ceil(100)).max(1) - 1
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
fn beyond(n: usize, p: u32) -> usize {
    n - 1 - rank(n, p)
}

/// The highest whole percentile in `50..=cap` that `n` samples support,
/// or `None` when even the median has fewer than [`MIN_BEYOND`] samples
/// beyond it.
pub fn supported_percentile(n: usize, cap: u32) -> Option<u32> {
    if n == 0 {
        return None;
    }
    (50..=cap).rev().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Nearest-rank percentile `p` of an ascending slice.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    sorted[rank(sorted.len(), p)]
}

/// Median of a sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Mean of a sample (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median, tail and count of one sample.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// The reported tail percentile (99 when supported).
    pub tail_pct: u32,
    /// Value at `tail_pct`.
    pub tail: f64,
}

impl Summary {
    /// Summarizes `values` with the tail capped at p99. With fewer than
    /// 20 samples no percentile is supported; the tail then repeats the
    /// median and `tail_pct` reads 50.
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "summary of an empty sample");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let tail_pct = supported_percentile(v.len(), 99).unwrap_or(50);
        Self {
            n: v.len(),
            median: median(&v),
            tail_pct,
            tail: percentile(&v, tail_pct),
        }
    }

    /// `median 1.234 p99 5.678 (n=1200)`.
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "median {:.4} {unit}, p{} {:.4} {unit} (n={})",
            self.median, self.tail_pct, self.tail, self.n
        )
    }
}

/// The host a result was measured on.
#[derive(Debug, Clone)]
pub struct Host {
    /// Available hardware threads.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
    /// Version of the compiler that built this benchmark.
    pub rustc: &'static str,
}

impl Host {
    /// Probes the running host.
    pub fn probe() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Self {
            nproc: nproc(),
            cpu,
            rustc: env!("PERFBENCH_RUSTC"),
        }
    }
}

/// Available hardware threads (at least 1).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(supported_percentile(1000, 99), Some(99));
        assert_eq!(supported_percentile(999, 99), Some(98));
        assert_eq!(supported_percentile(100_000, 99), Some(99));
    }

    #[test]
    fn small_samples_fall_back_to_lower_percentiles() {
        // 20 samples: the median has exactly 10 beyond it.
        assert_eq!(supported_percentile(20, 99), Some(50));
        assert_eq!(supported_percentile(19, 99), None);
        assert_eq!(supported_percentile(0, 99), None);
        // 25 samples: p60 is rank 15, leaving 10 beyond.
        assert_eq!(supported_percentile(25, 99), Some(60));
        let s = Summary::of(&[1.0; 5]);
        assert_eq!((s.tail_pct, s.n), (50, 5));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99), 990.0);
        assert_eq!(percentile(&v, 50), 500.0);
        let s = Summary::of(&v);
        assert_eq!((s.tail_pct, s.tail, s.median), (99, 990.0, 500.5));
        // Exactly ten samples lie beyond the reported tail.
        assert_eq!(v.iter().filter(|&&x| x > s.tail).count(), MIN_BEYOND);
    }

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
