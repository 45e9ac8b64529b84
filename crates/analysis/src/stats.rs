//! Statistics utilities for the usage analyses.
//!
//! * log10-binned histograms and CDFs (Figure 5's request-count
//!   distribution),
//! * top-k concentration shares (Table 2's "Top10" columns),
//! * Shannon entropy (the DESIGN.md ablation comparing top-10 share with
//!   an entropy-based concentration metric),
//! * nearest-rank percentiles (the stream and serve gates' latency
//!   metrics).

/// Empirical CDF points `(value, fraction ≤ value)` over sorted data.
pub fn cdf_points(values: &[f64]) -> Vec<(f64, f64)> {
    if values.is_empty() {
        return Vec::new();
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in cdf input"));
    let n = sorted.len() as f64;
    let mut out = Vec::new();
    let mut i = 0;
    while i < sorted.len() {
        let v = sorted[i];
        let mut j = i;
        while j < sorted.len() && sorted[j] == v {
            j += 1;
        }
        out.push((v, j as f64 / n));
        i = j;
    }
    out
}

/// One histogram bin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bin {
    /// Bin start (in log10 space for [`log10_histogram`]).
    pub lo: f64,
    pub hi: f64,
    pub count: u64,
}

/// Histogram of `log10(value)` with `bins_per_decade` resolution, like
/// Figure 5's x-axis.
pub fn log10_histogram(values: &[f64], bins_per_decade: u32) -> Vec<Bin> {
    assert!(bins_per_decade > 0, "need at least one bin per decade");
    if values.is_empty() {
        return Vec::new();
    }
    let logs: Vec<f64> = values
        .iter()
        .filter(|v| **v > 0.0)
        .map(|v| v.log10())
        .collect();
    if logs.is_empty() {
        return Vec::new();
    }
    let width = 1.0 / f64::from(bins_per_decade);
    let min_bin = (logs.iter().cloned().fold(f64::INFINITY, f64::min) / width).floor() as i64;
    let max_bin = (logs.iter().cloned().fold(f64::NEG_INFINITY, f64::max) / width).floor() as i64;
    let mut counts = vec![0u64; (max_bin - min_bin + 1) as usize];
    let last = counts.len() - 1;
    for l in &logs {
        let b = ((l / width).floor() as i64 - min_bin) as usize;
        counts[b.min(last)] += 1;
    }
    counts
        .into_iter()
        .enumerate()
        .map(|(i, count)| Bin {
            lo: (min_bin + i as i64) as f64 * width,
            hi: (min_bin + i as i64 + 1) as f64 * width,
            count,
        })
        .collect()
}

/// Share of the total contributed by the `k` largest values (Table 2's
/// Top10 metric with `k = 10`).
pub fn top_k_share(values: &[u64], k: usize) -> f64 {
    let total: u64 = values.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let top: u64 = sorted.iter().take(k).sum();
    top as f64 / total as f64
}

/// Shannon entropy (bits) of a count distribution; 0 for a single spike.
pub fn entropy_bits(values: &[u64]) -> f64 {
    let total: u64 = values.iter().sum();
    if total == 0 {
        return 0.0;
    }
    values
        .iter()
        .filter(|v| **v > 0)
        .map(|v| {
            let p = *v as f64 / total as f64;
            -p * p.log2()
        })
        .sum()
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// p-th percentile (0–100) of an ascending-sorted sample by nearest
/// rank: the value at rank `ceil(p / 100 · n)`, clamped to `1..=n`.
/// NaN for an empty sample.
pub fn percentile<T: Copy + Into<f64>>(sorted: &[T], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1].into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_basics() {
        let vals = [1.0, 2.0, 2.0, 4.0];
        let pts = cdf_points(&vals);
        assert_eq!(pts, vec![(1.0, 0.25), (2.0, 0.75), (4.0, 1.0)]);
    }

    #[test]
    fn log_histogram_bins() {
        // Values 1..10 and 100 → decades 0 and 2.
        let vals = [1.0, 2.0, 5.0, 100.0];
        let bins = log10_histogram(&vals, 1);
        let total: u64 = bins.iter().map(|b| b.count).sum();
        assert_eq!(total, 4);
        assert_eq!(bins.first().unwrap().lo, 0.0);
        assert_eq!(bins.last().unwrap().count, 1); // the 100
    }

    #[test]
    fn log_histogram_ignores_nonpositive() {
        let bins = log10_histogram(&[0.0, -5.0], 2);
        assert!(bins.is_empty());
    }

    #[test]
    fn top_k_concentration() {
        // One giant, nine minor: top-1 share is high.
        let mut values = vec![1u64; 9];
        values.push(991);
        assert!((top_k_share(&values, 1) - 0.991).abs() < 1e-9);
        assert_eq!(top_k_share(&values, 10), 1.0);
        assert_eq!(top_k_share(&[], 10), 0.0);
    }

    #[test]
    fn entropy_extremes() {
        assert_eq!(entropy_bits(&[100]), 0.0);
        let uniform = vec![10u64; 16];
        assert!((entropy_bits(&uniform) - 4.0).abs() < 1e-9);
        // Concentration lowers entropy.
        assert!(entropy_bits(&[97, 1, 1, 1]) < entropy_bits(&[25, 25, 25, 25]));
    }

    #[test]
    fn percentile_and_mean() {
        let vals = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&vals, 50.0), 3.0);
        assert_eq!(percentile(&vals, 0.0), 1.0);
        assert_eq!(percentile(&vals, 100.0), 5.0);
        // Ceil rank: the 99th of 10 is the 10th, the 50th the 5th.
        let lat: Vec<u32> = (1..=10).collect();
        assert_eq!(percentile(&lat, 99.0), 10.0);
        assert_eq!(percentile(&lat, 50.0), 5.0);
        assert!(percentile::<u32>(&[], 50.0).is_nan());
        assert_eq!(mean(&vals), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
