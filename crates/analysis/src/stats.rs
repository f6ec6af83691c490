//! Small statistics toolkit: empirical CDFs, rank curves, shares.
//!
//! Every figure in the paper is one of a handful of statistical shapes —
//! a CDF ("proportion of files"), a rank–frequency curve (log-log), or a
//! share table. These helpers produce them from raw samples.

/// An empirical cumulative distribution function over `f64` samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples (NaNs are rejected).
    ///
    /// # Panics
    ///
    /// Panics if any sample is NaN.
    pub(crate) fn from_samples(mut samples: Vec<f64>) -> Self {
        assert!(
            samples.iter().all(|x| !x.is_nan()),
            "CDF samples must not be NaN"
        );
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
        Cdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples `<= x` (0 for an empty CDF).
    pub fn fraction_at_most(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Evaluates the CDF at logarithmically spaced points spanning the
    /// sample range — convenient for the paper's log-x CDFs (Figs. 6, 7).
    pub fn log_series(&self, points_per_decade: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() {
            return Vec::new();
        }
        let lo = self.sorted[0].max(1e-9);
        let hi = *self.sorted.last().expect("non-empty");
        if hi <= lo {
            return vec![(lo, 1.0)];
        }
        let decades = (hi / lo).log10();
        let steps = ((decades * points_per_decade as f64).ceil() as usize).max(1);
        (0..=steps)
            .map(|i| {
                let x = lo * 10f64.powf(decades * i as f64 / steps as f64);
                (x, self.fraction_at_most(x))
            })
            .collect()
    }
}

/// A rank–frequency curve: values sorted descending, 1-indexed ranks.
///
/// This is the shape of Fig. 5 (sources per file vs file rank).
pub(crate) fn rank_curve(mut values: Vec<u64>) -> Vec<(usize, u64)> {
    values.sort_unstable_by(|a, b| b.cmp(a));
    values
        .into_iter()
        .enumerate()
        .map(|(i, v)| (i + 1, v))
        .collect()
}

/// Downsamples a rank curve logarithmically (plots with 10⁷ points are
/// pointless; the paper's figures are log-log).
pub(crate) fn log_downsample(
    curve: &[(usize, u64)],
    points_per_decade: usize,
) -> Vec<(usize, u64)> {
    if curve.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut next = 1.0f64;
    let factor = 10f64.powf(1.0 / points_per_decade as f64);
    for &(rank, v) in curve {
        if rank as f64 >= next {
            out.push((rank, v));
            while next <= rank as f64 {
                next *= factor;
            }
        }
    }
    out
}

/// Fits `log10(y) = a + b·log10(x)` by least squares over strictly
/// positive pairs, returning `(a, b)` — used by tests to check that a
/// rank curve's tail really is a power law (Fig. 5's "linear trend on a
/// log-log plot").
///
/// Returns `None` with fewer than two usable points.
pub fn loglog_slope(points: &[(f64, f64)]) -> Option<(f64, f64)> {
    let usable: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|&(x, y)| (x.log10(), y.log10()))
        .collect();
    if usable.len() < 2 {
        return None;
    }
    let n = usable.len() as f64;
    let sx: f64 = usable.iter().map(|p| p.0).sum();
    let sy: f64 = usable.iter().map(|p| p.1).sum();
    let sxx: f64 = usable.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = usable.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    let b = (n * sxy - sx * sy) / denom;
    let a = (sy - b * sx) / n;
    Some((a, b))
}

/// Gini-style concentration: the share of the total held by the top
/// `fraction` of values. Fig. 7's "top 15 % of peers offer 75 % of
/// files" is `top_share(sizes, 0.15) ≈ 0.75`.
///
/// # Examples
///
/// ```
/// use edonkey_analysis::stats::top_share;
/// let shares = top_share(&[1, 1, 1, 1, 96], 0.2);
/// assert!((shares - 0.96).abs() < 1e-9);
/// ```
pub fn top_share(values: &[u64], fraction: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<u64> = values.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let total: u128 = sorted.iter().map(|&v| v as u128).sum();
    if total == 0 {
        return 0.0;
    }
    let k = ((values.len() as f64 * fraction).round() as usize).clamp(1, values.len());
    let top: u128 = sorted[..k].iter().map(|&v| v as u128).sum();
    top as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_basics() {
        let cdf = Cdf::from_samples(vec![5.0, 1.0, 3.0]);
        assert_eq!(cdf.len(), 3);
        assert_eq!(cdf.fraction_at_most(0.0), 0.0);
        assert!((cdf.fraction_at_most(1.0) - 1.0 / 3.0).abs() < 1e-12);
        assert!((cdf.fraction_at_most(4.0) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(cdf.fraction_at_most(5.0), 1.0);
        // Tied samples all count at their value.
        let cdf = Cdf::from_samples(vec![1.0, 2.0, 2.0, 10.0]);
        assert_eq!(cdf.fraction_at_most(0.5), 0.0);
        assert_eq!(cdf.fraction_at_most(2.0), 0.75);
        assert_eq!(cdf.fraction_at_most(10.0), 1.0);
    }

    #[test]
    fn cdf_empty() {
        let cdf = Cdf::from_samples(vec![]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.fraction_at_most(1.0), 0.0);
        assert!(cdf.log_series(4).is_empty());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn cdf_rejects_nan() {
        let _ = Cdf::from_samples(vec![f64::NAN]);
    }

    #[test]
    fn cdf_series_monotone() {
        let cdf = Cdf::from_samples(vec![1.0, 10.0, 100.0, 1000.0, 10.0, 20.0]);
        let series = cdf.log_series(5);
        assert!(!series.is_empty());
        for w in series.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(series.last().unwrap().1, 1.0);
    }

    #[test]
    fn rank_curve_sorted_descending() {
        let curve = rank_curve(vec![1, 100, 5, 5]);
        assert_eq!(curve, vec![(1, 100), (2, 5), (3, 5), (4, 1)]);
        assert_eq!(rank_curve(vec![3, 9, 1]), vec![(1, 9), (2, 3), (3, 1)]);
    }

    #[test]
    fn downsample_keeps_head_and_shape() {
        let curve: Vec<(usize, u64)> = (1..=10_000).map(|r| (r, (10_000 / r) as u64)).collect();
        let sampled = log_downsample(&curve, 4);
        assert!(sampled.len() < 30);
        assert_eq!(sampled[0], (1, 10_000));
        assert!(sampled.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn loglog_slope_recovers_power_law() {
        let points: Vec<(f64, f64)> = (1..=1000)
            .map(|r| (r as f64, 500.0 * (r as f64).powf(-0.8)))
            .collect();
        let (_, b) = loglog_slope(&points).unwrap();
        assert!((b + 0.8).abs() < 1e-6, "slope {b}");
        assert_eq!(loglog_slope(&[]), None);
        assert_eq!(loglog_slope(&[(1.0, 1.0)]), None);
    }

    #[test]
    fn top_share_bounds() {
        assert_eq!(top_share(&[], 0.5), 0.0);
        assert_eq!(top_share(&[0, 0], 0.5), 0.0);
        assert_eq!(top_share(&[7], 0.01), 1.0);
        let uniform = vec![10u64; 100];
        assert!((top_share(&uniform, 0.15) - 0.15).abs() < 1e-9);
    }
}
