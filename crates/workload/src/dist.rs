//! Probability distributions used by the workload generator.
//!
//! All samplers are implemented from scratch on top of `rand::Rng` so the
//! dependency set stays at the allowed list. Three families matter for
//! the paper's marginals:
//!
//! * `ZipfMandelbrot` — file/topic popularity. The paper's Fig. 5 shows
//!   a *flat head* followed by a power-law tail; the Mandelbrot shift `q`
//!   produces exactly that shape (`weight(r) ∝ 1/(r+q)^s`).
//! * `Pareto` — peer generosity. Heavy-tailed cache sizes reproduce the
//!   "top 15 % of peers offer 75 % of files" concentration.
//! * `poisson` — per-day cache replacements (~5 per client per day).

use rand::Rng;

/// A Zipf–Mandelbrot distribution over ranks `0..n`.
///
/// `weight(rank) = 1 / (rank + 1 + q)^s`, normalized. `q = 0` gives plain
/// Zipf; larger `q` flattens the head (the small flat region the paper
/// observes before the log-log linear trend). The population reads the
/// per-rank weights ([`ZipfMandelbrot::weight`]) into its topic table.
#[derive(Clone, Debug)]
pub(crate) struct ZipfMandelbrot {
    cumulative: Vec<f64>,
}

impl ZipfMandelbrot {
    /// Builds the distribution for `n` ranks with exponent `s` and head
    /// shift `q`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `s` is not finite/positive, or `q < 0`.
    pub(crate) fn new(n: usize, s: f64, q: f64) -> Self {
        assert!(n > 0, "ZipfMandelbrot needs at least one rank");
        assert!(s.is_finite() && s > 0.0, "exponent must be positive");
        assert!(q.is_finite() && q >= 0.0, "shift must be non-negative");
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 0..n {
            acc += 1.0 / (rank as f64 + 1.0 + q).powf(s);
            cumulative.push(acc);
        }
        ZipfMandelbrot { cumulative }
    }

    /// The unnormalized weight of `rank`.
    pub(crate) fn weight(&self, rank: usize) -> f64 {
        let prev = if rank == 0 {
            0.0
        } else {
            self.cumulative[rank - 1]
        };
        self.cumulative[rank] - prev
    }
}

/// Samples from a cumulative-weight slice: returns the first index whose
/// cumulative value exceeds a uniform draw.
///
/// Shared helper for the generator's many "weighted pick" tables.
/// `guide` is the table's [`guide_for`] index, or empty to search the
/// whole table; it only narrows the range searched, so both return the
/// same index for the same draw and consume the same randomness.
///
/// # Panics
///
/// Panics if `cumulative` is empty or ends at a non-positive total.
pub(crate) fn sample_cumulative(cumulative: &[f64], guide: &[u32], rng: &mut impl Rng) -> usize {
    let total = *cumulative
        .last()
        .expect("cumulative table must be non-empty");
    assert!(total > 0.0, "cumulative table must have positive total");
    let x = rng.gen_range(0.0..total);
    locate(cumulative, guide, total, x)
}

/// The index [`sample_cumulative`] returns for draw `x`.
fn locate(cumulative: &[f64], guide: &[u32], total: f64, x: f64) -> usize {
    let (lo, hi) = if guide.is_empty() {
        (0, cumulative.len())
    } else {
        debug_assert_eq!(
            guide[guide.len() - 1] as usize,
            cumulative.len(),
            "foreign guide"
        );
        let buckets = guide.len() - 1;
        let b = guide_bucket(x, buckets as f64 / total, buckets);
        (guide[b] as usize, guide[b + 1] as usize)
    };
    // partition_point: first index whose cumulative weight exceeds x.
    (lo + cumulative[lo..hi].partition_point(|&c| c <= x)).min(cumulative.len() - 1)
}

/// Cumulative-table entries per guide bucket.
const GUIDE_STRIDE: usize = 4;

/// The guide bucket of value `v` among `buckets` equal slices of a
/// table's total, given `scale = buckets / total`:
/// `min(buckets − 1, ⌊v · scale⌋)`, monotone in `v`.
fn guide_bucket(v: f64, scale: f64, buckets: usize) -> usize {
    ((v * scale) as usize).min(buckets - 1)
}

/// Builds the guide ("cutpoint") index of a cumulative table for
/// [`sample_cumulative`]: one bucket per four entries, and `guide[j]`
/// is the first entry whose bucket is at least `j` (`guide[buckets]`
/// is the table length).
///
/// Because the bucket map is monotone, every entry before `guide[j]`
/// is below any draw in bucket `j` and every entry from `guide[j + 1]`
/// on is above it, so the answer to a draw in bucket `j` lies in
/// `guide[j] ..= guide[j + 1]`: an O(1) expected search that returns
/// exactly the index the whole-table search does. A table nothing can
/// be drawn from (empty, or with a zero total) gets an empty guide.
///
/// # Panics
///
/// Panics if `cumulative` holds more than `u32::MAX` entries.
pub(crate) fn guide_for(cumulative: &[f64]) -> Vec<u32> {
    let total = cumulative.last().copied().unwrap_or(0.0);
    if total <= 0.0 {
        return Vec::new();
    }
    let n = u32::try_from(cumulative.len()).expect("table indexes fit in u32");
    let buckets = cumulative.len().div_ceil(GUIDE_STRIDE);
    let scale = buckets as f64 / total;
    let mut guide = Vec::with_capacity(buckets + 1);
    for (i, &c) in (0u32..).zip(cumulative) {
        // Entry `i` starts every bucket up to its own not yet started.
        let b = guide_bucket(c, scale, buckets);
        while guide.len() <= b {
            guide.push(i);
        }
    }
    guide.resize(buckets + 1, n);
    guide
}

/// Builds a cumulative table from weights.
pub(crate) fn cumulative_from_weights(weights: &[f64]) -> Vec<f64> {
    let mut cumulative = weights.to_vec();
    cumulate(&mut cumulative);
    cumulative
}

/// Replaces weights by their running sums, in place: the table
/// [`cumulative_from_weights`] builds, without a second buffer.
pub(crate) fn cumulate(weights: &mut [f64]) {
    let mut acc = 0.0;
    for w in weights {
        debug_assert!(*w >= 0.0, "weights must be non-negative");
        acc += *w;
        *w = acc;
    }
}

/// A Pareto (power-law tail) distribution with scale `x_min` and shape
/// `alpha`: `P(X > x) = (x_min / x)^alpha` for `x ≥ x_min`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Pareto {
    x_min: f64,
    alpha: f64,
}

impl Pareto {
    /// Creates the distribution.
    ///
    /// # Panics
    ///
    /// Panics unless `x_min > 0` and `alpha > 0`.
    pub(crate) fn new(x_min: f64, alpha: f64) -> Self {
        assert!(x_min > 0.0 && x_min.is_finite(), "x_min must be positive");
        assert!(alpha > 0.0 && alpha.is_finite(), "alpha must be positive");
        Pareto { x_min, alpha }
    }

    /// Draws a value by inverse-transform sampling.
    pub(crate) fn sample(&self, rng: &mut impl Rng) -> f64 {
        // U in (0,1]; X = x_min * U^(-1/alpha).
        let u: f64 = 1.0 - rng.gen_range(0.0..1.0);
        self.x_min * u.powf(-1.0 / self.alpha)
    }

    /// Draws a value clamped to `[x_min, cap]` and rounded to an integer.
    pub(crate) fn sample_clamped(&self, cap: f64, rng: &mut impl Rng) -> u64 {
        self.sample(rng).min(cap).round() as u64
    }
}

/// Draws from a Poisson distribution with mean `lambda` (Knuth's method;
/// `lambda` stays small here — cache replacements per day — so the O(λ)
/// loop is fine).
///
/// # Panics
///
/// Panics if `lambda` is negative or not finite.
pub(crate) fn poisson(lambda: f64, rng: &mut impl Rng) -> u32 {
    assert!(
        lambda >= 0.0 && lambda.is_finite(),
        "lambda must be non-negative"
    );
    if lambda == 0.0 {
        return 0;
    }
    let limit = (-lambda).exp();
    let mut k = 0u32;
    let mut product: f64 = 1.0;
    loop {
        product *= rng.gen_range(0.0f64..1.0);
        if product <= limit {
            return k;
        }
        k += 1;
        // Defensive cap: for our λ ≤ ~20 this is unreachable, but a
        // pathological RNG must not loop forever.
        if k > 10_000 {
            return k;
        }
    }
}

/// A log-normal sampler (`exp(mu + sigma * Z)`), used for file sizes
/// within a kind.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates the sampler; `mu`/`sigma` are the parameters of the
    /// underlying normal.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or parameters are not finite.
    pub(crate) fn new(mu: f64, sigma: f64) -> Self {
        assert!(mu.is_finite() && sigma.is_finite() && sigma >= 0.0);
        LogNormal { mu, sigma }
    }

    /// Draws a value using a Box–Muller standard normal.
    pub(crate) fn sample(&self, rng: &mut impl Rng) -> f64 {
        let u1: f64 = 1.0 - rng.gen_range(0.0f64..1.0); // (0,1]
        let u2: f64 = rng.gen_range(0.0f64..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (self.mu + self.sigma * z).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zipf_weights_decrease() {
        let z = ZipfMandelbrot::new(100, 1.0, 2.0);
        for r in 1..100 {
            assert!(z.weight(r) <= z.weight(r - 1), "rank {r}");
        }
    }

    #[test]
    fn zipf_head_is_flattened_by_q() {
        let plain = ZipfMandelbrot::new(100, 1.0, 0.0);
        let shifted = ZipfMandelbrot::new(100, 1.0, 10.0);
        // Ratio of rank-0 to rank-9 weight is far larger without shift.
        let ratio_plain = plain.weight(0) / plain.weight(9);
        let ratio_shifted = shifted.weight(0) / shifted.weight(9);
        assert!(ratio_plain > 5.0 * ratio_shifted);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zipf_rejects_empty() {
        let _ = ZipfMandelbrot::new(0, 1.0, 0.0);
    }

    #[test]
    fn cumulative_helpers() {
        let cum = cumulative_from_weights(&[0.5, 0.0, 2.5]);
        assert_eq!(cum, vec![0.5, 0.5, 3.0]);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[sample_cumulative(&cum, &[], &mut rng)] += 1;
        }
        assert_eq!(counts[1], 0, "zero-weight index must never be drawn");
        assert!(counts[2] > counts[0]);
        assert_eq!(
            cumulative_from_weights(&[1.0, 2.0, 3.0]),
            vec![1.0, 3.0, 6.0]
        );
        // The guided search returns the whole-table search's index and
        // consumes the same draw.
        let cum = cumulative_from_weights(&[1.0, 0.0, 3.0, 2.0, 0.5]);
        let guide = guide_for(&cum);
        let mut plain = StdRng::seed_from_u64(5);
        let mut guided = plain.clone();
        for _ in 0..100 {
            assert_eq!(
                sample_cumulative(&cum, &[], &mut plain),
                sample_cumulative(&cum, &guide, &mut guided)
            );
        }
    }

    /// Non-negative weights with a positive total: runs of zeros (at
    /// either end, inside, and across whole guide buckets), runs of
    /// equal weights and lone weights from 1e-12 to 1e12, and the
    /// single-entry table.
    fn arb_weights() -> impl Strategy<Value = Vec<f64>> {
        let weight = |milli_exp: i64| 10f64.powf(milli_exp as f64 / 1000.0);
        let single = (-12_000i64..=12_000).prop_map(move |e| vec![weight(e)]);
        let runs = (
            0usize..9,
            prop::collection::vec((0u32..4, 1usize..9, -12_000i64..=12_000), 1..40),
            0usize..9,
        )
            .prop_map(move |(lead, runs, trail)| {
                let mut weights = vec![0.0; lead];
                for (kind, len, e) in runs {
                    match kind {
                        0 => weights.extend(std::iter::repeat_n(0.0, len)),
                        1 => weights.extend(std::iter::repeat_n(weight(e), len)),
                        _ => weights.push(weight(e)),
                    }
                }
                if weights.iter().all(|&w| w == 0.0) {
                    weights.push(1.0);
                }
                weights.extend(std::iter::repeat_n(0.0, trail));
                weights
            });
        prop_oneof![single, runs]
    }

    proptest! {
        /// The guide only narrows the search: over arbitrary tables the
        /// guided draw returns the whole-table index and consumes the
        /// same randomness, and so does every draw at a table value or
        /// a bucket edge, or one ulp to either side of it.
        #[test]
        fn guided_draws_match_the_plain_search(weights in arb_weights(), seed in any::<u64>()) {
            let cum = cumulative_from_weights(&weights);
            let guide = guide_for(&cum);
            prop_assert_eq!(guide.len(), cum.len().div_ceil(GUIDE_STRIDE) + 1);
            let mut plain = StdRng::seed_from_u64(seed);
            let mut guided = plain.clone();
            for _ in 0..64 {
                prop_assert_eq!(
                    sample_cumulative(&cum, &[], &mut plain),
                    sample_cumulative(&cum, &guide, &mut guided)
                );
            }
            prop_assert_eq!(format!("{plain:?}"), format!("{guided:?}"));

            let total = *cum.last().unwrap();
            let buckets = guide.len() - 1;
            let edges = (0..buckets).map(|j| j as f64 * total / buckets as f64);
            for v in cum.iter().copied().chain(edges) {
                for x in [v.next_down(), v, v.next_up()] {
                    if (0.0..total).contains(&x) {
                        prop_assert_eq!(
                            locate(&cum, &[], total, x),
                            locate(&cum, &guide, total, x),
                            "draw {} of table {:?}", x, cum
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pareto_tail_is_heavy() {
        let p = Pareto::new(1.0, 1.0);
        let mut rng = StdRng::seed_from_u64(11);
        let samples: Vec<f64> = (0..50_000).map(|_| p.sample(&mut rng)).collect();
        let above_10 = samples.iter().filter(|&&x| x > 10.0).count() as f64;
        // P(X > 10) = 0.1 for alpha = 1.
        assert!((above_10 / 50_000.0 - 0.1).abs() < 0.01);
        assert!(samples.iter().all(|&x| x >= 1.0));
    }

    #[test]
    fn pareto_concentration_matches_top15_share() {
        // With alpha ≈ 1.05, the top 15 % of draws should hold very
        // roughly 75 % of the mass — the paper's generosity skew.
        let p = Pareto::new(1.0, 1.05);
        let mut rng = StdRng::seed_from_u64(13);
        let mut samples: Vec<f64> = (0..100_000)
            .map(|_| p.sample(&mut rng).min(5_000.0))
            .collect();
        samples.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
        let total: f64 = samples.iter().sum();
        let top15: f64 = samples[..15_000].iter().sum();
        let share = top15 / total;
        assert!(
            (0.60..0.90).contains(&share),
            "top-15% share {share} outside plausible band"
        );
    }

    #[test]
    fn pareto_clamped_bounds() {
        let p = Pareto::new(2.0, 0.8);
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..1000 {
            let v = p.sample_clamped(100.0, &mut rng);
            assert!((2..=100).contains(&v));
        }
    }

    #[test]
    fn poisson_mean_and_degenerate() {
        let mut rng = StdRng::seed_from_u64(19);
        assert_eq!(poisson(0.0, &mut rng), 0);
        let mean: f64 = (0..20_000)
            .map(|_| poisson(5.0, &mut rng) as f64)
            .sum::<f64>()
            / 20_000.0;
        assert!((mean - 5.0).abs() < 0.1, "sample mean {mean}");
    }

    #[test]
    fn lognormal_median_tracks_mu() {
        let ln = LogNormal::new(8.0_f64, 0.5);
        let mut rng = StdRng::seed_from_u64(23);
        let mut samples: Vec<f64> = (0..20_001).map(|_| ln.sample(&mut rng)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median = samples[10_000];
        let expected = 8.0_f64.exp();
        assert!((median / expected - 1.0).abs() < 0.1, "median {median}");
    }
}
