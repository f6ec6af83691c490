//! Workload generator configuration and scale presets.

use edonkey_proto::query::FileKind;

/// Per-kind generation parameters: how common a kind is, how large its
/// files are, and how attractive they are to downloaders.
///
/// Calibration targets (paper Fig. 6): ~40 % of files under 1 MB, ~50 %
/// between 1 and 10 MB (MP3s), ~10 % above; yet among files with
/// popularity ≥ 5, ~45 % above 600 MB (DivX movies). The attractiveness
/// multiplier is what tilts *popularity* toward large video files even
/// though they are a small minority of distinct files.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KindProfile {
    /// The media kind this row describes.
    pub kind: FileKind,
    /// Relative frequency among distinct files.
    pub frequency: f64,
    /// `mu` of the log-normal size distribution (log bytes).
    pub size_mu: f64,
    /// `sigma` of the log-normal size distribution.
    pub size_sigma: f64,
    /// Attractiveness multiplier applied to every file of this kind.
    pub attractiveness: f64,
}

/// All knobs of the synthetic workload.
///
/// Defaults come from the paper's published marginals; presets scale the
/// population. Every analysis-relevant mechanism has its own knob so the
/// ablation benches can switch it off in isolation (e.g.
/// `interest_mix = 0` produces a workload with *no* semantic clustering).
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadConfig {
    /// RNG seed; every generated artefact is a pure function of the
    /// config.
    pub seed: u64,

    // --- scale ---
    /// Number of clients.
    pub peers: usize,
    /// Number of distinct files in the universe.
    pub files: usize,
    /// Number of interest topics.
    pub topics: usize,
    /// Trace length in days.
    pub days: u32,
    /// Absolute day number of the first trace day (the paper's plots run
    /// over days ≈ 334–390 of some epoch).
    pub start_day: u32,

    // --- population ---
    /// Fraction of clients sharing nothing (Table 1: 70–84 %).
    pub free_rider_fraction: f64,
    /// Pareto shape for cache-size targets; smaller = more skewed.
    pub cache_alpha: f64,
    /// Minimum cache size of a sharer.
    pub cache_min: u64,
    /// Cap on cache size.
    pub cache_max: u64,

    // --- popularity ---
    /// Zipf exponent over topic ranks.
    pub topic_zipf_s: f64,
    /// Zipf–Mandelbrot head shift over topics.
    pub topic_zipf_q: f64,
    /// Exponent coupling file-to-topic assignment to topic popularity.
    /// `1` puts most files in the most popular topics; `0` spreads the
    /// catalogue evenly, giving niche topics deep catalogues with few,
    /// devoted consumers — the collector communities behind the paper's
    /// rare-file clustering (Figs. 13/14/20).
    pub topic_assignment_skew: f64,
    /// Pareto shape of per-file intrinsic attractiveness.
    pub file_attractiveness_alpha: f64,
    /// Cap on the intrinsic attractiveness draw. Bounds how far one
    /// blockbuster can dominate the request stream — the knob behind the
    /// randomized-trace residual (Fig. 21).
    pub file_attractiveness_cap: f64,
    /// Per-kind frequency/size/attractiveness profiles.
    pub kind_profiles: Vec<KindProfile>,

    // --- interests / clustering ---
    /// Minimum number of interest topics per peer.
    pub interests_min: usize,
    /// Maximum number of interest topics per peer.
    pub interests_max: usize,
    /// Probability that an interest topic is drawn from the peer's own
    /// country's topics (content locality).
    pub topic_locality: f64,
    /// Exponent coupling *interest selection* to topic popularity. `1`
    /// herds everyone into the head topics (huge communities, no
    /// rare-file clustering); `0` spreads interests evenly, keeping
    /// communities at `sharers × interests / topics` members — the
    /// community size is what bounds rare-file hit rates at
    /// `list_size / community`.
    pub interest_selection_skew: f64,
    /// Probability that a cache draw comes from the peer's interest
    /// topics — the semantic-clustering strength β.
    pub interest_mix: f64,
    /// Within-topic popularity exponent for interest draws, in `[0,1]`.
    /// `1` makes collectors follow global taste inside their topics;
    /// `0` makes them sample their topics uniformly. Low values are what
    /// give *rare* files strongly correlated holders (Figs. 13/14/20).
    pub interest_depth: f64,
    /// Probability that a cache draw comes from the peer's home-country
    /// files — the geographic-clustering strength γ.
    pub geo_mix: f64,

    // --- dynamics ---
    /// Mean cache replacements per sharer per day (paper: ≈ 5).
    pub daily_replacements: f64,
    /// Fraction of files already existing when the trace starts.
    pub born_before_fraction: f64,
    /// Days a new file takes to reach peak attractiveness.
    pub lifecycle_surge_days: f64,
    /// Exponential decay time-constant of attractiveness after the peak,
    /// in days.
    pub lifecycle_decay_days: f64,
    /// Residual attractiveness floor after decay, in `[0,1]`.
    pub lifecycle_floor: f64,

    // --- observation (the "ideal crawler" shortcut) ---
    /// Probability a client is successfully browsed on day one.
    pub observe_prob_start: f64,
    /// Probability on the final day (the paper's coverage decayed from
    /// ~65 k to ~35 k clients/day due to crawler bandwidth).
    pub observe_prob_end: f64,
    /// Daily probability of a DHCP re-address in the ideal-observer
    /// path. Zero (the default) keeps the alias-free fast path and its
    /// byte-identical rng stream.
    pub alias_dhcp_daily_prob: f64,
    /// Daily probability of a client reinstall (fresh uid, same IP) in
    /// the ideal-observer path — the duplicate-IP aliases the filtering
    /// stage removes. Zero by default.
    pub alias_reinstall_daily_prob: f64,
}

impl WorkloadConfig {
    /// The default kind profiles (see [`KindProfile`] for the targets).
    pub(crate) fn default_kind_profiles() -> Vec<KindProfile> {
        // ln(1 MB) ≈ 13.8; ln(4 MB) ≈ 15.2; ln(700 MB) ≈ 20.4.
        vec![
            KindProfile {
                kind: FileKind::Audio,
                frequency: 0.50,
                size_mu: 15.2, // ~4 MB median
                size_sigma: 0.55,
                attractiveness: 1.0,
            },
            KindProfile {
                kind: FileKind::Image,
                frequency: 0.22,
                size_mu: 12.2, // ~200 KB median
                size_sigma: 0.9,
                attractiveness: 0.4,
            },
            KindProfile {
                kind: FileKind::Document,
                frequency: 0.14,
                size_mu: 12.6, // ~300 KB median
                size_sigma: 1.0,
                attractiveness: 0.4,
            },
            KindProfile {
                kind: FileKind::Video,
                frequency: 0.06,
                size_mu: 20.4, // ~700 MB median (DivX)
                size_sigma: 0.35,
                attractiveness: 8.0,
            },
            KindProfile {
                kind: FileKind::Archive,
                frequency: 0.04,
                size_mu: 18.2, // ~80 MB median (albums, ISOs)
                size_sigma: 0.8,
                attractiveness: 3.0,
            },
            KindProfile {
                kind: FileKind::Program,
                frequency: 0.04,
                size_mu: 15.5, // ~5 MB median
                size_sigma: 1.2,
                attractiveness: 0.8,
            },
        ]
    }

    fn base(seed: u64) -> Self {
        WorkloadConfig {
            seed,
            peers: 0,
            files: 0,
            topics: 0,
            days: 56,
            start_day: 334,
            free_rider_fraction: 0.74,
            cache_alpha: 1.15,
            cache_min: 3,
            cache_max: 400,
            topic_zipf_s: 1.0,
            topic_zipf_q: 3.0,
            topic_assignment_skew: 0.25,
            file_attractiveness_alpha: 1.1,
            file_attractiveness_cap: 300.0,
            kind_profiles: Self::default_kind_profiles(),
            interests_min: 1,
            interests_max: 3,
            topic_locality: 0.7,
            interest_selection_skew: 0.3,
            interest_mix: 0.85,
            interest_depth: 0.15,
            geo_mix: 0.05,
            daily_replacements: 3.0,
            born_before_fraction: 0.55,
            lifecycle_surge_days: 3.0,
            lifecycle_decay_days: 25.0,
            lifecycle_floor: 0.05,
            observe_prob_start: 0.95,
            observe_prob_end: 0.55,
            alias_dhcp_daily_prob: 0.0,
            alias_reinstall_daily_prob: 0.0,
        }
    }

    /// Tiny preset for unit/integration tests: runs in milliseconds.
    pub fn test_scale(seed: u64) -> Self {
        WorkloadConfig {
            peers: 800,
            files: 16_000,
            topics: 160,
            ..Self::base(seed)
        }
    }

    /// Default preset for figure regeneration: large enough for every
    /// shape to emerge, small enough for minutes-scale runs.
    pub fn repro_scale(seed: u64) -> Self {
        WorkloadConfig {
            peers: 20_000,
            files: 400_000,
            topics: 4_000,
            ..Self::base(seed)
        }
    }

    /// Full paper scale (320 k filtered clients, millions of files). For
    /// long unattended runs only.
    pub fn paper_scale(seed: u64) -> Self {
        WorkloadConfig {
            peers: 320_000,
            files: 8_000_000,
            topics: 80_000,
            cache_max: 5_000,
            ..Self::base(seed)
        }
    }

    /// Checks parameter sanity, returning a description of the first
    /// violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        let prob = |name: &str, v: f64| -> Result<(), String> {
            if (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(format!("{name} must be in [0,1], got {v}"))
            }
        };
        if self.peers == 0 || self.files == 0 || self.topics == 0 {
            return Err("peers, files and topics must be positive".into());
        }
        if self.days == 0 {
            return Err("days must be positive".into());
        }
        prob("free_rider_fraction", self.free_rider_fraction)?;
        prob("topic_locality", self.topic_locality)?;
        prob("interest_mix", self.interest_mix)?;
        prob("geo_mix", self.geo_mix)?;
        prob("born_before_fraction", self.born_before_fraction)?;
        prob("lifecycle_floor", self.lifecycle_floor)?;
        prob("observe_prob_start", self.observe_prob_start)?;
        prob("observe_prob_end", self.observe_prob_end)?;
        prob("alias_dhcp_daily_prob", self.alias_dhcp_daily_prob)?;
        prob(
            "alias_reinstall_daily_prob",
            self.alias_reinstall_daily_prob,
        )?;
        if self.interest_mix + self.geo_mix > 1.0 {
            return Err("interest_mix + geo_mix must not exceed 1".into());
        }
        if self.interests_min == 0 || self.interests_min > self.interests_max {
            return Err("need 1 <= interests_min <= interests_max".into());
        }
        if self.interests_max > self.topics {
            return Err("interests_max exceeds topic count".into());
        }
        if self.cache_min == 0 || self.cache_min > self.cache_max {
            return Err("need 1 <= cache_min <= cache_max".into());
        }
        if self.cache_max as usize > self.files {
            return Err("cache_max exceeds file universe".into());
        }
        let freq: f64 = self.kind_profiles.iter().map(|k| k.frequency).sum();
        if self.kind_profiles.is_empty() || (freq - 1.0).abs() > 1e-6 {
            return Err(format!("kind frequencies must sum to 1, got {freq}"));
        }
        if self.daily_replacements < 0.0 {
            return Err("daily_replacements must be non-negative".into());
        }
        if self.file_attractiveness_cap.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err("file_attractiveness_cap must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for config in [
            WorkloadConfig::test_scale(1),
            WorkloadConfig::repro_scale(2),
            WorkloadConfig::paper_scale(3),
        ] {
            assert_eq!(config.validate(), Ok(()), "{config:?}");
        }
    }

    #[test]
    fn kind_frequencies_sum_to_one() {
        let total: f64 = WorkloadConfig::default_kind_profiles()
            .iter()
            .map(|k| k.frequency)
            .sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn validation_catches_bad_values() {
        let base = WorkloadConfig::test_scale(0);
        let mut c = base.clone();
        c.peers = 0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.free_rider_fraction = 1.5;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.interest_mix = 0.8;
        c.geo_mix = 0.4;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.interests_min = 10;
        c.interests_max = 5;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.cache_max = c.files as u64 + 1;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.kind_profiles[0].frequency += 0.5;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.interests_max = c.topics + 1;
        assert!(c.validate().is_err());
        let mut c = base;
        c.alias_reinstall_daily_prob = -0.1;
        assert!(c.validate().is_err());
    }
}
