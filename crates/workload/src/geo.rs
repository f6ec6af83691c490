//! Synthetic geography: countries, autonomous systems and an address
//! plan, calibrated to the paper's Fig. 4 and Table 2.
//!
//! The paper maps client IPs to countries and ASes with a GeoIP database
//! we cannot ship. Instead, this module *is* the database: each country
//! owns a distinct set of ASes, each AS owns a distinct IPv4 prefix, and
//! the generator draws client locations from the published marginals:
//!
//! * country shares — FR 29 %, DE 28 %, ES 16 %, US 5 %, IT 3 %, IL 2 %,
//!   GB 2 %, TW 1 %, PL 1 %, AT 1 %, NL 1 %, others 6 % (Fig. 4);
//! * dominant-AS national shares — Deutsche Telekom hosts 75 % of German
//!   clients, Transpac 51 % of French, Telefónica 50 % of Spanish, Proxad
//!   24 % of French, AOL 60 % of US clients (Table 2).

use edonkey_trace::model::CountryCode;
use rand::Rng;

use crate::dist::{cumulative_from_weights, sample_cumulative};

/// One autonomous system in the synthetic address plan.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct AsPlan {
    /// AS number (real numbers for Table 2's ASes, synthetic elsewhere).
    pub asn: u32,
    /// Operator name, for table rendering.
    pub name: &'static str,
    /// Share of the country's clients hosted by this AS, in `[0,1]`.
    pub national_share: f64,
}

/// One country in the synthetic plan.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct CountryPlan {
    /// ISO-style code.
    pub code: CountryCode,
    /// Share of all clients, in `[0,1]` (Fig. 4).
    pub share: f64,
    /// The country's ASes with their national shares (Table 2 rows where
    /// published, synthetic remainders elsewhere).
    pub ases: Vec<AsPlan>,
}

/// The full geography: countries, ASes, and the address plan.
#[derive(Clone, Debug)]
pub struct Geography {
    countries: Vec<CountryPlan>,
    country_cumulative: Vec<f64>,
    /// Per-country cumulative AS weights.
    as_cumulative: Vec<Vec<f64>>,
}

/// A sampled client location.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Location {
    /// Country index into [`Geography::countries`].
    pub country_idx: usize,
    /// Country code.
    pub country: CountryCode,
    /// Autonomous system number.
    pub asn: u32,
}

impl Geography {
    /// Builds the paper-calibrated geography.
    pub(crate) fn paper() -> Self {
        let c = CountryCode::new;
        // Within each country, the dominant ASes come from Table 2; the
        // remainder is split over a few synthetic "minor" ASes so AS-level
        // clustering (Fig. 12) has realistic granularity.
        let countries = vec![
            CountryPlan {
                code: c("FR"),
                share: 0.29,
                ases: with_remainder(
                    64_000,
                    &[
                        AsPlan {
                            asn: 3215,
                            name: "France Telecom Transpac",
                            national_share: 0.51,
                        },
                        AsPlan {
                            asn: 12322,
                            name: "Proxad ISP France",
                            national_share: 0.24,
                        },
                    ],
                    3,
                ),
            },
            CountryPlan {
                code: c("DE"),
                share: 0.28,
                ases: with_remainder(
                    64_100,
                    &[AsPlan {
                        asn: 3320,
                        name: "Deutsche Telekom AG",
                        national_share: 0.75,
                    }],
                    3,
                ),
            },
            CountryPlan {
                code: c("ES"),
                share: 0.16,
                ases: with_remainder(
                    64_200,
                    &[AsPlan {
                        asn: 3352,
                        name: "Telefonica Data Espana",
                        national_share: 0.50,
                    }],
                    3,
                ),
            },
            CountryPlan {
                code: c("US"),
                share: 0.05,
                ases: with_remainder(
                    64_300,
                    &[AsPlan {
                        asn: 1668,
                        name: "AOL-primehost USA",
                        national_share: 0.60,
                    }],
                    4,
                ),
            },
            synthetic_country(c("IT"), 0.03, 64_400, 3),
            synthetic_country(c("IL"), 0.02, 64_500, 2),
            synthetic_country(c("GB"), 0.02, 64_600, 3),
            synthetic_country(c("TW"), 0.01, 64_700, 2),
            synthetic_country(c("PL"), 0.01, 64_800, 2),
            synthetic_country(c("AT"), 0.01, 64_900, 2),
            synthetic_country(c("NL"), 0.01, 65_000, 2),
            // "Others": six small countries sharing the remainder. Fig. 4's
            // rounded percentages sum to 95 %, so the unlabeled mass (11 %)
            // goes here.
            synthetic_country(c("BE"), 0.02, 65_100, 2),
            synthetic_country(c("CH"), 0.02, 65_200, 2),
            synthetic_country(c("PT"), 0.02, 65_300, 2),
            synthetic_country(c("SE"), 0.02, 65_400, 2),
            synthetic_country(c("FI"), 0.015, 65_500, 2),
            synthetic_country(c("NO"), 0.015, 65_600, 2),
        ];
        Self::from_plan(countries)
    }

    /// Builds a geography from an explicit plan (tests, ablations).
    ///
    /// # Panics
    ///
    /// Panics if the plan is empty, shares are not positive, or any
    /// country has no ASes.
    pub(crate) fn from_plan(countries: Vec<CountryPlan>) -> Self {
        assert!(
            !countries.is_empty(),
            "geography needs at least one country"
        );
        for country in &countries {
            assert!(
                country.share > 0.0,
                "{}: share must be positive",
                country.code
            );
            assert!(
                !country.ases.is_empty(),
                "{}: needs at least one AS",
                country.code
            );
        }
        let country_cumulative =
            cumulative_from_weights(&countries.iter().map(|c| c.share).collect::<Vec<_>>());
        let as_cumulative = countries
            .iter()
            .map(|c| {
                cumulative_from_weights(
                    &c.ases.iter().map(|a| a.national_share).collect::<Vec<_>>(),
                )
            })
            .collect();
        Geography {
            countries,
            country_cumulative,
            as_cumulative,
        }
    }

    /// The country plans.
    pub(crate) fn countries(&self) -> &[CountryPlan] {
        &self.countries
    }

    /// Samples a client location from the country and AS marginals.
    pub(crate) fn sample_location(&self, rng: &mut impl Rng) -> Location {
        let country_idx = sample_cumulative(&self.country_cumulative, &[], rng);
        let as_idx = sample_cumulative(&self.as_cumulative[country_idx], &[], rng);
        Location {
            country_idx,
            country: self.countries[country_idx].code,
            asn: self.countries[country_idx].ases[as_idx].asn,
        }
    }

    /// Samples a country index only (used for file home countries).
    pub(crate) fn sample_country(&self, rng: &mut impl Rng) -> usize {
        sample_cumulative(&self.country_cumulative, &[], rng)
    }

    /// Allocates a fresh IP for the `n`-th client of an AS.
    ///
    /// The plan gives each AS a disjoint /12-style block:
    /// `(as_block << 20) | host`. Uniqueness per (asn, host counter) is
    /// the caller's job (the generator keeps one counter per AS).
    pub fn ip_for(&self, asn: u32, host: u32) -> u32 {
        assert!(host < (1 << 20), "AS block exhausted: host {host}");
        // Fold the ASN into 12 bits; plan ASNs are distinct mod 4096
        // (real ones are small, synthetic ones are spread above 64 000).
        let block = asn % (1 << 12);
        (block << 20) | host
    }
}

/// Builds a list of ASes: the published dominant ones plus `minor_count`
/// synthetic ASes evenly sharing the remainder.
fn with_remainder(base_asn: u32, dominant: &[AsPlan], minor_count: usize) -> Vec<AsPlan> {
    let used: f64 = dominant.iter().map(|a| a.national_share).sum();
    assert!(used < 1.0, "dominant shares exceed 100%");
    let mut ases = dominant.to_vec();
    let rest = (1.0 - used) / minor_count as f64;
    for i in 0..minor_count {
        ases.push(AsPlan {
            asn: base_asn + i as u32,
            name: "regional ISP",
            national_share: rest,
        });
    }
    ases
}

/// A country with no published AS data: one larger incumbent plus minors.
fn synthetic_country(
    code: CountryCode,
    share: f64,
    base_asn: u32,
    minor_count: usize,
) -> CountryPlan {
    CountryPlan {
        code,
        share,
        ases: with_remainder(
            base_asn,
            &[AsPlan {
                asn: base_asn + 50,
                name: "national incumbent",
                national_share: 0.55,
            }],
            minor_count,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    #[test]
    fn paper_plan_matches_published_marginals() {
        let geo = Geography::paper();
        let total: f64 = geo.countries().iter().map(|c| c.share).sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "country shares must sum to 1, got {total}"
        );
        let fr = geo
            .countries()
            .iter()
            .find(|c| c.code == CountryCode::new("FR"))
            .unwrap();
        assert!((fr.share - 0.29).abs() < 1e-9);
        assert!(fr
            .ases
            .iter()
            .any(|a| a.asn == 3215 && a.national_share == 0.51));
        assert!(fr.ases.iter().any(|a| a.asn == 12322));
        for c in geo.countries() {
            let s: f64 = c.ases.iter().map(|a| a.national_share).sum();
            assert!((s - 1.0).abs() < 1e-9, "{}: AS shares sum to {s}", c.code);
        }
    }

    #[test]
    fn sampled_shares_track_plan() {
        let geo = Geography::paper();
        let mut rng = StdRng::seed_from_u64(5);
        let mut by_country: HashMap<CountryCode, usize> = HashMap::new();
        let mut by_asn: HashMap<u32, usize> = HashMap::new();
        let n = 100_000;
        for _ in 0..n {
            let loc = geo.sample_location(&mut rng);
            *by_country.entry(loc.country).or_insert(0) += 1;
            *by_asn.entry(loc.asn).or_insert(0) += 1;
        }
        let fr = by_country[&CountryCode::new("FR")] as f64 / n as f64;
        assert!((fr - 0.29).abs() < 0.01, "FR share {fr}");
        let de = by_country[&CountryCode::new("DE")] as f64 / n as f64;
        assert!((de - 0.28).abs() < 0.01, "DE share {de}");
        // Table 2 global shares: DTAG ≈ 0.28 * 0.75 ≈ 21 %.
        let dtag = by_asn[&3320] as f64 / n as f64;
        assert!((dtag - 0.21).abs() < 0.01, "DTAG global share {dtag}");
        let transpac = by_asn[&3215] as f64 / n as f64;
        assert!(
            (transpac - 0.148).abs() < 0.01,
            "Transpac global share {transpac}"
        );
    }

    #[test]
    fn ips_are_disjoint_across_ases() {
        let geo = Geography::paper();
        let mut seen = std::collections::HashSet::new();
        for country in geo.countries() {
            for a in &country.ases {
                for host in [0u32, 1, 500_000] {
                    assert!(
                        seen.insert(geo.ip_for(a.asn, host)),
                        "duplicate ip for asn {} host {host}",
                        a.asn
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn ip_block_overflow_panics() {
        let geo = Geography::paper();
        let _ = geo.ip_for(3320, 1 << 20);
    }

    #[test]
    #[should_panic(expected = "at least one country")]
    fn empty_plan_rejected() {
        let _ = Geography::from_plan(vec![]);
    }
}
