//! Fig. 4 (clients per country) and Table 2 (top autonomous systems).

use std::collections::HashMap;

use edonkey_trace::compact::TraceArena;
use edonkey_trace::model::CountryCode;

/// Fig. 4: clients per country, descending, with fractional shares.
pub fn clients_per_country(trace: &TraceArena) -> Vec<(CountryCode, usize, f64)> {
    let mut counts: HashMap<CountryCode, usize> = HashMap::new();
    for peer in &trace.peers {
        *counts.entry(peer.country).or_insert(0) += 1;
    }
    let total = trace.peers.len().max(1);
    let mut rows: Vec<(CountryCode, usize, f64)> = counts
        .into_iter()
        .map(|(cc, n)| (cc, n, n as f64 / total as f64))
        .collect();
    rows.sort_by_key(|&(cc, n, _)| (std::cmp::Reverse(n), cc));
    rows
}

/// One row of Table 2.
#[derive(Clone, Debug, PartialEq)]
pub struct AsRow {
    /// Autonomous system number.
    pub asn: u32,
    /// Country hosting the AS (by its clients' country).
    pub country: CountryCode,
    /// Share of all clients, in `[0,1]` ("Global").
    pub global_share: f64,
    /// Share of the AS country's clients, in `[0,1]` ("National").
    pub national_share: f64,
    /// Clients in the AS.
    pub clients: usize,
}

/// Table 2: the top-`k` ASes by hosted clients.
pub fn top_autonomous_systems(trace: &TraceArena, k: usize) -> Vec<AsRow> {
    let mut by_as: HashMap<u32, (usize, CountryCode)> = HashMap::new();
    let mut by_country: HashMap<CountryCode, usize> = HashMap::new();
    for peer in &trace.peers {
        let entry = by_as.entry(peer.asn).or_insert((0, peer.country));
        entry.0 += 1;
        *by_country.entry(peer.country).or_insert(0) += 1;
    }
    let total = trace.peers.len().max(1);
    let mut rows: Vec<AsRow> = by_as
        .into_iter()
        .map(|(asn, (clients, country))| AsRow {
            asn,
            country,
            global_share: clients as f64 / total as f64,
            national_share: clients as f64 / *by_country.get(&country).expect("seen") as f64,
            clients,
        })
        .collect();
    rows.sort_by_key(|r| (std::cmp::Reverse(r.clients), r.asn));
    rows.truncate(k);
    rows
}

/// The combined share of the top-`k` ASes — the paper notes the top five
/// host 54 % of all clients.
pub fn top_as_combined_share(trace: &TraceArena, k: usize) -> f64 {
    top_autonomous_systems(trace, k)
        .iter()
        .map(|r| r.global_share)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use edonkey_proto::md4::Md4;
    use edonkey_trace::model::{PeerInfo, TraceBuilder};

    fn build() -> TraceArena {
        let mut b = TraceBuilder::new();
        let spec = [
            ("FR", 3215u32, 3),
            ("FR", 12322, 1),
            ("DE", 3320, 4),
            ("ES", 3352, 2),
        ];
        let mut i = 0u8;
        for (cc, asn, n) in spec {
            for _ in 0..n {
                b.intern_peer(PeerInfo {
                    uid: Md4::digest(&[i]),
                    ip: i as u32,
                    country: CountryCode::new(cc),
                    asn,
                });
                i += 1;
            }
        }
        b.finish()
    }

    #[test]
    fn country_distribution_descending() {
        let rows = clients_per_country(&build());
        assert_eq!(rows[0].0, CountryCode::new("DE"));
        assert_eq!(rows[0].1, 4);
        assert!((rows[0].2 - 0.4).abs() < 1e-12);
        assert_eq!(rows[1].0, CountryCode::new("FR"));
        assert_eq!(rows[1].1, 4);
        assert!(rows.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn as_table_shares() {
        let rows = top_autonomous_systems(&build(), 2);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].asn, 3320);
        assert!((rows[0].global_share - 0.4).abs() < 1e-12);
        assert!((rows[0].national_share - 1.0).abs() < 1e-12);
        assert_eq!(rows[1].asn, 3215);
        assert!((rows[1].national_share - 0.75).abs() < 1e-12);
        let combined = top_as_combined_share(&build(), 2);
        assert!((combined - 0.7).abs() < 1e-12);
    }

    #[test]
    fn empty_trace() {
        let trace = TraceArena::default();
        assert!(clients_per_country(&trace).is_empty());
        assert!(top_autonomous_systems(&trace, 5).is_empty());
        assert_eq!(top_as_combined_share(&trace, 5), 0.0);
    }
}
