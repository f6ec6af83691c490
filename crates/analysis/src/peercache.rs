//! Quantifying the PeerCache opportunity (Section 4.1).
//!
//! The paper observes that 54 % of clients sit in five ASes and points
//! at operator-run caches (PeerCache) as the way to exploit it: *"a
//! cache is shared between clients belonging to the same AS … to avoid
//! the issue of network operators storing potential illegal contents,
//! caches may contain index rather than content."* This module measures
//! exactly how far that would go: for every would-be request (a cache
//! entry, under the Section 5.1 request model), could it have been
//! served from inside the requester's own AS or country?

use std::collections::HashMap;

use edonkey_trace::compact::CacheArena;
use edonkey_trace::model::Trace;

use crate::view::popularity;

/// Locality of a request's best available source.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LocalityCounts {
    /// Requests servable by another peer in the same AS.
    pub same_as: u64,
    /// Requests servable in the same country (including same AS).
    pub same_country: u64,
    /// Requests with at least one other source anywhere.
    pub servable: u64,
    /// Requests considered (one per replica, excluding sole sources).
    pub total: u64,
}

impl LocalityCounts {
    /// Fraction of servable requests answerable within the AS.
    pub fn as_hit_rate(&self) -> f64 {
        if self.servable == 0 {
            return 0.0;
        }
        self.same_as as f64 / self.servable as f64
    }

    /// Fraction of servable requests answerable within the country.
    pub fn country_hit_rate(&self) -> f64 {
        if self.servable == 0 {
            return 0.0;
        }
        self.same_country as f64 / self.servable as f64
    }
}

/// Measures request locality over the trace's static view.
///
/// Each `(peer, file)` cache entry stands for one request (the Section
/// 5.1 replay model); the question is whether *another* holder of the
/// file shares the requester's AS or country.
pub fn request_locality(trace: &Trace, view: &CacheArena) -> LocalityCounts {
    let mut counts = LocalityCounts::default();
    for (peer_idx, cache) in view.iter().enumerate() {
        let me = &trace.peers[peer_idx];
        for &f in cache {
            counts.total += 1;
            let sources = view.holders(f);
            let mut any = false;
            let mut same_as = false;
            let mut same_country = false;
            for &s in sources {
                if s as usize == peer_idx {
                    continue;
                }
                any = true;
                let other = &trace.peers[s as usize];
                same_as |= other.asn == me.asn;
                same_country |= other.country == me.country;
            }
            if any {
                counts.servable += 1;
                if same_as {
                    counts.same_as += 1;
                }
                if same_country {
                    counts.same_country += 1;
                }
            }
        }
    }
    counts
}

/// Per-AS cache effectiveness: for the top ASes by client count, the
/// fraction of their members' servable requests answerable inside the
/// AS. Returns `(asn, clients, as_hit_rate)` sorted by clients.
pub fn per_as_hit_rates(trace: &Trace, view: &CacheArena, top: usize) -> Vec<(u32, usize, f64)> {
    let mut clients_per_as: HashMap<u32, usize> = HashMap::new();
    for p in &trace.peers {
        *clients_per_as.entry(p.asn).or_insert(0) += 1;
    }
    let mut per_as: HashMap<u32, (u64, u64)> = HashMap::new(); // (local, servable)
    for (peer_idx, cache) in view.iter().enumerate() {
        let me = &trace.peers[peer_idx];
        for &f in cache {
            let sources = view.holders(f);
            let mut any = false;
            let mut local = false;
            for &s in sources {
                if s as usize == peer_idx {
                    continue;
                }
                any = true;
                local |= trace.peers[s as usize].asn == me.asn;
            }
            if any {
                let entry = per_as.entry(me.asn).or_insert((0, 0));
                entry.1 += 1;
                if local {
                    entry.0 += 1;
                }
            }
        }
    }
    let mut rows: Vec<(u32, usize, f64)> = per_as
        .into_iter()
        .map(|(asn, (local, servable))| {
            (
                asn,
                clients_per_as.get(&asn).copied().unwrap_or(0),
                if servable == 0 {
                    0.0
                } else {
                    local as f64 / servable as f64
                },
            )
        })
        .collect();
    rows.sort_by_key(|&(asn, clients, _)| (std::cmp::Reverse(clients), asn));
    rows.truncate(top);
    rows
}

/// Splits the AS hit rate by file popularity band — the cache helps
/// most where sources are plentiful, so this quantifies how much of the
/// benefit is popular-file traffic.
pub fn as_hit_rate_by_popularity(
    trace: &Trace,
    view: &CacheArena,
    bands: &[(u32, u32)],
) -> Vec<((u32, u32), f64)> {
    let popularity = popularity(view);
    bands
        .iter()
        .map(|&(lo, hi)| {
            let mut local = 0u64;
            let mut servable = 0u64;
            for (peer_idx, cache) in view.iter().enumerate() {
                let me = &trace.peers[peer_idx];
                for &f in cache {
                    if !(lo..=hi).contains(&popularity[f.index()]) {
                        continue;
                    }
                    let mut any = false;
                    let mut is_local = false;
                    for &s in view.holders(f) {
                        if s as usize == peer_idx {
                            continue;
                        }
                        any = true;
                        is_local |= trace.peers[s as usize].asn == me.asn;
                    }
                    if any {
                        servable += 1;
                        if is_local {
                            local += 1;
                        }
                    }
                }
            }
            (
                (lo, hi),
                if servable == 0 {
                    0.0
                } else {
                    local as f64 / servable as f64
                },
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use edonkey_proto::md4::Md4;
    use edonkey_proto::query::FileKind;
    use edonkey_trace::model::{CountryCode, FileInfo, PeerInfo, TraceBuilder};

    /// Two FR peers in AS 3215, one FR peer in AS 12322, one DE peer.
    fn build() -> Trace {
        let mut b = TraceBuilder::new();
        let mk = |b: &mut TraceBuilder, i: u8, cc: &str, asn: u32| {
            b.intern_peer(PeerInfo {
                uid: Md4::digest(&[i]),
                ip: i as u32,
                country: CountryCode::new(cc),
                asn,
            })
        };
        let a1 = mk(&mut b, 0, "FR", 3215);
        let a2 = mk(&mut b, 1, "FR", 3215);
        let fr3 = mk(&mut b, 2, "FR", 12322);
        let de = mk(&mut b, 3, "DE", 3320);
        let f = |b: &mut TraceBuilder, n: u8| {
            b.intern_file(FileInfo {
                id: Md4::digest(&[b'f', n]),
                size: 1,
                kind: FileKind::Audio,
            })
        };
        let f0 = f(&mut b, 0); // held by a1, a2 (same AS pair)
        let f1 = f(&mut b, 1); // held by a1, fr3 (same country, diff AS)
        let f2 = f(&mut b, 2); // held by a1, de (cross-country)
        let f3 = f(&mut b, 3); // held only by de (unservable)
        b.observe(1, a1, vec![f0, f1, f2]);
        b.observe(1, a2, vec![f0]);
        b.observe(1, fr3, vec![f1]);
        b.observe(1, de, vec![f2, f3]);
        b.finish()
    }

    fn static_view(trace: &Trace) -> CacheArena {
        CacheArena::from_trace_static(trace)
    }

    #[test]
    fn locality_counts() {
        let trace = build();
        let c = request_locality(&trace, &static_view(&trace));
        // Requests: a1 {f0,f1,f2}, a2 {f0}, fr3 {f1}, de {f2,f3} → 7 total.
        assert_eq!(c.total, 7);
        // f3 has a single holder → unservable; the rest have partners.
        assert_eq!(c.servable, 6);
        // Same-AS: f0 both ways (a1↔a2) = 2.
        assert_eq!(c.same_as, 2);
        // Same-country adds f1 both ways (a1↔fr3) = 4.
        assert_eq!(c.same_country, 4);
        assert!((c.as_hit_rate() - 2.0 / 6.0).abs() < 1e-12);
        assert!((c.country_hit_rate() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn per_as_rates() {
        let trace = build();
        let rows = per_as_hit_rates(&trace, &static_view(&trace), 10);
        assert_eq!(rows[0].0, 3215, "largest AS first");
        assert_eq!(rows[0].1, 2);
        // AS 3215's servable requests: a1 {f0,f1,f2}, a2 {f0};
        // locally answerable: both f0 requests → 2/4.
        assert!((rows[0].2 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn popularity_bands() {
        let trace = build();
        let rows = as_hit_rate_by_popularity(&trace, &static_view(&trace), &[(1, 1), (2, 9)]);
        // Band (2,9): files with 2 holders: f0, f1, f2.
        let (_, rate) = rows[1];
        assert!((rate - 2.0 / 6.0).abs() < 1e-12);
        // Band (1,1): only f3, unservable → 0.
        assert_eq!(rows[0].1, 0.0);
    }

    #[test]
    fn empty_trace_is_zero() {
        let empty = Trace::new();
        let view = static_view(&empty);
        let c = request_locality(&empty, &view);
        assert_eq!(c.total, 0);
        assert_eq!(c.as_hit_rate(), 0.0);
        assert_eq!(c.country_hit_rate(), 0.0);
        assert!(per_as_hit_rates(&empty, &view, 5).is_empty());
    }
}
