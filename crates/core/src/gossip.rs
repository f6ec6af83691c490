//! A gossip-built semantic overlay (the epidemic alternative).
//!
//! The paper's related work highlights a two-tier epidemic design
//! (Voulgaris & van Steen, evaluated on this very trace): a bottom
//! random-peer-sampling protocol keeps the overlay connected, and a top
//! protocol clusters peers by *cache-overlap proximity* — each peer
//! keeps the `S` peers whose caches overlap its own the most, improving
//! its view by gossiping candidates with neighbours every cycle.
//!
//! Where the LRU/History lists of [`crate::sim`] learn *reactively* from
//! downloads, this overlay converges *proactively*, before any search is
//! issued. Comparing the two (`reproduce --only gossip`) answers a design
//! question the paper leaves open: how much of the semantic-search gain
//! needs download history, and how much can be bootstrapped by gossip
//! alone?

use edonkey_trace::compact::CacheArena;
use edonkey_trace::model::FileRef;
use edonkey_trace::pipeline::sorted_intersection_len;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

use crate::neighbours::Peer;

/// Gossip protocol parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GossipConfig {
    /// Semantic view size `S` (the neighbour list the search will use).
    pub semantic_view: usize,
    /// Random view size `R` (peer-sampling tier).
    pub random_view: usize,
    /// Gossip cycles to run.
    pub cycles: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig {
            semantic_view: 20,
            random_view: 15,
            cycles: 25,
            seed: 0x905_51b,
        }
    }
}

/// The converged overlay: per-peer semantic views.
pub struct SemanticOverlay {
    /// `views[p]` = peer `p`'s semantic neighbours, best-overlap first.
    pub views: Vec<Vec<Peer>>,
    /// Gossip cycles actually run.
    pub cycles: u32,
}

/// Builds semantic views by gossip over a static view.
///
/// Free-riders participate in the random tier (they gossip) but are
/// never *kept* in semantic views — an empty cache overlaps nothing, so
/// proximity selection drops them naturally.
pub fn build_overlay(arena: &CacheArena, config: &GossipConfig) -> SemanticOverlay {
    let n = arena.n_peers();
    let mut rng = StdRng::seed_from_u64(config.seed);
    if n == 0 {
        return SemanticOverlay {
            views: Vec::new(),
            cycles: 0,
        };
    }

    // Bootstrap random views uniformly (in a deployment this is the
    // peer-sampling service; sampling uniformly is its steady state).
    let mut random_views: Vec<Vec<Peer>> = (0..n)
        .map(|p| {
            let mut view = Vec::with_capacity(config.random_view);
            let mut guard = 0;
            while view.len() < config.random_view.min(n.saturating_sub(1)) && guard < 10_000 {
                guard += 1;
                let pick = rng.gen_range(0..n) as Peer;
                if pick as usize != p && !view.contains(&pick) {
                    view.push(pick);
                }
            }
            view
        })
        .collect();

    let mut semantic_views: Vec<Vec<Peer>> = vec![Vec::new(); n];

    let overlap =
        |a: usize, b: usize| -> usize { sorted_intersection_len(arena.cache(a), arena.cache(b)) };

    for cycle in 0..config.cycles {
        for p in 0..n {
            // --- bottom tier: shuffle the random view (CYCLON-style) ---
            if !random_views[p].is_empty() {
                let partner = random_views[p][rng.gen_range(0..random_views[p].len())] as usize;
                // Exchange a random half of each view.
                let take_p: Vec<Peer> = sample_half(&random_views[p], &mut rng);
                let take_q: Vec<Peer> = sample_half(&random_views[partner], &mut rng);
                merge_view(&mut random_views[p], &take_q, p as Peer, config.random_view);
                merge_view(
                    &mut random_views[partner],
                    &take_p,
                    partner as Peer,
                    config.random_view,
                );
            }

            // --- top tier: improve the semantic view ---
            if arena.cache(p).is_empty() {
                continue; // Free-riders have no proximity to optimize.
            }
            // Candidate set: current semantic view, the partner's
            // semantic view (neighbours-of-neighbours carry the gradient
            // toward the cluster), and fresh random peers.
            let mut candidates: HashSet<Peer> = semantic_views[p].iter().copied().collect();
            if let Some(&q) = semantic_views[p].first() {
                candidates.extend(semantic_views[q as usize].iter().copied());
            }
            candidates.extend(random_views[p].iter().copied());
            candidates.remove(&(p as Peer));
            let mut scored: Vec<(usize, Peer)> = candidates
                .into_iter()
                .filter(|&c| !arena.cache(c as usize).is_empty())
                .map(|c| (overlap(p, c as usize), c))
                .filter(|&(score, _)| score > 0)
                .collect();
            scored.sort_unstable_by_key(|&(score, c)| (std::cmp::Reverse(score), c));
            scored.truncate(config.semantic_view);
            semantic_views[p] = scored.into_iter().map(|(_, c)| c).collect();
        }
        let _ = cycle;
    }

    SemanticOverlay {
        views: semantic_views,
        cycles: config.cycles,
    }
}

/// Takes up to half of a view, uniformly, without replacement.
fn sample_half(view: &[Peer], rng: &mut impl Rng) -> Vec<Peer> {
    let want = view.len().div_ceil(2);
    let mut pool: Vec<Peer> = view.to_vec();
    for i in (1..pool.len()).rev() {
        let j = rng.gen_range(0..=i);
        pool.swap(i, j);
    }
    pool.truncate(want);
    pool
}

/// Merges incoming entries into a bounded view (dedup, drop self,
/// evict oldest entries beyond capacity).
fn merge_view(view: &mut Vec<Peer>, incoming: &[Peer], owner: Peer, capacity: usize) {
    for &peer in incoming {
        if peer != owner && !view.contains(&peer) {
            view.insert(0, peer);
        }
    }
    view.truncate(capacity);
}

/// Measures the converged overlay with the Section 5.1 replay, using the
/// *fixed* gossip views as each peer's neighbour list (no reactive
/// updates — this isolates the proactive tier's contribution).
pub fn overlay_hit_rate(arena: &CacheArena, overlay: &SemanticOverlay, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let view_sets: Vec<HashSet<Peer>> = overlay
        .views
        .iter()
        .map(|v| v.iter().copied().collect())
        .collect();
    let mut stream: Vec<(u32, FileRef)> = arena
        .iter()
        .enumerate()
        .flat_map(|(p, cache)| cache.iter().map(move |&f| (p as u32, f)))
        .collect();
    for i in (1..stream.len()).rev() {
        let j = rng.gen_range(0..=i);
        stream.swap(i, j);
    }
    let mut sharers: Vec<Vec<Peer>> = vec![Vec::new(); arena.n_files()];
    let (mut requests, mut hits) = (0u64, 0u64);
    for (peer, file) in stream {
        let current = &sharers[file.index()];
        if current.is_empty() {
            sharers[file.index()].push(peer);
            continue;
        }
        requests += 1;
        if current.iter().any(|s| view_sets[peer as usize].contains(s)) {
            hits += 1;
        }
        sharers[file.index()].push(peer);
    }
    if requests == 0 {
        return 0.0;
    }
    hits as f64 / requests as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u32) -> FileRef {
        FileRef(i)
    }

    /// Communities of 6 peers with heavily overlapping caches, plus
    /// free-riders.
    fn clustered_caches() -> Vec<Vec<FileRef>> {
        let mut caches = Vec::new();
        for c in 0..8u32 {
            for p in 0..6u32 {
                let base = c * 20;
                caches.push((0..12).map(|k| f(base + (k + p) % 20)).collect());
            }
        }
        for _ in 0..10 {
            caches.push(Vec::new());
        }
        caches
    }

    fn clustered() -> CacheArena {
        CacheArena::from_caches(&clustered_caches(), 8 * 20)
    }

    #[test]
    fn views_converge_to_own_community() {
        let overlay = build_overlay(&clustered(), &GossipConfig::default());
        // Peer 0 is in community 0 (peers 0..6); after convergence its
        // semantic view must be dominated by community members.
        let mut in_community = 0;
        for &n in &overlay.views[0] {
            if (n as usize) < 6 {
                in_community += 1;
            }
        }
        assert!(
            in_community >= overlay.views[0].len().saturating_sub(1).max(3),
            "view {:?} should be community 0",
            overlay.views[0]
        );
    }

    #[test]
    fn views_never_contain_self_free_riders_or_duplicates() {
        let arena = clustered();
        let overlay = build_overlay(&arena, &GossipConfig::default());
        for (p, view) in overlay.views.iter().enumerate() {
            assert!(!view.contains(&(p as Peer)), "peer {p} lists itself");
            let set: HashSet<_> = view.iter().collect();
            assert_eq!(set.len(), view.len(), "peer {p} has duplicates");
            for &n in view {
                assert!(
                    !arena.cache(n as usize).is_empty(),
                    "free-rider in view of {p}"
                );
            }
        }
        // Free-riders end with empty semantic views.
        assert!(overlay.views[48].is_empty());
    }

    #[test]
    fn gossip_views_beat_random_views_on_replay() {
        let arena = clustered();
        let gossip = build_overlay(&arena, &GossipConfig::default());
        let gossip_rate = overlay_hit_rate(&arena, &gossip, 7);
        // Random baseline: one gossip cycle only, before clustering bites.
        let cold = build_overlay(
            &arena,
            &GossipConfig {
                cycles: 0,
                ..GossipConfig::default()
            },
        );
        let cold_rate = overlay_hit_rate(&arena, &cold, 7);
        assert!(
            gossip_rate > cold_rate + 0.2,
            "converged {gossip_rate} vs cold {cold_rate}"
        );
        assert!(
            gossip_rate > 0.6,
            "communities are near-duplicates: {gossip_rate}"
        );
    }

    #[test]
    fn more_cycles_never_hurt_much() {
        let arena = clustered();
        let short = build_overlay(
            &arena,
            &GossipConfig {
                cycles: 3,
                ..GossipConfig::default()
            },
        );
        let long = build_overlay(
            &arena,
            &GossipConfig {
                cycles: 40,
                ..GossipConfig::default()
            },
        );
        let short_rate = overlay_hit_rate(&arena, &short, 3);
        let long_rate = overlay_hit_rate(&arena, &long, 3);
        assert!(long_rate >= short_rate - 0.05, "{short_rate} → {long_rate}");
    }

    #[test]
    fn empty_inputs() {
        let empty = CacheArena::from_caches(&[], 0);
        let overlay = build_overlay(&empty, &GossipConfig::default());
        assert!(overlay.views.is_empty());
        assert_eq!(overlay_hit_rate(&empty, &overlay, 1), 0.0);
        // All free-riders: no requests, rate 0.
        let free_riders = CacheArena::from_caches(&vec![Vec::new(); 5], 0);
        let overlay = build_overlay(&free_riders, &GossipConfig::default());
        assert_eq!(overlay_hit_rate(&free_riders, &overlay, 1), 0.0);
    }

    #[test]
    fn determinism() {
        let arena = clustered();
        let a = build_overlay(&arena, &GossipConfig::default());
        let b = build_overlay(&arena, &GossipConfig::default());
        assert_eq!(a.views, b.views);
    }
}
