//! Trace surgery for the sensitivity experiments: removing generous
//! uploaders (Fig. 19) and popular files (Fig. 20, Table 3), as arena
//! to arena transforms of a static view.

use edonkey_trace::compact::CacheArena;
use edonkey_trace::model::FileRef;

/// Empties the caches of the top `fraction` most generous uploaders
/// (ranked by cache size among non-free-riders), returning the modified
/// arena and how many uploaders were removed.
///
/// The paper removes "the 5, 10 and 15 % most generous uploaders from
/// the non free-riders" — their files vanish from the system and they
/// issue no requests.
///
/// Ties at the cut boundary are broken by peer index for determinism.
pub fn remove_top_uploaders(arena: &CacheArena, fraction: f64) -> (CacheArena, usize) {
    assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
    let mut sharers: Vec<(usize, usize)> = arena
        .iter()
        .enumerate()
        .filter(|(_, c)| !c.is_empty())
        .map(|(p, c)| (p, c.len()))
        .collect();
    sharers.sort_unstable_by_key(|&(p, len)| (std::cmp::Reverse(len), p));
    let k = ((sharers.len() as f64 * fraction).round() as usize).min(sharers.len());
    let mut removed = vec![false; arena.n_peers()];
    for &(p, _) in &sharers[..k] {
        removed[p] = true;
    }
    let mut out = arena.clone();
    out.retain(|p, _| !removed[p]);
    (out, k)
}

/// Removes the top `fraction` most popular files (by holder count) from
/// every cache, returning the modified arena and the removed files.
///
/// This shrinks the request stream exactly as the paper reports (67 %,
/// 48 % and 33 % of requests remain after removing 5 %, 15 % and 30 % of
/// the most popular files). Popularity ranks only count files with at
/// least one holder; ties break by file index.
pub fn remove_top_files(arena: &CacheArena, fraction: f64) -> (CacheArena, Vec<FileRef>) {
    assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
    let mut counts = vec![0u32; arena.n_files()];
    for cache in arena.iter() {
        for f in cache {
            counts[f.index()] += 1;
        }
    }
    let mut ranked: Vec<u32> = (0..arena.n_files() as u32)
        .filter(|&i| counts[i as usize] > 0)
        .collect();
    ranked.sort_unstable_by_key(|&i| (std::cmp::Reverse(counts[i as usize]), i));
    let k = (ranked.len() as f64 * fraction).round() as usize;
    let removed: Vec<FileRef> = ranked[..k.min(ranked.len())]
        .iter()
        .map(|&i| FileRef(i))
        .collect();
    let mut dead = vec![false; arena.n_files()];
    for f in &removed {
        dead[f.index()] = true;
    }
    let mut out = arena.clone();
    out.retain(|_, f| !dead[f.index()]);
    (out, removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u32) -> FileRef {
        FileRef(i)
    }

    fn caches() -> Vec<Vec<FileRef>> {
        vec![
            (0..10).map(f).collect(), // generous: 10 files
            vec![f(0), f(1)],
            vec![f(0)],
            vec![],
        ]
    }

    fn arena(n_files: usize) -> CacheArena {
        CacheArena::from_caches(&caches(), n_files)
    }

    #[test]
    fn top_uploader_removal() {
        let (out, removed) = remove_top_uploaders(&arena(10), 0.34);
        assert_eq!(removed, 1, "one of three sharers");
        assert!(out.cache(0).is_empty(), "the generous peer is emptied");
        assert_eq!(out.cache(1).len(), 2);
        assert_eq!(out.replica_count(), 3);
    }

    #[test]
    fn uploader_removal_extremes() {
        let (out, removed) = remove_top_uploaders(&arena(10), 0.0);
        assert_eq!(removed, 0);
        assert_eq!(out.to_caches(), caches());
        let (out, removed) = remove_top_uploaders(&arena(10), 1.0);
        assert_eq!(removed, 3);
        assert_eq!(out.replica_count(), 0);
    }

    #[test]
    fn popular_file_removal() {
        // Popularity: f0 = 3, f1 = 2, rest 1. Remove top ~10% (1 of 10).
        let (out, removed) = remove_top_files(&arena(10), 0.1);
        assert_eq!(removed, vec![f(0)]);
        assert!(out.cache(2).is_empty());
        assert_eq!(out.cache(0).len(), 9);
        assert_eq!(out.replica_count(), 10);
    }

    #[test]
    fn file_removal_only_counts_held_files() {
        // n_files = 100 but only 10 are held; fraction applies to the 10.
        let (_, removed) = remove_top_files(&arena(100), 0.2);
        assert_eq!(removed.len(), 2);
        assert_eq!(removed, vec![f(0), f(1)]);
    }

    #[test]
    #[should_panic(expected = "fraction must be in")]
    fn bad_fraction_rejected() {
        let _ = remove_top_uploaders(&arena(10), 1.5);
    }
}
