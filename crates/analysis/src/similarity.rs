//! Peer-to-peer similarity metrics beyond raw overlap.
//!
//! The paper measures proximity as the raw number of common files (the
//! natural choice for "will this peer answer my next query"). Follow-up
//! systems (e.g. the epidemic overlay of related work \[31\]) use
//! normalized metrics so that whales don't dominate every ranking. This
//! module provides the standard family over sorted cache slices:
//!
//! * [`jaccard`] — `|A∩B| / |A∪B|`, symmetric, size-penalizing;
//! * [`cosine`] — `|A∩B| / √(|A|·|B|)`, the set-cosine;
//! * [`overlap_coefficient`] — `|A∩B| / min(|A|,|B|)`, subset-friendly;
//! * [`common`] — the paper's raw count, for completeness.

use edonkey_trace::model::FileRef;
use edonkey_trace::pipeline::sorted_intersection_len;

/// Raw common-file count (the paper's metric).
pub fn common(a: &[FileRef], b: &[FileRef]) -> usize {
    sorted_intersection_len(a, b)
}

/// Jaccard similarity in `[0,1]`; 0 when either cache is empty.
///
/// # Examples
///
/// ```
/// use edonkey_analysis::similarity::jaccard;
/// use edonkey_trace::model::FileRef;
///
/// let a = [FileRef(0), FileRef(1), FileRef(2)];
/// let b = [FileRef(1), FileRef(2), FileRef(3)];
/// assert!((jaccard(&a, &b) - 0.5).abs() < 1e-12);
/// ```
pub fn jaccard(a: &[FileRef], b: &[FileRef]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let inter = sorted_intersection_len(a, b);
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Set-cosine similarity in `[0,1]`; 0 when either cache is empty.
pub fn cosine(a: &[FileRef], b: &[FileRef]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let inter = sorted_intersection_len(a, b) as f64;
    inter / ((a.len() as f64) * (b.len() as f64)).sqrt()
}

/// Overlap coefficient in `[0,1]`: 1 whenever one cache contains the
/// other; 0 when either is empty.
pub fn overlap_coefficient(a: &[FileRef], b: &[FileRef]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let inter = sorted_intersection_len(a, b) as f64;
    inter / a.len().min(b.len()) as f64
}

/// Which metric to rank by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    /// Raw common count.
    Common,
    /// Jaccard.
    Jaccard,
    /// Set-cosine.
    Cosine,
    /// Overlap coefficient.
    OverlapCoefficient,
}

impl Metric {
    /// Evaluates the metric.
    pub fn eval(&self, a: &[FileRef], b: &[FileRef]) -> f64 {
        match self {
            Metric::Common => common(a, b) as f64,
            Metric::Jaccard => jaccard(a, b),
            Metric::Cosine => cosine(a, b),
            Metric::OverlapCoefficient => overlap_coefficient(a, b),
        }
    }
}

/// The `k` most similar peers to `peer` under a metric, descending
/// (ties broken by peer index; the peer itself and zero-similarity
/// peers excluded).
///
/// Brute force over candidates — callers pass a candidate slice (e.g.
/// an inverted-index preselection) when the population is large.
pub fn most_similar(
    peer: usize,
    caches: &[Vec<FileRef>],
    candidates: impl IntoIterator<Item = usize>,
    metric: Metric,
    k: usize,
) -> Vec<(usize, f64)> {
    let mut scored: Vec<(usize, f64)> = candidates
        .into_iter()
        .filter(|&c| c != peer && c < caches.len())
        .map(|c| (c, metric.eval(&caches[peer], &caches[c])))
        .filter(|&(_, s)| s > 0.0)
        .collect();
    scored.sort_by(|x, y| {
        y.1.partial_cmp(&x.1)
            .expect("similarities are finite")
            .then(x.0.cmp(&y.0))
    });
    scored.truncate(k);
    scored
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(ids: &[u32]) -> Vec<FileRef> {
        ids.iter().map(|&i| FileRef(i)).collect()
    }

    #[test]
    fn metric_values() {
        let a = f(&[0, 1, 2, 3]);
        let b = f(&[2, 3, 4, 5]);
        assert_eq!(common(&a, &b), 2);
        assert!((jaccard(&a, &b) - 2.0 / 6.0).abs() < 1e-12);
        assert!((cosine(&a, &b) - 0.5).abs() < 1e-12);
        assert!((overlap_coefficient(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn subset_behaviour_differs_by_metric() {
        let big = f(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let small = f(&[0, 1]);
        assert_eq!(
            overlap_coefficient(&big, &small),
            1.0,
            "subset maxes overlap coef"
        );
        assert!(
            jaccard(&big, &small) < 0.3,
            "jaccard penalizes the size gap"
        );
    }

    #[test]
    fn empty_caches_are_zero() {
        let a = f(&[0]);
        for m in [
            Metric::Common,
            Metric::Jaccard,
            Metric::Cosine,
            Metric::OverlapCoefficient,
        ] {
            assert_eq!(m.eval(&a, &[]), 0.0, "{m:?}");
            assert_eq!(m.eval(&[], &[]), 0.0, "{m:?}");
        }
    }

    #[test]
    fn bounds_hold() {
        let a = f(&[0, 1, 2]);
        let b = f(&[1, 2, 3, 4]);
        for m in [Metric::Jaccard, Metric::Cosine, Metric::OverlapCoefficient] {
            let v = m.eval(&a, &b);
            assert!((0.0..=1.0).contains(&v), "{m:?} = {v}");
            let same = m.eval(&a, &a);
            assert!((same - 1.0).abs() < 1e-12, "{m:?} self-similarity");
        }
    }

    #[test]
    fn ranking_and_exclusions() {
        let caches = vec![
            f(&[0, 1, 2, 3]), // peer 0
            f(&[0, 1, 2]),    // near-duplicate
            f(&[0]),          // small overlap
            f(&[9]),          // disjoint
            vec![],           // free-rider
        ];
        let top = most_similar(0, &caches, 0..caches.len(), Metric::Jaccard, 10);
        assert_eq!(top.len(), 2, "self, disjoint and empty are excluded");
        assert_eq!(top[0].0, 1);
        assert_eq!(top[1].0, 2);
        let top1 = most_similar(0, &caches, 0..caches.len(), Metric::Common, 1);
        assert_eq!(top1.len(), 1);
        assert_eq!(top1[0], (1, 3.0));
    }
}
