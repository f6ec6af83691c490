//! Order-preserving parallel map over slices.
//!
//! The workspace's sweeps and derivations are CPU-bound and
//! embarrassingly parallel; this module provides the order-preserving
//! fan-out most of them share. It lives in the trace crate (the bottom
//! of the dependency stack) so the derivation pipeline can shard work
//! per client without pulling in the simulation crates;
//! `edonkey-semsearch` re-exports it for its experiment harnesses. A
//! few stages run their own scoped threads instead: the banded overlap
//! engine's row cursor and sketch split, the population build, the
//! streaming generator and the randomization sweep's snapshot worker.

/// Maps `items` in parallel with scoped threads, preserving order.
///
/// Uses `available_parallelism` threads; see [`parallel_map_init`] for
/// the scheduling contract.
pub fn parallel_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    parallel_map_init(items, || (), |(), item| f(item))
}

/// [`parallel_map`] with per-worker state: `init` runs once on each
/// worker thread and the resulting value is threaded through every call
/// that worker makes, so scratch allocations (e.g. simulation buffers)
/// are reused across sweep points instead of rebuilt per item.
///
/// Threads are spawned once and pull work off a shared atomic cursor in
/// small chunks; results carry their item index, so output order always
/// matches input order regardless of scheduling. A panic in `f` is
/// re-raised on the caller's thread (after remaining workers drain)
/// rather than poisoning a lock or deadlocking.
pub fn parallel_map_init<T: Sync, S, R: Send>(
    items: &[T],
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, &T) -> R + Sync,
) -> Vec<R> {
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    parallel_map_init_threads(items, threads, init, f)
}

/// [`parallel_map_init`] with an explicit worker count — the hook the
/// determinism tests use to prove results are bit-identical for any
/// thread count.
pub fn parallel_map_init_threads<T: Sync, S, R: Send>(
    items: &[T],
    threads: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, &T) -> R + Sync,
) -> Vec<R> {
    if items.is_empty() {
        return Vec::new();
    }
    let threads = threads.clamp(1, items.len());
    // Chunked claiming keeps cursor contention negligible for large item
    // counts while still load-balancing uneven per-item cost.
    let chunk = (items.len() / (threads * 8)).max(1);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let partials: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut out = Vec::new();
                    loop {
                        let start = next.fetch_add(chunk, std::sync::atomic::Ordering::Relaxed);
                        if start >= items.len() {
                            break;
                        }
                        let end = (start + chunk).min(items.len());
                        for (i, item) in items[start..end].iter().enumerate() {
                            out.push((start + i, f(&mut state, item)));
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                // Re-raise the worker's panic payload; the enclosing scope
                // still joins the remaining workers on unwind.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in partials.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|r| r.expect("cursor covers every index"))
        .collect()
}

/// [`parallel_map_init_threads`] that claims items in *descending
/// weight order* instead of input order.
///
/// The sweep schedulers feed this wildly skewed tasks (one list-size-200
/// cell costs more than all the small cells together); starting the
/// heavy tasks first keeps the tail of the schedule short, while the
/// output still comes back in input order. `weights[i]` is an abstract
/// cost estimate for `items[i]` — only the ordering matters, and since
/// every item is computed independently the result is bit-identical for
/// any weight assignment and any thread count.
///
/// # Panics
///
/// Panics if `weights.len() != items.len()`.
pub fn parallel_map_weighted<T: Sync, S, R: Send>(
    items: &[T],
    weights: &[u64],
    threads: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, &T) -> R + Sync,
) -> Vec<R> {
    assert_eq!(
        items.len(),
        weights.len(),
        "one weight per item is required"
    );
    if items.is_empty() {
        return Vec::new();
    }
    let threads = threads.clamp(1, items.len());
    // Indirection: workers claim positions in `order`, which sorts item
    // indices heaviest-first (stable, so equal weights keep input order).
    let mut order: Vec<u32> = (0..items.len() as u32).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(weights[i as usize]));
    // Tasks are few and heavy, so claim one at a time: perfect stealing
    // beats chunked cursor amortization here.
    let next = std::sync::atomic::AtomicUsize::new(0);
    let partials: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let order = &order;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut out = Vec::new();
                    loop {
                        let pos = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if pos >= order.len() {
                            break;
                        }
                        let i = order[pos] as usize;
                        out.push((i, f(&mut state, &items[i])));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in partials.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|r| r.expect("cursor covers every index"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map(&items, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        assert!(parallel_map(&[] as &[usize], |&x| x).is_empty());
    }

    #[test]
    fn explicit_thread_counts_agree() {
        let items: Vec<usize> = (0..257).collect();
        let expect: Vec<usize> = items.iter().map(|&x| x * x).collect();
        for threads in [1, 2, 3, 8, 64] {
            let out = parallel_map_init_threads(&items, threads, || (), |(), &x| x * x);
            assert_eq!(out, expect, "threads = {threads}");
        }
    }

    #[test]
    fn init_state_is_per_worker() {
        let items: Vec<usize> = (0..64).collect();
        let out = parallel_map_init(&items, Vec::new, |scratch: &mut Vec<usize>, &x| {
            scratch.push(x);
            (x, scratch.len())
        });
        assert_eq!(out.len(), 64);
        for (i, (x, seen)) in out.iter().enumerate() {
            assert_eq!(*x, i);
            assert!(*seen >= 1);
        }
    }

    #[test]
    fn weighted_map_matches_plain_map_for_any_thread_count() {
        let items: Vec<usize> = (0..97).collect();
        let expect: Vec<usize> = items.iter().map(|&x| x * 3).collect();
        // Skewed, uniform and zero weights must all be order-neutral.
        let skewed: Vec<u64> = items.iter().map(|&x| (x as u64 % 7) * 1000).collect();
        for weights in [skewed, vec![1; 97], vec![0; 97]] {
            for threads in [1, 2, 5, 16] {
                let out = parallel_map_weighted(&items, &weights, threads, || (), |(), &x| x * 3);
                assert_eq!(out, expect, "threads = {threads}");
            }
        }
        assert!(parallel_map_weighted(&[] as &[usize], &[], 4, || (), |(), &x| x).is_empty());
    }

    #[test]
    #[should_panic(expected = "one weight per item")]
    fn weighted_map_rejects_length_mismatch() {
        let _ = parallel_map_weighted(&[1usize, 2], &[1], 2, || (), |(), &x| x);
    }

    #[test]
    fn propagates_worker_panics() {
        let items: Vec<usize> = (0..64).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_map(&items, |&x| {
                if x == 13 {
                    panic!("boom at {x}");
                }
                x
            })
        }));
        assert!(result.is_err(), "worker panic must propagate to the caller");
    }
}
