//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, the layer whose code does the work, its
//! parent, start/end nanoseconds since the run began, and the heap
//! traffic and RSS high-water mark from the bench crate's counting
//! allocator. With recording off, [`Tracer::span`] still times the call
//! (the end-to-end metrics need those durations) but reads no counters
//! and stores nothing, so traced and untraced runs make the same calls.

use std::time::Instant;

use edonkey_bench::alloc;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub layer: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocations made while the span was open (children included).
    pub alloc_count: u64,
    /// Bytes requested while the span was open (children included).
    pub alloc_bytes: u64,
    /// Process `VmHWM` when the span closed, KiB.
    pub rss_kb: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Records spans when enabled; always measures wall time.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` attributed to `layer`, and
    /// returns its result with the wall seconds it took.
    pub fn span<R>(
        &mut self,
        layer: &str,
        name: &str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, f64) {
        if !self.on {
            let start = Instant::now();
            let r = f(self);
            return (r, start.elapsed().as_secs_f64());
        }
        let idx = self.spans.len();
        let before = alloc::snapshot();
        let start = Instant::now();
        self.spans.push(Span {
            name: name.to_string(),
            layer: layer.to_string(),
            parent: self.open.last().copied(),
            start_ns: self.ns(start),
            end_ns: 0,
            alloc_count: 0,
            alloc_bytes: 0,
            rss_kb: 0,
        });
        self.open.push(idx);
        let r = f(self);
        let end = Instant::now();
        let allocs = alloc::since(before);
        self.open.pop();
        let end_ns = self.ns(end);
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        span.alloc_count = allocs.count;
        span.alloc_bytes = allocs.bytes;
        span.rss_kb = alloc::peak_rss_kb().unwrap_or(0);
        (r, (end - start).as_secs_f64())
    }

    fn ns(&self, t: Instant) -> u64 {
        (t - self.origin).as_nanos() as u64
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Checks that every span lies inside its parent and that siblings do
/// not overlap. Returns the first violation.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    let mut last_child_end: Vec<Option<u64>> = vec![None; spans.len() + 1];
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {} ends before it starts", s.name));
        }
        let slot = match s.parent {
            Some(p) if p >= i => {
                return Err(format!("span {} names a later parent {p}", s.name));
            }
            Some(p) => {
                let parent = &spans[p];
                if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                    return Err(format!("span {} leaves its parent {}", s.name, parent.name));
                }
                p
            }
            None => spans.len(),
        };
        if last_child_end[slot].is_some_and(|end| s.start_ns < end) {
            return Err(format!("span {} overlaps its previous sibling", s.name));
        }
        last_child_end[slot] = Some(s.end_ns);
    }
    Ok(())
}

/// Per-span self values: duration and allocations minus what the
/// span's direct children cover (children are sequential, so their
/// intervals do not overlap).
pub fn self_values(spans: &[Span]) -> Vec<(u64, u64, u64)> {
    let mut out: Vec<(u64, u64, u64)> = spans
        .iter()
        .map(|s| (s.end_ns - s.start_ns, s.alloc_count, s.alloc_bytes))
        .collect();
    for s in spans {
        if let Some(p) = s.parent {
            let o = &mut out[p];
            o.0 = o.0.saturating_sub(s.end_ns - s.start_ns);
            o.1 = o.1.saturating_sub(s.alloc_count);
            o.2 = o.2.saturating_sub(s.alloc_bytes);
        }
    }
    out
}

/// Self time, allocations and allocated bytes summed per layer, in
/// first-seen layer order.
pub fn layer_totals(spans: &[Span]) -> Vec<(String, f64, u64, u64)> {
    let mut totals: Vec<(String, f64, u64, u64)> = Vec::new();
    for (s, (ns, count, bytes)) in spans.iter().zip(self_values(spans)) {
        let i = match totals.iter().position(|t| t.0 == s.layer) {
            Some(i) => i,
            None => {
                totals.push((s.layer.clone(), 0.0, 0, 0));
                totals.len() - 1
            }
        };
        totals[i].1 += ns as f64 / 1e9;
        totals[i].2 += count;
        totals[i].3 += bytes;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_give_self_time_and_pass_the_nesting_check() {
        let mut t = Tracer::new(true);
        t.span("run", "run", |t| {
            t.span("core", "a", |_| std::hint::black_box(vec![1u8; 64]));
            t.span("core", "b", |_| ());
        });
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        check_nesting(&spans).expect("well nested");
        let selfs = self_values(&spans);
        let children = spans[1].end_ns - spans[1].start_ns + spans[2].end_ns - spans[2].start_ns;
        assert_eq!(selfs[0].0, spans[0].end_ns - spans[0].start_ns - children);
        assert!(spans[1].alloc_count >= 1);
        let layers = layer_totals(&spans);
        assert_eq!(
            layers.iter().map(|l| l.0.as_str()).collect::<Vec<_>>(),
            ["run", "core"]
        );
    }

    #[test]
    fn nesting_check_rejects_overlap_and_escape() {
        let span = |name: &str, parent, start_ns, end_ns| Span {
            name: name.into(),
            layer: "core".into(),
            parent,
            start_ns,
            end_ns,
            alloc_count: 0,
            alloc_bytes: 0,
            rss_kb: 0,
        };
        let escaped = [span("root", None, 0, 10), span("child", Some(0), 5, 11)];
        assert!(check_nesting(&escaped).is_err());
        let overlap = [
            span("root", None, 0, 10),
            span("a", Some(0), 1, 5),
            span("b", Some(0), 4, 6),
        ];
        assert!(check_nesting(&overlap).is_err());
    }

    #[test]
    fn disabled_tracer_records_nothing_but_times() {
        let mut t = Tracer::new(false);
        let (v, secs) = t.span("core", "x", |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.into_spans().is_empty());
    }
}
