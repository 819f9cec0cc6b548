//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name (the layer, as `crate.module`), a start and an end,
//! the span that caused it and the request it belongs to. Spans stay in
//! memory until the run ends. A layer's self time is its span's duration
//! minus the part of that interval its child spans cover.

use crate::alloc;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// The request (one unit of the workload) this span belongs to.
    pub request: u64,
    /// The layer, as `crate.module`.
    pub name: &'static str,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
    /// Heap allocations made while the span was open (every thread).
    pub allocs: u64,
}

/// Per-layer sums over a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTotal {
    /// Spans of the layer.
    pub calls: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
    /// Summed allocations.
    pub allocs: u64,
}

impl LayerTotal {
    /// Summed self time in seconds.
    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 * 1e-9
    }
}

/// Records spans on one thread. A disabled tracer runs the wrapped calls
/// and records nothing, so traced and untraced runs share one code path.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// A tracer that records, with room for `capacity` spans.
    pub fn recording(capacity: usize) -> Tracer {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::new(),
            request: 0,
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Starts a new request: later spans share a fresh identifier.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            request: self.request,
            name,
            start: 0,
            end: 0,
            allocs: 0,
        });
        self.open.push(id);
        let allocs = alloc::count();
        self.spans[id].start = self.now();
        let out = f(self);
        let end = self.now();
        let span = &mut self.spans[id];
        span.end = end;
        span.allocs = alloc::count() - allocs;
        self.open.pop();
        out
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span named `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64)
            .collect()
    }

    /// Writes the spans as tab-separated lines: id, parent (`-` for a
    /// root), request, name, start, end, allocations.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns\tallocs")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.request, s.name, s.start, s.end, s.allocs
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Sums calls, self time and allocations per layer name.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let mut totals: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = totals.entry(s.name).or_default();
        t.calls += 1;
        t.self_ns += self_ns;
        t.allocs += s.allocs;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            parent,
            request: 1,
            name,
            start,
            end,
            allocs: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = vec![
            span(None, "root", 0, 100),
            span(Some(0), "a", 10, 30),
            span(Some(0), "b", 40, 70),
            span(Some(2), "leaf", 45, 50),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 25, 5]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        // Children on other threads may overlap each other and, through
        // clock skew, reach past the parent's end.
        let spans = vec![
            span(None, "root", 0, 100),
            span(Some(0), "a", 10, 50),
            span(Some(0), "a", 30, 60),
            span(Some(0), "b", 90, 120),
            span(Some(0), "c", 55, 58),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn layer_totals_group_by_name() {
        let spans = vec![
            span(None, "root", 0, 100),
            span(Some(0), "a", 10, 30),
            span(Some(0), "a", 40, 70),
        ];
        let totals = layer_totals(&spans);
        assert_eq!(totals["a"].calls, 2);
        assert_eq!(totals["a"].self_ns, 50);
        assert_eq!(totals["root"].self_ns, 50);
    }

    #[test]
    fn tracer_nests_spans_and_an_off_tracer_records_nothing() {
        let mut t = Tracer::recording(4);
        t.next_request();
        let v = t.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert_eq!(spans[1].request, 1);
        let mut off = Tracer::off();
        assert_eq!(off.span("outer", |_| 3), 3);
        assert!(off.spans().is_empty());
    }
}
