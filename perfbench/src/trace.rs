//! Spans recorded around each call into a layer's public functions.
//!
//! A span has a name (`<layer>.<call>`), a start and end relative to the
//! tracer's creation, its parent span, and the id of the cell it belongs
//! to. Spans stay in memory until the run ends. A layer's self time is
//! its spans' durations minus the part covered by their child spans.
//!
//! An untraced tracer records nothing; `enter`/`exit` then only read the
//! clock, which the untraced run needs for `setup_s` anyway.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// Cell id of spans that belong to no cell (program preparation, the
/// run's root span).
pub const NO_CELL: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub cell: u32,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// An entered span; hand it back to [`Tracer::exit`].
#[must_use]
pub struct Open {
    start: Instant,
    idx: Option<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.t0).as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, cell: u32) -> Open {
        let start = Instant::now();
        let idx = self.on.then(|| {
            let idx = self.spans.len();
            self.spans.push(Span {
                name,
                start_ns: self.ns(start),
                end_ns: 0,
                parent: self.open.last().copied(),
                cell,
            });
            self.open.push(idx);
            idx
        });
        Open { start, idx }
    }

    /// Close `open` and return its duration in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(idx) = open.idx {
            assert_eq!(self.open.pop(), Some(idx), "spans close innermost first");
            self.spans[idx].end_ns = self.ns(end);
        }
        end.duration_since(open.start).as_secs_f64()
    }

    /// Time `f` as a span with no children.
    pub fn time<T>(&mut self, name: &'static str, cell: u32, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.enter(name, cell);
        let v = f();
        (v, self.exit(open))
    }

    /// Spans currently open.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Close, at the current time, every span a panic left open above
    /// `depth`.
    pub fn unwind_to(&mut self, depth: usize) {
        let now = self.ns(Instant::now());
        while self.open.len() > depth {
            let idx = self.open.pop().expect("len > depth");
            self.spans[idx].end_ns = now;
        }
    }

    /// Self seconds per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(child);
            *out.entry(s.name).or_insert(0.0) += self_ns as f64 * 1e-9;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let cell = if s.cell == NO_CELL {
                "null".to_string()
            } else {
                s.cell.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"cell\":{cell}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_root() {
        let mut t = Tracer::new(true);
        let root = t.enter("bench.run", NO_CELL);
        let cell = t.enter("bench.cell", 0);
        t.time("a.leaf", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.time("b.leaf", 0, || ());
        let _ = t.exit(cell);
        let wall = t.exit(root);
        let total: f64 = t.self_times().values().sum();
        assert!((total - wall).abs() < 1e-6, "{total} vs {wall}");
        assert!(t.self_times()["a.leaf"] >= 0.002);
    }

    #[test]
    fn unwind_closes_spans_left_open() {
        let mut t = Tracer::new(true);
        let root = t.enter("bench.run", NO_CELL);
        let depth = t.depth();
        let _leaked = t.enter("a.leaf", 0);
        t.unwind_to(depth);
        let _ = t.exit(root);
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn untraced_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, secs) = t.time("a.leaf", 0, || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.self_times().is_empty());
    }
}
