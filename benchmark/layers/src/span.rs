//! Benchmark-side spans: recorded around the calls into each layer's
//! public functions (no crate is instrumented), kept in memory, and
//! aggregated — or written out — only when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call: what, when, and the span that was open around it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Per-name totals over a finished recording.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Total {
    /// Spans of that name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub busy_ns: u64,
    /// Busy time minus what their direct child spans cover, ns.
    pub self_ns: u64,
}

impl Total {
    pub fn busy_ms(&self) -> f64 {
        self.busy_ns as f64 / 1e6
    }

    /// Mean duration in µs (0 for no spans).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.busy_ns as f64 / 1e3 / self.count as f64
        }
    }
}

/// A single-threaded span recorder. Interior mutability lets a strategy
/// wrapper and the code driving it share one recorder.
pub struct Spans {
    epoch: Instant,
    inner: RefCell<(Vec<Span>, Vec<usize>)>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            inner: RefCell::new((Vec::new(), Vec::new())),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Times `f` as a span named `name`, child of whichever span is open.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = {
            let mut inner = self.inner.borrow_mut();
            let parent = inner.1.last().copied();
            inner.0.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
            });
            let id = inner.0.len() - 1;
            inner.1.push(id);
            id
        };
        // Clock reads sit innermost, so the recorder's own bookkeeping
        // lands in the parent's self time, not in this span.
        let start = self.now_ns();
        let result = f();
        let end = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        inner.0[id].start_ns = start;
        inner.0[id].end_ns = end;
        inner.1.pop();
        result
    }

    /// Count, busy and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Total> {
        let inner = self.inner.borrow();
        let spans = &inner.0;
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, Total> = BTreeMap::new();
        for (s, children) in spans.iter().zip(child_ns) {
            let t = totals.entry(s.name).or_default();
            let busy = s.end_ns - s.start_ns;
            t.count += 1;
            t.busy_ns += busy;
            t.self_ns += busy.saturating_sub(children);
        }
        totals
    }

    /// Totals of `name` (zero when it never ran).
    pub fn total(&self, name: &str) -> Total {
        self.totals().get(name).copied().unwrap_or_default()
    }

    /// Writes every span as `id parent name start_ns end_ns`,
    /// tab-separated, and returns how many there were.
    pub fn dump(&self, path: &Path) -> std::io::Result<usize> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
        let inner = self.inner.borrow();
        for (id, s) in inner.0.iter().enumerate() {
            let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok(inner.0.len())
    }
}
