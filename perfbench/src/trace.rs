//! In-memory spans recorded around the benchmark's own calls into each
//! crate's public API. Nothing inside the program is instrumented: a span
//! brackets one call from the outside, so a layer's time here includes
//! whatever that call does underneath.
//!
//! Spans are kept in memory and written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval. Spans of one request share `req`; `parent` links a
/// span to the span that caused it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index of the parent span in the same [`Tracer`].
    pub parent: Option<usize>,
    /// Request (or episode / pass) identifier.
    pub req: u64,
    /// Layer boundary, e.g. `serve.send`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in µs.
    #[must_use]
    pub fn us(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let ns = self.end_ns.saturating_sub(self.start_ns) as f64;
        ns / 1e3
    }
}

/// A span recorder owned by one thread.
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose clock starts at `origin` (share one origin across
    /// threads so their spans line up).
    #[must_use]
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its index (a parent handle).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            parent,
            req,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span whose end is set later by [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let now = Instant::now();
        self.record(name, parent, req, now, now)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, req, start, Instant::now());
        out
    }

    /// Appends another recorder's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every span recorded.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals: span count, summed duration and summed self time
    /// (duration minus the time its direct children cover), all in µs.
    #[must_use]
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.us();
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_us) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_us += s.us();
            t.self_us += s.us() - child;
        }
        out
    }

    /// Writes every span as one TSV line:
    /// `index parent req name start_ns end_ns` (`-` for no parent).
    ///
    /// # Errors
    ///
    /// The create or write error.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tparent\treq\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Aggregates of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, µs.
    pub total_us: f64,
    /// Summed self time, µs.
    pub self_us: f64,
}

impl Totals {
    /// Mean duration per span, µs (0 when none was recorded).
    #[must_use]
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            let n = self.count as f64;
            self.total_us / n
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_direct_children() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut tr = Tracer::new(t0);
        let root = tr.record("root", None, 1, at(0), at(100));
        let child = tr.record("child", Some(root), 1, at(10), at(40));
        tr.record("grandchild", Some(child), 1, at(20), at(30));
        tr.record("child", Some(root), 1, at(50), at(70));
        let totals = tr.totals();
        assert_eq!(totals["root"].total_us, 100.0);
        assert_eq!(totals["root"].self_us, 50.0);
        assert_eq!(totals["child"].count, 2);
        assert_eq!(totals["child"].self_us, 40.0);
        assert_eq!(totals["child"].mean_us(), 25.0);
    }

    #[test]
    fn absorb_rebases_parents() {
        let t0 = Instant::now();
        let mut a = Tracer::new(t0);
        a.record("x", None, 0, t0, t0);
        let mut b = Tracer::new(t0);
        let p = b.record("p", None, 0, t0, t0);
        b.record("c", Some(p), 0, t0, t0);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
