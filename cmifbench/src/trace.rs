//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around each public call it makes
//! into a layer (name, start, end, parent span, op id) and written out when
//! the run ends. Per-layer figures are self times: a span's duration minus
//! the part its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The root span of every op.
pub const OP: &str = "op";

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `scheduler.solve`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op the span belongs to.
    pub op: u64,
}

/// Records spans and per-op counts. A disabled tracer records nothing, so
/// one code path serves the untraced and the traced run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    counts: Vec<(u64, &'static str, f64)>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every call.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counts: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        if name == OP {
            self.op += 1;
        }
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let index = self.open.pop().expect("exit without a matching enter");
        self.spans[index].end_ns = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Records a count for the current op.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.counts.push((self.op, name, value));
        }
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of ops traced.
    pub fn ops(&self) -> u64 {
        self.op
    }

    /// Total self time per span name, in milliseconds. The op span's self
    /// time is the part of the op no layer span covers.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (index, span) in self.spans.iter().enumerate() {
            let own = (span.end_ns - span.start_ns).saturating_sub(child_ns[index]);
            *out.entry(span.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Per-op self time of the named span, in milliseconds, keyed by op.
    pub fn self_ms_by_op(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (index, span) in self.spans.iter().enumerate() {
            if span.name == name {
                let own = (span.end_ns - span.start_ns).saturating_sub(child_ns[index]);
                *out.entry(span.op).or_insert(0.0) += own as f64 / 1e6;
            }
        }
        out
    }

    /// The count recorded under `name`, per op (summed within an op).
    pub fn counts_by_op(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for (op, _, value) in self.counts.iter().filter(|(_, n, _)| *n == name) {
            *out.entry(*op).or_insert(0.0) += value;
        }
        out
    }

    /// Sum of every count recorded under `name`.
    pub fn count_total(&self, name: &str) -> f64 {
        self.counts
            .iter()
            .filter(|(_, n, _)| *n == name)
            .fold(0.0, |sum, (_, _, v)| sum + v)
    }

    /// Writes every span as a tab-separated line: op, span index, parent,
    /// name, start and end in nanoseconds.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "op\tspan\tparent\tname\tstart_ns\tend_ns")?;
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(
                out,
                "{}\t{index}\t{parent}\t{}\t{}\t{}",
                span.op, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true);
        tr.span(OP, || ());
        tr.enter(OP);
        tr.enter("a");
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.span("b", || {
            std::thread::sleep(std::time::Duration::from_millis(3))
        });
        tr.exit();
        tr.exit();
        assert_eq!(tr.ops(), 2);
        let own = tr.self_ms();
        assert!(own["b"] >= 3.0);
        assert!(own["a"] >= 2.0 && own["a"] < own["a"] + own["b"]);
        let by_op = tr.self_ms_by_op("a");
        assert_eq!(by_op.len(), 1);
        assert!(by_op[&2] >= 2.0);
        assert_eq!(tr.spans()[2].parent, Some(1));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        tr.span(OP, || ());
        tr.count("x", 1.0);
        assert!(tr.spans().is_empty());
        assert_eq!(tr.count_total("x"), 0.0);
    }
}
