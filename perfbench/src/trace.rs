//! In-memory spans recorded around calls into the repository's crates.
//!
//! The benchmark measures layers from outside: a span brackets one call
//! into a crate's public function. Spans stay in memory and are written
//! as JSON lines when a traced run ends. A disabled tracer records
//! nothing, so untraced runs pay only a branch per call.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.fit`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Spans of one request (or one training run) share this id.
    pub trace: u64,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created; 0 while open.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recording tracer when `enabled`, otherwise a no-op one.
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), spans: Vec::new() }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id (`None` when disabled).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, trace: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span { name, parent, trace, start_ns, end_ns: 0 });
        Some(self.spans.len() - 1)
    }

    /// Close a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            let end = self.now_ns();
            self.spans[i].end_ns = end;
        }
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        trace: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, trace);
        let out = f();
        self.close(id);
        out
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.ns() as f64 / 1e3).collect()
    }

    /// Total milliseconds of spans called `name` whose parent is `parent`.
    pub fn total_ms(&self, name: &str, parent: Option<usize>) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.parent == parent)
            .map(|s| s.ns() as f64 / 1e6)
            .sum()
    }

    /// Summed durations of every span called `name` and of their direct
    /// children, in ms. Children of a span lie inside it, so the second
    /// can exceed the first only if spans are broken.
    pub fn closure_ms(&self, name: &str) -> (f64, f64) {
        let is_root: Vec<bool> = self.spans.iter().map(|s| s.name == name).collect();
        let (mut roots, mut children) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if is_root[i] {
                roots += s.ns();
            }
            if s.parent.is_some_and(|p| is_root[p]) {
                children += s.ns();
            }
        }
        (roots as f64 / 1e6, children as f64 / 1e6)
    }

    /// Write every span as one JSON line after a header line.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"trace\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.trace, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
