//! In-memory spans recorded around calls into the program's public API.
//!
//! A span is a name, the request it belongs to, its parent span and its
//! start and end (ns since the tracer was created). Spans stay in memory
//! while the workload runs and are written out as JSON lines at the end.
//! A span's self time is its duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over every recorded span.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span (a no-op returning `None` when tracing is off); close it
    /// with [`Tracer::close`]. Children name the returned index as parent.
    pub fn open(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, span: Option<usize>) {
        if let Some(index) = span {
            self.spans[index].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span and returns its result with the elapsed
    /// wall time in µs (measured whether or not tracing is on).
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let span = self.open(name, request, parent);
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let us = start.elapsed().as_secs_f64() * 1e6;
        self.close(span);
        (out, us)
    }

    /// Records an already-timed interval as a span (client-observed HTTP
    /// routes, whose start is the request's due time).
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            request,
            parent: None,
            start_ns: at(start),
            end_ns: at(end),
        });
    }

    /// Count, total and self time of every span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += span.duration_ns();
            entry.self_ns += span.duration_ns().saturating_sub(children);
        }
        totals
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.request, span.start_ns, span.end_ns
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
        let mut tracer = Tracer::new(true);
        let root = tracer.open("root", 0, None);
        let (_, _) = tracer.span("child", 0, root, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tracer.close(root);
        let totals = tracer.totals();
        let root = totals["root"];
        let child = totals["child"];
        assert_eq!(root.total_ns, root.self_ns + child.total_ns);
        assert!(child.total_ns >= 2_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let mut tracer = Tracer::new(false);
        let (value, us) = tracer.span("x", 0, None, || 7);
        assert_eq!(value, 7);
        assert!(us >= 0.0);
        assert!(tracer.totals().is_empty());
    }
}
