//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded by the benchmark around its calls into each layer of
//! the program; nothing inside the program is instrumented.  Each span has a
//! name, a start and end, the span that caused it (its parent) and the
//! request it belongs to.  The recorder keeps everything in memory and
//! writes a Chrome trace-event file once the run is over.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

pub type SpanId = usize;

struct Span {
    name: String,
    request: u64,
    thread: u32,
    parent: Option<SpanId>,
    start: Instant,
    end: Instant,
}

/// Per-layer totals over every span of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub count: usize,
    /// Summed span duration, in milliseconds.
    pub total_ms: f64,
    /// Summed duration minus the part covered by direct child spans.
    pub self_ms: f64,
}

pub struct Tracer {
    origin: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    pub fn new(origin: Instant, thread: u32) -> Self {
        Tracer {
            origin,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span; spans opened by `f` become its children.
    pub fn span<T>(&mut self, name: &str, request: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let start = Instant::now();
        let id = self.record(name, request, start, start);
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = Instant::now();
        out
    }

    /// Records an already-measured interval as a child of the innermost
    /// open span (or of `parent`, when given).
    pub fn record_under(
        &mut self,
        parent: Option<SpanId>,
        name: &str,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.spans.push(Span {
            name: name.to_string(),
            request,
            thread: self.thread,
            parent: parent.or_else(|| self.open.last().copied()),
            start,
            end,
        });
        self.spans.len() - 1
    }

    pub fn record(&mut self, name: &str, request: u64, start: Instant, end: Instant) -> SpanId {
        self.record_under(None, name, request, start, end)
    }

    /// Appends another thread's spans (recorded against the same origin).
    pub fn merge(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    /// Durations (ms) of every span with this name, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| ms(span.start, span.end))
            .collect()
    }

    pub fn totals(&self) -> BTreeMap<String, LayerTotals> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ms[parent] += ms(span.start, span.end);
            }
        }
        let mut totals: BTreeMap<String, LayerTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ms) {
            let entry = totals.entry(span.name.clone()).or_default();
            let duration = ms(span.start, span.end);
            entry.count += 1;
            entry.total_ms += duration;
            entry.self_ms += duration - children;
        }
        totals
    }

    /// Writes the spans as Chrome trace-event JSON (complete `X` events;
    /// open in `chrome://tracing` or Perfetto).
    pub fn write_chrome(&self, path: &Path) -> io::Result<()> {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (id, span) in self.spans.iter().enumerate() {
            let ts = span.start.duration_since(self.origin).as_secs_f64() * 1e6;
            let dur = span.end.duration_since(span.start).as_secs_f64() * 1e6;
            let parent = span.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{ts:.3},\"dur\":{dur:.3},\"args\":{{\"span\":{id},\"parent\":{parent},\"request\":{}}}}}",
                if id == 0 { "" } else { "," },
                span.name,
                span.thread,
                span.request,
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

pub fn ms(start: Instant, end: Instant) -> f64 {
    end.duration_since(start).as_secs_f64() * 1e3
}

/// Prints the per-layer self-time table, largest self time first.
pub fn print_self_time_table(workload: &str, tracer: &Tracer, jobs: usize) {
    let totals = tracer.totals();
    let mut rows: Vec<(&String, &LayerTotals)> = totals.iter().collect();
    rows.sort_by(|a, b| b.1.self_ms.total_cmp(&a.1.self_ms));
    let self_sum: f64 = rows.iter().map(|(_, t)| t.self_ms).sum();
    println!("per-layer self time, {workload} ({jobs} jobs):");
    println!(
        "  {:<34} {:>8} {:>12} {:>12} {:>12} {:>7}",
        "span", "count", "total ms", "self ms", "self ms/job", "self %"
    );
    for (name, t) in rows {
        println!(
            "  {:<34} {:>8} {:>12.3} {:>12.3} {:>12.4} {:>6.1}%",
            name,
            t.count,
            t.total_ms,
            t.self_ms,
            t.self_ms / jobs.max(1) as f64,
            100.0 * t.self_ms / self_sum.max(f64::MIN_POSITIVE),
        );
    }
}
