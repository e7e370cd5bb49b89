//! In-memory span recorder for the traced run.
//!
//! The benchmark puts a span around every call it makes into a layer of the
//! program: name, start, end, parent span, and the id of the job the call
//! belongs to. Spans stay in memory until the run ends and are then written
//! out as NDJSON. With tracing off, [`Tracer::span`] only calls its closure,
//! so the untraced run pays nothing for the instrumentation.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span (0 = no span).
pub type SpanId = u32;

#[derive(Debug, Clone)]
struct Span {
    id: SpanId,
    parent: SpanId,
    job: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Span recorder shared by every thread of the benchmark.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span named `name`, child of `parent`, belonging to
    /// job `job`. The closure receives the new span's id so nested calls can
    /// name it as their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: SpanId,
        job: u64,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let result = f(id);
        let end_ns = self.now_ns();
        self.record(Span {
            id,
            parent,
            job,
            name,
            start_ns,
            end_ns,
        });
        result
    }

    /// Record a span whose interval was timed by the caller (for example a
    /// job measured from its submission to its closing record on a client
    /// thread).
    pub fn record_interval(&self, name: &'static str, job: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.record(Span {
            id,
            parent: 0,
            job,
            name,
            start_ns: at(start),
            end_ns: at(end),
        });
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn record(&self, span: Span) {
        self.spans.lock().expect("span store poisoned").push(span);
    }

    pub fn span_count(&self) -> usize {
        self.spans.lock().expect("span store poisoned").len()
    }

    /// Summed self time per span name, in nanoseconds. A span's self time
    /// is its duration minus the part of its interval its child spans
    /// cover.
    pub fn self_ns(&self) -> HashMap<&'static str, u64> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut totals: HashMap<&'static str, u64> = HashMap::new();
        for s in spans.iter() {
            let covered = children.get_mut(&s.id).map_or(0, |c| union_len(c));
            *totals.entry(s.name).or_default() += (s.end_ns - s.start_ns).saturating_sub(covered);
        }
        totals
    }

    /// Write every span as one NDJSON line to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span store poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"job\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.job, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of half-open intervals.
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(start, end) in intervals.iter() {
        current = match current {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}
