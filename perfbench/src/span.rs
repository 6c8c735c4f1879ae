//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions (the program itself carries no instrumentation).  They
//! stay in memory while the run measures and are written out as JSON when
//! it ends.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within one recorder.
    pub id: u64,
    /// Layer-qualified name, e.g. `perfsim.sim`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created; `end_ns >= start_ns`.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// The operation (chunk, request) the span belongs to: spans of one
    /// operation share it.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Thread-safe span store.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span; `f` receives the span's id so it can parent
    /// child spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        op: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        self.push(Span {
            id,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            op,
        });
        out
    }

    /// Records an interval timed by the caller; returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end).max(self.ns(start)),
            parent,
            op,
        });
        id
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking recorder thread")
            .push(span);
    }

    /// Every span recorded so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("span store poisoned by a panicking recorder thread")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Writes every span as a JSON array of
    /// `{"id","name","start_ns","end_ns","parent","op"}` objects.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::from("[\n");
        let spans = self.spans();
        for (i, s) in spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            text.push_str(&format!(
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}{}\n",
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                parent,
                s.op,
                if i + 1 < spans.len() { "," } else { "" }
            ));
        }
        text.push_str("]\n");
        std::fs::write(path, text)
    }
}

/// Runs `f` inside a root span when tracing, plainly otherwise.
pub fn within<T>(rec: Option<&Recorder>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match rec {
        Some(rec) => rec.span(name, None, 0, |_| f()),
        None => f(),
    }
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, in nanoseconds.
    pub total_ns: u64,
    /// Sum of their self times, in nanoseconds.
    pub self_ns: u64,
}

impl LayerTotals {
    /// Total duration in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (children may nest,
/// overlap one another when they ran on parallel threads, or outlive the
/// parent; only the covered part inside the parent counts).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut intervals: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|c| {
                    c.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|&(a, b)| b > a)
                        .collect()
                })
                .unwrap_or_default();
            intervals.sort_unstable();
            let mut covered = 0;
            let mut current: Option<(u64, u64)> = None;
            for (a, b) in intervals {
                match current {
                    Some((ca, cb)) if a <= cb => current = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        current = Some((a, b));
                    }
                    None => current = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = current {
                covered += cb - ca;
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Count, total and self time per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += own[&s.id];
    }
    out
}

/// Writes a traced run's spans to `trace-<workload>-seed<seed>.json`
/// beside the run's scratch directory `dir` (which is removed when the run
/// ends), and prints count, total and self time per span name to stderr.
pub fn write_trace(rec: &Recorder, dir: &Path, workload: &str, seed: u64) {
    let path = dir
        .parent()
        .unwrap_or(dir)
        .join(format!("trace-{workload}-seed{seed}.json"));
    match rec.write_json(&path) {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
    }
    eprintln!(
        "perfbench: {:<22} {:>8} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for (name, t) in totals(&rec.spans()) {
        eprintln!(
            "perfbench: {name:<22} {:>8} {:>12.3} {:>12.3}",
            t.count,
            t.total_ms(),
            t.self_ns as f64 / 1e6
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            name: "x",
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn nested_children_subtract_only_direct_coverage() {
        // 0..100 parent; child 10..40 with its own child 20..30.
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(2), 20, 30),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 70);
        assert_eq!(own[&2], 20);
        assert_eq!(own[&3], 10);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two parallel children 10..60 and 40..80, plus one that outlives
        // the parent (90..120 is clipped to 90..100).
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 60),
            span(3, Some(1), 40, 80),
            span(4, Some(1), 90, 120),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 70 - 10);
        let t = totals(&spans)["x"];
        assert_eq!(t.count, 4);
        assert_eq!(t.total_ns, 100 + 50 + 40 + 30);
    }

    #[test]
    fn recorder_links_children_and_writes_json() {
        let rec = Recorder::new();
        let out = rec.span("outer", None, 7, |id| {
            rec.span("inner", Some(id), 7, |_| std::hint::black_box(3) + 1)
        });
        assert_eq!(out, 4);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("span-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        rec.write_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"name\":\"inner\"") && text.contains("\"op\":7"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
