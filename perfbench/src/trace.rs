//! In-memory span recorder. Spans are opened and closed around calls into
//! the library's public functions (the library itself is not
//! instrumented), kept in memory, and written out when the run ends.

use crate::stats::{self_time, Interval};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded span. Times are seconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer/stage name, e.g. `embed`.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start time.
    pub start: f64,
    /// End time; `None` while open.
    pub end: Option<f64>,
}

/// Thread-safe span store sharing one clock.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Opens a span and returns its id.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start = self.now();
        let mut spans = self.spans.lock().expect("tracer lock poisoned");
        spans.push(Span {
            name,
            parent,
            start,
            end: None,
        });
        spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&self, id: SpanId) {
        let end = self.now();
        self.spans.lock().expect("tracer lock poisoned")[id].end = Some(end);
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, parent: Option<SpanId>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock poisoned").clone()
    }

    /// Writes every span as one tab-separated line:
    /// `id  parent  name  start_s  end_s`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_s\tend_s")?;
        for (id, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let end = s.end.map_or("-".to_string(), |e| format!("{e:.9}"));
            writeln!(out, "{id}\t{parent}\t{}\t{:.9}\t{end}", s.name, s.start)?;
        }
        out.flush()
    }
}

/// Per-span durations and self times of a finished span list.
pub struct SpanTree {
    spans: Vec<Span>,
    children: HashMap<SpanId, Vec<SpanId>>,
}

impl SpanTree {
    /// Indexes `spans` by parent.
    pub fn new(spans: Vec<Span>) -> Self {
        let mut children: HashMap<SpanId, Vec<SpanId>> = HashMap::new();
        for (id, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push(id);
            }
        }
        SpanTree { spans, children }
    }

    fn interval(&self, id: SpanId) -> Interval {
        let s = &self.spans[id];
        Interval {
            start: s.start,
            end: s.end.expect("every span is closed before analysis"),
        }
    }

    /// Duration of span `id`.
    pub fn duration(&self, id: SpanId) -> f64 {
        let i = self.interval(id);
        i.end - i.start
    }

    /// Self time of span `id`: its duration minus its children's coverage.
    pub fn self_time(&self, id: SpanId) -> f64 {
        let kids: Vec<Interval> = self
            .children
            .get(&id)
            .map(|ks| ks.iter().map(|&k| self.interval(k)).collect())
            .unwrap_or_default();
        self_time(self.interval(id), &kids)
    }

    /// Ids of every span named `name` inside the subtree of `root`
    /// (including `root`).
    pub fn find(&self, root: SpanId, name: &str) -> Vec<SpanId> {
        let mut out = Vec::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if self.spans[id].name == name {
                out.push(id);
            }
            if let Some(ks) = self.children.get(&id) {
                stack.extend(ks);
            }
        }
        out
    }

    /// Sum of self times of spans named `name` under `root`.
    pub fn self_sum(&self, root: SpanId, name: &str) -> f64 {
        self.find(root, name)
            .iter()
            .map(|&id| self.self_time(id))
            .sum()
    }

    /// Sum of durations of spans named `name` under `root`.
    pub fn duration_sum(&self, root: SpanId, name: &str) -> f64 {
        self.find(root, name)
            .iter()
            .map(|&id| self.duration(id))
            .sum()
    }

    /// Longest duration among spans named `name` under `root`.
    pub fn duration_max(&self, root: SpanId, name: &str) -> f64 {
        self.find(root, name)
            .iter()
            .map(|&id| self.duration(id))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_self_time_excludes_nested_children() {
        let spans = vec![
            Span {
                name: "fit",
                parent: None,
                start: 0.0,
                end: Some(10.0),
            },
            Span {
                name: "cluster",
                parent: Some(0),
                start: 1.0,
                end: Some(5.0),
            },
            Span {
                name: "features",
                parent: Some(1),
                start: 1.0,
                end: Some(4.0),
            },
            Span {
                name: "cluster",
                parent: Some(0),
                start: 6.0,
                end: Some(8.0),
            },
        ];
        let tree = SpanTree::new(spans);
        assert!((tree.self_sum(0, "cluster") - (1.0 + 2.0)).abs() < 1e-12);
        assert!((tree.duration_sum(0, "cluster") - 6.0).abs() < 1e-12);
        assert!((tree.self_time(0) - 4.0).abs() < 1e-12);
        assert_eq!(tree.duration_max(0, "cluster"), 4.0);
        assert_eq!(tree.find(1, "features"), vec![2]);
    }
}
