//! In-memory spans around the benchmark's calls into each crate.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! query it belongs to. Spans are kept in memory while the run goes and
//! written out once at the end. A disabled tracer records nothing, so
//! the untraced run pays one branch per call site.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// The measured query this span belongs to, if any.
    pub query: Option<u64>,
    /// What was called, named after the per-layer metric it feeds.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span that has started and not yet ended.
#[must_use = "finish the span to record it"]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    query: Option<u64>,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    /// The id children of this span name as their parent (0 when the
    /// tracer is off).
    pub fn id(&self) -> Option<u64> {
        (self.id != 0).then_some(self.id)
    }
}

/// Span recorder shared by every client thread of a run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a span.
    pub fn start(&self, name: &'static str, parent: Option<u64>, query: Option<u64>) -> Open {
        if !self.enabled {
            return Open {
                id: 0,
                parent,
                query,
                name,
                start_ns: 0,
            };
        }
        Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            query,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// End a span and keep it.
    pub fn finish(&self, open: Open) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id: open.id,
            parent: open.parent,
            query: open.query,
            name: open.name,
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
        };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        query: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.start(name, parent, query);
        let out = f();
        self.finish(open);
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span store poisoned").clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children (clipped to the parent).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(cursor), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (s.id, s.dur_ns() - covered.min(s.dur_ns()))
        })
        .collect()
}

/// Per span name: count, median duration and total self time (ns).
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, (usize, u64, u64)> {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&'static str, (Vec<u64>, u64)> = BTreeMap::new();
    for s in spans {
        let e = by_name.entry(s.name).or_default();
        e.0.push(s.dur_ns());
        e.1 += selfs[&s.id];
    }
    by_name
        .into_iter()
        .map(|(name, (mut durs, self_ns))| {
            durs.sort_unstable();
            let median = durs[(durs.len() - 1) / 2];
            (name, (durs.len(), median, self_ns))
        })
        .collect()
}

/// Write spans as one JSON object per line.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"query\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id,
            opt(s.parent),
            opt(s.query),
            s.name,
            s.start_ns,
            s.end_ns,
            selfs[&s.id]
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            query: None,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(1, None, 0, 100),
            // Two children overlapping each other on [20, 30].
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 50),
            // A child nested inside another child.
            span(4, Some(1), 25, 35),
            // A child running past its parent's end is clipped.
            span(5, Some(1), 90, 120),
            span(6, Some(3), 40, 45),
        ];
        let selfs = self_times(&spans);
        // Children cover [10, 50] and [90, 100]: 50 of the 100 ns.
        assert_eq!(selfs[&1], 50);
        assert_eq!(selfs[&2], 20);
        assert_eq!(selfs[&3], 25);
        assert_eq!(selfs[&4], 10);
        assert_eq!(selfs[&6], 5);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.time("x", None, None, || 7);
        assert_eq!(v, 7);
        assert!(t.start("y", None, None).id().is_none());
        assert!(t.spans().is_empty());

        let t = Tracer::new(true);
        let root = t.start("root", None, Some(1));
        let id = root.id();
        t.time("child", id, Some(1), || ());
        t.finish(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "root");
        assert_eq!(spans[1].parent, id);
        assert_eq!(summarize(&spans)["child"].0, 1);
    }
}
