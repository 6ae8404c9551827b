//! In-memory spans recorded around the benchmark's calls into the program.
//!
//! A span has a name, a parent, the instance it belongs to and either a
//! start and end (measured by the benchmark) or only a duration (a stage
//! timer the program reports, hung under the engine span that contains it).
//! Spans stay in memory and are written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// Identifies a span within one [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    instance: Option<usize>,
    /// Offset of the start from the tracer's origin; `None` for a
    /// duration-only child, whose start the program does not report.
    start: Option<Duration>,
    duration: Duration,
}

/// Records spans of one benchmark run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span starting now; close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        instance: Option<usize>,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            parent,
            instance,
            start: Some(self.origin.elapsed()),
            duration: Duration::ZERO,
        });
        self.spans.len() - 1
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: SpanId) {
        let now = self.origin.elapsed();
        let span = &mut self.spans[id];
        let start = span.start.expect("only timed spans are closed");
        span.duration = now.saturating_sub(start);
    }

    /// Records a child of `parent` that starts with it and lasts `duration`
    /// (a racer's runtime, measured by the program from the race start).
    pub fn child_from_start(&mut self, name: &'static str, parent: SpanId, duration: Duration) {
        let span = &self.spans[parent];
        let (start, instance) = (span.start, span.instance);
        self.spans.push(Span {
            name,
            parent: Some(parent),
            instance,
            start,
            duration,
        });
    }

    /// Records a duration-only child of `parent` (a stage timer the program
    /// reports without a start time). Such children of one parent do not
    /// overlap each other.
    pub fn child_duration(&mut self, name: &'static str, parent: SpanId, duration: Duration) {
        let instance = self.spans[parent].instance;
        self.spans.push(Span {
            name,
            parent: Some(parent),
            instance,
            start: None,
            duration,
        });
    }

    /// Total and self time per span name. Self time is a span's duration
    /// minus the part of its interval that its children cover (timed
    /// children as the union of their intervals, duration-only children as
    /// their sum).
    pub fn self_times(&self) -> BTreeMap<&'static str, (Duration, Duration)> {
        let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); self.spans.len()];
        for (id, span) in self.spans.iter().enumerate() {
            if let Some(p) = span.parent {
                children[p].push(id);
            }
        }
        let mut out: BTreeMap<&'static str, (Duration, Duration)> = BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            let mut covered = Duration::ZERO;
            let mut intervals: Vec<(Duration, Duration)> = Vec::new();
            for &c in &children[id] {
                let child = &self.spans[c];
                match child.start {
                    Some(s) => intervals.push((s, s + child.duration)),
                    None => covered += child.duration,
                }
            }
            intervals.sort();
            let mut reach = Duration::ZERO;
            for (s, e) in intervals {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            let entry = out.entry(span.name).or_default();
            entry.0 += span.duration;
            entry.1 += span.duration.saturating_sub(covered);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let field = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            let start = span
                .start
                .map_or("null".to_string(), |s| s.as_nanos().to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{},\"name\":\"{}\",\"instance\":{},\"start_ns\":{start},\"dur_ns\":{}}}",
                field(span.parent),
                span.name,
                field(span.instance),
                span.duration.as_nanos()
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let mut t = Tracer::new();
        let root = t.open("root", None, Some(0));
        t.spans[root].start = Some(Duration::ZERO);
        t.spans[root].duration = Duration::from_millis(100);
        t.child_from_start("a", root, Duration::from_millis(30));
        t.child_from_start("b", root, Duration::from_millis(50));
        t.child_duration("c", root, Duration::from_millis(10));
        let times = t.self_times();
        assert_eq!(times["root"].0, Duration::from_millis(100));
        assert_eq!(times["root"].1, Duration::from_millis(40));
        assert_eq!(times["c"].1, Duration::from_millis(10));
    }
}
