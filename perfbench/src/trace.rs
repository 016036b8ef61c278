//! In-memory span recorder for the traced runs.
//!
//! A span is a named interval with a parent (the span open when it started)
//! and a run id grouping the spans of one unit of work (a generation run, a
//! grading pass, a served job). Spans stay in memory and are written out as
//! JSON lines when the benchmark ends. A layer's self time is its spans'
//! duration minus the part their child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    run: u64,
    /// Summed duration of the direct children.
    child: Duration,
}

/// Records nested spans on one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u64,
}

/// Per-name totals over the recorded spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub count: usize,
    pub busy: Duration,
    pub self_time: Duration,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// Start a new run id; later spans belong to it.
    pub fn next_run(&mut self) -> u64 {
        self.run += 1;
        self.run
    }

    /// Open a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
            run: self.run,
            child: Duration::ZERO,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        let end = self.origin.elapsed();
        let span = &mut self.spans[id];
        span.end = end;
        let dur = end - span.start;
        if let Some(p) = span.parent {
            self.spans[p].child += dur;
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.enter(name);
        let r = f(self);
        self.exit(id);
        r
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for s in &self.spans {
            let t = out.entry(s.name).or_default();
            let dur = s.end - s.start;
            t.count += 1;
            t.busy += dur;
            t.self_time += dur.saturating_sub(s.child);
        }
        out
    }

    /// Per-span `(duration, child duration)` of every span named `name`,
    /// with direct children named `excluded` taken out of both.
    pub fn coverage_of(&self, name: &str, excluded: &str) -> Vec<(Duration, Duration)> {
        let mut cut = vec![Duration::ZERO; self.spans.len()];
        for s in self.spans.iter().filter(|s| s.name == excluded) {
            if let Some(p) = s.parent {
                cut[p] += s.end - s.start;
            }
        }
        self.spans
            .iter()
            .zip(&cut)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &c)| (s.end - s.start - c, s.child - c))
            .collect()
    }

    /// Write every span as one JSON line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut w = std::io::BufWriter::new(file);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.run
            )?;
        }
        w.flush()
    }
}
