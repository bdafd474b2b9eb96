//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the library's
//! public functions; nothing inside the library is instrumented.  Each span
//! holds its name, start, end, parent and an iteration id shared by every
//! span of one operation.  Spans stay in memory until [`Tracer::write`].

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    parent: Option<usize>,
    iter: u64,
    start: Duration,
    end: Duration,
}

/// Handle of an open span (inert when tracing is off).
#[must_use]
pub struct Open(Option<usize>);

/// Span recorder; [`Tracer::off`] records nothing.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn off() -> Self {
        Tracer::new(false)
    }

    /// Open a span nested under the innermost open one.
    pub fn begin(&mut self, name: &'static str, iter: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            iter,
            start: self.origin.elapsed(),
            end: Duration::ZERO,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close `span` (which must be the innermost open one).
    pub fn end(&mut self, span: Open) {
        if let Some(id) = span.0 {
            self.spans[id].end = self.origin.elapsed();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
    }

    /// Record a child of `parent` whose length the library reported rather
    /// than the benchmark timed (the engine's own phase timings), starting
    /// `offset` after the parent's start.
    pub fn derived(
        &mut self,
        name: &'static str,
        parent: &Open,
        iter: u64,
        offset: Duration,
        len: Duration,
    ) {
        if let Some(parent_id) = parent.0 {
            let start = self.spans[parent_id].start + offset;
            self.spans.push(Span {
                name,
                parent: Some(parent_id),
                iter,
                start,
                end: start + len,
            });
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            // Writing into a String cannot fail.
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"iter\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.iter,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
