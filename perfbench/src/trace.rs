//! In-memory spans recorded around the benchmark's calls into each
//! layer, their self times, and the span file written at exit.
//!
//! Spans are opened and closed by the benchmark's own code — the program
//! under test is not instrumented. A layer's self time is its span's
//! duration minus the part of that interval its child spans cover, so
//! the self times of one request's spans add up to its root span.

use std::io::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Request (or set-up step) the span belongs to.
    pub request: u32,
    /// Index of the parent span in the tracer, if any.
    pub parent: Option<usize>,
    /// Layer name, e.g. `serve.http.parse`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span (`None` when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// The parent of a root span.
pub const NO_PARENT: SpanId = SpanId(None);

/// Records spans in memory. A disabled tracer records nothing, so the
/// same replay code runs with and without tracing to measure the
/// tracing overhead.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` for `request` under `parent`.
    pub fn open(&mut self, request: u32, parent: SpanId, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            request,
            parent: parent.0,
            name,
            start_ns,
            end_ns: start_ns,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    /// Closes `span`.
    pub fn close(&mut self, span: SpanId) {
        if let Some(i) = span.0 {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        request: u32,
        parent: SpanId,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.open(request, parent, name);
        let out = f();
        self.close(span);
        out
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines to `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"request\":{},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to the span itself.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(request: u32, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            request,
            parent,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        // root [0,100) with children [10,30) and [50,90); the second
        // child has a grandchild [60,70).
        let spans = vec![
            span(1, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(1, Some(0), 50, 90),
            span(1, Some(2), 60, 70),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![40, 20, 30, 10]);
        // Self times of one tree add up to the root's duration.
        assert_eq!(own.iter().sum::<u64>(), spans[0].duration_ns());
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children [10,40) and [30,60) overlap on [30,40); a child
        // running past the parent's end is clipped to it.
        let spans = vec![
            span(1, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(1, Some(0), 30, 60),
            span(1, Some(0), 90, 120),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let root = t.open(1, NO_PARENT, "request");
        assert_eq!(t.time(1, root, "child", || 7), 7);
        t.close(root);
        assert!(t.spans().is_empty());

        let mut t = Tracer::new(true);
        let root = t.open(1, NO_PARENT, "request");
        t.time(1, root, "child", || ());
        t.close(root);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }
}
