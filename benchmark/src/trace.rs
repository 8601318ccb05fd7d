//! Spans recorded from the benchmark's own files, around its calls into
//! each layer: name, start, end, the span that caused it, and the request
//! it belongs to. Spans go into a preallocated in-memory buffer and are
//! written to `benchmark/out/` when the run ends; nothing is written while
//! the clock runs. A layer's self time is its span minus the part of it its
//! children cover.

#![forbid(unsafe_code)]

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Marks a root span (no parent).
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the tracer's base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the buffer, or [`NO_PARENT`].
    pub parent: u32,
    /// Request the span belongs to.
    pub request: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span buffer. `open`/`close` never allocate while the buffer has
/// room; once it is full further spans are timed by the caller but dropped
/// here (and counted), so a long run cannot grow memory without bound.
pub struct Tracer {
    base: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    request: u32,
    dropped: u64,
}

impl Tracer {
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            base: Instant::now(),
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(16),
            request: 0,
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Sets the request id stamped on the spans opened from now on.
    pub fn set_request(&mut self, request: u32) {
        self.request = request;
    }

    /// Opens a span under the innermost open one and returns its handle.
    pub fn open(&mut self, name: &'static str) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NO_PARENT;
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request: self.request });
        self.stack.push(id);
        id
    }

    /// Closes the span `id` returned by [`open`](Self::open).
    pub fn close(&mut self, id: u32) {
        if id == NO_PARENT {
            return;
        }
        let end_ns = self.now_ns();
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end_ns;
        }
        // Spans close innermost-first; tolerate a skipped close by
        // unwinding to the handle.
        while let Some(top) = self.stack.pop() {
            if top == id {
                break;
            }
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans recorded so far: a mark to aggregate from.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Forgets the spans recorded since `mark` (all closed), making room
    /// for the next request once its numbers have been folded in.
    pub fn rewind(&mut self, mark: usize) {
        self.spans.truncate(mark);
    }

    /// True while at least `room` more spans fit.
    pub fn has_room(&self, room: usize) -> bool {
        self.spans.capacity() - self.spans.len() >= room
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes the buffer as tab-separated text: one span per line.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the directory or writing the file.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns")?;
        let selfs = self_times(&self.spans, 0);
        for (id, (span, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = if span.parent == NO_PARENT { -1 } else { i64::from(span.parent) };
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}\t{self_ns}",
                span.request, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span in `spans`, a run of the buffer that starts at
/// buffer index `base` (parent indices are buffer indices): duration minus
/// the durations of its direct children. Children run sequentially inside
/// their parent, so they never overlap each other.
pub fn self_times(spans: &[Span], base: usize) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        let parent = (span.parent as usize).wrapping_sub(base);
        if let Some(own) = selfs.get_mut(parent) {
            *own = own.saturating_sub(span.duration_ns());
        }
    }
    selfs
}

/// What the spans of one name add up to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NameTotal {
    pub name: &'static str,
    pub count: u64,
    /// Sum of durations, nanoseconds.
    pub total_ns: u64,
    /// Sum of self times, nanoseconds.
    pub self_ns: u64,
}

/// Per-name totals of `spans` (see [`self_times`] for `base`), in order of
/// first appearance.
pub fn totals_by_name(spans: &[Span], base: usize) -> Vec<NameTotal> {
    let mut out: Vec<NameTotal> = Vec::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans, base)) {
        let slot = match out.iter().position(|t| t.name == span.name) {
            Some(i) => &mut out[i],
            None => {
                out.push(NameTotal { name: span.name, count: 0, total_ns: 0, self_ns: 0 });
                out.last_mut().expect("just pushed")
            }
        };
        slot.count += 1;
        slot.total_ns += span.duration_ns();
        slot.self_ns += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span { name, start_ns, end_ns, parent, request: 7 }
    }

    #[test]
    fn self_time_is_the_span_minus_its_direct_children() {
        let spans = [
            span("request", 0, 100, NO_PARENT),
            span("exec.run", 10, 90, 0),
            span("fusion.pad", 20, 30, 1),
            span("fusion.conv", 30, 70, 1),
            span("fusion.pad", 70, 75, 1),
        ];
        assert_eq!(self_times(&spans, 0), vec![20, 25, 10, 40, 5]);
        let totals = totals_by_name(&spans, 0);
        assert_eq!(
            totals.iter().map(|t| (t.name, t.count, t.total_ns, t.self_ns)).collect::<Vec<_>>(),
            [
                ("request", 1, 100, 20),
                ("exec.run", 1, 80, 25),
                ("fusion.pad", 2, 15, 15),
                ("fusion.conv", 1, 40, 40)
            ]
        );
        // A run of the buffer that starts mid-way: parents before `base`
        // are outside the run and left alone.
        assert_eq!(self_times(&spans[1..], 1), vec![25, 10, 40, 5]);
    }

    #[test]
    fn tracer_nests_stamps_requests_and_stops_at_capacity() {
        let mut tracer = Tracer::with_capacity(3);
        tracer.set_request(4);
        let outer = tracer.open("request");
        let run = tracer.open("exec.run");
        let chain = tracer.open("fusion.chain");
        tracer.close(chain);
        // Buffer full: the span is dropped, not grown into.
        let pad = tracer.open("fusion.pad");
        assert_eq!(pad, NO_PARENT);
        tracer.close(pad);
        tracer.close(run);
        tracer.close(outer);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(tracer.dropped(), 1);
        assert_eq!(
            spans.iter().map(|s| (s.name, s.parent, s.request)).collect::<Vec<_>>(),
            [("request", NO_PARENT, 4), ("exec.run", 0, 4), ("fusion.chain", 1, 4)]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[0].duration_ns() >= spans[1].duration_ns());
        tracer.rewind(1);
        assert_eq!(tracer.mark(), 1);
        assert!(tracer.has_room(2) && !tracer.has_room(3));
    }

    #[test]
    fn the_trace_file_lists_every_span() {
        let mut tracer = Tracer::with_capacity(8);
        let request = tracer.open("request");
        let run = tracer.open("exec.run");
        tracer.close(run);
        tracer.close(request);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-trace-{}", std::process::id()));
        let path = dir.join("trace.tsv");
        tracer.write_tsv(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("0\t-1\t0\trequest\t"));
        assert!(lines[2].starts_with("1\t0\t0\texec.run\t"));
    }
}
