//! The benchmark's own tracing: spans recorded around each call into a
//! layer, kept in memory and written out once when the run ends.
//!
//! A span has an id, the id of the span that was open when it started
//! (its parent), a name and start/end offsets in nanoseconds from the
//! moment the recorder was created. A layer's self time is its span's
//! duration minus the part its children cover. The recorder is off in
//! untraced runs, where `open`/`close` do nothing.

use std::io::Write;
use std::time::Instant;

/// One closed (or still open, `end_ns == 0`) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Index of this span in the recorder, starting at 1.
    pub id: u32,
    /// The span open when this one started (0 = none).
    pub parent: u32,
    /// Which call this span wraps, e.g. `des.world_new`.
    pub name: String,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// An in-memory span recorder.
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Handle to an open span; pass it back to [`Spans::close`].
#[must_use]
pub struct SpanId(u32);

impl Spans {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` under the innermost open span.
    pub fn open(&mut self, name: &str) -> SpanId {
        if !self.on {
            return SpanId(0);
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(0),
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Close a span opened by [`open`](Spans::open). Spans close in
    /// reverse order of opening.
    pub fn close(&mut self, span: SpanId) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(span.0), "spans close innermost first");
        self.spans[span.0 as usize - 1].end_ns = end;
    }

    /// Every recorded span, in opening order.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Write one JSON object per span, after a `header` line.
    pub fn write_jsonl(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let mut t = Spans::new(true);
        let outer = t.open("outer");
        let inner = t.open("inner");
        t.close(inner);
        t.close(outer);
        let s = t.all();
        assert_eq!((s[0].id, s[0].parent), (1, 0));
        assert_eq!((s[1].id, s[1].parent), (2, 1));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn off_recorder_records_nothing() {
        let mut t = Spans::new(false);
        let a = t.open("a");
        t.close(a);
        assert!(t.all().is_empty());
    }
}
