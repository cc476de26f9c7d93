//! Spans recorded from the outside: around the benchmark's own calls into
//! each layer's public functions. Spans stay in memory while the workload
//! runs and are written once at exit.

use std::io::Write;
use std::time::Instant;

/// One timed interval. `parent` is the id of the span that caused it (0 =
/// none); spans of one request share `request`.
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A single thread's span list. Ids are unique across recorders that were
/// given distinct `lane`s.
pub struct Recorder {
    origin: Instant,
    next_id: u64,
    pub on: bool,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant, lane: u64) -> Self {
        Recorder { origin, next_id: lane << 40, on: false, spans: Vec::new() }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Reserves an id, so children can name a parent that ends after them.
    pub fn alloc(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Records a finished span under a fresh id (or `id`, if reserved) and
    /// returns that id. Does nothing while the recorder is off.
    pub fn record(
        &mut self,
        id: Option<u64>,
        parent: u64,
        request: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let id = id.unwrap_or_else(|| self.alloc());
        self.spans.push(Span { id, parent, request, name, start_ns, end_ns });
        id
    }

    /// Times `f` as a span.
    pub fn time<R>(
        &mut self,
        parent: u64,
        request: u64,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.record(None, parent, request, name, start, end);
        out
    }
}

/// Writes the spans to `out` as one JSON array, ordered by start time.
pub fn write_spans(mut out: impl Write, mut spans: Vec<Span>) -> std::io::Result<()> {
    spans.sort_by_key(|s| (s.start_ns, s.id));
    writeln!(out, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 < spans.len() { "," } else { "" };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"request\":{}}}{comma}",
            s.name, s.start_ns, s.end_ns, s.id, s.parent, s.request
        )?;
    }
    writeln!(out, "]")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_by_reserved_id_and_write_as_json() {
        let mut rec = Recorder::new(Instant::now(), 3);
        assert_eq!(rec.record(None, 0, 1, "off", 0, 1), 0);
        assert!(rec.spans.is_empty());
        rec.on = true;
        let parent = rec.alloc();
        let child = rec.time(parent, 9, "child", || 5);
        assert_eq!(child, 5);
        rec.record(Some(parent), 0, 9, "parent", 0, rec.now_ns());
        assert_eq!(rec.spans[0].parent, rec.spans[1].id);
        assert_eq!(rec.spans[1].id >> 40, 3);

        let mut text = Vec::new();
        write_spans(&mut text, rec.spans).unwrap();
        let parsed = crate::json::parse(std::str::from_utf8(&text).unwrap()).unwrap();
        assert_eq!(parsed.as_arr().len(), 2);
        assert_eq!(parsed.as_arr()[0].get("name").unwrap().as_str(), Some("parent"));
    }
}
