//! In-memory spans around every call the benchmark makes into a layer.
//!
//! A span records its name, start and end (ns since the run began), the
//! span that was open when it started, and the load it belongs to. Spans
//! stay in memory and are written out as JSON when the run ends. With
//! recording off, [`Spans::time`] is a plain call.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub load: Option<u64>,
}

pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans { on, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` (for load `load`, if any).
    pub fn time<T>(&mut self, name: &'static str, load: Option<u64>, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, load });
        self.open.push(idx);
        let out = f();
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Open a span that encloses later `time` calls; close it with
    /// [`Spans::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if self.on {
            let idx = self.spans.len();
            let start_ns = self.now_ns();
            let parent = self.open.last().copied();
            self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, load: None });
            self.open.push(idx);
        }
    }

    pub fn exit(&mut self) {
        if let Some(idx) = self.open.pop() {
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Total ms spent in spans called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        let ns: u64 =
            self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).sum();
        ns as f64 / 1e6
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"load\": {}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.load.map_or("null".to_string(), |l| l.to_string()),
                if i + 1 == self.spans.len() { "" } else { "," },
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent_and_load() {
        let mut s = Spans::new(true);
        s.enter("round");
        s.time("replay", Some(7), || std::thread::sleep(std::time::Duration::from_millis(2)));
        s.exit();
        assert_eq!(s.len(), 2);
        assert_eq!(s.spans[1].parent, Some(0));
        assert_eq!(s.spans[1].load, Some(7));
        assert!(s.total_ms("round") >= s.total_ms("replay"));
        assert!(s.to_json().contains("\"name\": \"replay\""));
    }

    #[test]
    fn off_records_nothing() {
        let mut s = Spans::new(false);
        assert_eq!(s.time("replay", None, || 3), 3);
        s.enter("round");
        s.exit();
        assert_eq!(s.len(), 0);
    }
}
