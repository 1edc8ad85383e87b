//! Benchmark-side spans: name, start, end, parent.
//!
//! Spans are recorded from the benchmark's own files around the calls
//! into each layer, kept in memory, and written out when the run ends.
//! A span's self time is its duration minus the part its direct
//! children cover.

use std::time::Instant;

use crate::json::Json;

/// One recorded span; times are ns since the recorder was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// In-memory span recorder with a stack of open spans.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span; returns its id.
    pub fn enter(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (and any span opened inside it and left open).
    pub fn exit(&mut self, id: usize) {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// All spans, in opening order.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// The trace file body.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("name", Json::Str(s.name.clone())),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("self_ns", Json::Num(self_time_ns(&self.spans, id) as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of span `id`: its duration minus its direct children's.
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let own = spans[id].end_ns - spans[id].start_ns;
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    own.saturating_sub(children)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("run", 0, 100, None),
            span("setup", 0, 30, Some(0)),
            span("setup.alloc", 5, 15, Some(1)),
            span("run.measure", 30, 90, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 10);
        assert_eq!(self_time_ns(&spans, 1), 20);
        assert_eq!(self_time_ns(&spans, 2), 10);
        assert_eq!(self_time_ns(&spans, 3), 60);
    }

    #[test]
    fn nesting_follows_the_open_stack() {
        let mut s = Spans::new(Instant::now());
        let a = s.enter("a");
        let b = s.enter("b");
        s.exit(b);
        let c = s.enter("c");
        s.exit(c);
        s.exit(a);
        let d = s.enter("d");
        s.exit(d);
        let parents: Vec<_> = s.all().iter().map(|x| x.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), None]);
        assert!(s.all()[0].end_ns >= s.all()[2].end_ns);
    }

    #[test]
    fn exit_closes_spans_left_open_inside() {
        let mut s = Spans::new(Instant::now());
        let a = s.enter("a");
        let _leaked = s.enter("b");
        s.exit(a);
        let c = s.enter("c");
        s.exit(c);
        assert_eq!(s.all()[2].parent, None);
    }
}
