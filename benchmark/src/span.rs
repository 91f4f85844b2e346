//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is a name, a start, an end, the span that caused it and the bin it
//! belongs to (the identifier spans of one bin share). Spans are recorded
//! from the benchmark's side of the boundary only — nothing in the program is
//! instrumented — kept in memory for the whole run and written out at exit.

use crate::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the recorder's origin.
#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Bin index: the identifier every span of one bin shares.
    pub bin: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The run's span list.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose clock starts now; only later instants can be
    /// recorded.
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new() }
    }

    /// An empty recorder on the same clock, to be [`absorb`](Self::absorb)ed
    /// later — or dropped, if what it recorded is not wanted.
    pub fn sibling(&self) -> Self {
        Self { origin: self.origin, spans: Vec::new() }
    }

    /// Appends a sibling's spans, keeping their parent links.
    pub fn absorb(&mut self, sibling: Recorder) {
        let offset = self.spans.len();
        self.spans.extend(sibling.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|parent| parent + offset);
            span
        }));
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished interval and returns its index, for children to
    /// name as their parent.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        bin: u64,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { name, start_ns, end_ns, parent, bin });
        self.spans.len() - 1
    }

    /// Widens an already recorded span to end at `end` (a root span is pushed
    /// before its children so they can name it, and closed after them).
    pub fn close(&mut self, index: usize, end: Instant) {
        self.spans[index].end_ns = self.ns(end);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut totals = BTreeMap::new();
        for (name, ns) in self.spans.iter().zip(self_times(&self.spans)).map(|(s, t)| (s.name, t)) {
            *totals.entry(name).or_insert(0) += ns;
        }
        totals
    }

    /// The span list as a JSON document.
    pub fn to_json(&self, workload: &str) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|span| {
                Value::object([
                    ("name", Value::from(span.name)),
                    ("start_ns", Value::from(span.start_ns)),
                    ("end_ns", Value::from(span.end_ns)),
                    (
                        "parent",
                        span.parent.map_or(Value::Null, |parent| Value::from(parent as u64)),
                    ),
                    ("bin", Value::from(span.bin)),
                ])
            })
            .collect();
        Value::object([("workload", Value::from(workload)), ("spans", Value::Array(spans))])
    }
}

/// A span's self time: its duration minus the part of its interval that its
/// direct children cover. Grandchildren are inside a child and so already
/// accounted to it; overlapping or overhanging children are merged and
/// clipped to the parent before subtracting.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let (lo, hi) = (spans[parent].start_ns, spans[parent].end_ns);
            let clipped = (span.start_ns.clamp(lo, hi), span.end_ns.clamp(lo, hi));
            if clipped.1 > clipped.0 {
                children[parent].push(clipped);
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, bin: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("tick", 0, 100, None),
            span("decode", 10, 30, Some(0)),
            span("engine", 30, 90, Some(0)),
            span("extract", 40, 60, Some(2)), // grandchild of tick
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 40, 20]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("parent", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 160, Some(0)), // overlaps a by 10
            span("c", 190, 250, Some(0)), // overhangs the parent's end
            span("d", 50, 90, Some(0)),   // entirely outside
        ];
        // Covered: [110,160) = 50 and [190,200) = 10.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn recorder_totals_self_time_by_name() {
        let mut recorder = Recorder::new();
        let origin = recorder.origin;
        let at = |ns: u64| origin + std::time::Duration::from_nanos(ns);
        for bin in 0..2u64 {
            let base = bin * 1000;
            let tick = recorder.push("service.tick", at(base), at(base), None, bin);
            recorder.push("trace.decode", at(base + 100), at(base + 300), Some(tick), bin);
            recorder.close(tick, at(base + 1000));
        }
        let totals = recorder.self_time_by_name();
        assert_eq!(totals["service.tick"], 1600);
        assert_eq!(totals["trace.decode"], 400);
        assert_eq!(recorder.spans()[3].bin, 1);

        // A sibling's spans keep their parents when absorbed.
        let mut sibling = recorder.sibling();
        let root = sibling.push("bench.replay", at(5000), at(6000), None, 0);
        sibling.push("queries.exec", at(5100), at(5400), Some(root), 0);
        recorder.absorb(sibling);
        assert_eq!(recorder.spans()[5].parent, Some(4));
        assert_eq!(recorder.spans()[5].start_ns, 5100);
        assert_eq!(recorder.self_time_by_name()["bench.replay"], 700);
    }
}
