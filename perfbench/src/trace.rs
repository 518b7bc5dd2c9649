//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only around the benchmark's own calls into the
//! simulator's public functions: each holds a name, a start, an end, its
//! parent span and the cell it belongs to. Nothing is written until the run
//! ends, so recording costs two clock reads and a `Vec` push per span.

use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// Cell id for spans that belong to no single cell (set-up, passes,
/// batches, aggregation).
pub const NO_CELL: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub cell: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; every method is a no-op when disabled, so
/// the untraced run pays one branch per call site.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, cell: u32) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: None,
            cell,
        });
        let n = self.open.len();
        if n >= 2 {
            let id = self.open[n - 1];
            self.spans[id].parent = Some(self.open[n - 2]);
        }
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let id = self.open.pop().expect("end() without a matching begin()");
        self.spans[id].end_ns = now;
    }

    /// Records an already-measured interval as a child of the innermost
    /// open span (used for dispatched cells, whose boundaries are the
    /// coordinator's completion callbacks).
    pub fn record(&mut self, name: &'static str, cell: u32, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: self.open.last().copied(),
            cell,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sum of durations of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .sum()
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Sum of self times of every span called `name`, in seconds.
    pub fn self_total_s(&self, name: &str) -> f64 {
        let st = self_times_ns(&self.spans);
        self.spans
            .iter()
            .zip(st)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t as f64 / 1e9)
            .sum()
    }

    /// The spans as JSON lines, written out when the run ends.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let cell = if s.cell == NO_CELL {
                "null".to_string()
            } else {
                s.cell.to_string()
            };
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"cell\":{cell}}}\n",
                s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children may overlap each other (a covered
/// instant counts once) and may stick out of their parent (only the part
/// inside the parent counts).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            cell: NO_CELL,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) ⊃ a [10,40) ⊃ b [15,25); c [50,60).
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 15, 25, Some(1)),
            span("c", 50, 60, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Children [10,50) and [30,70) overlap on [30,50): 60 ns covered.
        // A child sticking out of the parent counts only inside it.
        let spans = vec![
            span("root", 0, 100, None),
            span("x", 10, 50, Some(0)),
            span("y", 30, 70, Some(0)),
            span("z", 90, 130, Some(0)),
            span("w", 35, 45, Some(0)),
        ];
        let st = self_times_ns(&spans);
        assert_eq!(st[0], 100 - 60 - 10);
        assert_eq!(&st[1..], &[40, 40, 40, 10]);
    }

    #[test]
    fn tracer_links_parents_and_is_silent_when_disabled() {
        let mut t = Tracer::new(true);
        t.begin("pass", NO_CELL);
        t.begin("cell", 3);
        t.end();
        t.end();
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].cell, 3);
        assert!(t.self_total_s("pass") <= t.total_s("pass"));
        assert_eq!(t.to_jsonl().lines().count(), 2);

        let mut off = Tracer::new(false);
        off.begin("pass", NO_CELL);
        off.end();
        assert!(off.spans().is_empty());
    }
}
