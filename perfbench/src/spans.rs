//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span holds a name, start, end, parent and op id. Spans stay in a
//! `Vec` while the traced run measures and are reduced when it ends. A
//! span's self time is its duration minus the part of it that its child
//! spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `wire.decode`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to (0 for set-up work).
    pub op: u64,
    /// Whether the call failed.
    pub failed: bool,
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str, op: u64) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            op,
            failed: false,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        let end = self.now();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end = end;
    }

    /// Closes span `id` and marks it failed when `ok` is false.
    pub fn exit_ok(&mut self, id: usize, ok: bool) {
        self.spans[id].failed = !ok;
        self.exit(id);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over the spans that pass `keep`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    /// Spans recorded.
    pub count: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Spans marked failed.
    pub failures: u64,
}

/// Sums count, self time and failures by span name.
pub fn totals(spans: &[Span], keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, LayerTotal> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        if !keep(s) {
            continue;
        }
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.self_ns += self_ns;
        t.failures += u64::from(s.failed);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 1,
            failed: false,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            // Overlapping children cover [10, 40] once: 30 ns.
            span("a", 10, 30, Some(0)),
            span("b", 20, 40, Some(0)),
            // A child running past its parent is clipped to [90, 100].
            span("c", 90, 120, Some(0)),
            // A grandchild counts against its parent, not the root.
            span("d", 12, 18, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![60, 14, 20, 30, 6]);
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let spans = vec![span("leaf", 5, 25, None)];
        assert_eq!(self_times(&spans), vec![20]);
    }

    #[test]
    fn totals_group_by_name() {
        let mut spans = vec![
            span("op", 0, 50, None),
            span("x", 0, 10, Some(0)),
            span("x", 20, 25, Some(0)),
        ];
        spans[2].failed = true;
        let t = totals(&spans, |_| true);
        assert_eq!(
            t["x"],
            LayerTotal {
                count: 2,
                self_ns: 15,
                failures: 1
            }
        );
        assert_eq!(t["op"].self_ns, 35);
        assert_eq!(totals(&spans, |s| s.name == "op").len(), 1);
    }

    #[test]
    fn tracer_nests_spans() {
        let mut t = Tracer::new();
        let outer = t.enter("outer", 3);
        let inner = t.enter("inner", 3);
        t.exit_ok(inner, false);
        t.exit(outer);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].failed);
        assert!(spans[0].end >= spans[1].end);
        assert_eq!(spans[0].op, 3);
    }
}
