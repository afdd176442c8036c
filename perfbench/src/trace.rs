//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into the lab's public functions
//! (`ScenarioSpec::build`, `SweepRunner::run`, `Simulator::run_until`, …).
//! They are kept in memory and written out once, when the run ends, so
//! recording costs one `Instant::now` pair and a `Vec` push per call. A
//! disabled tracer records nothing: the untraced run pays one branch.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on the benchmark's main thread.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span called `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every finished span, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self time of every span: its duration minus the time its children
/// cover. Children of one span run one after another on the same thread,
/// so their durations never overlap and simply add up.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(&child_ns)
        .map(|(s, &c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Per-name totals `(name, calls, total_ns, self_ns)`, in first-seen order.
pub fn totals_by_name(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for (s, &own) in spans.iter().zip(&selfs) {
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += s.duration_ns();
                r.3 += own;
            }
            None => rows.push((s.name, 1, s.duration_ns(), own)),
        }
    }
    rows
}

/// Serializes spans (with self time) as a JSON array.
pub fn spans_json(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("[");
    for (i, (s, own)) in spans.iter().zip(&selfs).enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{own}}}",
            s.name, s.start_ns, s.end_ns
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "root",
                start_ns: 0,
                end_ns: 100,
                parent: None,
            },
            Span {
                name: "a",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
            },
            Span {
                name: "b",
                start_ns: 50,
                end_ns: 60,
                parent: Some(0),
            },
            Span {
                name: "c",
                start_ns: 12,
                end_ns: 20,
                parent: Some(1),
            },
        ];
        assert_eq!(self_times(&spans), vec![60, 22, 10, 8]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_spans_link_to_parents() {
        let t = Tracer::new(true);
        t.span("outer", || t.span("inner", || ()));
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
