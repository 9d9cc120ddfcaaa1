//! In-memory spans around the calls the benchmark makes into each
//! layer, written out as a chrome://tracing document when the workload
//! ends. Spans are recorded from the benchmark's own files only;
//! tracing inside the simulator is a later issue.

use std::path::Path;
use std::time::Instant;

use crate::json::Value;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `netsim.sim.new`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the span this one ran inside, if any.
    pub parent: Option<usize>,
    /// Repetition the span belongs to (0 = outside any rep).
    pub rep: u32,
}

/// Span recorder. Disabled (the untraced run) it only runs the closure.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Repetition tag put on spans recorded from now on.
    pub rep: u32,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a pass-through.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span called `name`; spans opened by `f` become
    /// its children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(index);
        self.spans[index].start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self);
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.open.pop();
        out
    }

    /// Durations in seconds of every span called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// All spans, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `index` in ns: its duration minus the part its
    /// direct children cover.
    pub fn self_ns(&self, index: usize) -> u64 {
        let span = &self.spans[index];
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (span.end_ns - span.start_ns).saturating_sub(children)
    }

    /// Writes the spans as a chrome://tracing (`traceEvents`) document.
    /// Each event carries the raw span record in `args`.
    ///
    /// # Errors
    ///
    /// The I/O error of creating or writing `path`.
    pub fn write_chrome(&self, workload: &str, path: &Path) -> std::io::Result<()> {
        // Children total per parent in one pass (self_ns per span would
        // be quadratic in the span count).
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let events: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = s.parent.map_or(Value::Null, Value::from);
                let dur_ns = s.end_ns - s.start_ns;
                Value::obj()
                    .with("name", s.name)
                    .with("cat", workload)
                    .with("ph", "X")
                    .with("ts", s.start_ns as f64 / 1e3)
                    .with("dur", dur_ns as f64 / 1e3)
                    .with("pid", 1u64)
                    .with("tid", 1u64)
                    .with(
                        "args",
                        Value::obj()
                            .with("id", i)
                            .with("parent", parent)
                            .with("workload", workload)
                            .with("rep", u64::from(s.rep))
                            .with("start_ns", s.start_ns)
                            .with("end_ns", s.end_ns)
                            .with("self_ns", dur_ns.saturating_sub(child_ns[i])),
                    )
            })
            .collect();
        let doc = Value::obj()
            .with("displayTimeUnit", "ms")
            .with("traceEvents", Value::Arr(events));
        std::fs::write(path, doc.to_pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_self_time() {
        let mut tr = Tracer::new(true);
        tr.span("outer", |tr| {
            tr.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tr.span("inner", |_| ());
        });
        assert_eq!(tr.spans().len(), 3);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[2].parent, Some(0));
        assert_eq!(tr.durations("inner").len(), 2);
        let outer = tr.spans()[0].end_ns - tr.spans()[0].start_ns;
        assert!(tr.self_ns(0) < outer, "children must be subtracted");
        assert!(tr.self_ns(1) >= 2_000_000);
    }

    #[test]
    fn disabled_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", |_| 7), 7);
        assert!(tr.spans().is_empty());
    }
}
