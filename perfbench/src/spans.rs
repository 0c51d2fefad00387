//! In-memory span recording for the traced run.
//!
//! Every call into a layer is wrapped in a span: its name, start and end
//! (host seconds since the tracer was created), its parent span and, when
//! the call serves one request, that request's id — so the spans of one
//! request share it. Spans stay in memory and are written out once, at
//! the end. A layer's *self time* is its span time minus the time its
//! child spans cover.
//!
//! A disabled tracer runs the same closures without reading the clock or
//! recording anything, which is how the traced run measures its own
//! overhead.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded layer call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `plan.lookup`.
    pub name: &'static str,
    /// Start, host seconds since the tracer's epoch.
    pub start: f64,
    /// End, host seconds since the tracer's epoch.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request this call served, if it served exactly one.
    pub request: Option<usize>,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recording tracer.
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), enabled: true, spans: Vec::new(), open: Vec::new() }
    }

    /// A tracer that records nothing and never reads the clock.
    pub fn disabled() -> Self {
        Tracer { enabled: false, ..Tracer::new() }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: Option<usize>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start: self.now(), end: f64::NAN, parent, request });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        out
    }

    /// Host seconds one (empty) span costs the tracer: the median over a
    /// few batches of recorded spans. Multiplied by the spans a window
    /// recorded, it estimates how much tracing added to that window.
    pub fn span_cost() -> f64 {
        const SPANS: usize = 20_000;
        let batches: Vec<f64> = (0..5)
            .map(|_| {
                let mut t = Tracer::new();
                let start = Instant::now();
                for i in 0..SPANS {
                    t.span("calibrate", Some(i), |_| ());
                }
                start.elapsed().as_secs_f64() / SPANS as f64
            })
            .collect();
        crate::stats::median(&batches)
    }

    /// Spans recorded so far; pass the length to [`Tracer::self_times`]
    /// to restrict it to the spans recorded after that point.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer name over the spans recorded since `mark`.
    pub fn self_times(&self, mark: usize) -> BTreeMap<&'static str, f64> {
        let spans = &self.spans[mark..];
        let mut child = vec![0.0f64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent.filter(|&p| p >= mark) {
                child[p - mark] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0.0) += (s.end - s.start) - c;
        }
        out
    }

    /// Render the spans as JSON lines, one span per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{:e},\"end\":{:e},\"parent\":{},\"request\":{}}}",
                s.name,
                s.start,
                s.end,
                opt(s.parent),
                opt(s.request)
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("outer", None, |t| {
            t.span("inner", Some(3), |_| std::thread::sleep(std::time::Duration::from_millis(5)));
        });
        let times = t.self_times(0);
        assert!(times["inner"] >= 0.004);
        assert!(times["outer"] < times["inner"]);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].request, Some(3));
        let mut off = Tracer::disabled();
        assert_eq!(off.span("x", None, |_| 7), 7);
        assert!(off.spans().is_empty());
    }
}
