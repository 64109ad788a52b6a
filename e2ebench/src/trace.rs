//! In-memory spans for the traced mode.
//!
//! A span has a name, a start and end (microseconds since the tracer was
//! created) and the index of the span that was open when it started.
//! Spans stay in memory while the workload runs and are written out once,
//! at the end, by [`Tracer::to_json`].

use std::time::Instant;

/// One closed (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `ir.parse`.
    pub name: String,
    /// Microseconds since the tracer's origin.
    pub start_us: f64,
    /// Microseconds since the tracer's origin; `NaN` while open.
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Work the span did, counted where it happened (rule firings,
    /// bytes emitted, …), when the layer reports one.
    pub count: Option<f64>,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// A stack of open spans plus every span recorded so far.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: self.now_us(),
            end_us: f64::NAN,
            parent: self.open.last().copied(),
            count: None,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span, and
    /// returns its duration in milliseconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_us = self.now_us();
        self.spans[id].ms()
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration in milliseconds.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let id = self.open(name);
        let out = f(self);
        let ms = self.close(id);
        (out, ms)
    }

    /// Attaches a count to the most recently opened span.
    pub fn count(&mut self, value: f64) {
        if let Some(s) = self.spans.last_mut() {
            s.count = Some(value);
        }
    }

    /// The count of the last span named `name` that carries one.
    pub fn last_count(&self, name: &str) -> Option<f64> {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name && s.count.is_some())
            .and_then(|s| s.count)
    }

    /// Durations in milliseconds of every closed span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_us.is_finite())
            .map(Span::ms)
            .collect()
    }

    /// What the tracing itself cost, as a share in percent of the time
    /// since the tracer was created: the spans recorded times the
    /// measured cost of opening and closing one empty span.
    pub fn overhead_pct(&self) -> f64 {
        const PROBES: usize = 10_000;
        let mut probe = Tracer::new();
        let start = Instant::now();
        for _ in 0..PROBES {
            probe.span("probe.empty", |_| ());
        }
        let per_span_us = start.elapsed().as_secs_f64() * 1e6 / PROBES as f64;
        100.0 * self.spans.len() as f64 * per_span_us / self.now_us()
    }

    /// The spans as a JSON array of `{"name", "start_us", "end_us",
    /// "parent", "count"}` objects.
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": {}, \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {}, \"count\": {}}}",
                    crate::report::json_string(&s.name),
                    s.start_us,
                    if s.end_us.is_finite() { s.end_us } else { -1.0 },
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.count.map_or("null".to_string(), crate::report::json_number)
                )
            })
            .collect();
        format!("[\n    {}\n  ]", items.join(",\n    "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record_parents() {
        let mut t = Tracer::new();
        let ((), outer) = t.span("outer", |t| {
            t.span("inner", |_| ());
            t.span("inner", |_| ());
        });
        assert!(outer >= 0.0);
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        assert_eq!(t.durations("inner").len(), 2);
        t.count(7.0);
        assert_eq!(t.last_count("inner"), Some(7.0));
        assert_eq!(t.last_count("outer"), None);
        assert!(t.to_json().contains("\"parent\": 0"));
        let pct = t.overhead_pct();
        assert!(pct > 0.0 && pct.is_finite(), "{pct}");
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_panics() {
        let mut t = Tracer::new();
        let a = t.open("a");
        let _b = t.open("b");
        t.close(a);
    }
}
