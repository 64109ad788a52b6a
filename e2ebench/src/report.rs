//! Metric declarations and the one-line JSON result.
//!
//! The tables here mirror `BENCHMARK.json` at the repository root; a
//! test keeps the two in step.

use std::collections::BTreeMap;

/// A declared metric: name, unit and which direction is better.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
    }
}

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    lower("compile_s", "s"),
    lower("train_s", "s"),
    lower("delta_p50_ms", "ms"),
    lower("refit_ms", "ms"),
    higher("reads_per_s", "1/s"),
    lower("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by every traced run. A layer that the
/// workload does not exercise did no work and reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    lower("ir.parse_ms", "ms"),
    lower("transform.optimize_ms", "ms"),
    lower("transform.rule_firings", "count"),
    lower("transform.specialize_ms", "ms"),
    lower("ir.verify_typecheck_ms", "ms"),
    lower("query.extract_ms", "ms"),
    lower("core.compile_other_ms", "ms"),
    lower("query.batch_aggregates", "count"),
    lower("storage.import_ms", "ms"),
    lower("query.plan_ms", "ms"),
    lower("query.analyze_ms", "ms"),
    lower("engine.prepare_ms", "ms"),
    lower("engine.execute_ms", "ms"),
    lower("interp.loop_ms", "ms"),
    lower("interp.iteration_ms", "ms"),
    lower("codegen.emit_ms", "ms"),
    lower("codegen.source_bytes", "bytes"),
    lower("ml.covar_pass_ms", "ms"),
    lower("ml.score_pass_ms", "ms"),
    higher("engine.rows_per_s", "1/s"),
    lower("par.chunks", "count"),
    lower("storage.open_ms", "ms"),
    lower("storage.read_ms", "ms"),
    lower("stream.pass_ms", "ms"),
    lower("stream.overhead_ms", "ms"),
    lower("stream.chunks", "count"),
    lower("stream.peak_live_chunks", "count"),
    lower("serve.build_ms", "ms"),
    lower("serve.insert_delta_ms", "ms"),
    lower("serve.delete_delta_ms", "ms"),
    lower("engine.delta_scan_ms", "ms"),
    higher("serve.prep_cache_hit_ratio", "ratio"),
    lower("serve.refit_ms", "ms"),
    lower("serve.snapshot_us", "us"),
    lower("serve.read_wait_p99_us", "us"),
    lower("serve.generator_lag_ms", "ms"),
    lower("trace.overhead_pct", "%"),
];

/// What one run measured and whether its outputs checked out.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations the run attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Measured metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Correctness-check failures (empty when every check passed).
    pub problems: Vec<String>,
    /// Reference figures a traced run writes to its results file but
    /// does not print as metrics.
    pub notes: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a reference figure.
    pub fn note(&mut self, name: &'static str, value: f64) {
        self.notes.insert(name, value);
    }

    /// The reference figures as a JSON object.
    pub fn notes_json(&self) -> String {
        let items: Vec<String> = self
            .notes
            .iter()
            .map(|(k, v)| format!("{}: {}", json_string(k), json_number(*v)))
            .collect();
        format!("{{{}}}", items.join(", "))
    }

    /// Records the result of one correctness check.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.problems.push(e);
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// of `defs`. An end-to-end metric the workload did not set is a bug
    /// in the benchmark and panics; an unset per-layer metric reads 0.
    pub fn render(&self, defs: &[MetricDef], require_all: bool) -> String {
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                let v = match self.values.get(d.name) {
                    Some(v) => *v,
                    None if require_all => panic!("workload did not measure `{}`", d.name),
                    None => 0.0,
                };
                assert!(v.is_finite(), "metric `{}` is not finite: {v}", d.name);
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(d.name),
                    json_number(v),
                    json_string(d.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit of the `f64` (Rust's shortest
/// round-tripping form).
pub fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_every_declared_metric() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for d in END_TO_END {
            o.set(d.name, 1.25);
        }
        let line = o.render(END_TO_END, true);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for d in END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{\"value\": 1.25", d.name)));
        }
        o.check(Err("boom".into()));
        assert!(o.render(END_TO_END, true).contains("\"correct\": false"));
        // Per-layer metrics the workload never touched read 0.
        assert!(o
            .render(PER_LAYER, false)
            .contains("\"ir.parse_ms\": {\"value\": 0.0"));
    }

    #[test]
    #[should_panic(expected = "did not measure")]
    fn missing_end_to_end_metric_panics() {
        Outcome::default().render(END_TO_END, true);
    }

    #[test]
    fn names_are_unique_and_declared_in_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                d.name, d.unit, d.better
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json declares metrics the benchmark does not print"
        );
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_number(1.0), "1.0");
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_string("a\"b"), "\"a\\\"b\"");
    }
}
