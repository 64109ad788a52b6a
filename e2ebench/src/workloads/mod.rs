//! The three workloads. Each `run` starts from a cold process, measures
//! for the configured time and returns an [`Outcome`]: the end-to-end
//! metrics, or with tracing on the per-layer metrics, plus the result of
//! every correctness check.

pub mod favorita;
pub mod linreg;
pub mod serve;
pub mod stream;

use crate::report::Outcome;
use crate::trace::Tracer;
use ifaq_engine::{ExecConfig, TrainMatrix};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Workload names, as `--workload` takes them.
pub const NAMES: &[&str] = &["retailer-linreg", "favorita-stream", "retailer-serve"];

/// How long the batch workloads serve reads from the freshly fitted
/// model after each round, through the model's matrix-row entry point;
/// `reads_per_s` is the median over the bursts.
pub const READ_BURST: Duration = Duration::from_millis(100);

/// The configuration of every measured scan: one worker thread and the
/// engine's default chunk size. On a host of a few shared cores, a scan
/// sharded over every core is slowed whenever a neighbour takes one of
/// them, and its time between runs spreads about three times as far as
/// a one-thread scan's; the result does not depend on the thread count
/// (the engine's chunk partials fold in a fixed order).
pub fn exec_config() -> ExecConfig {
    ExecConfig::with_threads(1)
}

/// Everything a workload run needs to know.
pub struct Ctx {
    /// The top of `main`.
    pub t0: Instant,
    /// Seconds from the process's start to the top of `main`.
    pub launch_s: f64,
    /// The seed the inputs were generated from.
    pub seed: u64,
    /// Measurement time.
    pub seconds: f64,
    /// The run's data directory (holds `star/`).
    pub data: PathBuf,
    /// Spans, when tracing.
    pub tracer: Option<Tracer>,
}

impl Ctx {
    /// The star export's directory.
    pub fn star(&self) -> PathBuf {
        crate::data::star_dir(&self.data)
    }

    /// Seconds since the process started.
    pub fn since_start(&self) -> f64 {
        self.launch_s + self.t0.elapsed().as_secs_f64()
    }

    /// True once `seconds` of measurement starting at `from` are used up.
    pub fn window_over(&self, from: Instant) -> bool {
        from.elapsed() >= Duration::from_secs_f64(self.seconds)
    }
}

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Calls `predict` on every row of `rows` in turn for `window` and
/// returns calls per second and the number of calls. The sum of the
/// predictions is kept live so the calls cannot be optimised away.
pub fn reads_per_second(
    window: Duration,
    rows: &TrainMatrix,
    mut predict: impl FnMut(&TrainMatrix, usize) -> f64,
) -> (f64, u64) {
    let start = Instant::now();
    let mut calls: u64 = 0;
    let mut acc = 0.0;
    while start.elapsed() < window {
        for i in 0..rows.rows {
            acc += predict(rows, i);
        }
        calls += rows.rows as u64;
    }
    std::hint::black_box(acc);
    (calls as f64 / start.elapsed().as_secs_f64(), calls)
}

/// Per-layer medians over the spans named `name`, recorded as `metric`.
pub fn set_median(out: &mut Outcome, tracer: &Tracer, name: &str, metric: &'static str) {
    if let Some(v) = crate::stats::median(&tracer.durations(name)) {
        out.set(metric, v);
    }
}

/// Runs the named workload.
pub fn run(name: &str, ctx: &mut Ctx) -> Result<Outcome, String> {
    match name {
        "retailer-linreg" => linreg::run(ctx),
        "favorita-stream" => stream::run(ctx),
        "retailer-serve" => serve::run(ctx),
        other => Err(format!(
            "unknown workload `{other}`; expected one of {}",
            NAMES.join(", ")
        )),
    }
}
