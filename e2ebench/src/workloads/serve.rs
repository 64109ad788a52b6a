//! `retailer-serve`: a resident `ServeEngine` (MergedHash, serial Δ-scans)
//! over the retailer training split, absorbing an open-loop stream of
//! seeded delta batches while a closed-loop reader takes snapshots and
//! predictions.
//!
//! Untraced, the reader runs on the writer's thread, in the time until
//! each batch is due: on a host of two shared cores, a reader thread
//! spinning beside the writer slowed the writer in some runs and not in
//! others, and `delta_p50_ms` fell into two clusters 1.5 times apart.
//! Traced, a separate reader thread runs beside the writer, so that
//! `serve.read_wait_p99_us` shows reads waiting on the writer's lock.
//!
//! Batch `k` is due at `k / RATE_PER_S` seconds after the stream starts;
//! it inserts `INSERTS_PER_BATCH` fresh rows and deletes the rows batch
//! `k − 1` inserted, so the fact table keeps its size and every batch
//! after the first holds deletes. Every `REFIT_EVERY`-th batch is
//! followed by a refit. A batch's latency is timed from when it was due,
//! so a stall also counts against the batches queued behind it.
//!
//! The traffic mix is an assumption, not a measured trace: no public
//! trace of this workload exists. What the latencies depend on is the
//! share of batches that hold a delete (here all but the first), since a
//! delete makes `apply_delta` visit the whole fact table.

use super::{set_median, timed, Ctx};
use crate::check;
use crate::data::{self, Rng};
use crate::reference::{self, RefMoments};
use crate::report::Outcome;
use crate::stats::{median, quantile};
use crate::sys;
use crate::trace::Tracer;
use ifaq_engine::exec::PrepCache;
use ifaq_engine::{layout, ExecConfig, Layout, StarDb};
use ifaq_ir::analysis::DeltaAnalysis;
use ifaq_query::batch::covar_batch;
use ifaq_query::{analysis, JoinTree, ViewPlan};
use ifaq_serve::{DeltaBatch, ServeConfig, ServeEngine};
use ifaq_storage::Column;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The label attribute.
pub const LABEL: &str = "inventoryunits";
/// Delta batches due per second. At today's delete cost a batch takes
/// about a third of the time between batches, and a 35 s run applies
/// about 210 of them.
pub const RATE_PER_S: f64 = 6.0;
/// The fewest batches a run applies, whatever its length.
pub const MIN_BATCHES: usize = 100;
/// Fresh rows each batch inserts (and, from the second batch on, rows of
/// the previous batch it deletes).
pub const INSERTS_PER_BATCH: usize = 20;
/// A refit follows every this many batches.
pub const REFIT_EVERY: usize = 2;
/// Insert-only / delete-only batch pairs the traced run times.
pub const TRACED_PAIRS: usize = 10;

/// The engine configuration under test.
pub fn config() -> ServeConfig {
    ServeConfig::new(Layout::MergedHash).with_exec(ExecConfig::with_threads(1))
}

/// Fresh fact rows: every key drawn from its dimension's key range, the
/// label uniform in `[0, 50)`.
pub fn fresh_rows(db: &StarDb, rng: &mut Rng, n: usize) -> Vec<Vec<f64>> {
    let ranges: Vec<Option<usize>> = db
        .fact
        .attrs
        .iter()
        .zip(&db.fact.columns)
        .map(|(a, c)| match c {
            Column::I64(_) => Some(
                db.dims
                    .iter()
                    .find(|d| d.key == *a)
                    .map_or(1, |d| d.rel.len()),
            ),
            Column::F64(_) => None,
        })
        .collect();
    (0..n)
        .map(|_| {
            ranges
                .iter()
                .map(|r| match r {
                    Some(keys) => rng.below(*keys) as f64,
                    None => 50.0 * rng.unit(),
                })
                .collect()
        })
        .collect()
}

/// The delta stream and what its generator tracked.
#[derive(Debug, PartialEq)]
pub struct Schedule {
    pub batches: Vec<DeltaBatch>,
    /// Rows inserted in total.
    pub inserted: usize,
    /// Rows deleted in total.
    pub deleted: usize,
    /// The inserted rows no later batch deletes: the last batch's.
    pub survivors: Vec<Vec<f64>>,
}

/// The delta stream: batch `k` inserts fresh rows and deletes the rows
/// batch `k − 1` inserted.
pub fn schedule(db: &StarDb, seed: u64, batches: usize) -> Schedule {
    let mut rng = Rng::new(seed);
    let mut out = Schedule {
        batches: Vec::with_capacity(batches),
        inserted: 0,
        deleted: 0,
        survivors: Vec::new(),
    };
    for _ in 0..batches {
        let rows = fresh_rows(db, &mut rng, INSERTS_PER_BATCH);
        let mut b = DeltaBatch::from_inserts(rows.iter().cloned());
        for r in out.survivors.drain(..) {
            b = b.delete(r);
            out.deleted += 1;
        }
        out.inserted += rows.len();
        out.survivors = rows;
        out.batches.push(b);
    }
    out
}

/// Plans the covar batch the engine maintains and runs the static
/// analysis under the fact-only delta premise, as `ServeEngine::new`
/// does before its first scan.
fn compile(db: &StarDb, features: &[&str]) -> Result<ViewPlan, String> {
    let cat = db.catalog();
    let batch = covar_batch(features, LABEL);
    let dims: Vec<&str> = db.dims.iter().map(|d| d.rel.name.as_str()).collect();
    let tree =
        JoinTree::build_with_root(&cat, db.fact.name.as_str(), &dims).map_err(|e| e.to_string())?;
    let plan = ViewPlan::plan(&batch, &tree, &cat).map_err(|e| e.to_string())?;
    let delta = DeltaAnalysis::fact_only(db.fact.name.clone());
    let report = analysis::analyze_with(&cat, &plan, &batch, &delta, Some(config().layout));
    if report.has_errors() {
        return Err(format!("covar plan: {:?}", report.errors()));
    }
    Ok(plan)
}

/// What the closed-loop reader saw.
struct Reads {
    calls: u64,
    inconsistent: u64,
    first_error: Option<String>,
    /// Snapshot latencies in µs, every 8th read (traced runs only).
    waits_us: Vec<f64>,
    sample: bool,
    count: usize,
    acc: f64,
}

impl Reads {
    fn new(engine: &ServeEngine, sample: bool) -> Reads {
        Reads {
            calls: 0,
            inconsistent: 0,
            first_error: None,
            waits_us: Vec::new(),
            sample,
            count: engine
                .batch()
                .index_of("count")
                .expect("covar batch counts rows"),
            acc: 0.0,
        }
    }

    /// One read: a snapshot, its consistency check and a prediction.
    fn read(&mut self, engine: &ServeEngine, vectors: &ifaq_engine::TrainMatrix) {
        let t = Instant::now();
        let snap = engine.snapshot();
        if self.sample && self.calls.is_multiple_of(8) {
            self.waits_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        if let Err(e) = check::snapshot(snap.totals[self.count], snap.fact_rows) {
            self.inconsistent += 1;
            self.first_error.get_or_insert(e);
        }
        self.acc += engine.predict(vectors.row(self.calls as usize % vectors.rows));
        self.calls += 1;
        std::hint::black_box(self.acc);
    }
}

/// What the open-loop writer measured.
#[derive(Default)]
struct Writes {
    latency_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    refit_ms: Vec<f64>,
    applied: u64,
    failed: u64,
    first_error: Option<String>,
}

/// Applies `batches` on the open-loop schedule. Before each batch,
/// `wait(due)` fills the time until the batch is due and must return by
/// then. With a tracer, every batch and every refit is also a span.
fn stream(
    engine: &ServeEngine,
    batches: &[DeltaBatch],
    mut tracer: Option<&mut Tracer>,
    mut wait: impl FnMut(Instant),
) -> Writes {
    let mut w = Writes::default();
    let start = Instant::now();
    for (k, batch) in batches.iter().enumerate() {
        let due = start + Duration::from_secs_f64(k as f64 / RATE_PER_S);
        wait(due);
        w.lag_ms
            .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        let result = match tracer.as_deref_mut() {
            Some(tr) => {
                tr.span("serve.apply_delta", |_| engine.apply_delta(batch))
                    .0
            }
            None => engine.apply_delta(batch),
        };
        w.latency_ms
            .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        w.applied += 1;
        if let Err(e) = result {
            w.failed += 1;
            w.first_error.get_or_insert(e.to_string());
        }
        if (k + 1) % REFIT_EVERY == 0 {
            let (_, t) = match tracer.as_deref_mut() {
                Some(tr) => tr.span("serve.refit", |_| engine.refit()),
                None => {
                    let (s, t) = timed(|| engine.refit());
                    (s, t * 1e3)
                }
            };
            w.refit_ms.push(t);
        }
    }
    w
}

/// Checks the engine's final state against the fact table the benchmark
/// expects (the imported rows plus the stream's surviving inserts):
/// the engine's fact rows, its totals against sums over the expected
/// table, its count against what the generator tracked, and its refit θ
/// against the benchmark's descent over its own moments.
fn check_final(
    out: &mut Outcome,
    engine: &ServeEngine,
    initial: &StarDb,
    features: &[&str],
    plan: &Schedule,
    (inserted, deleted): (usize, usize),
) {
    let snap = engine.refit();
    let mut rows = reference::rows(&initial.fact);
    rows.extend(plan.survivors.iter().cloned());
    out.check(check::same_rows(&engine.db_snapshot().fact, &rows));
    let mut attrs = features.to_vec();
    attrs.push(LABEL);
    let j = reference::join(&reference::with_fact_rows(initial, &rows), &attrs);
    out.check(check::aggregates(engine.batch(), &snap.totals, &j, 1e-6));
    let count = engine.batch().index_of("count").expect("count aggregate");
    out.check(check::count(
        snap.totals[count],
        initial.fact_rows(),
        inserted,
        deleted,
    ));
    let cfg = config();
    let (b, w) = reference::standardized_bgd(
        &RefMoments::of(&j, features, LABEL),
        cfg.learning_rate,
        cfg.iterations,
    );
    let want: Vec<f64> = std::iter::once(b).chain(w).collect();
    let got: Vec<f64> = std::iter::once(snap.linear.intercept)
        .chain(snap.linear.weights.iter().copied())
        .collect();
    out.check(check::params("refit θ", &got, &want, 1e-6));
}

fn record(out: &mut Outcome, w: &Writes, r: &Reads) {
    out.attempted += w.applied + w.refit_ms.len() as u64 + r.calls;
    out.failed += w.failed;
    if let Some(e) = &w.first_error {
        out.check(Err(format!("apply_delta: {e}")));
    }
    if let Some(e) = &r.first_error {
        out.check(Err(format!("{} of {} reads: {e}", r.inconsistent, r.calls)));
    }
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let db = StarDb::import_dir(&ctx.star()).map_err(|e| format!("import: {e}"))?;
    let import_s = ctx.since_start();
    let features = data::features(&db, &[LABEL]);
    let feats: Vec<&str> = features.iter().map(String::as_str).collect();
    let n = MIN_BATCHES.max((RATE_PER_S * ctx.seconds).ceil() as usize);
    let plan = schedule(&db, ctx.seed, n);
    let vectors = data::sample_rows(&db, &feats, ctx.seed);
    let resident = db.clone();
    let (engine, build_s) = timed(|| ServeEngine::new(resident, &feats, LABEL, config()));
    if let Some(tracer) = ctx.tracer.take() {
        return traced(ctx, tracer, &engine, &db, &feats, build_s, &plan, &vectors);
    }

    let mut out = Outcome::default();
    // The reader runs on the writer's thread, in the time until each
    // batch is due, after a plan of the covar batch when that time allows.
    let mut reads = Reads::new(&engine, false);
    let mut reading_s = 0.0;
    let mut compiles = Vec::new();
    let mut compile_error = None;
    let w = stream(&engine, &plan.batches, None, |due| {
        if due.saturating_duration_since(Instant::now()) >= Duration::from_millis(20) {
            let (plan, t) = timed(|| compile(&db, &feats));
            compiles.push(t);
            if let Err(e) = plan {
                compile_error.get_or_insert(e);
            }
        }
        let t = Instant::now();
        while Instant::now() < due {
            reads.read(&engine, &vectors);
        }
        reading_s += t.elapsed().as_secs_f64();
    });
    if let Some(e) = compile_error {
        return Err(e);
    }
    let rss = sys::peak_rss_mib().ok_or("peak RSS unavailable")?;
    record(&mut out, &w, &reads);
    out.attempted += compiles.len() as u64;
    let refit_ms = median(&w.refit_ms).expect("refits ran");
    out.set("setup_s", import_s + build_s);
    out.set(
        "compile_s",
        median(&compiles).ok_or("the writer never idled")?,
    );
    out.set("train_s", refit_ms / 1e3);
    out.set(
        "delta_p50_ms",
        quantile(&w.latency_ms, 0.5).expect("batches ran"),
    );
    out.set("refit_ms", refit_ms);
    out.set("reads_per_s", reads.calls as f64 / reading_s);
    out.set("peak_rss_mib", rss);
    let tracked = (plan.inserted, plan.deleted);
    check_final(&mut out, &engine, &db, &feats, &plan, tracked);
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn traced(
    ctx: &mut Ctx,
    mut tr: Tracer,
    engine: &ServeEngine,
    db: &StarDb,
    feats: &[&str],
    build_s: f64,
    plan: &Schedule,
    vectors: &ifaq_engine::TrainMatrix,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.set("serve.build_ms", build_s * 1e3);
    // Uncontended reads.
    let mut snaps = Vec::with_capacity(2_000);
    for _ in 0..2_000 {
        let (_, t) = timed(|| engine.snapshot());
        snaps.push(t * 1e6);
    }
    out.attempted += snaps.len() as u64;
    out.set("serve.snapshot_us", median(&snaps).expect("snapshots ran"));
    // The open-loop stream, beside a closed-loop reader thread, so that
    // reads wait on the writer's lock.
    let stop = AtomicBool::new(false);
    let (w, r) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut r = Reads::new(engine, true);
            while !stop.load(Ordering::SeqCst) {
                r.read(engine, vectors);
            }
            r
        });
        let w = stream(engine, &plan.batches, Some(&mut tr), |due| {
            std::thread::sleep(due.saturating_duration_since(Instant::now()))
        });
        stop.store(true, Ordering::SeqCst);
        (w, reader.join().expect("reader thread"))
    });
    record(&mut out, &w, &r);
    set_median(&mut out, &tr, "serve.refit", "serve.refit_ms");
    out.set(
        "serve.read_wait_p99_us",
        quantile(&r.waits_us, 0.99).ok_or("no reads sampled")?,
    );
    out.set(
        "serve.generator_lag_ms",
        w.lag_ms.iter().copied().fold(0.0, f64::max),
    );
    // Insert-only and delete-only batches, which net to nothing, and the
    // Δ-scan alone.
    let covar = compile(db, feats)?;
    let cache = PrepCache::new();
    let mut rng = Rng::new(ctx.seed ^ 0x5eed);
    let (mut ins, mut del) = (0, 0);
    for _ in 0..TRACED_PAIRS {
        let rows = fresh_rows(db, &mut rng, INSERTS_PER_BATCH);
        let insert = DeltaBatch::from_inserts(rows.iter().cloned());
        let mut delete = DeltaBatch::new();
        for r in &rows {
            delete = delete.delete(r.clone());
        }
        let (a, _) = tr.span("serve.insert_delta", |_| engine.apply_delta(&insert));
        let (b, _) = tr.span("serve.delete_delta", |_| engine.apply_delta(&delete));
        for result in [a, b] {
            out.attempted += 1;
            if let Err(e) = result {
                out.failed += 1;
                out.check(Err(format!("apply_delta: {e}")));
            }
        }
        ins += rows.len();
        del += rows.len();
        let delta_db = reference::with_fact_rows(db, &rows);
        tr.span("engine.delta_scan", |_| {
            let prep = layout::prepare_cached(config().layout, &covar, &delta_db, &cache);
            layout::execute_with(config().layout, &covar, &delta_db, &prep, &config().exec)
        });
        out.attempted += 1;
    }
    for (span, metric) in [
        ("serve.insert_delta", "serve.insert_delta_ms"),
        ("serve.delete_delta", "serve.delete_delta_ms"),
        ("engine.delta_scan", "engine.delta_scan_ms"),
    ] {
        set_median(&mut out, &tr, span, metric);
    }
    let (hits, misses) = engine.prep_cache_stats();
    out.set(
        "serve.prep_cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.set("trace.overhead_pct", tr.overhead_pct());
    let tracked = (plan.inserted + ins, plan.deleted + del);
    check_final(&mut out, engine, db, feats, plan, tracked);
    ctx.tracer = Some(tr);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_keeps_the_fact_size_steady_and_deletes_what_it_inserted() {
        let db = ifaq_datagen::retailer(2_000, 3).db;
        let plan = schedule(&db, 9, 4);
        assert_eq!(plan.inserted, 4 * INSERTS_PER_BATCH);
        assert_eq!(plan.deleted, 3 * INSERTS_PER_BATCH);
        assert_eq!(plan.batches[0].len(), INSERTS_PER_BATCH);
        assert_eq!(plan.batches[1].len(), 2 * INSERTS_PER_BATCH);
        assert_eq!(plan.survivors.len(), INSERTS_PER_BATCH);
        assert_eq!(plan, schedule(&db, 9, 4));
        let engine = ServeEngine::new(db.clone(), &["l1", "i1"], LABEL, config());
        for b in &plan.batches {
            engine
                .apply_delta(b)
                .expect("every delete names a stored row");
        }
        let mut rows = reference::rows(&db.fact);
        rows.extend(plan.survivors.iter().cloned());
        assert_eq!(check::same_rows(&engine.db_snapshot().fact, &rows), Ok(()));
    }
}
