//! `favorita-stream`: factorized logistic regression trained out of core
//! with `logreg::fit_streamed` — one compute thread plus the reader
//! thread, the fact table never resident in the measuring process until
//! its outputs are checked.
//!
//! Untraced, a run opens the export with `StreamSource::open_dir`, plans
//! the gradient batch from the header's statistics and then repeats
//! rounds of {plan, `fit_streamed`, read burst}; a change to the data
//! means fitting again, so the fits are the `delta_*` samples too.
//! Traced, each round times the storage reader alone, `fit_streamed`,
//! its streamed covar pass on its own and the fit's gradient passes over
//! the resident table at the same configuration.

use super::favorita::{self, COMPILES_PER_ROUND, ITERATIONS, LABEL, LEARNING_RATE};
use super::{exec_config, reads_per_second, set_median, timed, Ctx, READ_BURST};
use crate::check;
use crate::data;
use crate::reference;
use crate::report::Outcome;
use crate::stats::median;
use crate::sys;
use crate::trace::Tracer;
use ifaq_engine::stream::{
    execute_streaming, peak_live_chunks_ever, plan_fact_columns, prepare_streaming, READER_DEPTH,
};
use ifaq_engine::{layout, stable_sigmoid, ExecConfig, Layout, StarDb, StreamSource};
use ifaq_ml::linreg::moments_factorized_cfg;
use ifaq_ml::logreg::{fact_scores_prepared, fit_streamed, prepare_scores, LogisticModel};
use ifaq_query::batch::covar_batch;
use ifaq_query::{JoinTree, ViewPlan};
use ifaq_storage::stream::ChunkedReader;
use ifaq_storage::Column;
use std::time::Instant;

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let src = StreamSource::open_dir(&ctx.star()).map_err(|e| format!("open: {e}"))?;
    let features = favorita::features(src.schema_db());
    let feats: Vec<&str> = features.iter().map(String::as_str).collect();
    let cfg = exec_config();
    let compile =
        || favorita::plan_gradient(&favorita::stream_catalog(&src), src.schema_db(), &feats);
    let (_, layout_choice) = compile()?;
    let setup_s = ctx.since_start();
    eprintln!("layout: {:?}", layout_choice);
    if let Some(tracer) = ctx.tracer.take() {
        return traced(ctx, tracer, &src, &feats, layout_choice, &cfg);
    }

    let mut out = Outcome::default();
    let (mut compiles, mut trains) = (Vec::new(), Vec::new());
    let vectors = sample_chunk(&src, &feats, ctx.seed)?;
    let mut reads = Vec::new();
    let mut first: Option<LogisticModel> = None;
    let start = Instant::now();
    while trains.is_empty() || !ctx.window_over(start) {
        for _ in 0..COMPILES_PER_ROUND {
            let (c, t) = timed(compile);
            compiles.push(t);
            out.attempted += 1;
            if c?.1 != layout_choice {
                out.check(Err("re-planning chose a different layout".into()));
            }
        }
        let (model, t) = timed(|| {
            fit_streamed(
                &src,
                &feats,
                LABEL,
                layout_choice,
                LEARNING_RATE,
                ITERATIONS,
                &cfg,
            )
        });
        trains.push(t);
        out.attempted += 1;
        let model = match model {
            Ok(m) => m,
            Err(e) => {
                out.failed += 1;
                out.check(Err(format!("fit_streamed: {e}")));
                continue;
            }
        };
        let (rate, calls) =
            reads_per_second(READ_BURST, &vectors, |m, i| model.predict_proba_row(m, i));
        reads.push(rate);
        out.attempted += calls;
        match &first {
            None => first = Some(model),
            Some(m) if *m != model => out.check(Err("repeated fits disagree bit for bit".into())),
            Some(_) => {}
        }
    }
    let model = first.ok_or("no fit completed")?;
    let rss = sys::peak_rss_mib().ok_or("peak RSS unavailable")?;

    let train_s = median(&trains).ok_or("no fit completed")?;
    out.set("setup_s", setup_s);
    out.set("compile_s", median(&compiles).expect("rounds ran"));
    out.set("train_s", train_s);
    out.set("delta_p50_ms", train_s * 1e3);
    out.set("refit_ms", train_s * 1e3);
    out.set("reads_per_s", median(&reads).expect("rounds ran"));
    out.set("peak_rss_mib", rss);
    out.check(live_chunks_bounded());
    // Only now does the fact table enter memory: the reference needs it.
    let db = StarDb::import_dir(&ctx.star()).map_err(|e| format!("import: {e}"))?;
    favorita::check_model(&mut out, &db, &feats, &model);
    Ok(out)
}

/// Feature vectors of [`data::READ_VECTORS`] consecutive fact rows at a
/// seeded offset, read from the file without loading the rest.
fn sample_chunk(
    src: &StreamSource,
    feats: &[&str],
    seed: u64,
) -> Result<ifaq_engine::TrainMatrix, String> {
    let mut reader = ChunkedReader::open(src.fact_path()).map_err(|e| e.to_string())?;
    let meta = reader.meta().clone();
    let len = data::READ_VECTORS.min(meta.rows);
    let start = data::Rng::new(seed).below(meta.rows - len + 1);
    let all: Vec<usize> = (0..meta.columns.len()).collect();
    let chunk = reader
        .read_chunk(start, len, &all)
        .map_err(|e| e.to_string())?;
    let attrs = meta
        .columns
        .iter()
        .map(|c| c.name.as_str().into())
        .collect();
    let fact = ifaq_storage::ColRelation::new(meta.relation.as_str(), attrs, chunk.columns);
    Ok(data::rows_of(&src.schema_db().with_fact(fact), feats))
}

fn live_chunks_bounded() -> Result<(), String> {
    let peak = peak_live_chunks_ever();
    if peak <= READER_DEPTH + 2 {
        Ok(())
    } else {
        Err(format!(
            "{peak} chunks were alive at once; the reader bounds them at {}",
            READER_DEPTH + 2
        ))
    }
}

fn covar_plan(src: &StreamSource, feats: &[&str]) -> Result<ViewPlan, String> {
    let schema = src.schema_db();
    let cat = favorita::stream_catalog(src);
    let dims: Vec<&str> = schema.dims.iter().map(|d| d.rel.name.as_str()).collect();
    let tree = JoinTree::build_with_root(&cat, schema.fact.name.as_str(), &dims)
        .map_err(|e| e.to_string())?;
    ViewPlan::plan(&covar_batch(feats, LABEL), &tree, &cat).map_err(|e| e.to_string())
}

/// One replay of a resident `FactorizedTrainer` build plus a fit at the
/// same configuration as the stream: the covar pass, the gradient plan
/// and its preparation, the score pass's index join, then per iteration
/// the score pass and the gradient scan. The score pass uses the fitted
/// model's weights throughout; its work does not depend on their values.
fn resident_round(
    tr: &mut Tracer,
    ctx: &Ctx,
    feats: &[&str],
    layout_choice: Layout,
    cfg: &ExecConfig,
    model: &LogisticModel,
) -> Result<(), String> {
    let (db, _) = tr.span("storage.import", |_| StarDb::import_dir(&ctx.star()));
    let db = db.map_err(|e| format!("import: {e}"))?;
    tr.span("ml.covar_pass", |_| {
        moments_factorized_cfg(&db, feats, LABEL, layout_choice, cfg)
    });
    let (mut aug, _) = tr.span("ml.augment", |_| favorita::augment(&db));
    let (plan, _) = tr.span("query.plan", |_| {
        favorita::plan_gradient(&db.catalog(), &db, feats)
    });
    let (plan, _) = plan?;
    let (prep, _) = tr.span("engine.prepare", |_| {
        layout::prepare(layout_choice, &plan, &aug)
    });
    let (score_prep, _) = tr.span("ml.score_prep", |_| prepare_scores(&aug, feats));
    for _ in 0..ITERATIONS {
        tr.span("ml.score_pass", |_| {
            let scores = fact_scores_prepared(
                &aug,
                feats,
                &model.weights,
                model.intercept,
                &score_prep,
                cfg,
            );
            let sigma = aug.fact.columns.last_mut().expect("sigma column");
            *sigma = Column::F64(scores.into_iter().map(stable_sigmoid).collect());
        });
        tr.span("engine.execute", |_| {
            layout::execute_with(layout_choice, &plan, &aug, &prep, cfg)
        });
    }
    Ok(())
}

fn traced(
    ctx: &mut Ctx,
    mut tr: Tracer,
    src: &StreamSource,
    feats: &[&str],
    layout_choice: Layout,
    cfg: &ExecConfig,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let plan = covar_plan(src, feats)?;
    let columns: Vec<String> = plan_fact_columns(&plan)
        .iter()
        .map(|c| c.as_str().to_string())
        .collect();
    let names: Vec<&str> = columns.iter().map(String::as_str).collect();
    let (mut passes, mut overheads) = (Vec::new(), Vec::new());
    let mut chunks = 0;
    let mut last: Option<(LogisticModel, Vec<f64>)> = None;
    let start = Instant::now();
    while last.is_none() || !ctx.window_over(start) {
        let round = tr.open("round");
        let (reader, _) = tr.span("storage.open", |_| ChunkedReader::open(src.fact_path()));
        let mut reader = reader.map_err(|e| e.to_string())?;
        let (read, _) = tr.span("storage.read", |_| -> Result<usize, String> {
            let proj = reader.projection(&names).map_err(|e| e.to_string())?;
            let mut rows = 0;
            for chunk in reader.chunks(cfg.chunk_rows, proj) {
                rows += chunk.map_err(|e| e.to_string())?.rows;
            }
            Ok(rows)
        });
        if read? != src.fact_rows() {
            out.check(Err("the reader returned a different row count".into()));
        }
        // The fit `train_s` times, then its loop-invariant covar pass on
        // its own: the rest of the fit is its streamed gradient passes.
        let (model, fit_ms) = tr.span("ml.fit_streamed", |_| {
            fit_streamed(
                src,
                feats,
                LABEL,
                layout_choice,
                LEARNING_RATE,
                ITERATIONS,
                cfg,
            )
        });
        let model = model.map_err(|e| format!("fit_streamed: {e}"))?;
        let (streamed, covar_ms) = tr.span("stream.covar_pass", |_| {
            let prep = prepare_streaming(layout_choice, &plan, src.schema_db(), src.fact_rows());
            execute_streaming(&plan, src, &prep, cfg)
        });
        let (results, stats) = streamed.map_err(|e| e.to_string())?;
        let pass_ms = (fit_ms - covar_ms) / ITERATIONS as f64;
        passes.push(pass_ms);
        // The same gradient passes over the resident table, at the same
        // configuration.
        resident_round(&mut tr, ctx, feats, layout_choice, cfg, &model)?;
        let resident_ms = ["ml.score_pass", "engine.execute"]
            .iter()
            .map(|name| {
                let d = tr.durations(name);
                d[d.len() - ITERATIONS..].iter().sum::<f64>()
            })
            .sum::<f64>()
            / ITERATIONS as f64;
        overheads.push(pass_ms - resident_ms);
        tr.close(round);
        out.attempted += 5;
        chunks = stats.chunks;
        match &last {
            Some((m, _)) if *m != model => {
                out.check(Err("repeated fits disagree bit for bit".into()))
            }
            _ => {}
        }
        last = Some((model, results));
    }
    for (span, metric) in [
        ("storage.import", "storage.import_ms"),
        ("ml.covar_pass", "ml.covar_pass_ms"),
        ("query.plan", "query.plan_ms"),
        ("storage.open", "storage.open_ms"),
        ("storage.read", "storage.read_ms"),
        ("ml.score_pass", "ml.score_pass_ms"),
        ("engine.prepare", "engine.prepare_ms"),
        ("engine.execute", "engine.execute_ms"),
    ] {
        set_median(&mut out, &tr, span, metric);
    }
    out.set("stream.pass_ms", median(&passes).expect("a round ran"));
    out.set(
        "stream.overhead_ms",
        median(&overheads).expect("a round ran"),
    );
    out.set("stream.chunks", chunks as f64);
    out.set("stream.peak_live_chunks", peak_live_chunks_ever() as f64);
    let exec_ms = median(&tr.durations("engine.execute")).expect("a round ran");
    let rows = src.fact_rows();
    out.set("engine.rows_per_s", rows as f64 / (exec_ms / 1e3));
    out.set("par.chunks", cfg.num_chunks(rows) as f64);
    out.set("trace.overhead_pct", tr.overhead_pct());
    out.check(live_chunks_bounded());
    let (model, results) = last.expect("a round ran");
    let db = StarDb::import_dir(&ctx.star()).map_err(|e| format!("import: {e}"))?;
    favorita::check_model(&mut out, &db, feats, &model);
    let mut attrs = feats.to_vec();
    attrs.push(LABEL);
    let j = reference::join(&db, &attrs);
    out.check(check::aggregates(
        &covar_batch(feats, LABEL),
        &results,
        &j,
        1e-9,
    ));
    ctx.tracer = Some(tr);
    Ok(out)
}
