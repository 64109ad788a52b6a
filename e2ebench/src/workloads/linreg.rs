//! `retailer-linreg`: the §3 linear-regression program over every
//! retailer feature, from source text to fitted θ.
//!
//! Untraced, a run imports the export, compiles the program
//! (`parse_program` + `Pipeline::compile`), plans and prepares the batch
//! under the cost model's layout, and then repeats rounds of
//! {compile, `execute_prepared`, read burst} on one thread. Without
//! incremental maintenance, absorbing a change to the data means running
//! the prepared program again, so its samples are the `delta_*` samples
//! too. Traced, each round replays the same work stage by stage.

use super::{exec_config, reads_per_second, set_median, timed, Ctx, READ_BURST};
use crate::check;
use crate::data;
use crate::reference::{self, RefMoments};
use crate::report::Outcome;
use crate::stats::median;
use crate::sys;
use crate::trace::Tracer;
use ifaq::pipeline::query_type;
use ifaq::pipeline::PreparedBatch;
use ifaq::{CompileOptions, Compiled, Pipeline};
use ifaq_engine::interp::{Env, Interpreter};
use ifaq_engine::{layout, ExecConfig, StarDb};
use ifaq_ir::types::TypeEnv;
use ifaq_ir::verify::{program_free_vars, Verifier, VerifyLevel};
use ifaq_ir::{Catalog, Expr, Program, ScalarType, Sym, Type, TypeChecker};
use ifaq_query::analysis;
use ifaq_query::{extract_aggregates, AggBatch, Extraction, JoinTree, ViewPlan};
use ifaq_storage::Value;
use std::collections::BTreeSet;
use std::time::Instant;

/// The label attribute.
pub const LABEL: &str = "inventoryunits";
/// BGD iterations of the program's loop.
pub const ITERATIONS: usize = 20;
/// Learning rate times the row count: the program's step is `STEP / N`.
pub const STEP: f64 = 5e-4;

/// Source text of the §3 program: batch gradient descent on least
/// squares over `Q`, `iterations` steps of size `alpha`, from θ = 0.
pub fn program_source(features: &[&str], label: &str, alpha: f64, iterations: usize) -> String {
    let set = features
        .iter()
        .map(|f| format!("`{f}`"))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "let Q = Q;\n\
         theta := dict(f in [|{set}|]) 0.0;\n\
         while (_iter < {iterations}) {{\n  \
         theta := dict(f1 in [|{set}|]) theta(f1) - {alpha} * (sum(x in dom(Q)) Q(x) * \
         ((sum(f2 in [|{set}|]) theta(f2) * x[f2]) - x[`{label}`]) * x[f1])\n\
         }}\n\
         theta"
    )
}

/// θ in feature order from the program's result record.
pub fn theta_of(v: &Value, features: &[&str]) -> Result<Vec<f64>, String> {
    let Value::Record(fields) = v else {
        return Err(format!("program returned {v}, not a parameter record"));
    };
    features
        .iter()
        .map(|f| {
            fields
                .iter()
                .find(|(n, _)| n.as_str() == *f)
                .and_then(|(_, v)| v.as_f64())
                .ok_or_else(|| format!("θ has no real entry for `{f}`"))
        })
        .collect()
}

fn catalog(db: &StarDb) -> Catalog {
    db.catalog().with_var_size("Q", db.fact_rows() as u64)
}

fn compile(db: &StarDb, src: &str) -> Result<Compiled, String> {
    let program = ifaq_ir::parser::parse_program(src).map_err(|e| e.to_string())?;
    Pipeline::new(catalog(db))
        .compile(&program, &CompileOptions::for_star_db(db))
        .map_err(|e| e.to_string())
}

fn prepare(compiled: &Compiled, db: &StarDb) -> Result<PreparedBatch, String> {
    let analysis = compiled
        .analyze(db)
        .map_err(|e| e.to_string())?
        .ok_or("the program extracted no aggregates")?;
    compiled
        .prepare(db, analysis.chosen)
        .map_err(|e| e.to_string())
}

/// Checks the batch results and θ against the benchmark's own sums and
/// recurrence over the join.
fn check_outputs(
    out: &mut Outcome,
    db: &StarDb,
    batch: &AggBatch,
    results: &[f64],
    theta: &[f64],
    features: &[&str],
) {
    let mut attrs = features.to_vec();
    attrs.push(LABEL);
    let j = reference::join(db, &attrs);
    out.check(check::aggregates(batch, results, &j, 1e-9));
    let alpha = STEP / db.fact_rows() as f64;
    let want = reference::raw_bgd(&RefMoments::of(&j, features, LABEL), alpha, ITERATIONS);
    out.check(check::params("θ", theta, &want, 1e-6));
    out.check(check::descends(&j, features, LABEL, theta));
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let db = StarDb::import_dir(&ctx.star()).map_err(|e| format!("import: {e}"))?;
    let features = data::features(&db, &[LABEL]);
    let feats: Vec<&str> = features.iter().map(String::as_str).collect();
    let alpha = STEP / db.fact_rows() as f64;
    let src = program_source(&feats, LABEL, alpha, ITERATIONS);
    let cfg = exec_config();
    if let Some(tracer) = ctx.tracer.take() {
        return traced(ctx, tracer, &src, &feats, &cfg);
    }
    let compiled = compile(&db, &src)?;
    let prepared = prepare(&compiled, &db)?;
    // Set-up is everything before the first training: the import, the
    // first (cold) compile, analysis and preparation.
    let setup_s = ctx.since_start();
    eprintln!("layout: {:?}", prepared.layout());

    let vectors = data::sample_rows(&db, &feats, ctx.seed);
    let mut out = Outcome::default();
    let (mut compiles, mut trains, mut reads) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<Vec<f64>> = None;
    let start = Instant::now();
    while compiles.is_empty() || !ctx.window_over(start) {
        let (c, t) = timed(|| compile(&db, &src));
        compiles.push(t);
        out.attempted += 1;
        match c {
            Ok(c) if c.batch == compiled.batch => {}
            Ok(_) => out.check(Err("recompiling gave a different batch".into())),
            Err(e) => {
                out.failed += 1;
                out.check(Err(format!("compile: {e}")));
            }
        }
        let (v, t) = timed(|| compiled.execute_prepared(&db, &prepared, &cfg));
        trains.push(t);
        out.attempted += 1;
        let theta = match v
            .map_err(|e| e.to_string())
            .and_then(|v| theta_of(&v, &feats))
        {
            Ok(theta) => theta,
            Err(e) => {
                out.failed += 1;
                out.check(Err(format!("execute: {e}")));
                continue;
            }
        };
        let model = ifaq_ml::LinearModel {
            features: features.clone(),
            intercept: 0.0,
            weights: theta.clone(),
        };
        let (rate, calls) = reads_per_second(READ_BURST, &vectors, |m, i| model.predict_row(m, i));
        reads.push(rate);
        out.attempted += calls;
        match &first {
            None => first = Some(theta),
            Some(t0) if *t0 != theta => {
                out.check(Err("repeated executions disagree bit for bit".into()))
            }
            Some(_) => {}
        }
    }
    let theta = first.ok_or("no round completed")?;
    let rss = sys::peak_rss_mib().ok_or("peak RSS unavailable")?;
    let results = compiled.run_batch_prepared(&db, &prepared, &cfg);

    let train_s = median(&trains).expect("rounds ran");
    out.set("setup_s", setup_s);
    out.set("compile_s", median(&compiles).expect("rounds ran"));
    out.set("train_s", train_s);
    out.set("delta_p50_ms", train_s * 1e3);
    out.set("refit_ms", train_s * 1e3);
    out.set("reads_per_s", median(&reads).expect("rounds ran"));
    out.set("peak_rss_mib", rss);
    check_outputs(&mut out, &db, &compiled.batch, &results, &theta, &feats);
    Ok(out)
}

/// Verifies a program the way `Pipeline::compile` does: every free
/// variable must be a relation, `Q`, a batch result, or free in the
/// input program.
fn verify(
    catalog: &Catalog,
    input: &Program,
    program: &Program,
    phase: &str,
    n_aggs: usize,
) -> Result<(), String> {
    let level = VerifyLevel::from_env();
    if !level.enabled() {
        return Ok(());
    }
    let mut globals: BTreeSet<Sym> = catalog.relations().map(|r| r.name.clone()).collect();
    globals.insert(Sym::new("Q"));
    globals.extend((0..n_aggs).map(Extraction::agg_var));
    globals.extend(program_free_vars(input));
    Verifier::new(phase, globals)
        .strict(level == VerifyLevel::Strict)
        .check_program(program)
        .map_err(|e| e.to_string())
}

fn scalar(t: ScalarType) -> Type {
    match t {
        ScalarType::Int => Type::Int,
        ScalarType::Real => Type::Real,
        ScalarType::Str => Type::Str,
        ScalarType::Bool => Type::Bool,
    }
}

/// The S-IFAQ type check `Pipeline::compile` runs on the specialized
/// program: relations and `Q` typed as dictionaries, then the bindings,
/// loop state, condition, step and result in order.
fn type_check(catalog: &Catalog, opts: &CompileOptions, p: &Program) -> Result<(), String> {
    let checker = TypeChecker::new();
    let err = |e: ifaq_ir::TypeError| e.to_string();
    let mut env = TypeEnv::new();
    for rel in catalog.relations() {
        let fields: Vec<(Sym, Type)> = rel
            .attrs
            .iter()
            .map(|a| (a.name.clone(), scalar(a.ty)))
            .collect();
        env.insert(
            rel.name.clone(),
            Type::dict(Type::record(fields), Type::Int),
        );
    }
    env.insert(opts.q_var.clone(), query_type(&opts.q_attrs));
    for (name, e) in &p.lets {
        let t = checker.infer(&env, e).map_err(err)?;
        env.insert(name.clone(), t);
    }
    let init = checker.infer(&env, &p.init).map_err(err)?;
    env.insert(p.var.clone(), init.clone());
    env.insert(Sym::new("_iter"), Type::Int);
    env.insert(Sym::new("_prev"), init.clone());
    if checker.infer(&env, &p.cond).map_err(err)? != Type::Bool {
        return Err("loop condition is not boolean".into());
    }
    if checker.infer(&env, &p.step).map_err(err)? != init {
        return Err("loop step changes the state's type".into());
    }
    checker.infer(&env, &p.result).map_err(err)?;
    Ok(())
}

/// §4.3 extraction over every expression of the program, merging each
/// expression's aggregates into one batch (an aggregate already in the
/// batch keeps its variable), as `Pipeline::compile` does.
fn extract(p: &Program, q: &Sym) -> (Program, AggBatch) {
    let mut batch = AggBatch::new();
    let sorted = |f: &[Sym]| {
        let mut f = f.to_vec();
        f.sort();
        f
    };
    let residual = p.map_exprs(|e| {
        let local = extract_aggregates(e, q);
        let mut out = local.residual;
        let targets: Vec<Sym> = local
            .batch
            .aggs
            .iter()
            .map(|agg| {
                let factors = sorted(&agg.factors);
                let i = batch
                    .aggs
                    .iter()
                    .position(|a| a.filter.is_empty() && sorted(&a.factors) == factors)
                    .unwrap_or_else(|| {
                        let mut renamed = agg.clone();
                        renamed.name = format!("__agg{}", batch.len());
                        batch.aggs.push(renamed);
                        batch.len() - 1
                    });
                Extraction::agg_var(i)
            })
            .collect();
        // Rename through temporaries so a swap cannot collide.
        for i in 0..targets.len() {
            let tmp = Expr::Var(Sym::new(format!("__stage{i}")));
            out = ifaq_ir::vars::subst(&out, &Extraction::agg_var(i), &tmp);
        }
        for (i, t) in targets.iter().enumerate() {
            let tmp = Sym::new(format!("__stage{i}"));
            out = ifaq_ir::vars::subst(&out, &tmp, &Expr::Var(t.clone()));
        }
        out
    });
    (residual, batch)
}

/// One staged replay of the workload: every call is a layer's public
/// entry point inside its own span.
fn replay_round(
    tr: &mut Tracer,
    ctx: &Ctx,
    src: &str,
    feats: &[&str],
    cfg: &ExecConfig,
) -> Result<(Compiled, AggBatch, Vec<f64>, Value), String> {
    let (db, _) = tr.span("storage.import", |_| StarDb::import_dir(&ctx.star()));
    let db = db.map_err(|e| format!("import: {e}"))?;
    let cat = catalog(&db);
    let opts = CompileOptions::for_star_db(&db);
    let (program, _) = tr.span("ir.parse", |_| ifaq_ir::parser::parse_program(src));
    let program = program.map_err(|e| e.to_string())?;
    let ((high, report), _) = tr.span("transform.optimize", |_| {
        ifaq_transform::highlevel::optimize_program(&program, &cat)
    });
    tr.count(report.total_firings() as f64);
    let ((specialized, _), _) = tr.span("transform.specialize", |_| {
        ifaq_transform::specialize::specialize_program(&high)
    });
    let (typed, _) = tr.span("ir.verify_typecheck", |_| {
        verify(&cat, &program, &specialized, "specialize", 0)
            .and_then(|()| type_check(&cat, &opts, &specialized))
    });
    typed?;
    let ((_, staged), _) = tr.span("query.extract", |_| extract(&specialized, &opts.q_var));
    let (compiled, _) = tr.span("core.compile", |_| {
        Pipeline::new(cat.clone()).compile(&program, &opts)
    });
    let compiled = compiled.map_err(|e| e.to_string())?;
    let (planned, _) = tr.span("query.plan", |_| {
        let dims: Vec<&str> = db.dims.iter().map(|d| d.rel.name.as_str()).collect();
        JoinTree::build_with_root(&cat, db.fact.name.as_str(), &dims)
            .map_err(|e| e.to_string())
            .and_then(|tree| ViewPlan::plan(&staged, &tree, &cat).map_err(|e| e.to_string()))
    });
    let plan = planned?;
    let (chosen, _) = tr.span("query.analyze", |_| {
        analysis::analyze(&cat, &plan, &staged).chosen
    });
    let (prep, _) = tr.span("engine.prepare", |_| layout::prepare(chosen, &plan, &db));
    let (results, _) = tr.span("engine.execute", |_| {
        layout::execute_with(chosen, &plan, &db, &prep, cfg)
    });
    let (theta, _) = tr.span("interp.loop", |_| {
        let mut env = Env::new();
        for (i, v) in results.iter().enumerate() {
            env.insert(Extraction::agg_var(i), Value::real(*v));
        }
        Interpreter::with_max_iterations(1_000_000).run(&env, &compiled.program)
    });
    let theta = theta.map_err(|e| e.to_string())?;
    let (emitted, _) = tr.span("codegen.emit", |_| {
        let workload = ifaq_codegen::Workload::Linreg {
            features: feats.iter().map(|f| f.to_string()).collect(),
            label: LABEL.to_string(),
            alpha: STEP / db.fact_rows() as f64,
            iterations: ITERATIONS,
        };
        ifaq_codegen::emit_program(&plan, &staged, &workload, &cat)
    });
    tr.count(emitted.source.len() as f64);
    Ok((compiled, staged, results, theta))
}

fn traced(
    ctx: &mut Ctx,
    mut tr: Tracer,
    src: &str,
    feats: &[&str],
    cfg: &ExecConfig,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let db = StarDb::import_dir(&ctx.star()).map_err(|e| format!("import: {e}"))?;
    let mut other = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while last.is_none() || !ctx.window_over(start) {
        let round = tr.open("round");
        let replay = replay_round(&mut tr, ctx, src, feats, cfg);
        tr.close(round);
        out.attempted += 1;
        let (compiled, staged, results, theta) = replay?;
        if staged != compiled.batch {
            out.check(Err(
                "the staged replay extracted a different batch than Pipeline::compile".into(),
            ));
        }
        let span = |name: &str| tr.durations(name).last().copied().unwrap_or(0.0);
        let stages = [
            "transform.optimize",
            "transform.specialize",
            "ir.verify_typecheck",
            "query.extract",
        ];
        other.push(span("core.compile") - stages.iter().map(|s| span(s)).sum::<f64>());
        last = Some((compiled, results, theta));
    }
    for (span, metric) in [
        ("storage.import", "storage.import_ms"),
        ("ir.parse", "ir.parse_ms"),
        ("transform.optimize", "transform.optimize_ms"),
        ("transform.specialize", "transform.specialize_ms"),
        ("ir.verify_typecheck", "ir.verify_typecheck_ms"),
        ("query.extract", "query.extract_ms"),
        ("query.plan", "query.plan_ms"),
        ("query.analyze", "query.analyze_ms"),
        ("engine.prepare", "engine.prepare_ms"),
        ("engine.execute", "engine.execute_ms"),
        ("interp.loop", "interp.loop_ms"),
        ("codegen.emit", "codegen.emit_ms"),
    ] {
        set_median(&mut out, &tr, span, metric);
    }
    let (compiled, results, theta) = last.expect("a round ran");
    let exec_ms = median(&tr.durations("engine.execute")).expect("a round ran");
    let loop_ms = median(&tr.durations("interp.loop")).expect("a round ran");
    out.set(
        "core.compile_other_ms",
        median(&other).expect("a round ran"),
    );
    out.set("interp.iteration_ms", loop_ms / ITERATIONS as f64);
    out.set("query.batch_aggregates", compiled.batch.len() as f64);
    for (span, metric) in [
        ("transform.optimize", "transform.rule_firings"),
        ("codegen.emit", "codegen.source_bytes"),
    ] {
        out.set(metric, tr.last_count(span).expect("counted every round"));
    }
    out.set("engine.rows_per_s", db.fact_rows() as f64 / (exec_ms / 1e3));
    out.set("par.chunks", cfg.num_chunks(db.fact_rows()) as f64);
    out.set("trace.overhead_pct", tr.overhead_pct());
    let theta = theta_of(&theta, feats)?;
    check_outputs(&mut out, &db, &compiled.batch, &results, &theta, feats);
    generated_unit(&mut out, ctx, &db, &compiled, feats, &theta)?;
    ctx.tracer = Some(tr);
    Ok(out)
}

/// Reference figures for the C++ backend, when a compiler is present:
/// the unit `ifaq_codegen` emits for the engine's own plan, compiled and
/// run on the same export. Its θ must match the engine's.
fn generated_unit(
    out: &mut Outcome,
    ctx: &Ctx,
    db: &StarDb,
    compiled: &Compiled,
    feats: &[&str],
    theta: &[f64],
) -> Result<(), String> {
    let Some(cxx) = ifaq_codegen::harness::find_cxx() else {
        eprintln!("no C++ compiler found; skipping the generated unit's reference figures");
        return Ok(());
    };
    let prepared = prepare(compiled, db)?;
    let plan = prepared.plan().ok_or("no plan to emit")?;
    let workload = ifaq_codegen::Workload::Linreg {
        features: feats.iter().map(|f| f.to_string()).collect(),
        label: LABEL.to_string(),
        alpha: STEP / db.fact_rows() as f64,
        iterations: ITERATIONS,
    };
    let program = ifaq_codegen::emit_program(plan, &compiled.batch, &workload, &db.catalog());
    let dir = ctx.data.join("cxx");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let bin = ifaq_codegen::harness::compile(&program, &dir, &cxx).map_err(|e| e.to_string())?;
    let run = ifaq_codegen::harness::run(&bin, &ctx.star()).map_err(|e| e.to_string())?;
    out.note("cxx.compile_s", bin.compile_time.as_secs_f64());
    out.note("cxx.load_s", run.load_time.as_secs_f64());
    out.note("cxx.train_s", run.train_time.as_secs_f64());
    let got: Vec<f64> = feats
        .iter()
        .map(|f| {
            run.theta
                .iter()
                .find(|(n, _)| n == f)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("generated unit printed no θ for `{f}`"))
        })
        .collect::<Result<_, _>>()?;
    out.check(check::params("generated θ", &got, theta, 1e-6));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifaq_transform::highlevel::linear_regression_program;

    #[test]
    fn source_text_is_the_section_3_program() {
        for alpha in [5e-9, 0.25, 1e-6] {
            let src = program_source(&["a", "b"], "y", alpha, 20);
            let parsed = ifaq_ir::parser::parse_program(&src).unwrap();
            let built = linear_regression_program(&["a", "b"], "y", Expr::var("Q"), alpha, 20);
            assert_eq!(parsed, built, "{src}");
        }
    }

    #[test]
    fn staged_extraction_matches_the_pipeline() {
        let db = ifaq_engine::star::running_example_star();
        let src = program_source(&["city", "price"], "units", 1e-6, 3);
        let compiled = compile(&db, &src).unwrap();
        let program = ifaq_ir::parser::parse_program(&src).unwrap();
        let cat = catalog(&db);
        let (high, _) = ifaq_transform::highlevel::optimize_program(&program, &cat);
        let (specialized, _) = ifaq_transform::specialize::specialize_program(&high);
        let opts = CompileOptions::for_star_db(&db);
        verify(&cat, &program, &specialized, "specialize", 0).unwrap();
        type_check(&cat, &opts, &specialized).unwrap();
        let (_, batch) = extract(&specialized, &opts.q_var);
        assert_eq!(batch, compiled.batch);
        assert!(!batch.is_empty());
    }
}
