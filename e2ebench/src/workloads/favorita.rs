//! The model `favorita-stream` trains: the binarized label, the
//! hyperparameters, the gradient batch's plan and layout, and the checks
//! on the fitted model.

use crate::check;
use crate::reference;
use crate::report::Outcome;
use ifaq_engine::{Layout, StarDb, StreamSource};
use ifaq_ir::{Attribute, Catalog, ScalarType};
use ifaq_ml::logreg::{self, LogisticModel, SIGMA_COL};
use ifaq_query::batch::logistic_gradient_batch;
use ifaq_query::{analysis, JoinTree, ViewPlan};
use ifaq_storage::Column;

/// The 0/1 label: `unit_sales` above its median.
pub const LABEL: &str = "unit_sales_hi";
/// The continuous label the binary one was derived from (not a feature).
pub const RAW_LABEL: &str = "unit_sales";
/// Plans of the gradient batch timed per round (the `compile_s`
/// samples); planning takes milliseconds, so one round times several.
pub const COMPILES_PER_ROUND: usize = 10;
/// Gradient-descent step on the standardized log-loss.
pub const LEARNING_RATE: f64 = 0.5;
/// Iterations of a fit from θ = 0. Two keep a streamed fit near one
/// second, so that a 35 s run times some 30 fits.
pub const ITERATIONS: usize = 2;

/// The model's features.
pub fn features(db: &StarDb) -> Vec<String> {
    crate::data::features(db, &[RAW_LABEL, LABEL])
}

/// `cat` with the per-iteration `__sigma` column added to the fact
/// relation: the schema the trainers plan their gradient batch over.
pub fn with_sigma(mut cat: Catalog, fact: &str) -> Catalog {
    let mut rel = cat.relation(fact).cloned().expect("fact relation");
    let rows = rel.cardinality.max(1);
    rel.attrs
        .push(Attribute::new(SIGMA_COL, ScalarType::Real, rows));
    cat.add_relation(rel);
    cat
}

/// The statistics of a streamed fact table, which is never loaded: the
/// header's row count, each join key ranging over its dimension's rows
/// and each real column over the rows.
pub fn stream_catalog(src: &StreamSource) -> Catalog {
    let schema = src.schema_db();
    let mut cat = schema.catalog();
    let mut rel = cat
        .relation(schema.fact.name.as_str())
        .cloned()
        .expect("fact");
    let rows = src.fact_rows() as u64;
    rel.cardinality = rows;
    for a in &mut rel.attrs {
        let dim_rows = schema
            .dims
            .iter()
            .find(|d| d.key == a.name)
            .map(|d| d.rel.len() as u64);
        a.distinct = dim_rows.unwrap_or(rows).min(rows).max(1);
    }
    cat.add_relation(rel);
    cat
}

/// Compiles the per-iteration gradient batch: join tree, view plan and
/// the cost model's layout, over the σ-augmented catalog.
pub fn plan_gradient(
    cat: &Catalog,
    db: &StarDb,
    features: &[&str],
) -> Result<(ViewPlan, Layout), String> {
    let cat = with_sigma(cat.clone(), db.fact.name.as_str());
    let batch = logistic_gradient_batch(features, SIGMA_COL);
    let dims: Vec<&str> = db.dims.iter().map(|d| d.rel.name.as_str()).collect();
    let tree =
        JoinTree::build_with_root(&cat, db.fact.name.as_str(), &dims).map_err(|e| e.to_string())?;
    let plan = ViewPlan::plan(&batch, &tree, &cat).map_err(|e| e.to_string())?;
    let report = analysis::analyze(&cat, &plan, &batch);
    if report.has_errors() {
        return Err(format!("gradient plan: {:?}", report.errors()));
    }
    Ok((plan, report.chosen))
}

/// `db` with a zero `__sigma` fact column, as the resident trainer
/// builds it.
pub fn augment(db: &StarDb) -> StarDb {
    let mut fact = db.fact.clone();
    fact.attrs.push(SIGMA_COL.into());
    fact.columns.push(Column::F64(vec![0.0; db.fact.len()]));
    StarDb::new(fact, db.dims.clone())
}

/// Model parameters as one vector: intercept, then weights.
pub fn params(m: &LogisticModel) -> Vec<f64> {
    std::iter::once(m.intercept)
        .chain(m.weights.iter().copied())
        .collect()
}

/// Checks a fitted model against `logreg::fit_materialized` on the
/// benchmark's own join, and its training log-loss against ln 2.
pub fn check_model(out: &mut Outcome, db: &StarDb, features: &[&str], model: &LogisticModel) {
    let mut attrs = features.to_vec();
    attrs.push(LABEL);
    let j = reference::join(db, &attrs);
    let want = logreg::fit_materialized(&j.to_matrix(), features, LABEL, LEARNING_RATE, ITERATIONS);
    out.check(check::params("θ", &params(model), &params(&want), 1e-6));
    out.check(check::log_loss_below_ln2(
        &j,
        features,
        LABEL,
        model.intercept,
        &model.weights,
    ));
}
