//! Correctness checks: each compares a program output with a value the
//! benchmark computed itself (see [`crate::reference`]) and explains the
//! first disagreement.

use crate::reference::{self, Joined};
use ifaq_query::AggBatch;
use ifaq_storage::ColRelation;

/// True when `a` and `b` agree to `tol` relative to the larger magnitude.
pub fn rel_close(a: f64, b: f64, tol: f64) -> bool {
    a == b || (a - b).abs() <= tol * a.abs().max(b.abs())
}

/// True when `a` and `b` agree to `tol`, relative above magnitude 1 and
/// absolute below it.
pub fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
}

/// Every aggregate of `batch` in `got` equals the benchmark's sum over
/// the join to a relative `tol`.
pub fn aggregates(batch: &AggBatch, got: &[f64], j: &Joined, tol: f64) -> Result<(), String> {
    if got.len() != batch.len() {
        return Err(format!(
            "batch has {} aggregates but {} results",
            batch.len(),
            got.len()
        ));
    }
    for (agg, &g) in batch.aggs.iter().zip(got) {
        if !agg.filter.is_empty() {
            return Err(format!(
                "aggregate {} has a filter the check does not model",
                agg.name
            ));
        }
        let factors: Vec<&str> = agg.factors.iter().map(|f| f.as_str()).collect();
        let want = reference::sum_product(j, &factors);
        if !rel_close(g, want, tol) {
            return Err(format!(
                "aggregate {} = Σ{:?} is {g}, the join gives {want}",
                agg.name, factors
            ));
        }
    }
    Ok(())
}

/// Two parameter vectors agree coordinate by coordinate to `tol` (see
/// [`close`]).
pub fn params(what: &str, got: &[f64], want: &[f64], tol: f64) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} parameters, expected {}",
            got.len(),
            want.len()
        ));
    }
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        if !close(g, w, tol) {
            return Err(format!("{what}: parameter {i} is {g}, expected {w}"));
        }
    }
    Ok(())
}

/// The least-squares objective at `theta` is below its value at θ = 0.
pub fn descends(j: &Joined, features: &[&str], label: &str, theta: &[f64]) -> Result<(), String> {
    let at_theta = reference::least_squares(j, features, label, theta);
    let at_zero = reference::least_squares(j, features, label, &vec![0.0; theta.len()]);
    if at_theta < at_zero {
        Ok(())
    } else {
        Err(format!(
            "least-squares objective {at_theta} at θ is not below {at_zero} at θ = 0"
        ))
    }
}

/// The logistic model's mean training log-loss is below ln 2, the loss
/// of θ = 0.
pub fn log_loss_below_ln2(
    j: &Joined,
    features: &[&str],
    label: &str,
    intercept: f64,
    weights: &[f64],
) -> Result<(), String> {
    let loss = reference::mean_log_loss(j, features, label, intercept, weights);
    if loss < std::f64::consts::LN_2 {
        Ok(())
    } else {
        Err(format!("training log-loss {loss} is not below ln 2"))
    }
}

/// A read snapshot is internally consistent: its maintained count equals
/// its fact row count.
pub fn snapshot(count: f64, fact_rows: usize) -> Result<(), String> {
    if count == fact_rows as f64 {
        Ok(())
    } else {
        Err(format!(
            "snapshot count aggregate {count} disagrees with its {fact_rows} fact rows"
        ))
    }
}

/// `got` holds exactly the rows of `want`, as a multiset, bit for bit.
pub fn same_rows(got: &ColRelation, want: &[Vec<f64>]) -> Result<(), String> {
    let bits = |r: &Vec<f64>| r.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    let mut g: Vec<Vec<u64>> = reference::rows(got).iter().map(bits).collect();
    let mut w: Vec<Vec<u64>> = want.iter().map(bits).collect();
    if g.len() != w.len() {
        return Err(format!(
            "fact table has {} rows, expected {}",
            g.len(),
            w.len()
        ));
    }
    g.sort_unstable();
    w.sort_unstable();
    match g.iter().zip(&w).find(|(a, b)| a != b) {
        None => Ok(()),
        Some((a, b)) => {
            let row = |r: &[u64]| r.iter().map(|&v| f64::from_bits(v)).collect::<Vec<f64>>();
            Err(format!(
                "fact table differs from the expected rows: holds {:?} where {:?} was expected",
                row(a),
                row(b)
            ))
        }
    }
}

/// The maintained count equals what the generator tracked.
pub fn count(got: f64, initial: usize, inserted: usize, deleted: usize) -> Result<(), String> {
    let want = (initial + inserted - deleted) as f64;
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "count aggregate {got}, expected {initial} + {inserted} inserted − {deleted} deleted"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{join, raw_bgd, RefMoments};
    use ifaq::{CompileOptions, Pipeline};
    use ifaq_engine::star::running_example_star;
    use ifaq_engine::{ExecConfig, Layout};
    use ifaq_ir::parser::parse_program;
    use ifaq_query::batch::covar_batch;
    use ifaq_storage::Value;

    const FEATURES: [&str; 2] = ["city", "price"];

    fn joined() -> Joined {
        join(&running_example_star(), &["city", "price", "units"])
    }

    fn engine_covar() -> (AggBatch, Vec<f64>) {
        let db = running_example_star();
        let batch = covar_batch(&FEATURES, "units");
        let cat = db.catalog();
        let tree = ifaq_query::JoinTree::build_with_root(&cat, "S", &["R", "I"]).unwrap();
        let plan = ifaq_query::ViewPlan::plan(&batch, &tree, &cat).unwrap();
        let prep = ifaq_engine::layout::prepare(Layout::MergedHash, &plan, &db);
        let got = ifaq_engine::layout::execute_with(
            Layout::MergedHash,
            &plan,
            &db,
            &prep,
            &ExecConfig::serial(),
        );
        (batch, got)
    }

    #[test]
    fn aggregate_check_accepts_the_engine_and_rejects_a_perturbed_aggregate() {
        let (batch, mut got) = engine_covar();
        let j = joined();
        assert_eq!(aggregates(&batch, &got, &j, 1e-9), Ok(()));
        let last = got.len() - 1;
        got[last] *= 1.0 + 1e-8;
        let err = aggregates(&batch, &got, &j, 1e-9).unwrap_err();
        assert!(err.contains(&batch.aggs[last].name), "{err}");
        assert!(aggregates(&batch, &got[..last], &j, 1e-9).is_err());
    }

    /// The compiled §3 program's θ on the running example agrees with the
    /// benchmark's own recurrence; a perturbed θ does not.
    #[test]
    fn theta_check_accepts_the_pipeline_and_rejects_a_perturbed_theta() {
        let db = running_example_star();
        let src = crate::workloads::linreg::program_source(&FEATURES, "units", 1e-6, 2);
        let program = parse_program(&src).unwrap();
        let catalog = db.catalog().with_var_size("Q", db.fact_rows() as u64);
        let compiled = Pipeline::new(catalog)
            .compile(&program, &CompileOptions::for_star_db(&db))
            .unwrap();
        let prep = compiled.prepare(&db, Layout::MergedHash).unwrap();
        let value = compiled
            .execute_prepared(&db, &prep, &ExecConfig::serial())
            .unwrap();
        let theta = crate::workloads::linreg::theta_of(&value, &FEATURES).unwrap();
        let j = joined();
        let want = raw_bgd(&RefMoments::of(&j, &FEATURES, "units"), 1e-6, 2);
        assert_eq!(params("θ", &theta, &want, 1e-6), Ok(()));
        assert_eq!(descends(&j, &FEATURES, "units", &theta), Ok(()));
        let mut bad = theta.clone();
        bad[1] += 1e-4;
        assert!(params("θ", &bad, &want, 1e-6).is_err());
        assert!(descends(&j, &FEATURES, "units", &[1.0, 1.0]).is_err());
        assert!(crate::workloads::linreg::theta_of(&Value::real(1.0), &FEATURES).is_err());
    }

    /// The factorized trainer's θ on the running example with a 0/1
    /// label agrees with `fit_materialized` on the benchmark's join; a
    /// perturbed θ or a bad model does not pass.
    #[test]
    fn logistic_checks_reject_a_perturbed_model() {
        let mut db = running_example_star();
        db.fact.attrs.push("y".into());
        db.fact
            .columns
            .push(ifaq_storage::Column::F64(vec![1.0, 0.0, 1.0, 0.0, 0.0]));
        let j = join(&db, &["city", "price", "y"]);
        let want = ifaq_ml::logreg::fit_materialized(&j.to_matrix(), &FEATURES, "y", 0.5, 50);
        let got = ifaq_ml::logreg::FactorizedTrainer::new(
            &db,
            &FEATURES,
            "y",
            Layout::MergedHash,
            &ExecConfig::serial(),
        )
        .fit(0.5, 50);
        let (got, want) = (
            crate::workloads::favorita::params(&got),
            crate::workloads::favorita::params(&want),
        );
        assert_eq!(params("θ", &got, &want, 1e-6), Ok(()));
        assert_eq!(
            log_loss_below_ln2(&j, &FEATURES, "y", got[0], &got[1..]),
            Ok(())
        );
        let mut bad = got.clone();
        bad[1] += 1e-5 * bad[1].abs().max(1.0);
        assert!(params("θ", &bad, &want, 1e-6).is_err());
        // θ_city = 0.01 scores the three 0-rows highest: log-loss 1.40.
        assert!(log_loss_below_ln2(&j, &FEATURES, "y", 0.0, &[0.01, 0.0]).is_err());
    }

    #[test]
    fn snapshot_and_count_checks_reject_disagreement() {
        assert_eq!(snapshot(5.0, 5), Ok(()));
        assert!(snapshot(5.0, 6).is_err());
        assert!(snapshot(4.999_999, 5).is_err());
        assert_eq!(count(12.0, 10, 5, 3), Ok(()));
        assert!(count(13.0, 10, 5, 3).is_err());
    }

    #[test]
    fn maintained_state_checks_against_the_expected_table() {
        // The serving engine's fact table and totals after a delta match
        // the table the test builds itself and fresh sums over it; a
        // wrongly resolved delete, a perturbed total or a perturbed θ do
        // not pass.
        let db = running_example_star();
        let engine = ifaq_serve::ServeEngine::new(
            db.clone(),
            &FEATURES,
            "units",
            ifaq_serve::ServeConfig::new(Layout::MergedHash).with_exec(ExecConfig::serial()),
        );
        let delta = ifaq_serve::DeltaBatch::new()
            .insert(vec![2.0, 1.0, 7.0])
            .delete(vec![1.0, 1.0, 10.0]);
        engine.apply_delta(&delta).unwrap();
        let mut want = crate::reference::rows(&db.fact);
        assert_eq!(want[0], vec![1.0, 1.0, 10.0]);
        let mut wrong = want.clone();
        want[0] = vec![2.0, 1.0, 7.0];
        let fact = engine.db_snapshot().fact;
        assert_eq!(same_rows(&fact, &want), Ok(()));
        wrong.remove(1);
        wrong.push(vec![2.0, 1.0, 7.0]);
        assert!(same_rows(&fact, &wrong).is_err());
        assert!(same_rows(&fact, &want[1..]).is_err());
        let j = join(
            &crate::reference::with_fact_rows(&db, &want),
            &["city", "price", "units"],
        );
        let mut totals = engine.totals();
        assert_eq!(aggregates(engine.batch(), &totals, &j, 1e-6), Ok(()));
        let n = engine.batch().index_of("count").unwrap();
        assert_eq!(count(totals[n], 5, 1, 1), Ok(()));
        totals[0] *= 1.0 + 1e-5;
        assert!(aggregates(engine.batch(), &totals, &j, 1e-6).is_err());
        // The refit θ is the standardized descent over the moments.
        let snap = engine.refit();
        let m = RefMoments::of(&j, &FEATURES, "units");
        let (b, w) = crate::reference::standardized_bgd(&m, 0.1, 300);
        let mut want = vec![b];
        want.extend(w);
        let mut got = vec![snap.linear.intercept];
        got.extend(&snap.linear.weights);
        assert_eq!(params("θ", &got, &want, 1e-6), Ok(()));
        got[1] += 1e-4;
        assert!(params("θ", &got, &want, 1e-6).is_err());
    }
}
