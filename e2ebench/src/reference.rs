//! Computations made apart from the program under test.
//!
//! Everything here works from the relations alone: a hash join written
//! for the benchmark, compensated sums, and the training recurrences
//! transcribed from their definitions. The correctness checks compare the
//! program's outputs against these.

use ifaq_engine::{StarDb, TrainMatrix};
use ifaq_storage::columnar::ColRelationBuilder;
use ifaq_storage::{ColRelation, Column};
use std::collections::HashMap;

/// The inner join of a star's fact table with all of its dimensions,
/// column-major over the requested attributes.
#[derive(Clone, Debug)]
pub struct Joined {
    /// Attribute names, in column order.
    pub attrs: Vec<String>,
    /// One vector per attribute, each `rows` long.
    pub cols: Vec<Vec<f64>>,
    /// Joined rows.
    pub rows: usize,
}

impl Joined {
    /// The column of `attr`.
    pub fn col(&self, attr: &str) -> &[f64] {
        let i = self
            .attrs
            .iter()
            .position(|a| a == attr)
            .unwrap_or_else(|| panic!("joined relation has no attribute `{attr}`"));
        &self.cols[i]
    }

    /// The row-major matrix the program's materialized trainers take.
    pub fn to_matrix(&self) -> TrainMatrix {
        let mut data = Vec::with_capacity(self.rows * self.attrs.len());
        for r in 0..self.rows {
            data.extend(self.cols.iter().map(|c| c[r]));
        }
        TrainMatrix {
            attrs: self.attrs.iter().map(|a| a.as_str().into()).collect(),
            rows: self.rows,
            data,
        }
    }
}

fn column_f64(c: &Column, i: usize) -> f64 {
    match c {
        Column::I64(v) => v[i] as f64,
        Column::F64(v) => v[i],
    }
}

/// Joins every fact row with the dimension row its key names in each
/// dimension, dropping fact rows whose key misses any dimension. An
/// attribute stored by the fact table is read there; any other comes from
/// the first dimension storing it. Duplicate dimension keys keep the last
/// row.
pub fn join(db: &StarDb, attrs: &[&str]) -> Joined {
    enum Src {
        Fact(usize),
        Dim(usize, usize),
    }
    let srcs: Vec<Src> = attrs
        .iter()
        .map(|a| {
            if let Some(i) = db.fact.attr_index(a) {
                return Src::Fact(i);
            }
            db.dims
                .iter()
                .enumerate()
                .find_map(|(d, dim)| dim.rel.attr_index(a).map(|j| Src::Dim(d, j)))
                .unwrap_or_else(|| panic!("no relation stores `{a}`"))
        })
        .collect();
    let keys: Vec<(usize, HashMap<i64, usize>)> = db
        .dims
        .iter()
        .map(|dim| {
            let fact_key = db
                .fact
                .attr_index(dim.key.as_str())
                .expect("fact table stores every join key");
            let dim_key = dim.rel.attr_index(dim.key.as_str()).expect("dimension key");
            let index = (0..dim.rel.len())
                .map(|r| (dim.rel.columns[dim_key].get_i64(r), r))
                .collect();
            (fact_key, index)
        })
        .collect();
    let mut cols: Vec<Vec<f64>> = vec![Vec::with_capacity(db.fact.len()); attrs.len()];
    let mut hit = vec![0usize; db.dims.len()];
    let mut rows = 0;
    'row: for r in 0..db.fact.len() {
        for (d, (fact_key, index)) in keys.iter().enumerate() {
            match index.get(&db.fact.columns[*fact_key].get_i64(r)) {
                Some(&h) => hit[d] = h,
                None => continue 'row,
            }
        }
        for (col, src) in cols.iter_mut().zip(&srcs) {
            col.push(match *src {
                Src::Fact(i) => column_f64(&db.fact.columns[i], r),
                Src::Dim(d, j) => column_f64(&db.dims[d].rel.columns[j], hit[d]),
            });
        }
        rows += 1;
    }
    Joined {
        attrs: attrs.iter().map(|a| a.to_string()).collect(),
        cols,
        rows,
    }
}

/// A relation's rows, each in attribute order.
pub fn rows(rel: &ColRelation) -> Vec<Vec<f64>> {
    (0..rel.len())
        .map(|r| rel.columns.iter().map(|c| column_f64(c, r)).collect())
        .collect()
}

/// `db` with its fact table replaced by `rows`, each in the fact's
/// attribute order.
pub fn with_fact_rows(db: &StarDb, rows: &[Vec<f64>]) -> StarDb {
    let attrs: Vec<&str> = db.fact.attrs.iter().map(|a| a.as_str()).collect();
    let ints: Vec<bool> = db
        .fact
        .columns
        .iter()
        .map(|c| matches!(c, Column::I64(_)))
        .collect();
    let mut fact = ColRelationBuilder::new(db.fact.name.clone(), &attrs, &ints);
    for r in rows {
        fact.push_row(r);
    }
    db.with_fact(fact.build())
}

/// Neumaier-compensated sum.
pub fn sum(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut s, mut c) = (0.0f64, 0.0f64);
    for v in values {
        let t = s + v;
        if s.abs() >= v.abs() {
            c += (s - t) + v;
        } else {
            c += (v - t) + s;
        }
        s = t;
    }
    s + c
}

/// `Σ_rows Π_{f ∈ factors} row[f]` over the join (the row count for no
/// factors).
pub fn sum_product(j: &Joined, factors: &[&str]) -> f64 {
    let cols: Vec<&[f64]> = factors.iter().map(|f| j.col(f)).collect();
    sum((0..j.rows).map(|r| cols.iter().map(|c| c[r]).product::<f64>()))
}

/// Least-squares sufficient statistics over `[1, features…]`, built from
/// the join: the `(d+1)²` Gram matrix, `Xᵀy` and the row count.
#[derive(Clone, Debug, PartialEq)]
pub struct RefMoments {
    /// Feature names.
    pub features: Vec<String>,
    /// Row-major Gram matrix; index 0 is the constant column.
    pub gram: Vec<f64>,
    /// `Xᵀy`; index 0 is `Σ y`.
    pub xty: Vec<f64>,
    /// Rows.
    pub count: f64,
}

impl RefMoments {
    /// The moments of `label` on `features` over the join.
    pub fn of(j: &Joined, features: &[&str], label: &str) -> RefMoments {
        let d = features.len() + 1;
        let with_one: Vec<Option<&str>> = std::iter::once(None)
            .chain(features.iter().map(|f| Some(*f)))
            .collect();
        fn factors<'a>(a: Option<&'a str>, b: Option<&'a str>) -> Vec<&'a str> {
            a.into_iter().chain(b).collect()
        }
        let mut gram = vec![0.0; d * d];
        for i in 0..d {
            for k in i..d {
                let v = sum_product(j, &factors(with_one[i], with_one[k]));
                gram[i * d + k] = v;
                gram[k * d + i] = v;
            }
        }
        let xty = (0..d)
            .map(|i| sum_product(j, &factors(with_one[i], Some(label))))
            .collect();
        RefMoments {
            features: features.iter().map(|f| f.to_string()).collect(),
            gram,
            xty,
            count: j.rows as f64,
        }
    }

    fn d(&self) -> usize {
        self.features.len() + 1
    }

    fn g(&self, i: usize, k: usize) -> f64 {
        self.gram[i * self.d() + k]
    }
}

/// The recurrence of the §3 linear-regression program, from θ = 0 with no
/// intercept: `θ_f ← θ_f − α·(Σ_g θ_g·Σx_f·x_g − Σx_f·y)`, every
/// coordinate updated from the previous iterate.
pub fn raw_bgd(m: &RefMoments, alpha: f64, iterations: usize) -> Vec<f64> {
    let n = m.features.len();
    let mut theta = vec![0.0; n];
    for _ in 0..iterations {
        let prev = theta.clone();
        for (i, t) in theta.iter_mut().enumerate() {
            let grad = sum((0..n).map(|k| prev[k] * m.g(i + 1, k + 1))) - m.xty[i + 1];
            *t = prev[i] - alpha * grad;
        }
    }
    theta
}

/// `Σ_rows (θ·x − y)²` over the join, with no intercept.
pub fn least_squares(j: &Joined, features: &[&str], label: &str, theta: &[f64]) -> f64 {
    let cols: Vec<&[f64]> = features.iter().map(|f| j.col(f)).collect();
    let y = j.col(label);
    sum((0..j.rows).map(|r| {
        let e = cols.iter().zip(theta).map(|(c, t)| t * c[r]).sum::<f64>() - y[r];
        e * e
    }))
}

/// Gradient descent on the mean squared error in standardized feature
/// space (mean 0, variance 1 per feature, derived from the moments), from
/// θ = 0, mapped back to raw space as `(intercept, weights)`. Each
/// coordinate's update uses the coordinates already updated in the same
/// iteration, in feature order.
pub fn standardized_bgd(m: &RefMoments, learning_rate: f64, iterations: usize) -> (f64, Vec<f64>) {
    let d = m.d();
    let n = m.count.max(1.0);
    let mean: Vec<f64> = (0..d)
        .map(|i| if i == 0 { 0.0 } else { m.g(0, i) / n })
        .collect();
    let std: Vec<f64> = (0..d)
        .map(|i| {
            if i == 0 {
                1.0
            } else {
                (m.g(i, i) / n - mean[i] * mean[i]).max(1e-12).sqrt()
            }
        })
        .collect();
    // Standardized Gram G' and right-hand side b'.
    let mut g = vec![0.0; d * d];
    let mut b = vec![0.0; d];
    for i in 0..d {
        b[i] = (m.xty[i] - mean[i] * m.xty[0]) / std[i];
        for k in 0..d {
            g[i * d + k] = (m.g(i, k) - mean[i] * m.g(0, k) - mean[k] * m.g(i, 0)
                + mean[i] * mean[k] * n)
                / (std[i] * std[k]);
        }
    }
    let mut theta = vec![0.0; d];
    for _ in 0..iterations {
        for i in 0..d {
            let grad = (0..d).map(|k| g[i * d + k] * theta[k]).sum::<f64>() - b[i];
            theta[i] -= learning_rate / n * grad;
        }
    }
    let mut intercept = theta[0];
    let weights = (1..d)
        .map(|i| {
            intercept -= theta[i] * mean[i] / std[i];
            theta[i] / std[i]
        })
        .collect();
    (intercept, weights)
}

/// `ln(1 + eˣ)` without overflow.
pub fn softplus(x: f64) -> f64 {
    x.max(0.0) + (-x.abs()).exp().ln_1p()
}

/// Mean log-loss of the logistic model `σ(intercept + w·x)` on 0/1
/// labels over the join.
pub fn mean_log_loss(
    j: &Joined,
    features: &[&str],
    label: &str,
    intercept: f64,
    weights: &[f64],
) -> f64 {
    let cols: Vec<&[f64]> = features.iter().map(|f| j.col(f)).collect();
    let y = j.col(label);
    let total = sum((0..j.rows).map(|r| {
        let s = intercept + cols.iter().zip(weights).map(|(c, w)| w * c[r]).sum::<f64>();
        softplus(s) - y[r] * s
    }));
    total / (j.rows.max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifaq_engine::star::running_example_star;

    // The running example (§3.1): S(item, store, units) ⋈ R(store, city)
    // ⋈ I(item, price) joins to five rows
    //   (units, city, price) = (10,100,1.5) (5,200,1.5) (3,100,2.5)
    //                          (8,200,3.5) (2,200,2.5).
    fn joined() -> Joined {
        join(&running_example_star(), &["city", "price", "units"])
    }

    #[test]
    fn join_matches_the_hand_computed_rows() {
        let j = joined();
        assert_eq!(j.rows, 5);
        assert_eq!(j.col("units"), &[10.0, 5.0, 3.0, 8.0, 2.0]);
        assert_eq!(j.col("city"), &[100.0, 200.0, 100.0, 200.0, 200.0]);
        assert_eq!(j.col("price"), &[1.5, 1.5, 2.5, 3.5, 2.5]);
        let m = j.to_matrix();
        assert_eq!(m.row(3), &[200.0, 3.5, 8.0]);
    }

    #[test]
    fn fact_rows_round_trip() {
        let db = running_example_star();
        let r = rows(&db.fact);
        assert_eq!(r.len(), 5);
        assert_eq!(r[0], vec![1.0, 1.0, 10.0]);
        let mut more = r.clone();
        more.push(vec![2.0, 1.0, 7.0]);
        let grown = with_fact_rows(&db, &more);
        assert_eq!(rows(&grown.fact), more);
        assert_eq!(join(&grown, &["units"]).col("units").len(), 6);
    }

    #[test]
    fn sums_match_hand_computed_values() {
        let j = joined();
        assert_eq!(sum_product(&j, &[]), 5.0);
        assert_eq!(sum_product(&j, &["city"]), 800.0);
        assert_eq!(sum_product(&j, &["price"]), 11.5);
        assert_eq!(sum_product(&j, &["city", "price"]), 1900.0);
        assert_eq!(sum_product(&j, &["city", "units"]), 4300.0);
        assert_eq!(sum_product(&j, &["price", "units"]), 63.0);
        assert_eq!(sum_product(&j, &["price", "price"]), 29.25);
        assert_eq!(sum_product(&j, &["city", "city"]), 140_000.0);
        let m = RefMoments::of(&j, &["city", "price"], "units");
        assert_eq!(m.count, 5.0);
        // Row-major 3×3 over [1, city, price].
        assert_eq!(m.gram[1], 800.0);
        assert_eq!(m.gram[5], 1900.0);
        assert_eq!(m.xty, vec![28.0, 4300.0, 63.0]);
    }

    #[test]
    fn compensated_sum_keeps_small_terms() {
        assert_eq!(sum([1e16, 1.0, -1e16]), 1.0);
    }

    #[test]
    fn raw_bgd_matches_two_hand_computed_steps() {
        let m = RefMoments::of(&joined(), &["city", "price"], "units");
        let t1 = raw_bgd(&m, 1e-6, 1);
        assert!((t1[0] - 0.0043).abs() < 1e-15 && (t1[1] - 0.000063).abs() < 1e-15);
        // θ2 = θ1 − α(Gθ1 − b):
        //   city:  0.0043   − 1e-6·(0.0043·140000 + 0.000063·1900 − 4300)
        //   price: 0.000063 − 1e-6·(0.0043·1900 + 0.000063·29.25 − 63)
        let t2 = raw_bgd(&m, 1e-6, 2);
        assert!((t2[0] - 0.007_997_880_3).abs() < 1e-12, "{t2:?}");
        assert!((t2[1] - 0.000_117_828_157_25).abs() < 1e-12, "{t2:?}");
    }

    #[test]
    fn least_squares_at_zero_is_the_label_energy() {
        let j = joined();
        assert_eq!(
            least_squares(&j, &["city", "price"], "units", &[0.0, 0.0]),
            202.0
        );
        // θ_city = 0.04 predicts (4, 8, 4, 8, 8):
        // (4−10)² + (8−5)² + (4−3)² + (8−8)² + (8−2)² = 82.
        assert_eq!(
            least_squares(&j, &["city", "price"], "units", &[0.04, 0.0]),
            82.0
        );
    }

    #[test]
    fn standardized_bgd_recovers_an_exact_fit() {
        // units = 2 + 3·price has an exact least-squares solution; long
        // descent in standardized space reaches it.
        let mut j = joined();
        let price = j.col("price").to_vec();
        let i = j.attrs.iter().position(|a| a == "units").unwrap();
        j.cols[i] = price.iter().map(|p| 2.0 + 3.0 * p).collect();
        let m = RefMoments::of(&j, &["price"], "units");
        let (b, w) = standardized_bgd(&m, 1.0, 2_000);
        assert!(
            (b - 2.0).abs() < 1e-9 && (w[0] - 3.0).abs() < 1e-9,
            "{b} {w:?}"
        );
    }

    #[test]
    fn log_loss_at_zero_is_ln_two() {
        let mut j = joined();
        j.attrs.push("y".into());
        j.cols.push(vec![1.0, 0.0, 1.0, 0.0, 1.0]);
        let l = mean_log_loss(&j, &["city"], "y", 0.0, &[0.0]);
        assert!((l - std::f64::consts::LN_2).abs() < 1e-15);
        assert!((softplus(1000.0) - 1000.0).abs() < 1e-12);
        assert!(softplus(-1000.0) >= 0.0);
    }
}
