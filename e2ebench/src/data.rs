//! Seeded inputs: the star exports the workloads load.

use ifaq_engine::{StarDb, TrainMatrix};
use ifaq_storage::Column;
use std::path::Path;

/// Fact rows generated for `retailer-linreg`.
pub const RETAILER_LINREG_ROWS: usize = 100_000;
/// Fact rows generated for `retailer-serve` (the training split keeps
/// 90% of them).
pub const RETAILER_SERVE_ROWS: usize = 150_000;
/// Fact rows generated for `favorita-stream` (the training split
/// keeps 90% of them).
pub const FAVORITA_ROWS: usize = 1_000_000;

/// Directory of the star export inside a run's data directory.
pub fn star_dir(data: &Path) -> std::path::PathBuf {
    data.join("star")
}

/// The database a workload's export holds, generated from `seed`.
pub fn generate(workload: &str, seed: u64) -> Result<StarDb, String> {
    Ok(match workload {
        "retailer-linreg" => ifaq_datagen::retailer(RETAILER_LINREG_ROWS, seed).db,
        "retailer-serve" => ifaq_datagen::retailer(RETAILER_SERVE_ROWS, seed).train(),
        "favorita-stream" => ifaq_datagen::favorita(FAVORITA_ROWS, seed)
            .binarize_label()
            .train(),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// Writes the workload's export under `data` and flushes it to disk, so
/// that no write-back of the export runs beside the measuring process's
/// cold set-up.
pub fn write(workload: &str, seed: u64, data: &Path) -> Result<(), String> {
    let db = generate(workload, seed)?;
    let dir = star_dir(data);
    let failed = |e: &dyn std::fmt::Display| {
        format!("writing the star export under {}: {e}", data.display())
    };
    db.export_dir(&dir).map_err(|e| failed(&e))?;
    for entry in std::fs::read_dir(&dir).map_err(|e| failed(&e))? {
        let path = entry.map_err(|e| failed(&e))?.path();
        std::fs::File::open(&path)
            .and_then(|f| f.sync_all())
            .map_err(|e| failed(&e))?;
    }
    Ok(())
}

/// The real-valued attributes of a star other than `exclude`, fact table
/// first and then each dimension in order: the features a workload trains
/// on.
pub fn features(db: &StarDb, exclude: &[&str]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let rels = std::iter::once(&db.fact).chain(db.dims.iter().map(|d| &d.rel));
    for rel in rels {
        for (a, c) in rel.attrs.iter().zip(&rel.columns) {
            let name = a.as_str();
            if matches!(c, ifaq_storage::Column::F64(_))
                && !exclude.contains(&name)
                && !out.iter().any(|o| o == name)
            {
                out.push(name.to_string());
            }
        }
    }
    out
}

/// A small seeded generator (SplitMix64) for the benchmark's own draws:
/// delta rows and the feature vectors read requests carry.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// How many feature vectors read requests cycle through.
pub const READ_VECTORS: usize = 1024;

/// The feature vectors of every row of `db`'s fact table, joined through
/// its dimensions by the benchmark, as a matrix over `features`: what
/// read requests carry.
pub fn rows_of(db: &StarDb, features: &[&str]) -> TrainMatrix {
    crate::reference::join(db, features).to_matrix()
}

/// The feature vectors of [`READ_VECTORS`] fact rows drawn with `seed`.
pub fn sample_rows(db: &StarDb, features: &[&str], seed: u64) -> TrainMatrix {
    let mut rng = Rng::new(seed);
    let picks: Vec<usize> = (0..READ_VECTORS)
        .map(|_| rng.below(db.fact_rows()))
        .collect();
    let columns = db
        .fact
        .columns
        .iter()
        .map(|c| match c {
            Column::I64(v) => Column::I64(picks.iter().map(|&i| v[i]).collect()),
            Column::F64(v) => Column::F64(picks.iter().map(|&i| v[i]).collect()),
        })
        .collect();
    let fact = ifaq_storage::ColRelation::new(db.fact.name.clone(), db.fact.attrs.clone(), columns);
    rows_of(&db.with_fact(fact), features)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = generate("retailer-linreg", 7).unwrap();
        let b = generate("retailer-linreg", 7).unwrap();
        assert_eq!(a.fact, b.fact);
        let c = generate("retailer-linreg", 8).unwrap();
        assert_ne!(a.fact, c.fact);
        assert!(generate("no-such-workload", 1).is_err());
        assert_eq!(Rng::new(3).next_u64(), Rng::new(3).next_u64());
        let v = sample_rows(&a, &["l1", "w2"], 5);
        assert_eq!(v.rows, READ_VECTORS);
        assert_eq!(v.row(0).len(), 2);
        assert_eq!(v, sample_rows(&a, &["l1", "w2"], 5));
    }

    #[test]
    fn feature_lists_of_the_generated_stars() {
        let retailer = ifaq_datagen::retailer(1_000, 1);
        let f = features(&retailer.db, &["inventoryunits"]);
        assert_eq!(f, retailer.features);
        let fav = ifaq_datagen::favorita(1_000, 1).binarize_label();
        let f = features(&fav.db, &["unit_sales", "unit_sales_hi"]);
        assert_eq!(f, fav.features);
    }
}
