//! Seeded, constraint-safe delta workloads over a generated hospital
//! catalog.
//!
//! The incremental mediator re-runs only the task subgraph a delta touches,
//! so the interesting workloads mutate *one* table at a time. The report's
//! key and inclusion constraints hold by construction in the generator
//! (billing carries exactly one price per treatment), and these deltas
//! preserve that: they only insert `visitInfo`/`cover` rows referencing
//! already-present patients, policies and treatments, and only delete rows
//! that exist — so a post-delta catalog is always a valid input for a full
//! (oracle) run.

use aig_prng::rngs::StdRng;
use aig_prng::{Rng, SeedableRng};
use aig_relstore::{Catalog, Row, SourceDelta, StoreError, Value};
use std::collections::HashSet;

fn column(
    catalog: &Catalog,
    source: &str,
    table: &str,
    col: usize,
) -> Result<Vec<Value>, StoreError> {
    let rel = catalog.table(source, table)?.columnar();
    Ok((0..rel.len()).map(|r| rel.cell(r, col).clone()).collect())
}

fn existing_rows(catalog: &Catalog, source: &str, table: &str) -> Result<HashSet<Row>, StoreError> {
    Ok(catalog.table(source, table)?.rows().into_iter().collect())
}

/// A delta of `inserts` new and `deletes` existing `DB1.visitInfo` rows on
/// the given visit date. Inserted rows pair existing patients with existing
/// treatments (never duplicating a present row); deleted rows are drawn
/// from the date's current rows, so the delta is visible to a report
/// parameterized by `date`. Deterministic in `seed`.
pub fn visit_delta(
    catalog: &Catalog,
    date: &str,
    inserts: usize,
    deletes: usize,
    seed: u64,
) -> Result<SourceDelta, StoreError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let patients = column(catalog, "DB1", "patient", 0)?;
    let treatments = column(catalog, "DB4", "treatment", 0)?;
    let mut present = existing_rows(catalog, "DB1", "visitInfo")?;

    let mut ins: Vec<Row> = Vec::with_capacity(inserts);
    let mut guard = 0usize;
    while ins.len() < inserts {
        guard += 1;
        assert!(
            guard < (inserts + 1) * 10_000,
            "visit_delta cannot find {inserts} fresh visitInfo rows"
        );
        let row = vec![
            patients[rng.gen_range(0..patients.len())].clone(),
            treatments[rng.gen_range(0..treatments.len())].clone(),
            Value::str(date),
        ];
        if present.insert(row.clone()) {
            ins.push(row);
        }
    }

    let on_date: Vec<Row> = catalog
        .table("DB1", "visitInfo")?
        .rows()
        .into_iter()
        .filter(|r| r[2] == Value::str(date))
        .collect();
    let del = sample_distinct(&mut rng, &on_date, deletes);

    Ok(SourceDelta::new()
        .insert("DB1", "visitInfo", ins)
        .delete("DB1", "visitInfo", del))
}

/// A delta of `inserts` new and `deletes` existing `DB2.cover` rows,
/// pairing existing policies with existing treatments. Deterministic in
/// `seed`.
pub fn cover_delta(
    catalog: &Catalog,
    inserts: usize,
    deletes: usize,
    seed: u64,
) -> Result<SourceDelta, StoreError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let policies = column(catalog, "DB1", "patient", 2)?;
    let treatments = column(catalog, "DB4", "treatment", 0)?;
    let mut present = existing_rows(catalog, "DB2", "cover")?;

    let mut ins: Vec<Row> = Vec::with_capacity(inserts);
    let mut guard = 0usize;
    while ins.len() < inserts {
        guard += 1;
        assert!(
            guard < (inserts + 1) * 10_000,
            "cover_delta cannot find {inserts} fresh cover rows"
        );
        let row = vec![
            policies[rng.gen_range(0..policies.len())].clone(),
            treatments[rng.gen_range(0..treatments.len())].clone(),
        ];
        if present.insert(row.clone()) {
            ins.push(row);
        }
    }

    let rows: Vec<Row> = catalog.table("DB2", "cover")?.rows();
    let del = sample_distinct(&mut rng, &rows, deletes);

    Ok(SourceDelta::new()
        .insert("DB2", "cover", ins)
        .delete("DB2", "cover", del))
}

/// A price-update delta over `DB3.billing`: `updates` distinct treatments
/// get a bumped price. Returned as *two* deltas — deletions of the old
/// rows, then insertions of the new ones — because billing's primary key
/// (one price per treatment) forbids the new row while the old one is
/// present, and [`Catalog::apply_delta`] applies inserts before deletes.
/// Apply them in order; both touch only `DB3.billing`, and the key and
/// inclusion constraints hold throughout. Deterministic in `seed`.
pub fn price_delta(
    catalog: &Catalog,
    updates: usize,
    seed: u64,
) -> Result<(SourceDelta, SourceDelta), StoreError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Row> = catalog.table("DB3", "billing")?.rows();
    let old = sample_distinct(&mut rng, &rows, updates);
    let new: Vec<Row> = old
        .iter()
        .map(|row| {
            let price = row[1].to_text();
            let bumped = price
                .parse::<i64>()
                .map(|p| (p + 1).to_string())
                .unwrap_or_else(|_| format!("{price}0"));
            vec![row[0].clone(), Value::str(bumped)]
        })
        .collect();
    Ok((
        SourceDelta::new().delete("DB3", "billing", old),
        SourceDelta::new().insert("DB3", "billing", new),
    ))
}

/// Up to `n` distinct rows sampled from `pool` (all of them when the pool
/// is smaller).
fn sample_distinct(rng: &mut StdRng, pool: &[Row], n: usize) -> Vec<Row> {
    if pool.is_empty() || n == 0 {
        return Vec::new();
    }
    if n >= pool.len() {
        return pool.to_vec();
    }
    let mut picked: HashSet<usize> = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let i = rng.gen_range(0..pool.len());
        if picked.insert(i) {
            out.push(pool[i].clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hospital::HospitalConfig;

    #[test]
    fn visit_delta_is_fresh_and_applies_cleanly() {
        let data = HospitalConfig::tiny(5).generate().unwrap();
        let date = data.dates[0].clone();
        let delta = visit_delta(&data.catalog, &date, 4, 3, 17).unwrap();
        assert_eq!(delta.rows_inserted(), 4);
        assert_eq!(delta.rows_deleted(), 3);
        assert_eq!(delta.touched().len(), 1, "single-table delta");
        let mut catalog = data.catalog.clone();
        let before = catalog.table("DB1", "visitInfo").unwrap().len();
        catalog.apply_delta(&delta).unwrap();
        assert_eq!(catalog.table("DB1", "visitInfo").unwrap().len(), before + 1);
        // Deterministic in the seed.
        let again = visit_delta(&data.catalog, &date, 4, 3, 17).unwrap();
        assert_eq!(delta.inserts[0].rows, again.inserts[0].rows);
        assert_eq!(delta.deletes[0].rows, again.deletes[0].rows);
    }

    #[test]
    fn price_delta_updates_in_place_under_the_key() {
        let data = HospitalConfig::tiny(7).generate().unwrap();
        let (del, ins) = price_delta(&data.catalog, 4, 19).unwrap();
        assert_eq!(del.rows_deleted(), 4);
        assert_eq!(ins.rows_inserted(), 4);
        let mut catalog = data.catalog.clone();
        let before = catalog.table("DB3", "billing").unwrap().len();
        catalog.apply_delta(&del).unwrap();
        catalog.apply_delta(&ins).unwrap();
        // An update: same cardinality, same treatments, new prices.
        assert_eq!(catalog.table("DB3", "billing").unwrap().len(), before);
        for (old, new) in del.deletes[0].rows.iter().zip(&ins.inserts[0].rows) {
            assert_eq!(old[0], new[0]);
            assert_ne!(old[1], new[1]);
        }
        // Deterministic in the seed.
        let (del2, _) = price_delta(&data.catalog, 4, 19).unwrap();
        assert_eq!(del.deletes[0].rows, del2.deletes[0].rows);
    }

    #[test]
    fn cover_delta_applies_cleanly() {
        let data = HospitalConfig::tiny(6).generate().unwrap();
        let delta = cover_delta(&data.catalog, 5, 2, 23).unwrap();
        let mut catalog = data.catalog.clone();
        catalog.apply_delta(&delta).unwrap();
        assert_eq!(
            delta.touched().into_iter().collect::<Vec<_>>(),
            vec![("DB2".to_string(), "cover".to_string())]
        );
    }

    #[test]
    fn post_delta_catalog_still_satisfies_the_constraints() {
        use aig_core::eval::evaluate;
        use aig_core::paper::sigma0;
        let data = HospitalConfig::tiny(9).generate().unwrap();
        let aig = sigma0().unwrap();
        let date = data.dates[0].clone();
        let mut catalog = data.catalog.clone();
        let delta = visit_delta(&catalog, &date, 6, 4, 31).unwrap();
        catalog.apply_delta(&delta).unwrap();
        let delta = cover_delta(&catalog, 6, 4, 37).unwrap();
        catalog.apply_delta(&delta).unwrap();
        let result = evaluate(&aig, &catalog, &[("date", Value::str(&date))]).unwrap();
        assert!(aig.constraints.satisfied(&result.tree));
    }
}
