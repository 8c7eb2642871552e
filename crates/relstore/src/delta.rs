//! Source deltas: batched row inserts/deletes against catalog tables.
//!
//! Under the "heavy traffic over slowly-changing sources" workload most
//! requests arrive after only a handful of source rows changed. A
//! [`SourceDelta`] names those changes explicitly — per `(source, table)`
//! row batches to insert and delete — so the mediator can intersect the
//! touched tables with per-task read-sets and re-run only the affected
//! task subgraph instead of recomputing the whole document.
//!
//! [`Catalog::apply_delta`] mutates the stored tables (inserts first, then
//! deletes, so a delta that inserts and deletes the same rows is an
//! identity) under the same arity/type/key enforcement as regular inserts.
//! A table is its interned columns, so applying a delta costs its own rows:
//! each insert interns its values and appends, each delete is a key lookup
//! (or one reverse scan of a keyless table's symbols) and an in-place
//! removal, and the next scan reads the written columns as they are.
//! Row deltas never change a table's *schema*, so
//! [`Catalog::schema_fingerprint`] is invariant under `apply_delta` —
//! cached plans stay warm across data changes by construction.

use crate::catalog::Catalog;
use crate::error::StoreError;
use crate::table::Row;
use std::collections::BTreeSet;
use std::fmt;

/// A batch of rows destined for one `(source, table)` pair.
#[derive(Debug, Clone)]
pub struct RowBatch {
    /// Source name, e.g. `"DB1"`.
    pub source: String,
    /// Table name within the source, e.g. `"visitInfo"`.
    pub table: String,
    /// Full rows matching the table schema.
    pub rows: Vec<Row>,
}

impl RowBatch {
    pub fn new(source: impl Into<String>, table: impl Into<String>, rows: Vec<Row>) -> RowBatch {
        RowBatch {
            source: source.into(),
            table: table.into(),
            rows,
        }
    }
}

/// A set of row insertions and deletions against catalog tables: the unit
/// of change the incremental execute path reasons about.
#[derive(Debug, Clone, Default)]
pub struct SourceDelta {
    pub inserts: Vec<RowBatch>,
    pub deletes: Vec<RowBatch>,
}

impl SourceDelta {
    pub fn new() -> SourceDelta {
        SourceDelta::default()
    }

    /// Chains a batch of rows to insert into `source.table`.
    pub fn insert(
        mut self,
        source: impl Into<String>,
        table: impl Into<String>,
        rows: Vec<Row>,
    ) -> SourceDelta {
        self.inserts.push(RowBatch::new(source, table, rows));
        self
    }

    /// Chains a batch of rows to delete from `source.table` (exact-match,
    /// full rows).
    pub fn delete(
        mut self,
        source: impl Into<String>,
        table: impl Into<String>,
        rows: Vec<Row>,
    ) -> SourceDelta {
        self.deletes.push(RowBatch::new(source, table, rows));
        self
    }

    /// The `(source, table)` pairs this delta touches, deduplicated and in
    /// deterministic order — what gets intersected with task read-sets.
    pub fn touched(&self) -> BTreeSet<(String, String)> {
        self.inserts
            .iter()
            .chain(&self.deletes)
            .filter(|b| !b.rows.is_empty())
            .map(|b| (b.source.clone(), b.table.clone()))
            .collect()
    }

    /// True when no batch carries any row.
    pub fn is_empty(&self) -> bool {
        self.inserts
            .iter()
            .chain(&self.deletes)
            .all(|b| b.rows.is_empty())
    }

    pub fn rows_inserted(&self) -> usize {
        self.inserts.iter().map(|b| b.rows.len()).sum()
    }

    pub fn rows_deleted(&self) -> usize {
        self.deletes.iter().map(|b| b.rows.len()).sum()
    }
}

impl fmt::Display for SourceDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tables: Vec<String> = self
            .touched()
            .into_iter()
            .map(|(s, t)| format!("{s}.{t}"))
            .collect();
        write!(
            f,
            "delta(+{} −{} rows over [{}])",
            self.rows_inserted(),
            self.rows_deleted(),
            tables.join(", ")
        )
    }
}

/// Summary of an applied delta.
#[derive(Debug, Clone)]
pub struct DeltaApplied {
    /// The `(source, table)` pairs whose contents changed.
    pub touched: BTreeSet<(String, String)>,
    /// Rows inserted across all batches.
    pub inserted: usize,
    /// Rows deleted across all batches.
    pub deleted: usize,
}

impl Catalog {
    /// Applies a [`SourceDelta`] to the stored tables: inserts first (under
    /// the usual arity/type/primary-key enforcement), then exact-match
    /// deletes. Insert-then-delete of the same rows within one delta is an
    /// identity. Fails fast on the first bad batch — callers treating the
    /// catalog as transactional should apply deltas to a clone and swap.
    ///
    /// Row deltas never alter table schemas, so
    /// [`Catalog::schema_fingerprint`] is unchanged and cached plans keyed
    /// by it remain valid; only the *data* snapshots go stale.
    pub fn apply_delta(&mut self, delta: &SourceDelta) -> Result<DeltaApplied, StoreError> {
        let mut inserted = 0usize;
        for batch in &delta.inserts {
            let id = self.source_id(&batch.source)?;
            let table = self.source_mut(id).table_mut(&batch.table)?;
            for row in &batch.rows {
                table.insert_values(row)?;
                inserted += 1;
            }
        }
        let mut deleted = 0usize;
        for batch in &delta.deletes {
            let id = self.source_id(&batch.source)?;
            let table = self.source_mut(id).table_mut(&batch.table)?;
            for row in &batch.rows {
                table.delete(row)?;
                deleted += 1;
            }
        }
        Ok(DeltaApplied {
            touched: delta.touched(),
            inserted,
            deleted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;
    use crate::table::Table;
    use crate::value::Value;
    use crate::Database;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut db = Database::new("DB1");
        let mut t = Table::new(TableSchema::strings(
            "visitInfo",
            &["SSN", "trId", "date"],
            &[],
        ));
        t.insert(vec![Value::str("1"), Value::str("t1"), Value::str("d1")])
            .unwrap();
        db.add_table(t).unwrap();
        c.add_source(db).unwrap();
        c
    }

    fn row(ssn: &str, tr: &str, d: &str) -> Row {
        vec![Value::str(ssn), Value::str(tr), Value::str(d)]
    }

    #[test]
    fn apply_inserts_then_deletes() {
        let mut c = catalog();
        let delta = SourceDelta::new()
            .insert("DB1", "visitInfo", vec![row("2", "t2", "d1")])
            .delete("DB1", "visitInfo", vec![row("1", "t1", "d1")]);
        let applied = c.apply_delta(&delta).unwrap();
        assert_eq!(applied.inserted, 1);
        assert_eq!(applied.deleted, 1);
        assert_eq!(
            applied.touched.into_iter().collect::<Vec<_>>(),
            vec![("DB1".to_string(), "visitInfo".to_string())]
        );
        let t = c.table("DB1", "visitInfo").unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.rows()[0], row("2", "t2", "d1"));
    }

    #[test]
    fn schema_fingerprint_invariant_under_row_deltas() {
        let mut c = catalog();
        let fp = c.schema_fingerprint();
        let delta = SourceDelta::new().insert("DB1", "visitInfo", vec![row("3", "t3", "d2")]);
        c.apply_delta(&delta).unwrap();
        assert_eq!(fp, c.schema_fingerprint());
    }

    #[test]
    fn bad_targets_and_rows_are_rejected() {
        let mut c = catalog();
        let no_source = SourceDelta::new().insert("DB9", "visitInfo", vec![row("4", "t4", "d1")]);
        assert!(matches!(
            c.apply_delta(&no_source).unwrap_err(),
            StoreError::NoSuchSource(_)
        ));
        let no_table = SourceDelta::new().insert("DB1", "zzz", vec![row("4", "t4", "d1")]);
        assert!(matches!(
            c.apply_delta(&no_table).unwrap_err(),
            StoreError::NoSuchTable { .. }
        ));
        let missing = SourceDelta::new().delete("DB1", "visitInfo", vec![row("9", "t9", "d9")]);
        assert!(matches!(
            c.apply_delta(&missing).unwrap_err(),
            StoreError::NoSuchRow { .. }
        ));
    }

    #[test]
    fn touched_and_display_dedup_tables() {
        let delta = SourceDelta::new()
            .insert("DB1", "visitInfo", vec![row("5", "t5", "d1")])
            .delete("DB1", "visitInfo", vec![row("5", "t5", "d1")])
            .insert("DB2", "cover", vec![])
            .delete("DB1", "empty", vec![]);
        assert_eq!(delta.touched().len(), 1, "empty batches touch nothing");
        assert!(!delta.is_empty());
        assert_eq!(delta.to_string(), "delta(+1 −1 rows over [DB1.visitInfo])");
        assert!(SourceDelta::new().is_empty());
    }
}
