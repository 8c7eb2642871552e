//! Stored tables: a schema over interned columns, with an optional
//! primary-key map.
//!
//! A [`Table`] *is* its columnar image: one [`Relation`] of [`Sym`] columns,
//! which the SQL executor scans by borrowing ([`Table::columnar`]) and the
//! mediator ships by cloning the column `Arc`s. Writes work on those
//! columns directly:
//!
//! * [`Table::insert`] checks the row, interns each value once and appends
//!   the symbols;
//! * [`Table::delete`] finds the row through the primary key (a [`SymMap`]
//!   from key symbols to row position) or, on a keyless table, one reverse
//!   scan of the symbols, then removes it in place and shifts the later
//!   positions down with one integer pass over the key map.
//!
//! No write clones or re-interns a row of values, and no read rebuilds an
//! image. Columns shared with a relation handed out earlier (a scan, a
//! cloned catalog) are copied on their first write, so a reader keeps what
//! it was given. Row-major views ([`Table::rows`], [`Table::get_by_key`])
//! materialize owned rows for tests, fixtures and reports.
//!
//! A table also keeps the hash-join indexes queries build over it
//! ([`Table::join_index`]): one [`JoinIndex`] over all of its rows per list
//! of key columns some join probed, built on first use and dropped by every
//! write. An unchanged table is hashed once, not once per join step.

use crate::error::StoreError;
use crate::intern::{self, Sym, SymMap};
use crate::par::{JoinIndex, JoinTable};
use crate::relation::Relation;
use crate::schema::TableSchema;
use crate::value::Value;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A row of values. Arity always matches its table's schema.
pub type Row = Vec<Value>;

/// An in-memory table: a schema plus its rows, in insertion order, as
/// interned columns. Primary keys (when the schema declares one) are
/// enforced on insert, mirroring the underlined keys of the paper's
/// hospital schemas.
#[derive(Debug)]
pub struct Table {
    schema: TableSchema,
    rel: Relation,
    /// Key symbols → row position (only when `schema.key` is non-empty).
    pk: Option<SymMap<Box<[Sym]>, usize>>,
    /// The join index over every row, per list of key-column positions a
    /// join probed: built on first use, cleared by every write. Behind a
    /// lock because concurrent queries share the table.
    indexes: Mutex<KeptIndexes>,
}

/// Join indexes by the key-column positions they index.
type KeptIndexes = Vec<(Box<[usize]>, Arc<JoinIndex>)>;

/// A clone holds the same rows, so it shares the indexes built so far; its
/// writes drop its own copies of them only.
impl Clone for Table {
    fn clone(&self) -> Table {
        Table {
            schema: self.schema.clone(),
            rel: self.rel.clone(),
            pk: self.pk.clone(),
            indexes: Mutex::new(self.locked_indexes().clone()),
        }
    }
}

impl Table {
    /// Creates an empty table.
    pub fn new(schema: TableSchema) -> Table {
        let columns: Vec<String> = schema.columns.iter().map(|c| c.name.clone()).collect();
        let pk = (!schema.key.is_empty()).then(SymMap::default);
        Table {
            schema,
            rel: Relation::empty(columns),
            pk,
            indexes: Mutex::default(),
        }
    }

    /// Creates a table and bulk-loads `rows`.
    pub fn with_rows(schema: TableSchema, rows: Vec<Row>) -> Result<Table, StoreError> {
        let mut t = Table::new(schema);
        for row in rows {
            t.insert(row)?;
        }
        Ok(t)
    }

    #[inline]
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    #[inline]
    pub fn name(&self) -> &str {
        &self.schema.name
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.rel.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rel.is_empty()
    }

    /// Every row, materialized in insertion order. Off the request path:
    /// scans read [`Table::columnar`].
    pub fn rows(&self) -> Vec<Row> {
        self.rel.rows_vec()
    }

    /// The table's interned columns, named after the schema. SQL executors
    /// scan this; it is the table itself, not a copy.
    #[inline]
    pub fn columnar(&self) -> &Relation {
        &self.rel
    }

    /// The hash-join index over every row of the key columns at `key` (in
    /// that order), with the chains [`JoinTable::build`] over all rows
    /// gives: probed through [`JoinTable::over`] on the same columns of
    /// [`Table::columnar`]. Built on the first call for `key` and kept until
    /// the next write — at most 20 bytes per row per key list
    /// ([`JoinIndex::heap_bytes`]), freed with the table.
    pub fn join_index(&self, key: &[usize]) -> Arc<JoinIndex> {
        let mut indexes = self.locked_indexes();
        if let Some((_, index)) = indexes.iter().find(|(k, _)| **k == *key) {
            return Arc::clone(index);
        }
        let cols = key.iter().map(|&c| self.rel.col_syms(c)).collect();
        let all: Vec<u32> = (0..self.rel.len() as u32).collect();
        let index = Arc::new(JoinTable::build(cols, &all).into_index());
        indexes.push((key.into(), Arc::clone(&index)));
        index
    }

    /// Heap bytes of the join indexes the table keeps.
    pub fn index_bytes(&self) -> usize {
        let indexes = self.locked_indexes();
        indexes.iter().map(|(_, index)| index.heap_bytes()).sum()
    }

    fn locked_indexes(&self) -> MutexGuard<'_, KeptIndexes> {
        // A panic mid-build pushes nothing: what the lock holds is whole.
        self.indexes.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Forgets every join index: the rows are about to change.
    fn drop_indexes(&mut self) {
        self.indexes
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    /// Inserts a row, enforcing arity, column types (NULL always accepted)
    /// and the primary key.
    pub fn insert(&mut self, row: Row) -> Result<(), StoreError> {
        self.insert_values(&row)
    }

    /// [`Table::insert`] of a borrowed row: each value is interned once and
    /// its symbol appended; the row itself is not copied.
    pub(crate) fn insert_values(&mut self, row: &[Value]) -> Result<(), StoreError> {
        if row.len() != self.schema.arity() {
            return Err(StoreError::SchemaMismatch {
                table: self.schema.name.clone(),
                msg: format!(
                    "arity {} does not match schema arity {}",
                    row.len(),
                    self.schema.arity()
                ),
            });
        }
        for (value, col) in row.iter().zip(&self.schema.columns) {
            if let Some(ty) = value.value_type() {
                if ty != col.ty {
                    return Err(StoreError::SchemaMismatch {
                        table: self.schema.name.clone(),
                        msg: format!(
                            "value {value} has type {ty} but column `{}` has type {}",
                            col.name, col.ty
                        ),
                    });
                }
            }
        }
        let syms: Vec<Sym> = row.iter().map(intern::intern).collect();
        if let Some(pk) = &mut self.pk {
            let key: Box<[Sym]> = self.schema.key.iter().map(|&k| syms[k]).collect();
            if pk.contains_key(&key) {
                let key: Vec<&Value> = self.schema.key.iter().map(|&k| &row[k]).collect();
                return Err(StoreError::KeyViolation {
                    table: self.schema.name.clone(),
                    key: format!("{key:?}"),
                });
            }
            pk.insert(key, self.rel.len());
        }
        self.drop_indexes();
        self.rel.push_syms(&syms);
        Ok(())
    }

    /// Deletes one row by exact match, removing the **last** occurrence so
    /// that inserting rows and then deleting the same rows restores the
    /// original table even in the presence of duplicates (the delta
    /// identity the incremental mediator relies on). A keyed table finds
    /// the row through its key, a keyless one by scanning back from the
    /// end; later rows move up one position.
    pub fn delete(&mut self, row: &[Value]) -> Result<(), StoreError> {
        let pos = self.position(row).ok_or_else(|| StoreError::NoSuchRow {
            table: self.schema.name.clone(),
            row: format!("{row:?}"),
        })?;
        if let Some(pk) = &mut self.pk {
            let key: Box<[Sym]> = self
                .schema
                .key
                .iter()
                .map(|&k| self.rel.sym(pos, k))
                .collect();
            pk.remove(&key);
            for p in pk.values_mut() {
                if *p > pos {
                    *p -= 1;
                }
            }
        }
        self.drop_indexes();
        self.rel.remove_row(pos);
        Ok(())
    }

    /// The position of the last row equal to `row`, if any.
    fn position(&self, row: &[Value]) -> Option<usize> {
        if row.len() != self.schema.arity() {
            return None;
        }
        // A value never interned equals no stored cell.
        let syms: Vec<Sym> = row.iter().map(intern::lookup).collect::<Option<_>>()?;
        let matches = |r: usize| (0..syms.len()).all(|c| self.rel.sym(r, c) == syms[c]);
        match &self.pk {
            Some(pk) => {
                let key: Box<[Sym]> = self.schema.key.iter().map(|&k| syms[k]).collect();
                pk.get(&key).copied().filter(|&r| matches(r))
            }
            None => (0..self.rel.len()).rev().find(|&r| matches(r)),
        }
    }

    /// Looks up a row by primary key.
    pub fn get_by_key(&self, key: &[Value]) -> Option<Row> {
        let pk = self.pk.as_ref()?;
        let key: Box<[Sym]> = key.iter().map(intern::lookup).collect::<Option<_>>()?;
        pk.get(&key).map(|&r| self.rel.row(r))
    }

    /// Total payload size in bytes (used for transfer-cost estimation),
    /// from the columns' memoized sizes.
    pub fn byte_size(&self) -> usize {
        self.rel.byte_size()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} [{} rows]", self.schema, self.len())?;
        for r in 0..self.len().min(20) {
            let cells: Vec<String> = (0..self.schema.arity())
                .map(|c| self.rel.cell(r, c).to_string())
                .collect();
            writeln!(f, "  ({})", cells.join(", "))?;
        }
        if self.len() > 20 {
            writeln!(f, "  … {} more", self.len() - 20)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::ValueType;

    fn patient_schema() -> TableSchema {
        TableSchema::strings("patient", &["SSN", "pname", "policy"], &["SSN"])
    }

    fn row(ssn: &str, name: &str, policy: &str) -> Row {
        vec![Value::str(ssn), Value::str(name), Value::str(policy)]
    }

    #[test]
    fn insert_and_key_lookup() {
        let mut t = Table::new(patient_schema());
        t.insert(row("1", "alice", "p1")).unwrap();
        t.insert(row("2", "bob", "p2")).unwrap();
        assert_eq!(t.len(), 2);
        let got = t.get_by_key(&[Value::str("2")]).unwrap();
        assert_eq!(got[1], Value::str("bob"));
        assert!(t.get_by_key(&[Value::str("9")]).is_none());
        assert!(t
            .get_by_key(&[Value::str("never-interned-key-3a1f")])
            .is_none());
    }

    #[test]
    fn key_violation_rejected() {
        let mut t = Table::new(patient_schema());
        t.insert(row("1", "alice", "p1")).unwrap();
        let err = t.insert(row("1", "mallory", "p9")).unwrap_err();
        assert!(matches!(err, StoreError::KeyViolation { .. }));
        assert_eq!(t.len(), 1);
        assert_eq!(t.rows(), vec![row("1", "alice", "p1")]);
    }

    #[test]
    fn arity_and_type_checked() {
        let mut t = Table::new(patient_schema());
        assert!(t.insert(vec![Value::str("1")]).is_err());
        let schema = TableSchema::new(
            "billing",
            vec![Column::str("trId"), Column::int("price")],
            &["trId"],
        )
        .unwrap();
        let mut billing = Table::new(schema);
        assert!(billing
            .insert(vec![Value::str("t1"), Value::str("not an int")])
            .is_err());
        billing
            .insert(vec![Value::str("t1"), Value::int(10)])
            .unwrap();
        // NULL satisfies any column type.
        billing.insert(vec![Value::str("t2"), Value::Null]).unwrap();
        assert_eq!(billing.schema().columns[1].ty, ValueType::Int);
        assert_eq!(billing.len(), 2);
    }

    #[test]
    fn keyed_delete_shifts_later_positions() {
        let mut t = Table::new(patient_schema());
        for i in 0..5 {
            t.insert(row(&i.to_string(), "n", "p")).unwrap();
        }
        t.delete(&row("1", "n", "p")).unwrap();
        // Same key, other payload: not the stored row.
        let err = t.delete(&row("3", "other", "p")).unwrap_err();
        assert!(matches!(err, StoreError::NoSuchRow { .. }));
        assert!(t.delete(&row("1", "n", "p")).is_err());
        assert!(t.delete(&[Value::str("3")]).is_err());
        for i in [0, 2, 3, 4] {
            let key = [Value::str(i.to_string())];
            assert_eq!(t.get_by_key(&key), Some(row(&i.to_string(), "n", "p")));
        }
        assert!(t.get_by_key(&[Value::str("1")]).is_none());
        // The freed key can be inserted again, at the end.
        t.insert(row("1", "m", "q")).unwrap();
        assert_eq!(t.rows()[4], row("1", "m", "q"));
        assert_eq!(t.get_by_key(&[Value::str("1")]), Some(row("1", "m", "q")));
    }

    #[test]
    fn keyless_delete_takes_the_last_duplicate() {
        let mut t = Table::new(TableSchema::strings("t", &["a", "b"], &[]));
        let (x, y) = (Value::str("x"), Value::str("y"));
        for r in [[&x, &y], [&y, &x], [&x, &y], [&y, &y]] {
            t.insert(r.iter().map(|&v| v.clone()).collect()).unwrap();
        }
        t.delete(&[x.clone(), y.clone()]).unwrap();
        assert_eq!(
            t.rows(),
            vec![
                vec![x.clone(), y.clone()],
                vec![y.clone(), x],
                vec![y.clone(), y]
            ]
        );
    }

    #[test]
    fn scans_keep_the_rows_they_were_given() {
        let mut t = Table::new(TableSchema::strings("t", &["a"], &[]));
        t.insert(vec![Value::str("v")]).unwrap();
        let scanned = t.columnar().clone();
        t.insert(vec![Value::str("w")]).unwrap();
        t.delete(&[Value::str("v")]).unwrap();
        assert_eq!(scanned.rows_vec(), vec![vec![Value::str("v")]]);
        assert_eq!(t.columnar().rows_vec(), vec![vec![Value::str("w")]]);
    }

    #[test]
    fn byte_size_accounts_for_payload() {
        let mut t = Table::new(TableSchema::strings("t", &["a", "b"], &[]));
        t.insert(vec![Value::str("xy"), Value::str("z")]).unwrap();
        assert_eq!(t.byte_size(), 3);
    }

    #[test]
    fn bulk_load() {
        let t = Table::with_rows(
            patient_schema(),
            vec![row("1", "a", "p"), row("2", "b", "p")],
        )
        .unwrap();
        assert_eq!(t.len(), 2);
        assert!(Table::with_rows(
            patient_schema(),
            vec![row("1", "a", "p"), row("1", "b", "p")]
        )
        .is_err());
    }
}
