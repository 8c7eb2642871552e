//! Schema-light relations: named columns plus rows, stored **column-major**
//! over interned symbols.
//!
//! Query outputs, temporary tables shipped between sources, and set-valued
//! semantic attributes are all [`Relation`]s: unlike a stored
//! [`Table`] they carry no declared types or keys — just
//! ordered, named columns. This mirrors the paper's temporary tables (`Tpatient`
//! etc., §5.1) that cache query outputs at the mediator.
//!
//! Storage is a [`Sym`] vector per column behind an `Arc`:
//!
//! * projection is pointer selection — live columns are picked by cloning
//!   their `Arc`s, no row is rewritten (the ship-cut fast path);
//! * equality, hashing, dedup and join probes are integer operations, since
//!   interning is canonical (`Sym` equality ⇔ [`Value`] equality); dedup
//!   hashes rows where they lie ([`crate::par::RowTable`]), never a copy;
//! * mutation (push, dedup, corruption injection) goes through
//!   `Arc::make_mut`, so shared columns copy-on-write;
//! * a column's size — distinct symbols, dictionary bytes, raw bytes — is
//!   counted in one pass ([`SizeScratch::measure`]) and memoized beside its
//!   symbols, so every relation sharing the column (a projection, a rename,
//!   a clone) prices it without a scan.
//!
//! The column names are one shared [`ColNames`] allocation: a clone, a
//! rename to names the caller already holds ([`Relation::with_columns`]),
//! an adopting `extend` and a whole-relation slice copy no string. The
//! mediator computes each task's output names once, when it builds the task
//! graph, and every relation the task produces shares them.
//!
//! Row-major views ([`Relation::row`], [`Relation::rows_vec`]) materialize
//! on demand for cold paths and tests.

use crate::error::StoreError;
use crate::intern::{self, Reader, Sym};
use crate::table::Table;
use crate::value::Value;
use std::cell::{Cell, RefCell};
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

thread_local! {
    /// Relation sizings on this thread that had to scan payload: a
    /// [`Relation::byte_size`] / [`Relation::wire_bytes`] that found a column
    /// without a memoized size, or a [`Relation::wire_bytes_of`] over a
    /// proper sub-range. Diagnostics only: the memoization regression tests assert
    /// repeated size queries on an unchanged relation do not rescan its
    /// payload. Counted per thread so that a test reading it sees its own
    /// scans and nobody else's.
    static PAYLOAD_SCANS: Cell<u64> = const { Cell::new(0) };

    /// This thread's sizing scratch: allocated on the thread's first sizing,
    /// reused by every later one, freed with the thread.
    static SIZE_SCRATCH: RefCell<SizeScratch> = const { RefCell::new(SizeScratch::at_epoch(0)) };
}

/// Payload scans performed by the calling thread so far (see
/// [`Relation::byte_size`] / [`Relation::wire_bytes`] memoization).
pub fn payload_scans() -> u64 {
    PAYLOAD_SCANS.get()
}

/// What one pass over a symbol column counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColSize {
    /// Distinct symbols in the column.
    pub distinct: usize,
    /// Summed payload width of the distinct symbols, each once.
    pub dict_bytes: usize,
    /// Summed payload width of every cell.
    pub raw_bytes: usize,
}

impl ColSize {
    /// Dictionary-encoded size of a column of `rows` cells: the dictionary
    /// plus one minimal-width code per row (1 byte up to 256 distinct
    /// values, 2 up to 65 536, else 4).
    pub fn wire_bytes(&self, rows: usize) -> usize {
        let code = match self.distinct {
            0..=256 => 1,
            257..=65_536 => 2,
            _ => 4,
        };
        self.dict_bytes + rows * code
    }
}

/// The scratch of the one column-sizing pass: a stamp per arena symbol,
/// addressed directly by [`Sym::index`]. A symbol counts as seen in the
/// current pass iff its stamp equals the pass's epoch, so nothing is cleared
/// between passes — only when the `u32` epoch wraps. Grown to the arena
/// length and never shrunk: 4 B per arena symbol.
#[derive(Debug, Default)]
pub struct SizeScratch {
    stamps: Vec<u32>,
    epoch: u32,
}

impl SizeScratch {
    /// A scratch whose next pass is numbered `epoch + 1`: 0 for a new one
    /// (as [`Default`] gives), just below the wrap in the lifecycle tests.
    #[doc(hidden)]
    pub const fn at_epoch(epoch: u32) -> SizeScratch {
        SizeScratch {
            stamps: Vec::new(),
            epoch,
        }
    }

    /// Counts `col` in one pass, without sorting or copying it. Every symbol
    /// of `col` must have been interned before `reader` was taken.
    pub fn measure(&mut self, col: &[Sym], reader: &Reader) -> ColSize {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamps of 2³² passes ago would read as current.
            self.stamps.fill(0);
            self.epoch = 1;
        }
        if self.stamps.len() < reader.symbols() {
            self.stamps.resize(reader.symbols(), 0);
        }
        let mut size = ColSize::default();
        for &sym in col {
            let width = reader.width(sym);
            size.raw_bytes += width;
            let stamp = &mut self.stamps[sym.index()];
            if *stamp != self.epoch {
                *stamp = self.epoch;
                size.distinct += 1;
                size.dict_bytes += width;
            }
        }
        size
    }
}

/// One column: its symbols and, once asked for, their [`ColSize`]. Shared
/// behind an `Arc` by every relation that holds the column, memo included.
#[derive(Debug, Default)]
struct Column {
    syms: Vec<Sym>,
    size: OnceLock<ColSize>,
}

impl Column {
    fn new(syms: Vec<Sym>) -> Arc<Column> {
        Arc::new(Column {
            syms,
            size: OnceLock::new(),
        })
    }

    /// The symbols for mutation (copy-on-write), forgetting their size.
    fn syms_mut(col: &mut Arc<Column>) -> &mut Vec<Sym> {
        let col = Arc::make_mut(col);
        col.size.take();
        &mut col.syms
    }
}

impl Clone for Column {
    /// A copy is made to be mutated: it starts without a size.
    fn clone(&self) -> Column {
        Column {
            syms: self.syms.clone(),
            size: OnceLock::new(),
        }
    }
}

impl PartialEq for Column {
    fn eq(&self, other: &Column) -> bool {
        self.syms == other.syms
    }
}

impl Eq for Column {}

/// The column names of a relation, shared: cloning them is a pointer copy.
/// Every constructor taking names accepts a `Vec<String>` as well.
pub type ColNames = Arc<[String]>;

/// One symbol column of a relation, shared: cloning it is a pointer copy,
/// and it keeps its memoized size ([`Relation::col_size`]). What
/// [`Relation::shared_col`] hands out and [`Relation::from_shared`] takes.
#[derive(Debug, Clone)]
pub struct SharedCol(Arc<Column>);

impl From<Vec<Sym>> for SharedCol {
    fn from(syms: Vec<Sym>) -> SharedCol {
        SharedCol(Column::new(syms))
    }
}

/// A bag of rows with named columns, stored column-major over interned
/// symbols.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    columns: ColNames,
    cols: Vec<Arc<Column>>,
    len: usize,
}

impl Relation {
    /// An empty relation with the given column names.
    pub fn empty(columns: impl Into<ColNames>) -> Relation {
        let columns = columns.into();
        let cols = columns.iter().map(|_| Arc::default()).collect();
        Relation {
            columns,
            cols,
            len: 0,
        }
    }

    /// Builds a relation, checking that every row has the right arity.
    pub fn new(
        columns: impl Into<ColNames>,
        rows: Vec<Vec<Value>>,
    ) -> Result<Relation, StoreError> {
        let columns = columns.into();
        for row in &rows {
            if row.len() != columns.len() {
                return Err(StoreError::SchemaMismatch {
                    table: "<relation>".to_string(),
                    msg: format!(
                        "row arity {} does not match {} columns",
                        row.len(),
                        columns.len()
                    ),
                });
            }
        }
        let len = rows.len();
        let mut cols: Vec<Vec<Sym>> = columns.iter().map(|_| Vec::with_capacity(len)).collect();
        for row in rows {
            for (c, value) in row.into_iter().enumerate() {
                cols[c].push(intern::intern_owned(value));
            }
        }
        Ok(Relation {
            columns,
            cols: cols.into_iter().map(Column::new).collect(),
            len,
        })
    }

    /// Builds a relation directly from symbol columns (all the same length).
    /// Panics on a column-count or length mismatch; operators whose inputs
    /// are not their own use [`Relation::try_from_columns`].
    pub fn from_columns(columns: impl Into<ColNames>, cols: Vec<Vec<Sym>>) -> Relation {
        Relation::try_from_columns(columns, cols).expect("well-formed symbol columns")
    }

    /// Builds a relation directly from symbol columns, rejecting a column
    /// count that does not match the names and columns of unequal length.
    pub fn try_from_columns(
        columns: impl Into<ColNames>,
        cols: Vec<Vec<Sym>>,
    ) -> Result<Relation, StoreError> {
        Relation::from_shared(columns, cols.into_iter().map(SharedCol::from).collect())
    }

    /// Builds a relation from shared symbol columns (all the same length) —
    /// columns of other relations ([`Relation::shared_col`]) are taken as
    /// they are, memoized sizes included. Rejects a column count that does
    /// not match the names and columns of unequal length.
    pub fn from_shared(
        columns: impl Into<ColNames>,
        cols: Vec<SharedCol>,
    ) -> Result<Relation, StoreError> {
        let columns = columns.into();
        let mismatch = |msg: String| StoreError::SchemaMismatch {
            table: "<relation>".to_string(),
            msg,
        };
        if columns.len() != cols.len() {
            return Err(mismatch(format!(
                "{} symbol columns for {} column names",
                cols.len(),
                columns.len()
            )));
        }
        let len = cols.first().map_or(0, |c| c.0.syms.len());
        if let Some(c) = cols.iter().position(|c| c.0.syms.len() != len) {
            return Err(mismatch(format!(
                "ragged symbol columns: `{}` has {len} rows, `{}` has {}",
                columns[0],
                columns[c],
                cols[c].0.syms.len()
            )));
        }
        Ok(Relation {
            columns,
            cols: cols.into_iter().map(|c| c.0).collect(),
            len,
        })
    }

    /// A relation with the full contents of a stored table: the table's own
    /// columns, shared (a pointer clone per column).
    pub fn from_table(table: &Table) -> Relation {
        table.columnar().clone()
    }

    /// A single-column relation from an iterator of values.
    pub fn single_column(
        name: impl Into<String>,
        values: impl IntoIterator<Item = Value>,
    ) -> Relation {
        let col: Vec<Sym> = values.into_iter().map(intern::intern_owned).collect();
        Relation {
            columns: Arc::new([name.into()]),
            len: col.len(),
            cols: vec![Column::new(col)],
        }
    }

    #[inline]
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The column names as the shared allocation every relation over them
    /// holds.
    #[inline]
    pub fn names(&self) -> &ColNames {
        &self.columns
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The symbol at row `r`, column `c`.
    #[inline]
    pub fn sym(&self, r: usize, c: usize) -> Sym {
        self.cols[c].syms[r]
    }

    /// The value at row `r`, column `c` (resolved from the arena, so the
    /// reference is `'static`).
    #[inline]
    pub fn cell(&self, r: usize, c: usize) -> &'static Value {
        intern::resolve(self.cols[c].syms[r])
    }

    /// The symbol column at position `c`.
    #[inline]
    pub fn col_syms(&self, c: usize) -> &[Sym] {
        &self.cols[c].syms
    }

    /// The column at position `c`, shared (a pointer clone).
    #[inline]
    pub fn shared_col(&self, c: usize) -> SharedCol {
        SharedCol(Arc::clone(&self.cols[c]))
    }

    /// Materializes row `r` as owned values.
    pub fn row(&self, r: usize) -> Vec<Value> {
        self.cols
            .iter()
            .map(|c| intern::resolve(c.syms[r]).clone())
            .collect()
    }

    /// Materializes every row (row-major view for cold paths and tests).
    pub fn rows_vec(&self) -> Vec<Vec<Value>> {
        (0..self.len).map(|r| self.row(r)).collect()
    }

    /// Overwrites one cell. Used by the mediator's chaos layer to apply
    /// seeded wrong-answer corruptions to shipped relations; regular
    /// operators never mutate cells in place.
    pub fn set_cell(&mut self, r: usize, c: usize, value: Value) {
        Column::syms_mut(&mut self.cols[c])[r] = intern::intern_owned(value);
    }

    /// Drops all rows past the first `n` (no-op when `n >= len`), keeping
    /// columns intact — the shape of a stale replica that lags the primary
    /// by the truncated suffix.
    pub fn truncate(&mut self, n: usize) {
        if n >= self.len {
            return;
        }
        for col in &mut self.cols {
            Column::syms_mut(col).truncate(n);
        }
        self.len = n;
    }

    /// Position of a column by name.
    pub fn col(&self, name: &str) -> Result<usize, StoreError> {
        self.columns
            .iter()
            .position(|c| c == name)
            .ok_or_else(|| StoreError::NoSuchColumn {
                table: "<relation>".to_string(),
                column: name.to_string(),
            })
    }

    /// Appends a row. Panics, leaving the relation as it was, when the row
    /// does not have one value per column — in release builds too: a short
    /// row would otherwise grow only the first columns and `len`.
    pub fn push(&mut self, row: Vec<Value>) {
        assert_eq!(row.len(), self.columns.len(), "row arity");
        for (col, value) in self.cols.iter_mut().zip(row) {
            Column::syms_mut(col).push(intern::intern_owned(value));
        }
        self.len += 1;
    }

    /// Appends a row of already-interned symbols; arity-checked like
    /// [`Relation::push`].
    pub fn push_syms(&mut self, row: &[Sym]) {
        assert_eq!(row.len(), self.columns.len(), "row arity");
        for (col, &sym) in self.cols.iter_mut().zip(row) {
            Column::syms_mut(col).push(sym);
        }
        self.len += 1;
    }

    /// Removes row `r`, moving the later rows up one position.
    pub(crate) fn remove_row(&mut self, r: usize) {
        for col in &mut self.cols {
            Column::syms_mut(col).remove(r);
        }
        self.len -= 1;
    }

    /// Appends all rows of `other`; column names must match exactly.
    pub fn extend(&mut self, other: &Relation) -> Result<(), StoreError> {
        if self.columns != other.columns {
            return Err(StoreError::SchemaMismatch {
                table: "<relation>".to_string(),
                msg: format!(
                    "cannot union columns {:?} with {:?}",
                    self.columns, other.columns
                ),
            });
        }
        if self.len == 0 {
            // Pointer adoption: nothing of ours to keep — and the columns
            // bring their memoized sizes with them.
            self.cols = other.cols.clone();
            self.len = other.len;
            return Ok(());
        }
        for (col, theirs) in self.cols.iter_mut().zip(&other.cols) {
            Column::syms_mut(col).extend_from_slice(&theirs.syms);
        }
        self.len += other.len;
        Ok(())
    }

    /// Projects to the named columns (in the given order). Pure pointer
    /// selection: the surviving columns are shared, not copied.
    pub fn project(&self, cols: &[&str]) -> Result<Relation, StoreError> {
        let positions: Vec<usize> = cols
            .iter()
            .map(|&c| self.col(c))
            .collect::<Result<_, _>>()?;
        Ok(self.project_positions(&positions))
    }

    /// Projects to the columns at `positions` (pointer selection; each
    /// column keeps its memoized size). A projection to every column in
    /// order keeps the names' allocation too.
    pub fn project_positions(&self, positions: &[usize]) -> Relation {
        let identity =
            positions.len() == self.arity() && (0..).zip(positions).all(|(i, &p)| i == p);
        let columns = match identity {
            true => Arc::clone(&self.columns),
            false => positions.iter().map(|&i| self.columns[i].clone()).collect(),
        };
        Relation {
            columns,
            cols: positions.iter().map(|&i| self.cols[i].clone()).collect(),
            len: self.len,
        }
    }

    /// Keeps only the rows at `keep` (in the given order), gathering every
    /// column through the index vector.
    pub fn gather(&mut self, keep: &[u32]) {
        for col in &mut self.cols {
            *col = Column::new(crate::par::apply_perm(&col.syms, keep));
        }
        self.len = keep.len();
    }

    /// The flattened row-major symbol image (arity-sized chunks are rows) —
    /// what the whole-relation comparison [`Relation::bag_eq`] sorts. One
    /// allocation total, no per-row key vectors.
    fn flat_syms(&self) -> Vec<Sym> {
        let mut flat = Vec::with_capacity(self.len * self.arity());
        for r in 0..self.len {
            for c in &self.cols {
                flat.push(c.syms[r]);
            }
        }
        flat
    }

    /// Removes duplicate rows, preserving first-occurrence order
    /// (set semantics). Rows are hashed and compared in the columns, where
    /// they lie ([`crate::par::dedup_indices`]).
    pub fn dedup(&mut self) {
        if self.len < 2 {
            return;
        }
        if self.arity() == 0 {
            // Zero-width rows are all equal: one survives.
            self.len = 1;
            return;
        }
        let cols: Vec<&[Sym]> = self.cols.iter().map(|c| c.syms.as_slice()).collect();
        let keep = crate::par::dedup_indices(&cols);
        if keep.len() != self.len {
            self.gather(&keep);
        }
    }

    /// Returns a deduplicated copy.
    pub fn distinct(&self) -> Relation {
        let mut out = self.clone();
        out.dedup();
        out
    }

    /// True if the relation contains `row` (set membership).
    pub fn contains(&self, row: &[Value]) -> bool {
        if row.len() != self.arity() {
            return false;
        }
        let Some(syms) = row.iter().map(intern::lookup).collect::<Option<Vec<Sym>>>() else {
            // A never-interned value equals no stored cell.
            return false;
        };
        (0..self.len).any(|r| self.cols.iter().zip(&syms).all(|(c, &s)| c.syms[r] == s))
    }

    /// Sorts rows lexicographically by value order (canonical form for
    /// comparisons).
    pub fn sort(&mut self) {
        if self.len < 2 {
            return;
        }
        let reader = Reader::snapshot();
        let perm = crate::par::sort_perm(self.len, |a, b| {
            self.cols
                .iter()
                .map(|c| reader.cmp(c.syms[a as usize], c.syms[b as usize]))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        self.gather(&perm);
    }

    /// Bag equality up to row order: same columns, same multiset of rows.
    pub fn bag_eq(&self, other: &Relation) -> bool {
        if self.columns != other.columns || self.len != other.len {
            return false;
        }
        if self.arity() == 0 {
            return true;
        }
        // Any consistent total order works for multiset comparison; raw
        // symbol order avoids arena reads.
        let (fa, fb) = (self.flat_syms(), other.flat_syms());
        let mut a: Vec<&[Sym]> = fa.chunks(self.arity()).collect();
        let mut b: Vec<&[Sym]> = fb.chunks(self.arity()).collect();
        a.sort_unstable();
        b.sort_unstable();
        a == b
    }

    /// Every column's [`ColSize`], from its memo or — for the columns
    /// without one — one [`SizeScratch::measure`] pass each on this thread's
    /// scratch, memoized in the column for every relation that shares it.
    fn col_sizes(&self) -> impl Iterator<Item = ColSize> + '_ {
        let mut reader = None;
        self.cols
            .iter()
            .map(move |col| Self::size_of(col, &mut reader))
    }

    /// [`ColSize`] of the column at position `c`, memoized like
    /// [`Relation::byte_size`]'s.
    pub fn col_size(&self, c: usize) -> ColSize {
        Self::size_of(&self.cols[c], &mut None)
    }

    /// `col`'s memoized size, counted on first ask with `reader` (taken then
    /// if the caller has none yet).
    fn size_of(col: &Column, reader: &mut Option<Reader>) -> ColSize {
        *col.size.get_or_init(|| {
            let reader = reader.get_or_insert_with(|| {
                PAYLOAD_SCANS.set(PAYLOAD_SCANS.get() + 1);
                Reader::snapshot()
            });
            SIZE_SCRATCH.with_borrow_mut(|scratch| scratch.measure(&col.syms, reader))
        })
    }

    /// Total payload size in bytes (for the transfer-cost model, §5.2):
    /// the sum of every cell's value width, as if rows were shipped raw.
    ///
    /// Memoized per column: the first call counts each column that has no
    /// size yet, later calls on the same (unmutated) relation — or on any
    /// relation sharing its columns — are loads. See [`payload_scans`].
    pub fn byte_size(&self) -> usize {
        self.col_sizes().map(|size| size.raw_bytes).sum()
    }

    /// Dictionary-encoded wire size in bytes: per column, the distinct
    /// values' payloads once (the dictionary) plus one minimal-width code
    /// per row ([`ColSize::wire_bytes`]). This is what actually crosses the
    /// wire for a column store and is the quantity the ship-byte accounting
    /// reports.
    ///
    /// Shares [`Relation::byte_size`]'s pass and memo: whichever is asked
    /// first counts the columns, the other adds up what was kept, and
    /// repeated ship decisions over unchanged columns do not rescan them.
    pub fn wire_bytes(&self) -> usize {
        self.wire_bytes_of(0..self.arity(), 0..self.len)
    }

    /// [`Relation::wire_bytes`] of the columns at `positions` over the rows
    /// `rows` (clamped to the relation), as if that projection were sliced
    /// out, counted where it lies: what one shipment — a whole ship image or
    /// one batch of it — puts on the wire. Over every row the columns'
    /// memoized sizes answer, the ones without a size counted in one pass as
    /// the projection's would be; a proper sub-range is counted afresh each
    /// time.
    pub fn wire_bytes_of(
        &self,
        positions: impl IntoIterator<Item = usize>,
        rows: Range<usize>,
    ) -> usize {
        let rows = rows.start.min(self.len)..rows.end.min(self.len);
        let cols = positions.into_iter().map(|c| &self.cols[c]);
        if rows.len() == self.len {
            let mut reader = None;
            let sizes = cols.map(|col| Self::size_of(col, &mut reader));
            return sizes.map(|size| size.wire_bytes(self.len)).sum();
        }
        PAYLOAD_SCANS.set(PAYLOAD_SCANS.get() + 1);
        let reader = Reader::snapshot();
        SIZE_SCRATCH.with_borrow_mut(|scratch| {
            let sizes = cols.map(|col| scratch.measure(&col.syms[rows.clone()], &reader));
            sizes.map(|size| size.wire_bytes(rows.len())).sum()
        })
    }

    /// True once [`Relation::byte_size`] and/or [`Relation::wire_bytes`]
    /// have counted the relation's current columns (diagnostics for the
    /// memoization tests).
    pub fn sizes_memoized(&self) -> bool {
        self.cols.iter().any(|col| col.size.get().is_some())
    }

    /// The rows `[start, start + rows)` as an independent relation. Slicing
    /// the whole relation (`start == 0`, `rows >= len`) is a pointer clone
    /// that keeps the memoized sizes; a proper sub-range copies the column
    /// slices, which start without a size.
    pub fn slice(&self, start: usize, rows: usize) -> Relation {
        let end = start.saturating_add(rows).min(self.len);
        let start = start.min(self.len);
        if start == 0 && end == self.len {
            return self.clone();
        }
        Relation {
            columns: self.columns.clone(),
            cols: self
                .cols
                .iter()
                .map(|col| Column::new(col.syms[start..end].to_vec()))
                .collect(),
            len: end - start,
        }
    }

    /// Replaces the rows `[start, start + rows)` with the rows of
    /// `replacement` (column names must match) — the splice primitive the
    /// incremental mediator uses to patch a re-shipped sub-relation into a
    /// cached store. The result is an independent relation of new columns:
    /// its `wire_bytes`/`byte_size` memos start cold, so spliced contents can
    /// never report stale sizes, while the source relation (and any clones)
    /// keep theirs.
    pub fn splice(
        &self,
        start: usize,
        rows: usize,
        replacement: &Relation,
    ) -> Result<Relation, StoreError> {
        if self.columns != replacement.columns {
            return Err(StoreError::SchemaMismatch {
                table: "<relation>".to_string(),
                msg: format!(
                    "cannot splice columns {:?} into {:?}",
                    replacement.columns, self.columns
                ),
            });
        }
        let start = start.min(self.len);
        let end = start.saturating_add(rows).min(self.len);
        let cols = self
            .cols
            .iter()
            .zip(&replacement.cols)
            .map(|(ours, theirs)| {
                let mut col = Vec::with_capacity(self.len - (end - start) + replacement.len);
                col.extend_from_slice(&ours.syms[..start]);
                col.extend_from_slice(&theirs.syms);
                col.extend_from_slice(&ours.syms[end..]);
                Column::new(col)
            })
            .collect();
        Ok(Relation {
            columns: self.columns.clone(),
            cols,
            len: self.len - (end - start) + replacement.len,
        })
    }

    /// Renames the columns (arity must be unchanged). Names passed as
    /// [`ColNames`] are shared, not copied.
    pub fn with_columns(mut self, columns: impl Into<ColNames>) -> Relation {
        let columns = columns.into();
        assert_eq!(columns.len(), self.columns.len());
        self.columns = columns;
        self
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "({}) [{} rows]", self.columns.join(", "), self.len)?;
        for r in 0..self.len.min(20) {
            let cells: Vec<String> = (0..self.arity())
                .map(|c| self.cell(r, c).to_string())
                .collect();
            writeln!(f, "  ({})", cells.join(", "))?;
        }
        if self.len > 20 {
            writeln!(f, "  … {} more", self.len - 20)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;

    fn rel() -> Relation {
        Relation::new(
            vec!["a".into(), "b".into()],
            vec![
                vec![Value::str("x"), Value::int(1)],
                vec![Value::str("y"), Value::int(2)],
                vec![Value::str("x"), Value::int(1)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn arity_checked() {
        assert!(Relation::new(vec!["a".into()], vec![vec![Value::Null, Value::Null]]).is_err());
    }

    #[test]
    fn project_and_col() {
        let r = rel();
        assert_eq!(r.col("b").unwrap(), 1);
        assert!(r.col("z").is_err());
        let p = r.project(&["b"]).unwrap();
        assert_eq!(p.columns(), &["b".to_string()]);
        assert_eq!(p.row(1), vec![Value::int(2)]);
        // Projection is pointer selection: the column is shared, not copied.
        assert!(Arc::ptr_eq(&r.cols[1], &p.cols[0]));
    }

    #[test]
    fn dedup_preserves_order() {
        let mut r = rel();
        r.dedup();
        assert_eq!(r.len(), 2);
        assert_eq!(r.cell(0, 0), &Value::str("x"));
    }

    #[test]
    fn set_and_bag_equality() {
        let r = rel();
        let mut reordered = rel();
        reordered.sort();
        assert!(r.bag_eq(&reordered));
        assert!(!r.bag_eq(&r.distinct()));
        let renamed = rel().with_columns(vec!["x".into(), "y".into()]);
        assert!(!r.bag_eq(&renamed));
    }

    #[test]
    fn extend_requires_same_columns() {
        let mut r = rel();
        let other = rel();
        r.extend(&other).unwrap();
        assert_eq!(r.len(), 6);
        let renamed = rel().with_columns(vec!["x".into(), "y".into()]);
        assert!(r.extend(&renamed).is_err());
    }

    #[test]
    fn from_table_round_trip() {
        let mut t = Table::new(TableSchema::strings("t", &["a"], &[]));
        t.insert(vec![Value::str("v")]).unwrap();
        let r = Relation::from_table(&t);
        assert_eq!(r.columns(), &["a".to_string()]);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn single_column_and_contains() {
        let r = Relation::single_column("id", [Value::str("a"), Value::str("b")]);
        assert!(r.contains(&[Value::str("a")]));
        assert!(!r.contains(&[Value::str("zz-never-interned-7b1")]));
        assert_eq!(r.byte_size(), 2);
    }

    #[test]
    fn interning_makes_equality_symbolic() {
        let a = rel();
        let b = rel();
        assert_eq!(a, b);
        // Identical cells share a symbol across relations.
        assert_eq!(a.sym(0, 0), b.sym(2, 0));
        assert_ne!(a.sym(0, 0), a.sym(1, 0));
    }

    #[test]
    fn set_cell_copy_on_write() {
        let r = rel();
        let mut p = r.project(&["a", "b"]).unwrap();
        p.set_cell(0, 0, Value::str("corrupted"));
        assert_eq!(p.cell(0, 0), &Value::str("corrupted"));
        // The original column is untouched (copy-on-write).
        assert_eq!(r.cell(0, 0), &Value::str("x"));
    }

    #[test]
    fn wire_bytes_dict_encodes_repeats() {
        // 3 rows, column `a` has 2 distinct strings of width 1 → dict 2 +
        // 3 codes; column `b` has 2 distinct ints (8 bytes) → dict 16 + 3.
        let r = rel();
        assert_eq!(r.wire_bytes(), (2 + 3) + (16 + 3));
        // Raw size counts every cell: 3 strings + 3 ints.
        assert_eq!(r.byte_size(), 3 + 24);
    }

    #[test]
    fn slices_share_or_copy() {
        let r = rel();
        // Whole-relation slice is a pointer clone sharing the size cache.
        let whole = r.slice(0, usize::MAX);
        assert_eq!(whole, r);
        assert!(Arc::ptr_eq(&r.cols[0], &whole.cols[0]));
        // Proper sub-slices copy.
        let tail = r.slice(1, 2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail.row(0), r.row(1));
        assert_eq!(r.slice(5, 1).len(), 0);
    }

    #[test]
    fn sizes_are_memoized_per_generation() {
        let mut r = rel();
        assert!(!r.sizes_memoized());
        let wire = r.wire_bytes();
        let raw = r.byte_size();
        assert!(r.sizes_memoized());
        // Repeated queries are loads, not rescans.
        let before = payload_scans();
        for _ in 0..1000 {
            assert_eq!(r.wire_bytes(), wire);
            assert_eq!(r.byte_size(), raw);
        }
        assert_eq!(
            payload_scans(),
            before,
            "repeated size queries rescanned the payload"
        );
        // Clones share the memoized generation.
        let clone = r.clone();
        assert!(clone.sizes_memoized());
        assert_eq!(clone.wire_bytes(), wire);
        // Mutation starts a fresh generation; the clone keeps its own.
        r.push(vec![Value::str("z"), Value::int(9)]);
        assert!(!r.sizes_memoized());
        assert!(r.wire_bytes() > wire);
        assert!(clone.sizes_memoized());
        assert_eq!(clone.wire_bytes(), wire);
        // The other way round: clone first, mutate the original, then size
        // the clone — the original must not see the clone's sizes.
        let mut original = rel();
        let clone = original.clone();
        original.push(vec![Value::str("z"), Value::int(9)]);
        assert_eq!(clone.wire_bytes(), wire);
        assert!(clone.sizes_memoized() && !original.sizes_memoized());
        assert!(original.wire_bytes() > wire);
        // A uniquely owned column is mutated in place, not reallocated.
        let column = Arc::as_ptr(&original.cols[0]);
        original.push(vec![Value::str("y"), Value::int(8)]);
        assert_eq!(Arc::as_ptr(&original.cols[0]), column);
        assert!(!original.sizes_memoized());
    }

    #[test]
    fn views_that_share_columns_share_their_sizes() {
        let r = rel();
        let (wire, raw) = (r.wire_bytes(), r.byte_size());
        let before = payload_scans();
        // A projection, a rename, an adopting `extend` and a whole-relation
        // slice hold the same columns: all priced, none scanned.
        let b_only = r.project(&["b"]).unwrap();
        assert_eq!(b_only.wire_bytes(), 16 + 3);
        let swapped = r.project_positions(&[1, 0]);
        assert_eq!(swapped.wire_bytes(), wire);
        let renamed = r.clone().with_columns(vec!["x".into(), "y".into()]);
        assert_eq!(renamed.byte_size(), raw);
        let mut adopted = Relation::empty(r.columns().to_vec());
        adopted.extend(&r).unwrap();
        assert_eq!(adopted.wire_bytes(), wire);
        assert_eq!(r.wire_bytes_of(0..2, 0..usize::MAX), wire);
        assert_eq!(r.wire_bytes_of([1], 0..3), b_only.wire_bytes());
        assert_eq!(payload_scans(), before);
        // A proper sub-range is counted in place, as its slice would be.
        assert_eq!(r.wire_bytes_of(0..2, 1..3), r.slice(1, 2).wire_bytes());
        let b_tail = r.slice(1, 2).project(&["b"]).unwrap().wire_bytes();
        assert_eq!(r.wire_bytes_of([1], 1..3), b_tail);
        assert_eq!(r.wire_bytes_of(0..2, 2..2), 0);
        assert_eq!(payload_scans(), before + 5);
        // Mutating one column forgets that column's size only.
        let mut patched = r.clone();
        patched.set_cell(0, 0, Value::str("w"));
        assert!(patched.sizes_memoized());
        assert_eq!(patched.wire_bytes(), wire + 1);
        assert_eq!(payload_scans(), before + 6);
    }

    /// Release builds check row arity too: a short row used to grow only
    /// the first columns and `len`, an index panic waiting in the others.
    #[test]
    fn push_rejects_short_and_long_rows_and_leaves_the_relation_unchanged() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut r = rel();
        let x = r.sym(0, 0);
        for bad in [1, 3] {
            let row = vec![Value::str("x"); bad];
            assert!(catch_unwind(AssertUnwindSafe(|| r.push(row))).is_err());
            let syms = vec![x; bad];
            assert!(catch_unwind(AssertUnwindSafe(|| r.push_syms(&syms))).is_err());
        }
        assert_eq!(r, rel());
        assert!((0..r.arity()).all(|c| r.col_syms(c).len() == r.len()));
        r.push_syms(&[x, x]);
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn try_from_columns_rejects_ragged_and_miscounted_columns() {
        let names = || vec!["a".to_string(), "b".to_string()];
        let (x, y) = (intern::intern(&Value::str("x")), Sym::NULL);
        let ok = Relation::try_from_columns(names(), vec![vec![x, y], vec![y, x]]).unwrap();
        assert_eq!(ok.row(1), vec![Value::Null, Value::str("x")]);
        assert_eq!(
            ok,
            Relation::from_columns(names(), vec![vec![x, y], vec![y, x]])
        );
        for cols in [vec![vec![x, y]], vec![vec![x, y], vec![y]], vec![]] {
            let err = Relation::try_from_columns(names(), cols).unwrap_err();
            assert!(matches!(err, StoreError::SchemaMismatch { .. }), "{err:?}");
        }
        assert!(Relation::try_from_columns(vec![], vec![])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn truncate_drops_suffix() {
        let mut r = rel();
        r.truncate(1);
        assert_eq!(r.len(), 1);
        assert_eq!(r.row(0), vec![Value::str("x"), Value::int(1)]);
        r.truncate(5);
        assert_eq!(r.len(), 1);
    }
}
