//! Table statistics for cost estimation.
//!
//! Paper §5.2 assumes each data source provides a *query costing API*:
//! estimates of processing time (`eval_cost`) and output size (`size`, in
//! tuples and bytes). Our sources derive those estimates from these "basic
//! database statistics": cardinality, per-column distinct counts, and average
//! column widths.

use crate::table::Table;

/// Statistics of one table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Number of rows.
    pub rows: usize,
    /// Distinct value count per column (NULLs counted as one value).
    pub distinct: Vec<usize>,
    /// Average width in bytes per column.
    pub avg_width: Vec<f64>,
}

impl TableStats {
    /// Reads each column's size ([`crate::relation::Relation::col_size`]):
    /// memoized in the column, so only a column written since it was last
    /// counted costs a pass.
    pub fn compute(table: &Table) -> TableStats {
        let rel = table.columnar();
        let rows = table.len();
        let sizes: Vec<_> = (0..rel.arity()).map(|c| rel.col_size(c)).collect();
        TableStats {
            rows,
            distinct: sizes.iter().map(|s| s.distinct).collect(),
            avg_width: sizes
                .iter()
                .map(|s| {
                    if rows == 0 {
                        0.0
                    } else {
                        s.raw_bytes as f64 / rows as f64
                    }
                })
                .collect(),
        }
    }

    /// Average full-row width in bytes.
    pub fn row_width(&self) -> f64 {
        self.avg_width.iter().sum()
    }

    /// Total estimated size in bytes.
    pub fn byte_size(&self) -> f64 {
        self.row_width() * self.rows as f64
    }

    /// Estimated selectivity of an equality predicate on column `col`
    /// against an arbitrary constant: `1 / distinct(col)` (System-R style).
    pub fn eq_selectivity(&self, col: usize) -> f64 {
        let d = self.distinct.get(col).copied().unwrap_or(1).max(1);
        1.0 / d as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;
    use crate::value::Value;

    fn table() -> Table {
        let mut t = Table::new(TableSchema::strings("t", &["a", "b"], &[]));
        t.insert(vec![Value::str("x"), Value::str("1")]).unwrap();
        t.insert(vec![Value::str("x"), Value::str("22")]).unwrap();
        t.insert(vec![Value::str("y"), Value::str("333")]).unwrap();
        t
    }

    #[test]
    fn compute_stats() {
        let s = TableStats::compute(&table());
        assert_eq!(s.rows, 3);
        assert_eq!(s.distinct, vec![2, 3]);
        assert!((s.avg_width[0] - 1.0).abs() < 1e-9);
        assert!((s.avg_width[1] - 2.0).abs() < 1e-9);
        assert!((s.row_width() - 3.0).abs() < 1e-9);
        assert!((s.byte_size() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn selectivity() {
        let s = TableStats::compute(&table());
        assert!((s.eq_selectivity(0) - 0.5).abs() < 1e-9);
        assert!((s.eq_selectivity(1) - (1.0 / 3.0)).abs() < 1e-9);
    }

    /// The columns' sizes give what a scan of the rows with one set of
    /// values per column gave, NULLs and ints included.
    #[test]
    fn column_sizes_match_a_scan_of_the_rows() {
        use crate::schema::Column;
        use std::collections::HashSet;
        let schema = TableSchema::new("t", vec![Column::str("s"), Column::int("i")], &[]).unwrap();
        let mut t = Table::new(schema);
        for k in 0..40i64 {
            let s = if k % 7 == 0 {
                Value::Null
            } else {
                Value::str(format!("s{}", k % 5))
            };
            let i = if k % 3 == 0 {
                Value::Null
            } else {
                Value::int(k % 4)
            };
            t.insert(vec![s, i]).unwrap();
        }
        t.delete(&[Value::str("s1"), Value::int(1)]).unwrap();
        let rows = t.rows();
        let mut sets: Vec<HashSet<&Value>> = vec![HashSet::new(); 2];
        let mut widths = [0usize; 2];
        for row in &rows {
            for (c, v) in row.iter().enumerate() {
                sets[c].insert(v);
                widths[c] += v.width();
            }
        }
        let s = TableStats::compute(&t);
        assert_eq!(s.rows, rows.len());
        assert_eq!(s.distinct, vec![sets[0].len(), sets[1].len()]);
        assert_eq!(s.distinct, vec![6, 5]);
        let avg = widths.map(|w| w as f64 / rows.len() as f64);
        assert_eq!(s.avg_width, avg);
    }

    #[test]
    fn empty_table_stats() {
        let t = Table::new(TableSchema::strings("t", &["a"], &[]));
        let s = TableStats::compute(&t);
        assert_eq!(s.rows, 0);
        assert_eq!(s.distinct, vec![0]);
        assert_eq!(s.row_width(), 0.0);
        // Selectivity guard against division by zero.
        assert_eq!(s.eq_selectivity(0), 1.0);
    }
}
