//! Property suite for source-delta application and sub-relation splicing:
//! inserting rows and then deleting the same rows is an identity on the
//! table (content, key index, columnar image, size accounting), and
//! splicing a sub-relation into a cached relation preserves wire
//! accounting while starting a fresh `wire_bytes` memo generation.

use aig_prng::{Rng, SeedableRng, StdRng};
use aig_relstore::{
    payload_scans, Catalog, Database, Relation, Row, SourceDelta, Table, TableSchema, Value,
};

fn random_row(rng: &mut StdRng, i: usize) -> Row {
    vec![
        Value::str(format!("k{i:04}")),
        Value::str(format!("v{}", rng.gen_range(0..9u32))),
        if rng.gen_bool(0.3) {
            Value::Null
        } else {
            Value::str(format!("d{}", rng.gen_range(0..4u32)))
        },
    ]
}

fn random_catalog(rng: &mut StdRng, rows: usize) -> Catalog {
    let mut c = Catalog::new();
    let mut db = Database::new("DB1");
    let mut keyed = Table::new(TableSchema::strings("keyed", &["id", "v", "d"], &["id"]));
    let mut bag = Table::new(TableSchema::strings("bag", &["id", "v", "d"], &[]));
    for i in 0..rows {
        keyed.insert(random_row(rng, i)).unwrap();
        let j = rng.gen_range(0..20usize);
        let r = random_row(rng, j);
        bag.insert(r.clone()).unwrap();
        if rng.gen_bool(0.3) {
            bag.insert(r).unwrap(); // duplicates: delete must pick one
        }
    }
    db.add_table(keyed).unwrap();
    db.add_table(bag).unwrap();
    c.add_source(db).unwrap();
    c
}

fn snapshot(c: &Catalog, table: &str) -> (Vec<Row>, usize, usize) {
    let t = c.table("DB1", table).unwrap();
    let rel = t.columnar();
    (t.rows().to_vec(), rel.byte_size(), rel.wire_bytes())
}

#[test]
fn insert_then_delete_of_same_rows_is_identity() {
    let mut rng = StdRng::seed_from_u64(0xde17_a001);
    for case in 0..30 {
        let rows = rng.gen_range(1..40usize);
        let mut c = random_catalog(&mut rng, rows);
        let before_keyed = snapshot(&c, "keyed");
        let before_bag = snapshot(&c, "bag");
        let fp = c.schema_fingerprint();

        let fresh: Vec<Row> = (0..rng.gen_range(1..10usize))
            .map(|i| random_row(&mut rng, 1000 + i))
            .collect();
        // One delta carrying both directions: inserts apply first.
        let both = SourceDelta::new()
            .insert("DB1", "keyed", fresh.clone())
            .insert("DB1", "bag", fresh.clone())
            .delete("DB1", "keyed", fresh.clone())
            .delete("DB1", "bag", fresh.clone());
        let applied = c.apply_delta(&both).unwrap();
        assert_eq!(applied.inserted, 2 * fresh.len(), "case {case}");
        assert_eq!(applied.deleted, 2 * fresh.len(), "case {case}");

        for (table, before) in [("keyed", &before_keyed), ("bag", &before_bag)] {
            let after = snapshot(&c, table);
            assert_eq!(after.0, before.0, "case {case}: {table} rows");
            assert_eq!(after.1, before.1, "case {case}: {table} byte_size");
            assert_eq!(after.2, before.2, "case {case}: {table} wire_bytes");
        }
        assert_eq!(fp, c.schema_fingerprint(), "case {case}: schema untouched");
        // The key index survived the round trip.
        let t = c.table("DB1", "keyed").unwrap();
        for row in t.rows() {
            assert_eq!(
                t.get_by_key(&[row[0].clone()]).unwrap(),
                row,
                "case {case}: pk lookup"
            );
        }
    }
}

#[test]
fn delete_removes_last_duplicate_so_round_trips_compose() {
    // [a, b, a] + insert(a) → [a, b, a, a]; deleting `a` must drop the
    // *last* occurrence to restore [a, b, a] exactly (positions included).
    let mut t = Table::new(TableSchema::strings("dup", &["x"], &[]));
    for v in ["a", "b", "a"] {
        t.insert(vec![Value::str(v)]).unwrap();
    }
    t.insert(vec![Value::str("a")]).unwrap();
    t.delete(&[Value::str("a")]).unwrap();
    let rows = t.rows();
    let got: Vec<&str> = rows.iter().map(|r| r[0].as_str().unwrap()).collect();
    assert_eq!(got, vec!["a", "b", "a"]);
}

/// Seeded random insert / delete sequences, failing ones included, against
/// a `Vec<Row>` that does what the table promises: append unless the key is
/// taken, remove the last equal row or fail. After every step the table's
/// rows, length, key lookups and scanned columns equal the reference's.
#[test]
fn writes_match_a_row_vector_model() {
    let mut rng = StdRng::seed_from_u64(0xde17_a003);
    for case in 0..40 {
        let keyed = case % 2 == 0;
        let key: &[&str] = if keyed { &["id", "v"] } else { &[] };
        let mut t = Table::new(TableSchema::strings("t", &["id", "v", "d"], key));
        let mut model: Vec<Row> = Vec::new();
        // A small domain, so that keys collide and keyless rows repeat.
        let ids = rng.gen_range(2..12usize);
        for step in 0..120 {
            let id = rng.gen_range(0..ids);
            let candidate = random_row(&mut rng, id);
            let delete = !model.is_empty() && rng.gen_bool(0.4);
            let row = if delete && rng.gen_bool(0.8) {
                model[rng.gen_range(0..model.len())].clone()
            } else {
                candidate
            };
            let at = format!("case {case} step {step}");
            if delete {
                let expected = model.iter().rposition(|r| *r == row);
                assert_eq!(t.delete(&row).is_ok(), expected.is_some(), "{at}: delete");
                if let Some(pos) = expected {
                    model.remove(pos);
                }
            } else {
                let taken = keyed && model.iter().any(|r| r[..2] == row[..2]);
                assert_eq!(t.insert(row.clone()).is_ok(), !taken, "{at}: insert");
                if !taken {
                    model.push(row);
                }
            }
            assert_eq!(t.len(), model.len(), "{at}: len");
            assert_eq!(t.rows(), model, "{at}: rows");
            assert_eq!(t.columnar().rows_vec(), model, "{at}: columns");
            assert_eq!(t.columnar().len(), model.len(), "{at}: column length");
            for r in model.iter().take(4) {
                let found = t.get_by_key(&r[..2]);
                assert_eq!(found.as_ref(), keyed.then_some(r), "{at}: key lookup");
            }
        }
    }
}

#[test]
fn splice_preserves_wire_accounting_and_resets_the_memo() {
    let mut rng = StdRng::seed_from_u64(0xde17_a002);
    for case in 0..25 {
        let rows = rng.gen_range(2..80usize);
        let mut rel = Relation::empty(vec!["id".into(), "v".into()]);
        for i in 0..rows {
            rel.push(vec![
                Value::str(format!("r{i}")),
                Value::str(format!("v{}", rng.gen_range(0..7u32))),
            ]);
        }
        // Warm the memo on the cached relation, as the mediator's snapshot
        // store would have after a full run.
        let cached_wire = rel.wire_bytes();
        let start = rng.gen_range(0..rows);
        let cut = rng.gen_range(0..rows - start + 1);
        let mut replacement = Relation::empty(rel.columns().to_vec());
        for i in 0..rng.gen_range(0..30usize) {
            replacement.push(vec![
                Value::str(format!("n{case}_{i}")),
                Value::str(format!("v{}", rng.gen_range(0..7u32))),
            ]);
        }

        let scans_before = payload_scans();
        let spliced = rel.splice(start, cut, &replacement).unwrap();
        assert_eq!(
            payload_scans(),
            scans_before,
            "case {case}: splicing itself must not rescan any payload"
        );
        // Fresh generation: the spliced result never inherits the cached
        // relation's (now wrong-sized) memo.
        assert!(!spliced.sizes_memoized(), "case {case}: memo reset");
        assert_eq!(spliced.len(), rows - cut + replacement.len());

        // Wire accounting is preserved: the spliced relation reports
        // exactly what a from-scratch relation with the same content does.
        let mut scratch = Relation::empty(rel.columns().to_vec());
        scratch.extend(&rel.slice(0, start)).unwrap();
        scratch.extend(&replacement).unwrap();
        scratch
            .extend(&rel.slice(start + cut, rows - start - cut))
            .unwrap();
        assert_eq!(spliced, scratch, "case {case}: content");
        assert_eq!(
            spliced.wire_bytes(),
            scratch.wire_bytes(),
            "case {case}: wire bytes"
        );
        assert_eq!(
            spliced.byte_size(),
            scratch.byte_size(),
            "case {case}: raw bytes"
        );
        // The source relation keeps its own (still valid) memo.
        assert!(rel.sizes_memoized(), "case {case}: source memo survives");
        assert_eq!(rel.wire_bytes(), cached_wire);
    }
}

#[test]
fn splice_rejects_mismatched_columns() {
    let rel = Relation::empty(vec!["a".into()]);
    let other = Relation::empty(vec!["b".into()]);
    assert!(rel.splice(0, 0, &other).is_err());
}
