//! The join indexes a stored table keeps ([`Table::join_index`]) against a
//! fresh [`JoinTable::build`] over all of its rows: every probe answers the
//! same rows in the same order, so a join step that probes the kept index
//! produces the relation a fresh build would.
//!
//! * seeded tables with NULL keys, duplicate keys and 1–3 key columns, each
//!   probed with every row's own key and with keys of no row;
//! * every write — `insert`, `delete`, `apply_delta` — drops the index, so a
//!   probe after the write sees it;
//! * a catalog cloned and then written leaves the original's answers (and
//!   its index) as they were;
//! * concurrent first probes build one index and share it;
//! * the index holds at most 20 bytes per row per key list.

use aig_prng::{Rng, SeedableRng, StdRng};
use aig_relstore::intern::{self, Sym};
use aig_relstore::par::JoinTable;
use aig_relstore::{Catalog, Database, SourceDelta, Table, TableSchema, Value};
use std::sync::Arc;

const SEEDS: u64 = 200;

const COLUMNS: [&str; 4] = ["k0", "k1", "k2", "payload"];

/// A keyless table of `rows` rows over a small pool: duplicate keys
/// throughout and NULL in about one cell in five.
fn random_table(rng: &mut StdRng, rows: usize) -> Table {
    let mut table = Table::new(TableSchema::strings("t", &COLUMNS, &[]));
    let distinct = rng.gen_range(1..12u32);
    for _ in 0..rows {
        let row = COLUMNS
            .iter()
            .map(|_| match rng.gen_bool(0.2) {
                true => Value::Null,
                false => Value::str(format!("v{}", rng.gen_range(0..distinct))),
            })
            .collect();
        table.insert(row).unwrap();
    }
    table
}

/// The rows of `table` whose columns at `key_cols` hold `key`, through the
/// table's kept index.
fn probe(table: &Table, key_cols: &[usize], key: &[Sym]) -> Vec<u32> {
    let index = table.join_index(key_cols);
    let cols = key_cols.iter().map(|&c| table.columnar().col_syms(c));
    let kept = JoinTable::over(cols.collect(), &index);
    kept.matches(|c| key[c]).collect()
}

/// The same probe through a join table built afresh over every row.
fn probe_fresh(table: &Table, key_cols: &[usize], key: &[Sym]) -> Vec<u32> {
    let cols = key_cols.iter().map(|&c| table.columnar().col_syms(c));
    let all: Vec<u32> = (0..table.len() as u32).collect();
    let fresh = JoinTable::build(cols.collect(), &all);
    fresh.matches(|c| key[c]).collect()
}

fn key_of(table: &Table, key_cols: &[usize], row: usize) -> Vec<Sym> {
    let rel = table.columnar();
    key_cols.iter().map(|&c| rel.sym(row, c)).collect()
}

#[test]
fn a_kept_index_answers_every_probe_as_a_fresh_build() {
    let never = intern::intern(&Value::str("a key of no row"));
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = rng.gen_range(0..160usize);
        let table = random_table(&mut rng, rows);
        let mut lists = 0;
        for _ in 0..3 {
            // 1–3 distinct key columns in a random order.
            let mut key_cols = vec![0, 1, 2, 3];
            rng.shuffle(&mut key_cols);
            key_cols.truncate(rng.gen_range(1..4usize));
            let first = table.join_index(&key_cols);
            lists += 1;
            let mut keys: Vec<Vec<Sym>> = (0..rows).map(|r| key_of(&table, &key_cols, r)).collect();
            keys.push(vec![never; key_cols.len()]);
            keys.push(vec![Sym::NULL; key_cols.len()]);
            for key in &keys {
                let (kept, fresh) = (
                    probe(&table, &key_cols, key),
                    probe_fresh(&table, &key_cols, key),
                );
                assert_eq!(
                    kept, fresh,
                    "seed {seed}, key columns {key_cols:?}, key {key:?}"
                );
                if key.iter().any(|s| s.is_null()) {
                    assert!(kept.is_empty(), "seed {seed}: a NULL key joined");
                }
            }
            // Built once: later probes read the same index.
            assert!(Arc::ptr_eq(&first, &table.join_index(&key_cols)));
        }
        assert!(
            table.index_bytes() <= 20 * rows.max(4) * lists,
            "seed {seed}: {} index bytes for {rows} rows and {lists} key lists",
            table.index_bytes()
        );
    }
}

#[test]
fn every_write_drops_the_index() {
    let mut table = Table::new(TableSchema::strings("t", &["k", "v"], &[]));
    for (k, v) in [("a", "1"), ("b", "2"), ("a", "3")] {
        table.insert(vec![Value::str(k), Value::str(v)]).unwrap();
    }
    let a = [intern::intern(&Value::str("a"))];
    assert_eq!(probe(&table, &[0], &a), [0, 2]);
    let before = table.join_index(&[0]);

    table
        .insert(vec![Value::str("a"), Value::str("4")])
        .unwrap();
    assert!(!Arc::ptr_eq(&before, &table.join_index(&[0])));
    assert_eq!(probe(&table, &[0], &a), [0, 2, 3]);

    table.delete(&[Value::str("a"), Value::str("1")]).unwrap();
    assert_eq!(probe(&table, &[0], &a), [1, 2]);
    assert_eq!(probe(&table, &[0], &a), probe_fresh(&table, &[0], &a));

    // A δ writes through the same two calls.
    let mut catalog = Catalog::new();
    let mut db = Database::new("D");
    db.add_table(table).unwrap();
    catalog.add_source(db).unwrap();
    let before = catalog.table("D", "t").unwrap().join_index(&[0]);
    let delta = SourceDelta::new()
        .insert("D", "t", vec![vec![Value::str("a"), Value::str("5")]])
        .delete("D", "t", vec![vec![Value::str("b"), Value::str("2")]]);
    catalog.apply_delta(&delta).unwrap();
    let table = catalog.table("D", "t").unwrap();
    assert!(!Arc::ptr_eq(&before, &table.join_index(&[0])));
    assert_eq!(probe(table, &[0], &a), [0, 1, 2]);
    assert_eq!(probe(table, &[0], &a), probe_fresh(table, &[0], &a));
}

#[test]
fn a_cloned_catalog_written_leaves_the_original_answering_as_before() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut catalog = Catalog::new();
    let mut db = Database::new("D");
    db.add_table(random_table(&mut rng, 120)).unwrap();
    catalog.add_source(db).unwrap();
    let table = catalog.table("D", "t").unwrap();
    let key_cols = [1, 0];
    let keys: Vec<Vec<Sym>> = (0..table.len())
        .map(|r| key_of(table, &key_cols, r))
        .collect();
    let answers: Vec<Vec<u32>> = keys.iter().map(|k| probe(table, &key_cols, k)).collect();
    let index = table.join_index(&key_cols);

    let mut copy = catalog.clone();
    let first_row = table.rows().swap_remove(0);
    let delta = SourceDelta::new()
        .insert("D", "t", vec![first_row.clone(), first_row.clone()])
        .delete("D", "t", vec![first_row]);
    copy.apply_delta(&delta).unwrap();

    let table = catalog.table("D", "t").unwrap();
    assert!(Arc::ptr_eq(&index, &table.join_index(&key_cols)));
    for (key, answer) in keys.iter().zip(&answers) {
        assert_eq!(&probe(table, &key_cols, key), answer);
    }
    let written = copy.table("D", "t").unwrap();
    assert_eq!(written.len(), table.len() + 1);
    assert!(!Arc::ptr_eq(&index, &written.join_index(&key_cols)));
    for key in &keys {
        assert_eq!(
            probe(written, &key_cols, key),
            probe_fresh(written, &key_cols, key)
        );
    }
}

#[test]
fn concurrent_first_probes_share_one_index() {
    let mut rng = StdRng::seed_from_u64(11);
    let table = random_table(&mut rng, 500);
    let key = key_of(&table, &[2], 0);
    let expected = probe_fresh(&table, &[2], &key);
    let indexes: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    assert_eq!(probe(&table, &[2], &key), expected);
                    table.join_index(&[2])
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    assert!(indexes.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
}
