//! Where partitioning a kernel over two threads starts to pay: the
//! measurement `aig_relstore::par::PAR_THRESHOLD` is derived from (the table
//! is in DESIGN.md §4). Each partitioned kernel — first-occurrence dedup and
//! the hash-join probe with its DISTINCT — runs sequentially and split in
//! two, forced either way through the threshold argument, over 2 k … 256 k
//! rows. `speedup` below 1 means the split costs more than it saves at that
//! size on this host.

use aig_bench::microbench::{bench, black_box};
use aig_relstore::par::dedup_indices;
use aig_relstore::{Catalog, Database, Sym, Table, TableSchema, Value};
use aig_sql::{execute_tuned, Params, Query};
use std::time::Duration;

/// Mean time of `f` at one and at two threads, and the line reporting both.
fn pair(kernel: &str, rows: usize, mut f: impl FnMut(usize) -> usize) {
    let budget = Duration::from_millis(150);
    let one = bench(kernel, budget, || f(1)).mean_ns;
    let two = bench(kernel, budget, || f(2)).mean_ns;
    println!(
        "{kernel:<12} {rows:>7} rows  1 thread {:>9.1} us  2 threads {:>9.1} us  speedup {:.2}",
        one / 1e3,
        two / 1e3,
        one / two
    );
}

fn main() {
    let host = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("available_parallelism = {host}");
    for rows in (11..=18).map(|shift| 1usize << shift) {
        // Two symbol columns, every row four times.
        let sym = |i: usize| Sym::from_index(i as u32 + 1);
        let a: Vec<Sym> = (0..rows).map(|i| sym((i * 7919) % (rows / 4))).collect();
        let b: Vec<Sym> = (0..rows)
            .map(|i| sym((i * 7919) % (rows / 4) % 13))
            .collect();
        pair("dedup", rows, |threads| {
            black_box(dedup_indices(&[&a, &b], threads, 1)).len()
        });

        // An equality join, two matches per probing row, then DISTINCT.
        let mut db = Database::new("D");
        for name in ["l", "r"] {
            let mut table = Table::new(TableSchema::strings(name, &["k", "v"], &[]));
            for i in 0..rows {
                let key = Value::str(format!("k{}", (i * 7919) % (rows / 2)));
                table
                    .insert(vec![key, Value::str(format!("v{}", i % 17))])
                    .unwrap();
            }
            db.add_table(table).unwrap();
        }
        let mut catalog = Catalog::new();
        catalog.add_source(db).unwrap();
        let join = "select l.v, r.v, l.k from D:l l, D:r r where l.k = r.k";
        for (kernel, sql) in [
            ("join", join.to_string()),
            ("join+distinct", join.replace("select", "select distinct")),
        ] {
            let query = Query::parse(&sql).unwrap();
            pair(kernel, rows, |threads| {
                let threshold = if threads == 1 { usize::MAX } else { 1 };
                let out = execute_tuned(&query, &catalog, &Params::new(), threads, threshold);
                black_box(out.unwrap()).len()
            });
        }
    }
}
