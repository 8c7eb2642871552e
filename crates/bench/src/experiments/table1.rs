//! **Table 1** of the paper: cardinalities of the hospital tables for the
//! small/medium/large datasets, plus the procedure self-join sizes the
//! paper quotes for Large (§6).

use aig_bench::{dataset, markdown_table, table_json, Json};
use aig_datagen::DatasetSize;

const HEADER: [&str; 7] = [
    "dataset",
    "patient",
    "visitInfo",
    "cover",
    "billing",
    "treatment",
    "procedure",
];

pub fn run(_: &[String]) -> Json {
    let mut rows = Vec::new();
    for size in DatasetSize::ALL {
        let cardinalities = dataset(size).cardinalities().expect("cardinalities");
        let mut row = vec![size.name().to_string()];
        row.extend(cardinalities.iter().map(usize::to_string));
        rows.push(row);
    }
    println!("Table 1: cardinalities of tables for different datasets\n");
    println!("{}", markdown_table(&HEADER, &rows));
    let large = dataset(DatasetSize::Large);
    let j3 = large.procedure_self_join(3).expect("join");
    let j4 = large.procedure_self_join(4).expect("join");
    println!("procedure self-joins (Large): 3-way = {j3}, 4-way = {j4}");
    println!("(paper: 3-way = 4055, 4-way = 6837)");
    Json::obj(vec![
        ("cardinalities", table_json(&HEADER, &rows)),
        (
            "procedure_self_joins_large",
            Json::obj(vec![
                ("three_way", Json::num(j3 as f64)),
                ("four_way", Json::num(j4 as f64)),
            ]),
        ),
    ])
}
