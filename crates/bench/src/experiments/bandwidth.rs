//! Ablation B: merging gain vs network bandwidth. The paper ran Fig. 10 at
//! 1 Mbps; this sweep shows how the gain shifts as communication costs
//! shrink relative to per-query overheads.

use aig_bench::{dataset, fig10_run, markdown_table, spec, table_json, Json};
use aig_datagen::DatasetSize;

const HEADER: [&str; 5] = ["Mbps", "unmerged (s)", "merged (s)", "ratio", "merges"];
const UNFOLD: usize = 5;

pub fn run(_: &[String]) -> Json {
    let aig = spec();
    let data = dataset(DatasetSize::Large);
    let mut rows = Vec::new();
    for mbps in [0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0] {
        let (run, _) = fig10_run(&aig, data, UNFOLD, mbps);
        rows.push(vec![
            format!("{mbps}"),
            format!("{:.2}", run.response_unmerged_secs),
            format!("{:.2}", run.response_merged_secs),
            format!("{:.2}", run.merging_speedup()),
            run.merges.to_string(),
        ]);
    }
    println!("Ablation B: merging gain vs bandwidth (Large, unfold {UNFOLD})\n");
    println!("{}", markdown_table(&HEADER, &rows));
    Json::obj(vec![
        ("unfold", Json::num(UNFOLD as f64)),
        ("rows", table_json(&HEADER, &rows)),
    ])
}
