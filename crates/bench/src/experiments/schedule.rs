//! Ablation A: Algorithm `Schedule` (§5.3) vs a naive per-source topological
//! order. Reports the simulated response time of both plans (no merging), so
//! the benefit of criticality-driven ordering is isolated.

use aig_bench::{dataset, markdown_table, measured_graph, table_json, Json};
use aig_datagen::DatasetSize;
use aig_mediator::cost::response_time;
use aig_mediator::schedule::{naive_plan, schedule};

const HEADER: [&str; 4] = ["dataset", "naive (s)", "Schedule (s)", "naive / Schedule"];
const UNFOLD: usize = 5;

pub fn run(_: &[String]) -> Json {
    let mut rows = Vec::new();
    for size in DatasetSize::ALL {
        let m = measured_graph(dataset(size), UNFOLD);
        let network = &m.options.network;
        let scheduled = response_time(&m.costs, &schedule(&m.costs, network), network);
        let naive = response_time(&m.costs, &naive_plan(&m.costs), network);
        rows.push(vec![
            size.name().to_string(),
            format!("{naive:.2}"),
            format!("{scheduled:.2}"),
            format!("{:.3}", naive / scheduled),
        ]);
    }
    println!("Ablation A: list scheduling (Fig. 8) vs naive topological order");
    println!("(σ0, unfold {UNFOLD}, 1 Mbps, no merging)\n");
    println!("{}", markdown_table(&HEADER, &rows));
    Json::obj(vec![
        ("unfold", Json::num(UNFOLD as f64)),
        ("rows", table_json(&HEADER, &rows)),
    ])
}
