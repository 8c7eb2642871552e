//! Ablation E: dynamic vs static scheduling (the paper's future work,
//! §5.5/§7). The static plan is computed from *estimates*; the dynamic
//! scheduler re-prioritizes at runtime as actual costs become known. Both
//! pay the actual costs. Estimates are perturbed by a seeded multiplicative
//! noise factor to model mis-estimation.

use aig_bench::{dataset, markdown_table, measured_graph, table_json, Json};
use aig_datagen::DatasetSize;
use aig_mediator::schedule::{dynamic_response_time, static_response_on_actuals};
use aig_prng::rngs::StdRng;
use aig_prng::{Rng, SeedableRng};

const HEADER: [&str; 4] = [
    "estimate noise",
    "static (s)",
    "dynamic (s)",
    "static / dynamic",
];
const UNFOLD: usize = 5;

pub fn run(_: &[String]) -> Json {
    let m = measured_graph(dataset(DatasetSize::Medium), UNFOLD);
    let (actual, network) = (&m.costs, &m.options.network);
    let mut rows = Vec::new();
    for noise in [1.0f64, 2.0, 5.0, 10.0] {
        let mut rng = StdRng::seed_from_u64(7);
        let mut est = actual.clone();
        for node in est.nodes.iter_mut() {
            // Multiplicative noise in [1/noise, noise].
            let f = noise.powf(rng.gen_range(-1.0f64..1.0));
            node.eval_secs *= f;
        }
        let static_secs = static_response_on_actuals(&est, actual, network);
        let dynamic_secs = dynamic_response_time(&est, actual, network);
        rows.push(vec![
            format!("{noise}x"),
            format!("{static_secs:.2}"),
            format!("{dynamic_secs:.2}"),
            format!("{:.3}", static_secs / dynamic_secs),
        ]);
    }
    println!("Ablation E: static vs dynamic scheduling under estimate noise");
    println!("(σ0, Medium, unfold {UNFOLD}, 1 Mbps, no merging)\n");
    println!("{}", markdown_table(&HEADER, &rows));
    Json::obj(vec![
        ("unfold", Json::num(UNFOLD as f64)),
        ("rows", table_json(&HEADER, &rows)),
    ])
}
