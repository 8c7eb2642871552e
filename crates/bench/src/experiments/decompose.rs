//! Ablation D: specialization statistics — what constraint compilation
//! (§3.3), multi-source decomposition (§3.4) and copy elimination (§4) do to
//! the specification and the task graph.

use aig_bench::{dataset, fig10_options, markdown_table, spec, table_json, Json};
use aig_core::copyelim::census;
use aig_core::{compile_constraints, decompose_queries};
use aig_datagen::DatasetSize;
use aig_mediator::graph::build_graph;
use aig_mediator::unfold::unfold;

const CENSUS_HEADER: [&str; 4] = [
    "stage",
    "query rules (QSR)",
    "copy rules (CSR)",
    "constructors",
];
const GROWTH_HEADER: [&str; 6] = [
    "unfold",
    "element types",
    "materialized",
    "virtual occurrences (copy-eliminated)",
    "tasks",
    "source queries",
];

pub fn run(_: &[String]) -> Json {
    let plain = spec();
    let compiled = compile_constraints(&plain).unwrap();
    let (specialized, report) = decompose_queries(&compiled).unwrap();

    println!("Ablation D: specialization statistics for σ0\n");
    let census_rows: Vec<Vec<String>> = [
        ("plain", census(&plain)),
        ("constraints compiled", census(&compiled)),
        ("queries decomposed", census(&specialized)),
    ]
    .into_iter()
    .map(|(name, c)| {
        vec![
            name.to_string(),
            c.qsr.to_string(),
            c.csr.to_string(),
            c.constructor.to_string(),
        ]
    })
    .collect();
    println!("{}", markdown_table(&CENSUS_HEADER, &census_rows));
    println!(
        "decomposition: {} multi-source quer{} split, {} internal state{} added\n",
        report.decomposed,
        if report.decomposed == 1 { "y" } else { "ies" },
        report.states_added,
        if report.states_added == 1 { "" } else { "s" },
    );

    // Task-graph growth with unfolding depth (copy elimination is built into
    // the graph: virtual elements never materialize — compare task counts to
    // the number of elements to see how much is elided).
    let data = dataset(DatasetSize::Small);
    let mut rows = Vec::new();
    for depth in [2usize, 4, 6] {
        let options = fig10_options(depth, 1.0);
        let unfolded = unfold(&specialized, depth, options.cutoff).unwrap();
        let graph = build_graph(&unfolded.aig, &data.catalog, &options.graph).unwrap();
        let virtual_occurrences = graph.bindings.len() - graph.materialized.len();
        rows.push(vec![
            depth.to_string(),
            unfolded.aig.len().to_string(),
            graph.materialized.len().to_string(),
            virtual_occurrences.to_string(),
            graph.len().to_string(),
            graph.source_query_count.to_string(),
        ]);
    }
    println!("{}", markdown_table(&GROWTH_HEADER, &rows));
    Json::obj(vec![
        ("census", table_json(&CENSUS_HEADER, &census_rows)),
        (
            "decomposition",
            Json::obj(vec![
                ("queries_split", Json::num(report.decomposed as f64)),
                ("states_added", Json::num(report.states_added as f64)),
            ]),
        ),
        ("graph_growth", table_json(&GROWTH_HEADER, &rows)),
    ])
}
