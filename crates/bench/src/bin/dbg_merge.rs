//! Developer aid: dumps the contracted cost graph and merge decisions for
//! one Fig. 10 cell. Not part of the experiment suite.

use aig_bench::{dataset, fig10_options, spec};
use aig_core::compile_constraints;
use aig_core::decompose_queries;
use aig_datagen::DatasetSize;
use aig_mediator::cost::{measured_costs, CostGraph};
use aig_mediator::exec::{execute_graph, ExecOptions};
use aig_mediator::graph::build_graph;
use aig_mediator::merge::{merge, no_merge};
use aig_mediator::unfold::unfold;
use aig_relstore::Value;

fn main() {
    let unfold_depth: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(6);
    let aig = spec();
    let data = dataset(DatasetSize::Large);
    let options = fig10_options(unfold_depth, 1.0);
    let compiled = compile_constraints(&aig).unwrap();
    let (specialized, _) = decompose_queries(&compiled).unwrap();
    let unfolded = unfold(&specialized, unfold_depth, options.cutoff).unwrap();
    let graph = build_graph(&unfolded.aig, &data.catalog, &options.graph).unwrap();
    let exec = execute_graph(
        &unfolded.aig,
        &data.catalog,
        &graph,
        &[("date", Value::str(&data.dates[0]))],
        &ExecOptions::default(),
    )
    .unwrap();
    let costs = measured_costs(
        &graph,
        &exec.measured,
        options.graph.cost_model.per_query_overhead_secs,
        options.graph.eval_scale,
    );
    let cg = CostGraph::from_task_graph(&graph, &costs).contract_passthrough();
    eprint!("{}", aig_mediator::render_graph(&cg, &graph, &data.catalog));
    let base = no_merge(&cg, &options.network);
    eprint!(
        "{}",
        aig_mediator::render_plan(&cg, &base.plan, &options.network, &data.catalog)
    );
    eprintln!("unmerged response: {:.3}", base.response_secs);
    let overhead = options.graph.cost_model.per_query_overhead_secs;
    let merged = merge(&cg, &options.network, overhead);
    for d in &merged.decisions {
        eprintln!(
            "merge tasks {:?} + {:?} at {}: {:.3} -> {:.3}",
            d.kept, d.absorbed, d.source, d.cost_before_secs, d.cost_after_secs
        );
    }
    eprintln!("final response: {:.3}", merged.response_secs);
}
