//! Developer aid: dumps the contracted cost graph, the unmerged plan and
//! `Merge`'s decisions (all on stderr) for the Large Fig. 10 cell at the
//! unfold depth given as the first argument (default 6). Writes no
//! artifact.

use aig_bench::{dataset, measured_graph};
use aig_datagen::DatasetSize;
use aig_mediator::merge::{merge, no_merge};
use aig_mediator::{render_graph, render_plan};

pub fn run(args: &[String]) {
    let depth = args.first().and_then(|s| s.parse().ok()).unwrap_or(6);
    let data = dataset(DatasetSize::Large);
    let m = measured_graph(data, depth);
    let (cg, network) = (&m.costs, &m.options.network);
    eprint!("{}", render_graph(cg, &m.graph, &data.catalog));
    let base = no_merge(cg, network);
    eprint!("{}", render_plan(cg, &base.plan, network, &data.catalog));
    eprintln!("unmerged response: {:.3}", base.response_secs);
    let overhead = m.options.graph.cost_model.per_query_overhead_secs;
    let merged = merge(cg, network, overhead);
    for d in &merged.decisions {
        eprintln!(
            "merge tasks {:?} + {:?} at {}: {:.3} -> {:.3}",
            d.kept, d.absorbed, d.source, d.cost_before_secs, d.cost_after_secs
        );
    }
    eprintln!("final response: {:.3}", merged.response_secs);
}
