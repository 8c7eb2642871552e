//! Micro-benchmarks for the optimization phase: Algorithm `Schedule` (§5.3)
//! and Algorithm `Merge` (§5.4) on σ0's dependency graph (small dataset,
//! unfold 3) — the compile-time cost the paper bounds at O(n^5).

use aig_bench::microbench::{black_box, run};
use aig_bench::{dataset, measured_graph};
use aig_datagen::DatasetSize;
use aig_mediator::graph::build_graph;
use aig_mediator::merge::merge;
use aig_mediator::schedule::schedule;

fn main() {
    let data = dataset(DatasetSize::Small);
    let m = measured_graph(data, 3);
    let network = &m.options.network;

    run("schedule_sigma0_small_u3", || {
        black_box(schedule(black_box(&m.costs), network))
    });
    run("merge_sigma0_small_u3", || {
        black_box(merge(black_box(&m.costs), network, 1.0))
    });
    run("graph_build_sigma0_small_u3", || {
        black_box(build_graph(&m.unfolded, &data.catalog, &m.options.graph).unwrap())
    });
}
