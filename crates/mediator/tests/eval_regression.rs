//! Evaluation-count regression test of the scheduling machinery on the
//! request path, beside `alloc_regression.rs`: how often the `ℓevel` pass and
//! the full `cost(Schedule(G))` evaluation run, read from
//! `aig_mediator::cost::evaluations`.
//!
//! * A dynamic round computes its priorities **once**. The scheduler this
//!   replaces re-ran `levels` over all tasks at every pick that followed a
//!   completion or a shipped batch — hundreds of passes a request, under the
//!   store mutex, none of which could change a pick (`plan_props` holds the
//!   property).
//! * `Merge` tries a candidate with **at most one** full evaluation, and with
//!   none when the candidate's critical path alone exceeds the best cost so
//!   far.
//! * `prepare` and `deepen` evaluate **nothing**: the optimizer runs on the
//!   measured costs of an execution, never on the estimates of a plan.
//!
//! One test only: the counters are process-wide, so that passes on the
//! executor's worker threads are seen.

use aig_core::paper::sigma0;
use aig_core::{compile_constraints, decompose_queries};
use aig_datagen::HospitalConfig;
use aig_mediator::cost::{estimated_costs, evaluations, CostGraph, CostNode};
use aig_mediator::graph::{build_graph, GraphOptions};
use aig_mediator::merge::merge;
use aig_mediator::obs::Phases;
use aig_mediator::parallel::execute_graph_parallel;
use aig_mediator::plan::{deepen, prepare, PlanOptions};
use aig_mediator::schedule::schedule;
use aig_mediator::unfold::{unfold, CutOff};
use aig_mediator::{ExecOptions, NetworkModel};
use aig_relstore::{SourceId, Value};

/// `(ℓevel passes, full evaluations)` that `f` performs.
fn counted<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let before = evaluations();
    let out = f();
    let after = evaluations();
    (out, (after.0 - before.0, after.1 - before.1))
}

#[test]
fn scheduling_evaluates_once_per_round_and_at_most_once_per_candidate() {
    let aig = sigma0().unwrap();
    let compiled = compile_constraints(&aig).unwrap();
    let (specialized, _) = decompose_queries(&compiled).unwrap();
    let unfolded = unfold(&specialized, 6, CutOff::Truncate).unwrap();
    let data = HospitalConfig::tiny(7).generate().unwrap();
    let options = GraphOptions::default();
    let graph = build_graph(&unfolded.aig, &data.catalog, &options).unwrap();
    let net = NetworkModel::mbps(1.0);
    let estimates = CostGraph::from_task_graph(&graph, &estimated_costs(&graph));
    let plan = schedule(&estimates, &net).per_source;
    let args = [("date", Value::str(&data.dates[0]))];

    // A per-source σ0 request, shipped a row per batch so that every task
    // reports many: one round, one level pass, nothing scheduled or priced.
    let mut opts = ExecOptions::default();
    (opts.policy.batching, opts.policy.batch_rows) = (true, 1);
    let run = || execute_graph_parallel(&unfolded.aig, &data.catalog, &graph, &args, &opts, &plan);
    let (result, passes) = counted(run);
    let result = result.unwrap();
    assert_eq!(result.sched.picks.len(), graph.tasks.len());
    assert!(result.batch.total_batches > graph.tasks.len() as u64);
    assert_eq!(result.faults.replans, 0);
    assert_eq!(passes, (1, 0), "level passes, full evaluations");

    // `Merge` on σ0's estimates: per level pass at most one full evaluation,
    // the two passes that are not candidates (the current plan's cost before
    // the first round, the final plan's schedule) included.
    let contracted = estimates.contract_passthrough();
    let overhead = options.cost_model.per_query_overhead_secs;
    let (merged, (levels, full)) = counted(|| merge(&contracted, &net, overhead));
    assert!(merged.merges > 0, "σ0 has mergeable queries");
    assert!(full < levels, "{full} full evaluations in {levels} passes");

    // A candidate the bound rules out is never scheduled. `p` (S2, 10 s)
    // feeds `v` (S1); `u` (S1) feeds `c` (S3, 10 s): side by side they
    // finish in 11 s. Merging `u` and `v` would make `c` wait for `p`: a
    // critical path of 10 + 2 + 10 s, out of reach whatever the schedule.
    let node = |source, eval_secs, id| CostNode {
        source: SourceId(source),
        eval_secs,
        mergeable: true,
        passthrough: false,
        members: vec![id],
    };
    let crossed = CostGraph {
        nodes: vec![
            node(2, 10.0, 0),
            node(1, 1.0, 1),
            node(1, 1.0, 2),
            node(3, 10.0, 3),
        ],
        deps: vec![vec![], vec![(0, 0.0)], vec![], vec![(2, 0.0)]],
    };
    let (kept, passes) = counted(|| merge(&crossed, &NetworkModel::infinite(), 0.5));
    assert_eq!((kept.merges, kept.response_secs), (0, 11.0));
    // Three passes — the plan as it is, the one candidate, the final
    // schedule — and only the first went on to a full evaluation.
    assert_eq!(passes, (3, 1), "level passes, full evaluations");

    // Preparing σ0, and deepening the plan, schedules and merges nothing.
    let (catalog, phases) = (&data.catalog, &mut Phases::new());
    let prepared = || prepare(&aig, catalog, 3, &PlanOptions::default(), &net, phases);
    let (shallow, passes) = counted(prepared);
    let shallow = shallow.unwrap();
    assert_eq!(passes, (0, 0), "prepare: level passes, full evaluations");
    let (deep, passes) = counted(|| deepen(&shallow, catalog, 6, phases).unwrap());
    assert_eq!(passes, (0, 0), "deepen: level passes, full evaluations");
    assert!(deep.graph.len() > shallow.graph.len());
}
