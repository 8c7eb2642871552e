//! Ablation I: column-liveness pruning at ship boundaries ("ship-cut").
//!
//! On the Fig. 10 workload (Small dataset, unfold 4, 1 Mbps) the pipeline
//! projects every shipped relation down to the columns downstream consumers
//! actually read (and deduplicates for set-semantics consumers), so the
//! measured shipped bytes — and with them the simulated transfer times that
//! drive Schedule and Merge — shrink, while the document stays the
//! conceptual evaluator's.
//!
//! Ship-cut always runs, and one run's report holds both sides: each task's
//! full wire bytes beside its ship-image bytes. The unpruned response is
//! `Merge` over that run's own task graph with every task's output shipped
//! in full and the eval times the pruned run was simulated with, so the two
//! responses differ by the pruning alone.
//!
//! **Cold** rows run the one-shot pipeline; **warm** rows serve the request
//! from a [`Mediator`] with the ship-cut analysis cached inside the
//! prepared plan, so warm requests skip the liveness pass entirely.
//!
//! The gate requires shipped bytes to stay strictly reduced, the document
//! equal to the conceptual evaluation, and the response time with pruning
//! at or under the unpruned one.

use aig_bench::{
    best_cold_run, dataset, fig10_options, markdown_table, spec, table_json, Json, TimedRun,
};
use aig_core::eval::evaluate;
use aig_core::spec::Aig;
use aig_datagen::{DatasetSize, HospitalData};
use aig_mediator::{
    canonical, merge, prepare, unfold, CostGraph, CutOff, Mediator, MediatorOptions, Phases,
    TaskCost,
};
use aig_relstore::Value;
use std::time::Instant;

const UNFOLD: usize = 4;
const WARM_REQUESTS: usize = 4;
/// Repetitions per cold cell; the best response filters scheduler noise
/// (measured per-task eval times feed the simulated response).
const REPEATS: usize = 5;

pub fn run(_: &[String]) -> Json {
    let aig = spec();
    let data = dataset(DatasetSize::Small);
    let args = [("date", Value::str(&data.dates[0]))];
    let options = fig10_options(UNFOLD, 1.0);

    let on = best_cold_run(&aig, data, &options, REPEATS);
    let response_off = unpruned_response(&aig, data, &options, &on);

    // Warm: the service caches the prepared plan (ship-cut analysis
    // included), so requests pay execution only.
    let mediator = Mediator::new(data.catalog.clone(), &options).unwrap();
    mediator.request(&aig, &args).expect("warm-up");
    let warm_start = Instant::now();
    let mut warm_report = None;
    for _ in 0..WARM_REQUESTS {
        let (_, report) = mediator.request(&aig, &args).expect("warm run");
        warm_report = Some(report);
    }
    let warm_per_request = warm_start.elapsed().as_secs_f64() / WARM_REQUESTS as f64;
    let warm = warm_report.expect("ran warm requests").cache;

    // The oracle: the conceptual evaluation of σ0 truncated where the cell
    // truncates it.
    let truncated = unfold(&aig, UNFOLD, CutOff::Truncate).expect("unfold").aig;
    let conceptual = evaluate(&truncated, &data.catalog, &args).expect("conceptual evaluation");
    let docs_identical = canonical(&aig, &on.run.tree) == canonical(&aig, &conceptual.tree);
    let shipcut = &on.report.shipcut;
    let (full, cut, saved) = (
        shipcut.shipped_full_bytes,
        shipcut.shipped_cut_bytes,
        shipcut.saved_bytes,
    );

    println!("Ablation I: ship-cut pruning (Small dataset, unfold {UNFOLD}, 1 Mbps, best of {REPEATS})\n");
    let header = [
        "variant",
        "shipped bytes",
        "saved",
        "response merged (s)",
        "pruned tasks",
    ];
    let rows = vec![
        vec![
            "full outputs".to_string(),
            format!("{full:.0}"),
            "—".to_string(),
            format!("{response_off:.3}"),
            "0".to_string(),
        ],
        vec![
            "ship-cut".to_string(),
            format!("{cut:.0}"),
            format!("{saved:.0}"),
            format!("{:.3}", on.run.response_merged_secs),
            format!("{}", shipcut.pruned_tasks),
        ],
    ];
    println!("{}", markdown_table(&header, &rows));
    println!(
        "shipped bytes {full:.0} -> {cut:.0} ({saved:.0} saved, {:.1}%); \
         document equals the conceptual evaluation: {docs_identical}; \
         cold {:.4}s, warm per-request {warm_per_request:.4}s",
        100.0 * saved / full.max(f64::MIN_POSITIVE),
        on.wall_secs,
    );

    Json::obj(vec![
        ("unfold", Json::num(UNFOLD as f64)),
        ("dataset", Json::str(DatasetSize::Small.name())),
        ("shipped_full_bytes", Json::num(full)),
        ("shipped_cut_bytes", Json::num(cut)),
        ("saved_bytes", Json::num(saved)),
        ("pruned_tasks", Json::num(shipcut.pruned_tasks as f64)),
        ("response_off_secs", Json::num(response_off)),
        ("response_on_secs", Json::num(on.run.response_merged_secs)),
        ("cold_on_wall_secs", Json::num(on.wall_secs)),
        ("warm_per_request_secs", Json::num(warm_per_request)),
        ("docs_identical", Json::Bool(docs_identical)),
        ("warm_cache_hit", Json::Bool(warm.hit && warm.enabled)),
        ("report", on.report.redacted().to_json()),
        ("rows", table_json(&header, &rows)),
    ])
}

/// `Merge` over the task graph of the pruned run `on` with every task's
/// full output on the wire: each task's `out_bytes` is its `wire_bytes`
/// and its eval time the `sim_eval_secs` the pruned run was simulated with.
fn unpruned_response(
    aig: &Aig,
    data: &HospitalData,
    options: &MediatorOptions,
    on: &TimedRun,
) -> f64 {
    let plan = prepare(
        aig,
        &data.catalog,
        on.run.depth,
        &options.plan_options(),
        &options.network,
        &mut Phases::new(),
    )
    .expect("prepare");
    let costs: Vec<TaskCost> = (on.report.tasks.iter())
        .map(|task| TaskCost {
            eval_secs: task.sim_eval_secs,
            out_bytes: task.wire_bytes,
        })
        .collect();
    assert_eq!(costs.len(), plan.graph.len(), "the run's task graph");
    let graph = CostGraph::from_task_graph(&plan.graph, &costs).contract_passthrough();
    let overhead = options.graph.cost_model.per_query_overhead_secs;
    merge(&graph, &options.network, overhead).response_secs
}
