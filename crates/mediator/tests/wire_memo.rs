//! Regression test for wire-size memoization at the mediator level: the
//! merge search and the scheduler consult relation sizes over and over
//! (every candidate merge re-prices every edge), so `Relation::wire_bytes`
//! / `byte_size` must scan a payload **once** and answer from the memo
//! afterwards. The scan counter is per thread and every run below uses the
//! sequential executor, so the deltas are this test's own.
//!
//! Beside it, the claim the memo prices: on the Fig. 10 workload the
//! dictionary-encoded wire form of the shipped outputs is smaller than
//! their raw row-major bytes.

use aig_core::paper::{mini_hospital_catalog, sigma0};
use aig_core::{compile_constraints, decompose_queries};
use aig_datagen::{DatasetSize, HospitalConfig};
use aig_mediator::cost::{measured_costs, response_time, CostGraph};
use aig_mediator::exec::{execute_graph, ExecOptions};
use aig_mediator::graph::{build_graph, GraphOptions};
use aig_mediator::schedule::schedule;
use aig_mediator::unfold::{unfold, CutOff};
use aig_mediator::{run_with_report, MediatorOptions, NetworkModel};
use aig_relstore::{payload_scans, Value};

#[test]
fn repeated_merge_and_schedule_queries_never_rescan_payloads() {
    let aig = sigma0().unwrap();
    let catalog = mini_hospital_catalog().unwrap();
    let compiled = compile_constraints(&aig).unwrap();
    let (specialized, _) = decompose_queries(&compiled).unwrap();
    let unfolded = unfold(&specialized, 3, CutOff::Truncate).unwrap();
    let graph = build_graph(&unfolded.aig, &catalog, &GraphOptions::default()).unwrap();
    let args = [("date", Value::str("d1"))];
    let exec = execute_graph(
        &unfolded.aig,
        &catalog,
        &graph,
        &args,
        &ExecOptions::default(),
    )
    .unwrap();

    // Execution shipped every output, which prices it — so the sizes are
    // already memoized by the time planning would re-ask.
    let outputs: Vec<_> = graph
        .tasks
        .iter()
        .filter_map(|t| t.output.as_ref())
        .map(|key| exec.store.get(key).unwrap())
        .collect();
    assert!(!outputs.is_empty());
    for rel in &outputs {
        assert!(
            rel.sizes_memoized(),
            "shipping should have priced this output already"
        );
    }

    // The hot loop the memo exists for: repeated cost/merge/schedule
    // pricing over the same store. Not one additional payload scan.
    let net = NetworkModel::mbps(8.0);
    let before = payload_scans();
    for _ in 0..50 {
        let _wire: usize = outputs.iter().map(|r| r.wire_bytes()).sum();
        let _raw: usize = outputs.iter().map(|r| r.byte_size()).sum();
        let costs = measured_costs(&graph, &exec.measured, 0.001, 1.0);
        let cg = CostGraph::from_task_graph(&graph, &costs);
        let plan = schedule(&cg, &net);
        let _ = response_time(&cg, &plan, &net);
    }
    assert_eq!(
        payload_scans() - before,
        0,
        "planning queries rescanned payloads despite the memo"
    );

    // Full-pipeline bound: a complete mediator run (merge search included)
    // builds each relation once and may price its pruned ship image
    // separately, but must stay linear in the number of relations — a
    // quadratic merge search that rescans per candidate would blow far
    // past this.
    let options = MediatorOptions::default();
    let before_run = payload_scans();
    let (_, report) = run_with_report(&aig, &catalog, &args, &options).unwrap();
    let first_run = payload_scans() - before_run;
    let before_rerun = payload_scans();
    let (_, rerun) = run_with_report(&aig, &catalog, &args, &options).unwrap();
    let second_run = payload_scans() - before_rerun;
    assert_eq!(report.tasks.len(), rerun.tasks.len());
    let ceiling = 4 * report.tasks.len() as u64 + 8;
    assert!(
        first_run <= ceiling && second_run <= ceiling,
        "mediator run scanned payloads {first_run} / {second_run} times for {} tasks \
         (ceiling {ceiling}); the merge/schedule path is rescanning",
        report.tasks.len()
    );
}

/// Fig. 10's Small / unfold-4 cell: summed over every output that crosses
/// a source boundary, the dictionary-encoded wire bytes stay below the raw
/// row-major bytes of the same relations.
#[test]
fn dictionary_wire_form_is_smaller_than_row_major_on_the_fig10_workload() {
    let aig = sigma0().unwrap();
    let data = HospitalConfig::sized(DatasetSize::Small)
        .generate()
        .unwrap();
    let options = MediatorOptions {
        unfold_depth: 4,
        max_depth: 4,
        cutoff: CutOff::Truncate,
        check_guards: true,
        network: NetworkModel::mbps(1.0),
        ..MediatorOptions::default()
    };
    let args = [("date", Value::str(&data.dates[0]))];
    let (_, report) = run_with_report(&aig, &data.catalog, &args, &options).unwrap();
    let shipped: Vec<_> = report
        .tasks
        .iter()
        .filter(|t| t.shipped_bytes > 0.0)
        .collect();
    assert!(!shipped.is_empty(), "the workload ships nothing");
    let wire: f64 = shipped.iter().map(|t| t.wire_bytes).sum();
    let row_major: f64 = shipped.iter().map(|t| t.out_bytes).sum();
    assert!(
        wire < row_major,
        "wire form {wire} B is not below the row-major {row_major} B over {} shipped outputs",
        shipped.len()
    );
}
