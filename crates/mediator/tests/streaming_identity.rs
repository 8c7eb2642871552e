//! Byte-identity oracle for streaming batch execution: across the matrix
//! {batching on/off} × {sequential, per-source} × {ship-cut on/off} ×
//! {faults on/off}, relation stores and canonical
//! documents must be **byte-identical** to the materializing baseline —
//! chunked shipment changes *when rows cross the ship seam*, never what
//! arrives. On top of identity, the batch log must do what the design
//! claims: under batching, peak resident shipment rows are the largest
//! double-buffer window of any one shipment (2 × batch_rows), not the
//! largest relation, and the same under either walk, since the peak is
//! computed from what shipped rather than tracked across workers.

use aig_core::paper::{mini_hospital_catalog, sigma0};
use aig_core::spec::Aig;
use aig_core::{compile_constraints, decompose_queries};
use aig_mediator::exec::{execute_graph, ExecOptions, ExecPolicy, ExecResult};
use aig_mediator::faults::{FaultConfig, FaultPlan, RetryPolicy};
use aig_mediator::graph::{build_graph, GraphOptions, TaskGraph};
use aig_mediator::parallel::execute_graph_parallel;
use aig_mediator::plan::topo_per_source;
use aig_mediator::tagging::tag_document;
use aig_mediator::unfold::{unfold, CutOff};
use aig_mediator::{canonical, run_with_report, MediatorOptions, ShipCut};
use aig_relstore::{Catalog, Value};
use aig_xml::XmlTree;
use std::sync::Arc;

struct Fixture {
    aig: Aig,
    graph: TaskGraph,
    catalog: Catalog,
    date: String,
}

fn fixture(seed: u64) -> Fixture {
    let data = aig_datagen::HospitalConfig::tiny(seed).generate().unwrap();
    let aig = sigma0().unwrap();
    let compiled = compile_constraints(&aig).unwrap();
    let (specialized, _) = decompose_queries(&compiled).unwrap();
    let unfolded = unfold(&specialized, 3, CutOff::Truncate).unwrap();
    let graph = build_graph(&unfolded.aig, &data.catalog, &GraphOptions::default()).unwrap();
    Fixture {
        aig: unfolded.aig,
        graph,
        catalog: data.catalog,
        date: data.dates[0].clone(),
    }
}

fn run_cell(fx: &Fixture, opts: &ExecOptions, parallel: bool) -> (ExecResult, XmlTree) {
    let args = [("date", Value::str(&fx.date))];
    let result = if parallel {
        execute_graph_parallel(
            &fx.aig,
            &fx.catalog,
            &fx.graph,
            &args,
            opts,
            &topo_per_source(&fx.graph),
        )
        .unwrap()
    } else {
        execute_graph(&fx.aig, &fx.catalog, &fx.graph, &args, opts).unwrap()
    };
    let tree = tag_document(&fx.aig, &fx.graph, &result.store).unwrap();
    (result, tree)
}

fn assert_identical(
    fx: &Fixture,
    base: &(ExecResult, XmlTree),
    cell: &(ExecResult, XmlTree),
    what: &str,
) {
    assert_eq!(base.1, cell.1, "document drifted: {what}");
    for task in &fx.graph.tasks {
        if let Some(key) = &task.output {
            assert_eq!(
                base.0.store.get(key).unwrap(),
                cell.0.store.get(key).unwrap(),
                "relation of {} drifted: {what}",
                task.label
            );
        }
    }
}

fn fault_opts(opts: &mut ExecOptions, fx: &Fixture, seed: u64) {
    let cfg = FaultConfig {
        seed,
        transient_rate: 0.15,
        latency_rate: 0.1,
        latency_secs: 0.0002,
        ..FaultConfig::default()
    };
    opts.faults = Some(FaultPlan::new(&cfg, &fx.catalog).unwrap());
    opts.policy.retry = RetryPolicy {
        max_attempts: 6,
        backoff_base_secs: 0.0001,
        backoff_cap_secs: 0.001,
        jitter: 0.5,
        timeout_secs: f64::INFINITY,
    };
}

const BATCH_ROWS: usize = 2;

/// Default options, shipping in `BATCH_ROWS`-row batches.
fn batched() -> ExecOptions {
    ExecOptions::new(ExecPolicy {
        batching: true,
        batch_rows: BATCH_ROWS,
        ..ExecPolicy::default()
    })
}

#[test]
fn streaming_matrix_is_byte_identical_to_the_materializing_baseline() {
    for seed in [11u64, 0xFEED] {
        let fx = fixture(seed);
        let shipcut = Arc::new(ShipCut::analyze(&fx.aig, &fx.graph));
        let baseline = run_cell(&fx, &ExecOptions::default(), false);

        for prune in [false, true] {
            for faults in [false, true] {
                let mut opts = batched();
                opts.shipcut = prune.then(|| shipcut.clone());
                if faults {
                    fault_opts(&mut opts, &fx, seed ^ 0xA5);
                }
                let what = format!("seed {seed} prune={prune} faults={faults}");

                let seq = run_cell(&fx, &opts, false);
                assert_identical(&fx, &baseline, &seq, &format!("{what} sequential"));
                // The double-buffer window bounds residency at 2 batches.
                assert!(seq.0.batch.enabled);
                assert_eq!(seq.0.batch.batch_rows, BATCH_ROWS);
                assert!(
                    seq.0.batch.peak_resident_rows <= 2 * BATCH_ROWS as u64,
                    "sequential peak {} exceeds the double-buffer window: {what}",
                    seq.0.batch.peak_resident_rows
                );

                let par = run_cell(&fx, &opts, true);
                assert_identical(&fx, &baseline, &par, &format!("{what} parallel"));
                // The log sums each task's batches once — a retried
                // attempt ships nothing, only the output it returns
                // does — and its peak is one shipment's window, so both
                // walks report the same numbers however their workers
                // interleaved.
                for (walk, cell) in [("sequential", &seq), ("parallel", &par)] {
                    let per_task: u64 = cell.0.measured.iter().map(|m| m.batches).sum();
                    assert_eq!(
                        cell.0.batch.total_batches, per_task,
                        "log and per-task batch counts disagree: {what} {walk}"
                    );
                }
                assert_eq!(par.0.batch, seq.0.batch, "{what}");
            }
        }
    }
}

/// Batching genuinely bounds residency: on a relation much larger than the
/// batch size, the materializing seam holds the whole relation while the
/// batched seam never holds more than two batches.
#[test]
fn batching_bounds_peak_residency_below_materializing() {
    let fx = fixture(4242);
    let materializing = run_cell(&fx, &ExecOptions::default(), false);
    let largest = fx
        .graph
        .tasks
        .iter()
        .filter_map(|t| t.output.as_ref())
        .map(|key| materializing.0.store.get(key).unwrap().len())
        .max()
        .unwrap();
    assert!(
        largest > 2 * BATCH_ROWS,
        "fixture too small ({largest} rows) to exercise the bound"
    );
    assert_eq!(
        materializing.0.batch.peak_resident_rows, largest as u64,
        "materializing seam must hold the largest relation in full"
    );
    let per_source = run_cell(&fx, &ExecOptions::default(), true);
    assert_eq!(per_source.0.batch, materializing.0.batch);
    let batched = run_cell(&fx, &batched(), false);
    assert!(
        batched.0.batch.peak_resident_rows < materializing.0.batch.peak_resident_rows,
        "batched peak {} not below materializing peak {}",
        batched.0.batch.peak_resident_rows,
        materializing.0.batch.peak_resident_rows
    );
}

/// The full pipeline honors the knob end to end: `MediatorOptions.batching`
/// flows through plan/execute, the canonical document is byte-identical to
/// the materializing run, and the run report carries the batch log.
#[test]
fn pipeline_batching_produces_identical_documents_and_a_ledger() {
    let aig = sigma0().unwrap();
    let catalog = mini_hospital_catalog().unwrap();
    let args = [("date", Value::str("d1"))];

    let base_opts = MediatorOptions::default();
    let (base_run, base_report) = run_with_report(&aig, &catalog, &args, &base_opts).unwrap();
    assert!(!base_report.batching.enabled);
    assert_eq!(base_report.batching.batch_rows, 0);
    assert_eq!(base_report.batching.overlap_savings_secs, 0.0);

    for parallel in [false, true] {
        let options = MediatorOptions::builder()
            .batching(true)
            .batch_rows(2)
            .parallel_exec(parallel)
            .build()
            .unwrap();
        let (run, report) = run_with_report(&aig, &catalog, &args, &options).unwrap();
        assert_eq!(
            canonical(&aig, &run.tree),
            canonical(&aig, &base_run.tree),
            "document drifted under batching: parallel={parallel}"
        );
        assert!(report.batching.enabled);
        assert_eq!(report.batching.batch_rows, 2);
        assert!(report.batching.total_batches > 0);
        assert!(report.batching.peak_resident_rows > 0);
        // Redaction zeroes the wall-derived estimate but keeps the
        // deterministic counts.
        let redacted = report.redacted();
        assert_eq!(redacted.batching.overlap_savings_secs, 0.0);
        assert_eq!(
            redacted.batching.total_batches,
            report.batching.total_batches
        );
        // Per-task batch counts surface in the report.
        assert!(report.tasks.iter().any(|t| t.batches > 1));
    }
}
