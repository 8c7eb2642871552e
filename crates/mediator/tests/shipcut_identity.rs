//! Byte-identity property suite for the ship-cut optimization and the
//! columnar interned storage: across seeded datagen catalogs, the matrix
//! {pruning on/off} × {faults on/off} × {one-worker walk, per-source walk}
//! must produce canonical documents and relation stores **byte-identical**
//! to the sequential, unpruned baseline — and in every cell the
//! column-major store must equal its row-major reconstruction (materialize
//! rows, re-intern, compare). Ship-cut is a measurement-time optimization
//! (what crosses the wire), never a semantic one; interning is canonical,
//! so the columnar image carries exactly the row-major content.

use aig_core::paper::sigma0;
use aig_core::spec::Aig;
use aig_core::{compile_constraints, decompose_queries};
use aig_mediator::exec::{execute_graph, ExecOptions, ExecResult};
use aig_mediator::faults::{FaultConfig, FaultPlan, RetryPolicy};
use aig_mediator::graph::{build_graph, GraphOptions, TaskGraph};
use aig_mediator::parallel::execute_graph_parallel;
use aig_mediator::plan::topo_per_source;
use aig_mediator::tagging::tag_document;
use aig_mediator::unfold::{unfold, CutOff};
use aig_mediator::ShipCut;
use aig_prng::{Rng, SeedableRng, StdRng};
use aig_relstore::{Catalog, Value};
use aig_xml::XmlTree;
use std::sync::Arc;

struct Fixture {
    aig: Aig,
    graph: TaskGraph,
    catalog: Catalog,
    date: String,
}

fn fixture(catalog: Catalog, date: String) -> Fixture {
    let aig = sigma0().unwrap();
    let compiled = compile_constraints(&aig).unwrap();
    let (specialized, _) = decompose_queries(&compiled).unwrap();
    let unfolded = unfold(&specialized, 3, CutOff::Truncate).unwrap();
    let graph = build_graph(&unfolded.aig, &catalog, &GraphOptions::default()).unwrap();
    Fixture {
        aig: unfolded.aig,
        graph,
        catalog,
        date,
    }
}

fn tiny_fixture(seed: u64) -> Fixture {
    let data = aig_datagen::HospitalConfig::tiny(seed).generate().unwrap();
    fixture(data.catalog, data.dates[0].clone())
}

/// One cell of the matrix: executor × options, returning (store, document).
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
            let rel = cell.0.store.get(key).unwrap();
            assert_eq!(
                base.0.store.get(key).unwrap(),
                rel,
                "relation of {} drifted: {what}",
                task.label
            );
            // Columnar vs row-major: materializing every row and
            // re-interning must reproduce the column-major image exactly
            // (same content, same order, same wire accounting).
            let row_major =
                aig_relstore::Relation::new(rel.columns().to_vec(), rel.rows_vec()).unwrap();
            assert_eq!(
                *rel, row_major,
                "columnar image of {} diverged from its row-major reconstruction: {what}",
                task.label
            );
            assert_eq!(
                rel.wire_bytes(),
                row_major.wire_bytes(),
                "wire accounting of {} diverged across layouts: {what}",
                task.label
            );
        }
    }
}

#[test]
fn matrix_is_byte_identical_to_the_sequential_unpruned_baseline() {
    let mut rng = StdRng::seed_from_u64(0x5417);
    for _ in 0..2 {
        let seed = rng.gen_range(0u64..1 << 48);
        let fx = tiny_fixture(seed);
        let shipcut = Arc::new(ShipCut::analyze(&fx.aig, &fx.graph));
        let baseline = run_cell(&fx, &ExecOptions::default(), false);

        for prune in [false, true] {
            for faults in [false, true] {
                let mut opts = ExecOptions {
                    shipcut: prune.then(|| shipcut.clone()),
                    ..ExecOptions::default()
                };
                if faults {
                    let cfg = FaultConfig {
                        seed: rng.gen_range(1u64..1 << 32),
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
                let what = format!("seed {seed} prune={prune} faults={faults}");
                let seq = run_cell(&fx, &opts, false);
                assert_identical(&fx, &baseline, &seq, &format!("{what} sequential"));
                let par = run_cell(&fx, &opts, true);
                assert_identical(&fx, &baseline, &par, &format!("{what} parallel"));
            }
        }
    }
}

/// The satellite regression for the Gen canonical sort: on a large relation
/// with many ties, the by-reference comparator must reproduce the ordering of
/// the original clone-a-key-per-comparison sort exactly — including
/// tie-breaks, since both sorts are stable.
#[test]
fn large_relation_canonical_sort_keeps_the_clone_key_order() {
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let owners: Vec<Value> = (0..64).map(|i| Value::str(format!("o{i}"))).collect();
    let mut rows: Vec<Vec<Value>> = (0..6000)
        .map(|i| {
            vec![
                rng.pick(&owners).clone(),
                Value::str(format!("r{i}")), // unique: exposes unstable merges
                Value::str(format!("p{}", rng.gen_range(0u64..8))),
                Value::str(format!("q{}", rng.gen_range(0u64..4))),
            ]
        })
        .collect();

    // The pre-fix ordering: clone the key per comparison (the allocation this
    // PR removes), ignoring column 1 exactly as the Gen kernel does.
    let mut expected = rows.clone();
    #[allow(clippy::redundant_clone)]
    expected.sort_by(|a, b| (a[0].clone(), &a[2..]).cmp(&(b[0].clone(), &b[2..])));

    rows.sort_by(|a, b| a[0].cmp(&b[0]).then_with(|| a[2..].cmp(&b[2..])));
    assert_eq!(rows, expected);

    // Sanity: the generator actually produced ties on the sort key, so the
    // stability claim was exercised.
    let ties = rows
        .windows(2)
        .filter(|w| w[0][0] == w[1][0] && w[0][2..] == w[1][2..])
        .count();
    assert!(ties > 100, "only {ties} ties; fixture too weak");
}

/// Liveness never drops bookkeeping or key-constraint columns: every task
/// output that carries `__owner` / ordinal columns keeps them live, and
/// guard inputs (which enforce key constraints) stay fully live. This is the
/// end-to-end companion of the unit tests in `src/shipcut.rs`, on a datagen
/// catalog rather than the paper's mini fixture.
#[test]
fn liveness_keeps_bookkeeping_and_guard_columns_on_datagen_catalogs() {
    let fx = tiny_fixture(77);
    let cut = ShipCut::analyze(&fx.aig, &fx.graph);
    let args = [("date", Value::str(&fx.date))];
    let result = execute_graph(
        &fx.aig,
        &fx.catalog,
        &fx.graph,
        &args,
        &ExecOptions::default(),
    )
    .unwrap();
    for (id, task) in fx.graph.tasks.iter().enumerate() {
        let Some(key) = &task.output else { continue };
        let rel = result.store.get(key).unwrap();
        let live = cut.live_columns(id, rel);
        for (pos, name) in rel.columns().iter().enumerate() {
            if aig_mediator::shipcut::is_bookkeeping(name) {
                assert!(
                    live.contains(&pos),
                    "task {} dropped bookkeeping column {name}",
                    task.label
                );
            }
        }
    }
}
