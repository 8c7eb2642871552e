//! Sequential / parallel executor equivalence — the promise made at the top
//! of `src/parallel.rs`: across datagen seeds and thread interleavings, the
//! parallel executor produces exactly the relations of the sequential one
//! and therefore an identical tagged document.

use aig_core::paper::sigma0;
use aig_core::spec::Aig;
use aig_core::{compile_constraints, decompose_queries, AigError};
use aig_datagen::{DatasetSize, HospitalConfig};
use aig_mediator::cost::estimated_costs;
use aig_mediator::exec::{execute_graph, ExecOptions, ExecResult};
use aig_mediator::graph::{build_graph, GraphOptions, RelKey, TaskGraph};
use aig_mediator::parallel::execute_graph_parallel;
use aig_mediator::plan::topo_per_source;
use aig_mediator::schedule::{levels, schedule};
use aig_mediator::tagging::tag_document;
use aig_mediator::unfold::{unfold, CutOff};
use aig_mediator::{
    run, CostGraph, FaultConfig, FaultOutcome, FaultPlan, MediatorError, MediatorOptions,
    NetworkModel, ShipCut,
};
use aig_relstore::{Catalog, Database, Relation, Value};
use std::collections::HashMap;
use std::sync::Arc;

struct Fixture {
    aig: Aig,
    graph: TaskGraph,
    catalog: Catalog,
    date: String,
}

fn fixture(seed: u64, depth: usize) -> Fixture {
    let aig = sigma0().unwrap();
    let compiled = compile_constraints(&aig).unwrap();
    let (specialized, _) = decompose_queries(&compiled).unwrap();
    let unfolded = unfold(&specialized, depth, CutOff::Truncate).unwrap();
    let data = HospitalConfig::tiny(seed).generate().unwrap();
    let graph = build_graph(&unfolded.aig, &data.catalog, &GraphOptions::default()).unwrap();
    Fixture {
        aig: unfolded.aig,
        graph,
        catalog: data.catalog,
        date: data.dates[0].clone(),
    }
}

fn run_sequential(fx: &Fixture, opts: &ExecOptions) -> ExecResult {
    execute_graph(
        &fx.aig,
        &fx.catalog,
        &fx.graph,
        &[("date", Value::str(&fx.date))],
        opts,
    )
    .unwrap()
}

/// The two arms of the shared task body's ship seam: materializing with no
/// liveness profiles (the default), and 256-row chunked shipment of
/// ship-cut images.
fn ship_arms(fx: &Fixture) -> [ExecOptions; 2] {
    let mut batched = ExecOptions::default();
    (batched.policy.batching, batched.policy.batch_rows) = (true, 256);
    batched.shipcut = Some(Arc::new(ShipCut::analyze(&fx.aig, &fx.graph)));
    [ExecOptions::default(), batched]
}

fn assert_equivalent(fx: &Fixture, seq: &ExecResult, par: &ExecResult) {
    for (key, &producer) in &fx.graph.producer {
        let a = seq.store.get(key).unwrap();
        let b = par.store.get(key).unwrap();
        assert_eq!(a, b, "relation {key:?} differs (task {producer})");
        assert_eq!(a.byte_size(), b.byte_size(), "byte size of {key:?} differs");
    }
    for (id, (s, p)) in seq.measured.iter().zip(&par.measured).enumerate() {
        assert_eq!(s.out_rows, p.out_rows, "out_rows of task {id}");
        assert_eq!(s.out_bytes, p.out_bytes, "out_bytes of task {id}");
        assert_eq!(s.in_rows, p.in_rows, "in_rows of task {id}");
        assert_eq!(s.wire_bytes, p.wire_bytes, "wire_bytes of task {id}");
        assert_eq!(s.ship_bytes, p.ship_bytes, "ship_bytes of task {id}");
        assert_eq!(s.batches, p.batches, "batches of task {id}");
        assert!(p.wait_secs >= 0.0 && p.secs >= 0.0);
    }
    let seq_tree = tag_document(&fx.aig, &fx.graph, &seq.store).unwrap();
    let par_tree = tag_document(&fx.aig, &fx.graph, &par.store).unwrap();
    assert_eq!(seq_tree, par_tree, "tagged documents differ");
}

#[test]
fn parallel_matches_sequential_across_seeds() {
    for seed in [1u64, 7, 42, 2003] {
        let fx = fixture(seed, 3);
        let plan = topo_per_source(&fx.graph);
        for opts in ship_arms(&fx) {
            let seq = run_sequential(&fx, &opts);
            // Repeat: thread timing varies between runs, the relations
            // must not.
            for _ in 0..3 {
                let par = execute_graph_parallel(
                    &fx.aig,
                    &fx.catalog,
                    &fx.graph,
                    &[("date", Value::str(&fx.date))],
                    &opts,
                    &plan,
                )
                .unwrap();
                assert_equivalent(&fx, &seq, &par);
            }
        }
    }
}

#[test]
fn parallel_matches_sequential_under_scheduled_interleaving() {
    // A second, genuinely different interleaving: Algorithm Schedule over the
    // *uncontracted* cost graph (node ids == task ids) reorders each source's
    // queue by criticality instead of topological position.
    for seed in [1u64, 42] {
        let fx = fixture(seed, 3);
        let seq = run_sequential(&fx, &ExecOptions::default());
        let cg = CostGraph::from_task_graph(&fx.graph, &estimated_costs(&fx.graph));
        let plan = schedule(&cg, &NetworkModel::mbps(1.0));
        assert!(plan.consistent_with(&cg));
        let par = execute_graph_parallel(
            &fx.aig,
            &fx.catalog,
            &fx.graph,
            &[("date", Value::str(&fx.date))],
            &ExecOptions::default(),
            &plan.per_source,
        )
        .unwrap();
        assert_equivalent(&fx, &seq, &par);
    }
}

#[test]
fn pipeline_parallel_flag_matches_sequential() {
    let data = HospitalConfig::tiny(5).generate().unwrap();
    let aig = sigma0().unwrap();
    let args = [("date", Value::str(&data.dates[0]))];
    // Deterministic simulated costs (no wall-clock dependence) so the two
    // runs agree on every reported number, not just the document.
    let mut options = MediatorOptions {
        unfold_depth: 3,
        max_depth: 3,
        cutoff: CutOff::Truncate,
        network: NetworkModel::mbps(1.0),
        ..MediatorOptions::default()
    };
    options.graph.eval_scale = 0.0;
    options.graph.cost_model.per_query_overhead_secs = 1.0;

    let sequential = run(&aig, &data.catalog, &args, &options).unwrap();
    options.parallel_exec = true;
    let parallel = run(&aig, &data.catalog, &args, &options).unwrap();

    assert_eq!(sequential.tree, parallel.tree);
    assert_eq!(sequential.tasks, parallel.tasks);
    assert_eq!(sequential.merges, parallel.merges);
    assert_eq!(
        sequential.response_unmerged_secs,
        parallel.response_unmerged_secs
    );
    assert_eq!(
        sequential.response_merged_secs,
        parallel.response_merged_secs
    );
}

/// The inclusion guard names the first row of the set it reads that the
/// other set lacks, so the row order of `trIdS` decides which patient a
/// violation names. Two billing rows dropped — one for a treatment at depth
/// 1 under one patient, one at depth 3 under another — fail that guard and
/// no other; the one-worker and the per-source walk report the same
/// violation, pinned: the treatment dropped deeper is named, under the
/// patient whose set lists it first (a deeper level's contribution precedes
/// its parent's).
#[test]
fn a_guard_violation_names_the_same_offender_under_both_walks() {
    let data = HospitalConfig::sized(DatasetSize::Small)
        .generate()
        .unwrap();
    let args = [("date", Value::str(&data.dates[0]))];
    let graph_of = |catalog: &Catalog| {
        let compiled = compile_constraints(&sigma0().unwrap()).unwrap();
        let (specialized, _) = decompose_queries(&compiled).unwrap();
        let aig = unfold(&specialized, 24, CutOff::Frontier).unwrap().aig;
        let graph = build_graph(&aig, catalog, &GraphOptions::default()).unwrap();
        (aig, graph)
    };
    let (aig, graph) = graph_of(&data.catalog);
    let opts = ExecOptions::default();
    let clean = execute_graph(&aig, &data.catalog, &graph, &args, &opts).unwrap();

    // A treatment at `depth` and the patient above it: instance tables are
    // numbered in row order, so a `__parent` is a row position.
    let table = |elem: &str| {
        let key = RelKey::Instances(aig.elem(elem).unwrap());
        clean.store.get(&key).unwrap()
    };
    let at = |rel: &Relation, row: usize, col: &str| rel.cell(row, rel.col(col).unwrap()).clone();
    let treatment = |depth: usize, row: usize| {
        let (mut elem, mut row) = (format!("treatment@{depth}"), row);
        let trid = at(table(&elem), row, "trId");
        for up in (1..depth).rev() {
            row = at(table(&elem), row, "__parent").as_int().unwrap() as usize;
            elem = format!("treatment@{up}");
        }
        (trid, at(table(&elem), row, "__parent"))
    };
    let (deep, deep_patient) = treatment(3, 0);
    let shallow = (0..table("treatment@1").len())
        .map(|row| treatment(1, row))
        .find(|(trid, patient)| *patient != deep_patient && *trid != deep)
        .expect("a depth-1 treatment of another patient")
        .0;

    let mut broken = data.catalog.clone();
    let db3 = broken.source_id("DB3").unwrap();
    let billing = broken.source_mut(db3).table_mut("billing").unwrap();
    for trid in [&deep, &shallow] {
        let rows = billing.rows();
        let row = rows.iter().find(|row| row[0] == *trid).expect("billed");
        billing.delete(row).unwrap();
    }
    let (aig, graph) = graph_of(&broken);
    let sequential = execute_graph(&aig, &broken, &graph, &args, &opts).unwrap_err();
    let plan = topo_per_source(&graph);
    let parallel = execute_graph_parallel(&aig, &broken, &graph, &args, &opts, &plan).unwrap_err();
    for err in [sequential, parallel] {
        let MediatorError::Aig(AigError::ConstraintViolation {
            constraint,
            context,
            value,
        }) = err
        else {
            panic!("expected a constraint violation, got {err}");
        };
        assert_eq!(
            (constraint.as_str(), context.as_str(), value.as_str()),
            (
                "patient(treatment.trId <= item.trId)",
                "patient instance 52",
                "[Str(\"t0093\")]"
            ),
            "{deep:?} dropped at depth 3, {shallow:?} at depth 1"
        );
    }
}

/// σ0 on Tiny data with DB4 dying after one task and `DB4R` declared as its
/// replica.
fn failover_fixture() -> (Fixture, Catalog, FaultConfig) {
    let fx = fixture(7, 3);
    let mut catalog = fx.catalog.clone();
    let db4 = catalog.source_id("DB4").unwrap();
    let mut replica = Database::new("DB4R");
    for table in catalog.source(db4).tables() {
        replica.add_table(table.clone()).unwrap();
    }
    let db4r = catalog.add_source(replica).unwrap();
    catalog.declare_replica(db4, db4r).unwrap();
    let cfg = FaultConfig {
        seed: 7,
        dies_after: vec![("DB4".to_string(), 1)],
        ..FaultConfig::default()
    };
    (fx, catalog, cfg)
}

/// A walk runs at most one worker per effective source, before a failover
/// and after it, so no source ever runs two tasks of one walk at once. σ0 on
/// Tiny data, DB4 dying after one task with `DB4R` declared as its replica,
/// every task paced a few ms so that overlapping tasks would show: at every
/// effective source — DB4R included, which serves DB4's tasks once it died —
/// the intervals `[start_secs, start_secs + secs]` are disjoint.
#[test]
fn a_failed_over_walk_runs_one_task_at_a_time_per_source() {
    let (fx, catalog, cfg) = failover_fixture();
    let plan = topo_per_source(&fx.graph);
    let opts = ExecOptions {
        faults: Some(FaultPlan::new(&cfg, &catalog).unwrap()),
        pace: Some(vec![0.002; fx.graph.len()]),
        ..ExecOptions::default()
    };
    let args = [("date", Value::str(&fx.date))];
    let walk = execute_graph_parallel(&fx.aig, &catalog, &fx.graph, &args, &opts, &plan).unwrap();
    assert_eq!(walk.faults.replans, 1, "DB4 failed over");

    // A task runs at its own source unless it was failed over to the
    // replica (the event names the source it left).
    let mut at: Vec<&str> = (fx.graph.tasks.iter())
        .map(|task| catalog.source(task.source).name())
        .collect();
    for event in &walk.faults.events {
        if event.outcome == FaultOutcome::FailedOver {
            let replica = catalog.replica_of(fx.graph.tasks[event.task].source);
            at[event.task] = catalog.source(replica.unwrap()).name();
        }
    }
    assert!(at.contains(&"DB4R"), "a task ran at DB4R");
    let mut by_source: HashMap<&str, Vec<(f64, f64)>> = HashMap::new();
    for (task, m) in walk.measured.iter().enumerate() {
        let interval = (m.start_secs, m.start_secs + m.secs);
        by_source.entry(at[task]).or_default().push(interval);
    }
    for (source, mut intervals) in by_source {
        intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
        for pair in intervals.windows(2) {
            assert!(
                pair[0].1 <= pair[1].0,
                "two tasks overlap at {source}: {pair:?}"
            );
        }
    }
}

/// One ordering rule per walk: a failover round ranks its ready tasks as
/// the first round did. Every pick's priority is its task's `ℓevel` over
/// the estimate graph, to the bit, and the picks at `DB4R` after DB4 died
/// are among them.
#[test]
fn a_failed_over_walk_ranks_like_its_first_round() {
    let (fx, catalog, cfg) = failover_fixture();
    let opts = ExecOptions {
        faults: Some(FaultPlan::new(&cfg, &catalog).unwrap()),
        ..ExecOptions::default()
    };
    let args = [("date", Value::str(&fx.date))];
    let plan = topo_per_source(&fx.graph);
    let walk = execute_graph_parallel(&fx.aig, &catalog, &fx.graph, &args, &opts, &plan).unwrap();
    assert_eq!(walk.faults.replans, 1, "DB4 failed over");

    let estimates = CostGraph::from_task_graph(&fx.graph, &estimated_costs(&fx.graph));
    let level = levels(&estimates, &opts.policy.network);
    assert_eq!(walk.sched.picks.len(), fx.graph.len());
    for pick in &walk.sched.picks {
        assert_eq!(
            pick.priority.to_bits(),
            level[pick.task].to_bits(),
            "task {}",
            pick.task
        );
    }
    let db4r = catalog.source_id("DB4R").unwrap();
    assert!(
        walk.sched.picks.iter().any(|pick| pick.source == db4r),
        "no pick at DB4R after the failover"
    );
}
