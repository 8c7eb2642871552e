//! Seeded chaos tests for the fault-injection and recovery layer: a matrix
//! of fault rate × executor × retry policy asserting that recovered runs
//! are **byte-identical** to clean runs, that per-attempt timeouts bound
//! wall-clock time, that a zero-retry policy surfaces the structured error,
//! and that hard outages either fail over to a declared replica (with a
//! `Schedule` re-plan in the parallel executor) or fail naming the lost
//! tasks. Everything is driven by fixed seeds, so these tests are exact,
//! not statistical.

use aig_core::paper::{mini_hospital_catalog, sigma0};
use aig_core::spec::Aig;
use aig_core::{compile_constraints, decompose_queries};
use aig_mediator::exec::{execute_graph, ExecOptions, ExecResult, Scheduling};
use aig_mediator::faults::{FaultConfig, FaultOutcome, FaultPlan, RetryPolicy};
use aig_mediator::graph::{build_graph, GraphOptions, TaskGraph};
use aig_mediator::parallel::execute_graph_parallel;
use aig_mediator::plan::topo_per_source;
use aig_mediator::unfold::{unfold, CutOff};
use aig_mediator::{run_with_report, MediatorError, MediatorOptions, NetworkModel};
use aig_relstore::{Catalog, Database, Value};
use std::time::Instant;

fn setup(catalog: &Catalog) -> (Aig, TaskGraph) {
    let aig = sigma0().unwrap();
    let compiled = compile_constraints(&aig).unwrap();
    let (specialized, _) = decompose_queries(&compiled).unwrap();
    let unfolded = unfold(&specialized, 3, CutOff::Truncate).unwrap();
    let graph = build_graph(&unfolded.aig, catalog, &GraphOptions::default()).unwrap();
    (unfolded.aig, graph)
}

/// A retry policy with sleeps short enough for tests but real backoff.
fn fast_retry(max_attempts: usize) -> RetryPolicy {
    RetryPolicy {
        max_attempts,
        backoff_base_secs: 0.0001,
        backoff_cap_secs: 0.001,
        jitter: 0.5,
        timeout_secs: f64::INFINITY,
    }
}

fn faulted_opts(plan: FaultPlan, retry: RetryPolicy) -> ExecOptions {
    let mut opts = ExecOptions {
        faults: Some(plan),
        ..ExecOptions::default()
    };
    opts.policy.retry = retry;
    opts
}

/// Every output relation of `faulted` equals the clean run's, byte for byte.
fn assert_stores_identical(graph: &TaskGraph, clean: &ExecResult, faulted: &ExecResult) {
    for task in &graph.tasks {
        if let Some(key) = &task.output {
            assert_eq!(
                clean.store.get(key).unwrap(),
                faulted.store.get(key).unwrap(),
                "relation of {} drifted under faults",
                task.label
            );
        }
    }
}

/// The accounting identity: every injected (non-absorbed) fault has exactly
/// one outcome.
fn assert_accounted(result: &ExecResult) -> usize {
    let log = &result.faults;
    let injected = log.injected();
    let sum = log.count(FaultOutcome::Retried)
        + log.count(FaultOutcome::TimedOut)
        + log.count(FaultOutcome::FailedOver)
        + log.count(FaultOutcome::Surfaced);
    assert_eq!(injected, sum, "fault accounting identity violated");
    injected
}

#[test]
fn chaos_matrix_recovered_runs_are_byte_identical() {
    let catalog = mini_hospital_catalog().unwrap();
    let (aig, graph) = setup(&catalog);
    let args = [("date", Value::str("d1"))];
    let clean = execute_graph(&aig, &catalog, &graph, &args, &ExecOptions::default()).unwrap();
    assert!(clean.faults.events.is_empty());

    let mut total_injected = 0usize;
    for seed in [1u64, 2, 3] {
        for rate in [0.05f64, 0.2] {
            let cfg = FaultConfig {
                seed,
                transient_rate: rate,
                latency_rate: 0.1,
                latency_secs: 0.0003,
                ..FaultConfig::default()
            };
            let plan = FaultPlan::new(&cfg, &catalog).unwrap();
            let opts = faulted_opts(plan, fast_retry(6));

            let seq = execute_graph(&aig, &catalog, &graph, &args, &opts).unwrap();
            assert_stores_identical(&graph, &clean, &seq);
            total_injected += assert_accounted(&seq);

            let par = execute_graph_parallel(
                &aig,
                &catalog,
                &graph,
                &args,
                &opts,
                &topo_per_source(&graph),
            )
            .unwrap();
            assert_stores_identical(&graph, &clean, &par);
            let par_injected = assert_accounted(&par);
            // The decision function is pure, so both executors see the very
            // same fault stream.
            assert_eq!(par_injected, seq.faults.injected(), "seed {seed}");
            total_injected += par_injected;
        }
    }
    assert!(total_injected > 0, "the matrix never injected a fault");
}

/// The chaos matrix again, at 4 kernel threads and with ship-cut pruning:
/// recovered runs must still be byte-identical to the clean sequential run. (CI also runs this as the `--threads` smoke.)
#[test]
fn chaos_matrix_is_byte_identical_with_threads_and_shipcut() {
    let catalog = mini_hospital_catalog().unwrap();
    let (aig, graph) = setup(&catalog);
    let args = [("date", Value::str("d1"))];
    let clean = execute_graph(&aig, &catalog, &graph, &args, &ExecOptions::default()).unwrap();
    let shipcut = std::sync::Arc::new(aig_mediator::ShipCut::analyze(&aig, &graph));

    for seed in [1u64, 3] {
        let cfg = FaultConfig {
            seed,
            transient_rate: 0.2,
            latency_rate: 0.1,
            latency_secs: 0.0003,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::new(&cfg, &catalog).unwrap();
        let mut opts = faulted_opts(plan, fast_retry(6));
        opts.policy.threads = 4;
        opts.shipcut = Some(shipcut.clone());

        let seq = execute_graph(&aig, &catalog, &graph, &args, &opts).unwrap();
        assert_stores_identical(&graph, &clean, &seq);
        assert_accounted(&seq);

        for scheduling in [Scheduling::Static, Scheduling::Dynamic] {
            let mut opts = opts.clone();
            opts.policy.scheduling = scheduling;
            let par = execute_graph_parallel(
                &aig,
                &catalog,
                &graph,
                &args,
                &opts,
                &topo_per_source(&graph),
            )
            .unwrap();
            assert_stores_identical(&graph, &clean, &par);
            assert_accounted(&par);
        }
    }
}

#[test]
fn timeouts_bound_wall_clock() {
    let catalog = mini_hospital_catalog().unwrap();
    let (aig, graph) = setup(&catalog);
    let args = [("date", Value::str("d1"))];
    let clean = execute_graph(&aig, &catalog, &graph, &args, &ExecOptions::default()).unwrap();

    // Spikes of ~30 s would hang the run for minutes; the 20 ms per-attempt
    // timeout must cut every one of them short.
    let cfg = FaultConfig {
        seed: 5,
        transient_rate: 0.0,
        latency_rate: 0.3,
        latency_secs: 30.0,
        ..FaultConfig::default()
    };
    let plan = FaultPlan::new(&cfg, &catalog).unwrap();
    let retry = RetryPolicy {
        timeout_secs: 0.02,
        ..fast_retry(8)
    };
    let start = Instant::now();
    let seq = execute_graph(&aig, &catalog, &graph, &args, &faulted_opts(plan, retry)).unwrap();
    let elapsed = start.elapsed().as_secs_f64();
    assert_stores_identical(&graph, &clean, &seq);
    assert_accounted(&seq);
    let timed_out = seq.faults.count(FaultOutcome::TimedOut);
    assert!(timed_out > 0, "no spike hit the timeout");
    assert!(
        elapsed < 5.0,
        "timeouts failed to bound wall-clock: {elapsed:.1}s for {timed_out} timeouts"
    );
    // Injected stalls never exceed the timeout.
    for event in &seq.faults.events {
        assert!(event.stall_secs <= 0.02 + 1e-9, "{event:?}");
    }
}

#[test]
fn zero_retry_policy_surfaces_structured_error() {
    let catalog = mini_hospital_catalog().unwrap();
    let (aig, graph) = setup(&catalog);
    let args = [("date", Value::str("d1"))];
    let cfg = FaultConfig {
        seed: 9,
        transient_rate: 0.5,
        ..FaultConfig::default()
    };
    let plan = FaultPlan::new(&cfg, &catalog).unwrap();
    let opts = faulted_opts(plan, RetryPolicy::none());

    let err = execute_graph(&aig, &catalog, &graph, &args, &opts).unwrap_err();
    assert!(
        matches!(&err, MediatorError::SourceFault { attempts: 1, .. }),
        "{err}"
    );
    let err = execute_graph_parallel(
        &aig,
        &catalog,
        &graph,
        &args,
        &opts,
        &topo_per_source(&graph),
    )
    .unwrap_err();
    assert!(
        matches!(&err, MediatorError::SourceFault { attempts: 1, .. }),
        "{err}"
    );
}

/// The mini hospital catalog with `DB3R` added as a byte-identical replica
/// of `DB3`, declared as its failover target.
fn catalog_with_replica() -> Catalog {
    catalog_with_replica_of("DB3")
}

/// The mini hospital catalog with a byte-identical replica of `name` added
/// and declared as its failover target.
fn catalog_with_replica_of(name: &str) -> Catalog {
    let mut catalog = mini_hospital_catalog().unwrap();
    let primary = catalog.source_id(name).unwrap();
    let mut replica_db = Database::new(format!("{name}R"));
    for table in catalog.source(primary).tables() {
        replica_db.add_table(table.clone()).unwrap();
    }
    let replica = catalog.add_source(replica_db).unwrap();
    catalog.declare_replica(primary, replica).unwrap();
    catalog
}

#[test]
fn outage_with_replica_fails_over_and_replans() {
    let catalog = catalog_with_replica();
    let (aig, graph) = setup(&catalog);
    let args = [("date", Value::str("d1"))];
    let clean = execute_graph(&aig, &catalog, &graph, &args, &ExecOptions::default()).unwrap();
    let db3_tasks = graph
        .tasks
        .iter()
        .filter(|t| t.source == catalog.source_id("DB3").unwrap())
        .count();
    assert!(db3_tasks > 0, "fixture has no DB3 tasks");

    let cfg = FaultConfig {
        seed: 4,
        outages: vec!["DB3".to_string()],
        ..FaultConfig::default()
    };
    let plan = FaultPlan::new(&cfg, &catalog).unwrap();
    let opts = faulted_opts(plan, fast_retry(3));

    let seq = execute_graph(&aig, &catalog, &graph, &args, &opts).unwrap();
    assert_stores_identical(&graph, &clean, &seq);
    assert_accounted(&seq);
    assert_eq!(
        seq.faults.count(FaultOutcome::FailedOver),
        db3_tasks,
        "every DB3 task re-ran at the replica"
    );

    let par = execute_graph_parallel(
        &aig,
        &catalog,
        &graph,
        &args,
        &opts,
        &topo_per_source(&graph),
    )
    .unwrap();
    assert_stores_identical(&graph, &clean, &par);
    assert_accounted(&par);
    assert!(
        par.faults.count(FaultOutcome::FailedOver) > 0,
        "no task failed over"
    );
    // One dead source, one failover — counted by the same `Failover` in
    // every walk (a per-source walk re-runs Schedule on the surviving
    // subgraph after it; the one-worker walk keeps the topological order).
    assert_eq!(seq.faults.replans, 1);
    assert_eq!(par.faults.replans, 1);
}

#[test]
fn mid_run_outage_fails_over_in_every_executor() {
    let catalog = catalog_with_replica_of("DB4");
    let (aig, graph) = setup(&catalog);
    let args = [("date", Value::str("d1"))];
    let clean = execute_graph(&aig, &catalog, &graph, &args, &ExecOptions::default()).unwrap();
    let db4 = catalog.source_id("DB4").unwrap();
    let db4_tasks = graph.tasks.iter().filter(|t| t.source == db4).count();
    assert!(db4_tasks >= 2, "need at least two DB4 tasks to die mid-run");

    // DB4 completes exactly one task, then goes hard-down; the rest of its
    // work must fail over to the replica in every executor.
    let cfg = FaultConfig {
        seed: 7,
        dies_after: vec![("DB4".to_string(), 1)],
        ..FaultConfig::default()
    };
    let fault_plan = FaultPlan::new(&cfg, &catalog).unwrap();

    let seq = execute_graph(
        &aig,
        &catalog,
        &graph,
        &args,
        &faulted_opts(fault_plan.clone(), fast_retry(3)),
    )
    .unwrap();
    assert_stores_identical(&graph, &clean, &seq);
    assert_accounted(&seq);
    assert_eq!(
        seq.faults.count(FaultOutcome::FailedOver),
        db4_tasks - 1,
        "all but the completed task re-ran at the replica"
    );
    assert_eq!(seq.faults.replans, 1);

    for scheduling in [Scheduling::Static, Scheduling::Dynamic] {
        let mut opts = faulted_opts(fault_plan.clone(), fast_retry(3));
        opts.policy.scheduling = scheduling;
        let par = execute_graph_parallel(
            &aig,
            &catalog,
            &graph,
            &args,
            &opts,
            &topo_per_source(&graph),
        )
        .unwrap();
        assert_stores_identical(&graph, &clean, &par);
        assert_accounted(&par);
        assert!(
            par.faults.count(FaultOutcome::FailedOver) > 0,
            "{scheduling:?}: no task failed over"
        );
        assert_eq!(
            par.faults.replans, 1,
            "{scheduling:?}: the mid-run death must re-run Schedule once"
        );
        assert_eq!(
            par.sched.dynamic,
            scheduling == Scheduling::Dynamic,
            "{scheduling:?}"
        );
    }
}

#[test]
fn outage_without_replica_names_the_lost_tasks() {
    let catalog = mini_hospital_catalog().unwrap();
    let (aig, graph) = setup(&catalog);
    let args = [("date", Value::str("d1"))];
    let cfg = FaultConfig {
        seed: 4,
        outages: vec!["DB3".to_string()],
        ..FaultConfig::default()
    };
    let plan = FaultPlan::new(&cfg, &catalog).unwrap();
    let opts = faulted_opts(plan, fast_retry(3));

    for err in [
        execute_graph(&aig, &catalog, &graph, &args, &opts).unwrap_err(),
        execute_graph_parallel(
            &aig,
            &catalog,
            &graph,
            &args,
            &opts,
            &topo_per_source(&graph),
        )
        .unwrap_err(),
    ] {
        let MediatorError::SourceUnavailable { source, lost_tasks } = &err else {
            panic!("expected SourceUnavailable, got {err}");
        };
        assert_eq!(source, "DB3");
        assert!(!lost_tasks.is_empty(), "lost tasks must be named");
        for label in lost_tasks {
            assert!(
                graph.tasks.iter().any(|t| &t.label == label),
                "unknown lost task {label}"
            );
        }
    }
}

#[test]
fn pipeline_reports_resilience_and_preserves_the_document() {
    let catalog = mini_hospital_catalog().unwrap();
    let aig = sigma0().unwrap();
    let args = [("date", Value::str("d1"))];
    let mut options = MediatorOptions {
        unfold_depth: 3,
        max_depth: 3,
        cutoff: CutOff::Truncate,
        network: NetworkModel::mbps(1.0),
        ..MediatorOptions::default()
    };
    options.graph.eval_scale = 0.0;
    options.graph.cost_model.per_query_overhead_secs = 1.0;
    let (clean_run, clean_report) = run_with_report(&aig, &catalog, &args, &options).unwrap();
    assert!(!clean_report.resilience.enabled);
    assert_eq!(clean_report.resilience.injected, 0);
    assert_eq!(clean_report.schema_version, aig_mediator::SCHEMA_VERSION);

    for parallel_exec in [false, true] {
        let mut faulted = options.clone();
        faulted.parallel_exec = parallel_exec;
        faulted.faults = Some(FaultConfig {
            seed: 11,
            transient_rate: 0.2,
            latency_rate: 0.1,
            latency_secs: 0.0003,
            ..FaultConfig::default()
        });
        faulted.retry = fast_retry(6);
        let (run, report) = run_with_report(&aig, &catalog, &args, &faulted).unwrap();
        assert_eq!(
            clean_run.tree, run.tree,
            "faulted document drifted (parallel={parallel_exec})"
        );
        let r = &report.resilience;
        assert!(r.enabled);
        assert_eq!(r.seed, 11);
        assert!(
            r.injected > 0,
            "no fault injected (parallel={parallel_exec})"
        );
        assert_eq!(
            r.injected,
            r.retried + r.timed_out + r.failed_over + r.surfaced,
            "report accounting identity violated"
        );
        // Events arrive sorted by (task, attempt).
        for pair in r.events.windows(2) {
            assert!(
                (pair[0].task, pair[0].attempt) <= (pair[1].task, pair[1].attempt),
                "events out of canonical order"
            );
        }
        // The JSON serialization carries the section.
        let json = report.to_json().to_pretty();
        assert!(json.contains("\"resilience\""));
        assert!(json.contains(&format!(
            "\"schema_version\": {}",
            aig_mediator::SCHEMA_VERSION
        )));
        // The seed is emitted losslessly as a decimal string.
        assert!(json.contains("\"seed\": \"11\""));
    }
}

/// Hostile fault and retry knobs are a `ConfigError` at every entry point —
/// the builder's `build()`, the one-shot `run`, `Mediator::new` — and
/// `FaultPlan::new`, never a panic in the decision streams or the sleeps.
/// Each row once panicked: a rate outside `[0, 1]` or NaN in `gen_bool`,
/// an infinite spike or backoff in `Duration::from_secs_f64`, and
/// `stale_replica_rows = usize::MAX` overflowing the lag draw.
#[test]
fn hostile_fault_options_are_config_errors() {
    use aig_mediator::{run, ConfigError, Mediator};
    let faults = |f: fn(&mut FaultConfig)| {
        let mut cfg = FaultConfig {
            seed: 7,
            ..FaultConfig::default()
        };
        f(&mut cfg);
        cfg
    };
    let retry = |f: fn(&mut RetryPolicy)| {
        let mut policy = RetryPolicy::default();
        f(&mut policy);
        policy
    };
    let rate = |field, value| ConfigError::RateOutOfRange { field, value };
    let secs = |field, value| ConfigError::BadSeconds { field, value };
    let cases: Vec<(FaultConfig, RetryPolicy, ConfigError)> = vec![
        (
            faults(|c| c.corrupt_rate = 1.5),
            RetryPolicy::default(),
            rate("corrupt_rate", 1.5),
        ),
        (
            faults(|c| c.corrupt_rate = f64::NAN),
            RetryPolicy::default(),
            rate("corrupt_rate", f64::NAN),
        ),
        (
            faults(|c| c.transient_rate = 2.0),
            RetryPolicy::default(),
            rate("transient_rate", 2.0),
        ),
        (
            faults(|c| c.latency_rate = -0.1),
            RetryPolicy::default(),
            rate("latency_rate", -0.1),
        ),
        (
            faults(|c| c.table_outage_rate = 1.0 + f64::EPSILON),
            RetryPolicy::default(),
            rate("table_outage_rate", 1.0 + f64::EPSILON),
        ),
        (
            faults(|c| c.stale_replica_rate = f64::INFINITY),
            RetryPolicy::default(),
            rate("stale_replica_rate", f64::INFINITY),
        ),
        (
            faults(|c| (c.latency_rate, c.latency_secs) = (1.0, f64::INFINITY)),
            retry(|r| r.timeout_secs = 0.0),
            secs("latency_secs", f64::INFINITY),
        ),
        (
            faults(|c| c.latency_secs = -0.001),
            RetryPolicy::default(),
            secs("latency_secs", -0.001),
        ),
        (
            faults(|c| c.transient_rate = 1.0),
            retry(|r| (r.backoff_base_secs, r.backoff_cap_secs) = (f64::INFINITY, f64::INFINITY)),
            secs("backoff_base_secs", f64::INFINITY),
        ),
        (
            faults(|c| c.transient_rate = 1.0),
            retry(|r| r.backoff_cap_secs = f64::NAN),
            secs("backoff_cap_secs", f64::NAN),
        ),
        (
            faults(|c| c.latency_rate = 1.0),
            retry(|r| r.timeout_secs = f64::NAN),
            secs("timeout_secs", f64::NAN),
        ),
        (
            faults(|c| c.latency_rate = 1.0),
            retry(|r| r.timeout_secs = -1.0),
            secs("timeout_secs", -1.0),
        ),
        (
            faults(|c| (c.stale_replica_rate, c.stale_replica_rows) = (1.0, usize::MAX)),
            RetryPolicy::default(),
            ConfigError::StaleRowsOverflow,
        ),
    ];
    let aig = sigma0().unwrap();
    let catalog = mini_hospital_catalog().unwrap();
    let args = [("date", Value::str("d1"))];
    // NaN is not equal to itself: compare errors by their rendering, which
    // names the field and the value.
    let same = |err: &MediatorError, expected: &ConfigError| matches!(err, MediatorError::Config(e) if e.to_string() == expected.to_string());
    for (cfg, policy, expected) in cases {
        let built = MediatorOptions::builder()
            .unfold_depth(2)
            .faults(Some(cfg.clone()))
            .retry(policy.clone())
            .build();
        assert_eq!(
            built.map(|_| ()).unwrap_err().to_string(),
            expected.to_string()
        );
        let options = MediatorOptions {
            unfold_depth: 2,
            faults: Some(cfg.clone()),
            retry: policy,
            ..MediatorOptions::default()
        };
        let err = run(&aig, &catalog, &args, &options).unwrap_err();
        assert!(same(&err, &expected), "run: {err} vs {expected}");
        let err = Mediator::new(catalog.clone(), &options).err().unwrap();
        assert!(same(&err, &expected), "Mediator::new: {err} vs {expected}");
        if !matches!(expected, ConfigError::BadSeconds { field, .. } if field != "latency_secs") {
            let err = FaultPlan::new(&cfg, &catalog).unwrap_err();
            assert!(same(&err, &expected), "FaultPlan::new: {err} vs {expected}");
        }
    }
    // The infinite default timeout stays valid: it means "no timeout".
    assert!(MediatorOptions::builder()
        .faults(Some(faults(|c| c.latency_rate = 1.0)))
        .retry(RetryPolicy::default())
        .build()
        .is_ok());
}
