//! Wrong-answer chaos: a seeded conformance harness over the corruption
//! faults of [`aig_mediator::faults`] and the integrity defense of
//! [`aig_mediator::integrity`]. The matrix sweeps {fault kind} × {rate} ×
//! {one-worker walk, per-source walk} × {retry policy} and asserts the system is **never silently wrong**:
//! every injected corruption is either *masked* (the published relations
//! are byte-identical to a clean run) or *detected* with a structured
//! [`MediatorError::IntegrityViolation`] naming the task, table, and the
//! violated constraint. The integrity ledger must balance on every run —
//! `injected = masked_by_retry + detected_by_guard + detected_by_constraint`
//! — and a defense-off ablation proves the faults really do reach the
//! output when nobody checks. Everything is driven by fixed seeds, so
//! these tests are exact, not statistical.

use aig_core::paper::{mini_hospital_catalog, sigma0};
use aig_core::spec::Aig;
use aig_core::{compile_constraints, decompose_queries};
use aig_mediator::exec::{execute_graph, ExecOptions, ExecResult};
use aig_mediator::faults::{
    FaultConfig, FaultKind, FaultLog, FaultOutcome, FaultPlan, RetryPolicy,
};
use aig_mediator::graph::{build_graph, GraphOptions, TaskGraph};
use aig_mediator::parallel::execute_graph_parallel;
use aig_mediator::plan::topo_per_source;
use aig_mediator::unfold::{unfold, CutOff};
use aig_mediator::{run_with_report, Mediator, MediatorError, MediatorOptions, NetworkModel};
use aig_relstore::{Catalog, Column, Database, SourceId, Table, TableSchema, Value};

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

/// Fault injection with the integrity defense switched on.
fn defended_opts(plan: FaultPlan, retry: RetryPolicy) -> ExecOptions {
    let mut opts = ExecOptions::default();
    opts.policy.check_integrity = true;
    opts.faults = Some(plan);
    opts.policy.retry = retry;
    opts
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

/// Every output relation of `faulted` equals the clean run's, byte for byte.
fn assert_stores_identical(graph: &TaskGraph, clean: &ExecResult, faulted: &ExecResult) {
    for task in &graph.tasks {
        if let Some(key) = &task.output {
            assert_eq!(
                clean.store.get(key).unwrap(),
                faulted.store.get(key).unwrap(),
                "relation of {} drifted under wrong-answer faults",
                task.label
            );
        }
    }
}

/// True if any stored relation of `faulted` differs from the clean run.
fn store_drifted(graph: &TaskGraph, clean: &ExecResult, faulted: &ExecResult) -> bool {
    graph.tasks.iter().any(|task| {
        task.output
            .as_ref()
            .is_some_and(|key| clean.store.get(key).unwrap() != faulted.store.get(key).unwrap())
    })
}

/// The integrity identity over the run's fault log: `injected =
/// masked_by_retry + detected_by_guard + detected_by_constraint` over its
/// wrong answers — every one was masked or detected.
fn balanced(log: &FaultLog) -> bool {
    let resolved = |outcome| log.wrong_answers().filter(|e| e.outcome == outcome).count();
    log.wrong_answers().count()
        == resolved(FaultOutcome::Retried)
            + resolved(FaultOutcome::Surfaced)
            + resolved(FaultOutcome::DetectedByConstraint)
}

/// The structured violation names a real task, its table, and a constraint.
fn assert_violation_is_structured(graph: &TaskGraph, catalog: &Catalog, err: &MediatorError) {
    let MediatorError::IntegrityViolation {
        task,
        source,
        table,
        constraint,
        ..
    } = err
    else {
        panic!("expected IntegrityViolation, got {err}");
    };
    assert!(
        graph.tasks.iter().any(|t| &t.label == task),
        "violation names unknown task {task}"
    );
    assert!(!constraint.is_empty(), "violation lost its constraint");
    assert!(!table.is_empty(), "violation lost its table");
    let sid = catalog
        .source_id(source)
        .unwrap_or_else(|_| panic!("violation names unknown source {source}"));
    assert!(
        catalog.source(sid).table(table).is_ok(),
        "violation names unknown table {source}.{table}"
    );
    assert!(
        err.to_string().contains("integrity violation"),
        "display lost the headline: {err}"
    );
}

/// The headline conformance sweep: {corruption rate} × {seed} × {walk:
/// one worker, per source} × {retrying, zero-retry} with checks on. Every run is either byte-identical
/// to the clean run with a balanced all-masked ledger, or fails with a
/// structured `IntegrityViolation` — never silently wrong.
#[test]
fn corruption_matrix_is_masked_or_detected_never_silent() {
    let catalog = mini_hospital_catalog().unwrap();
    let (aig, graph) = setup(&catalog);
    let args = [("date", Value::str("d1"))];
    let clean = execute_graph(&aig, &catalog, &graph, &args, &ExecOptions::default()).unwrap();
    assert!(clean.faults.events.is_empty());

    let mut masked_total = 0usize;
    let mut detected_total = 0usize;
    for seed in [1u64, 2, 3] {
        for rate in [0.05f64, 0.2] {
            let cfg = FaultConfig {
                seed,
                corrupt_rate: rate,
                ..FaultConfig::default()
            };
            let plan = FaultPlan::new(&cfg, &catalog).unwrap();
            for retry in [fast_retry(6), RetryPolicy::none()] {
                let opts = defended_opts(plan.clone(), retry);
                let runs: Vec<Result<ExecResult, MediatorError>> = vec![
                    execute_graph(&aig, &catalog, &graph, &args, &opts),
                    execute_graph_parallel(
                        &aig,
                        &catalog,
                        &graph,
                        &args,
                        &opts,
                        &topo_per_source(&graph),
                    ),
                ];
                let mut ok_ledgers = Vec::new();
                for run in runs {
                    match run {
                        Ok(result) => {
                            // Masked: the corruption never reached the store.
                            assert_stores_identical(&graph, &clean, &result);
                            let log = &result.faults;
                            assert!(balanced(log), "ledger unbalanced: {:?}", log.events);
                            assert_eq!(log.count(FaultOutcome::Undetected), 0);
                            assert_eq!(log.count(FaultOutcome::Surfaced), 0);
                            assert!(log.events.iter().all(|e| e.outcome == FaultOutcome::Retried
                                && matches!(e.kind, FaultKind::CorruptRow(_))
                                && !e.constraint.is_empty()));
                            masked_total += log.wrong_answers().count();
                            ok_ledgers.push(log.sorted_events());
                        }
                        Err(err) => {
                            // Detected: the failure names task, table, and
                            // constraint — wrong data never ships silently.
                            assert_violation_is_structured(&graph, &catalog, &err);
                            detected_total += 1;
                        }
                    }
                }
                // The decision streams are pure functions of
                // (seed, source, table, task, attempt): every executor that
                // completed saw the very same corruption schedule.
                for pair in ok_ledgers.windows(2) {
                    assert_eq!(pair[0], pair[1], "seed {seed} rate {rate}");
                }
            }
        }
    }
    assert!(masked_total > 0, "the matrix never masked a corruption");
    assert!(detected_total > 0, "the matrix never surfaced a detection");
}

/// With a zero-retry policy and certain corruption, both executors surface
/// the structured violation instead of publishing wrong data.
#[test]
fn zero_retry_detection_surfaces_structured_violation() {
    let catalog = mini_hospital_catalog().unwrap();
    let (aig, graph) = setup(&catalog);
    let args = [("date", Value::str("d1"))];
    let cfg = FaultConfig {
        seed: 9,
        corrupt_rate: 1.0,
        ..FaultConfig::default()
    };
    let plan = FaultPlan::new(&cfg, &catalog).unwrap();
    let opts = defended_opts(plan, RetryPolicy::none());

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
        assert_violation_is_structured(&graph, &catalog, &err);
    }
}

/// The ablation that justifies the defense: with checks off the same
/// corruption schedule completes "successfully", the stored relations drift
/// from the clean run, and the ledger says so — `undetected > 0` and the
/// accounting identity no longer balances.
#[test]
fn defense_off_lets_corruption_through_and_the_ledger_says_so() {
    let catalog = mini_hospital_catalog().unwrap();
    let (aig, graph) = setup(&catalog);
    let args = [("date", Value::str("d1"))];
    let clean = execute_graph(&aig, &catalog, &graph, &args, &ExecOptions::default()).unwrap();

    let cfg = FaultConfig {
        seed: 2,
        corrupt_rate: 0.2,
        ..FaultConfig::default()
    };
    let plan = FaultPlan::new(&cfg, &catalog).unwrap();
    let mut opts = ExecOptions::default();
    opts.policy.check_integrity = false;
    opts.policy.check_guards = false;
    opts.faults = Some(plan);
    opts.policy.retry = fast_retry(6);
    let result = execute_graph(&aig, &catalog, &graph, &args, &opts).unwrap();
    let log = &result.faults;
    let undetected = log.count(FaultOutcome::Undetected);
    assert!(undetected > 0, "no corruption flowed through");
    assert_eq!(log.wrong_answers().count(), undetected);
    assert!(!balanced(log), "an unchecked run must not balance");
    assert!(
        store_drifted(&graph, &clean, &result),
        "undetected corruption left no trace in the store"
    );
}

/// Vanished tables: transient per-attempt table outages are masked by the
/// retry loop (one event each, listed in both the resilience and the
/// integrity section of the report); with no retry budget they surface as a
/// `SourceFault` naming the table.
#[test]
fn table_outage_is_masked_by_retry_or_surfaces_naming_the_table() {
    let catalog = mini_hospital_catalog().unwrap();
    let (aig, graph) = setup(&catalog);
    let args = [("date", Value::str("d1"))];
    let clean = execute_graph(&aig, &catalog, &graph, &args, &ExecOptions::default()).unwrap();

    let cfg = FaultConfig {
        seed: 3,
        table_outage_rate: 0.3,
        ..FaultConfig::default()
    };
    let plan = FaultPlan::new(&cfg, &catalog).unwrap();

    let opts = defended_opts(plan.clone(), fast_retry(8));
    let seq = execute_graph(&aig, &catalog, &graph, &args, &opts).unwrap();
    assert_stores_identical(&graph, &clean, &seq);
    let log = &seq.faults;
    let injected = log.wrong_answers().count();
    assert!(injected > 0, "no table outage injected");
    assert!(balanced(log));
    assert!(log.events.iter().all(|e| e.kind == FaultKind::TableOutage
        && e.outcome == FaultOutcome::Retried
        && e.constraint.starts_with("table-available(")));
    // Each masked outage is one event, and the report lists it in both
    // sections: as a retried fail-stop fault and as a masked wrong answer.
    let options = MediatorOptions {
        unfold_depth: 3,
        max_depth: 3,
        cutoff: CutOff::Truncate,
        check_integrity: true,
        faults: Some(cfg.clone()),
        retry: fast_retry(8),
        ..MediatorOptions::default()
    };
    let (_, report) = run_with_report(&sigma0().unwrap(), &catalog, &args, &options).unwrap();
    let (resilience, integrity) = (&report.resilience, &report.integrity);
    assert_eq!(integrity.injected, injected);
    assert_eq!(integrity.masked_by_retry, injected);
    assert_eq!(resilience.retried, injected);
    assert_eq!(resilience.events.len(), integrity.events.len());
    for (r, i) in resilience.events.iter().zip(&integrity.events) {
        assert_eq!(
            (r.task, r.attempt, r.kind, r.outcome),
            (i.task, i.attempt, i.kind, i.outcome)
        );
    }

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
    assert_eq!(par.faults.sorted_events(), log.sorted_events());

    let hard = FaultConfig {
        seed: 3,
        table_outage_rate: 0.9,
        ..FaultConfig::default()
    };
    let plan = FaultPlan::new(&hard, &catalog).unwrap();
    let opts = defended_opts(plan, RetryPolicy::none());
    let err = execute_graph(&aig, &catalog, &graph, &args, &opts).unwrap_err();
    let MediatorError::SourceFault { kind, source, .. } = &err else {
        panic!("expected SourceFault, got {err}");
    };
    assert!(
        kind.starts_with("table-outage("),
        "the surfaced fault must name the vanished table: {kind}"
    );
    let table = kind
        .strip_prefix("table-outage(")
        .and_then(|k| k.strip_suffix(')'))
        .unwrap();
    let sid = catalog.source_id(source).unwrap();
    assert!(
        catalog.source(sid).table(table).is_ok(),
        "unknown table {source}.{table}"
    );
}

/// Replica staleness passes the task-boundary guard *by design* — trailing
/// truncation preserves arity, types, row identity and key uniqueness — so
/// at the executor level it is recorded as `undetected` and the store
/// drifts. This is exactly the gap the document-level constraint check
/// closes (next test).
#[test]
fn stale_replica_passes_the_relation_guard_but_is_ledgered() {
    let catalog = catalog_with_replica_of("DB3");
    let (aig, graph) = setup(&catalog);
    let args = [("date", Value::str("d1"))];
    let clean = execute_graph(&aig, &catalog, &graph, &args, &ExecOptions::default()).unwrap();

    let cfg = FaultConfig {
        seed: 4,
        outages: vec!["DB3".to_string()],
        stale_replica_rate: 1.0,
        stale_replica_rows: 4,
        ..FaultConfig::default()
    };
    let plan = FaultPlan::new(&cfg, &catalog).unwrap();
    let mut opts = defended_opts(plan, fast_retry(3));
    opts.policy.check_guards = false;
    let result = execute_graph(&aig, &catalog, &graph, &args, &opts).unwrap();
    let stale: Vec<_> = result
        .faults
        .events
        .iter()
        .filter(|e| e.kind == FaultKind::StaleReplica)
        .collect();
    assert!(!stale.is_empty(), "no failed-over task answered stale");
    assert!(stale.iter().all(|e| e.outcome == FaultOutcome::Undetected));
    assert!(!balanced(&result.faults));
    assert!(
        store_drifted(&graph, &clean, &result),
        "a stale replica must leave truncated relations behind"
    );
    assert!(
        result.faults.count(FaultOutcome::FailedOver) > 0,
        "staleness only applies to failed-over tasks"
    );
}

/// The document-level defense: a stale DB3 replica truncates billing
/// answers, which silently passes every task-boundary check but breaks the
/// published document's inclusion constraint
/// `patient(treatment.trId <= item.trId)`. The pipeline's constraint check
/// catches it, upgrades the ledger, and surfaces the structured violation.
#[test]
fn stale_replica_is_detected_by_the_document_constraint_check() {
    let catalog = catalog_with_replica_of("DB3");
    let aig = sigma0().unwrap();
    let args = [("date", Value::str("d1"))];
    let mut options = MediatorOptions {
        unfold_depth: 3,
        max_depth: 3,
        cutoff: CutOff::Truncate,
        network: NetworkModel::mbps(1.0),
        check_integrity: true,
        // Disable the compiled evaluation-time guards so the document-level
        // ConstraintSet check is provably the layer that catches this.
        check_guards: false,
        ..MediatorOptions::default()
    };
    options.graph.eval_scale = 0.0;
    options.graph.cost_model.per_query_overhead_secs = 1.0;
    options.faults = Some(FaultConfig {
        seed: 4,
        outages: vec!["DB3".to_string()],
        stale_replica_rate: 1.0,
        stale_replica_rows: 4,
        ..FaultConfig::default()
    });
    options.retry = fast_retry(3);

    let err = run_with_report(&aig, &catalog, &args, &options).unwrap_err();
    let MediatorError::IntegrityViolation {
        task,
        table,
        constraint,
        ..
    } = &err
    else {
        panic!("expected IntegrityViolation, got {err}");
    };
    assert_eq!(constraint, "patient(treatment.trId <= item.trId)");
    assert!(!task.is_empty(), "violation lost its task");
    assert!(!table.is_empty(), "violation lost its table");
}

/// A clean pipeline run with checks on reports an enabled, empty, balanced
/// integrity section; a corrupted run masks everything by retry, publishes
/// a byte-identical document, and reports a balancing ledger in JSON.
#[test]
fn pipeline_reports_the_integrity_ledger() {
    let catalog = mini_hospital_catalog().unwrap();
    let aig = sigma0().unwrap();
    let args = [("date", Value::str("d1"))];
    let mut options = MediatorOptions {
        unfold_depth: 3,
        max_depth: 3,
        cutoff: CutOff::Truncate,
        network: NetworkModel::mbps(1.0),
        check_integrity: true,
        ..MediatorOptions::default()
    };
    options.graph.eval_scale = 0.0;
    options.graph.cost_model.per_query_overhead_secs = 1.0;

    let (clean_run, clean_report) = run_with_report(&aig, &catalog, &args, &options).unwrap();
    assert!(clean_report.integrity.enabled);
    assert_eq!(clean_report.integrity.injected, 0);
    assert!(clean_report.integrity.balanced);

    for parallel_exec in [false, true] {
        let mut faulted = options.clone();
        faulted.parallel_exec = parallel_exec;
        faulted.faults = Some(FaultConfig {
            seed: 11,
            corrupt_rate: 0.2,
            ..FaultConfig::default()
        });
        faulted.retry = fast_retry(6);
        let (run, report) = run_with_report(&aig, &catalog, &args, &faulted).unwrap();
        assert_eq!(
            clean_run.tree, run.tree,
            "masked corruption must not change the document (parallel={parallel_exec})"
        );
        let i = &report.integrity;
        assert!(i.enabled);
        assert!(i.injected > 0, "no corruption injected");
        assert_eq!(i.masked_by_retry, i.injected);
        assert_eq!(i.undetected, 0);
        assert!(i.balanced);
        for event in &i.events {
            assert!(matches!(event.kind, FaultKind::CorruptRow(_)));
            assert_eq!(event.outcome, FaultOutcome::Retried);
            assert!(!event.kind.detail().is_empty());
            assert!(!event.constraint.is_empty());
        }
        let json = report.to_json().to_pretty();
        assert!(json.contains("\"integrity\""));
        assert!(json.contains("\"balanced\": true"));
        assert!(json.contains("corrupt-row"));
        let text = aig_mediator::render_report(&report);
        assert!(text.contains("integrity (checks on)"), "{text}");
        assert!(text.contains("balanced"), "{text}");
    }
}

/// Determinism regression (the `FaultPlan` purity contract): identical
/// `(seed, config, catalog)` produce byte-identical wrong-answer schedules
/// — across repeated plan constructions, across query order, and across
/// executors and thread counts observing them.
#[test]
fn fault_schedules_are_deterministic_across_executors_and_repeats() {
    let catalog = mini_hospital_catalog().unwrap();
    let (aig, graph) = setup(&catalog);
    let args = [("date", Value::str("d1"))];
    let cfg = FaultConfig {
        seed: 42,
        corrupt_rate: 0.3,
        table_outage_rate: 0.1,
        stale_replica_rate: 0.5,
        stale_replica_rows: 2,
        ..FaultConfig::default()
    };
    let plan_a = FaultPlan::new(&cfg, &catalog).unwrap();
    let plan_b = FaultPlan::new(&cfg, &catalog).unwrap();

    // The raw decision streams agree point-for-point, regardless of the
    // order the sites are interrogated in.
    let sources: Vec<SourceId> = (0..4)
        .map(|i| catalog.source_id(&format!("DB{}", i + 1)).unwrap())
        .collect();
    let tables = ["patient", "visitInfo", "cover", "billing", "treatment"];
    let mut schedule_a = Vec::new();
    for &source in &sources {
        for table in tables {
            for task in 0..graph.tasks.len() {
                for attempt in 0..4 {
                    schedule_a.push((
                        plan_a.decide_table_outage(source, table, task, attempt),
                        plan_a.decide_corruption(source, table, task, attempt),
                        plan_a.decide_stale(source, table, task, attempt),
                    ));
                }
            }
        }
    }
    let mut schedule_b = Vec::new();
    for &source in sources.iter().rev() {
        for table in tables.iter().rev() {
            for task in (0..graph.tasks.len()).rev() {
                for attempt in (0..4).rev() {
                    schedule_b.push((
                        plan_b.decide_table_outage(source, table, task, attempt),
                        plan_b.decide_corruption(source, table, task, attempt),
                        plan_b.decide_stale(source, table, task, attempt),
                    ));
                }
            }
        }
    }
    schedule_b.reverse();
    assert_eq!(schedule_a, schedule_b, "decision streams are not pure");
    assert!(
        schedule_a
            .iter()
            .any(|(o, c, s)| *o || c.is_some() || s.is_some()),
        "the schedule never injects anything"
    );

    // Both walks observe the same schedule: the sorted integrity ledgers of
    // two one-worker runs and a per-source run are identical.
    let cfg = FaultConfig {
        seed: 42,
        corrupt_rate: 0.3,
        ..FaultConfig::default()
    };
    let plan = FaultPlan::new(&cfg, &catalog).unwrap();
    let opts = defended_opts(plan, fast_retry(8));
    let mut ledgers = Vec::new();
    for _ in 0..2 {
        let seq = execute_graph(&aig, &catalog, &graph, &args, &opts).unwrap();
        ledgers.push(seq.faults.sorted_events());
    }
    let par = execute_graph_parallel(
        &aig,
        &catalog,
        &graph,
        &args,
        &opts,
        &topo_per_source(&graph),
    )
    .unwrap();
    ledgers.push(par.faults.sorted_events());
    assert!(!ledgers[0].is_empty(), "seed 42 injected nothing");
    for pair in ledgers.windows(2) {
        assert_eq!(pair[0], pair[1], "fault schedule drifted across runs");
    }
}

/// The document check compares text, not symbols: `Int(7)` and `Str("7")`
/// are two symbols — distinct to every relational operator and guard —
/// but one text id in the document, so two items keyed by them violate the
/// key.
#[test]
fn a_key_over_an_int_and_a_string_of_one_text_is_violated() {
    let aig = aig_core::parse_aig(
        r#"
        aig typed {
          dtd {
            <!ELEMENT r (left, right)>
            <!ELEMENT left (item*)>
            <!ELEMENT right (item*)>
            <!ELEMENT item (k)>
            <!ELEMENT k (#PCDATA)>
          }
          elem r {
            child left { }
            child right { }
          }
          elem left {
            child item* from sql { select t.k as k from DB:ints t };
          }
          elem right {
            child item* from sql { select t.k as k from DB:strs t };
          }
          elem item {
            inh(k);
            child k { val = $k; }
          }
          constraint r(item.k -> item);
        }
        "#,
    )
    .unwrap();
    let mut db = Database::new("DB");
    for (name, column, value) in [
        ("ints", Column::int("k"), Value::int(7)),
        ("strs", Column::str("k"), Value::str("7")),
    ] {
        let mut table = Table::new(TableSchema::new(name, vec![column], &["k"]).unwrap());
        table.insert(vec![value]).unwrap();
        db.add_table(table).unwrap();
    }
    let mut catalog = Catalog::new();
    catalog.add_source(db).unwrap();

    let unchecked = MediatorOptions::default();
    let (run, _) = Mediator::new(catalog.clone(), &unchecked)
        .unwrap()
        .request(&aig, &[])
        .unwrap();
    let tree = &run.tree;
    let texts: Vec<_> = tree.iter().filter_map(|n| tree.text_id(n)).collect();
    assert!(texts.len() == 2 && texts[0] == texts[1], "{texts:?}");
    assert_eq!(
        aig_xml::serialize::to_string(tree),
        "<r><left><item><k>7</k></item></left><right><item><k>7</k></item></right></r>"
    );

    let checked = MediatorOptions {
        check_integrity: true,
        ..MediatorOptions::default()
    };
    let err = Mediator::new(catalog, &checked)
        .unwrap()
        .request(&aig, &[])
        .unwrap_err();
    let MediatorError::IntegrityViolation {
        constraint, value, ..
    } = &err
    else {
        panic!("expected IntegrityViolation, got {err}");
    };
    assert_eq!(
        (constraint.as_str(), value.as_str()),
        ("r(item.k -> item)", "7")
    );
}
