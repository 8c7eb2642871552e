//! Byte-identity conformance for incremental re-evaluation: across the
//! matrix {sequential, parallel} × {batching on/off} × {faults off /
//! transient+latency}, a request served incrementally
//! after a source delta must produce a document **byte-identical** to a
//! cold full run of a fresh mediator over the post-delta catalog — the
//! re-run subgraph and the splice change *how much work* a request does,
//! never what it answers. The full
//! `ConstraintSet::check` over the incremental document is the
//! independent oracle on top of the scoped check the path runs itself.
//!
//! Mid-run outage faults (`dies_after`) are deliberately absent from the
//! fault cells: they trigger on global per-source completion counts, so
//! the service routes them to the full path (covered by
//! `mid_run_outage_plans_bypass_snapshots` below). A *hard* outage is
//! failed over when the walk first meets it and does refresh incrementally
//! (`hard_outage_cell_fails_over_only_the_rerun_tasks`).

use aig_core::paper::{mini_hospital_catalog, sigma0};
use aig_core::spec::Aig;
use aig_datagen::{cover_delta, price_delta, visit_delta, HospitalConfig};
use aig_mediator::delta::rerun_mask;
use aig_mediator::faults::{FaultConfig, FaultOutcome, RetryPolicy};
use aig_mediator::{Mediator, MediatorOptions};
use aig_relstore::{Catalog, Database, SourceDelta, Value};

struct Fixture {
    aig: Aig,
    catalog: Catalog,
    date: String,
}

fn fixture(seed: u64) -> Fixture {
    let data = HospitalConfig::tiny(seed).generate().unwrap();
    Fixture {
        aig: sigma0().unwrap(),
        date: data.dates[0].clone(),
        catalog: data.catalog,
    }
}

fn options(parallel: bool, batching: bool, faults: bool) -> MediatorOptions {
    let mut builder = MediatorOptions::builder()
        .unfold_depth(3)
        .incremental(true)
        .parallel_exec(parallel)
        .batching(batching)
        .batch_rows(2);
    if faults {
        builder = builder
            .faults(Some(FaultConfig {
                seed: 7,
                transient_rate: 0.15,
                latency_rate: 0.1,
                latency_secs: 0.0002,
                ..FaultConfig::default()
            }))
            .retry(RetryPolicy {
                max_attempts: 6,
                backoff_base_secs: 0.0001,
                backoff_cap_secs: 0.001,
                jitter: 0.5,
                timeout_secs: f64::INFINITY,
            });
    }
    builder.build().unwrap()
}

/// The delta sequence of one cell: single-table deltas alternating between
/// the two mutable tables, built against the mediator's *current* catalog
/// so inserts stay fresh and deletes hit present rows.
fn next_delta(catalog: &Catalog, date: &str, step: usize) -> SourceDelta {
    match step % 2 {
        0 => visit_delta(catalog, date, 3, 2, 100 + step as u64).unwrap(),
        _ => cover_delta(catalog, 2, 1, 200 + step as u64).unwrap(),
    }
}

fn assert_cell(parallel: bool, batching: bool, faults: bool) {
    let fx = fixture(11);
    let opts = options(parallel, batching, faults);
    let mut mediator = Mediator::new(fx.catalog.clone(), &opts).unwrap();
    let args = [("date", Value::str(&fx.date))];
    let cell = format!("parallel={parallel} batching={batching} faults={faults}");

    // Cold run: the ledger is on, but there is no snapshot to splice.
    let (_, cold) = mediator.request(&fx.aig, &args).unwrap();
    assert!(cold.incremental.enabled, "{cell}");
    assert!(!cold.incremental.snapshot_hit, "{cell}");
    assert_eq!(
        cold.incremental.tasks_rerun, cold.incremental.tasks_total,
        "{cell}"
    );

    for step in 0..2 {
        let delta = next_delta(mediator.catalog(), &fx.date, step);
        let applied = mediator.apply_delta(&delta).unwrap();
        assert!(applied.inserted + applied.deleted > 0, "{cell} step {step}");

        let (incr, report) = mediator.request(&fx.aig, &args).unwrap();
        assert!(
            report.incremental.snapshot_hit,
            "{cell} step {step}: no snapshot hit"
        );
        assert!(
            report.incremental.tasks_rerun > 0,
            "{cell} step {step}: delta touched nothing"
        );
        assert!(
            report.incremental.tasks_rerun < report.incremental.tasks_total,
            "{cell} step {step}: single-table delta re-ran the whole graph \
             ({}/{})",
            report.incremental.tasks_rerun,
            report.incremental.tasks_total
        );

        // Oracle 1: byte-identity against a cold full run of a *fresh*
        // mediator over the post-delta catalog.
        let oracle = Mediator::new(mediator.catalog().clone(), &opts).unwrap();
        let (full, full_report) = oracle.request(&fx.aig, &args).unwrap();
        assert!(!full_report.incremental.snapshot_hit);
        assert_eq!(
            aig_xml::serialize::to_string(&incr.tree),
            aig_xml::serialize::to_string(&full.tree),
            "{cell} step {step}: incremental document drifted from cold run"
        );

        // Oracle 2: the scoped constraint check inside the path must not
        // have let anything through that the *full* check would catch.
        let violations = fx.aig.constraints.check(&incr.tree);
        assert!(
            violations.is_empty(),
            "{cell} step {step}: full constraint check found {violations:?}"
        );
    }
}

#[test]
fn sequential_cells_are_byte_identical() {
    for batching in [false, true] {
        for faults in [false, true] {
            assert_cell(false, batching, faults);
        }
    }
}

#[test]
fn parallel_cells_are_byte_identical() {
    for batching in [false, true] {
        for faults in [false, true] {
            assert_cell(true, batching, faults);
        }
    }
}

/// A refresh runs under the dispatcher the policy selects, and its report
/// says so: per-source workers under `parallel_exec`, one ready-queue pick
/// per re-run task.
#[test]
fn a_parallel_refresh_runs_and_reports_under_its_dispatcher() {
    let fx = fixture(11);
    let opts = options(true, false, false);
    let mut mediator = Mediator::new(fx.catalog.clone(), &opts).unwrap();
    let args = [("date", Value::str(&fx.date))];
    mediator.request(&fx.aig, &args).unwrap();
    let (deletes, inserts) = price_delta(mediator.catalog(), 1, 3).unwrap();
    mediator.apply_delta(&deletes).unwrap();
    mediator.apply_delta(&inserts).unwrap();

    let (refresh, report) = mediator.request(&fx.aig, &args).unwrap();
    assert!(report.incremental.snapshot_hit);
    assert!(report.incremental.tasks_rerun > 0);
    assert!(report.parallel_exec);
    assert_eq!(report.scheduler.mode, "dynamic");
    assert_eq!(report.scheduler.picks, report.incremental.tasks_rerun);

    let oracle = Mediator::new(mediator.catalog().clone(), &opts).unwrap();
    let (cold, _) = oracle.request(&fx.aig, &args).unwrap();
    assert_eq!(
        aig_xml::serialize::to_string(&refresh.tree),
        aig_xml::serialize::to_string(&cold.tree),
        "refresh drifted from the cold run"
    );
}

/// Snapshots are keyed by the typed argument values: a request for
/// `Int(7)` must not be served the run of `Str("7")`, whose text it shares.
#[test]
fn snapshots_are_keyed_by_typed_arguments() {
    let aig = sigma0().unwrap();
    let opts = options(false, false, false);
    let mut mediator = Mediator::new(mini_hospital_catalog().unwrap(), &opts).unwrap();
    mediator
        .with_catalog_mut(|catalog| {
            let db1 = catalog.source_id("DB1").unwrap();
            let visits = catalog.source_mut(db1).table_mut("visitInfo").unwrap();
            visits.insert(["s1", "t1", "7"].map(Value::str).to_vec())
        })
        .unwrap()
        .unwrap();
    let xml = |run: &aig_mediator::MediatorRun| aig_xml::serialize::to_string(&run.tree);
    let (text, _) = mediator
        .request(&aig, &[("date", Value::str("7"))])
        .unwrap();
    assert!(xml(&text).contains("Alice"));

    let int = [("date", Value::int(7))];
    let (served, _) = mediator.request(&aig, &int).unwrap();
    let oracle = Mediator::new(mediator.catalog().clone(), &opts).unwrap();
    let (cold, _) = oracle.request(&aig, &int).unwrap();
    assert_eq!(xml(&served), xml(&cold));
    assert!(!xml(&served).contains("Alice"));
}

#[test]
fn unchanged_catalog_reruns_nothing() {
    let fx = fixture(13);
    let opts = options(false, false, false);
    let mediator = Mediator::new(fx.catalog.clone(), &opts).unwrap();
    let args = [("date", Value::str(&fx.date))];

    let (cold, _) = mediator.request(&fx.aig, &args).unwrap();
    let (warm, report) = mediator.request(&fx.aig, &args).unwrap();
    assert!(report.incremental.snapshot_hit);
    assert_eq!(report.incremental.tasks_rerun, 0);
    assert_eq!(
        report.incremental.tasks_reused,
        report.incremental.tasks_total
    );
    assert_eq!(report.incremental.rows_spliced, 0);
    assert!(report.incremental.dirty_tables.is_empty());
    // Nothing tainted: no constraint needs re-checking. The refresh tags
    // the spliced store as a cold run does: it copies no node.
    assert_eq!(report.incremental.constraints_scoped, 0);
    assert!(
        report.incremental.nodes_reused == 0 && report.incremental.nodes_rebuilt == warm.tree.len()
    );
    assert_eq!(
        aig_xml::serialize::to_string(&cold.tree),
        aig_xml::serialize::to_string(&warm.tree)
    );
}

/// A delta that fails part-way has already changed the tables before the
/// failing row: the snapshot must not keep serving what they held. Here the
/// first delete removes Alice's only d1 visit and the second names no row.
#[test]
fn a_failed_delta_still_dirties_the_tables_it_names() {
    let aig = sigma0().unwrap();
    let opts = options(false, false, false);
    let mut mediator = Mediator::new(mini_hospital_catalog().unwrap(), &opts).unwrap();
    let args = [("date", Value::str("d1"))];
    let xml = |run: &aig_mediator::MediatorRun| aig_xml::serialize::to_string(&run.tree);
    let (before, _) = mediator.request(&aig, &args).unwrap();
    assert!(xml(&before).contains("Alice"));

    let row = |cells: [&str; 3]| cells.map(Value::str).to_vec();
    let delta = SourceDelta::new().delete(
        "DB1",
        "visitInfo",
        vec![row(["s1", "t1", "d1"]), row(["s9", "t9", "d9"])],
    );
    assert!(mediator.apply_delta(&delta).is_err());
    let (after, report) = mediator.request(&aig, &args).unwrap();
    assert_eq!(report.incremental.dirty_tables, vec!["DB1.visitInfo"]);
    let cold = Mediator::new(mediator.catalog().clone(), &opts).unwrap();
    let (cold, _) = cold.request(&aig, &args).unwrap();
    assert_eq!(xml(&after), xml(&cold));
    assert!(!xml(&after).contains("Alice"));
}

#[test]
fn empty_delta_marks_nothing_dirty() {
    let fx = fixture(17);
    let opts = options(false, false, false);
    let mut mediator = Mediator::new(fx.catalog.clone(), &opts).unwrap();
    let args = [("date", Value::str(&fx.date))];
    mediator.request(&fx.aig, &args).unwrap();

    let applied = mediator.apply_delta(&SourceDelta::new()).unwrap();
    assert_eq!(applied.inserted + applied.deleted, 0);
    let (_, report) = mediator.request(&fx.aig, &args).unwrap();
    assert!(report.incremental.snapshot_hit);
    assert_eq!(report.incremental.tasks_rerun, 0);
    assert!(report.incremental.dirty_tables.is_empty());
}

#[test]
fn delta_report_names_the_dirty_tables() {
    let fx = fixture(19);
    let opts = options(false, false, false);
    let mut mediator = Mediator::new(fx.catalog.clone(), &opts).unwrap();
    let args = [("date", Value::str(&fx.date))];
    mediator.request(&fx.aig, &args).unwrap();

    // A cover delta taints only the coverage choice deep in the tree —
    // unlike visitInfo, which feeds the patient star at the root.
    let delta = cover_delta(mediator.catalog(), 2, 1, 5).unwrap();
    mediator.apply_delta(&delta).unwrap();
    let (run, report) = mediator.request(&fx.aig, &args).unwrap();
    assert_eq!(report.incremental.dirty_tables, vec!["DB2.cover"]);
    assert!(report.incremental.rows_spliced > 0);
    assert!(
        report.incremental.nodes_reused == 0 && report.incremental.nodes_rebuilt == run.tree.len()
    );
    // Both of σ0's constraints mention tags inside the coverage subtree,
    // so the scope keeps them: the interesting narrowing case here is the
    // no-delta request (scoped = 0, see `unchanged_catalog_reruns_nothing`).
    assert!(report.incremental.constraints_scoped > 0);
    assert_eq!(
        report.incremental.constraints_total,
        fx.aig.constraints.len()
    );

    // The dirty set is consumed: the next request reruns nothing.
    let (_, report) = mediator.request(&fx.aig, &args).unwrap();
    assert!(report.incremental.snapshot_hit);
    assert_eq!(report.incremental.tasks_rerun, 0);
}

/// Satellite regression: row deltas keep both caches warm — prepared plans
/// are data-independent and snapshots are exactly what deltas splice into —
/// while schema changes purge them both.
#[test]
fn row_deltas_keep_plans_warm_while_schema_deltas_invalidate() {
    let fx = fixture(23);
    let opts = options(false, false, false);
    let mut mediator = Mediator::new(fx.catalog.clone(), &opts).unwrap();
    let args = [("date", Value::str(&fx.date))];
    mediator.request(&fx.aig, &args).unwrap();
    let baseline = mediator.cache_stats();
    assert!(mediator.snapshot_count() > 0);

    // Row delta: plans stay resident, no invalidation, the next request
    // hits both the plan cache and the snapshot.
    let delta = visit_delta(mediator.catalog(), &fx.date, 1, 1, 31).unwrap();
    mediator.apply_delta(&delta).unwrap();
    let stats = mediator.cache_stats();
    assert_eq!(stats.entries, baseline.entries);
    assert_eq!(stats.invalidations, baseline.invalidations);
    let (_, report) = mediator.request(&fx.aig, &args).unwrap();
    assert!(report.cache.hit, "row delta evicted a prepared plan");
    assert!(
        report.incremental.snapshot_hit,
        "row delta dropped a snapshot"
    );

    // Schema delta: declaring a replica purges plans *and* snapshots.
    mediator
        .with_catalog_mut(|catalog| {
            let db1 = catalog.source_id("DB1").unwrap();
            let db2 = catalog.source_id("DB2").unwrap();
            catalog.declare_replica(db1, db2).unwrap();
        })
        .unwrap();
    let stats = mediator.cache_stats();
    assert_eq!(stats.invalidations, baseline.invalidations + 1);
    assert_eq!(stats.entries, 0);
    assert_eq!(mediator.snapshot_count(), 0);
    let (_, report) = mediator.request(&fx.aig, &args).unwrap();
    assert!(!report.cache.hit, "stale plan served across schema change");
    assert!(!report.incremental.snapshot_hit);
}

/// The hard-outage cell: DB3 is down for the whole run and served by its
/// declared replica. A price delta (written to primary and replica alike)
/// refreshes incrementally — byte-identical to a fresh cold mediator over
/// the post-delta catalog — and only the re-run DB3 tasks fail over again;
/// reused tasks never touch the replica.
#[test]
fn hard_outage_cell_fails_over_only_the_rerun_tasks() {
    let fx = fixture(11);
    let mut catalog = fx.catalog.clone();
    let db3 = catalog.source_id("DB3").unwrap();
    let mut replica_db = Database::new("DB3R");
    for table in catalog.source(db3).tables() {
        replica_db.add_table(table.clone()).unwrap();
    }
    let replica = catalog.add_source(replica_db).unwrap();
    catalog.declare_replica(db3, replica).unwrap();
    let opts = MediatorOptions::builder()
        .unfold_depth(3)
        .incremental(true)
        .faults(Some(FaultConfig {
            outages: vec!["DB3".to_string()],
            ..FaultConfig::default()
        }))
        .build()
        .unwrap();
    let mut mediator = Mediator::new(catalog, &opts).unwrap();
    let args = [("date", Value::str(&fx.date))];

    let (_, cold) = mediator.request(&fx.aig, &args).unwrap();
    let plan = mediator.prepare(&fx.aig).unwrap();
    let at_db3 = |id: usize| plan.graph.tasks[id].source == db3;
    let db3_tasks = (0..plan.graph.tasks.len()).filter(|&id| at_db3(id)).count();
    assert!(db3_tasks > 0, "fixture has no DB3 tasks");
    assert_eq!(cold.resilience.failed_over, db3_tasks);
    assert_eq!(cold.resilience.replans, 1);

    let (deletes, inserts) = price_delta(mediator.catalog(), 2, 5).unwrap();
    let mut dirty = std::collections::BTreeSet::new();
    for mut delta in [deletes, inserts] {
        // A replicated write: the replica receives the same row batches.
        for batches in [&mut delta.inserts, &mut delta.deletes] {
            let mirrored: Vec<_> = batches.to_vec();
            batches.extend(mirrored.into_iter().map(|mut batch| {
                assert_eq!(batch.source, "DB3");
                batch.source = "DB3R".to_string();
                batch
            }));
        }
        dirty.extend(mediator.apply_delta(&delta).unwrap().touched);
    }

    let (incr, report) = mediator.request(&fx.aig, &args).unwrap();
    assert!(report.incremental.snapshot_hit);
    let rerun = rerun_mask(&plan.graph, &plan.read_sets.seeds(&dirty));
    let rerun_at_db3 = (0..rerun.len())
        .filter(|&id| rerun[id] && at_db3(id))
        .count();
    assert!(rerun_at_db3 > 0, "the price delta re-ran no DB3 task");
    assert!(report.incremental.tasks_rerun < report.incremental.tasks_total);
    let failed_over: Vec<usize> = (report.resilience.events.iter())
        .filter(|e| e.outcome == FaultOutcome::FailedOver)
        .map(|e| e.task)
        .collect();
    assert_eq!(failed_over.len(), rerun_at_db3);
    assert!(failed_over.iter().all(|&id| rerun[id] && at_db3(id)));
    assert_eq!(report.resilience.replans, 1);

    let oracle = Mediator::new(mediator.catalog().clone(), &opts).unwrap();
    let (full, full_report) = oracle.request(&fx.aig, &args).unwrap();
    assert!(!full_report.incremental.snapshot_hit);
    assert_eq!(
        aig_xml::serialize::to_string(&incr.tree),
        aig_xml::serialize::to_string(&full.tree),
        "incremental document drifted from the cold run under a hard outage"
    );
    assert!(fx.aig.constraints.check(&incr.tree).is_empty());
}

/// Fault plans with mid-run outages (`dies_after`) depend on global
/// per-source completion counts, so the service must not serve them from
/// snapshots: every request replays the full graph.
#[test]
fn mid_run_outage_plans_bypass_snapshots() {
    let fx = fixture(29);
    let mut cfg = FaultConfig::default();
    cfg.dies_after.push(("DB2".to_string(), 1));
    let opts = MediatorOptions::builder()
        .unfold_depth(3)
        .incremental(true)
        .faults(Some(cfg))
        .build()
        .unwrap();
    let mut mediator = Mediator::new(fx.catalog.clone(), &opts).unwrap();
    let args = [("date", Value::str(&fx.date))];

    let (first, report) = mediator.request(&fx.aig, &args).unwrap();
    assert!(report.incremental.enabled);
    assert!(!report.incremental.snapshot_hit);
    assert_eq!(mediator.snapshot_count(), 0, "outage run was snapshotted");

    let delta = visit_delta(mediator.catalog(), &fx.date, 1, 0, 37).unwrap();
    mediator.apply_delta(&delta).unwrap();
    let (second, report) = mediator.request(&fx.aig, &args).unwrap();
    assert!(!report.incremental.snapshot_hit);
    assert_eq!(
        report.incremental.tasks_rerun,
        report.incremental.tasks_total
    );
    // The full path still answers correctly across the delta.
    let oracle = Mediator::new(mediator.catalog().clone(), &opts).unwrap();
    let (oracle_run, _) = oracle.request(&fx.aig, &args).unwrap();
    assert_eq!(
        aig_xml::serialize::to_string(&second.tree),
        aig_xml::serialize::to_string(&oracle_run.tree)
    );
    drop(first);
}

/// With the policy off (the default), the ledger stays disabled and no
/// snapshot is retained — the feature is strictly opt-in.
#[test]
fn incremental_off_retains_nothing() {
    let fx = fixture(41);
    let opts = MediatorOptions::builder().unfold_depth(3).build().unwrap();
    let mediator = Mediator::new(fx.catalog.clone(), &opts).unwrap();
    let args = [("date", Value::str(&fx.date))];
    let (_, report) = mediator.request(&fx.aig, &args).unwrap();
    assert!(!report.incremental.enabled);
    assert!(!report.incremental.snapshot_hit);
    assert_eq!(mediator.snapshot_count(), 0);
}

/// A snapshot outlives its plan, and it is spliced by task id: with room for
/// one plan, preparing another AIG evicts σ0's while its snapshot stays, and
/// the next σ0 request after a delta prepares the plan again — every task at
/// the id it had — splices the snapshot into it and serves a document equal
/// to a cold run's.
#[test]
fn a_snapshot_is_spliced_into_a_re_prepared_plan() {
    let fx = fixture(11);
    let opts = options(false, false, false);
    let mut mediator = Mediator::with_cache_capacity(fx.catalog.clone(), &opts, 1).unwrap();
    let args = [("date", Value::str(&fx.date))];
    mediator.request(&fx.aig, &args).unwrap();
    assert_eq!(mediator.snapshot_count(), 1);

    let mut other = fx.aig.clone();
    other.constraints = Default::default();
    assert_ne!(other.fingerprint(), fx.aig.fingerprint());
    mediator.prepare(&other).unwrap();
    let stats = mediator.cache_stats();
    assert!(stats.entries == 1 && stats.evictions >= 1, "{stats:?}");
    assert_eq!(
        mediator.snapshot_count(),
        1,
        "the snapshot outlives its plan"
    );

    let delta = next_delta(mediator.catalog(), &fx.date, 0);
    mediator.apply_delta(&delta).unwrap();
    let misses = mediator.cache_stats().misses;
    let (served, report) = mediator.request(&fx.aig, &args).unwrap();
    assert!(
        mediator.cache_stats().misses > misses,
        "σ0's plan is prepared again"
    );
    let incremental = &report.incremental;
    assert!(incremental.snapshot_hit, "the snapshot is spliced");
    assert!(
        0 < incremental.tasks_rerun && incremental.tasks_rerun < incremental.tasks_total,
        "{} of {} tasks re-run",
        incremental.tasks_rerun,
        incremental.tasks_total
    );

    let oracle = Mediator::new(mediator.catalog().clone(), &opts).unwrap();
    let (cold, _) = oracle.request(&fx.aig, &args).unwrap();
    assert_eq!(
        aig_xml::serialize::to_string(&served.tree),
        aig_xml::serialize::to_string(&cold.tree),
        "a refresh of a re-prepared plan drifted from a cold run"
    );
}
