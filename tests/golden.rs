//! Golden-file tests for the explain renderings and the redacted run report
//! on σ0 with the fixed mini hospital catalog. Regenerate the files under
//! `tests/golden/` with `UPDATE_GOLDEN=1 cargo test -q --test golden`.

use aig_core::paper::{mini_hospital_catalog, sigma0};
use aig_core::{compile_constraints, decompose_queries};
use aig_mediator::cost::{estimated_costs, CostGraph};
use aig_mediator::faults::{FaultConfig, RetryPolicy};
use aig_mediator::graph::{build_graph, GraphOptions};
use aig_mediator::obs::ReportValue;
use aig_mediator::schedule::schedule;
use aig_mediator::unfold::{unfold, CutOff};
use aig_mediator::{
    render_graph, render_plan, render_report, run_with_report, CacheObs, Json, Mediator,
    MediatorOptions, NetworkModel, PlanDeviationObs, RunReport, ServerObs,
};
use aig_relstore::Value;
use std::fs;
use std::path::PathBuf;

fn check(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(&path, actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run UPDATE_GOLDEN=1 cargo test --test golden",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "rendering drifted from {name}; if intentional, regenerate with \
         UPDATE_GOLDEN=1 cargo test --test golden"
    );
}

#[test]
fn graph_and_plan_renderings_are_stable() {
    let aig = sigma0().unwrap();
    let compiled = compile_constraints(&aig).unwrap();
    let (specialized, _) = decompose_queries(&compiled).unwrap();
    let unfolded = unfold(&specialized, 2, CutOff::Truncate).unwrap();
    let catalog = mini_hospital_catalog().unwrap();
    let tasks = build_graph(&unfolded.aig, &catalog, &GraphOptions::default()).unwrap();
    let costs = estimated_costs(&tasks);
    let cg = CostGraph::from_task_graph(&tasks, &costs).contract_passthrough();
    let net = NetworkModel::mbps(1.0);

    check("graph.txt", &render_graph(&cg, &tasks, &catalog));
    check(
        "plan.txt",
        &render_plan(&cg, &schedule(&cg, &net), &net, &catalog),
    );
}

#[test]
fn run_report_rendering_and_json_are_stable() {
    let aig = sigma0().unwrap();
    let catalog = mini_hospital_catalog().unwrap();
    // Wall-clock-independent simulated costs; the remaining measured-time
    // fields are redacted so the report is byte-stable.
    let mut options = MediatorOptions {
        unfold_depth: 2,
        max_depth: 2,
        cutoff: CutOff::Truncate,
        network: NetworkModel::mbps(1.0),
        ..MediatorOptions::default()
    };
    options.graph.eval_scale = 0.0;
    options.graph.cost_model.per_query_overhead_secs = 1.0;
    let (_, report) =
        run_with_report(&aig, &catalog, &[("date", Value::str("d1"))], &options).unwrap();
    let redacted = report.redacted();

    check("report.txt", &render_report(&redacted));
    let mut json = redacted.to_json().to_pretty();
    json.push('\n');
    check("report.json", &json);
}

/// A deterministic report with **every** section populated: a sequential
/// incremental mediator over the tiny hospital with seeded transient faults
/// and corruptions (all masked by retry), the integrity guard and 256-row
/// batching on, refreshed after a billing price delta. What a deterministic
/// run cannot produce — scheduler deviations, a promoted/evicting cache, a
/// server ledger — is filled by assignment. Both seeds exceed 2^53.
fn populated_report() -> RunReport {
    let data = aig_datagen::HospitalConfig::tiny(11).generate().unwrap();
    let aig = sigma0().unwrap();
    let mut graph = GraphOptions {
        eval_scale: 0.0,
        ..GraphOptions::default()
    };
    graph.cost_model.per_query_overhead_secs = 1.0;
    let options = MediatorOptions::builder()
        .unfold_depth(3)
        .network(NetworkModel::mbps(1.0))
        .graph(graph)
        .incremental(true)
        .check_integrity(true)
        .batching(true)
        .batch_rows(256)
        .faults(Some(FaultConfig {
            seed: (1 << 60) + 12,
            transient_rate: 0.4,
            corrupt_rate: 0.5,
            ..FaultConfig::default()
        }))
        .retry(RetryPolicy {
            max_attempts: 12,
            backoff_base_secs: 0.0001,
            backoff_cap_secs: 0.001,
            jitter: 0.5,
            timeout_secs: f64::INFINITY,
        })
        .build()
        .unwrap();
    let mut mediator = Mediator::new(data.catalog, &options).unwrap();
    let args = [("date", Value::str(&data.dates[0]))];
    mediator.request(&aig, &args).unwrap();
    let (deletes, inserts) = aig_datagen::price_delta(mediator.catalog(), 3, 5).unwrap();
    mediator.apply_delta(&deletes).unwrap();
    mediator.apply_delta(&inserts).unwrap();
    let (_, mut report) = mediator.request(&aig, &args).unwrap();

    assert!(report.incremental.snapshot_hit && !report.incremental.dirty_tables.is_empty());
    assert!(report.resilience.retried > 0 && report.integrity.masked_by_retry > 0);
    assert!(report.batching.enabled && !report.merge_decisions.is_empty());
    report.scheduler.mode = "dynamic".to_string();
    report.scheduler.picks = 2;
    report.scheduler.deviations = vec![PlanDeviationObs {
        task: 3,
        label: report.tasks[3].label.clone(),
        source: report.tasks[3].source.clone(),
        planned_pos: 1,
        actual_pos: 0,
        priority: 2.5,
    }];
    report.cache = CacheObs {
        enabled: true,
        hit: true,
        promoted: true,
        hits: 5,
        misses: 2,
        promotions: 1,
        evictions: 3,
        entries: 4,
        capacity: 8,
    };
    report.server = ServerObs {
        enabled: true,
        seed: u64::MAX - 1,
        offered: 12,
        admitted: 10,
        rejected: 2,
        rejected_queue: 1,
        rejected_in_flight: 0,
        rejected_tenant: 1,
        completed: 7,
        deadline_exceeded: 1,
        degraded: 1,
        failed: 1,
        breaker_trips: 2,
        breaker_probes: 3,
        breaker_closes: 1,
        max_queue_depth: 4,
        max_in_flight: 2,
        p50_secs: 0.125,
        p95_secs: 0.5,
        p99_secs: 1.75,
        balanced: true,
    };
    report
}

/// The full-schema golden: `report.json` above only exercises default
/// sections. `report_full.json` was generated by the hand-written encoder of
/// commit dd74cf7 (PR 13), before the report format moved into the struct
/// declarations of `obs.rs`, and must keep passing byte for byte.
#[test]
fn fully_populated_report_json_is_stable() {
    let mut json = populated_report().redacted().to_json().to_pretty();
    json.push('\n');
    check("report_full.json", &json);
}

/// Calls `f(key, number)` for every number in `json`, `key` being the
/// innermost object key above it, and checks no array is empty — an empty
/// section would hide its struct from the tests over [`populated_report`].
fn each_number<'a>(json: &'a Json, key: &'a str, f: &mut impl FnMut(&'a str, f64)) {
    match json {
        Json::Num(n) => f(key, *n),
        Json::Arr(items) => {
            assert!(
                !items.is_empty(),
                "`{key}` is empty in the populated report"
            );
            items.iter().for_each(|item| each_number(item, key, f));
        }
        Json::Obj(fields) => fields.iter().for_each(|(k, v)| each_number(v, k, f)),
        _ => {}
    }
}

/// Redaction zeroes exactly the `f64` fields their declarations mark
/// `= wall`. The key lists come from the field tables (`each_f64` reports
/// each field's key and marker), not from this test. First, with every `f64`
/// of a fully populated report set to a sentinel, the sentinel survives
/// redaction under the keys declared `= det` and nowhere else — an encoder
/// that drops or renames an `f64` key fails here. Second, a real wall-clock
/// reading is never a whole number, so in the redacted *measured* report a
/// fraction may only sit under a `= det` key — a struct the walk does not
/// reach fails here.
#[test]
fn redaction_zeroes_exactly_the_declared_wall_clock_fields() {
    const SENTINEL: f64 = 1234.5678;
    let measured = populated_report();
    let mut report = measured.clone();
    let (mut deterministic, mut wall) = (Vec::new(), Vec::new());
    report.each_f64(&mut |key, wall_clock, value| {
        *value = SENTINEL;
        // A dotted key nests under an object; the leaf is the last segment.
        let leaf = key.rsplit('.').next().unwrap();
        if wall_clock {
            &mut wall
        } else {
            &mut deterministic
        }
        .push(leaf);
    });
    assert!(wall.contains(&"total_secs") && wall.contains(&"stall_secs"));
    assert!(deterministic.contains(&"response_merged_secs"));

    let json = report.redacted().to_json();
    let mut survivors = Vec::new();
    each_number(&json, "", &mut |key, n| {
        if n == SENTINEL {
            survivors.push(key);
        }
    });
    deterministic.sort_unstable();
    survivors.sort_unstable();
    assert_eq!(survivors, deterministic);

    assert!(measured.total_secs.fract() != 0.0 && measured.tasks[6].secs.fract() != 0.0);
    each_number(&measured.redacted().to_json(), "", &mut |key, n| {
        assert!(
            n.fract() == 0.0 || deterministic.contains(&key),
            "`{key}` = {n} survived redaction without being declared `= det`"
        );
    });
}

/// The mini hospital catalog with a byte-identical replica of DB4 declared
/// as its failover target.
fn catalog_with_db4_replica() -> aig_relstore::Catalog {
    let mut catalog = mini_hospital_catalog().unwrap();
    let primary = catalog.source_id("DB4").unwrap();
    let mut replica_db = aig_relstore::Database::new("DB4R");
    for table in catalog.source(primary).tables() {
        replica_db.add_table(table.clone()).unwrap();
    }
    let replica = catalog.add_source(replica_db).unwrap();
    catalog.declare_replica(primary, replica).unwrap();
    catalog
}

/// The fault layer's two report sections over a matrix: seeds 1–4 × {one
/// worker, per-source under `Scheduling::Static`} × three fault mixes —
/// fail-stop (transients, latency spikes with timeouts, DB4 dying after one
/// task with a replica to fail over to), wrong-answer with the integrity
/// defense on (corruptions, vanished tables, a stale replica after the same
/// failover), and the same wrong-answer mix with the defense off. Each cell
/// is the redacted `resilience` and `integrity` JSON of `run_with_report`,
/// or the error a cell surfaces. Backoff is zero and spikes sub-millisecond.
#[test]
fn fault_ledger_sections_are_stable_across_the_fault_matrix() {
    let aig = sigma0().unwrap();
    let catalog = catalog_with_db4_replica();
    let dies = vec![("DB4".to_string(), 1)];
    let fail_stop = FaultConfig {
        transient_rate: 0.2,
        latency_rate: 0.2,
        latency_secs: 0.0004,
        dies_after: dies.clone(),
        ..FaultConfig::default()
    };
    let wrong_answer = FaultConfig {
        corrupt_rate: 0.3,
        table_outage_rate: 0.2,
        stale_replica_rate: 0.5,
        dies_after: dies,
        ..FaultConfig::default()
    };
    let mixes = [
        ("fail-stop", &fail_stop, false),
        ("wrong-answer", &wrong_answer, true),
        ("wrong-answer-undefended", &wrong_answer, false),
    ];
    let mut cells = Vec::new();
    for (mix, faults, check_integrity) in mixes {
        for parallel_exec in [false, true] {
            for seed in 1..=4u64 {
                let mut graph = GraphOptions {
                    eval_scale: 0.0,
                    ..GraphOptions::default()
                };
                graph.cost_model.per_query_overhead_secs = 1.0;
                let options = MediatorOptions::builder()
                    .unfold_depth(3)
                    .max_depth(3)
                    .cutoff(CutOff::Truncate)
                    .network(NetworkModel::mbps(1.0))
                    .graph(graph)
                    .parallel_exec(parallel_exec)
                    .scheduling(aig_mediator::exec::Scheduling::Static)
                    .check_integrity(check_integrity)
                    .faults(Some(FaultConfig {
                        seed,
                        ..faults.clone()
                    }))
                    .retry(RetryPolicy {
                        max_attempts: 8,
                        backoff_base_secs: 0.0,
                        backoff_cap_secs: 0.0,
                        jitter: 0.0,
                        timeout_secs: 0.0003,
                    })
                    .build()
                    .unwrap();
                let args = [("date", Value::str("d1"))];
                let mut cell = vec![
                    ("mix", Json::str(mix)),
                    ("parallel_exec", Json::Bool(parallel_exec)),
                    ("seed", Json::num(seed as f64)),
                ];
                match run_with_report(&aig, &catalog, &args, &options) {
                    Ok((_, report)) => {
                        let report = report.redacted();
                        cell.push(("resilience", report.resilience.to_json()));
                        cell.push(("integrity", report.integrity.to_json()));
                    }
                    Err(e) => cell.push(("error", Json::str(e.to_string()))),
                }
                cells.push(Json::obj(cell));
            }
        }
    }
    let mut json = Json::Arr(cells).to_pretty();
    json.push('\n');
    check("fault_ledgers.json", &json);
}
