//! Tests for the observability layer: phase timers, per-task and catalog
//! byte accounting, JSON round-tripping, and merge-decision consistency.

use aig_core::paper::{mini_hospital_catalog, sigma0};
use aig_core::{compile_constraints, decompose_queries};
use aig_datagen::HospitalConfig;
use aig_mediator::exec::{execute_graph, ExecOptions};
use aig_mediator::graph::{build_graph, GraphOptions};
use aig_mediator::json;
use aig_mediator::unfold::{unfold, CutOff};
use aig_mediator::{run_with_report, MediatorOptions, NetworkModel, RunReport};
use aig_relstore::Value;

/// Options whose simulated costs do not depend on wall-clock measurements:
/// every source query costs exactly the per-query overhead.
fn det_options(depth: usize) -> MediatorOptions {
    let mut options = MediatorOptions {
        unfold_depth: depth,
        max_depth: depth,
        cutoff: CutOff::Truncate,
        network: NetworkModel::mbps(1.0),
        ..MediatorOptions::default()
    };
    options.graph.eval_scale = 0.0;
    options.graph.cost_model.per_query_overhead_secs = 1.0;
    options
}

fn tiny_report(seed: u64, options: &MediatorOptions) -> (aig_mediator::MediatorRun, RunReport) {
    let data = HospitalConfig::tiny(seed).generate().unwrap();
    let aig = sigma0().unwrap();
    let args = [("date", Value::str(&data.dates[0]))];
    run_with_report(&aig, &data.catalog, &args, options).unwrap()
}

/// What is asserted is machine-independent: which phases ran, in which
/// order and how often, that they start in order and end inside the run, and
/// that together they do not exceed it. How much of a ~10 ms run the timers
/// *cover* depends on the host's load and is not a property of the code.
#[test]
fn phase_timers_are_monotone_and_cover_the_run() {
    let (_, report) = tiny_report(1, &det_options(3));
    let names: Vec<&str> = report.phases.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "compile_constraints",
            "decompose",
            "unfold",
            "graph_build",
            "shipcut",
            "plan",
            "execute",
            "tag",
            "validate",
            "simulate",
            "schedule",
            "merge"
        ]
    );
    let mut prev = -1.0;
    for phase in &report.phases {
        assert!(
            phase.first_start_secs >= prev,
            "phase {} starts before its predecessor",
            phase.name
        );
        prev = phase.first_start_secs;
        assert!(phase.secs >= 0.0);
        assert_eq!(phase.calls, 1, "phase {} of a one-round run", phase.name);
        assert!(
            phase.first_start_secs + phase.secs <= report.total_secs + 1e-6,
            "phase {} runs past the end of the run",
            phase.name
        );
    }
    let sum = report.phase_secs_total();
    assert!(
        sum <= report.total_secs * 1.0001 + 1e-9,
        "phase sum {sum} exceeds total {}",
        report.total_secs
    );
}

#[test]
fn per_task_bytes_match_relation_sizes() {
    let aig = sigma0().unwrap();
    let compiled = compile_constraints(&aig).unwrap();
    let (specialized, _) = decompose_queries(&compiled).unwrap();
    let unfolded = unfold(&specialized, 3, CutOff::Truncate).unwrap();
    let data = HospitalConfig::tiny(3).generate().unwrap();
    let graph = build_graph(&unfolded.aig, &data.catalog, &GraphOptions::default()).unwrap();
    let exec = execute_graph(
        &unfolded.aig,
        &data.catalog,
        &graph,
        &[("date", Value::str(&data.dates[0]))],
        &ExecOptions::default(),
    )
    .unwrap();
    // Each producing task's Measured matches its relation exactly.
    let mut produced = 0;
    for (key, &producer) in &graph.producer {
        let rel = exec.store.get(key).unwrap();
        let m = &exec.measured[producer];
        assert_eq!(m.out_rows, rel.len() as f64, "out_rows of {key:?}");
        assert_eq!(m.out_bytes, rel.byte_size() as f64, "out_bytes of {key:?}");
        produced += 1;
    }
    assert!(produced > 0);
}

#[test]
fn report_catalog_and_shipped_bytes_are_consistent() {
    let data = HospitalConfig::tiny(3).generate().unwrap();
    let aig = sigma0().unwrap();
    let args = [("date", Value::str(&data.dates[0]))];
    let (_, report) = run_with_report(&aig, &data.catalog, &args, &det_options(3)).unwrap();

    // The catalog section mirrors the real relation sizes.
    assert!(!report.catalog.is_empty());
    for entry in &report.catalog {
        let sid = data.catalog.source_id(&entry.source).unwrap();
        let table = data.catalog.source(sid).table(&entry.table).unwrap();
        assert_eq!(entry.rows, table.len(), "{}.{}", entry.source, entry.table);
        assert_eq!(
            entry.bytes,
            table.byte_size(),
            "{}.{}",
            entry.source,
            entry.table
        );
    }

    // Shipped bytes are a whole multiple of the *ship image* (one copy per
    // distinct cross-source consumer) — the image never exceeds the full
    // output's wire size (ship-cut only prunes, and the dictionary encoding
    // is monotone under pruning), and zero output ships nothing.
    for task in &report.tasks {
        assert!(
            task.ship_bytes <= task.wire_bytes,
            "task {} ship image grew: {} > {}",
            task.id,
            task.ship_bytes,
            task.wire_bytes
        );
        if task.ship_bytes > 0.0 {
            let copies = task.shipped_bytes / task.ship_bytes;
            assert!(
                (copies - copies.round()).abs() < 1e-9,
                "task {} ships {} bytes from a {} byte image",
                task.id,
                task.shipped_bytes,
                task.ship_bytes
            );
        } else {
            assert_eq!(task.shipped_bytes, 0.0, "task {}", task.id);
        }
    }
    // Ship-cut actually engaged on this workload.
    assert!(report.shipcut.enabled);
    assert!(
        report.shipcut.saved_bytes > 0.0,
        "no shipment was pruned on the datagen workload"
    );
    assert!(report.shipcut.pruned_tasks > 0);
}

#[test]
fn json_report_round_trips_through_its_own_output() {
    let (_, report) = tiny_report(2, &det_options(3));
    let value = report.to_json();
    let pretty = json::parse(&value.to_pretty()).unwrap();
    assert_eq!(pretty, value, "pretty round-trip changed the report");
    let compact = json::parse(&value.to_compact()).unwrap();
    assert_eq!(compact, value, "compact round-trip changed the report");
}

/// Schema v6 round-trip: a report with a *populated* integrity ledger
/// reaches a serialization fixpoint (encode → decode → encode is identity),
/// and a fault seed above 2^53 — unrepresentable as an f64-backed JSON
/// number — survives losslessly through the decimal-string path.
#[test]
fn json_v6_reaches_a_fixpoint_with_integrity_ledger_and_big_seed() {
    let catalog = mini_hospital_catalog().unwrap();
    let aig = sigma0().unwrap();
    let args = [("date", Value::str("d1"))];
    let seed = (1u64 << 60) + 7; // 1152921504606846983 > 2^53
    let mut options = det_options(3);
    options.check_integrity = true;
    options.faults = Some(aig_mediator::faults::FaultConfig {
        seed,
        corrupt_rate: 0.6,
        ..Default::default()
    });
    options.retry = aig_mediator::faults::RetryPolicy {
        max_attempts: 6,
        backoff_base_secs: 0.0001,
        backoff_cap_secs: 0.001,
        jitter: 0.5,
        timeout_secs: f64::INFINITY,
    };
    let (_, report) = run_with_report(&aig, &catalog, &args, &options).unwrap();
    assert_eq!(report.schema_version, aig_mediator::SCHEMA_VERSION);
    assert!(
        report.integrity.injected > 0,
        "fixture injected no corruption — the ledger round-trip is vacuous"
    );

    let value = report.to_json();
    let pretty = value.to_pretty();
    let decoded = json::parse(&pretty).unwrap();
    assert_eq!(decoded, value, "decode changed the report");
    assert_eq!(
        decoded.to_pretty(),
        pretty,
        "pretty encoding is not a fixpoint"
    );
    let compact = value.to_compact();
    assert_eq!(
        json::parse(&compact).unwrap().to_compact(),
        compact,
        "compact encoding is not a fixpoint"
    );

    // The seed exceeds 2^53: as a JSON number it would round, so it travels
    // as a decimal string and must parse back to the exact u64.
    assert_ne!(
        seed as f64 as u64, seed,
        "seed must exercise the string path"
    );
    let emitted = decoded
        .get("resilience")
        .and_then(|r| r.get("seed"))
        .and_then(|s| s.as_str())
        .expect("seed must be a string");
    assert_eq!(emitted.parse::<u64>().unwrap(), seed);

    // The decoded integrity section mirrors the in-memory ledger.
    let integrity = decoded.get("integrity").expect("v6 carries integrity");
    assert_eq!(
        integrity.get("enabled").and_then(|v| v.as_bool()),
        Some(true)
    );
    assert_eq!(
        integrity.get("balanced").and_then(|v| v.as_bool()),
        Some(true)
    );
    for (field, expect) in [
        ("injected", report.integrity.injected),
        ("masked_by_retry", report.integrity.masked_by_retry),
        ("detected_by_guard", report.integrity.detected_by_guard),
        (
            "detected_by_constraint",
            report.integrity.detected_by_constraint,
        ),
        ("undetected", report.integrity.undetected),
    ] {
        assert_eq!(
            integrity.get(field).and_then(|v| v.as_f64()),
            Some(expect as f64),
            "{field}"
        );
    }
    let events = integrity
        .get("events")
        .and_then(|v| v.as_arr())
        .expect("events array");
    assert_eq!(events.len(), report.integrity.events.len());
    for (json_event, event) in events.iter().zip(&report.integrity.events) {
        assert_eq!(
            json_event.get("kind").and_then(|v| v.as_str()),
            Some(event.kind.name())
        );
        assert_eq!(
            json_event.get("outcome").and_then(|v| v.as_str()),
            Some(event.outcome.name())
        );
        assert_eq!(
            json_event.get("constraint").and_then(|v| v.as_str()),
            Some(event.constraint.as_str())
        );
    }
}

/// Non-integral byte counts survive the JSON round trip exactly. Estimated
/// and dictionary-amortized sizes are genuine fractions (an estimate-phase
/// edge ships 130.1 B); `Json::num` must emit the shortest round-tripping
/// decimal for them — not a rounded integer — and re-parsing must reach a
/// fixpoint bit-for-bit.
#[test]
fn json_non_integral_ship_bytes_reach_a_fixpoint() {
    let (_, mut report) = tiny_report(4, &det_options(2));
    assert!(!report.tasks.is_empty());
    // Perturb every task's wire accounting into non-integral territory,
    // keeping the ship ≤ wire invariant intact.
    for (i, task) in report.tasks.iter_mut().enumerate() {
        task.ship_bytes += 0.1 + (i as f64) * 0.001;
        task.wire_bytes = task.wire_bytes.max(task.ship_bytes) + 0.25;
    }
    let value = report.to_json();
    let pretty = value.to_pretty();
    let decoded = json::parse(&pretty).unwrap();
    assert_eq!(decoded, value, "decode changed the report");
    assert_eq!(
        decoded.to_pretty(),
        pretty,
        "pretty encoding is not a fixpoint"
    );
    let compact = value.to_compact();
    assert_eq!(
        json::parse(&compact).unwrap().to_compact(),
        compact,
        "compact encoding is not a fixpoint"
    );
    // Bit-for-bit: every decoded ship/wire figure equals the in-memory f64.
    let tasks = decoded
        .get("tasks")
        .and_then(|v| v.as_arr())
        .expect("tasks array");
    assert_eq!(tasks.len(), report.tasks.len());
    for (json_task, task) in tasks.iter().zip(&report.tasks) {
        for (field, expect) in [
            ("ship_bytes", task.ship_bytes),
            ("wire_bytes", task.wire_bytes),
        ] {
            let got = json_task.get(field).and_then(|v| v.as_f64()).unwrap();
            assert_eq!(got.to_bits(), expect.to_bits(), "{field} drifted");
        }
    }
    // The emitted text really carries fractional literals.
    assert!(
        compact.contains(".1") || compact.contains(".25"),
        "no fractional byte count was emitted"
    );
}

/// Schema v7 round-trip: a report with a *populated* server section (the
/// overload server's ledgers and percentiles) reaches a serialization
/// fixpoint, and the server seed — above 2^53 like the fault seed — travels
/// losslessly through the decimal-string path.
#[test]
fn json_v7_reaches_a_fixpoint_with_server_ledgers_and_big_seed() {
    let seed = (1u64 << 61) + 11; // > 2^53: unrepresentable as f64
    let server = aig_mediator::ServerObs {
        enabled: true,
        seed,
        offered: 120,
        admitted: 100,
        rejected: 20,
        rejected_queue: 12,
        rejected_in_flight: 3,
        rejected_tenant: 5,
        completed: 70,
        deadline_exceeded: 14,
        degraded: 9,
        failed: 7,
        breaker_trips: 4,
        breaker_probes: 6,
        breaker_closes: 3,
        max_queue_depth: 17,
        max_in_flight: 4,
        p50_secs: 0.125,
        p95_secs: 0.75,
        p99_secs: 1.5,
        balanced: true,
    };
    let report = RunReport::server_summary(server.clone());
    assert_eq!(report.schema_version, aig_mediator::SCHEMA_VERSION);
    assert_eq!(report.server, server);

    let value = report.to_json();
    let pretty = value.to_pretty();
    let decoded = json::parse(&pretty).unwrap();
    assert_eq!(decoded, value, "decode changed the report");
    assert_eq!(
        decoded.to_pretty(),
        pretty,
        "pretty encoding is not a fixpoint"
    );
    let compact = value.to_compact();
    assert_eq!(
        json::parse(&compact).unwrap().to_compact(),
        compact,
        "compact encoding is not a fixpoint"
    );

    assert_eq!(
        decoded.get("schema_version").and_then(|v| v.as_f64()),
        Some(aig_mediator::SCHEMA_VERSION as f64)
    );
    let section = decoded.get("server").expect("v7 carries a server section");
    assert_eq!(section.get("enabled").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(
        section.get("balanced").and_then(|v| v.as_bool()),
        Some(true)
    );
    let emitted = section
        .get("seed")
        .and_then(|s| s.as_str())
        .expect("server seed must be a string");
    assert_ne!(
        seed as f64 as u64, seed,
        "seed must exercise the string path"
    );
    assert_eq!(emitted.parse::<u64>().unwrap(), seed);
    for (field, expect) in [
        ("offered", server.offered),
        ("admitted", server.admitted),
        ("rejected", server.rejected),
        ("rejected_queue", server.rejected_queue),
        ("rejected_in_flight", server.rejected_in_flight),
        ("rejected_tenant", server.rejected_tenant),
        ("completed", server.completed),
        ("deadline_exceeded", server.deadline_exceeded),
        ("degraded", server.degraded),
        ("failed", server.failed),
        ("breaker_trips", server.breaker_trips),
        ("breaker_probes", server.breaker_probes),
        ("breaker_closes", server.breaker_closes),
        ("max_queue_depth", server.max_queue_depth as u64),
        ("max_in_flight", server.max_in_flight as u64),
    ] {
        assert_eq!(
            section.get(field).and_then(|v| v.as_f64()),
            Some(expect as f64),
            "{field}"
        );
    }
    for (field, expect) in [
        ("p50_secs", server.p50_secs),
        ("p95_secs", server.p95_secs),
        ("p99_secs", server.p99_secs),
    ] {
        assert_eq!(
            section.get(field).and_then(|v| v.as_f64()),
            Some(expect),
            "{field}"
        );
    }

    // Both ledger identities hold on the fixture — mirroring the invariant
    // the server's `finish` computes `balanced` from.
    assert_eq!(server.offered, server.admitted + server.rejected);
    assert_eq!(
        server.admitted,
        server.completed + server.deadline_exceeded + server.degraded + server.failed
    );

    // The rendered report surfaces the server section.
    let text = aig_mediator::render_report(&report);
    assert!(text.contains("server (seed"), "{text}");
    assert!(text.contains("breakers: 4 trips"), "{text}");
    assert!(text.contains("p95 0.750s"), "{text}");
}

#[test]
fn merge_decisions_agree_with_the_outcome() {
    let (run, report) = tiny_report(1, &det_options(4));
    assert!(run.merges > 0, "fixture produced no merges");
    assert_eq!(report.merges, run.merges);
    assert_eq!(report.merge_decisions.len(), run.merges);
    assert_eq!(
        report.sim_response_unmerged_secs,
        run.response_unmerged_secs
    );
    assert_eq!(report.sim_response_merged_secs, run.response_merged_secs);
    for decision in &report.merge_decisions {
        assert!(!decision.kept.is_empty());
        assert!(!decision.absorbed.is_empty());
        assert!(decision.kept.iter().all(|t| !decision.absorbed.contains(t)));
        assert!(
            decision.cost_after_secs < decision.cost_before_secs,
            "merge at @{} did not improve the plan",
            decision.source
        );
    }
    let last = report.merge_decisions.last().unwrap();
    assert_eq!(last.cost_after_secs, report.sim_response_merged_secs);
    assert!(report.sim_response_merged_secs <= report.sim_response_unmerged_secs);
}

#[test]
fn parallel_report_records_waits_and_matches_sequential() {
    let catalog = mini_hospital_catalog().unwrap();
    let aig = sigma0().unwrap();
    let args = [("date", Value::str("d1"))];
    let options = det_options(2);
    let (seq_run, seq_report) = run_with_report(&aig, &catalog, &args, &options).unwrap();
    assert!(!seq_report.parallel_exec);
    assert!(seq_report.tasks.iter().all(|t| t.wait_secs == 0.0));

    let par_options = MediatorOptions {
        parallel_exec: true,
        ..options
    };
    let (par_run, par_report) = run_with_report(&aig, &catalog, &args, &par_options).unwrap();
    assert!(par_report.parallel_exec);
    assert_eq!(seq_run.tree, par_run.tree);
    for task in &par_report.tasks {
        assert!(task.wait_secs >= 0.0 && task.wait_secs.is_finite());
        assert!(task.start_secs >= 0.0);
    }
    for (a, b) in seq_report.tasks.iter().zip(&par_report.tasks) {
        assert_eq!(a.out_bytes, b.out_bytes);
        assert_eq!(a.out_rows, b.out_rows);
        assert_eq!(a.in_rows, b.in_rows);
        assert_eq!(a.sim_eval_secs, b.sim_eval_secs);
    }
}
