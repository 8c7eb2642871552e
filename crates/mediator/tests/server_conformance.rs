//! Conformance suite for the overload-resilient server — the contract from
//! the top of `src/server.rs`:
//!
//! (a) Every offered request terminates with exactly one structured
//!     outcome, and both ledger identities balance, across the full
//!     {executor} x {retry policy} matrix under chaos.
//! (b) Admission control rejects with the correct scope (`queue`,
//!     `in_flight`, `tenant`) and rejections cost zero latency.
//! (c) Deadlines fail fast in the queue (no execution spent), dispatch is
//!     earliest-deadline-first, and late completions are classified.
//! (d) Circuit breakers trip after consecutive source failures, degrade
//!     requests while open, probe half-open after the cooldown, and close
//!     on a clean probe.
//! (e) Clean admitted completions are byte-identical to direct
//!     `Mediator::request` documents.

use aig_core::paper::{mini_hospital_catalog, sigma0};
use aig_mediator::faults::FaultConfig;
use aig_mediator::{
    canonical, Arrival, Disposition, MediatorError, MediatorOptions, MediatorServer, NetworkModel,
    RetryPolicy, ServerConfig, ServerRun,
};
use aig_relstore::Value;
use aig_xml::XmlTree;

/// Options whose simulated (logical-clock) costs do not depend on
/// wall-clock measurements: every source query costs exactly the overhead.
fn det_options(parallel: bool, retry: RetryPolicy) -> MediatorOptions {
    let mut options = MediatorOptions {
        unfold_depth: 3,
        max_depth: 3,
        cutoff: aig_mediator::CutOff::Truncate,
        network: NetworkModel::mbps(100.0),
        parallel_exec: parallel,
        retry,
        ..MediatorOptions::default()
    };
    options.graph.eval_scale = 0.0;
    options.graph.cost_model.per_query_overhead_secs = 0.01;
    options
}

fn fast_retry(max_attempts: usize) -> RetryPolicy {
    RetryPolicy {
        max_attempts,
        backoff_base_secs: 0.0001,
        backoff_cap_secs: 0.001,
        jitter: 0.5,
        timeout_secs: f64::INFINITY,
    }
}

fn arrival(tenant: &str, at_secs: f64) -> Arrival {
    Arrival {
        tenant: tenant.to_string(),
        at_secs,
        deadline_secs: None,
        args: vec![("date".to_string(), Value::str("d1"))],
        outage_sources: Vec::new(),
    }
}

/// The canonical document of a direct (unserved) request under the given
/// options with chaos stripped — the byte-identity reference for clean
/// completions.
fn direct_document(options: &MediatorOptions) -> XmlTree {
    let aig = sigma0().unwrap();
    let args = [("date", Value::str("d1"))];
    let mut options = options.clone();
    options.faults = None;
    let mediator = aig_mediator::Mediator::new(mini_hospital_catalog().unwrap(), &options).unwrap();
    let (run, _) = mediator.request(&aig, &args).unwrap();
    canonical(&aig, &run.tree)
}

/// The shared invariants of (a): one outcome per offered arrival, ledger
/// balance, and documents exactly on completed/degraded outcomes.
fn assert_conformant(run: &ServerRun, offered: usize, context: &str) {
    assert_eq!(run.outcomes.len(), offered, "{context}");
    for (i, outcome) in run.outcomes.iter().enumerate() {
        assert_eq!(outcome.index, i, "{context}: outcomes in arrival order");
        assert!(
            outcome.latency_secs >= 0.0 && outcome.latency_secs.is_finite(),
            "{context}: latency of {i}"
        );
        let has_doc = outcome.document.is_some();
        match &outcome.disposition {
            Disposition::Completed | Disposition::Degraded { .. } => {
                assert!(
                    has_doc,
                    "{context}: outcome {i} completed without a document"
                )
            }
            _ => assert!(!has_doc, "{context}: outcome {i} failed with a document"),
        }
        if let Disposition::Degraded { skipped } = &outcome.disposition {
            assert!(
                !skipped.is_empty(),
                "{context}: degraded {i} names no subtree"
            );
        }
        if matches!(outcome.disposition, Disposition::Rejected(_)) {
            assert_eq!(
                outcome.latency_secs, 0.0,
                "{context}: rejection {i} cost time"
            );
        }
    }
    let obs = &run.obs;
    assert!(obs.balanced, "{context}: ledger unbalanced: {obs:?}");
    assert_eq!(obs.offered, offered as u64, "{context}");
    assert_eq!(obs.offered, obs.admitted + obs.rejected, "{context}");
    assert_eq!(
        obs.admitted,
        obs.completed + obs.deadline_exceeded + obs.degraded + obs.failed,
        "{context}"
    );
    assert_eq!(
        obs.rejected,
        obs.rejected_queue + obs.rejected_in_flight + obs.rejected_tenant,
        "{context}"
    );
    // The outcome list agrees bucket-by-bucket with the ledger.
    for (tag, expect) in [
        ("completed", obs.completed),
        ("rejected", obs.rejected),
        ("deadline_exceeded", obs.deadline_exceeded),
        ("degraded", obs.degraded),
        ("failed", obs.failed),
    ] {
        let count = run
            .outcomes
            .iter()
            .filter(|o| o.disposition.tag() == tag)
            .count() as u64;
        assert_eq!(count, expect, "{context}: ledger bucket {tag}");
    }
    assert!(
        obs.p50_secs <= obs.p95_secs && obs.p95_secs <= obs.p99_secs,
        "{context}"
    );
    assert!(
        run.report.server.enabled && run.report.server == *obs,
        "{context}"
    );
}

/// (a) The chaos matrix: every executor/retry combination, under
/// transient faults, latency spikes, outage storms, mixed tenants and
/// mixed deadlines, terminates every offered request exactly once with a
/// balanced ledger.
#[test]
fn conformance_matrix_under_chaos() {
    let aig = sigma0().unwrap();
    for parallel in [false, true] {
        for (retry_name, retry) in [("none", RetryPolicy::none()), ("fast", fast_retry(3))] {
            let context = format!(
                "{} x retry {retry_name}",
                if parallel { "parallel" } else { "sequential" },
            );
            let mut options = det_options(parallel, retry);
            options.faults = Some(FaultConfig {
                seed: 29,
                transient_rate: 0.15,
                latency_rate: 0.1,
                latency_secs: 0.0005,
                ..FaultConfig::default()
            });
            let server = MediatorServer::new(
                mini_hospital_catalog().unwrap(),
                &options,
                ServerConfig {
                    seed: 7,
                    max_queue: 6,
                    max_in_flight: 2,
                    tenant_quota: 5,
                    breaker_threshold: 2,
                    breaker_cooldown_secs: 3.0,
                    ..ServerConfig::default()
                },
            )
            .unwrap();
            let clean = direct_document(&options);
            let mut arrivals = Vec::new();
            for i in 0..24usize {
                let mut a = arrival(["acme", "globex", "initech"][i % 3], 0.3 * i as f64);
                if i % 4 == 0 {
                    a.deadline_secs = Some(120.0);
                }
                if i % 5 == 0 {
                    // Storm: DB3 (no replica in this catalog) is down.
                    a.outage_sources = vec!["DB3".to_string()];
                }
                arrivals.push(a);
            }
            let run = server.run(&aig, &arrivals);
            assert_conformant(&run, arrivals.len(), &context);
            // Chaos actually engaged: the storms produce failures or
            // degraded service, never silence.
            assert!(
                run.obs.failed + run.obs.degraded > 0,
                "{context}: storms left no trace: {:?}",
                run.obs
            );
            // Clean completions are byte-identical to direct requests
            // even under concurrent chaos (fault recovery never changes
            // bytes; only full-data completions claim `Completed`).
            let mut completed = 0;
            for outcome in &run.outcomes {
                if matches!(outcome.disposition, Disposition::Completed) {
                    assert_eq!(
                        canonical(&aig, outcome.document.as_ref().unwrap()),
                        clean,
                        "{context}: completed document of {} differs",
                        outcome.index
                    );
                    completed += 1;
                }
            }
            // Without retries a 15% per-attempt transient rate fails
            // essentially every request; only the retrying config is
            // expected to mask its way to clean completions.
            if retry_name == "fast" {
                assert!(completed > 0, "{context}: nothing completed cleanly");
            } else {
                assert!(run.obs.failed > 0, "{context}: {:?}", run.obs);
            }
        }
    }
}

/// (b) Each admission scope rejects with its own structured error.
#[test]
fn admission_rejects_with_the_right_scope() {
    let aig = sigma0().unwrap();
    let burst =
        |tenants: &[&str]| -> Vec<Arrival> { tenants.iter().map(|t| arrival(t, 0.0)).collect() };

    // Queue overflow: 1 slot + 2 queue places, 6 distinct tenants at once.
    let server = MediatorServer::new(
        mini_hospital_catalog().unwrap(),
        &det_options(false, RetryPolicy::none()),
        ServerConfig {
            max_queue: 2,
            max_in_flight: 1,
            tenant_quota: 100,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let run = server.run(&aig, &burst(&["a", "b", "c", "d", "e", "f"]));
    assert_conformant(&run, 6, "queue overflow");
    assert_eq!(run.obs.rejected_queue, 3);
    assert_eq!(run.obs.completed, 3);
    for outcome in &run.outcomes[3..] {
        let Disposition::Rejected(MediatorError::Overloaded { scope, .. }) = &outcome.disposition
        else {
            panic!("expected Overloaded, got {:?}", outcome.disposition);
        };
        assert_eq!(scope, "queue");
    }

    // Zero-length queue: overflow names the in-flight limit instead.
    let server = MediatorServer::new(
        mini_hospital_catalog().unwrap(),
        &det_options(false, RetryPolicy::none()),
        ServerConfig {
            max_queue: 0,
            max_in_flight: 2,
            tenant_quota: 100,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let run = server.run(&aig, &burst(&["a", "b", "c", "d"]));
    assert_conformant(&run, 4, "in-flight overflow");
    assert_eq!(run.obs.rejected_in_flight, 2);
    assert!(matches!(
        &run.outcomes[2].disposition,
        Disposition::Rejected(MediatorError::Overloaded { scope, .. }) if scope == "in_flight"
    ));

    // Tenant quota: one noisy tenant is capped while capacity remains.
    let server = MediatorServer::new(
        mini_hospital_catalog().unwrap(),
        &det_options(false, RetryPolicy::none()),
        ServerConfig {
            max_queue: 100,
            max_in_flight: 1,
            tenant_quota: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let run = server.run(&aig, &burst(&["noisy", "noisy", "noisy", "noisy", "quiet"]));
    assert_conformant(&run, 5, "tenant quota");
    assert_eq!(run.obs.rejected_tenant, 2);
    assert_eq!(run.obs.completed, 3, "the quiet tenant is not starved");
    for outcome in &run.outcomes {
        if let Disposition::Rejected(MediatorError::Overloaded { tenant, scope, .. }) =
            &outcome.disposition
        {
            assert_eq!(tenant, "noisy");
            assert_eq!(scope, "tenant");
        }
    }
    assert!(matches!(
        run.outcomes[4].disposition,
        Disposition::Completed
    ));
}

/// (c) A request whose budget drains away in the queue fails fast without
/// executing, and queued requests dispatch earliest-deadline-first.
#[test]
fn deadlines_fail_fast_in_queue_and_dispatch_is_edf() {
    let aig = sigma0().unwrap();
    // A hefty per-query overhead makes the *logical* service time seconds
    // long, so requests arriving close together genuinely queue.
    let mut options = det_options(false, RetryPolicy::none());
    options.graph.cost_model.per_query_overhead_secs = 1.0;
    let server = MediatorServer::new(
        mini_hospital_catalog().unwrap(),
        &options,
        ServerConfig {
            max_queue: 100,
            max_in_flight: 1,
            tenant_quota: 100,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    // One request occupies the single slot; three arrive behind it while
    // it runs: a generous deadline, a hopeless one, and none at all —
    // spawned in anti-EDF arrival order.
    let mut arrivals = vec![arrival("t", 0.0)];
    let mut none = arrival("t", 0.01);
    none.deadline_secs = None;
    arrivals.push(none);
    let mut generous = arrival("t", 0.02);
    generous.deadline_secs = Some(500.0);
    arrivals.push(generous);
    let mut hopeless = arrival("t", 0.03);
    hopeless.deadline_secs = Some(0.04);
    arrivals.push(hopeless);
    let run = server.run(&aig, &arrivals);
    assert_conformant(&run, 4, "edf");
    assert_eq!(run.obs.deadline_exceeded, 1);
    assert_eq!(run.obs.completed, 3);

    // The hopeless request expired while queued: classified without
    // execution, at the moment a slot would have been free.
    let hopeless = &run.outcomes[3];
    let Disposition::DeadlineExceeded(MediatorError::DeadlineExceeded {
        task, budget_secs, ..
    }) = &hopeless.disposition
    else {
        panic!("expected DeadlineExceeded, got {:?}", hopeless.disposition);
    };
    assert_eq!(task, "queue");
    assert_eq!(*budget_secs, 0.04);
    assert!(
        hopeless.latency_secs >= 0.04,
        "cannot exceed a budget it still had"
    );

    // EDF: the earliest-deadline waiter (index 3) is considered first
    // (failing fast), then the generous one (index 2) runs, and the
    // deadline-less request (index 1) goes last.
    assert!(hopeless.finished_secs <= run.outcomes[2].finished_secs);
    assert!(
        run.outcomes[2].finished_secs < run.outcomes[1].finished_secs,
        "deadline-less requests queue behind deadlined ones: {:?}",
        run.outcomes
    );
}

/// (d) The breaker lifecycle: consecutive storm failures trip DB3's
/// breaker, open-breaker requests are served degraded (DB3 skipped, its
/// subtrees named), the seeded half-open probe closes it after the
/// cooldown, and service returns to clean byte-identical completions.
#[test]
fn breaker_trips_degrades_probes_and_recovers() {
    let aig = sigma0().unwrap();
    let options = det_options(false, fast_retry(2));
    let server = MediatorServer::new(
        mini_hospital_catalog().unwrap(),
        &options,
        ServerConfig {
            seed: 11,
            max_queue: 100,
            max_in_flight: 1,
            tenant_quota: 100,
            breaker_threshold: 2,
            breaker_cooldown_secs: 200.0,
            degrade: true,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let clean = direct_document(&options);
    // Widely spaced arrivals so each runs alone: two under a DB3 storm
    // (trips the breaker), two after the storm but inside the cooldown
    // (degraded), one past the jittered probe time (carries the probe),
    // one after recovery.
    let mut arrivals = Vec::new();
    for (i, at) in [0.0, 100.0, 200.0, 300.0, 1000.0, 1100.0]
        .iter()
        .enumerate()
    {
        let mut a = arrival("t", *at);
        if i < 2 {
            a.outage_sources = vec!["DB3".to_string()];
        }
        arrivals.push(a);
    }
    let run = server.run(&aig, &arrivals);
    assert_conformant(&run, 6, "breaker lifecycle");
    let obs = &run.obs;
    assert_eq!(obs.failed, 2, "storm failures: {obs:?}");
    assert_eq!(obs.breaker_trips, 1, "{obs:?}");
    assert_eq!(obs.degraded, 2, "open breaker degrades: {obs:?}");
    assert_eq!(obs.breaker_probes, 1, "{obs:?}");
    assert_eq!(obs.breaker_closes, 1, "{obs:?}");
    assert_eq!(obs.completed, 2, "probe + recovered request: {obs:?}");

    for outcome in &run.outcomes[..2] {
        assert!(
            matches!(
                &outcome.disposition,
                Disposition::Failed(MediatorError::SourceUnavailable { source, .. })
                    if source == "DB3"
            ),
            "{:?}",
            outcome.disposition
        );
    }
    for outcome in &run.outcomes[2..4] {
        let Disposition::Degraded { skipped } = &outcome.disposition else {
            panic!("expected Degraded, got {:?}", outcome.disposition);
        };
        assert!(!skipped.is_empty());
        let document = outcome.document.as_ref().unwrap();
        assert_ne!(
            canonical(&aig, document),
            clean,
            "a degraded document must actually omit the skipped subtree"
        );
    }
    for outcome in &run.outcomes[4..] {
        assert!(matches!(outcome.disposition, Disposition::Completed));
        assert_eq!(
            canonical(&aig, outcome.document.as_ref().unwrap()),
            clean,
            "service after recovery is byte-identical to direct requests"
        );
    }
}

/// (d') With degradation disabled an open breaker fails fast instead —
/// still one structured outcome per request, never a hang.
#[test]
fn open_breaker_without_degradation_fails_fast() {
    let aig = sigma0().unwrap();
    let server = MediatorServer::new(
        mini_hospital_catalog().unwrap(),
        &det_options(false, RetryPolicy::none()),
        ServerConfig {
            seed: 11,
            max_queue: 100,
            max_in_flight: 1,
            tenant_quota: 100,
            breaker_threshold: 2,
            breaker_cooldown_secs: 1.0e6,
            degrade: false,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut arrivals = Vec::new();
    for (i, at) in [0.0, 100.0, 200.0, 300.0].iter().enumerate() {
        let mut a = arrival("t", *at);
        if i < 2 {
            a.outage_sources = vec!["DB3".to_string()];
        }
        arrivals.push(a);
    }
    let run = server.run(&aig, &arrivals);
    assert_conformant(&run, 4, "fail fast");
    assert_eq!(run.obs.breaker_trips, 1);
    assert_eq!(run.obs.degraded, 0);
    assert_eq!(run.obs.failed, 4, "open breaker fails fast: {:?}", run.obs);
}

/// (e) A clean workload across the executor matrix: everything completes,
/// nothing is rejected, and every served document is byte-identical to a
/// direct `Mediator::request` on the same catalog and plan cache.
#[test]
fn clean_admitted_documents_match_direct_requests() {
    let aig = sigma0().unwrap();
    for parallel in [false, true] {
        let context = format!("parallel={parallel}");
        let options = det_options(parallel, RetryPolicy::none());
        let server = MediatorServer::new(
            mini_hospital_catalog().unwrap(),
            &options,
            ServerConfig {
                max_queue: 16,
                max_in_flight: 2,
                tenant_quota: 16,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let clean = direct_document(&options);
        let arrivals: Vec<Arrival> = (0..8)
            .map(|i| arrival(["acme", "globex"][i % 2], 0.2 * i as f64))
            .collect();
        let run = server.run(&aig, &arrivals);
        assert_conformant(&run, 8, &context);
        assert_eq!(run.obs.completed, 8, "{context}");
        assert_eq!(run.obs.rejected, 0, "{context}");
        assert!(
            run.obs.p99_secs > 0.0,
            "{context}: logical latencies recorded"
        );
        for outcome in &run.outcomes {
            assert_eq!(
                canonical(&aig, outcome.document.as_ref().unwrap()),
                clean,
                "{context}: served document of {} differs from a direct request",
                outcome.index
            );
        }
    }
}
