//! Service equivalence suite — the promise made at the top of
//! `src/service.rs`: serving a request from a cached [`PreparedPlan`] is
//! observationally identical to running the cold one-shot pipeline.
//!
//! (a) Cached-plan executions produce byte-identical relation stores and
//!     canonical documents to cold runs for every `date` argument.
//! (b) Concurrent `run_many` batches match sequential per-request `run`
//!     loops under both schedulers and under fault injection.
//! (c) A frontier promotion updates the cache so later shallow requests are
//!     served from the deeper plan in a single round.

use aig_core::paper::{mini_hospital_catalog, sigma0};
use aig_core::spec::Aig;
use aig_datagen::HospitalConfig;
use aig_mediator::exec::{execute_graph, ExecOptions};
use aig_mediator::faults::FaultConfig;
use aig_mediator::obs::Phases;
use aig_mediator::plan::prepare;
use aig_mediator::{canonical, run, Mediator, MediatorOptions, NetworkModel, RetryPolicy};
use aig_relstore::Value;

const DATES: [&str; 3] = ["d1", "d2", "d9"];

fn fast_retry(max_attempts: usize) -> RetryPolicy {
    RetryPolicy {
        max_attempts,
        backoff_base_secs: 0.0001,
        backoff_cap_secs: 0.001,
        jitter: 0.5,
        timeout_secs: f64::INFINITY,
    }
}

fn assert_same_tree(aig: &Aig, warm: &aig_xml::XmlTree, cold: &aig_xml::XmlTree, context: &str) {
    assert_eq!(
        canonical(aig, warm),
        canonical(aig, cold),
        "cached-plan document differs from cold pipeline ({context})"
    );
}

/// (a) Store-level equivalence: executing one shared prepared plan with
/// different argument bindings produces byte-identical relations to
/// executing a freshly prepared plan per request.
#[test]
fn cached_plan_stores_match_cold_stores_for_every_date() {
    let aig = sigma0().unwrap();
    let catalog = mini_hospital_catalog().unwrap();
    let options = MediatorOptions::default().plan_options();
    let net = NetworkModel::default();
    let shared = prepare(&aig, &catalog, 4, &options, &net, &mut Phases::new()).unwrap();
    for date in DATES {
        let args = [("date", Value::str(date))];
        let fresh = prepare(&aig, &catalog, 4, &options, &net, &mut Phases::new()).unwrap();
        let warm = execute_graph(
            &shared.aig,
            &catalog,
            &shared.graph,
            &args,
            &ExecOptions::default(),
        )
        .unwrap();
        let cold = execute_graph(
            &fresh.aig,
            &catalog,
            &fresh.graph,
            &args,
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(shared.graph.len(), fresh.graph.len());
        for (key, &producer) in &shared.graph.producer {
            let a = warm.store.get(key).unwrap();
            let b = cold.store.get(key).unwrap();
            assert_eq!(a, b, "relation {key:?} differs on {date} (task {producer})");
            assert_eq!(
                a.byte_size(),
                b.byte_size(),
                "byte size of {key:?} differs on {date}"
            );
        }
    }
}

/// (a) Document-level equivalence through the full service path: warm
/// cache-hit requests return the same canonical document as one-shot runs.
#[test]
fn cached_plan_documents_match_cold_runs_for_every_date() {
    let aig = sigma0().unwrap();
    let catalog = mini_hospital_catalog().unwrap();
    let options = MediatorOptions::default();
    let mediator = Mediator::new(catalog.clone(), &options).unwrap();
    for (i, date) in DATES.iter().enumerate() {
        let args = [("date", Value::str(*date))];
        let (warm, report) = mediator.request(&aig, &args).unwrap();
        let cold = run(&aig, &catalog, &args, &options).unwrap();
        assert_same_tree(&aig, &warm.tree, &cold.tree, date);
        // The depth hint may serve later requests from a *deeper* plan than
        // their date strictly needs (that is the point of promotion) — the
        // document stays identical, the depth only ever grows.
        assert!(warm.depth >= cold.depth, "depth shrank on {date}");
        if i == 0 {
            assert_eq!(warm.depth, cold.depth, "cold depths differ on {date}");
            assert_eq!(warm.merges, cold.merges, "merges differ on {date}");
        } else {
            assert!(report.cache.hit, "request {i} should hit the cache");
            assert_eq!(report.unfold_rounds, 1);
        }
    }
}

/// (b) Concurrent batches equal sequential loops: per-source walks, with
/// and without fault injection, ≥ 8 concurrent requests over one cached
/// plan.
#[test]
fn run_many_matches_sequential_loops_under_faults() {
    let aig = sigma0().unwrap();
    let catalog = mini_hospital_catalog().unwrap();
    let batch: Vec<Vec<(String, Value)>> = (0..9)
        .map(|i| vec![("date".to_string(), Value::str(DATES[i % DATES.len()]))])
        .collect();
    let faults = FaultConfig {
        seed: 11,
        transient_rate: 0.2,
        latency_rate: 0.1,
        latency_secs: 0.0003,
        ..FaultConfig::default()
    };
    for inject in [false, true] {
        let options = MediatorOptions::builder()
            .parallel_exec(true)
            .faults(inject.then(|| faults.clone()))
            .retry(fast_retry(6))
            .build()
            .unwrap();
        let mediator = Mediator::new(catalog.clone(), &options).unwrap();
        let results = mediator.run_many(&aig, &batch);
        assert_eq!(results.len(), batch.len());
        for (request, result) in batch.iter().zip(results) {
            let (warm, report) = result.unwrap();
            let date = request[0].1.clone();
            let args = [("date", date)];
            let cold = run(&aig, &catalog, &args, &options).unwrap();
            let context = format!("faults={inject}");
            assert_same_tree(&aig, &warm.tree, &cold.tree, &context);
            assert!(report.cache.enabled);
        }
        // The batch shares plans: every request after the misses is a
        // hit, and nothing was evicted.
        let stats = mediator.cache_stats();
        assert!(stats.hits + stats.misses >= batch.len() as u64, "{stats:?}");
        assert!(
            stats.hits >= (batch.len() as u64 - stats.misses),
            "{stats:?}"
        );
        assert_eq!(stats.evictions, 0, "{stats:?}");
    }
}

/// (b) continued, on generated data: a larger catalog exercises the same
/// equivalence away from the paper's hand-built instance.
#[test]
fn run_many_matches_sequential_on_generated_data() {
    let aig = sigma0().unwrap();
    let data = HospitalConfig::tiny(42).generate().unwrap();
    let options = MediatorOptions::builder()
        .parallel_exec(true)
        .build()
        .unwrap();
    let mediator = Mediator::new(data.catalog.clone(), &options).unwrap();
    let batch: Vec<Vec<(String, Value)>> = data
        .dates
        .iter()
        .cycle()
        .take(8)
        .map(|d| vec![("date".to_string(), Value::str(d))])
        .collect();
    let results = mediator.run_many(&aig, &batch);
    for (request, result) in batch.iter().zip(results) {
        let (warm, _) = result.unwrap();
        let args = [("date", request[0].1.clone())];
        let cold = run(&aig, &data.catalog, &args, &options).unwrap();
        assert_same_tree(&aig, &warm.tree, &cold.tree, "generated data");
    }
}

/// (c) Promotion: after a depth-1 request climbs the frontier to depth 4,
/// a whole concurrent batch of nominally shallow requests is served from
/// the promoted plan in one round each, with output identical to cold runs.
#[test]
fn cache_promotion_serves_shallow_requests_from_the_deeper_plan() {
    let aig = sigma0().unwrap();
    let catalog = mini_hospital_catalog().unwrap();
    let options = MediatorOptions::builder().unfold_depth(1).build().unwrap();
    let mediator = Mediator::new(catalog.clone(), &options).unwrap();

    // Cold: three rounds (1 -> 2 -> 4), two promotions.
    let (first, report) = mediator
        .request(&aig, &[("date", Value::str("d1"))])
        .unwrap();
    assert_eq!(first.depth, 4);
    assert_eq!(report.unfold_rounds, 3);
    assert_eq!(mediator.cache_stats().promotions, 2);

    // Warm batch: every request starts at the promoted depth — one round,
    // cache hit, same document as the cold pipeline.
    let batch: Vec<Vec<(String, Value)>> = (0..8)
        .map(|i| vec![("date".to_string(), Value::str(DATES[i % DATES.len()]))])
        .collect();
    let results = mediator.run_many(&aig, &batch);
    for (request, result) in batch.iter().zip(results) {
        let (warm, report) = result.unwrap();
        assert_eq!(warm.depth, 4);
        assert_eq!(report.unfold_rounds, 1, "promotion hint was not used");
        assert!(report.cache.hit);
        let args = [("date", request[0].1.clone())];
        let cold = run(&aig, &catalog, &args, &options).unwrap();
        assert_same_tree(&aig, &warm.tree, &cold.tree, "promoted plan");
    }
}

/// The heterogeneous driver: `serve` keys the cache by AIG fingerprint, so
/// two separately built but structurally identical AIGs share one plan.
#[test]
fn serve_caches_plans_per_aig() {
    let aig_a = sigma0().unwrap();
    let aig_b = sigma0().unwrap(); // same structure: same fingerprint
    assert_eq!(aig_a.fingerprint(), aig_b.fingerprint());
    let catalog = mini_hospital_catalog().unwrap();
    let options = MediatorOptions::builder().unfold_depth(4).build().unwrap();
    let mediator = Mediator::new(catalog, &options).unwrap();
    let requests: Vec<(&Aig, Vec<(String, Value)>)> = (0..8)
        .map(|i| {
            let aig = if i % 2 == 0 { &aig_a } else { &aig_b };
            (aig, vec![("date".to_string(), Value::str(DATES[i % 3]))])
        })
        .collect();
    let results = mediator.serve(&requests);
    assert!(results.iter().all(|r| r.is_ok()));
    // Identical fingerprints share one cache entry: exactly one miss.
    let stats = mediator.cache_stats();
    assert_eq!(stats.misses, 1, "{stats:?}");
    assert_eq!(stats.entries, 1);
    assert_eq!(stats.hits, 7);
}
