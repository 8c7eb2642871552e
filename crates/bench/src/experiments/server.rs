//! Ablation K: the overload-resilient server under an open-loop chaos
//! workload. A seeded arrival process (bursty, multi-tenant, mixed
//! deadline budgets) is driven through [`MediatorServer`] while three
//! outage storms sweep the sources: one a replicated source rides out via
//! failover, one covering a source *and* its replica (trips the breaker,
//! forces degraded service), and one on an unreplicated source. Everything
//! that shapes the ledger — arrivals, service times, fault stalls, probe
//! jitter — runs on the logical clock, so the committed
//! `BENCH_server.json` is byte-deterministic and the gate checks it
//! tightly: balanced ledgers, zero silent drops, breakers that actually
//! trip and recover, and p99 latency within band.

use aig_bench::{dataset, fig10_options, markdown_table, spec, Json};
use aig_datagen::DatasetSize;
use aig_mediator::{Arrival, FaultConfig, MediatorServer, RetryPolicy, ServerConfig, ServerObs};
use aig_prng::{Rng, SeedableRng, StdRng};
use aig_relstore::{Catalog, Database, Value};

const WORKLOAD_SEED: u64 = 0x0B5E_55ED;
const ARRIVALS: usize = 1_500;

/// The Small catalog with `DB2R` added as DB2's declared failover replica.
fn replicated_catalog(catalog: &Catalog) -> Catalog {
    let mut catalog = catalog.clone();
    let primary = catalog.source_id("DB2").unwrap();
    let mut replica_db = Database::new("DB2R");
    for table in catalog.source(primary).tables() {
        replica_db.add_table(table.clone()).unwrap();
    }
    let replica = catalog.add_source(replica_db).unwrap();
    catalog.declare_replica(primary, replica).unwrap();
    catalog
}

pub fn run(_: &[String]) -> Json {
    let aig = spec();
    let data = dataset(DatasetSize::Small);
    let catalog = replicated_catalog(&data.catalog);

    let mut options = fig10_options(4, 1.0);
    // Logical service times from the cost model alone (no wall-clock
    // calibration), so the ledger is machine-independent.
    options.graph.eval_scale = 0.0;
    options.graph.cost_model.per_query_overhead_secs = 0.05;
    options.retry = RetryPolicy {
        max_attempts: 3,
        backoff_base_secs: 0.0002,
        backoff_cap_secs: 0.002,
        jitter: 0.5,
        timeout_secs: 0.003,
    };
    options.faults = Some(FaultConfig {
        seed: 4242,
        transient_rate: 0.03,
        latency_rate: 0.02,
        // Spikes of 1-3 ms straddle the 3 ms timeout: most are absorbed,
        // the tail is cut off and retried.
        latency_secs: 0.002,
        ..FaultConfig::default()
    });

    let config = ServerConfig {
        seed: 0xC1AC_0B5E,
        max_queue: 24,
        max_in_flight: 4,
        tenant_quota: 16,
        default_deadline_secs: None,
        breaker_threshold: 3,
        // The cooldown must fit the (now ~3x shorter) horizon so the
        // breaker's probe/close lifecycle is exercised, not just the trip.
        breaker_cooldown_secs: 30.0,
        degrade: true,
    };
    let server = MediatorServer::new(catalog, &options, config.clone()).expect("server");

    // Seeded open-loop arrivals: four tenants (one noisy), bursts, mixed
    // budgets, dates cycling through the dataset.
    let mut rng = StdRng::seed_from_u64(WORKLOAD_SEED);
    let mut at = 0.0f64;
    let mut arrivals: Vec<Arrival> = Vec::with_capacity(ARRIVALS);
    for _ in 0..ARRIVALS {
        // Offered load tracks the service rate: dictionary-encoded ship
        // accounting cut simulated service times ~3x, so the gaps are ~3x
        // tighter than the row-major era to keep the system overloaded.
        at += if rng.gen_bool(0.2) {
            0.0 // burst: simultaneous with the previous arrival
        } else {
            rng.gen_range(0.03..0.35)
        };
        let tenant = if rng.gen_bool(0.4) {
            "alpha"
        } else {
            ["beta", "gamma", "delta"][rng.gen_range(0..3usize)]
        };
        let deadline_secs = match rng.gen_range(0.0f64..1.0) {
            r if r < 0.3 => None,
            r if r < 0.65 => Some(rng.gen_range(1.5..4.5)),
            _ => Some(rng.gen_range(4.5..15.0)),
        };
        let date = &data.dates[rng.gen_range(0..data.dates.len())];
        arrivals.push(Arrival {
            tenant: tenant.to_string(),
            at_secs: at,
            deadline_secs,
            args: vec![("date".to_string(), Value::str(date))],
            outage_sources: Vec::new(),
        });
    }
    // Three storm windows over the horizon: DB2 alone (the replica rides
    // it out), DB2 + DB2R (failover exhausted -> breaker trips ->
    // degraded), DB3 (no replica at all).
    let horizon = at;
    let storms: [(f64, f64, &[&str]); 3] = [
        (0.15, 0.20, &["DB2"]),
        (0.40, 0.50, &["DB2", "DB2R"]),
        (0.70, 0.75, &["DB3"]),
    ];
    for arrival in &mut arrivals {
        for (from, to, sources) in &storms {
            if arrival.at_secs >= from * horizon && arrival.at_secs < to * horizon {
                arrival
                    .outage_sources
                    .extend(sources.iter().map(|s| s.to_string()));
            }
        }
    }

    let run = server.run(&aig, &arrivals);
    let silent_drops = arrivals.len() as u64 - run.outcomes.len() as u64;
    let obs = &run.obs;

    let header = ["outcome", "count"];
    let rows: Vec<Vec<String>> = [
        ("offered", obs.offered),
        ("admitted", obs.admitted),
        ("rejected", obs.rejected),
        ("completed", obs.completed),
        ("deadline exceeded", obs.deadline_exceeded),
        ("degraded", obs.degraded),
        ("failed", obs.failed),
        ("breaker trips", obs.breaker_trips),
        ("breaker probes", obs.breaker_probes),
        ("breaker closes", obs.breaker_closes),
    ]
    .into_iter()
    .map(|(k, v)| vec![k.to_string(), v.to_string()])
    .collect();
    println!(
        "Ablation K: overload server, {} open-loop arrivals over {horizon:.0}s (Small, unfold 4)\n",
        arrivals.len()
    );
    println!("{}", markdown_table(&header, &rows));
    println!("{}", aig_mediator::render_report(&run.report));

    server_json(obs, &config, horizon, silent_drops)
}

fn server_json(obs: &ServerObs, config: &ServerConfig, horizon: f64, silent_drops: u64) -> Json {
    let n = |v: u64| Json::num(v as f64);
    let size = |v: usize| Json::num(v as f64);
    Json::obj(vec![
        ("workload_seed", Json::str(WORKLOAD_SEED.to_string())),
        ("server_seed", Json::str(config.seed.to_string())),
        ("arrivals", Json::num(ARRIVALS as f64)),
        ("horizon_secs", Json::num(horizon)),
        ("max_queue", size(config.max_queue)),
        ("max_in_flight", size(config.max_in_flight)),
        ("tenant_quota", size(config.tenant_quota)),
        ("breaker_threshold", size(config.breaker_threshold)),
        ("silent_drops", n(silent_drops)),
        ("offered", n(obs.offered)),
        ("admitted", n(obs.admitted)),
        ("rejected", n(obs.rejected)),
        ("rejected_queue", n(obs.rejected_queue)),
        ("rejected_in_flight", n(obs.rejected_in_flight)),
        ("rejected_tenant", n(obs.rejected_tenant)),
        ("completed", n(obs.completed)),
        ("deadline_exceeded", n(obs.deadline_exceeded)),
        ("degraded", n(obs.degraded)),
        ("failed", n(obs.failed)),
        ("breaker_trips", n(obs.breaker_trips)),
        ("breaker_probes", n(obs.breaker_probes)),
        ("breaker_closes", n(obs.breaker_closes)),
        ("max_queue_depth", size(obs.max_queue_depth)),
        ("max_in_flight_seen", size(obs.max_in_flight)),
        ("p50_secs", Json::num(obs.p50_secs)),
        ("p95_secs", Json::num(obs.p95_secs)),
        ("p99_secs", Json::num(obs.p99_secs)),
        ("balanced", Json::Bool(obs.balanced)),
    ])
}
