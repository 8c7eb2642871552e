//! The overload-resilient request server: a bounded, seeded open-loop
//! queue in front of [`Mediator`].
//!
//! Four defenses compose here:
//!
//! - **Admission control** — a global queue bound, a logical in-flight
//!   limit, and a per-tenant quota; anything over a limit is rejected
//!   immediately with [`MediatorError::Overloaded`] instead of queueing
//!   without bound.
//! - **Deadline budgets** — each admitted request carries a budget from its
//!   arrival; requests are dispatched earliest-deadline-first on the logical
//!   clock (`Sim::pick_edf`, the server's one EDF: it executes one request
//!   at a time, so no two requests contend for a source), a request
//!   whose budget expires while queued fails fast without executing, and
//!   one that completes past its budget terminates as
//!   [`Disposition::DeadlineExceeded`]. The remaining budget is also bound
//!   as a wall-clock [`crate::Deadline`] into execution, so a pathological
//!   hang surfaces instead of blocking the server.
//! - **Per-source circuit breakers** — after a configured number of
//!   consecutive fault-classified failures naming a source, its breaker
//!   trips open: requests needing it fail fast to a replica when one is
//!   usable, or are served *degraded* (the source's tables read as empty
//!   views, see [`crate::RequestCtx::skip_sources`]). Seeded half-open
//!   probes re-try the source live and close the breaker on success.
//! - **Graceful degradation** — a degraded completion names the skipped
//!   subtrees; the output check (the proof on the tag plan, or `validate`
//!   where the plan leaves a type open) and the document constraint check
//!   are scoped out for the partial document.
//!
//! The server runs on a **logical clock**: arrivals carry simulated
//! timestamps, a request's logical service time is its simulated response
//! time plus the nominal fault stalls, and queueing/percentiles/ledgers are
//! computed on those logical times. Execution itself is real — documents
//! and errors come from actually running each dispatched request — so the
//! whole run is deterministic for a given seed and workload, on any
//! machine. Environment outage storms are part of the workload: each
//! [`Arrival`] lists the sources that are down when it is dispatched.

use crate::error::MediatorError;
use crate::faults::mix;
use crate::obs::{RunReport, ServerObs};
use crate::pipeline::MediatorOptions;
use crate::service::{Mediator, RequestCtx, ServedRequest};
use aig_core::spec::Aig;
use aig_prng::{Rng, SeedableRng, StdRng};
use aig_relstore::{Catalog, SourceId, Value};
use aig_xml::XmlTree;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Minimum wall-clock allowance bound into an executing request as its
/// hang defense (see [`Sim::dispatch`]): never less than this, however
/// little *logical* budget remains, so deadline outcomes are decided by
/// the logical clock alone on any machine.
const WALL_DEFENSE_FLOOR_SECS: f64 = 0.25;

/// Tuning of the server's defenses.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Seed of the probe-jitter randomness (part of the report).
    pub seed: u64,
    /// Global bound on requests queued behind the in-flight slots. With a
    /// zero-length queue, overflow rejections carry scope `in_flight`.
    pub max_queue: usize,
    /// Logical in-flight slots (simulated concurrency).
    pub max_in_flight: usize,
    /// Per-tenant bound on queued + in-flight requests.
    pub tenant_quota: usize,
    /// Deadline budget for arrivals that do not name their own (None =
    /// those requests run unbounded).
    pub default_deadline_secs: Option<f64>,
    /// Consecutive fault-classified failures naming a source before its
    /// breaker trips open.
    pub breaker_threshold: usize,
    /// Logical seconds an open breaker waits before a half-open probe;
    /// jittered by up to +25%, seeded, so probes do not synchronize.
    pub breaker_cooldown_secs: f64,
    /// Serve requests degraded when an open breaker has no usable replica;
    /// when false such requests fail fast instead.
    pub degrade: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            seed: 0xC1AC_B4EA_4E45,
            max_queue: 64,
            max_in_flight: 4,
            tenant_quota: 32,
            default_deadline_secs: None,
            breaker_threshold: 3,
            breaker_cooldown_secs: 30.0,
            degrade: true,
        }
    }
}

/// One open-loop arrival: who asks, when (logical seconds), under what
/// budget, with which bound arguments — and which sources the environment
/// has down at dispatch time (the chaos harness's storm schedule).
#[derive(Debug, Clone)]
pub struct Arrival {
    pub tenant: String,
    /// Logical arrival time in seconds from the workload's origin.
    pub at_secs: f64,
    /// Deadline budget relative to arrival; None falls back to
    /// [`ServerConfig::default_deadline_secs`].
    pub deadline_secs: Option<f64>,
    pub args: Vec<(String, Value)>,
    /// Sources hard-down in the environment while this request runs.
    pub outage_sources: Vec<String>,
}

/// The single structured outcome every offered request terminates with.
#[derive(Debug)]
pub enum Disposition {
    /// Clean completion in budget: full data, document attached.
    Completed,
    /// Refused at admission ([`MediatorError::Overloaded`]).
    Rejected(MediatorError),
    /// Budget expired — queued too long, mid-execution, or finished late
    /// ([`MediatorError::DeadlineExceeded`]).
    DeadlineExceeded(MediatorError),
    /// Completed in budget but with the named subtrees served from empty
    /// degraded views.
    Degraded { skipped: Vec<String> },
    /// Execution surfaced an error after retries and failover.
    Failed(MediatorError),
}

impl Disposition {
    /// The ledger bucket this outcome counts in.
    pub fn tag(&self) -> &'static str {
        match self {
            Disposition::Completed => "completed",
            Disposition::Rejected(_) => "rejected",
            Disposition::DeadlineExceeded(_) => "deadline_exceeded",
            Disposition::Degraded { .. } => "degraded",
            Disposition::Failed(_) => "failed",
        }
    }
}

/// Terminal record of one offered request.
#[derive(Debug)]
pub struct RequestOutcome {
    /// Index into the arrival slice the server was run with.
    pub index: usize,
    pub tenant: String,
    pub arrived_secs: f64,
    /// Logical termination time (equals `arrived_secs` for rejections).
    pub finished_secs: f64,
    /// `finished_secs - arrived_secs`.
    pub latency_secs: f64,
    pub disposition: Disposition,
    /// The document a completed or degraded request served, as the run
    /// built it; compare it through [`crate::pipeline::canonical`].
    pub document: Option<XmlTree>,
}

/// Everything one server run produced: per-request outcomes, the balanced
/// ledger, and the schema-v7 summary report for [`crate::render_report`].
#[derive(Debug)]
pub struct ServerRun {
    pub outcomes: Vec<RequestOutcome>,
    pub obs: ServerObs,
    pub report: RunReport,
}

/// Per-source circuit breaker state.
#[derive(Debug, Clone, Default)]
struct Breaker {
    /// Consecutive fault-classified failures naming the source.
    consecutive: usize,
    open: bool,
    /// Logical time of the next half-open probe while open.
    probe_at: f64,
    /// Arrival index of the in-flight half-open probe, if any.
    probing: Option<usize>,
    /// Trips so far (jitter stream coordinate).
    trips: u64,
}

/// A bounded, deadline-aware request server wrapping a [`Mediator`].
#[derive(Debug)]
pub struct MediatorServer {
    mediator: Mediator,
    config: ServerConfig,
}

impl MediatorServer {
    pub fn new(
        catalog: Catalog,
        options: &MediatorOptions,
        config: ServerConfig,
    ) -> Result<MediatorServer, MediatorError> {
        Ok(MediatorServer {
            mediator: Mediator::new(catalog, options)?,
            config,
        })
    }

    pub fn mediator(&self) -> &Mediator {
        &self.mediator
    }

    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Runs one open-loop workload to completion. Every arrival terminates
    /// with exactly one [`RequestOutcome`], in arrival-slice order.
    pub fn run(&self, aig: &Aig, arrivals: &[Arrival]) -> ServerRun {
        let mut order: Vec<usize> = (0..arrivals.len()).collect();
        order.sort_by(|&a, &b| {
            arrivals[a]
                .at_secs
                .total_cmp(&arrivals[b].at_secs)
                .then(a.cmp(&b))
        });
        let mut sim = Sim {
            server: self,
            aig,
            arrivals,
            queue: Vec::new(),
            inflight: Vec::new(),
            tenant_load: HashMap::new(),
            breakers: BTreeMap::new(),
            outcomes: (0..arrivals.len()).map(|_| None).collect(),
            latencies: Vec::new(),
            obs: ServerObs {
                enabled: true,
                seed: self.config.seed,
                ..ServerObs::default()
            },
        };
        for &idx in &order {
            let now = arrivals[idx].at_secs;
            sim.drain(now);
            sim.offer(idx, now);
        }
        sim.drain(f64::INFINITY);
        sim.finish()
    }

    /// Deterministic stand-in for the logical service time of a failed
    /// request (failures produce no report to read simulated times from):
    /// the retry policy's worst case of full-timeout attempts.
    fn failure_penalty_secs(&self) -> f64 {
        let retry = &self.mediator.policy().retry;
        let attempt = if retry.timeout_secs.is_finite() {
            retry.timeout_secs
        } else {
            1.0
        };
        (retry.max_attempts.max(1) as f64) * attempt.max(0.05)
    }

    /// The jittered cooldown until the next half-open probe of `source`
    /// after its `trips`-th trip: `cooldown * [1.0, 1.25)`, seeded.
    fn probe_cooldown_secs(&self, source: SourceId, trips: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(mix(&[
            self.config.seed,
            0xB4EA_4E40,
            source.0 as u64,
            trips,
        ]));
        self.config.breaker_cooldown_secs.max(0.0) * (1.0 + 0.25 * rng.gen_range(0.0f64..1.0))
    }
}

/// One dispatched request waiting out its logical service time. Execution
/// already happened at dispatch; the result is classified at `finish_at`.
struct InFlight {
    idx: usize,
    finish_at: f64,
    deadline_at: Option<f64>,
    budget_secs: Option<f64>,
    result: Result<ServedRequest, MediatorError>,
    /// Non-mediator sources this request served live (not rerouted or
    /// skipped) — success resets their failure streaks.
    live: Vec<SourceId>,
    /// Open breakers this request probed half-open.
    probed: Vec<SourceId>,
}

/// The discrete-event state of one [`MediatorServer::run`].
struct Sim<'a> {
    server: &'a MediatorServer,
    aig: &'a Aig,
    arrivals: &'a [Arrival],
    /// Admitted arrival indices waiting for an in-flight slot.
    queue: Vec<usize>,
    inflight: Vec<InFlight>,
    /// Queued + in-flight requests per tenant.
    tenant_load: HashMap<&'a str, usize>,
    breakers: BTreeMap<SourceId, Breaker>,
    outcomes: Vec<Option<RequestOutcome>>,
    /// Latencies of every terminated *admitted* request.
    latencies: Vec<f64>,
    obs: ServerObs,
}

impl<'a> Sim<'a> {
    /// Admission control for one arrival at logical time `now`.
    fn offer(&mut self, idx: usize, now: f64) {
        let cfg = &self.server.config;
        self.obs.offered += 1;
        let tenant = self.arrivals[idx].tenant.as_str();
        let load = self.tenant_load.get(tenant).copied().unwrap_or(0);
        if load >= cfg.tenant_quota.max(1) {
            self.reject(idx, now, "tenant", load, cfg.tenant_quota.max(1));
            return;
        }
        *self.tenant_load.entry(tenant).or_insert(0) += 1;
        self.obs.admitted += 1;
        if self.inflight.len() < cfg.max_in_flight.max(1) {
            self.dispatch(idx, now);
        } else if self.queue.len() < cfg.max_queue {
            self.queue.push(idx);
            self.obs.max_queue_depth = self.obs.max_queue_depth.max(self.queue.len());
        } else {
            // Undo the provisional admission: the request bounces.
            self.obs.admitted -= 1;
            *self.tenant_load.get_mut(tenant).expect("just inserted") -= 1;
            if cfg.max_queue == 0 {
                self.reject(
                    idx,
                    now,
                    "in_flight",
                    self.inflight.len(),
                    cfg.max_in_flight,
                );
            } else {
                self.reject(idx, now, "queue", self.queue.len(), cfg.max_queue);
            }
        }
    }

    fn reject(&mut self, idx: usize, now: f64, scope: &str, depth: usize, limit: usize) {
        self.obs.rejected += 1;
        match scope {
            "queue" => self.obs.rejected_queue += 1,
            "in_flight" => self.obs.rejected_in_flight += 1,
            _ => self.obs.rejected_tenant += 1,
        }
        let error = MediatorError::Overloaded {
            tenant: self.arrivals[idx].tenant.clone(),
            scope: scope.to_string(),
            depth,
            limit,
        };
        self.record(idx, now, Disposition::Rejected(error), None);
    }

    /// Completes every in-flight request finishing by `until`, dispatching
    /// queued requests (earliest deadline first) as slots free up.
    fn drain(&mut self, until: f64) {
        while let Some(pos) = self
            .inflight
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.finish_at.total_cmp(&b.finish_at).then(a.idx.cmp(&b.idx)))
            .map(|(pos, _)| pos)
        {
            if self.inflight[pos].finish_at > until {
                break;
            }
            let fly = self.inflight.swap_remove(pos);
            let freed_at = fly.finish_at;
            self.complete(fly);
            while self.inflight.len() < self.server.config.max_in_flight.max(1) {
                let Some(qpos) = self.pick_edf() else { break };
                let idx = self.queue.remove(qpos);
                self.dispatch(idx, freed_at);
            }
        }
    }

    /// The queued request to dispatch next: earliest absolute deadline
    /// first, deadline-less requests last, arrival order breaking ties.
    fn pick_edf(&self) -> Option<usize> {
        self.queue
            .iter()
            .enumerate()
            .min_by(
                |(_, &a), (_, &b)| match (self.deadline_at(a), self.deadline_at(b)) {
                    (None, None) => a.cmp(&b),
                    (None, Some(_)) => std::cmp::Ordering::Greater,
                    (Some(_), None) => std::cmp::Ordering::Less,
                    (Some(x), Some(y)) => x.total_cmp(&y).then(a.cmp(&b)),
                },
            )
            .map(|(pos, _)| pos)
    }

    fn budget_secs(&self, idx: usize) -> Option<f64> {
        self.arrivals[idx]
            .deadline_secs
            .or(self.server.config.default_deadline_secs)
    }

    fn deadline_at(&self, idx: usize) -> Option<f64> {
        self.budget_secs(idx)
            .map(|b| self.arrivals[idx].at_secs + b)
    }

    /// Executes one admitted request at logical time `now` and parks it
    /// in flight until its logical completion.
    fn dispatch(&mut self, idx: usize, now: f64) {
        let arrival = &self.arrivals[idx];
        let budget = self.budget_secs(idx);
        let deadline_at = self.deadline_at(idx);
        if let (Some(budget), Some(deadline)) = (budget, deadline_at) {
            if now >= deadline {
                // The budget drained away in the queue: fail fast without
                // spending execution on a result nobody can use.
                let error = MediatorError::DeadlineExceeded {
                    task: "queue".to_string(),
                    budget_secs: budget,
                    elapsed_secs: now - arrival.at_secs,
                };
                self.record(idx, now, Disposition::DeadlineExceeded(error), None);
                return;
            }
        }

        let catalog = self.server.mediator.catalog();
        let env_down: BTreeSet<SourceId> = arrival
            .outage_sources
            .iter()
            .filter_map(|name| catalog.source_id(name).ok())
            .collect();
        // Breaker routing on top of the environment's storm outages.
        let mut outages: BTreeSet<String> = arrival.outage_sources.iter().cloned().collect();
        let mut skips: Vec<String> = Vec::new();
        let mut probed: Vec<SourceId> = Vec::new();
        for (&sid, breaker) in self.breakers.iter() {
            if !breaker.open {
                continue;
            }
            if breaker.probing.is_none() && now >= breaker.probe_at {
                // Half-open: this request carries the probe — no breaker
                // routing for the source (the environment still applies).
                probed.push(sid);
                continue;
            }
            let name = catalog.source(sid).name().to_string();
            let replica_usable = catalog.replica_of(sid).is_some_and(|replica| {
                !env_down.contains(&replica)
                    && !self.breakers.get(&replica).map(|b| b.open).unwrap_or(false)
            });
            if replica_usable || !self.server.config.degrade {
                // Fail fast: reroute to the replica before the first
                // attempt (or surface SourceUnavailable immediately).
                outages.insert(name);
            } else {
                skips.push(name);
            }
        }
        for &sid in &probed {
            self.breakers
                .get_mut(&sid)
                .expect("probed breaker exists")
                .probing = Some(idx);
            self.obs.breaker_probes += 1;
        }

        let ctx = RequestCtx {
            // The remaining *logical* budget doubles as a wall-clock hang
            // defense inside execution. Floored so that a healthy run (real
            // execution is milliseconds) never trips it on a slow machine —
            // deadline classification stays purely logical-clock, hence
            // machine-independent; a genuine hang still surfaces.
            deadline_secs: deadline_at.map(|d| (d - now).max(WALL_DEFENSE_FLOOR_SECS)),
            extra_outages: outages.iter().cloned().collect(),
            skip_sources: skips,
        };
        let args: Vec<(&str, Value)> = arrival
            .args
            .iter()
            .map(|(name, value)| (name.as_str(), value.clone()))
            .collect();
        let result = self.server.mediator.request_with(self.aig, &args, &ctx);
        // Logical service time: the simulated response of the plan plus
        // the nominal fault stalls and backoffs the run absorbed.
        let service_secs = match &result {
            Ok(served) => {
                served.report.sim_response_merged_secs
                    + served.report.resilience.backoff_secs
                    + served.report.resilience.stall_secs
            }
            Err(_) => self.server.failure_penalty_secs(),
        };
        let live: Vec<SourceId> = catalog
            .source_ids()
            .filter(|sid| !sid.is_mediator())
            .filter(|sid| {
                let name = catalog.source(*sid).name();
                !ctx.extra_outages.iter().any(|o| o == name)
                    && !ctx.skip_sources.iter().any(|s| s == name)
            })
            .collect();
        self.inflight.push(InFlight {
            idx,
            finish_at: now + service_secs.max(0.0),
            deadline_at,
            budget_secs: budget,
            result,
            live,
            probed,
        });
        self.obs.max_in_flight = self.obs.max_in_flight.max(self.inflight.len());
    }

    /// Classifies one finished request and updates the breakers.
    fn complete(&mut self, fly: InFlight) {
        let now = fly.finish_at;
        let idx = fly.idx;
        match fly.result {
            Ok(served) => {
                for &sid in &fly.live {
                    if let Some(breaker) = self.breakers.get_mut(&sid) {
                        if !breaker.open {
                            breaker.consecutive = 0;
                        }
                    }
                }
                for &sid in &fly.probed {
                    let breaker = self.breakers.get_mut(&sid).expect("probed breaker exists");
                    if breaker.open && breaker.probing == Some(idx) {
                        breaker.open = false;
                        breaker.probing = None;
                        breaker.consecutive = 0;
                        self.obs.breaker_closes += 1;
                    }
                }
                let late = fly.deadline_at.map(|d| now > d).unwrap_or(false);
                if late {
                    let error = MediatorError::DeadlineExceeded {
                        task: "completion".to_string(),
                        budget_secs: fly.budget_secs.unwrap_or(0.0),
                        elapsed_secs: now - self.arrivals[idx].at_secs,
                    };
                    self.record(idx, now, Disposition::DeadlineExceeded(error), None);
                } else {
                    let document = served.run.tree;
                    if served.skipped.is_empty() {
                        self.record(idx, now, Disposition::Completed, Some(document));
                    } else {
                        let skipped = served.skipped;
                        self.record(idx, now, Disposition::Degraded { skipped }, Some(document));
                    }
                }
            }
            Err(error) => {
                if let Some(name) = fault_source(&error) {
                    if let Ok(sid) = self.server.mediator.catalog().source_id(name) {
                        let breaker = self.breakers.entry(sid).or_default();
                        breaker.consecutive += 1;
                        if !breaker.open
                            && breaker.consecutive >= self.server.config.breaker_threshold.max(1)
                        {
                            breaker.open = true;
                            breaker.trips += 1;
                            let trips = breaker.trips;
                            breaker.probe_at = now + self.server.probe_cooldown_secs(sid, trips);
                            self.obs.breaker_trips += 1;
                        }
                    }
                }
                // Probes that did not come back clean stay open and are
                // rescheduled, whatever source the failure named.
                for &sid in &fly.probed {
                    let breaker = self.breakers.get_mut(&sid).expect("probed breaker exists");
                    if breaker.open && breaker.probing == Some(idx) {
                        breaker.probing = None;
                        let trips = breaker.trips;
                        breaker.probe_at = now + self.server.probe_cooldown_secs(sid, trips);
                    }
                }
                let disposition = match &error {
                    MediatorError::DeadlineExceeded { .. } => Disposition::DeadlineExceeded(error),
                    _ => Disposition::Failed(error),
                };
                self.record(idx, now, disposition, None);
            }
        }
    }

    /// Books the single terminal outcome of request `idx`.
    fn record(
        &mut self,
        idx: usize,
        now: f64,
        disposition: Disposition,
        document: Option<XmlTree>,
    ) {
        let arrival = &self.arrivals[idx];
        let admitted = !matches!(disposition, Disposition::Rejected(_));
        if admitted {
            match disposition {
                Disposition::Completed => self.obs.completed += 1,
                Disposition::DeadlineExceeded(_) => self.obs.deadline_exceeded += 1,
                Disposition::Degraded { .. } => self.obs.degraded += 1,
                Disposition::Failed(_) => self.obs.failed += 1,
                Disposition::Rejected(_) => unreachable!(),
            }
            let load = self
                .tenant_load
                .get_mut(arrival.tenant.as_str())
                .expect("admitted tenant is loaded");
            *load = load.saturating_sub(1);
            self.latencies.push(now - arrival.at_secs);
        }
        debug_assert!(self.outcomes[idx].is_none(), "double outcome for {idx}");
        self.outcomes[idx] = Some(RequestOutcome {
            index: idx,
            tenant: arrival.tenant.clone(),
            arrived_secs: arrival.at_secs,
            finished_secs: now,
            latency_secs: now - arrival.at_secs,
            disposition,
            document,
        });
    }

    fn finish(mut self) -> ServerRun {
        self.latencies.sort_by(|a, b| a.total_cmp(b));
        self.obs.p50_secs = percentile(&self.latencies, 0.50);
        self.obs.p95_secs = percentile(&self.latencies, 0.95);
        self.obs.p99_secs = percentile(&self.latencies, 0.99);
        self.obs.balanced = self.obs.offered == self.obs.admitted + self.obs.rejected
            && self.obs.admitted
                == self.obs.completed
                    + self.obs.deadline_exceeded
                    + self.obs.degraded
                    + self.obs.failed;
        let outcomes: Vec<RequestOutcome> = self
            .outcomes
            .into_iter()
            .map(|o| o.expect("every offered request terminates"))
            .collect();
        let report = RunReport::server_summary(self.obs.clone());
        ServerRun {
            outcomes,
            obs: self.obs,
            report,
        }
    }
}

/// The source a fault-classified error names, feeding the breakers.
fn fault_source(error: &MediatorError) -> Option<&str> {
    match error {
        MediatorError::SourceFault { source, .. }
        | MediatorError::SourceUnavailable { source, .. }
        | MediatorError::IntegrityViolation { source, .. } => Some(source),
        _ => None,
    }
}

/// Nearest-rank percentile of an ascending-sorted slice (0.0 when empty).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}
