//! Deterministic fault injection and recovery for source execution.
//!
//! The mediator of §5 ships parameterized queries to autonomous relational
//! sources; in a real deployment those sources stall, drop connections, go
//! down entirely, or answer wrongly. This module supplies one *seeded*
//! fault model so that every failure scenario is reproducible: a
//! [`FaultPlan`] decides, as a pure function of `(seed, source, [table],
//! task, attempt)`, whether an attempt suffers a transient error, a latency
//! spike, a hard source outage, a vanished table, a corrupted answer, or a
//! stale replica. Both executors drive recovery through the same
//! `FaultEnv::run_task` loop — retry with exponential backoff and jitter,
//! a per-attempt timeout bounding injected stalls, the integrity guard at
//! the task boundary, and (for outages) failover to a replica declared in
//! the catalog.
//!
//! Every injection is one [`FaultEvent`] in the run's one [`FaultLog`]; the
//! report's `resilience` and `integrity` sections are two views of it.
//!
//! Because the decision function is pure, the injected fault stream does
//! not depend on thread interleaving: with the same seed, a faulted run
//! that recovers produces byte-identical relations and tagged documents to
//! a fault-free run (see the chaos-matrix tests).

use crate::error::{ConfigError, MediatorError};
use crate::integrity::{self, CorruptionKind, RelProfile};
use aig_prng::{Rng, SeedableRng, StdRng};
use aig_relstore::{Catalog, Relation, SourceId};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// Configuration of the deterministic fault model. All rates are per
/// *attempt* probabilities in `[0, 1]`; the mediator pseudo-source is never
/// faulted (the model covers the autonomous sources, not the mediator
/// itself).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed of the fault stream; the same seed replays the same faults.
    pub seed: u64,
    /// Probability that an attempt fails with a transient source error.
    pub transient_rate: f64,
    /// Probability that an attempt is delayed by a latency spike.
    pub latency_rate: f64,
    /// Nominal spike duration in seconds (the drawn spike is uniform in
    /// `[0.5, 1.5] × latency_secs`). Spikes at or above the retry policy's
    /// timeout fail the attempt as a timeout.
    pub latency_secs: f64,
    /// Sources (by catalog name) hard-down for the entire run.
    pub outages: Vec<String>,
    /// Mid-run outages: `(source name, k)` — the source completes `k` tasks
    /// and then goes hard-down for the rest of the run. `k = 0` is a
    /// whole-run outage, equivalent to listing the source in `outages`.
    pub dies_after: Vec<(String, usize)>,
    /// Probability that an attempt's shipped relation is corrupted with a
    /// seeded wrong-answer mutation (a [`CorruptionKind`] drawn uniformly).
    pub corrupt_rate: f64,
    /// Probability that the attempt's primary table has vanished while its
    /// source stays up; the attempt fails naming the table. Re-decided per
    /// attempt, so retries can find the table back.
    pub table_outage_rate: f64,
    /// Probability that an attempt running at a failover replica returns a
    /// stale answer lagging the primary: the shipped relation is truncated
    /// by up to [`FaultConfig::stale_replica_rows`] trailing rows.
    pub stale_replica_rate: f64,
    /// Maximum replica lag in rows (the drawn lag is uniform in `1..=max`).
    pub stale_replica_rows: usize,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            transient_rate: 0.0,
            latency_rate: 0.0,
            latency_secs: 0.001,
            outages: Vec::new(),
            dies_after: Vec::new(),
            corrupt_rate: 0.0,
            table_outage_rate: 0.0,
            stale_replica_rate: 0.0,
            stale_replica_rows: 2,
        }
    }
}

impl FaultConfig {
    /// Rejects knobs the decision streams cannot draw from: a rate outside
    /// `[0, 1]` (or NaN), a spike duration that is negative or not finite,
    /// and a replica lag whose draw `1..max + 1` would overflow.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (field, value) in [
            ("transient_rate", self.transient_rate),
            ("latency_rate", self.latency_rate),
            ("corrupt_rate", self.corrupt_rate),
            ("table_outage_rate", self.table_outage_rate),
            ("stale_replica_rate", self.stale_replica_rate),
        ] {
            if !(0.0..=1.0).contains(&value) {
                return Err(ConfigError::RateOutOfRange { field, value });
            }
        }
        seconds("latency_secs", self.latency_secs, false)?;
        if self.stale_replica_rows == usize::MAX {
            return Err(ConfigError::StaleRowsOverflow);
        }
        Ok(())
    }
}

/// A duration knob must be a non-negative number of seconds, finite unless
/// `infinite_ok` (an infinite timeout means "no timeout").
fn seconds(field: &'static str, value: f64, infinite_ok: bool) -> Result<(), ConfigError> {
    if value >= 0.0 && (infinite_ok || value.is_finite()) {
        Ok(())
    } else {
        Err(ConfigError::BadSeconds { field, value })
    }
}

/// A per-request deadline budget: a wall-clock start plus a budget in
/// seconds. Bound once when a request enters execution
/// ([`crate::service::RequestCtx::deadline_secs`] →
/// [`crate::exec::ExecOptions::deadline`]) and consulted by both executors
/// (no task starts past the deadline) and the retry loop (no attempt starts
/// past it; backoff and stall sleeps are clamped to the remaining budget).
/// Because the only in-attempt sleeps are the injected stall — itself
/// capped at the per-attempt timeout — and the clamped backoff, a run
/// never overshoots its budget by more than one attempt-timeout.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    start: Instant,
    budget_secs: f64,
}

impl Deadline {
    /// A deadline whose budget starts counting now. Negative budgets clamp
    /// to zero (already expired).
    pub fn starting_now(budget_secs: f64) -> Deadline {
        Deadline {
            start: Instant::now(),
            budget_secs: budget_secs.max(0.0),
        }
    }

    pub fn budget_secs(&self) -> f64 {
        self.budget_secs
    }

    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Seconds of budget left (zero once expired, never negative).
    pub fn remaining_secs(&self) -> f64 {
        (self.budget_secs - self.elapsed_secs()).max(0.0)
    }

    pub fn expired(&self) -> bool {
        self.elapsed_secs() >= self.budget_secs
    }

    /// The absolute instant the budget runs out; None for non-finite
    /// budgets (they can never expire).
    pub fn expires_at(&self) -> Option<Instant> {
        self.budget_secs
            .is_finite()
            .then(|| self.start + Duration::from_secs_f64(self.budget_secs))
    }

    /// The structured error naming the task the budget ran out at.
    pub fn exceeded_at(&self, task: &str) -> MediatorError {
        MediatorError::DeadlineExceeded {
            task: task.to_string(),
            budget_secs: self.budget_secs,
            elapsed_secs: self.elapsed_secs(),
        }
    }
}

/// Retry/backoff/timeout policy for source-task execution. The backoff is
/// exponential with deterministic jitter (seeded per task and attempt, so
/// reruns sleep the same schedule).
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Attempts per task including the first (1 = no retries).
    pub max_attempts: usize,
    /// First backoff sleep in seconds; doubles every retry.
    pub backoff_base_secs: f64,
    /// Upper bound on a single backoff sleep.
    pub backoff_cap_secs: f64,
    /// Jitter fraction in `[0, 1]`: each sleep is scaled by a deterministic
    /// factor in `[1 - jitter, 1 + jitter]`. Values outside `[0, 1]` are
    /// clamped into it (and NaN disables jitter): a fraction above 1 would
    /// permit negative sleeps, below 0 an inverted band.
    pub jitter: f64,
    /// Per-attempt timeout bounding injected stalls: a latency spike at or
    /// above this fails the attempt (counted as a timeout) after sleeping
    /// only the timeout, never the full spike.
    pub timeout_secs: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_base_secs: 0.0005,
            backoff_cap_secs: 0.01,
            jitter: 0.5,
            timeout_secs: f64::INFINITY,
        }
    }
}

impl RetryPolicy {
    /// A policy that surfaces the first fault (no retries, no timeout).
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Rejects sleeps that cannot be slept: a backoff that is negative or
    /// not finite, and a timeout that is negative or NaN (the infinite
    /// default stays: no timeout).
    pub fn validate(&self) -> Result<(), ConfigError> {
        seconds("backoff_base_secs", self.backoff_base_secs, false)?;
        seconds("backoff_cap_secs", self.backoff_cap_secs, false)?;
        seconds("timeout_secs", self.timeout_secs, true)
    }

    /// The deterministic backoff sleep before retry number `attempt + 1`.
    pub fn backoff_secs(&self, seed: u64, task: usize, attempt: usize) -> f64 {
        let raw = self.backoff_base_secs * (1u64 << attempt.min(32)) as f64;
        let capped = raw.min(self.backoff_cap_secs);
        let jitter = if self.jitter.is_nan() {
            0.0
        } else {
            self.jitter.clamp(0.0, 1.0)
        };
        if jitter <= 0.0 || capped <= 0.0 {
            return capped;
        }
        let mut rng = StdRng::seed_from_u64(mix(&[seed, 0xBACC_0FF5, task as u64, attempt as u64]));
        let factor = rng.gen_range(1.0 - jitter..1.0 + jitter);
        capped * factor
    }
}

/// What the fault plan injects into one attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InjectedFault {
    /// The attempt fails immediately with a transient source error.
    Transient,
    /// The attempt is stalled for the given duration before the query runs;
    /// stalls reaching the policy timeout fail the attempt instead.
    Latency(Duration),
}

/// What one injection was. The first three fail an attempt (fail-stop);
/// the last three can put *wrong data* in front of the mediator — the
/// report's integrity section exists to prove none of it reaches the
/// published document silently. The declaration order is the tie-break of
/// the canonical event order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    Transient,
    Latency,
    Outage,
    /// The attempt's primary table vanished while its source stayed up.
    TableOutage,
    /// A seeded cell/row mutation of a shipped relation.
    CorruptRow(CorruptionKind),
    /// A failover replica answered with a truncated (lagging) relation.
    StaleReplica,
}

impl FaultKind {
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Transient => "transient",
            FaultKind::Latency => "latency",
            FaultKind::Outage => "outage",
            FaultKind::TableOutage => "table-outage",
            FaultKind::CorruptRow(_) => "corrupt-row",
            FaultKind::StaleReplica => "stale-replica",
        }
    }

    /// The mutation detail for corruptions, empty otherwise.
    pub fn detail(self) -> &'static str {
        match self {
            FaultKind::CorruptRow(k) => k.name(),
            _ => "",
        }
    }

    /// Whether the fault can hand the mediator wrong data: the events the
    /// report's integrity section lists.
    pub fn is_wrong_answer(self) -> bool {
        matches!(
            self,
            FaultKind::TableOutage | FaultKind::CorruptRow(_) | FaultKind::StaleReplica
        )
    }
}

/// How one injected fault was resolved. Every fault gets exactly one
/// outcome, so both views balance: over the fail-stop resolutions
/// `injected = retried + timed_out + failed_over + surfaced` (absorbed
/// spikes never failed an attempt), and over the wrong answers `injected =
/// retried + surfaced + detected_by_constraint + undetected`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultOutcome {
    /// The fault failed its attempt (or the guard caught it) and a retry
    /// after backoff replaced the data.
    Retried,
    /// A latency spike hit the per-attempt timeout and was retried.
    TimedOut,
    /// A hard outage was routed to a replica source.
    FailedOver,
    /// The fault exhausted the retry budget and surfaced as the run error —
    /// a [`MediatorError::IntegrityViolation`] when the guard caught it.
    Surfaced,
    /// A sub-timeout latency spike delayed the attempt without failing it.
    Absorbed,
    /// The wrong answer slipped past the task-boundary guard but the
    /// document constraint check ([`aig_xml::ConstraintSet::check`])
    /// caught it.
    DetectedByConstraint,
    /// No layer detected the wrong answer (yet). Document-level
    /// reconciliation upgrades these to
    /// [`FaultOutcome::DetectedByConstraint`]; any that remain are the
    /// silent corruptions the harness asserts against.
    Undetected,
}

impl FaultOutcome {
    pub fn name(self) -> &'static str {
        match self {
            FaultOutcome::Retried => "retried",
            FaultOutcome::TimedOut => "timed_out",
            FaultOutcome::FailedOver => "failed_over",
            FaultOutcome::Surfaced => "surfaced",
            FaultOutcome::Absorbed => "absorbed",
            FaultOutcome::DetectedByConstraint => "detected_by_constraint",
            FaultOutcome::Undetected => "undetected",
        }
    }

    /// The name in the integrity section, which says what a resolution
    /// means for a wrong answer.
    pub fn integrity_name(self) -> &'static str {
        match self {
            FaultOutcome::Retried => "masked_by_retry",
            FaultOutcome::Surfaced => "detected_by_guard",
            other => other.name(),
        }
    }

    /// Whether the outcome resolves a fault at the task boundary: the
    /// events the report's resilience section lists.
    pub fn is_fail_stop(self) -> bool {
        !matches!(
            self,
            FaultOutcome::DetectedByConstraint | FaultOutcome::Undetected
        )
    }
}

crate::obs::report_struct! {
    /// One recorded injection: which task/attempt it hit, what was
    /// injected, how it resolved, which check caught it, and the real
    /// seconds slept for backoff and stall. The report's
    /// `resilience.events` carries the fail-stop resolutions as they are,
    /// without the two wrong-answer coordinates.
    #[derive(Debug, Clone, PartialEq)]
    pub struct FaultEvent {
        pub task: usize,
        pub label: String,
        pub source: String,
        /// The primary stored table the task reads (empty for mediator
        /// tasks).
        pub table: String = skip,
        pub attempt: usize,
        pub kind: FaultKind,
        pub outcome: FaultOutcome,
        /// The check a wrong answer violated, e.g.
        /// `key(treatment[SSN, trId])` or `table-available(procedure)`;
        /// empty for the other faults and while undetected.
        pub constraint: String = skip,
        pub backoff_secs: f64 = wall,
        pub stall_secs: f64 = wall,
    }
}

/// Everything the fault layer did during one execution: one event per
/// injection, plus how many dead sources were failed over.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultLog {
    pub events: Vec<FaultEvent>,
    /// Failovers performed — the same count in every driver (the parallel
    /// one also re-runs `Schedule` on the surviving subgraph after each).
    pub replans: usize,
}

impl FaultLog {
    /// Events in the canonical `(task, attempt, kind, outcome)` order — the
    /// per-source walk appends in completion order, which varies with
    /// thread interleaving.
    pub fn sorted_events(&self) -> Vec<FaultEvent> {
        let mut events = self.events.clone();
        events.sort_by_key(|e| (e.task, e.attempt, e.kind, e.outcome));
        events
    }

    /// The integrity view: the wrong answers (the resilience view is the
    /// events whose outcome [`FaultOutcome::is_fail_stop`]).
    pub fn wrong_answers(&self) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter().filter(|e| e.kind.is_wrong_answer())
    }

    /// Events resolved as `outcome` across the log — for a fail-stop
    /// outcome, its count in the resilience view.
    pub fn count(&self, outcome: FaultOutcome) -> usize {
        self.events.iter().filter(|e| e.outcome == outcome).count()
    }

    /// Injected faults of the resilience view excluding absorbed spikes
    /// (its identity's left side).
    pub fn injected(&self) -> usize {
        let injected =
            |e: &&FaultEvent| e.outcome.is_fail_stop() && e.outcome != FaultOutcome::Absorbed;
        self.events.iter().filter(injected).count()
    }

    /// Document-level reconciliation: the constraint check on the tagged
    /// document found violations, so every injection still marked
    /// [`FaultOutcome::Undetected`] is claimed by the constraint layer.
    pub fn resolve_undetected(&mut self, constraint: &str) {
        for e in &mut self.events {
            if e.outcome == FaultOutcome::Undetected {
                e.outcome = FaultOutcome::DetectedByConstraint;
                e.constraint = constraint.to_string();
            }
        }
    }
}

/// The bound fault model: configuration plus the resolved set of hard-down
/// sources. Decisions are pure functions of the seed, so the plan can be
/// shared (or cloned) freely across worker threads.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    cfg: FaultConfig,
    down: BTreeSet<SourceId>,
    /// Mid-run outage thresholds: the source dies after completing this
    /// many tasks (always >= 1; zero thresholds fold into `down`).
    down_after: BTreeMap<SourceId, usize>,
    /// Sources a degraded request skips entirely: the mediator never
    /// contacts them, so no fault of any kind fires there (they behave
    /// like the mediator pseudo-source for the fault model).
    skip: BTreeSet<SourceId>,
}

impl FaultPlan {
    /// Validates `cfg` and binds it to a catalog: named outages are
    /// resolved (unknown names are an error). The mediator pseudo-source is
    /// never taken down.
    pub fn new(cfg: &FaultConfig, catalog: &Catalog) -> Result<FaultPlan, MediatorError> {
        cfg.validate()?;
        let mut down = BTreeSet::new();
        let mut down_after = BTreeMap::new();
        let named = cfg.outages.iter().map(|name| (name, 0));
        for (name, k) in named.chain(cfg.dies_after.iter().map(|(name, k)| (name, *k))) {
            let sid = catalog.source_id(name).map_err(MediatorError::Store)?;
            if sid.is_mediator() {
                return Err(MediatorError::Internal(
                    "cannot declare an outage of the mediator pseudo-source".to_string(),
                ));
            }
            if k == 0 {
                down.insert(sid);
            } else {
                down_after.insert(sid, k);
            }
        }
        Ok(FaultPlan {
            cfg: cfg.clone(),
            down,
            down_after,
            skip: BTreeSet::new(),
        })
    }

    /// A copy of this plan with `sources` exempted from every fault kind.
    /// A degraded request serves those sources as empty views without ever
    /// contacting them, so neither outages nor per-attempt faults can fire
    /// there; everything else keeps its original seeded decisions.
    pub fn with_skipped(&self, sources: &[SourceId]) -> FaultPlan {
        let mut plan = self.clone();
        plan.skip.extend(sources.iter().copied());
        plan
    }

    pub fn seed(&self) -> u64 {
        self.cfg.seed
    }

    /// Whether `source` is hard-down for the entire run.
    pub fn source_down(&self, source: SourceId) -> bool {
        !self.skip.contains(&source) && self.down.contains(&source)
    }

    /// The mid-run outage threshold of `source`: it dies after completing
    /// this many tasks (None = no mid-run outage declared). Executors track
    /// per-source completion counts and treat the source as hard-down once
    /// the threshold is reached.
    pub fn outage_after(&self, source: SourceId) -> Option<usize> {
        if self.skip.contains(&source) {
            return None;
        }
        self.down_after.get(&source).copied()
    }

    /// Whether any mid-run outage is declared (lets executors skip the
    /// completion-count bookkeeping entirely when not).
    pub fn has_mid_run_outages(&self) -> bool {
        !self.down_after.is_empty()
    }

    /// The seeded stream of one decision site, or None where the site
    /// cannot fire: at the mediator pseudo-source, at a skipped source, or
    /// at a zero `rate`. Each site has its own `salt`; a site keyed by the
    /// task's table folds it in, so every `(seed, site, source, [table],
    /// task, attempt)` tuple gets an independent draw.
    fn stream(
        &self,
        salt: u64,
        rate: f64,
        source: SourceId,
        table: Option<&str>,
        task: usize,
        attempt: usize,
    ) -> Option<StdRng> {
        if source.is_mediator() || self.skip.contains(&source) || rate <= 0.0 {
            return None;
        }
        let (seed, src, task, attempt) =
            (self.cfg.seed, source.0 as u64, task as u64, attempt as u64);
        Some(StdRng::seed_from_u64(match table {
            Some(table) => mix(&[seed, salt, src, fnv64(table), task, attempt]),
            None => mix(&[seed, salt, src, task, attempt]),
        }))
    }

    /// The fault injected into attempt `attempt` of `task` at `source`
    /// (None = the attempt runs cleanly). Pure in its arguments: the same
    /// plan returns the same answer regardless of execution order.
    pub fn decide(&self, source: SourceId, task: usize, attempt: usize) -> Option<InjectedFault> {
        let (transient, latency) = (self.cfg.transient_rate, self.cfg.latency_rate);
        let rate = transient + latency;
        let mut rng = self.stream(0xFA17_57A6, rate, source, None, task, attempt)?;
        let draw = rng.gen_range(0.0f64..1.0);
        if draw < transient {
            Some(InjectedFault::Transient)
        } else if draw < rate {
            let spike = (self.cfg.latency_secs * rng.gen_range(0.5f64..1.5)).max(0.0);
            Some(InjectedFault::Latency(Duration::from_secs_f64(spike)))
        } else {
            None
        }
    }

    /// Whether any wrong-answer fault (corruption, table outage, stale
    /// replica) is configured — executors then derive integrity profiles
    /// for their source tasks.
    pub fn has_wrong_answer_faults(&self) -> bool {
        self.cfg.corrupt_rate > 0.0
            || self.cfg.table_outage_rate > 0.0
            || self.cfg.stale_replica_rate > 0.0
    }

    /// Whether attempt `attempt` of `task` finds `table` vanished at
    /// `source` (the source itself stays up). Pure in
    /// `(seed, source, table, task, attempt)`: re-decided per attempt, so a
    /// retry can find the table back.
    pub fn decide_table_outage(
        &self,
        source: SourceId,
        table: &str,
        task: usize,
        attempt: usize,
    ) -> bool {
        let rate = self.cfg.table_outage_rate;
        let stream = self.stream(0x7AB7_E007, rate, source, Some(table), task, attempt);
        !table.is_empty() && stream.is_some_and(|mut rng| rng.gen_bool(rate))
    }

    /// The wrong-answer corruption injected into attempt `attempt` of
    /// `task` at `source` (None = the relation ships clean). Pure in
    /// `(seed, source, table, task, attempt)`.
    pub fn decide_corruption(
        &self,
        source: SourceId,
        table: &str,
        task: usize,
        attempt: usize,
    ) -> Option<CorruptionKind> {
        let rate = self.cfg.corrupt_rate;
        let mut rng = self.stream(0xC0BB_ED05, rate, source, Some(table), task, attempt)?;
        (!table.is_empty() && rng.gen_bool(rate))
            .then(|| CorruptionKind::ALL[rng.gen_range(0..CorruptionKind::ALL.len())])
    }

    /// The replica lag (in trailing rows dropped) of attempt `attempt` of
    /// `task` when it runs at a failover target (None = the replica is
    /// caught up). Pure in `(seed, source, table, task, attempt)`.
    pub fn decide_stale(
        &self,
        source: SourceId,
        table: &str,
        task: usize,
        attempt: usize,
    ) -> Option<usize> {
        let (rate, rows) = (self.cfg.stale_replica_rate, self.cfg.stale_replica_rows);
        let mut rng = self.stream(0x57A7_E00D, rate, source, Some(table), task, attempt)?;
        (rows > 0 && rng.gen_bool(rate)).then(|| rng.gen_range(1..rows + 1))
    }
}

/// The per-execution fault environment the one task body
/// ([`crate::exec::Executor::run_measured`]) runs tasks through.
#[derive(Clone, Copy)]
pub(crate) struct FaultEnv<'a> {
    pub plan: Option<&'a FaultPlan>,
    pub retry: &'a RetryPolicy,
    /// The request's deadline budget: no attempt starts past it and every
    /// sleep is clamped to the remaining budget. None = unbounded.
    pub deadline: Option<&'a Deadline>,
}

/// Everything the fault layer needs to know about the task it wraps —
/// bundled for the one call of [`FaultEnv::run_task`].
pub(crate) struct TaskFaultCtx<'a> {
    pub task_id: usize,
    pub label: &'a str,
    pub source: SourceId,
    pub source_name: &'a str,
    /// The primary stored table the task reads (wrong-answer fault
    /// coordinate); None for mediator tasks.
    pub table: Option<&'a str>,
    /// The original source's name when this task was rerouted to a replica.
    pub failed_over_from: Option<&'a str>,
    /// Integrity profile of the shipped relation; None disables both
    /// corruption injection and guard checks for this task.
    pub profile: Option<&'a RelProfile>,
    /// Whether the task-boundary guard checks run (detections feed the
    /// retry loop; final-attempt detections surface as
    /// [`MediatorError::IntegrityViolation`]).
    pub check_integrity: bool,
}

impl TaskFaultCtx<'_> {
    /// An event of this task at `attempt`: no violated check yet, nothing
    /// slept.
    fn event(&self, attempt: usize, kind: FaultKind, outcome: FaultOutcome) -> FaultEvent {
        FaultEvent {
            task: self.task_id,
            label: self.label.to_string(),
            source: self.source_name.to_string(),
            table: self.table.unwrap_or("").to_string(),
            attempt,
            kind,
            outcome,
            constraint: String::new(),
            backoff_secs: 0.0,
            stall_secs: 0.0,
        }
    }
}

/// How one attempt under a fault plan ended: it shipped, or an injected
/// fault failed it — the event to record and the error if none is left.
enum Attempt {
    Shipped(Option<Relation>),
    Failed(FaultEvent, MediatorError),
}

impl FaultEnv<'_> {
    /// Sleeps `secs`, clamped to the remaining deadline budget. Event logs
    /// record the *nominal* (seeded, deterministic) durations so a run that
    /// completes inside its budget stays byte-identical to an unbounded
    /// run; only the real sleep is shortened.
    fn nap(&self, secs: f64) {
        let secs = match self.deadline {
            Some(d) => secs.min(d.remaining_secs()),
            None => secs,
        };
        sleep_secs(secs);
    }

    /// Runs one task under the fault model: injected latency spikes are
    /// slept (capped at the timeout), transient errors, vanished tables and
    /// timeouts are retried with exponential backoff up to `max_attempts`,
    /// and the last failure surfaces as a structured
    /// [`MediatorError::SourceFault`]. Shipped relations then pass the
    /// wrong-answer layer: seeded corruptions and replica staleness are
    /// injected and the integrity guard checks the result. A guard
    /// detection on a non-final attempt retries (masking the corruption);
    /// on the final attempt it surfaces as
    /// [`MediatorError::IntegrityViolation`]. Every injection is pushed to
    /// `events` once, with its resolution. Genuine task errors (constraint
    /// violations, internal errors) are never retried.
    pub(crate) fn run_task(
        &self,
        ctx: &TaskFaultCtx<'_>,
        events: &mut Vec<FaultEvent>,
        mut run: impl FnMut() -> Result<Option<Relation>, MediatorError>,
    ) -> Result<Option<Relation>, MediatorError> {
        if let Some(origin) = ctx.failed_over_from {
            events.push(FaultEvent {
                source: origin.to_string(),
                ..ctx.event(0, FaultKind::Outage, FaultOutcome::FailedOver)
            });
        }
        let max = self.retry.max_attempts.max(1);
        for attempt in 0..max {
            // No attempt starts once the deadline budget is spent: the
            // request surfaces a structured error instead of burning more
            // retries it can never finish.
            if let Some(d) = self.deadline.filter(|d| d.expired()) {
                return Err(d.exceeded_at(ctx.label));
            }
            let Some(plan) = self.plan else {
                return run();
            };
            let (mut event, error) = match self.attempt(plan, ctx, attempt, events, &mut run)? {
                Attempt::Shipped(out) => return Ok(out),
                Attempt::Failed(event, error) => (event, error),
            };
            if attempt + 1 == max {
                events.push(event);
                return Err(error);
            }
            event.backoff_secs = self.retry.backoff_secs(plan.seed(), ctx.task_id, attempt);
            self.nap(event.backoff_secs);
            event.outcome = match event.kind {
                FaultKind::Latency => FaultOutcome::TimedOut,
                _ => FaultOutcome::Retried,
            };
            events.push(event);
        }
        unreachable!("max_attempts >= 1 always returns or surfaces")
    }

    /// One attempt under `plan`: the fail-stop faults first (the original
    /// decision stream, so fail-stop chaos runs replay byte-identically),
    /// then the vanished-table model — the source answers, but this
    /// attempt's primary table is gone — and, once the query ran, the
    /// wrong-answer layer and the task-boundary guard.
    fn attempt(
        &self,
        plan: &FaultPlan,
        ctx: &TaskFaultCtx<'_>,
        attempt: usize,
        events: &mut Vec<FaultEvent>,
        run: &mut impl FnMut() -> Result<Option<Relation>, MediatorError>,
    ) -> Result<Attempt, MediatorError> {
        let (source, task, table) = (ctx.source, ctx.task_id, ctx.table.unwrap_or(""));
        let failure = match plan.decide(source, task, attempt) {
            None => None,
            Some(InjectedFault::Transient) => Some((FaultKind::Transient, 0.0)),
            Some(InjectedFault::Latency(spike)) => {
                let spike_secs = spike.as_secs_f64();
                if spike_secs < self.retry.timeout_secs {
                    // The spike delays the attempt but does not fail it.
                    self.nap(spike_secs);
                    events.push(FaultEvent {
                        stall_secs: spike_secs,
                        ..ctx.event(attempt, FaultKind::Latency, FaultOutcome::Absorbed)
                    });
                    None
                } else {
                    // The stall would exceed the timeout: sleep only the
                    // timeout, then fail the attempt.
                    let stall = if self.retry.timeout_secs.is_finite() {
                        self.retry.timeout_secs
                    } else {
                        spike_secs
                    };
                    self.nap(stall);
                    Some((FaultKind::Latency, stall))
                }
            }
        };
        let failure = failure.or_else(|| {
            (plan.decide_table_outage(source, table, task, attempt))
                .then_some((FaultKind::TableOutage, 0.0))
        });
        if let Some((kind, stall_secs)) = failure {
            let mut event = FaultEvent {
                stall_secs,
                ..ctx.event(attempt, kind, FaultOutcome::Surfaced)
            };
            let mut fault = kind.name().to_string();
            if kind == FaultKind::TableOutage {
                event.constraint = format!("table-available({table})");
                fault = format!("{fault}({table})");
            }
            let error = MediatorError::SourceFault {
                source: ctx.source_name.to_string(),
                task: ctx.label.to_string(),
                kind: fault,
                attempts: self.retry.max_attempts.max(1),
            };
            return Ok(Attempt::Failed(event, error));
        }
        // The attempt runs; genuine errors are never retried.
        let mut out = run()?;
        if let Some(rel) = out.as_mut() {
            // Stale replica: a failover target answers with a relation
            // lagging the primary by a seeded number of trailing rows.
            // Invisible at this boundary by design — the document-level
            // constraint check is the layer that can expose it.
            if ctx.failed_over_from.is_some() && !rel.is_empty() {
                let lag = plan.decide_stale(source, table, task, attempt);
                let keep = rel.len().saturating_sub(lag.unwrap_or(0));
                if keep < rel.len() {
                    rel.truncate(keep);
                    let stale =
                        ctx.event(attempt, FaultKind::StaleReplica, FaultOutcome::Undetected);
                    events.push(stale);
                }
            }
            // Seeded wrong-answer corruption of the shipped relation, at a
            // site drawn from a stream of its own.
            let kind = plan.decide_corruption(source, table, task, attempt);
            let site = plan.stream(0xC0BB_ED06, 1.0, source, Some(table), task, attempt);
            let mut corrupted = None;
            if let (Some(profile), Some(kind), Some(mut site)) = (ctx.profile, kind, site) {
                corrupted = integrity::corrupt_relation(rel, kind, &mut site, profile)
                    .map(FaultKind::CorruptRow);
            }
            // The task-boundary guard: key uniqueness, type/NULL and arity
            // conformance against the catalog schema.
            let finding = match ctx.profile {
                Some(profile) if ctx.check_integrity => integrity::check_relation(rel, profile),
                _ => None,
            };
            if let Some(finding) = finding {
                let error = MediatorError::IntegrityViolation {
                    task: ctx.label.to_string(),
                    source: ctx.source_name.to_string(),
                    table: table.to_string(),
                    constraint: finding.constraint.clone(),
                    value: finding.value,
                };
                // Genuine bad data (nothing injected this attempt): surface
                // immediately, a retry would re-fetch the same rows.
                let Some(kind) = corrupted else {
                    return Err(error);
                };
                let event = FaultEvent {
                    constraint: finding.constraint,
                    ..ctx.event(attempt, kind, FaultOutcome::Surfaced)
                };
                return Ok(Attempt::Failed(event, error));
            }
            if let Some(kind) = corrupted {
                // Defense off (or no profile): the corruption flows on.
                events.push(ctx.event(attempt, kind, FaultOutcome::Undetected));
            }
        }
        Ok(Attempt::Shipped(out))
    }
}

pub(crate) fn sleep_secs(secs: f64) {
    if secs > 0.0 {
        std::thread::sleep(Duration::from_secs_f64(secs));
    }
}

/// SplitMix64-style finalizer folding a word list into one seed; the
/// per-decision RNG streams are derived through this so that every
/// `(seed, site, source, task, attempt)` tuple gets an independent draw.
pub(crate) fn mix(parts: &[u64]) -> u64 {
    let mut acc = 0x9E37_79B9_7F4A_7C15u64;
    for &p in parts {
        let mut z = acc ^ p.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        acc = z ^ (z >> 31);
    }
    acc
}

/// FNV-1a hash of a table name, folding the string coordinate of the
/// wrong-answer fault streams into the `mix` word list.
fn fnv64(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_source(aig_relstore::Database::new("DB1")).unwrap();
        c.add_source(aig_relstore::Database::new("DB2")).unwrap();
        c
    }

    #[test]
    fn decisions_are_deterministic_and_order_independent() {
        let cfg = FaultConfig {
            seed: 7,
            transient_rate: 0.3,
            latency_rate: 0.3,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::new(&cfg, &catalog()).unwrap();
        let forward: Vec<_> = (0..50).map(|t| plan.decide(SourceId(1), t, 0)).collect();
        let backward: Vec<_> = (0..50)
            .rev()
            .map(|t| plan.decide(SourceId(1), t, 0))
            .collect();
        let reversed: Vec<_> = backward.into_iter().rev().collect();
        assert_eq!(forward, reversed);
        assert!(forward.iter().any(|f| f.is_some()));
        assert!(forward.iter().any(|f| f.is_none()));
    }

    #[test]
    fn mediator_is_never_faulted() {
        let cfg = FaultConfig {
            seed: 1,
            transient_rate: 1.0,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::new(&cfg, &catalog()).unwrap();
        for t in 0..100 {
            assert_eq!(plan.decide(SourceId::MEDIATOR, t, 0), None);
        }
    }

    #[test]
    fn rates_are_roughly_honored() {
        let cfg = FaultConfig {
            seed: 3,
            transient_rate: 0.2,
            latency_rate: 0.1,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::new(&cfg, &catalog()).unwrap();
        let mut transients = 0;
        let mut spikes = 0;
        let n = 20_000;
        for t in 0..n {
            match plan.decide(SourceId(2), t, 0) {
                Some(InjectedFault::Transient) => transients += 1,
                Some(InjectedFault::Latency(_)) => spikes += 1,
                None => {}
            }
        }
        let tf = transients as f64 / n as f64;
        let sf = spikes as f64 / n as f64;
        assert!((0.17..0.23).contains(&tf), "transient rate {tf}");
        assert!((0.08..0.12).contains(&sf), "spike rate {sf}");
    }

    #[test]
    fn named_outages_resolve() {
        let cfg = FaultConfig {
            seed: 5,
            outages: vec!["DB2".to_string()],
            ..FaultConfig::default()
        };
        let cat = catalog();
        let plan = FaultPlan::new(&cfg, &cat).unwrap();
        assert!(plan.source_down(cat.source_id("DB2").unwrap()));
        assert!(!plan.source_down(cat.source_id("DB1").unwrap()));
        assert!(!plan.source_down(SourceId::MEDIATOR));

        let unknown = FaultConfig {
            outages: vec!["DB9".to_string()],
            ..FaultConfig::default()
        };
        assert!(FaultPlan::new(&unknown, &cat).is_err());
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let policy = RetryPolicy {
            max_attempts: 8,
            backoff_base_secs: 0.001,
            backoff_cap_secs: 0.016,
            jitter: 0.0,
            timeout_secs: f64::INFINITY,
        };
        let b: Vec<f64> = (0..8).map(|a| policy.backoff_secs(1, 0, a)).collect();
        assert_eq!(b[0], 0.001);
        assert_eq!(b[1], 0.002);
        assert_eq!(b[4], 0.016);
        assert_eq!(b[7], 0.016, "capped");
        // Jitter stays within the band and is deterministic per seed.
        let jittered = RetryPolicy {
            jitter: 0.5,
            ..policy
        };
        for a in 0..8 {
            let x = jittered.backoff_secs(9, 3, a);
            let y = jittered.backoff_secs(9, 3, a);
            assert_eq!(x, y);
            let nominal = (0.001 * (1u64 << a) as f64).min(0.016);
            assert!(x >= nominal * 0.5 && x <= nominal * 1.5, "{x} vs {nominal}");
        }
    }

    #[test]
    fn run_task_retries_then_succeeds_and_accounts() {
        let cfg = FaultConfig {
            seed: 11,
            transient_rate: 1.0,
            ..FaultConfig::default()
        };
        let cat = catalog();
        let plan = FaultPlan::new(&cfg, &cat).unwrap();
        let retry = RetryPolicy {
            max_attempts: 3,
            backoff_base_secs: 0.0,
            backoff_cap_secs: 0.0,
            jitter: 0.0,
            timeout_secs: f64::INFINITY,
        };
        let env = FaultEnv {
            plan: Some(&plan),
            retry: &retry,
            deadline: None,
        };
        let ctx = TaskFaultCtx {
            task_id: 0,
            label: "q",
            source: SourceId(1),
            source_name: "DB1",
            table: None,
            failed_over_from: None,
            profile: None,
            check_integrity: false,
        };
        let mut events = Vec::new();
        let mut calls = 0;
        let err = env
            .run_task(&ctx, &mut events, || {
                calls += 1;
                Ok(Some(Relation::empty(vec!["a".into()])))
            })
            .unwrap_err();
        assert_eq!(calls, 0, "every attempt faulted before the query ran");
        assert!(events.iter().all(|e| !e.kind.is_wrong_answer()));
        assert!(
            matches!(err, MediatorError::SourceFault { attempts: 3, .. }),
            "{err}"
        );
        assert_eq!(events.len(), 3);
        assert_eq!(
            events
                .iter()
                .filter(|e| e.outcome == FaultOutcome::Retried)
                .count(),
            2
        );
        assert_eq!(
            events
                .iter()
                .filter(|e| e.outcome == FaultOutcome::Surfaced)
                .count(),
            1
        );
    }

    #[test]
    fn wrong_answer_deciders_are_pure_and_rate_honoring() {
        let cfg = FaultConfig {
            seed: 21,
            corrupt_rate: 0.25,
            table_outage_rate: 0.1,
            stale_replica_rate: 0.5,
            stale_replica_rows: 3,
            ..FaultConfig::default()
        };
        let cat = catalog();
        let plan = FaultPlan::new(&cfg, &cat).unwrap();
        assert!(plan.has_wrong_answer_faults());
        let mut corrupted = 0;
        let mut gone = 0;
        let mut stale = 0;
        let n = 8_000;
        for t in 0..n {
            let c = plan.decide_corruption(SourceId(1), "patient", t, 0);
            assert_eq!(c, plan.decide_corruption(SourceId(1), "patient", t, 0));
            corrupted += c.is_some() as usize;
            let g = plan.decide_table_outage(SourceId(1), "patient", t, 0);
            assert_eq!(g, plan.decide_table_outage(SourceId(1), "patient", t, 0));
            gone += g as usize;
            let s = plan.decide_stale(SourceId(1), "patient", t, 0);
            assert_eq!(s, plan.decide_stale(SourceId(1), "patient", t, 0));
            if let Some(lag) = s {
                assert!((1..=3).contains(&lag));
                stale += 1;
            }
        }
        let cf = corrupted as f64 / n as f64;
        let gf = gone as f64 / n as f64;
        let sf = stale as f64 / n as f64;
        assert!((0.22..0.28).contains(&cf), "corrupt rate {cf}");
        assert!((0.08..0.12).contains(&gf), "table outage rate {gf}");
        assert!((0.46..0.54).contains(&sf), "stale rate {sf}");
        // Distinct tables draw from independent streams.
        let a: Vec<_> = (0..64)
            .map(|t| plan.decide_corruption(SourceId(1), "patient", t, 0))
            .collect();
        let b: Vec<_> = (0..64)
            .map(|t| plan.decide_corruption(SourceId(1), "treatment", t, 0))
            .collect();
        assert_ne!(a, b);
        // The mediator is never a corruption site.
        for t in 0..200 {
            assert_eq!(plan.decide_corruption(SourceId::MEDIATOR, "x", t, 0), None);
            assert!(!plan.decide_table_outage(SourceId::MEDIATOR, "x", t, 0));
        }
        // Wrong-answer faults leave the fail-stop stream untouched.
        let clean = FaultPlan::new(
            &FaultConfig {
                seed: 21,
                ..FaultConfig::default()
            },
            &cat,
        )
        .unwrap();
        for t in 0..200 {
            assert_eq!(
                plan.decide(SourceId(1), t, 0),
                clean.decide(SourceId(1), t, 0)
            );
        }
    }

    #[test]
    fn run_task_masks_detected_corruption_by_retry() {
        use aig_relstore::{Value, ValueType};
        let cfg = FaultConfig {
            seed: 2,
            corrupt_rate: 1.0,
            ..FaultConfig::default()
        };
        let cat = catalog();
        let plan = FaultPlan::new(&cfg, &cat).unwrap();
        let retry = RetryPolicy {
            max_attempts: 3,
            backoff_base_secs: 0.0,
            backoff_cap_secs: 0.0,
            jitter: 0.0,
            timeout_secs: f64::INFINITY,
        };
        let env = FaultEnv {
            plan: Some(&plan),
            retry: &retry,
            deadline: None,
        };
        let profile = RelProfile {
            table: "patient".to_string(),
            col_types: [
                ("__parent".to_string(), ValueType::Int),
                ("__ord".to_string(), ValueType::Int),
                ("ssn".to_string(), ValueType::Str),
            ]
            .into_iter()
            .collect(),
            key_cols: vec!["ssn".to_string()],
        };
        let ctx = TaskFaultCtx {
            task_id: 0,
            label: "q",
            source: SourceId(1),
            source_name: "DB1",
            table: Some("patient"),
            failed_over_from: None,
            profile: Some(&profile),
            check_integrity: true,
        };
        let fresh = || {
            Ok(Some(
                Relation::new(
                    vec!["__parent".into(), "__ord".into(), "ssn".into()],
                    vec![
                        vec![Value::int(0), Value::int(0), Value::str("a")],
                        vec![Value::int(0), Value::int(1), Value::str("b")],
                        vec![Value::int(0), Value::int(2), Value::str("c")],
                    ],
                )
                .unwrap(),
            ))
        };
        let mut events = Vec::new();
        let result = env.run_task(&ctx, &mut events, fresh);
        // corrupt_rate = 1.0 with max_attempts = 3: every attempt corrupts,
        // every attempt is detected, the final one surfaces.
        let err = result.unwrap_err();
        assert!(
            matches!(err, MediatorError::IntegrityViolation { .. }),
            "{err}"
        );
        assert_eq!(events.len(), 3);
        assert_eq!(
            events
                .iter()
                .filter(|e| e.outcome == FaultOutcome::Retried)
                .count(),
            2
        );
        assert_eq!(
            events
                .iter()
                .filter(|e| e.outcome == FaultOutcome::Surfaced)
                .count(),
            1
        );
        for e in &events {
            assert!(matches!(e.kind, FaultKind::CorruptRow(_)));
            assert!(!e.constraint.is_empty());
        }

        // With the guard off the same corruption flows through undetected.
        let ctx_off = TaskFaultCtx {
            check_integrity: false,
            ..ctx
        };
        let mut events = Vec::new();
        let out = env.run_task(&ctx_off, &mut events, fresh).unwrap().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].outcome, FaultOutcome::Undetected);
        let clean = fresh().unwrap().unwrap();
        assert_ne!(out, clean, "corruption must actually change the relation");
    }

    #[test]
    fn run_task_truncates_stale_replica_after_failover() {
        use aig_relstore::Value;
        let cfg = FaultConfig {
            seed: 4,
            stale_replica_rate: 1.0,
            stale_replica_rows: 2,
            ..FaultConfig::default()
        };
        let cat = catalog();
        let plan = FaultPlan::new(&cfg, &cat).unwrap();
        let retry = RetryPolicy {
            max_attempts: 1,
            backoff_base_secs: 0.0,
            backoff_cap_secs: 0.0,
            jitter: 0.0,
            timeout_secs: f64::INFINITY,
        };
        let env = FaultEnv {
            plan: Some(&plan),
            retry: &retry,
            deadline: None,
        };
        let fresh = || Ok(Some(Relation::single_column("id", (0..5).map(Value::int))));
        // No failover: staleness never fires.
        let ctx = TaskFaultCtx {
            task_id: 0,
            label: "q",
            source: SourceId(1),
            source_name: "DB1",
            table: Some("patient"),
            failed_over_from: None,
            profile: None,
            check_integrity: false,
        };
        let mut events = Vec::new();
        let out = env.run_task(&ctx, &mut events, fresh).unwrap().unwrap();
        assert_eq!(out.len(), 5);
        assert!(events.is_empty());
        // After failover the replica lags by a seeded suffix.
        let ctx_failed_over = TaskFaultCtx {
            failed_over_from: Some("DB2"),
            ..ctx
        };
        let mut events = Vec::new();
        let out = env
            .run_task(&ctx_failed_over, &mut events, fresh)
            .unwrap()
            .unwrap();
        assert!(out.len() < 5, "stale replica must drop trailing rows");
        assert_eq!(out.cell(0, 0), &Value::int(0), "prefix preserved");
        let stale: Vec<_> = events.iter().filter(|e| e.kind.is_wrong_answer()).collect();
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].kind.name(), "stale-replica");
        assert_eq!(stale[0].outcome, FaultOutcome::Undetected);
    }

    #[test]
    fn no_backoff_sleep_after_final_failed_attempt() {
        // Every attempt faults; the backoff schedule is deliberately huge so
        // that any sleep *after* the last attempt would blow the elapsed-time
        // bound. With max_attempts = 1 there is exactly one (final) attempt,
        // so no backoff may be slept at all.
        let cfg = FaultConfig {
            seed: 11,
            transient_rate: 1.0,
            ..FaultConfig::default()
        };
        let cat = catalog();
        let plan = FaultPlan::new(&cfg, &cat).unwrap();
        let retry = RetryPolicy {
            max_attempts: 1,
            backoff_base_secs: 30.0,
            backoff_cap_secs: 30.0,
            jitter: 0.0,
            timeout_secs: f64::INFINITY,
        };
        let env = FaultEnv {
            plan: Some(&plan),
            retry: &retry,
            deadline: None,
        };
        let ctx = TaskFaultCtx {
            task_id: 0,
            label: "q",
            source: SourceId(1),
            source_name: "DB1",
            table: None,
            failed_over_from: None,
            profile: None,
            check_integrity: false,
        };
        let mut events = Vec::new();
        let start = Instant::now();
        let err = env
            .run_task(&ctx, &mut events, || {
                Ok(Some(Relation::empty(vec!["a".into()])))
            })
            .unwrap_err();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "the final failed attempt must not sleep its 30s backoff"
        );
        assert!(matches!(err, MediatorError::SourceFault { .. }), "{err}");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].outcome, FaultOutcome::Surfaced);
        assert_eq!(
            events[0].backoff_secs, 0.0,
            "surfaced events carry no backoff"
        );

        // With retries the non-final attempts do record backoff, but the
        // surfaced final attempt still records (and sleeps) none.
        let retry = RetryPolicy {
            max_attempts: 3,
            backoff_base_secs: 0.0005,
            backoff_cap_secs: 0.01,
            jitter: 0.0,
            timeout_secs: f64::INFINITY,
        };
        let env = FaultEnv {
            plan: Some(&plan),
            retry: &retry,
            deadline: None,
        };
        let mut events = Vec::new();
        env.run_task(&ctx, &mut events, || {
            Ok(Some(Relation::empty(vec!["a".into()])))
        })
        .unwrap_err();
        assert_eq!(events.len(), 3);
        for e in &events[..2] {
            assert_eq!(e.outcome, FaultOutcome::Retried);
            assert!(e.backoff_secs > 0.0, "retried attempts back off");
        }
        assert_eq!(events[2].outcome, FaultOutcome::Surfaced);
        assert_eq!(events[2].backoff_secs, 0.0);
    }

    #[test]
    fn spike_equal_to_timeout_counts_as_exactly_one_timeout() {
        // Find a task whose attempt 0 draws a latency spike, then set the
        // per-attempt timeout to exactly that spike. The boundary is strict:
        // only `spike < timeout` absorbs, so equality must fail the attempt
        // as one timeout after sleeping only the timeout.
        let cfg = FaultConfig {
            seed: 13,
            latency_rate: 1.0,
            latency_secs: 0.002,
            ..FaultConfig::default()
        };
        let cat = catalog();
        let plan = FaultPlan::new(&cfg, &cat).unwrap();
        let spike = (0..100)
            .find_map(|t| match plan.decide(SourceId(1), t, 0) {
                Some(InjectedFault::Latency(d)) => Some((t, d.as_secs_f64())),
                _ => None,
            })
            .expect("latency_rate 1.0 draws a spike");
        let (task_id, spike_secs) = spike;
        let ctx = TaskFaultCtx {
            task_id,
            label: "q",
            source: SourceId(1),
            source_name: "DB1",
            table: None,
            failed_over_from: None,
            profile: None,
            check_integrity: false,
        };
        let run = || Ok(Some(Relation::empty(vec!["a".into()])));

        // timeout == spike: the attempt times out, exactly one event, stall
        // capped at the timeout (not the spike re-slept or double-counted).
        let retry = RetryPolicy {
            max_attempts: 1,
            backoff_base_secs: 0.0,
            backoff_cap_secs: 0.0,
            jitter: 0.0,
            timeout_secs: spike_secs,
        };
        let env = FaultEnv {
            plan: Some(&plan),
            retry: &retry,
            deadline: None,
        };
        let mut events = Vec::new();
        let err = env.run_task(&ctx, &mut events, run).unwrap_err();
        assert!(
            matches!(
                &err,
                MediatorError::SourceFault { kind, attempts: 1, .. } if kind == "latency"
            ),
            "{err}"
        );
        assert_eq!(events.len(), 1, "exactly one timeout event");
        assert_eq!(events[0].kind, FaultKind::Latency);
        assert_eq!(events[0].outcome, FaultOutcome::Surfaced);
        assert_eq!(events[0].stall_secs, spike_secs, "stall capped at timeout");

        // Any strictly larger timeout absorbs the same spike instead.
        let absorbing = RetryPolicy {
            timeout_secs: spike_secs + 1e-9,
            ..retry
        };
        let env = FaultEnv {
            plan: Some(&plan),
            retry: &absorbing,
            deadline: None,
        };
        let mut events = Vec::new();
        env.run_task(&ctx, &mut events, run).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].outcome, FaultOutcome::Absorbed);
        assert_eq!(
            events[0].stall_secs, spike_secs,
            "absorbed stall is the spike"
        );
    }

    #[test]
    fn jitter_band_is_honored_and_deterministic_per_seed() {
        let policy = RetryPolicy {
            max_attempts: 8,
            backoff_base_secs: 0.004,
            backoff_cap_secs: 0.064,
            jitter: 0.25,
            timeout_secs: f64::INFINITY,
        };
        for a in 0..8 {
            let nominal = (0.004 * (1u64 << a) as f64).min(0.064);
            let x = policy.backoff_secs(17, 2, a);
            assert!(
                x >= nominal * 0.75 && x <= nominal * 1.25,
                "{x} outside [0.75, 1.25] x {nominal}"
            );
            assert_eq!(x, policy.backoff_secs(17, 2, a), "same seed, same sleep");
        }
        // Different seeds draw different schedules (the jitter is seeded,
        // not a fixed multiplier).
        let a: Vec<f64> = (0..8).map(|i| policy.backoff_secs(17, 2, i)).collect();
        let b: Vec<f64> = (0..8).map(|i| policy.backoff_secs(18, 2, i)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn jitter_outside_unit_interval_is_clamped() {
        let base = RetryPolicy {
            max_attempts: 4,
            backoff_base_secs: 0.002,
            backoff_cap_secs: 0.016,
            jitter: 0.0,
            timeout_secs: f64::INFINITY,
        };
        let with = |jitter| RetryPolicy {
            jitter,
            ..base.clone()
        };
        for a in 0..4 {
            // Above 1 behaves exactly as 1 (a wider band would permit
            // negative sleeps).
            assert_eq!(
                with(1.5).backoff_secs(3, 1, a),
                with(1.0).backoff_secs(3, 1, a)
            );
            // Below 0 behaves exactly as 0 (no jitter).
            assert_eq!(
                with(-0.3).backoff_secs(3, 1, a),
                with(0.0).backoff_secs(3, 1, a)
            );
            // NaN disables jitter rather than poisoning the range.
            assert_eq!(
                with(f64::NAN).backoff_secs(3, 1, a),
                with(0.0).backoff_secs(3, 1, a)
            );
            // Full jitter still never goes negative.
            let x = with(1.0).backoff_secs(3, 1, a);
            let nominal = (0.002 * (1u64 << a) as f64).min(0.016);
            assert!((0.0..=2.0 * nominal).contains(&x), "{x} vs {nominal}");
        }
    }

    #[test]
    fn deadline_gates_attempts_and_clamps_sleeps() {
        // An expired deadline surfaces before any attempt runs.
        let cfg = FaultConfig {
            seed: 11,
            transient_rate: 1.0,
            ..FaultConfig::default()
        };
        let cat = catalog();
        let plan = FaultPlan::new(&cfg, &cat).unwrap();
        let deadline = Deadline::starting_now(0.0);
        let retry = RetryPolicy {
            max_attempts: 3,
            backoff_base_secs: 30.0,
            backoff_cap_secs: 30.0,
            jitter: 0.0,
            timeout_secs: f64::INFINITY,
        };
        let env = FaultEnv {
            plan: Some(&plan),
            retry: &retry,
            deadline: Some(&deadline),
        };
        let ctx = TaskFaultCtx {
            task_id: 0,
            label: "q",
            source: SourceId(1),
            source_name: "DB1",
            table: None,
            failed_over_from: None,
            profile: None,
            check_integrity: false,
        };
        let mut events = Vec::new();
        let mut calls = 0;
        let err = env
            .run_task(&ctx, &mut events, || {
                calls += 1;
                Ok(Some(Relation::empty(vec!["a".into()])))
            })
            .unwrap_err();
        assert_eq!(calls, 0);
        assert!(events.is_empty(), "no attempt started, nothing injected");
        assert!(
            matches!(err, MediatorError::DeadlineExceeded { .. }),
            "{err}"
        );

        // A near-exhausted deadline clamps the 30s backoff: the first
        // faulted attempt retries, the sleep is cut to the remaining budget,
        // and the second attempt's gate surfaces the deadline — all fast.
        let deadline = Deadline::starting_now(0.05);
        let env = FaultEnv {
            plan: Some(&plan),
            retry: &retry,
            deadline: Some(&deadline),
        };
        let mut events = Vec::new();
        let start = Instant::now();
        let err = env
            .run_task(&ctx, &mut events, || {
                Ok(Some(Relation::empty(vec!["a".into()])))
            })
            .unwrap_err();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "backoff sleeps must clamp to the remaining budget"
        );
        assert!(
            matches!(err, MediatorError::DeadlineExceeded { .. }),
            "{err}"
        );
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].outcome, FaultOutcome::Retried);
        assert_eq!(
            events[0].backoff_secs, 30.0,
            "the event records the nominal (seeded) backoff, not the clamp"
        );
    }
}
