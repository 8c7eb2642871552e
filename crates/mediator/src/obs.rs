//! Observability for the mediator pipeline: phase timers, per-task and
//! per-source metrics, merge/schedule decision logs, and a JSON-serializable
//! [`RunReport`] putting the simulated response times (§5.2) side by side
//! with the actual in-process wall clock.
//!
//! The report is produced by [`crate::pipeline::run_with_report`] and
//! serialized with the dependency-free [`crate::json`] writer so that the
//! bench binaries can emit machine-readable `BENCH_*.json` files.
//!
//! The report's format lives in the struct declarations of this module:
//! every report struct is declared through `report_struct!`, which derives
//! its JSON object (keys in declaration order) and marks its wall-clock
//! fields for [`RunReport::redacted`]. Adding a metric is one declaration
//! here plus filling it in `build_report`.

use crate::cost::{completion_times, Plan, TaskCost};
use crate::exec::Measured;
use crate::faults::{FaultEvent, FaultKind, FaultLog, FaultOutcome};
use crate::graph::{TaskGraph, TaskKind};
use crate::json::Json;
use crate::merge::MergeOutcome;
use crate::sim::NetworkModel;
use aig_relstore::{Catalog, SourceId};
use std::collections::HashSet;
use std::time::Instant;

/// The callback of [`ReportValue::each_f64`]: the JSON key of the field
/// holding the number, whether the field is declared wall-clock, and the
/// number itself.
pub type F64Visitor<'a> = dyn FnMut(&'static str, bool, &mut f64) + 'a;

/// A value a [`RunReport`] carries: how it is encoded, and where the `f64`
/// measurements below it sit. Scalars and vectors encode by type; structs
/// declared through `report_struct!` derive both methods from their field
/// table. `f64` itself is deliberately not a `ReportValue`: a field holding
/// one must say in its declaration which kind of number it is.
#[diagnostic::on_unimplemented(
    note = "an `f64` report field must be declared `= wall` (wall-clock) or `= det` (deterministic)"
)]
pub trait ReportValue {
    fn to_json(&self) -> Json;

    /// Calls `f` on every `f64` field below `self`.
    fn each_f64(&mut self, _f: &mut F64Visitor<'_>) {}
}

impl<T: ReportValue> ReportValue for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }

    fn each_f64(&mut self, f: &mut F64Visitor<'_>) {
        self.iter_mut().for_each(|item| item.each_f64(f));
    }
}

/// `ReportValue` for the values without an `f64` below them: flags, text,
/// counters (a JSON number) and the fault layer's enums (their `name()`).
macro_rules! scalar_report_values {
    ($($ty:ty => |$v:ident| $json:expr),* $(,)?) => {$(
        impl ReportValue for $ty {
            fn to_json(&self) -> Json {
                let $v = self;
                $json
            }
        }
    )*};
}

scalar_report_values! {
    bool => |b| Json::Bool(*b),
    String => |s| Json::str(s.as_str()),
    u32 => |n| Json::num(*n as f64),
    u64 => |n| Json::num(*n as f64),
    usize => |n| Json::num(*n as f64),
    &'static str => |s| Json::str(*s),
    FaultKind => |k| Json::str(k.name()),
    FaultOutcome => |o| Json::str(o.name()),
}

/// Declares a report struct **once**: the `pub struct` itself (every field
/// `pub`, attributes and docs passed through) and its [`ReportValue`] —
/// a JSON object with one key per field, in declaration order, and the
/// `f64` walk behind [`RunReport::redacted`]. After a field's type,
///
/// * `= wall` or `= det` is required on every `f64`: a wall-clock
///   measurement (zeroed by redaction) or a deterministic number (a count,
///   a size, a simulated cost; survives) — leaving it out does not compile;
/// * `= decimal` emits a `u64` as a decimal string — a seed above 2^53
///   would silently lose precision as a JSON number;
/// * `= integrity` emits a [`FaultOutcome`] in the integrity section's
///   words ([`FaultOutcome::integrity_name`]);
/// * `= skip` keeps the field out of the JSON: the object is one view of a
///   record that carries more than its section prints;
/// * a trailing string literal renames the JSON key (default: the field
///   name); a dotted key `"sim.merges"` nests `merges` in an object under
///   `sim`, shared with the adjacent fields of the same prefix.
macro_rules! report_struct {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                pub $field:ident: $ty:ty $(= $($how:ident)? $($key:literal)?)?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)*
        }

        impl $crate::obs::ReportValue for $name {
            fn to_json(&self) -> $crate::json::Json {
                let mut entries = Vec::with_capacity([$(stringify!($field)),*].len());
                $($crate::obs::report_struct!(
                    @entry [$($($how)?)?] entries,
                    $crate::obs::report_struct!(@key $field $($($key)?)?),
                    self.$field
                );)*
                $crate::obs::object(entries)
            }

            fn each_f64(&mut self, f: &mut $crate::obs::F64Visitor<'_>) {
                $($crate::obs::report_struct!(
                    @visit [$($($how)?)?] f,
                    $crate::obs::report_struct!(@key $field $($($key)?)?),
                    self.$field
                );)*
            }
        }
    };
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
    (@entry [skip] $entries:ident, $key:expr, $value:expr) => {};
    (@entry [$($how:ident)?] $entries:ident, $key:expr, $value:expr) => {
        $entries.push(($key, $crate::obs::report_struct!(@json [$($how)?] $value)))
    };
    (@json [decimal] $value:expr) => { $crate::json::Json::str($value.to_string()) };
    (@json [integrity] $value:expr) => { $crate::json::Json::str($value.integrity_name()) };
    (@json [] $value:expr) => { $crate::obs::ReportValue::to_json(&$value) };
    (@json [wall] $value:expr) => { $crate::json::Json::num($value) };
    (@json [det] $value:expr) => { $crate::json::Json::num($value) };
    (@visit [wall] $f:ident, $key:expr, $value:expr) => { $f($key, true, &mut $value) };
    (@visit [det] $f:ident, $key:expr, $value:expr) => { $f($key, false, &mut $value) };
    (@visit [$($other:ident)?] $f:ident, $key:expr, $value:expr) => {
        $crate::obs::ReportValue::each_f64(&mut $value, $f)
    };
}
pub(crate) use report_struct;

/// The JSON object of a field table (see `report_struct!` for dotted keys).
pub(crate) fn object(entries: Vec<(&'static str, Json)>) -> Json {
    let mut fields: Vec<(String, Json)> = Vec::with_capacity(entries.len());
    for (key, value) in entries {
        match (key.split_once('.'), fields.last_mut()) {
            (None, _) => fields.push((key.to_string(), value)),
            (Some((group, inner)), Some((last, Json::Obj(nested)))) if last == group => {
                nested.push((inner.to_string(), value));
            }
            (Some((group, inner)), _) => {
                let nested = vec![(inner.to_string(), value)];
                fields.push((group.to_string(), Json::Obj(nested)));
            }
        }
    }
    Json::Obj(fields)
}

report_struct! {
    /// Accumulated wall-clock time of one pipeline phase. Phases entered more
    /// than once (the frontier-driven re-unfold loop, §5.5) accumulate their
    /// seconds and call counts; `first_start_secs` is the offset of the first
    /// entry from the start of the run, so samples sort chronologically.
    #[derive(Debug, Clone)]
    pub struct PhaseSample {
        pub name: String,
        pub calls: usize,
        pub first_start_secs: f64 = wall "start_secs",
        pub secs: f64 = wall,
    }
}

/// A phase stopwatch anchored at the start of the run.
#[derive(Debug)]
pub struct Phases {
    epoch: Instant,
    samples: Vec<PhaseSample>,
}

impl Default for Phases {
    fn default() -> Self {
        Phases::new()
    }
}

impl Phases {
    pub fn new() -> Phases {
        Phases {
            epoch: Instant::now(),
            samples: Vec::new(),
        }
    }

    /// Runs `f`, charging its wall-clock time to `name`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let offset = (start - self.epoch).as_secs_f64();
        let result = f();
        self.record(name, offset, start.elapsed().as_secs_f64());
        result
    }

    /// Accumulates `secs` under `name`.
    pub fn record(&mut self, name: &str, start_secs: f64, secs: f64) {
        if let Some(sample) = self.samples.iter_mut().find(|s| s.name == name) {
            sample.calls += 1;
            sample.secs += secs;
        } else {
            self.samples.push(PhaseSample {
                name: name.to_string(),
                calls: 1,
                secs,
                first_start_secs: start_secs,
            });
        }
    }

    /// Seconds since the stopwatch was created.
    pub fn elapsed_secs(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// The samples recorded so far, in chronological first-entry order.
    pub fn samples(&self) -> &[PhaseSample] {
        &self.samples
    }

    pub fn into_samples(self) -> Vec<PhaseSample> {
        self.samples
    }
}

report_struct! {
    /// Per-task record: the graph metadata plus measured execution and the
    /// calibrated cost the simulation used for the same task.
    #[derive(Debug, Clone)]
    pub struct TaskObs {
        pub id: usize,
        pub label: String,
        /// Short task-kind tag (`gen`, `assemble`, `guard`, …).
        pub kind: String,
        pub source: String,
        pub source_id: u32,
        /// Rows read from distinct input relations.
        pub in_rows: f64 = det,
        pub out_rows: f64 = det,
        pub out_bytes: f64 = det,
        /// Dictionary-encoded wire size of the full (unpruned) output — what
        /// shipping the whole relation would cost. Can exceed `out_bytes` on
        /// small all-distinct relations, where the dictionary is the data plus
        /// per-row codes.
        pub wire_bytes: f64 = det,
        /// Bytes of the output's ship image after ship-cut column pruning
        /// (equal to `wire_bytes` when ship-cut is off or nothing was prunable;
        /// never larger — pruning is monotone under the wire encoding).
        pub ship_bytes: f64 = det,
        /// Bytes this task's output ships over the simulated network (its ship
        /// image, counted once per consumer at a different source).
        pub shipped_bytes: f64 = det,
        /// Batches the task's output crossed the ship seam in: 1 per shipped
        /// output on a materializing run, `ceil(image_rows / batch_rows)` under
        /// chunked shipment, 0 for guards and empty outputs.
        pub batches: u64,
        /// Actual in-process execution seconds.
        pub secs: f64 = wall,
        /// Queue/wait seconds before the task could start (parallel executor).
        pub wait_secs: f64 = wall,
        /// Start offset from the beginning of the execution phase.
        pub start_secs: f64 = wall,
        /// Calibrated evaluation cost used by the response-time simulation.
        pub sim_eval_secs: f64 = det,
    }
}

report_struct! {
    /// Per-source aggregates: actual busy time next to the simulated plan's
    /// busy/idle split for the same source.
    #[derive(Debug, Clone)]
    pub struct SourceObs {
        pub name: String,
        pub id: u32,
        /// Tasks of the (uncontracted) task graph at this source.
        pub tasks: usize,
        /// Actual seconds the source's tasks ran in-process.
        pub busy_secs: f64 = wall,
        /// Simulated busy seconds under the final plan.
        pub sim_busy_secs: f64 = det,
        /// Simulated idle seconds: makespan minus busy.
        pub sim_idle_secs: f64 = det,
    }
}

report_struct! {
    /// One accepted merge, with sources resolved to names.
    #[derive(Debug, Clone)]
    pub struct MergeDecisionObs {
        pub source: String,
        /// Original task ids of the kept node.
        pub kept: Vec<usize>,
        /// Original task ids of the absorbed node.
        pub absorbed: Vec<usize>,
        pub cost_before_secs: f64 = det,
        pub cost_after_secs: f64 = det,
    }
}

report_struct! {
    /// One node of the final per-source plan ordering.
    #[derive(Debug, Clone)]
    pub struct PlanStepObs {
        /// Node id in the merged cost graph.
        pub node: usize,
        pub eval_secs: f64 = det,
        /// Simulated completion time of the node.
        pub completion_secs: f64 = det,
        /// Original task ids contracted/merged into the node.
        pub tasks: Vec<usize>,
    }
}

report_struct! {
    /// The ordered plan of one source.
    #[derive(Debug, Clone)]
    pub struct PlanSeqObs {
        pub source: String,
        pub steps: Vec<PlanStepObs>,
    }
}

/// Version of the [`RunReport`] JSON schema. Bumped whenever a key is
/// added, removed, renamed or changes meaning, so downstream consumers of
/// the `BENCH_*.json` / report files can dispatch on it.
pub const SCHEMA_VERSION: u32 = 10;

/// Which stage of the prepared-plan split a phase belongs to: everything
/// argument-independent (compilation through ship-cut analysis, plus
/// cache lookups and pre-pipeline parsing) is **prepare**; everything that
/// touches bound arguments (execution through the measured-cost simulation)
/// is **execute**.
pub fn phase_stage(name: &str) -> &'static str {
    match name {
        "parse"
        | "compile_constraints"
        | "decompose"
        | "unfold"
        | "graph_build"
        | "shipcut"
        | "plan_cache" => "prepare",
        _ => "execute",
    }
}

report_struct! {
    /// The plan-cache section of the report: what the request saw on lookup and
    /// the service-wide counters at report time. `Default` (all zero/false)
    /// describes a run that never consulted a cache — the one-shot pipeline.
    #[derive(Debug, Clone, Default)]
    pub struct CacheObs {
        /// Whether a plan cache was consulted at all.
        pub enabled: bool,
        /// Whether the request's first plan lookup hit.
        pub hit: bool,
        /// Whether this request promoted the plan to a deeper unfolding depth
        /// (frontier-driven re-unfolding, §5.5).
        pub promoted: bool,
        /// Service-wide counters at report time.
        pub hits: u64,
        pub misses: u64,
        pub promotions: u64,
        pub evictions: u64,
        /// Plans resident / capacity of the cache.
        pub entries: usize,
        pub capacity: usize,
    }
}

report_struct! {
    /// The resilience section: what the fault model injected and what the
    /// recovery machinery did about it. The counts satisfy
    /// `injected = retried + timed_out + failed_over + surfaced` (absorbed
    /// sub-timeout latency spikes are tracked separately).
    #[derive(Debug, Clone, Default)]
    pub struct ResilienceObs {
        /// Whether fault injection was configured for the run.
        pub enabled: bool,
        /// Seed of the fault stream (0 when disabled).
        pub seed: u64 = decimal,
        /// Injected faults excluding absorbed spikes.
        pub injected: usize,
        pub retried: usize,
        pub timed_out: usize,
        pub failed_over: usize,
        pub surfaced: usize,
        pub absorbed_spikes: usize,
        /// Dead sources failed over (after each, the parallel driver re-runs
        /// `Schedule` on the surviving subgraph).
        pub replans: usize,
        /// Total seconds slept in retry backoff.
        pub backoff_secs: f64 = wall,
        /// Total seconds stalled by injected latency (spikes and timeouts).
        pub stall_secs: f64 = wall,
        /// The events of the run's fault log whose outcome is a fail-stop
        /// resolution, in canonical `(task, attempt)` order.
        pub events: Vec<FaultEvent>,
    }
}

report_struct! {
    /// The integrity section: the wrong-answer ledger. The headline invariant
    /// is `injected = masked_by_retry + detected_by_guard +
    /// detected_by_constraint + undetected` with `undetected = 0` whenever the
    /// defense is on — zero silent corruptions, asserted, not hoped.
    #[derive(Debug, Clone, Default)]
    pub struct IntegrityObs {
        /// Whether the integrity guard checks were on for the run.
        pub enabled: bool,
        /// Wrong-answer faults injected (ledger entries).
        pub injected: usize,
        /// Detected by the task-boundary guard and masked by a retry that
        /// re-fetched clean data.
        pub masked_by_retry: usize,
        /// Detected by the task-boundary guard on the final attempt (the run
        /// surfaced a structured `IntegrityViolation`).
        pub detected_by_guard: usize,
        /// Detected by the document-level key/inclusion constraint check.
        pub detected_by_constraint: usize,
        /// Corruptions that flowed through unseen (only the defense-off
        /// ablation should ever report a nonzero count).
        pub undetected: usize,
        /// Whether the ledger balances: every injection is accounted for.
        pub balanced: bool,
        /// The wrong answers of the run's fault log, in canonical
        /// `(task, attempt)` order.
        pub events: Vec<IntegrityEventObs>,
    }
}

report_struct! {
    /// An `integrity.events` record: an event of the fault log whose kind
    /// is a wrong answer, with the mutation `detail` of its `kind`
    /// (`flip-key`, `null-column`, `duplicate-row`, `type-confuse`; empty
    /// for the other kinds) and the check that caught it (empty while
    /// undetected). A retry prints as `masked_by_retry` and a surfaced
    /// wrong answer as `detected_by_guard`.
    #[derive(Debug, Clone, PartialEq)]
    pub struct IntegrityEventObs {
        pub task: usize,
        pub label: String,
        pub source: String,
        pub table: String,
        pub attempt: usize,
        pub kind: FaultKind,
        pub detail: &'static str,
        pub outcome: FaultOutcome = integrity,
        pub constraint: String,
    }
}

report_struct! {
    /// One dynamic-scheduler pick that ran at a different per-source position
    /// than the static plan assigned it.
    #[derive(Debug, Clone)]
    pub struct PlanDeviationObs {
        pub task: usize,
        pub label: String,
        pub source: String,
        /// Position the static plan assigned the task at its source.
        pub planned_pos: usize,
        /// Position the task actually ran at.
        pub actual_pos: usize,
        /// The task's hybrid-level priority at pick time (zeroed in redacted
        /// reports — it is derived from wall-clock measurements).
        pub priority: f64 = wall,
    }
}

report_struct! {
    /// The scheduler section: which scheduling mode the executor ran and how
    /// the live schedule deviated from the static plan.
    #[derive(Debug, Clone)]
    pub struct SchedulerObs {
        /// `static` or `dynamic`.
        pub mode: String,
        /// Runtime picks the dynamic scheduler made (0 under static).
        pub picks: usize,
        /// Picks that deviated from the planned per-source order, sorted by
        /// `(source, actual_pos, task)` for a deterministic report.
        pub deviations: Vec<PlanDeviationObs>,
    }
}

impl Default for SchedulerObs {
    fn default() -> Self {
        SchedulerObs {
            mode: "static".to_string(),
            picks: 0,
            deviations: Vec::new(),
        }
    }
}

report_struct! {
    /// The ship-cut section: what column-liveness pruning at ship boundaries
    /// saved on the simulated wire. `shipped_cut_bytes` is what actually
    /// entered the transfer model and `shipped_full_bytes` what the unpruned
    /// relations would have cost.
    #[derive(Debug, Clone, Default)]
    pub struct ShipcutObs {
        /// Whether ship-cut liveness pruning was active for the run: true on
        /// every mediator run, false only in a `Default` section.
        pub enabled: bool,
        /// Total cross-source shipped bytes of the full (unpruned) outputs.
        pub shipped_full_bytes: f64 = det,
        /// Total cross-source shipped bytes of the ship images.
        pub shipped_cut_bytes: f64 = det,
        /// `shipped_full_bytes - shipped_cut_bytes`.
        pub saved_bytes: f64 = det,
        /// Tasks whose ship image is strictly smaller than their full output.
        pub pruned_tasks: usize,
    }
}

report_struct! {
    /// The batching section: the chunked-shipment ledger (see [`crate::batch`]).
    /// `Default` (disabled, all zero) describes a materializing run; when
    /// enabled, task outputs crossed the ship seam in `batch_rows`-row batches
    /// and `peak_resident_rows` bounds how many shipment rows were ever in
    /// flight at once.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct BatchingObs {
        /// Whether chunked shipment was active for the run.
        pub enabled: bool,
        /// Configured batch size in rows (0 when disabled: the whole relation
        /// is one unbounded "batch").
        pub batch_rows: u64,
        /// Batches shipped across all tasks (equals the shipped-task count on
        /// a materializing run).
        pub total_batches: u64,
        /// High-water mark of shipment rows resident at once. Batching bounds
        /// this at the double-buffer window (≈ 2 × `batch_rows` per concurrent
        /// task) instead of the largest relation.
        pub peak_resident_rows: u64,
        /// Estimated seconds pipelining overlapped away on the simulated wire
        /// ([`crate::sim::NetworkModel::overlap_savings`]); zeroed in redacted
        /// reports — it derives from wall-clock-calibrated evaluation times.
        pub overlap_savings_secs: f64 = wall,
    }
}

report_struct! {
    /// The incremental section: the delta re-evaluation ledger (see
    /// [`crate::delta`]). `Default` (disabled, all zero) describes a run with
    /// incremental re-evaluation off; `enabled` without `snapshot_hit`
    /// describes the cold run that seeds the snapshot; a hit re-ran only
    /// `tasks_rerun` of `tasks_total` tasks and spliced their outputs into the
    /// cached store. Every field is deterministic (no wall-clock derivation),
    /// so redacted reports keep the section verbatim.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct IncrementalObs {
        /// Whether incremental re-evaluation was active for the request.
        pub enabled: bool,
        /// Whether a cached snapshot was found and spliced (false on the cold
        /// run that seeds the snapshot).
        pub snapshot_hit: bool,
        /// Tasks in the prepared plan's graph.
        pub tasks_total: usize,
        /// Tasks whose read-sets intersected the delta's dirty tables, plus
        /// their downstream closure — the subgraph that actually re-ran.
        pub tasks_rerun: usize,
        /// Tasks whose cached output relations were reused unchanged.
        pub tasks_reused: usize,
        /// Dirty `source.table` pairs the snapshot had accumulated since the
        /// previous run (sorted).
        pub dirty_tables: Vec<String>,
        /// Rows of re-run task outputs spliced into the cached store.
        pub rows_spliced: u64,
        /// Document nodes copied from a cached document: always 0, since a
        /// refresh tags the spliced store as a cold run does. Kept so the
        /// report schema does not move; ROADMAP 1(a) can drop it.
        pub nodes_reused: usize,
        /// Document nodes built on a snapshot hit: the served document's
        /// node count (0 otherwise). Kept with `nodes_reused`; ROADMAP 1(a)
        /// can drop both.
        pub nodes_rebuilt: usize,
        /// Constraints whose element tags intersected the refresh's scope
        /// (the subset the scoped integrity check evaluated).
        pub constraints_scoped: usize,
        /// Constraints in the AIG's constraint set.
        pub constraints_total: usize,
    }
}

report_struct! {
    /// The server section: what the overload-resilient request server saw over
    /// one open-loop workload. `Default` (disabled, all zero) describes a
    /// per-request report — the section only carries data on the server-level
    /// summary report of [`crate::server::MediatorServer::run`].
    ///
    /// Two ledger identities must hold (`balanced`):
    /// `offered = admitted + rejected` and
    /// `admitted = completed + deadline_exceeded + degraded + failed` —
    /// every offered request terminates with exactly one structured outcome.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct ServerObs {
        pub enabled: bool,
        /// Seed of the server's probe/arrival randomness.
        pub seed: u64 = decimal,
        /// Requests that reached admission control.
        pub offered: u64,
        /// Requests admitted past admission control.
        pub admitted: u64,
        /// Requests rejected with [`crate::MediatorError::Overloaded`].
        pub rejected: u64,
        /// Rejections by scope: global queue bound, logical in-flight slots
        /// (only with a zero-length queue), and per-tenant quota.
        pub rejected_queue: u64,
        pub rejected_in_flight: u64,
        pub rejected_tenant: u64,
        /// Admitted requests that completed cleanly and in budget.
        pub completed: u64,
        /// Admitted requests that exceeded their deadline budget (in queue,
        /// mid-execution, or by finishing late).
        pub deadline_exceeded: u64,
        /// Admitted requests served degraded (skipped subtrees).
        pub degraded: u64,
        /// Admitted requests that surfaced an execution error.
        pub failed: u64,
        /// Circuit-breaker lifecycle counts.
        pub breaker_trips: u64,
        pub breaker_probes: u64,
        pub breaker_closes: u64,
        /// High-water marks of the queue and the in-flight slots.
        pub max_queue_depth: usize,
        pub max_in_flight: usize,
        /// Latency percentiles (logical seconds, arrival to termination) over
        /// every admitted request.
        pub p50_secs: f64 = det,
        pub p95_secs: f64 = det,
        pub p99_secs: f64 = det,
        /// Whether both ledger identities hold.
        pub balanced: bool,
    }
}

report_struct! {
    /// Size snapshot of one catalog table, for checking per-task byte counts
    /// against the actual relation sizes.
    #[derive(Debug, Clone)]
    pub struct CatalogTableObs {
        pub source: String,
        pub table: String,
        pub rows: usize,
        pub bytes: usize,
    }
}

report_struct! {
    /// The complete observability record of one mediator run. The fields are
    /// declared in the key order of the JSON document. `Default` is the
    /// empty, *unversioned* report (`schema_version` 0) that
    /// [`RunReport::server_summary`] starts from.
    #[derive(Debug, Clone, Default)]
    pub struct RunReport {
        /// Schema version of the report (see [`SCHEMA_VERSION`]).
        pub schema_version: u32,
        /// Wall-clock seconds of the whole pipeline run.
        pub total_secs: f64 = wall,
        /// Seconds spent in argument-independent **prepare** phases (see
        /// [`phase_stage`]) — the cost a plan-cache hit amortizes away.
        pub prepare_secs: f64 = wall,
        /// Seconds spent in argument-bound **execute** phases.
        pub execute_secs: f64 = wall,
        /// The unfolding depth that sufficed.
        pub depth: usize,
        /// How many unfold→execute rounds the frontier loop took.
        pub unfold_rounds: usize,
        /// Whether the parallel (per-source worker) executor ran the final round.
        pub parallel_exec: bool,
        /// Actual seconds summed over all tasks.
        pub exec_wall_secs: f64 = wall,
        /// Simulated response time without merging.
        pub sim_response_unmerged_secs: f64 = det "sim.response_unmerged_secs",
        /// Simulated response time of the final (possibly merged) plan.
        pub sim_response_merged_secs: f64 = det "sim.response_merged_secs",
        pub merges: usize = "sim.merges",
        /// What ship-cut column pruning saved on the simulated wire.
        pub shipcut: ShipcutObs,
        /// The chunked-shipment ledger (default on materializing runs).
        pub batching: BatchingObs,
        /// The delta re-evaluation ledger (default on non-incremental runs).
        pub incremental: IncrementalObs,
        /// What the fault-injection and recovery layer did during execution.
        pub resilience: ResilienceObs,
        /// The wrong-answer ledger: injected corruptions and how each was
        /// masked or detected.
        pub integrity: IntegrityObs,
        /// Which scheduling mode ran and how the live schedule deviated from
        /// the static plan.
        pub scheduler: SchedulerObs,
        /// What the plan cache saw for this request (default when the one-shot
        /// pipeline ran without a cache).
        pub cache: CacheObs,
        /// The overload-resilient server's ledgers (default on per-request
        /// reports; populated on server-level summary reports).
        pub server: ServerObs,
        /// Chronological phase timers covering the run.
        pub phases: Vec<PhaseSample>,
        pub tasks: Vec<TaskObs>,
        pub sources: Vec<SourceObs>,
        pub merge_decisions: Vec<MergeDecisionObs>,
        /// Final per-source plan ordering (after merging when enabled).
        pub plan: Vec<PlanSeqObs>,
        pub catalog: Vec<CatalogTableObs>,
    }
}

/// Everything the report builder needs from the pipeline.
pub(crate) struct ReportInputs<'a> {
    pub graph: &'a TaskGraph,
    pub catalog: &'a Catalog,
    pub measured: &'a [Measured],
    pub costs: &'a [TaskCost],
    pub baseline: &'a MergeOutcome,
    pub merged: &'a MergeOutcome,
    pub net: &'a NetworkModel,
    pub depth: usize,
    pub unfold_rounds: usize,
    pub parallel_exec: bool,
    /// The fault log of the final execution round.
    pub faults: &'a FaultLog,
    /// Whether the integrity guard checks were on.
    pub check_integrity: bool,
    /// Seed of the fault stream; None when fault injection was disabled.
    pub fault_seed: Option<u64>,
    /// What the scheduler did during the final execution round.
    pub sched: &'a crate::exec::SchedLog,
    /// Plan-cache observability for the request (default when no cache).
    pub cache: CacheObs,
    /// The chunked-shipment ledger of the final execution round.
    pub batch: crate::batch::BatchLog,
    /// The delta re-evaluation ledger (default on non-incremental runs).
    pub incremental: IncrementalObs,
}

fn kind_tag(kind: &TaskKind) -> &'static str {
    match kind {
        TaskKind::Root => "root",
        TaskKind::Gen { .. } => "gen",
        TaskKind::InhSetQuery { .. } => "inh_set_query",
        TaskKind::Assemble { .. } => "assemble",
        TaskKind::SynAgg { .. } => "syn_agg",
        TaskKind::Cond { .. } => "cond",
        TaskKind::BranchMat { .. } => "branch_mat",
        TaskKind::Guard { .. } => "guard",
    }
}

/// Bytes each task ships over the simulated network: its measured ship
/// image (column-pruned under ship-cut, the full output otherwise), counted
/// once per distinct consumer at a different source (the §5.2 transfer
/// model; same-source reads are local).
pub fn shipped_bytes(graph: &TaskGraph, measured: &[Measured]) -> Vec<f64> {
    shipped_bytes_by(graph, measured, |m| m.ship_bytes)
}

/// [`shipped_bytes`] with a caller-chosen size accessor, so the report can
/// put the pruned totals side by side with what the full relations would
/// have cost on the wire.
fn shipped_bytes_by(
    graph: &TaskGraph,
    measured: &[Measured],
    size: impl Fn(&Measured) -> f64,
) -> Vec<f64> {
    let mut shipped = vec![0.0f64; graph.tasks.len()];
    for task in &graph.tasks {
        let mut seen = HashSet::new();
        for (dep, _) in &task.deps {
            if seen.insert(*dep) && graph.tasks[*dep].source != task.source {
                shipped[*dep] += size(&measured[*dep]);
            }
        }
    }
    shipped
}

/// Per-source simulated busy seconds under `plan`.
fn sim_busy(outcome: &MergeOutcome) -> impl Fn(SourceId) -> f64 + '_ {
    move |source| {
        outcome
            .graph
            .nodes
            .iter()
            .filter(|n| n.source == source)
            .map(|n| n.eval_secs)
            .sum()
    }
}

pub(crate) fn build_report(inputs: ReportInputs<'_>, phases: Phases, total_secs: f64) -> RunReport {
    let ReportInputs {
        graph,
        catalog,
        measured,
        costs,
        baseline,
        merged,
        net,
        depth,
        unfold_rounds,
        parallel_exec,
        faults,
        check_integrity,
        fault_seed,
        sched,
        cache,
        batch,
        incremental,
    } = inputs;

    let shipped = shipped_bytes(graph, measured);
    let shipped_full = shipped_bytes_by(graph, measured, |m| m.wire_bytes);
    let shipcut = ShipcutObs {
        // Every prepared plan carries ship-cut profiles.
        enabled: true,
        shipped_full_bytes: shipped_full.iter().fold(0.0, |a, b| a + b),
        shipped_cut_bytes: shipped.iter().fold(0.0, |a, b| a + b),
        saved_bytes: shipped_full
            .iter()
            .zip(&shipped)
            .fold(0.0, |a, (f, c)| a + (f - c)),
        pruned_tasks: measured
            .iter()
            .filter(|m| m.ship_bytes < m.wire_bytes)
            .count(),
    };
    let batching = {
        // Pipelining overlaps simulated wire time with simulated (calibrated)
        // evaluation time; a single-hop bulk estimate is enough for the
        // headline number — per-edge routing detail lives in the plan section.
        let ship_secs = if net.bandwidth_bytes_per_sec.is_finite() {
            shipped.iter().fold(0.0, |a, b| a + b) / net.bandwidth_bytes_per_sec
        } else {
            0.0
        };
        let eval_secs = costs.iter().map(|c| c.eval_secs).fold(0.0, |a, s| a + s);
        BatchingObs {
            enabled: batch.enabled,
            batch_rows: if batch.enabled {
                batch.batch_rows as u64
            } else {
                0
            },
            total_batches: batch.total_batches,
            peak_resident_rows: batch.peak_resident_rows,
            overlap_savings_secs: if batch.enabled {
                net.overlap_savings(ship_secs, eval_secs, batch.total_batches)
            } else {
                0.0
            },
        }
    };
    let tasks: Vec<TaskObs> = graph
        .tasks
        .iter()
        .enumerate()
        .map(|(id, task)| TaskObs {
            id,
            label: task.label.clone(),
            kind: kind_tag(&task.kind).to_string(),
            source: catalog.source(task.source).name().to_string(),
            source_id: task.source.0,
            in_rows: measured[id].in_rows,
            out_rows: measured[id].out_rows,
            out_bytes: measured[id].out_bytes,
            wire_bytes: measured[id].wire_bytes,
            ship_bytes: measured[id].ship_bytes,
            shipped_bytes: shipped[id],
            batches: measured[id].batches,
            secs: measured[id].secs,
            wait_secs: measured[id].wait_secs,
            start_secs: measured[id].start_secs,
            sim_eval_secs: costs[id].eval_secs,
        })
        .collect();

    let busy_of = sim_busy(merged);
    let mut sources: Vec<SourceObs> = Vec::new();
    let mut source_ids: Vec<SourceId> = catalog.source_ids().collect();
    source_ids.sort();
    for sid in source_ids {
        let task_count = graph.tasks.iter().filter(|t| t.source == sid).count();
        if task_count == 0 && !sid.is_mediator() {
            continue;
        }
        let busy_secs: f64 = graph
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.source == sid)
            .map(|(id, _)| measured[id].secs)
            .sum();
        let sim_busy_secs = busy_of(sid);
        sources.push(SourceObs {
            name: catalog.source(sid).name().to_string(),
            id: sid.0,
            tasks: task_count,
            busy_secs,
            sim_busy_secs,
            sim_idle_secs: (merged.response_secs - sim_busy_secs).max(0.0),
        });
    }

    let merge_decisions = merged
        .decisions
        .iter()
        .map(|d| MergeDecisionObs {
            source: catalog.source(d.source).name().to_string(),
            kept: d.kept.clone(),
            absorbed: d.absorbed.clone(),
            cost_before_secs: d.cost_before_secs,
            cost_after_secs: d.cost_after_secs,
        })
        .collect();

    let plan = plan_obs(&merged.plan, merged, net, catalog);

    let mut catalog_obs = Vec::new();
    for sid in catalog.source_ids() {
        let db = catalog.source(sid);
        for table in db.tables() {
            catalog_obs.push(CatalogTableObs {
                source: db.name().to_string(),
                table: table.name().to_string(),
                rows: table.len(),
                bytes: table.byte_size(),
            });
        }
    }
    catalog_obs.sort_by(|a, b| (&a.source, &a.table).cmp(&(&b.source, &b.table)));

    // Both sections are views of the one fault log: the fail-stop
    // resolutions (so a fail-stop outcome counts over the whole log), and
    // the wrong answers.
    let events = faults.sorted_events();
    let resilience_events: Vec<FaultEvent> = (events.iter())
        .filter(|e| e.outcome.is_fail_stop())
        .cloned()
        .collect();
    let integrity_events: Vec<IntegrityEventObs> = (events.into_iter())
        .filter(|e| e.kind.is_wrong_answer())
        .map(|e| IntegrityEventObs {
            task: e.task,
            label: e.label,
            source: e.source,
            table: e.table,
            attempt: e.attempt,
            kind: e.kind,
            detail: e.kind.detail(),
            outcome: e.outcome,
            constraint: e.constraint,
        })
        .collect();
    let detected = |outcome| {
        integrity_events
            .iter()
            .filter(|e| e.outcome == outcome)
            .count()
    };
    let resilience_obs = ResilienceObs {
        enabled: fault_seed.is_some(),
        seed: fault_seed.unwrap_or(0),
        injected: faults.injected(),
        retried: faults.count(FaultOutcome::Retried),
        timed_out: faults.count(FaultOutcome::TimedOut),
        failed_over: faults.count(FaultOutcome::FailedOver),
        surfaced: faults.count(FaultOutcome::Surfaced),
        absorbed_spikes: faults.count(FaultOutcome::Absorbed),
        replans: faults.replans,
        // fold, not sum: the empty f64 sum is -0.0, which leaks a minus
        // sign into formatted output. In log order, over every event: those
        // outside the view never sleep.
        backoff_secs: faults.events.iter().fold(0.0, |a, e| a + e.backoff_secs),
        stall_secs: faults.events.iter().fold(0.0, |a, e| a + e.stall_secs),
        events: resilience_events,
    };

    let undetected = detected(FaultOutcome::Undetected);
    let integrity_obs = IntegrityObs {
        enabled: check_integrity,
        injected: integrity_events.len(),
        masked_by_retry: detected(FaultOutcome::Retried),
        detected_by_guard: detected(FaultOutcome::Surfaced),
        detected_by_constraint: detected(FaultOutcome::DetectedByConstraint),
        undetected,
        balanced: undetected == 0,
        events: integrity_events,
    };

    let mut deviations: Vec<PlanDeviationObs> = sched
        .deviations()
        .into_iter()
        .map(|p| PlanDeviationObs {
            task: p.task,
            label: graph.tasks[p.task].label.clone(),
            source: catalog.source(p.source).name().to_string(),
            planned_pos: p.planned_pos,
            actual_pos: p.actual_pos,
            priority: p.priority,
        })
        .collect();
    deviations
        .sort_by(|a, b| (&a.source, a.actual_pos, a.task).cmp(&(&b.source, b.actual_pos, b.task)));
    let scheduler = SchedulerObs {
        mode: if sched.dynamic { "dynamic" } else { "static" }.to_string(),
        picks: sched.picks.len(),
        deviations,
    };

    let stage_secs = |stage: &str| {
        phases
            .samples()
            .iter()
            .filter(|p| phase_stage(&p.name) == stage)
            .map(|p| p.secs)
            .fold(0.0, |a, s| a + s)
    };
    let prepare_secs = stage_secs("prepare");
    let execute_secs = stage_secs("execute");

    RunReport {
        schema_version: SCHEMA_VERSION,
        total_secs,
        prepare_secs,
        execute_secs,
        depth,
        unfold_rounds,
        parallel_exec,
        phases: phases.into_samples(),
        tasks,
        sources,
        merge_decisions,
        plan,
        catalog: catalog_obs,
        exec_wall_secs: measured.iter().map(|m| m.secs).sum(),
        sim_response_unmerged_secs: baseline.response_secs,
        sim_response_merged_secs: merged.response_secs,
        merges: merged.merges,
        resilience: resilience_obs,
        integrity: integrity_obs,
        scheduler,
        cache,
        shipcut,
        batching,
        incremental,
        server: ServerObs::default(),
    }
}

fn plan_obs(
    plan: &Plan,
    outcome: &MergeOutcome,
    net: &NetworkModel,
    catalog: &Catalog,
) -> Vec<PlanSeqObs> {
    let done = completion_times(&outcome.graph, plan, net);
    let mut sources: Vec<SourceId> = plan.per_source.keys().copied().collect();
    sources.sort();
    sources
        .iter()
        .filter(|s| !plan.per_source[s].is_empty())
        .map(|&source| PlanSeqObs {
            source: catalog.source(source).name().to_string(),
            steps: plan.per_source[&source]
                .iter()
                .map(|&node| PlanStepObs {
                    node,
                    eval_secs: outcome.graph.nodes[node].eval_secs,
                    completion_secs: done[node],
                    tasks: outcome.graph.nodes[node].members.clone(),
                })
                .collect(),
        })
        .collect()
}

impl RunReport {
    /// A server-level summary report: every per-request section at its
    /// default and the `server` section carrying the ledger. The server's
    /// clock is logical (simulated arrivals), so there are no wall-clock
    /// fields to fill.
    pub fn server_summary(server: ServerObs) -> RunReport {
        RunReport {
            schema_version: SCHEMA_VERSION,
            server,
            ..RunReport::default()
        }
    }

    /// Sum of all phase timers (should be within a few percent of
    /// `total_secs`: the pipeline times every phase, leaving only loop
    /// control unattributed).
    pub fn phase_secs_total(&self) -> f64 {
        self.phases.iter().map(|p| p.secs).sum()
    }

    /// Prepends an externally-timed phase (e.g. AIG parsing, which happens
    /// before the pipeline is entered) and extends the total accordingly.
    pub fn prepend_phase(&mut self, name: &str, secs: f64) {
        for phase in &mut self.phases {
            phase.first_start_secs += secs;
        }
        self.phases.insert(
            0,
            PhaseSample {
                name: name.to_string(),
                calls: 1,
                secs,
                first_start_secs: 0.0,
            },
        );
        self.total_secs += secs;
        if phase_stage(name) == "prepare" {
            self.prepare_secs += secs;
        } else {
            self.execute_secs += secs;
        }
    }

    /// A copy with every wall-clock measurement zeroed — the `f64` fields
    /// declared `= wall` — leaving only the deterministic structure
    /// (row/byte counts, simulated costs, plan orderings, merge decisions).
    /// Used by the golden-file tests.
    pub fn redacted(&self) -> RunReport {
        let mut report = self.clone();
        report.each_f64(&mut |_, wall_clock, value| {
            if wall_clock {
                *value = 0.0;
            }
        });
        report
    }

    /// Serializes the report to a [`Json`] value (ordered fields: the
    /// output is byte-stable for a given report). The document is derived
    /// from the struct declarations of this module.
    pub fn to_json(&self) -> Json {
        ReportValue::to_json(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_accumulate_across_calls() {
        let mut phases = Phases::new();
        phases.record("unfold", 0.0, 0.5);
        phases.record("execute", 0.5, 1.0);
        phases.record("unfold", 1.5, 0.25);
        let samples = phases.into_samples();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].name, "unfold");
        assert_eq!(samples[0].calls, 2);
        assert!((samples[0].secs - 0.75).abs() < 1e-12);
        assert_eq!(samples[0].first_start_secs, 0.0);
        assert_eq!(samples[1].calls, 1);
    }

    #[test]
    fn time_charges_wall_clock() {
        let mut phases = Phases::new();
        let v = phases.time("spin", || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            42
        });
        assert_eq!(v, 42);
        let samples = phases.into_samples();
        assert!(samples[0].secs >= 0.004, "{}", samples[0].secs);
    }

    #[test]
    fn prepend_phase_shifts_offsets() {
        let mut phases = Phases::new();
        phases.record("compile_constraints", 0.0, 0.1);
        let mut report = RunReport {
            total_secs: 0.1,
            prepare_secs: 0.1,
            phases: phases.into_samples(),
            ..RunReport::server_summary(ServerObs::default())
        };
        report.prepend_phase("parse", 0.05);
        assert_eq!(report.phases[0].name, "parse");
        assert!((report.phases[1].first_start_secs - 0.05).abs() < 1e-12);
        assert!((report.total_secs - 0.15).abs() < 1e-12);
        assert!((report.phase_secs_total() - 0.15).abs() < 1e-12);
        // Parsing happens before the pipeline: it counts as prepare time.
        assert!((report.prepare_secs - 0.15).abs() < 1e-12);
        assert_eq!(report.execute_secs, 0.0);
    }

    #[test]
    fn fault_seed_survives_json_above_f64_precision() {
        // u64::MAX has no exact f64 representation; a numeric JSON field
        // would silently round it. The report emits the seed as a decimal
        // string instead, so the exact value round-trips.
        let mut report = RunReport::server_summary(ServerObs::default());
        report.resilience.enabled = true;
        report.resilience.seed = u64::MAX;
        let json = report.to_json().to_pretty();
        assert!(
            json.contains("\"seed\": \"18446744073709551615\""),
            "{json}"
        );
        assert!(
            !json.contains("18446744073709552000"),
            "seed was rounded through f64"
        );
    }
}
