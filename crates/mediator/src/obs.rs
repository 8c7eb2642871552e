//! Observability for the mediator pipeline: phase timers, per-task and
//! per-source metrics, merge/schedule decision logs, and a JSON-serializable
//! [`RunReport`] putting the simulated response times (§5.2) side by side
//! with the actual in-process wall clock.
//!
//! The report is produced by [`crate::pipeline::run_with_report`] and
//! serialized with the dependency-free [`crate::json`] writer so that the
//! bench binaries can emit machine-readable `BENCH_*.json` files.

use crate::cost::{completion_times, Plan, TaskCost};
use crate::exec::Measured;
use crate::faults::{FaultOutcome, IntegrityLog, IntegrityOutcome, ResilienceLog};
use crate::graph::{TaskGraph, TaskKind};
use crate::json::Json;
use crate::merge::MergeOutcome;
use crate::sim::NetworkModel;
use aig_relstore::{Catalog, SourceId};
use std::collections::HashSet;
use std::time::Instant;

/// Accumulated wall-clock time of one pipeline phase. Phases entered more
/// than once (the frontier-driven re-unfold loop, §5.5) accumulate their
/// seconds and call counts; `first_start_secs` is the offset of the first
/// entry from the start of the run, so samples sort chronologically.
#[derive(Debug, Clone)]
pub struct PhaseSample {
    pub name: String,
    pub calls: usize,
    pub secs: f64,
    pub first_start_secs: f64,
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
    pub in_rows: f64,
    pub out_rows: f64,
    pub out_bytes: f64,
    /// Dictionary-encoded wire size of the full (unpruned) output — what
    /// shipping the whole relation would cost. Can exceed `out_bytes` on
    /// small all-distinct relations, where the dictionary is the data plus
    /// per-row codes.
    pub wire_bytes: f64,
    /// Bytes of the output's ship image after ship-cut column pruning
    /// (equal to `wire_bytes` when ship-cut is off or nothing was prunable;
    /// never larger — pruning is monotone under the wire encoding).
    pub ship_bytes: f64,
    /// Bytes this task's output ships over the simulated network (its ship
    /// image, counted once per consumer at a different source).
    pub shipped_bytes: f64,
    /// Batches the task's output crossed the ship seam in: 1 per shipped
    /// output on a materializing run, `ceil(image_rows / batch_rows)` under
    /// chunked shipment, 0 for guards and empty outputs.
    pub batches: u64,
    /// Actual in-process execution seconds.
    pub secs: f64,
    /// Queue/wait seconds before the task could start (parallel executor).
    pub wait_secs: f64,
    /// Start offset from the beginning of the execution phase.
    pub start_secs: f64,
    /// Calibrated evaluation cost used by the response-time simulation.
    pub sim_eval_secs: f64,
}

/// Per-source aggregates: actual busy time next to the simulated plan's
/// busy/idle split for the same source.
#[derive(Debug, Clone)]
pub struct SourceObs {
    pub name: String,
    pub id: u32,
    /// Tasks of the (uncontracted) task graph at this source.
    pub tasks: usize,
    /// Actual seconds the source's tasks ran in-process.
    pub busy_secs: f64,
    /// Simulated busy seconds under the final plan.
    pub sim_busy_secs: f64,
    /// Simulated idle seconds: makespan minus busy.
    pub sim_idle_secs: f64,
}

/// One accepted merge, with sources resolved to names.
#[derive(Debug, Clone)]
pub struct MergeDecisionObs {
    pub source: String,
    /// Original task ids of the kept node.
    pub kept: Vec<usize>,
    /// Original task ids of the absorbed node.
    pub absorbed: Vec<usize>,
    pub cost_before_secs: f64,
    pub cost_after_secs: f64,
}

/// One node of the final per-source plan ordering.
#[derive(Debug, Clone)]
pub struct PlanStepObs {
    /// Node id in the merged cost graph.
    pub node: usize,
    pub eval_secs: f64,
    /// Simulated completion time of the node.
    pub completion_secs: f64,
    /// Original task ids contracted/merged into the node.
    pub tasks: Vec<usize>,
}

/// The ordered plan of one source.
#[derive(Debug, Clone)]
pub struct PlanSeqObs {
    pub source: String,
    pub steps: Vec<PlanStepObs>,
}

/// Version of the [`RunReport`] JSON schema. Bumped whenever fields are
/// added, removed, or change meaning, so downstream consumers of the
/// `BENCH_*.json` / report files can dispatch on it.
///
/// History: 1 = the PR-1 report (no version field); 2 = adds
/// `schema_version` and the `resilience` section; 3 = adds the `scheduler`
/// section and emits the fault seed as a lossless decimal string (a u64
/// above 2^53 is not representable as a JSON number); 4 = adds the
/// prepare/execute stage split (`prepare_secs`, `execute_secs`) and the
/// `cache` section with the plan cache's hit/miss/promotion counters;
/// 5 = adds the `shipcut` section (column-liveness pruning at ship
/// boundaries) and the per-task `ship_bytes` field; 6 = adds the
/// `integrity` section (the wrong-answer ledger: injected corruptions and
/// how each was masked or detected); 7 = adds the `server` section (the
/// overload-resilient server's admission/deadline/breaker ledgers and
/// latency percentiles); 8 = adds the per-task `wire_bytes` field
/// (dictionary-encoded wire size of the full output under columnar
/// storage) and re-bases the `shipcut` savings on it, so pruned and
/// unpruned shipments compare under the same encoding; 9 = adds the
/// `batching` section (chunked-shipment ledger: batch size, total batches,
/// peak resident shipment rows, estimated pipelining savings) and the
/// per-task `batches` field; 10 = adds the `incremental` section (delta
/// re-evaluation ledger: snapshot hit, tasks re-run vs reused, dirty
/// tables, rows spliced, document nodes reused vs rebuilt, and the scoped
/// constraint-check counts).
pub const SCHEMA_VERSION: u32 = 10;

/// Which stage of the prepared-plan split a phase belongs to: everything
/// argument-independent (compilation through estimate-based planning, plus
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
        | "plan"
        | "shipcut"
        | "plan_cache" => "prepare",
        _ => "execute",
    }
}

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

/// One injected fault as recorded in the report: where it hit and how the
/// retry/failover machinery resolved it.
#[derive(Debug, Clone)]
pub struct FaultEventObs {
    pub task: usize,
    pub label: String,
    pub source: String,
    pub attempt: usize,
    /// `transient`, `latency`, or `outage`.
    pub kind: String,
    /// `retried`, `timed_out`, `failed_over`, `surfaced`, or `absorbed`.
    pub outcome: String,
    pub backoff_secs: f64,
    pub stall_secs: f64,
}

/// The resilience section: what the fault model injected and what the
/// recovery machinery did about it. The counts satisfy
/// `injected = retried + timed_out + failed_over + surfaced` (absorbed
/// sub-timeout latency spikes are tracked separately).
#[derive(Debug, Clone, Default)]
pub struct ResilienceObs {
    /// Whether fault injection was configured for the run.
    pub enabled: bool,
    /// Seed of the fault stream (0 when disabled).
    pub seed: u64,
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
    pub backoff_secs: f64,
    /// Total seconds stalled by injected latency (spikes and timeouts).
    pub stall_secs: f64,
    /// Events in canonical `(task, attempt)` order.
    pub events: Vec<FaultEventObs>,
}

/// One wrong-answer fault as recorded in the report: where it hit and how
/// the integrity defense resolved it.
#[derive(Debug, Clone)]
pub struct IntegrityEventObs {
    pub task: usize,
    pub label: String,
    pub source: String,
    /// Stored table the task reads (the wrong-answer fault coordinate).
    pub table: String,
    pub attempt: usize,
    /// `corrupt-row`, `table-outage`, or `stale-replica`.
    pub kind: String,
    /// The specific mutation for corruptions (`flip-key`, `null-column`,
    /// `duplicate-row`, `type-confuse`); equals `kind` otherwise.
    pub detail: String,
    /// `masked_by_retry`, `detected_by_guard`, `detected_by_constraint`,
    /// or `undetected`.
    pub outcome: String,
    /// The violated constraint the detection named (empty while
    /// undetected).
    pub constraint: String,
}

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
    /// Events in canonical `(task, attempt)` order.
    pub events: Vec<IntegrityEventObs>,
}

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
    pub priority: f64,
}

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

impl Default for SchedulerObs {
    fn default() -> Self {
        SchedulerObs {
            mode: "static".to_string(),
            picks: 0,
            deviations: Vec::new(),
        }
    }
}

/// The ship-cut section: what column-liveness pruning at ship boundaries
/// saved on the simulated wire. `Default` (disabled, all zero) describes a
/// run without ship-cut; when enabled, `shipped_cut_bytes` is what actually
/// entered the transfer model and `shipped_full_bytes` what the unpruned
/// relations would have cost.
#[derive(Debug, Clone, Default)]
pub struct ShipcutObs {
    /// Whether ship-cut liveness pruning was active for the run.
    pub enabled: bool,
    /// Total cross-source shipped bytes of the full (unpruned) outputs.
    pub shipped_full_bytes: f64,
    /// Total cross-source shipped bytes of the ship images.
    pub shipped_cut_bytes: f64,
    /// `shipped_full_bytes - shipped_cut_bytes`.
    pub saved_bytes: f64,
    /// Tasks whose ship image is strictly smaller than their full output.
    pub pruned_tasks: usize,
}

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
    pub overlap_savings_secs: f64,
}

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
    /// Document nodes copied verbatim from the cached tree during retag.
    pub nodes_reused: usize,
    /// Document nodes rebuilt from the spliced store during retag.
    pub nodes_rebuilt: usize,
    /// Constraints whose element tags intersected the retag scope (the
    /// subset the scoped integrity check evaluated).
    pub constraints_scoped: usize,
    /// Constraints in the AIG's constraint set.
    pub constraints_total: usize,
}

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
    pub seed: u64,
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
    pub p50_secs: f64,
    pub p95_secs: f64,
    pub p99_secs: f64,
    /// Whether both ledger identities hold.
    pub balanced: bool,
}

/// Size snapshot of one catalog table, for checking per-task byte counts
/// against the actual relation sizes.
#[derive(Debug, Clone)]
pub struct CatalogTableObs {
    pub source: String,
    pub table: String,
    pub rows: usize,
    pub bytes: usize,
}

/// The complete observability record of one mediator run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Schema version of the report (see [`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Wall-clock seconds of the whole pipeline run.
    pub total_secs: f64,
    /// Seconds spent in argument-independent **prepare** phases (see
    /// [`phase_stage`]) — the cost a plan-cache hit amortizes away.
    pub prepare_secs: f64,
    /// Seconds spent in argument-bound **execute** phases.
    pub execute_secs: f64,
    /// The unfolding depth that sufficed.
    pub depth: usize,
    /// How many unfold→execute rounds the frontier loop took.
    pub unfold_rounds: usize,
    /// Whether the parallel (per-source worker) executor ran the final round.
    pub parallel_exec: bool,
    /// Chronological phase timers covering the run.
    pub phases: Vec<PhaseSample>,
    pub tasks: Vec<TaskObs>,
    pub sources: Vec<SourceObs>,
    pub merge_decisions: Vec<MergeDecisionObs>,
    /// Final per-source plan ordering (after merging when enabled).
    pub plan: Vec<PlanSeqObs>,
    pub catalog: Vec<CatalogTableObs>,
    /// Actual seconds summed over all tasks.
    pub exec_wall_secs: f64,
    /// Simulated response time without merging.
    pub sim_response_unmerged_secs: f64,
    /// Simulated response time of the final (possibly merged) plan.
    pub sim_response_merged_secs: f64,
    pub merges: usize,
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
    /// What ship-cut column pruning saved on the simulated wire.
    pub shipcut: ShipcutObs,
    /// The chunked-shipment ledger (default on materializing runs).
    pub batching: BatchingObs,
    /// The delta re-evaluation ledger (default on non-incremental runs).
    pub incremental: IncrementalObs,
    /// The overload-resilient server's ledgers (default on per-request
    /// reports; populated on server-level summary reports).
    pub server: ServerObs,
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
    pub resilience: &'a ResilienceLog,
    /// The wrong-answer ledger of the final execution round.
    pub integrity: &'a IntegrityLog,
    /// Whether the integrity guard checks were on.
    pub check_integrity: bool,
    /// Seed of the fault stream; None when fault injection was disabled.
    pub fault_seed: Option<u64>,
    /// What the scheduler did during the final execution round.
    pub sched: &'a crate::exec::SchedLog,
    /// Plan-cache observability for the request (default when no cache).
    pub cache: CacheObs,
    /// Whether ship-cut liveness pruning was active during execution.
    pub shipcut_enabled: bool,
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
        resilience,
        integrity,
        check_integrity,
        fault_seed,
        sched,
        cache,
        shipcut_enabled,
        batch,
        incremental,
    } = inputs;

    let shipped = shipped_bytes(graph, measured);
    let shipped_full = shipped_bytes_by(graph, measured, |m| m.wire_bytes);
    let shipcut = ShipcutObs {
        enabled: shipcut_enabled,
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

    let events: Vec<FaultEventObs> = resilience
        .sorted_events()
        .into_iter()
        .map(|e| FaultEventObs {
            task: e.task,
            label: e.label,
            source: e.source,
            attempt: e.attempt,
            kind: e.kind.name().to_string(),
            outcome: e.outcome.name().to_string(),
            backoff_secs: e.backoff_secs,
            stall_secs: e.stall_secs,
        })
        .collect();
    let resilience_obs = ResilienceObs {
        enabled: fault_seed.is_some(),
        seed: fault_seed.unwrap_or(0),
        injected: resilience.injected(),
        retried: resilience.count(FaultOutcome::Retried),
        timed_out: resilience.count(FaultOutcome::TimedOut),
        failed_over: resilience.count(FaultOutcome::FailedOver),
        surfaced: resilience.count(FaultOutcome::Surfaced),
        absorbed_spikes: resilience.count(FaultOutcome::Absorbed),
        replans: resilience.replans,
        // fold, not sum: the empty f64 sum is -0.0, which leaks a minus
        // sign into formatted output.
        backoff_secs: resilience
            .events
            .iter()
            .fold(0.0, |a, e| a + e.backoff_secs),
        stall_secs: resilience.events.iter().fold(0.0, |a, e| a + e.stall_secs),
        events,
    };

    let integrity_events: Vec<IntegrityEventObs> = integrity
        .sorted_events()
        .into_iter()
        .map(|e| IntegrityEventObs {
            task: e.task,
            label: e.label,
            source: e.source,
            table: e.table,
            attempt: e.attempt,
            kind: e.kind.name().to_string(),
            detail: e.kind.detail().to_string(),
            outcome: e.outcome.name().to_string(),
            constraint: e.constraint,
        })
        .collect();
    let integrity_obs = IntegrityObs {
        enabled: check_integrity,
        injected: integrity.injected(),
        masked_by_retry: integrity.count(IntegrityOutcome::MaskedByRetry),
        detected_by_guard: integrity.count(IntegrityOutcome::DetectedByGuard),
        detected_by_constraint: integrity.count(IntegrityOutcome::DetectedByConstraint),
        undetected: integrity.undetected(),
        balanced: integrity.balanced(),
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
            total_secs: 0.0,
            prepare_secs: 0.0,
            execute_secs: 0.0,
            depth: 0,
            unfold_rounds: 0,
            parallel_exec: false,
            phases: vec![],
            tasks: vec![],
            sources: vec![],
            merge_decisions: vec![],
            plan: vec![],
            catalog: vec![],
            exec_wall_secs: 0.0,
            sim_response_unmerged_secs: 0.0,
            sim_response_merged_secs: 0.0,
            merges: 0,
            resilience: ResilienceObs::default(),
            integrity: IntegrityObs::default(),
            scheduler: SchedulerObs::default(),
            cache: CacheObs::default(),
            shipcut: ShipcutObs::default(),
            batching: BatchingObs::default(),
            incremental: IncrementalObs::default(),
            server,
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

    /// A copy with every wall-clock measurement zeroed, leaving only the
    /// deterministic structure (row/byte counts, simulated costs, plan
    /// orderings, merge decisions). Used by the golden-file tests.
    pub fn redacted(&self) -> RunReport {
        let mut report = self.clone();
        report.total_secs = 0.0;
        report.prepare_secs = 0.0;
        report.execute_secs = 0.0;
        report.exec_wall_secs = 0.0;
        for phase in &mut report.phases {
            phase.secs = 0.0;
            phase.first_start_secs = 0.0;
        }
        for task in &mut report.tasks {
            task.secs = 0.0;
            task.wait_secs = 0.0;
            task.start_secs = 0.0;
        }
        for source in &mut report.sources {
            source.busy_secs = 0.0;
        }
        report.resilience.backoff_secs = 0.0;
        report.resilience.stall_secs = 0.0;
        for event in &mut report.resilience.events {
            event.backoff_secs = 0.0;
            event.stall_secs = 0.0;
        }
        for deviation in &mut report.scheduler.deviations {
            deviation.priority = 0.0;
        }
        // The pipelining estimate folds in calibrated (wall-clock-derived)
        // evaluation times; the batch/row counts themselves are deterministic
        // and stay.
        report.batching.overlap_savings_secs = 0.0;
        report
    }

    /// Serializes the report to a [`Json`] value (ordered fields: the
    /// output is byte-stable for a given report).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::num(self.schema_version as f64)),
            ("total_secs", Json::num(self.total_secs)),
            ("prepare_secs", Json::num(self.prepare_secs)),
            ("execute_secs", Json::num(self.execute_secs)),
            ("depth", Json::num(self.depth as f64)),
            ("unfold_rounds", Json::num(self.unfold_rounds as f64)),
            ("parallel_exec", Json::Bool(self.parallel_exec)),
            ("exec_wall_secs", Json::num(self.exec_wall_secs)),
            (
                "sim",
                Json::obj(vec![
                    (
                        "response_unmerged_secs",
                        Json::num(self.sim_response_unmerged_secs),
                    ),
                    (
                        "response_merged_secs",
                        Json::num(self.sim_response_merged_secs),
                    ),
                    ("merges", Json::num(self.merges as f64)),
                ]),
            ),
            (
                "shipcut",
                Json::obj(vec![
                    ("enabled", Json::Bool(self.shipcut.enabled)),
                    (
                        "shipped_full_bytes",
                        Json::num(self.shipcut.shipped_full_bytes),
                    ),
                    (
                        "shipped_cut_bytes",
                        Json::num(self.shipcut.shipped_cut_bytes),
                    ),
                    ("saved_bytes", Json::num(self.shipcut.saved_bytes)),
                    ("pruned_tasks", Json::num(self.shipcut.pruned_tasks as f64)),
                ]),
            ),
            (
                "batching",
                Json::obj(vec![
                    ("enabled", Json::Bool(self.batching.enabled)),
                    ("batch_rows", Json::num(self.batching.batch_rows as f64)),
                    (
                        "total_batches",
                        Json::num(self.batching.total_batches as f64),
                    ),
                    (
                        "peak_resident_rows",
                        Json::num(self.batching.peak_resident_rows as f64),
                    ),
                    (
                        "overlap_savings_secs",
                        Json::num(self.batching.overlap_savings_secs),
                    ),
                ]),
            ),
            (
                "incremental",
                Json::obj(vec![
                    ("enabled", Json::Bool(self.incremental.enabled)),
                    ("snapshot_hit", Json::Bool(self.incremental.snapshot_hit)),
                    (
                        "tasks_total",
                        Json::num(self.incremental.tasks_total as f64),
                    ),
                    (
                        "tasks_rerun",
                        Json::num(self.incremental.tasks_rerun as f64),
                    ),
                    (
                        "tasks_reused",
                        Json::num(self.incremental.tasks_reused as f64),
                    ),
                    (
                        "dirty_tables",
                        Json::Arr(
                            self.incremental
                                .dirty_tables
                                .iter()
                                .map(Json::str)
                                .collect(),
                        ),
                    ),
                    (
                        "rows_spliced",
                        Json::num(self.incremental.rows_spliced as f64),
                    ),
                    (
                        "nodes_reused",
                        Json::num(self.incremental.nodes_reused as f64),
                    ),
                    (
                        "nodes_rebuilt",
                        Json::num(self.incremental.nodes_rebuilt as f64),
                    ),
                    (
                        "constraints_scoped",
                        Json::num(self.incremental.constraints_scoped as f64),
                    ),
                    (
                        "constraints_total",
                        Json::num(self.incremental.constraints_total as f64),
                    ),
                ]),
            ),
            (
                "resilience",
                Json::obj(vec![
                    ("enabled", Json::Bool(self.resilience.enabled)),
                    // A u64 seed above 2^53 would silently lose precision
                    // as a JSON number; emit it as a decimal string.
                    ("seed", Json::str(self.resilience.seed.to_string())),
                    ("injected", Json::num(self.resilience.injected as f64)),
                    ("retried", Json::num(self.resilience.retried as f64)),
                    ("timed_out", Json::num(self.resilience.timed_out as f64)),
                    ("failed_over", Json::num(self.resilience.failed_over as f64)),
                    ("surfaced", Json::num(self.resilience.surfaced as f64)),
                    (
                        "absorbed_spikes",
                        Json::num(self.resilience.absorbed_spikes as f64),
                    ),
                    ("replans", Json::num(self.resilience.replans as f64)),
                    ("backoff_secs", Json::num(self.resilience.backoff_secs)),
                    ("stall_secs", Json::num(self.resilience.stall_secs)),
                    (
                        "events",
                        Json::Arr(
                            self.resilience
                                .events
                                .iter()
                                .map(|e| {
                                    Json::obj(vec![
                                        ("task", Json::num(e.task as f64)),
                                        ("label", Json::str(&e.label)),
                                        ("source", Json::str(&e.source)),
                                        ("attempt", Json::num(e.attempt as f64)),
                                        ("kind", Json::str(&e.kind)),
                                        ("outcome", Json::str(&e.outcome)),
                                        ("backoff_secs", Json::num(e.backoff_secs)),
                                        ("stall_secs", Json::num(e.stall_secs)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "integrity",
                Json::obj(vec![
                    ("enabled", Json::Bool(self.integrity.enabled)),
                    ("injected", Json::num(self.integrity.injected as f64)),
                    (
                        "masked_by_retry",
                        Json::num(self.integrity.masked_by_retry as f64),
                    ),
                    (
                        "detected_by_guard",
                        Json::num(self.integrity.detected_by_guard as f64),
                    ),
                    (
                        "detected_by_constraint",
                        Json::num(self.integrity.detected_by_constraint as f64),
                    ),
                    ("undetected", Json::num(self.integrity.undetected as f64)),
                    ("balanced", Json::Bool(self.integrity.balanced)),
                    (
                        "events",
                        Json::Arr(
                            self.integrity
                                .events
                                .iter()
                                .map(|e| {
                                    Json::obj(vec![
                                        ("task", Json::num(e.task as f64)),
                                        ("label", Json::str(&e.label)),
                                        ("source", Json::str(&e.source)),
                                        ("table", Json::str(&e.table)),
                                        ("attempt", Json::num(e.attempt as f64)),
                                        ("kind", Json::str(&e.kind)),
                                        ("detail", Json::str(&e.detail)),
                                        ("outcome", Json::str(&e.outcome)),
                                        ("constraint", Json::str(&e.constraint)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "scheduler",
                Json::obj(vec![
                    ("mode", Json::str(&self.scheduler.mode)),
                    ("picks", Json::num(self.scheduler.picks as f64)),
                    (
                        "deviations",
                        Json::Arr(
                            self.scheduler
                                .deviations
                                .iter()
                                .map(|d| {
                                    Json::obj(vec![
                                        ("task", Json::num(d.task as f64)),
                                        ("label", Json::str(&d.label)),
                                        ("source", Json::str(&d.source)),
                                        ("planned_pos", Json::num(d.planned_pos as f64)),
                                        ("actual_pos", Json::num(d.actual_pos as f64)),
                                        ("priority", Json::num(d.priority)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "cache",
                Json::obj(vec![
                    ("enabled", Json::Bool(self.cache.enabled)),
                    ("hit", Json::Bool(self.cache.hit)),
                    ("promoted", Json::Bool(self.cache.promoted)),
                    ("hits", Json::num(self.cache.hits as f64)),
                    ("misses", Json::num(self.cache.misses as f64)),
                    ("promotions", Json::num(self.cache.promotions as f64)),
                    ("evictions", Json::num(self.cache.evictions as f64)),
                    ("entries", Json::num(self.cache.entries as f64)),
                    ("capacity", Json::num(self.cache.capacity as f64)),
                ]),
            ),
            (
                "server",
                Json::obj(vec![
                    ("enabled", Json::Bool(self.server.enabled)),
                    // Same lossless-decimal treatment as the fault seed.
                    ("seed", Json::str(self.server.seed.to_string())),
                    ("offered", Json::num(self.server.offered as f64)),
                    ("admitted", Json::num(self.server.admitted as f64)),
                    ("rejected", Json::num(self.server.rejected as f64)),
                    (
                        "rejected_queue",
                        Json::num(self.server.rejected_queue as f64),
                    ),
                    (
                        "rejected_in_flight",
                        Json::num(self.server.rejected_in_flight as f64),
                    ),
                    (
                        "rejected_tenant",
                        Json::num(self.server.rejected_tenant as f64),
                    ),
                    ("completed", Json::num(self.server.completed as f64)),
                    (
                        "deadline_exceeded",
                        Json::num(self.server.deadline_exceeded as f64),
                    ),
                    ("degraded", Json::num(self.server.degraded as f64)),
                    ("failed", Json::num(self.server.failed as f64)),
                    ("breaker_trips", Json::num(self.server.breaker_trips as f64)),
                    (
                        "breaker_probes",
                        Json::num(self.server.breaker_probes as f64),
                    ),
                    (
                        "breaker_closes",
                        Json::num(self.server.breaker_closes as f64),
                    ),
                    (
                        "max_queue_depth",
                        Json::num(self.server.max_queue_depth as f64),
                    ),
                    ("max_in_flight", Json::num(self.server.max_in_flight as f64)),
                    ("p50_secs", Json::num(self.server.p50_secs)),
                    ("p95_secs", Json::num(self.server.p95_secs)),
                    ("p99_secs", Json::num(self.server.p99_secs)),
                    ("balanced", Json::Bool(self.server.balanced)),
                ]),
            ),
            (
                "phases",
                Json::Arr(
                    self.phases
                        .iter()
                        .map(|p| {
                            Json::obj(vec![
                                ("name", Json::str(&p.name)),
                                ("calls", Json::num(p.calls as f64)),
                                ("start_secs", Json::num(p.first_start_secs)),
                                ("secs", Json::num(p.secs)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "tasks",
                Json::Arr(
                    self.tasks
                        .iter()
                        .map(|t| {
                            Json::obj(vec![
                                ("id", Json::num(t.id as f64)),
                                ("label", Json::str(&t.label)),
                                ("kind", Json::str(&t.kind)),
                                ("source", Json::str(&t.source)),
                                ("source_id", Json::num(t.source_id as f64)),
                                ("in_rows", Json::num(t.in_rows)),
                                ("out_rows", Json::num(t.out_rows)),
                                ("out_bytes", Json::num(t.out_bytes)),
                                ("wire_bytes", Json::num(t.wire_bytes)),
                                ("ship_bytes", Json::num(t.ship_bytes)),
                                ("shipped_bytes", Json::num(t.shipped_bytes)),
                                ("batches", Json::num(t.batches as f64)),
                                ("secs", Json::num(t.secs)),
                                ("wait_secs", Json::num(t.wait_secs)),
                                ("start_secs", Json::num(t.start_secs)),
                                ("sim_eval_secs", Json::num(t.sim_eval_secs)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "sources",
                Json::Arr(
                    self.sources
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("name", Json::str(&s.name)),
                                ("id", Json::num(s.id as f64)),
                                ("tasks", Json::num(s.tasks as f64)),
                                ("busy_secs", Json::num(s.busy_secs)),
                                ("sim_busy_secs", Json::num(s.sim_busy_secs)),
                                ("sim_idle_secs", Json::num(s.sim_idle_secs)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "merge_decisions",
                Json::Arr(
                    self.merge_decisions
                        .iter()
                        .map(|d| {
                            Json::obj(vec![
                                ("source", Json::str(&d.source)),
                                ("kept", ids(&d.kept)),
                                ("absorbed", ids(&d.absorbed)),
                                ("cost_before_secs", Json::num(d.cost_before_secs)),
                                ("cost_after_secs", Json::num(d.cost_after_secs)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "plan",
                Json::Arr(
                    self.plan
                        .iter()
                        .map(|seq| {
                            Json::obj(vec![
                                ("source", Json::str(&seq.source)),
                                (
                                    "steps",
                                    Json::Arr(
                                        seq.steps
                                            .iter()
                                            .map(|s| {
                                                Json::obj(vec![
                                                    ("node", Json::num(s.node as f64)),
                                                    ("eval_secs", Json::num(s.eval_secs)),
                                                    (
                                                        "completion_secs",
                                                        Json::num(s.completion_secs),
                                                    ),
                                                    ("tasks", ids(&s.tasks)),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "catalog",
                Json::Arr(
                    self.catalog
                        .iter()
                        .map(|t| {
                            Json::obj(vec![
                                ("source", Json::str(&t.source)),
                                ("table", Json::str(&t.table)),
                                ("rows", Json::num(t.rows as f64)),
                                ("bytes", Json::num(t.bytes as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn ids(list: &[usize]) -> Json {
    Json::Arr(list.iter().map(|&i| Json::num(i as f64)).collect())
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
            schema_version: SCHEMA_VERSION,
            total_secs: 0.1,
            prepare_secs: 0.1,
            execute_secs: 0.0,
            depth: 1,
            unfold_rounds: 1,
            parallel_exec: false,
            phases: phases.into_samples(),
            tasks: vec![],
            sources: vec![],
            merge_decisions: vec![],
            plan: vec![],
            catalog: vec![],
            exec_wall_secs: 0.0,
            sim_response_unmerged_secs: 0.0,
            sim_response_merged_secs: 0.0,
            merges: 0,
            resilience: ResilienceObs::default(),
            integrity: IntegrityObs::default(),
            scheduler: SchedulerObs::default(),
            cache: CacheObs::default(),
            shipcut: ShipcutObs::default(),
            batching: BatchingObs::default(),
            incremental: IncrementalObs::default(),
            server: ServerObs::default(),
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
        let mut report = RunReport {
            schema_version: SCHEMA_VERSION,
            total_secs: 0.0,
            prepare_secs: 0.0,
            execute_secs: 0.0,
            depth: 1,
            unfold_rounds: 1,
            parallel_exec: false,
            phases: vec![],
            tasks: vec![],
            sources: vec![],
            merge_decisions: vec![],
            plan: vec![],
            catalog: vec![],
            exec_wall_secs: 0.0,
            sim_response_unmerged_secs: 0.0,
            sim_response_merged_secs: 0.0,
            merges: 0,
            resilience: ResilienceObs::default(),
            integrity: IntegrityObs::default(),
            scheduler: SchedulerObs::default(),
            cache: CacheObs::default(),
            shipcut: ShipcutObs::default(),
            batching: BatchingObs::default(),
            incremental: IncrementalObs::default(),
            server: ServerObs::default(),
        };
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
