//! Set-oriented execution of the task graph (paper §5.1, execution phase).
//!
//! "The query plan is executed to produce a set of output relations — a
//! relational representation of the XML document." Each task runs once over
//! whole temporary tables; per-task wall-clock times are recorded so that
//! the response-time simulation (§5.2) can use measured rather than
//! estimated query costs, mirroring the paper's methodology of running real
//! queries and simulating the transfers. What the rules fix, the graph
//! fixed: Assemble writes the `__occ` symbols it interned, and a `SynAgg`
//! task runs the [`SynStep`]s it compiled.

use crate::error::{ConfigError, MediatorError};
use crate::faults::{FaultEnv, FaultEvent, FaultLog, FaultPlan, RetryPolicy, TaskFaultCtx};
use crate::graph::{
    member_columns, Binding, Occ, ParamInput, Producers, RelKey, ScalarBind, SynStep, Task,
    TaskGraph, TaskKind, VectorQuery,
};
use crate::integrity;
use crate::shipcut::ShipCut;
use aig_core::attrs::FieldType;
use aig_core::copyelim::{resolve_scalar, ResolvedScalar};
use aig_core::spec::{Aig, FieldRule, GuardKind, Prod, ValueExpr};
use aig_core::AigError;
use aig_relstore::intern::{self, Reader};
use aig_relstore::par::{apply_perm, RowTable};
use aig_relstore::{Catalog, Relation, SharedCol, SourceId, StoreError, Sym, Value};
use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

#[cfg(test)]
pub(crate) mod bound_queries;
#[cfg(test)]
mod columnar_tests;
// The row-major references of `columnar_tests` resolve synthesized keys
// where they read them, and key their rows by value.
#[cfg(test)]
use crate::graph::resolve_syn_key;
#[cfg(test)]
use std::collections::HashMap;

/// Selects nothing: every per-source walk runs the paper's list schedule
/// (see [`crate::parallel`]). The type stays while
/// [`crate::pipeline::MediatorOptions`] literals spell
/// `scheduling: Scheduling::Dynamic`, and leaves when the option types are
/// merged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduling {
    #[default]
    Dynamic,
}

/// One pick of a per-source walk's worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskPick {
    pub task: usize,
    /// Effective source the task ran at.
    pub source: SourceId,
    /// The task's position in the sequence the caller gave for its source.
    pub planned_pos: usize,
    /// Position the task actually ran at (per-source pick counter).
    pub actual_pos: usize,
    /// The task's priority: its `ℓevel` over the estimate graph.
    pub priority: f64,
}

/// The pick log of one execution: every pick of a per-source walk, failover
/// rounds included, in pick order. The one-worker walk takes its tasks from
/// the same ready queues but logs nothing.
#[derive(Debug, Clone, Default)]
pub struct SchedLog {
    pub picks: Vec<TaskPick>,
}

impl SchedLog {
    /// Picks that ran at a different per-source position than the caller's
    /// sequence gave them.
    pub fn deviations(&self) -> Vec<TaskPick> {
        self.picks
            .iter()
            .copied()
            .filter(|p| p.planned_pos != p.actual_pos)
            .collect()
    }
}

/// The per-request half of [`crate::pipeline::MediatorOptions`]: everything
/// the **Execute** stage consumes, and the single source of truth for the
/// executor switches (retry, integrity, batching). A
/// change of policy never invalidates a cached plan — the same
/// [`crate::plan::PreparedPlan`] serves strict and lenient requests alike.
#[derive(Debug, Clone)]
pub struct ExecPolicy {
    /// Whether compiled-constraint guards abort the run.
    pub check_guards: bool,
    /// Whether the integrity defense runs: the key/inclusion constraint
    /// check on the tagged document, and — only when `faults` is `Some` —
    /// the per-task check of each shipped relation, with detections
    /// recorded in the report's integrity ledger. Without a fault plan no
    /// shipped relation is checked.
    pub check_integrity: bool,
    /// Execute with the per-source worker threads of [`crate::parallel`]
    /// instead of the sequential executor.
    pub parallel_exec: bool,
    pub network: crate::sim::NetworkModel,
    /// Deterministic fault injection for source tasks (None = no faults).
    /// This is the *configuration*; the executors consume the bound
    /// [`ExecOptions::faults`] plan.
    pub faults: Option<crate::faults::FaultConfig>,
    /// Retry/backoff/timeout policy when faults are injected.
    pub retry: RetryPolicy,
    /// Selects nothing and is read by nothing: every kernel inside a task
    /// runs on the task's thread (see [`aig_relstore::par`]). Copied from
    /// [`crate::pipeline::MediatorOptions::threads`]; the field stays
    /// because callers outside the workspace still set it.
    pub threads: usize,
    /// Chunked shipment, a pricing model read only by the ship seam
    /// ([`crate::batch`]): each task output's ship image is priced as its
    /// `batch_rows`-row ranges, each shipping the dictionary slice its rows
    /// touch, and holds two batches at the seam instead of the whole
    /// relation. No operator runs differently; stores and documents are
    /// byte-identical either way. Off by default.
    pub batching: bool,
    /// Rows per batch of the chunked shipment; only read when `batching`
    /// is on. `usize::MAX` prices each image as one batch, as materializing
    /// does.
    pub batch_rows: usize,
    /// Incremental re-evaluation on source deltas (see [`crate::delta`]):
    /// when on, the [`crate::service::Mediator`] keeps a post-run snapshot
    /// (store + per-task measurements) per prepared plan and, after a
    /// [`aig_relstore::SourceDelta`], re-runs only the task subgraph whose
    /// read-sets intersect the delta's touched tables — splicing the
    /// re-shipped sub-relations into the cached store and tagging the
    /// spliced store as a cold run does. Documents are byte-identical to a
    /// cold full run either way; off by default.
    pub incremental: bool,
}

/// The defaults are [`crate::pipeline::MediatorOptions`]'s, declared there.
impl Default for ExecPolicy {
    fn default() -> Self {
        crate::pipeline::MediatorOptions::default().exec_policy()
    }
}

/// Execution options: an [`ExecPolicy`] plus the per-run state the caller
/// must bind (the catalog-bound fault plan, pacing, ship-cut profiles and
/// the started deadline clock). Policy switches are read from the `policy`
/// field, the one source of truth for them.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// The shared policy (retry, guard/integrity switches,
    /// network model, batching knobs).
    pub policy: ExecPolicy,
    /// Deterministic fault injection bound to a catalog (None = no
    /// faults). Bound by the caller from [`ExecPolicy::faults`].
    pub faults: Option<FaultPlan>,
    /// Nothing in the library reads or writes it (the calibration the
    /// response simulation uses is
    /// [`crate::graph::GraphOptions::eval_scale`]). The field stays because
    /// callers outside the workspace still set it.
    pub eval_scale: f64,
    /// Optional per-task pacing: task `i` sleeps `pace[i]` seconds inside
    /// its measured execution window. Lets benches and tests emulate slow
    /// autonomous sources with controlled, reproducible durations. Every
    /// entry must be a [`Duration`]: a walk refuses a negative, NaN,
    /// infinite or out-of-range one before any task runs
    /// ([`ConfigError::BadPace`]).
    pub pace: Option<Vec<f64>>,
    /// Ship-cut liveness profiles (see [`crate::shipcut`]): when set, each
    /// task's [`Measured::ship_bytes`] is the size of the column-pruned
    /// (and possibly deduplicated) ship image of its output instead of the
    /// full relation. Stores and documents are unaffected either way.
    pub shipcut: Option<Arc<ShipCut>>,
    /// Per-request deadline budget: no task attempt starts past it, sleeps
    /// are clamped to it, and expiry surfaces as
    /// [`MediatorError::DeadlineExceeded`]. Bound per request from
    /// [`crate::service::RequestCtx::deadline_secs`]; the clock starts when
    /// the request does.
    pub deadline: Option<crate::faults::Deadline>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions::new(ExecPolicy::default())
    }
}

impl ExecOptions {
    /// The first pace entry no sleep can take, as the error naming its task.
    pub(crate) fn check_pace(&self) -> Result<(), ConfigError> {
        let mut pace = self.pace.iter().flatten().enumerate();
        match pace.find(|(_, &secs)| Duration::try_from_secs_f64(secs).is_err()) {
            Some((task, &value)) => Err(ConfigError::BadPace { task, value }),
            None => Ok(()),
        }
    }

    /// Wraps a policy with nothing bound yet — the canonical constructor.
    pub fn new(policy: ExecPolicy) -> ExecOptions {
        ExecOptions {
            policy,
            faults: None,
            eval_scale: 1.0,
            pace: None,
            shipcut: None,
            deadline: None,
        }
    }
}

/// The one place a policy meets a catalog: executor options for `policy`
/// with its fault configuration bound to `catalog`, so every run under them
/// replays the same deterministic fault stream.
pub(crate) fn bind_policy(
    policy: ExecPolicy,
    catalog: &Catalog,
) -> Result<ExecOptions, MediatorError> {
    let faults = match &policy.faults {
        Some(cfg) => Some(FaultPlan::new(cfg, catalog)?),
        None => None,
    };
    Ok(ExecOptions {
        faults,
        ..ExecOptions::new(policy)
    })
}

/// Measured per-task execution: wall-clock seconds plus actual input and
/// output sizes and (for the parallel executor) queue/wait accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct Measured {
    pub secs: f64,
    pub out_rows: f64,
    pub out_bytes: f64,
    /// Dictionary-encoded wire size of the full output relation — what an
    /// unpruned shipment of the output would cost on the wire. Note this can
    /// exceed the raw `out_bytes` for small all-distinct relations (the
    /// dictionary is the data plus per-row codes).
    pub wire_bytes: f64,
    /// Bytes of the output's *ship image* — the column-pruned (and, for
    /// duplicate-insensitive consumers, deduplicated) relation a ship-cut
    /// shipper puts on the wire — as the ship seam ([`crate::batch`])
    /// prices it. On a materializing run it equals `wire_bytes` when
    /// ship-cut is off and never exceeds it (pruning drops columns and rows,
    /// and the dictionary encoding is monotone under both); batching prices
    /// each batch's dictionary slice on its own.
    pub ship_bytes: f64,
    /// Batches the output crossed the ship seam in: 1 per shipped output
    /// when materializing, `ceil(image_rows / batch_rows)` under chunked
    /// shipment (0 for guards and empty batched images).
    pub batches: u64,
    /// Rows read from dependency relations (distinct input relations).
    pub in_rows: f64,
    /// Seconds the task was blocked waiting for its inputs (exactly zero on
    /// the one-worker walk, which never blocks).
    pub wait_secs: f64,
    /// Offset of the task's start from the beginning of the execution.
    pub start_secs: f64,
}

/// Read access to the relations produced so far, each by the id of the task
/// that writes it: the walk ([`crate::parallel`]) fills a [`RelStore`].
pub trait RelSource {
    fn rel(&self, task: usize) -> Result<&Relation, MediatorError>;
}

/// All relations an execution produced: one write-once slot per task, by
/// task id — the walk's slots as it left them. `Clone` so the service can
/// retain a completed run's store as the splice base of incremental
/// re-evaluation (relations share their columns; a clone copies handles).
#[derive(Debug, Clone)]
pub struct RelStore {
    producer: Producers,
    pub(crate) slots: Vec<OnceLock<Relation>>,
}

impl RelSource for RelStore {
    fn rel(&self, task: usize) -> Result<&Relation, MediatorError> {
        self.slots.get(task).and_then(OnceLock::get).ok_or_else(|| {
            MediatorError::Internal(format!(
                "the relation of task {task} read before its producer completed"
            ))
        })
    }
}

impl RelStore {
    /// An empty slot for every task of `graph`.
    pub(crate) fn new(graph: &TaskGraph) -> RelStore {
        RelStore {
            producer: graph.producer.clone(),
            slots: (0..graph.len()).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The relation `key` names, found through the graph's producer map:
    /// the lookup by key, for readers outside a run.
    pub fn get(&self, key: &RelKey) -> Result<&Relation, MediatorError> {
        match self.producer.get(key) {
            Some(&task) => self.rel(task),
            None => Err(MediatorError::Internal(format!("no task writes {key:?}"))),
        }
    }
}

/// The result of executing a task graph.
#[derive(Debug)]
pub struct ExecResult {
    pub store: RelStore,
    /// Per task (parallel to `graph.tasks`).
    pub measured: Vec<Measured>,
    /// What the fault layer did: one event per injected fault (fail-stop
    /// or wrong answer) with its resolution, and the re-plans.
    pub faults: FaultLog,
    /// What the scheduler did (dynamic picks; empty under static).
    pub sched: SchedLog,
    /// What the chunked-shipment seam did (batch counts, peak resident
    /// rows); `enabled: false` with one batch per output when off.
    pub batch: crate::batch::BatchLog,
}

/// The only failover: where every task runs once sources die. Owns the
/// effective source per task, the failover catalog view, the per-source
/// completion counts behind the mid-run outage model ("source dies after k
/// tasks"), and the count of failovers performed — reported as
/// [`FaultLog::replans`] by every driver.
pub(crate) struct Failover<'a> {
    base: &'a Catalog,
    graph: &'a TaskGraph,
    plan: Option<&'a FaultPlan>,
    /// Effective source per task: its own until a failover re-homes it.
    pub(crate) effective: Vec<SourceId>,
    /// The catalog view with every failed-over primary served by its
    /// replica (None until the first failover).
    active: Option<Catalog>,
    /// Tasks completed per effective source, indexed by source id. Atomic
    /// so the parallel driver's workers count through a shared reference.
    completed_at: Vec<AtomicUsize>,
    pub(crate) replans: usize,
}

impl<'a> Failover<'a> {
    pub(crate) fn new(
        catalog: &'a Catalog,
        graph: &'a TaskGraph,
        plan: Option<&'a FaultPlan>,
    ) -> Failover<'a> {
        Failover {
            base: catalog,
            graph,
            plan,
            effective: graph.tasks.iter().map(|t| t.source).collect(),
            active: None,
            completed_at: (0..catalog.len()).map(|_| AtomicUsize::new(0)).collect(),
            replans: 0,
        }
    }

    /// The catalog tasks run against: the failover view once one exists.
    pub(crate) fn catalog(&self) -> &Catalog {
        self.active.as_ref().unwrap_or(self.base)
    }

    /// Records one completed task at `source`.
    pub(crate) fn task_done(&self, source: SourceId) {
        if !source.is_mediator() {
            self.completed_at[source.index()].fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Whether `source` is hard-down for the whole run or has completed
    /// its allotted task count and died.
    pub(crate) fn is_dead(&self, source: SourceId) -> bool {
        let completed = || self.completed_at[source.index()].load(Ordering::SeqCst);
        !source.is_mediator()
            && self.plan.is_some_and(|plan| {
                plan.source_down(source)
                    || plan.outage_after(source).is_some_and(|k| completed() >= k)
            })
    }

    /// Re-homes the `pending` (not-yet-done, topologically ordered) tasks of
    /// the dead source to its declared replica — which must itself be
    /// alive — or fails with a structured error naming the lost tasks.
    pub(crate) fn fail_over(
        &mut self,
        dead: SourceId,
        pending: &[usize],
    ) -> Result<(), MediatorError> {
        let cat = self.catalog();
        let Some(replica) = cat.replica_of(dead).filter(|r| !self.is_dead(*r)) else {
            return Err(MediatorError::SourceUnavailable {
                source: self.base.source(dead).name().to_string(),
                lost_tasks: pending
                    .iter()
                    .filter(|&&t| self.effective[t] == dead)
                    .map(|&t| self.graph.tasks[t].label.clone())
                    .collect(),
            });
        };
        self.active = Some(cat.failover(dead).expect("replica is declared"));
        for &t in pending {
            if self.effective[t] == dead {
                self.effective[t] = replica;
            }
        }
        self.replans += 1;
        Ok(())
    }
}

/// Executes every task of `graph` in topological order on the calling
/// thread: the walk of [`crate::parallel`] with one worker.
pub fn execute_graph(
    aig: &Aig,
    catalog: &Catalog,
    graph: &TaskGraph,
    args: &[(&str, Value)],
    opts: &ExecOptions,
) -> Result<ExecResult, MediatorError> {
    crate::parallel::walk(aig, catalog, graph, args, opts, None, None)
}

/// Total rows across the task's input relations, each read once
/// (observability accounting; reads that fail — e.g. a producer with no
/// output — count 0).
fn input_rows<S: RelSource>(task: &Task, store: &S) -> f64 {
    (task.deps.iter())
        .filter_map(|&(producer, _)| store.rel(producer).ok())
        .map(|rel| rel.len() as f64)
        .sum()
}

/// What running a task gave: its relation (None for guards) or error, its
/// measurements, and the rows its output's shipment held at the seam.
pub(crate) type Ran = (Result<Option<Relation>, MediatorError>, Measured, usize);

/// The one task body: every worker of [`crate::parallel::walk`] — the one
/// worker of a sequential run or a worker per source — runs its tasks
/// through it.
pub(crate) struct Executor<'a, S: RelSource> {
    pub(crate) aig: &'a Aig,
    /// The catalog tasks run against (the failover view once one exists).
    pub(crate) catalog: &'a Catalog,
    pub(crate) graph: &'a TaskGraph,
    pub(crate) store: &'a S,
    pub(crate) opts: &'a ExecOptions,
    pub(crate) args: &'a [(&'a str, Value)],
    /// Start of the run: task start offsets are stamped against it.
    pub(crate) epoch: Instant,
}

impl<S: RelSource> Executor<'_, S> {
    /// Runs task `id` at its effective `source` and measures it: input
    /// rows, the integrity profile (only under a fault plan that can
    /// corrupt or guard an attempt), pacing inside the measured window, the
    /// fault layer's retry loop and the ship seam. Nothing else contends
    /// for the source: a walk runs at most one worker per effective source.
    /// Fault events are appended to `events`.
    pub(crate) fn run_measured(
        &self,
        id: usize,
        source: SourceId,
        wait_secs: f64,
        events: &mut Vec<FaultEvent>,
    ) -> Ran {
        let (task, opts) = (&self.graph.tasks[id], self.opts);
        let in_rows = input_rows(task, self.store);
        let start = Instant::now();
        let start_secs = (start - self.epoch).as_secs_f64();
        let profile = (opts.faults.as_ref())
            .filter(|p| opts.policy.check_integrity || p.has_wrong_answer_faults())
            .and_then(|_| integrity::profile_task(task, self.catalog));
        if let Some(secs) = opts.pace.as_ref().and_then(|p| p.get(id)) {
            crate::faults::sleep_secs(*secs);
        }
        let ctx = TaskFaultCtx {
            task_id: id,
            label: &task.label,
            source,
            source_name: self.catalog.source(source).name(),
            table: integrity::task_table(task),
            failed_over_from: (source != task.source)
                .then(|| self.catalog.source(task.source).name()),
            profile: profile.as_ref(),
            check_integrity: opts.policy.check_integrity,
        };
        let env = FaultEnv {
            plan: opts.faults.as_ref(),
            retry: &opts.policy.retry,
            deadline: opts.deadline.as_ref(),
        };
        let result = env.run_task(&ctx, events, || self.run_task(task));
        let mut measured = Measured {
            secs: start.elapsed().as_secs_f64(),
            in_rows,
            wait_secs,
            start_secs,
            ..Measured::default()
        };
        let mut resident_rows = 0;
        if let Ok(Some(rel)) = &result {
            let shipped = crate::batch::ship(opts, id, rel);
            measured.out_rows = rel.len() as f64;
            measured.out_bytes = rel.byte_size() as f64;
            measured.wire_bytes = rel.wire_bytes() as f64;
            measured.ship_bytes = shipped.bytes;
            measured.batches = shipped.batches;
            resident_rows = shipped.resident_rows;
        }
        (result, measured, resident_rows)
    }

    /// Runs one task against the relations visible through `store`,
    /// returning the relation it produces (None for guards).
    fn run_task(&self, task: &Task) -> Result<Option<Relation>, MediatorError> {
        match &task.kind {
            TaskKind::Root { tag } => {
                let root_info = self.aig.elem_info(self.aig.root);
                let zero = intern::int_syms(1)[0];
                let mut row = vec![zero, intern::intern(&Value::int(-1)), zero, *tag];
                for decl in root_info.inh.iter().filter(|d| d.ty.is_scalar()) {
                    let v = self
                        .args
                        .iter()
                        .find(|(n, _)| *n == decl.name)
                        .map(|(_, v)| v)
                        .ok_or_else(|| {
                            MediatorError::Aig(AigError::Spec(format!(
                                "missing value for AIG parameter `{}`",
                                decl.name
                            )))
                        })?;
                    row.push(intern::intern(v));
                }
                let mut rel = Relation::empty(task.schema.clone());
                rel.push_syms(&row);
                Ok(Some(rel))
            }
            TaskKind::Gen {
                parent,
                query,
                set_input,
                broadcast,
                generated_fields,
                ..
            } => {
                let queried;
                // A query's output (`__parent`, fields…) or the iterated set
                // (`__owner`, comps…): the parent in column 0 either way.
                let raw: &Relation = if let Some(vq) = query {
                    queried = self.run_vector_query(vq)?;
                    &queried
                } else {
                    let input = set_input.as_ref().ok_or_else(|| {
                        MediatorError::Internal("set generator without input".to_string())
                    })?;
                    self.store.rel(input.task)?
                };
                // Child columns: parent, ord, scalar fields in decl order.
                let base = self.instances(parent.base)?;
                let rowids = base.col_syms(base.col("__rowid")?);
                let out_columns = &task.schema;
                let parents = raw.col_syms(0);
                if raw.is_empty() {
                    return Ok(Some(Relation::empty(out_columns.clone())));
                }
                // Where each field column reads from, resolved once: the
                // query output at the row's own position (generated) or the
                // parent's base row (broadcast).
                let mut key_cols: Vec<&[Sym]> = Vec::new();
                let mut fields: Vec<(bool, ScalarCol)> = Vec::new();
                for field in &out_columns[2..] {
                    if generated_fields.iter().any(|g| g == field) {
                        let c = raw.col(field)?;
                        key_cols.push(raw.col_syms(c));
                        fields.push((true, ScalarCol::Col(c)));
                    } else if let Some((_, bind)) = broadcast.iter().find(|(n, _)| n == field) {
                        fields.push((false, ScalarCol::of_bind(bind, base)?));
                    } else {
                        return Err(MediatorError::Internal(format!(
                            "field `{field}` neither generated nor broadcast"
                        )));
                    }
                }
                // Canonical per-parent order: (parent, fields), then ordinal,
                // in value-domain order (never symbol order). Parents are the
                // ids `0..n`, so a counting sort groups the rows by parent in
                // that order; each parent's few rows are then stable-sorted
                // by the generated fields (rows of one parent agree on every
                // broadcast field).
                let reader = Reader::snapshot();
                let ids = InstanceIds::new(self.aig.elem_name(parent.base), rowids, &reader)?;
                let parent_ids: Vec<u32> = (ids.ids_of(&reader, parents).zip(parents))
                    .map(|(id, &p)| id.ok_or_else(|| ids.bad("`__parent`", reader.get(p))))
                    .collect::<Result<_, _>>()?;
                let (start, mut perm) = group_rows(&parent_ids, ids.len());
                for bounds in start.windows(2).filter(|b| b[1] - b[0] > 1) {
                    let siblings = &mut perm[bounds[0] as usize..bounds[1] as usize];
                    siblings.sort_by(|&a, &b| {
                        (key_cols.iter())
                            .map(|k| reader.cmp(k[a as usize], k[b as usize]))
                            .find(|o| o.is_ne())
                            .unwrap_or(std::cmp::Ordering::Equal)
                    });
                }
                // Ordinals restart per parent; broadcast fields read the
                // parent's row.
                let ord_syms = intern::int_syms(raw.len());
                let mut ords = Vec::with_capacity(raw.len());
                let mut parent_rows = Vec::with_capacity(raw.len());
                for (id, bounds) in (0u32..).zip(start.windows(2)) {
                    let siblings = (bounds[1] - bounds[0]) as usize;
                    ords.extend_from_slice(&ord_syms[..siblings]);
                    parent_rows.extend(std::iter::repeat_n(id, siblings));
                }
                let mut cols = vec![apply_perm(parents, &perm), ords];
                cols.extend(fields.iter().map(|(generated, col)| match generated {
                    true => col.gather(raw, &perm),
                    false => col.gather(base, &parent_rows),
                }));
                Ok(Some(Relation::try_from_columns(out_columns.clone(), cols)?))
            }
            TaskKind::InhSetQuery {
                target,
                field,
                query,
            } => {
                let mut rel = self
                    .run_vector_query(query)?
                    .with_columns(task.schema.clone());
                // Coerce: dedup for set-typed targets, keep bags.
                let binding = self.binding(target)?;
                let info = self.aig.elem_info(binding.elem);
                if let Some(decl) = info.inh.iter().find(|f| &f.name == field) {
                    if matches!(decl.ty, FieldType::Set(_)) {
                        rel.dedup();
                    }
                }
                Ok(Some(rel))
            }
            TaskKind::Assemble { inputs, .. } => {
                let columns = &task.schema;
                let mut parts = Vec::with_capacity(inputs.len());
                for &(producer, occ) in inputs {
                    let part = self.store.rel(producer)?;
                    if part.arity() + 2 != columns.len() {
                        return Err(MediatorError::Store(StoreError::SchemaMismatch {
                            table: "<relation>".to_string(),
                            msg: format!(
                                "assemble input `{}` has {} columns, {} expected",
                                intern::resolve(occ).to_text(),
                                part.arity(),
                                columns.len() - 2
                            ),
                        }));
                    }
                    parts.push((part, occ));
                }
                // part: __parent, __ord, fields… — concatenated under
                // __rowid, __parent, __ord, __occ, fields…
                let rows = parts.iter().map(|(part, _)| part.len()).sum();
                let cols = (0..columns.len()).map(|c| match c {
                    0 => SharedCol::from(intern::int_syms(rows)[..rows].to_vec()),
                    3 => {
                        let mut occs = Vec::with_capacity(rows);
                        for &(part, occ) in &parts {
                            occs.extend(std::iter::repeat_n(occ, part.len()));
                        }
                        occs.into()
                    }
                    _ => {
                        let c = if c < 3 { c - 1 } else { c - 2 };
                        match parts.as_slice() {
                            // One part's column is shared, not copied.
                            [(part, _)] => part.shared_col(c),
                            _ => {
                                let mut col = Vec::with_capacity(rows);
                                for (part, _) in &parts {
                                    col.extend_from_slice(part.col_syms(c));
                                }
                                col.into()
                            }
                        }
                    }
                });
                Ok(Some(Relation::from_shared(
                    columns.clone(),
                    cols.collect(),
                )?))
            }
            TaskKind::Cond { occ, query } => {
                let elem_name = self.aig.elem_name(self.binding(occ)?.elem);
                let bad = |detail: String| {
                    MediatorError::Aig(AigError::BadConditionResult {
                        elem: elem_name.to_string(),
                        detail,
                    })
                };
                let raw = self.run_vector_query(query)?;
                let base = self.instances(occ.base)?;
                let parent_col = raw.col("__parent")?;
                if raw.arity() != 2 {
                    return Err(bad(format!(
                        "condition query returns {} columns",
                        raw.arity() - 1
                    )));
                }
                // Exactly one row per owner, placed at its id; the pick is an
                // integer (`Sym::NULL`: none yet). `__parent` is always
                // prepended first; the pick value is the remaining column.
                let reader = Reader::snapshot();
                let rowids = base.col_syms(base.col("__rowid")?);
                let ids = InstanceIds::new(self.aig.elem_name(occ.base), rowids, &reader)?;
                let mut picks = vec![Sym::NULL; ids.len()];
                for (&owner, &value) in raw.col_syms(parent_col).iter().zip(raw.col_syms(1)) {
                    let pick = match reader.get(value) {
                        Value::Int(_) => value,
                        Value::Str(s) => match s.parse::<i64>() {
                            Ok(i) => intern::intern(&Value::int(i)),
                            Err(_) => return Err(bad(format!("value {s:?} is not an integer"))),
                        },
                        Value::Null => return Err(bad("condition query returned NULL".into())),
                    };
                    let id = ids.id(&reader, owner);
                    let id = id.ok_or_else(|| ids.bad("`__parent`", reader.get(owner)))?;
                    if std::mem::replace(&mut picks[id as usize], pick) != Sym::NULL {
                        return Err(bad("more than one row for an instance".into()));
                    }
                }
                if raw.len() != ids.len() {
                    return Err(bad(format!(
                        "condition produced {} picks for {} instances",
                        raw.len(),
                        ids.len()
                    )));
                }
                let cols = vec![rowids.to_vec(), picks];
                Ok(Some(Relation::try_from_columns(task.schema.clone(), cols)?))
            }
            TaskKind::BranchMat { occ, branch, picks } => {
                let binding = self.binding(occ)?;
                let info = self.aig.elem_info(binding.elem);
                let Prod::Choice { branches, .. } = &info.prod else {
                    return Err(MediatorError::Internal("branch of non-choice".into()));
                };
                let spec = &branches[*branch];
                let picks = self.store.rel(*picks)?;
                let base = self.instances(occ.base)?;
                let rowids = base.col_syms(base.col("__rowid")?);
                let columns = &task.schema;
                // The owners that picked this branch, and their base rows; a
                // never-interned pick value is one no owner can carry.
                let wanted = intern::lookup(&Value::int(*branch as i64 + 1));
                let reader = Reader::snapshot();
                let ids = InstanceIds::new(self.aig.elem_name(occ.base), rowids, &reader)?;
                let (mut owners, mut rows) = (Vec::new(), Vec::new());
                for (&owner, &pick) in picks.col_syms(0).iter().zip(picks.col_syms(1)) {
                    if Some(pick) == wanted {
                        let id = ids.id(&reader, owner);
                        rows.push(id.ok_or_else(|| ids.bad("`__owner`", reader.get(owner)))?);
                        owners.push(owner);
                    }
                }
                if owners.is_empty() {
                    return Ok(Some(Relation::empty(columns.clone())));
                }
                let ords = vec![intern::int_syms(1)[0]; owners.len()];
                let mut cols = vec![owners, ords];
                for field in &columns[2..] {
                    let rule = spec.assigns.iter().find(|(f, _)| f == field);
                    cols.push(match rule {
                        Some((_, FieldRule::Scalar(expr))) => {
                            scalar_col(self.aig, binding, expr, base, "scalar expression at")?
                                .gather(base, &rows)
                        }
                        _ => vec![Sym::NULL; rows.len()],
                    });
                }
                Ok(Some(Relation::try_from_columns(columns.clone(), cols)?))
            }
            TaskKind::SynAgg {
                occ, bag, steps, ..
            } => Ok(Some(self.compute_syn(task, occ, *bag, steps)?)),
            TaskKind::Guard { occ, guard } => {
                if self.opts.policy.check_guards {
                    self.check_guard(occ, *guard)?;
                }
                Ok(None)
            }
        }
    }

    /// `elem`'s instance table.
    fn instances(&self, elem: aig_core::spec::ElemIdx) -> Result<&Relation, MediatorError> {
        self.store.rel(self.graph.instances_of(elem))
    }

    fn binding(&self, occ: &Occ) -> Result<&Binding, MediatorError> {
        self.graph.bindings.get(occ).ok_or_else(|| {
            MediatorError::Internal(format!("unknown occurrence {}", occ.key(self.aig)))
        })
    }

    /// The element of `occ`'s starred `item` (the row-major references of
    /// `columnar_tests` resolve children through it; the task bodies read
    /// the plan's schemas).
    #[cfg(test)]
    fn child_of(&self, occ: &Occ, item: usize) -> Result<aig_core::spec::ElemIdx, MediatorError> {
        let binding = self.binding(occ)?;
        match &self.aig.elem_info(binding.elem).prod {
            Prod::Items(items) => Ok(items[item].elem),
            _ => Err(MediatorError::Internal("child of leaf production".into())),
        }
    }

    /// Runs a vectorized query's bound form against the catalog, passing
    /// its relation parameters from the store by their position in its
    /// inputs.
    fn run_vector_query(&self, vq: &VectorQuery) -> Result<Relation, MediatorError> {
        // Each input is read from the store once, in order, before the
        // query runs; the distinct pairs of an `IN` set are the only
        // relations built for it. A query has a few inputs: their slots sit
        // on the stack.
        let (mut inline, mut spilled) = ([None; 8], Vec::new());
        let slots: &mut [Option<&Relation>] = match vq.inputs.len() {
            n if n <= inline.len() => &mut inline[..n],
            n => {
                spilled.resize(n, None);
                &mut spilled
            }
        };
        let mut distinct = Vec::new();
        for ((_, input), slot) in vq.inputs.iter().zip(slots.iter_mut()) {
            match input {
                ParamInput::Rel(input) => *slot = Some(self.store.rel(input.task)?),
                ParamInput::RelFirstDistinct(input) => {
                    distinct.push(first_distinct(self.store.rel(input.task)?)?);
                }
            }
        }
        let bound = vq.bound.as_ref().map_err(Clone::clone)?;
        let rel = |at: usize| match slots.get(at)? {
            Some(rel) => Some(*rel),
            None => {
                let before = vq.inputs[..at].iter();
                let n = before.filter(|(_, i)| matches!(i, ParamInput::RelFirstDistinct(_)));
                distinct.get(n.count())
            }
        };
        let columns = vq.columns.clone();
        Ok(bound.run(&vq.query, self.catalog, rel, columns)?)
    }

    /// Computes a synthesized set/bag table `(__owner, comps…)` in one pass
    /// of the `steps` the graph compiled from its rule, each reached row
    /// labeled with the owner that collects it. Leaves emit in rule order,
    /// each in row order, so the one dedup at the end (unless a `bag`) keeps
    /// what the per-level evaluation kept: first-occurrence dedup satisfies
    /// dedup(rekey(dedup X)) = dedup(rekey X).
    fn compute_syn(
        &self,
        task: &Task,
        occ: &Occ,
        bag: bool,
        steps: &[SynStep],
    ) -> Result<Relation, MediatorError> {
        let reader = Reader::snapshot();
        let base = self.instances(occ.base)?;
        let rowids = base.col_syms(base.col("__rowid")?);
        let top = Reached {
            ids: InstanceIds::new(self.aig.elem_name(occ.base), rowids, &reader)?,
            table: base,
            labels: (0..base.len() as u32).collect(),
        };
        let mut rows = SynRows {
            owners: Vec::new(),
            comps: vec![Vec::new(); task.schema.len() - 1],
        };
        self.run_syn(&reader, &mut rows, &top, steps)?;
        let mut cols = vec![apply_perm(rowids, &rows.owners)];
        cols.extend(rows.comps);
        let mut out = Relation::try_from_columns(task.schema.clone(), cols)?;
        if !bag {
            out.dedup();
        }
        Ok(out)
    }

    /// Runs `steps` over the rows `at` reached, appending what they emit to
    /// `rows`. `reader` was taken before the pass: every symbol it reads is
    /// in a finished input.
    fn run_syn(
        &self,
        reader: &Reader,
        rows: &mut SynRows,
        at: &Reached,
        steps: &[SynStep],
    ) -> Result<(), MediatorError> {
        for step in steps {
            match step {
                SynStep::Child { elem, tag, body } => {
                    let table = self.instances(*elem)?;
                    let rowids = table.col_syms(table.col("__rowid")?);
                    let parents = table.col_syms(table.col("__parent")?);
                    let occs = table.col_syms(table.col("__occ")?);
                    // Each row takes the label of its parent row.
                    let mut labels = vec![NO_ROW; table.len()];
                    let ids = at.ids.ids_of(reader, parents);
                    for ((label, &occ), id) in labels.iter_mut().zip(occs).zip(ids) {
                        if let (true, Some(id)) = (occ == *tag, id) {
                            *label = at.labels[id as usize];
                        }
                    }
                    let child = Reached {
                        ids: InstanceIds::new(self.aig.elem_name(*elem), rowids, reader)?,
                        table,
                        labels,
                    };
                    self.run_syn(reader, rows, &child, body)?;
                }
                SynStep::Keyed(input) => {
                    let rel = self.store.rel(input.task)?;
                    if rel.arity() != rows.comps.len() + 1 {
                        return Err(MediatorError::Internal("a set of another arity".into()));
                    }
                    let owners = at.ids.ids_of(reader, rel.col_syms(0));
                    let labels: Vec<u32> = owners
                        .map(|id| id.map_or(NO_ROW, |id| at.labels[id as usize]))
                        .collect();
                    let comps = (1..rel.arity()).map(|c| Ok(ScalarCol::Col(c)));
                    rows.extend(rel, &labels, comps)?;
                }
                SynStep::Singleton(binds) => {
                    let binds = binds.as_ref().map_err(|e| MediatorError::clone(e))?;
                    let scalars = binds.iter().map(|b| ScalarCol::of_bind(b, at.table));
                    rows.extend(at.table, &at.labels, scalars)?;
                }
            }
        }
        Ok(())
    }

    fn check_guard(&self, occ: &Occ, guard: usize) -> Result<(), MediatorError> {
        let binding = self.binding(occ)?;
        let info = self.aig.elem_info(binding.elem);
        let g = &info.guards[guard];
        // The relation of the guard's `at`-th field, fixed at build.
        let field_rel = |at: usize| {
            let inputs = binding.guard_fields.get(guard);
            let input = inputs.and_then(|inputs| inputs.get(at)).ok_or_else(|| {
                MediatorError::Internal(format!("guard {} has no field {at}", g.label))
            })?;
            self.store.rel(input.task)
        };
        // The guard's verdict: row `r` of `rel`, if any, violates it.
        let verdict = |rel: &Relation, offender: Option<usize>| match offender {
            None => Ok(()),
            Some(r) => Err(MediatorError::Aig(AigError::ConstraintViolation {
                constraint: g.label.clone(),
                context: format!("{} instance {}", info.tag(), rel.cell(r, 0).to_text()),
                value: format!("{:?}", &rel.row(r)[1..]),
            })),
        };
        match &g.kind {
            GuardKind::Unique { .. } => {
                let rel = field_rel(0)?;
                let mut seen = RowTable::new(all_cols(rel), rel.len());
                verdict(
                    rel,
                    (0..rel.len()).find(|&r| seen.insert(r as u32).is_some()),
                )
            }
            GuardKind::Subset { .. } => {
                let (sub_rel, sup_rel) = (field_rel(0)?, field_rel(1)?);
                let mut sup_rows = RowTable::new(all_cols(sup_rel), sup_rel.len());
                for r in 0..sup_rel.len() as u32 {
                    sup_rows.insert(r);
                }
                // Rows of different widths are never equal.
                let comparable = sub_rel.arity() == sup_rel.arity();
                let sub_cols = all_cols(sub_rel);
                let missing =
                    |&r: &usize| !comparable || sup_rows.find(|c| sub_cols[c][r]).is_none();
                verdict(sub_rel, (0..sub_rel.len()).find(missing))
            }
        }
    }
}

/// The distinct (`__owner`, first component) rows of a set relation, as
/// `__owner`, `__member`: the set-oriented form of an `IN` predicate.
fn first_distinct(rel: &Relation) -> Result<Relation, MediatorError> {
    let owner = rel.col("__owner")?;
    let member = rel.col(&rel.columns()[1])?;
    let cols = vec![rel.shared_col(owner), rel.shared_col(member)];
    let mut out = Relation::from_shared(member_columns().clone(), cols)?;
    out.dedup();
    Ok(out)
}

/// Every symbol column of `rel`: the key columns of a whole-row table.
fn all_cols(rel: &Relation) -> Vec<&[Sym]> {
    (0..rel.arity()).map(|c| rel.col_syms(c)).collect()
}

/// Instance-table column layout for an element with the given inherited
/// declarations.
pub fn instance_columns(inh: &[aig_core::FieldDecl]) -> Vec<String> {
    let mut columns = vec!["__rowid".to_string()];
    columns.extend(child_columns(inh));
    columns.insert(3, "__occ".to_string());
    columns
}

/// Column layout of a generator or branch output — an instance-table part
/// before assembly: `__parent`, `__ord`, then the child's scalar fields.
pub(crate) fn child_columns(inh: &[aig_core::FieldDecl]) -> Vec<String> {
    let mut columns = vec!["__parent".to_string(), "__ord".to_string()];
    columns.extend(
        inh.iter()
            .filter(|f| f.ty.is_scalar())
            .map(|f| f.name.clone()),
    );
    columns
}

/// How a scalar reads out of an instance table — a column of it or one
/// constant symbol — resolved through the copy chain once per task (or per
/// tagged occurrence), never per row.
#[derive(Clone, Copy)]
pub(crate) enum ScalarCol {
    Const(Sym),
    Col(usize),
}

impl ScalarCol {
    pub(crate) fn of_bind(bind: &ScalarBind, base: &Relation) -> Result<ScalarCol, MediatorError> {
        Ok(match bind {
            ScalarBind::Const(v) => ScalarCol::Const(intern::intern(v)),
            ScalarBind::Col(c) => ScalarCol::Col(base.col(c)?),
        })
    }

    /// The scalar at row `row` of `base`.
    pub(crate) fn at(&self, base: &Relation, row: usize) -> Sym {
        match *self {
            ScalarCol::Const(sym) => sym,
            ScalarCol::Col(c) => base.sym(row, c),
        }
    }

    /// The scalar's column over the rows of `base` at `rows`.
    fn gather(&self, base: &Relation, rows: &[u32]) -> Vec<Sym> {
        match *self {
            ScalarCol::Const(sym) => vec![sym; rows.len()],
            ScalarCol::Col(c) => apply_perm(base.col_syms(c), rows),
        }
    }
}

/// Resolves a scalar rule expression of `binding`'s element against its
/// base instance table; `what` names the expression in the error (`PCDATA
/// of`, `scalar expression at`).
pub(crate) fn scalar_col(
    aig: &Aig,
    binding: &Binding,
    expr: &ValueExpr,
    base: &Relation,
    what: &str,
) -> Result<ScalarCol, MediatorError> {
    ScalarCol::of_bind(&*scalar_bind(aig, binding, expr, what)?, base)
}

/// [`scalar_col`]'s resolution through the copy chain, before any table is
/// read: a constant, or `binding`'s bind of an inherited field.
pub(crate) fn scalar_bind<'b>(
    aig: &Aig,
    binding: &'b Binding,
    expr: &ValueExpr,
    what: &str,
) -> Result<Cow<'b, ScalarBind>, MediatorError> {
    match resolve_scalar(aig, binding.elem, expr) {
        Some(ResolvedScalar::Const(v)) => Ok(Cow::Owned(ScalarBind::Const(v))),
        Some(ResolvedScalar::InhField(f)) => match binding.scalars.get(&f) {
            Some(bind) => Ok(Cow::Borrowed(bind)),
            None => Err(MediatorError::Internal(format!(
                "missing scalar binding `{f}`"
            ))),
        },
        None => Err(MediatorError::Unsupported(format!(
            "{what} `{}` does not resolve through copy chains",
            aig.elem_name(binding.elem)
        ))),
    }
}

/// The rows of one instance table a synthesized pass reached: each row's
/// label is the position, in the top table, of the owner whose value
/// collects it, or [`NO_ROW`] for a row the pass did not reach.
struct Reached<'r> {
    table: &'r Relation,
    ids: InstanceIds<'r>,
    labels: Vec<u32>,
}

/// The rows a synthesized pass emitted so far, each as its owner's position
/// in the top table and its components.
struct SynRows {
    owners: Vec<u32>,
    comps: Vec<Vec<Sym>>,
}

impl SynRows {
    /// Appends a row per row of `table` whose label is not [`NO_ROW`]: the
    /// label as its owner, and `scalars` over `table` as its components.
    fn extend(
        &mut self,
        table: &Relation,
        labels: &[u32],
        scalars: impl IntoIterator<Item = Result<ScalarCol, MediatorError>>,
    ) -> Result<(), MediatorError> {
        let reached = || (0..).zip(labels).filter(|(_, &label)| label != NO_ROW);
        let n = reached().count();
        self.owners.reserve(n);
        self.owners.extend(reached().map(|(_, &label)| label));
        for (col, scalar) in self.comps.iter_mut().zip(scalars) {
            let scalar = scalar?;
            col.reserve(n);
            col.extend(reached().map(|(row, _)| scalar.at(table, row)));
        }
        Ok(())
    }
}

/// No instance: a key naming no row, in [`group_rows`]'s input.
pub(crate) const NO_ROW: u32 = u32::MAX;

/// The instance ids of one instance table, in the one place that decides
/// what an id is. Root and Assemble number a table's rows with `__rowid`s
/// that are their row positions `0..n`, and every `__parent` / `__owner`
/// names one of them. So an id is a row position: it indexes rows and
/// vectors ([`group_rows`] buckets) directly and is never hashed, and ids
/// in value order are rows in table order.
pub(crate) struct InstanceIds<'a> {
    /// The element, for the error.
    elem: &'a str,
    len: usize,
}

impl<'a> InstanceIds<'a> {
    /// The ids of `elem`'s instance table with the `__rowid` column
    /// `rowids`, which must be the row positions `0..n`; the first row that
    /// carries another is the error. Every symbol of `rowids` must have
    /// been interned before `reader` was taken.
    pub(crate) fn new(
        elem: &'a str,
        rowids: &[Sym],
        reader: &Reader,
    ) -> Result<InstanceIds<'a>, MediatorError> {
        let ids = InstanceIds {
            elem,
            len: rowids.len(),
        };
        let positions = &intern::int_syms(rowids.len())[..rowids.len()];
        if rowids == positions {
            return Ok(ids);
        }
        let row = (rowids.iter().zip(positions).position(|(id, pos)| id != pos)).unwrap_or(0);
        Err(ids.bad(&format!("row {row}'s `__rowid`"), reader.get(rowids[row])))
    }

    /// The number of instances.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The id `sym` denotes, if it names an instance: an integer in `0..n`,
    /// the row of that instance.
    #[inline]
    pub(crate) fn id(&self, reader: &Reader, sym: Sym) -> Option<u32> {
        let id = reader.get(sym).as_int()?;
        (0..self.len as i64).contains(&id).then_some(id as u32)
    }

    /// [`InstanceIds::id`] of each of `syms`, resolving a run of one symbol
    /// once (siblings arrive together).
    pub(crate) fn ids_of<'s>(
        &'s self,
        reader: &'s Reader,
        syms: &'s [Sym],
    ) -> impl Iterator<Item = Option<u32>> + 's {
        let mut last = None;
        syms.iter().map(move |&sym| match last {
            Some((held, id)) if held == sym => id,
            _ => last.insert((sym, self.id(reader, sym))).1,
        })
    }

    /// The one error for a bad instance id: `value`, read from `column`, is
    /// not one of this table's ids, or is a `__rowid` that is not its row's
    /// position.
    pub(crate) fn bad(&self, column: &str, value: &Value) -> MediatorError {
        MediatorError::Internal(format!(
            "bad instance id in T[{}]: {column} {value:?}; its ids are its row \
             positions 0..{}",
            self.elem, self.len
        ))
    }
}

/// A stable counting sort of row indices by key: the rows keyed `k < n` are
/// `rows[start[k]..start[k + 1]]`, in row order. Rows keyed [`NO_ROW`] are
/// left out.
pub(crate) fn group_rows(keys: &[u32], n: usize) -> (Vec<u32>, Vec<u32>) {
    // `start[k + 2]` counts the rows keyed `k`; after the prefix sums,
    // `start[k + 1]` walks from the begin of `k`'s rows to its end.
    let mut start = vec![0u32; n + 2];
    let keyed = || (0u32..).zip(keys).filter(|(_, &key)| key != NO_ROW);
    for (_, &key) in keyed() {
        start[key as usize + 2] += 1;
    }
    for k in 2..n + 2 {
        start[k] += start[k - 1];
    }
    let mut rows = vec![0u32; start[n + 1] as usize];
    for (row, &key) in keyed() {
        let slot = &mut start[key as usize + 1];
        rows[*slot as usize] = row;
        *slot += 1;
    }
    start.truncate(n + 1);
    (start, rows)
}
