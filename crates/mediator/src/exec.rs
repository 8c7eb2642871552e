//! Set-oriented execution of the task graph (paper §5.1, execution phase).
//!
//! "The query plan is executed to produce a set of output relations — a
//! relational representation of the XML document." Each task runs once over
//! whole temporary tables; per-task wall-clock times are recorded so that
//! the response-time simulation (§5.2) can use measured rather than
//! estimated query costs, mirroring the paper's methodology of running real
//! queries and simulating the transfers.

use crate::error::MediatorError;
use crate::faults::{FaultEnv, FaultEvent, FaultLog, FaultPlan, RetryPolicy, TaskFaultCtx};
use crate::graph::{
    resolve_syn_key, syn_decl, Binding, Expanded, Occ, ParamInput, RelKey, ScalarBind, SynVisit,
    SynWalk, Task, TaskGraph, TaskKind, VectorQuery,
};
use crate::integrity;
use crate::shipcut::ShipCut;
use aig_core::attrs::FieldType;
use aig_core::copyelim::{resolve_scalar, ResolvedScalar};
use aig_core::spec::{Aig, ElemIdx, FieldRule, GuardKind, Prod, ValueExpr};
use aig_core::AigError;
use aig_relstore::intern::{self, Reader, SymMap};
use aig_relstore::par::{apply_perm, RowTable, PAR_THRESHOLD};
use aig_relstore::{Catalog, Relation, SharedCol, SourceId, StoreError, Sym, Value};
use aig_sql::{execute_named as sql_execute_named, ParamValue, Params};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

#[cfg(test)]
mod columnar_tests;

/// How the parallel executor orders tasks at each source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduling {
    /// Walk the planned per-source sequences as given; each worker blocks
    /// on its next planned task even when later tasks are already ready.
    #[default]
    Static,
    /// Per-source ready queues: an idle worker picks the highest-priority
    /// *ready* task at its source instead of blocking on its next planned
    /// one. Priorities are `ℓevel` over the compile-time estimates, fixed
    /// per round (see [`crate::parallel`] for why measured actuals cannot
    /// move them). The live counterpart of
    /// [`crate::schedule::dynamic_response_time`] (paper §5.5/§7).
    Dynamic,
}

/// One runtime pick of the dynamic scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskPick {
    pub task: usize,
    /// Effective source the task ran at.
    pub source: SourceId,
    /// Position the static plan assigned the task at its source.
    pub planned_pos: usize,
    /// Position the task actually ran at (per-source pick counter).
    pub actual_pos: usize,
    /// The task's priority: its `ℓevel` over the estimate graph.
    pub priority: f64,
}

/// What the scheduler did during one execution: empty and `dynamic: false`
/// under static scheduling and the sequential executor.
#[derive(Debug, Clone, Default)]
pub struct SchedLog {
    /// True when the dynamic (ready-queue) scheduler ran.
    pub dynamic: bool,
    /// Every dynamic pick, in pick order.
    pub picks: Vec<TaskPick>,
}

impl SchedLog {
    /// Picks that ran at a different per-source position than the static
    /// plan assigned them.
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
/// executor switches (retry, scheduling, threads, integrity, batching). A
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
    /// Static (planned sequences) or dynamic (live ready-queue) scheduling
    /// in the parallel executor; ignored by the sequential executor.
    pub scheduling: Scheduling,
    /// Worker-thread bound for the partitioned kernels (hash join,
    /// dedup) inside each task, on inputs of at least
    /// [`aig_relstore::par::PAR_THRESHOLD`] rows. Results are
    /// byte-identical for any value; `1` keeps every kernel sequential.
    pub threads: usize,
    /// Chunked shipment (see [`crate::batch`], the only reader): task
    /// outputs cross the ship seam in `batch_rows`-row batches, each priced
    /// and windowed on its own; no operator runs differently. Stores and
    /// documents are byte-identical either way; off by default.
    pub batching: bool,
    /// Batch size (rows) of the chunked shipment seam; only consulted when
    /// `batching` is on. `usize::MAX` degenerates to the materializing
    /// one-batch shipment.
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
/// must bind (the catalog-bound fault plan, pacing, ship-cut profiles, the
/// started deadline clock, and the cross-request gate). Policy switches are
/// read from the `policy` field, the one source of truth for them.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// The shared policy (retry, scheduling, threads, guard/integrity
    /// switches, network model, batching knobs).
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
    /// autonomous sources with controlled, reproducible durations.
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
    /// Cross-request source arbiter: concurrent requests sharing a gate
    /// serialize same-source task execution, earliest absolute deadline
    /// first (see [`crate::schedule::EdfGate`]). None = no arbitration.
    pub gate: Option<Arc<crate::schedule::EdfGate>>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions::new(ExecPolicy::default())
    }
}

impl ExecOptions {
    /// Wraps a policy with nothing bound yet — the canonical constructor.
    pub fn new(policy: ExecPolicy) -> ExecOptions {
        ExecOptions {
            policy,
            faults: None,
            eval_scale: 1.0,
            pace: None,
            shipcut: None,
            deadline: None,
            gate: None,
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
    /// Bytes of the output's *ship image*: the column-pruned (and, for
    /// duplicate-insensitive consumers, deduplicated) relation a ship-cut
    /// shipper puts on the wire. Equal to `wire_bytes` when ship-cut is off;
    /// never exceeds it (pruning drops columns and rows, and the dictionary
    /// encoding is monotone under both).
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

/// Read access to the relations produced so far: the walk
/// ([`crate::parallel`]) reads completed tasks' write-once slots, a
/// finished run's [`RelStore`] reads its map.
pub trait RelSource {
    fn rel(&self, key: &RelKey) -> Result<&Relation, MediatorError>;
}

/// All relations produced by an execution. `Clone` so the service can
/// retain a completed run's store as the splice base of incremental
/// re-evaluation (relations are columnar-interned; cloning is cheap
/// relative to re-running the graph).
#[derive(Debug, Clone, Default)]
pub struct RelStore {
    rels: HashMap<RelKey, Relation>,
}

impl RelSource for RelStore {
    fn rel(&self, key: &RelKey) -> Result<&Relation, MediatorError> {
        self.get(key)
    }
}

impl RelStore {
    pub fn get(&self, key: &RelKey) -> Result<&Relation, MediatorError> {
        self.rels.get(key).ok_or_else(|| {
            let mut present: Vec<String> = self.rels.keys().map(|k| format!("{k:?}")).collect();
            present.sort();
            let shown = present.len().min(12);
            let more = if present.len() > shown {
                format!(" … +{}", present.len() - shown)
            } else {
                String::new()
            };
            MediatorError::Internal(format!(
                "missing relation {key:?}; {} present: [{}{more}]",
                present.len(),
                present[..shown].join(", "),
            ))
        })
    }

    pub fn insert(&mut self, key: RelKey, rel: Relation) {
        self.rels.insert(key, rel);
    }

    pub fn len(&self) -> usize {
        self.rels.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rels.is_empty()
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

/// The `__occ` tag of rows produced by the generator of `(occ, item)`.
pub fn occ_tag(aig: &Aig, occ: &Occ, item: usize) -> String {
    format!("{}#{item}", occ.key(aig))
}

/// The `__occ` tag of branch-child rows of a choice occurrence.
pub fn branch_tag(aig: &Aig, occ: &Occ, branch: usize) -> String {
    format!("{}#b{branch}", occ.key(aig))
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

/// The ship-image size of a task's output under the active ship-cut
/// profiles; the dictionary-encoded wire size of the full relation when
/// ship-cut is off (both arms report wire bytes, so on/off comparisons
/// measure pruning, not encoding).
pub(crate) fn ship_image_bytes(opts: &ExecOptions, task_id: usize, rel: &Relation) -> f64 {
    match &opts.shipcut {
        Some(cut) => cut.ship_bytes(task_id, rel) as f64,
        None => rel.wire_bytes() as f64,
    }
}

/// Total rows across the task's distinct input relations (observability
/// accounting; reads that fail — e.g. a producer with no output — count 0).
fn input_rows<S: RelSource>(task: &Task, store: &S) -> f64 {
    // A task has a handful of dependencies: dedup by scanning the earlier
    // ones, with no set to allocate.
    let deps = &task.deps;
    (0..deps.len())
        .filter(|&i| !deps[..i].iter().any(|(_, key)| *key == deps[i].1))
        .filter_map(|i| store.rel(&deps[i].1).ok())
        .map(|rel| rel.len() as f64)
        .sum()
}

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
    /// The run's one shipment ledger.
    pub(crate) ship: &'a crate::batch::ShipLedger,
}

impl<S: RelSource> Executor<'_, S> {
    /// Runs task `id` at its effective `source` and measures it: input
    /// rows, the integrity profile (only under a fault plan that can
    /// corrupt or guard an attempt), pacing inside the measured window, the
    /// fault layer's retry loop with the cross-request EDF slot acquired
    /// per attempt (so it is never held across a backoff sleep, and never
    /// for mediator tasks), and the ship seam. Fault events are appended to
    /// `events`.
    pub(crate) fn run_measured(
        &self,
        id: usize,
        source: SourceId,
        wait_secs: f64,
        events: &mut Vec<FaultEvent>,
    ) -> (Result<Option<Relation>, MediatorError>, Measured) {
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
        let result = env.run_task(&ctx, events, || {
            let _slot = opts
                .gate
                .as_ref()
                .filter(|_| !source.is_mediator())
                .map(|gate| gate.acquire(source, opts.deadline.as_ref()));
            self.run_task(task)
        });
        let mut measured = Measured {
            secs: start.elapsed().as_secs_f64(),
            in_rows,
            wait_secs,
            start_secs,
            ..Measured::default()
        };
        if let Ok(Some(rel)) = &result {
            let shipped = crate::batch::ship_output(opts, self.ship, id, rel);
            measured.out_rows = rel.len() as f64;
            measured.out_bytes = rel.byte_size() as f64;
            measured.wire_bytes = rel.wire_bytes() as f64;
            measured.ship_bytes = shipped.ship_bytes;
            measured.batches = shipped.batches;
        }
        (result, measured)
    }

    /// Runs one task against the relations visible through `store`,
    /// returning the relation it produces (None for guards).
    fn run_task(&self, task: &Task) -> Result<Option<Relation>, MediatorError> {
        match &task.kind {
            TaskKind::Root => {
                let root_info = self.aig.elem_info(self.aig.root);
                let mut row = vec![
                    Value::int(0),
                    Value::int(-1),
                    Value::int(0),
                    Value::str(Occ::mat(self.aig.root).key(self.aig)),
                ];
                for decl in root_info.inh.iter().filter(|d| d.ty.is_scalar()) {
                    let v = self
                        .args
                        .iter()
                        .find(|(n, _)| *n == decl.name)
                        .map(|(_, v)| v.clone())
                        .ok_or_else(|| {
                            MediatorError::Aig(AigError::Spec(format!(
                                "missing value for AIG parameter `{}`",
                                decl.name
                            )))
                        })?;
                    row.push(v);
                }
                let mut rel = Relation::empty(task.schema.clone());
                rel.push(row);
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
                    let key = set_input.as_ref().ok_or_else(|| {
                        MediatorError::Internal("set generator without input".to_string())
                    })?;
                    self.store.rel(key)?
                };
                // Child columns: parent, ord, scalar fields in decl order.
                let base = self.store.rel(&RelKey::Instances(parent.base))?;
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
                    parent_rows.extend(std::iter::repeat_n(ids.position(id), siblings));
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
                        self.dedup_output(&mut rel);
                    }
                }
                Ok(Some(rel))
            }
            TaskKind::Assemble { inputs, .. } => {
                let columns = &task.schema;
                let mut parts = Vec::with_capacity(inputs.len());
                for input in inputs {
                    let occ_value = match input {
                        RelKey::GenOut(occ, item) => occ_tag(self.aig, occ, *item),
                        RelKey::BranchOut(occ, b) => branch_tag(self.aig, occ, *b),
                        other => {
                            return Err(MediatorError::Internal(format!(
                                "unexpected assemble input {other:?}"
                            )))
                        }
                    };
                    let part = self.store.rel(input)?;
                    if part.arity() + 2 != columns.len() {
                        return Err(MediatorError::Store(StoreError::SchemaMismatch {
                            table: "<relation>".to_string(),
                            msg: format!(
                                "assemble input `{occ_value}` has {} columns, {} expected",
                                part.arity(),
                                columns.len() - 2
                            ),
                        }));
                    }
                    parts.push((part, intern::intern_owned(Value::str(occ_value))));
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
                let base = self.store.rel(&RelKey::Instances(occ.base))?;
                let parent_col = raw.col("__parent")?;
                if raw.arity() != 2 {
                    return Err(bad(format!(
                        "condition query returns {} columns",
                        raw.arity() - 1
                    )));
                }
                // Exactly one row per owner; the pick is an integer.
                // `__parent` is always prepended first; the pick value is
                // the remaining column.
                let reader = Reader::snapshot();
                let mut picks: SymMap<Sym, Sym> = SymMap::default();
                picks.reserve(raw.len());
                for (&owner, &value) in raw.col_syms(parent_col).iter().zip(raw.col_syms(1)) {
                    let pick = match reader.get(value) {
                        Value::Int(_) => value,
                        Value::Str(s) => match s.parse::<i64>() {
                            Ok(i) => intern::intern(&Value::int(i)),
                            Err(_) => return Err(bad(format!("value {s:?} is not an integer"))),
                        },
                        Value::Null => return Err(bad("condition query returned NULL".into())),
                    };
                    if picks.insert(owner, pick).is_some() {
                        return Err(bad("more than one row for an instance".into()));
                    }
                }
                if picks.len() != base.len() {
                    return Err(bad(format!(
                        "condition produced {} picks for {} instances",
                        picks.len(),
                        base.len()
                    )));
                }
                // As many distinct owners as instances: an instance without
                // a pick means some row answers for an instance that is not
                // there (a corrupted `__parent`, say).
                let owners = base.col_syms(base.col("__rowid")?);
                let pick_col: Vec<Sym> = owners
                    .iter()
                    .map(|owner| picks.get(owner).copied())
                    .collect::<Option<_>>()
                    .ok_or_else(|| bad("condition row for unknown instance".into()))?;
                let cols = vec![owners.to_vec(), pick_col];
                Ok(Some(Relation::try_from_columns(task.schema.clone(), cols)?))
            }
            TaskKind::BranchMat { occ, branch } => {
                let binding = self.binding(occ)?;
                let info = self.aig.elem_info(binding.elem);
                let Prod::Choice { branches, .. } = &info.prod else {
                    return Err(MediatorError::Internal("branch of non-choice".into()));
                };
                let spec = &branches[*branch];
                let picks = self.store.rel(&RelKey::Pick(occ.clone()))?;
                let base = self.store.rel(&RelKey::Instances(occ.base))?;
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
                        let id = id.ok_or_else(|| ids.bad("`__owner`", reader.get(owner)))?;
                        rows.push(ids.position(id));
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
            TaskKind::SynAgg { occ, field } => Ok(Some(self.compute_syn(task, occ, field)?)),
            TaskKind::Guard { occ, guard } => {
                if self.opts.policy.check_guards {
                    self.check_guard(occ, *guard)?;
                }
                Ok(None)
            }
        }
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
    fn child_of(&self, occ: &Occ, item: usize) -> Result<ElemIdx, MediatorError> {
        let binding = self.binding(occ)?;
        match &self.aig.elem_info(binding.elem).prod {
            Prod::Items(items) => Ok(items[item].elem),
            _ => Err(MediatorError::Internal("child of leaf production".into())),
        }
    }

    /// Executes a vectorized query against the catalog, binding relation
    /// parameters from the store.
    fn run_vector_query(&self, vq: &VectorQuery) -> Result<Relation, MediatorError> {
        let mut params = Params::new();
        for (name, input) in &vq.inputs {
            let rel = match input {
                ParamInput::Base(e) => self.store.rel(&RelKey::Instances(*e))?.clone(),
                ParamInput::Rel(key) => self.store.rel(key)?.clone(),
                ParamInput::RelFirstDistinct(key) => {
                    let rel = self.store.rel(key)?;
                    let first = rel.columns()[1].clone();
                    rel.project(&["__owner", first.as_str()])
                        .map_err(MediatorError::Store)?
                        .with_columns(vec!["__owner".into(), "__member".into()])
                        .distinct()
                }
            };
            params.insert(name.clone(), ParamValue::Rel(rel));
        }
        Ok(sql_execute_named(
            &vq.query,
            self.catalog,
            &params,
            self.threads(),
            PAR_THRESHOLD,
            vq.columns.clone(),
        )?)
    }

    /// The kernels' thread bound, floored at one: the options builder
    /// rejects zero, but hand-built options reach here unvalidated.
    fn threads(&self) -> usize {
        self.opts.policy.threads.max(1)
    }

    /// Set-semantics coercion of a task output: first-occurrence dedup,
    /// partitioned for large relations.
    fn dedup_output(&self, rel: &mut Relation) {
        rel.dedup_parallel_with(self.threads(), PAR_THRESHOLD);
    }

    /// Computes a synthesized set/bag table `(__owner, comps…)` in one pass:
    /// the rule is expanded through the children's synthesized fields down
    /// to the instance tables they read, each reached row labeled with the
    /// owner that collects it. Leaves emit in rule order, each in row order,
    /// so the one dedup at the end keeps what the per-level evaluation kept:
    /// first-occurrence dedup satisfies dedup(rekey(dedup X)) =
    /// dedup(rekey X).
    fn compute_syn(&self, task: &Task, occ: &Occ, field: &str) -> Result<Relation, MediatorError> {
        let binding = self.binding(occ)?;
        let decl = syn_decl(self.aig, binding.elem, field)?;
        let comps = (decl.ty.components())
            .ok_or_else(|| MediatorError::Internal("scalar SynAgg".into()))?;
        let reader = Reader::snapshot();
        let base = self.store.rel(&RelKey::Instances(occ.base))?;
        let rowids = base.col_syms(base.col("__rowid")?);
        let mut top = Reached {
            ids: InstanceIds::new(self.aig.elem_name(occ.base), rowids, &reader)?,
            table: base,
            labels: (0..base.len() as u32).collect(),
            expanded: HashSet::new(),
        };
        let mut pass = SynPass {
            exec: self,
            reader,
            owners: Vec::new(),
            comps: vec![Vec::new(); comps.len()],
        };
        let walk = SynWalk::new(self.aig, &self.graph.bindings, decl.ty.is_bag());
        walk.field(&mut pass, &mut top, occ, field, false)?;
        let mut cols = vec![apply_perm(rowids, &pass.owners)];
        cols.extend(pass.comps);
        let mut out = Relation::try_from_columns(task.schema.clone(), cols)?;
        if !decl.ty.is_bag() {
            self.dedup_output(&mut out);
        }
        Ok(out)
    }

    fn check_guard(&self, occ: &Occ, guard: usize) -> Result<(), MediatorError> {
        let binding = self.binding(occ)?;
        let info = self.aig.elem_info(binding.elem);
        let g = &info.guards[guard];
        let field_rel = |field: &str| {
            let key = resolve_syn_key(self.aig, &self.graph.bindings, occ, binding.elem, field)?;
            self.store.rel(&key)
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
            GuardKind::Unique { field } => {
                let rel = field_rel(field)?;
                let mut seen = RowTable::new(all_cols(rel), rel.len());
                verdict(
                    rel,
                    (0..rel.len()).find(|&r| seen.insert(r as u32).is_some()),
                )
            }
            GuardKind::Subset { sub, sup } => {
                let (sub_rel, sup_rel) = (field_rel(sub)?, field_rel(sup)?);
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
    match resolve_scalar(aig, binding.elem, expr) {
        Some(ResolvedScalar::Const(v)) => Ok(ScalarCol::Const(intern::intern_owned(v))),
        Some(ResolvedScalar::InhField(f)) => match binding.scalars.get(&f) {
            Some(bind) => ScalarCol::of_bind(bind, base),
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
    /// The expansions done over these rows ([`SynWalk`]).
    expanded: Expanded,
}

/// One pass of [`Executor::compute_syn`]: the rows emitted so far, each as
/// its owner's position in the top table and its components.
struct SynPass<'e, 'a, S: RelSource> {
    exec: &'e Executor<'a, S>,
    /// Taken before the pass: every symbol it reads is in a finished input.
    reader: Reader,
    owners: Vec<u32>,
    comps: Vec<Vec<Sym>>,
}

impl<'a, S: RelSource> SynVisit for SynPass<'_, 'a, S> {
    type At = Reached<'a>;

    fn expanded<'x>(&self, at: &'x mut Reached<'a>) -> &'x mut Expanded {
        &mut at.expanded
    }

    fn singleton(
        &mut self,
        binding: &Binding,
        at: &Reached,
        exprs: &[ValueExpr],
    ) -> Result<(), MediatorError> {
        let what = "scalar expression at";
        let scalars = (exprs.iter())
            .map(|e| scalar_col(self.exec.aig, binding, e, at.table, what))
            .collect::<Result<Vec<_>, _>>()?;
        for (row, &label) in at.labels.iter().enumerate() {
            if label != NO_ROW {
                self.owners.push(label);
                for (col, scalar) in self.comps.iter_mut().zip(&scalars) {
                    col.push(scalar.at(at.table, row));
                }
            }
        }
        Ok(())
    }

    fn keyed(&mut self, at: &Reached, key: &RelKey) -> Result<(), MediatorError> {
        let rel = self.exec.store.rel(key)?;
        if rel.arity() != self.comps.len() + 1 {
            return Err(MediatorError::Internal("a set of another arity".into()));
        }
        let mut keep = Vec::new();
        for (r, id) in (0u32..).zip(at.ids.ids_of(&self.reader, rel.col_syms(0))) {
            let label = id.map_or(NO_ROW, |id| at.labels[at.ids.position(id) as usize]);
            if label != NO_ROW {
                self.owners.push(label);
                keep.push(r);
            }
        }
        for (c, col) in self.comps.iter_mut().enumerate() {
            col.extend(apply_perm(rel.col_syms(c + 1), &keep));
        }
        Ok(())
    }

    fn child(
        &mut self,
        at: &Reached,
        elem: ElemIdx,
        tag: &str,
    ) -> Result<Reached<'a>, MediatorError> {
        let (exec, reader) = (self.exec, &self.reader);
        let table = exec.store.rel(&RelKey::Instances(elem))?;
        let rowids = table.col_syms(table.col("__rowid")?);
        let parents = table.col_syms(table.col("__parent")?);
        let occs = table.col_syms(table.col("__occ")?);
        // Each row takes the label of its parent row.
        let mut labels = vec![NO_ROW; table.len()];
        if let Some(tag) = intern::lookup(&Value::str(tag)) {
            let rows = labels
                .iter_mut()
                .zip(occs)
                .zip(at.ids.ids_of(reader, parents));
            for ((label, &occ), id) in rows {
                if let (true, Some(id)) = (occ == tag, id) {
                    *label = at.labels[at.ids.position(id) as usize];
                }
            }
        }
        Ok(Reached {
            ids: InstanceIds::new(exec.aig.elem_name(elem), rowids, reader)?,
            table,
            labels,
            expanded: HashSet::new(),
        })
    }
}

/// No instance: a key naming no row, in [`group_rows`]'s input.
pub(crate) const NO_ROW: u32 = u32::MAX;

/// The instance ids of one instance table, in the one place that decides
/// what an id is. Root and Assemble number a table's rows with `__rowid`s
/// that are the integers `0..n`, each once, and every `__parent` /
/// `__owner` names one of them. So an id is a dense integer: it indexes
/// vectors ([`group_rows`] buckets, [`InstanceIds::position`]) and is never
/// hashed, and ids in value order are buckets in index order.
pub(crate) struct InstanceIds<'a> {
    /// The element, for the error.
    elem: &'a str,
    len: usize,
    /// The row position of each id; `None` when the two are equal, as
    /// Assemble numbers its rows.
    positions: Option<Vec<u32>>,
}

impl<'a> InstanceIds<'a> {
    /// The ids of `elem`'s instance table with the `__rowid` column
    /// `rowids`, which must be a permutation of `0..n`. Every symbol of
    /// `rowids` must have been interned before `reader` was taken.
    pub(crate) fn new(
        elem: &'a str,
        rowids: &[Sym],
        reader: &Reader,
    ) -> Result<InstanceIds<'a>, MediatorError> {
        let mut ids = InstanceIds {
            elem,
            len: rowids.len(),
            positions: None,
        };
        if intern::int_syms(rowids.len()).starts_with(rowids) {
            return Ok(ids);
        }
        let mut positions = vec![NO_ROW; rowids.len()];
        for (pos, &rowid) in (0u32..).zip(rowids) {
            match ids.id(reader, rowid).map(|id| &mut positions[id as usize]) {
                Some(slot) if *slot == NO_ROW => *slot = pos,
                _ => return Err(ids.bad("`__rowid`", reader.get(rowid))),
            }
        }
        ids.positions = Some(positions);
        Ok(ids)
    }

    /// The number of instances.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The id `sym` denotes, if it names an instance: an integer in `0..n`.
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

    /// The row position of the instance `id` (below [`InstanceIds::len`]).
    #[inline]
    pub(crate) fn position(&self, id: u32) -> u32 {
        self.positions
            .as_ref()
            .map_or(id, |positions| positions[id as usize])
    }

    /// The one error for a bad instance id: `value`, read from `column`, is
    /// not one of this table's ids, or the table's `__rowid`s are not a
    /// permutation of `0..n` (`value` repeats or lies outside).
    pub(crate) fn bad(&self, column: &str, value: &Value) -> MediatorError {
        MediatorError::Internal(format!(
            "bad instance id in T[{}]: {column} {value:?}; its `__rowid`s must be \
             0..{} in some order, each once",
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
