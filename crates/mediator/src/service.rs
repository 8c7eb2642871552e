//! The mediator as a long-lived service: a [`Mediator`] owns the source
//! [`Catalog`], a bounded LRU cache of [`PreparedPlan`]s keyed by
//! (AIG fingerprint, unfolding depth, plan options), and a concurrent
//! request driver. One-shot callers pay the full prepare pipeline on every
//! evaluation; the service pays it once per (AIG, depth) and serves every
//! further request from the shared `Arc<PreparedPlan>`.
//!
//! Frontier-driven re-unfolding (§5.5) becomes the cache's *promotion*
//! path: when a depth-d plan's frontier still produces data, the request
//! deepens the plan to depth 2d, caches it, and records a depth hint so
//! later requests for the same AIG skip the shallow plan entirely.
//!
//! With [`ExecPolicy::incremental`] on, the service additionally retains a
//! **run snapshot** per (plan, argument binding): the relation store and
//! the per-task measurements. [`Mediator::apply_delta`] marks the delta's
//! `(source, table)` pairs dirty on every snapshot; the next request for a
//! dirtied snapshot is a masked run of the same walk, under the same
//! dispatcher, as a cold run: it re-runs only the task subgraph downstream
//! of the dirty tables ([`crate::delta`]) with every other task's cached
//! relation in place, tags the spliced store as a cold run does, and
//! scope-checks only the constraints the re-run instances can reach —
//! producing a document byte-identical to a cold full run.

use crate::error::MediatorError;
use crate::exec::{bind_policy, ExecOptions, Measured, RelStore};
use crate::faults::{Deadline, FaultPlan};
use crate::obs::{CacheObs, IncrementalObs, Phases, RunReport};
use crate::pipeline::{MediatorOptions, MediatorRun};
use crate::plan::{ExecPolicy, ExecutedRun, FinishInputs, FullOutcome, PlanOptions, PreparedPlan};
use aig_core::spec::Aig;
use aig_relstore::{Catalog, Database, DeltaApplied, Fnv64, SourceDelta, SourceId, Table, Value};
use aig_xml::ConstraintSet;
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

/// Default number of prepared plans the cache retains.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 16;

/// Cache key of one prepared plan: *what* is evaluated (the structural AIG
/// fingerprint), *how deep* it was unfolded, *under which* plan-side
/// options (graph/merge settings, hashed), and *against which* catalog
/// schema (so a schema change can never serve a stale plan).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PlanKey {
    aig: u64,
    depth: usize,
    opts: u64,
    cat: u64,
}

/// A bounded map evicting its least-recently-used entry: both the plan
/// cache and the snapshot store are one.
#[derive(Debug)]
struct Lru<K, V> {
    capacity: usize,
    tick: u64,
    /// Each value with its last-use stamp.
    entries: HashMap<K, (u64, V)>,
}

impl<K: Clone + Eq + std::hash::Hash, V> Lru<K, V> {
    fn new(capacity: usize) -> Lru<K, V> {
        Lru {
            capacity: capacity.max(1),
            tick: 0,
            entries: HashMap::new(),
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    /// Looks `key` up, marking it most recently used.
    fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(key).map(|(stamp, value)| {
            *stamp = tick;
            &*value
        })
    }

    /// Inserts `value` as most recently used; returns whether the
    /// least-recently-used entry was evicted to make room.
    fn insert(&mut self, key: K, value: V) -> bool {
        // `capacity >= 1`, so a full map always has an entry to evict.
        let full = !self.entries.contains_key(&key) && self.entries.len() >= self.capacity;
        if full {
            let lru = self.entries.iter().min_by_key(|(_, (stamp, _))| *stamp);
            if let Some(lru) = lru.map(|(k, _)| k.clone()) {
                self.entries.remove(&lru);
            }
        }
        self.tick += 1;
        self.entries.insert(key, (self.tick, value));
        full
    }

    fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.entries.values_mut().map(|(_, value)| value)
    }

    fn clear(&mut self) {
        self.entries.clear();
    }
}

/// The LRU of prepared plans plus the depth-hint table and the service-wide
/// counters surfaced in reports and [`CacheStats`].
#[derive(Debug)]
struct PlanCache {
    plans: Lru<PlanKey, Arc<PreparedPlan>>,
    /// (aig fingerprint, opts fingerprint) → deepest promoted depth, so
    /// requests after a frontier promotion start deep enough immediately.
    hints: HashMap<(u64, u64), usize>,
    hits: u64,
    misses: u64,
    promotions: u64,
    evictions: u64,
    /// Schema-change purges: each time the catalog schema fingerprint moves,
    /// every resident plan (and depth hint) is dropped in one event.
    invalidations: u64,
}

impl PlanCache {
    fn new(capacity: usize) -> PlanCache {
        PlanCache {
            plans: Lru::new(capacity),
            hints: HashMap::new(),
            hits: 0,
            misses: 0,
            promotions: 0,
            evictions: 0,
            invalidations: 0,
        }
    }
}

/// Key of one retained run snapshot: the plan identity plus the bound
/// arguments, sorted by name — a delta can only be spliced into a run of
/// the *same* plan evaluated with the *same* arguments.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SnapKey {
    plan: PlanKey,
    args: Vec<(String, Value)>,
}

/// The state a completed run leaves behind for incremental re-evaluation:
/// what the run produced, shared — a request clones the handle, never the
/// store — and the set of `(source, table)` pairs dirtied by deltas since
/// the run completed.
#[derive(Debug, Clone)]
struct RunSnapshot {
    base: Arc<SnapshotBase>,
    dirty: BTreeSet<(String, String)>,
}

/// The relation store (splice base) and the per-task measurements (reused
/// tasks keep their costs) of a completed run.
#[derive(Debug)]
struct SnapshotBase {
    store: RelStore,
    measured: Vec<Measured>,
}

/// Snapshot of the plan cache's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Frontier-driven depth promotions (§5.5).
    pub promotions: u64,
    pub evictions: u64,
    /// Schema-change purges of the whole cache ([`Mediator::with_catalog_mut`]).
    pub invalidations: u64,
    /// Plans currently resident.
    pub entries: usize,
    pub capacity: usize,
}

/// Per-request overrides the server layer stacks on top of the service's
/// configured policy: a deadline budget and the circuit-breaker routing
/// decisions (fail fast to a replica, or degrade by skipping a source
/// entirely).
#[derive(Debug, Clone, Default)]
pub struct RequestCtx {
    /// Deadline budget in seconds for this request (None = unbounded). The
    /// clock starts when [`Mediator::request_with`] is called.
    pub deadline_secs: Option<f64>,
    /// Sources treated as hard-down for this request only (circuit-breaker
    /// fail-fast: execution reroutes their tasks to replicas before the
    /// first attempt instead of burning retries).
    pub extra_outages: Vec<String>,
    /// Sources this request *skips* (graceful degradation): their tables
    /// read as empty views, no fault of any kind fires there, and the run
    /// completes with the skipped subtree labels reported. Output
    /// validation and the document constraint check are disabled for the
    /// run — both are specified against full source data, so a partial
    /// document must not be held to them.
    pub skip_sources: Vec<String>,
}

impl RequestCtx {
    fn is_default(&self) -> bool {
        self.deadline_secs.is_none()
            && self.extra_outages.is_empty()
            && self.skip_sources.is_empty()
    }
}

/// The outcome of [`Mediator::request_with`]: the run plus the subtrees
/// degradation skipped (empty = the document reflects full source data and
/// is byte-identical to a plain [`Mediator::request`]).
#[derive(Debug)]
pub struct ServedRequest {
    pub run: MediatorRun,
    pub report: RunReport,
    /// Task labels of the subtrees served from empty degraded views, in
    /// task-graph order.
    pub skipped: Vec<String>,
}

/// A long-lived mediator service: catalog + plan cache + request driver.
///
/// ```
/// use aig_core::paper::{mini_hospital_catalog, sigma0};
/// use aig_mediator::{Mediator, MediatorOptions};
/// use aig_relstore::Value;
///
/// let aig = sigma0().unwrap();
/// let catalog = mini_hospital_catalog().unwrap();
/// let options = MediatorOptions::builder().unfold_depth(4).build().unwrap();
/// let mediator = Mediator::new(catalog, &options).unwrap();
///
/// let (_, report) = mediator.request(&aig, &[("date", Value::str("d1"))]).unwrap();
/// assert!(!report.cache.hit); // cold: the plan was prepared
/// let (_, report) = mediator.request(&aig, &[("date", Value::str("d2"))]).unwrap();
/// assert!(report.cache.hit); // warm: served from the plan cache
/// assert_eq!(mediator.cache_stats().misses, 1);
/// ```
#[derive(Debug)]
pub struct Mediator {
    catalog: Catalog,
    plan_options: PlanOptions,
    /// Fingerprint of the plan-side options, part of every cache key.
    opts_fp: u64,
    /// Fingerprint of the catalog *schema* (tables, columns, types, keys,
    /// replicas — not data), part of every cache key. Recomputed by
    /// [`Mediator::with_catalog_mut`] so schema changes invalidate plans.
    cat_fp: u64,
    /// Executor options derived once from the configured policy — which
    /// lives here and nowhere else ([`Mediator::policy`]) — with the fault
    /// plan bound to the catalog (every request replays the same
    /// deterministic fault stream).
    exec_opts: ExecOptions,
    cache: Mutex<PlanCache>,
    /// Retained run snapshots for incremental re-evaluation: only requests
    /// served with [`ExecPolicy::incremental`] on insert or consult them.
    snapshots: Mutex<Lru<SnapKey, RunSnapshot>>,
}

/// FNV-1a over the plan-side options that determine a plan's shape. The
/// unfolding depth is part of the cache key itself, not of this hash.
fn options_fingerprint(options: &PlanOptions) -> u64 {
    use std::fmt::Write;
    let mut hash = Fnv64::new();
    // The rendering streams into the hash; writing to it never fails.
    let _ = write!(hash, "{:?}|{:?}", options.cutoff, options.graph);
    hash.finish()
}

/// The report's incremental ledger and the constraints the document check
/// runs. A cold run re-runs every task and checks every constraint
/// (`None`); a refresh re-runs its `rerun` mask and checks only the
/// constraints whose tags the re-run instances can reach.
fn incremental_obs(
    plan: &PreparedPlan,
    refresh: Option<&(RunSnapshot, Vec<bool>)>,
    measured: &[Measured],
) -> (IncrementalObs, Option<ConstraintSet>) {
    let (tasks_total, constraints) = (plan.graph.tasks.len(), &plan.aig.constraints);
    let mut obs = IncrementalObs {
        enabled: true,
        tasks_total,
        tasks_rerun: tasks_total,
        constraints_scoped: constraints.len(),
        constraints_total: constraints.len(),
        ..IncrementalObs::default()
    };
    let Some((snap, rerun)) = refresh else {
        return (obs, None);
    };
    let tainted = crate::delta::tainted_elems(&plan.graph, rerun);
    let tags = crate::delta::scope_tags(&plan.aig, &tainted);
    obs.snapshot_hit = true;
    obs.tasks_rerun = rerun.iter().filter(|&&r| r).count();
    obs.tasks_reused = tasks_total - obs.tasks_rerun;
    obs.dirty_tables = (snap.dirty.iter())
        .map(|(source, table)| format!("{source}.{table}"))
        .collect();
    // Rows of re-run task outputs spliced into the cached store.
    obs.rows_spliced = (measured.iter().zip(rerun))
        .filter(|(_, &rerun)| rerun)
        .map(|(m, _)| m.out_rows as u64)
        .sum();
    let scoped = constraints.scoped(&tags);
    obs.constraints_scoped = scoped.len();
    (obs, Some(scoped))
}

impl Mediator {
    /// A service with the default plan-cache capacity
    /// ([`DEFAULT_PLAN_CACHE_CAPACITY`]).
    pub fn new(catalog: Catalog, options: &MediatorOptions) -> Result<Mediator, MediatorError> {
        Mediator::with_cache_capacity(catalog, options, DEFAULT_PLAN_CACHE_CAPACITY)
    }

    /// A service retaining at most `capacity` prepared plans (minimum 1).
    pub fn with_cache_capacity(
        catalog: Catalog,
        options: &MediatorOptions,
        capacity: usize,
    ) -> Result<Mediator, MediatorError> {
        options.validate().map_err(MediatorError::from)?;
        let plan_options = options.plan_options();
        let exec_opts = bind_policy(options.exec_policy(), &catalog)?;
        let opts_fp = options_fingerprint(&plan_options);
        let cat_fp = catalog.schema_fingerprint();
        Ok(Mediator {
            catalog,
            plan_options,
            opts_fp,
            cat_fp,
            exec_opts,
            cache: Mutex::new(PlanCache::new(capacity)),
            snapshots: Mutex::new(Lru::new(capacity)),
        })
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutates the catalog in place (new replicas, redefined tables, data
    /// loads) and re-fingerprints its schema afterwards. If the schema
    /// changed, every cached plan and depth hint is purged — plans embed
    /// schema-derived costs and replica choices, so serving one across a
    /// schema change would be stale — and the fault plan is re-bound to the
    /// new catalog. Pure data changes keep the cache intact: prepared plans
    /// are argument- and data-independent.
    pub fn with_catalog_mut<T>(
        &mut self,
        f: impl FnOnce(&mut Catalog) -> T,
    ) -> Result<T, MediatorError> {
        let out = f(&mut self.catalog);
        // Arbitrary mutation bypasses delta tracking, so every retained
        // snapshot may silently embed stale data: drop them all. Deltas
        // that want snapshots kept warm go through [`Mediator::apply_delta`].
        self.lock_snapshots().clear();
        let cat_fp = self.catalog.schema_fingerprint();
        if cat_fp != self.cat_fp {
            self.cat_fp = cat_fp;
            self.exec_opts = bind_policy(self.exec_opts.policy.clone(), &self.catalog)?;
            let mut cache = self.lock();
            cache.plans.clear();
            cache.hints.clear();
            cache.invalidations += 1;
        }
        Ok(out)
    }

    /// Applies a row-level [`SourceDelta`] to the owned catalog and marks
    /// the touched `(source, table)` pairs dirty in every retained run
    /// snapshot. Row deltas never move the schema fingerprint, so cached
    /// plans stay warm — with [`ExecPolicy::incremental`] on, the next
    /// request for a dirtied snapshot re-runs only the tasks whose
    /// read-sets intersect the dirty tables (plus their downstream
    /// closure) instead of the whole graph.
    ///
    /// A delta that fails part-way leaves the batches before the failing
    /// row applied, so every table it names is marked dirty either way.
    pub fn apply_delta(&mut self, delta: &SourceDelta) -> Result<DeltaApplied, MediatorError> {
        let applied = self.catalog.apply_delta(delta);
        debug_assert_eq!(
            self.cat_fp,
            self.catalog.schema_fingerprint(),
            "row deltas must not move the schema fingerprint"
        );
        let touched = delta.touched();
        if !touched.is_empty() {
            for snap in self.lock_snapshots().values_mut() {
                snap.dirty.extend(touched.iter().cloned());
            }
        }
        applied.map_err(MediatorError::Store)
    }

    /// Run snapshots currently retained for incremental re-evaluation.
    pub fn snapshot_count(&self) -> usize {
        self.lock_snapshots().len()
    }

    pub fn plan_options(&self) -> &PlanOptions {
        &self.plan_options
    }

    pub fn policy(&self) -> &ExecPolicy {
        &self.exec_opts.policy
    }

    /// Snapshot of the plan cache's counters.
    pub fn cache_stats(&self) -> CacheStats {
        let cache = self.lock();
        CacheStats {
            hits: cache.hits,
            misses: cache.misses,
            promotions: cache.promotions,
            evictions: cache.evictions,
            invalidations: cache.invalidations,
            entries: cache.plans.len(),
            capacity: cache.plans.capacity,
        }
    }

    /// Warms the cache for `aig` without executing anything: prepares (or
    /// fetches) the plan at the effective starting depth and returns it.
    pub fn prepare(&self, aig: &Aig) -> Result<Arc<PreparedPlan>, MediatorError> {
        let mut phases = Phases::new();
        let fp = aig.fingerprint();
        let depth = self.starting_depth(fp);
        let (plan, _) = self.lookup_or_prepare(aig, fp, depth, None, &mut phases)?;
        Ok(plan)
    }

    /// Evaluates one request: fetches the plan from the cache (preparing on
    /// a miss), executes it with the bound arguments, and — when the
    /// recursion frontier still produces data — promotes the plan to twice
    /// the depth and retries, updating the cache and the depth hint so
    /// later requests start deep (§5.5).
    pub fn request(
        &self,
        aig: &Aig,
        args: &[(&str, Value)],
    ) -> Result<(MediatorRun, RunReport), MediatorError> {
        self.request_with(aig, args, &RequestCtx::default())
            .map(|served| (served.run, served.report))
    }

    /// Like [`Mediator::request`] with per-request overrides: the deadline
    /// clock starts here, extra outages re-bind the fault plan so breaker
    /// fail-fast reroutes before the first attempt, and skipped sources are
    /// served as empty views with all their faults suppressed (the mediator
    /// never contacts them). With a default [`RequestCtx`] this is exactly
    /// [`Mediator::request`] — same plan cache, same execution,
    /// byte-identical documents.
    pub fn request_with(
        &self,
        aig: &Aig,
        args: &[(&str, Value)],
        ctx: &RequestCtx,
    ) -> Result<ServedRequest, MediatorError> {
        let skipped_ids = self.resolve_sources(&ctx.skip_sources)?;
        let degraded = !skipped_ids.is_empty();

        // Build per-request overrides only when something actually differs
        // from the service configuration: the common clean path serves
        // straight from the shared state with zero clones.
        let mut opts_owned: Option<ExecOptions> = None;
        let mut catalog_owned: Option<Catalog> = None;
        if !ctx.is_default() {
            let mut opts = self.exec_opts.clone();
            opts.deadline = ctx.deadline_secs.map(Deadline::starting_now);
            if !ctx.extra_outages.is_empty() {
                // Re-bind the fault plan with the breaker-declared outages
                // folded in; with no configured faults the default config's
                // zero rates leave outage routing as the only live machinery.
                let mut cfg = self.policy().faults.clone().unwrap_or_default();
                cfg.outages.extend(ctx.extra_outages.iter().cloned());
                opts.faults = Some(FaultPlan::new(&cfg, &self.catalog)?);
            }
            if degraded {
                if let Some(plan) = opts.faults.take() {
                    opts.faults = Some(plan.with_skipped(&skipped_ids));
                }
                // Output validation, the document constraint check, and the
                // compiled-constraint guards are all specified against the
                // *full* source data; a partial document legitimately
                // violates them, so they are scoped out of degraded runs.
                // (Validation is skipped through `FinishInputs::degraded`.)
                opts.policy.check_guards = false;
                opts.policy.check_integrity = false;
                catalog_owned = Some(self.degraded_catalog(&skipped_ids));
            }
            opts_owned = Some(opts);
        }
        let exec_opts = opts_owned.as_ref().unwrap_or(&self.exec_opts);
        let catalog = catalog_owned.as_ref().unwrap_or(&self.catalog);

        // Incremental re-evaluation engages only for plain requests — no
        // per-request overrides, no deadline budget — and only when the
        // fault plan has no mid-run outages (`dies_after` triggers on
        // *global* per-source completion counts, which a partial re-run
        // would shift; those plans must replay the full graph).
        let incremental_mode = self.policy().incremental && ctx.is_default();
        let use_snapshots = incremental_mode
            && !self
                .exec_opts
                .faults
                .as_ref()
                .is_some_and(|p| p.has_mid_run_outages());

        let mut phases = Phases::new();
        let fp = phases.time("plan_cache", || aig.fingerprint());
        let mut depth = self.starting_depth(fp);
        let mut rounds = 0usize;
        let mut first_lookup_hit: Option<bool> = None;
        let mut promoted = false;
        let mut prev: Option<Arc<PreparedPlan>> = None;
        loop {
            rounds += 1;
            let (plan, hit) = self.lookup_or_prepare(aig, fp, depth, prev.take(), &mut phases)?;
            if first_lookup_hit.is_none() {
                first_lookup_hit = Some(hit);
            }
            let cache_obs = self.cache_obs(first_lookup_hit == Some(true), promoted);
            let snap_key = use_snapshots.then(|| {
                let mut args: Vec<(String, Value)> = args
                    .iter()
                    .map(|(name, value)| (name.to_string(), value.clone()))
                    .collect();
                args.sort();
                SnapKey {
                    plan: PlanKey {
                        aig: fp,
                        depth: plan.depth,
                        opts: self.opts_fp,
                        cat: self.cat_fp,
                    },
                    args,
                }
            });
            // A refresh re-runs the downstream closure of the tables dirtied
            // since its snapshot (see [`crate::delta`]).
            let refresh = (snap_key.as_ref())
                .and_then(|key| self.lock_snapshots().get(key).cloned())
                .map(|snap| {
                    let seeds = plan.read_sets.seeds(&snap.dirty);
                    let rerun = crate::delta::rerun_mask(&plan.graph, &seeds);
                    (snap, rerun)
                });
            let reuse = (refresh.as_ref())
                .map(|(snap, rerun)| (&snap.base.store, &snap.base.measured[..], &rerun[..]));
            let inputs =
                FinishInputs::execute(&plan, catalog, args, exec_opts, reuse, &mut phases)?;
            let (incremental, scope) = if incremental_mode {
                incremental_obs(&plan, refresh.as_ref(), &inputs.exec.measured)
            } else {
                (IncrementalObs::default(), None)
            };
            let outcome = crate::plan::finish_run(FinishInputs {
                rounds,
                cache: cache_obs,
                degraded,
                scope,
                incremental,
                ..inputs
            })?;
            match outcome {
                FullOutcome::Complete(done) => {
                    let ExecutedRun {
                        run,
                        report,
                        store,
                        measured,
                    } = *done;
                    if let Some(snap_key) = snap_key {
                        self.lock_snapshots().insert(
                            snap_key,
                            RunSnapshot {
                                base: Arc::new(SnapshotBase { store, measured }),
                                dirty: BTreeSet::new(),
                            },
                        );
                    }
                    let skipped = plan
                        .graph
                        .tasks
                        .iter()
                        .filter(|t| skipped_ids.contains(&t.source))
                        .map(|t| t.label.clone())
                        .collect();
                    return Ok(ServedRequest {
                        run,
                        report,
                        skipped,
                    });
                }
                FullOutcome::FrontierExtend => {
                    depth = crate::plan::next_depth(plan.depth, self.plan_options.max_depth)?;
                    promoted = true;
                    prev = Some(plan);
                }
            }
        }
    }

    /// Resolves source names to ids, rejecting the mediator pseudo-source
    /// (it cannot be degraded away — it assembles the document).
    fn resolve_sources(&self, names: &[String]) -> Result<Vec<SourceId>, MediatorError> {
        let mut ids = Vec::with_capacity(names.len());
        for name in names {
            let sid = self.catalog.source_id(name).map_err(MediatorError::Store)?;
            if sid.is_mediator() {
                return Err(MediatorError::Internal(
                    "cannot skip the mediator pseudo-source".to_string(),
                ));
            }
            ids.push(sid);
        }
        Ok(ids)
    }

    /// A catalog clone where every skipped source keeps its schema but
    /// serves zero rows. The schema fingerprint is data-independent, so
    /// cached plans (keyed on it) remain valid for degraded requests.
    fn degraded_catalog(&self, skipped: &[SourceId]) -> Catalog {
        let mut catalog = self.catalog.clone();
        for &sid in skipped {
            let source = self.catalog.source(sid);
            let mut empty = Database::new(source.name());
            for name in source.table_names() {
                let schema = source
                    .table(name)
                    .expect("listed table exists")
                    .schema()
                    .clone();
                empty
                    .add_table(Table::new(schema))
                    .expect("unique table names per source");
            }
            *catalog.source_mut(sid) = empty;
        }
        catalog
    }

    /// Evaluates a batch of argument bindings for one AIG concurrently, one
    /// scoped thread per request, all sharing the cached plan. Results come
    /// back in request order.
    #[allow(clippy::type_complexity)]
    pub fn run_many(
        &self,
        aig: &Aig,
        requests: &[Vec<(String, Value)>],
    ) -> Vec<Result<(MediatorRun, RunReport), MediatorError>> {
        self.request_each(requests.iter().map(|request| (aig, request)))
    }

    /// Like [`Mediator::run_many`] for a heterogeneous stream: each request
    /// names its own AIG, so a batch can exercise several cached plans.
    #[allow(clippy::type_complexity)]
    pub fn serve(
        &self,
        requests: &[(&Aig, Vec<(String, Value)>)],
    ) -> Vec<Result<(MediatorRun, RunReport), MediatorError>> {
        self.request_each(requests.iter().map(|(aig, request)| (*aig, request)))
    }

    /// One scoped thread per `(aig, bindings)` request; results in order.
    #[allow(clippy::type_complexity)]
    fn request_each<'a>(
        &self,
        requests: impl Iterator<Item = (&'a Aig, &'a Vec<(String, Value)>)>,
    ) -> Vec<Result<(MediatorRun, RunReport), MediatorError>> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = requests
                .map(|(aig, request)| {
                    scope.spawn(move || {
                        let args: Vec<(&str, Value)> = request
                            .iter()
                            .map(|(name, value)| (name.as_str(), value.clone()))
                            .collect();
                        self.request(aig, &args)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("request worker panicked"))
                .collect()
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PlanCache> {
        self.cache.lock().expect("plan cache lock poisoned")
    }

    fn lock_snapshots(&self) -> std::sync::MutexGuard<'_, Lru<SnapKey, RunSnapshot>> {
        self.snapshots.lock().expect("snapshot store lock poisoned")
    }

    /// The depth a request for `fp` should start at: the configured
    /// unfolding depth, or the promoted depth if a frontier extension
    /// already taught us the data recurses deeper.
    fn starting_depth(&self, fp: u64) -> usize {
        let configured = self.plan_options.unfold_depth.max(1);
        let cache = self.lock();
        cache
            .hints
            .get(&(fp, self.opts_fp))
            .copied()
            .unwrap_or(0)
            .max(configured)
            .min(self.plan_options.max_depth)
    }

    /// Fetches the plan for (fp, depth) or prepares it on a miss. The
    /// preparation happens *while holding the cache lock*: a thundering
    /// herd of identical cold requests serializes into one miss and N-1
    /// hits instead of N redundant prepares. `promoted_from` carries the
    /// shallower plan of a frontier extension — deepening reuses its
    /// compiled/decomposed AIG and records the depth hint.
    fn lookup_or_prepare(
        &self,
        aig: &Aig,
        fp: u64,
        depth: usize,
        promoted_from: Option<Arc<PreparedPlan>>,
        phases: &mut Phases,
    ) -> Result<(Arc<PreparedPlan>, bool), MediatorError> {
        let key = PlanKey {
            aig: fp,
            depth,
            opts: self.opts_fp,
            cat: self.cat_fp,
        };
        let mut cache = self.lock();
        if promoted_from.is_some() {
            cache.promotions += 1;
            let hint = cache.hints.entry((fp, self.opts_fp)).or_insert(0);
            *hint = (*hint).max(depth);
        }
        if let Some(plan) = cache.plans.get(&key).cloned() {
            cache.hits += 1;
            return Ok((plan, true));
        }
        cache.misses += 1;
        let plan = Arc::new(match promoted_from {
            Some(prev) => crate::plan::deepen(&prev, &self.catalog, depth, phases)?,
            None => crate::plan::prepare(
                aig,
                &self.catalog,
                depth,
                &self.plan_options,
                &self.policy().network,
                phases,
            )?,
        });
        cache.evictions += u64::from(cache.plans.insert(key, plan.clone()));
        Ok((plan, false))
    }

    fn cache_obs(&self, hit: bool, promoted: bool) -> CacheObs {
        let cache = self.lock();
        CacheObs {
            enabled: true,
            hit,
            promoted,
            hits: cache.hits,
            misses: cache.misses,
            promotions: cache.promotions,
            evictions: cache.evictions,
            entries: cache.plans.len(),
            capacity: cache.plans.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig_core::paper::{mini_hospital_catalog, sigma0};

    /// The one FNV-1a helper hashes as the hand-written copies it replaced
    /// did: σ0's fingerprint, the mini hospital's schema fingerprint, the
    /// default plan options' and a table name's fault-stream coordinate
    /// are the values those gave.
    #[test]
    fn fingerprints_keep_their_values() {
        let catalog = mini_hospital_catalog().unwrap();
        assert_eq!(sigma0().unwrap().fingerprint(), 0xa10f_ab36_91e2_ec22);
        assert_eq!(catalog.schema_fingerprint(), 0xd16d_a6ef_897c_a2e3);
        let options = options_fingerprint(&PlanOptions::default());
        assert_eq!(options, 0xa7b7_7b45_882c_a32c);
        assert_eq!(Fnv64::of(b"patient"), 0x1a50_7275_8fdf_bf3e);
    }

    #[test]
    fn second_request_hits_the_plan_cache() {
        let aig = sigma0().unwrap();
        let catalog = mini_hospital_catalog().unwrap();
        // Depth 4 exceeds the data depth (3), so no frontier extension
        // muddies the counters: exactly one plan is ever prepared.
        let options = MediatorOptions::builder().unfold_depth(4).build().unwrap();
        let mediator = Mediator::new(catalog, &options).unwrap();
        let (_, cold) = mediator
            .request(&aig, &[("date", Value::str("d1"))])
            .unwrap();
        let (_, warm) = mediator
            .request(&aig, &[("date", Value::str("d2"))])
            .unwrap();
        assert!(!cold.cache.hit);
        assert!(warm.cache.hit);
        assert!(cold.cache.enabled && warm.cache.enabled);
        assert_eq!(warm.cache.misses, 1);
        assert!(warm.cache.hits >= 1);
        assert_eq!(warm.unfold_rounds, 1);
        let stats = mediator.cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn frontier_promotion_updates_hint_and_serves_later_requests_deep() {
        let aig = sigma0().unwrap();
        let catalog = mini_hospital_catalog().unwrap();
        let options = MediatorOptions::builder().unfold_depth(1).build().unwrap();
        let mediator = Mediator::new(catalog, &options).unwrap();

        // Cold request: depth 1 hits the frontier twice (data depth 3),
        // promoting 1 -> 2 -> 4.
        let (run, report) = mediator
            .request(&aig, &[("date", Value::str("d1"))])
            .unwrap();
        assert_eq!(run.depth, 4);
        assert_eq!(report.unfold_rounds, 3);
        assert!(report.cache.promoted);
        assert_eq!(mediator.cache_stats().promotions, 2);

        // Warm request: the depth hint starts it at depth 4 directly — one
        // round, served from the promoted plan.
        let (run, report) = mediator
            .request(&aig, &[("date", Value::str("d1"))])
            .unwrap();
        assert_eq!(run.depth, 4);
        assert_eq!(report.unfold_rounds, 1);
        assert!(report.cache.hit);
        assert!(!report.cache.promoted);
    }

    #[test]
    fn lru_cache_evicts_at_capacity() {
        let aig = sigma0().unwrap();
        let catalog = mini_hospital_catalog().unwrap();
        let options = MediatorOptions::builder().unfold_depth(1).build().unwrap();
        // Capacity 1: each promotion evicts the shallower plan.
        let mediator = Mediator::with_cache_capacity(catalog, &options, 1).unwrap();
        mediator
            .request(&aig, &[("date", Value::str("d1"))])
            .unwrap();
        let stats = mediator.cache_stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.capacity, 1);
        // Depth 1, 2 and 4 plans were prepared; only one fits.
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.evictions, 2);
        // The resident plan is the deep one: the next request hits.
        let (_, report) = mediator
            .request(&aig, &[("date", Value::str("d1"))])
            .unwrap();
        assert!(report.cache.hit);
        assert_eq!(mediator.cache_stats().evictions, 2);
    }

    #[test]
    fn schema_change_invalidates_cached_plans() {
        let aig = sigma0().unwrap();
        let catalog = mini_hospital_catalog().unwrap();
        let options = MediatorOptions::builder().unfold_depth(4).build().unwrap();
        let mut mediator = Mediator::new(catalog, &options).unwrap();

        mediator
            .request(&aig, &[("date", Value::str("d1"))])
            .unwrap();
        assert_eq!(mediator.cache_stats().misses, 1);
        assert_eq!(mediator.cache_stats().entries, 1);

        // A schema change (declaring a replica pair) purges the cache: the
        // next request must re-prepare instead of serving the stale plan.
        mediator
            .with_catalog_mut(|catalog| {
                let db1 = catalog.source_id("DB1").unwrap();
                let db2 = catalog.source_id("DB2").unwrap();
                catalog.declare_replica(db1, db2).unwrap();
            })
            .unwrap();
        let stats = mediator.cache_stats();
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.entries, 0);

        let (_, report) = mediator
            .request(&aig, &[("date", Value::str("d1"))])
            .unwrap();
        assert!(!report.cache.hit, "stale plan served across schema change");
        assert_eq!(mediator.cache_stats().misses, 2);

        // Pure data changes leave the cache intact.
        mediator
            .with_catalog_mut(|catalog| {
                let db3 = catalog.source_id("DB3").unwrap();
                let table = catalog.source_mut(db3).table_mut("billing").unwrap();
                table
                    .insert(vec![Value::str("t9"), Value::str("7")])
                    .unwrap();
            })
            .unwrap();
        let stats = mediator.cache_stats();
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.entries, 1);
        let (_, report) = mediator
            .request(&aig, &[("date", Value::str("d1"))])
            .unwrap();
        assert!(report.cache.hit);
    }

    #[test]
    fn warm_up_prepare_makes_the_first_request_hit() {
        let aig = sigma0().unwrap();
        let catalog = mini_hospital_catalog().unwrap();
        let mediator = Mediator::new(catalog, &MediatorOptions::default()).unwrap();
        let plan = mediator.prepare(&aig).unwrap();
        assert_eq!(plan.depth, 3);
        let (_, report) = mediator
            .request(&aig, &[("date", Value::str("d1"))])
            .unwrap();
        assert!(report.cache.hit);
    }
}
