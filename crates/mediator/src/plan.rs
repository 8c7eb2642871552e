//! The prepared-plan split of the mediator pipeline (paper §5.1, Fig. 5).
//!
//! **Prepare** performs every argument-independent stage — constraint
//! compilation (§3.3), query decomposition (§3.4), recursion unfolding to a
//! depth estimate (§5.5), task-graph construction and ship-cut liveness —
//! and freezes the result into an immutable [`PreparedPlan`]. **Execute**
//! binds the request arguments and runs the plan: source queries, frontier
//! detection, tagging, validation, and the paper's optimizer — `Schedule`
//! (§5.3) and `Merge` (§5.4) — on the measured costs, which is what the
//! report's response times are. Nothing is scheduled or merged on estimates
//! at prepare time: no decision would read the result. Splitting the two
//! lets a service ([`crate::service::Mediator`]) amortize preparation across
//! requests the way relational engines amortize prepared statements.

use crate::cost::{measured_costs, CostGraph};
use crate::error::MediatorError;
use crate::exec::{ExecOptions, ExecResult, Measured, RelStore};
use crate::faults::FaultOutcome;
use crate::graph::{build_graph, GraphOptions, Occ, RelKey, TaskGraph};
use crate::merge::{merge, no_merge, MergeOutcome};
use crate::obs::{build_report, CacheObs, IncrementalObs, Phases, ReportInputs, RunReport};
use crate::parallel::walk;
use crate::pipeline::MediatorRun;
use crate::sim::NetworkModel;
use crate::unfold::{unfold, CutOff, FrontierSite};
use aig_core::spec::Aig;
use aig_core::{compile_constraints, decompose_queries};
use aig_relstore::{Catalog, SourceId, Value};
use aig_xml::{ConstraintSet, Dtd};
use std::collections::HashMap;
use std::sync::Arc;

/// The argument-independent half of [`crate::pipeline::MediatorOptions`]:
/// everything the **Prepare** stage consumes. Two requests with equal
/// `PlanOptions` (and equal AIG and depth) can share one [`PreparedPlan`].
#[derive(Debug, Clone)]
pub struct PlanOptions {
    /// Initial unfolding depth for recursive AIGs ("a user-supplied estimate
    /// d of the maximum depth", §5.5).
    pub unfold_depth: usize,
    /// Upper bound for frontier-driven re-unfolding.
    pub max_depth: usize,
    /// Truncate at the depth (the paper's §6 setup) or detect and extend.
    pub cutoff: CutOff,
    pub graph: GraphOptions,
}

/// The defaults are [`crate::pipeline::MediatorOptions`]'s, declared there.
impl Default for PlanOptions {
    fn default() -> Self {
        crate::pipeline::MediatorOptions::default().plan_options()
    }
}

/// The per-request execution policy now lives beside the options it backs
/// (see [`crate::exec::ExecPolicy`]); re-exported here because the policy
/// is the per-request half of [`crate::pipeline::MediatorOptions`] and
/// callers have always imported it from this module.
pub use crate::exec::ExecPolicy;

/// An immutable, argument-independent evaluation plan: the unfolded AIG,
/// its task graph, the per-source execution sequences and the ship-cut
/// liveness profiles. Built once by [`prepare`], shared
/// across requests behind an `Arc`, and executed any number of times with
/// different argument bindings by [`crate::service::Mediator`] (or once by
/// [`crate::pipeline::run_with_report`]).
#[derive(Debug)]
pub struct PreparedPlan {
    /// What the plan was unfolded from — kept so [`deepen`] can re-unfold
    /// without repeating compilation.
    front: FrontEnd,
    /// The unfolding depth the plan was prepared at.
    pub depth: usize,
    /// The plan-side options the plan was prepared under.
    pub options: PlanOptions,
    /// The network model the plan was prepared under. Nothing is planned
    /// on it (a run simulates under its request's [`ExecPolicy::network`]);
    /// [`deepen`] carries it to the deeper plan, and the repository
    /// benchmark's staged profile reads it.
    pub network: NetworkModel,
    /// The unfolded, specialized AIG the task graph was built from.
    pub aig: Aig,
    /// Cut-off sites of the unfolding (empty when nothing recursed deeper).
    pub frontier: Vec<FrontierSite>,
    pub graph: TaskGraph,
    /// Per-source task sequences in topological order — the static input of
    /// a per-source walk.
    pub per_source: HashMap<SourceId, Vec<usize>>,
    /// Ship-cut column-liveness profiles of the task graph, shared with
    /// every execution's options. Always `Some`: preparation always runs
    /// the analysis, and the field keeps its `Option` type for callers that
    /// already unwrap it.
    pub shipcut: Option<Arc<crate::shipcut::ShipCut>>,
    /// Per-task read-sets: which `(source, table)` pairs (and columns) each
    /// task's queries consume — the dependency index of incremental
    /// re-evaluation on source deltas (see [`crate::delta`]).
    pub read_sets: crate::delta::ReadSets,
}

impl PreparedPlan {
    /// The structural fingerprint of the source AIG (see
    /// [`Aig::fingerprint`]) — the cache-key component identifying *what*
    /// the plan evaluates.
    pub fn fingerprint(&self) -> u64 {
        self.front.fingerprint
    }

    /// `exec_opts` with the plan's liveness profiles bound, so every
    /// dispatcher accounts ship images with them.
    pub(crate) fn bind(&self, exec_opts: &ExecOptions) -> ExecOptions {
        ExecOptions {
            shipcut: self.shipcut.clone(),
            ..exec_opts.clone()
        }
    }
}

/// Per-source sequences in topological order (dependency-safe input for a
/// per-source walk when no schedule over raw task ids is available).
pub fn topo_per_source(graph: &TaskGraph) -> HashMap<SourceId, Vec<usize>> {
    let mut per_source: HashMap<SourceId, Vec<usize>> = HashMap::new();
    for &id in &graph.topo {
        per_source
            .entry(graph.tasks[id].source)
            .or_default()
            .push(id);
    }
    per_source
}

/// The **Prepare** stage: compiles constraints into guards, decomposes
/// multi-source queries, unfolds recursion to `depth`, builds the task
/// graph and analyzes its ship-cut liveness. The phases are charged to
/// `phases` under their pipeline names (`compile_constraints`,
/// `decompose`, `unfold`, `graph_build`, `shipcut`). `net` is kept as
/// [`PreparedPlan::network`]; execution simulates under the request's
/// [`ExecPolicy::network`].
pub fn prepare(
    aig: &Aig,
    catalog: &Catalog,
    depth: usize,
    options: &PlanOptions,
    net: &NetworkModel,
    phases: &mut Phases,
) -> Result<PreparedPlan, MediatorError> {
    let compiled = phases.time("compile_constraints", || {
        if aig.constraints.is_empty() {
            Ok(aig.clone())
        } else {
            compile_constraints(aig)
        }
    })?;
    let (specialized, _report) = phases.time("decompose", || decompose_queries(&compiled))?;
    let front = FrontEnd {
        fingerprint: aig.fingerprint(),
        specialized: Arc::new(specialized),
        dtd: aig.dtd.clone(),
    };
    front.plan(catalog, depth, options, net, phases)
}

/// The depth to re-unfold to when a depth-`depth` plan's frontier still
/// produced data (§5.5): double it, capped at `max_depth`; at the cap the
/// recursion budget is spent.
pub(crate) fn next_depth(depth: usize, max_depth: usize) -> Result<usize, MediatorError> {
    if depth >= max_depth {
        return Err(MediatorError::RecursionBudget { max_depth });
    }
    Ok((depth * 2).min(max_depth))
}

/// Re-unfolds an existing plan to a greater depth, reusing its compiled and
/// decomposed AIG — the frontier-promotion path of the plan cache (§5.5):
/// only `unfold`, `graph_build` and `shipcut` run again.
pub fn deepen(
    plan: &PreparedPlan,
    catalog: &Catalog,
    depth: usize,
    phases: &mut Phases,
) -> Result<PreparedPlan, MediatorError> {
    plan.front
        .clone()
        .plan(catalog, depth, &plan.options, &plan.network, phases)
}

/// The depth-independent front half of a plan, shared by [`prepare`] and
/// [`deepen`]: the source AIG's fingerprint, its compiled and decomposed
/// form every unfolding starts from, and the DTD execution output is
/// validated against.
#[derive(Debug, Clone)]
struct FrontEnd {
    fingerprint: u64,
    specialized: Arc<Aig>,
    dtd: Dtd,
}

impl FrontEnd {
    /// The back half: unfold to `depth`, build the task graph and analyze
    /// its ship-cut liveness.
    fn plan(
        self,
        catalog: &Catalog,
        depth: usize,
        options: &PlanOptions,
        net: &NetworkModel,
        phases: &mut Phases,
    ) -> Result<PreparedPlan, MediatorError> {
        let depth = depth.max(1);
        let unfolded = phases.time("unfold", || {
            unfold(&self.specialized, depth, options.cutoff)
        })?;
        let graph = phases.time("graph_build", || {
            build_graph(&unfolded.aig, catalog, &options.graph)
        })?;
        let cut = phases.time("shipcut", || {
            Arc::new(crate::shipcut::ShipCut::analyze(&unfolded.aig, &graph))
        });
        let per_source = topo_per_source(&graph);
        // Read-set analysis is a linear scan of the task kinds' query ASTs —
        // cheap enough to run untimed (the pinned prepare phase list stays
        // exactly `compile_constraints, decompose, unfold, graph_build,
        // shipcut`).
        let read_sets = crate::delta::ReadSets::analyze(&graph);
        Ok(PreparedPlan {
            front: self,
            depth,
            options: options.clone(),
            network: net.clone(),
            aig: unfolded.aig,
            frontier: unfolded.frontier,
            graph,
            per_source,
            shipcut: Some(cut),
            read_sets,
        })
    }
}

/// A completed execution with its relation store and per-task measurements
/// still attached — what the incremental-snapshot path of
/// [`crate::service::Mediator`] caches alongside the run.
#[derive(Debug)]
pub(crate) struct ExecutedRun {
    pub run: MediatorRun,
    pub report: RunReport,
    pub store: RelStore,
    pub measured: Vec<Measured>,
}

/// What one execution of a prepared plan produced.
pub(crate) enum FullOutcome {
    /// The run finished; the document, metrics and report are final.
    Complete(Box<ExecutedRun>),
    /// The recursion frontier is still producing data: the plan's depth is
    /// insufficient and the caller must re-prepare deeper (the paper's
    /// runtime re-unrolling, §5.5 — the plan cache's promotion path).
    FrontierExtend,
}

/// Everything the shared run finisher consumes (see [`finish_run`]).
pub(crate) struct FinishInputs<'a> {
    pub plan: &'a PreparedPlan,
    pub catalog: &'a Catalog,
    /// The run's options with the plan's liveness profiles bound (see
    /// [`PreparedPlan::bind`]); the finisher reads its policy from here.
    pub exec_opts: ExecOptions,
    pub phases: &'a mut Phases,
    pub rounds: usize,
    pub cache: CacheObs,
    pub exec: ExecResult,
    /// A degraded request (some sources served as empty views): its partial
    /// document may legitimately break the DTD, so it is not validated.
    pub(crate) degraded: bool,
    /// When `Some`, the document-level integrity check runs only these
    /// constraints: those whose element tags the incremental path's re-run
    /// instances can reach ([`ConstraintSet::scoped`]); `None` checks the
    /// full set.
    pub scope: Option<ConstraintSet>,
    /// The delta re-evaluation ledger for the report (default on
    /// non-incremental requests).
    pub incremental: IncrementalObs,
}

impl<'a> FinishInputs<'a> {
    /// A run ready to finish: the task graph walked under the `execute`
    /// phase — per-source workers with `parallel_exec`, one worker
    /// otherwise — masked to a refresh's re-run tasks given `reuse`. Callers
    /// set the report context (`rounds`, `cache`, …) by struct update.
    pub(crate) fn execute(
        plan: &'a PreparedPlan,
        catalog: &'a Catalog,
        args: &[(&str, Value)],
        exec_opts: &ExecOptions,
        reuse: Option<(&RelStore, &[Measured], &[bool])>,
        phases: &'a mut Phases,
    ) -> Result<FinishInputs<'a>, MediatorError> {
        let exec_opts = plan.bind(exec_opts);
        let per_source = exec_opts.policy.parallel_exec.then_some(&plan.per_source);
        let exec = phases.time("execute", || {
            walk(
                &plan.aig,
                catalog,
                &plan.graph,
                args,
                &exec_opts,
                per_source,
                reuse,
            )
        })?;
        Ok(FinishInputs {
            plan,
            catalog,
            exec_opts,
            phases,
            rounds: 1,
            cache: CacheObs::default(),
            exec,
            degraded: false,
            scope: None,
            incremental: IncrementalObs::default(),
        })
    }
}

/// The shared tail of every execution path — frontier check, tagging from
/// the store, validation, the document-level constraint check (full or
/// scoped), the measured-cost response-time simulation, and report
/// construction. Every run started by [`FinishInputs::execute`] — cold or
/// a masked refresh ([`crate::delta`]) — ends here, so the two build their
/// documents one way and cannot drift apart.
pub(crate) fn finish_run(inputs: FinishInputs<'_>) -> Result<FullOutcome, MediatorError> {
    let FinishInputs {
        plan,
        catalog,
        exec_opts,
        phases,
        rounds,
        cache,
        exec,
        degraded,
        scope,
        mut incremental,
    } = inputs;
    let policy = &exec_opts.policy;
    let ExecResult {
        store,
        measured,
        mut faults,
        sched,
        batch,
    } = exec;

    // Frontier check: if the deepest unfolded level still produced
    // instances, the data recurses deeper than the plan's depth — the
    // caller must prepare a deeper plan (§5.5).
    if plan.options.cutoff == CutOff::Frontier && !plan.frontier.is_empty() {
        let extend = phases.time("frontier_check", || -> Result<bool, MediatorError> {
            for site in &plan.frontier {
                let Some(parent) = plan.aig.elem(&site.parent) else {
                    continue;
                };
                // The frontier parent's base instances: non-empty means
                // the cut could have produced children.
                let occ = plan
                    .graph
                    .bindings
                    .iter()
                    .find(|(_, b)| b.elem == parent)
                    .map(|(occ, _)| occ.clone())
                    .unwrap_or(Occ::mat(parent));
                let base = store.get(&RelKey::Instances(occ.base))?;
                if !base.is_empty() {
                    return Ok(true);
                }
            }
            Ok(false)
        })?;
        if extend {
            return Ok(FullOutcome::FrontierExtend);
        }
    }

    // -- Tagging -------------------------------------------------------------
    // The tag plan is proven against the DTD before a node is written;
    // only a document whose plan leaves a type open is validated in full.
    let dtd = &plan.front.dtd;
    let (tree, proven) = phases.time("tag", || {
        crate::tagging::tag_proven(&plan.aig, &plan.graph, &store, dtd)
    })?;
    if incremental.snapshot_hit {
        incremental.nodes_rebuilt = tree.len();
    }
    if !degraded {
        phases.time("validate", || {
            crate::tagging::check_output(&tree, dtd, proven)
        })?;
    }
    // -- Integrity defense: the document-level constraint check --------------
    // The second detection layer (after the task-boundary guards inside the
    // executors): the tagged document is checked against the AIG's key and
    // inclusion constraints. This is what catches corruptions invisible at
    // the relation boundary, e.g. a stale replica whose truncated answer
    // breaks an inclusion between elements assembled from different tables.
    if policy.check_integrity {
        // The incremental path narrows the check to the constraints whose
        // element tags its re-run instances can reach. Tagging is a function
        // of the store, and every relation outside the re-run mask is the
        // snapshot's own, so every node outside the scope is one the
        // previous, fully checked document had.
        let constraints = scope.as_ref().unwrap_or(&plan.aig.constraints);
        let violation = phases.time("constraint_check", || constraints.check_first(&tree));
        if let Some(v) = violation {
            // Reconcile the log before surfacing: any injection still
            // marked undetected is claimed by the constraint layer.
            faults.resolve_undetected(&v.constraint);
            let culprit = faults
                .events
                .iter()
                .find(|e| e.outcome == FaultOutcome::DetectedByConstraint);
            return Err(MediatorError::IntegrityViolation {
                task: culprit
                    .map(|e| e.label.clone())
                    .unwrap_or_else(|| "document".to_string()),
                source: culprit.map(|e| e.source.clone()).unwrap_or_default(),
                table: culprit.map(|e| e.table.clone()).unwrap_or_default(),
                constraint: v.constraint,
                value: v.value,
            });
        }
    }

    // -- Response-time simulation (§5.2-5.4) ---------------------------------
    let (costs, cg) = phases.time("simulate", || {
        let costs = measured_costs(
            &plan.graph,
            &measured,
            plan.options.graph.cost_model.per_query_overhead_secs,
            plan.options.graph.eval_scale,
        );
        let cg = CostGraph::from_task_graph(&plan.graph, &costs).contract_passthrough();
        (costs, cg)
    });
    let baseline = phases.time("schedule", || no_merge(&cg, &policy.network));
    let merged: MergeOutcome = phases.time("merge", || {
        merge(
            &cg,
            &policy.network,
            plan.options.graph.cost_model.per_query_overhead_secs,
        )
    });
    let total_secs = phases.elapsed_secs();
    let report = build_report(
        ReportInputs {
            graph: &plan.graph,
            catalog,
            measured: &measured,
            costs: &costs,
            baseline: &baseline,
            merged: &merged,
            net: &policy.network,
            depth: plan.depth,
            unfold_rounds: rounds,
            parallel_exec: policy.parallel_exec,
            faults: &faults,
            check_integrity: policy.check_integrity,
            fault_seed: exec_opts.faults.as_ref().map(|p| p.seed()),
            sched: &sched,
            cache,
            batch,
            incremental,
        },
        std::mem::take(phases),
        total_secs,
    );
    let run = MediatorRun {
        tree,
        depth: plan.depth,
        tasks: plan.graph.len(),
        source_queries: plan.graph.source_query_count,
        response_unmerged_secs: baseline.response_secs,
        response_merged_secs: merged.response_secs,
        merges: merged.merges,
    };
    Ok(FullOutcome::Complete(Box::new(ExecutedRun {
        run,
        report,
        store,
        measured,
    })))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig_core::paper::{mini_hospital_catalog, sigma0};

    #[test]
    fn prepare_is_argument_independent_and_reusable() {
        let aig = sigma0().unwrap();
        let catalog = mini_hospital_catalog().unwrap();
        let options = PlanOptions::default();
        let net = NetworkModel::default();
        let mut phases = Phases::new();
        let plan = prepare(&aig, &catalog, 3, &options, &net, &mut phases).unwrap();
        assert_eq!(plan.depth, 3);
        assert_eq!(plan.fingerprint(), aig.fingerprint());
        assert!(plan.graph.len() > 10);
        // Prepare-stage phases were charged; no execute-stage phase ran.
        let names: Vec<&str> = phases.samples().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "compile_constraints",
                "decompose",
                "unfold",
                "graph_build",
                "shipcut"
            ]
        );
        assert!(plan.shipcut.is_some());
    }

    #[test]
    fn deepen_reuses_the_specialized_aig() {
        let aig = sigma0().unwrap();
        let catalog = mini_hospital_catalog().unwrap();
        let options = PlanOptions {
            unfold_depth: 1,
            ..PlanOptions::default()
        };
        let net = NetworkModel::default();
        let mut phases = Phases::new();
        let shallow = prepare(&aig, &catalog, 1, &options, &net, &mut phases).unwrap();
        let mut deepen_phases = Phases::new();
        let deep = deepen(&shallow, &catalog, 2, &mut deepen_phases).unwrap();
        assert_eq!(deep.depth, 2);
        assert_eq!(deep.fingerprint(), shallow.fingerprint());
        assert!(deep.graph.len() > shallow.graph.len());
        // Deepening never recompiles or re-decomposes.
        let names: Vec<&str> = deepen_phases
            .samples()
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(names, ["unfold", "graph_build", "shipcut"]);
    }

    #[test]
    fn identical_aigs_built_separately_share_a_fingerprint() {
        let a = sigma0().unwrap();
        let b = sigma0().unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
    }
}
