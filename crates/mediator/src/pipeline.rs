//! The end-to-end mediator pipeline (paper §5.1, Fig. 5).
//!
//! *Pre-processing*: constraints are compiled into guards (§3.3) and
//! multi-source queries decomposed into single-source chains (§3.4);
//! recursive AIGs are unfolded to a depth estimate (§5.5) and the task
//! graph is built. *Execution*: the set-oriented queries run against the
//! sources and intermediate tables are cached; if the recursion frontier is
//! still producing data the AIG is unfolded deeper and re-run. *Tagging*:
//! the cached relations become the final DTD-conforming document.
//! *Optimization*: the graph is costed on the run's measured costs,
//! scheduled (§5.3) and merged (§5.4); the run's response times are that
//! simulation's.
//!
//! Since the prepare/execute split ([`crate::plan`]) this module is the
//! one-shot facade: [`run`] / [`run_with_report`] prepare a fresh plan and
//! execute it once, with the frontier loop re-preparing deeper as needed.
//! Long-lived callers should use [`crate::service::Mediator`], which caches
//! prepared plans across requests.

use crate::error::{ConfigError, MediatorError};
use crate::exec::{bind_policy, Scheduling};
use crate::faults::{FaultConfig, RetryPolicy};
use crate::graph::GraphOptions;
use crate::obs::{Phases, RunReport};
use crate::plan::{
    finish_run, prepare, ExecPolicy, FinishInputs, FrontEnd, FullOutcome, PlanOptions,
};
use crate::sim::NetworkModel;
use crate::unfold::CutOff;
use aig_core::spec::Aig;
use aig_relstore::{Catalog, Value};
use aig_xml::XmlTree;

/// Options of a mediator run: the compatibility facade over the split
/// [`PlanOptions`] (argument-independent planning) and [`ExecPolicy`]
/// (per-request execution). Construct with [`MediatorOptions::default`] and
/// mutate fields, or chain [`MediatorOptions::builder`].
#[derive(Debug, Clone)]
pub struct MediatorOptions {
    /// Initial unfolding depth for recursive AIGs ("a user-supplied estimate
    /// d of the maximum depth", §5.5).
    pub unfold_depth: usize,
    /// Upper bound for frontier-driven re-unfolding.
    pub max_depth: usize,
    /// Truncate at the depth (the paper's §6 setup) or detect and extend.
    pub cutoff: CutOff,
    /// Whether compiled-constraint guards abort the run.
    pub check_guards: bool,
    /// Whether the integrity defense runs: the key/inclusion constraint
    /// check on the tagged document, and — only when `faults` is `Some` —
    /// the per-task check of each shipped relation (see
    /// [`crate::integrity`]). Without a fault plan no shipped relation is
    /// checked.
    pub check_integrity: bool,
    /// Execute with the per-source worker threads of [`crate::parallel`]
    /// instead of the sequential executor (identical relations; the run
    /// report additionally carries per-task queue/wait times).
    pub parallel_exec: bool,
    pub network: NetworkModel,
    pub graph: GraphOptions,
    /// Deterministic fault injection for source tasks (None = no faults).
    pub faults: Option<FaultConfig>,
    /// Retry/backoff/timeout policy when faults are injected.
    pub retry: RetryPolicy,
    /// Selects nothing and is read by nothing: every per-source walk runs
    /// the paper's list schedule (see [`Scheduling`]).
    pub scheduling: Scheduling,
    /// Selects nothing and is read by nothing but [`exec_policy`], which
    /// copies it: every kernel inside a task runs on the task's thread (see
    /// [`aig_relstore::par`]). The field stays because callers outside the
    /// workspace still set it.
    ///
    /// [`exec_policy`]: MediatorOptions::exec_policy
    pub threads: usize,
    /// Chunked shipment, a pricing model read only by the ship seam
    /// ([`crate::batch`]): each task output's ship image is priced as its
    /// `batch_rows`-row ranges, each shipping the dictionary slice its rows
    /// touch, and holds two batches at the seam, so peak resident shipment
    /// rows are bounded by the batch size instead of the largest relation.
    /// No operator runs differently, so stores and the final document are
    /// byte-identical either way. Off by default.
    pub batching: bool,
    /// Rows per batch of the chunked shipment; only read when `batching`
    /// is on. Must be nonzero (validated at build time).
    pub batch_rows: usize,
    /// Incremental re-evaluation on source deltas ([`crate::delta`]): the
    /// `Mediator` service keeps a post-run snapshot per plan and, after a
    /// row delta, re-runs only the affected task subgraph. One-shot `run`
    /// calls ignore the flag (there is no snapshot to reuse); documents
    /// are byte-identical either way. Off by default.
    pub incremental: bool,
}

impl Default for MediatorOptions {
    fn default() -> Self {
        MediatorOptions {
            unfold_depth: 3,
            max_depth: 64,
            cutoff: CutOff::Frontier,
            check_guards: true,
            check_integrity: false,
            parallel_exec: false,
            network: NetworkModel::default(),
            graph: GraphOptions::default(),
            faults: None,
            retry: RetryPolicy::default(),
            scheduling: Scheduling::default(),
            threads: 1,
            batching: false,
            batch_rows: 2048,
            incremental: false,
        }
    }
}

impl MediatorOptions {
    /// A chainable builder starting from the defaults.
    pub fn builder() -> MediatorOptionsBuilder {
        MediatorOptionsBuilder {
            options: MediatorOptions::default(),
        }
    }

    /// Structural validation, applied by [`MediatorOptionsBuilder::build`]
    /// and by the run entry points (so hand-assembled options are caught
    /// too): zero knobs that would otherwise be silently clamped, and fault
    /// or retry knobs the fault layer cannot draw or sleep, surface as a
    /// [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.batch_rows == 0 {
            return Err(ConfigError::ZeroBatchRows);
        }
        self.faults.as_ref().map_or(Ok(()), FaultConfig::validate)?;
        self.retry.validate()
    }

    /// The argument-independent half: what the **Prepare** stage consumes
    /// (and what identifies a cached plan).
    pub fn plan_options(&self) -> PlanOptions {
        PlanOptions {
            unfold_depth: self.unfold_depth,
            max_depth: self.max_depth,
            cutoff: self.cutoff,
            graph: self.graph.clone(),
        }
    }

    /// The per-request half: what the **Execute** stage consumes.
    pub fn exec_policy(&self) -> ExecPolicy {
        ExecPolicy {
            check_guards: self.check_guards,
            check_integrity: self.check_integrity,
            parallel_exec: self.parallel_exec,
            network: self.network.clone(),
            faults: self.faults.clone(),
            retry: self.retry.clone(),
            threads: self.threads,
            batching: self.batching,
            batch_rows: self.batch_rows,
            incremental: self.incremental,
        }
    }
}

/// Chainable construction of [`MediatorOptions`]. [`build`] validates the
/// assembled options and returns [`ConfigError`] on degenerate knobs —
/// nothing is silently clamped:
///
/// ```
/// use aig_mediator::{ConfigError, CutOff, MediatorOptions};
///
/// let options = MediatorOptions::builder()
///     .unfold_depth(1)
///     .cutoff(CutOff::Frontier)
///     .parallel_exec(true)
///     .build()
///     .unwrap();
/// assert_eq!(options.unfold_depth, 1);
/// assert!(options.parallel_exec);
///
/// let err = MediatorOptions::builder().batch_rows(0).build().unwrap_err();
/// assert_eq!(err, ConfigError::ZeroBatchRows);
/// ```
///
/// [`build`]: MediatorOptionsBuilder::build
#[derive(Debug, Clone)]
pub struct MediatorOptionsBuilder {
    options: MediatorOptions,
}

impl MediatorOptionsBuilder {
    /// Initial unfolding depth for recursive AIGs (§5.5).
    ///
    /// ```
    /// use aig_mediator::MediatorOptions;
    /// let o = MediatorOptions::builder().unfold_depth(5).build().unwrap();
    /// assert_eq!(o.unfold_depth, 5);
    /// ```
    pub fn unfold_depth(mut self, depth: usize) -> Self {
        self.options.unfold_depth = depth;
        self
    }

    /// Upper bound for frontier-driven re-unfolding.
    ///
    /// ```
    /// use aig_mediator::MediatorOptions;
    /// let o = MediatorOptions::builder().max_depth(8).build().unwrap();
    /// assert_eq!(o.max_depth, 8);
    /// ```
    pub fn max_depth(mut self, depth: usize) -> Self {
        self.options.max_depth = depth;
        self
    }

    /// Truncate at the unfolding depth or detect-and-extend the frontier.
    ///
    /// ```
    /// use aig_mediator::{CutOff, MediatorOptions};
    /// let o = MediatorOptions::builder().cutoff(CutOff::Truncate).build().unwrap();
    /// assert_eq!(o.cutoff, CutOff::Truncate);
    /// ```
    pub fn cutoff(mut self, cutoff: CutOff) -> Self {
        self.options.cutoff = cutoff;
        self
    }

    /// Whether compiled-constraint guards abort the run.
    ///
    /// ```
    /// use aig_mediator::MediatorOptions;
    /// let o = MediatorOptions::builder().check_guards(false).build().unwrap();
    /// assert!(!o.check_guards);
    /// ```
    pub fn check_guards(mut self, check: bool) -> Self {
        self.options.check_guards = check;
        self
    }

    /// Whether the integrity defense runs: the document constraint check,
    /// plus the shipped-relation check under a fault plan (see
    /// [`MediatorOptions::check_integrity`]).
    ///
    /// ```
    /// use aig_mediator::MediatorOptions;
    /// let o = MediatorOptions::builder().check_integrity(true).build().unwrap();
    /// assert!(o.check_integrity);
    /// ```
    pub fn check_integrity(mut self, check: bool) -> Self {
        self.options.check_integrity = check;
        self
    }

    /// Execute with the per-source worker threads of [`crate::parallel`].
    ///
    /// ```
    /// use aig_mediator::MediatorOptions;
    /// let o = MediatorOptions::builder().parallel_exec(true).build().unwrap();
    /// assert!(o.parallel_exec);
    /// ```
    pub fn parallel_exec(mut self, parallel: bool) -> Self {
        self.options.parallel_exec = parallel;
        self
    }

    /// The simulated source ↔ mediator network.
    ///
    /// ```
    /// use aig_mediator::{MediatorOptions, NetworkModel};
    /// let o = MediatorOptions::builder().network(NetworkModel::mbps(8.0)).build().unwrap();
    /// assert_eq!(o.network.bandwidth_bytes_per_sec, 1_000_000.0);
    /// ```
    pub fn network(mut self, network: NetworkModel) -> Self {
        self.options.network = network;
        self
    }

    /// Task-graph construction knobs (cost model calibration).
    ///
    /// ```
    /// use aig_mediator::{GraphOptions, MediatorOptions};
    /// let mut g = GraphOptions::default();
    /// g.eval_scale = 2.0;
    /// let o = MediatorOptions::builder().graph(g).build().unwrap();
    /// assert_eq!(o.graph.eval_scale, 2.0);
    /// ```
    pub fn graph(mut self, graph: GraphOptions) -> Self {
        self.options.graph = graph;
        self
    }

    /// Deterministic fault injection for source tasks (`None` = no faults).
    ///
    /// ```
    /// use aig_mediator::{FaultConfig, MediatorOptions};
    /// let o = MediatorOptions::builder().faults(Some(FaultConfig::default())).build().unwrap();
    /// assert!(o.faults.is_some());
    /// ```
    pub fn faults(mut self, faults: Option<FaultConfig>) -> Self {
        self.options.faults = faults;
        self
    }

    /// Retry/backoff/timeout policy when faults are injected.
    ///
    /// ```
    /// use aig_mediator::{MediatorOptions, RetryPolicy};
    /// let mut r = RetryPolicy::default();
    /// r.max_attempts = 7;
    /// let o = MediatorOptions::builder().retry(r).build().unwrap();
    /// assert_eq!(o.retry.max_attempts, 7);
    /// ```
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.options.retry = retry;
        self
    }

    /// Chunked shipment (streaming batch execution, [`crate::batch`]).
    ///
    /// ```
    /// use aig_mediator::MediatorOptions;
    /// let o = MediatorOptions::builder().batching(true).build().unwrap();
    /// assert!(o.batching);
    /// ```
    pub fn batching(mut self, batching: bool) -> Self {
        self.options.batching = batching;
        self
    }

    /// Batch size (rows) of the chunked shipment seam. Zero is rejected at
    /// build time even when batching is off, so flipping `batching` on
    /// later cannot surface a latent bad knob.
    ///
    /// ```
    /// use aig_mediator::{ConfigError, MediatorOptions};
    /// let o = MediatorOptions::builder().batch_rows(256).build().unwrap();
    /// assert_eq!(o.batch_rows, 256);
    /// let err = MediatorOptions::builder().batch_rows(0).build().unwrap_err();
    /// assert_eq!(err, ConfigError::ZeroBatchRows);
    /// ```
    pub fn batch_rows(mut self, rows: usize) -> Self {
        self.options.batch_rows = rows;
        self
    }

    /// Incremental re-evaluation on source deltas (served requests reuse
    /// the previous run's snapshot after a delta; see [`crate::delta`]).
    ///
    /// ```
    /// use aig_mediator::MediatorOptions;
    /// let o = MediatorOptions::builder().incremental(true).build().unwrap();
    /// assert!(o.incremental);
    /// ```
    pub fn incremental(mut self, incremental: bool) -> Self {
        self.options.incremental = incremental;
        self
    }

    /// Validates ([`MediatorOptions::validate`]) and returns the assembled
    /// options.
    ///
    /// ```
    /// use aig_mediator::MediatorOptions;
    /// assert!(MediatorOptions::builder().build().is_ok());
    /// ```
    pub fn build(self) -> Result<MediatorOptions, ConfigError> {
        self.options.validate()?;
        Ok(self.options)
    }
}

/// The result of a mediator run.
#[derive(Debug, Clone)]
pub struct MediatorRun {
    /// The final document.
    pub tree: XmlTree,
    /// The unfolding depth that sufficed.
    pub depth: usize,
    /// Task and source-query counts of the final graph.
    pub tasks: usize,
    pub source_queries: usize,
    /// Simulated response time without merging (measured query costs).
    pub response_unmerged_secs: f64,
    /// Simulated response time with merging (§5.4).
    pub response_merged_secs: f64,
    /// Number of pair merges the optimizer applied.
    pub merges: usize,
}

/// Denominator floor of [`MediatorRun::merging_speedup`]: response times
/// below this are treated as "effectively zero" so a degenerate merged time
/// cannot divide the ratio to infinity.
const SPEEDUP_EPSILON_SECS: f64 = 1e-12;

impl MediatorRun {
    /// The ratio the paper's Fig. 10 reports: evaluation time without query
    /// merging over evaluation time with it.
    ///
    /// Degenerate cases are explicit: when both times are effectively zero
    /// (below `SPEEDUP_EPSILON_SECS`) there is nothing to speed up and
    /// the ratio is 1.0; when only the merged time is zero the denominator
    /// is clamped to the epsilon instead of silently reporting 1.0, so a
    /// positive unmerged time yields the large-but-finite speedup it
    /// actually represents.
    pub fn merging_speedup(&self) -> f64 {
        if self.response_unmerged_secs < SPEEDUP_EPSILON_SECS
            && self.response_merged_secs < SPEEDUP_EPSILON_SECS
        {
            return 1.0;
        }
        self.response_unmerged_secs / self.response_merged_secs.max(SPEEDUP_EPSILON_SECS)
    }
}

/// Runs the full pipeline on `aig` (an un-specialized AIG: constraints are
/// compiled and multi-source queries decomposed here).
pub fn run(
    aig: &Aig,
    catalog: &Catalog,
    args: &[(&str, Value)],
    options: &MediatorOptions,
) -> Result<MediatorRun, MediatorError> {
    run_with_report(aig, catalog, args, options).map(|(run, _)| run)
}

/// [`run`], additionally producing the full observability record of the run:
/// phase timers, per-task and per-source metrics, the merge decision log,
/// the final plan ordering, and simulated vs. actual timings.
///
/// One-shot wrapper over the prepare/execute split: a fresh
/// [`crate::plan::PreparedPlan`] is built and executed, and while the
/// recursion frontier keeps producing data (§5.5) a deeper one is prepared
/// from its front end — all a frontier round keeps of the shallower plan.
pub fn run_with_report(
    aig: &Aig,
    catalog: &Catalog,
    args: &[(&str, Value)],
    options: &MediatorOptions,
) -> Result<(MediatorRun, RunReport), MediatorError> {
    // Validate here too, not just in the builder: hand-assembled options
    // (struct literals, mutated defaults) take the same gate.
    options.validate()?;
    let mut phases = Phases::new();
    let plan_options = options.plan_options();
    // Bound once, not per unfold round, so every round replays the same
    // fault stream.
    let exec_opts = bind_policy(options.exec_policy(), catalog)?;

    let mut depth = plan_options.unfold_depth.max(1);
    let mut rounds = 0usize;
    let mut front: Option<FrontEnd> = None;
    let net = &exec_opts.policy.network;
    loop {
        rounds += 1;
        let plan = match front.take() {
            None => prepare(aig, catalog, depth, &plan_options, net, &mut phases)?,
            // Frontier rounds reuse the compiled/decomposed AIG.
            Some(front) => front.plan(catalog, depth, &plan_options, net, &mut phases)?,
        };
        let inputs = FinishInputs {
            rounds,
            ..FinishInputs::execute(&plan, catalog, args, &exec_opts, None, &mut phases)?
        };
        match finish_run(inputs)? {
            FullOutcome::Complete(done) => return Ok((done.run, done.report)),
            FullOutcome::FrontierExtend => {
                depth = crate::plan::next_depth(depth, plan_options.max_depth)?;
                front = Some(plan.into_front());
            }
        }
    }
}

/// Canonical form for comparing documents across evaluation strategies:
/// children of star-production elements are sorted by content (their order
/// is implementation-defined — the paper's pipeline emits them by
/// sort-merge, §5.1).
pub fn canonical(aig: &Aig, tree: &XmlTree) -> XmlTree {
    let star_parents: std::collections::HashSet<String> = aig
        .dtd
        .elements()
        .filter(|&e| matches!(aig.dtd.production(e), aig_xml::ContentModel::Star(_)))
        .map(|e| aig.dtd.name(e).to_string())
        .collect();
    tree.sort_star_children(|tag| star_parents.contains(tag))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig_core::eval::evaluate;
    use aig_core::paper::{mini_hospital_catalog, sigma0};
    use aig_core::AigError;

    fn opts() -> MediatorOptions {
        MediatorOptions::default()
    }

    #[test]
    fn mediator_matches_conceptual_evaluation_on_sigma0() {
        let aig = sigma0().unwrap();
        let catalog = mini_hospital_catalog().unwrap();
        for date in ["d1", "d2", "d9"] {
            let conceptual = evaluate(&aig, &catalog, &[("date", Value::str(date))]).unwrap();
            let run = run(&aig, &catalog, &[("date", Value::str(date))], &opts()).unwrap();
            assert_eq!(
                canonical(&aig, &run.tree),
                canonical(&aig, &conceptual.tree),
                "mediator and conceptual evaluation differ on {date}"
            );
        }
    }

    /// `canonical` walks the document iteratively: σ0's recursive
    /// treatment/procedure pair nested 200,000 deep, on a 256 KiB stack.
    #[test]
    fn canonical_of_a_deep_document_does_not_recurse() {
        let deep = || {
            let aig = sigma0().unwrap();
            let mut tree = XmlTree::new("report");
            let mut node = tree.root();
            for level in 0..200_000 {
                node = tree.add_element(node, ["treatment", "procedure"][level % 2]);
            }
            assert!(canonical(&aig, &tree) == tree);
        };
        let thread = std::thread::Builder::new().stack_size(256 * 1024);
        assert!(thread.spawn(deep).unwrap().join().is_ok());
    }

    #[test]
    fn mediator_reports_plan_metrics() {
        let aig = sigma0().unwrap();
        let catalog = mini_hospital_catalog().unwrap();
        let args = [("date", Value::str("d1"))];
        let (run, report) = run_with_report(&aig, &catalog, &args, &opts()).unwrap();
        assert!(run.tasks > 10);
        assert!(run.source_queries >= 5, "queries: {}", run.source_queries);
        assert!(run.response_unmerged_secs > 0.0);
        assert!(run.response_merged_secs <= run.response_unmerged_secs);
        assert!(run.depth >= 3);
        // Four DBs + the mediator run tasks; the report counts every one.
        let busy = report.sources.iter().filter(|s| s.tasks > 0).count();
        assert!(busy >= 5, "sources with tasks: {busy}");
        let tasks: usize = report.sources.iter().map(|s| s.tasks).sum();
        assert_eq!(tasks, run.tasks);
    }

    #[test]
    fn frontier_mode_extends_until_data_depth() {
        let aig = sigma0().unwrap();
        let catalog = mini_hospital_catalog().unwrap();
        let options = MediatorOptions::builder().unfold_depth(1).build().unwrap();
        let run = run(&aig, &catalog, &[("date", Value::str("d1"))], &options).unwrap();
        // Data depth is 3 (t1 -> t4 -> t5): depth 1 -> 2 -> 4.
        assert!(run.depth >= 3, "depth {}", run.depth);
        let text = aig_xml::serialize::to_string(&run.tree);
        assert!(text.contains("bloodwork"), "deep treatment missing");
    }

    #[test]
    fn truncate_mode_stops_at_depth() {
        let aig = sigma0().unwrap();
        let catalog = mini_hospital_catalog().unwrap();
        let options = MediatorOptions::builder()
            .unfold_depth(1)
            .cutoff(CutOff::Truncate)
            .build()
            .unwrap();
        let run = run(&aig, &catalog, &[("date", Value::str("d1"))], &options);
        // Truncation drops t4/t5; the inclusion constraint *still holds*
        // (billing covers all), but t4/t5 items disappear because the bill
        // is driven by the collected (truncated) set. The run succeeds with
        // a shallower document.
        let run = run.unwrap();
        assert_eq!(run.depth, 1);
        let text = aig_xml::serialize::to_string(&run.tree);
        assert!(text.contains("surgery"));
        assert!(!text.contains("anesthesia"));
    }

    #[test]
    fn guard_violations_abort_the_mediator_run() {
        // Duplicate billing row for t1: the key is violated.
        let aig = sigma0().unwrap();
        let full = mini_hospital_catalog().unwrap();
        let mut catalog = aig_core::paper::empty_hospital_catalog();
        for db in ["DB1", "DB2", "DB4"] {
            let src = full.source_id(db).unwrap();
            let dst = catalog.source_id(db).unwrap();
            for table in full.source(src).table_names() {
                let rows = full.source(src).table(table).unwrap().rows();
                let t = catalog.source_mut(dst).table_mut(table).unwrap();
                for row in rows {
                    t.insert(row).unwrap();
                }
            }
        }
        let dst = catalog.source_id("DB3").unwrap();
        *catalog.source_mut(dst) = aig_relstore::Database::new("DB3");
        let mut billing = aig_relstore::Table::new(aig_relstore::TableSchema::strings(
            "billing",
            &["trId", "price"],
            &[],
        ));
        for (t, p) in [
            ("t1", "100"),
            ("t1", "999"),
            ("t2", "250"),
            ("t3", "80"),
            ("t4", "40"),
            ("t5", "15"),
        ] {
            billing.insert(vec![Value::str(t), Value::str(p)]).unwrap();
        }
        catalog.source_mut(dst).add_table(billing).unwrap();

        let err = run(&aig, &catalog, &[("date", Value::str("d1"))], &opts()).unwrap_err();
        assert!(
            matches!(
                err,
                MediatorError::Aig(AigError::ConstraintViolation { .. })
            ),
            "{err}"
        );
        // With guards disabled the run completes.
        let options = MediatorOptions::builder()
            .check_guards(false)
            .build()
            .unwrap();
        assert!(run_ok(&aig, &catalog, &options));
    }

    fn run_ok(aig: &Aig, catalog: &Catalog, options: &MediatorOptions) -> bool {
        run(aig, catalog, &[("date", Value::str("d1"))], options).is_ok()
    }

    #[test]
    fn merging_is_applied_on_sigma0() {
        let aig = sigma0().unwrap();
        let catalog = mini_hospital_catalog().unwrap();
        let run = run(&aig, &catalog, &[("date", Value::str("d1"))], &opts()).unwrap();
        assert!(run.merges > 0, "σ0 has same-source queries to merge");
        assert!(run.merging_speedup() >= 1.0);
    }

    fn run_with_times(unmerged: f64, merged: f64) -> MediatorRun {
        MediatorRun {
            tree: XmlTree::new("x"),
            depth: 1,
            tasks: 0,
            source_queries: 0,
            response_unmerged_secs: unmerged,
            response_merged_secs: merged,
            merges: 0,
        }
    }

    #[test]
    fn merging_speedup_handles_degenerate_times() {
        // Both zero: nothing was sped up.
        assert_eq!(run_with_times(0.0, 0.0).merging_speedup(), 1.0);
        // Positive unmerged with zero merged used to silently report 1.0;
        // it now reports the (finite, epsilon-clamped) ratio it stands for.
        let speedup = run_with_times(2.0, 0.0).merging_speedup();
        assert!(speedup > 1e6, "speedup = {speedup}");
        assert!(speedup.is_finite());
        // The ordinary case is the plain ratio.
        assert!((run_with_times(3.0, 1.5).merging_speedup() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn options_split_carries_every_half() {
        let options = MediatorOptions::builder()
            .unfold_depth(2)
            .max_depth(16)
            .batch_rows(4)
            .build()
            .unwrap();
        let (plan, policy) = (options.plan_options(), options.exec_policy());
        assert_eq!((plan.unfold_depth, plan.max_depth), (2, 16));
        assert_eq!(plan.cutoff, options.cutoff);
        assert_eq!(policy.batch_rows, 4);
    }
}
