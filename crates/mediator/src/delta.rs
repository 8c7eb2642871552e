//! Incremental re-evaluation on source deltas: task-level dependency
//! tracking and subgraph re-execution.
//!
//! The mediator's evaluation is a task graph whose leaves are source
//! queries (paper §5.1). When a source table changes by a small delta, a
//! full re-run repeats every task even though most of them read tables the
//! delta never touched. This module makes re-evaluation proportional to
//! the delta's *reach* instead:
//!
//! 1. **Read-sets** ([`ReadSets::analyze`]): a static scan of the prepared
//!    plan's query ASTs records, per task, which `(source, table)` pairs
//!    the task's queries consume. Computed once at prepare time and cached
//!    on the [`crate::plan::PreparedPlan`].
//! 2. **Seeding** ([`ReadSets::seeds`]): after a
//!    [`aig_relstore::SourceDelta`] is applied, the delta's touched tables
//!    are intersected with the read-sets; tasks that read a dirty table
//!    are the re-run seeds.
//! 3. **Closure** ([`rerun_mask`]): the seeds' downstream closure over the
//!    task graph (every task that transitively consumes a seed's output)
//!    is the subgraph that must re-run; everything else reuses its cached
//!    output relation unchanged.
//! 4. **Splice**: the one walk ([`crate::parallel`]) runs *masked*
//!    by the closure, under whichever dispatcher the policy selects — the
//!    same walk and the same task body as a cold run, not a separate
//!    executor: masked-out tasks start complete with their cached relation
//!    and measurements, masked-in tasks execute against the post-delta
//!    catalog and re-ship through the same batch/ship seam.
//!
//! The byte-identity invariant carries over from the executors: a spliced
//! store is relation-for-relation equal to a cold run's store, and the
//! refresh tags it exactly as a cold run does
//! ([`crate::tagging::tag_document`], in [`crate::plan`]'s shared finisher),
//! so the document and every downstream artifact are byte-identical to a
//! cold full run. Fault injection replays deterministically per
//! `(task, attempt)`, so transient and latency faults re-run identically;
//! mid-run outage plans
//! (`dies_after`) depend on global per-source completion counts and take
//! the full-run path instead (see [`crate::service::Mediator`]).

use crate::graph::TaskGraph;
use aig_core::spec::{Aig, ElemIdx, Prod};
use aig_sql::FromItem;
use std::collections::{BTreeSet, HashSet};

/// A `(source name, table name)` pair — the granularity deltas are tracked
/// at.
pub type TableRef = (String, String);

/// Per-task read-sets of a prepared plan: which stored tables every task's
/// queries consume. Matching is table-level because deltas carry whole
/// rows. Tasks without source queries (assembles, guards, aggregations)
/// have empty read-sets — they are reached through the downstream closure
/// instead.
#[derive(Debug, Clone, Default)]
pub struct ReadSets {
    /// Per task: the `(source, table)` pairs read by its queries.
    tables: Vec<BTreeSet<TableRef>>,
}

impl ReadSets {
    /// Scans the task graph's query ASTs and records each task's reads.
    pub fn analyze(graph: &TaskGraph) -> ReadSets {
        let mut tables = vec![BTreeSet::new(); graph.tasks.len()];
        for (id, task) in graph.tasks.iter().enumerate() {
            if let Some(vq) = task.query() {
                for item in &vq.query.from {
                    if let FromItem::Table { source, table, .. } = item {
                        tables[id].insert((source.clone(), table.clone()));
                    }
                }
            }
        }
        ReadSets { tables }
    }

    /// The `(source, table)` pairs task `id` reads.
    pub fn tables(&self, id: usize) -> &BTreeSet<TableRef> {
        &self.tables[id]
    }

    /// Union of all tasks' read tables (what the plan depends on at all).
    pub fn tracked(&self) -> BTreeSet<TableRef> {
        self.tables.iter().flatten().cloned().collect()
    }

    /// Tasks whose read-sets intersect the dirty tables — the re-run
    /// seeds of an incremental evaluation.
    pub fn seeds(&self, dirty: &BTreeSet<TableRef>) -> Vec<usize> {
        self.tables
            .iter()
            .enumerate()
            .filter(|(_, reads)| reads.iter().any(|t| dirty.contains(t)))
            .map(|(id, _)| id)
            .collect()
    }
}

/// The downstream closure of `seeds` over the task graph: `mask[id]` is
/// true for every seed and every task that transitively consumes a
/// masked task's output — the subgraph an incremental evaluation re-runs.
pub fn rerun_mask(graph: &TaskGraph, seeds: &[usize]) -> Vec<bool> {
    let mut mask = vec![false; graph.tasks.len()];
    let mut stack: Vec<usize> = seeds.to_vec();
    while let Some(id) = stack.pop() {
        if mask[id] {
            continue;
        }
        mask[id] = true;
        for &next in graph.consumers(id) {
            if !mask[next] {
                stack.push(next);
            }
        }
    }
    mask
}

/// Materialized elements whose instance tables the re-run subgraph
/// produces — the taint set of a refresh: every other instance table is
/// the snapshot's own, so only nodes at or below these elements can differ
/// from the previous document.
pub(crate) fn tainted_elems(graph: &TaskGraph, rerun: &[bool]) -> HashSet<ElemIdx> {
    let materialized = graph.materialized.iter().copied();
    materialized
        .filter(|&elem| rerun[graph.instances_of(elem)])
        .collect()
}

/// Element tags reachable from the tainted elements through the unfolded
/// productions (internal computation states are never tagged and are not
/// descended into) — the scope of the incremental constraint re-check.
/// Tagging is a deterministic function of the store, and every relation
/// outside the re-run mask is the snapshot's own, so the nodes outside the
/// scope are the ones the previous, fully checked document had: a
/// constraint none of whose tags appear here sees the same values, and its
/// previous result holds.
pub(crate) fn scope_tags(aig: &Aig, tainted: &HashSet<ElemIdx>) -> HashSet<String> {
    let mut seen: HashSet<ElemIdx> = HashSet::new();
    let mut stack: Vec<ElemIdx> = tainted.iter().copied().collect();
    while let Some(elem) = stack.pop() {
        if !seen.insert(elem) {
            continue;
        }
        match &aig.elem_info(elem).prod {
            Prod::Items(items) => {
                for item in items {
                    if !aig.elem_info(item.elem).internal {
                        stack.push(item.elem);
                    }
                }
            }
            Prod::Choice { branches, .. } => {
                for branch in branches {
                    stack.push(branch.elem);
                }
            }
            _ => {}
        }
    }
    seen.iter()
        .map(|&e| aig.elem_info(e).tag().to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{build_graph, GraphOptions, TaskKind};
    use crate::unfold::{unfold, CutOff};
    use aig_core::paper::{mini_hospital_catalog, sigma0};
    use aig_core::spec::Aig;
    use aig_core::{compile_constraints, decompose_queries};

    fn unfolded_fixture() -> (Aig, aig_relstore::Catalog, TaskGraph) {
        let aig = sigma0().unwrap();
        let catalog = mini_hospital_catalog().unwrap();
        let compiled = compile_constraints(&aig).unwrap();
        let (specialized, _) = decompose_queries(&compiled).unwrap();
        let unfolded = unfold(&specialized, 3, CutOff::Frontier).unwrap();
        let graph = build_graph(&unfolded.aig, &catalog, &GraphOptions::default()).unwrap();
        (unfolded.aig, catalog, graph)
    }

    #[test]
    fn read_sets_cover_every_source_query_and_only_those() {
        let (_aig, _catalog, graph) = unfolded_fixture();
        let read_sets = ReadSets::analyze(&graph);
        for (id, task) in graph.tasks.iter().enumerate() {
            let has_query = matches!(
                &task.kind,
                TaskKind::Gen { query: Some(_), .. }
                    | TaskKind::InhSetQuery { .. }
                    | TaskKind::Cond { .. }
            );
            let queries_tables = match &task.kind {
                TaskKind::Gen { query: Some(q), .. } => !q.query.sources().is_empty(),
                TaskKind::InhSetQuery { query, .. } => !query.query.sources().is_empty(),
                TaskKind::Cond { query, .. } => !query.query.sources().is_empty(),
                _ => false,
            };
            assert_eq!(
                !read_sets.tables(id).is_empty(),
                queries_tables,
                "task {id} ({}) read-set mismatch",
                task.label
            );
            if !has_query {
                assert!(read_sets.tables(id).is_empty());
            }
        }
        // The mini-hospital plan reads the visit table somewhere.
        assert!(read_sets
            .tracked()
            .iter()
            .any(|(_, table)| table == "visitInfo"));
    }

    #[test]
    fn rerun_mask_is_the_downstream_closure_of_the_seeds() {
        let (_aig, _catalog, graph) = unfolded_fixture();
        let read_sets = ReadSets::analyze(&graph);
        let dirty: BTreeSet<TableRef> = [("DB1".to_string(), "visitInfo".to_string())].into();
        let seeds = read_sets.seeds(&dirty);
        assert!(!seeds.is_empty(), "no task reads DB1.visitInfo");
        let mask = rerun_mask(&graph, &seeds);
        // Closure property: a task is masked iff it is a seed or depends
        // on a masked task.
        for (id, task) in graph.tasks.iter().enumerate() {
            let dep_masked = task.deps.iter().any(|(dep, _)| mask[*dep]);
            if dep_masked {
                assert!(mask[id], "task {id} consumes a masked task but is unmasked");
            }
            if mask[id] && !seeds.contains(&id) {
                assert!(dep_masked, "masked task {id} has no masked dependency");
            }
        }
        // A single-table delta must not re-run the whole plan.
        let rerun = mask.iter().filter(|&&m| m).count();
        assert!(
            rerun < graph.tasks.len(),
            "single-table delta re-runs everything ({rerun}/{})",
            graph.tasks.len()
        );
        assert!(rerun >= seeds.len());
    }

    #[test]
    fn untouched_tables_seed_nothing() {
        let (_aig, _catalog, graph) = unfolded_fixture();
        let read_sets = ReadSets::analyze(&graph);
        let dirty: BTreeSet<TableRef> = [("DB9".to_string(), "nonexistent".to_string())].into();
        assert!(read_sets.seeds(&dirty).is_empty());
    }

    #[test]
    fn tainted_elems_track_rerun_instance_producers() {
        let (aig, _catalog, graph) = unfolded_fixture();
        let read_sets = ReadSets::analyze(&graph);
        let dirty: BTreeSet<TableRef> = [("DB1".to_string(), "visitInfo".to_string())].into();
        let mask = rerun_mask(&graph, &read_sets.seeds(&dirty));
        let tainted = tainted_elems(&graph, &mask);
        assert!(!tainted.is_empty());
        // The root is produced by the argument-binding task, which reads
        // no source table and sits upstream of everything.
        assert!(!tainted.contains(&aig.root));
        let scope = scope_tags(&aig, &tainted);
        assert!(!scope.is_empty());
        // Scope is closed downward: every tainted element's own tag is in.
        for &e in &tainted {
            assert!(scope.contains(aig.elem_info(e).tag()));
        }
    }
}
