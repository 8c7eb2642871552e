//! Ship-cut: column-liveness analysis at ship boundaries.
//!
//! Every intermediate relation the executor materializes is, conceptually,
//! a temporary table that crosses the network when its producer and its
//! consumers live at different sources (paper §5.1–§5.2: the decomposed
//! plan ships `T1`-style temp tables between sources and the mediator).
//! The task graph knows *exactly* which columns each consumer reads — join
//! keys, broadcast scalars, and the `__owner`/ordinal bookkeeping — so any
//! column no downstream consumer touches is dead weight on the wire.
//!
//! [`ShipCut::analyze`] walks the graph in reverse topological order and
//! computes, per producing task, the set of live columns of its output
//! relation, distinguishing two channels:
//!
//! * **live-anywhere** — the union over *all* consumers, used to propagate
//!   liveness backwards through mediator-side materializers (an
//!   [`TaskKind::Assemble`] only needs an input column if the instance
//!   column it feeds is live anywhere downstream, including the tagging
//!   phase);
//! * **live-on-ship** — the union over consumers whose edge actually costs
//!   something under the network model: everything except
//!   mediator→mediator edges, which are free (same source, no temp-table
//!   load at the mediator).
//!
//! The executors keep the *full* relations in their stores — results,
//! documents, and constraint checks are byte-for-byte unaffected — and use
//! the profile only to account what a pruning shipper would put on the
//! wire: the ship seam ([`crate::batch`]) prices the output relation's live
//! columns (bookkeeping columns are always retained) and, when every
//! costed consumer is duplicate-insensitive (`IN`-style membership reads,
//! which re-deduplicate on arrival), collapses duplicates too. Those bytes
//! flow into the measured cost graph, the response-time simulation, the
//! scheduler, and the run report.

use crate::graph::{Occ, ParamInput, ScalarBind, TaskGraph, TaskKind, VectorQuery};
use aig_core::copyelim::{resolve_scalar, ResolvedScalar};
use aig_core::spec::{Aig, FieldRule, Prod};
use aig_relstore::Relation;
#[cfg(test)]
use aig_relstore::Value;
use aig_sql::{FromItem, Pred, QualCol, Scalar};
use std::collections::BTreeSet;

/// Bookkeeping columns the relational encoding itself depends on: row
/// identity, parent links, ordinals, occurrence tags, set ownership and
/// membership, and choice picks. These are *always* live — the liveness
/// analysis never drops them, whatever the consumers look like.
pub const BOOKKEEPING: [&str; 7] = [
    "__rowid", "__parent", "__ord", "__occ", "__owner", "__pick", "__member",
];

/// True for column names the analysis must always keep.
pub fn is_bookkeeping(name: &str) -> bool {
    BOOKKEEPING.contains(&name)
}

/// A set of live columns of one relation, addressed by name (most reads)
/// or by position (positional reads such as `RelFirstDistinct`, which takes
/// "the first component" of a set relation whatever it is called).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LiveSet {
    /// Everything is live (conservative reads: set iteration, aggregation,
    /// guards, or any consumer the analysis does not model precisely).
    pub all: bool,
    pub names: BTreeSet<String>,
    pub positions: BTreeSet<usize>,
}

impl LiveSet {
    fn everything() -> LiveSet {
        LiveSet {
            all: true,
            ..LiveSet::default()
        }
    }

    fn merge(&mut self, other: &LiveSet) {
        if other.all {
            self.all = true;
        }
        if self.all {
            // Name/position detail is irrelevant once everything is live.
            self.names.clear();
            self.positions.clear();
            return;
        }
        self.names.extend(other.names.iter().cloned());
        self.positions.extend(other.positions.iter().copied());
    }

    /// Is the column `name` at position `pos` live? Bookkeeping columns
    /// always are.
    pub fn contains(&self, name: &str, pos: usize) -> bool {
        self.all
            || is_bookkeeping(name)
            || self.names.contains(name)
            || self.positions.contains(&pos)
    }
}

/// The ship profile of one task's output relation.
#[derive(Debug, Clone, Default)]
pub struct ShipProfile {
    /// Columns live across costed (shipping) edges. `all` when the task
    /// has no costed consumer at all — nothing to cut, ship accounting
    /// falls back to the full relation.
    pub live: LiveSet,
    /// Every costed consumer is duplicate-insensitive, so a pruning
    /// shipper would also collapse duplicate rows of the projected image.
    pub dedup: bool,
    /// Number of consumers whose edge from this producer costs transfer
    /// or temp-table load time.
    pub ship_consumers: usize,
}

/// Per-task liveness profiles for a task graph (see module docs).
#[derive(Debug, Clone, Default)]
pub struct ShipCut {
    profiles: Vec<ShipProfile>,
}

/// One consumer's read of the relation task `task` writes, accumulated
/// during the walk.
struct Read {
    task: usize,
    live: LiveSet,
    /// Duplicates in the relation can change this consumer's output.
    dup_sensitive: bool,
}

impl Read {
    fn all(task: usize) -> Read {
        Read {
            task,
            live: LiveSet::everything(),
            dup_sensitive: true,
        }
    }

    fn names<I: IntoIterator<Item = String>>(task: usize, names: I) -> Read {
        Read {
            task,
            live: LiveSet {
                all: false,
                names: names.into_iter().collect(),
                positions: BTreeSet::new(),
            },
            dup_sensitive: true,
        }
    }
}

impl ShipCut {
    /// Computes the liveness profiles of every task's output relation.
    pub fn analyze(aig: &Aig, graph: &TaskGraph) -> ShipCut {
        let n = graph.tasks.len();
        let mut live_any: Vec<LiveSet> = vec![LiveSet::default(); n];
        let mut profiles: Vec<ShipProfile> = vec![ShipProfile::default(); n];
        let mut dup_sensitive_ship: Vec<usize> = vec![0; n];

        // The tagging phase (and the final document) reads, per occurrence,
        // the scalar columns PCDATA productions resolve to, plus the
        // bookkeeping columns of every instance table. Seed live-anywhere
        // with those mediator-side reads so backward propagation through
        // Assemble keeps the columns the document is printed from.
        for (occ, binding) in &graph.bindings {
            let info = aig.elem_info(binding.elem);
            let Prod::Pcdata { text } = &info.prod else {
                continue;
            };
            let Some(ResolvedScalar::InhField(f)) = resolve_scalar(aig, binding.elem, text) else {
                continue;
            };
            if let Some(ScalarBind::Col(c)) = binding.scalars.get(&f) {
                live_any[graph.instances_of(occ.base)]
                    .names
                    .insert(c.clone());
            }
        }

        // Reverse topological order: every consumer of a task's output is
        // processed before the task itself, so `live_any[t]` is final when
        // `t`'s own reads (which may depend on it, e.g. Assemble) are
        // derived.
        for &t in graph.topo.iter().rev() {
            for read in task_reads(aig, graph, t, &live_any[t]) {
                let p = read.task;
                live_any[p].merge(&read.live);
                let free =
                    graph.tasks[t].source.is_mediator() && graph.tasks[p].source.is_mediator();
                if !free {
                    profiles[p].live.merge(&read.live);
                    profiles[p].ship_consumers += 1;
                    if read.dup_sensitive {
                        dup_sensitive_ship[p] += 1;
                    }
                }
            }
        }

        for (p, profile) in profiles.iter_mut().enumerate() {
            if profile.ship_consumers == 0 {
                // No costed edge: nothing ships, account the full relation.
                profile.live = LiveSet::everything();
            } else {
                profile.dedup = dup_sensitive_ship[p] == 0;
            }
        }
        ShipCut { profiles }
    }

    /// The profile of one task's output.
    pub fn profile(&self, task: usize) -> &ShipProfile {
        &self.profiles[task]
    }

    /// Positions of the live columns of `rel`, the output of `task`.
    pub fn live_columns(&self, task: usize, rel: &Relation) -> Vec<usize> {
        let live = &self.profiles[task].live;
        rel.columns()
            .iter()
            .enumerate()
            .filter(|(pos, name)| live.contains(name, *pos))
            .map(|(pos, _)| pos)
            .collect()
    }

    /// The ship image itself: the relation a pruning shipper would put on
    /// the wire — the live columns of `rel` (shared column buffers, not a
    /// copy), duplicates collapsed under a dedup profile. The ship seam
    /// ([`crate::batch`]) builds it only to collapse duplicates; otherwise
    /// it prices the live columns of `rel` where they lie.
    pub fn ship_image(&self, task: usize, rel: &Relation) -> Relation {
        let image = rel.project_positions(&self.live_columns(task, rel));
        match self.profiles[task].dedup {
            true => image.distinct(),
            false => image,
        }
    }

    /// Estimate-side counterpart of the ship seam's price: the fraction
    /// of `task`'s output columns that survive pruning, counted over the
    /// output schema the graph holds ([`crate::graph::Task::schema`], the
    /// executor's; `_aig` stays in the signature for existing callers).
    /// `None` when nothing is pruned — callers leave the size estimate
    /// untouched then. The mediator plans on measured costs only, so its
    /// one caller is the staged profile of the repository benchmark
    /// (`benchmark/src/traced.rs`), which scales its estimated shipments
    /// by it.
    pub fn estimated_live_fraction(
        &self,
        task: usize,
        _aig: &Aig,
        graph: &TaskGraph,
    ) -> Option<f64> {
        let profile = &self.profiles[task];
        if profile.ship_consumers == 0 || profile.live.all {
            return None;
        }
        let columns = &graph.tasks[task].schema;
        if columns.is_empty() {
            return None;
        }
        let live = columns
            .iter()
            .enumerate()
            .filter(|(pos, name)| profile.live.contains(name, *pos))
            .count();
        if live == columns.len() {
            return None;
        }
        Some(live as f64 / columns.len() as f64)
    }
}

/// The reads task `t` performs on its input relations, mirroring the
/// executor's semantics in [`crate::exec`]. `out_live` is the (final)
/// live-anywhere set of `t`'s own output, used to propagate liveness
/// backwards through pure materializers.
fn task_reads(aig: &Aig, graph: &TaskGraph, t: usize, out_live: &LiveSet) -> Vec<Read> {
    let task = &graph.tasks[t];
    match &task.kind {
        TaskKind::Root { .. } => Vec::new(),
        TaskKind::Gen {
            parent,
            query,
            set_input,
            broadcast,
            ..
        } => {
            let broadcast_cols = broadcast.iter().filter_map(|(_, b)| match b {
                ScalarBind::Col(c) => Some(c.clone()),
                ScalarBind::Const(_) => None,
            });
            match query {
                Some(vq) => query_reads(vq, broadcast_cols.collect()),
                None => {
                    // Mediator iteration over a set relation: every component
                    // becomes a child field. The base instance table supplies
                    // broadcast scalars (plus `__rowid`, which is bookkeeping).
                    let mut reads = vec![Read::names(
                        graph.instances_of(parent.base),
                        broadcast_cols.collect::<Vec<_>>(),
                    )];
                    if let Some(input) = set_input {
                        reads.push(Read::all(input.task));
                    }
                    reads
                }
            }
        }
        TaskKind::InhSetQuery { query, .. } => query_reads(query, Vec::new()),
        TaskKind::Cond { occ, query } => {
            let mut reads = query_reads(query, Vec::new());
            // The executor re-keys picks through the base `__rowid` column
            // (bookkeeping, live regardless).
            reads.push(Read::names(graph.instances_of(occ.base), Vec::new()));
            reads
        }
        TaskKind::Assemble { elem, inputs } => {
            // Input parts are `(__parent, __ord, fields…)`; the output
            // instance table is `(__rowid, __parent, __ord, __occ, fields…)`
            // with the same field names. An input column is live exactly
            // when the instance column it feeds is live anywhere downstream.
            let info = aig.elem_info(*elem);
            let live_fields: Vec<String> = info
                .inh
                .iter()
                .filter(|f| f.ty.is_scalar())
                .map(|f| f.name.clone())
                .enumerate()
                .filter(|(i, name)| out_live.contains(name, i + 4))
                .map(|(_, name)| name)
                .collect();
            inputs
                .iter()
                .map(|&(input, _)| {
                    if out_live.all {
                        Read::all(input)
                    } else {
                        Read::names(input, live_fields.clone())
                    }
                })
                .collect()
        }
        TaskKind::BranchMat { occ, branch, picks } => {
            let mut reads = branch_reads(aig, graph, occ, *branch);
            reads.push(Read::all(*picks));
            reads
        }
        // Aggregation, set algebra and constraint guards read whole
        // relations; guards are also duplicate-sensitive by definition
        // (uniqueness is a statement about the full bag).
        TaskKind::SynAgg { .. } | TaskKind::Guard { .. } => (task.deps.iter())
            .map(|&(producer, _)| Read::all(producer))
            .collect(),
    }
}

/// A branch-materialization task's read of its base instance table: the
/// columns the branch's scalar assignments resolve to.
fn branch_reads(aig: &Aig, graph: &TaskGraph, occ: &Occ, branch: usize) -> Vec<Read> {
    let mut reads = Vec::new();
    let base = graph.instances_of(occ.base);
    let Some(binding) = graph.bindings.get(occ) else {
        reads.push(Read::all(base));
        return reads;
    };
    let info = aig.elem_info(binding.elem);
    let Prod::Choice { branches, .. } = &info.prod else {
        reads.push(Read::all(base));
        return reads;
    };
    let mut cols: Vec<String> = Vec::new();
    for (_, rule) in &branches[branch].assigns {
        let FieldRule::Scalar(expr) = rule else {
            continue;
        };
        match resolve_scalar(aig, binding.elem, expr) {
            Some(ResolvedScalar::Const(_)) => {}
            Some(ResolvedScalar::InhField(f)) => match binding.scalars.get(&f) {
                Some(ScalarBind::Col(c)) => cols.push(c.clone()),
                Some(ScalarBind::Const(_)) => {}
                None => {
                    reads.push(Read::all(base));
                    return reads;
                }
            },
            None => {
                reads.push(Read::all(base));
                return reads;
            }
        }
    }
    reads.push(Read::names(base, cols));
    reads
}

/// Reads of a vectorized query: per relation parameter, the columns the
/// query references through the parameter's FROM alias (`__owner` join
/// predicates are bookkeeping); `IN`-style parameters are positional
/// (`__owner` + first component) and duplicate-insensitive because the
/// executor re-deduplicates them before the join. `extra_base` adds
/// broadcast columns the surrounding task reads from the base table
/// outside the query.
fn query_reads(vq: &VectorQuery, extra_base: Vec<String>) -> Vec<Read> {
    let cols = qual_cols(&vq.query);
    let cols_of = |alias: &str| -> Vec<String> {
        cols.iter()
            .filter(|c| c.qualifier == alias)
            .map(|c| c.column.clone())
            .collect()
    };
    vq.inputs
        .iter()
        .map(|(name, input)| match input {
            ParamInput::Rel(input) => {
                let alias = vq
                    .query
                    .from
                    .iter()
                    .find_map(|item| match item {
                        FromItem::Param { name: n, alias } if n == name => Some(alias.as_str()),
                        _ => None,
                    })
                    .unwrap_or(name.as_str());
                let mut names = cols_of(alias);
                if name == "__base" {
                    names.extend(extra_base.iter().cloned());
                }
                Read::names(input.task, names)
            }
            ParamInput::RelFirstDistinct(input) => Read {
                task: input.task,
                live: LiveSet {
                    all: false,
                    names: BTreeSet::new(),
                    positions: [0, 1].into_iter().collect(),
                },
                dup_sensitive: false,
            },
        })
        .collect()
}

/// Every qualified column the query references, in SELECT and WHERE.
fn qual_cols(query: &aig_sql::Query) -> Vec<QualCol> {
    fn push(out: &mut Vec<QualCol>, s: &Scalar) {
        if let Scalar::Col(c) = s {
            out.push(c.clone());
        }
    }
    let mut out = Vec::new();
    for item in &query.select {
        push(&mut out, &item.expr);
    }
    for pred in &query.preds {
        match pred {
            Pred::Cmp { lhs, rhs, .. } => {
                push(&mut out, lhs);
                push(&mut out, rhs);
            }
            Pred::In { col, .. } => out.push(col.clone()),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{build_graph, GraphOptions};
    use crate::unfold::{unfold, CutOff};
    use aig_core::paper::{mini_hospital_catalog, sigma0};
    use aig_core::{compile_constraints, decompose_queries};

    fn fixture() -> (Aig, TaskGraph) {
        let aig = sigma0().unwrap();
        let compiled = compile_constraints(&aig).unwrap();
        let (specialized, _) = decompose_queries(&compiled).unwrap();
        let unfolded = unfold(&specialized, 3, CutOff::Truncate).unwrap();
        let catalog = mini_hospital_catalog().unwrap();
        let graph = build_graph(&unfolded.aig, &catalog, &GraphOptions::default()).unwrap();
        (unfolded.aig, graph)
    }

    #[test]
    fn bookkeeping_columns_are_never_dropped() {
        let (aig, graph) = fixture();
        let cut = ShipCut::analyze(&aig, &graph);
        // Whatever the profile, a relation made of bookkeeping columns
        // survives projection untouched — even against an empty live set.
        let rel = Relation::empty(
            BOOKKEEPING
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>(),
        );
        for t in 0..graph.tasks.len() {
            assert_eq!(
                cut.live_columns(t, &rel),
                (0..BOOKKEEPING.len()).collect::<Vec<_>>(),
                "task {t} ({}) drops bookkeeping columns",
                graph.tasks[t].label
            );
        }
        let empty = LiveSet::default();
        for (pos, name) in BOOKKEEPING.iter().enumerate() {
            assert!(empty.contains(name, pos), "{name} not implicitly live");
        }
    }

    #[test]
    fn guard_inputs_stay_fully_live() {
        // Key-constraint checks (guards) inspect whole relations: a guard
        // reads every input in full and duplicate-sensitively, and an input
        // never loses a column or a duplicate on its way to the guard. An
        // input may be pruned for its *other* consumers only when the guard
        // reads it over a free (mediator→mediator) edge, from the store,
        // and those consumers are all `IN` membership reads — σ0's
        // `__c1_sub` is `trIdS`, which bill's `IN $trIdS` also reads.
        let (aig, graph) = fixture();
        let cut = ShipCut::analyze(&aig, &graph);
        let mut whole = 0;
        for (g, task) in graph.tasks.iter().enumerate() {
            let TaskKind::Guard { .. } = &task.kind else {
                continue;
            };
            for read in task_reads(&aig, &graph, g, &LiveSet::everything()) {
                assert!(
                    read.live.all && read.dup_sensitive,
                    "guard `{}` reads part of an input",
                    task.label
                );
            }
            for (dep, _) in &task.deps {
                if cut.profile(*dep).live.all {
                    whole += 1;
                    continue;
                }
                let free = task.source.is_mediator() && graph.tasks[*dep].source.is_mediator();
                assert!(
                    free && cut.profile(*dep).dedup,
                    "guard input `{}` lost columns",
                    graph.tasks[*dep].label
                );
            }
        }
        assert!(whole > 0, "fixture has no guard input shipped whole");
    }

    #[test]
    fn analysis_prunes_some_shipment_and_never_grows_one() {
        let (aig, graph) = fixture();
        let cut = ShipCut::analyze(&aig, &graph);
        // Cross-source edges exist in the fixture, and at least one
        // shipped relation must lose a column or collapse duplicates.
        let mut prunes = 0;
        for (t, task) in graph.tasks.iter().enumerate() {
            let profile = cut.profile(t);
            if task.output.is_some()
                && profile.ship_consumers > 0
                && (!profile.live.all || profile.dedup)
            {
                prunes += 1;
            }
        }
        assert!(prunes > 0, "liveness found nothing to cut on the fixture");
    }

    /// Some σ0 shipment loses part of its columns, and the estimate-side
    /// fraction says how much: strictly between nothing and everything.
    #[test]
    fn estimated_live_fraction_prices_a_pruned_shipment() {
        let (aig, graph) = fixture();
        let cut = ShipCut::analyze(&aig, &graph);
        let fractions: Vec<f64> = (0..graph.tasks.len())
            .filter_map(|t| cut.estimated_live_fraction(t, &aig, &graph))
            .collect();
        assert!(
            fractions.iter().any(|&f| 0.0 < f && f < 1.0),
            "no σ0 task ships part of its schema: {fractions:?}"
        );
        assert!(fractions.iter().all(|&f| (0.0..1.0).contains(&f)));
    }

    /// The ship seam prices the ship image without building it unless it
    /// collapses duplicates: on every task output of σ0 at depths 3, 6, 12
    /// and 24 its materializing price is the image's wire size and its
    /// batched price the image's batches' wire sizes, asked first of
    /// columns never sized and again of memoized ones.
    #[test]
    fn the_seam_prices_the_ship_image() {
        let data = aig_datagen::HospitalConfig::tiny(3).generate().unwrap();
        let args = [("date", aig_relstore::Value::str(&data.dates[0]))];
        let compiled = compile_constraints(&sigma0().unwrap()).unwrap();
        let (specialized, _) = decompose_queries(&compiled).unwrap();
        let (mut summed, mut deduped) = (0, 0);
        for depth in [3, 6, 12, 24] {
            let aig = unfold(&specialized, depth, CutOff::Truncate).unwrap().aig;
            let graph = build_graph(&aig, &data.catalog, &GraphOptions::default()).unwrap();
            let cut = std::sync::Arc::new(ShipCut::analyze(&aig, &graph));
            let opts = crate::exec::ExecOptions::default();
            let exec = crate::exec::execute_graph(&aig, &data.catalog, &graph, &args, &opts);
            let store = exec.unwrap().store;
            let pruned = crate::exec::ExecOptions {
                shipcut: Some(cut.clone()),
                ..crate::exec::ExecOptions::default()
            };
            let mut batched = pruned.clone();
            batched.policy.batching = true;
            batched.policy.batch_rows = 3;
            for (id, task) in graph.tasks.iter().enumerate() {
                let Some(rel) = task.output.as_ref().map(|key| store.get(key).unwrap()) else {
                    continue;
                };
                // A copy whose columns carry no memoized size yet.
                let fresh = || {
                    let cols = (0..rel.arity()).map(|c| rel.col_syms(c).to_vec()).collect();
                    Relation::from_columns(rel.names().clone(), cols)
                };
                let image = cut.ship_image(id, rel);
                let whole = image.wire_bytes() as f64;
                let slices = (0..image.len()).step_by(3);
                let sliced = slices
                    .map(|start| image.slice(start, 3).wire_bytes())
                    .sum::<usize>();
                let what = format!("depth {depth}: {}", task.label);
                let cold = crate::batch::ship(&pruned, id, &fresh()).bytes;
                assert_eq!(cold, whole, "{what}");
                assert_eq!(crate::batch::ship(&pruned, id, rel).bytes, whole, "{what}");
                let cold = crate::batch::ship(&batched, id, &fresh()).bytes;
                assert_eq!(cold, sliced as f64, "{what}");
                let warm = crate::batch::ship(&batched, id, rel);
                assert_eq!(warm.bytes, sliced as f64, "{what}");
                assert_eq!(warm.batches, image.len().div_ceil(3) as u64, "{what}");
                match cut.profile(id).dedup {
                    true => deduped += 1,
                    false => summed += 1,
                }
            }
        }
        assert!(
            summed > 0 && deduped > 0,
            "{summed} summed, {deduped} deduplicated"
        );
    }

    #[test]
    fn the_seam_projects_and_dedups() {
        let profiles = vec![ShipProfile {
            live: LiveSet {
                all: false,
                names: ["keep".to_string()].into_iter().collect(),
                positions: BTreeSet::new(),
            },
            dedup: true,
            ship_consumers: 1,
        }];
        let cut = ShipCut { profiles };
        let rel = Relation::new(
            vec!["__owner".into(), "keep".into(), "drop".into()],
            vec![
                vec![Value::int(1), Value::str("a"), Value::str("zzzz")],
                vec![Value::int(1), Value::str("a"), Value::str("yyyy")],
                vec![Value::int(2), Value::str("b"), Value::str("xxxx")],
            ],
        )
        .unwrap();
        // Projection keeps (__owner, keep); dedup collapses the first two
        // rows; `drop`'s 4-byte strings never ship. The expected size is
        // the dictionary wire size of the projected, deduplicated image.
        assert_eq!(cut.live_columns(0, &rel), vec![0, 1]);
        let image = Relation::new(
            vec!["__owner".into(), "keep".into()],
            vec![
                vec![Value::int(1), Value::str("a")],
                vec![Value::int(2), Value::str("b")],
            ],
        )
        .unwrap();
        let opts = crate::exec::ExecOptions {
            shipcut: Some(std::sync::Arc::new(cut)),
            ..crate::exec::ExecOptions::default()
        };
        let shipped = crate::batch::ship(&opts, 0, &rel);
        assert_eq!(shipped.bytes, image.wire_bytes() as f64);
        assert!(shipped.bytes < rel.wire_bytes() as f64);
        // The shipment holds the relation's rows, as it crosses in one piece.
        assert_eq!(shipped.resident_rows, 3);
    }
}
