//! The tagging phase (paper §5.1): turning the cached output relations into
//! the final XML document.
//!
//! "In the tagging phase, the tagging plan is applied to these relations to
//! produce the final output document", entirely within the middleware. The
//! tagging plan is a property of the task graph, not of the data: it is
//! compiled once per graph, on its first tagging ([`TagPlanCell`]) — every
//! occurrence's tag, child list, PCDATA copy chain and the producers of the
//! instance tables it reads. Per document, the rows
//! of every starred item and choice branch are sort-merged under the row
//! positions of their parent's instance table — the relational encoding of
//! the root-to-node path; an instance id is its row's position, so a
//! `__parent` names its parent row directly — and the tree is written
//! top-down, in document order; internal computation states never appear
//! (they are simply not descended into), and PCDATA resolves through copy
//! chains into instance columns.
//!
//! The output "is guaranteed to conform to the DTD" (§1): a run's finisher
//! proves it on the tagging plan, before a node is written, and validates
//! the document in full only where the plan leaves an element type open —
//! a choice, whose branch is the store's to pick, or any plan that does not
//! match its production.

use crate::error::MediatorError;
use crate::exec::{group_rows, scalar_bind, InstanceIds, RelSource, RelStore, ScalarCol, NO_ROW};
use crate::exec::{OCC, ORD, PARENT};
use crate::graph::{Occ, ScalarBind, TaskGraph};
use aig_core::spec::{Aig, ElemIdx, Prod};
use aig_relstore::intern::{self, Reader, SymMap};
use aig_relstore::{Relation, Sym};
use aig_xml::tree::{TagId, TextId, TreeWriter};
use aig_xml::{validate, Dtd, Rule, Rules, XmlTree};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// Builds the document from the executed relations.
pub fn tag_document(
    aig: &Aig,
    graph: &TaskGraph,
    store: &RelStore,
) -> Result<XmlTree, MediatorError> {
    let (tagger, mut tree) = Tagger::new(TagPlan::of(aig, graph), aig, graph, store)?;
    tagger.write(&mut tree)?;
    Ok(tree)
}

/// [`tag_document`], and whether its tag plan proves that the document
/// conforms to `dtd` ([`Tagger::proves`]) — the entry point of a run's
/// finisher, which then calls [`check_output`].
pub(crate) fn tag_proven(
    aig: &Aig,
    graph: &TaskGraph,
    store: &RelStore,
    dtd: &Dtd,
) -> Result<(XmlTree, bool), MediatorError> {
    let (tagger, mut tree) = Tagger::new(TagPlan::of(aig, graph), aig, graph, store)?;
    let proven = tagger.proves(&tree, dtd);
    tagger.write(&mut tree)?;
    Ok((tree, proven))
}

/// The output check of a run that is not degraded: nothing if the tag plan
/// proved the document conforms to `dtd`, else `validate` in full.
pub(crate) fn check_output(tree: &XmlTree, dtd: &Dtd, proven: bool) -> Result<(), MediatorError> {
    if proven {
        debug_assert!(validate(tree, dtd).is_ok(), "a proven document conforms");
        return Ok(());
    }
    validate(tree, dtd).map_err(|e| MediatorError::Internal(format!("output validation: {e}")))
}

thread_local! {
    /// This thread's PCDATA memo: the text id of every symbol the document
    /// being tagged has written so far. Emptied per document and reused by
    /// every later one, so it keeps the capacity of the largest: a table of
    /// 8-byte entries and a control byte each, at most 16/7 slots per
    /// distinct PCDATA symbol of the largest document the thread tagged —
    /// under 21 B per symbol (18 KiB for the 1,396 texts of a Small σ0
    /// report). Freed with the thread.
    static TEXT_IDS: RefCell<SymMap<Sym, TextId>> = RefCell::new(SymMap::default());
}

/// A task graph's tagging plan, compiled on the graph's first tagging and
/// read by every later one: a frontier round that never tags never builds
/// it.
#[derive(Default)]
pub struct TagPlanCell(OnceLock<TagPlan>);

impl TagPlanCell {
    /// Whether a tagging has compiled the plan.
    pub fn is_built(&self) -> bool {
        self.0.get().is_some()
    }
}

impl fmt::Debug for TagPlanCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TagPlanCell")
            .field("built", &self.is_built())
            .finish()
    }
}

/// The tagging plan of one task graph. Every occurrence reachable from the
/// root through the productions is planned, depth-first, whether or not a
/// store will hold a row of it; planning stops at the first occurrence
/// without a binding, and every tagging then fails with that error — after
/// looking up the base tables of the occurrences planned before it, as a
/// walk that met them first would. Plans are numbered in that order, the
/// root's first ([`ROOT_PLAN`]).
#[derive(Debug, Clone)]
struct TagPlan {
    /// The root alone, with every tag the plans write registered in its tag
    /// table in planning order: each document is written into a copy.
    tree: XmlTree,
    plans: Vec<OccPlan>,
    /// The number of tagged children ([`ChildRows::Tagged`]).
    tagged: usize,
    error: Option<MediatorError>,
}

/// How one occurrence is tagged: everything the walk needs per node that
/// the graph fixes, keyed by [`Occ`] while planning, never by the address
/// of a binding.
#[derive(Debug, Clone)]
struct OccPlan {
    /// The tag of the occurrence's element, registered in the plan's tree.
    tag: TagId,
    /// The occurrence's base element, and its instance table's producer.
    elem: ElemIdx,
    table: usize,
    body: Body,
}

#[derive(Debug, Clone)]
enum Body {
    /// PCDATA, resolved through the copy chain into a column of the base
    /// table or a constant; a text that does not resolve is an error only
    /// once a node carrying it is emitted.
    Text(Result<ScalarBind, MediatorError>),
    /// The tagged children in production order (none for an empty
    /// production). Computation states are not tagged and have no entry; the
    /// branches of a choice are children keyed by their branch tag.
    Children(Vec<ChildPlan>),
}

#[derive(Debug, Clone)]
struct ChildPlan {
    /// The producer of the element's instance table.
    table: usize,
    /// The element's tag, registered in the plan's tree.
    tag: TagId,
    /// Index of the child occurrence's plan.
    plan: usize,
    rows: ChildRows,
}

/// Which rows of the child's base table one parent row has as children.
#[derive(Debug, Clone, Copy)]
enum ChildRows {
    /// A plain item: the parent's own base row.
    OfParent,
    /// A starred item or choice branch: the rows of the child's instance
    /// table that carry the `__occ` symbol `occ` (the parent binding's
    /// [`tags`](crate::graph::Binding::tags) entry) under the parent's
    /// rowid, sort-merged per document into the tagger's `tagged[at]`.
    Tagged { occ: Sym, at: usize },
}

/// Plans are numbered depth-first from the root occurrence.
const ROOT_PLAN: usize = 0;

impl TagPlan {
    /// `graph`'s plan, compiled on first use; `aig` is the AIG the graph was
    /// built from.
    fn of<'g>(aig: &Aig, graph: &'g TaskGraph) -> &'g TagPlan {
        graph
            .tag_plan
            .0
            .get_or_init(|| TagPlan::compile(aig, graph))
    }

    fn compile(aig: &Aig, graph: &TaskGraph) -> TagPlan {
        let mut plan = TagPlan {
            tree: XmlTree::new(aig.elem_info(aig.root).tag()),
            plans: Vec::new(),
            tagged: 0,
            error: None,
        };
        let mut ids = HashMap::new();
        plan.error = plan.plan(aig, graph, &mut ids, Occ::mat(aig.root)).err();
        // Tagged children are numbered in the order a document sort-merges
        // them: plan by plan, each plan's in production order.
        for occ in &mut plan.plans {
            let Body::Children(children) = &mut occ.body else {
                continue;
            };
            for child in children {
                if let ChildRows::Tagged { at, .. } = &mut child.rows {
                    *at = plan.tagged;
                    plan.tagged += 1;
                }
            }
        }
        plan
    }

    fn plan(
        &mut self,
        aig: &Aig,
        graph: &TaskGraph,
        ids: &mut HashMap<Occ, usize>,
        occ: Occ,
    ) -> Result<usize, MediatorError> {
        if let Some(&id) = ids.get(&occ) {
            return Ok(id);
        }
        let binding = graph.bindings.get(&occ).ok_or_else(|| {
            MediatorError::Internal(format!("unknown occurrence {}", occ.key(aig)))
        })?;
        let id = self.plans.len();
        ids.insert(occ.clone(), id);
        let tag = self.tree.intern_tag(aig.elem_info(binding.elem).tag());
        let (elem, body) = (occ.base, Body::Children(Vec::new()));
        let table = graph.instances_of(elem);
        self.plans.push(OccPlan {
            tag,
            elem,
            table,
            body,
        });
        let tagged = |at: usize| ChildRows::Tagged {
            occ: binding.tags[at],
            at: 0,
        };
        // The tagged children in production order: element, occurrence, rows.
        let children: Vec<(ElemIdx, Occ, ChildRows)> = match &aig.elem_info(binding.elem).prod {
            Prod::Empty => Vec::new(),
            Prod::Pcdata { text } => {
                let text = scalar_bind(aig, binding, text, "PCDATA of").map(Cow::into_owned);
                self.plans[id].body = Body::Text(text);
                return Ok(id);
            }
            Prod::Items(items) => items
                .iter()
                .enumerate()
                .filter(|(_, item)| !aig.elem_info(item.elem).internal)
                .map(|(pos, item)| match item.star {
                    true => (item.elem, Occ::mat(item.elem), tagged(pos)),
                    false => (item.elem, occ.child(pos), ChildRows::OfParent),
                })
                .collect(),
            Prod::Choice { branches, .. } => branches
                .iter()
                .enumerate()
                .map(|(bno, b)| (b.elem, Occ::mat(b.elem), tagged(bno)))
                .collect(),
        };
        let mut plans = Vec::with_capacity(children.len());
        for (elem, occ, rows) in children {
            let tag = self.tree.intern_tag(aig.elem_info(elem).tag());
            let plan = self.plan(aig, graph, ids, occ)?;
            plans.push(ChildPlan {
                table: graph.instances_of(elem),
                tag,
                plan,
                rows,
            });
        }
        self.plans[id].body = Body::Children(plans);
        Ok(id)
    }
}

/// One document's tagging: the graph's plan over one store, with each
/// plan's base table looked up and every tagged child's rows sorted under
/// its parent's.
struct Tagger<'a> {
    plan: &'a TagPlan,
    /// Per plan, its base table as this store holds it.
    bases: Vec<Base<'a>>,
    /// Per tagged child, its rows under the parent's.
    tagged: Vec<Tagged>,
    /// Snapshot taken once the plan's base tables are looked up.
    reader: Reader,
}

/// A plan's base instance table, and for a text body the column (or
/// constant) its PCDATA reads.
struct Base<'a> {
    rel: &'a Relation,
    text: Option<Result<ScalarCol, MediatorError>>,
}

/// The rows of one starred item or choice branch, sort-merged under the
/// parent's base table: the children of the parent row at position `p` are
/// `rows[start[p]..start[p + 1]]`, in `__ord` order (row order on ties).
#[derive(Default)]
struct Tagged {
    start: Vec<u32>,
    rows: Vec<u32>,
}

impl Tagged {
    /// Sorts `child`'s rows under the parent rows with one pass over
    /// `child`: a row carrying `occ` is keyed by the parent row its
    /// `__parent` names (an id of `parent`, the parent table's instance ids,
    /// is that row's position), or attaches to no parent. A counting sort by
    /// parent row follows, then `__ord` order within each parent (linear on
    /// an assembled table: generator outputs arrive grouped by parent with
    /// ascending ordinals). `keys` is scratch.
    fn sort_merge(
        reader: &Reader,
        occ: Sym,
        child: &Relation,
        parent: &InstanceIds,
        keys: &mut Vec<u32>,
    ) -> Tagged {
        keys.clear();
        let (occs, parents) = (child.col_syms(OCC), child.col_syms(PARENT));
        // Siblings sit together: only a change of parent resolves one.
        let ids = parent.ids_of(reader, parents);
        keys.extend(occs.iter().zip(ids).map(|(&row_occ, id)| match id {
            Some(id) if row_occ == occ => id,
            _ => NO_ROW,
        }));
        let (start, mut rows) = group_rows(keys, parent.len());
        // A parent's ordinals are almost always its rows' `0, 1, …`: compared
        // as those integers' own symbols, they need no value looked up.
        let widest = start.windows(2).map(|b| b[1] - b[0]).max().unwrap_or(0);
        let counting = intern::int_syms(widest as usize);
        let ords = child.col_syms(ORD);
        let ord = |row: &u32| reader.get(ords[*row as usize]).as_int().unwrap_or(0);
        for bounds in start.windows(2) {
            let siblings = &mut rows[bounds[0] as usize..bounds[1] as usize];
            let mut counted = siblings.iter().zip(counting.iter());
            if !counted.all(|(&row, &i)| ords[row as usize] == i) && !siblings.is_sorted_by_key(ord)
            {
                siblings.sort_by_key(ord);
            }
        }
        Tagged { start, rows }
    }
}

impl<'a> Tagger<'a> {
    /// Readies `plan` over `store`: every instance table a child row can
    /// come from is looked up before anything else is read; then each
    /// plan's base table is, the root's must have one row, and the tagged
    /// children are sort-merged.
    /// Returns the tagger and the tree to write, so far just its root, with
    /// every tag the walk will emit registered.
    fn new(
        plan: &'a TagPlan,
        aig: &Aig,
        graph: &TaskGraph,
        store: &'a RelStore,
    ) -> Result<(Self, XmlTree), MediatorError> {
        for &elem in graph.materialized.iter().filter(|&&e| e != aig.root) {
            store.rel(graph.instances_of(elem))?;
        }
        let mut bases = Vec::with_capacity(plan.plans.len());
        for occ in &plan.plans {
            let rel = store.rel(occ.table)?;
            let text = match &occ.body {
                Body::Text(bind) => Some(match bind {
                    Ok(bind) => ScalarCol::of_bind(bind, rel),
                    Err(e) => Err(e.clone()),
                }),
                Body::Children(_) => None,
            };
            bases.push(Base { rel, text });
        }
        if let Some(e) = &plan.error {
            return Err(e.clone());
        }
        let n = bases[ROOT_PLAN].rel.len();
        if n != 1 {
            return Err(MediatorError::Internal(format!(
                "root instance table has {n} rows"
            )));
        }
        let mut tagger = Tagger {
            plan,
            bases,
            tagged: Vec::new(),
            reader: Reader::snapshot(),
        };
        tagger.sort_merge(aig, store)?;
        Ok((tagger, plan.tree.clone()))
    }

    /// Writes the document under `tree`'s root, into node columns sized
    /// once to [`Tagger::count`].
    fn write(&self, tree: &mut XmlTree) -> Result<(), MediatorError> {
        let counted = self.count();
        let mut out = tree.writer(counted);
        TEXT_IDS.with_borrow_mut(|texts| {
            texts.clear();
            self.tag_children(&mut out, texts, ROOT_PLAN, 0)
        })?;
        debug_assert!(
            tree.len() <= counted,
            "{} nodes written, {counted} counted",
            tree.len()
        );
        Ok(())
    }

    /// The number of nodes [`Tagger::write`] writes, the root included:
    /// each plan writes an element per row of its base table, and a text
    /// body one text node more. [`Tagger::tag_children`] writes a plan's
    /// row at most once — an `OfParent` child once per write of its
    /// parent's row (a planned occurrence is the `OfParent` child of one
    /// plan at most), a `Tagged` row under the one parent row its
    /// `__parent` names — so the count is exact when every instance row
    /// hangs under a written parent, as σ0's do at every depth, and an
    /// upper bound otherwise.
    fn count(&self) -> usize {
        let nodes = |(plan, base): (&OccPlan, &Base)| match plan.body {
            Body::Text(_) => 2 * base.rel.len(),
            Body::Children(_) => base.rel.len(),
        };
        self.plan.plans.iter().zip(&self.bases).map(nodes).sum()
    }

    /// Whether every document this plan writes conforms to `dtd`, proven on
    /// the plan before a node is written, whatever rows the store holds:
    /// the root is tagged with the DTD's root type, and every plan
    /// [closes](Tagger::closes) its type. The proof rests on three facts of
    /// [`Tagger::tag_children`]: an `OfParent` child is written exactly once
    /// per parent (the parent's own row), a text body writes exactly one
    /// text node, and children are written in plan order.
    fn proves(&self, tree: &XmlTree, dtd: &Dtd) -> bool {
        let root = tree.root();
        let root_plan = self.plan.plans[ROOT_PLAN].tag;
        if tree.tag(root) != Some(dtd.name(dtd.root())) || tree.elem_tag(root) != Some(root_plan) {
            return false;
        }
        let rules = Rules::new(tree, dtd);
        self.plan.plans.iter().all(|plan| self.closes(&rules, plan))
    }

    /// Whether every element `plan` writes has the children its tag's
    /// production asks for, each written by a plan proven for the child's
    /// tag: `PCDATA` by a text body; `EMPTY` by no children; `b*` by none,
    /// or by one `Tagged` child tagged `b`; `(b1, …, bn)` by exactly `n`
    /// `OfParent` children tagged `b1 … bn` in order. A choice, an
    /// undeclared tag and anything else stay open.
    fn closes(&self, rules: &Rules, plan: &OccPlan) -> bool {
        let rule = rules.of(plan.tag);
        let children = match (&plan.body, rule) {
            (Body::Text(_), Rule::Pcdata) => return true,
            (Body::Children(children), _) => children,
            (Body::Text(_), _) => return false,
        };
        if children
            .iter()
            .any(|c| self.plan.plans[c.plan].tag != c.tag)
        {
            return false;
        }
        let of_parent = |c: &ChildPlan| matches!(c.rows, ChildRows::OfParent);
        match rule {
            Rule::Empty => children.is_empty(),
            Rule::Star(want) => match children.as_slice() {
                [] => true,
                [only] => !of_parent(only) && Some(only.tag) == want,
                _ => false,
            },
            Rule::Seq(want) => {
                let mut pairs = children.iter().zip(want.iter());
                children.len() == want.len() && pairs.all(|(c, w)| of_parent(c) && Some(c.tag) == w)
            }
            _ => false,
        }
    }

    /// Sort-merges the rows of every starred item and choice branch under
    /// its parent's base rows, whose ids are their positions.
    fn sort_merge(&mut self, aig: &Aig, store: &RelStore) -> Result<(), MediatorError> {
        let mut keys = Vec::new();
        self.tagged.resize_with(self.plan.tagged, Tagged::default);
        for (plan, base) in self.plan.plans.iter().zip(&self.bases) {
            let Body::Children(children) = &plan.body else {
                continue;
            };
            for child in children {
                let ChildRows::Tagged { occ, at } = child.rows else {
                    continue;
                };
                let parent = InstanceIds::new(aig.elem_name(plan.elem), base.rel.len());
                let rel = store.rel(child.table)?;
                self.tagged[at] = Tagged::sort_merge(&self.reader, occ, rel, &parent, &mut keys);
            }
        }
        Ok(())
    }

    /// The base rows (of the child's own base table) that are `child`'s
    /// instances under the parent's base row `*base_idx`.
    fn instances<'s>(&'s self, child: &ChildPlan, base_idx: &'s u32) -> &'s [u32] {
        match child.rows {
            ChildRows::OfParent => std::slice::from_ref(base_idx),
            ChildRows::Tagged { at, .. } => {
                let Tagged { start, rows } = &self.tagged[at];
                let at = *base_idx as usize;
                &rows[start[at] as usize..start[at + 1] as usize]
            }
        }
    }

    /// Writes the children of the occurrence planned at `plan` for the base
    /// instance `base_idx` (a row position in `T_base`) into its element,
    /// the innermost one `out` has open. `texts` holds the text id of every
    /// PCDATA symbol written so far.
    fn tag_children(
        &self,
        out: &mut TreeWriter,
        texts: &mut SymMap<Sym, TextId>,
        plan: usize,
        base_idx: u32,
    ) -> Result<(), MediatorError> {
        let (base, plan) = (&self.bases[plan], &self.plan.plans[plan]);
        match &plan.body {
            Body::Text(_) => {
                let text = base.text.as_ref().expect("a text body has a text column");
                let scalar = text.as_ref().map_err(Clone::clone)?;
                let sym = scalar.at(base.rel, base_idx as usize);
                // Each distinct value is formatted once, straight into the
                // text table; the nodes after it carry its id.
                match texts.entry(sym) {
                    Entry::Occupied(id) => drop(out.text_id(*id.get())),
                    Entry::Vacant(slot) => {
                        let value = self.reader.get(sym);
                        slot.insert(out.text_with(|buf| value.write_text(buf)));
                    }
                }
            }
            Body::Children(children) => {
                for child in children {
                    for &child_idx in self.instances(child, &base_idx) {
                        out.open(child.tag);
                        self.tag_children(out, texts, child.plan, child_idx)?;
                        out.close();
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    //! The proof on the tag plan: σ0 closes at every depth the benchmark
    //! reaches, and a plan that a mutation leaves open — or a choice spec,
    //! which always is — falls back to `validate` and its error.

    use super::*;
    use crate::exec::{execute_graph, ExecOptions};
    use crate::graph::{build_graph, GraphOptions, RelKey};
    use crate::unfold::{unfold, CutOff};
    use aig_core::paper::sigma0;
    use aig_core::{compile_constraints, decompose_queries, parse_aig};
    use aig_datagen::HospitalConfig;
    use aig_relstore::{Catalog, Database, Table, TableSchema, Value};

    /// A spec unfolded to `depth`, its task graph and an executed store.
    struct Run {
        aig: Aig,
        graph: TaskGraph,
        store: RelStore,
        dtd: Dtd,
    }

    fn run(source: &Aig, catalog: &Catalog, depth: usize, args: &[(&str, Value)]) -> Run {
        let compiled = match source.constraints.is_empty() {
            true => source.clone(),
            false => compile_constraints(source).unwrap(),
        };
        let specialized = decompose_queries(&compiled).unwrap().0;
        let aig = unfold(&specialized, depth, CutOff::Truncate).unwrap().aig;
        let graph = build_graph(&aig, catalog, &GraphOptions::default()).unwrap();
        let exec = execute_graph(&aig, catalog, &graph, args, &ExecOptions::default()).unwrap();
        let dtd = source.dtd.clone();
        Run {
            aig,
            graph,
            store: exec.store,
            dtd,
        }
    }

    fn hospital(depth: usize) -> Run {
        let data = HospitalConfig::tiny(3).generate().unwrap();
        let date = Value::str(&data.dates[0]);
        run(&sigma0().unwrap(), &data.catalog, depth, &[("date", date)])
    }

    /// What a run's finisher does, with `mutate` applied to a copy of the
    /// compiled plan first: the verdict of the proof, and of the output
    /// check.
    fn finish(
        run: &Run,
        mutate: impl FnOnce(&mut TagPlan),
    ) -> (bool, XmlTree, Result<(), MediatorError>) {
        let mut plan = TagPlan::of(&run.aig, &run.graph).clone();
        mutate(&mut plan);
        let (tagger, mut tree) = Tagger::new(&plan, &run.aig, &run.graph, &run.store).unwrap();
        let proven = tagger.proves(&tree, &run.dtd);
        tagger.write(&mut tree).unwrap();
        let checked = check_output(&tree, &run.dtd, proven);
        (proven, tree, checked)
    }

    /// The error the output check must return for `tree`: today's.
    fn rejected(run: &Run, tree: &XmlTree, checked: Result<(), MediatorError>) {
        let want = validate(tree, &run.dtd).expect_err("an invalid document");
        match checked {
            Err(MediatorError::Internal(msg)) => {
                assert_eq!(msg, format!("output validation: {want}"))
            }
            other => panic!("expected the validation error, got {other:?}"),
        }
    }

    #[test]
    fn sigma0_closes_at_every_depth() {
        for depth in [3, 6, 12, 24] {
            let run = hospital(depth);
            let (proven, tree, checked) = finish(&run, |_| {});
            assert!(proven, "depth {depth}: σ0's plan leaves a type open");
            assert!(tree.len() > 100, "depth {depth}: {} nodes", tree.len());
            assert_eq!(checked, Ok(()));
            assert_eq!(validate(&tree, &run.dtd), Ok(()));
            assert_eq!(
                tag_proven(&run.aig, &run.graph, &run.store, &run.dtd).unwrap(),
                (tree, true)
            );
        }
    }

    /// The node count the writer's columns are sized to: exact on σ0 at
    /// every depth, and at least the document on a choice spec.
    #[test]
    fn the_count_is_exact_on_sigma0_and_bounds_a_choice() {
        let count = |run: &Run| {
            let plan = TagPlan::of(&run.aig, &run.graph);
            let (tagger, mut tree) = Tagger::new(plan, &run.aig, &run.graph, &run.store).unwrap();
            tagger.write(&mut tree).unwrap();
            (tagger.count(), tree.len())
        };
        for depth in [3, 6, 12, 24] {
            let (counted, written) = count(&hospital(depth));
            assert_eq!(counted, written, "depth {depth}");
        }
        let (counted, written) = count(&orders());
        assert!(counted >= written, "{counted} counted, {written} written");
    }

    /// The plan of `patient`, a sequence `(SSN, pname, treatments, bill)`
    /// the tiny hospital's first date has instances of.
    fn patient(plan: &mut TagPlan) -> usize {
        let tag = plan.tree.intern_tag("patient");
        plan.plans.iter().position(|occ| occ.tag == tag).unwrap()
    }

    fn children(plan: &mut TagPlan, at: usize) -> &mut Vec<ChildPlan> {
        match &mut plan.plans[at].body {
            Body::Children(children) => children,
            Body::Text(_) => panic!("a sequence has children"),
        }
    }

    #[test]
    fn a_mutated_plan_stays_open_and_fails_validation() {
        let run = hospital(3);
        let mut plan = TagPlan::of(&run.aig, &run.graph).clone();
        let at = patient(&mut plan);
        let patients = run.store.get(&RelKey::Instances(plan.plans[at].elem));
        assert!(!patients.unwrap().is_empty(), "no patient to mutate");
        type Mutation = fn(&mut TagPlan);
        let mutations: [(&str, Mutation); 4] = [
            ("drop a sequence child", |plan| {
                let at = patient(plan);
                children(plan, at).remove(1);
            }),
            ("duplicate one", |plan| {
                let at = patient(plan);
                // The copy writes through a plan of its own, as every
                // `OfParent` child of a built plan does: the node count
                // stays exact.
                let first = children(plan, at)[0].clone();
                let original = plan.plans[first.plan].clone();
                assert!(matches!(original.body, Body::Text(_)), "SSN is PCDATA");
                plan.plans.push(original);
                let copy = ChildPlan {
                    plan: plan.plans.len() - 1,
                    ..first
                };
                children(plan, at).insert(0, copy);
            }),
            ("retag one", |plan| {
                let at = patient(plan);
                let kids = children(plan, at);
                kids[1].tag = kids[0].tag;
            }),
            ("turn an OfParent into Tagged", |plan| {
                // Rows of the patient table carrying no `__occ` any row
                // carries: none.
                let at = patient(plan);
                let (table, tagged) = (plan.plans[at].table, plan.tagged);
                plan.tagged += 1;
                let kid = &mut children(plan, at)[0];
                kid.table = table;
                kid.rows = ChildRows::Tagged {
                    occ: Sym::NULL,
                    at: tagged,
                };
            }),
        ];
        for (what, mutation) in mutations {
            let (proven, tree, checked) = finish(&run, mutation);
            assert!(!proven, "{what}: the plan still closes");
            rejected(&run, &tree, checked);
        }
    }

    /// A choice production over one source: orders of `day` pay by card
    /// (kind 1) or invoice (kind 2).
    fn orders() -> Run {
        let aig = parse_aig(
            r#"
            aig orders {
              dtd {
                <!ELEMENT orders (order*)>
                <!ELEMENT order (id, payment)>
                <!ELEMENT payment (card | invoice)>
                <!ELEMENT id (#PCDATA)>
                <!ELEMENT card (#PCDATA)>
                <!ELEMENT invoice (#PCDATA)>
              }
              elem orders {
                inh(day);
                child order* from sql {
                  select o.id as id, o.id as oid from OMS:orders o where o.day = $day
                };
              }
              elem order {
                inh(id, oid);
                child id { val = $id; }
                child payment { oid = $oid; }
              }
              elem payment {
                inh(oid);
                case sql {
                  select distinct p.kind as pick from OMS:payments p where p.oid = $oid
                } {
                  1 => card { val = $oid; }
                  2 => invoice { val = 'pending'; }
                }
              }
            }
            "#,
        )
        .unwrap();
        let mut db = Database::new("OMS");
        let mut orders = Table::new(TableSchema::strings("orders", &["id", "day"], &[]));
        let mut payments = Table::new(TableSchema::strings("payments", &["oid", "kind"], &[]));
        for i in 0..6 {
            let id = format!("o{i}");
            orders
                .insert(vec![Value::str(&id), Value::str("mon")])
                .unwrap();
            let kind = format!("{}", i % 2 + 1);
            payments
                .insert(vec![Value::str(&id), Value::str(kind)])
                .unwrap();
        }
        db.add_table(orders).unwrap();
        db.add_table(payments).unwrap();
        let mut catalog = Catalog::new();
        catalog.add_source(db).unwrap();
        run(&aig, &catalog, 2, &[("day", Value::str("mon"))])
    }

    #[test]
    fn a_choice_stays_open_and_two_branch_rows_under_one_owner_fail() {
        let mut run = orders();
        let (proven, tree, checked) = finish(&run, |_| {});
        assert!(!proven, "a choice is never proven");
        assert_eq!(checked, Ok(()), "validated in full, and valid");
        assert_eq!(
            tree.iter().filter(|&n| tree.tag(n) == Some("card")).count(),
            3
        );

        // A second `card` row under the first card's payment, with the next
        // free rowid.
        let card = RelKey::Instances(run.aig.elem("card").unwrap());
        let mut rel = run.store.get(&card).unwrap().clone();
        let mut row = rel.row(0);
        row[rel.col("__rowid").unwrap()] = Value::int(rel.len() as i64);
        rel.push(row);
        run.store.slots[run.graph.producer[&card]] = rel.into();
        let (proven, tree, checked) = finish(&run, |_| {});
        assert!(!proven);
        rejected(&run, &tree, checked);
    }
}
