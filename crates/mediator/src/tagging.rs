//! The tagging phase (paper §5.1): turning the cached output relations into
//! the final XML document.
//!
//! "In the tagging phase, the tagging plan is applied to these relations to
//! produce the final output document", entirely within the middleware. The
//! instance tables are indexed by `(occurrence, parent rowid)` — the
//! relational encoding of the root-to-node path — and the tree is written
//! top-down; internal computation states never appear (they are simply not
//! descended into), and PCDATA resolves through copy chains into instance
//! columns.

use crate::error::MediatorError;
use crate::exec::{branch_tag, occ_tag, scalar_col, RelStore, ScalarCol};
use crate::graph::{Occ, RelKey, TaskGraph};
use aig_core::spec::{Aig, ElemIdx, Prod};
use aig_relstore::intern::{self, Reader, SymMap};
use aig_relstore::{Relation, Sym, Value};
use aig_xml::tree::{CopyStep, SubtreeCopier, TagId};
use aig_xml::{NodeId, XmlTree};
use std::collections::{HashMap, HashSet};

/// Builds the document from the executed relations.
pub fn tag_document(
    aig: &Aig,
    graph: &TaskGraph,
    store: &RelStore,
) -> Result<XmlTree, MediatorError> {
    let mut tree = XmlTree::new(aig.elem_info(aig.root).tag());
    let tagger = Tagger::new(aig, graph, store, &mut tree)?;
    let root_node = tree.root();
    tagger.tag_children(&mut tree, root_node, ROOT_PLAN, 0)?;
    Ok(tree)
}

/// Index: (element, `__occ` symbol, parent `__rowid` symbol) → the child
/// row positions in `__ord` order, as a span of one shared position vector.
///
/// Tags and ids are matched as interned symbols, i.e. by value equality:
/// a `__rowid`/`__parent` that is not an integer is a key like any other.
#[derive(Default)]
struct ChildrenIndex {
    /// Bucket number per key, in first-seen order.
    buckets: SymMap<(ElemIdx, Sym, Sym), u32>,
    /// Bucket `b` is `rows[starts[b]..starts[b + 1]]`.
    starts: Vec<u32>,
    rows: Vec<u32>,
}

impl ChildrenIndex {
    fn build(aig: &Aig, graph: &TaskGraph, store: &RelStore) -> Result<Self, MediatorError> {
        let reader = Reader::snapshot();
        let mut index = ChildrenIndex::default();
        index.starts.push(0);
        for &elem in graph.materialized.iter().filter(|&&e| e != aig.root) {
            let rel = store.get(&RelKey::Instances(elem))?;
            let parents = rel.col_syms(rel.col("__parent")?);
            let occs = rel.col_syms(rel.col("__occ")?);
            let as_int = |&ord: &Sym| reader.get(ord).as_int().unwrap_or(0);
            let ords: Vec<i64> = rel.col_syms(rel.col("__ord")?).iter().map(as_int).collect();
            // Bucket per (occ, parent), numbered in first-seen order after
            // the relations before; rows of one bucket mostly sit together,
            // so only a change of key costs a hash lookup.
            let (buckets, first) = (&mut index.buckets, index.starts.len() as u32 - 1);
            let mut sizes: Vec<u32> = Vec::new();
            let mut bucket_of: Vec<u32> = Vec::with_capacity(rel.len());
            let mut last = None;
            for (&occ, &parent) in occs.iter().zip(parents) {
                let bucket = match last {
                    Some((key, bucket)) if key == (occ, parent) => bucket,
                    _ => *buckets.entry((elem, occ, parent)).or_insert_with(|| {
                        sizes.push(0);
                        first + sizes.len() as u32 - 1
                    }),
                };
                sizes[(bucket - first) as usize] += 1;
                bucket_of.push(bucket);
                last = Some(((occ, parent), bucket));
            }
            // Row positions by (bucket, `__ord`), position order on ties: a
            // stable sort, linear on an assembled table (generator outputs
            // arrive grouped by parent with ascending ordinals).
            let mut order: Vec<u32> = (0..rel.len() as u32).collect();
            order.sort_by_key(|&pos| (bucket_of[pos as usize], ords[pos as usize]));
            let mut end = index.rows.len() as u32;
            index.rows.extend(order);
            for size in sizes {
                end += size;
                index.starts.push(end);
            }
        }
        Ok(index)
    }

    /// Child row positions of `elem` tagged `occ` under the parent row with
    /// rowid `parent`; empty when there is no such bucket.
    fn rows(&self, elem: ElemIdx, occ: Sym, parent: Sym) -> &[u32] {
        let Some(&b) = self.buckets.get(&(elem, occ, parent)) else {
            return &[];
        };
        &self.rows[self.starts[b as usize] as usize..self.starts[b as usize + 1] as usize]
    }
}

/// How one occurrence is tagged: everything the walk needs per node,
/// resolved once per occurrence — keyed by [`Occ`], never by the address of
/// a binding — when the [`Tagger`] is built.
struct OccPlan<'a> {
    /// The occurrence's base instance table and its `__rowid` column.
    base: &'a Relation,
    rowids: &'a [Sym],
    body: Body,
}

enum Body {
    /// PCDATA, resolved through the copy chain into a column of `base` or a
    /// constant; a text that does not resolve is an error only once a node
    /// carrying it is emitted.
    Text(Result<ScalarCol, MediatorError>),
    /// The tagged children in production order (none for an empty
    /// production). Computation states are not tagged and have no entry; the
    /// branches of a choice are children keyed by their branch tag.
    Children(Vec<ChildPlan>),
}

struct ChildPlan {
    elem: ElemIdx,
    /// The element's tag, registered in the tree being written.
    tag: TagId,
    /// Index of the child occurrence's plan.
    plan: usize,
    rows: ChildRows,
}

/// Which rows of the child's base table one parent row has as children.
enum ChildRows {
    /// A plain item: the parent's own base row.
    OfParent,
    /// A starred item or choice branch: the rows of the child's instance
    /// table that carry this `__occ` symbol under the parent's rowid. `None`
    /// is a tag nothing ever interned, which therefore no row carries.
    Tagged(Option<Sym>),
}

/// Plans are numbered depth-first from the root occurrence.
const ROOT_PLAN: usize = 0;

/// The tagging plan and index of one store. Every occurrence reachable from
/// the root through the productions is planned, depth-first, before the
/// first node is written — whether or not the store holds a row of it. So an
/// occurrence without a binding, or one whose base instance table is
/// missing, is an error up front even where a row-at-a-time walk would never
/// have reached it (a choice branch no instance takes); only PCDATA
/// resolution stays deferred to the first node carrying the text.
struct Tagger<'a> {
    aig: &'a Aig,
    graph: &'a TaskGraph,
    store: &'a RelStore,
    /// Plan index of every occurrence planned so far.
    ids: HashMap<Occ, usize>,
    plans: Vec<OccPlan<'a>>,
    index: ChildrenIndex,
    /// Snapshot taken once planning has interned its tags and constants.
    reader: Reader,
}

impl<'a> Tagger<'a> {
    fn plan(&mut self, occ: Occ, tree: &mut XmlTree) -> Result<usize, MediatorError> {
        if let Some(&id) = self.ids.get(&occ) {
            return Ok(id);
        }
        let (aig, graph) = (self.aig, self.graph);
        let binding = graph.bindings.get(&occ).ok_or_else(|| {
            MediatorError::Internal(format!("unknown occurrence {}", occ.key(aig)))
        })?;
        let base = self.store.get(&RelKey::Instances(occ.base))?;
        let rowids = base.col_syms(base.col("__rowid")?);
        let id = self.plans.len();
        self.ids.insert(occ.clone(), id);
        let body = Body::Children(Vec::new());
        self.plans.push(OccPlan { base, rowids, body });
        let tagged = |tag: String| ChildRows::Tagged(intern::lookup(&Value::str(tag)));
        // The tagged children in production order: element, occurrence, rows.
        let children: Vec<(ElemIdx, Occ, ChildRows)> = match &aig.elem_info(binding.elem).prod {
            Prod::Empty => Vec::new(),
            Prod::Pcdata { text } => {
                let text = scalar_col(aig, binding, text, base, "PCDATA of");
                self.plans[id].body = Body::Text(text);
                return Ok(id);
            }
            Prod::Items(items) => items
                .iter()
                .enumerate()
                .filter(|(_, item)| !aig.elem_info(item.elem).internal)
                .map(|(pos, item)| match item.star {
                    true => (
                        item.elem,
                        Occ::mat(item.elem),
                        tagged(occ_tag(aig, &occ, pos)),
                    ),
                    false => (item.elem, occ.child(pos), ChildRows::OfParent),
                })
                .collect(),
            Prod::Choice { branches, .. } => branches
                .iter()
                .enumerate()
                .map(|(bno, b)| (b.elem, Occ::mat(b.elem), tagged(branch_tag(aig, &occ, bno))))
                .collect(),
        };
        let mut plans = Vec::with_capacity(children.len());
        for (elem, occ, rows) in children {
            let tag = tree.intern_tag(aig.elem_info(elem).tag());
            let plan = self.plan(occ, tree)?;
            plans.push(ChildPlan {
                elem,
                tag,
                plan,
                rows,
            });
        }
        self.plans[id].body = Body::Children(plans);
        Ok(id)
    }

    /// Plans the tagging of `store` into `tree` (so far just its root),
    /// registering every tag the walk will emit in `tree`'s tag table.
    fn new(
        aig: &'a Aig,
        graph: &'a TaskGraph,
        store: &'a RelStore,
        tree: &mut XmlTree,
    ) -> Result<Self, MediatorError> {
        let mut tagger = Tagger {
            aig,
            graph,
            store,
            ids: HashMap::new(),
            plans: Vec::new(),
            index: ChildrenIndex::build(aig, graph, store)?,
            reader: Reader::snapshot(),
        };
        tagger.plan(Occ::mat(aig.root), tree)?;
        tagger.reader = Reader::snapshot();
        match tagger.plans[ROOT_PLAN].base.len() {
            1 => Ok(tagger),
            n => Err(MediatorError::Internal(format!(
                "root instance table has {n} rows"
            ))),
        }
    }

    /// The base rows (of the child's own base table) that are `child`'s
    /// instances under the parent row `*base_idx` of `plan`.
    fn child_rows<'s>(&'s self, plan: &OccPlan, child: &ChildPlan, base_idx: &'s u32) -> &'s [u32] {
        match child.rows {
            ChildRows::OfParent => std::slice::from_ref(base_idx),
            ChildRows::Tagged(None) => &[],
            ChildRows::Tagged(Some(occ)) => {
                let parent = plan.rowids[*base_idx as usize];
                self.index.rows(child.elem, occ, parent)
            }
        }
    }

    /// The PCDATA of the base row `base_idx`.
    fn text(
        &self,
        plan: &OccPlan,
        text: &Result<ScalarCol, MediatorError>,
        base_idx: u32,
    ) -> Result<&Value, MediatorError> {
        let scalar = text.as_ref().map_err(Clone::clone)?;
        Ok(self.reader.get(scalar.at(plan.base, base_idx as usize)))
    }

    /// Emits the children of the occurrence planned at `plan` for the base
    /// instance `base_idx` (a row position in `T_base`) under `node`.
    fn tag_children(
        &self,
        tree: &mut XmlTree,
        node: NodeId,
        plan: usize,
        base_idx: u32,
    ) -> Result<(), MediatorError> {
        let plan = &self.plans[plan];
        match &plan.body {
            Body::Text(text) => {
                // Written straight into the document's text buffer.
                let text = self.text(plan, text, base_idx)?;
                tree.add_text_with(node, |buf| text.write_text(buf));
            }
            Body::Children(children) => {
                for child in children {
                    for &child_idx in self.child_rows(plan, child, &base_idx) {
                        let child_node = tree.add_tagged(node, child.tag);
                        self.tag_children(tree, child_node, child.plan, child_idx)?;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Node accounting of one incremental retag.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetagStats {
    /// Nodes copied verbatim from the cached document.
    pub nodes_reused: usize,
    /// Nodes rebuilt from the spliced store (everything that was not a
    /// verbatim copy, including the correspondence spine).
    pub nodes_rebuilt: usize,
}

/// Rebuilds the document after an incremental re-execution, copying
/// subtrees untouched by the delta verbatim from the cached document.
///
/// `tainted` is the set of materialized elements whose instance tables the
/// re-run subgraph produced (see [`crate::delta::tainted_elems`]). The
/// walk mirrors [`tag_document`] with a positional correspondence cursor
/// into `cached`: at any element whose star/choice child sets cannot have
/// changed (no tainted child element), the child lists line up one-to-one
/// with the cached tree, so a child subtree containing no tainted element
/// anywhere below it is deep-copied wholesale without touching the store.
/// Where a tainted child element *could* have changed the child set, the
/// subtree rebuilds from the (spliced) store exactly as a cold tag would.
///
/// Because untainted instance relations are byte-identical to the cached
/// run's and the copy is verbatim, the result equals `tag_document` over
/// the spliced store node-for-node.
pub fn retag_document(
    aig: &Aig,
    graph: &TaskGraph,
    store: &RelStore,
    cached: &XmlTree,
    tainted: &HashSet<ElemIdx>,
) -> Result<(XmlTree, RetagStats), MediatorError> {
    if tainted.contains(&aig.root) {
        // Defensive: the root's producer binds request arguments and never
        // re-runs, but if it ever did there is nothing to reuse.
        let tree = tag_document(aig, graph, store)?;
        let stats = RetagStats {
            nodes_reused: 0,
            nodes_rebuilt: tree.len(),
        };
        return Ok((tree, stats));
    }
    let mut tree = XmlTree::new(aig.elem_info(aig.root).tag());
    let tagger = Tagger::new(aig, graph, store, &mut tree)?;
    let root_node = tree.root();
    let mut retagger = Retagger {
        dirty_below: dirty_below(aig, tainted),
        tagger: &tagger,
        cached,
        copier: cached.copier(),
        tainted,
        nodes_reused: 0,
    };
    retagger.retag_children(&mut tree, root_node, ROOT_PLAN, 0, cached.root())?;
    let stats = RetagStats {
        nodes_reused: retagger.nodes_reused,
        // Every node that is not a verbatim copy was (re)built: the spine
        // of the correspondence walk plus the taint-rebuilt regions.
        nodes_rebuilt: tree.len() - retagger.nodes_reused,
    };
    Ok((tree, stats))
}

/// Elements from which a tainted element is reachable through the unfolded
/// productions (including the tainted elements themselves). A subtree
/// rooted outside this set contains no changed instance rows anywhere and
/// can be copied verbatim.
fn dirty_below(aig: &Aig, tainted: &HashSet<ElemIdx>) -> HashSet<ElemIdx> {
    let mut dirty = tainted.clone();
    // Fixpoint over the element productions; the unfolded AIG is shallow
    // (depth-bounded), so this converges in a few sweeps.
    loop {
        let mut changed = false;
        for elem in aig.elements() {
            if dirty.contains(&elem) {
                continue;
            }
            let hit = match &aig.elem_info(elem).prod {
                Prod::Items(items) => items
                    .iter()
                    .any(|i| !aig.elem_info(i.elem).internal && dirty.contains(&i.elem)),
                Prod::Choice { branches, .. } => branches.iter().any(|b| dirty.contains(&b.elem)),
                _ => false,
            };
            if hit {
                dirty.insert(elem);
                changed = true;
            }
        }
        if !changed {
            return dirty;
        }
    }
}

struct Retagger<'a> {
    tagger: &'a Tagger<'a>,
    cached: &'a XmlTree,
    /// Copies `cached`'s untainted subtrees into the tree being written.
    copier: SubtreeCopier<'a>,
    tainted: &'a HashSet<ElemIdx>,
    dirty_below: HashSet<ElemIdx>,
    nodes_reused: usize,
}

impl Retagger<'_> {
    /// Emits the children of the occurrence planned at `plan_id` at
    /// `base_idx` under `node`, reusing the cached node's subtrees wherever
    /// the delta cannot have reached.
    ///
    /// Invariant: the occurrence's element and its base instance table are
    /// untainted, so this node's child counts per production item equal
    /// the cached node's — unless a tainted child element intervenes, in
    /// which case the whole child list rebuilds from the store.
    fn retag_children(
        &mut self,
        tree: &mut XmlTree,
        node: NodeId,
        plan_id: usize,
        base_idx: u32,
        cached_node: NodeId,
    ) -> Result<(), MediatorError> {
        let (tagger, cached) = (self.tagger, self.cached);
        let plan = &tagger.plans[plan_id];
        match &plan.body {
            Body::Text(text) => {
                // The base table is untainted, so the value is unchanged;
                // recomputing it from the spliced store is equivalent and
                // keeps a single source of truth.
                let text = tagger.text(plan, text, base_idx)?;
                tree.add_text_with(node, |buf| text.write_text(buf));
            }
            Body::Children(children) => {
                let rows_tainted = children.iter().any(|c| {
                    matches!(c.rows, ChildRows::Tagged(_)) && self.tainted.contains(&c.elem)
                });
                if rows_tainted {
                    // A tainted star or branch child: the child row set may
                    // have changed, so positional correspondence with the
                    // cached node ends here — rebuild from the store.
                    return tagger.tag_children(tree, node, plan_id, base_idx);
                }
                let mut cached_children = cached.element_children(cached_node);
                for child in children {
                    for &child_idx in tagger.child_rows(plan, child, &base_idx) {
                        let cached_child = cached_children.next().ok_or_else(|| {
                            MediatorError::Internal("retag: the cached node lacks a child".into())
                        })?;
                        // Verbatim copy where nothing below is tainted —
                        // the cached subtree is what a cold tag over the
                        // spliced store would emit — else paired recursion.
                        let child_node = tree.add_tagged(node, child.tag);
                        if self.dirty_below.contains(&child.elem) {
                            let (plan, idx) = (child.plan, child_idx);
                            self.retag_children(tree, child_node, plan, idx, cached_child)?;
                        } else {
                            self.copy_into(tree, child_node, cached_child);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Deep-copies the cached node's children under `dst`.
    fn copy_into(&mut self, tree: &mut XmlTree, dst: NodeId, src: NodeId) {
        let keep_all = |_| CopyStep::Keep;
        self.nodes_reused += self.copier.copy_children(tree, dst, src, keep_all);
    }
}
