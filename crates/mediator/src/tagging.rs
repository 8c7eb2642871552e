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
use crate::exec::{branch_tag, occ_tag, RelStore};
use crate::graph::{Binding, Occ, RelKey, ScalarBind, TaskGraph};
use aig_core::copyelim::{resolve_scalar, ResolvedScalar};
use aig_core::spec::{Aig, ElemIdx, Prod};
use aig_relstore::{Relation, Value};
use aig_xml::{NodeId, NodeKind, XmlTree};
use std::collections::{HashMap, HashSet};

/// Builds the document from the executed relations.
pub fn tag_document(
    aig: &Aig,
    graph: &TaskGraph,
    store: &RelStore,
) -> Result<XmlTree, MediatorError> {
    let tagger = Tagger {
        aig,
        graph,
        store,
        children_index: build_children_index(aig, graph, store)?,
    };
    let root_info = aig.elem_info(aig.root);
    let mut tree = XmlTree::new(root_info.tag().to_string());
    let root_node = tree.root();
    let root_binding = tagger.binding(&Occ::mat(aig.root))?;
    let base = store.get(&RelKey::Instances(aig.root))?;
    if base.len() != 1 {
        return Err(MediatorError::Internal(format!(
            "root instance table has {} rows",
            base.len()
        )));
    }
    tagger.tag_children(&mut tree, root_node, root_binding, 0)?;
    Ok(tree)
}

/// Index: (element, `__occ` tag, parent rowid) → ordered child row
/// positions.
type ChildrenIndex = HashMap<(ElemIdx, String, i64), Vec<usize>>;

fn build_children_index(
    aig: &Aig,
    graph: &TaskGraph,
    store: &RelStore,
) -> Result<ChildrenIndex, MediatorError> {
    let mut index: ChildrenIndex = HashMap::new();
    for &elem in &graph.materialized {
        if elem == aig.root {
            continue;
        }
        let rel = store.get(&RelKey::Instances(elem))?;
        let (pc, oc, ordc) = (
            rel.col("__parent").map_err(MediatorError::Store)?,
            rel.col("__occ").map_err(MediatorError::Store)?,
            rel.col("__ord").map_err(MediatorError::Store)?,
        );
        let mut buckets: HashMap<(String, i64), Vec<(i64, usize)>> = HashMap::new();
        for pos in 0..rel.len() {
            let occ = rel.cell(pos, oc).to_text();
            let parent = rel.cell(pos, pc).as_int().unwrap_or(-1);
            let ord = rel.cell(pos, ordc).as_int().unwrap_or(0);
            buckets.entry((occ, parent)).or_default().push((ord, pos));
        }
        for ((occ, parent), mut entries) in buckets {
            entries.sort();
            index.insert(
                (elem, occ, parent),
                entries.into_iter().map(|(_, pos)| pos).collect(),
            );
        }
    }
    Ok(index)
}

struct Tagger<'a> {
    aig: &'a Aig,
    graph: &'a TaskGraph,
    store: &'a RelStore,
    children_index: ChildrenIndex,
}

impl Tagger<'_> {
    fn binding(&self, occ: &Occ) -> Result<&Binding, MediatorError> {
        self.graph.bindings.get(occ).ok_or_else(|| {
            MediatorError::Internal(format!("unknown occurrence {}", occ.key(self.aig)))
        })
    }

    /// Emits the children of the element at `binding` for the base instance
    /// `base_idx` (a row position in `T_base`) under `node`.
    fn tag_children(
        &self,
        tree: &mut XmlTree,
        node: NodeId,
        binding: &Binding,
        base_idx: usize,
    ) -> Result<(), MediatorError> {
        let info = self.aig.elem_info(binding.elem);
        match &info.prod {
            Prod::Empty => Ok(()),
            Prod::Pcdata { text } => {
                let value = self.scalar_at(binding, text, base_idx)?;
                tree.add_text(node, value.to_text());
                Ok(())
            }
            Prod::Items(items) => {
                let base = self.store.get(&RelKey::Instances(binding.occ.base))?;
                let rowid = base
                    .cell(base_idx, base.col("__rowid").map_err(MediatorError::Store)?)
                    .as_int()
                    .unwrap_or(-1);
                for (pos, item) in items.iter().enumerate() {
                    let child_info = self.aig.elem_info(item.elem);
                    if child_info.internal {
                        continue; // computation states are not tagged
                    }
                    if item.star {
                        let tag = occ_tag(self.aig, &binding.occ, pos);
                        let child_binding = self.binding(&Occ::mat(item.elem))?;
                        if let Some(rows) = self.children_index.get(&(item.elem, tag, rowid)) {
                            for &child_pos in rows {
                                let child_node =
                                    tree.add_element(node, child_info.tag().to_string());
                                self.tag_children(tree, child_node, child_binding, child_pos)?;
                            }
                        }
                    } else {
                        let child_occ = binding.occ.child(pos);
                        let child_binding = self.binding(&child_occ)?;
                        let child_node = tree.add_element(node, child_info.tag().to_string());
                        self.tag_children(tree, child_node, child_binding, base_idx)?;
                    }
                }
                Ok(())
            }
            Prod::Choice { branches, .. } => {
                let base = self.store.get(&RelKey::Instances(binding.occ.base))?;
                let rowid = base
                    .cell(base_idx, base.col("__rowid").map_err(MediatorError::Store)?)
                    .as_int()
                    .unwrap_or(-1);
                for (bno, branch) in branches.iter().enumerate() {
                    let tag = branch_tag(self.aig, &binding.occ, bno);
                    if let Some(rows) = self.children_index.get(&(branch.elem, tag, rowid)) {
                        let child_info = self.aig.elem_info(branch.elem);
                        let child_binding = self.binding(&Occ::mat(branch.elem))?;
                        for &child_pos in rows {
                            let child_node = tree.add_element(node, child_info.tag().to_string());
                            self.tag_children(tree, child_node, child_binding, child_pos)?;
                        }
                    }
                }
                Ok(())
            }
        }
    }

    /// Star/choice child row positions for one parent row, or an empty
    /// slice when the index has no bucket.
    fn child_rows(&self, elem: ElemIdx, tag: String, rowid: i64) -> &[usize] {
        self.children_index
            .get(&(elem, tag, rowid))
            .map(|rows| rows.as_slice())
            .unwrap_or(&[])
    }

    /// The `__rowid` of the base instance at `base_idx`.
    fn rowid_at(&self, binding: &Binding, base_idx: usize) -> Result<i64, MediatorError> {
        let base = self.store.get(&RelKey::Instances(binding.occ.base))?;
        Ok(base
            .cell(base_idx, base.col("__rowid").map_err(MediatorError::Store)?)
            .as_int()
            .unwrap_or(-1))
    }

    fn scalar_at(
        &self,
        binding: &Binding,
        expr: &aig_core::spec::ValueExpr,
        base_idx: usize,
    ) -> Result<Value, MediatorError> {
        match resolve_scalar(self.aig, binding.elem, expr) {
            Some(ResolvedScalar::Const(v)) => Ok(v),
            Some(ResolvedScalar::InhField(f)) => match binding.scalars.get(&f) {
                Some(ScalarBind::Const(v)) => Ok(v.clone()),
                Some(ScalarBind::Col(c)) => {
                    let base: &Relation = self.store.get(&RelKey::Instances(binding.occ.base))?;
                    Ok(base
                        .cell(base_idx, base.col(c).map_err(MediatorError::Store)?)
                        .clone())
                }
                None => Err(MediatorError::Internal(format!(
                    "missing scalar binding `{f}`"
                ))),
            },
            None => Err(MediatorError::Unsupported(format!(
                "PCDATA of `{}` does not resolve through copy chains",
                self.aig.elem_name(binding.elem)
            ))),
        }
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
pub(crate) fn retag_document(
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
    let tagger = Tagger {
        aig,
        graph,
        store,
        children_index: build_children_index(aig, graph, store)?,
    };
    let root_info = aig.elem_info(aig.root);
    let mut tree = XmlTree::new(root_info.tag().to_string());
    let root_node = tree.root();
    let root_binding = tagger.binding(&Occ::mat(aig.root))?.clone();
    let base = store.get(&RelKey::Instances(aig.root))?;
    if base.len() != 1 {
        return Err(MediatorError::Internal(format!(
            "root instance table has {} rows",
            base.len()
        )));
    }
    let mut retagger = Retagger {
        dirty_below: dirty_below(aig, tainted),
        tagger,
        cached,
        tainted,
        nodes_reused: 0,
    };
    retagger.retag_children(&mut tree, root_node, &root_binding, 0, cached.root())?;
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
    tagger: Tagger<'a>,
    cached: &'a XmlTree,
    tainted: &'a HashSet<ElemIdx>,
    dirty_below: HashSet<ElemIdx>,
    nodes_reused: usize,
}

impl Retagger<'_> {
    /// Emits the children of `binding` at `base_idx` under `node`, reusing
    /// the cached node's subtrees wherever the delta cannot have reached.
    ///
    /// Invariant: `binding`'s element and its base instance table are
    /// untainted, so this node's child counts per production item equal
    /// the cached node's — unless a tainted child element intervenes, in
    /// which case the whole child list rebuilds from the store.
    fn retag_children(
        &mut self,
        tree: &mut XmlTree,
        node: NodeId,
        binding: &Binding,
        base_idx: usize,
        cached_node: NodeId,
    ) -> Result<(), MediatorError> {
        let info = self.tagger.aig.elem_info(binding.elem);
        match &info.prod {
            Prod::Empty => Ok(()),
            Prod::Pcdata { text } => {
                // The base table is untainted, so the value is unchanged;
                // recomputing it from the spliced store is equivalent and
                // keeps a single source of truth.
                let value = self.tagger.scalar_at(binding, text, base_idx)?;
                tree.add_text(node, value.to_text());
                Ok(())
            }
            Prod::Items(items) => {
                let star_tainted = items.iter().any(|i| {
                    i.star
                        && !self.tagger.aig.elem_info(i.elem).internal
                        && self.tainted.contains(&i.elem)
                });
                if star_tainted {
                    // A tainted star child: the child row set may have
                    // changed, so positional correspondence with the
                    // cached node ends here — rebuild from the store.
                    return self.tagger.tag_children(tree, node, binding, base_idx);
                }
                let rowid = self.tagger.rowid_at(binding, base_idx)?;
                let cached_children: Vec<NodeId> =
                    self.cached.element_children(cached_node).collect();
                let mut cursor = 0usize;
                for (pos, item) in items.iter().enumerate() {
                    let child_info = self.tagger.aig.elem_info(item.elem);
                    if child_info.internal {
                        continue;
                    }
                    if item.star {
                        let tag = occ_tag(self.tagger.aig, &binding.occ, pos);
                        let child_binding = self.tagger.binding(&Occ::mat(item.elem))?.clone();
                        let rows = self.tagger.child_rows(item.elem, tag, rowid).to_vec();
                        for child_pos in rows {
                            let cached_child = cached_children[cursor];
                            cursor += 1;
                            self.retag_child(tree, node, &child_binding, child_pos, cached_child)?;
                        }
                    } else {
                        let child_occ = binding.occ.child(pos);
                        let child_binding = self.tagger.binding(&child_occ)?.clone();
                        let cached_child = cached_children[cursor];
                        cursor += 1;
                        self.retag_child(tree, node, &child_binding, base_idx, cached_child)?;
                    }
                }
                Ok(())
            }
            Prod::Choice { branches, .. } => {
                if branches.iter().any(|b| self.tainted.contains(&b.elem)) {
                    return self.tagger.tag_children(tree, node, binding, base_idx);
                }
                let rowid = self.tagger.rowid_at(binding, base_idx)?;
                let cached_children: Vec<NodeId> =
                    self.cached.element_children(cached_node).collect();
                let mut cursor = 0usize;
                for (bno, branch) in branches.iter().enumerate() {
                    let tag = branch_tag(self.tagger.aig, &binding.occ, bno);
                    let child_binding = self.tagger.binding(&Occ::mat(branch.elem))?.clone();
                    let rows = self.tagger.child_rows(branch.elem, tag, rowid).to_vec();
                    for child_pos in rows {
                        let cached_child = cached_children[cursor];
                        cursor += 1;
                        self.retag_child(tree, node, &child_binding, child_pos, cached_child)?;
                    }
                }
                Ok(())
            }
        }
    }

    /// Emits one child element, choosing between verbatim copy, paired
    /// recursion, and store rebuild.
    fn retag_child(
        &mut self,
        tree: &mut XmlTree,
        parent: NodeId,
        binding: &Binding,
        base_idx: usize,
        cached_child: NodeId,
    ) -> Result<(), MediatorError> {
        let child_info = self.tagger.aig.elem_info(binding.elem);
        let child_node = tree.add_element(parent, child_info.tag().to_string());
        if !self.dirty_below.contains(&binding.elem) {
            // Nothing tainted anywhere below: the cached subtree is
            // verbatim what a cold tag over the spliced store would emit.
            self.copy_into(tree, child_node, cached_child);
            Ok(())
        } else {
            self.retag_children(tree, child_node, binding, base_idx, cached_child)
        }
    }

    /// Deep-copies the cached node's children under `dst`.
    fn copy_into(&mut self, tree: &mut XmlTree, dst: NodeId, src: NodeId) {
        for i in 0..self.cached.children(src).len() {
            let child = self.cached.children(src)[i];
            match self.cached.kind(child) {
                NodeKind::Element(tag) => {
                    let copied = tree.add_element(dst, tag.clone());
                    self.nodes_reused += 1;
                    self.copy_into(tree, copied, child);
                }
                NodeKind::Text(text) => {
                    tree.add_text(dst, text.clone());
                    self.nodes_reused += 1;
                }
            }
        }
    }
}
