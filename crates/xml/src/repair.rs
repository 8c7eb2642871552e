//! Constraint repairing.
//!
//! The paper focuses on constraint *checking* but notes that "constraint
//! repairing \[19\] can be incorporated into the framework" (§3.3). This
//! module implements the natural minimal-deletion repair for the paper's
//! constraint classes:
//!
//! * **key** `C(A.l → A)`: among `A` elements with the same `l` value inside
//!   one `C` subtree, keep the first (document order) and delete the rest;
//! * **inclusion** `C(B.lB ⊆ A.lA)`: delete `B` elements whose `lB` value
//!   has no witnessing `A` in the `C` subtree.
//!
//! Deletions can cascade (removing an `A` element may orphan `B` values that
//! it witnessed), so repair iterates to a fixpoint. Deleting an element is
//! only safe when its DTD context allows a varying child count — i.e. its
//! parent's production is a star; [`repair`] refuses (reports, does not
//! delete) otherwise.

use crate::constraints::{Constraint, ConstraintSet};
use crate::dtd::{ContentModel, Dtd};
use crate::tree::{CopyStep, NodeId, XmlTree};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// One repair step applied to the document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairAction {
    /// The constraint that forced the deletion.
    pub constraint: String,
    /// Path of the deleted element.
    pub path: String,
    /// The offending value.
    pub value: String,
}

impl fmt::Display for RepairAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "deleted {} (value {:?}) to satisfy {}",
            self.path, self.value, self.constraint
        )
    }
}

/// The result of a repair run.
#[derive(Debug)]
pub struct Repair {
    /// The repaired document.
    pub tree: XmlTree,
    /// Deletions applied, in application order.
    pub actions: Vec<RepairAction>,
    /// Violations that could not be repaired by deletion (the offending
    /// element is a mandatory child).
    pub unrepairable: Vec<RepairAction>,
}

/// Repairs `tree` against `constraints` by minimal deletions, iterating to a
/// fixpoint. `dtd` decides which elements are deletable (children of starred
/// productions).
pub fn repair(tree: &XmlTree, constraints: &ConstraintSet, dtd: &Dtd) -> Repair {
    let mut current = tree.clone();
    let mut actions = Vec::new();
    let mut unrepairable = Vec::new();
    // Each pass deletes one batch; constraints interact, so iterate.
    for _round in 0..tree.len() {
        let victims = find_victims(&current, constraints);
        if victims.is_empty() {
            break;
        }
        let mut deletable: HashSet<NodeId> = HashSet::new();
        let mut blocked = Vec::new();
        for (node, action) in &victims {
            if is_deletable(&current, *node, dtd) {
                deletable.insert(*node);
                actions.push(action.clone());
            } else {
                blocked.push(action.clone());
            }
        }
        if deletable.is_empty() {
            unrepairable = blocked;
            break;
        }
        current = delete_nodes(&current, &deletable);
        if !blocked.is_empty() {
            // Re-examine blocked violations on the smaller document next
            // round; report them only if they persist at the fixpoint.
            continue;
        }
    }
    // Anything still violated at the end is unrepairable.
    if unrepairable.is_empty() {
        unrepairable = find_victims(&current, constraints)
            .into_iter()
            .map(|(_, a)| a)
            .collect();
    }
    Repair {
        tree: current,
        actions,
        unrepairable,
    }
}

/// Identifies the elements whose deletion repairs each current violation.
fn find_victims(tree: &XmlTree, constraints: &ConstraintSet) -> Vec<(NodeId, RepairAction)> {
    let mut victims: Vec<(NodeId, RepairAction)> = Vec::new();
    let mut seen: HashSet<NodeId> = HashSet::new();
    for constraint in &constraints.constraints {
        match constraint {
            Constraint::Key(key) => {
                for_context(tree, &key.context, |ctx| {
                    let mut first: HashMap<String, NodeId> = HashMap::new();
                    for node in subtree_elems(tree, ctx, &key.target) {
                        let Some(value) = tree.subelement_value(node, &key.field) else {
                            continue;
                        };
                        match first.entry(value.clone()) {
                            std::collections::hash_map::Entry::Occupied(_) => {
                                if seen.insert(node) {
                                    victims.push((
                                        node,
                                        RepairAction {
                                            constraint: constraint.to_string(),
                                            path: tree.path(node),
                                            value,
                                        },
                                    ));
                                }
                            }
                            std::collections::hash_map::Entry::Vacant(slot) => {
                                slot.insert(node);
                            }
                        }
                    }
                });
            }
            Constraint::Inclusion(ic) => {
                for_context(tree, &ic.context, |ctx| {
                    let witnesses: HashSet<String> = subtree_elems(tree, ctx, &ic.rhs_elem)
                        .filter_map(|a| tree.subelement_value(a, &ic.rhs_field))
                        .collect();
                    for node in subtree_elems(tree, ctx, &ic.lhs_elem) {
                        // B and A may be the same element type; an element
                        // never needs itself deleted for its own witness.
                        if ic.lhs_elem == ic.rhs_elem {
                            continue;
                        }
                        let Some(value) = tree.subelement_value(node, &ic.lhs_field) else {
                            continue;
                        };
                        if !witnesses.contains(&value) && seen.insert(node) {
                            victims.push((
                                node,
                                RepairAction {
                                    constraint: constraint.to_string(),
                                    path: tree.path(node),
                                    value,
                                },
                            ));
                        }
                    }
                });
            }
        }
    }
    victims
}

fn for_context(tree: &XmlTree, context: &str, mut f: impl FnMut(NodeId)) {
    for node in tree.iter() {
        if tree.tag(node) == Some(context) {
            f(node);
        }
    }
}

fn subtree_elems<'a>(
    tree: &'a XmlTree,
    root: NodeId,
    tag: &'a str,
) -> impl Iterator<Item = NodeId> + 'a {
    tree.descendants(root)
        .filter(move |&n| tree.tag(n) == Some(tag))
}

/// An element is deletable when its parent's DTD production is a star over
/// its type (so any child count conforms).
fn is_deletable(tree: &XmlTree, node: NodeId, dtd: &Dtd) -> bool {
    let Some(parent) = tree.parent(node) else {
        return false; // never delete the root
    };
    let (Some(parent_tag), Some(tag)) = (tree.tag(parent), tree.tag(node)) else {
        return false;
    };
    match dtd.elem(parent_tag).map(|e| dtd.production(e)) {
        Some(ContentModel::Star(inner)) => dtd.name(*inner) == tag,
        _ => false,
    }
}

/// Rebuilds the tree without the given nodes (and their subtrees).
fn delete_nodes(tree: &XmlTree, victims: &HashSet<NodeId>) -> XmlTree {
    tree.copy(
        |_, _| {},
        |node| match victims.contains(&node) {
            true => CopyStep::Skip,
            false => CopyStep::Keep,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::ConstraintSet;
    use crate::dtd::DtdBuilder;
    use crate::validate::validate;

    fn report_dtd() -> Dtd {
        let mut b = DtdBuilder::new();
        b.star("report", "patient");
        b.seq("patient", &["treatments", "bill"]);
        b.star("treatments", "treatment");
        b.seq("treatment", &["trId"]);
        b.star("bill", "item");
        b.seq("item", &["trId", "price"]);
        b.pcdata("trId");
        b.pcdata("price");
        b.build("report").unwrap()
    }

    fn tree(items: &[(&str, &str)], treatments: &[&str]) -> XmlTree {
        let mut t = XmlTree::new("report");
        let p = t.add_element(t.root(), "patient");
        let trs = t.add_element(p, "treatments");
        for tr in treatments {
            let treatment = t.add_element(trs, "treatment");
            let id = t.add_element(treatment, "trId");
            t.add_text(id, *tr);
        }
        let bill = t.add_element(p, "bill");
        for (id, price) in items {
            let item = t.add_element(bill, "item");
            let idn = t.add_element(item, "trId");
            t.add_text(idn, *id);
            let pr = t.add_element(item, "price");
            t.add_text(pr, *price);
        }
        t
    }

    fn constraints() -> ConstraintSet {
        ConstraintSet::parse("patient(item.trId -> item)\npatient(treatment.trId <= item.trId)")
            .unwrap()
    }

    #[test]
    fn already_consistent_documents_are_untouched() {
        let t = tree(&[("t1", "10")], &["t1"]);
        let r = repair(&t, &constraints(), &report_dtd());
        assert!(r.actions.is_empty());
        assert!(r.unrepairable.is_empty());
        assert_eq!(r.tree, t);
    }

    #[test]
    fn duplicate_key_items_are_deleted_keeping_the_first() {
        let t = tree(&[("t1", "10"), ("t1", "99"), ("t2", "5")], &["t1", "t2"]);
        let r = repair(&t, &constraints(), &report_dtd());
        assert_eq!(r.actions.len(), 1);
        assert!(r.actions[0].constraint.contains("->"));
        assert!(constraints().satisfied(&r.tree));
        // The first t1 item (price 10) survives.
        let text = crate::serialize::to_string(&r.tree);
        assert!(text.contains("<price>10</price>"), "{text}");
        assert!(!text.contains("<price>99</price>"), "{text}");
        validate(&r.tree, &report_dtd()).unwrap();
    }

    #[test]
    fn unwitnessed_treatments_are_deleted() {
        let t = tree(&[("t1", "10")], &["t1", "ghost"]);
        let r = repair(&t, &constraints(), &report_dtd());
        assert_eq!(r.actions.len(), 1);
        assert_eq!(r.actions[0].value, "ghost");
        assert!(constraints().satisfied(&r.tree));
        assert!(r.unrepairable.is_empty());
    }

    #[test]
    fn cascading_repairs_reach_a_fixpoint() {
        // Deleting the duplicate t1 item must NOT delete the witness for the
        // t1 treatment (the first item stays) — but a treatment whose only
        // witness was deleted must go in a later round. Construct: key dup
        // on t2 where the duplicate is also the only witness pattern is
        // impossible (the first copy stays), so cascade via an inclusion
        // chain instead: item witnesses treatment; removing `ghost`
        // treatment keeps everything else intact.
        let t = tree(&[("t1", "10"), ("t1", "99")], &["t1", "zz"]);
        let r = repair(&t, &constraints(), &report_dtd());
        assert!(constraints().satisfied(&r.tree));
        // Two deletions: the duplicate item and the unwitnessed treatment.
        assert_eq!(r.actions.len(), 2);
        validate(&r.tree, &report_dtd()).unwrap();
    }

    #[test]
    fn mandatory_children_are_not_deleted() {
        // A key over a *sequence* child: price is mandatory inside item, so
        // a "duplicate" cannot be repaired by deletion.
        let mut b = DtdBuilder::new();
        b.seq("doc", &["x", "y"]);
        b.seq("x", &["k"]);
        b.seq("y", &["k"]);
        b.pcdata("k");
        let dtd = b.build("doc").unwrap();
        let mut t = XmlTree::new("doc");
        for tag in ["x", "y"] {
            let e = t.add_element(t.root(), tag);
            let k = t.add_element(e, "k");
            t.add_text(k, "same");
        }
        // Key: within doc, x.k values unique — fabricate a violation by
        // using the same type twice is impossible here, so use an inclusion
        // violation with a mandatory lhs instead.
        let set = ConstraintSet::parse("doc(x.k <= y.missing)").unwrap();
        let r = repair(&t, &set, &dtd);
        assert!(r.actions.is_empty());
        assert_eq!(r.unrepairable.len(), 1);
        assert_eq!(r.tree, t);
    }
}
