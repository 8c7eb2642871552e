//! Copy rules and copy elimination (paper §4).
//!
//! A semantic rule is a **copy rule (CSR)** when its right-hand side merely
//! forwards attribute values (`xk` or `x` in the paper's grammar); it is a
//! **query rule (QSR)** otherwise. A *copy chain* is a maximal sequence of
//! dependent CSRs feeding a QSR; copy elimination replaces references
//! through the chain by the chain's origin, "a kind of inlining" that
//! removes intermediate dependencies so more queries on different sources
//! can run in parallel.
//!
//! [`resolve_scalar`] is the chain-follower: given a scalar expression at an
//! element, it resolves through leaf synthesized copies and child inherited
//! copies down to either a field of the element's own inherited attribute or
//! a constant. The mediator uses it to read PCDATA text values and
//! singleton-set contributions directly out of cached instance tables
//! instead of materializing the intermediate attributes.

use crate::spec::{Aig, ElemIdx, FieldRule, Prod, SeqItem, SetExpr, SynRule, ValueExpr};
use aig_relstore::Value;

/// The origin of a scalar copy chain at a given element.
#[derive(Debug, Clone, PartialEq)]
pub enum ResolvedScalar {
    /// A scalar field of the element's own inherited attribute.
    InhField(String),
    /// A constant.
    Const(Value),
}

/// Follows copy chains to resolve `expr` (a scalar expression in rules of
/// `elem`'s production) to a field of `Inh(elem)` or a constant. Returns
/// `None` when the chain passes through a non-copy rule (a query, a
/// set constructor, or a starred child).
pub fn resolve_scalar(aig: &Aig, elem: ElemIdx, expr: &ValueExpr) -> Option<ResolvedScalar> {
    resolve_scalar_depth(aig, elem, expr, 0)
}

const MAX_CHAIN: usize = 64;

fn resolve_scalar_depth(
    aig: &Aig,
    elem: ElemIdx,
    expr: &ValueExpr,
    depth: usize,
) -> Option<ResolvedScalar> {
    if depth > MAX_CHAIN {
        return None;
    }
    match expr {
        ValueExpr::Const(v) => Some(ResolvedScalar::Const(v.clone())),
        ValueExpr::InhField(name) => Some(ResolvedScalar::InhField(name.clone())),
        ValueExpr::ChildSyn { item, field } => {
            // Resolve inside the child: its syn rule for `field` must itself
            // be a scalar copy, ultimately from the child's inherited
            // attribute.
            let child = copy_source(aig, elem, *item)?;
            let child_info = aig.elem_info(child.elem);
            let rule = child_syn_rule(&child_info.syn_rules, &child_info.prod, field)?;
            let FieldRule::Scalar(child_expr) = rule else {
                return None;
            };
            resolve_through(aig, elem, child, child_expr, depth)
        }
    }
}

/// Resolves, at `elem`, a synthesized copy of `child_expr` on the `item`-th
/// child of `elem`'s production, as if the child declared it — what a
/// field about to be added to the child would read.
pub(crate) fn resolve_child_copy(
    aig: &Aig,
    elem: ElemIdx,
    item: usize,
    child_expr: &ValueExpr,
) -> Option<ResolvedScalar> {
    resolve_through(aig, elem, copy_source(aig, elem, item)?, child_expr, 0)
}

/// The `item`-th child of `elem`'s production, if it has one instance.
fn copy_source(aig: &Aig, elem: ElemIdx, item: usize) -> Option<&SeqItem> {
    let Prod::Items(items) = &aig.elem_info(elem).prod else {
        return None;
    };
    items.get(item).filter(|child| !child.star) // a starred child has many instances
}

/// Resolves `child_expr` inside `child`, then maps the child's inherited
/// field back to `elem` through the item's assignment.
fn resolve_through(
    aig: &Aig,
    elem: ElemIdx,
    child: &SeqItem,
    child_expr: &ValueExpr,
    depth: usize,
) -> Option<ResolvedScalar> {
    match resolve_scalar_depth(aig, child.elem, child_expr, depth + 1)? {
        ResolvedScalar::Const(v) => Some(ResolvedScalar::Const(v)),
        ResolvedScalar::InhField(child_field) => {
            let (_, assign_rule) = child.assigns.iter().find(|(f, _)| f == &child_field)?;
            let FieldRule::Scalar(assign_expr) = assign_rule else {
                return None;
            };
            resolve_scalar_depth(aig, elem, assign_expr, depth + 1)
        }
    }
}

fn child_syn_rule<'a>(
    syn_rules: &'a [SynRule],
    prod: &'a Prod,
    field: &str,
) -> Option<&'a FieldRule> {
    // Choice productions keep rules per branch — not a resolvable copy.
    if matches!(prod, Prod::Choice { .. }) {
        return None;
    }
    syn_rules.iter().find(|r| r.field == field).map(|r| &r.rule)
}

/// Counts of copy vs query rules in an AIG, for the copy-elimination
/// ablation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleCensus {
    /// Copy rules (pure forwarding of attribute values).
    pub csr: usize,
    /// Query rules (SQL queries).
    pub qsr: usize,
    /// Constructor rules (unions, collections, singletons).
    pub constructor: usize,
}

/// Classifies every semantic rule in the AIG.
pub fn census(aig: &Aig) -> RuleCensus {
    let mut out = RuleCensus::default();
    fn classify(out: &mut RuleCensus, rule: &FieldRule) {
        match rule {
            FieldRule::Scalar(ValueExpr::InhField(_))
            | FieldRule::Scalar(ValueExpr::ChildSyn { .. })
            | FieldRule::Scalar(ValueExpr::Const(_)) => out.csr += 1,
            FieldRule::Set(SetExpr::InhField(_)) | FieldRule::Set(SetExpr::ChildSyn { .. }) => {
                out.csr += 1
            }
            FieldRule::Set(_) => out.constructor += 1,
            FieldRule::Query(_) => out.qsr += 1,
        }
    }
    for idx in aig.elements() {
        let info = aig.elem_info(idx);
        for rule in &info.syn_rules {
            classify(&mut out, &rule.rule);
        }
        match &info.prod {
            Prod::Items(items) => {
                for item in items {
                    if let Some(generator) = &item.generator {
                        match generator {
                            crate::spec::Generator::Query(_) => out.qsr += 1,
                            crate::spec::Generator::Set(_) => out.csr += 1,
                        }
                    }
                    for (_, rule) in &item.assigns {
                        classify(&mut out, rule);
                    }
                }
            }
            Prod::Choice { branches, .. } => {
                out.qsr += 1; // the condition query
                for branch in branches {
                    for (_, rule) in &branch.assigns {
                        classify(&mut out, rule);
                    }
                    for rule in &branch.syn {
                        classify(&mut out, &rule.rule);
                    }
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::sigma0;

    #[test]
    fn leaf_text_values_resolve_to_parent_columns() {
        let aig = sigma0().unwrap();
        // Syn(trId).val at `treatment` resolves through the trId leaf's copy
        // rules to Inh(treatment).trId.
        let treatment = aig.elem("treatment").unwrap();
        let expr = ValueExpr::ChildSyn {
            item: 0, // trId is the first child of treatment
            field: "val".to_string(),
        };
        assert_eq!(
            resolve_scalar(&aig, treatment, &expr),
            Some(ResolvedScalar::InhField("trId".to_string()))
        );
    }

    #[test]
    fn inh_fields_and_consts_resolve_directly() {
        let aig = sigma0().unwrap();
        let patient = aig.elem("patient").unwrap();
        assert_eq!(
            resolve_scalar(&aig, patient, &ValueExpr::InhField("SSN".into())),
            Some(ResolvedScalar::InhField("SSN".into()))
        );
        assert_eq!(
            resolve_scalar(&aig, patient, &ValueExpr::Const(Value::str("x"))),
            Some(ResolvedScalar::Const(Value::str("x")))
        );
    }

    #[test]
    fn set_backed_syn_does_not_resolve() {
        let aig = sigma0().unwrap();
        let patient = aig.elem("patient").unwrap();
        // Syn(treatments).trIdS is a set constructor, not a copy chain.
        let expr = ValueExpr::ChildSyn {
            item: 2, // treatments
            field: "trIdS".to_string(),
        };
        assert_eq!(resolve_scalar(&aig, patient, &expr), None);
    }

    #[test]
    fn census_counts_sigma0() {
        let c = census(&sigma0().unwrap());
        // Four query generators (Q1..Q4) and no other QSRs.
        assert_eq!(c.qsr, 4);
        assert!(c.csr > 10, "σ0 is dominated by copy rules: {c:?}");
        assert!(c.constructor >= 3); // the three trIdS aggregations
    }

    #[test]
    fn compiled_constraints_add_constructor_rules() {
        let plain = census(&sigma0().unwrap());
        let compiled = census(&crate::compile::compile_constraints(&sigma0().unwrap()).unwrap());
        assert!(compiled.constructor > plain.constructor);
        assert_eq!(compiled.qsr, plain.qsr);
    }
}
