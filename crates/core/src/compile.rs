//! Constraint compilation (paper §3.3).
//!
//! XML keys and inclusion constraints are compiled into additional
//! synthesized attributes (bags for keys, sets for inclusion constraints),
//! semantic rules propagating them up the tree, and *guards* at the context
//! element type. The evaluator checks guards as synthesized attributes are
//! computed, aborting on the first violation — so constraint enforcement
//! happens *in parallel with document generation* rather than as a
//! post-pass.
//!
//! For a key `C(A.l → A)` (constraint #i):
//!
//! 1. the element types of `C` subtrees that can hold an `A` (the
//!    collector's *scope*, below) get a bag-typed synthesized field
//!    `__c{i}` (the paper adds it to *every* type),
//! 2. the `l` element type gets a scalar synthesized field `__c{i}_val`
//!    carrying its PCDATA (a synthesized rule may read `Inh` only in a
//!    PCDATA or empty production, §3.1, so `A` cannot read the value
//!    itself) — unless no declared rule reads it (step 2),
//! 3. `A` contributes its own `l` value plus its children's bags; every
//!    other type in scope bag-unions its in-scope children's bags,
//! 4. `C` gets the guard `unique(Syn(C).__c{i})`.
//!
//! An inclusion constraint `C(B.lb ⊆ A.la)` is compiled the same way with
//! two set-typed fields (`__c{i}_sub` contributed by `B`, `__c{i}_sup` by
//! `A`) and the guard `subset(…)`.
//!
//! Two static simplifications (§4's may-reachability and copy elimination,
//! applied to the collectors) keep the specialized AIG from computing what
//! cannot change a guard's verdict:
//!
//! **Step 1 — a collector only where a value can appear.** A collector with
//! contributor `A` under context `C` is declared on
//! `descendants(C) ∩ { e : A ∈ descendants(e) }`, reachability over the
//! element-type graph (a type on a recursion cycle with `A` below it stays
//! in, with the whole cycle). *Soundness:* an instance of a type outside
//! that set has no `A` instance below it, so its collector is ∅ on every
//! input; ∪ ∅ is the identity for sets and ⊎ ∅ for bags, so leaving its
//! term out of the parent's rule changes neither the set nor any
//! multiplicity a guard reads. A rule left with one term is that term, so a
//! lone child reference is a copy, which the mediator follows without a
//! task.
//!
//! **Step 2 — a collector the AIG already computes is declared once.** A
//! new collector `F` *shares* an existing set/bag synthesized field `G`
//! (user-declared or an earlier collector) when `G` has `F`'s kind (set
//! with set, bag with bag — never a bag with a set, whose dedup would hide
//! key violations) and arity, and every type of `F`'s scope other than `C`
//! declares `G` with a rule equal to `F`'s there under the substitution
//! `F ↦ G` (a union of one term reads as that term; child references match
//! `F` to `G`; singleton values compare after
//! [`crate::copyelim::resolve_scalar`], so `Syn(trId).__c1_sub_val` ≡
//! `Syn(trId).val`; the probe is compared as what it will copy, before it
//! is declared). `C` itself is checked too when it lies on a cycle below
//! itself. `F` is then declared only at `C`, with its rule reading the
//! children's `G`, and a probe only where that rule reads one; the guard
//! and its label are unchanged. *Soundness:*
//! by induction on the finite unfolded instance tree, `F(x) = G(x)` for
//! every instance `x` of a checked type — the two rules are the same terms
//! over children whose `F` and `G` agree by the induction hypothesis
//! (children outside the scope carry neither term), and equal singletons
//! read the same value — so `F` at `C`, computed from the children's `G`,
//! is the value the unshared `F` would have had.
//!
//! `check_constraints` holds the data-independent conditions a constraint
//! must meet to be compiled at all; [`Aig::finalize`] runs it,
//! so the parser, the builder and every transform reject a constraint the
//! grammar cannot host. Compilation resolves each constraint through the
//! same `hosting` pass.

use crate::attrs::{FieldDecl, FieldType};
use crate::copyelim::{resolve_child_copy, resolve_scalar, ResolvedScalar};
use crate::error::AigError;
use crate::spec::{
    Aig, ElemIdx, FieldRule, Guard, GuardKind, Prod, SeqItem, SetExpr, SynRule, ValueExpr,
};
use aig_xml::Constraint;

/// Compiles the AIG's constraints into a *specialized* AIG with extra
/// synthesized attributes, rules, and guards. The input AIG is left
/// untouched; the result enforces every constraint during evaluation.
pub fn compile_constraints(aig: &Aig) -> Result<Aig, AigError> {
    let graph = ElemGraph::new(aig);
    let mut out = aig.clone();
    for (i, constraint) in aig.constraints.constraints.iter().enumerate() {
        let hosting = hosting(aig, &graph, constraint)?;
        let mut fields = Vec::new();
        for ((suffix, _, value), contributors) in hosts(constraint).into_iter().zip(&hosting.hosts)
        {
            let field = format!("__c{i}{suffix}");
            let component = vec![value.to_string()];
            let ty = match constraint {
                Constraint::Key(_) => FieldType::Bag(component),
                Constraint::Inclusion(_) => FieldType::Set(component),
            };
            add_collector(&mut out, &graph, &hosting.context, &field, ty, contributors);
            fields.push(field);
        }
        let kind = match (constraint, &fields[..]) {
            (Constraint::Key(_), [bag]) => GuardKind::Unique { field: bag.clone() },
            (Constraint::Inclusion(_), [sub, sup]) => GuardKind::Subset {
                sub: sub.clone(),
                sup: sup.clone(),
            },
            _ => unreachable!("`hosts` gives a key one collector, an inclusion two"),
        };
        for &context in &hosting.context {
            out.elem_info_mut(context).guards.push(Guard {
                kind: kind.clone(),
                label: constraint.to_string(),
            });
        }
    }
    // Re-validate and recompute evaluation orders.
    out.finalize()?;
    Ok(out)
}

/// The data-independent checks on Σ (see [`hosting`]).
pub(crate) fn check_constraints(aig: &Aig) -> Result<(), AigError> {
    if aig.constraints.is_empty() {
        return Ok(());
    }
    let graph = ElemGraph::new(aig);
    for constraint in &aig.constraints.constraints {
        hosting(aig, &graph, constraint)?;
    }
    Ok(())
}

/// The collectors a constraint compiles into: per collector, its field
/// name suffix, the contributing element and the value subelement.
fn hosts(constraint: &Constraint) -> Vec<(&'static str, &str, &str)> {
    match constraint {
        Constraint::Key(k) => vec![("", &k.target, &k.field)],
        Constraint::Inclusion(ic) => vec![
            ("_sub", &ic.lhs_elem, &ic.lhs_field),
            ("_sup", &ic.rhs_elem, &ic.rhs_field),
        ],
    }
}

/// A constraint resolved against the grammar.
struct Hosting {
    /// The context types.
    context: Vec<ElemIdx>,
    /// Per collector of [`hosts`], each contributing type inside a context
    /// subtree with the item of its production holding the value child.
    hosts: Vec<Vec<(ElemIdx, usize)>>,
}

/// Resolves `constraint`, checking what compiling it needs: every element
/// type it names exists, its keyed / contained / containing types can
/// appear inside a context subtree, its value-carrying types are PCDATA,
/// and each of those types inside a context subtree has a non-starred value
/// child. Names resolve by tag, so an unfolded AIG (`treatment@2`) passes
/// exactly when the AIG it was unfolded from does.
fn hosting(aig: &Aig, graph: &ElemGraph, constraint: &Constraint) -> Result<Hosting, AigError> {
    let hosts = hosts(constraint);
    let context = tagged(aig, constraint.context())?;
    let elems = hosts
        .iter()
        .map(|(_, elem, _)| tagged(aig, elem))
        .collect::<Result<Vec<_>, _>>()?;
    let values = hosts
        .iter()
        .map(|(_, _, value)| tagged(aig, value))
        .collect::<Result<Vec<_>, _>>()?;
    let inside = graph.below(&context);
    for ((_, name, _), types) in hosts.iter().zip(&elems) {
        if !types.iter().any(|e| inside[e.index()]) {
            return Err(AigError::Spec(format!(
                "constraint {constraint}: `{name}` cannot appear inside `{}` subtrees",
                constraint.context()
            )));
        }
    }
    for &value in values.iter().flatten() {
        let info = aig.elem_info(value);
        if !matches!(info.prod, Prod::Pcdata { .. }) {
            return Err(AigError::Spec(format!(
                "constraint field `{}` must be a PCDATA element type",
                info.name
            )));
        }
    }
    let hosts = hosts
        .iter()
        .zip(elems)
        .map(|((_, _, value), types)| {
            types
                .into_iter()
                .filter(|e| inside[e.index()])
                .map(|elem| match value_item(aig, elem, value) {
                    Some(item) => Ok((elem, item)),
                    None => Err(AigError::Spec(format!(
                        "constraint {constraint}: element `{}` should contribute the value \
                         of its `{value}` subelement but has no such (non-starred) child",
                        aig.elem_name(elem),
                    ))),
                })
                .collect()
        })
        .collect::<Result<_, _>>()?;
    Ok(Hosting { context, hosts })
}

/// Element types whose tag is `name`; an error when there are none.
fn tagged(aig: &Aig, name: &str) -> Result<Vec<ElemIdx>, AigError> {
    let found: Vec<ElemIdx> = aig
        .elements()
        .filter(|&e| aig.elem_info(e).tag() == name)
        .collect();
    if found.is_empty() {
        return Err(AigError::Spec(format!(
            "constraint references unknown element type `{name}`"
        )));
    }
    Ok(found)
}

/// The item of `elem`'s production holding the `value`-tagged subelement
/// it contributes (the last non-starred one).
fn value_item(aig: &Aig, elem: ElemIdx, value: &str) -> Option<usize> {
    let Prod::Items(items) = &aig.elem_info(elem).prod else {
        return None;
    };
    items
        .iter()
        .rposition(|item| !item.star && aig.elem_info(item.elem).tag() == value)
}

/// The element-type graph both ways. Compilation adds fields and rules but
/// no productions, so one graph serves every constraint.
struct ElemGraph {
    children: Vec<Vec<ElemIdx>>,
    parents: Vec<Vec<ElemIdx>>,
}

impl ElemGraph {
    fn new(aig: &Aig) -> ElemGraph {
        let children: Vec<Vec<ElemIdx>> = aig.elements().map(|e| aig.children_of(e)).collect();
        let mut parents = vec![Vec::new(); children.len()];
        for (parent, kids) in children.iter().enumerate() {
            for kid in kids {
                parents[kid.index()].push(ElemIdx(parent as u32));
            }
        }
        ElemGraph { children, parents }
    }

    /// The types that can appear in a subtree rooted at one of `from`.
    fn below(&self, from: &[ElemIdx]) -> Vec<bool> {
        reach(&self.children, from)
    }

    /// Step 1: the types under `contexts` from which a contributor can be
    /// reached.
    fn scope(&self, contexts: &[ElemIdx], contributors: &[ElemIdx]) -> Vec<bool> {
        let above = reach(&self.parents, contributors);
        let below = self.below(contexts);
        below.iter().zip(above).map(|(b, a)| *b && a).collect()
    }
}

/// The element types reachable from `from` (inclusive) along `edges`.
fn reach(edges: &[Vec<ElemIdx>], from: &[ElemIdx]) -> Vec<bool> {
    let mut seen = vec![false; edges.len()];
    let mut stack = from.to_vec();
    for e in from {
        seen[e.index()] = true;
    }
    while let Some(e) = stack.pop() {
        for &next in &edges[e.index()] {
            if !std::mem::replace(&mut seen[next.index()], true) {
                stack.push(next);
            }
        }
    }
    seen
}

/// Gives the PCDATA element `elem` a scalar synthesized field `name`
/// mirroring its text rule, so ancestors can read the subelement value.
fn add_text_probe(aig: &mut Aig, elem: ElemIdx, name: &str) {
    let info = aig.elem_info_mut(elem);
    let Prod::Pcdata { text } = &info.prod else {
        unreachable!("hosting: value types are PCDATA");
    };
    let text = text.clone();
    if info.syn.iter().any(|f| f.name == name) {
        return; // another contributor has the same value type
    }
    info.syn.push(FieldDecl::scalar(name));
    info.syn_rules.push(SynRule {
        field: name.to_string(),
        rule: FieldRule::Scalar(text),
    });
}

/// Adds the collector `field` of type `ty`, fed by `contributors` (each a
/// type and the item of its value child), to the types of its scope under
/// `contexts` — or only to the contexts when an existing field already
/// computes it (step 2). A contributor reads its value child's text through
/// the probe `{field}_val`, declared where a declared rule reads it.
fn add_collector(
    aig: &mut Aig,
    graph: &ElemGraph,
    contexts: &[ElemIdx],
    field: &str,
    ty: FieldType,
    contributors: &[(ElemIdx, usize)],
) {
    let probe = format!("{field}_val");
    let sources: Vec<ElemIdx> = contributors.iter().map(|(elem, _)| *elem).collect();
    let scope = graph.scope(contexts, &sources);
    // One rule per element type in scope (one per branch for a choice).
    let rules: Vec<(ElemIdx, Vec<SetExpr>)> = aig
        .elements()
        .filter(|e| scope[e.index()])
        .map(|elem| {
            let own = contributors
                .iter()
                .find(|(contributor, _)| *contributor == elem)
                .map(|&(_, item)| {
                    SetExpr::Singleton(vec![ValueExpr::ChildSyn {
                        item,
                        field: probe.clone(),
                    }])
                });
            (
                elem,
                collector_rules(&aig.elem_info(elem).prod, &scope, field, own),
            )
        })
        .collect();
    let shared = shared_field(aig, graph, contexts, field, &ty, &rules);
    for (elem, rules) in rules {
        match &shared {
            None => declare(aig, elem, field, ty.clone(), rules),
            Some(g) if contexts.contains(&elem) => {
                let rules = rules.into_iter().map(|r| rename_refs(r, field, g));
                declare(aig, elem, field, ty.clone(), rules.collect());
            }
            Some(_) => {}
        }
    }
    for &(elem, item) in contributors {
        if shared.is_none() || contexts.contains(&elem) {
            let Prod::Items(items) = &aig.elem_info(elem).prod else {
                unreachable!("hosting: a contributor has a value item");
            };
            add_text_probe(aig, items[item].elem, &probe);
        }
    }
}

/// The collector's rules at one type in scope: the union of its in-scope
/// children's collectors (plus `own` on the contributor), or per choice
/// branch a copy of the branch child's collector (∅ out of scope).
fn collector_rules(prod: &Prod, scope: &[bool], field: &str, own: Option<SetExpr>) -> Vec<SetExpr> {
    let reference = |item: usize, child: &SeqItem| {
        let field = field.to_string();
        if child.star {
            SetExpr::Collect { item, field }
        } else {
            SetExpr::ChildSyn { item, field }
        }
    };
    match prod {
        Prod::Choice { branches, .. } => branches
            .iter()
            .map(|branch| match scope[branch.elem.index()] {
                true => SetExpr::ChildSyn {
                    item: 0,
                    field: field.to_string(),
                },
                false => SetExpr::Empty,
            })
            .collect(),
        Prod::Items(items) => {
            let mut terms: Vec<SetExpr> = items
                .iter()
                .enumerate()
                .filter(|(_, child)| scope[child.elem.index()])
                .map(|(item, child)| reference(item, child))
                .chain(own)
                .collect();
            // A lone child reference stays a copy, which the mediator
            // follows without a task.
            vec![match terms.len() {
                0 => SetExpr::Empty,
                1 => terms.pop().expect("one term"),
                _ => SetExpr::Union(terms),
            }]
        }
        // A leaf reaches no contributor and is never in scope.
        Prod::Pcdata { .. } | Prod::Empty => vec![SetExpr::Empty],
    }
}

/// Declares `field` on `elem` with `rules` (one per branch for a choice).
fn declare(aig: &mut Aig, elem: ElemIdx, field: &str, ty: FieldType, rules: Vec<SetExpr>) {
    let info = aig.elem_info_mut(elem);
    info.syn.push(FieldDecl {
        name: field.to_string(),
        ty,
    });
    let rule = |expr| SynRule {
        field: field.to_string(),
        rule: FieldRule::Set(expr),
    };
    match &mut info.prod {
        Prod::Choice { branches, .. } => {
            for (branch, expr) in branches.iter_mut().zip(rules) {
                branch.syn.push(rule(expr));
            }
        }
        _ => info.syn_rules.extend(rules.into_iter().map(rule)),
    }
}

/// Step 2: the existing field of `field`'s kind and arity whose rules equal
/// `rules` under `field ↦ G` on every type in scope other than the contexts
/// (a context too when it can appear below a context), if any.
fn shared_field(
    aig: &Aig,
    graph: &ElemGraph,
    contexts: &[ElemIdx],
    field: &str,
    ty: &FieldType,
    rules: &[(ElemIdx, Vec<SetExpr>)],
) -> Option<String> {
    let strictly_below: Vec<ElemIdx> = contexts
        .iter()
        .flat_map(|c| graph.children[c.index()].iter().copied())
        .collect();
    let nested = graph.below(&strictly_below);
    let checked: Vec<&(ElemIdx, Vec<SetExpr>)> = rules
        .iter()
        .filter(|(elem, _)| !contexts.contains(elem) || nested[elem.index()])
        .collect();
    let (first, _) = checked.first()?;
    let candidates = aig.elem_info(*first).syn.iter();
    candidates
        .filter(|g| same_kind(&g.ty, ty))
        .find(|g| {
            checked.iter().all(|(elem, f_rules)| {
                let info = aig.elem_info(*elem);
                let declared = info
                    .syn
                    .iter()
                    .any(|d| d.name == g.name && same_kind(&d.ty, ty));
                let g_rules = set_rules(&info.prod, &info.syn_rules, &g.name);
                declared
                    && g_rules.len() == f_rules.len()
                    && f_rules.iter().zip(&g_rules).all(|(f_rule, g_rule)| {
                        let g_rule = g_rule.unwrap_or(&SetExpr::Empty);
                        same_rule(aig, *elem, f_rule, field, g_rule, &g.name)
                    })
            })
        })
        .map(|g| g.name.clone())
}

/// Set with set and bag with bag, of equal arity.
fn same_kind(a: &FieldType, b: &FieldType) -> bool {
    match (a, b) {
        (FieldType::Set(x), FieldType::Set(y)) | (FieldType::Bag(x), FieldType::Bag(y)) => {
            x.len() == y.len()
        }
        _ => false,
    }
}

/// `field`'s set rules at a production (one per branch for a choice, where
/// a branch without one yields ∅ — `None`).
fn set_rules<'a>(
    prod: &'a Prod,
    syn_rules: &'a [SynRule],
    field: &str,
) -> Vec<Option<&'a SetExpr>> {
    let find = |rules: &'a [SynRule]| {
        rules
            .iter()
            .find(|r| r.field == field)
            .and_then(|r| match &r.rule {
                FieldRule::Set(expr) => Some(expr),
                _ => None,
            })
    };
    match prod {
        Prod::Choice { branches, .. } => branches.iter().map(|b| find(&b.syn)).collect(),
        _ => vec![find(syn_rules)],
    }
}

/// A union of one term, read as that term.
fn single(expr: &SetExpr) -> &SetExpr {
    match expr {
        SetExpr::Union(terms) if terms.len() == 1 => &terms[0],
        _ => expr,
    }
}

/// `f_rule` (reading children's `f`) equals `g_rule` (reading children's
/// `g`) at `elem`.
fn same_rule(
    aig: &Aig,
    elem: ElemIdx,
    f_rule: &SetExpr,
    f: &str,
    g_rule: &SetExpr,
    g: &str,
) -> bool {
    match (single(f_rule), single(g_rule)) {
        (SetExpr::Union(fs), SetExpr::Union(gs)) => {
            fs.len() == gs.len()
                && fs
                    .iter()
                    .zip(gs)
                    .all(|(a, b)| same_term(aig, elem, a, f, b, g))
        }
        (a, b) => same_term(aig, elem, a, f, b, g),
    }
}

fn same_term(aig: &Aig, elem: ElemIdx, a: &SetExpr, f: &str, b: &SetExpr, g: &str) -> bool {
    match (a, b) {
        (SetExpr::ChildSyn { item: i, field: x }, SetExpr::ChildSyn { item: j, field: y })
        | (SetExpr::Collect { item: i, field: x }, SetExpr::Collect { item: j, field: y }) => {
            i == j && x == f && y == g
        }
        // The collector's one singleton is a contributor's probe of its
        // value child, not declared yet: compare what it will copy.
        (SetExpr::Singleton(xs), SetExpr::Singleton(ys)) => match (&xs[..], &ys[..]) {
            ([ValueExpr::ChildSyn { item, .. }], [y]) => {
                let own = child_text(aig, elem, *item);
                own.is_some() && own == resolve_scalar(aig, elem, y)
            }
            _ => false,
        },
        (SetExpr::Empty, SetExpr::Empty) => true,
        _ => false,
    }
}

/// What a copy of the text of `elem`'s `item`-th child (a probe declared
/// there) resolves to at `elem`.
fn child_text(aig: &Aig, elem: ElemIdx, item: usize) -> Option<ResolvedScalar> {
    let Prod::Items(items) = &aig.elem_info(elem).prod else {
        return None;
    };
    let Prod::Pcdata { text } = &aig.elem_info(items.get(item)?.elem).prod else {
        return None;
    };
    resolve_child_copy(aig, elem, item, text)
}

/// Rewrites child references to `from` into references to `to`.
fn rename_refs(expr: SetExpr, from: &str, to: &str) -> SetExpr {
    match expr {
        SetExpr::ChildSyn { item, field } if field == from => SetExpr::ChildSyn {
            item,
            field: to.to_string(),
        },
        SetExpr::Collect { item, field } if field == from => SetExpr::Collect {
            item,
            field: to.to_string(),
        },
        SetExpr::Union(terms) => SetExpr::Union(
            terms
                .into_iter()
                .map(|t| rename_refs(t, from, to))
                .collect(),
        ),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{evaluate, evaluate_with, EvalOptions};
    use crate::paper::{mini_hospital_catalog, sigma0, SIGMA0_DSL};
    use crate::parser::parse_aig;
    use aig_relstore::{Catalog, Database, Table, TableSchema, Value};
    use std::collections::HashSet;

    /// `catalog` with DB3's billing rebuilt without a primary key (so
    /// duplicates are insertable): `drop_trid`'s row left out, `dup_trid`'s
    /// row inserted twice (the copy at price 999).
    fn rebilled(catalog: &Catalog, drop_trid: Option<&str>, dup_trid: Option<&str>) -> Catalog {
        let mut out = catalog.clone();
        let db3 = out.source_id("DB3").unwrap();
        let rows = out.source(db3).table("billing").unwrap().rows();
        let mut billing = Table::new(TableSchema::strings("billing", &["trId", "price"], &[]));
        for row in rows {
            let trid = row[0].to_text();
            if drop_trid == Some(trid.as_str()) {
                continue;
            }
            billing.insert(row.clone()).unwrap();
            if dup_trid == Some(trid.as_str()) {
                billing
                    .insert(vec![row[0].clone(), Value::str("999")])
                    .unwrap();
            }
        }
        let mut replaced = Database::new("DB3");
        replaced.add_table(billing).unwrap();
        *out.source_mut(db3) = replaced;
        out
    }

    fn broken_billing_catalog(drop_trid: &str, dup_trid: Option<&str>) -> Catalog {
        rebilled(&mini_hospital_catalog().unwrap(), Some(drop_trid), dup_trid)
    }

    /// Names of the synthesized fields `elem` declares.
    fn syn_names(aig: &Aig, elem: &str) -> Vec<String> {
        let info = aig.elem_info(aig.elem(elem).unwrap());
        info.syn.iter().map(|f| f.name.clone()).collect()
    }

    /// The compiled guards agree with the whole-tree oracle on `date`: both
    /// pass, or the guard's label is one the oracle reports. Returns the
    /// label of a rejection.
    fn guard_matches_oracle(
        plain: &Aig,
        compiled: &Aig,
        catalog: &Catalog,
        date: &str,
    ) -> Option<String> {
        let args = [("date", Value::str(date))];
        let tree = evaluate(plain, catalog, &args).unwrap().tree;
        let violations = plain.constraints.check(&tree);
        match evaluate(compiled, catalog, &args) {
            Ok(_) => {
                assert!(
                    violations.is_empty(),
                    "{date}: guards passed, oracle found {violations:?}"
                );
                None
            }
            Err(AigError::ConstraintViolation { constraint, .. }) => {
                assert!(
                    violations.iter().any(|v| v.constraint == constraint),
                    "{date}: guard {constraint} aborted, oracle found {violations:?}"
                );
                Some(constraint)
            }
            Err(other) => panic!("{date}: unexpected error {other}"),
        }
    }

    #[test]
    fn compiled_sigma0_passes_on_consistent_data() {
        let aig = compile_constraints(&sigma0().unwrap()).unwrap();
        let catalog = mini_hospital_catalog().unwrap();
        let result = evaluate(&aig, &catalog, &[("date", Value::str("d1"))]).unwrap();
        assert!(aig.constraints.satisfied(&result.tree));
        assert!(result.stats.guard_checks > 0);
        // The compiled document equals the uncompiled one (guards don't
        // change the output).
        let plain = evaluate(&sigma0().unwrap(), &catalog, &[("date", Value::str("d1"))]).unwrap();
        assert_eq!(result.tree, plain.tree);
    }

    #[test]
    fn key_violation_aborts_evaluation() {
        // Duplicate billing row for t1 -> two items with the same trId under
        // one patient -> key violated.
        let aig = compile_constraints(&sigma0().unwrap()).unwrap();
        let catalog = broken_billing_catalog("none", Some("t1"));
        let err = evaluate(&aig, &catalog, &[("date", Value::str("d1"))]).unwrap_err();
        match err {
            AigError::ConstraintViolation {
                constraint, value, ..
            } => {
                assert!(constraint.contains("item.trId -> item"), "{constraint}");
                assert!(value.contains("t1"));
            }
            other => panic!("expected a constraint violation, got {other}"),
        }
    }

    #[test]
    fn inclusion_violation_aborts_evaluation() {
        // Missing billing row for t5 -> treatment t5 has no item.
        let aig = compile_constraints(&sigma0().unwrap()).unwrap();
        let catalog = broken_billing_catalog("t5", None);
        let err = evaluate(&aig, &catalog, &[("date", Value::str("d1"))]).unwrap_err();
        match err {
            AigError::ConstraintViolation {
                constraint, value, ..
            } => {
                assert!(constraint.contains("treatment.trId"), "{constraint}");
                assert!(value.contains("t5"));
            }
            other => panic!("expected a constraint violation, got {other}"),
        }
    }

    #[test]
    fn guard_checking_can_be_disabled() {
        let aig = compile_constraints(&sigma0().unwrap()).unwrap();
        let catalog = broken_billing_catalog("t5", None);
        let opts = EvalOptions {
            check_guards: false,
            ..EvalOptions::default()
        };
        // Without guards evaluation completes; the oracle still sees the
        // violation.
        let result = evaluate_with(&aig, &catalog, &[("date", Value::str("d1"))], &opts).unwrap();
        assert!(!aig.constraints.satisfied(&result.tree));
    }

    #[test]
    fn guards_agree_with_oracle_across_dates() {
        // Compiled guards and the whole-tree oracle must agree on every
        // date for both clean and broken data, with the same label.
        let plain = sigma0().unwrap();
        let compiled = compile_constraints(&plain).unwrap();
        for catalog in [
            mini_hospital_catalog().unwrap(),
            broken_billing_catalog("t5", None),
            broken_billing_catalog("none", Some("t4")),
        ] {
            for date in ["d1", "d2", "d9"] {
                guard_matches_oracle(&plain, &compiled, &catalog, date);
            }
        }
        // Seeded generated catalogs with a missing and a duplicated billing
        // row, each for the most visited treatment so both constraints do
        // break somewhere.
        let mut rejected: HashSet<String> = HashSet::new();
        for seed in [3, 7, 11] {
            let data = aig_datagen::HospitalConfig::tiny(seed).generate().unwrap();
            let db1 = data.catalog.source_id("DB1").unwrap();
            let visits = data.catalog.source(db1).table("visitInfo").unwrap().rows();
            let mut counts: Vec<(usize, String)> = Vec::new();
            for row in visits {
                let trid = row[1].to_text();
                match counts.iter_mut().find(|(_, t)| *t == trid) {
                    Some((n, _)) => *n += 1,
                    None => counts.push((1, trid)),
                }
            }
            let (_, hot) = counts.iter().max().unwrap();
            for catalog in [
                data.catalog.clone(),
                rebilled(&data.catalog, Some(hot), None),
                rebilled(&data.catalog, None, Some(hot)),
            ] {
                for date in &data.dates {
                    rejected.extend(guard_matches_oracle(&plain, &compiled, &catalog, date));
                }
            }
        }
        assert_eq!(
            rejected.len(),
            2,
            "both constraints must fire: {rejected:?}"
        );
    }

    #[test]
    fn scope_is_limited_to_context_descendants() {
        let aig = compile_constraints(&sigma0().unwrap()).unwrap();
        // `report` is above the patient context: no collector fields there.
        let report = aig.elem("report").unwrap();
        assert!(aig.elem_info(report).syn.is_empty());
        // `item` (inside the context) carries collector fields.
        let item = aig.elem("item").unwrap();
        assert!(!aig.elem_info(item).syn.is_empty());
        // The context holds the guards.
        let patient = aig.elem("patient").unwrap();
        assert_eq!(aig.elem_info(patient).guards.len(), 2);
    }

    #[test]
    fn collectors_only_where_a_contributor_can_appear() {
        let aig = compile_constraints(&sigma0().unwrap()).unwrap();
        let pcdata: Vec<String> = aig
            .elements()
            .filter(|&e| matches!(aig.elem_info(e).prod, Prod::Pcdata { .. }))
            .map(|e| aig.elem_name(e).to_string())
            .collect();
        assert_eq!(pcdata.len(), 5);
        for elem in ["treatments", "treatment", "procedure"]
            .iter()
            .copied()
            .chain(pcdata.iter().map(String::as_str))
        {
            let syn = syn_names(&aig, elem);
            for field in ["__c0", "__c1_sup"] {
                assert!(
                    !syn.iter().any(|f| f == field),
                    "`{elem}` declares `{field}`: {syn:?}"
                );
            }
        }
        for elem in ["bill", "item"] {
            assert!(
                !syn_names(&aig, elem).iter().any(|f| f == "__c1_sub"),
                "{elem}"
            );
            assert!(syn_names(&aig, elem).iter().any(|f| f == "__c0"), "{elem}");
            assert!(
                syn_names(&aig, elem).iter().any(|f| f == "__c1_sup"),
                "{elem}"
            );
        }
    }

    #[test]
    fn inclusion_lhs_collector_is_the_trids_set() {
        let aig = compile_constraints(&sigma0().unwrap()).unwrap();
        let holders: Vec<&str> = aig
            .elements()
            .filter(|&e| aig.elem_info(e).syn.iter().any(|f| f.name == "__c1_sub"))
            .map(|e| aig.elem_name(e))
            .collect();
        assert_eq!(holders, ["patient"]);
        let patient = aig.elem_info(aig.elem("patient").unwrap());
        let rule = patient
            .syn_rules
            .iter()
            .find(|r| r.field == "__c1_sub")
            .unwrap();
        // Item 2 of patient is `treatments`.
        assert_eq!(
            rule.rule,
            FieldRule::Set(SetExpr::ChildSyn {
                item: 2,
                field: "trIdS".into()
            })
        );
        // The probe nothing would read is never declared; the others are.
        assert_eq!(syn_names(&aig, "trId"), ["val", "__c0_val", "__c1_sup_val"]);
        // The bag of the key is never a set: `__c1_sup` has `__c0`'s rules
        // but `__c0` is a bag, so it is declared in full.
        assert!(syn_names(&aig, "item").iter().any(|f| f == "__c1_sup"));
    }

    #[test]
    fn key_bag_is_not_shared_with_a_user_set() {
        // A key on treatments: its bag has exactly the rules of the user
        // set `trIdS`, which would hide the duplicate.
        let src = SIGMA0_DSL.replace(
            "constraint patient(item.trId -> item);",
            "constraint patient(item.trId -> item);\n  constraint patient(treatment.trId -> treatment);",
        );
        let plain = parse_aig(&src).unwrap();
        let aig = compile_constraints(&plain).unwrap();
        for elem in ["treatments", "treatment", "procedure"] {
            // Constraint #1, between σ0's two.
            assert!(syn_names(&aig, elem).iter().any(|f| f == "__c1"), "{elem}");
        }
        // Alice's procedure hierarchy reaches t5 twice: t1 -> t4 -> t5 and
        // t1 -> t5.
        let mut catalog = mini_hospital_catalog().unwrap();
        let db4 = catalog.source_id("DB4").unwrap();
        let procedure = catalog.source_mut(db4).table_mut("procedure").unwrap();
        procedure
            .insert(vec![Value::str("t1"), Value::str("t5")])
            .unwrap();
        let label = guard_matches_oracle(&plain, &aig, &catalog, "d1");
        assert_eq!(
            label.as_deref(),
            Some("patient(treatment.trId -> treatment)")
        );
    }

    #[test]
    fn collector_differing_at_one_type_is_not_shared() {
        // `trIdS` at treatment carries an extra term, so `__c1_sub` cannot
        // be read off it and keeps its own rules everywhere.
        let src = SIGMA0_DSL.replace(
            "syn trIdS = union(syn(procedure).trIdS, { syn(trId).val });",
            "syn trIdS = union(syn(procedure).trIdS, { syn(trId).val }, { syn(tname).val });",
        );
        let plain = parse_aig(&src).unwrap();
        let aig = compile_constraints(&plain).unwrap();
        for elem in ["patient", "treatments", "treatment", "procedure"] {
            assert!(
                syn_names(&aig, elem).iter().any(|f| f == "__c1_sub"),
                "{elem}"
            );
        }
        assert!(syn_names(&aig, "trId").iter().any(|f| f == "__c1_sub_val"));
        let catalog = broken_billing_catalog("t5", None);
        for date in ["d1", "d2"] {
            guard_matches_oracle(&plain, &aig, &catalog, date);
        }
    }

    /// A folder tree: `dir` and `sub` form a cycle, and files hang below
    /// it, under a key on file ids across the whole tree.
    const FOLDERS_DSL: &str = r#"
    aig folders {
      dtd {
        <!ELEMENT root (dir*)>
        <!ELEMENT dir (name, sub, files)>
        <!ELEMENT sub (dir*)>
        <!ELEMENT files (file*)>
        <!ELEMENT file (fid)>
        <!ELEMENT name (#PCDATA)>
        <!ELEMENT fid (#PCDATA)>
      }
      elem root {
        inh(top);
        child dir* from sql {
          select d.id as id, d.name as name from FS:dirs d where d.parent = $top
        };
      }
      elem dir {
        inh(id, name);
        child name { val = $name; }
        child sub { id = $id; }
        child files { id = $id; }
      }
      elem sub {
        inh(id);
        child dir* from sql {
          select d.id as id, d.name as name from FS:dirs d where d.parent = $id
        };
      }
      elem files {
        inh(id);
        child file* from sql { select f.fid as fid from FS:files f where f.dir = $id };
      }
      elem file {
        inh(fid);
        child fid { val = $fid; }
      }
      constraint root(file.fid -> file);
    }
    "#;

    fn folders_catalog(files: &[(&str, &str)]) -> Catalog {
        let mut fs = Database::new("FS");
        let mut dirs = Table::new(TableSchema::strings(
            "dirs",
            &["id", "name", "parent"],
            &["id"],
        ));
        for (id, parent) in [("d1", "top"), ("d2", "d1"), ("d3", "d2")] {
            dirs.insert(vec![Value::str(id), Value::str(id), Value::str(parent)])
                .unwrap();
        }
        fs.add_table(dirs).unwrap();
        let mut table = Table::new(TableSchema::strings(
            "files",
            &["fid", "dir"],
            &["fid", "dir"],
        ));
        for (fid, dir) in files {
            table
                .insert(vec![Value::str(fid), Value::str(dir)])
                .unwrap();
        }
        fs.add_table(table).unwrap();
        let mut catalog = Catalog::new();
        catalog.add_source(fs).unwrap();
        catalog
    }

    #[test]
    fn contributor_below_a_cycle_keeps_the_whole_cycle() {
        let plain = parse_aig(FOLDERS_DSL).unwrap();
        let aig = compile_constraints(&plain).unwrap();
        for elem in ["root", "dir", "sub", "files", "file"] {
            assert!(syn_names(&aig, elem).iter().any(|f| f == "__c0"), "{elem}");
        }
        for elem in ["name", "fid"] {
            assert!(!syn_names(&aig, elem).iter().any(|f| f == "__c0"), "{elem}");
        }
        let args = [("top", Value::str("top"))];
        let clean = folders_catalog(&[("f1", "d1"), ("f2", "d3")]);
        let guarded = evaluate(&aig, &clean, &args).unwrap();
        assert_eq!(guarded.tree, evaluate(&plain, &clean, &args).unwrap().tree);
        // f1 again two levels down the recursion.
        let dup = folders_catalog(&[("f1", "d1"), ("f2", "d3"), ("f1", "d3")]);
        match evaluate(&aig, &dup, &args).unwrap_err() {
            AigError::ConstraintViolation { value, .. } => assert!(value.contains("f1")),
            other => panic!("expected a constraint violation, got {other}"),
        }
    }

    #[test]
    fn choice_branch_out_of_scope_collects_nothing() {
        let plain = parse_aig(
            r#"
            aig pay {
              dtd {
                <!ELEMENT orders (order*)>
                <!ELEMENT order (oid, payment)>
                <!ELEMENT payment (card | invoice)>
                <!ELEMENT card (cno)>
                <!ELEMENT invoice (ino)>
                <!ELEMENT oid (#PCDATA)>
                <!ELEMENT cno (#PCDATA)>
                <!ELEMENT ino (#PCDATA)>
              }
              elem orders {
                inh(day);
                child order* from sql {
                  select o.id as oid, o.card as cno from OMS:orders o where o.day = $day
                };
              }
              elem order {
                inh(oid, cno);
                child oid { val = $oid; }
                child payment { oid = $oid; cno = $cno; }
              }
              elem payment {
                inh(oid, cno);
                case sql {
                  select distinct p.kind as pick from OMS:payments p where p.oid = $oid
                } {
                  1 => card { cno = $cno; }
                  2 => invoice { ino = $oid; }
                }
              }
              elem card {
                inh(cno);
                child cno { val = $cno; }
              }
              elem invoice {
                inh(ino);
                child ino { val = $ino; }
              }
              constraint orders(card.cno -> card);
            }
            "#,
        )
        .unwrap();
        let aig = compile_constraints(&plain).unwrap();
        assert!(!syn_names(&aig, "invoice").iter().any(|f| f == "__c0"));
        let Prod::Choice { branches, .. } = &aig.elem_info(aig.elem("payment").unwrap()).prod
        else {
            panic!("payment is a choice");
        };
        let rules: Vec<&FieldRule> = branches.iter().map(|b| &b.syn[0].rule).collect();
        assert_eq!(
            rules,
            [
                &FieldRule::Set(SetExpr::ChildSyn {
                    item: 0,
                    field: "__c0".into()
                }),
                &FieldRule::Set(SetExpr::Empty)
            ]
        );
        // o1 and o2 carry the same card number; it counts only where the
        // order is paid by card.
        let catalog = |o2_kind: &str| {
            let mut oms = Database::new("OMS");
            let mut orders = Table::new(TableSchema::strings(
                "orders",
                &["id", "card", "day"],
                &["id"],
            ));
            let mut payments =
                Table::new(TableSchema::strings("payments", &["oid", "kind"], &["oid"]));
            for (id, kind) in [("o1", "1"), ("o2", o2_kind)] {
                orders
                    .insert(vec![Value::str(id), Value::str("k1"), Value::str("mon")])
                    .unwrap();
                payments
                    .insert(vec![Value::str(id), Value::str(kind)])
                    .unwrap();
            }
            oms.add_table(orders).unwrap();
            oms.add_table(payments).unwrap();
            let mut catalog = Catalog::new();
            catalog.add_source(oms).unwrap();
            catalog
        };
        let args = [("day", Value::str("mon"))];
        let invoiced = evaluate(&aig, &catalog("2"), &args).unwrap();
        assert!(plain.constraints.satisfied(&invoiced.tree));
        assert!(matches!(
            evaluate(&aig, &catalog("1"), &args),
            Err(AigError::ConstraintViolation { .. })
        ));
    }

    #[test]
    fn unknown_constraint_element_rejected() {
        let mut aig = sigma0().unwrap();
        aig.constraints
            .constraints
            .push(Constraint::parse("patient(ghost.x -> ghost)").unwrap());
        assert!(matches!(compile_constraints(&aig), Err(AigError::Spec(_))));
    }

    #[test]
    fn unhostable_constraints_are_rejected_everywhere() {
        // Each parsed, evaluated to a document and passed the oracle before
        // `finalize` checked Σ; only the mediator's compile rejected it.
        for (constraint, unknown) in [
            ("patient(q.val -> q)", "q"),
            ("patient(pname.val -> pname)", "val"),
        ] {
            let message = format!("constraint references unknown element type `{unknown}`");
            let src = SIGMA0_DSL.replace(
                "constraint patient(item.trId -> item);",
                &format!("constraint patient(item.trId -> item);\n  constraint {constraint};"),
            );
            match parse_aig(&src) {
                Err(AigError::Spec(m)) => assert_eq!(m, message, "{constraint}"),
                other => panic!("{constraint}: parse_aig gave {other:?}"),
            }
            let mut edited = sigma0().unwrap();
            edited
                .constraints
                .constraints
                .push(Constraint::parse(constraint).unwrap());
            let catalog = mini_hospital_catalog().unwrap();
            let args = [("date", Value::str("d1"))];
            for err in [
                evaluate(&edited, &catalog, &args).map(|_| ()),
                compile_constraints(&edited).map(|_| ()),
                edited.clone().finalize(),
            ] {
                match err {
                    Err(AigError::Spec(m)) => assert_eq!(m, message, "{constraint}"),
                    other => panic!("{constraint}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn constraint_hosting_checks_keep_their_messages() {
        for (constraint, message) in [
            (
                "item(treatment.trId -> treatment)",
                Some(
                    "constraint item(treatment.trId -> treatment): `treatment` cannot \
                     appear inside `item` subtrees",
                ),
            ),
            ("patient(item.price <= treatment.tname)", None),
            (
                "patient(treatment.procedure -> treatment)",
                Some("constraint field `procedure` must be a PCDATA element type"),
            ),
            (
                "patient(bill.trId -> bill)",
                Some(
                    "constraint patient(bill.trId -> bill): element `bill` should \
                     contribute the value of its `trId` subelement but has no such \
                     (non-starred) child",
                ),
            ),
        ] {
            let mut aig = sigma0().unwrap();
            aig.constraints
                .constraints
                .push(Constraint::parse(constraint).unwrap());
            match (aig.finalize(), message) {
                (Ok(()), None) => {}
                (Err(AigError::Spec(m)), Some(message)) => assert_eq!(m, message),
                (other, _) => panic!("{constraint}: {other:?}"),
            }
        }
    }
}
