//! Conceptual evaluation of AIGs (paper §3.2).
//!
//! Evaluation is depth-first, "directed by the DTD and controlled by the
//! dependency relation": at each node the inherited attribute is computed
//! first, then the subtree (children evaluated in the production's
//! topological order, emitted in document order), and finally the
//! synthesized attribute. Production choice and tree expansion are
//! data-driven — queries on the underlying sources decide both — and
//! compiled-constraint guards are checked as synthesized attributes become
//! available, aborting evaluation on the first violation (§3.3).
//!
//! This evaluator is the semantic reference: the optimized set-oriented
//! evaluation in `aig-mediator` must produce an identical document.

use crate::attrs::{field_index, AttrValue, FieldType, FieldValue};
use crate::error::AigError;
use crate::spec::{
    Aig, ElemIdx, FieldRule, Generator, GuardKind, ParamSource, Prod, QueryRule, SetExpr, SynRule,
    ValueExpr,
};
use aig_relstore::{Catalog, Relation, Sym, Value};
use aig_sql::{execute, ParamValue, Params};
use aig_xml::tree::CopyStep;
use aig_xml::{NodeId, XmlTree};
use std::collections::{HashMap, HashSet};

/// Options controlling evaluation.
#[derive(Debug, Clone)]
pub struct EvalOptions {
    /// Maximum element depth before evaluation fails — a safeguard against
    /// non-terminating recursion over cyclic data.
    pub max_depth: usize,
    /// Whether compiled-constraint guards are enforced (disable to measure
    /// their overhead).
    pub check_guards: bool,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            max_depth: 4096,
            check_guards: true,
        }
    }
}

/// Counters reported by an evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Element + text nodes created (before internal states are stripped).
    pub nodes: usize,
    /// SQL queries executed (per tuple in the conceptual strategy).
    pub queries: usize,
    /// Guard conditions evaluated.
    pub guard_checks: usize,
}

/// The result of evaluating an AIG.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// The final document, with internal computation states stripped.
    pub tree: XmlTree,
    pub stats: EvalStats,
}

/// Evaluates `aig` over the databases in `catalog` with the given values for
/// the AIG's parameters (the root's inherited attribute), producing an XML
/// document that conforms to the AIG's DTD.
pub fn evaluate(
    aig: &Aig,
    catalog: &Catalog,
    args: &[(&str, Value)],
) -> Result<Evaluation, AigError> {
    evaluate_with(aig, catalog, args, &EvalOptions::default())
}

/// [`evaluate`] with explicit [`EvalOptions`].
pub fn evaluate_with(
    aig: &Aig,
    catalog: &Catalog,
    args: &[(&str, Value)],
    opts: &EvalOptions,
) -> Result<Evaluation, AigError> {
    // `finalize` has checked Σ unless `constraints` was edited since; an
    // unhostable constraint is rejected here as the mediator rejects it.
    crate::compile::check_constraints(aig)?;
    // Bind the root parameters.
    let root_info = aig.elem_info(aig.root);
    let mut fields = Vec::with_capacity(root_info.inh.len());
    for decl in &root_info.inh {
        let value = args
            .iter()
            .find(|(name, _)| *name == decl.name)
            .map(|(_, v)| v.clone())
            .ok_or_else(|| {
                AigError::Spec(format!("missing value for AIG parameter `{}`", decl.name))
            })?;
        fields.push(FieldValue::Scalar(value));
    }
    for (name, _) in args {
        if field_index(&root_info.inh, name).is_none() {
            return Err(AigError::Spec(format!("unknown AIG parameter `{name}`")));
        }
    }
    let inh = AttrValue { fields };

    let mut evaluator = Evaluator {
        aig,
        catalog,
        opts,
        stats: EvalStats::default(),
        tree: XmlTree::new(aig.elem_info(aig.root).tag().to_string()),
        orders: HashMap::new(),
        choice_branch: None,
    };
    evaluator.stats.nodes += 1;
    let root_node = evaluator.tree.root();
    evaluator.eval_elem(aig.root, &inh, root_node, 0)?;
    // One copy emits every child list in document order and splices the
    // internal computation states out.
    let Evaluator {
        tree,
        orders,
        stats,
        ..
    } = evaluator;
    let tree = tree.copy(
        |node, children| {
            if let Some(order) = orders.get(&node) {
                children.copy_from_slice(order);
            }
        },
        |node| match tree.tag(node) {
            Some(tag) if aig.is_internal_name(tag) => CopyStep::Splice,
            _ => CopyStep::Keep,
        },
    );
    Ok(Evaluation { tree, stats })
}

/// The synthesized attributes of one production child: one value for plain
/// children, a vector (in document order) for starred children.
enum ChildSyn {
    Single(AttrValue),
    Multi(Vec<AttrValue>),
}

struct Evaluator<'a> {
    aig: &'a Aig,
    catalog: &'a Catalog,
    opts: &'a EvalOptions,
    stats: EvalStats,
    /// The document as built: each element's children in evaluation order.
    tree: XmlTree,
    /// The document order of each child list that differs from it.
    orders: HashMap<NodeId, Vec<NodeId>>,
    /// The selected branch element while evaluating a choice production's
    /// per-branch synthesized rules (see `child_info`).
    choice_branch: Option<ElemIdx>,
}

impl Evaluator<'_> {
    /// Evaluates the element `idx` at XML node `node` (already created) with
    /// inherited attribute `inh`; returns its synthesized attribute.
    fn eval_elem(
        &mut self,
        idx: ElemIdx,
        inh: &AttrValue,
        node: NodeId,
        depth: usize,
    ) -> Result<AttrValue, AigError> {
        if depth > self.opts.max_depth {
            return Err(AigError::DepthExceeded(self.opts.max_depth));
        }
        let info = self.aig.elem_info(idx);
        let syn = match &info.prod {
            Prod::Pcdata { text } => {
                let value = self.eval_value(idx, text, inh, &[])?;
                self.tree.add_text(node, value.to_text());
                self.stats.nodes += 1;
                self.eval_syn_rules(idx, &info.syn_rules, inh, &[])?
            }
            Prod::Empty => self.eval_syn_rules(idx, &info.syn_rules, inh, &[])?,
            Prod::Items(items) => {
                let mut child_syns: Vec<Option<ChildSyn>> =
                    (0..items.len()).map(|_| None).collect();
                // Node ids per item, in document order within each item.
                let mut item_nodes: Vec<Vec<NodeId>> = vec![Vec::new(); items.len()];
                for &item_pos in &info.topo {
                    let item = &items[item_pos];
                    let child_idx = item.elem;
                    let child_info = self.aig.elem_info(child_idx);
                    if item.star {
                        // Evaluate the generator once, then one child per tuple.
                        let rel = match item.generator.as_ref().expect("validated") {
                            Generator::Query(qr) => self.run_query(idx, qr, inh, &child_syns)?,
                            // No dedup here: iterating a set-typed field is
                            // already duplicate-free, and bag-typed state
                            // fields (from query decomposition) must keep
                            // their multiplicity.
                            Generator::Set(expr) => self.eval_set(idx, expr, inh, &child_syns)?,
                        };
                        // Broadcast assignments are constant across instances.
                        let broadcast: Vec<(usize, FieldValue)> = item
                            .assigns
                            .iter()
                            .map(|(field, rule)| {
                                let target = field_index(&child_info.inh, field)
                                    .expect("validated assignment target");
                                let v = self.eval_field_rule(
                                    idx,
                                    rule,
                                    &child_info.inh[target].ty,
                                    inh,
                                    &child_syns,
                                )?;
                                Ok((target, v))
                            })
                            .collect::<Result<_, AigError>>()?;
                        // Column positions for the generated fields.
                        let col_map: Vec<(usize, usize)> = child_info
                            .inh
                            .iter()
                            .enumerate()
                            .filter(|(pos, _)| !broadcast.iter().any(|(t, _)| t == pos))
                            .map(|(pos, decl)| {
                                let col = rel.col(&decl.name).map_err(AigError::Store)?;
                                Ok((pos, col))
                            })
                            .collect::<Result<_, AigError>>()?;
                        let mut syns = Vec::with_capacity(rel.len());
                        for r in 0..rel.len() {
                            let mut fields: Vec<FieldValue> = child_info
                                .inh
                                .iter()
                                .map(|d| FieldValue::default_for(&d.ty))
                                .collect();
                            for (pos, col) in &col_map {
                                fields[*pos] = FieldValue::Scalar(rel.cell(r, *col).clone());
                            }
                            for (pos, v) in &broadcast {
                                fields[*pos] = v.clone();
                            }
                            let child_inh = AttrValue { fields };
                            let child_node =
                                self.tree.add_element(node, child_info.tag().to_string());
                            self.stats.nodes += 1;
                            item_nodes[item_pos].push(child_node);
                            let child_syn =
                                self.eval_elem(child_idx, &child_inh, child_node, depth + 1)?;
                            syns.push(child_syn);
                        }
                        child_syns[item_pos] = Some(ChildSyn::Multi(syns));
                    } else {
                        let mut fields: Vec<FieldValue> = child_info
                            .inh
                            .iter()
                            .map(|d| FieldValue::default_for(&d.ty))
                            .collect();
                        for (field, rule) in &item.assigns {
                            let target = field_index(&child_info.inh, field)
                                .expect("validated assignment target");
                            fields[target] = self.eval_field_rule(
                                idx,
                                rule,
                                &child_info.inh[target].ty,
                                inh,
                                &child_syns,
                            )?;
                        }
                        let child_inh = AttrValue { fields };
                        let child_node = self.tree.add_element(node, child_info.tag().to_string());
                        self.stats.nodes += 1;
                        item_nodes[item_pos].push(child_node);
                        let child_syn =
                            self.eval_elem(child_idx, &child_inh, child_node, depth + 1)?;
                        child_syns[item_pos] = Some(ChildSyn::Single(child_syn));
                    }
                }
                // Children were created in dependency order; the final copy
                // emits them in document order.
                let order: Vec<NodeId> = item_nodes.into_iter().flatten().collect();
                if !order.is_sorted() {
                    self.orders.insert(node, order);
                }
                self.eval_syn_rules(idx, &info.syn_rules, inh, &child_syns)?
            }
            Prod::Choice { cond, branches } => {
                let rel = self.run_query(idx, cond, inh, &[])?;
                let pick =
                    condition_value(&rel).map_err(|detail| AigError::BadConditionResult {
                        elem: info.name.clone(),
                        detail,
                    })?;
                if pick < 1 || pick > branches.len() as i64 {
                    return Err(AigError::BadConditionResult {
                        elem: info.name.clone(),
                        detail: format!("value {pick} outside [1, {}]", branches.len()),
                    });
                }
                let branch = &branches[(pick - 1) as usize];
                let child_info = self.aig.elem_info(branch.elem);
                let mut fields: Vec<FieldValue> = child_info
                    .inh
                    .iter()
                    .map(|d| FieldValue::default_for(&d.ty))
                    .collect();
                for (field, rule) in &branch.assigns {
                    let target =
                        field_index(&child_info.inh, field).expect("validated assignment target");
                    fields[target] =
                        self.eval_field_rule(idx, rule, &child_info.inh[target].ty, inh, &[])?;
                }
                let child_inh = AttrValue { fields };
                let child_node = self.tree.add_element(node, child_info.tag().to_string());
                self.stats.nodes += 1;
                let child_syn = self.eval_elem(branch.elem, &child_inh, child_node, depth + 1)?;
                let child_syns = [Some(ChildSyn::Single(child_syn))];
                // Branch syn rules resolve `item 0` against the *selected*
                // branch child; record it for `child_info`.
                let saved = self.choice_branch.replace(branch.elem);
                let result = self.eval_syn_rules_slice(idx, &branch.syn, inh, &child_syns);
                self.choice_branch = saved;
                result?
            }
        };
        // Guards: abort on the first violated constraint (§3.3).
        if self.opts.check_guards {
            for guard in &info.guards {
                self.stats.guard_checks += 1;
                self.check_guard(idx, guard, &syn, node)?;
            }
        }
        Ok(syn)
    }

    fn check_guard(
        &self,
        idx: ElemIdx,
        guard: &crate::spec::Guard,
        syn: &AttrValue,
        node: NodeId,
    ) -> Result<(), AigError> {
        let info = self.aig.elem_info(idx);
        match &guard.kind {
            GuardKind::Unique { field } => {
                // Interned cells make row identity a symbol-tuple compare.
                let rel = syn.rel(&info.syn, field)?;
                let mut seen: HashSet<Vec<Sym>> = HashSet::with_capacity(rel.len());
                for r in 0..rel.len() {
                    let key: Vec<Sym> = (0..rel.arity()).map(|c| rel.sym(r, c)).collect();
                    if !seen.insert(key) {
                        return Err(AigError::ConstraintViolation {
                            constraint: guard.label.clone(),
                            context: self.tree.path(node),
                            value: format!("{:?}", rel.row(r)),
                        });
                    }
                }
                Ok(())
            }
            GuardKind::Subset { sub, sup } => {
                let sub_rel = syn.rel(&info.syn, sub)?;
                let sup_rel = syn.rel(&info.syn, sup)?;
                let sup_set: HashSet<Vec<Sym>> = (0..sup_rel.len())
                    .map(|r| (0..sup_rel.arity()).map(|c| sup_rel.sym(r, c)).collect())
                    .collect();
                for r in 0..sub_rel.len() {
                    let key: Vec<Sym> = (0..sub_rel.arity()).map(|c| sub_rel.sym(r, c)).collect();
                    if !sup_set.contains(&key) {
                        return Err(AigError::ConstraintViolation {
                            constraint: guard.label.clone(),
                            context: self.tree.path(node),
                            value: format!("{:?}", sub_rel.row(r)),
                        });
                    }
                }
                Ok(())
            }
        }
    }

    fn eval_syn_rules(
        &mut self,
        idx: ElemIdx,
        rules: &[SynRule],
        inh: &AttrValue,
        child_syns: &[Option<ChildSyn>],
    ) -> Result<AttrValue, AigError> {
        self.eval_syn_rules_slice(idx, rules, inh, child_syns)
    }

    fn eval_syn_rules_slice(
        &mut self,
        idx: ElemIdx,
        rules: &[SynRule],
        inh: &AttrValue,
        child_syns: &[Option<ChildSyn>],
    ) -> Result<AttrValue, AigError> {
        let info = self.aig.elem_info(idx);
        let mut out = AttrValue::defaults(&info.syn);
        for rule in rules {
            let target = field_index(&info.syn, &rule.field).expect("validated syn target");
            out.fields[target] =
                self.eval_field_rule(idx, &rule.rule, &info.syn[target].ty, inh, child_syns)?;
        }
        Ok(out)
    }

    /// Evaluates a field rule, coercing the result to the target type (sets
    /// are deduplicated, bags keep duplicates, columns renamed to the
    /// target's components).
    fn eval_field_rule(
        &mut self,
        idx: ElemIdx,
        rule: &FieldRule,
        target: &FieldType,
        inh: &AttrValue,
        child_syns: &[Option<ChildSyn>],
    ) -> Result<FieldValue, AigError> {
        match rule {
            FieldRule::Scalar(expr) => Ok(FieldValue::Scalar(
                self.eval_value(idx, expr, inh, child_syns)?,
            )),
            FieldRule::Set(expr) => {
                let rel = self.eval_set(idx, expr, inh, child_syns)?;
                Ok(self.coerce_rel(rel, target))
            }
            FieldRule::Query(qr) => {
                let rel = self.run_query(idx, qr, inh, child_syns)?;
                Ok(self.coerce_rel(rel, target))
            }
        }
    }

    fn coerce_rel(&self, rel: Relation, target: &FieldType) -> FieldValue {
        let components = target.components().expect("validated relational target");
        // The polymorphic empty set adopts the target's arity.
        let rel = if rel.arity() != components.len() && rel.is_empty() {
            Relation::empty(components.to_vec())
        } else {
            rel
        };
        let renamed = rel.with_columns(components.to_vec());
        match target {
            FieldType::Set(_) => FieldValue::Rel(renamed.distinct()),
            FieldType::Bag(_) => FieldValue::Rel(renamed),
            FieldType::Scalar => unreachable!("validated relational target"),
        }
    }

    fn eval_value(
        &self,
        idx: ElemIdx,
        expr: &ValueExpr,
        inh: &AttrValue,
        child_syns: &[Option<ChildSyn>],
    ) -> Result<Value, AigError> {
        let info = self.aig.elem_info(idx);
        match expr {
            ValueExpr::Const(v) => Ok(v.clone()),
            ValueExpr::InhField(name) => Ok(inh.scalar(&info.inh, name)?.clone()),
            ValueExpr::ChildSyn { item, field } => {
                let syn = self.child_single(idx, *item, child_syns)?;
                let child_info = self.child_info(idx, *item);
                Ok(syn.scalar(&child_info.syn, field)?.clone())
            }
        }
    }

    fn eval_set(
        &mut self,
        idx: ElemIdx,
        expr: &SetExpr,
        inh: &AttrValue,
        child_syns: &[Option<ChildSyn>],
    ) -> Result<Relation, AigError> {
        let info = self.aig.elem_info(idx);
        match expr {
            SetExpr::Empty => Ok(Relation::empty(Vec::new())),
            SetExpr::InhField(name) => Ok(inh.rel(&info.inh, name)?.clone()),
            SetExpr::ChildSyn { item, field } => {
                let syn = self.child_single(idx, *item, child_syns)?;
                let child_info = self.child_info(idx, *item);
                Ok(syn.rel(&child_info.syn, field)?.clone())
            }
            SetExpr::Collect { item, field } => {
                let child_info = self.child_info(idx, *item);
                let syns = match child_syns.get(*item) {
                    Some(Some(ChildSyn::Multi(syns))) => syns,
                    _ => {
                        return Err(AigError::Spec(format!(
                            "collect over unevaluated or non-starred item {item}"
                        )))
                    }
                };
                let fi = field_index(&child_info.syn, field)
                    .ok_or_else(|| AigError::Spec(format!("unknown field `{field}`")))?;
                match &child_info.syn[fi].ty {
                    FieldType::Scalar => {
                        let mut out = Relation::empty(vec![field.clone()]);
                        for syn in syns {
                            if let FieldValue::Scalar(v) = &syn.fields[fi] {
                                out.push(vec![v.clone()]);
                            }
                        }
                        Ok(out)
                    }
                    FieldType::Set(c) | FieldType::Bag(c) => {
                        let mut out = Relation::empty(c.clone());
                        for syn in syns {
                            if let FieldValue::Rel(r) = &syn.fields[fi] {
                                out.extend(&r.clone().with_columns(c.clone()))
                                    .map_err(AigError::Store)?;
                            }
                        }
                        Ok(out)
                    }
                }
            }
            SetExpr::Union(terms) => {
                let mut rels = Vec::with_capacity(terms.len());
                for term in terms {
                    rels.push(self.eval_set(idx, term, inh, child_syns)?);
                }
                // Skip polymorphic empties when fixing the arity.
                let arity = rels
                    .iter()
                    .find(|r| !(r.is_empty() && r.arity() == 0))
                    .map(|r| r.arity())
                    .unwrap_or(0);
                let columns: Vec<String> = (0..arity).map(|i| format!("c{i}")).collect();
                let mut out = Relation::empty(columns.clone());
                for rel in rels {
                    if rel.is_empty() {
                        continue;
                    }
                    out.extend(&rel.with_columns(columns.clone()))
                        .map_err(AigError::Store)?;
                }
                Ok(out)
            }
            SetExpr::Singleton(exprs) => {
                let columns: Vec<String> = (0..exprs.len()).map(|i| format!("c{i}")).collect();
                let mut out = Relation::empty(columns);
                let row: Vec<Value> = exprs
                    .iter()
                    .map(|e| self.eval_value(idx, e, inh, child_syns))
                    .collect::<Result<_, _>>()?;
                out.push(row);
                Ok(out)
            }
        }
    }

    fn run_query(
        &mut self,
        idx: ElemIdx,
        qr: &QueryRule,
        inh: &AttrValue,
        child_syns: &[Option<ChildSyn>],
    ) -> Result<Relation, AigError> {
        let info = self.aig.elem_info(idx);
        let mut params = Params::new();
        for (name, source) in &qr.params {
            let value = match source {
                ParamSource::Const(v) => ParamValue::Scalar(v.clone()),
                ParamSource::InhField(field) => match inh.get(&info.inh, field)? {
                    FieldValue::Scalar(v) => ParamValue::Scalar(v.clone()),
                    FieldValue::Rel(r) => ParamValue::Rel(r.clone()),
                },
                ParamSource::ChildSyn { item, field } => {
                    let syn = self.child_single(idx, *item, child_syns)?;
                    let child_info = self.child_info(idx, *item);
                    match syn.get(&child_info.syn, field)? {
                        FieldValue::Scalar(v) => ParamValue::Scalar(v.clone()),
                        FieldValue::Rel(r) => ParamValue::Rel(r.clone()),
                    }
                }
            };
            params.insert(name.clone(), value);
        }
        self.stats.queries += 1;
        Ok(execute(self.aig.query(qr.query), self.catalog, &params)?)
    }

    fn child_info(&self, idx: ElemIdx, item: usize) -> &crate::spec::ElemInfo {
        let info = self.aig.elem_info(idx);
        match &info.prod {
            Prod::Items(items) => self.aig.elem_info(items[item].elem),
            Prod::Choice { .. } => self.aig.elem_info(
                self.choice_branch
                    .expect("choice_branch is set while evaluating branch syn rules"),
            ),
            _ => unreachable!("child reference on leaf production"),
        }
    }

    fn child_single<'b>(
        &self,
        idx: ElemIdx,
        item: usize,
        child_syns: &'b [Option<ChildSyn>],
    ) -> Result<&'b AttrValue, AigError> {
        let info = self.aig.elem_info(idx);
        match child_syns.get(item) {
            Some(Some(ChildSyn::Single(v))) => Ok(v),
            Some(Some(ChildSyn::Multi(_))) => Err(AigError::Spec(format!(
                "element `{}`: scalar/set reference to starred item {item}; use collect",
                info.name
            ))),
            _ => Err(AigError::Spec(format!(
                "element `{}`: reference to unevaluated item {item}",
                info.name
            ))),
        }
    }
}

/// Interprets the result of a condition query: one row, one column, an
/// integer (or an integer-valued string).
fn condition_value(rel: &Relation) -> Result<i64, String> {
    if rel.len() != 1 {
        return Err(format!("expected exactly one row, got {}", rel.len()));
    }
    if rel.arity() != 1 {
        return Err(format!("expected exactly one column, got {}", rel.arity()));
    }
    match rel.cell(0, 0) {
        Value::Int(i) => Ok(*i),
        Value::Str(s) => s
            .parse::<i64>()
            .map_err(|_| format!("value {s:?} is not an integer")),
        Value::Null => Err("condition query returned NULL".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{scalar, set, AigBuilder, BranchSpec, ItemSpec, ProdSpec};
    use aig_relstore::{Database, Table, TableSchema};
    use aig_xml::serialize::to_string;
    use aig_xml::validate;

    fn items_catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut db = Database::new("DB1");
        let mut t = Table::new(TableSchema::strings("items", &["id", "day", "kind"], &[]));
        for (id, day, kind) in [("i1", "mon", "a"), ("i2", "mon", "b"), ("i3", "tue", "a")] {
            t.insert(vec![Value::str(id), Value::str(day), Value::str(kind)])
                .unwrap();
        }
        db.add_table(t).unwrap();
        c.add_source(db).unwrap();
        c
    }

    /// list(day) -> entry* from query; entry -> id (PCDATA).
    fn list_aig() -> Aig {
        let mut b = AigBuilder::new("list");
        b.dtd_text("<!ELEMENT list (entry*)> <!ELEMENT entry (id)> <!ELEMENT id (#PCDATA)>")
            .unwrap();
        b.inh("list", vec![scalar("day")]).unwrap();
        b.inh("entry", vec![scalar("id")]).unwrap();
        let q = b
            .query("select t.id as id from DB1:items t where t.day = $day")
            .unwrap();
        let rule = b.auto_bind(q, "list").unwrap();
        b.prod(
            "list",
            ProdSpec::Items(vec![ItemSpec::star("entry", Generator::Query(rule))]),
        )
        .unwrap();
        b.prod(
            "entry",
            ProdSpec::Items(vec![ItemSpec::child("id")
                .assign("val", FieldRule::Scalar(ValueExpr::InhField("id".into())))]),
        )
        .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn star_iteration_from_query() {
        let aig = list_aig();
        let catalog = items_catalog();
        let result = evaluate(&aig, &catalog, &[("day", Value::str("mon"))]).unwrap();
        assert_eq!(
            to_string(&result.tree),
            "<list><entry><id>i1</id></entry><entry><id>i2</id></entry></list>"
        );
        assert!(validate(&result.tree, &aig.dtd).is_ok());
        assert_eq!(result.stats.queries, 1);
    }

    #[test]
    fn empty_generator_empty_document() {
        let aig = list_aig();
        let catalog = items_catalog();
        let result = evaluate(&aig, &catalog, &[("day", Value::str("sun"))]).unwrap();
        assert_eq!(to_string(&result.tree), "<list/>");
        assert!(validate(&result.tree, &aig.dtd).is_ok());
    }

    #[test]
    fn missing_or_unknown_parameters_rejected() {
        let aig = list_aig();
        let catalog = items_catalog();
        assert!(matches!(
            evaluate(&aig, &catalog, &[]),
            Err(AigError::Spec(_))
        ));
        assert!(matches!(
            evaluate(
                &aig,
                &catalog,
                &[("day", Value::str("mon")), ("bogus", Value::str("x"))]
            ),
            Err(AigError::Spec(_))
        ));
    }

    /// Context-dependent construction: a mini version of the paper's
    /// treatments/bill passing — `sum` copies the ids collected from the
    /// first subtree.
    #[test]
    fn synthesized_attributes_flow_to_siblings() {
        let mut b = AigBuilder::new("flow");
        b.dtd_text(
            "<!ELEMENT doc (left, right)> <!ELEMENT left (id*)> \
             <!ELEMENT right (id*)> <!ELEMENT id (#PCDATA)>",
        )
        .unwrap();
        b.inh("doc", vec![scalar("day")]).unwrap();
        b.inh("left", vec![scalar("day")]).unwrap();
        // Components named `val` so that iterating the set generates the
        // leaf's `val` inherited field directly.
        b.syn("left", vec![set("ids", &["val"])]).unwrap();
        b.inh("right", vec![set("ids", &["val"])]).unwrap();
        let q = b
            .query("select t.id as val from DB1:items t where t.day = $day")
            .unwrap();
        let rule = b.auto_bind(q, "left").unwrap();
        b.prod(
            "doc",
            ProdSpec::Items(vec![
                ItemSpec::child("left")
                    .assign("day", FieldRule::Scalar(ValueExpr::InhField("day".into()))),
                ItemSpec::child("right").assign(
                    "ids",
                    FieldRule::Set(SetExpr::ChildSyn {
                        item: 0,
                        field: "ids".into(),
                    }),
                ),
            ]),
        )
        .unwrap();
        b.prod(
            "left",
            ProdSpec::Items(vec![ItemSpec::star("id", Generator::Query(rule))]),
        )
        .unwrap();
        b.syn_rule(
            "left",
            "ids",
            FieldRule::Set(SetExpr::Collect {
                item: 0,
                field: "val".into(),
            }),
        )
        .unwrap();
        // right iterates over its inherited set.
        b.prod(
            "right",
            ProdSpec::Items(vec![ItemSpec::star(
                "id",
                Generator::Set(SetExpr::InhField("ids".into())),
            )]),
        )
        .unwrap();
        let aig = b.build().unwrap();
        let catalog = items_catalog();
        let result = evaluate(&aig, &catalog, &[("day", Value::str("mon"))]).unwrap();
        assert_eq!(
            to_string(&result.tree),
            "<doc><left><id>i1</id><id>i2</id></left>\
<right><id>i1</id><id>i2</id></right></doc>"
        );
        assert!(validate(&result.tree, &aig.dtd).is_ok());
        // One query for `left`; `right` iterates over the synthesized set.
        assert_eq!(result.stats.queries, 1);
    }

    #[test]
    fn choice_production_is_data_driven() {
        let mut b = AigBuilder::new("choice");
        b.dtd_text(
            "<!ELEMENT doc (x)> <!ELEMENT x (a | b)> \
             <!ELEMENT a (#PCDATA)> <!ELEMENT b (#PCDATA)>",
        )
        .unwrap();
        b.inh("doc", vec![scalar("day")]).unwrap();
        b.inh("x", vec![scalar("day")]).unwrap();
        // Condition: 1 if any 'a'-kind item exists that day, else 2.
        let cond = b
            .query("select distinct 1 as pick from DB1:items t where t.day = $day and t.kind = 'a'")
            .unwrap();
        let cond_rule = b.auto_bind(cond, "x").unwrap();
        b.prod(
            "doc",
            ProdSpec::Items(vec![ItemSpec::child("x")
                .assign("day", FieldRule::Scalar(ValueExpr::InhField("day".into())))]),
        )
        .unwrap();
        b.prod(
            "x",
            ProdSpec::Choice {
                cond: cond_rule,
                branches: vec![
                    BranchSpec::new("a").assign(
                        "val",
                        FieldRule::Scalar(ValueExpr::Const(Value::str("has-a"))),
                    ),
                    BranchSpec::new("b").assign(
                        "val",
                        FieldRule::Scalar(ValueExpr::Const(Value::str("no-a"))),
                    ),
                ],
            },
        )
        .unwrap();
        let aig = b.build().unwrap();
        let catalog = items_catalog();
        let result = evaluate(&aig, &catalog, &[("day", Value::str("mon"))]).unwrap();
        assert_eq!(to_string(&result.tree), "<doc><x><a>has-a</a></x></doc>");
        assert!(validate(&result.tree, &aig.dtd).is_ok());
        // A day with no rows: condition query returns zero rows -> error.
        let err = evaluate(&aig, &catalog, &[("day", Value::str("sun"))]).unwrap_err();
        assert!(matches!(err, AigError::BadConditionResult { .. }));
    }

    #[test]
    fn sibling_dependency_evaluated_in_topo_order_but_document_order_kept() {
        // doc -> first, second where Inh(first) = Syn(second) (second
        // evaluated first, but `first` appears first in the document).
        let mut b = AigBuilder::new("order");
        b.dtd_text(
            "<!ELEMENT doc (first, second)> <!ELEMENT first (#PCDATA)> \
             <!ELEMENT second (#PCDATA)>",
        )
        .unwrap();
        b.inh("doc", vec![scalar("day")]).unwrap();
        b.prod(
            "doc",
            ProdSpec::Items(vec![
                ItemSpec::child("first").assign(
                    "val",
                    FieldRule::Scalar(ValueExpr::ChildSyn {
                        item: 1,
                        field: "val".into(),
                    }),
                ),
                ItemSpec::child("second")
                    .assign("val", FieldRule::Scalar(ValueExpr::InhField("day".into()))),
            ]),
        )
        .unwrap();
        let aig = b.build().unwrap();
        let catalog = items_catalog();
        let result = evaluate(&aig, &catalog, &[("day", Value::str("mon"))]).unwrap();
        assert_eq!(
            to_string(&result.tree),
            "<doc><first>mon</first><second>mon</second></doc>"
        );
    }

    #[test]
    fn depth_bound_guards_against_cyclic_data() {
        // node -> child* where the query follows edges; cyclic edge data
        // makes the tree infinite.
        let mut b = AigBuilder::new("cyclic-data");
        b.dtd_text("<!ELEMENT node (node*)>").unwrap();
        b.inh("node", vec![scalar("cur")]).unwrap();
        let q = b
            .query("select e.dst as cur from DB1:edges e where e.src = $cur")
            .unwrap();
        let rule = b.auto_bind(q, "node").unwrap();
        b.prod(
            "node",
            ProdSpec::Items(vec![ItemSpec::star("node", Generator::Query(rule))]),
        )
        .unwrap();
        let aig = b.build().unwrap();

        let mut c = Catalog::new();
        let mut db = Database::new("DB1");
        let mut t = Table::new(TableSchema::strings("edges", &["src", "dst"], &[]));
        t.insert(vec![Value::str("a"), Value::str("b")]).unwrap();
        t.insert(vec![Value::str("b"), Value::str("a")]).unwrap();
        db.add_table(t).unwrap();
        c.add_source(db).unwrap();

        let opts = EvalOptions {
            max_depth: 64,
            check_guards: true,
        };
        let err = evaluate_with(&aig, &c, &[("cur", Value::str("a"))], &opts).unwrap_err();
        assert_eq!(err, AigError::DepthExceeded(64));

        // Acyclic data terminates and is data-driven.
        let mut c2 = Catalog::new();
        let mut db2 = Database::new("DB1");
        let mut t2 = Table::new(TableSchema::strings("edges", &["src", "dst"], &[]));
        t2.insert(vec![Value::str("a"), Value::str("b")]).unwrap();
        t2.insert(vec![Value::str("b"), Value::str("c")]).unwrap();
        db2.add_table(t2).unwrap();
        c2.add_source(db2).unwrap();
        let result = evaluate(&aig, &c2, &[("cur", Value::str("a"))]).unwrap();
        assert_eq!(to_string(&result.tree), "<node><node><node/></node></node>");
    }

    /// The evaluator's exact bytes — its own sibling and star order, not the
    /// canonical form — on the paper's instance and on a generated Tiny
    /// catalog (procedures nested up to the data's depth), each document
    /// once: σ0, its compiled form (guards) and its specialization (guards
    /// and internal states) must all spell it.
    #[test]
    fn conceptual_documents_match_their_golden_bytes() {
        let plain = crate::paper::sigma0().unwrap();
        let compiled = crate::compile::compile_constraints(&plain).unwrap();
        let (specialized, _) = crate::decompose::decompose_queries(&compiled).unwrap();
        let tiny = aig_datagen::HospitalConfig::tiny(1).generate().unwrap();
        let mini = crate::paper::mini_hospital_catalog().unwrap();
        let mini_dates = ["d1", "d2", "d9"].map(String::from).to_vec();
        let mut got = String::new();
        for (name, catalog, dates) in [
            ("mini", &mini, &mini_dates),
            ("tiny1", &tiny.catalog, &tiny.dates),
        ] {
            for date in dates {
                let args = [("date", Value::str(date))];
                let docs = [&plain, &compiled, &specialized]
                    .map(|aig| to_string(&evaluate(aig, catalog, &args).unwrap().tree));
                assert!(docs.iter().all(|doc| *doc == docs[0]), "{name} {date}");
                got.extend([format!("# {name} {date}\n"), docs[0].clone(), "\n".into()]);
            }
        }
        let golden = include_str!("../tests/golden/conceptual_sigma0.txt");
        for (line, (got, want)) in got.lines().zip(golden.lines()).enumerate() {
            assert_eq!(got, want, "golden line {}", line + 1);
        }
        assert_eq!(got.lines().count(), golden.lines().count());
    }

    #[test]
    fn condition_value_parsing() {
        let ok = Relation::new(vec!["c".into()], vec![vec![Value::int(2)]]).unwrap();
        assert_eq!(condition_value(&ok), Ok(2));
        let s = Relation::new(vec!["c".into()], vec![vec![Value::str("3")]]).unwrap();
        assert_eq!(condition_value(&s), Ok(3));
        let empty = Relation::empty(vec!["c".into()]);
        assert!(condition_value(&empty).is_err());
        let null = Relation::new(vec!["c".into()], vec![vec![Value::Null]]).unwrap();
        assert!(condition_value(&null).is_err());
    }
}
