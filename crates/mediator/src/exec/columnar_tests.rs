//! Operator-level differential tests of the columnar data plane.
//!
//! The task bodies of [`Executor::run_task`] and the tagger build their
//! outputs column-at-a-time over `Sym`s. The row-at-a-time code they
//! replaced — `Vec<Value>` rows, `Value`-keyed maps, a `(String, i64)`-keyed
//! tagging index — lives on here, verbatim in behaviour, as the reference
//! ([`RowMajor`], [`row_tagger`]). Every task of every fixture runs through
//! both on the same store and must agree exactly — relation, row order,
//! error — while a seeded perturbation rewrites what each task hands
//! downstream: emptied relations, NULL cells, duplicated and shuffled rows
//! (so `__ord` arrives unordered and with duplicates), shuffled instance
//! tables renumbered to their new row order, and field values whose
//! symbols were interned in the *opposite* order of their values (a sort by
//! `Sym` instead of by value shows up immediately).
//!
//! Where the two intentionally differ — the reference panics, or keys by
//! value where the columnar bodies and the tagger require every `__rowid`
//! to be its row's position — the new behaviour is pinned by its own test:
//! a condition or branch row for an unknown instance, an assemble input of
//! the wrong arity, and a parent table whose `__rowid`s are not its row
//! positions.

use super::*;
use crate::graph::{branch_tag, build_graph, occ_tag, GraphOptions, SynWalk};
use crate::tagging::tag_document;
use crate::unfold::{unfold, CutOff};
use aig_core::paper::sigma0;
use aig_core::spec::SetExpr;
use aig_core::{compile_constraints, decompose_queries, parse_aig};
use aig_datagen::HospitalConfig;
use aig_prng::{Rng, SeedableRng, StdRng};
use aig_relstore::{Database, Table, TableSchema};
use std::cell::Cell;

// -- The reference executor: the row-major task bodies --------------------------

/// The pre-columnar task bodies over the same executor context. Source
/// queries, bindings and the dedup kernel are shared with the executor
/// (they did not change); everything that walked rows is the old code.
struct RowMajor<'e, 'a, S: RelSource>(&'e Executor<'a, S>);

impl<S: RelSource> RowMajor<'_, '_, S> {
    /// The relation `key` names, read by the task that writes it.
    fn rel(&self, key: &RelKey) -> Result<&Relation, MediatorError> {
        self.0.store.rel(self.0.graph.producer[key])
    }

    /// Runs one task against the relations visible through `store`,
    /// returning the relation it produces (None for guards).
    fn run_task(&self, task: &Task) -> Result<Option<Relation>, MediatorError> {
        match &task.kind {
            TaskKind::Root { .. } => {
                let root_info = self.0.aig.elem_info(self.0.aig.root);
                let columns = instance_columns(&root_info.inh);
                let mut row = vec![
                    Value::int(0),
                    Value::int(-1),
                    Value::int(0),
                    Value::str(Occ::mat(self.0.aig.root).key(self.0.aig)),
                ];
                for decl in root_info.inh.iter().filter(|d| d.ty.is_scalar()) {
                    let v = self
                        .0
                        .args
                        .iter()
                        .find(|(n, _)| *n == decl.name)
                        .map(|(_, v)| v.clone())
                        .ok_or_else(|| {
                            MediatorError::Aig(AigError::Spec(format!(
                                "missing value for AIG parameter `{}`",
                                decl.name
                            )))
                        })?;
                    row.push(v);
                }
                let mut rel = Relation::empty(columns);
                rel.push(row);
                Ok(Some(rel))
            }
            TaskKind::Gen {
                parent,
                item,
                query,
                set_input,
                broadcast,
                generated_fields,
            } => {
                let child_elem = self.0.child_of(parent, *item)?;
                let child_info = self.0.aig.elem_info(child_elem);
                let raw: Relation = if let Some(vq) = query {
                    self.0.run_vector_query(vq)?
                } else {
                    // Mediator iteration over a set: (__owner, comps…).
                    let key = set_input.as_ref().ok_or_else(|| {
                        MediatorError::Internal("set generator without input".to_string())
                    })?;
                    let rel = self.0.store.rel(key.task)?.clone();
                    // Align with query output shape: __parent + comps.
                    let mut columns = vec!["__parent".to_string()];
                    columns.extend(rel.columns().iter().skip(1).cloned());
                    rel.with_columns(columns)
                };
                // Build child rows: parent, ord, scalar fields in decl order.
                let base = self.rel(&RelKey::Instances(parent.base))?;
                let base_rows = row_index_by_rowid(base)?;
                let mut out_columns = vec!["__parent".to_string(), "__ord".to_string()];
                let scalar_fields: Vec<&str> = child_info
                    .inh
                    .iter()
                    .filter(|f| f.ty.is_scalar())
                    .map(|f| f.name.as_str())
                    .collect();
                out_columns.extend(scalar_fields.iter().map(|s| s.to_string()));
                // Column positions in the raw output.
                let parent_col = raw.col("__parent")?;
                let mut rows: Vec<Vec<Value>> = Vec::with_capacity(raw.len());
                for r in 0..raw.len() {
                    let parent_id = raw.cell(r, parent_col).clone();
                    let parent_idx = base_rows.get(&parent_id).copied().ok_or_else(|| {
                        MediatorError::Internal("generator row with unknown parent".into())
                    })?;
                    let mut row = vec![parent_id, Value::int(0)];
                    for field in &scalar_fields {
                        if generated_fields.iter().any(|g| g == field) {
                            let c = raw.col(field)?;
                            row.push(raw.cell(r, c).clone());
                        } else if let Some((_, bind)) = broadcast.iter().find(|(n, _)| n == field) {
                            row.push(match bind {
                                ScalarBind::Const(v) => v.clone(),
                                ScalarBind::Col(c) => base.cell(parent_idx, base.col(c)?).clone(),
                            });
                        } else {
                            return Err(MediatorError::Internal(format!(
                                "field `{field}` neither generated nor broadcast"
                            )));
                        }
                    }
                    rows.push(row);
                }
                // Canonical per-parent order: (parent, fields), then ordinal.
                rows.sort_by(|a, b| a[0].cmp(&b[0]).then_with(|| a[2..].cmp(&b[2..])));
                let mut last_parent: Option<Value> = None;
                let mut ord = 0i64;
                let mut finished: Vec<Vec<Value>> = Vec::with_capacity(rows.len());
                for mut row in rows {
                    if last_parent.as_ref() != Some(&row[0]) {
                        ord = 0;
                        last_parent = Some(row[0].clone());
                    }
                    row[1] = Value::int(ord);
                    ord += 1;
                    finished.push(row);
                }
                let rel = Relation::new(out_columns, finished).map_err(MediatorError::Store)?;
                Ok(Some(rel))
            }
            TaskKind::InhSetQuery {
                target,
                field,
                query,
            } => {
                let raw = self.0.run_vector_query(query)?;
                let mut columns = vec!["__owner".to_string()];
                columns.extend(raw.columns().iter().skip(1).cloned());
                let mut rel = raw.with_columns(columns);
                // Coerce: dedup for set-typed targets, keep bags.
                let binding = self.0.binding(target)?;
                let info = self.0.aig.elem_info(binding.elem);
                if let Some(decl) = info.inh.iter().find(|f| &f.name == field) {
                    if matches!(decl.ty, FieldType::Set(_)) {
                        rel.dedup();
                    }
                }
                Ok(Some(rel))
            }
            TaskKind::Assemble { elem, inputs } => {
                let info = self.0.aig.elem_info(*elem);
                let columns = instance_columns(&info.inh);
                let mut rel = Relation::empty(columns);
                let mut rowid = 0i64;
                for &(producer, _) in inputs {
                    let input = self.0.graph.tasks[producer].output.as_ref();
                    let occ_value = match input.expect("an assemble input has an output") {
                        RelKey::GenOut(occ, item) => occ_tag(self.0.aig, occ, *item),
                        RelKey::BranchOut(occ, b) => branch_tag(self.0.aig, occ, *b),
                        other => {
                            return Err(MediatorError::Internal(format!(
                                "unexpected assemble input {other:?}"
                            )))
                        }
                    };
                    let part = self.0.store.rel(producer)?;
                    for r in 0..part.len() {
                        // part: __parent, __ord, fields…
                        let mut out = Vec::with_capacity(part.arity() + 2);
                        out.push(Value::int(rowid));
                        rowid += 1;
                        out.push(part.cell(r, 0).clone());
                        out.push(part.cell(r, 1).clone());
                        out.push(Value::str(occ_value.clone()));
                        out.extend((2..part.arity()).map(|c| part.cell(r, c).clone()));
                        rel.push(out);
                    }
                }
                Ok(Some(rel))
            }
            TaskKind::Cond { occ, query } => {
                let elem_name = self.0.aig.elem_name(self.0.binding(occ)?.elem).to_string();
                let raw = self.0.run_vector_query(query)?;
                let base = self.rel(&RelKey::Instances(occ.base))?;
                // Exactly one row per owner; the pick is an integer.
                let mut picks: HashMap<Value, i64> = HashMap::new();
                let parent_col = raw.col("__parent")?;
                if raw.arity() != 2 {
                    return Err(MediatorError::Aig(AigError::BadConditionResult {
                        elem: elem_name,
                        detail: format!("condition query returns {} columns", raw.arity() - 1),
                    }));
                }
                for r in 0..raw.len() {
                    // `__parent` is always prepended first; the pick value
                    // is the remaining column.
                    let pick = match raw.cell(r, 1) {
                        Value::Int(i) => *i,
                        Value::Str(s) => s.parse::<i64>().map_err(|_| {
                            MediatorError::Aig(AigError::BadConditionResult {
                                elem: elem_name.clone(),
                                detail: format!("value {s:?} is not an integer"),
                            })
                        })?,
                        Value::Null => {
                            return Err(MediatorError::Aig(AigError::BadConditionResult {
                                elem: elem_name,
                                detail: "condition query returned NULL".to_string(),
                            }))
                        }
                    };
                    if picks
                        .insert(raw.cell(r, parent_col).clone(), pick)
                        .is_some()
                    {
                        return Err(MediatorError::Aig(AigError::BadConditionResult {
                            elem: elem_name,
                            detail: "more than one row for an instance".to_string(),
                        }));
                    }
                }
                if picks.len() != base.len() {
                    return Err(MediatorError::Aig(AigError::BadConditionResult {
                        elem: elem_name,
                        detail: format!(
                            "condition produced {} picks for {} instances",
                            picks.len(),
                            base.len()
                        ),
                    }));
                }
                let mut rel = Relation::empty(vec!["__owner".into(), "__pick".into()]);
                let rowid_col = base.col("__rowid")?;
                for r in 0..base.len() {
                    let owner = base.cell(r, rowid_col).clone();
                    let pick = picks[&owner];
                    rel.push(vec![owner, Value::int(pick)]);
                }
                Ok(Some(rel))
            }
            TaskKind::BranchMat { occ, branch, picks } => {
                let binding = self.0.binding(occ)?.clone();
                let info = self.0.aig.elem_info(binding.elem);
                let Prod::Choice { branches, .. } = &info.prod else {
                    return Err(MediatorError::Internal("branch of non-choice".into()));
                };
                let spec = &branches[*branch];
                let child_info = self.0.aig.elem_info(spec.elem);
                let picks = self.0.store.rel(*picks)?.clone();
                let base = self.rel(&RelKey::Instances(occ.base))?.clone();
                let base_rows = row_index_by_rowid(&base)?;
                let mut columns = vec!["__parent".to_string(), "__ord".to_string()];
                let scalar_fields: Vec<&str> = child_info
                    .inh
                    .iter()
                    .filter(|f| f.ty.is_scalar())
                    .map(|f| f.name.as_str())
                    .collect();
                columns.extend(scalar_fields.iter().map(|s| s.to_string()));
                let mut rel = Relation::empty(columns);
                for r in 0..picks.len() {
                    if picks.cell(r, 1) != &Value::int(*branch as i64 + 1) {
                        continue;
                    }
                    let owner = picks.cell(r, 0).clone();
                    let base_idx = base_rows[&owner];
                    let mut out = vec![owner, Value::int(0)];
                    for field in &scalar_fields {
                        let rule = spec
                            .assigns
                            .iter()
                            .find(|(f, _)| f == field)
                            .map(|(_, r)| r);
                        let value = match rule {
                            Some(FieldRule::Scalar(expr)) => {
                                self.scalar_at(&binding, expr, &base, base_idx)?
                            }
                            _ => Value::Null,
                        };
                        out.push(value);
                    }
                    rel.push(out);
                }
                Ok(Some(rel))
            }
            TaskKind::SynAgg { occ, field, .. } => Ok(Some(self.compute_syn(occ, field)?)),
            TaskKind::Guard { occ, guard } => {
                // Guards were not rewritten: they produce no relation.
                if self.0.opts.policy.check_guards {
                    self.0.check_guard(occ, *guard)?;
                }
                Ok(None)
            }
        }
    }

    /// Resolves a scalar rule expression for a specific base row.
    fn scalar_at(
        &self,
        binding: &Binding,
        expr: &ValueExpr,
        base: &Relation,
        base_idx: usize,
    ) -> Result<Value, MediatorError> {
        match resolve_scalar(self.0.aig, binding.elem, expr) {
            Some(ResolvedScalar::Const(v)) => Ok(v),
            Some(ResolvedScalar::InhField(f)) => match binding.scalars.get(&f) {
                Some(ScalarBind::Const(v)) => Ok(v.clone()),
                Some(ScalarBind::Col(c)) => Ok(base.cell(base_idx, base.col(c)?).clone()),
                None => Err(MediatorError::Internal(format!(
                    "missing scalar binding `{f}`"
                ))),
            },
            None => Err(MediatorError::Unsupported(format!(
                "scalar expression at `{}` does not resolve through copy chains",
                self.0.aig.elem_name(binding.elem)
            ))),
        }
    }

    /// A child's synthesized relation: its task's output where the graph
    /// has that task — a set-typed field under a bag, or one read by a guard
    /// or a binding — and otherwise evaluated here, level by level, as the
    /// executor did before a synthesized set became one pass.
    fn syn_rel(&self, key: &RelKey) -> Result<std::borrow::Cow<'_, Relation>, MediatorError> {
        match key {
            RelKey::Syn(occ, field) if !self.0.graph.producer.contains_key(key) => {
                Ok(std::borrow::Cow::Owned(self.compute_syn(occ, field)?))
            }
            _ => Ok(std::borrow::Cow::Borrowed(self.rel(key)?)),
        }
    }

    /// Computes a synthesized set/bag table `(__owner, comps…)` from the
    /// children's tables, one level at a time.
    fn compute_syn(&self, occ: &Occ, field: &str) -> Result<Relation, MediatorError> {
        let binding = self.0.binding(occ)?.clone();
        let info = self.0.aig.elem_info(binding.elem);
        let decl = info
            .syn
            .iter()
            .find(|f| f.name == field)
            .ok_or_else(|| MediatorError::Internal(format!("no syn decl `{field}`")))?;
        let comps: Vec<String> = decl
            .ty
            .components()
            .map(|c| c.to_vec())
            .ok_or_else(|| MediatorError::Internal("scalar SynAgg".into()))?;
        let is_set = matches!(decl.ty, FieldType::Set(_));
        let mut columns = vec!["__owner".to_string()];
        columns.extend(comps.iter().cloned());

        let mut out = Relation::empty(columns.clone());
        match &info.prod {
            Prod::Choice { branches, .. } => {
                for (bno, branch) in branches.iter().enumerate() {
                    let rule = branch.syn.iter().find(|r| r.field == field);
                    match rule.map(|r| &r.rule) {
                        None | Some(FieldRule::Set(SetExpr::Empty)) => {}
                        Some(FieldRule::Set(SetExpr::ChildSyn { item: 0, field: f })) => {
                            // Child syn keyed by the branch child's rowids →
                            // re-key to the owner through the branch table.
                            let child_occ = Occ::mat(branch.elem);
                            let key = resolve_syn_key(
                                self.0.aig,
                                &self.0.graph.bindings,
                                &child_occ,
                                branch.elem,
                                f,
                            )?;
                            let child_syn = self.syn_rel(&key)?;
                            let t_child = self.rel(&RelKey::Instances(branch.elem))?;
                            let tag = branch_tag(self.0.aig, occ, bno);
                            let (rc, pc, oc) = (
                                t_child.col("__rowid")?,
                                t_child.col("__parent")?,
                                t_child.col("__occ")?,
                            );
                            let parent_of = row_parents_by_tag(t_child, &tag, rc, pc, oc);
                            row_rekey_by_parent(&child_syn, &parent_of, &mut out);
                        }
                        _ => {
                            return Err(MediatorError::Unsupported(
                                "choice branch synthesized rule is not a direct child copy"
                                    .to_string(),
                            ))
                        }
                    }
                }
            }
            _ => {
                let rule = info
                    .syn_rules
                    .iter()
                    .find(|r| r.field == field)
                    .ok_or_else(|| MediatorError::Internal(format!("no syn rule `{field}`")))?;
                let FieldRule::Set(expr) = &rule.rule else {
                    return Err(MediatorError::Internal("non-set SynAgg rule".into()));
                };
                let rel = self.eval_set_table(&binding, expr, &comps)?;
                out.extend(&rel.with_columns(columns.clone()))
                    .map_err(MediatorError::Store)?;
            }
        }
        if is_set {
            out.dedup();
        }
        Ok(out)
    }

    /// Evaluates a set expression into an `(__owner, comps…)` table.
    fn eval_set_table(
        &self,
        binding: &Binding,
        expr: &SetExpr,
        comps: &[String],
    ) -> Result<Relation, MediatorError> {
        let mut columns = vec!["__owner".to_string()];
        columns.extend(comps.iter().cloned());
        match expr {
            SetExpr::Empty => Ok(Relation::empty(columns)),
            SetExpr::InhField(f) => {
                let key = binding
                    .sets
                    .get(f)
                    .ok_or_else(|| MediatorError::Internal(format!("no set binding `{f}`")))?;
                Ok(self.rel(key)?.clone().with_columns(columns))
            }
            SetExpr::ChildSyn { item, field } => {
                let child_occ = binding.occ.child(*item);
                let child_elem = self.0.child_of(&binding.occ, *item)?;
                let key = resolve_syn_key(
                    self.0.aig,
                    &self.0.graph.bindings,
                    &child_occ,
                    child_elem,
                    field,
                )?;
                Ok(self.syn_rel(&key)?.into_owned().with_columns(columns))
            }
            SetExpr::Collect { item, field } => {
                let child_elem = self.0.child_of(&binding.occ, *item)?;
                let child_info = self.0.aig.elem_info(child_elem);
                let t_child = self.rel(&RelKey::Instances(child_elem))?;
                let tag = occ_tag(self.0.aig, &binding.occ, *item);
                let (rc, pc, oc) = (
                    t_child.col("__rowid")?,
                    t_child.col("__parent")?,
                    t_child.col("__occ")?,
                );
                let field_decl = child_info
                    .syn
                    .iter()
                    .find(|f| f.name == *field)
                    .ok_or_else(|| MediatorError::Internal(format!("no child syn `{field}`")))?;
                let mut out = Relation::empty(columns);
                if field_decl.ty.is_scalar() {
                    // The collected scalar resolves through copy chains to a
                    // column of the child's instance table.
                    let rule = child_info
                        .syn_rules
                        .iter()
                        .find(|r| r.field == *field)
                        .ok_or_else(|| {
                            MediatorError::Internal(format!("no child syn rule `{field}`"))
                        })?;
                    let FieldRule::Scalar(child_expr) = &rule.rule else {
                        return Err(MediatorError::Internal("scalar decl, set rule".into()));
                    };
                    let tag_sym = intern::lookup(&Value::str(tag.as_str()));
                    match resolve_scalar(self.0.aig, child_elem, child_expr) {
                        Some(ResolvedScalar::Const(v)) => {
                            for r in 0..t_child.len() {
                                if Some(t_child.sym(r, oc)) == tag_sym {
                                    out.push(vec![t_child.cell(r, pc).clone(), v.clone()]);
                                }
                            }
                        }
                        Some(ResolvedScalar::InhField(f)) => {
                            let c = t_child.col(&f)?;
                            for r in 0..t_child.len() {
                                if Some(t_child.sym(r, oc)) == tag_sym {
                                    out.push(vec![
                                        t_child.cell(r, pc).clone(),
                                        t_child.cell(r, c).clone(),
                                    ]);
                                }
                            }
                        }
                        None => {
                            return Err(MediatorError::Unsupported(format!(
                                "collected scalar `{field}` of `{}` does not resolve \
                                 through copy chains",
                                child_info.name
                            )))
                        }
                    }
                } else {
                    let child_occ = Occ::mat(child_elem);
                    let key = resolve_syn_key(
                        self.0.aig,
                        &self.0.graph.bindings,
                        &child_occ,
                        child_elem,
                        field,
                    )?;
                    let child_syn = self.syn_rel(&key)?;
                    let parent_of = row_parents_by_tag(t_child, &tag, rc, pc, oc);
                    row_rekey_by_parent(&child_syn, &parent_of, &mut out);
                }
                Ok(out)
            }
            SetExpr::Union(terms) => {
                let mut out = Relation::empty(columns.clone());
                for term in terms {
                    let rel = self.eval_set_table(binding, term, comps)?;
                    out.extend(&rel.with_columns(columns.clone()))
                        .map_err(MediatorError::Store)?;
                }
                Ok(out)
            }
            SetExpr::Singleton(exprs) => {
                let base = self.rel(&RelKey::Instances(binding.occ.base))?;
                let rowid_col = base.col("__rowid")?;
                let mut out = Relation::empty(columns);
                for idx in 0..base.len() {
                    let mut r = vec![base.cell(idx, rowid_col).clone()];
                    for e in exprs {
                        r.push(self.scalar_at(binding, e, base, idx)?);
                    }
                    out.push(r);
                }
                Ok(out)
            }
        }
    }
}

/// Maps `__rowid` values to row positions.
fn row_index_by_rowid(rel: &Relation) -> Result<HashMap<Value, usize>, MediatorError> {
    let c = rel.col("__rowid").map_err(MediatorError::Store)?;
    Ok((0..rel.len())
        .map(|i| (rel.cell(i, c).clone(), i))
        .collect())
}

/// Maps child `__rowid` symbols to parent symbols for rows carrying the
/// given `__occ` tag. Tag matching is one interner lookup plus per-row
/// symbol compares; a never-interned tag matches no rows.
fn row_parents_by_tag(
    t_child: &Relation,
    tag: &str,
    rc: usize,
    pc: usize,
    oc: usize,
) -> HashMap<aig_relstore::Sym, aig_relstore::Sym> {
    let tag_sym = intern::lookup(&Value::str(tag));
    let mut parent_of = HashMap::new();
    if let Some(tag_sym) = tag_sym {
        for r in 0..t_child.len() {
            if t_child.sym(r, oc) == tag_sym {
                parent_of.insert(t_child.sym(r, rc), t_child.sym(r, pc));
            }
        }
    }
    parent_of
}

/// Appends `child_syn` rows re-keyed from child rowid to owner, dropping
/// rows whose child is not in `parent_of`.
fn row_rekey_by_parent(
    child_syn: &Relation,
    parent_of: &HashMap<aig_relstore::Sym, aig_relstore::Sym>,
    out: &mut Relation,
) {
    for r in 0..child_syn.len() {
        if let Some(&owner) = parent_of.get(&child_syn.sym(r, 0)) {
            let mut row = vec![intern::resolve(owner).clone()];
            row.extend((1..child_syn.arity()).map(|c| child_syn.cell(r, c).clone()));
            out.push(row);
        }
    }
}

// -- The reference tagger: `(ElemIdx, String, i64)` index, per-node lookups -----

mod row_tagger {
    use crate::error::MediatorError;
    use crate::exec::RelStore;
    use crate::graph::{branch_tag, occ_tag, Binding, Occ, RelKey, ScalarBind, TaskGraph};
    use aig_core::copyelim::{resolve_scalar, ResolvedScalar};
    use aig_core::spec::{Aig, ElemIdx, Prod};
    use aig_relstore::{Relation, Value};
    use aig_xml::{NodeId, XmlTree};
    use std::collections::HashMap;

    /// Builds the document from the executed relations.
    pub(super) fn tag_document(
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
                                let child_node =
                                    tree.add_element(node, child_info.tag().to_string());
                                self.tag_children(tree, child_node, child_binding, child_pos)?;
                            }
                        }
                    }
                    Ok(())
                }
            }
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
                        let base: &Relation =
                            self.store.get(&RelKey::Instances(binding.occ.base))?;
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
}

// -- Fixtures --------------------------------------------------------------------

struct Fixture {
    aig: Aig,
    graph: TaskGraph,
    catalog: Catalog,
    args: Vec<(&'static str, Value)>,
}

fn fixture(aig: &Aig, catalog: Catalog, depth: usize, args: Vec<(&'static str, Value)>) -> Fixture {
    fixture_of(specialize(aig), catalog, depth, CutOff::Truncate, args)
}

/// `aig` with its constraints compiled and its queries decomposed.
fn specialize(aig: &Aig) -> Aig {
    let compiled = match aig.constraints.is_empty() {
        true => aig.clone(),
        false => compile_constraints(aig).unwrap(),
    };
    decompose_queries(&compiled).unwrap().0
}

/// A specialized AIG unfolded to `depth` and its task graph.
fn fixture_of(
    specialized: Aig,
    catalog: Catalog,
    depth: usize,
    cutoff: CutOff,
    args: Vec<(&'static str, Value)>,
) -> Fixture {
    let aig = unfold(&specialized, depth, cutoff).unwrap().aig;
    let graph = build_graph(&aig, &catalog, &GraphOptions::default()).unwrap();
    Fixture {
        aig,
        graph,
        catalog,
        args,
    }
}

/// σ0 over a seeded tiny hospital: generator queries, assembly, collected
/// and unioned synthesized sets, singleton sets, inherited set queries,
/// both guard kinds.
fn hospital(seed: u64, depth: usize) -> Fixture {
    let data = HospitalConfig::tiny(seed).generate().unwrap();
    let date = Value::str(&data.dates[0]);
    fixture(
        &sigma0().unwrap(),
        data.catalog,
        depth,
        vec![("date", date)],
    )
}

type TableRows<'a> = (&'a str, &'a [&'a str], Vec<Vec<String>>);

/// One single-source catalog of string tables. Rows go in as given: the
/// first table to mention a value decides where its symbol falls.
fn string_catalog(db: &str, tables: &[TableRows]) -> Catalog {
    let mut database = Database::new(db);
    for (name, columns, rows) in tables {
        let mut table = Table::new(TableSchema::strings(*name, columns, &[]));
        for row in rows {
            table.insert(row.iter().map(Value::str).collect()).unwrap();
        }
        database.add_table(table).unwrap();
    }
    let mut catalog = Catalog::new();
    catalog.add_source(database).unwrap();
    catalog
}

/// A choice production (condition query, both branches, a branch scalar
/// copied from the base row, a constant one, a branch synthesized set)
/// feeding a set generator. Orders `o{n}` of `mon` pay by card when `n` is
/// even; payments are stored as strings and as integers.
fn orders(seed: u64) -> Fixture {
    let aig = parse_aig(
        r#"
        aig orders {
          dtd {
            <!ELEMENT orders (order*)>
            <!ELEMENT order (id, payment, audit)>
            <!ELEMENT payment (card | invoice)>
            <!ELEMENT audit (ref*)>
            <!ELEMENT id (#PCDATA)>
            <!ELEMENT card (#PCDATA)>
            <!ELEMENT invoice (#PCDATA)>
            <!ELEMENT ref (#PCDATA)>
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
            child audit { refs = syn(payment).refs; }
          }
          elem payment {
            inh(oid);
            syn(refs: set(val));
            case sql {
              select distinct p.kind as pick from OMS:payments p where p.oid = $oid
            } {
              1 => card { val = $oid; syn refs = syn(card).refs; }
              2 => invoice { val = 'pending'; }
            }
          }
          elem card {
            inh(val);
            syn(refs: set(val));
            text = $val;
            syn refs = { $val };
          }
          elem audit {
            inh(refs: set(val));
            child ref* from $refs;
          }
        }
        "#,
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(0..12usize);
    let day = |i: usize| if i % 3 == 2 { "tue" } else { "mon" };
    let orders = (0..n).map(|i| vec![format!("o{seed}-{i}"), day(i).into()]);
    let payments = (0..n).map(|i| vec![format!("o{seed}-{i}"), format!("{}", i % 2 + 1)]);
    let catalog = string_catalog(
        "OMS",
        &[
            ("orders", &["id", "day"], orders.collect()),
            ("payments", &["oid", "kind"], payments.collect()),
        ],
    );
    fixture(&aig, catalog, 2, vec![("day", Value::str("mon"))])
}

/// A generator field broadcast from a constant, a union of three collected
/// scalars (a column, a copy of the broadcast, a constant) inside a union
/// with a singleton, and one element starred under two
/// occurrences that share their parent row. The items go in by *descending*
/// id and note, so every symbol order is the reverse of its value order,
/// and notes repeat, so the generator's sort key has ties.
fn flow(seed: u64) -> Fixture {
    let n = StdRng::seed_from_u64(seed).gen_range(0..40usize);
    flow_items(seed, n, 1)
}

/// [`flow`] over `n` items, each stored `copies` times: a copy ties with its
/// original on every generated field.
fn flow_items(seed: u64, n: usize, copies: usize) -> Fixture {
    let aig = parse_aig(
        r#"
        aig flow {
          dtd {
            <!ELEMENT doc (left, right, again)>
            <!ELEMENT left (stamp, entries)>
            <!ELEMENT entries (entry*)>
            <!ELEMENT entry (note, key, mark)>
            <!ELEMENT right (id*)>
            <!ELEMENT again (id*)>
            <!ELEMENT stamp (#PCDATA)>
            <!ELEMENT id (#PCDATA)>
            <!ELEMENT key (#PCDATA)>
            <!ELEMENT note (#PCDATA)>
            <!ELEMENT mark (#PCDATA)>
          }
          elem doc {
            inh(day);
            child left { day = $day; }
            child right { ids = syn(left).all; }
            child again { ids = syn(left).all; }
          }
          elem left {
            inh(day);
            syn(all: set(val));
            child stamp { val = $day; }
            child entries { day = $day; }
            syn all = union(syn(entries).all, { syn(stamp).val });
          }
          elem entries {
            inh(day);
            syn(all: set(val));
            child entry* from sql {
              select t.note as note, t.id as id from DB1:items t where t.day = $day
            } with { mark = 'seen'; };
            syn all = union(collect(entry.key), collect(entry.mark), collect(entry.konst));
          }
          elem entry {
            inh(note, id, mark);
            syn(key, mark, konst);
            child note { val = $note; }
            child key { val = $id; }
            child mark { val = $mark; }
            syn key = syn(key).val;
            syn mark = syn(mark).val;
            syn konst = 'k';
          }
          elem right {
            inh(ids: set(val));
            child id* from $ids;
          }
          elem again {
            inh(ids: set(val));
            child id* from $ids;
          }
        }
        "#,
    )
    .unwrap();
    let items = (0..n).rev().flat_map(|i| {
        let day = if i % 4 == 3 { "tue" } else { "mon" };
        let item = vec![
            format!("flow{seed}-id-{i:03}"),
            format!("flow{seed}-note-{}", 9 - i % 3),
            day.to_string(),
        ];
        std::iter::repeat_n(item, copies)
    });
    let catalog = string_catalog("DB1", &[("items", &["id", "note", "day"], items.collect())]);
    fixture(&aig, catalog, 2, vec![("day", Value::str("mon"))])
}

fn options(threads: usize, batching: bool) -> ExecOptions {
    ExecOptions::new(ExecPolicy {
        threads,
        batching,
        batch_rows: 3,
        ..ExecPolicy::default()
    })
}

// -- The differential walk -----------------------------------------------------------

fn executor<'a, S: RelSource>(
    fx: &'a Fixture,
    store: &'a S,
    opts: &'a ExecOptions,
) -> Executor<'a, S> {
    Executor {
        aig: &fx.aig,
        catalog: &fx.catalog,
        graph: &fx.graph,
        store,
        opts,
        args: &fx.args,
        epoch: Instant::now(),
    }
}

/// Rewrites what a task hands downstream, keeping the bookkeeping columns
/// (`__…`) referentially intact: a shuffled instance table is renumbered,
/// so its `__rowid`s stay its row positions.
fn perturb(rng: &mut StdRng, task: &Task, rel: &mut Relation) {
    let reorder = |rng: &mut StdRng, rel: &mut Relation| {
        let mut order: Vec<u32> = (0..rel.len() as u32).collect();
        rng.shuffle(&mut order);
        rel.gather(&order);
    };
    match task.kind {
        TaskKind::Assemble { .. } if rng.gen_bool(0.3) => {
            reorder(rng, rel);
            return renumber(rel);
        }
        TaskKind::Gen { .. }
        | TaskKind::BranchMat { .. }
        | TaskKind::SynAgg { .. }
        | TaskKind::InhSetQuery { .. } => {}
        _ => return,
    }
    let fields: Vec<usize> = (0..rel.arity())
        .filter(|&c| !rel.columns()[c].starts_with("__"))
        .collect();
    match rng.gen_range(0..7u32) {
        0 => *rel = rel.slice(0, 0),
        1 => {
            let copy = rel.clone();
            rel.extend(&copy).unwrap();
            reorder(rng, rel);
        }
        2 => reorder(rng, rel),
        3 if !fields.is_empty() => {
            for r in 0..rel.len() {
                if rng.gen_bool(0.3) {
                    rel.set_cell(r, *rng.pick(&fields), Value::Null);
                }
            }
        }
        4 if !fields.is_empty() => {
            // A small pool of fresh values interned from the greatest
            // down, integers among the strings: ties, and symbol order
            // opposed to value order.
            let salt = rng.next_u64();
            let pool: Vec<Value> = (0..5i64)
                .rev()
                .map(|i| match i % 2 {
                    0 => Value::str(format!("adv-{salt:x}-{i}")),
                    _ => Value::int(salt as i64 / 2 + i),
                })
                .collect();
            for v in &pool {
                intern::intern(v);
            }
            let c = *rng.pick(&fields);
            for r in 0..rel.len() {
                rel.set_cell(r, c, rng.pick(&pool).clone());
            }
        }
        _ => {}
    }
}

/// An instance table's `__rowid`s set to its row positions, as Assemble
/// numbers them.
fn renumber(rel: &mut Relation) {
    let rowid = rel.col("__rowid").unwrap();
    for r in 0..rel.len() {
        rel.set_cell(r, rowid, Value::int(r as i64));
    }
}

/// Runs every task through the columnar body and the row-major reference
/// on the same store, asserting they agree, and returns the store; each
/// output is perturbed under `seed` (if any) before it is stored. Counts
/// the task kinds seen.
fn walk(fx: &Fixture, opts: &ExecOptions, seed: Option<u64>, kinds: &mut [usize; 8]) -> RelStore {
    let mut rng = seed.map(StdRng::seed_from_u64);
    walk_with(fx, opts, kinds, |task, rel| {
        if let Some(rng) = &mut rng {
            perturb(rng, task, rel);
        }
    })
}

/// [`walk`], with each output rewritten by `edit` before it is stored.
fn walk_with(
    fx: &Fixture,
    opts: &ExecOptions,
    kinds: &mut [usize; 8],
    mut edit: impl FnMut(&Task, &mut Relation),
) -> RelStore {
    let mut store = RelStore::new(&fx.graph);
    for &id in &fx.graph.topo {
        let task = &fx.graph.tasks[id];
        let exec = executor(fx, &store, opts);
        let reference = RowMajor(&exec);
        let columnar = exec.run_task(task);
        assert_eq!(columnar, reference.run_task(task), "{}", task.label);
        kinds[match &task.kind {
            TaskKind::Root { .. } => 0,
            TaskKind::Gen { query: Some(_), .. } => 1,
            TaskKind::Gen { query: None, .. } => 2,
            TaskKind::InhSetQuery { .. } => 3,
            TaskKind::Assemble { .. } => 4,
            TaskKind::Cond { .. } => 5,
            TaskKind::BranchMat { .. } => 6,
            TaskKind::SynAgg { .. } | TaskKind::Guard { .. } => 7,
        }] += 1;
        if let (Some(_), Ok(Some(mut rel))) = (&task.output, columnar) {
            edit(task, &mut rel);
            store.slots[id] = rel.into();
        }
    }
    store
}

/// The tagger against the row-major reference.
fn check_tagging(fx: &Fixture, store: &RelStore) {
    let reference = row_tagger::tag_document(&fx.aig, &fx.graph, store);
    assert_eq!(tag_document(&fx.aig, &fx.graph, store), reference);
}

#[test]
fn every_task_body_matches_the_row_major_reference() {
    let mut kinds = [0usize; 8];
    for seed in 0..6u64 {
        let fixtures = [
            hospital(seed, 3),
            hospital(seed + 100, 6),
            orders(seed),
            flow(seed),
        ];
        for fx in &fixtures {
            for (threads, batching) in [(1, false), (2, false), (2, true)] {
                let opts = options(threads, batching);
                let clean = walk(fx, &opts, None, &mut kinds);
                check_tagging(fx, &clean);
                for round in 0..4 {
                    let salt = seed * 1000 + round;
                    let store = walk(fx, &opts, Some(salt), &mut kinds);
                    check_tagging(fx, &store);
                }
            }
        }
    }
    assert!(kinds.iter().all(|&n| n > 0), "task kinds run: {kinds:?}");
}

// -- Where the columnar bodies differ from the reference on purpose -----------------

fn task_where(fx: &Fixture, pick: impl Fn(&TaskKind) -> bool) -> &Task {
    let mut tasks = fx.graph.tasks.iter();
    tasks.find(|t| pick(&t.kind)).expect("the fixture has it")
}

/// A store that answers the `nth` read of `key` (counting from zero) with
/// `instead`: the seam between a source query — whose parameters it reads
/// first — and the rest of the task body.
struct SwapNth<'a> {
    store: &'a RelStore,
    key: RelKey,
    nth: usize,
    instead: Relation,
    reads: Cell<usize>,
}

impl RelSource for SwapNth<'_> {
    fn rel(&self, task: usize) -> Result<&Relation, MediatorError> {
        if task == self.store.producer[&self.key] {
            self.reads.set(self.reads.get() + 1);
            if self.reads.get() == self.nth + 1 {
                return Ok(&self.instead);
            }
        }
        self.store.rel(task)
    }
}

#[test]
fn condition_and_branch_rows_for_unknown_instances_are_errors_not_panics() {
    let fx = orders(4);
    let opts = options(1, false);
    let store = walk(&fx, &opts, None, &mut [0; 8]);

    // One `order` under a foreign rowid: in the base table read after the
    // condition query, whose ids are then not its row positions, or in the
    // query's input, which answers for an instance the base table does not
    // have. A pick is placed at its owner's id, so either is a bad id.
    let cond = task_where(&fx, |k| matches!(k, TaskKind::Cond { .. }));
    let TaskKind::Cond { occ, .. } = &cond.kind else {
        unreachable!()
    };
    let key = RelKey::Instances(occ.base);
    for (nth, column) in [(1, "row 0's `__rowid`"), (0, "`__parent`")] {
        let mut instead = store.get(&key).unwrap().clone();
        assert!(instead.len() > 1, "the fixture has orders on the day");
        instead.set_cell(0, instead.col("__rowid").unwrap(), Value::int(1 << 40));
        let swapped = SwapNth {
            store: &store,
            key: key.clone(),
            nth,
            instead,
            reads: Cell::new(0),
        };
        match executor(&fx, &swapped, &opts).run_task(cond) {
            Err(MediatorError::Internal(msg)) => {
                let head = format!("bad instance id in T[order]: {column} Int({});", 1u64 << 40);
                assert!(msg.starts_with(&head), "{msg}")
            }
            other => panic!("expected a bad instance id, got {other:?}"),
        }
    }

    // A pick table naming an owner the base table does not have (a
    // corrupted `__owner` cell of a shipped condition result).
    let branch = task_where(&fx, |k| matches!(k, TaskKind::BranchMat { branch: 0, .. }));
    let key = RelKey::Pick(occ.clone());
    let mut instead = store.get(&key).unwrap().clone();
    let card = (0..instead.len()).find(|&r| instead.cell(r, 1) == &Value::int(1));
    instead.set_cell(card.expect("a card payment"), 0, Value::str("foreign"));
    let swapped = SwapNth {
        store: &store,
        key,
        nth: 0,
        instead,
        reads: Cell::new(0),
    };
    match executor(&fx, &swapped, &opts).run_task(branch) {
        Err(MediatorError::Internal(msg)) => assert!(
            msg.starts_with("bad instance id in T[order]: `__owner` Str(\"foreign\")"),
            "{msg}"
        ),
        other => panic!("expected a bad instance id, got {other:?}"),
    }
}

/// The choice taken here: an assemble input whose arity does not fit the
/// instance table is a `SchemaMismatch` whatever its row count (the
/// row-major loop only `debug_assert`ed, and a release build silently
/// zipped the row short or dropped its tail).
#[test]
fn assemble_input_of_the_wrong_arity_is_a_schema_mismatch() {
    let fx = flow(3);
    let opts = options(1, false);
    let store = walk(&fx, &opts, None, &mut [0; 8]);
    let assemble = task_where(
        &fx,
        |k| matches!(k, TaskKind::Assemble { inputs, .. } if inputs.len() == 2),
    );
    let TaskKind::Assemble { inputs, .. } = &assemble.kind else {
        unreachable!()
    };
    let input = fx.graph.tasks[inputs[1].0].output.clone().unwrap();
    let part = store.get(&input).unwrap();
    for instead in [
        part.project_positions(&[0]),
        part.project_positions(&[0, 1, 2, 2]),
        part.project_positions(&[0, 1, 2, 2]).slice(0, 0),
    ] {
        let swapped = SwapNth {
            store: &store,
            key: input.clone(),
            nth: 0,
            instead,
            reads: Cell::new(0),
        };
        let out = executor(&fx, &swapped, &opts).run_task(assemble);
        let Err(MediatorError::Store(StoreError::SchemaMismatch { msg, .. })) = out else {
            panic!("expected SchemaMismatch, got {out:?}");
        };
        assert!(msg.contains("assemble input"), "{msg}");
    }
}

/// The tagger plans every occurrence the productions reach before it
/// writes a node, so a choice branch without a binding is an error even
/// when no instance takes the branch; the row-major walk looked a branch
/// binding up only once it held a row of the branch.
#[test]
fn a_branch_without_binding_is_an_error_before_any_row_of_it() {
    let mut fx = orders(3);
    let mut store = walk(&fx, &options(1, false), None, &mut [0; 8]);
    let invoice = fx.aig.elem("invoice").unwrap();
    let key = RelKey::Instances(invoice);
    let columns = store.get(&key).unwrap().columns().to_vec();
    store.slots[fx.graph.producer[&key]] = Relation::empty(columns).into();
    assert!(fx.graph.bindings.remove(&Occ::mat(invoice)).is_some());
    let tree = row_tagger::tag_document(&fx.aig, &fx.graph, &store).unwrap();
    assert!(tree.len() > 1, "orders, none of them invoiced");
    let err = tag_document(&fx.aig, &fx.graph, &store).unwrap_err();
    let msg = format!("{err}");
    assert!(msg.contains("unknown occurrence"), "{msg}");
}

/// The tagger keys a child row by the parent row its `__parent` names,
/// which is the id itself: a `__parent` that names no row — a string, a
/// negative integer, one past the parent table — attaches nowhere, as in
/// the row-major tagger, and a parent table whose `__rowid`s are not its
/// row positions — a duplicate, an id out of range or not an integer, or
/// a permutation of `0..n` other than the identity — is a structured error
/// naming the first such row (the reference keys by value and has no such
/// case).
#[test]
fn a_parent_naming_no_row_attaches_nowhere_and_rowids_must_be_row_positions() {
    // An `orders` store with at least two `ref` rows, under `order` rows.
    let (fx, store) = (0..32)
        .map(|seed| {
            let fx = orders(seed);
            let store = walk(&fx, &options(1, false), None, &mut [0; 8]);
            (fx, store)
        })
        .find(|(fx, store)| {
            let refs = RelKey::Instances(fx.aig.elem("ref").unwrap());
            store.get(&refs).unwrap().len() >= 2
        })
        .expect("a seed with refs");
    let (refs, order) = (fx.aig.elem("ref").unwrap(), fx.aig.elem("order").unwrap());
    let (refs, order) = (RelKey::Instances(refs), RelKey::Instances(order));
    let tree = tag_document(&fx.aig, &fx.graph, &store).unwrap();
    let orders_n = store.get(&order).unwrap().len() as i64;
    let with = |key: &RelKey, column: &str, cells: &[(usize, Value)]| {
        let mut store = store.clone();
        let mut rel = store.get(key).unwrap().clone();
        let col = rel.col(column).unwrap();
        for (row, value) in cells {
            rel.set_cell(*row, col, value.clone());
        }
        store.slots[fx.graph.producer[key]] = rel.into();
        store
    };

    for parent in [Value::str("0"), Value::int(-1), Value::int(orders_n)] {
        let store = with(&refs, "__parent", &[(0, parent.clone())]);
        let tagged = tag_document(&fx.aig, &fx.graph, &store);
        assert_eq!(tagged, row_tagger::tag_document(&fx.aig, &fx.graph, &store));
        let lost = tree.len() - tagged.unwrap().len();
        assert_eq!(lost, 2, "`__parent` {parent:?}: the ref and its text go");
    }

    let orders_rel = store.get(&order).unwrap();
    let rowid = |row| {
        orders_rel
            .cell(row, orders_rel.col("__rowid").unwrap())
            .clone()
    };
    assert!(orders_n >= 2, "two orders to swap");
    for cells in [
        vec![(1, rowid(0))],
        vec![(0, Value::int(orders_n))],
        vec![(0, Value::str("0"))],
        vec![(0, rowid(1)), (1, rowid(0))],
    ] {
        let store = with(&order, "__rowid", &cells);
        let (row, value) = &cells[0];
        match tag_document(&fx.aig, &fx.graph, &store) {
            Err(MediatorError::Internal(msg)) => {
                let head = format!("bad instance id in T[order]: row {row}'s `__rowid` {value:?};");
                assert!(msg.starts_with(&head), "{msg}")
            }
            other => panic!("`__rowid`s {cells:?}: {other:?}"),
        }
    }
}

// -- The generator's order by instance ids ------------------------------------------

/// The options of the benchmark's `report_modes_on`: the parallel driver,
/// dynamic scheduling, 2 kernel threads, 256-row batching, integrity on.
fn modes_on() -> ExecOptions {
    ExecOptions::new(ExecPolicy {
        parallel_exec: true,
        threads: 2,
        batching: true,
        batch_rows: 256,
        check_integrity: true,
        ..ExecPolicy::default()
    })
}

/// A [`walk_with`] edit: every assembled instance table in reverse row
/// order, renumbered, so the tasks after it read parents, owners and
/// children in the opposite of the order their generators produced them.
fn reverse_instances(task: &Task, rel: &mut Relation) {
    if let TaskKind::Assemble { .. } = task.kind {
        rel.gather(&(0..rel.len() as u32).rev().collect::<Vec<_>>());
        renumber(rel);
    }
}

/// The rows of `elem`'s instance table in `store`.
fn instances<'s>(fx: &Fixture, store: &'s RelStore, elem: &str) -> &'s Relation {
    store
        .get(&RelKey::Instances(fx.aig.elem(elem).unwrap()))
        .unwrap()
}

/// `walk_with` holds every task against the reference as it goes.
#[test]
fn generator_order_matches_the_reference_under_reversed_instances() {
    for seed in 0..4u64 {
        for fx in [hospital(seed, 3), orders(seed), flow(seed)] {
            for opts in [options(1, false), modes_on()] {
                let reversed = walk_with(&fx, &opts, &mut [0; 8], reverse_instances);
                check_tagging(&fx, &reversed);
            }
        }
    }
}

/// `walk` holds every task against the reference as it goes.
#[test]
fn generator_order_matches_the_reference_on_ties_and_empty_outputs() {
    for opts in [options(1, false), options(2, true), modes_on()] {
        // Every item three times: siblings tie on every generated field.
        let fx = flow_items(11, 30, 3);
        let store = walk(&fx, &opts, None, &mut [0; 8]);
        check_tagging(&fx, &store);
        assert_eq!(
            instances(&fx, &store, "entry").len(),
            3 * 23,
            "the Monday items"
        );
        // No items: the entry generator's output is empty.
        let fx = flow_items(12, 0, 1);
        let store = walk(&fx, &opts, None, &mut [0; 8]);
        check_tagging(&fx, &store);
        assert!(instances(&fx, &store, "entry").is_empty());
    }
}

/// One parent with more than 2^17 children.
#[test]
fn generator_order_matches_the_reference_under_one_large_parent() {
    const CHILDREN: usize = 1 << 17;
    // Three items in four are Monday's.
    let fx = flow_items(13, 4 * (CHILDREN / 3 + 1), 1);
    let opts = modes_on();
    let store = walk(&fx, &opts, None, &mut [0; 8]);
    let entries = instances(&fx, &store, "entry");
    assert!(entries.len() > CHILDREN);
    let parents = entries.col_syms(entries.col("__parent").unwrap());
    assert!(parents.iter().all(|&p| p == parents[0]), "one parent");
    check_tagging(&fx, &store);
}

/// Every bad instance id is one `MediatorError::Internal` naming the table:
/// a `__rowid` column that is not the row positions `0..n` — a duplicate, a
/// negative, an out-of-range or a string id, or the positions reversed — is
/// the same error, naming its first such row, under a generator's parent
/// table, a synthesized pass's top table and the tagger, and so is a
/// generator row whose `__parent` names no instance.
#[test]
fn a_bad_instance_id_is_one_error_naming_the_table() {
    let (fx, store) = (0..32)
        .map(|seed| {
            let fx = orders(seed);
            let store = walk(&fx, &options(1, false), None, &mut [0; 8]);
            (fx, store)
        })
        .find(|(fx, store)| {
            let refs = RelKey::Instances(fx.aig.elem("ref").unwrap());
            store.get(&refs).unwrap().len() >= 2
        })
        .expect("a seed with refs");
    let opts = options(1, false);
    let order = RelKey::Instances(fx.aig.elem("order").unwrap());
    let gen = task_where(&fx, |k| {
        matches!(k, TaskKind::Gen { set_input: Some(_), parent, .. }
            if RelKey::Instances(parent.base) == order)
    });
    let syn = task_where(
        &fx,
        |k| matches!(k, TaskKind::SynAgg { occ, .. } if RelKey::Instances(occ.base) == order),
    );
    let expect_bad = |out: Result<_, MediatorError>, column: &str, value: &Value| match out {
        Err(MediatorError::Internal(msg)) => {
            let head = format!("bad instance id in T[order]: {column} {value:?};");
            assert!(msg.starts_with(&head), "{msg}");
            msg
        }
        other => panic!("{column} {value:?}: expected a bad instance id, got {other:?}"),
    };
    let orders = store.get(&order).unwrap();
    let n = orders.len() as i64;
    assert!(n >= 2, "two orders to reverse");
    let rowid = orders.col("__rowid").unwrap();
    let reversed = (0..n).rev().map(Value::int).collect();
    for cells in [
        vec![Value::int(1)],
        vec![Value::int(-1)],
        vec![Value::int(n)],
        vec![Value::str("0")],
        reversed,
    ] {
        let mut store = store.clone();
        let mut rel = orders.clone();
        for (row, value) in cells.iter().enumerate() {
            rel.set_cell(row, rowid, value.clone());
        }
        store.slots[fx.graph.producer[&order]] = rel.into();
        let exec = executor(&fx, &store, &opts);
        let column = "row 0's `__rowid`";
        let from_gen = expect_bad(exec.run_task(gen).map(|_| ()), column, &cells[0]);
        let from_syn = expect_bad(exec.run_task(syn).map(|_| ()), column, &cells[0]);
        let tagged = tag_document(&fx.aig, &fx.graph, &store).map(|_| ());
        let from_tagger = expect_bad(tagged, column, &cells[0]);
        assert_eq!((&from_syn, &from_tagger), (&from_gen, &from_gen));
    }
    let TaskKind::Gen {
        set_input: Some(input),
        ..
    } = &gen.kind
    else {
        unreachable!()
    };
    for bad in [Value::int(-1), Value::int(n), Value::str("0")] {
        let mut instead = store.get(&input.key).unwrap().clone();
        instead.set_cell(0, 0, bad.clone());
        let swapped = SwapNth {
            store: &store,
            key: input.key.clone(),
            nth: 0,
            instead,
            reads: Cell::new(0),
        };
        let out = executor(&fx, &swapped, &opts).run_task(gen);
        expect_bad(out.map(|_| ()), "`__parent`", &bad);
    }
}

// -- Synthesized sets in one pass ------------------------------------------------------

/// σ0 over a seeded tiny hospital with `dsl_tail` (constraints) added to
/// its declarations, unfolded to `depth` under `cutoff` after its
/// specialized grammar went through `edit`.
fn hospital_with(
    seed: u64,
    depth: usize,
    cutoff: CutOff,
    dsl_tail: &str,
    edit: impl Fn(&mut Aig),
) -> Fixture {
    let data = HospitalConfig::tiny(seed).generate().unwrap();
    let date = Value::str(&data.dates[0]);
    let dsl = aig_core::paper::SIGMA0_DSL.trim_end();
    let dsl = format!("{}\n  {dsl_tail}\n}}", dsl.strip_suffix('}').unwrap());
    let mut aig = specialize(&parse_aig(&dsl).unwrap());
    edit(&mut aig);
    fixture_of(aig, data.catalog, depth, cutoff, vec![("date", date)])
}

/// A set rule with an inherited-set term, and one starred element collected
/// under two occurrences: `left` collects the `item`s of `a` and of `b` (one
/// instance table, two `__occ` tags), and `right` echoes the ids it was
/// given — through `tag`, where a synthesized rule may read the inherited
/// attribute — between two copies of the ids of its own children.
fn echo(seed: u64) -> Fixture {
    let aig = parse_aig(
        r#"
        aig echo {
          dtd {
            <!ELEMENT doc (left, right, again)>
            <!ELEMENT left (a, b)>
            <!ELEMENT a (item*)>
            <!ELEMENT b (item*)>
            <!ELEMENT right (tag, list)>
            <!ELEMENT list (id*)>
            <!ELEMENT again (out*)>
            <!ELEMENT tag EMPTY>
            <!ELEMENT item (#PCDATA)>
            <!ELEMENT id (#PCDATA)>
            <!ELEMENT out (#PCDATA)>
          }
          elem doc {
            inh(day);
            child left { day = $day; }
            child right { ids = syn(left).all; }
            child again { ids = syn(right).echo; }
          }
          elem left {
            inh(day);
            syn(all: set(val));
            child a { day = $day; }
            child b { day = $day; }
            syn all = union(syn(b).all, syn(a).all);
          }
          elem a {
            inh(day);
            syn(all: set(val));
            child item* from sql {
              select t.id as val from DB1:items t where t.day = $day
            };
            syn all = collect(item.ref);
          }
          elem b {
            inh(day);
            syn(all: set(val));
            child item* from sql {
              select t.id as val from DB1:others t where t.day = $day
            };
            syn all = collect(item.ref);
          }
          elem right {
            inh(ids: set(val));
            syn(echo: set(val));
            child tag { ids = $ids; }
            child list { ids = $ids; }
            syn echo = union(syn(list).all, syn(tag).echo, syn(list).all);
          }
          elem tag {
            inh(ids: set(val));
            syn(echo: set(val));
            empty;
            syn echo = $ids;
          }
          elem list {
            inh(ids: set(val));
            syn(all: set(val));
            child id* from $ids;
            syn all = collect(id.ref);
          }
          elem again {
            inh(ids: set(val));
            child out* from $ids;
          }
          elem item { inh(val); syn(ref: set(val)); text = $val; syn ref = { $val }; }
          elem id { inh(val); syn(ref: set(val)); text = $val; syn ref = { $val }; }
          elem out { inh(val); text = $val; }
        }
        "#,
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut table = |salt: usize| {
        let n = rng.gen_range(0..20usize);
        let day = |i: usize| if i % 3 == 2 { "tue" } else { "mon" };
        let rows = (0..n)
            .rev()
            .map(|i| vec![format!("echo{seed}-{}", (i + salt) % 7), day(i).into()]);
        rows.collect::<Vec<Vec<String>>>()
    };
    let (items, others) = (table(0), table(3));
    let catalog = string_catalog(
        "DB1",
        &[
            ("items", &["id", "day"], items),
            ("others", &["id", "day"], others),
        ],
    );
    fixture(&aig, catalog, 2, vec![("day", Value::str("mon"))])
}

/// Whether a `SynAgg` task of `fx` reads another's output.
fn syn_reads_syn(fx: &Fixture) -> bool {
    let syn = |t: usize| matches!(fx.graph.tasks[t].kind, TaskKind::SynAgg { .. });
    (0..fx.graph.len()).any(|t| syn(t) && fx.graph.tasks[t].deps.iter().any(|(d, _)| syn(*d)))
}

/// A `SynAgg` task computes its whole rule in one pass, labeling every row
/// it reaches with the owner that collects it; the per-level evaluation it
/// replaced — a relation per unfolded level, re-keyed to the level above —
/// is the reference, and every output must equal it row for row, order
/// included: σ0 at Frontier depths 3 and 24 (the deepest of 24 levels
/// empty) and Truncate depth 2, a bag collector over the recursion (a key whose
/// context is above `treatment`), a set-typed field under a bag-typed one
/// (read from its own task), a choice branch, an inherited-set term, and
/// each walk again with every assembled instance table reversed.
#[test]
fn one_pass_synthesized_sets_match_the_per_level_reference() {
    let keyed = "constraint report(treatment.trId -> treatment);";
    let bag_over_sets = |aig: &mut Aig| {
        let treatments = aig.elem("treatments").unwrap();
        let decl = &mut aig.elem_info_mut(treatments).syn[0];
        assert_eq!(decl.name, "trIdS");
        decl.ty = FieldType::Bag(decl.ty.components().unwrap().to_vec());
    };
    for seed in 0..3u64 {
        let deep = hospital_with(seed, 24, CutOff::Frontier, "", |_| {});
        let deepest = deep.aig.elem("treatment@24").unwrap();
        let fixtures = [
            hospital_with(seed, 3, CutOff::Frontier, "", |_| {}),
            hospital_with(seed, 2, CutOff::Truncate, "", |_| {}),
            hospital_with(seed + 10, 4, CutOff::Frontier, keyed, |_| {}),
            hospital_with(seed + 20, 4, CutOff::Frontier, "", bag_over_sets),
            orders(seed),
            echo(seed),
            deep,
        ];
        // The key's bag is collected at the root, through every level.
        let keyed = &fixtures[2];
        let deepest_keyed = RelKey::Instances(keyed.aig.elem("treatment@4").unwrap());
        assert!(keyed.graph.tasks.iter().any(|t| match &t.kind {
            TaskKind::SynAgg { occ, .. } => {
                occ.base == keyed.aig.root && t.deps.iter().any(|(_, k)| *k == deepest_keyed)
            }
            _ => false,
        }));
        for (i, fx) in fixtures.iter().enumerate() {
            // One synthesized pass reads another's output only for a set
            // under a bag and through an inherited set (`echo`'s `tag`).
            assert_eq!(syn_reads_syn(fx), i == 3 || i == 5, "fixture {i}");
            for opts in [options(1, false), modes_on()] {
                let store = walk(fx, &opts, None, &mut [0; 8]);
                walk_with(fx, &opts, &mut [0; 8], reverse_instances);
                if i == fixtures.len() - 1 {
                    assert!(store.get(&RelKey::Instances(deepest)).unwrap().is_empty());
                }
            }
        }
    }
}

/// A rule that names one child twice reads it once: under a set a repeated
/// expansion over the same rows emits only rows already emitted, so the
/// compiled pass holds it once per table it reaches — the pass of the rule
/// naming the child once, not one 2^depth times as large — and every output
/// still equals the per-level reference. Both ways of naming it count:
/// `syn(procedure).trIdS` twice at `treatment` (one set of rows) and
/// `collect(treatment.trIdS)` twice at `procedure` (each term builds its own
/// child rows).
#[test]
fn a_child_named_twice_is_expanded_once() {
    let twice = |elem: &'static str| {
        move |aig: &mut Aig| {
            let elem = aig.elem(elem).unwrap();
            let rules = &mut aig.elem_info_mut(elem).syn_rules;
            let rule = rules.iter_mut().find(|r| r.field == "trIdS").unwrap();
            let FieldRule::Set(expr) = &mut rule.rule else {
                panic!("σ0's trIdS is a set rule")
            };
            let first = match &*expr {
                SetExpr::Union(terms) => terms[0].clone(),
                term => term.clone(),
            };
            *expr = SetExpr::Union(vec![first, expr.clone()]);
        }
    };
    // The pass compiled for `patient.2.trIdS` — its steps and the relations
    // they read — once every task of the fixture matched the reference.
    let compiled = |fx: &Fixture| {
        walk(fx, &options(1, false), None, &mut [0; 8]);
        let occ = Occ::mat(fx.aig.elem("patient").unwrap()).child(2);
        SynWalk::compile(&fx.aig, &fx.graph.bindings, &occ, "trIdS", false).unwrap()
    };
    let depth = 10;
    let once = compiled(&hospital_with(1, depth, CutOff::Frontier, "", |_| {}));
    assert!(!once.0.is_empty());
    for elem in ["treatment", "procedure"] {
        let fx = hospital_with(1, depth, CutOff::Frontier, "", twice(elem));
        assert_eq!(compiled(&fx), once, "`{elem}` names its child twice");
    }
}
