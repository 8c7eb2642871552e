//! The AIG specification model (paper §3.1).
//!
//! An AIG `σ : R → D` is a DTD `D` extended with semantic attributes,
//! semantic rules, and XML constraints. The model here generalizes the
//! paper's five production forms just enough to also express *specialized*
//! AIGs (§3.3–3.4): productions are lists of items each of which may be
//! starred (so `treatments → St, treatment*` from Fig. 4 is representable),
//! element types may be marked *internal* (computation states, stripped from
//! the final document), and synthesized attributes may have bag types with
//! guards (compiled constraints).
//!
//! [`Aig::finalize`] performs the static checks of §3.1: type compatibility
//! of every rule (checkable "statically in linear time"), coverage of every
//! attribute field by exactly one rule, and acyclicity of each production's
//! dependency relation (computing the topological evaluation order used by
//! the conceptual evaluation of §3.2).

use crate::attrs::{field_index, FieldDecl};
use crate::error::AigError;
use aig_relstore::{Fnv64, Value};
use aig_sql::Query;
use aig_xml::{ConstraintSet, ContentModel, Dtd};
use std::collections::HashMap;
use std::fmt;

/// Index of an element type within an [`Aig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ElemIdx(pub u32);

impl ElemIdx {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Index of a query within an [`Aig`]'s query table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u32);

impl QueryId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A scalar-valued expression usable in semantic rules.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueExpr {
    /// `Inh(A).x` — a scalar field of the element's own inherited attribute.
    InhField(String),
    /// `Syn(Bi).y` — a scalar synthesized field of the `item`-th child of
    /// the production.
    ChildSyn { item: usize, field: String },
    /// A constant.
    Const(Value),
}

/// A set/bag-valued expression usable in semantic rules.
#[derive(Debug, Clone, PartialEq)]
pub enum SetExpr {
    /// A set-valued field of the element's own inherited attribute.
    InhField(String),
    /// A set/bag-valued synthesized field of a (non-starred) child.
    ChildSyn { item: usize, field: String },
    /// `∪ Syn(B).f` over all instances of the starred child `item`
    /// (the paper's big-union constructor). Collecting a scalar field yields
    /// a set of 1-tuples.
    Collect { item: usize, field: String },
    /// `x1 ∪ … ∪ xk` (set union, or bag union `⊎` when the target field has
    /// bag type).
    Union(Vec<SetExpr>),
    /// `{(e1, …, ek)}` — a singleton.
    Singleton(Vec<ValueExpr>),
    /// The empty set/bag.
    Empty,
}

/// How a query's parameters are bound when the rule fires.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamSource {
    /// Bind from a field (scalar or set) of the element's inherited attribute.
    InhField(String),
    /// Bind from a synthesized field of a sibling child.
    ChildSyn { item: usize, field: String },
    /// Bind a constant.
    Const(Value),
}

/// A query together with its parameter bindings.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRule {
    pub query: QueryId,
    pub params: Vec<(String, ParamSource)>,
}

/// A rule computing one attribute field.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldRule {
    Scalar(ValueExpr),
    Set(SetExpr),
    /// An SQL query filling a set-valued field (only valid for inherited
    /// attributes: "Inh(Bi) is of a set type iff f is defined with a query").
    Query(QueryRule),
}

/// The generator of a starred item: one child instance per tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum Generator {
    /// `Inh(B) ← Q(...)` — iterate over a query result (§3.1 case 4).
    Query(QueryRule),
    /// `Inh(B) ← e` — iterate over an already-computed set (used by
    /// specialized AIGs, e.g. `Inh(treatment) ← Syn(St)` in Fig. 4).
    Set(SetExpr),
}

/// One item of a production body.
#[derive(Debug, Clone, PartialEq)]
pub struct SeqItem {
    pub elem: ElemIdx,
    pub star: bool,
    /// Set for starred items: produces one child per tuple, binding the
    /// tuple's columns to the child's scalar inherited fields by name.
    pub generator: Option<Generator>,
    /// Field assignments for the child's inherited attribute. For starred
    /// items these are broadcast to every instance (e.g.
    /// `Inh(patient).date = Inh(report).date` in Fig. 2).
    pub assigns: Vec<(String, FieldRule)>,
}

/// A rule computing one synthesized field of the element itself.
#[derive(Debug, Clone, PartialEq)]
pub struct SynRule {
    pub field: String,
    pub rule: FieldRule,
}

/// One branch of a choice production.
#[derive(Debug, Clone, PartialEq)]
pub struct ChoiceBranch {
    pub elem: ElemIdx,
    /// Inherited-attribute rules for the branch child; may reference only
    /// `Inh(A)` (the branch has no evaluated siblings).
    pub assigns: Vec<(String, FieldRule)>,
    /// Synthesized rules used when this branch is selected (`gi`); fields
    /// not covered default to null/empty.
    pub syn: Vec<SynRule>,
}

/// A production with its semantic rules.
#[derive(Debug, Clone, PartialEq)]
pub enum Prod {
    /// `A → S` with `Inh(S) = f(Inh(A))` giving the PCDATA.
    Pcdata { text: ValueExpr },
    /// `A → ε`.
    Empty,
    /// `A → B1, …, Bn` where each item may be starred. Covers the paper's
    /// `B1, …, Bn` (no stars) and `B*` (single starred item) forms, plus the
    /// mixed forms of specialized AIGs.
    Items(Vec<SeqItem>),
    /// `A → B1 + … + Bn` with a condition query selecting the branch.
    Choice {
        cond: QueryRule,
        branches: Vec<ChoiceBranch>,
    },
}

/// A compiled-constraint guard attached to an element type (§3.3): when the
/// boolean condition fails, evaluation aborts.
#[derive(Debug, Clone, PartialEq)]
pub struct Guard {
    pub kind: GuardKind,
    /// The source constraint, for error reporting.
    pub label: String,
}

/// The guard conditions generated by constraint compilation.
#[derive(Debug, Clone, PartialEq)]
pub enum GuardKind {
    /// `unique(Syn(C).field)` — the bag contains no duplicate tuples.
    Unique { field: String },
    /// `subset(Syn(C).sub, Syn(C).sup)` — set containment.
    Subset { sub: String, sup: String },
}

/// An element type of the AIG with its attributes and rules.
#[derive(Debug, Clone, PartialEq)]
pub struct ElemInfo {
    pub name: String,
    /// Internal computation state (§3.4): evaluated like any element but
    /// stripped from the resulting document.
    pub internal: bool,
    pub inh: Vec<FieldDecl>,
    pub syn: Vec<FieldDecl>,
    pub prod: Prod,
    /// Synthesized rules for non-choice productions (choice carries
    /// per-branch rules). Every syn field must be covered exactly once.
    pub syn_rules: Vec<SynRule>,
    /// Topological evaluation order over the production items, computed by
    /// [`Aig::finalize`] from the dependency relation.
    pub topo: Vec<usize>,
    /// Compiled-constraint guards checked when `Syn` of this element has
    /// been computed.
    pub guards: Vec<Guard>,
}

impl ElemInfo {
    /// The XML tag this element type emits. Recursion unfolding clones
    /// element types under names like `treatment@2`; the part before `@` is
    /// the tag written to the document (and checked against the DTD).
    pub fn tag(&self) -> &str {
        match self.name.split_once('@') {
            Some((tag, _)) => tag,
            None => &self.name,
        }
    }
}

/// A complete attribute integration grammar.
#[derive(Debug, Clone)]
pub struct Aig {
    pub name: String,
    pub(crate) elems: Vec<ElemInfo>,
    pub(crate) by_name: HashMap<String, ElemIdx>,
    pub root: ElemIdx,
    pub queries: Vec<Query>,
    /// The source-level constraints Σ (checked via compiled guards after
    /// [`crate::compile::compile_constraints`]).
    pub constraints: ConstraintSet,
    /// The target DTD `D`, used to validate evaluation output.
    pub dtd: Dtd,
}

impl Aig {
    /// Looks up an element type by name.
    pub fn elem(&self, name: &str) -> Option<ElemIdx> {
        self.by_name.get(name).copied()
    }

    pub fn elem_info(&self, idx: ElemIdx) -> &ElemInfo {
        &self.elems[idx.index()]
    }

    pub fn elem_info_mut(&mut self, idx: ElemIdx) -> &mut ElemInfo {
        &mut self.elems[idx.index()]
    }

    pub fn elem_name(&self, idx: ElemIdx) -> &str {
        &self.elems[idx.index()].name
    }

    pub fn elements(&self) -> impl Iterator<Item = ElemIdx> {
        (0..self.elems.len() as u32).map(ElemIdx)
    }

    pub fn len(&self) -> usize {
        self.elems.len()
    }

    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }

    pub fn query(&self, id: QueryId) -> &Query {
        &self.queries[id.index()]
    }

    /// Adds a query to the table, returning its id.
    pub fn add_query(&mut self, query: Query) -> QueryId {
        let id = QueryId(self.queries.len() as u32);
        self.queries.push(query);
        id
    }

    /// A stable structural fingerprint of the AIG: FNV-1a over a canonical
    /// rendering of the element infos (in index order), the query table,
    /// the constraints, and the DTD. Two structurally equal AIGs — even
    /// ones built by separate calls — fingerprint identically, so the hash
    /// can key caches of compiled artifacts (e.g. the mediator's prepared
    /// plans). The name-lookup map is deliberately excluded: `HashMap`
    /// iteration order is instance-specific.
    pub fn fingerprint(&self) -> u64 {
        use fmt::Write;
        let mut fnv = Fnv64::new();
        fnv.bytes(self.name.as_bytes());
        fnv.bytes(&self.root.0.to_le_bytes());
        // Renderings stream into the hash as they are produced; writing to
        // it never fails.
        for elem in &self.elems {
            let _ = write!(fnv, "{elem:?}");
        }
        for query in &self.queries {
            let _ = write!(fnv, "{query:?}");
        }
        let _ = write!(fnv, "{:?}", self.constraints);
        let _ = self.dtd.write_canonical(&mut fnv);
        fnv.finish()
    }

    /// Registers a new element type. Used by the specialization transforms
    /// (§3.3–3.4) and recursion unfolding (§5.5).
    pub fn add_elem(&mut self, info: ElemInfo) -> ElemIdx {
        let idx = ElemIdx(self.elems.len() as u32);
        self.by_name.insert(info.name.clone(), idx);
        self.elems.push(info);
        idx
    }

    /// An empty copy of this AIG: same name, query table, constraints and
    /// DTD, but no element types. Transforms repopulate it with
    /// [`Aig::add_elem`] and then call [`Aig::set_root`] and
    /// [`Aig::finalize`].
    pub fn clone_shell(&self) -> Aig {
        Aig {
            name: self.name.clone(),
            elems: Vec::new(),
            by_name: HashMap::new(),
            root: ElemIdx(0),
            queries: self.queries.clone(),
            constraints: self.constraints.clone(),
            dtd: self.dtd.clone(),
        }
    }

    /// Re-points the root element (used after unfolding).
    pub fn set_root(&mut self, root: ElemIdx) {
        self.root = root;
    }

    /// The root element's inherited fields — the AIG's global parameters
    /// ("the attribute of the AIG", §3.1).
    pub fn root_params(&self) -> &[FieldDecl] {
        &self.elems[self.root.index()].inh
    }

    /// True if `name` names an internal computation state.
    pub fn is_internal_name(&self, name: &str) -> bool {
        self.elem(name)
            .map(|idx| self.elems[idx.index()].internal)
            .unwrap_or(false)
    }

    /// Child element types of `idx`'s production.
    pub fn children_of(&self, idx: ElemIdx) -> Vec<ElemIdx> {
        match &self.elems[idx.index()].prod {
            Prod::Pcdata { .. } | Prod::Empty => Vec::new(),
            Prod::Items(items) => items.iter().map(|i| i.elem).collect(),
            Prod::Choice { branches, .. } => branches.iter().map(|b| b.elem).collect(),
        }
    }

    // ---------------------------------------------------------------------
    // Static validation (§3.1)
    // ---------------------------------------------------------------------

    /// Validates the specification and computes per-production topological
    /// orders. Must be called (by the builder) before evaluation. Also
    /// rejects a constraint the grammar cannot host
    /// (`compile::check_constraints`).
    pub fn finalize(&mut self) -> Result<(), AigError> {
        // Root parameters must be scalars (they are the mapping's inputs).
        for field in self.root_params() {
            if !field.ty.is_scalar() {
                return Err(AigError::Spec(format!(
                    "root parameter `{}` must be scalar",
                    field.name
                )));
            }
        }
        for idx in 0..self.elems.len() {
            self.check_elem(ElemIdx(idx as u32))?;
            let topo = self.compute_topo(ElemIdx(idx as u32))?;
            self.elems[idx].topo = topo;
        }
        self.check_against_dtd()?;
        crate::compile::check_constraints(self)
    }

    fn check_elem(&self, idx: ElemIdx) -> Result<(), AigError> {
        let info = &self.elems[idx.index()];
        let ctx = |msg: String| AigError::Spec(format!("element `{}`: {msg}", info.name));

        // Duplicate field names within inh/syn.
        for decls in [&info.inh, &info.syn] {
            for (i, d) in decls.iter().enumerate() {
                if decls[..i].iter().any(|other| other.name == d.name) {
                    return Err(ctx(format!("duplicate attribute field `{}`", d.name)));
                }
            }
        }

        match &info.prod {
            Prod::Pcdata { text } => {
                self.check_scalar_expr(idx, text, &[])
                    .map_err(|e| ctx(format!("text rule: {e}")))?;
                self.check_syn_rules(idx, &info.syn_rules, &[])?;
            }
            Prod::Empty => {
                self.check_syn_rules(idx, &info.syn_rules, &[])?;
            }
            Prod::Items(items) => {
                for (item_pos, item) in items.iter().enumerate() {
                    self.check_item(idx, item_pos, item, items)?;
                }
                self.check_syn_rules(idx, &info.syn_rules, items)?;
            }
            Prod::Choice { cond, branches } => {
                self.check_query_rule(idx, cond, &[])
                    .map_err(|e| ctx(format!("condition query: {e}")))?;
                if branches.is_empty() {
                    return Err(ctx("choice production needs at least one branch".into()));
                }
                for branch in branches {
                    let child = &self.elems[branch.elem.index()];
                    self.check_assign_coverage(idx, branch.elem, &branch.assigns, None)
                        .map_err(|e| ctx(format!("branch `{}`: {e}", child.name)))?;
                    for (field, rule) in &branch.assigns {
                        self.check_field_rule(idx, rule, &child.inh, field, &[])
                            .map_err(|e| {
                                ctx(format!("branch `{}`, field `{field}`: {e}", child.name))
                            })?;
                    }
                    // Per-branch syn rules may reference the branch child as
                    // a pseudo-item list of one.
                    let pseudo = [SeqItem {
                        elem: branch.elem,
                        star: false,
                        generator: None,
                        assigns: Vec::new(),
                    }];
                    self.check_syn_rules_with(idx, &branch.syn, &pseudo, false)?;
                }
                if !info.syn_rules.is_empty() {
                    return Err(ctx(
                        "choice productions carry synthesized rules per branch, not globally"
                            .into(),
                    ));
                }
            }
        }

        // Guards reference syn fields with the right types.
        for guard in &info.guards {
            match &guard.kind {
                GuardKind::Unique { field } => {
                    let i = field_index(&info.syn, field)
                        .ok_or_else(|| ctx(format!("guard on unknown syn field `{field}`")))?;
                    if info.syn[i].ty.is_scalar() {
                        return Err(ctx(format!(
                            "unique guard needs a bag/set field, `{field}` is scalar"
                        )));
                    }
                }
                GuardKind::Subset { sub, sup } => {
                    for f in [sub, sup] {
                        let i = field_index(&info.syn, f)
                            .ok_or_else(|| ctx(format!("guard on unknown syn field `{f}`")))?;
                        if info.syn[i].ty.is_scalar() {
                            return Err(ctx(format!(
                                "subset guard needs set fields, `{f}` is scalar"
                            )));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn check_item(
        &self,
        parent: ElemIdx,
        item_pos: usize,
        item: &SeqItem,
        items: &[SeqItem],
    ) -> Result<(), AigError> {
        let parent_name = &self.elems[parent.index()].name;
        let child = &self.elems[item.elem.index()];
        let ctx = |msg: String| {
            AigError::Spec(format!(
                "element `{parent_name}`, child `{}` (item {item_pos}): {msg}",
                child.name
            ))
        };
        if item.star != item.generator.is_some() {
            return Err(ctx(if item.star {
                "starred items need a generator".into()
            } else {
                "non-starred items must not have a generator".into()
            }));
        }
        // Field assignments type-check and target existing child inh fields.
        for (field, rule) in &item.assigns {
            self.check_field_rule(parent, rule, &child.inh, field, items)
                .map_err(|e| ctx(format!("field `{field}`: {e}")))?;
        }
        // Duplicate assignment check + coverage.
        self.check_assign_coverage(parent, item.elem, &item.assigns, item.generator.as_ref())
            .map_err(|e| ctx(e.to_string()))?;
        // Generator output must cover the unassigned scalar inh fields.
        // Exception: the empty generator (used to cut off recursion at the
        // unfolding depth, §5.5) produces no children, so coverage is moot.
        if matches!(item.generator, Some(Generator::Set(SetExpr::Empty))) {
            return Ok(());
        }
        if let Some(generator) = &item.generator {
            let columns: Vec<String> = match generator {
                Generator::Query(qr) => {
                    self.check_query_rule(parent, qr, items)
                        .map_err(|e| ctx(format!("generator query: {e}")))?;
                    self.queries[qr.query.index()].output_columns()
                }
                Generator::Set(expr) => self
                    .set_expr_components(parent, expr, items)
                    .map_err(|e| ctx(format!("generator expression: {e}")))?
                    .unwrap_or_default(),
            };
            for field in &child.inh {
                let assigned = item.assigns.iter().any(|(f, _)| f == &field.name);
                if assigned {
                    continue;
                }
                if !field.ty.is_scalar() {
                    return Err(ctx(format!(
                        "set-valued inherited field `{}` of a starred child must be \
                         covered by an explicit assignment",
                        field.name
                    )));
                }
                if !columns.contains(&field.name) {
                    return Err(ctx(format!(
                        "generator output {:?} does not provide inherited field `{}`",
                        columns, field.name
                    )));
                }
            }
        }
        Ok(())
    }

    /// Every inherited field of `child` must be assigned exactly once (or be
    /// covered by the generator's output columns).
    fn check_assign_coverage(
        &self,
        _parent: ElemIdx,
        child: ElemIdx,
        assigns: &[(String, FieldRule)],
        generator: Option<&Generator>,
    ) -> Result<(), AigError> {
        let child_info = &self.elems[child.index()];
        for (i, (field, _)) in assigns.iter().enumerate() {
            if field_index(&child_info.inh, field).is_none() {
                return Err(AigError::Spec(format!(
                    "assignment to unknown inherited field `{field}`"
                )));
            }
            if assigns[..i].iter().any(|(f, _)| f == field) {
                return Err(AigError::Spec(format!(
                    "inherited field `{field}` assigned more than once"
                )));
            }
        }
        if generator.is_none() {
            for field in &child_info.inh {
                if !assigns.iter().any(|(f, _)| f == &field.name) {
                    return Err(AigError::Spec(format!(
                        "inherited field `{}` is never assigned",
                        field.name
                    )));
                }
            }
        }
        Ok(())
    }

    fn check_syn_rules(
        &self,
        idx: ElemIdx,
        rules: &[SynRule],
        items: &[SeqItem],
    ) -> Result<(), AigError> {
        self.check_syn_rules_with(idx, rules, items, true)
    }

    fn check_syn_rules_with(
        &self,
        idx: ElemIdx,
        rules: &[SynRule],
        items: &[SeqItem],
        require_cover: bool,
    ) -> Result<(), AigError> {
        let info = &self.elems[idx.index()];
        let ctx =
            |msg: String| AigError::Spec(format!("element `{}`, syn rules: {msg}", info.name));
        for (i, rule) in rules.iter().enumerate() {
            if field_index(&info.syn, &rule.field).is_none() {
                return Err(ctx(format!("unknown synthesized field `{}`", rule.field)));
            }
            if rules[..i].iter().any(|r| r.field == rule.field) {
                return Err(ctx(format!(
                    "synthesized field `{}` defined more than once",
                    rule.field
                )));
            }
            if matches!(rule.rule, FieldRule::Query(_)) {
                return Err(ctx(format!(
                    "synthesized field `{}` may not be computed by a query \
                     (synthesized attributes use tuple/set constructors only, §3.1)",
                    rule.field
                )));
            }
            // §3.1: "This is one of the two cases where Syn(A) can be
            // defined using Inh(A)" — only S and ε productions may read the
            // element's own inherited attribute in synthesized rules.
            if !matches!(info.prod, Prod::Pcdata { .. } | Prod::Empty) {
                let mut uses_inh = false;
                collect_inh_use(&rule.rule, &mut uses_inh);
                if uses_inh {
                    return Err(ctx(format!(
                        "synthesized field `{}` reads Inh({}); synthesized attributes \
                         may use the inherited attribute only in S and ε productions \
                         (§3.1) — route the value through a child instead",
                        rule.field, info.name
                    )));
                }
            }
            self.check_field_rule(idx, &rule.rule, &info.syn, &rule.field, items)
                .map_err(|e| ctx(format!("field `{}`: {e}", rule.field)))?;
        }
        if require_cover {
            for field in &info.syn {
                if !rules.iter().any(|r| r.field == field.name) {
                    return Err(ctx(format!(
                        "synthesized field `{}` has no rule",
                        field.name
                    )));
                }
            }
        }
        Ok(())
    }

    /// Type-checks a rule against the target field's declaration found in
    /// `target_decls` (either a child's inh decls or the element's own syn
    /// decls).
    fn check_field_rule(
        &self,
        parent: ElemIdx,
        rule: &FieldRule,
        target_decls: &[FieldDecl],
        target_field: &str,
        items: &[SeqItem],
    ) -> Result<(), AigError> {
        let target = field_index(target_decls, target_field)
            .ok_or_else(|| AigError::Spec(format!("unknown target field `{target_field}`")))?;
        let target_ty = &target_decls[target].ty;
        match rule {
            FieldRule::Scalar(expr) => {
                if !target_ty.is_scalar() {
                    return Err(AigError::Spec(format!(
                        "scalar rule assigned to {target_ty} field"
                    )));
                }
                self.check_scalar_expr(parent, expr, items)
            }
            FieldRule::Set(expr) => {
                let Some(components) = target_ty.components() else {
                    return Err(AigError::Spec(
                        "set rule assigned to scalar field".to_string(),
                    ));
                };
                if let Some(got) = self.set_expr_components(parent, expr, items)? {
                    if got.len() != components.len() {
                        return Err(AigError::Spec(format!(
                            "set expression has arity {} but target has {}",
                            got.len(),
                            components.len()
                        )));
                    }
                }
                Ok(())
            }
            FieldRule::Query(qr) => {
                let Some(components) = target_ty.components() else {
                    return Err(AigError::Spec(
                        "a query rule always produces a set; the target field is scalar \
                         (\"Inh(Bi) is of a set type iff f is defined with a query\", §3.1)"
                            .to_string(),
                    ));
                };
                self.check_query_rule(parent, qr, items)?;
                let columns = self.queries[qr.query.index()].output_columns();
                if columns != components {
                    return Err(AigError::Spec(format!(
                        "query outputs columns {columns:?} but the target field has \
                         components {components:?}"
                    )));
                }
                Ok(())
            }
        }
    }

    fn check_scalar_expr(
        &self,
        parent: ElemIdx,
        expr: &ValueExpr,
        items: &[SeqItem],
    ) -> Result<(), AigError> {
        let info = &self.elems[parent.index()];
        match expr {
            ValueExpr::Const(_) => Ok(()),
            ValueExpr::InhField(name) => {
                let i = field_index(&info.inh, name).ok_or_else(|| {
                    AigError::Spec(format!("no inherited field `{name}` on `{}`", info.name))
                })?;
                if !info.inh[i].ty.is_scalar() {
                    return Err(AigError::Spec(format!(
                        "inherited field `{name}` is set-valued, expected scalar"
                    )));
                }
                Ok(())
            }
            ValueExpr::ChildSyn { item, field } => {
                let seq_item = items.get(*item).ok_or_else(|| {
                    AigError::Spec(format!("reference to nonexistent production item {item}"))
                })?;
                if seq_item.star {
                    return Err(AigError::Spec(format!(
                        "scalar reference to starred child `{}`; use collect(...)",
                        self.elems[seq_item.elem.index()].name
                    )));
                }
                let child = &self.elems[seq_item.elem.index()];
                let i = field_index(&child.syn, field).ok_or_else(|| {
                    AigError::Spec(format!(
                        "no synthesized field `{field}` on `{}`",
                        child.name
                    ))
                })?;
                if !child.syn[i].ty.is_scalar() {
                    return Err(AigError::Spec(format!(
                        "synthesized field `{field}` of `{}` is set-valued, expected scalar",
                        child.name
                    )));
                }
                Ok(())
            }
        }
    }

    /// Returns the component names produced by a set expression, or `None`
    /// for the polymorphic empty set (which matches any target arity).
    fn set_expr_components(
        &self,
        parent: ElemIdx,
        expr: &SetExpr,
        items: &[SeqItem],
    ) -> Result<Option<Vec<String>>, AigError> {
        let info = &self.elems[parent.index()];
        match expr {
            SetExpr::Empty => Ok(None),
            SetExpr::Singleton(exprs) => {
                for e in exprs {
                    self.check_scalar_expr(parent, e, items)?;
                }
                Ok(Some((0..exprs.len()).map(|i| format!("c{i}")).collect()))
            }
            SetExpr::InhField(name) => {
                let i = field_index(&info.inh, name).ok_or_else(|| {
                    AigError::Spec(format!("no inherited field `{name}` on `{}`", info.name))
                })?;
                info.inh[i]
                    .ty
                    .components()
                    .map(|c| Some(c.to_vec()))
                    .ok_or_else(|| {
                        AigError::Spec(format!("inherited field `{name}` is scalar, expected set"))
                    })
            }
            SetExpr::ChildSyn { item, field } => {
                let seq_item = items.get(*item).ok_or_else(|| {
                    AigError::Spec(format!("reference to nonexistent production item {item}"))
                })?;
                if seq_item.star {
                    return Err(AigError::Spec(format!(
                        "set reference to starred child `{}`; use collect(...)",
                        self.elems[seq_item.elem.index()].name
                    )));
                }
                let child = &self.elems[seq_item.elem.index()];
                let i = field_index(&child.syn, field).ok_or_else(|| {
                    AigError::Spec(format!(
                        "no synthesized field `{field}` on `{}`",
                        child.name
                    ))
                })?;
                child.syn[i]
                    .ty
                    .components()
                    .map(|c| Some(c.to_vec()))
                    .ok_or_else(|| {
                        AigError::Spec(format!(
                            "synthesized field `{field}` of `{}` is scalar, expected set",
                            child.name
                        ))
                    })
            }
            SetExpr::Collect { item, field } => {
                let seq_item = items.get(*item).ok_or_else(|| {
                    AigError::Spec(format!("reference to nonexistent production item {item}"))
                })?;
                if !seq_item.star {
                    return Err(AigError::Spec(
                        "collect(...) requires a starred child".to_string(),
                    ));
                }
                let child = &self.elems[seq_item.elem.index()];
                let i = field_index(&child.syn, field).ok_or_else(|| {
                    AigError::Spec(format!(
                        "no synthesized field `{field}` on `{}`",
                        child.name
                    ))
                })?;
                match child.syn[i].ty.components() {
                    Some(c) => Ok(Some(c.to_vec())),
                    // Collecting a scalar gives a set of 1-tuples.
                    None => Ok(Some(vec![field.clone()])),
                }
            }
            SetExpr::Union(terms) => {
                let mut found: Option<Vec<String>> = None;
                for term in terms {
                    let Some(c) = self.set_expr_components(parent, term, items)? else {
                        continue;
                    };
                    match &found {
                        None => found = Some(c),
                        Some(first) if first.len() != c.len() => {
                            return Err(AigError::Spec(format!(
                                "union of sets with different arities ({} vs {})",
                                first.len(),
                                c.len()
                            )))
                        }
                        Some(_) => {}
                    }
                }
                Ok(found)
            }
        }
    }

    fn check_query_rule(
        &self,
        parent: ElemIdx,
        qr: &QueryRule,
        items: &[SeqItem],
    ) -> Result<(), AigError> {
        let info = &self.elems[parent.index()];
        if qr.query.index() >= self.queries.len() {
            return Err(AigError::Spec(format!(
                "query id {} out of range",
                qr.query.0
            )));
        }
        let query = &self.queries[qr.query.index()];
        // Every parameter the query mentions must be bound.
        let needed = query.params();
        for name in &needed {
            if !qr.params.iter().any(|(p, _)| p == name) {
                return Err(AigError::Spec(format!(
                    "query parameter `${name}` is not bound"
                )));
            }
        }
        for (name, source) in &qr.params {
            match source {
                ParamSource::Const(_) => {}
                ParamSource::InhField(field) => {
                    if field_index(&info.inh, field).is_none() {
                        return Err(AigError::Spec(format!(
                            "parameter `${name}` bound to unknown inherited field `{field}`"
                        )));
                    }
                }
                ParamSource::ChildSyn { item, field } => {
                    let seq_item = items.get(*item).ok_or_else(|| {
                        AigError::Spec(format!(
                            "parameter `${name}` bound to nonexistent production item {item}"
                        ))
                    })?;
                    let child = &self.elems[seq_item.elem.index()];
                    if field_index(&child.syn, field).is_none() {
                        return Err(AigError::Spec(format!(
                            "parameter `${name}` bound to unknown synthesized field \
                             `{field}` of `{}`",
                            child.name
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    // ---------------------------------------------------------------------
    // Dependency relation and topological order (§3.1 / §3.2)
    // ---------------------------------------------------------------------

    /// Production items that item `i`'s rules depend on (B depends on B′ iff
    /// Inh(B) is defined using Syn(B′)).
    pub fn item_deps(&self, idx: ElemIdx, item_pos: usize) -> Vec<usize> {
        let info = &self.elems[idx.index()];
        let Prod::Items(items) = &info.prod else {
            return Vec::new();
        };
        let item = &items[item_pos];
        let mut deps = Vec::new();
        let mut add = |j: usize| {
            if !deps.contains(&j) {
                deps.push(j);
            }
        };
        for (_, rule) in &item.assigns {
            collect_rule_deps(rule, &mut add);
        }
        if let Some(generator) = &item.generator {
            match generator {
                Generator::Query(qr) => {
                    for (_, src) in &qr.params {
                        if let ParamSource::ChildSyn { item: j, .. } = src {
                            add(*j);
                        }
                    }
                }
                Generator::Set(expr) => collect_set_deps(expr, &mut add),
            }
        }
        deps.retain(|&j| j != item_pos);
        deps
    }

    /// Computes a topological order of the items of a production, failing
    /// with [`AigError::CyclicDependency`] when the dependency relation is
    /// cyclic.
    fn compute_topo(&self, idx: ElemIdx) -> Result<Vec<usize>, AigError> {
        let info = &self.elems[idx.index()];
        let Prod::Items(items) = &info.prod else {
            return Ok(Vec::new());
        };
        let n = items.len();
        let deps: Vec<Vec<usize>> = (0..n).map(|i| self.item_deps(idx, i)).collect();
        let mut order = Vec::with_capacity(n);
        let mut state = vec![0u8; n]; // 0 = white, 1 = grey, 2 = black
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for start in 0..n {
            if state[start] != 0 {
                continue;
            }
            stack.push((start, 0));
            state[start] = 1;
            while let Some(&mut (node, ref mut edge)) = stack.last_mut() {
                if *edge < deps[node].len() {
                    let next = deps[node][*edge];
                    *edge += 1;
                    match state[next] {
                        0 => {
                            state[next] = 1;
                            stack.push((next, 0));
                        }
                        1 => {
                            let cycle: Vec<String> = stack
                                .iter()
                                .map(|&(i, _)| self.elems[items[i].elem.index()].name.clone())
                                .collect();
                            return Err(AigError::CyclicDependency {
                                elem: info.name.clone(),
                                cycle,
                            });
                        }
                        _ => {}
                    }
                } else {
                    state[node] = 2;
                    order.push(node);
                    stack.pop();
                }
            }
        }
        Ok(order)
    }

    // ---------------------------------------------------------------------
    // DTD conformance of the specification itself
    // ---------------------------------------------------------------------

    /// Checks that the AIG's productions (restricted to non-internal
    /// elements) agree with the target DTD, so that evaluation output is
    /// guaranteed to conform (§3.2).
    fn check_against_dtd(&self) -> Result<(), AigError> {
        for idx in self.elements() {
            let info = &self.elems[idx.index()];
            if info.internal {
                continue;
            }
            let Some(dtd_elem) = self.dtd.elem(info.tag()) else {
                return Err(AigError::Spec(format!(
                    "element `{}` is not declared in the DTD",
                    info.name
                )));
            };
            let expected = self.dtd.production(dtd_elem);
            // The visible (non-internal) items must match the DTD production.
            let visible: Vec<(&str, bool)> = match &info.prod {
                Prod::Pcdata { .. } => {
                    if !matches!(expected, ContentModel::Pcdata) {
                        return Err(self.dtd_mismatch(info, expected));
                    }
                    continue;
                }
                Prod::Empty => {
                    if !matches!(expected, ContentModel::Empty) {
                        return Err(self.dtd_mismatch(info, expected));
                    }
                    continue;
                }
                Prod::Choice { branches, .. } => {
                    let ContentModel::Choice(dtd_branches) = expected else {
                        return Err(self.dtd_mismatch(info, expected));
                    };
                    let got: Vec<&str> = branches
                        .iter()
                        .map(|b| self.elems[b.elem.index()].tag())
                        .collect();
                    let want: Vec<&str> = dtd_branches.iter().map(|&b| self.dtd.name(b)).collect();
                    if got != want {
                        return Err(self.dtd_mismatch(info, expected));
                    }
                    continue;
                }
                Prod::Items(items) => items
                    .iter()
                    .filter(|i| !self.elems[i.elem.index()].internal)
                    .map(|i| (self.elems[i.elem.index()].tag(), i.star))
                    .collect(),
            };
            match expected {
                ContentModel::Seq(children) => {
                    let want: Vec<(&str, bool)> = children
                        .iter()
                        .map(|&b| (self.dtd.name(b), false))
                        .collect();
                    if visible != want {
                        return Err(self.dtd_mismatch(info, expected));
                    }
                }
                ContentModel::Star(child) => {
                    // A star with its recursive item truncated away (§5.5)
                    // has no visible items; zero children conform to `B*`.
                    let want = vec![(self.dtd.name(*child), true)];
                    if visible != want && !visible.is_empty() {
                        return Err(self.dtd_mismatch(info, expected));
                    }
                }
                ContentModel::Empty if visible.is_empty() => {}
                _ => return Err(self.dtd_mismatch(info, expected)),
            }
        }
        // Root element matches.
        if self.elem_info(self.root).tag() != self.dtd.name(self.dtd.root()) {
            return Err(AigError::Spec(format!(
                "AIG root `{}` differs from DTD root `{}`",
                self.elem_name(self.root),
                self.dtd.name(self.dtd.root())
            )));
        }
        Ok(())
    }

    fn dtd_mismatch(&self, info: &ElemInfo, expected: &ContentModel) -> AigError {
        AigError::Spec(format!(
            "production of `{}` does not match its DTD declaration ({expected:?})",
            info.name
        ))
    }
}

impl fmt::Display for Aig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "aig {} ({} element types, {} queries)",
            self.name,
            self.elems.len(),
            self.queries.len()
        )?;
        for idx in self.elements() {
            let info = &self.elems[idx.index()];
            let kind = match &info.prod {
                Prod::Pcdata { .. } => "#PCDATA".to_string(),
                Prod::Empty => "EMPTY".to_string(),
                Prod::Items(items) => items
                    .iter()
                    .map(|i| {
                        let name = &self.elems[i.elem.index()].name;
                        if i.star {
                            format!("{name}*")
                        } else {
                            name.clone()
                        }
                    })
                    .collect::<Vec<_>>()
                    .join(", "),
                Prod::Choice { branches, .. } => branches
                    .iter()
                    .map(|b| self.elems[b.elem.index()].name.clone())
                    .collect::<Vec<_>>()
                    .join(" + "),
            };
            let marker = if info.internal { " (internal)" } else { "" };
            writeln!(f, "  {}{} -> {}", info.name, marker, kind)?;
        }
        Ok(())
    }
}

fn collect_rule_deps(rule: &FieldRule, add: &mut impl FnMut(usize)) {
    match rule {
        FieldRule::Scalar(expr) => collect_value_deps(expr, add),
        FieldRule::Set(expr) => collect_set_deps(expr, add),
        FieldRule::Query(qr) => {
            for (_, src) in &qr.params {
                if let ParamSource::ChildSyn { item, .. } = src {
                    add(*item);
                }
            }
        }
    }
}

fn collect_value_deps(expr: &ValueExpr, add: &mut impl FnMut(usize)) {
    if let ValueExpr::ChildSyn { item, .. } = expr {
        add(*item);
    }
}

fn collect_set_deps(expr: &SetExpr, add: &mut impl FnMut(usize)) {
    match expr {
        SetExpr::InhField(_) | SetExpr::Empty => {}
        SetExpr::ChildSyn { item, .. } | SetExpr::Collect { item, .. } => add(*item),
        SetExpr::Union(terms) => {
            for t in terms {
                collect_set_deps(t, add);
            }
        }
        SetExpr::Singleton(exprs) => {
            for e in exprs {
                collect_value_deps(e, add);
            }
        }
    }
}

/// Marks `uses` when a rule reads the element's own inherited attribute.
fn collect_inh_use(rule: &FieldRule, uses: &mut bool) {
    fn value(expr: &ValueExpr, uses: &mut bool) {
        if matches!(expr, ValueExpr::InhField(_)) {
            *uses = true;
        }
    }
    fn set(expr: &SetExpr, uses: &mut bool) {
        match expr {
            SetExpr::InhField(_) => *uses = true,
            SetExpr::Union(terms) => terms.iter().for_each(|t| set(t, uses)),
            SetExpr::Singleton(parts) => parts.iter().for_each(|p| value(p, uses)),
            SetExpr::ChildSyn { .. } | SetExpr::Collect { .. } | SetExpr::Empty => {}
        }
    }
    match rule {
        FieldRule::Scalar(expr) => value(expr, uses),
        FieldRule::Set(expr) => set(expr, uses),
        FieldRule::Query(qr) => {
            for (_, src) in &qr.params {
                if matches!(src, ParamSource::InhField(_)) {
                    *uses = true;
                }
            }
        }
    }
}
