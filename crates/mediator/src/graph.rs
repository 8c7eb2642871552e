//! The query dependency graph (paper §5.1) and set-oriented rewriting.
//!
//! The mediator evaluates a (specialized, unfolded) AIG by building a DAG of
//! **tasks**: set-oriented source queries plus mediator-side operations
//! (instance-table assembly, synthesized-attribute aggregation — the
//! Q5/Q6-style mediator nodes of Fig. 7 —, choice resolution, and guard
//! checks). Each parameterized rule query is rewritten to take *entire
//! temporary tables* instead of a tuple at a time: the paper's
//! transformation of `Q2(v)` into `Q2(Tpatient)` (§5.1), with the parent
//! row id taking the role of the key path that "uniquely identifies the
//! position of a node in the XML tree".
//!
//! Materialization policy (this is the paper's copy elimination, §4, applied
//! by construction): instance tables exist only for the root, starred
//! children, and choice branches. All other elements are *virtual* — their
//! inherited attributes resolve through copy chains into the nearest
//! materialized ancestor's table, so no query or table is spent on them.

use crate::error::MediatorError;
use crate::exec::{branch_tag, child_columns, instance_columns, occ_tag};
use aig_core::copyelim::{resolve_scalar, ResolvedScalar};
use aig_core::spec::{
    Aig, ElemIdx, FieldRule, Generator, ParamSource, Prod, QueryRule, SetExpr, SynRule, ValueExpr,
};
use aig_core::FieldDecl;
use aig_relstore::{Catalog, ColNames, SourceId, Value};
use aig_sql::cost::{estimate, CatalogStats, CostEstimate, CostModel, ParamStats};
use aig_sql::{FromItem, Pred, QualCol, Query, Scalar, SelectItem, SetRef};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// An occurrence of an element in the unfolded AIG: the nearest materialized
/// ancestor (`base`) plus the chain of production-item positions leading
/// down through virtual elements. Materialized elements have an empty path.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Occ {
    pub base: ElemIdx,
    pub path: Vec<usize>,
}

impl Occ {
    pub fn mat(base: ElemIdx) -> Occ {
        Occ {
            base,
            path: Vec::new(),
        }
    }

    pub fn child(&self, item: usize) -> Occ {
        let mut path = self.path.clone();
        path.push(item);
        Occ {
            base: self.base,
            path,
        }
    }

    /// A stable display key, also used as the `__occ` tag of instance rows.
    pub fn key(&self, aig: &Aig) -> String {
        let mut s = aig.elem_name(self.base).to_string();
        for p in &self.path {
            s.push('.');
            s.push_str(&p.to_string());
        }
        s
    }
}

/// How one scalar inherited field of an occurrence reads out of its base
/// instance table.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarBind {
    /// A column of `T_base`.
    Col(String),
    Const(Value),
}

/// Keys of the relations the tasks produce and consume.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RelKey {
    /// The assembled instance table of a materialized element
    /// (`__rowid, __parent, __ord, __occ, fields…`).
    Instances(ElemIdx),
    /// Output of the generator query of the starred item `item` under the
    /// occurrence (`__parent, fields…`).
    GenOut(Occ, usize),
    /// A set-valued inherited field of an occurrence (`__owner, comps…`).
    InhSet(Occ, String),
    /// A set/bag-valued synthesized field of an occurrence
    /// (`__owner, comps…`).
    Syn(Occ, String),
    /// The choice pick table of an occurrence (`__owner, __pick`).
    Pick(Occ),
    /// The branch-child instance slice of a choice occurrence.
    BranchOut(Occ, usize),
}

impl RelKey {
    pub fn describe(&self, aig: &Aig) -> String {
        match self {
            RelKey::Instances(e) => format!("T[{}]", aig.elem_name(*e)),
            RelKey::GenOut(occ, item) => format!("gen[{}#{item}]", occ.key(aig)),
            RelKey::InhSet(occ, f) => format!("inh[{}.{f}]", occ.key(aig)),
            RelKey::Syn(occ, f) => format!("syn[{}.{f}]", occ.key(aig)),
            RelKey::Pick(occ) => format!("pick[{}]", occ.key(aig)),
            RelKey::BranchOut(occ, b) => format!("branch[{}#{b}]", occ.key(aig)),
        }
    }
}

/// The inherited-attribute binding of one occurrence.
#[derive(Debug, Clone)]
pub struct Binding {
    pub elem: ElemIdx,
    pub occ: Occ,
    pub scalars: HashMap<String, ScalarBind>,
    pub sets: HashMap<String, RelKey>,
}

/// How a relation parameter enters a vectorized query.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ParamInput {
    /// The base instance table itself (bound as `$__base`).
    Base(ElemIdx),
    /// A relation, joined with its `__owner` column.
    Rel(RelKey),
    /// The distinct projection (`__owner`, first component) of a relation —
    /// the set-oriented form of an `IN` predicate.
    RelFirstDistinct(RelKey),
}

/// A source query after set-oriented rewriting.
#[derive(Debug, Clone)]
pub struct VectorQuery {
    pub query: Query,
    /// `query.output_columns()`, shared by every relation the query returns.
    pub columns: ColNames,
    /// Parameter name → what to bind it to at execution time.
    pub inputs: Vec<(String, ParamInput)>,
    pub source: SourceId,
}

/// What a task does.
#[derive(Debug, Clone)]
pub enum TaskKind {
    /// Builds the one-row root instance table (mediator).
    Root,
    /// A set-oriented generator query for a starred item (at a source), or a
    /// mediator iteration over an already-computed set.
    Gen {
        parent: Occ,
        item: usize,
        query: Option<VectorQuery>,
        /// For `Generator::Set`: the relation iterated.
        set_input: Option<RelKey>,
        /// Broadcast scalar assigns resolved against the parent binding
        /// (field name → bind), applied when assembling.
        broadcast: Vec<(String, ScalarBind)>,
        /// Child inherited scalar fields fed by generator output columns.
        generated_fields: Vec<String>,
    },
    /// A set-valued inherited field computed by a query (at a source).
    InhSetQuery {
        target: Occ,
        field: String,
        query: VectorQuery,
    },
    /// Concatenates the occurrence outputs into the instance table
    /// (mediator).
    Assemble { elem: ElemIdx, inputs: Vec<RelKey> },
    /// Synthesized-attribute aggregation (mediator).
    SynAgg { occ: Occ, field: String },
    /// Choice condition query (at a source).
    Cond { occ: Occ, query: VectorQuery },
    /// Materializes the instances of one choice branch (mediator).
    BranchMat { occ: Occ, branch: usize },
    /// A compiled-constraint guard check (mediator).
    Guard { occ: Occ, guard: usize },
}

/// One node of the task graph.
#[derive(Debug, Clone)]
pub struct Task {
    pub kind: TaskKind,
    pub source: SourceId,
    pub label: String,
    /// Producer tasks this task reads from, with the relation read.
    pub deps: Vec<(usize, RelKey)>,
    /// The relation this task writes (None for guards).
    pub output: Option<RelKey>,
    /// The column names of that relation (none for guards): computed once
    /// with the graph and shared by every relation the task produces.
    pub schema: ColNames,
    /// `eval_cost` / `size` estimate (§5.2), filled by `estimate_costs`.
    pub est: CostEstimate,
}

/// The complete task graph of one mediator run.
#[derive(Debug)]
pub struct TaskGraph {
    pub tasks: Vec<Task>,
    /// Producer of every relation.
    pub producer: HashMap<RelKey, usize>,
    /// Bindings of every visited occurrence (used by tagging and SynAgg).
    pub bindings: HashMap<Occ, Binding>,
    /// Materialized elements in creation order.
    pub materialized: Vec<ElemIdx>,
    /// A topological order of the tasks.
    pub topo: Vec<usize>,
    /// Per-query-rule statistics: how many source queries the graph holds.
    pub source_query_count: usize,
}

impl TaskGraph {
    pub fn task(&self, id: usize) -> &Task {
        &self.tasks[id]
    }

    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Successor lists (consumer edges), derived from deps.
    pub fn successors(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.tasks.len()];
        for (id, task) in self.tasks.iter().enumerate() {
            for (dep, _) in &task.deps {
                out[*dep].push(id);
            }
        }
        out
    }
}

impl fmt::Display for TaskGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "task graph ({} tasks)", self.tasks.len())?;
        for (id, t) in self.tasks.iter().enumerate() {
            let deps: Vec<String> = t.deps.iter().map(|(d, _)| d.to_string()).collect();
            writeln!(
                f,
                "  #{id} [{}] {} <- [{}] (est {:.4}s, {:.0} rows)",
                t.source,
                t.label,
                deps.join(", "),
                t.est.eval_secs,
                t.est.out_rows
            )?;
        }
        Ok(())
    }
}

/// Estimated mediator-side processing cost per tuple (seconds): the
/// compile-time price of a mediator task's rows.
pub const MEDIATOR_PER_TUPLE_SECS: f64 = 2e-7;

/// Options for graph construction.
#[derive(Debug, Clone)]
pub struct GraphOptions {
    pub cost_model: CostModel,
    /// Calibration factor applied to measured in-process execution times
    /// when simulating response times (our embedded engine vs the paper's
    /// 2003 testbed).
    pub eval_scale: f64,
}

impl Default for GraphOptions {
    fn default() -> Self {
        GraphOptions {
            cost_model: CostModel::default(),
            eval_scale: 1.0,
        }
    }
}

pub(crate) struct Builder<'a> {
    aig: &'a Aig,
    catalog: &'a Catalog,
    tasks: Vec<Task>,
    producer: HashMap<RelKey, usize>,
    bindings: HashMap<Occ, Binding>,
    materialized: Vec<ElemIdx>,
    mat_set: HashSet<ElemIdx>,
    /// Pending occurrence outputs per materialized element.
    pending_instances: HashMap<ElemIdx, Vec<RelKey>>,
    /// Syn keys that require SynAgg tasks: (occ, field).
    needed_syn: Vec<(Occ, String)>,
    needed_syn_set: HashSet<(Occ, String)>,
    source_query_count: usize,
}

/// Builds the task graph for an unfolded, specialized AIG.
pub fn build_graph(
    aig: &Aig,
    catalog: &Catalog,
    opts: &GraphOptions,
) -> Result<TaskGraph, MediatorError> {
    let mut b = Builder {
        aig,
        catalog,
        tasks: Vec::new(),
        producer: HashMap::new(),
        bindings: HashMap::new(),
        materialized: Vec::new(),
        mat_set: HashSet::new(),
        pending_instances: HashMap::new(),
        needed_syn: Vec::new(),
        needed_syn_set: HashSet::new(),
        source_query_count: 0,
    };
    b.check_materialization_conflicts()?;
    b.build()?;
    b.patch_deps()?;
    let topo = b.topo_order()?;
    let mut graph = TaskGraph {
        tasks: b.tasks,
        producer: b.producer,
        bindings: b.bindings,
        materialized: b.materialized,
        topo,
        source_query_count: b.source_query_count,
    };
    estimate_costs(&mut graph, catalog, opts);
    Ok(graph)
}

impl<'a> Builder<'a> {
    /// The materialized set: root, star children, branch children. An
    /// element must not be required in both a materialized and a virtual
    /// role.
    fn check_materialization_conflicts(&mut self) -> Result<(), MediatorError> {
        let aig = self.aig;
        let mut mat: HashSet<ElemIdx> = HashSet::new();
        let mut virt: HashSet<ElemIdx> = HashSet::new();
        mat.insert(aig.root);
        for e in aig.elements() {
            match &aig.elem_info(e).prod {
                Prod::Items(items) => {
                    for item in items {
                        if item.star {
                            mat.insert(item.elem);
                        } else {
                            virt.insert(item.elem);
                        }
                    }
                }
                Prod::Choice { branches, .. } => {
                    for branch in branches {
                        mat.insert(branch.elem);
                    }
                }
                _ => {}
            }
        }
        if let Some(conflict) = mat.intersection(&virt).next() {
            return Err(MediatorError::Unsupported(format!(
                "element `{}` is both a starred/branch child (materialized) and a plain \
                 sequence child (virtual); use the conceptual evaluator for this AIG",
                aig.elem_name(*conflict)
            )));
        }
        self.mat_set = mat;
        Ok(())
    }

    fn build(&mut self) -> Result<(), MediatorError> {
        let aig = self.aig;
        // Root task.
        let root_key = RelKey::Instances(aig.root);
        self.push_task(Task {
            kind: TaskKind::Root,
            source: SourceId::MEDIATOR,
            label: format!("root[{}]", aig.elem_name(aig.root)),
            deps: Vec::new(),
            output: Some(root_key),
            schema: instance_columns(&aig.elem_info(aig.root).inh).into(),
            est: CostEstimate::ZERO,
        });
        self.materialized.push(aig.root);

        // Process materialized elements in topological (parents-first) order
        // of the element DAG.
        let order = self.element_topo()?;
        for e in order {
            if !self.mat_set.contains(&e) {
                continue;
            }
            if e != aig.root {
                // Assemble from pending occurrence outputs (may be created
                // below for choice branches before their Assemble runs —
                // pending list was filled while processing parents).
                let inputs = self.pending_instances.remove(&e).unwrap_or_default();
                if inputs.is_empty() {
                    // Unreachable materialized element (e.g. a truncated
                    // level): no instances, still emit an empty assemble so
                    // downstream lookups succeed.
                }
                let deps = inputs.iter().map(|k| (usize::MAX, k.clone())).collect();
                self.push_task(Task {
                    kind: TaskKind::Assemble {
                        elem: e,
                        inputs: inputs.clone(),
                    },
                    source: SourceId::MEDIATOR,
                    label: format!("assemble[{}]", aig.elem_name(e)),
                    deps,
                    output: Some(RelKey::Instances(e)),
                    schema: instance_columns(&aig.elem_info(e).inh).into(),
                    est: CostEstimate::ZERO,
                });
                self.materialized.push(e);
            }
            // Identity binding for the materialized element.
            let occ = Occ::mat(e);
            let info = aig.elem_info(e);
            let mut scalars = HashMap::new();
            let mut sets = HashMap::new();
            for field in &info.inh {
                if field.ty.is_scalar() {
                    scalars.insert(field.name.clone(), ScalarBind::Col(field.name.clone()));
                } else {
                    sets.insert(
                        field.name.clone(),
                        RelKey::InhSet(occ.clone(), field.name.clone()),
                    );
                }
            }
            let binding = Binding {
                elem: e,
                occ: occ.clone(),
                scalars,
                sets,
            };
            self.bindings.insert(occ.clone(), binding.clone());
            self.visit_production(&binding)?;
        }

        // Guard tasks (may enqueue SynAgg needs).
        let occs: Vec<Occ> = self.bindings.keys().cloned().collect();
        let mut sorted = occs;
        sorted.sort();
        for occ in sorted {
            let elem = self.bindings[&occ].elem;
            let guards = aig.elem_info(elem).guards.clone();
            for (gi, guard) in guards.iter().enumerate() {
                let fields: Vec<&String> = match &guard.kind {
                    aig_core::spec::GuardKind::Unique { field } => vec![field],
                    aig_core::spec::GuardKind::Subset { sub, sup } => vec![sub, sup],
                };
                let mut deps = Vec::new();
                for f in fields {
                    let key = self.syn_relkey(&occ, f)?;
                    deps.push((usize::MAX, key));
                }
                self.push_task(Task {
                    kind: TaskKind::Guard {
                        occ: occ.clone(),
                        guard: gi,
                    },
                    source: SourceId::MEDIATOR,
                    label: format!("guard[{} #{gi}]", occ.key(aig)),
                    deps,
                    output: None,
                    schema: ColNames::default(),
                    est: CostEstimate::ZERO,
                });
            }
        }

        // Create the needed SynAgg tasks (collected during the visit and
        // guard passes) and close over their own references.
        let mut cursor = 0;
        while cursor < self.needed_syn.len() {
            let (occ, field) = self.needed_syn[cursor].clone();
            cursor += 1;
            self.create_syn_task(&occ, &field)?;
        }
        Ok(())
    }

    fn push_task(&mut self, task: Task) -> usize {
        let id = self.tasks.len();
        if let Some(key) = &task.output {
            self.producer.insert(key.clone(), id);
        }
        self.tasks.push(task);
        id
    }

    fn producer_of(&self, key: &RelKey) -> Result<usize, MediatorError> {
        self.producer.get(key).copied().ok_or_else(|| {
            MediatorError::Internal(format!("no producer for {}", key.describe(self.aig)))
        })
    }

    fn element_topo(&self) -> Result<Vec<ElemIdx>, MediatorError> {
        let aig = self.aig;
        let n = aig.len();
        let mut indegree = vec![0usize; n];
        let mut edges: Vec<Vec<ElemIdx>> = vec![Vec::new(); n];
        for e in aig.elements() {
            for c in aig.children_of(e) {
                edges[e.index()].push(c);
                indegree[c.index()] += 1;
            }
        }
        let mut queue: Vec<ElemIdx> = aig
            .elements()
            .filter(|e| indegree[e.index()] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(e) = queue.pop() {
            order.push(e);
            for &c in &edges[e.index()].clone() {
                indegree[c.index()] -= 1;
                if indegree[c.index()] == 0 {
                    queue.push(c);
                }
            }
        }
        if order.len() != n {
            return Err(MediatorError::Unsupported(
                "the element graph is recursive; unfold the AIG first (§5.5)".to_string(),
            ));
        }
        Ok(order)
    }

    /// Visits the production of the element at `binding`, creating tasks for
    /// query-driven children and recursing into virtual ones.
    fn visit_production(&mut self, binding: &Binding) -> Result<(), MediatorError> {
        let aig = self.aig;
        let info = aig.elem_info(binding.elem);
        match &info.prod {
            Prod::Pcdata { .. } | Prod::Empty => Ok(()),
            Prod::Items(items) => {
                // Dependency order (§3.2): siblings whose attributes feed a
                // generator (e.g. decomposition states) bind first.
                let order = info.topo.clone();
                let stars: Vec<bool> = items.iter().map(|i| i.star).collect();
                for pos in order {
                    if stars[pos] {
                        self.visit_star_item(binding, pos)?;
                    } else {
                        let child_binding = self.bind_virtual_child(binding, pos)?;
                        self.visit_production(&child_binding)?;
                    }
                }
                Ok(())
            }
            Prod::Choice { cond, branches } => {
                // Condition query per instance.
                let vq = self.vectorize(cond, binding, None)?;
                let mut deps = self.query_deps(&vq)?;
                deps.push((usize::MAX, RelKey::Instances(binding.occ.base)));
                let pick_key = RelKey::Pick(binding.occ.clone());
                self.source_query_count += 1;
                self.push_task(Task {
                    kind: TaskKind::Cond {
                        occ: binding.occ.clone(),
                        query: vq.clone(),
                    },
                    source: vq.source,
                    label: format!("cond[{}]", binding.occ.key(aig)),
                    deps,
                    output: Some(pick_key.clone()),
                    schema: ["__owner", "__pick"].map(String::from).into(),
                    est: CostEstimate::ZERO,
                });
                for (bno, branch) in branches.iter().enumerate() {
                    // Branch materialization: scalar assigns only.
                    let child_info = aig.elem_info(branch.elem);
                    for (field, rule) in &branch.assigns {
                        match rule {
                            FieldRule::Scalar(_) => {}
                            _ => {
                                return Err(MediatorError::Unsupported(format!(
                                    "set-valued assignment `{field}` on choice branch `{}`",
                                    child_info.name
                                )))
                            }
                        }
                    }
                    let out_key = RelKey::BranchOut(binding.occ.clone(), bno);
                    let deps = vec![
                        (usize::MAX, pick_key.clone()),
                        (usize::MAX, RelKey::Instances(binding.occ.base)),
                    ];
                    self.push_task(Task {
                        kind: TaskKind::BranchMat {
                            occ: binding.occ.clone(),
                            branch: bno,
                        },
                        source: SourceId::MEDIATOR,
                        label: format!("branch[{}#{bno}]", binding.occ.key(aig)),
                        deps,
                        output: Some(out_key.clone()),
                        schema: child_columns(&child_info.inh).into(),
                        est: CostEstimate::ZERO,
                    });
                    self.pending_instances
                        .entry(branch.elem)
                        .or_default()
                        .push(out_key);
                }
                Ok(())
            }
        }
    }

    fn visit_star_item(&mut self, binding: &Binding, pos: usize) -> Result<(), MediatorError> {
        let aig = self.aig;
        let info = aig.elem_info(binding.elem);
        let Prod::Items(items) = &info.prod else {
            unreachable!()
        };
        let item = &items[pos];
        let child_info = aig.elem_info(item.elem);
        // Broadcast scalar assigns resolve against this binding; set assigns
        // on star children are unsupported.
        let mut broadcast = Vec::new();
        for (field, rule) in &item.assigns {
            match rule {
                FieldRule::Scalar(expr) => {
                    broadcast.push((field.clone(), self.resolve_bind(binding, expr)?));
                }
                _ => {
                    return Err(MediatorError::Unsupported(format!(
                        "set-valued broadcast assignment `{field}` on starred child `{}`",
                        child_info.name
                    )))
                }
            }
        }
        let generated_fields: Vec<String> = child_info
            .inh
            .iter()
            .filter(|f| f.ty.is_scalar() && !broadcast.iter().any(|(n, _)| n == &f.name))
            .map(|f| f.name.clone())
            .collect();
        if child_info
            .inh
            .iter()
            .any(|f| !f.ty.is_scalar() && !broadcast.iter().any(|(n, _)| n == &f.name))
        {
            return Err(MediatorError::Unsupported(format!(
                "starred child `{}` has a set-valued inherited field",
                child_info.name
            )));
        }
        let out_key = RelKey::GenOut(binding.occ.clone(), pos);
        let (kind, source, deps) = match item.generator.as_ref().expect("validated") {
            Generator::Query(qr) => {
                let vq = self.vectorize(qr, binding, None)?;
                let mut deps = self.query_deps(&vq)?;
                deps.push((usize::MAX, RelKey::Instances(binding.occ.base)));
                self.source_query_count += 1;
                (
                    TaskKind::Gen {
                        parent: binding.occ.clone(),
                        item: pos,
                        query: Some(vq.clone()),
                        set_input: None,
                        broadcast: broadcast.clone(),
                        generated_fields: generated_fields.clone(),
                    },
                    vq.source,
                    deps,
                )
            }
            Generator::Set(expr) => {
                let input = self.set_expr_relkey(binding, expr)?;
                let deps = match &input {
                    Some(key) => vec![(usize::MAX, key.clone())],
                    None => vec![(usize::MAX, RelKey::Instances(binding.occ.base))],
                };
                (
                    TaskKind::Gen {
                        parent: binding.occ.clone(),
                        item: pos,
                        query: None,
                        set_input: input,
                        broadcast: broadcast.clone(),
                        generated_fields: generated_fields.clone(),
                    },
                    SourceId::MEDIATOR,
                    deps,
                )
            }
        };
        self.push_task(Task {
            kind,
            source,
            label: format!("gen[{}#{pos}->{}]", binding.occ.key(aig), child_info.name),
            deps,
            output: Some(out_key.clone()),
            schema: child_columns(&child_info.inh).into(),
            est: CostEstimate::ZERO,
        });
        self.pending_instances
            .entry(item.elem)
            .or_default()
            .push(out_key);
        Ok(())
    }

    /// Computes the binding of a virtual (plain sequence) child, creating
    /// `InhSetQuery` tasks for query-computed set fields.
    fn bind_virtual_child(
        &mut self,
        binding: &Binding,
        pos: usize,
    ) -> Result<Binding, MediatorError> {
        let aig = self.aig;
        let info = aig.elem_info(binding.elem);
        let Prod::Items(items) = &info.prod else {
            unreachable!()
        };
        let item = &items[pos];
        let child_info = aig.elem_info(item.elem);
        let child_occ = binding.occ.child(pos);
        let mut scalars = HashMap::new();
        let mut sets = HashMap::new();
        for (field, rule) in &item.assigns {
            let decl = child_info
                .inh
                .iter()
                .find(|f| &f.name == field)
                .expect("validated");
            if decl.ty.is_scalar() {
                let FieldRule::Scalar(expr) = rule else {
                    unreachable!("validated types")
                };
                scalars.insert(field.clone(), self.resolve_bind(binding, expr)?);
            } else {
                let key = match rule {
                    FieldRule::Set(expr) => match self.set_expr_relkey(binding, expr)? {
                        Some(key) => key,
                        None => {
                            // A constructed set: a mediator InhSet task would
                            // be needed; reuse SynAgg machinery by treating
                            // it as an InhSet compute.
                            return Err(MediatorError::Unsupported(format!(
                                "constructed set expression for inherited field \
                                 `{field}` of `{}` (only direct copies and queries \
                                 are set-oriented)",
                                child_info.name
                            )));
                        }
                    },
                    FieldRule::Query(qr) => {
                        let vq = self.vectorize(qr, binding, None)?;
                        let mut deps = self.query_deps(&vq)?;
                        deps.push((usize::MAX, RelKey::Instances(binding.occ.base)));
                        let key = RelKey::InhSet(child_occ.clone(), field.clone());
                        self.source_query_count += 1;
                        self.push_task(Task {
                            kind: TaskKind::InhSetQuery {
                                target: child_occ.clone(),
                                field: field.clone(),
                                query: vq.clone(),
                            },
                            source: vq.source,
                            label: format!("inhset[{}.{field}]", child_occ.key(aig)),
                            deps,
                            output: Some(key.clone()),
                            schema: owned_by(&vq.columns[1..]),
                            est: CostEstimate::ZERO,
                        });
                        key
                    }
                    FieldRule::Scalar(_) => unreachable!("validated types"),
                };
                sets.insert(field.clone(), key);
            }
        }
        let child_binding = Binding {
            elem: item.elem,
            occ: child_occ.clone(),
            scalars,
            sets,
        };
        self.bindings.insert(child_occ, child_binding.clone());
        Ok(child_binding)
    }

    /// Resolves a scalar rule expression to a base-table column or constant
    /// (following copy chains, §4).
    fn resolve_bind(
        &self,
        binding: &Binding,
        expr: &ValueExpr,
    ) -> Result<ScalarBind, MediatorError> {
        match resolve_scalar(self.aig, binding.elem, expr) {
            Some(ResolvedScalar::Const(v)) => Ok(ScalarBind::Const(v)),
            Some(ResolvedScalar::InhField(f)) => {
                binding.scalars.get(&f).cloned().ok_or_else(|| {
                    MediatorError::Internal(format!(
                        "binding of `{}` lacks scalar field `{f}`",
                        self.aig.elem_name(binding.elem)
                    ))
                })
            }
            None => Err(MediatorError::Unsupported(format!(
                "a scalar rule at `{}` does not resolve through copy chains",
                self.aig.elem_name(binding.elem)
            ))),
        }
    }

    /// Resolves a set expression that is a *pure copy* to the relation it
    /// denotes; `Ok(None)` when the expression constructs a new set.
    fn set_expr_relkey(
        &mut self,
        binding: &Binding,
        expr: &SetExpr,
    ) -> Result<Option<RelKey>, MediatorError> {
        match expr {
            SetExpr::InhField(f) => Ok(Some(binding.sets.get(f).cloned().ok_or_else(|| {
                MediatorError::Internal(format!(
                    "binding of `{}` lacks set field `{f}`",
                    self.aig.elem_name(binding.elem)
                ))
            })?)),
            SetExpr::ChildSyn { item, field } => {
                let occ = binding.occ.child(*item);
                // Sibling must be virtual (non-star children always are).
                let key = self.syn_relkey_at(&occ, self.sibling_elem(binding, *item)?, field)?;
                Ok(Some(key))
            }
            _ => Ok(None),
        }
    }

    fn sibling_elem(&self, binding: &Binding, item: usize) -> Result<ElemIdx, MediatorError> {
        let info = self.aig.elem_info(binding.elem);
        match &info.prod {
            Prod::Items(items) => Ok(items[item].elem),
            _ => Err(MediatorError::Internal(
                "sibling reference outside an items production".to_string(),
            )),
        }
    }

    /// The relation key of `Syn(occ).field`, following set-copy chains and
    /// registering a SynAgg task when the rule constructs a new set.
    fn syn_relkey(&mut self, occ: &Occ, field: &str) -> Result<RelKey, MediatorError> {
        let elem = self.bindings.get(occ).map(|b| b.elem).ok_or_else(|| {
            MediatorError::Internal(format!("unknown occurrence {}", occ.key(self.aig)))
        })?;
        self.syn_relkey_at(occ, elem, field)
    }

    fn syn_relkey_at(
        &mut self,
        occ: &Occ,
        elem: ElemIdx,
        field: &str,
    ) -> Result<RelKey, MediatorError> {
        let key = resolve_syn_key(self.aig, &self.bindings, occ, elem, field)?;
        if let RelKey::Syn(o, f) = &key {
            let o = o.clone();
            let f = f.clone();
            self.need_syn(&o, &f);
        }
        Ok(key)
    }

    fn need_syn(&mut self, occ: &Occ, field: &str) {
        let key = (occ.clone(), field.to_string());
        if self.needed_syn_set.insert(key.clone()) {
            self.needed_syn.push(key);
        }
    }

    /// Creates the SynAgg task for `(occ, field)`. The task computes its
    /// whole rule in one pass, so it reads the relations the rule's
    /// expansion reaches (which may enqueue a SynAgg need).
    fn create_syn_task(&mut self, occ: &Occ, field: &str) -> Result<(), MediatorError> {
        let aig = self.aig;
        let out_key = RelKey::Syn(occ.clone(), field.to_string());
        if self.producer.contains_key(&out_key) {
            return Ok(());
        }
        let binding = self.bindings.get(occ).ok_or_else(|| {
            MediatorError::Internal(format!("unvisited occurrence {}", occ.key(aig)))
        })?;
        let ty = &syn_decl(aig, binding.elem, field)?.ty;
        let (bag, comps) = (ty.is_bag(), ty.components().unwrap_or_default());
        let walk = SynWalk::new(aig, &self.bindings, bag);
        // The owner space: every SynAgg needs the base instances.
        let mut deps = SynDeps(vec![(usize::MAX, RelKey::Instances(occ.base))]);
        walk.field(&mut deps, &mut HashSet::new(), occ, field, false)?;
        for (_, key) in &deps.0 {
            if let RelKey::Syn(o, f) = key {
                self.need_syn(o, f);
            }
        }
        self.push_task(Task {
            kind: TaskKind::SynAgg {
                occ: occ.clone(),
                field: field.to_string(),
            },
            source: SourceId::MEDIATOR,
            label: format!("syn[{}.{field}]", occ.key(aig)),
            deps: deps.0,
            output: Some(out_key),
            schema: owned_by(comps),
            est: CostEstimate::ZERO,
        });
        Ok(())
    }

    /// Dependencies a vectorized query introduces (its relation inputs).
    /// Producer task ids are patched in `patch_deps` once every task exists.
    fn query_deps(&self, vq: &VectorQuery) -> Result<Vec<(usize, RelKey)>, MediatorError> {
        let mut deps = Vec::new();
        for (_, input) in &vq.inputs {
            match input {
                ParamInput::Base(e) => {
                    deps.push((usize::MAX, RelKey::Instances(*e)));
                }
                ParamInput::Rel(key) | ParamInput::RelFirstDistinct(key) => {
                    deps.push((usize::MAX, key.clone()));
                }
            }
        }
        Ok(deps)
    }

    /// Resolves every deferred dependency to its producing task.
    fn patch_deps(&mut self) -> Result<(), MediatorError> {
        for id in 0..self.tasks.len() {
            for pos in 0..self.tasks[id].deps.len() {
                if self.tasks[id].deps[pos].0 == usize::MAX {
                    let key = self.tasks[id].deps[pos].1.clone();
                    let producer = self.producer_of(&key)?;
                    self.tasks[id].deps[pos].0 = producer;
                }
            }
            let mut deps = std::mem::take(&mut self.tasks[id].deps);
            dedup_deps(&mut deps);
            self.tasks[id].deps = deps;
        }
        Ok(())
    }

    /// Set-oriented rewriting (§5.1): turns a per-tuple parameterized rule
    /// query into one that joins the whole base instance table, prefixing
    /// the output with the parent row id.
    fn vectorize(
        &mut self,
        qr: &QueryRule,
        binding: &Binding,
        _hint: Option<&str>,
    ) -> Result<VectorQuery, MediatorError> {
        let aig = self.aig;
        let q = aig.query(qr.query).clone();
        if !q.is_single_source() {
            return Err(MediatorError::Unsupported(format!(
                "multi-source query `{q}` reached the mediator; run decompose_queries first"
            )));
        }
        let source_name = q.sources().into_iter().next().map(|s| s.to_string());
        let source = match &source_name {
            Some(name) => self.catalog.source_id(name).map_err(MediatorError::Store)?,
            None => SourceId::MEDIATOR,
        };

        // Classify each original parameter.
        let mut scalar_subst: HashMap<String, Scalar> = HashMap::new();
        let mut rel_params: HashMap<String, RelKey> = HashMap::new();
        for (name, src) in &qr.params {
            match src {
                ParamSource::Const(v) => {
                    scalar_subst.insert(name.clone(), Scalar::Const(v.clone()));
                }
                ParamSource::InhField(f) => {
                    if let Some(bind) = binding.scalars.get(f) {
                        scalar_subst.insert(
                            name.clone(),
                            match bind {
                                ScalarBind::Col(c) => {
                                    Scalar::Col(QualCol::new("__base", c.clone()))
                                }
                                ScalarBind::Const(v) => Scalar::Const(v.clone()),
                            },
                        );
                    } else if let Some(key) = binding.sets.get(f) {
                        rel_params.insert(name.clone(), key.clone());
                    } else {
                        return Err(MediatorError::Internal(format!(
                            "binding of `{}` lacks field `{f}`",
                            aig.elem_name(binding.elem)
                        )));
                    }
                }
                ParamSource::ChildSyn { item, field } => {
                    // Scalar sibling syn: resolve through copy chains.
                    let expr = ValueExpr::ChildSyn {
                        item: *item,
                        field: field.clone(),
                    };
                    if let Some(resolved) = resolve_scalar(aig, binding.elem, &expr) {
                        scalar_subst.insert(
                            name.clone(),
                            match resolved {
                                ResolvedScalar::Const(v) => Scalar::Const(v),
                                ResolvedScalar::InhField(f) => {
                                    match binding.scalars.get(&f).cloned().ok_or_else(|| {
                                        MediatorError::Internal(format!(
                                            "missing scalar binding `{f}`"
                                        ))
                                    })? {
                                        ScalarBind::Col(c) => {
                                            Scalar::Col(QualCol::new("__base", c))
                                        }
                                        ScalarBind::Const(v) => Scalar::Const(v),
                                    }
                                }
                            },
                        );
                    } else {
                        // Relational sibling syn.
                        let child_occ = binding.occ.child(*item);
                        let child_elem = self.sibling_elem(binding, *item)?;
                        let key = self.syn_relkey_at(&child_occ, child_elem, field)?;
                        rel_params.insert(name.clone(), key.clone());
                    }
                }
            }
        }

        // Rewrite the query.
        let subst = |s: &Scalar| -> Scalar {
            match s {
                Scalar::Param(name) => scalar_subst
                    .get(name)
                    .cloned()
                    .unwrap_or_else(|| Scalar::Param(name.clone())),
                other => other.clone(),
            }
        };
        let mut from = q.from.clone();
        let mut preds: Vec<Pred> = Vec::new();
        let mut inputs: Vec<(String, ParamInput)> = Vec::new();
        // The base table join.
        from.push(FromItem::Param {
            name: "__base".to_string(),
            alias: "__base".to_string(),
        });
        inputs.push(("__base".to_string(), ParamInput::Base(binding.occ.base)));

        // FROM-clause relation parameters get owner predicates.
        for item in &mut from {
            if let FromItem::Param { name, alias } = item {
                if name == "__base" {
                    continue;
                }
                let key = rel_params.get(name).cloned().ok_or_else(|| {
                    MediatorError::Internal(format!(
                        "query uses relation parameter `${name}` with no binding"
                    ))
                })?;
                preds.push(Pred::Cmp {
                    op: aig_sql::CmpOp::Eq,
                    lhs: Scalar::Col(QualCol::new(alias.clone(), "__owner")),
                    rhs: Scalar::Col(QualCol::new("__base", "__rowid")),
                });
                inputs.push((name.clone(), ParamInput::Rel(key)));
            }
        }
        for pred in &q.preds {
            match pred {
                Pred::Cmp { op, lhs, rhs } => preds.push(Pred::Cmp {
                    op: *op,
                    lhs: subst(lhs),
                    rhs: subst(rhs),
                }),
                Pred::In { col, set } => match set {
                    SetRef::Consts(_) => preds.push(pred.clone()),
                    SetRef::Param(name) => {
                        let key = rel_params.get(name).cloned().ok_or_else(|| {
                            MediatorError::Internal(format!(
                                "IN parameter `${name}` has no relation binding"
                            ))
                        })?;
                        let alias = format!("__in_{name}");
                        from.push(FromItem::Param {
                            name: alias.clone(),
                            alias: alias.clone(),
                        });
                        // col = first component, owner matches the base row.
                        preds.push(Pred::Cmp {
                            op: aig_sql::CmpOp::Eq,
                            lhs: Scalar::Col(col.clone()),
                            rhs: Scalar::Col(QualCol::new(alias.clone(), "__member")),
                        });
                        preds.push(Pred::Cmp {
                            op: aig_sql::CmpOp::Eq,
                            lhs: Scalar::Col(QualCol::new(alias.clone(), "__owner")),
                            rhs: Scalar::Col(QualCol::new("__base", "__rowid")),
                        });
                        inputs.push((alias, ParamInput::RelFirstDistinct(key)));
                    }
                },
            }
        }
        let mut select = vec![SelectItem {
            expr: Scalar::Col(QualCol::new("__base", "__rowid")),
            alias: Some("__parent".to_string()),
        }];
        for (i, item) in q.select.iter().enumerate() {
            select.push(SelectItem {
                expr: subst(&item.expr),
                alias: Some(item.output_name(i)),
            });
        }
        let query = Query {
            distinct: q.distinct,
            select,
            from,
            preds,
        };
        Ok(VectorQuery {
            columns: query.output_columns().into(),
            query,
            inputs,
            source,
        })
    }
}

/// The columns of a set relation: `__owner`, then the components.
fn owned_by(comps: &[String]) -> ColNames {
    let owner = std::iter::once("__owner".to_string());
    owner.chain(comps.iter().cloned()).collect()
}

/// Resolves `Syn(occ).field` to the relation that holds it, following pure
/// set-copy chains through the bindings; a constructed set resolves to
/// `RelKey::Syn` (produced by a SynAgg task). Shared by the graph builder
/// (which additionally registers the SynAgg need) and the executor.
pub fn resolve_syn_key(
    aig: &Aig,
    bindings: &HashMap<Occ, Binding>,
    occ: &Occ,
    elem: ElemIdx,
    field: &str,
) -> Result<RelKey, MediatorError> {
    let info = aig.elem_info(elem);
    if matches!(info.prod, Prod::Choice { .. }) {
        // Per-branch rules: always a SynAgg task.
        return Ok(RelKey::Syn(occ.clone(), field.to_string()));
    }
    match &syn_rule(aig, elem, field)?.rule {
        FieldRule::Set(SetExpr::InhField(f)) => {
            let binding = bindings.get(occ).ok_or_else(|| {
                MediatorError::Internal(format!("unvisited occurrence {}", occ.key(aig)))
            })?;
            binding
                .sets
                .get(f)
                .cloned()
                .ok_or_else(|| MediatorError::Internal(format!("no set binding for `{f}`")))
        }
        FieldRule::Set(SetExpr::ChildSyn { item, field: f }) => {
            let child_occ = occ.child(*item);
            let child_elem = match &info.prod {
                Prod::Items(items) => items[*item].elem,
                _ => {
                    return Err(MediatorError::Internal(
                        "child syn on a leaf production".to_string(),
                    ))
                }
            };
            resolve_syn_key(aig, bindings, &child_occ, child_elem, f)
        }
        _ => Ok(RelKey::Syn(occ.clone(), field.to_string())),
    }
}

/// The expansions done over one set of reached rows: `(occ, field,
/// under_bag)`.
pub(crate) type Expanded = HashSet<(Occ, String, bool)>;

/// The one-pass expansion of a synthesized set rule through the children's
/// synthesized fields down to the instance tables they read: the graph
/// builder walks it for a `SynAgg` task's deps, the executor for its rows.
/// A set-typed field under a bag-typed one is read from its own relation
/// (its per-instance dedup decides the bag's multiplicities). Under a set, a
/// repeat over the same reached rows (a child named twice) emits only rows
/// already emitted, so it is skipped; else the walk doubles per level.
pub(crate) struct SynWalk<'g> {
    aig: &'g Aig,
    bindings: &'g HashMap<Occ, Binding>,
    /// The top field is a bag: a repeat is rows of its value.
    bag: bool,
}

/// What a [`SynWalk`] does at each step.
pub(crate) trait SynVisit {
    /// The instance rows reached so far.
    type At;
    fn expanded<'x>(&self, at: &'x mut Self::At) -> &'x mut Expanded;
    /// A relation that orders the walk without being read (a choice's pick
    /// and branch outputs).
    fn depends(&mut self, _key: RelKey) {}
    /// The rows of `elem`'s instance table whose `__parent` is a reached
    /// row of `at` and whose `__occ` tag is `tag` (a tag never interned
    /// matches no row).
    fn child(&mut self, at: &Self::At, elem: ElemIdx, tag: &str)
        -> Result<Self::At, MediatorError>;
    /// The rows of the relation `key` whose key, an instance id of `at`,
    /// names a reached row (an id naming no row matches nothing).
    fn keyed(&mut self, at: &Self::At, key: &RelKey) -> Result<(), MediatorError>;
    /// One row of `exprs` over `binding` per reached row of `at`. Rows emit
    /// in row order.
    fn singleton(
        &mut self,
        binding: &Binding,
        at: &Self::At,
        exprs: &[ValueExpr],
    ) -> Result<(), MediatorError>;
}

impl<'g> SynWalk<'g> {
    /// The walk of a field that is a bag when `bag`.
    pub(crate) fn new(aig: &'g Aig, bindings: &'g HashMap<Occ, Binding>, bag: bool) -> Self {
        SynWalk { aig, bindings, bag }
    }

    /// Whether expanding `occ`'s `field` under a bag when `bag` is new over `at`.
    fn first<V: SynVisit>(&self, v: &V, at: &mut V::At, occ: &Occ, field: &str, bag: bool) -> bool {
        self.bag || v.expanded(at).insert((occ.clone(), field.to_string(), bag))
    }

    fn binding(&self, occ: &Occ) -> Result<&Binding, MediatorError> {
        self.bindings.get(occ).ok_or_else(|| {
            MediatorError::Internal(format!("unvisited occurrence {}", occ.key(self.aig)))
        })
    }

    /// Expands `occ`'s synthesized `field` over the rows of `at`, under a
    /// field that is a bag when `under_bag`.
    pub(crate) fn field<V: SynVisit>(
        &self,
        v: &mut V,
        at: &mut V::At,
        occ: &Occ,
        field: &str,
        under_bag: bool,
    ) -> Result<(), MediatorError> {
        let aig = self.aig;
        if !self.first(v, at, occ, field, under_bag) {
            return Ok(());
        }
        let binding = self.binding(occ)?;
        let bag = syn_decl(aig, binding.elem, field)?.ty.is_bag();
        if under_bag && !bag {
            let key = resolve_syn_key(aig, self.bindings, occ, binding.elem, field)?;
            return v.keyed(at, &key);
        }
        let info = aig.elem_info(binding.elem);
        let Prod::Choice { branches, .. } = &info.prod else {
            let FieldRule::Set(expr) = &syn_rule(aig, binding.elem, field)?.rule else {
                return Err(MediatorError::Internal("non-set SynAgg rule".into()));
            };
            return self.set(v, at, binding, expr, bag);
        };
        v.depends(RelKey::Pick(occ.clone()));
        for (bno, branch) in branches.iter().enumerate() {
            v.depends(RelKey::BranchOut(occ.clone(), bno));
            match branch
                .syn
                .iter()
                .find(|r| r.field == field)
                .map(|r| &r.rule)
            {
                None | Some(FieldRule::Set(SetExpr::Empty)) => {}
                Some(FieldRule::Set(SetExpr::ChildSyn { item: 0, field: f })) => {
                    let mut child = v.child(at, branch.elem, &branch_tag(aig, occ, bno))?;
                    self.field(v, &mut child, &Occ::mat(branch.elem), f, bag)?;
                }
                _ => {
                    return Err(MediatorError::Unsupported(format!(
                        "choice branch synthesized rule for `{field}` at `{}` \
                         is not a direct child copy",
                        info.name
                    )))
                }
            }
        }
        Ok(())
    }

    fn set<V: SynVisit>(
        &self,
        v: &mut V,
        at: &mut V::At,
        binding: &Binding,
        expr: &SetExpr,
        bag: bool,
    ) -> Result<(), MediatorError> {
        let aig = self.aig;
        match expr {
            SetExpr::Empty => Ok(()),
            SetExpr::InhField(f) => {
                let key = (binding.sets.get(f))
                    .ok_or_else(|| MediatorError::Internal(format!("no set binding for `{f}`")))?;
                v.keyed(at, key)
            }
            SetExpr::ChildSyn { item, field } => {
                self.field(v, at, &binding.occ.child(*item), field, bag)
            }
            SetExpr::Collect { item, field } => {
                // Checked here: each term builds its own child rows.
                if !self.first(v, at, &binding.occ.child(*item), field, bag) {
                    return Ok(());
                }
                let Prod::Items(items) = &aig.elem_info(binding.elem).prod else {
                    return Err(MediatorError::Internal("collect outside items".into()));
                };
                let elem = items[*item].elem;
                let mut child = v.child(at, elem, &occ_tag(aig, &binding.occ, *item))?;
                if !syn_decl(aig, elem, field)?.ty.is_scalar() {
                    return self.field(v, &mut child, &Occ::mat(elem), field, bag);
                }
                // A collected scalar: the child's singleton of it.
                let FieldRule::Scalar(expr) = &syn_rule(aig, elem, field)?.rule else {
                    return Err(MediatorError::Internal("scalar decl, set rule".into()));
                };
                let child_binding = self.binding(&Occ::mat(elem))?;
                v.singleton(child_binding, &child, std::slice::from_ref(expr))
            }
            SetExpr::Union(terms) => {
                for term in terms {
                    self.set(v, at, binding, term, bag)?;
                }
                Ok(())
            }
            SetExpr::Singleton(exprs) => v.singleton(binding, at, exprs),
        }
    }
}

/// The relations a `SynAgg` task reads: its [`SynWalk`] without rows.
struct SynDeps(Vec<(usize, RelKey)>);

impl SynVisit for SynDeps {
    type At = Expanded;

    fn expanded<'x>(&self, at: &'x mut Expanded) -> &'x mut Expanded {
        at
    }

    fn depends(&mut self, key: RelKey) {
        self.0.push((usize::MAX, key));
    }

    fn child(&mut self, _: &Expanded, elem: ElemIdx, _: &str) -> Result<Expanded, MediatorError> {
        self.depends(RelKey::Instances(elem));
        Ok(Expanded::new())
    }

    fn keyed(&mut self, _: &Expanded, key: &RelKey) -> Result<(), MediatorError> {
        self.depends(key.clone());
        Ok(())
    }

    fn singleton(
        &mut self,
        _: &Binding,
        _: &Expanded,
        _: &[ValueExpr],
    ) -> Result<(), MediatorError> {
        Ok(())
    }
}

/// The declaration of `elem`'s synthesized `field`.
pub(crate) fn syn_decl<'a>(
    aig: &'a Aig,
    elem: ElemIdx,
    field: &str,
) -> Result<&'a FieldDecl, MediatorError> {
    let info = aig.elem_info(elem);
    let decl = info.syn.iter().find(|f| f.name == field);
    decl.ok_or_else(|| {
        MediatorError::Internal(format!("`{}` declares no synthesized `{field}`", info.name))
    })
}

/// The rule of `elem`'s synthesized `field` (a choice has one per branch).
pub(crate) fn syn_rule<'a>(
    aig: &'a Aig,
    elem: ElemIdx,
    field: &str,
) -> Result<&'a SynRule, MediatorError> {
    let info = aig.elem_info(elem);
    let rule = info.syn_rules.iter().find(|r| r.field == field);
    rule.ok_or_else(|| {
        MediatorError::Internal(format!(
            "`{}` has no synthesized rule for `{field}`",
            info.name
        ))
    })
}

fn dedup_deps(deps: &mut Vec<(usize, RelKey)>) {
    let mut seen = HashSet::new();
    deps.retain(|(id, key)| seen.insert((*id, key.clone())));
}

impl TaskGraph {
    fn topo_of(tasks: &[Task]) -> Result<Vec<usize>, MediatorError> {
        let n = tasks.len();
        let mut indegree = vec![0usize; n];
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (id, t) in tasks.iter().enumerate() {
            for (dep, _) in &t.deps {
                succ[*dep].push(id);
                indegree[id] += 1;
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        queue.reverse();
        let mut order = Vec::with_capacity(n);
        while let Some(t) = queue.pop() {
            order.push(t);
            for &s in &succ[t] {
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    queue.push(s);
                }
            }
        }
        if order.len() != n {
            return Err(MediatorError::Internal("task graph is cyclic".to_string()));
        }
        Ok(order)
    }
}

impl Builder<'_> {
    fn topo_order(&self) -> Result<Vec<usize>, MediatorError> {
        TaskGraph::topo_of(&self.tasks)
    }
}

/// Fills `est` for every task, propagating sizes through the graph in
/// topological order (the costing API of §5.2: estimates of upstream queries
/// are fed into downstream estimates).
pub fn estimate_costs(graph: &mut TaskGraph, catalog: &Catalog, opts: &GraphOptions) {
    let stats = CatalogStats::compute(catalog);
    let order = graph.topo.clone();
    for id in order {
        let deps: Vec<(usize, RelKey)> = graph.tasks[id].deps.clone();
        let dep_est = |key: &RelKey| -> CostEstimate {
            deps.iter()
                .find(|(_, k)| k == key)
                .map(|(d, _)| graph.tasks[*d].est)
                .unwrap_or(CostEstimate::ZERO)
        };
        let med = |rows: f64, width: f64| CostEstimate {
            eval_secs: rows * MEDIATOR_PER_TUPLE_SECS,
            out_rows: rows,
            out_bytes: rows * width,
        };
        let est = match &graph.tasks[id].kind {
            TaskKind::Root => CostEstimate {
                eval_secs: 0.0,
                out_rows: 1.0,
                out_bytes: 64.0,
            },
            TaskKind::Gen {
                query, set_input, ..
            } => {
                if let Some(vq) = query {
                    estimate_vector_query(vq, &stats, &deps, graph, &opts.cost_model)
                } else {
                    let input = set_input
                        .as_ref()
                        .map(dep_est)
                        .unwrap_or(CostEstimate::ZERO);
                    med(input.out_rows, 32.0)
                }
            }
            TaskKind::InhSetQuery { query, .. } => {
                estimate_vector_query(query, &stats, &deps, graph, &opts.cost_model)
            }
            TaskKind::Cond { query, .. } => {
                estimate_vector_query(query, &stats, &deps, graph, &opts.cost_model)
            }
            TaskKind::Assemble { inputs, .. } => {
                let rows: f64 = inputs.iter().map(|k| dep_est(k).out_rows).sum();
                let bytes: f64 = inputs.iter().map(|k| dep_est(k).out_bytes).sum();
                CostEstimate {
                    eval_secs: rows * MEDIATOR_PER_TUPLE_SECS,
                    out_rows: rows.max(if matches!(graph.tasks[id].kind, TaskKind::Root) {
                        1.0
                    } else {
                        0.0
                    }),
                    out_bytes: bytes + rows * 12.0,
                }
            }
            TaskKind::BranchMat { .. } => {
                // Roughly: base rows split across branches.
                let base = deps
                    .iter()
                    .find(|(_, k)| matches!(k, RelKey::Instances(_)))
                    .map(|(d, _)| graph.tasks[*d].est)
                    .unwrap_or(CostEstimate::ZERO);
                med(base.out_rows / 2.0, 32.0)
            }
            TaskKind::SynAgg { .. } => {
                let rows: f64 = deps.iter().map(|(d, _)| graph.tasks[*d].est.out_rows).sum();
                med(rows, 24.0)
            }
            TaskKind::Guard { .. } => {
                let rows: f64 = deps.iter().map(|(d, _)| graph.tasks[*d].est.out_rows).sum();
                CostEstimate {
                    eval_secs: rows * MEDIATOR_PER_TUPLE_SECS,
                    out_rows: 0.0,
                    out_bytes: 0.0,
                }
            }
        };
        graph.tasks[id].est = est;
    }
}

fn estimate_vector_query(
    vq: &VectorQuery,
    stats: &CatalogStats,
    deps: &[(usize, RelKey)],
    graph: &TaskGraph,
    model: &CostModel,
) -> CostEstimate {
    let mut params: HashMap<String, ParamStats> = HashMap::new();
    for (name, input) in &vq.inputs {
        let key = match input {
            ParamInput::Base(e) => RelKey::Instances(*e),
            ParamInput::Rel(k) | ParamInput::RelFirstDistinct(k) => k.clone(),
        };
        if let Some((d, _)) = deps.iter().find(|(_, k)| *k == key) {
            params.insert(
                name.clone(),
                ParamStats::from_estimate(&graph.tasks[*d].est),
            );
        }
    }
    estimate(&vq.query, stats, &params, model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unfold::{unfold, CutOff};
    use aig_core::paper::{mini_hospital_catalog, sigma0};
    use aig_core::{compile_constraints, decompose_queries, parse_aig};

    fn sigma0_graph(depth: usize) -> (aig_core::spec::Aig, Catalog, TaskGraph) {
        let aig = sigma0().unwrap();
        let compiled = compile_constraints(&aig).unwrap();
        let (specialized, _) = decompose_queries(&compiled).unwrap();
        let unfolded = unfold(&specialized, depth, CutOff::Truncate).unwrap();
        let catalog = mini_hospital_catalog().unwrap();
        let graph = build_graph(&unfolded.aig, &catalog, &GraphOptions::default()).unwrap();
        (unfolded.aig, catalog, graph)
    }

    #[test]
    fn sigma0_graph_shape() {
        let (aig, catalog, graph) = sigma0_graph(3);
        // Materialized: report, patient, item, treatment@1..3.
        assert_eq!(graph.materialized.len(), 6);
        // Source queries: Q1, Q2 decomposed into 3 steps, Q3 per level (2:
        // the deepest level is truncated), Q4 = 7.
        assert_eq!(graph.source_query_count, 7);
        // Every source, the mediator included, is assigned some task.
        for name in ["Mediator", "DB1", "DB2", "DB3", "DB4"] {
            let id = catalog.source_id(name).unwrap();
            assert!(
                graph.tasks.iter().any(|t| t.source == id),
                "{name} has no task"
            );
        }
        // The topo order is consistent: producers precede consumers.
        let mut pos = vec![0usize; graph.len()];
        for (i, &t) in graph.topo.iter().enumerate() {
            pos[t] = i;
        }
        for (id, task) in graph.tasks.iter().enumerate() {
            for (dep, _) in &task.deps {
                assert!(pos[*dep] < pos[id], "{} after its consumer", *dep);
            }
        }
        let _ = aig;
    }

    #[test]
    fn vectorized_queries_join_the_base_table() {
        let (_aig, _catalog, graph) = sigma0_graph(2);
        let mut saw_query = false;
        for task in &graph.tasks {
            let vq = match &task.kind {
                TaskKind::Gen {
                    query: Some(vq), ..
                } => vq,
                TaskKind::InhSetQuery { query, .. } => vq_of(query),
                _ => continue,
            };
            saw_query = true;
            // The rewritten query starts its SELECT with the parent rowid
            // and binds the base instance table (§5.1).
            assert_eq!(vq.query.output_columns()[0], "__parent");
            assert!(vq
                .inputs
                .iter()
                .any(|(name, input)| name == "__base" && matches!(input, ParamInput::Base(_))));
            assert!(vq.query.is_single_source());
        }
        assert!(saw_query);
        fn vq_of(v: &VectorQuery) -> &VectorQuery {
            v
        }
    }

    #[test]
    fn estimates_are_filled_and_monotone() {
        let (_aig, _catalog, graph) = sigma0_graph(3);
        // Every non-root task got an estimate; sizes are finite.
        for task in &graph.tasks {
            assert!(task.est.eval_secs.is_finite());
            assert!(task.est.out_rows.is_finite());
            assert!(task.est.out_bytes >= 0.0);
        }
        // The patient generator expects a non-trivial result on Table-1-like
        // statistics.
        let patient_gen = graph
            .tasks
            .iter()
            .find(|t| t.label.starts_with("gen[report"))
            .unwrap();
        assert!(patient_gen.est.out_rows >= 1.0);
    }

    #[test]
    fn mixed_materialization_is_rejected() {
        // `x` is both a starred child (of a) and a plain child (of b):
        // unsupported by the set-oriented evaluator.
        let aig = parse_aig(
            r#"
            aig conflict {
              dtd {
                <!ELEMENT r (a, b)>
                <!ELEMENT a (x*)>
                <!ELEMENT b (x)>
                <!ELEMENT x (#PCDATA)>
              }
              elem r {
                inh(day);
                child a { day = $day; }
                child b { day = $day; }
              }
              elem a {
                inh(day);
                child x* from sql { select t.id as val from DB1:items t
                                    where t.day = $day };
              }
              elem b {
                inh(day);
                child x { val = $day; }
              }
            }
            "#,
        )
        .unwrap();
        let catalog = Catalog::new();
        let err = build_graph(&aig, &catalog, &GraphOptions::default()).unwrap_err();
        assert!(matches!(err, MediatorError::Unsupported(_)), "{err}");
    }

    #[test]
    fn occ_keys_are_stable_and_distinct() {
        let (aig, _catalog, graph) = sigma0_graph(2);
        let mut keys: Vec<String> = graph.bindings.keys().map(|o| o.key(&aig)).collect();
        keys.sort();
        let before = keys.len();
        keys.dedup();
        assert_eq!(before, keys.len(), "occurrence keys must be unique");
    }
}
