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
//!
//! What the rules fix is fixed here, once: the `__occ` tag of every starred
//! item's and choice branch's rows is interned into its occurrence's
//! [`Binding::tags`], and each synthesized set rule (§3.3) is compiled into
//! the [`SynStep`]s its `SynAgg` task runs. No request spells a tag.
//!
//! A relation is named by the task that writes it: the builder keys
//! relations by [`RelKey`] until every task exists, then resolves each read
//! to its producer's id ([`Input`]), the only name a run reads it by.

use crate::error::MediatorError;
use crate::exec::{child_columns, instance_columns, scalar_bind};
use aig_core::copyelim::resolve_scalar;
use aig_core::spec::{
    Aig, ElemIdx, FieldRule, Generator, ParamSource, Prod, QueryRule, SetExpr, SynRule, ValueExpr,
};
use aig_core::FieldDecl;
use aig_relstore::{intern, Catalog, ColNames, SourceId, Sym, Value};
use aig_sql::cost::{estimate, CatalogStats, CostEstimate, CostModel, ParamStats};
use aig_sql::{
    BoundQuery, FromItem, ParamBinding, Pred, QualCol, Query, Scalar, SelectItem, SetRef, SqlError,
};
use std::borrow::Cow;
use std::collections::{hash_map, HashMap, HashSet};
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

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

    /// A stable display key, also the stem of the `__occ` tags of the
    /// instance rows the occurrence's children produce.
    pub fn key(&self, aig: &Aig) -> String {
        let mut s = aig.elem_name(self.base).to_string();
        for p in &self.path {
            s.push('.');
            s.push_str(&p.to_string());
        }
        s
    }
}

/// The `__occ` tag of rows produced by the generator of `(occ, item)`.
pub(crate) fn occ_tag(aig: &Aig, occ: &Occ, item: usize) -> String {
    format!("{}#{item}", occ.key(aig))
}

/// The `__occ` tag of branch-child rows of a choice occurrence.
pub(crate) fn branch_tag(aig: &Aig, occ: &Occ, branch: usize) -> String {
    format!("{}#b{branch}", occ.key(aig))
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

/// A relation a task reads: its key, and the task that writes it. The
/// builder fills `task` once every task exists; a run reads by it alone.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Input {
    pub key: RelKey,
    pub task: usize,
}

impl Input {
    /// A read of `key`, its producer not yet resolved.
    fn of(key: RelKey) -> Input {
        Input {
            key,
            task: usize::MAX,
        }
    }
}

/// The producer of every relation, by key: shared by the graph and every
/// store of its runs, for the lookup by key ([`crate::exec::RelStore::get`]).
#[derive(Debug, Clone, Default)]
pub struct Producers(Arc<HashMap<RelKey, usize>>);

impl Deref for Producers {
    type Target = HashMap<RelKey, usize>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<'a> IntoIterator for &'a Producers {
    type Item = (&'a RelKey, &'a usize);
    type IntoIter = hash_map::Iter<'a, RelKey, usize>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// The inherited-attribute binding of one occurrence.
#[derive(Debug, Clone)]
pub struct Binding {
    pub elem: ElemIdx,
    pub occ: Occ,
    pub scalars: HashMap<String, ScalarBind>,
    pub sets: HashMap<String, RelKey>,
    /// The `__occ` symbol of each starred item's rows by item position
    /// (`{occ.key}#{item}`), or of each branch's by branch (`{occ.key}#b{n}`);
    /// [`Sym::NULL`], which no row carries, at a plain item. Assemble writes
    /// these symbols; the synthesized passes and the tagger match them.
    pub tags: Vec<Sym>,
    /// The relations of each compiled guard's fields at this occurrence
    /// (by guard, in field order: `unique`'s one, `subset`'s sub and sup),
    /// resolved when the guard task is built.
    pub guard_fields: Vec<Vec<Input>>,
}

impl Binding {
    /// The binding of `occ`, an occurrence of `elem`, with no field bound
    /// yet and its tags interned: the one place a tag is spelled.
    fn new(aig: &Aig, elem: ElemIdx, occ: Occ) -> Binding {
        let tag = |text: String| intern::intern_owned(Value::str(text));
        let tags = match &aig.elem_info(elem).prod {
            Prod::Items(items) => (items.iter().enumerate())
                .map(|(pos, item)| match item.star {
                    true => tag(occ_tag(aig, &occ, pos)),
                    false => Sym::NULL,
                })
                .collect(),
            Prod::Choice { branches, .. } => (0..branches.len())
                .map(|bno| tag(branch_tag(aig, &occ, bno)))
                .collect(),
            Prod::Pcdata { .. } | Prod::Empty => Vec::new(),
        };
        Binding {
            elem,
            occ,
            scalars: HashMap::new(),
            sets: HashMap::new(),
            tags,
            guard_fields: Vec::new(),
        }
    }
}

/// How a relation parameter enters a vectorized query.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ParamInput {
    /// The base instance table (`$__base`), or a set joined on `__owner`.
    Rel(Input),
    /// The distinct projection (`__owner`, first component) of a relation —
    /// the set-oriented form of an `IN` predicate.
    RelFirstDistinct(Input),
}

impl ParamInput {
    /// The relation the parameter reads.
    pub fn input(&self) -> &Input {
        match self {
            ParamInput::Rel(input) | ParamInput::RelFirstDistinct(input) => input,
        }
    }
}

/// The columns of every [`ParamInput::RelFirstDistinct`] relation, one
/// allocation shared by all of them.
pub(crate) fn member_columns() -> &'static ColNames {
    static NAMES: OnceLock<ColNames> = OnceLock::new();
    NAMES.get_or_init(|| vec!["__owner".to_string(), "__member".to_string()].into())
}

/// A source query after set-oriented rewriting.
#[derive(Debug, Clone)]
pub struct VectorQuery {
    pub query: Query,
    /// `query.output_columns()`, shared by every relation the query returns.
    pub columns: ColNames,
    /// Parameter name → what to bind it to at execution time; a run passes
    /// the relations in this order.
    pub inputs: Vec<(String, ParamInput)>,
    pub source: SourceId,
    /// `query` bound once the graph is built: its tables against the
    /// catalog, its parameters by their position in `inputs` against their
    /// producers' output columns. A binding error is the one every run of
    /// the query returns.
    pub bound: Result<BoundQuery, SqlError>,
}

/// What a task does.
#[derive(Debug, Clone)]
pub enum TaskKind {
    /// Builds the one-row root instance table (mediator), whose row's
    /// `__occ` is `tag`, the root occurrence's key.
    Root { tag: Sym },
    /// A set-oriented generator query for a starred item (at a source), or a
    /// mediator iteration over an already-computed set.
    Gen {
        parent: Occ,
        item: usize,
        query: Option<VectorQuery>,
        /// For `Generator::Set`: the relation iterated.
        set_input: Option<Input>,
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
    /// (mediator): each input's producer, and the `__occ` symbol its rows
    /// carry (the tag its occurrence's binding holds).
    Assemble {
        elem: ElemIdx,
        inputs: Vec<(usize, Sym)>,
    },
    /// Synthesized-attribute aggregation (mediator): `occ`'s `field` in one
    /// pass of `steps` over `occ`'s base rows, deduplicated unless a `bag`.
    SynAgg {
        occ: Occ,
        field: String,
        bag: bool,
        steps: Vec<SynStep>,
    },
    /// Choice condition query (at a source).
    Cond { occ: Occ, query: VectorQuery },
    /// Materializes one choice branch from task `picks`' table (mediator).
    BranchMat {
        occ: Occ,
        branch: usize,
        picks: usize,
    },
    /// A compiled-constraint guard check (mediator).
    Guard { occ: Occ, guard: usize },
}

/// One step of a synthesized pass over the *reached* rows of one instance
/// table (at the top, every row of the owner occurrence's base table, each
/// reached for itself). A row a step emits is owned by the owner its reached
/// row was reached for; steps emit in order, each in row order.
#[derive(Debug, Clone, PartialEq)]
pub enum SynStep {
    /// The rows of `elem`'s instance table whose `__occ` is `tag` and whose
    /// `__parent` is a reached row, each reached for that row's owner:
    /// `body` runs over them.
    Child {
        elem: ElemIdx,
        tag: Sym,
        body: Vec<SynStep>,
    },
    /// The rows of the relation whose `__owner` is a reached row (an id
    /// naming no row matches nothing).
    Keyed(Input),
    /// One row of these scalars per reached row; a scalar that does not
    /// resolve is its error, returned when the step runs.
    Singleton(Result<Vec<ScalarBind>, Box<MediatorError>>),
}

/// One node of the task graph.
#[derive(Debug, Clone)]
pub struct Task {
    pub kind: TaskKind,
    pub source: SourceId,
    pub label: String,
    /// Producer tasks this task reads from, with the relation read: each
    /// producer once, and so each key once (a producer writes one key).
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
    pub producer: Producers,
    /// Each element's instance-table producer (`usize::MAX` if virtual).
    pub instance_tables: Vec<usize>,
    /// Bindings of every visited occurrence (used by tagging and SynAgg).
    pub bindings: HashMap<Occ, Binding>,
    /// Materialized elements in creation order.
    pub materialized: Vec<ElemIdx>,
    /// A topological order of the tasks.
    pub topo: Vec<usize>,
    /// Per-query-rule statistics: how many source queries the graph holds.
    pub source_query_count: usize,
    /// The tagging plan, compiled on the graph's first tagging.
    pub tag_plan: crate::tagging::TagPlanCell,
    /// What a walk reads that the graph fixes — the consumer index, the
    /// topological positions, the estimate graph — built on first use.
    pub dispatch: crate::parallel::DispatchCell,
}

impl Task {
    /// The vectorized source query the task runs: source tasks only, as
    /// mediator-side assembly, aggregation and guard tasks ship nothing.
    pub fn query(&self) -> Option<&VectorQuery> {
        match &self.kind {
            TaskKind::Gen { query, .. } => query.as_ref(),
            TaskKind::InhSetQuery { query, .. } | TaskKind::Cond { query, .. } => Some(query),
            _ => None,
        }
    }

    fn query_mut(&mut self) -> Option<&mut VectorQuery> {
        match &mut self.kind {
            TaskKind::Gen { query, .. } => query.as_mut(),
            TaskKind::InhSetQuery { query, .. } | TaskKind::Cond { query, .. } => Some(query),
            _ => None,
        }
    }

    /// Every [`Input`] of the task's kind, for the builder to resolve.
    fn inputs_mut(&mut self) -> Vec<&mut Input> {
        fn steps<'s>(out: &mut Vec<&'s mut Input>, body: &'s mut [SynStep]) {
            for step in body {
                match step {
                    SynStep::Child { body, .. } => steps(out, body),
                    SynStep::Keyed(input) => out.push(input),
                    SynStep::Singleton(_) => {}
                }
            }
        }
        let mut out = Vec::new();
        let query = match &mut self.kind {
            TaskKind::Gen {
                query, set_input, ..
            } => {
                out.extend(set_input.as_mut());
                query.as_mut()
            }
            TaskKind::InhSetQuery { query, .. } | TaskKind::Cond { query, .. } => Some(query),
            TaskKind::SynAgg { steps: body, .. } => {
                steps(&mut out, body);
                None
            }
            _ => None,
        };
        if let Some(vq) = query {
            let inputs = vq.inputs.iter_mut();
            out.extend(inputs.map(|(_, ParamInput::Rel(i) | ParamInput::RelFirstDistinct(i))| i));
        }
        out
    }
}

impl TaskGraph {
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The producer of `elem`'s instance table.
    pub fn instances_of(&self, elem: ElemIdx) -> usize {
        self.instance_tables[elem.index()]
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
    instance_tables: Vec<usize>,
    bindings: HashMap<Occ, Binding>,
    materialized: Vec<ElemIdx>,
    mat_set: HashSet<ElemIdx>,
    /// Pending occurrence outputs per materialized element, with their tags.
    pending_instances: HashMap<ElemIdx, Vec<(usize, Sym)>>,
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
        instance_tables: vec![usize::MAX; aig.len()],
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
    b.resolve()?;
    b.bind_queries();
    let topo = b.topo_order()?;
    let mut graph = TaskGraph {
        tasks: b.tasks,
        producer: Producers(Arc::new(b.producer)),
        instance_tables: b.instance_tables,
        bindings: b.bindings,
        materialized: b.materialized,
        topo,
        source_query_count: b.source_query_count,
        tag_plan: Default::default(),
        dispatch: Default::default(),
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
            kind: TaskKind::Root {
                tag: intern::intern_owned(Value::str(Occ::mat(aig.root).key(aig))),
            },
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
                // An unreachable element (a truncated level) has no inputs:
                // its assemble is empty, so downstream reads still succeed.
                let inputs = self.pending_instances.remove(&e).unwrap_or_default();
                let output = |&(p, _): &(usize, Sym)| Some((p, self.tasks[p].output.clone()?));
                let deps = inputs.iter().filter_map(output).collect();
                self.push_task(Task {
                    kind: TaskKind::Assemble { elem: e, inputs },
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
            let mut binding = Binding::new(aig, e, occ.clone());
            for field in &aig.elem_info(e).inh {
                let name = field.name.clone();
                if field.ty.is_scalar() {
                    binding.scalars.insert(name.clone(), ScalarBind::Col(name));
                } else {
                    let key = RelKey::InhSet(occ.clone(), name.clone());
                    binding.sets.insert(name, key);
                }
            }
            self.bindings.insert(occ.clone(), binding.clone());
            self.visit_production(&binding)?;
        }

        // Guard tasks (may enqueue SynAgg needs).
        let mut occs: Vec<Occ> = self.bindings.keys().cloned().collect();
        occs.sort();
        for occ in occs {
            let elem = self.bindings[&occ].elem;
            let guards = aig.elem_info(elem).guards.clone();
            for (gi, guard) in guards.iter().enumerate() {
                let fields: Vec<&String> = match &guard.kind {
                    aig_core::spec::GuardKind::Unique { field } => vec![field],
                    aig_core::spec::GuardKind::Subset { sub, sup } => vec![sub, sup],
                };
                let keys = fields.into_iter().map(|f| self.syn_relkey(&occ, f));
                let keys = keys.collect::<Result<Vec<_>, _>>()?;
                let deps = keys.iter().map(|key| (usize::MAX, key.clone())).collect();
                let binding = self.bindings.get_mut(&occ).expect("a visited occurrence");
                binding
                    .guard_fields
                    .push(keys.into_iter().map(Input::of).collect());
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
            if let RelKey::Instances(elem) = key {
                self.instance_tables[elem.index()] = id;
            }
            self.producer.insert(key.clone(), id);
        }
        self.tasks.push(task);
        id
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
                let vq = self.vectorize(cond, binding)?;
                let mut deps = self.query_deps(&vq);
                deps.push((usize::MAX, RelKey::Instances(binding.occ.base)));
                let pick_key = RelKey::Pick(binding.occ.clone());
                self.source_query_count += 1;
                let picks = self.push_task(Task {
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
                    let deps = vec![
                        (picks, pick_key.clone()),
                        (usize::MAX, RelKey::Instances(binding.occ.base)),
                    ];
                    let id = self.push_task(Task {
                        kind: TaskKind::BranchMat {
                            occ: binding.occ.clone(),
                            branch: bno,
                            picks,
                        },
                        source: SourceId::MEDIATOR,
                        label: format!("branch[{}#{bno}]", binding.occ.key(aig)),
                        deps,
                        output: Some(RelKey::BranchOut(binding.occ.clone(), bno)),
                        schema: child_columns(&child_info.inh).into(),
                        est: CostEstimate::ZERO,
                    });
                    let part = (id, binding.tags[bno]);
                    self.pending_instances
                        .entry(branch.elem)
                        .or_default()
                        .push(part);
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
                    let bind = scalar_bind(aig, binding, expr, RULE)?.into_owned();
                    broadcast.push((field.clone(), bind));
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
        let base = RelKey::Instances(binding.occ.base);
        let (source, query, set_input, deps) = match item.generator.as_ref().expect("validated") {
            Generator::Query(qr) => {
                let vq = self.vectorize(qr, binding)?;
                let mut deps = self.query_deps(&vq);
                deps.push((usize::MAX, base));
                self.source_query_count += 1;
                (vq.source, Some(vq), None, deps)
            }
            Generator::Set(expr) => {
                let input = self.set_expr_relkey(binding, expr)?;
                let deps = vec![(usize::MAX, input.clone().unwrap_or(base))];
                (SourceId::MEDIATOR, None, input.map(Input::of), deps)
            }
        };
        let id = self.push_task(Task {
            kind: TaskKind::Gen {
                parent: binding.occ.clone(),
                item: pos,
                query,
                set_input,
                broadcast,
                generated_fields,
            },
            source,
            label: format!("gen[{}#{pos}->{}]", binding.occ.key(aig), child_info.name),
            deps,
            output: Some(RelKey::GenOut(binding.occ.clone(), pos)),
            schema: child_columns(&child_info.inh).into(),
            est: CostEstimate::ZERO,
        });
        let part = (id, binding.tags[pos]);
        self.pending_instances
            .entry(item.elem)
            .or_default()
            .push(part);
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
        let mut child_binding = Binding::new(aig, item.elem, child_occ.clone());
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
                let bind = scalar_bind(aig, binding, expr, RULE)?.into_owned();
                child_binding.scalars.insert(field.clone(), bind);
            } else {
                let key = match rule {
                    FieldRule::Set(expr) => match self.set_expr_relkey(binding, expr)? {
                        Some(key) => key,
                        None => {
                            return Err(MediatorError::Unsupported(format!(
                                "constructed set expression for inherited field \
                                 `{field}` of `{}` (only direct copies and queries \
                                 are set-oriented)",
                                child_info.name
                            )));
                        }
                    },
                    FieldRule::Query(qr) => {
                        let vq = self.vectorize(qr, binding)?;
                        let mut deps = self.query_deps(&vq);
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
                child_binding.sets.insert(field.clone(), key);
            }
        }
        self.bindings.insert(child_occ, child_binding.clone());
        Ok(child_binding)
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
    /// whole rule in one compiled pass, so it reads the relations the rule's
    /// expansion reaches (which may enqueue a SynAgg need).
    fn create_syn_task(&mut self, occ: &Occ, field: &str) -> Result<(), MediatorError> {
        let aig = self.aig;
        let binding = self.bindings.get(occ).ok_or_else(|| {
            MediatorError::Internal(format!("unvisited occurrence {}", occ.key(aig)))
        })?;
        let ty = &syn_decl(aig, binding.elem, field)?.ty;
        let (bag, comps) = (ty.is_bag(), ty.components().unwrap_or_default());
        let (steps, reads) = SynWalk::compile(aig, &self.bindings, occ, field, bag)?;
        for key in &reads {
            if let RelKey::Syn(o, f) = key {
                self.need_syn(o, f);
            }
        }
        self.push_task(Task {
            kind: TaskKind::SynAgg {
                occ: occ.clone(),
                field: field.to_string(),
                bag,
                steps,
            },
            source: SourceId::MEDIATOR,
            label: format!("syn[{}.{field}]", occ.key(aig)),
            deps: reads.into_iter().map(|key| (usize::MAX, key)).collect(),
            output: Some(RelKey::Syn(occ.clone(), field.to_string())),
            schema: owned_by(comps),
            est: CostEstimate::ZERO,
        });
        Ok(())
    }

    /// Dependencies a vectorized query introduces (its relation inputs).
    /// Producer task ids are resolved once every task exists.
    fn query_deps(&self, vq: &VectorQuery) -> Vec<(usize, RelKey)> {
        let key = |(_, input): &(String, ParamInput)| (usize::MAX, input.input().key.clone());
        vq.inputs.iter().map(key).collect()
    }

    /// Names every read by the task that writes it: each deferred dep —
    /// keeping the first read of each producer, so deps name distinct
    /// producers and keys — and every [`Input`] of a task's kind or a guard.
    fn resolve(&mut self) -> Result<(), MediatorError> {
        let producer = &self.producer;
        let resolve = |key: &RelKey| {
            let task = producer.get(key).copied();
            task.ok_or_else(|| MediatorError::Internal(format!("no producer for {key:?}")))
        };
        // The last task that read each producer.
        let mut read_by = vec![usize::MAX; self.tasks.len()];
        for (id, task) in self.tasks.iter_mut().enumerate() {
            for (p, key) in task.deps.iter_mut().filter(|(p, _)| *p == usize::MAX) {
                *p = resolve(key)?;
            }
            task.deps
                .retain(|&(p, _)| std::mem::replace(&mut read_by[p], id) != id);
            for input in task.inputs_mut() {
                input.task = resolve(&input.key)?;
            }
        }
        let guards = self.bindings.values_mut();
        for input in guards.flat_map(|b| b.guard_fields.iter_mut().flatten()) {
            input.task = resolve(&input.key)?;
        }
        Ok(())
    }

    /// Binds every source query ([`VectorQuery::bound`]), once each
    /// producer's output columns are known.
    fn bind_queries(&mut self) {
        for id in 0..self.tasks.len() {
            let Some(vq) = self.tasks[id].query() else {
                continue;
            };
            let bound = vq.query.bind(self.catalog, |name| {
                let at = vq.inputs.iter().position(|(n, _)| n == name)?;
                let columns = match &vq.inputs[at].1 {
                    ParamInput::Rel(input) => &self.tasks[input.task].schema,
                    ParamInput::RelFirstDistinct(_) => member_columns(),
                };
                Some(ParamBinding::Rel { at, columns })
            });
            if let Some(vq) = self.tasks[id].query_mut() {
                vq.bound = bound;
            }
        }
    }

    /// Set-oriented rewriting (§5.1): turns a per-tuple parameterized rule
    /// query into one that joins the whole base instance table, prefixing
    /// the output with the parent row id.
    fn vectorize(
        &mut self,
        qr: &QueryRule,
        binding: &Binding,
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
                        scalar_subst.insert(name.clone(), base_scalar(bind.clone()));
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
                    if resolve_scalar(aig, binding.elem, &expr).is_some() {
                        let bind = scalar_bind(aig, binding, &expr, RULE)?.into_owned();
                        scalar_subst.insert(name.clone(), base_scalar(bind));
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
        let base = Input::of(RelKey::Instances(binding.occ.base));
        inputs.push(("__base".to_string(), ParamInput::Rel(base)));

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
                inputs.push((name.clone(), ParamInput::Rel(Input::of(key))));
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
                        inputs.push((alias, ParamInput::RelFirstDistinct(Input::of(key))));
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
            // Bound with the graph (`Builder::bind_queries`).
            bound: Err(SqlError::Bind(String::new())),
        })
    }
}

/// What [`scalar_bind`] calls a scalar rule expression of the builder's.
const RULE: &str = "a scalar rule at";

/// A scalar as a vectorized query reads it: a column of `$__base`, or the
/// constant.
fn base_scalar(bind: ScalarBind) -> Scalar {
    match bind {
        ScalarBind::Col(c) => Scalar::Col(QualCol::new("__base", c)),
        ScalarBind::Const(v) => Scalar::Const(v),
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

/// The expansions compiled over one set of reached rows: `(occ, field,
/// under_bag)`.
type Expanded = HashSet<(Occ, String, bool)>;

/// The compiler of a synthesized set rule into the [`SynStep`]s of one
/// pass: the rule expanded through the children's synthesized fields down
/// to the instance tables they read. A set-typed field under a bag-typed
/// one is read from its own relation (its per-instance dedup decides the
/// bag's multiplicities). Under a set, a repeat over the same reached rows
/// (a child named twice) emits only rows already emitted, so it is not
/// compiled; else the pass would double per level.
pub(crate) struct SynWalk<'g> {
    aig: &'g Aig,
    bindings: &'g HashMap<Occ, Binding>,
    /// The top field is a bag: a repeat is rows of its value.
    bag: bool,
    /// The relations the pass reads, in walk order, with a choice's pick and
    /// branch outputs, which order the pass without being read.
    reads: Vec<RelKey>,
}

impl<'g> SynWalk<'g> {
    /// Compiles `occ`'s synthesized `field`, a bag when `bag`: the steps of
    /// its pass over the rows of `occ`'s base table, and the relations they
    /// read, that table first.
    pub(crate) fn compile(
        aig: &'g Aig,
        bindings: &'g HashMap<Occ, Binding>,
        occ: &Occ,
        field: &str,
        bag: bool,
    ) -> Result<(Vec<SynStep>, Vec<RelKey>), MediatorError> {
        let mut walk = SynWalk {
            aig,
            bindings,
            bag,
            reads: vec![RelKey::Instances(occ.base)],
        };
        let mut steps = Vec::new();
        walk.field(&mut steps, &mut Expanded::new(), occ, field, false)?;
        Ok((steps, walk.reads))
    }

    /// Whether expanding `occ`'s `field` under a bag when `bag` is new over
    /// the rows `memo` belongs to.
    fn first(&self, memo: &mut Expanded, occ: &Occ, field: &str, bag: bool) -> bool {
        self.bag || memo.insert((occ.clone(), field.to_string(), bag))
    }

    fn binding(&self, occ: &Occ) -> Result<&'g Binding, MediatorError> {
        self.bindings.get(occ).ok_or_else(|| {
            MediatorError::Internal(format!("unvisited occurrence {}", occ.key(self.aig)))
        })
    }

    fn keyed(&mut self, out: &mut Vec<SynStep>, key: RelKey) {
        self.reads.push(key.clone());
        out.push(SynStep::Keyed(Input::of(key)));
    }

    /// The step over `elem`'s rows tagged `tag` under the reached rows, with
    /// the steps `body` compiles over them.
    fn child(
        &mut self,
        out: &mut Vec<SynStep>,
        elem: ElemIdx,
        tag: Sym,
        body: impl FnOnce(&mut Self, &mut Vec<SynStep>, &mut Expanded) -> Result<(), MediatorError>,
    ) -> Result<(), MediatorError> {
        self.reads.push(RelKey::Instances(elem));
        let mut steps = Vec::new();
        body(self, &mut steps, &mut Expanded::new())?;
        out.push(SynStep::Child {
            elem,
            tag,
            body: steps,
        });
        Ok(())
    }

    /// Compiles `occ`'s synthesized `field` over the rows `memo` belongs
    /// to, under a field that is a bag when `under_bag`.
    fn field(
        &mut self,
        out: &mut Vec<SynStep>,
        memo: &mut Expanded,
        occ: &Occ,
        field: &str,
        under_bag: bool,
    ) -> Result<(), MediatorError> {
        let aig = self.aig;
        if !self.first(memo, occ, field, under_bag) {
            return Ok(());
        }
        let binding = self.binding(occ)?;
        let bag = syn_decl(aig, binding.elem, field)?.ty.is_bag();
        if under_bag && !bag {
            let key = resolve_syn_key(aig, self.bindings, occ, binding.elem, field)?;
            self.keyed(out, key);
            return Ok(());
        }
        let info = aig.elem_info(binding.elem);
        let Prod::Choice { branches, .. } = &info.prod else {
            let FieldRule::Set(expr) = &syn_rule(aig, binding.elem, field)?.rule else {
                return Err(MediatorError::Internal("non-set SynAgg rule".into()));
            };
            return self.set(out, memo, binding, expr, bag);
        };
        self.reads.push(RelKey::Pick(occ.clone()));
        for (bno, branch) in branches.iter().enumerate() {
            self.reads.push(RelKey::BranchOut(occ.clone(), bno));
            match branch
                .syn
                .iter()
                .find(|r| r.field == field)
                .map(|r| &r.rule)
            {
                None | Some(FieldRule::Set(SetExpr::Empty)) => {}
                Some(FieldRule::Set(SetExpr::ChildSyn { item: 0, field: f })) => {
                    let child = Occ::mat(branch.elem);
                    self.child(out, branch.elem, binding.tags[bno], |walk, body, memo| {
                        walk.field(body, memo, &child, f, bag)
                    })?;
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

    fn set(
        &mut self,
        out: &mut Vec<SynStep>,
        memo: &mut Expanded,
        binding: &'g Binding,
        expr: &SetExpr,
        bag: bool,
    ) -> Result<(), MediatorError> {
        let aig = self.aig;
        match expr {
            SetExpr::Empty => Ok(()),
            SetExpr::InhField(f) => {
                let key = (binding.sets.get(f))
                    .ok_or_else(|| MediatorError::Internal(format!("no set binding for `{f}`")))?;
                self.keyed(out, key.clone());
                Ok(())
            }
            SetExpr::ChildSyn { item, field } => {
                self.field(out, memo, &binding.occ.child(*item), field, bag)
            }
            SetExpr::Collect { item, field } => {
                // Checked here: each term builds its own child rows.
                if !self.first(memo, &binding.occ.child(*item), field, bag) {
                    return Ok(());
                }
                let Prod::Items(items) = &aig.elem_info(binding.elem).prod else {
                    return Err(MediatorError::Internal("collect outside items".into()));
                };
                let elem = items[*item].elem;
                self.child(out, elem, binding.tags[*item], |walk, body, memo| {
                    if !syn_decl(aig, elem, field)?.ty.is_scalar() {
                        return walk.field(body, memo, &Occ::mat(elem), field, bag);
                    }
                    // A collected scalar: the child's singleton of it.
                    let FieldRule::Scalar(expr) = &syn_rule(aig, elem, field)?.rule else {
                        return Err(MediatorError::Internal("scalar decl, set rule".into()));
                    };
                    let child_binding = walk.binding(&Occ::mat(elem))?;
                    body.push(singleton(aig, child_binding, std::slice::from_ref(expr)));
                    Ok(())
                })
            }
            SetExpr::Union(terms) => {
                for term in terms {
                    self.set(out, memo, binding, term, bag)?;
                }
                Ok(())
            }
            SetExpr::Singleton(exprs) => {
                out.push(singleton(aig, binding, exprs));
                Ok(())
            }
        }
    }
}

/// The step emitting one row of `exprs` over `binding` per reached row.
fn singleton(aig: &Aig, binding: &Binding, exprs: &[ValueExpr]) -> SynStep {
    let bind = |e| scalar_bind(aig, binding, e, "scalar expression at").map(Cow::into_owned);
    let binds: Result<_, _> = exprs.iter().map(bind).collect();
    SynStep::Singleton(binds.map_err(Box::new))
}

/// The declaration of `elem`'s synthesized `field`.
fn syn_decl<'a>(aig: &'a Aig, elem: ElemIdx, field: &str) -> Result<&'a FieldDecl, MediatorError> {
    let info = aig.elem_info(elem);
    let decl = info.syn.iter().find(|f| f.name == field);
    decl.ok_or_else(|| {
        MediatorError::Internal(format!("`{}` declares no synthesized `{field}`", info.name))
    })
}

/// The rule of `elem`'s synthesized `field` (a choice has one per branch).
fn syn_rule<'a>(aig: &'a Aig, elem: ElemIdx, field: &str) -> Result<&'a SynRule, MediatorError> {
    let info = aig.elem_info(elem);
    let rule = info.syn_rules.iter().find(|r| r.field == field);
    rule.ok_or_else(|| {
        MediatorError::Internal(format!(
            "`{}` has no synthesized rule for `{field}`",
            info.name
        ))
    })
}

impl Builder<'_> {
    /// A topological order of the tasks.
    fn topo_order(&self) -> Result<Vec<usize>, MediatorError> {
        let (tasks, n) = (&self.tasks, self.tasks.len());
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

/// Fills `est` for every task, propagating sizes through the graph in
/// topological order (the costing API of §5.2: estimates of upstream queries
/// are fed into downstream estimates).
pub fn estimate_costs(graph: &mut TaskGraph, catalog: &Catalog, opts: &GraphOptions) {
    let stats = CatalogStats::compute(catalog);
    for at in 0..graph.topo.len() {
        let id = graph.topo[at];
        let est = |task: usize| graph.tasks[task].est;
        let med = |rows: f64, width: f64| CostEstimate {
            eval_secs: rows * MEDIATOR_PER_TUPLE_SECS,
            out_rows: rows,
            out_bytes: rows * width,
        };
        let deps = &graph.tasks[id].deps;
        let est = match &graph.tasks[id].kind {
            TaskKind::Root { .. } => CostEstimate {
                eval_secs: 0.0,
                out_rows: 1.0,
                out_bytes: 64.0,
            },
            TaskKind::Gen {
                query, set_input, ..
            } => match query {
                Some(vq) => estimate_vector_query(vq, &stats, graph, &opts.cost_model),
                None => {
                    let input = set_input
                        .as_ref()
                        .map_or(CostEstimate::ZERO, |i| est(i.task));
                    med(input.out_rows, 32.0)
                }
            },
            TaskKind::InhSetQuery { query, .. } | TaskKind::Cond { query, .. } => {
                estimate_vector_query(query, &stats, graph, &opts.cost_model)
            }
            TaskKind::Assemble { inputs, .. } => {
                let rows: f64 = inputs.iter().map(|&(p, _)| est(p).out_rows).sum();
                let bytes: f64 = inputs.iter().map(|&(p, _)| est(p).out_bytes).sum();
                CostEstimate {
                    eval_secs: rows * MEDIATOR_PER_TUPLE_SECS,
                    out_rows: rows.max(0.0),
                    out_bytes: bytes + rows * 12.0,
                }
            }
            // Roughly: base rows split across branches.
            TaskKind::BranchMat { occ, .. } => {
                med(est(graph.instances_of(occ.base)).out_rows / 2.0, 32.0)
            }
            TaskKind::SynAgg { .. } => {
                let rows: f64 = deps.iter().map(|&(d, _)| est(d).out_rows).sum();
                med(rows, 24.0)
            }
            TaskKind::Guard { .. } => {
                let rows: f64 = deps.iter().map(|&(d, _)| est(d).out_rows).sum();
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
    graph: &TaskGraph,
    model: &CostModel,
) -> CostEstimate {
    let params: HashMap<String, ParamStats> = (vq.inputs.iter())
        .map(|(name, input)| {
            let producer = &graph.tasks[input.input().task];
            (name.clone(), ParamStats::from_estimate(&producer.est))
        })
        .collect();
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
            assert!(vq.inputs.iter().any(|(name, input)| name == "__base"
                && matches!(input, ParamInput::Rel(i) if matches!(i.key, RelKey::Instances(_)))));
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
