//! Census of the prepared task graph: every task computes something a
//! result can depend on, once.
//!
//! Constraint compilation used to give each collector to every element type
//! below the context, so σ0's graph at depth 24 held 256 `SynAgg` tasks
//! for `(type, field)` pairs no contributor can reach (∅ on every input)
//! and 49 more recomputing `trIdS` under the name `__c1_sub` — 418 tasks in
//! all. Synthesized sets were then still evaluated level by level: a task
//! per unfolded level, each reading the one below (50 of 110 tasks). A
//! `SynAgg` task now computes its whole rule in one pass. Same set-up as
//! `alloc_regression`: Table 1's Small hospital, the plan the first request
//! escalates to.
//!
//! Beside it, the facts every consumer of a graph and its store rests on,
//! held at every depth the benchmark reaches and on a choice spec: an
//! instance table's `__rowid`s are its row positions, a task's deps name
//! each producer — and so each relation — once, and the `__occ` tags are
//! the plan's: interned once per starred item and choice branch of an
//! occurrence into its binding, and written by Assemble as they are.

use aig_core::paper::sigma0;
use aig_core::spec::{Aig, ElemIdx, FieldRule, Prod, SetExpr, SynRule};
use aig_core::{compile_constraints, decompose_queries, parse_aig};
use aig_datagen::{DatasetSize, HospitalConfig};
use aig_mediator::graph::{Occ, RelKey, Task, TaskGraph, TaskKind};
use aig_mediator::obs::Phases;
use aig_mediator::{
    build_graph, execute_graph, prepare, unfold, CutOff, ExecOptions, ExecPolicy, GraphOptions,
    Mediator, MediatorOptions, NetworkModel, PlanOptions,
};
use aig_relstore::intern::resolve;
use aig_relstore::{Catalog, Database, SourceId, Sym, Table, TableSchema, Value};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::mem::Discriminant;

/// Whether a synthesized rule can produce a row: it injects values itself
/// (singleton, inherited set, collected scalar) or copies a field of a
/// child (`child(item)`) already in `live`.
fn can_hold(
    aig: &Aig,
    rule: &FieldRule,
    child: &dyn Fn(usize) -> ElemIdx,
    live: &HashSet<(ElemIdx, String)>,
) -> bool {
    fn set(
        aig: &Aig,
        expr: &SetExpr,
        child: &dyn Fn(usize) -> ElemIdx,
        live: &HashSet<(ElemIdx, String)>,
    ) -> bool {
        match expr {
            SetExpr::Empty => false,
            SetExpr::Singleton(_) | SetExpr::InhField(_) => true,
            SetExpr::ChildSyn { item, field } => live.contains(&(child(*item), field.clone())),
            SetExpr::Collect { item, field } => {
                let elem = child(*item);
                let decl = aig.elem_info(elem).syn.iter().find(|f| &f.name == field);
                decl.is_some_and(|f| f.ty.is_scalar()) || live.contains(&(elem, field.clone()))
            }
            SetExpr::Union(terms) => terms.iter().any(|t| set(aig, t, child, live)),
        }
    }
    match rule {
        FieldRule::Set(expr) => set(aig, expr, child, live),
        _ => true,
    }
}

/// The set-valued synthesized `(type, field)` pairs of `aig` that can hold
/// a value on some input: the least fixpoint of [`can_hold`].
fn live_fields(aig: &Aig) -> HashSet<(ElemIdx, String)> {
    let mut live = HashSet::new();
    loop {
        let before = live.len();
        for elem in aig.elements() {
            let info = aig.elem_info(elem);
            for decl in info.syn.iter().filter(|f| !f.ty.is_scalar()) {
                let of = |rules: &[SynRule], child: &dyn Fn(usize) -> ElemIdx| {
                    let mut mine = rules.iter().filter(|r| r.field == decl.name);
                    mine.any(|r| can_hold(aig, &r.rule, child, &live))
                };
                let holds = match &info.prod {
                    // A branch's rules read the branch child as item 0.
                    Prod::Choice { branches, .. } => {
                        branches.iter().any(|b| of(&b.syn, &|_| b.elem))
                    }
                    Prod::Items(items) => of(&info.syn_rules, &|item| items[item].elem),
                    _ => of(&info.syn_rules, &|_| unreachable!("a leaf has no children")),
                };
                if holds {
                    live.insert((elem, decl.name.clone()));
                }
            }
        }
        if live.len() == before {
            return live;
        }
    }
}

#[test]
fn every_syn_agg_task_computes_a_distinct_value_that_can_exist() {
    let data = HospitalConfig::sized(DatasetSize::Small)
        .generate()
        .unwrap();
    let aig = sigma0().unwrap();
    let mediator = Mediator::new(data.catalog, &MediatorOptions::default()).unwrap();
    let args = [("date", Value::str(&data.dates[0]))];
    mediator.request(&aig, &args).unwrap();
    let plan = mediator.prepare(&aig).unwrap();
    assert_eq!(plan.depth, 24, "the census is pinned at σ0's depth-24 plan");
    let graph = &plan.graph;
    let options = ExecOptions {
        shipcut: plan.shipcut.clone(),
        ..ExecOptions::default()
    };
    let run = execute_graph(&plan.aig, mediator.catalog(), graph, &args, &options).unwrap();

    // Liveness is read off the compiled grammar before unfolding: a type
    // cut off at the unfolding depth is the frontier's business, not the
    // compiler's.
    let (specialized, _) = decompose_queries(&compile_constraints(&aig).unwrap()).unwrap();
    let live = live_fields(&specialized);
    let mut by_occ: HashMap<_, Vec<usize>> = HashMap::new();
    let mut per_field: BTreeMap<&str, usize> = BTreeMap::new();
    let mut dead = Vec::new();
    for (id, task) in graph.tasks.iter().enumerate() {
        let TaskKind::SynAgg { occ, field, .. } = &task.kind else {
            continue;
        };
        by_occ.entry(occ.clone()).or_default().push(id);
        *per_field.entry(field).or_default() += 1;
        let tag = plan.aig.elem_info(graph.bindings[occ].elem).tag();
        if !live.contains(&(specialized.elem(tag).unwrap(), field.clone())) {
            dead.push(task.label.as_str());
        }
    }
    println!("SynAgg tasks per field: {per_field:?}");
    // (d) One task per collector the guards and bindings read, none
    // reading another: a set under a bag would be read from its own task,
    // and σ0 has none. Level by level there were 53: `trIdS` at every
    // treatment and procedure level, `__c0` and `__c1_sup` at `item` too.
    let expected = BTreeMap::from([("__c0", 1), ("__c1_sup", 1), ("trIdS", 1)]);
    assert_eq!(per_field, expected);
    let syn_edges: Vec<(&str, &str)> = (graph.tasks.iter())
        .filter(|t| matches!(t.kind, TaskKind::SynAgg { .. }))
        .flat_map(|t| t.deps.iter().map(move |(d, _)| (t, &graph.tasks[*d])))
        .filter(|(_, d)| matches!(d.kind, TaskKind::SynAgg { .. }))
        .map(|(t, d)| (t.label.as_str(), d.label.as_str()))
        .collect();
    assert!(
        syn_edges.is_empty(),
        "{} SynAgg tasks read another's output: {syn_edges:?}",
        syn_edges.len()
    );
    // (b) No task computes a field no contributor can reach (256 at PR 24).
    assert!(
        dead.is_empty(),
        "{} tasks compute ∅ on every input: {dead:?}",
        dead.len()
    );

    // (a) No two tasks at one occurrence compute the same non-empty set,
    // or the same non-empty bag (27 pairs at PR 24: `__c1_sub` beside
    // `trIdS` at every treatment level this date reaches). A bag and a set
    // with equal rows are not one value: the bag's duplicates are what a
    // key guard checks.
    let kind = |t: usize| {
        let TaskKind::SynAgg { occ, field, .. } = &graph.tasks[t].kind else {
            unreachable!()
        };
        let info = plan.aig.elem_info(graph.bindings[occ].elem);
        let decl = info.syn.iter().find(|f| &f.name == field).unwrap();
        std::mem::discriminant(&decl.ty)
    };
    let mut twins = Vec::new();
    for ids in by_occ.values() {
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                let out = |t: usize| {
                    run.store
                        .get(graph.tasks[t].output.as_ref().unwrap())
                        .unwrap()
                };
                let (ra, rb) = (out(a), out(b));
                if ra.is_empty() || ra.arity() != rb.arity() || kind(a) != kind(b) {
                    continue;
                }
                // Component names may differ; the rows may not.
                if ra.bag_eq(&rb.clone().with_columns(ra.columns().to_vec())) {
                    twins.push((graph.tasks[a].label.as_str(), graph.tasks[b].label.as_str()));
                }
            }
        }
    }
    assert!(
        twins.is_empty(),
        "{} pairs compute one relation twice: {twins:?}",
        twins.len()
    );

    // (c) The graph as a whole: 418 tasks with collectors on every type
    // below a context, 110 with synthesized sets evaluated level by level.
    println!("{} tasks", graph.tasks.len());
    assert!(graph.tasks.len() <= 64, "{} tasks", graph.tasks.len());
}

/// A choice production over one source: orders of `day` pay by card (kind
/// 1) or invoice (kind 2).
fn orders() -> (Aig, Catalog) {
    let aig = parse_aig(
        r#"
        aig orders {
          dtd {
            <!ELEMENT orders (order*)>
            <!ELEMENT order (id, payment)>
            <!ELEMENT payment (card | invoice)>
            <!ELEMENT id (#PCDATA)>
            <!ELEMENT card (#PCDATA)>
            <!ELEMENT invoice (#PCDATA)>
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
          }
          elem payment {
            inh(oid);
            case sql {
              select distinct p.kind as pick from OMS:payments p where p.oid = $oid
            } {
              1 => card { val = $oid; }
              2 => invoice { val = 'pending'; }
            }
          }
        }
        "#,
    )
    .unwrap();
    let mut db = Database::new("OMS");
    let mut orders = Table::new(TableSchema::strings("orders", &["id", "day"], &[]));
    let mut payments = Table::new(TableSchema::strings("payments", &["oid", "kind"], &[]));
    for i in 0..7 {
        let id = Value::str(format!("o{i}"));
        orders.insert(vec![id.clone(), Value::str("mon")]).unwrap();
        let kind = Value::str(format!("{}", i % 2 + 1));
        payments.insert(vec![id, kind]).unwrap();
    }
    db.add_table(orders).unwrap();
    db.add_table(payments).unwrap();
    let mut catalog = Catalog::new();
    catalog.add_source(db).unwrap();
    (aig, catalog)
}

/// `source` compiled, unfolded to `depth` and its task graph.
fn graph_at(source: &Aig, catalog: &Catalog, depth: usize) -> (Aig, TaskGraph) {
    let compiled = match source.constraints.is_empty() {
        true => source.clone(),
        false => compile_constraints(source).unwrap(),
    };
    let specialized = decompose_queries(&compiled).unwrap().0;
    let aig = unfold(&specialized, depth, CutOff::Truncate).unwrap().aig;
    let graph = build_graph(&aig, catalog, &GraphOptions::default()).unwrap();
    (aig, graph)
}

/// Builds `source`'s graph at `depth` and runs it under the one-worker and
/// the per-source walk, checking both facts on the graph and on each
/// store: every task's deps name distinct producers, each the producer of
/// the key it is read for (so the keys are distinct too), and every
/// instance table's `__rowid`s are `0..n` in row order. Returns the
/// instance rows checked.
fn ids_are_positions_and_deps_are_distinct(
    source: &Aig,
    catalog: &Catalog,
    depth: usize,
    args: &[(&str, Value)],
) -> usize {
    let (aig, graph) = graph_at(source, catalog, depth);
    for task in &graph.tasks {
        let producers: HashSet<usize> = task.deps.iter().map(|(d, _)| *d).collect();
        let keys: HashSet<&RelKey> = task.deps.iter().map(|(_, k)| k).collect();
        let counts = (producers.len(), keys.len());
        assert_eq!(counts, (task.deps.len(), task.deps.len()), "{}", task.label);
        for (producer, key) in &task.deps {
            assert_eq!(graph.producer[key], *producer, "{}: {key:?}", task.label);
            assert_eq!(graph.tasks[*producer].output.as_ref(), Some(key));
        }
    }
    let parallel = ExecOptions::new(ExecPolicy {
        parallel_exec: true,
        ..ExecPolicy::default()
    });
    let mut rows = 0;
    for opts in [ExecOptions::default(), parallel] {
        let run = execute_graph(&aig, catalog, &graph, args, &opts).unwrap();
        let instances = (graph.tasks.iter()).filter_map(|t| match &t.output {
            Some(key @ RelKey::Instances(elem)) => Some((key, *elem)),
            _ => None,
        });
        for (key, elem) in instances {
            let rel = run.store.get(key).unwrap();
            let rowid = rel.col("__rowid").unwrap();
            for row in 0..rel.len() {
                let want = Value::int(row as i64);
                let name = aig.elem_name(elem);
                assert_eq!(rel.cell(row, rowid), &want, "T[{name}] row {row}");
            }
            rows += rel.len();
        }
    }
    rows
}

#[test]
fn instance_ids_are_row_positions_and_task_deps_are_distinct() {
    let data = HospitalConfig::tiny(3).generate().unwrap();
    let args = [("date", Value::str(&data.dates[0]))];
    let aig = sigma0().unwrap();
    for depth in [3, 6, 12, 24] {
        let rows = ids_are_positions_and_deps_are_distinct(&aig, &data.catalog, depth, &args);
        assert!(rows > 100, "depth {depth}: {rows} instance rows");
    }
    let (aig, catalog) = orders();
    let args = [("day", Value::str("mon"))];
    let rows = ids_are_positions_and_deps_are_distinct(&aig, &catalog, 2, &args);
    assert!(rows > 20, "orders: {rows} instance rows");
}

/// Builds `source`'s graph at `depth` and runs it, checking the tags on the
/// graph and on the store: each binding holds the symbol of `{occ.key}#{item}`
/// at each starred item and of `{occ.key}#b{n}` at each choice branch (and
/// `Sym::NULL` at a plain item), the root task the root occurrence's key,
/// and every instance table's `__occ` cells are, input by input, the
/// symbol its producer's binding holds. Returns the `__occ` cells checked.
fn occ_tags_are_the_bindings(
    source: &Aig,
    catalog: &Catalog,
    depth: usize,
    args: &[(&str, Value)],
) -> usize {
    let (aig, graph) = graph_at(source, catalog, depth);
    let spelled = |sym: Sym, text: String| assert_eq!(resolve(sym), &Value::str(text));
    for (occ, binding) in &graph.bindings {
        let key = occ.key(&aig);
        match &aig.elem_info(binding.elem).prod {
            Prod::Items(items) => {
                assert_eq!(binding.tags.len(), items.len(), "{key}");
                for (item, (spec, &tag)) in items.iter().zip(&binding.tags).enumerate() {
                    match spec.star {
                        true => spelled(tag, format!("{key}#{item}")),
                        false => assert_eq!(tag, Sym::NULL, "{key}#{item}"),
                    }
                }
            }
            Prod::Choice { branches, .. } => {
                assert_eq!(binding.tags.len(), branches.len(), "{key}");
                for (b, &tag) in binding.tags.iter().enumerate() {
                    spelled(tag, format!("{key}#b{b}"));
                }
            }
            Prod::Pcdata { .. } | Prod::Empty => assert!(binding.tags.is_empty(), "{key}"),
        }
    }
    let run = execute_graph(&aig, catalog, &graph, args, &ExecOptions::default()).unwrap();
    let mut cells = 0;
    for task in &graph.tasks {
        let (elem, written) = match &task.kind {
            TaskKind::Root { tag } => {
                spelled(*tag, Occ::mat(aig.root).key(&aig));
                (aig.root, vec![(*tag, 1)])
            }
            TaskKind::Assemble { elem, inputs } => {
                let part = |&(producer, tag): &(usize, Sym)| {
                    let input = graph.tasks[producer].output.as_ref().unwrap();
                    let (RelKey::GenOut(occ, at) | RelKey::BranchOut(occ, at)) = input else {
                        panic!("{}: an input {input:?}", task.label)
                    };
                    assert_eq!(tag, graph.bindings[occ].tags[*at], "{}", task.label);
                    let rows = run.store.get(input).unwrap().len();
                    (tag, rows)
                };
                (*elem, inputs.iter().map(part).collect())
            }
            _ => continue,
        };
        let table = run.store.get(&RelKey::Instances(elem)).unwrap();
        let mut occs = table.col_syms(table.col("__occ").unwrap()).iter();
        for (tag, rows) in written {
            let got: Vec<Sym> = occs.by_ref().take(rows).copied().collect();
            assert_eq!(got, vec![tag; rows], "{}", task.label);
            cells += rows;
        }
        assert_eq!(occs.next(), None, "{}", task.label);
    }
    cells
}

#[test]
fn occ_tags_are_interned_with_the_graph_and_written_as_they_are() {
    let data = HospitalConfig::tiny(3).generate().unwrap();
    let args = [("date", Value::str(&data.dates[0]))];
    let aig = sigma0().unwrap();
    for depth in [3, 6, 12, 24] {
        let cells = occ_tags_are_the_bindings(&aig, &data.catalog, depth, &args);
        assert!(cells > 50, "depth {depth}: {cells} `__occ` cells");
    }
    let (aig, catalog) = orders();
    let args = [("day", Value::str("mon"))];
    let cells = occ_tags_are_the_bindings(&aig, &catalog, 2, &args);
    assert!(cells > 10, "orders: {cells} `__occ` cells");
}

/// What a task is, as far as its id is concerned: its label, kind, source,
/// output and deps.
type TaskShape = (
    String,
    Discriminant<TaskKind>,
    SourceId,
    Option<RelKey>,
    Vec<(usize, RelKey)>,
);

/// The task sequence of `source`'s plan at `depth`, prepared afresh.
fn task_sequence(source: &Aig, catalog: &Catalog, depth: usize) -> Vec<TaskShape> {
    let (options, net) = (PlanOptions::default(), NetworkModel::default());
    let plan = prepare(source, catalog, depth, &options, &net, &mut Phases::new()).unwrap();
    let tasks = plan.graph.tasks.iter();
    let task = |t: &Task| {
        let kind = std::mem::discriminant(&t.kind);
        (
            t.label.clone(),
            kind,
            t.source,
            t.output.clone(),
            t.deps.clone(),
        )
    };
    tasks.map(task).collect()
}

/// Task ids are a function of the AIG, the catalog and the depth: two
/// independent preparations number every task alike, so what a run keeps
/// by task id — a refresh's snapshot — fits any preparation of its plan.
#[test]
fn two_preparations_number_every_task_alike() {
    let data = HospitalConfig::tiny(3).generate().unwrap();
    let aig = sigma0().unwrap();
    for depth in [3, 6, 12, 24] {
        let first = task_sequence(&aig, &data.catalog, depth);
        assert!(first.len() > 10, "depth {depth}: {} tasks", first.len());
        assert_eq!(
            first,
            task_sequence(&aig, &data.catalog, depth),
            "depth {depth}"
        );
    }
    let (aig, catalog) = orders();
    let first = task_sequence(&aig, &catalog, 2);
    assert_eq!(first, task_sequence(&aig, &catalog, 2), "orders");
}
