//! The `--trace 1` run: the per-layer profile, every number taken from
//! outside the program.
//!
//! Three sections after set-up: an untraced baseline (the workload's real
//! ops, for `request.*` and the tracing overhead); the **staged** passes,
//! which re-compose each op from the layers' public functions — exactly
//! the calls `plan::prepare` and `plan::finish_run` make — with a span
//! around each call; and the **probes**, which time every layer the
//! workload's own ops do not reach, on the workload's own data, so that
//! each layer has a measured number on each workload. No `.ms` comes from
//! a timer inside the program.

use crate::timed::{self, metric, Metric, Outcome};
use crate::trace::{SelfCost, Tracer};
use crate::workloads::{delta_ops, Engine, Op, Session, Workload};
use crate::Args;
use aig_core::paper::SIGMA0_DSL;
use aig_core::spec::Aig;
use aig_core::{compile_constraints, decompose_queries, evaluate, parse_aig};
use aig_mediator::cost::{estimated_costs, measured_costs};
use aig_mediator::graph::TaskKind;
use aig_mediator::tagging::tag_document;
use aig_mediator::{
    build_graph, execute_graph, execute_graph_parallel, merge, no_merge, unfold, CostGraph,
    ExecOptions, ExecPolicy, ExecResult, Measured, Mediator, MediatorOptions, MergeOutcome,
    NetworkModel, PlanOptions, PreparedPlan, ShipCut, TaskGraph, Unfolded,
};
use aig_relstore::{Catalog, Relation, Value};
use aig_sql::{ParamValue, Params, Query};
use aig_xml::{serialize, validate, Dtd, XmlTree};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Shares of `--seconds` the untraced baseline and the staged passes get;
/// the probes run a fixed number of repetitions.
const BASELINE_SHARE: f64 = 0.25;
const STAGED_SHARE: f64 = 0.35;
/// Request groups: a staged op's is its index in the op list; the delta
/// probe's ops follow from `DELTA_PROBE`; every other probe shares `PROBE`.
const DELTA_PROBE: u32 = 1000;
const PROBE: u32 = u32::MAX;
const REPS: usize = 2;
/// Repetitions of a probe that takes microseconds.
const MICRO_REPS: usize = 15;

/// Counts read from returned values at the span boundaries: the mean over
/// the requests that recorded them.
#[derive(Default)]
struct Counts(BTreeMap<&'static str, (f64, f64, &'static str)>);

impl Counts {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let entry = self.0.entry(name).or_insert((0.0, 0.0, unit));
        entry.0 += value;
        entry.1 += 1.0;
    }

    /// The mean of a count and its unit.
    fn get(&self, name: &str) -> (f64, &'static str) {
        let (sum, n, unit) = self
            .0
            .get(name)
            .unwrap_or_else(|| panic!("no count {name}"));
        (sum / n, unit)
    }

    fn mean(&self, name: &str) -> f64 {
        self.get(name).0
    }
}

/// `reps` repetitions with the clocks read, then one with allocations
/// counted.
fn probe(t: &mut Tracer, reps: usize, mut f: impl FnMut(&mut Tracer)) {
    for rep in 0..=reps {
        t.next_request(PROBE, rep == reps);
        f(t);
    }
}

// -- The prepare side: parse → compile → decompose → unfold → graph →
//    ship-cut → estimate-based plan ------------------------------------------

struct FrontEnd {
    aig: Aig,
    specialized: Aig,
}

fn front_end(t: &mut Tracer, c: &mut Counts, text: &str) -> FrontEnd {
    let aig = t
        .span("core.parser", |_| parse_aig(text))
        .expect("σ0 parses");
    c.add("core.parser.bytes_in", text.len() as f64, "B");
    let compiled = t
        .span("core.compile", |_| {
            if aig.constraints.is_empty() {
                Ok(aig.clone())
            } else {
                compile_constraints(&aig)
            }
        })
        .expect("σ0 compiles");
    let (specialized, report) = t
        .span("core.decompose", |_| decompose_queries(&compiled))
        .expect("σ0 decomposes");
    let queries = report.single_source + report.decomposed + report.states_added;
    c.add("core.decompose.queries_out", queries as f64, "count");
    FrontEnd { aig, specialized }
}

struct Round {
    unfolded: Unfolded,
    graph: TaskGraph,
    cut: Arc<ShipCut>,
    merged: MergeOutcome,
}

fn plan_round(
    t: &mut Tracer,
    specialized: &Aig,
    catalog: &Catalog,
    depth: usize,
    options: &PlanOptions,
    net: &NetworkModel,
) -> Round {
    let unfolded = t
        .span("mediator.unfold", |_| {
            unfold(specialized, depth, options.cutoff)
        })
        .expect("unfold");
    let graph = t
        .span("mediator.graph", |_| {
            build_graph(&unfolded.aig, catalog, &options.graph)
        })
        .expect("graph");
    let cut = t.span("mediator.shipcut", |_| {
        Arc::new(ShipCut::analyze(&unfolded.aig, &graph))
    });
    let merged = t.span("mediator.merge.plan", |_| {
        let mut costs = estimated_costs(&graph);
        for (id, cost) in costs.iter_mut().enumerate() {
            if let Some(fraction) = cut.estimated_live_fraction(id, &unfolded.aig, &graph) {
                cost.out_bytes *= fraction;
            }
        }
        let cg = CostGraph::from_task_graph(&graph, &costs).contract_passthrough();
        black_box(no_merge(&cg, net));
        merge(&cg, net, options.graph.cost_model.per_query_overhead_secs)
    });
    Round {
        unfolded,
        graph,
        cut,
        merged,
    }
}

fn count_round(c: &mut Counts, round: &Round) {
    let elems = round.unfolded.aig.elements().count();
    c.add("mediator.unfold.elems_out", elems as f64, "count");
    c.add("mediator.graph.tasks", round.graph.len() as f64, "count");
    let queries = round.graph.source_query_count;
    c.add("mediator.graph.source_queries", queries as f64, "count");
    c.add(
        "mediator.merge.plan.merges",
        round.merged.merges as f64,
        "count",
    );
}

// -- The execute side: execute → tag → validate → constraints → measured-cost
//    re-simulation → serialize ------------------------------------------------

fn exec_options(policy: &ExecPolicy, plan: &PlanOptions, cut: Arc<ShipCut>) -> ExecOptions {
    let mut options = ExecOptions::new(policy.clone());
    options.eval_scale = plan.graph.eval_scale;
    options.shipcut = Some(cut);
    options
}

/// Rows and tasks of one request's executions (`plan_cold` sums its
/// frontier rounds).
#[derive(Default)]
struct ExecTotals {
    tasks: f64,
    rows_in: f64,
    rows_out: f64,
}

impl ExecTotals {
    fn add(&mut self, measured: &[Measured]) {
        self.tasks += measured.len() as f64;
        self.rows_in += measured.iter().map(|m| m.in_rows).sum::<f64>();
        self.rows_out += measured.iter().map(|m| m.out_rows).sum::<f64>();
    }

    fn count(&self, c: &mut Counts) {
        c.add("mediator.exec.tasks_run", self.tasks, "count");
        c.add("mediator.exec.rows_in", self.rows_in, "rows");
        c.add("mediator.exec.rows_out", self.rows_out, "rows");
    }
}

fn count_shipcut(c: &mut Counts, measured: &[Measured]) {
    let ship: f64 = measured.iter().map(|m| m.ship_bytes).sum();
    let wire: f64 = measured.iter().map(|m| m.wire_bytes).sum();
    c.add(
        "mediator.shipcut.live_fraction",
        ship / wire.max(1.0),
        "ratio",
    );
}

fn run_parallel(
    t: &mut Tracer,
    name: &'static str,
    plan: &PlanView<'_>,
    policy: &ExecPolicy,
    args: &[(&str, Value)],
) -> ExecResult {
    let options = exec_options(policy, plan.options, plan.cut.clone());
    let per_source = aig_mediator::plan::topo_per_source(plan.graph);
    t.span(name, |_| {
        execute_graph_parallel(
            plan.aig,
            plan.catalog,
            plan.graph,
            args,
            &options,
            &per_source,
        )
    })
    .expect("parallel execution")
}

fn run_sequential(
    t: &mut Tracer,
    name: &'static str,
    plan: &PlanView<'_>,
    policy: &ExecPolicy,
    args: &[(&str, Value)],
) -> ExecResult {
    let options = exec_options(policy, plan.options, plan.cut.clone());
    t.span(name, |_| {
        execute_graph(plan.aig, plan.catalog, plan.graph, args, &options)
    })
    .expect("execution")
}

/// What the execute side needs of a plan, prepared by the mediator or
/// staged here.
struct PlanView<'a> {
    aig: &'a Aig,
    graph: &'a TaskGraph,
    cut: Arc<ShipCut>,
    options: &'a PlanOptions,
    catalog: &'a Catalog,
    /// The source AIG's DTD, which the output is validated against.
    dtd: &'a Dtd,
}

impl<'a> PlanView<'a> {
    fn of(plan: &'a PreparedPlan, catalog: &'a Catalog, dtd: &'a Dtd) -> PlanView<'a> {
        PlanView {
            aig: &plan.aig,
            graph: &plan.graph,
            cut: plan.shipcut.clone().expect("ship-cut is on by default"),
            options: &plan.options,
            catalog,
            dtd,
        }
    }
}

/// Tag, validate, (check constraints,) re-simulate: `finish_run`'s calls.
fn finish(
    t: &mut Tracer,
    c: &mut Counts,
    plan: &PlanView<'_>,
    exec: &ExecResult,
    policy: &ExecPolicy,
) -> XmlTree {
    let tree = t
        .span("mediator.tagging", |_| {
            tag_document(plan.aig, plan.graph, &exec.store)
        })
        .expect("tagging");
    c.add("mediator.tagging.nodes", tree.len() as f64, "count");
    t.span("xml.validate", |_| validate(&tree, plan.dtd))
        .expect("valid output");
    if policy.check_integrity {
        let violation = t.span("xml.constraints", |_| {
            plan.aig.constraints.check_first(&tree)
        });
        assert!(violation.is_none(), "constraints hold on generated data");
    }
    let merged = t.span("mediator.merge.resim", |_| {
        let overhead = plan.options.graph.cost_model.per_query_overhead_secs;
        let costs = measured_costs(
            plan.graph,
            &exec.measured,
            overhead,
            plan.options.graph.eval_scale,
        );
        let cg = CostGraph::from_task_graph(plan.graph, &costs).contract_passthrough();
        black_box(no_merge(&cg, &policy.network));
        merge(&cg, &policy.network, overhead)
    });
    c.add("mediator.merge.resim.merges", merged.merges as f64, "count");
    count_shipcut(c, &exec.measured);
    tree
}

fn serialize_doc(t: &mut Tracer, c: &mut Counts, tree: &XmlTree) -> String {
    let xml = t.span("xml.serialize", |_| serialize::to_string(tree));
    c.add("xml.serialize.bytes_out", xml.len() as f64, "B");
    xml
}

fn count_parallel(c: &mut Counts, exec: &ExecResult) {
    let wait: f64 = exec.measured.iter().map(|m| m.wait_secs).sum();
    c.add("mediator.parallel.wait_ms", wait * 1e3, "ms");
}

// -- The staged ops -----------------------------------------------------------

/// `plan_cold`'s op, staged: the whole one-shot pipeline with its frontier
/// escalation, ending at the depth the real op ended at.
fn staged_cold(
    session: &Session,
    i: usize,
    final_depth: usize,
    t: &mut Tracer,
    c: &mut Counts,
) -> String {
    let plan_options = session.options.plan_options();
    let policy = session.options.exec_policy();
    let catalog = session.catalog();
    let args = [("date", Value::str(&session.ops[i].date))];
    t.span("request", |t| {
        let front = front_end(t, c, SIGMA0_DSL);
        let mut totals = ExecTotals::default();
        let mut depth = plan_options.unfold_depth.max(1);
        loop {
            let round = plan_round(
                t,
                &front.specialized,
                catalog,
                depth,
                &plan_options,
                &policy.network,
            );
            let view = PlanView {
                aig: &round.unfolded.aig,
                graph: &round.graph,
                cut: round.cut.clone(),
                options: &plan_options,
                catalog,
                dtd: &front.aig.dtd,
            };
            let exec = run_sequential(t, "mediator.exec", &view, &policy, &args);
            totals.add(&exec.measured);
            if depth >= final_depth {
                count_round(c, &round);
                totals.count(c);
                let tree = finish(t, c, &view, &exec, &policy);
                return serialize_doc(t, c, &tree);
            }
            depth = (depth * 2).min(plan_options.max_depth);
        }
    })
}

/// A `report_*` op, staged from the mediator's cached plan.
fn staged_report(session: &Session, i: usize, t: &mut Tracer, c: &mut Counts) -> String {
    let mediator = session.mediator();
    let plan = mediator.prepare(&session.aig).expect("cached plan");
    let view = PlanView::of(&plan, mediator.catalog(), &session.aig.dtd);
    let policy = session.options.exec_policy();
    let args = [("date", Value::str(&session.ops[i].date))];
    t.span("request", |t| {
        let exec = if policy.parallel_exec {
            let exec = run_parallel(t, "mediator.parallel", &view, &policy, &args);
            count_parallel(c, &exec);
            exec
        } else {
            let exec = run_sequential(t, "mediator.exec", &view, &policy, &args);
            let mut totals = ExecTotals::default();
            totals.add(&exec.measured);
            totals.count(c);
            exec
        };
        let tree = finish(t, c, &view, &exec, &policy);
        serialize_doc(t, c, &tree)
    })
}

/// One `delta_refresh` op up to the refreshed run: the two service calls
/// are the only public seams of the incremental path.
fn delta_step(
    mediator: &mut Mediator,
    aig: &Aig,
    op: &Op,
    t: &mut Tracer,
    c: &mut Counts,
) -> XmlTree {
    t.span("mediator.delta.apply", |_| {
        for delta in &op.deltas {
            mediator.apply_delta(delta).expect("delta applies");
        }
    });
    let args = [("date", Value::str(&op.date))];
    let (run, report) = t
        .span("mediator.delta.refresh", |_| mediator.request(aig, &args))
        .expect("refresh");
    let ledger = &report.incremental;
    let share = |part: usize, rest: usize| part as f64 / (part + rest).max(1) as f64;
    let rerun = share(ledger.tasks_rerun, ledger.tasks_reused);
    c.add("mediator.delta.refresh.rerun_share", rerun, "ratio");
    c.add(
        "mediator.delta.refresh.rows_spliced",
        ledger.rows_spliced as f64,
        "rows",
    );
    let reused = share(ledger.nodes_reused, ledger.nodes_rebuilt);
    c.add("mediator.delta.refresh.nodes_reused_share", reused, "ratio");
    run.tree
}

// -- The probes ---------------------------------------------------------------

/// Times every layer the staged ops did not reach, on the session's data:
/// a default-options mediator over a copy of the catalog supplies the plan.
fn probes(session: &Session, t: &mut Tracer, c: &mut Counts) {
    let aig = &session.aig;
    let date = session.ops[0].date.as_str();
    let args = [("date", Value::str(date))];
    let defaults = MediatorOptions::default();
    let mediator = Mediator::new(session.catalog().clone(), &defaults).expect("probe mediator");
    // The first request escalates to the data's depth and caches the plan.
    let (first_run, first_report) = mediator.request(aig, &args).expect("probe request");
    let plan = mediator.prepare(aig).expect("probe plan");
    let catalog = mediator.catalog();
    let view = PlanView::of(&plan, catalog, &aig.dtd);
    let plain = defaults.exec_policy();

    if !t.covered("core.parser") {
        probe(t, REPS, |t| {
            let front = front_end(t, c, SIGMA0_DSL);
            let round = plan_round(
                t,
                &front.specialized,
                catalog,
                plan.depth,
                &plan.options,
                &plan.network,
            );
            count_round(c, &round);
        });
    }
    let queries: Vec<String> = plan
        .graph
        .tasks
        .iter()
        .filter_map(|task| match &task.kind {
            TaskKind::Gen { query, .. } => query.as_ref(),
            TaskKind::InhSetQuery { query, .. } | TaskKind::Cond { query, .. } => Some(query),
            _ => None,
        })
        .map(|vector| vector.query.to_string())
        .collect();
    probe(t, REPS, |t| {
        t.span("sql.parser", |_| {
            for text in &queries {
                black_box(Query::parse(text).expect("a source query parses back"));
            }
        })
    });

    // The executors, one switch at a time.
    if !t.covered("mediator.exec") {
        probe(t, REPS, |t| {
            let exec = run_sequential(t, "mediator.exec", &view, &plain, &args);
            let mut totals = ExecTotals::default();
            totals.add(&exec.measured);
            totals.count(c);
        });
    }
    let modes_on = Workload::ReportModesOn.options().exec_policy();
    if !t.covered("mediator.parallel") {
        probe(t, REPS, |t| {
            let exec = run_parallel(t, "mediator.parallel", &view, &modes_on, &args);
            count_parallel(c, &exec);
        });
    }
    let one_worker = ExecPolicy {
        threads: 1,
        ..modes_on.clone()
    };
    probe(t, REPS, |t| {
        run_parallel(t, "mediator.parallel.w1", &view, &one_worker, &args);
    });
    let batching = ExecPolicy {
        batching: true,
        batch_rows: modes_on.batch_rows,
        ..plain.clone()
    };
    probe(t, REPS, |t| {
        let exec = run_sequential(t, "mediator.batch", &view, &batching, &args);
        c.add(
            "mediator.batch.batches",
            exec.batch.total_batches as f64,
            "count",
        );
        let peak = exec.batch.peak_resident_rows;
        c.add("mediator.batch.peak_resident_rows", peak as f64, "rows");
    });
    let guarded = ExecPolicy {
        check_integrity: true,
        ..plain.clone()
    };
    probe(t, REPS, |t| {
        run_sequential(t, "mediator.integrity.base", &view, &plain, &args);
        run_sequential(t, "mediator.integrity", &view, &guarded, &args);
    });

    // The tail of a run, where the staged op could not reach it.
    let exec = execute_graph(
        view.aig,
        catalog,
        view.graph,
        &args,
        &exec_options(&plain, view.options, view.cut.clone()),
    )
    .expect("probe execution");
    if !t.covered("mediator.tagging") {
        probe(t, REPS, |t| {
            finish(t, c, &view, &exec, &plain);
        });
    }
    if !t.covered("xml.constraints") {
        probe(t, REPS, |t| {
            black_box(t.span("xml.constraints", |_| {
                view.aig.constraints.check_first(&first_run.tree)
            }));
        });
    }
    if !t.covered("mediator.service.request") {
        probe(t, REPS, |t| {
            black_box(
                t.span("mediator.service.request", |_| mediator.request(aig, &args))
                    .expect("request"),
            );
        });
    }
    probe(t, MICRO_REPS, |t| {
        black_box(
            t.span("mediator.service.cache_hit", |_| mediator.prepare(aig))
                .expect("cached plan"),
        );
    });
    probe(t, REPS, |t| {
        let json = t.span("mediator.obs.report_json", |_| {
            first_report.to_json().to_pretty()
        });
        c.add("mediator.obs.report_json.bytes_out", json.len() as f64, "B");
    });

    sql_probes(catalog, date, t, c);

    // The relation kernels, on the largest relation the run produced.
    let largest = plan
        .graph
        .tasks
        .iter()
        .filter_map(|task| exec.store.get(task.output.as_ref()?).ok())
        .max_by_key(|rel| rel.len())
        .expect("the run produced relations");
    probe(t, MICRO_REPS, |t| {
        black_box(t.span("relstore.relation.dedup", |_| largest.distinct()));
        c.add("relstore.relation.dedup.rows", largest.len() as f64, "rows");
    });
    probe(t, MICRO_REPS, |t| {
        // A copy with its own size memo: the first `wire_bytes` scans.
        let columns = (0..largest.arity()).map(|col| largest.col_syms(col).to_vec());
        let fresh = Relation::from_columns(largest.columns().to_vec(), columns.collect());
        black_box(t.span("relstore.relation.wire", |_| fresh.wire_bytes()));
        c.add("relstore.relation.wire.rows", fresh.len() as f64, "rows");
    });

    // Deltas: the store's own apply, then the mediator's incremental path.
    let ops = delta_ops(catalog, date, session.seed);
    let cover = &ops[2].deltas[0];
    probe(t, MICRO_REPS, |t| {
        let mut copy = catalog.clone();
        t.span("relstore.delta.apply", |_| copy.apply_delta(cover))
            .expect("delta applies");
        let rows = cover.rows_inserted() + cover.rows_deleted();
        c.add("relstore.delta.apply.rows", rows as f64, "rows");
    });
    if !t.covered("mediator.delta.refresh") {
        let options = Workload::DeltaRefresh.options();
        let mut incremental =
            Mediator::new(catalog.clone(), &options).expect("incremental mediator");
        incremental.request(aig, &args).expect("cold run");
        // The whole op list, inverses included: an inverse applied without
        // its request would leave its table dirty for the next kind.
        for counted in [false, true] {
            for (i, op) in ops.iter().enumerate() {
                t.next_request(DELTA_PROBE + i as u32, counted);
                delta_step(&mut incremental, aig, op, t, c);
            }
        }
    }

    probe(t, 1, |t| {
        let conceptual = t
            .span("core.eval", |_| evaluate(aig, catalog, &args))
            .expect("conceptual evaluation");
        c.add(
            "core.eval.queries",
            conceptual.stats.queries as f64,
            "count",
        );
        c.add("core.eval.nodes", conceptual.stats.nodes as f64, "count");
    });
}

/// `aig_sql::execute` on σ0's Q2 three-way join, its Q4 `in $set`, and a
/// filtered scan, bound to a visit of the probed date.
fn sql_probes(catalog: &Catalog, date: &str, t: &mut Tracer, c: &mut Counts) {
    let text = |v: &Value| v.to_text();
    let visits = catalog.table("DB1", "visitInfo").expect("visitInfo").rows();
    let visit = visits
        .iter()
        .find(|row| text(&row[2]) == date)
        .expect("a visit on the date");
    let patients = catalog.table("DB1", "patient").expect("patient").rows();
    let patient = patients
        .iter()
        .find(|row| row[0] == visit[0])
        .expect("the visit's patient");
    let scalar = |name: &str, value: &Value| (name.to_string(), ParamValue::scalar(value.clone()));

    let join = Query::parse(
        "select distinct t.trId as trId, t.tname as tname \
         from DB1:visitInfo i, DB2:cover c, DB4:treatment t \
         where i.SSN = $SSN and i.date = $date and t.trId = i.trId \
         and c.trId = i.trId and c.policy = $policy",
    );
    let join_params: Params = [
        scalar("SSN", &visit[0]),
        scalar("date", &visit[2]),
        scalar("policy", &patient[2]),
    ]
    .into();
    let inset = Query::parse(
        "select b.trId as trId, b.price as price from DB3:billing b where b.trId in $trIdS",
    );
    let treatments = (0..40).map(|i| Value::str(format!("t{i:04}")));
    let set = ParamValue::Rel(Relation::single_column("trId", treatments));
    let inset_params: Params = [("trIdS".to_string(), set)].into();
    let scan = Query::parse("select v.SSN, v.trId from DB1:visitInfo v where v.date = $date");
    let scan_params: Params = [scalar("date", &visit[2])].into();

    let cases = [
        ("sql.exec.join", "sql.exec.join.rows_out", join, join_params),
        (
            "sql.exec.inset",
            "sql.exec.inset.rows_out",
            inset,
            inset_params,
        ),
        ("sql.exec.scan", "sql.exec.scan.rows_out", scan, scan_params),
    ];
    for (span, rows_out, query, params) in cases {
        let query = query.expect("probe query parses");
        probe(t, MICRO_REPS, |t| {
            let rel = t
                .span(span, |_| aig_sql::execute(&query, catalog, &params))
                .expect("probe query runs");
            c.add(rows_out, rel.len() as f64, "rows");
        });
    }
}

// -- The run ------------------------------------------------------------------

pub fn run(workload: Workload, args: &Args) -> Outcome {
    let seconds = args.seconds;
    let mut session = Session::setup(workload, args.seed, args.quick);
    let mut expected = session.expected();
    if args.corrupt_oracle {
        timed::corrupt(&mut expected);
    }
    let baseline = timed::measure(&mut session, &expected, seconds * BASELINE_SHARE);
    let (mut attempted, mut failed) = (baseline.attempted, baseline.failed);

    // `plan_cold`'s staged ops stop escalating where the real ops did.
    let final_depths: Vec<usize> = match workload {
        Workload::PlanCold => (0..session.ops.len())
            .map(|i| session.run_op(i).expect("op").run.depth)
            .collect(),
        _ => vec![],
    };
    let mut t = Tracer::new(1 << 16);
    let mut c = Counts::default();
    let start = Instant::now();
    let mut passes = 0;
    // The first staged pass counts allocations; the later ones read clocks.
    while passes <= timed::MIN_PASSES || start.elapsed().as_secs_f64() < seconds * STAGED_SHARE {
        for i in 0..session.ops.len() {
            t.next_request(i as u32, passes == 0);
            let xml = match workload {
                Workload::PlanCold => staged_cold(&session, i, final_depths[i], &mut t, &mut c),
                Workload::ReportWarm | Workload::ReportModesOn => {
                    staged_report(&session, i, &mut t, &mut c)
                }
                Workload::DeltaRefresh => {
                    let Engine::Service(mediator) = &mut session.engine else {
                        unreachable!("delta_refresh owns a mediator");
                    };
                    let (aig, op) = (&session.aig, &session.ops[i]);
                    t.span("request", |t| {
                        let tree = delta_step(mediator, aig, op, t, &mut c);
                        serialize_doc(t, &mut c, &tree)
                    })
                }
            };
            // The staged document must be the real path's, byte for byte
            // (`expected` was vouched for by real ops), or the
            // re-composition has drifted from the program.
            attempted += 1;
            if expected[i].as_deref() != Some(xml.as_str()) {
                failed += 1;
            }
        }
        passes += 1;
    }
    probes(&session, &mut t, &mut c);
    crate::alloc::counting(false);

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&path).expect("create benchmark/out");
    let path = path.join(format!("trace-{}.json", workload.name()));
    std::fs::write(&path, t.to_chrome_json()).expect("write the trace");
    println!("trace written to {}", path.display());

    Outcome {
        attempted,
        failed,
        metrics: layer_metrics(&t, &c, &baseline),
    }
}

/// The per-layer metric list, the same on every workload. A span's `.ms`
/// and `.allocs` are the mean over its groups (the ops) of the median self
/// cost per request.
fn layer_metrics(t: &Tracer, c: &Counts, baseline: &timed::Passes) -> Vec<Metric> {
    let groups = t.by_group();
    let cost = |name: &str| -> SelfCost {
        let groups = groups.get(name).unwrap_or_else(|| panic!("no span {name}"));
        let n = groups.len() as f64;
        SelfCost {
            ms: groups.values().map(|g| g.ms).sum::<f64>() / n,
            allocs: groups.values().map(|g| g.allocs).sum::<f64>() / n,
        }
    };
    // The self-time table of the staged request: where its time goes.
    let on_path = |groups: &BTreeMap<u32, SelfCost>| groups.keys().all(|&g| g < DELTA_PROBE);
    let total: f64 = groups
        .iter()
        .filter(|(_, g)| on_path(g))
        .map(|(name, _)| cost(name).ms)
        .sum();
    println!("self time per staged request ({total:.3} ms):");
    for (name, _) in groups.iter().filter(|(_, g)| on_path(g)) {
        let ms = cost(name).ms;
        println!("  {name:<28} {ms:>10.3} ms {:>5.1} %", ms / total * 100.0);
    }

    let mut out: Vec<Metric> = Vec::new();
    // The spans in pipeline order, each followed by its counts.
    let spans: &[(&str, &[&str])] = &[
        ("core.parser", &["bytes_in"]),
        ("core.compile", &[]),
        ("core.decompose", &["queries_out"]),
        ("mediator.unfold", &["elems_out"]),
        ("mediator.graph", &["tasks", "source_queries"]),
        ("mediator.shipcut", &["live_fraction"]),
        ("mediator.merge.plan", &["merges"]),
        ("mediator.exec", &["tasks_run", "rows_in", "rows_out"]),
        ("mediator.parallel", &["wait_ms"]),
        ("mediator.batch", &["batches", "peak_resident_rows"]),
        ("mediator.integrity", &[]),
        ("mediator.tagging", &["nodes"]),
        ("xml.validate", &[]),
        ("xml.constraints", &[]),
        ("mediator.merge.resim", &["merges"]),
        ("xml.serialize", &["bytes_out"]),
        ("mediator.obs.report_json", &["bytes_out"]),
        ("mediator.service.request", &[]),
        ("sql.parser", &[]),
        ("sql.exec.join", &["rows_out"]),
        ("sql.exec.inset", &["rows_out"]),
        ("sql.exec.scan", &["rows_out"]),
        ("relstore.relation.dedup", &["rows"]),
        ("relstore.relation.wire", &["rows"]),
        ("relstore.delta.apply", &["rows"]),
        ("mediator.delta.apply", &[]),
        (
            "mediator.delta.refresh",
            &["rerun_share", "rows_spliced", "nodes_reused_share"],
        ),
        ("core.eval", &["queries", "nodes"]),
    ];
    for &(span, counts) in spans {
        let SelfCost { ms, allocs } = cost(span);
        out.push(metric(format!("{span}.ms"), ms, "ms"));
        out.push(metric(format!("{span}.allocs"), allocs, "count"));
        for count in counts {
            let name = format!("{span}.{count}");
            let (mean, unit) = c.get(&name);
            out.push(metric(name, mean, unit));
        }
    }

    // Ratios of a span's time to the work it reports.
    let exec = cost("mediator.exec");
    let rows = c.mean("mediator.exec.rows_in") + c.mean("mediator.exec.rows_out");
    out.push(metric(
        "mediator.exec.ns_per_row",
        exec.ms * 1e6 / rows.max(1.0),
        "ns",
    ));
    let tasks = c.mean("mediator.exec.tasks_run");
    out.push(metric(
        "mediator.exec.us_per_task",
        exec.ms * 1e3 / tasks.max(1.0),
        "us",
    ));
    out.push(metric(
        "mediator.parallel.w1_ms",
        cost("mediator.parallel.w1").ms,
        "ms",
    ));
    let guard = cost("mediator.integrity").ms - cost("mediator.integrity.base").ms;
    out.push(metric("mediator.integrity.guard_ms", guard, "ms"));
    let nodes = c.mean("mediator.tagging.nodes").max(1.0);
    out.push(metric(
        "mediator.tagging.ns_per_node",
        cost("mediator.tagging").ms * 1e6 / nodes,
        "ns",
    ));
    out.push(metric(
        "xml.validate.ns_per_node",
        cost("xml.validate").ms * 1e6 / nodes,
        "ns",
    ));
    let serialize = cost("xml.serialize");
    let mb = c.mean("xml.serialize.bytes_out") / 1e6;
    out.push(metric(
        "xml.serialize.mb_per_s",
        mb / (serialize.ms / 1e3),
        "MB/s",
    ));
    for (span, rows_out) in [
        ("sql.exec.join", "sql.exec.join.rows_out"),
        ("sql.exec.inset", "sql.exec.inset.rows_out"),
        ("sql.exec.scan", "sql.exec.scan.rows_out"),
    ] {
        let per_row = cost(span).ms * 1e6 / c.mean(rows_out).max(1.0);
        out.push(metric(format!("{span}.ns_per_row"), per_row, "ns"));
    }
    let hit = cost("mediator.service.cache_hit").ms * 1e3;
    out.push(metric("mediator.service.request.cache_hit_us", hit, "us"));
    // The refresh per kind of delta (ops 0, 2, 4, 6 of the op list).
    let refresh = &groups["mediator.delta.refresh"];
    let first = *refresh.keys().next().expect("refresh spans");
    for (op, name) in [
        (0, "price_ms"),
        (2, "cover_ms"),
        (4, "visit_ms"),
        (6, "empty_ms"),
    ] {
        out.push(metric(
            format!("mediator.delta.refresh.{name}"),
            refresh[&(first + op)].ms,
            "ms",
        ));
    }

    // The real ops, untraced: the latency distribution and what tracing
    // and staging add to (or leave out of) a request.
    let mut walls: Vec<f64> = baseline.walls_ms.iter().flatten().copied().collect();
    let samples = walls.len();
    out.push(metric("request.p50_ms", timed::median(&mut walls), "ms"));
    // The highest percentile with ten samples beyond it; the median when
    // there are too few samples for any.
    let tail_pct = (100.0 * (1.0 - 10.0 / samples as f64)).max(50.0);
    let tail = walls[((samples as f64 * tail_pct / 100.0) as usize).min(samples - 1)];
    out.push(metric("request.tail_ms", tail, "ms"));
    out.push(metric("request.tail_pct", tail_pct, "%"));
    out.push(metric("request.samples", samples as f64, "count"));
    let rate = samples as f64 / baseline.elapsed.as_secs_f64();
    out.push(metric("request.docs_per_s", rate, "1/s"));
    let growth = baseline.live_growth as f64 / 1024.0;
    out.push(metric("request.live_growth_kb_per_pass", growth, "KiB"));
    // The staged request, whole (its root span's floor per op), against
    // the real op's floor: tracing overhead plus what staging leaves out.
    let floors = t.floor_total_ms("request");
    let staged_floor = floors.values().sum::<f64>() / floors.len() as f64;
    let overhead = (staged_floor / baseline.floor_ms() - 1.0) * 100.0;
    out.push(metric("trace.overhead_pct", overhead, "%"));
    out
}
