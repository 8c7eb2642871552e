//! Ablation G: *live* dynamic scheduling in the parallel executor, measured
//! in wall-clock time and compared against the event simulation's
//! prediction (`dynamic_response_time` / `static_response_on_actuals`).
//!
//! The workload is a synthetic task graph with deliberately skewed
//! estimates: a "gate" task at S2 that the estimates call cheap but that
//! actually takes ~240 ms, critical tasks at S1 behind the gate (feeding
//! sinks at S3, which makes their estimated priority high), and independent
//! filler work at S1. The static plan, trusting the estimates, orders the
//! critical tasks first at S1 — so its worker idles on the slow gate while
//! the fillers could run. The executor's walk only takes ready tasks, so it
//! front-loads the fillers and absorbs the gate's true cost. The static arm
//! runs the same walk on a copy of the graph with each source's planned
//! sequence chained in as inputs, so that it executes the plan as planned.
//! Task durations are enforced with `ExecOptions::pace`, so the measured gap
//! is reproducible and directly comparable to the simulator's.

use aig_bench::{markdown_table, spec, table_json, Json};
use aig_core::spec::ElemIdx;
use aig_mediator::cost::{estimated_costs, CostGraph, TaskCost};
use aig_mediator::exec::ExecOptions;
use aig_mediator::graph::{Task, TaskGraph, TaskKind};
use aig_mediator::parallel::execute_graph_parallel;
use aig_mediator::schedule::{dynamic_response_time, schedule, static_response_on_actuals};
use aig_mediator::NetworkModel;
use aig_relstore::{Catalog, Database, SourceId};
use aig_sql::cost::CostEstimate;
use std::collections::HashMap;
use std::time::Instant;

/// An empty-input assemble task estimated at `est_secs`, paired with its
/// actual duration `pace_secs`: it executes instantly (producing an empty
/// relation) and never reads its dependencies' outputs, so the dependency
/// edges drive *scheduling* only while `pace` supplies the duration.
fn task(
    label: String,
    source: SourceId,
    deps: &[usize],
    est_secs: f64,
    pace_secs: f64,
) -> (Task, f64) {
    let task = Task {
        kind: TaskKind::Assemble {
            elem: ElemIdx(0),
            inputs: vec![],
        },
        source,
        label,
        deps: deps.to_vec(),
        output: None,
        schema: Default::default(),
        est: CostEstimate {
            eval_secs: est_secs,
            out_rows: 0.0,
            out_bytes: 1000.0,
        },
    };
    (task, pace_secs)
}

/// The skewed-estimate workload: returns the graph and the *actual*
/// per-task durations (the estimates live in `Task::est`).
fn workload(s1: SourceId, s2: SourceId, s3: SourceId) -> (TaskGraph, Vec<f64>) {
    // Task 0: the gate. Estimated at 8 ms, actually 240 ms.
    let mut paced = vec![task("gate".into(), s2, &[], 0.008, 0.24)];
    // Tasks 1-3: critical tasks behind the gate, feeding the S3 sinks. The
    // estimates put them on the critical path, so the static plan runs them
    // first at S1.
    paced.extend((0..3).map(|i| task(format!("crit{i}"), s1, &[0], 0.05, 0.02)));
    // Tasks 4-6: independent fillers at S1 with accurate estimates.
    paced.extend((0..3).map(|i| task(format!("fill{i}"), s1, &[], 0.06, 0.06)));
    // Tasks 7-9: sinks at S3, one per critical task.
    paced.extend((0..3).map(|i| task(format!("sink{i}"), s3, &[1 + i], 0.10, 0.02)));
    let (tasks, pace): (Vec<Task>, Vec<f64>) = paced.into_iter().unzip();
    let topo = (0..tasks.len()).collect();
    let graph = TaskGraph {
        tasks,
        producer: Default::default(),
        instance_tables: vec![],
        bindings: HashMap::new(),
        materialized: vec![],
        topo,
        source_query_count: 0,
        tag_plan: Default::default(),
        dispatch: Default::default(),
    };
    (graph, pace)
}

/// `graph` with each source's sequence of `plan` chained in as inputs, and
/// its topological order recomputed: a planned sequence is a chain of
/// inputs. The workload's tasks read no inputs, so an edge only orders them.
fn chained(mut graph: TaskGraph, plan: &HashMap<SourceId, Vec<usize>>) -> TaskGraph {
    for seq in plan.values() {
        for pair in seq.windows(2) {
            graph.tasks[pair[1]].deps.push(pair[0]);
        }
    }
    let costs = CostGraph::from_task_graph(&graph, &estimated_costs(&graph));
    graph.topo = costs.topo().expect("a plan consistent with the graph");
    graph
}

pub fn run(_: &[String]) -> Json {
    let aig = spec();
    let mut catalog = Catalog::new();
    let s1 = catalog.add_source(Database::new("S1")).unwrap();
    let s2 = catalog.add_source(Database::new("S2")).unwrap();
    let s3 = catalog.add_source(Database::new("S3")).unwrap();
    let (graph, pace) = workload(s1, s2, s3);

    // Transfers are free in-process, so the simulation uses an infinite
    // network to stay comparable to the live runs.
    let net = NetworkModel::infinite();
    let est = CostGraph::from_task_graph(&graph, &estimated_costs(&graph));
    let actual_costs: Vec<TaskCost> = graph
        .tasks
        .iter()
        .zip(&pace)
        .map(|(t, &secs)| TaskCost {
            eval_secs: secs,
            out_bytes: t.est.out_bytes,
        })
        .collect();
    let actual = CostGraph::from_task_graph(&graph, &actual_costs);
    let predicted_static = static_response_on_actuals(&est, &actual, &net);
    let predicted_dynamic = dynamic_response_time(&est, &actual, &net);

    let plan = schedule(&est, &net).per_source;
    let runs = 3;
    // Smallest wall of `runs` executions (the minimum filters scheduler
    // noise — pace sleeps put a hard floor under each run), and the plan
    // deviations of the last.
    let mut opts = ExecOptions {
        pace: Some(pace),
        ..ExecOptions::default()
    };
    opts.policy.network = net.clone();
    let best_wall_secs = |graph: &TaskGraph| {
        let mut best = f64::INFINITY;
        let mut deviations = 0;
        for _ in 0..runs {
            let start = Instant::now();
            let result = execute_graph_parallel(&aig, &catalog, graph, &[], &opts, &plan)
                .expect("synthetic workload executes");
            best = best.min(start.elapsed().as_secs_f64());
            deviations = result.sched.deviations().len();
        }
        (best, deviations)
    };
    let (live_static, _) = best_wall_secs(&chained(workload(s1, s2, s3).0, &plan));
    let (live_dynamic, deviations) = best_wall_secs(&graph);

    let predicted_speedup = predicted_static / predicted_dynamic;
    let live_speedup = live_static / live_dynamic;
    let agreement = live_speedup / predicted_speedup;
    let within_tolerance = (agreement - 1.0).abs() <= 0.2;

    println!("Ablation G: live dynamic scheduling vs the simulator's prediction");
    println!("(synthetic skewed-estimate workload, best of {runs} runs)\n");
    let header = ["scheduling", "predicted (s)", "live (s)"];
    let rows = vec![
        vec![
            "static".to_string(),
            format!("{predicted_static:.3}"),
            format!("{live_static:.3}"),
        ],
        vec![
            "dynamic".to_string(),
            format!("{predicted_dynamic:.3}"),
            format!("{live_dynamic:.3}"),
        ],
    ];
    println!("{}", markdown_table(&header, &rows));
    println!(
        "speedup: predicted {predicted_speedup:.3}x, live {live_speedup:.3}x \
         (agreement {agreement:.3}, within ±20%: {within_tolerance}); \
         {deviations} plan deviations under dynamic"
    );
    Json::obj(vec![
        ("predicted_static_secs", Json::num(predicted_static)),
        ("predicted_dynamic_secs", Json::num(predicted_dynamic)),
        ("live_static_secs", Json::num(live_static)),
        ("live_dynamic_secs", Json::num(live_dynamic)),
        ("predicted_speedup", Json::num(predicted_speedup)),
        ("live_speedup", Json::num(live_speedup)),
        ("agreement", Json::num(agreement)),
        ("within_tolerance", Json::Bool(within_tolerance)),
        ("dynamic_deviations", Json::num(deviations as f64)),
        ("rows", table_json(&header, &rows)),
    ])
}
