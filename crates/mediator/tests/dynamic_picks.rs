//! The dynamic scheduler's pick log on a paced fixture, pinned to the bit.
//!
//! The fixture is Ablation G's skewed-estimate workload (`ablation_dynamic_live`):
//! a gate at S2 the estimates call cheap and that runs long, three critical
//! tasks at S1 behind it (each feeding a sink at S3, which gives them the
//! high estimated priority), and three independent fillers at S1. Durations
//! are enforced with `ExecOptions::pace` and sit far apart, so what each
//! source's worker finds ready at each pick — hence the per-source pick
//! sequence, positions and priorities — does not depend on thread timing.
//! (How the three sources' picks interleave does, so the log is compared
//! source by source.)

use aig_core::paper::sigma0;
use aig_core::spec::ElemIdx;
use aig_mediator::cost::{estimated_costs, CostGraph};
use aig_mediator::exec::{ExecOptions, TaskPick};
use aig_mediator::graph::{Task, TaskGraph, TaskKind};
use aig_mediator::parallel::execute_graph_parallel;
use aig_mediator::schedule::{levels, schedule};
use aig_mediator::NetworkModel;
use aig_relstore::{Catalog, Database, SourceId};
use aig_sql::cost::CostEstimate;
use std::collections::HashMap;

/// An empty-input assemble task: it executes instantly and never reads its
/// dependencies' outputs, so the edges drive scheduling only while `pace`
/// supplies the duration.
fn task(label: &str, source: SourceId, deps: &[usize], est_secs: f64) -> Task {
    Task {
        kind: TaskKind::Assemble {
            elem: ElemIdx(0),
            inputs: vec![],
        },
        source,
        label: label.to_string(),
        deps: deps.to_vec(),
        output: None,
        schema: Default::default(),
        est: CostEstimate {
            eval_secs: est_secs,
            out_rows: 0.0,
            out_bytes: 1000.0,
        },
    }
}

#[test]
fn paced_dynamic_picks_are_pinned_to_the_bit() {
    let mut catalog = Catalog::new();
    let s1 = catalog.add_source(Database::new("S1")).unwrap();
    let s2 = catalog.add_source(Database::new("S2")).unwrap();
    let s3 = catalog.add_source(Database::new("S3")).unwrap();
    // (task, actual seconds): the gate is estimated at 8 ms and takes 300.
    let mut paced = vec![(task("gate", s2, &[], 0.008), 0.30)];
    for i in 0..3 {
        paced.push((task(&format!("crit{i}"), s1, &[0], 0.05), 0.02));
    }
    for i in 0..3 {
        paced.push((task(&format!("fill{i}"), s1, &[], 0.06), 0.06));
    }
    for i in 0..3 {
        paced.push((task(&format!("sink{i}"), s3, &[1 + i], 0.10), 0.02));
    }
    let (tasks, pace): (Vec<Task>, Vec<f64>) = paced.into_iter().unzip();
    let graph = TaskGraph {
        topo: (0..tasks.len()).collect(),
        tasks,
        producer: Default::default(),
        instance_tables: vec![],
        bindings: HashMap::new(),
        materialized: vec![],
        source_query_count: 0,
        tag_plan: Default::default(),
        dispatch: Default::default(),
    };
    let net = NetworkModel::infinite();
    let est = CostGraph::from_task_graph(&graph, &estimated_costs(&graph));
    let mut opts = ExecOptions {
        pace: Some(pace),
        ..ExecOptions::default()
    };
    opts.policy.network = net.clone();
    let plan = schedule(&est, &net).per_source;
    let run = execute_graph_parallel(&sigma0().unwrap(), &catalog, &graph, &[], &opts, &plan)
        .expect("synthetic workload executes");

    // Per source: (task, planned position, priority bits), in pick order —
    // the pick's position in the list is its `actual_pos`.
    // `FILL` is 0.06, `CRIT` 0.05 + 0.10, `GATE` 0.008 + `CRIT`, `SINK` 0.10.
    const FILL: u64 = 0x3fae_b851_eb85_1eb8;
    const CRIT: u64 = 0x3fc3_3333_3333_3334;
    const GATE: u64 = 0x3fc4_3958_1062_4dd4;
    const SINK: u64 = 0x3fb9_9999_9999_999a;
    let fills = [(4, 3, FILL), (5, 4, FILL), (6, 5, FILL)];
    let crits = [(1, 2, CRIT), (2, 1, CRIT), (3, 0, CRIT)];
    let pinned = [
        (s1, [fills, crits].concat()),
        (s2, vec![(0, 0, GATE)]),
        (s3, vec![(7, 2, SINK), (8, 1, SINK), (9, 0, SINK)]),
    ];
    for (source, want) in pinned {
        let got: Vec<TaskPick> = (run.sched.picks.iter().copied())
            .filter(|pick| pick.source == source)
            .collect();
        let want: Vec<TaskPick> = (want.into_iter().enumerate())
            .map(|(actual_pos, (task, planned_pos, bits))| TaskPick {
                task,
                source,
                planned_pos,
                actual_pos,
                priority: f64::from_bits(bits),
            })
            .collect();
        let bits = |picks: &[TaskPick]| -> Vec<_> {
            let row = |p: &TaskPick| (p.task, p.planned_pos, p.actual_pos, p.priority.to_bits());
            picks.iter().map(row).collect()
        };
        assert_eq!(bits(&got), bits(&want), "picks at {source}");
    }
    // And a pick's priority is the level of its task over the estimates,
    // whatever had finished by the time it was picked.
    let level = levels(&est, &net);
    for pick in &run.sched.picks {
        assert_eq!(pick.priority.to_bits(), level[pick.task].to_bits());
    }
}

/// The paced fixture above, its catalog and its per-task durations.
fn paced_fixture() -> (Catalog, TaskGraph, Vec<f64>) {
    let mut catalog = Catalog::new();
    let s1 = catalog.add_source(Database::new("S1")).unwrap();
    let s2 = catalog.add_source(Database::new("S2")).unwrap();
    let s3 = catalog.add_source(Database::new("S3")).unwrap();
    let mut paced = vec![(task("gate", s2, &[], 0.008), 0.30)];
    for i in 0..3 {
        paced.push((task(&format!("crit{i}"), s1, &[0], 0.05), 0.02));
    }
    for i in 0..3 {
        paced.push((task(&format!("fill{i}"), s1, &[], 0.06), 0.06));
    }
    for i in 0..3 {
        paced.push((task(&format!("sink{i}"), s3, &[1 + i], 0.10), 0.02));
    }
    let (tasks, pace): (Vec<Task>, Vec<f64>) = paced.into_iter().unzip();
    let graph = TaskGraph {
        topo: (0..tasks.len()).collect(),
        tasks,
        producer: Default::default(),
        instance_tables: vec![],
        bindings: HashMap::new(),
        materialized: vec![],
        source_query_count: 0,
        tag_plan: Default::default(),
        dispatch: Default::default(),
    };
    (catalog, graph, pace)
}

/// `graph` with each source's sequence of `plan` chained in as inputs, and
/// its topological order recomputed: a planned sequence is a chain of
/// inputs. The fixture's tasks read no inputs, so an edge only orders them.
fn chained(mut graph: TaskGraph, plan: &HashMap<SourceId, Vec<usize>>) -> TaskGraph {
    for seq in plan.values() {
        for pair in seq.windows(2) {
            graph.tasks[pair[1]].deps.push(pair[0]);
        }
    }
    let costs = CostGraph::from_task_graph(&graph, &estimated_costs(&graph));
    graph.topo = costs.topo().expect("a plan consistent with the graph");
    // Drop what an earlier walk derived from the old edges.
    graph.dispatch = Default::default();
    graph
}

/// A worker never idles behind a planned task whose inputs are late:
/// `Schedule`'s plan puts S1's `crit*` tasks, gated behind S2's 300 ms task,
/// before its ready `fill*` tasks, and the walk starts S1's fillers first.
/// With the plan's sequences chained in as inputs, every source starts its
/// tasks in planned order.
#[test]
fn ready_fillers_start_first_and_a_chained_plan_starts_in_order() {
    let (catalog, graph, pace) = paced_fixture();
    let net = NetworkModel::infinite();
    let est = CostGraph::from_task_graph(&graph, &estimated_costs(&graph));
    let plan = schedule(&est, &net).per_source;
    let s1 = catalog.source_id("S1").unwrap();
    let labels: Vec<String> = graph.tasks.iter().map(|t| t.label.clone()).collect();
    let label = |t: usize| labels[t].as_str();
    let s1_plan: Vec<&str> = plan[&s1].iter().map(|&t| label(t)).collect();
    assert_eq!(
        s1_plan,
        ["crit2", "crit1", "crit0", "fill0", "fill1", "fill2"]
    );

    let mut opts = ExecOptions {
        pace: Some(pace),
        ..ExecOptions::default()
    };
    opts.policy.network = net.clone();
    let run = |graph: &TaskGraph| {
        execute_graph_parallel(&sigma0().unwrap(), &catalog, graph, &[], &opts, &plan)
            .expect("synthetic workload executes")
    };
    let started = |measured: &[aig_mediator::Measured], seq: &[usize]| {
        let mut order = seq.to_vec();
        order.sort_by(|&a, &b| measured[a].start_secs.total_cmp(&measured[b].start_secs));
        order
    };
    let walk = run(&graph);
    let s1_started: Vec<&str> = (started(&walk.measured, &plan[&s1]).into_iter())
        .map(label)
        .collect();
    assert!(
        s1_started[..3].iter().all(|l| l.starts_with("fill")),
        "{s1_started:?}"
    );
    let fixed = run(&chained(graph, &plan));
    for (source, seq) in &plan {
        assert_eq!(
            &started(&fixed.measured, seq),
            seq,
            "start order at {source}"
        );
    }
}
