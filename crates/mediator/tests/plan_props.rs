//! Randomized property tests over the optimization phase: on random
//! dependency DAGs, `Schedule` always produces dependency-consistent plans,
//! completion times respect producers and same-source sequencing, and
//! `Merge` never increases the cost of the scheduled plan (it only accepts
//! improving pairs). Seeds are fixed, so failures reproduce exactly.

use aig_core::paper::{mini_hospital_catalog, sigma0};
use aig_core::{compile_constraints, decompose_queries};
use aig_mediator::cost::{
    completion_times, estimated_costs, response_time, CostGraph, CostNode, Plan,
};
use aig_mediator::graph::{build_graph, GraphOptions};
use aig_mediator::merge::{merge, merge_pair, no_merge, MergeDecision, MergeOutcome};
use aig_mediator::schedule::{levels, naive_plan, schedule};
use aig_mediator::unfold::{unfold, CutOff};
use aig_mediator::NetworkModel;
use aig_prng::{Rng, SeedableRng, StdRng};
use aig_relstore::SourceId;

#[derive(Debug, Clone)]
struct RandomDag {
    nodes: Vec<(u32, f64)>,          // (source, eval_secs)
    edges: Vec<(usize, usize, f64)>, // producer < consumer, bytes
}

fn random_dag(rng: &mut StdRng) -> RandomDag {
    let n = rng.gen_range(2usize..12);
    let nodes: Vec<(u32, f64)> = (0..n)
        .map(|_| (rng.gen_range(0u32..4), rng.gen_range(0.01f64..2.0)))
        .collect();
    let edge_count = rng.gen_range(0usize..2 * n);
    let mut edges = Vec::new();
    for _ in 0..edge_count {
        let a = rng.gen_range(0usize..n);
        let b = rng.gen_range(0usize..n);
        if a < b {
            // Forward edges keep it a DAG.
            edges.push((a, b, rng.gen_range(1.0f64..100_000.0)));
        }
    }
    RandomDag { nodes, edges }
}

fn build(dag: &RandomDag) -> CostGraph {
    let nodes = dag
        .nodes
        .iter()
        .map(|&(source, eval_secs)| CostNode {
            source: SourceId(source),
            eval_secs,
            mergeable: source != 0,
            passthrough: false,
            members: vec![],
        })
        .collect();
    let mut deps = vec![Vec::new(); dag.nodes.len()];
    for &(a, b, bytes) in &dag.edges {
        if !deps[b].iter().any(|(d, _)| *d == a) {
            deps[b].push((a, bytes));
        }
    }
    CostGraph { nodes, deps }
}

#[test]
fn schedule_is_always_consistent() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0001);
    for case in 0..128 {
        let dag = random_dag(&mut rng);
        let g = build(&dag);
        let net = NetworkModel::mbps(1.0);
        let plan = schedule(&g, &net);
        assert!(plan.consistent_with(&g), "case {case}: {dag:?}");
        assert!(naive_plan(&g).consistent_with(&g), "case {case}: {dag:?}");
        // Every node is scheduled exactly once.
        let mut count = vec![0usize; g.len()];
        for seq in plan.per_source.values() {
            for &t in seq {
                count[t] += 1;
            }
        }
        assert!(count.iter().all(|&c| c == 1), "case {case}: {dag:?}");
    }
}

#[test]
fn completion_times_respect_dependencies() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0002);
    for case in 0..128 {
        let dag = random_dag(&mut rng);
        let g = build(&dag);
        let net = NetworkModel::mbps(1.0);
        let plan = schedule(&g, &net);
        let done = completion_times(&g, &plan, &net);
        for (id, deps) in g.deps.iter().enumerate() {
            // A consumer finishes after each producer plus its own work.
            for (dep, _) in deps {
                assert!(
                    done[id] >= done[*dep] + g.nodes[id].eval_secs - 1e-9,
                    "case {case}: task {id} finished before its producer {dep}: {dag:?}"
                );
            }
        }
        // Same-source tasks never overlap: total busy time per source is a
        // lower bound on the makespan.
        for (source, seq) in &plan.per_source {
            let busy: f64 = seq.iter().map(|&t| g.nodes[t].eval_secs).sum();
            let makespan = response_time(&g, &plan, &net);
            assert!(
                makespan >= busy - 1e-9,
                "case {case}: source {source} overlapped: {dag:?}"
            );
        }
    }
}

#[test]
fn merging_never_increases_scheduled_cost() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0003);
    for case in 0..128 {
        let dag = random_dag(&mut rng);
        let g = build(&dag);
        let net = NetworkModel::mbps(1.0);
        let baseline = no_merge(&g, &net);
        let merged = merge(&g, &net, 0.2);
        assert!(
            merged.response_secs <= baseline.response_secs + 1e-9,
            "case {case}: {dag:?}"
        );
        assert!(
            merged.plan.consistent_with(&merged.graph),
            "case {case}: {dag:?}"
        );
        assert!(merged.graph.topo().is_some(), "case {case}: {dag:?}");
        // Node count shrinks by exactly the number of merges.
        assert_eq!(
            merged.graph.len(),
            g.len() - merged.merges,
            "case {case}: {dag:?}"
        );
    }
}

// -- Differential oracle for Algorithm Merge ----------------------------------

/// Fig. 9 spelled out pair by pair — a full `mergePair`, `topo`, `Schedule`
/// and `cost(P)` per candidate, cyclic ones discarded after the fact. This
/// is the loop `merge` ran before it got its reachability filter and fused
/// evaluator; it must keep deciding exactly what this decides.
fn reference_merge(graph: &CostGraph, net: &NetworkModel, overhead: f64) -> MergeOutcome {
    let mut current = graph.clone();
    let mut plan = schedule(&current, net);
    let mut cost = response_time(&current, &plan, net);
    let mut decisions = Vec::new();
    loop {
        let mut best: Option<(CostGraph, Plan, f64, usize, usize)> = None;
        for u in 0..current.len() {
            for v in (u + 1)..current.len() {
                let (a, b) = (&current.nodes[u], &current.nodes[v]);
                if !a.mergeable || !b.mergeable || a.source != b.source {
                    continue;
                }
                let candidate = merge_pair(&current, u, v, overhead);
                if candidate.topo().is_none() {
                    continue;
                }
                let candidate_plan = schedule(&candidate, net);
                let c = response_time(&candidate, &candidate_plan, net);
                if c < cost && best.as_ref().is_none_or(|b| c < b.2) {
                    best = Some((candidate, candidate_plan, c, u, v));
                }
            }
        }
        let Some((graph, best_plan, c, u, v)) = best else {
            break;
        };
        decisions.push(MergeDecision {
            source: current.nodes[u].source,
            kept: current.nodes[u].members.clone(),
            absorbed: current.nodes[v].members.clone(),
            cost_before_secs: cost,
            cost_after_secs: c,
        });
        (current, plan, cost) = (graph, best_plan, c);
    }
    MergeOutcome {
        graph: current,
        plan,
        response_secs: cost,
        merges: decisions.len(),
        decisions,
    }
}

/// Equal down to the bit: `{:?}` prints an `f64` as its shortest
/// round-tripping decimal, so equal renderings mean equal bit patterns.
fn assert_same_outcome(got: &MergeOutcome, want: &MergeOutcome, what: &str) {
    let bits = |o: &MergeOutcome| {
        let cost = o.response_secs.to_bits();
        format!("{:?}", (o.merges, &o.decisions, cost, &o.graph))
    };
    assert_eq!(bits(got), bits(want), "{what}");
    assert_eq!(got.plan.per_source, want.plan.per_source, "{what}");
}

/// A DAG shaped to hit what the evaluator must get right: several sources,
/// node ids that are not a topological order (so `swap_remove` renumbering
/// and Kahn's stack order matter), same-source producer/consumer pairs with
/// and without a detour, and — on `ties` — costs and sizes from a handful
/// of values so that many candidates and many levels come out equal.
fn oracle_dag(rng: &mut StdRng, ties: bool) -> CostGraph {
    let n = rng.gen_range(3usize..14);
    let sources = rng.gen_range(2u32..5);
    let mut label: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        label.swap(i, rng.gen_range(0usize..i + 1));
    }
    let eval = |rng: &mut StdRng| match ties {
        true => [0.0, 0.25, 0.5, 1.0][rng.gen_range(0usize..4)],
        false => rng.gen_range(0.01f64..2.0),
    };
    let bytes = |rng: &mut StdRng| match ties {
        true => [0.0, 1_000.0, 125_000.0][rng.gen_range(0usize..3)],
        false => rng.gen_range(1.0f64..200_000.0),
    };
    let mut nodes = vec![None; n];
    for (id, &at) in label.iter().enumerate() {
        let source = SourceId(rng.gen_range(0u32..sources));
        nodes[at] = Some(CostNode {
            source,
            eval_secs: eval(rng),
            mergeable: !source.is_mediator(),
            passthrough: false,
            members: vec![id],
        });
    }
    let nodes: Vec<CostNode> = nodes.into_iter().flatten().collect();
    let mut deps = vec![Vec::new(); n];
    for _ in 0..rng.gen_range(0usize..3 * n) {
        let (a, b) = (rng.gen_range(0usize..n), rng.gen_range(0usize..n));
        // Forward in the hidden order keeps it a DAG; `from_task_graph`
        // never lists a producer twice, so neither does this.
        if a < b && !deps[label[b]].iter().any(|&(d, _)| d == label[a]) {
            deps[label[b]].push((label[a], bytes(rng)));
        }
    }
    CostGraph { nodes, deps }
}

#[test]
fn merge_matches_the_pairwise_reference_on_seeded_dags() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0004);
    let nets = [
        NetworkModel::mbps(1.0),
        NetworkModel::mbps(100.0),
        NetworkModel::infinite(),
    ];
    let mut merges = 0;
    for case in 0..360 {
        let g = oracle_dag(&mut rng, case % 2 == 1);
        let net = &nets[case % 3];
        // Zero overhead, a typical one, and one above any pair's work (the
        // merged evaluation time clamps at zero).
        let overhead = [0.0, 0.2, 1.0, 5.0][case / 3 % 4];
        let got = merge(&g, net, overhead);
        let want = reference_merge(&g, net, overhead);
        assert_same_outcome(&got, &want, &format!("case {case}: {g:?}"));
        merges += got.merges;
    }
    assert!(merges > 300, "the sweep must exercise accepted merges");
}

#[test]
fn merge_matches_the_pairwise_reference_on_sigma0() {
    let aig = sigma0().unwrap();
    let compiled = compile_constraints(&aig).unwrap();
    let (specialized, _) = decompose_queries(&compiled).unwrap();
    let catalog = mini_hospital_catalog().unwrap();
    let options = GraphOptions::default();
    let net = NetworkModel::mbps(1.0);
    for depth in [12, 24] {
        let unfolded = unfold(&specialized, depth, CutOff::Truncate).unwrap();
        let tasks = build_graph(&unfolded.aig, &catalog, &options).unwrap();
        let cg =
            CostGraph::from_task_graph(&tasks, &estimated_costs(&tasks)).contract_passthrough();
        let overhead = options.cost_model.per_query_overhead_secs;
        let got = merge(&cg, &net, overhead);
        assert!(got.merges > 0, "depth {depth}: σ0 has mergeable queries");
        let want = reference_merge(&cg, &net, overhead);
        assert_same_outcome(&got, &want, &format!("σ0 at depth {depth}"));
    }
}

/// Costs a hair apart, exactly equal, or all zero — where a packed sort key,
/// a critical-path bound or a pre-added edge price would first disagree with
/// the pair-by-pair reference if any of them rounded differently.
#[test]
fn merge_matches_the_pairwise_reference_on_near_ties() {
    let ulps = |x: f64, n: u64| f64::from_bits(x.to_bits() + n);
    let mut rng = StdRng::seed_from_u64(0x5EED_0005);
    let nets = [NetworkModel::mbps(1.0), NetworkModel::infinite()];
    let mut merges = 0;
    for case in 0..240 {
        let mut g = oracle_dag(&mut rng, true);
        match case % 4 {
            // Every node and every edge costs the same.
            0 => {
                let (eval, bytes) = [(0.0, 0.0), (0.5, 1_000.0)][case / 4 % 2];
                g.nodes.iter_mut().for_each(|n| n.eval_secs = eval);
                g.deps.iter_mut().flatten().for_each(|e| e.1 = bytes);
            }
            // The same, then each a few ulps off its neighbours.
            1 => {
                for (id, node) in g.nodes.iter_mut().enumerate() {
                    node.eval_secs = ulps(0.5, id as u64 % 3);
                }
                for (at, edge) in g.deps.iter_mut().flatten().enumerate() {
                    edge.1 = ulps(125_000.0, at as u64 % 3);
                }
            }
            // The tie-heavy values as drawn, one node an ulp up.
            2 => {
                let id = rng.gen_range(0usize..g.len());
                g.nodes[id].eval_secs = ulps(g.nodes[id].eval_secs, 1);
            }
            _ => {}
        }
        let net = &nets[case % 2];
        let overhead = [0.0, f64::EPSILON, 0.25, 1.0][case / 8 % 4];
        let got = merge(&g, net, overhead);
        let want = reference_merge(&g, net, overhead);
        assert_same_outcome(&got, &want, &format!("case {case}: {g:?}"));
        merges += got.merges;
    }
    assert!(merges > 100, "the sweep must exercise accepted merges");
}

/// A candidate whose critical path *equals* the bound is not one the bound
/// rules out: two independent queries at one source run back to back in
/// `a + b`; merged at no saving they are one query of exactly `a + b`, which
/// is not an improvement, and merged at the smallest saving they are.
#[test]
fn a_critical_path_equal_to_the_bound_is_evaluated() {
    let net = NetworkModel::infinite();
    for (a, b) in [(1.0, 2.0), (0.1, 0.2), (0.3, 0.6), (1e-3, 3e-3)] {
        let g = CostGraph {
            nodes: vec![query(1, a, 0), query(1, b, 1)],
            deps: vec![vec![], vec![]],
        };
        assert_eq!(no_merge(&g, &net).response_secs, a + b);
        for (overhead, merges) in [(0.0, 0), ((a + b) * f64::EPSILON, 1)] {
            let got = merge(&g, &net, overhead);
            assert_eq!(got.merges, merges, "a={a} b={b} overhead={overhead}");
            let want = reference_merge(&g, &net, overhead);
            assert_same_outcome(&got, &want, &format!("a={a} b={b} overhead={overhead}"));
        }
    }
}

// -- Why dynamic priorities are computed once -----------------------------------

/// The dynamic scheduler's premise: patching measured actuals into the
/// tasks that have *finished* — their evaluation times and the sizes on
/// their out-edges — leaves the level of every unfinished task bit-equal,
/// for any finished set a run can reach (closed under producers).
#[test]
fn actuals_of_finished_tasks_cannot_move_an_unfinished_level() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0006);
    let nets = [NetworkModel::mbps(1.0), NetworkModel::infinite()];
    for case in 0..360 {
        let est = oracle_dag(&mut rng, case % 2 == 1);
        let net = &nets[case % 2];
        // A prefix of a topological order is closed under producers.
        let topo = est.topo().unwrap();
        let finished = &topo[..rng.gen_range(0usize..topo.len() + 1)];
        let mut hybrid = est.clone();
        for &id in finished {
            hybrid.nodes[id].eval_secs = rng.gen_range(0.0f64..5.0);
        }
        for edge in hybrid.deps.iter_mut().flatten() {
            if finished.contains(&edge.0) {
                edge.1 = rng.gen_range(0.0f64..500_000.0);
            }
        }
        let (before, after) = (levels(&est, net), levels(&hybrid, net));
        for id in (0..est.len()).filter(|id| !finished.contains(id)) {
            assert_eq!(
                before[id].to_bits(),
                after[id].to_bits(),
                "case {case}: node {id} with {finished:?} finished: {est:?}"
            );
        }
    }
}

// -- The cycle filter ---------------------------------------------------------

fn query(source: u32, eval_secs: f64, id: usize) -> CostNode {
    CostNode {
        source: SourceId(source),
        eval_secs,
        mergeable: source != 0,
        passthrough: false,
        members: vec![id],
    }
}

#[test]
fn a_direct_edge_alone_is_inlined() {
    // q0 -> q1 at one source, nothing in between: the pair is a candidate,
    // and with a saving this large it is taken, in either index order.
    for deps in [vec![vec![], vec![(0, 10.0)]], vec![vec![(1, 10.0)], vec![]]] {
        let g = CostGraph {
            nodes: vec![query(1, 1.0, 0), query(1, 1.0, 1)],
            deps,
        };
        let merged = merge(&g, &NetworkModel::mbps(1.0), 0.9);
        assert_eq!(merged.merges, 1);
        assert_eq!(merged.graph.len(), 1);
        assert!(merged.graph.deps[0].is_empty(), "the self-edge is gone");
    }
}

#[test]
fn a_direct_edge_plus_a_detour_is_rejected() {
    // q0 -> q1 directly and also q0 -> m -> q1 through the mediator:
    // contracting q0 and q1 would put m on a cycle, whatever it saves. The
    // second graph is the mirror (the producer has the higher index).
    for deps in [
        vec![vec![], vec![(0, 10.0), (2, 10.0)], vec![(0, 10.0)]],
        vec![vec![(1, 10.0), (2, 10.0)], vec![], vec![(1, 10.0)]],
    ] {
        let g = CostGraph {
            nodes: vec![query(1, 1.0, 0), query(1, 1.0, 1), query(0, 0.1, 2)],
            deps,
        };
        let merged = merge(&g, &NetworkModel::mbps(1.0), 0.9);
        assert_eq!(merged.merges, 0, "cyclic merge must be rejected");
        assert_eq!(merged.graph.len(), 3);
    }
}

/// `contract_passthrough` re-scans until no pass-through is left, so a
/// pass-through fed by another pass-through ends up in the query at the head
/// of the chain — and the two queries around the chain become directly
/// dependent, hence mergeable.
#[test]
fn a_two_deep_passthrough_chain_contracts_into_its_query() {
    let mut nodes = vec![
        query(1, 1.0, 0),
        query(0, 0.1, 1),
        query(0, 0.2, 2),
        query(1, 1.0, 3),
    ];
    nodes[1].passthrough = true;
    nodes[2].passthrough = true;
    let g = CostGraph {
        nodes,
        deps: vec![vec![], vec![(0, 10.0)], vec![(1, 20.0)], vec![(2, 30.0)]],
    };
    let contracted = g.contract_passthrough();
    assert_eq!(contracted.len(), 2);
    let head = &contracted.nodes[0];
    assert_eq!(head.source, SourceId(1));
    assert_eq!(head.members, vec![0, 1, 2]);
    assert!((head.eval_secs - 1.3).abs() < 1e-12);
    // The last node took the second pass-through's slot and now reads the
    // head directly, at the size the chain's last hop shipped.
    assert_eq!(contracted.nodes[1].members, vec![3]);
    assert_eq!(contracted.deps, vec![vec![], vec![(0, 30.0)]]);
}

/// `Merge` starts from `cost(Schedule(G))` — the unmerged plan's cost,
/// which `no_merge` reports: its first decision's cost before, or its own
/// response when it merges nothing. Bit for bit, so a finisher may read
/// the unmerged response off `Merge`'s start instead of scheduling twice.
fn merge_start(outcome: &MergeOutcome) -> f64 {
    (outcome.decisions.first()).map_or(outcome.response_secs, |d| d.cost_before_secs)
}

#[test]
fn merge_starts_from_the_unmerged_response() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0004);
    let nets = [
        NetworkModel::mbps(1.0),
        NetworkModel::mbps(100.0),
        NetworkModel::infinite(),
    ];
    for case in 0..360 {
        let g = oracle_dag(&mut rng, case % 2 == 1);
        let net = &nets[case % 3];
        let overhead = [0.0, 0.2, 1.0, 5.0][case / 3 % 4];
        let start = merge_start(&merge(&g, net, overhead));
        let unmerged = no_merge(&g, net).response_secs;
        assert_eq!(start.to_bits(), unmerged.to_bits(), "case {case}: {g:?}");
    }

    let aig = sigma0().unwrap();
    let compiled = compile_constraints(&aig).unwrap();
    let (specialized, _) = decompose_queries(&compiled).unwrap();
    let catalog = mini_hospital_catalog().unwrap();
    let options = GraphOptions::default();
    let overhead = options.cost_model.per_query_overhead_secs;
    for depth in [3, 6, 12, 24] {
        let unfolded = unfold(&specialized, depth, CutOff::Truncate).unwrap();
        let tasks = build_graph(&unfolded.aig, &catalog, &options).unwrap();
        let cg =
            CostGraph::from_task_graph(&tasks, &estimated_costs(&tasks)).contract_passthrough();
        for net in &nets {
            let start = merge_start(&merge(&cg, net, overhead));
            let unmerged = no_merge(&cg, net).response_secs;
            assert_eq!(start.to_bits(), unmerged.to_bits(), "σ0 at depth {depth}");
        }
    }
}
