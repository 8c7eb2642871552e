//! Algorithm `Merge` (paper §5.4, Fig. 9).
//!
//! Query merging combines queries executed at the same data source into a
//! single, larger query (an outer-union with a tagging column for
//! independent queries, inlining for dependent ones). Merging saves the
//! fixed per-statement overhead and ships shared inputs once, but reduces
//! parallelism — so it is optimized *jointly with scheduling*: each
//! candidate pair is accepted only if the rescheduled plan is cheaper.
//!
//! `mergePair` contracts two nodes of the dependency graph; the result must
//! stay acyclic. The loop greedily applies the best pair until no pair
//! improves `cost(Schedule(G))`, exactly as in Fig. 9.

use crate::cost::{response_time, CostGraph, CostNode, Plan, Workspace};
use crate::schedule::schedule;
use crate::sim::NetworkModel;
use aig_relstore::SourceId;

/// One accepted pair merge: which task groups were combined at which source,
/// and the scheduled cost before and after (the decision log consumed by
/// [`crate::obs`]).
#[derive(Debug, Clone)]
pub struct MergeDecision {
    /// The (non-mediator) source both nodes queried.
    pub source: SourceId,
    /// Original task ids of the node kept.
    pub kept: Vec<usize>,
    /// Original task ids of the node absorbed into it.
    pub absorbed: Vec<usize>,
    /// `cost(Schedule(G))` before this merge.
    pub cost_before_secs: f64,
    /// `cost(Schedule(G))` after it (always strictly smaller).
    pub cost_after_secs: f64,
}

/// The outcome of the merging phase.
#[derive(Debug, Clone)]
pub struct MergeOutcome {
    /// The merged dependency graph.
    pub graph: CostGraph,
    /// The final schedule for it.
    pub plan: Plan,
    /// `cost(P)` of the final plan.
    pub response_secs: f64,
    /// Number of pair merges applied.
    pub merges: usize,
    /// Why each merge was accepted, in application order.
    pub decisions: Vec<MergeDecision>,
}

/// `mergePair(G, u, v)`: contracts `v` into `u`. Incoming parallel edges
/// from the same producer collapse to one shipment (the producer's table
/// travels once); outgoing edges keep their per-part sizes ("the relevant
/// tuples are extracted before shipping", so communication costs are
/// unchanged). The merged query costs the sum of its parts minus one
/// per-statement overhead.
pub fn merge_pair(graph: &CostGraph, u: usize, v: usize, overhead_saving_secs: f64) -> CostGraph {
    let mut ws = Workspace::structural();
    ws.load(graph);
    let mut nodes = graph.nodes.clone();
    ws.contract(&mut nodes, u.min(v), u.max(v), overhead_saving_secs);
    ws.cur.to_graph(nodes)
}

/// Algorithm `Merge` (Fig. 9): greedy pairwise merging guided by the cost of
/// the rescheduled plan. Each round tries the mergeable same-source pairs in
/// `(u, v)` index order — those a reachability check shows would close a
/// cycle are never built — and applies the first of the cheapest, as long as
/// it beats the current plan.
pub fn merge(graph: &CostGraph, net: &NetworkModel, overhead_saving_secs: f64) -> MergeOutcome {
    let mut ws = Workspace::new(net);
    ws.load(graph);
    let cost = ws.cost().expect("cost graphs are acyclic");
    merge_from(&mut ws, graph.nodes.clone(), cost, overhead_saving_secs).0
}

/// [`merge`] of the graph `ws` has loaded, whose nodes are `nodes` and
/// whose unmerged plan costs `cost` — `cost(Schedule(G))`, which is what
/// [`no_merge`] reports as its response time — and the completion time of
/// every node of the merged graph under its plan.
pub(crate) fn merge_from(
    ws: &mut Workspace,
    mut nodes: Vec<CostNode>,
    mut cost: f64,
    overhead_saving_secs: f64,
) -> (MergeOutcome, Vec<f64>) {
    let mut decisions = Vec::new();
    let mut pairs = Vec::new();
    loop {
        ws.candidates(&nodes, &mut pairs);
        let mut best: Option<(f64, usize, usize)> = None;
        for &(u, v) in &pairs {
            // Only a candidate below the best so far (else the current plan)
            // matters, which lets the evaluator stop at the critical path.
            let bound = best.map_or(cost, |(c, _, _)| c);
            let candidate_cost = ws.candidate_cost((u, v), overhead_saving_secs, bound);
            if let Some(candidate_cost) = candidate_cost.filter(|&c| c < bound) {
                best = Some((candidate_cost, u, v));
            }
        }
        let Some((candidate_cost, u, v)) = best else {
            break;
        };
        decisions.push(MergeDecision {
            source: nodes[u].source,
            kept: nodes[u].members.clone(),
            absorbed: nodes[v].members.clone(),
            cost_before_secs: cost,
            cost_after_secs: candidate_cost,
        });
        ws.contract(&mut nodes, u, v, overhead_saving_secs);
        cost = candidate_cost;
    }
    let graph = ws.cur.to_graph(nodes);
    debug_assert!(graph.validate().is_ok(), "non-finite cost input");
    let (plan, done) = ws.plan_times();
    let outcome = MergeOutcome {
        plan,
        graph,
        response_secs: cost,
        merges: decisions.len(),
        decisions,
    };
    (outcome, done)
}

/// Convenience: the unmerged baseline (schedule only).
pub fn no_merge(graph: &CostGraph, net: &NetworkModel) -> MergeOutcome {
    let plan = schedule(graph, net);
    let response_secs = response_time(graph, &plan, net);
    MergeOutcome {
        graph: graph.clone(),
        plan,
        response_secs,
        merges: 0,
        decisions: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostNode;
    use aig_relstore::SourceId;

    fn node(source: u32, eval: f64) -> CostNode {
        CostNode {
            source: SourceId(source),
            eval_secs: eval,
            mergeable: source != 0,
            passthrough: false,
            members: vec![],
        }
    }

    /// Two independent queries at S1 both feeding a mediator combine.
    fn two_queries() -> CostGraph {
        CostGraph {
            nodes: vec![node(1, 0.5), node(1, 0.5), node(0, 0.1)],
            deps: vec![vec![], vec![], vec![(0, 1000.0), (1, 1000.0)]],
        }
    }

    #[test]
    fn merging_two_same_source_queries_saves_overhead() {
        let g = two_queries();
        let net = NetworkModel::mbps(1.0);
        let baseline = no_merge(&g, &net);
        let merged = merge(&g, &net, 0.4);
        assert_eq!(merged.merges, 1);
        assert!(merged.response_secs < baseline.response_secs);
        // Cost: the merged node runs 0.5+0.5-0.4 instead of two sequential
        // halves at the same source.
        assert_eq!(merged.graph.len(), 2);
    }

    #[test]
    fn merge_rejects_cycles() {
        // q0 (S1) -> m (mediator) -> q1 (S1): merging q0 with q1 would put
        // the mediator node both up- and downstream -> cycle -> rejected.
        let g = CostGraph {
            nodes: vec![node(1, 1.0), node(0, 0.1), node(1, 1.0)],
            deps: vec![vec![], vec![(0, 10.0)], vec![(1, 10.0)]],
        };
        let net = NetworkModel::mbps(1.0);
        let merged = merge(&g, &net, 0.9);
        assert_eq!(merged.merges, 0, "cyclic merge must be rejected");
    }

    #[test]
    fn merge_pair_collapses_shared_inputs() {
        // p feeds u and v; after merging u,v the input ships once.
        let g = CostGraph {
            nodes: vec![node(2, 1.0), node(1, 1.0), node(1, 1.0)],
            deps: vec![vec![], vec![(0, 500.0)], vec![(0, 500.0)]],
        };
        let merged = merge_pair(&g, 1, 2, 0.0);
        assert_eq!(merged.len(), 2);
        let merged_node = merged
            .nodes
            .iter()
            .position(|n| n.source == SourceId(1))
            .unwrap();
        assert_eq!(merged.deps[merged_node].len(), 1);
        assert_eq!(merged.deps[merged_node][0].1, 500.0);
    }

    #[test]
    fn dependent_merge_inlines() {
        // u -> v at the same source: merging removes the self-edge.
        let g = CostGraph {
            nodes: vec![node(1, 1.0), node(1, 2.0)],
            deps: vec![vec![], vec![(0, 100.0)]],
        };
        let merged = merge_pair(&g, 0, 1, 0.5);
        assert_eq!(merged.len(), 1);
        assert!(merged.deps[0].is_empty());
        assert!((merged.nodes[0].eval_secs - 2.5).abs() < 1e-9);
    }

    /// The estimate-phase ship-size fix matters: the same plan shape flips
    /// its merge decision when the producer's edge carries the pruned
    /// shipment size instead of the full-width relation. Two independent
    /// S1 queries feed one mediator combine; `u` produces a wide relation
    /// of which only a narrow slice ships. Priced at full width, merging
    /// serializes `v` behind `u`'s huge transfer and is rejected; priced at
    /// the pruned size, the transfer is negligible and the saved
    /// per-statement overhead wins.
    #[test]
    fn pruned_shipment_estimates_flip_the_merge_decision() {
        let graph_with_u_bytes = |bytes: f64| CostGraph {
            nodes: vec![node(1, 1.0), node(1, 1.0), node(0, 0.1)],
            deps: vec![vec![], vec![], vec![(0, bytes), (1, 1_000.0)]],
        };
        let net = NetworkModel::mbps(1.0);
        let overhead = 0.5;
        let full = merge(&graph_with_u_bytes(1_000_000.0), &net, overhead);
        assert_eq!(full.merges, 0, "full-width estimate must reject the merge");
        let pruned = merge(&graph_with_u_bytes(100.0), &net, overhead);
        assert_eq!(pruned.merges, 1, "pruned estimate must accept the merge");
    }

    #[test]
    fn merging_never_increases_cost() {
        let g = two_queries();
        let net = NetworkModel::mbps(0.5);
        let baseline = no_merge(&g, &net);
        let merged = merge(&g, &net, 0.2);
        assert!(merged.response_secs <= baseline.response_secs + 1e-12);
    }
}
