//! Algorithm `Schedule` (paper §5.3, Fig. 8).
//!
//! Finding the response-time-optimal plan is NP-hard (by reduction from
//! sequencing to minimize completion time), so the paper uses a
//! list-scheduling heuristic: every node gets a priority `ℓevel(Q)` — the
//! maximum path cost from it to a leaf of the dependency graph, evaluation
//! plus transfer — and each source executes its nodes in decreasing
//! priority, optimizing the critical paths.

use crate::cost::{CostGraph, Plan, Workspace};
use crate::sim::NetworkModel;
use aig_relstore::SourceId;
use std::collections::HashMap;

/// `ℓevel(Q) = eval_cost(Q) + max { ℓevel(Q') + trans_cost(S, S', size(Q)) }`
/// over the consumers `Q'` of `Q` (steps 1–6 of Fig. 8).
pub fn levels(graph: &CostGraph, net: &NetworkModel) -> Vec<f64> {
    Workspace::new(net).levels(graph).to_vec()
}

/// Algorithm `Schedule` (steps 7–10 of Fig. 8): per source, decreasing
/// priority. Ties break on topological position, which keeps the plan
/// consistent with the dependency DAG.
pub fn schedule(graph: &CostGraph, net: &NetworkModel) -> Plan {
    debug_assert!(
        graph.validate().is_ok(),
        "non-finite cost input: {:?}",
        graph.validate()
    );
    Workspace::new(net).schedule(graph)
}

/// The naive baseline for the scheduling ablation: plain topological
/// discovery order per source, ignoring criticality.
pub fn naive_plan(graph: &CostGraph) -> Plan {
    let topo = graph.topo().expect("cost graphs are acyclic");
    let mut per_source: HashMap<SourceId, Vec<usize>> = HashMap::new();
    for &id in &topo {
        per_source
            .entry(graph.nodes[id].source)
            .or_default()
            .push(id);
    }
    Plan { per_source }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{response_time, CostNode};

    /// A diamond: q0 at S1 feeds q1 (S1, heavy chain below) and q2 (S1,
    /// light). Scheduling the critical q1 first wins.
    fn diamond() -> CostGraph {
        let s1 = SourceId(1);
        let s2 = SourceId(2);
        let mk = |source, eval_secs| CostNode {
            source,
            eval_secs,
            mergeable: true,
            passthrough: false,
            members: vec![],
        };
        CostGraph {
            nodes: vec![
                mk(s1, 1.0),  // 0: producer
                mk(s1, 1.0),  // 1: feeds the long chain
                mk(s1, 1.0),  // 2: light leaf
                mk(s2, 10.0), // 3: long chain consumer of 1
            ],
            deps: vec![vec![], vec![(0, 100.0)], vec![(0, 100.0)], vec![(1, 100.0)]],
        }
    }

    #[test]
    fn levels_reflect_downstream_cost() {
        let g = diamond();
        let net = NetworkModel::infinite();
        let l = levels(&g, &net);
        assert!(l[1] > l[2], "critical path gets the higher priority");
        assert!(l[0] > l[1]);
        assert!((l[3] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn schedule_beats_adversarial_order() {
        let g = diamond();
        let net = NetworkModel::infinite();
        let good = schedule(&g, &net);
        assert!(good.consistent_with(&g));
        // Adversarial: run the light leaf before the critical node.
        let mut bad = good.clone();
        let seq = bad.per_source.get_mut(&SourceId(1)).unwrap();
        assert_eq!(seq[0], 0);
        seq.retain(|&t| t != 2);
        seq.insert(1, 2);
        let tg = response_time(&g, &good, &net);
        let tb = response_time(&g, &bad, &net);
        assert!(tg < tb, "schedule {tg} should beat adversarial {tb}");
    }

    #[test]
    fn naive_plan_is_consistent() {
        let g = diamond();
        let plan = naive_plan(&g);
        assert!(plan.consistent_with(&g));
    }

    #[test]
    fn non_finite_and_negative_costs_are_rejected() {
        use crate::error::MediatorError;
        assert!(diamond().validate().is_ok());
        let mut g = diamond();
        g.nodes[2].eval_secs = f64::NAN;
        assert!(matches!(
            g.validate().unwrap_err(),
            MediatorError::InvalidCost { node: 2, .. }
        ));
        let mut g = diamond();
        g.nodes[1].eval_secs = -1.0;
        assert!(matches!(
            g.validate().unwrap_err(),
            MediatorError::InvalidCost { node: 1, .. }
        ));
        let mut g = diamond();
        g.deps[3][0].1 = f64::INFINITY;
        assert!(matches!(
            g.validate().unwrap_err(),
            MediatorError::InvalidCost { node: 3, .. }
        ));
    }

    /// Regression: a NaN estimate used to flow through
    /// `partial_cmp(..).unwrap_or(Equal)` and silently poison the
    /// per-source ordering; now it trips the debug assertion (and in
    /// release the `total_cmp` tie-break stays deterministic).
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "non-finite cost input")]
    fn schedule_asserts_on_nan_costs_in_debug() {
        let mut g = diamond();
        g.nodes[1].eval_secs = f64::NAN;
        let _ = schedule(&g, &NetworkModel::infinite());
    }
}

// ---------------------------------------------------------------------------
// Dynamic scheduling (paper §5.5 / §7: "significant efficiency gains can
// accrue from using dynamic scheduling, in which a runtime scheduler updates
// the query plans for each site in parallel with evaluation")
// ---------------------------------------------------------------------------

/// Event-driven simulation of a *dynamic* scheduler: whenever a source goes
/// idle it picks, among its ready tasks, the one with the highest priority —
/// `ℓevel` over the estimates — and pays the actual costs. Returns the
/// simulated response time.
///
/// The priorities are computed once. Re-evaluating them over a graph with
/// the actuals of finished tasks patched in (estimates for the rest) gives
/// every unfinished task the same level to the bit: a level reads only the
/// task itself, its out-edges and its descendants, and all of those are
/// unfinished while the task is (see [`crate::parallel`]).
///
/// `est` and `actual` must be structurally identical graphs (same nodes and
/// edges) carrying estimated resp. actual evaluation times and edge sizes.
pub fn dynamic_response_time(est: &CostGraph, actual: &CostGraph, net: &NetworkModel) -> f64 {
    let n = est.len();
    assert_eq!(n, actual.len(), "graphs must be structurally identical");
    let mut finish: Vec<Option<f64>> = vec![None; n];
    let mut free: HashMap<SourceId, f64> = HashMap::new();
    let mut remaining = n;
    let priority = levels(est, net);
    while remaining > 0 {
        // For each source, the best ready task and its earliest start.
        let mut best: Option<(usize, f64)> = None; // (task, start time)
        for id in 0..n {
            if finish[id].is_some() {
                continue;
            }
            let ready = actual.deps[id].iter().all(|(d, _)| finish[*d].is_some());
            if !ready {
                continue;
            }
            let source = actual.nodes[id].source;
            let mut start = free.get(&source).copied().unwrap_or(0.0);
            for (dep, bytes) in &actual.deps[id] {
                let arrive = finish[*dep].expect("ready")
                    + net.trans_cost(actual.nodes[*dep].source, source, *bytes)
                    + net.temp_load_cost(source, *bytes);
                start = start.max(arrive);
            }
            let better = match best {
                None => true,
                Some((b, bstart)) => {
                    // Earliest start wins; priority breaks near-ties at the
                    // same start (the per-source pick).
                    start < bstart - 1e-12
                        || ((start - bstart).abs() <= 1e-12 && priority[id] > priority[b])
                }
            };
            if better {
                best = Some((id, start));
            }
        }
        let (task, start) = best.expect("acyclic graph always has a ready task");
        let end = start + actual.nodes[task].eval_secs;
        finish[task] = Some(end);
        free.insert(actual.nodes[task].source, end);
        remaining -= 1;
    }
    finish.into_iter().map(|f| f.unwrap()).fold(0.0, f64::max)
}

/// The static counterpart for the dynamic-scheduling ablation: plan on the
/// *estimates*, pay the *actual* costs.
pub fn static_response_on_actuals(est: &CostGraph, actual: &CostGraph, net: &NetworkModel) -> f64 {
    let plan = schedule(est, net);
    crate::cost::response_time(actual, &plan, net)
}

#[cfg(test)]
mod dynamic_tests {
    use super::*;
    use crate::cost::CostNode;

    fn node(source: u32, eval: f64) -> CostNode {
        CostNode {
            source: SourceId(source),
            eval_secs: eval,
            mergeable: source != 0,
            passthrough: false,
            members: vec![],
        }
    }

    /// Two independent chains from S1: one feeds a heavy S2 task, the other
    /// a light one. Estimates are inverted, so the static plan runs the
    /// wrong chain first; the dynamic scheduler's ready queue limits the
    /// damage.
    fn graphs() -> (CostGraph, CostGraph) {
        let actual = CostGraph {
            nodes: vec![
                node(1, 1.0), // 0 feeds the heavy consumer
                node(1, 1.0), // 1 feeds the light consumer
                node(2, 9.0), // 2 heavy
                node(2, 1.0), // 3 light
            ],
            deps: vec![vec![], vec![], vec![(0, 10.0)], vec![(1, 10.0)]],
        };
        let mut est = actual.clone();
        est.nodes[2].eval_secs = 1.0; // heavy believed light
        est.nodes[3].eval_secs = 9.0; // light believed heavy
        (est, actual)
    }

    #[test]
    fn dynamic_matches_static_under_exact_estimates() {
        let (_, actual) = graphs();
        let net = NetworkModel::infinite();
        let dynamic = dynamic_response_time(&actual, &actual, &net);
        let static_ = static_response_on_actuals(&actual, &actual, &net);
        // Both run the heavy chain first and finish in 1 + 9 + 1 = 11.
        assert!((dynamic - static_).abs() < 1e-9, "{dynamic} vs {static_}");
    }

    #[test]
    fn dynamic_scheduling_recovers_from_bad_estimates() {
        let (est, actual) = graphs();
        let net = NetworkModel::infinite();
        let static_ = static_response_on_actuals(&est, &actual, &net);
        let dynamic = dynamic_response_time(&est, &actual, &net);
        assert!(
            dynamic <= static_ + 1e-9,
            "dynamic {dynamic} should not lose to static {static_}"
        );
    }
}
