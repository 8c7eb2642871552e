//! Response-time computation (paper §5.2).
//!
//! An execution plan `P` assigns each data source a sequence of (possibly
//! merged) query nodes. The completion time of a node is its evaluation
//! cost plus the later of (a) the completion of its predecessor at the same
//! source and (b) the arrival of its inputs (producer completion + transfer
//! over the simulated network). `cost(P)` is the maximum completion time —
//! computed by dynamic programming, "in at most quadratic time".
//!
//! Scheduling and merging both operate on a [`CostGraph`]: a contracted view
//! of the task graph carrying only sources, evaluation costs, and per-edge
//! shipped bytes. This is the paper's query dependency graph `G`.

use crate::exec::Measured;
use crate::graph::TaskGraph;
use crate::sim::NetworkModel;
use aig_relstore::SourceId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// One node of the cost graph.
#[derive(Debug, Clone)]
pub struct CostNode {
    pub source: SourceId,
    pub eval_secs: f64,
    /// True for source queries (mergeable); false for mediator operations.
    pub mergeable: bool,
    /// True for single-input mediator pass-throughs (one-input table
    /// assemblies) that can be contracted into their producer.
    pub passthrough: bool,
    /// The original task ids contracted into this node.
    pub members: Vec<usize>,
}

/// The dependency graph with costs: nodes plus weighted dependency edges
/// `(producer, bytes shipped)`.
#[derive(Debug, Clone)]
pub struct CostGraph {
    pub nodes: Vec<CostNode>,
    /// For each node: its producers with the bytes shipped along the edge.
    pub deps: Vec<Vec<(usize, f64)>>,
}

impl CostGraph {
    /// Builds the cost graph from a task graph with the given per-task
    /// costs (estimated or measured).
    pub fn from_task_graph(graph: &TaskGraph, costs: &[TaskCost]) -> CostGraph {
        let nodes = graph
            .tasks
            .iter()
            .enumerate()
            .map(|(id, t)| CostNode {
                source: t.source,
                eval_secs: costs[id].eval_secs,
                mergeable: !t.source.is_mediator(),
                passthrough: matches!(
                    &t.kind,
                    crate::graph::TaskKind::Assemble { inputs, .. } if inputs.len() == 1
                ),
                members: vec![id],
            })
            .collect();
        let deps = graph
            .tasks
            .iter()
            .map(|t| {
                t.deps
                    .iter()
                    .map(|(d, _)| (*d, costs[*d].out_bytes))
                    .collect()
            })
            .collect();
        CostGraph { nodes, deps }
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Contracts single-input mediator table assemblies into their producing
    /// query. The paper's dependency graph connects dependent queries
    /// directly (Fig. 7's `Q1 →G Q2`), which is what lets `Merge` inline
    /// dependent same-source queries; our explicit one-input caching steps
    /// would otherwise put a mediator node on every such edge and make all
    /// merges cyclic. Only nodes *constructed* as pass-throughs are
    /// contracted, but the scan repeats until none is left: a pass-through
    /// whose producer was itself a contracted pass-through is contracted
    /// too, so a chain of them collapses into the query at its head.
    pub fn contract_passthrough(&self) -> CostGraph {
        self.contract_passthrough_with(|_, _| {})
    }

    /// [`CostGraph::contract_passthrough`], telling `contracted` each
    /// `(producer, pass-through)` pair in the order they are contracted.
    fn contract_passthrough_with(&self, mut contracted: impl FnMut(usize, usize)) -> CostGraph {
        let mut ws = Workspace::structural();
        ws.load(self);
        let mut nodes = self.nodes.clone();
        while let Some((id, producer)) = (0..nodes.len()).find_map(|id| match ws.cur.deps(id) {
            &[Edge { node, .. }] if nodes[id].passthrough && node as usize != id => {
                Some((id, node as usize))
            }
            _ => None,
        }) {
            contracted(producer, id);
            ws.contract(&mut nodes, producer, id, 0.0);
        }
        ws.cur.to_graph(nodes)
    }

    /// A topological order; `None` when the graph is cyclic (merging two
    /// nodes may create a cycle, which `Merge` must reject).
    pub fn topo(&self) -> Option<Vec<usize>> {
        let mut ws = Workspace::structural();
        ws.load(self);
        ws.scratch.topo(&ws.cur).then_some(ws.scratch.topo)
    }

    /// Checks that every evaluation time and edge size is finite and
    /// non-negative. The scheduler's priority ordering compares these with a
    /// total order, so a NaN or negative cost would silently produce an
    /// arbitrary (but no longer meaningful) plan — callers validate up front
    /// and surface a structured error instead.
    pub fn validate(&self) -> Result<(), crate::error::MediatorError> {
        let bad = |node: usize, detail: String| {
            Err(crate::error::MediatorError::InvalidCost { node, detail })
        };
        for (id, n) in self.nodes.iter().enumerate() {
            if !n.eval_secs.is_finite() || n.eval_secs < 0.0 {
                return bad(id, format!("eval_secs = {}", n.eval_secs));
            }
        }
        for (id, deps) in self.deps.iter().enumerate() {
            for &(dep, bytes) in deps {
                if !bytes.is_finite() || bytes < 0.0 {
                    return bad(id, format!("edge from node {dep} ships {bytes} bytes"));
                }
            }
        }
        Ok(())
    }
}

/// The pass-through contraction of one task graph's cost graph
/// ([`CostGraph::contract_passthrough`]), recorded once: the pairs it
/// contracts, in order, and the nodes it leaves. Which nodes it contracts
/// depends on the graph's shape alone, so every re-simulation replays it
/// over its own costs ([`Workspace::replay`]) instead of building the cost
/// graph and searching it again.
#[derive(Debug, Clone)]
pub(crate) struct Contraction {
    pairs: Vec<(usize, usize)>,
    /// Sources, flags and members of the contracted nodes; their costs are
    /// a replay's.
    nodes: Vec<CostNode>,
}

impl Contraction {
    pub(crate) fn record(graph: &TaskGraph) -> Contraction {
        let shape = CostGraph::from_task_graph(graph, &vec![TaskCost::default(); graph.len()]);
        let mut pairs = Vec::new();
        let contracted = shape.contract_passthrough_with(|keep, gone| pairs.push((keep, gone)));
        Contraction {
            pairs,
            nodes: contracted.nodes,
        }
    }
}

/// A plan: per source, the execution order of the cost-graph nodes.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    pub per_source: HashMap<SourceId, Vec<usize>>,
}

impl Plan {
    /// Checks consistency with the dependency partial order (same-source
    /// producers must precede their consumers).
    pub fn consistent_with(&self, graph: &CostGraph) -> bool {
        let mut position: HashMap<usize, usize> = HashMap::new();
        for seq in self.per_source.values() {
            for (pos, &t) in seq.iter().enumerate() {
                position.insert(t, pos);
            }
        }
        for (id, deps) in graph.deps.iter().enumerate() {
            for (dep, _) in deps {
                if graph.nodes[*dep].source == graph.nodes[id].source
                    && position.get(dep) >= position.get(&id)
                {
                    return false;
                }
            }
        }
        true
    }
}

/// Per-task cost inputs: evaluation seconds and output bytes.
#[derive(Debug, Clone, Copy, Default)]
pub struct TaskCost {
    pub eval_secs: f64,
    pub out_bytes: f64,
}

/// `cost(P)`: the response time of executing `plan` on `graph` over the
/// simulated network.
pub fn response_time(graph: &CostGraph, plan: &Plan, net: &NetworkModel) -> f64 {
    completion_times(graph, plan, net)
        .into_iter()
        .fold(0.0, f64::max)
}

/// The completion time of every node under `plan` (which lists a node at
/// most once).
pub fn completion_times(graph: &CostGraph, plan: &Plan, net: &NetworkModel) -> Vec<f64> {
    let mut ws = Workspace::new(net);
    ws.load(graph);
    ws.scratch.successors(&ws.cur);
    ws.scratch.prev.resize(graph.len(), NONE);
    for seq in plan.per_source.values() {
        for pair in seq.windows(2) {
            ws.scratch.prev[pair[1]] = pair[0];
        }
    }
    let complete = ws.scratch.completion(&ws.cur);
    assert!(complete, "inconsistent plan: cyclic wait");
    ws.scratch.done
}

// ---------------------------------------------------------------------------
// The one Schedule/cost evaluator
// ---------------------------------------------------------------------------

const NONE: usize = usize::MAX;

/// How far beyond the bound a candidate's critical path must lie before
/// [`Workspace::candidate_cost`] gives up on it without scheduling it.
/// `cost(P) ≥ max ℓevel` holds exactly over the reals; in floating point the
/// two sides add the same path's terms in opposite orders, so they can
/// differ by a few ulps per term — a relative 1e-13 on the graphs planned
/// here, four orders of magnitude inside this margin. Within the margin the
/// candidate is evaluated in full, so the margin only costs time.
const BOUND_MARGIN: f64 = 1e-9;

/// See [`evaluations`]. Statistics that publish no other data: `Relaxed`.
static LEVEL_PASSES: AtomicU64 = AtomicU64::new(0);
static FULL_EVALUATIONS: AtomicU64 = AtomicU64::new(0);

/// Evaluator passes performed by this process so far: `ℓevel` passes (one
/// per graph scheduled, priced or tried as a merge candidate) and, of those,
/// the *full* evaluations that went on to sort and simulate a plan.
/// Diagnostics only: `tests/eval_regression.rs` asserts that a dynamic round
/// evaluates levels once and that `Merge` abandons the candidates its bound
/// rules out. Process-wide, not per thread, because the passes that test
/// guards against would run on the executor's worker threads.
pub fn evaluations() -> (u64, u64) {
    (LEVEL_PASSES.load(Relaxed), FULL_EVALUATIONS.load(Relaxed))
}

/// A dependency edge as the evaluator reads it: the producer, the bytes
/// shipped, and what shipping them costs — `trans_cost` and
/// `temp_load_cost` between the two endpoints' sources, priced when the edge
/// is loaded or rewired instead of (a division) at every read. The two
/// stay apart because `ℓevel` adds their sum to a level while a completion
/// time adds them one after the other, and the roundings differ.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Edge {
    node: u32,
    bytes: f64,
    trans_secs: f64,
    load_secs: f64,
}

impl Edge {
    fn priced(net: &NetworkModel, node: u32, from: SourceId, to: SourceId, bytes: f64) -> Edge {
        Edge {
            node,
            bytes,
            trans_secs: net.trans_cost(from, to, bytes),
            load_secs: net.temp_load_cost(to, bytes),
        }
    }
}

/// What `Schedule`, `cost(P)` and `mergePair` read of a cost graph: sources,
/// evaluation times and the priced dependency lists in CSR form — no
/// `members`.
#[derive(Debug, Default)]
pub(crate) struct Flat {
    source: Vec<SourceId>,
    eval: Vec<f64>,
    dep_start: Vec<usize>,
    dep: Vec<Edge>,
}

impl Flat {
    fn len(&self) -> usize {
        self.source.len()
    }

    fn deps(&self, id: usize) -> &[Edge] {
        &self.dep[self.dep_start[id]..self.dep_start[id + 1]]
    }

    fn clear(&mut self) {
        self.source.clear();
        self.eval.clear();
        self.dep_start.clear();
        self.dep.clear();
    }

    pub(crate) fn load(&mut self, graph: &CostGraph, net: &NetworkModel) {
        assert!(u32::try_from(graph.len()).is_ok(), "cost graph too large");
        self.clear();
        for (node, deps) in graph.nodes.iter().zip(&graph.deps) {
            self.source.push(node.source);
            self.eval.push(node.eval_secs);
            self.dep_start.push(self.dep.len());
            let priced = |&(d, bytes): &(usize, f64)| {
                Edge::priced(net, d as u32, graph.nodes[d].source, node.source, bytes)
            };
            self.dep.extend(deps.iter().map(priced));
        }
        self.dep_start.push(self.dep.len());
    }

    /// Back to the public form, with `nodes` supplying what this view does
    /// not carry (members and flags).
    pub(crate) fn to_graph(&self, mut nodes: Vec<CostNode>) -> CostGraph {
        for (node, &eval) in nodes.iter_mut().zip(&self.eval) {
            node.eval_secs = eval;
        }
        let public = |e: &Edge| (e.node as usize, e.bytes);
        let deps = (0..self.len())
            .map(|id| self.deps(id).iter().map(public).collect())
            .collect();
        CostGraph { nodes, deps }
    }

    /// Appends the nodes `ids` of `cur` with their dependency lists, as they
    /// are.
    fn copy_run(&mut self, cur: &Flat, ids: std::ops::Range<usize>) {
        let edges = cur.dep_start[ids.start]..cur.dep_start[ids.end];
        let at = self.dep.len();
        self.source.extend_from_slice(&cur.source[ids.clone()]);
        self.eval.extend_from_slice(&cur.eval[ids.clone()]);
        let starts = cur.dep_start[ids].iter();
        self.dep_start.extend(starts.map(|s| s - edges.start + at));
        self.dep.extend_from_slice(&cur.dep[edges]);
    }

    /// `mergePair`: overwrites `self` with `cur` after contracting `gone`
    /// into `keep`. Every edge to `gone` is re-pointed at `keep`; `keep`'s
    /// in-edges are the union of both lists without the self-edges (a
    /// dependent pair is inlined), parallel edges from one producer
    /// collapsed to a single shipment of the larger size and sorted by
    /// producer; out-edges keep their per-part sizes. The merged query costs
    /// the sum of its parts minus `overhead`, never less than zero. The dead
    /// slot is filled as `swap_remove` would: the last node takes index
    /// `gone`. An edge whose endpoints' sources or whose size changed is
    /// priced again; the rest is copied in runs.
    fn contract_from(
        &mut self,
        cur: &Flat,
        keep: usize,
        gone: usize,
        overhead: f64,
        net: &NetworkModel,
    ) {
        debug_assert_ne!(keep, gone);
        let last = cur.len() - 1;
        self.clear();
        // Sized for `cur` itself, so no candidate of this or a later round
        // (none has more nodes or edges) makes these buffers grow.
        self.source.reserve(cur.len());
        self.eval.reserve(cur.len());
        self.dep_start.reserve(cur.len() + 1);
        self.dep.reserve(cur.dep.len());
        let mut copied = 0;
        for slot in [keep.min(gone), keep.max(gone)] {
            if slot == last {
                break; // the slot `swap_remove` drops
            }
            self.copy_run(cur, copied..slot);
            copied = slot + 1;
            let from = if slot == gone { last } else { slot };
            if from != keep {
                self.copy_run(cur, from..from + 1);
                continue;
            }
            self.source.push(cur.source[keep]);
            self.eval
                .push((cur.eval[keep] + cur.eval[gone] - overhead).max(0.0));
            self.dep_start.push(self.dep.len());
            let start = self.dep.len();
            let both = cur.deps(keep).iter().chain(cur.deps(gone));
            let inlined = |e: &&Edge| e.node as usize != keep && e.node as usize != gone;
            self.dep.extend(both.filter(inlined).copied());
            self.dep[start..].sort_unstable_by_key(|e| e.node);
            let mut end = start;
            for at in start..self.dep.len() {
                let Edge { node, bytes, .. } = self.dep[at];
                if end > start && self.dep[end - 1].node == node {
                    self.dep[end - 1].bytes = self.dep[end - 1].bytes.max(bytes);
                } else {
                    self.dep[end].node = node;
                    self.dep[end].bytes = 0.0f64.max(bytes);
                    end += 1;
                }
            }
            self.dep.truncate(end);
            for edge in &mut self.dep[start..] {
                let (from, to) = (cur.source[edge.node as usize], cur.source[keep]);
                *edge = Edge::priced(net, edge.node, from, to, edge.bytes);
            }
        }
        self.copy_run(cur, copied..last);
        self.dep_start.push(self.dep.len());
        // The surviving consumers of `gone` now read `keep`: at another
        // price only if the two sat at different sources (never in `Merge`).
        if cur.source[keep] != cur.source[gone] {
            for id in 0..self.len() {
                let to = self.source[id];
                for edge in &mut self.dep[self.dep_start[id]..self.dep_start[id + 1]] {
                    if edge.node as usize == gone {
                        *edge = Edge::priced(net, edge.node, cur.source[keep], to, edge.bytes);
                    }
                }
            }
        }
        let renumber = |node: usize| (if node == last { gone } else { node }) as u32;
        for edge in &mut self.dep {
            let rewired = if edge.node as usize == gone {
                keep
            } else {
                edge.node as usize
            };
            edge.node = renumber(rewired);
        }
    }
}

/// `x`'s place in `f64::total_cmp` order as an unsigned integer: negative
/// values have all bits flipped, the others the sign bit.
fn total_order_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ ((((bits as i64) >> 63) as u64) | 1 << 63)
}

/// The evaluator's scratch buffers, all sized by the graph last passed in.
#[derive(Debug, Default)]
struct Scratch {
    succ_start: Vec<usize>,
    /// Per producer, its `(consumer, seconds to ship to it)` pairs.
    succ: Vec<(usize, f64)>,
    /// Unmet waits per node (Kahn), and the fill cursor of `successors`.
    wait: Vec<usize>,
    stack: Vec<usize>,
    topo: Vec<usize>,
    topo_pos: Vec<usize>,
    level: Vec<f64>,
    /// One sort key per node, see [`Scratch::schedule`].
    keys: Vec<u128>,
    /// Nodes by `(level desc, topo_pos)`: the per-source sequences of
    /// `Schedule`, interleaved.
    order: Vec<usize>,
    /// The last node `chain` saw per source index, or `NONE`.
    last_at: Vec<usize>,
    /// Same-source predecessor resp. successor under the plan, or `NONE`.
    prev: Vec<usize>,
    next: Vec<usize>,
    done: Vec<f64>,
    /// Strict descendants of every node, one bitset row per node.
    desc: Vec<u64>,
}

impl Scratch {
    fn succ(&self, id: usize) -> &[(usize, f64)] {
        &self.succ[self.succ_start[id]..self.succ_start[id + 1]]
    }

    /// Successor lists in CSR form, each in `(consumer, dep position)`
    /// order — the order Kahn's stack, hence `topo_pos`, depends on.
    fn successors(&mut self, g: &Flat) {
        let n = g.len();
        self.succ_start.clear();
        self.succ_start.resize(n + 1, 0);
        for e in &g.dep {
            self.succ_start[e.node as usize + 1] += 1;
        }
        for id in 0..n {
            self.succ_start[id + 1] += self.succ_start[id];
        }
        self.wait.clear();
        self.wait.extend_from_slice(&self.succ_start[..n]);
        self.succ.clear();
        self.succ.resize(g.dep.len(), (0, 0.0));
        for id in 0..n {
            for e in g.deps(id) {
                let at = &mut self.wait[e.node as usize];
                self.succ[*at] = (id, e.trans_secs + e.load_secs);
                *at += 1;
            }
        }
    }

    /// Drains `stack` Kahn-style over `wait`: `visit` runs once per node
    /// whose waits are all met, then its consumers (and its same-source
    /// successor, when `chained`) are released. Returns the nodes visited.
    fn drain(&mut self, chained: bool, mut visit: impl FnMut(&mut Scratch, usize)) -> usize {
        let mut visited = 0;
        while let Some(id) = self.stack.pop() {
            visit(self, id);
            visited += 1;
            for at in self.succ_start[id]..self.succ_start[id + 1] {
                let s = self.succ[at].0;
                self.wait[s] -= 1;
                if self.wait[s] == 0 {
                    self.stack.push(s);
                }
            }
            if chained && self.next[id] != NONE {
                let s = self.next[id];
                self.wait[s] -= 1;
                if self.wait[s] == 0 {
                    self.stack.push(s);
                }
            }
        }
        visited
    }

    /// Kahn's algorithm into `topo`/`topo_pos`, the lowest-numbered ready
    /// node first and then stack order; false when `g` is cyclic.
    fn topo(&mut self, g: &Flat) -> bool {
        let n = g.len();
        self.successors(g);
        self.wait.clear();
        self.wait.extend((0..n).map(|id| g.deps(id).len()));
        self.stack.clear();
        self.stack.reserve(n);
        self.stack
            .extend((0..n).rev().filter(|&id| g.deps(id).is_empty()));
        self.topo.clear();
        self.drain(false, |s, id| s.topo.push(id));
        self.topo_pos.clear();
        self.topo_pos.resize(n, 0);
        for (pos, &id) in self.topo.iter().enumerate() {
            self.topo_pos[id] = pos;
        }
        self.topo.len() == n
    }

    /// `ℓevel` of every node, and the largest — the critical path, which no
    /// plan's cost can undercut; needs `topo`.
    fn levels(&mut self, g: &Flat) -> f64 {
        LEVEL_PASSES.fetch_add(1, Relaxed);
        self.level.clear();
        self.level.resize(g.len(), 0.0);
        let mut critical = 0.0f64;
        for &id in self.topo.iter().rev() {
            let mut best = 0.0f64;
            for &(s, secs) in self.succ(id) {
                best = best.max(self.level[s] + secs);
            }
            self.level[id] = best + g.eval[id];
            critical = critical.max(self.level[id]);
        }
        critical
    }

    /// `Schedule`: decreasing level, ties on topological position; needs
    /// `levels`. Each source runs its own nodes in this order, and the order
    /// as a whole visits every node after the producers it reads (a level is
    /// its consumers' plus non-negative costs) and after its predecessor at
    /// its source. One integer key per node — the level's place in
    /// `total_cmp` order inverted, then the topological position, which also
    /// names the node — so the sort compares integers and, positions being
    /// distinct, has one possible outcome. The `total_cmp` order keeps it
    /// deterministic even if a NaN cost slips past validation in release
    /// builds (a NaN level gets a fixed place instead of poisoning the
    /// comparator).
    fn schedule(&mut self, g: &Flat) {
        let key = |(pos, &id): (usize, &usize)| {
            u128::from(!total_order_bits(self.level[id])) << 32 | pos as u128
        };
        self.keys.clear();
        self.keys.extend(self.topo.iter().enumerate().map(key));
        self.keys.sort_unstable();
        self.order.clear();
        let node = |key: &u128| self.topo[*key as u32 as usize];
        self.order.extend(self.keys.iter().map(node));
        debug_assert_eq!(self.order.len(), g.len());
    }

    /// The plan `schedule` stands for into `prev`: each node behind the one
    /// before it in `order` at the same source.
    fn chain(&mut self, g: &Flat) {
        self.prev.clear();
        self.prev.resize(g.len(), NONE);
        self.last_at.clear();
        for &id in &self.order {
            let source = g.source[id].index();
            if source >= self.last_at.len() {
                self.last_at.resize(source + 1, NONE);
            }
            self.prev[id] = std::mem::replace(&mut self.last_at[source], id);
        }
    }

    /// When `id` can start under the plan in `prev` — its same-source
    /// predecessor done and its inputs arrived — and whether one of the
    /// times that takes is still NaN, which a maximum silently drops.
    fn start(&self, g: &Flat, id: usize) -> (f64, bool) {
        let (mut ready, mut unset) = (0.0f64, false);
        if self.prev[id] != NONE {
            unset = self.done[self.prev[id]].is_nan();
            ready = ready.max(self.done[self.prev[id]]);
        }
        for e in g.deps(id) {
            let arrive = self.done[e.node as usize] + e.trans_secs + e.load_secs;
            unset |= arrive.is_nan();
            ready = ready.max(arrive);
        }
        (ready, unset)
    }

    /// Completion times into `done` under the plan in `prev`, visiting the
    /// nodes in `order`. False — and `done` is then unfinished — when that
    /// reaches a node before something it waits on (NaN stands for "not
    /// visited"); `schedule`'s order never does on non-negative costs.
    fn completion_in_order(&mut self, g: &Flat) -> bool {
        self.done.clear();
        self.done.resize(g.len(), f64::NAN);
        for at in 0..self.order.len() {
            let id = self.order[at];
            let (ready, early) = self.start(g, id);
            if early {
                return false;
            }
            self.done[id] = ready + g.eval[id];
        }
        true
    }

    /// Completion times into `done` under the plan in `prev`, in whatever
    /// order the waits allow; needs `successors`. False when nodes wait on
    /// each other in a cycle.
    fn completion(&mut self, g: &Flat) -> bool {
        let n = g.len();
        self.next.clear();
        self.next.resize(n, NONE);
        self.wait.clear();
        for id in 0..n {
            let chained = self.prev[id] != NONE;
            if chained {
                self.next[self.prev[id]] = id;
            }
            self.wait.push(g.deps(id).len() + usize::from(chained));
        }
        self.stack.clear();
        self.stack.reserve(n);
        self.stack.extend((0..n).filter(|&id| self.wait[id] == 0));
        self.done.clear();
        self.done.resize(n, f64::NAN);
        let visited = self.drain(true, |s, id| s.done[id] = s.start(g, id).0 + g.eval[id]);
        visited == n
    }

    /// `cost(Schedule(g))` in one pass; `None` when `g` is cyclic, or when
    /// its critical path alone puts it out of reach of `bound` (see
    /// [`BOUND_MARGIN`]) — whatever it costs, it costs more than that.
    fn cost(&mut self, g: &Flat, bound: f64) -> Option<f64> {
        if !self.topo(g) || self.levels(g) > bound * (1.0 + BOUND_MARGIN) {
            return None;
        }
        FULL_EVALUATIONS.fetch_add(1, Relaxed);
        self.simulate(g)
    }

    /// `Schedule`, its plan's completion times into `done` and cost; needs `levels`.
    fn simulate(&mut self, g: &Flat) -> Option<f64> {
        self.schedule(g);
        self.chain(g);
        // Costs `validate` would reject can put the order at odds with the
        // waits; the times are then whatever the waits themselves allow.
        (self.completion_in_order(g) || self.completion(g))
            .then(|| self.done.iter().copied().fold(0.0, f64::max))
    }

    /// Strict-descendant bitsets of every node; needs `topo`.
    fn closure(&mut self, g: &Flat) {
        let words = g.len().div_ceil(64);
        self.desc.clear();
        self.desc.resize(g.len() * words, 0);
        for &id in self.topo.iter().rev() {
            for at in self.succ_start[id]..self.succ_start[id + 1] {
                let s = self.succ[at].0;
                self.desc[id * words + s / 64] |= 1 << (s % 64);
                for w in 0..words {
                    self.desc[id * words + w] |= self.desc[s * words + w];
                }
            }
        }
    }

    /// Whether a path of two or more edges leads from `u` to `v`; needs
    /// `closure`. Contracting such a pair would close a cycle through the
    /// path's inner nodes, while a direct edge alone is merely inlined.
    fn detour(&self, g: &Flat, u: usize, v: usize) -> bool {
        let words = g.len().div_ceil(64);
        (self.succ(u).iter())
            .any(|&(s, _)| s != v && self.desc[s * words + v / 64] >> (v % 64) & 1 == 1)
    }
}

/// The one evaluator behind `Schedule`, `cost(P)` and `Merge`: a flat copy
/// of the graph under consideration, priced over one network, a second one
/// for the candidate being tried, and the scratch buffers both are evaluated
/// in. Nothing is allocated once the buffers have grown to the first graph's
/// size, which is what lets `Merge` try every pair of every round without
/// touching the allocator.
#[derive(Debug)]
pub struct Workspace {
    net: NetworkModel,
    pub(crate) cur: Flat,
    cand: Flat,
    scratch: Scratch,
}

impl Workspace {
    /// An evaluator over `net`.
    pub fn new(net: &NetworkModel) -> Workspace {
        Workspace {
            net: net.clone(),
            cur: Flat::default(),
            cand: Flat::default(),
            scratch: Scratch::default(),
        }
    }

    /// An evaluator for callers that only reshape a graph (contract it,
    /// order it) and never read a price.
    pub(crate) fn structural() -> Workspace {
        Workspace::new(&NetworkModel::infinite())
    }

    /// Loads `graph`, priced over this evaluator's network.
    pub(crate) fn load(&mut self, graph: &CostGraph) {
        self.cur.load(graph, &self.net);
    }

    /// Prices what this evaluator loads over `net` from now on.
    pub(crate) fn set_network(&mut self, net: &NetworkModel) {
        self.net = net.clone();
    }

    /// Loads the cost graph of `graph` under `costs` — what loading
    /// `CostGraph::from_task_graph(graph, costs)` loads — then replays
    /// `contraction` on it, and returns the contracted graph's nodes (their
    /// costs are the loaded graph's, see [`Flat::to_graph`]): the loaded
    /// graph is `CostGraph::from_task_graph(graph, costs)
    /// .contract_passthrough()`, priced as loading that would price it.
    pub(crate) fn replay(
        &mut self,
        graph: &TaskGraph,
        costs: &[TaskCost],
        contraction: &Contraction,
    ) -> Vec<CostNode> {
        let flat = &mut self.cur;
        flat.clear();
        for task in &graph.tasks {
            flat.source.push(task.source);
        }
        for (task, cost) in graph.tasks.iter().zip(costs) {
            flat.eval.push(cost.eval_secs);
            flat.dep_start.push(flat.dep.len());
            for &(d, _) in &task.deps {
                let from = flat.source[d];
                let priced =
                    Edge::priced(&self.net, d as u32, from, task.source, costs[d].out_bytes);
                flat.dep.push(priced);
            }
        }
        flat.dep_start.push(flat.dep.len());
        for &(keep, gone) in &contraction.pairs {
            self.cand
                .contract_from(&self.cur, keep, gone, 0.0, &self.net);
            std::mem::swap(&mut self.cur, &mut self.cand);
        }
        contraction.nodes.clone()
    }

    /// `ℓevel` of every node of `graph`.
    pub fn levels(&mut self, graph: &CostGraph) -> &[f64] {
        self.load(graph);
        assert!(self.scratch.topo(&self.cur), "cost graphs are acyclic");
        self.scratch.levels(&self.cur);
        &self.scratch.level
    }

    /// `Schedule(graph)`.
    pub fn schedule(&mut self, graph: &CostGraph) -> Plan {
        self.levels(graph);
        self.scratch.schedule(&self.cur);
        self.plan()
    }

    /// The plan the last `Schedule` of the loaded graph ordered.
    fn plan(&self) -> Plan {
        let mut plan = Plan::default();
        for &id in &self.scratch.order {
            plan.per_source
                .entry(self.cur.source[id])
                .or_default()
                .push(id);
        }
        plan
    }

    /// `cost(Schedule(G))` of the loaded graph.
    pub(crate) fn cost(&mut self) -> Option<f64> {
        self.scratch.cost(&self.cur, f64::INFINITY)
    }

    /// `Schedule` of the loaded graph and each node's completion time under
    /// it: an `ℓevel` pass that simulates its plan, not a candidate's.
    pub(crate) fn plan_times(&mut self) -> (Plan, Vec<f64>) {
        assert!(self.scratch.topo(&self.cur), "cost graphs are acyclic");
        self.scratch.levels(&self.cur);
        self.scratch.simulate(&self.cur).expect("an acyclic plan");
        (self.plan(), std::mem::take(&mut self.scratch.done))
    }

    /// One greedy round's candidates into `pairs`: the mergeable same-source
    /// pairs `u < v` of the loaded graph whose contraction stays acyclic.
    pub(crate) fn candidates(&mut self, nodes: &[CostNode], pairs: &mut Vec<(usize, usize)>) {
        pairs.clear();
        if !self.scratch.topo(&self.cur) {
            return;
        }
        self.scratch.closure(&self.cur);
        for u in (0..nodes.len()).filter(|&u| nodes[u].mergeable) {
            for v in (u + 1..nodes.len()).filter(|&v| nodes[v].mergeable) {
                if nodes[u].source == nodes[v].source
                    && !self.scratch.detour(&self.cur, u, v)
                    && !self.scratch.detour(&self.cur, v, u)
                {
                    pairs.push((u, v));
                }
            }
        }
    }

    /// `cost(Schedule(mergePair(G, u, v)))` without touching the loaded `G`,
    /// if it can be below `bound`: `None` for a contraction that is cyclic
    /// or whose critical path already rules that out.
    pub(crate) fn candidate_cost(
        &mut self,
        (u, v): (usize, usize),
        overhead: f64,
        bound: f64,
    ) -> Option<f64> {
        self.cand
            .contract_from(&self.cur, u, v, overhead, &self.net);
        self.scratch.cost(&self.cand, bound)
    }

    /// Applies `mergePair(G, keep, gone)` to the loaded graph and to the
    /// `nodes` that go with it.
    pub(crate) fn contract(
        &mut self,
        nodes: &mut Vec<CostNode>,
        keep: usize,
        gone: usize,
        overhead: f64,
    ) {
        self.cand
            .contract_from(&self.cur, keep, gone, overhead, &self.net);
        std::mem::swap(&mut self.cur, &mut self.cand);
        let members = std::mem::take(&mut nodes[gone].members);
        nodes[keep].members.extend(members);
        nodes.swap_remove(gone);
    }
}

/// Task costs from the graph's compile-time estimates.
pub fn estimated_costs(graph: &TaskGraph) -> Vec<TaskCost> {
    graph
        .tasks
        .iter()
        .map(|t| TaskCost {
            eval_secs: t.est.eval_secs,
            out_bytes: t.est.out_bytes,
        })
        .collect()
}

/// Task costs from measured execution. Our embedded engine has no
/// per-statement connection/parse overhead of its own, so the cost model's
/// overhead (§5.1) is added to every source query; `eval_scale` calibrates
/// the in-process execution times to the paper's testbed (a 2003-era DB2
/// evaluates the same queries one to two orders of magnitude slower than an
/// embedded 2026 engine — only relative costs shape the plan).
pub fn measured_costs(
    graph: &TaskGraph,
    measured: &[Measured],
    per_query_overhead_secs: f64,
    eval_scale: f64,
) -> Vec<TaskCost> {
    graph
        .tasks
        .iter()
        .zip(measured)
        .map(|(task, m)| {
            let overhead = if task.source.is_mediator() {
                0.0
            } else {
                per_query_overhead_secs
            };
            TaskCost {
                eval_secs: m.secs * eval_scale + overhead,
                // The ship image (column-pruned under ship-cut, the full
                // relation otherwise) is what crosses the wire, so it is
                // what transfer and temp-load costs are charged on.
                out_bytes: m.ship_bytes,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::schedule;

    fn node(source: u32, eval: f64) -> CostNode {
        CostNode {
            source: SourceId(source),
            eval_secs: eval,
            mergeable: source != 0,
            passthrough: false,
            members: vec![],
        }
    }

    /// q0 (S1, 1s) -> q1 (S2, 2s) with 125 kB shipped at 1 Mbps.
    fn chain() -> CostGraph {
        CostGraph {
            nodes: vec![node(1, 1.0), node(2, 2.0)],
            deps: vec![vec![], vec![(0, 125_000.0)]],
        }
    }

    #[test]
    fn completion_times_hand_computed() {
        let g = chain();
        let mut net = NetworkModel::mbps(1.0);
        net.temp_load_secs_per_byte = 0.0;
        let plan = schedule(&g, &net);
        let done = completion_times(&g, &plan, &net);
        // q0 done at 1.0; transfer S1 -> S2 via the mediator: two hops of
        // (1 ms + 1 s); q1 done at 1 + 2.002 + 2 = 5.002.
        assert!((done[0] - 1.0).abs() < 1e-9);
        assert!((done[1] - 5.002).abs() < 1e-9);
        assert!((response_time(&g, &plan, &net) - 5.002).abs() < 1e-9);
    }

    #[test]
    fn temp_load_charged_at_source_consumers_only() {
        let mut g = chain();
        let mut net = NetworkModel::mbps(1.0);
        net.temp_load_secs_per_byte = 1e-5; // 1.25 s for 125 kB
        let plan = schedule(&g, &net);
        let with_load = response_time(&g, &plan, &net);
        assert!((with_load - 6.252).abs() < 1e-9);
        // Mediator consumers pay no temp load.
        g.nodes[1].source = SourceId::MEDIATOR;
        g.nodes[1].mergeable = false;
        let plan = schedule(&g, &net);
        let at_mediator = response_time(&g, &plan, &net);
        // One hop instead of two, no load: 1 + 1.001 + 2.
        assert!((at_mediator - 4.001).abs() < 1e-9, "{at_mediator}");
    }

    #[test]
    fn same_source_sequencing_serializes() {
        // Two independent 1 s queries at the same source take 2 s; at
        // different sources they run in parallel.
        let same = CostGraph {
            nodes: vec![node(1, 1.0), node(1, 1.0)],
            deps: vec![vec![], vec![]],
        };
        let net = NetworkModel::infinite();
        let plan = schedule(&same, &net);
        assert!((response_time(&same, &plan, &net) - 2.0).abs() < 1e-9);

        let split = CostGraph {
            nodes: vec![node(1, 1.0), node(2, 1.0)],
            deps: vec![vec![], vec![]],
        };
        let plan = schedule(&split, &net);
        assert!((response_time(&split, &plan, &net) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn contract_passthrough_removes_single_input_assembles() {
        // q0 (S1) -> assemble (mediator, passthrough) -> q1 (S1).
        let mut g = CostGraph {
            nodes: vec![node(1, 1.0), node(0, 0.1), node(1, 1.0)],
            deps: vec![vec![], vec![(0, 10.0)], vec![(1, 10.0)]],
        };
        g.nodes[1].passthrough = true;
        let contracted = g.contract_passthrough();
        assert_eq!(contracted.len(), 2);
        // The two queries are now directly dependent and thus mergeable:
        // exactly one node has a dependency, and it points at the other
        // same-source node.
        let q1 = contracted
            .deps
            .iter()
            .position(|d| !d.is_empty())
            .expect("one dependent node remains");
        let (producer, _) = contracted.deps[q1][0];
        assert_ne!(producer, q1);
        assert_eq!(contracted.nodes[producer].source, SourceId(1));
        assert_eq!(contracted.nodes[q1].source, SourceId(1));
        assert!(contracted.topo().is_some());
    }

    /// Edge prices travel with a contraction: whichever two nodes are
    /// contracted — same source or not, either one the last — the contracted
    /// graph costs what the same graph costs loaded (and priced) afresh.
    #[test]
    fn a_contracted_graph_is_priced_like_a_freshly_loaded_one() {
        // p (S2) -> a (S1) -> m (mediator) -> b (S1) -> c (S3), and p -> b.
        let g = CostGraph {
            nodes: vec![
                node(2, 1.0),
                node(1, 0.5),
                node(0, 0.1),
                node(1, 0.7),
                node(3, 2.0),
            ],
            deps: vec![
                vec![],
                vec![(0, 40_000.0)],
                vec![(1, 9_000.0)],
                vec![(2, 70_000.0), (0, 20_000.0)],
                vec![(3, 5_000.0)],
            ],
        };
        let net = NetworkModel::mbps(1.0);
        for (keep, gone) in [(1, 2), (2, 1), (3, 4), (4, 3), (0, 1), (2, 3)] {
            let mut ws = Workspace::new(&net);
            ws.load(&g);
            let mut nodes = g.nodes.clone();
            ws.contract(&mut nodes, keep, gone, 0.05);
            let contracted = ws.cost().expect("contracting neighbours keeps it acyclic");
            let mut fresh = Workspace::new(&net);
            fresh.load(&ws.cur.to_graph(nodes));
            assert_eq!(
                contracted.to_bits(),
                fresh.cost().unwrap().to_bits(),
                "keep {keep}, gone {gone}"
            );
        }
    }

    /// The evaluator's promise to `Merge`: once the first contraction has
    /// sized both graph copies, trying candidates and applying merges, round
    /// after round, makes no buffer grow — nothing is allocated per pair.
    #[test]
    fn evaluator_buffers_stop_growing_after_the_first_merge() {
        // One S2 query feeds eleven S1 queries, which feed one mediator
        // node: every S1 pair is a candidate in every round.
        let mut g = CostGraph {
            nodes: vec![node(2, 1.0)],
            deps: vec![vec![]],
        };
        for q in 1..12 {
            g.nodes.push(node(1, 0.1 * q as f64));
            g.deps.push(vec![(0, 1_000.0 * q as f64)]);
        }
        g.nodes.push(node(0, 0.1));
        g.deps.push((1..12).map(|q| (q, 500.0)).collect());
        let capacity = |ws: &Workspace| {
            let flat = |f: &Flat| {
                f.source.capacity() + f.eval.capacity() + f.dep_start.capacity() + f.dep.capacity()
            };
            let s = &ws.scratch;
            let kahn = s.succ_start.capacity() + s.succ.capacity() + s.wait.capacity();
            let order = s.stack.capacity() + s.topo.capacity() + s.topo_pos.capacity();
            let plan =
                s.level.capacity() + s.keys.capacity() + s.order.capacity() + s.prev.capacity();
            let rest =
                s.next.capacity() + s.done.capacity() + s.desc.capacity() + s.last_at.capacity();
            flat(&ws.cur) + flat(&ws.cand) + kahn + order + plan + rest
        };
        let net = NetworkModel::mbps(1.0);
        let (mut ws, mut nodes, mut pairs) = (Workspace::new(&net), g.nodes.clone(), Vec::new());
        ws.load(&g);
        let mut sized = None;
        for round in 0..10 {
            ws.candidates(&nodes, &mut pairs);
            assert_eq!(pairs.len(), (11 - round) * (10 - round) / 2);
            for &pair in &pairs {
                assert!(ws.candidate_cost(pair, 0.05, f64::INFINITY).is_some());
                assert_eq!(capacity(&ws), *sized.get_or_insert(capacity(&ws)));
            }
            ws.contract(&mut nodes, pairs[0].0, pairs[0].1, 0.05);
        }
        assert_eq!(nodes.len(), 3);
    }

    /// The task graphs of σ0 at depths 3, 6, 12 and 24 and of a choice spec.
    fn task_graphs() -> Vec<(String, TaskGraph)> {
        use crate::graph::{build_graph, GraphOptions};
        use crate::unfold::{unfold, CutOff};
        let specialize = |aig: &aig_core::spec::Aig| {
            let compiled = match aig.constraints.is_empty() {
                true => aig.clone(),
                false => aig_core::compile_constraints(aig).unwrap(),
            };
            aig_core::decompose_queries(&compiled).unwrap().0
        };
        let build = |aig: &aig_core::spec::Aig, catalog, depth| {
            let unfolded = unfold(&specialize(aig), depth, CutOff::Truncate).unwrap();
            build_graph(&unfolded.aig, catalog, &GraphOptions::default()).unwrap()
        };
        let sigma0 = aig_core::paper::sigma0().unwrap();
        let catalog = aig_core::paper::mini_hospital_catalog().unwrap();
        let mut graphs: Vec<(String, TaskGraph)> = [3, 6, 12, 24]
            .into_iter()
            .map(|depth| {
                (
                    format!("σ0 at depth {depth}"),
                    build(&sigma0, &catalog, depth),
                )
            })
            .collect();
        let (orders, catalog) = crate::exec::bound_queries::orders();
        graphs.push(("orders".to_string(), build(&orders, &catalog, 2)));
        graphs
    }

    /// A contraction recorded once and replayed over any costs is the cost
    /// graph built from them and contracted: the same nodes and members, the
    /// same dependencies and bytes to the bit, and every edge priced as
    /// loading that graph prices it.
    #[test]
    fn a_replayed_contraction_is_the_contracted_cost_graph() {
        use aig_prng::{Rng, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(0x5EED_0006);
        let nets = [NetworkModel::mbps(1.0), NetworkModel::infinite()];
        for (what, graph) in task_graphs() {
            let contraction = Contraction::record(&graph);
            assert!(!contraction.pairs.is_empty(), "{what}: nothing contracted");
            for round in 0..4 {
                // Zero costs, and seeded ones with ties and zero sizes.
                let costs: Vec<TaskCost> = (0..graph.len())
                    .map(|_| match round {
                        0 => TaskCost::default(),
                        _ => TaskCost {
                            eval_secs: [0.0, 0.5, rng.gen_range(0.0f64..2.0)][rng.gen_range(0..3)],
                            out_bytes: [0.0, 1e3, rng.gen_range(0.0f64..1e6)][rng.gen_range(0..3)],
                        },
                    })
                    .collect();
                let want = CostGraph::from_task_graph(&graph, &costs).contract_passthrough();
                for net in &nets {
                    let mut ws = Workspace::new(net);
                    let nodes = ws.replay(&graph, &costs, &contraction);
                    let got = ws.cur.to_graph(nodes);
                    assert_eq!(got.len(), want.len(), "{what}");
                    for (a, b) in got.nodes.iter().zip(&want.nodes) {
                        assert_eq!(
                            (a.source, a.mergeable, a.passthrough, &a.members),
                            (b.source, b.mergeable, b.passthrough, &b.members),
                            "{what}"
                        );
                        assert_eq!(a.eval_secs.to_bits(), b.eval_secs.to_bits(), "{what}");
                    }
                    let bits = |g: &CostGraph| -> Vec<Vec<(usize, u64)>> {
                        let deps = g.deps.iter();
                        deps.map(|d| d.iter().map(|&(p, b)| (p, b.to_bits())).collect())
                            .collect()
                    };
                    assert_eq!(bits(&got), bits(&want), "{what}");
                    let mut fresh = Workspace::new(net);
                    fresh.load(&want);
                    let price = |f: &Flat| -> Vec<(u32, u64, u64)> {
                        let edges = f.dep.iter();
                        edges
                            .map(|e| (e.node, e.trans_secs.to_bits(), e.load_secs.to_bits()))
                            .collect()
                    };
                    assert_eq!(price(&ws.cur), price(&fresh.cur), "{what}");
                    assert_eq!(ws.cur.dep_start, fresh.cur.dep_start, "{what}");
                    assert_eq!(ws.cost().map(f64::to_bits), fresh.cost().map(f64::to_bits));
                }
            }
        }
    }

    #[test]
    fn inconsistent_plan_detected() {
        let g = chain();
        let mut plan = Plan::default();
        // Same-source consumer before producer.
        plan.per_source.insert(SourceId(1), vec![0]);
        plan.per_source.insert(SourceId(2), vec![1]);
        assert!(plan.consistent_with(&g));
        let bad = CostGraph {
            nodes: vec![node(1, 1.0), node(1, 1.0)],
            deps: vec![vec![], vec![(0, 1.0)]],
        };
        let mut plan = Plan::default();
        plan.per_source.insert(SourceId(1), vec![1, 0]);
        assert!(!plan.consistent_with(&bad));
    }
}
