//! The one walk of the task graph (paper §5.1, execution phase).
//!
//! "At each source, the unprocessed query that is lowest in the plan's
//! ordering is selected for execution as soon as its inputs are available" —
//! the sources run concurrently, coordinated by the mediator. Every
//! execution is that rule: `walk` runs rounds of workers over one
//! write-once slot per task — the [`RelStore`] the run returns — and a
//! worker blocks until the inputs of its next task, read by their producers'
//! ids, are complete. Given per-source sequences it starts one worker thread
//! per source; without them one worker on the calling thread walks the
//! topological order — the sequential executor — and no thread is spawned.
//! A refresh ([`crate::delta`]) is the same walk with every task outside its
//! re-run mask complete from the start, the snapshot's slot `i` its slot
//! `i`, so it runs and reports under whichever dispatcher the policy selects.
//!
//! The per-source run produces exactly the relations of the one-worker run
//! (see the equivalence tests); response-time *accounting* stays with the
//! simulation in [`crate::cost`], which models the paper's network.
//!
//! This module owns how a graph is walked — the slots' completion state,
//! the ready-queue scheduler state, the round loop and the failover
//! between rounds. Running and measuring a task
//! (`Executor::run_measured`) and where a dead source's tasks go
//! (`Failover`) live in [`crate::exec`].

use crate::batch::{BatchLog, ShipLedger};
use crate::cost::{estimated_costs, CostGraph};
use crate::error::MediatorError;
use crate::exec::{
    ExecOptions, ExecResult, Executor, Failover, Measured, RelStore, SchedLog, Scheduling, TaskPick,
};
use crate::faults::{FaultEvent, FaultLog};
use crate::graph::TaskGraph;
use crate::schedule::replan_surviving;
use aig_core::spec::Aig;
use aig_relstore::{Catalog, Relation, SourceId, Value};
use std::collections::HashMap;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// The run's write-once relation slots, shared between the workers of a
/// round, and what they have completed.
struct SharedStore<'g> {
    graph: &'g TaskGraph,
    store: RelStore,
    /// Completion flags (also covers tasks with no output, e.g. guards) and
    /// the first error, guarded by one mutex + condvar.
    state: Mutex<Progress>,
    wake: Condvar,
    /// Whether a worker can be blocked on `wake`. The one-worker round never
    /// blocks — it walks a topological order — so it skips the wake-up, a
    /// futex call per completed task.
    threaded: bool,
}

#[derive(Default)]
struct Progress {
    done: Vec<bool>,
    failed: Option<MediatorError>,
    /// A worker reached a task whose source is dead: the round aborts so
    /// the coordinator can fail over and re-plan the surviving subgraph.
    halted: Option<SourceId>,
    /// Per-task timing/size accounting, filled on completion.
    measured: Vec<Measured>,
    /// Fault events appended as tasks complete (any order; the report
    /// canonicalizes).
    events: Vec<FaultEvent>,
    /// Live ready-queue state of the current round (None unless the round
    /// is per-source and dynamic); rebuilt — re-primed — at every failover
    /// round from the completed tasks.
    dyn_sched: Option<DynSched>,
    /// Dynamic pick log; persists across failover rounds.
    picks: Vec<TaskPick>,
    /// Picks logged per source so far — the next pick's `actual_pos`.
    picked_at: HashMap<SourceId, usize>,
}

/// Runtime state of the dynamic (ready-queue) scheduler: the live
/// counterpart of the event simulation in
/// [`crate::schedule::dynamic_response_time`]. A worker going idle picks the
/// highest-priority *ready* task at its source. What makes it dynamic is the
/// work-conserving queue — a source never idles behind a planned task whose
/// inputs are late — not the priorities: those are `ℓevel` over the
/// compile-time estimates, computed **once per round**.
///
/// Patching the measured actuals of finished tasks into the graph (as this
/// scheduler once did, re-running `levels` at every pick) cannot move a
/// pick. `ℓevel(t) = eval(t) + max_s(ℓevel(s) + trans(t → s))` reads only
/// `t`, its out-edges and its descendants; a completion changes the
/// evaluation time and out-edge sizes of a *finished* task; and every task
/// still in a ready queue has only unfinished descendants. Its level is
/// therefore bit-identical to the round's first evaluation, whatever has
/// finished since. Priorities that adapt would have to rescale the estimates
/// of *unfinished* tasks from the errors observed so far, which is a
/// different algorithm.
struct DynSched {
    /// Consumer tasks per producer, one entry per dependency edge.
    consumers: Vec<Vec<usize>>,
    /// Open (not-done) dependency edges per task; a task is ready at 0.
    waiting: Vec<usize>,
    /// Ready, not-yet-picked tasks per effective source.
    ready: HashMap<SourceId, Vec<usize>>,
    /// Not-yet-completed task counts per effective source; a worker drains
    /// when its source reaches 0.
    remaining: HashMap<SourceId, usize>,
    /// Effective source per task in this round (fixed between failovers).
    effective: Vec<SourceId>,
    /// Position each task holds in the baseline static plan at its source
    /// (the "planned position" of the deviation log).
    planned_pos: Vec<usize>,
    /// Position of each task in `graph.topo`: breaks priority ties.
    topo_pos: Vec<usize>,
    /// `ℓevel` of every task over the estimate graph.
    priority: Vec<f64>,
}

impl SharedStore<'_> {
    /// Blocks until every dependency of `task` has completed, returning the
    /// seconds spent blocked (exactly 0.0 when the inputs were already
    /// there), or None when a worker failed or hit a dead source.
    fn wait_for_deps(&self, task: usize) -> Option<f64> {
        let deps = &self.graph.tasks[task].deps;
        let mut state = self.state.lock().expect("store mutex");
        let mut blocked: Option<Instant> = None;
        loop {
            if state.failed.is_some() || state.halted.is_some() {
                return None;
            }
            if deps.iter().all(|(d, _)| state.done[*d]) {
                return Some(blocked.map_or(0.0, |t| t.elapsed().as_secs_f64()));
            }
            blocked.get_or_insert_with(Instant::now);
            state = self.wake.wait(state).expect("store mutex");
        }
    }

    fn is_done(&self, task: usize) -> bool {
        self.state.lock().expect("store mutex").done[task]
    }

    fn wake_all(&self) {
        if self.threaded {
            self.wake.notify_all();
        }
    }

    /// Marks the round aborted because `source` is dead.
    fn halt(&self, source: SourceId) {
        let mut state = self.state.lock().expect("store mutex");
        if state.halted.is_none() {
            state.halted = Some(source);
        }
        drop(state);
        self.wake_all();
    }

    /// Dynamic scheduling: blocks until a task at `source` is ready (picking
    /// the highest-priority one, logging the pick, and returning it with
    /// the seconds spent blocked), the source has no tasks left (drained),
    /// the source is dead (halts the round), or the round aborts. Returns
    /// None in all but the first case.
    fn pick_next(&self, source: SourceId, failover: &Failover<'_>) -> Option<(usize, f64)> {
        let mut state = self.state.lock().expect("store mutex");
        let mut blocked: Option<Instant> = None;
        loop {
            if state.failed.is_some() || state.halted.is_some() {
                return None;
            }
            if state
                .dyn_sched
                .as_ref()
                .expect("dynamic round state")
                .remaining
                .get(&source)
                .copied()
                .unwrap_or(0)
                == 0
            {
                return None; // this source's work is complete
            }
            // The source still owns tasks: a hard-down or mid-run-dead
            // source halts the round so the coordinator can fail over.
            if failover.is_dead(source) {
                state.halted = Some(source);
                drop(state);
                self.wake_all();
                return None;
            }
            let sched = state.dyn_sched.as_mut().expect("dynamic round state");
            let queue_has_work = sched.ready.get(&source).is_some_and(|q| !q.is_empty());
            if queue_has_work {
                let queue = sched.ready.get_mut(&source).expect("checked non-empty");
                let best_at = (0..queue.len())
                    .max_by(|&a, &b| {
                        let (ta, tb) = (queue[a], queue[b]);
                        sched.priority[ta]
                            .total_cmp(&sched.priority[tb])
                            .then(sched.topo_pos[tb].cmp(&sched.topo_pos[ta]))
                    })
                    .expect("non-empty queue");
                let task = queue.remove(best_at);
                let (priority, planned_pos) = (sched.priority[task], sched.planned_pos[task]);
                let picked = state.picked_at.entry(source).or_insert(0);
                let actual_pos = *picked;
                *picked += 1;
                state.picks.push(TaskPick {
                    task,
                    source,
                    planned_pos,
                    actual_pos,
                    priority,
                });
                return Some((task, blocked.map_or(0.0, |t| t.elapsed().as_secs_f64())));
            }
            blocked.get_or_insert_with(Instant::now);
            state = self.wake.wait(state).expect("store mutex");
        }
    }

    fn complete(
        &self,
        task: usize,
        source: SourceId,
        result: Result<Option<Relation>, MediatorError>,
        measured: Measured,
        events: Vec<FaultEvent>,
    ) {
        let mut state = self.state.lock().expect("store mutex");
        state.events.extend(events);
        match result {
            Ok(rel) => {
                if let Some(rel) = rel {
                    let _ = self.store.slots[task].set(rel);
                }
                state.done[task] = true;
                state.measured[task] = measured;
                if let Some(sched) = state.dyn_sched.as_mut() {
                    // Release the consumers this completion unblocks.
                    for &consumer in &sched.consumers[task] {
                        sched.waiting[consumer] -= 1;
                        if sched.waiting[consumer] == 0 {
                            let home = sched.effective[consumer];
                            sched.ready.entry(home).or_default().push(consumer);
                        }
                    }
                    if let Some(left) = sched.remaining.get_mut(&source) {
                        *left = left.saturating_sub(1);
                    }
                }
            }
            Err(e) => {
                if state.failed.is_none() {
                    state.failed = Some(e);
                }
            }
        }
        drop(state);
        self.wake_all();
    }
}

/// Executes the task graph with one worker per source, following the given
/// per-source orders (see [`crate::schedule::schedule`]; pass a plan over
/// the *uncontracted* graph so node ids are task ids). The relations are
/// the sequential executor's; the measurements add the time each task was
/// blocked on its inputs. Dead sources fail over as in a sequential run.
pub fn execute_graph_parallel(
    aig: &Aig,
    catalog: &Catalog,
    graph: &TaskGraph,
    args: &[(&str, Value)],
    opts: &ExecOptions,
    per_source: &HashMap<SourceId, Vec<usize>>,
) -> Result<ExecResult, MediatorError> {
    walk(aig, catalog, graph, args, opts, Some(per_source), None)
}

/// The one walk every execution takes. With `per_source: None` one worker
/// on the calling thread walks `graph.topo` — the sequential run; with
/// `Some` one worker per source follows its sequence, or draws from its
/// source's ready queue under [`Scheduling::Dynamic`].
///
/// With `reuse = Some((store, measured, rerun))` only the tasks with
/// `rerun[id]` run — the incremental path ([`crate::delta`]); every other
/// task starts complete with its cached slot and measurements, and the
/// ship ledger sees only the re-shipped outputs. Mid-run outage plans
/// (`dies_after`, which count completions over the whole graph) must take
/// the unmasked walk.
///
/// A worker that reaches a task at a dead source halts the round: the
/// workers drain, the source's pending tasks are re-homed to its declared
/// replica ([`Failover`]), per-source sequences are re-planned over the
/// surviving subgraph ([`replan_surviving`]), and the next round continues
/// from the completed slots. With no usable replica the run fails with
/// [`MediatorError::SourceUnavailable`].
pub(crate) fn walk(
    aig: &Aig,
    catalog: &Catalog,
    graph: &TaskGraph,
    args: &[(&str, Value)],
    opts: &ExecOptions,
    per_source: Option<&HashMap<SourceId, Vec<usize>>>,
    reuse: Option<(&RelStore, &[Measured], &[bool])>,
) -> Result<ExecResult, MediatorError> {
    debug_assert!(
        reuse.is_none()
            || !opts
                .faults
                .as_ref()
                .is_some_and(|p| p.has_mid_run_outages()),
        "mid-run outage plans must take the full-run path"
    );
    let n = graph.tasks.len();
    let mut store = RelStore::new(graph);
    let mut progress = Progress {
        done: vec![false; n],
        measured: vec![Measured::default(); n],
        ..Progress::default()
    };
    if let Some((snapshot, measured, rerun)) = reuse {
        for id in (0..n).filter(|&id| !rerun[id]) {
            store.slots[id] = snapshot.slots[id].clone();
            progress.done[id] = true;
            progress.measured[id] = measured[id];
        }
    }
    let shared = SharedStore {
        graph,
        store,
        state: Mutex::new(progress),
        wake: Condvar::new(),
        threaded: per_source.is_some(),
    };
    let dynamic = per_source.is_some() && opts.policy.scheduling == Scheduling::Dynamic;
    let epoch = Instant::now();
    let ship = ShipLedger::default();
    let mut failover = Failover::new(catalog, graph, opts.faults.as_ref());
    let mut plan = per_source.cloned();

    // Each round redirects at least one dead source, and a redirected
    // source cannot halt again, so the loop is bounded by the source count.
    for _ in 0..catalog.len() + 1 {
        if let Some(plan) = plan.as_ref().filter(|_| dynamic) {
            prime_dynamic(&shared, plan, &failover.effective, opts);
        }
        let exec = Executor {
            aig,
            catalog: failover.catalog(),
            graph,
            store: &shared.store,
            opts,
            args,
            epoch,
            ship: &ship,
        };
        run_round(&exec, &shared, &failover, plan.as_ref(), dynamic);

        let halted = {
            let mut state = shared.state.lock().expect("store mutex");
            if let Some(e) = state.failed.take() {
                return Err(e);
            }
            state.halted.take()
        };
        let Some(down) = halted else {
            // Clean finish: the slots are the run's store.
            let state = shared.state.into_inner().expect("store mutex");
            return Ok(ExecResult {
                store: shared.store,
                measured: state.measured,
                faults: FaultLog {
                    events: state.events,
                    replans: failover.replans,
                },
                sched: SchedLog {
                    dynamic,
                    picks: state.picks,
                },
                batch: BatchLog::from_ledger(opts, &ship),
            });
        };

        // Fail over the dead source; per-source rounds also re-plan the
        // surviving subgraph (the one worker keeps the topological order).
        let done = shared.state.lock().expect("store mutex").done.clone();
        let pending: Vec<usize> = graph.topo.iter().copied().filter(|&t| !done[t]).collect();
        failover.fail_over(down, &pending)?;
        if let Some(plan) = plan.as_mut() {
            *plan = replan_surviving(graph, &done, &failover.effective, &opts.policy.network);
        }
    }
    Err(MediatorError::Internal(
        "failover rounds exceeded the source count".to_string(),
    ))
}

/// Builds (or rebuilds, after a failover) the dynamic scheduler's round
/// state: the round's priorities, dependency counts over the surviving
/// tasks, and the initial ready queues per effective source.
fn prime_dynamic(
    shared: &SharedStore<'_>,
    plan: &HashMap<SourceId, Vec<usize>>,
    effective: &[SourceId],
    opts: &ExecOptions,
) {
    let graph = shared.graph;
    let n = graph.tasks.len();
    let estimates = CostGraph::from_task_graph(graph, &estimated_costs(graph));
    let priority = crate::schedule::levels(&estimates, &opts.policy.network);
    let mut planned_pos = vec![0usize; n];
    for seq in plan.values() {
        for (pos, &id) in seq.iter().enumerate() {
            planned_pos[id] = pos;
        }
    }
    let mut topo_pos = vec![0usize; n];
    for (pos, &id) in graph.topo.iter().enumerate() {
        topo_pos[id] = pos;
    }
    let mut state = shared.state.lock().expect("store mutex");
    let mut waiting = vec![0usize; n];
    let mut ready: HashMap<SourceId, Vec<usize>> = HashMap::new();
    let mut remaining: HashMap<SourceId, usize> = HashMap::new();
    for &task in &graph.topo {
        if state.done[task] {
            continue;
        }
        let deps = graph.tasks[task].deps.iter();
        waiting[task] = deps.filter(|(d, _)| !state.done[*d]).count();
        if waiting[task] == 0 {
            ready.entry(effective[task]).or_default().push(task);
        }
        *remaining.entry(effective[task]).or_insert(0) += 1;
    }
    state.dyn_sched = Some(DynSched {
        consumers: graph.successors(),
        waiting,
        ready,
        remaining,
        effective: effective.to_vec(),
        planned_pos,
        topo_pos,
        priority,
    });
}

/// One round of workers, skipping already-completed tasks. Returns when
/// every worker has drained (finished its work, or stopped on a failure or
/// a halt). Without a plan the one worker walks `graph.topo` on the calling
/// thread; with one, each source gets a worker thread. In a `dynamic` round
/// the planned sequences only seed the deviation log's planned positions.
fn run_round(
    exec: &Executor<'_, RelStore>,
    shared: &SharedStore<'_>,
    failover: &Failover<'_>,
    plan: Option<&HashMap<SourceId, Vec<usize>>>,
    dynamic: bool,
) {
    let Some(plan) = plan else {
        return work(exec, shared, failover, &exec.graph.topo, None);
    };
    std::thread::scope(|scope| {
        for (&source, sequence) in plan {
            std::thread::Builder::new()
                .name(format!("aig-source-{}", source.0))
                .spawn_scoped(scope, move || {
                    work(exec, shared, failover, sequence, dynamic.then_some(source))
                })
                .expect("spawn source worker");
        }
    });
}

/// One worker: walks `sequence`, or — given the source it serves in a
/// dynamic round — draws from that source's ready queue, running each task
/// once its inputs are complete. A failed task ends the round: the next
/// wait sees it and returns.
fn work(
    exec: &Executor<'_, RelStore>,
    shared: &SharedStore<'_>,
    failover: &Failover<'_>,
    sequence: &[usize],
    dynamic: Option<SourceId>,
) {
    // Runs one task (its dependencies are complete, so the EDF slot it
    // takes per attempt can never deadlock) and records its measurements.
    let run_one = |task_id: usize, wait_secs: f64| {
        let at = failover.effective[task_id];
        let mut events = Vec::new();
        let (result, measured) = exec.run_measured(task_id, at, wait_secs, &mut events);
        if result.is_ok() {
            failover.task_done(at);
        }
        shared.complete(task_id, at, result, measured, events);
    };
    match dynamic {
        Some(source) => {
            while let Some((task_id, wait_secs)) = shared.pick_next(source, failover) {
                run_one(task_id, wait_secs);
            }
        }
        None => {
            for &task_id in sequence {
                if shared.is_done(task_id) {
                    continue;
                }
                // A dead source aborts the round *before* blocking on
                // dependencies, so no worker waits on output that will
                // never come.
                let at = failover.effective[task_id];
                if failover.is_dead(at) {
                    return shared.halt(at);
                }
                let Some(wait_secs) = shared.wait_for_deps(task_id) else {
                    return; // a worker failed or halted
                };
                run_one(task_id, wait_secs);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute_graph;
    use crate::graph::{build_graph, GraphOptions};
    use crate::plan::topo_per_source;
    use crate::unfold::{unfold, CutOff};
    use aig_core::paper::{mini_hospital_catalog, sigma0};
    use aig_core::{compile_constraints, decompose_queries, AigError};

    fn setup() -> (Aig, Catalog, TaskGraph) {
        let aig = sigma0().unwrap();
        let compiled = compile_constraints(&aig).unwrap();
        let (specialized, _) = decompose_queries(&compiled).unwrap();
        let unfolded = unfold(&specialized, 4, CutOff::Truncate).unwrap();
        let catalog = mini_hospital_catalog().unwrap();
        let graph = build_graph(&unfolded.aig, &catalog, &GraphOptions::default()).unwrap();
        (unfolded.aig, catalog, graph)
    }

    #[test]
    fn parallel_execution_matches_sequential() {
        let (aig, catalog, graph) = setup();
        let args = [("date", Value::str("d1"))];
        let opts = ExecOptions::default();
        let sequential = execute_graph(&aig, &catalog, &graph, &args, &opts).unwrap();
        let plan = topo_per_source(&graph);
        let parallel = execute_graph_parallel(&aig, &catalog, &graph, &args, &opts, &plan).unwrap();
        for task in &graph.tasks {
            if let Some(key) = &task.output {
                assert_eq!(
                    sequential.store.get(key).unwrap(),
                    parallel.store.get(key).unwrap(),
                    "{}",
                    task.label
                );
            }
        }
        // Measurements line up with the sequential executor on sizes.
        for (id, (s, p)) in sequential
            .measured
            .iter()
            .zip(&parallel.measured)
            .enumerate()
        {
            assert_eq!(s.out_rows, p.out_rows, "task {id} rows");
            assert_eq!(s.out_bytes, p.out_bytes, "task {id} bytes");
            assert_eq!(s.in_rows, p.in_rows, "task {id} input rows");
            assert!(p.wait_secs >= 0.0 && p.secs >= 0.0);
        }
    }

    #[test]
    fn dynamic_scheduling_matches_sequential_results() {
        let (aig, catalog, graph) = setup();
        let args = [("date", Value::str("d1"))];
        let sequential =
            execute_graph(&aig, &catalog, &graph, &args, &ExecOptions::default()).unwrap();
        let mut opts = ExecOptions::default();
        opts.policy.scheduling = Scheduling::Dynamic;
        let plan = topo_per_source(&graph);
        let dynamic = execute_graph_parallel(&aig, &catalog, &graph, &args, &opts, &plan).unwrap();
        for task in &graph.tasks {
            if let Some(key) = &task.output {
                assert_eq!(
                    sequential.store.get(key).unwrap(),
                    dynamic.store.get(key).unwrap(),
                    "{}",
                    task.label
                );
            }
        }
        assert!(dynamic.sched.dynamic);
        // Every task goes through the ready queue exactly once.
        assert_eq!(dynamic.sched.picks.len(), graph.tasks.len());
        let mut picked = vec![false; graph.tasks.len()];
        for pick in &dynamic.sched.picks {
            assert!(!picked[pick.task], "task {} picked twice", pick.task);
            picked[pick.task] = true;
        }
    }

    #[test]
    fn dynamic_scheduling_is_immune_to_adversarial_plan_order() {
        // Reverse every per-source sequence — an order the static walk could
        // never execute (same-source consumers before their producers). The
        // dynamic scheduler only reads the sequences to seed the deviation
        // log's planned positions, so the run still completes, still matches
        // the sequential executor, and the log shows the disagreement.
        let (aig, catalog, graph) = setup();
        let args = [("date", Value::str("d1"))];
        let sequential =
            execute_graph(&aig, &catalog, &graph, &args, &ExecOptions::default()).unwrap();
        let mut plan = topo_per_source(&graph);
        for seq in plan.values_mut() {
            seq.reverse();
        }
        let mut opts = ExecOptions::default();
        opts.policy.scheduling = Scheduling::Dynamic;
        let dynamic = execute_graph_parallel(&aig, &catalog, &graph, &args, &opts, &plan).unwrap();
        for task in &graph.tasks {
            if let Some(key) = &task.output {
                assert_eq!(
                    sequential.store.get(key).unwrap(),
                    dynamic.store.get(key).unwrap(),
                    "{}",
                    task.label
                );
            }
        }
        assert!(
            !dynamic.sched.deviations().is_empty(),
            "a reversed plan must surface deviations"
        );
    }

    #[test]
    fn parallel_execution_propagates_guard_violations() {
        let (aig, _catalog, _) = setup();
        // Corrupt the billing table (duplicate trId) so the key guard fires.
        let mut catalog = mini_hospital_catalog().unwrap();
        let dst = catalog.source_id("DB3").unwrap();
        *catalog.source_mut(dst) = aig_relstore::Database::new("DB3");
        let mut billing = aig_relstore::Table::new(aig_relstore::TableSchema::strings(
            "billing",
            &["trId", "price"],
            &[],
        ));
        for (t, p) in [
            ("t1", "1"),
            ("t1", "2"),
            ("t2", "3"),
            ("t3", "4"),
            ("t4", "5"),
            ("t5", "6"),
        ] {
            billing.insert(vec![Value::str(t), Value::str(p)]).unwrap();
        }
        catalog.source_mut(dst).add_table(billing).unwrap();
        let graph = build_graph(&aig, &catalog, &GraphOptions::default()).unwrap();
        let plan = topo_per_source(&graph);
        let err = execute_graph_parallel(
            &aig,
            &catalog,
            &graph,
            &[("date", Value::str("d1"))],
            &ExecOptions::default(),
            &plan,
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                MediatorError::Aig(AigError::ConstraintViolation { .. })
            ),
            "{err}"
        );
    }
}
