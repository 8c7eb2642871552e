//! The one walk of the task graph (paper §5.1, execution phase).
//!
//! "At each source, the unprocessed query that is lowest in the plan's
//! ordering is selected for execution as soon as its inputs are available" —
//! the sources run concurrently, coordinated by the mediator. Every
//! execution is that rule, and one dispatcher implements it: `walk` runs
//! rounds of workers over one write-once slot per task — the [`RelStore`]
//! the run returns — and each worker takes the best ready task of its
//! queue, runs it and completes it. A task is ready once its inputs are
//! complete. The plan's ordering is `Schedule`'s (§5.3, Fig. 8): a
//! per-source walk runs one worker thread per source, and each takes its
//! highest-`ℓevel` ready task — list scheduling, in every round of the walk,
//! failover rounds included. The one-worker walk on the calling thread is
//! the same dispatcher with every priority equal: it takes the lowest ready
//! task in topological order, which is always the next pending one — the
//! sequential executor — and never blocks. A refresh ([`crate::delta`]) is
//! the same walk with every task outside its re-run mask complete from the
//! start, the snapshot's slot `i` its slot `i`, so it runs and reports under
//! whichever dispatcher the policy selects.
//!
//! The per-source run produces exactly the relations of the one-worker run
//! (see the equivalence tests); response-time *accounting* stays with the
//! simulation in [`crate::cost`], which models the paper's network.
//!
//! This module owns how a graph is walked — the slots' completion state,
//! the ready queues, the round loop and the failover between rounds — and
//! what a walk reads that the graph fixes ([`DispatchCell`]). Running and
//! measuring a task (`Executor::run_measured`) and where a dead source's
//! tasks go (`Failover`) live in [`crate::exec`].

use crate::batch::BatchLog;
use crate::cost::{estimated_costs, CostGraph};
use crate::error::MediatorError;
use crate::exec::{
    ExecOptions, ExecResult, Executor, Failover, Measured, Ran, RelStore, SchedLog, TaskPick,
};
use crate::faults::{FaultEvent, FaultLog};
use crate::graph::{Task, TaskGraph};
use aig_core::spec::Aig;
use aig_relstore::{Catalog, SourceId, Value};
use std::collections::HashMap;
use std::sync::{Condvar, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// What every walk of one task graph reads that the graph fixes, built on
/// its first walk (or re-run mask) and shared by every later one.
#[derive(Debug, Default)]
pub struct DispatchCell(OnceLock<Dispatch>);

#[derive(Debug)]
struct Dispatch {
    /// The consumers of task `i` are `consumers[starts[i]..starts[i + 1]]`,
    /// one per dependency edge, in task order.
    starts: Vec<usize>,
    consumers: Vec<usize>,
    /// Position of each task in `graph.topo`: ranks a worker's ready tasks.
    topo_pos: Vec<usize>,
    /// The compile-time estimate graph a per-source walk's priorities are
    /// `ℓevel`s over, built on the first per-source walk.
    estimates: OnceLock<CostGraph>,
}

impl TaskGraph {
    fn dispatch(&self) -> &Dispatch {
        self.dispatch.0.get_or_init(|| {
            let n = self.tasks.len();
            let mut starts = vec![0; n + 1];
            for &(dep, _) in self.tasks.iter().flat_map(|task| &task.deps) {
                starts[dep + 1] += 1;
            }
            for i in 0..n {
                starts[i + 1] += starts[i];
            }
            let mut fill = starts.clone();
            let mut consumers = vec![0; starts[n]];
            for (id, task) in self.tasks.iter().enumerate() {
                for &(dep, _) in &task.deps {
                    consumers[fill[dep]] = id;
                    fill[dep] += 1;
                }
            }
            let mut topo_pos = vec![0; n];
            for (pos, &id) in self.topo.iter().enumerate() {
                topo_pos[id] = pos;
            }
            Dispatch {
                starts,
                consumers,
                topo_pos,
                estimates: OnceLock::new(),
            }
        })
    }

    /// The tasks that read `task`'s output, one per dependency edge.
    pub(crate) fn consumers(&self, task: usize) -> &[usize] {
        let dispatch = self.dispatch();
        &dispatch.consumers[dispatch.starts[task]..dispatch.starts[task + 1]]
    }

    /// Refuses a graph whose deps or topological order no longer match
    /// what its dispatch cell indexed on the first walk (the fields are
    /// public), or whose order puts a consumer before its producer: a walk
    /// of it would wait forever for a release that never comes.
    fn check_dispatch(&self) -> Result<(), MediatorError> {
        let dispatch = self.dispatch();
        let (starts, pos) = (&dispatch.starts, &dispatch.topo_pos);
        let n = self.tasks.len();
        let edges: usize = self.tasks.iter().map(|task| task.deps.len()).sum();
        let ordered = |(id, task): (usize, &Task)| {
            let indexed = |dep: usize| self.consumers(dep).binary_search(&id).is_ok();
            (task.deps.iter()).all(|&(dep, _)| dep < n && pos[dep] < pos[id] && indexed(dep))
        };
        let same = (self.topo.len(), starts.len(), starts[starts.len() - 1]) == (n, n + 1, edges)
            && (self.topo.iter().enumerate()).all(|(at, &id)| pos.get(id) == Some(&at))
            && self.tasks.iter().enumerate().all(ordered);
        same.then_some(()).ok_or_else(|| {
            let why = "the task graph changed after its first walk, or orders a consumer first";
            MediatorError::Internal(why.to_string())
        })
    }
}

/// The run's write-once relation slots, shared between the workers of a
/// round, and what they have completed.
struct SharedStore<'g> {
    graph: &'g TaskGraph,
    store: RelStore,
    /// Completion flags (also covers tasks with no output, e.g. guards),
    /// the ready queues and the first error, guarded by one mutex + condvar.
    state: Mutex<Progress>,
    wake: Condvar,
    /// A per-source walk's ranks, queue `q` serving source `q`; `None` for
    /// the one worker, whose priorities are all equal. Only the former can
    /// block on `wake`: the one worker's next task is always ready, so it
    /// skips the wake-up, a futex call per completed task.
    ranks: Option<Ranks>,
}

/// What a per-source walk ranks and logs its picks by, fixed for the walk.
///
/// Patching the measured actuals of finished tasks into the graph (as the
/// dynamic scheduler once did, re-running `levels` at every pick) cannot
/// move a pick. `ℓevel(t) = eval(t) + max_s(ℓevel(s) + trans(t → s))` reads
/// only `t`, its out-edges and its descendants; a completion changes the
/// evaluation time and out-edge sizes of a *finished* task; and every task
/// still in a ready queue has only unfinished descendants. Its level is
/// therefore bit-identical to the walk's first evaluation, whatever has
/// finished since — in a failover round too. Priorities that adapt would
/// have to rescale the estimates of *unfinished* tasks from the errors
/// observed so far, which is a different algorithm.
struct Ranks {
    /// Each task's `ℓevel` over the dispatch cell's estimate graph.
    level: Vec<f64>,
    /// Each task's position in the caller's sequence of its source: the
    /// pick log's planned position.
    planned_pos: Vec<usize>,
}

#[derive(Default)]
struct Progress {
    done: Vec<bool>,
    failed: Option<MediatorError>,
    /// A worker reached a task whose source is dead: the round aborts so
    /// the coordinator can fail over and prime the next round.
    halted: Option<SourceId>,
    /// Per-task timing/size accounting, filled on completion.
    measured: Vec<Measured>,
    /// Fault events appended as tasks complete (any order; the report
    /// canonicalizes).
    events: Vec<FaultEvent>,
    /// The current round's queues; rebuilt at every failover round from the
    /// completed tasks.
    round: Round,
    /// A per-source walk's pick log; persists across failover rounds.
    picks: Vec<TaskPick>,
    /// Picks logged per source so far, indexed by source id — the next
    /// pick's `actual_pos`.
    picked_at: Vec<usize>,
    /// What the ship seam did for the tasks this walk ran: their batches
    /// summed and the largest window any one shipment held.
    batch: BatchLog,
}

/// The one dispatcher's state for one round. A worker going idle takes the
/// best ready task of its queue: the highest `ℓevel` in a per-source walk,
/// ties on topological position, and the lowest in topological order for
/// the one worker. The queues are work-conserving: a source never idles
/// while one of its tasks has its inputs.
#[derive(Default)]
struct Round {
    /// Per task: its unfinished inputs. Ready at 0.
    waiting: Vec<usize>,
    /// One queue per worker: the one worker's, or — in a per-source walk —
    /// one per source, indexed by source id, holding the tasks whose
    /// effective source it is.
    queues: Vec<Queue>,
}

#[derive(Default)]
struct Queue {
    /// Ready, not-yet-picked tasks.
    ready: Vec<usize>,
    /// Not-yet-completed tasks; the worker drains at 0.
    remaining: usize,
}

impl SharedStore<'_> {
    fn wake_all(&self) {
        if self.ranks.is_some() {
            self.wake.notify_all();
        }
    }

    fn queue_of(&self, task: usize, effective: &[SourceId]) -> usize {
        if self.ranks.is_some() {
            effective[task].index()
        } else {
            0
        }
    }

    /// Builds the round's queues over the tasks not yet complete.
    fn prime(&self, effective: &[SourceId], sources: usize) {
        let graph = self.graph;
        let mut state = self.state.lock().expect("store mutex");
        let Progress { done, round, .. } = &mut *state;
        let workers = if self.ranks.is_some() { sources } else { 1 };
        *round = Round {
            waiting: vec![0; graph.tasks.len()],
            queues: (0..workers).map(|_| Queue::default()).collect(),
        };
        for &task in &graph.topo {
            if done[task] {
                continue;
            }
            let deps = graph.tasks[task].deps.iter();
            round.waiting[task] = deps.filter(|(d, _)| !done[*d]).count();
            let queue = self.queue_of(task, effective);
            round.queues[queue].remaining += 1;
            if round.waiting[task] == 0 {
                round.queues[queue].ready.push(task);
            }
        }
    }

    /// The one pick: blocks until a task of queue `q` is ready and returns
    /// it with the seconds spent blocked (exactly 0.0 when one was ready at
    /// once), or None when the queue has drained, a worker failed or the
    /// round halted. A worker whose next task is at a dead source halts the
    /// round — before it waits, so no worker waits on output that will
    /// never come.
    fn pick(&self, q: usize, failover: &Failover<'_>) -> Option<(usize, f64)> {
        let topo_pos = &self.graph.dispatch().topo_pos;
        let priority = |t: usize| self.ranks.as_ref().map_or(0.0, |r| r.level[t]);
        let mut state = self.state.lock().expect("store mutex");
        let mut blocked: Option<Instant> = None;
        loop {
            if state.failed.is_some() || state.halted.is_some() {
                return None;
            }
            let Progress {
                round,
                picks,
                picked_at,
                halted,
                ..
            } = &mut *state;
            let queue = &mut round.queues[q];
            if queue.remaining == 0 {
                return None; // this worker's work is complete
            }
            let best = (0..queue.ready.len()).max_by(|&a, &b| {
                let (ta, tb) = (queue.ready[a], queue.ready[b]);
                (priority(ta).total_cmp(&priority(tb))).then(topo_pos[tb].cmp(&topo_pos[ta]))
            });
            // Queue `q` of a per-source round holds source `q`'s tasks; the
            // one worker's next task is always ready.
            let at = best.map_or(SourceId(q as u32), |i| failover.effective[queue.ready[i]]);
            if failover.is_dead(at) {
                *halted = Some(at);
                drop(state);
                self.wake_all();
                return None;
            }
            if let Some(i) = best {
                let task = queue.ready.swap_remove(i);
                if let Some(ranks) = &self.ranks {
                    picks.push(TaskPick {
                        task,
                        source: at,
                        planned_pos: ranks.planned_pos[task],
                        actual_pos: picked_at[at.index()],
                        priority: ranks.level[task],
                    });
                    picked_at[at.index()] += 1;
                }
                return Some((task, blocked.map_or(0.0, |t| t.elapsed().as_secs_f64())));
            }
            blocked.get_or_insert_with(Instant::now);
            state = self.wake.wait(state).expect("store mutex");
        }
    }

    /// Records a finished task and, when it succeeded, folds its shipment
    /// into the batch log and readies the consumers it was the last input
    /// of.
    fn complete(
        &self,
        task: usize,
        failover: &Failover<'_>,
        (result, measured, resident_rows): Ran,
        events: Vec<FaultEvent>,
    ) {
        let mut state = self.state.lock().expect("store mutex");
        state.events.extend(events);
        match result {
            Ok(rel) => {
                if let Some(rel) = rel {
                    let _ = self.store.slots[task].set(rel);
                }
                state.measured[task] = measured;
                let batch = &mut state.batch;
                batch.total_batches += measured.batches;
                let peak = batch.peak_resident_rows.max(resident_rows as u64);
                batch.peak_resident_rows = peak;
                let Progress { done, round, .. } = &mut *state;
                done[task] = true;
                let queue = self.queue_of(task, &failover.effective);
                round.queues[queue].remaining -= 1;
                for &t in self.graph.consumers(task) {
                    round.waiting[t] -= 1;
                    if round.waiting[t] == 0 {
                        let queue = self.queue_of(t, &failover.effective);
                        round.queues[queue].ready.push(t);
                    }
                }
            }
            Err(e) => {
                state.failed.get_or_insert(e);
            }
        }
        drop(state);
        self.wake_all();
    }
}

/// Executes the task graph with one worker per source, each taking its
/// highest-`ℓevel` ready task. `per_source` (see
/// [`crate::schedule::schedule`]; pass a plan over the *uncontracted* graph
/// so node ids are task ids) orders nothing: it supplies the pick log's
/// planned positions. The relations are the sequential executor's; the
/// measurements add the time each task was blocked on its inputs. Dead
/// sources fail over as in a sequential run.
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
/// on the calling thread follows `graph.topo` — the sequential run; with
/// `Some` one worker per source ranks its ready tasks by `ℓevel` and logs
/// its picks against the given sequences' positions.
///
/// With `reuse = Some((store, measured, rerun))` only the tasks with
/// `rerun[id]` run — the incremental path ([`crate::delta`]); every other
/// task starts complete with its cached slot and measurements, and the
/// batch log counts only the re-shipped outputs. Mid-run outage plans
/// (`dies_after`, which count completions over the whole graph) must take
/// the unmasked walk.
///
/// A worker that reaches a task at a dead source halts the round: the
/// workers drain, the source's pending tasks are re-homed to its declared
/// replica ([`Failover`]), and the next round continues from the completed
/// slots under the same ranks. With no usable replica the run fails with
/// [`MediatorError::SourceUnavailable`]. A graph edited after its first walk
/// and a pace no sleep can take are refused before any task runs, and a
/// worker that panics ends the walk with [`MediatorError::Internal`] naming
/// its task.
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
    graph.check_dispatch()?;
    opts.check_pace()?;
    let n = graph.tasks.len();
    let mut store = RelStore::new(graph);
    let mut progress = Progress {
        done: vec![false; n],
        measured: vec![Measured::default(); n],
        picked_at: per_source.map_or(Vec::new(), |_| vec![0; catalog.len()]),
        batch: BatchLog {
            enabled: opts.policy.batching,
            batch_rows: opts.policy.batch_rows,
            ..BatchLog::default()
        },
        ..Progress::default()
    };
    if let Some((snapshot, measured, rerun)) = reuse {
        for id in (0..n).filter(|&id| !rerun[id]) {
            store.slots[id] = snapshot.slots[id].clone();
            progress.done[id] = true;
            progress.measured[id] = measured[id];
        }
    }
    let ranks = per_source.map(|plan| {
        let estimates = (graph.dispatch().estimates)
            .get_or_init(|| CostGraph::from_task_graph(graph, &estimated_costs(graph)));
        let mut planned_pos = vec![0; n];
        for seq in plan.values() {
            for (pos, &id) in seq.iter().enumerate() {
                planned_pos[id] = pos;
            }
        }
        let level = crate::schedule::levels(estimates, &opts.policy.network);
        Ranks { level, planned_pos }
    });
    let shared = SharedStore {
        graph,
        store,
        state: Mutex::new(progress),
        wake: Condvar::new(),
        ranks,
    };
    let epoch = Instant::now();
    let mut failover = Failover::new(catalog, graph, opts.faults.as_ref());

    // Each round redirects at least one dead source, and a redirected
    // source cannot halt again, so the loop is bounded by the source count.
    for _ in 0..catalog.len() + 1 {
        shared.prime(&failover.effective, catalog.len());
        let exec = Executor {
            aig,
            catalog: failover.catalog(),
            graph,
            store: &shared.store,
            opts,
            args,
            epoch,
        };
        run_round(&exec, &shared, &failover);

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
                sched: SchedLog { picks: state.picks },
                batch: state.batch,
            });
        };
        let pending: Vec<usize> = {
            let done = &shared.state.lock().expect("store mutex").done;
            graph.topo.iter().copied().filter(|&t| !done[t]).collect()
        };
        failover.fail_over(down, &pending)?;
    }
    Err(MediatorError::Internal(
        "failover rounds exceeded the source count".to_string(),
    ))
}

/// One round of workers over the primed queues. Returns when every worker
/// has drained (finished its work, or stopped on a failure or a halt). The
/// one worker runs on the calling thread; a per-source round gives each
/// source with work a thread and joins them all: a worker that panicked has
/// failed the walk already (`Unwind`), and its panic ends here.
fn run_round(exec: &Executor<'_, RelStore>, shared: &SharedStore<'_>, failover: &Failover<'_>) {
    if shared.ranks.is_none() {
        return work(exec, shared, failover, 0);
    }
    let busy: Vec<usize> = {
        let state = shared.state.lock().expect("store mutex");
        let queues = state.round.queues.iter().enumerate();
        queues
            .filter(|(_, q)| q.remaining > 0)
            .map(|(q, _)| q)
            .collect()
    };
    std::thread::scope(|scope| {
        let spawn = |q: usize| {
            std::thread::Builder::new()
                .name(format!("aig-source-{q}"))
                .spawn_scoped(scope, move || work(exec, shared, failover, q))
                .expect("spawn source worker")
        };
        let workers: Vec<_> = busy.into_iter().map(spawn).collect();
        for worker in workers {
            let _ = worker.join();
        }
    });
}

/// A worker's guard: if the worker unwinds, it fails the walk with an error
/// naming the task it was running and wakes the other workers, so each
/// stops at its next pick instead of waiting for that task's output forever.
struct Unwind<'a, 'g> {
    shared: &'a SharedStore<'g>,
    task: Option<usize>,
}

impl Drop for Unwind<'_, '_> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        let what = match self.task {
            Some(t) => format!("task {t} `{}`", self.shared.graph.tasks[t].label),
            None => "no task".to_string(),
        };
        let error = MediatorError::Internal(format!("a walk worker panicked running {what}"));
        // A worker that panicked holding the state poisoned it, and every
        // other lock of it then panics in turn; this one must not, since a
        // panic while unwinding aborts the process.
        let state = self.shared.state.lock();
        let mut state = state.unwrap_or_else(PoisonError::into_inner);
        state.failed.get_or_insert(error);
        self.shared.wake_all();
    }
}

/// One worker: takes the next ready task of queue `q`, runs it and
/// completes it, until the queue drains or the round stops. A failed task
/// ends the round: the next pick sees it and returns.
fn work(
    exec: &Executor<'_, RelStore>,
    shared: &SharedStore<'_>,
    failover: &Failover<'_>,
    q: usize,
) {
    let mut unwind = Unwind { shared, task: None };
    while let Some((task, wait_secs)) = shared.pick(q, failover) {
        unwind.task = Some(task);
        let at = failover.effective[task];
        let mut events = Vec::new();
        let ran = exec.run_measured(task, at, wait_secs, &mut events);
        if ran.0.is_ok() {
            failover.task_done(at);
        }
        shared.complete(task, failover, ran, events);
        unwind.task = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ConfigError;
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
        // Every task goes through a ready queue exactly once.
        assert_eq!(parallel.sched.picks.len(), graph.tasks.len());
        let mut picked = vec![false; graph.tasks.len()];
        for pick in &parallel.sched.picks {
            assert!(!picked[pick.task], "task {} picked twice", pick.task);
            picked[pick.task] = true;
        }
    }

    #[test]
    fn a_walk_is_immune_to_adversarial_plan_order() {
        // Reverse every per-source sequence — an order no walk could
        // follow (same-source consumers before their producers). The walk
        // only reads the sequences to seed the deviation log's planned
        // positions, so the run still completes, still matches the
        // sequential executor, and the log shows the disagreement.
        let (aig, catalog, graph) = setup();
        let args = [("date", Value::str("d1"))];
        let opts = ExecOptions::default();
        let sequential = execute_graph(&aig, &catalog, &graph, &args, &opts).unwrap();
        let mut plan = topo_per_source(&graph);
        for seq in plan.values_mut() {
            seq.reverse();
        }
        let walk = execute_graph_parallel(&aig, &catalog, &graph, &args, &opts, &plan).unwrap();
        for task in &graph.tasks {
            if let Some(key) = &task.output {
                assert_eq!(
                    sequential.store.get(key).unwrap(),
                    walk.store.get(key).unwrap(),
                    "{}",
                    task.label
                );
            }
        }
        assert!(
            !walk.sched.deviations().is_empty(),
            "a reversed plan must surface deviations"
        );
    }

    /// Runs `walk` on its own thread and waits at most a minute for it: a
    /// walk that hangs fails the test instead of stalling the suite.
    fn within_a_minute<T: Send + 'static>(walk: impl FnOnce() -> T + Send + 'static) -> T {
        let (sender, receiver) = std::sync::mpsc::channel();
        std::thread::spawn(move || sender.send(walk()));
        let limit = std::time::Duration::from_secs(60);
        receiver.recv_timeout(limit).expect("the walk hung")
    }

    /// A pace no sleep can take is refused before any task runs, naming
    /// its task, under either dispatcher — the one worker runs tasks on the
    /// calling thread, where such a sleep would panic out of the walk.
    #[test]
    fn a_pace_no_sleep_can_take_is_refused_naming_its_task() {
        let (aig, catalog, graph) = setup();
        let args = [("date", Value::str("d1"))];
        let plan = topo_per_source(&graph);
        let root = graph.topo[0];
        for bad in [f64::INFINITY, 1e300, -1.0, f64::NAN] {
            let mut pace = vec![0.0; graph.tasks.len()];
            pace[root] = bad;
            let opts = ExecOptions {
                pace: Some(pace),
                ..ExecOptions::default()
            };
            let one = execute_graph(&aig, &catalog, &graph, &args, &opts);
            let per_source = execute_graph_parallel(&aig, &catalog, &graph, &args, &opts, &plan);
            for err in [one.unwrap_err(), per_source.unwrap_err()] {
                assert!(
                    matches!(err, MediatorError::Config(ConfigError::BadPace { task, .. })
                        if task == root),
                    "pace {bad}: {err}"
                );
            }
        }
    }

    /// A per-source worker that panics mid-task ends the walk with an error
    /// naming the task; the workers waiting on its output are woken. The
    /// panic is a generator whose output schema was cut to one column (its
    /// body reads the field names after `__parent` and `__ord`), on the
    /// first generator, which every source's work waits on.
    #[test]
    fn a_worker_that_panics_ends_the_walk_with_an_error() {
        let (aig, catalog, mut graph) = setup();
        let first_gen = graph
            .topo
            .iter()
            .copied()
            .find(|&t| matches!(graph.tasks[t].kind, crate::graph::TaskKind::Gen { .. }));
        let gen = first_gen.unwrap();
        graph.tasks[gen].schema = vec!["__parent".to_string()].into();
        let plan = topo_per_source(&graph);
        let label = graph.tasks[gen].label.clone();
        let err = within_a_minute(move || {
            let args = [("date", Value::str("d1"))];
            let opts = ExecOptions::default();
            execute_graph_parallel(&aig, &catalog, &graph, &args, &opts, &plan).unwrap_err()
        });
        let MediatorError::Internal(message) = &err else {
            panic!("{err}");
        };
        let named = format!("a walk worker panicked running task {gen} `{label}`");
        assert!(message.contains(&named), "{message}");
    }

    /// A graph whose deps change after its first walk is refused at the
    /// start of the next, under either dispatcher, instead of waiting for a
    /// release its dispatch cell does not know of.
    #[test]
    fn a_graph_edited_after_its_first_walk_is_refused() {
        let (aig, catalog, mut graph) = setup();
        let args = [("date", Value::str("d1"))];
        execute_graph(&aig, &catalog, &graph, &args, &ExecOptions::default()).unwrap();
        // The last task in topological order reads one more producer.
        let (last, first) = (graph.topo[graph.topo.len() - 1], graph.topo[0]);
        assert!(graph.tasks[last].deps.iter().all(|&(dep, _)| dep != first));
        let key = graph.tasks[first].output.clone().unwrap();
        graph.tasks[last].deps.push((first, key));
        let plan = topo_per_source(&graph);
        let errors = within_a_minute(move || {
            let opts = ExecOptions::default();
            let one = execute_graph(&aig, &catalog, &graph, &args, &opts).unwrap_err();
            let per_source = execute_graph_parallel(&aig, &catalog, &graph, &args, &opts, &plan);
            [one, per_source.unwrap_err()]
        });
        for err in errors {
            assert!(
                matches!(&err, MediatorError::Internal(m) if m.contains("changed after its first walk")),
                "{err}"
            );
        }
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
