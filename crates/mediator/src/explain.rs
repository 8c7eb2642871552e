//! Human-readable renderings of the dependency graph and execution plan —
//! the textual counterpart of the paper's Fig. 6 (specialized AIG graph) and
//! Fig. 7 (dependency graph / execution plan / merging).

use crate::cost::{completion_times, CostGraph, Plan};
use crate::graph::TaskGraph;
use crate::obs::RunReport;
use crate::sim::NetworkModel;
use aig_relstore::Catalog;
use std::fmt::Write;

/// Renders the contracted dependency graph: one line per node with its
/// source, evaluation cost, dependencies (with shipped bytes), and the task
/// labels contracted into it.
pub fn render_graph(graph: &CostGraph, tasks: &TaskGraph, catalog: &Catalog) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "dependency graph ({} nodes)", graph.len());
    for (id, node) in graph.nodes.iter().enumerate() {
        let labels: Vec<&str> = node
            .members
            .iter()
            .map(|&m| tasks.tasks[m].label.as_str())
            .collect();
        let deps: Vec<String> = graph.deps[id]
            .iter()
            .map(|(d, bytes)| format!("#{d} ({bytes:.0} B)"))
            .collect();
        let _ = writeln!(
            out,
            "  #{id} @{} eval={:.3}s{} <- [{}]",
            catalog.source(node.source).name(),
            node.eval_secs,
            if node.mergeable { "" } else { " (mediator)" },
            deps.join(", "),
        );
        if !labels.is_empty() {
            let shown = labels.len().min(4);
            let _ = writeln!(
                out,
                "      {}{}",
                labels[..shown].join(", "),
                if labels.len() > shown {
                    format!(" … +{}", labels.len() - shown)
                } else {
                    String::new()
                }
            );
        }
    }
    out
}

/// Renders an execution plan (Fig. 7(b)): per source, the ordered node
/// sequence with completion times under the network model.
pub fn render_plan(
    graph: &CostGraph,
    plan: &Plan,
    net: &NetworkModel,
    catalog: &Catalog,
) -> String {
    let done = completion_times(graph, plan, net);
    let mut out = String::new();
    let mut sources: Vec<_> = plan.per_source.keys().copied().collect();
    sources.sort();
    let _ = writeln!(out, "execution plan");
    for source in sources {
        let seq = &plan.per_source[&source];
        if seq.is_empty() {
            continue;
        }
        let steps: Vec<String> = seq
            .iter()
            .map(|&t| format!("#{t}→{:.2}s", done[t]))
            .collect();
        let _ = writeln!(
            out,
            "  {}: {}",
            catalog.source(source).name(),
            steps.join("  ")
        );
    }
    let makespan = done.iter().copied().fold(0.0f64, f64::max);
    let _ = writeln!(out, "  response time: {makespan:.3}s");
    out
}

/// Renders a [`RunReport`]: phase timers, per-source aggregates, the merge
/// decision log, the final plan, and simulated vs. actual totals.
pub fn render_report(report: &RunReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "run report: depth {} ({} round{}), {} tasks, {}",
        report.depth,
        report.unfold_rounds,
        if report.unfold_rounds == 1 { "" } else { "s" },
        report.tasks.len(),
        if report.parallel_exec {
            "parallel execution"
        } else {
            "sequential execution"
        },
    );
    let _ = writeln!(
        out,
        "phases ({:.3}s total = {:.3}s prepare + {:.3}s execute)",
        report.total_secs, report.prepare_secs, report.execute_secs
    );
    for phase in &report.phases {
        let _ = writeln!(
            out,
            "  {:<20} {:>9.4}s  (x{}, from {:.4}s)",
            phase.name, phase.secs, phase.calls, phase.first_start_secs
        );
    }
    if report.cache.enabled {
        let c = &report.cache;
        let _ = writeln!(
            out,
            "plan cache: {}{}; totals {} hits / {} misses / {} promotions / \
             {} evictions; {} of {} plans resident",
            if c.hit { "hit" } else { "miss" },
            if c.promoted { " (promoted deeper)" } else { "" },
            c.hits,
            c.misses,
            c.promotions,
            c.evictions,
            c.entries,
            c.capacity,
        );
    }
    if report.shipcut.enabled {
        let s = &report.shipcut;
        let pct = if s.shipped_full_bytes > 0.0 {
            100.0 * s.saved_bytes / s.shipped_full_bytes
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "ship-cut: {:.0} of {:.0} shipped bytes ({:.0} saved, {:.1}%); \
             {} task shipments pruned",
            s.shipped_cut_bytes, s.shipped_full_bytes, s.saved_bytes, pct, s.pruned_tasks,
        );
    }
    if report.batching.enabled {
        let b = &report.batching;
        let _ = writeln!(
            out,
            "batching: {} batches of {} rows; peak {} resident shipment rows; \
             est. {:.3}s overlapped by pipelining",
            b.total_batches, b.batch_rows, b.peak_resident_rows, b.overlap_savings_secs,
        );
    }
    let _ = writeln!(out, "sources");
    for source in &report.sources {
        let _ = writeln!(
            out,
            "  {:<10} {:>3} tasks  actual {:.4}s busy  sim {:.3}s busy / {:.3}s idle",
            source.name, source.tasks, source.busy_secs, source.sim_busy_secs, source.sim_idle_secs
        );
    }
    if !report.merge_decisions.is_empty() {
        // Contracted node ids are meaningless on their own — resolve them
        // back to the task labels so the log is self-contained.
        let label_of = |ids: &[usize]| -> String {
            let labels: Vec<&str> = ids
                .iter()
                .map(|&id| {
                    report
                        .tasks
                        .get(id)
                        .map(|t| t.label.as_str())
                        .unwrap_or("?")
                })
                .collect();
            format!("[{}]", labels.join(", "))
        };
        let _ = writeln!(out, "merge decisions");
        for d in &report.merge_decisions {
            let _ = writeln!(
                out,
                "  @{}: merge {} into {}  cost {:.3}s -> {:.3}s",
                d.source,
                label_of(&d.absorbed),
                label_of(&d.kept),
                d.cost_before_secs,
                d.cost_after_secs
            );
        }
    }
    if report.resilience.enabled {
        let r = &report.resilience;
        let _ = writeln!(
            out,
            "resilience (seed {}): {} injected = {} retried + {} timed out + \
             {} failed over + {} surfaced; {} spikes absorbed, {} replans",
            r.seed,
            r.injected,
            r.retried,
            r.timed_out,
            r.failed_over,
            r.surfaced,
            r.absorbed_spikes,
            r.replans,
        );
        for e in &r.events {
            let _ = writeln!(
                out,
                "  task {} ({}) @{} attempt {}: {} -> {}",
                e.task,
                e.label,
                e.source,
                e.attempt,
                e.kind.name(),
                e.outcome.name()
            );
        }
    }
    if report.integrity.enabled || report.integrity.injected > 0 {
        let i = &report.integrity;
        let _ = writeln!(
            out,
            "integrity ({}): {} injected = {} masked by retry + {} detected by guard + \
             {} detected by constraint + {} undetected ({})",
            if i.enabled { "checks on" } else { "checks off" },
            i.injected,
            i.masked_by_retry,
            i.detected_by_guard,
            i.detected_by_constraint,
            i.undetected,
            if i.balanced {
                "balanced"
            } else {
                "UNBALANCED: silent corruption"
            },
        );
        for e in &i.events {
            let detail = if e.kind.detail().is_empty() {
                String::new()
            } else {
                format!("/{}", e.kind.detail())
            };
            let constraint = if e.constraint.is_empty() {
                String::new()
            } else {
                format!(" [{}]", e.constraint)
            };
            let _ = writeln!(
                out,
                "  task {} ({}) @{}.{} attempt {}: {}{} -> {}{}",
                e.task,
                e.label,
                e.source,
                e.table,
                e.attempt,
                e.kind.name(),
                detail,
                e.outcome.name(),
                constraint
            );
        }
    }
    if report.server.enabled {
        let s = &report.server;
        let _ = writeln!(
            out,
            "server (seed {}): {} offered = {} admitted + {} rejected \
             ({} queue / {} in-flight / {} tenant); {} admitted = {} completed + \
             {} deadline exceeded + {} degraded + {} failed ({})",
            s.seed,
            s.offered,
            s.admitted,
            s.rejected,
            s.rejected_queue,
            s.rejected_in_flight,
            s.rejected_tenant,
            s.admitted,
            s.completed,
            s.deadline_exceeded,
            s.degraded,
            s.failed,
            if s.balanced {
                "balanced"
            } else {
                "UNBALANCED: silent drop"
            },
        );
        let _ = writeln!(
            out,
            "  breakers: {} trips / {} probes / {} closes; queue high-water {}, \
             in-flight high-water {}",
            s.breaker_trips, s.breaker_probes, s.breaker_closes, s.max_queue_depth, s.max_in_flight,
        );
        let _ = writeln!(
            out,
            "  latency: p50 {:.3}s  p95 {:.3}s  p99 {:.3}s",
            s.p50_secs, s.p95_secs, s.p99_secs,
        );
    }
    if report.scheduler.mode != "static" || !report.scheduler.deviations.is_empty() {
        let s = &report.scheduler;
        let _ = writeln!(
            out,
            "scheduler: {} ({} picks, {} deviated from the planned order)",
            s.mode,
            s.picks,
            s.deviations.len(),
        );
        for d in &s.deviations {
            let _ = writeln!(
                out,
                "  task {} ({}) @{}: planned #{} ran #{} (priority {:.3})",
                d.task, d.label, d.source, d.planned_pos, d.actual_pos, d.priority
            );
        }
    }
    let _ = writeln!(out, "final plan");
    for seq in &report.plan {
        let steps: Vec<String> = seq
            .steps
            .iter()
            .map(|s| format!("#{}→{:.2}s", s.node, s.completion_secs))
            .collect();
        let _ = writeln!(out, "  {}: {}", seq.source, steps.join("  "));
    }
    let _ = writeln!(
        out,
        "simulated response: {:.3}s unmerged, {:.3}s merged ({} merges); \
         actual execution: {:.4}s",
        report.sim_response_unmerged_secs,
        report.sim_response_merged_secs,
        report.merges,
        report.exec_wall_secs,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{estimated_costs, CostGraph};
    use crate::graph::{build_graph, GraphOptions};
    use crate::schedule::schedule;
    use crate::unfold::{unfold, CutOff};
    use aig_core::paper::{mini_hospital_catalog, sigma0};
    use aig_core::{compile_constraints, decompose_queries};

    #[test]
    fn renderings_contain_the_expected_structure() {
        let aig = sigma0().unwrap();
        let compiled = compile_constraints(&aig).unwrap();
        let (specialized, _) = decompose_queries(&compiled).unwrap();
        let unfolded = unfold(&specialized, 2, CutOff::Truncate).unwrap();
        let catalog = mini_hospital_catalog().unwrap();
        let tasks = build_graph(&unfolded.aig, &catalog, &GraphOptions::default()).unwrap();
        let costs = estimated_costs(&tasks);
        let cg = CostGraph::from_task_graph(&tasks, &costs).contract_passthrough();
        let net = NetworkModel::mbps(1.0);

        let graph_text = render_graph(&cg, &tasks, &catalog);
        assert!(graph_text.contains("dependency graph"));
        assert!(graph_text.contains("@DB1"), "{graph_text}");
        assert!(
            graph_text.contains("gen[report#0->patient]"),
            "{graph_text}"
        );

        let plan = schedule(&cg, &net);
        let plan_text = render_plan(&cg, &plan, &net, &catalog);
        assert!(plan_text.contains("execution plan"));
        assert!(plan_text.contains("response time:"), "{plan_text}");
        for db in ["DB1", "DB2", "DB3", "DB4", "Mediator"] {
            assert!(plan_text.contains(db), "{db} missing in {plan_text}");
        }
    }
}
