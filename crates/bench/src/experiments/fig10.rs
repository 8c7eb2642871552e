//! **Figure 10** of the paper: the improvement due to query merging — the
//! ratio of AIG evaluation time *without* merging to the time *with*
//! merging — for the three dataset sizes and recursion unfoldings of 2–7
//! levels, with 1 Mbps links between the mediator and the sources.
//!
//! Flags: `--mbps <f64>` sets the bandwidth; `--explain` additionally
//! prints the task-graph summary per cell and the sample run report (both
//! on stderr).
//!
//! The artifact holds every cell's summary plus the full
//! [`aig_mediator::RunReport`] of a representative cell (phase timers,
//! per-task/per-source metrics, merge decisions).

use aig_bench::{dataset, fig10_run, markdown_table, spec, Json};
use aig_datagen::DatasetSize;
use aig_mediator::render_report;
use std::time::Instant;

pub fn run(args: &[String]) -> Json {
    let mbps = args
        .iter()
        .position(|a| a == "--mbps")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0);
    let explain = args.iter().any(|a| a == "--explain");

    let parse_start = Instant::now();
    let aig = spec();
    let parse_secs = parse_start.elapsed().as_secs_f64();

    let unfolds: Vec<usize> = (2..=7).collect();
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    let mut sample_report = None;
    println!("Figure 10: improvement due to query merging (bandwidth {mbps} Mbps)\n");
    for size in DatasetSize::ALL {
        let data = dataset(size);
        let mut row = vec![size.name().to_string()];
        for &unfold in &unfolds {
            let (run, report) = fig10_run(&aig, data, unfold, mbps);
            row.push(format!("{:.2}", run.merging_speedup()));
            if explain {
                eprintln!(
                    "[{} u{unfold}] tasks={} queries={} merges={} unmerged={:.3}s merged={:.3}s",
                    size.name(),
                    run.tasks,
                    run.source_queries,
                    run.merges,
                    run.response_unmerged_secs,
                    run.response_merged_secs,
                );
            }
            let count = |n: usize| Json::num(n as f64);
            cells.push(Json::obj(vec![
                ("dataset", Json::str(size.name())),
                ("unfold", count(unfold)),
                ("ratio", Json::num(run.merging_speedup())),
                ("tasks", count(run.tasks)),
                ("source_queries", count(run.source_queries)),
                ("merges", count(run.merges)),
                (
                    "response_unmerged_secs",
                    Json::num(run.response_unmerged_secs),
                ),
                ("response_merged_secs", Json::num(run.response_merged_secs)),
            ]));
            // Keep one full run report (a mid-size cell keeps the JSON small
            // while still exercising merging and recursion).
            if size == DatasetSize::Small && unfold == 3 {
                let mut report = report;
                report.prepend_phase("parse", parse_secs);
                sample_report = Some(report);
            }
        }
        rows.push(row);
    }
    let mut header: Vec<String> = vec!["dataset".to_string()];
    header.extend(unfolds.iter().map(|u| format!("unfold {u}")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    println!("{}", markdown_table(&header_refs, &rows));
    println!(
        "(each cell: evaluation time without merging / with merging; paper reports up to 2.2)"
    );

    let report = sample_report.expect("Small/unfold-3 cell was computed");
    if explain {
        eprintln!("\n{}", render_report(&report));
    }
    Json::obj(vec![
        ("bandwidth_mbps", Json::num(mbps)),
        ("cells", Json::Arr(cells)),
        ("report", report.to_json()),
    ])
}
