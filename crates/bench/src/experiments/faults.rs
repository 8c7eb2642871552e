//! Ablation F: resilience overhead vs transient-fault rate. The fault plan
//! is seeded, so every row replays the same injection schedule; a row
//! counts only if the recovered document matches the fault-free one (the
//! gate requires every "identical" cell to be true), so the sweep measures
//! the *cost* of recovery, never silent corruption.

use aig_bench::{dataset, markdown_table, spec, table_json, wall_clock_options, Json};
use aig_datagen::DatasetSize;
use aig_mediator::{run_with_report, FaultConfig};
use aig_relstore::Value;

const HEADER: [&str; 8] = [
    "transient rate",
    "injected",
    "retried",
    "timed out",
    "absorbed",
    "backoff (ms)",
    "exec wall (s)",
    "identical",
];
const UNFOLD: usize = 6;

pub fn run(_: &[String]) -> Json {
    let aig = spec();
    let data = dataset(DatasetSize::Small);
    let args = [("date", Value::str(&data.dates[0]))];
    let options = wall_clock_options(UNFOLD, 0.05);

    let (clean_run, _) =
        run_with_report(&aig, &data.catalog, &args, &options).expect("fault-free run");

    let mut rows = Vec::new();
    for rate in [0.0, 0.1, 0.2, 0.4, 0.6] {
        let mut faulted = options.clone();
        faulted.faults = Some(FaultConfig {
            seed: 42,
            transient_rate: rate,
            latency_rate: rate / 2.0,
            // Spikes of 20-60 ms straddle the 50 ms timeout: short ones are
            // absorbed, long ones are cut off and retried.
            latency_secs: 0.04,
            ..FaultConfig::default()
        });
        let (run, report) =
            run_with_report(&aig, &data.catalog, &args, &faulted).expect("faulted run recovers");
        let r = &report.resilience;
        rows.push(vec![
            format!("{rate}"),
            r.injected.to_string(),
            r.retried.to_string(),
            r.timed_out.to_string(),
            r.absorbed_spikes.to_string(),
            format!("{:.2}", r.backoff_secs * 1e3),
            format!("{:.3}", report.exec_wall_secs),
            (run.tree == clean_run.tree).to_string(),
        ]);
    }
    println!("Ablation F: resilience overhead vs transient-fault rate (Small, unfold {UNFOLD})\n");
    println!("{}", markdown_table(&HEADER, &rows));
    Json::obj(vec![
        ("unfold", Json::num(UNFOLD as f64)),
        ("seed", Json::num(42.0)),
        ("rows", table_json(&HEADER, &rows)),
    ])
}
