//! Ablation I: column-liveness pruning at ship boundaries ("ship-cut") and
//! the partitioned parallel kernels.
//!
//! On the Fig. 10 workload (Small dataset, unfold 4, 1 Mbps), the same
//! request runs with ship-cut **off** and **on**: pruning projects every
//! shipped relation down to the columns downstream consumers actually read
//! (and deduplicates for set-semantics consumers), so the measured shipped
//! bytes — and with them the simulated transfer times that drive Schedule
//! and Merge — shrink, while the relation stores and the final document stay
//! byte-identical. A third run adds the partitioned kernels (`threads 4`),
//! which must also be byte-identical: partition merges are deterministic.
//!
//! **Cold** rows run the one-shot pipeline; **warm** rows serve the request
//! from a [`Mediator`] with the ship-cut analysis cached inside the
//! prepared plan, so warm requests skip the liveness pass entirely.
//!
//! The gate requires shipped bytes to stay strictly reduced, the documents
//! identical, and the response time with pruning at or under the unpruned
//! one.

use aig_bench::{
    best_cold_run, dataset, fig10_options, markdown_table, spec, table_json, Json, TimedRun,
};
use aig_datagen::DatasetSize;
use aig_mediator::{canonical, Mediator};
use aig_relstore::Value;
use std::time::Instant;

const UNFOLD: usize = 4;
const WARM_REQUESTS: usize = 4;
/// Repetitions per cold cell; the best response filters scheduler noise
/// (measured per-task eval times feed the simulated response).
const REPEATS: usize = 5;

pub fn run(_: &[String]) -> Json {
    let aig = spec();
    let data = dataset(DatasetSize::Small);
    let args = [("date", Value::str(&data.dates[0]))];

    let cold = |shipcut: bool, threads: usize| {
        let mut options = fig10_options(UNFOLD, 1.0);
        options.shipcut = shipcut;
        options.threads = threads;
        best_cold_run(&aig, data, &options, REPEATS)
    };
    let off = cold(false, 1);
    let on = cold(true, 1);
    let threaded = cold(true, 4);

    // Warm: the service caches the prepared plan (ship-cut analysis
    // included), so requests pay execution only.
    let mut warm_options = fig10_options(UNFOLD, 1.0);
    warm_options.shipcut = true;
    let mediator = Mediator::new(data.catalog.clone(), &warm_options).unwrap();
    mediator.request(&aig, &args).expect("warm-up");
    let warm_start = Instant::now();
    let mut warm_report = None;
    for _ in 0..WARM_REQUESTS {
        let (_, report) = mediator.request(&aig, &args).expect("warm run");
        warm_report = Some(report);
    }
    let warm_per_request = warm_start.elapsed().as_secs_f64() / WARM_REQUESTS as f64;
    let warm = warm_report.expect("ran warm requests").cache;

    let docs_identical = canonical(&aig, &off.run.tree) == canonical(&aig, &on.run.tree)
        && canonical(&aig, &on.run.tree) == canonical(&aig, &threaded.run.tree);
    let full = off.report.shipcut.shipped_full_bytes;
    let cut = on.report.shipcut.shipped_cut_bytes;
    let saved = on.report.shipcut.saved_bytes;

    println!("Ablation I: ship-cut pruning (Small dataset, unfold {UNFOLD}, 1 Mbps, best of {REPEATS})\n");
    let header = [
        "variant",
        "shipped bytes",
        "saved",
        "response merged (s)",
        "wall (s)",
        "pruned tasks",
    ];
    let row = |name: &str, cell: &TimedRun| {
        vec![
            name.to_string(),
            format!("{:.0}", cell.report.shipcut.shipped_cut_bytes),
            format!("{:.0}", cell.report.shipcut.saved_bytes),
            format!("{:.3}", cell.run.response_merged_secs),
            format!("{:.4}", cell.wall_secs),
            format!("{}", cell.report.shipcut.pruned_tasks),
        ]
    };
    let rows = vec![
        row("off", &off),
        row("on", &on),
        row("on + 4 threads", &threaded),
    ];
    println!("{}", markdown_table(&header, &rows));
    println!(
        "shipped bytes {full:.0} -> {cut:.0} ({saved:.0} saved, {:.1}%); \
         documents identical: {docs_identical}; warm per-request {warm_per_request:.4}s",
        100.0 * saved / full.max(f64::MIN_POSITIVE),
    );

    Json::obj(vec![
        ("unfold", Json::num(UNFOLD as f64)),
        ("dataset", Json::str(DatasetSize::Small.name())),
        ("shipped_full_bytes", Json::num(full)),
        ("shipped_cut_bytes", Json::num(cut)),
        ("saved_bytes", Json::num(saved)),
        (
            "pruned_tasks",
            Json::num(on.report.shipcut.pruned_tasks as f64),
        ),
        ("response_off_secs", Json::num(off.run.response_merged_secs)),
        ("response_on_secs", Json::num(on.run.response_merged_secs)),
        ("cold_off_wall_secs", Json::num(off.wall_secs)),
        ("cold_on_wall_secs", Json::num(on.wall_secs)),
        ("cold_threaded_wall_secs", Json::num(threaded.wall_secs)),
        ("warm_per_request_secs", Json::num(warm_per_request)),
        ("docs_identical", Json::Bool(docs_identical)),
        ("warm_cache_hit", Json::Bool(warm.hit && warm.enabled)),
        ("report", on.report.redacted().to_json()),
        ("rows", table_json(&header, &rows)),
    ])
}
