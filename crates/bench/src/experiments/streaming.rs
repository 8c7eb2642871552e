//! Ablation M: streaming batch execution (chunked shipment) vs the
//! materializing ship seam.
//!
//! On the Fig. 10 workload (Small dataset, unfold 4, 1 Mbps), the same
//! request runs three ways: materializing (every task ships its whole
//! relation at once), batching with the default 2048-row chunks, and
//! batching with aggressive 256-row chunks. Chunked shipment bounds the
//! rows resident at the ship seam to a two-batch window per shipping task
//! instead of the largest relation, and lets the simulator credit the
//! pipelining overlap (batch k ships while batch k-1 evaluates) — while
//! the relation stores and the final document stay byte-identical, which
//! is the whole point of the seam redesign.
//!
//! Honesty note for this testbed: the container has one CPU, so the
//! overlap column is the *simulated* pipelining credit
//! (`NetworkModel::overlap_savings`), not a measured wall-clock win. The
//! machine-independent claims — byte-identical documents, strictly lower
//! peak residency at 256 rows, batch counts that grow as chunks shrink —
//! are what the gate requires; walls get drift bands.

use aig_bench::{
    best_cold_run, dataset, fig10_options, markdown_table, spec, table_json, Json, TimedRun,
};
use aig_datagen::DatasetSize;
use aig_mediator::canonical;

const UNFOLD: usize = 4;
/// Repetitions per cell; the best response filters scheduler noise.
const REPEATS: usize = 5;

pub fn run(_: &[String]) -> Json {
    let aig = spec();
    let data = dataset(DatasetSize::Small);

    let cell = |batch_rows: Option<usize>| {
        let mut options = fig10_options(UNFOLD, 1.0);
        if let Some(rows) = batch_rows {
            options.batching = true;
            options.batch_rows = rows;
        }
        best_cold_run(&aig, data, &options, REPEATS)
    };
    let mat = cell(None);
    let coarse = cell(Some(2048));
    let fine = cell(Some(256));

    let docs_identical = canonical(&aig, &mat.run.tree) == canonical(&aig, &coarse.run.tree)
        && canonical(&aig, &coarse.run.tree) == canonical(&aig, &fine.run.tree);

    println!(
        "Ablation M: streaming batch execution (Small dataset, unfold {UNFOLD}, 1 Mbps, best of {REPEATS})\n"
    );
    let header = [
        "variant",
        "batches",
        "peak resident rows",
        "overlap est (s)",
        "response merged (s)",
        "wall (s)",
    ];
    let row = |name: &str, c: &TimedRun| {
        vec![
            name.to_string(),
            format!("{}", c.report.batching.total_batches),
            format!("{}", c.report.batching.peak_resident_rows),
            format!("{:.3}", c.report.batching.overlap_savings_secs),
            format!("{:.3}", c.run.response_merged_secs),
            format!("{:.4}", c.wall_secs),
        ]
    };
    let rows = vec![
        row("materializing", &mat),
        row("batch 2048", &coarse),
        row("batch 256", &fine),
    ];
    println!("{}", markdown_table(&header, &rows));
    println!(
        "documents identical: {docs_identical}; peak resident rows {} -> {} (256-row chunks); \
         overlap credit {:.3}s (simulated — single-CPU testbed)",
        mat.report.batching.peak_resident_rows,
        fine.report.batching.peak_resident_rows,
        fine.report.batching.overlap_savings_secs,
    );

    let count = |n: u64| Json::num(n as f64);
    let (m, c, f) = (
        &mat.report.batching,
        &coarse.report.batching,
        &fine.report.batching,
    );
    Json::obj(vec![
        ("unfold", Json::num(UNFOLD as f64)),
        ("dataset", Json::str(DatasetSize::Small.name())),
        ("docs_identical", Json::Bool(docs_identical)),
        ("peak_mat_rows", count(m.peak_resident_rows)),
        ("peak_2048_rows", count(c.peak_resident_rows)),
        ("peak_256_rows", count(f.peak_resident_rows)),
        ("batches_mat", count(m.total_batches)),
        ("batches_2048", count(c.total_batches)),
        ("batches_256", count(f.total_batches)),
        ("overlap_2048_secs", Json::num(c.overlap_savings_secs)),
        ("overlap_256_secs", Json::num(f.overlap_savings_secs)),
        ("response_mat_secs", Json::num(mat.run.response_merged_secs)),
        (
            "response_256_secs",
            Json::num(fine.run.response_merged_secs),
        ),
        ("wall_mat_secs", Json::num(mat.wall_secs)),
        ("wall_256_secs", Json::num(fine.wall_secs)),
        ("report", fine.report.redacted().to_json()),
        ("rows", table_json(&header, &rows)),
    ])
}
