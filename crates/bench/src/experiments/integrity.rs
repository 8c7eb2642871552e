//! Ablation J: the cost and coverage of the wrong-answer integrity defense.
//!
//! Three questions, one seeded corruption schedule:
//! 1. **Overhead** — what do the task-boundary guard checks and the
//!    document-level constraint check cost on a clean run?
//! 2. **Coverage** — across a corruption-rate sweep with checks on, is every
//!    injected corruption masked by retry (document byte-identical to the
//!    clean run) with a balancing ledger and zero `undetected` entries?
//! 3. **Justification** — with the defense off, does the same schedule
//!    actually publish a wrong answer? (If not, the defense defends against
//!    nothing and the sweep is vacuous.)
//!
//! The gate pins coverage (zero silent corruptions, a non-vacuous control)
//! as hard requirements and bands the wall-clock overhead.

use aig_bench::{dataset, markdown_table, spec, table_json, wall_clock_options, Json};
use aig_datagen::DatasetSize;
use aig_mediator::{run_with_report, FaultConfig};
use aig_relstore::Value;
use std::collections::BTreeMap;

const HEADER: [&str; 8] = [
    "corrupt rate",
    "injected",
    "masked by retry",
    "undetected",
    "balanced",
    "retries",
    "exec wall (s)",
    "identical",
];
const UNFOLD: usize = 6;
const SEED: u64 = 42;

pub fn run(_: &[String]) -> Json {
    let aig = spec();
    let data = dataset(DatasetSize::Small);
    let args = [("date", Value::str(&data.dates[0]))];
    let options = wall_clock_options(UNFOLD, f64::INFINITY);

    // 1. Overhead: a clean run with and without the defense. The defense
    //    must not change a clean document either, so the checked run opens
    //    the identity ledger.
    let (clean_run, clean_report) =
        run_with_report(&aig, &data.catalog, &args, &options).expect("clean run");
    let mut checked = options.clone();
    checked.check_integrity = true;
    let (checked_run, checked_report) =
        run_with_report(&aig, &data.catalog, &args, &checked).expect("clean checked run");
    let clean_wall = clean_report.exec_wall_secs;
    let checked_wall = checked_report.exec_wall_secs;
    let overhead = checked_wall / clean_wall.max(1e-9);

    // 2. Coverage: the corruption sweep with checks on.
    let mut rows = Vec::new();
    let mut injected_total = 0usize;
    let mut masked_total = 0usize;
    let mut undetected_with_defense = 0usize;
    let mut docs_identical = checked_run.tree == clean_run.tree;
    let mut per_kind: BTreeMap<&str, usize> = BTreeMap::new();
    for rate in [0.0, 0.1, 0.2, 0.4] {
        let mut faulted = checked.clone();
        faulted.faults = Some(FaultConfig {
            seed: SEED,
            corrupt_rate: rate,
            ..FaultConfig::default()
        });
        let (run, report) =
            run_with_report(&aig, &data.catalog, &args, &faulted).expect("defended run recovers");
        let i = &report.integrity;
        let identical = run.tree == clean_run.tree;
        injected_total += i.injected;
        masked_total += i.masked_by_retry;
        undetected_with_defense += i.undetected;
        docs_identical &= identical;
        for event in &i.events {
            *per_kind.entry(event.kind.detail()).or_default() += 1;
        }
        rows.push(vec![
            format!("{rate}"),
            i.injected.to_string(),
            i.masked_by_retry.to_string(),
            i.undetected.to_string(),
            i.balanced.to_string(),
            report.resilience.retried.to_string(),
            format!("{:.3}", report.exec_wall_secs),
            identical.to_string(),
        ]);
    }

    // 3. Justification: the same schedule with the defense off must publish
    //    a wrong answer (or the sweep above proved nothing).
    let mut undefended = options.clone();
    undefended.check_guards = false;
    undefended.faults = Some(FaultConfig {
        seed: SEED,
        corrupt_rate: 0.4,
        ..FaultConfig::default()
    });
    let (off_run, off_report) =
        run_with_report(&aig, &data.catalog, &args, &undefended).expect("undefended run");
    let defense_off_undetected = off_report.integrity.undetected;
    let defense_off_identical = off_run.tree == clean_run.tree;

    println!("Ablation J: wrong-answer defense overhead and coverage (Small, unfold {UNFOLD})\n");
    println!(
        "clean exec wall: {clean_wall:.3}s without checks, {checked_wall:.3}s with (x{overhead:.3})\n"
    );
    println!("{}", markdown_table(&HEADER, &rows));
    println!("\nper-kind masked corruptions (defense on):");
    for (kind, count) in &per_kind {
        println!("  {kind}: {count}");
    }
    println!(
        "\ndefense off at rate 0.4: {defense_off_undetected} undetected corruptions, \
         document identical: {defense_off_identical}"
    );

    let count = |n: usize| Json::num(n as f64);
    let per_kind = per_kind.iter().map(|(k, v)| (k.to_string(), count(*v)));
    Json::obj(vec![
        ("unfold", Json::num(UNFOLD as f64)),
        ("seed", Json::num(SEED as f64)),
        ("clean_wall_secs", Json::num(clean_wall)),
        ("checked_wall_secs", Json::num(checked_wall)),
        ("overhead_ratio", Json::num(overhead)),
        ("injected_total", count(injected_total)),
        ("masked_total", count(masked_total)),
        ("undetected_with_defense", count(undetected_with_defense)),
        ("docs_identical", Json::Bool(docs_identical)),
        ("defense_off_undetected", count(defense_off_undetected)),
        (
            "defense_off_doc_identical",
            Json::Bool(defense_off_identical),
        ),
        ("per_kind", Json::Obj(per_kind.collect())),
        ("rows", table_json(&HEADER, &rows)),
    ])
}
