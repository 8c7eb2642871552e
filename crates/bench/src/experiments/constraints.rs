//! Ablation C: the cost of constraint checking (§3.3). Compares conceptual
//! evaluation of σ0 (a) without constraints, (b) with compiled guards
//! checked in parallel with generation, and (c) without guards plus a
//! whole-tree oracle post-pass.

use aig_bench::{markdown_table, spec, table_json, Json};
use aig_core::compile_constraints;
use aig_core::eval::{evaluate_with, EvalOptions};
use aig_datagen::HospitalConfig;
use aig_relstore::Value;
use std::time::Instant;

const HEADER: [&str; 5] = [
    "dataset",
    "no constraints (s)",
    "compiled guards (s)",
    "post-hoc oracle (s)",
    "guard checks",
];

/// Conceptual evaluation runs one query per node, so the dataset uses a
/// *flat* procedure hierarchy (uniform sparse DAG, shallow recursion) at
/// three scales; the Table-1 hierarchies are exercised by the mediator
/// experiments instead.
fn flat_config(scale: usize) -> HospitalConfig {
    HospitalConfig {
        patients: 500 * scale,
        visits: 2000 * scale,
        covers: 800 * scale,
        treatments: 120,
        procedures: 130,
        proc_core: 120, // uniform: flat growth, shallow recursion
        dates: 20,
        policies: 40,
        acyclic: true,
        seed: 42,
    }
}

pub fn run(_: &[String]) -> Json {
    let plain = spec();
    let compiled = compile_constraints(&plain).unwrap();
    let mut rows = Vec::new();
    for scale in [1usize, 2, 4] {
        let data = flat_config(scale).generate().unwrap();
        let args = [("date", Value::str(&data.dates[0]))];
        let opts_on = EvalOptions::default();
        let opts_off = EvalOptions {
            check_guards: false,
            ..EvalOptions::default()
        };

        let t0 = Instant::now();
        let base = evaluate_with(&plain, &data.catalog, &args, &opts_off).unwrap();
        let t_plain = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let guarded = evaluate_with(&compiled, &data.catalog, &args, &opts_on).unwrap();
        let t_guarded = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let oracle_run = evaluate_with(&plain, &data.catalog, &args, &opts_off).unwrap();
        let ok = plain.constraints.satisfied(&oracle_run.tree);
        let t_oracle = t0.elapsed().as_secs_f64();
        // The three timings measure one document: a guard or the oracle
        // disagreeing with it would make the comparison meaningless.
        assert!(ok, "σ0's document violates its own constraints");
        assert_eq!(
            base.tree, guarded.tree,
            "compiled guards changed the document"
        );

        let vs_plain = |t: f64| format!("{t:.3} ({:+.0}%)", (t / t_plain - 1.0) * 100.0);
        rows.push(vec![
            format!("x{scale}"),
            format!("{t_plain:.3}"),
            vs_plain(t_guarded),
            vs_plain(t_oracle),
            guarded.stats.guard_checks.to_string(),
        ]);
    }
    println!("Ablation C: constraint-checking overhead (conceptual evaluation of σ0)\n");
    println!("{}", markdown_table(&HEADER, &rows));
    Json::obj(vec![("rows", table_json(&HEADER, &rows))])
}
