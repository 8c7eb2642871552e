//! `bench` — the paper's evaluation (§6) and its ablations as one binary.
//!
//! ```text
//! bench <experiment> [flags]            run it, write BENCH_<artifact>.json, check its requirements
//! bench all                             regenerate every artifact the gate knows
//! bench check <baseline_dir> <current_dir>
//! bench merge-trace [unfold]            dump one Fig. 10 cell's graph, plan and merges (stderr)
//! ```
//!
//! Artifacts are written to the current directory. `fig10` takes
//! `--mbps <f64>` and `--explain`; EXPERIMENTS.md describes every
//! experiment and `gate.rs` every claim checked.

mod experiments;
mod gate;

use aig_bench::{write_bench_json, Json};
use experiments::*;
use gate::Gate;
use std::process::ExitCode;

/// `(subcommand, artifact, run)`: `run` prints its table and returns the
/// artifact written as `BENCH_<artifact>.json`.
type Experiment = (&'static str, &'static str, fn(&[String]) -> Json);

const EXPERIMENTS: &[Experiment] = &[
    ("table1", "table1", table1::run),
    ("fig10", "fig10", fig10::run),
    ("schedule", "ablation_schedule", schedule::run),
    ("bandwidth", "ablation_bandwidth", bandwidth::run),
    ("constraints", "ablation_constraints", constraints::run),
    ("decompose", "ablation_decompose", decompose::run),
    ("dynamic", "ablation_dynamic", dynamic::run),
    ("dynamic-live", "ablation_dynamic_live", dynamic_live::run),
    ("faults", "ablation_faults", faults::run),
    ("plan-cache", "ablation_plan_cache", plan_cache::run),
    ("shipcut", "shipcut", shipcut::run),
    ("integrity", "integrity", integrity::run),
    ("server", "server", server::run),
    ("streaming", "streaming", streaming::run),
    ("deltas", "deltas", deltas::run),
];

/// Runs one experiment, writes its artifact, and checks the artifact's
/// requirements into `gate`.
fn run(gate: &mut Gate, &(_, artifact, run): &Experiment, args: &[String]) {
    let json = run(args);
    write_bench_json(artifact, &json);
    gate.requirements(artifact, &json);
}

fn verdict(what: &str, gate: Gate) -> ExitCode {
    if gate.failures.is_empty() {
        println!("{what}: {} checks passed", gate.checks);
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "{what}: {}/{} checks failed",
        gate.failures.len(),
        gate.checks
    );
    for failure in &gate.failures {
        eprintln!("  FAIL {failure}");
    }
    ExitCode::FAILURE
}

fn usage() -> ExitCode {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
    eprintln!(
        "usage: bench <experiment> [flags] | all | check <baseline_dir> <current_dir> | merge-trace [unfold]\n\
         experiments: {}",
        names.join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return usage();
    };
    let mut gate = Gate::default();
    match command.as_str() {
        "check" => {
            let [baseline, current] = rest else {
                return usage();
            };
            verdict("perf regression gate", gate::check_dirs(baseline, current))
        }
        "merge-trace" => {
            merge_trace::run(rest);
            ExitCode::SUCCESS
        }
        "all" if rest.is_empty() => {
            let gated = gate::artifacts();
            for experiment in EXPERIMENTS.iter().filter(|e| gated.contains(&e.1)) {
                run(&mut gate, experiment, &[]);
            }
            verdict("requirements", gate)
        }
        name => match EXPERIMENTS.iter().find(|e| e.0 == name) {
            Some(experiment) => {
                run(&mut gate, experiment, rest);
                verdict("requirements", gate)
            }
            None => usage(),
        },
    }
}
