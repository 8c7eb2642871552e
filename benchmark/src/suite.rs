//! A *set*: every workload, untraced then traced. The `Sym` interner and
//! the allocation counters are process-global, so each run gets a fresh
//! child process of this same executable. `--selfcheck` runs two sets and
//! holds their difference against the bounds in `BENCHMARK.json`.

use crate::workloads::Workload;
use crate::Args;
use aig_mediator::json::{self, Json};
use std::path::Path;
use std::process::Command;

/// One child run: its verdict and its metrics as `(name, value, unit)`.
struct Run {
    workload: Workload,
    trace: bool,
    metrics: Vec<(String, f64, String)>,
}

pub struct Set {
    pub correct: bool,
    runs: Vec<Run>,
}

fn child(args: &Args, workload: Workload, trace: bool) -> Option<(bool, Run)> {
    let mut command = Command::new(std::env::current_exe().ok()?);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        command.arg("--quick");
    }
    if args.corrupt_oracle {
        command.arg("--corrupt-oracle");
    }
    // `output` waits for the child to end.
    let output = command.output().ok()?;
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8(output.stdout).ok()?;
    let result = json::parse(stdout.lines().last()?).ok()?;
    let correct = result.get("correct")?.as_bool()? && output.status.success();
    let Json::Obj(fields) = result.get("metrics")? else {
        return None;
    };
    let metrics = fields
        .iter()
        .map(|(name, m)| {
            Some((
                name.clone(),
                m.get("value")?.as_f64()?,
                m.get("unit")?.as_str()?.to_string(),
            ))
        })
        .collect::<Option<_>>()?;
    Some((
        correct,
        Run {
            workload,
            trace,
            metrics,
        },
    ))
}

/// Runs and prints one set: every metric once, as
/// `<workload> <metric> <value> <unit>`. `None` if a child broke down.
pub fn run_set(args: &Args) -> Option<Set> {
    let mut set = Set {
        correct: true,
        runs: Vec::new(),
    };
    for workload in Workload::ALL {
        for trace in [false, true] {
            let (correct, run) = child(args, workload, trace).or_else(|| {
                eprintln!(
                    "{}: the run (trace {}) printed no result",
                    workload.name(),
                    trace as u8
                );
                None
            })?;
            for (name, value, unit) in &run.metrics {
                println!("{} {name} {value} {unit}", workload.name());
            }
            if !correct {
                println!("{}: FAILED ops (trace {})", workload.name(), trace as u8);
            }
            set.correct &= correct;
            set.runs.push(run);
        }
    }
    Some(set)
}

/// `end_to_end` bounds by metric name, from the `BENCHMARK.json` one
/// directory above this package.
fn bounds() -> Option<Vec<(String, f64)>> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    spec.get("end_to_end")?
        .as_arr()?
        .iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// Counts that must repeat exactly on the single-threaded workloads: the
/// bytes on the simulated wire and every per-layer count read from a
/// returned value. Allocation counts are left out — `HashMap`'s per-process
/// hash seed moves them by a few tenths of a percent — and so are the
/// sample count, which follows the clock, and the size of the rendered
/// report, which spells out wall-clock numbers.
fn must_repeat(run: &Run, name: &str, unit: &str) -> bool {
    let counted = run.trace
        && matches!(unit, "count" | "rows" | "B")
        && !name.ends_with(".allocs")
        && name != "request.samples"
        && name != "mediator.obs.report_json.bytes_out";
    run.workload != Workload::ReportModesOn && (counted || name == "wire_kb_per_req")
}

/// Two sets back to back on one seed. Fails if an end-to-end metric moved
/// by more than its bound between them, or a count that must repeat did
/// not; the other per-layer metrics are printed with their difference and
/// not judged (they have no bound).
pub fn selfcheck(args: &Args) -> bool {
    let Some(bounds) = bounds() else {
        eprintln!("selfcheck: cannot read the bounds from BENCHMARK.json");
        return false;
    };
    let (Some(first), Some(second)) = (run_set(args), run_set(args)) else {
        return false;
    };
    let mut ok = first.correct && second.correct;
    println!("\nselfcheck: second set against the first");
    for (a, b) in first.runs.iter().zip(&second.runs) {
        for ((name, x, unit), (_, y, _)) in a.metrics.iter().zip(&b.metrics) {
            let diff = if x == y {
                0.0
            } else {
                (y - x).abs() / x.abs().max(y.abs())
            };
            let bound = bounds.iter().find(|(n, _)| n == name).map(|(_, b)| *b);
            let verdict = match bound {
                Some(bound) if !a.trace && diff > bound => {
                    ok = false;
                    format!("  EXCEEDS its bound {:.1}%", bound * 100.0)
                }
                _ if must_repeat(a, name, unit) && x != y => {
                    ok = false;
                    "  DID NOT REPEAT".to_string()
                }
                _ => String::new(),
            };
            println!(
                "{} {name} {x} -> {y} {unit} ({:+.2}%){verdict}",
                a.workload.name(),
                diff * 100.0
            );
        }
    }
    println!("selfcheck: {}", if ok { "within bounds" } else { "FAILED" });
    ok
}
