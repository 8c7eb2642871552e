//! The repo benchmark: four wall-clock workloads from AIG text to
//! serialized XML, with a traced per-layer profile. See `README.md`.
//!
//! ```text
//! aig-benchmark --workload <name> --seed <n> --seconds <n> --trace <0|1>
//!     one run of one workload: metrics by name, then the result as one
//!     JSON object on the last line; exit 1 if any op failed.
//! aig-benchmark [--seed <n>] [--seconds <n>] [--quick] [--selfcheck]
//!     a set: every workload, untraced then traced, each run in a fresh
//!     child process. --selfcheck runs two sets and compares them.
//! ```

mod alloc;
mod inputs;
mod suite;
mod timed;
mod trace;
mod traced;
mod workloads;

use aig_mediator::Json;
use std::process::ExitCode;
use timed::Outcome;
use workloads::Workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: f64 = 10.0;

pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny data and the minimum pass count: a smoke scale, never a baseline.
    pub quick: bool,
    pub selfcheck: bool,
    /// Self-test hook: corrupt one expected document, expect exit 1.
    pub corrupt_oracle: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        selfcheck: false,
        corrupt_oracle: false,
    };
    let mut seconds = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => args.quick = true,
            "--selfcheck" => args.selfcheck = true,
            "--corrupt-oracle" => args.corrupt_oracle = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    // `--quick` measures the minimum pass count unless told otherwise.
    args.seconds = seconds.unwrap_or(if args.quick { 0.0 } else { DEFAULT_SECONDS });
    if !(0.0..=600.0).contains(&args.seconds) {
        return Err(format!("--seconds out of range: {}", args.seconds));
    }
    Ok(args)
}

/// Every metric by name with its unit, then the contract's JSON line.
fn print_outcome(workload: Workload, outcome: &Outcome) {
    let mut metrics = Vec::new();
    for m in &outcome.metrics {
        assert!(m.value.is_finite(), "{} is not a number", m.name);
        println!("{} {} {} {}", workload.name(), m.name, m.value, m.unit);
        let value = Json::obj(vec![
            ("value", Json::num(m.value)),
            ("unit", Json::str(m.unit)),
        ]);
        metrics.push((m.name.clone(), value));
    }
    let result = Json::obj(vec![
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::num(outcome.attempted as f64)),
        ("failed", Json::num(outcome.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.to_compact());
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("aig-benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    let ok = match args.workload {
        Some(workload) => {
            let run = if args.trace { traced::run } else { timed::run };
            let outcome = run(workload, &args);
            print_outcome(workload, &outcome);
            outcome.failed == 0
        }
        None if args.selfcheck => suite::selfcheck(&args),
        None => suite::run_set(&args).is_some_and(|set| set.correct),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
