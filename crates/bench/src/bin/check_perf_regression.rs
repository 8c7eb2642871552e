//! Perf-regression gate for the committed bench artifacts.
//!
//! Usage: `check_perf_regression <baseline_dir> <current_dir>`
//!
//! Compares freshly regenerated `BENCH_fig10.json`,
//! `BENCH_ablation_dynamic_live.json`, `BENCH_ablation_plan_cache.json`,
//! `BENCH_shipcut.json`, `BENCH_columnar.json`, `BENCH_integrity.json`,
//! `BENCH_server.json`, `BENCH_streaming.json` and `BENCH_deltas.json`
//! against the committed baselines. The
//! simulated quantities (merging ratios, predicted speedups) are
//! deterministic and get a tight relative band; wall-clock quantities
//! (phase timers, live speedups) vary with the machine, so they only fail
//! on large factors — the gate catches an accidental quadratic blowup, not
//! a noisy CI runner.
//!
//! Bands are **one-sided** wherever a quantity has a better direction
//! ([`Better`]): a faster wall, a smaller shipment or a larger speedup than
//! the baseline never fails, however far it moved. Only ledger counts,
//! which are meant to reproduce, keep a symmetric band.

use aig_mediator::json::parse;
use aig_mediator::Json;
use std::cell::{Cell, RefCell};
use std::process::ExitCode;

/// Relative tolerance for deterministic simulated quantities.
const SIM_TOLERANCE: f64 = 0.25;
/// Relative tolerance for live (wall-clock-derived) speedups.
const LIVE_TOLERANCE: f64 = 0.30;
/// A phase may regress by this factor plus the absolute floor before it
/// fails (timers well under the floor are pure noise).
const PHASE_FACTOR: f64 = 3.0;
const PHASE_FLOOR_SECS: f64 = 0.05;

/// Which way a banded quantity may move without failing the gate.
#[derive(Clone, Copy)]
enum Better {
    /// Times, bytes, ratios of cost: only an increase past the band fails.
    Lower,
    /// Speedups: only a decrease past the band fails.
    Higher,
    /// Ledger counts that should reproduce: drift either way fails.
    Neither,
}

#[derive(Default)]
struct Gate {
    failures: RefCell<Vec<String>>,
    checks: Cell<usize>,
    /// The bench artifact being checked, named by a missing-key failure.
    artifact: Cell<&'static str>,
}

impl Gate {
    fn fail(&self, failure: String) {
        let mut failures = self.failures.borrow_mut();
        if !failures.contains(&failure) {
            failures.push(failure);
        }
    }

    /// The numeric field `key` of `json`. A missing (or non-numeric) key is
    /// a failure naming it; the NaN returned in its place makes no band
    /// fail a second time.
    fn num(&self, json: &Json, key: &str) -> f64 {
        json.get(key).and_then(Json::as_f64).unwrap_or_else(|| {
            self.fail(format!(
                "{}: missing numeric field `{key}`",
                self.artifact.get()
            ));
            f64::NAN
        })
    }

    fn within(&self, what: &str, baseline: f64, current: f64, tolerance: f64, better: Better) {
        self.checks.set(self.checks.get() + 1);
        if baseline == 0.0 {
            if current.abs() > 1e-9 {
                self.fail(format!("{what}: baseline 0, current {current}"));
            }
            return;
        }
        let drift = current / baseline - 1.0;
        let (worse, band) = match better {
            Better::Lower => (drift > tolerance, "+"),
            Better::Higher => (drift < -tolerance, "-"),
            Better::Neither => (drift.abs() > tolerance, "±"),
        };
        if worse {
            self.fail(format!(
                "{what}: {baseline:.4} -> {current:.4} ({:+.1}% beyond {band}{:.0}%)",
                drift * 100.0,
                tolerance * 100.0
            ));
        }
    }

    fn bounded(&self, what: &str, baseline: f64, current: f64) {
        self.checks.set(self.checks.get() + 1);
        let bound = baseline * PHASE_FACTOR + PHASE_FLOOR_SECS;
        if current > bound {
            self.fail(format!(
                "{what}: {current:.4}s exceeds {bound:.4}s ({baseline:.4}s baseline x{PHASE_FACTOR} + {PHASE_FLOOR_SECS}s)"
            ));
        }
    }

    fn require(&self, what: &str, ok: bool) {
        self.checks.set(self.checks.get() + 1);
        if !ok {
            self.fail(what.to_string());
        }
    }
}

fn load(dir: &str, name: &str) -> Json {
    let path = format!("{dir}/{name}");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    parse(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

fn check_fig10(gate: &Gate, baseline: &Json, current: &Json) {
    // Merging ratios are simulated, hence deterministic up to measured
    // byte sizes: match the cells by (dataset, unfold).
    let base_cells = baseline.get("cells").and_then(Json::as_arr).unwrap_or(&[]);
    let cur_cells = current.get("cells").and_then(Json::as_arr).unwrap_or(&[]);
    gate.require(
        "fig10: cell count changed",
        base_cells.len() == cur_cells.len(),
    );
    for base in base_cells {
        let dataset = base.get("dataset").and_then(Json::as_str).unwrap_or("?");
        let unfold = gate.num(base, "unfold");
        let Some(cur) = cur_cells.iter().find(|c| {
            c.get("dataset").and_then(Json::as_str) == Some(dataset)
                && c.get("unfold").and_then(Json::as_f64) == Some(unfold)
        }) else {
            gate.require(&format!("fig10 cell {dataset}/{unfold}: missing"), false);
            continue;
        };
        gate.within(
            &format!("fig10 {dataset}/unfold {unfold} merging ratio"),
            gate.num(base, "ratio"),
            gate.num(cur, "ratio"),
            SIM_TOLERANCE,
            Better::Higher,
        );
    }
    // Phase timers are wall-clock: only large factors fail.
    let phases = |j: &Json| -> Vec<(String, f64)> {
        j.get("report")
            .and_then(|r| r.get("phases"))
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|p| {
                (
                    p.get("name")
                        .and_then(Json::as_str)
                        .unwrap_or("?")
                        .to_string(),
                    gate.num(p, "secs"),
                )
            })
            .collect()
    };
    let cur_phases = phases(current);
    for (name, base_secs) in phases(baseline) {
        if let Some((_, cur_secs)) = cur_phases.iter().find(|(n, _)| *n == name) {
            gate.bounded(&format!("fig10 phase {name}"), base_secs, *cur_secs);
        }
    }
}

fn check_dynamic_live(gate: &Gate, baseline: &Json, current: &Json) {
    gate.within(
        "dynamic_live predicted speedup",
        gate.num(baseline, "predicted_speedup"),
        gate.num(current, "predicted_speedup"),
        SIM_TOLERANCE,
        Better::Higher,
    );
    gate.within(
        "dynamic_live live speedup",
        gate.num(baseline, "live_speedup"),
        gate.num(current, "live_speedup"),
        LIVE_TOLERANCE,
        Better::Higher,
    );
    gate.require(
        "dynamic_live: live run disagrees with the simulator beyond ±20%",
        current
            .get("within_tolerance")
            .and_then(Json::as_bool)
            .unwrap_or(false),
    );
    gate.require(
        "dynamic_live: live dynamic no longer beats static",
        gate.num(current, "live_speedup") > 1.05,
    );
}

fn check_plan_cache(gate: &Gate, baseline: &Json, current: &Json) {
    // The amortized ratio is wall-clock-derived but its headline claim —
    // warm requests cost less than half a cold pipeline — must hold on any
    // machine, so it is a hard requirement, not a drift band.
    gate.require(
        "plan_cache: warm requests no longer cost < 0.5x a cold pipeline",
        gate.num(current, "amortized_ratio") < 0.5,
    );
    gate.within(
        "plan_cache amortized ratio",
        gate.num(baseline, "amortized_ratio"),
        gate.num(current, "amortized_ratio"),
        LIVE_TOLERANCE,
        Better::Lower,
    );
    gate.require(
        "plan_cache: warm requests stopped hitting the cache in one round",
        gate.num(current, "warm_unfold_rounds") == 1.0 && gate.num(current, "cache_misses") <= 3.0,
    );
    gate.bounded(
        "plan_cache warm per-request",
        gate.num(baseline, "warm_per_request_secs"),
        gate.num(current, "warm_per_request_secs"),
    );
}

fn check_shipcut(gate: &Gate, baseline: &Json, current: &Json) {
    // The two headline claims hold on any machine: pruning strictly reduces
    // the shipped bytes and never changes the document.
    gate.require(
        "shipcut: shipped bytes no longer strictly reduced",
        gate.num(current, "saved_bytes") > 0.0
            && gate.num(current, "shipped_cut_bytes") < gate.num(current, "shipped_full_bytes"),
    );
    gate.require(
        "shipcut: documents are no longer byte-identical across pruning/threads",
        current
            .get("docs_identical")
            .and_then(Json::as_bool)
            .unwrap_or(false),
    );
    gate.require(
        "shipcut: pruned response time exceeds the unpruned one",
        gate.num(current, "response_on_secs") <= gate.num(current, "response_off_secs"),
    );
    // Byte counts and simulated responses are deterministic up to measured
    // eval times: a tight drift band against the committed baseline.
    gate.within(
        "shipcut shipped bytes (pruned)",
        gate.num(baseline, "shipped_cut_bytes"),
        gate.num(current, "shipped_cut_bytes"),
        SIM_TOLERANCE,
        Better::Lower,
    );
    gate.within(
        "shipcut response with pruning",
        gate.num(baseline, "response_on_secs"),
        gate.num(current, "response_on_secs"),
        SIM_TOLERANCE,
        Better::Lower,
    );
    // Wall clocks only fail on large factors.
    gate.bounded(
        "shipcut cold wall (pruned)",
        gate.num(baseline, "cold_on_wall_secs"),
        gate.num(current, "cold_on_wall_secs"),
    );
    gate.bounded(
        "shipcut warm per-request",
        gate.num(baseline, "warm_per_request_secs"),
        gate.num(current, "warm_per_request_secs"),
    );
}

fn check_columnar(gate: &Gate, baseline: &Json, current: &Json, fig10_current: &Json) {
    // Hard, machine-independent claims of the columnar storage: the
    // dictionary-encoded wire representation is strictly smaller than the
    // raw row-major bytes of the same shipments, the interned kernels beat
    // their row-major emulations, and the document does not depend on the
    // thread count.
    gate.require(
        "columnar: wire size no longer strictly below the row-major bytes",
        gate.num(current, "wire_bytes") < gate.num(current, "row_major_bytes"),
    );
    gate.require(
        "columnar: DISTINCT no longer beats the row-major emulation",
        gate.num(current, "distinct_speedup") > 1.0,
    );
    gate.require(
        "columnar: projection no longer beats the row-major emulation",
        gate.num(current, "project_speedup") > 1.0,
    );
    gate.require(
        "columnar: documents are no longer byte-identical across threads",
        current
            .get("docs_identical")
            .and_then(Json::as_bool)
            .unwrap_or(false),
    );
    // Tie the run to the committed Fig. 10 workload: the same (dataset,
    // unfold) cell must exist and the columnar response must not regress
    // past it beyond the simulated-drift band.
    let dataset = current.get("dataset").and_then(Json::as_str).unwrap_or("?");
    let unfold = gate.num(current, "unfold");
    let cell = fig10_current
        .get("cells")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .find(|c| {
            c.get("dataset").and_then(Json::as_str) == Some(dataset)
                && c.get("unfold").and_then(Json::as_f64) == Some(unfold)
        })
        .cloned();
    match cell {
        Some(cell) => gate.require(
            "columnar: response regressed past the Fig. 10 cell",
            gate.num(current, "response_merged_secs")
                <= gate.num(&cell, "response_merged_secs") * (1.0 + SIM_TOLERANCE),
        ),
        None => gate.require(
            &format!("columnar: no Fig. 10 cell for {dataset}/unfold {unfold}"),
            false,
        ),
    }
    // Byte counts are deterministic; walls only fail on large factors.
    gate.within(
        "columnar wire bytes",
        gate.num(baseline, "wire_bytes"),
        gate.num(current, "wire_bytes"),
        SIM_TOLERANCE,
        Better::Lower,
    );
    gate.within(
        "columnar response merged",
        gate.num(baseline, "response_merged_secs"),
        gate.num(current, "response_merged_secs"),
        SIM_TOLERANCE,
        Better::Lower,
    );
    gate.bounded(
        "columnar cold wall",
        gate.num(baseline, "cold_wall_secs"),
        gate.num(current, "cold_wall_secs"),
    );
    gate.bounded(
        "columnar DISTINCT kernel",
        gate.num(baseline, "columnar_distinct_secs"),
        gate.num(current, "columnar_distinct_secs"),
    );
}

fn check_integrity(gate: &Gate, baseline: &Json, current: &Json) {
    // The headline claims are machine-independent hard requirements: the
    // sweep injects corruption, none of it goes undetected, every defended
    // document is byte-identical to the clean run — and the defense-off
    // control proves the schedule really does publish wrong answers when
    // nobody checks (otherwise the sweep is vacuous).
    gate.require(
        "integrity: the sweep no longer injects corruption",
        gate.num(current, "injected_total") > 0.0,
    );
    gate.require(
        "integrity: corruption slipped past the defense",
        gate.num(current, "undetected_with_defense") == 0.0
            && gate.num(current, "masked_total") == gate.num(current, "injected_total"),
    );
    gate.require(
        "integrity: defended documents are no longer byte-identical",
        current
            .get("docs_identical")
            .and_then(Json::as_bool)
            .unwrap_or(false),
    );
    gate.require(
        "integrity: the defense-off control no longer publishes a wrong answer",
        gate.num(current, "defense_off_undetected") > 0.0
            && !current
                .get("defense_off_doc_identical")
                .and_then(Json::as_bool)
                .unwrap_or(true),
    );
    // The injection schedule is a pure function of (seed, catalog): the
    // totals track the committed baseline tightly.
    gate.within(
        "integrity injected corruptions",
        gate.num(baseline, "injected_total"),
        gate.num(current, "injected_total"),
        SIM_TOLERANCE,
        Better::Neither,
    );
    // Wall clocks only fail on large factors.
    gate.bounded(
        "integrity checked clean wall",
        gate.num(baseline, "checked_wall_secs"),
        gate.num(current, "checked_wall_secs"),
    );
}

fn check_server(gate: &Gate, baseline: &Json, current: &Json) {
    // The server ledger is machine-independent by construction — arrivals,
    // service times, fault stalls, and probe jitter all run on the logical
    // clock — so the structural claims are hard requirements on any host.
    gate.require(
        "server: ledger identities no longer balance",
        current
            .get("balanced")
            .and_then(Json::as_bool)
            .unwrap_or(false),
    );
    gate.require(
        "server: requests were silently dropped (offered != terminated)",
        gate.num(current, "silent_drops") == 0.0,
    );
    gate.require(
        "server: admission control stopped rejecting under overload",
        gate.num(current, "rejected") > 0.0,
    );
    gate.require(
        "server: no deadline was ever exceeded (budget plumbing is dead)",
        gate.num(current, "deadline_exceeded") > 0.0,
    );
    gate.require(
        "server: the breaker lifecycle went quiet (no trip/probe/close)",
        gate.num(current, "breaker_trips") > 0.0
            && gate.num(current, "breaker_probes") > 0.0
            && gate.num(current, "breaker_closes") > 0.0,
    );
    gate.require(
        "server: nothing was served degraded through the outage storms",
        gate.num(current, "degraded") > 0.0,
    );
    gate.require(
        "server: nothing completed cleanly",
        gate.num(current, "completed") > 0.0,
    );
    // Ledger counts and latency percentiles are deterministic simulated
    // quantities: tight drift bands against the committed baseline, the
    // counts either way, the latencies only upward.
    for (key, better) in [
        ("admitted", Better::Neither),
        ("rejected", Better::Neither),
        ("completed", Better::Neither),
        ("deadline_exceeded", Better::Neither),
        ("degraded", Better::Neither),
        ("failed", Better::Neither),
        ("p50_secs", Better::Lower),
        ("p99_secs", Better::Lower),
    ] {
        gate.within(
            &format!("server {key}"),
            gate.num(baseline, key),
            gate.num(current, key),
            SIM_TOLERANCE,
            better,
        );
    }
}

fn check_streaming(gate: &Gate, baseline: &Json, current: &Json) {
    // Machine-independent hard claims of chunked shipment: the document is
    // byte-identical to the materializing run, 256-row chunks bound peak
    // residency strictly below materializing the largest relation, and
    // shrinking the chunk size increases the batch count.
    gate.require(
        "streaming: documents are no longer byte-identical across batch sizes",
        current
            .get("docs_identical")
            .and_then(Json::as_bool)
            .unwrap_or(false),
    );
    gate.require(
        "streaming: 256-row chunks no longer bound peak residency below materializing",
        gate.num(current, "peak_256_rows") < gate.num(current, "peak_mat_rows"),
    );
    gate.require(
        "streaming: smaller chunks no longer yield more batches",
        gate.num(current, "batches_256") > gate.num(current, "batches_2048"),
    );
    gate.require(
        "streaming: the simulated pipelining credit went negative",
        gate.num(current, "overlap_256_secs") >= 0.0,
    );
    // Batch counts and peaks are pure functions of the (seeded) dataset and
    // the chunk size; responses are simulated. Tight drift bands.
    for (key, better) in [
        ("peak_256_rows", Better::Lower),
        ("batches_256", Better::Neither),
        ("response_mat_secs", Better::Lower),
        ("response_256_secs", Better::Lower),
    ] {
        gate.within(
            &format!("streaming {key}"),
            gate.num(baseline, key),
            gate.num(current, key),
            SIM_TOLERANCE,
            better,
        );
    }
    // Wall clocks only fail on large factors.
    gate.bounded(
        "streaming wall (256-row chunks)",
        gate.num(baseline, "wall_256_secs"),
        gate.num(current, "wall_256_secs"),
    );
}

fn check_deltas(gate: &Gate, baseline: &Json, current: &Json) {
    let cell = |json: &Json, scope: &str| -> Json {
        json.get(scope).cloned().unwrap_or_else(|| {
            gate.fail(format!("deltas: missing scope `{scope}`"));
            Json::Null
        })
    };
    // Machine-independent hard claims of incremental re-evaluation: the
    // incremental document is byte-identical to a cold full run over the
    // post-delta catalog in every scope, an empty delta re-runs nothing,
    // single-/few-table deltas re-run strictly less than the whole graph,
    // and the re-run count is monotone across the nested widening scopes.
    gate.require(
        "deltas: incremental documents are no longer byte-identical to cold runs",
        current
            .get("identical")
            .and_then(Json::as_bool)
            .unwrap_or(false),
    );
    let none = cell(current, "none");
    let price = cell(current, "price");
    let price_cover = cell(current, "price_cover");
    let all = cell(current, "price_cover_visits");
    gate.require(
        "deltas: an empty delta re-ran tasks",
        gate.num(&none, "tasks_rerun") == 0.0,
    );
    gate.require(
        "deltas: a price delta no longer re-runs a small subgraph (< 1/3 of tasks)",
        gate.num(&price, "tasks_rerun") * 3.0 < gate.num(&price, "tasks_total"),
    );
    gate.require(
        "deltas: a table delta re-ran the whole graph",
        gate.num(&all, "tasks_rerun") < gate.num(&all, "tasks_total"),
    );
    gate.require(
        "deltas: re-run counts are not monotone across widening scopes",
        gate.num(&none, "tasks_rerun") <= gate.num(&price, "tasks_rerun")
            && gate.num(&price, "tasks_rerun") <= gate.num(&price_cover, "tasks_rerun")
            && gate.num(&price_cover, "tasks_rerun") <= gate.num(&all, "tasks_rerun"),
    );
    // Re-run counts and splice sizes are pure functions of the seeded
    // dataset and the seeded deltas. Tight drift bands.
    for key in ["tasks_rerun", "rows_spliced"] {
        gate.within(
            &format!("deltas price {key}"),
            gate.num(&cell(baseline, "price"), key),
            gate.num(&price, key),
            SIM_TOLERANCE,
            Better::Neither,
        );
    }
    // Wall clocks only fail on large factors.
    gate.bounded(
        "deltas incremental wall (price scope)",
        gate.num(&cell(baseline, "price"), "wall_incr_secs"),
        gate.num(&price, "wall_incr_secs"),
    );
    gate.bounded(
        "deltas full-run wall (price scope)",
        gate.num(&cell(baseline, "price"), "wall_full_secs"),
        gate.num(&price, "wall_full_secs"),
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let [_, baseline_dir, current_dir] = &args[..] else {
        eprintln!("usage: check_perf_regression <baseline_dir> <current_dir>");
        return ExitCode::from(2);
    };
    let gate = Gate::default();
    let pair = |artifact: &'static str| {
        gate.artifact.set(artifact);
        (load(baseline_dir, artifact), load(current_dir, artifact))
    };
    let (baseline, fig10_current) = pair("BENCH_fig10.json");
    check_fig10(&gate, &baseline, &fig10_current);
    let (baseline, current) = pair("BENCH_ablation_dynamic_live.json");
    check_dynamic_live(&gate, &baseline, &current);
    let (baseline, current) = pair("BENCH_ablation_plan_cache.json");
    check_plan_cache(&gate, &baseline, &current);
    let (baseline, current) = pair("BENCH_shipcut.json");
    check_shipcut(&gate, &baseline, &current);
    let (baseline, current) = pair("BENCH_columnar.json");
    check_columnar(&gate, &baseline, &current, &fig10_current);
    let (baseline, current) = pair("BENCH_integrity.json");
    check_integrity(&gate, &baseline, &current);
    let (baseline, current) = pair("BENCH_server.json");
    check_server(&gate, &baseline, &current);
    let (baseline, current) = pair("BENCH_streaming.json");
    check_streaming(&gate, &baseline, &current);
    let (baseline, current) = pair("BENCH_deltas.json");
    check_deltas(&gate, &baseline, &current);
    let (failures, checks) = (gate.failures.into_inner(), gate.checks.get());
    if failures.is_empty() {
        println!("perf regression gate: {checks} checks passed");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perf regression gate: {}/{checks} checks failed",
            failures.len()
        );
        for f in &failures {
            eprintln!("  FAIL {f}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plan-cache bench document: a lower-is-better ratio and a wall.
    fn plan_cache(amortized_ratio: f64, warm_per_request_secs: f64) -> Json {
        Json::obj(vec![
            ("amortized_ratio", Json::num(amortized_ratio)),
            ("warm_unfold_rounds", Json::num(1.0)),
            ("cache_misses", Json::num(2.0)),
            ("warm_per_request_secs", Json::num(warm_per_request_secs)),
        ])
    }

    fn failures(baseline: &Json, current: &Json) -> Vec<String> {
        let gate = Gate::default();
        gate.artifact.set("plan_cache.json");
        check_plan_cache(&gate, baseline, current);
        assert_eq!(gate.checks.get(), 4);
        gate.failures.into_inner()
    }

    #[test]
    fn getting_faster_passes_and_getting_slower_fails() {
        let baseline = plan_cache(0.312, 0.0457);
        assert_eq!(failures(&baseline, &baseline), Vec::<String>::new());
        // Twice as fast: outside the old symmetric ±30 % band, and fine.
        assert_eq!(
            failures(&baseline, &plan_cache(0.156, 0.0228)),
            Vec::<String>::new()
        );
        // The worse side of the band still fails...
        let worse = failures(&baseline, &plan_cache(0.45, 0.0457));
        assert_eq!(worse.len(), 1, "{worse:?}");
        assert!(
            worse[0].starts_with("plan_cache amortized ratio"),
            "{worse:?}"
        );
        // ... and so does a wall ten times slower.
        let slow = failures(&baseline, &plan_cache(0.312, 0.457));
        assert_eq!(slow.len(), 1, "{slow:?}");
        assert!(
            slow[0].starts_with("plan_cache warm per-request"),
            "{slow:?}"
        );
    }

    #[test]
    fn each_direction_fails_only_on_its_worse_side() {
        for (better, current, fails) in [
            (Better::Lower, 50.0, false),
            (Better::Lower, 150.0, true),
            (Better::Higher, 150.0, false),
            (Better::Higher, 50.0, true),
            (Better::Neither, 50.0, true),
            (Better::Neither, 150.0, true),
            (Better::Neither, 110.0, false),
        ] {
            let gate = Gate::default();
            gate.within("x", 100.0, current, SIM_TOLERANCE, better);
            assert_eq!(
                gate.failures.into_inner().len(),
                usize::from(fails),
                "{current}"
            );
        }
    }

    #[test]
    fn a_missing_key_is_a_named_failure_not_a_panic() {
        let baseline = plan_cache(0.312, 0.0457);
        let current = Json::obj(vec![("amortized_ratio", Json::num(0.3))]);
        let got = failures(&baseline, &current);
        for key in ["warm_unfold_rounds", "warm_per_request_secs"] {
            let named = format!("plan_cache.json: missing numeric field `{key}`");
            assert!(got.contains(&named), "{key} not named in {got:?}");
        }
        let gate = Gate::default();
        check_deltas(&gate, &Json::obj(vec![]), &Json::obj(vec![]));
        let got = gate.failures.into_inner();
        assert!(
            got.contains(&"deltas: missing scope `price`".to_string()),
            "{got:?}"
        );
    }
}
