//! The perf-regression gate over the committed bench artifacts.
//!
//! Every claim lives in one of two tables:
//!
//! * [`REQUIREMENTS`] are hard, machine-independent claims (byte-identical
//!   documents, balanced ledgers, a speedup above its floor). They read the
//!   *current* artifact only. `bench <experiment>` checks its own rows right
//!   after writing the artifact.
//! * [`BANDS`] and [`WALLS`] compare the current artifact with a baseline.
//!   Simulated quantities (merging ratios, predicted speedups, ledger counts)
//!   are deterministic and get a tight relative band. Wall clocks vary with
//!   the machine, so they only fail on large factors ([`wall_bound`]): the gate
//!   catches an accidental quadratic blowup, not a noisy CI runner.
//!
//! Bands are **one-sided** wherever a quantity has a better direction
//! ([`Better`]): a faster wall, a smaller shipment or a larger speedup than
//! the baseline never fails, however far it moved. A count of *work* the
//! system does (tasks re-run, rows spliced, batches shipped) is
//! [`Better::Lower`]: its identity requirement already proves the remaining
//! work correct, so doing less of it is never a regression. Only a count
//! that measures the *sweep's own coverage* (corruptions injected, the
//! server ledger) keeps a symmetric band: drift there means the experiment
//! changed, not the system under test.

use aig_mediator::json::parse;
use aig_mediator::Json;
use Better::{Higher, Lower, Neither};

/// Relative tolerance for deterministic simulated quantities.
const SIM: f64 = 0.25;
/// Relative tolerance for live (wall-clock-derived) ratios.
const LIVE: f64 = 0.30;
/// A wall may regress by this factor plus the absolute floor before it
/// fails (timers well under the floor are pure noise).
const WALL_FACTOR: f64 = 3.0;
const WALL_FLOOR_SECS: f64 = 0.05;

/// Which way a banded quantity may move without failing the gate.
#[derive(Clone, Copy, Debug)]
pub enum Better {
    /// Times, bytes, counts of work: only an increase past the band fails.
    Lower,
    /// Speedups: only a decrease past the band fails.
    Higher,
    /// Counts of the sweep's own coverage: drift either way fails.
    Neither,
}

/// A hard claim: `(artifact, message, holds)`. The artifact is the `<name>`
/// of `BENCH_<name>.json`; a missing or mistyped key makes `holds` false.
pub type Requirement = (&'static str, &'static str, fn(&Json) -> bool);

pub const REQUIREMENTS: &[Requirement] = &[
    (
        "fig10",
        "the grid no longer has 18 cells (3 datasets x unfold 2-7)",
        |j| j.get("cells").and_then(Json::as_arr).map(<[Json]>::len) == Some(18),
    ),
    (
        "ablation_dynamic_live",
        "live run disagrees with the simulator beyond ±20%",
        |j| is_true(j, "within_tolerance"),
    ),
    (
        "ablation_dynamic_live",
        "live dynamic no longer beats static",
        |j| num(j, "live_speedup") > 1.05,
    ),
    (
        "ablation_faults",
        "a recovered document differs from the fault-free one",
        |j| {
            let rows = rows(j);
            !rows.is_empty() && rows.iter().all(|r| is_true(r, "identical"))
        },
    ),
    (
        "ablation_faults",
        "the sweep's highest rate no longer injects faults",
        |j| rows(j).last().is_some_and(|r| num(r, "injected") > 0.0),
    ),
    // The amortized ratio is wall-clock-derived, but its headline claim —
    // warm requests cost less than half a cold pipeline — holds on any
    // machine.
    (
        "ablation_plan_cache",
        "warm requests no longer cost < 0.5x a cold pipeline",
        |j| num(j, "amortized_ratio") < 0.5,
    ),
    (
        "ablation_plan_cache",
        "warm requests stopped hitting the cache in one round",
        |j| num(j, "warm_unfold_rounds") == 1.0 && num(j, "cache_misses") <= 3.0,
    ),
    (
        "ablation_plan_cache",
        "warm requests are no longer served from the plan cache",
        |j| is_true(j, "report.cache.hit") && is_true(j, "report.cache.enabled"),
    ),
    ("shipcut", "shipped bytes no longer strictly reduced", |j| {
        num(j, "saved_bytes") > 0.0 && num(j, "shipped_cut_bytes") < num(j, "shipped_full_bytes")
    }),
    (
        "shipcut",
        "the pruned document no longer equals the conceptual evaluation",
        |j| is_true(j, "docs_identical"),
    ),
    (
        "shipcut",
        "pruned response time exceeds the unpruned one",
        |j| num(j, "response_on_secs") <= num(j, "response_off_secs"),
    ),
    // The sweep injects corruption, none of it goes undetected, every
    // defended document is byte-identical to the clean run — and the
    // defense-off control proves the schedule really does publish wrong
    // answers when nobody checks (otherwise the sweep is vacuous).
    ("integrity", "the sweep no longer injects corruption", |j| {
        num(j, "injected_total") > 0.0
    }),
    ("integrity", "corruption slipped past the defense", |j| {
        num(j, "undetected_with_defense") == 0.0
            && num(j, "masked_total") == num(j, "injected_total")
    }),
    (
        "integrity",
        "defended documents are no longer byte-identical",
        |j| is_true(j, "docs_identical"),
    ),
    (
        "integrity",
        "the defense-off control no longer publishes a wrong answer",
        |j| {
            num(j, "defense_off_undetected") > 0.0
                && j.get("defense_off_doc_identical").and_then(Json::as_bool) == Some(false)
        },
    ),
    // The server ledger runs on the logical clock, so its structural claims
    // hold on any host.
    ("server", "ledger identities no longer balance", |j| {
        is_true(j, "balanced")
    }),
    (
        "server",
        "requests were silently dropped (offered != terminated)",
        |j| num(j, "silent_drops") == 0.0,
    ),
    (
        "server",
        "admission control stopped rejecting under overload",
        |j| num(j, "rejected") > 0.0,
    ),
    (
        "server",
        "no deadline was ever exceeded (budget plumbing is dead)",
        |j| num(j, "deadline_exceeded") > 0.0,
    ),
    (
        "server",
        "the breaker lifecycle went quiet (no trip/probe/close)",
        |j| {
            num(j, "breaker_trips") > 0.0
                && num(j, "breaker_probes") > 0.0
                && num(j, "breaker_closes") > 0.0
        },
    ),
    (
        "server",
        "nothing was served degraded through the outage storms",
        |j| num(j, "degraded") > 0.0,
    ),
    ("server", "nothing completed cleanly", |j| {
        num(j, "completed") > 0.0
    }),
    (
        "streaming",
        "documents are no longer byte-identical across batch sizes",
        |j| is_true(j, "docs_identical"),
    ),
    (
        "streaming",
        "256-row chunks no longer bound peak residency below materializing",
        |j| num(j, "peak_256_rows") < num(j, "peak_mat_rows"),
    ),
    (
        "streaming",
        "smaller chunks no longer yield more batches",
        |j| num(j, "batches_256") > num(j, "batches_2048"),
    ),
    (
        "streaming",
        "the simulated pipelining credit went negative",
        |j| num(j, "overlap_256_secs") >= 0.0,
    ),
    // The incremental document is byte-identical to a cold full run over
    // the post-delta catalog in every scope, an empty delta re-runs
    // nothing, table deltas re-run strictly less than the whole graph, and
    // the re-run count is monotone across the nested widening scopes.
    (
        "deltas",
        "incremental documents are no longer byte-identical to cold runs",
        |j| is_true(j, "identical"),
    ),
    ("deltas", "an empty delta re-ran tasks", |j| {
        num(j, "none.tasks_rerun") == 0.0
    }),
    (
        "deltas",
        "a price delta no longer re-runs a small subgraph (< 1/3 of tasks)",
        |j| num(j, "price.tasks_rerun") * 3.0 < num(j, "price.tasks_total"),
    ),
    ("deltas", "a table delta re-ran the whole graph", |j| {
        num(j, "price_cover_visits.tasks_rerun") < num(j, "price_cover_visits.tasks_total")
    }),
    (
        "deltas",
        "re-run counts are not monotone across widening scopes",
        |j| {
            let rerun = |scope: &str| num(j, &format!("{scope}.tasks_rerun"));
            rerun("none") <= rerun("price")
                && rerun("price") <= rerun("price_cover")
                && rerun("price_cover") <= rerun("price_cover_visits")
        },
    ),
];

/// A drift band: `(artifact, key path, tolerance, better)`. A key path is
/// dot-separated; a segment `name[k1,k2]` is an array whose baseline
/// elements are each paired with the current element that agrees on the
/// fields `k1`, `k2` — one check per baseline element.
pub type Band = (&'static str, &'static str, f64, Better);

pub const BANDS: &[Band] = &[
    ("fig10", "cells[dataset,unfold].ratio", SIM, Higher),
    ("ablation_dynamic_live", "predicted_speedup", SIM, Higher),
    ("ablation_dynamic_live", "live_speedup", LIVE, Higher),
    ("ablation_plan_cache", "amortized_ratio", LIVE, Lower),
    ("shipcut", "shipped_cut_bytes", SIM, Lower),
    ("shipcut", "response_on_secs", SIM, Lower),
    ("integrity", "injected_total", SIM, Neither),
    ("server", "admitted", SIM, Neither),
    ("server", "rejected", SIM, Neither),
    ("server", "completed", SIM, Neither),
    ("server", "deadline_exceeded", SIM, Neither),
    ("server", "degraded", SIM, Neither),
    ("server", "failed", SIM, Neither),
    ("server", "p50_secs", SIM, Lower),
    ("server", "p99_secs", SIM, Lower),
    ("streaming", "peak_256_rows", SIM, Lower),
    ("streaming", "batches_256", SIM, Lower),
    ("streaming", "response_mat_secs", SIM, Lower),
    ("streaming", "response_256_secs", SIM, Lower),
    ("deltas", "price.tasks_rerun", SIM, Lower),
    ("deltas", "price.rows_spliced", SIM, Lower),
];

/// Wall clocks, `(artifact, key path)` in seconds, checked against
/// [`wall_bound`].
pub const WALLS: &[(&str, &str)] = &[
    ("fig10", "report.phases[name].secs"),
    ("ablation_plan_cache", "warm_per_request_secs"),
    ("shipcut", "cold_on_wall_secs"),
    ("shipcut", "warm_per_request_secs"),
    ("integrity", "checked_wall_secs"),
    ("streaming", "wall_256_secs"),
    ("deltas", "price.wall_incr_secs"),
    ("deltas", "price.wall_full_secs"),
];

/// Every artifact the gate knows, in table order: what `bench all`
/// regenerates and `bench check` reads.
pub fn artifacts() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = Vec::new();
    let requirements = REQUIREMENTS.iter().map(|r| r.0);
    let bands = BANDS.iter().map(|b| b.0).chain(WALLS.iter().map(|w| w.0));
    for name in requirements.chain(bands) {
        if !names.contains(&name) {
            names.push(name);
        }
    }
    names
}

/// The JSON value at a dot-separated key path.
fn at<'a>(json: &'a Json, path: &str) -> Option<&'a Json> {
    path.split('.').try_fold(json, |j, key| j.get(key))
}

/// The number at `path`, NaN when missing (every comparison with it is
/// false, so a requirement reading a missing key fails).
fn num(json: &Json, path: &str) -> f64 {
    at(json, path).and_then(as_num).unwrap_or(f64::NAN)
}

fn is_true(json: &Json, path: &str) -> bool {
    match at(json, path) {
        Some(Json::Bool(b)) => *b,
        // Table cells are strings.
        Some(Json::Str(s)) => s == "true",
        _ => false,
    }
}

/// The rows of a table artifact.
fn rows(json: &Json) -> &[Json] {
    json.get("rows").and_then(Json::as_arr).unwrap_or(&[])
}

/// One numeric check of a band or wall row: its label, then the baseline
/// and current values (`None` when missing).
type Pair = (String, Option<f64>, Option<f64>);

/// Resolves a band's key path against a baseline/current pair (see
/// [`Band`] for the syntax).
fn pairs(path: &str, baseline: Option<&Json>, current: Option<&Json>) -> Vec<Pair> {
    let (segment, rest) = path
        .split_once('.')
        .map_or((path, None), |(s, r)| (s, Some(r)));
    let Some((key, fields)) = segment.strip_suffix(']').and_then(|s| s.split_once('[')) else {
        let (base, cur) = (
            baseline.and_then(|j| j.get(segment)),
            current.and_then(|j| j.get(segment)),
        );
        return match rest {
            None => vec![(
                segment.to_string(),
                base.and_then(as_num),
                cur.and_then(as_num),
            )],
            Some(rest) => pairs(rest, base, cur)
                .into_iter()
                .map(|(label, b, c)| (format!("{segment}.{label}"), b, c))
                .collect(),
        };
    };
    fn elems<'a>(json: Option<&'a Json>, key: &str) -> &'a [Json] {
        json.and_then(|j| j.get(key))
            .and_then(Json::as_arr)
            .unwrap_or(&[])
    }
    let id = |elem: &Json| -> Vec<String> {
        fields
            .split(',')
            .map(|f| elem.get(f).map(Json::to_compact).unwrap_or_default())
            .collect()
    };
    let current = elems(current, key);
    let mut out = Vec::new();
    for base in elems(baseline, key) {
        let id_of_base = id(base);
        let cur = current.iter().find(|c| id(c) == id_of_base);
        let label = format!("{key}[{}]", id_of_base.join("/").replace('"', ""));
        match rest {
            None => out.push((label, as_num(base), cur.and_then(as_num))),
            Some(rest) => out.extend(
                pairs(rest, Some(base), cur)
                    .into_iter()
                    .map(|(inner, b, c)| (format!("{label}.{inner}"), b, c)),
            ),
        }
    }
    out
}

/// A number, or a table cell (a string) that parses as one.
fn as_num(json: &Json) -> Option<f64> {
    match json {
        Json::Str(s) => s.parse().ok(),
        other => other.as_f64(),
    }
}

/// Collected failures and the number of checks made.
#[derive(Default)]
pub struct Gate {
    pub failures: Vec<String>,
    pub checks: usize,
}

impl Gate {
    fn fail(&mut self, failure: String) {
        if !self.failures.contains(&failure) {
            self.failures.push(failure);
        }
    }

    /// Runs `artifact`'s [`REQUIREMENTS`] against `current`.
    pub fn requirements(&mut self, artifact: &str, current: &Json) {
        for (_, message, holds) in REQUIREMENTS.iter().filter(|r| r.0 == artifact) {
            self.checks += 1;
            if !holds(current) {
                self.fail(format!("{artifact}: {message}"));
            }
        }
    }

    /// Runs `artifact`'s [`BANDS`] and [`WALLS`] against the pair.
    pub fn bands(&mut self, artifact: &str, baseline: &Json, current: &Json) {
        let bands = BANDS.iter().filter(|b| b.0 == artifact);
        let walls = WALLS.iter().filter(|w| w.0 == artifact);
        let rows = bands
            .map(|&(_, path, tolerance, better)| (path, Some((tolerance, better))))
            .chain(walls.map(|&(_, path)| (path, None)));
        for (path, band) in rows {
            for (label, base, cur) in pairs(path, Some(baseline), Some(current)) {
                let what = format!("{artifact} {label}");
                match (base, cur, band) {
                    (Some(base), Some(cur), Some((tolerance, better))) => {
                        self.within(&what, base, cur, tolerance, better)
                    }
                    (Some(base), Some(cur), None) => self.bounded(&what, base, cur),
                    _ => {
                        let side = base.map_or("baseline", |_| "current");
                        self.checks += 1;
                        self.fail(format!(
                            "{artifact}: {side} is missing numeric field `{label}`"
                        ));
                    }
                }
            }
        }
    }

    fn within(&mut self, what: &str, baseline: f64, current: f64, tolerance: f64, better: Better) {
        self.checks += 1;
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

    fn bounded(&mut self, what: &str, baseline: f64, current: f64) {
        self.checks += 1;
        let bound = wall_bound(baseline);
        if current > bound {
            self.fail(format!(
                "{what}: {current:.4}s exceeds {bound:.4}s ({baseline:.4}s baseline x{WALL_FACTOR} + {WALL_FLOOR_SECS}s)"
            ));
        }
    }
}

/// The largest current wall that passes against a `baseline` wall.
pub fn wall_bound(baseline: f64) -> f64 {
    baseline * WALL_FACTOR + WALL_FLOOR_SECS
}

/// Reads `BENCH_<artifact>.json` from `dir`; an unreadable or malformed file
/// is a failure naming it.
fn load(gate: &mut Gate, dir: &str, artifact: &str) -> Option<Json> {
    let path = format!("{dir}/BENCH_{artifact}.json");
    let json = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|text| parse(&text));
    json.map_err(|e| {
        gate.checks += 1;
        gate.fail(format!("{path}: {e}"));
    })
    .ok()
}

/// `bench check <baseline_dir> <current_dir>`: every table against every
/// artifact the gate knows.
pub fn check_dirs(baseline_dir: &str, current_dir: &str) -> Gate {
    let mut gate = Gate::default();
    for artifact in artifacts() {
        let (Some(baseline), Some(current)) = (
            load(&mut gate, baseline_dir, artifact),
            load(&mut gate, current_dir, artifact),
        ) else {
            continue;
        };
        gate.requirements(artifact, &current);
        gate.bands(artifact, &baseline, &current);
    }
    gate
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A committed artifact at the workspace root.
    fn committed(artifact: &str) -> Json {
        let path = format!("{}/../../BENCH_{artifact}.json", env!("CARGO_MANIFEST_DIR"));
        parse(&std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}")))
            .unwrap_or_else(|e| panic!("parse {path}: {e}"))
    }

    fn checked(artifact: &str, baseline: &Json, current: &Json) -> Gate {
        let mut gate = Gate::default();
        gate.requirements(artifact, current);
        gate.bands(artifact, baseline, current);
        gate
    }

    /// `json` with the number at the dot-separated `path` scaled.
    fn scaled(json: &Json, path: &str, factor: f64) -> Json {
        let mut json = json.clone();
        let mut node = &mut json;
        for key in path.split('.') {
            let Json::Obj(fields) = node else {
                panic!("{path}: not an object")
            };
            node = &mut fields.iter_mut().find(|(k, _)| k == key).expect(path).1;
        }
        let Json::Num(n) = node else {
            panic!("{path}: not a number")
        };
        *n *= factor;
        json
    }

    #[test]
    fn doing_less_work_passes_and_doing_more_fails() {
        for (artifact, path) in [
            ("deltas", "price.tasks_rerun"),
            ("deltas", "price.rows_spliced"),
            ("streaming", "batches_256"),
        ] {
            let baseline = committed(artifact);
            let less = checked(artifact, &baseline, &scaled(&baseline, path, 0.4));
            assert_eq!(less.failures, Vec::<String>::new(), "{path} fell 60 %");
            let more = checked(artifact, &baseline, &scaled(&baseline, path, 1.3));
            let band = format!("{artifact} {path}:");
            assert!(
                more.failures.iter().any(|f| f.starts_with(&band)),
                "{path} rose 30 %: {:?}",
                more.failures
            );
        }
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
            let mut gate = Gate::default();
            gate.within("x", 100.0, current, SIM, better);
            assert_eq!(
                gate.failures.len(),
                usize::from(fails),
                "{better:?} {current}"
            );
        }
        let mut gate = Gate::default();
        gate.bounded("wall", 0.1, wall_bound(0.1) * 0.99);
        gate.bounded("wall", 0.1, 10.0);
        assert_eq!(gate.failures.len(), 1, "{:?}", gate.failures);
    }

    /// Every leaf (and array) path of `json` as child indices.
    fn nodes(json: &Json, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        match json {
            Json::Obj(fields) => fields.iter().enumerate().for_each(|(i, (_, v))| {
                path.push(i);
                nodes(v, path, out);
                path.pop();
            }),
            Json::Arr(items) => {
                out.push(path.clone());
                items.iter().enumerate().for_each(|(i, v)| {
                    path.push(i);
                    nodes(v, path, out);
                    path.pop();
                })
            }
            _ => out.push(path.clone()),
        }
    }

    fn node_mut<'a>(json: &'a mut Json, path: &[usize]) -> &'a mut Json {
        path.iter().fold(json, |node, &i| match node {
            Json::Obj(fields) => &mut fields[i].1,
            Json::Arr(items) => &mut items[i],
            _ => unreachable!("paths come from `nodes`"),
        })
    }

    /// The single-node edits a mutation test tries: flip a flag, set a
    /// count to 0 or far past any partner, drop an array's last element.
    fn mutations(node: &Json) -> Vec<Json> {
        match node {
            Json::Bool(b) => vec![Json::Bool(!b)],
            Json::Num(_) => vec![Json::num(0.0), Json::num(1e12), Json::num(-1.0)],
            Json::Str(s) if s == "true" || s == "false" => {
                vec![Json::str((s == "false").to_string())]
            }
            Json::Str(s) if s.parse::<f64>().is_ok() => vec![Json::str("0"), Json::str("1e12")],
            Json::Arr(items) if !items.is_empty() => {
                vec![Json::Arr(items[..items.len() - 1].to_vec())]
            }
            _ => vec![],
        }
    }

    #[test]
    fn every_requirement_holds_on_its_artifact_and_fails_on_a_mutation() {
        for (artifact, message, holds) in REQUIREMENTS {
            let mut json = committed(artifact);
            assert!(
                holds(&json),
                "{artifact}: committed artifact fails `{message}`"
            );
            let mut paths = Vec::new();
            nodes(&json, &mut Vec::new(), &mut paths);
            let caught = paths.iter().any(|path| {
                mutations(node_mut(&mut json, path))
                    .into_iter()
                    .any(|mutant| {
                        let original = std::mem::replace(node_mut(&mut json, path), mutant);
                        let fails = !holds(&json);
                        *node_mut(&mut json, path) = original;
                        fails
                    })
            });
            assert!(
                caught,
                "{artifact}: no single-key mutation fails `{message}` — the row is vacuous"
            );
        }
    }

    #[test]
    fn the_committed_artifacts_pass_against_themselves() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let gate = check_dirs(dir, dir);
        assert_eq!(gate.failures, Vec::<String>::new());
        assert!(gate.checks > REQUIREMENTS.len() + BANDS.len() + WALLS.len());
    }

    #[test]
    fn a_missing_key_is_a_named_failure_not_a_panic() {
        let baseline = committed("ablation_plan_cache");
        let current = Json::obj(vec![("amortized_ratio", Json::num(0.3))]);
        let gate = checked("ablation_plan_cache", &baseline, &current);
        let named = "ablation_plan_cache: current is missing numeric field `warm_per_request_secs`";
        assert!(
            gate.failures.iter().any(|f| f == named),
            "{:?}",
            gate.failures
        );
        assert!(
            gate.failures
                .iter()
                .any(|f| f.contains("stopped hitting the cache")),
            "{:?}",
            gate.failures
        );

        let gate = checked("deltas", &committed("deltas"), &Json::obj(vec![]));
        let named = "deltas: current is missing numeric field `price.tasks_rerun`";
        assert!(
            gate.failures.iter().any(|f| f == named),
            "{:?}",
            gate.failures
        );

        let fig10 = committed("fig10");
        let mut gate = Gate::default();
        gate.bands("fig10", &fig10, &Json::obj(vec![]));
        let named = "fig10: current is missing numeric field `cells[small/3].ratio`";
        assert!(
            gate.failures.iter().any(|f| f == named),
            "{:?}",
            gate.failures
        );
    }
}
