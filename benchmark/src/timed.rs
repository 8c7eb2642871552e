//! The untraced timed run: what a user of the system sees. Also the
//! measuring loop the traced run reuses for its untraced baseline.

use crate::alloc;
use crate::workloads::{Session, Workload};
use crate::Args;
use std::time::{Duration, Instant};

/// How often set-up is repeated in one run; `setup_s` is the median.
const SETUPS: usize = 3;
/// Fewest timed passes, whatever `--seconds` says (`--quick` relies on it).
pub const MIN_PASSES: usize = 2;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What one run reports: the contract's last line, before rendering.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// The raw record of a measuring loop over a session's op list: timed
/// passes with allocation counting off, then one counted pass.
pub struct Passes {
    /// `walls_ms[op][pass]`, timed passes only.
    pub walls_ms: Vec<Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    /// Heap allocations and bytes inside the ops of the counted pass (one
    /// op each; the harness's own are left out).
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Peak live heap during the counted pass over live heap at its start.
    pub peak_live: i64,
    /// Live heap after the counted pass minus live heap before it.
    pub live_growth: i64,
    /// Σ over ops and tasks of the ship image bytes (`RunReport`).
    pub ship_bytes: f64,
    /// Σ over ops of the simulated merged response time (logical clock).
    pub sim_response_secs: f64,
    /// Wall of the timed passes.
    pub elapsed: Duration,
}

impl Passes {
    /// Mean over the op list of each op's minimum wall across passes.
    pub fn floor_ms(&self) -> f64 {
        let floors = self
            .walls_ms
            .iter()
            .map(|walls| walls.iter().copied().fold(f64::INFINITY, f64::min));
        floors.sum::<f64>() / self.walls_ms.len() as f64
    }

    fn op(&mut self, session: &mut Session, expected: &[Option<String>], i: usize) -> f64 {
        let clock = Instant::now();
        let served = session.run_op(i);
        let wall = clock.elapsed();
        self.attempted += 1;
        match served {
            Ok(served) if expected[i].as_deref() == Some(served.xml.as_str()) => {
                let ship = served.report.tasks.iter().map(|t| t.ship_bytes);
                self.ship_bytes += ship.sum::<f64>();
                self.sim_response_secs += served.run.response_merged_secs;
            }
            _ => self.failed += 1,
        }
        wall.as_secs_f64() * 1e3
    }
}

/// Whole timed passes over the op list until `seconds` have gone by, at
/// least [`MIN_PASSES`]; then one pass with allocation counting on. Every
/// document is compared with `expected`; an error or a mismatch is a failed
/// op.
pub fn measure(session: &mut Session, expected: &[Option<String>], seconds: f64) -> Passes {
    let ops = session.ops.len();
    let mut passes = Passes {
        walls_ms: (0..ops).map(|_| Vec::with_capacity(4096)).collect(),
        attempted: 0,
        failed: 0,
        allocs: 0,
        alloc_bytes: 0,
        peak_live: 0,
        live_growth: 0,
        ship_bytes: 0.0,
        sim_response_secs: 0.0,
        elapsed: Duration::ZERO,
    };
    let start = Instant::now();
    while passes.walls_ms[0].len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        for i in 0..ops {
            let wall = passes.op(session, expected, i);
            passes.walls_ms[i].push(wall);
        }
    }
    passes.elapsed = start.elapsed();

    alloc::counting(true);
    alloc::reset_peak();
    let before = alloc::snapshot();
    for i in 0..ops {
        let heap = alloc::snapshot();
        passes.op(session, expected, i);
        let heap_end = alloc::snapshot();
        passes.allocs += heap_end.allocs - heap.allocs;
        passes.alloc_bytes += heap_end.bytes - heap.bytes;
    }
    let after = alloc::snapshot();
    alloc::counting(false);
    passes.peak_live = after.peak - before.live;
    passes.live_growth = after.live - before.live;
    passes
}

/// Flips one byte of the first expected document (`--corrupt-oracle`): the
/// run must then report failures and exit non-zero.
pub fn corrupt(expected: &mut [Option<String>]) {
    if let Some(Some(doc)) = expected.first_mut() {
        let flipped = if doc.ends_with('>') { '<' } else { '>' };
        doc.pop();
        doc.push(flipped);
    }
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The `--trace 0` run: set-up (several times, median), the oracle, the
/// timed passes, and the end-to-end metrics.
pub fn run(workload: Workload, args: &Args) -> Outcome {
    let mut setup_secs = Vec::with_capacity(SETUPS);
    let mut session = None;
    for _ in 0..SETUPS {
        drop(session.take());
        let clock = Instant::now();
        session = Some(Session::setup(workload, args.seed, args.quick));
        setup_secs.push(clock.elapsed().as_secs_f64());
    }
    let mut session = session.expect("at least one set-up");
    let mut expected = session.expected();
    if args.corrupt_oracle {
        corrupt(&mut expected);
    }
    let passes = measure(&mut session, &expected, args.seconds);
    let served = (passes.attempted - passes.failed).max(1) as f64;
    let counted = session.ops.len() as f64;
    const KIB: f64 = 1024.0;
    Outcome {
        attempted: passes.attempted,
        failed: passes.failed,
        metrics: vec![
            metric("setup_s", median(&mut setup_secs), "s"),
            metric("req_floor_ms", passes.floor_ms(), "ms"),
            metric("allocs_per_req", passes.allocs as f64 / counted, "count"),
            metric(
                "alloc_kb_per_req",
                passes.alloc_bytes as f64 / KIB / counted,
                "KiB",
            ),
            metric("peak_live_mb", passes.peak_live as f64 / KIB / KIB, "MiB"),
            metric("wire_kb_per_req", passes.ship_bytes / KIB / served, "KiB"),
            metric("sim_response_s", passes.sim_response_secs / served, "s"),
        ],
    }
}
