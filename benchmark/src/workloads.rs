//! The four workloads: how each is set up, what one op does, and the
//! oracle its documents are checked against. All load is closed loop, one
//! client, in-process calls.

use crate::inputs::{self, Dataset};
use aig_core::paper::SIGMA0_DSL;
use aig_core::spec::Aig;
use aig_core::{evaluate, parse_aig};
use aig_datagen::{cover_delta, price_delta, visit_delta};
use aig_mediator::{
    canonical, run_with_report, Mediator, MediatorError, MediatorOptions, MediatorRun, RunReport,
    Scheduling,
};
use aig_relstore::{Catalog, SourceDelta, Value};
use aig_xml::{serialize, validate};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PlanCold,
    ReportWarm,
    ReportModesOn,
    DeltaRefresh,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PlanCold,
        Workload::ReportWarm,
        Workload::ReportModesOn,
        Workload::DeltaRefresh,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PlanCold => "plan_cold",
            Workload::ReportWarm => "report_warm",
            Workload::ReportModesOn => "report_modes_on",
            Workload::DeltaRefresh => "delta_refresh",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn dataset(self, quick: bool) -> Dataset {
        match self {
            _ if quick => Dataset::Quick,
            Workload::PlanCold => Dataset::Tiny,
            Workload::ReportWarm | Workload::ReportModesOn => Dataset::Small,
            Workload::DeltaRefresh => Dataset::SmallOneDate,
        }
    }

    pub fn options(self) -> MediatorOptions {
        match self {
            Workload::PlanCold | Workload::ReportWarm => MediatorOptions::default(),
            Workload::ReportModesOn => MediatorOptions {
                parallel_exec: true,
                scheduling: Scheduling::Dynamic,
                threads: 2,
                batching: true,
                batch_rows: 256,
                check_integrity: true,
                ..MediatorOptions::default()
            },
            Workload::DeltaRefresh => MediatorOptions {
                incremental: true,
                ..MediatorOptions::default()
            },
        }
    }
}

/// One entry of a workload's op list.
pub struct Op {
    pub label: &'static str,
    pub date: String,
    /// Applied in order before the request (`delta_refresh` only).
    pub deltas: Vec<SourceDelta>,
}

/// What one op produced: the serialized document plus the run's own
/// accounting (ship bytes, simulated response time, ledgers).
pub struct Served {
    pub xml: String,
    pub run: MediatorRun,
    pub report: RunReport,
}

/// What serves a session's requests.
pub enum Engine {
    /// `plan_cold`: the one-shot pipeline over a bare catalog.
    OneShot(Catalog),
    /// The other workloads: a long-lived mediator that owns the catalog.
    Service(Box<Mediator>),
}

/// A workload set up and warm: everything an op needs.
pub struct Session {
    pub workload: Workload,
    pub seed: u64,
    pub aig: Aig,
    pub options: MediatorOptions,
    pub engine: Engine,
    pub ops: Vec<Op>,
    /// The unfolding depth the ops end at.
    pub depth: usize,
}

fn invert(delta: &SourceDelta) -> SourceDelta {
    SourceDelta {
        inserts: delta.deletes.clone(),
        deletes: delta.inserts.clone(),
    }
}

/// The eight `delta_refresh` ops: each table's δ then its inverse, so the
/// catalog is back in its original state after every pass.
pub fn delta_ops(catalog: &Catalog, date: &str, seed: u64) -> Vec<Op> {
    let (price_del, price_ins) = price_delta(catalog, 6, seed).expect("price delta");
    let cover = cover_delta(catalog, 4, 2, seed ^ 1).expect("cover delta");
    let visit = visit_delta(catalog, date, 4, 2, seed ^ 2).expect("visit delta");
    let op = |label, deltas| Op {
        label,
        date: date.to_string(),
        deltas,
    };
    // Billing's key forbids the old row while the new one is present: the
    // inverse removes the new rows first, as `price_delta` orders the
    // forward pair.
    let price_inv = vec![invert(&price_ins), invert(&price_del)];
    let cover_inv = vec![invert(&cover)];
    let visit_inv = vec![invert(&visit)];
    vec![
        op("price", vec![price_del, price_ins]),
        op("price_inv", price_inv),
        op("cover", vec![cover]),
        op("cover_inv", cover_inv),
        op("visit", vec![visit]),
        op("visit_inv", visit_inv),
        op("empty", vec![SourceDelta::new()]),
        op("repeat", vec![]),
    ]
}

impl Session {
    /// Everything `setup_s` covers: data generation, the mediator, delta
    /// construction, and one untimed warm-up pass (plan cache, depth hint,
    /// snapshots, interner).
    pub fn setup(workload: Workload, seed: u64, quick: bool) -> Session {
        let inputs = inputs::generate(workload.dataset(quick), seed);
        let options = workload.options();
        let aig = parse_aig(SIGMA0_DSL).expect("σ0 parses");
        let date_op = |date: &String| Op {
            label: "report",
            date: date.clone(),
            deltas: vec![],
        };
        let ops: Vec<Op> = match workload {
            Workload::DeltaRefresh => delta_ops(&inputs.catalog, &inputs.dates[0], seed),
            _ => inputs.dates.iter().map(date_op).collect(),
        };
        let engine = match workload {
            Workload::PlanCold => Engine::OneShot(inputs.catalog),
            _ => {
                let mediator = Mediator::new(inputs.catalog, &options).expect("mediator");
                Engine::Service(Box::new(mediator))
            }
        };
        let mut session = Session {
            workload,
            seed,
            aig,
            options,
            engine,
            ops,
            depth: inputs.depth,
        };
        if workload == Workload::DeltaRefresh {
            // The cold run that leaves the snapshot the deltas refresh.
            session.request(0).expect("cold run");
        }
        for i in 0..session.ops.len() {
            session.run_op(i).expect("warm-up op");
        }
        session
    }

    pub fn catalog(&self) -> &Catalog {
        match &self.engine {
            Engine::OneShot(catalog) => catalog,
            Engine::Service(mediator) => mediator.catalog(),
        }
    }

    /// The mediator of a workload that has one (all but `plan_cold`).
    pub fn mediator(&self) -> &Mediator {
        match &self.engine {
            Engine::Service(mediator) => mediator,
            Engine::OneShot(_) => panic!("{} has no mediator", self.workload.name()),
        }
    }

    /// The op's request without its deltas.
    fn request(&self, i: usize) -> Result<Served, MediatorError> {
        let args = [("date", Value::str(&self.ops[i].date))];
        let (run, report) = match &self.engine {
            Engine::Service(mediator) => mediator.request(&self.aig, &args)?,
            Engine::OneShot(catalog) => {
                // A new spec's first request: nothing is reused, not even
                // the parsed AIG.
                let aig = parse_aig(SIGMA0_DSL)?;
                run_with_report(&aig, catalog, &args, &self.options)?
            }
        };
        let xml = serialize::to_string(&run.tree);
        Ok(Served { xml, run, report })
    }

    /// One timed op, from AIG text or request arguments to serialized XML.
    pub fn run_op(&mut self, i: usize) -> Result<Served, MediatorError> {
        if let Engine::Service(mediator) = &mut self.engine {
            for delta in &self.ops[i].deltas {
                mediator.apply_delta(delta)?;
            }
        }
        self.request(i)
    }

    /// The document each op must serialize to, built outside `setup_s` and
    /// outside every timed window. `None` marks an op whose document the
    /// oracle rejected: every attempt of it counts as failed.
    pub fn expected(&mut self) -> Vec<Option<String>> {
        match self.workload {
            // The independent conceptual evaluator, the source DTD and the
            // source constraints vouch for the bytes once; later passes
            // must reproduce them.
            Workload::PlanCold | Workload::ReportWarm => (0..self.ops.len())
                .map(|i| {
                    let served = self.run_op(i).ok()?;
                    let args = [("date", Value::str(&self.ops[i].date))];
                    let conceptual = evaluate(&self.aig, self.catalog(), &args).ok()?;
                    let agrees = canonical(&self.aig, &served.run.tree)
                        == canonical(&self.aig, &conceptual.tree)
                        && validate(&served.run.tree, &self.aig.dtd).is_ok()
                        && self.aig.constraints.check(&served.run.tree).is_empty();
                    agrees.then_some(served.xml)
                })
                .collect(),
            // Every mode on must serialize to `report_warm`'s bytes.
            Workload::ReportModesOn => {
                let plain = self.cold_mediator(self.catalog().clone());
                self.ops
                    .iter()
                    .map(|op| cold_document(&plain, &self.aig, &op.date))
                    .collect()
            }
            // After δ: a fresh cold mediator over the post-δ catalog.
            // After δ⁻¹, an empty δ or no δ: the original bytes.
            Workload::DeltaRefresh => {
                let original = self.catalog().clone();
                let date = self.ops[0].date.clone();
                let base = cold_document(&self.cold_mediator(original.clone()), &self.aig, &date);
                self.ops
                    .iter()
                    .map(|op| match op.label {
                        "price" | "cover" | "visit" => {
                            let mut catalog = original.clone();
                            for delta in &op.deltas {
                                catalog.apply_delta(delta).ok()?;
                            }
                            cold_document(&self.cold_mediator(catalog), &self.aig, &date)
                        }
                        _ => base.clone(),
                    })
                    .collect()
            }
        }
    }

    /// A fresh default-options mediator starting at the known depth (the
    /// frontier escalation below it adds nothing to an oracle).
    fn cold_mediator(&self, catalog: Catalog) -> Mediator {
        let options = MediatorOptions {
            unfold_depth: self.depth,
            ..MediatorOptions::default()
        };
        Mediator::new(catalog, &options).expect("oracle mediator")
    }
}

fn cold_document(mediator: &Mediator, aig: &Aig, date: &str) -> Option<String> {
    let (run, _) = mediator.request(aig, &[("date", Value::str(date))]).ok()?;
    Some(serialize::to_string(&run.tree))
}
