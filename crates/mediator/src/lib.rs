//! The AIG mediator middleware (paper §5): unfolds a compiled AIG into a
//! task graph over the sources, plans it (Schedule/Merge), executes it
//! (sequentially, on per-source workers, or incrementally after a delta),
//! tags the XML document, and records the run in a [`RunReport`].
//! [`Mediator`] is the long-lived service, [`run_with_report`] the one-shot
//! pipeline.
pub mod batch;
pub mod cost;
pub mod delta;
pub mod error;
pub mod exec;
pub mod explain;
pub mod faults;
pub mod graph;
pub mod integrity;
pub mod json;
pub mod merge;
pub mod obs;
pub mod parallel;
pub mod pipeline;
pub mod plan;
pub mod schedule;
pub mod server;
pub mod service;
pub mod shipcut;
pub mod sim;
pub mod tagging;
pub mod unfold;

pub use batch::BatchLog;
pub use cost::{response_time, CostGraph, Plan, TaskCost};
pub use delta::{rerun_mask, ReadSets, TableRef};
pub use error::{ConfigError, MediatorError};
pub use exec::{
    execute_graph, ExecOptions, ExecResult, Measured, RelStore, SchedLog, Scheduling, TaskPick,
};
pub use explain::{render_graph, render_plan, render_report};
pub use faults::{
    Deadline, FaultConfig, FaultEvent, FaultKind, FaultLog, FaultOutcome, FaultPlan, RetryPolicy,
};
pub use graph::{build_graph, GraphOptions, TaskGraph};
pub use integrity::{CorruptionKind, IntegrityFinding, RelProfile};
pub use json::Json;
pub use merge::{merge, merge_pair, no_merge, MergeDecision, MergeOutcome};
pub use obs::{
    BatchingObs, CacheObs, IncrementalObs, IntegrityEventObs, IntegrityObs, PhaseSample, Phases,
    PlanDeviationObs, ResilienceObs, RunReport, SchedulerObs, ServerObs, ShipcutObs, SourceObs,
    TaskObs, SCHEMA_VERSION,
};
pub use parallel::execute_graph_parallel;
pub use pipeline::{
    canonical, run, run_with_report, MediatorOptions, MediatorOptionsBuilder, MediatorRun,
};
pub use plan::{deepen, prepare, ExecPolicy, PlanOptions, PreparedPlan};
pub use schedule::{
    dynamic_response_time, levels, naive_plan, schedule, static_response_on_actuals,
};
pub use server::{Arrival, Disposition, MediatorServer, RequestOutcome, ServerConfig, ServerRun};
pub use service::{CacheStats, Mediator, RequestCtx, ServedRequest};
pub use shipcut::{LiveSet, ShipCut, ShipProfile};
pub use sim::NetworkModel;
pub use unfold::{unfold, CutOff, FrontierSite, Unfolded};
