//! One module per experiment. Each `run` prints its table and returns the
//! artifact `bench` writes as `BENCH_<artifact>.json`.

pub mod bandwidth;
pub mod constraints;
pub mod decompose;
pub mod deltas;
pub mod dynamic;
pub mod dynamic_live;
pub mod faults;
pub mod fig10;
pub mod integrity;
pub mod merge_trace;
pub mod plan_cache;
pub mod schedule;
pub mod server;
pub mod shipcut;
pub mod streaming;
pub mod table1;
