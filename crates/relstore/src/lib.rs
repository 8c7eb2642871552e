//! In-memory relational substrate for the AIG data-integration system.
//!
//! The paper integrates data from *multiple relational sources* (the hospital
//! example has four databases, DB1–DB4). This crate provides the substrate
//! those sources run on:
//!
//! * typed [`Value`]s and rows,
//! * [`TableSchema`]s with optional primary keys,
//! * [`Table`]s with key enforcement, each stored as one [`Relation`] of
//!   interned columns that scans borrow and writes append to or delete
//!   from in place,
//! * named [`Database`]s grouped into a [`Catalog`] of data sources, each
//!   identified by a [`SourceId`] (the mediator itself is modeled as the
//!   special source [`SourceId::MEDIATOR`]),
//! * [`TableStats`] — the per-table statistics (cardinality, distinct counts,
//!   average widths) that back the cost-estimation API of paper §5.2.

pub mod catalog;
pub mod delta;
pub mod error;
pub mod fnv;
pub mod intern;
pub mod par;
pub mod relation;
pub mod schema;
pub mod stats;
pub mod table;
pub mod value;

pub use catalog::{Catalog, Database, SourceId};
pub use delta::{DeltaApplied, RowBatch, SourceDelta};
pub use error::StoreError;
pub use fnv::Fnv64;
pub use intern::{Sym, SymMap, SymSet};
pub use relation::{payload_scans, ColNames, Relation, SharedCol};
pub use schema::{Column, TableSchema};
pub use stats::TableStats;
pub use table::{Row, Table};
pub use value::{Value, ValueType};
