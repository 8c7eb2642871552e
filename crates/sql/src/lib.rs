//! A multi-source SQL subset: the query language of AIG semantic rules.
//!
//! The paper's semantic rules compute inherited attributes with
//! *parameterized, multi-source SQL queries* such as (Fig. 2):
//!
//! ```sql
//! select t.trId, t.tname
//! from DB1:visitInfo i, DB2:cover c, DB4:treatment t
//! where i.SSN = $SSN and i.date = $date and t.trId = i.trId
//!   and c.trId = i.trId and c.policy = $policy
//! ```
//!
//! This crate provides:
//!
//! * the [`Query`] AST and a hand-written parser ([`Query::parse`]) for
//!   `SELECT [DISTINCT] … FROM DBi:table alias, … WHERE …` with equality /
//!   comparison predicates, scalar parameters (`$name`), relation-valued
//!   parameters usable both in `FROM` (temp tables, as in Fig. 4's `v1 T1`)
//!   and in `IN` predicates (as in Q4's `trId in V`),
//! * a greedy left-deep join planner and hash-join [`exec`]utor,
//! * the per-source **costing API** of paper §5.2: [`cost::estimate`]
//!   returns `eval_cost(Q)` (seconds) and `size(Q)` (tuples × bytes), and
//!   accepts cardinality information for parameter relations produced by
//!   other queries, exactly as the paper requires ("the API is able to
//!   accept cost estimates of Q′ … as inputs").

pub mod ast;
pub mod cost;
pub mod error;
pub mod exec;
pub mod lexer;
pub mod parser;

pub use ast::{CmpOp, FromItem, Pred, QualCol, Query, Scalar, SelectItem, SetRef};
pub use cost::{CatalogStats, CostEstimate, CostModel, ParamStats};
pub use error::SqlError;
pub use exec::{execute, execute_named, BoundQuery, ParamBinding, ParamValue, Params};
