//! Error type of the mediator.

use aig_core::AigError;
use aig_relstore::StoreError;
use aig_sql::SqlError;
use std::fmt;

/// A contradiction or degenerate value in [`MediatorOptions`] caught at
/// build time, before any planning or execution happens — or in an
/// [`ExecOptions::pace`] entry, caught before any task of a walk runs.
///
/// Nothing is silently clamped: a degenerate knob (`batch_rows: 0`, a fault
/// rate past 1, a sleep that never ends) would hide a caller's bug behind a
/// run that quietly does something else, so the builder and every run
/// entry point refuse it instead.
///
/// [`MediatorOptions`]: crate::pipeline::MediatorOptions
/// [`ExecOptions::pace`]: crate::exec::ExecOptions::pace
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// `batch_rows` was 0 — batches could never make progress. Rejected
    /// even when batching is off, so flipping `batching` on later cannot
    /// surface a latent bad knob.
    ZeroBatchRows,
    /// A fault rate was outside `[0, 1]` or NaN.
    RateOutOfRange { field: &'static str, value: f64 },
    /// A duration was negative, NaN, infinite or past
    /// [`std::time::Duration`]'s range where a sleep must end (only
    /// `timeout_secs` may be infinite: no timeout).
    BadSeconds { field: &'static str, value: f64 },
    /// `stale_replica_rows` was `usize::MAX`: its lag draw would overflow.
    StaleRowsOverflow,
    /// [`ExecOptions::pace`] of `task` is no duration a sleep can take:
    /// negative, NaN, infinite or past [`std::time::Duration`]'s range.
    ///
    /// [`ExecOptions::pace`]: crate::exec::ExecOptions::pace
    BadPace { task: usize, value: f64 },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroBatchRows => {
                write!(f, "invalid config: batch_rows must be at least 1, got 0")
            }
            ConfigError::RateOutOfRange { field, value } => {
                write!(f, "invalid config: {field} must be in [0, 1], got {value}")
            }
            ConfigError::BadSeconds { field, value } => {
                write!(
                    f,
                    "invalid config: {field} = {value} is not a usable duration"
                )
            }
            ConfigError::StaleRowsOverflow => {
                write!(f, "invalid config: stale_replica_rows must be < usize::MAX")
            }
            ConfigError::BadPace { task, value } => {
                write!(
                    f,
                    "invalid config: the pace of task {task}, {value} s, is not a usable duration"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Errors from planning or executing an AIG through the mediator.
#[derive(Debug, Clone, PartialEq)]
pub enum MediatorError {
    /// The AIG uses a feature outside the set-oriented evaluator's scope
    /// (the conceptual evaluator in `aig-core` handles the full language).
    Unsupported(String),
    /// An inconsistency in the built task graph.
    Internal(String),
    /// The caller's [`MediatorOptions`] were rejected at validation time.
    ///
    /// [`MediatorOptions`]: crate::pipeline::MediatorOptions
    Config(ConfigError),
    /// The recursion kept extending past the configured maximum depth.
    RecursionBudget {
        max_depth: usize,
    },
    /// A source kept failing a task until the retry budget ran out.
    SourceFault {
        source: String,
        task: String,
        kind: String,
        attempts: usize,
    },
    /// A source suffered a hard outage with no usable replica; the named
    /// tasks could not be executed anywhere.
    SourceUnavailable {
        source: String,
        lost_tasks: Vec<String>,
    },
    /// The integrity defense caught wrong data: a shipped relation or the
    /// tagged document violated a schema/key/inclusion constraint and the
    /// retry budget could not mask it. Names the task, table, and violated
    /// constraint so the caller knows exactly what was refused — the
    /// alternative would have been a silently wrong document.
    IntegrityViolation {
        task: String,
        source: String,
        table: String,
        constraint: String,
        value: String,
    },
    /// A cost graph carried a non-finite or negative evaluation time or
    /// edge size, which would poison the scheduler's priority ordering.
    InvalidCost {
        node: usize,
        detail: String,
    },
    /// The server's admission control refused the request: accepting it
    /// would push the named limit (global queue depth, in-flight slots, or
    /// the tenant's fair share) past its configured bound. Structured so
    /// the caller can tell *which* limit it hit and back off accordingly.
    Overloaded {
        tenant: String,
        /// The limit that tripped: `"queue"`, `"in_flight"`, or `"tenant"`.
        scope: String,
        depth: usize,
        limit: usize,
    },
    /// The request's deadline budget ran out before the named task could
    /// start (or finish) an attempt. Surfaced instead of letting the
    /// request hang past its budget.
    DeadlineExceeded {
        task: String,
        budget_secs: f64,
        elapsed_secs: f64,
    },
    /// Wrapped specification/evaluation error.
    Aig(AigError),
    Sql(SqlError),
    Store(StoreError),
}

impl fmt::Display for MediatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MediatorError::Unsupported(msg) => {
                write!(f, "unsupported by the set-oriented evaluator: {msg}")
            }
            MediatorError::Internal(msg) => write!(f, "mediator internal error: {msg}"),
            MediatorError::Config(e) => e.fmt(f),
            MediatorError::RecursionBudget { max_depth } => write!(
                f,
                "recursive data exceeds the maximum unfolding depth {max_depth}"
            ),
            MediatorError::SourceFault {
                source,
                task,
                kind,
                attempts,
            } => write!(
                f,
                "source {source} failed task {task} ({kind}) after {attempts} attempt(s)"
            ),
            MediatorError::SourceUnavailable { source, lost_tasks } => write!(
                f,
                "source {source} is unavailable with no replica; lost tasks: {}",
                lost_tasks.join(", ")
            ),
            MediatorError::IntegrityViolation {
                task,
                source,
                table,
                constraint,
                value,
            } => {
                write!(
                    f,
                    "integrity violation in task {task} (source {source}, table {table}): \
                     constraint {constraint} violated"
                )?;
                if !value.is_empty() {
                    write!(f, " by {value}")?;
                }
                Ok(())
            }
            MediatorError::InvalidCost { node, detail } => {
                write!(f, "invalid cost input at node {node}: {detail}")
            }
            MediatorError::Overloaded {
                tenant,
                scope,
                depth,
                limit,
            } => write!(
                f,
                "request from tenant {tenant} rejected: {scope} limit reached ({depth} of {limit})"
            ),
            MediatorError::DeadlineExceeded {
                task,
                budget_secs,
                elapsed_secs,
            } => write!(
                f,
                "deadline budget of {budget_secs:.3}s exceeded at task {task} \
                 ({elapsed_secs:.3}s elapsed)"
            ),
            MediatorError::Aig(e) => e.fmt(f),
            MediatorError::Sql(e) => e.fmt(f),
            MediatorError::Store(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for MediatorError {}

impl From<ConfigError> for MediatorError {
    fn from(e: ConfigError) -> Self {
        MediatorError::Config(e)
    }
}

impl From<AigError> for MediatorError {
    fn from(e: AigError) -> Self {
        MediatorError::Aig(e)
    }
}

impl From<SqlError> for MediatorError {
    fn from(e: SqlError) -> Self {
        MediatorError::Sql(e)
    }
}

impl From<StoreError> for MediatorError {
    fn from(e: StoreError) -> Self {
        MediatorError::Store(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every variant renders a non-empty, self-describing message carrying
    /// its structured fields — the server's outcome ledger relies on these
    /// being distinguishable without string parsing on the way back in.
    #[test]
    fn every_variant_displays_its_fields() {
        let cases: Vec<(MediatorError, &[&str])> = vec![
            (
                MediatorError::Unsupported("order-by".into()),
                &["unsupported", "order-by"],
            ),
            (
                MediatorError::Internal("orphan task".into()),
                &["internal error", "orphan task"],
            ),
            (
                MediatorError::Config(ConfigError::ZeroBatchRows),
                &["invalid config", "batch_rows"],
            ),
            (
                MediatorError::Config(ConfigError::RateOutOfRange {
                    field: "corrupt_rate",
                    value: 1.5,
                }),
                &["invalid config", "corrupt_rate", "[0, 1]", "1.5"],
            ),
            (
                MediatorError::Config(ConfigError::BadSeconds {
                    field: "timeout_secs",
                    value: f64::NAN,
                }),
                &["invalid config", "timeout_secs", "NaN"],
            ),
            (
                MediatorError::Config(ConfigError::StaleRowsOverflow),
                &["invalid config", "stale_replica_rows"],
            ),
            (
                MediatorError::Config(ConfigError::BadPace {
                    task: 3,
                    value: f64::INFINITY,
                }),
                &["invalid config", "pace of task 3", "inf"],
            ),
            (
                MediatorError::RecursionBudget { max_depth: 7 },
                &["maximum unfolding depth 7"],
            ),
            (
                MediatorError::SourceFault {
                    source: "DB2".into(),
                    task: "gen[report]".into(),
                    kind: "transient".into(),
                    attempts: 3,
                },
                &["DB2", "gen[report]", "transient", "3 attempt"],
            ),
            (
                MediatorError::SourceUnavailable {
                    source: "DB3".into(),
                    lost_tasks: vec!["a".into(), "b".into()],
                },
                &["DB3", "no replica", "a, b"],
            ),
            (
                MediatorError::IntegrityViolation {
                    task: "t".into(),
                    source: "DB1".into(),
                    table: "patient".into(),
                    constraint: "key(ssn)".into(),
                    value: "123".into(),
                },
                &[
                    "integrity violation",
                    "DB1",
                    "patient",
                    "key(ssn)",
                    "by 123",
                ],
            ),
            (
                MediatorError::InvalidCost {
                    node: 4,
                    detail: "negative eval".into(),
                },
                &["node 4", "negative eval"],
            ),
            (
                MediatorError::Overloaded {
                    tenant: "acme".into(),
                    scope: "queue".into(),
                    depth: 64,
                    limit: 64,
                },
                &["tenant acme", "queue limit", "64 of 64"],
            ),
            (
                MediatorError::DeadlineExceeded {
                    task: "gen[report]".into(),
                    budget_secs: 0.25,
                    elapsed_secs: 0.31,
                },
                &["deadline budget of 0.250s", "gen[report]", "0.310s elapsed"],
            ),
            (
                MediatorError::Aig(aig_core::AigError::Spec("bad rule".into())),
                &["bad rule"],
            ),
            (
                MediatorError::Sql(aig_sql::SqlError::Bind("no column x".into())),
                &["no column x"],
            ),
            (
                MediatorError::Store(aig_relstore::StoreError::NoSuchSource("DB9".into())),
                &["DB9"],
            ),
        ];
        for (err, needles) in cases {
            let text = err.to_string();
            assert!(!text.is_empty(), "{err:?}");
            for needle in needles {
                assert!(text.contains(needle), "{text:?} missing {needle:?}");
            }
        }
    }

    /// An IntegrityViolation with no offending value omits the trailing
    /// `by ...` clause instead of printing a dangling preposition.
    #[test]
    fn integrity_violation_without_value_has_no_by_clause() {
        let err = MediatorError::IntegrityViolation {
            task: "t".into(),
            source: "DB1".into(),
            table: "patient".into(),
            constraint: "key(ssn)".into(),
            value: String::new(),
        };
        assert!(!err.to_string().contains(" by "));
    }
}
