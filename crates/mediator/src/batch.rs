//! The ship seam: where a task's output crosses from its source to the
//! mediator, and everything [`crate::plan::ExecPolicy::batching`] does.
//!
//! Materializing execution ships each task's whole ship image in one
//! piece, so a shipment is resident in full while it crosses the wire. With
//! `batching` on, [`ship_output`] cuts the image into `batch_rows`-row
//! batches, prices each batch's wire bytes on its own and in place
//! (`Relation::wire_bytes_in` over the batch's row range: a batch ships the
//! dictionary slice its rows touch), moves the [`ShipLedger`]'s
//! double-buffer window — batch `k` is on the wire while the consumer
//! digests batch `k − 1`, so at most two batches of a task are resident and
//! peak resident rows are `O(batch_rows × active tasks)` instead of the
//! largest shipped relation.
//!
//! That is all the flag does: it changes *when rows cross the seam*, never
//! what arrives. The producer is a materialized relation, so nothing on the
//! consumer side re-chunks it — the SQL executor and the set-semantics
//! dedup run the same loops either way, and stores and documents are
//! byte-identical.

use crate::exec::ExecOptions;
use aig_relstore::Relation;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Shared shipment accounting for one execution. Thread-safe so the
/// parallel executor's workers update it lock-free; the double-buffer
/// window is acquired/released per batch by [`ship_output`].
#[derive(Debug, Default)]
pub struct ShipLedger {
    resident_rows: AtomicUsize,
    peak_resident_rows: AtomicUsize,
    total_batches: AtomicU64,
}

impl ShipLedger {
    fn acquire(&self, rows: usize) {
        let now = self.resident_rows.fetch_add(rows, Ordering::SeqCst) + rows;
        self.peak_resident_rows.fetch_max(now, Ordering::SeqCst);
        self.total_batches.fetch_add(1, Ordering::Relaxed);
    }

    fn release(&self, rows: usize) {
        self.resident_rows.fetch_sub(rows, Ordering::SeqCst);
    }

    /// Highest number of shipment rows resident at any instant.
    pub fn peak_resident_rows(&self) -> usize {
        self.peak_resident_rows.load(Ordering::SeqCst)
    }

    /// Batches shipped across all tasks.
    pub fn total_batches(&self) -> u64 {
        self.total_batches.load(Ordering::Relaxed)
    }
}

/// What the shipment seam did during one execution; carried in
/// [`crate::exec::ExecResult`] and summarized into the run report's
/// `batching` section.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BatchLog {
    /// Whether chunked shipment was on.
    pub enabled: bool,
    /// The configured batch size (rows); meaningful only when enabled.
    pub batch_rows: usize,
    /// Batches shipped across all tasks (one per task output when off).
    pub total_batches: u64,
    /// Peak shipment rows resident at any instant: bounded by
    /// `2 × batch_rows × active tasks` when batching, by the largest
    /// shipped relation (times active tasks) when materializing.
    pub peak_resident_rows: u64,
}

impl BatchLog {
    pub(crate) fn from_ledger(opts: &ExecOptions, ledger: &ShipLedger) -> BatchLog {
        BatchLog {
            enabled: opts.policy.batching,
            batch_rows: opts.policy.batch_rows,
            total_batches: ledger.total_batches(),
            peak_resident_rows: ledger.peak_resident_rows() as u64,
        }
    }
}

/// Per-task outcome of the ship seam.
pub(crate) struct ShipOutcome {
    /// Wire bytes shipped: the ship image's dictionary-encoded size when
    /// materializing, the sum of per-batch wire sizes when batching (each
    /// batch ships the dictionary slice its rows touch).
    pub ship_bytes: f64,
    /// Batches the output crossed the seam in.
    pub batches: u64,
}

/// Ships one task's output through the seam, doing the resident-row
/// accounting against `ledger`.
pub(crate) fn ship_output(
    opts: &ExecOptions,
    ledger: &ShipLedger,
    task_id: usize,
    rel: &Relation,
) -> ShipOutcome {
    if !opts.policy.batching {
        // Materializing: the whole ship image crosses the wire as one
        // batch and is resident in full while it does.
        ledger.acquire(rel.len());
        ledger.release(rel.len());
        return ShipOutcome {
            ship_bytes: crate::exec::ship_image_bytes(opts, task_id, rel),
            batches: 1,
        };
    }
    let image = match &opts.shipcut {
        Some(cut) => cut.ship_image(task_id, rel),
        None => rel.clone(),
    };
    let mut shipped = 0.0;
    let mut batches = 0u64;
    let mut in_flight: Option<usize> = None;
    // Floored at one: the options builder rejects zero, but hand-built
    // options reach here unvalidated.
    let batch_rows = opts.policy.batch_rows.max(1);
    for start in (0..image.len()).step_by(batch_rows) {
        let batch = start..image.len().min(start.saturating_add(batch_rows));
        ledger.acquire(batch.len());
        shipped += image.wire_bytes_in(batch.clone()) as f64;
        batches += 1;
        // Double-buffer window: the consumer finishes batch k−1 while
        // batch k is on the wire, so k−1's rows release now.
        if let Some(rows) = in_flight.take() {
            ledger.release(rows);
        }
        in_flight = Some(batch.len());
    }
    if let Some(rows) = in_flight {
        ledger.release(rows);
    }
    ShipOutcome {
        ship_bytes: shipped,
        batches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig_relstore::Value;

    fn rel(rows: usize) -> Relation {
        let mut r = Relation::empty(vec!["a".to_string()]);
        for i in 0..rows {
            r.push(vec![Value::int(i as i64 % 5)]);
        }
        r
    }

    #[test]
    fn batched_ledger_peak_is_the_double_buffer_window() {
        let opts = ExecOptions {
            policy: crate::plan::ExecPolicy {
                batching: true,
                batch_rows: 4,
                ..crate::plan::ExecPolicy::default()
            },
            ..ExecOptions::default()
        };
        let ledger = ShipLedger::default();
        let out = ship_output(&opts, &ledger, 0, &rel(10));
        assert_eq!(out.batches, 3);
        // Two batches resident at once, never the whole relation.
        assert_eq!(ledger.peak_resident_rows(), 8);
        assert_eq!(ledger.total_batches(), 3);
    }

    #[test]
    fn materializing_ledger_holds_the_whole_relation() {
        let opts = ExecOptions::default();
        let ledger = ShipLedger::default();
        let out = ship_output(&opts, &ledger, 0, &rel(10));
        assert_eq!(out.batches, 1);
        assert_eq!(ledger.peak_resident_rows(), 10);
        assert_eq!(out.ship_bytes, rel(10).wire_bytes() as f64);
    }
}
