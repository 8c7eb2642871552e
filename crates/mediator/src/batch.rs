//! The ship seam: where a task's output crosses from its source to the
//! mediator, priced by one function, `ship`.
//!
//! What crosses is the output's *ship image*: its live columns
//! ([`crate::shipcut`]; every column when ship-cut is off), duplicates
//! collapsed when every costed consumer is duplicate-insensitive. Its price
//! is the image's dictionary-encoded wire size — the `size(Q)` that §5.2's
//! transfer cost reads. Materializing (the default, the paper's model)
//! ships the image as one batch over all its rows. With
//! [`crate::plan::ExecPolicy::batching`] on it ships the image's
//! `batch_rows`-row ranges, each priced on its own: a batch ships the
//! dictionary slice its rows touch. Either way the live columns are priced
//! where they lie ([`Relation::wire_bytes_of`]); an image is built only
//! when it collapses duplicates.
//!
//! A shipment holds its largest window of rows at the seam: the whole
//! relation when materializing; two batches when batching — batch `k` is
//! on the wire while the consumer digests batch `k − 1`. The walk keeps the
//! largest window of any one shipment as the run's `peak_resident_rows`,
//! so the peak is a function of what shipped, not of how workers
//! interleaved.
//!
//! That is all the flag does: it changes *when rows cross the seam*, never
//! what arrives. The producer is a materialized relation, so nothing on the
//! consumer side re-chunks it — the SQL executor and the set-semantics
//! dedup run the same loops either way, and stores and documents are
//! byte-identical.

use crate::exec::ExecOptions;
use aig_relstore::Relation;

/// What the shipment seam did during one execution; carried in
/// [`crate::exec::ExecResult`] and summarized into the run report's
/// `batching` section.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BatchLog {
    /// Whether chunked shipment was on.
    pub enabled: bool,
    /// The configured batch size (rows); meaningful only when enabled.
    pub batch_rows: usize,
    /// Batches shipped across the tasks the walk ran (one per task output
    /// when off).
    pub total_batches: u64,
    /// The largest window of rows any one shipment held at the seam:
    /// `min(image rows, 2 × batch_rows)` when batching, the largest shipped
    /// relation when materializing.
    pub peak_resident_rows: u64,
}

/// One task output's passage through the seam.
pub(crate) struct Shipment {
    /// Wire bytes of the ship image: over all its rows when materializing,
    /// summed over its batches when batching.
    pub bytes: f64,
    /// Batches the output crossed the seam in: 1 when materializing,
    /// `ceil(image rows / batch_rows)` when batching.
    pub batches: u64,
    /// Rows the shipment held at the seam at once.
    pub resident_rows: usize,
}

/// Ships `rel`, the output of `task`, through the seam.
pub(crate) fn ship(opts: &ExecOptions, task: usize, rel: &Relation) -> Shipment {
    let profile = opts.shipcut.as_ref().map(|cut| (cut, cut.profile(task)));
    let deduped;
    let (image, prune) = match profile {
        Some((cut, profile)) if profile.dedup => {
            deduped = cut.ship_image(task, rel);
            (&deduped, None)
        }
        _ => (rel, profile.map(|(_, profile)| &profile.live)),
    };
    let names = image.columns();
    let keep = |c: usize| prune.is_none_or(|live| live.contains(&names[c], c));
    let live = (0..image.arity()).filter(|&c| keep(c));
    let rows = image.len();
    if !opts.policy.batching {
        return Shipment {
            bytes: image.wire_bytes_of(live, 0..rows) as f64,
            batches: 1,
            resident_rows: rel.len(),
        };
    }
    // Floored at one: the options builder rejects zero, but hand-built
    // options reach here unvalidated.
    let batch_rows = opts.policy.batch_rows.max(1);
    let batch = |start: usize| start..start.saturating_add(batch_rows);
    let priced = (0..rows).step_by(batch_rows);
    let priced = priced.map(|start| image.wire_bytes_of(live.clone(), batch(start)));
    Shipment {
        bytes: priced.sum::<usize>() as f64,
        batches: rows.div_ceil(batch_rows) as u64,
        resident_rows: rows.min(batch_rows.saturating_mul(2)),
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

    fn batched(batch_rows: usize) -> ExecOptions {
        ExecOptions::new(crate::plan::ExecPolicy {
            batching: true,
            batch_rows,
            ..crate::plan::ExecPolicy::default()
        })
    }

    #[test]
    fn a_batched_shipment_holds_the_double_buffer_window() {
        let out = ship(&batched(4), 0, &rel(10));
        assert_eq!(out.batches, 3);
        // Two batches resident at once, never the whole relation.
        assert_eq!(out.resident_rows, 8);
        // Each batch ships the dictionary slice its rows touch.
        let slices = [
            rel(10).slice(0, 4),
            rel(10).slice(4, 4),
            rel(10).slice(8, 2),
        ];
        let priced: usize = slices.iter().map(Relation::wire_bytes).sum();
        assert_eq!(out.bytes, priced as f64);
        // An image shorter than two batches is resident in full.
        assert_eq!(ship(&batched(4), 0, &rel(6)).resident_rows, 6);
        let empty = ship(&batched(4), 0, &rel(0));
        assert_eq!(
            (empty.batches, empty.resident_rows, empty.bytes),
            (0, 0, 0.0)
        );
    }

    #[test]
    fn a_materializing_shipment_holds_the_whole_relation() {
        let out = ship(&ExecOptions::default(), 0, &rel(10));
        assert_eq!(out.batches, 1);
        assert_eq!(out.resident_rows, 10);
        assert_eq!(out.bytes, rel(10).wire_bytes() as f64);
        // A batch that is the whole image is the materializing price.
        assert_eq!(ship(&batched(usize::MAX), 0, &rel(10)).bytes, out.bytes);
    }
}
