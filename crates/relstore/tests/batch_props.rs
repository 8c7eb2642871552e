//! Property suite for pricing a shipment where it lies: a relation's
//! `batch_rows`-row ranges partition it, and pricing a range of some of
//! its columns in place (`Relation::wire_bytes_of`) is pricing that
//! projection's slice — for every batch size and column subset, including
//! NULL-heavy columns and the mediator's `__owner`/`__ord` bookkeeping
//! columns. The slices concatenate back to the relation exactly, in
//! content and size accounting.

use aig_prng::{Rng, SeedableRng, StdRng};
use aig_relstore::{payload_scans, Relation, Value};
use std::ops::Range;

/// A random relation shaped like the mediator's shipped temporaries: a
/// couple of payload columns drawn from small pools (so dictionary encoding
/// has repeats), a NULL-heavy column, and the `__owner`/`__ord` bookkeeping
/// columns the assembly tasks rely on.
fn random_relation(rng: &mut StdRng, rows: usize) -> Relation {
    let columns = vec![
        "__owner".to_string(),
        "__ord".to_string(),
        "payload".to_string(),
        "maybe_null".to_string(),
    ];
    let mut rel = Relation::empty(columns);
    for r in 0..rows {
        let owner = Value::int(rng.gen_range(0..8i64));
        let ord = Value::int(r as i64);
        let payload = Value::str(format!("p{}", rng.gen_range(0..23u32)));
        let maybe_null = if rng.gen_bool(0.4) {
            Value::Null
        } else {
            Value::str(format!("v{}", rng.gen_range(0..5u32)))
        };
        rel.push(vec![owner, ord, payload, maybe_null]);
    }
    rel
}

/// The consecutive `batch_rows`-row ranges of `rows` rows (`0` ≙ 1).
fn ranges(rows: usize, batch_rows: usize) -> impl Iterator<Item = Range<usize>> {
    let batch_rows = batch_rows.max(1);
    (0..rows)
        .step_by(batch_rows)
        .map(move |start| start..rows.min(start.saturating_add(batch_rows)))
}

#[test]
fn ranges_priced_in_place_are_their_slices_priced() {
    let mut rng = StdRng::seed_from_u64(0x9a7c_2026);
    for case in 0..40 {
        let rows = rng.gen_range(0..300usize);
        let rel = random_relation(&mut rng, rows);
        let (wire, raw) = (rel.wire_bytes(), rel.byte_size());
        let live: Vec<usize> = (0..rel.arity()).filter(|_| rng.gen_bool(0.6)).collect();
        let image = rel.project_positions(&live);
        for batch_rows in [1, 2, 7, 64, 256, usize::MAX] {
            let what = format!("case {case} batch_rows={batch_rows} live={live:?}");
            let batches: Vec<Range<usize>> = ranges(rows, batch_rows).collect();
            assert_eq!(batches.len(), rows.div_ceil(batch_rows), "{what}");
            assert!(batches
                .iter()
                .all(|b| !b.is_empty() && b.len() <= batch_rows));
            let slices: Vec<Relation> = (batches.iter())
                .map(|b| rel.slice(b.start, b.len()))
                .collect();

            // Every range of the live columns, priced where it lies, is
            // the projected slice priced on its own.
            for (range, slice) in batches.iter().zip(&slices) {
                assert_eq!(
                    rel.wire_bytes_of(live.iter().copied(), range.clone()),
                    slice.project_positions(&live).wire_bytes(),
                    "{what}: rows {range:?}"
                );
            }
            let priced: usize = (batches.iter())
                .map(|b| image.wire_bytes_of(0..live.len(), b.clone()))
                .sum();
            let in_place: usize = (batches.iter())
                .map(|b| rel.wire_bytes_of(live.iter().copied(), b.clone()))
                .sum();
            assert_eq!(priced, in_place, "{what}: image against relation");

            // Raw payload is additive over batches. The dictionary-encoded
            // wire size is not: each batch re-ships the distinct values its
            // rows touch (pushing the sum up), while a batch with few
            // distincts may use a narrower per-row code than the whole
            // column (pulling it down by at most 3 bytes/row, the 4-byte vs
            // 1-byte code gap). Both effects are bounded below by the
            // whole-relation dictionaries.
            let raw_sum: usize = slices.iter().map(Relation::byte_size).sum();
            assert_eq!(raw_sum, raw, "{what}: raw bytes");
            let wire_sum: usize = (batches.iter())
                .map(|b| rel.wire_bytes_of(0..rel.arity(), b.clone()))
                .sum();
            assert!(
                wire_sum + 3 * rows >= wire,
                "{what}: per-batch wire {wire_sum} beats whole-relation wire {wire} \
                 by more than the code-width gap"
            );

            let mut rebuilt = Relation::empty(rel.columns().to_vec());
            for slice in &slices {
                rebuilt.extend(slice).expect("slice columns match");
            }
            assert_eq!(rebuilt, rel, "{what}: content");
            assert_eq!(rebuilt.wire_bytes(), wire, "{what}: rebuilt wire bytes");
            assert_eq!(rebuilt.byte_size(), raw, "{what}: rebuilt raw bytes");
        }
    }
}

#[test]
fn all_null_columns_are_priced_in_every_batch() {
    // A column of pure NULL (`Sym(0)`) cells: one distinct symbol, minimal
    // dictionary — and a batch must neither drop nor widen it.
    let mut rel = Relation::empty(vec!["n".to_string()]);
    for _ in 0..100 {
        rel.push(vec![Value::Null]);
    }
    for range in ranges(rel.len(), 9) {
        let slice = rel.slice(range.start, range.len());
        let in_place = rel.wire_bytes_of([0], range);
        assert!(in_place > 0);
        assert_eq!(in_place, slice.wire_bytes());
    }
}

#[test]
fn the_whole_relation_is_the_materializing_price() {
    let mut rng = StdRng::seed_from_u64(7);
    let rel = random_relation(&mut rng, 50);
    let wire = rel.wire_bytes();
    // One range over every row is the materializing shipment: it answers
    // from the columns' memoized sizes, with no payload scan, whatever the
    // range's end.
    let before = payload_scans();
    assert_eq!(rel.wire_bytes_of(0..rel.arity(), 0..usize::MAX), wire);
    assert_eq!(
        rel.wire_bytes_of([0, 2], 0..rel.len()),
        rel.project_positions(&[0, 2]).wire_bytes()
    );
    assert_eq!(payload_scans(), before);
}
