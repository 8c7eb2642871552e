//! Deterministic partitioned kernels for large row sets.
//!
//! The workspace builds without external crates, so instead of rayon this
//! module provides the data-parallel primitives the executors need, built on
//! `std::thread::scope`:
//!
//! * [`sort_perm`] — a partitioned stable **argsort**: indices are split
//!   into contiguous chunks, each chunk is stable-sorted on its own thread,
//!   and the chunks are merged taking from the *earlier* chunk on ties, so
//!   the permutation is byte-identical to a sequential stable sort. Column
//!   stores apply the permutation per column with [`apply_perm`] instead of
//!   moving rows.
//! * [`dedup_indices`] — a partitioned first-occurrence dedup over
//!   precomputed keys: each thread finds its chunk-local first occurrences,
//!   then one sequential pass over the (much smaller) survivor set keeps
//!   global first occurrences. Byte-identical to the sequential
//!   `HashSet`-retain dedup.
//! * [`stable_sort_rows`] / [`dedup_rows`] — the row-moving wrappers kept
//!   for row-major buffers (tests and the row-major reference operators;
//!   the mediator's own operators sort permutations and gather columns).
//!
//! All kernels fall back to the sequential path below a caller-supplied
//! threshold ([`PAR_THRESHOLD`] by default, tunable via the mediator's
//! `ExecPolicy::par_threshold`) or with `threads <= 1`, where partitioning
//! overhead would dominate.

use std::cmp::Ordering;
use std::collections::HashSet;
use std::hash::Hash;

/// Default row count below which the sequential path is used regardless of
/// `threads`. Callers that expose a tunable (the mediator's `ExecPolicy`)
/// pass their own threshold to the `*_with` variants.
pub const PAR_THRESHOLD: usize = 2048;

/// Stable argsort: returns the permutation `perm` such that visiting rows
/// in `perm` order is byte-identical to a sequential stable sort by `cmp`.
/// Partitioned over up to `threads` threads for `len >= threshold`.
pub fn sort_perm<F>(len: usize, threads: usize, threshold: usize, cmp: F) -> Vec<u32>
where
    F: Fn(u32, u32) -> Ordering + Sync,
{
    assert!(u32::try_from(len).is_ok(), "relation too large for argsort");
    let mut perm: Vec<u32> = (0..len as u32).collect();
    if threads <= 1 || len < threshold.max(2) {
        // `sort_by` is stable and the initial order is index order, so ties
        // keep ascending indices — the stable-argsort contract.
        perm.sort_by(|&a, &b| cmp(a, b));
        return perm;
    }
    let chunk_len = len.div_ceil(threads);
    std::thread::scope(|scope| {
        for chunk in perm.chunks_mut(chunk_len) {
            scope.spawn(|| chunk.sort_by(|&a, &b| cmp(a, b)));
        }
    });
    // K-way merge; ties take from the earlier chunk, which (chunks being
    // contiguous index ranges) preserves ascending original indices for
    // equal rows — exactly the stability contract.
    let mut cursors: Vec<(usize, usize)> = perm
        .chunks(chunk_len)
        .enumerate()
        .map(|(i, c)| (i * chunk_len, i * chunk_len + c.len()))
        .collect();
    let merged_src = perm.clone();
    let mut out = Vec::with_capacity(len);
    loop {
        let mut best: Option<usize> = None;
        for (i, &(pos, end)) in cursors.iter().enumerate() {
            if pos >= end {
                continue;
            }
            best = match best {
                Some(b) if cmp(merged_src[cursors[b].0], merged_src[pos]) != Ordering::Greater => {
                    Some(b)
                }
                _ => Some(i),
            };
        }
        let Some(b) = best else { break };
        out.push(merged_src[cursors[b].0]);
        cursors[b].0 += 1;
    }
    out
}

/// Gathers `data` through a permutation: `out[i] = data[perm[i]]`. The
/// column-store counterpart of moving whole rows.
pub fn apply_perm<T: Copy>(data: &[T], perm: &[u32]) -> Vec<T> {
    perm.iter().map(|&i| data[i as usize]).collect()
}

/// First-occurrence dedup over precomputed row keys: returns the surviving
/// row indices in first-occurrence order, byte-identical to the sequential
/// `HashSet`-retain dedup. Partitioned over up to `threads` threads for
/// `keys.len() >= threshold`.
pub fn dedup_indices<K>(keys: &[K], threads: usize, threshold: usize) -> Vec<u32>
where
    K: Hash + Eq + Sync,
{
    if threads <= 1 || keys.len() < threshold {
        let mut seen: HashSet<&K> = HashSet::with_capacity(keys.len());
        return (0..keys.len() as u32)
            .filter(|&i| seen.insert(&keys[i as usize]))
            .collect();
    }
    let chunk_len = keys.len().div_ceil(threads);
    // Per-chunk local first occurrences (global row indices).
    let local: Vec<Vec<u32>> = std::thread::scope(|scope| {
        let handles: Vec<_> = keys
            .chunks(chunk_len)
            .enumerate()
            .map(|(c, chunk)| {
                scope.spawn(move || {
                    let base = (c * chunk_len) as u32;
                    let mut seen: HashSet<&K> = HashSet::with_capacity(chunk.len());
                    (0..chunk.len())
                        .filter(|&i| seen.insert(&chunk[i]))
                        .map(|i| base + i as u32)
                        .collect::<Vec<u32>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("dedup worker"))
            .collect()
    });
    // Sequential pass over the survivors only: chunks cover the input in
    // original order, so the first global occurrence wins, as in the
    // sequential dedup.
    let mut seen: HashSet<&K> = HashSet::new();
    let mut out = Vec::new();
    for chunk in local {
        for i in chunk {
            if seen.insert(&keys[i as usize]) {
                out.push(i);
            }
        }
    }
    out
}

/// Stable sort of `rows` by `cmp`, partitioned over up to `threads` threads.
/// Byte-identical to `rows.sort_by(cmp)` for any comparator. The row-moving
/// wrapper around [`sort_perm`], kept for row-major buffers.
pub fn stable_sort_rows<T, F>(rows: &mut Vec<T>, threads: usize, cmp: F)
where
    T: Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    stable_sort_rows_with(rows, threads, PAR_THRESHOLD, cmp);
}

/// [`stable_sort_rows`] with an explicit sequential-fallback threshold.
pub fn stable_sort_rows_with<T, F>(rows: &mut Vec<T>, threads: usize, threshold: usize, cmp: F)
where
    T: Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    if threads <= 1 || rows.len() < threshold.max(2) {
        rows.sort_by(|a, b| cmp(a, b));
        return;
    }
    let perm = sort_perm(rows.len(), threads, threshold, |a, b| {
        cmp(&rows[a as usize], &rows[b as usize])
    });
    let mut taken: Vec<Option<T>> = std::mem::take(rows).into_iter().map(Some).collect();
    *rows = perm
        .into_iter()
        .map(|i| {
            taken[i as usize]
                .take()
                .expect("permutation is a bijection")
        })
        .collect();
}

/// First-occurrence dedup of `rows`, partitioned over up to `threads`
/// threads. Byte-identical to the sequential `HashSet`-retain dedup.
pub fn dedup_rows<T>(rows: &mut Vec<T>, threads: usize)
where
    T: Hash + Eq + Sync,
{
    dedup_rows_with(rows, threads, PAR_THRESHOLD);
}

/// [`dedup_rows`] with an explicit sequential-fallback threshold.
pub fn dedup_rows_with<T>(rows: &mut Vec<T>, threads: usize, threshold: usize)
where
    T: Hash + Eq + Sync,
{
    let keep = dedup_indices(rows, threads, threshold);
    if keep.len() == rows.len() {
        return;
    }
    let mut taken: Vec<Option<T>> = std::mem::take(rows).into_iter().map(Some).collect();
    *rows = keep
        .into_iter()
        .map(|i| taken[i as usize].take().expect("kept once"))
        .collect();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn make_rows(n: usize) -> Vec<Vec<Value>> {
        // A deterministic, duplicate-heavy, unsorted row set.
        (0..n)
            .map(|i| {
                vec![
                    Value::int(((i * 7919) % 257) as i64),
                    Value::str(format!("s{}", (i * 31) % 97)),
                ]
            })
            .collect()
    }

    #[test]
    fn parallel_sort_matches_sequential() {
        for n in [0, 1, 100, PAR_THRESHOLD + 123] {
            let rows = make_rows(n);
            let mut seq = rows.clone();
            seq.sort();
            for threads in [2, 3, 4, 9] {
                let mut par = rows.clone();
                stable_sort_rows(&mut par, threads, |a, b| a.cmp(b));
                assert_eq!(seq, par, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_sort_is_stable() {
        // Sort by the first column only; equal keys must keep input order.
        let rows: Vec<Vec<Value>> = (0..(PAR_THRESHOLD * 2))
            .map(|i| vec![Value::int((i % 5) as i64), Value::int(i as i64)])
            .collect();
        let mut seq = rows.clone();
        seq.sort_by(|a, b| a[0].cmp(&b[0]));
        let mut par = rows.clone();
        stable_sort_rows(&mut par, 4, |a, b| a[0].cmp(&b[0]));
        assert_eq!(seq, par);
    }

    #[test]
    fn parallel_dedup_matches_sequential() {
        for n in [0, 1, 100, PAR_THRESHOLD + 57] {
            let rows = make_rows(n);
            let mut seq = rows.clone();
            let mut seen: std::collections::HashSet<Vec<Value>> = Default::default();
            seq.retain(|row| seen.insert(row.clone()));
            for threads in [2, 4, 7] {
                let mut par = rows.clone();
                dedup_rows(&mut par, threads);
                assert_eq!(seq, par, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn sort_perm_matches_stable_argsort() {
        let keys: Vec<i64> = (0..5000).map(|i| ((i * 7919) % 101) as i64).collect();
        let mut expected: Vec<u32> = (0..keys.len() as u32).collect();
        expected.sort_by(|&a, &b| keys[a as usize].cmp(&keys[b as usize]));
        for threads in [1, 2, 4, 5] {
            for threshold in [1, 2048, usize::MAX] {
                let perm = sort_perm(keys.len(), threads, threshold, |a, b| {
                    keys[a as usize].cmp(&keys[b as usize])
                });
                assert_eq!(perm, expected, "threads={threads} threshold={threshold}");
            }
        }
        let gathered = apply_perm(&keys, &expected);
        assert!(gathered.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn dedup_indices_keeps_first_occurrences() {
        let keys: Vec<u64> = (0..4096).map(|i| (i * 17) % 33).collect();
        let mut seen = std::collections::HashSet::new();
        let expected: Vec<u32> = (0..keys.len() as u32)
            .filter(|&i| seen.insert(keys[i as usize]))
            .collect();
        for threads in [1, 2, 4] {
            for threshold in [1, 2048, usize::MAX] {
                assert_eq!(
                    dedup_indices(&keys, threads, threshold),
                    expected,
                    "threads={threads} threshold={threshold}"
                );
            }
        }
    }
}
