//! Differential and adversarial suite of the symbol-keyed kernels: each is
//! held against the plain `std` code it replaced, over seeded inputs, and
//! then pushed where a dense-integer kernel can go wrong — key
//! distributions that defeat a weak hasher, and the life cycle of the
//! sizing scratch.
//!
//! * [`SymMap`] / [`SymSet`] against the default-hasher `HashMap`;
//! * [`RowTable`] dedup and the packed dedup of rows one or two symbols
//!   wide against first occurrences in a default-hasher `HashSet<Vec<Sym>>`;
//! * [`SizeScratch::measure`] against `sort_unstable` + `dedup`;
//! * [`JoinTable`] against a `HashMap<Vec<Sym>, Vec<u32>>` filled in scan
//!   order.
//!
//! Run in release for the full 1 M-key distribution test (the CI `chaos`
//! job does); a debug build runs it at 100 k keys.

use aig_prng::{Rng, SeedableRng, StdRng};
use aig_relstore::intern::{self, Reader, Sym, SymMap, SymSet};
use aig_relstore::par::{dedup_indices, JoinTable, RowTable};
use aig_relstore::relation::SizeScratch;
use aig_relstore::{Relation, Value};
use std::collections::{HashMap, HashSet};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

const SEEDS: u64 = 240;

/// Real symbols of mixed widths: NULL, integers, strings of 0–40 bytes.
fn pool() -> &'static [Sym] {
    static POOL: OnceLock<Vec<Sym>> = OnceLock::new();
    POOL.get_or_init(|| {
        let mut pool = vec![Sym::NULL];
        pool.extend((0..300).map(|i| intern::intern(&Value::int(i * 7919 - 1000))));
        pool.extend((0..300).map(|i| intern::intern(&Value::str("x".repeat(i % 41) + "#"))));
        pool
    })
}

/// One seeded column per shape the kernels must not care about: a small
/// pool with repeats, NULL-heavy, all equal, all distinct.
fn column(rng: &mut StdRng, rows: usize) -> Vec<Sym> {
    let pool = pool();
    match rng.gen_range(0..5u32) {
        0 => vec![*rng.pick(pool); rows],
        1 => {
            let mut distinct: Vec<Sym> = pool.iter().cycle().take(rows).copied().collect();
            distinct.truncate(rows.min(pool.len()));
            distinct.resize(rows, Sym::NULL);
            rng.shuffle(&mut distinct);
            distinct
        }
        2 => (0..rows)
            .map(|_| match rng.gen_bool(0.6) {
                true => Sym::NULL,
                false => *rng.pick(&pool[..8]),
            })
            .collect(),
        _ => {
            let few = rng.gen_range(1..40usize);
            (0..rows).map(|_| *rng.pick(&pool[..few])).collect()
        }
    }
}

/// Arity 1–5 and empty, single-row, and a few hundred rows.
fn columns(rng: &mut StdRng) -> Vec<Vec<Sym>> {
    let rows = match rng.gen_range(0..6u32) {
        0 => 0,
        1 => 1,
        _ => rng.gen_range(2..400usize),
    };
    let arity = rng.gen_range(1..6usize);
    (0..arity).map(|_| column(rng, rows)).collect()
}

fn slices(cols: &[Vec<Sym>]) -> Vec<&[Sym]> {
    cols.iter().map(Vec::as_slice).collect()
}

fn row(cols: &[Vec<Sym>], r: usize) -> Vec<Sym> {
    cols.iter().map(|col| col[r]).collect()
}

/// Keys `arity` symbols wide cut from the rows of another relation, its
/// columns repeated as needed.
fn foreign_keys(rng: &mut StdRng, arity: usize) -> Vec<Vec<Sym>> {
    let foreign = columns(rng);
    let key = |r| (0..arity).map(|c| foreign[c % foreign.len()][r]).collect();
    (0..foreign[0].len()).map(key).collect()
}

fn names(arity: usize) -> Vec<String> {
    (0..arity).map(|c| format!("c{c}")).collect()
}

#[test]
fn sym_map_agrees_with_the_default_hasher_map() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(0x5e3d_0000 + seed);
        let mut fast: SymMap<(Sym, Sym), u32> = SymMap::default();
        let mut plain: HashMap<(Sym, Sym), u32> = HashMap::new();
        let (mut fast_set, mut plain_set) = (SymSet::<Sym>::default(), HashSet::new());
        let mut history = Vec::new();
        for step in 0..rng.gen_range(0..600u32) {
            let key = (*rng.pick(&pool()[..30]), *rng.pick(&pool()[..30]));
            match rng.gen_range(0..3u32) {
                0 => assert_eq!(fast.insert(key, step), plain.insert(key, step)),
                1 => assert_eq!(fast.remove(&key), plain.remove(&key)),
                _ => assert_eq!(fast.get(&key), plain.get(&key)),
            }
            assert_eq!(fast_set.insert(key.1), plain_set.insert(key.1));
            history.push(key);
        }
        assert_eq!(fast.len(), plain.len());
        assert!(plain.iter().all(|(k, v)| fast.get(k) == Some(v)));
        assert!(plain_set.iter().all(|k| fast_set.contains(k)));
        // Iteration order is a function of the keys and their history, not
        // of the map instance or the process (no per-map random seed).
        let replay = || history.iter().copied().zip(0u32..).collect();
        let (once, again): (SymMap<_, _>, SymMap<_, _>) = (replay(), replay());
        assert!(once.iter().eq(again.iter()), "seed {seed}");
    }
}

#[test]
fn row_table_dedup_keeps_the_default_hasher_first_occurrences() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(0xded0_0000 + seed);
        let cols = columns(&mut rng);
        let rows = cols[0].len();
        let mut seen: HashSet<Vec<Sym>> = HashSet::new();
        let expected: Vec<u32> = (0..rows as u32)
            .filter(|&r| seen.insert(row(&cols, r as usize)))
            .collect();
        let kept = dedup_indices(&slices(&cols));
        assert_eq!(kept, expected, "seed {seed}");
        let mut rel = Relation::from_columns(names(cols.len()), cols.clone());
        rel.dedup();
        let survivors: Vec<Vec<Sym>> = (0..cols.len())
            .map(|c| expected.iter().map(|&r| cols[c][r as usize]).collect())
            .collect();
        assert_eq!(
            rel,
            Relation::from_columns(names(cols.len()), survivors),
            "seed {seed}"
        );
        // The table itself, row by row: `insert` names the earlier equal
        // row, `find` takes keys from elsewhere, growth loses nothing.
        let mut table = RowTable::new(slices(&cols), 0);
        let mut first: HashMap<Vec<Sym>, u32> = HashMap::new();
        for r in 0..rows as u32 {
            let key = row(&cols, r as usize);
            let earlier = first.get(&key).copied();
            assert_eq!(table.insert(r), earlier, "seed {seed} row {r}");
            first.entry(key).or_insert(r);
        }
        for key in foreign_keys(&mut rng, cols.len()) {
            assert_eq!(table.find(|c| key[c]), first.get(&key).copied());
        }
    }
}

/// The packed dedup (rows of one or two symbols) and the row-table dedup
/// (three) against the default-hasher oracle, each right after a larger dedup of the same width on the calling thread:
/// the slot scratch it left behind carries nothing into the next call.
#[test]
fn dedup_after_a_larger_one_keeps_the_default_hasher_first_occurrences() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(0xd5c2_0000 + seed);
        let rows = rng.gen_range(0..400usize);
        for width in 1..=3 {
            let cols: Vec<Vec<Sym>> = (0..width).map(|_| column(&mut rng, rows)).collect();
            let mut seen: HashSet<Vec<Sym>> = HashSet::new();
            let expected: Vec<u32> = (0..rows as u32)
                .filter(|&r| seen.insert(row(&cols, r as usize)))
                .collect();
            let larger: Vec<Vec<Sym>> = (0..width)
                .map(|_| column(&mut rng, 4 * rows + 64))
                .collect();
            dedup_indices(&slices(&larger));
            let kept = dedup_indices(&slices(&cols));
            assert_eq!(kept, expected, "seed {seed} width {width}");
        }
    }
}

/// Distinct count, dictionary bytes and raw bytes by copy + sort + dedup.
fn reference_size(col: &[Sym]) -> (usize, usize, usize) {
    let width = |sym: &Sym| intern::resolve(*sym).width();
    let mut distinct = col.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let dict = distinct.iter().map(width).sum();
    (distinct.len(), dict, col.iter().map(width).sum())
}

fn reference_wire(col: &[Sym]) -> usize {
    let (distinct, dict, _) = reference_size(col);
    let code = match distinct {
        0..=256 => 1,
        257..=65_536 => 2,
        _ => 4,
    };
    dict + col.len() * code
}

#[test]
fn one_pass_sizes_agree_with_sort_and_dedup() {
    let mut scratch = SizeScratch::default();
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(0x512e_0000 + seed);
        let cols = columns(&mut rng);
        let reader = Reader::snapshot();
        for col in &cols {
            let size = scratch.measure(col, &reader);
            let sized = (size.distinct, size.dict_bytes, size.raw_bytes);
            assert_eq!(sized, reference_size(col), "seed {seed}");
            assert_eq!(
                size.wire_bytes(col.len()),
                reference_wire(col),
                "seed {seed}"
            );
        }
        let rel = Relation::from_columns(names(cols.len()), cols.clone());
        let wire: usize = cols.iter().map(|col| reference_wire(col)).sum();
        let raw: usize = cols.iter().map(|col| reference_size(col).2).sum();
        assert_eq!(
            (rel.wire_bytes(), rel.byte_size()),
            (wire, raw),
            "seed {seed}"
        );
        // A batch is priced in place as its slice would be.
        let rows = rel.len();
        let start = rng.gen_range(0..rows + 1);
        let end = rng.gen_range(start..rows + 2);
        let in_place = rel.wire_bytes_of(0..rel.arity(), start..end);
        let clamped = start..end.min(rows);
        let sliced: usize = cols
            .iter()
            .map(|col| reference_wire(&col[clamped.clone()]))
            .sum();
        assert_eq!(
            in_place, sliced,
            "seed {seed} rows {start}..{end} of {rows}"
        );
        assert_eq!(in_place, rel.slice(start, end - start).wire_bytes());
    }
}

#[test]
fn chained_join_table_lists_matches_in_scan_order() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(0x701e_0000 + seed);
        let cols = columns(&mut rng);
        let rows = cols[0].len();
        let keep = rng.gen_range(0.2..1.0f64);
        let live: Vec<u32> = (0..rows as u32).filter(|_| rng.gen_bool(keep)).collect();
        let mut expected: HashMap<Vec<Sym>, Vec<u32>> = HashMap::new();
        for &r in &live {
            let key = row(&cols, r as usize);
            if !key.iter().any(|sym| sym.is_null()) {
                expected.entry(key).or_default().push(r);
            }
        }
        let table = JoinTable::build(slices(&cols), &live);
        // Probe with the table's own rows (dead ones included) and with
        // rows of an unrelated relation; NULL keys match nothing.
        let own = (0..rows).map(|r| row(&cols, r));
        for key in own.chain(foreign_keys(&mut rng, cols.len())) {
            let got: Vec<u32> = table.matches(|c| key[c]).collect();
            let want = expected.get(&key).cloned().unwrap_or_default();
            assert_eq!(got, want, "seed {seed} key {key:?}");
            assert!(got.is_empty() || !key.iter().any(|sym| sym.is_null()));
        }
    }
}

// -- Distribution ---------------------------------------------------------------

/// Fastest of three runs of `work`.
fn fastest<T>(mut work: impl FnMut() -> T) -> (T, Duration) {
    let mut best: Option<(T, Duration)> = None;
    for _ in 0..3 {
        let start = Instant::now();
        let out = work();
        let took = start.elapsed();
        if best.as_ref().is_none_or(|(_, b)| took < *b) {
            best = Some((out, took));
        }
    }
    best.expect("three runs")
}

/// Inserts every key into a [`SymSet`] and a [`RowTable`] and finds each
/// again; returns the time and the table's longest probe.
fn hash_all(cols: &[Vec<Sym>]) -> (usize, Duration) {
    let n = cols[0].len();
    fastest(|| {
        let mut table = RowTable::new(slices(cols), n);
        assert!(
            (0..n as u32).all(|r| table.insert(r).is_none()),
            "keys are distinct"
        );
        assert!((0..n as u32).all(|r| table.find(|c| cols[c][r as usize]) == Some(r)));
        match cols {
            [ids] => {
                let set: SymSet<Sym> = ids.iter().copied().collect();
                assert!(set.len() == n && ids.iter().all(|id| set.contains(id)));
            }
            [a, b] => {
                let set: SymSet<(Sym, Sym)> = a.iter().copied().zip(b.iter().copied()).collect();
                assert!(set.len() == n && (0..n).all(|r| set.contains(&(a[r], b[r]))));
            }
            _ => unreachable!("one- and two-column keys"),
        }
        table.longest_probe()
    })
}

/// Dense ids are not random numbers: sequential ids, ids at every
/// power-of-two stride (the key column of a table interned row-major) and
/// `(i, i·stride)` pairs must hash as well as random ids do. A multiply
/// without the final folds leaves the low bits of strided ids zero, which is
/// where both tables take the bucket from: the longest probe doubles with
/// the stride (122 slots at 2⁸, when a million keys already take 373 ms
/// against 104 ms for random ids) and this test fails, on time first.
#[test]
fn strided_and_sequential_ids_hash_like_random_ones() {
    let keys: u32 = if cfg!(debug_assertions) {
        100_000
    } else {
        1_000_000
    };
    let ids = |stride: u32, n: u32| (0..n).map(|i| Sym::from_index(i * stride)).collect();
    let mut rng = StdRng::seed_from_u64(0xd157);
    let mut random_ids = |n: u32| -> Vec<Sym> {
        let mut seen = HashSet::new();
        let draws = std::iter::repeat_with(|| rng.gen_range(0..u32::MAX));
        let fresh = draws.filter(|id| seen.insert(*id));
        fresh.take(n as usize).map(Sym::from_index).collect()
    };
    // A million random ids in a half-full table probe 30 to 50 slots at the
    // longest; these read up to 263 (stride 4), at the same speed. Without
    // the fold the longest probe doubles with the stride, into the thousands.
    const PROBE_BOUND: usize = 512;
    let slack = Duration::from_millis(20);
    let mut cases: Vec<(String, Vec<Vec<Sym>>)> = vec![("sequential".into(), vec![ids(1, keys)])];
    for shift in 1..=16 {
        // As many keys as fit below 2³² at this stride.
        let n = keys.min(u32::MAX >> shift);
        cases.push((format!("stride 2^{shift}"), vec![ids(1 << shift, n)]));
        cases.push((
            format!("pairs (i, i * 2^{shift})"),
            vec![ids(1, n), ids(1 << shift, n)],
        ));
    }
    // The control — as many random ids — per key count and key width.
    let mut controls: HashMap<(u32, usize), (usize, Duration)> = HashMap::new();
    for (case, cols) in cases {
        let n = cols[0].len() as u32;
        let (random_probe, random_time) = *controls.entry((n, cols.len())).or_insert_with(|| {
            let control: Vec<Vec<Sym>> = cols.iter().map(|_| random_ids(n)).collect();
            hash_all(&control)
        });
        let (probe, time) = hash_all(&cols);
        assert!(
            probe <= PROBE_BOUND && random_probe <= PROBE_BOUND,
            "{case}: longest probe {probe} ({random_probe} for random ids) over {n} keys"
        );
        assert!(
            time <= 3 * random_time + slack,
            "{case}: {time:?} for {n} keys against {random_time:?} for random ids"
        );
    }
}

// -- Scratch life cycle ---------------------------------------------------------

#[test]
fn the_epoch_wraps_without_confusing_passes() {
    let mut rng = StdRng::seed_from_u64(0xe90c);
    // Passes are numbered MAX − 1, MAX, then — 0 being the stamp of a symbol
    // never seen — 1, 2, …
    let mut scratch = SizeScratch::at_epoch(u32::MAX - 2);
    let reader = Reader::snapshot();
    for pass in 0..8 {
        let col = column(&mut rng, 300);
        let size = scratch.measure(&col, &reader);
        let sized = (size.distinct, size.dict_bytes, size.raw_bytes);
        assert_eq!(sized, reference_size(&col), "pass {pass}");
        // The same column again: every stamp is one pass stale.
        assert_eq!(
            scratch.measure(&col, &reader),
            size,
            "pass {pass}, repeated"
        );
    }
}

#[test]
fn the_scratch_follows_the_arena_as_it_grows() {
    let mut scratch = SizeScratch::default();
    let mut col: Vec<Sym> = pool()[..50].to_vec();
    for round in 0..4 {
        // Symbols the scratch has never had a stamp for.
        let fresh = (0..40).map(|i| Value::str(format!("grown-{round}-{i}-b81f")));
        col.extend(fresh.map(intern::intern_owned));
        let size = scratch.measure(&col, &Reader::snapshot());
        let sized = (size.distinct, size.dict_bytes, size.raw_bytes);
        assert_eq!(sized, reference_size(&col), "round {round}");
    }
}

#[test]
fn sizing_inside_another_tables_lifetime_and_on_two_threads() {
    let barrier = Barrier::new(2);
    std::thread::scope(|scope| {
        for thread in 0..2u64 {
            let barrier = &barrier;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x2a11 + thread);
                barrier.wait();
                for _ in 0..60 {
                    let cols = columns(&mut rng);
                    let rel = Relation::from_columns(names(cols.len()), cols.clone());
                    // A row table and a symbol map are alive across the
                    // sizing, and used after it.
                    let mut table = RowTable::new(slices(&cols), 0);
                    let mut widths: SymMap<Sym, usize> = SymMap::default();
                    let half = rel.len() / 2;
                    let dups = (0..half as u32)
                        .filter(|&r| table.insert(r).is_some())
                        .count();
                    let wire: usize = cols.iter().map(|col| reference_wire(col)).sum();
                    assert_eq!(rel.wire_bytes(), wire);
                    widths.extend(cols[0].iter().map(|&s| (s, intern::resolve(s).width())));
                    let more =
                        (half as u32..rel.len() as u32).filter(|&r| table.insert(r).is_some());
                    let mut distinct = rel.clone();
                    distinct.dedup();
                    assert_eq!(rel.len() - dups - more.count(), distinct.len());
                    let raw: usize = cols[0].iter().map(|s| widths[s]).sum();
                    assert_eq!(rel.project_positions(&[0]).byte_size(), raw);
                }
            });
        }
    });
}

#[test]
fn wire_bytes_steps_at_the_code_widths() {
    // Integers are 8 bytes wide: `k` distinct ones over `rows` rows cost a
    // dictionary of 8k plus a 1-, 2- or 4-byte code per row.
    let ints = intern::int_syms(65_537);
    for (distinct, code) in [(256, 1), (257, 2), (65_536, 2), (65_537, 4)] {
        let rows = distinct + 1_000;
        let col: Vec<Sym> = (0..rows).map(|r| ints[r % distinct]).collect();
        let rel = Relation::from_columns(names(1), vec![col]);
        assert_eq!(
            rel.wire_bytes(),
            8 * distinct + rows * code,
            "{distinct} distinct"
        );
        assert_eq!(rel.byte_size(), 8 * rows);
    }
}

// -- The guard ------------------------------------------------------------------

/// No default-hasher (`RandomState`) table keyed by symbols in the non-test
/// code of the three crates on the request path: a `HashMap<` / `HashSet<`
/// whose key type names `Sym` is a [`SymMap`] / [`SymSet`] (or a
/// [`RowTable`]) that was missed.
#[test]
fn no_default_hasher_table_is_keyed_by_symbols() {
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut offenders = Vec::new();
    for krate in ["relstore", "sql", "mediator"] {
        let src = crates.join(krate).join("src");
        assert!(src.is_dir(), "{}", src.display());
        let mut files = vec![src];
        while let Some(path) = files.pop() {
            if path.is_dir() {
                let entries = std::fs::read_dir(&path).expect("crate sources");
                files.extend(entries.map(|entry| entry.expect("directory entry").path()));
                continue;
            }
            // `exec/columnar_tests.rs` is a `#[cfg(test)]` module of its own.
            if !path.to_string_lossy().ends_with(".rs") || path.ends_with("columnar_tests.rs") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("source file");
            let code = text.split("#[cfg(test)]\nmod tests").next().unwrap_or("");
            for (at, _) in code.match_indices("Hash").filter(|(at, _)| {
                let rest = &code[*at..];
                rest.starts_with("HashMap<") || rest.starts_with("HashSet<")
            }) {
                // The key type: up to the first `,` or the closing `>`
                // outside any bracket.
                let mut depth = 0;
                let key: String = code[at + 8..]
                    .chars()
                    .take_while(|c| {
                        match c {
                            '<' | '(' | '[' => depth += 1,
                            '>' | ')' | ']' => depth -= 1,
                            _ => {}
                        }
                        depth >= 0 && !(depth == 0 && *c == ',')
                    })
                    .collect();
                if key.contains("Sym") {
                    let line = code[..at].lines().count();
                    offenders.push(format!("{}:{line}: keyed by `{key}`", path.display()));
                }
            }
        }
    }
    assert!(offenders.is_empty(), "{offenders:#?}");
}
