//! A global value interner: every distinct [`Value`] maps to one [`Sym`].
//!
//! Column-major relations store `u32` symbols instead of owned values, so
//! equality, hashing, deduplication and join probes become integer
//! operations; the payload is resolved only when a value must be rendered
//! (tagging, reports) or compared by its domain order (canonical sorts).
//!
//! Interning is **canonical**: two values intern to the same symbol iff they
//! are equal, so `Sym` equality is exactly `Value` equality. Symbol `0` is
//! reserved for SQL NULL ([`Sym::NULL`]), which lets join kernels reject
//! NULL keys with a single integer compare.
//!
//! Payloads are arena-owned: each first-seen value is moved to the heap and
//! leaked to `&'static Value`, so resolution hands out `'static` references
//! with no locks held by the caller. The arena lives for the process — an
//! acceptable trade for a mediator whose value domain is the (bounded)
//! active catalog plus query outputs over it. The lookup table is sharded
//! 16 ways to keep interning cheap under the per-source workers.
//!
//! Beside each payload the arena records its width, so size accounting reads
//! a dense `u32` table instead of chasing `&'static Value`; and the symbols
//! of the small integers `0..n` — the generated `__rowid` / `__ord` ids —
//! are kept in one grow-only table ([`int_syms`]) instead of being interned
//! one row at a time.
//!
//! A symbol is a first-seen-order arena index, not a byte string an outside
//! party shapes, so tables keyed by symbols alone ([`SymMap`], [`SymSet`])
//! hash with the fixed multiply-rotate [`SymHasher`] instead of SipHash. The
//! interner's own `Value`-keyed shards — keys that *are* outside bytes —
//! stay on `RandomState`.

use crate::value::Value;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// An interned value: a dense `u32` id into the global arena. Equality and
/// hashing of symbols coincide with equality and hashing of the values they
/// denote; ordering of symbols is **not** value ordering — use
/// [`Reader::cmp`] for that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

impl Sym {
    /// The symbol of SQL NULL, reserved at arena slot 0.
    pub const NULL: Sym = Sym(0);

    /// True iff this symbol denotes SQL NULL.
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// The raw arena index (stable for the process lifetime).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The symbol at a raw arena index. The hashing kernels never resolve a
    /// symbol, so their tests build keys at chosen indices with this;
    /// resolving or sizing an index nothing was interned at panics.
    #[doc(hidden)]
    pub fn from_index(index: u32) -> Sym {
        Sym(index)
    }
}

/// The one hasher of symbol-keyed tables: per word `h = (rotl(h, 5) ^ w) · K`
/// with a fixed odd `K`, and a [`finish`](Hasher::finish) that folds the
/// high half into the low one. Both `std`'s table and
/// [`crate::par::RowTable`] take the bucket from the low bits, where a bare
/// multiply leaves ids at a power-of-two stride (the key column of a table
/// interned row-major) all zero — one bucket chain. With the fold,
/// sequential, strided and paired ids insert and look up as fast as random
/// ones (`tests/sym_kernels.rs` holds it to that); what it leaves is a
/// longer *longest* probe under linear probing (up to 263 slots at a
/// million keys against 30–50 for random ids) at no cost in time. A second
/// multiply in `finish` brings that to random too and costs ≈ 3 % of a warm
/// request (EXPERIMENTS.md, "Dense-symbol kernels"), so it is not there.
///
/// Not keyed and not collision-resistant: only for keys made of [`Sym`]s and
/// other dense indices the program numbered itself. Keys holding bytes from
/// outside (`Value`, `String`, relation keys) stay on `RandomState`.
#[derive(Debug, Default, Clone, Copy)]
pub struct SymHasher(u64);

impl SymHasher {
    #[inline]
    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

impl Hasher for SymHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, w: u32) {
        self.word(u64::from(w));
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// A map keyed by symbols (or tuples / slices of them, or other dense ids).
/// Iteration order depends on the keys alone, not on the process.
pub type SymMap<K, V> = HashMap<K, V, BuildHasherDefault<SymHasher>>;

/// A set of symbols (or tuples / slices of them); see [`SymMap`].
pub type SymSet<K> = HashSet<K, BuildHasherDefault<SymHasher>>;

const SHARDS: usize = 16;

/// sym -> payload and its [`Value::width`], index-aligned and append-only.
#[derive(Clone)]
struct Arena {
    values: Vec<&'static Value>,
    widths: Vec<u32>,
}

struct Interner {
    /// value -> sym, sharded by the value's hash.
    shards: [Mutex<HashMap<&'static Value, Sym>>; SHARDS],
    /// Behind an `Arc` so a [`Reader`] shares the tables instead of copying
    /// them: the first append while a reader is alive copies them once
    /// (`Arc::make_mut`), every other append is in place, and a snapshot of
    /// an arena that has not grown is free.
    arena: RwLock<Arc<Arena>>,
    /// The symbols of `0..len`, see [`int_syms`].
    ints: RwLock<Arc<Vec<Sym>>>,
}

impl Interner {
    /// Appends a first-seen payload under the arena write lock.
    ///
    /// Worst case for the lock: the first append while a [`Reader`] of the
    /// current tables is alive copies them (12 B per symbol: a pointer and a
    /// width) while holding it, so every `resolve` / `cell` on other threads
    /// waits for an O(arena) copy — 3 to 4 ns per symbol for the pointers
    /// alone (timed on a 2-core 2.1 GHz Xeon: about 20 µs at the benchmark's
    /// 10.6 k symbols, 0.3 ms at 100 k, 3 to 4 ms at 1 M). The arena is leaked
    /// and only grows, so a long-running server that alternates snapshots
    /// and first-seen values pays this per alternation.
    /// The stall has not been measured under the parallel executor; the way
    /// out, if it shows up there, is a segmented append-only arena that
    /// readers borrow without copying.
    fn append(&self, leaked: &'static Value) -> Sym {
        let mut arena = self.arena.write().expect("interner arena");
        let sym = Sym(u32::try_from(arena.values.len()).expect("interner overflow"));
        let arena = Arc::make_mut(&mut arena);
        arena.values.push(leaked);
        arena
            .widths
            .push(u32::try_from(leaked.width()).expect("value wider than 4 GiB"));
        sym
    }
}

fn interner() -> &'static Interner {
    static GLOBAL: OnceLock<Interner> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let null: &'static Value = Box::leak(Box::new(Value::Null));
        let it = Interner {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            arena: RwLock::new(Arc::new(Arena {
                values: vec![null],
                widths: vec![null.width() as u32],
            })),
            ints: RwLock::default(),
        };
        it.shards[shard_of(null)]
            .lock()
            .expect("interner shard")
            .insert(null, Sym::NULL);
        it
    })
}

fn shard_of(v: &Value) -> usize {
    use std::hash::{BuildHasher, RandomState};
    // A fixed-key hasher would be nicer, but RandomState is seeded once per
    // process and shard choice only affects contention, never results.
    static STATE: OnceLock<RandomState> = OnceLock::new();
    let state = STATE.get_or_init(RandomState::new);
    (state.hash_one(v) as usize) % SHARDS
}

/// Interns `value`, returning its canonical symbol. O(1) amortized; takes
/// one shard lock, and the arena write lock only on first sight.
pub fn intern(value: &Value) -> Sym {
    if value.is_null() {
        return Sym::NULL;
    }
    let it = interner();
    let mut shard = it.shards[shard_of(value)].lock().expect("interner shard");
    if let Some(&sym) = shard.get(value) {
        return sym;
    }
    let leaked: &'static Value = Box::leak(Box::new(value.clone()));
    let sym = it.append(leaked);
    shard.insert(leaked, sym);
    sym
}

/// Interns an owned value without cloning its payload on first sight.
pub fn intern_owned(value: Value) -> Sym {
    if value.is_null() {
        return Sym::NULL;
    }
    let it = interner();
    let mut shard = it.shards[shard_of(&value)].lock().expect("interner shard");
    if let Some(&sym) = shard.get(&value) {
        return sym;
    }
    let leaked: &'static Value = Box::leak(Box::new(value));
    let sym = it.append(leaked);
    shard.insert(leaked, sym);
    sym
}

/// The symbol of `value` **if it was ever interned**; never inserts. A value
/// that was never interned cannot equal any stored cell, which turns
/// constant-equality filters and membership probes into integer compares.
pub fn lookup(value: &Value) -> Option<Sym> {
    if value.is_null() {
        return Some(Sym::NULL);
    }
    interner().shards[shard_of(value)]
        .lock()
        .expect("interner shard")
        .get(value)
        .copied()
}

/// Resolves a symbol to its value. Takes the arena read lock; hot loops
/// should snapshot a [`Reader`] instead.
pub fn resolve(sym: Sym) -> &'static Value {
    interner().arena.read().expect("interner arena").values[sym.index()]
}

/// The symbols of the integers `0..n` at positions `0..n` (the table may be
/// longer), each the one `intern(&Value::int(i))` returns — for operators
/// that number rows (`__rowid`, `__ord`), which would otherwise take a shard
/// lock and hash a `Value` per row. One process-wide table, grown to the
/// largest `n` asked for and never shrunk: 4 B × the largest instance table
/// seen, beside the arena entries of the integers themselves.
pub fn int_syms(n: usize) -> Arc<Vec<Sym>> {
    let ints = &interner().ints;
    let table = Arc::clone(&ints.read().expect("integer symbols"));
    if table.len() >= n {
        return table;
    }
    let mut table = ints.write().expect("integer symbols");
    if table.len() < n {
        let mut grown = Vec::with_capacity(n);
        grown.extend_from_slice(&table);
        grown.extend((table.len()..n).map(|i| intern(&Value::int(i as i64))));
        *table = Arc::new(grown);
    }
    Arc::clone(&table)
}

/// A lock-free snapshot of the arena for hot kernels (sort comparators,
/// width sums). Symbols interned *after* the snapshot are not visible —
/// snapshot after the relation under work is fully built. Taking one is a
/// pointer clone: the table is shared with the interner, never copied here.
pub struct Reader {
    table: Arc<Arena>,
}

impl Reader {
    /// Snapshots the current arena.
    pub fn snapshot() -> Reader {
        Reader {
            table: Arc::clone(&interner().arena.read().expect("interner arena")),
        }
    }

    /// The value a symbol denotes.
    #[inline]
    pub fn get(&self, sym: Sym) -> &'static Value {
        self.table.values[sym.index()]
    }

    /// Symbols the snapshot covers: every symbol interned before it was
    /// taken has an index below this.
    #[inline]
    pub fn symbols(&self) -> usize {
        self.table.values.len()
    }

    /// Compares two symbols by the **domain order** of their values
    /// (`Null < Int < Str`, then payload order) — the order `Value: Ord`
    /// defines. Equal symbols short-circuit without touching the arena.
    #[inline]
    pub fn cmp(&self, a: Sym, b: Sym) -> std::cmp::Ordering {
        if a == b {
            return std::cmp::Ordering::Equal;
        }
        self.get(a).cmp(self.get(b))
    }

    /// The payload width of a symbol (see [`Value::width`]), from the dense
    /// side table recorded when the symbol was interned.
    #[inline]
    pub fn width(&self, sym: Sym) -> usize {
        self.table.widths[sym.index()] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_canonical() {
        let a = intern(&Value::str("alice"));
        let b = intern(&Value::str("alice"));
        let c = intern(&Value::str("bob"));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(resolve(a), &Value::str("alice"));
        // Int and Str with the same rendering stay distinct.
        assert_ne!(intern(&Value::int(1)), intern(&Value::str("1")));
    }

    #[test]
    fn null_is_symbol_zero() {
        assert_eq!(intern(&Value::Null), Sym::NULL);
        assert!(intern(&Value::Null).is_null());
        assert!(resolve(Sym::NULL).is_null());
        assert_eq!(lookup(&Value::Null), Some(Sym::NULL));
    }

    #[test]
    fn lookup_never_inserts() {
        let probe = Value::str("lookup-never-inserts-unique-c1f4");
        assert_eq!(lookup(&probe), None);
        let sym = intern(&probe);
        assert_eq!(lookup(&probe), Some(sym));
    }

    #[test]
    fn reader_orders_by_value_domain() {
        let r_null = Sym::NULL;
        let i = intern(&Value::int(7));
        let s = intern(&Value::str("a"));
        let reader = Reader::snapshot();
        assert_eq!(reader.cmp(i, i), std::cmp::Ordering::Equal);
        assert!(reader.cmp(r_null, i).is_lt());
        assert!(reader.cmp(i, s).is_lt());
        assert_eq!(reader.width(i), 8);
        assert_eq!(reader.width(s), 1);
    }

    #[test]
    fn readers_share_the_arena_and_keep_their_snapshot() {
        let early = intern(&Value::str("reader-shares-arena-early-5d0e"));
        let (a, b) = (Reader::snapshot(), Reader::snapshot());
        // Other tests intern concurrently, so sharing shows only as: the
        // two tables are the same allocation whenever nothing grew between.
        assert!(Arc::ptr_eq(&a.table, &b.table) || b.symbols() > a.symbols());
        // Growth while a reader is alive copies the table once; the reader
        // keeps the snapshot it took, a later one sees the new symbol.
        let late = intern(&Value::str("reader-shares-arena-late-5d0e"));
        assert!(late.index() >= a.symbols());
        assert_eq!(a.get(early), &Value::str("reader-shares-arena-early-5d0e"));
        let c = Reader::snapshot();
        assert_eq!(c.get(late), &Value::str("reader-shares-arena-late-5d0e"));
        assert_eq!(c.get(early), a.get(early));
    }

    #[test]
    fn int_syms_are_the_symbols_interning_returns() {
        // Some of the integers were interned elsewhere first, out of order.
        let early: Vec<Sym> = [4_999, 17, 2_500]
            .iter()
            .map(|&i| intern(&Value::int(i)))
            .collect();
        // First use, from two threads at once, asking for different lengths.
        let barrier = std::sync::Barrier::new(2);
        let tables: Vec<Arc<Vec<Sym>>> = std::thread::scope(|scope| {
            let ask = |n| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    int_syms(n)
                })
            };
            let handles = [ask(3_000), ask(5_000)];
            handles.map(|h| h.join().expect("int_syms")).into()
        });
        assert!(tables[0].len() >= 3_000 && tables[1].len() >= 5_000);
        for table in tables.iter().chain([&int_syms(0), &int_syms(5_000)]) {
            for (i, &sym) in table.iter().enumerate() {
                assert_eq!(resolve(sym), &Value::int(i as i64));
                assert_eq!(lookup(&Value::int(i as i64)), Some(sym));
            }
        }
        let table = int_syms(5_000);
        assert_eq!(early, [table[4_999], table[17], table[2_500]]);
        // Growing keeps what was handed out and only adds.
        let grown = int_syms(table.len() + 10);
        assert_eq!(grown[..table.len()], table[..]);
        assert_eq!(grown[table.len()], intern(&Value::int(table.len() as i64)));
    }

    #[test]
    fn sym_hasher_folds_whole_keys() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let hash = BuildHasherDefault::<SymHasher>::default();
        // Tuples, slices and byte strings all reach the same mixer; equal
        // keys hash equal, and order matters.
        let (a, b) = (Sym(7), Sym(1 << 16));
        assert_eq!(hash.hash_one((a, b)), hash.hash_one((a, b)));
        assert_ne!(hash.hash_one((a, b)), hash.hash_one((b, a)));
        assert_ne!(
            hash.hash_one([a, b].as_slice()),
            hash.hash_one([a].as_slice())
        );
        assert_ne!(hash.hash_one("abcdefghi"), hash.hash_one("abcdefghj"));
        let mut map: SymMap<(Sym, Sym), u32> = SymMap::default();
        map.insert((a, b), 1);
        assert_eq!(map.get(&(a, b)), Some(&1));
        assert!(SymSet::<Sym>::default().insert(a));
    }

    #[test]
    fn owned_interning_matches_borrowed() {
        let v = Value::str("owned-vs-borrowed");
        assert_eq!(intern_owned(v.clone()), intern(&v));
    }
}
