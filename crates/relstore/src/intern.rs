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
//! 16 ways to keep interning cheap under the partitioned kernels.

use crate::value::Value;
use std::collections::HashMap;
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
}

const SHARDS: usize = 16;

struct Interner {
    /// value -> sym, sharded by the value's hash.
    shards: [Mutex<HashMap<&'static Value, Sym>>; SHARDS],
    /// sym -> value; append-only. Behind an `Arc` so a [`Reader`] shares
    /// the table instead of copying it: the first append while a reader is
    /// alive copies the table once (`Arc::make_mut`), every other append is
    /// in place, and a snapshot of an arena that has not grown is free.
    arena: RwLock<Arc<Vec<&'static Value>>>,
}

impl Interner {
    /// Appends a first-seen payload under the arena write lock.
    ///
    /// Worst case for the lock: the first append while a [`Reader`] of the
    /// current table is alive copies the table while holding it, so every
    /// `resolve` / `cell` on other threads waits for an O(arena) pointer copy
    /// — 3 to 4 ns per symbol (a pointer-table copy timed on a 2-core 2.1 GHz
    /// Xeon: about 20 µs at the benchmark's 10.6 k symbols, 0.3 ms at 100 k,
    /// 3 to 4 ms at 1 M). The arena is leaked and only grows, so a
    /// long-running server that alternates snapshots and first-seen values
    /// pays this per alternation.
    /// The stall has not been measured under the parallel executor; the way
    /// out, if it shows up there, is a segmented append-only arena that
    /// readers borrow without copying.
    fn append(&self, leaked: &'static Value) -> Sym {
        let mut arena = self.arena.write().expect("interner arena");
        let sym = Sym(u32::try_from(arena.len()).expect("interner overflow"));
        Arc::make_mut(&mut arena).push(leaked);
        sym
    }
}

fn interner() -> &'static Interner {
    static GLOBAL: OnceLock<Interner> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let null: &'static Value = Box::leak(Box::new(Value::Null));
        let it = Interner {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            arena: RwLock::new(Arc::new(vec![null])),
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
    interner().arena.read().expect("interner arena")[sym.index()]
}

/// A lock-free snapshot of the arena for hot kernels (sort comparators,
/// width sums). Symbols interned *after* the snapshot are not visible —
/// snapshot after the relation under work is fully built. Taking one is a
/// pointer clone: the table is shared with the interner, never copied here.
pub struct Reader {
    table: Arc<Vec<&'static Value>>,
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
        self.table[sym.index()]
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

    /// The payload width of a symbol (see [`Value::width`]).
    #[inline]
    pub fn width(&self, sym: Sym) -> usize {
        self.get(sym).width()
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
        assert!(Arc::ptr_eq(&a.table, &b.table) || b.table.len() > a.table.len());
        // Growth while a reader is alive copies the table once; the reader
        // keeps the snapshot it took, a later one sees the new symbol.
        let late = intern(&Value::str("reader-shares-arena-late-5d0e"));
        assert!(late.index() >= a.table.len());
        assert_eq!(a.get(early), &Value::str("reader-shares-arena-early-5d0e"));
        let c = Reader::snapshot();
        assert_eq!(c.get(late), &Value::str("reader-shares-arena-late-5d0e"));
        assert_eq!(c.get(early), a.get(early));
    }

    #[test]
    fn owned_interning_matches_borrowed() {
        let v = Value::str("owned-vs-borrowed");
        assert_eq!(intern_owned(v.clone()), intern(&v));
    }
}
