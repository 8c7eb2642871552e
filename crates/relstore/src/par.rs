//! The row kernels of the executors: sorting, hashing and dedup over symbol
//! columns, each run on the calling thread — the task's own. The mediator's
//! parallelism is across tasks (one worker per source, §5.3's list
//! schedule), never inside one operator: no kernel here starts a thread.
//!
//! * [`sort_perm`] — a stable **argsort**. Column stores apply the
//!   permutation per column with [`apply_perm`] instead of moving rows.
//! * [`RowTable`] — the one hash table over rows: open addressing over `u32`
//!   row indices that hashes and compares a row by reading its key columns
//!   in place, so no row key is ever built. The mediator's uniqueness /
//!   inclusion guards, the dedup of rows wider than two symbols and the hash
//!   join's build side ([`JoinTable`]: key → first row plus a `next` chain
//!   in scan order; its [`JoinIndex`] is what a stored table keeps between
//!   queries) all sit on it.
//! * [`dedup_indices`] — first-occurrence dedup over symbol columns. A row
//!   of one or two symbols is packed into one `u64` held in the slot itself,
//!   so a probe never reads a column; the slots are a per-thread scratch.

use crate::intern::{Sym, SymHasher};
use std::borrow::Cow;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Stable argsort: the permutation `perm` such that visiting rows in `perm`
/// order is a stable sort of `0..len` by `cmp`.
pub fn sort_perm(len: usize, mut cmp: impl FnMut(u32, u32) -> Ordering) -> Vec<u32> {
    let len = u32::try_from(len).expect("relation too large for argsort");
    let mut perm: Vec<u32> = (0..len).collect();
    perm.sort_by(|&a, &b| cmp(a, b));
    perm
}

/// Gathers `data` through a permutation: `out[i] = data[perm[i]]`. The
/// column-store counterpart of moving whole rows.
pub fn apply_perm<T: Copy>(data: &[T], perm: &[u32]) -> Vec<T> {
    perm.iter().map(|&i| data[i as usize]).collect()
}

/// A free [`RowTable`] slot, and the end of a [`JoinTable`] chain.
const NONE: u32 = u32::MAX;

/// The slot of `slots` (a power-of-two count) that the key `key(0), …,
/// key(width - 1)` hashes to.
#[inline]
fn home(width: usize, slots: usize, key: impl Fn(usize) -> Sym) -> usize {
    let mut hasher = SymHasher::default();
    (0..width).for_each(|c| key(c).hash(&mut hasher));
    hasher.finish() as usize & (slots - 1)
}

/// The slot of `slots` holding a row of `cols` whose key is `key(0), key(1),
/// …`, or the free slot such a row belongs in: linear probing from
/// [`home`], comparing keys in the columns.
#[inline]
fn probe(cols: &[&[Sym]], slots: &[u32], key: impl Fn(usize) -> Sym) -> usize {
    let mut slot = home(cols.len(), slots.len(), &key);
    loop {
        let row = slots[slot] as usize;
        let hit = |(c, col): (usize, &&[Sym])| col[row] == key(c);
        if row == NONE as usize || cols.iter().enumerate().all(hit) {
            return slot;
        }
        slot = (slot + 1) & (slots.len() - 1);
    }
}

/// A hash table of row indices over symbol columns. A row's key is its
/// symbols in `cols`; the table stores the row index alone and hashes and
/// compares keys by reading the columns in place. Open addressing with
/// linear probing, a power-of-two slot count, at most half full. Row indices
/// are below `u32::MAX`.
pub struct RowTable<'a> {
    cols: Vec<&'a [Sym]>,
    slots: Vec<u32>,
    len: usize,
}

impl<'a> RowTable<'a> {
    /// An empty table over the key columns `cols`, with room for `rows`
    /// rows before it grows.
    pub fn new(cols: Vec<&'a [Sym]>, rows: usize) -> RowTable<'a> {
        let slots = vec![NONE; (rows * 2).next_power_of_two().max(8)];
        RowTable {
            cols,
            slots,
            len: 0,
        }
    }

    /// The slot holding a row whose key is `key(0), key(1), …`, or the free
    /// slot such a row belongs in.
    #[inline]
    fn slot(&self, key: impl Fn(usize) -> Sym) -> usize {
        probe(&self.cols, &self.slots, key)
    }

    /// The slot of `row`'s own key, after making room for one more row.
    fn slot_for(&mut self, row: u32) -> usize {
        if (self.len + 1) * 2 > self.slots.len() {
            let grown = vec![NONE; self.slots.len() * 2];
            for old in std::mem::replace(&mut self.slots, grown) {
                if old != NONE {
                    let slot = self.slot(|c| self.cols[c][old as usize]);
                    self.slots[slot] = old;
                }
            }
        }
        self.slot(|c| self.cols[c][row as usize])
    }

    /// Adds `row` unless a row with an equal key is in the table already,
    /// which is then returned (and stays).
    #[inline]
    pub fn insert(&mut self, row: u32) -> Option<u32> {
        let slot = self.slot_for(row);
        let held = self.slots[slot];
        if held == NONE {
            self.slots[slot] = row;
            self.len += 1;
        }
        (held != NONE).then_some(held)
    }

    /// Adds `row`, taking the place of a row with an equal key, which is
    /// then returned.
    #[inline]
    pub fn replace(&mut self, row: u32) -> Option<u32> {
        let slot = self.slot_for(row);
        let held = std::mem::replace(&mut self.slots[slot], row);
        self.len += usize::from(held == NONE);
        (held != NONE).then_some(held)
    }

    /// The row in the table whose key is `key(0), key(1), …` — symbols of
    /// any origin, e.g. a row of another relation.
    #[inline]
    pub fn find(&self, key: impl Fn(usize) -> Sym) -> Option<u32> {
        let held = self.slots[self.slot(key)];
        (held != NONE).then_some(held)
    }

    /// The farthest any row sits from the slot its key hashes to
    /// (diagnostics: the distribution tests bound it).
    pub fn longest_probe(&self) -> usize {
        let displaced = |(slot, &row): (usize, &u32)| {
            let home = home(self.cols.len(), self.slots.len(), |c| {
                self.cols[c][row as usize]
            });
            slot.wrapping_sub(home) & (self.slots.len() - 1)
        };
        let held = (self.slots.iter().enumerate()).filter(|(_, &row)| row != NONE);
        held.map(displaced).max().unwrap_or(0)
    }
}

/// The build side of a hash join: key → the first `live` row carrying it,
/// and from each row a `next` link to the following one with the same key —
/// a key's rows in scan order, with no list per distinct key. Rows with a
/// NULL in a key column are left out, and a key with a NULL matches nothing:
/// NULL joins nothing, found by integer compares.
///
/// The table is its key columns plus a [`JoinIndex`], either built here or
/// borrowed from a stored table that keeps the index over all of its rows
/// ([`crate::Table::join_index`]).
pub struct JoinTable<'a> {
    cols: Vec<&'a [Sym]>,
    index: Cow<'a, JoinIndex>,
}

/// The index of a [`JoinTable`] without its columns: key slots (a row
/// index each) and the `next` chains. Owned, so a stored table can keep it
/// between queries; probing it needs the columns it was built over.
#[derive(Clone)]
pub struct JoinIndex {
    heads: Vec<u32>,
    next: Vec<u32>,
}

impl JoinIndex {
    /// Heap bytes held: 4 per slot and 4 per `next` link — at most 20 per
    /// indexed row (slots are the power of two at or above twice the rows).
    pub fn heap_bytes(&self) -> usize {
        (self.heads.capacity() + self.next.capacity()) * std::mem::size_of::<u32>()
    }
}

impl fmt::Debug for JoinIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JoinIndex")
            .field("slots", &self.heads.len())
            .field("rows", &self.next.len())
            .finish()
    }
}

impl<'a> JoinTable<'a> {
    /// Indexes the rows `live` (each at most once) of the key columns
    /// `cols`.
    pub fn build(cols: Vec<&'a [Sym]>, live: &[u32]) -> JoinTable<'a> {
        let mut next = vec![NONE; live.iter().max().map_or(0, |&row| row as usize + 1)];
        let mut heads = RowTable::new(cols, live.len());
        // Back to front, each row taking its key's slot from the one that
        // follows it in scan order.
        for &row in live.iter().rev() {
            if heads.cols.iter().any(|col| col[row as usize].is_null()) {
                continue;
            }
            if let Some(follower) = heads.replace(row) {
                next[row as usize] = follower;
            }
        }
        let RowTable { cols, slots, .. } = heads;
        JoinTable {
            cols,
            index: Cow::Owned(JoinIndex { heads: slots, next }),
        }
    }

    /// The table over `cols` that `index` indexes: `index` must have been
    /// built over these very columns ([`JoinTable::into_index`]).
    pub fn over(cols: Vec<&'a [Sym]>, index: &'a JoinIndex) -> JoinTable<'a> {
        JoinTable {
            cols,
            index: Cow::Borrowed(index),
        }
    }

    /// The index alone, to be kept and probed later through
    /// [`JoinTable::over`] on the same columns.
    pub fn into_index(self) -> JoinIndex {
        self.index.into_owned()
    }

    /// The indexed rows whose key is `key(0), key(1), …`, in scan order.
    #[inline]
    pub fn matches(&self, key: impl Fn(usize) -> Sym) -> impl Iterator<Item = u32> + '_ {
        let JoinIndex { heads, next } = &*self.index;
        let head = match (0..self.cols.len()).any(|c| key(c).is_null()) {
            true => NONE,
            false => heads[probe(&self.cols, heads, key)],
        };
        std::iter::successors((head != NONE).then_some(head), |&row| {
            let next = next[row as usize];
            (next != NONE).then_some(next)
        })
    }
}

/// First-occurrence dedup of the rows of `cols` (symbol columns of one
/// length): returns the surviving row indices in first-occurrence order.
pub fn dedup_indices(cols: &[&[Sym]]) -> Vec<u32> {
    let len = cols.first().map_or(0, |col| col.len());
    let mut kept = Vec::with_capacity(len);
    match *cols {
        [a] => packed_dedup(len, &mut kept, false, |r| a[r].index() as u64),
        [a, b] => packed_dedup(len, &mut kept, true, |r| {
            (a[r].index() as u64) << 32 | b[r].index() as u64
        }),
        _ => {
            let mut seen = RowTable::new(cols.to_vec(), len);
            kept.extend((0..len as u32).filter(|&row| seen.insert(row).is_none()));
        }
    }
    kept
}

thread_local! {
    /// This thread's packed dedup slots: grown to 8 B ×
    /// `next_power_of_two(2 × rows)` of the largest dedup of rows one or two
    /// symbols wide on the thread, reused by every later one, freed with the
    /// thread.
    static DEDUP_SLOTS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// A free packed slot. The one key equal to it, a row of two
/// `u32::MAX`-indexed symbols, is never stored: a flag stands in for it.
const FREE: u64 = u64::MAX;

/// [`dedup_indices`] of `len` rows of one (`wide` false) or two symbols,
/// each packed by `key` into one `u64`: open addressing with linear probing
/// over the thread's slot scratch, sized up front to at most half full,
/// hashed as [`RowTable`] hashes the same symbols.
fn packed_dedup(len: usize, kept: &mut Vec<u32>, wide: bool, key: impl Fn(usize) -> u64) {
    DEDUP_SLOTS.with_borrow_mut(|slots| {
        let size = (len * 2).next_power_of_two().max(8);
        slots.clear();
        slots.resize(size, FREE);
        let mask = size - 1;
        let mut free_key_seen = false;
        for row in 0..len as u32 {
            let key = key(row as usize);
            if key == FREE {
                if !std::mem::replace(&mut free_key_seen, true) {
                    kept.push(row);
                }
                continue;
            }
            let mut hasher = SymHasher::default();
            if wide {
                hasher.write_u32((key >> 32) as u32);
            }
            hasher.write_u32(key as u32);
            let mut slot = hasher.finish() as usize & mask;
            loop {
                match slots[slot] {
                    FREE => {
                        slots[slot] = key;
                        kept.push(row);
                        break;
                    }
                    held if held == key => break,
                    _ => slot = (slot + 1) & mask,
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_perm_matches_stable_argsort() {
        let keys: Vec<i64> = (0..5000).map(|i| ((i * 7919) % 101) as i64).collect();
        let mut expected: Vec<u32> = (0..keys.len() as u32).collect();
        expected.sort_by(|&a, &b| keys[a as usize].cmp(&keys[b as usize]));
        let perm = sort_perm(keys.len(), |a, b| keys[a as usize].cmp(&keys[b as usize]));
        assert_eq!(perm, expected);
        let gathered = apply_perm(&keys, &expected);
        assert!(gathered.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn dedup_indices_keeps_first_occurrences() {
        let sym = |i: usize| Sym::from_index(i as u32);
        let a: Vec<Sym> = (0..4096).map(|i| sym((i * 17) % 33)).collect();
        let b: Vec<Sym> = (0..4096).map(|i| sym(i % 3)).collect();
        let mut seen = std::collections::HashSet::new();
        let expected: Vec<u32> = (0..a.len() as u32)
            .filter(|&i| seen.insert((a[i as usize], b[i as usize])))
            .collect();
        assert_eq!(dedup_indices(&[&a, &b]), expected);
    }

    /// The packed key of a row of two `u32::MAX`-indexed symbols is the free
    /// slot's own bit pattern: it is kept once, like any other row.
    #[test]
    fn packed_dedup_keeps_the_row_that_packs_to_a_free_slot() {
        let (max, zero) = (Sym::from_index(u32::MAX), Sym::from_index(0));
        let a = [max, zero, max, max, zero];
        let b = [max, max, max, zero, max];
        assert_eq!(dedup_indices(&[&a, &b]), [0, 1, 3]);
        assert_eq!(dedup_indices(&[&a]), [0, 1]);
    }
}
