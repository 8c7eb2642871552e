//! Runtime integrity defense for shipped relations (ROADMAP item 5(b)).
//!
//! The paper's thesis is that carrying keys and inclusion constraints
//! through integration lets the mediator *guarantee* properties of the
//! published document. This module turns that from a planning-time artifact
//! into a runtime defense: under a fault plan, every relation a source task
//! ships is checked at the task boundary against a [`RelProfile`] derived
//! from the catalog schema — key-image uniqueness, type/NULL conformance of
//! columns with stored-table provenance, arity, and structural
//! `(parent, ord)` row identity. The same profiles drive the seeded
//! wrong-answer corruptions of [`crate::faults`]: each [`CorruptionKind`] is
//! co-designed with the check that catches it, so the chaos harness can
//! assert "zero silent corruptions" structurally instead of hoping. A run
//! without a fault plan builds no profile and checks no shipped relation:
//! there `check_integrity` means the document-level check alone.
//!
//! Document-level defense — the [`aig_xml::ConstraintSet`] check on the
//! tagged tree — is the backstop for faults invisible at a single task
//! boundary (a stale replica that lags the primary by whole rows still
//! ships a type-correct, key-unique relation; only the cross-source
//! inclusion constraints of the document can expose the gap).

use crate::graph::{ScalarBind, Task, TaskKind};
use aig_prng::{Rng, StdRng};
use aig_relstore::par::RowTable;
use aig_relstore::{Catalog, Relation, Value, ValueType};
use aig_sql::{FromItem, Scalar};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// The seeded wrong-answer mutations the fault plan can apply to a shipped
/// relation. Each kind is paired with the guard check that detects it; when
/// a relation cannot support the drawn kind (an empty group, no typed
/// column), [`corrupt_relation`] falls back along a deterministic chain and
/// reports the kind actually applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CorruptionKind {
    /// A row's key cells are overwritten with another row's key (within the
    /// same `__parent`/`__owner` group), breaking key-image uniqueness.
    FlipKey,
    /// One typed cell is replaced with SQL NULL.
    NullColumn,
    /// One row is duplicated verbatim, breaking `(parent, ord)` row
    /// identity (and key uniqueness).
    DuplicateRow,
    /// One typed cell's runtime type is flipped (Int → its decimal string,
    /// Str → its length as an integer).
    TypeConfuse,
}

impl CorruptionKind {
    pub fn name(self) -> &'static str {
        match self {
            CorruptionKind::FlipKey => "flip-key",
            CorruptionKind::NullColumn => "null-column",
            CorruptionKind::DuplicateRow => "duplicate-row",
            CorruptionKind::TypeConfuse => "type-confuse",
        }
    }

    pub const ALL: [CorruptionKind; 4] = [
        CorruptionKind::FlipKey,
        CorruptionKind::NullColumn,
        CorruptionKind::DuplicateRow,
        CorruptionKind::TypeConfuse,
    ];
}

impl fmt::Display for CorruptionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What the guard layer expects of one shipped relation, derived from the
/// task's vectorized query and the catalog schema at plan time. Column
/// expectations are by name, so one profile serves every output shape a
/// task kind produces (`GenOut`, `InhSet`, pick tables).
#[derive(Debug, Clone, PartialEq)]
pub struct RelProfile {
    /// The primary stored table the task reads (first `FROM` entry).
    pub table: String,
    /// Expected value types by output column name: stored-column provenance
    /// from the catalog schema, constant provenance from the query text,
    /// plus the mediator's structural columns (`__parent`, `__ord`, …).
    pub col_types: BTreeMap<String, ValueType>,
    /// Output columns carrying the primary table's key columns, in schema
    /// key order. Key-image uniqueness is checked per parent/owner group
    /// over whichever of these the output actually contains.
    pub key_cols: Vec<String>,
}

impl RelProfile {
    /// The group column of a relation under this profile: `__parent` or
    /// `__owner` when present (vectorized outputs are grouped by the parent
    /// row they answer), else the whole relation is one group.
    pub fn group_col(&self, rel: &Relation) -> Option<usize> {
        ["__parent", "__owner"].iter().find_map(|c| rel.col(c).ok())
    }
}

/// One guard detection: which check failed and the offending value — the
/// structured payload of [`crate::MediatorError::IntegrityViolation`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntegrityFinding {
    /// The violated check, e.g. `type(treatment.trId: string)` or
    /// `key(treatment[SSN, trId])`.
    pub constraint: String,
    /// The offending value, displayed.
    pub value: String,
}

/// The primary stored table a task reads (None for mediator tasks and
/// queries over relation parameters only). This is the `table` coordinate
/// of the wrong-answer fault model's purity contract.
pub fn task_table(task: &Task) -> Option<&str> {
    task.query()?.query.from.iter().find_map(|f| match f {
        FromItem::Table { table, .. } => Some(table.as_str()),
        FromItem::Param { .. } => None,
    })
}

/// Derives the integrity profile of a source task from the catalog schema.
/// Returns None for tasks that read no stored table — there is nothing to
/// conform to, and the fault model never corrupts them.
pub fn profile_task(task: &Task, catalog: &Catalog) -> Option<RelProfile> {
    let vq = task.query()?;
    // Alias → (source, table) for every stored table in the FROM clause.
    let mut by_alias: HashMap<&str, (&str, &str)> = HashMap::new();
    let mut primary: Option<(&str, &str)> = None;
    for item in &vq.query.from {
        if let FromItem::Table {
            source,
            table,
            alias,
        } = item
        {
            by_alias.insert(alias.as_str(), (source.as_str(), table.as_str()));
            if primary.is_none() {
                primary = Some((source.as_str(), table.as_str()));
            }
        }
    }
    let (psource, ptable) = primary?;

    // The mediator's structural columns are always integers.
    let mut col_types: BTreeMap<String, ValueType> = BTreeMap::new();
    for builtin in ["__rowid", "__parent", "__ord", "__owner", "__pick"] {
        col_types.insert(builtin.to_string(), ValueType::Int);
    }

    // Stored-column and constant provenance of the SELECT list.
    let mut provenance: HashMap<String, (&str, &str, &str)> = HashMap::new();
    for (i, item) in vq.query.select.iter().enumerate() {
        let out = item.output_name(i);
        match &item.expr {
            Scalar::Col(qc) => {
                if let Some(&(source, table)) = by_alias.get(qc.qualifier.as_str()) {
                    if let Ok(stored) = catalog.table(source, table) {
                        if let Ok(pos) = stored.schema().col(&qc.column) {
                            col_types
                                .entry(out.clone())
                                .or_insert(stored.schema().columns[pos].ty);
                            provenance.insert(out, (source, table, qc.column.as_str()));
                        }
                    }
                }
            }
            Scalar::Const(v) => {
                if let Some(ty) = v.value_type() {
                    col_types.entry(out).or_insert(ty);
                }
            }
            Scalar::Param(_) => {}
        }
    }

    // Broadcast constants of generator tasks are also shipped verbatim.
    if let TaskKind::Gen { broadcast, .. } = &task.kind {
        for (field, bind) in broadcast {
            if let ScalarBind::Const(v) = bind {
                if let Some(ty) = v.value_type() {
                    col_types.entry(field.clone()).or_insert(ty);
                }
            }
        }
    }

    // Output columns carrying the primary table's key, in schema key order.
    let mut key_cols = Vec::new();
    if let Ok(stored) = catalog.table(psource, ptable) {
        let schema = stored.schema();
        for &kpos in &schema.key {
            let kname = schema.columns[kpos].name.as_str();
            if let Some(out) = provenance
                .iter()
                .find(|(_, &(s, t, c))| s == psource && t == ptable && c == kname)
                .map(|(out, _)| out.clone())
            {
                key_cols.push(out);
            }
        }
    }

    Some(RelProfile {
        table: ptable.to_string(),
        col_types,
        key_cols,
    })
}

/// Checks one shipped relation against its profile, returning the first
/// violation: arity, type/NULL conformance, `(group, ord)` row identity,
/// and per-group key-image uniqueness.
pub fn check_relation(rel: &Relation, profile: &RelProfile) -> Option<IntegrityFinding> {
    // Arity is uniform by construction in columnar storage: every column
    // holds exactly `len` symbols, so per-row arity cannot diverge.

    // Type/NULL conformance of columns with known provenance.
    let typed: Vec<(usize, &str, ValueType)> = rel
        .columns()
        .iter()
        .enumerate()
        .filter_map(|(i, name)| {
            profile
                .col_types
                .get(name)
                .map(|ty| (i, name.as_str(), *ty))
        })
        .collect();
    for r in 0..rel.len() {
        for &(i, name, expected) in &typed {
            match rel.cell(r, i).value_type() {
                Some(actual) if actual == expected => {}
                Some(actual) => {
                    return Some(IntegrityFinding {
                        constraint: format!("type({}.{name}: {expected})", profile.table),
                        value: format!("{} :: {actual}", rel.cell(r, i)),
                    });
                }
                None => {
                    return Some(IntegrityFinding {
                        constraint: format!("type({}.{name}: {expected})", profile.table),
                        value: "NULL".to_string(),
                    });
                }
            }
        }
    }

    let group = profile.group_col(rel);

    // Structural row identity: within a group, ordinals are unique — a
    // verbatim duplicate of a `(parent, ord, …)` row can never be genuine.
    if let (Some(g), Ok(o)) = (group, rel.col("__ord")) {
        let mut seen = RowTable::new(vec![rel.col_syms(g), rel.col_syms(o)], rel.len());
        for r in 0..rel.len() {
            if seen.insert(r as u32).is_some() {
                return Some(IntegrityFinding {
                    constraint: format!("row-identity({}: parent, ord)", profile.table),
                    value: format!("({}, {})", rel.cell(r, g), rel.cell(r, o)),
                });
            }
        }
    }

    // Key-image uniqueness per group, over whichever key columns the
    // output ships (catalog schema key of the primary table).
    let key_pos: Vec<usize> = profile
        .key_cols
        .iter()
        .filter_map(|c| rel.col(c).ok())
        .collect();
    if !key_pos.is_empty() {
        let image = group.iter().chain(&key_pos).map(|&p| rel.col_syms(p));
        let mut seen = RowTable::new(image.collect(), rel.len());
        for r in 0..rel.len() {
            if seen.insert(r as u32).is_some() {
                return Some(IntegrityFinding {
                    constraint: format!("key({}[{}])", profile.table, profile.key_cols.join(", ")),
                    value: key_pos
                        .iter()
                        .map(|&p| rel.cell(r, p).to_string())
                        .collect::<Vec<_>>()
                        .join(", "),
                });
            }
        }
    }

    None
}

/// Applies one seeded corruption to `rel`, falling back along a
/// deterministic chain when the drawn kind has no viable site (an empty
/// relation returns None — nothing was injected). Returns the kind
/// actually applied; every applied kind violates a [`check_relation`]
/// check by construction.
pub fn corrupt_relation(
    rel: &mut Relation,
    kind: CorruptionKind,
    rng: &mut StdRng,
    profile: &RelProfile,
) -> Option<CorruptionKind> {
    if rel.is_empty() {
        return None;
    }
    // The fallback chain visits every kind once, starting at the drawn one.
    let start = CorruptionKind::ALL
        .iter()
        .position(|k| *k == kind)
        .expect("kind in ALL");
    for step in 0..CorruptionKind::ALL.len() {
        let k = CorruptionKind::ALL[(start + step) % CorruptionKind::ALL.len()];
        let applied = match k {
            CorruptionKind::FlipKey => flip_key(rel, rng, profile),
            CorruptionKind::NullColumn => null_column(rel, rng, profile),
            CorruptionKind::DuplicateRow => duplicate_row(rel, rng),
            CorruptionKind::TypeConfuse => type_confuse(rel, rng, profile),
        };
        if applied {
            return Some(k);
        }
    }
    None
}

/// Overwrites one row's key cells with another row's (same group), making
/// the key image collide. Needs a group with at least two rows and the key
/// columns shipped.
fn flip_key(rel: &mut Relation, rng: &mut StdRng, profile: &RelProfile) -> bool {
    let key_pos: Vec<usize> = profile
        .key_cols
        .iter()
        .filter_map(|c| rel.col(c).ok())
        .collect();
    if key_pos.is_empty() {
        return false;
    }
    let group = profile.group_col(rel);
    let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for i in 0..rel.len() {
        let g = group
            .map(|g| rel.cell(i, g).to_string())
            .unwrap_or_default();
        groups.entry(g).or_default().push(i);
    }
    let candidates: Vec<&Vec<usize>> = groups.values().filter(|v| v.len() >= 2).collect();
    if candidates.is_empty() {
        return false;
    }
    let members = candidates[rng.gen_range(0..candidates.len())];
    let a = rng.gen_range(0..members.len());
    let b = (a + 1 + rng.gen_range(0..members.len() - 1)) % members.len();
    let (victim, donor) = (members[a], members[b]);
    let donor_key: Vec<Value> = key_pos
        .iter()
        .map(|&p| rel.cell(donor, p).clone())
        .collect();
    for (&p, v) in key_pos.iter().zip(donor_key) {
        rel.set_cell(victim, p, v);
    }
    true
}

/// Replaces one typed cell with SQL NULL.
fn null_column(rel: &mut Relation, rng: &mut StdRng, profile: &RelProfile) -> bool {
    let Some((row, col)) = pick_typed_cell(rel, rng, profile) else {
        return false;
    };
    rel.set_cell(row, col, Value::Null);
    true
}

/// Duplicates one row verbatim. Only applied to relations with `(group,
/// ord)` row identity, where a verbatim duplicate is guaranteed detectable
/// (bag-valued fields legitimately repeat rows).
fn duplicate_row(rel: &mut Relation, rng: &mut StdRng) -> bool {
    if rel.col("__ord").is_err() || (rel.col("__parent").is_err() && rel.col("__owner").is_err()) {
        return false;
    }
    let row = rel.row(rng.gen_range(0..rel.len()));
    rel.push(row);
    true
}

/// Flips the runtime type of one typed cell: an integer becomes its decimal
/// string, a string becomes its length.
fn type_confuse(rel: &mut Relation, rng: &mut StdRng, profile: &RelProfile) -> bool {
    let Some((row, col)) = pick_typed_cell(rel, rng, profile) else {
        return false;
    };
    let flipped = match rel.cell(row, col) {
        Value::Int(i) => Value::str(i.to_string()),
        Value::Str(s) => Value::int(s.len() as i64),
        Value::Null => return false,
    };
    rel.set_cell(row, col, flipped);
    true
}

/// A uniformly drawn `(row, col)` site whose column has a known expected
/// type and whose current value is non-NULL (so the mutation is visible).
fn pick_typed_cell(
    rel: &Relation,
    rng: &mut StdRng,
    profile: &RelProfile,
) -> Option<(usize, usize)> {
    let typed: Vec<usize> = rel
        .columns()
        .iter()
        .enumerate()
        .filter(|(_, name)| profile.col_types.contains_key(*name))
        .map(|(i, _)| i)
        .collect();
    if typed.is_empty() {
        return None;
    }
    // Bounded deterministic probing: a relation whose typed cells are all
    // NULL yields no site.
    for _ in 0..16 {
        let row = rng.gen_range(0..rel.len());
        let col = typed[rng.gen_range(0..typed.len())];
        if !rel.cell(row, col).is_null() {
            return Some((row, col));
        }
    }
    (0..rel.len()).find_map(|r| {
        typed
            .iter()
            .find(|&&c| !rel.cell(r, c).is_null())
            .map(|&c| (r, c))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig_prng::SeedableRng;

    fn profile() -> RelProfile {
        let mut col_types = BTreeMap::new();
        col_types.insert("__parent".to_string(), ValueType::Int);
        col_types.insert("__ord".to_string(), ValueType::Int);
        col_types.insert("trId".to_string(), ValueType::Str);
        col_types.insert("date".to_string(), ValueType::Str);
        RelProfile {
            table: "treatment".to_string(),
            col_types,
            key_cols: vec!["trId".to_string()],
        }
    }

    fn genout() -> Relation {
        let columns = vec![
            "__parent".to_string(),
            "__ord".to_string(),
            "trId".to_string(),
            "date".to_string(),
        ];
        let mut rel = Relation::empty(columns);
        for (p, n, t, d) in [
            (0, 0, "t1", "d1"),
            (0, 1, "t2", "d2"),
            (1, 0, "t1", "d3"),
            (1, 1, "t3", "d4"),
        ] {
            rel.push(vec![
                Value::int(p),
                Value::int(n),
                Value::str(t),
                Value::str(d),
            ]);
        }
        rel
    }

    #[test]
    fn clean_relation_passes_all_checks() {
        assert_eq!(check_relation(&genout(), &profile()), None);
    }

    #[test]
    fn every_corruption_kind_is_detected() {
        for (i, kind) in CorruptionKind::ALL.into_iter().enumerate() {
            let mut rel = genout();
            let mut rng = StdRng::seed_from_u64(42 + i as u64);
            let applied = corrupt_relation(&mut rel, kind, &mut rng, &profile())
                .expect("corruption site exists");
            assert_eq!(applied, kind, "no fallback needed on this fixture");
            let finding = check_relation(&rel, &profile());
            assert!(
                finding.is_some(),
                "{kind} corruption slipped past the guard: {rel:?}"
            );
        }
    }

    #[test]
    fn corruption_is_deterministic_in_the_rng_seed() {
        for kind in CorruptionKind::ALL {
            let (mut a, mut b) = (genout(), genout());
            corrupt_relation(&mut a, kind, &mut StdRng::seed_from_u64(7), &profile());
            corrupt_relation(&mut b, kind, &mut StdRng::seed_from_u64(7), &profile());
            assert_eq!(a, b, "{kind} mutation must be seeded");
        }
    }

    #[test]
    fn flip_key_falls_back_when_groups_are_singletons() {
        let columns = vec![
            "__parent".to_string(),
            "__ord".to_string(),
            "trId".to_string(),
        ];
        let mut rel = Relation::empty(columns);
        rel.push(vec![Value::int(0), Value::int(0), Value::str("t1")]);
        let mut rng = StdRng::seed_from_u64(3);
        let applied = corrupt_relation(&mut rel, CorruptionKind::FlipKey, &mut rng, &profile())
            .expect("fallback applies");
        assert_ne!(applied, CorruptionKind::FlipKey);
        assert!(check_relation(&rel, &profile()).is_some());
    }

    #[test]
    fn empty_relation_yields_no_injection() {
        let mut rel = Relation::empty(vec!["__parent".to_string(), "__ord".to_string()]);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            corrupt_relation(&mut rel, CorruptionKind::NullColumn, &mut rng, &profile()),
            None
        );
    }

    #[test]
    fn stale_truncation_passes_relation_checks() {
        // Staleness is invisible at the task boundary by design — only the
        // document-level constraint check can expose it.
        let mut rel = genout();
        rel.truncate(2);
        assert_eq!(check_relation(&rel, &profile()), None);
    }
}
