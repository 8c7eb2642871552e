//! Query execution: greedy left-deep hash joins over the catalog.
//!
//! The executor evaluates one query at a time against the stored tables of a
//! [`Catalog`] plus parameter bindings. Relation-valued parameters play the
//! role of the paper's temporary tables: the mediator binds the cached output
//! of an upstream query and the query joins against it (§5.1).
//!
//! Evaluation is binding, then a fixed operator pipeline with one
//! implementation per operator. [`Query::bind`] resolves the FROM items (a
//! stored table, or a relation parameter passed by position), every column
//! reference to an (input, column) pair and every scalar parameter, and
//! classifies the predicates into joins and local filters, once.
//! [`BoundQuery::run`] then filters each input locally (`apply_locals`),
//! joins the inputs left-deep in greedy order (`join_all`, one `join_step`
//! per input), projects (`project`) and applies DISTINCT. [`execute`] is
//! bind-then-run; the mediator binds each of its source queries when it
//! builds its plan and runs the bound form on every request.
//!
//! All inputs are scanned **column-major over interned symbols** (see
//! `aig_relstore::intern`): join keys, IN-sets and DISTINCT dedup compare
//! `u32` symbols instead of cloning values, and no join key is ever built —
//! the join table (`aig_relstore::par::JoinTable`) hashes and compares keys
//! of any width in the columns, and rejects NULL keys with integer compares.
//! Values are resolved from the arena only for order comparisons (`<`,
//! `<=`, …).
//!
//! A join step whose build side is a stored table with every row live
//! probes the index the table keeps over its rows
//! ([`aig_relstore::Table::join_index`]) instead of hashing the table again;
//! that index has the chains a fresh build over all rows has, so the output
//! is the same relation either way. A locally filtered input and every
//! relation parameter build their own.

use crate::ast::{CmpOp, FromItem, Pred, QualCol, Query, Scalar, SetRef};
use crate::error::SqlError;
use aig_relstore::intern::{self, Sym, SymSet};
use aig_relstore::par::JoinTable;
use aig_relstore::{Catalog, ColNames, Relation, Table, Value};
use std::collections::HashMap;
use std::sync::OnceLock;

/// A parameter binding: a scalar or a relation (temporary table).
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    Scalar(Value),
    Rel(Relation),
}

impl ParamValue {
    pub fn scalar(v: impl Into<Value>) -> ParamValue {
        ParamValue::Scalar(v.into())
    }

    pub fn as_scalar(&self) -> Option<&Value> {
        match self {
            ParamValue::Scalar(v) => Some(v),
            ParamValue::Rel(_) => None,
        }
    }

    pub fn as_rel(&self) -> Option<&Relation> {
        match self {
            ParamValue::Rel(r) => Some(r),
            ParamValue::Scalar(_) => None,
        }
    }
}

/// Parameter bindings by name.
pub type Params = HashMap<String, ParamValue>;

/// What a parameter stands for when a query is bound ([`Query::bind`]).
#[derive(Debug, Clone, Copy)]
pub enum ParamBinding<'a> {
    /// A scalar, substituted into the bound query.
    Scalar(&'a Value),
    /// The relation every run passes at position `at` of its relations
    /// ([`BoundQuery::run`]), whose columns are `columns`.
    Rel { at: usize, columns: &'a ColNames },
}

/// A query bound to its inputs: the FROM items resolved, every column
/// reference an (input, column) pair, every scalar parameter substituted,
/// and the predicates classified into joins and local filters — what
/// [`BoundQuery::run`] needs besides the data. Each run looks its stored
/// tables up by name in the catalog it is given and takes its relation
/// parameters by position.
#[derive(Debug, Clone)]
pub struct BoundQuery {
    inputs: Vec<BoundInput>,
    joins: Vec<JoinPred>,
    locals: Vec<Local>,
    /// False when a constant-only predicate is false: every run is empty.
    satisfiable: bool,
    /// The SELECT list (empty when not satisfiable).
    select: Vec<Operand>,
}

/// One FROM item of a bound query: where its relation comes from, and the
/// column names its references were resolved against.
#[derive(Debug, Clone)]
struct BoundInput {
    rel: InputRel,
    names: ColNames,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InputRel {
    /// The stored table the FROM item names.
    Table,
    /// The relation a run passes at this position.
    Param(usize),
}

/// A fully resolved column: which input, which column within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ColRef {
    input: usize,
    col: usize,
}

/// A comparison between columns of two different inputs.
#[derive(Debug, Clone, Copy)]
struct JoinPred {
    op: CmpOp,
    lhs: ColRef,
    rhs: ColRef,
}

/// A predicate over a single input, applied before any join.
#[derive(Debug, Clone)]
enum Local {
    CmpConst {
        op: CmpOp,
        col: ColRef,
        value: Value,
        flipped: bool,
    },
    CmpCols {
        op: CmpOp,
        lhs: ColRef,
        rhs: ColRef,
    },
    In {
        col: ColRef,
        set: InSet,
    },
}

/// The set of an IN predicate: its constants (those of predicate `pred` of
/// the query), or the first column of a relation parameter — symbol sets
/// built per run, as interning goes on between runs.
#[derive(Debug, Clone, Copy)]
enum InSet {
    Consts { pred: usize },
    Param(usize),
}

/// A scalar with its parameter substituted, before its column resolves.
enum Substituted<'q> {
    Col(&'q QualCol),
    Const(Value),
}

/// A SELECT item bound: a resolved column or a constant.
#[derive(Debug, Clone)]
enum Operand {
    Col(ColRef),
    Const(Value),
}

/// Executes `query` against `catalog` with the given parameter bindings,
/// producing a relation whose columns follow the SELECT list.
pub fn execute(query: &Query, catalog: &Catalog, params: &Params) -> Result<Relation, SqlError> {
    execute_named(query, catalog, params, query.output_columns().into())
}

/// [`execute`] with the output's column names given: `columns` must
/// be `query.output_columns()`, held by the caller. Binds `query` to
/// `params` ([`Query::bind`], each relation parameter at the position of its
/// first reference) and runs it ([`BoundQuery::run`]).
pub fn execute_named(
    query: &Query,
    catalog: &Catalog,
    params: &Params,
    columns: ColNames,
) -> Result<Relation, SqlError> {
    let mut rels: Vec<(&str, &Relation)> = Vec::new();
    let bound = query.bind(catalog, |name| match params.get_key_value(name)? {
        (_, ParamValue::Scalar(v)) => Some(ParamBinding::Scalar(v)),
        (key, ParamValue::Rel(rel)) => {
            let at = match rels.iter().position(|(n, _)| *n == key) {
                Some(at) => at,
                None => {
                    rels.push((key, rel));
                    rels.len() - 1
                }
            };
            Some(ParamBinding::Rel {
                at,
                columns: rel.names(),
            })
        }
    })?;
    let rel = |at: usize| rels.get(at).map(|&(_, rel)| rel);
    bound.run(query, catalog, rel, columns)
}

impl Query {
    /// Binds the query: resolves the FROM items against `catalog` (a stored
    /// table) or `param` (a relation parameter, by its position), every
    /// column reference against those inputs' columns, and every scalar
    /// parameter to its value through `param`, and classifies the WHERE
    /// conjunction into join predicates (two inputs) and local ones (one
    /// input). `param` returns `None` for an unbound name. An error here is
    /// the one [`execute`] returns for the same bindings.
    pub fn bind<'q, 'p>(
        &'q self,
        catalog: &Catalog,
        mut param: impl FnMut(&str) -> Option<ParamBinding<'p>>,
    ) -> Result<BoundQuery, SqlError> {
        let mut inputs = Vec::with_capacity(self.from.len());
        for item in &self.from {
            let (rel, names) = match item {
                FromItem::Table { source, table, .. } => {
                    let names = catalog.table(source, table)?.columnar().names();
                    (InputRel::Table, names.clone())
                }
                FromItem::Param { name, .. } => match param(name) {
                    Some(ParamBinding::Rel { at, columns }) => {
                        (InputRel::Param(at), columns.clone())
                    }
                    _ => {
                        return Err(SqlError::Param(format!(
                            "parameter `${name}` used in FROM must be bound to a relation"
                        )))
                    }
                },
            };
            inputs.push(BoundInput { rel, names });
        }
        let resolve = |c: &QualCol| resolve(&self.from, &inputs, c);
        let (mut joins, mut locals) = (Vec::new(), Vec::new());
        let mut satisfiable = true;
        for (at, pred) in self.preds.iter().enumerate() {
            match pred {
                Pred::Cmp { op, lhs, rhs } => {
                    let op = *op;
                    match (subst(lhs, &mut param)?, subst(rhs, &mut param)?) {
                        (Substituted::Col(a), Substituted::Col(b)) => {
                            let (lhs, rhs) = (resolve(a)?, resolve(b)?);
                            if lhs.input == rhs.input {
                                locals.push(Local::CmpCols { op, lhs, rhs });
                            } else {
                                joins.push(JoinPred { op, lhs, rhs });
                            }
                        }
                        (Substituted::Col(a), Substituted::Const(value)) => {
                            let (col, flipped) = (resolve(a)?, false);
                            locals.push(Local::CmpConst {
                                op,
                                col,
                                value,
                                flipped,
                            })
                        }
                        (Substituted::Const(value), Substituted::Col(b)) => {
                            let (col, flipped) = (resolve(b)?, true);
                            locals.push(Local::CmpConst {
                                op,
                                col,
                                value,
                                flipped,
                            })
                        }
                        (Substituted::Const(l), Substituted::Const(r)) => {
                            satisfiable &= op.eval(&l, &r)
                        }
                    }
                }
                Pred::In { col, set } => {
                    let col = resolve(col)?;
                    let set = match set {
                        SetRef::Consts(_) => InSet::Consts { pred: at },
                        SetRef::Param(name) => match param(name) {
                            Some(ParamBinding::Rel { columns, .. }) if columns.is_empty() => {
                                return Err(SqlError::Param(format!(
                                    "relation parameter `${name}` has no columns"
                                )));
                            }
                            Some(ParamBinding::Rel { at, .. }) => InSet::Param(at),
                            _ => {
                                return Err(SqlError::Param(format!(
                                    "parameter `${name}` used in IN must be bound to a relation"
                                )))
                            }
                        },
                    };
                    locals.push(Local::In { col, set });
                }
            }
        }
        let mut select = Vec::new();
        if satisfiable {
            select.reserve_exact(self.select.len());
            for item in &self.select {
                select.push(match subst(&item.expr, &mut param)? {
                    Substituted::Col(c) => Operand::Col(resolve(c)?),
                    Substituted::Const(v) => Operand::Const(v),
                });
            }
        } else {
            // Every run is empty, but the SELECT list still resolves, so
            // binding errors are not masked.
            for item in &self.select {
                match &item.expr {
                    Scalar::Col(c) => {
                        let known = (self.from.iter().zip(&inputs))
                            .any(|(f, i)| f.alias() == c.qualifier && i.col(&c.column).is_some());
                        if !known {
                            return Err(SqlError::Bind(format!("unresolved column `{c}`")));
                        }
                    }
                    Scalar::Param(name) => {
                        if param(name).is_none() {
                            return Err(SqlError::Param(format!("unbound parameter `${name}`")));
                        }
                    }
                    Scalar::Const(_) => {}
                }
            }
        }
        Ok(BoundQuery {
            inputs,
            joins,
            locals,
            satisfiable,
            select,
        })
    }
}

/// Substitutes a scalar parameter, leaving columns and constants.
fn subst<'q, 'p>(
    scalar: &'q Scalar,
    param: &mut impl FnMut(&str) -> Option<ParamBinding<'p>>,
) -> Result<Substituted<'q>, SqlError> {
    match scalar {
        Scalar::Param(name) => match param(name) {
            Some(ParamBinding::Scalar(v)) => Ok(Substituted::Const(v.clone())),
            _ => Err(SqlError::Param(format!(
                "parameter `${name}` must be bound to a scalar"
            ))),
        },
        Scalar::Col(c) => Ok(Substituted::Col(c)),
        Scalar::Const(v) => Ok(Substituted::Const(v.clone())),
    }
}

impl BoundInput {
    fn col(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|c| c == name)
    }
}

fn resolve(from: &[FromItem], inputs: &[BoundInput], c: &QualCol) -> Result<ColRef, SqlError> {
    let (qualifier, column) = (&c.qualifier, &c.column);
    let input = (from.iter())
        .position(|i| i.alias() == qualifier)
        .ok_or_else(|| SqlError::Bind(format!("unknown alias `{qualifier}`")))?;
    let col = inputs[input]
        .col(column)
        .ok_or_else(|| SqlError::Bind(format!("no column `{column}` in `{qualifier}`")))?;
    Ok(ColRef { input, col })
}

/// One FROM entry of a run: its relation, the stored table it is (for the
/// kept join indexes; `None` for a parameter), and the rows surviving its
/// local predicates — `None` while every row is live.
struct Input<'a> {
    rel: &'a Relation,
    table: Option<&'a Table>,
    live: Option<Vec<u32>>,
}

/// A slot no FROM item has filled yet: an empty relation, every row live.
impl Default for Input<'_> {
    fn default() -> Self {
        static EMPTY: OnceLock<Relation> = OnceLock::new();
        let rel = EMPTY.get_or_init(|| Relation::empty(Vec::<String>::new()));
        Input {
            rel,
            table: None,
            live: None,
        }
    }
}

/// How many inputs a run keeps on the stack; a query with more spills
/// them to the heap.
const INLINE_INPUTS: usize = 8;

impl Input<'_> {
    fn live_len(&self) -> usize {
        self.live.as_ref().map_or(self.rel.len(), Vec::len)
    }

    /// The live rows, listed.
    fn live_mut(&mut self) -> &mut Vec<u32> {
        let n = self.rel.len() as u32;
        self.live.get_or_insert_with(|| (0..n).collect())
    }

    fn for_each_live(&self, f: impl FnMut(u32)) {
        match &self.live {
            Some(live) => live.iter().copied().for_each(f),
            None => (0..self.rel.len() as u32).for_each(f),
        }
    }
}

/// The symbol column a resolved reference names.
fn syms<'a>(inputs: &[Input<'a>], c: ColRef) -> &'a [Sym] {
    inputs[c.input].rel.col_syms(c.col)
}

impl BoundQuery {
    /// Runs the bound query: `query` must be the query it was bound from,
    /// and `rel(i)` the relation bound at position `i`. Its stored tables
    /// are looked up in `catalog`. An input whose columns are not the ones
    /// it was bound against (a failover replica laid out otherwise) has its
    /// references resolved again by name for this run. `columns` is
    /// [`execute_named`]'s.
    pub fn run<'r>(
        &self,
        query: &Query,
        catalog: &'r Catalog,
        rel: impl Fn(usize) -> Option<&'r Relation>,
        columns: ColNames,
    ) -> Result<Relation, SqlError> {
        let param = |at: usize| {
            rel(at).ok_or_else(|| SqlError::Param(format!("no relation passed at position {at}")))
        };
        let (mut inline, mut spilled) = (<[Input; INLINE_INPUTS]>::default(), Vec::new());
        let inputs: &mut [Input] = match self.inputs.len() {
            n if n <= INLINE_INPUTS => &mut inline[..n],
            n => {
                spilled.resize_with(n, Input::default);
                &mut spilled
            }
        };
        let mut moved = false;
        for ((slot, bound), item) in inputs.iter_mut().zip(&self.inputs).zip(&query.from) {
            let (rel, table) = match (bound.rel, item) {
                (InputRel::Table, FromItem::Table { source, table, .. }) => {
                    let t = catalog.table(source, table)?;
                    (t.columnar(), Some(t))
                }
                (InputRel::Param(at), _) => (param(at)?, None),
                (InputRel::Table, FromItem::Param { .. }) => {
                    return Err(SqlError::Bind(format!("`{item}` was bound as a table")))
                }
            };
            moved |= rel.columns() != &bound.names[..];
            *slot = Input {
                rel,
                table,
                live: None,
            };
        }
        // The relations of the IN sets, by predicate.
        let mut sets = Vec::new();
        for local in &self.locals {
            if let Local::In {
                set: InSet::Param(at),
                ..
            } = local
            {
                sets.push(param(*at)?);
            }
        }
        let rebased;
        let bound = match moved {
            true => {
                rebased = self.rebased(query, inputs)?;
                &rebased
            }
            false => self,
        };
        bound.run_on(query, inputs, &sets, columns)
    }

    /// This query with its column references resolved by name against the
    /// columns `inputs` have.
    fn rebased(&self, query: &Query, inputs: &[Input<'_>]) -> Result<BoundQuery, SqlError> {
        let mut out = self.clone();
        let mut at = Vec::with_capacity(inputs.len());
        for ((bound, input), item) in out.inputs.iter_mut().zip(inputs).zip(&query.from) {
            let now = input.rel.names();
            let mut moved = Vec::with_capacity(bound.names.len());
            for name in bound.names.iter() {
                moved.push(now.iter().position(|c| c == name).ok_or_else(|| {
                    SqlError::Bind(format!("no column `{name}` in `{}`", item.alias()))
                }));
            }
            at.push(moved);
            bound.names = now.clone();
        }
        let rebase = |c: &mut ColRef| -> Result<(), SqlError> {
            c.col = at[c.input][c.col].clone()?;
            Ok(())
        };
        for j in &mut out.joins {
            rebase(&mut j.lhs)?;
            rebase(&mut j.rhs)?;
        }
        for local in &mut out.locals {
            match local {
                Local::CmpConst { col, .. } | Local::In { col, .. } => rebase(col)?,
                Local::CmpCols { lhs, rhs, .. } => {
                    rebase(lhs)?;
                    rebase(rhs)?;
                }
            }
        }
        for operand in &mut out.select {
            if let Operand::Col(c) = operand {
                rebase(c)?;
            }
        }
        Ok(out)
    }

    fn run_on(
        &self,
        query: &Query,
        inputs: &mut [Input<'_>],
        sets: &[&Relation],
        columns: ColNames,
    ) -> Result<Relation, SqlError> {
        if !self.satisfiable {
            return Ok(Relation::empty(columns));
        }
        self.apply_locals(query, inputs, sets);
        let joined = join_all(inputs, &self.joins);
        let mut rel = project(&self.select, inputs, &joined, columns)?;
        if query.distinct {
            rel.dedup();
        }
        Ok(rel)
    }

    /// Narrows each filtered input's live rows by its local predicates.
    /// `sets` are the relations of the IN predicates over a parameter, in
    /// predicate order.
    fn apply_locals(&self, query: &Query, inputs: &mut [Input<'_>], sets: &[&Relation]) {
        let mut sets = sets.iter();
        for local in &self.locals {
            match local {
                Local::CmpConst {
                    op,
                    col,
                    value,
                    flipped,
                } => {
                    let syms = syms(inputs, *col);
                    let live = inputs[col.input].live_mut();
                    if *op == CmpOp::Eq {
                        // Equality against a constant is a symbol compare; a
                        // never-interned constant matches nothing, and NULL
                        // operands are always false (SQL three-valued logic).
                        match intern::lookup(value).filter(|s| !s.is_null()) {
                            Some(sym) => live.retain(|&r| syms[r as usize] == sym),
                            None => live.clear(),
                        }
                    } else {
                        live.retain(|&r| {
                            let cell = intern::resolve(syms[r as usize]);
                            if *flipped {
                                op.eval(value, cell)
                            } else {
                                op.eval(cell, value)
                            }
                        });
                    }
                }
                Local::CmpCols { op, lhs, rhs } => {
                    let (a, b) = (syms(inputs, *lhs), syms(inputs, *rhs));
                    let live = inputs[lhs.input].live_mut();
                    if *op == CmpOp::Eq {
                        // NULL = NULL is false in SQL, so equal symbols only
                        // match when non-NULL.
                        live.retain(|&r| {
                            let s = a[r as usize];
                            s == b[r as usize] && !s.is_null()
                        });
                    } else {
                        live.retain(|&r| {
                            op.eval(
                                intern::resolve(a[r as usize]),
                                intern::resolve(b[r as usize]),
                            )
                        });
                    }
                }
                Local::In { col, set } => {
                    // A constant that was never interned equals no stored
                    // cell, so it simply never enters the symbol set.
                    let mut set: SymSet<Sym> = match *set {
                        InSet::Consts { pred } => match &query.preds[pred] {
                            Pred::In {
                                set: SetRef::Consts(vs),
                                ..
                            } => vs.iter().filter_map(intern::lookup).collect(),
                            _ => SymSet::default(),
                        },
                        InSet::Param(_) => {
                            let rel = sets.next().expect("a relation per IN parameter");
                            rel.col_syms(0).iter().copied().collect()
                        }
                    };
                    // `x IN (...)` is false for a NULL x even when the set
                    // contains NULL.
                    set.remove(&Sym::NULL);
                    let syms = syms(inputs, *col);
                    inputs[col.input]
                        .live_mut()
                        .retain(|&r| set.contains(&syms[r as usize]));
                }
            }
        }
    }
}

/// The running join result as a flat matrix of live-row indices: composite
/// `i` is `rows[i * order.len()..][..order.len()]` and its slot `s` is a row
/// of `inputs[order[s]]`. Wide intermediate rows are never materialized,
/// and a composite is never its own allocation.
struct Joined {
    order: Vec<usize>,
    rows: Vec<u32>,
}

impl Joined {
    fn len(&self) -> usize {
        self.rows.len() / self.order.len()
    }

    fn slot(&self, input: usize) -> Option<usize> {
        self.order.iter().position(|&j| j == input)
    }
}

/// Greedy left-deep join of every input, starting from the smallest
/// filtered one. Joining continues (cheaply) even once the result is empty,
/// so every alias resolves in projection.
fn join_all(inputs: &mut [Input<'_>], joins: &[JoinPred]) -> Joined {
    let mut remaining: Vec<usize> = (0..inputs.len()).collect();
    remaining.sort_by_key(|&i| std::cmp::Reverse(inputs[i].live_len()));
    let first = remaining.pop().expect("FROM clause is non-empty");
    let mut joined = Joined {
        order: vec![first],
        rows: std::mem::take(inputs[first].live_mut()),
    };
    let inputs = &*inputs;
    while !remaining.is_empty() {
        // Prefer an input connected to the joined set by a join predicate,
        // among those the smallest; failing that (cross product), the
        // smallest remaining. Ties go to the first in `remaining`.
        let connected = |c: usize| {
            joins.iter().any(|j| {
                (j.lhs.input == c && joined.slot(j.rhs.input).is_some())
                    || (j.rhs.input == c && joined.slot(j.lhs.input).is_some())
            })
        };
        let (pick, _) = remaining
            .iter()
            .enumerate()
            .min_by_key(|&(_, &c)| (!connected(c), inputs[c].live_len()))
            .expect("remaining non-empty");
        let next = remaining.remove(pick);
        joined.rows = join_step(inputs, joins, &joined, next);
        joined.order.push(next);
    }
    joined
}

/// A non-equality join predicate between the input being joined and an
/// already joined one.
struct Residual<'a> {
    op: CmpOp,
    next_col: &'a [Sym],
    /// Composite slot and column of the already joined side.
    other: (usize, &'a [Sym]),
    next_is_lhs: bool,
}

impl Residual<'_> {
    fn holds(&self, composite: &[u32], r: u32) -> bool {
        let next = intern::resolve(self.next_col[r as usize]);
        let other = intern::resolve(self.other.1[composite[self.other.0] as usize]);
        if self.next_is_lhs {
            self.op.eval(next, other)
        } else {
            self.op.eval(other, next)
        }
    }
}

/// One left-deep step: the composites of `joined` extended by every live
/// row of `next` that satisfies the join predicates between `next` and the
/// joined inputs. Equalities key a [`JoinTable`] on `next` — the one its
/// stored table keeps when every row is live, else built here — probed per
/// composite; without one every live row is a candidate (nested loop).
/// Output order is composite order, then scan order of `next`.
fn join_step(inputs: &[Input<'_>], joins: &[JoinPred], joined: &Joined, next: usize) -> Vec<u32> {
    let next_input = &inputs[next];
    // Key column positions in `next`, in predicate order.
    let mut build: Vec<usize> = Vec::new();
    let mut probe_cols: Vec<(usize, &[Sym])> = Vec::new();
    let mut residuals: Vec<Residual<'_>> = Vec::new();
    for j in joins {
        let (next_side, other_side) = if j.lhs.input == next {
            (j.lhs, j.rhs)
        } else if j.rhs.input == next {
            (j.rhs, j.lhs)
        } else {
            continue;
        };
        let Some(slot) = joined.slot(other_side.input) else {
            continue;
        };
        let next_col = syms(inputs, next_side);
        let other = (slot, syms(inputs, other_side));
        if j.op == CmpOp::Eq {
            build.push(next_side.col);
            probe_cols.push(other);
        } else {
            residuals.push(Residual {
                op: j.op,
                next_col,
                other,
                next_is_lhs: j.lhs.input == next,
            });
        }
    }
    // A stored table with every row live has its index kept; the `Arc`
    // holds it while this step probes it.
    let all_live = next_input.live_len() == next_input.rel.len();
    let kept = match next_input.table {
        Some(table) if !build.is_empty() && all_live => Some(table.join_index(&build)),
        _ => None,
    };
    let build_cols = build.iter().map(|&c| next_input.rel.col_syms(c)).collect();
    let table = match (&kept, &next_input.live) {
        _ if build.is_empty() => None,
        (Some(index), _) => Some(JoinTable::over(build_cols, index)),
        (None, Some(live)) => Some(JoinTable::build(build_cols, live)),
        (None, None) => {
            let all: Vec<u32> = (0..next_input.rel.len() as u32).collect();
            Some(JoinTable::build(build_cols, &all))
        }
    };

    let stride = joined.order.len();
    // One match per composite up front, rather than doubling from empty.
    let mut out = Vec::with_capacity(joined.len() * (stride + 1));
    for composite in joined.rows.chunks_exact(stride) {
        let mut candidate = |r: u32| {
            if residuals.iter().all(|p| p.holds(composite, r)) {
                out.extend_from_slice(composite);
                out.push(r);
            }
        };
        match &table {
            None => next_input.for_each_live(candidate),
            Some(table) => {
                let key = |k: usize| {
                    let (slot, col) = probe_cols[k];
                    col[composite[slot] as usize]
                };
                table.matches(key).for_each(&mut candidate);
            }
        }
    }
    out
}

/// Builds the output columns directly as symbol vectors: a column
/// reference gathers symbols through its composite slot, a literal interns
/// once and repeats its symbol.
fn project(
    select: &[Operand],
    inputs: &[Input<'_>],
    joined: &Joined,
    columns: ColNames,
) -> Result<Relation, SqlError> {
    let stride = joined.order.len();
    let mut out_cols: Vec<Vec<Sym>> = Vec::with_capacity(select.len());
    for item in select {
        out_cols.push(match item {
            Operand::Col(c) => {
                let slot = joined.slot(c.input).expect("all inputs joined");
                let syms = syms(inputs, *c);
                let rows = joined.rows.iter().skip(slot).step_by(stride);
                rows.map(|&r| syms[r as usize]).collect()
            }
            Operand::Const(v) => vec![intern::intern(v); joined.len()],
        });
    }
    Ok(Relation::try_from_columns(columns, out_cols)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig_relstore::{Database, Table, TableSchema};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut db1 = Database::new("DB1");
        let mut patient = Table::new(TableSchema::strings(
            "patient",
            &["SSN", "pname", "policy"],
            &["SSN"],
        ));
        for (s, n, p) in [
            ("1", "alice", "p1"),
            ("2", "bob", "p2"),
            ("3", "carol", "p1"),
        ] {
            patient
                .insert(vec![Value::str(s), Value::str(n), Value::str(p)])
                .unwrap();
        }
        db1.add_table(patient).unwrap();
        let mut visit = Table::new(TableSchema::strings(
            "visitInfo",
            &["SSN", "trId", "date"],
            &[],
        ));
        for (s, t, d) in [
            ("1", "t1", "d1"),
            ("1", "t2", "d2"),
            ("2", "t1", "d1"),
            ("3", "t3", "d1"),
        ] {
            visit
                .insert(vec![Value::str(s), Value::str(t), Value::str(d)])
                .unwrap();
        }
        db1.add_table(visit).unwrap();
        c.add_source(db1).unwrap();

        let mut db2 = Database::new("DB2");
        let mut cover = Table::new(TableSchema::strings("cover", &["policy", "trId"], &[]));
        for (p, t) in [("p1", "t1"), ("p1", "t3"), ("p2", "t1"), ("p2", "t2")] {
            cover.insert(vec![Value::str(p), Value::str(t)]).unwrap();
        }
        db2.add_table(cover).unwrap();
        c.add_source(db2).unwrap();
        c
    }

    fn run(sql: &str, params: &Params) -> Relation {
        execute(&Query::parse(sql).unwrap(), &catalog(), params).unwrap()
    }

    #[test]
    fn single_table_filter() {
        let mut params = Params::new();
        params.insert("pol".into(), ParamValue::scalar("p1"));
        let r = run(
            "select p.SSN from DB1:patient p where p.policy = $pol",
            &params,
        );
        assert_eq!(r.columns(), &["SSN".to_string()]);
        let ssns: Vec<String> = (0..r.len()).map(|i| r.cell(i, 0).to_text()).collect();
        assert_eq!(ssns, vec!["1", "3"]);
    }

    #[test]
    fn two_table_join() {
        let r = run(
            "select p.pname, v.trId from DB1:patient p, DB1:visitInfo v \
             where p.SSN = v.SSN and v.date = 'd1'",
            &Params::new(),
        );
        let mut got: Vec<(String, String)> = (0..r.len())
            .map(|i| (r.cell(i, 0).to_text(), r.cell(i, 1).to_text()))
            .collect();
        got.sort();
        assert_eq!(
            got,
            vec![
                ("alice".into(), "t1".into()),
                ("bob".into(), "t1".into()),
                ("carol".into(), "t3".into())
            ]
        );
    }

    #[test]
    fn multi_source_join_like_q2() {
        // Which covered treatments did patient 1's policy allow on d2?
        let mut params = Params::new();
        params.insert("SSN".into(), ParamValue::scalar("1"));
        params.insert("date".into(), ParamValue::scalar("d2"));
        params.insert("policy".into(), ParamValue::scalar("p2"));
        let r = run(
            "select c.trId from DB1:visitInfo i, DB2:cover c \
             where i.SSN = $SSN and i.date = $date and c.trId = i.trId and c.policy = $policy",
            &params,
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.cell(0, 0), &Value::str("t2"));
    }

    #[test]
    fn in_param_relation() {
        let mut params = Params::new();
        params.insert(
            "ids".into(),
            ParamValue::Rel(Relation::single_column(
                "trId",
                [Value::str("t1"), Value::str("t3")],
            )),
        );
        let r = run(
            "select distinct v.trId from DB1:visitInfo v where v.trId in $ids",
            &params,
        );
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn param_relation_in_from() {
        let mut params = Params::new();
        let mut rel = Relation::empty(vec!["policy".into()]);
        rel.push(vec![Value::str("p1")]);
        params.insert("v1".into(), ParamValue::Rel(rel));
        let r = run(
            "select c.trId from DB2:cover c, $v1 T1 where c.policy = T1.policy",
            &params,
        );
        let mut ids: Vec<String> = (0..r.len()).map(|i| r.cell(i, 0).to_text()).collect();
        ids.sort();
        assert_eq!(ids, vec!["t1", "t3"]);
    }

    #[test]
    fn distinct_and_literals() {
        let r = run(
            "select distinct p.policy, 'tag' as t from DB1:patient p",
            &Params::new(),
        );
        assert_eq!(r.len(), 2);
        assert_eq!(r.cell(0, 1), &Value::str("tag"));
    }

    #[test]
    fn contradiction_yields_empty() {
        let r = run(
            "select p.SSN from DB1:patient p where 'a' = 'b'",
            &Params::new(),
        );
        assert!(r.is_empty());
        assert_eq!(r.columns(), &["SSN".to_string()]);
    }

    #[test]
    fn inequality_join() {
        let r = run(
            "select a.SSN, b.SSN from DB1:patient a, DB1:patient b where a.SSN < b.SSN",
            &Params::new(),
        );
        assert_eq!(r.len(), 3); // (1,2) (1,3) (2,3)
    }

    #[test]
    fn missing_param_is_an_error() {
        let q = Query::parse("select p.SSN from DB1:patient p where p.SSN = $x").unwrap();
        let err = execute(&q, &catalog(), &Params::new()).unwrap_err();
        assert!(matches!(err, SqlError::Param(_)));
    }

    #[test]
    fn scalar_rel_mismatch_is_an_error() {
        let mut params = Params::new();
        params.insert("x".into(), ParamValue::scalar("1"));
        let q = Query::parse("select p.SSN from DB1:patient p where p.SSN in $x").unwrap();
        assert!(matches!(
            execute(&q, &catalog(), &params),
            Err(SqlError::Param(_))
        ));
    }

    #[test]
    fn unknown_alias_or_column_is_bind_error() {
        let q = Query::parse("select z.SSN from DB1:patient p").unwrap();
        assert!(matches!(
            execute(&q, &catalog(), &Params::new()),
            Err(SqlError::Bind(_))
        ));
        let q = Query::parse("select p.nope from DB1:patient p").unwrap();
        assert!(matches!(
            execute(&q, &catalog(), &Params::new()),
            Err(SqlError::Bind(_))
        ));
    }

    /// A query bound once runs over whatever relations and tables it is
    /// handed, as binding and running it afresh would: new rows, a relation
    /// parameter and a stored table whose columns moved (resolved again by
    /// name), and one that lost a column (the binding error).
    #[test]
    fn a_bound_query_runs_as_a_fresh_binding_would() {
        let sql = "select c.trId, T1.x from DB2:cover c, $v1 T1 \
                   where c.policy = T1.policy and c.trId in ('t1', 't3')";
        let q = Query::parse(sql).unwrap();
        let rel = |columns: &[&str], rows: &[[&str; 2]]| {
            let mut rel =
                Relation::empty(columns.iter().map(|c| c.to_string()).collect::<Vec<_>>());
            for row in rows {
                rel.push(row.iter().map(|v| Value::str(*v)).collect());
            }
            rel
        };
        let first = rel(&["policy", "x"], &[["p1", "a"], ["p2", "b"]]);
        let bound = q
            .bind(&catalog(), |name| {
                (name == "v1").then(|| ParamBinding::Rel {
                    at: 0,
                    columns: first.names(),
                })
            })
            .unwrap();
        let fresh = |catalog: &Catalog, v1: &Relation| {
            let mut params = Params::new();
            params.insert("v1".into(), ParamValue::Rel(v1.clone()));
            execute(&q, catalog, &params)
        };
        let columns: ColNames = q.output_columns().into();
        let run = |catalog: &Catalog, v1: &Relation| {
            bound.run(&q, catalog, |_| Some(v1), columns.clone())
        };
        let moved = rel(&["x", "policy"], &[["c", "p1"], ["d", "p2"], ["e", "p1"]]);
        for v1 in [&first, &rel(&["policy", "x"], &[["p2", "z"]]), &moved] {
            let got = run(&catalog(), v1).unwrap();
            assert_eq!(got, fresh(&catalog(), v1).unwrap());
        }
        assert!(!run(&catalog(), &moved).unwrap().is_empty());
        let lost = Relation::single_column("x", [Value::str("a")]);
        let err = SqlError::Bind("no column `policy` in `T1`".into());
        assert_eq!(run(&catalog(), &lost), Err(err.clone()));
        assert_eq!(fresh(&catalog(), &lost), Err(err));

        // `cover` with its columns the other way round.
        let mut swapped = Catalog::new();
        let mut db = Database::new("DB2");
        let mut cover = Table::new(TableSchema::strings("cover", &["trId", "policy"], &[]));
        for (p, t) in [("p1", "t1"), ("p1", "t3"), ("p2", "t1"), ("p2", "t2")] {
            cover.insert(vec![Value::str(t), Value::str(p)]).unwrap();
        }
        db.add_table(cover).unwrap();
        swapped.add_source(db).unwrap();
        let got = run(&swapped, &first).unwrap();
        assert_eq!(got, fresh(&swapped, &first).unwrap());
        assert_eq!(got, run(&catalog(), &first).unwrap());
    }

    /// More FROM items than a run keeps on the stack.
    #[test]
    fn a_query_of_many_inputs_runs_them_all() {
        let n = INLINE_INPUTS + 2;
        let from: Vec<String> = (0..n).map(|i| format!("DB1:patient p{i}")).collect();
        let chain: Vec<String> = (1..n)
            .map(|i| format!("p{}.SSN = p{i}.SSN", i - 1))
            .collect();
        let sql = format!(
            "select p0.SSN, p{}.pname from {} where {} and p0.policy = 'p1'",
            n - 1,
            from.join(", "),
            chain.join(" and ")
        );
        let r = run(&sql, &Params::new());
        let got: Vec<(String, String)> = (0..r.len())
            .map(|i| (r.cell(i, 0).to_text(), r.cell(i, 1).to_text()))
            .collect();
        assert_eq!(
            got,
            vec![("1".into(), "alice".into()), ("3".into(), "carol".into())]
        );
    }

    #[test]
    fn nulls_do_not_join() {
        let mut c = Catalog::new();
        let mut db = Database::new("D");
        let mut t = Table::new(TableSchema::strings("t", &["a"], &[]));
        t.insert(vec![Value::Null]).unwrap();
        t.insert(vec![Value::str("x")]).unwrap();
        db.add_table(t).unwrap();
        c.add_source(db).unwrap();
        let q = Query::parse("select l.a from D:t l, D:t r where l.a = r.a").unwrap();
        let rel = execute(&q, &c, &Params::new()).unwrap();
        assert_eq!(rel.len(), 1); // only 'x' = 'x'
    }

    /// NULL-heavy regression for the no-allocation key fast path: NULL join
    /// keys never match (single- and multi-column), on inputs where most
    /// keys are NULL.
    #[test]
    fn null_heavy_joins_match_no_null_key() {
        let mut c = Catalog::new();
        let mut db = Database::new("D");
        let mut left = Table::new(TableSchema::strings("l", &["k1", "k2", "payload"], &[]));
        let mut right = Table::new(TableSchema::strings("r", &["k1", "k2", "tag"], &[]));
        let mut keys = Vec::new();
        for i in 0..600 {
            // ~2/3 of the rows carry a NULL in one of the key columns.
            let k1 = if i % 3 == 0 {
                Value::Null
            } else {
                Value::str(format!("k{}", i % 53))
            };
            let k2 = if i % 3 == 1 {
                Value::Null
            } else {
                Value::str(format!("g{}", i % 7))
            };
            left.insert(vec![
                k1.clone(),
                k2.clone(),
                Value::str(format!("p{}", i % 13)),
            ])
            .unwrap();
            right
                .insert(vec![
                    k1.clone(),
                    k2.clone(),
                    Value::str(format!("t{}", i % 5)),
                ])
                .unwrap();
            keys.push([k1, k2]);
        }
        db.add_table(left).unwrap();
        db.add_table(right).unwrap();
        c.add_source(db).unwrap();

        // Every pair whose first `width` keys are equal and non-NULL.
        let pairs = |width: usize| {
            let same = |l: &[Value; 2], r: &[Value; 2]| {
                (0..width).all(|k| l[k] == r[k] && l[k] != Value::Null)
            };
            let per_left = keys
                .iter()
                .map(|l| keys.iter().filter(|r| same(l, r)).count());
            per_left.sum::<usize>()
        };
        for (width, sql) in [
            (
                1,
                "select l.payload, r.tag from D:l l, D:r r where l.k1 = r.k1",
            ),
            (
                2,
                "select l.payload, r.tag from D:l l, D:r r where l.k1 = r.k1 and l.k2 = r.k2",
            ),
        ] {
            let q = Query::parse(sql).unwrap();
            let got = execute(&q, &c, &Params::new()).unwrap();
            assert!(!got.is_empty(), "fixture produced no rows for {sql}");
            assert_eq!(got.len(), pairs(width), "{sql}");
        }

        // Direct claim: a table whose keys are all NULL joins to nothing,
        // even against itself.
        let q = Query::parse("select l.payload from D:l l, D:r r where l.k1 = r.k1").unwrap();
        let all = execute(&q, &c, &Params::new()).unwrap();
        let mut nulls_only = Catalog::new();
        let mut dbn = Database::new("N");
        let mut t = Table::new(TableSchema::strings("t", &["a"], &[]));
        for _ in 0..8 {
            t.insert(vec![Value::Null]).unwrap();
        }
        dbn.add_table(t).unwrap();
        nulls_only.add_source(dbn).unwrap();
        let qn = Query::parse("select l.a from N:t l, N:t r where l.a = r.a").unwrap();
        assert!(execute(&qn, &nulls_only, &Params::new())
            .unwrap()
            .is_empty());
        assert!(!all.is_empty());
    }
}
