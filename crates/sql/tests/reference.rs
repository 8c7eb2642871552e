//! Randomized property test: the greedy hash-join executor agrees with a
//! naive cartesian-product reference evaluator on random conjunctive
//! queries over random data, and a second run on the same catalog, whose
//! joins probe the indexes the stored tables kept from the first, reproduces
//! the first row for row. Seeds are fixed, so failures reproduce.

use aig_prng::{Rng, SeedableRng, StdRng};
use aig_relstore::{Catalog, Database, Relation, Table, TableSchema, Value};
use aig_sql::{
    execute, CmpOp, FromItem, ParamValue, Params, Pred, QualCol, Query, Scalar, SelectItem, SetRef,
};

// ---------------------------------------------------------------------------
// Reference evaluator: cartesian product + filter + project.
// ---------------------------------------------------------------------------

fn reference_execute(query: &Query, catalog: &Catalog, params: &Params) -> Relation {
    // Resolve inputs to (alias, columns, rows).
    let inputs: Vec<(String, Vec<String>, Vec<Vec<Value>>)> = query
        .from
        .iter()
        .map(|item| match item {
            FromItem::Table {
                source,
                table,
                alias,
            } => {
                let t = catalog.table(source, table).unwrap();
                (
                    alias.clone(),
                    t.schema()
                        .column_names()
                        .iter()
                        .map(|s| s.to_string())
                        .collect(),
                    t.rows(),
                )
            }
            FromItem::Param { name, alias } => {
                let rel = params[name].as_rel().unwrap();
                (alias.clone(), rel.columns().to_vec(), rel.rows_vec())
            }
        })
        .collect();

    let lookup = |combo: &[usize], col: &QualCol| -> Value {
        let (idx, input) = inputs
            .iter()
            .enumerate()
            .find(|(_, (alias, _, _))| alias == &col.qualifier)
            .unwrap();
        let c = input.1.iter().position(|n| n == &col.column).unwrap();
        input.2[combo[idx]][c].clone()
    };
    let scalar = |combo: &[usize], s: &Scalar| -> Value {
        match s {
            Scalar::Col(c) => lookup(combo, c),
            Scalar::Const(v) => v.clone(),
            Scalar::Param(p) => params[p].as_scalar().unwrap().clone(),
        }
    };

    // Enumerate the cartesian product.
    let mut rows = Vec::new();
    let sizes: Vec<usize> = inputs.iter().map(|(_, _, r)| r.len()).collect();
    let total: usize = sizes.iter().product();
    'combos: for mut index in 0..total {
        let mut combo = Vec::with_capacity(sizes.len());
        for &s in &sizes {
            combo.push(index % s);
            index /= s;
        }
        for pred in &query.preds {
            let ok = match pred {
                Pred::Cmp { op, lhs, rhs } => op.eval(&scalar(&combo, lhs), &scalar(&combo, rhs)),
                Pred::In { col, set } => {
                    let v = lookup(&combo, col);
                    if v.is_null() {
                        false
                    } else {
                        match set {
                            SetRef::Consts(vs) => vs.contains(&v),
                            SetRef::Param(p) => {
                                let rel = params[p].as_rel().unwrap();
                                (0..rel.len()).any(|i| rel.cell(i, 0) == &v)
                            }
                        }
                    }
                }
            };
            if !ok {
                continue 'combos;
            }
        }
        rows.push(
            query
                .select
                .iter()
                .map(|item| scalar(&combo, &item.expr))
                .collect(),
        );
    }
    let mut rel = Relation::new(query.output_columns(), rows).unwrap();
    if query.distinct {
        rel.dedup();
    }
    rel
}

// ---------------------------------------------------------------------------
// Random generation
// ---------------------------------------------------------------------------

/// Small value domain so joins actually hit.
fn random_value(rng: &mut StdRng) -> Value {
    if rng.gen_bool(1.0 / 6.0) {
        Value::Null
    } else {
        Value::str(format!("v{}", rng.gen_range(0u32..5)))
    }
}

/// Extra equality columns of the wide-key cases.
const KEYS: [&str; 4] = ["k1", "k2", "k3", "k4"];

#[derive(Debug, Clone)]
struct Setup {
    /// Equality columns `k1..` appended to both tables (0 = the plain
    /// two-column tables).
    key_width: usize,
    /// Rows per table: t (a, b, k…) at S1 and u (a, c, k…) at S2.
    t_rows: Vec<Vec<Value>>,
    u_rows: Vec<Vec<Value>>,
    preds: Vec<Pred>,
    distinct: bool,
}

fn col(q: &str, c: &str) -> Scalar {
    Scalar::Col(QualCol::new(q, c))
}

fn random_scalar(rng: &mut StdRng) -> Scalar {
    match rng.gen_range(0usize..6) {
        0 => col("x", "a"),
        1 => col("x", "b"),
        2 => col("y", "a"),
        3 => col("y", "c"),
        4 => Scalar::Const(random_value(rng)),
        _ => Scalar::Param("p".to_string()),
    }
}

fn random_pred(rng: &mut StdRng) -> Pred {
    if rng.gen_bool(0.25) {
        let qcol = if rng.gen_bool(0.5) {
            QualCol::new("x", "a")
        } else {
            QualCol::new("y", "c")
        };
        Pred::In {
            col: qcol,
            set: SetRef::Param("ids".to_string()),
        }
    } else {
        let op = *rng.pick(&[
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ]);
        Pred::Cmp {
            op,
            lhs: random_scalar(rng),
            rhs: random_scalar(rng),
        }
    }
}

fn random_setup(rng: &mut StdRng) -> Setup {
    let t_rows = (0..rng.gen_range(0usize..6))
        .map(|_| vec![random_value(rng), random_value(rng)])
        .collect();
    let u_rows = (0..rng.gen_range(0usize..6))
        .map(|_| vec![random_value(rng), random_value(rng)])
        .collect();
    let preds = (0..rng.gen_range(0usize..4))
        .map(|_| random_pred(rng))
        .collect();
    Setup {
        key_width: 0,
        t_rows,
        u_rows,
        preds,
        distinct: rng.gen_bool(0.5),
    }
}

/// Three or four equality columns between the one pair of inputs — the
/// executor's heap-allocated wide-key arm, which the hospital scenario
/// never reaches — with NULLs in the key columns (a NULL in any of them
/// joins nothing) and sometimes a residual comparison or an IN on top.
fn wide_key_setup(rng: &mut StdRng) -> Setup {
    let key_width = rng.gen_range(3usize..5);
    // Two values per key column, so whole keys do collide.
    let key_value = |rng: &mut StdRng| {
        if rng.gen_bool(1.0 / 6.0) {
            Value::Null
        } else {
            Value::str(format!("v{}", rng.gen_range(0u32..2)))
        }
    };
    let rows = |rng: &mut StdRng| -> Vec<Vec<Value>> {
        (0..rng.gen_range(0usize..20))
            .map(|_| {
                let mut row = vec![random_value(rng), random_value(rng)];
                row.extend((0..key_width).map(|_| key_value(rng)));
                row
            })
            .collect()
    };
    let (t_rows, u_rows) = (rows(rng), rows(rng));
    let mut preds: Vec<Pred> = KEYS[..key_width]
        .iter()
        .map(|k| {
            let (lhs, rhs) = if rng.gen_bool(0.5) {
                (col("x", k), col("y", k))
            } else {
                (col("y", k), col("x", k))
            };
            Pred::Cmp {
                op: CmpOp::Eq,
                lhs,
                rhs,
            }
        })
        .collect();
    if rng.gen_bool(0.5) {
        let at = rng.gen_range(0usize..preds.len() + 1);
        preds.insert(at, random_pred(rng));
    }
    Setup {
        key_width,
        t_rows,
        u_rows,
        preds,
        distinct: rng.gen_bool(0.5),
    }
}

fn build_catalog(setup: &Setup) -> Catalog {
    let keys = &KEYS[..setup.key_width];
    let mut catalog = Catalog::new();
    for (source, table, payload, rows) in [
        ("S1", "t", "b", &setup.t_rows),
        ("S2", "u", "c", &setup.u_rows),
    ] {
        let columns = [&["a", payload], keys].concat();
        let mut t = Table::new(TableSchema::strings(table, &columns, &[]));
        for row in rows {
            t.insert(row.clone()).unwrap();
        }
        let mut db = Database::new(source);
        db.add_table(t).unwrap();
        catalog.add_source(db).unwrap();
    }
    catalog
}

#[test]
fn executor_agrees_with_reference() {
    let mut rng = StdRng::seed_from_u64(0x5EED_5001);
    let mut wide_rng = StdRng::seed_from_u64(0x5EED_5002);
    let mut wide_key_rows = 0;
    for case in 0..384 {
        let setup = if case < 256 {
            random_setup(&mut rng)
        } else {
            wide_key_setup(&mut wide_rng)
        };
        let catalog = build_catalog(&setup);
        let query = Query {
            distinct: setup.distinct,
            select: vec![
                SelectItem {
                    expr: col("x", "a"),
                    alias: Some("xa".into()),
                },
                SelectItem {
                    expr: col("x", "b"),
                    alias: Some("xb".into()),
                },
                SelectItem {
                    expr: col("y", "c"),
                    alias: Some("yc".into()),
                },
            ],
            from: vec![
                FromItem::Table {
                    source: "S1".into(),
                    table: "t".into(),
                    alias: "x".into(),
                },
                FromItem::Table {
                    source: "S2".into(),
                    table: "u".into(),
                    alias: "y".into(),
                },
            ],
            preds: setup.preds.clone(),
        };
        let mut params = Params::new();
        params.insert("p".into(), ParamValue::scalar("v2"));
        params.insert(
            "ids".into(),
            ParamValue::Rel(Relation::single_column(
                "id",
                [Value::str("v0"), Value::str("v3")],
            )),
        );

        let fast = execute(&query, &catalog, &params).unwrap();
        let slow = reference_execute(&query, &catalog, &params);
        assert!(
            fast.bag_eq(&slow),
            "case {case}: executor {:?} != reference {:?} for preds {:?}",
            fast,
            slow,
            setup.preds
        );
        // Again on the same catalog: a join over a whole stored table now
        // probes the index the table kept from the first run, and the
        // relation is the same — rows, order and names.
        let again = execute(&query, &catalog, &params).unwrap();
        assert_eq!(
            again, fast,
            "case {case}: second run, preds {:?}",
            setup.preds
        );
        if setup.key_width > 0 {
            wide_key_rows += fast.len();
        }
    }
    assert!(
        wide_key_rows > 100,
        "wide-key cases joined only {wide_key_rows} rows; fixture too weak"
    );
}
