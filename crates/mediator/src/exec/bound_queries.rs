//! Every source query of a plan, run by the executor, against the same
//! query executed by `aig_sql::execute_named` with its relation parameters
//! bound by name in a `Params` map: σ0's plan at depths 3, 6, 12 and 24 —
//! whose queries join their base table, stored tables and the distinct
//! pairs of a set for an `IN` — and a choice spec's generator and condition
//! queries. The relations must be equal, row for row.

use super::*;
use crate::graph::{build_graph, GraphOptions};
use crate::unfold::{unfold, CutOff};
use aig_core::paper::sigma0;
use aig_core::{compile_constraints, decompose_queries, parse_aig};
use aig_datagen::HospitalConfig;
use aig_relstore::{Database, Table, TableSchema};
use aig_sql::{execute_named, ParamValue, Params};

/// `vq`'s relation parameters by name, as the store holds them: the base
/// table, a relation, or the distinct (`__owner`, first component) rows of
/// one, named `__owner`, `__member`.
fn params(store: &RelStore, vq: &VectorQuery) -> Params {
    let mut params = Params::new();
    for (name, input) in &vq.inputs {
        let rel = match input {
            ParamInput::Rel(input) => store.get(&input.key).unwrap().clone(),
            ParamInput::RelFirstDistinct(input) => {
                let rel = store.get(&input.key).unwrap();
                let first = rel.columns()[1].clone();
                let pair = rel.project(&["__owner", first.as_str()]).unwrap();
                pair.with_columns(vec!["__owner".to_string(), "__member".to_string()])
                    .distinct()
            }
        };
        params.insert(name.clone(), ParamValue::Rel(rel));
    }
    params
}

/// Runs `source` unfolded to `depth` over `catalog`, then every source query
/// of its plan both ways; returns how many queries and rows were compared.
fn compare(
    source: &Aig,
    catalog: &Catalog,
    depth: usize,
    args: &[(&str, Value)],
) -> (usize, usize) {
    let compiled = match source.constraints.is_empty() {
        true => source.clone(),
        false => compile_constraints(source).unwrap(),
    };
    let specialized = decompose_queries(&compiled).unwrap().0;
    let aig = unfold(&specialized, depth, CutOff::Truncate).unwrap().aig;
    let graph = build_graph(&aig, catalog, &GraphOptions::default()).unwrap();
    let opts = ExecOptions::default();
    let exec = execute_graph(&aig, catalog, &graph, args, &opts).unwrap();
    let executor = Executor {
        aig: &aig,
        catalog,
        graph: &graph,
        store: &exec.store,
        opts: &opts,
        args,
        epoch: Instant::now(),
    };
    let (mut queries, mut rows) = (0, 0);
    for task in &graph.tasks {
        let Some(vq) = task.query() else {
            continue;
        };
        let run = executor.run_vector_query(vq).unwrap();
        let named = execute_named(
            &vq.query,
            catalog,
            &params(&exec.store, vq),
            vq.columns.clone(),
        )
        .unwrap();
        assert_eq!(run, named, "depth {depth}: {}", task.label);
        queries += 1;
        rows += run.len();
    }
    (queries, rows)
}

/// A choice spec over one source: orders of `day` pay by card (kind 1) or
/// invoice (kind 2); run it with `day = mon` at depth 2.
pub(crate) fn orders() -> (Aig, Catalog) {
    let orders = parse_aig(
        r#"
        aig orders {
          dtd {
            <!ELEMENT orders (order*)>
            <!ELEMENT order (id, payment)>
            <!ELEMENT payment (card | invoice)>
            <!ELEMENT id (#PCDATA)>
            <!ELEMENT card (#PCDATA)>
            <!ELEMENT invoice (#PCDATA)>
          }
          elem orders {
            inh(day);
            child order* from sql {
              select o.id as id, o.id as oid from OMS:orders o where o.day = $day
            };
          }
          elem order {
            inh(id, oid);
            child id { val = $id; }
            child payment { oid = $oid; }
          }
          elem payment {
            inh(oid);
            case sql {
              select distinct p.kind as pick from OMS:payments p where p.oid = $oid
            } {
              1 => card { val = $oid; }
              2 => invoice { val = 'pending'; }
            }
          }
        }
        "#,
    )
    .unwrap();
    let mut db = Database::new("OMS");
    let mut table = Table::new(TableSchema::strings("orders", &["id", "day"], &[]));
    let mut payments = Table::new(TableSchema::strings("payments", &["oid", "kind"], &[]));
    for i in 0..6 {
        let id = format!("o{i}");
        table
            .insert(vec![Value::str(&id), Value::str("mon")])
            .unwrap();
        let kind = format!("{}", i % 2 + 1);
        payments
            .insert(vec![Value::str(&id), Value::str(kind)])
            .unwrap();
    }
    db.add_table(table).unwrap();
    db.add_table(payments).unwrap();
    let mut catalog = Catalog::new();
    catalog.add_source(db).unwrap();
    (orders, catalog)
}

#[test]
fn every_source_query_runs_as_execute_named_runs_it() {
    let data = HospitalConfig::tiny(3).generate().unwrap();
    let args = [("date", Value::str(&data.dates[0]))];
    let sigma0 = sigma0().unwrap();
    for depth in [3, 6, 12, 24] {
        let (queries, rows) = compare(&sigma0, &data.catalog, depth, &args);
        assert!(
            queries >= 7 && rows > 0,
            "depth {depth}: {queries} queries, {rows} rows"
        );
    }

    let (orders, catalog) = orders();
    let (queries, rows) = compare(&orders, &catalog, 2, &[("day", Value::str("mon"))]);
    assert!(queries >= 2 && rows >= 10, "{queries} queries, {rows} rows");
}
