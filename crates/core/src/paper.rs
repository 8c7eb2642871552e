//! The paper's running example: the hospital/insurance integration of
//! Example 1.1 and the AIG σ0 of Fig. 2, as a reusable fixture.
//!
//! Four relational sources:
//!
//! * `DB1` — `patient(SSN, pname, policy)`, `visitInfo(SSN, trId, date)`
//! * `DB2` — `cover(policy, trId)`
//! * `DB3` — `billing(trId, price)`
//! * `DB4` — `treatment(trId, tname)`, `procedure(trId1, trId2)`
//!
//! The AIG maps them to the recursive report DTD under the two constraints
//!
//! ```text
//! patient(item.trId -> item)            // each treatment billed once
//! patient(treatment.trId <= item.trId)  // every treatment is billed
//! ```

use crate::error::AigError;
use crate::parser::parse_aig;
use crate::spec::Aig;
use aig_relstore::{Catalog, Database, StoreError, Table, TableSchema, Value};

/// The σ0 specification (Fig. 2) in the AIG DSL.
pub const SIGMA0_DSL: &str = r#"
aig sigma0 {
  dtd {
    <!ELEMENT report (patient*)>
    <!ELEMENT patient (SSN, pname, treatments, bill)>
    <!ELEMENT treatments (treatment*)>
    <!ELEMENT treatment (trId, tname, procedure)>
    <!ELEMENT procedure (treatment*)>
    <!ELEMENT bill (item*)>
    <!ELEMENT item (trId, price)>
    <!ELEMENT SSN (#PCDATA)>
    <!ELEMENT pname (#PCDATA)>
    <!ELEMENT trId (#PCDATA)>
    <!ELEMENT tname (#PCDATA)>
    <!ELEMENT price (#PCDATA)>
  }

  elem report {
    inh(date);
    // Q1: patients treated on the day.
    child patient* from sql {
      select distinct p.SSN as SSN, p.pname as pname, p.policy as policy
      from DB1:patient p, DB1:visitInfo i
      where p.SSN = i.SSN and i.date = $date
    } with { date = $date; };
  }

  elem patient {
    inh(date, SSN, pname, policy);
    child SSN { val = $SSN; }
    child pname { val = $pname; }
    child treatments { date = $date; SSN = $SSN; policy = $policy; }
    // Context-dependent: the bill subtree is driven by the trIds collected
    // while building the treatments subtree.
    child bill { trIdS = syn(treatments).trIdS; }
  }

  elem treatments {
    inh(date, SSN, policy);
    syn(trIdS: set(trId));
    // Q2: the day's treatments of this patient covered by the policy —
    // a multi-source query over DB1, DB2 and DB4.
    child treatment* from sql {
      select distinct t.trId as trId, t.tname as tname
      from DB1:visitInfo i, DB2:cover c, DB4:treatment t
      where i.SSN = $SSN and i.date = $date and t.trId = i.trId
        and c.trId = i.trId and c.policy = $policy
    };
    syn trIdS = collect(treatment.trIdS);
  }

  elem treatment {
    inh(trId, tname);
    syn(trIdS: set(trId));
    child trId { val = $trId; }
    child tname { val = $tname; }
    child procedure { trId = $trId; }
    syn trIdS = union(syn(procedure).trIdS, { syn(trId).val });
  }

  elem procedure {
    inh(trId);
    syn(trIdS: set(trId));
    // Q3: expand the treatment-procedure hierarchy (data-driven recursion).
    child treatment* from sql {
      select p.trId2 as trId, t.tname as tname
      from DB4:procedure p, DB4:treatment t
      where p.trId1 = $trId and t.trId = p.trId2
    };
    syn trIdS = collect(treatment.trIdS);
  }

  elem bill {
    inh(trIdS: set(trId));
    // Q4: price every treatment collected in the treatments subtree.
    child item* from sql {
      select b.trId as trId, b.price as price
      from DB3:billing b
      where b.trId in $trIdS
    };
  }

  elem item {
    inh(trId, price);
    child trId { val = $trId; }
    child price { val = $price; }
  }

  constraint patient(item.trId -> item);
  constraint patient(treatment.trId <= item.trId);
}
"#;

/// Parses σ0.
pub fn sigma0() -> Result<Aig, AigError> {
    parse_aig(SIGMA0_DSL)
}

/// The schemas of the four hospital databases (keys as underlined in
/// Example 1.1).
pub fn hospital_schemas() -> Vec<(&'static str, TableSchema)> {
    vec![
        (
            "DB1",
            TableSchema::strings("patient", &["SSN", "pname", "policy"], &["SSN"]),
        ),
        (
            "DB1",
            TableSchema::strings(
                "visitInfo",
                &["SSN", "trId", "date"],
                &["SSN", "trId", "date"],
            ),
        ),
        (
            "DB2",
            TableSchema::strings("cover", &["policy", "trId"], &["policy", "trId"]),
        ),
        (
            "DB3",
            TableSchema::strings("billing", &["trId", "price"], &["trId"]),
        ),
        (
            "DB4",
            TableSchema::strings("treatment", &["trId", "tname"], &["trId"]),
        ),
        (
            "DB4",
            TableSchema::strings("procedure", &["trId1", "trId2"], &["trId1", "trId2"]),
        ),
    ]
}

/// An empty catalog with the four hospital databases and their schemas.
pub fn empty_hospital_catalog() -> Catalog {
    let mut catalog = Catalog::new();
    let mut dbs: Vec<Database> = ["DB1", "DB2", "DB3", "DB4"]
        .iter()
        .map(|&name| Database::new(name))
        .collect();
    for (db_name, schema) in hospital_schemas() {
        let pos = ["DB1", "DB2", "DB3", "DB4"]
            .iter()
            .position(|&n| n == db_name)
            .expect("known database");
        dbs[pos]
            .add_table(Table::new(schema))
            .expect("fresh database");
    }
    for db in dbs {
        catalog.add_source(db).expect("fresh catalog");
    }
    catalog
}

/// A small deterministic instance of the hospital databases, convenient for
/// unit tests and the quickstart example.
///
/// On date `d1`: Alice (policy p1) had treatment `t1`, whose procedure
/// expands to `t4` and then `t5`; Bob (policy p2) had treatment `t2` with no
/// sub-procedures. Every treatment is billed exactly once, so both
/// constraints hold.
pub fn mini_hospital_catalog() -> Result<Catalog, StoreError> {
    let mut catalog = empty_hospital_catalog();
    let s = Value::str;
    let insert = |catalog: &mut Catalog, db: &str, table: &str, rows: Vec<Vec<Value>>| {
        let id = catalog.source_id(db)?;
        let t = catalog.source_mut(id).table_mut(table)?;
        for row in rows {
            t.insert(row)?;
        }
        Ok::<(), StoreError>(())
    };
    insert(
        &mut catalog,
        "DB1",
        "patient",
        vec![
            vec![s("s1"), s("Alice"), s("p1")],
            vec![s("s2"), s("Bob"), s("p2")],
            vec![s("s3"), s("Carol"), s("p1")],
        ],
    )?;
    insert(
        &mut catalog,
        "DB1",
        "visitInfo",
        vec![
            vec![s("s1"), s("t1"), s("d1")],
            vec![s("s2"), s("t2"), s("d1")],
            vec![s("s3"), s("t3"), s("d2")],
        ],
    )?;
    insert(
        &mut catalog,
        "DB2",
        "cover",
        vec![
            vec![s("p1"), s("t1")],
            vec![s("p1"), s("t3")],
            vec![s("p2"), s("t2")],
        ],
    )?;
    insert(
        &mut catalog,
        "DB3",
        "billing",
        vec![
            vec![s("t1"), s("100")],
            vec![s("t2"), s("250")],
            vec![s("t3"), s("80")],
            vec![s("t4"), s("40")],
            vec![s("t5"), s("15")],
        ],
    )?;
    insert(
        &mut catalog,
        "DB4",
        "treatment",
        vec![
            vec![s("t1"), s("surgery")],
            vec![s("t2"), s("xray")],
            vec![s("t3"), s("checkup")],
            vec![s("t4"), s("anesthesia")],
            vec![s("t5"), s("bloodwork")],
        ],
    )?;
    insert(
        &mut catalog,
        "DB4",
        "procedure",
        vec![vec![s("t1"), s("t4")], vec![s("t4"), s("t5")]],
    )?;
    Ok(catalog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use aig_xml::serialize::to_pretty_string;
    use aig_xml::validate;

    #[test]
    fn sigma0_parses() {
        let aig = sigma0().unwrap();
        assert_eq!(aig.name, "sigma0");
        assert_eq!(aig.len(), 12);
        assert_eq!(aig.constraints.len(), 2);
        assert!(aig.dtd.is_recursive());
    }

    #[test]
    fn sigma0_evaluates_the_running_example() {
        let aig = sigma0().unwrap();
        let catalog = mini_hospital_catalog().unwrap();
        let result = evaluate(&aig, &catalog, &[("date", Value::str("d1"))]).unwrap();
        let tree = &result.tree;

        // Conforms to the DTD.
        validate(tree, &aig.dtd).unwrap();

        // Two patients that day.
        let patients: Vec<_> = tree.element_children(tree.root()).collect();
        assert_eq!(patients.len(), 2);

        // Alice's recursion: t1 -> t4 -> t5.
        let alice = patients
            .iter()
            .copied()
            .find(|&p| tree.subelement_value(p, "pname").as_deref() == Some("Alice"))
            .unwrap();
        let pretty = to_pretty_string(tree);
        assert!(pretty.contains("<tname>surgery</tname>"));
        assert!(pretty.contains("<tname>anesthesia</tname>"));
        assert!(pretty.contains("<tname>bloodwork</tname>"));

        // Alice's bill covers exactly {t1, t4, t5}.
        let bill = tree.child_by_tag(alice, "bill").unwrap();
        let mut billed: Vec<String> = tree
            .element_children(bill)
            .map(|item| tree.subelement_value(item, "trId").unwrap())
            .collect();
        billed.sort();
        assert_eq!(billed, vec!["t1", "t4", "t5"]);

        // Both XML constraints hold (checked with the oracle).
        assert!(aig.constraints.satisfied(tree));
    }

    #[test]
    fn sigma0_on_another_date_is_data_driven() {
        let aig = sigma0().unwrap();
        let catalog = mini_hospital_catalog().unwrap();
        let result = evaluate(&aig, &catalog, &[("date", Value::str("d2"))]).unwrap();
        let tree = &result.tree;
        validate(tree, &aig.dtd).unwrap();
        let patients: Vec<_> = tree.element_children(tree.root()).collect();
        assert_eq!(patients.len(), 1);
        assert_eq!(
            tree.subelement_value(patients[0], "pname").as_deref(),
            Some("Carol")
        );
        // Carol's t3 has no sub-procedures.
        assert!(aig.constraints.satisfied(tree));
    }

    #[test]
    fn sigma0_empty_date_gives_empty_report() {
        let aig = sigma0().unwrap();
        let catalog = mini_hospital_catalog().unwrap();
        let result = evaluate(&aig, &catalog, &[("date", Value::str("d9"))]).unwrap();
        assert_eq!(aig_xml::serialize::to_string(&result.tree), "<report/>");
    }

    #[test]
    fn oracle_detects_unbilled_treatment() {
        // Remove t5 from billing: the inclusion constraint fails for Alice.
        let aig = sigma0().unwrap();
        let mut catalog = empty_hospital_catalog();
        let full = mini_hospital_catalog().unwrap();
        for db in ["DB1", "DB2", "DB3", "DB4"] {
            let src = full.source_id(db).unwrap();
            let dst = catalog.source_id(db).unwrap();
            for table_name in full.source(src).table_names() {
                let rows: Vec<_> = full
                    .source(src)
                    .table(table_name)
                    .unwrap()
                    .rows()
                    .into_iter()
                    .filter(|row| !(db == "DB3" && row[0] == Value::str("t5")))
                    .collect();
                let t = catalog.source_mut(dst).table_mut(table_name).unwrap();
                for row in rows {
                    t.insert(row).unwrap();
                }
            }
        }
        let result = evaluate(&aig, &catalog, &[("date", Value::str("d1"))]).unwrap();
        let violations = aig.constraints.check(&result.tree);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].value, "t5");
    }
}
