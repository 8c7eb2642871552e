//! Constraint enforcement in action: the same integration run against
//! consistent and inconsistent data. With inconsistent billing, the compiled
//! inclusion constraint `patient(treatment.trId ⊆ item.trId)` aborts
//! evaluation — the paper's guard semantics (§3.3) — instead of silently
//! producing an invalid report.
//!
//! ```sh
//! cargo run --example constraint_violation
//! ```

use aig_integration::core::paper::{empty_hospital_catalog, mini_hospital_catalog, sigma0};
use aig_integration::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let aig = sigma0()?;
    let compiled = compile_constraints(&aig)?;

    // Consistent data: every treatment in the hierarchy has a billing row.
    let good = mini_hospital_catalog()?;
    let result = evaluate(&compiled, &good, &[("date", Value::str("d1"))])?;
    println!(
        "consistent data: report generated ({} nodes, {} guard checks passed)",
        result.stats.nodes, result.stats.guard_checks
    );

    // Inconsistent data: drop the billing row for t5 (a deep treatment in
    // the procedure hierarchy). The report would list treatment t5 with no
    // bill item — the inclusion constraint is violated.
    let broken = drop_billing_row(&good, "t5")?;
    match evaluate(&compiled, &broken, &[("date", Value::str("d1"))]) {
        Err(AigError::ConstraintViolation {
            constraint,
            context,
            value,
        }) => {
            println!("\ninconsistent data: evaluation aborted, as specified");
            println!("  constraint: {constraint}");
            println!("  context:    {context}");
            println!("  value:      {value}");
        }
        other => panic!("expected a constraint violation, got {other:?}"),
    }

    // Without guards the document is produced; the whole-tree oracle then
    // finds the same violation after the fact.
    let unchecked = evaluate_with(
        &compiled,
        &broken,
        &[("date", Value::str("d1"))],
        &EvalOptions {
            check_guards: false,
            ..EvalOptions::default()
        },
    )?;
    let violations = aig.constraints.check(&unchecked.tree);
    println!("\nwith guards disabled, the post-hoc oracle reports:");
    for v in violations {
        println!("  {v}");
    }

    // Constraint *repairing* (the extension the paper points to in §3.3):
    // delete the minimal set of star-children so the constraints hold.
    let repaired = aig_integration::xml::repair(&unchecked.tree, &aig.constraints, &aig.dtd);
    println!("\nrepair by minimal deletion:");
    for action in &repaired.actions {
        println!("  {action}");
    }
    assert!(aig.constraints.satisfied(&repaired.tree));
    validate(&repaired.tree, &aig.dtd)?;
    println!("repaired document conforms to the DTD and satisfies the constraints ✓");
    Ok(())
}

/// Copies the catalog, removing one billing row.
fn drop_billing_row(full: &Catalog, trid: &str) -> Result<Catalog, Box<dyn std::error::Error>> {
    let mut catalog = empty_hospital_catalog();
    for db in ["DB1", "DB2", "DB3", "DB4"] {
        let src = full.source_id(db)?;
        let dst = catalog.source_id(db)?;
        for table_name in full.source(src).table_names() {
            let rows: Vec<_> = full
                .source(src)
                .table(table_name)?
                .rows()
                .into_iter()
                .filter(|row| !(db == "DB3" && row[0] == Value::str(trid)))
                .collect();
            let table = catalog.source_mut(dst).table_mut(table_name)?;
            for row in rows {
                table.insert(row)?;
            }
        }
    }
    Ok(catalog)
}
