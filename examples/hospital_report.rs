//! The paper's running example end to end: the AIG σ0 of Fig. 2 integrating
//! the four hospital databases (Example 1.1) into a daily insurance report,
//! evaluated through the optimizing mediator (§5).
//!
//! ```sh
//! cargo run --release --example hospital_report
//! ```

use aig_integration::core::paper::sigma0;
use aig_integration::datagen::HospitalConfig;
use aig_integration::prelude::*;
use aig_integration::xml::serialize::to_pretty_string;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // σ0: recursive DTD, a multi-source query (DB1 ⋈ DB2 ⋈ DB4), context-
    // dependent construction (the bill is driven by the treatments subtree),
    // and the two constraints of Example 1.1.
    let aig = sigma0()?;
    println!("{aig}");

    // A seeded dataset (tiny here; `HospitalConfig::sized` gives the
    // paper's Table 1 cardinalities).
    let data = HospitalConfig::tiny(2003).generate()?;
    let date = data.dates[0].clone();

    // The mediator pipeline: constraint compilation, query decomposition,
    // recursion unfolding, set-oriented execution, scheduling + merging,
    // tagging.
    let options = MediatorOptions::default();
    let (run, report) = run_mediator_with_report(
        &aig,
        &data.catalog,
        &[("date", Value::str(&date))],
        &options,
    )?;

    println!("report for {date}:");
    let text = to_pretty_string(&run.tree);
    for line in text.lines().take(40) {
        println!("  {line}");
    }
    if text.lines().count() > 40 {
        println!("  … ({} lines total)", text.lines().count());
    }

    println!("\nmediator statistics:");
    println!("  recursion unfolded to depth {}", run.depth);
    println!(
        "  {} tasks, {} source queries",
        run.tasks, run.source_queries
    );
    let per_source: Vec<(&str, usize)> = report
        .sources
        .iter()
        .map(|s| (s.name.as_str(), s.tasks))
        .collect();
    println!("  tasks per source: {per_source:?}");
    println!(
        "  simulated response: {:.2}s unmerged, {:.2}s merged ({} merges, {:.2}x)",
        run.response_unmerged_secs,
        run.response_merged_secs,
        run.merges,
        run.merging_speedup()
    );

    // Cross-check against the conceptual evaluator (§3.2) and the
    // constraint oracle.
    let reference = evaluate(&aig, &data.catalog, &[("date", Value::str(&date))])?;
    assert_eq!(canonical(&aig, &run.tree), canonical(&aig, &reference.tree));
    assert!(aig.constraints.satisfied(&run.tree));
    println!("\nverified: mediator output ≡ conceptual evaluation, constraints hold");
    Ok(())
}
