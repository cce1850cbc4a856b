//! Supply-chain scenario (paper §3, §6.2): mine the process model from the
//! blockchain log, spot the illogical branches, prune + reorder, and verify
//! compliance of the redesigned process.
//!
//! ```text
//! cargo run --release --example scm_pipeline
//! ```

use blockoptr_suite::prelude::*;
use process_mining::conformance::footprint_conformance;
use process_mining::dfg::DirectlyFollowsGraph;
use process_mining::eventlog::log_from;
use workload::scm;

fn main() {
    let spec = scm::ScmSpec::default();
    let bundle = scm::generate(&spec);
    let cfg = NetworkConfig::default;

    // Baseline.
    let output = bundle.run(cfg());
    let analysis = Analyzer::new()
        .analyze_ledger(&output.ledger)
        .expect("the run committed transactions");
    println!("── SCM baseline: {}", output.report.figure_row());
    println!(
        "recommended: {}",
        analysis.recommendation_names().join(", ")
    );

    // The mined model exposes the anomalous branches of Figure 2.
    let dfg = DirectlyFollowsGraph::from_log(&analysis.event_log);
    println!(
        "anomalies: ship≻pushASN {}×, traces starting with ship {}",
        dfg.count("ship", "pushASN"),
        dfg.starts().get("ship").copied().unwrap_or(0)
    );

    // Process model pruning: the contract aborts anomalous flows early.
    let pruned = scm::pruned(bundle.clone());
    let after_prune = pruned.run(cfg());
    println!("── pruned contract: {}", after_prune.report.figure_row());
    println!(
        "early-aborted anomalous transactions: {}",
        after_prune.report.early_aborted
    );

    // The schedule rewrites: defer the reporting activities (activity
    // reordering) and throttle the send rate (rate control).
    let plan = OptimizationPlan::from_analysis(&analysis)
        .select(&["Activity reordering", "Transaction rate control"]);
    let applied: Vec<String> = plan.actions.iter().map(|a| a.action.describe()).collect();
    println!("applied: {}", applied.join("; "));
    let (reordered, config, _) = plan.transform(&bundle, &cfg());
    let after_reorder = reordered.run(config);
    println!(
        "── reordered schedule: {}",
        after_reorder.report.figure_row()
    );

    // Compliance check (Figure 4): the redesigned behaviour against the
    // intended flow.
    let re_analysis = Analyzer::new()
        .analyze_ledger(&after_reorder.ledger)
        .expect("the run committed transactions");
    let designed = log_from(&[
        &["pushASN", "ship", "queryASN", "unload"],
        &["pushASN", "ship", "queryASN", "unload", "queryProducts"],
        &["pushASN", "ship", "queryASN", "unload", "updateAuditInfo"],
    ]);
    println!(
        "footprint agreement with the designed model: {:.2}",
        footprint_conformance(&designed, &re_analysis.event_log)
    );
}
