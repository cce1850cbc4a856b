//! Quickstart: simulate a Fabric network under a synthetic workload, let
//! BlockOptR analyze the chain, and print its multi-level recommendations.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use blockoptr_suite::prelude::*;
use workload::spec::ControlVariables;

fn main() {
    // 1. Describe the workload with the paper's Table-2 control variables
    //    (defaults: uniform genChain mix, 2 orgs, block count 100, 300 tps).
    let cv = ControlVariables::default();
    let bundle = workload::synthetic::generate(&cv);

    // 2. Run it through the simulated execute-order-validate pipeline.
    let output = bundle.run(cv.network_config());
    println!("── baseline run ──");
    println!("{}", output.report);

    // 3. BlockOptR: preprocess the chain, derive metrics, mine the process
    //    model, and evaluate the nine recommendation rules.
    let analysis = Analyzer::new()
        .analyze_ledger(&output.ledger)
        .expect("the run committed transactions");
    println!("{}", blockoptr::report::render(&analysis));

    // 4. Lower the recommendations to typed actions, apply them (workload
    //    + configuration; the synthetic contract ships no prepared
    //    variants, so contract-level actions stay manual), and re-run.
    let plan = OptimizationPlan::from_analysis(&analysis);
    print!("{}", blockoptr::report::render_plan(&plan, Some(&bundle)));
    let (optimized, config, _manual) = plan.transform(&bundle, &cv.network_config());
    let after = optimized.run(config);
    println!("── optimized run ──");
    println!("{}", after.report);
    println!(
        "success rate {:.1} % → {:.1} %, avg latency {:.2} s → {:.2} s",
        output.report.success_rate_pct,
        after.report.success_rate_pct,
        output.report.avg_latency_s,
        after.report.avg_latency_s,
    );
}
