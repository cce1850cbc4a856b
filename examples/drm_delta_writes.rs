//! Digital-rights-management scenario (paper §6.2, Figure 14): a Play-heavy
//! workload hammers popular music keys; BlockOptR recommends delta writes
//! and smart-contract partitioning, both implemented as contract variants.
//!
//! ```text
//! cargo run --release --example drm_delta_writes
//! ```

use blockoptr_suite::prelude::*;
use workload::drm;

fn main() {
    let spec = drm::DrmSpec::default();
    let bundle = drm::generate(&spec);
    let cfg = NetworkConfig::default;

    let output = bundle.run(cfg());
    let analysis = Analyzer::new()
        .analyze_ledger(&output.ledger)
        .expect("the run committed transactions");
    println!("── DRM baseline: {}", output.report.figure_row());
    for rec in &analysis.recommendations {
        println!("  [{}] {}: {}", rec.level(), rec.name(), rec.rationale());
    }

    // Delta writes: plays become blind writes to unique delta keys; revenue
    // aggregation pays the read cost instead.
    let delta = drm::delta_writes(bundle.clone());
    let after_delta = delta.run(cfg());
    println!("── delta writes:    {}", after_delta.report.figure_row());

    // Smart contract partitioning: play counting and metadata split into
    // separate chaincodes with disjoint world states.
    let partitioned = drm::partitioned(bundle.clone(), &spec);
    let after_part = partitioned.run(cfg());
    println!("── partitioned:     {}", after_part.report.figure_row());

    // Everything combined (partitioned chaincodes + delta plays +
    // reordering of the reporting reads).
    let (reordered, _, _) = OptimizationPlan::from_analysis(&analysis)
        .select(&["Activity reordering", "Transaction rate control"])
        .transform(&bundle, &cfg());
    let all = drm::partitioned_delta(reordered, &spec);
    let after_all = all.run(cfg());
    println!("── all combined:    {}", after_all.report.figure_row());

    println!(
        "\nsuccess rate: {:.1} % → {:.1} % (delta) / {:.1} % (partition) / {:.1} % (all)",
        output.report.success_rate_pct,
        after_delta.report.success_rate_pct,
        after_part.report.success_rate_pct,
        after_all.report.success_rate_pct,
    );
}
