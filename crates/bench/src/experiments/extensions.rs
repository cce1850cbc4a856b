//! Figures 18–19: BlockOptR on top of the FabricSharp and Fabric++
//! baselines (§6.4) — the paper's demonstration that higher-level
//! recommendations still pay off on system-optimized Fabrics.

use super::{run_and_analyze, ExpCtx};
use crate::table::FigureTable;
use blockoptr::plan::OptimizationPlan;
use blockoptr::recommend::Level;
use fabric_sim::config::SchedulerKind;
use workload::optimize;
use workload::spec::{ControlVariables, PolicyChoice, WorkloadType};
use workload::synthetic;

/// Figure 18: FabricSharp under P1, P2+skew, and insert-heavy workloads.
pub fn fig18(ctx: &ExpCtx) -> String {
    let mut t = FigureTable::new("Figure 18: synthetic workloads with FabricSharp");
    let n = ctx.txs(10_000);

    // Endorsement-policy experiments: restructuring on top of FabricSharp.
    for cv in [
        ControlVariables {
            policy: PolicyChoice::P1,
            transactions: n,
            ..Default::default()
        },
        ControlVariables {
            policy: PolicyChoice::P2,
            endorser_skew: 6.0,
            transactions: n,
            ..Default::default()
        },
    ] {
        let bundle = synthetic::generate(&cv);
        let cfg = cv
            .network_config()
            .with_scheduler(SchedulerKind::FabricSharp);
        let (wo, analysis) = run_and_analyze(&bundle, cfg.clone());
        t.add(&format!("fabricsharp / {}", cv.label()), "W/O", &wo);
        let (restructured, restructured_cfg, _) = OptimizationPlan::from_analysis(&analysis)
            .select(&["Endorser restructuring"])
            .transform(&bundle, &cfg);
        let (w, _) = run_and_analyze(&restructured, restructured_cfg);
        t.add(
            &format!("fabricsharp / {}", cv.label()),
            "endorser restructuring",
            &w,
        );
    }

    // Insert-heavy (FabricSharp's documented weak spot): rate control.
    let cv = ControlVariables {
        workload: WorkloadType::InsertHeavy,
        transactions: n,
        ..Default::default()
    };
    let bundle = synthetic::generate(&cv);
    let cfg = cv
        .network_config()
        .with_scheduler(SchedulerKind::FabricSharp);
    let (wo, _) = run_and_analyze(&bundle, cfg.clone());
    t.add("fabricsharp / Workload: Insert-heavy", "W/O", &wo);
    let throttled = bundle
        .clone()
        .with_requests(optimize::rate_control(&bundle.requests, 100.0));
    let (w, _) = run_and_analyze(&throttled, cfg);
    t.add("fabricsharp / Workload: Insert-heavy", "rate control", &w);
    t.render()
}

/// Figure 19: Fabric++ under its weak workloads (update-, read- and
/// range-read-heavy), with rate control, reordering, and both.
pub fn fig19(ctx: &ExpCtx) -> String {
    let mut t = FigureTable::new("Figure 19: synthetic workloads with Fabric++");
    let n = ctx.txs(10_000);
    for workload_type in [
        WorkloadType::UpdateHeavy,
        WorkloadType::ReadHeavy,
        WorkloadType::RangeReadHeavy,
    ] {
        let cv = ControlVariables {
            workload: workload_type,
            transactions: n,
            ..Default::default()
        };
        let bundle = synthetic::generate(&cv);
        let cfg = cv
            .network_config()
            .with_scheduler(SchedulerKind::FabricPlusPlus);
        let label = format!("fabric++ / {}", cv.label());
        let (wo, analysis) = run_and_analyze(&bundle, cfg.clone());
        t.add(&label, "W/O", &wo);

        let throttled = bundle
            .clone()
            .with_requests(optimize::rate_control(&bundle.requests, 100.0));
        let (w, _) = run_and_analyze(&throttled, cfg.clone());
        t.add(&label, "rate control", &w);

        let reordering =
            OptimizationPlan::from_analysis(&analysis).select(&["Activity reordering"]);
        if reordering.is_empty() {
            t.add(&label, "reordering (n/a)", &wo);
        } else {
            let (reordered, _, _) = reordering.transform(&bundle, &cfg);
            let (w, _) = run_and_analyze(&reordered, cfg.clone());
            t.add(&label, "activity reordering", &w);
        }

        // Every user-level rewrite, then Table 4's rate: the system-level
        // recommendations stay out of this row.
        let user_level: Vec<&str> = analysis
            .recommendations
            .iter()
            .filter(|r| r.level() == Level::User)
            .map(|r| r.name())
            .collect();
        let (rewritten, _, _) = OptimizationPlan::from_analysis(&analysis)
            .select(&user_level)
            .transform(&bundle, &cfg);
        let all = bundle
            .clone()
            .with_requests(optimize::rate_control(&rewritten.requests, 100.0));
        let (w, _) = run_and_analyze(&all, cfg);
        t.add(&label, "all optimizations", &w);
    }
    t.render()
}
