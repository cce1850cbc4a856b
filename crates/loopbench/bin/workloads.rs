//! The four workloads: how each builds its input from the seed (set-up)
//! and the library calls of the `blockoptr` command it measures.
//!
//! Each command makes the public calls its CLI subcommand makes, one call
//! per layer, so the traced run can put a span around each:
//!
//! * `optimize` — `OptimizationPlan::from_spec` spelled out as its calls
//!   (`ScenarioSpec::build`, `WorkloadBundle::run`,
//!   `BlockchainLog::from_ledger`, `Session::ingest_log`,
//!   `Session::snapshot`, the rule and resilience lowering), then
//!   `OptimizationPlan::execute_spec_from_with` reusing the baseline;
//! * `analyze` — `export::from_json`, then one batch ingest and snapshot;
//! * `watch` — `export::from_json`, then one ingest and snapshot per
//!   window of blocks.
//!
//! Every command returns a fingerprint of its outputs for the correctness
//! gate (see `gate.rs`).

use crate::gate::Fingerprint;
use crate::trace::Tracer;
use bench::wallclock::Stopwatch;
use blockoptr::plan::{ActionResult, MeasuredReport, OptimizationPlan, PlanConfig, PlanOutcome};
use blockoptr::resilience::{ResilienceCtx, ResilienceRuleSet};
use blockoptr::session::{Analyzer, WindowPolicy};
use blockoptr::{export, Analysis, BlockchainLog};
use std::path::Path;
use workload::ScenarioSpec;

/// Transactions requested from the generator (`--txs` overrides): the
/// paper's size.
pub const DEFAULT_TXS: usize = 10_000;
/// Plan seeds per configuration for `scm-optimize` (the Table-4 loop).
const SCM_PLAN_SEEDS: usize = 4;
/// Blocks per `watch` window and the retained-history policy of
/// `drm-watch`.
const WATCH_WINDOW_BLOCKS: u64 = 1;
const WATCH_POLICY: WindowPolicy = WindowPolicy::LastBlocks(20);

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ScmOptimize,
    LapHotkey,
    DrmAnalyze,
    DrmWatch,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ScmOptimize,
        Workload::LapHotkey,
        Workload::DrmAnalyze,
        Workload::DrmWatch,
    ];

    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload {name:?} (expected one of {})",
                    names.join(", ")
                )
            })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScmOptimize => "scm-optimize",
            Workload::LapHotkey => "lap-hotkey",
            Workload::DrmAnalyze => "drm-analyze",
            Workload::DrmWatch => "drm-watch",
        }
    }

    /// The builtin scenario the input is generated from.
    fn scenario(self) -> &'static str {
        match self {
            Workload::ScmOptimize => "scm",
            Workload::LapHotkey => "lap",
            Workload::DrmAnalyze | Workload::DrmWatch => "drm",
        }
    }

    /// Plan seeds per configuration (optimize workloads only).
    fn plan_seeds(self) -> usize {
        match self {
            Workload::ScmOptimize => SCM_PLAN_SEEDS,
            _ => 1,
        }
    }

    fn is_optimize(self) -> bool {
        matches!(self, Workload::ScmOptimize | Workload::LapHotkey)
    }

    /// The session window policy the command runs under, pinned so that
    /// an inherited `BLOCKOPTR_WINDOW` cannot change it.
    pub fn window_policy(self) -> WindowPolicy {
        match self {
            Workload::DrmWatch => WATCH_POLICY,
            _ => WindowPolicy::Unbounded,
        }
    }

    /// The command this workload measures, as a user would type it.
    pub fn command_line(self, txs: usize, threads: usize) -> String {
        match self {
            Workload::ScmOptimize | Workload::LapHotkey => format!(
                "blockoptr optimize --spec input.json --seeds {} --threads {threads} \
                 ({} scenario, {txs} tx requested)",
                self.plan_seeds(),
                self.scenario()
            ),
            Workload::DrmAnalyze => "blockoptr analyze input.json".to_string(),
            Workload::DrmWatch => format!(
                "blockoptr watch input.json --window {WATCH_WINDOW_BLOCKS} --policy {WATCH_POLICY}"
            ),
        }
    }
}

/// Generate the command's input from `seed` and write it to `input`: the
/// scenario spec for the optimize workloads, the exported log of a
/// simulated run for the DRM workloads. Returns the generated request
/// count.
pub fn setup(
    workload: Workload,
    seed: u64,
    txs: usize,
    input: &Path,
    t: &mut Tracer,
) -> Result<usize, String> {
    let spec = ScenarioSpec::builtin(workload.scenario())
        .map_err(|e| e.to_string())?
        .with_transactions(txs)
        .with_seed(seed);
    let (bundle, config) = t
        .span("workload.build", |t| {
            let built = spec.build();
            if let Ok((bundle, _)) = &built {
                t.count("requests", bundle.requests.len() as f64);
            }
            built
        })
        .map_err(|e| e.to_string())?;
    let requests = bundle.requests.len();
    let contents = if workload.is_optimize() {
        spec.to_json()
    } else {
        let output = t.span("fabric_sim.run", |t| run_sim(&bundle, config, t));
        let log = t.span("log.extract", |t| {
            let log = BlockchainLog::from_ledger(&output.ledger);
            t.count("records", log.len() as f64);
            log
        });
        t.span("export.write", |t| {
            let json = export::to_json(&log);
            t.count("bytes", json.len() as f64);
            json
        })
    };
    std::fs::write(input, contents).map_err(|e| format!("writing {}: {e}", input.display()))?;
    Ok(requests)
}

/// What one command produced.
pub struct Outcome {
    /// Input transactions the command processed.
    pub txs: usize,
    /// Host milliseconds from each window's ingest to its snapshot.
    pub windows_ms: Vec<f64>,
    pub fingerprint: Fingerprint,
}

/// Run the workload's command once on `input`.
pub fn command(
    workload: Workload,
    input: &Path,
    threads: usize,
    t: &mut Tracer,
) -> Result<Outcome, String> {
    let json =
        std::fs::read_to_string(input).map_err(|e| format!("reading {}: {e}", input.display()))?;
    let analyzer = Analyzer::new()
        .threads(threads)
        .window(workload.window_policy());
    match workload {
        Workload::ScmOptimize | Workload::LapHotkey => {
            let spec = ScenarioSpec::from_json(&json).map_err(|e| e.to_string())?;
            spec.validate().map_err(|e| e.to_string())?;
            let config = PlanConfig::new(workload.plan_seeds(), threads);
            optimize(&spec, &analyzer, &config, t)
        }
        Workload::DrmAnalyze => analyze(&json, &analyzer, t),
        Workload::DrmWatch => watch(&json, &analyzer, t),
    }
}

fn run_sim(
    bundle: &workload::WorkloadBundle,
    config: fabric_sim::config::NetworkConfig,
    t: &mut Tracer,
) -> fabric_sim::sim::SimOutput {
    let before = t.enabled().then(|| crate::proc_status_kb("VmRSS"));
    let output = bundle.run(config);
    if let Some(before) = before {
        let after = crate::proc_status_kb("VmRSS");
        t.count("requests", bundle.requests.len() as f64);
        t.count("events", output.report.events as f64);
        t.count("rss_delta_kb", after.saturating_sub(before) as f64);
    }
    output
}

/// Ingest a batch into the session and take its snapshot, timing the
/// window from the outside.
fn window(
    session: &mut blockoptr::Session,
    log: BlockchainLog,
    t: &mut Tracer,
) -> Result<(Analysis, f64), String> {
    let clock = Stopwatch::start();
    let records = log.len();
    t.span("session.ingest", |t| {
        t.count("records", records as f64);
        session.ingest_log(log)
    })
    .map_err(|e| e.to_string())?;
    let analysis = t.span("session.snapshot", |t| {
        let analysis = session.snapshot();
        if t.enabled() {
            t.count("evicted", session.evicted() as f64);
            t.count("footprint_bytes", session.footprint().approx_bytes() as f64);
        }
        analysis
    });
    let ms = clock.elapsed().as_secs_f64() * 1e3;
    Ok((analysis.map_err(|e| e.to_string())?, ms))
}

/// `blockoptr optimize`: the baseline run, its analysis lowered to a plan,
/// and the plan grid re-run against the spec.
fn optimize(
    spec: &ScenarioSpec,
    analyzer: &Analyzer,
    config: &PlanConfig,
    t: &mut Tracer,
) -> Result<Outcome, String> {
    // `OptimizationPlan::from_spec`, one call per layer.
    let (plan, report, analysis, window_ms, txs) = t.span("plan.from_spec", |t| {
        let (bundle, network) = t
            .span("workload.build", |_| spec.build())
            .map_err(|e| e.to_string())?;
        let output = t.span("fabric_sim.run", |t| run_sim(&bundle, network, t));
        let log = t.span("log.extract", |t| {
            let log = BlockchainLog::from_ledger(&output.ledger);
            t.count("records", log.len() as f64);
            log
        });
        let mut session = analyzer.session().map_err(|e| e.to_string())?;
        let (analysis, window_ms) = window(&mut session, log, t)?;
        let analysis = analysis.with_sorted_traces();
        let mut plan = OptimizationPlan::from_analysis(&analysis);
        plan.actions
            .extend(ResilienceRuleSet::paper().evaluate(&ResilienceCtx {
                report: &output.report,
                retry: &spec.retry,
                config: &spec.network,
            }));
        t.count("actions", plan.len() as f64);
        Ok::<_, String>((
            plan,
            output.report,
            analysis,
            window_ms,
            bundle.requests.len(),
        ))
    })?;
    let outcome = t
        .span("plan.grid", |t| {
            let outcome = plan.execute_spec_from_with(spec, report, config);
            if let Ok(outcome) = &outcome {
                t.count("jobs", grid_jobs(outcome) as f64);
                t.count("threads", config.threads as f64);
                if let Some(combined) = &outcome.combined {
                    let base = &outcome.baseline;
                    t.count(
                        "success_gain_pp",
                        combined.success_rate.mean - base.success_rate.mean,
                    );
                    t.count(
                        "latency_gain_pct",
                        (base.latency.mean - combined.latency.mean) / base.latency.mean * 100.0,
                    );
                }
            }
            outcome
        })
        .map_err(|e| e.to_string())?;
    check_outcome(&plan, &outcome, config)?;
    Ok(Outcome {
        txs,
        windows_ms: vec![window_ms],
        fingerprint: optimize_fingerprint(&analysis, &plan, &outcome),
    })
}

/// Simulations the grid ran: every measured seed row, less the reused
/// baseline.
fn grid_jobs(outcome: &PlanOutcome) -> usize {
    let rows = |m: &MeasuredReport| m.per_seed.len();
    rows(&outcome.baseline) - 1
        + outcome
            .actions
            .iter()
            .filter_map(|a| a.measured())
            .map(rows)
            .sum::<usize>()
        + outcome.combined.as_ref().map_or(0, rows)
}

/// Structural invariants of a plan outcome that hold for every seed.
fn check_outcome(
    plan: &OptimizationPlan,
    outcome: &PlanOutcome,
    config: &PlanConfig,
) -> Result<(), String> {
    if plan.is_empty() {
        return Err("the plan is empty".into());
    }
    if outcome.actions.len() != plan.len() {
        return Err(format!(
            "{} action outcomes for {} planned actions",
            outcome.actions.len(),
            plan.len()
        ));
    }
    let mut measured = vec![&outcome.baseline];
    for action in &outcome.actions {
        match (action.result, action.measured()) {
            (ActionResult::Applied, Some(m)) => measured.push(m),
            (ActionResult::ManualRequired, None) => {}
            _ => return Err(format!("action {:?} result/report mismatch", action.source)),
        }
    }
    // The combination is measured exactly when some action applied.
    if outcome.combined.is_some() != (measured.len() > 1) {
        return Err("combined measurement without applied actions, or the reverse".into());
    }
    measured.extend(&outcome.combined);
    for m in measured {
        if m.per_seed.len() != config.seeds {
            return Err(format!(
                "{} seed rows for {} seeds",
                m.per_seed.len(),
                config.seeds
            ));
        }
        for row in &m.per_seed {
            if row.successes > row.committed || row.committed > row.requests {
                return Err(format!(
                    "successes {} / committed {} / requests {} out of order",
                    row.successes, row.committed, row.requests
                ));
            }
        }
    }
    Ok(())
}

fn optimize_fingerprint(
    analysis: &Analysis,
    plan: &OptimizationPlan,
    outcome: &PlanOutcome,
) -> Fingerprint {
    let mut f = Fingerprint::default();
    f.push("recommendations", analysis.recommendation_names().join("|"));
    for planned in &plan.actions {
        let action = serde_json::to_string(&planned.action).unwrap_or_default();
        f.push("action", format!("{} => {action}", planned.source));
    }
    f.push("seeds", format!("{:?}", outcome.seeds));
    push_rows(&mut f, "baseline", &outcome.baseline);
    for action in &outcome.actions {
        match action.measured() {
            Some(m) => push_rows(&mut f, &action.source, m),
            None => f.push(&action.source, "manual"),
        }
    }
    if let Some(combined) = &outcome.combined {
        push_rows(&mut f, "combined", combined);
    }
    f
}

/// One line per seed: the simulated counts and the success-rate and
/// latency bits.
fn push_rows(f: &mut Fingerprint, label: &str, m: &MeasuredReport) {
    for r in &m.per_seed {
        f.push(
            label,
            format!(
                "req {} com {} ok {} mvcc {} rate {:016x} lat {:016x}",
                r.requests,
                r.committed,
                r.successes,
                r.mvcc_conflicts,
                r.success_rate_pct.to_bits(),
                r.avg_latency_s.to_bits()
            ),
        );
    }
}

/// `blockoptr analyze`: parse the exported log, one batch ingest and
/// snapshot.
fn analyze(json: &str, analyzer: &Analyzer, t: &mut Tracer) -> Result<Outcome, String> {
    let log = parse_log(json, t)?;
    let txs = log.len();
    let blocks = log.block_count();
    let mut session = analyzer.session().map_err(|e| e.to_string())?;
    let (analysis, window_ms) = window(&mut session, log, t)?;
    let analysis = analysis.with_sorted_traces();
    if analysis.log.len() != txs || analysis.recommendations.is_empty() {
        return Err(format!(
            "analysis holds {} of {txs} records and {} recommendations",
            analysis.log.len(),
            analysis.recommendations.len()
        ));
    }
    Ok(Outcome {
        txs,
        windows_ms: vec![window_ms],
        fingerprint: analyze_fingerprint(&analysis, blocks),
    })
}

/// The recommendations with their evidence (the measured values each rule
/// fired on).
fn analyze_fingerprint(analysis: &Analysis, blocks: usize) -> Fingerprint {
    let mut f = Fingerprint::default();
    f.push(
        "log",
        format!("{} tx in {blocks} blocks", analysis.log.len()),
    );
    for rec in &analysis.recommendations {
        let evidence = serde_json::to_string(rec).unwrap_or_default();
        f.push(rec.name(), evidence);
    }
    f
}

/// `blockoptr watch`: replay the exported log through one windowed
/// session, `WATCH_WINDOW_BLOCKS` blocks per ingest, a snapshot after each.
fn watch(json: &str, analyzer: &Analyzer, t: &mut Tracer) -> Result<Outcome, String> {
    let log = parse_log(json, t)?;
    let records = log.records();
    let mut session = analyzer.session().map_err(|e| e.to_string())?;
    let mut f = Fingerprint::default();
    let mut windows_ms = Vec::new();
    let mut start = 0;
    while start < records.len() {
        // The CLI's window cut: the longest run of records spanning at
        // most WATCH_WINDOW_BLOCKS distinct blocks.
        let mut end = start;
        let mut blocks = std::collections::BTreeSet::new();
        while end < records.len() {
            let b = records[end].block;
            if !blocks.contains(&b) && blocks.len() as u64 >= WATCH_WINDOW_BLOCKS {
                break;
            }
            blocks.insert(b);
            end += 1;
        }
        let window_log = BlockchainLog::from_records(records[start..end].to_vec(), blocks.len());
        let (analysis, ms) = window(&mut session, window_log, t)?;
        windows_ms.push(ms);
        f.push("window", analysis.recommendation_names().join("|"));
        start = end;
    }
    let retained = session.len();
    if session.evicted() + retained != records.len() {
        return Err(format!(
            "{} evicted + {retained} retained != {} ingested",
            session.evicted(),
            records.len()
        ));
    }
    f.push("evicted", session.evicted().to_string());
    Ok(Outcome {
        txs: records.len(),
        windows_ms,
        fingerprint: f,
    })
}

fn parse_log(json: &str, t: &mut Tracer) -> Result<BlockchainLog, String> {
    t.span("export.parse", |t| {
        t.count("bytes", json.len() as f64);
        export::from_json(json)
    })
    .map_err(|e| e.to_string())
}

/// Run the library's one-shot entry points the commands spell out
/// (`OptimizationPlan::from_spec` + `execute_spec_from_with`,
/// `Analyzer::analyze_log`) and return their fingerprint, to check that
/// the spelled-out commands compute the same thing. `watch` is already the
/// CLI's own sequence of calls and has no one-shot form.
pub fn reference(
    workload: Workload,
    input: &Path,
    threads: usize,
) -> Result<Option<Fingerprint>, String> {
    let json =
        std::fs::read_to_string(input).map_err(|e| format!("reading {}: {e}", input.display()))?;
    let analyzer = Analyzer::new()
        .threads(threads)
        .window(workload.window_policy());
    match workload {
        Workload::ScmOptimize | Workload::LapHotkey => {
            let spec = ScenarioSpec::from_json(&json).map_err(|e| e.to_string())?;
            let config = PlanConfig::new(workload.plan_seeds(), threads);
            let (plan, output) =
                OptimizationPlan::from_spec(&spec, &analyzer).map_err(|e| e.to_string())?;
            let analysis = analyzer
                .analyze_ledger(&output.ledger)
                .map_err(|e| e.to_string())?;
            let outcome = plan
                .execute_spec_from_with(&spec, output.report, &config)
                .map_err(|e| e.to_string())?;
            Ok(Some(optimize_fingerprint(&analysis, &plan, &outcome)))
        }
        Workload::DrmAnalyze => {
            let log = export::from_json(&json).map_err(|e| e.to_string())?;
            let blocks = log.block_count();
            let analysis = analyzer.analyze_log(log).map_err(|e| e.to_string())?;
            Ok(Some(analyze_fingerprint(&analysis, blocks)))
        }
        Workload::DrmWatch => Ok(None),
    }
}
