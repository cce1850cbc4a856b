//! The closed optimization loop (paper §4.5 + Table 4 + §6's figures) as a
//! first-class API.
//!
//! The paper's workflow does not stop at recommending: each recommendation
//! is *implemented*, the workload is *re-run*, and the improvement is
//! *measured* (§4.5: "the user implements them … and verifies the effect").
//! [`OptimizationPlan`] packages that loop:
//!
//! 1. lower an [`Analysis`]'s recommendations to typed
//!    [`Action`]s ([`OptimizationPlan::from_analysis`]);
//! 2. [`execute_spec_with`](OptimizationPlan::execute_spec_with) against
//!    the [`ScenarioSpec`] that produced the log: run the baseline, re-run
//!    with each action applied alone, then with all actions combined;
//! 3. read the [`PlanOutcome`]: per-action before/after success-rate,
//!    latency, and throughput deltas — the Table 4 → Figures 13–17 loop.
//!
//! # Seeds, threads, and confidence intervals
//!
//! A plan execution is configured by a [`PlanConfig`]:
//!
//! * **`seeds`** — every measured configuration (baseline, each action,
//!   the combination) is simulated once per seed. Seed 0 is the spec
//!   itself, built verbatim; seed *i* re-seeds the spec with its seed
//!   XOR-ed with a golden-ratio multiple, so the list is deterministic and
//!   collision free. Each [`MeasuredReport`] keeps the primary seed's
//!   full report, one scalar [`SeedReport`] row per seed, the merged
//!   latency sketch, and mean / sample standard deviation / 95 %
//!   confidence half-width ([`MetricStats`]) for the three figure metrics. Deltas are computed
//!   **pairwise per seed** (action seed *i* minus baseline seed *i*) and
//!   then aggregated, which cancels the common per-seed workload noise —
//!   the same design as the seed-averaged directional tests.
//! * **`threads`** — the independent `(configuration, seed)` simulations
//!   fan out over a [`sim_core::pool::ThreadPool`]. Results are collected
//!   in job order, and every simulation is deterministic in its seed, so
//!   **the outcome is byte-identical for any thread count**; `threads`
//!   only changes wall-clock time. The default honours the
//!   `BLOCKOPTR_THREADS` environment variable.
//!
//! The CLI surfaces both knobs as `blockoptr optimize --seeds N
//! --threads N`.
//!
//! Contract-level actions ([`Action::SelectContractVariant`]) apply only
//! when the workload ships a prepared rewrite
//! ([`WorkloadBundle::supports_variant`]); otherwise the outcome records
//! them as [`ActionResult::ManualRequired`] — the paper's §7 caveat that
//! smart-contract changes "need to be manually implemented by the user".
//!
//! ```no_run
//! use blockoptr::plan::{OptimizationPlan, PlanConfig};
//! use blockoptr::session::Analyzer;
//! use workload::ScenarioSpec;
//!
//! let spec = ScenarioSpec::builtin("scm").unwrap();
//! let (plan, baseline) = OptimizationPlan::from_spec(&spec, &Analyzer::new()).unwrap();
//! // Five seeds per configuration, fanned out over four worker threads;
//! // seed 0 reuses the baseline run `from_spec` already measured.
//! let outcome = plan
//!     .execute_spec_from_with(&spec, baseline.report, &PlanConfig::new(5, 4))
//!     .unwrap();
//! for action in &outcome.actions {
//!     if let Some(stats) = action.success_rate_delta_stats(&outcome.baseline) {
//!         println!(
//!             "{}: Δ success rate {:+.1} ± {:.1} points",
//!             action.action.describe(),
//!             stats.mean,
//!             stats.ci95,
//!         );
//!     }
//! }
//! ```

use crate::action::Action;
use crate::pipeline::Analysis;
use crate::recommend::Recommendation;
use crate::session::{AnalyzeError, Analyzer};
use fabric_sim::config::NetworkConfig;
use fabric_sim::report::SimReport;
use fabric_sim::sim::SimOutput;
use serde::{Deserialize, Serialize};
use sim_core::pool::{self, ThreadPool};
use sim_core::sketch::QuantileSketch;
use std::collections::BTreeSet;
use workload::{ScenarioSpec, VariantKind, WorkloadBundle};

/// One action with the recommendation that motivated it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannedAction {
    /// Name of the source recommendation (paper vocabulary, e.g.
    /// `"Activity reordering"`).
    pub source: String,
    /// The concrete change.
    pub action: Action,
}

/// An ordered set of optimization actions lowered from an analysis.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct OptimizationPlan {
    /// The planned actions, in recommendation order.
    pub actions: Vec<PlannedAction>,
}

/// How a plan execution measures: seeds per configuration and worker
/// threads for the simulation fan-out. See the [module docs](self) for the
/// semantics of each knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanConfig {
    /// Simulation runs per measured configuration (clamped to ≥ 1). Seed 0
    /// is the network configuration's own seed.
    pub seeds: usize,
    /// Worker threads for the `(configuration, seed)` fan-out (clamped to
    /// ≥ 1). Thread count never changes results, only wall-clock time.
    pub threads: usize,
}

impl Default for PlanConfig {
    /// One seed, [`pool::default_threads`] workers (`BLOCKOPTR_THREADS`
    /// aware).
    fn default() -> Self {
        PlanConfig {
            seeds: 1,
            threads: pool::default_threads(),
        }
    }
}

impl PlanConfig {
    /// A configuration with explicit seed and thread counts.
    pub fn new(seeds: usize, threads: usize) -> PlanConfig {
        PlanConfig { seeds, threads }
    }

    /// The deterministic seed list derived from `base`: `base` itself,
    /// then `base ^ (i · φ64)` — distinct for every index.
    pub fn seed_list(&self, base: u64) -> Vec<u64> {
        (0..self.seeds.max(1))
            .map(|i| base ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect()
    }
}

/// Two-sided 95 % Student-t critical value for `df` degrees of freedom.
///
/// Plan executions typically run 3–10 seeds, where the normal
/// approximation's 1.96 badly understates the interval (df = 2 needs
/// 4.30). Exact values for df ≤ 30; beyond that each range uses the
/// critical value of its *smallest* df (the table row below it), so the
/// interval is never understated — conservative by < 1 % within a range,
/// converging on the normal limit.
pub fn t95(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        1..=30 => TABLE[df - 1],
        31..=40 => 2.042,
        41..=60 => 2.021,
        61..=120 => 2.000,
        _ => 1.980,
    }
}

/// Mean, sample standard deviation, and 95 % confidence half-width of one
/// metric over the executed seeds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MetricStats {
    /// Arithmetic mean over seeds.
    pub mean: f64,
    /// Sample standard deviation (zero for a single seed).
    pub stddev: f64,
    /// Student-t 95 % confidence half-width,
    /// `t₀.₉₇₅(n−1) · stddev / √n` (zero for a single seed). The t
    /// critical value ([`t95`]) matches the small seed counts plan
    /// executions actually run; the old normal-approximation 1.96
    /// understated the interval by more than 2× at `--seeds 3`.
    pub ci95: f64,
}

impl MetricStats {
    /// Statistics of a non-empty sample list.
    pub fn of(samples: &[f64]) -> MetricStats {
        let n = samples.len().max(1) as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let stddev = if samples.len() < 2 {
            0.0
        } else {
            let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1.0);
            var.sqrt()
        };
        let ci95 = if samples.len() < 2 {
            0.0
        } else {
            t95(samples.len() - 1) * stddev / n.sqrt()
        };
        MetricStats { mean, stddev, ci95 }
    }

    /// Lower edge of the 95 % confidence interval.
    pub fn lo(&self) -> f64 {
        self.mean - self.ci95
    }

    /// Upper edge of the 95 % confidence interval.
    pub fn hi(&self) -> f64 {
        self.mean + self.ci95
    }
}

/// One seed's scalar metric row — everything the seed-paired delta and
/// confidence-interval machinery reads, distilled from a full
/// [`SimReport`]. A 20-seed measurement used to retain 20 full reports
/// (ledger-sized `Vec`s of per-peer counters, fault windows, cut-reason
/// maps); now each non-primary seed contributes this fixed-size row plus
/// its latency sketch, so a [`MeasuredReport`]'s footprint is
/// O(seeds · scalars + sketch) instead of O(seeds · report).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeedReport {
    /// Client requests issued.
    pub requests: usize,
    /// Transactions committed to blocks (success or failure).
    pub committed: usize,
    /// Transactions committed successfully.
    pub successes: usize,
    /// MVCC read-conflict failures.
    pub mvcc_conflicts: usize,
    /// Successes / requests, in percent.
    pub success_rate_pct: f64,
    /// Mean end-to-end latency (s).
    pub avg_latency_s: f64,
    /// Median Submit→Commit event-time latency (s).
    pub latency_p50: f64,
    /// 95th-percentile Submit→Commit event-time latency (s).
    pub latency_p95: f64,
    /// 99th-percentile Submit→Commit event-time latency (s).
    pub latency_p99: f64,
    /// Success throughput (tx/s).
    pub success_throughput: f64,
}

impl SeedReport {
    /// Distill one run's scalar row from its full report.
    pub fn of(report: &SimReport) -> SeedReport {
        SeedReport {
            requests: report.requests,
            committed: report.committed,
            successes: report.successes,
            mvcc_conflicts: report.mvcc_conflicts,
            success_rate_pct: report.success_rate_pct,
            avg_latency_s: report.avg_latency_s,
            latency_p50: report.latency.p50,
            latency_p95: report.latency.p95,
            latency_p99: report.latency.p99,
            success_throughput: report.success_throughput,
        }
    }
}

/// One configuration measured over every executed seed: the primary seed's
/// full report, one scalar [`SeedReport`] row per seed (for seed-paired
/// deltas), the merged latency sketch over all seeds, and aggregate
/// statistics for the figure metrics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MeasuredReport {
    /// The primary seed's full report (seed 0: the configuration's own
    /// seed) — what single-seed callers and the figure tables read.
    pub primary: SimReport,
    /// Scalar rows in seed-list order; index 0 mirrors `primary`.
    pub per_seed: Vec<SeedReport>,
    /// All seeds' success latencies merged into one mergeable sketch
    /// (exact up to [`sim_core::sketch::EXACT_CAP`] values, certified
    /// rank-error bound beyond) — cross-seed percentiles without keeping
    /// any seed's raw latency list.
    pub latency_sketch: QuantileSketch,
    /// Success rate (%) over seeds.
    pub success_rate: MetricStats,
    /// Mean end-to-end latency (s) over seeds.
    pub latency: MetricStats,
    /// Median Submit→Commit event-time latency (s) over seeds.
    pub latency_p50: MetricStats,
    /// 95th-percentile Submit→Commit event-time latency (s) over seeds.
    pub latency_p95: MetricStats,
    /// 99th-percentile Submit→Commit event-time latency (s) over seeds.
    pub latency_p99: MetricStats,
    /// Success throughput (tx/s) over seeds.
    pub throughput: MetricStats,
}

impl MeasuredReport {
    /// Aggregate a non-empty per-seed report list: the first report (the
    /// primary seed) is kept whole, every report contributes a scalar row
    /// and its latency sketch, and the full non-primary reports are
    /// dropped.
    pub fn from_reports(reports: Vec<SimReport>) -> MeasuredReport {
        assert!(!reports.is_empty(), "a measurement needs at least one run");
        let per_seed: Vec<SeedReport> = reports.iter().map(SeedReport::of).collect();
        let mut latency_sketch = QuantileSketch::new();
        for report in &reports {
            latency_sketch.merge(&report.latency_sketch);
        }
        let stat = |f: fn(&SeedReport) -> f64| {
            MetricStats::of(&per_seed.iter().map(f).collect::<Vec<f64>>())
        };
        let success_rate = stat(|r| r.success_rate_pct);
        let latency = stat(|r| r.avg_latency_s);
        let latency_p50 = stat(|r| r.latency_p50);
        let latency_p95 = stat(|r| r.latency_p95);
        let latency_p99 = stat(|r| r.latency_p99);
        let throughput = stat(|r| r.success_throughput);
        let primary = reports.into_iter().next().expect("non-empty checked above");
        MeasuredReport {
            primary,
            per_seed,
            latency_sketch,
            success_rate,
            latency,
            latency_p50,
            latency_p95,
            latency_p99,
            throughput,
        }
    }

    /// The primary seed's report (seed 0: the configuration's own seed) —
    /// what single-seed callers and the figure tables read.
    pub fn primary(&self) -> &SimReport {
        &self.primary
    }

    /// Number of executed seeds.
    pub fn seeds(&self) -> usize {
        self.per_seed.len()
    }
}

/// How one action fared when applied alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ActionResult {
    /// The action was applied and the workload re-run (the outcome
    /// carries the re-run's reports).
    Applied,
    /// The action selects a contract variant the workload ships no
    /// prepared rewrite for (paper §7: manual implementation required).
    ManualRequired,
}

/// Outcome of one action within a plan execution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ActionOutcome {
    /// Name of the source recommendation.
    pub source: String,
    /// The change that was applied (or skipped).
    pub action: Action,
    /// What happened.
    pub result: ActionResult,
    /// The re-run's per-seed measurement; present exactly when `result` is
    /// [`ActionResult::Applied`].
    pub after: Option<MeasuredReport>,
}

impl ActionOutcome {
    /// The primary-seed re-run report, when the action was applied.
    pub fn report(&self) -> Option<&SimReport> {
        self.after.as_ref().map(MeasuredReport::primary)
    }

    /// The full multi-seed measurement, when the action was applied.
    pub fn measured(&self) -> Option<&MeasuredReport> {
        self.after.as_ref()
    }

    /// Per-seed paired deltas `metric(after_i) - metric(baseline_i)`,
    /// aggregated to mean / stddev / CI. Pairing by seed cancels the
    /// workload noise the two runs share.
    fn delta_stats(
        &self,
        baseline: &MeasuredReport,
        metric: fn(&SeedReport) -> f64,
    ) -> Option<MetricStats> {
        let after = self.after.as_ref()?;
        let deltas: Vec<f64> = after
            .per_seed
            .iter()
            .zip(&baseline.per_seed)
            .map(|(a, b)| metric(a) - metric(b))
            .collect();
        Some(MetricStats::of(&deltas))
    }

    /// Mean success-rate change vs the baseline, in percentage points.
    pub fn success_rate_delta(&self, baseline: &MeasuredReport) -> Option<f64> {
        self.success_rate_delta_stats(baseline).map(|s| s.mean)
    }

    /// Success-rate change statistics over seeds (percentage points).
    pub fn success_rate_delta_stats(&self, baseline: &MeasuredReport) -> Option<MetricStats> {
        self.delta_stats(baseline, |r| r.success_rate_pct)
    }

    /// Mean average-latency change vs the baseline, in seconds (negative =
    /// faster).
    pub fn latency_delta(&self, baseline: &MeasuredReport) -> Option<f64> {
        self.latency_delta_stats(baseline).map(|s| s.mean)
    }

    /// Latency change statistics over seeds (seconds).
    pub fn latency_delta_stats(&self, baseline: &MeasuredReport) -> Option<MetricStats> {
        self.delta_stats(baseline, |r| r.avg_latency_s)
    }

    /// Mean success-throughput change vs the baseline, in tx/s.
    pub fn throughput_delta(&self, baseline: &MeasuredReport) -> Option<f64> {
        self.throughput_delta_stats(baseline).map(|s| s.mean)
    }

    /// Throughput change statistics over seeds (tx/s).
    pub fn throughput_delta_stats(&self, baseline: &MeasuredReport) -> Option<MetricStats> {
        self.delta_stats(baseline, |r| r.success_throughput)
    }
}

/// Everything one plan execution measured.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlanOutcome {
    /// The seed list every configuration was measured under.
    pub seeds: Vec<u64>,
    /// The unmodified workload's measurement (the "W/O" row of every
    /// figure).
    pub baseline: MeasuredReport,
    /// One outcome per planned action, applied alone.
    pub actions: Vec<ActionOutcome>,
    /// All applicable actions together (the figures' "all optimizations"
    /// row). `None` when no action could be applied.
    pub combined: Option<MeasuredReport>,
    /// The *optimized scenario spec* — the baseline spec with every
    /// applicable action lowered to a spec transform
    /// ([`OptimizationPlan::apply_to_spec`]). Serialize it, hand it to the
    /// operator, and the tuned configuration is replayable as data.
    pub optimized_spec: Option<ScenarioSpec>,
}

impl PlanOutcome {
    /// Whether any applied action (or the combination) raised the mean
    /// success rate over the baseline.
    pub fn improved(&self) -> bool {
        let base = self.baseline.success_rate.mean;
        self.combined
            .iter()
            .map(|r| r.success_rate.mean)
            .chain(
                self.actions
                    .iter()
                    .filter_map(|a| a.measured().map(|r| r.success_rate.mean)),
            )
            .any(|rate| rate > base)
    }
}

/// One measured configuration, before any simulation ran: the transformed
/// pair (boxed — a bundle is large and `Manual` is a bare marker), or the
/// §7 manual marker.
enum PreparedAction {
    Applied(Box<(WorkloadBundle, NetworkConfig)>),
    Manual,
}

impl OptimizationPlan {
    /// Lower every recommendation of an analysis to its actions.
    pub fn from_analysis(analysis: &Analysis) -> OptimizationPlan {
        OptimizationPlan::from_recommendations(&analysis.recommendations)
    }

    /// Lower a recommendation list to its actions.
    pub fn from_recommendations(recommendations: &[Recommendation]) -> OptimizationPlan {
        OptimizationPlan {
            actions: recommendations
                .iter()
                .flat_map(|rec| {
                    rec.actions().into_iter().map(|action| PlannedAction {
                        source: rec.name().to_string(),
                        action,
                    })
                })
                .collect(),
        }
    }

    /// Keep only the actions lowered from the named recommendations
    /// (figures evaluate one optimization at a time before combining).
    pub fn select(mut self, sources: &[&str]) -> OptimizationPlan {
        self.actions
            .retain(|a| sources.contains(&a.source.as_str()));
        self
    }

    /// Number of planned actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Apply every applicable action to `(bundle, config)` without running
    /// anything: schedule rewrites in plan order, then configuration
    /// changes, then the contract-variant set through the bundle's
    /// resolver. Returns the transformed pair and the variants that could
    /// not be applied.
    ///
    /// Variants are always applied as a *set* (after dropping kinds the
    /// workload ships no rewrite for): single-variant rewrites rebuild the
    /// contract list wholesale, so applying them sequentially would
    /// silently discard earlier rewrites. A supported combination the
    /// resolver cannot build is therefore reported manual in full, never
    /// mis-composed.
    pub fn transform(
        &self,
        bundle: &WorkloadBundle,
        config: &NetworkConfig,
    ) -> (WorkloadBundle, NetworkConfig, Vec<VariantKind>) {
        let mut out_bundle = bundle.clone();
        let mut out_config = config.clone();
        let mut variants = BTreeSet::new();
        for planned in &self.actions {
            if let Some(requests) = planned.action.apply_to_schedule(&out_bundle.requests) {
                out_bundle = out_bundle.with_requests(requests);
            } else if let Some(cfg) = planned.action.apply_to_config(&out_config) {
                out_config = cfg;
            } else if let Some(change) = planned.action.retry_change() {
                out_bundle.retry = change.apply(&out_bundle.retry);
            } else if let Some(kind) = planned.action.variant() {
                variants.insert(kind);
            }
        }
        // Kinds without a prepared rewrite are manual up front; the rest
        // must resolve as one set.
        let supported: BTreeSet<VariantKind> = variants
            .iter()
            .copied()
            .filter(|k| out_bundle.supports_variant(*k))
            .collect();
        let mut manual: Vec<VariantKind> = variants.difference(&supported).copied().collect();
        if !supported.is_empty() {
            match out_bundle.apply_variants(&supported) {
                Some(rewritten) => out_bundle = rewritten,
                // The workload ships each kind but not this combination:
                // composing the single rewrites would drop all but the
                // last, so the whole combination is manual (paper §7).
                None => manual.extend(supported),
            }
        }
        manual.sort_unstable();
        (out_bundle, out_config, manual)
    }

    /// Apply every action to a *declarative spec* instead of a
    /// materialized bundle: schedule rewrites become
    /// [`workload::SpecTransform`]s in plan order, configuration changes
    /// rewrite `spec.network`, and variant selections join
    /// `spec.variants`. Returns the optimized spec plus the variant kinds
    /// the workload ships no rewrite for (manual, paper §7).
    ///
    /// The optimized spec is the plan's durable artifact: serialize it and
    /// the tuned configuration can be rebuilt, re-measured, or diffed
    /// against the baseline spec. (A supported-but-unresolvable variant
    /// *combination* — which only a variant resolver can detect — still
    /// surfaces as a typed error when the spec is built.)
    pub fn apply_to_spec(&self, spec: &ScenarioSpec) -> (ScenarioSpec, Vec<VariantKind>) {
        let mut out = spec.clone();
        let mut manual: Vec<VariantKind> = Vec::new();
        for planned in &self.actions {
            match planned.action.apply_to_spec(&out) {
                Some(next) => out = next,
                None => {
                    if let Some(kind) = planned.action.variant() {
                        manual.push(kind);
                    }
                }
            }
        }
        manual.sort_unstable();
        manual.dedup();
        (out, manual)
    }

    /// Simulate a spec's baseline, analyze the resulting ledger with
    /// `analyzer`, and lower the recommendations to a plan. Returns the
    /// plan together with the baseline run (whose report seeds
    /// [`execute_spec_from_with`](Self::execute_spec_from_with), and whose
    /// ledger the caller may export).
    ///
    /// When the baseline run degrades under the spec's fault plan, the
    /// [resilience catalogue](crate::resilience::ResilienceRuleSet::paper)
    /// is evaluated against the run's degradation report and its actions
    /// (retry tuning, backoff widening, endorsement-policy relaxation) are
    /// appended to the plan — so `optimize --spec faulty.json` closes the
    /// loop over fault tolerance exactly like it does over throughput.
    pub fn from_spec(
        spec: &ScenarioSpec,
        analyzer: &Analyzer,
    ) -> Result<(OptimizationPlan, SimOutput), AnalyzeError> {
        let (bundle, config) = spec.build()?;
        let output = bundle.run(config);
        let analysis = analyzer.analyze_ledger(&output.ledger)?;
        let mut plan = OptimizationPlan::from_analysis(&analysis);
        let resilience = crate::resilience::ResilienceRuleSet::paper().evaluate(
            &crate::resilience::ResilienceCtx {
                report: &output.report,
                retry: &spec.retry,
                config: &spec.network,
            },
        );
        plan.actions.extend(resilience);
        Ok((plan, output))
    }

    /// Describe the single-action configuration for each planned action
    /// without simulating anything.
    fn prepare_actions(
        &self,
        bundle: &WorkloadBundle,
        config: &NetworkConfig,
    ) -> Vec<PreparedAction> {
        self.actions
            .iter()
            .map(|planned| {
                if let Some(requests) = planned.action.apply_to_schedule(&bundle.requests) {
                    PreparedAction::Applied(Box::new((
                        bundle.clone().with_requests(requests),
                        config.clone(),
                    )))
                } else if let Some(cfg) = planned.action.apply_to_config(config) {
                    PreparedAction::Applied(Box::new((bundle.clone(), cfg)))
                } else if let Some(change) = planned.action.retry_change() {
                    let mut tuned = bundle.clone();
                    tuned.retry = change.apply(&tuned.retry);
                    PreparedAction::Applied(Box::new((tuned, config.clone())))
                } else if let Some(kind) = planned.action.variant() {
                    let single: BTreeSet<VariantKind> = [kind].into_iter().collect();
                    match bundle.apply_variants(&single) {
                        Some(rewritten) => {
                            PreparedAction::Applied(Box::new((rewritten, config.clone())))
                        }
                        None => PreparedAction::Manual,
                    }
                } else {
                    PreparedAction::Manual
                }
            })
            .collect()
    }

    /// Execute the closed loop against a declarative [`ScenarioSpec`]: run
    /// the baseline, re-run with each action applied alone, then with all
    /// applicable actions combined. Every measured configuration runs once
    /// per seed, fanned out over `plan_config.threads` workers (identical
    /// results for any thread count), and **each seed rebuilds the
    /// workload from a re-seeded spec** ([`ScenarioSpec::with_seed`]). The resulting confidence intervals
    /// therefore reflect workload variance (schedules, key choices,
    /// invokers), not just endorser selection. Deltas stay seed-paired:
    /// action seed *i* and baseline seed *i* share the same generated
    /// workload, so the per-seed workload noise still cancels.
    pub fn execute_spec_with(
        &self,
        spec: &ScenarioSpec,
        plan_config: &PlanConfig,
    ) -> Result<PlanOutcome, AnalyzeError> {
        self.run_spec_grid(spec, plan_config, None)
    }

    /// [`execute_spec_with`](Self::execute_spec_with) reusing an
    /// already-measured primary-seed baseline report (the common case when
    /// the plan came from [`from_spec`](Self::from_spec), which already
    /// ran the spec once).
    pub fn execute_spec_from_with(
        &self,
        spec: &ScenarioSpec,
        baseline: SimReport,
        plan_config: &PlanConfig,
    ) -> Result<PlanOutcome, AnalyzeError> {
        self.run_spec_grid(spec, plan_config, Some(baseline))
    }

    /// Build and execute the `(configuration, seed)` grid for a spec, with
    /// per-seed workload generation.
    fn run_spec_grid(
        &self,
        spec: &ScenarioSpec,
        plan_config: &PlanConfig,
        reused_baseline: Option<SimReport>,
    ) -> Result<PlanOutcome, AnalyzeError> {
        let seeds = plan_config.seed_list(spec.seed());
        // One freshly generated workload per seed, fanned out over the
        // same pool the simulations use: at `--seeds 32` the generation
        // phase is itself a visible serial prefix, and each build is
        // independent and deterministic in its seed. The pool returns
        // results in job order, so the pair list — and every downstream
        // byte — is identical for any thread count. Failures (malformed
        // parameters, unknown contracts, unresolvable variant
        // combinations) still surface here before any simulation runs,
        // reported for the lowest failing seed.
        //
        // Seed 0 builds the spec *verbatim*: `with_seed` would overwrite
        // the network seed with the workload seed, and a hand-edited spec
        // may deliberately keep them different — re-seeding would measure
        // a different primary configuration than the one a reused
        // `from_spec` baseline was taken from, skewing every seed-paired
        // delta.
        let build_jobs: Vec<(usize, u64)> = seeds.iter().copied().enumerate().collect();
        let pairs: Vec<(WorkloadBundle, NetworkConfig)> = ThreadPool::new(plan_config.threads)
            .map(build_jobs, |(i, seed)| {
                if i == 0 {
                    spec.build()
                } else {
                    spec.clone().with_seed(seed).build()
                }
            })
            .into_iter()
            .collect::<Result<_, _>>()?;

        // Classify each action once per seed. Applied-ness is structural
        // (variant support does not depend on the seed), so the slot
        // layout matches across seeds.
        let prepared: Vec<Vec<PreparedAction>> = pairs
            .iter()
            .map(|(bundle, config)| self.prepare_actions(bundle, config))
            .collect();
        let primary = &prepared[0];
        debug_assert!(
            prepared.iter().all(|p| {
                p.iter().zip(primary).all(|(a, b)| {
                    matches!(a, PreparedAction::Applied(..))
                        == matches!(b, PreparedAction::Applied(..))
                })
            }),
            "applied-ness must not depend on the seed"
        );
        let any_applied = primary
            .iter()
            .any(|p| matches!(p, PreparedAction::Applied(..)));

        let mut jobs: Vec<(usize, WorkloadBundle, NetworkConfig)> = Vec::new();
        for (si, (bundle, config)) in pairs.iter().enumerate() {
            if si == 0 && reused_baseline.is_some() {
                continue;
            }
            jobs.push((0, bundle.clone(), config.clone()));
        }
        for (ai, prep0) in primary.iter().enumerate() {
            if matches!(prep0, PreparedAction::Applied(..)) {
                for per_seed in &prepared {
                    if let PreparedAction::Applied(pair) = &per_seed[ai] {
                        let (b, c) = pair.as_ref();
                        jobs.push((ai + 1, b.clone(), c.clone()));
                    }
                }
            }
        }
        let combined_slot = self.actions.len() + 1;
        if any_applied {
            for (bundle, config) in &pairs {
                let (all_bundle, all_config, _manual) = self.transform(bundle, config);
                jobs.push((combined_slot, all_bundle, all_config));
            }
        }

        let results =
            ThreadPool::new(plan_config.threads).map(jobs, |(slot, b, c)| (slot, b.run(c).report));
        let mut per_slot: Vec<Vec<SimReport>> = vec![Vec::new(); combined_slot + 1];
        for (slot, report) in results {
            per_slot[slot].push(report);
        }
        if let Some(report) = reused_baseline {
            per_slot[0].insert(0, report);
        }

        let mut slots = per_slot.into_iter();
        let baseline = MeasuredReport::from_reports(slots.next().expect("baseline slot"));
        let actions = self
            .actions
            .iter()
            .zip(primary.iter().zip(&mut slots))
            .map(|(planned, (prep, reports))| {
                let after = match prep {
                    PreparedAction::Applied(..) => Some(MeasuredReport::from_reports(reports)),
                    PreparedAction::Manual => None,
                };
                ActionOutcome {
                    source: planned.source.clone(),
                    action: planned.action.clone(),
                    result: if after.is_some() {
                        ActionResult::Applied
                    } else {
                        ActionResult::ManualRequired
                    },
                    after,
                }
            })
            .collect();
        let combined =
            any_applied.then(|| MeasuredReport::from_reports(slots.next().expect("combined slot")));

        Ok(PlanOutcome {
            seeds,
            baseline,
            actions,
            combined,
            optimized_spec: Some(self.apply_to_spec(spec).0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ScheduleRewrite;

    /// A built-in scenario scaled to `txs` transactions.
    fn builtin(name: &str, txs: usize) -> ScenarioSpec {
        ScenarioSpec::builtin(name).unwrap().with_transactions(txs)
    }

    /// Run a spec once and analyze the resulting ledger.
    fn analyze(spec: &ScenarioSpec) -> Analysis {
        let (bundle, config) = spec.build().unwrap();
        Analyzer::new()
            .analyze_ledger(&bundle.run(config).ledger)
            .unwrap()
    }

    fn scm_setup() -> (ScenarioSpec, Analysis) {
        // 6 000 transactions: the same regime the directional
        // optimization-effects tests use (pruning's benefit needs enough
        // anomalous flows to outweigh its extra early-abort latency).
        let spec = builtin("scm", 6_000);
        let analysis = analyze(&spec);
        (spec, analysis)
    }

    #[test]
    fn scm_plan_lowers_the_expected_actions() {
        let (_, analysis) = scm_setup();
        let plan = OptimizationPlan::from_analysis(&analysis);
        let sources: Vec<&str> = plan.actions.iter().map(|a| a.source.as_str()).collect();
        assert!(sources.contains(&"Activity reordering"), "{sources:?}");
        assert!(sources.contains(&"Transaction rate control"), "{sources:?}");
        assert!(sources.contains(&"Process model pruning"), "{sources:?}");
        // Selection filters by source.
        let only = plan.clone().select(&["Transaction rate control"]);
        assert_eq!(only.len(), 1);
        assert!(matches!(
            only.actions[0].action,
            Action::RewriteSchedule(ScheduleRewrite::Throttle { .. })
        ));
    }

    #[test]
    fn scm_closed_loop_reproduces_the_improvement_direction() {
        let (spec, analysis) = scm_setup();
        let plan = OptimizationPlan::from_analysis(&analysis).select(&[
            "Activity reordering",
            "Transaction rate control",
            "Process model pruning",
        ]);
        let outcome = plan
            .execute_spec_with(&spec, &PlanConfig::default())
            .unwrap();
        assert_eq!(outcome.seeds, vec![spec.seed()]);
        assert!(outcome.improved(), "at least one optimization helps");
        for action in &outcome.actions {
            let report = action.report().expect("all SCM actions are applicable");
            // Figure 13's direction: every single optimization raises the
            // success rate.
            assert!(
                report.success_rate_pct > outcome.baseline.primary().success_rate_pct,
                "{}: {} → {}",
                action.action.describe(),
                outcome.baseline.primary().success_rate_pct,
                report.success_rate_pct
            );
        }
        let combined = outcome.combined.as_ref().expect("actions applied");
        assert!(
            combined.success_rate.mean > outcome.baseline.success_rate.mean + 5.0,
            "all optimizations together beat the baseline clearly: {} → {}",
            outcome.baseline.success_rate.mean,
            combined.success_rate.mean
        );
    }

    #[test]
    fn unsupported_variants_are_reported_as_manual() {
        // The synthetic workload ships no contract rewrites.
        let spec = builtin("synthetic", 1_000);
        let plan = OptimizationPlan::from_recommendations(&[Recommendation::DeltaWrites {
            activities: vec![("update".into(), 9)],
        }]);
        let outcome = plan
            .execute_spec_with(&spec, &PlanConfig::default())
            .unwrap();
        assert_eq!(outcome.actions.len(), 1);
        assert!(matches!(
            outcome.actions[0].result,
            ActionResult::ManualRequired
        ));
        assert!(outcome.actions[0].report().is_none());
        assert!(outcome.combined.is_none(), "nothing was applicable");
        assert!(!outcome.improved());
    }

    #[test]
    fn transform_composes_schedule_config_and_variants() {
        let (spec, analysis) = scm_setup();
        let (bundle, config) = spec.build().unwrap();
        let plan = OptimizationPlan::from_analysis(&analysis);
        let (new_bundle, new_config, manual) = plan.transform(&bundle, &config);
        assert!(manual.is_empty(), "{manual:?}");
        // Rate control re-spaced the schedule (same multiset, longer span).
        assert_eq!(new_bundle.len(), bundle.len());
        // Block size adaptation fired for the default SCM demo, so the
        // config changed; the contract was swapped for the pruned variant.
        assert_ne!(new_config.block_count, config.block_count);
    }

    #[test]
    fn transform_resolves_supported_combos_despite_manual_kinds() {
        use workload::drm;
        let spec = drm::DrmSpec {
            transactions: 2_000,
            ..Default::default()
        };
        let bundle = drm::generate(&spec);
        let config = NetworkConfig::default();
        // Pruned is not shipped by DRM; the other two are — and their
        // combination resolves to the Figure-14 partitioned-delta contract
        // set. The unsupported kind must not degrade the combo to
        // sequentially applied singles (which would silently drop the
        // delta rewrite).
        let plan = OptimizationPlan::from_recommendations(&[
            Recommendation::ProcessModelPruning { anomalous: vec![] },
            Recommendation::DeltaWrites {
                activities: vec![("play".into(), 9)],
            },
            Recommendation::SmartContractPartitioning { hotkeys: vec![] },
        ]);
        let (transformed, cfg, manual) = plan.transform(&bundle, &config);
        assert_eq!(manual, vec![VariantKind::Pruned]);
        // Deterministic runs: the transformed bundle must behave exactly
        // like the explicit partitioned-delta combo, and differently from
        // partitioned-only.
        let expected = drm::partitioned_delta(bundle.clone(), &spec)
            .run(config.clone())
            .report;
        let got = transformed.run(cfg).report;
        assert_eq!(got.successes, expected.successes);
        assert_eq!(got.mvcc_conflicts, expected.mvcc_conflicts);
        let partitioned_only = drm::partitioned(bundle, &spec).run(config).report;
        assert_ne!(
            got.successes, partitioned_only.successes,
            "delta rewrite was not discarded"
        );
    }

    /// The tentpole equivalence guarantee: a parallel execution (threads=4)
    /// produces byte-identical per-seed metrics to the serial one.
    #[test]
    fn parallel_execution_is_byte_identical_to_serial() {
        let spec = builtin("scm", 2_000);
        let plan = OptimizationPlan::from_analysis(&analyze(&spec));

        let serial = plan
            .execute_spec_with(&spec, &PlanConfig::new(3, 1))
            .unwrap();
        let parallel = plan
            .execute_spec_with(&spec, &PlanConfig::new(3, 4))
            .unwrap();

        assert_eq!(serial.seeds, parallel.seeds);
        let fingerprint = |m: &MeasuredReport| {
            m.per_seed
                .iter()
                .map(|r| {
                    (
                        r.successes,
                        r.committed,
                        r.mvcc_conflicts,
                        r.success_rate_pct.to_bits(),
                        r.avg_latency_s.to_bits(),
                        r.success_throughput.to_bits(),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(
            fingerprint(&serial.baseline),
            fingerprint(&parallel.baseline)
        );
        assert_eq!(serial.actions.len(), parallel.actions.len());
        for (a, b) in serial.actions.iter().zip(&parallel.actions) {
            assert_eq!(a.result, b.result);
            match (a.measured(), b.measured()) {
                (Some(x), Some(y)) => assert_eq!(fingerprint(x), fingerprint(y)),
                (None, None) => {}
                _ => panic!("applied-ness must not depend on threads"),
            }
        }
        match (&serial.combined, &parallel.combined) {
            (Some(x), Some(y)) => assert_eq!(fingerprint(x), fingerprint(y)),
            (None, None) => {}
            _ => panic!("combined run must not depend on threads"),
        }
    }

    #[test]
    fn multi_seed_outcome_carries_statistics() {
        // Four orgs under the 2-of-4 policy: endorser selection consumes
        // the seed on top of the re-seeded workload, so different seeds
        // genuinely produce different runs.
        let mut spec = builtin("scm", 2_000);
        spec.network.orgs = 4;
        spec.network.endorsement_policy = fabric_sim::policy::EndorsementPolicy::p4();
        let plan =
            OptimizationPlan::from_recommendations(&[Recommendation::TransactionRateControl {
                intervals: vec![0],
                peak_rate: 300.0,
                suggested_rate: 100.0,
            }]);
        let outcome = plan
            .execute_spec_with(&spec, &PlanConfig::new(4, 2))
            .unwrap();

        assert_eq!(outcome.seeds.len(), 4);
        assert_eq!(outcome.seeds[0], spec.seed(), "seed 0 is the spec's own");
        let distinct: BTreeSet<u64> = outcome.seeds.iter().copied().collect();
        assert_eq!(distinct.len(), 4, "derived seeds never collide");

        assert_eq!(outcome.baseline.seeds(), 4);
        // Different seeds produce different runs, so the spread is real.
        assert!(outcome.baseline.success_rate.stddev > 0.0);
        assert!(outcome.baseline.success_rate.ci95 > 0.0);
        assert!(outcome.baseline.success_rate.lo() <= outcome.baseline.success_rate.hi());
        let mean = outcome.baseline.success_rate.mean;
        let lo = outcome
            .baseline
            .per_seed
            .iter()
            .map(|r| r.success_rate_pct)
            .fold(f64::INFINITY, f64::min);
        let hi = outcome
            .baseline
            .per_seed
            .iter()
            .map(|r| r.success_rate_pct)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(lo <= mean && mean <= hi);

        // Paired deltas exist per action and cover every seed.
        let action = &outcome.actions[0];
        let stats = action
            .success_rate_delta_stats(&outcome.baseline)
            .expect("throttle applies");
        assert!(stats.mean.is_finite());
        assert!(
            stats.mean > 0.0,
            "rate control lifts the seed-averaged success rate"
        );
    }

    #[test]
    fn execute_from_reuses_the_primary_baseline() {
        let spec = builtin("scm", 1_500);
        let (bundle, config) = spec.build().unwrap();
        let baseline = bundle.run(config).report;
        let plan =
            OptimizationPlan::from_recommendations(&[Recommendation::TransactionRateControl {
                intervals: vec![0],
                peak_rate: 300.0,
                suggested_rate: 100.0,
            }]);
        let outcome = plan
            .execute_spec_from_with(&spec, baseline.clone(), &PlanConfig::new(2, 2))
            .unwrap();
        assert_eq!(outcome.baseline.seeds(), 2);
        assert_eq!(
            outcome.baseline.primary().successes,
            baseline.successes,
            "seed 0 reuses the provided report"
        );
        // And the reused report is identical to a fresh run of seed 0.
        let fresh = plan
            .execute_spec_with(&spec, &PlanConfig::new(2, 2))
            .unwrap();
        assert_eq!(
            fresh.baseline.primary().successes,
            outcome.baseline.primary().successes
        );
    }

    #[test]
    fn metric_stats_basics() {
        let one = MetricStats::of(&[5.0]);
        assert_eq!(one.mean, 5.0);
        assert_eq!(one.stddev, 0.0);
        assert_eq!(one.ci95, 0.0);
        // Three seeds → df = 2 → t = 4.303, not the normal 1.96: the old
        // z-interval understated this CI by a factor of 2.2.
        let s = MetricStats::of(&[1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.stddev - 1.0).abs() < 1e-12);
        assert!((s.ci95 - 4.303 / 3f64.sqrt()).abs() < 1e-12);
        assert!(s.lo() < s.mean && s.mean < s.hi());
    }

    #[test]
    fn t_critical_values_shrink_toward_normal() {
        assert_eq!(t95(1), 12.706);
        assert_eq!(t95(2), 4.303);
        assert_eq!(t95(9), 2.262, "--seeds 10 regime");
        assert_eq!(t95(30), 2.042);
        assert_eq!(t95(50), 2.021);
        assert_eq!(t95(1000), 1.980);
        assert!(t95(0).is_infinite(), "a single seed has no interval");
        // Monotone nonincreasing, and never below the exact value's floor
        // (each waypoint range reuses its smallest df's critical value, so
        // the interval is conservative, not understated).
        let mut prev = f64::INFINITY;
        for df in 1..200 {
            let t = t95(df);
            assert!(t <= prev, "t95({df}) = {t} rose above {prev}");
            assert!(t >= 1.960);
            prev = t;
        }
        // Spot-check the conservative direction at range edges: the exact
        // values are t(31) ≈ 2.040 and t(61) ≈ 2.000.
        assert!(t95(31) >= 2.040);
        assert!(t95(61) >= 2.000);
    }

    #[test]
    fn plan_outcome_round_trips_through_json() {
        let (spec, analysis) = scm_setup();
        let plan = OptimizationPlan::from_analysis(&analysis).select(&["Transaction rate control"]);
        let outcome = plan
            .execute_spec_with(&spec, &PlanConfig::default())
            .unwrap();
        let json = serde_json::to_string(&outcome).unwrap();
        let back: PlanOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(back.actions.len(), outcome.actions.len());
        assert_eq!(back.seeds, outcome.seeds);
        assert_eq!(
            back.baseline.success_rate.mean,
            outcome.baseline.success_rate.mean
        );
        assert_eq!(
            back.baseline.primary().success_rate_pct,
            outcome.baseline.primary().success_rate_pct
        );
    }
}
