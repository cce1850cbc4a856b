//! Parallel plan execution: serial vs threaded wall-clock, plus an
//! allocation-sensitive simulator throughput probe.
//!
//! Two claims are measured and recorded:
//!
//! 1. **Fan-out scales.** `OptimizationPlan::execute_spec_with` distributes the
//!    `(configuration, seed)` simulation grid over a
//!    [`sim_core::pool::ThreadPool`]; on a machine with ≥ 4 cores the
//!    4-thread execution must be ≥ 2× faster than the single-thread one
//!    (asserted below — on smaller machines the ratio is recorded but the
//!    assertion is skipped, since the speedup physically cannot exist).
//!    Either way the outcomes must be byte-identical: the bench fails if
//!    threading changes any per-seed metric.
//! 2. **The allocation diet holds.** A raw `bundle.run(config)` throughput
//!    probe tracks the simulator's hot path (interned `Arc<str>` names,
//!    shared `Arc<[Value]>` args, clone-free assemble/commit, pre-sized
//!    state keys). Regressions show up as a drop in tx/s.
//! 3. **The DES core keeps up.** The same probe records dispatched
//!    events/s (`SimReport::events` over wall-clock), and an open-loop
//!    Poisson arrival run ([`workload::ArrivalSpec`]) records tx/s in the
//!    timeout-cut regime the closed loop never enters.
//! 4. **Resilience costs are visible.** The open-loop run repeats under an
//!    injected endorser outage with a retrying client
//!    ([`workload::FaultSpec`] / [`workload::RetryPolicy`]): throughput
//!    under degradation and the retry count (asserted > 0) land in the
//!    artifact, so fault-path overhead has a trajectory too.
//! 5. **Sharded ingest sustains.** A larger ledger's commit-ordered log
//!    is split into contiguous shards, each shard ingested into its own
//!    fresh [`blockoptr::Session`] (as independent shards would), and the
//!    shards folded with `Session::merge` — the monoid the equivalence
//!    tests pin. Recorded: sustained ingest throughput (`ingest_tps`),
//!    the merged session's estimated resident footprint
//!    (`session_footprint_bytes`), and the serialized size of a slimmed
//!    multi-seed measurement (`measured_report_bytes`) — the three
//!    numbers that regress first if the measurement pipeline drifts back
//!    toward O(raw).
//!
//! Results are written to `BENCH_plan.json` at the repository root
//! (override with `BENCH_PLAN_OUT`) to start the perf trajectory; CI
//! uploads the file as an artifact.

use bench::wallclock::Stopwatch;
use blockoptr::plan::{MeasuredReport, OptimizationPlan, PlanConfig, PlanOutcome};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fabric_sim::config::NetworkConfig;
use sim_core::pool;
use std::hint::black_box;
use workload::{ArrivalSpec, ScenarioSpec};

const SEEDS: usize = 4;
const PARALLEL_THREADS: usize = 4;

/// Shards for the sustained-ingest probe: contiguous slices of the
/// commit-ordered log ingested into independent sessions, then folded
/// with `Session::merge`.
const INGEST_SHARDS: usize = 4;

/// Open-loop arrival rate for the DES probe (tx/s). Sparse enough that a
/// 100-transaction block takes longer than the 1 s block timeout to fill,
/// so the timer consistently wins the cut race — the regime the closed
/// loop never reaches.
const OPEN_LOOP_RATE: f64 = 60.0;

fn setup() -> (
    ScenarioSpec,
    workload::WorkloadBundle,
    NetworkConfig,
    OptimizationPlan,
) {
    let txs = std::env::var("BENCH_PLAN_TXS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000);
    let spec = ScenarioSpec::builtin("scm")
        .expect("scm is a builtin")
        .with_transactions(txs);
    let (bundle, config) = spec.build().expect("scm spec builds");
    let analysis = blockoptr::Analyzer::new()
        .analyze_ledger(&bundle.run(config.clone()).ledger)
        .expect("scm commits transactions");
    let plan = OptimizationPlan::from_analysis(&analysis);
    (spec, bundle, config, plan)
}

/// One plan execution over the spec grid.
fn execute(plan: &OptimizationPlan, spec: &ScenarioSpec, plan_config: &PlanConfig) -> PlanOutcome {
    plan.execute_spec_with(spec, plan_config)
        .expect("scm spec builds")
}

/// Median wall-clock of `runs` executions.
fn time_execution(
    plan: &OptimizationPlan,
    spec: &ScenarioSpec,
    plan_config: &PlanConfig,
    runs: usize,
) -> (f64, PlanOutcome) {
    let mut secs: Vec<f64> = Vec::with_capacity(runs);
    let mut last = None;
    for _ in 0..runs {
        let start = Stopwatch::start();
        last = Some(black_box(execute(plan, spec, plan_config)));
        secs.push(start.elapsed().as_secs_f64());
    }
    secs.sort_by(f64::total_cmp);
    (secs[secs.len() / 2], last.expect("runs >= 1"))
}

/// Per-seed integer/bit fingerprint: any threading-induced divergence trips
/// the equality check below.
fn fingerprint(m: &MeasuredReport) -> Vec<(usize, usize, u64, u64)> {
    m.per_seed
        .iter()
        .map(|r| {
            (
                r.successes,
                r.mvcc_conflicts,
                r.success_rate_pct.to_bits(),
                r.avg_latency_s.to_bits(),
            )
        })
        .collect()
}

fn outcome_fingerprint(o: &PlanOutcome) -> Vec<Vec<(usize, usize, u64, u64)>> {
    let mut all = vec![fingerprint(&o.baseline)];
    all.extend(
        o.actions
            .iter()
            .filter_map(|a| a.measured())
            .map(fingerprint),
    );
    all.extend(o.combined.iter().map(fingerprint));
    all
}

fn bench_plan_parallel(c: &mut Criterion) {
    let (spec, bundle, config, plan) = setup();
    let serial_cfg = PlanConfig::new(SEEDS, 1);
    let parallel_cfg = PlanConfig::new(SEEDS, PARALLEL_THREADS);

    // Criterion display: the paired serial/threaded grid and the raw
    // simulator throughput probe.
    let mut group = c.benchmark_group("plan_parallel");
    group.sample_size(2);
    group.bench_function(format!("execute_{SEEDS}seeds_1thread"), |b| {
        b.iter(|| black_box(execute(&plan, &spec, &serial_cfg)))
    });
    group.bench_function(
        format!("execute_{SEEDS}seeds_{PARALLEL_THREADS}threads"),
        |b| b.iter(|| black_box(execute(&plan, &spec, &parallel_cfg))),
    );
    group.finish();

    // Open-loop probe: the same scm volume re-stamped by a Poisson arrival
    // process, exercising the DES timer race (timeout cuts).
    let (open_bundle, open_config) = ScenarioSpec::builtin("scm")
        .expect("scm is a builtin")
        .with_transactions(bundle.len())
        .with_arrival(ArrivalSpec::Poisson {
            rate: OPEN_LOOP_RATE,
        })
        .build()
        .expect("open-loop scm spec builds");

    // Outage probe: the same open-loop volume with org-0's endorsers down
    // for a window and a bounded-retry client — the fault path under load.
    let mut outage_spec = ScenarioSpec::builtin("scm")
        .expect("scm is a builtin")
        .with_transactions(bundle.len())
        .with_arrival(ArrivalSpec::Poisson {
            rate: OPEN_LOOP_RATE,
        });
    outage_spec
        .fault
        .endorser_outages
        .push(workload::OutageWindow {
            org: 0,
            peer: None,
            start: 2.0,
            duration: 2.5,
        });
    outage_spec.retry = workload::RetryPolicy {
        endorse_timeout: Some(0.4),
        max_attempts: 3,
        backoff_base: 0.05,
        backoff_multiplier: 2.0,
        jitter: 0.0,
    };
    let (outage_bundle, outage_config) = outage_spec.build().expect("outage scm spec builds");

    let mut sim_group = c.benchmark_group("sim_throughput");
    sim_group.sample_size(5);
    sim_group.throughput(Throughput::Elements(bundle.len() as u64));
    sim_group.bench_function("scm_run_alloc_diet", |b| {
        b.iter(|| black_box(bundle.run(config.clone())))
    });
    sim_group.throughput(Throughput::Elements(open_bundle.len() as u64));
    sim_group.bench_function("scm_run_open_loop", |b| {
        b.iter(|| black_box(open_bundle.run(open_config.clone())))
    });
    sim_group.throughput(Throughput::Elements(outage_bundle.len() as u64));
    sim_group.bench_function("scm_run_open_loop_outage", |b| {
        b.iter(|| black_box(outage_bundle.run(outage_config.clone())))
    });
    sim_group.finish();

    // Explicit measurement for BENCH_plan.json + the scaling assertion
    // (medians of 5 runs, so one noisy-neighbour hiccup cannot flip the
    // ratio).
    let cores = pool::hardware_threads();
    let (serial_secs, serial_outcome) = time_execution(&plan, &spec, &serial_cfg, 5);
    let (parallel_secs, parallel_outcome) = time_execution(&plan, &spec, &parallel_cfg, 5);
    assert_eq!(
        outcome_fingerprint(&serial_outcome),
        outcome_fingerprint(&parallel_outcome),
        "threaded execution must be byte-identical to serial"
    );
    let speedup = serial_secs / parallel_secs.max(1e-12);

    let sim_start = Stopwatch::start();
    let sim_runs = 3;
    let mut sim_events = 0u64;
    for _ in 0..sim_runs {
        sim_events = black_box(bundle.run(config.clone())).report.events;
    }
    let sim_secs = sim_start.elapsed().as_secs_f64() / sim_runs as f64;
    let sim_tps = bundle.len() as f64 / sim_secs;
    let sim_events_per_sec = sim_events as f64 / sim_secs;

    let open_start = Stopwatch::start();
    let mut open_timeout_cuts = 0usize;
    for _ in 0..sim_runs {
        let out = black_box(open_bundle.run(open_config.clone()));
        open_timeout_cuts = out
            .ledger
            .blocks()
            .iter()
            .filter(|b| b.cut_reason == fabric_sim::ledger::CutReason::Timeout)
            .count();
    }
    let open_secs = open_start.elapsed().as_secs_f64() / sim_runs as f64;
    let open_tps = open_bundle.len() as f64 / open_secs;
    assert!(
        open_timeout_cuts > 0,
        "the open-loop probe must exercise timeout cuts (got none)"
    );

    let outage_start = Stopwatch::start();
    let mut outage_retries = 0usize;
    for _ in 0..sim_runs {
        let out = black_box(outage_bundle.run(outage_config.clone()));
        outage_retries = out.report.degradation.retries;
    }
    let outage_secs = outage_start.elapsed().as_secs_f64() / sim_runs as f64;
    let outage_tps = outage_bundle.len() as f64 / outage_secs;
    assert!(
        outage_retries > 0,
        "the outage probe must exercise the client retry path (got no retries)"
    );

    // Sustained-ingest probe: shard a larger ledger across fresh sessions,
    // fold with `Session::merge`, and time the whole ingest + fold. The
    // merge equivalence tests guarantee the folded session is
    // byte-identical to serial ingest, so this measures the sharded hot
    // path the daemon-style deployment would run.
    let ingest_txs = std::env::var("BENCH_INGEST_TXS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000);
    let (ingest_bundle, ingest_config) = ScenarioSpec::builtin("scm")
        .expect("scm is a builtin")
        .with_transactions(ingest_txs)
        .build()
        .expect("ingest scm spec builds");
    let ingest_ledger = ingest_bundle.run(ingest_config).ledger;
    // Extract the commit-ordered log once (global commit indices), then
    // pre-slice it into the contiguous shard streams each ingester would
    // receive; only ingestion + folding is timed.
    let full_log = blockoptr::log::BlockchainLog::from_ledger(&ingest_ledger);
    let records = full_log.records().to_vec();
    let shard_logs: Vec<blockoptr::log::BlockchainLog> = records
        .chunks(records.len().div_ceil(INGEST_SHARDS).max(1))
        .map(|piece| {
            let blocks = piece
                .iter()
                .map(|r| r.block)
                .collect::<std::collections::BTreeSet<_>>()
                .len();
            blockoptr::log::BlockchainLog::from_records(piece.to_vec(), blocks)
        })
        .collect();
    let analyzer = blockoptr::Analyzer::new();
    let ingest_start = Stopwatch::start();
    let mut shards: Vec<blockoptr::Session> = shard_logs
        .into_iter()
        .map(|log| {
            let mut session = analyzer.session().expect("fresh session");
            session
                .ingest_log(log)
                .expect("commit-ordered shard ingests cleanly");
            session
        })
        .collect();
    let mut merged = shards.remove(0);
    for shard in shards {
        merged
            .merge(shard)
            .expect("contiguous shards merge cleanly");
    }
    let ingest_secs = ingest_start.elapsed().as_secs_f64();
    let ingest_records = merged.len() + merged.evicted();
    let ingest_tps = ingest_records as f64 / ingest_secs.max(1e-12);
    let session_footprint_bytes = merged.footprint().approx_bytes();
    let measured_report_bytes = serde_json::to_string(&serial_outcome.baseline)
        .expect("a measured report serializes")
        .len();

    // The ≥ 2× target needs hardware to scale onto; on narrower machines
    // the ratio is recorded so the trajectory still shows the trend.
    // `BENCH_PLAN_ASSERT=off` downgrades the assertion to record-only for
    // noisy shared runners (the ratio still lands in BENCH_plan.json).
    let assert_enabled = !matches!(
        std::env::var("BENCH_PLAN_ASSERT").as_deref(),
        Ok("0") | Ok("off") | Ok("false")
    );
    let assertion = if cores < PARALLEL_THREADS {
        format!(
            "skipped ({cores} core(s) < {PARALLEL_THREADS} threads: no parallel speedup possible)"
        )
    } else if !assert_enabled {
        format!("recorded only (BENCH_PLAN_ASSERT=off; got {speedup:.2}x)")
    } else {
        assert!(
            speedup >= 2.0,
            "{PARALLEL_THREADS}-thread plan execution must be ≥ 2× faster than serial \
             on a {cores}-core machine (got {speedup:.2}×: serial {serial_secs:.2}s, \
             parallel {parallel_secs:.2}s)"
        );
        "passed (speedup >= 2.0)".to_string()
    };

    let json = format!(
        "{{\n  \"bench\": \"plan_parallel\",\n  \"workload\": \"scm\",\n  \"transactions\": {},\n  \"plan_actions\": {},\n  \"seeds\": {},\n  \"cores\": {},\n  \"threads\": {},\n  \"serial_secs\": {:.4},\n  \"parallel_secs\": {:.4},\n  \"speedup\": {:.3},\n  \"identical_outcomes\": true,\n  \"speedup_assertion\": \"{}\",\n  \"sim_run_secs\": {:.4},\n  \"sim_throughput_tps\": {:.0},\n  \"sim_events_per_sec\": {:.0},\n  \"open_loop_rate_tps\": {:.0},\n  \"open_loop_run_secs\": {:.4},\n  \"open_loop_throughput_tps\": {:.0},\n  \"open_loop_timeout_cuts\": {},\n  \"outage_run_secs\": {:.4},\n  \"outage_throughput_tps\": {:.0},\n  \"outage_retries\": {},\n  \"ingest_shards\": {},\n  \"ingest_transactions\": {},\n  \"ingest_secs\": {:.4},\n  \"ingest_tps\": {:.0},\n  \"session_footprint_bytes\": {},\n  \"measured_report_bytes\": {}\n}}\n",
        bundle.len(),
        plan.len(),
        SEEDS,
        cores,
        PARALLEL_THREADS,
        serial_secs,
        parallel_secs,
        speedup,
        assertion,
        sim_secs,
        sim_tps,
        sim_events_per_sec,
        OPEN_LOOP_RATE,
        open_secs,
        open_tps,
        open_timeout_cuts,
        outage_secs,
        outage_tps,
        outage_retries,
        INGEST_SHARDS,
        ingest_records,
        ingest_secs,
        ingest_tps,
        session_footprint_bytes,
        measured_report_bytes,
    );
    let out_path = std::env::var("BENCH_PLAN_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_plan.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out_path, &json).expect("write BENCH_plan.json");
    eprintln!("plan_parallel: speedup {speedup:.2}× on {cores} core(s) — {assertion}");
    eprintln!(
        "sim: {sim_tps:.0} tx/s closed loop ({sim_events_per_sec:.0} events/s), \
         {open_tps:.0} tx/s open loop ({open_timeout_cuts} timeout cuts), \
         {outage_tps:.0} tx/s under outage ({outage_retries} retries)"
    );
    eprintln!(
        "ingest: {ingest_tps:.0} tx/s over {INGEST_SHARDS} shards \
         ({ingest_records} records; session {session_footprint_bytes} B, \
         measured report {measured_report_bytes} B)"
    );
    eprintln!("results recorded to {out_path}");
}

criterion_group!(benches, bench_plan_parallel);
criterion_main!(benches);
