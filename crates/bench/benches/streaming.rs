//! Streaming versus batch analysis cost — the asymptotic argument for the
//! session API: a monitoring loop that re-analyzes after every window pays
//!
//! * **batch** (`Analyzer::analyze_ledger` per window): O(total log) per
//!   window — the per-window cost *grows* with chain length;
//! * **streaming** (`Session::ingest_block` + `snapshot`): O(new data) per
//!   ingest plus O(state) per snapshot — the per-window cost stays flat.
//!
//! The `..._at_2k` / `..._at_10k` pairs make that visible: batch cost rises
//! roughly with the prefix length, streaming cost does not.

use blockoptr::session::{Analyzer, Session};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use fabric_sim::ledger::Ledger;
use std::hint::black_box;
use workload::spec::ControlVariables;

/// A 12k-transaction chain; windows are cut at block granularity.
fn chain() -> Ledger {
    let cv = ControlVariables {
        transactions: 12_000,
        ..Default::default()
    };
    workload::synthetic::generate(&cv)
        .run(cv.network_config())
        .ledger
}

/// A ledger holding the first `blocks` blocks of `full`.
fn prefix(full: &Ledger, blocks: usize) -> Ledger {
    let mut out = Ledger::new();
    for block in &full.blocks()[..blocks] {
        out.append(block.clone());
    }
    out
}

/// A session that has already ingested the first `blocks` blocks.
fn warm_session(full: &Ledger, blocks: usize) -> Session {
    let mut session = Analyzer::new().session().expect("default interval");
    for block in &full.blocks()[..blocks] {
        session.ingest_block(block);
    }
    session
}

fn bench_streaming(c: &mut Criterion) {
    let full = chain();
    let total_blocks = full.blocks().len();
    let window = 5usize.min(total_blocks);
    let small = total_blocks / 6; // ~2k transactions deep
    let large = total_blocks - window; // ~12k transactions deep

    let mut group = c.benchmark_group("streaming_vs_batch");
    group.sample_size(10);

    // Batch path: the monitoring loop re-runs the full pipeline over the
    // whole prefix every window.
    for (label, depth) in [
        ("batch_window_at_2k", small),
        ("batch_window_at_12k", large),
    ] {
        let ledger = prefix(&full, depth + window);
        group.bench_function(label, |b| {
            b.iter(|| black_box(Analyzer::new().analyze_ledger(&ledger).unwrap()))
        });
    }

    // Streaming path: ingest one window of new blocks, snapshot. The warm
    // session is rebuilt from scratch by the setup closure (outside the
    // timed region) so its copy-on-write state is unshared, exactly like a
    // long-running monitoring loop's session.
    for (label, depth) in [
        ("stream_window_at_2k", small),
        ("stream_window_at_12k", large),
    ] {
        let new_blocks = &full.blocks()[depth..depth + window];
        group.bench_function(label, |b| {
            b.iter_batched(
                || warm_session(&full, depth),
                |mut session| {
                    for block in new_blocks {
                        session.ingest_block(block);
                    }
                    let analysis = black_box(session.snapshot().expect("non-empty"));
                    // Hand both back so their destruction is not timed.
                    (session, analysis)
                },
                BatchSize::LargeInput,
            )
        });
    }

    group.finish();
}

criterion_group!(benches, bench_streaming);
criterion_main!(benches);
