//! End-to-end pipeline cost (paper Figure 5's workflow): simulate a
//! workload, extract the blockchain log, derive metrics, mine the model,
//! and produce recommendations. This is the cost a user pays to run
//! BlockOptR over a 2 000-transaction chain.

use blockoptr::session::Analyzer;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;
use workload::spec::ControlVariables;

fn bench_pipeline(c: &mut Criterion) {
    let cv = ControlVariables {
        transactions: 2_000,
        ..Default::default()
    };
    let bundle = workload::synthetic::generate(&cv);

    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);

    group.bench_function("simulate_2k", |b| {
        b.iter(|| black_box(bundle.run(cv.network_config())))
    });

    let output = bundle.run(cv.network_config());
    group.bench_function("analyze_2k", |b| {
        b.iter(|| black_box(Analyzer::new().analyze_ledger(&output.ledger).unwrap()))
    });

    group.bench_function("simulate_and_analyze_2k", |b| {
        b.iter_batched(
            || bundle.clone(),
            |bundle| {
                let out = bundle.run(cv.network_config());
                black_box(Analyzer::new().analyze_ledger(&out.ledger).unwrap())
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
