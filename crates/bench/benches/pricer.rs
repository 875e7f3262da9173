//! Criterion benchmarks for iteration pricing: the cold analytic path
//! (per-shape legs from the pricer's memo plus the KV-length attention
//! arithmetic per call) versus the fleet-shared direct-mapped memo the
//! cluster loop installs. Single-replica serving prices every iteration
//! cold, so `price_iteration_cold*` is that loop's pricing cost;
//! `price_iteration_cold_speculative` mirrors a PAPI replica's key mix
//! (speculative TLP, FC placement switching). The memoized case is the
//! floor a fleet's hits run at.

use criterion::{criterion_group, criterion_main, Criterion};
use papi_core::pricer::SharedIterationCache;
use papi_core::{IterationPricer, SystemConfig};
use papi_llm::ModelPreset;
use papi_sched::Placement;
use papi_workload::IterationRecord;
use std::hint::black_box;
use std::sync::Arc;

/// A decode-shaped sweep: single-request lanes with a sliding KV
/// length, the key distribution a serving fleet actually prices.
fn records() -> Vec<IterationRecord> {
    (0..256u64)
        .map(|i| IterationRecord {
            rlp: 1 + i % 4,
            tlp: 1,
            total_kv_len: 600 + i * 7 % 1000,
            max_kv_len: 600 + i * 7 % 1000,
            new_tokens: 1 + i % 4,
            finished: 0,
        })
        .collect()
}

fn bench_price_cold(c: &mut Criterion) {
    let config = SystemConfig::pim_only_papi(ModelPreset::Llama65B.config());
    let records = records();
    c.bench_function("price_iteration_cold", |b| {
        let mut pricer = IterationPricer::new(&config);
        b.iter(|| {
            let mut acc = 0.0;
            for it in &records {
                acc += pricer
                    .price_iteration(Placement::FcPim, black_box(it))
                    .total_time()
                    .value();
            }
            black_box(acc)
        })
    });
}

/// A speculative PAPI replica's mix: RLP 1..32, TLP 1..4, FC placement
/// on both pools, a sliding KV length.
fn speculative_records() -> Vec<(Placement, IterationRecord)> {
    (0..256u64)
        .map(|i| {
            let (rlp, tlp) = (1 + i * 5 % 32, 1 + i / 3 % 4);
            let kv = 600 + i * 7 % 1000;
            let placement = if i % 2 == 0 {
                Placement::FcPim
            } else {
                Placement::Pu
            };
            let it = IterationRecord {
                rlp,
                tlp,
                total_kv_len: rlp * kv,
                max_kv_len: kv,
                new_tokens: rlp * tlp,
                finished: 0,
            };
            (placement, it)
        })
        .collect()
}

fn bench_price_cold_speculative(c: &mut Criterion) {
    let config = SystemConfig::papi(ModelPreset::Llama65B.config());
    let records = speculative_records();
    c.bench_function("price_iteration_cold_speculative", |b| {
        let mut pricer = IterationPricer::new(&config);
        b.iter(|| {
            let mut acc = 0.0;
            for (placement, it) in &records {
                acc += pricer
                    .price_iteration(*placement, black_box(it))
                    .total_time()
                    .value();
            }
            black_box(acc)
        })
    });
}

fn bench_price_memoized(c: &mut Criterion) {
    let config = SystemConfig::pim_only_papi(ModelPreset::Llama65B.config());
    let records = records();
    c.bench_function("price_iteration_memoized", |b| {
        let mut pricer = IterationPricer::new(&config);
        pricer.set_shared_cache(Arc::new(SharedIterationCache::new()));
        // Warm every shape so the timed loop measures pure hits.
        for it in &records {
            pricer.price_iteration(Placement::FcPim, it);
        }
        b.iter(|| {
            let mut acc = 0.0;
            for it in &records {
                acc += pricer
                    .price_iteration(Placement::FcPim, black_box(it))
                    .total_time()
                    .value();
            }
            black_box(acc)
        })
    });
}

criterion_group!(
    benches,
    bench_price_cold,
    bench_price_cold_speculative,
    bench_price_memoized
);
criterion_main!(benches);
