//! Criterion benchmarks for the KV bookkeeping on the serving hot path:
//! a full prefix cache evicting its least-recently-used entry and
//! republishing a context, and a full capacity tier dropping its LRU
//! record to take a spill. Both run at 1k and 10k resident entries, so
//! a victim search that grows with the entry count shows as a gap
//! between the two sizes.

use criterion::{criterion_group, criterion_main, Criterion};
use papi_kv::{KvBlockPool, KvTier, PrefixTree};
use std::hint::black_box;

const BLOCK: u64 = 16;

/// A prefix cache of `entries` one-block entries (keys `0..entries`),
/// each held by the cache alone, over a pool with one spare block.
fn full_prefix_cache(entries: u64) -> (KvBlockPool, PrefixTree) {
    let mut pool = KvBlockPool::new(BLOCK, entries + 1);
    let mut tree = PrefixTree::new();
    for key in 0..entries {
        let mut seq = pool.new_seq();
        assert!(pool.append(&mut seq, BLOCK));
        assert!(tree.publish(key, seq.blocks(), BLOCK, &mut pool));
        pool.release_seq(seq);
    }
    (pool, tree)
}

fn bench_prefix_evict_republish(c: &mut Criterion) {
    for entries in [1_000u64, 10_000] {
        let name = format!("prefix_evict_republish_{}k", entries / 1_000);
        c.bench_function(&name, |b| {
            let (mut pool, mut tree) = full_prefix_cache(entries);
            b.iter(|| {
                // Evict the coldest context and publish it again as
                // the newest: the cache stays full, the order cycles.
                let evicted = tree.evict_lru_entry(&mut pool).expect("full cache");
                let mut seq = pool.new_seq();
                assert!(pool.append(&mut seq, BLOCK));
                tree.publish(evicted.key, seq.blocks(), BLOCK, &mut pool);
                pool.release_seq(seq);
                black_box(evicted)
            })
        });
    }
}

fn bench_tier_spill_at_full_budget(c: &mut Criterion) {
    for entries in [1_000u64, 10_000] {
        let name = format!("tier_spill_full_{}k", entries / 1_000);
        c.bench_function(&name, |b| {
            let mut tier = KvTier::new(BLOCK, entries);
            for key in 0..entries {
                assert!(tier.spill(key, BLOCK).accepted);
            }
            let mut next = entries;
            b.iter(|| {
                // Every spill of a fresh key drops the LRU record.
                let outcome = tier.spill(next, BLOCK);
                next += 1;
                black_box(outcome)
            })
        });
    }
}

criterion_group!(
    benches,
    bench_prefix_evict_republish,
    bench_tier_spill_at_full_budget
);
criterion_main!(benches);
