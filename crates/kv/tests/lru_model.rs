//! Model-based property tests for the LRU victims of [`PrefixTree`]
//! and [`KvTier`].
//!
//! Both structures pick their eviction victim from an ordered recency
//! index. The reference models below keep the straightforward
//! implementation instead: the same bookkeeping, with the victim found
//! by a full `min_by_key` scan over `(last_use, key)`. Random operation
//! sequences drive a real structure and its reference side by side,
//! each over its own identically-driven [`KvBlockPool`], and every
//! observable result must match after every operation.

use papi_kv::{BlockId, EvictedPrefix, KvBlockPool, KvSeq, KvTier, PrefixTree, SpillOutcome};
use proptest::prelude::*;
use std::collections::HashMap;

/// Prefix keys the operations draw from: small, so re-publishes, fork
/// hits and fork misses all happen.
const KEYS: u64 = 8;

/// The prefix cache as a plain map: the victim is found by a scan.
#[derive(Default)]
struct ScanPrefixTree {
    nodes: HashMap<u64, (Vec<BlockId>, u64)>,
    tick: u64,
}

impl ScanPrefixTree {
    fn fork(&mut self, key: u64, want_tokens: u64, pool: &mut KvBlockPool) -> Option<KvSeq> {
        self.tick += 1;
        let (blocks, last_use) = self.nodes.get_mut(&key)?;
        let usable = (blocks.len() as u64).min(want_tokens / pool.block_size()) as usize;
        if usable == 0 {
            return None;
        }
        *last_use = self.tick;
        Some(pool.fork_prefix(&blocks[..usable]))
    }

    fn publish(&mut self, key: u64, held: &[BlockId], tokens: u64, pool: &mut KvBlockPool) -> bool {
        let full = (tokens / pool.block_size()) as usize;
        self.tick += 1;
        let (blocks, last_use) = self.nodes.entry(key).or_default();
        *last_use = self.tick;
        if full <= blocks.len() {
            return false;
        }
        for &b in &held[blocks.len()..full] {
            pool.retain(b);
            pool.track(b);
            blocks.push(b);
        }
        true
    }

    fn evict_lru_entry(&mut self, pool: &mut KvBlockPool) -> Option<EvictedPrefix> {
        let victim = self
            .nodes
            .iter()
            .min_by_key(|(key, (_, last_use))| (*last_use, **key))
            .map(|(key, _)| *key)?;
        let (blocks, _) = self.nodes.remove(&victim).expect("victim exists");
        for &b in &blocks {
            pool.untrack(b);
        }
        Some(EvictedPrefix {
            key: victim,
            tokens: blocks.len() as u64 * pool.block_size(),
            blocks: blocks.len() as u64,
            freed: pool.release_blocks(&blocks),
        })
    }

    fn clear(&mut self, pool: &mut KvBlockPool) {
        while self.evict_lru_entry(pool).is_some() {}
    }

    fn cached_blocks(&self) -> u64 {
        self.nodes.values().map(|(b, _)| b.len() as u64).sum()
    }
}

/// A live sequence on both sides: the real tree's pool and the
/// reference's pool are driven identically, so the two copies hold the
/// same block ids.
struct Live {
    /// The prefix key the sequence publishes under — the key it forked
    /// from, as in serving, so no block is ever cached under two keys
    /// (the pool's evictable-block counter relies on that).
    key: u64,
    real: KvSeq,
    scan: KvSeq,
}

fn check_prefix(
    tree: &PrefixTree,
    pool: &KvBlockPool,
    scan: &ScanPrefixTree,
    scan_pool: &KvBlockPool,
    live: &[Live],
) {
    assert_eq!(tree.len(), scan.nodes.len());
    assert_eq!(tree.cached_blocks(), scan.cached_blocks());
    assert_eq!(pool.stats(), scan_pool.stats());
    assert_eq!(pool.blocks_in_use(), scan_pool.blocks_in_use());
    assert_eq!(
        tree.evictable_blocks(pool),
        scan_pool.tracked_exclusive_blocks()
    );
    // Same entries (the lengths match, and every reference entry is
    // cached at the same length): the victims were the same.
    for (&key, (blocks, _)) in &scan.nodes {
        let tokens = blocks.len() as u64 * pool.block_size();
        assert_eq!(tree.peek(key, u64::MAX, pool), tokens, "key {key}");
    }
    for l in live {
        assert_eq!(l.real.blocks(), l.scan.blocks());
    }
}

fn run_prefix_ops(block_size: u64, total_blocks: u64, ops: &[(u8, u64)]) {
    let mut pool = KvBlockPool::new(block_size, total_blocks);
    let mut scan_pool = KvBlockPool::new(block_size, total_blocks);
    let mut tree = PrefixTree::new();
    let mut scan = ScanPrefixTree::default();
    let mut live: Vec<Live> = Vec::new();
    for &(op, arg) in ops {
        match op {
            // Open a live sequence of up to 99 tokens (a full pool
            // refuses on both sides alike).
            0 => {
                let (mut real, mut scan_seq) = (pool.new_seq(), scan_pool.new_seq());
                let tokens = arg % 100;
                assert_eq!(
                    pool.append(&mut real, tokens),
                    scan_pool.append(&mut scan_seq, tokens)
                );
                live.push(Live {
                    key: arg % KEYS,
                    real,
                    scan: scan_seq,
                });
            }
            // Publish (a prefix of) a live sequence under its key.
            1 if !live.is_empty() => {
                let l = &live[arg as usize % live.len()];
                let tokens = l.real.tokens() - arg % (l.real.tokens() + 1) / 2;
                assert_eq!(
                    tree.publish(l.key, l.real.blocks(), tokens, &mut pool),
                    scan.publish(l.key, l.scan.blocks(), tokens, &mut scan_pool)
                );
            }
            // Fork, hit or miss (unknown key, or a share under one
            // block); a hit becomes a live holder of the cached blocks.
            2 => {
                let key = (arg / 3) % KEYS;
                let want = arg * 7 % 90;
                let real = tree.fork(key, want, &mut pool);
                let scan_seq = scan.fork(key, want, &mut scan_pool);
                assert_eq!(
                    real.as_ref().map(KvSeq::tokens),
                    scan_seq.as_ref().map(KvSeq::tokens)
                );
                if let (Some(real), Some(scan_seq)) = (real, scan_seq) {
                    live.push(Live {
                        key,
                        real,
                        scan: scan_seq,
                    });
                }
            }
            // Evict the LRU entry: same victim, same accounting.
            3 => {
                assert_eq!(
                    tree.evict_lru_entry(&mut pool),
                    scan.evict_lru_entry(&mut scan_pool)
                );
            }
            // Release a live sequence.
            4 if !live.is_empty() => {
                let l = live.swap_remove(arg as usize % live.len());
                assert_eq!(pool.release_seq(l.real), scan_pool.release_seq(l.scan));
            }
            // Drop the whole cache.
            5 => {
                tree.clear(&mut pool);
                scan.clear(&mut scan_pool);
                assert!(tree.is_empty());
            }
            _ => {}
        }
        check_prefix(&tree, &pool, &scan, &scan_pool, &live);
    }
    // The cache drains in the same victim order on both sides.
    loop {
        let victim = tree.evict_lru_entry(&mut pool);
        assert_eq!(victim, scan.evict_lru_entry(&mut scan_pool));
        if victim.is_none() {
            break;
        }
        check_prefix(&tree, &pool, &scan, &scan_pool, &live);
    }
}

/// The capacity tier as a plain map: each victim is found by a scan.
struct ScanTier {
    block_size: u64,
    budget_blocks: u64,
    entries: HashMap<u64, (u64, u64)>,
    blocks_in_use: u64,
    tick: u64,
}

impl ScanTier {
    fn new(block_size: u64, budget_blocks: u64) -> Self {
        Self {
            block_size,
            budget_blocks,
            entries: HashMap::new(),
            blocks_in_use: 0,
            tick: 0,
        }
    }

    fn blocks_for(&self, tokens: u64) -> u64 {
        tokens.div_ceil(self.block_size)
    }

    /// The key the next budget-pressure drop takes, ignoring `skip`.
    fn lru_key(&self, skip: Option<u64>) -> Option<u64> {
        self.entries
            .iter()
            .filter(|(k, _)| Some(**k) != skip)
            .min_by_key(|(k, (_, last_use))| (*last_use, **k))
            .map(|(k, _)| *k)
    }

    fn spill(&mut self, key: u64, tokens: u64) -> SpillOutcome {
        let mut outcome = SpillOutcome {
            accepted: false,
            evicted_entries: 0,
            evicted_blocks: 0,
        };
        let have = self.entries.get(&key).map_or(0, |e| e.0);
        let need = self.blocks_for(tokens.max(have)) - self.blocks_for(have);
        if self.blocks_for(tokens.max(have)) > self.budget_blocks {
            return outcome;
        }
        while self.budget_blocks - self.blocks_in_use < need {
            let victim = self.lru_key(Some(key)).expect("a victim exists");
            let (dropped, _) = self.entries.remove(&victim).expect("victim exists");
            let freed = self.blocks_for(dropped);
            self.blocks_in_use -= freed;
            outcome.evicted_entries += 1;
            outcome.evicted_blocks += freed;
        }
        self.tick += 1;
        let entry = self.entries.entry(key).or_default();
        entry.0 = entry.0.max(tokens);
        entry.1 = self.tick;
        self.blocks_in_use += need;
        outcome.accepted = true;
        outcome
    }

    fn fetch(&mut self, key: u64) -> Option<u64> {
        let (tokens, _) = self.entries.remove(&key)?;
        self.blocks_in_use -= self.blocks_for(tokens);
        Some(tokens)
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.blocks_in_use = 0;
        self.tick = 0;
    }
}

fn check_tier(tier: &KvTier, scan: &ScanTier) {
    assert_eq!(tier.len(), scan.entries.len());
    assert_eq!(tier.blocks_in_use(), scan.blocks_in_use);
    assert!(tier.blocks_in_use() <= tier.budget_blocks());
    // Same survivors, same records: the victims were the same.
    for (&key, &(tokens, _)) in &scan.entries {
        assert_eq!(tier.peek(key), Some(tokens), "key {key}");
    }
}

/// Keys of the one-block entries that top the tier up to its budget.
const FILLER: u64 = 1_000;

fn run_tier_ops(block_size: u64, budget_blocks: u64, ops: &[(u8, u64)]) {
    let mut tier = KvTier::new(block_size, budget_blocks);
    let mut scan = ScanTier::new(block_size, budget_blocks);
    let mut fillers = 0u64;
    for &(op, arg) in ops {
        match op {
            // Spill under a small key: fresh inserts, shorter no-op
            // re-spills, extensions, drops and whole-budget rejections.
            0 => {
                let (key, tokens) = (arg % KEYS, arg * 7 % 450);
                assert_eq!(tier.spill(key, tokens), scan.spill(key, tokens));
            }
            // Fetch, hit or miss.
            1 => {
                let key = arg % KEYS;
                assert_eq!(tier.fetch(key), scan.fetch(key));
            }
            // Top the tier up to its full budget with fresh one-block
            // entries, then re-spill the current LRU entry, grown: the
            // drops it forces must skip the incoming key itself.
            2 => {
                while scan.blocks_in_use < scan.budget_blocks {
                    let key = FILLER + fillers;
                    fillers += 1;
                    assert_eq!(tier.spill(key, block_size), scan.spill(key, block_size));
                    check_tier(&tier, &scan);
                }
                if let Some(lru) = scan.lru_key(None) {
                    let tokens = scan.entries[&lru].0 + (1 + arg % 3) * block_size;
                    let outcome = tier.spill(lru, tokens);
                    assert_eq!(outcome, scan.spill(lru, tokens));
                    if outcome.accepted {
                        assert_eq!(tier.peek(lru), Some(tokens));
                    }
                }
            }
            // Cold restart.
            3 => {
                tier.clear();
                scan.clear();
                assert!(tier.is_empty());
            }
            _ => {}
        }
        check_tier(&tier, &scan);
    }
}

proptest! {
    #[test]
    fn prefix_tree_evicts_the_scan_victim(
        ops in proptest::collection::vec((0u8..6, 0u64..256), 1..150),
    ) {
        run_prefix_ops(16, 40, &ops);
    }

    #[test]
    fn prefix_tree_evicts_the_scan_victim_at_block_size_one(
        ops in proptest::collection::vec((0u8..6, 0u64..256), 1..150),
    ) {
        run_prefix_ops(1, 400, &ops);
    }

    /// Tier budget of 24 blocks at block 16: LRU drops, the incoming
    /// key's self-skip and whole-record rejections all fire.
    #[test]
    fn tier_drops_the_scan_victim(
        ops in proptest::collection::vec((0u8..4, 0u64..256), 1..150),
    ) {
        run_tier_ops(16, 24, &ops);
    }
}

/// The self-skip, pinned: at full budget, growing the LRU record drops
/// the next-coldest entry, never the record being grown.
#[test]
fn growing_the_lru_record_at_full_budget_drops_the_next_coldest() {
    let mut tier = KvTier::new(16, 6);
    for key in [1u64, 2, 3] {
        assert!(tier.spill(key, 32).accepted); // 2 blocks each: full
    }
    let outcome = tier.spill(1, 48); // 1 is coldest; needs 1 more block
    assert_eq!(
        outcome,
        SpillOutcome {
            accepted: true,
            evicted_entries: 1,
            evicted_blocks: 2,
        }
    );
    assert_eq!(tier.peek(1), Some(48));
    assert_eq!(tier.peek(2), None);
    assert_eq!(tier.peek(3), Some(32));
    // 1 is now the most recent, so 3 goes next.
    assert_eq!(tier.spill(4, 32).evicted_entries, 1);
    assert_eq!(tier.peek(3), None);
}
