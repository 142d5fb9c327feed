//! Property tests for the consistent-hash ring the whole fleet agrees on.
//!
//! Three properties make sharded serving safe: the ring spreads keys
//! evenly (no hot shard), it is a pure function of `(shards, vnodes,
//! seed)` (every process derives the same topology), and removing a shard
//! moves only that shard's keys (failover does not reshuffle the fleet).

use bdc_cluster::breaker::MIN_SAMPLES;
use bdc_cluster::cluster::{key_slot, Ring, DEFAULT_VNODES};
use bdc_cluster::{Breaker, BreakerDecision};
use proptest::prelude::*;

/// How many synthetic keys each property samples the ring with.
const KEYS: u64 = 1_000;

fn owners(ring: &Ring, keys: u64) -> Vec<usize> {
    (0..keys).map(|k| ring.owner(key_slot(k))).collect()
}

proptest! {
    /// Balance: at 1k keys and 128 vnodes, the busiest shard carries at
    /// most 3x the quietest. (The bound is deliberately loose — it guards
    /// against a broken hash collapsing the ring, not against the normal
    /// variance of consistent hashing.)
    #[test]
    fn ring_load_is_bounded(shards in 2usize..=8, seed in any::<u64>()) {
        let ring = Ring::new(shards, DEFAULT_VNODES, seed);
        let mut load = vec![0u64; shards];
        for owner in owners(&ring, KEYS) {
            load[owner] += 1;
        }
        let max = *load.iter().max().unwrap();
        let min = *load.iter().min().unwrap();
        prop_assert!(min > 0, "a shard received zero keys: {load:?}");
        prop_assert!(
            (max as f64) / (min as f64) <= 3.0,
            "load ratio {max}/{min} exceeds 3.0 for {shards} shards seed {seed}: {load:?}"
        );
    }

    /// Determinism: the ring is a pure function of its parameters — two
    /// independently constructed rings (as router and workers construct
    /// them, in different processes and regardless of `BDC_WORKERS`)
    /// assign every key identically.
    #[test]
    fn ring_is_deterministic(shards in 1usize..=8, seed in any::<u64>()) {
        let a = Ring::new(shards, DEFAULT_VNODES, seed);
        let b = Ring::new(shards, DEFAULT_VNODES, seed);
        prop_assert_eq!(a.shard_ids(), b.shard_ids());
        prop_assert_eq!(owners(&a, KEYS), owners(&b, KEYS));
    }

    /// Minimal remap: dropping one shard moves only the keys it owned —
    /// every key owned by a surviving shard keeps its owner, and the
    /// moved fraction stays well under 2/N.
    #[test]
    fn removal_moves_only_the_lost_shards_keys(
        shards in 3usize..=8,
        seed in any::<u64>(),
        victim_pick in any::<u64>(),
    ) {
        let victim = (victim_pick % shards as u64) as usize;
        let full = Ring::new(shards, DEFAULT_VNODES, seed);
        let reduced = full.without(victim, DEFAULT_VNODES, seed);
        prop_assert_eq!(reduced.shard_ids().len(), shards - 1);

        let mut moved = 0u64;
        for key in 0..KEYS {
            let slot = key_slot(key);
            let before = full.owner(slot);
            let after = reduced.owner(slot);
            if before == victim {
                moved += 1;
                prop_assert_ne!(after, victim);
            } else {
                prop_assert_eq!(
                    before, after,
                    "key {} owned by surviving shard {} moved to {}",
                    key, before, after
                );
            }
        }
        let bound = (2.0 / shards as f64) * KEYS as f64;
        prop_assert!(
            (moved as f64) < bound,
            "{moved} of {KEYS} keys moved; bound {bound:.0} (shards {shards}, seed {seed})"
        );
    }

    /// The failover order is the ring's replica walk: the first replica is
    /// the owner, all replicas are distinct, and every shard appears.
    #[test]
    fn replicas_start_at_the_owner_and_cover_the_fleet(
        shards in 1usize..=8,
        seed in any::<u64>(),
        key in any::<u64>(),
    ) {
        let ring = Ring::new(shards, DEFAULT_VNODES, seed);
        let slot = key_slot(key);
        let reps = ring.replicas(slot);
        prop_assert_eq!(reps.len(), shards);
        prop_assert_eq!(reps[0], ring.owner(slot));
        let mut sorted = reps.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), shards, "duplicate replica in {reps:?}");
    }

    /// Breaker failover preserves coverage: for any pattern of open
    /// breakers short of the whole fleet, walking the replica order and
    /// skipping open shards (exactly what the router's proxy loop does)
    /// still lands on a healthy shard — and on the *first* healthy shard
    /// in ring order, so two routers with the same breaker state agree.
    #[test]
    fn breaker_skips_preserve_replica_coverage(
        shards in 2usize..=8,
        seed in any::<u64>(),
        key in any::<u64>(),
        open_mask in any::<u8>(),
    ) {
        let open: Vec<bool> = (0..shards).map(|s| (open_mask >> s) & 1 == 1).collect();
        prop_assume!(open.iter().any(|o| !o));
        let breakers: Vec<Breaker> = (0..shards).map(|_| Breaker::default()).collect();
        for (s, is_open) in open.iter().enumerate() {
            if *is_open {
                for _ in 0..MIN_SAMPLES {
                    breakers[s].record(false, true, 0);
                }
                prop_assert!(breakers[s].is_open(), "shard {s} failed to open");
            }
        }
        let ring = Ring::new(shards, DEFAULT_VNODES, seed);
        let reps = ring.replicas(key_slot(key));
        let chosen = reps
            .iter()
            .copied()
            .find(|&s| breakers[s].decide() == BreakerDecision::Allow);
        let expected = reps.iter().copied().find(|&s| !open[s]);
        prop_assert_eq!(
            chosen, expected,
            "replica walk over {:?} with open set {:?} must land on the first healthy shard",
            reps, open
        );
    }
}
