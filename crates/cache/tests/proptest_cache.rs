//! Property-based tests of the LRU/admission core: capacity is a hard
//! ceiling under arbitrary operation interleavings, get-after-put round
//! trips, and concurrent hammering neither panics nor deadlocks.

use af_cache::{Cache, CacheBuilder, FnWeigher};
use proptest::prelude::*;
use std::sync::Arc;

/// Applies a random op sequence to a size-weighed cache and a reference
/// model, checking the invariants after every step.
fn run_ops(capacity: u64, shards: usize, ops: &[(u8, u64, u8)]) {
    let cache: Cache<u64, Vec<u8>> = CacheBuilder::new("prop")
        .capacity_bytes(capacity)
        .shards(shards)
        .build_weighed(FnWeigher(|_k: &u64, v: &Vec<u8>| v.len() as u64));
    // Model: key → value it must hold *if present*. LRU may evict at will,
    // so presence is not asserted — but a present value must be the last
    // one inserted, and totals must respect the bound.
    let mut last_put: std::collections::HashMap<u64, Vec<u8>> = std::collections::HashMap::new();
    for &(kind, key, size) in ops {
        match kind % 3 {
            0 | 1 => {
                let value = vec![key as u8; size as usize];
                last_put.insert(key, value.clone());
                cache.insert(key, value);
            }
            _ => {
                if let Some(got) = cache.get(&key) {
                    assert_eq!(
                        Some(&got),
                        last_put.get(&key),
                        "hit must return the last inserted value for key {key}"
                    );
                }
            }
        }
        assert!(
            cache.bytes() <= cache.capacity(),
            "bytes {} exceeded capacity {}",
            cache.bytes(),
            cache.capacity()
        );
    }
    let s = cache.stats();
    assert_eq!(s.entries, cache.len());
    assert!(s.insertions <= ops.len() as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn capacity_is_never_exceeded(
        capacity in 1u64..512,
        shards in 1usize..8,
        ops in prop::collection::vec((0u8..3, 0u64..32, 0u8..64), 0..200),
    ) {
        run_ops(capacity, shards, &ops);
    }

    #[test]
    fn get_after_put_round_trips(
        keys in prop::collection::vec(0u64..1000, 1..50),
    ) {
        // Capacity comfortably above the working set: every put must be
        // readable back verbatim.
        let cache: Cache<u64, u64> = CacheBuilder::new("prop-rt")
            .capacity_bytes(4096)
            .build();
        for &k in &keys {
            cache.insert(k, k.wrapping_mul(31));
        }
        for &k in &keys {
            prop_assert_eq!(cache.get(&k), Some(k.wrapping_mul(31)));
        }
    }

    #[test]
    fn concurrent_hammering_never_panics_or_deadlocks(
        seed in 0u64..1000,
        n_threads in 2usize..6,
    ) {
        let cache: Arc<Cache<u64, Vec<u8>>> = Arc::new(
            CacheBuilder::new("prop-conc")
                .capacity_bytes(2048)
                .shards(4)
                .build_weighed(FnWeigher(|_k: &u64, v: &Vec<u8>| v.len() as u64)),
        );
        std::thread::scope(|scope| {
            for t in 0..n_threads {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    let mut x = seed.wrapping_add(t as u64).wrapping_mul(2862933555777941757).wrapping_add(1);
                    for _ in 0..500u64 {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        let key = x % 64;
                        match x % 4 {
                            0 | 1 => cache.insert(key, vec![key as u8; (x % 48) as usize]),
                            2 => {
                                if let Some(v) = cache.get(&key) {
                                    assert!(v.iter().all(|&b| b == key as u8));
                                }
                            }
                            _ => {
                                let v = cache.get_or_insert_with(key, || vec![key as u8; 8]);
                                assert!(v.iter().all(|&b| b == key as u8));
                            }
                        }
                        assert!(
                            cache.bytes() <= cache.capacity(),
                            "capacity bound violated under concurrency"
                        );
                    }
                });
            }
        });
        // Post-quiescence the strict bound must hold.
        prop_assert!(cache.bytes() <= cache.capacity());
    }
}
