//! Rendezvous (highest-random-weight) hashing over named members.
//!
//! [`Ring`] deterministically assigns keys to a set of member ids: every
//! observer with the same member set agrees on the owner of every key, with
//! no coordination and no stored assignment table. The construction is the
//! classic HRW scheme — score every `(member, key)` pair with a stable
//! 128-bit content hash and pick the member with the highest score — which
//! gives the two properties a fleet needs from its request router and its
//! distributed cache tier:
//!
//! - **Minimal disruption.** Removing a member only reassigns the keys that
//!   member owned (they fall to their second-ranked member); every other
//!   key keeps its owner, so warm cache entries survive membership churn.
//!   Adding a member only steals the keys the newcomer now wins.
//! - **Balance.** Scores are i.i.d. uniform per member, so load splits
//!   evenly in expectation across any member count.
//!
//! [`Ring::ranked`] returns the full preference order, which doubles as the
//! replica list: the first entry is the owner, the second is the
//! retry-on-other-replica target when the owner is unreachable.
//!
//! Hashing goes through [`ContentHasher`](crate::ContentHasher), whose
//! output is pinned by golden vectors — assignments are stable across
//! platforms and workspace versions, which the fleet smoke tests rely
//! on.

use crate::ContentHasher;

/// Deterministic rendezvous-hash ring over string member ids.
///
/// # Examples
///
/// ```
/// use af_cache::ring::Ring;
///
/// let ring = Ring::new(["a", "b", "c"]);
/// let owner = ring.assign(b"some-key").unwrap().to_string();
/// // Same members (any insertion order) => same owner.
/// let again = Ring::new(["c", "a", "b"]);
/// assert_eq!(again.assign(b"some-key").unwrap(), owner);
/// // Removing a *different* member never moves the key.
/// let mut smaller = ring.clone();
/// let other = ring
///     .members()
///     .iter()
///     .find(|m| **m != owner)
///     .unwrap()
///     .clone();
/// smaller.remove(&other);
/// assert_eq!(smaller.assign(b"some-key").unwrap(), owner);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Ring {
    /// Sorted, deduplicated member ids. Sorting makes construction-order
    /// irrelevant so two observers building from the same set agree.
    members: Vec<String>,
}

impl Ring {
    /// Builds a ring from an iterator of member ids (duplicates collapse).
    pub fn new<I, S>(members: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut ring = Self {
            members: members.into_iter().map(Into::into).collect(),
        };
        ring.members.sort();
        ring.members.dedup();
        ring
    }

    /// The current member ids, sorted.
    #[must_use]
    pub fn members(&self) -> &[String] {
        &self.members
    }

    /// Number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the ring has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Adds a member (no-op if already present). Returns `true` when added.
    pub fn add(&mut self, id: &str) -> bool {
        match self.members.binary_search_by(|m| m.as_str().cmp(id)) {
            Ok(_) => false,
            Err(pos) => {
                self.members.insert(pos, id.to_string());
                true
            }
        }
    }

    /// Removes a member. Returns `true` when it was present.
    pub fn remove(&mut self, id: &str) -> bool {
        match self.members.binary_search_by(|m| m.as_str().cmp(id)) {
            Ok(pos) => {
                self.members.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// The rendezvous score of `(member, key)`: uniform per pair, stable
    /// forever. Ties (astronomically unlikely with 128-bit scores) break by
    /// member id so the ranking is still a total order.
    fn score(member: &str, key: &[u8]) -> [u64; 2] {
        let mut h = ContentHasher::new();
        h.write_str("af-fleet.ring.v1");
        h.write_str(member);
        h.write(key);
        h.finish().0
    }

    /// The owner of `key`, or `None` on an empty ring.
    #[must_use]
    pub fn assign(&self, key: &[u8]) -> Option<&str> {
        self.members
            .iter()
            .max_by(|a, b| {
                Self::score(a, key)
                    .cmp(&Self::score(b, key))
                    .then_with(|| a.cmp(b))
            })
            .map(String::as_str)
    }

    /// The top-`n` members for `key` in preference order (owner first).
    /// Returns fewer than `n` when the ring is smaller.
    #[must_use]
    pub fn ranked(&self, key: &[u8], n: usize) -> Vec<&str> {
        let mut scored: Vec<(_, &str)> = self
            .members
            .iter()
            .map(|m| (Self::score(m, key), m.as_str()))
            .collect();
        // Descending by score, id as the (unreachable) tiebreak.
        scored.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(b.1)));
        scored.into_iter().take(n).map(|(_, m)| m).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn keys(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("key-{i}").into_bytes()).collect()
    }

    fn counts(ring: &Ring, keys: &[Vec<u8>]) -> HashMap<String, usize> {
        let mut out = HashMap::new();
        for k in keys {
            *out.entry(ring.assign(k).unwrap().to_string()).or_insert(0) += 1;
        }
        out
    }

    #[test]
    fn empty_ring_assigns_nothing() {
        let ring = Ring::default();
        assert!(ring.is_empty());
        assert_eq!(ring.assign(b"k"), None);
        assert!(ring.ranked(b"k", 2).is_empty());
    }

    #[test]
    fn assignment_is_deterministic_and_order_free() {
        let a = Ring::new(["w1", "w2", "w3", "w4"]);
        let b = Ring::new(["w4", "w2", "w1", "w3", "w2"]);
        for k in keys(200) {
            assert_eq!(a.assign(&k), b.assign(&k));
            assert_eq!(a.ranked(&k, 4), b.ranked(&k, 4));
        }
    }

    #[test]
    fn ranked_owner_matches_assign_and_is_a_permutation() {
        let ring = Ring::new(["w1", "w2", "w3"]);
        for k in keys(50) {
            let ranked = ring.ranked(&k, 8);
            assert_eq!(ranked.len(), 3, "ranked caps at ring size");
            assert_eq!(ranked[0], ring.assign(&k).unwrap());
            let mut sorted: Vec<_> = ranked.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, ["w1", "w2", "w3"]);
        }
    }

    #[test]
    fn balance_within_20_percent_for_2_to_8_members() {
        let ks = keys(4000);
        for n in 2..=8usize {
            let ring = Ring::new((0..n).map(|i| format!("worker-{i}")));
            let by = counts(&ring, &ks);
            let ideal = ks.len() as f64 / n as f64;
            for (m, c) in &by {
                let dev = (*c as f64 - ideal).abs() / ideal;
                assert!(
                    dev <= 0.20,
                    "member {m} holds {c} of {} keys at n={n} ({:.1}% off ideal)",
                    ks.len(),
                    dev * 100.0
                );
            }
            assert_eq!(by.len(), n, "every member owns some keys at n={n}");
        }
    }

    #[test]
    fn removal_remaps_only_the_removed_members_keys() {
        let ring = Ring::new(["w1", "w2", "w3", "w4", "w5"]);
        let ks = keys(1000);
        for gone in ring.members().to_vec() {
            let mut smaller = ring.clone();
            assert!(smaller.remove(&gone));
            for k in &ks {
                let before = ring.assign(k).unwrap();
                let after = smaller.assign(k).unwrap();
                if before == gone {
                    // Orphaned keys fall to their second-ranked member.
                    assert_eq!(after, ring.ranked(k, 2)[1]);
                } else {
                    assert_eq!(after, before, "unrelated key moved off {before}");
                }
            }
        }
    }

    #[test]
    fn add_is_the_inverse_of_remove() {
        let mut ring = Ring::new(["w1", "w2", "w3"]);
        let ks = keys(300);
        let before: Vec<_> = ks
            .iter()
            .map(|k| ring.assign(k).unwrap().to_string())
            .collect();
        assert!(ring.remove("w2"));
        assert!(!ring.remove("w2"), "double-remove is a no-op");
        assert!(ring.add("w2"));
        assert!(!ring.add("w2"), "double-add is a no-op");
        for (k, want) in ks.iter().zip(&before) {
            assert_eq!(ring.assign(k).unwrap(), want);
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Builds `n` distinct member ids salted so different cases exercise
        /// different id sets (and therefore different score landscapes).
        fn members(n: usize, salt: u64) -> Vec<String> {
            (0..n).map(|i| format!("m{salt:x}-{i}")).collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn assignment_deterministic_under_shuffle(
                n in 2usize..=8,
                salt in 0u64..1_000_000,
                key in prop::collection::vec(0u8..=255, 0..64),
                rot in 0usize..8,
            ) {
                let ids = members(n, salt);
                let a = Ring::new(ids.clone());
                let mut shuffled = ids;
                let len = shuffled.len();
                shuffled.rotate_left(rot % len);
                let b = Ring::new(shuffled);
                prop_assert_eq!(a.assign(&key), b.assign(&key));
                prop_assert_eq!(a.ranked(&key, n), b.ranked(&key, n));
            }

            #[test]
            fn balanced_within_20_percent(n in 2usize..=8, salt in 0u64..1_000_000) {
                let ring = Ring::new(members(n, salt));
                let ks = keys(4000);
                let by = counts(&ring, &ks);
                let ideal = ks.len() as f64 / n as f64;
                for c in by.values() {
                    let dev = (*c as f64 - ideal).abs() / ideal;
                    prop_assert!(dev <= 0.20, "deviation {:.3} at n={}", dev, n);
                }
            }

            #[test]
            fn removal_minimal_remap(
                n in 2usize..=8,
                salt in 0u64..1_000_000,
                victim in 0usize..8,
            ) {
                let ring = Ring::new(members(n, salt));
                let gone = ring.members()[victim % n].to_string();
                let mut smaller = ring.clone();
                smaller.remove(&gone);
                for k in keys(500) {
                    let before = ring.assign(&k).unwrap();
                    if before == gone {
                        // Orphans fall to their second choice (if any remain).
                        if let Some(after) = smaller.assign(&k) {
                            prop_assert_eq!(after, ring.ranked(&k, 2)[1]);
                        }
                    } else {
                        prop_assert_eq!(smaller.assign(&k).unwrap(), before);
                    }
                }
            }
        }
    }
}
