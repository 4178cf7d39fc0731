//! Workload generators.
//!
//! Deterministic (seeded) generators for the paper's three inputs:
//! uniform random arrays for prefix sums and sample sort, and random
//! permutation linked lists for list ranking.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Sentinel marking "no successor/predecessor" in linked-list arrays.
pub const NIL: u64 = u64::MAX;

/// Uniform random `u32` values.
pub fn random_u32s(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen()).collect()
}

/// Uniform random `u64` values bounded so that a full prefix sum
/// cannot overflow (`v < 2^32`).
pub fn random_u64s(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen::<u32>() as u64).collect()
}

/// A random linked list over elements `0..n`.
///
/// Returns `(succ, pred, head)`: `succ[e]` is the element after `e`
/// in list order (`NIL` for the tail), `pred[e]` the element before
/// (`NIL` for the head). The list visits every element exactly once
/// in a uniformly random order, so consecutive list neighbors land on
/// unrelated processors under a block distribution — the paper's
/// "canonical problem ... with large amount of irregular
/// communication".
pub fn random_list(n: usize, seed: u64) -> (Vec<u64>, Vec<u64>, usize) {
    assert!(n >= 1);
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    order.shuffle(&mut rng);
    let mut succ = vec![NIL; n];
    let mut pred = vec![NIL; n];
    for w in order.windows(2) {
        succ[w[0]] = w[1] as u64;
        pred[w[1]] = w[0] as u64;
    }
    (succ, pred, order[0])
}

/// A "sorted-ish" adversarial input for sample sort: nearly sorted
/// with a sprinkle of inversions (stress for pivot quality).
#[cfg(test)]
pub(crate) fn nearly_sorted_u32s(n: usize, seed: u64) -> Vec<u32> {
    let mut v: Vec<u32> = (0..n as u32).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    let swaps = n / 16;
    for _ in 0..swaps {
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        v.swap(i, j);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(random_u32s(100, 7), random_u32s(100, 7));
        assert_ne!(random_u32s(100, 7), random_u32s(100, 8));
        assert_eq!(random_list(50, 3).0, random_list(50, 3).0);
    }

    #[test]
    fn u64s_cannot_overflow_in_aggregate() {
        let v = random_u64s(1000, 1);
        assert!(v.iter().all(|&x| x < (1 << 32)));
    }

    #[test]
    fn list_is_a_single_chain() {
        let n = 200;
        let (succ, pred, head) = random_list(n, 42);
        assert_eq!(pred[head], NIL);
        let mut seen = vec![false; n];
        let mut cur = head;
        let mut count = 0;
        loop {
            assert!(!seen[cur], "cycle at {cur}");
            seen[cur] = true;
            count += 1;
            if succ[cur] == NIL {
                break;
            }
            let nxt = succ[cur] as usize;
            assert_eq!(pred[nxt], cur as u64, "pred/succ mismatch at {nxt}");
            cur = nxt;
        }
        assert_eq!(count, n, "list does not visit every element");
    }

    #[test]
    fn singleton_list() {
        let (succ, pred, head) = random_list(1, 0);
        assert_eq!(head, 0);
        assert_eq!(succ[0], NIL);
        assert_eq!(pred[0], NIL);
    }

    #[test]
    fn nearly_sorted_is_permutation() {
        let mut v = nearly_sorted_u32s(500, 9);
        v.sort_unstable();
        assert_eq!(v, (0..500u32).collect::<Vec<_>>());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every generated list is a permutation chain: n-1 links,
        /// exactly one head and one tail.
        #[test]
        fn list_structure(n in 1usize..400, seed in 0u64..500) {
            let (succ, pred, _head) = random_list(n, seed);
            prop_assert_eq!(succ.iter().filter(|&&s| s == NIL).count(), 1);
            prop_assert_eq!(pred.iter().filter(|&&s| s == NIL).count(), 1);
            let mut targets: Vec<u64> = succ.iter().copied().filter(|&s| s != NIL).collect();
            targets.sort_unstable();
            targets.dedup();
            prop_assert_eq!(targets.len(), n - 1, "successor targets must be distinct");
        }
    }
}
