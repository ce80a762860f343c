//! Heap-based top-k selection (§IV-B "Discussion").
//!
//! CrowdRL assigns each selected object to `k` annotators: it computes the
//! top-k Q-values per object with a bounded min-heap, sums them, and picks
//! the objects with the largest sums. These helpers implement that with a
//! `BinaryHeap<Reverse<_>>` of size ≤ k — O(n log k) rather than sorting.
//! [`ranked`] gives the full best-first order lazily, for callers that
//! usually stop after a few entries.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A score paired with an index, ordered by score then (for determinism)
/// by *descending* index so the heap's eviction ties break the same way a
/// stable descending sort by (score, ascending index) would.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Scored {
    score: f64,
    index: usize,
}

impl Eq for Scored {}

impl PartialOrd for Scored {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scored {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Total order on scores; NaN is rejected upstream.
        self.score
            .partial_cmp(&other.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| other.index.cmp(&self.index))
    }
}

/// The indices of the `k` largest scores, best first. Ties break toward the
/// lower index. `NEG_INFINITY` entries (masked actions) are skipped
/// entirely; NaN panics.
pub fn top_k_indices(scores: &[f64], k: usize) -> Vec<usize> {
    assert!(scores.iter().all(|s| !s.is_nan()), "NaN score in top-k");
    let scored = scores
        .iter()
        .enumerate()
        .filter(|(_, &score)| score != f64::NEG_INFINITY)
        .map(|(index, &score)| Scored { score, index });
    let mut out: Vec<Scored> = if k >= scores.len() {
        // Every entry is kept (a full ranking): the sort below alone
        // orders them, a heap would only add work.
        scored.collect()
    } else {
        let mut heap: BinaryHeap<Reverse<Scored>> = BinaryHeap::with_capacity(k + 1);
        for s in scored {
            // A full heap evicts its minimum: an entry below that minimum
            // would be pushed and popped straight back out.
            if heap.len() == k && heap.peek().is_some_and(|Reverse(min)| s < *min) {
                continue;
            }
            heap.push(Reverse(s));
            if heap.len() > k {
                heap.pop();
            }
        }
        heap.into_iter().map(|Reverse(s)| s).collect()
    };
    out.sort_by(|a, b| b.cmp(a));
    out.into_iter().map(|s| s.index).collect()
}

/// Every non-masked index, best first, in the order
/// `top_k_indices(scores, scores.len())` returns: the heap is built in
/// O(n) and each entry costs O(log n) only when it is taken, so a caller
/// that stops after a few entries never pays for the full sort.
/// `NEG_INFINITY` entries are skipped; NaN panics.
pub fn ranked(scores: &[f64]) -> impl Iterator<Item = usize> {
    assert!(scores.iter().all(|s| !s.is_nan()), "NaN score in top-k");
    let mut heap: BinaryHeap<Scored> = scores
        .iter()
        .enumerate()
        .filter(|(_, &score)| score != f64::NEG_INFINITY)
        .map(|(index, &score)| Scored { score, index })
        .collect();
    std::iter::from_fn(move || heap.pop().map(|s| s.index))
}

/// Sum of the `k` largest scores (masked `-inf` entries skipped). Returns
/// `NEG_INFINITY` when no entry qualifies, marking the whole object masked.
pub fn top_k_sum(scores: &[f64], k: usize) -> f64 {
    let idx = top_k_indices(scores, k);
    if idx.is_empty() {
        f64::NEG_INFINITY
    } else {
        idx.iter().map(|&i| scores[i]).sum()
    }
}

/// Reference implementation by full sort, for property tests.
#[doc(hidden)]
pub fn top_k_indices_naive(scores: &[f64], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len())
        .filter(|&i| scores[i] != f64::NEG_INFINITY)
        .collect();
    idx.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap()
            .then_with(|| a.cmp(&b))
    });
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn selects_largest_in_order() {
        let scores = [1.0, 5.0, 3.0, 4.0, 2.0];
        assert_eq!(top_k_indices(&scores, 3), vec![1, 3, 2]);
        assert_eq!(top_k_sum(&scores, 3), 12.0);
    }

    #[test]
    fn ties_break_toward_lower_index() {
        let scores = [2.0, 3.0, 3.0, 1.0];
        assert_eq!(top_k_indices(&scores, 2), vec![1, 2]);
        let scores = [3.0, 3.0, 3.0];
        assert_eq!(top_k_indices(&scores, 2), vec![0, 1]);
        assert_eq!(top_k_indices(&scores, 3), vec![0, 1, 2]);
    }

    #[test]
    fn masked_entries_are_skipped() {
        let scores = [f64::NEG_INFINITY, 1.0, f64::NEG_INFINITY, 2.0];
        assert_eq!(top_k_indices(&scores, 3), vec![3, 1]);
        assert_eq!(top_k_sum(&scores, 3), 3.0);
        let all_masked = [f64::NEG_INFINITY; 3];
        assert!(top_k_indices(&all_masked, 2).is_empty());
        assert_eq!(top_k_sum(&all_masked, 2), f64::NEG_INFINITY);
    }

    #[test]
    fn k_larger_than_len_returns_all() {
        let scores = [1.0, 2.0];
        assert_eq!(top_k_indices(&scores, 10), vec![1, 0]);
    }

    #[test]
    fn k_zero_returns_empty() {
        assert!(top_k_indices(&[1.0, 2.0], 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "NaN score in top-k")]
    fn nan_panics() {
        let _ = top_k_indices(&[1.0, f64::NAN], 1);
    }

    #[test]
    fn paper_example_table3_o8_wins() {
        // Table III: Q-values per annotator for each selectable object.
        // o8's top-3 sum (4+3+2=9) is the largest, so o8 is selected and
        // assigned to w1, w3, w5 in the paper's Example 3.
        let ninf = f64::NEG_INFINITY;
        let q: Vec<Vec<f64>> = vec![
            vec![ninf; 5],                 // o1 labelled
            vec![3.0, 1.0, 1.0, 2.0, 2.0], // o2 (w1..w5 columns transposed)
            vec![1.0, 1.0, 1.0, 2.0, 4.0], // o3
            vec![ninf; 5],                 // o4 labelled
            vec![ninf; 5],                 // o5 labelled
            vec![1.0, 2.0, 1.0, 1.0, 2.0], // o6
            vec![3.0, 2.0, 0.0, 1.0, 1.0], // o7
            vec![4.0, 1.0, 3.0, 0.0, 2.0], // o8
        ];
        let sums: Vec<f64> = q.iter().map(|row| top_k_sum(row, 3)).collect();
        let best = crowdrl_types::prob::argmax(&sums).unwrap();
        assert_eq!(best, 7, "o8 should win: sums={sums:?}");
        assert_eq!(sums[7], 9.0);
        // And its top-3 annotators are w1, w5, w3 (scores 4, 3, 2).
        assert_eq!(top_k_indices(&q[7], 3), vec![0, 2, 4]);
    }

    proptest! {
        #[test]
        fn prop_matches_naive(scores in proptest::collection::vec(-100.0f64..100.0, 0..64),
                              k in 0usize..10) {
            prop_assert_eq!(top_k_indices(&scores, k), top_k_indices_naive(&scores, k));
        }

        #[test]
        fn prop_matches_naive_with_masks(
            raw in proptest::collection::vec((-10.0f64..10.0, proptest::bool::ANY), 0..32),
            k in 0usize..8) {
            let scores: Vec<f64> = raw
                .iter()
                .map(|&(s, masked)| if masked { f64::NEG_INFINITY } else { s })
                .collect();
            prop_assert_eq!(top_k_indices(&scores, k), top_k_indices_naive(&scores, k));
        }

        #[test]
        fn prop_ranked_and_every_k_match_naive(
            // Few distinct values, so ties are common; some entries masked.
            raw in proptest::collection::vec((0u8..6, proptest::bool::ANY), 0..40)) {
            let scores: Vec<f64> = raw
                .iter()
                .map(|&(s, masked)| if masked { f64::NEG_INFINITY } else { s as f64 - 2.5 })
                .collect();
            let n = scores.len();
            prop_assert_eq!(
                ranked(&scores).collect::<Vec<_>>(),
                top_k_indices_naive(&scores, n)
            );
            for k in 0..=n + 1 {
                prop_assert_eq!(top_k_indices(&scores, k), top_k_indices_naive(&scores, k));
            }
        }
    }
}
