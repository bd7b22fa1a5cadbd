//! Greedy approximate maximum-weight bipartite assignment.
//!
//! This is the "popular greedy approximate of Hungarian" the paper uses to
//! implement the injective mapping operators `M_dp` and `M_bj` (§4.2,
//! citing Avis' survey \[23\]): sort candidate pairs by weight, then take each
//! pair whose endpoints are both still free. It is a 1/2-approximation with
//! `O(k log k)` cost for `k` candidate pairs, and is exact whenever weights
//! are "consistent" (e.g. all-equal weights within label classes, the common
//! case under the indicator label function).
//!
//! The order is descending `f64::total_cmp` weight, ties broken by
//! ascending `(left, right)`, sorted as one integer key per edge: the
//! weight's `total_cmp` rank in the high 64 bits, `!left` and `!right`
//! below. The rank is a bijection on bit patterns, so the weight is read
//! back from the key bit for bit.

/// Reusable scratch state for greedy assignments.
///
/// Uses epoch-stamped "used" marks so repeated calls don't pay a clearing
/// pass — the engine performs one assignment per node pair per iteration.
#[derive(Debug, Default)]
pub struct GreedyMatcher {
    used_left: Vec<u64>,
    used_right: Vec<u64>,
    epoch: u64,
    /// The current assignment's edges as sort keys.
    keys: Vec<u128>,
}

/// The sort key of edge `(w, left, right)`: keys compare as the edges do
/// in the greedy order, reversed — a larger key is taken first. `total_cmp`
/// orders weights as their bits with the sign bit flipped for positives
/// and every bit flipped for negatives, so +NaN ranks above +∞, −0 below
/// +0, and −NaN below everything; equal weights fall back to ascending
/// `(left, right)` through the inverted ids.
#[inline]
fn edge_key(w: f64, left: u32, right: u32) -> u128 {
    let b = w.to_bits();
    let rank = if b >> 63 == 1 { !b } else { b | 1 << 63 };
    u128::from(rank) << 64 | u128::from(!left) << 32 | u128::from(!right)
}

/// The edge [`edge_key`] encoded, bit for bit.
#[inline]
fn edge_of(key: u128) -> (f64, u32, u32) {
    let rank = (key >> 64) as u64;
    let b = if rank >> 63 == 1 {
        rank & !(1 << 63)
    } else {
        !rank
    };
    (f64::from_bits(b), !((key >> 32) as u32), !(key as u32))
}

impl GreedyMatcher {
    /// Creates an empty matcher; capacity grows on demand.
    pub fn new() -> Self {
        Self::default()
    }

    /// Greedily selects a maximal set of non-conflicting `(left, right)`
    /// pairs, heaviest first (descending `total_cmp` weight, ties by
    /// ascending `(left, right)`, so NaN weights order deterministically);
    /// returns the weight sum and the number of matched pairs. `edges` is
    /// read in any order and left as given.
    pub fn assign(
        &mut self,
        n_left: usize,
        n_right: usize,
        edges: &[(f64, u32, u32)],
    ) -> (f64, usize) {
        let mut count = 0usize;
        let sum = self.select(n_left, n_right, edges, |_, _| count += 1);
        (sum, count)
    }

    /// Like [`GreedyMatcher::assign`] but also returns the selected pairs,
    /// in the order they were taken.
    pub fn assign_pairs(
        &mut self,
        n_left: usize,
        n_right: usize,
        edges: &[(f64, u32, u32)],
    ) -> (f64, Vec<(u32, u32)>) {
        let mut pairs = Vec::new();
        let sum = self.select(n_left, n_right, edges, |l, r| pairs.push((l, r)));
        (sum, pairs)
    }

    /// The greedy selection: hands each taken pair to `take` in order and
    /// returns the weights summed in that order from `+0.0`. One or two
    /// edges are ordered by comparing their keys, without a sort or marks.
    fn select(
        &mut self,
        n_left: usize,
        n_right: usize,
        edges: &[(f64, u32, u32)],
        mut take: impl FnMut(u32, u32),
    ) -> f64 {
        let mut sum = 0.0;
        match *edges {
            [] => {}
            [(w, l, r)] => {
                sum += w;
                take(l, r);
            }
            [a, b] => {
                let (a, b) = (edge_key(a.0, a.1, a.2), edge_key(b.0, b.1, b.2));
                let (first, second) = (edge_of(a.max(b)), edge_of(a.min(b)));
                sum += first.0;
                take(first.1, first.2);
                if first.1 != second.1 && first.2 != second.2 {
                    sum += second.0;
                    take(second.1, second.2);
                }
            }
            _ => {
                if self.used_left.len() < n_left {
                    self.used_left.resize(n_left, 0);
                }
                if self.used_right.len() < n_right {
                    self.used_right.resize(n_right, 0);
                }
                self.epoch += 1;
                self.keys.clear();
                self.keys
                    .extend(edges.iter().map(|&(w, l, r)| edge_key(w, l, r)));
                self.keys.sort_unstable();
                for &key in self.keys.iter().rev() {
                    let (w, l, r) = edge_of(key);
                    let (ul, ur) = (l as usize, r as usize);
                    if self.used_left[ul] == self.epoch || self.used_right[ur] == self.epoch {
                        continue;
                    }
                    self.used_left[ul] = self.epoch;
                    self.used_right[ur] = self.epoch;
                    sum += w;
                    take(l, r);
                }
            }
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_heaviest_compatible_pairs() {
        let mut m = GreedyMatcher::new();
        let edges = vec![(0.9, 0, 0), (0.8, 1, 1), (0.7, 0, 1), (0.1, 1, 0)];
        let (sum, count) = m.assign(2, 2, &edges);
        assert_eq!(count, 2);
        assert!((sum - 1.7).abs() < 1e-12);
    }

    #[test]
    fn greedy_can_be_suboptimal_by_design() {
        // Optimal is 0.6 + 0.6 = 1.2; greedy takes 1.0 then only 0.0 left.
        let mut m = GreedyMatcher::new();
        let edges = vec![(1.0, 0, 0), (0.6, 0, 1), (0.6, 1, 0)];
        let (sum, count) = m.assign(2, 2, &edges);
        assert_eq!(count, 1);
        assert!((sum - 1.0).abs() < 1e-12);
        // …but within the 1/2-approximation bound.
        assert!(sum >= 1.2 / 2.0);
    }

    #[test]
    fn injectivity_holds() {
        let mut m = GreedyMatcher::new();
        let edges: Vec<(f64, u32, u32)> = (0..5)
            .flat_map(|l| (0..3).map(move |r| (0.5, l, r)))
            .collect();
        let (_, pairs) = m.assign_pairs(5, 3, &edges);
        assert_eq!(pairs.len(), 3); // limited by the smaller side
        let mut ls: Vec<_> = pairs.iter().map(|p| p.0).collect();
        let mut rs: Vec<_> = pairs.iter().map(|p| p.1).collect();
        ls.sort_unstable();
        rs.sort_unstable();
        ls.dedup();
        rs.dedup();
        assert_eq!(ls.len(), 3);
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn reuse_across_calls_resets_state() {
        let mut m = GreedyMatcher::new();
        let e1 = vec![(1.0, 0, 0)];
        assert_eq!(m.assign(1, 1, &e1).1, 1);
        let e2 = vec![(1.0, 0, 0)];
        assert_eq!(m.assign(1, 1, &e2).1, 1, "second call must see fresh marks");
    }

    #[test]
    fn deterministic_tie_break() {
        let mut m = GreedyMatcher::new();
        let e1 = vec![(0.5, 1, 1), (0.5, 0, 0), (0.5, 0, 1), (0.5, 1, 0)];
        let (_, p1) = m.assign_pairs(2, 2, &e1);
        let e2 = vec![(0.5, 0, 1), (0.5, 1, 0), (0.5, 1, 1), (0.5, 0, 0)];
        let (_, p2) = m.assign_pairs(2, 2, &e2);
        assert_eq!(p1, p2);
        assert_eq!(p1, vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn nan_weights_do_not_panic_and_order_deterministically() {
        let mut m = GreedyMatcher::new();
        // +NaN sorts first under the descending total order; the finite
        // weights must keep their exact relative order around it.
        let e1 = vec![(0.9, 0, 0), (f64::NAN, 1, 1), (0.8, 0, 1), (0.7, 1, 0)];
        let (_, p1) = m.assign_pairs(2, 2, &e1);
        let e2 = vec![(0.7, 1, 0), (0.8, 0, 1), (f64::NAN, 1, 1), (0.9, 0, 0)];
        let (_, p2) = m.assign_pairs(2, 2, &e2);
        assert_eq!(p1, p2, "NaN input must not break determinism");
        assert_eq!(p1, vec![(1, 1), (0, 0)]);
        let e3 = vec![(f64::NAN, 0, 0)];
        let (sum, count) = m.assign(1, 1, &e3);
        assert_eq!(count, 1);
        assert!(sum.is_nan());
    }

    #[test]
    fn empty_input() {
        let mut m = GreedyMatcher::new();
        let (sum, count) = m.assign(0, 0, &[]);
        assert_eq!(sum, 0.0);
        assert_eq!(count, 0);
    }
}
