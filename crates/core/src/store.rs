//! The candidate-pair store: which `(u, v) ∈ V1 × V2` pairs are maintained
//! (Algorithm 1, Line 1) and how their scores are indexed.

use crate::operators::ScoreLookup;
use fsim_graph::{pair_key, FxHashMap, NodeId};
use std::ops::Range;

/// Index from a pair `(u, v)` to its slot in the score buffers.
#[derive(Debug, Clone)]
pub enum PairIndex {
    /// All `|V1| × |V2|` pairs are maintained; slot = `u · |V2| + v`.
    /// Used by the default configuration (θ = 0, no pruning) — pure
    /// arithmetic in the hot loop.
    Dense {
        /// `|V2|`.
        n2: u32,
    },
    /// Pruned candidate set: a row-offset index over the sorted pair list.
    Sparse(RowIndex),
}

impl PairIndex {
    /// Slot of `(u, v)` if maintained.
    ///
    /// A `v ≥ n2` dense lookup is `None` (the row-major formula would
    /// otherwise alias another row's slot); dense `u` overruns surface as
    /// slots past the score buffer, which callers reject via `slice::get`.
    /// A sparse lookup past the last row is `None`.
    #[inline]
    pub fn get(&self, u: NodeId, v: NodeId) -> Option<usize> {
        match self {
            PairIndex::Dense { n2 } => {
                if v < *n2 {
                    Some(u as usize * *n2 as usize + v as usize)
                } else {
                    None
                }
            }
            PairIndex::Sparse(rows) => rows.get(u, v),
        }
    }
}

/// Row-offset index over a pair list sorted by `(u, v)` — the candidate
/// set in CSR form. Row `u` owns the slots `row_start[u] .. row_start[u+1]`,
/// and `cols` holds each slot's `v`, ascending within its row, so a lookup
/// is one binary search over contiguous `u32`s.
#[derive(Debug, Clone)]
pub struct RowIndex {
    /// `|V1| + 1` row starts.
    row_start: Vec<u32>,
    /// Each slot's right node.
    cols: Vec<u32>,
}

impl RowIndex {
    /// Builds the index over `pairs` in one linear pass.
    ///
    /// # Panics
    /// Panics unless `pairs` is strictly increasing, every `u < n1`, and
    /// the slot count fits in `u32` — the conditions every binary search
    /// of a row relies on. Restore validates them before calling this.
    pub(crate) fn from_sorted(pairs: &[(NodeId, NodeId)], n1: usize) -> Self {
        let n_slots = u32::try_from(pairs.len()).expect("slot count fits the u32 slot space");
        let mut row_start = Vec::with_capacity(n1 + 1);
        let mut cols = Vec::with_capacity(pairs.len());
        assert!(
            pairs.windows(2).all(|w| w[0] < w[1]),
            "pairs must be strictly increasing by (u, v)"
        );
        for (slot, &(u, v)) in pairs.iter().enumerate() {
            let row = u as usize;
            assert!(row < n1, "pair ({u}, {v}) outside the {n1} left rows");
            if row_start.len() <= row {
                let start = u32::try_from(slot).expect("slot < n_slots fits u32");
                row_start.resize(row + 1, start);
            }
            cols.push(v);
        }
        row_start.resize(n1 + 1, n_slots);
        Self { row_start, cols }
    }

    /// Slot of `(u, v)` if maintained.
    #[inline]
    pub(crate) fn get(&self, u: NodeId, v: NodeId) -> Option<usize> {
        let rows = self.row(u);
        let start = rows.start;
        self.cols[rows]
            .binary_search(&v)
            .ok()
            .map(|offset| start + offset)
    }

    /// Slot range of row `u` (empty past the last row).
    #[inline]
    pub(crate) fn row(&self, u: NodeId) -> Range<usize> {
        let u = u as usize;
        match (self.row_start.get(u), self.row_start.get(u + 1)) {
            (Some(&start), Some(&end)) => start as usize..end as usize,
            _ => 0..0,
        }
    }

    /// Heap bytes held by the index.
    pub(crate) fn heap_bytes(&self) -> usize {
        (self.row_start.len() + self.cols.len()) * std::mem::size_of::<u32>()
    }
}

/// What a lookup of a *non-maintained* pair returns.
#[derive(Debug, Clone)]
pub enum Fallback {
    /// θ-pruned pairs never contribute (§4.1 "Computation").
    Zero,
    /// Upper-bound pruning (§3.4): `α × ub(x, y)` for pruned pairs.
    /// The map is empty when `α = 0` (nothing needs storing).
    AlphaUb(FxHashMap<u64, f32>),
}

/// How a pair's previous-iteration score is obtained: from a maintained
/// slot, or as the pruning fallback constant. Resolved once per pair at
/// session-prepare time by the dependency-CSR builder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PairRef {
    /// The pair is maintained at this score-buffer slot.
    Slot(usize),
    /// The pair is pruned; every lookup serves this constant
    /// (`0` under θ-pruning, `α·ub` under upper-bound pruning).
    Absent(f64),
}

/// The maintained pairs plus their double-buffered scores.
#[derive(Debug, Clone)]
pub struct PairStore {
    /// Maintained pairs in slot order.
    pub pairs: Vec<(NodeId, NodeId)>,
    /// Pair → slot index.
    pub index: PairIndex,
    /// Fallback for absent pairs.
    pub fallback: Fallback,
}

impl PairStore {
    /// Resolves `(x, y)` to its slot or its constant fallback value —
    /// exactly the semantics of a [`ScoreView`] lookup, factored out so
    /// iteration-invariant structure can be materialized once.
    pub fn resolve(&self, x: NodeId, y: NodeId) -> PairRef {
        match self.index.get(x, y) {
            Some(i) => PairRef::Slot(i),
            None => PairRef::Absent(match &self.fallback {
                Fallback::Zero => 0.0,
                Fallback::AlphaUb(map) => {
                    map.get(&pair_key(x, y)).map(|&v| v as f64).unwrap_or(0.0)
                }
            }),
        }
    }

    /// Slot range of left node `u`'s maintained pairs (empty for
    /// `u ≥ |V1|` and for rows with no maintained pair).
    pub(crate) fn row_slots(&self, u: NodeId) -> Range<usize> {
        match &self.index {
            PairIndex::Dense { n2 } => {
                let n2 = *n2 as usize;
                let start = (u as usize).saturating_mul(n2).min(self.pairs.len());
                start..(start + n2).min(self.pairs.len())
            }
            PairIndex::Sparse(rows) => rows.row(u),
        }
    }

    /// The `k` best-scoring right-nodes of left node `u` under `scores`,
    /// sorted by descending score (ties broken by node id). Reads row `u`
    /// only.
    pub(crate) fn top_k_for_left(&self, scores: &[f64], u: NodeId, k: usize) -> Vec<(NodeId, f64)> {
        let slots = self.row_slots(u);
        let mut row: Vec<(NodeId, f64)> = self.pairs[slots.clone()]
            .iter()
            .zip(&scores[slots])
            .map(|(&(_, v), &s)| (v, s))
            .collect();
        // `total_cmp`: scores are NaN-free today, but a NaN must never
        // panic the sort or corrupt its order (+NaN ranks first in this
        // descending total order).
        row.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        row.truncate(k);
        row
    }

    /// Number of maintained pairs (`|H|` in the cost analysis).
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// A read view over a score buffer for operator lookups.
    pub fn view<'a>(&'a self, scores: &'a [f64]) -> ScoreView<'a> {
        debug_assert_eq!(scores.len(), self.pairs.len());
        ScoreView {
            index: &self.index,
            fallback: &self.fallback,
            scores,
        }
    }
}

/// Read-only score accessor handed to the mapping operators.
#[derive(Debug, Clone, Copy)]
pub struct ScoreView<'a> {
    index: &'a PairIndex,
    fallback: &'a Fallback,
    scores: &'a [f64],
}

impl ScoreLookup for ScoreView<'_> {
    #[inline]
    fn get(&self, x: NodeId, y: NodeId) -> f64 {
        match self.index.get(x, y) {
            Some(i) => self.scores[i],
            None => match self.fallback {
                Fallback::Zero => 0.0,
                Fallback::AlphaUb(map) => {
                    map.get(&pair_key(x, y)).map(|&v| v as f64).unwrap_or(0.0)
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_store(n1: u32, n2: u32) -> PairStore {
        let pairs: Vec<_> = (0..n1).flat_map(|u| (0..n2).map(move |v| (u, v))).collect();
        PairStore {
            pairs,
            index: PairIndex::Dense { n2 },
            fallback: Fallback::Zero,
        }
    }

    #[test]
    fn dense_index_is_row_major() {
        let s = dense_store(3, 4);
        for (slot, &(u, v)) in s.pairs.iter().enumerate() {
            assert_eq!(s.index.get(u, v), Some(slot));
        }
    }

    #[test]
    fn dense_index_rejects_out_of_range_columns() {
        let s = dense_store(3, 4);
        // v ≥ n2 must not alias the next row's slot.
        assert_eq!(s.index.get(0, 4), None);
        assert_eq!(s.index.get(1, 100), None);
    }

    #[test]
    fn sparse_index_misses_return_fallback() {
        let pairs = vec![(0, 1), (2, 3)];
        let store = PairStore {
            index: PairIndex::Sparse(RowIndex::from_sorted(&pairs, 3)),
            pairs,
            fallback: Fallback::Zero,
        };
        let scores = vec![0.5, 0.7];
        let view = store.view(&scores);
        assert_eq!(view.get(0, 1), 0.5);
        assert_eq!(view.get(2, 3), 0.7);
        assert_eq!(view.get(1, 1), 0.0);
    }

    #[test]
    fn resolve_matches_view_semantics() {
        let mut ub = FxHashMap::default();
        ub.insert(pair_key(5, 5), 0.25f32);
        let store = PairStore {
            pairs: vec![(0, 0)],
            index: PairIndex::Sparse(RowIndex::from_sorted(&[(0, 0)], 1)),
            fallback: Fallback::AlphaUb(ub),
        };
        let scores = vec![0.75];
        let view = store.view(&scores);
        for (x, y) in [(0, 0), (5, 5), (9, 9)] {
            let via_resolve = match store.resolve(x, y) {
                PairRef::Slot(i) => scores[i],
                PairRef::Absent(c) => c,
            };
            assert_eq!(via_resolve.to_bits(), view.get(x, y).to_bits());
        }
    }

    #[test]
    fn alpha_ub_fallback_is_served() {
        let mut ub = FxHashMap::default();
        ub.insert(pair_key(5, 5), 0.25f32);
        let store = PairStore {
            pairs: vec![(0, 0)],
            index: PairIndex::Sparse(RowIndex::from_sorted(&[(0, 0)], 1)),
            fallback: Fallback::AlphaUb(ub),
        };
        let scores = vec![1.0];
        let view = store.view(&scores);
        assert_eq!(view.get(0, 0), 1.0);
        assert!((view.get(5, 5) - 0.25).abs() < 1e-6);
        assert_eq!(view.get(9, 9), 0.0);
    }

    /// A seeded random pruned store over `n1 × n2` with rows 0, `n1/2`
    /// and `n1 − 1` forced empty.
    fn random_pruned_pairs(n1: u32, n2: u32, seed: u64) -> Vec<(NodeId, NodeId)> {
        let mut state = seed;
        let mut next = move || {
            // SplitMix64.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let empty = [0, n1 / 2, n1 - 1];
        let mut pairs = Vec::new();
        for u in (0..n1).filter(|u| !empty.contains(u)) {
            for v in 0..n2 {
                if next() % 3 == 0 {
                    pairs.push((u, v));
                }
            }
        }
        pairs
    }

    #[test]
    fn row_index_matches_brute_force_search() {
        for seed in [1, 7, 42] {
            let (n1, n2) = (9, 11);
            let pairs = random_pruned_pairs(n1, n2, seed);
            let index = PairIndex::Sparse(RowIndex::from_sorted(&pairs, n1 as usize));
            for u in 0..n1 + 2 {
                for v in 0..n2 + 2 {
                    let brute = pairs.iter().position(|&p| p == (u, v));
                    assert_eq!(index.get(u, v), brute, "seed {seed}, ({u}, {v})");
                }
            }
        }
    }

    #[test]
    fn row_slots_cover_each_row_exactly() {
        let (n1, n2) = (9, 11);
        let pairs = random_pruned_pairs(n1, n2, 3);
        let store = PairStore {
            index: PairIndex::Sparse(RowIndex::from_sorted(&pairs, n1 as usize)),
            pairs,
            fallback: Fallback::Zero,
        };
        let mut covered = 0;
        for u in 0..n1 + 2 {
            let slots = store.row_slots(u);
            assert!(store.pairs[slots.clone()].iter().all(|&(x, _)| x == u));
            assert_eq!(slots.len(), store.pairs.iter().filter(|p| p.0 == u).count());
            covered += slots.len();
        }
        assert_eq!(covered, store.len());
        assert!(store.row_slots(0).is_empty());
        assert!(store.row_slots(n1 - 1).is_empty());

        let dense = dense_store(3, 4);
        assert_eq!(dense.row_slots(2), 8..12);
        assert!(dense.row_slots(3).is_empty());
        assert!(dense.row_slots(u32::MAX).is_empty());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn row_index_rejects_unsorted_pairs() {
        RowIndex::from_sorted(&[(1, 0), (0, 0)], 2);
    }

    /// The reference `top_k_for_left`: a scan of every maintained pair.
    fn top_k_by_scan(store: &PairStore, scores: &[f64], u: NodeId, k: usize) -> Vec<(NodeId, f64)> {
        let mut row: Vec<(NodeId, f64)> = store
            .pairs
            .iter()
            .zip(scores)
            .filter(|(&(x, _), _)| x == u)
            .map(|(&(_, v), &s)| (v, s))
            .collect();
        row.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        row.truncate(k);
        row
    }

    fn assert_top_k_matches_scan(store: &PairStore, n1: u32) {
        // Coarse scores force ties; one NaN and a negative NaN probe the
        // total order.
        let mut scores: Vec<f64> = (0..store.len()).map(|i| (i % 4) as f64 / 4.0).collect();
        scores[store.len() / 3] = f64::NAN;
        scores[store.len() - 1] = -f64::NAN;
        for u in 0..n1 + 2 {
            for k in [0, 1, 3, 100] {
                let got = store.top_k_for_left(&scores, u, k);
                let want = top_k_by_scan(store, &scores, u, k);
                let bits = |r: &[(NodeId, f64)]| -> Vec<(NodeId, u64)> {
                    r.iter().map(|&(v, s)| (v, s.to_bits())).collect()
                };
                assert_eq!(bits(&got), bits(&want), "u = {u}, k = {k}");
            }
        }
    }

    #[test]
    fn top_k_for_left_reads_the_row_like_a_scan() {
        let (n1, n2) = (9, 11);
        let pairs = random_pruned_pairs(n1, n2, 5);
        let pruned = PairStore {
            index: PairIndex::Sparse(RowIndex::from_sorted(&pairs, n1 as usize)),
            pairs,
            fallback: Fallback::Zero,
        };
        assert_top_k_matches_scan(&pruned, n1);
        assert_top_k_matches_scan(&dense_store(4, 5), 4);
    }
}
