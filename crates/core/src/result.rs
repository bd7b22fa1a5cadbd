//! The output of an `FSimχ` computation.

use crate::store::{PairStore, ScoreView};
use fsim_graph::NodeId;

/// Converged (or iteration-capped) fractional simulation scores over the
/// maintained candidate pairs.
///
/// Produced by [`compute`](crate::compute), by consuming an engine
/// session ([`FsimEngine::into_result`](crate::FsimEngine::into_result) /
/// [`snapshot`](crate::FsimEngine::snapshot)), and by every
/// [`apply_edits`](crate::FsimEngine::apply_edits) batch.
///
/// ```
/// use fsim_core::{compute, FsimConfig, Variant};
/// use fsim_graph::graph_from_parts;
/// use fsim_labels::LabelFn;
///
/// let g = graph_from_parts(&["a", "b"], &[(0, 1)]);
/// let cfg = FsimConfig::new(Variant::Simple).label_fn(LabelFn::Indicator);
/// let result = compute(&g, &g, &cfg).unwrap();
/// assert!(result.converged);
/// assert_eq!(result.get(0, 0), Some(1.0));
/// assert_eq!(result.pairs_evaluated().len(), result.iterations);
/// // Total Equation-3 evaluations: the scheduling work of the run.
/// assert!(result.total_pairs_evaluated() >= result.pair_count());
/// ```
#[derive(Debug)]
pub struct FsimResult {
    store: PairStore,
    scores: Vec<f64>,
    /// Number of iterations executed.
    pub iterations: usize,
    /// Whether `Δ < ε` was reached before the iteration cap.
    pub converged: bool,
    /// The last iteration's `Δ = max |FSim^k − FSim^{k−1}|`.
    pub final_delta: f64,
    /// Pairs re-evaluated per iteration (see
    /// [`pairs_evaluated`](Self::pairs_evaluated)).
    pairs_evaluated: Vec<usize>,
    /// Wall-clock seconds per iteration, aligned with `pairs_evaluated`.
    iter_seconds: Vec<f64>,
    /// Certified per-score error bound (see
    /// [`error_bound`](Self::error_bound)).
    error_bound: f64,
}

impl FsimResult {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        store: PairStore,
        scores: Vec<f64>,
        iterations: usize,
        converged: bool,
        final_delta: f64,
        pairs_evaluated: Vec<usize>,
        iter_seconds: Vec<f64>,
        error_bound: f64,
    ) -> Self {
        Self {
            store,
            scores,
            iterations,
            converged,
            final_delta,
            pairs_evaluated,
            iter_seconds,
            error_bound,
        }
    }

    /// Certified upper bound on the sup-norm distance between these
    /// scores and the scores an **exact** scheduler returns under the
    /// same configuration: `0` for the bitwise-exact convergence modes.
    /// Under [`ConvergenceMode::Approximate`](crate::ConvergenceMode),
    /// which stops the exact iteration early at a relaxed ε, it is the
    /// Banach bound `c/(1−c)·(final_delta + ε)` with `c = w⁺+w⁻`: the
    /// Theorem-2 contraction shrinks every later step by `c`, so the
    /// steps the run skipped sum to at most `c/(1−c)·final_delta`, and
    /// `ε` covers the exact run's own convergence slack. The bound is
    /// certified for 1-Lipschitz mapping operators (row-max, Hungarian);
    /// the greedy matcher can step outside it at sort ties.
    ///
    /// ```
    /// use fsim_core::{compute, ConvergenceMode, FsimConfig, Variant};
    /// use fsim_graph::graph_from_parts;
    /// use fsim_labels::LabelFn;
    ///
    /// let g = graph_from_parts(&["a", "b", "a"], &[(0, 1), (1, 2), (2, 0)]);
    /// let base = FsimConfig::new(Variant::Simple).label_fn(LabelFn::Indicator);
    /// let exact = compute(&g, &g, &base).unwrap();
    /// assert_eq!(exact.error_bound(), 0.0); // exact modes certify zero
    ///
    /// let approx = compute(
    ///     &g,
    ///     &g,
    ///     &base.convergence(ConvergenceMode::Approximate { tolerance: 1.0 }),
    /// )
    /// .unwrap();
    /// let bound = approx.error_bound();
    /// assert!(bound.is_finite() && bound > 0.0);
    /// // The observed deviation from the exact scores stays within it.
    /// for (a, b) in exact.iter_pairs().zip(approx.iter_pairs()) {
    ///     assert!((a.2 - b.2).abs() <= bound);
    /// }
    /// ```
    pub fn error_bound(&self) -> f64 {
        self.error_bound
    }

    /// Pairs re-evaluated per iteration: `|H|` every iteration under the
    /// full sweep, the dirty-worklist length under delta-driven
    /// scheduling — the work saved by dirty scheduling is
    /// `|H| · iterations − total_pairs_evaluated()`.
    ///
    /// ```
    /// use fsim_core::{compute, ConvergenceMode, FsimConfig, Variant};
    /// use fsim_graph::graph_from_parts;
    /// use fsim_labels::LabelFn;
    ///
    /// let g = graph_from_parts(&["a", "b", "b"], &[(0, 1), (1, 2), (2, 0)]);
    /// let cfg = FsimConfig::new(Variant::Simple)
    ///     .label_fn(LabelFn::Indicator)
    ///     .convergence(ConvergenceMode::DeltaDriven);
    /// let r = compute(&g, &g, &cfg).unwrap();
    /// assert_eq!(r.pairs_evaluated().len(), r.iterations);
    /// assert_eq!(r.pairs_evaluated()[0], r.pair_count()); // iteration 1 is full
    /// assert!(r.pairs_evaluated().iter().all(|&w| w <= r.pair_count()));
    /// ```
    pub fn pairs_evaluated(&self) -> &[usize] {
        &self.pairs_evaluated
    }

    /// Total Equation-3 evaluations across all iterations.
    pub fn total_pairs_evaluated(&self) -> usize {
        self.pairs_evaluated.iter().sum()
    }

    /// Wall-clock seconds per iteration of the producing run, aligned
    /// with [`pairs_evaluated`](Self::pairs_evaluated).
    pub fn iteration_seconds(&self) -> &[f64] {
        &self.iter_seconds
    }

    /// Aggregate Equation-3 evaluation throughput of the producing run
    /// (pair evaluations per second), or `None` when no timed work was
    /// recorded (empty store, zero-duration clock resolution).
    pub fn pairs_per_second(&self) -> Option<f64> {
        let secs: f64 = self.iter_seconds.iter().sum();
        let pairs = self.total_pairs_evaluated();
        (secs > 0.0 && pairs > 0).then(|| pairs as f64 / secs)
    }

    /// Score of a maintained pair, or `None` if `(u, v)` was pruned.
    pub fn get(&self, u: NodeId, v: NodeId) -> Option<f64> {
        self.store
            .index
            .get(u, v)
            .and_then(|i| self.scores.get(i).copied())
    }

    /// Score with the engine's fallback semantics for pruned pairs
    /// (0, or `α·ub` under upper-bound pruning).
    pub fn score(&self, u: NodeId, v: NodeId) -> f64 {
        use crate::operators::ScoreLookup;
        self.view().get(u, v)
    }

    /// Number of maintained pairs (`|H|`).
    pub fn pair_count(&self) -> usize {
        self.store.len()
    }

    /// Iterates `(u, v, score)` over maintained pairs in slot order
    /// (sorted by `(u, v)`).
    pub fn iter_pairs(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + Clone + '_ {
        self.store
            .pairs
            .iter()
            .zip(&self.scores)
            .map(|(&(u, v), &s)| (u, v, s))
    }

    /// The `k` best-scoring right-nodes for a given left node, sorted by
    /// descending score (ties broken by node id).
    pub fn top_k_for_left(&self, u: NodeId, k: usize) -> Vec<(NodeId, f64)> {
        self.store.top_k_for_left(&self.scores, u, k)
    }

    /// For each left node `u`, the set `argmax_v FSim(u, v)` (all `v`
    /// within `tie_eps` of the row maximum), computed in one pass.
    /// Rows with no maintained pair are empty. Used by the graph-alignment
    /// case study.
    pub fn argmax_rows(&self, n_left: usize, tie_eps: f64) -> Vec<Vec<NodeId>> {
        argmax_rows_from_iter(self.iter_pairs(), n_left, tie_eps)
    }

    /// Mean score over maintained pairs (0 when empty); a cheap global
    /// summary used by tests and diagnostics.
    pub fn mean_score(&self) -> f64 {
        if self.scores.is_empty() {
            0.0
        } else {
            self.scores.iter().sum::<f64>() / self.scores.len() as f64
        }
    }

    pub(crate) fn view(&self) -> ScoreView<'_> {
        self.store.view(&self.scores)
    }

    /// Collects maintained scores into `(pairs, scores)` vectors, consuming
    /// nothing — for serialization by the experiment harness.
    pub fn to_vecs(&self) -> (Vec<(NodeId, NodeId)>, Vec<f64>) {
        (self.store.pairs.clone(), self.scores.clone())
    }

    /// Decomposes into the parts a [`ScoreSnapshot`](crate::ScoreSnapshot)
    /// keeps, dropping the per-iteration diagnostics.
    pub(crate) fn into_parts(self) -> (PairStore, Vec<f64>, usize, bool, f64, f64) {
        (
            self.store,
            self.scores,
            self.iterations,
            self.converged,
            self.final_delta,
            self.error_bound,
        )
    }
}

/// Shared argmax-row extraction over any `(u, v, score)` stream (used by
/// both [`FsimResult`] and the engine session). The stream may be consumed
/// twice, so it must be `Clone` (both callers hand in cheap slot
/// iterators).
pub(crate) fn argmax_rows_from_iter<I>(pairs: I, n_left: usize, tie_eps: f64) -> Vec<Vec<NodeId>>
where
    I: Iterator<Item = (NodeId, NodeId, f64)> + Clone,
{
    let mut best = vec![f64::NEG_INFINITY; n_left];
    for (u, _, s) in pairs.clone() {
        if s > best[u as usize] {
            best[u as usize] = s;
        }
    }
    let mut rows: Vec<Vec<NodeId>> = vec![Vec::new(); n_left];
    for (u, v, s) in pairs {
        if s >= best[u as usize] - tie_eps {
            rows[u as usize].push(v);
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use crate::config::{FsimConfig, Variant};
    use crate::engine::compute;
    use fsim_graph::graph_from_parts;
    use fsim_labels::LabelFn;

    fn result() -> super::FsimResult {
        let g1 = graph_from_parts(&["a", "b"], &[(0, 1)]);
        let g2 = graph_from_parts(&["a", "b", "a"], &[(0, 1), (2, 1)]);
        let cfg = FsimConfig::new(Variant::Simple).label_fn(LabelFn::Indicator);
        compute(&g1, &g2, &cfg).unwrap()
    }

    #[test]
    fn top_k_is_sorted_desc() {
        let r = result();
        let top = r.top_k_for_left(0, 3);
        assert_eq!(top.len(), 3);
        assert!(top[0].1 >= top[1].1 && top[1].1 >= top[2].1);
    }

    #[test]
    fn argmax_rows_point_at_best() {
        let r = result();
        let rows = r.argmax_rows(2, 1e-12);
        for (u, row) in rows.iter().enumerate() {
            assert!(!row.is_empty());
            let best = r.top_k_for_left(u as u32, 1)[0];
            assert!(row.contains(&best.0));
        }
    }

    #[test]
    fn iter_pairs_is_sorted_and_complete() {
        let r = result();
        let pairs: Vec<_> = r.iter_pairs().map(|(u, v, _)| (u, v)).collect();
        let mut sorted = pairs.clone();
        sorted.sort_unstable();
        assert_eq!(pairs, sorted);
        assert_eq!(pairs.len(), r.pair_count());
    }

    #[test]
    fn mean_score_in_unit_interval() {
        let r = result();
        assert!((0.0..=1.0).contains(&r.mean_score()));
    }

    #[test]
    fn top_k_for_left_with_nan_score_does_not_panic() {
        // Scores are NaN-free in normal operation, but the ranking helper
        // must stay total: rebuild a result with a NaN slot and rank it.
        let r = result();
        let (pairs, mut scores) = r.to_vecs();
        scores[0] = f64::NAN;
        let n = pairs.len();
        let poisoned = super::FsimResult::new(
            crate::store::PairStore {
                pairs,
                index: crate::store::PairIndex::Dense { n2: 3 },
                fallback: crate::store::Fallback::Zero,
            },
            scores,
            r.iterations,
            r.converged,
            r.final_delta,
            vec![],
            vec![],
            0.0,
        );
        let row = poisoned.top_k_for_left(0, n);
        assert!(!row.is_empty());
        assert!(row[0].1.is_nan(), "+NaN ranks first, deterministically");
    }
}
