//! Cheap, shareable snapshots of a converged run — the unit a serving
//! layer publishes as an *epoch*.
//!
//! [`FsimResult`] is the full per-run record: it owns the candidate
//! store, the scores **and** the per-iteration diagnostics
//! (`pairs_evaluated`, `iteration_seconds`), and the engine behind it
//! additionally holds the recorded replay trajectory (an
//! `iterations × |H|` matrix). None of that belongs in a read path that
//! hands the same converged scores to thousands of concurrent readers.
//!
//! [`ScoreSnapshot`] is the split: exactly the converged scores, the
//! store needed to index them, and the scalar run summary (iterations,
//! convergence flag, certified [`error_bound`](ScoreSnapshot::error_bound),
//! [`score_hash`](ScoreSnapshot::score_hash)). Its heap footprint is
//! `Θ(|H|)` — independent of how many iterations the producing run took
//! and of any replay state the session keeps (pinned by a regression
//! test below) — and `Clone` is two `Arc` bumps, so a reader can retain
//! an epoch for the cost of a pointer copy while the writer converges
//! and publishes the next one.

use crate::operators::ScoreLookup;
use crate::result::FsimResult;
use crate::store::{Fallback, PairIndex, PairStore};
use crate::topk::top_k_from_iter;
use fsim_graph::NodeId;
use std::sync::Arc;

/// An immutable, `Arc`-shared view of one converged score buffer.
///
/// Produced by [`FsimEngine::snapshot_shared`](crate::FsimEngine::snapshot_shared)
/// (an `O(|H|)` copy of store + scores) and by
/// [`FsimResult::into_snapshot`] (a move — no copy at all). Cloning the
/// snapshot itself is `O(1)`.
///
/// ```
/// use fsim_core::{FsimConfig, FsimEngine, Variant};
/// use fsim_graph::graph_from_parts;
/// use fsim_labels::LabelFn;
///
/// let g = graph_from_parts(&["a", "b"], &[(0, 1)]);
/// let cfg = FsimConfig::new(Variant::Simple).label_fn(LabelFn::Indicator);
/// let mut engine = FsimEngine::new(&g, &g, &cfg).unwrap();
/// engine.run();
/// let epoch = engine.snapshot_shared();
/// let reader = epoch.clone(); // O(1): both share the same buffers
/// assert_eq!(reader.get(0, 0), Some(1.0));
/// assert_eq!(reader.score_hash(), epoch.score_hash());
/// ```
#[derive(Debug, Clone)]
pub struct ScoreSnapshot {
    store: Arc<PairStore>,
    scores: Arc<[f64]>,
    iterations: usize,
    converged: bool,
    final_delta: f64,
    error_bound: f64,
    score_hash: u64,
}

impl ScoreSnapshot {
    pub(crate) fn from_parts(
        store: Arc<PairStore>,
        scores: Arc<[f64]>,
        iterations: usize,
        converged: bool,
        final_delta: f64,
        error_bound: f64,
    ) -> Self {
        let score_hash = score_hash(
            store
                .pairs
                .iter()
                .zip(scores.iter())
                .map(|(&(u, v), &s)| (u, v, s)),
        );
        Self {
            store,
            scores,
            iterations,
            converged,
            final_delta,
            error_bound,
            score_hash,
        }
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
        self.store.view(&self.scores).get(u, v)
    }

    /// Number of maintained pairs (`|H|`).
    pub fn pair_count(&self) -> usize {
        self.store.len()
    }

    /// Whether the maintained set is empty.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Iterates `(u, v, score)` over maintained pairs in slot order.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + Clone + '_ {
        self.store
            .pairs
            .iter()
            .zip(self.scores.iter())
            .map(|(&(u, v), &s)| (u, v, s))
    }

    /// The `k` best-scoring maintained pairs, sorted by descending score
    /// (ties broken by `(u, v)`).
    pub fn top_k(&self, k: usize, exclude_identity: bool) -> Vec<(NodeId, NodeId, f64)> {
        top_k_from_iter(self.iter_pairs(), k, exclude_identity)
    }

    /// The `k` best-scoring right-nodes for a left node `u`, sorted by
    /// descending score (ties broken by node id).
    pub fn top_k_for_left(&self, u: NodeId, k: usize) -> Vec<(NodeId, f64)> {
        self.store.top_k_for_left(&self.scores, u, k)
    }

    /// Iterations the producing run executed.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Whether the producing run reached `Δ < ε`.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// The producing run's last `Δ`.
    pub fn final_delta(&self) -> f64 {
        self.final_delta
    }

    /// Certified sup-norm error bound vs an exact scheduler under the
    /// same configuration — `0` for the bitwise-exact modes (see
    /// [`FsimResult::error_bound`]). A serving layer reports this
    /// per-response as the epoch's freshness bound.
    pub fn error_bound(&self) -> f64 {
        self.error_bound
    }

    /// FNV-1a hash over the full `(u, v, score-bits)` stream in slot
    /// order — a cheap fingerprint of the entire score buffer, computed
    /// once at snapshot construction. Two snapshots of bitwise-identical
    /// runs hash equal; any torn or mixed-epoch read is detectable
    /// because a response carrying `(epoch_id, score_hash, score)` came
    /// from exactly one immutable snapshot.
    pub fn score_hash(&self) -> u64 {
        self.score_hash
    }

    /// Estimated heap footprint in bytes: `Θ(|H|)` by construction. This
    /// is what the snapshot-size regression test pins — the snapshot
    /// must never grow with the iteration count or pick up replay state.
    pub fn heap_bytes(&self) -> usize {
        let pairs = self.store.pairs.len() * std::mem::size_of::<(NodeId, NodeId)>();
        let scores = self.scores.len() * std::mem::size_of::<f64>();
        let index = match &self.store.index {
            PairIndex::Dense { .. } => 0,
            PairIndex::Sparse(rows) => rows.heap_bytes(),
        };
        let fallback = match &self.store.fallback {
            Fallback::Zero => 0,
            Fallback::AlphaUb(map) => map.len() * 12,
        };
        pairs + scores + index + fallback
    }
}

/// FNV-1a over an `(u, v, score)` stream: node ids and the raw score
/// bits, little-endian. The same fingerprint the convergence bench
/// records as `score_hash` in `BENCH_convergence.json`.
pub fn score_hash<I: Iterator<Item = (NodeId, NodeId, f64)>>(pairs: I) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for (u, v, s) in pairs {
        feed(&u.to_le_bytes());
        feed(&v.to_le_bytes());
        feed(&s.to_bits().to_le_bytes());
    }
    h
}

impl FsimResult {
    /// Converts this result into a shareable [`ScoreSnapshot`], moving
    /// the store and scores (no copy) and dropping the per-iteration
    /// diagnostics. The preferred way to publish the [`FsimResult`]
    /// returned by [`apply_edits`](crate::FsimEngine::apply_edits) as a
    /// serving epoch.
    pub fn into_snapshot(self) -> ScoreSnapshot {
        let (store, scores, iterations, converged, final_delta, error_bound) = self.into_parts();
        ScoreSnapshot::from_parts(
            Arc::new(store),
            scores.into(),
            iterations,
            converged,
            final_delta,
            error_bound,
        )
    }

    /// FNV-1a fingerprint of the full score stream (see
    /// [`ScoreSnapshot::score_hash`]).
    pub fn score_hash(&self) -> u64 {
        score_hash(self.iter_pairs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FsimConfig, Variant};
    use crate::engine::FsimEngine;
    use fsim_graph::graph_from_parts;
    use fsim_labels::LabelFn;

    fn graphs() -> (fsim_graph::Graph, fsim_graph::Graph) {
        let labels: Vec<String> = (0..24)
            .map(|i| ["a", "b", "c"][i % 3].to_string())
            .collect();
        let names: Vec<&str> = labels.iter().map(|s| s.as_str()).collect();
        let edges: Vec<(u32, u32)> = (0..23u32)
            .map(|i| (i, i + 1))
            .chain((0..12u32).map(|i| (i * 2, (i * 2 + 5) % 24)))
            .collect();
        let g = graph_from_parts(&names, &edges);
        (g.clone(), g)
    }

    fn cfg() -> FsimConfig {
        FsimConfig::new(Variant::Bijective).label_fn(LabelFn::Indicator)
    }

    #[test]
    fn snapshot_matches_result() {
        let (g1, g2) = graphs();
        let mut engine = FsimEngine::new(&g1, &g2, &cfg()).unwrap();
        engine.run();
        let result = engine.snapshot();
        let snap = engine.snapshot_shared();
        assert_eq!(snap.pair_count(), result.pair_count());
        assert_eq!(snap.iterations(), result.iterations);
        assert_eq!(snap.converged(), result.converged);
        assert_eq!(snap.error_bound(), result.error_bound());
        assert_eq!(snap.score_hash(), result.score_hash());
        for (a, b) in snap.iter_pairs().zip(result.iter_pairs()) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1, b.1);
            assert_eq!(a.2.to_bits(), b.2.to_bits());
        }
        assert_eq!(result.into_snapshot().score_hash(), snap.score_hash());
    }

    #[test]
    fn snapshot_clone_is_shared_not_copied() {
        let (g1, g2) = graphs();
        let mut engine = FsimEngine::new(&g1, &g2, &cfg()).unwrap();
        engine.run();
        let a = engine.snapshot_shared();
        let b = a.clone();
        assert!(
            Arc::ptr_eq(&a.store, &b.store),
            "clone must share the store"
        );
        assert!(
            std::ptr::eq(a.scores.as_ptr(), b.scores.as_ptr()),
            "clone must share the score buffer"
        );
    }

    /// The satellite regression: an epoch snapshot is `O(|H|)` — its
    /// size must not depend on how many iterations the run took, nor on
    /// whether the session recorded a replay trajectory.
    #[test]
    fn snapshot_size_is_independent_of_iterations_and_replay_state() {
        let (g1, g2) = graphs();

        // Few iterations, no trajectory recording.
        let quick = cfg().trajectory_budget(0);
        let mut fast = FsimEngine::new(&g1, &g2, &quick).unwrap();
        fast.run();
        let fast_snap = fast.snapshot_shared();

        // Many iterations (tight ε) with trajectory recording on: the
        // session now holds an `iterations × |H|` replay matrix.
        let mut slow_cfg = cfg();
        slow_cfg.epsilon = 1e-9;
        let mut slow = FsimEngine::new(&g1, &g2, &slow_cfg).unwrap();
        slow.run();
        assert!(
            slow.iterations() > fast.iterations(),
            "tight ε must cost extra iterations ({} vs {})",
            slow.iterations(),
            fast.iterations()
        );
        assert!(
            slow.can_replay_edits(),
            "the slow session must actually hold a recorded trajectory"
        );
        let slow_snap = slow.snapshot_shared();

        assert_eq!(fast_snap.pair_count(), slow_snap.pair_count());
        assert_eq!(
            fast_snap.heap_bytes(),
            slow_snap.heap_bytes(),
            "snapshot size grew with iterations / replay state"
        );
        // And the footprint is the flat per-pair figure, nothing more:
        // 8 bytes of pair ids + 8 bytes of score per slot (dense index).
        assert_eq!(fast_snap.heap_bytes(), fast_snap.pair_count() * 16);
    }

    #[test]
    fn score_hash_discriminates_scores() {
        let (g1, g2) = graphs();
        let mut engine = FsimEngine::new(&g1, &g2, &cfg()).unwrap();
        engine.run();
        let a = engine.snapshot_shared();
        engine
            .rerun(|c| c.variant = Variant::Simple)
            .expect("valid rerun");
        let b = engine.snapshot_shared();
        assert_ne!(
            a.score_hash(),
            b.score_hash(),
            "different converged scores must fingerprint differently"
        );
    }
}
