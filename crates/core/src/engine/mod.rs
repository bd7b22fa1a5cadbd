//! The iterative `FSimχ` engine (Algorithm 1), organized as a reusable
//! session:
//!
//! * [`session`] — the [`FsimEngine`] session type: precompute once
//!   (label alignment, prepared label evaluation, candidate store), then
//!   [`run`](FsimEngine::run) / [`rerun`](FsimEngine::rerun) /
//!   [`score`](FsimEngine::score) / [`top_k`](FsimEngine::top_k) many
//!   times over the same graph pair;
//! * `iterate` (private) — initialization, the per-iteration update of
//!   Equation 3 and convergence control (Theorem 1 / Corollary 1), in
//!   bitwise-identical scheduling regimes (full sweep, delta-driven and
//!   edit replay);
//! * `frontier` (private) — the delta scheduler's direction-optimizing
//!   frontier: slot-ordered sparse push through the reverse CSR, or a
//!   sweep of the live slots, whichever the changed set makes cheaper;
//! * `deps` (private) — the pair-dependency CSR: the iteration-invariant
//!   structure of Equation 3 (θ-prefiltered neighbor-pair slot lists,
//!   fallback constants, the reverse dependents CSR) materialized once per
//!   store, driving dirty-pair scheduling;
//! * `rows` (private) — shared row maxima: the row-key table that lets
//!   one iteration compute each neighbor-row maximum of the `fs` update
//!   once and share it between every slot that reads the row;
//! * `parallel` (private) — the persistent worker pool of §3.4 (spawned
//!   once per run, atomic-cursor work distribution, bitwise sequential ≡
//!   parallel), for the full sweep, the dirty worklist and the edit
//!   replay;
//! * `shards` (private) — sharded execution for maintained sets whose
//!   dependency CSR exceeds one memory budget: the store is partitioned
//!   into u-row shards, per-shard CSRs are built transiently per sweep
//!   (peak resident CSR memory = one shard), and cross-shard dirty
//!   scheduling flows through a boundary-exchange table — bitwise
//!   identical to unsharded execution;
//! * [`edits`] — the [`GraphEdit`] vocabulary and the dirty-set planning
//!   behind [`FsimEngine::apply_edits`]: incremental rescoring after graph
//!   edits, bitwise identical to a cold recompute on the edited graphs.
//!
//! The historical one-shot entry points [`compute`],
//! [`compute_with_operator`] and [`score_on_demand`] are thin wrappers
//! over a session.

pub(crate) mod deps;
pub mod edits;
pub(crate) mod frontier;
pub(crate) mod iterate;
pub(crate) mod parallel;
pub mod persist;
pub(crate) mod rows;
pub mod session;
pub(crate) mod shards;
pub(crate) mod slot_bits;

pub use edits::{EditError, GraphEdit, GraphSide};
pub use parallel::live_runtime_workers;
pub use persist::scan_snapshot_dir;
pub use session::FsimEngine;

use crate::config::{ConfigError, FsimConfig, Variant};
use crate::operators::{OpCtx, OpScratch, Operator};
use crate::result::FsimResult;
use fsim_graph::{Graph, NodeId};
use session::{build_label_eval, AlignedLabels};

/// Computes `FSimχ` scores between all maintained node pairs of
/// `(g1, g2)` for the variant selected in `cfg`.
///
/// This is the one-shot entry point of the framework, equivalent to
/// building an [`FsimEngine`] session and consuming it after a single run.
/// `g1 == g2` (the same graph passed twice) is explicitly allowed, matching
/// footnote 2 of the paper. When the same graph pair will be queried under
/// several configurations, build a session instead and use
/// [`FsimEngine::rerun`].
pub fn compute(g1: &Graph, g2: &Graph, cfg: &FsimConfig) -> Result<FsimResult, ConfigError> {
    // A one-shot engine is consumed immediately: recording an edit-replay
    // trajectory would be pure overhead.
    let mut cfg = cfg.clone();
    cfg.trajectory_budget = 0;
    Ok(FsimEngine::new(g1, g2, &cfg)?.into_result())
}

/// Computes fractional simulation with a custom [`Operator`] — the
/// "configure the framework" path of §4 (e.g. [`crate::operators::SimRankOp`]
/// or user-defined variants). One-shot wrapper over
/// [`FsimEngine::with_operator`].
pub fn compute_with_operator<O: Operator>(
    g1: &Graph,
    g2: &Graph,
    cfg: &FsimConfig,
    op: &O,
) -> Result<FsimResult, ConfigError> {
    let mut cfg = cfg.clone();
    cfg.trajectory_budget = 0;
    Ok(FsimEngine::with_operator(g1, g2, &cfg, op)?.into_result())
}

/// One-shot re-evaluation of Equation 3 for an arbitrary pair against a
/// finished result — used to query pairs that were pruned from the
/// maintained set (their converged value is one update step away).
///
/// Rebuilds the label alignment on every call; inside a session,
/// [`FsimEngine::score`] serves the same answer from cache.
pub fn score_on_demand(
    g1: &Graph,
    g2: &Graph,
    cfg: &FsimConfig,
    result: &FsimResult,
    u: NodeId,
    v: NodeId,
) -> f64 {
    if let Some(s) = result.get(u, v) {
        return s;
    }
    let op = crate::operators::VariantOp {
        variant: cfg.variant,
        matcher: cfg.matcher,
    };
    let aligned = AlignedLabels::new(g1, g2);
    let label_eval = build_label_eval(cfg, &aligned.interner);
    let ctx = OpCtx {
        labels1: &aligned.labels1,
        labels2: &aligned.labels2,
        label_eval: &label_eval,
        theta: cfg.theta,
    };
    let view = result.view();
    let mut scratch = OpScratch::new();
    iterate::pair_update(g1, g2, &ctx, cfg, &op, u, v, &view, &mut scratch)
}

/// Convenience: computes all four variants of Table 2 for a pair list,
/// through one session (label alignment and — for θ = 0, the usual Table-2
/// setting — the candidate store are built once).
pub fn all_variants(
    g1: &Graph,
    g2: &Graph,
    base_cfg: &FsimConfig,
) -> Result<[(Variant, FsimResult); 4], ConfigError> {
    let mut first_cfg = base_cfg.clone();
    first_cfg.variant = Variant::Simple;
    let mut engine = FsimEngine::new(g1, g2, &first_cfg)?;
    engine.run();
    let simple = engine.snapshot();
    let mut rest = Vec::with_capacity(3);
    for variant in [Variant::DegreePreserving, Variant::Bi] {
        engine.rerun(|c| c.variant = variant)?;
        rest.push((variant, engine.snapshot()));
    }
    engine.rerun(|c| c.variant = Variant::Bijective)?;
    let bijective = engine.into_result();
    let [dp, bi] = <[(Variant, FsimResult); 2]>::try_from(rest).expect("two snapshots");
    Ok([
        (Variant::Simple, simple),
        dp,
        bi,
        (Variant::Bijective, bijective),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MatcherKind;
    use fsim_graph::examples::figure1;
    use fsim_graph::graph_from_parts;
    use fsim_labels::LabelFn;

    fn cfg(variant: Variant) -> FsimConfig {
        FsimConfig::new(variant).label_fn(LabelFn::Indicator)
    }

    #[test]
    fn trivial_identical_graphs_score_one_on_diagonal() {
        let g = graph_from_parts(&["a", "b", "c"], &[(0, 1), (1, 2)]);
        for v in Variant::ALL {
            let mut c = cfg(v);
            c.matcher = MatcherKind::Hungarian;
            let r = compute(&g, &g, &c).unwrap();
            for u in g.nodes() {
                let s = r.get(u, u).unwrap();
                assert!((s - 1.0).abs() < 1e-9, "variant {v}: FSim({u},{u}) = {s}");
            }
        }
    }

    #[test]
    fn figure1_table2_check_pattern() {
        let f = figure1();
        // Expected exact-simulation pattern from Table 2 (✓ = score 1).
        let expected: [(Variant, [bool; 4]); 4] = [
            (Variant::Simple, [false, true, true, true]),
            (Variant::DegreePreserving, [false, false, true, true]),
            (Variant::Bi, [false, true, false, true]),
            (Variant::Bijective, [false, false, false, true]),
        ];
        for (variant, row) in expected {
            let mut c = cfg(variant);
            c.matcher = MatcherKind::Hungarian; // exact mapping ⇒ exact P2
            let r = compute(&f.pattern, &f.data, &c).unwrap();
            for (i, &should_be_one) in row.iter().enumerate() {
                let s = r.get(f.u, f.v[i]).unwrap();
                if should_be_one {
                    assert!(
                        (s - 1.0).abs() < 1e-9,
                        "{variant}: (u,v{}) = {s}, want 1",
                        i + 1
                    );
                } else {
                    assert!(s < 1.0 - 1e-9, "{variant}: (u,v{}) = {s}, want < 1", i + 1);
                }
            }
        }
    }

    #[test]
    fn figure1_fractional_scores_are_ordered_like_table2() {
        let f = figure1();
        let r = compute(&f.pattern, &f.data, &cfg(Variant::Bijective)).unwrap();
        let scores: Vec<f64> = f.v.iter().map(|&v| r.get(f.u, v).unwrap()).collect();
        // Table 2 row bj: 0.72 < 0.81 < 0.94 < 1.00 — monotone towards v4.
        assert!(scores[0] < scores[1]);
        assert!(scores[1] < scores[2]);
        assert!(scores[2] < scores[3]);
    }

    #[test]
    fn scores_lie_in_unit_interval() {
        let f = figure1();
        for v in Variant::ALL {
            let r = compute(&f.pattern, &f.data, &cfg(v)).unwrap();
            for (_, _, s) in r.iter_pairs() {
                assert!((0.0..=1.0).contains(&s));
            }
        }
    }

    #[test]
    fn bi_and_bijective_are_symmetric_p3() {
        // P3: converse-invariant variants must be symmetric. Compare
        // FSim(G1→G2) with FSim(G2→G1) transposed.
        let f = figure1();
        for variant in [Variant::Bi, Variant::Bijective] {
            let c = cfg(variant);
            let fwd = compute(&f.pattern, &f.data, &c).unwrap();
            let bwd = compute(&f.data, &f.pattern, &c).unwrap();
            for u in f.pattern.nodes() {
                for v in f.data.nodes() {
                    let a = fwd.get(u, v).unwrap();
                    let b = bwd.get(v, u).unwrap();
                    assert!(
                        (a - b).abs() < 1e-9,
                        "{variant}: asym at ({u},{v}): {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let f = figure1();
        for variant in Variant::ALL {
            let seq = compute(&f.pattern, &f.data, &cfg(variant)).unwrap();
            let par = compute(&f.pattern, &f.data, &cfg(variant).threads(4)).unwrap();
            assert_eq!(seq.pair_count(), par.pair_count());
            for ((u1, v1, s1), (u2, v2, s2)) in seq.iter_pairs().zip(par.iter_pairs()) {
                assert_eq!((u1, v1), (u2, v2));
                assert_eq!(s1, s2, "{variant}: parallel diverged at ({u1},{v1})");
            }
        }
    }

    #[test]
    fn converges_within_corollary1_bound() {
        let f = figure1();
        let c = cfg(Variant::Simple);
        let r = compute(&f.pattern, &f.data, &c).unwrap();
        assert!(r.converged, "must converge within ⌈log_w ε⌉ iterations");
        assert!(r.iterations <= c.iteration_bound());
    }

    #[test]
    fn delta_shrinks_geometrically() {
        // Theorem 1: Δ_{k+1} ≤ (w⁺+w⁻) Δ_k. Run with increasing caps and
        // check the reported deltas decrease.
        let f = figure1();
        let mut prev_delta = f64::INFINITY;
        for k in 1..=6 {
            let mut c = cfg(Variant::Bi);
            c.max_iters = Some(k);
            c.epsilon = 1e-12;
            let r = compute(&f.pattern, &f.data, &c).unwrap();
            assert!(
                r.final_delta <= prev_delta + 1e-12,
                "delta grew at k={k}: {} > {prev_delta}",
                r.final_delta
            );
            prev_delta = r.final_delta;
        }
    }

    #[test]
    fn theta_pruning_keeps_scores_close() {
        let f = figure1();
        let full = compute(&f.pattern, &f.data, &cfg(Variant::Simple)).unwrap();
        let pruned = compute(&f.pattern, &f.data, &cfg(Variant::Simple).theta(1.0)).unwrap();
        assert!(pruned.pair_count() < full.pair_count());
        // Maintained pairs still score within [0,1] and exact pairs stay 1.
        let s = pruned.get(f.u, f.v[3]).unwrap();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn upper_bound_pruning_is_sound() {
        let f = figure1();
        let full = compute(&f.pattern, &f.data, &cfg(Variant::Bijective)).unwrap();
        let mut c = cfg(Variant::Bijective).upper_bound(0.0, 0.5);
        c.theta = 0.0;
        let pruned = compute(&f.pattern, &f.data, &c).unwrap();
        // Every pair the pruned run keeps must have a full-run score no
        // larger than its upper bound; in particular (u, v4) must stay 1.
        assert!((pruned.get(f.u, f.v[3]).unwrap() - 1.0).abs() < 1e-9);
        assert!(pruned.pair_count() <= full.pair_count());
    }

    #[test]
    fn score_on_demand_serves_pruned_pairs() {
        let f = figure1();
        let c = cfg(Variant::Simple).theta(1.0);
        let r = compute(&f.pattern, &f.data, &c).unwrap();
        // A cross-label pair is pruned but can still be evaluated on demand.
        let hex_in_pattern = 1u32; // first hex child of u
        assert_eq!(r.get(hex_in_pattern, f.v[0]), None);
        let s = score_on_demand(&f.pattern, &f.data, &c, &r, hex_in_pattern, f.v[0]);
        assert!((0.0..=1.0).contains(&s));
        // Maintained pairs are returned as stored.
        let direct = r.get(f.u, f.v[3]).unwrap();
        assert_eq!(
            score_on_demand(&f.pattern, &f.data, &c, &r, f.u, f.v[3]),
            direct
        );
    }

    #[test]
    fn all_variants_matches_per_variant_compute() {
        let f = figure1();
        let base = cfg(Variant::Simple);
        let results = all_variants(&f.pattern, &f.data, &base).unwrap();
        for (variant, result) in results {
            let fresh = compute(&f.pattern, &f.data, &cfg(variant)).unwrap();
            assert_eq!(result.pair_count(), fresh.pair_count(), "{variant}");
            for (a, b) in result.iter_pairs().zip(fresh.iter_pairs()) {
                assert_eq!(a, b, "{variant}: session sweep diverged");
            }
        }
    }

    #[test]
    fn separate_interners_are_merged() {
        let g1 = graph_from_parts(&["a", "b"], &[(0, 1)]);
        let g2 = graph_from_parts(&["a", "b"], &[(0, 1)]); // different interner
        let r = compute(&g1, &g2, &cfg(Variant::Simple)).unwrap();
        assert!((r.get(0, 0).unwrap() - 1.0).abs() < 1e-9);
        assert!((r.get(1, 1).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_graph_yields_empty_result() {
        let g1 = graph_from_parts(&[], &[]);
        let g2 = graph_from_parts(&["a"], &[]);
        let r = compute(&g1, &g2, &cfg(Variant::Simple)).unwrap();
        assert_eq!(r.pair_count(), 0);
        assert!(r.converged);
    }
}
