//! Sharded-execution properties: u-row sharding with boundary exchange
//! must be indistinguishable — bitwise, including iteration counts,
//! deltas and per-iteration evaluation counts — from unsharded execution
//! for the exact convergence modes, across variants × θ × upper-bound
//! pruning × thread counts × shard counts; sharded **approximate** runs
//! must never err beyond the certified bound they report; and the sharded
//! edit path must keep both contracts.

use fsim::prelude::*;
use fsim_core::{FsimEngine, ShardSpec};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn arb_graph_pair(rng: &mut ChaCha8Rng, max_n: usize) -> (Graph, Graph) {
    graph_pair(rng, 2..=max_n)
}

/// Two random graphs whose node counts are drawn from `nodes`.
fn graph_pair(rng: &mut ChaCha8Rng, nodes: std::ops::RangeInclusive<usize>) -> (Graph, Graph) {
    let names = ["a", "b", "c"];
    let mk = |rng: &mut ChaCha8Rng, b: &mut GraphBuilder| {
        let n = rng.gen_range(nodes.clone());
        for _ in 0..n {
            b.add_node(names[rng.gen_range(0..3usize)]);
        }
        let m = rng.gen_range(0..=(2 * n));
        for _ in 0..m {
            b.add_edge(rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32);
        }
    };
    let interner = LabelInterner::shared();
    let mut b1 = GraphBuilder::with_interner(std::sync::Arc::clone(&interner));
    mk(rng, &mut b1);
    let mut b2 = GraphBuilder::with_interner(interner);
    mk(rng, &mut b2);
    (b1.build(), b2.build())
}

/// Runs `cfg` unsharded (DeltaDriven) and sharded (`Fixed(k)`) and asserts
/// bitwise equality of every observable.
fn assert_sharded_matches_unsharded(
    g1: &Graph,
    g2: &Graph,
    cfg: &FsimConfig,
    k: usize,
    what: &str,
) {
    let mut whole = FsimEngine::new(
        g1,
        g2,
        &cfg.clone().convergence(ConvergenceMode::DeltaDriven),
    )
    .expect("valid config");
    whole.run();
    let mut sharded =
        FsimEngine::new(g1, g2, &cfg.clone().shards(ShardSpec::Fixed(k))).expect("valid config");
    sharded.run();
    assert_eq!(
        whole.pair_count(),
        sharded.pair_count(),
        "{what}: pair sets"
    );
    if sharded.pair_count() > 0 {
        assert!(
            sharded.shard_count() >= 1 && sharded.shard_count() <= k,
            "{what}: shard count {} for requested {k}",
            sharded.shard_count()
        );
        assert!(sharded.delta_scheduled(), "{what}: sharded is delta-driven");
        assert_eq!(
            sharded.dep_entry_count(),
            None,
            "{what}: sharded must not hold the full CSR"
        );
    }
    for ((u1, v1, s1), (u2, v2, s2)) in whole.iter_pairs().zip(sharded.iter_pairs()) {
        assert_eq!((u1, v1), (u2, v2), "{what}: pair order differs");
        assert_eq!(
            s1.to_bits(),
            s2.to_bits(),
            "{what}: score differs at ({u1},{v1})"
        );
    }
    assert_eq!(
        whole.iterations(),
        sharded.iterations(),
        "{what}: iterations"
    );
    assert_eq!(
        whole.converged(),
        sharded.converged(),
        "{what}: convergence"
    );
    assert_eq!(
        whole.final_delta().to_bits(),
        sharded.final_delta().to_bits(),
        "{what}: final delta"
    );
    assert_eq!(
        whole.pairs_evaluated(),
        sharded.pairs_evaluated(),
        "{what}: per-iteration evaluation counts"
    );
}

/// Sharded vs unsharded bitwise equality across variants, θ and K.
#[test]
fn sharded_matches_unsharded_across_variants_theta_and_k() {
    let mut rng = ChaCha8Rng::seed_from_u64(9101);
    for case in 0..8 {
        let (g1, g2) = arb_graph_pair(&mut rng, 7);
        for variant in Variant::ALL {
            for theta in [0.0, 0.5, 1.0] {
                for k in [1, 3, 16] {
                    let cfg = FsimConfig::new(variant)
                        .label_fn(LabelFn::Indicator)
                        .theta(theta);
                    assert_sharded_matches_unsharded(
                        &g1,
                        &g2,
                        &cfg,
                        k,
                        &format!("case {case} {variant} θ={theta} K={k}"),
                    );
                }
            }
        }
    }
}

/// Sharded vs unsharded under upper-bound pruning (α·ub constants baked
/// into the transient shard CSRs) and the Hungarian matcher.
#[test]
fn sharded_matches_unsharded_under_pruning_and_matchers() {
    let mut rng = ChaCha8Rng::seed_from_u64(9202);
    for case in 0..8 {
        let (g1, g2) = arb_graph_pair(&mut rng, 6);
        for matcher in [MatcherKind::Greedy, MatcherKind::Hungarian] {
            for (alpha, beta) in [(0.0, 0.6), (0.3, 0.6)] {
                let mut cfg = FsimConfig::new(Variant::Bijective)
                    .label_fn(LabelFn::Indicator)
                    .upper_bound(alpha, beta);
                cfg.matcher = matcher;
                assert_sharded_matches_unsharded(
                    &g1,
                    &g2,
                    &cfg,
                    4,
                    &format!("case {case} {matcher:?} α={alpha} β={beta}"),
                );
            }
        }
    }
}

/// A dense step sweeps every live slot (one with a maintained dependency)
/// and counts them all, including live slots outside the dependents of
/// the changed set. The sharded driver must take the same step: on this
/// graph a dense step evaluates more slots than its dependents, so a
/// sharded driver that evaluated only the dependents would report other
/// per-iteration counts.
#[test]
fn sharded_live_sweeps_match_unsharded_counts() {
    // One label and θ = 0: every pair is maintained and reads every pair
    // of same-direction neighbors, so the dependency structure follows
    // from the adjacency alone.
    let g = fsim::graph::graph_from_parts(
        &["a"; 7],
        &[
            (5, 2),
            (6, 3),
            (1, 3),
            (0, 5),
            (1, 0),
            (2, 3),
            (4, 2),
            (4, 3),
            (1, 4),
            (1, 5),
        ],
    );
    let mut cfg = FsimConfig::new(Variant::DegreePreserving)
        .label_fn(LabelFn::Indicator)
        .theta(0.0);
    cfg.epsilon = 1e-9;
    let mut whole = FsimEngine::new(
        &g,
        &g,
        &cfg.clone().convergence(ConvergenceMode::DeltaDriven),
    )
    .unwrap();
    whole.run();
    let counts = whole.pairs_evaluated().to_vec();

    let (out, inn) = (|u: u32| g.out_neighbors(u), |u: u32| g.in_neighbors(u));
    let pairs: Vec<(u32, u32)> = whole.iter_pairs().map(|(u, v, _)| (u, v)).collect();
    let live = pairs
        .iter()
        .filter(|&&(u, v)| out(u).len() * out(v).len() + inn(u).len() * inn(v).len() > 0)
        .count();
    let reads = |(u, v): (u32, u32), (x, y): (u32, u32)| {
        (out(u).contains(&x) && out(v).contains(&y)) || (inn(u).contains(&x) && inn(v).contains(&y))
    };
    // Iterate `k` of a full sweep.
    let iterate = |k: usize| -> Vec<u64> {
        let mut c = cfg.clone().convergence(ConvergenceMode::FullSweep);
        c.max_iters = Some(k);
        c.epsilon = 0.0;
        let mut e = FsimEngine::new(&g, &g, &c).unwrap();
        e.run();
        e.iter_pairs().map(|(_, _, s)| s.to_bits()).collect()
    };
    // A sparse step k evaluates the dependents of C_{k−1}, the slots
    // iteration k − 1 changed, and a dense one every live slot; some step
    // here evaluates every live slot although fewer depend on C_{k−1}.
    let beyond = (2..=counts.len()).any(|k| {
        let (a, b) = (iterate(k - 2), iterate(k - 1));
        let changed: Vec<(u32, u32)> = (0..pairs.len())
            .filter(|&s| a[s] != b[s])
            .map(|s| pairs[s])
            .collect();
        let dependents = pairs
            .iter()
            .filter(|&&p| changed.iter().any(|&c| reads(p, c)))
            .count();
        counts[k - 1] == live && dependents < live
    });
    assert!(beyond, "no dense step beyond the dependents: {counts:?}");
    for k in [2, 3, 7] {
        assert_sharded_matches_unsharded(&g, &g, &cfg, k, &format!("live sweep K={k}"));
    }
}

/// Multi-threaded sharded execution matches single-threaded sharded (and
/// hence unsharded) execution bitwise.
#[test]
fn parallel_sharded_matches_sequential_sharded() {
    let mut rng = ChaCha8Rng::seed_from_u64(9303);
    let mut cases: Vec<_> = (0..8).map(|_| arb_graph_pair(&mut rng, 7)).collect();
    // One store long enough that a shard's worklist (about a quarter of
    // it) runs on the pool.
    cases.push(graph_pair(&mut rng, 150..=150));
    for (case, (g1, g2)) in cases.iter().enumerate() {
        let cfg = FsimConfig::new(Variant::Bi)
            .label_fn(LabelFn::Indicator)
            .shards(ShardSpec::Fixed(4));
        let mut seq = FsimEngine::new(g1, g2, &cfg).unwrap();
        seq.run();
        let mut par = FsimEngine::new(g1, g2, &cfg.clone().threads(4)).unwrap();
        par.run();
        if case == cases.len() - 1 {
            assert!(
                par.pair_count() >= 4 * 4096,
                "shards too small to go parallel"
            );
        }
        assert_eq!(seq.pair_count(), par.pair_count(), "case {case}");
        for ((u1, v1, s1), (u2, v2, s2)) in seq.iter_pairs().zip(par.iter_pairs()) {
            assert_eq!((u1, v1), (u2, v2), "case {case}");
            assert_eq!(s1.to_bits(), s2.to_bits(), "case {case} at ({u1},{v1})");
        }
        assert_eq!(seq.iterations(), par.iterations(), "case {case}");
        assert_eq!(seq.pairs_evaluated(), par.pairs_evaluated(), "case {case}");
    }
}

/// A sharded **approximate** run's observed error against the exact
/// scores never exceeds its certified bound, and the bound matches the
/// unsharded approximate bound semantics (tolerance 0 limit → exact).
#[test]
fn sharded_approximate_error_stays_within_reported_bound() {
    let mut rng = ChaCha8Rng::seed_from_u64(9404);
    for case in 0..10 {
        let (g1, g2) = arb_graph_pair(&mut rng, 7);
        for theta in [0.0, 0.5] {
            for tolerance in [0.25, 1.0, 5.0] {
                let mut base = FsimConfig::new(Variant::Bi)
                    .label_fn(LabelFn::Indicator)
                    .theta(theta);
                base.epsilon = 1e-4;
                let exact = compute(&g1, &g2, &base).unwrap();
                let mut approx = FsimEngine::new(
                    &g1,
                    &g2,
                    &base
                        .clone()
                        .convergence(ConvergenceMode::Approximate { tolerance })
                        .shards(ShardSpec::Fixed(4)),
                )
                .unwrap();
                approx.run();
                assert_eq!(exact.pair_count(), approx.pair_count());
                let bound = approx.error_bound();
                assert!(bound.is_finite() && bound >= 0.0);
                for ((u1, v1, s1), (u2, v2, s2)) in exact.iter_pairs().zip(approx.iter_pairs()) {
                    assert_eq!((u1, v1), (u2, v2));
                    let err = (s1 - s2).abs();
                    assert!(
                        err <= bound,
                        "case {case} θ={theta} tol={tolerance}: err {err:.3e} > bound {bound:.3e} at ({u1},{v1})"
                    );
                }
            }
        }
    }
}

/// Sharded `apply_edits` (exact modes): the cold sharded re-run after the
/// incremental repair is bitwise identical to a fresh session on the
/// edited graphs, across chained batches.
#[test]
fn sharded_edits_match_cold_recompute() {
    let mut rng = ChaCha8Rng::seed_from_u64(9505);
    for case in 0..8 {
        let (g1, g2) = arb_graph_pair(&mut rng, 6);
        for theta in [0.0, 1.0] {
            let cfg = FsimConfig::new(Variant::Simple)
                .label_fn(LabelFn::Indicator)
                .theta(theta)
                .shards(ShardSpec::Fixed(3));
            let mut engine = FsimEngine::new(&g1, &g2, &cfg).unwrap();
            engine.run();
            for step in 0..3 {
                let n2 = g2.node_count() as u32;
                let (a, b) = (rng.gen_range(0..n2), rng.gen_range(0..n2));
                let edit = if rng.gen_bool(0.5) {
                    GraphEdit::add_edge(GraphSide::Right, a, b)
                } else {
                    GraphEdit::remove_edge(GraphSide::Right, a, b)
                };
                engine.apply_edits(&[edit]).unwrap();
                let (e1, e2) = engine.graphs();
                let fresh = compute(e1, e2, engine.config()).unwrap();
                assert_eq!(
                    engine.pair_count(),
                    fresh.pair_count(),
                    "case {case} θ={theta} step {step}"
                );
                for ((u1, v1, s1), (u2, v2, s2)) in engine.iter_pairs().zip(fresh.iter_pairs()) {
                    assert_eq!((u1, v1), (u2, v2), "case {case} θ={theta} step {step}");
                    assert_eq!(
                        s1.to_bits(),
                        s2.to_bits(),
                        "case {case} θ={theta} step {step} at ({u1},{v1})"
                    );
                }
                assert_eq!(engine.iterations(), fresh.iterations);
            }
        }
    }
}

/// Sharded **approximate** edits re-iterate over the repaired structures
/// and stay within the certified bound against an exact cold oracle.
#[test]
fn sharded_approximate_edits_stay_within_bound() {
    let mut rng = ChaCha8Rng::seed_from_u64(9606);
    for case in 0..6 {
        let (g1, g2) = arb_graph_pair(&mut rng, 6);
        let mut base = FsimConfig::new(Variant::Bi).label_fn(LabelFn::Indicator);
        base.epsilon = 1e-4;
        let cfg = base
            .clone()
            .convergence(ConvergenceMode::Approximate { tolerance: 1.0 })
            .shards(ShardSpec::Fixed(3));
        let mut engine = FsimEngine::new(&g1, &g2, &cfg).unwrap();
        engine.run();
        for step in 0..3 {
            let n2 = g2.node_count() as u32;
            let (a, b) = (rng.gen_range(0..n2), rng.gen_range(0..n2));
            let edit = if rng.gen_bool(0.5) {
                GraphEdit::add_edge(GraphSide::Right, a, b)
            } else {
                GraphEdit::remove_edge(GraphSide::Right, a, b)
            };
            engine.apply_edits(&[edit]).unwrap();
            let (e1, e2) = engine.graphs();
            let exact = compute(e1, e2, &base).unwrap();
            assert_eq!(
                engine.pair_count(),
                exact.pair_count(),
                "case {case} step {step}"
            );
            let bound = engine.error_bound();
            for ((u1, v1, s1), (u2, v2, s2)) in engine.iter_pairs().zip(exact.iter_pairs()) {
                assert_eq!((u1, v1), (u2, v2));
                let err = (s1 - s2).abs();
                assert!(
                    err <= bound,
                    "case {case} step {step}: err {err:.3e} > bound {bound:.3e} at ({u1},{v1})"
                );
            }
        }
    }
}

/// Reruns of a sharded session (ε, variant, θ changes) keep matching a
/// fresh one-shot compute bitwise, exercising plan caching + store
/// rebuild invalidation.
#[test]
fn sharded_reruns_match_one_shot_compute() {
    let mut rng = ChaCha8Rng::seed_from_u64(9707);
    for case in 0..6 {
        let (g1, g2) = arb_graph_pair(&mut rng, 7);
        let cfg = FsimConfig::new(Variant::Simple)
            .label_fn(LabelFn::Indicator)
            .shards(ShardSpec::Fixed(4));
        let mut engine = FsimEngine::new(&g1, &g2, &cfg).unwrap();
        engine.run();
        for step in 0..4 {
            let theta = [0.0, 0.5, 1.0][rng.gen_range(0..3usize)];
            let variant = Variant::ALL[rng.gen_range(0..4usize)];
            engine
                .rerun(|c| {
                    c.theta = theta;
                    c.variant = variant;
                })
                .unwrap();
            let fresh = compute(&g1, &g2, engine.config()).unwrap();
            assert_eq!(
                engine.pair_count(),
                fresh.pair_count(),
                "case {case} step {step}"
            );
            for ((u1, v1, s1), (u2, v2, s2)) in engine.iter_pairs().zip(fresh.iter_pairs()) {
                assert_eq!((u1, v1), (u2, v2), "case {case} step {step}");
                assert_eq!(
                    s1.to_bits(),
                    s2.to_bits(),
                    "case {case} step {step} at ({u1},{v1})"
                );
            }
            assert_eq!(engine.iterations(), fresh.iterations);
        }
    }
}

/// The SimRank operator (reads ineligible pairs, custom slot path) is
/// schedule-invariant under sharding too.
#[test]
fn simrank_operator_is_shard_invariant() {
    use fsim_core::SimRankOp;
    let mut rng = ChaCha8Rng::seed_from_u64(9808);
    for case in 0..5 {
        let (g, _) = arb_graph_pair(&mut rng, 8);
        let mut cfg = FsimConfig::new(Variant::Simple);
        cfg.w_out = 0.0;
        cfg.w_in = 0.7;
        cfg.epsilon = 1e-6;
        cfg.label_term = LabelTermMode::Constant(0.0);
        cfg.init = InitScheme::Identity;
        cfg.pin_identical = true;
        let mut whole = FsimEngine::with_operator(
            &g,
            &g,
            &cfg.clone().convergence(ConvergenceMode::DeltaDriven),
            SimRankOp,
        )
        .unwrap();
        whole.run();
        let mut sharded =
            FsimEngine::with_operator(&g, &g, &cfg.clone().shards(ShardSpec::Fixed(4)), SimRankOp)
                .unwrap();
        sharded.run();
        assert_eq!(whole.iterations(), sharded.iterations(), "case {case}");
        for ((u1, v1, s1), (u2, v2, s2)) in whole.iter_pairs().zip(sharded.iter_pairs()) {
            assert_eq!((u1, v1), (u2, v2), "case {case}");
            assert_eq!(
                s1.to_bits(),
                s2.to_bits(),
                "case {case}: SimRank diverged at ({u1},{v1})"
            );
        }
    }
}

/// Rerunning with a different `ShardSpec` must be honored: an
/// auto-sharded session switched to `Off` builds the full CSR, a
/// `Fixed(k)`-sharded session switched to `Auto` on a fits-the-budget
/// workload goes unsharded, and switching back re-shards — with
/// identical scores throughout.
#[test]
fn rerun_shard_spec_switches_are_honored() {
    let mut rng = ChaCha8Rng::seed_from_u64(9010);
    let (g1, g2) = arb_graph_pair(&mut rng, 7);
    let base = FsimConfig::new(Variant::Bijective).label_fn(LabelFn::Indicator);

    // Auto-sharded (zero budget) → Off must stop sharding.
    let mut engine = FsimEngine::new(&g1, &g2, &base.clone().csr_budget(0)).unwrap();
    engine.run();
    assert!(engine.shard_count() > 0, "zero budget must auto-shard");
    let sharded_scores: Vec<_> = engine.iter_pairs().collect();
    engine.rerun(|c| c.shards = ShardSpec::Off).unwrap();
    assert_eq!(engine.shard_count(), 0, "Off must never shard");
    assert!(engine.delta_scheduled(), "Off + zero budget runs delta");
    assert!(
        engine.dep_entry_count().is_some(),
        "Off + zero budget holds the full CSR"
    );
    let off_scores: Vec<_> = engine.iter_pairs().collect();
    for (a, b) in sharded_scores.iter().zip(&off_scores) {
        assert_eq!(a.2.to_bits(), b.2.to_bits(), "spec switch changed scores");
    }
    // And back to Auto: shards again.
    engine.rerun(|c| c.shards = ShardSpec::Auto).unwrap();
    assert!(engine.shard_count() > 0, "Auto over budget must re-shard");

    // Fixed(k)-sharded → Auto on a workload that fits the default
    // budget must go unsharded.
    let mut fixed = FsimEngine::new(&g1, &g2, &base.clone().shards(ShardSpec::Fixed(3))).unwrap();
    fixed.run();
    assert!(fixed.shard_count() > 0);
    fixed.rerun(|c| c.shards = ShardSpec::Auto).unwrap();
    assert_eq!(
        fixed.shard_count(),
        0,
        "Auto on a fitting workload stays unsharded"
    );
    assert!(
        fixed.delta_scheduled(),
        "fitting workload uses the full CSR"
    );
    for (a, b) in fixed.iter_pairs().zip(&off_scores) {
        assert_eq!((a.0, a.1), (b.0, b.1));
        assert_eq!(a.2.to_bits(), b.2.to_bits(), "Fixed→Auto changed scores");
    }
}

/// Peak resident CSR bytes shrink as K grows (the whole point), and the
/// sharded peak never exceeds the full CSR's footprint.
#[test]
fn peak_csr_bytes_shrink_with_shard_count() {
    let mut rng = ChaCha8Rng::seed_from_u64(9909);
    // A denser self-similarity workload so the CSR has real weight.
    let (g, _) = arb_graph_pair(&mut rng, 24);
    let base = FsimConfig::new(Variant::Simple).label_fn(LabelFn::Indicator);
    let mut whole = FsimEngine::new(
        &g,
        &g,
        &base.clone().convergence(ConvergenceMode::DeltaDriven),
    )
    .unwrap();
    whole.run();
    let full_bytes = whole.peak_csr_bytes();
    assert!(full_bytes > 0);
    let mut prev = usize::MAX;
    for k in [1, 4, 16] {
        let mut sharded =
            FsimEngine::new(&g, &g, &base.clone().shards(ShardSpec::Fixed(k))).unwrap();
        sharded.run();
        let peak = sharded.peak_csr_bytes();
        assert!(peak > 0, "K={k}");
        assert!(
            peak <= full_bytes,
            "K={k}: shard peak {peak} exceeds full CSR {full_bytes}"
        );
        assert!(
            peak <= prev,
            "K={k}: peak {peak} grew over smaller K ({prev})"
        );
        prev = peak;
    }
}
