//! Session-reuse properties: an `FsimEngine` that is reconfigured with
//! `rerun` must be indistinguishable — bitwise — from a fresh one-shot
//! `compute` under the final configuration, no matter which cached state
//! the reconfiguration kept.

use fsim::prelude::*;
use fsim_core::{FsimEngine, UpperBoundPruning};
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

fn assert_bitwise_equal(engine: &FsimEngine<'_>, fresh: &FsimResult, what: &str) {
    assert_eq!(
        engine.pair_count(),
        fresh.pair_count(),
        "{what}: pair sets differ"
    );
    for ((u1, v1, s1), (u2, v2, s2)) in engine.iter_pairs().zip(fresh.iter_pairs()) {
        assert_eq!((u1, v1), (u2, v2), "{what}: pair order differs");
        assert_eq!(
            s1.to_bits(),
            s2.to_bits(),
            "{what}: score differs at ({u1},{v1})"
        );
    }
    assert_eq!(
        engine.iterations(),
        fresh.iterations,
        "{what}: iteration count differs"
    );
    assert_eq!(
        engine.converged(),
        fresh.converged,
        "{what}: convergence differs"
    );
}

/// θ reruns across the whole sweep match fresh computes bitwise.
#[test]
fn rerun_theta_sweep_is_bitwise_identical_to_one_shot() {
    let mut rng = ChaCha8Rng::seed_from_u64(1001);
    for case in 0..24 {
        let (g1, g2) = arb_graph_pair(&mut rng, 7);
        let cfg = FsimConfig::new(Variant::Bijective).label_fn(LabelFn::Indicator);
        let mut engine = FsimEngine::new(&g1, &g2, &cfg).unwrap();
        engine.run();
        for theta in [0.0, 0.4, 1.0, 0.2, 0.0] {
            engine.rerun(|c| c.theta = theta).unwrap();
            let fresh = compute(&g1, &g2, &cfg.clone().theta(theta)).unwrap();
            assert_bitwise_equal(&engine, &fresh, &format!("case {case} theta={theta}"));
        }
    }
}

/// Variant reruns match fresh computes bitwise.
#[test]
fn rerun_variant_sweep_is_bitwise_identical_to_one_shot() {
    let mut rng = ChaCha8Rng::seed_from_u64(2002);
    for case in 0..24 {
        let (g1, g2) = arb_graph_pair(&mut rng, 7);
        let cfg = FsimConfig::new(Variant::Simple).label_fn(LabelFn::Indicator);
        let mut engine = FsimEngine::new(&g1, &g2, &cfg).unwrap();
        engine.run();
        for variant in [
            Variant::Bi,
            Variant::Bijective,
            Variant::DegreePreserving,
            Variant::Simple,
        ] {
            engine.rerun(|c| c.variant = variant).unwrap();
            let mut fresh_cfg = cfg.clone();
            fresh_cfg.variant = variant;
            let fresh = compute(&g1, &g2, &fresh_cfg).unwrap();
            assert_bitwise_equal(&engine, &fresh, &format!("case {case} variant={variant}"));
        }
    }
}

/// Chained mixed reconfigurations (ε, weights, θ, variant, matcher, label
/// function) still land exactly on the one-shot answer.
#[test]
fn chained_mixed_reruns_match_one_shot() {
    let mut rng = ChaCha8Rng::seed_from_u64(3003);
    for case in 0..16 {
        let (g1, g2) = arb_graph_pair(&mut rng, 6);
        let cfg = FsimConfig::new(Variant::Simple).label_fn(LabelFn::Indicator);
        let mut engine = FsimEngine::new(&g1, &g2, &cfg).unwrap();
        engine.run();
        for step in 0..6 {
            // Randomized reconfiguration of several knobs at once.
            let theta = [0.0, 0.5, 1.0][rng.gen_range(0..3usize)];
            let variant = Variant::ALL[rng.gen_range(0..4usize)];
            let epsilon = [0.01, 0.001][rng.gen_range(0..2usize)];
            let w = [0.3, 0.4][rng.gen_range(0..2usize)];
            let matcher = [MatcherKind::Greedy, MatcherKind::Hungarian][rng.gen_range(0..2usize)];
            let label_fn =
                [LabelFn::Indicator, LabelFn::JaroWinkler][rng.gen_range(0..2usize)].clone();
            engine
                .rerun(|c| {
                    c.theta = theta;
                    c.variant = variant;
                    c.epsilon = epsilon;
                    c.w_out = w;
                    c.w_in = w;
                    c.matcher = matcher;
                    c.label_fn = label_fn.clone();
                })
                .unwrap();
            let fresh = compute(&g1, &g2, engine.config()).unwrap();
            assert_bitwise_equal(&engine, &fresh, &format!("case {case} step {step}"));
        }
    }
}

/// Upper-bound pruning reruns rebuild the store correctly.
#[test]
fn rerun_upper_bound_matches_one_shot() {
    let mut rng = ChaCha8Rng::seed_from_u64(4004);
    for case in 0..16 {
        let (g1, g2) = arb_graph_pair(&mut rng, 6);
        let cfg = FsimConfig::new(Variant::Bijective).label_fn(LabelFn::Indicator);
        let mut engine = FsimEngine::new(&g1, &g2, &cfg).unwrap();
        engine.run();
        for beta in [0.8, 0.4, 0.0] {
            engine
                .rerun(|c| {
                    c.upper_bound = if beta > 0.0 {
                        Some(UpperBoundPruning { alpha: 0.0, beta })
                    } else {
                        None
                    }
                })
                .unwrap();
            let fresh = compute(&g1, &g2, engine.config()).unwrap();
            assert_bitwise_equal(&engine, &fresh, &format!("case {case} beta={beta}"));
        }
    }
}

/// `score()` on a pruned pair matches `score_on_demand` against the
/// equivalent one-shot result, bitwise.
#[test]
fn session_score_matches_score_on_demand_for_pruned_pairs() {
    let mut rng = ChaCha8Rng::seed_from_u64(5005);
    let mut checked_pruned = 0usize;
    for _ in 0..24 {
        let (g1, g2) = arb_graph_pair(&mut rng, 7);
        let cfg = FsimConfig::new(Variant::Bi)
            .label_fn(LabelFn::Indicator)
            .theta(1.0);
        let mut engine = FsimEngine::new(&g1, &g2, &cfg).unwrap();
        engine.run();
        let fresh = compute(&g1, &g2, &cfg).unwrap();
        for u in g1.nodes() {
            for v in g2.nodes() {
                let on_demand = score_on_demand(&g1, &g2, &cfg, &fresh, u, v);
                assert_eq!(
                    engine.score(u, v).to_bits(),
                    on_demand.to_bits(),
                    "session score diverged at ({u},{v})"
                );
                if fresh.get(u, v).is_none() {
                    checked_pruned += 1;
                }
            }
        }
    }
    assert!(
        checked_pruned > 50,
        "too few pruned pairs exercised: {checked_pruned}"
    );
}

/// Session `top_k` equals `top_k_pairs` over the one-shot result.
#[test]
fn session_top_k_matches_one_shot_top_k() {
    let mut rng = ChaCha8Rng::seed_from_u64(6006);
    for _ in 0..16 {
        let (g1, g2) = arb_graph_pair(&mut rng, 7);
        let cfg = FsimConfig::new(Variant::Bijective).label_fn(LabelFn::Indicator);
        let mut engine = FsimEngine::new(&g1, &g2, &cfg).unwrap();
        engine.run();
        let fresh = compute(&g1, &g2, &cfg).unwrap();
        for k in [1, 3, 10] {
            assert_eq!(
                engine.top_k(k, false),
                fsim::core::top_k_pairs(&fresh, k, false)
            );
            assert_eq!(
                engine.top_k(k, true),
                fsim::core::top_k_pairs(&fresh, k, true)
            );
        }
    }
}

/// Parallel sessions rerun bitwise-identically to sequential sessions.
#[test]
fn parallel_rerun_matches_sequential_rerun() {
    let mut rng = ChaCha8Rng::seed_from_u64(7007);
    let mut cases: Vec<_> = (0..12).map(|_| arb_graph_pair(&mut rng, 7)).collect();
    // One store long enough for four workers to run its long steps on the
    // pool at every θ below (a third of the pairs share a label).
    cases.push(graph_pair(&mut rng, 120..=120));
    for (case, (g1, g2)) in cases.iter().enumerate() {
        let cfg = FsimConfig::new(Variant::Bi).label_fn(LabelFn::Indicator);
        let mut seq = FsimEngine::new(g1, g2, &cfg).unwrap();
        let mut par = FsimEngine::new(g1, g2, &cfg.clone().threads(4)).unwrap();
        seq.run();
        par.run();
        if case == cases.len() - 1 {
            assert!(par.pair_count() >= 4096, "store too small to go parallel");
        }
        for theta in [0.5, 0.0, 1.0] {
            seq.rerun(|c| c.theta = theta).unwrap();
            par.rerun(|c| c.theta = theta).unwrap();
            let a: Vec<_> = seq.iter_pairs().collect();
            let b: Vec<_> = par.iter_pairs().collect();
            assert_eq!(a.len(), b.len());
            for ((u1, v1, s1), (u2, v2, s2)) in a.iter().zip(&b) {
                assert_eq!((u1, v1), (u2, v2));
                assert_eq!(s1.to_bits(), s2.to_bits(), "theta={theta} at ({u1},{v1})");
            }
        }
    }
}
