//! Delta-driven convergence properties: the dirty-pair scheduler over the
//! pair-dependency CSR must be indistinguishable — bitwise, including
//! iteration counts and deltas — from the full Algorithm-1 sweep, across
//! variants × θ × upper-bound pruning × thread counts (mirroring the
//! session-reuse property suite).

use fsim::prelude::*;
use fsim_core::FsimEngine;
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

/// Runs `cfg` under both scheduling modes and asserts bitwise equality of
/// every observable, returning the two engines' per-iteration work.
fn assert_modes_agree(
    g1: &Graph,
    g2: &Graph,
    cfg: &FsimConfig,
    what: &str,
) -> (Vec<usize>, Vec<usize>) {
    let mut sweep = FsimEngine::new(g1, g2, &cfg.clone().convergence(ConvergenceMode::FullSweep))
        .expect("valid config");
    sweep.run();
    assert!(!sweep.delta_scheduled(), "{what}: sweep engine used delta");
    let mut delta = FsimEngine::new(
        g1,
        g2,
        &cfg.clone().convergence(ConvergenceMode::DeltaDriven),
    )
    .expect("valid config");
    delta.run();
    assert_eq!(sweep.pair_count(), delta.pair_count(), "{what}: pair sets");
    if delta.pair_count() > 0 {
        assert!(
            delta.delta_scheduled(),
            "{what}: DeltaDriven must build the CSR"
        );
    }
    for ((u1, v1, s1), (u2, v2, s2)) in sweep.iter_pairs().zip(delta.iter_pairs()) {
        assert_eq!((u1, v1), (u2, v2), "{what}: pair order differs");
        assert_eq!(
            s1.to_bits(),
            s2.to_bits(),
            "{what}: score differs at ({u1},{v1})"
        );
    }
    assert_eq!(sweep.iterations(), delta.iterations(), "{what}: iterations");
    assert_eq!(sweep.converged(), delta.converged(), "{what}: convergence");
    assert_eq!(
        sweep.final_delta().to_bits(),
        delta.final_delta().to_bits(),
        "{what}: final delta"
    );
    let sw = sweep.pairs_evaluated().to_vec();
    let dw = delta.pairs_evaluated().to_vec();
    assert_eq!(sw.len(), sweep.iterations(), "{what}: sweep counts");
    assert_eq!(dw.len(), delta.iterations(), "{what}: delta counts");
    for (k, &evaluated) in sw.iter().enumerate() {
        assert_eq!(evaluated, sweep.pair_count(), "{what}: sweep iter {k}");
    }
    if let Some(&first) = dw.first() {
        assert_eq!(first, delta.pair_count(), "{what}: delta iter 1 is full");
    }
    for (k, &evaluated) in dw.iter().enumerate() {
        assert!(
            evaluated <= delta.pair_count(),
            "{what}: delta iter {k} evaluated more than |H|"
        );
    }
    (sw, dw)
}

/// Sweep vs delta bitwise equality across variants and θ values.
#[test]
fn delta_matches_sweep_across_variants_and_theta() {
    let mut rng = ChaCha8Rng::seed_from_u64(8101);
    for case in 0..12 {
        let (g1, g2) = arb_graph_pair(&mut rng, 7);
        for variant in Variant::ALL {
            for theta in [0.0, 0.5, 1.0] {
                let cfg = FsimConfig::new(variant)
                    .label_fn(LabelFn::Indicator)
                    .theta(theta);
                assert_modes_agree(&g1, &g2, &cfg, &format!("case {case} {variant} θ={theta}"));
            }
        }
    }
}

/// Sweep vs delta under upper-bound pruning (the α·ub fallback becomes a
/// constant dependency entry in the CSR), for both injective-mapping
/// backends.
#[test]
fn delta_matches_sweep_under_upper_bound_pruning() {
    let mut rng = ChaCha8Rng::seed_from_u64(8202);
    for case in 0..12 {
        let (g1, g2) = arb_graph_pair(&mut rng, 6);
        for matcher in [MatcherKind::Greedy, MatcherKind::Hungarian] {
            for (alpha, beta) in [(0.0, 0.6), (0.3, 0.6), (0.5, 0.9)] {
                let mut cfg = FsimConfig::new(Variant::Bijective)
                    .label_fn(LabelFn::Indicator)
                    .upper_bound(alpha, beta);
                cfg.matcher = matcher;
                assert_modes_agree(
                    &g1,
                    &g2,
                    &cfg,
                    &format!("case {case} {matcher:?} α={alpha} β={beta}"),
                );
            }
        }
    }
}

/// The Hungarian backend's slot path (dense weight matrix, including the
/// transposed orientation when `|S1| > |S2|`) agrees with the sweep across
/// both injective variants and θ values.
#[test]
fn delta_matches_sweep_with_hungarian_matcher() {
    let mut rng = ChaCha8Rng::seed_from_u64(8909);
    for case in 0..10 {
        let (g1, g2) = arb_graph_pair(&mut rng, 7);
        for variant in [Variant::DegreePreserving, Variant::Bijective] {
            for theta in [0.0, 0.5, 1.0] {
                let mut cfg = FsimConfig::new(variant)
                    .label_fn(LabelFn::Indicator)
                    .theta(theta);
                cfg.matcher = MatcherKind::Hungarian;
                assert_modes_agree(
                    &g1,
                    &g2,
                    &cfg,
                    &format!("case {case} {variant} hungarian θ={theta}"),
                );
            }
        }
    }
}

/// Parallel delta scheduling matches the sequential scheduler bitwise,
/// including the per-iteration evaluation counts.
#[test]
fn parallel_delta_matches_sequential_delta() {
    let mut rng = ChaCha8Rng::seed_from_u64(8303);
    let mut cases: Vec<_> = (0..10).map(|_| arb_graph_pair(&mut rng, 7)).collect();
    // One store long enough for four workers to run its long steps on the
    // pool (shorter steps run inline at any thread count).
    cases.push(graph_pair(&mut rng, 72..=72));
    for (case, (g1, g2)) in cases.iter().enumerate() {
        let cfg = FsimConfig::new(Variant::Bi)
            .label_fn(LabelFn::Indicator)
            .convergence(ConvergenceMode::DeltaDriven);
        let mut seq = FsimEngine::new(g1, g2, &cfg).unwrap();
        seq.run();
        let mut par = FsimEngine::new(g1, g2, &cfg.clone().threads(4)).unwrap();
        par.run();
        if case == cases.len() - 1 {
            assert!(par.pair_count() >= 4096, "store too small to go parallel");
        }
        let a: Vec<_> = seq.iter_pairs().collect();
        let b: Vec<_> = par.iter_pairs().collect();
        assert_eq!(a.len(), b.len(), "case {case}");
        for ((u1, v1, s1), (u2, v2, s2)) in a.iter().zip(&b) {
            assert_eq!((u1, v1), (u2, v2), "case {case}");
            assert_eq!(s1.to_bits(), s2.to_bits(), "case {case} at ({u1},{v1})");
        }
        assert_eq!(
            seq.pairs_evaluated(),
            par.pairs_evaluated(),
            "case {case}: dirty worklist sizes must agree"
        );
    }
}

/// Tighter ε means more iterations; on a multi-iteration run the delta
/// scheduler must do strictly less total work than the sweep once the
/// late-iteration worklists thin out.
#[test]
fn delta_saves_work_on_multi_iteration_runs() {
    // A self-similarity workload converges slowly enough to give the
    // scheduler iterations to exploit.
    let mut rng = ChaCha8Rng::seed_from_u64(8404);
    let mut saved_somewhere = false;
    for _ in 0..8 {
        let (g, _) = arb_graph_pair(&mut rng, 8);
        let mut cfg = FsimConfig::new(Variant::Simple).label_fn(LabelFn::Indicator);
        cfg.epsilon = 1e-10;
        let (sw, dw) = assert_modes_agree(&g, &g, &cfg, "work-saving");
        let sweep_total: usize = sw.iter().sum();
        let delta_total: usize = dw.iter().sum();
        assert!(delta_total <= sweep_total);
        if delta_total < sweep_total {
            saved_somewhere = true;
        }
    }
    assert!(
        saved_somewhere,
        "delta scheduling never skipped a single evaluation across 8 workloads"
    );
}

/// `Auto` convergence with an over-budget estimate degrades to **sharded**
/// delta execution (peak resident CSR = one shard); `ShardSpec::Off`
/// builds the full CSR whatever the budget; the default budget stays
/// unsharded — and all three land on identical scores.
#[test]
fn auto_mode_respects_the_memory_budget() {
    use fsim_core::ShardSpec;
    let mut rng = ChaCha8Rng::seed_from_u64(8505);
    let (g1, g2) = arb_graph_pair(&mut rng, 7);
    let base = FsimConfig::new(Variant::Bijective).label_fn(LabelFn::Indicator);

    let mut starved = FsimEngine::new(&g1, &g2, &base.clone().csr_budget(0)).unwrap();
    starved.run();
    assert!(
        starved.delta_scheduled(),
        "zero budget must degrade to sharded delta scheduling"
    );
    assert!(
        starved.shard_count() > 0,
        "zero budget under ShardSpec::Auto must shard"
    );
    assert_eq!(
        starved.dep_entry_count(),
        None,
        "sharded execution must not hold the full CSR"
    );

    let mut opted_out =
        FsimEngine::new(&g1, &g2, &base.clone().csr_budget(0).shards(ShardSpec::Off)).unwrap();
    opted_out.run();
    assert!(
        opted_out.delta_scheduled(),
        "zero budget with sharding off runs delta over the full CSR"
    );
    assert!(opted_out.dep_entry_count().is_some());
    assert_eq!(opted_out.shard_count(), 0);

    let mut roomy = FsimEngine::new(&g1, &g2, &base).unwrap();
    roomy.run();
    assert!(
        roomy.delta_scheduled(),
        "default budget must fit a toy graph's CSR"
    );
    assert_eq!(roomy.shard_count(), 0, "a fitting workload stays unsharded");

    for ((u1, v1, s1), (u2, v2, s2)) in starved.iter_pairs().zip(roomy.iter_pairs()) {
        assert_eq!((u1, v1), (u2, v2));
        assert_eq!(s1.to_bits(), s2.to_bits(), "sharded degrade diverged");
    }
    for ((u1, v1, s1), (u2, v2, s2)) in opted_out.iter_pairs().zip(roomy.iter_pairs()) {
        assert_eq!((u1, v1), (u2, v2));
        assert_eq!(s1.to_bits(), s2.to_bits(), "full CSR over budget diverged");
    }
    assert_eq!(starved.iterations(), roomy.iterations());
    assert_eq!(starved.pairs_evaluated(), roomy.pairs_evaluated());
}

/// Reruns that keep the store keep the CSR; reruns that rebuild the store
/// rebuild the CSR — and every rerun still matches a fresh one-shot
/// compute bitwise (extending the PR-1 session guarantee to delta mode).
#[test]
fn delta_reruns_match_one_shot_compute() {
    let mut rng = ChaCha8Rng::seed_from_u64(8606);
    for case in 0..10 {
        let (g1, g2) = arb_graph_pair(&mut rng, 7);
        let cfg = FsimConfig::new(Variant::Simple)
            .label_fn(LabelFn::Indicator)
            .convergence(ConvergenceMode::DeltaDriven);
        let mut engine = FsimEngine::new(&g1, &g2, &cfg).unwrap();
        engine.run();
        for step in 0..5 {
            let theta = [0.0, 0.5, 1.0][rng.gen_range(0..3usize)];
            let variant = Variant::ALL[rng.gen_range(0..4usize)];
            let epsilon = [0.01, 1e-4][rng.gen_range(0..2usize)];
            engine
                .rerun(|c| {
                    c.theta = theta;
                    c.variant = variant;
                    c.epsilon = epsilon;
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
            assert_eq!(engine.pairs_evaluated(), fresh.pairs_evaluated());
        }
    }
}

/// The label-fn-only rerun path (θ = 0: store and CSR survive, the cached
/// label terms must not).
#[test]
fn label_change_refreshes_cached_label_terms() {
    let mut rng = ChaCha8Rng::seed_from_u64(8707);
    for _ in 0..8 {
        let (g1, g2) = arb_graph_pair(&mut rng, 7);
        let cfg = FsimConfig::new(Variant::Bi)
            .label_fn(LabelFn::Indicator)
            .convergence(ConvergenceMode::DeltaDriven);
        let mut engine = FsimEngine::new(&g1, &g2, &cfg).unwrap();
        engine.run();
        engine.rerun(|c| c.label_fn = LabelFn::JaroWinkler).unwrap();
        let fresh = compute(&g1, &g2, engine.config()).unwrap();
        for ((u1, v1, s1), (u2, v2, s2)) in engine.iter_pairs().zip(fresh.iter_pairs()) {
            assert_eq!((u1, v1), (u2, v2));
            assert_eq!(
                s1.to_bits(),
                s2.to_bits(),
                "stale label term at ({u1},{v1})"
            );
        }
    }
}

/// `SimRankOp` declares that it reads ineligible pairs too (its mapping is
/// the full cross product); the CSR must include them, and both schedulers
/// must agree bitwise on the custom-operator path.
#[test]
fn simrank_operator_is_schedule_invariant() {
    use fsim_core::SimRankOp;
    let mut rng = ChaCha8Rng::seed_from_u64(8808);
    for case in 0..6 {
        let (g, _) = arb_graph_pair(&mut rng, 8);
        let mut cfg = FsimConfig::new(Variant::Simple);
        cfg.w_out = 0.0;
        cfg.w_in = 0.7;
        cfg.epsilon = 1e-6;
        cfg.label_term = LabelTermMode::Constant(0.0);
        cfg.init = InitScheme::Identity;
        cfg.pin_identical = true;
        let mut sweep = FsimEngine::with_operator(
            &g,
            &g,
            &cfg.clone().convergence(ConvergenceMode::FullSweep),
            SimRankOp,
        )
        .unwrap();
        sweep.run();
        let mut delta = FsimEngine::with_operator(
            &g,
            &g,
            &cfg.clone().convergence(ConvergenceMode::DeltaDriven),
            SimRankOp,
        )
        .unwrap();
        delta.run();
        assert_eq!(sweep.iterations(), delta.iterations(), "case {case}");
        for ((u1, v1, s1), (u2, v2, s2)) in sweep.iter_pairs().zip(delta.iter_pairs()) {
            assert_eq!((u1, v1), (u2, v2), "case {case}");
            assert_eq!(
                s1.to_bits(),
                s2.to_bits(),
                "case {case}: SimRank diverged at ({u1},{v1})"
            );
        }
    }
}
