//! ε-aware approximate scheduling properties: the approximate mode must
//! stay within the certified error bound it reports (checked against the
//! bitwise-exact delta scheduler across variants × θ × upper-bound
//! pruning × thread counts), never do more work than the exact schedule,
//! stay deterministic across thread counts, and carry its guarantees
//! through the graph-edit warm-restart path.

use fsim::prelude::*;
use fsim_core::{FsimEngine, FsimResult};
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

/// Runs `cfg` exactly (delta) and approximately, then asserts the
/// approximate observables: same maintained pairs, max score error within
/// the reported bound, never more work than the exact schedule. Returns
/// `(exact evals, approx evals, max observed error, reported bound)`.
fn assert_bound_holds(
    g1: &Graph,
    g2: &Graph,
    cfg: &FsimConfig,
    tolerance: f64,
    what: &str,
) -> (usize, usize, f64, f64) {
    let exact = {
        let mut e = FsimEngine::new(
            g1,
            g2,
            &cfg.clone().convergence(ConvergenceMode::DeltaDriven),
        )
        .expect("valid config");
        e.run();
        assert_eq!(e.error_bound(), 0.0, "{what}: exact mode must report 0");
        e.snapshot()
    };
    let mut approx = FsimEngine::new(
        g1,
        g2,
        &cfg.clone()
            .convergence(ConvergenceMode::Approximate { tolerance }),
    )
    .expect("valid config");
    approx.run();
    let bound = approx.error_bound();
    assert!(
        bound.is_finite() && bound >= 0.0,
        "{what}: bound must be finite and non-negative, got {bound}"
    );
    assert_eq!(
        exact.pair_count(),
        approx.pair_count(),
        "{what}: the maintained pair set is schedule-independent"
    );
    let mut max_err = 0.0f64;
    for ((u1, v1, s1), (u2, v2, s2)) in exact.iter_pairs().zip(approx.iter_pairs()) {
        assert_eq!((u1, v1), (u2, v2), "{what}: pair order differs");
        max_err = max_err.max((s1 - s2).abs());
    }
    assert!(
        max_err <= bound + 1e-12,
        "{what}: observed error {max_err} exceeds reported bound {bound}"
    );
    let exact_evals = exact.total_pairs_evaluated();
    let approx_evals: usize = approx.pairs_evaluated().iter().sum();
    assert!(
        approx_evals <= exact_evals,
        "{what}: approximate mode did more work ({approx_evals}) than exact ({exact_evals})"
    );
    (exact_evals, approx_evals, max_err, bound)
}

/// Observed error stays within the reported bound across variants and θ.
#[test]
fn approx_error_within_bound_across_variants_and_theta() {
    let mut rng = ChaCha8Rng::seed_from_u64(9101);
    for case in 0..10 {
        let (g1, g2) = arb_graph_pair(&mut rng, 7);
        for variant in Variant::ALL {
            for theta in [0.0, 0.5, 1.0] {
                for tolerance in [0.25, 1.0, 4.0] {
                    let cfg = FsimConfig::new(variant)
                        .label_fn(LabelFn::Indicator)
                        .theta(theta);
                    assert_bound_holds(
                        &g1,
                        &g2,
                        &cfg,
                        tolerance,
                        &format!("case {case} {variant} θ={theta} tol={tolerance}"),
                    );
                }
            }
        }
    }
}

/// The bound survives upper-bound pruning (constant fallback entries) for
/// both injective-mapping backends.
#[test]
fn approx_error_within_bound_under_pruning() {
    let mut rng = ChaCha8Rng::seed_from_u64(9202);
    for case in 0..10 {
        let (g1, g2) = arb_graph_pair(&mut rng, 6);
        for matcher in [MatcherKind::Greedy, MatcherKind::Hungarian] {
            for (alpha, beta) in [(0.0, 0.6), (0.3, 0.6), (0.5, 0.9)] {
                let mut cfg = FsimConfig::new(Variant::Bijective)
                    .label_fn(LabelFn::Indicator)
                    .upper_bound(alpha, beta);
                cfg.matcher = matcher;
                assert_bound_holds(
                    &g1,
                    &g2,
                    &cfg,
                    1.0,
                    &format!("case {case} {matcher:?} α={alpha} β={beta}"),
                );
            }
        }
    }
}

/// Approximate scheduling is deterministic across thread counts: the
/// worker pool must reproduce the sequential schedule bitwise (worklists
/// are built from order-independent reductions).
#[test]
fn parallel_approx_matches_sequential_approx_bitwise() {
    let mut rng = ChaCha8Rng::seed_from_u64(9303);
    let mut cases: Vec<_> = (0..10).map(|_| arb_graph_pair(&mut rng, 7)).collect();
    // One store long enough for four workers to run its long steps on the
    // pool (shorter steps run inline at any thread count).
    cases.push(graph_pair(&mut rng, 72..=72));
    for (case, (g1, g2)) in cases.iter().enumerate() {
        let mut cfg = FsimConfig::new(Variant::Bi)
            .label_fn(LabelFn::Indicator)
            .convergence(ConvergenceMode::Approximate { tolerance: 1.0 });
        cfg.epsilon = 1e-6;
        let mut seq = FsimEngine::new(g1, g2, &cfg).unwrap();
        seq.run();
        let mut par = FsimEngine::new(g1, g2, &cfg.clone().threads(4)).unwrap();
        par.run();
        if case == cases.len() - 1 {
            assert!(par.pair_count() >= 4096, "store too small to go parallel");
        }
        assert_eq!(seq.iterations(), par.iterations(), "case {case}");
        assert_eq!(
            seq.pairs_evaluated(),
            par.pairs_evaluated(),
            "case {case}: schedules must agree"
        );
        assert_eq!(
            seq.error_bound().to_bits(),
            par.error_bound().to_bits(),
            "case {case}: error accounting must agree"
        );
        for ((u1, v1, s1), (u2, v2, s2)) in seq.iter_pairs().zip(par.iter_pairs()) {
            assert_eq!((u1, v1), (u2, v2), "case {case}");
            assert_eq!(s1.to_bits(), s2.to_bits(), "case {case} at ({u1},{v1})");
        }
    }
}

/// On slowly-converging self-similarity workloads (tight ε — the dirty
/// plateau shape), the approximate scheduler must evaluate strictly fewer
/// pairs than the exact delta scheduler somewhere.
#[test]
fn approx_saves_work_on_multi_iteration_runs() {
    let mut rng = ChaCha8Rng::seed_from_u64(9404);
    let mut saved_somewhere = false;
    for case in 0..8 {
        let (g, _) = arb_graph_pair(&mut rng, 8);
        let mut cfg = FsimConfig::new(Variant::Simple).label_fn(LabelFn::Indicator);
        cfg.epsilon = 1e-6;
        let (exact_evals, approx_evals, _, _) =
            assert_bound_holds(&g, &g, &cfg, 1.0, &format!("work-saving case {case}"));
        if approx_evals < exact_evals {
            saved_somewhere = true;
        }
    }
    assert!(
        saved_somewhere,
        "approximate scheduling never skipped a single evaluation across 8 workloads"
    );
}

/// Tolerance is monotone in spirit: a smaller tolerance never reports a
/// *larger* certified bound on the same workload (it evaluates at least
/// as much), and results under both stay within their respective bounds.
#[test]
fn tighter_tolerance_does_not_loosen_the_bound() {
    let mut rng = ChaCha8Rng::seed_from_u64(9505);
    for case in 0..6 {
        let (g, _) = arb_graph_pair(&mut rng, 8);
        let mut cfg = FsimConfig::new(Variant::Simple).label_fn(LabelFn::Indicator);
        cfg.epsilon = 1e-6;
        let (_, tight_evals, _, tight_bound) =
            assert_bound_holds(&g, &g, &cfg, 0.1, &format!("case {case} tight"));
        let (_, loose_evals, _, loose_bound) =
            assert_bound_holds(&g, &g, &cfg, 8.0, &format!("case {case} loose"));
        assert!(
            tight_evals >= loose_evals,
            "case {case}: tighter tolerance must evaluate at least as much \
             ({tight_evals} vs {loose_evals})"
        );
        assert!(
            tight_bound <= loose_bound + 1e-12,
            "case {case}: tighter tolerance reported a looser bound \
             ({tight_bound} vs {loose_bound})"
        );
    }
}

/// The graph-edit path under approximate mode: warm restarts must stay
/// within the (freshly reported) bound against a *cold exact* compute on
/// the edited graphs, across chained random edit batches.
#[test]
fn approx_edits_stay_within_bound_of_cold_exact() {
    let mut rng = ChaCha8Rng::seed_from_u64(9606);
    for case in 0..8 {
        let (g1, g2) = arb_graph_pair(&mut rng, 6);
        for threads in [1usize, 4] {
            let cfg = FsimConfig::new(Variant::ALL[case % 4])
                .label_fn(LabelFn::Indicator)
                .threads(threads)
                .convergence(ConvergenceMode::Approximate { tolerance: 1.0 });
            let mut engine = FsimEngine::new(&g1, &g2, &cfg).unwrap();
            engine.run();
            // Shadow copies of the graphs for the cold oracle.
            let (mut s1, mut s2) = (g1.clone(), g2.clone());
            for batch in 0..3 {
                let n2 = s2.node_count() as u32;
                let (a, b) = (rng.gen_range(0..n2), rng.gen_range(0..n2));
                let add = rng.gen_bool(0.7);
                let edits = if add {
                    vec![fsim_core::GraphEdit::add_edge(
                        fsim_core::GraphSide::Right,
                        a,
                        b,
                    )]
                } else {
                    vec![fsim_core::GraphEdit::remove_edge(
                        fsim_core::GraphSide::Right,
                        a,
                        b,
                    )]
                };
                let warm: FsimResult = engine.apply_edits(&edits).unwrap();
                s2 = if add {
                    s2.with_edits(&[(a, b)], &[], &[])
                } else {
                    s2.with_edits(&[], &[(a, b)], &[])
                };
                let exact_cfg = cfg.clone().convergence(ConvergenceMode::DeltaDriven);
                let cold = compute(&s1, &s2, &exact_cfg).unwrap();
                assert_eq!(
                    warm.pair_count(),
                    cold.pair_count(),
                    "case {case} t{threads} batch {batch}: pair sets"
                );
                let bound = warm.error_bound();
                assert!(
                    bound.is_finite(),
                    "case {case} batch {batch}: bound {bound}"
                );
                let mut max_err = 0.0f64;
                for ((u1, v1, s1_), (u2, v2, s2_)) in warm.iter_pairs().zip(cold.iter_pairs()) {
                    assert_eq!((u1, v1), (u2, v2));
                    max_err = max_err.max((s1_ - s2_).abs());
                }
                assert!(
                    max_err <= bound + 1e-12,
                    "case {case} t{threads} batch {batch}: edit error {max_err} \
                     exceeds bound {bound}"
                );
            }
            let _ = &mut s1;
        }
    }
}

/// A no-op edit batch under approximate mode keeps the scores and does
/// (almost) no work; a real edit evaluates fewer pairs warm than a cold
/// approximate run would.
#[test]
fn approx_edits_warm_restart_saves_work() {
    let f = fsim_graph::examples::figure1();
    let cfg = FsimConfig::new(Variant::Simple)
        .label_fn(LabelFn::Indicator)
        .convergence(ConvergenceMode::Approximate { tolerance: 1.0 });
    let mut engine = FsimEngine::new(&f.pattern, &f.data, &cfg).unwrap();
    engine.run();
    let cold_first = engine.pairs_evaluated()[0];
    assert_eq!(cold_first, engine.pair_count(), "cold iteration 1 is full");
    assert!(
        !engine.can_replay_edits(),
        "approximate sessions do not record trajectories"
    );
    engine
        .apply_edits(&[fsim_core::GraphEdit::add_edge(
            fsim_core::GraphSide::Right,
            f.v[0],
            f.v[1],
        )])
        .unwrap();
    assert!(
        engine.pairs_evaluated()[0] < cold_first,
        "warm restart must skip certified-clean pairs: {:?}",
        engine.pairs_evaluated()
    );
}

/// Switching a session between exact and approximate via `rerun` keeps
/// both contracts: the exact rerun is bitwise against a fresh compute,
/// the approximate rerun is within its reported bound.
#[test]
fn rerun_switches_between_exact_and_approximate() {
    let mut rng = ChaCha8Rng::seed_from_u64(9707);
    let (g1, g2) = arb_graph_pair(&mut rng, 7);
    let cfg = FsimConfig::new(Variant::Bi).label_fn(LabelFn::Indicator);
    let mut engine = FsimEngine::new(&g1, &g2, &cfg).unwrap();
    engine.run();
    engine
        .rerun(|c| c.convergence = ConvergenceMode::Approximate { tolerance: 1.0 })
        .unwrap();
    let bound = engine.error_bound();
    let exact = compute(&g1, &g2, &cfg).unwrap();
    let mut max_err = 0.0f64;
    for ((_, _, a), (_, _, b)) in engine.iter_pairs().zip(exact.iter_pairs()) {
        max_err = max_err.max((a - b).abs());
    }
    assert!(max_err <= bound + 1e-12, "err {max_err} vs bound {bound}");
    // Back to exact: bitwise again, bound drops to 0.
    engine
        .rerun(|c| c.convergence = ConvergenceMode::DeltaDriven)
        .unwrap();
    assert_eq!(engine.error_bound(), 0.0);
    for ((_, _, a), (_, _, b)) in engine.iter_pairs().zip(exact.iter_pairs()) {
        assert_eq!(a.to_bits(), b.to_bits(), "exact rerun must be bitwise");
    }
}
