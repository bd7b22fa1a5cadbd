//! Approximate-mode properties: the approximate mode (the exact iteration
//! stopped at a relaxed ε) must stay within the certified error bound it
//! reports (checked against the bitwise-exact delta scheduler across
//! variants × θ × upper-bound pruning × thread counts), never do more
//! work than the exact schedule, stay bitwise reproducible across thread
//! counts, shard layouts, snapshot restore and edit replay, and carry its
//! guarantees through the graph-edit path.

use fsim::prelude::*;
use fsim_core::{FsimEngine, FsimResult, GraphEdit, GraphSide, ShardSpec};
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

/// The graph-edit path under approximate mode: edit replays must stay
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

/// Everything an approximate run reports that must reproduce bit for bit.
#[derive(Debug, PartialEq)]
struct RunBits {
    scores: Vec<u64>,
    iterations: usize,
    converged: bool,
    final_delta: u64,
    error_bound: u64,
}

fn run_bits(e: &FsimEngine<'_>) -> RunBits {
    RunBits {
        scores: e.iter_pairs().map(|(_, _, s)| s.to_bits()).collect(),
        iterations: e.iterations(),
        converged: e.converged(),
        final_delta: e.final_delta().to_bits(),
        error_bound: e.error_bound().to_bits(),
    }
}

/// An approximate run is the exact iteration stopped early, so it is as
/// reproducible as an exact run: the same scores, iterations,
/// `pairs_evaluated` and bound across shard layouts, thread counts and a
/// snapshot write → restore, and edit batches replay the recorded
/// trajectory to the bits of a cold approximate compute on the edited
/// graphs.
#[test]
fn approx_runs_are_bitwise_reproducible_across_layouts_restore_and_edits() {
    let mut rng = ChaCha8Rng::seed_from_u64(9808);
    // Long enough for four workers to run its long steps on the pool.
    let (g1, g2) = graph_pair(&mut rng, 72..=72);
    let mut cfg = FsimConfig::new(Variant::Bi)
        .label_fn(LabelFn::Indicator)
        .convergence(ConvergenceMode::Approximate { tolerance: 4.0 });
    cfg.epsilon = 1e-6;
    let mut reference = FsimEngine::new(&g1, &g2, &cfg.clone().shards(ShardSpec::Off)).unwrap();
    reference.run();
    assert!(
        reference.pair_count() >= 4096,
        "store too small to go parallel"
    );
    assert!(reference.error_bound() > 0.0);
    let want = run_bits(&reference);

    // The exact run capped at the same iteration holds the same bits.
    let mut capped = cfg.clone().convergence(ConvergenceMode::DeltaDriven);
    capped.max_iters = Some(reference.iterations());
    let exact = compute(&g1, &g2, &capped).unwrap();
    for ((_, _, a), (_, _, b)) in reference.iter_pairs().zip(exact.iter_pairs()) {
        assert_eq!(a.to_bits(), b.to_bits(), "not a prefix of the exact run");
    }

    for shards in [ShardSpec::Off, ShardSpec::Fixed(2), ShardSpec::Fixed(4)] {
        for threads in [1usize, 4] {
            let what = format!("{shards:?} threads={threads}");
            let mut e =
                FsimEngine::new(&g1, &g2, &cfg.clone().shards(shards).threads(threads)).unwrap();
            e.run();
            assert_eq!(run_bits(&e), want, "{what}");
            assert_eq!(e.pairs_evaluated(), reference.pairs_evaluated(), "{what}");
        }
    }

    let dir = std::env::temp_dir().join(format!("fsim-approx-repro-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("approx.fsnp");
    reference.write_snapshot(&path).unwrap();
    let mut restored = FsimEngine::restore(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(run_bits(&restored), want, "restored");
    assert_eq!(restored.pairs_evaluated(), reference.pairs_evaluated());
    restored.run();
    assert_eq!(run_bits(&restored), want, "restored, run again");

    let (mut s1, mut s2) = (g1.clone(), g2.clone());
    for batch in 0..2 {
        assert!(reference.can_replay_edits(), "batch {batch}: no trajectory");
        let n1 = s1.node_count() as u32;
        let (a, b) = (rng.gen_range(0..n1), rng.gen_range(0..n1));
        let (c, d) = s2.edges().nth(rng.gen_range(0..s2.edge_count())).unwrap();
        let edits = [
            GraphEdit::add_edge(GraphSide::Left, a, b),
            GraphEdit::remove_edge(GraphSide::Right, c, d),
        ];
        reference.apply_edits(&edits).unwrap();
        s1 = s1.with_edits(&[(a, b)], &[], &[]);
        s2 = s2.with_edits(&[], &[(c, d)], &[]);
        let mut cold = FsimEngine::new(&s1, &s2, &cfg).unwrap();
        cold.run();
        assert_eq!(run_bits(&reference), run_bits(&cold), "batch {batch}");
    }
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
