//! Every schedule of the engine against the dense reference oracle of
//! `fsim_exact::fractional`, which iterates Equation 3 over the whole
//! score matrix with no candidate store, dependency lists or scheduling.
//!
//! For each run the oracle takes exactly the engine's number of steps from
//! the same initial scores. Every maintained pair must then agree within
//! `1e-12`, and an exact run that converged must have stopped at the
//! oracle's first step with `Δ < ε`. An approximate run must stop at the
//! oracle's first step below its relaxed `ε'`, and sit within its reported
//! error bound of the oracle's own exact stop.
//!
//! Cases come from a seeded ChaCha8 stream; failure messages name the case.

mod common;

use common::Reference;
use fsim::prelude::*;
use fsim_core::{FsimEngine, Operator, SimRankOp};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
use std::sync::Arc;

const TOL: f64 = 1e-12;

/// Shadow model of one graph: labels and an edge set, rebuilt from
/// scratch, so edited graphs share no code with `apply_edits`.
#[derive(Clone)]
struct Shadow {
    labels: Vec<&'static str>,
    edges: BTreeSet<(u32, u32)>,
}

impl Shadow {
    fn random(rng: &mut ChaCha8Rng, max_n: usize) -> Shadow {
        let n = rng.gen_range(2..=max_n);
        let labels = (0..n)
            .map(|_| ["a", "b", "c"][rng.gen_range(0..3usize)])
            .collect();
        let edges = (0..rng.gen_range(0..=(2 * n)))
            .map(|_| (rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32))
            .collect();
        Shadow { labels, edges }
    }

    fn build(&self, interner: &Arc<LabelInterner>) -> Graph {
        let mut b = GraphBuilder::with_interner(Arc::clone(interner));
        for l in &self.labels {
            b.add_node(l);
        }
        for &(u, v) in &self.edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// One random edit (add, remove or relabel), mirrored into the model.
    fn edit(&mut self, rng: &mut ChaCha8Rng, side: GraphSide) -> GraphEdit {
        let n = self.labels.len() as u32;
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        match rng.gen_range(0..3u8) {
            0 => {
                self.edges.insert((u, v));
                GraphEdit::add_edge(side, u, v)
            }
            1 => {
                let (u, v) = self.edges.iter().next().copied().unwrap_or((u, v));
                self.edges.remove(&(u, v));
                GraphEdit::remove_edge(side, u, v)
            }
            _ => {
                let label = ["a", "b", "c"][rng.gen_range(0..3usize)];
                self.labels[u as usize] = label;
                GraphEdit::relabel(side, u, label)
            }
        }
    }
}

fn arb_graph_pair(rng: &mut ChaCha8Rng, max_n: usize) -> (Graph, Graph) {
    let interner = LabelInterner::shared();
    let (s1, s2) = (Shadow::random(rng, max_n), Shadow::random(rng, max_n));
    (s1.build(&interner), s2.build(&interner))
}

/// Checks one finished engine run against the oracle on `(g1, g2)`.
fn check<O: Operator>(
    engine: &FsimEngine<'_, O>,
    g1: &Graph,
    g2: &Graph,
    simrank: bool,
    what: &str,
) {
    let cfg = engine.config();
    let reference = Reference::new(g1, g2, cfg, simrank);
    let mut oracle = reference.oracle();
    let deltas: Vec<f64> = (0..engine.iterations()).map(|_| oracle.step()).collect();
    let maintained = (0..g1.node_count() as u32)
        .flat_map(|u| (0..g2.node_count() as u32).map(move |v| (u, v)))
        .filter(|&(u, v)| oracle.is_maintained(u, v))
        .count();
    assert_eq!(engine.pair_count(), maintained, "{what}: maintained pairs");
    for (u, v, s) in engine.iter_pairs() {
        assert!(
            oracle.is_maintained(u, v),
            "{what}: ({u},{v}) is not maintained"
        );
        let o = oracle.score(u, v);
        assert!(
            (s - o).abs() <= TOL,
            "{what}: ({u},{v}) engine {s} oracle {o}"
        );
    }
    // The stop: the first oracle step whose Δ falls below the run's ε.
    let epsilon = match cfg.convergence.approximate_tolerance() {
        Some(t) => cfg.epsilon.max(t * cfg.epsilon / (cfg.w_out + cfg.w_in)),
        None => cfg.epsilon,
    };
    match deltas.split_last() {
        Some((last, before)) if engine.converged() => {
            assert!(
                *last < epsilon,
                "{what}: stopped at oracle Δ {last} ≥ ε {epsilon}"
            );
            assert!(
                before.iter().all(|&d| d >= epsilon),
                "{what}: the oracle converged earlier: {deltas:?}"
            );
        }
        Some(_) => assert_eq!(
            engine.iterations(),
            cfg.effective_max_iters(),
            "{what}: neither converged nor capped"
        ),
        None => assert_eq!(engine.pair_count(), 0, "{what}: no iteration"),
    }
    if cfg.convergence.approximate_tolerance().is_some() {
        let (exact, _) = reference.converged(cfg.epsilon);
        let bound = engine.error_bound() + TOL;
        for (u, v, s) in engine.iter_pairs() {
            let o = exact.score(u, v);
            assert!(
                (s - o).abs() <= bound,
                "{what}: ({u},{v}) approx {s} exact {o} bound {bound}"
            );
        }
    }
}

fn run_and_check(
    g1: &Graph,
    g2: &Graph,
    cfg: &FsimConfig,
    what: &str,
) -> FsimEngine<'static, fsim_core::VariantOp> {
    let mut engine = FsimEngine::new_owned(g1.clone(), g2.clone(), cfg).expect("valid config");
    engine.run();
    check(&engine, g1, g2, false, what);
    engine
}

const MODES: [ConvergenceMode; 4] = [
    ConvergenceMode::FullSweep,
    ConvergenceMode::DeltaDriven,
    ConvergenceMode::Auto,
    ConvergenceMode::Approximate { tolerance: 3.0 },
];

/// The four variants × θ × thread counts × every convergence mode.
#[test]
fn every_mode_agrees_with_the_oracle() {
    let mut rng = ChaCha8Rng::seed_from_u64(2401);
    for case in 0..6 {
        let (g1, g2) = arb_graph_pair(&mut rng, 7);
        for variant in Variant::ALL {
            for theta in [0.0, 0.5, 1.0] {
                for threads in [1usize, 4] {
                    for mode in MODES {
                        let cfg = FsimConfig::new(variant)
                            .label_fn(LabelFn::Indicator)
                            .theta(theta)
                            .threads(threads)
                            .convergence(mode);
                        run_and_check(
                            &g1,
                            &g2,
                            &cfg,
                            &format!("case {case} {variant} θ={theta} t{threads} {mode:?}"),
                        );
                    }
                }
            }
        }
    }
}

/// Every shard layout, including `Auto` forced to shard by a zero budget
/// and `Off` under the same budget (which builds the full CSR).
#[test]
fn every_shard_layout_agrees_with_the_oracle() {
    let mut rng = ChaCha8Rng::seed_from_u64(2402);
    for case in 0..5 {
        let (g1, g2) = arb_graph_pair(&mut rng, 8);
        for variant in Variant::ALL {
            for (spec, budget) in [
                (ShardSpec::Off, 0),
                (ShardSpec::Fixed(2), FsimConfig::DEFAULT_CSR_BUDGET),
                (ShardSpec::Fixed(3), FsimConfig::DEFAULT_CSR_BUDGET),
                (ShardSpec::Auto, 0),
            ] {
                for threads in [1usize, 4] {
                    for mode in [
                        ConvergenceMode::Auto,
                        ConvergenceMode::Approximate { tolerance: 3.0 },
                    ] {
                        let cfg = FsimConfig::new(variant)
                            .label_fn(LabelFn::Indicator)
                            .theta(0.5)
                            .threads(threads)
                            .convergence(mode)
                            .shards(spec)
                            .csr_budget(budget);
                        let what = format!(
                            "case {case} {variant} {spec:?} budget {budget} t{threads} {mode:?}"
                        );
                        let engine = run_and_check(&g1, &g2, &cfg, &what);
                        let sharded = !matches!(spec, ShardSpec::Off) && engine.pair_count() > 0;
                        assert_eq!(engine.shard_count() > 0, sharded, "{what}: shard count");
                        assert_eq!(
                            engine.dep_entry_count().is_some(),
                            !sharded && engine.pair_count() > 0,
                            "{what}: CSR"
                        );
                    }
                }
            }
        }
    }
}

/// Upper-bound pruning (§3.4): dropped pairs read `α·ub` through `f32`,
/// under the greedy and the exact injective mapping.
#[test]
fn upper_bound_pruning_agrees_with_the_oracle() {
    let mut rng = ChaCha8Rng::seed_from_u64(2403);
    for case in 0..6 {
        let (g1, g2) = arb_graph_pair(&mut rng, 6);
        for variant in Variant::ALL {
            for matcher in [MatcherKind::Greedy, MatcherKind::Hungarian] {
                for (alpha, beta) in [(0.0, 0.6), (0.3, 0.6), (0.5, 0.9)] {
                    for mode in [ConvergenceMode::FullSweep, ConvergenceMode::Auto] {
                        let mut cfg = FsimConfig::new(variant)
                            .label_fn(LabelFn::Indicator)
                            .theta(0.4)
                            .upper_bound(alpha, beta)
                            .convergence(mode);
                        cfg.matcher = matcher;
                        run_and_check(
                            &g1,
                            &g2,
                            &cfg,
                            &format!(
                                "case {case} {variant} {matcher:?} α={alpha} β={beta} {mode:?}"
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// SimRank's total mapping (§4.3), swept, delta-driven and sharded.
#[test]
fn simrank_agrees_with_the_oracle() {
    let mut rng = ChaCha8Rng::seed_from_u64(2404);
    for case in 0..6 {
        let (g, _) = arb_graph_pair(&mut rng, 8);
        let mut cfg = FsimConfig::new(Variant::Simple);
        cfg.w_out = 0.0;
        cfg.w_in = 0.7;
        cfg.epsilon = 1e-6;
        cfg.label_term = LabelTermMode::Constant(0.0);
        cfg.init = InitScheme::Identity;
        cfg.pin_identical = true;
        for mode in [ConvergenceMode::FullSweep, ConvergenceMode::DeltaDriven] {
            for spec in [ShardSpec::Off, ShardSpec::Fixed(2)] {
                for threads in [1usize, 4] {
                    let cfg = cfg.clone().convergence(mode).shards(spec).threads(threads);
                    let mut engine = FsimEngine::with_operator(&g, &g, &cfg, SimRankOp).unwrap();
                    engine.run();
                    check(
                        &engine,
                        &g,
                        &g,
                        true,
                        &format!("case {case} SimRank {mode:?} {spec:?} t{threads}"),
                    );
                }
            }
        }
    }
}

/// Edit batches and reruns of one session, each compared with the oracle
/// on graphs rebuilt from the shadow model.
#[test]
fn edit_chains_agree_with_the_oracle() {
    let mut rng = ChaCha8Rng::seed_from_u64(2405);
    for case in 0..8 {
        let interner = LabelInterner::shared();
        let (mut s1, mut s2) = (Shadow::random(&mut rng, 7), Shadow::random(&mut rng, 7));
        let variant = Variant::ALL[case % 4];
        let cfg = FsimConfig::new(variant)
            .label_fn(LabelFn::Indicator)
            .theta([0.0, 0.5][case % 2])
            .threads(1 + 3 * (case / 4))
            .convergence(MODES[case % 4]);
        let (g1, g2) = (s1.build(&interner), s2.build(&interner));
        let mut engine = FsimEngine::new(&g1, &g2, &cfg).unwrap();
        engine.run();
        check(
            &engine,
            &g1,
            &g2,
            false,
            &format!("case {case} before edits"),
        );
        for batch in 0..4 {
            let edits: Vec<GraphEdit> = (0..rng.gen_range(1..=3))
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        s1.edit(&mut rng, GraphSide::Left)
                    } else {
                        s2.edit(&mut rng, GraphSide::Right)
                    }
                })
                .collect();
            engine.apply_edits(&edits).unwrap();
            let (e1, e2) = (s1.build(&interner), s2.build(&interner));
            check(
                &engine,
                &e1,
                &e2,
                false,
                &format!("case {case} {variant} batch {batch}"),
            );
        }
        engine.run();
        let (e1, e2) = (s1.build(&interner), s2.build(&interner));
        check(
            &engine,
            &e1,
            &e2,
            false,
            &format!("case {case} {variant} rerun"),
        );
    }
}

/// A session restored from FSNP, then run, then edited.
#[test]
fn restored_sessions_agree_with_the_oracle() {
    let dir = std::env::temp_dir().join(format!("fsim-oracle-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(2406);
    for case in 0..4 {
        let interner = LabelInterner::shared();
        let (s1, mut s2) = (Shadow::random(&mut rng, 7), Shadow::random(&mut rng, 7));
        let (g1, g2) = (s1.build(&interner), s2.build(&interner));
        let cfg = FsimConfig::new(Variant::ALL[case])
            .label_fn(LabelFn::Indicator)
            .theta(0.5);
        let mut engine = FsimEngine::new(&g1, &g2, &cfg).unwrap();
        engine.run();
        let path = dir.join(format!("case{case}.fsnp"));
        engine.write_snapshot(&path).unwrap();
        let mut restored = FsimEngine::restore(&path).unwrap();
        restored.run();
        check(&restored, &g1, &g2, false, &format!("case {case} restored"));
        let edit = s2.edit(&mut rng, GraphSide::Right);
        restored.apply_edits(&[edit]).unwrap();
        let e2 = s2.build(&interner);
        check(
            &restored,
            &g1,
            &e2,
            false,
            &format!("case {case} restored + edit"),
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `FsimEngine::score` on a pair the store does not maintain is one
/// Eq.-3 step against the converged scores.
#[test]
fn pruned_pair_scores_are_one_oracle_step() {
    let mut rng = ChaCha8Rng::seed_from_u64(2407);
    for case in 0..6 {
        let (g1, g2) = arb_graph_pair(&mut rng, 6);
        for variant in Variant::ALL {
            for ub in [None, Some((0.3, 0.6))] {
                let mut cfg = FsimConfig::new(variant)
                    .label_fn(LabelFn::Indicator)
                    .theta(0.5);
                if let Some((alpha, beta)) = ub {
                    cfg = cfg.upper_bound(alpha, beta);
                }
                let what = format!("case {case} {variant} ub={ub:?}");
                let engine = run_and_check(&g1, &g2, &cfg, &what);
                let reference = Reference::new(&g1, &g2, &cfg, false);
                let mut oracle = reference.oracle();
                for _ in 0..engine.iterations() {
                    oracle.step();
                }
                for u in 0..g1.node_count() as u32 {
                    for v in (0..g2.node_count() as u32).filter(|&v| !oracle.is_maintained(u, v)) {
                        let (s, o) = (engine.score(u, v), oracle.evaluate(u, v));
                        assert!(
                            (s - o).abs() <= TOL,
                            "{what}: pruned ({u},{v}) engine {s} oracle {o}"
                        );
                    }
                }
            }
        }
    }
}

/// The `convergence` bench's test-mode graph (NELL surrogate, scale 0.05):
/// hub-shaped rows and string labels, on both of its workloads.
#[test]
fn nell_surrogate_agrees_with_the_oracle() {
    let g = fsim::datasets::DatasetSpec::by_name("NELL")
        .unwrap()
        .generate_scaled(0.05, 42);
    for (variant, theta) in [(Variant::Bijective, 0.9), (Variant::Simple, 0.6)] {
        let mut cfg = FsimConfig::new(variant)
            .label_fn(LabelFn::JaroWinkler)
            .theta(theta);
        cfg.epsilon = 1e-3;
        for mode in MODES {
            run_and_check(
                &g,
                &g,
                &cfg.clone().convergence(mode),
                &format!("NELL {variant} θ={theta} {mode:?}"),
            );
        }
    }
}
