//! Property-based tests of the framework's defining properties
//! (Definition 4) and the theorems of §3–§4, on randomly generated graphs.
//!
//! Cases are generated from a seeded ChaCha8 stream (the environment
//! vendors no property-testing framework); every failure message includes
//! the case index, and re-running reproduces it deterministically.

mod common;

use common::Reference;
use fsim::prelude::*;
use fsim_core::{kbisim_via_framework, LabelTermMode};
use fsim_exact::{kbisim_signatures, wl_colors};
use fsim_graph::graph_from_parts;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A random small labeled digraph: up to `max_n` nodes over a 3-letter
/// alphabet with arbitrary edges.
fn arb_graph(rng: &mut ChaCha8Rng, max_n: usize) -> fsim_graph::Graph {
    let names = ["a", "b", "c"];
    let n = rng.gen_range(1..=max_n);
    let labels: Vec<&str> = (0..n).map(|_| names[rng.gen_range(0..3usize)]).collect();
    let m = rng.gen_range(0..=(2 * n));
    let edges: Vec<(u32, u32)> = (0..m)
        .map(|_| (rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32))
        .collect();
    graph_from_parts(&labels, &edges)
}

/// Two random graphs over one shared interner.
fn arb_graph_pair(rng: &mut ChaCha8Rng, max_n: usize) -> (fsim_graph::Graph, fsim_graph::Graph) {
    let g1 = arb_graph(rng, max_n);
    let g2 = arb_graph(rng, max_n);
    // arb_graph uses private interners; rebuild g2 on g1's.
    let mut b = GraphBuilder::with_interner(std::sync::Arc::clone(g1.interner()));
    for u in g2.nodes() {
        b.add_node(&g2.label_str(u));
    }
    for (u, v) in g2.edges() {
        b.add_edge(u, v);
    }
    (g1, b.build())
}

fn exact_config(variant: Variant) -> FsimConfig {
    let mut cfg = FsimConfig::new(variant).label_fn(LabelFn::Indicator);
    cfg.matcher = MatcherKind::Hungarian; // exact maximum mapping → exact P2
    cfg.epsilon = 1e-12;
    cfg.max_iters = Some(200);
    cfg
}

const CASES: usize = 48;

/// Runs `check` on `CASES` seeded random cases.
fn for_cases(seed: u64, check: impl Fn(usize, &mut ChaCha8Rng)) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for case in 0..CASES {
        check(case, &mut rng);
    }
}

/// P1 (range): every score lies in [0, 1], for every variant.
#[test]
fn p1_scores_in_unit_range() {
    for_cases(101, |case, rng| {
        let (g1, g2) = arb_graph_pair(rng, 7);
        for variant in Variant::ALL {
            let cfg = FsimConfig::new(variant).label_fn(LabelFn::Indicator);
            let r = compute(&g1, &g2, &cfg).unwrap();
            for (u, v, s) in r.iter_pairs() {
                assert!(
                    (0.0..=1.0).contains(&s),
                    "case {case} {variant}: FSim({u},{v}) = {s}"
                );
            }
        }
    });
}

/// P2 (simulation definiteness): `u ⇝χ v ⇔ FSimχ(u,v) = 1`, checked
/// against the independent fixpoint refinement, for the engine and for
/// the dense reference oracle of Eq. 3 with the exact mapping.
#[test]
fn p2_simulation_definiteness() {
    for_cases(202, |case, rng| {
        let (g1, g2) = arb_graph_pair(rng, 6);
        for variant in Variant::ALL {
            let cfg = exact_config(variant);
            let r = compute(&g1, &g2, &cfg).unwrap();
            let reference = Reference::new(&g1, &g2, &cfg, false);
            let (dense, _) = reference.converged(cfg.epsilon);
            let relation = simulation_relation(&g1, &g2, exact_variant(variant));
            for u in g1.nodes() {
                for v in g2.nodes() {
                    for (who, s) in [
                        ("engine", r.get(u, v).unwrap()),
                        ("oracle", dense.score(u, v)),
                    ] {
                        if relation.contains(u, v) {
                            assert!(
                                (s - 1.0).abs() < 1e-9,
                                "case {case} {variant} {who}: simulated ({u},{v}) scored {s}"
                            );
                        } else {
                            assert!(
                                s < 1.0 - 1e-9,
                                "case {case} {variant} {who}: non-simulated ({u},{v}) scored {s}"
                            );
                        }
                    }
                }
            }
        }
    });
}

/// P3 (χ-conditional symmetry): converse-invariant variants produce
/// symmetric scores.
#[test]
fn p3_symmetry_for_converse_invariant_variants() {
    for_cases(303, |case, rng| {
        let (g1, g2) = arb_graph_pair(rng, 6);
        for variant in [Variant::Bi, Variant::Bijective] {
            let cfg = FsimConfig::new(variant).label_fn(LabelFn::Indicator);
            let fwd = compute(&g1, &g2, &cfg).unwrap();
            let bwd = compute(&g2, &g1, &cfg).unwrap();
            for u in g1.nodes() {
                for v in g2.nodes() {
                    let a = fwd.get(u, v).unwrap();
                    let b = bwd.get(v, u).unwrap();
                    assert!(
                        (a - b).abs() < 1e-9,
                        "case {case} {variant}: FSim({u},{v})={a} but FSim({v},{u})={b}"
                    );
                }
            }
        }
    });
}

/// Parallel execution is bitwise identical to sequential.
#[test]
fn parallel_equals_sequential() {
    for_cases(404, |case, rng| {
        let (g1, g2) = arb_graph_pair(rng, 6);
        let cfg = FsimConfig::new(Variant::Bijective).label_fn(LabelFn::Indicator);
        let seq = compute(&g1, &g2, &cfg).unwrap();
        let par = compute(&g1, &g2, &cfg.clone().threads(3)).unwrap();
        for ((u1, v1, s1), (u2, v2, s2)) in seq.iter_pairs().zip(par.iter_pairs()) {
            assert_eq!((u1, v1), (u2, v2), "case {case}");
            assert_eq!(
                s1.to_bits(),
                s2.to_bits(),
                "case {case}: diverged at ({u1},{v1})"
            );
        }
    });
}

/// The static upper bound of §3.4 really bounds the converged score.
#[test]
fn upper_bound_is_sound() {
    for_cases(505, |case, rng| {
        use fsim_core::candidates::static_upper_bound;
        use fsim_core::operators::{LabelEval, OpCtx, VariantOp};
        let (g1, g2) = arb_graph_pair(rng, 6);
        for variant in Variant::ALL {
            let cfg = FsimConfig::new(variant).label_fn(LabelFn::Indicator);
            let r = compute(&g1, &g2, &cfg).unwrap();
            let eval = LabelEval::Sim(LabelFn::Indicator.prepare(g1.interner()));
            let ctx = OpCtx {
                labels1: g1.labels(),
                labels2: g2.labels(),
                label_eval: &eval,
                theta: 0.0,
            };
            let op = VariantOp::new(variant);
            for (u, v, s) in r.iter_pairs() {
                let ub = static_upper_bound(&g1, &g2, &ctx, &cfg, &op, u, v);
                assert!(
                    s <= ub + 1e-9,
                    "case {case} {variant}: score {s} > ub {ub} at ({u},{v})"
                );
            }
        }
    });
}

/// Theorem 4: `FSimᵏ_b(u,v) = 1 ⇔ u, v are k-bisimilar` (single graph,
/// out-neighbors only).
#[test]
fn theorem4_kbisimulation() {
    for_cases(606, |case, rng| {
        let g = arb_graph(rng, 7);
        let k = rng.gen_range(0..4usize);
        let r = kbisim_via_framework(&g, k);
        let sig = kbisim_signatures(&g, k);
        for u in g.nodes() {
            for v in g.nodes() {
                let one = (r.get(u, v).unwrap() - 1.0).abs() < 1e-9;
                let bisimilar = sig[u as usize] == sig[v as usize];
                assert_eq!(
                    one,
                    bisimilar,
                    "case {case} k={k}: FSim^k_b({u},{v})={:?} vs sig-equal={bisimilar}",
                    r.get(u, v)
                );
            }
        }
    });
}

/// Theorem 5: on undirected graphs, `FSimbj(u,v) = 1 ⇔ equal WL colors`
/// (assuming the WL refinement converged, which it does on these small
/// graphs).
#[test]
fn theorem5_weisfeiler_lehman() {
    for_cases(707, |case, rng| {
        let g = arb_graph(rng, 6);
        let und = fsim_graph::transform::undirected(&g);
        let mut cfg = exact_config(Variant::Bijective);
        cfg.label_term = LabelTermMode::Sim;
        let r = compute(&und, &und, &cfg).unwrap();
        let (colors, _) = wl_colors(&und, &und, und.node_count() + 2);
        for u in und.nodes() {
            for v in und.nodes() {
                let one = (r.get(u, v).unwrap() - 1.0).abs() < 1e-9;
                let same_color = colors[u as usize] == colors[v as usize];
                assert_eq!(
                    one,
                    same_color,
                    "case {case}: WL mismatch at ({u},{v}): score={:?} same_color={same_color}",
                    r.get(u, v)
                );
            }
        }
    });
}

/// The exact strictness hierarchy of Figure 3(b): bj ⊆ dp ∩ b and
/// dp ∪ b ⊆ s.
#[test]
fn figure3b_strictness() {
    for_cases(808, |case, rng| {
        let (g1, g2) = arb_graph_pair(rng, 6);
        let s = simulation_relation(&g1, &g2, ExactVariant::Simple);
        let dp = simulation_relation(&g1, &g2, ExactVariant::DegreePreserving);
        let b = simulation_relation(&g1, &g2, ExactVariant::Bi);
        let bj = simulation_relation(&g1, &g2, ExactVariant::Bijective);
        for (u, v) in bj.pairs() {
            assert!(
                dp.contains(u, v) && b.contains(u, v),
                "case {case}: bj ⊄ dp∩b"
            );
        }
        for (u, v) in dp.pairs() {
            assert!(s.contains(u, v), "case {case}: dp ⊄ s");
        }
        for (u, v) in b.pairs() {
            assert!(s.contains(u, v), "case {case}: b ⊄ s");
        }
    });
}

/// θ-pruning maintains a subset of the pairs and never changes the score
/// of an exactly-simulated pair.
#[test]
fn theta_pruning_subset_and_p2() {
    for_cases(909, |case, rng| {
        let (g1, g2) = arb_graph_pair(rng, 6);
        let full = compute(&g1, &g2, &exact_config(Variant::Simple)).unwrap();
        let mut pruned_cfg = exact_config(Variant::Simple);
        pruned_cfg.theta = 1.0;
        let pruned = compute(&g1, &g2, &pruned_cfg).unwrap();
        assert!(pruned.pair_count() <= full.pair_count(), "case {case}");
        let oracle = simulation_relation(&g1, &g2, ExactVariant::Simple);
        for (u, v) in oracle.pairs() {
            // Simulated pairs have equal labels, so they survive θ = 1.
            let s = pruned.get(u, v).expect("simulated pair must be maintained");
            assert!((s - 1.0).abs() < 1e-9, "case {case}: ({u},{v}) scored {s}");
        }
    });
}
