//! Graphs on separate label interners. `fsim_graph::io::from_text` and
//! `GraphBuilder::new` give every graph its own interner, so the same
//! label string may carry different ids on the two sides. A session
//! aligns both vocabularies by label string when it is built; from then
//! on it must behave exactly like a session on graphs that share one
//! interner: the same maintained pairs in the same order, bitwise-equal
//! scores (maintained and fallback), and edits that land where a cold
//! session on the edited graphs lands.

use fsim::prelude::*;
use fsim_core::FsimEngine;
use fsim_datasets::DatasetSpec;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// `g`'s nodes and edges rebuilt on `interner`, after interning `g`'s
/// vocabulary into it in the order `seed` shuffles it to (`None` keeps
/// the order in which `g` first used each label).
fn rebuild(g: &Graph, interner: Arc<LabelInterner>, seed: Option<u64>) -> Graph {
    let mut vocab: Vec<Arc<str>> = g
        .used_labels()
        .iter()
        .map(|&l| g.interner().resolve(l))
        .collect();
    if let Some(seed) = seed {
        vocab.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
        for l in &vocab {
            interner.intern(l);
        }
    }
    let mut b = GraphBuilder::with_interner(interner);
    for u in g.nodes() {
        b.add_node(&g.label_str(u));
    }
    for (u, v) in g.edges() {
        b.add_edge(u, v);
    }
    b.build()
}

/// Two NELL surrogates of different topology seeds over one label
/// alphabet: `(shared_g1, shared_g2, own_g1, own_g2)`, where the first
/// two share an interner and the last two each carry their own, G2's
/// interned in a permuted order.
fn nell_pair(seed: u64) -> (Graph, Graph, Graph, Graph) {
    let spec = DatasetSpec::by_name("NELL").expect("NELL is a Table-4 dataset");
    let a = spec.generate_scaled(0.08, seed);
    let b = spec.generate_scaled(0.08, seed + 1);
    let shared = LabelInterner::shared();
    (
        rebuild(&a, Arc::clone(&shared), None),
        rebuild(&b, shared, None),
        rebuild(&a, LabelInterner::shared(), None),
        rebuild(&b, LabelInterner::shared(), Some(seed)),
    )
}

/// The configurations the suite crosses: θ = 1 under the indicator,
/// θ = 0.6 under Jaro–Winkler, and upper-bound pruning with and without
/// α·ub constants.
fn configs() -> Vec<FsimConfig> {
    vec![
        FsimConfig::new(Variant::Simple)
            .label_fn(LabelFn::Indicator)
            .theta(1.0),
        FsimConfig::new(Variant::Bijective)
            .label_fn(LabelFn::Indicator)
            .theta(1.0),
        FsimConfig::new(Variant::Simple)
            .label_fn(LabelFn::JaroWinkler)
            .theta(0.6),
        FsimConfig::new(Variant::DegreePreserving)
            .label_fn(LabelFn::JaroWinkler)
            .theta(0.6)
            .upper_bound(0.3, 0.5),
        FsimConfig::new(Variant::Simple)
            .label_fn(LabelFn::JaroWinkler)
            .upper_bound(0.0, 0.6),
    ]
}

/// Bits of every maintained `(u, v, score)`, in slot order.
fn store_bits(e: &FsimEngine<'_>) -> Vec<(NodeId, NodeId, u64)> {
    e.iter_pairs()
        .map(|(u, v, s)| (u, v, s.to_bits()))
        .collect()
}

/// Asserts two converged sessions on the same graphs agree bitwise: the
/// maintained pairs and their scores, the convergence record, and the
/// score of every pair of `V1 × V2` (fallbacks included).
fn assert_same_session(a: &FsimEngine<'_>, b: &FsimEngine<'_>, what: &str) {
    assert_eq!(store_bits(a), store_bits(b), "{what}: store");
    assert_eq!(a.iterations(), b.iterations(), "{what}: iterations");
    assert_eq!(a.converged(), b.converged(), "{what}: converged");
    let (g1, g2) = a.graphs();
    for u in g1.nodes() {
        for v in g2.nodes() {
            assert_eq!(
                a.score(u, v).to_bits(),
                b.score(u, v).to_bits(),
                "{what}: score({u}, {v})"
            );
        }
    }
}

#[test]
fn separately_interned_labels_pair_by_string() {
    // G1 interns A then B; G2 interns B then A: label id 0 names A on the
    // left and B on the right.
    let mut b1 = GraphBuilder::new();
    let a = b1.add_node("A");
    let b = b1.add_node("B");
    let mut b2 = GraphBuilder::new();
    let y_b = b2.add_node("B");
    let x_a = b2.add_node("A");
    let (g1, g2) = (b1.build(), b2.build());
    assert_eq!(
        g1.label(a),
        g2.label(y_b),
        "the ids collide across interners"
    );

    let cfg = FsimConfig::new(Variant::Simple)
        .label_fn(LabelFn::Indicator)
        .theta(1.0);
    let mut e = FsimEngine::new(&g1, &g2, &cfg).unwrap();
    e.run();
    let pairs: Vec<(NodeId, NodeId)> = e.iter_pairs().map(|(u, v, _)| (u, v)).collect();
    assert_eq!(pairs, vec![(a, x_a), (b, y_b)]);
    assert_eq!(e.score(a, x_a), 1.0);
    assert_eq!(e.score(b, y_b), 1.0);
    assert_eq!(e.get(a, y_b), None);

    let shared = LabelInterner::shared();
    let (s1, s2) = (
        rebuild(&g1, Arc::clone(&shared), None),
        rebuild(&g2, shared, None),
    );
    let mut reference = FsimEngine::new(&s1, &s2, &cfg).unwrap();
    reference.run();
    assert_same_session(&e, &reference, "two-node pair");
}

#[test]
fn separate_interners_score_like_a_shared_one() {
    for seed in [3, 11] {
        let (s1, s2, o1, o2) = nell_pair(seed);
        for cfg in configs() {
            let mut own = FsimEngine::new(&o1, &o2, &cfg).unwrap();
            own.run();
            let mut shared = FsimEngine::new(&s1, &s2, &cfg).unwrap();
            shared.run();
            assert!(own.pair_count() > 0, "seed {seed}: {cfg:?} keeps pairs");
            assert_same_session(&own, &shared, &format!("seed {seed}, {cfg:?}"));
        }
    }
}

#[test]
fn rerun_across_theta_matches_a_shared_interner() {
    let (s1, s2, o1, o2) = nell_pair(5);
    let cfg = FsimConfig::new(Variant::Simple)
        .label_fn(LabelFn::JaroWinkler)
        .theta(0.9);
    let mut own = FsimEngine::new(&o1, &o2, &cfg).unwrap();
    own.run();
    let mut shared = FsimEngine::new(&s1, &s2, &cfg).unwrap();
    shared.run();
    for theta in [0.6, 1.0] {
        own.rerun(|c| c.theta = theta).unwrap();
        shared.rerun(|c| c.theta = theta).unwrap();
        assert_same_session(&own, &shared, &format!("rerun at θ = {theta}"));
    }
}

#[test]
fn edits_on_separate_interners_match_a_cold_session() {
    let (_, _, o1, o2) = nell_pair(7);
    let known = o2.label_str(0).to_string();
    let (x, y) = o2.edges().next().expect("the surrogate has edges");
    let edits = [
        GraphEdit::add_edge(GraphSide::Left, 0, 1),
        GraphEdit::remove_edge(GraphSide::Right, x, y),
        // A label both sides know, and one neither has seen.
        GraphEdit::relabel(GraphSide::Left, 2, known.clone()),
        GraphEdit::relabel(GraphSide::Right, 3, known),
        GraphEdit::relabel(GraphSide::Right, 4, "unseen-label"),
    ];
    for cfg in configs() {
        let mut warm = FsimEngine::new(&o1, &o2, &cfg).unwrap();
        warm.run();
        warm.apply_edits(&edits).unwrap();
        // The cold reference: the edited graphs, on their own interners.
        let (e1, e2) = warm.graphs();
        let (c1, c2) = (
            rebuild(e1, LabelInterner::shared(), None),
            rebuild(e2, LabelInterner::shared(), Some(1)),
        );
        let mut cold = FsimEngine::new(&c1, &c2, &cfg).unwrap();
        cold.run();
        assert_same_session(&warm, &cold, &format!("edited, {cfg:?}"));
    }
}
