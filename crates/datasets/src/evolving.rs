//! Evolving graph versions with identity ground truth — the stand-in for
//! the three time-stamped biological RDF graphs of the alignment case study
//! (Table 9).
//!
//! `evolve` applies churn to a base graph: a fraction of nodes disappears,
//! new nodes appear, and a fraction of edges is rewired. Surviving nodes
//! keep their identity (the paper identifies ground truth via unchanged
//! URIs), producing the `G1 → G2 → G3` version chain.

use fsim_graph::{Graph, GraphBuilder, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;
use std::sync::Arc;

/// Churn rates of one evolution step.
#[derive(Debug, Clone, Copy)]
pub struct Churn {
    /// Fraction of nodes deleted.
    pub node_del: f64,
    /// New nodes added, as a fraction of the original node count.
    pub node_add: f64,
    /// Fraction of (surviving) edges removed.
    pub edge_del: f64,
    /// New edges added, as a fraction of the original edge count.
    pub edge_add: f64,
}

impl Default for Churn {
    /// Mild churn (a few percent), enough to break exact bisimulation —
    /// matching the paper's observation that plain bisimulation scores
    /// 0% F1 across versions.
    fn default() -> Self {
        Self {
            node_del: 0.02,
            node_add: 0.04,
            edge_del: 0.04,
            edge_add: 0.05,
        }
    }
}

/// One evolution step: returns the evolved graph and the ground-truth map
/// `old node → new node` (`None` for deleted nodes).
pub fn evolve<R: Rng + ?Sized>(
    g: &Graph,
    churn: Churn,
    rng: &mut R,
) -> (Graph, Vec<Option<NodeId>>) {
    let n = g.node_count();
    let delete_count = ((n as f64) * churn.node_del).round() as usize;
    let add_count = ((n as f64) * churn.node_add).round() as usize;

    let mut ids: Vec<NodeId> = g.nodes().collect();
    ids.shuffle(rng);
    let deleted: fsim_graph::FxHashSet<NodeId> = ids.iter().take(delete_count).copied().collect();

    let mut b = GraphBuilder::with_interner(Arc::clone(g.interner()));
    let mut mapping: Vec<Option<NodeId>> = vec![None; n];
    for u in g.nodes() {
        if !deleted.contains(&u) {
            mapping[u as usize] = Some(b.add_node_with_id(g.label(u)));
        }
    }
    // New nodes copy labels from random survivors (keeps the alphabet).
    let survivors: Vec<NodeId> = g.nodes().filter(|u| !deleted.contains(u)).collect();
    let mut new_ids = Vec::new();
    for _ in 0..add_count {
        let template = survivors[rng.gen_range(0..survivors.len().max(1))];
        new_ids.push(b.add_node_with_id(g.label(template)));
    }

    // Surviving edges minus deletions.
    let mut surviving: Vec<(NodeId, NodeId)> = g
        .edges()
        .filter_map(|(u, v)| Some((mapping[u as usize]?, mapping[v as usize]?)))
        .collect();
    surviving.shuffle(rng);
    let keep = surviving.len() - ((surviving.len() as f64) * churn.edge_del).round() as usize;
    surviving.truncate(keep);
    for &(u, v) in &surviving {
        b.add_edge(u, v);
    }
    // New edges attach the new nodes plus random churn.
    let total_new_nodes = b.node_count() as u32;
    let added_edges = ((g.edge_count() as f64) * churn.edge_add).round() as usize;
    for k in 0..added_edges {
        // Bias half of the new edges to touch freshly added nodes.
        let u = if k % 2 == 0 && !new_ids.is_empty() {
            new_ids[rng.gen_range(0..new_ids.len())]
        } else {
            rng.gen_range(0..total_new_nodes)
        };
        let v = rng.gen_range(0..total_new_nodes);
        if u != v {
            b.add_edge(u, v);
        }
    }
    (b.build(), mapping)
}

/// Reifies edges through typed relation nodes: every edge `(u, v)` becomes
/// `u → r → v` with `r` labeled `rel-{t}`, `t` assigned deterministically
/// per edge from `n_types` relation types.
///
/// The paper's alignment graphs are RDF with 23 *edge* labels; our data
/// model is node-labeled, and reification is the standard encoding that
/// preserves the edge-label discrimination. Reify the base
/// version, then [`evolve`] the reified graph — relation-node churn then
/// models edge churn.
pub fn reify_edges(g: &Graph, n_types: usize) -> Graph {
    assert!(n_types >= 1);
    let mut b = GraphBuilder::with_interner(Arc::clone(g.interner()));
    for u in g.nodes() {
        b.add_node_with_id(g.label(u));
    }
    for (u, v) in g.edges() {
        let mut h = fsim_graph::hash::FxHasher::default();
        use std::hash::Hasher;
        h.write_u32(g.label(u).0);
        h.write_u32(g.label(v).0);
        h.write_u64(fsim_graph::pair_key(u, v));
        let t = (h.finish() % n_types as u64) as usize;
        let r = b.add_node(&format!("rel-{t}"));
        b.add_edge(u, r);
        b.add_edge(r, v);
    }
    b.build()
}

/// Composes two ground-truth maps (`g1 → g2` then `g2 → g3`).
pub fn compose_ground_truth(
    first: &[Option<NodeId>],
    second: &[Option<NodeId>],
) -> Vec<Option<NodeId>> {
    first
        .iter()
        .map(|step| step.and_then(|mid| second[mid as usize]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsim_graph::generate::{preferential, GeneratorConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn base() -> Graph {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        preferential(&GeneratorConfig::new(200, 600, 8), &mut rng)
    }

    #[test]
    fn mapping_covers_survivors_only() {
        let g = base();
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let churn = Churn::default();
        let (g2, map) = evolve(&g, churn, &mut rng);
        let deleted = map.iter().filter(|m| m.is_none()).count();
        assert_eq!(deleted, (200.0 * churn.node_del).round() as usize);
        assert_eq!(
            g2.node_count(),
            200 - deleted + (200.0 * churn.node_add).round() as usize
        );
        // Labels survive along the mapping.
        for (old, new) in map.iter().enumerate() {
            if let Some(new) = new {
                assert_eq!(g.label(old as u32), g2.label(*new));
            }
        }
    }

    #[test]
    fn zero_churn_is_isomorphic_identity() {
        let g = base();
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let churn = Churn {
            node_del: 0.0,
            node_add: 0.0,
            edge_del: 0.0,
            edge_add: 0.0,
        };
        let (g2, map) = evolve(&g, churn, &mut rng);
        assert_eq!(g2.node_count(), g.node_count());
        assert_eq!(g2.edge_count(), g.edge_count());
        for (old, new) in map.iter().enumerate() {
            assert_eq!(*new, Some(old as u32));
        }
    }

    #[test]
    fn edges_churn_within_expected_bounds() {
        let g = base();
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let churn = Churn::default();
        let (g2, _) = evolve(&g, churn, &mut rng);
        let lo = (g.edge_count() as f64 * 0.85) as usize;
        let hi = (g.edge_count() as f64 * 1.15) as usize;
        assert!(
            (lo..=hi).contains(&g2.edge_count()),
            "edge count {} outside [{lo},{hi}]",
            g2.edge_count()
        );
    }

    #[test]
    fn reify_inserts_typed_relation_nodes() {
        let g = base();
        let r = reify_edges(&g, 23);
        assert_eq!(r.node_count(), g.node_count() + g.edge_count());
        assert_eq!(r.edge_count(), 2 * g.edge_count());
        // Every original edge is now a 2-hop path through a rel-typed node.
        for (u, v) in g.edges() {
            let found = r
                .out_neighbors(u)
                .iter()
                .any(|&m| r.label_str(m).starts_with("rel-") && r.out_neighbors(m).contains(&v));
            assert!(found, "edge ({u},{v}) not reified");
        }
        // Relation labels bounded by the requested type count.
        let rel_labels = r
            .used_labels()
            .into_iter()
            .filter(|l| r.interner().resolve(*l).starts_with("rel-"))
            .count();
        assert!(rel_labels <= 23);
        assert!(rel_labels > 1, "more than one relation type expected");
    }

    #[test]
    fn reify_is_deterministic() {
        let g = base();
        let a = reify_edges(&g, 23);
        let b = reify_edges(&g, 23);
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
        assert_eq!(a.labels(), b.labels());
    }

    #[test]
    fn composition_chains_maps() {
        let first = vec![Some(1), None, Some(0)];
        let second = vec![Some(5), Some(6)];
        let composed = compose_ground_truth(&first, &second);
        assert_eq!(composed, vec![Some(6), None, Some(5)]);
    }
}
