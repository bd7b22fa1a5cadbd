//! Mutable construction of [`Graph`]s.

use crate::csr::Csr;
use crate::graph::{Graph, NodeId};
use crate::interner::{LabelId, LabelInterner};
use std::sync::Arc;

/// Incrementally builds a [`Graph`].
///
/// Two graphs may be compared on separate interners: the engine aligns
/// them by label string. Sharing one (see [`GraphBuilder::with_interner`])
/// maps equal label strings to equal [`LabelId`]s across both, so that
/// alignment is a copy.
#[derive(Debug)]
pub struct GraphBuilder {
    interner: Arc<LabelInterner>,
    labels: Vec<LabelId>,
    edges: Vec<(NodeId, NodeId)>,
}

impl Default for GraphBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl GraphBuilder {
    /// A builder with a fresh private interner.
    pub fn new() -> Self {
        Self::with_interner(LabelInterner::shared())
    }

    /// A builder using (and extending) a shared interner.
    pub fn with_interner(interner: Arc<LabelInterner>) -> Self {
        Self {
            interner,
            labels: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Pre-reserves space for `nodes`/`edges` insertions.
    pub fn reserve(&mut self, nodes: usize, edges: usize) {
        self.labels.reserve(nodes);
        self.edges.reserve(edges);
    }

    /// Adds a node with the given label string; returns its id.
    pub fn add_node(&mut self, label: &str) -> NodeId {
        let id = self.interner.intern(label);
        self.add_node_with_id(id)
    }

    /// Adds a node with an already-interned label id; returns the node id.
    pub fn add_node_with_id(&mut self, label: LabelId) -> NodeId {
        let u = u32::try_from(self.labels.len()).expect("node id overflow");
        self.labels.push(label);
        u
    }

    /// Adds the directed edge `(u, v)`. Duplicates are collapsed at build.
    ///
    /// # Panics
    /// Panics if either endpoint has not been added yet.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        assert!(
            (u as usize) < self.labels.len() && (v as usize) < self.labels.len(),
            "edge ({u},{v}) references unknown node (have {} nodes)",
            self.labels.len()
        );
        self.edges.push((u, v));
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// The builder's interner.
    pub fn interner(&self) -> &Arc<LabelInterner> {
        &self.interner
    }

    /// Finalizes into an immutable [`Graph`].
    pub fn build(self) -> Graph {
        let n = self.labels.len();
        let mut edges = self.edges;
        edges.sort_unstable();
        edges.dedup();
        let out = Csr::from_sorted_dedup_edges(n, &edges);
        let mut rev: Vec<(u32, u32)> = edges.iter().map(|&(u, v)| (v, u)).collect();
        rev.sort_unstable();
        // `edges` was deduplicated, so `rev` contains no duplicates either.
        let inn = Csr::from_sorted_dedup_edges(n, &rev);
        Graph::from_parts(self.labels, out, inn, self.interner)
    }
}

/// Convenience: builds a graph from `(label per node, edge list)`.
pub fn graph_from_parts(labels: &[&str], edges: &[(NodeId, NodeId)]) -> Graph {
    let mut b = GraphBuilder::new();
    for l in labels {
        b.add_node(l);
    }
    for &(u, v) in edges {
        b.add_edge(u, v);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_edges_collapse() {
        let g = graph_from_parts(&["a", "a"], &[(0, 1), (0, 1), (1, 0)]);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn in_and_out_are_consistent() {
        let g = graph_from_parts(&["a", "b", "c"], &[(0, 1), (1, 2), (0, 2)]);
        for u in g.nodes() {
            for &v in g.out_neighbors(u) {
                assert!(g.in_neighbors(v).contains(&u));
            }
            for &w in g.in_neighbors(u) {
                assert!(g.out_neighbors(w).contains(&u));
            }
        }
    }

    #[test]
    fn shared_interner_aligns_label_ids() {
        let i = LabelInterner::shared();
        let mut b1 = GraphBuilder::with_interner(Arc::clone(&i));
        let mut b2 = GraphBuilder::with_interner(Arc::clone(&i));
        let u = b1.add_node("hex");
        let v = b2.add_node("hex");
        let w = b2.add_node("pent");
        let g1 = b1.build();
        let g2 = b2.build();
        assert_eq!(g1.label(u), g2.label(v));
        assert_ne!(g1.label(u), g2.label(w));
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn edge_to_unknown_node_panics() {
        let mut b = GraphBuilder::new();
        b.add_node("a");
        b.add_edge(0, 5);
    }

    #[test]
    fn self_loops_are_kept() {
        let g = graph_from_parts(&["a"], &[(0, 0)]);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.out_neighbors(0), &[0]);
        assert_eq!(g.in_neighbors(0), &[0]);
    }
}
