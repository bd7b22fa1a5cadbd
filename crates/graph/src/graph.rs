//! The node-labeled directed graph `G = (V, E, ℓ)` of the paper's data model
//! (§2), stored immutably as dual CSR (out- and in-adjacency).

use crate::csr::Csr;
use crate::interner::{LabelId, LabelInterner};
use std::sync::Arc;

/// Node identifier. Nodes of a graph with `n` nodes are `0..n`.
pub type NodeId = u32;

/// An immutable node-labeled directed graph.
///
/// Construct via [`crate::GraphBuilder`]. Both adjacency directions are
/// materialized so that the `N⁺`/`N⁻` accesses of Definition 1 are `O(1)`
/// slice borrows.
#[derive(Debug, Clone)]
pub struct Graph {
    labels: Vec<LabelId>,
    out: Csr,
    inn: Csr,
    interner: Arc<LabelInterner>,
}

impl Graph {
    pub(crate) fn from_parts(
        labels: Vec<LabelId>,
        out: Csr,
        inn: Csr,
        interner: Arc<LabelInterner>,
    ) -> Self {
        debug_assert_eq!(labels.len(), out.node_count());
        debug_assert_eq!(labels.len(), inn.node_count());
        Self {
            labels,
            out,
            inn,
            interner,
        }
    }

    /// Rebuilds a graph from raw serialized parts — per-node labels
    /// plus both adjacency CSRs — validating the cross-structure
    /// invariants `from_parts` only debug-asserts: both CSRs sized to
    /// the label vector, in-adjacency the exact transpose of
    /// out-adjacency, and every label id known to `interner`.
    pub fn from_csr_parts(
        labels: Vec<LabelId>,
        out: Csr,
        inn: Csr,
        interner: Arc<LabelInterner>,
    ) -> Result<Graph, String> {
        if labels.len() != out.node_count() || labels.len() != inn.node_count() {
            return Err(format!(
                "label / CSR size mismatch: {} labels, {} out rows, {} in rows",
                labels.len(),
                out.node_count(),
                inn.node_count()
            ));
        }
        if let Some(bad) = labels.iter().find(|l| l.index() >= interner.len()) {
            return Err(format!(
                "label id {} out of interner range ({} labels interned)",
                bad.index(),
                interner.len()
            ));
        }
        if out.edge_count() != inn.edge_count() {
            return Err(format!(
                "edge count mismatch: {} out edges, {} in edges",
                out.edge_count(),
                inn.edge_count()
            ));
        }
        let mut flipped: Vec<(u32, u32)> = inn.edges().map(|(v, u)| (u, v)).collect();
        flipped.sort_unstable();
        if !flipped.iter().copied().eq(out.edges()) {
            return Err("in-adjacency is not the transpose of out-adjacency".to_string());
        }
        Ok(Graph::from_parts(labels, out, inn, interner))
    }

    /// Both raw adjacency CSRs `(out, in)` — the serialization
    /// counterpart of [`Graph::from_csr_parts`].
    pub fn csr_parts(&self) -> (&Csr, &Csr) {
        (&self.out, &self.inn)
    }

    /// `|V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// `|V|` as the exclusive upper bound of valid `u32` node ids —
    /// checked, so an impossible `|V| > u32::MAX` fails loudly instead
    /// of wrapping into a bogus id range.
    #[inline]
    pub fn node_count_u32(&self) -> u32 {
        u32::try_from(self.node_count()).expect("node count exceeds u32 node-id space")
    }

    /// `|E|` (directed edges, deduplicated).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.out.edge_count()
    }

    /// The label id of node `u`.
    #[inline]
    pub fn label(&self, u: NodeId) -> LabelId {
        self.labels[u as usize]
    }

    /// The label string of node `u`.
    pub fn label_str(&self, u: NodeId) -> Arc<str> {
        self.interner.resolve(self.label(u))
    }

    /// All node labels, indexed by node id.
    #[inline]
    pub fn labels(&self) -> &[LabelId] {
        &self.labels
    }

    /// `N⁺(u)`: out-neighbors of `u`, sorted.
    #[inline]
    pub fn out_neighbors(&self, u: NodeId) -> &[NodeId] {
        self.out.neighbors(u)
    }

    /// `N⁻(u)`: in-neighbors of `u`, sorted.
    #[inline]
    pub fn in_neighbors(&self, u: NodeId) -> &[NodeId] {
        self.inn.neighbors(u)
    }

    /// `d⁺(u)`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.out.degree(u)
    }

    /// `d⁻(u)`.
    #[inline]
    pub fn in_degree(&self, u: NodeId) -> usize {
        self.inn.degree(u)
    }

    /// Whether edge `(u, v)` exists.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.out.contains(u, v)
    }

    /// Iterator over node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.node_count() as NodeId
    }

    /// Iterator over all directed edges in sorted order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.out.edges()
    }

    /// The label interner shared by this graph.
    pub fn interner(&self) -> &Arc<LabelInterner> {
        &self.interner
    }

    /// Maximum out-degree `D⁺` of the graph.
    pub fn max_out_degree(&self) -> usize {
        self.out.max_degree()
    }

    /// Maximum in-degree `D⁻` of the graph.
    pub fn max_in_degree(&self) -> usize {
        self.inn.max_degree()
    }

    /// Average degree `d_G = |E| / |V|` (0 for the empty graph).
    pub fn avg_degree(&self) -> f64 {
        if self.node_count() == 0 {
            0.0
        } else {
            self.edge_count() as f64 / self.node_count() as f64
        }
    }

    /// Nodes carrying label `l`, in id order.
    pub fn nodes_with_label(&self, l: LabelId) -> Vec<NodeId> {
        self.nodes().filter(|&u| self.label(u) == l).collect()
    }

    /// The set of distinct labels used by this graph, sorted.
    pub fn used_labels(&self) -> Vec<LabelId> {
        let mut ls: Vec<LabelId> = self.labels.clone();
        ls.sort_unstable();
        ls.dedup();
        ls
    }

    /// Builds an edited copy of this graph: `add_edges` inserted,
    /// `remove_edges` deleted, and `relabels` (`node → new label id`)
    /// applied. The node set is unchanged; both adjacency CSRs are patched
    /// with one merge pass ([`Csr::patched`]) instead of a full
    /// sort-and-rebuild, and the label interner is shared with `self`.
    ///
    /// Edit lists need not be sorted; duplicates, already-present adds and
    /// already-absent removes collapse to no-ops. `add_edges` and
    /// `remove_edges` must not both contain the same edge.
    ///
    /// ```
    /// use fsim_graph::graph_from_parts;
    /// let g = graph_from_parts(&["a", "b", "c"], &[(0, 1), (1, 2)]);
    /// let h = g.with_edits(&[(0, 2)], &[(1, 2)], &[(2, g.label(0))]);
    /// assert!(h.has_edge(0, 2) && !h.has_edge(1, 2));
    /// assert_eq!(h.label(2), h.label(0));
    /// assert_eq!(h.node_count(), g.node_count());
    /// ```
    ///
    /// # Panics
    /// Panics if any referenced node is out of range.
    pub fn with_edits(
        &self,
        add_edges: &[(NodeId, NodeId)],
        remove_edges: &[(NodeId, NodeId)],
        relabels: &[(NodeId, LabelId)],
    ) -> Graph {
        let n = self.node_count();
        let in_range = |&(u, v): &(NodeId, NodeId)| (u as usize) < n && (v as usize) < n;
        assert!(add_edges.iter().all(in_range), "add edge out of range");
        assert!(
            remove_edges.iter().all(in_range),
            "remove edge out of range"
        );
        let normalize = |edges: &[(NodeId, NodeId)]| -> Vec<(NodeId, NodeId)> {
            let mut es = edges.to_vec();
            es.sort_unstable();
            es.dedup();
            es
        };
        let adds = normalize(add_edges);
        let removes = normalize(remove_edges);
        let flip = |edges: &[(NodeId, NodeId)]| -> Vec<(NodeId, NodeId)> {
            let mut es: Vec<(NodeId, NodeId)> = edges.iter().map(|&(u, v)| (v, u)).collect();
            es.sort_unstable();
            es
        };
        let out = self.out.patched(&adds, &removes);
        let inn = self.inn.patched(&flip(&adds), &flip(&removes));
        let mut labels = self.labels.clone();
        for &(u, l) in relabels {
            labels[u as usize] = l;
        }
        Graph::from_parts(labels, out, inn, Arc::clone(&self.interner))
    }
}

#[cfg(test)]
mod tests {
    use crate::GraphBuilder;

    #[test]
    fn basic_accessors() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("A");
        let c = b.add_node("B");
        let d = b.add_node("A");
        b.add_edge(a, c);
        b.add_edge(a, d);
        b.add_edge(c, d);
        let g = b.build();

        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.out_neighbors(a), &[c, d]);
        assert_eq!(g.in_neighbors(d), &[a, c]);
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(a), 0);
        assert!(g.has_edge(a, c));
        assert!(!g.has_edge(c, a));
        assert_eq!(&*g.label_str(a), "A");
        assert_eq!(g.label(a), g.label(d));
        assert_ne!(g.label(a), g.label(c));
    }

    #[test]
    fn degree_stats() {
        let mut b = GraphBuilder::new();
        let n: Vec<_> = (0..4).map(|_| b.add_node("x")).collect();
        b.add_edge(n[0], n[1]);
        b.add_edge(n[0], n[2]);
        b.add_edge(n[0], n[3]);
        b.add_edge(n[1], n[3]);
        let g = b.build();
        assert_eq!(g.max_out_degree(), 3);
        assert_eq!(g.max_in_degree(), 2);
        assert!((g.avg_degree() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn with_edits_matches_rebuild() {
        let mut b = GraphBuilder::new();
        for i in 0..6 {
            b.add_node(if i % 2 == 0 { "x" } else { "y" });
        }
        for e in [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)] {
            b.add_edge(e.0, e.1);
        }
        let g = b.build();
        let new_label = g.label(1);
        let h = g.with_edits(
            &[(5, 0), (0, 2), (0, 1)],
            &[(2, 3), (1, 5)],
            &[(0, new_label)],
        );

        // Oracle: rebuild from scratch on the same interner.
        let mut b2 = GraphBuilder::with_interner(std::sync::Arc::clone(g.interner()));
        for u in g.nodes() {
            b2.add_node_with_id(if u == 0 { new_label } else { g.label(u) });
        }
        for e in [(0, 1), (1, 2), (3, 0), (4, 5), (5, 0), (0, 2)] {
            b2.add_edge(e.0, e.1);
        }
        let oracle = b2.build();
        assert_eq!(h.labels(), oracle.labels());
        assert_eq!(
            h.edges().collect::<Vec<_>>(),
            oracle.edges().collect::<Vec<_>>()
        );
        for u in h.nodes() {
            assert_eq!(h.in_neighbors(u), oracle.in_neighbors(u), "in-row {u}");
        }
    }

    #[test]
    fn used_labels_and_label_members() {
        let mut b = GraphBuilder::new();
        for i in 0..10 {
            b.add_node(if i % 2 == 0 { "even" } else { "odd" });
        }
        let g = b.build();
        assert_eq!(g.used_labels().len(), 2);
        assert_eq!(g.nodes_with_label(g.label(0)), vec![0, 2, 4, 6, 8]);
    }
}
