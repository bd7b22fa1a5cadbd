//! Graph edits and the planning machinery behind
//! [`FsimEngine::apply_edits`](super::FsimEngine::apply_edits).
//!
//! The paper's fixpoint (Eq. 3) is defined over a static graph pair; the
//! serve-side workloads need scores that survive edge and label edits
//! without a cold recompute. This module defines the public edit batch
//! vocabulary ([`GraphEdit`]) and the *edit plan*: the net effect of a
//! batch on each graph, and the node-level **dirty sets** that bound which
//! candidate-store rows, dependency-CSR slots and label terms the edit can
//! possibly touch. Everything outside those sets is provably unchanged and
//! is reused verbatim by the repair passes.
//!
//! The same dirty sets drive re-convergence: a session holding a recorded
//! trajectory **replays** it (bitwise identical to a cold recompute,
//! re-evaluating the edit's full influence ball), and one without
//! re-iterates cold over the repaired structures.
//! [`ConvergenceMode::Approximate`](crate::config::ConvergenceMode)
//! sessions take the same path: an approximate run is the exact run
//! stopped early, so its replay is bitwise identical to a cold
//! approximate recompute.
//!
//! Sharded sessions (`engine/shards.rs`) consume the same dirty sets at
//! shard granularity: an edit that keeps pair membership resets only the
//! boundary-exchange masks (dirty dependency entries may add reader
//! bits), while a membership change — which renumbers slots — drops the
//! slot-keyed shard plan for rebuild. They re-iterate cold over the
//! repaired structures (sharded runs record no trajectory).

use crate::config::{FsimConfig, LabelTermMode};
use fsim_graph::{pair_key, FxHashMap, FxHashSet, Graph, LabelId, NodeId};

/// Which graph of an engine session an edit targets: `G1` ([`Left`]) or
/// `G2` ([`Right`]).
///
/// Self-similarity sessions (`FsimEngine::new(&g, &g, …)`) compare one
/// graph with itself; to keep both sides consistent, apply every edit
/// twice — once per side (the `fsim update` CLI does this automatically
/// when given a single graph).
///
/// [`Left`]: GraphSide::Left
/// [`Right`]: GraphSide::Right
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphSide {
    /// The pattern/query graph `G1` (scores are oriented `G1 → G2`).
    Left,
    /// The data graph `G2`.
    Right,
}

impl std::fmt::Display for GraphSide {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            GraphSide::Left => "G1",
            GraphSide::Right => "G2",
        })
    }
}

/// One edit to a graph of an engine session. Batches of edits are applied
/// atomically by [`FsimEngine::apply_edits`](super::FsimEngine::apply_edits);
/// within a batch, later edits win (an add followed by a remove of the
/// same edge nets to a no-op).
///
/// The node set is fixed: edits reference existing node ids only. Model
/// node insertion by pre-allocating isolated nodes and attaching edges, or
/// rebuild the session.
///
/// ```
/// use fsim_core::{FsimConfig, FsimEngine, GraphEdit, GraphSide, Variant};
/// use fsim_graph::graph_from_parts;
/// use fsim_labels::LabelFn;
///
/// let g = graph_from_parts(&["a", "b", "a"], &[(0, 1), (1, 2)]);
/// let cfg = FsimConfig::new(Variant::Simple).label_fn(LabelFn::Indicator);
/// let mut engine = FsimEngine::new(&g, &g, &cfg).unwrap();
/// engine.run();
/// let edits = [
///     GraphEdit::add_edge(GraphSide::Right, 2, 0),
///     GraphEdit::relabel(GraphSide::Right, 1, "a"),
/// ];
/// let result = engine.apply_edits(&edits).unwrap();
/// assert_eq!(result.pair_count(), engine.pair_count());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum GraphEdit {
    /// Insert the directed edge `(src, dst)`. A no-op if already present.
    AddEdge {
        /// Target graph.
        side: GraphSide,
        /// Edge source node.
        src: NodeId,
        /// Edge target node.
        dst: NodeId,
    },
    /// Delete the directed edge `(src, dst)`. A no-op if absent.
    RemoveEdge {
        /// Target graph.
        side: GraphSide,
        /// Edge source node.
        src: NodeId,
        /// Edge target node.
        dst: NodeId,
    },
    /// Change the label of `node` to `label` (interned on apply; a no-op
    /// if the node already carries that label).
    RelabelNode {
        /// Target graph.
        side: GraphSide,
        /// The node to relabel.
        node: NodeId,
        /// The new label string.
        label: String,
    },
}

impl GraphEdit {
    /// An [`AddEdge`](GraphEdit::AddEdge) edit.
    pub fn add_edge(side: GraphSide, src: NodeId, dst: NodeId) -> Self {
        GraphEdit::AddEdge { side, src, dst }
    }

    /// A [`RemoveEdge`](GraphEdit::RemoveEdge) edit.
    pub fn remove_edge(side: GraphSide, src: NodeId, dst: NodeId) -> Self {
        GraphEdit::RemoveEdge { side, src, dst }
    }

    /// A [`RelabelNode`](GraphEdit::RelabelNode) edit.
    pub fn relabel(side: GraphSide, node: NodeId, label: impl Into<String>) -> Self {
        GraphEdit::RelabelNode {
            side,
            node,
            label: label.into(),
        }
    }

    /// The graph this edit targets.
    pub fn side(&self) -> GraphSide {
        match self {
            GraphEdit::AddEdge { side, .. }
            | GraphEdit::RemoveEdge { side, .. }
            | GraphEdit::RelabelNode { side, .. } => *side,
        }
    }
}

/// Why an edit batch was rejected. The session is left untouched when
/// [`apply_edits`](super::FsimEngine::apply_edits) returns an error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditError {
    /// An edit referenced a node id outside the target graph.
    NodeOutOfRange {
        /// The offending side.
        side: GraphSide,
        /// The out-of-range node id.
        node: NodeId,
        /// The target graph's node count.
        node_count: usize,
    },
}

impl std::fmt::Display for EditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EditError::NodeOutOfRange {
                side,
                node,
                node_count,
            } => write!(
                f,
                "edit references node {node} of {side}, which has only {node_count} nodes"
            ),
        }
    }
}

impl std::error::Error for EditError {}

/// The net effect of an edit batch on one graph, against its current
/// state: redundant edits dropped, add/remove flip-flops cancelled, labels
/// resolved to interned ids. All lists sorted.
#[derive(Debug, Default)]
pub(crate) struct SideDelta {
    /// Net edge insertions (absent now, present after).
    pub adds: Vec<(NodeId, NodeId)>,
    /// Net edge deletions (present now, absent after).
    pub removes: Vec<(NodeId, NodeId)>,
    /// Net relabels `(node, new id ≠ current id)`.
    pub relabels: Vec<(NodeId, LabelId)>,
}

impl SideDelta {
    pub(crate) fn is_empty(&self) -> bool {
        self.adds.is_empty() && self.removes.is_empty() && self.relabels.is_empty()
    }
}

/// Validates every node id of one side's edits against its graph —
/// called for **both** sides before any state (including the shared label
/// interner) is touched, so a rejected batch leaves the session and its
/// graphs observably unchanged.
pub(crate) fn validate_side(
    g: &Graph,
    side: GraphSide,
    edits: &[GraphEdit],
) -> Result<(), EditError> {
    let n = g.node_count();
    let check = |node: NodeId| -> Result<(), EditError> {
        if (node as usize) < n {
            Ok(())
        } else {
            Err(EditError::NodeOutOfRange {
                side,
                node,
                node_count: n,
            })
        }
    };
    for e in edits.iter().filter(|e| e.side() == side) {
        match e {
            GraphEdit::AddEdge { src, dst, .. } | GraphEdit::RemoveEdge { src, dst, .. } => {
                check(*src)?;
                check(*dst)?;
            }
            GraphEdit::RelabelNode { node, .. } => check(*node)?,
        }
    }
    Ok(())
}

/// Computes the [`SideDelta`] of `edits` for one side of the session.
/// Later edits of the same edge/node win. Relabels to labels the interner
/// has not seen are interned here, so the batch must already have passed
/// [`validate_side`] for **both** sides.
pub(crate) fn net_side_delta(g: &Graph, side: GraphSide, edits: &[GraphEdit]) -> SideDelta {
    // key → (src, dst, desired-present)
    let mut edge_state: FxHashMap<u64, (NodeId, NodeId, bool)> = FxHashMap::default();
    let mut label_state: FxHashMap<NodeId, &str> = FxHashMap::default();
    for e in edits.iter().filter(|e| e.side() == side) {
        match e {
            GraphEdit::AddEdge { src, dst, .. } => {
                edge_state.insert(pair_key(*src, *dst), (*src, *dst, true));
            }
            GraphEdit::RemoveEdge { src, dst, .. } => {
                edge_state.insert(pair_key(*src, *dst), (*src, *dst, false));
            }
            GraphEdit::RelabelNode { node, label, .. } => {
                label_state.insert(*node, label);
            }
        }
    }
    let mut delta = SideDelta::default();
    for &(src, dst, present) in edge_state.values() {
        match (present, g.has_edge(src, dst)) {
            (true, false) => delta.adds.push((src, dst)),
            (false, true) => delta.removes.push((src, dst)),
            _ => {} // redundant
        }
    }
    for (&node, &label) in &label_state {
        let id = g.interner().intern(label);
        if id != g.label(node) {
            delta.relabels.push((node, id));
        }
    }
    delta.adds.sort_unstable();
    delta.removes.sort_unstable();
    delta.relabels.sort_unstable_by_key(|&(u, _)| u);
    delta
}

/// Node-level dirty sets of one side's delta: which left (or right) nodes'
/// candidate rows and dependency entries the edit can possibly affect.
#[derive(Debug, Default)]
pub(crate) struct DirtyNodes {
    /// Nodes whose *dependency structure* may change: their neighbor
    /// lists, the eligibility of entries referencing them, or (under
    /// `α`-substituted pruning) baked fallback constants. Every maintained
    /// pair on such a node re-derives its dependency entries.
    pub structural: FxHashSet<NodeId>,
    /// Nodes whose *candidate-row membership* must be re-enumerated
    /// (θ-filter or upper-bound pruning reads something the edit changed).
    pub membership: FxHashSet<NodeId>,
    /// Relabeled nodes (their slots' cached label terms are stale).
    pub relabeled: FxHashSet<NodeId>,
}

impl DirtyNodes {
    /// Conservative dirty sets for `delta` on a graph transitioning
    /// `g_old → g_new`. Supersets are safe (recomputing a clean row
    /// reproduces it bitwise); the sets are tight for the common
    /// configurations and widen only where exotic knobs (α-substituted
    /// pruning, label-similarity-dependent bounds) genuinely couple more
    /// state to the edit.
    pub(crate) fn of(
        delta: &SideDelta,
        g_old: &Graph,
        g_new: &Graph,
        cfg: &FsimConfig,
    ) -> DirtyNodes {
        let mut d = DirtyNodes::default();
        let theta_reads_labels = cfg.theta > 0.0 && matches!(cfg.label_term, LabelTermMode::Sim);
        let ub = cfg.upper_bound;
        let alpha_pos = ub.is_some_and(|u| u.alpha > 0.0);
        let both_hoods = |node: NodeId, sink: &mut FxHashSet<NodeId>| {
            for g in [g_old, g_new] {
                sink.extend(g.out_neighbors(node).iter().copied());
                sink.extend(g.in_neighbors(node).iter().copied());
            }
        };
        for &(a, b) in delta.adds.iter().chain(&delta.removes) {
            // The endpoints' neighbor lists change.
            d.structural.insert(a);
            d.structural.insert(b);
            if ub.is_some() {
                // ub(u, ·) reads u's neighborhood: membership of rows a/b.
                d.membership.insert(a);
                d.membership.insert(b);
                if alpha_pos {
                    // Entries referencing dropped pairs (x, ·) with
                    // x ∈ {a, b} bake the constant α·ub(x, ·), which just
                    // changed; their dependents live on N(a) ∪ N(b).
                    both_hoods(a, &mut d.structural);
                    both_hoods(b, &mut d.structural);
                }
            }
        }
        for &(w, _) in &delta.relabels {
            d.relabeled.insert(w);
            if !matches!(cfg.label_term, LabelTermMode::Sim) {
                // Constant label evaluation: relabels change nothing else.
                continue;
            }
            if theta_reads_labels || ub.is_some() {
                // Eligibility of neighbor pairs involving w changes for
                // every maintained pair on a neighbor of w.
                d.structural.insert(w);
                both_hoods(w, &mut d.structural);
            }
            if theta_reads_labels {
                d.membership.insert(w);
            }
            if ub.is_some() {
                // ub of (x, ·) reads the eligibility of x's neighbors;
                // x ∈ {w} ∪ N(w) is affected.
                d.membership.insert(w);
                both_hoods(w, &mut d.membership);
                if alpha_pos {
                    // Constants of dropped pairs on {w} ∪ N(w) change;
                    // their dependents reach the 2-hop ball around w.
                    let ring: Vec<NodeId> = {
                        let mut r = FxHashSet::default();
                        both_hoods(w, &mut r);
                        r.into_iter().collect()
                    };
                    for x in ring {
                        d.structural.insert(x);
                        both_hoods(x, &mut d.structural);
                    }
                }
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use fsim_graph::graph_from_parts;

    fn g() -> Graph {
        graph_from_parts(&["a", "b", "a", "b"], &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn net_delta_drops_redundant_and_flip_flops() {
        let g = g();
        let edits = [
            GraphEdit::add_edge(GraphSide::Left, 0, 1), // already present
            GraphEdit::add_edge(GraphSide::Left, 3, 0), // new
            GraphEdit::remove_edge(GraphSide::Left, 3, 0), // cancels the add
            GraphEdit::remove_edge(GraphSide::Left, 1, 2), // real removal
            GraphEdit::relabel(GraphSide::Left, 0, "a"), // same label
            GraphEdit::relabel(GraphSide::Left, 1, "a"), // real relabel
            GraphEdit::add_edge(GraphSide::Right, 0, 2), // other side
        ];
        let d = net_side_delta(&g, GraphSide::Left, &edits);
        assert!(d.adds.is_empty());
        assert_eq!(d.removes, vec![(1, 2)]);
        assert_eq!(d.relabels.len(), 1);
        assert_eq!(d.relabels[0].0, 1);
        let d2 = net_side_delta(&g, GraphSide::Right, &edits);
        assert_eq!(d2.adds, vec![(0, 2)]);
    }

    #[test]
    fn later_edits_win_within_a_batch() {
        let g = g();
        let edits = [
            GraphEdit::remove_edge(GraphSide::Left, 0, 1),
            GraphEdit::add_edge(GraphSide::Left, 0, 1), // re-adds: net no-op
            GraphEdit::relabel(GraphSide::Left, 2, "c"),
            GraphEdit::relabel(GraphSide::Left, 2, "a"), // back to original
        ];
        let d = net_side_delta(&g, GraphSide::Left, &edits);
        assert!(d.is_empty());
    }

    #[test]
    fn out_of_range_nodes_are_rejected() {
        let g = g();
        let err = validate_side(
            &g,
            GraphSide::Left,
            &[GraphEdit::add_edge(GraphSide::Left, 0, 9)],
        )
        .unwrap_err();
        assert!(matches!(err, EditError::NodeOutOfRange { node: 9, .. }));
        let err = validate_side(
            &g,
            GraphSide::Left,
            &[GraphEdit::relabel(GraphSide::Left, 4, "x")],
        )
        .unwrap_err();
        assert!(matches!(err, EditError::NodeOutOfRange { node: 4, .. }));
        // A rejected batch must not have touched the shared interner.
        assert_eq!(g.interner().get("x"), None);
    }

    #[test]
    fn dirty_sets_stay_small_without_pruning() {
        let g_old = g();
        let g_new = g_old.with_edits(&[(3, 0)], &[], &[]);
        let delta = SideDelta {
            adds: vec![(3, 0)],
            removes: vec![],
            relabels: vec![],
        };
        let cfg = FsimConfig::new(Variant::Simple);
        let d = DirtyNodes::of(&delta, &g_old, &g_new, &cfg);
        // θ = 0, no pruning: only the endpoints are structurally dirty and
        // no membership re-enumeration is needed.
        assert_eq!(d.structural.len(), 2);
        assert!(d.structural.contains(&3) && d.structural.contains(&0));
        assert!(d.membership.is_empty());
        assert!(d.relabeled.is_empty());
    }

    #[test]
    fn alpha_pruning_widens_the_structural_set() {
        let g_old = g();
        let g_new = g_old.with_edits(&[(3, 0)], &[], &[]);
        let delta = SideDelta {
            adds: vec![(3, 0)],
            removes: vec![],
            relabels: vec![],
        };
        let cfg = FsimConfig::new(Variant::Simple).upper_bound(0.5, 0.3);
        let d = DirtyNodes::of(&delta, &g_old, &g_new, &cfg);
        assert!(d.membership.contains(&3) && d.membership.contains(&0));
        // Neighbors of the endpoints carry stale baked constants.
        assert!(d.structural.contains(&1), "N(0) must be structural");
    }
}
