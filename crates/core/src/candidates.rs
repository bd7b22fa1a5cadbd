//! Candidate-pair enumeration (Algorithm 1, Line 1) and the static upper
//! bound of §3.4.
//!
//! Three regimes:
//! * default (θ = 0, no pruning): all `|V1| × |V2|` pairs, dense index;
//! * θ-pruning: only pairs with `L(u, v) ≥ θ`, written row by row from one
//!   eligible row of right nodes per G1 label;
//! * upper-bound pruning: additionally drop pairs with `ub(u, v) ≤ β`,
//!   remembering `α·ub` for dropped pairs when `α > 0`.
//!
//! Every regime emits its pairs in store order, `(u, v)` ascending, so the
//! finished list is never sorted. Labels are read from the [`OpCtx`]'s
//! aligned arrays: G1 and G2 may carry separate interners, aligned by
//! label string when the session is built, and enumerate exactly as if
//! they shared one.

use crate::config::FsimConfig;
use crate::engine::parallel::Runtime;
use crate::operators::{OpCtx, Operator};
use crate::store::{Fallback, PairIndex, PairStore, RowIndex};
use fsim_graph::{pair_key, FxHashMap, Graph, NodeId};
use std::sync::Mutex;

/// Minimum candidate pairs per worker before bound evaluation parallelizes
/// (below this, dispatch overhead dominates the `O(1)` bound arithmetic).
const UB_PAR_GRAIN: usize = 4096;

/// The static upper bound of Equation 6:
/// `ub(u,v) = λ⁺ + λ⁻ + (1 − w⁺ − w⁻)·L(u,v)` with
/// `λˢ = wˢ·|Mχ|/Ωχ` (full weight when the neighbor condition is vacuous).
pub fn static_upper_bound<O: Operator>(
    g1: &Graph,
    g2: &Graph,
    ctx: &OpCtx<'_>,
    cfg: &FsimConfig,
    op: &O,
    u: NodeId,
    v: NodeId,
) -> f64 {
    let lambda = |s1: &[NodeId], s2: &[NodeId], w: f64| -> f64 {
        if op.vacuous(s1.len(), s2.len()) {
            return w;
        }
        let omega = op.omega(s1.len(), s2.len());
        if omega <= 0.0 {
            return 0.0;
        }
        w * op.map_size(ctx, s1, s2) as f64 / omega
    };
    let out = lambda(g1.out_neighbors(u), g2.out_neighbors(v), cfg.w_out);
    let inn = lambda(g1.in_neighbors(u), g2.in_neighbors(v), cfg.w_in);
    out + inn + cfg.w_label() * ctx.label_sim(u, v)
}

/// Enumerates the maintained candidate pairs for `cfg`, sequentially.
pub fn enumerate_candidates<O: Operator>(
    g1: &Graph,
    g2: &Graph,
    ctx: &OpCtx<'_>,
    cfg: &FsimConfig,
    op: &O,
) -> PairStore {
    enumerate_candidates_with(g1, g2, ctx, cfg, op, None)
}

/// [`enumerate_candidates`] with an optional session [`Runtime`]: when a
/// pool is supplied and the candidate base is large enough, the §3.4 bound
/// evaluation is chunked across its workers (bitwise identical to the
/// sequential path — chunks are merged in worker order and the α·ub map is
/// keyed, so chunking cannot reorder an observable).
pub(crate) fn enumerate_candidates_with<O: Operator>(
    g1: &Graph,
    g2: &Graph,
    ctx: &OpCtx<'_>,
    cfg: &FsimConfig,
    op: &O,
    rt: Option<&Runtime>,
) -> PairStore {
    // Both bases, and every filter of them below, are in `(u, v)` order.
    let base: Vec<(NodeId, NodeId)> = if cfg.theta > 0.0 {
        theta_candidates(ctx, cfg.theta)
    } else {
        (0..g1.node_count() as u32)
            .flat_map(|u| (0..g2.node_count() as u32).map(move |v| (u, v)))
            .collect()
    };

    match cfg.upper_bound {
        None => {
            let full = g1.node_count() * g2.node_count();
            if cfg.theta > 0.0 && base.len() < full {
                sparse_store(base, g1.node_count(), Fallback::Zero)
            } else {
                // θ = 0, or θ-filtering kept everything (e.g. a permissive
                // label function): the dense row-major index applies.
                PairStore {
                    pairs: base,
                    index: PairIndex::Dense {
                        n2: g2.node_count() as u32,
                    },
                    fallback: Fallback::Zero,
                }
            }
        }
        Some(ub_cfg) => {
            // The bound evaluation is embarrassingly parallel over the
            // candidate pairs; chunk it across the session's worker pool
            // when one is available and the base is big enough to pay for
            // the dispatch.
            type UbChunk = (Vec<(NodeId, NodeId)>, Vec<(u64, f32)>);
            let eval_slice = |slice: &[(NodeId, NodeId)]| -> UbChunk {
                let mut kept = Vec::new();
                let mut dropped = Vec::new();
                for &(u, v) in slice {
                    let ub = static_upper_bound(g1, g2, ctx, cfg, op, u, v);
                    if ub > ub_cfg.beta {
                        kept.push((u, v));
                    } else if ub_cfg.alpha > 0.0 {
                        dropped.push((pair_key(u, v), (ub_cfg.alpha * ub) as f32));
                    }
                }
                (kept, dropped)
            };
            let workers = rt
                .map(|r| r.threads())
                .unwrap_or(1)
                .min((base.len() / UB_PAR_GRAIN).max(1));
            let results: Vec<UbChunk> = if workers > 1 {
                let rt = rt.expect("workers > 1 implies a runtime");
                let chunk = base.len().div_ceil(workers).max(1);
                let slots: Vec<Mutex<UbChunk>> = base
                    .chunks(chunk)
                    .map(|_| Mutex::new((Vec::new(), Vec::new())))
                    .collect();
                rt.run(&|wid, _state| {
                    let start = wid * chunk;
                    if start < base.len() {
                        let slice = &base[start..(start + chunk).min(base.len())];
                        *slots[wid].lock().expect("ub slot") = eval_slice(slice);
                    }
                });
                slots
                    .into_iter()
                    .map(|s| s.into_inner().expect("ub slot"))
                    .collect()
            } else {
                vec![eval_slice(&base)]
            };
            let mut kept = Vec::new();
            let mut dropped: FxHashMap<u64, f32> = FxHashMap::default();
            for (k, d) in results {
                kept.extend(k);
                dropped.extend(d);
            }
            if cfg.theta <= 0.0 && kept.len() == g1.node_count() * g2.node_count() {
                // The bound pruned nothing: keep the dense fast path
                // instead of paying row searches for a full cross
                // product.
                return PairStore {
                    pairs: kept,
                    index: PairIndex::Dense {
                        n2: g2.node_count() as u32,
                    },
                    fallback: Fallback::AlphaUb(dropped),
                };
            }
            sparse_store(kept, g1.node_count(), Fallback::AlphaUb(dropped))
        }
    }
}

/// Upper bound on the number of pair-dependency entries the candidate set
/// would materialize (`Σ_{(u,v)∈H} d⁺(u)·d⁺(v) + d⁻(u)·d⁻(v)`, i.e. every
/// neighbor pair before θ-prefiltering). One `O(|H|)` pass over degree
/// arrays — used to decide whether the dependency CSR fits the configured
/// memory budget *without* paying the build.
pub fn estimated_dep_entries(g1: &Graph, g2: &Graph, store: &PairStore) -> u128 {
    let mut total: u128 = 0;
    for &(u, v) in &store.pairs {
        let out = g1.out_degree(u) as u128 * g2.out_degree(v) as u128;
        let inn = g1.in_degree(u) as u128 * g2.in_degree(v) as u128;
        total += out + inn;
    }
    total
}

/// Sentinel slot value in [`StoreRepair`] remap tables: removed / added.
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// The outcome of an incremental candidate-store repair: the repaired
/// store plus the slot remapping that lets store-lifetime caches (the
/// dependency CSR, label terms, score trajectories) carry surviving slots
/// over instead of being rebuilt.
#[derive(Debug)]
pub(crate) struct StoreRepair {
    /// The repaired store.
    pub store: PairStore,
    /// Old slot → new slot ([`NO_SLOT`] for removed pairs). Length = old
    /// pair count.
    pub old_to_new: Vec<u32>,
    /// New slot → old slot ([`NO_SLOT`] for added pairs). Length = new
    /// pair count.
    pub new_to_old: Vec<u32>,
    /// Pairs that left the maintained set.
    pub removed_pairs: Vec<(NodeId, NodeId)>,
    /// Pairs that entered the maintained set.
    pub added_pairs: Vec<(NodeId, NodeId)>,
}

impl StoreRepair {
    /// Whether the maintained pair set (and hence the slot numbering)
    /// survived the repair unchanged.
    pub fn membership_unchanged(&self) -> bool {
        self.removed_pairs.is_empty() && self.added_pairs.is_empty()
    }
}

/// Incrementally repairs a candidate store after a graph edit:
/// re-enumerates membership only for the *dirty region* — pairs `(u, v)`
/// with `u ∈ dirty_left` or `v ∈ dirty_right` — and carries every other
/// slot over unchanged. Under α-substituted pruning the fallback constants
/// of the dirty region are refreshed in place.
///
/// `g1` / `g2` / `ctx` must already reflect the edited graphs. The
/// resulting store resolves every pair exactly like a fresh
/// [`enumerate_candidates`] on the edited graphs (the index representation
/// may differ — e.g. a dense store that loses pairs becomes sparse — but
/// pair order, scores and fallback semantics are identical).
#[allow(clippy::too_many_arguments)]
pub(crate) fn repair_candidates<O: Operator>(
    g1: &Graph,
    g2: &Graph,
    ctx: &OpCtx<'_>,
    cfg: &FsimConfig,
    op: &O,
    old: PairStore,
    dirty_left: &fsim_graph::FxHashSet<NodeId>,
    dirty_right: &fsim_graph::FxHashSet<NodeId>,
) -> StoreRepair {
    let old_len = old.len();
    if dirty_left.is_empty() && dirty_right.is_empty() {
        return StoreRepair {
            old_to_new: (0..old_len as u32).collect(),
            new_to_old: (0..old_len as u32).collect(),
            removed_pairs: Vec::new(),
            added_pairs: Vec::new(),
            store: old,
        };
    }
    let (n1, n2) = (g1.node_count() as u32, g2.node_count() as u32);
    // Re-enumerate the dirty region with exactly the predicate of
    // `enumerate_candidates`: the θ base filter, then the upper bound.
    let mut desired: Vec<(NodeId, NodeId)> = Vec::new();
    let mut dropped_new: Vec<(u64, f32)> = Vec::new();
    {
        let mut eval = |u: NodeId, v: NodeId| {
            if cfg.theta > 0.0 && ctx.label_sim(u, v) < cfg.theta {
                return;
            }
            match cfg.upper_bound {
                None => desired.push((u, v)),
                Some(ub_cfg) => {
                    let ub = static_upper_bound(g1, g2, ctx, cfg, op, u, v);
                    if ub > ub_cfg.beta {
                        desired.push((u, v));
                    } else if ub_cfg.alpha > 0.0 {
                        dropped_new.push((pair_key(u, v), (ub_cfg.alpha * ub) as f32));
                    }
                }
            }
        };
        for &u in dirty_left {
            for v in 0..n2 {
                eval(u, v);
            }
        }
        for &v in dirty_right {
            for u in 0..n1 {
                if !dirty_left.contains(&u) {
                    eval(u, v);
                }
            }
        }
    }
    desired.sort_unstable();

    // Merge: surviving clean pairs (ordered, with their old slots) with the
    // re-enumerated dirty region (old slot recovered via the old index).
    let in_region =
        |&(u, v): &(NodeId, NodeId)| dirty_left.contains(&u) || dirty_right.contains(&v);
    let mut new_pairs: Vec<(NodeId, NodeId)> = Vec::with_capacity(old_len);
    let mut new_to_old: Vec<u32> = Vec::with_capacity(old_len);
    let mut old_to_new: Vec<u32> = vec![NO_SLOT; old_len];
    let mut removed_pairs: Vec<(NodeId, NodeId)> = Vec::new();
    let mut added_pairs: Vec<(NodeId, NodeId)> = Vec::new();
    {
        let mut clean = old
            .pairs
            .iter()
            .enumerate()
            .filter(|(_, p)| !in_region(p))
            .map(|(i, &p)| (p, i as u32))
            .peekable();
        let mut dirty = desired.iter().copied().peekable();
        loop {
            let take_clean = match (clean.peek(), dirty.peek()) {
                (Some(&(cp, _)), Some(&dp)) => cp < dp,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_clean {
                let (p, old_slot) = clean.next().unwrap();
                old_to_new[old_slot as usize] = new_pairs.len() as u32;
                new_to_old.push(old_slot);
                new_pairs.push(p);
            } else {
                let (u, v) = dirty.next().unwrap();
                match old.index.get(u, v) {
                    Some(old_slot) if old_slot < old_len => {
                        old_to_new[old_slot] = new_pairs.len() as u32;
                        new_to_old.push(old_slot as u32);
                    }
                    _ => {
                        added_pairs.push((u, v));
                        new_to_old.push(NO_SLOT);
                    }
                }
                new_pairs.push((u, v));
            }
        }
    }
    for (old_slot, &mapped) in old_to_new.iter().enumerate() {
        if mapped == NO_SLOT {
            removed_pairs.push(old.pairs[old_slot]);
        }
    }

    // Refresh the α·ub constants of the dirty region (the bound values of
    // clean pairs are untouched by construction of the dirty sets).
    let fallback = match old.fallback {
        Fallback::Zero => Fallback::Zero,
        Fallback::AlphaUb(mut map) => {
            for &u in dirty_left {
                for v in 0..n2 {
                    map.remove(&pair_key(u, v));
                }
            }
            for &v in dirty_right {
                for u in 0..n1 {
                    if !dirty_left.contains(&u) {
                        map.remove(&pair_key(u, v));
                    }
                }
            }
            map.extend(dropped_new);
            Fallback::AlphaUb(map)
        }
    };

    let index = if removed_pairs.is_empty() && added_pairs.is_empty() {
        old.index // slot numbering survived
    } else {
        // The merge emits pairs in (u, v) order.
        PairIndex::Sparse(RowIndex::from_sorted(&new_pairs, g1.node_count()))
    };

    StoreRepair {
        store: PairStore {
            pairs: new_pairs,
            index,
            fallback,
        },
        old_to_new,
        new_to_old,
        removed_pairs,
        added_pairs,
    }
}

fn sparse_store(pairs: Vec<(NodeId, NodeId)>, n1: usize, fallback: Fallback) -> PairStore {
    PairStore {
        index: PairIndex::Sparse(RowIndex::from_sorted(&pairs, n1)),
        pairs,
        fallback,
    }
}

/// Pairs with `L(ℓ1(u), ℓ2(v)) ≥ θ`, already in `(u, v)` order.
///
/// Reads the session-aligned labels (`ctx.labels1` / `ctx.labels2`), so
/// graphs on separate interners enumerate exactly like graphs on one. Each
/// G1 label's *eligible row* — the ascending union of the right nodes of
/// every G2 label `l2` with `L(l1, l2) ≥ θ` — is derived once, by the
/// first left node with that label, and every later one copies it. Beside
/// the `|Σ1|·|Σ2|` label comparisons the cost is the output's, up to a
/// `log` factor for the `|Σ1|` rows merged by sorting.
fn theta_candidates(ctx: &OpCtx<'_>, theta: f64) -> Vec<(NodeId, NodeId)> {
    let (labels1, labels2) = (ctx.labels1, ctx.labels2);
    let label_count = labels1
        .iter()
        .chain(labels2)
        .map(|l| l.index() + 1)
        .max()
        .unwrap_or(0);

    // G2's nodes grouped by label (a counting sort): label `l` owns
    // `by_label2[start2[l] .. start2[l + 1]]`.
    let mut start2 = vec![0u32; label_count + 1];
    let mut used2 = Vec::new();
    for &l in labels2 {
        let members = &mut start2[l.index() + 1];
        if *members == 0 {
            used2.push(l);
        }
        *members += 1;
    }
    for l in 0..label_count {
        start2[l + 1] += start2[l];
    }
    let mut fill = start2.clone();
    let mut by_label2 = vec![0 as NodeId; labels2.len()];
    for (v, l) in (0..).zip(labels2) {
        by_label2[fill[l.index()] as usize] = v;
        fill[l.index()] += 1;
    }

    // The store, row by row. The first left node of each label derives its
    // row; later ones copy that row of the store. Each bucket is ascending
    // and the buckets are disjoint, so a single eligible bucket is the row
    // as it stands and several are merged by sorting the row.
    //
    // The list is grown by `push` on purpose: its doubling capacity
    // decides which later `|H|`-sized buffers glibc serves from reused
    // heap pages (an exactly sized list was measured slower at the first
    // run), and no other buffer here grows with `|H|`.
    let mut row_of: Vec<Option<(usize, usize)>> = vec![None; label_count];
    let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
    for (u, &l1) in (0..).zip(labels1) {
        let start = pairs.len();
        if let Some((from, to)) = row_of[l1.index()] {
            for i in from..to {
                let v = pairs[i].1;
                pairs.push((u, v));
            }
            continue;
        }
        let eligible = used2
            .iter()
            .filter(|&&l2| ctx.label_eval.sim(l1, l2) >= theta);
        let mut buckets = 0;
        for l2 in eligible {
            let bucket = &by_label2[start2[l2.index()] as usize..start2[l2.index() + 1] as usize];
            for &v in bucket {
                pairs.push((u, v));
            }
            buckets += 1;
        }
        if buckets > 1 {
            pairs[start..].sort_unstable();
        }
        row_of[l1.index()] = Some((start, pairs.len()));
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FsimConfig, Variant};
    use crate::operators::{LabelEval, VariantOp};
    use crate::store::PairRef;
    use fsim_graph::{GraphBuilder, LabelInterner};
    use fsim_labels::LabelFn;
    use std::sync::Arc;

    fn two_graphs() -> (Graph, Graph) {
        let i = LabelInterner::shared();
        let mut b1 = GraphBuilder::with_interner(Arc::clone(&i));
        let a = b1.add_node("A");
        let b = b1.add_node("B");
        b1.add_edge(a, b);
        let mut b2 = GraphBuilder::with_interner(i);
        let x = b2.add_node("A");
        let y = b2.add_node("B");
        let z = b2.add_node("C");
        b2.add_edge(x, y);
        b2.add_edge(x, z);
        (b1.build(), b2.build())
    }

    fn ctx<'a>(g1: &'a Graph, g2: &'a Graph, eval: &'a LabelEval, theta: f64) -> OpCtx<'a> {
        OpCtx {
            labels1: g1.labels(),
            labels2: g2.labels(),
            label_eval: eval,
            theta,
        }
    }

    #[test]
    fn default_enumeration_is_dense_cross_product() {
        let (g1, g2) = two_graphs();
        let eval = LabelEval::Sim(LabelFn::Indicator.prepare(g1.interner()));
        let cfg = FsimConfig::new(Variant::Simple);
        let c = ctx(&g1, &g2, &eval, cfg.theta);
        let op = VariantOp::new(Variant::Simple);
        let store = enumerate_candidates(&g1, &g2, &c, &cfg, &op);
        assert_eq!(store.len(), 6);
        assert!(matches!(store.index, PairIndex::Dense { .. }));
    }

    #[test]
    fn theta_one_keeps_same_label_pairs_only() {
        let (g1, g2) = two_graphs();
        let eval = LabelEval::Sim(LabelFn::Indicator.prepare(g1.interner()));
        let cfg = FsimConfig::new(Variant::Simple).theta(1.0);
        let c = ctx(&g1, &g2, &eval, cfg.theta);
        let op = VariantOp::new(Variant::Simple);
        let store = enumerate_candidates(&g1, &g2, &c, &cfg, &op);
        // A–A and B–B only.
        assert_eq!(store.pairs, vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn upper_bound_is_a_valid_bound_at_one_for_equal_pairs() {
        let (g1, _) = two_graphs();
        let eval = LabelEval::Sim(LabelFn::Indicator.prepare(g1.interner()));
        let cfg = FsimConfig::new(Variant::Simple);
        let c = ctx(&g1, &g1, &eval, cfg.theta);
        let op = VariantOp::new(Variant::Simple);
        // A node compared to itself must have ub = 1.
        for u in g1.nodes() {
            let ub = static_upper_bound(&g1, &g1, &c, &cfg, &op, u, u);
            assert!((ub - 1.0).abs() < 1e-9, "ub({u},{u}) = {ub}");
        }
    }

    #[test]
    fn beta_pruning_drops_low_bound_pairs() {
        let (g1, g2) = two_graphs();
        let eval = LabelEval::Sim(LabelFn::Indicator.prepare(g1.interner()));
        let cfg = FsimConfig::new(Variant::Simple).upper_bound(0.2, 0.99);
        let c = ctx(&g1, &g2, &eval, cfg.theta);
        let op = VariantOp::new(Variant::Simple);
        let store = enumerate_candidates(&g1, &g2, &c, &cfg, &op);
        assert!(store.len() < 6, "beta=0.99 should prune something");
        match &store.fallback {
            Fallback::AlphaUb(map) => {
                assert_eq!(
                    map.len() + store.len(),
                    6,
                    "alpha>0 stores every dropped pair"
                )
            }
            Fallback::Zero => panic!("expected AlphaUb fallback"),
        }
    }

    #[test]
    fn repair_matches_fresh_enumeration_after_relabel() {
        use fsim_graph::FxHashSet;
        let (g1, g2) = two_graphs();
        let eval = LabelEval::Sim(LabelFn::Indicator.prepare(g1.interner()));
        let cfg = FsimConfig::new(Variant::Simple).theta(1.0);
        let c = ctx(&g1, &g2, &eval, cfg.theta);
        let op = VariantOp::new(Variant::Simple);
        let old = enumerate_candidates(&g1, &g2, &c, &cfg, &op);
        // Relabel node 2 of g2 from "C" to "A": row membership of column 2
        // changes (pairs (u, 2) with label A become eligible).
        let a_id = g2.interner().get("A").unwrap();
        let g2_new = g2.with_edits(&[], &[], &[(2, a_id)]);
        let c_new = ctx(&g1, &g2_new, &eval, cfg.theta);
        let dirty_right: FxHashSet<u32> = [2u32].into_iter().collect();
        let repair = repair_candidates(
            &g1,
            &g2_new,
            &c_new,
            &cfg,
            &op,
            old,
            &FxHashSet::default(),
            &dirty_right,
        );
        let fresh = enumerate_candidates(&g1, &g2_new, &c_new, &cfg, &op);
        assert_eq!(repair.store.pairs, fresh.pairs);
        assert_eq!(repair.added_pairs, vec![(0, 2)]);
        assert!(repair.removed_pairs.is_empty());
        // Surviving slots map consistently.
        for (old_slot, &new_slot) in repair.old_to_new.iter().enumerate() {
            assert_ne!(new_slot, NO_SLOT);
            assert_eq!(repair.new_to_old[new_slot as usize] as usize, old_slot);
        }
    }

    #[test]
    fn empty_dirty_sets_are_identity() {
        use fsim_graph::FxHashSet;
        let (g1, g2) = two_graphs();
        let eval = LabelEval::Sim(LabelFn::Indicator.prepare(g1.interner()));
        let cfg = FsimConfig::new(Variant::Simple);
        let c = ctx(&g1, &g2, &eval, cfg.theta);
        let op = VariantOp::new(Variant::Simple);
        let old = enumerate_candidates(&g1, &g2, &c, &cfg, &op);
        let pairs_before = old.pairs.clone();
        let repair = repair_candidates(
            &g1,
            &g2,
            &c,
            &cfg,
            &op,
            old,
            &FxHashSet::default(),
            &FxHashSet::default(),
        );
        assert!(repair.membership_unchanged());
        assert_eq!(repair.store.pairs, pairs_before);
        assert!(repair
            .old_to_new
            .iter()
            .enumerate()
            .all(|(i, &m)| m == i as u32));
    }

    /// A seeded xorshift generator: the engine crate has no RNG
    /// dependency, and these tests need only reproducible variety.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    /// Close and distant strings, so every label function and θ keeps a
    /// different share of the label pairs.
    const VOCAB: [&str; 7] = [
        "alpha", "alpine", "beta", "betta", "gamma", "gamut", "delta",
    ];

    /// A random graph of `n` nodes over a random part of [`VOCAB`], on
    /// `interner` after interning the whole vocabulary into it in a random
    /// order (so two graphs on separate interners disagree on most label
    /// ids).
    fn random_graph(rng: &mut Rng, interner: Arc<LabelInterner>, n: usize) -> Graph {
        let mut order = VOCAB.to_vec();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        for l in &order {
            interner.intern(l);
        }
        let vocab = &order[..1 + rng.below(order.len())];
        let mut b = GraphBuilder::with_interner(interner);
        for _ in 0..n {
            b.add_node(vocab[rng.below(vocab.len())]);
        }
        for _ in 0..2 * n {
            b.add_edge(rng.below(n) as NodeId, rng.below(n) as NodeId);
        }
        b.build()
    }

    /// Random pairs on one interner and on two separately permuted ones.
    fn random_pairs() -> Vec<(Graph, Graph)> {
        let mut rng = Rng(0x00DD_BA11_5EED);
        (0..24)
            .map(|k| {
                let (n1, n2) = (1 + rng.below(14), 1 + rng.below(14));
                let (i1, i2) = if k % 3 == 0 {
                    let shared = LabelInterner::shared();
                    (Arc::clone(&shared), shared)
                } else {
                    (LabelInterner::shared(), LabelInterner::shared())
                };
                let g1 = random_graph(&mut rng, i1, n1);
                (g1, random_graph(&mut rng, i2, n2))
            })
            .collect()
    }

    /// Enumerates `cfg`'s store through the session's label alignment,
    /// and checks it against `expected` (pairs in `(u, v)` order, plus
    /// the `α·ub` constants of dropped pairs): pair for pair, and by
    /// [`PairStore::resolve`] on every pair of `V1 × V2`.
    fn assert_store(
        g1: &Graph,
        g2: &Graph,
        cfg: &FsimConfig,
        expected: impl Fn(&OpCtx<'_>) -> (Vec<(NodeId, NodeId)>, FxHashMap<u64, f32>),
    ) {
        let aligned = crate::engine::session::AlignedLabels::new(g1, g2);
        let eval = crate::engine::session::build_label_eval(cfg, &aligned.interner);
        let c = OpCtx {
            labels1: &aligned.labels1,
            labels2: &aligned.labels2,
            label_eval: &eval,
            theta: cfg.theta,
        };
        let op = VariantOp::new(cfg.variant);
        let store = enumerate_candidates(g1, g2, &c, cfg, &op);
        let (pairs, dropped) = expected(&c);
        assert_eq!(store.pairs, pairs, "{cfg:?}");
        if let Fallback::AlphaUb(map) = &store.fallback {
            assert_eq!(*map, dropped, "{cfg:?}");
        } else {
            assert!(cfg.upper_bound.is_none(), "{cfg:?}");
        }
        for u in g1.nodes() {
            for v in g2.nodes() {
                let want = match pairs.binary_search(&(u, v)) {
                    Ok(slot) => PairRef::Slot(slot),
                    Err(_) => {
                        PairRef::Absent(dropped.get(&pair_key(u, v)).map_or(0.0, |&c| c as f64))
                    }
                };
                assert_eq!(store.resolve(u, v), want, "({u}, {v}) under {cfg:?}");
            }
        }
    }

    #[test]
    fn theta_enumeration_is_the_ordered_brute_force_filter() {
        for (g1, g2) in random_pairs() {
            for label_fn in [
                LabelFn::Indicator,
                LabelFn::EditDistance,
                LabelFn::JaroWinkler,
            ] {
                let sim = label_fn.as_sim();
                for theta in [0.3, 0.6, 0.9, 1.0] {
                    let cfg = FsimConfig::new(Variant::Simple)
                        .label_fn(label_fn.clone())
                        .theta(theta);
                    // The filter reads the label strings, not any interner.
                    assert_store(&g1, &g2, &cfg, |_| {
                        let pairs = g1
                            .nodes()
                            .flat_map(|u| g2.nodes().map(move |v| (u, v)))
                            .filter(|&(u, v)| sim.sim(&g1.label_str(u), &g2.label_str(v)) >= theta)
                            .collect();
                        (pairs, FxHashMap::default())
                    });
                }
            }
        }
    }

    #[test]
    fn upper_bound_enumeration_is_the_ordered_brute_force_filter() {
        for (g1, g2) in random_pairs() {
            for (theta, alpha, beta) in [(0.0, 0.0, 0.5), (0.0, 0.4, 0.7), (0.6, 0.3, 0.6)] {
                let cfg = FsimConfig::new(Variant::Simple)
                    .label_fn(LabelFn::JaroWinkler)
                    .theta(theta)
                    .upper_bound(alpha, beta);
                let op = VariantOp::new(cfg.variant);
                assert_store(&g1, &g2, &cfg, |c| {
                    let (mut kept, mut dropped) = (Vec::new(), FxHashMap::default());
                    for u in g1.nodes() {
                        for v in g2.nodes() {
                            if theta > 0.0 && c.label_sim(u, v) < theta {
                                continue;
                            }
                            let ub = static_upper_bound(&g1, &g2, c, &cfg, &op, u, v);
                            if ub > beta {
                                kept.push((u, v));
                            } else if alpha > 0.0 {
                                dropped.insert(pair_key(u, v), (alpha * ub) as f32);
                            }
                        }
                    }
                    (kept, dropped)
                });
            }
        }
    }

    #[test]
    fn alpha_zero_stores_nothing_for_dropped() {
        let (g1, g2) = two_graphs();
        let eval = LabelEval::Sim(LabelFn::Indicator.prepare(g1.interner()));
        let cfg = FsimConfig::new(Variant::Simple).upper_bound(0.0, 0.99);
        let c = ctx(&g1, &g2, &eval, cfg.theta);
        let op = VariantOp::new(Variant::Simple);
        let store = enumerate_candidates(&g1, &g2, &c, &cfg, &op);
        match &store.fallback {
            Fallback::AlphaUb(map) => assert!(map.is_empty()),
            Fallback::Zero => panic!("expected AlphaUb fallback"),
        }
    }
}
