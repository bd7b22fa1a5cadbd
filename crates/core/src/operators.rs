//! Mapping (`Mχ`) and normalizing (`Ωχ`) operators — Equation 2 and
//! Table 3 of the paper.
//!
//! Each operator computes, for two neighbor sets `S1 ⊆ V1` and `S2 ⊆ V2`,
//! the *maximum mapping* sum `Σ_{(x,y)∈Mχ} FSim^{k−1}(x, y)` (condition C3
//! of Theorem 1), the score-independent mapping size `|Mχ|` (conditions
//! C1/C2, also used by the static upper bound of §3.4), and the normalizer
//! `Ωχ`.
//!
//! The label constraint of Remark 2 (`L(x, y) ≥ θ` for every mapped pair) is
//! enforced inside every operator via [`OpCtx::eligible`].

use crate::config::{MatcherKind, Variant};
use fsim_graph::{LabelId, NodeId};
use fsim_labels::PreparedLabelSim;
use fsim_matching::{hungarian_max_weight, GreedyMatcher};

/// Label-term evaluation resolved for the engine hot loop.
#[derive(Debug, Clone)]
pub enum LabelEval {
    /// Look up the prepared similarity of the two interned labels.
    Sim(PreparedLabelSim),
    /// Constant for every pair (SimRank: 0, RoleSim: 1).
    Constant(f64),
}

impl LabelEval {
    /// `L` applied to two label ids.
    #[inline]
    pub fn sim(&self, a: LabelId, b: LabelId) -> f64 {
        match self {
            LabelEval::Sim(p) => p.sim(a, b),
            LabelEval::Constant(c) => *c,
        }
    }
}

/// Evaluation context shared by operators: node labels of both graphs, the
/// label function, and θ.
pub struct OpCtx<'a> {
    /// Node labels of `G1`.
    pub labels1: &'a [LabelId],
    /// Node labels of `G2`.
    pub labels2: &'a [LabelId],
    /// The label function.
    pub label_eval: &'a LabelEval,
    /// Mapping threshold θ.
    pub theta: f64,
}

impl<'a> OpCtx<'a> {
    /// `L(ℓ1(x), ℓ2(y))`.
    #[inline]
    pub fn label_sim(&self, x: NodeId, y: NodeId) -> f64 {
        self.label_eval
            .sim(self.labels1[x as usize], self.labels2[y as usize])
    }

    /// The Remark-2 constraint: may `x` be mapped to `y`?
    #[inline]
    pub fn eligible(&self, x: NodeId, y: NodeId) -> bool {
        self.label_sim(x, y) >= self.theta
    }
}

/// Read-only access to the previous iteration's scores, including the
/// configured fallback for non-maintained pairs (0 under θ-pruning,
/// `α·ub` under upper-bound pruning).
pub trait ScoreLookup {
    /// `FSim^{k−1}(x, y)`.
    fn get(&self, x: NodeId, y: NodeId) -> f64;
}

/// One prepared dependency of a pair's Equation-3 update: neighbor pair
/// `(x, y)` with `x` at position `i` of `S1` and `y` at position `j` of
/// `S2`, resolved at session-prepare time to either the slot holding its
/// score or (for pairs pruned from the maintained set) the constant the
/// fallback serves. Lists are θ-eligibility prefiltered and grouped by
/// `i` in ascending order; within each `i` group, slot-backed entries come
/// first in `j` order with constant entries appended at the group's tail
/// (for `all_pairs` operators the group keeps plain `(i, j)` order — see
/// `deps.rs`). The slot-based operator paths are therefore pure index
/// arithmetic — no `PairIndex` lookups or `L(x, y) ≥ θ` re-checks per
/// iteration.
///
/// Pairs whose fallback constant is `0` are omitted entirely: a zero can
/// neither win a max, enter a positive-weight matching, nor change a sum.
// `repr(C)` pins the field order and (with four 4-byte fields) a
// padding-free 16-byte layout, matching the spill wire format so a
// retained spill mapping can reborrow entry columns in place on
// little-endian targets (`deps::MappedShardCsr`).
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C)]
pub struct DepEntry {
    /// Position of `x` within `S1`.
    pub i: u32,
    /// Position of `y` within `S2`.
    pub j: u32,
    /// Score-buffer slot of `(x, y)`, or [`DepEntry::CONST`].
    pub slot: u32,
    /// The fallback constant, read when `slot == CONST`.
    pub cval: f32,
}

impl DepEntry {
    /// Sentinel slot marking a constant (non-maintained) dependency.
    pub const CONST: u32 = u32::MAX;

    /// The dependency's value under the previous iteration's scores.
    #[inline]
    pub fn value(&self, prev: &[f64]) -> f64 {
        if self.slot == Self::CONST {
            self.cval as f64
        } else {
            prev[self.slot as usize]
        }
    }
}

/// Reusable per-worker scratch buffers for the slot kernels and the
/// injective operators. Owned by the session runtime's workers (one per
/// worker thread, surviving across iterations, runs and shard visits —
/// see `engine/parallel.rs`) and by every sequential evaluation loop.
#[derive(Debug, Default)]
pub struct OpScratch {
    edges: Vec<(f64, u32, u32)>,
    weights: Vec<f64>,
    best_right: Vec<f64>,
    /// Gathered dependency values (the vectorized kernels' SoA staging
    /// buffer: one `f64` per [`DepEntry`], materialized branch-free).
    vals: Vec<f64>,
    matcher: GreedyMatcher,
    /// Row maxima filled lazily during a sparse step, by row key (see
    /// `engine/rows.rs`); valid where `row_token` holds the step's token.
    pub(crate) row_max: Vec<f64>,
    /// The step token each `row_max` entry was filled under.
    pub(crate) row_token: Vec<u64>,
}

impl OpScratch {
    /// Fresh scratch space.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A χ-simulation operator pair `(Mχ, Ωχ)`.
///
/// Implementations must satisfy the Theorem-1 conditions: `map_size` and
/// `omega` are independent of iteration state (C1), `map_size ≤ omega`
/// whenever not vacuous (C2), and `map_sum` realizes the *maximum* mapping
/// (C3) — exactly for `s`/`b`, greedily (the paper's approximation) for
/// `dp`/`bj`.
///
/// Built-in operators: [`VariantOp`] (the paper's four variants) and
/// [`SimRankOp`] (the §4.3 SimRank configuration). Custom operators plug
/// into the one-shot and session entry points:
///
/// ```
/// use fsim_core::{compute_with_operator, simrank_via_framework, SimRankOp};
/// use fsim_core::presets::simrank_config;
/// use fsim_graph::graph_from_parts;
///
/// let g = graph_from_parts(&["x", "y", "x"], &[(1, 0), (1, 2)]);
/// let result = compute_with_operator(&g, &g, &simrank_config(0.6, 1e-4), &SimRankOp).unwrap();
/// // Nodes 0 and 2 share their only in-neighbor: SimRank(0,2) = C.
/// assert!((result.get(0, 2).unwrap() - 0.6).abs() < 1e-9);
/// ```
pub trait Operator: Send + Sync {
    /// Re-derives any configuration-dependent state after an
    /// [`FsimEngine::rerun`](crate::engine::FsimEngine::rerun)
    /// reconfiguration (e.g. [`VariantOp`] picks up a changed variant or
    /// matcher). Operators without configuration state keep the default
    /// no-op.
    fn sync_cfg(&mut self, _cfg: &crate::config::FsimConfig) {}

    /// Maximum-mapping sum `Σ_{(x,y)∈Mχ(S1,S2)} prev(x, y)` over raw
    /// neighbor sets: the one-off Equation-3 step that scores a pair the
    /// store does not maintain ([`FsimEngine::score`](crate::FsimEngine::score)).
    fn map_sum<S: ScoreLookup>(
        &self,
        ctx: &OpCtx<'_>,
        s1: &[NodeId],
        s2: &[NodeId],
        prev: &S,
        scratch: &mut OpScratch,
    ) -> f64;

    /// Whether the prepared dependency lists must also contain pairs that
    /// fail the Remark-2 eligibility constraint `L(x, y) ≥ θ`
    /// ([`SimRankOp`] reads *every* neighbor pair, eligible or not).
    fn reads_ineligible_pairs(&self) -> bool {
        false
    }

    /// Whether a run of constant entries inside one `i` group of a
    /// prepared dependency list may be folded into a single entry holding
    /// their maximum at CSR build time. Only sound for operators whose
    /// per-group reduction is a plain max (a max over an `f32`-exact
    /// constant run is order-insensitive and loses nothing) — answer
    /// `false` (the default) whenever individual constants carry weight,
    /// e.g. for sums, column-wise reductions, or injective matchings
    /// where each entry is a candidate edge.
    fn fold_const_rows(&self) -> bool {
        false
    }

    /// Whether [`map_sum_slots`](Self::map_sum_slots) is the sum, over the
    /// `i` groups of a prepared list in ascending `i` order, of each
    /// group's maximum entry value (from `+0.0`), and
    /// [`term_slots`](Self::term_slots) is the default composition with
    /// [`vacuous`](Self::vacuous) and [`omega`](Self::omega) — the `fs`
    /// mapping of Eq. 7. A group's maximum then depends only on its row
    /// key `(x, v, direction)`, so the engine computes each key's maximum
    /// once per iteration and shares it between every slot that reads
    /// the row, with bitwise-identical results. Answer `false` (the
    /// default) unless both halves hold exactly; this is a stronger
    /// contract than [`fold_const_rows`](Self::fold_const_rows), which
    /// only says each group is reduced by a max.
    fn sums_row_maxima(&self) -> bool {
        false
    }

    /// [`map_sum`](Self::map_sum) evaluated from a prepared dependency
    /// list (θ-prefiltered, `(i, j)`-sorted — see [`DepEntry`]) instead of
    /// raw neighbor sets: the form every convergence loop evaluates. It
    /// must realize the same mapping as `map_sum` under the same previous
    /// scores (`tests/oracle.rs` checks the built-in operators against a
    /// dense reference of Equations 2–3).
    fn map_sum_slots(
        &self,
        entries: &[DepEntry],
        len1: usize,
        len2: usize,
        prev: &[f64],
        scratch: &mut OpScratch,
    ) -> f64;

    /// The neighbor term of Equation 2 over a prepared dependency list —
    /// [`term`](Self::term) with `map_sum` replaced by
    /// [`map_sum_slots`](Self::map_sum_slots); `len1` / `len2` are the
    /// original neighbor-set sizes (they drive `Ωχ` and vacuity).
    fn term_slots(
        &self,
        entries: &[DepEntry],
        len1: usize,
        len2: usize,
        prev: &[f64],
        scratch: &mut OpScratch,
    ) -> f64 {
        if self.vacuous(len1, len2) {
            return 1.0;
        }
        let omega = self.omega(len1, len2);
        if omega <= 0.0 {
            return 0.0;
        }
        self.map_sum_slots(entries, len1, len2, prev, scratch) / omega
    }

    /// Score-independent upper bound on `|Mχ(S1, S2)|` (exact for `s`/`b`).
    fn map_size(&self, ctx: &OpCtx<'_>, s1: &[NodeId], s2: &[NodeId]) -> usize;

    /// `Ωχ(S1, S2)` as a function of the set sizes.
    fn omega(&self, len1: usize, len2: usize) -> f64;

    /// Whether the underlying exact condition is *vacuously satisfied* for
    /// these sizes (the term then contributes its full weight: the
    /// empty-set convention of Equation 2).
    fn vacuous(&self, len1: usize, len2: usize) -> bool;

    /// The neighbor term of Equation 2 with the empty-set convention
    /// applied.
    fn term<S: ScoreLookup>(
        &self,
        ctx: &OpCtx<'_>,
        s1: &[NodeId],
        s2: &[NodeId],
        prev: &S,
        scratch: &mut OpScratch,
    ) -> f64 {
        if self.vacuous(s1.len(), s2.len()) {
            return 1.0;
        }
        let omega = self.omega(s1.len(), s2.len());
        if omega <= 0.0 {
            return 0.0;
        }
        self.map_sum(ctx, s1, s2, prev, scratch) / omega
    }
}

/// `Σ_{x∈S1} max_{y∈S2, eligible} prev(x, y)` — the `fs` mapping of Eq. 7.
fn sum_best_per_left<S: ScoreLookup>(
    ctx: &OpCtx<'_>,
    s1: &[NodeId],
    s2: &[NodeId],
    prev: &S,
) -> f64 {
    let mut total = 0.0;
    for &x in s1 {
        let mut best = 0.0f64;
        for &y in s2 {
            if ctx.eligible(x, y) {
                let s = prev.get(x, y);
                if s > best {
                    best = s;
                }
            }
        }
        total += best;
    }
    total
}

/// `Σ_{y∈S2} max_{x∈S1, eligible} prev(x, y)` — the converse direction of
/// the `fb` mapping (scores stay oriented `G1 → G2`).
fn sum_best_per_right<S: ScoreLookup>(
    ctx: &OpCtx<'_>,
    s1: &[NodeId],
    s2: &[NodeId],
    prev: &S,
) -> f64 {
    let mut total = 0.0;
    for &y in s2 {
        let mut best = 0.0f64;
        for &x in s1 {
            if ctx.eligible(x, y) {
                let s = prev.get(x, y);
                if s > best {
                    best = s;
                }
            }
        }
        total += best;
    }
    total
}

fn count_left_with_eligible(ctx: &OpCtx<'_>, s1: &[NodeId], s2: &[NodeId]) -> usize {
    s1.iter()
        .filter(|&&x| s2.iter().any(|&y| ctx.eligible(x, y)))
        .count()
}

fn count_right_with_eligible(ctx: &OpCtx<'_>, s1: &[NodeId], s2: &[NodeId]) -> usize {
    s2.iter()
        .filter(|&&y| s1.iter().any(|&x| ctx.eligible(x, y)))
        .count()
}

/// Maximum-weight injective mapping sum between `S1` and `S2`
/// (used by both `M_dp` and `M_bj`; they differ only in `Ω` and vacuity).
fn injective_sum<S: ScoreLookup>(
    ctx: &OpCtx<'_>,
    s1: &[NodeId],
    s2: &[NodeId],
    prev: &S,
    scratch: &mut OpScratch,
    matcher: MatcherKind,
) -> f64 {
    if s1.is_empty() || s2.is_empty() {
        return 0.0;
    }
    match matcher {
        MatcherKind::Greedy => {
            scratch.edges.clear();
            for (i, &x) in s1.iter().enumerate() {
                for (j, &y) in s2.iter().enumerate() {
                    if ctx.eligible(x, y) {
                        let w = prev.get(x, y);
                        if w > 0.0 {
                            scratch.edges.push((w, i as u32, j as u32));
                        }
                    }
                }
            }
            let (sum, _) = scratch.matcher.assign(s1.len(), s2.len(), &scratch.edges);
            sum
        }
        MatcherKind::Hungarian => {
            // Orient so rows are the smaller side; ineligible pairs weigh 0
            // (they may be "assigned" but contribute nothing).
            let (rows, cols, transposed) = if s1.len() <= s2.len() {
                (s1, s2, false)
            } else {
                (s2, s1, true)
            };
            scratch.weights.clear();
            scratch.weights.resize(rows.len() * cols.len(), 0.0);
            for (i, &r) in rows.iter().enumerate() {
                for (j, &c) in cols.iter().enumerate() {
                    let (x, y) = if transposed { (c, r) } else { (r, c) };
                    if ctx.eligible(x, y) {
                        scratch.weights[i * cols.len() + j] = prev.get(x, y);
                    }
                }
            }
            let (sum, _) = hungarian_max_weight(rows.len(), cols.len(), &scratch.weights);
            sum
        }
    }
}

/// `max(+0.0, max_e e.value(prev))` over one row's entries — the row
/// reduction of [`slots_sum_best_per_left`], written once more without
/// the row scan: the reference the row-key table's maxima are tested
/// against (`engine/rows.rs`). Exact and independent of entry order: only
/// a strictly greater value replaces the running maximum, so ties and
/// NaNs resolve the same way in any order.
#[cfg(test)]
pub(crate) fn row_max(entries: &[DepEntry], prev: &[f64]) -> f64 {
    let mut best = 0.0f64;
    for e in entries {
        let s = e.value(prev);
        if s > best {
            best = s;
        }
    }
    best
}

/// `Σ_x max_{eligible y} prev(x, y)` over a prepared dependency list.
///
/// Entries are `(i, j)`-sorted, so each left node's eligible targets are
/// consecutive; left nodes with no eligible target contribute exactly the
/// `0.0` the on-the-fly path adds for them, so they are simply absent.
fn slots_sum_best_per_left(entries: &[DepEntry], prev: &[f64]) -> f64 {
    let mut total = 0.0;
    let mut idx = 0;
    while idx < entries.len() {
        let row = entries[idx].i;
        let mut best = 0.0f64;
        while idx < entries.len() && entries[idx].i == row {
            let s = entries[idx].value(prev);
            if s > best {
                best = s;
            }
            idx += 1;
        }
        total += best;
    }
    total
}

/// `Σ_y max_{eligible x} prev(x, y)` over a prepared dependency list (the
/// converse direction of the `fb` mapping). Accumulates per-column maxima
/// in scratch and sums columns in `j` order, reproducing the on-the-fly
/// path's iteration order bitwise (empty columns contribute `+0.0`).
fn slots_sum_best_per_right(
    entries: &[DepEntry],
    len2: usize,
    prev: &[f64],
    scratch: &mut OpScratch,
) -> f64 {
    let best = &mut scratch.best_right;
    best.clear();
    best.resize(len2, 0.0);
    for e in entries {
        let s = e.value(prev);
        if s > best[e.j as usize] {
            best[e.j as usize] = s;
        }
    }
    let mut total = 0.0;
    for &b in best.iter() {
        total += b;
    }
    total
}

/// Maximum-weight injective mapping sum over a prepared dependency list
/// (mirrors [`injective_sum`]; entry order equals the on-the-fly edge
/// enumeration order, so the greedy matcher sees an identical edge list).
fn slots_injective_sum(
    entries: &[DepEntry],
    len1: usize,
    len2: usize,
    prev: &[f64],
    scratch: &mut OpScratch,
    matcher: MatcherKind,
) -> f64 {
    if len1 == 0 || len2 == 0 {
        return 0.0;
    }
    match matcher {
        MatcherKind::Greedy => {
            scratch.edges.clear();
            for e in entries {
                let w = e.value(prev);
                if w > 0.0 {
                    scratch.edges.push((w, e.i, e.j));
                }
            }
            let (sum, _) = scratch.matcher.assign(len1, len2, &scratch.edges);
            sum
        }
        MatcherKind::Hungarian => {
            let (rows, cols, transposed) = if len1 <= len2 {
                (len1, len2, false)
            } else {
                (len2, len1, true)
            };
            scratch.weights.clear();
            scratch.weights.resize(rows * cols, 0.0);
            for e in entries {
                let (r, c) = if transposed { (e.j, e.i) } else { (e.i, e.j) };
                scratch.weights[r as usize * cols + c as usize] = e.value(prev);
            }
            let (sum, _) = hungarian_max_weight(rows, cols, &scratch.weights);
            sum
        }
    }
}

// ---------------------------------------------------------------------------
// Kernels: shared row maxima, per-slot loops and the vectorized SimRank sum
//
// Every convergence loop evaluates through a dependency CSR's slot kernel,
// whose entries stream forward from contiguous slot-indexed buffers; the
// CSR build reorders each slot's entries and folds constant runs
// (`Operator::fold_const_rows`). For `s` the per-slot loop above is only
// the reference: a row maximum depends on the row key `(x, v, direction)`
// alone, so the engine computes each key's maximum once per iteration and
// every slot sums cached maxima (`Operator::sums_row_maxima`,
// `engine/rows.rs`). On the `batch_score` workload that reads each maximum
// once instead of about 3 times per iteration, bitwise identically. The
// other variant operators keep their per-slot scalar loops. Their
// row-segmented maxima and matchings over short dependency runs are
// latency-bound on the scattered score loads, and the gather-then-reduce
// restructurings we tried on the real delta workload (4-wide unrolled
// gather staging into an SoA buffer, two-pass reduce, interleaved
// multi-stream accumulation, software prefetch) were 4–40% *slower*.
//
// SimRank is the exception: its reduction is a plain sum over *every*
// neighbor pair — long, dense, branch-free — which is exactly the shape a
// 4-wide gather + packed lane adds wins on. The kernels below implement
// that pass in one deterministic lane order (see
// [`simrank_lane_sum_slots_vec`]); a unit test pins it bitwise against the
// ungathered lane loop.
// ---------------------------------------------------------------------------

/// Materializes `entries[k].value(prev)` into `vals` (the gather pass),
/// 4-wide unrolled and branch-free — the min-clamp trick makes the slot
/// load unconditionally in-bounds, so the CONST select compiles to a cmov
/// and the four scattered score loads per step stay in flight together
/// instead of serializing behind per-entry bounds checks and CONST
/// branches.
#[inline]
fn gather_values(entries: &[DepEntry], prev: &[f64], vals: &mut Vec<f64>) {
    vals.clear();
    let Some(last) = prev.len().checked_sub(1) else {
        // Degenerate empty score buffer: keep the checked read, which
        // panics on a slot-backed entry exactly like `DepEntry::value`.
        vals.extend(entries.iter().map(|e| e.value(prev)));
        return;
    };
    vals.reserve(entries.len());
    let mut chunks = entries.chunks_exact(4);
    for chunk in &mut chunks {
        let mut out = [0.0f64; 4];
        for (o, e) in out.iter_mut().zip(chunk) {
            debug_assert!(e.slot == DepEntry::CONST || (e.slot as usize) <= last);
            // `min(last)` keeps the index in bounds for CONST entries (and
            // elides the bounds check); the select then overrides with the
            // constant. Branch-free on both counts.
            let from_slot = prev[(e.slot as usize).min(last)];
            *o = if e.slot == DepEntry::CONST {
                e.cval as f64
            } else {
                from_slot
            };
        }
        vals.extend_from_slice(&out);
    }
    for e in chunks.remainder() {
        debug_assert!(e.slot == DepEntry::CONST || (e.slot as usize) <= last);
        let from_slot = prev[(e.slot as usize).min(last)];
        vals.push(if e.slot == DepEntry::CONST {
            e.cval as f64
        } else {
            from_slot
        });
    }
}

/// 4-lane sum over a gathered value buffer whose position `m` feeds lane
/// `m & 3`: lane `k` accumulates `vals[k], vals[k+4], …` in stream order,
/// and the lanes combine as `(l0 + l1) + (l2 + l3)` — exactly the
/// deterministic tree order of [`simrank_lane_sum_slots_vec`] when logical
/// positions are contiguous from 0.
#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
#[inline]
fn dense_lane_sum(vals: &[f64]) -> f64 {
    let mut lanes = [0.0f64; 4];
    let mut chunks = vals.chunks_exact(4);
    for c in &mut chunks {
        for k in 0..4 {
            lanes[k] += c[k];
        }
    }
    for (k, &v) in chunks.remainder().iter().enumerate() {
        lanes[k] += v;
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
}

/// SSE2 variant of [`dense_lane_sum`] (the `simd` feature). SSE2 is
/// baseline on `x86_64`, so no runtime detection is needed. Each packed
/// `_mm_add_pd` performs the same per-lane addition, on the same addends
/// in the same order, as the portable loop — IEEE-754 addition is
/// deterministic, so the two paths are bitwise interchangeable; CI runs
/// the convergence bench smoke with the feature on and off and fails on
/// any divergence.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[inline]
fn dense_lane_sum(vals: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    // SAFETY: SSE2 is part of the x86_64 baseline; the loads are unaligned
    // loads from in-bounds slice positions.
    unsafe {
        let mut acc0 = _mm_setzero_pd(); // lanes 0, 1
        let mut acc1 = _mm_setzero_pd(); // lanes 2, 3
        let mut chunks = vals.chunks_exact(4);
        for c in &mut chunks {
            acc0 = _mm_add_pd(acc0, _mm_loadu_pd(c.as_ptr()));
            acc1 = _mm_add_pd(acc1, _mm_loadu_pd(c.as_ptr().add(2)));
        }
        let mut lanes = [0.0f64; 4];
        _mm_storeu_pd(lanes.as_mut_ptr(), acc0);
        _mm_storeu_pd(lanes.as_mut_ptr().add(2), acc1);
        for (k, &v) in chunks.remainder().iter().enumerate() {
            lanes[k] += v;
        }
        (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
    }
}

/// The ungathered lane loop of [`simrank_lane_sum_slots_vec`], entry by
/// entry: the reference its gather pass and dense fast path are tested
/// against.
#[cfg(test)]
fn simrank_lane_sum_slots(entries: &[DepEntry], len2: usize, prev: &[f64]) -> f64 {
    let mut lanes = [0.0f64; 4];
    for e in entries {
        lanes[(e.i as usize * len2 + e.j as usize) & 3] += e.value(prev);
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
}

/// SimRank's deterministic 4-lane sum over a prepared dependency list.
///
/// Sums are order-*sensitive* in floating point, so SimRank cannot use a
/// serial order and still vectorize. Instead it commits to one
/// deterministic tree order: entry `(i, j)` accumulates into lane
/// `(i·len2 + j) mod 4` and the lanes combine as `(l0 + l1) + (l2 + l3)`.
/// Keying the lane on the *logical* position (not the stream position)
/// makes the order robust to omitted zero-constant entries — `+0.0` on a
/// non-negative accumulator is a bitwise no-op — so every shard layout
/// agrees bitwise, and so does [`SimRankOp`]'s [`map_sum`](Operator::map_sum).
///
/// A gather pass stages the values first; each lane then sees the same
/// addends in the same order as the entry-by-entry loop. When the list is
/// *dense* (`len1·len2` entries — no zero-constant pair was omitted, the
/// common SimRank case), logical position equals stream position and the
/// lane sum collapses to [`dense_lane_sum`] over the contiguous gathered
/// buffer, which is where the packed adds pay off.
fn simrank_lane_sum_slots_vec(
    entries: &[DepEntry],
    len1: usize,
    len2: usize,
    prev: &[f64],
    scratch: &mut OpScratch,
) -> f64 {
    let vals = &mut scratch.vals;
    gather_values(entries, prev, vals);
    if entries.len() == len1 * len2 {
        // Entries are distinct `(i, j)` pairs in sorted order, so a full
        // count means logical position `i·len2 + j` ≡ stream position.
        return dense_lane_sum(vals);
    }
    let mut lanes = [0.0f64; 4];
    for (e, &v) in entries.iter().zip(vals.iter()) {
        lanes[(e.i as usize * len2 + e.j as usize) & 3] += v;
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
}

/// Borrowed operators delegate; `sync_cfg` stays a no-op (a borrowed
/// operator cannot be mutated, so variant reconfiguration through a
/// reference is intentionally inert — used by the one-shot
/// `compute_with_operator` path).
impl<O: Operator> Operator for &O {
    fn map_sum<S: ScoreLookup>(
        &self,
        ctx: &OpCtx<'_>,
        s1: &[NodeId],
        s2: &[NodeId],
        prev: &S,
        scratch: &mut OpScratch,
    ) -> f64 {
        (**self).map_sum(ctx, s1, s2, prev, scratch)
    }

    fn map_size(&self, ctx: &OpCtx<'_>, s1: &[NodeId], s2: &[NodeId]) -> usize {
        (**self).map_size(ctx, s1, s2)
    }

    fn reads_ineligible_pairs(&self) -> bool {
        (**self).reads_ineligible_pairs()
    }

    fn fold_const_rows(&self) -> bool {
        (**self).fold_const_rows()
    }

    fn sums_row_maxima(&self) -> bool {
        (**self).sums_row_maxima()
    }

    fn map_sum_slots(
        &self,
        entries: &[DepEntry],
        len1: usize,
        len2: usize,
        prev: &[f64],
        scratch: &mut OpScratch,
    ) -> f64 {
        (**self).map_sum_slots(entries, len1, len2, prev, scratch)
    }

    fn term_slots(
        &self,
        entries: &[DepEntry],
        len1: usize,
        len2: usize,
        prev: &[f64],
        scratch: &mut OpScratch,
    ) -> f64 {
        (**self).term_slots(entries, len1, len2, prev, scratch)
    }

    fn omega(&self, len1: usize, len2: usize) -> f64 {
        (**self).omega(len1, len2)
    }

    fn vacuous(&self, len1: usize, len2: usize) -> bool {
        (**self).vacuous(len1, len2)
    }

    fn term<S: ScoreLookup>(
        &self,
        ctx: &OpCtx<'_>,
        s1: &[NodeId],
        s2: &[NodeId],
        prev: &S,
        scratch: &mut OpScratch,
    ) -> f64 {
        (**self).term(ctx, s1, s2, prev, scratch)
    }
}

/// The Table-3 operator for a χ variant.
#[derive(Debug, Clone, Copy)]
pub struct VariantOp {
    /// The variant χ.
    pub variant: Variant,
    /// Injective-mapping backend.
    pub matcher: MatcherKind,
}

impl VariantOp {
    /// Operator for `variant` with the paper's greedy matcher.
    pub fn new(variant: Variant) -> Self {
        Self {
            variant,
            matcher: MatcherKind::Greedy,
        }
    }
}

impl Operator for VariantOp {
    fn sync_cfg(&mut self, cfg: &crate::config::FsimConfig) {
        self.variant = cfg.variant;
        self.matcher = cfg.matcher;
    }

    fn map_sum<S: ScoreLookup>(
        &self,
        ctx: &OpCtx<'_>,
        s1: &[NodeId],
        s2: &[NodeId],
        prev: &S,
        scratch: &mut OpScratch,
    ) -> f64 {
        match self.variant {
            Variant::Simple => sum_best_per_left(ctx, s1, s2, prev),
            Variant::Bi => {
                sum_best_per_left(ctx, s1, s2, prev) + sum_best_per_right(ctx, s1, s2, prev)
            }
            Variant::DegreePreserving | Variant::Bijective => {
                injective_sum(ctx, s1, s2, prev, scratch, self.matcher)
            }
        }
    }

    fn map_sum_slots(
        &self,
        entries: &[DepEntry],
        len1: usize,
        len2: usize,
        prev: &[f64],
        scratch: &mut OpScratch,
    ) -> f64 {
        match self.variant {
            Variant::Simple => slots_sum_best_per_left(entries, prev),
            Variant::Bi => {
                slots_sum_best_per_left(entries, prev)
                    + slots_sum_best_per_right(entries, len2, prev, scratch)
            }
            Variant::DegreePreserving | Variant::Bijective => {
                slots_injective_sum(entries, len1, len2, prev, scratch, self.matcher)
            }
        }
    }

    fn fold_const_rows(&self) -> bool {
        // Only `s` reduces each `i` group by a plain max, where a run of
        // constants collapses losslessly into its maximum. `b` also needs
        // per-`j` column maxima (folding would erase column attribution),
        // and the injective variants treat every entry as a distinct
        // matching edge.
        matches!(self.variant, Variant::Simple)
    }

    fn sums_row_maxima(&self) -> bool {
        // `s` is `slots_sum_best_per_left` under the default `term_slots`.
        // `b` adds column maxima, which are keyed by `(u, y)`, not rows.
        matches!(self.variant, Variant::Simple)
    }

    fn map_size(&self, ctx: &OpCtx<'_>, s1: &[NodeId], s2: &[NodeId]) -> usize {
        if ctx.theta <= 0.0 {
            // Every pair is eligible (L ≥ 0 always holds), so the counts
            // collapse to set sizes — O(1) instead of O(|S1|·|S2|).
            return match self.variant {
                Variant::Simple => {
                    if s2.is_empty() {
                        0
                    } else {
                        s1.len()
                    }
                }
                Variant::Bi => {
                    let left = if s2.is_empty() { 0 } else { s1.len() };
                    let right = if s1.is_empty() { 0 } else { s2.len() };
                    left + right
                }
                Variant::DegreePreserving | Variant::Bijective => s1.len().min(s2.len()),
            };
        }
        match self.variant {
            Variant::Simple => count_left_with_eligible(ctx, s1, s2),
            Variant::Bi => {
                count_left_with_eligible(ctx, s1, s2) + count_right_with_eligible(ctx, s1, s2)
            }
            Variant::DegreePreserving | Variant::Bijective => {
                count_left_with_eligible(ctx, s1, s2).min(count_right_with_eligible(ctx, s1, s2))
            }
        }
    }

    fn omega(&self, len1: usize, len2: usize) -> f64 {
        match self.variant {
            Variant::Simple | Variant::DegreePreserving => len1 as f64,
            Variant::Bi => (len1 + len2) as f64,
            Variant::Bijective => ((len1 * len2) as f64).sqrt(),
        }
    }

    fn vacuous(&self, len1: usize, len2: usize) -> bool {
        match self.variant {
            // ∀u′∈N(u)… is vacuous when u has no neighbors.
            Variant::Simple | Variant::DegreePreserving => len1 == 0,
            // b/bj additionally quantify over v's neighbors.
            Variant::Bi | Variant::Bijective => len1 == 0 && len2 == 0,
        }
    }
}

/// The SimRank configuration of §4.3: `M(S1, S2) = S1 × S2`,
/// `Ω = |S1|·|S2|`. All pairs are mapped (no maximization is involved — the
/// mapping is the unique total one, so C3 holds trivially).
#[derive(Debug, Clone, Copy, Default)]
pub struct SimRankOp;

impl Operator for SimRankOp {
    fn map_sum<S: ScoreLookup>(
        &self,
        _ctx: &OpCtx<'_>,
        s1: &[NodeId],
        s2: &[NodeId],
        prev: &S,
        _scratch: &mut OpScratch,
    ) -> f64 {
        // Same deterministic lane order as the slot kernel (see
        // [`simrank_lane_sum_slots_vec`]), so a pruned pair's on-demand
        // score sums like a maintained pair's update.
        let len2 = s2.len();
        let mut lanes = [0.0f64; 4];
        for (i, &x) in s1.iter().enumerate() {
            let mut lane = (i * len2) & 3;
            for &y in s2 {
                lanes[lane] += prev.get(x, y);
                lane = (lane + 1) & 3;
            }
        }
        (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
    }

    fn reads_ineligible_pairs(&self) -> bool {
        true
    }

    fn map_sum_slots(
        &self,
        entries: &[DepEntry],
        len1: usize,
        len2: usize,
        prev: &[f64],
        scratch: &mut OpScratch,
    ) -> f64 {
        simrank_lane_sum_slots_vec(entries, len1, len2, prev, scratch)
    }

    fn map_size(&self, _ctx: &OpCtx<'_>, s1: &[NodeId], s2: &[NodeId]) -> usize {
        s1.len() * s2.len()
    }

    fn omega(&self, len1: usize, len2: usize) -> f64 {
        (len1 * len2) as f64
    }

    fn vacuous(&self, _len1: usize, _len2: usize) -> bool {
        // SimRank scores 0 when either in-neighborhood is empty; no vacuous
        // full-credit case.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsim_graph::pair_key;
    use fsim_graph::FxHashMap;

    struct MapLookup(FxHashMap<u64, f64>);
    impl ScoreLookup for MapLookup {
        fn get(&self, x: NodeId, y: NodeId) -> f64 {
            self.0.get(&pair_key(x, y)).copied().unwrap_or(0.0)
        }
    }

    fn ctx_indicator<'a>(
        labels1: &'a [LabelId],
        labels2: &'a [LabelId],
        eval: &'a LabelEval,
        theta: f64,
    ) -> OpCtx<'a> {
        OpCtx {
            labels1,
            labels2,
            label_eval: eval,
            theta,
        }
    }

    fn scores(entries: &[((u32, u32), f64)]) -> MapLookup {
        MapLookup(
            entries
                .iter()
                .map(|&((x, y), s)| (pair_key(x, y), s))
                .collect(),
        )
    }

    const A: LabelId = LabelId(0);
    const B: LabelId = LabelId(1);

    #[test]
    fn simple_takes_best_per_left() {
        let l1 = [A, A];
        let l2 = [A, A];
        let eval = LabelEval::Constant(1.0);
        let ctx = ctx_indicator(&l1, &l2, &eval, 0.0);
        let prev = scores(&[((0, 0), 0.9), ((0, 1), 0.3), ((1, 0), 0.9), ((1, 1), 0.2)]);
        let op = VariantOp::new(Variant::Simple);
        let mut scratch = OpScratch::new();
        // Both left nodes pick y=0 (0.9) — non-injective is fine for s.
        let sum = op.map_sum(&ctx, &[0, 1], &[0, 1], &prev, &mut scratch);
        assert!((sum - 1.8).abs() < 1e-12);
        assert!((op.term(&ctx, &[0, 1], &[0, 1], &prev, &mut scratch) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn injective_variants_cannot_reuse_targets() {
        let l1 = [A, A];
        let l2 = [A, A];
        let eval = LabelEval::Constant(1.0);
        let ctx = ctx_indicator(&l1, &l2, &eval, 0.0);
        let prev = scores(&[((0, 0), 0.9), ((0, 1), 0.3), ((1, 0), 0.9), ((1, 1), 0.2)]);
        let mut scratch = OpScratch::new();
        for v in [Variant::DegreePreserving, Variant::Bijective] {
            let op = VariantOp::new(v);
            let sum = op.map_sum(&ctx, &[0, 1], &[0, 1], &prev, &mut scratch);
            // greedy: (0,0)=0.9 then (1,1)=0.2
            assert!((sum - 1.1).abs() < 1e-12, "variant {v:?}");
        }
    }

    #[test]
    fn hungarian_backend_is_at_least_greedy() {
        let l1 = [A, A];
        let l2 = [A, A];
        let eval = LabelEval::Constant(1.0);
        let ctx = ctx_indicator(&l1, &l2, &eval, 0.0);
        // Adversarial: greedy takes 1.0 + 0.0, optimal 0.6 + 0.6.
        let prev = scores(&[((0, 0), 1.0), ((0, 1), 0.6), ((1, 0), 0.6), ((1, 1), 0.0)]);
        let mut scratch = OpScratch::new();
        let greedy = VariantOp {
            variant: Variant::Bijective,
            matcher: MatcherKind::Greedy,
        };
        let exact = VariantOp {
            variant: Variant::Bijective,
            matcher: MatcherKind::Hungarian,
        };
        let gs = greedy.map_sum(&ctx, &[0, 1], &[0, 1], &prev, &mut scratch);
        let hs = exact.map_sum(&ctx, &[0, 1], &[0, 1], &prev, &mut scratch);
        assert!((gs - 1.0).abs() < 1e-12);
        assert!((hs - 1.2).abs() < 1e-12);
    }

    #[test]
    fn bi_sums_both_directions() {
        let l1 = [A];
        let l2 = [A, A];
        let eval = LabelEval::Constant(1.0);
        let ctx = ctx_indicator(&l1, &l2, &eval, 0.0);
        let prev = scores(&[((0, 0), 0.8), ((0, 1), 0.5)]);
        let op = VariantOp::new(Variant::Bi);
        let mut scratch = OpScratch::new();
        // left: max(0.8, 0.5) = 0.8; right: y0→0.8, y1→0.5.
        let sum = op.map_sum(&ctx, &[0], &[0, 1], &prev, &mut scratch);
        assert!((sum - 2.1).abs() < 1e-12);
        assert!((op.omega(1, 2) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn theta_excludes_dissimilar_labels() {
        let l1 = [A, B];
        let l2 = [B, B];
        let eval = LabelEval::Sim(fsim_labels::LabelFn::Indicator.prepare(&{
            let i = fsim_graph::LabelInterner::new();
            i.intern("a");
            i.intern("b");
            i
        }));
        let ctx = OpCtx {
            labels1: &l1,
            labels2: &l2,
            label_eval: &eval,
            theta: 1.0,
        };
        let prev = scores(&[((0, 0), 0.9), ((1, 0), 0.7), ((1, 1), 0.6)]);
        let op = VariantOp::new(Variant::Simple);
        let mut scratch = OpScratch::new();
        // x=0 (label A) has no eligible target; x=1 picks best B-target 0.7.
        let sum = op.map_sum(&ctx, &[0, 1], &[0, 1], &prev, &mut scratch);
        assert!((sum - 0.7).abs() < 1e-12);
        assert_eq!(op.map_size(&ctx, &[0, 1], &[0, 1]), 1);
    }

    #[test]
    fn vacuity_conventions() {
        for v in [Variant::Simple, Variant::DegreePreserving] {
            let op = VariantOp::new(v);
            assert!(op.vacuous(0, 5));
            assert!(!op.vacuous(3, 0));
        }
        for v in [Variant::Bi, Variant::Bijective] {
            let op = VariantOp::new(v);
            assert!(op.vacuous(0, 0));
            assert!(!op.vacuous(0, 5));
            assert!(!op.vacuous(3, 0));
        }
    }

    #[test]
    fn empty_terms_follow_convention() {
        let l1: [LabelId; 0] = [];
        let l2 = [A];
        let eval = LabelEval::Constant(1.0);
        let ctx = ctx_indicator(&l1, &l2, &eval, 0.0);
        let prev = scores(&[]);
        let mut scratch = OpScratch::new();
        // s: S1 empty → vacuous → 1. S2 empty but S1 not → 0.
        let s = VariantOp::new(Variant::Simple);
        assert_eq!(s.term(&ctx, &[], &[0], &prev, &mut scratch), 1.0);
        let l1b = [A];
        let ctx2 = ctx_indicator(&l1b, &l2, &eval, 0.0);
        assert_eq!(s.term(&ctx2, &[0], &[], &prev, &mut scratch), 0.0);
        // bj: one side empty → 0; both empty → 1.
        let bj = VariantOp::new(Variant::Bijective);
        assert_eq!(bj.term(&ctx2, &[0], &[], &prev, &mut scratch), 0.0);
        assert_eq!(bj.term(&ctx, &[], &[], &prev, &mut scratch), 1.0);
    }

    #[test]
    fn simrank_op_averages_all_pairs() {
        let l1 = [A, A];
        let l2 = [A, A];
        let eval = LabelEval::Constant(0.0);
        let ctx = ctx_indicator(&l1, &l2, &eval, 0.0);
        let prev = scores(&[((0, 0), 1.0), ((1, 1), 1.0)]);
        let op = SimRankOp;
        let mut scratch = OpScratch::new();
        let sum = op.map_sum(&ctx, &[0, 1], &[0, 1], &prev, &mut scratch);
        assert!((sum - 2.0).abs() < 1e-12);
        assert_eq!(op.map_size(&ctx, &[0, 1], &[0, 1]), 4);
        assert!((op.term(&ctx, &[0, 1], &[0, 1], &prev, &mut scratch) - 0.5).abs() < 1e-12);
        assert_eq!(op.term(&ctx, &[], &[0], &prev, &mut scratch), 0.0);
    }

    /// The gathered SimRank kernel (with its dense packed-add fast path)
    /// against the entry-by-entry lane loop, bitwise: on dense lists of
    /// every `(i, j)` and on the same lists with their zero constants
    /// omitted, which must also leave the sum's bits unchanged.
    #[test]
    fn simrank_lane_sums_agree_bitwise() {
        let mut state = 0x5111_4A2Bu64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let mut scratch = OpScratch::new();
        for case in 0..200 {
            let (len1, len2) = (1 + next(9) as usize, 1 + next(9) as usize);
            let prev: Vec<f64> = (0..32).map(|_| next(1 << 20) as f64 / 1048576.0).collect();
            let mut dense = Vec::new();
            for i in 0..len1 as u32 {
                for j in 0..len2 as u32 {
                    let (slot, cval) = match next(4) {
                        0 => (DepEntry::CONST, 0.0),
                        1 => (DepEntry::CONST, next(1000) as f32 / 1000.0),
                        _ => (next(32) as u32, 0.0),
                    };
                    dense.push(DepEntry { i, j, slot, cval });
                }
            }
            let sparse: Vec<DepEntry> = dense
                .iter()
                .copied()
                .filter(|e| e.slot != DepEntry::CONST || e.cval != 0.0)
                .collect();
            let reference = simrank_lane_sum_slots(&dense, len2, &prev);
            for (what, entries) in [("dense", &dense), ("zeros omitted", &sparse)] {
                let lanes = simrank_lane_sum_slots(entries, len2, &prev);
                let gathered = simrank_lane_sum_slots_vec(entries, len1, len2, &prev, &mut scratch);
                assert_eq!(lanes.to_bits(), reference.to_bits(), "case {case} {what}");
                assert_eq!(gathered.to_bits(), lanes.to_bits(), "case {case} {what}");
            }
        }
    }

    #[test]
    fn c2_map_size_le_omega() {
        // C2 of Theorem 1 on a few shapes.
        let l1 = [A, A, B];
        let l2 = [A, B];
        let eval = LabelEval::Constant(1.0);
        let ctx = ctx_indicator(&l1, &l2, &eval, 0.0);
        for v in Variant::ALL {
            let op = VariantOp::new(v);
            let ms = op.map_size(&ctx, &[0, 1, 2], &[0, 1]) as f64;
            let om = op.omega(3, 2);
            assert!(ms <= om + 1e-12, "C2 violated for {v:?}: |M|={ms} Ω={om}");
        }
    }
}
