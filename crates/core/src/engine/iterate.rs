//! The per-iteration update of Equation 3 and the convergence loops
//! (Algorithm 1 lines 2–7, Theorem 1 / Corollary 1).
//!
//! Each schedule is one loop over the step executor
//! ([`Exec`](super::parallel::Exec)), which evaluates a step inline or on
//! the session's worker pool with the same bits. Every loop keeps a double
//! buffer, evaluating from the previous iterate into the next and swapping:
//! * the **sweep** ([`run_sweep`]) re-evaluates every maintained pair each
//!   iteration (Algorithm 1 as written);
//! * the **delta** loop ([`run_delta`]) walks the prepared
//!   [`PairDepCsr`]: iteration 1 evaluates every slot, and its
//!   [`Frontier`] picks each later step like direction-optimizing BFS.
//!   While the changed slots have fewer dependents in total than there
//!   are slots (`Σ |rdeps(changed)| < |H|`) it **pushes** through the
//!   reverse CSR and evaluates exactly the dependents, in slot order;
//!   otherwise it **sweeps the live slots** — every slot with a
//!   maintained dependency, unconditionally, in slot order. No slot's
//!   inputs are tested: the update is Jacobi with a unique fixpoint
//!   (Theorem 1), so a live slot whose inputs did not change re-evaluates
//!   to the bits it holds, and a non-live slot never changes after
//!   iteration 1. Both steps are therefore bitwise identical to the
//!   sweep; a live sweep just counts more evaluations;
//! * **replay** ([`run_replay`]) re-converges an edited session along the
//!   recorded trajectory, then continues as the delta loop;
//! * the **sharded** loop ([`super::shards`]) applies the same dirty rule
//!   over transient per-u-row-shard CSRs with boundary exchange — still
//!   bitwise identical, with peak CSR memory bounded to one shard.
//!
//! Every loop stops on the same [`Limits`]. The approximate mode is no
//! schedule of its own: it is any of these loops stopped at a relaxed
//! `ε'`, certified by the Banach bound of [`error_bound`], so its bits are
//! the exact run's up to the iteration it stops at.
//!
//! Every loop evaluates through one [`SlotKernel`] over a dependency CSR:
//! the session's full [`PairDepCsr`], or one shard's. For operators that sum
//! row maxima, a step that evaluates at least a quarter of the slots first
//! fills every shared row maximum, and a shorter one fills those it reads
//! on first use ([`step_maxima`](super::parallel::step_maxima),
//! [`super::rows`]); the bits are those of the per-slot kernel.
//!
//! Every loop's `iter_seconds` covers the whole iteration: repair,
//! evaluation, frontier construction and trajectory recording.

use super::deps::PairDepCsr;
use super::frontier::{slot_ids, Frontier, Step};
use super::parallel::{Changed, Exec, IterationOutcome, SlotKernel, Slots};
use crate::config::{FsimConfig, InitScheme};
use crate::operators::{OpCtx, OpScratch, Operator, ScoreLookup};
use crate::store::PairStore;
use fsim_graph::{Graph, NodeId};
use std::time::Instant;

/// When a convergence loop stops: after `max_iters` iterations, or at the
/// first iteration whose max delta falls below `epsilon`.
#[derive(Clone, Copy)]
pub(crate) struct Limits {
    pub(crate) max_iters: usize,
    pub(crate) epsilon: f64,
}

impl Limits {
    /// The limits `cfg` sets — the one place a run's stop is derived.
    /// The exact modes stop at `Δ < ε`.
    /// [`ConvergenceMode::Approximate`](crate::config::ConvergenceMode::Approximate)
    /// stops at `Δ < ε' = max(ε, tolerance·ε/(w⁺+w⁻))`: the clamp keeps a
    /// tolerance below `w⁺+w⁻` from running longer than the exact modes.
    /// The iteration cap is the configured ε's in every mode.
    pub(crate) fn of(cfg: &FsimConfig) -> Self {
        let epsilon = match cfg.convergence.approximate_tolerance() {
            Some(tolerance) => cfg
                .epsilon
                .max(tolerance * cfg.epsilon / (cfg.w_out + cfg.w_in)),
            None => cfg.epsilon,
        };
        Self {
            max_iters: cfg.effective_max_iters(),
            epsilon,
        }
    }
}

/// The certified error bound of a run of `cfg` whose last iteration moved
/// no score by more than `final_delta`: `0` in the exact modes, and under
/// [`ConvergenceMode::Approximate`](crate::config::ConvergenceMode::Approximate)
/// the Banach bound `c/(1−c)·(final_delta + ε)` with `c = w⁺+w⁻`, the
/// contraction factor of Theorem 2. The relaxed run is a prefix of the
/// exact run's trajectory, and every later step moves the scores by at
/// most `c` times the step before it.
pub(crate) fn error_bound(cfg: &FsimConfig, final_delta: f64) -> f64 {
    if cfg.convergence.approximate_tolerance().is_none() {
        return 0.0;
    }
    let c = cfg.w_out + cfg.w_in;
    c * (final_delta + cfg.epsilon.max(0.0)) / (1.0 - c)
}

/// Budget-gated trajectory recorder: snapshots every iterate of a run
/// until the accumulated size would exceed the byte budget, then abandons
/// (and frees) the recording — the engine then falls back to a cold
/// re-iteration on the next edit instead of a replay. Gating on actual
/// bytes rather than the worst-case Corollary-1 iteration bound keeps
/// recording alive for runs that converge far earlier than the bound.
pub(crate) struct Recorder<'a> {
    history: &'a mut Vec<Vec<f64>>,
    /// Buffers of a previous trajectory, refilled before a new one is
    /// allocated.
    spares: Vec<Vec<f64>>,
    budget: usize,
    bytes: usize,
    abandoned: bool,
}

impl<'a> Recorder<'a> {
    /// A recording into `history`. Iterates it already holds (a previous
    /// run's trajectory) become spare buffers, so a warm rerun refills
    /// them instead of allocating a trajectory afresh.
    pub(crate) fn new(history: &'a mut Vec<Vec<f64>>, budget: usize) -> Self {
        Self {
            spares: std::mem::take(history),
            history,
            budget,
            bytes: 0,
            abandoned: false,
        }
    }

    /// Records one iterate (or gives up for the rest of the run).
    pub(crate) fn push(&mut self, iterate: &[f64]) {
        if self.abandoned {
            return;
        }
        self.bytes += std::mem::size_of_val(iterate);
        if self.bytes > self.budget {
            self.history.clear();
            self.history.shrink_to_fit();
            self.spares = Vec::new();
            self.abandoned = true;
            return;
        }
        let mut buf = self.spares.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(iterate);
        self.history.push(buf);
    }

    /// Hands the recording a spare buffer: an iterate of the trajectory
    /// being replayed, once read for the last time.
    pub(crate) fn spare(&mut self, buf: Vec<f64>) {
        if !self.abandoned {
            self.spares.push(buf);
        }
    }
}

/// `FSim⁰(u, v)` (§3.3) for one pair, with the pair's cached label term.
fn init_score(cfg: &FsimConfig, g1: &Graph, g2: &Graph, u: NodeId, v: NodeId, label: f64) -> f64 {
    match cfg.init {
        InitScheme::LabelSim => label,
        InitScheme::Identity => {
            if u == v {
                1.0
            } else {
                0.0
            }
        }
        InitScheme::OutDegreeRatio => {
            let (a, b) = (g1.out_degree(u), g2.out_degree(v));
            let (lo, hi) = (a.min(b), a.max(b));
            if hi == 0 {
                1.0
            } else {
                lo as f64 / hi as f64
            }
        }
        InitScheme::Constant(c) => c,
    }
}

/// Writes `FSim⁰` (§3.3) for every maintained pair into `scores`.
/// `label_terms` is the per-slot cache of `L(ℓ1(u), ℓ2(v))`.
pub(crate) fn initialize(
    store: &PairStore,
    cfg: &FsimConfig,
    g1: &Graph,
    g2: &Graph,
    label_terms: &[f64],
    scores: &mut Vec<f64>,
) {
    debug_assert_eq!(label_terms.len(), store.len());
    scores.clear();
    scores.extend(
        store
            .pairs
            .iter()
            .enumerate()
            .map(|(slot, &(u, v))| init_score(cfg, g1, g2, u, v, label_terms[slot])),
    );
}

/// Equation 3 for a single pair on the fly — neighbor enumeration and
/// score lookups through `prev`, the label term computed here: the one-off
/// query for a pair the store does not maintain. The convergence loops
/// evaluate through a [`PairDepCsr`]'s slot kernel instead.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pair_update<O: Operator, S: ScoreLookup>(
    g1: &Graph,
    g2: &Graph,
    ctx: &OpCtx<'_>,
    cfg: &FsimConfig,
    op: &O,
    u: NodeId,
    v: NodeId,
    prev: &S,
    scratch: &mut OpScratch,
) -> f64 {
    if cfg.pin_identical && u == v {
        return 1.0;
    }
    let out = op.term(ctx, g1.out_neighbors(u), g2.out_neighbors(v), prev, scratch);
    let inn = op.term(ctx, g1.in_neighbors(u), g2.in_neighbors(v), prev, scratch);
    let score = cfg.w_out * out + cfg.w_in * inn + cfg.w_label() * ctx.label_sim(u, v);
    // Scores are mathematically confined to [0, 1]; clamp floating drift.
    score.clamp(0.0, 1.0)
}

/// Iterates `kernel` to convergence by **full sweep** (Algorithm 1 as
/// written): every slot is re-evaluated each iteration, through a
/// [`PairDepCsr`]'s slot kernel, from the flat slot-indexed buffer.
/// `scores` holds `FSim⁰` on entry and the final scores on exit; `cur` is
/// the reusable double buffer (resized to match).
pub(crate) fn run_sweep<K: SlotKernel>(
    exec: &mut Exec<'_>,
    kernel: &K,
    limits: Limits,
    scores: &mut Vec<f64>,
    cur: &mut Vec<f64>,
) -> IterationOutcome {
    cur.clear();
    cur.resize(scores.len(), 0.0);
    let mut out = IterationOutcome::empty();
    while out.iterations < limits.max_iters {
        let t0 = Instant::now();
        let (delta, evaluated) =
            exec.step(kernel, Slots::All, scores, cur, scores, Changed::Untracked);
        std::mem::swap(scores, cur);
        out.final_delta = delta;
        out.pairs_evaluated.push(evaluated);
        out.iter_seconds.push(t0.elapsed().as_secs_f64());
        out.iterations += 1;
        if delta < limits.epsilon {
            out.converged = true;
            break;
        }
    }
    out
}

/// Iterates `kernel` to convergence with **dirty-pair scheduling** over a
/// prepared [`PairDepCsr`]: iteration 1 evaluates every slot; iteration
/// `k > 1` is the [`Frontier`]'s step — the dependents of slots whose
/// score changed (bitwise) in iteration `k−1`, or, when those are dense,
/// every live slot — visited in slot order. Slots outside the step keep
/// their previous score exactly, and live slots with unchanged inputs
/// re-evaluate to it — the update is a pure function of inputs that did
/// not change — so the outcome is bitwise identical to [`run_sweep`].
pub(crate) fn run_delta<K: SlotKernel>(
    exec: &mut Exec<'_>,
    kernel: &K,
    csr: &PairDepCsr,
    limits: Limits,
    scores: &mut Vec<f64>,
    cur: &mut Vec<f64>,
    mut record: Option<&mut Recorder<'_>>,
) -> IterationOutcome {
    let lap = Instant::now();
    let n = scores.len();
    cur.clear();
    cur.resize(n, 0.0);
    if let Some(h) = record.as_deref_mut() {
        h.push(scores);
    }
    let out = IterationOutcome::empty();
    delta_loop(
        exec,
        kernel,
        csr,
        limits,
        scores,
        cur,
        record,
        Frontier::all(n),
        out,
        lap,
    )
}

/// The delta iteration from `frontier`'s step on, continuing `out`: each
/// iteration copies the stale slots forward, evaluates the step, and
/// schedules the next one. `lap` started when the first of these
/// iterations' work did, so `iter_seconds` covers repair, evaluation,
/// frontier construction and recording.
///
/// A slot that is not live changes in iteration 1 only, so from
/// iteration 2 on every changed set lies inside the live slots. A dense
/// step at `k ≥ 3` therefore copies nothing forward — the write buffer
/// differs from the previous iterate only on `C_{k−1}`, and the step
/// rewrites every live slot — and at `k = 2` it copies `C_1`, whose
/// non-live slots it would not write. A dense step collects no changed
/// list either: it counts its changed slots' dependents, the direction
/// rule's only input, and only when that count calls for a push is
/// `C_k` recovered, by comparing the two buffers over the live slots.
#[allow(clippy::too_many_arguments)]
fn delta_loop<K: SlotKernel>(
    exec: &mut Exec<'_>,
    kernel: &K,
    csr: &PairDepCsr,
    limits: Limits,
    scores: &mut Vec<f64>,
    cur: &mut Vec<f64>,
    mut record: Option<&mut Recorder<'_>>,
    mut frontier: Frontier,
    mut out: IterationOutcome,
    mut lap: Instant,
) -> IterationOutcome {
    let (rdo, rd) = (csr.rdep_offsets(), csr.rdeps());
    let n = scores.len();
    // C_k: slots whose score changed this iteration.
    let mut changed: Vec<u32> = Vec::new();
    while out.iterations < limits.max_iters {
        // The run's iteration index (replay's Phase B continues it).
        let k = out.iterations + 1;
        let step = frontier.step();
        let dense = matches!(step, Step::Dense);
        if !dense || k == 2 {
            for s in frontier.stale() {
                cur[s] = scores[s];
            }
        }
        let mut fanout = 0;
        let tally = if dense {
            Changed::Fanout(rdo, &mut fanout)
        } else {
            Changed::List(&mut changed)
        };
        let slots = Slots::of(step, csr);
        let (delta, evaluated) = exec.step(kernel, slots, scores, cur, scores, tally);
        out.pairs_evaluated.push(evaluated);
        std::mem::swap(scores, cur);
        if let Some(h) = record.as_deref_mut() {
            h.push(scores);
        }
        out.final_delta = delta;
        out.iterations += 1;
        let done = delta < limits.epsilon;
        if !done {
            if !dense {
                frontier.advance(&mut changed, rdo, rd);
            } else if fanout < n {
                // C_k ⊆ live: the buffers agree on every other slot.
                changed.extend(
                    csr.live()
                        .iter()
                        .copied()
                        .filter(|&s| scores[s as usize].to_bits() != cur[s as usize].to_bits()),
                );
                frontier.push_dependents(&mut changed, &[], rdo, rd);
            } else {
                frontier.sweep_live();
            }
        }
        out.iter_seconds.push(lap.elapsed().as_secs_f64());
        lap = Instant::now();
        if done {
            out.converged = true;
            break;
        }
    }
    out
}

/// **Trajectory replay**: converges on an *edited* graph by replaying the
/// previous run's iterate history, bitwise identical to a cold run on the
/// edited graph while re-evaluating only the slots the edit can reach.
///
/// Invariant: at the end of replay iteration `k`, the score buffer equals
/// iterate `k` of a cold run on the edited graph. A slot is copied from
/// `old_traj[k]` — the matching iterate of the *pre-edit* run — whenever
/// (a) its dependency structure and label term survived the edit
/// (`s ∉ always_dirty`) and (b) none of its inputs diverged from the old
/// trajectory at `k − 1`; the Jacobi update is a pure function of those
/// inputs, so the copied value is exactly what re-evaluation would
/// produce. Divergence is tracked against the old trajectory (not between
/// consecutive iterates), and the next worklist is the dependents of the
/// diverged slots plus `always_dirty` — always a slot-ordered sparse step.
///
/// When the old trajectory is exhausted before `Δ < ε` (the edited system
/// needs more iterations than the previous run), the loop degrades to the
/// standard delta iteration of [`run_delta`] (push or live sweep), seeded
/// from the last two iterates.
///
/// `scores` holds the edited run's `FSim⁰` on entry; `record` receives
/// the edited run's full trajectory (enabling the *next* edit batch to
/// replay again), budget-gated like any other run's recording. Each
/// iterate of `old_traj` becomes one of its spare buffers once replayed,
/// so the new trajectory reuses the old one's memory.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_replay<K: SlotKernel>(
    exec: &mut Exec<'_>,
    kernel: &K,
    csr: &PairDepCsr,
    limits: Limits,
    old_traj: &mut [Vec<f64>],
    always_dirty: &[u32],
    scores: &mut Vec<f64>,
    cur: &mut Vec<f64>,
    mut record: Option<&mut Recorder<'_>>,
) -> IterationOutcome {
    let mut lap = Instant::now();
    let n = scores.len();
    debug_assert!(old_traj.len() >= 2, "replay needs at least one iterate");
    debug_assert!(old_traj.iter().all(|it| it.len() == n));
    cur.clear();
    cur.resize(n, 0.0);
    let (rdo, rd) = (csr.rdep_offsets(), csr.rdeps());
    let mut out = IterationOutcome::empty();

    // W_1: dependents of every slot whose FSim⁰ diverged, plus the
    // structurally dirty slots.
    let mut changed: Vec<u32> = slot_ids(n)
        .filter(|&s| scores[s as usize].to_bits() != old_traj[0][s as usize].to_bits())
        .collect();
    if let Some(h) = record.as_deref_mut() {
        h.spare(std::mem::take(&mut old_traj[0]));
        h.push(scores);
    }
    let mut frontier = Frontier::new(n);
    frontier.push_dependents(&mut changed, always_dirty, rdo, rd);

    // Phase A: replay along the recorded trajectory.
    let hist_iters = old_traj.len() - 1;
    let mut k = 1usize;
    while out.iterations < limits.max_iters && k <= hist_iters {
        let hist = &old_traj[k];
        cur.copy_from_slice(hist);
        // Propagation follows divergence from the old trajectory, not
        // change from the previous iterate.
        let slots = Slots::of(frontier.step(), csr);
        let tally = Changed::List(&mut changed);
        let (_, evaluated) = exec.step(kernel, slots, scores, cur, hist, tally);
        out.pairs_evaluated.push(evaluated);
        // The convergence delta is over every slot.
        let mut delta = 0.0f64;
        for (&next, &prev) in cur.iter().zip(scores.iter()) {
            let d = (next - prev).abs();
            if d > delta {
                delta = d;
            }
        }
        std::mem::swap(scores, cur);
        if let Some(h) = record.as_deref_mut() {
            h.spare(std::mem::take(&mut old_traj[k]));
            h.push(scores);
        }
        out.final_delta = delta;
        out.iterations += 1;
        k += 1;
        let done = delta < limits.epsilon;
        if !done {
            frontier.push_dependents(&mut changed, always_dirty, rdo, rd);
        }
        out.iter_seconds.push(lap.elapsed().as_secs_f64());
        lap = Instant::now();
        if done {
            out.converged = true;
            return out;
        }
    }
    if out.iterations >= limits.max_iters {
        return out;
    }

    // Phase B: history exhausted — continue with the standard dirty
    // worklist (structure is now self-consistent; no always-dirty seed),
    // seeded from the last two iterates.
    changed.clear();
    changed
        .extend(slot_ids(n).filter(|&s| scores[s as usize].to_bits() != cur[s as usize].to_bits()));
    frontier.advance(&mut changed, rdo, rd);
    delta_loop(
        exec, kernel, csr, limits, scores, cur, record, frontier, out, lap,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use crate::engine::deps::SlotEval;
    use crate::engine::parallel::Runtime;
    use crate::engine::rows::Maxima;
    use crate::engine::session::{build_label_eval, AlignedLabels};
    use crate::operators::VariantOp;
    use fsim_graph::graph_from_parts;
    use fsim_labels::LabelFn;
    use std::collections::BTreeSet;

    /// A seven-node, single-label graph scored against itself whose delta
    /// run changes direction several times: the slots changed by
    /// iteration 1 have more dependents than there are slots, those of
    /// iteration 2 fewer, those of iteration 3 more again, and so on.
    fn switching_graph() -> Graph {
        graph_from_parts(
            &["a"; 7],
            &[
                (5, 2),
                (6, 3),
                (1, 3),
                (0, 5),
                (1, 0),
                (2, 3),
                (4, 2),
                (4, 3),
                (1, 4),
                (1, 5),
            ],
        )
    }

    /// Everything a slot-based driver needs to score a graph against
    /// itself.
    struct Fixture {
        cfg: FsimConfig,
        op: VariantOp,
        store: PairStore,
        csr: PairDepCsr,
        label_terms: Vec<f64>,
    }

    impl Fixture {
        fn new(g: &Graph, pin_identical: bool) -> Self {
            let mut cfg = FsimConfig::new(Variant::DegreePreserving)
                .label_fn(LabelFn::Indicator)
                .theta(0.0);
            cfg.pin_identical = pin_identical;
            cfg.epsilon = 1e-9;
            let aligned = AlignedLabels::new(g, g);
            let eval = build_label_eval(&cfg, &aligned.interner);
            let ctx = OpCtx {
                labels1: &aligned.labels1,
                labels2: &aligned.labels2,
                label_eval: &eval,
                theta: cfg.theta,
            };
            let op = VariantOp::new(cfg.variant);
            let store = crate::candidates::enumerate_candidates(g, g, &ctx, &cfg, &op);
            let csr = PairDepCsr::build(g, g, &ctx, &store, &op);
            let label_terms = store
                .pairs
                .iter()
                .map(|&(u, v)| ctx.label_sim(u, v))
                .collect();
            Self {
                cfg,
                op,
                store,
                csr,
                label_terms,
            }
        }

        fn init(&self, g: &Graph) -> Vec<f64> {
            let mut scores = Vec::new();
            initialize(&self.store, &self.cfg, g, g, &self.label_terms, &mut scores);
            scores
        }

        fn kernel(&self) -> SlotEval<'_, VariantOp> {
            self.csr
                .kernel(&self.cfg, &self.op, &self.store, &self.label_terms)
        }

        fn sweep(&self, g: &Graph) -> (IterationOutcome, Vec<f64>) {
            let (mut scores, mut cur) = (self.init(g), Vec::new());
            let mut exec = Exec::new(None, 1);
            let limits = Limits::of(&self.cfg);
            let out = run_sweep(&mut exec, &self.kernel(), limits, &mut scores, &mut cur);
            (out, scores)
        }

        fn delta(&self, g: &Graph, mut exec: Exec<'_>) -> (IterationOutcome, Vec<f64>) {
            let (mut scores, mut cur) = (self.init(g), Vec::new());
            let out = run_delta(
                &mut exec,
                &self.kernel(),
                &self.csr,
                Limits::of(&self.cfg),
                &mut scores,
                &mut cur,
                None,
            );
            (out, scores)
        }

        /// The step rule written out naively from a full sweep's iterates,
        /// per iteration: whether the frontier takes the step as a dense
        /// live sweep (`Σ |rdeps(changed)| ≥ |H|`), how many slots it
        /// schedules (every slot first; then every live slot when dense,
        /// the dependents of the slots the previous iteration changed
        /// otherwise), and how many dependents it has.
        fn push_reference(&self, g: &Graph) -> (Vec<bool>, Vec<usize>, Vec<usize>) {
            let n = self.store.len();
            let (rdo, rd) = (self.csr.rdep_offsets(), self.csr.rdeps());
            let mut scratch = OpScratch::new();
            let mut prev = self.init(g);
            let (mut dense, mut scheduled, mut dependents) = (vec![false], vec![n], vec![n]);
            for _ in 1..self.cfg.effective_max_iters() {
                let kernel = self.kernel();
                let next: Vec<f64> = (0..n)
                    .map(|s| kernel.eval(s, &prev, Maxima::lazy(), &mut scratch))
                    .collect();
                let delta = (0..n)
                    .map(|s| (next[s] - prev[s]).abs())
                    .fold(0.0, f64::max);
                let changed: Vec<usize> = (0..n)
                    .filter(|&s| next[s].to_bits() != prev[s].to_bits())
                    .collect();
                prev = next;
                if delta < self.cfg.epsilon {
                    break;
                }
                let reached: BTreeSet<u32> = changed
                    .iter()
                    .flat_map(|&c| rd[rdo[c]..rdo[c + 1]].iter().copied())
                    .collect();
                let fanout: usize = changed.iter().map(|&c| rdo[c + 1] - rdo[c]).sum();
                dense.push(fanout >= n);
                scheduled.push(if fanout >= n {
                    self.csr.live().len()
                } else {
                    reached.len()
                });
                dependents.push(reached.len());
            }
            (dense, scheduled, dependents)
        }
    }

    fn assert_same_bits(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}");
        for (s, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: slot {s}");
        }
    }

    #[test]
    fn delta_run_switches_direction_and_matches_the_sweep_bitwise() {
        let g = switching_graph();
        let rt = Runtime::new(4);
        for pin_identical in [false, true] {
            let f = Fixture::new(&g, pin_identical);
            let (dense, scheduled, dependents) = f.push_reference(&g);
            // The fixture takes both directions in one run: a live sweep,
            // then a sparse push, then a live sweep again.
            let first = dense.iter().position(|&d| d).expect("a dense step");
            let push = first
                + dense[first..]
                    .iter()
                    .position(|&d| !d)
                    .expect("a sparse step");
            assert!(dense[push..].contains(&true), "dense → sparse → dense");
            // `dense[i]` is iteration `i + 1`. A dense step at k ≥ 3 that
            // a push follows recovers its changed set from the buffers,
            // and one another dense step follows carries none.
            assert!(
                (3..dense.len()).any(|i| dense[i - 1] && !dense[i]),
                "a dense step at k ≥ 3, then a push"
            );
            assert!(dense.windows(2).any(|w| w[0] && w[1]), "dense → dense");
            // Some live sweep evaluates more slots than the dependents of
            // the changed set, so the counts below tell the live-sweep
            // rule from one that evaluates only the dependents.
            let live = f.csr.live().len();
            assert!(
                dense.iter().zip(&dependents).any(|(&d, &n)| d && n < live),
                "a live sweep beyond the dependents"
            );

            let (sweep, sweep_scores) = f.sweep(&g);
            let (delta, delta_scores) = f.delta(&g, Exec::new(None, 1));
            let what = format!("pin_identical={pin_identical}");
            assert_same_bits(&sweep_scores, &delta_scores, &what);
            assert_eq!(delta.iterations, sweep.iterations, "{what}");
            assert!(delta.converged && sweep.converged, "{what}");
            assert_eq!(delta.final_delta.to_bits(), sweep.final_delta.to_bits());
            assert_eq!(delta.pairs_evaluated, scheduled, "{what}");
            assert_eq!(delta.iter_seconds.len(), delta.iterations, "{what}");

            // Every step on four workers: the same bits and the same
            // schedule, live sweeps included.
            let (par, par_scores) = f.delta(&g, Exec::with_min_pooled(Some(&rt), 1));
            assert_same_bits(&delta_scores, &par_scores, &what);
            assert_eq!(par.iterations, delta.iterations, "{what}");
            assert_eq!(par.final_delta.to_bits(), delta.final_delta.to_bits());
            assert_eq!(par.pairs_evaluated, delta.pairs_evaluated, "{what}");
        }
    }

    #[test]
    fn replay_of_a_one_iterate_history_sweeps_the_live_slots_at_k2() {
        let g = switching_graph();
        let rt = Runtime::new(4);
        let f = Fixture::new(&g, false);
        let (dense, scheduled, _) = f.push_reference(&g);
        assert!(dense[1], "iteration 2 is a live sweep");
        // Non-live slots change in iteration 1, so the step at k = 2 must
        // copy them forward.
        let init = f.init(&g);
        let (_, sweep_scores) = f.sweep(&g);
        let mut first = init.clone();
        let mut cur = Vec::new();
        let mut history = Vec::new();
        let one = Limits {
            max_iters: 1,
            ..Limits::of(&f.cfg)
        };
        let mut recorder = Recorder::new(&mut history, usize::MAX);
        let kernel = f.kernel();
        let mut exec = Exec::new(None, 1);
        run_delta(
            &mut exec,
            &kernel,
            &f.csr,
            one,
            &mut first,
            &mut cur,
            Some(&mut recorder),
        );
        assert_eq!(history.len(), 2, "the history holds one iterate");
        let live = f.csr.live();
        assert!(
            slot_ids(init.len())
                .filter(|s| live.binary_search(s).is_err())
                .any(|s| first[s as usize].to_bits() != init[s as usize].to_bits()),
            "a non-live slot changes in iteration 1"
        );
        for mut exec in [Exec::new(None, 1), Exec::with_min_pooled(Some(&rt), 1)] {
            let (mut scores, mut cur) = (init.clone(), Vec::new());
            // The graph is unedited, so Phase A's one step evaluates only
            // the always-dirty slot, and Phase B takes the schedule over
            // from iteration 2 on.
            let out = run_replay(
                &mut exec,
                &kernel,
                &f.csr,
                Limits::of(&f.cfg),
                &mut history.clone(),
                &[0],
                &mut scores,
                &mut cur,
                None,
            );
            assert_same_bits(&sweep_scores, &scores, "replay");
            assert_eq!(out.pairs_evaluated[0], 1);
            assert_eq!(out.pairs_evaluated[1..], scheduled[1..]);
        }
    }
}
