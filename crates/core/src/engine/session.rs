//! Reusable engine sessions.
//!
//! The paper's workflows — θ sweeps (Fig. 5), variant comparisons
//! (Table 2), repeated top-k passes — re-run the engine many times over the
//! *same* graph pair. A [`FsimEngine`] session precomputes everything that
//! does not depend on the knob being swept: label alignment across the two
//! graphs, the prepared label-similarity table, and the maintained
//! candidate-pair store. [`FsimEngine::rerun`] then re-iterates under a
//! modified configuration, rebuilding only the cached state the change
//! actually invalidates (e.g. a new ε keeps everything; a new θ rebuilds
//! the candidate store; a new label function also rebuilds the prepared
//! table).

use super::deps::{PairDepCsr, BYTES_PER_ENTRY, BYTES_PER_SLOT};
use super::edits::{
    net_side_delta, validate_side, DirtyNodes, EditError, GraphEdit, GraphSide, SideDelta,
};
use super::iterate::{
    error_bound, initialize, pair_update, run_delta, run_replay, run_sweep, Limits, Recorder,
};
use super::parallel::{effective_threads, Exec, Runtime};
use super::persist::DeferredSections;
use super::shards::{auto_shard_count, run_sharded, ShardState};
use crate::candidates::{estimated_dep_entries, repair_candidates, StoreRepair, NO_SLOT};
use crate::config::{ConfigError, ConvergenceMode, FsimConfig, LabelTermMode, ShardSpec};
use crate::operators::{LabelEval, OpCtx, OpScratch, Operator, VariantOp};
use crate::result::FsimResult;
use crate::snapshot::ScoreSnapshot;
use crate::store::PairStore;
use crate::topk::top_k_from_iter;
use fsim_graph::{Graph, LabelId, LabelInterner, NodeId};
use std::borrow::Cow;
use std::sync::Arc;

/// Label arrays of both graphs expressed in one shared interner.
///
/// When the graphs already share an interner (the recommended construction)
/// this is a cheap copy; otherwise both label vocabularies are merged.
pub(crate) struct AlignedLabels {
    pub(crate) labels1: Vec<LabelId>,
    pub(crate) labels2: Vec<LabelId>,
    pub(crate) interner: Arc<LabelInterner>,
}

impl AlignedLabels {
    pub(crate) fn new(g1: &Graph, g2: &Graph) -> Self {
        if Arc::ptr_eq(g1.interner(), g2.interner()) {
            return Self {
                labels1: g1.labels().to_vec(),
                labels2: g2.labels().to_vec(),
                interner: Arc::clone(g1.interner()),
            };
        }
        let merged = LabelInterner::shared();
        let remap = |g: &Graph| -> Vec<LabelId> {
            let table: Vec<LabelId> = g
                .interner()
                .all()
                .iter()
                .map(|s| merged.intern(s))
                .collect();
            g.labels().iter().map(|l| table[l.index()]).collect()
        };
        let labels1 = remap(g1);
        let labels2 = remap(g2);
        Self {
            labels1,
            labels2,
            interner: merged,
        }
    }
}

/// Resolves the label-term evaluation for the hot loop.
pub(crate) fn build_label_eval(cfg: &FsimConfig, interner: &LabelInterner) -> LabelEval {
    match &cfg.label_term {
        LabelTermMode::Sim => LabelEval::Sim(cfg.label_fn.prepare(interner)),
        LabelTermMode::Constant(c) => LabelEval::Constant(*c),
    }
}

/// Does changing `old → new` invalidate the prepared label evaluation?
fn label_eval_changed(old: &FsimConfig, new: &FsimConfig) -> bool {
    match (&old.label_term, &new.label_term) {
        (LabelTermMode::Sim, LabelTermMode::Sim) => !old.label_fn.same_as(&new.label_fn),
        (a, b) => a != b,
    }
}

/// Does changing `old → new` invalidate the candidate-pair store?
fn store_changed(old: &FsimConfig, new: &FsimConfig, label_changed: bool) -> bool {
    if old.theta != new.theta || old.upper_bound != new.upper_bound {
        return true;
    }
    // θ-filtering and upper-bound pruning read label similarities; the
    // default dense cross product does not.
    let store_reads_labels = new.theta > 0.0 || new.upper_bound.is_some();
    if label_changed && store_reads_labels {
        return true;
    }
    // The static upper bound (Eq. 6) additionally depends on the operator
    // shape and the weights.
    if new.upper_bound.is_some()
        && (old.variant != new.variant
            || old.matcher != new.matcher
            || old.w_out != new.w_out
            || old.w_in != new.w_in)
    {
        return true;
    }
    false
}

/// A reusable `FSimχ` session over one graph pair.
///
/// ```
/// use fsim_core::{FsimConfig, FsimEngine, Variant};
/// use fsim_graph::examples::figure1;
/// use fsim_labels::LabelFn;
///
/// let f = figure1();
/// let cfg = FsimConfig::new(Variant::Bijective).label_fn(LabelFn::Indicator);
/// let mut engine = FsimEngine::new(&f.pattern, &f.data, &cfg).unwrap();
/// engine.run();
/// let strict = engine.score(f.u, f.v[3]);
/// // Re-run under simple simulation; alignment and candidates are reused.
/// engine.rerun(|c| c.variant = Variant::Simple).unwrap();
/// assert!(engine.score(f.u, f.v[0]) <= 1.0);
/// assert!(strict > 0.999);
/// ```
pub struct FsimEngine<'g, O: Operator = VariantOp> {
    /// The session's graphs. Borrowed until the first
    /// [`apply_edits`](Self::apply_edits) batch touches a side; edited
    /// sides become session-owned patched copies (clone-on-write).
    g1: Cow<'g, Graph>,
    g2: Cow<'g, Graph>,
    cfg: FsimConfig,
    op: O,
    labels1: Vec<LabelId>,
    labels2: Vec<LabelId>,
    interner: Arc<LabelInterner>,
    label_eval: LabelEval,
    store: PairStore,
    /// Per-slot cache of the (iteration-constant) label term
    /// `L(ℓ1(u), ℓ2(v))`; rebuilt with the store or the label evaluation.
    label_terms: Vec<f64>,
    /// The pair-dependency CSR every unsharded run evaluates through,
    /// built lazily on [`run`](Self::run). Lives exactly as long as the
    /// store it indexes. Exactly one of `deps` and `shards` is held from
    /// the first run of a non-empty store on.
    deps: Option<PairDepCsr>,
    /// Sharded-execution state (the u-row [`ShardSpec`] plan plus the
    /// boundary-exchange masks), held when the session executes sharded —
    /// per-shard CSRs are then built transiently per sweep and this full
    /// CSR cache stays empty. Invalidated with the store, like `deps`.
    shards: Option<ShardState>,
    scores: Vec<f64>,
    /// Reusable double buffer for the iteration loop.
    cur: Vec<f64>,
    /// The last run's full iterate trajectory (`iterates[0]` = `FSim⁰`),
    /// recorded when delta scheduling is active and the estimated size
    /// fits [`FsimConfig::trajectory_budget`]. Enables
    /// [`apply_edits`](Self::apply_edits) to *replay* the iteration after
    /// a graph edit instead of recomputing from scratch.
    trajectory: Option<Vec<Vec<f64>>>,
    /// A restored session's CSR and trajectory sections, validated at
    /// restore and not decoded yet: held only while `deps` and
    /// `trajectory` are both `None`, and consumed by the first `run`,
    /// `rerun` or `apply_edits` that needs them (or dropped by one that
    /// does not).
    deferred: Option<DeferredSections>,
    iterations: usize,
    converged: bool,
    final_delta: f64,
    /// Certified error bound of the last run (0 for exact modes).
    error_bound: f64,
    /// Pairs re-evaluated per iteration by the last run.
    pairs_evaluated: Vec<usize>,
    /// Wall-clock seconds per iteration of the last run, aligned with
    /// `pairs_evaluated` (their ratio is the pairs-per-second throughput
    /// metric).
    iter_seconds: Vec<f64>,
    /// Whether the last run used delta-driven scheduling.
    delta_scheduled: bool,
    /// Shards the last run executed with (0 = unsharded).
    shard_count: usize,
    /// Peak resident dependency-CSR bytes during the last run (the full
    /// CSR for unsharded runs, the largest single shard CSR for sharded
    /// runs, 0 for a run over an empty store).
    peak_csr_bytes: usize,
    /// The session's persistent worker pool, spawned lazily at the first
    /// run whose workload warrants parallelism and reused by every
    /// subsequent run, rerun and edit replay. The configured thread count
    /// is a session property: changing `cfg.threads` replaces the pool.
    runtime: Option<Runtime>,
    has_run: bool,
}

/// The engine state `engine/persist.rs` serializes and restores —
/// every field is borrowed or moved through these two structs so the
/// snapshot codec never needs direct access to the (private) session
/// fields. See `docs/SNAPSHOT.md` for what is persisted vs re-derived.
pub(crate) struct PersistParts<'e> {
    pub(crate) g1: &'e Graph,
    pub(crate) g2: &'e Graph,
    pub(crate) cfg: &'e FsimConfig,
    pub(crate) interner: &'e Arc<LabelInterner>,
    pub(crate) labels1: &'e [LabelId],
    pub(crate) labels2: &'e [LabelId],
    pub(crate) store: &'e PairStore,
    pub(crate) label_terms: &'e [f64],
    pub(crate) label_table: Option<&'e [f64]>,
    pub(crate) deps: Option<&'e PairDepCsr>,
    pub(crate) scores: &'e [f64],
    pub(crate) trajectory: Option<&'e Vec<Vec<f64>>>,
    pub(crate) deferred: Option<&'e DeferredSections>,
    pub(crate) iterations: usize,
    pub(crate) converged: bool,
    pub(crate) final_delta: f64,
    pub(crate) error_bound: f64,
    pub(crate) pairs_evaluated: &'e [usize],
    pub(crate) delta_scheduled: bool,
    pub(crate) shard_count: usize,
    pub(crate) has_run: bool,
}

/// The decoded state a snapshot restores into a fresh owned session.
pub(crate) struct RestoredParts {
    pub(crate) g1: Graph,
    pub(crate) g2: Graph,
    pub(crate) cfg: FsimConfig,
    pub(crate) interner: Arc<LabelInterner>,
    pub(crate) store: PairStore,
    pub(crate) label_terms: Vec<f64>,
    pub(crate) label_table: Option<Vec<f64>>,
    pub(crate) scores: Vec<f64>,
    pub(crate) deferred: Option<DeferredSections>,
    pub(crate) iterations: usize,
    pub(crate) converged: bool,
    pub(crate) final_delta: f64,
    pub(crate) error_bound: f64,
    pub(crate) pairs_evaluated: Vec<usize>,
    pub(crate) delta_scheduled: bool,
    pub(crate) shard_count: usize,
    pub(crate) has_run: bool,
}

impl<'g> FsimEngine<'g, VariantOp> {
    /// Builds a session for the variant selected in `cfg`, precomputing
    /// label alignment, the prepared label evaluation and the candidate
    /// store. Call [`run`](Self::run) to iterate to convergence.
    pub fn new(g1: &'g Graph, g2: &'g Graph, cfg: &FsimConfig) -> Result<Self, ConfigError> {
        let op = VariantOp {
            variant: cfg.variant,
            matcher: cfg.matcher,
        };
        Self::with_operator(g1, g2, cfg, op)
    }

    /// Borrows everything the snapshot codec persists (the codec lives
    /// in `engine/persist.rs`; only built-in-operator sessions can be
    /// reconstructed from a config, so persistence is `VariantOp`-only).
    pub(crate) fn persist_parts(&self) -> PersistParts<'_> {
        PersistParts {
            g1: &self.g1,
            g2: &self.g2,
            cfg: &self.cfg,
            interner: &self.interner,
            labels1: &self.labels1,
            labels2: &self.labels2,
            store: &self.store,
            label_terms: &self.label_terms,
            label_table: match &self.label_eval {
                LabelEval::Sim(p) => p.table(),
                LabelEval::Constant(_) => None,
            },
            deps: self.deps.as_ref(),
            scores: &self.scores,
            trajectory: self.trajectory.as_ref(),
            deferred: self.deferred.as_ref(),
            iterations: self.iterations,
            converged: self.converged,
            final_delta: self.final_delta,
            error_bound: self.error_bound,
            pairs_evaluated: &self.pairs_evaluated,
            delta_scheduled: self.delta_scheduled,
            shard_count: self.shard_count,
            has_run: self.has_run,
        }
    }
}

impl FsimEngine<'static, VariantOp> {
    /// Builds a session that **owns** its graphs, so its lifetime is not
    /// tied to a caller's borrow — the handoff constructor for long-lived
    /// holders like the `fsimd` serving daemon, whose writer thread owns
    /// one engine per namespace and must outlive the scope that loaded
    /// the graphs.
    pub fn new_owned(g1: Graph, g2: Graph, cfg: &FsimConfig) -> Result<Self, ConfigError> {
        let op = VariantOp {
            variant: cfg.variant,
            matcher: cfg.matcher,
        };
        Self::from_cows(Cow::Owned(g1), Cow::Owned(g2), cfg, op)
    }

    /// Reassembles a session from decoded snapshot state. Everything
    /// not in [`RestoredParts`] is re-derived: the prepared label
    /// evaluation (from config + interner), the aligned label copies
    /// (the snapshot stores graphs already remapped to the merged
    /// interner), the double buffer, the worker pool (lazy), and any
    /// shard state (rebuilt deterministically by the next run). The CSR
    /// and trajectory arrive as [`DeferredSections`], decoded at first
    /// use.
    pub(crate) fn from_restored(parts: RestoredParts) -> FsimEngine<'static, VariantOp> {
        // A persisted prepared table (validated against the interner by
        // the codec) skips the O(|Σ|²) string-similarity rebuild — the
        // dominant cost of a cold start under non-trivial label
        // functions. Sessions without one re-derive as usual.
        let label_eval = match parts.label_table {
            Some(table) => LabelEval::Sim(fsim_labels::PreparedLabelSim::from_table(
                parts.interner.len(),
                table,
            )),
            None => build_label_eval(&parts.cfg, &parts.interner),
        };
        FsimEngine {
            op: VariantOp {
                variant: parts.cfg.variant,
                matcher: parts.cfg.matcher,
            },
            labels1: parts.g1.labels().to_vec(),
            labels2: parts.g2.labels().to_vec(),
            g1: Cow::Owned(parts.g1),
            g2: Cow::Owned(parts.g2),
            cfg: parts.cfg,
            interner: parts.interner,
            label_eval,
            store: parts.store,
            label_terms: parts.label_terms,
            deps: None,
            shards: None,
            scores: parts.scores,
            cur: Vec::new(),
            trajectory: None,
            deferred: parts.deferred,
            iterations: parts.iterations,
            converged: parts.converged,
            final_delta: parts.final_delta,
            error_bound: parts.error_bound,
            pairs_evaluated: parts.pairs_evaluated,
            iter_seconds: Vec::new(),
            delta_scheduled: parts.delta_scheduled,
            shard_count: parts.shard_count,
            peak_csr_bytes: 0,
            runtime: None,
            has_run: parts.has_run,
        }
    }
}

impl<'g, O: Operator> FsimEngine<'g, O> {
    /// Builds a session with a custom [`Operator`] — the "configure the
    /// framework" path of §4.
    pub fn with_operator(
        g1: &'g Graph,
        g2: &'g Graph,
        cfg: &FsimConfig,
        op: O,
    ) -> Result<Self, ConfigError> {
        Self::from_cows(Cow::Borrowed(g1), Cow::Borrowed(g2), cfg, op)
    }

    fn from_cows(
        g1: Cow<'g, Graph>,
        g2: Cow<'g, Graph>,
        cfg: &FsimConfig,
        op: O,
    ) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let aligned = AlignedLabels::new(&g1, &g2);
        let label_eval = build_label_eval(cfg, &aligned.interner);
        let mut engine = Self {
            g1,
            g2,
            cfg: cfg.clone(),
            op,
            labels1: aligned.labels1,
            labels2: aligned.labels2,
            interner: aligned.interner,
            label_eval,
            store: PairStore {
                pairs: Vec::new(),
                index: crate::store::PairIndex::Dense { n2: 0 },
                fallback: crate::store::Fallback::Zero,
            },
            label_terms: Vec::new(),
            deps: None,
            shards: None,
            scores: Vec::new(),
            cur: Vec::new(),
            trajectory: None,
            deferred: None,
            iterations: 0,
            converged: false,
            final_delta: 0.0,
            error_bound: 0.0,
            pairs_evaluated: Vec::new(),
            iter_seconds: Vec::new(),
            delta_scheduled: false,
            shard_count: 0,
            peak_csr_bytes: 0,
            runtime: None,
            has_run: false,
        };
        engine.rebuild_store();
        Ok(engine)
    }

    fn ctx(&self) -> OpCtx<'_> {
        OpCtx {
            labels1: &self.labels1,
            labels2: &self.labels2,
            label_eval: &self.label_eval,
            theta: self.cfg.theta,
        }
    }

    fn rebuild_store(&mut self) {
        // Upper-bound evaluation parallelizes over the pre-prune base set;
        // spin the session pool up front when that base can plausibly use
        // it (the pool then persists into the iteration drivers anyway).
        if self.cfg.upper_bound.is_some() && self.cfg.threads > 1 {
            let full = self.g1.node_count().saturating_mul(self.g2.node_count());
            if full >= 2 * 4096
                && self.runtime.as_ref().map(|r| r.threads()) != Some(self.cfg.threads)
            {
                self.runtime = Some(Runtime::new(self.cfg.threads));
            }
        }
        let store = crate::candidates::enumerate_candidates_with(
            &self.g1,
            &self.g2,
            &self.ctx(),
            &self.cfg,
            &self.op,
            self.runtime.as_ref(),
        );
        self.store = store;
        // The dependency CSR, the shard plan and the recorded trajectory
        // all index the old store's slots; drop them.
        self.deps = None;
        self.shards = None;
        self.trajectory = None;
        self.deferred = None;
        self.refresh_label_terms();
        self.has_run = false;
    }

    /// Recomputes the per-slot label-term cache (store or label evaluation
    /// changed).
    fn refresh_label_terms(&mut self) {
        let ctx = self.ctx();
        let terms: Vec<f64> = self
            .store
            .pairs
            .iter()
            .map(|&(u, v)| ctx.label_sim(u, v))
            .collect();
        self.label_terms = terms;
    }

    /// Decides the run's scheduling substrate: the full dependency CSR
    /// (`deps`) or a shard plan (`shards`), never both and never neither.
    /// One rule picks it:
    ///
    /// * `ShardSpec::Fixed(k)` shards (rebuilding the plan when the
    ///   requested `k` changes), except under `FullSweep`, which ignores
    ///   the [`ShardSpec`];
    /// * `Auto` and `Approximate` convergence (which differ only in where
    ///   the run stops) shard under `ShardSpec::Auto` when the
    ///   degree-product estimate exceeds [`FsimConfig::csr_budget`],
    ///   picking the smallest `K` whose per-shard share fits (a cached
    ///   same-`K` plan and its boundary masks are reused);
    /// * every other case builds the full CSR.
    ///
    /// A CSR the session already holds is kept without a new estimate
    /// (it lives as long as the store), so a warm run pays no `O(|H|)`
    /// scan. A restored session decodes its deferred CSR here instead of
    /// building one, and drops its deferred trajectory undecoded (a run
    /// records its own). A kept CSR gets its row-key table here if it has
    /// none and the operator sums row maxima: a CSR restored from a
    /// snapshot derives it at its first evaluation, not at restore.
    fn ensure_scheduling(&mut self) {
        let wanted = self.shard_count_wanted();
        let deferred = self.deferred.take();
        match wanted {
            Some(k) => {
                self.deps = None;
                if self.shards.as_ref().map(|s| s.requested) != Some(k) {
                    self.shards = Some(ShardState::new(
                        &self.g1,
                        &self.g2,
                        &self.store,
                        k,
                        self.cfg.spill_dir.as_deref(),
                    ));
                }
            }
            None => {
                self.shards = None;
                if self.deps.is_none() {
                    let decoded = deferred.and_then(|d| d.decode(false).0);
                    self.deps = Some(decoded.unwrap_or_else(|| {
                        PairDepCsr::build(&self.g1, &self.g2, &self.ctx(), &self.store, &self.op)
                    }));
                }
                let deps = self.deps.as_mut().expect("built above");
                deps.ensure_rows(&self.g1, &self.g2, &self.store, &self.op);
            }
        }
    }

    /// The shard count the next run executes with, `None` for the full
    /// CSR — the rule of [`ensure_scheduling`](Self::ensure_scheduling).
    fn shard_count_wanted(&self) -> Option<usize> {
        match (self.cfg.convergence, self.cfg.shards) {
            (ConvergenceMode::FullSweep, _) => None,
            (_, ShardSpec::Fixed(k)) => Some(k),
            (ConvergenceMode::Auto | ConvergenceMode::Approximate { .. }, ShardSpec::Auto)
                if !self.holds_csr() =>
            {
                // The degree-product estimate: one O(|H|) degree scan.
                let entries = estimated_dep_entries(&self.g1, &self.g2, &self.store);
                let bytes =
                    entries * BYTES_PER_ENTRY + (self.store.len() as u128 + 1) * BYTES_PER_SLOT;
                (bytes > self.cfg.csr_budget as u128)
                    .then(|| auto_shard_count(bytes, self.cfg.csr_budget))
            }
            _ => None,
        }
    }

    /// Drops a held CSR when the next run would shard instead: the
    /// estimate a held CSR skips is re-taken after an edit batch and after
    /// a rerun that moved the budget or the shard spec.
    fn recheck_budget(&mut self) {
        if self.holds_csr() {
            let (deps, deferred) = (self.deps.take(), self.deferred.take());
            if self.shard_count_wanted().is_none() {
                (self.deps, self.deferred) = (deps, deferred);
            }
        }
    }

    /// Whether the session holds the full CSR, decoded or deferred.
    fn holds_csr(&self) -> bool {
        self.deps.is_some()
            || self
                .deferred
                .as_ref()
                .is_some_and(DeferredSections::has_deps)
    }

    /// Whether a run should attempt to record its trajectory at all:
    /// recording is optimistic — the [`Recorder`] abandons mid-run on
    /// budget overrun — but a store where even two iterates blow the
    /// budget is not worth the copies.
    fn should_record(&self) -> bool {
        let two_iterates = 2u128 * self.store.len() as u128 * 8;
        self.deps.is_some()
            // Sweep runs hold a CSR for the vectorized kernel but keep
            // the sweep's semantics — which never included recording.
            && self.cfg.convergence != ConvergenceMode::FullSweep
            && self.cfg.trajectory_budget > 0
            && two_iterates <= self.cfg.trajectory_budget as u128
    }

    /// Lazily spawns (or replaces) the session's persistent [`Runtime`]
    /// when the configured thread count and the current workload warrant
    /// parallel execution. An existing pool with the right worker count is
    /// kept — the whole point is that workers and their scratch state
    /// survive across runs. A pool is never torn down just because the
    /// workload shrank (a later rerun may grow it back); only a `threads`
    /// reconfiguration replaces it.
    fn ensure_runtime(&mut self) {
        if effective_threads(self.cfg.threads, self.store.len()) > 1
            && self.runtime.as_ref().map(|r| r.threads()) != Some(self.cfg.threads)
        {
            self.runtime = Some(Runtime::new(self.cfg.threads));
        }
    }

    /// Iterates Equation 3 to convergence (Algorithm 1) from a fresh
    /// initialization, reusing every cached precomputation and the score
    /// buffers of previous runs.
    pub fn run(&mut self) -> &mut Self {
        if self.store.is_empty() {
            self.scores.clear();
            self.iterations = 0;
            self.converged = true;
            self.final_delta = 0.0;
            self.error_bound = 0.0;
            self.pairs_evaluated.clear();
            self.iter_seconds.clear();
            self.delta_scheduled = false;
            self.shard_count = 0;
            self.peak_csr_bytes = 0;
            self.trajectory = None;
            self.deferred = None;
            self.has_run = true;
            return self;
        }
        self.ensure_scheduling();
        // A sweep run holds the CSR as its kernel's substrate; its
        // scheduling is still the full sweep.
        self.delta_scheduled = self.cfg.convergence != ConvergenceMode::FullSweep;
        self.ensure_runtime();
        // The previous trajectory's buffers are the recording's spares
        // (see `Recorder::new`). That trajectory is held through the run
        // either way, so refilling its buffers adds no peak memory.
        let previous = self.trajectory.take();
        let mut recorded = self.should_record().then(|| previous.unwrap_or_default());
        // Destructure so the iteration loop can borrow the caches
        // immutably while writing the score buffers.
        let Self {
            g1,
            g2,
            cfg,
            op,
            labels1,
            labels2,
            label_eval,
            store,
            label_terms,
            deps,
            shards,
            scores,
            cur,
            runtime,
            ..
        } = self;
        let (g1, g2): (&Graph, &Graph) = (g1, g2);
        initialize(store, cfg, g1, g2, label_terms, scores);
        let mut exec = Exec::new(runtime.as_ref(), cfg.threads);
        let limits = Limits::of(cfg);
        let mut shard_peak = 0usize;
        let outcome = if let Some(state) = shards.as_mut() {
            let ctx = OpCtx {
                labels1: labels1.as_slice(),
                labels2: labels2.as_slice(),
                label_eval,
                theta: cfg.theta,
            };
            let (outcome, peak) = run_sharded(
                &mut exec,
                g1,
                g2,
                &ctx,
                cfg,
                op,
                store,
                label_terms,
                state,
                limits,
                scores,
                cur,
            );
            shard_peak = peak;
            outcome
        } else {
            let csr = deps.as_ref().expect("a CSR or a shard plan");
            let kernel = csr.kernel(cfg, op, store, label_terms);
            if cfg.convergence == ConvergenceMode::FullSweep {
                run_sweep(&mut exec, &kernel, limits, scores, cur)
            } else {
                let mut recorder = recorded
                    .as_mut()
                    .map(|h| Recorder::new(h, cfg.trajectory_budget));
                run_delta(
                    &mut exec,
                    &kernel,
                    csr,
                    limits,
                    scores,
                    cur,
                    recorder.as_mut(),
                )
            }
        };
        self.shard_count = self.shards.as_ref().map_or(0, |s| s.plan.k());
        self.peak_csr_bytes = if self.shards.is_some() {
            shard_peak
        } else {
            self.deps.as_ref().map_or(0, |d| d.bytes())
        };
        // An abandoned (over-budget) recording comes back empty.
        self.trajectory = recorded.filter(|h| h.len() >= 2);
        self.error_bound = error_bound(&self.cfg, outcome.final_delta);
        self.iterations = outcome.iterations;
        self.converged = outcome.converged;
        self.final_delta = outcome.final_delta;
        self.pairs_evaluated = outcome.pairs_evaluated;
        self.iter_seconds = outcome.iter_seconds;
        self.has_run = true;
        self
    }

    /// Reconfigures the session and re-runs it, reusing every cached
    /// precomputation the change does not invalidate. Returns a
    /// [`ConfigError`] (leaving the session untouched) if the modified
    /// configuration is invalid.
    ///
    /// Scores after `rerun` are bitwise identical to a fresh one-shot
    /// [`compute`](crate::engine::compute) under the same configuration.
    pub fn rerun(
        &mut self,
        modify: impl FnOnce(&mut FsimConfig),
    ) -> Result<&mut Self, ConfigError> {
        let mut new_cfg = self.cfg.clone();
        modify(&mut new_cfg);
        new_cfg.validate()?;
        let label_changed = label_eval_changed(&self.cfg, &new_cfg);
        let store_stale = store_changed(&self.cfg, &new_cfg, label_changed);
        let substrate_moved =
            self.cfg.shards != new_cfg.shards || self.cfg.csr_budget != new_cfg.csr_budget;
        self.cfg = new_cfg;
        self.op.sync_cfg(&self.cfg);
        // A config change can alter the dependency entry lists (θ
        // eligibility, label constants, operator folding) under an
        // unchanged shard plan — spilled shard CSRs are stale.
        if let Some(state) = self.shards.as_mut() {
            state.clear_spill();
        }
        if label_changed {
            self.label_eval = build_label_eval(&self.cfg, &self.interner);
        }
        if store_stale {
            // Also drops the dependency CSR and refreshes the label-term
            // cache — both live exactly as long as the store.
            self.rebuild_store();
        } else if label_changed {
            // Store survives a label change only when nothing θ- or
            // pruning-related reads labels; eligibility is then vacuous
            // (θ = 0), so the CSR stays valid — but the cached label
            // terms do not.
            self.refresh_label_terms();
        }
        if substrate_moved {
            self.recheck_budget();
        }
        Ok(self.run())
    }

    /// Applies a batch of [`GraphEdit`]s to the session's graphs and
    /// re-converges, returning the updated scores.
    ///
    /// The whole write path is incremental: the adjacency CSRs are
    /// patched in place of a rebuild, candidate membership is
    /// re-enumerated only for the edit's dirty rows, the pair-dependency
    /// CSR re-derives entries only for the affected slots, and the
    /// convergence loop **replays** the previous run's recorded iterate
    /// trajectory — re-evaluating only the slots the edit can reach
    /// through the reverse dependency CSR. The result is **bitwise
    /// identical** to tearing the session down and recomputing from
    /// scratch on the edited graphs (`tests/incremental_edits.rs`
    /// property-checks this across variants × θ × pruning × threads),
    /// while warm single-edge edits re-evaluate a small fraction of the
    /// pairs (the `incremental` bench records the ratio in
    /// `BENCH_incremental.json`).
    ///
    /// Without a recorded trajectory (full-sweep scheduling, sharded
    /// execution, or a trajectory over
    /// [`FsimConfig::trajectory_budget`]) the structures are still
    /// repaired incrementally, but the iteration restarts cold.
    ///
    /// On error the session is left untouched. An all-no-op batch (edits
    /// that cancel or already hold) returns the current scores.
    ///
    /// ```
    /// use fsim_core::{compute, FsimConfig, FsimEngine, GraphEdit, GraphSide, Variant};
    /// use fsim_graph::graph_from_parts;
    /// use fsim_labels::LabelFn;
    ///
    /// let g1 = graph_from_parts(&["a", "b"], &[(0, 1)]);
    /// let g2 = graph_from_parts(&["a", "b", "b"], &[(0, 1)]);
    /// let cfg = FsimConfig::new(Variant::Simple).label_fn(LabelFn::Indicator);
    /// let mut engine = FsimEngine::new(&g1, &g2, &cfg).unwrap();
    /// engine.run();
    ///
    /// let warm = engine
    ///     .apply_edits(&[GraphEdit::add_edge(GraphSide::Right, 0, 2)])
    ///     .unwrap();
    /// // Bitwise identical to a cold computation on the edited graph.
    /// let g2_edited = g2.with_edits(&[(0, 2)], &[], &[]);
    /// let cold = compute(&g1, &g2_edited, &cfg).unwrap();
    /// for (a, b) in warm.iter_pairs().zip(cold.iter_pairs()) {
    ///     assert_eq!(a, b);
    /// }
    /// ```
    pub fn apply_edits(&mut self, edits: &[GraphEdit]) -> Result<FsimResult, EditError> {
        // Validate the whole batch for both sides before touching any
        // state — including the shared label interner, which `net`
        // grows for unseen relabel targets.
        validate_side(&self.g1, GraphSide::Left, edits)?;
        validate_side(&self.g2, GraphSide::Right, edits)?;
        let d1 = net_side_delta(&self.g1, GraphSide::Left, edits);
        let d2 = net_side_delta(&self.g2, GraphSide::Right, edits);
        if d1.is_empty() && d2.is_empty() {
            if !self.has_run {
                self.run();
            }
            return Ok(self.snapshot());
        }
        // A restored session's first edit decodes the CSR and trajectory
        // it deferred: the repairs below carry both into the edited store.
        if let Some(deferred) = self.deferred.take() {
            (self.deps, self.trajectory) = deferred.decode(true);
        }

        // Patch the graphs (CSR splice, not a rebuild) and derive the
        // node-level dirty sets from old + new adjacency.
        let apply_side = |g: &Graph, d: &SideDelta| -> Option<Graph> {
            (!d.is_empty()).then(|| g.with_edits(&d.adds, &d.removes, &d.relabels))
        };
        let g1_new = apply_side(&self.g1, &d1);
        let g2_new = apply_side(&self.g2, &d2);
        let dirty1 = DirtyNodes::of(
            &d1,
            &self.g1,
            g1_new.as_ref().unwrap_or(&self.g1),
            &self.cfg,
        );
        let dirty2 = DirtyNodes::of(
            &d2,
            &self.g2,
            g2_new.as_ref().unwrap_or(&self.g2),
            &self.cfg,
        );

        // Pre-edit adjacency of the edge endpoints (the only nodes whose
        // neighbor lists change) — needed to find the dependents of pairs
        // that leave the maintained set.
        let snapshot = |g: &Graph,
                        d: &SideDelta|
         -> fsim_graph::FxHashMap<NodeId, (Vec<NodeId>, Vec<NodeId>)> {
            let mut snap = fsim_graph::FxHashMap::default();
            for &(a, b) in d.adds.iter().chain(&d.removes) {
                for node in [a, b] {
                    snap.entry(node).or_insert_with(|| {
                        (
                            g.out_neighbors(node).to_vec(),
                            g.in_neighbors(node).to_vec(),
                        )
                    });
                }
            }
            snap
        };
        let snap1 = snapshot(&self.g1, &d1);
        let snap2 = snapshot(&self.g2, &d2);

        // Update the aligned label arrays (and the prepared label table if
        // the vocabulary grew).
        for (d, labels, graph) in [
            (&d1, &mut self.labels1, &self.g1),
            (&d2, &mut self.labels2, &self.g2),
        ] {
            for &(w, gid) in &d.relabels {
                let eid = if Arc::ptr_eq(&self.interner, graph.interner()) {
                    gid
                } else {
                    self.interner.intern(&graph.interner().resolve(gid))
                };
                labels[w as usize] = eid;
            }
        }
        if let LabelEval::Sim(prepared) = &self.label_eval {
            if self.interner.len() > prepared.label_count() {
                self.label_eval = build_label_eval(&self.cfg, &self.interner);
            }
        }
        if let Some(g) = g1_new {
            self.g1 = Cow::Owned(g);
        }
        if let Some(g) = g2_new {
            self.g2 = Cow::Owned(g);
        }

        // Repair the candidate store for the dirty rows only.
        let old_store = std::mem::replace(
            &mut self.store,
            PairStore {
                pairs: Vec::new(),
                index: crate::store::PairIndex::Dense { n2: 0 },
                fallback: crate::store::Fallback::Zero,
            },
        );
        let ctx = OpCtx {
            labels1: &self.labels1,
            labels2: &self.labels2,
            label_eval: &self.label_eval,
            theta: self.cfg.theta,
        };
        let repair: StoreRepair = repair_candidates(
            &self.g1,
            &self.g2,
            &ctx,
            &self.cfg,
            &self.op,
            old_store,
            &dirty1.membership,
            &dirty2.membership,
        );
        let n_new = repair.store.len();

        // Entry-dirty slots: pairs whose dependency lists must be
        // re-derived — structurally dirty rows, pairs entering the store,
        // and the dependents of every membership change.
        let mut entry_dirty = vec![false; n_new];
        let mut any_entry_dirty = false;
        {
            let pairs = &repair.store.pairs;
            for &u in &dirty1.structural {
                let lo = pairs.partition_point(|&(x, _)| x < u);
                let hi = pairs.partition_point(|&(x, _)| x <= u);
                for flag in &mut entry_dirty[lo..hi] {
                    *flag = true;
                    any_entry_dirty = true;
                }
            }
            if !dirty2.structural.is_empty() {
                for (slot, &(_, v)) in pairs.iter().enumerate() {
                    if dirty2.structural.contains(&v) {
                        entry_dirty[slot] = true;
                        any_entry_dirty = true;
                    }
                }
            }
            for (slot, &old) in repair.new_to_old.iter().enumerate() {
                if old == NO_SLOT {
                    entry_dirty[slot] = true;
                    any_entry_dirty = true;
                }
            }
            // Dependents of pairs that entered or left the store: slots
            // reading (u, v) as a neighbor pair live on the (pre- or
            // post-edit) in/out neighborhoods of u and v.
            let mut mark = |a: NodeId, b: NodeId| {
                if let Some(s) = repair.store.index.get(a, b) {
                    if s < n_new {
                        entry_dirty[s] = true;
                        any_entry_dirty = true;
                    }
                }
            };
            let hood = |g: &Graph,
                        snap: &fsim_graph::FxHashMap<NodeId, (Vec<NodeId>, Vec<NodeId>)>,
                        node: NodeId,
                        out: bool|
             -> Vec<NodeId> {
                let mut ns: Vec<NodeId> = if out {
                    g.out_neighbors(node).to_vec()
                } else {
                    g.in_neighbors(node).to_vec()
                };
                if let Some((o, i)) = snap.get(&node) {
                    ns.extend_from_slice(if out { o } else { i });
                    ns.sort_unstable();
                    ns.dedup();
                }
                ns
            };
            for &(u, v) in repair.removed_pairs.iter().chain(&repair.added_pairs) {
                for out in [false, true] {
                    // `out == false`: dependents via their out-neighbor
                    // term (they are in-neighbors of u/v); `out == true`:
                    // via their in-neighbor term.
                    for &a in &hood(&self.g1, &snap1, u, out) {
                        for &b in &hood(&self.g2, &snap2, v, out) {
                            mark(a, b);
                        }
                    }
                }
            }
        }

        // Repair the dependency CSR and the cached label terms, and
        // collect the always-dirty seed (entry-dirty ∪ relabeled rows)
        // for the replay.
        let mut label_terms = Vec::with_capacity(n_new);
        let mut always_dirty: Vec<u32> = Vec::new();
        for (slot, &(u, v)) in repair.store.pairs.iter().enumerate() {
            let old = repair.new_to_old[slot];
            let label_dirty = dirty1.relabeled.contains(&u) || dirty2.relabeled.contains(&v);
            if old != NO_SLOT && !label_dirty {
                label_terms.push(self.label_terms[old as usize]);
            } else {
                label_terms.push(ctx.label_sim(u, v));
            }
            if entry_dirty[slot] || label_dirty {
                always_dirty.push(slot as u32);
            }
        }
        let deps = self.deps.take().map(|old_deps| {
            if repair.membership_unchanged() && !any_entry_dirty {
                old_deps
            } else {
                old_deps.repaired(
                    &self.g1,
                    &self.g2,
                    &ctx,
                    &repair.store,
                    &self.op,
                    &repair.old_to_new,
                    &repair.new_to_old,
                    &entry_dirty,
                )
            }
        });

        // Carry the recorded trajectory into the new slot numbering
        // (added slots are always-dirty, so their filler is never read).
        let trajectory = self.trajectory.take().map(|traj| {
            if repair.membership_unchanged() {
                traj
            } else {
                traj.into_iter()
                    .map(|iterate| {
                        repair
                            .new_to_old
                            .iter()
                            .map(|&old| {
                                if old == NO_SLOT {
                                    0.0
                                } else {
                                    iterate[old as usize]
                                }
                            })
                            .collect()
                    })
                    .collect()
            }
        });

        // Sharded sessions: the plan's u-row ranges are keyed by the
        // store's slot numbering and the boundary masks by its dependency
        // lists. A membership change renumbers slots — drop the state and
        // let the next run's scheduling decision rebuild it (the plan is
        // an O(|H|) degree scan, nothing like a CSR build). Otherwise the
        // plan survives; if any dependency entries were re-derived the
        // masks are reset — a missing reader bit would silently skip a
        // dirty shard — and the next run's first sweep rebuilds them
        // while it visits the dirty shards anyway.
        if self.shards.is_some() && !repair.membership_unchanged() {
            self.shards = None;
        } else if any_entry_dirty {
            if let Some(state) = self.shards.as_mut() {
                state.invalidate_entries();
            }
        }
        self.store = repair.store;
        self.label_terms = label_terms;
        self.deps = deps;
        self.trajectory = trajectory;
        // A session that keeps densifying its graphs would otherwise
        // carry its CSR past the budget.
        self.recheck_budget();
        self.has_run = false;
        self.run_after_edits(always_dirty);
        Ok(self.snapshot())
    }

    /// Re-converges after [`apply_edits`](Self::apply_edits): replays the
    /// recorded trajectory when one is available, and runs cold otherwise.
    fn run_after_edits(&mut self, always_dirty: Vec<u32>) {
        if self.store.is_empty() {
            self.run();
            return;
        }
        self.ensure_scheduling();
        self.ensure_runtime();
        let mut old_traj = match (&self.deps, self.trajectory.take()) {
            (Some(_), Some(t)) if t.len() >= 2 && t[0].len() == self.store.len() => t,
            _ => {
                self.run();
                return;
            }
        };
        self.delta_scheduled = true;
        // The replay hands each old iterate to the recording as a spare
        // once it has read it for the last time (see `run_replay`).
        let mut recorded: Option<Vec<Vec<f64>>> = self.should_record().then(Vec::new);
        let outcome = {
            let Self {
                g1,
                g2,
                cfg,
                op,
                store,
                label_terms,
                deps,
                scores,
                cur,
                runtime,
                ..
            } = self;
            let (g1, g2): (&Graph, &Graph) = (g1, g2);
            let csr = deps.as_ref().expect("checked above");
            let (cfg, op): (&FsimConfig, &O) = (cfg, op);
            let (store, label_terms): (&PairStore, &[f64]) = (store, label_terms);
            initialize(store, cfg, g1, g2, label_terms, scores);
            let mut recorder = recorded
                .as_mut()
                .map(|h| Recorder::new(h, cfg.trajectory_budget));
            run_replay(
                &mut Exec::new(runtime.as_ref(), cfg.threads),
                &csr.kernel(cfg, op, store, label_terms),
                csr,
                Limits::of(cfg),
                &mut old_traj,
                &always_dirty,
                scores,
                cur,
                recorder.as_mut(),
            )
        };
        // An abandoned (over-budget) recording comes back empty.
        self.trajectory = recorded.filter(|h| h.len() >= 2);
        // Trajectory replay is a bitwise schedule over the full CSR
        // (sharded sessions never record, so they never get here).
        self.shard_count = 0;
        self.peak_csr_bytes = self.deps.as_ref().map_or(0, |d| d.bytes());
        self.error_bound = error_bound(&self.cfg, outcome.final_delta);
        self.iterations = outcome.iterations;
        self.converged = outcome.converged;
        self.final_delta = outcome.final_delta;
        self.pairs_evaluated = outcome.pairs_evaluated;
        self.iter_seconds = outcome.iter_seconds;
        self.has_run = true;
    }

    /// Score of a maintained pair, or `None` if `(u, v)` was pruned.
    ///
    /// # Panics
    /// Panics if the session has not been [`run`](Self::run).
    pub fn get(&self, u: NodeId, v: NodeId) -> Option<f64> {
        self.assert_run();
        self.store
            .index
            .get(u, v)
            .and_then(|i| self.scores.get(i).copied())
    }

    /// Score of *any* pair: maintained pairs read their converged value;
    /// pruned pairs are evaluated on demand with one Equation-3 step
    /// against the converged scores (their fixpoint value — see
    /// [`score_on_demand`](crate::engine::score_on_demand)), reusing the
    /// session's cached label alignment.
    ///
    /// # Panics
    /// Panics if the session has not been [`run`](Self::run), or if `u` /
    /// `v` is not a node of its graph.
    pub fn score(&self, u: NodeId, v: NodeId) -> f64 {
        if let Some(s) = self.get(u, v) {
            return s;
        }
        let ctx = self.ctx();
        let view = self.store.view(&self.scores);
        let mut scratch = OpScratch::new();
        pair_update(
            &self.g1,
            &self.g2,
            &ctx,
            &self.cfg,
            &self.op,
            u,
            v,
            &view,
            &mut scratch,
        )
    }

    /// The `k` best-scoring maintained pairs, descending by score (ties
    /// broken by `(u, v)`). `exclude_identity` drops `(u, u)` pairs.
    ///
    /// # Panics
    /// Panics if the session has not been [`run`](Self::run).
    pub fn top_k(&self, k: usize, exclude_identity: bool) -> Vec<(NodeId, NodeId, f64)> {
        self.assert_run();
        top_k_from_iter(self.iter_pairs(), k, exclude_identity)
    }

    /// Iterates `(u, v, score)` over maintained pairs in slot order.
    ///
    /// # Panics
    /// Panics if the session has not been [`run`](Self::run).
    pub fn iter_pairs(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + Clone + '_ {
        self.assert_run();
        self.store
            .pairs
            .iter()
            .zip(&self.scores)
            .map(|(&(u, v), &s)| (u, v, s))
    }

    /// For each left node `u`, all `v` within `tie_eps` of the row maximum
    /// (see [`FsimResult::argmax_rows`]).
    ///
    /// # Panics
    /// Panics if the session has not been [`run`](Self::run).
    pub fn argmax_rows(&self, n_left: usize, tie_eps: f64) -> Vec<Vec<NodeId>> {
        crate::result::argmax_rows_from_iter(self.iter_pairs(), n_left, tie_eps)
    }

    /// Number of maintained pairs (`|H|`).
    pub fn pair_count(&self) -> usize {
        self.store.len()
    }

    /// Iterations executed by the last run (0 before any run).
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Whether the last run reached `Δ < ε` before the iteration cap.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// The last run's final `Δ`.
    pub fn final_delta(&self) -> f64 {
        self.final_delta
    }

    /// Certified per-score error bound of the last run: `0` for the
    /// bitwise-exact convergence modes; under
    /// [`ConvergenceMode::Approximate`] the bound on the sup-norm
    /// distance to an exact run of the same configuration (see
    /// [`FsimResult::error_bound`]).
    pub fn error_bound(&self) -> f64 {
        self.error_bound
    }

    /// Pairs re-evaluated per iteration by the last run (empty before any
    /// run): `|H|` every iteration under the full sweep. Under
    /// delta-driven and sharded scheduling, iteration 1 counts every
    /// slot, a sparse step the dependents of the slots the previous
    /// iteration changed, and a dense step every *live* slot (one that
    /// reads at least one maintained score) — including live slots whose
    /// inputs did not change, so a dense step may count more than the
    /// slots that can change.
    pub fn pairs_evaluated(&self) -> &[usize] {
        &self.pairs_evaluated
    }

    /// Wall-clock seconds per iteration of the last run, aligned with
    /// [`pairs_evaluated`](Self::pairs_evaluated) (empty before any run).
    /// Under delta scheduling and edit replay each figure covers the
    /// whole iteration: repair, evaluation, frontier construction and
    /// trajectory recording.
    pub fn iteration_seconds(&self) -> &[f64] {
        &self.iter_seconds
    }

    /// Aggregate evaluation throughput of the last run in **pairs per
    /// second** — total pairs evaluated divided by the summed
    /// [`iteration_seconds`](Self::iteration_seconds) (whole-iteration
    /// wall clock), `None` before any run or when the run was too
    /// fast for the clock to resolve.
    pub fn pairs_per_second(&self) -> Option<f64> {
        let secs: f64 = self.iter_seconds.iter().sum();
        let pairs: usize = self.pairs_evaluated.iter().sum();
        (secs > 0.0 && pairs > 0).then(|| pairs as f64 / secs)
    }

    /// Whether the last run used delta-driven (dirty-pair) scheduling.
    pub fn delta_scheduled(&self) -> bool {
        self.delta_scheduled
    }

    /// Number of entries in the cached pair-dependency CSR, or `None`
    /// when no full CSR is held: before the first run, after a run over
    /// an empty store, and under sharded execution, whose per-shard CSRs
    /// are transient. Every other run holds the full CSR.
    pub fn dep_entry_count(&self) -> Option<usize> {
        match &self.deferred {
            Some(d) => d.dep_entry_count(),
            None => self.deps.as_ref().map(|d| d.entry_count()),
        }
    }

    /// Number of u-row shards the last run executed with, `0` when it ran
    /// unsharded (see [`ShardSpec`]).
    ///
    /// ```
    /// use fsim_core::{FsimConfig, FsimEngine, ShardSpec, Variant};
    /// use fsim_graph::graph_from_parts;
    ///
    /// let g = graph_from_parts(&["a", "b", "a"], &[(0, 1), (1, 2)]);
    /// let cfg = FsimConfig::new(Variant::Simple).shards(ShardSpec::Fixed(2));
    /// let mut engine = FsimEngine::new(&g, &g, &cfg).unwrap();
    /// engine.run();
    /// assert_eq!(engine.shard_count(), 2);
    /// assert!(engine.peak_csr_bytes() > 0);
    /// ```
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Peak resident bytes of dependency-CSR structures during the last
    /// run: the full CSR's footprint for unsharded runs, the **largest
    /// single shard CSR** built during a sharded run (only one is ever
    /// resident at a time), `0` for a run over an empty store. This is
    /// the quantity the `sharding` bench records to
    /// `BENCH_sharding.json`.
    pub fn peak_csr_bytes(&self) -> usize {
        self.peak_csr_bytes
    }

    /// Whether [`run`](Self::run) has produced scores for the current
    /// configuration.
    pub fn has_run(&self) -> bool {
        self.has_run
    }

    /// The active configuration.
    pub fn config(&self) -> &FsimConfig {
        &self.cfg
    }

    /// The session's graphs, `(G1, G2)` — the *edited* versions once
    /// [`apply_edits`](Self::apply_edits) has been used.
    pub fn graphs(&self) -> (&Graph, &Graph) {
        (&self.g1, &self.g2)
    }

    /// Whether the engine currently holds a recorded iterate trajectory —
    /// the prerequisite for [`apply_edits`](Self::apply_edits) to replay
    /// incrementally instead of recomputing cold (see
    /// [`FsimConfig::trajectory_budget`]).
    pub fn can_replay_edits(&self) -> bool {
        match &self.deferred {
            Some(d) => d.can_replay(),
            None => self.deps.is_some() && self.trajectory.as_ref().is_some_and(|t| t.len() >= 2),
        }
    }

    /// An owned [`FsimResult`] snapshot of the current scores (clones the
    /// candidate store; prefer the accessors above inside loops).
    ///
    /// # Panics
    /// Panics if the session has not been [`run`](Self::run).
    pub fn snapshot(&self) -> FsimResult {
        self.assert_run();
        FsimResult::new(
            self.store.clone(),
            self.scores.clone(),
            self.iterations,
            self.converged,
            self.final_delta,
            self.pairs_evaluated.clone(),
            self.iter_seconds.clone(),
            self.error_bound,
        )
    }

    /// An `Arc`-shared [`ScoreSnapshot`] of the current scores — the
    /// epoch a serving layer publishes. One `O(|H|)` copy of the store
    /// and score buffer; the per-iteration diagnostics and any recorded
    /// replay trajectory stay behind in the session, so the snapshot's
    /// footprint is independent of the run length (see the regression
    /// test in `snapshot.rs`). Cloning the returned snapshot is `O(1)`.
    ///
    /// # Panics
    /// Panics if the session has not been [`run`](Self::run).
    pub fn snapshot_shared(&self) -> ScoreSnapshot {
        self.assert_run();
        ScoreSnapshot::from_parts(
            Arc::new(self.store.clone()),
            self.scores.as_slice().into(),
            self.iterations,
            self.converged,
            self.final_delta,
            self.error_bound,
        )
    }

    /// Consumes the session into an [`FsimResult`] without copying the
    /// store or scores. Runs first if the session has pending
    /// (re)configuration.
    pub fn into_result(mut self) -> FsimResult {
        if !self.has_run {
            self.run();
        }
        FsimResult::new(
            self.store,
            self.scores,
            self.iterations,
            self.converged,
            self.final_delta,
            self.pairs_evaluated,
            self.iter_seconds,
            self.error_bound,
        )
    }

    fn assert_run(&self) {
        assert!(
            self.has_run,
            "FsimEngine: call run() (or rerun()) before reading scores"
        );
    }
}

impl<O: Operator> std::fmt::Debug for FsimEngine<'_, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FsimEngine")
            .field("n1", &self.g1.node_count())
            .field("n2", &self.g2.node_count())
            .field("pairs", &self.store.len())
            .field("has_run", &self.has_run)
            .field("iterations", &self.iterations)
            .field("converged", &self.converged)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use crate::engine::compute;
    use fsim_graph::examples::figure1;
    use fsim_labels::LabelFn;

    fn cfg(variant: Variant) -> FsimConfig {
        FsimConfig::new(variant).label_fn(LabelFn::Indicator)
    }

    fn assert_same_scores(engine: &FsimEngine<'_>, fresh: &FsimResult) {
        assert_eq!(engine.pair_count(), fresh.pair_count());
        for ((u1, v1, s1), (u2, v2, s2)) in engine.iter_pairs().zip(fresh.iter_pairs()) {
            assert_eq!((u1, v1), (u2, v2));
            assert_eq!(s1.to_bits(), s2.to_bits(), "diverged at ({u1},{v1})");
        }
    }

    #[test]
    fn session_matches_one_shot_compute() {
        let f = figure1();
        for variant in Variant::ALL {
            let mut engine = FsimEngine::new(&f.pattern, &f.data, &cfg(variant)).unwrap();
            engine.run();
            let fresh = compute(&f.pattern, &f.data, &cfg(variant)).unwrap();
            assert_same_scores(&engine, &fresh);
            assert_eq!(engine.iterations(), fresh.iterations);
            assert_eq!(engine.converged(), fresh.converged);
        }
    }

    #[test]
    fn rerun_theta_matches_fresh_compute() {
        let f = figure1();
        let mut engine = FsimEngine::new(&f.pattern, &f.data, &cfg(Variant::Simple)).unwrap();
        engine.run();
        for theta in [0.3, 1.0, 0.0] {
            engine.rerun(|c| c.theta = theta).unwrap();
            let fresh = compute(&f.pattern, &f.data, &cfg(Variant::Simple).theta(theta)).unwrap();
            assert_same_scores(&engine, &fresh);
        }
    }

    #[test]
    fn rerun_variant_matches_fresh_compute() {
        let f = figure1();
        let mut engine = FsimEngine::new(&f.pattern, &f.data, &cfg(Variant::Simple)).unwrap();
        engine.run();
        for variant in [Variant::Bijective, Variant::Bi, Variant::DegreePreserving] {
            engine.rerun(|c| c.variant = variant).unwrap();
            let fresh = compute(&f.pattern, &f.data, &cfg(variant)).unwrap();
            assert_same_scores(&engine, &fresh);
        }
    }

    #[test]
    fn rerun_epsilon_reiterates_without_store_rebuild() {
        let f = figure1();
        let mut engine = FsimEngine::new(&f.pattern, &f.data, &cfg(Variant::Bi)).unwrap();
        engine.run();
        let coarse_iters = engine.iterations();
        engine.rerun(|c| c.epsilon = 1e-6).unwrap();
        assert!(
            engine.iterations() > coarse_iters,
            "tighter ε must iterate further"
        );
        let mut strict = cfg(Variant::Bi);
        strict.epsilon = 1e-6;
        assert_same_scores(&engine, &compute(&f.pattern, &f.data, &strict).unwrap());
    }

    #[test]
    fn invalid_rerun_leaves_session_usable() {
        let f = figure1();
        let mut engine = FsimEngine::new(&f.pattern, &f.data, &cfg(Variant::Bi)).unwrap();
        engine.run();
        let before: Vec<_> = engine.iter_pairs().collect();
        assert!(engine.rerun(|c| c.theta = 7.0).is_err());
        assert_eq!(
            engine.config().theta,
            0.0,
            "failed rerun must not change config"
        );
        let after: Vec<_> = engine.iter_pairs().collect();
        assert_eq!(before, after);
    }

    #[test]
    fn score_serves_pruned_pairs_like_score_on_demand() {
        let f = figure1();
        let c = cfg(Variant::Simple).theta(1.0);
        let mut engine = FsimEngine::new(&f.pattern, &f.data, &c).unwrap();
        engine.run();
        let fresh = compute(&f.pattern, &f.data, &c).unwrap();
        let hex_in_pattern = 1u32;
        assert_eq!(
            engine.get(hex_in_pattern, f.v[0]),
            None,
            "pair must be pruned"
        );
        let on_demand =
            crate::engine::score_on_demand(&f.pattern, &f.data, &c, &fresh, hex_in_pattern, f.v[0]);
        assert_eq!(
            engine.score(hex_in_pattern, f.v[0]).to_bits(),
            on_demand.to_bits()
        );
    }

    #[test]
    fn top_k_matches_result_top_k() {
        let f = figure1();
        let mut engine = FsimEngine::new(&f.pattern, &f.data, &cfg(Variant::Bijective)).unwrap();
        engine.run();
        let via_result = crate::topk::top_k_pairs(&engine.snapshot(), 5, false);
        assert_eq!(engine.top_k(5, false), via_result);
    }

    #[test]
    fn snapshot_equals_into_result() {
        let f = figure1();
        let mut engine = FsimEngine::new(&f.pattern, &f.data, &cfg(Variant::Bi)).unwrap();
        engine.run();
        let snap = engine.snapshot();
        let owned = engine.into_result();
        assert_eq!(snap.pair_count(), owned.pair_count());
        for (a, b) in snap.iter_pairs().zip(owned.iter_pairs()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn label_fn_rerun_rebuilds_prepared_table() {
        let f = figure1();
        let mut engine = FsimEngine::new(&f.pattern, &f.data, &cfg(Variant::Simple)).unwrap();
        engine.run();
        engine.rerun(|c| c.label_fn = LabelFn::JaroWinkler).unwrap();
        let fresh = compute(&f.pattern, &f.data, &FsimConfig::new(Variant::Simple)).unwrap();
        assert_same_scores(&engine, &fresh);
    }

    #[test]
    fn parallel_session_matches_sequential_session() {
        let f = figure1();
        let mut seq = FsimEngine::new(&f.pattern, &f.data, &cfg(Variant::Bijective)).unwrap();
        seq.run();
        let mut par =
            FsimEngine::new(&f.pattern, &f.data, &cfg(Variant::Bijective).threads(4)).unwrap();
        par.run();
        for (a, b) in seq.iter_pairs().zip(par.iter_pairs()) {
            assert_eq!(a.2.to_bits(), b.2.to_bits());
        }
    }

    #[test]
    fn get_out_of_range_nodes_is_none() {
        let f = figure1();
        let mut engine = FsimEngine::new(&f.pattern, &f.data, &cfg(Variant::Simple)).unwrap();
        engine.run();
        let n1 = f.pattern.node_count() as u32;
        let n2 = f.data.node_count() as u32;
        // Dense store: out-of-range coordinates must not alias other slots.
        assert_eq!(engine.get(0, n2), None);
        assert_eq!(engine.get(0, n2 + 7), None);
        assert_eq!(engine.get(n1, 0), None);
        assert_eq!(engine.get(n1 + 3, n2 + 3), None);
    }

    #[test]
    fn apply_edits_matches_cold_recompute() {
        let f = figure1();
        for variant in Variant::ALL {
            let mut engine = FsimEngine::new(&f.pattern, &f.data, &cfg(variant)).unwrap();
            engine.run();
            assert!(engine.can_replay_edits(), "trajectory must be recorded");
            let edits = [
                GraphEdit::add_edge(GraphSide::Right, f.v[0], f.v[1]),
                GraphEdit::relabel(GraphSide::Left, 1, "pent"),
            ];
            engine.apply_edits(&edits).unwrap();
            let g1_edited =
                f.pattern
                    .with_edits(&[], &[], &[(1, f.pattern.interner().intern("pent"))]);
            let g2_edited = f.data.with_edits(&[(f.v[0], f.v[1])], &[], &[]);
            let fresh = compute(&g1_edited, &g2_edited, &cfg(variant)).unwrap();
            assert_same_scores(&engine, &fresh);
            assert_eq!(engine.iterations(), fresh.iterations, "{variant}");
            assert_eq!(engine.converged(), fresh.converged, "{variant}");
            assert_eq!(
                engine.final_delta().to_bits(),
                fresh.final_delta.to_bits(),
                "{variant}"
            );
        }
    }

    #[test]
    fn apply_edits_chains_across_batches() {
        let f = figure1();
        let mut engine = FsimEngine::new(&f.pattern, &f.data, &cfg(Variant::Bi)).unwrap();
        engine.run();
        engine
            .apply_edits(&[GraphEdit::add_edge(GraphSide::Right, f.v[2], f.v[0])])
            .unwrap();
        assert!(engine.can_replay_edits(), "trajectory must chain");
        engine
            .apply_edits(&[GraphEdit::remove_edge(GraphSide::Right, f.v[2], f.v[0])])
            .unwrap();
        // Net effect of both batches: the original graph.
        let fresh = compute(&f.pattern, &f.data, &cfg(Variant::Bi)).unwrap();
        assert_same_scores(&engine, &fresh);
    }

    #[test]
    fn noop_edit_batch_keeps_scores() {
        let f = figure1();
        let mut engine = FsimEngine::new(&f.pattern, &f.data, &cfg(Variant::Simple)).unwrap();
        engine.run();
        let before: Vec<_> = engine.iter_pairs().collect();
        let existing_label = f.data.label_str(f.v[0]).to_string();
        let out = engine
            .apply_edits(&[
                GraphEdit::remove_edge(GraphSide::Right, f.v[0], f.v[1]), // absent
                GraphEdit::relabel(GraphSide::Right, f.v[0], existing_label), // same
            ])
            .unwrap();
        let after: Vec<_> = engine.iter_pairs().collect();
        assert_eq!(before, after);
        assert_eq!(out.pair_count(), before.len());
    }

    #[test]
    fn invalid_edit_leaves_session_untouched() {
        let f = figure1();
        let mut engine = FsimEngine::new(&f.pattern, &f.data, &cfg(Variant::Simple)).unwrap();
        engine.run();
        let before: Vec<_> = engine.iter_pairs().collect();
        let vocab_before = f.pattern.interner().len();
        let err = engine
            .apply_edits(&[
                GraphEdit::relabel(GraphSide::Left, 0, "never-interned"),
                GraphEdit::add_edge(GraphSide::Left, 0, 999),
            ])
            .unwrap_err();
        assert!(matches!(err, EditError::NodeOutOfRange { node: 999, .. }));
        let after: Vec<_> = engine.iter_pairs().collect();
        assert_eq!(before, after);
        // The rejected batch must not have grown the shared vocabulary.
        assert_eq!(f.pattern.interner().len(), vocab_before);
        assert_eq!(f.pattern.interner().get("never-interned"), None);
    }

    #[test]
    fn edits_replay_evaluates_fewer_pairs_than_cold() {
        let f = figure1();
        let mut engine = FsimEngine::new(&f.pattern, &f.data, &cfg(Variant::Simple)).unwrap();
        engine.run();
        let cold_first_iteration = engine.pairs_evaluated()[0];
        assert_eq!(cold_first_iteration, engine.pair_count());
        engine
            .apply_edits(&[GraphEdit::add_edge(GraphSide::Right, f.v[0], f.v[1])])
            .unwrap();
        assert!(
            engine.pairs_evaluated()[0] < cold_first_iteration,
            "warm first iteration must skip clean pairs: {:?}",
            engine.pairs_evaluated()
        );
    }

    #[test]
    fn recorded_trajectory_holds_one_iterate_per_iteration_plus_init() {
        // A replay walks the recording by iteration number, so a recording
        // that is off by one still converges cold runs correctly but
        // misaligns every later replay.
        let aligned =
            |e: &FsimEngine<'_>| e.trajectory.as_ref().map(Vec::len) == Some(e.iterations() + 1);
        let f = figure1();
        // 80 nodes of one label: 6,400 slots, enough for the worker pool.
        let edges: Vec<(NodeId, NodeId)> = (0..80)
            .flat_map(|u| [(u, (u + 1) % 80), (u, (u * 7 + 3) % 80)])
            .collect();
        let wide = fsim_graph::graph_from_parts(&["a"; 80], &edges);
        let cases = [
            (
                &f.pattern,
                &f.data,
                1,
                GraphEdit::add_edge(GraphSide::Right, f.v[0], f.v[1]),
            ),
            (
                &wide,
                &wide,
                1,
                GraphEdit::remove_edge(GraphSide::Right, 5, 6),
            ),
            (
                &wide,
                &wide,
                2,
                GraphEdit::remove_edge(GraphSide::Right, 5, 6),
            ),
        ];
        for (g1, g2, threads, edit) in cases {
            let mut engine = FsimEngine::new(g1, g2, &cfg(Variant::Bi).threads(threads)).unwrap();
            engine.run();
            assert!(aligned(&engine), "after run, {threads} thread(s)");
            assert!(engine.can_replay_edits(), "the edit must replay");
            engine.apply_edits(&[edit]).unwrap();
            assert!(aligned(&engine), "after apply_edits, {threads} thread(s)");
        }
    }

    #[test]
    fn edits_without_trajectory_still_match_cold() {
        let f = figure1();
        // A zero budget disables recording; apply_edits repairs the
        // structures but re-iterates cold — results must still match.
        let c = cfg(Variant::Bijective).trajectory_budget(0);
        let mut engine = FsimEngine::new(&f.pattern, &f.data, &c).unwrap();
        engine.run();
        assert!(!engine.can_replay_edits());
        engine
            .apply_edits(&[GraphEdit::add_edge(GraphSide::Right, f.v[1], f.v[0])])
            .unwrap();
        let g2_edited = f.data.with_edits(&[(f.v[1], f.v[0])], &[], &[]);
        let fresh = compute(&f.pattern, &g2_edited, &c).unwrap();
        assert_same_scores(&engine, &fresh);
    }

    #[test]
    fn over_budget_recording_is_abandoned_mid_run_and_edits_still_match() {
        let f = figure1();
        let mut probe = FsimEngine::new(&f.pattern, &f.data, &cfg(Variant::Bi)).unwrap();
        probe.run();
        assert!(probe.iterations() > 3, "needs a multi-iteration run");
        // Room for three iterates only: recording starts, then abandons.
        let budget = 3 * probe.pair_count() * 8;
        let c = cfg(Variant::Bi).trajectory_budget(budget);
        let mut engine = FsimEngine::new(&f.pattern, &f.data, &c).unwrap();
        engine.run();
        assert!(
            !engine.can_replay_edits(),
            "over-budget recording must be dropped"
        );
        engine
            .apply_edits(&[GraphEdit::add_edge(GraphSide::Right, f.v[0], f.v[2])])
            .unwrap();
        let g2_edited = f.data.with_edits(&[(f.v[0], f.v[2])], &[], &[]);
        let fresh = compute(&f.pattern, &g2_edited, &c).unwrap();
        assert_same_scores(&engine, &fresh);
    }

    #[test]
    fn edits_under_pruning_match_cold() {
        let f = figure1();
        for theta in [0.0, 1.0] {
            let c = cfg(Variant::Bijective).theta(theta).upper_bound(0.3, 0.4);
            let mut engine = FsimEngine::new(&f.pattern, &f.data, &c).unwrap();
            engine.run();
            engine
                .apply_edits(&[
                    GraphEdit::add_edge(GraphSide::Right, f.v[3], f.v[0]),
                    GraphEdit::remove_edge(GraphSide::Right, f.v[2], 0),
                ])
                .unwrap();
            // Candidate membership may shift under the upper bound; the
            // result must match a cold engine on the edited graph.
            let (_, g2_now) = engine.graphs();
            let fresh = compute(&f.pattern, g2_now, &c).unwrap();
            assert_same_scores(&engine, &fresh);
        }
    }

    #[test]
    fn reading_before_run_panics() {
        let f = figure1();
        let engine = FsimEngine::new(&f.pattern, &f.data, &cfg(Variant::Bi)).unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.get(0, 0);
        }));
        assert!(err.is_err());
    }
}
