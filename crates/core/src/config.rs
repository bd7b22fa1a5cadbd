//! Configuration of an `FSimχ` computation.

use fsim_labels::LabelFn;

/// The four χ-simulation variants of Definition 2 / Definition 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Simple simulation (χ = s): no extra constraint.
    Simple,
    /// Degree-preserving simulation (χ = dp): injective neighbor mapping.
    DegreePreserving,
    /// Bisimulation (χ = b): converse invariant.
    Bi,
    /// Bijective simulation (χ = bj, new in the paper): injective *and*
    /// converse invariant.
    Bijective,
}

impl Variant {
    /// All variants in the paper's order.
    pub const ALL: [Variant; 4] = [
        Variant::Simple,
        Variant::DegreePreserving,
        Variant::Bi,
        Variant::Bijective,
    ];

    /// Whether the variant requires an injective neighbor mapping
    /// (Figure 3(a), "IN-mapping").
    pub fn in_mapping(self) -> bool {
        matches!(self, Variant::DegreePreserving | Variant::Bijective)
    }

    /// Whether the variant has the converse-invariant property
    /// (Figure 3(a)); such variants yield symmetric fractional scores (P3).
    pub fn converse_invariant(self) -> bool {
        matches!(self, Variant::Bi | Variant::Bijective)
    }

    /// The paper's short name (`s`, `dp`, `b`, `bj`).
    pub fn short_name(self) -> &'static str {
        match self {
            Variant::Simple => "s",
            Variant::DegreePreserving => "dp",
            Variant::Bi => "b",
            Variant::Bijective => "bj",
        }
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short_name())
    }
}

/// How the label term of Equation 1 (and the mapping label-constraint of
/// Remark 2) evaluates label pairs.
#[derive(Debug, Clone, PartialEq)]
pub enum LabelTermMode {
    /// Evaluate the configured [`LabelFn`] on the two label strings
    /// (the paper's default).
    Sim,
    /// A constant value for *every* pair — used by the SimRank (`0`) and
    /// RoleSim (`1`) configurations of §4.3.
    Constant(f64),
}

/// Initialization `FSim⁰` (§3.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InitScheme {
    /// `FSim⁰(u, v) = L(u, v)` — the paper's default.
    LabelSim,
    /// `1` iff `u == v` (SimRank configuration; assumes `G1 = G2`).
    Identity,
    /// `min(d⁺(u), d⁺(v)) / max(d⁺(u), d⁺(v))` (RoleSim configuration;
    /// `1` when both degrees are 0).
    OutDegreeRatio,
    /// A constant.
    Constant(f64),
}

/// Upper-bound updating (§3.4): maintain only pairs whose static upper
/// bound exceeds `beta`; absent pairs read as `alpha × upper-bound`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpperBoundPruning {
    /// Approximation ratio `α ∈ [0, 1)` substituted for pruned pairs.
    pub alpha: f64,
    /// Pruning threshold `β ∈ [0, 1]`.
    pub beta: f64,
}

/// How the engine iterates Equation 3 to convergence (Algorithm 1).
///
/// The exact modes (`Auto`, `FullSweep`, `DeltaDriven`) produce **bitwise
/// identical** scores, iteration counts and deltas; they differ only in
/// how much work each iteration performs. `Approximate` schedules like
/// `Auto` but stops earlier, at a relaxed ε, and reports a certified
/// per-score error bound in
/// [`FsimResult::error_bound`](crate::FsimResult::error_bound).
///
/// ```
/// use fsim_core::{compute, ConvergenceMode, FsimConfig, Variant};
/// use fsim_graph::graph_from_parts;
///
/// let g = graph_from_parts(&["a", "b", "a"], &[(0, 1), (1, 2)]);
/// let base = FsimConfig::new(Variant::Simple);
/// let sweep = compute(&g, &g, &base.clone().convergence(ConvergenceMode::FullSweep)).unwrap();
/// let delta = compute(&g, &g, &base.convergence(ConvergenceMode::DeltaDriven)).unwrap();
/// assert_eq!(sweep.iterations, delta.iterations);
/// for (a, b) in sweep.iter_pairs().zip(delta.iter_pairs()) {
///     assert_eq!(a, b);
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConvergenceMode {
    /// Delta-driven over the full dependency CSR, or — under
    /// [`ShardSpec::Auto`] when the estimated CSR exceeds
    /// [`FsimConfig::csr_budget`] — over u-row shards. The default.
    Auto,
    /// Re-evaluate every maintained pair on every iteration (the paper's
    /// Algorithm 1 as written), through the full dependency CSR whatever
    /// its size. Ignores [`ShardSpec`].
    FullSweep,
    /// Re-evaluate only pairs whose dependencies changed in the previous
    /// iteration, over the full pair-dependency CSR whatever its size (an
    /// explicit opt-in), or over `K` shards under [`ShardSpec::Fixed`].
    DeltaDriven,
    /// An **ε-relaxed exact run**: scheduled exactly like `Auto`, but
    /// stopped at the first iteration whose max delta falls below
    /// `ε' = max(ε, tolerance·ε/(w⁺+w⁻))` instead of `ε`. The iteration
    /// cap stays the one the configured ε sets, and the clamp keeps a
    /// tolerance below `w⁺+w⁻` from running longer than the exact modes.
    ///
    /// The run is a prefix of the exact run's trajectory, so its scores
    /// are the exact modes' bits at an earlier iteration — reproducible
    /// bit for bit across thread counts, shard layouts, snapshot restore
    /// and [`apply_edits`](crate::FsimEngine::apply_edits) (edits replay
    /// the recorded trajectory like exact sessions). Equation 3 is a
    /// contraction with factor `c = w⁺+w⁻ < 1` in the sup norm
    /// (Theorem 2), so by Banach's fixed-point argument a run whose last
    /// iteration moved no score by more than `Δ` sits within
    /// `c/(1−c)·(Δ + ε)` of the ε-converged exact result; the run reports
    /// that bound via
    /// [`FsimResult::error_bound`](crate::FsimResult::error_bound).
    ///
    /// The contraction is exact for the row-max and Hungarian mapping
    /// operators (both 1-Lipschitz in the sup norm); the greedy
    /// ½-approximate matcher can violate Lipschitz continuity at sort
    /// ties, where the bound becomes the paper's model rather than a hard
    /// guarantee.
    ///
    /// ```
    /// use fsim_core::{compute, ConvergenceMode, FsimConfig, Variant};
    /// use fsim_graph::graph_from_parts;
    /// use fsim_labels::LabelFn;
    ///
    /// let g = graph_from_parts(&["a", "b", "a"], &[(0, 1), (1, 2), (2, 0)]);
    /// let base = FsimConfig::new(Variant::Bi).label_fn(LabelFn::Indicator);
    /// let exact = compute(&g, &g, &base).unwrap();
    /// let approx = compute(
    ///     &g,
    ///     &g,
    ///     &base.convergence(ConvergenceMode::Approximate { tolerance: 1.0 }),
    /// )
    /// .unwrap();
    /// // Every score sits within the certified bound of the exact run.
    /// for (a, b) in exact.iter_pairs().zip(approx.iter_pairs()) {
    ///     assert!((a.2 - b.2).abs() <= approx.error_bound());
    /// }
    /// ```
    Approximate {
        /// Stopping-delta scale factor (> 0, finite): the run stops at
        /// `Δ < max(ε, tolerance·ε/(w⁺+w⁻))`. Larger values stop sooner
        /// with a looser error bound; at or below `w⁺+w⁻` the run stops
        /// where the exact modes do.
        tolerance: f64,
    },
}

impl ConvergenceMode {
    /// The tolerance when this is the approximate mode, `None` otherwise.
    pub fn approximate_tolerance(self) -> Option<f64> {
        match self {
            ConvergenceMode::Approximate { tolerance } => Some(tolerance),
            _ => None,
        }
    }
}

/// How the maintained set is partitioned into **u-row shards** for
/// memory-bounded execution (orthogonal to [`ConvergenceMode`]).
///
/// Under sharded execution the engine never materializes the full
/// pair-dependency CSR. It partitions the candidate store into `K`
/// contiguous `u`-row ranges (balanced by the same degree-product
/// estimate [`ConvergenceMode::Auto`] uses for its budget check), and
/// each iteration sweeps the shards one at a time: a shard's dependency
/// CSR is built, its dirty slots are evaluated against the global
/// previous-iteration score buffer, and the CSR is dropped before the
/// next shard is touched. Cross-shard dependencies flow through a
/// **boundary-exchange table** — per-slot masks of the shards that read
/// each slot plus the previous iteration's changed-score frontier — so
/// dirty-pair scheduling keeps working across shard boundaries. Peak
/// resident CSR memory is one shard's CSR instead of the whole store's;
/// the price is rebuilding each visited shard's CSR every sweep (the
/// `sharding` bench records the trade-off in `BENCH_sharding.json`).
///
/// Sharded execution of the **exact** modes is bitwise identical to
/// unsharded execution — scores, iteration counts, deltas and
/// per-iteration evaluation counts (`tests/sharded_convergence.rs`
/// property-checks this across variants × θ × pruning × threads × K).
/// So is sharded approximate execution, which stops on the same rule.
/// [`ConvergenceMode::FullSweep`] ignores the setting and always builds
/// the full CSR.
///
/// ```
/// use fsim_core::{compute, ConvergenceMode, FsimConfig, ShardSpec, Variant};
/// use fsim_graph::graph_from_parts;
///
/// let g = graph_from_parts(&["a", "b", "a"], &[(0, 1), (1, 2)]);
/// let base = FsimConfig::new(Variant::Simple);
/// let whole = compute(&g, &g, &base).unwrap();
/// let sharded = compute(&g, &g, &base.clone().shards(ShardSpec::Fixed(2))).unwrap();
/// assert_eq!(whole.iterations, sharded.iterations);
/// for (a, b) in whole.iter_pairs().zip(sharded.iter_pairs()) {
///     assert_eq!(a, b); // bitwise identical
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardSpec {
    /// Shard only when needed: under [`ConvergenceMode::Auto`] and
    /// [`ConvergenceMode::Approximate`], a workload whose estimated CSR
    /// exceeds [`FsimConfig::csr_budget`] is sharded with the smallest
    /// `K` whose per-shard estimate fits the budget (clamped to
    /// [`FsimConfig::MAX_SHARDS`]). Workloads that fit, and the other
    /// modes, stay unsharded. The default.
    Auto,
    /// Never shard: every run builds the full CSR, whatever the budget.
    Off,
    /// Always execute with exactly this many u-row shards (1 ≤ K ≤
    /// [`FsimConfig::MAX_SHARDS`]; capped by the number of distinct
    /// `u`-rows). `Fixed(1)` exercises the sharded driver with a single
    /// shard — useful for isolating its per-sweep rebuild overhead.
    Fixed(usize),
}

/// Which assignment algorithm implements the injective mapping operators
/// `M_dp` / `M_bj`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatcherKind {
    /// Greedy 1/2-approximation (the paper's choice, §4.2).
    Greedy,
    /// Exact Hungarian — `O(n³)`; for ablation studies.
    Hungarian,
}

/// Full configuration of an `FSimχ` computation.
///
/// Construct with [`FsimConfig::new`] (the paper's default experimental
/// setting) and adjust via the builder methods or the public fields:
///
/// ```
/// use fsim_core::{ConvergenceMode, FsimConfig, Variant};
///
/// let mut cfg = FsimConfig::new(Variant::Bijective)
///     .theta(0.8)
///     .threads(4)
///     .convergence(ConvergenceMode::DeltaDriven);
/// cfg.epsilon = 1e-6;
/// assert!(cfg.validate().is_ok());
/// assert_eq!(cfg.effective_max_iters(), cfg.iteration_bound());
/// ```
#[derive(Debug, Clone)]
pub struct FsimConfig {
    /// Simulation variant χ.
    pub variant: Variant,
    /// Weight `w⁺` of the out-neighbor term.
    pub w_out: f64,
    /// Weight `w⁻` of the in-neighbor term.
    pub w_in: f64,
    /// Label-constrained mapping threshold θ (Remark 2). `0` disables.
    pub theta: f64,
    /// Convergence threshold ε: stop when `max |Δ| < ε`.
    pub epsilon: f64,
    /// Iteration cap; defaults to the Corollary-1 bound
    /// `⌈log_{w⁺+w⁻} ε⌉` when `None`.
    pub max_iters: Option<usize>,
    /// The label function `L(·)`.
    pub label_fn: LabelFn,
    /// Label-term evaluation mode.
    pub label_term: LabelTermMode,
    /// Score initialization.
    pub init: InitScheme,
    /// Optional upper-bound pruning (§3.4).
    pub upper_bound: Option<UpperBoundPruning>,
    /// Worker threads for the iterative update (≥ 1).
    pub threads: usize,
    /// Injective-mapping algorithm.
    pub matcher: MatcherKind,
    /// Pin `FSim(u, u) = 1` for equal ids (SimRank's fixed diagonal;
    /// meaningful only when both graphs are the same graph).
    pub pin_identical: bool,
    /// How the convergence loop schedules pair re-evaluation.
    pub convergence: ConvergenceMode,
    /// How the maintained set is partitioned into u-row shards for
    /// memory-bounded execution (see [`ShardSpec`]). Orthogonal to
    /// [`convergence`](Self::convergence): exact sharded execution stays
    /// bitwise identical to unsharded.
    pub shards: ShardSpec,
    /// Memory budget (bytes) for the pair-dependency CSR. It decides one
    /// thing: whether [`ConvergenceMode::Auto`] and
    /// [`ConvergenceMode::Approximate`] runs under [`ShardSpec::Auto`]
    /// shard, which they do when the degree-product estimate exceeds it.
    /// Checked when the CSR would be built and after an edit batch.
    /// Default 256 MiB.
    pub csr_budget: usize,
    /// Memory budget (bytes) for the recorded iterate **trajectory** that
    /// lets [`FsimEngine::apply_edits`](crate::FsimEngine::apply_edits)
    /// replay convergence incrementally after a graph edit. A run under
    /// delta scheduling snapshots each iterate (an `O(|H|)` copy per
    /// iteration) until the accumulated size exceeds the budget, at which
    /// point the recording is discarded and edits fall back to a cold
    /// re-iteration (still with incrementally repaired structures). Set
    /// `0` to disable recording — and its per-iteration copy — for
    /// sessions that never edit their graphs. Default 256 MiB.
    pub trajectory_budget: usize,
    /// Directory for **shard-CSR spill files**. When set, a sharded
    /// session writes each shard's dependency CSR to disk on first
    /// build and re-maps it on later sweeps instead of re-deriving it
    /// (spills are invalidated whenever the entries would change, so
    /// scores are bitwise unaffected). `None` (the default) rebuilds
    /// per sweep. A machine-local path: deliberately **not** carried
    /// into session snapshots.
    pub spill_dir: Option<std::path::PathBuf>,
}

impl FsimConfig {
    /// Default [`csr_budget`](Self::csr_budget): 256 MiB.
    pub const DEFAULT_CSR_BUDGET: usize = 256 << 20;

    /// Default [`trajectory_budget`](Self::trajectory_budget): 256 MiB.
    pub const DEFAULT_TRAJECTORY_BUDGET: usize = 256 << 20;

    /// Upper limit on [`ShardSpec::Fixed`] shard counts (the
    /// boundary-exchange table stores which shards read each slot as one
    /// 64-bit mask per slot).
    pub const MAX_SHARDS: usize = 64;

    /// The paper's default experimental setting for a variant:
    /// `w⁺ = w⁻ = 0.4` (`w* = 0.2`), `θ = 0`, `ε = 0.01`, Jaro–Winkler
    /// initialization, greedy matcher, single thread.
    pub fn new(variant: Variant) -> Self {
        Self {
            variant,
            w_out: 0.4,
            w_in: 0.4,
            theta: 0.0,
            epsilon: 0.01,
            max_iters: None,
            label_fn: LabelFn::JaroWinkler,
            label_term: LabelTermMode::Sim,
            init: InitScheme::LabelSim,
            upper_bound: None,
            threads: 1,
            matcher: MatcherKind::Greedy,
            pin_identical: false,
            convergence: ConvergenceMode::Auto,
            shards: ShardSpec::Auto,
            csr_budget: Self::DEFAULT_CSR_BUDGET,
            trajectory_budget: Self::DEFAULT_TRAJECTORY_BUDGET,
            spill_dir: None,
        }
    }

    /// Sets both neighbor weights (builder style).
    pub fn weights(mut self, w_out: f64, w_in: f64) -> Self {
        self.w_out = w_out;
        self.w_in = w_in;
        self
    }

    /// Sets θ.
    pub fn theta(mut self, theta: f64) -> Self {
        self.theta = theta;
        self
    }

    /// Sets the label function.
    pub fn label_fn(mut self, f: LabelFn) -> Self {
        self.label_fn = f;
        self
    }

    /// Enables upper-bound pruning.
    pub fn upper_bound(mut self, alpha: f64, beta: f64) -> Self {
        self.upper_bound = Some(UpperBoundPruning { alpha, beta });
        self
    }

    /// Sets the thread count.
    pub fn threads(mut self, t: usize) -> Self {
        self.threads = t;
        self
    }

    /// Sets the convergence scheduling mode.
    pub fn convergence(mut self, mode: ConvergenceMode) -> Self {
        self.convergence = mode;
        self
    }

    /// Sets the u-row sharding policy (see [`ShardSpec`]).
    pub fn shards(mut self, spec: ShardSpec) -> Self {
        self.shards = spec;
        self
    }

    /// Sets the dependency-CSR memory budget (bytes) consulted by
    /// [`ConvergenceMode::Auto`].
    pub fn csr_budget(mut self, bytes: usize) -> Self {
        self.csr_budget = bytes;
        self
    }

    /// Sets the iterate-trajectory memory budget (bytes) that gates
    /// incremental edit replay (`0` disables recording).
    ///
    /// ```
    /// use fsim_core::{FsimConfig, FsimEngine, Variant};
    /// use fsim_graph::graph_from_parts;
    /// use fsim_labels::LabelFn;
    ///
    /// let g = graph_from_parts(&["a", "b"], &[(0, 1)]);
    /// // Serving sessions that never edit their graphs can skip the
    /// // per-iteration recording copy entirely.
    /// let cfg = FsimConfig::new(Variant::Simple)
    ///     .label_fn(LabelFn::Indicator)
    ///     .trajectory_budget(0);
    /// let mut engine = FsimEngine::new(&g, &g, &cfg).unwrap();
    /// engine.run();
    /// assert!(!engine.can_replay_edits()); // edits re-iterate cold, still bitwise
    /// ```
    pub fn trajectory_budget(mut self, bytes: usize) -> Self {
        self.trajectory_budget = bytes;
        self
    }

    /// Sets the shard-CSR spill directory (see
    /// [`spill_dir`](Self::spill_dir)).
    pub fn spill_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// The label-term weight `w* = 1 − w⁺ − w⁻`.
    pub fn w_label(&self) -> f64 {
        1.0 - self.w_out - self.w_in
    }

    /// The Corollary-1 iteration bound `⌈log_{w⁺+w⁻} ε⌉` (falls back to 1
    /// when the weights make the bound degenerate).
    pub fn iteration_bound(&self) -> usize {
        let w = self.w_out + self.w_in;
        if w <= 0.0 || w >= 1.0 || self.epsilon <= 0.0 || self.epsilon >= 1.0 {
            return 1;
        }
        (self.epsilon.ln() / w.ln()).ceil().max(1.0) as usize
    }

    /// Effective iteration cap.
    pub fn effective_max_iters(&self) -> usize {
        self.max_iters.unwrap_or_else(|| self.iteration_bound())
    }

    /// Validates the constraints of §3.2 (`0 ≤ w⁺ < 1`, `0 ≤ w⁻ < 1`,
    /// `0 < w⁺ + w⁻ < 1`) plus parameter ranges. NaN and ±∞ are rejected
    /// everywhere: a non-finite ε would silently degrade the Corollary-1
    /// iteration bound ([`iteration_bound`](Self::iteration_bound)) to 1,
    /// and NaN weights/θ would corrupt every comparison downstream.
    pub fn validate(&self) -> Result<(), ConfigError> {
        // `contains` rejects NaN/±∞ for free: NaN compares false, and the
        // half-open upper end excludes +∞.
        if !(0.0..1.0).contains(&self.w_out) || !(0.0..1.0).contains(&self.w_in) {
            return Err(ConfigError::WeightRange {
                w_out: self.w_out,
                w_in: self.w_in,
            });
        }
        let w = self.w_out + self.w_in;
        if !(w > 0.0 && w < 1.0) {
            return Err(ConfigError::WeightSum { sum: w });
        }
        if !(0.0..=1.0).contains(&self.theta) {
            return Err(ConfigError::Theta { theta: self.theta });
        }
        // ε must always be finite (NaN never converges; ±∞ converges
        // vacuously). Without an explicit iteration cap it must also lie
        // in (0, 1) so the Corollary-1 bound is well-defined; with a cap,
        // ε ≤ 0 is the documented "run exactly max_iters" idiom.
        if !self.epsilon.is_finite()
            || (self.max_iters.is_none() && !(self.epsilon > 0.0 && self.epsilon < 1.0))
        {
            return Err(ConfigError::Epsilon {
                epsilon: self.epsilon,
            });
        }
        if let ConvergenceMode::Approximate { tolerance } = self.convergence {
            if !(tolerance.is_finite() && tolerance > 0.0) {
                return Err(ConfigError::Tolerance { tolerance });
            }
        }
        if let ShardSpec::Fixed(k) = self.shards {
            if k == 0 || k > Self::MAX_SHARDS {
                return Err(ConfigError::Shards { shards: k });
            }
        }
        if self.threads == 0 {
            return Err(ConfigError::Threads);
        }
        if let Some(ub) = self.upper_bound {
            if !(0.0..1.0).contains(&ub.alpha) || !(0.0..=1.0).contains(&ub.beta) {
                return Err(ConfigError::UpperBound {
                    alpha: ub.alpha,
                    beta: ub.beta,
                });
            }
        }
        Ok(())
    }
}

/// Configuration validation errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A weight fell outside `[0, 1)`.
    WeightRange {
        /// Offending `w⁺`.
        w_out: f64,
        /// Offending `w⁻`.
        w_in: f64,
    },
    /// `w⁺ + w⁻` fell outside `(0, 1)`.
    WeightSum {
        /// The offending sum.
        sum: f64,
    },
    /// θ outside `[0, 1]`.
    Theta {
        /// The offending θ.
        theta: f64,
    },
    /// ε must be finite, and in `(0, 1)` unless an explicit iteration cap
    /// is given.
    Epsilon {
        /// The offending ε.
        epsilon: f64,
    },
    /// The approximate-mode tolerance must be finite and positive.
    Tolerance {
        /// The offending tolerance.
        tolerance: f64,
    },
    /// A fixed shard count outside `1..=MAX_SHARDS`.
    Shards {
        /// The offending shard count.
        shards: usize,
    },
    /// Thread count must be ≥ 1.
    Threads,
    /// Upper-bound parameters out of range (`α ∈ [0,1)`, `β ∈ [0,1]`).
    UpperBound {
        /// The offending α.
        alpha: f64,
        /// The offending β.
        beta: f64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::WeightRange { w_out, w_in } => {
                write!(f, "weights must be in [0,1): w+={w_out}, w-={w_in}")
            }
            ConfigError::WeightSum { sum } => {
                write!(f, "w+ + w- must lie in (0,1), got {sum}")
            }
            ConfigError::Theta { theta } => write!(f, "theta must be in [0,1], got {theta}"),
            ConfigError::Epsilon { epsilon } => {
                write!(
                    f,
                    "epsilon must be finite and in (0,1) (or set max_iters), got {epsilon}"
                )
            }
            ConfigError::Tolerance { tolerance } => {
                write!(
                    f,
                    "approximate-mode tolerance must be finite and > 0, got {tolerance}"
                )
            }
            ConfigError::Shards { shards } => {
                write!(
                    f,
                    "fixed shard count must lie in 1..={}, got {shards}",
                    FsimConfig::MAX_SHARDS
                )
            }
            ConfigError::Threads => write!(f, "thread count must be >= 1"),
            ConfigError::UpperBound { alpha, beta } => {
                write!(
                    f,
                    "upper-bound params out of range: alpha={alpha}, beta={beta}"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        for v in Variant::ALL {
            assert!(FsimConfig::new(v).validate().is_ok());
        }
    }

    #[test]
    fn weight_sum_must_be_strictly_inside_unit_interval() {
        let c = FsimConfig::new(Variant::Simple).weights(0.5, 0.5);
        assert!(matches!(c.validate(), Err(ConfigError::WeightSum { .. })));
        let c = FsimConfig::new(Variant::Simple).weights(0.0, 0.0);
        assert!(matches!(c.validate(), Err(ConfigError::WeightSum { .. })));
        let c = FsimConfig::new(Variant::Simple).weights(0.0, 0.8);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn iteration_bound_matches_corollary1() {
        let c = FsimConfig::new(Variant::Simple); // w = 0.8, eps = 0.01
                                                  // log_0.8(0.01) ≈ 20.6 → 21
        assert_eq!(c.iteration_bound(), 21);
    }

    #[test]
    fn properties_table_of_figure3a() {
        assert!(!Variant::Simple.in_mapping() && !Variant::Simple.converse_invariant());
        assert!(Variant::DegreePreserving.in_mapping());
        assert!(!Variant::DegreePreserving.converse_invariant());
        assert!(!Variant::Bi.in_mapping() && Variant::Bi.converse_invariant());
        assert!(Variant::Bijective.in_mapping() && Variant::Bijective.converse_invariant());
    }

    #[test]
    fn invalid_params_are_rejected() {
        assert!(FsimConfig::new(Variant::Bi).theta(1.5).validate().is_err());
        assert!(FsimConfig::new(Variant::Bi).threads(0).validate().is_err());
        assert!(FsimConfig::new(Variant::Bi)
            .upper_bound(1.0, 0.5)
            .validate()
            .is_err());
        let mut c = FsimConfig::new(Variant::Bi);
        c.epsilon = 0.0;
        assert!(c.validate().is_err());
        c.max_iters = Some(5);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn non_finite_params_are_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let c = FsimConfig::new(Variant::Simple).weights(bad, 0.4);
            assert!(
                matches!(c.validate(), Err(ConfigError::WeightRange { .. })),
                "w_out={bad}"
            );
            let c = FsimConfig::new(Variant::Simple).weights(0.4, bad);
            assert!(
                matches!(c.validate(), Err(ConfigError::WeightRange { .. })),
                "w_in={bad}"
            );
            let c = FsimConfig::new(Variant::Simple).theta(bad);
            assert!(
                matches!(c.validate(), Err(ConfigError::Theta { .. })),
                "theta={bad}"
            );
            let mut c = FsimConfig::new(Variant::Simple);
            c.epsilon = bad;
            assert!(
                matches!(c.validate(), Err(ConfigError::Epsilon { .. })),
                "eps={bad}"
            );
            // A non-finite ε is rejected even with an explicit cap: NaN
            // never converges and ±∞ converges vacuously.
            c.max_iters = Some(3);
            assert!(
                matches!(c.validate(), Err(ConfigError::Epsilon { .. })),
                "capped eps={bad}"
            );
            let c = FsimConfig::new(Variant::Simple).upper_bound(bad, 0.5);
            assert!(
                matches!(c.validate(), Err(ConfigError::UpperBound { .. })),
                "alpha={bad}"
            );
        }
    }

    #[test]
    fn epsilon_must_leave_iteration_bound_meaningful() {
        // ε ≥ 1 silently degraded the Corollary-1 bound to a single
        // iteration; it is now rejected unless an explicit cap is given.
        let mut c = FsimConfig::new(Variant::Simple);
        c.epsilon = 1.0;
        assert!(matches!(c.validate(), Err(ConfigError::Epsilon { .. })));
        c.max_iters = Some(4);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn approximate_tolerance_is_validated() {
        let approx = |tolerance: f64| {
            FsimConfig::new(Variant::Simple).convergence(ConvergenceMode::Approximate { tolerance })
        };
        assert!(approx(1.0).validate().is_ok());
        assert!(approx(0.25).validate().is_ok());
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(approx(bad).validate(), Err(ConfigError::Tolerance { .. })),
                "tolerance={bad}"
            );
        }
        assert_eq!(approx(0.5).convergence.approximate_tolerance(), Some(0.5));
        assert_eq!(ConvergenceMode::Auto.approximate_tolerance(), None);
    }

    #[test]
    fn shard_spec_is_validated() {
        let with = |spec: ShardSpec| FsimConfig::new(Variant::Simple).shards(spec);
        assert!(with(ShardSpec::Auto).validate().is_ok());
        assert!(with(ShardSpec::Off).validate().is_ok());
        assert!(with(ShardSpec::Fixed(1)).validate().is_ok());
        assert!(with(ShardSpec::Fixed(FsimConfig::MAX_SHARDS))
            .validate()
            .is_ok());
        for bad in [0, FsimConfig::MAX_SHARDS + 1, usize::MAX] {
            assert!(
                matches!(
                    with(ShardSpec::Fixed(bad)).validate(),
                    Err(ConfigError::Shards { .. })
                ),
                "shards={bad}"
            );
        }
    }

    #[test]
    fn w_label_complements_weights() {
        let c = FsimConfig::new(Variant::Simple).weights(0.3, 0.5);
        assert!((c.w_label() - 0.2).abs() < 1e-12);
    }
}
