//! # fsim-core
//!
//! The paper's primary contribution: the **`FSimχ` framework** computing
//! fractional χ-simulation scores — the degree, in `[0, 1]`, to which a node
//! `u ∈ G1` is approximately χ-simulated by a node `v ∈ G2` — for the four
//! simulation variants of the paper (simple, degree-preserving, bi-,
//! bijective) and for user-defined operator configurations (SimRank,
//! RoleSim, k-bisimulation, …).
//!
//! ```
//! use fsim_core::{compute, FsimConfig, Variant};
//! use fsim_graph::examples::figure1;
//! use fsim_labels::LabelFn;
//!
//! let f = figure1();
//! let cfg = FsimConfig::new(Variant::Bijective).label_fn(LabelFn::Indicator);
//! let result = compute(&f.pattern, &f.data, &cfg).unwrap();
//! // u is exactly bj-simulated by v4 only:
//! assert!(result.get(f.u, f.v[3]).unwrap() > 0.999);
//! assert!(result.get(f.u, f.v[0]).unwrap() < 0.999);
//! ```
//!
//! For repeated queries over one graph pair — θ sweeps, variant
//! comparisons, top-k passes — build a reusable [`FsimEngine`] session
//! instead of calling [`compute`] in a loop:
//!
//! ```
//! use fsim_core::{FsimConfig, FsimEngine, Variant};
//! use fsim_graph::examples::figure1;
//! use fsim_labels::LabelFn;
//!
//! let f = figure1();
//! let cfg = FsimConfig::new(Variant::Simple).label_fn(LabelFn::Indicator);
//! let mut engine = FsimEngine::new(&f.pattern, &f.data, &cfg).unwrap();
//! engine.run();
//! for theta in [0.0, 0.5, 1.0] {
//!     engine.rerun(|c| c.theta = theta).unwrap();
//!     assert!(engine.score(f.u, f.v[3]) > 0.999);
//! }
//! ```

#![warn(missing_docs)]

pub mod candidates;
pub mod config;
pub mod engine;
pub mod operators;
pub mod presets;
pub mod result;
pub mod snapshot;
pub mod store;
pub mod topk;

pub use config::{
    ConfigError, ConvergenceMode, FsimConfig, InitScheme, LabelTermMode, MatcherKind, ShardSpec,
    UpperBoundPruning, Variant,
};
pub use engine::{
    all_variants, compute, compute_with_operator, live_runtime_workers, scan_snapshot_dir,
    score_on_demand, EditError, FsimEngine, GraphEdit, GraphSide,
};
pub use fsim_snapshot::SnapshotError;
pub use operators::{
    DepEntry, LabelEval, OpCtx, OpScratch, Operator, ScoreLookup, SimRankOp, VariantOp,
};
pub use presets::{
    bounded_fsim, kbisim_via_framework, milner_config, rolesim_via_framework, simrank_config,
    simrank_via_framework,
};
pub use result::FsimResult;
pub use snapshot::{score_hash, ScoreSnapshot};
pub use topk::{top_k_pairs, top_k_search, TopK};
