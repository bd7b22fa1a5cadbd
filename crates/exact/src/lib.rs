//! # fsim-exact
//!
//! Exact ("yes-or-no") χ-simulation machinery: fixpoint refinement for all
//! four variants (Definitions 1–3 of the paper), strong simulation for
//! pattern matching (the Table-6 baseline), k-bisimulation signatures
//! (Theorem 4), the Weisfeiler–Lehman test (Theorem 5), and a dense
//! reference oracle for the fractional scores of Equation 3
//! ([`fractional`]).

#![warn(missing_docs)]

pub mod fractional;
pub mod kbisim;
pub mod refinement;
pub mod relation;
pub mod strong;
pub mod wl;

pub use kbisim::{
    bisimulation_partition, bisimulation_partition_depth, kbisim_signatures,
    kbisim_signatures_joint, kbisimilar, signatures_to_partition,
};
pub use refinement::{simulates, simulation_relation, ExactVariant};
pub use relation::Relation;
pub use strong::{
    has_strong_match, strong_simulation_matches, strong_simulation_matches_limit, StrongMatch,
};
pub use wl::{wl_colors, wl_test};
