//! # fsim-eval
//!
//! The experiment harness: metrics (Pearson correlation, nDCG), report
//! formatting, and one runner per table/figure of the paper's evaluation
//! (`fsim-exp list` prints the experiment index). The `fsim-exp` binary
//! regenerates any table or figure: `fsim-exp table6`, `fsim-exp all`.

#![warn(missing_docs)]

pub mod experiments;
pub mod metrics;
pub mod opts;
pub mod report;

pub use metrics::{dcg, ndcg, pearson, result_correlation};
pub use opts::ExpOpts;
pub use report::{fmt3, fmt_secs, CellParseError, Report};
