//! # fsim-bench
//!
//! Shared workload builders for the Criterion benches. Each bench target
//! regenerates one timing figure of the paper (see DESIGN.md §3) or an
//! ablation of a design choice (greedy vs Hungarian mapping, label
//! functions, exact vs fractional computation).

use fsim_datasets::DatasetSpec;
use fsim_graph::Graph;
use std::time::Instant;

/// A small NELL-like graph sized for statistical benching (criterion runs
/// each measurement many times).
pub fn bench_nell(extra: f64) -> Graph {
    DatasetSpec::by_name("NELL")
        .expect("spec")
        .generate_scaled(extra, 42)
}

/// A small ACMCit-like graph.
pub fn bench_acmcit(extra: f64) -> Graph {
    DatasetSpec::by_name("ACMCit")
        .expect("spec")
        .generate_scaled(extra, 42)
}

/// Wall-clock seconds of one call.
pub fn time(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// The median, minimum and maximum of `xs` (non-empty) — how the
/// wall-clock gates read interleaved repeats.
pub fn spread(xs: &[f64]) -> (f64, f64, f64) {
    let mut xs = xs.to_vec();
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    let median = if xs.len() % 2 == 0 {
        (xs[mid - 1] + xs[mid]) / 2.0
    } else {
        xs[mid]
    };
    (median, xs[0], xs[xs.len() - 1])
}
