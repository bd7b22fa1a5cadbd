//! Figure 9: (a) parallel scalability — running time of
//! FSimbj{ub, θ=1} for 1..32 threads; (b) density scalability — running
//! time while multiplying the edge count ×1..×50. Both on the NELL-like
//! and ACMCit-like surrogates.

use crate::opts::ExpOpts;
use crate::report::{fmt_secs, Report};
use fsim_core::{compute, FsimConfig, Variant};
use fsim_graph::{noise, Graph};
use fsim_labels::LabelFn;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Wall-clock and total Equation-3 evaluations (the scheduling work) of
/// one cold FSimbj{ub, θ=1} computation.
fn timed(g: &Graph, threads: usize) -> (f64, usize) {
    let cfg = FsimConfig::new(Variant::Bijective)
        .label_fn(LabelFn::Indicator)
        .theta(1.0)
        .upper_bound(0.0, 0.5)
        .threads(threads);
    let t0 = Instant::now();
    let result = compute(g, g, &cfg).expect("valid config");
    (t0.elapsed().as_secs_f64(), result.total_pairs_evaluated())
}

/// Figure 9(a): thread sweep. The surrogates are densified (×8) so the
/// maintained pairs carry real matching work — at the original sparsity
/// the post-pruning workload is too small for parallelism to matter.
pub fn run_threads(opts: &ExpOpts) -> Report {
    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed ^ 0x9a);
    let nell = noise::densify(&opts.nell(), 8.0, &mut rng);
    let acm = noise::densify(&opts.acmcit(), 4.0, &mut rng);
    let mut report = Report::new(
        "fig9a",
        "FSimbj{ub,theta=1} running time vs #threads",
        &[
            "threads",
            "NELL-like",
            "ACMCit-like",
            "evals NELL",
            "evals ACM",
        ],
    );
    for threads in [1usize, 2, 4, 8, 16, 24, 32] {
        let (nell_s, nell_evals) = timed(&nell, threads);
        let (acm_s, acm_evals) = timed(&acm, threads);
        report.row(vec![
            threads.to_string(),
            fmt_secs(nell_s),
            fmt_secs(acm_s),
            nell_evals.to_string(),
            acm_evals.to_string(),
        ]);
    }
    report.note(format!(
        "host has {} cores; paper reports 15-17x speedup at 32 threads on 2x20 cores",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    ));
    report.note("evals: total Equation-3 evaluations — identical across thread counts (the schedule is thread-invariant)");
    report
}

/// Figure 9(b): density sweep (×1..×50 edges, random insertions).
pub fn run_density(opts: &ExpOpts) -> Report {
    // Densification is quadratic in cost; use a smaller base so x50 stays
    // laptop-sized (the series shape is what the figure reproduces).
    let mut small = opts.clone();
    small.scale = opts.scale * 0.4;
    let nell = small.nell();
    let acm = small.acmcit();
    let mut report = Report::new(
        "fig9b",
        "FSimbj{ub,theta=1} running time vs density multiplier",
        &[
            "density",
            "NELL-like",
            "ACMCit-like",
            "evals NELL",
            "evals ACM",
        ],
    );
    for factor in [1.0, 10.0, 20.0, 30.0, 40.0, 50.0] {
        let mut rng = ChaCha8Rng::seed_from_u64(opts.seed ^ factor as u64);
        let dn = noise::densify(&nell, factor, &mut rng);
        let da = noise::densify(&acm, factor, &mut rng);
        let (nell_s, nell_evals) = timed(&dn, opts.threads);
        let (acm_s, acm_evals) = timed(&da, opts.threads);
        report.row(vec![
            format!("x{factor:.0}"),
            fmt_secs(nell_s),
            fmt_secs(acm_s),
            nell_evals.to_string(),
            acm_evals.to_string(),
        ]);
    }
    report.note("paper: time grows with density; ub pruning partially offsets the growth");
    report.note("evals: total Equation-3 evaluations — the scheduling work behind the timing");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_sweep_has_all_rows() {
        let mut opts = ExpOpts::quick();
        opts.scale = 0.05;
        let r = run_threads(&opts);
        assert_eq!(r.rows.len(), 7);
        assert_eq!(r.rows[0][0], "1");
        assert_eq!(r.rows.last().unwrap()[0], "32");
    }

    #[test]
    fn density_sweep_has_all_rows() {
        let mut opts = ExpOpts::quick();
        opts.scale = 0.05;
        let r = run_density(&opts);
        assert_eq!(r.rows.len(), 6);
        assert_eq!(r.rows[0][0], "x1");
        assert_eq!(r.rows.last().unwrap()[0], "x50");
    }
}
