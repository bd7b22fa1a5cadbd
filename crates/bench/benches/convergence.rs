//! Convergence-scheduling bench: full sweep vs delta-driven vs
//! **approximate** iteration (the exact iteration stopped at a relaxed ε)
//! on multi-iteration workloads, tracking pairs evaluated per iteration,
//! wall-clock (warm vs cold), and — for the approximate mode — the
//! observed max score error against the exact scheduler next to the
//! certified bound the run reports. The process **fails** if the observed
//! error ever exceeds the reported bound (the CI bench smoke runs this
//! with `--test`), and in full mode if warm approximate runs are slower
//! than warm exact delta runs in the median of interleaved repeats.
//! The bench **emits `BENCH_convergence.json` at the repository root** so
//! the perf trajectory is recorded across commits.

use fsim_bench::{assert_bitwise, best_of, spread, test_mode, time, write_record, Record};
use fsim_core::{compute, score_hash, ConvergenceMode, FsimConfig, FsimEngine, Variant};
use fsim_datasets::DatasetSpec;
use fsim_graph::Graph;
use fsim_labels::LabelFn;

/// One workload's measurements.
struct Row {
    name: String,
    pairs: usize,
    iterations: usize,
    dep_entries: usize,
    sweep_pairs_evaluated: usize,
    delta_pairs_evaluated: usize,
    delta_per_iteration: Vec<usize>,
    cold_sweep_s: f64,
    cold_delta_s: f64,
    warm_sweep_s: f64,
    warm_delta_s: f64,
    /// Warm delta rerun at four threads: steps of at least 4096 slots run
    /// on the persistent runtime, shorter ones inline. The session-reuse
    /// workload's late worklists (about 5,800 slots) stay above that line,
    /// so it shows dispatch overhead and chunking (the step-scaled cursor
    /// chunk; see `docs/BENCHMARKS.md`).
    warm_delta_par4_s: f64,
    /// Aggregate pair evaluations per second of the warm runs.
    warm_sweep_pps: f64,
    warm_delta_pps: f64,
    warm_delta_par4_pps: f64,
    /// Per-iteration throughput of the warm delta run (evaluations that
    /// iteration / that iteration's wall clock).
    delta_pps_per_iteration: Vec<f64>,
    /// [`score_hash`] of the exact scores — compared across builds (e.g.
    /// `simd` feature on vs off) by the CI smoke.
    score_hash: u64,
    approx: ApproxRow,
}

/// The approximate-mode measurements of one workload.
struct ApproxRow {
    tolerance: f64,
    iterations: usize,
    pairs_evaluated: usize,
    per_iteration: Vec<usize>,
    max_error: f64,
    error_bound: f64,
    /// Median warm run over the interleaved repeats.
    warm_s: f64,
    /// Warm approximate / warm exact delta, each repeat timing the two
    /// back to back: median, minimum and maximum.
    vs_delta: (f64, f64, f64),
    pps: f64,
}

fn measure(name: &str, g1: &Graph, g2: &Graph, cfg: &FsimConfig, reps: usize) -> Row {
    let sweep_cfg = cfg.clone().convergence(ConvergenceMode::FullSweep);
    let delta_cfg = cfg.clone().convergence(ConvergenceMode::DeltaDriven);

    // Cold: session construction (store + CSR for delta) plus one run.
    let cold_sweep_s = best_of(reps, || {
        FsimEngine::new(g1, g2, &sweep_cfg)
            .expect("valid config")
            .run();
    });
    let cold_delta_s = best_of(reps, || {
        FsimEngine::new(g1, g2, &delta_cfg)
            .expect("valid config")
            .run();
    });

    // Warm: everything prepared, re-iterate only (the serving pattern).
    let mut sweep = FsimEngine::new(g1, g2, &sweep_cfg).expect("valid config");
    sweep.run();
    let warm_sweep_s = best_of(reps, || {
        sweep.run();
    });
    let mut delta = FsimEngine::new(g1, g2, &delta_cfg).expect("valid config");
    delta.run();
    let warm_delta_s = best_of(reps, || {
        delta.run();
    });

    // The same delta rerun on the persistent runtime: late iterations
    // shrink the worklist to a few thousand slots, so this measures the
    // dispatch + chunking overhead more than the arithmetic.
    let par_cfg = delta_cfg.clone().threads(4);
    let mut delta_par = FsimEngine::new(g1, g2, &par_cfg).expect("valid config");
    delta_par.run();
    let warm_delta_par4_s = best_of(reps, || {
        delta_par.run();
    });
    let warm_delta_par4_pps = delta_par.pairs_per_second().unwrap_or(0.0);
    assert_bitwise(&format!("{name}: parallel delta"), &delta_par, &delta);
    drop(delta_par);

    // The two schedules must agree bitwise.
    assert_bitwise(&format!("{name}: sweep vs delta"), &sweep, &delta);

    // The approximate variant: the exact iteration stopped at
    // ε' = tolerance·ε/(w⁺+w⁻), with the observed error checked against
    // the certified bound — a recorded error above the bound fails the
    // bench (and CI). Tolerance 1/(1−(w⁺+w⁻)) = 5: the exact mode already
    // accepts a fixpoint distance of ε·(w⁺+w⁻)/(1−(w⁺+w⁻)) at
    // termination, so this setting stops where the remaining distance is
    // of the order ε itself.
    let tolerance = 1.0 / (1.0 - cfg.w_out - cfg.w_in);
    let approx_cfg = cfg
        .clone()
        .convergence(ConvergenceMode::Approximate { tolerance });
    let mut approx = FsimEngine::new(g1, g2, &approx_cfg).expect("valid config");
    approx.run();
    // Warm approximate against warm exact delta, the two back to back in
    // every repeat, so drift of a shared host between repeats moves both
    // alike; the gate reads the median repeat.
    let (mut approx_times, mut vs_delta) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let delta_s = time(|| {
            delta.run();
        });
        let approx_s = time(|| {
            approx.run();
        });
        approx_times.push(approx_s);
        vs_delta.push(approx_s / delta_s.max(1e-12));
    }
    let mut max_error = 0.0f64;
    for ((u1, v1, s1), (u2, v2, s2)) in delta.iter_pairs().zip(approx.iter_pairs()) {
        assert_eq!((u1, v1), (u2, v2), "{name}: approx pair order diverged");
        max_error = max_error.max((s1 - s2).abs());
    }
    assert!(
        max_error <= approx.error_bound(),
        "{name}: observed approximate error {max_error:.3e} exceeds the \
         certified bound {:.3e}",
        approx.error_bound()
    );

    Row {
        name: name.to_string(),
        pairs: delta.pair_count(),
        iterations: delta.iterations(),
        dep_entries: delta.dep_entry_count().unwrap_or(0),
        sweep_pairs_evaluated: sweep.pairs_evaluated().iter().sum(),
        delta_pairs_evaluated: delta.pairs_evaluated().iter().sum(),
        delta_per_iteration: delta.pairs_evaluated().to_vec(),
        cold_sweep_s,
        cold_delta_s,
        warm_sweep_s,
        warm_delta_s,
        warm_delta_par4_s,
        warm_sweep_pps: sweep.pairs_per_second().unwrap_or(0.0),
        warm_delta_pps: delta.pairs_per_second().unwrap_or(0.0),
        warm_delta_par4_pps,
        delta_pps_per_iteration: delta
            .pairs_evaluated()
            .iter()
            .zip(delta.iteration_seconds())
            .map(|(&p, &s)| if s > 0.0 { p as f64 / s } else { 0.0 })
            .collect(),
        // The cross-build bitwise gate for the CI `simd` on/off comparison.
        score_hash: score_hash(delta.iter_pairs()),
        approx: ApproxRow {
            tolerance,
            iterations: approx.iterations(),
            pairs_evaluated: approx.pairs_evaluated().iter().sum(),
            per_iteration: approx.pairs_evaluated().to_vec(),
            max_error,
            error_bound: approx.error_bound(),
            warm_s: spread(&approx_times).0,
            vs_delta: spread(&vs_delta),
            pps: approx.pairs_per_second().unwrap_or(0.0),
        },
    }
}

impl Row {
    /// The workload's entry of `BENCH_convergence.json`.
    fn record(&self) -> Record {
        let a = &self.approx;
        Record::new()
            .field("workload", self.name.as_str())
            .field("pairs", self.pairs)
            .field("iterations", self.iterations)
            .field("dep_entries", self.dep_entries)
            .field(
                "pairs_evaluated",
                Record::new()
                    .field("sweep", self.sweep_pairs_evaluated)
                    .field("delta", self.delta_pairs_evaluated)
                    .field("delta_per_iteration", self.delta_per_iteration.clone()),
            )
            .field(
                "wall_clock_s",
                Record::new()
                    .field("cold_sweep", self.cold_sweep_s)
                    .field("cold_delta", self.cold_delta_s)
                    .field("warm_sweep", self.warm_sweep_s)
                    .field("warm_delta", self.warm_delta_s)
                    .field("warm_delta_par4", self.warm_delta_par4_s),
            )
            .field(
                "pairs_per_second",
                Record::new()
                    .field("warm_sweep", self.warm_sweep_pps)
                    .field("warm_delta", self.warm_delta_pps)
                    .field("warm_delta_par4", self.warm_delta_par4_pps)
                    .field("approx", a.pps)
                    .field("delta_per_iteration", self.delta_pps_per_iteration.clone()),
            )
            .field("score_hash", format!("{:#018x}", self.score_hash))
            .field(
                "approx",
                Record::new()
                    .field("tolerance", a.tolerance)
                    .field("iterations", a.iterations)
                    .field("pairs_evaluated", a.pairs_evaluated)
                    .field("per_iteration", a.per_iteration.clone())
                    .field("max_observed_error", a.max_error)
                    .field("error_bound", a.error_bound)
                    .field("warm_s", a.warm_s)
                    .field("warm_vs_delta", a.vs_delta.0)
                    .field("warm_vs_delta_min", a.vs_delta.1)
                    .field("warm_vs_delta_max", a.vs_delta.2),
            )
    }
}

fn main() {
    let test_mode = test_mode();
    let (scale, reps, epsilon) = if test_mode {
        (0.05, 3, 1e-3)
    } else {
        (0.45, 7, 1e-4)
    };
    let g = DatasetSpec::by_name("NELL")
        .expect("spec")
        .generate_scaled(scale, 42);

    // The session-reuse workload: θ-pruned self-similarity, string labels —
    // the variant-sweep serving pattern. Tight ε forces a multi-iteration
    // run so late-iteration sparsity has room to pay off.
    let mut theta_cfg = FsimConfig::new(Variant::Bijective)
        .label_fn(LabelFn::JaroWinkler)
        .theta(0.9);
    theta_cfg.epsilon = epsilon;

    // The theta-sweep (Fig. 7) shape at θ = 0.6 under simple simulation.
    let mut fig7_cfg = FsimConfig::new(Variant::Simple)
        .label_fn(LabelFn::JaroWinkler)
        .theta(0.6);
    fig7_cfg.epsilon = epsilon;

    let rows = vec![
        measure("session_reuse_theta0.9_bj", &g, &g, &theta_cfg, reps),
        measure("theta_sweep_theta0.6_s", &g, &g, &fig7_cfg, reps),
    ];

    for r in &rows {
        let saved =
            100.0 * (1.0 - r.delta_pairs_evaluated as f64 / r.sweep_pairs_evaluated.max(1) as f64);
        println!(
            "bench convergence/{:<28} pairs {:>8}  iters {:>3}  evaluated {:>10} vs {:>10} ({saved:.1}% saved)  warm {:.3}ms vs {:.3}ms",
            r.name,
            r.pairs,
            r.iterations,
            r.delta_pairs_evaluated,
            r.sweep_pairs_evaluated,
            r.warm_delta_s * 1e3,
            r.warm_sweep_s * 1e3,
        );
        let (ratio, lo, hi) = r.approx.vs_delta;
        println!(
            "bench convergence/{:<28} approx(tol={}) iters {:>3}  evaluated {:>10}  max err {:.3e} <= bound {:.3e}  warm {:.3}ms = {ratio:.2}x delta ({lo:.2}–{hi:.2}x)",
            r.name,
            r.approx.tolerance,
            r.approx.iterations,
            r.approx.pairs_evaluated,
            r.approx.max_error,
            r.approx.error_bound,
            r.approx.warm_s * 1e3,
        );
        println!(
            "bench convergence/{:<28} throughput: sweep {:.3e} pairs/s, delta {:.3e} pairs/s, delta-par4 {:.3e} pairs/s",
            r.name,
            r.warm_sweep_pps,
            r.warm_delta_pps,
            r.warm_delta_par4_pps,
        );
    }

    let workloads: Vec<Record> = rows.iter().map(Row::record).collect();
    write_record("convergence", Record::new().field("workloads", workloads));

    // Acceptance gates (full workload only — the --test workload runs in
    // milliseconds, where timings measure noise), checked after the JSON
    // is on disk so a failing record is still inspectable. The
    // approximate mode must be no slower than the exact delta scheduler
    // warm, in the median repeat, on every workload: a mode that trades
    // exactness for nothing has no reason to exist.
    if !test_mode {
        for r in &rows {
            let (ratio, lo, hi) = r.approx.vs_delta;
            assert!(
                ratio <= 1.0,
                "{}: warm approximate runs must be no slower than warm exact delta \
                 runs in the median repeat, got {ratio:.2}x ({lo:.2}–{hi:.2}x)",
                r.name
            );
        }
    }

    // Keep the one-shot path honest too: `compute` under Auto must match
    // the explicit delta session (cheap smoke in either mode).
    let auto = compute(&g, &g, &theta_cfg).expect("valid config");
    let mut delta = FsimEngine::new(
        &g,
        &g,
        &theta_cfg.clone().convergence(ConvergenceMode::DeltaDriven),
    )
    .expect("valid config");
    delta.run();
    assert_eq!(auto.pair_count(), delta.pair_count());
}
