//! Incremental-rescoring bench: warm `apply_edits` replay vs cold
//! recompute across edit-batch sizes on the NELL-surrogate workloads,
//! tracking wall-clock and pairs evaluated. Like the `convergence` bench
//! it **emits `BENCH_incremental.json` at the repository root** so the
//! perf trajectory is recorded across PRs (the CI smoke runs `--test`,
//! which shrinks the workload but still writes the file and checks the
//! bitwise warm ≡ cold invariant).

use fsim_bench::{assert_bitwise, test_mode, write_record, Record};
use fsim_core::{FsimConfig, FsimEngine, GraphEdit, GraphSide, Variant};
use fsim_datasets::DatasetSpec;
use fsim_graph::Graph;
use fsim_labels::LabelFn;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

struct BatchRow {
    batch: usize,
    warm_s: f64,
    cold_s: f64,
    warm_evals: f64,
    /// Cold recompute under delta scheduling (our own best cold path).
    cold_evals: f64,
    /// Cold recompute under the paper's Algorithm 1 (full sweep):
    /// `|H| × iterations` — the classical "recompute from scratch" cost
    /// and the baseline of the <10 % acceptance gate.
    sweep_evals: f64,
}

struct Row {
    name: String,
    /// Whether the <10 %-of-sweep single-edge acceptance gate applies:
    /// true for the paper's sparse-dependency NELL configurations (θ = 1,
    /// indicator labels), where an edit's influence ball stays local. The
    /// dense string-similarity workloads are reported for honesty — their
    /// dependency graph couples most pairs within a few hops, so a
    /// bitwise-exact warm run must re-evaluate the whole influence ball
    /// (it still wins wall-clock and evaluations over both cold paths for
    /// small batches).
    gated: bool,
    pairs: usize,
    iterations: usize,
    batches: Vec<BatchRow>,
}

/// A random edge flip on the session's right graph: remove if present,
/// add otherwise.
fn random_flip(rng: &mut ChaCha8Rng, g2: &Graph) -> GraphEdit {
    let n = g2.node_count() as u32;
    let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
    if g2.has_edge(u, v) {
        GraphEdit::remove_edge(GraphSide::Right, u, v)
    } else {
        GraphEdit::add_edge(GraphSide::Right, u, v)
    }
}

fn measure(name: &str, gated: bool, g: &Graph, cfg: &FsimConfig, reps: usize, seed: u64) -> Row {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut engine = FsimEngine::new(g, g, cfg).expect("valid config");
    engine.run();
    assert!(
        engine.can_replay_edits(),
        "{name}: workload must record a trajectory"
    );
    let pairs = engine.pair_count();
    let iterations = engine.iterations();

    let mut batches = Vec::new();
    for &batch in &[1usize, 8, 64] {
        let (mut warm_s, mut cold_s) = (0.0f64, 0.0f64);
        let (mut warm_evals, mut cold_evals, mut sweep_evals) = (0.0f64, 0.0f64, 0.0f64);
        for _ in 0..reps.max(1) {
            let edits: Vec<GraphEdit> = {
                let g2 = engine.graphs().1;
                (0..batch).map(|_| random_flip(&mut rng, g2)).collect()
            };
            let t0 = Instant::now();
            engine.apply_edits(&edits).expect("in-range edits");
            warm_s += t0.elapsed().as_secs_f64();
            warm_evals += engine.pairs_evaluated().iter().sum::<usize>() as f64;

            // Cold reference: a fresh session on the edited graph.
            let g2_now = engine.graphs().1.clone();
            let t1 = Instant::now();
            let mut cold = FsimEngine::new(g, &g2_now, cfg).expect("valid config");
            cold.run();
            cold_s += t1.elapsed().as_secs_f64();
            cold_evals += cold.pairs_evaluated().iter().sum::<usize>() as f64;
            sweep_evals += (cold.pair_count() * cold.iterations()) as f64;

            assert_bitwise(&format!("{name}: warm vs cold"), &engine, &cold);
        }
        let r = reps.max(1) as f64;
        batches.push(BatchRow {
            batch,
            warm_s: warm_s / r,
            cold_s: cold_s / r,
            warm_evals: warm_evals / r,
            cold_evals: cold_evals / r,
            sweep_evals: sweep_evals / r,
        });
    }
    Row {
        name: name.to_string(),
        gated,
        pairs,
        iterations,
        batches,
    }
}

impl Row {
    /// The workload's entry of `BENCH_incremental.json`.
    fn record(&self) -> Record {
        let batches: Vec<Record> = self
            .batches
            .iter()
            .map(|b| {
                Record::new()
                    .field("batch", b.batch)
                    .field("warm_s", b.warm_s)
                    .field("cold_s", b.cold_s)
                    .field("warm_evals", b.warm_evals)
                    .field("cold_evals", b.cold_evals)
                    .field("sweep_evals", b.sweep_evals)
                    .field("ratio_vs_delta", b.warm_evals / b.cold_evals.max(1.0))
                    .field("ratio_vs_sweep", b.warm_evals / b.sweep_evals.max(1.0))
            })
            .collect();
        Record::new()
            .field("workload", self.name.as_str())
            .field("gated", self.gated)
            .field("pairs", self.pairs)
            .field("iterations", self.iterations)
            .field("batches", batches)
    }
}

fn main() {
    let test_mode = test_mode();
    // The gated θ=1 workloads run on the full-size surrogate (an edit's
    // influence ball has constant size, so the sweep ratio is scale-
    // dependent); the dense string-similarity workloads use the mid-size
    // graph the convergence bench uses (their stores grow quadratically).
    let (scale, mid_scale, reps, epsilon) = if test_mode {
        (0.05, 0.05, 2, 1e-3)
    } else {
        (1.0, 0.45, 4, 1e-4)
    };
    let spec = DatasetSpec::by_name("NELL").expect("spec");
    let g = spec.generate_scaled(scale, 42);
    let g_mid = spec.generate_scaled(mid_scale, 42);

    // The paper's NELL efficiency configurations (θ = 1 with indicator
    // labels — Fig. 9 uses FSimbj{ub, θ=1}): sparse dependency graphs
    // where an edit's influence ball stays local. These carry the <10 %
    // single-edge acceptance gate.
    let mut fig9_cfg = FsimConfig::new(Variant::Bijective)
        .label_fn(LabelFn::Indicator)
        .theta(1.0)
        .upper_bound(0.0, 0.5);
    fig9_cfg.epsilon = epsilon;
    let mut bi_cfg = FsimConfig::new(Variant::Bi)
        .label_fn(LabelFn::Indicator)
        .theta(1.0);
    bi_cfg.epsilon = epsilon;

    // The string-similarity serving workloads of the convergence bench
    // (dense dependency coupling — reported ungated; see `Row::gated`).
    let mut theta_cfg = FsimConfig::new(Variant::Bijective)
        .label_fn(LabelFn::JaroWinkler)
        .theta(0.9);
    theta_cfg.epsilon = epsilon;
    let mut fig7_cfg = FsimConfig::new(Variant::Simple)
        .label_fn(LabelFn::JaroWinkler)
        .theta(0.6);
    fig7_cfg.epsilon = epsilon;

    let rows = vec![
        measure("fig9_bj_ub_theta1", true, &g, &fig9_cfg, reps, 0xE415),
        measure("bisim_theta1", true, &g, &bi_cfg, reps, 0xE416),
        measure(
            "session_reuse_theta0.9_bj",
            false,
            &g_mid,
            &theta_cfg,
            reps,
            0xE417,
        ),
        measure(
            "theta_sweep_theta0.6_s",
            false,
            &g_mid,
            &fig7_cfg,
            reps,
            0xE418,
        ),
    ];

    for r in &rows {
        for b in &r.batches {
            println!(
                "bench incremental/{:<28} batch {:>3}  evals {:>9.0} ({:.1}% of sweep, {:.1}% of delta-cold)  warm {:.3}ms vs cold {:.3}ms ({:.1}x)",
                r.name,
                b.batch,
                b.warm_evals,
                100.0 * b.warm_evals / b.sweep_evals.max(1.0),
                100.0 * b.warm_evals / b.cold_evals.max(1.0),
                b.warm_s * 1e3,
                b.cold_s * 1e3,
                b.cold_s / b.warm_s.max(1e-12),
            );
        }
    }

    // Acceptance gate: on the sparse-dependency workloads, a warm
    // single-edge edit must re-evaluate < 10 % of the pairs a cold
    // Algorithm-1 recompute sweeps (`|H| × iterations`). The delta-cold
    // comparison is reported alongside; its late-iteration worklists are
    // exactly the pairs the edit genuinely keeps changing, which a
    // bitwise-exact warm run must evaluate too — so it bounds warm from
    // below, not a scheduling inefficiency. (The shrunken --test graphs
    // have proportionally larger edit frontiers, so CI only checks that
    // the warm path undercuts the sweep.)
    for r in rows.iter().filter(|r| r.gated) {
        let single = &r.batches[0];
        let ratio = single.warm_evals / single.sweep_evals.max(1.0);
        if test_mode {
            assert!(
                ratio < 1.0,
                "{}: single-edge warm evals must undercut the cold sweep ({ratio:.3})",
                r.name
            );
        } else {
            assert!(
                ratio < 0.10,
                "{}: single-edge warm evals must be <10% of the cold sweep ({ratio:.3})",
                r.name
            );
        }
    }

    let workloads: Vec<Record> = rows.iter().map(Row::record).collect();
    write_record("incremental", Record::new().field("workloads", workloads));
}
