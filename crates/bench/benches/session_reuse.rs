//! Session-reuse bench: the amortization win of the `FsimEngine` session
//! API. One-shot `compute` rebuilds the prepared Jaro–Winkler table
//! (`O(|Σ|²)` string similarities) and re-joins the θ-pruned candidate
//! store on every call; a session builds both once and each `rerun` pays
//! only initialization + iteration.
//!
//! Workload: NELL-like surrogate self-similarity, string labels, θ = 0.9 —
//! the Table-2-style variant-sweep access pattern over a maintained set of
//! ≥10k pairs (in `--test` mode too: the floor is the point of the
//! workload, so only the repeat count shrinks). Emits
//! `BENCH_session_reuse.json` at the repository root; reported, ungated.

use fsim_bench::{best_of, test_mode, write_record, Record};
use fsim_core::{compute, FsimConfig, FsimEngine, Variant};
use fsim_datasets::DatasetSpec;
use fsim_labels::LabelFn;
use std::hint::black_box;

/// The variant sweep both sides execute (variant changes keep the θ-store
/// valid — exactly the state a session reuses).
const SWEEP: [Variant; 3] = [Variant::Bijective, Variant::Simple, Variant::Bi];

const SCALE: f64 = 0.45;

fn base_cfg() -> FsimConfig {
    FsimConfig::new(Variant::Bijective)
        .label_fn(LabelFn::JaroWinkler)
        .theta(0.9)
}

fn main() {
    let reps = if test_mode() { 1 } else { 10 };
    let g = DatasetSpec::by_name("NELL")
        .expect("spec")
        .generate_scaled(SCALE, 42);

    // The acceptance floor: the maintained candidate set must be big
    // enough that the comparison measures a real serving workload.
    let pairs = FsimEngine::new(&g, &g, &base_cfg())
        .expect("valid config")
        .pair_count();
    assert!(
        pairs >= 10_000,
        "workload too small for the reuse bench: {pairs} pairs"
    );

    // A single cold compute vs a single warm rerun, same configuration.
    let mut simple = base_cfg();
    simple.variant = Variant::Simple;
    let cold_compute = best_of(reps, || {
        black_box(compute(&g, &g, &simple).expect("valid config").pair_count());
    });
    let mut engine = FsimEngine::new(&g, &g, &base_cfg()).expect("valid config");
    engine.run();
    let warm_rerun = best_of(reps, || {
        engine
            .rerun(|c| c.variant = Variant::Simple)
            .expect("valid config");
        black_box(engine.pair_count());
    });
    drop(engine);

    // The Table-2 access pattern: sweep all variants over one graph pair.
    let one_shot = best_of(reps, || {
        for variant in SWEEP {
            let mut cfg = base_cfg();
            cfg.variant = variant;
            black_box(compute(&g, &g, &cfg).expect("valid config").pair_count());
        }
    });
    let session = best_of(reps, || {
        let mut engine = FsimEngine::new(&g, &g, &base_cfg()).expect("valid config");
        for variant in SWEEP {
            engine.rerun(|c| c.variant = variant).expect("valid config");
            black_box(engine.pair_count());
        }
    });

    println!(
        "bench session_reuse/single  pairs {pairs:>8}  cold compute {:.3}ms  warm rerun {:.3}ms ({:.2}x)",
        cold_compute * 1e3,
        warm_rerun * 1e3,
        cold_compute / warm_rerun.max(1e-12),
    );
    println!(
        "bench session_reuse/sweep   one-shot x{n} {:.3}ms  session + {n} reruns {:.3}ms ({:.2}x)",
        one_shot * 1e3,
        session * 1e3,
        one_shot / session.max(1e-12),
        n = SWEEP.len(),
    );

    write_record(
        "session_reuse",
        Record::new()
            .field("reps", reps)
            .field(
                "workload",
                Record::new()
                    .field("dataset", "NELL")
                    .field("scale", SCALE)
                    .field("pairs", pairs),
            )
            .field(
                "wall_clock_s",
                Record::new()
                    .field("cold_compute", cold_compute)
                    .field("warm_rerun", warm_rerun)
                    .field("one_shot_x3", one_shot)
                    .field("session_plus_3_reruns", session),
            ),
    );
}
