//! Snapshot bench: what `fsnap` persistence buys and what it costs.
//! Three measurements on NELL workloads, written to
//! `BENCH_snapshot.json` at the repository root:
//!
//! 1. **Restore vs cold derive** — `FsimEngine::restore` against a
//!    fresh `new` + `run`, on the θ-pruned serving workload the
//!    snapshot subsystem exists for. Gated: restore must be ≥ 5×
//!    faster in the median repeat (a cold start re-derives the prepared
//!    label table, the candidate store, the dependency CSR and the
//!    whole fixpoint; a restore is one validated file map that decodes
//!    what reads need and validates the CSR and trajectory sections in
//!    place, leaving their decode to the first run or edit). Reported
//!    beside it, ungated: restore followed by one single-edge
//!    `apply_edits`, the window that now carries those two decodes.
//! 2. **Shard-CSR spill** — warm sweep time at K=16 with `spill_dir`
//!    set (shard CSRs served from retained spill mappings, validated
//!    once and reborrowed every sweep after) vs rebuilt-every-sweep
//!    sharding and the unsharded baseline, on the dense θ = 0 workload
//!    whose CSR rebuilds dominate the standing ~1.9× sharded
//!    warm-sweep trade in `BENCH_sharding.json`. Gated: spill-on warm
//!    sweeps must stay within 1.5× of unsharded in the median repeat.
//! 3. **Trajectory compression** — the freeze-point-encoded trajectory
//!    section against the dense `T × |H|` matrix it replaces
//!    (reported, ungated).
//!
//! Both gated ratios are taken per repeat, with the two sides of a ratio
//! run back to back, so drift of a shared host between repeats moves
//! both alike; the gates read the median repeat, and the records carry
//! the range.
//!
//! Every timed engine is asserted **bitwise identical** to its
//! workload's baseline first; a bench measuring a wrong answer
//! measures nothing.

use fsim_bench::{assert_bitwise, assert_same_work, spread, test_mode, time, write_record, Record};
use fsim_core::{
    ConvergenceMode, FsimConfig, FsimEngine, GraphEdit, GraphSide, ShardSpec, Variant,
};
use fsim_datasets::DatasetSpec;
use fsim_labels::LabelFn;
use fsim_snapshot::SnapshotFile;
use std::time::Instant;

/// Mirror of the engine codec's section registry (`persist.rs`), for
/// reading section sizes out of the snapshot image.
static SECTIONS: &[(u32, &str)] = &[
    (1, "config"),
    (2, "interner"),
    (3, "graph1"),
    (4, "graph2"),
    (5, "store"),
    (6, "scores"),
    (7, "deps"),
    (8, "trajectory"),
    (9, "approx"),
    (10, "diag"),
    (11, "label_table"),
];

fn main() {
    let test_mode = test_mode();
    // The restore workload keeps a near-full scale even in test mode:
    // below ~0.2 the cold derive is so fast that restore's fixed costs
    // (open, map, checksum) dominate the ratio and the gate measures
    // noise. It is one sub-15ms derive either way; the dense spill
    // workload is the expensive one and scales down hard.
    let (theta_scale, dense_scale, reps, epsilon) = if test_mode {
        (0.3, 0.05, 5usize, 1e-3)
    } else {
        (0.35, 0.18, 7, 1e-4)
    };
    let scratch = std::env::temp_dir().join(format!("fsim-bench-snapshot-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("scratch dir");

    // -- 1. restore vs cold derive ------------------------------------
    // The serving shape (θ-pruned bijective self-similarity under
    // Jaro–Winkler, delta-driven): cold start pays the O(|Σ|²) label
    // table, θ-filtered candidate enumeration, CSR build and the full
    // fixpoint; restore checks all of them in one checksummed image and
    // decodes all but the CSR and the trajectory, which the first edit
    // decodes.
    let g = DatasetSpec::by_name("NELL")
        .expect("spec")
        .generate_scaled(theta_scale, 42);
    let mut cfg = FsimConfig::new(Variant::Bijective)
        .label_fn(LabelFn::JaroWinkler)
        .theta(0.9)
        .convergence(ConvergenceMode::DeltaDriven);
    cfg.epsilon = epsilon;

    let mut baseline = FsimEngine::new(&g, &g, &cfg).expect("valid config");
    baseline.run();

    let snap_path = scratch.join("bench.fsnp");
    let t0 = Instant::now();
    baseline.write_snapshot(&snap_path).expect("write snapshot");
    let write_s = t0.elapsed().as_secs_f64();
    let snapshot_bytes = std::fs::metadata(&snap_path).expect("stat").len();

    let restored = FsimEngine::restore(&snap_path).expect("restore");
    assert_bitwise("restore", &baseline, &restored);
    assert_same_work("restore", &baseline, &restored);
    // One edge the graph lacks, added on the right: the single-edge
    // batch a serving writer applies.
    let edit = (0..g.node_count_u32())
        .flat_map(|u| (0..g.node_count_u32()).map(move |v| (u, v)))
        .find(|&(u, v)| u != v && !g.has_edge(u, v))
        .map(|(u, v)| GraphEdit::add_edge(GraphSide::Right, u, v))
        .expect("a missing edge");
    let edit_then = |e: &mut FsimEngine<'_>| {
        e.apply_edits(std::slice::from_ref(&edit)).expect("edit");
    };
    let mut edited = FsimEngine::new(&g, &g, &cfg).expect("valid config");
    edited.run();
    edit_then(&mut edited);
    let mut restored = restored;
    assert!(restored.can_replay_edits(), "the restored session replays");
    edit_then(&mut restored);
    assert_bitwise("restore then edit", &edited, &restored);
    assert_same_work("restore then edit", &edited, &restored);
    drop((edited, restored));
    let (mut cold, mut restore, mut speedups) = (Vec::new(), Vec::new(), Vec::new());
    let mut restore_then_edit = Vec::new();
    for _ in 0..reps {
        let c = time(|| {
            FsimEngine::new(&g, &g, &cfg).expect("valid config").run();
        });
        let r = time(|| {
            let e = FsimEngine::restore(&snap_path).expect("restore");
            std::hint::black_box(e.pair_count());
        });
        restore_then_edit.push(time(|| {
            let mut e = FsimEngine::restore(&snap_path).expect("restore");
            edit_then(&mut e);
            std::hint::black_box(e.pair_count());
        }));
        cold.push(c);
        restore.push(r);
        speedups.push(c / r.max(1e-12));
    }
    let (cold_s, restore_s) = (spread(&cold).0, spread(&restore).0);
    let restore_then_edit_s = spread(&restore_then_edit).0;
    let (speedup, speedup_min, speedup_max) = spread(&speedups);

    // -- 2. shard-CSR spill at K=16 -----------------------------------
    // The dense regime is where sharding's rebuild-per-sweep trade
    // actually bites (and where its memory bound matters); spill
    // replaces each rebuild with a reborrow of the shard's retained,
    // once-validated mapping.
    let gd = DatasetSpec::by_name("NELL")
        .expect("spec")
        .generate_scaled(dense_scale, 42);
    let mut dense_cfg = FsimConfig::new(Variant::Simple)
        .label_fn(LabelFn::JaroWinkler)
        .convergence(ConvergenceMode::DeltaDriven);
    dense_cfg.epsilon = epsilon;
    let shard_cfg = dense_cfg.clone().shards(ShardSpec::Fixed(16));
    let spill_cfg = shard_cfg.clone().spill_dir(scratch.join("spill"));

    let mut dense_base = FsimEngine::new(&gd, &gd, &dense_cfg).expect("valid config");
    dense_base.run();
    let mut sharded = FsimEngine::new(&gd, &gd, &shard_cfg).expect("valid config");
    sharded.run();
    assert_bitwise("sharded K=16", &dense_base, &sharded);
    assert_same_work("sharded K=16", &dense_base, &sharded);
    let mut spilled = FsimEngine::new(&gd, &gd, &spill_cfg).expect("valid config");
    spilled.run(); // first run writes the per-shard spill files
    assert_bitwise("spilled K=16", &dense_base, &spilled);
    assert_same_work("spilled K=16", &dense_base, &spilled);
    // Warm runs, the three engines in turn within each repeat.
    let (mut warm, mut sharded_warm, mut spilled_warm) = (Vec::new(), Vec::new(), Vec::new());
    let mut spill_ratios = Vec::new();
    for _ in 0..reps {
        let w = time(|| {
            dense_base.run();
        });
        sharded_warm.push(time(|| {
            sharded.run();
        }));
        let sp = time(|| {
            spilled.run();
        });
        warm.push(w);
        spilled_warm.push(sp);
        spill_ratios.push(sp / w.max(1e-12));
    }
    let warm_s = spread(&warm).0;
    let (sharded_warm_s, spilled_warm_s) = (spread(&sharded_warm).0, spread(&spilled_warm).0);
    let (spill_ratio, spill_ratio_min, spill_ratio_max) = spread(&spill_ratios);

    // -- 3. trajectory compression ------------------------------------
    let image = baseline.snapshot_bytes().expect("serialize");
    let file = SnapshotFile::from_bytes(&image, SECTIONS).expect("own snapshot validates");
    let encoded_bytes = file
        .sections()
        .iter()
        .find(|s| s.id == 8)
        .map(|s| s.len)
        .unwrap_or(0);
    // The dense matrix the encoding replaces: (iterations + 1) iterates
    // (the trajectory includes FSim⁰), |H| slots, 8 bytes each.
    let dense_bytes = (baseline.iterations() + 1) * baseline.pair_count() * 8;
    let traj_ratio = encoded_bytes as f64 / dense_bytes.max(1) as f64;

    println!(
        "bench snapshot/restore   cold {:>9.3}ms  restore {:>9.3}ms  ({:>6.1}x, {:.1}–{:.1}x over {reps})  image {:>9} B (write {:.3}ms)",
        cold_s * 1e3,
        restore_s * 1e3,
        speedup,
        speedup_min,
        speedup_max,
        snapshot_bytes,
        write_s * 1e3,
    );
    println!(
        "bench snapshot/edit      restore + one single-edge edit {:>9.3}ms",
        restore_then_edit_s * 1e3,
    );
    println!(
        "bench snapshot/spill     warm unsharded {:>9.3}ms  K=16 rebuilt {:>9.3}ms ({:.2}x)  K=16 spilled {:>9.3}ms ({:.2}x, {:.2}–{:.2}x over {reps})",
        warm_s * 1e3,
        sharded_warm_s * 1e3,
        sharded_warm_s / warm_s.max(1e-12),
        spilled_warm_s * 1e3,
        spill_ratio,
        spill_ratio_min,
        spill_ratio_max,
    );
    println!(
        "bench snapshot/traj      dense {:>11} B  encoded {:>11} B  ({:.1}% of dense)",
        dense_bytes,
        encoded_bytes,
        traj_ratio * 100.0,
    );

    write_record(
        "snapshot",
        Record::new()
            .field("reps", reps)
            .field(
                "restore",
                Record::new()
                    .field("workload", "theta0.9_bj_jw")
                    .field("pairs", baseline.pair_count())
                    .field("iterations", baseline.iterations())
                    .field("cold_s", cold_s)
                    .field("restore_s", restore_s)
                    .field("speedup", speedup)
                    .field("speedup_min", speedup_min)
                    .field("speedup_max", speedup_max)
                    .field("write_s", write_s)
                    .field("snapshot_bytes", snapshot_bytes)
                    .field("restore_then_edit_s", restore_then_edit_s),
            )
            .field(
                "spill",
                Record::new()
                    .field("workload", "dense_theta0_s_jw")
                    .field("pairs", dense_base.pair_count())
                    .field("k", 16usize)
                    .field("unsharded_warm_s", warm_s)
                    .field("sharded_warm_s", sharded_warm_s)
                    .field("spilled_warm_s", spilled_warm_s)
                    .field("spilled_vs_unsharded", spill_ratio)
                    .field("spilled_vs_unsharded_min", spill_ratio_min)
                    .field("spilled_vs_unsharded_max", spill_ratio_max),
            )
            .field(
                "trajectory",
                Record::new()
                    .field("dense_bytes", dense_bytes)
                    .field("encoded_bytes", encoded_bytes)
                    .field("ratio", traj_ratio),
            ),
    );
    drop(spilled); // release the spill directory before the scratch sweep
    let _ = std::fs::remove_dir_all(&scratch);

    // Acceptance gates, checked after the JSON is on disk so a failing
    // record is still inspectable.
    assert!(
        speedup >= 5.0,
        "restore must beat cold derivation by ≥ 5x in the median repeat, got {speedup:.1}x \
         ({speedup_min:.1}–{speedup_max:.1}x; cold {cold_s:.4}s, restore {restore_s:.4}s)"
    );
    assert!(
        spill_ratio <= 1.5,
        "spill-on warm sweeps at K=16 must stay within 1.5x of unsharded in the median repeat, \
         got {spill_ratio:.2}x ({spill_ratio_min:.2}–{spill_ratio_max:.2}x; \
         unsharded {warm_s:.4}s, spilled {spilled_warm_s:.4}s)"
    );
}
