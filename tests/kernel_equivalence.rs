//! Kernel goldens: the engine's exact modes must reproduce, bit for bit,
//! hashes pinned before the vectorized kernels and the persistent runtime
//! existed — variants × θ × label function × scheduling mode, plus
//! pruning, sharding, Hungarian and edit-replay spot checks. What the
//! engine should compute is checked against the dense reference oracle
//! in `tests/oracle.rs`; these goldens pin that the bits do not move.

use fsim::prelude::*;
use fsim_core::{ConvergenceMode, FsimEngine, GraphEdit, GraphSide, ShardSpec};

// ---------------------------------------------------------------------------
// Golden outputs pinned before the vectorized paths / persistent runtime
// existed (captured from the pre-change tree on NELL scale 0.15, seed 42):
// the refactor must not move a single bit of any exact mode.
// ---------------------------------------------------------------------------

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100000001b3);
    }
}

fn hash_engine(engine: &FsimEngine<'_>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for (u, v, s) in engine.iter_pairs() {
        fnv(&mut h, &u.to_le_bytes());
        fnv(&mut h, &v.to_le_bytes());
        fnv(&mut h, &s.to_bits().to_le_bytes());
    }
    fnv(&mut h, &(engine.iterations() as u64).to_le_bytes());
    fnv(&mut h, &engine.final_delta().to_bits().to_le_bytes());
    h
}

const GOLDEN: &[(&str, u64)] = &[
    ("s_t0.0_ind_delta", 0x9519bbf5b6cb632d),
    ("s_t0.0_ind_sweep", 0x9519bbf5b6cb632d),
    ("s_t0.6_jw_delta", 0x29af769ecb072d46),
    ("s_t0.6_jw_sweep", 0x29af769ecb072d46),
    ("s_t0.9_jw_delta", 0xb0dca23a7871560e),
    ("s_t0.9_jw_sweep", 0xb0dca23a7871560e),
    ("dp_t0.0_ind_delta", 0x90cf09db0f755dc6),
    ("dp_t0.0_ind_sweep", 0x90cf09db0f755dc6),
    ("dp_t0.6_jw_delta", 0x0118f2681a93b915),
    ("dp_t0.6_jw_sweep", 0x0118f2681a93b915),
    ("dp_t0.9_jw_delta", 0xbc511d3fb6149159),
    ("dp_t0.9_jw_sweep", 0xbc511d3fb6149159),
    ("b_t0.0_ind_delta", 0xf6e62a430014e89f),
    ("b_t0.0_ind_sweep", 0xf6e62a430014e89f),
    ("b_t0.6_jw_delta", 0xc65d1823db5fd237),
    ("b_t0.6_jw_sweep", 0xc65d1823db5fd237),
    ("b_t0.9_jw_delta", 0x40be816135f9dd91),
    ("b_t0.9_jw_sweep", 0x40be816135f9dd91),
    ("bj_t0.0_ind_delta", 0xc3d04229200ee842),
    ("bj_t0.0_ind_sweep", 0xc3d04229200ee842),
    ("bj_t0.6_jw_delta", 0xe3ce248de722414d),
    ("bj_t0.6_jw_sweep", 0xe3ce248de722414d),
    ("bj_t0.9_jw_delta", 0xcc62f0fc7e90592f),
    ("bj_t0.9_jw_sweep", 0xcc62f0fc7e90592f),
];

/// The 24-configuration golden matrix (variants × θ/label-fn × scheduling
/// mode).
#[test]
fn golden_outputs_are_unchanged() {
    let g = fsim::datasets::DatasetSpec::by_name("NELL")
        .unwrap()
        .generate_scaled(0.15, 42);

    let base = |variant: Variant, theta: f64, lf: LabelFn| {
        FsimConfig::new(variant).theta(theta).label_fn(lf)
    };
    let check = |tag: &str, engine: &FsimEngine<'_>| {
        let expect = GOLDEN
            .iter()
            .chain(GOLDEN_SPOT)
            .find(|(t, _)| *t == tag)
            .unwrap_or_else(|| panic!("no golden for {tag}"))
            .1;
        assert_eq!(hash_engine(engine), expect, "golden mismatch for {tag}");
    };

    for variant in Variant::ALL {
        for (theta, lf, tag) in [
            (0.0, LabelFn::Indicator, "t0.0_ind"),
            (0.6, LabelFn::JaroWinkler, "t0.6_jw"),
            (0.9, LabelFn::JaroWinkler, "t0.9_jw"),
        ] {
            for (mode, mtag) in [
                (ConvergenceMode::DeltaDriven, "delta"),
                (ConvergenceMode::FullSweep, "sweep"),
            ] {
                let cfg = base(variant, theta, lf.clone()).convergence(mode);
                let mut e = FsimEngine::new(&g, &g, &cfg).unwrap();
                e.run();
                check(&format!("{variant}_{tag}_{mtag}"), &e);
            }
        }
    }
}

const GOLDEN_SPOT: &[(&str, u64)] = &[
    ("s_t0.6_jw_ub_delta", 0x45f8697e6bcbc787),
    ("b_t0.6_jw_shard3", 0xc65d1823db5fd237),
    ("bj_t0.9_jw_hung_delta", 0x355307a7d54c0a09),
    ("b_t0.9_jw_edits", 0x309dd1b7e76fd644),
];

/// Pruning + sharded + Hungarian + edit-replay golden spot checks.
#[test]
fn golden_spot_checks_are_unchanged() {
    let g = fsim::datasets::DatasetSpec::by_name("NELL")
        .unwrap()
        .generate_scaled(0.15, 42);
    let base = |variant: Variant, theta: f64, lf: LabelFn| {
        FsimConfig::new(variant).theta(theta).label_fn(lf)
    };

    let cfg = base(Variant::Simple, 0.6, LabelFn::JaroWinkler).upper_bound(0.2, 0.55);
    let mut e = FsimEngine::new(&g, &g, &cfg).unwrap();
    e.run();
    assert_eq!(hash_engine(&e), GOLDEN_SPOT[0].1, "ub pruning");

    let cfg = base(Variant::Bi, 0.6, LabelFn::JaroWinkler).shards(ShardSpec::Fixed(3));
    let mut e = FsimEngine::new(&g, &g, &cfg).unwrap();
    e.run();
    assert_eq!(hash_engine(&e), GOLDEN_SPOT[1].1, "sharded");

    let mut cfg = base(Variant::Bijective, 0.9, LabelFn::JaroWinkler);
    cfg.matcher = MatcherKind::Hungarian;
    let mut e = FsimEngine::new(&g, &g, &cfg).unwrap();
    e.run();
    assert_eq!(hash_engine(&e), GOLDEN_SPOT[2].1, "hungarian");

    let cfg = base(Variant::Bi, 0.9, LabelFn::JaroWinkler);
    let mut e = FsimEngine::new(&g, &g, &cfg).unwrap();
    e.run();
    e.apply_edits(&[
        GraphEdit::add_edge(GraphSide::Left, 0, 5),
        GraphEdit::add_edge(GraphSide::Right, 0, 5),
    ])
    .unwrap();
    e.apply_edits(&[
        GraphEdit::remove_edge(GraphSide::Left, 0, 5),
        GraphEdit::remove_edge(GraphSide::Right, 0, 5),
        GraphEdit::relabel(GraphSide::Left, 3, "concept"),
        GraphEdit::relabel(GraphSide::Right, 3, "concept"),
    ])
    .unwrap();
    assert_eq!(hash_engine(&e), GOLDEN_SPOT[3].1, "edit chain");
}
