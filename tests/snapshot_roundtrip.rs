//! Snapshot round-trip properties: for random graph pairs across every
//! variant, θ, pruning, convergence mode and shard plan, a restored
//! session must be **bitwise indistinguishable** from the one that was
//! saved — same scores, same `error_bound`, same per-iteration
//! `pairs_evaluated`, and the same bits after any follow-up `rerun`,
//! edit chain or `top_k`. A checked-in golden fixture pins the on-disk
//! format: changing the byte layout without bumping `FORMAT_VERSION`
//! fails here before it ships.

use fsim::prelude::*;
use fsim_core::FsimEngine;
use fsim_snapshot::FORMAT_VERSION;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;

/// A random small labeled digraph over a 3-letter alphabet.
fn arb_graph(rng: &mut ChaCha8Rng, max_n: usize) -> Graph {
    let names = ["a", "b", "c"];
    let n = rng.gen_range(2..=max_n);
    let labels: Vec<&str> = (0..n).map(|_| names[rng.gen_range(0..3usize)]).collect();
    let m = rng.gen_range(0..=(2 * n));
    let edges: Vec<(u32, u32)> = (0..m)
        .map(|_| (rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32))
        .collect();
    fsim_graph::graph_from_parts(&labels, &edges)
}

/// Two random graphs rebuilt onto one shared interner, as the engine
/// requires.
fn arb_graph_pair(rng: &mut ChaCha8Rng, max_n: usize) -> (Graph, Graph) {
    let g1 = arb_graph(rng, max_n);
    let g2 = arb_graph(rng, max_n);
    let mut b = GraphBuilder::with_interner(std::sync::Arc::clone(g1.interner()));
    for u in g2.nodes() {
        b.add_node(&g2.label_str(u));
    }
    for (u, v) in g2.edges() {
        b.add_edge(u, v);
    }
    (g1, b.build())
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fsim-snap-rt-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Everything observable about a session, with floats as raw bits so
/// "equal" means *bitwise* equal, not approximately equal.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    pairs: Vec<(u32, u32, u64)>,
    iterations: usize,
    converged: bool,
    final_delta: u64,
    error_bound: u64,
    pairs_evaluated: Vec<usize>,
    top_k: Vec<(u32, u32, u64)>,
}

fn fingerprint(e: &FsimEngine<'static>) -> Fingerprint {
    Fingerprint {
        pairs: e
            .iter_pairs()
            .map(|(u, v, s)| (u, v, s.to_bits()))
            .collect(),
        iterations: e.iterations(),
        converged: e.converged(),
        final_delta: e.final_delta().to_bits(),
        error_bound: e.error_bound().to_bits(),
        pairs_evaluated: e.pairs_evaluated().to_vec(),
        top_k: e
            .top_k(8, false)
            .into_iter()
            .map(|(u, v, s)| (u, v, s.to_bits()))
            .collect(),
    }
}

/// One configuration from the sweep lattice, deterministically indexed.
fn case_config(case: usize) -> FsimConfig {
    let variant = Variant::ALL[case % 4];
    // Tabled label functions persist their prepared |Σ|×|Σ| table
    // (section 11); Indicator runs table-free — both paths must be in
    // the lattice.
    let label_fn = [
        LabelFn::Indicator,
        LabelFn::JaroWinkler,
        LabelFn::EditDistance,
    ][(case / 3) % 3]
        .clone();
    let mut cfg = FsimConfig::new(variant).label_fn(label_fn);
    cfg.theta = [0.0, 0.4, 0.8][case % 3];
    if case % 2 == 0 {
        cfg = cfg.upper_bound(0.2, 0.55);
    }
    if case % 5 == 0 {
        cfg.convergence = ConvergenceMode::Approximate { tolerance: 1.0 };
    }
    cfg.shards = if case % 4 == 1 {
        ShardSpec::Fixed(3)
    } else {
        ShardSpec::Off
    };
    cfg
}

/// A legal random edit on the pair's right graph.
fn arb_edit(rng: &mut ChaCha8Rng, g2: &Graph) -> GraphEdit {
    let n = g2.node_count() as u32;
    let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
    if rng.gen_bool(0.5) {
        GraphEdit::add_edge(GraphSide::Right, u, v)
    } else {
        GraphEdit::remove_edge(GraphSide::Right, u, v)
    }
}

#[test]
fn restore_is_bitwise_across_the_config_lattice() {
    let dir = scratch("lattice");
    let mut rng = ChaCha8Rng::seed_from_u64(71_001);
    for case in 0..24 {
        let (g1, g2) = arb_graph_pair(&mut rng, 7);
        let cfg = case_config(case);
        let mut original = FsimEngine::new_owned(g1, g2, &cfg).expect("valid config");
        original.run();

        let path = dir.join(format!("case-{case}.fsnp"));
        original.write_snapshot(&path).expect("write snapshot");
        let mut restored = FsimEngine::restore(&path).expect("restore snapshot");

        assert_eq!(
            fingerprint(&original),
            fingerprint(&restored),
            "case {case} ({cfg:?}): restored state diverges"
        );

        // The restored session must stay bitwise-entangled with the
        // original under follow-up work, not just at rest.
        match case % 3 {
            0 => {
                // Reconfigure: θ shift re-runs from cached structures.
                let new_theta = if cfg.theta > 0.5 { 0.2 } else { 0.6 };
                original.rerun(|c| c.theta = new_theta).expect("rerun");
                restored.rerun(|c| c.theta = new_theta).expect("rerun");
            }
            1 => {
                // Edit chain: both sessions replay the same script.
                for _ in 0..3 {
                    let edit = arb_edit(&mut rng, original.graphs().1);
                    let a = original.apply_edits(std::slice::from_ref(&edit));
                    let b = restored.apply_edits(std::slice::from_ref(&edit));
                    assert_eq!(
                        a.is_ok(),
                        b.is_ok(),
                        "case {case}: edit accepted on one side only"
                    );
                }
            }
            _ => {
                // Full re-run from the restored fixpoint.
                original.run();
                restored.run();
            }
        }
        assert_eq!(
            fingerprint(&original),
            fingerprint(&restored),
            "case {case} ({cfg:?}): sessions diverged after follow-up work"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An edge `g2` lacks, as an add edit: an edit that cannot be a no-op,
/// so it reaches the restored session's deferred sections.
fn fresh_edge(rng: &mut ChaCha8Rng, g2: &Graph) -> GraphEdit {
    let n = g2.node_count() as u32;
    loop {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if !g2.has_edge(u, v) {
            return GraphEdit::add_edge(GraphSide::Right, u, v);
        }
    }
}

/// What a session reports about its CSR and trajectory without decoding
/// them: a restored session answers from the counts its restore checked.
fn deferred_view(e: &FsimEngine<'static>) -> (Option<usize>, bool, Vec<u8>) {
    (
        e.dep_entry_count(),
        e.can_replay_edits(),
        e.snapshot_bytes().expect("serialize"),
    )
}

#[test]
fn deferred_sections_are_invisible_across_the_config_lattice() {
    let dir = scratch("deferred");
    let mut rng = ChaCha8Rng::seed_from_u64(73_003);
    let mut replayed = 0;
    for case in 0..24 {
        let (g1, g2) = arb_graph_pair(&mut rng, 7);
        let cfg = case_config(case);
        let mut original = FsimEngine::new_owned(g1, g2, &cfg).expect("valid config");
        original.run();
        let path = dir.join(format!("case-{case}.fsnp"));
        original.write_snapshot(&path).expect("write snapshot");
        let mut restored = FsimEngine::restore(&path).expect("restore snapshot");

        let view = deferred_view(&restored);
        assert_eq!(view.2, std::fs::read(&path).unwrap(), "case {case}");
        assert_eq!(
            view,
            deferred_view(&original),
            "case {case} before the edit"
        );

        let edit = fresh_edge(&mut rng, original.graphs().1);
        replayed += usize::from(restored.can_replay_edits());
        original
            .apply_edits(std::slice::from_ref(&edit))
            .expect("edit");
        restored
            .apply_edits(std::slice::from_ref(&edit))
            .expect("edit");
        assert_eq!(
            fingerprint(&original),
            fingerprint(&restored),
            "case {case}"
        );
        let (after, expected) = (deferred_view(&restored), deferred_view(&original));
        assert_eq!(after.0, expected.0, "case {case} after the edit");
        assert_eq!(after.1, expected.1, "case {case} after the edit");
        // A sharded session holds no CSR or trajectory to defer, and a
        // restored one plans its shards afresh on the edited graphs, so
        // the shard count in its diagnostics may differ.
        if cfg.shards == ShardSpec::Off {
            assert_eq!(after.2, expected.2, "case {case} after the edit");
        }
    }
    assert!(replayed > 0, "no case exercised a replayable restore");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A replayable session over a fixed pair, and its edit-free twin graphs.
fn replayable(seed: u64) -> FsimEngine<'static> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let (g1, g2) = arb_graph_pair(&mut rng, 9);
    let cfg = FsimConfig::new(Variant::Bi).label_fn(LabelFn::Indicator);
    let mut e = FsimEngine::new_owned(g1, g2, &cfg).expect("valid config");
    e.run();
    assert!(e.can_replay_edits());
    e
}

#[test]
fn a_snapshot_overwritten_in_place_before_the_first_edit_runs_it_cold() {
    let dir = scratch("overwritten");
    let path = dir.join("session.fsnp");
    let original = replayable(74_004);
    original.write_snapshot(&path).expect("write");
    let mut restored = FsimEngine::restore(&path).expect("restore");

    // Truncate and rewrite the same inode with another session's image.
    let other = replayable(74_005).snapshot_bytes().expect("serialize");
    std::fs::write(&path, &other).expect("overwrite in place");

    let mut rng = ChaCha8Rng::seed_from_u64(74_006);
    let edit = fresh_edge(&mut rng, original.graphs().1);
    let warm = restored.apply_edits(&[edit]).expect("edit");
    let (g1, g2) = restored.graphs();
    let mut cold = FsimEngine::new_owned(g1.clone(), g2.clone(), restored.config()).unwrap();
    cold.run();
    let bits = |it: &mut dyn Iterator<Item = (u32, u32, f64)>| -> Vec<(u32, u32, u64)> {
        it.map(|(u, v, s)| (u, v, s.to_bits())).collect()
    };
    assert_eq!(
        bits(&mut warm.iter_pairs()),
        bits(&mut cold.iter_pairs()),
        "the cold fallback changed the bits"
    );
    assert_eq!(
        restored.pairs_evaluated(),
        cold.pairs_evaluated(),
        "not cold"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_deleted_snapshot_still_replays_the_first_edit() {
    let dir = scratch("deleted");
    let path = dir.join("session.fsnp");
    let mut original = replayable(75_007);
    original.write_snapshot(&path).expect("write");
    let mut restored = FsimEngine::restore(&path).expect("restore");
    std::fs::remove_file(&path).expect("delete");

    let mut rng = ChaCha8Rng::seed_from_u64(75_008);
    let edit = fresh_edge(&mut rng, original.graphs().1);
    original
        .apply_edits(std::slice::from_ref(&edit))
        .expect("edit");
    restored
        .apply_edits(std::slice::from_ref(&edit))
        .expect("edit");
    assert_eq!(fingerprint(&original), fingerprint(&restored));
    assert!(
        restored.can_replay_edits(),
        "the replay recorded no trajectory"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_and_spilled_sessions_restore_bitwise() {
    let dir = scratch("sharded");
    let mut rng = ChaCha8Rng::seed_from_u64(72_002);
    for case in 0..6 {
        let (g1, g2) = arb_graph_pair(&mut rng, 9);
        let mut cfg = FsimConfig::new(Variant::ALL[case % 4]).label_fn(LabelFn::Indicator);
        cfg.theta = 0.3;
        cfg.shards = ShardSpec::Fixed(2 + case % 3);
        if case % 2 == 1 {
            cfg.spill_dir = Some(dir.join(format!("spill-{case}")));
        }
        let mut sharded = FsimEngine::new_owned(g1.clone(), g2.clone(), &cfg).expect("config");
        sharded.run();

        let path = dir.join(format!("sharded-{case}.fsnp"));
        sharded.write_snapshot(&path).expect("write");
        let restored = FsimEngine::restore(&path).expect("restore");
        assert_eq!(
            fingerprint(&sharded),
            fingerprint(&restored),
            "case {case}: sharded session diverged after restore"
        );

        // And the sharded run itself matches the unsharded oracle.
        let mut plain_cfg = cfg.clone();
        plain_cfg.shards = ShardSpec::Off;
        plain_cfg.spill_dir = None;
        let mut plain = FsimEngine::new_owned(g1, g2, &plain_cfg).expect("config");
        plain.run();
        let scores_sharded: Vec<u64> = restored.iter_pairs().map(|(_, _, s)| s.to_bits()).collect();
        let scores_plain: Vec<u64> = plain.iter_pairs().map(|(_, _, s)| s.to_bits()).collect();
        assert_eq!(
            scores_sharded, scores_plain,
            "case {case}: sharding drifted"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Golden fixture: pins the byte-level format.
// ---------------------------------------------------------------------

/// The canonical session behind `tests/fixtures/golden_v1.fsnp`:
/// deterministic inputs, single-threaded, fixed config — its snapshot
/// image must be byte-stable across builds.
fn golden_session() -> FsimEngine<'static> {
    let g1 = fsim_graph::graph_from_parts(
        &["a", "b", "a", "c", "b"],
        &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)],
    );
    let g2raw =
        fsim_graph::graph_from_parts(&["a", "b", "c", "a"], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
    let mut b = GraphBuilder::with_interner(std::sync::Arc::clone(g1.interner()));
    for u in g2raw.nodes() {
        b.add_node(&g2raw.label_str(u));
    }
    for (u, v) in g2raw.edges() {
        b.add_edge(u, v);
    }
    let mut cfg = FsimConfig::new(Variant::Bijective).label_fn(LabelFn::Indicator);
    cfg.theta = 0.5;
    cfg.threads = 1;
    let mut e = FsimEngine::new_owned(g1, b.build(), &cfg).expect("valid config");
    e.run();
    e
}

fn fixture_path() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/golden_v1.fsnp"
    ))
}

/// Regeneration hook, deliberately ignored:
/// `cargo test --test snapshot_roundtrip regenerate -- --ignored`
#[test]
#[ignore = "writes the golden fixture; run explicitly after a deliberate format bump"]
fn regenerate_golden_fixture() {
    let bytes = golden_session().snapshot_bytes().expect("serialize");
    std::fs::create_dir_all(fixture_path().parent().unwrap()).expect("fixtures dir");
    std::fs::write(fixture_path(), bytes).expect("write fixture");
}

/// Old snapshots must keep loading: the checked-in fixture restores to
/// exactly the session that produced it.
#[test]
fn golden_fixture_restores_to_the_canonical_session() {
    let fixture = fixture_path();
    let restored = FsimEngine::restore(&fixture).expect("golden fixture must restore");
    let canonical = golden_session();
    let a = fingerprint(&canonical);
    let b = fingerprint(&restored);
    assert_eq!(
        a, b,
        "golden fixture no longer matches the canonical session"
    );
}

/// Byte-level drift detector: while `FORMAT_VERSION` says the format is
/// unchanged, serializing the canonical session must reproduce the
/// fixture byte for byte. If you changed the layout, bump
/// `FORMAT_VERSION` in `crates/snapshot/src/format.rs`, regenerate the
/// fixture (see `regenerate_golden_fixture`) and document the change in
/// `docs/SNAPSHOT.md`.
#[test]
fn format_drift_without_a_version_bump_is_caught() {
    let fixture = std::fs::read(fixture_path()).expect("read golden fixture");
    assert!(fixture.len() >= 8, "fixture too short to carry a header");
    let fixture_version = u32::from_le_bytes(fixture[4..8].try_into().unwrap());
    assert_eq!(
        fixture_version, FORMAT_VERSION,
        "FORMAT_VERSION was bumped — regenerate tests/fixtures/golden_v1.fsnp \
         (cargo test --test snapshot_roundtrip regenerate -- --ignored) and \
         record the new layout in docs/SNAPSHOT.md"
    );
    let bytes = golden_session().snapshot_bytes().expect("serialize");
    assert_eq!(
        bytes, fixture,
        "snapshot byte layout changed without a FORMAT_VERSION bump"
    );
}

/// Approximate sessions written by earlier builds carry section 9, the
/// per-slot accumulators of a retired approximate schedule. Such files
/// must keep restoring with the section skipped: the persisted scores
/// stay within the persisted bound of the exact scores, a fresh run
/// reproduces a new session's bits, and a rewrite drops the section.
#[test]
fn retired_approx_section_is_skipped_on_restore() {
    let fixture = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/approx_v1.fsnp"
    ));
    let has_retired_section = |bytes: &[u8]| {
        let file = fsim_snapshot::SnapshotFile::from_bytes(bytes, REGISTRY).expect("valid FSNP");
        file.sections().iter().any(|s| s.id == 9)
    };
    assert!(has_retired_section(&std::fs::read(&fixture).unwrap()));

    let mut restored = FsimEngine::restore(&fixture).expect("old approximate file must restore");
    assert!(restored
        .config()
        .convergence
        .approximate_tolerance()
        .is_some());
    let bound = restored.error_bound();
    assert!(bound > 0.0);
    let (g1, g2) = restored.graphs();
    let (g1, g2) = (g1.clone(), g2.clone());
    let mut exact_cfg = restored.config().clone();
    exact_cfg.convergence = ConvergenceMode::DeltaDriven;
    let exact = compute(&g1, &g2, &exact_cfg).unwrap();
    for ((_, _, a), (_, _, b)) in restored.iter_pairs().zip(exact.iter_pairs()) {
        assert!((a - b).abs() <= bound, "persisted scores outside the bound");
    }

    restored.run();
    let mut fresh = FsimEngine::new(&g1, &g2, restored.config()).unwrap();
    fresh.run();
    for ((_, _, a), (_, _, b)) in restored.iter_pairs().zip(fresh.iter_pairs()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert_eq!(
        restored.error_bound().to_bits(),
        fresh.error_bound().to_bits()
    );
    assert!(!has_retired_section(&restored.snapshot_bytes().unwrap()));
}

/// The section registry of `docs/SNAPSHOT.md`.
static REGISTRY: &[(u32, &str)] = &[
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
