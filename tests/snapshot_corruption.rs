//! Corruption and crash-consistency battery for the FSNP snapshot
//! format. The contract under attack: **no mutated or truncated input
//! may ever panic, abort, or balloon memory** — every failure mode is a
//! structured [`SnapshotError`] naming what went wrong — and an
//! interrupted rewrite never damages the previous snapshot.

use fsim::prelude::*;
use fsim_core::{scan_snapshot_dir, FsimEngine, SnapshotError};
use fsim_snapshot::{SnapshotFile, FORMAT_VERSION, MAGIC};
use std::path::{Path, PathBuf};

/// The section registry from `docs/SNAPSHOT.md`, re-declared here so a
/// silent registry change in `persist.rs` shows up as a test failure.
static KNOWN: &[(u32, &str)] = &[
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

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fsim-snap-corrupt-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A session exercising the optional sections too (approximate mode →
/// a non-zero error bound; sharding → shard diag; Jaro–Winkler → the
/// prepared label table rides along, so the sweeps mutate it like
/// everything else).
fn rich_session() -> FsimEngine<'static> {
    let g1 = fsim_graph::graph_from_parts(
        &["a", "b", "a", "c", "b", "c"],
        &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)],
    );
    let mut b = GraphBuilder::with_interner(std::sync::Arc::clone(g1.interner()));
    for label in ["a", "c", "b", "a"] {
        b.add_node(label);
    }
    for (u, v) in [(0u32, 1u32), (1, 2), (2, 3), (3, 0)] {
        b.add_edge(u, v);
    }
    let mut cfg = FsimConfig::new(Variant::Bijective).label_fn(LabelFn::JaroWinkler);
    cfg.theta = 0.4;
    cfg.threads = 1;
    cfg.convergence = ConvergenceMode::Approximate { tolerance: 1.0 };
    cfg.shards = ShardSpec::Fixed(2);
    let mut e = FsimEngine::new_owned(g1, b.build(), &cfg).expect("valid config");
    e.run();
    e
}

fn good_bytes() -> Vec<u8> {
    rich_session().snapshot_bytes().expect("serialize")
}

/// Restores mutated bytes through the real file-based path (mmap and
/// all); the payoff assertion is simply that we *return* — any panic
/// fails the test harness.
fn try_restore(dir: &Path, bytes: &[u8]) -> Result<FsimEngine<'static>, SnapshotError> {
    let path = dir.join("mutant.fsnp");
    std::fs::write(&path, bytes).expect("write mutant");
    FsimEngine::restore(&path)
}

fn scores_bits(e: &FsimEngine<'static>) -> Vec<u64> {
    e.iter_pairs().map(|(_, _, s)| s.to_bits()).collect()
}

#[test]
fn truncation_at_every_byte_is_a_structured_error() {
    let dir = scratch("truncate");
    let bytes = good_bytes();
    let baseline = scores_bits(&rich_session());
    for len in 0..bytes.len() {
        match try_restore(&dir, &bytes[..len]) {
            Err(e) => {
                // Every error must render a non-empty human diagnosis.
                assert!(
                    !e.to_string().is_empty(),
                    "truncation at {len}: empty error message"
                );
            }
            Ok(restored) => {
                // The only truncation allowed to validate is one that
                // sheds nothing but the final section's zero padding —
                // every semantic byte is still present and the restored
                // state must prove it.
                assert!(
                    bytes[len..].iter().all(|b| *b == 0),
                    "truncation at {len}/{} dropped non-padding bytes yet restored",
                    bytes.len()
                );
                assert_eq!(
                    scores_bits(&restored),
                    baseline,
                    "padding-only truncation at {len} changed state"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn single_bit_flips_never_panic_and_never_silently_alter_state() {
    let dir = scratch("bitflip");
    let bytes = good_bytes();
    let baseline = scores_bits(&rich_session());
    for pos in 0..bytes.len() {
        for bit in [0x01u8, 0x80u8] {
            let mut mutant = bytes.clone();
            mutant[pos] ^= bit;
            match try_restore(&dir, &mutant) {
                Err(_) => {}
                // A flip in padding or another non-semantic byte may
                // legally validate — but then the restored state must
                // be byte-for-byte the original.
                Ok(restored) => assert_eq!(
                    scores_bits(&restored),
                    baseline,
                    "bit {bit:#04x} at byte {pos}: snapshot validated yet state changed"
                ),
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn payload_corruption_names_the_damaged_section() {
    let dir = scratch("sections");
    let bytes = good_bytes();
    let file = SnapshotFile::from_bytes(&bytes, KNOWN).expect("good bytes validate");
    let sections: Vec<(String, usize, usize)> = file
        .sections()
        .iter()
        .map(|s| (s.name.to_string(), s.offset, s.len))
        .collect();
    assert!(
        sections.iter().any(|(name, ..)| name == "label_table"),
        "rich session must exercise the optional label_table section"
    );
    assert!(
        sections.iter().all(|(name, ..)| name != "approx"),
        "the retired approx section must not be written"
    );
    drop(file);
    for (name, offset, len) in sections {
        if len == 0 {
            continue;
        }
        let mut mutant = bytes.clone();
        mutant[offset + len / 2] ^= 0xff;
        let err = try_restore(&dir, &mutant).expect_err("payload corruption must fail");
        let msg = err.to_string();
        assert!(
            msg.contains(&name),
            "corrupting section {name:?} produced an error that does not name it: {msg}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wrong_magic_and_future_version_are_rejected_up_front() {
    let dir = scratch("header");
    let bytes = good_bytes();
    assert_eq!(&bytes[..4], MAGIC, "header layout changed under the test");

    let mut wrong_magic = bytes.clone();
    wrong_magic[..4].copy_from_slice(b"NOPE");
    assert!(matches!(
        try_restore(&dir, &wrong_magic),
        Err(SnapshotError::BadMagic { .. })
    ));

    let mut future = bytes.clone();
    future[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    match try_restore(&dir, &future) {
        Err(SnapshotError::UnsupportedVersion { found, .. }) => {
            assert_eq!(found, FORMAT_VERSION + 1)
        }
        other => panic!("future version accepted or mis-typed: {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Hostile table entries claiming absurd lengths/offsets must be caught
/// by arithmetic, not by attempting the allocation.
#[test]
fn length_overflow_in_the_section_table_is_rejected_without_allocating() {
    let dir = scratch("overflow");
    let bytes = good_bytes();
    // Header is 16 bytes; table entries are 32 bytes:
    // id u32, reserved u32, offset u64, len u64, checksum u64.
    let entry0 = 16;
    for (field_off, value) in [
        (8, u64::MAX),      // offset: far outside the file
        (16, u64::MAX),     // len: would overflow offset+len
        (16, u64::MAX / 2), // len: no overflow, still way past EOF
        (8, u64::MAX - 7),  // offset+len wraps around
    ] {
        let mut mutant = bytes.clone();
        mutant[entry0 + field_off..entry0 + field_off + 8].copy_from_slice(&value.to_le_bytes());
        match try_restore(&dir, &mutant) {
            Err(_) => {}
            Ok(_) => panic!("table entry with field+{field_off}={value:#x} validated"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_and_header_only_files_are_structured_errors() {
    let dir = scratch("stubs");
    assert!(try_restore(&dir, b"").is_err());
    assert!(try_restore(&dir, &MAGIC).is_err());
    let mut header_only = Vec::new();
    header_only.extend_from_slice(&MAGIC);
    header_only.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    header_only.extend_from_slice(&0u32.to_le_bytes()); // zero sections
    header_only.extend_from_slice(&0u32.to_le_bytes()); // reserved
                                                        // A structurally valid container with no sections fails at the
                                                        // engine layer (missing config), not with a panic.
    match try_restore(&dir, &header_only) {
        Err(SnapshotError::MissingSection { .. }) => {}
        other => panic!("expected MissingSection, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Crash consistency: a rewrite that dies mid-flight must never damage
// the previous snapshot.
// ---------------------------------------------------------------------

#[test]
fn interrupted_rewrite_preserves_the_previous_snapshot() {
    let dir = scratch("crash");
    let path = dir.join("session.fsnp");

    let mut engine = rich_session();
    engine.write_snapshot(&path).expect("initial write");
    let old_scores = scores_bits(&engine);

    // Move the session forward so the interrupted rewrite would have
    // changed the file's contents.
    engine
        .apply_edits(&[GraphEdit::add_edge(GraphSide::Right, 3, 1)])
        .expect("edit");
    let new_len = engine.snapshot_bytes().expect("serialize").len();
    assert_ne!(scores_bits(&engine), old_scores, "edit must change scores");

    // Die after N bytes of the temp file, for a sweep of N across the
    // whole image. The visible file must stay the *old* snapshot.
    for n in (0..new_len).step_by(7).chain([0, new_len - 1]) {
        engine
            .write_snapshot_failing_after(&path, n)
            .expect_err("a write that dies mid-flight must report failure");
        let survivor = FsimEngine::restore(&path)
            .unwrap_or_else(|e| panic!("old snapshot unreadable after crash at byte {n}: {e}"));
        assert_eq!(
            scores_bits(&survivor),
            old_scores,
            "crash at byte {n} leaked partial state into the visible file"
        );
    }

    // The partial `.tmp` stubs left by the crashes are invisible to a
    // directory scan: only the good snapshot loads, nothing is reported
    // as corrupt, and nothing panics.
    assert!(
        std::fs::read_dir(&dir)
            .expect("read scratch dir")
            .filter_map(|e| e.ok())
            .any(|e| e.file_name().to_string_lossy().contains(".tmp")),
        "crash hook must leave a .tmp stub behind for this test to be meaningful"
    );
    let (loaded, skipped) = scan_snapshot_dir(&dir).expect("scan");
    assert_eq!(
        loaded.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
        ["session"]
    );
    assert!(
        skipped.is_empty(),
        "stubs must be ignored, not reported: {skipped:?}"
    );

    // And a rewrite that completes replaces the snapshot atomically.
    engine.write_snapshot(&path).expect("full rewrite");
    let fresh = FsimEngine::restore(&path).expect("restore new snapshot");
    assert_eq!(scores_bits(&fresh), scores_bits(&engine));
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Checksum-valid but malformed sections: restore defers decoding the
// dependency CSR and the trajectory to their first use, so these
// mutants prove their structural checks still run at restore.
// ---------------------------------------------------------------------

/// An unsharded delta-driven session: its snapshot carries the `deps`
/// and `trajectory` sections.
fn replayable_session() -> FsimEngine<'static> {
    let g = fsim_graph::graph_from_parts(
        &["a", "b", "a", "c", "b", "c", "a"],
        &[
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 6),
            (6, 0),
            (1, 4),
            (2, 5),
        ],
    );
    let mut cfg = FsimConfig::new(Variant::Simple).label_fn(LabelFn::Indicator);
    cfg.threads = 1;
    cfg.convergence = ConvergenceMode::DeltaDriven;
    let mut e = FsimEngine::new_owned(g.clone(), g, &cfg).expect("valid config");
    e.run();
    assert!(e.can_replay_edits(), "the session must record a trajectory");
    e
}

/// `bytes` with `patch` applied to section `name`'s payload, and the
/// section's table checksum recomputed, so the mutant passes every
/// checksum and only the section's own structure is wrong.
fn rechecksummed(bytes: &[u8], name: &str, patch: impl FnOnce(&mut [u8])) -> Vec<u8> {
    let file = SnapshotFile::from_bytes(bytes, KNOWN).expect("good bytes validate");
    let (k, meta) = file
        .sections()
        .iter()
        .enumerate()
        .find(|(_, m)| m.name == name)
        .map(|(k, m)| (k, *m))
        .unwrap_or_else(|| panic!("no {name} section"));
    drop(file);
    let mut mutant = bytes.to_vec();
    let payload = &mut mutant[meta.offset..meta.offset + meta.len];
    patch(payload);
    let sum = fsim_snapshot::fnv1a(payload);
    // Table entry k: id u32, reserved u32, offset u64, len u64, checksum u64.
    let at = 16 + 32 * k + 24;
    mutant[at..at + 8].copy_from_slice(&sum.to_le_bytes());
    SnapshotFile::from_bytes(&mutant, KNOWN).expect("the mutant's checksums hold");
    mutant
}

fn get_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

fn put_u64(b: &mut [u8], at: usize, v: u64) {
    b[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

#[test]
fn checksum_valid_malformed_deps_and_trajectory_fail_at_restore() {
    let dir = scratch("deferred");
    let session = replayable_session();
    let n = session.pair_count();
    let bytes = session.snapshot_bytes().expect("serialize");
    // `deps` payload: out_offsets and in_offsets (count + n + 1 words
    // each), then out_entries (count + 16 bytes per entry: i, j, slot,
    // cval).
    let offsets_bytes = 8 + 8 * (n + 1);
    let mutants = [
        (
            "deps",
            "an entry slot out of range",
            rechecksummed(&bytes, "deps", |p| {
                let entries = 2 * offsets_bytes;
                assert!(get_u64(p, entries) > 0, "no out entries to corrupt");
                let slot = entries + 8 + 8;
                p[slot..slot + 4].copy_from_slice(&u32::try_from(n).unwrap().to_le_bytes());
            }),
        ),
        (
            "deps",
            "non-monotone out_offsets",
            rechecksummed(&bytes, "deps", |p| {
                let terminal = get_u64(p, 8 + 8 * n);
                put_u64(p, 8 + 8, terminal + 1);
            }),
        ),
        (
            "trajectory",
            "a freeze point at the iteration count",
            rechecksummed(&bytes, "trajectory", |p| {
                // t_count, n, the freeze count, then the freeze points.
                let t_count = u32::try_from(get_u64(p, 0)).unwrap();
                p[24..28].copy_from_slice(&t_count.to_le_bytes());
            }),
        ),
    ];
    for (section, what, mutant) in mutants {
        match try_restore(&dir, &mutant) {
            Err(err @ SnapshotError::Malformed { .. }) => assert_eq!(
                err.section(),
                Some(section),
                "{what}: the error names the wrong section: {err}"
            ),
            Err(other) => panic!("{what}: expected a malformed {section} section, got {other}"),
            Ok(_) => panic!("{what}: restore accepted a malformed {section} section"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
