//! The session snapshot codec: [`FsimEngine::write_snapshot`] /
//! [`FsimEngine::restore`] over the `FSNP` container of
//! [`fsim_snapshot`].
//!
//! ## What is persisted vs re-derived
//!
//! Persisted (see `docs/SNAPSHOT.md` for the byte-level spec): the
//! config, the merged label interner, both graphs (labels already
//! remapped to the merged interner), the candidate store, converged
//! scores + label terms, the pair-dependency CSR (when cached), the
//! recorded iterate trajectory (freeze-point delta-compressed), the run
//! diagnostics, and — when the label
//! function builds one — the prepared `|Σ| × |Σ|` similarity table,
//! whose O(|Σ|²) string-similarity rebuild would otherwise dominate
//! cold start.
//!
//! Re-derived on restore: the table-free label evaluations (`Indicator`
//! and constant terms), the sparse pair index (rebuilt from
//! the pair list in slot order), the iteration double buffer, the
//! worker pool (lazy), and shard state (rebuilt deterministically by
//! the next run). Per-iteration wall-clock times are *not* persisted —
//! they are measurements of a dead process — so a restored session
//! reports an empty [`FsimEngine::iteration_seconds`].
//!
//! ## Trajectory freeze-point encoding
//!
//! The live trajectory is a dense `T × |H|` matrix of iterates. Under
//! the monotone Jacobi update most slots converge early: slot `s`
//! reaches its final bit pattern at some iteration `f_s ≤ T − 1` and
//! never changes again. The snapshot stores, per slot, `f_s` and the
//! column prefix `traj[0..=f_s][s]`; reconstruction reads
//! `traj[t][s] = col_s[min(t, f_s)]` — lossless, bitwise, and in
//! practice a multiple smaller than the dense matrix (measured by
//! `BENCH_snapshot.json`).

use crate::config::{
    ConvergenceMode, FsimConfig, InitScheme, LabelTermMode, MatcherKind, ShardSpec, Variant,
};
use crate::engine::deps::{put_dep_entries, read_dep_entries, PairDepCsr};
use crate::engine::session::{FsimEngine, RestoredParts};
use crate::operators::VariantOp;
use crate::store::{Fallback, PairIndex, PairStore, RowIndex};
use fsim_graph::csr::Csr;
use fsim_graph::{FxHashMap, Graph, LabelId, LabelInterner};
use fsim_labels::LabelFn;
use fsim_snapshot::cursor::{put_f64_slice, put_u32_slice, put_usize_slice};
use fsim_snapshot::writer::{put_f64, put_u32, put_u64, put_u8, put_usize, SnapshotBuilder};
use fsim_snapshot::{Cursor, SnapshotError, SnapshotFile};
use std::path::Path;
use std::sync::Arc;

/// Session configuration (everything but `spill_dir`, a machine-local
/// path).
const SEC_CONFIG: u32 = 1;
/// Merged label interner: strings in id order.
const SEC_INTERNER: u32 = 2;
/// First graph: engine-aligned labels + both adjacency CSRs.
const SEC_GRAPH1: u32 = 3;
/// Second graph, same layout.
const SEC_GRAPH2: u32 = 4;
/// Candidate store: pair list, index kind, pruning fallback.
const SEC_STORE: u32 = 5;
/// Converged scores + cached label terms.
const SEC_SCORES: u32 = 6;
/// Pair-dependency CSR (optional — present when the session cached one).
const SEC_DEPS: u32 = 7;
/// Freeze-point-compressed iterate trajectory (optional).
const SEC_TRAJECTORY: u32 = 8;
/// Retired: the per-slot accumulators of an approximate schedule that no
/// longer exists. Never written; files from earlier builds that carry it
/// still restore, the section skipped.
const SEC_RETIRED_APPROX: u32 = 9;
/// Run diagnostics: iterations, convergence, error bound, …
const SEC_DIAG: u32 = 10;
/// Prepared label-similarity table (optional — present when the label
/// function builds one; `Indicator` and constant label terms run
/// table-free). Persisting it makes restore skip the O(|Σ|²)
/// string-similarity computation that otherwise dominates cold start.
const SEC_LABEL_TABLE: u32 = 11;

/// Every section id this build understands, with display names.
const KNOWN_SECTIONS: &[(u32, &str)] = &[
    (SEC_CONFIG, "config"),
    (SEC_INTERNER, "interner"),
    (SEC_GRAPH1, "graph1"),
    (SEC_GRAPH2, "graph2"),
    (SEC_STORE, "store"),
    (SEC_SCORES, "scores"),
    (SEC_DEPS, "deps"),
    (SEC_TRAJECTORY, "trajectory"),
    (SEC_RETIRED_APPROX, "approx"),
    (SEC_DIAG, "diag"),
    (SEC_LABEL_TABLE, "label_table"),
];

/// Hard ceiling on the iteration count a trajectory section may claim.
/// Real trajectories are bounded by `⌈log_w ε⌉` (tens); this cap only
/// exists so a hostile `T` cannot multiply into an OOM allocation.
const MAX_TRAJ_ITERS: usize = 16_384;

impl<'g> FsimEngine<'g, VariantOp> {
    /// Serializes the whole session to `path` as an `FSNP` snapshot
    /// (atomic temp-file + rename; see `docs/SNAPSHOT.md`).
    ///
    /// Fails with [`SnapshotError::Unsupported`] if the session uses a
    /// [`LabelFn::Custom`] closure — arbitrary code cannot be
    /// persisted. Only built-in-operator (`VariantOp`) sessions expose
    /// this API, for the same reason.
    pub fn write_snapshot(&self, path: &Path) -> Result<(), SnapshotError> {
        self.snapshot_builder()?.write_atomic(path)
    }

    /// Crash-test hook: like [`write_snapshot`](Self::write_snapshot),
    /// but the write "dies" after `byte_limit` bytes of the temp file,
    /// leaving the partial `.tmp` stub behind and never renaming.
    /// Exists for the crash-consistency battery; not useful otherwise.
    pub fn write_snapshot_failing_after(
        &self,
        path: &Path,
        byte_limit: usize,
    ) -> Result<(), SnapshotError> {
        self.snapshot_builder()?
            .write_atomic_failing_after(path, byte_limit)
    }

    /// The serialized snapshot image (what `write_snapshot` writes) —
    /// used by the golden-fixture test to compare bytes without I/O.
    pub fn snapshot_bytes(&self) -> Result<Vec<u8>, SnapshotError> {
        Ok(self.snapshot_builder()?.to_bytes())
    }

    fn snapshot_builder(&self) -> Result<SnapshotBuilder, SnapshotError> {
        let parts = self.persist_parts();
        let mut b = SnapshotBuilder::new();
        encode_config(b.section(SEC_CONFIG), parts.cfg)?;
        encode_interner(b.section(SEC_INTERNER), parts.interner);
        encode_graph(b.section(SEC_GRAPH1), parts.g1, parts.labels1);
        encode_graph(b.section(SEC_GRAPH2), parts.g2, parts.labels2);
        encode_store(b.section(SEC_STORE), parts.store);
        let buf = b.section(SEC_SCORES);
        put_f64_slice(buf, parts.scores);
        put_f64_slice(buf, parts.label_terms);
        if let Some(deps) = parts.deps {
            encode_deps(b.section(SEC_DEPS), deps);
        }
        if let Some(traj) = parts.trajectory {
            encode_trajectory(b.section(SEC_TRAJECTORY), traj);
        }
        let buf = b.section(SEC_DIAG);
        put_usize(buf, parts.iterations);
        put_u8(buf, u8::from(parts.converged));
        put_f64(buf, parts.final_delta);
        put_f64(buf, parts.error_bound);
        put_u8(buf, u8::from(parts.delta_scheduled));
        put_usize(buf, parts.shard_count);
        put_u8(buf, u8::from(parts.has_run));
        put_usize_slice(buf, parts.pairs_evaluated);
        if let Some(table) = parts.label_table {
            let buf = b.section(SEC_LABEL_TABLE);
            put_usize(buf, parts.interner.len());
            put_f64_slice(buf, table);
        }
        Ok(b)
    }
}

impl FsimEngine<'static, VariantOp> {
    /// Restores a session from a snapshot written by
    /// [`write_snapshot`](FsimEngine::write_snapshot).
    ///
    /// The restored session owns its graphs and is **bitwise
    /// equivalent** to the one that was snapshotted for every
    /// subsequent operation — `run`, `rerun`, `apply_edits`, `top_k`,
    /// `score` — including `error_bound` and per-iteration
    /// `pairs_evaluated` (property-tested in
    /// `tests/snapshot_roundtrip.rs`). Timing diagnostics
    /// (`iteration_seconds`, `peak_csr_bytes`) are measurements of the
    /// writing process and come back empty/zero.
    pub fn restore(path: &Path) -> Result<Self, SnapshotError> {
        let file = SnapshotFile::open(path, KNOWN_SECTIONS)?;
        Self::restore_from_file(&file)
    }

    fn restore_from_file(file: &SnapshotFile) -> Result<Self, SnapshotError> {
        let cfg = decode_config(file.section(SEC_CONFIG)?)?;
        let interner = decode_interner(file.section(SEC_INTERNER)?)?;
        let g1 = decode_graph("graph1", file.section(SEC_GRAPH1)?, &interner)?;
        let g2 = decode_graph("graph2", file.section(SEC_GRAPH2)?, &interner)?;
        let store = decode_store(file.section(SEC_STORE)?, &g1, &g2)?;
        let n = store.pairs.len();
        let mut cur = Cursor::new("scores", file.section(SEC_SCORES)?);
        let scores = cur.f64_vec()?;
        let label_terms = cur.f64_vec()?;
        cur.finish()?;
        if label_terms.len() != n || (!scores.is_empty() && scores.len() != n) {
            return Err(SnapshotError::Malformed {
                section: "scores",
                detail: format!(
                    "{} scores / {} label terms for {n} pairs",
                    scores.len(),
                    label_terms.len()
                ),
            });
        }
        let deps = if file.has_section(SEC_DEPS) {
            Some(decode_deps(file.section(SEC_DEPS)?, n)?)
        } else {
            None
        };
        let trajectory = if file.has_section(SEC_TRAJECTORY) {
            Some(decode_trajectory(
                file.section(SEC_TRAJECTORY)?,
                n,
                cfg.trajectory_budget,
            )?)
        } else {
            None
        };
        let label_table = if file.has_section(SEC_LABEL_TABLE) {
            // Only sessions whose label function actually builds a table
            // write this section; a file claiming one for a table-free
            // config is malformed, not a fallback case.
            let tabled = matches!(cfg.label_term, LabelTermMode::Sim)
                && !matches!(cfg.label_fn, LabelFn::Indicator);
            if !tabled {
                return Err(SnapshotError::Malformed {
                    section: "label_table",
                    detail: "table present for a table-free label configuration".to_string(),
                });
            }
            let mut cur = Cursor::new("label_table", file.section(SEC_LABEL_TABLE)?);
            let claimed_n = cur.usize64()?;
            let table = cur.f64_vec()?;
            cur.finish()?;
            let n = interner.len();
            if claimed_n != n || claimed_n.checked_mul(claimed_n) != Some(table.len()) {
                return Err(SnapshotError::Malformed {
                    section: "label_table",
                    detail: format!(
                        "{} entries claiming {claimed_n} labels against {n} interned",
                        table.len()
                    ),
                });
            }
            Some(table)
        } else {
            None
        };
        let mut cur = Cursor::new("diag", file.section(SEC_DIAG)?);
        let iterations = cur.usize64()?;
        let converged = cur.bool()?;
        let final_delta = cur.f64()?;
        let error_bound = cur.f64()?;
        let delta_scheduled = cur.bool()?;
        let shard_count = cur.usize64()?;
        let has_run = cur.bool()?;
        let pairs_evaluated = cur.usize_vec()?;
        cur.finish()?;
        Ok(FsimEngine::from_restored(RestoredParts {
            g1,
            g2,
            cfg,
            interner,
            store,
            label_terms,
            label_table,
            deps,
            scores,
            trajectory,
            iterations,
            converged,
            final_delta,
            error_bound,
            pairs_evaluated,
            delta_scheduled,
            shard_count,
            has_run,
        }))
    }
}

/// Scans `dir` for `*.fsnp` snapshots and restores each. Returns the
/// successfully restored sessions keyed by file stem, plus the files
/// that were skipped and why — partial `*.tmp` stubs from crashed
/// writes are not `.fsnp` files and are silently ignored, while a
/// corrupt `.fsnp` is reported in the skip list (never a panic).
#[allow(clippy::type_complexity)]
pub fn scan_snapshot_dir(
    dir: &Path,
) -> Result<
    (
        Vec<(String, FsimEngine<'static, VariantOp>)>,
        Vec<(String, SnapshotError)>,
    ),
    SnapshotError,
> {
    let mut loaded = Vec::new();
    let mut skipped = Vec::new();
    let mut entries: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| SnapshotError::io("scan-dir", e))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(stem) = name.strip_suffix(".fsnp") else {
            continue; // *.tmp stubs and foreign files
        };
        match FsimEngine::restore(&path) {
            Ok(engine) => loaded.push((stem.to_string(), engine)),
            Err(err) => skipped.push((name.to_string(), err)),
        }
    }
    Ok((loaded, skipped))
}

fn malformed(section: &'static str, detail: impl Into<String>) -> SnapshotError {
    SnapshotError::Malformed {
        section,
        detail: detail.into(),
    }
}

// ---------------------------------------------------------------- config

fn encode_config(buf: &mut Vec<u8>, cfg: &FsimConfig) -> Result<(), SnapshotError> {
    put_u32(
        buf,
        match cfg.variant {
            Variant::Simple => 0,
            Variant::DegreePreserving => 1,
            Variant::Bi => 2,
            Variant::Bijective => 3,
        },
    );
    put_u32(
        buf,
        match cfg.matcher {
            MatcherKind::Greedy => 0,
            MatcherKind::Hungarian => 1,
        },
    );
    put_f64(buf, cfg.w_out);
    put_f64(buf, cfg.w_in);
    put_f64(buf, cfg.theta);
    put_f64(buf, cfg.epsilon);
    put_u8(buf, u8::from(cfg.max_iters.is_some()));
    put_usize(buf, cfg.max_iters.unwrap_or(0));
    put_u32(
        buf,
        match cfg.label_fn {
            LabelFn::Indicator => 0,
            LabelFn::EditDistance => 1,
            LabelFn::JaroWinkler => 2,
            LabelFn::Custom(_) => {
                return Err(SnapshotError::Unsupported {
                    detail: "LabelFn::Custom closures cannot be serialized — snapshots \
                             support the built-in label functions only"
                        .to_string(),
                })
            }
        },
    );
    match cfg.label_term {
        LabelTermMode::Sim => {
            put_u32(buf, 0);
            put_f64(buf, 0.0);
        }
        LabelTermMode::Constant(c) => {
            put_u32(buf, 1);
            put_f64(buf, c);
        }
    }
    match cfg.init {
        InitScheme::LabelSim => {
            put_u32(buf, 0);
            put_f64(buf, 0.0);
        }
        InitScheme::Identity => {
            put_u32(buf, 1);
            put_f64(buf, 0.0);
        }
        InitScheme::OutDegreeRatio => {
            put_u32(buf, 2);
            put_f64(buf, 0.0);
        }
        InitScheme::Constant(c) => {
            put_u32(buf, 3);
            put_f64(buf, c);
        }
    }
    match cfg.upper_bound {
        Some(ub) => {
            put_u8(buf, 1);
            put_f64(buf, ub.alpha);
            put_f64(buf, ub.beta);
        }
        None => {
            put_u8(buf, 0);
            put_f64(buf, 0.0);
            put_f64(buf, 0.0);
        }
    }
    put_usize(buf, cfg.threads);
    put_u8(buf, u8::from(cfg.pin_identical));
    match cfg.convergence {
        ConvergenceMode::Auto => {
            put_u32(buf, 0);
            put_f64(buf, 0.0);
        }
        ConvergenceMode::FullSweep => {
            put_u32(buf, 1);
            put_f64(buf, 0.0);
        }
        ConvergenceMode::DeltaDriven => {
            put_u32(buf, 2);
            put_f64(buf, 0.0);
        }
        ConvergenceMode::Approximate { tolerance } => {
            put_u32(buf, 3);
            put_f64(buf, tolerance);
        }
    }
    match cfg.shards {
        ShardSpec::Auto => {
            put_u32(buf, 0);
            put_u64(buf, 0);
        }
        ShardSpec::Off => {
            put_u32(buf, 1);
            put_u64(buf, 0);
        }
        ShardSpec::Fixed(k) => {
            put_u32(buf, 2);
            put_usize(buf, k);
        }
    }
    put_usize(buf, cfg.csr_budget);
    put_usize(buf, cfg.trajectory_budget);
    Ok(())
}

fn decode_config(bytes: &[u8]) -> Result<FsimConfig, SnapshotError> {
    let mut cur = Cursor::new("config", bytes);
    let variant = match cur.u32()? {
        0 => Variant::Simple,
        1 => Variant::DegreePreserving,
        2 => Variant::Bi,
        3 => Variant::Bijective,
        t => return Err(malformed("config", format!("unknown variant tag {t}"))),
    };
    let matcher = match cur.u32()? {
        0 => MatcherKind::Greedy,
        1 => MatcherKind::Hungarian,
        t => return Err(malformed("config", format!("unknown matcher tag {t}"))),
    };
    let w_out = cur.f64()?;
    let w_in = cur.f64()?;
    let theta = cur.f64()?;
    let epsilon = cur.f64()?;
    let has_max = cur.u8()? != 0;
    let max_iters_raw = cur.usize64()?;
    let label_fn = match cur.u32()? {
        0 => LabelFn::Indicator,
        1 => LabelFn::EditDistance,
        2 => LabelFn::JaroWinkler,
        t => return Err(malformed("config", format!("unknown label-fn tag {t}"))),
    };
    let label_term = match (cur.u32()?, cur.f64()?) {
        (0, _) => LabelTermMode::Sim,
        (1, c) => LabelTermMode::Constant(c),
        (t, _) => return Err(malformed("config", format!("unknown label-term tag {t}"))),
    };
    let init = match (cur.u32()?, cur.f64()?) {
        (0, _) => InitScheme::LabelSim,
        (1, _) => InitScheme::Identity,
        (2, _) => InitScheme::OutDegreeRatio,
        (3, c) => InitScheme::Constant(c),
        (t, _) => return Err(malformed("config", format!("unknown init tag {t}"))),
    };
    let has_ub = cur.u8()? != 0;
    let (alpha, beta) = (cur.f64()?, cur.f64()?);
    let threads = cur.usize64()?;
    let pin_identical = cur.bool()?;
    let convergence = match (cur.u32()?, cur.f64()?) {
        (0, _) => ConvergenceMode::Auto,
        (1, _) => ConvergenceMode::FullSweep,
        (2, _) => ConvergenceMode::DeltaDriven,
        (3, tolerance) => ConvergenceMode::Approximate { tolerance },
        (t, _) => return Err(malformed("config", format!("unknown convergence tag {t}"))),
    };
    let shards = match (cur.u32()?, cur.usize64()?) {
        (0, _) => ShardSpec::Auto,
        (1, _) => ShardSpec::Off,
        (2, k) => ShardSpec::Fixed(k),
        (t, _) => return Err(malformed("config", format!("unknown shard tag {t}"))),
    };
    let csr_budget = cur.usize64()?;
    let trajectory_budget = cur.usize64()?;
    cur.finish()?;
    let mut cfg = FsimConfig::new(variant);
    cfg.matcher = matcher;
    cfg.w_out = w_out;
    cfg.w_in = w_in;
    cfg.theta = theta;
    cfg.epsilon = epsilon;
    cfg.max_iters = has_max.then_some(max_iters_raw);
    cfg.label_fn = label_fn;
    cfg.label_term = label_term;
    cfg.init = init;
    cfg.upper_bound = has_ub.then_some(crate::config::UpperBoundPruning { alpha, beta });
    cfg.threads = threads;
    cfg.pin_identical = pin_identical;
    cfg.convergence = convergence;
    cfg.shards = shards;
    cfg.csr_budget = csr_budget;
    cfg.trajectory_budget = trajectory_budget;
    cfg.spill_dir = None;
    cfg.validate()
        .map_err(|e| malformed("config", format!("invalid configuration: {e}")))?;
    Ok(cfg)
}

// -------------------------------------------------------------- interner

fn encode_interner(buf: &mut Vec<u8>, interner: &Arc<LabelInterner>) {
    let all = interner.all();
    put_usize(buf, all.len());
    for s in &all {
        fsim_snapshot::writer::put_bytes(buf, s.as_bytes());
    }
}

fn decode_interner(bytes: &[u8]) -> Result<Arc<LabelInterner>, SnapshotError> {
    let mut cur = Cursor::new("interner", bytes);
    // Length prefixes are ≥ 1 byte each.
    let count = cur.checked_len(1)?;
    let interner = LabelInterner::shared();
    for i in 0..count {
        let raw = cur.bytes()?;
        let s = std::str::from_utf8(raw)
            .map_err(|e| malformed("interner", format!("label {i} is not UTF-8: {e}")))?;
        let id = interner.intern(s);
        if id.index() != i {
            return Err(malformed(
                "interner",
                format!("duplicate label string {s:?} at id {i}"),
            ));
        }
    }
    cur.finish()?;
    Ok(interner)
}

// ---------------------------------------------------------------- graphs

fn encode_graph(buf: &mut Vec<u8>, g: &Graph, aligned_labels: &[LabelId]) {
    // The *engine-aligned* labels (merged-interner ids) are stored, so
    // restored graphs share the merged interner and the session's label
    // columns equal `g.labels()` again.
    debug_assert_eq!(aligned_labels.len(), g.node_count());
    put_usize(buf, aligned_labels.len());
    for l in aligned_labels {
        put_u32(buf, l.0);
    }
    let (out, inn) = g.csr_parts();
    for csr in [out, inn] {
        let (offsets, targets) = csr.raw_parts();
        put_u32_slice(buf, offsets);
        put_u32_slice(buf, targets);
    }
}

fn decode_graph(
    section: &'static str,
    bytes: &[u8],
    interner: &Arc<LabelInterner>,
) -> Result<Graph, SnapshotError> {
    let mut cur = Cursor::new(section, bytes);
    let checked_n = cur.checked_len(4)?;
    let raw = cur.take(checked_n * 4)?;
    let labels: Vec<LabelId> = raw
        .chunks_exact(4)
        .map(|c| LabelId(u32::from_le_bytes([c[0], c[1], c[2], c[3]])))
        .collect();
    let mut csrs = Vec::with_capacity(2);
    for _ in 0..2 {
        let offsets = cur.u32_vec()?;
        let targets = cur.u32_vec()?;
        csrs.push(Csr::from_raw_parts(offsets, targets).map_err(|e| malformed(section, e))?);
    }
    cur.finish()?;
    let inn = csrs.pop().expect("two CSRs pushed");
    let out = csrs.pop().expect("two CSRs pushed");
    Graph::from_csr_parts(labels, out, inn, Arc::clone(interner)).map_err(|e| malformed(section, e))
}

// ----------------------------------------------------------------- store

fn encode_store(buf: &mut Vec<u8>, store: &PairStore) {
    put_usize(buf, store.pairs.len());
    for &(u, v) in &store.pairs {
        put_u32(buf, u);
        put_u32(buf, v);
    }
    match &store.index {
        PairIndex::Dense { n2 } => {
            put_u32(buf, 0);
            put_u32(buf, *n2);
        }
        PairIndex::Sparse(_) => {
            // The row index is a function of the sorted pair list;
            // rebuilt from it on restore.
            put_u32(buf, 1);
            put_u32(buf, 0);
        }
    }
    match &store.fallback {
        Fallback::Zero => {
            put_u32(buf, 0);
            put_usize(buf, 0);
        }
        Fallback::AlphaUb(map) => {
            put_u32(buf, 1);
            // Sorted by key for byte-deterministic output.
            let mut entries: Vec<(u64, f32)> = map.iter().map(|(&k, &v)| (k, v)).collect();
            entries.sort_unstable_by_key(|&(k, _)| k);
            put_usize(buf, entries.len());
            for (k, v) in entries {
                put_u64(buf, k);
                put_u32(buf, v.to_bits());
            }
        }
    }
}

fn decode_store(bytes: &[u8], g1: &Graph, g2: &Graph) -> Result<PairStore, SnapshotError> {
    let mut cur = Cursor::new("store", bytes);
    let checked_n = cur.checked_len(8)?;
    let raw = cur.take(checked_n * 8)?;
    let pairs: Vec<(u32, u32)> = raw
        .chunks_exact(8)
        .map(|c| {
            (
                u32::from_le_bytes([c[0], c[1], c[2], c[3]]),
                u32::from_le_bytes([c[4], c[5], c[6], c[7]]),
            )
        })
        .collect();
    let (n1, n2) = (g1.node_count() as u64, g2.node_count() as u64);
    if let Some(&(u, v)) = pairs
        .iter()
        .find(|&&(u, v)| u as u64 >= n1 || v as u64 >= n2)
    {
        return Err(malformed(
            "store",
            format!("pair ({u}, {v}) out of graph range ({n1} × {n2} nodes)"),
        ));
    }
    // Slot order is (u, v) order: the row index, the edit path's row
    // lookups and the repair merge all rely on it.
    if let Some(w) = pairs.windows(2).find(|w| w[0] >= w[1]) {
        return Err(malformed(
            "store",
            format!(
                "pairs not strictly increasing: {:?} precedes {:?}",
                w[0], w[1]
            ),
        ));
    }
    let index = match cur.u32()? {
        0 => {
            let stored_n2 = cur.u32()?;
            if stored_n2 as u64 != n2 || pairs.len() as u64 != n1 * n2 {
                return Err(malformed(
                    "store",
                    format!(
                        "dense index claims n2 = {stored_n2} with {} pairs, graphs are {n1} × {n2}",
                        pairs.len()
                    ),
                ));
            }
            PairIndex::Dense { n2: stored_n2 }
        }
        1 => {
            cur.u32()?; // reserved
            if u32::try_from(pairs.len()).is_err() {
                return Err(malformed("store", "sparse index exceeds u32 slot space"));
            }
            // Pairs are validated in range and strictly increasing above.
            PairIndex::Sparse(RowIndex::from_sorted(&pairs, g1.node_count()))
        }
        t => return Err(malformed("store", format!("unknown index tag {t}"))),
    };
    let fallback = match cur.u32()? {
        0 => {
            cur.usize64()?; // reserved count (always 0)
            Fallback::Zero
        }
        1 => {
            let checked_m = cur.checked_len(12)?;
            let raw = cur.take(checked_m * 12)?;
            let mut map = FxHashMap::with_capacity_and_hasher(checked_m, Default::default());
            for c in raw.chunks_exact(12) {
                let k = u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
                let v = f32::from_bits(u32::from_le_bytes([c[8], c[9], c[10], c[11]]));
                map.insert(k, v);
            }
            Fallback::AlphaUb(map)
        }
        t => return Err(malformed("store", format!("unknown fallback tag {t}"))),
    };
    cur.finish()?;
    Ok(PairStore {
        pairs,
        index,
        fallback,
    })
}

// ------------------------------------------------------------------ deps

fn encode_deps(buf: &mut Vec<u8>, deps: &PairDepCsr) {
    let raw = deps.raw_parts();
    put_usize_slice(buf, raw.out_offsets);
    put_usize_slice(buf, raw.in_offsets);
    put_dep_entries(buf, raw.out_entries);
    put_dep_entries(buf, raw.in_entries);
    put_usize(buf, raw.dims.len());
    for d in raw.dims {
        for &v in d {
            put_u32(buf, v);
        }
    }
    put_usize_slice(buf, raw.rdep_offsets);
    put_u32_slice(buf, raw.rdeps);
}

fn decode_deps(bytes: &[u8], n_slots: usize) -> Result<PairDepCsr, SnapshotError> {
    let mut cur = Cursor::new("deps", bytes);
    let out_offsets = cur.usize_vec()?;
    let in_offsets = cur.usize_vec()?;
    let out_entries = read_dep_entries(&mut cur)?;
    let in_entries = read_dep_entries(&mut cur)?;
    let checked_dims = cur.checked_len(16)?;
    let mut dims = Vec::with_capacity(checked_dims);
    for _ in 0..checked_dims {
        dims.push([cur.u32()?, cur.u32()?, cur.u32()?, cur.u32()?]);
    }
    let rdep_offsets = cur.usize_vec()?;
    let rdeps = cur.u32_vec()?;
    cur.finish()?;
    PairDepCsr::from_raw_parts(
        out_offsets,
        in_offsets,
        out_entries,
        in_entries,
        dims,
        rdep_offsets,
        rdeps,
        n_slots,
    )
    .map_err(|e| malformed("deps", e))
}

// ------------------------------------------------------------ trajectory

fn encode_trajectory(buf: &mut Vec<u8>, traj: &[Vec<f64>]) {
    let t_count = traj.len();
    let n = traj.first().map_or(0, Vec::len);
    put_usize(buf, t_count);
    put_usize(buf, n);
    // Per-slot freeze points: the first iteration after which the
    // slot's bit pattern never changes again.
    let mut freeze = vec![0u32; n];
    for (s, f) in freeze.iter_mut().enumerate() {
        let mut fi = t_count - 1;
        while fi > 0 && traj[fi - 1][s].to_bits() == traj[fi][s].to_bits() {
            fi -= 1;
        }
        // lint:allow(lossy-cast-in-core): fi indexes the trajectory, whose length is capped at MAX_TRAJ_ITERS = 16384
        *f = fi as u32;
    }
    put_u32_slice(buf, &freeze);
    let total: u64 = freeze.iter().map(|&f| f as u64 + 1).sum();
    put_u64(buf, total);
    for (s, &f) in freeze.iter().enumerate() {
        for row in traj.iter().take(f as usize + 1) {
            put_f64(buf, row[s]);
        }
    }
}

fn decode_trajectory(
    bytes: &[u8],
    n_slots: usize,
    trajectory_budget: usize,
) -> Result<Vec<Vec<f64>>, SnapshotError> {
    let mut cur = Cursor::new("trajectory", bytes);
    let t_count = cur.usize64()?;
    let n = cur.usize64()?;
    if n != n_slots {
        return Err(malformed(
            "trajectory",
            format!("{n} slots per iterate, store has {n_slots}"),
        ));
    }
    if !(2..=MAX_TRAJ_ITERS).contains(&t_count) {
        return Err(malformed(
            "trajectory",
            format!("iteration count {t_count} outside 2..={MAX_TRAJ_ITERS}"),
        ));
    }
    // The dense reconstruction is the one place decoding expands beyond
    // the file's own size. The recorder never kept more than the
    // configured budget (plus one in-flight iterate), so anything
    // larger is inconsistent — reject it *before* allocating.
    let dense_bytes = (t_count as u64).saturating_mul(n as u64).saturating_mul(8);
    let budget_cap = (trajectory_budget as u64).saturating_mul(2).max(64 << 20);
    if dense_bytes > budget_cap {
        return Err(SnapshotError::LengthOverflow {
            section: "trajectory",
            claimed: dense_bytes,
            limit: budget_cap,
        });
    }
    let freeze = cur.u32_vec()?;
    if freeze.len() != n {
        return Err(malformed(
            "trajectory",
            format!("{} freeze points for {n} slots", freeze.len()),
        ));
    }
    if let Some(&bad) = freeze.iter().find(|&&f| f as usize >= t_count) {
        return Err(malformed(
            "trajectory",
            format!("freeze point {bad} beyond iteration count {t_count}"),
        ));
    }
    let total = cur.u64()?;
    let expected: u64 = freeze.iter().map(|&f| f as u64 + 1).sum();
    if total != expected {
        return Err(malformed(
            "trajectory",
            format!("column value count {total} != sum of freeze prefixes {expected}"),
        ));
    }
    let avail = (cur.remaining() / 8) as u64;
    if total > avail {
        return Err(SnapshotError::LengthOverflow {
            section: "trajectory",
            claimed: total,
            limit: avail,
        });
    }
    let mut traj = vec![vec![0.0f64; n]; t_count];
    for (s, &f) in freeze.iter().enumerate() {
        for row in traj.iter_mut().take(f as usize + 1) {
            row[s] = cur.f64()?;
        }
        // Propagate the frozen value to the remaining iterations.
        let frozen = traj[f as usize][s];
        for row in traj.iter_mut().skip(f as usize + 1) {
            row[s] = frozen;
        }
    }
    cur.finish()?;
    Ok(traj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use fsim_graph::examples::figure1;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("fsim-persist-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn assert_sessions_equal(a: &FsimEngine<'_, VariantOp>, b: &FsimEngine<'static, VariantOp>) {
        assert_eq!(a.pair_count(), b.pair_count());
        assert_eq!(a.iterations(), b.iterations());
        assert_eq!(a.converged(), b.converged());
        assert_eq!(a.final_delta().to_bits(), b.final_delta().to_bits());
        assert_eq!(a.error_bound().to_bits(), b.error_bound().to_bits());
        assert_eq!(a.pairs_evaluated(), b.pairs_evaluated());
        for (pa, pb) in a.iter_pairs().zip(b.iter_pairs()) {
            assert_eq!(pa.0, pb.0);
            assert_eq!(pa.1, pb.1);
            assert_eq!(
                pa.2.to_bits(),
                pb.2.to_bits(),
                "score at {:?}",
                (pa.0, pa.1)
            );
        }
    }

    #[test]
    fn roundtrip_figure1_bitwise() {
        let f = figure1();
        let cfg = FsimConfig::new(Variant::Bi).label_fn(fsim_labels::LabelFn::Indicator);
        let mut eng = FsimEngine::new(&f.pattern, &f.data, &cfg).unwrap();
        eng.run();
        let dir = tmpdir("roundtrip");
        let path = dir.join("fig1.fsnp");
        eng.write_snapshot(&path).unwrap();
        let restored = FsimEngine::restore(&path).unwrap();
        assert_sessions_equal(&eng, &restored);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restored_session_reruns_bitwise() {
        let f = figure1();
        let cfg = FsimConfig::new(Variant::Bijective).label_fn(fsim_labels::LabelFn::Indicator);
        let mut eng = FsimEngine::new(&f.pattern, &f.data, &cfg).unwrap();
        eng.run();
        let dir = tmpdir("rerun");
        let path = dir.join("fig1.fsnp");
        eng.write_snapshot(&path).unwrap();
        let mut restored = FsimEngine::restore(&path).unwrap();
        eng.rerun(|c| c.variant = Variant::Simple).unwrap();
        restored.rerun(|c| c.variant = Variant::Simple).unwrap();
        assert_sessions_equal(&eng, &restored);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn custom_label_fn_is_rejected() {
        use fsim_labels::LabelSim;
        #[derive(Debug)]
        struct One;
        impl LabelSim for One {
            fn sim(&self, _: &str, _: &str) -> f64 {
                1.0
            }
            fn name(&self) -> &'static str {
                "one"
            }
        }
        let f = figure1();
        let cfg =
            FsimConfig::new(Variant::Simple).label_fn(LabelFn::Custom(std::sync::Arc::new(One)));
        let mut eng = FsimEngine::new(&f.pattern, &f.data, &cfg).unwrap();
        eng.run();
        match eng.snapshot_bytes() {
            Err(SnapshotError::Unsupported { .. }) => {}
            other => panic!("expected Unsupported, got {:?}", other.map(|b| b.len())),
        }
    }

    #[test]
    fn scan_dir_skips_tmp_stubs_and_reports_corrupt() {
        let f = figure1();
        let cfg = FsimConfig::new(Variant::Simple).label_fn(fsim_labels::LabelFn::Indicator);
        let mut eng = FsimEngine::new(&f.pattern, &f.data, &cfg).unwrap();
        eng.run();
        let dir = tmpdir("scan");
        eng.write_snapshot(&dir.join("good.fsnp")).unwrap();
        eng.write_snapshot_failing_after(&dir.join("dead.fsnp"), 10)
            .unwrap_err();
        std::fs::write(dir.join("bad.fsnp"), b"not a snapshot").unwrap();
        let (loaded, skipped) = scan_snapshot_dir(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].0, "good");
        assert_eq!(skipped.len(), 1);
        assert_eq!(skipped[0].0, "bad.fsnp");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Hand-encodes a store section: `pairs`, the sparse index tag with
    /// its reserved word, and the θ-pruning fallback.
    fn sparse_store_bytes(pairs: &[(u32, u32)]) -> Vec<u8> {
        let mut buf = Vec::new();
        put_usize(&mut buf, pairs.len());
        for &(u, v) in pairs {
            put_u32(&mut buf, u);
            put_u32(&mut buf, v);
        }
        put_u32(&mut buf, 1);
        put_u32(&mut buf, 0);
        put_u32(&mut buf, 0);
        put_usize(&mut buf, 0);
        buf
    }

    #[test]
    fn restore_rejects_unsorted_store() {
        let g = fsim_graph::graph_from_parts(&["a", "b"], &[(0, 1)]);
        let sorted = decode_store(&sparse_store_bytes(&[(0, 1), (1, 0)]), &g, &g).unwrap();
        assert_eq!(sorted.index.get(1, 0), Some(1));
        for unsorted in [[(1, 0), (0, 1)], [(0, 1), (0, 1)]] {
            match decode_store(&sparse_store_bytes(&unsorted), &g, &g) {
                Err(SnapshotError::Malformed {
                    section: "store", ..
                }) => {}
                other => panic!("{unsorted:?}: expected a malformed store, got {other:?}"),
            }
        }
    }
}
