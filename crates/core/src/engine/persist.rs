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
//! Restore validates every section but decodes only what reads need;
//! the dependency CSR and the trajectory are validated in place and
//! decoded at their first use (`DeferredSections`).
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
use crate::engine::deps::{check_offsets, put_dep_entries, PairDepCsr};
use crate::engine::frontier::slot_ids;
use crate::engine::session::{FsimEngine, RestoredParts};
use crate::operators::{DepEntry, VariantOp};
use crate::store::{Fallback, PairIndex, PairStore, RowIndex};
use fsim_graph::csr::Csr;
use fsim_graph::{FxHashMap, Graph, LabelId, LabelInterner};
use fsim_labels::LabelFn;
use fsim_snapshot::cursor::{put_f64_slice, put_u32_slice, put_usize_slice};
use fsim_snapshot::writer::{put_f64, put_u32, put_u64, put_u8, put_usize, SnapshotBuilder};
use fsim_snapshot::{Cursor, SectionMeta, SnapshotError, SnapshotFile};
use std::ops::Range;
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
        // Sections a restored session has not decoded yet are copied
        // verbatim from its file, re-verified; ones changed in place
        // since restore are left out, as the session itself drops them.
        let deferred = parts.deferred.and_then(|d| d.reopen(true));
        let verbatim = |id| deferred.as_ref().and_then(|f| f.section(id).ok());
        if let Some(deps) = parts.deps {
            encode_deps(b.section(SEC_DEPS), deps);
        } else if let Some(raw) = verbatim(SEC_DEPS) {
            b.section(SEC_DEPS).extend_from_slice(raw);
        }
        if let Some(traj) = parts.trajectory {
            encode_trajectory(b.section(SEC_TRAJECTORY), traj);
        } else if let Some(raw) = verbatim(SEC_TRAJECTORY) {
            b.section(SEC_TRAJECTORY).extend_from_slice(raw);
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
    ///
    /// Restore checks the whole file before it returns: every section
    /// checksum, and every structural invariant of every section. It
    /// decodes the sections reads need (config, graphs, store, scores,
    /// label table, diagnostics). The dependency CSR and the recorded
    /// trajectory, which only `run`, `rerun` and `apply_edits` read, are
    /// validated in place and decoded at their first use; until then the
    /// session holds the open file (not a mapping). Replacing the
    /// snapshot by rename, as [`write_snapshot`](FsimEngine::write_snapshot)
    /// does, or deleting it is safe; a file overwritten in place is
    /// detected at first use by its checksums, and the session then
    /// rebuilds the CSR and runs its first edit cold, with the same bits.
    pub fn restore(path: &Path) -> Result<Self, SnapshotError> {
        let held = std::fs::File::open(path).map_err(|e| SnapshotError::io("open", e))?;
        let image = SnapshotFile::open_file(&held, KNOWN_SECTIONS)?;
        Self::restore_from_file(&image, held)
    }

    fn restore_from_file(file: &SnapshotFile, held: std::fs::File) -> Result<Self, SnapshotError> {
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
        let meta = |id: u32| file.sections().iter().find(|m| m.id == id).copied();
        let deps = match meta(SEC_DEPS) {
            Some(m) => Some((m, validate_deps(file.section(m.id)?, n)?)),
            None => None,
        };
        let trajectory = match meta(SEC_TRAJECTORY) {
            Some(m) => Some((
                m,
                validate_trajectory(file.section(m.id)?, n, cfg.trajectory_budget)?,
            )),
            None => None,
        };
        let deferred = (deps.is_some() || trajectory.is_some()).then_some(DeferredSections {
            file: held,
            deps,
            trajectory,
        });
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
            scores,
            deferred,
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

/// Bytes per persisted dependency entry ([`put_dep_entries`]).
const ENTRY_BYTES: usize = 16;

/// Bytes per persisted `dims` row: four `u32`s.
const DIMS_BYTES: usize = 16;

/// Where the columns of a validated `deps` section lie, as byte ranges of
/// its payload: what the decode at first use reads, without checking
/// anything again.
struct DepsLayout {
    n_slots: usize,
    out_offsets: Range<usize>,
    in_offsets: Range<usize>,
    out_entries: Range<usize>,
    in_entries: Range<usize>,
    dims: Range<usize>,
    rdep_offsets: Range<usize>,
    rdeps: Range<usize>,
}

/// Takes the next length-prefixed column of `elem`-byte elements off
/// `cur`, returning its byte range within the payload of `len` bytes.
fn column(cur: &mut Cursor<'_>, len: usize, elem: usize) -> Result<Range<usize>, SnapshotError> {
    let checked_n = cur.checked_len(elem)?;
    let start = len - cur.remaining();
    cur.take(checked_n * elem)?;
    Ok(start..start + checked_n * elem)
}

fn le_u32(c: &[u8]) -> u32 {
    u32::from_le_bytes([c[0], c[1], c[2], c[3]])
}

fn le_u64(c: &[u8]) -> u64 {
    u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]])
}

/// A persisted offset column read in place. A value past `usize::MAX`
/// saturates, which no offset check accepts: an offset column ends at
/// its entry count and never decreases.
fn offsets_in_place(raw: &[u8]) -> impl ExactSizeIterator<Item = usize> + '_ {
    raw.chunks_exact(8)
        .map(|c| usize::try_from(le_u64(c)).unwrap_or(usize::MAX))
}

/// Every structural check the slot kernel and the dirty scheduler index
/// with, made on the section's bytes in place (no column is copied):
/// offset columns of length `n + 1` from 0, non-decreasing, ending at
/// their entry counts; one `dims` row per slot; every entry's slot and
/// every reverse dependency in range. A checksum-valid but inconsistent
/// section is refused here, at restore, so its decode at first use
/// cannot fail or panic.
fn validate_deps(bytes: &[u8], n_slots: usize) -> Result<DepsLayout, SnapshotError> {
    let len = bytes.len();
    let mut cur = Cursor::new("deps", bytes);
    let layout = DepsLayout {
        n_slots,
        out_offsets: column(&mut cur, len, 8)?,
        in_offsets: column(&mut cur, len, 8)?,
        out_entries: column(&mut cur, len, ENTRY_BYTES)?,
        in_entries: column(&mut cur, len, ENTRY_BYTES)?,
        dims: column(&mut cur, len, DIMS_BYTES)?,
        rdep_offsets: column(&mut cur, len, 8)?,
        rdeps: column(&mut cur, len, 4)?,
    };
    cur.finish()?;
    let col = |r: &Range<usize>| &bytes[r.clone()];
    let check_slots = |name: &str, raw: &[u8]| -> Result<(), String> {
        let slot = raw
            .chunks_exact(ENTRY_BYTES)
            .map(|c| le_u32(&c[8..12]))
            .find(|&s| s != DepEntry::CONST && s as usize >= n_slots);
        match slot {
            Some(s) => Err(format!(
                "{name} references slot {s} out of range ({n_slots} slots)"
            )),
            None => Ok(()),
        }
    };
    let l = &layout;
    let checks = || -> Result<(), String> {
        let m_out = l.out_entries.len() / ENTRY_BYTES;
        let m_in = l.in_entries.len() / ENTRY_BYTES;
        let m_rdeps = l.rdeps.len() / 4;
        check_offsets(
            "out_offsets",
            offsets_in_place(col(&l.out_offsets)),
            n_slots,
            m_out,
        )?;
        check_offsets(
            "in_offsets",
            offsets_in_place(col(&l.in_offsets)),
            n_slots,
            m_in,
        )?;
        check_offsets(
            "rdep_offsets",
            offsets_in_place(col(&l.rdep_offsets)),
            n_slots,
            m_rdeps,
        )?;
        let rows = l.dims.len() / DIMS_BYTES;
        if rows != n_slots {
            return Err(format!("dims has {rows} rows, store has {n_slots}"));
        }
        check_slots("out_entries", col(&l.out_entries))?;
        check_slots("in_entries", col(&l.in_entries))?;
        match col(&l.rdeps)
            .chunks_exact(4)
            .map(le_u32)
            .find(|&s| s as usize >= n_slots)
        {
            Some(bad) => Err(format!("rdep slot {bad} out of range ({n_slots} slots)")),
            None => Ok(()),
        }
    };
    checks().map_err(|e| malformed("deps", e))?;
    Ok(layout)
}

/// Decodes a `deps` section [`validate_deps`] accepted, each column in
/// one bulk pass; the live-slot list is built in the pass that copies
/// the entries.
fn decode_deps(bytes: &[u8], layout: &DepsLayout) -> PairDepCsr {
    let col = |r: &Range<usize>| &bytes[r.clone()];
    let offsets = |r: &Range<usize>| -> Vec<usize> { offsets_in_place(col(r)).collect() };
    let out_offsets = offsets(&layout.out_offsets);
    let in_offsets = offsets(&layout.in_offsets);
    let (out_raw, in_raw) = (col(&layout.out_entries), col(&layout.in_entries));
    // Entry counts of columns `validate_deps` proved inside the payload.
    let checked_out = layout.out_entries.len() / ENTRY_BYTES;
    let checked_in = layout.in_entries.len() / ENTRY_BYTES;
    let mut out_entries = Vec::with_capacity(checked_out);
    let mut in_entries = Vec::with_capacity(checked_in);
    let mut live = Vec::new();
    // Appends the entries `range` of `raw` to `dst`; whether one of them
    // reads a maintained slot.
    let copy = |raw: &[u8], range: Range<usize>, dst: &mut Vec<DepEntry>| -> bool {
        let before = dst.len();
        dst.extend(
            raw[range.start * ENTRY_BYTES..range.end * ENTRY_BYTES]
                .chunks_exact(ENTRY_BYTES)
                .map(|c| DepEntry {
                    i: le_u32(&c[0..4]),
                    j: le_u32(&c[4..8]),
                    slot: le_u32(&c[8..12]),
                    cval: f32::from_bits(le_u32(&c[12..16])),
                }),
        );
        dst[before..].iter().any(|e| e.slot != DepEntry::CONST)
    };
    for (s, slot) in slot_ids(layout.n_slots).enumerate() {
        let out_live = copy(
            out_raw,
            out_offsets[s]..out_offsets[s + 1],
            &mut out_entries,
        );
        let in_live = copy(in_raw, in_offsets[s]..in_offsets[s + 1], &mut in_entries);
        if out_live || in_live {
            live.push(slot);
        }
    }
    let dims = col(&layout.dims)
        .chunks_exact(DIMS_BYTES)
        .map(|c| {
            [
                le_u32(&c[0..4]),
                le_u32(&c[4..8]),
                le_u32(&c[8..12]),
                le_u32(&c[12..16]),
            ]
        })
        .collect();
    let rdep_offsets = offsets(&layout.rdep_offsets);
    let rdeps = col(&layout.rdeps).chunks_exact(4).map(le_u32).collect();
    PairDepCsr::from_columns(
        out_offsets,
        in_offsets,
        out_entries,
        in_entries,
        dims,
        rdep_offsets,
        rdeps,
        live,
    )
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

/// Where a validated `trajectory` section's columns lie (see
/// [`DepsLayout`]).
struct TrajLayout {
    t_count: usize,
    n_slots: usize,
    freeze: Range<usize>,
    values: Range<usize>,
}

/// The trajectory section's checks, made in place: `n` matches the
/// store, `T` is in `2..=MAX_TRAJ_ITERS` and its dense expansion within
/// the budget cap, one freeze point per slot and each below `T`, and
/// exactly the values the freeze points account for.
fn validate_trajectory(
    bytes: &[u8],
    n_slots: usize,
    trajectory_budget: usize,
) -> Result<TrajLayout, SnapshotError> {
    let len = bytes.len();
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
    // larger is inconsistent — reject it before anything is allocated.
    let dense_bytes = (t_count as u64).saturating_mul(n as u64).saturating_mul(8);
    let budget_cap = (trajectory_budget as u64).saturating_mul(2).max(64 << 20);
    if dense_bytes > budget_cap {
        return Err(SnapshotError::LengthOverflow {
            section: "trajectory",
            claimed: dense_bytes,
            limit: budget_cap,
        });
    }
    let freeze = column(&mut cur, len, 4)?;
    if freeze.len() / 4 != n {
        return Err(malformed(
            "trajectory",
            format!("{} freeze points for {n} slots", freeze.len() / 4),
        ));
    }
    let mut expected = 0u64;
    for f in bytes[freeze.clone()].chunks_exact(4).map(le_u32) {
        if f as usize >= t_count {
            return Err(malformed(
                "trajectory",
                format!("freeze point {f} beyond iteration count {t_count}"),
            ));
        }
        expected += f as u64 + 1;
    }
    let total = cur.u64()?;
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
    let start = len - cur.remaining();
    cur.take(total as usize * 8)?;
    cur.finish()?;
    Ok(TrajLayout {
        t_count,
        n_slots,
        freeze,
        values: start..len,
    })
}

/// Slots expanded per block by [`decode_trajectory`]: one block's value
/// columns (about 8 values of 8 bytes per slot) stay in L1/L2 while it
/// is written out iterate by iterate.
const TRAJ_BLOCK: usize = 1024;

/// Expands a trajectory section [`validate_trajectory`] accepted to its
/// dense `T × n` iterates, `traj[t][s] = col_s[min(t, f_s)]`. Slots go
/// in blocks of [`TRAJ_BLOCK`]; within a block each iterate is appended
/// in slot order, so every row is written once, sequentially, and never
/// zero-filled first.
fn decode_trajectory(bytes: &[u8], layout: &TrajLayout) -> Vec<Vec<f64>> {
    let values = &bytes[layout.values.clone()];
    let value = |k: usize| f64::from_bits(le_u64(&values[k * 8..k * 8 + 8]));
    // `validate_trajectory` held `T × n` to the budget cap.
    let checked_n = layout.n_slots;
    let mut traj: Vec<Vec<f64>> = (0..layout.t_count)
        .map(|_| Vec::with_capacity(checked_n))
        .collect();
    // Per slot of the block: where its column starts among the values,
    // and its freeze point.
    let mut block = Vec::new();
    let mut next = 0usize;
    for freeze in bytes[layout.freeze.clone()].chunks(TRAJ_BLOCK * 4) {
        block.clear();
        for f in freeze.chunks_exact(4).map(le_u32) {
            let f = f as usize;
            block.push((next, f));
            next += f + 1;
        }
        for (t, row) in traj.iter_mut().enumerate() {
            row.extend(block.iter().map(|&(at, f)| value(at + t.min(f))));
        }
    }
    traj
}

// -------------------------------------------------- deferred sections

/// The `deps` and `trajectory` sections of a restored snapshot:
/// validated in place at restore (every check an eager decode made), and
/// decoded at their first use by `run`, `rerun` or `apply_edits`. Reads
/// (`score`, `top_k`, the served epochs) never touch either, so a
/// restored session that only serves pays neither decode.
///
/// The session holds the open file, never a mapping: the file is mapped
/// only inside `restore` and again inside [`Self::decode`] (or a snapshot
/// write), and that second map re-verifies the two sections' checksums.
/// A snapshot replaced by `rename(2)` (how [`FsimEngine::write_snapshot`]
/// writes) or deleted still decodes, because the open file keeps its
/// inode; one overwritten in place fails the checksums, and the session
/// then drops both sections — the next run builds the CSR and edits run
/// cold, both bitwise identical to what the sections would have given.
/// The checksum is an integrity check, not a seal: bytes rewritten in
/// place to keep it (a deliberate FNV collision) would reach the
/// unchecked decode, where every index is still bounds-checked, so the
/// worst outcome is a panic, never undefined behaviour.
pub(crate) struct DeferredSections {
    file: std::fs::File,
    deps: Option<(SectionMeta, DepsLayout)>,
    trajectory: Option<(SectionMeta, TrajLayout)>,
}

impl DeferredSections {
    /// Dependency entries in the held CSR section (`None` without one).
    pub(crate) fn dep_entry_count(&self) -> Option<usize> {
        self.deps
            .as_ref()
            .map(|(_, l)| (l.out_entries.len() + l.in_entries.len()) / ENTRY_BYTES)
    }

    /// Whether a CSR section is held.
    pub(crate) fn has_deps(&self) -> bool {
        self.deps.is_some()
    }

    /// Whether both sections are held: a CSR and a trajectory of at least
    /// two iterates (validation refuses fewer), what an edit replays.
    pub(crate) fn can_replay(&self) -> bool {
        self.deps.is_some() && self.trajectory.is_some()
    }

    /// The held sections mapped again and re-verified, or `None` if the
    /// file changed in place since restore.
    fn reopen(&self, trajectory: bool) -> Option<SnapshotFile> {
        let metas: Vec<SectionMeta> = self
            .deps
            .iter()
            .map(|(m, _)| *m)
            .chain(
                self.trajectory
                    .iter()
                    .filter(|_| trajectory)
                    .map(|(m, _)| *m),
            )
            .collect();
        SnapshotFile::reopen(&self.file, &metas, KNOWN_SECTIONS).ok()
    }

    /// Decodes the CSR and, with `trajectory`, the recorded trajectory
    /// (without it, the trajectory section is dropped undecoded). Both
    /// come back `None` if the file changed in place since restore.
    pub(crate) fn decode(self, trajectory: bool) -> (Option<PairDepCsr>, Option<Vec<Vec<f64>>>) {
        let Some(image) = self.reopen(trajectory) else {
            return (None, None);
        };
        let bytes = |m: &SectionMeta| image.section(m.id).expect("a reopened section");
        let deps = self.deps.map(|(m, l)| decode_deps(bytes(&m), &l));
        let traj = self
            .trajectory
            .filter(|_| trajectory)
            .map(|(m, l)| decode_trajectory(bytes(&m), &l));
        (deps, traj)
    }
}

/// `csr` through the snapshot codec: encoded, validated in place and
/// decoded, as a restore and its first use would.
#[cfg(test)]
pub(crate) fn deps_codec_roundtrip(csr: &PairDepCsr, n_slots: usize) -> PairDepCsr {
    let mut buf = Vec::new();
    encode_deps(&mut buf, csr);
    let layout = validate_deps(&buf, n_slots).expect("an encoded CSR validates");
    decode_deps(&buf, &layout)
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
