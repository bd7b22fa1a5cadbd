//! Sharded execution: the fixpoint of Equation 3 over **u-row shards**
//! with boundary exchange, for maintained sets whose pair-dependency CSR
//! exceeds one memory budget ([`crate::config::ShardSpec`]).
//!
//! The candidate store is partitioned into `K` contiguous `u`-row ranges
//! ([`ShardPlan`]), balanced by the same degree-product entry estimate
//! `ConvergenceMode::Auto` uses for its budget check. Each iteration of
//! Algorithm 1 then sweeps the shards one at a time: a shard's dependency
//! CSR ([`super::deps::ShardCsr`]) is built, its dirty slots are evaluated
//! against the *global* previous-iteration score buffer, and the CSR is
//! dropped before the next shard is touched — peak resident CSR memory is
//! one shard's worth, not the store's (`BENCH_sharding.json` records the
//! curve). The price is rebuilding each visited shard's entry lists every
//! sweep instead of once per store.
//!
//! **Boundary exchange.** Cross-shard dependencies are not materialized as
//! a reverse CSR (that alone would be `O(total entries)` resident — the
//! memory the mode exists to avoid). Instead the [`BoundaryTable`] keeps,
//! per slot, a `u64` mask of the shards whose dependency lists read it
//! and the number of entries that read it (both filled as a byproduct of
//! the first full sweep's shard builds), and the driver carries the
//! previous iteration's **frontier** — the changed slots — across shard
//! visits. Each iteration takes the unsharded frontier's step by the same
//! rule, from the same numbers (a slot's reader count is its reverse-CSR
//! length): while `Σ readers(changed) < |H|` it visits a shard only if
//! some changed slot's mask names it, and re-evaluates a slot of a visited
//! shard exactly when one of its forward entries references a changed
//! slot; otherwise it sweeps the live slots of every shard that holds one.
//! It stops on the same [`Limits`] as the unsharded loops. So **sharded
//! execution is bitwise identical to unsharded** — scores, iteration
//! counts, deltas and per-iteration evaluation counts, approximate runs
//! included (`tests/sharded_convergence.rs` property-checks this across
//! variants × θ × pruning × threads × K).
//!
//! **Shared row maxima** (operators that sum row maxima, see
//! [`super::rows`]) need the row-key table of the whole store, because a
//! shard holds few of the `u`s that read a key. With a spill directory,
//! once every shard's spill is written, one table is derived over the
//! retained mappings and every shard visit reads it; without one, shards
//! are evaluated slot by slot.

use super::deps::{CsrCols, MappedShardCsr, ShardCsr};
use super::frontier::slot_ids;
use super::iterate::Limits;
use super::parallel::{step_maxima, Exec, IterationOutcome, Slots};
use super::rows::RowKeys;
use super::slot_bits::SlotBits;
use crate::config::FsimConfig;
use crate::operators::{DepEntry, OpCtx, Operator};
use crate::store::PairStore;
use fsim_graph::Graph;
use fsim_snapshot::SnapshotError;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Partition of the candidate store's slots into contiguous u-row ranges,
/// balanced by the per-row degree-product entry estimate. Rows are never
/// split: a shard boundary always coincides with a change of `u`, so "the
/// shards containing a dirty row" is a well-defined repair unit.
///
/// Valid exactly as long as the store's slot numbering (it is dropped
/// with the store, and on any edit that changes pair membership).
pub(crate) struct ShardPlan {
    /// Shard `s` owns global slots `bounds[s]..bounds[s + 1]`
    /// (length `k + 1`).
    bounds: Vec<usize>,
}

impl ShardPlan {
    /// Builds a plan with at most `k` shards (fewer when the store has
    /// fewer distinct `u`-rows than `k`), cutting at row boundaries so
    /// each shard's estimated dependency entries approach an equal share.
    ///
    /// The cut rule is adaptive: at every row boundary the target is
    /// `remaining weight / remaining shards`, and the boundary is taken
    /// as soon as adding half of the next row would overshoot it — so a
    /// single heavy row early in the store cannot drag every later cut
    /// off its mark, and the heaviest shard stays close to the heaviest
    /// single row (rows are never split).
    pub(crate) fn build(g1: &Graph, g2: &Graph, store: &PairStore, k: usize) -> Self {
        let n = store.len();
        let k = k.clamp(1, FsimConfig::MAX_SHARDS);
        let mut total: u128 = 0;
        let weights: Vec<u64> = store
            .pairs
            .iter()
            .map(|&(u, v)| {
                // The slot's estimated entry count (cf.
                // `candidates::estimated_dep_entries`), plus one so
                // isolated pairs still carry weight.
                let w = g1.out_degree(u) as u64 * g2.out_degree(v) as u64
                    + g1.in_degree(u) as u64 * g2.in_degree(v) as u64
                    + 1;
                total += w as u128;
                w
            })
            .collect();
        // Per-row prefix: (first slot, row weight).
        let mut rows: Vec<(usize, u128)> = Vec::new();
        for (slot, &w) in weights.iter().enumerate() {
            if slot == 0 || store.pairs[slot].0 != store.pairs[slot - 1].0 {
                rows.push((slot, 0));
            }
            rows.last_mut().expect("pushed above").1 += w as u128;
        }
        let mut bounds = vec![0usize];
        let mut remaining = total;
        let mut shards_left = k as u128;
        let mut acc: u128 = 0;
        for &(first_slot, row_w) in &rows {
            if shards_left > 1 && acc > 0 {
                let target = remaining / shards_left;
                if acc + row_w / 2 > target {
                    bounds.push(first_slot);
                    remaining -= acc;
                    shards_left -= 1;
                    acc = 0;
                }
            }
            acc += row_w;
        }
        bounds.push(n);
        Self { bounds }
    }

    /// Number of shards.
    pub(crate) fn k(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Global slot range of shard `s`.
    pub(crate) fn range(&self, s: usize) -> (usize, usize) {
        (self.bounds[s], self.bounds[s + 1])
    }
}

/// The boundary-exchange table: for each slot, the set of shards whose
/// dependency lists read it, as a `u64` bitmask (hence
/// [`FsimConfig::MAX_SHARDS`] = 64), and the number of dependency entries
/// that read it. Together with the per-iteration changed-slot frontier
/// this is the cross-shard half of dirty scheduling: a changed slot's
/// mask names exactly the shards that must be visited by a sparse step,
/// and the reader counts decide between a sparse step and a live sweep.
///
/// Masks and counts are filled as a byproduct of the shard-CSR builds of
/// a run's first sweep, which visits *every* shard, whenever `complete`
/// is `false` (a new table, or one [`reset`](Self::reset) by an edit);
/// every later step of the run reads them complete. Masks may safely be a
/// *superset* of the true reader sets — extra bits cost an unnecessary
/// shard visit that evaluates nothing, missing bits would break bitwise
/// identity — which is why any edit that re-derives dependency entries
/// resets the table. Counts must be exact: they are the unsharded reverse
/// CSR's lengths, so the step choice, and with it every per-iteration
/// evaluation count, matches an unsharded run.
pub(crate) struct BoundaryTable {
    read_by: Vec<u64>,
    readers: Vec<usize>,
    /// The shards holding a live slot (one with a maintained entry).
    live: u64,
    complete: bool,
}

impl BoundaryTable {
    fn new(n: usize) -> Self {
        Self {
            read_by: vec![0; n],
            readers: vec![0; n],
            live: 0,
            complete: false,
        }
    }

    /// Invalidates the masks and counts (dependency entries changed under
    /// the same slot numbering); the next run's first sweep rebuilds them.
    pub(crate) fn reset(&mut self) {
        self.read_by.iter_mut().for_each(|m| *m = 0);
        self.readers.iter_mut().for_each(|c| *c = 0);
        self.live = 0;
        self.complete = false;
    }

    /// Whether the step after `changed` sweeps the live slots: the
    /// unsharded frontier's rule, `Σ |rdeps(changed)| ≥ |H|`.
    fn dense(&self, changed: &[u32]) -> bool {
        let fanout: usize = changed.iter().map(|&c| self.readers[c as usize]).sum();
        fanout >= self.readers.len()
    }
}

/// Process-unique suffix source for spill directories, so concurrent
/// sessions of one process (e.g. `fsimd` namespaces) sharing a
/// `spill_dir` never collide.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// On-disk cache of built [`ShardCsr`]s under a session-private
/// subdirectory of [`FsimConfig::spill_dir`]. A shard's CSR is written
/// on first build (atomic temp + rename, single-section `FSNP`),
/// mapped and validated once on the next sweep, and the retained
/// mapping ([`MappedShardCsr`]) is reborrowed by every sweep after —
/// attacking the rebuild-per-sweep cost sharded warm runs otherwise
/// pay (`BENCH_snapshot.json` records the trade).
///
/// A spill file is valid exactly as long as the inputs of
/// `ShardCsr::build` are unchanged: the graphs, the store (slots and
/// fallback), θ/label eligibility and the operator. The owning session
/// clears the valid flags on every entry re-derivation and config
/// change ([`ShardState::invalidate_entries`] /
/// [`ShardState::clear_spill`]); a stale or corrupt file read back is
/// detected by the container checksums plus range validation and
/// falls back to a rebuild. Spill I/O failures silently disable
/// spilling for the session — spilling is a cache, never a
/// correctness dependency.
pub(crate) struct SpillState {
    dir: PathBuf,
    written: Vec<bool>,
    /// Retained spill mappings, one per shard: each file is opened,
    /// checksummed and structurally validated once (on the first sweep
    /// after it was written), then later sweeps reborrow its CSR
    /// columns straight from the mapping — no per-sweep I/O, no
    /// per-sweep validation. Shared by `Arc` so an in-flight sweep
    /// keeps its mapping alive across an invalidation.
    mapped: Vec<Option<Arc<MappedShardCsr>>>,
    /// The store's row-key table over the mappings of every non-empty
    /// shard (their columns, in plan order, are its parts), derived once
    /// all of them are written; `rows_derived` also covers a derivation
    /// that found no shared key.
    rows: Option<Arc<RowKeys>>,
    rows_derived: bool,
}

impl SpillState {
    fn create(base: &Path, k: usize) -> Option<Self> {
        let dir = base.join(format!(
            "spill-{}-{}",
            std::process::id(),
            SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).ok()?;
        Some(Self {
            dir,
            written: vec![false; k],
            mapped: vec![None; k],
            rows: None,
            rows_derived: false,
        })
    }

    fn path(&self, shard: usize) -> PathBuf {
        self.dir.join(format!("shard-{shard}.fsnp"))
    }

    fn clear(&mut self) {
        self.written.iter_mut().for_each(|w| *w = false);
        self.mapped.iter_mut().for_each(|m| *m = None);
        self.rows = None;
        self.rows_derived = false;
    }

    /// Drops shard `shard`'s spill (stale file or failed map), and the
    /// row-key table derived over it.
    fn forget(&mut self, shard: usize) {
        self.written[shard] = false;
        self.mapped[shard] = None;
        self.rows = None;
        self.rows_derived = false;
    }

    /// The shard's retained mapping when one is live and still matches
    /// the plan range, otherwise a fresh map-and-validate of the spill
    /// file (retained for the sweeps after).
    fn mapping(
        &mut self,
        shard: usize,
        lo: usize,
        hi: usize,
    ) -> Result<Arc<MappedShardCsr>, SnapshotError> {
        Ok(match &self.mapped[shard] {
            Some(m) if m.covers(lo, hi) => Arc::clone(m),
            _ => {
                let m = Arc::new(MappedShardCsr::map(&self.path(shard), lo, hi)?);
                self.mapped[shard] = Some(Arc::clone(&m));
                m
            }
        })
    }

    /// The shard's CSR out of the spill cache.
    fn remap(&mut self, shard: usize, lo: usize, hi: usize) -> Result<ShardCsr, SnapshotError> {
        self.mapping(shard, lo, hi).map(ShardCsr::from_mapped)
    }

    /// The store's row-key table over the mappings of every non-empty
    /// shard, in plan order: `None` while a shard's spill is unwritten,
    /// when `op` does not sum row maxima, or when no key is shared. The
    /// table reads nothing from the mappings once derived. A retained
    /// spill serves every later sweep, so the table pays for itself; keys
    /// shared between shards are computed once per iteration, as in the
    /// full CSR.
    fn shared_rows<O: Operator>(
        &mut self,
        plan: &ShardPlan,
        g1: &Graph,
        g2: &Graph,
        store: &PairStore,
        op: &O,
    ) -> Option<Arc<RowKeys>> {
        if !op.sums_row_maxima() || (self.rows_derived && self.rows.is_none()) {
            return None;
        }
        let mut maps = Vec::with_capacity(plan.k());
        for shard in 0..plan.k() {
            let (lo, hi) = plan.range(shard);
            if lo == hi {
                continue;
            }
            if !self.written[shard] {
                return None;
            }
            match self.mapping(shard, lo, hi) {
                Ok(m) => maps.push(m),
                Err(_) => {
                    self.forget(shard);
                    return None;
                }
            }
        }
        if !self.rows_derived {
            let parts: Vec<CsrCols<'_>> = maps.iter().map(|m| m.cols()).collect();
            self.rows = RowKeys::derive(g1, g2, &store.pairs, &parts).map(Arc::new);
            self.rows_derived = true;
        }
        self.rows.clone()
    }
}

impl Drop for SpillState {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Loads shard `shard`'s CSR from spill when a valid file exists,
/// otherwise builds it (writing the spill file as a side effect when
/// spilling is enabled). Bitwise transparent: a re-mapped CSR is
/// field-for-field identical to a rebuilt one, so scores, iteration
/// counts and evaluation counts cannot depend on the spill path.
#[allow(clippy::too_many_arguments)]
fn obtain_shard_csr<O: Operator>(
    spill: &mut Option<SpillState>,
    shard: usize,
    g1: &Graph,
    g2: &Graph,
    ctx: &OpCtx<'_>,
    store: &PairStore,
    op: &O,
    lo: usize,
    hi: usize,
) -> ShardCsr {
    if let Some(sp) = spill.as_mut() {
        if sp.written[shard] {
            match sp.remap(shard, lo, hi) {
                Ok(csr) => return csr,
                // Stale or corrupt: forget the file and rebuild.
                Err(_) => sp.forget(shard),
            }
        }
        let csr = ShardCsr::build(g1, g2, ctx, store, op, lo, hi);
        match csr.write_spill(&sp.path(shard)) {
            Ok(()) => sp.written[shard] = true,
            // Disk trouble: drop the whole spill cache (removing the
            // directory) and run unspilled from here on.
            Err(_) => *spill = None,
        }
        return csr;
    }
    ShardCsr::build(g1, g2, ctx, store, op, lo, hi)
}

/// The session-cached sharded-execution state: the u-row plan plus the
/// boundary-exchange table and the optional CSR spill cache. Mutually
/// exclusive with the full `PairDepCsr` cache and invalidated with the
/// store, like it.
pub(crate) struct ShardState {
    pub(crate) plan: ShardPlan,
    pub(crate) boundary: BoundaryTable,
    /// The shard count this state was requested with (the `Fixed(k)` /
    /// auto-chosen `k` before row clamping) — the session's cache key.
    pub(crate) requested: usize,
    /// The on-disk CSR cache, when [`FsimConfig::spill_dir`] is set and
    /// the directory could be created.
    spill: Option<SpillState>,
}

impl ShardState {
    pub(crate) fn new(
        g1: &Graph,
        g2: &Graph,
        store: &PairStore,
        requested: usize,
        spill_dir: Option<&Path>,
    ) -> Self {
        let plan = ShardPlan::build(g1, g2, store, requested);
        let boundary = BoundaryTable::new(store.len());
        let spill = spill_dir.and_then(|base| SpillState::create(base, plan.k()));
        Self {
            plan,
            boundary,
            requested,
            spill,
        }
    }

    /// Invalidates everything derived from the dependency entries while
    /// keeping the plan: the boundary masks (rebuilt by the next full
    /// sweep) and the spilled CSRs (entries changed, files are stale).
    pub(crate) fn invalidate_entries(&mut self) {
        self.boundary.reset();
        self.clear_spill();
    }

    /// Marks every spilled CSR stale (configuration changed under the
    /// same plan — the entry lists may now differ). Files are
    /// overwritten on the next build.
    pub(crate) fn clear_spill(&mut self) {
        if let Some(sp) = self.spill.as_mut() {
            sp.clear();
        }
    }
}

/// A bitmask selecting all `k` shards.
fn full_mask(k: usize) -> u64 {
    debug_assert!((1..=64).contains(&k));
    u64::MAX >> (64 - k)
}

/// The shards whose dependency lists read a slot in `changed`.
fn readers(boundary: &BoundaryTable, changed: &[u32]) -> u64 {
    changed
        .iter()
        .fold(0, |m, &c| m | boundary.read_by[c as usize])
}

/// Iterates Equation 3 shard-by-shard until `limits` stop it (see the
/// module docs). `scores` holds `FSim⁰` on entry and the final scores on
/// exit; `cur` is the reusable double buffer. Each shard's worklist is one
/// step of `exec`.
///
/// Returns the outcome plus the **peak resident shard-CSR bytes** — the
/// largest single shard structure held at any point of the run.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_sharded<O: Operator>(
    exec: &mut Exec<'_>,
    g1: &Graph,
    g2: &Graph,
    ctx: &OpCtx<'_>,
    cfg: &FsimConfig,
    op: &O,
    store: &PairStore,
    label_terms: &[f64],
    state: &mut ShardState,
    limits: Limits,
    scores: &mut Vec<f64>,
    cur: &mut Vec<f64>,
) -> (IterationOutcome, usize) {
    let mut lap = Instant::now();
    let n = store.len();
    debug_assert_eq!(scores.len(), n);
    cur.clear();
    cur.resize(n, 0.0);
    let k = state.plan.k();

    // The boundary frontier: C_{k−1} as a list and, for sparse steps, a
    // bitmap.
    let mut changed: Vec<u32> = Vec::new();
    let mut next_changed: Vec<u32> = Vec::new();
    let mut bits = SlotBits::new(n);

    let mut local_wl: Vec<u32> = Vec::new();
    let mut maxima_buf: Vec<f64> = Vec::new();
    let mut peak_bytes = 0usize;
    let mut out = IterationOutcome::empty();

    while out.iterations < limits.max_iters {
        let first = out.iterations == 0;
        let filling_masks = !state.boundary.complete;
        debug_assert!(first || !filling_masks, "masks fill on the first sweep");
        // A step after the first sweeps the live slots when the unsharded
        // frontier would.
        let dense = !first && state.boundary.dense(&changed);
        // Shards to visit: all of them on the first sweep (which also
        // fills incomplete masks); every shard holding a live slot on a
        // dense step; the union of the changed frontier's reader masks
        // otherwise.
        let visit: u64 = if first {
            full_mask(k)
        } else if dense {
            state.boundary.live
        } else {
            readers(&state.boundary, &changed)
        };

        // The store's row-key table over the retained spill mappings
        // (see `SpillState::shared_rows`), and the row maxima the whole
        // iteration reads: filled once before the first shard when the
        // iteration is expected to evaluate at least a quarter of the
        // store (the first sweep, a live sweep as in the unsharded
        // driver, or as many slots as the last iteration), otherwise
        // filled on first use under one token for every shard, so keys
        // shared between shards are computed once.
        let rows = {
            let plan = &state.plan;
            state
                .spill
                .as_mut()
                .and_then(|sp| sp.shared_rows(plan, g1, g2, store, op))
        };
        let rows = rows.as_deref();
        let rows_bytes = rows.map_or(0, RowKeys::bytes);
        let scheduled = if first || dense {
            n
        } else {
            out.pairs_evaluated.last().copied().unwrap_or(n)
        };
        let rt = exec.pool(scheduled);
        let maxima = step_maxima(rows, scores, scheduled, n, &mut maxima_buf, rt);

        // Publish C_{k−1} membership and repair the double buffer: a slot
        // that changed last iteration but is not re-evaluated now still
        // holds its two-iterations-old value in `cur` (evaluated slots
        // overwrite their copy below) — exactly `run_delta`'s repair,
        // which a live sweep needs only at k = 2: later changed slots
        // are all live, and it rewrites every live slot.
        if !dense {
            bits.clear();
            for &c in &changed {
                bits.insert(c);
            }
        }
        if !dense || out.iterations == 1 {
            for &c in &changed {
                cur[c as usize] = scores[c as usize];
            }
        }

        let mut delta = 0.0f64;
        let mut evaluated = 0usize;
        next_changed.clear();
        for shard in 0..k {
            if visit & (1u64 << shard) == 0 {
                continue;
            }
            let (lo, hi) = state.plan.range(shard);
            if lo == hi {
                continue;
            }
            let csr = obtain_shard_csr(&mut state.spill, shard, g1, g2, ctx, store, op, lo, hi);
            // A live sweep evaluates every slot with a maintained entry,
            // listed once per build or spill mapping, before the peak is
            // taken so the peak counts the list.
            let live = dense.then(|| csr.live());
            peak_bytes = peak_bytes.max(csr.bytes() + rows_bytes);
            if filling_masks {
                let table = &mut state.boundary;
                for slot in lo..hi {
                    for e in csr.deps_of(slot).filter(|e| e.slot != DepEntry::CONST) {
                        table.read_by[e.slot as usize] |= 1u64 << shard;
                        table.readers[e.slot as usize] += 1;
                        table.live |= 1u64 << shard;
                    }
                }
            }

            // The shard's local worklist for this sweep.
            local_wl.clear();
            if first {
                local_wl.extend(slot_ids(lo).end..slot_ids(hi).end);
            } else if !dense {
                // Re-evaluate exactly the dependents of C_{k−1}.
                let reads_changed =
                    |e: &DepEntry| e.slot != DepEntry::CONST && bits.contains(e.slot);
                csr.slots_reading(reads_changed, &mut local_wl);
            }

            // One step of the executor: pure reads of `scores`, distinct
            // writes of `cur`.
            let kernel = csr.kernel(cfg, op, store, label_terms, rows);
            let slots = Slots::List(live.unwrap_or(&local_wl));
            let (d, e) = exec.step_with(&kernel, slots, maxima, scores, cur, &mut next_changed);
            delta = delta.max(d);
            evaluated += e;
            // `csr` drops here: only one shard's CSR is ever resident.
        }
        if filling_masks {
            // Every shard was visited, so every dependency contributed
            // its reader bit.
            state.boundary.complete = true;
        }

        out.pairs_evaluated.push(evaluated);
        std::mem::swap(scores, cur);
        std::mem::swap(&mut changed, &mut next_changed);
        out.final_delta = delta;
        out.iterations += 1;
        let done = delta < limits.epsilon;
        out.iter_seconds.push(lap.elapsed().as_secs_f64());
        lap = Instant::now();
        if done {
            out.converged = true;
            break;
        }
    }
    (out, peak_bytes)
}

/// Resolves the shard count an auto-sharded session should use for an
/// estimated CSR footprint: the smallest `K` whose per-shard share fits
/// the budget, clamped to `2..=MAX_SHARDS` (a zero budget degrades to the
/// maximum — best effort rather than refusal).
pub(crate) fn auto_shard_count(estimated_bytes: u128, budget: usize) -> usize {
    if budget == 0 {
        return FsimConfig::MAX_SHARDS;
    }
    estimated_bytes
        .div_ceil(budget as u128)
        .clamp(2, FsimConfig::MAX_SHARDS as u128) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ShardSpec, Variant};
    use crate::operators::VariantOp;
    use fsim_graph::graph_from_parts;
    use fsim_labels::LabelFn;

    fn setup() -> (Graph, Graph, FsimConfig) {
        let g1 = graph_from_parts(&["a", "b", "a", "b"], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let g2 = graph_from_parts(&["a", "b", "b"], &[(0, 1), (1, 2), (2, 0)]);
        let cfg = FsimConfig::new(Variant::Simple).label_fn(LabelFn::Indicator);
        (g1, g2, cfg)
    }

    #[test]
    fn plan_cuts_at_row_boundaries_and_covers_every_slot() {
        let (g1, g2, cfg) = setup();
        let aligned = super::super::session::AlignedLabels::new(&g1, &g2);
        let eval = super::super::session::build_label_eval(&cfg, &aligned.interner);
        let ctx = OpCtx {
            labels1: &aligned.labels1,
            labels2: &aligned.labels2,
            label_eval: &eval,
            theta: cfg.theta,
        };
        let op = VariantOp::new(cfg.variant);
        let store = crate::candidates::enumerate_candidates(&g1, &g2, &ctx, &cfg, &op);
        for k in [1, 2, 3, 64] {
            let plan = ShardPlan::build(&g1, &g2, &store, k);
            assert!(plan.k() >= 1 && plan.k() <= k);
            let mut covered = 0;
            for s in 0..plan.k() {
                let (lo, hi) = plan.range(s);
                assert!(lo <= hi);
                assert_eq!(lo, covered, "k={k} shard {s} is not contiguous");
                covered += hi - lo;
                // Row-boundary invariant: a shard never splits a u-row.
                if lo > 0 && lo < store.len() {
                    assert_ne!(
                        store.pairs[lo - 1].0,
                        store.pairs[lo].0,
                        "k={k} shard {s} splits a row"
                    );
                }
            }
            assert_eq!(covered, store.len(), "k={k}");
        }
    }

    #[test]
    fn auto_shard_count_fits_the_budget() {
        assert_eq!(auto_shard_count(100, 100), 2, "oversized callers shard");
        assert_eq!(auto_shard_count(1000, 100), 10);
        assert_eq!(auto_shard_count(1001, 100), 11);
        assert_eq!(auto_shard_count(u128::MAX, 100), FsimConfig::MAX_SHARDS);
        assert_eq!(auto_shard_count(1000, 0), FsimConfig::MAX_SHARDS);
    }

    #[test]
    fn full_mask_selects_exactly_k_shards() {
        assert_eq!(full_mask(1), 1);
        assert_eq!(full_mask(3), 0b111);
        assert_eq!(full_mask(64), u64::MAX);
    }

    #[test]
    fn spilled_shards_share_one_row_key_table_bitwise() {
        use crate::engine::FsimEngine;
        // Nodes 4 and 5 are out-neighbors of most nodes, so row keys are
        // shared within and across shards.
        let g = graph_from_parts(
            &["a", "b", "a", "b", "a", "b", "a", "b"],
            &[
                (0, 4),
                (0, 5),
                (1, 4),
                (1, 5),
                (2, 4),
                (3, 5),
                (3, 4),
                (6, 5),
                (7, 4),
                (4, 0),
                (5, 1),
                (4, 7),
                (5, 6),
            ],
        );
        let base = std::env::temp_dir().join(format!("fsim-spill-rows-{}", std::process::id()));
        for (theta, k, pruning) in [(0.0, 2, false), (0.5, 3, false), (0.0, 4, true)] {
            let mut cfg = FsimConfig::new(Variant::Simple)
                .label_fn(LabelFn::JaroWinkler)
                .theta(theta);
            if pruning {
                cfg = cfg.upper_bound(0.5, 0.6);
            }
            let mut plain = FsimEngine::new(&g, &g, &cfg).unwrap();
            plain.run();
            let shard_cfg = cfg.shards(ShardSpec::Fixed(k));
            let mut rebuilt = FsimEngine::new(&g, &g, &shard_cfg).unwrap();
            rebuilt.run();
            let mut spilled = FsimEngine::new(&g, &g, &shard_cfg.spill_dir(&base)).unwrap();
            // The first run derives the table after its first sweep; the
            // second reads it from the start.
            for _ in 0..2 {
                spilled.run();
                // Mapped and rebuilt shards hold the same columns, so the
                // peaks differ by the shared table alone.
                assert!(
                    spilled.peak_csr_bytes() > rebuilt.peak_csr_bytes(),
                    "θ={theta} K={k}: no shared table"
                );
                assert_eq!(plain.iterations(), spilled.iterations());
                assert_eq!(plain.pairs_evaluated(), spilled.pairs_evaluated());
                for (a, b) in plain.iter_pairs().zip(spilled.iter_pairs()) {
                    assert_eq!(a.2.to_bits(), b.2.to_bits(), "θ={theta} K={k}");
                }
            }
        }
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn spilled_sharded_run_is_bitwise_identical_and_cleans_up() {
        use crate::engine::FsimEngine;
        let (g1, g2, cfg) = setup();
        let cfg = cfg.shards(ShardSpec::Fixed(3));
        let mut plain = FsimEngine::new(&g1, &g2, &cfg).unwrap();
        plain.run();

        let base = std::env::temp_dir().join(format!("fsim-spill-test-{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        let spill_cfg = cfg.clone().spill_dir(&base);
        {
            let mut spilled = FsimEngine::new(&g1, &g2, &spill_cfg).unwrap();
            spilled.run();
            // The spill directory holds one file per shard after a run.
            let subdirs: Vec<_> = std::fs::read_dir(&base).unwrap().flatten().collect();
            assert_eq!(subdirs.len(), 1, "one session-private spill subdir");
            let files = std::fs::read_dir(subdirs[0].path()).unwrap().count();
            assert_eq!(files, spilled.shard_count());
            assert_eq!(plain.iterations(), spilled.iterations());
            assert_eq!(plain.pairs_evaluated(), spilled.pairs_evaluated());
            for (a, b) in plain.iter_pairs().zip(spilled.iter_pairs()) {
                assert_eq!(a.2.to_bits(), b.2.to_bits());
            }
            // A warm rerun of the same config re-maps instead of
            // rebuilding — still bitwise.
            spilled.run();
            for (a, b) in plain.iter_pairs().zip(spilled.iter_pairs()) {
                assert_eq!(a.2.to_bits(), b.2.to_bits());
            }
        }
        // Dropping the session removes its spill subdir.
        assert_eq!(std::fs::read_dir(&base).unwrap().count(), 0);
        std::fs::remove_dir_all(&base).ok();
    }
}
