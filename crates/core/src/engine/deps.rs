//! The pair-dependency CSR: the iteration-invariant structure of
//! Equation 3, materialized once per candidate store.
//!
//! The inputs a pair `(u, v)`'s update reads — which neighbor pairs
//! `(x, y)` with `L(x, y) ≥ θ` its mapping operators consult, which score
//! slot (or pruning-fallback constant) each of those resolves to, and the
//! pair's own label term — are fixed across iterations. [`PairDepCsr`]
//! flattens all of it into contiguous arrays at session-prepare time, so
//! the hot loop is pure index arithmetic: no `PairIndex` lookups, no
//! `ctx.eligible` re-filtering, no hashed fallback probes.
//!
//! The reverse CSR (for each slot, the slots whose update reads it) drives
//! **dirty-pair scheduling**: iteration `k` re-evaluates a slot only if one
//! of its dependencies changed in iteration `k−1`. Because the Jacobi
//! update is a pure function of its inputs, a slot with unchanged inputs
//! reproduces its previous score bit for bit — so sparse iteration is
//! bitwise identical to the full sweep (`tests/delta_convergence.rs`
//! property-checks this across variants, θ, pruning and thread counts).

use super::frontier::slot_ids;
use super::parallel::SlotKernel;
use super::rows::{slot_terms, Maxima, RowKeys};
use crate::config::FsimConfig;
use crate::operators::{DepEntry, OpCtx, OpScratch, Operator};
use crate::store::{PairRef, PairStore};
use fsim_graph::Graph;
use fsim_snapshot::SnapshotError;
use std::sync::OnceLock;

/// Rough per-entry footprint in bytes (one [`DepEntry`] plus its reverse
/// edge), used with [`crate::candidates::estimated_dep_entries`] to check
/// the CSR against the configured memory budget before building.
pub(crate) const BYTES_PER_ENTRY: u128 = (std::mem::size_of::<DepEntry>() + 4) as u128;

/// Rough per-slot footprint in bytes: offsets into three entry arrays plus
/// the stored neighborhood dimensions.
pub(crate) const BYTES_PER_SLOT: u128 = 48;

/// The flattened, θ-prefiltered dependency structure of a candidate store
/// (see the module docs). Valid exactly as long as the store it was built
/// from: the entries depend on the candidate set, the eligibility
/// constraint and the pruning fallback — all of which change only when the
/// store is rebuilt.
#[derive(Debug, PartialEq)]
pub(crate) struct PairDepCsr {
    /// Slot → range of `out_entries` (length `n + 1`).
    out_offsets: Vec<usize>,
    /// Slot → range of `in_entries` (length `n + 1`).
    in_offsets: Vec<usize>,
    /// Out-neighbor-pair dependencies, `(i, j)`-sorted per slot.
    out_entries: Vec<DepEntry>,
    /// In-neighbor-pair dependencies, `(i, j)`-sorted per slot.
    in_entries: Vec<DepEntry>,
    /// Slot → `[|N⁺(u)|, |N⁺(v)|, |N⁻(u)|, |N⁻(v)|]` (drive `Ω` / vacuity).
    dims: Vec<[u32; 4]>,
    /// Slot → range of `rdeps` (length `n + 1`).
    rdep_offsets: Vec<usize>,
    /// Reverse CSR: for each slot, the slots whose update reads it. May
    /// contain duplicates (a source feeding both directions of one pair);
    /// the frontier's slot bitset deduplicates them for free.
    rdeps: Vec<u32>,
    /// The slots with at least one maintained dependency, ascending —
    /// what a dense step sweeps, and a superset of every slot's
    /// dependents (derived, never persisted).
    live: Vec<u32>,
    /// The row-key table, for operators that sum row maxima
    /// ([`Operator::sums_row_maxima`]) when some key is shared: derived
    /// at build and repair, and at the first evaluation of a restored CSR
    /// ([`Self::ensure_rows`]).
    rows: Option<RowKeys>,
    /// Whether `rows` was derived (it may still be `None`), so a store
    /// without shared keys is not derived again at every run.
    rows_derived: bool,
}

impl PairDepCsr {
    /// Materializes the dependency structure of `store` under the session's
    /// evaluation context.
    pub(crate) fn build<O: Operator>(
        g1: &Graph,
        g2: &Graph,
        ctx: &OpCtx<'_>,
        store: &PairStore,
        op: &O,
    ) -> Self {
        let n = store.len();
        let all_pairs = op.reads_ineligible_pairs();
        let fold_consts = !all_pairs && op.fold_const_rows();
        let mut out_offsets = Vec::with_capacity(n + 1);
        let mut in_offsets = Vec::with_capacity(n + 1);
        let mut out_entries = Vec::new();
        let mut in_entries = Vec::new();
        let mut dims = Vec::with_capacity(n);
        out_offsets.push(0);
        in_offsets.push(0);
        let mut const_buf = Vec::new();
        for &(u, v) in &store.pairs {
            let (s1, s2) = (g1.out_neighbors(u), g2.out_neighbors(v));
            push_direction(
                &mut out_entries,
                s1,
                s2,
                ctx,
                store,
                all_pairs,
                fold_consts,
                &mut const_buf,
            );
            out_offsets.push(out_entries.len());
            let (t1, t2) = (g1.in_neighbors(u), g2.in_neighbors(v));
            push_direction(
                &mut in_entries,
                t1,
                t2,
                ctx,
                store,
                all_pairs,
                fold_consts,
                &mut const_buf,
            );
            in_offsets.push(in_entries.len());
            dims.push([
                s1.len() as u32,
                s2.len() as u32,
                t1.len() as u32,
                t2.len() as u32,
            ]);
        }

        let (rdep_offsets, rdeps) =
            build_reverse(n, &out_offsets, &out_entries, &in_offsets, &in_entries);
        let mut csr = Self::assemble(
            out_offsets,
            in_offsets,
            out_entries,
            in_entries,
            dims,
            rdep_offsets,
            rdeps,
        );
        csr.ensure_rows(g1, g2, store, op);
        csr
    }

    /// Incrementally repairs the CSR after a graph edit: slots outside
    /// `entry_dirty` copy their old dependency lists verbatim (with slots
    /// renumbered through `old_to_new`); dirty slots — and pairs that just
    /// entered the store — re-derive theirs from the edited graphs. The
    /// expensive per-entry work (eligibility filtering, pair resolution,
    /// fallback probing) is therefore proportional to the edit's dirty
    /// frontier, not to the store; only the reverse-CSR counting sort and
    /// the entry copy remain `O(total entries)` — branch-free linear
    /// passes.
    ///
    /// `store` is the repaired store; `old_to_new` / `new_to_old` come
    /// from [`crate::candidates::repair_candidates`]; `entry_dirty` is
    /// indexed by *new* slot and must cover every slot whose dependency
    /// list could have changed (a superset is safe).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn repaired<O: Operator>(
        &self,
        g1: &Graph,
        g2: &Graph,
        ctx: &OpCtx<'_>,
        store: &PairStore,
        op: &O,
        old_to_new: &[u32],
        new_to_old: &[u32],
        entry_dirty: &[bool],
    ) -> Self {
        use crate::candidates::NO_SLOT;
        let n = store.len();
        debug_assert_eq!(entry_dirty.len(), n);
        let all_pairs = op.reads_ineligible_pairs();
        let fold_consts = !all_pairs && op.fold_const_rows();
        let mut out_offsets = Vec::with_capacity(n + 1);
        let mut in_offsets = Vec::with_capacity(n + 1);
        let mut out_entries = Vec::with_capacity(self.out_entries.len());
        let mut in_entries = Vec::with_capacity(self.in_entries.len());
        let mut dims = Vec::with_capacity(n);
        out_offsets.push(0);
        in_offsets.push(0);
        let copy_range = |dst: &mut Vec<DepEntry>, src: &[DepEntry]| {
            for e in src {
                let mut e = *e;
                if e.slot != DepEntry::CONST {
                    let mapped = old_to_new[e.slot as usize];
                    debug_assert_ne!(
                        mapped, NO_SLOT,
                        "clean slot depends on a removed pair — dirty set too small"
                    );
                    e.slot = mapped;
                }
                dst.push(e);
            }
        };
        let mut const_buf = Vec::new();
        for (slot, &(u, v)) in store.pairs.iter().enumerate() {
            let old_slot = new_to_old[slot];
            if old_slot != NO_SLOT && !entry_dirty[slot] {
                let o = old_slot as usize;
                copy_range(
                    &mut out_entries,
                    &self.out_entries[self.out_offsets[o]..self.out_offsets[o + 1]],
                );
                copy_range(
                    &mut in_entries,
                    &self.in_entries[self.in_offsets[o]..self.in_offsets[o + 1]],
                );
                dims.push(self.dims[o]);
            } else {
                let (s1, s2) = (g1.out_neighbors(u), g2.out_neighbors(v));
                push_direction(
                    &mut out_entries,
                    s1,
                    s2,
                    ctx,
                    store,
                    all_pairs,
                    fold_consts,
                    &mut const_buf,
                );
                let (t1, t2) = (g1.in_neighbors(u), g2.in_neighbors(v));
                push_direction(
                    &mut in_entries,
                    t1,
                    t2,
                    ctx,
                    store,
                    all_pairs,
                    fold_consts,
                    &mut const_buf,
                );
                dims.push([
                    s1.len() as u32,
                    s2.len() as u32,
                    t1.len() as u32,
                    t2.len() as u32,
                ]);
            }
            out_offsets.push(out_entries.len());
            in_offsets.push(in_entries.len());
        }
        let (rdep_offsets, rdeps) =
            build_reverse(n, &out_offsets, &out_entries, &in_offsets, &in_entries);
        // The row-key table is re-derived whole: one linear pass.
        let mut csr = Self::assemble(
            out_offsets,
            in_offsets,
            out_entries,
            in_entries,
            dims,
            rdep_offsets,
            rdeps,
        );
        csr.ensure_rows(g1, g2, store, op);
        csr
    }

    /// A CSR over validated columns, with its live-slot list derived and
    /// no row-key table yet.
    pub(crate) fn assemble(
        out_offsets: Vec<usize>,
        in_offsets: Vec<usize>,
        out_entries: Vec<DepEntry>,
        in_entries: Vec<DepEntry>,
        dims: Vec<[u32; 4]>,
        rdep_offsets: Vec<usize>,
        rdeps: Vec<u32>,
    ) -> Self {
        let maintained = |e: &DepEntry| e.slot != DepEntry::CONST;
        let live = slot_ids(dims.len())
            .filter(|&s| {
                let s = s as usize;
                out_entries[out_offsets[s]..out_offsets[s + 1]]
                    .iter()
                    .any(maintained)
                    || in_entries[in_offsets[s]..in_offsets[s + 1]]
                        .iter()
                        .any(maintained)
            })
            .collect();
        Self::from_columns(
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

    /// Derives the row-key table if `op` sums row maxima and the CSR has
    /// not derived one yet — a CSR restored from a snapshot, or one built
    /// for an operator without the capability before a rerun switched to
    /// one.
    pub(crate) fn ensure_rows<O: Operator>(
        &mut self,
        g1: &Graph,
        g2: &Graph,
        store: &PairStore,
        op: &O,
    ) {
        if !self.rows_derived && op.sums_row_maxima() {
            self.rows = RowKeys::derive(g1, g2, &store.pairs, &[self.cols()]);
            self.rows_derived = true;
        }
    }

    /// The CSR's columns as one substrate view.
    fn cols(&self) -> CsrCols<'_> {
        CsrCols {
            base: 0,
            out_offsets: &self.out_offsets,
            in_offsets: &self.in_offsets,
            out_entries: &self.out_entries,
            in_entries: &self.in_entries,
            dims: &self.dims,
        }
    }

    /// The slot kernel over this CSR (see [`SlotEval`]).
    pub(crate) fn kernel<'a, O: Operator>(
        &'a self,
        cfg: &'a FsimConfig,
        op: &'a O,
        store: &'a PairStore,
        label_terms: &'a [f64],
    ) -> SlotEval<'a, O> {
        SlotEval::new(cfg, op, store, label_terms, self.cols(), self.rows.as_ref())
    }

    /// The slots with at least one maintained dependency, ascending.
    pub(crate) fn live(&self) -> &[u32] {
        &self.live
    }

    /// Total dependency entries across both directions (diagnostics).
    pub(crate) fn entry_count(&self) -> usize {
        self.out_entries.len() + self.in_entries.len()
    }

    /// Resident heap footprint in bytes (entries, reverse CSR, offsets,
    /// dims, the live-slot list and the row-key table) — the "peak CSR
    /// memory" the sharded driver is bounded against.
    pub(crate) fn bytes(&self) -> usize {
        self.entry_count() * std::mem::size_of::<DepEntry>()
            + (self.rdeps.len() + self.live.len()) * std::mem::size_of::<u32>()
            + (self.out_offsets.len() + self.in_offsets.len() + self.rdep_offsets.len())
                * std::mem::size_of::<usize>()
            + self.dims.len() * std::mem::size_of::<[u32; 4]>()
            + self.rows.as_ref().map_or(0, RowKeys::bytes)
    }

    /// Slot → dependents offsets (for the delta frontier).
    pub(crate) fn rdep_offsets(&self) -> &[usize] {
        &self.rdep_offsets
    }

    /// Concatenated dependents (for the delta frontier).
    pub(crate) fn rdeps(&self) -> &[u32] {
        &self.rdeps
    }

    /// Borrows the seven raw columns for the snapshot codec
    /// (`engine/persist.rs`). The reverse CSR is persisted too — it is
    /// derivable, but re-deriving it would cost a counting sort over
    /// every entry on each restore.
    pub(crate) fn raw_parts(&self) -> DepRawParts<'_> {
        DepRawParts {
            out_offsets: &self.out_offsets,
            in_offsets: &self.in_offsets,
            out_entries: &self.out_entries,
            in_entries: &self.in_entries,
            dims: &self.dims,
            rdep_offsets: &self.rdep_offsets,
            rdeps: &self.rdeps,
        }
    }

    /// A CSR over columns the snapshot codec validated at restore and
    /// decoded at their first use, with the live-slot list it derived
    /// while copying the entries (`engine/persist.rs`). Nothing is
    /// checked here: the codec's in-place validation proved every
    /// invariant the slot kernel and the dirty scheduler index with.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_columns(
        out_offsets: Vec<usize>,
        in_offsets: Vec<usize>,
        out_entries: Vec<DepEntry>,
        in_entries: Vec<DepEntry>,
        dims: Vec<[u32; 4]>,
        rdep_offsets: Vec<usize>,
        rdeps: Vec<u32>,
        live: Vec<u32>,
    ) -> Self {
        Self {
            out_offsets,
            in_offsets,
            out_entries,
            in_entries,
            dims,
            rdep_offsets,
            rdeps,
            live,
            rows: None,
            rows_derived: false,
        }
    }
}

/// Equation 3 over one slot substrate — the full CSR or a shard's — with
/// everything a slot evaluation reads: the one kernel behind every
/// driver. With a row-key table (operators that sum row maxima) each
/// term is a sum of shared row maxima ([`super::rows`]); without one it
/// is the operator's per-slot [`Operator::term_slots`]. Both are bitwise
/// identical to [`pair_update`](super::iterate::pair_update) on the same
/// inputs.
pub(crate) struct SlotEval<'a, O> {
    cfg: &'a FsimConfig,
    op: &'a O,
    store: &'a PairStore,
    label_terms: &'a [f64],
    cols: CsrCols<'a>,
    /// The store's row-key table, present only when the operator sums
    /// row maxima.
    rows: Option<&'a RowKeys>,
}

impl<'a, O: Operator> SlotEval<'a, O> {
    fn new(
        cfg: &'a FsimConfig,
        op: &'a O,
        store: &'a PairStore,
        label_terms: &'a [f64],
        cols: CsrCols<'a>,
        rows: Option<&'a RowKeys>,
    ) -> Self {
        Self {
            cfg,
            op,
            store,
            label_terms,
            cols,
            rows: rows.filter(|_| op.sums_row_maxima()),
        }
    }
}

impl<O: Operator> SlotKernel for SlotEval<'_, O> {
    fn rows(&self) -> Option<&RowKeys> {
        self.rows
    }

    #[inline]
    fn eval(&self, slot: usize, prev: &[f64], maxima: Maxima<'_>, scratch: &mut OpScratch) -> f64 {
        let cfg = self.cfg;
        if cfg.pin_identical {
            let (u, v) = self.store.pairs[slot];
            if u == v {
                return 1.0;
            }
        }
        let c = &self.cols;
        let local = slot - c.base;
        let (out, inn) = match self.rows {
            Some(rows) => slot_terms(self.op, rows, slot, c.dims[local], prev, maxima, scratch),
            None => {
                let [o1, o2, i1, i2] = c.dims[local];
                (
                    self.op.term_slots(
                        &c.out_entries[c.out_offsets[local]..c.out_offsets[local + 1]],
                        o1 as usize,
                        o2 as usize,
                        prev,
                        scratch,
                    ),
                    self.op.term_slots(
                        &c.in_entries[c.in_offsets[local]..c.in_offsets[local + 1]],
                        i1 as usize,
                        i2 as usize,
                        prev,
                        scratch,
                    ),
                )
            }
        };
        let score = cfg.w_out * out + cfg.w_in * inn + cfg.w_label() * self.label_terms[slot];
        // Scores are mathematically confined to [0, 1]; clamp floating
        // drift (identically to `pair_update`).
        score.clamp(0.0, 1.0)
    }
}

/// Borrowed views of every [`PairDepCsr`] column, for serialization.
pub(crate) struct DepRawParts<'a> {
    pub(crate) out_offsets: &'a [usize],
    pub(crate) in_offsets: &'a [usize],
    pub(crate) out_entries: &'a [DepEntry],
    pub(crate) in_entries: &'a [DepEntry],
    pub(crate) dims: &'a [[u32; 4]],
    pub(crate) rdep_offsets: &'a [usize],
    pub(crate) rdeps: &'a [u32],
}

/// Validates a deserialized offset column: length `n + 1`, starts at 0,
/// non-decreasing, ends exactly at `terminal`. One pass over `offsets`,
/// which the snapshot codec reads in place from the file's bytes.
pub(crate) fn check_offsets(
    name: &str,
    offsets: impl ExactSizeIterator<Item = usize>,
    n: usize,
    terminal: usize,
) -> Result<(), String> {
    if offsets.len() != n + 1 {
        return Err(format!(
            "{name} has {} entries, expected {}",
            offsets.len(),
            n + 1
        ));
    }
    let mut last = 0;
    for (k, o) in offsets.enumerate() {
        if k == 0 && o != 0 {
            return Err(format!("{name} must start at 0, found {o}"));
        }
        if o < last {
            return Err(format!("{name} is not non-decreasing"));
        }
        last = o;
    }
    if last != terminal {
        return Err(format!("{name} ends at {last}, entry array has {terminal}"));
    }
    Ok(())
}

/// The dependency lists of one **u-row shard** of the candidate store —
/// the slots `base..base + len` — built transiently for a single sweep of
/// the sharded driver ([`super::shards`]) and dropped before the next
/// shard is touched, so peak resident CSR memory is one shard's worth.
///
/// Entries are produced by the same [`push_direction`] pass as
/// [`PairDepCsr::build`], and both evaluate through [`SlotEval`], so
/// evaluating a slot through a `ShardCsr` is bitwise identical to
/// evaluating it through the full CSR.
/// No reverse CSR is materialized: the sharded driver schedules by
/// scanning each slot's forward entries against the previous iteration's
/// changed-slot frontier instead (the boundary exchange).
pub(crate) struct ShardCsr {
    repr: ShardRepr,
}

/// Where a [`ShardCsr`]'s columns live.
enum ShardRepr {
    /// Freshly built, columns on the heap.
    Owned(OwnedShardCsr),
    /// Backed by a retained spill mapping ([`MappedShardCsr`]),
    /// shared with the session's spill cache.
    Mapped(std::sync::Arc<MappedShardCsr>),
}

struct OwnedShardCsr {
    /// First global slot of the shard.
    base: usize,
    /// Local slot → range of `out_entries` (length `len + 1`).
    out_offsets: Vec<usize>,
    /// Local slot → range of `in_entries` (length `len + 1`).
    in_offsets: Vec<usize>,
    out_entries: Vec<DepEntry>,
    in_entries: Vec<DepEntry>,
    /// Local slot → `[|N⁺(u)|, |N⁺(v)|, |N⁻(u)|, |N⁻(v)|]`.
    dims: Vec<[u32; 4]>,
    /// The shard's live slots, once a live sweep listed them.
    live: OnceLock<Vec<u32>>,
}

/// Borrowed view of one substrate's CSR columns — the common shape the
/// full CSR and both shard backings lower to, so evaluation is one code
/// path (and therefore bitwise identical) regardless of where the bytes
/// live.
#[derive(Clone, Copy)]
pub(crate) struct CsrCols<'a> {
    /// First global slot of the substrate (0 for the full CSR).
    pub(crate) base: usize,
    pub(crate) out_offsets: &'a [usize],
    pub(crate) in_offsets: &'a [usize],
    pub(crate) out_entries: &'a [DepEntry],
    pub(crate) in_entries: &'a [DepEntry],
    pub(crate) dims: &'a [[u32; 4]],
}

impl ShardCsr {
    #[inline]
    fn cols(&self) -> CsrCols<'_> {
        match &self.repr {
            ShardRepr::Owned(o) => CsrCols {
                base: o.base,
                out_offsets: &o.out_offsets,
                in_offsets: &o.in_offsets,
                out_entries: &o.out_entries,
                in_entries: &o.in_entries,
                dims: &o.dims,
            },
            ShardRepr::Mapped(m) => m.cols(),
        }
    }

    /// The shard's live slots, ascending (global ids): listed by the
    /// first live sweep over this build or spill mapping and kept while it
    /// lives, so sparse steps over rebuilt shards never pay the scan and a
    /// retained mapping pays it once.
    pub(crate) fn live(&self) -> &[u32] {
        self.live_cell().get_or_init(|| {
            let mut live = Vec::new();
            self.slots_reading(|e| e.slot != DepEntry::CONST, &mut live);
            live
        })
    }

    fn live_cell(&self) -> &OnceLock<Vec<u32>> {
        match &self.repr {
            ShardRepr::Owned(o) => &o.live,
            ShardRepr::Mapped(m) => &m.live,
        }
    }

    /// The slot kernel over this shard (see [`SlotEval`]). `rows` is the
    /// store's row-key table — a sharded session with retained spill
    /// mappings shares one table across all its shards.
    pub(crate) fn kernel<'a, O: Operator>(
        &'a self,
        cfg: &'a FsimConfig,
        op: &'a O,
        store: &'a PairStore,
        label_terms: &'a [f64],
        rows: Option<&'a RowKeys>,
    ) -> SlotEval<'a, O> {
        SlotEval::new(cfg, op, store, label_terms, self.cols(), rows)
    }

    /// Wraps a retained spill mapping (shared with the spill cache).
    pub(crate) fn from_mapped(m: std::sync::Arc<MappedShardCsr>) -> Self {
        Self {
            repr: ShardRepr::Mapped(m),
        }
    }
    /// Materializes the dependency structure of slots `lo..hi` of `store`
    /// under the session's evaluation context.
    pub(crate) fn build<O: Operator>(
        g1: &Graph,
        g2: &Graph,
        ctx: &OpCtx<'_>,
        store: &PairStore,
        op: &O,
        lo: usize,
        hi: usize,
    ) -> Self {
        debug_assert!(lo <= hi && hi <= store.len());
        let all_pairs = op.reads_ineligible_pairs();
        let fold_consts = !all_pairs && op.fold_const_rows();
        let len = hi - lo;
        let mut out_offsets = Vec::with_capacity(len + 1);
        let mut in_offsets = Vec::with_capacity(len + 1);
        let mut out_entries = Vec::new();
        let mut in_entries = Vec::new();
        let mut dims = Vec::with_capacity(len);
        out_offsets.push(0);
        in_offsets.push(0);
        let mut const_buf = Vec::new();
        for &(u, v) in &store.pairs[lo..hi] {
            let (s1, s2) = (g1.out_neighbors(u), g2.out_neighbors(v));
            push_direction(
                &mut out_entries,
                s1,
                s2,
                ctx,
                store,
                all_pairs,
                fold_consts,
                &mut const_buf,
            );
            out_offsets.push(out_entries.len());
            let (t1, t2) = (g1.in_neighbors(u), g2.in_neighbors(v));
            push_direction(
                &mut in_entries,
                t1,
                t2,
                ctx,
                store,
                all_pairs,
                fold_consts,
                &mut const_buf,
            );
            in_offsets.push(in_entries.len());
            dims.push([
                s1.len() as u32,
                s2.len() as u32,
                t1.len() as u32,
                t2.len() as u32,
            ]);
        }
        Self {
            repr: ShardRepr::Owned(OwnedShardCsr {
                base: lo,
                out_offsets,
                in_offsets,
                out_entries,
                in_entries,
                dims,
                live: OnceLock::new(),
            }),
        }
    }

    /// Appends to `out`, ascending, the shard's global slots one of whose
    /// dependency entries `reads` — the worklist scan of a sharded step,
    /// over the shard's columns borrowed once.
    pub(crate) fn slots_reading(&self, reads: impl Fn(&DepEntry) -> bool, out: &mut Vec<u32>) {
        let c = self.cols();
        let ids = slot_ids(c.base + c.dims.len()).skip(c.base);
        for (local, id) in ids.enumerate() {
            let outs = &c.out_entries[c.out_offsets[local]..c.out_offsets[local + 1]];
            let ins = &c.in_entries[c.in_offsets[local]..c.in_offsets[local + 1]];
            if outs.iter().chain(ins).any(&reads) {
                out.push(id);
            }
        }
    }

    /// Both directions' dependency entries of a **global** slot.
    #[inline]
    pub(crate) fn deps_of(&self, slot: usize) -> impl Iterator<Item = &DepEntry> {
        let c = self.cols();
        let local = slot - c.base;
        c.out_entries[c.out_offsets[local]..c.out_offsets[local + 1]]
            .iter()
            .chain(&c.in_entries[c.in_offsets[local]..c.in_offsets[local + 1]])
    }

    /// Resident footprint in bytes: the columns (for a mapped shard, the
    /// page-cache-resident spill bytes they view) and the live-slot list
    /// once listed.
    pub(crate) fn bytes(&self) -> usize {
        let c = self.cols();
        std::mem::size_of_val(c.out_entries)
            + std::mem::size_of_val(c.in_entries)
            + std::mem::size_of_val(c.out_offsets)
            + std::mem::size_of_val(c.in_offsets)
            + std::mem::size_of_val(c.dims)
            + self
                .live_cell()
                .get()
                .map_or(0, |l| std::mem::size_of_val(&l[..]))
    }

    /// Writes this shard's dependency lists to `path` as a one-section
    /// `FSNP` spill file (atomic temp-and-rename, FNV-1a checksummed),
    /// so later sweeps re-map the lists instead of re-deriving them.
    pub(crate) fn write_spill(&self, path: &std::path::Path) -> Result<(), SnapshotError> {
        use fsim_snapshot::writer::{put_usize, SnapshotBuilder};
        let c = self.cols();
        let mut b = SnapshotBuilder::new();
        let buf = b.section(SPILL_SECTION);
        put_usize(buf, c.base);
        put_usize(buf, c.dims.len());
        fsim_snapshot::cursor::put_usize_slice(buf, c.out_offsets);
        fsim_snapshot::cursor::put_usize_slice(buf, c.in_offsets);
        put_dep_entries(buf, c.out_entries);
        put_dep_entries(buf, c.in_entries);
        put_usize(buf, c.dims.len());
        for d in c.dims {
            for &v in d {
                fsim_snapshot::writer::put_u32(buf, v);
            }
        }
        b.write_atomic(path)
    }
}

/// A shard spill file retained as a live mapping. [`MappedShardCsr::map`]
/// opens, checksums and structurally validates the file exactly once;
/// the session's spill cache then keeps the result across sweeps, so a
/// warm sweep reborrows the CSR columns instead of re-reading,
/// re-checksumming and re-decoding the file (the cost that previously
/// made spilled sweeps slower than rebuilding).
///
/// The small columns (offsets, dims) are decoded into owned buffers at
/// map time; the dependency-entry columns — the bulk of the bytes — are
/// reborrowed in place from the mapping on little-endian targets, where
/// the wire format (LE `u32`/`f32` words, 16 bytes per entry) coincides
/// with `repr(C)` [`DepEntry`]'s in-memory layout.
pub(crate) struct MappedShardCsr {
    /// Owns the mapping (or fallback read buffer) the `Raw` entry
    /// columns point into; never touched again after `map` returns.
    _file: fsim_snapshot::SnapshotFile,
    base: usize,
    out_offsets: Vec<usize>,
    in_offsets: Vec<usize>,
    out_entries: EntryCol,
    in_entries: EntryCol,
    dims: Vec<[u32; 4]>,
    /// The shard's live slots, listed by the first live sweep over this
    /// mapping ([`ShardCsr::live`]).
    live: OnceLock<Vec<u32>>,
}

// SAFETY: the `Raw` columns point into `_file`'s buffer, which is
// owned by this same struct, read-only for its whole life and freed
// only on drop — sharing `&self` across the parallel sweep's threads
// is reads of immutable memory.
unsafe impl Send for MappedShardCsr {}
// SAFETY: as above — every access path is `&self` reads, except the
// live list's one write, which its `OnceLock` synchronizes.
unsafe impl Sync for MappedShardCsr {}

/// One dependency-entry column of a retained spill.
enum EntryCol {
    /// Reborrowed in place from the mapping (little-endian targets
    /// whose section bytes landed `DepEntry`-aligned).
    #[cfg(target_endian = "little")]
    Raw { ptr: *const DepEntry, len: usize },
    /// Decoded copy — big-endian targets, or an unaligned column.
    Owned(Vec<DepEntry>),
}

impl EntryCol {
    #[inline]
    fn as_slice(&self) -> &[DepEntry] {
        match self {
            #[cfg(target_endian = "little")]
            // SAFETY: `ptr`/`len` were carved out of the owning
            // `MappedShardCsr`'s `_file` buffer by `entry_col`, which
            // proved alignment and `len * 16` bytes in bounds; the
            // buffer is immutable and outlives `self`, and every
            // 16-byte pattern is a valid `DepEntry` (plain `u32`s and
            // an `f32` accepting all bit patterns).
            EntryCol::Raw { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            EntryCol::Owned(v) => v,
        }
    }

    fn len(&self) -> usize {
        self.as_slice().len()
    }
}

/// Reads one entry column off `cur`: zero-copy where the layout
/// allows, decoded otherwise.
fn entry_col(cur: &mut fsim_snapshot::Cursor<'_>) -> Result<EntryCol, SnapshotError> {
    #[cfg(target_endian = "little")]
    {
        let len = cur.checked_len(std::mem::size_of::<DepEntry>())?;
        let raw = cur.take(len * std::mem::size_of::<DepEntry>())?;
        if (raw.as_ptr() as usize) % std::mem::align_of::<DepEntry>() == 0 {
            return Ok(EntryCol::Raw {
                ptr: raw.as_ptr().cast(),
                len,
            });
        }
        // Sections are 8-byte aligned and every preceding field is a
        // multiple of 8 bytes, so this fallback should be unreachable;
        // decoding the already-taken bytes keeps it correct anyway.
        let mut entries = Vec::with_capacity(len);
        for c in raw.chunks_exact(std::mem::size_of::<DepEntry>()) {
            entries.push(DepEntry {
                i: u32::from_le_bytes(c[0..4].try_into().expect("4 bytes")),
                j: u32::from_le_bytes(c[4..8].try_into().expect("4 bytes")),
                slot: u32::from_le_bytes(c[8..12].try_into().expect("4 bytes")),
                cval: f32::from_bits(u32::from_le_bytes(c[12..16].try_into().expect("4 bytes"))),
            });
        }
        Ok(EntryCol::Owned(entries))
    }
    #[cfg(not(target_endian = "little"))]
    Ok(EntryCol::Owned(read_dep_entries(cur)?))
}

impl MappedShardCsr {
    /// Opens and validates the spill at `path`, verifying it covers
    /// exactly the slot range `lo..hi` of the current plan and that
    /// every offset column is structurally sound — a stale or
    /// mismatched spill returns an error (the caller rebuilds) rather
    /// than evaluating garbage. The validated mapping is the returned
    /// value's backing store: drop it last.
    pub(crate) fn map(
        path: &std::path::Path,
        lo: usize,
        hi: usize,
    ) -> Result<MappedShardCsr, SnapshotError> {
        let file = fsim_snapshot::SnapshotFile::open(path, SPILL_KNOWN)?;
        let mut cur = fsim_snapshot::Cursor::new("shard-csr", file.section(SPILL_SECTION)?);
        let base = cur.usize64()?;
        let len = cur.usize64()?;
        let out_offsets = cur.usize_vec()?;
        let in_offsets = cur.usize_vec()?;
        let out_entries = entry_col(&mut cur)?;
        let in_entries = entry_col(&mut cur)?;
        let dims_len = cur.checked_len(16)?;
        let mut dims = Vec::with_capacity(dims_len);
        for _ in 0..dims_len {
            dims.push([cur.u32()?, cur.u32()?, cur.u32()?, cur.u32()?]);
        }
        cur.finish()?;
        let malformed = |detail: String| SnapshotError::Malformed {
            section: "shard-csr",
            detail,
        };
        if base != lo || len != hi - lo {
            return Err(malformed(format!(
                "spill covers slots {base}..{}, plan wants {lo}..{hi}",
                base + len
            )));
        }
        if dims.len() != len {
            return Err(malformed(format!(
                "{} dim rows for {len} slots",
                dims.len()
            )));
        }
        check_offsets(
            "out_offsets",
            out_offsets.iter().copied(),
            len,
            out_entries.len(),
        )
        .and_then(|()| {
            check_offsets(
                "in_offsets",
                in_offsets.iter().copied(),
                len,
                in_entries.len(),
            )
        })
        .map_err(malformed)?;
        Ok(MappedShardCsr {
            _file: file,
            base,
            out_offsets,
            in_offsets,
            out_entries,
            in_entries,
            dims,
            live: OnceLock::new(),
        })
    }

    /// Whether this mapping still describes the plan range `lo..hi`.
    pub(crate) fn covers(&self, lo: usize, hi: usize) -> bool {
        self.base == lo && self.dims.len() == hi - lo
    }

    /// The mapping's columns.
    #[inline]
    pub(crate) fn cols(&self) -> CsrCols<'_> {
        CsrCols {
            base: self.base,
            out_offsets: &self.out_offsets,
            in_offsets: &self.in_offsets,
            out_entries: self.out_entries.as_slice(),
            in_entries: self.in_entries.as_slice(),
            dims: &self.dims,
        }
    }
}

/// The single section id of a shard spill file.
const SPILL_SECTION: u32 = 1;
/// Known-section registry for spill files.
const SPILL_KNOWN: &[(u32, &str)] = &[(SPILL_SECTION, "shard-csr")];

/// Encodes a [`DepEntry`] slice: count, then 16 bytes per entry
/// (`i`, `j`, `slot` as LE `u32`, `cval` as LE `f32` bits).
pub(crate) fn put_dep_entries(buf: &mut Vec<u8>, entries: &[DepEntry]) {
    fsim_snapshot::writer::put_usize(buf, entries.len());
    for e in entries {
        buf.extend_from_slice(&e.i.to_le_bytes());
        buf.extend_from_slice(&e.j.to_le_bytes());
        buf.extend_from_slice(&e.slot.to_le_bytes());
        buf.extend_from_slice(&e.cval.to_bits().to_le_bytes());
    }
}

/// Decodes a [`put_dep_entries`] slice with a bounds-proven count.
#[cfg(not(target_endian = "little"))]
fn read_dep_entries(cur: &mut fsim_snapshot::Cursor<'_>) -> Result<Vec<DepEntry>, SnapshotError> {
    let checked_n = cur.checked_len(16)?;
    let raw = cur.take(checked_n * 16)?;
    Ok(raw
        .chunks_exact(16)
        .map(|c| DepEntry {
            i: u32::from_le_bytes([c[0], c[1], c[2], c[3]]),
            j: u32::from_le_bytes([c[4], c[5], c[6], c[7]]),
            slot: u32::from_le_bytes([c[8], c[9], c[10], c[11]]),
            cval: f32::from_bits(u32::from_le_bytes([c[12], c[13], c[14], c[15]])),
        })
        .collect())
}

/// Reverse CSR by counting sort: dependents of each source slot, in
/// ascending dependent order (deterministic — the scheduler's worklists
/// are order-insensitive, but determinism keeps debugging sane).
fn build_reverse(
    n: usize,
    out_offsets: &[usize],
    out_entries: &[DepEntry],
    in_offsets: &[usize],
    in_entries: &[DepEntry],
) -> (Vec<usize>, Vec<u32>) {
    let mut counts = vec![0usize; n + 1];
    for e in out_entries.iter().chain(in_entries) {
        if e.slot != DepEntry::CONST {
            counts[e.slot as usize + 1] += 1;
        }
    }
    for k in 1..=n {
        counts[k] += counts[k - 1];
    }
    let rdep_offsets = counts.clone();
    let mut cursor = counts;
    cursor.pop();
    let mut rdeps = vec![0u32; *rdep_offsets.last().unwrap_or(&0)];
    for slot in 0..n {
        let slot_entries = out_entries[out_offsets[slot]..out_offsets[slot + 1]]
            .iter()
            .chain(&in_entries[in_offsets[slot]..in_offsets[slot + 1]]);
        for e in slot_entries {
            if e.slot != DepEntry::CONST {
                let src = e.slot as usize;
                rdeps[cursor[src]] = slot as u32;
                cursor[src] += 1;
            }
        }
    }
    (rdep_offsets, rdeps)
}

/// Appends one direction's dependency list for a pair: eligible neighbor
/// pairs in `(i, j)` order, resolved to slots or fallback constants.
/// Zero-valued constants are omitted (they cannot influence any operator).
///
/// For operators that only read eligible pairs (the variant operators),
/// each row group is **partitioned**: slot-backed entries first (still in
/// `j` order, hence ascending slot — store rows are `v`-sorted), fallback
/// constants after, buffered through `const_buf`. The kernels' row
/// reductions are order-independent within a row (max / deterministic
/// matcher sort), so the partition cannot change any bit; what it buys is
/// a branch-free vectorizable prefix of pure score-buffer loads per row.
/// Operators that read ineligible pairs ([`SimRankOp`] — an
/// order-sensitive *sum* keyed by logical position) keep the raw
/// interleaved `(i, j)` order.
///
/// When `fold_consts` is set ([`Operator::fold_const_rows`]), the
/// buffered constant run of each row is collapsed to the single entry
/// attaining the maximum constant (first winner on ties — deterministic,
/// so repaired and fresh builds agree entry for entry). The fold is
/// pre-computing the only thing a per-row max can ever extract from the
/// run; `f32` maxima are order-insensitive and exact under the `f64`
/// widening, so evaluation stays bitwise identical while the row shrinks
/// to its slot-backed prefix plus one bias entry.
///
/// [`SimRankOp`]: crate::operators::SimRankOp
#[allow(clippy::too_many_arguments)]
fn push_direction(
    entries: &mut Vec<DepEntry>,
    s1: &[fsim_graph::NodeId],
    s2: &[fsim_graph::NodeId],
    ctx: &OpCtx<'_>,
    store: &PairStore,
    all_pairs: bool,
    fold_consts: bool,
    const_buf: &mut Vec<DepEntry>,
) {
    for (i, &x) in s1.iter().enumerate() {
        const_buf.clear();
        for (j, &y) in s2.iter().enumerate() {
            if !all_pairs && !ctx.eligible(x, y) {
                continue;
            }
            match store.resolve(x, y) {
                PairRef::Slot(s) => entries.push(DepEntry {
                    i: i as u32,
                    j: j as u32,
                    slot: s as u32,
                    cval: 0.0,
                }),
                PairRef::Absent(c) => {
                    if c != 0.0 {
                        let e = DepEntry {
                            i: i as u32,
                            j: j as u32,
                            slot: DepEntry::CONST,
                            cval: c as f32,
                        };
                        if all_pairs {
                            entries.push(e);
                        } else {
                            const_buf.push(e);
                        }
                    }
                }
            }
        }
        if fold_consts && const_buf.len() > 1 {
            let mut best = const_buf[0];
            for e in &const_buf[1..] {
                if e.cval > best.cval {
                    best = *e;
                }
            }
            entries.push(best);
            const_buf.clear();
        } else {
            entries.append(const_buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FsimConfig, Variant};
    use crate::engine::parallel::step_maxima;
    use crate::operators::VariantOp;
    use fsim_graph::{graph_from_parts, GraphBuilder, LabelInterner};
    use fsim_labels::LabelFn;

    fn setup() -> (Graph, Graph, FsimConfig) {
        // Node 1 is an out-neighbor of both 0 and 2, so slots (0, v) and
        // (2, v) share row keys.
        let g1 = graph_from_parts(&["a", "b", "a"], &[(0, 1), (1, 2), (2, 0), (2, 1)]);
        let g2 = graph_from_parts(&["a", "b", "b", "a"], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let cfg = FsimConfig::new(Variant::Simple).label_fn(LabelFn::Indicator);
        (g1, g2, cfg)
    }

    /// The per-slot label-term cache the session keeps.
    fn label_terms(ctx: &OpCtx<'_>, store: &PairStore) -> Vec<f64> {
        store
            .pairs
            .iter()
            .map(|&(u, v)| ctx.label_sim(u, v))
            .collect()
    }

    #[test]
    fn slot_kernel_matches_pair_update_bitwise() {
        let (g1raw, g2raw, base) = setup();
        for theta in [0.0, 1.0] {
            let cfg = base.clone().theta(theta);
            let aligned = super::super::session::AlignedLabels::new(&g1raw, &g2raw);
            let eval = super::super::session::build_label_eval(&cfg, &aligned.interner);
            let ctx = OpCtx {
                labels1: &aligned.labels1,
                labels2: &aligned.labels2,
                label_eval: &eval,
                theta: cfg.theta,
            };
            let op = VariantOp::new(cfg.variant);
            let store = crate::candidates::enumerate_candidates(&g1raw, &g2raw, &ctx, &cfg, &op);
            let csr = PairDepCsr::build(&g1raw, &g2raw, &ctx, &store, &op);
            let labels = label_terms(&ctx, &store);
            let kernel = csr.kernel(&cfg, &op, &store, &labels);
            // Arbitrary (deterministic) score buffer.
            let scores: Vec<f64> = (0..store.len()).map(|i| (i % 13) as f64 / 13.0).collect();
            let view = store.view(&scores);
            let mut scratch = OpScratch::new();
            for (slot, &(u, v)) in store.pairs.iter().enumerate() {
                let direct = super::super::iterate::pair_update(
                    &g1raw,
                    &g2raw,
                    &ctx,
                    &cfg,
                    &op,
                    u,
                    v,
                    &view,
                    &mut scratch,
                );
                let via_csr = kernel.eval(slot, &scores, Maxima::lazy(), &mut scratch);
                assert_eq!(
                    direct.to_bits(),
                    via_csr.to_bits(),
                    "theta={theta} slot {slot} ({u},{v})"
                );
            }
        }
    }

    #[test]
    fn shard_csr_matches_full_csr_bitwise() {
        let (g1, g2, base) = setup();
        for theta in [0.0, 1.0] {
            let cfg = base.clone().theta(theta);
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
            let csr = PairDepCsr::build(&g1, &g2, &ctx, &store, &op);
            let labels = label_terms(&ctx, &store);
            let full_kernel = csr.kernel(&cfg, &op, &store, &labels);
            let scores: Vec<f64> = (0..store.len()).map(|i| (i % 7) as f64 / 7.0).collect();
            let mut scratch = OpScratch::new();
            // Split the store anywhere (including degenerate empty shards)
            // and check every slot evaluates identically through its shard.
            for cut in [0, store.len() / 2, store.len()] {
                for (lo, hi) in [(0, cut), (cut, store.len())] {
                    let shard = ShardCsr::build(&g1, &g2, &ctx, &store, &op, lo, hi);
                    assert!(shard.bytes() <= csr.bytes());
                    // The shard's live list is the full CSR's, cut to the
                    // shard.
                    let in_shard = |&&s: &&u32| (lo..hi).contains(&(s as usize));
                    let full_live: Vec<u32> = csr.live().iter().filter(in_shard).copied().collect();
                    assert_eq!(shard.live(), full_live, "theta={theta} {lo}..{hi}");
                    let shard_kernel = shard.kernel(&cfg, &op, &store, &labels, None);
                    for slot in lo..hi {
                        let full = full_kernel.eval(slot, &scores, Maxima::lazy(), &mut scratch);
                        let via_shard =
                            shard_kernel.eval(slot, &scores, Maxima::lazy(), &mut scratch);
                        assert_eq!(
                            full.to_bits(),
                            via_shard.to_bits(),
                            "theta={theta} slot {slot}"
                        );
                        // The shard's forward entries name exactly the
                        // dependencies the full CSR holds for the slot.
                        let full_deps: Vec<DepEntry> = csr.out_entries
                            [csr.out_offsets[slot]..csr.out_offsets[slot + 1]]
                            .iter()
                            .chain(&csr.in_entries[csr.in_offsets[slot]..csr.in_offsets[slot + 1]])
                            .copied()
                            .collect();
                        let shard_deps: Vec<DepEntry> = shard.deps_of(slot).copied().collect();
                        assert_eq!(full_deps, shard_deps, "theta={theta} slot {slot}");
                    }
                }
            }
        }
    }

    /// A slot whose dependencies are all fallback constants never changes
    /// after iteration 1, so neither the full CSR's live list nor any
    /// shard's may hold it. In this fixture `(x, y) = (1, 1)` (labels
    /// `b`, `c`) is bound-dropped at `α·ub = 0.5·0.4`, and slot `(0, 0)`
    /// reads only that pair.
    #[test]
    fn constant_only_slots_stay_off_the_live_lists() {
        let g1 = graph_from_parts(&["a", "b"], &[(0, 1), (1, 0)]);
        let g2 = graph_from_parts(&["a", "c"], &[(0, 1)]);
        let cfg = FsimConfig::new(Variant::Simple)
            .label_fn(LabelFn::Indicator)
            .upper_bound(0.5, 0.5);
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
        let csr = PairDepCsr::build(&g1, &g2, &ctx, &store, &op);
        let constant_only: Vec<u32> = slot_ids(store.len())
            .filter(|&s| {
                let s = s as usize;
                let deps = csr.out_entries[csr.out_offsets[s]..csr.out_offsets[s + 1]]
                    .iter()
                    .chain(&csr.in_entries[csr.in_offsets[s]..csr.in_offsets[s + 1]]);
                let mut deps = deps.peekable();
                deps.peek().is_some() && deps.all(|e| e.slot == DepEntry::CONST && e.cval > 0.0)
            })
            .collect();
        let slot = store.index.get(0, 0).expect("(0, 0) is maintained") as u32;
        assert_eq!(constant_only, [slot], "the fixture's constant-only slot");
        assert!(!csr.live().contains(&slot), "full CSR live list");
        for (lo, hi) in [(0, store.len()), (0, 1), (1, store.len())] {
            let shard = ShardCsr::build(&g1, &g2, &ctx, &store, &op, lo, hi);
            assert!(!shard.live().contains(&slot), "shard {lo}..{hi} live list");
        }
    }

    #[test]
    fn mapped_spill_matches_the_built_shard_bitwise() {
        let (g1, g2, base) = setup();
        let cfg = base.clone().theta(0.0);
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
        let dir = std::env::temp_dir().join(format!("fsim-deps-spill-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard.fsnp");
        let (lo, hi) = (0, store.len());
        let built = ShardCsr::build(&g1, &g2, &ctx, &store, &op, lo, hi);
        built.write_spill(&path).unwrap();
        let mapped = ShardCsr::from_mapped(std::sync::Arc::new(
            MappedShardCsr::map(&path, lo, hi).unwrap(),
        ));
        let labels = label_terms(&ctx, &store);
        let (built_kernel, mapped_kernel) = (
            built.kernel(&cfg, &op, &store, &labels, None),
            mapped.kernel(&cfg, &op, &store, &labels, None),
        );
        let scores: Vec<f64> = (0..store.len()).map(|i| (i % 5) as f64 / 5.0).collect();
        let mut scratch = OpScratch::new();
        for slot in lo..hi {
            let a = built_kernel.eval(slot, &scores, Maxima::lazy(), &mut scratch);
            let b = mapped_kernel.eval(slot, &scores, Maxima::lazy(), &mut scratch);
            assert_eq!(a.to_bits(), b.to_bits(), "slot {slot}");
            let da: Vec<DepEntry> = built.deps_of(slot).copied().collect();
            let db: Vec<DepEntry> = mapped.deps_of(slot).copied().collect();
            assert_eq!(da, db, "slot {slot}");
        }
        // A listed live list counts in the footprint.
        let unlisted = built.bytes();
        assert_eq!(built.live(), mapped.live());
        assert!(!built.live().is_empty());
        assert_eq!(built.bytes(), unlisted + 4 * built.live().len());
        assert_eq!(built.bytes(), mapped.bytes());
        // A mapping is pinned to its plan range: a range mismatch is a
        // structured error (the caller rebuilds), never garbage.
        assert!(MappedShardCsr::map(&path, lo, hi + 1).is_err());
        assert!(MappedShardCsr::map(&path, 1, hi).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repaired_with_identity_remap_matches_fresh_build() {
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
        let csr = PairDepCsr::build(&g1, &g2, &ctx, &store, &op);
        let identity: Vec<u32> = (0..store.len() as u32).collect();
        // Edit the graph (add an edge), mark the touched rows dirty, and
        // check the repair equals a fresh build on the edited graph.
        let g1b = g1.with_edits(&[(0, 2)], &[], &[]);
        let dirty: Vec<bool> = store.pairs.iter().map(|&(u, _)| u == 0 || u == 2).collect();
        let repaired = csr.repaired(&g1b, &g2, &ctx, &store, &op, &identity, &identity, &dirty);
        let fresh = PairDepCsr::build(&g1b, &g2, &ctx, &store, &op);
        assert_eq!(repaired, fresh);
        // All-clean repair reproduces the original bit for bit.
        let clean = vec![false; store.len()];
        let same = csr.repaired(&g1, &g2, &ctx, &store, &op, &identity, &identity, &clean);
        assert_eq!(same, csr);
    }

    #[test]
    fn every_dependent_is_live() {
        let (_, _, cfg) = setup();
        // g1's node 3 is a sink and g2's node 4 a source: pairs of the two
        // read nothing, so not every slot is live.
        let g1 = graph_from_parts(&["a", "b", "a", "b"], &[(0, 1), (1, 2), (2, 0), (0, 3)]);
        let g2 = graph_from_parts(
            &["a", "b", "b", "a", "b"],
            &[(0, 1), (1, 2), (2, 3), (3, 0), (4, 0)],
        );
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
        let csr = PairDepCsr::build(&g1, &g2, &ctx, &store, &op);
        // A dense step sweeps `live()` instead of the dependents of the
        // changed set, so it must cover every slot the reverse CSR names.
        for &d in &csr.rdeps {
            assert!(csr.live().binary_search(&d).is_ok(), "dependent {d}");
        }
        assert!(csr.live().windows(2).all(|w| w[0] < w[1]), "ascending");
        assert!(!csr.rdeps.is_empty(), "the fixture has dependents");
        assert!(csr.live().len() < store.len(), "the fixture has dead slots");
    }

    #[test]
    fn reverse_csr_covers_every_slot_dependency() {
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
        let csr = PairDepCsr::build(&g1, &g2, &ctx, &store, &op);
        for slot in 0..store.len() {
            let entries = csr.out_entries[csr.out_offsets[slot]..csr.out_offsets[slot + 1]]
                .iter()
                .chain(&csr.in_entries[csr.in_offsets[slot]..csr.in_offsets[slot + 1]]);
            for e in entries {
                if e.slot != DepEntry::CONST {
                    let src = e.slot as usize;
                    let deps = &csr.rdeps[csr.rdep_offsets[src]..csr.rdep_offsets[src + 1]];
                    assert!(
                        deps.contains(&(slot as u32)),
                        "slot {slot} missing from dependents of {src}"
                    );
                }
            }
        }
    }

    /// A seeded xorshift generator: the engine crate has no RNG
    /// dependency, and these tests need only reproducible variety.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    /// A random graph pair over one label vocabulary, dense enough that
    /// most `x` are neighbors of several `u` — so most row keys are read
    /// by more than one slot.
    fn seeded_pair(rng: &mut Rng) -> (Graph, Graph) {
        let interner = LabelInterner::shared();
        let mut mk = |b: &mut GraphBuilder| {
            let n = 4 + rng.below(9);
            for _ in 0..n {
                b.add_node(["a", "b", "c"][rng.below(3)]);
            }
            for _ in 0..3 * n {
                let (u, v) = (rng.below(n), rng.below(n));
                b.add_edge(u32::try_from(u).unwrap(), u32::try_from(v).unwrap());
            }
        };
        let mut b1 = GraphBuilder::with_interner(std::sync::Arc::clone(&interner));
        mk(&mut b1);
        let mut b2 = GraphBuilder::with_interner(interner);
        mk(&mut b2);
        (b1.build(), b2.build())
    }

    /// The configurations the shared-row suite crosses: θ ∈ {0, 0.5} ×
    /// α-pruning off / on (α·ub constants, folded per row, with rows
    /// whose every entry is a constant) × `pin_identical`.
    fn shared_row_configs() -> Vec<FsimConfig> {
        let mut cfgs = Vec::new();
        for theta in [0.0, 0.5] {
            for pruning in [None, Some((0.5, 0.6)), Some((0.3, 0.95))] {
                for pin in [false, true] {
                    let mut cfg = FsimConfig::new(Variant::Simple)
                        .label_fn(LabelFn::JaroWinkler)
                        .theta(theta);
                    if let Some((alpha, beta)) = pruning {
                        cfg = cfg.upper_bound(alpha, beta);
                    }
                    cfg.pin_identical = pin;
                    cfgs.push(cfg);
                }
            }
        }
        cfgs
    }

    #[test]
    fn shared_row_maxima_equal_the_per_slot_kernel_bitwise() {
        let mut rng = Rng(0x5EED_B0A7_F00D);
        let (mut shared_rows, mut const_rows, mut all_const_rows) = (0, 0, 0);
        let mut tables = 0;
        let mut specials = Specials::default();
        let dir = std::env::temp_dir().join(format!("fsim-rows-spill-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for _ in 0..6 {
            let (g1, g2) = seeded_pair(&mut rng);
            for cfg in shared_row_configs() {
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
                let csr = PairDepCsr::build(&g1, &g2, &ctx, &store, &op);
                if let Some(rows) = csr.rows.as_ref() {
                    let instances: usize = (0..store.len())
                        .map(|s| rows.out_keys(s).len() + rows.in_keys(s).len())
                        .sum();
                    shared_rows += instances - rows.len();
                }
                for s in 0..store.len() {
                    let c = csr.cols();
                    for (offsets, entries) in
                        [(c.out_offsets, c.out_entries), (c.in_offsets, c.in_entries)]
                    {
                        let list = &entries[offsets[s]..offsets[s + 1]];
                        let consts = list.iter().filter(|e| e.slot == DepEntry::CONST).count();
                        const_rows += consts;
                        all_const_rows += usize::from(consts > 0 && consts == list.len());
                    }
                }
                // Two retained spill mappings, split mid-store: one table
                // over both, with the full CSR's keys.
                let n = store.len();
                let mut mapped = Vec::new();
                for (k, (lo, hi)) in [(0, n / 2), (n / 2, n)].into_iter().enumerate() {
                    let path = dir.join(format!("shard-{k}.fsnp"));
                    ShardCsr::build(&g1, &g2, &ctx, &store, &op, lo, hi)
                        .write_spill(&path)
                        .unwrap();
                    mapped.push(std::sync::Arc::new(
                        MappedShardCsr::map(&path, lo, hi).unwrap(),
                    ));
                }
                let parts: Vec<CsrCols<'_>> = mapped.iter().map(|m| m.cols()).collect();
                let split = RowKeys::derive(&g1, &g2, &store.pairs, &parts);
                // Keys, slot columns and floors: the split table is the
                // full one.
                assert_eq!(split, csr.rows, "{cfg:?}");
                tables += usize::from(split.is_some());
                let labels = label_terms(&ctx, &store);
                let per_slot = SlotEval::new(&cfg, &op, &store, &labels, csr.cols(), None);
                let shards: Vec<ShardCsr> =
                    mapped.iter().cloned().map(ShardCsr::from_mapped).collect();
                let mut maxima_buf = Vec::new();
                let mut scratch = OpScratch::new();
                for _ in 0..3 {
                    // Arbitrary score buffers over few values, so one
                    // key's slots tie, with `−0.0` and NaN among them.
                    let prev: Vec<f64> = (0..n)
                        .map(|_| [-0.0, 0.0, f64::NAN, 0.25, 0.5, 1.0][rng.below(6)])
                        .collect();
                    // The column maxima against `row_max` over the entry
                    // columns: the full CSR's, and the spill split's.
                    let (full_cols, split_cols) = ([csr.cols()], parts.as_slice());
                    for (rows, cols) in [(&csr.rows, &full_cols[..]), (&split, split_cols)] {
                        if let Some(rows) = rows {
                            let seen = check_column_maxima(rows, cols, &prev, &mut specials);
                            assert_eq!(seen, rows.len(), "{cfg:?}: every key has a row");
                        }
                    }
                    let full = csr.kernel(&cfg, &op, &store, &labels);
                    let filled = step_maxima(csr.rows.as_ref(), &prev, n, n, &mut maxima_buf, None);
                    let lazy = Maxima::lazy();
                    for slot in 0..n {
                        let want = per_slot.eval(slot, &prev, Maxima::lazy(), &mut scratch);
                        for maxima in [filled, lazy] {
                            let got = full.eval(slot, &prev, maxima, &mut scratch);
                            assert_eq!(want.to_bits(), got.to_bits(), "{cfg:?} slot {slot}");
                        }
                    }
                    // The shards read maxima filled from the split table,
                    // or filled on first use under one token for both.
                    let mut split_buf = Vec::new();
                    let filled = step_maxima(split.as_ref(), &prev, n, n, &mut split_buf, None);
                    let lazy = Maxima::lazy();
                    for (shard, m) in shards.iter().zip(&mapped) {
                        let kernel = shard.kernel(&cfg, &op, &store, &labels, split.as_ref());
                        let c = m.cols();
                        for slot in c.base..c.base + c.dims.len() {
                            let want = per_slot.eval(slot, &prev, Maxima::lazy(), &mut scratch);
                            for maxima in [filled, lazy] {
                                let got = kernel.eval(slot, &prev, maxima, &mut scratch);
                                assert_eq!(want.to_bits(), got.to_bits(), "{cfg:?} slot {slot}");
                            }
                        }
                    }
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
        assert!(tables > 0, "no row-key table was derived");
        // The suite exercised what it claims to.
        assert!(shared_rows > 0, "no row key was read by two slots");
        assert!(const_rows > 0, "no constant entries");
        assert!(all_const_rows > 0, "no all-constant dependency list");
        assert!(specials.ties > 0, "no key's maximum was tied");
        assert!(specials.neg_zero > 0, "no key read −0.0");
        assert!(specials.nan > 0, "no key read NaN");
    }

    /// How often the column-maxima check met each buffer special.
    #[derive(Default)]
    struct Specials {
        /// Keys whose maximum two of their slots attain.
        ties: usize,
        /// Keys with a slot holding `−0.0`.
        neg_zero: usize,
        /// Keys with a slot holding NaN.
        nan: usize,
    }

    /// Asserts that every row instance's key maximum equals `row_max`
    /// over the row's entries in `parts` (covering the store in slot
    /// order) bitwise — at its first occurrence and at every other — and
    /// returns the number of keys met.
    fn check_column_maxima(
        rows: &RowKeys,
        parts: &[CsrCols<'_>],
        prev: &[f64],
        specials: &mut Specials,
    ) -> usize {
        use crate::operators::row_max;
        let mut first = vec![true; rows.len()];
        let mut seen = 0;
        let slots = parts
            .iter()
            .flat_map(|c| (0..c.dims.len()).map(move |l| (c, l)));
        for (c, local) in slots {
            let slot = c.base + local;
            let directions = [
                (rows.out_keys(slot), c.out_offsets, c.out_entries),
                (rows.in_keys(slot), c.in_offsets, c.in_entries),
            ];
            for (keys, offsets, entries) in directions {
                let list = &entries[offsets[local]..offsets[local + 1]];
                // Row instances: the maximal runs of one `i`, in key order.
                let mut start = 0;
                for &key in keys {
                    let key = key as usize;
                    let mut end = start;
                    while end < list.len() && list[end].i == list[start].i {
                        end += 1;
                    }
                    let row = &list[start..end];
                    start = end;
                    let want = row_max(row, prev);
                    assert_eq!(
                        rows.max_of(key, prev).to_bits(),
                        want.to_bits(),
                        "key {key}"
                    );
                    if !std::mem::take(&mut first[key]) {
                        continue;
                    }
                    seen += 1;
                    let vals: Vec<f64> = row
                        .iter()
                        .filter(|e| e.slot != DepEntry::CONST)
                        .map(|e| prev[e.slot as usize])
                        .collect();
                    let at_max = vals.iter().filter(|v| v.to_bits() == want.to_bits());
                    specials.ties += usize::from(want > 0.0 && at_max.count() > 1);
                    specials.neg_zero +=
                        usize::from(vals.iter().any(|v| v.to_bits() == (-0.0f64).to_bits()));
                    specials.nan += usize::from(vals.iter().any(|v| v.is_nan()));
                }
                assert_eq!(start, list.len(), "slot {slot}: rows tile the list");
            }
        }
        seen
    }

    #[test]
    fn row_keys_after_repair_and_restore_equal_a_cold_build() {
        let mut rng = Rng(0xC01D_B11D);
        let mut tables = 0;
        for _ in 0..6 {
            let (g1, g2) = seeded_pair(&mut rng);
            for cfg in shared_row_configs() {
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
                let csr = PairDepCsr::build(&g1, &g2, &ctx, &store, &op);
                let n = store.len();

                // Restore: the snapshot codec's round trip (its live
                // list included), then the first evaluation's derivation.
                let mut restored = super::super::persist::deps_codec_roundtrip(&csr, n);
                assert!(!restored.rows_derived, "restore derives nothing");
                restored.ensure_rows(&g1, &g2, &store, &op);
                assert_eq!(restored, csr, "{cfg:?}");
                tables += usize::from(csr.rows.is_some());

                // Repair after an edit that keeps the store's slots: one
                // new edge out of a random left node.
                let (a, b) = (rng.below(g1.node_count()), rng.below(g1.node_count()));
                let (a, b) = (u32::try_from(a).unwrap(), u32::try_from(b).unwrap());
                let g1b = g1.with_edits(&[(a, b)], &[], &[]);
                let dirty: Vec<bool> = store.pairs.iter().map(|&(u, _)| u == a || u == b).collect();
                let identity: Vec<u32> = (0..u32::try_from(n).unwrap()).collect();
                let repaired =
                    csr.repaired(&g1b, &g2, &ctx, &store, &op, &identity, &identity, &dirty);
                let fresh = PairDepCsr::build(&g1b, &g2, &ctx, &store, &op);
                assert_eq!(repaired, fresh, "{cfg:?}");
            }
        }
        assert!(tables > 0, "no row-key table was derived");
    }

    #[test]
    fn bytes_count_the_row_key_table() {
        let (g1, g2, cfg) = setup();
        let aligned = super::super::session::AlignedLabels::new(&g1, &g2);
        let eval = super::super::session::build_label_eval(&cfg, &aligned.interner);
        let ctx = OpCtx {
            labels1: &aligned.labels1,
            labels2: &aligned.labels2,
            label_eval: &eval,
            theta: cfg.theta,
        };
        let simple = VariantOp::new(Variant::Simple);
        let bijective = VariantOp::new(Variant::Bijective);
        let store = crate::candidates::enumerate_candidates(&g1, &g2, &ctx, &cfg, &simple);
        let with_rows = PairDepCsr::build(&g1, &g2, &ctx, &store, &simple);
        let without = PairDepCsr::build(&g1, &g2, &ctx, &store, &bijective);
        // θ = 0 without pruning: both operators read the same entries,
        // and only `s` sums row maxima.
        assert_eq!(
            with_rows.raw_parts().out_entries,
            without.raw_parts().out_entries
        );
        assert!(without.rows.is_none());
        let table = with_rows.rows.as_ref().expect("Simple derives a table");
        assert!(table.bytes() > 0);
        assert_eq!(with_rows.bytes(), without.bytes() + table.bytes());
        // A shard CSR counts its columns only; a sharded session with
        // retained spill mappings adds the one table they share to its
        // peak.
        let (lo, hi) = (0, store.len());
        let shard = ShardCsr::build(&g1, &g2, &ctx, &store, &simple, lo, hi);
        let bare = ShardCsr::build(&g1, &g2, &ctx, &store, &bijective, lo, hi);
        assert_eq!(shard.bytes(), bare.bytes());
        let dir = std::env::temp_dir().join(format!("fsim-rows-bytes-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spilled = cfg
            .clone()
            .shards(crate::config::ShardSpec::Fixed(1))
            .spill_dir(&dir);
        let mut peaks = Vec::new();
        for variant in [Variant::Simple, Variant::Bijective] {
            let mut cfg = spilled.clone();
            cfg.variant = variant;
            let mut e = crate::engine::FsimEngine::new(&g1, &g2, &cfg).unwrap();
            e.run(); // writes the spill
            e.run(); // maps it, with the table for `s`
            peaks.push(e.peak_csr_bytes());
        }
        assert_eq!(peaks[0], peaks[1] + table.bytes());
        std::fs::remove_dir_all(&dir).ok();
    }
}
