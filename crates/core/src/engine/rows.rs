//! Shared row maxima: the row-key table of a slot substrate and the row
//! maxima one iteration step reads.
//!
//! For an operator whose map sum is a sum of per-row maxima
//! ([`Operator::sums_row_maxima`], the `fs` mapping of Eq. 7), the term of
//! slot `(u, v)` in direction `d` is `Σ_{x ∈ N^d(u)} max_y FSim(x, y)`
//! over eligible `y ∈ N^d(v)`. The maximum depends only on the **row
//! key** `(x, v, d)`, yet the per-slot kernel recomputes it for every `u`
//! that has `x` as a neighbor. The table below names each row instance's
//! key, so an iteration step computes every maximum once and each slot
//! sums cached maxima.
//!
//! **Invariant: rows with the same `(x, v, d)` have identical entry
//! lists** apart from `i` (the position of `x` in `N^d(u)`). Every other
//! entry field — `j`, the slot of `(x, y)`, the fallback constant, the
//! eligibility filter, the partition of slot-backed entries before
//! constants and the constant-run fold — is a function of `x`, `v` and
//! `d` alone (`deps::push_direction`). So the table keeps, per key, what
//! its first occurrence's row reads: the maintained slot ids, in entry
//! order, in one contiguous `u32` column, and the **floor** — the
//! maximum of the row's fallback constants. A key's maximum is read from
//! the table alone, never from the entry columns.
//!
//! **Bits.** A row maximum (`operators::row_max`) keeps a value only when it is
//! strictly greater than the running maximum, starting from `+0.0`: NaN
//! never enters, `−0.0` never replaces `+0.0`, and equal positive values
//! have equal bits, so the result does not depend on visit order. Folding
//! the constants into an `f32` floor first (the `f32` → `f64` widening is
//! exact and monotone) and the slots after it is therefore bitwise
//! `row_max`, and each slot still adds its rows' maxima in `i` order, so
//! the shared evaluation is bitwise identical to
//! [`Operator::map_sum_slots`] on every score buffer (`deps.rs` tests
//! this on random graph pairs).
//!
//! **Derivation** is linear with no hashing: row instances are bucketed by
//! `v` with a counting sort, and within a bucket an epoch-stamped array
//! over `x` finds each row's first occurrence. Keys are numbered in
//! first-occurrence order, and the pass that numbers them copies each new
//! key's row into the slot column, so a fill over the keys streams
//! forward through that column.
//!
//! A table covers the whole store. It may be derived from entry columns
//! split into **parts** — the full CSR is one part; the retained spill
//! mappings of a sharded session are one part per shard — so keys are
//! shared across shards exactly as they are in the full CSR, and the two
//! derivations produce equal tables.

use super::deps::CsrCols;
use crate::operators::{DepEntry, OpScratch, Operator};
use fsim_graph::{Graph, NodeId};
use std::sync::atomic::{AtomicU64, Ordering};

/// The row-key table of a store's slot substrate: the full dependency
/// CSR, or the retained spill mappings of all its shards. Derived from
/// the entry columns and the adjacency of `G1`; never persisted.
#[derive(Debug, PartialEq)]
pub(crate) struct RowKeys {
    /// Slot → range of `out_keys` (length `n + 1`): the slot's out rows
    /// in ascending `i` order.
    out_rows: Vec<u32>,
    /// Slot → range of `in_keys` (length `n + 1`).
    in_rows: Vec<u32>,
    /// Out row instance → its key; out keys come first.
    out_keys: Vec<u32>,
    /// In row instance → its key.
    in_keys: Vec<u32>,
    /// The maintained slots and floor of every key's row.
    columns: KeyColumns,
}

/// Per key, what its first-occurrence row reads: the maintained slot ids
/// (`slots[offsets[key]..offsets[key + 1]]`, in entry order) and the
/// floor, the maximum of the row's fallback constants under the strict
/// `>` from `+0.0` (`+0.0` when it has none).
#[derive(Debug, Default, PartialEq)]
struct KeyColumns {
    offsets: Vec<u32>,
    slots: Vec<u32>,
    floors: Vec<f32>,
}

impl KeyColumns {
    /// Appends the key whose row is `entries`; `None` when the slot column
    /// outgrows `u32` offsets.
    fn push(&mut self, entries: &[DepEntry]) -> Option<()> {
        let mut floor = 0.0f32;
        for e in entries {
            if e.slot == DepEntry::CONST {
                if e.cval > floor {
                    floor = e.cval;
                }
            } else {
                self.slots.push(e.slot);
            }
        }
        self.floors.push(floor);
        self.offsets.push(u32::try_from(self.slots.len()).ok()?);
        Some(())
    }
}

/// The epoch-stamped first-occurrence array over `x ∈ V1` that
/// derivation shares between both directions.
struct FirstSeen {
    stamp: Vec<u32>,
    first: Vec<u32>,
    epoch: u32,
}

impl RowKeys {
    /// Derives the table of the store whose slots hold `pairs`, from
    /// `parts`: substrates covering consecutive slot ranges from slot 0
    /// to the end of the store. Returns `None` — the kernel then
    /// evaluates slots alone — when no two row instances share a key (the
    /// table could only add work), when an entry column outgrows `u32`
    /// offsets, or when an entry names a position outside its neighbor
    /// list.
    pub(crate) fn derive(
        g1: &Graph,
        g2: &Graph,
        pairs: &[(NodeId, NodeId)],
        parts: &[CsrCols<'_>],
    ) -> Option<Self> {
        debug_assert_eq!(
            parts.iter().map(|p| p.dims.len()).sum::<usize>(),
            pairs.len()
        );
        let mut seen = FirstSeen {
            stamp: vec![0; g1.node_count()],
            first: vec![0; g1.node_count()],
            epoch: 0,
        };
        let n2 = g2.node_count();
        let mut columns = KeyColumns {
            offsets: vec![0],
            ..KeyColumns::default()
        };
        let out_cols: Vec<_> = parts
            .iter()
            .map(|p| (p.out_offsets, p.out_entries))
            .collect();
        let (out_rows, out_keys) = derive_direction(
            pairs,
            &out_cols,
            |u| g1.out_neighbors(u),
            n2,
            &mut seen,
            &mut columns,
        )?;
        let in_cols: Vec<_> = parts.iter().map(|p| (p.in_offsets, p.in_entries)).collect();
        let (in_rows, in_keys) = derive_direction(
            pairs,
            &in_cols,
            |u| g1.in_neighbors(u),
            n2,
            &mut seen,
            &mut columns,
        )?;
        if columns.floors.len() == out_keys.len() + in_keys.len() {
            return None;
        }
        Some(Self {
            out_rows,
            in_rows,
            out_keys,
            in_keys,
            columns,
        })
    }

    /// The number of distinct row keys.
    pub(crate) fn len(&self) -> usize {
        self.columns.floors.len()
    }

    /// Resident heap footprint in bytes.
    pub(crate) fn bytes(&self) -> usize {
        let c = &self.columns;
        std::mem::size_of_val(self.out_rows.as_slice())
            + std::mem::size_of_val(self.in_rows.as_slice())
            + std::mem::size_of_val(self.out_keys.as_slice())
            + std::mem::size_of_val(self.in_keys.as_slice())
            + std::mem::size_of_val(c.offsets.as_slice())
            + std::mem::size_of_val(c.slots.as_slice())
            + std::mem::size_of_val(c.floors.as_slice())
    }

    /// The keys of a slot's out rows, in `i` order.
    #[inline]
    pub(crate) fn out_keys(&self, slot: usize) -> &[u32] {
        &self.out_keys[self.out_rows[slot] as usize..self.out_rows[slot + 1] as usize]
    }

    /// The keys of a slot's in rows, in `i` order.
    #[inline]
    pub(crate) fn in_keys(&self, slot: usize) -> &[u32] {
        &self.in_keys[self.in_rows[slot] as usize..self.in_rows[slot + 1] as usize]
    }

    /// Key `key`'s row maximum under `prev`: its slots folded into its
    /// floor with the strict `>` (bitwise the row's `row_max`, see the
    /// module docs).
    #[inline]
    pub(crate) fn max_of(&self, key: usize, prev: &[f64]) -> f64 {
        let c = &self.columns;
        let slots = &c.slots[c.offsets[key] as usize..c.offsets[key + 1] as usize];
        let mut best = f64::from(c.floors[key]);
        for &s in slots {
            let v = prev[s as usize];
            if v > best {
                best = v;
            }
        }
        best
    }
}

/// One direction of [`RowKeys::derive`] over the parts' `(offsets,
/// entries)` columns: the slot → row offsets and the row → key column,
/// appending the direction's new keys to `columns`.
fn derive_direction<'g>(
    pairs: &[(NodeId, NodeId)],
    parts: &[(&[usize], &[DepEntry])],
    neighbors: impl Fn(NodeId) -> &'g [NodeId],
    n2: usize,
    seen: &mut FirstSeen,
    columns: &mut KeyColumns,
) -> Option<(Vec<u32>, Vec<u32>)> {
    // Row instances in slot order: the maximal runs of one `i`. Rows tile
    // each part's entry column, so a row ends where the next row of its
    // part starts, or at the column's end.
    let mut rows = Vec::with_capacity(pairs.len() + 1);
    let mut starts: Vec<u32> = Vec::new();
    let mut xs: Vec<NodeId> = Vec::new();
    // Part → its first row, and the length of its entry column.
    let mut part_rows = vec![0usize];
    let mut part_ends = Vec::with_capacity(parts.len());
    rows.push(0u32);
    let mut slots = pairs.iter();
    for &(offsets, entries) in parts {
        part_ends.push(u32::try_from(entries.len()).ok()?);
        // Windows first: `zip` stops on them without taking a slot.
        for (w, &(u, _)) in offsets.windows(2).zip(slots.by_ref()) {
            let nbrs = neighbors(u);
            let (mut e, hi) = (w[0], w[1]);
            while e < hi {
                let i = entries[e].i;
                starts.push(u32::try_from(e).ok()?);
                xs.push(*nbrs.get(i as usize)?);
                while e < hi && entries[e].i == i {
                    e += 1;
                }
            }
            rows.push(u32::try_from(starts.len()).ok()?);
        }
        part_rows.push(starts.len());
    }
    let n_rows = starts.len();

    // Bucket the rows by `v` (a stable counting sort: rows stay in slot
    // order within a bucket).
    let mut bucket = vec![0u32; n2 + 1];
    for (slot, &(_, v)) in pairs.iter().enumerate() {
        bucket[v as usize + 1] += rows[slot + 1] - rows[slot];
    }
    for k in 1..=n2 {
        bucket[k] += bucket[k - 1];
    }
    let mut cursor = bucket.clone();
    let mut by_v = vec![0u32; n_rows];
    for (slot, &(_, v)) in pairs.iter().enumerate() {
        for r in rows[slot]..rows[slot + 1] {
            by_v[cursor[v as usize] as usize] = r;
            cursor[v as usize] += 1;
        }
    }

    // Each row's leader: the first row of its bucket with the same `x`.
    let mut key = vec![0u32; n_rows];
    for w in bucket.windows(2) {
        if w[0] == w[1] {
            continue;
        }
        seen.epoch = seen.epoch.checked_add(1)?;
        for &r in &by_v[w[0] as usize..w[1] as usize] {
            let x = xs[r as usize] as usize;
            if seen.stamp[x] != seen.epoch {
                seen.stamp[x] = seen.epoch;
                seen.first[x] = r;
            }
            key[r as usize] = seen.first[x];
        }
    }

    // Number the keys in first-occurrence order. A leader precedes every
    // row that follows it, so its slot in `key` already holds its id.
    let mut part = 0;
    for r in 0..n_rows {
        while r >= part_rows[part + 1] {
            part += 1;
        }
        let leader = key[r] as usize;
        key[r] = if leader == r {
            let id = u32::try_from(columns.floors.len()).ok()?;
            let end = if r + 1 < part_rows[part + 1] {
                starts[r + 1]
            } else {
                part_ends[part]
            };
            columns.push(&parts[part].1[starts[r] as usize..end as usize])?;
            id
        } else {
            key[leader]
        };
    }
    Some((rows, key))
}

/// The row maxima one iteration step reads.
#[derive(Clone, Copy)]
pub(crate) enum Maxima<'a> {
    /// Every key's maximum under the step's previous iterate, filled in
    /// key order before the step (dense steps and sweeps).
    Filled(&'a [f64]),
    /// Filled on first use, per worker, in the evaluating
    /// [`OpScratch`]'s cache, behind this step's token (sparse steps).
    Lazy(u64),
}

/// Source of step tokens: each lazy step gets a process-unique nonzero
/// token, so a worker's cache can never serve a maximum from another
/// step, substrate or session.
static STEP_TOKENS: AtomicU64 = AtomicU64::new(1);

impl Maxima<'_> {
    /// Maxima filled lazily under a fresh step token.
    pub(crate) fn lazy() -> Self {
        Maxima::Lazy(STEP_TOKENS.fetch_add(1, Ordering::Relaxed))
    }
}

/// The neighbor term of one direction from its rows' maxima: the default
/// [`Operator::term_slots`] composition with the map sum replaced by the
/// sum of `max_of(key)` over `keys` in order.
#[inline]
pub(crate) fn term_rows<O: Operator>(
    op: &O,
    keys: &[u32],
    len1: usize,
    len2: usize,
    mut max_of: impl FnMut(usize) -> f64,
) -> f64 {
    if op.vacuous(len1, len2) {
        return 1.0;
    }
    let omega = op.omega(len1, len2);
    if omega <= 0.0 {
        return 0.0;
    }
    let mut total = 0.0;
    for &k in keys {
        total += max_of(k as usize);
    }
    total / omega
}

/// Both directions' terms of `slot`, whose neighborhood sizes are `dims`,
/// reading `maxima`.
#[inline]
pub(crate) fn slot_terms<O: Operator>(
    op: &O,
    rows: &RowKeys,
    slot: usize,
    dims: [u32; 4],
    prev: &[f64],
    maxima: Maxima<'_>,
    scratch: &mut OpScratch,
) -> (f64, f64) {
    let [o1, o2, i1, i2] = dims.map(|d| d as usize);
    let (out_keys, in_keys) = (rows.out_keys(slot), rows.in_keys(slot));
    match maxima {
        Maxima::Filled(m) => (
            term_rows(op, out_keys, o1, o2, |k| m[k]),
            term_rows(op, in_keys, i1, i2, |k| m[k]),
        ),
        Maxima::Lazy(token) => {
            if scratch.row_token.len() < rows.len() {
                scratch.row_token.resize(rows.len(), 0);
                scratch.row_max.resize(rows.len(), 0.0);
            }
            let (vals, stamps) = (&mut scratch.row_max, &mut scratch.row_token);
            let mut max_of = |k: usize| {
                if stamps[k] != token {
                    stamps[k] = token;
                    vals[k] = rows.max_of(k, prev);
                }
                vals[k]
            };
            (
                term_rows(op, out_keys, o1, o2, &mut max_of),
                term_rows(op, in_keys, i1, i2, &mut max_of),
            )
        }
    }
}
