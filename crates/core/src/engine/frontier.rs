//! The delta scheduler's frontier: which slots iteration `k` evaluates,
//! derived from the slots whose score changed (bitwise) in iteration
//! `k − 1`.
//!
//! Algorithm 1 updates every pair Jacobi-style from the previous iterate,
//! and its fixpoint is unique (Theorem 1), so a slot whose inputs did not
//! change reproduces its score bit for bit, and the order in which slots
//! are evaluated cannot change a bit either. The frontier spends that
//! freedom on work and locality and picks, after every iteration, one of
//! two steps — the push/sweep switch of direction-optimizing BFS (Beamer
//! et al., SC'12) applied to Equation 3:
//!
//! * **sparse push** while the changed slots have fewer dependents in
//!   total than there are slots (`Σ |rdeps(c)| < |H|`): walk the reverse
//!   CSR from each changed slot, deduplicate through epoch marks, and
//!   visit the worklist in slot order — extracted by a slot-order scan of
//!   the marks when it holds at least 1/16 of the slots, sorted
//!   otherwise;
//! * **dense live sweep** otherwise: every *live* slot (one with at least
//!   one maintained dependency,
//!   [`PairDepCsr::live`](super::deps::PairDepCsr::live)) is evaluated
//!   unconditionally, in slot order. A live slot outside the dependents of
//!   the changed set re-evaluates to the bits it already holds; a non-live
//!   slot reads only constants and its label term, so it never changes
//!   after iteration 1 and is never a dependent. The changed slots are
//!   copied forward first, so every slot the sweep does not write already
//!   holds its current value in the write buffer.
//!
//! Both steps produce the same scores, changed sets, iteration counts and
//! bits. They differ in `pairs_evaluated`: a push evaluates the dependents
//! of the changed set, a live sweep every live slot. The rule reads only
//! `|H|`, the changed set and the reverse CSR's offsets. Replay's steps
//! are not "dependents of the changed set" (they add an always-dirty
//! seed), so they take the slot-ordered sparse path only.

/// The slot ids `0..n`. Slots are `u32` throughout the dependency CSR
/// (entries and reverse CSR), so a store of more slots cannot be
/// scheduled.
pub(crate) fn slot_ids(n: usize) -> std::ops::Range<u32> {
    0..u32::try_from(n).expect("slot ids are u32 in the dependency CSR")
}

/// What one iteration evaluates.
#[derive(Clone, Copy)]
pub(crate) enum Step<'a> {
    /// Exactly these slots, in ascending slot order.
    Sparse(&'a [u32]),
    /// Every live slot, in slot order; every other slot keeps its value.
    Dense,
}

/// The scheduled slot set of the next iteration plus the changed set it
/// was derived from (see the module docs).
pub(crate) struct Frontier {
    /// Sparse membership: `mark[s] == epoch` ⇔ `s` is on `worklist`.
    mark: Vec<u64>,
    epoch: u64,
    /// The sparse step's slots, ascending.
    worklist: Vec<u32>,
    /// `C_{k−1}`: the slots whose score changed in the previous iteration.
    changed: Vec<u32>,
    /// Whether the step is a live sweep.
    dense: bool,
}

impl Frontier {
    /// A frontier over `n` slots scheduling nothing.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            mark: vec![0; n],
            epoch: 0,
            worklist: Vec::new(),
            changed: Vec::new(),
            dense: false,
        }
    }

    /// The cold first iteration: every slot.
    pub(crate) fn all(n: usize) -> Self {
        let mut f = Self::new(n);
        f.worklist = slot_ids(n).collect();
        f
    }

    /// The current step.
    pub(crate) fn step(&self) -> Step<'_> {
        if self.dense {
            Step::Dense
        } else {
            Step::Sparse(&self.worklist)
        }
    }

    /// Slots the step may leave stale in the write buffer, which holds
    /// the iterate before last: `C_{k−1}` — the only slots whose value
    /// there differs from the previous iterate — minus a sparse step's
    /// worklist. Each must be copied forward before the step so the
    /// buffer ends the iteration complete. A dense step copies all of
    /// `C_{k−1}`: it re-evaluates the live ones, but a non-live slot that
    /// changed in iteration 1 is never written again.
    pub(crate) fn stale(&self) -> impl Iterator<Item = usize> + '_ {
        self.changed
            .iter()
            .map(|&s| s as usize)
            .filter(move |&s| self.dense || self.mark[s] != self.epoch)
    }

    /// Schedules the dependents of `changed` (this iteration's changed
    /// slots) for the next iteration, choosing the direction by the rule
    /// in the module docs. Takes `changed` over and hands back an empty
    /// vector for the next iteration to collect into.
    pub(crate) fn advance(
        &mut self,
        changed: &mut Vec<u32>,
        rdep_offsets: &[usize],
        rdeps: &[u32],
    ) {
        let fanout: usize = changed
            .iter()
            .map(|&c| rdep_offsets[c as usize + 1] - rdep_offsets[c as usize])
            .sum();
        if fanout < self.mark.len() {
            self.push_dependents(changed, &[], rdep_offsets, rdeps);
            return;
        }
        self.take_changed(changed);
        self.dense = true;
    }

    /// Sparse push: schedules `seed` plus the dependents of `changed`
    /// (taken over as in [`advance`](Self::advance)).
    pub(crate) fn push_dependents(
        &mut self,
        changed: &mut Vec<u32>,
        seed: &[u32],
        rdep_offsets: &[usize],
        rdeps: &[u32],
    ) {
        self.take_changed(changed);
        self.begin_sparse();
        for &s in seed {
            self.mark(s);
        }
        let changed = std::mem::take(&mut self.changed);
        for &c in &changed {
            for &dep in &rdeps[rdep_offsets[c as usize]..rdep_offsets[c as usize + 1]] {
                self.mark(dep);
            }
        }
        self.changed = changed;
        self.finish_sparse();
    }

    fn take_changed(&mut self, changed: &mut Vec<u32>) {
        std::mem::swap(&mut self.changed, changed);
        changed.clear();
    }

    fn begin_sparse(&mut self) {
        self.dense = false;
        self.epoch += 1;
        self.worklist.clear();
    }

    /// Schedules `s` once per step — the one place worklist membership is
    /// deduplicated.
    #[inline]
    fn mark(&mut self, s: u32) {
        if self.mark[s as usize] != self.epoch {
            self.mark[s as usize] = self.epoch;
            self.worklist.push(s);
        }
    }

    /// Puts the worklist in slot order: a scan of the marks once it holds
    /// at least 1/16 of the slots, a sort below that.
    fn finish_sparse(&mut self) {
        let n = self.mark.len();
        if self.worklist.len() * 16 >= n {
            let epoch = self.epoch;
            self.worklist.clear();
            self.worklist
                .extend(slot_ids(n).filter(|&s| self.mark[s as usize] == epoch));
        } else {
            self.worklist.sort_unstable();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dependents of slot `s` in a ring of `n`: `s − 1`, `s`, `s + 1`.
    fn ring(n: usize) -> (Vec<usize>, Vec<u32>) {
        let offsets = (0..=n).map(|s| 3 * s).collect();
        let rdeps = (0..n)
            .flat_map(|s| [(s + n - 1) % n, s, (s + 1) % n])
            .map(|d| d as u32)
            .collect();
        (offsets, rdeps)
    }

    #[test]
    fn sparse_worklists_come_out_in_slot_order() {
        let n = 1000;
        let (offsets, rdeps) = ring(n);
        let mut f = Frontier::new(n);
        // Few changed slots (sorted path) and many (mark-scan path), both
        // pushed in descending order.
        for changed in [
            vec![700u32, 20, 400],
            (0..200u32).rev().map(|s| 5 * s).collect(),
        ] {
            let mut want: Vec<u32> = changed
                .iter()
                .flat_map(|&c| {
                    rdeps[offsets[c as usize]..offsets[c as usize + 1]]
                        .iter()
                        .copied()
                })
                .collect();
            want.sort_unstable();
            want.dedup();
            f.push_dependents(&mut changed.clone(), &[], &offsets, &rdeps);
            assert!(matches!(f.step(), Step::Sparse(w) if w == &want[..]));
        }
    }

    #[test]
    fn direction_follows_the_dependent_count() {
        let n = 300;
        let (offsets, rdeps) = ring(n);
        let mut f = Frontier::new(n);
        // 99 changed slots have 297 dependents < 300: sparse push.
        let mut changed: Vec<u32> = (0..99).map(|s| 3 * s).collect();
        f.advance(&mut changed, &offsets, &rdeps);
        assert!(changed.is_empty(), "the changed set is taken over");
        assert!(matches!(f.step(), Step::Sparse(w) if w.len() == 297));
        // 100 changed slots have 300: a dense live sweep.
        let mut changed: Vec<u32> = (0..100).map(|s| 3 * s).collect();
        f.advance(&mut changed, &offsets, &rdeps);
        assert!(matches!(f.step(), Step::Dense));
        let stale: Vec<usize> = f.stale().collect();
        let changed: Vec<usize> = (0..100).map(|s| 3 * s).collect();
        assert_eq!(stale, changed, "a dense step copies every changed slot");
    }

    #[test]
    fn stale_slots_are_changed_slots_off_the_worklist() {
        let n = 64;
        // No slot has a dependent: the step is exactly the seed.
        let offsets = vec![0; n + 1];
        let mut f = Frontier::new(n);
        f.push_dependents(&mut vec![1, 5, 9], &[5, 6, 5], &offsets, &[]);
        assert!(matches!(f.step(), Step::Sparse(&[5, 6])));
        assert_eq!(f.stale().collect::<Vec<_>>(), vec![1, 9]);
    }
}
