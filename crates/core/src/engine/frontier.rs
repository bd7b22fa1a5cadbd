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
//!   CSR from each changed slot, setting one bit per dependent in a
//!   [`SlotBits`] set of `⌈|H|/64⌉` words, and read the worklist off the
//!   set in slot order, one word at a time;
//! * **dense live sweep** otherwise: every *live* slot (one with at least
//!   one maintained dependency,
//!   [`PairDepCsr::live`](super::deps::PairDepCsr::live)) is evaluated
//!   unconditionally, in slot order. A live slot outside the dependents of
//!   the changed set re-evaluates to the bits it already holds; a non-live
//!   slot reads only constants and its label term, so it never changes
//!   after iteration 1 and is never a dependent. Every changed set after
//!   `C_1` therefore lies inside the live slots, which the sweep rewrites,
//!   so only a live sweep at iteration 2 has stale slots to copy forward
//!   (the delta loop keys that on the iteration index).
//!
//! Both steps produce the same scores, changed sets, iteration counts and
//! bits. They differ in `pairs_evaluated`: a push evaluates the dependents
//! of the changed set, a live sweep every live slot. The rule reads only
//! `|H|`, the changed set's dependent count and the reverse CSR's offsets.
//! After a live sweep the delta loop hands over that count alone: another
//! live sweep ([`Frontier::sweep_live`]) needs no changed set, and a push
//! is given the changed set the loop recovers from its buffers. Replay's
//! steps are not "dependents of the changed set" (they add an always-dirty
//! seed), so they take the slot-ordered sparse path only.

use super::slot_bits::SlotBits;

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
    n: usize,
    /// The sparse step's slots, as a set and in ascending order.
    members: SlotBits,
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
            n,
            members: SlotBits::new(n),
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
    /// buffer ends the iteration complete. For a dense step this is all
    /// of `C_{k−1}`, but only at `k = 2` does it hold a slot the step
    /// does not write: a non-live slot that changed in iteration 1. From
    /// `k = 3` on the changed slots are live, the delta loop copies
    /// nothing for a dense step, and after [`sweep_live`](Self::sweep_live)
    /// the changed set is empty.
    pub(crate) fn stale(&self) -> impl Iterator<Item = usize> + '_ {
        self.changed
            .iter()
            .filter(move |&&s| self.dense || !self.members.contains(s))
            .map(|&s| s as usize)
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
        if fanout < self.n {
            self.push_dependents(changed, &[], rdep_offsets, rdeps);
            return;
        }
        self.take_changed(changed);
        self.dense = true;
    }

    /// Schedules another live sweep after a dense step, with no changed
    /// set: the step copies nothing forward (see [`stale`](Self::stale)).
    pub(crate) fn sweep_live(&mut self) {
        self.changed.clear();
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
        self.dense = false;
        self.members.clear();
        for &s in seed {
            self.members.insert(s);
        }
        for &c in &self.changed {
            for &dep in &rdeps[rdep_offsets[c as usize]..rdep_offsets[c as usize + 1]] {
                self.members.insert(dep);
            }
        }
        self.worklist.clear();
        self.members.extend_into(&mut self.worklist);
    }

    fn take_changed(&mut self, changed: &mut Vec<u32>) {
        std::mem::swap(&mut self.changed, changed);
        changed.clear();
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

    fn sparse(f: &Frontier) -> Vec<u32> {
        match f.step() {
            Step::Sparse(w) => w.to_vec(),
            Step::Dense => panic!("a sparse step"),
        }
    }

    #[test]
    fn worklists_come_out_in_slot_order_across_word_boundaries() {
        // 200 slots: three full words and an 8-bit tail.
        let n = 200;
        let mut f = Frontier::new(n);
        // No slot has a dependent, so the step is exactly the seed.
        let none = vec![0; n + 1];
        let spanning: Vec<u32> = (0..200).rev().step_by(7).collect();
        for (seed, want) in [
            (vec![199, 64, 0, 63, 64], vec![0, 63, 64, 199]),
            (vec![127, 70, 65], vec![65, 70, 127]),
            (spanning.clone(), spanning.iter().rev().copied().collect()),
        ] {
            f.push_dependents(&mut vec![], &seed, &none, &[]);
            assert_eq!(sparse(&f), want);
        }
        // Pushed in descending order through the ring, wrapping at n − 1.
        let (offsets, rdeps) = ring(n);
        f.push_dependents(&mut vec![199, 63], &[], &offsets, &rdeps);
        assert_eq!(sparse(&f), [0, 62, 63, 64, 198, 199]);
    }

    #[test]
    fn direction_follows_the_dependent_count() {
        let (offsets, rdeps) = ring(300);
        let mut f = Frontier::new(300);
        // 99 changed slots have 297 dependents < 300: a sparse push of
        // them all. 100 have 300: a dense live sweep.
        for (count, want) in [(99, Some(297)), (100, None)] {
            let mut changed: Vec<u32> = (0..count).map(|s| 3 * s).collect();
            f.advance(&mut changed, &offsets, &rdeps);
            assert!(changed.is_empty(), "the changed set is taken over");
            let got = match f.step() {
                Step::Sparse(w) => Some(w.len()),
                Step::Dense => None,
            };
            assert_eq!(got, want);
        }
    }

    #[test]
    fn stale_slots_are_changed_slots_off_this_steps_worklist() {
        let n = 130;
        let none = vec![0; n + 1];
        let mut f = Frontier::new(n);
        f.push_dependents(&mut vec![1, 5, 9], &[5, 6, 5], &none, &[]);
        assert_eq!(sparse(&f), [5, 6]);
        assert_eq!(f.stale().collect::<Vec<_>>(), [1, 9]);
        // Sparse → sparse: the last step's members no longer count.
        f.push_dependents(&mut vec![0, 5, 64, 129], &[0, 129], &none, &[]);
        assert_eq!(f.stale().collect::<Vec<_>>(), [5, 64]);
        // Sparse → dense: every changed slot is stale.
        let (offsets, rdeps) = ring(n);
        let mut changed: Vec<u32> = (0..44).map(|s| 3 * s).collect();
        f.advance(&mut changed, &offsets, &rdeps);
        assert!(f.stale().eq((0..44).map(|s| 3 * s)));
        // Dense → sparse: membership is this step's again.
        f.push_dependents(&mut vec![63, 127], &[127], &none, &[]);
        assert_eq!(f.stale().collect::<Vec<_>>(), [63]);
    }
}
