//! The scheduler's one slot bitset.

/// A set of slots: bit `s % 64` of word `s / 64` — the frontier's
/// worklist and the sharded driver's changed set.
pub(crate) struct SlotBits(Vec<u64>);

impl SlotBits {
    /// The empty set over `n` slots.
    pub(crate) fn new(n: usize) -> Self {
        Self(vec![0; n.div_ceil(64)])
    }

    /// Removes every member.
    pub(crate) fn clear(&mut self) {
        self.0.fill(0);
    }

    /// Adds `s`; adding a member again is a no-op.
    #[inline]
    pub(crate) fn insert(&mut self, s: u32) {
        self.0[s as usize / 64] |= 1 << (s % 64);
    }

    /// Whether `s` is a member.
    #[inline]
    pub(crate) fn contains(&self, s: u32) -> bool {
        self.0[s as usize / 64] >> (s % 64) & 1 != 0
    }

    /// Appends the members to `out` in ascending order.
    pub(crate) fn extend_into(&self, out: &mut Vec<u32>) {
        for (base, &word) in (0u32..).step_by(64).zip(&self.0) {
            let mut bits = word;
            while bits != 0 {
                out.push(base + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }
}
