//! Vector clocks for happens-before tracking.
//!
//! One clock entry per model thread. Clocks are tiny (the explorer caps
//! executions at [`crate::MAX_MODEL_THREADS`] threads) so a plain `Vec`
//! is plenty; every epoch is a `u64` so overflow is a non-concern.

/// A vector clock: `vc[t]` is the last epoch of thread `t` that the
/// owner has synchronized with.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct VClock(Vec<u64>);

impl VClock {
    /// The empty clock (synchronized with nothing).
    pub(crate) fn new() -> Self {
        VClock(Vec::new())
    }

    /// Epoch of thread `tid` in this clock (0 when never observed).
    pub(crate) fn get(&self, tid: usize) -> u64 {
        self.0.get(tid).copied().unwrap_or(0)
    }

    /// Set thread `tid`'s entry to `epoch`, growing the clock as needed.
    pub(crate) fn set(&mut self, tid: usize, epoch: u64) {
        if self.0.len() <= tid {
            self.0.resize(tid + 1, 0);
        }
        self.0[tid] = epoch;
    }

    /// Advance thread `tid`'s own entry by one and return the new epoch.
    pub(crate) fn tick(&mut self, tid: usize) -> u64 {
        let next = self.get(tid) + 1;
        self.set(tid, next);
        next
    }

    /// Pointwise maximum: after `self.join(other)`, everything
    /// happens-before `other` also happens-before `self`.
    pub(crate) fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (slot, &o) in self.0.iter_mut().zip(other.0.iter()) {
            if *slot < o {
                *slot = o;
            }
        }
    }

    /// True when the single epoch `(tid, epoch)` is covered by this
    /// clock, i.e. that access happens-before the owner's current point.
    pub(crate) fn covers(&self, tid: usize, epoch: u64) -> bool {
        self.get(tid) >= epoch
    }

    /// Drop all entries (used when a relaxed store breaks a release chain).
    pub(crate) fn clear(&mut self) {
        self.0.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::VClock;

    #[test]
    fn join_is_pointwise_max() {
        let mut a = VClock::new();
        a.set(0, 3);
        a.set(2, 1);
        let mut b = VClock::new();
        b.set(0, 1);
        b.set(1, 7);
        a.join(&b);
        assert_eq!(a.get(0), 3);
        assert_eq!(a.get(1), 7);
        assert_eq!(a.get(2), 1);
        assert!(a.covers(1, 7));
        assert!(!a.covers(1, 8));
    }

    #[test]
    fn tick_advances_own_entry() {
        let mut a = VClock::new();
        assert_eq!(a.tick(1), 1);
        assert_eq!(a.tick(1), 2);
        assert_eq!(a.get(0), 0);
    }
}
