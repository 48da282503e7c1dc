//! Per-node timers for live node threads.
//!
//! A node loop looks at its timers only when its inbound fabric is
//! empty, so a node busy with packets pays nothing for them. The
//! timers a node holds at once are few (the delay-0 EXEC self-kick,
//! a round barrier, a policy's poll or timeout), so they sit in one
//! binary heap keyed by `(deadline, seq)`: ties fire in arming order,
//! and a delay-0 timer is just an entry whose deadline is its arming
//! time. [`TimerWheel::next_deadline`], the park timeout, is a peek.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rips_desim::Time;

type Entry = (Time, u64, u64); // (absolute deadline µs, seq, tag)

/// Per-node timers, fired in `(deadline, seq)` order. Single-threaded;
/// owned by the node loop.
pub struct TimerWheel {
    heap: BinaryHeap<Reverse<Entry>>,
    /// Arm-order tiebreaker.
    seq: u64,
}

impl TimerWheel {
    /// Creates an empty set of timers. Deadlines are absolute, so the
    /// start time `_now` needs no recording.
    pub fn new(_now: Time) -> Self {
        TimerWheel {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Arms `tag` to fire `delay_us` after `now`.
    pub fn set(&mut self, now: Time, delay_us: u64, tag: u64) {
        self.heap.push(Reverse((now + delay_us, self.seq, tag)));
        self.seq += 1;
    }

    /// Pops the tag of the earliest timer due at `now`, if any:
    /// strictly by `(deadline, seq)`, where a delay-0 timer's deadline
    /// is its arming time.
    pub fn pop_due(&mut self, now: Time) -> Option<u64> {
        let &Reverse((deadline, _, _)) = self.heap.peek()?;
        if deadline > now {
            return None;
        }
        self.heap.pop().map(|Reverse(e)| e.2)
    }

    /// Earliest absolute deadline across all pending timers, or `None`
    /// if nothing is armed.
    pub fn next_deadline(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse(e)| e.0)
    }

    /// Total number of armed timers (for tests and diagnostics).
    pub fn pending(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_zero_fires_fifo_immediately() {
        let mut w = TimerWheel::new(1000);
        w.set(1000, 0, 10);
        w.set(1000, 0, 11);
        assert_eq!(w.pop_due(1000), Some(10));
        assert_eq!(w.pop_due(1000), Some(11));
        assert_eq!(w.pop_due(1000), None);
    }

    #[test]
    fn delayed_timer_waits_for_deadline() {
        let mut w = TimerWheel::new(0);
        w.set(0, 500, 42);
        assert_eq!(w.pop_due(0), None);
        assert_eq!(w.pop_due(499), None);
        assert_eq!(w.next_deadline(), Some(500));
        assert_eq!(w.pop_due(500), Some(42));
        assert_eq!(w.pending(), 0);
    }

    #[test]
    fn earlier_deadline_beats_later_immediate() {
        // An expired delayed timer (deadline 90) must fire before a
        // delay-0 timer armed later (deadline = arm time 100).
        let mut w = TimerWheel::new(0);
        w.set(0, 90, 1);
        w.set(100, 0, 2);
        assert_eq!(w.pop_due(100), Some(1));
        assert_eq!(w.pop_due(100), Some(2));
    }

    #[test]
    fn full_lap_deadline_does_not_fire_early() {
        // A deadline 16 ms past a near one waits for its own time.
        let lap = 1 << 14;
        let mut w = TimerWheel::new(0);
        w.set(0, 64, 1);
        w.set(0, 64 + lap, 2);
        assert_eq!(w.pop_due(64), Some(1));
        assert_eq!(w.pop_due(64), None);
        assert_eq!(w.pop_due(lap), None);
        assert_eq!(w.pop_due(64 + lap), Some(2));
    }

    #[test]
    fn big_time_jump_releases_everything_in_order() {
        let mut w = TimerWheel::new(0);
        for (delay, tag) in [(5000u64, 3u64), (100, 1), (70_000, 4), (200, 2)] {
            w.set(0, delay, tag);
        }
        let far = 1_000_000;
        let fired: Vec<u64> = std::iter::from_fn(|| w.pop_due(far)).collect();
        assert_eq!(fired, vec![1, 2, 3, 4]);
    }

    #[test]
    fn ties_fire_in_arm_order() {
        let mut w = TimerWheel::new(0);
        w.set(0, 100, 7);
        w.set(0, 100, 8);
        assert_eq!(w.pop_due(100), Some(7));
        assert_eq!(w.pop_due(100), Some(8));
    }

    #[test]
    fn next_deadline_sees_immediate_and_bucketed() {
        let mut w = TimerWheel::new(0);
        assert_eq!(w.next_deadline(), None);
        w.set(0, 10_000, 1);
        assert_eq!(w.next_deadline(), Some(10_000));
        w.set(50, 0, 2);
        assert_eq!(w.next_deadline(), Some(50));
    }
}
