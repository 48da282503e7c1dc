//! Ring topology — the degenerate mesh row, useful for tests and for
//! exercising schedulers on a minimal connected machine.

use crate::{NodeId, Topology};

/// A bidirectional ring of `n` nodes; node `i` links to `(i ± 1) mod n`.
///
/// For `n ≤ 2` the duplicate/self links collapse (a 1-ring has no links,
/// a 2-ring has a single link).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ring {
    len: usize,
}

impl Ring {
    /// Creates a ring with `n` nodes.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "ring must have at least one node");
        Ring { len: n }
    }

    /// Clockwise neighbour.
    pub fn next(&self, node: NodeId) -> NodeId {
        (node + 1) % self.len
    }

    /// Counter-clockwise neighbour.
    pub fn prev(&self, node: NodeId) -> NodeId {
        (node + self.len - 1) % self.len
    }
}

impl Topology for Ring {
    fn len(&self) -> usize {
        self.len
    }

    fn neighbors(&self, node: NodeId) -> Vec<NodeId> {
        if self.len == 1 {
            return vec![];
        }
        if self.len == 2 {
            return vec![1 - node];
        }
        vec![self.prev(node), self.next(node)]
    }

    fn distance(&self, a: NodeId, b: NodeId) -> usize {
        let d = a.abs_diff(b);
        d.min(self.len - d)
    }

    fn route_next_hop(&self, from: NodeId, to: NodeId) -> Option<NodeId> {
        if from == to {
            return None;
        }
        // Go whichever way around is shorter; ties go clockwise.
        let fwd = (to + self.len - from) % self.len;
        if fwd <= self.len - fwd {
            Some(self.next(from))
        } else {
            Some(self.prev(from))
        }
    }

    fn diameter(&self) -> usize {
        self.len / 2
    }

    fn label(&self) -> String {
        format!("ring n={}", self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraparound_distance() {
        let r = Ring::new(8);
        assert_eq!(r.distance(0, 7), 1);
        assert_eq!(r.distance(0, 4), 4);
        assert_eq!(r.distance(1, 6), 3);
    }

    #[test]
    fn tiny_rings() {
        assert!(Ring::new(1).neighbors(0).is_empty());
        assert_eq!(Ring::new(2).neighbors(0), vec![1]);
        assert_eq!(Ring::new(2).diameter(), 1);
    }

    #[test]
    fn route_takes_short_way() {
        let r = Ring::new(10);
        assert_eq!(r.route_next_hop(0, 8), Some(9));
        assert_eq!(r.route_next_hop(0, 3), Some(1));
    }
}
