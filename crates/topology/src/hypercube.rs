//! Hypercube topology (used by the DEM baseline scheduler, §4 of the
//! paper's related work).

use crate::{NodeId, Topology};

/// A `d`-dimensional hypercube with `2^d` nodes.
///
/// Node ids are bit strings; two nodes are adjacent iff their ids differ
/// in exactly one bit. Routing is *e-cube*: correct the lowest differing
/// bit first, which is deadlock-free and deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hypercube {
    dim: usize,
}

impl Hypercube {
    /// Creates a hypercube of dimension `dim` (`2^dim` nodes).
    ///
    /// # Panics
    /// Panics if `dim` is large enough to overflow `usize` node counts.
    pub fn new(dim: usize) -> Self {
        assert!(dim < usize::BITS as usize, "hypercube dimension too large");
        Hypercube { dim }
    }

    /// Builds a hypercube with exactly `n = 2^d` nodes.
    ///
    /// # Panics
    /// Panics if `n` is not a power of two.
    pub fn with_nodes(n: usize) -> Self {
        assert!(n.is_power_of_two(), "hypercube size must be a power of two");
        Hypercube::new(n.trailing_zeros() as usize)
    }

    /// Dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The neighbour across dimension `k`.
    pub fn across(&self, node: NodeId, k: usize) -> NodeId {
        debug_assert!(k < self.dim);
        node ^ (1 << k)
    }
}

impl Topology for Hypercube {
    fn len(&self) -> usize {
        1 << self.dim
    }

    fn neighbors(&self, node: NodeId) -> Vec<NodeId> {
        (0..self.dim).map(|k| node ^ (1 << k)).collect()
    }

    fn distance(&self, a: NodeId, b: NodeId) -> usize {
        (a ^ b).count_ones() as usize
    }

    fn route_next_hop(&self, from: NodeId, to: NodeId) -> Option<NodeId> {
        let diff = from ^ to;
        if diff == 0 {
            return None;
        }
        // e-cube routing: flip the lowest set bit of the difference.
        Some(from ^ (diff & diff.wrapping_neg()))
    }

    fn diameter(&self) -> usize {
        self.dim
    }

    fn label(&self) -> String {
        format!("hypercube d={}", self.dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route;

    #[test]
    fn sizes() {
        assert_eq!(Hypercube::new(0).len(), 1);
        assert_eq!(Hypercube::new(5).len(), 32);
        assert_eq!(Hypercube::with_nodes(64).dim(), 6);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        Hypercube::with_nodes(12);
    }

    #[test]
    fn hamming_distance() {
        let h = Hypercube::new(4);
        assert_eq!(h.distance(0b0000, 0b1111), 4);
        assert_eq!(h.distance(0b1010, 0b1000), 1);
    }

    #[test]
    fn ecube_route_fixes_low_bits_first() {
        let h = Hypercube::new(3);
        assert_eq!(route(&h, 0b000, 0b101), vec![0b001, 0b101]);
    }

    #[test]
    fn across_is_involution() {
        let h = Hypercube::new(4);
        for n in 0..h.len() {
            for k in 0..4 {
                assert_eq!(h.across(h.across(n, k), k), n);
            }
        }
    }
}
