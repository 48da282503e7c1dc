//! 2-D mesh, the Paragon-style interconnect the paper's MWA targets.

use crate::NodeId;

/// An `n1 × n2` two-dimensional mesh (no wraparound links).
///
/// Node `(i, j)` (row `i ∈ 0..n1`, column `j ∈ 0..n2`) has id
/// `i * n2 + j`. Links connect horizontally and vertically adjacent
/// nodes. Routing is deterministic **XY routing**: correct the column
/// first, then the row — the same discipline real mesh machines use,
/// and the one MWA's row/column phases map onto.
///
/// The simulator asks `distance` once per message and `route_next_hop`
/// once per hop under link contention, at every machine size, so both
/// are closed form (O(1)), cross-validated against BFS by the invariant
/// tests in the crate root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mesh2D {
    rows: usize,
    cols: usize,
}

impl Mesh2D {
    /// Creates an `rows × cols` mesh.
    ///
    /// # Panics
    /// Panics if either dimension is zero, or if `rows × cols` does not
    /// fit in a `usize`.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "mesh dimensions must be positive");
        assert!(
            rows.checked_mul(cols).is_some(),
            "a {rows}x{cols} mesh has more nodes than a usize can count"
        );
        Mesh2D { rows, cols }
    }

    /// Builds the squarest mesh for `n` nodes, following the paper's
    /// Figure 4 setup: `M × M` when `n` is a perfect square, otherwise
    /// `M × M/2`-style near-square factorization (largest factor pair).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn near_square(n: usize) -> Self {
        assert!(n > 0, "mesh must have at least one node");
        let mut best = (1, n);
        let mut r = 1;
        while r * r <= n {
            if n.is_multiple_of(r) {
                best = (r, n / r);
            }
            r += 1;
        }
        // Prefer rows >= cols to match the paper's 8x4 example layout.
        Mesh2D::new(best.1, best.0)
    }

    /// Number of rows (`n1`).
    pub fn rows(self) -> usize {
        self.rows
    }

    /// Number of columns (`n2`).
    pub fn cols(self) -> usize {
        self.cols
    }

    /// Coordinates `(row, col)` of a node id.
    pub fn coords(self, node: NodeId) -> (usize, usize) {
        debug_assert!(node < self.len());
        (node / self.cols, node % self.cols)
    }

    /// Node id of coordinates `(row, col)`.
    pub fn id(self, row: usize, col: usize) -> NodeId {
        debug_assert!(row < self.rows && col < self.cols);
        row * self.cols + col
    }

    /// Number of nodes in the machine.
    pub fn len(self) -> usize {
        self.rows * self.cols
    }

    /// Always `false`: the constructor rejects a zero dimension.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Direct neighbours of `node`.
    pub fn neighbors(self, node: NodeId) -> Vec<NodeId> {
        let (i, j) = self.coords(node);
        let mut out = Vec::with_capacity(4);
        if i > 0 {
            out.push(self.id(i - 1, j));
        }
        if i + 1 < self.rows {
            out.push(self.id(i + 1, j));
        }
        if j > 0 {
            out.push(self.id(i, j - 1));
        }
        if j + 1 < self.cols {
            out.push(self.id(i, j + 1));
        }
        out
    }

    /// Shortest-path hop distance between two nodes.
    pub fn distance(self, a: NodeId, b: NodeId) -> usize {
        let (ai, aj) = self.coords(a);
        let (bi, bj) = self.coords(b);
        ai.abs_diff(bi) + aj.abs_diff(bj)
    }

    /// The next hop on the XY route `from → to`.
    ///
    /// Returns `None` when `from == to`. Repeatedly following
    /// `route_next_hop` reaches `to` in exactly `distance(from, to)` hops.
    pub fn route_next_hop(self, from: NodeId, to: NodeId) -> Option<NodeId> {
        if from == to {
            return None;
        }
        let (fi, fj) = self.coords(from);
        let (ti, tj) = self.coords(to);
        // XY routing: fix the column first, then the row.
        let next = if fj < tj {
            self.id(fi, fj + 1)
        } else if fj > tj {
            self.id(fi, fj - 1)
        } else if fi < ti {
            self.id(fi + 1, fj)
        } else {
            self.id(fi - 1, fj)
        };
        Some(next)
    }

    /// Maximum hop distance over all node pairs.
    pub fn diameter(self) -> usize {
        (self.rows - 1) + (self.cols - 1)
    }

    /// Short human-readable name, e.g. `"mesh 8x4"`.
    pub fn label(self) -> String {
        format!("mesh {}x{}", self.rows, self.cols)
    }

    /// Walks the full route `from → to` (excluding `from`, including
    /// `to`).
    #[cfg(test)]
    pub(crate) fn route(self, from: NodeId, to: NodeId) -> Vec<NodeId> {
        let mut path = Vec::with_capacity(self.distance(from, to));
        let mut cur = from;
        while let Some(next) = self.route_next_hop(cur, to) {
            path.push(next);
            cur = next;
        }
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_roundtrip() {
        let m = Mesh2D::new(3, 5);
        for n in 0..m.len() {
            let (i, j) = m.coords(n);
            assert_eq!(m.id(i, j), n);
        }
    }

    #[test]
    fn paper_example_diameter() {
        // §5: "The maximum distance in an 8x4 mesh is 12" — the paper
        // counts the round-trip/worst scheduling path; the one-way mesh
        // diameter of 8x4 is (8-1)+(4-1) = 10. We model one-way hops.
        let m = Mesh2D::new(8, 4);
        assert_eq!(m.diameter(), 10);
    }

    #[test]
    fn xy_routing_is_column_first() {
        let m = Mesh2D::new(4, 4);
        let path = m.route(m.id(0, 0), m.id(2, 3));
        assert_eq!(
            path,
            vec![m.id(0, 1), m.id(0, 2), m.id(0, 3), m.id(1, 3), m.id(2, 3)]
        );
    }

    #[test]
    fn near_square_factorizations() {
        assert_eq!(
            (
                Mesh2D::near_square(16).rows(),
                Mesh2D::near_square(16).cols()
            ),
            (4, 4)
        );
        assert_eq!(
            (
                Mesh2D::near_square(32).rows(),
                Mesh2D::near_square(32).cols()
            ),
            (8, 4)
        );
        assert_eq!(
            (
                Mesh2D::near_square(128).rows(),
                Mesh2D::near_square(128).cols()
            ),
            (16, 8)
        );
        assert_eq!(
            (Mesh2D::near_square(7).rows(), Mesh2D::near_square(7).cols()),
            (7, 1)
        );
    }

    #[test]
    fn corner_neighbors() {
        let m = Mesh2D::new(2, 2);
        assert_eq!(m.neighbors(0), vec![2, 1]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_rejected() {
        Mesh2D::new(0, 3);
    }

    #[test]
    #[should_panic(expected = "more nodes than a usize can count")]
    fn overflowing_dimensions_rejected() {
        Mesh2D::new(usize::MAX / 2 + 1, 2);
    }

    #[test]
    fn single_node_mesh() {
        let m = Mesh2D::new(1, 1);
        assert_eq!(m.len(), 1);
        assert!(m.neighbors(0).is_empty());
        assert_eq!(m.diameter(), 0);
    }
}
