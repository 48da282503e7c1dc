//! Complete binary tree topology.
//!
//! The paper's ALL transfer policy uses a spanning tree for the
//! ready/init signalling protocol, and reference [25] gives an
//! `O(log n)` optimal parallel scheduling algorithm for trees (our TWA).

use crate::{NodeId, Topology};

/// A complete binary tree on `n` nodes in heap order: node `i`'s parent
/// is `(i - 1) / 2`, children are `2i + 1` and `2i + 2` (when `< n`).
/// Node `0` is the root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinaryTree {
    len: usize,
}

impl BinaryTree {
    /// Creates a complete binary tree with `n` nodes.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "tree must have at least one node");
        BinaryTree { len: n }
    }

    /// Parent of `node`, or `None` for the root.
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        (node > 0).then(|| (node - 1) / 2)
    }

    /// Existing children of `node` (0, 1, or 2 of them).
    pub fn children(&self, node: NodeId) -> Vec<NodeId> {
        [2 * node + 1, 2 * node + 2]
            .into_iter()
            .filter(|&c| c < self.len)
            .collect()
    }

    /// Depth of `node` (root has depth 0).
    pub fn depth(&self, node: NodeId) -> usize {
        // Depth = floor(log2(node + 1)).
        (usize::BITS - 1 - (node + 1).leading_zeros()) as usize
    }

    /// `true` if `node` has no children.
    pub fn is_leaf(&self, node: NodeId) -> bool {
        2 * node + 1 >= self.len
    }

    /// Height of the tree (depth of the deepest node).
    pub fn height(&self) -> usize {
        self.depth(self.len - 1)
    }

    fn lca(&self, mut a: NodeId, mut b: NodeId) -> NodeId {
        while self.depth(a) > self.depth(b) {
            a = (a - 1) / 2;
        }
        while self.depth(b) > self.depth(a) {
            b = (b - 1) / 2;
        }
        while a != b {
            a = (a - 1) / 2;
            b = (b - 1) / 2;
        }
        a
    }
}

impl Topology for BinaryTree {
    fn len(&self) -> usize {
        self.len
    }

    fn neighbors(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(3);
        if let Some(p) = self.parent(node) {
            out.push(p);
        }
        out.extend(self.children(node));
        out
    }

    fn distance(&self, a: NodeId, b: NodeId) -> usize {
        let l = self.lca(a, b);
        (self.depth(a) - self.depth(l)) + (self.depth(b) - self.depth(l))
    }

    fn route_next_hop(&self, from: NodeId, to: NodeId) -> Option<NodeId> {
        if from == to {
            return None;
        }
        let l = self.lca(from, to);
        if from == l {
            // Descend: find `to`'s ancestor that is a child of `from`.
            let mut cur = to;
            while self.parent(cur) != Some(from) {
                cur = self.parent(cur).expect("lca invariant violated");
            }
            Some(cur)
        } else {
            self.parent(from)
        }
    }

    fn diameter(&self) -> usize {
        if self.len == 1 {
            return 0;
        }
        // Deepest leaf to deepest leaf through the root, except when the
        // tree is a single path on one side. Brute force over leaves is
        // unnecessary: the two deepest leaves in different root subtrees
        // realise the diameter for heap-ordered complete trees; compute
        // exactly via the last node's depth and the deepest node in the
        // opposite subtree.
        let h = self.height();
        if self.len == 2 {
            return 1;
        }
        // Right subtree root = 2; deepest node overall is `len - 1`.
        // Depth of deepest node in the subtree NOT containing `len - 1`:
        let last = self.len - 1;
        let mut anc = last;
        while anc > 2 {
            anc = (anc - 1) / 2;
        }
        let other_root = if anc == 1 { 2 } else { 1 };
        // Deepest node under `other_root`: walk left children greedily
        // (complete trees fill left-to-right, so the left spine is
        // longest).
        let mut deep = other_root;
        while 2 * deep + 1 < self.len {
            deep = 2 * deep + 1;
        }
        h + self.depth(deep)
    }

    fn label(&self) -> String {
        format!("binary tree n={}", self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_order_relations() {
        let t = BinaryTree::new(7);
        assert_eq!(t.parent(0), None);
        assert_eq!(t.parent(5), Some(2));
        assert_eq!(t.children(1), vec![3, 4]);
        assert_eq!(t.children(3), Vec::<usize>::new());
        assert!(t.is_leaf(3));
        assert!(!t.is_leaf(1));
    }

    #[test]
    fn depths() {
        let t = BinaryTree::new(15);
        assert_eq!(t.depth(0), 0);
        assert_eq!(t.depth(1), 1);
        assert_eq!(t.depth(2), 1);
        assert_eq!(t.depth(6), 2);
        assert_eq!(t.depth(7), 3);
        assert_eq!(t.height(), 3);
    }

    #[test]
    fn distance_via_lca() {
        let t = BinaryTree::new(15);
        assert_eq!(t.distance(7, 8), 2); // siblings under 3
        assert_eq!(t.distance(7, 14), 6); // through the root
        assert_eq!(t.distance(0, 14), 3);
    }

    #[test]
    fn partial_last_level() {
        let t = BinaryTree::new(12);
        assert_eq!(t.children(5), vec![11]);
        assert_eq!(t.depth(11), 3);
    }
}
