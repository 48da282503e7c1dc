//! The Tree Walking Algorithm (the paper's reference [25]).
//!
//! On a tree, removing any edge splits the machine in two, so the net
//! task flow across every edge is *forced*: it equals the subtree's
//! surplus over its quota. TWA therefore computes, in one up sweep and
//! one down sweep, the unique minimal flow — which makes it optimal in
//! `Σ eₖ`, the property the paper uses when it says "for certain
//! topologies, such as trees, the complexity can be reduced to
//! O(log n)". Carrying the flows out takes two more sweeps; see
//! [`twa_steps`].

use rips_topology::{BinaryTree, Topology};

use crate::plan::TransferPlan;

/// Communication steps of the tree walking algorithm on a tree of the
/// given height, `O(log n)` on a balanced tree: the subtree sums
/// converge on the root, `(w_avg, R)` is broadcast back down, and the
/// forced flows travel first up and then down — four sweeps of at most
/// `height` steps, plus two steps of slack (the message-passing
/// reference measures `4·height` on full trees). What RIPS charges a
/// system phase on a tree, and the bound the message-passing oracle's
/// measured step count is held to.
pub fn twa_steps(height: usize) -> usize {
    4 * height + 2
}

/// Runs TWA on `loads` over the heap-ordered binary tree, returning a
/// transfer plan landing exactly on the quotas.
///
/// # Panics
/// Panics if `loads.len() != tree.len()` or any load is negative.
pub fn twa(tree: &BinaryTree, loads: &[i64]) -> TransferPlan {
    let n = tree.len();
    assert_eq!(loads.len(), n, "one load per node required");
    assert!(loads.iter().all(|&w| w >= 0), "negative load");
    let total: i64 = loads.iter().sum();
    let quotas = crate::flow::quotas(total, n);

    // Up sweep: subtree surplus for every node (post-order = reverse
    // heap order works because children have larger indices).
    let mut surplus: Vec<i64> = loads.iter().zip(&quotas).map(|(&w, &q)| w - q).collect();
    for v in (1..n).rev() {
        let p = (v - 1) / 2;
        surplus[p] += surplus[v];
    }
    debug_assert_eq!(surplus[0], 0, "root surplus must vanish");

    // `surplus[v]` (for v != 0) is now the forced flow on the edge
    // (v → parent): positive = upward, negative = downward.
    //
    // Execution order: upward moves leaves-first (deep to shallow) so
    // transit nodes have received from below before sending up; then
    // downward moves root-first.
    let mut w = loads.to_vec();
    let mut plan = TransferPlan::default();
    for v in (1..n).rev() {
        if surplus[v] > 0 {
            let p = (v - 1) / 2;
            plan.push(v, p, surplus[v]);
            w[v] -= surplus[v];
            w[p] += surplus[v];
        }
    }
    for v in 1..n {
        if surplus[v] < 0 {
            let p = (v - 1) / 2;
            plan.push(p, v, -surplus[v]);
            w[p] += surplus[v];
            w[v] -= surplus[v];
        }
    }
    debug_assert_eq!(w, quotas, "TWA must land exactly on the quotas");
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::min_nonlocal_tasks;

    #[test]
    fn twa_is_four_sweeps() {
        assert_eq!(twa_steps(5), 22);
    }

    fn check(n: usize, loads: &[i64]) -> TransferPlan {
        let tree = BinaryTree::new(n);
        let plan = twa(&tree, loads);
        assert!(plan.is_link_local(&tree));
        let finals = plan.apply(loads);
        let total: i64 = loads.iter().sum();
        assert_eq!(finals, crate::flow::quotas(total, n));
        plan
    }

    #[test]
    fn three_node_tree() {
        // Root 0, children 1 and 2.
        let plan = check(3, &[0, 9, 0]);
        // Forced: edge(1->0) carries 6, edge(0->2) carries 3.
        assert_eq!(plan.edge_cost(), 9);
    }

    #[test]
    fn all_load_at_deep_leaf() {
        let plan = check(7, &[0, 0, 0, 14, 0, 0, 0]);
        // Quota 2 each. Node 3 keeps 2, sends 12 up to 1; node 1 keeps
        // 2, sends 2 to node 4 and 8 up to 0; node 0 keeps 2, sends 6
        // to node 2 which forwards 2+2 to its children.
        assert_eq!(plan.edge_cost(), 12 + 2 + 8 + 6 + 2 + 2);
    }

    #[test]
    fn twa_is_optimal_in_edge_cost() {
        // Compare against the MCMF optimum on several load patterns.
        for (n, loads) in [
            (7usize, vec![14, 0, 0, 0, 0, 0, 0]),
            (7, vec![0, 7, 0, 0, 7, 0, 0]),
            (12, vec![5, 0, 0, 0, 0, 0, 24, 0, 0, 0, 7, 0]),
            (5, vec![1, 2, 3, 4, 5]),
        ] {
            let tree = BinaryTree::new(n);
            let plan = twa(&tree, &loads);
            let opt = crate::flow::optimal_rebalance(&tree, &loads);
            assert_eq!(plan.edge_cost(), opt.cost, "n={n} loads={loads:?}");
        }
    }

    #[test]
    fn twa_maximizes_locality() {
        for (n, loads) in [
            (7usize, vec![14, 0, 0, 0, 0, 0, 0]),
            (12, vec![5, 0, 0, 0, 0, 0, 24, 0, 0, 0, 7, 0]),
        ] {
            let tree = BinaryTree::new(n);
            let plan = twa(&tree, &loads);
            assert_eq!(plan.nonlocal_tasks(&loads), min_nonlocal_tasks(&loads));
        }
    }

    #[test]
    fn balanced_is_noop() {
        let plan = check(7, &[3; 7]);
        assert!(plan.moves.is_empty());
    }

    #[test]
    fn single_node() {
        let plan = check(1, &[42]);
        assert!(plan.moves.is_empty());
    }
}
