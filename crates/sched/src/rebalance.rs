//! The paper's §3 reduction from load balancing to min-cost max-flow.

use rips_topology::{Mesh2D, NodeId};

use crate::mcmf::{EdgeId, FlowNetwork};

/// Per-node target loads ("quotas", paper step 3): every node gets
/// `⌊T/N⌋` tasks and the remainder `R = T mod N` is given to the first
/// `R` nodes, one extra task each.
///
/// ```
/// assert_eq!(rips_sched::flow::quotas(10, 4), vec![3, 3, 2, 2]);
/// ```
pub fn quotas(total: i64, n: usize) -> Vec<i64> {
    assert!(n > 0);
    assert!(total >= 0, "negative total load");
    let avg = total / n as i64;
    let r = (total % n as i64) as usize;
    (0..n).map(|i| avg + i64::from(i < r)).collect()
}

/// Result of the optimal (min-cost max-flow) rebalancing.
#[derive(Debug, Clone)]
pub struct OptimalPlan {
    /// Optimal `Σ eₖ`: total tasks crossing links, minimised.
    pub cost: i64,
    /// Net task flow per directed link `(from, to, tasks)`, positive
    /// entries only.
    pub link_flows: Vec<(NodeId, NodeId, i64)>,
    /// Per-node final loads (equal to the quotas).
    pub final_loads: Vec<i64>,
}

/// Computes the optimal rebalancing of `loads` over `mesh`: capacity ∞,
/// cost 1 on every link; source feeding each overloaded node by its
/// excess, each underloaded node draining to the sink by its deficit.
///
/// ```
/// use rips_sched::flow::optimal_rebalance;
/// use rips_topology::Mesh2D;
///
/// // A line of three nodes: the optimum routes through the middle.
/// let plan = optimal_rebalance(Mesh2D::new(1, 3), &[9, 0, 0]);
/// assert_eq!(plan.cost, 9); // 3 one-hop + 3 two-hop transfers
/// assert_eq!(plan.final_loads, vec![3, 3, 3]);
/// ```
///
/// Targets are the paper's quotas, so the result is defined also when
/// the total is not divisible by N.
///
/// # Panics
/// Panics if `loads.len() != mesh.len()` or any load is negative.
pub fn optimal_rebalance(mesh: Mesh2D, loads: &[i64]) -> OptimalPlan {
    let n = mesh.len();
    assert_eq!(loads.len(), n, "one load per node required");
    assert!(loads.iter().all(|&w| w >= 0), "negative load");
    let total: i64 = loads.iter().sum();
    let q = quotas(total, n);

    // Vertices: 0..n are processors, n is source, n+1 is sink.
    let (s, t) = (n, n + 1);
    let mut net = FlowNetwork::new(n + 2);
    // `INF` must exceed any feasible flow on a single link.
    let inf = total.max(1);
    let mut link_edges: Vec<(NodeId, NodeId, EdgeId)> = Vec::new();
    for u in 0..n {
        for v in mesh.neighbors(u) {
            // Directed edge per ordered neighbour pair (the reverse
            // direction is added when iterating from `v`).
            let e = net.add_edge(u, v, inf, 1);
            link_edges.push((u, v, e));
        }
    }
    for i in 0..n {
        if loads[i] > q[i] {
            net.add_edge(s, i, loads[i] - q[i], 0);
        } else if loads[i] < q[i] {
            net.add_edge(i, t, q[i] - loads[i], 0);
        }
    }

    let (flow, cost) = net.min_cost_max_flow(s, t);
    let demand: i64 = (0..n).map(|i| (loads[i] - q[i]).max(0)).sum();
    assert_eq!(
        flow, demand,
        "balance flow infeasible: connected topology should always saturate"
    );
    debug_assert!(net.residual_has_no_negative_cycle());

    let link_flows = link_edges
        .into_iter()
        .filter_map(|(u, v, e)| {
            let f = net.flow(e);
            (f > 0).then_some((u, v, f))
        })
        .collect();
    OptimalPlan {
        cost,
        link_flows,
        final_loads: q,
    }
}

impl OptimalPlan {
    /// Re-derives final loads from `link_flows` applied to `initial`
    /// and checks they match the quotas. Test/diagnostic helper.
    pub fn verify(&self, initial: &[i64]) -> bool {
        let mut w = initial.to_vec();
        for &(u, v, f) in &self.link_flows {
            w[u] -= f;
            w[v] += f;
        }
        w == self.final_loads && w.iter().all(|&x| x >= 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rips_topology::Mesh2D;

    #[test]
    fn quota_remainder_goes_to_first_nodes() {
        assert_eq!(quotas(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(quotas(8, 4), vec![2, 2, 2, 2]);
        assert_eq!(quotas(0, 3), vec![0, 0, 0]);
    }

    #[test]
    fn two_node_transfer() {
        let mesh = Mesh2D::new(1, 2);
        let plan = optimal_rebalance(mesh, &[10, 0]);
        assert_eq!(plan.cost, 5);
        assert_eq!(plan.link_flows, vec![(0, 1, 5)]);
        assert!(plan.verify(&[10, 0]));
    }

    #[test]
    fn already_balanced_costs_nothing() {
        let mesh = Mesh2D::new(2, 2);
        let plan = optimal_rebalance(mesh, &[7, 7, 7, 7]);
        assert_eq!(plan.cost, 0);
        assert!(plan.link_flows.is_empty());
    }

    #[test]
    fn line_of_three_routes_through_middle() {
        // Loads [9, 0, 0] on a line: node 0 sends 3 to node 1 and 3 to
        // node 2 (via 1): cost = 3 + 3*2 = 9.
        let mesh = Mesh2D::new(1, 3);
        let plan = optimal_rebalance(mesh, &[9, 0, 0]);
        assert_eq!(plan.cost, 9);
        assert!(plan.verify(&[9, 0, 0]));
        assert_eq!(plan.final_loads, vec![3, 3, 3]);
    }

    #[test]
    fn ring_uses_both_directions() {
        // A 2×2 mesh is a 4-ring: with one hot node, excess splits
        // both ways.
        let mesh = Mesh2D::new(2, 2);
        let plan = optimal_rebalance(mesh, &[8, 0, 0, 0]);
        // Targets 2 each; send 2 to each neighbour (1 hop) and 2 to the
        // opposite node (2 hops): cost 2 + 2 + 4 = 8.
        assert_eq!(plan.cost, 8);
        assert!(plan.verify(&[8, 0, 0, 0]));
    }

    #[test]
    fn remainder_targets_are_met() {
        let mesh = Mesh2D::new(1, 3);
        let plan = optimal_rebalance(mesh, &[7, 0, 0]);
        assert_eq!(plan.final_loads, vec![3, 2, 2]);
        assert!(plan.verify(&[7, 0, 0]));
    }

    #[test]
    #[should_panic(expected = "negative load")]
    fn negative_load_rejected() {
        let mesh = Mesh2D::new(1, 2);
        optimal_rebalance(mesh, &[-1, 1]);
    }
}
