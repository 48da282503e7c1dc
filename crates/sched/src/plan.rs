//! Transfer plans and their verification.

use rips_topology::{NodeId, Topology};

use crate::flow::quotas;

/// One task movement across a single link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    /// Sending node.
    pub from: NodeId,
    /// Receiving node — must be a direct neighbour of `from`.
    pub to: NodeId,
    /// Number of tasks moved.
    pub count: i64,
}

/// An ordered sequence of link-local task movements.
///
/// Order matters: transit tasks may be forwarded by a later move, so a
/// node's holdings must cover each move *at the time it executes*.
/// [`TransferPlan::apply`] checks exactly that.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransferPlan {
    /// The moves, in execution order. Zero-count moves are omitted.
    pub moves: Vec<Move>,
}

impl TransferPlan {
    /// Adds a move, dropping zero counts.
    ///
    /// # Panics
    /// Panics on negative counts.
    pub fn push(&mut self, from: NodeId, to: NodeId, count: i64) {
        assert!(count >= 0, "negative move count {count}");
        if count > 0 {
            self.moves.push(Move { from, to, count });
        }
    }

    /// Total `Σ eₖ`: tasks crossing links, the objective the paper's
    /// optimal scheduler minimises (every move is one hop).
    pub fn edge_cost(&self) -> i64 {
        self.moves.iter().map(|m| m.count).sum()
    }

    /// Executes the plan on `loads`, returning final loads.
    ///
    /// # Panics
    /// Panics if a move overdraws its sender (plan mis-ordered or
    /// wrong), or if `from == to`.
    pub fn apply(&self, loads: &[i64]) -> Vec<i64> {
        let mut w = loads.to_vec();
        for m in &self.moves {
            assert_ne!(m.from, m.to, "self-move");
            assert!(
                w[m.from] >= m.count,
                "move {:?} overdraws node {} (holds {})",
                m,
                m.from,
                w[m.from]
            );
            w[m.from] -= m.count;
            w[m.to] += m.count;
        }
        w
    }

    /// Checks every move is a single hop on `topo`.
    pub fn is_link_local(&self, topo: &dyn Topology) -> bool {
        self.moves.iter().all(|m| topo.distance(m.from, m.to) == 1)
    }

    /// Number of *non-local* tasks: tasks whose final node differs from
    /// their origin. Simulated with origin tracking; when forwarding, a
    /// node prefers to pass on tasks that are already foreign (a
    /// transit task stays one non-local task no matter how many links
    /// it crosses), keeping native tasks home as long as possible —
    /// the counting convention behind the paper's Theorem 2 and the
    /// "# of nonlocal tasks" column of Table I.
    pub fn nonlocal_tasks(&self, loads: &[i64]) -> i64 {
        self.final_holdings(loads)
            .iter()
            .enumerate()
            .map(|(node, h)| {
                h.iter()
                    .filter(|&&(origin, _)| origin != node)
                    .map(|&(_, c)| c)
                    .sum::<i64>()
            })
            .sum()
    }

    /// Net origin→destination transfers implied by the plan: for each
    /// receiving node, how many tasks it ends up holding from each
    /// other origin. Used by the RIPS runtime to pack migrations into
    /// one message per (source, destination) pair ("tasks are packed
    /// together for transmission").
    pub fn net_transfers(&self, loads: &[i64]) -> Vec<(NodeId, NodeId, i64)> {
        let mut out = Vec::new();
        for (node, h) in self.final_holdings(loads).iter().enumerate() {
            for &(origin, count) in h {
                if origin != node && count > 0 {
                    out.push((origin, node, count));
                }
            }
        }
        out
    }

    /// Executes the plan with per-task origin tracking (foreign-first
    /// forwarding); returns, per node, the final `(origin, count)`
    /// holdings.
    pub fn final_holdings(&self, loads: &[i64]) -> Vec<Vec<(NodeId, i64)>> {
        let n = loads.len();
        // holdings[node] = list of (origin, count); foreign first is
        // maintained by pushing foreign arrivals to the front region.
        let mut holdings: Vec<Vec<(NodeId, i64)>> = (0..n).map(|i| vec![(i, loads[i])]).collect();
        for m in &self.moves {
            let mut need = m.count;
            let mut taken: Vec<(NodeId, i64)> = Vec::new();
            // Prefer foreign tasks (origin != sender), oldest first.
            let src = &mut holdings[m.from];
            for pass in 0..2 {
                let mut k = 0;
                while k < src.len() && need > 0 {
                    let foreign = src[k].0 != m.from;
                    if (pass == 0 && foreign) || (pass == 1 && !foreign) {
                        let take = need.min(src[k].1);
                        if take > 0 {
                            taken.push((src[k].0, take));
                            src[k].1 -= take;
                            need -= take;
                        }
                    }
                    k += 1;
                }
                if need == 0 {
                    break;
                }
            }
            assert_eq!(need, 0, "move {m:?} overdraws sender");
            src.retain(|&(_, c)| c > 0);
            let dst = &mut holdings[m.to];
            for (origin, count) in taken {
                if let Some(slot) = dst.iter_mut().find(|(o, _)| *o == origin) {
                    slot.1 += count;
                } else {
                    dst.push((origin, count));
                }
            }
        }
        holdings
    }

    /// `true` if final loads differ by at most one task (Theorem 1's
    /// postcondition) and match the canonical quotas.
    pub fn balances(&self, loads: &[i64]) -> bool {
        let finals = self.apply(loads);
        let total: i64 = loads.iter().sum();
        finals == quotas(total, loads.len())
    }
}

/// Lemma 1: the minimum possible number of non-local tasks for any
/// balancing of `loads` — each under-quota node must import its
/// deficit: `m = Σ_j (q_j − w_j)⁺`.
pub fn min_nonlocal_tasks(loads: &[i64]) -> i64 {
    loads
        .iter()
        .zip(&quotas(loads.iter().sum(), loads.len()))
        .map(|(&w, &t)| (t - w).max(0))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rips_topology::Mesh2D;

    #[test]
    fn apply_in_order() {
        // Transit: 0 -> 1 -> 2 works only in that order.
        let mut plan = TransferPlan::default();
        plan.push(0, 1, 2);
        plan.push(1, 2, 2);
        assert_eq!(plan.apply(&[2, 0, 0]), vec![0, 0, 2]);
        assert_eq!(plan.edge_cost(), 4);
    }

    #[test]
    #[should_panic(expected = "overdraws")]
    fn misordered_plan_detected() {
        let mut plan = TransferPlan::default();
        plan.push(1, 2, 2); // node 1 has nothing yet
        plan.push(0, 1, 2);
        plan.apply(&[2, 0, 0]);
    }

    #[test]
    fn zero_moves_are_dropped() {
        let mut plan = TransferPlan::default();
        plan.push(0, 1, 0);
        assert!(plan.moves.is_empty());
    }

    #[test]
    fn nonlocal_counts_unique_tasks_not_hops() {
        // 4 tasks travel 0 -> 1 -> 2: 4 nonlocal tasks, 8 edge cost.
        let mut plan = TransferPlan::default();
        plan.push(0, 1, 4);
        plan.push(1, 2, 4);
        let loads = [6, 2, 2];
        // Node 1 forwards the 4 foreign arrivals, keeping its natives.
        assert_eq!(plan.nonlocal_tasks(&loads), 4);
        assert_eq!(plan.edge_cost(), 8);
    }

    #[test]
    fn transit_node_keeps_natives() {
        // Node 1 must forward 2; it received 2 foreign and holds 2
        // native: it forwards the foreign ones.
        let mut plan = TransferPlan::default();
        plan.push(0, 1, 2);
        plan.push(1, 2, 2);
        assert_eq!(plan.nonlocal_tasks(&[4, 2, 0]), 2);
    }

    #[test]
    fn net_transfers_match_quota_deltas() {
        // 0 -> 1 -> 2 transit of 4 tasks: destinations receive from the
        // true origin (node 0), not the transit node.
        let mut plan = TransferPlan::default();
        plan.push(0, 1, 4);
        plan.push(1, 2, 4);
        let loads = [6, 2, 2];
        let t = plan.net_transfers(&loads);
        assert_eq!(t, vec![(0, 2, 4)]);
        // Conservation: applying the net transfers reproduces apply().
        let mut w = loads.to_vec();
        for &(s, d, c) in &t {
            w[s] -= c;
            w[d] += c;
        }
        assert_eq!(w, plan.apply(&loads));
    }

    #[test]
    fn min_nonlocal_is_sum_of_deficits() {
        // total 12 over 3 nodes -> quota 4 each; deficits 2 + 4.
        assert_eq!(min_nonlocal_tasks(&[12, 0, 0]), 8);
        assert_eq!(min_nonlocal_tasks(&[4, 4, 4]), 0);
        // Remainder: total 7, quotas [3,2,2]; deficits at node 1,2.
        assert_eq!(min_nonlocal_tasks(&[7, 0, 0]), 4);
    }

    #[test]
    fn link_local_check() {
        let mesh = Mesh2D::new(2, 2);
        let mut good = TransferPlan::default();
        good.push(0, 1, 1);
        assert!(good.is_link_local(&mesh));
        let mut bad = TransferPlan::default();
        bad.push(0, 3, 1); // diagonal
        assert!(!bad.is_link_local(&mesh));
    }
}
