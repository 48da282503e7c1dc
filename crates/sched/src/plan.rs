//! Transfer plans and their verification.

use rips_topology::{Mesh2D, NodeId};

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

    /// Checks every move is a single hop on `mesh`.
    pub fn is_link_local(&self, mesh: Mesh2D) -> bool {
        self.moves.iter().all(|m| mesh.distance(m.from, m.to) == 1)
    }

    /// Number of *non-local* tasks: tasks whose final node differs from
    /// their origin. Simulated with origin tracking; when forwarding, a
    /// node prefers to pass on tasks that are already foreign (a
    /// transit task stays one non-local task no matter how many links
    /// it crosses), keeping native tasks home as long as possible —
    /// the counting convention behind the paper's Theorem 2 and the
    /// "# of nonlocal tasks" column of Table I.
    pub fn nonlocal_tasks(&self, loads: &[i64]) -> i64 {
        let ledger = self.track(loads);
        (0..loads.len())
            .flat_map(|node| ledger.foreign(node))
            .map(|(_, count)| count)
            .sum()
    }

    /// Net origin→destination transfers implied by the plan: for each
    /// receiving node, how many tasks it ends up holding from each
    /// other origin. Used by the RIPS runtime to pack migrations into
    /// one message per (source, destination) pair ("tasks are packed
    /// together for transmission"). Destinations ascend; one
    /// destination's origins are in the order their first surviving
    /// task arrived.
    pub fn net_transfers(&self, loads: &[i64]) -> Vec<(NodeId, NodeId, i64)> {
        let ledger = self.track(loads);
        (0..loads.len())
            .flat_map(|node| ledger.foreign(node).map(move |(o, c)| (o, node, c)))
            .collect()
    }

    /// Executes the plan with origin tracking: a forwarding node passes
    /// on foreign tasks first, oldest first, then its own. Memory is
    /// O(n) words plus the live entries of one [`Ledger`]; a move
    /// allocates nothing once its buffers have grown.
    fn track(&self, loads: &[i64]) -> Ledger {
        let mut ledger = Ledger::new(loads);
        let mut taken: Vec<(NodeId, i64)> = Vec::new();
        for (i, m) in self.moves.iter().enumerate() {
            taken.clear();
            ledger.take(m, &mut taken);
            for &(origin, count) in &taken {
                ledger.credit(m.to, origin, count, i);
            }
        }
        ledger
    }

    /// `true` if final loads differ by at most one task (Theorem 1's
    /// postcondition) and match the canonical quotas.
    pub fn balances(&self, loads: &[i64]) -> bool {
        let finals = self.apply(loads);
        let total: i64 = loads.iter().sum();
        finals == quotas(total, loads.len())
    }
}

/// End of a ledger list.
const NIL: u32 = u32::MAX;

/// One origin's tasks held by a node that is not their origin.
struct Entry {
    origin: NodeId,
    count: i64,
    /// Next entry of the same node, in arrival order.
    next: u32,
}

/// Who holds whose tasks while a plan executes. A node's own tasks are
/// one count; its foreign holdings are a queue of [`Entry`]s in
/// arrival order, linked through one arena whose drained entries are
/// reused. Entries only leave from the front (oldest first), so each
/// queue needs a head and a tail.
struct Ledger {
    own: Vec<i64>,
    head: Vec<u32>,
    /// Meaningful only while `head` is not [`NIL`].
    tail: Vec<u32>,
    arena: Vec<Entry>,
    /// Drained entries, linked through `next`.
    free: u32,
}

impl Ledger {
    fn new(loads: &[i64]) -> Self {
        Ledger {
            own: loads.to_vec(),
            head: vec![NIL; loads.len()],
            tail: vec![NIL; loads.len()],
            arena: Vec::new(),
            free: NIL,
        }
    }

    /// `node`'s foreign holdings, oldest first.
    fn foreign(&self, node: NodeId) -> impl Iterator<Item = (NodeId, i64)> + '_ {
        let mut at = self.head[node];
        std::iter::from_fn(move || {
            if at == NIL {
                return None;
            }
            let e = &self.arena[at as usize];
            at = e.next;
            Some((e.origin, e.count))
        })
    }

    /// Takes `m.count` tasks off `m.from` into `taken` as
    /// `(origin, count)`: foreign entries oldest first, then its own.
    fn take(&mut self, m: &Move, taken: &mut Vec<(NodeId, i64)>) {
        let mut need = m.count;
        while need > 0 && self.head[m.from] != NIL {
            let at = self.head[m.from];
            let e = &mut self.arena[at as usize];
            let t = need.min(e.count);
            taken.push((e.origin, t));
            e.count -= t;
            need -= t;
            if e.count == 0 {
                self.head[m.from] = e.next;
                e.next = self.free;
                self.free = at;
            }
        }
        if need > 0 {
            assert!(self.own[m.from] >= need, "move {m:?} overdraws sender");
            self.own[m.from] -= need;
            taken.push((m.from, need));
        }
    }

    /// Adds `count` of `origin`'s tasks to `node` (during move `i`):
    /// its own merge into its count, a foreign origin it already holds
    /// into that entry, and a new one is appended as the newest.
    fn credit(&mut self, node: NodeId, origin: NodeId, count: i64, i: usize) {
        if origin == node {
            self.own[node] += count;
            return;
        }
        let mut at = self.head[node];
        while at != NIL {
            let e = &mut self.arena[at as usize];
            if e.origin == origin {
                e.count += count;
                return;
            }
            at = e.next;
        }
        let entry = Entry {
            origin,
            count,
            next: NIL,
        };
        let at = if self.free != NIL {
            let at = self.free;
            self.free = self.arena[at as usize].next;
            self.arena[at as usize] = entry;
            at
        } else {
            assert!(
                self.arena.len() < NIL as usize,
                "origin ledger outgrows u32 indices at node {node}, move {i}"
            );
            self.arena.push(entry);
            (self.arena.len() - 1) as u32
        };
        if self.head[node] == NIL {
            self.head[node] = at;
        } else {
            self.arena[self.tail[node] as usize].next = at;
        }
        self.tail[node] = at;
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
    fn own_tasks_coming_back_merge_into_the_own_count() {
        // Node 0's two tasks go to node 2 and come back while node 0
        // holds a task of node 1's; node 0 then sends that one on and
        // one of its own — which it holds only if the returned tasks
        // count as its own again.
        let mut plan = TransferPlan::default();
        plan.push(0, 2, 2);
        plan.push(1, 0, 1);
        plan.push(2, 0, 2);
        plan.push(0, 1, 2);
        let loads = [2, 2, 0];
        let ledger = plan.track(&loads);
        assert_eq!(ledger.own, vec![1, 2, 0]);
        assert_eq!(ledger.foreign(0).count(), 0);
        assert_eq!(ledger.foreign(1).collect::<Vec<_>>(), vec![(0, 1)]);
        // The last move's new entry reuses one the moves drained.
        assert_eq!(ledger.arena.len(), 2);
        assert_eq!(plan.net_transfers(&loads), vec![(0, 1, 1)]);
        assert_eq!(plan.nonlocal_tasks(&loads), 1);
        assert_eq!(plan.apply(&loads), vec![1, 3, 0]);
    }

    #[test]
    fn a_recreated_entry_comes_from_the_free_list_and_is_the_newest() {
        let mut plan = TransferPlan::default();
        plan.push(0, 2, 1); // node 2 holds [0]
        plan.push(2, 0, 1); // ...which drains home: one free entry
        plan.push(1, 2, 1); // node 2 holds [1], in the freed entry
        plan.push(3, 1, 1);
        plan.push(1, 3, 1); // node 1's entry drains: free again
        plan.push(0, 2, 1); // origin 0 re-created from it, newest
        let loads = [2, 1, 0, 1];
        let ledger = plan.track(&loads);
        assert_eq!(ledger.arena.len(), 2);
        assert_eq!(ledger.foreign(2).collect::<Vec<_>>(), vec![(1, 1), (0, 1)]);
        plan.push(2, 3, 1); // oldest foreign first: origin 1 moves on
        assert_eq!(plan.net_transfers(&loads), vec![(0, 2, 1), (1, 3, 1)]);
        assert_eq!(plan.apply(&loads), vec![1, 0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "overdraws sender")]
    fn tracking_detects_an_overdrawn_sender() {
        let mut plan = TransferPlan::default();
        plan.push(1, 2, 2);
        plan.net_transfers(&[2, 1, 0]);
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
        assert!(good.is_link_local(mesh));
        let mut bad = TransferPlan::default();
        bad.push(0, 3, 1); // diagonal
        assert!(!bad.is_link_local(mesh));
    }
}
