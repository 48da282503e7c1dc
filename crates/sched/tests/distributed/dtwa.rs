//! The Tree Walking Algorithm as a distributed SPMD program.
//!
//! Companion to the MWA oracle (`dmwa`): TWA's up sweep (subtree
//! sums converge to the root), the root's `w_avg`/`R` broadcast back
//! down, and the forced-flow exchanges, all executed as per-node state
//! machines over the lock-step BSP machine. The reference [25]
//! complexity — `O(log n)` on a balanced tree — shows up directly as
//! the measured communication-step count (≤ `4·height + 2`: one
//! convergecast, one broadcast, and the two directions of forced
//! flows, each pipelined along the tree height).

use rips_topology::{BinaryTree, NodeId, Topology};

use crate::bsp::{BspMachine, BspProgram};
use crate::plan::TransferPlan;
use crate::twa::twa_steps;

#[derive(Debug, Clone, Copy)]
enum Msg {
    /// Up sweep: subtree total converging toward the root.
    SubtreeSum(i64),
    /// Down sweep: `(w_avg, R)` from the root.
    Bcast(i64, i64),
    /// Forced flow upward (count recorded by the sender's move log).
    TasksUp(#[allow(dead_code)] i64),
    /// Forced flow downward.
    TasksDown(#[allow(dead_code)] i64),
}

struct Node {
    me: NodeId,
    n: usize,
    load: i64,
    /// Subtree sums reported by children (filled during the up sweep).
    child_sums: Vec<Option<i64>>,
    children: Vec<NodeId>,
    parent: Option<NodeId>,
    sum_sent: bool,
    bcast: Option<(i64, i64)>,
    bcast_forwarded: bool,
    /// Expected inbound forced flows (computed from the broadcast) and
    /// what actually arrived — kept separate because a flow can arrive
    /// in the same round as the broadcast that predicts it.
    expect_from_parent: bool,
    got_from_parent: bool,
    expect_from_child: Vec<bool>,
    got_from_child: Vec<bool>,
    sent_up: bool,
    sent_down: Vec<bool>,
    moves: Vec<(usize, NodeId, NodeId, i64)>,
}

impl Node {
    /// Quota of the subtree rooted at `v` (requires the broadcast).
    fn subtree_quota(&self, v: NodeId, wavg: i64, rem: i64) -> i64 {
        // Heap-ordered subtree of v: ids are not contiguous, so sum the
        // per-node quotas by walking the implicit tree. Cheap: subtree
        // sizes are O(n) and this runs O(height) times per node.
        let mut total = 0;
        let mut stack = vec![v];
        while let Some(u) = stack.pop() {
            total += wavg + i64::from((u as i64) < rem);
            for c in [2 * u + 1, 2 * u + 2] {
                if c < self.n {
                    stack.push(c);
                }
            }
        }
        total
    }

    /// Net forced flow on the edge to child `c`: positive = downward
    /// (this node sends to `c`).
    fn edge_flow_down(&self, ci: usize, wavg: i64, rem: i64) -> i64 {
        let c = self.children[ci];
        let quota = self.subtree_quota(c, wavg, rem);
        let sum = self.child_sums[ci].expect("up sweep complete");
        quota - sum
    }
}

impl BspProgram for Node {
    type Msg = Msg;

    fn round(
        &mut self,
        _me: NodeId,
        round: usize,
        inbox: Vec<(NodeId, Msg)>,
        outbox: &mut Vec<(NodeId, Msg)>,
    ) {
        for (from, msg) in inbox {
            match msg {
                Msg::SubtreeSum(s) => {
                    let ci = self
                        .children
                        .iter()
                        .position(|&c| c == from)
                        .expect("child");
                    self.child_sums[ci] = Some(s);
                }
                Msg::Bcast(wavg, rem) => self.bcast = Some((wavg, rem)),
                Msg::TasksUp(_) => {
                    let ci = self
                        .children
                        .iter()
                        .position(|&c| c == from)
                        .expect("child");
                    self.got_from_child[ci] = true;
                }
                Msg::TasksDown(_) => self.got_from_parent = true,
            }
        }

        // Up sweep: send the subtree total once all children reported.
        if !self.sum_sent && self.child_sums.iter().all(Option::is_some) {
            let total = self.load
                + self
                    .child_sums
                    .iter()
                    .map(|s| s.expect("checked"))
                    .sum::<i64>();
            self.sum_sent = true;
            match self.parent {
                Some(p) => outbox.push((p, Msg::SubtreeSum(total))),
                None => {
                    // Root: totals known; start the down sweep.
                    let n = self.n as i64;
                    self.bcast = Some((total / n, total % n));
                }
            }
        }

        // Down sweep + forced flows.
        if let Some((wavg, rem)) = self.bcast {
            if !self.bcast_forwarded {
                self.bcast_forwarded = true;
                for &c in &self.children {
                    outbox.push((c, Msg::Bcast(wavg, rem)));
                }
                // Now every edge flow is locally decidable: mark what
                // we expect to receive.
                for ci in 0..self.children.len() {
                    self.expect_from_child[ci] = self.edge_flow_down(ci, wavg, rem) < 0;
                }
                if self.parent.is_some() {
                    // Flow on the parent edge, seen from the parent:
                    // positive = parent sends down to us.
                    let my_quota = self.subtree_quota(self.me, wavg, rem);
                    let my_sum = self.load
                        + self
                            .child_sums
                            .iter()
                            .map(|s| s.expect("up sweep done"))
                            .sum::<i64>();
                    self.expect_from_parent = my_quota > my_sum;
                }
            }
            let parent_owed = self.expect_from_parent && !self.got_from_parent;
            let child_owed = |node: &Self, skip: Option<usize>| {
                node.expect_from_child
                    .iter()
                    .zip(&node.got_from_child)
                    .enumerate()
                    .any(|(k, (&e, &g))| Some(k) != skip && e && !g)
            };
            // Send upward once everything owed to us from below arrived
            // (transit tasks must exist before we forward them).
            if let Some(p) = self.parent {
                let my_quota = self.subtree_quota(self.me, wavg, rem);
                let my_sum = self.load
                    + self
                        .child_sums
                        .iter()
                        .map(|s| s.expect("up sweep done"))
                        .sum::<i64>();
                let up = my_sum - my_quota; // positive = send up
                if up > 0 && !self.sent_up && !child_owed(self, None) {
                    self.sent_up = true;
                    self.moves.push((round, self.me, p, up));
                    outbox.push((p, Msg::TasksUp(up)));
                }
            }
            // A downward send on edge ci needs: all inbound flows to
            // this node (from parent and from *other* children) done.
            for ci in 0..self.children.len() {
                let flow = self.edge_flow_down(ci, wavg, rem);
                if flow > 0 && !self.sent_down[ci] && !parent_owed && !child_owed(self, Some(ci)) {
                    self.sent_down[ci] = true;
                    let c = self.children[ci];
                    self.moves.push((round, self.me, c, flow));
                    outbox.push((c, Msg::TasksDown(flow)));
                }
            }
        }
    }
}

/// Runs TWA as a distributed SPMD program over the heap-ordered binary
/// tree. Returns the plan (identical per-edge flows to [`crate::twa`])
/// and the measured communication-step count.
///
/// # Panics
/// Panics on length mismatch, negative loads, or a protocol bug
/// (failing to land on the quotas).
pub fn twa_distributed(tree: &BinaryTree, loads: &[i64]) -> (TransferPlan, usize) {
    let n = tree.len();
    assert_eq!(loads.len(), n, "one load per node required");
    assert!(loads.iter().all(|&w| w >= 0), "negative load");

    let machine = BspMachine::new(tree, |id| {
        let children = tree.children(id);
        Node {
            me: id,
            n,
            load: loads[id],
            child_sums: vec![None; children.len()],
            expect_from_child: vec![false; children.len()],
            got_from_child: vec![false; children.len()],
            sent_down: vec![false; children.len()],
            children,
            parent: tree.parent(id),
            sum_sent: false,
            bcast: None,
            bcast_forwarded: false,
            expect_from_parent: false,
            got_from_parent: false,
            sent_up: false,
            moves: Vec::new(),
        }
    });
    let (nodes, outcome) = machine.run(8 * tree.height().max(1) + 8);

    let mut stamped: Vec<(usize, NodeId, NodeId, i64)> = nodes
        .iter()
        .flat_map(|nd| nd.moves.iter().copied())
        .collect();
    stamped.sort_by_key(|&(round, from, to, _)| (round, from, to));
    let mut plan = TransferPlan::default();
    for (_, from, to, count) in stamped {
        plan.push(from, to, count);
    }

    let total: i64 = loads.iter().sum();
    let finals = plan.apply(loads);
    assert_eq!(
        finals,
        crate::flow::quotas(total, n),
        "distributed TWA missed its quotas"
    );
    assert!(
        outcome.comm_steps <= twa_steps(tree.height()),
        "used {} steps on height {}",
        outcome.comm_steps,
        tree.height()
    );
    (plan, outcome.comm_steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsp::link_flows;
    use crate::twa;
    use proptest::prelude::*;

    fn check(n: usize, loads: &[i64]) {
        let tree = BinaryTree::new(n);
        let central = twa(&tree, loads);
        let (distributed, _) = twa_distributed(&tree, loads);
        assert_eq!(
            link_flows(&central),
            link_flows(&distributed),
            "n={n} loads={loads:?}"
        );
    }

    #[test]
    fn agrees_on_small_trees() {
        check(1, &[5]);
        check(3, &[0, 9, 0]);
        check(7, &[14, 0, 0, 0, 0, 0, 0]);
        check(7, &[0, 0, 0, 14, 0, 0, 0]);
    }

    #[test]
    fn agrees_with_remainder_and_gaps() {
        check(12, &[5, 0, 0, 0, 0, 0, 24, 0, 0, 0, 7, 0]);
        check(6, &[1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn step_count_is_logarithmic() {
        let tree = BinaryTree::new(255);
        let loads: Vec<i64> = (0..255).map(|k| ((k * 31) % 17) as i64).collect();
        let (_, steps) = twa_distributed(&tree, &loads);
        // height = 7; up sweep + broadcast + two flow directions.
        assert!(steps <= twa_steps(7), "steps = {steps}");
    }

    proptest! {
        /// The distributed TWA produces the same forced per-edge flows
        /// as the centralized sweep, within the logarithmic step bound.
        #[test]
        fn distributed_twa_agrees_with_centralized(
            n in 1usize..=24,
            seed_loads in proptest::collection::vec(0i64..=60, 24),
        ) {
            let tree = BinaryTree::new(n);
            let loads = &seed_loads[..n];
            let central = twa(&tree, loads);
            let (distributed, steps) = twa_distributed(&tree, loads);
            prop_assert_eq!(link_flows(&central), link_flows(&distributed));
            prop_assert!(steps <= twa_steps(tree.height()));
        }
    }
}
