//! Successive-shortest-path min-cost max-flow.
//!
//! SPFA-based (queue Bellman–Ford) shortest paths on the residual
//! graph; integral capacities and costs. Complexity is fine for the
//! paper's instances (meshes up to 256 nodes, flow values in the tens
//! of thousands): each augmentation saturates at least one edge on a
//! shortest path and pushes the full bottleneck.

/// Identifier of an edge added via [`FlowNetwork::add_edge`]; can be
/// used after solving to query the flow it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeId(usize);

#[derive(Debug, Clone)]
struct Edge {
    to: usize,
    cap: i64,
    cost: i64,
    flow: i64,
    /// Index of the reverse edge in `edges`.
    rev: usize,
}

/// A directed flow network with costs.
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    adj: Vec<Vec<usize>>,
    edges: Vec<Edge>,
}

impl FlowNetwork {
    /// Creates a network with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            adj: vec![Vec::new(); n],
            edges: Vec::new(),
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// `true` if the network has no vertices.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Adds a directed edge `u → v` with `cap` capacity and per-unit
    /// `cost`, plus its zero-capacity reverse. Negative capacity is
    /// rejected; negative cost is allowed only if the caller guarantees
    /// no negative cycles (the balance reduction uses costs ≥ 0).
    pub fn add_edge(&mut self, u: usize, v: usize, cap: i64, cost: i64) -> EdgeId {
        assert!(cap >= 0, "negative capacity");
        assert!(u < self.len() && v < self.len(), "vertex out of range");
        let id = self.edges.len();
        self.edges.push(Edge {
            to: v,
            cap,
            cost,
            flow: 0,
            rev: id + 1,
        });
        self.edges.push(Edge {
            to: u,
            cap: 0,
            cost: -cost,
            flow: 0,
            rev: id,
        });
        self.adj[u].push(id);
        self.adj[v].push(id + 1);
        EdgeId(id)
    }

    /// Flow currently assigned to a forward edge.
    pub fn flow(&self, e: EdgeId) -> i64 {
        self.edges[e.0].flow
    }

    /// Computes a minimum-cost maximum flow from `s` to `t`. Returns
    /// `(max_flow, total_cost)`. Can be called once per network.
    pub fn min_cost_max_flow(&mut self, s: usize, t: usize) -> (i64, i64) {
        assert_ne!(s, t, "source equals sink");
        let n = self.len();
        let mut total_flow = 0i64;
        let mut total_cost = 0i64;
        loop {
            // SPFA shortest path by cost on the residual graph.
            let mut dist = vec![i64::MAX; n];
            let mut in_queue = vec![false; n];
            let mut pre_edge = vec![usize::MAX; n];
            dist[s] = 0;
            let mut queue = std::collections::VecDeque::from([s]);
            in_queue[s] = true;
            while let Some(u) = queue.pop_front() {
                in_queue[u] = false;
                let du = dist[u];
                for &ei in &self.adj[u] {
                    let e = &self.edges[ei];
                    if e.cap - e.flow > 0 && du + e.cost < dist[e.to] {
                        dist[e.to] = du + e.cost;
                        pre_edge[e.to] = ei;
                        if !in_queue[e.to] {
                            in_queue[e.to] = true;
                            queue.push_back(e.to);
                        }
                    }
                }
            }
            if dist[t] == i64::MAX {
                break;
            }
            // Bottleneck along the path.
            let mut push = i64::MAX;
            let mut v = t;
            while v != s {
                let e = &self.edges[pre_edge[v]];
                push = push.min(e.cap - e.flow);
                v = self.edges[e.rev].to;
            }
            // Apply.
            let mut v = t;
            while v != s {
                let ei = pre_edge[v];
                self.edges[ei].flow += push;
                let rev = self.edges[ei].rev;
                self.edges[rev].flow -= push;
                v = self.edges[rev].to;
            }
            total_flow += push;
            total_cost += push * dist[t];
        }
        (total_flow, total_cost)
    }

    /// Verifies flow conservation at every vertex except `s` and `t`.
    /// Test/diagnostic helper.
    pub fn check_conservation(&self, s: usize, t: usize) -> bool {
        let mut balance = vec![0i64; self.len()];
        for (i, e) in self.edges.iter().enumerate() {
            if i % 2 == 0 {
                // forward edges only; reverse flows mirror them
                let u = self.edges[e.rev].to;
                balance[u] -= e.flow;
                balance[e.to] += e.flow;
            }
        }
        balance
            .iter()
            .enumerate()
            .all(|(v, &b)| v == s || v == t || b == 0)
    }

    /// `true` if the residual graph contains no negative-cost cycle —
    /// the optimality certificate for a min-cost flow (Lawler's
    /// criterion, the one Lemma 2 of the paper argues with).
    pub fn residual_has_no_negative_cycle(&self) -> bool {
        let n = self.len();
        // Bellman-Ford from a virtual super-source connected to all.
        let mut dist = vec![0i64; n];
        for round in 0..n {
            let mut changed = false;
            for e in &self.edges {
                if e.cap - e.flow > 0 {
                    let u = self.edges[e.rev].to;
                    if dist[u] + e.cost < dist[e.to] {
                        dist[e.to] = dist[u] + e.cost;
                        changed = true;
                    }
                }
            }
            if !changed {
                return true;
            }
            if round == n - 1 {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_path() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 4, 2);
        net.add_edge(1, 2, 3, 1);
        let (f, c) = net.min_cost_max_flow(0, 2);
        assert_eq!(f, 3);
        assert_eq!(c, 3 * 3);
        assert!(net.check_conservation(0, 2));
        assert!(net.residual_has_no_negative_cycle());
    }

    #[test]
    fn prefers_cheap_path() {
        // Two parallel paths 0->1->3 (cost 1+1) and 0->2->3 (cost 5+5);
        // capacity forces a split only beyond 2 units.
        let mut net = FlowNetwork::new(4);
        let cheap_a = net.add_edge(0, 1, 2, 1);
        net.add_edge(1, 3, 2, 1);
        let dear_a = net.add_edge(0, 2, 2, 5);
        net.add_edge(2, 3, 2, 5);
        let (f, c) = net.min_cost_max_flow(0, 3);
        assert_eq!(f, 4);
        assert_eq!(c, 2 * 2 + 2 * 10);
        assert_eq!(net.flow(cheap_a), 2);
        assert_eq!(net.flow(dear_a), 2);
    }

    #[test]
    fn rerouting_through_residual_edges() {
        // Classic example where the greedy first path must be partially
        // undone via a residual edge.
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 1, 1);
        net.add_edge(0, 2, 1, 4);
        net.add_edge(1, 2, 1, 1);
        net.add_edge(1, 3, 1, 10);
        net.add_edge(2, 3, 1, 1);
        let (f, c) = net.min_cost_max_flow(0, 3);
        assert_eq!(f, 2);
        // Optimal: 0-1-2-3 (cost 3) + 0-2? cap used... enumerate:
        // paths: 0-1-3 (11), 0-1-2-3 (3), 0-2-3 (5).
        // Max flow 2 = {0-1-2-3, 0-2-3}? 0-2 cap 1 and 2-3 cap 1 shared.
        // 2-3 cap 1 only, so second unit must use 1-3: {0-1-2-3 & ...}
        // actually 0-1 cap1: units: u1: 0-1-2-3 (3); u2: 0-2-3 blocked
        // (2-3 full) -> 0-2 + 2-1? no reverse... u2: 0-2-3 impossible;
        // u2 via 0-2, residual 2-1? only if flow 1->2 exists: yes undo:
        // 0-2-(residual 2->1)-1-3 = 4 - 1 + 10 = 13; or direct
        // 0-1? full. Total best = 3 + 13 = 16.
        assert_eq!(c, 16);
        assert!(net.check_conservation(0, 3));
        assert!(net.residual_has_no_negative_cycle());
    }

    #[test]
    fn disconnected_sink_gives_zero() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 5, 1);
        let (f, c) = net.min_cost_max_flow(0, 2);
        assert_eq!((f, c), (0, 0));
    }

    #[test]
    fn zero_capacity_edges_carry_nothing() {
        let mut net = FlowNetwork::new(2);
        let e = net.add_edge(0, 1, 0, 1);
        let (f, _) = net.min_cost_max_flow(0, 1);
        assert_eq!(f, 0);
        assert_eq!(net.flow(e), 0);
    }
}
