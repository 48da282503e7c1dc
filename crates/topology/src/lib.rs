//! The interconnect of the simulated multicomputer.
//!
//! The paper evaluates RIPS on an Intel Paragon, a 2-D mesh machine,
//! and that is the one topology here: [`Mesh2D`] behind the
//! [`Topology`] trait, which gives node enumeration, neighbourhood, hop
//! distance, and deterministic single-path routing (used by the
//! simulator to charge per-hop message latency and by the schedulers to
//! count communication steps).
//!
//! Node identifiers are dense `0..len()` integers; [`Mesh2D`] documents
//! its id ↔ coordinate mapping.

#![forbid(unsafe_code)]

mod mesh;

pub use mesh::Mesh2D;

/// Dense node identifier, `0..Topology::len()`.
pub type NodeId = usize;

/// A static point-to-point interconnect.
///
/// All implementations are connected graphs with symmetric links:
/// `b ∈ neighbors(a)` iff `a ∈ neighbors(b)`, and `distance` is the
/// shortest-path hop metric induced by `neighbors`.
///
/// The simulator asks `distance` once per message and `route_next_hop`
/// once per hop under link contention, at every machine size, so both
/// must be cheap: [`Mesh2D`] answers both in closed form (O(1)),
/// cross-validated against BFS by the invariant tests below.
pub trait Topology: Send + Sync {
    /// Number of nodes in the machine.
    fn len(&self) -> usize;

    /// `true` if the machine has no nodes (never the case for the
    /// provided constructors, which reject `len == 0`).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Direct neighbours of `node`.
    fn neighbors(&self, node: NodeId) -> Vec<NodeId>;

    /// Shortest-path hop distance between two nodes.
    fn distance(&self, a: NodeId, b: NodeId) -> usize;

    /// The next hop on a deterministic shortest path `from → to`.
    ///
    /// Returns `None` when `from == to`. Repeatedly following
    /// `route_next_hop` reaches `to` in exactly `distance(from, to)` hops.
    fn route_next_hop(&self, from: NodeId, to: NodeId) -> Option<NodeId>;

    /// Maximum hop distance over all node pairs.
    fn diameter(&self) -> usize;

    /// Short human-readable name, e.g. `"mesh 8x4"`.
    fn label(&self) -> String;
}

/// Walks the full deterministic route `from → to` (excluding `from`,
/// including `to`).
#[cfg(test)]
fn route<T: Topology + ?Sized>(topo: &T, from: NodeId, to: NodeId) -> Vec<NodeId> {
    let mut path = Vec::with_capacity(topo.distance(from, to));
    let mut cur = from;
    while let Some(next) = topo.route_next_hop(cur, to) {
        path.push(next);
        cur = next;
    }
    path
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    /// Brute-force BFS distance: the reference the closed-form
    /// `distance` implementations are held to.
    fn bfs_distance<T: Topology + ?Sized>(topo: &T, a: NodeId, b: NodeId) -> usize {
        use std::collections::VecDeque;
        if a == b {
            return 0;
        }
        let mut dist = vec![usize::MAX; topo.len()];
        dist[a] = 0;
        let mut q = VecDeque::from([a]);
        while let Some(n) = q.pop_front() {
            for m in topo.neighbors(n) {
                if dist[m] == usize::MAX {
                    dist[m] = dist[n] + 1;
                    if m == b {
                        return dist[m];
                    }
                    q.push_back(m);
                }
            }
        }
        panic!("topology is disconnected: no path {a} -> {b}");
    }

    fn check_invariants(topo: &dyn Topology) {
        let n = topo.len();
        assert!(n > 0);
        for a in 0..n {
            // Symmetric links.
            for b in topo.neighbors(a) {
                assert!(b < n);
                assert_ne!(a, b, "self-loop at {a}");
                assert!(
                    topo.neighbors(b).contains(&a),
                    "asymmetric link {a}->{b} in {}",
                    topo.label()
                );
                assert_eq!(topo.distance(a, b), 1);
            }
            assert_eq!(topo.distance(a, a), 0);
            assert!(topo.route_next_hop(a, a).is_none());
        }
        let mut max_d = 0;
        for a in 0..n {
            for b in 0..n {
                let d = topo.distance(a, b);
                assert_eq!(d, topo.distance(b, a), "distance not symmetric");
                assert_eq!(d, bfs_distance(topo, a, b), "closed-form != BFS");
                assert_eq!(route(topo, a, b).len(), d, "route length != distance");
                if d > 0 {
                    let hop = topo.route_next_hop(a, b).unwrap();
                    assert_eq!(topo.distance(hop, b), d - 1, "route does not progress");
                }
                max_d = max_d.max(d);
            }
        }
        assert_eq!(
            topo.diameter(),
            max_d,
            "diameter mismatch in {}",
            topo.label()
        );
    }

    #[test]
    fn mesh_invariants() {
        for (r, c) in [(1, 1), (1, 5), (5, 1), (2, 2), (3, 4), (4, 8)] {
            check_invariants(&Mesh2D::new(r, c));
        }
    }

    /// SplitMix64 — enough randomness for pair sampling, no deps.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The exhaustive `check_invariants` is O(n²); above ~100k nodes we
    /// sample instead. For each drawn pair: closed-form `distance` must
    /// equal BFS over `neighbors`, and the deterministic route must
    /// reach the destination in exactly `distance` hops.
    fn check_sampled(topo: &dyn Topology, pairs: usize, seed: u64) {
        let n = topo.len();
        let mut s = seed;
        for _ in 0..pairs {
            let a = (splitmix(&mut s) % n as u64) as NodeId;
            let b = (splitmix(&mut s) % n as u64) as NodeId;
            let d = topo.distance(a, b);
            assert_eq!(d, topo.distance(b, a), "distance not symmetric");
            assert_eq!(
                d,
                bfs_distance(topo, a, b),
                "closed-form != BFS for {a}->{b} in {}",
                topo.label()
            );
            // Walk the route, checking strict progress at every hop.
            let mut cur = a;
            let mut left = d;
            while let Some(next) = topo.route_next_hop(cur, b) {
                assert!(
                    topo.neighbors(cur).contains(&next),
                    "route hop {cur}->{next} is not a link"
                );
                left -= 1;
                assert_eq!(
                    topo.distance(next, b),
                    left,
                    "route does not progress at {cur}"
                );
                cur = next;
            }
            assert_eq!(cur, b, "route never reached the destination");
            assert_eq!(left, 0);
        }
    }

    #[test]
    fn mesh_sampled_at_scale() {
        // 350 × 300 = 105_000 nodes: 1.1·10¹⁰ pairs, far past what
        // the exhaustive check can afford.
        check_sampled(&Mesh2D::new(350, 300), 64, 0xA11CE);
    }

    #[test]
    fn line_sampled_at_scale() {
        // A 1 × 150_000 mesh: diameter 149_999 — far beyond u16;
        // exercises the widened computed-distance path.
        check_sampled(&Mesh2D::new(1, 150_000), 48, 0xB0B);
    }
}
