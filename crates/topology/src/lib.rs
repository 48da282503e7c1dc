//! The interconnect of the simulated multicomputer.
//!
//! The paper evaluates RIPS on an Intel Paragon, a 2-D mesh machine,
//! and that is the one machine here: [`Mesh2D`], a `Copy` value that
//! every layer takes by value. It gives node enumeration, neighbourhood,
//! hop distance, and deterministic single-path routing (used by the
//! simulator to charge per-hop message latency and by the schedulers to
//! count communication steps).
//!
//! Node identifiers are dense `0..len()` integers; [`Mesh2D`] documents
//! its id ↔ coordinate mapping.

#![forbid(unsafe_code)]

mod mesh;

pub use mesh::Mesh2D;

/// Dense node identifier, `0..Mesh2D::len()`.
pub type NodeId = usize;

/// The machine under its older, trait-era name.
///
/// Kept only for the benchmark harness (`benchmark/src/sim.rs`), which
/// imports it and may not change outside a benchmark PR; everything
/// else names [`Mesh2D`].
pub type Topology = Mesh2D;

#[cfg(test)]
mod trait_tests {
    use super::*;

    /// Brute-force BFS distance: the reference the closed-form
    /// `distance` is held to.
    fn bfs_distance(mesh: Mesh2D, a: NodeId, b: NodeId) -> usize {
        use std::collections::VecDeque;
        if a == b {
            return 0;
        }
        let mut dist = vec![usize::MAX; mesh.len()];
        dist[a] = 0;
        let mut q = VecDeque::from([a]);
        while let Some(n) = q.pop_front() {
            for m in mesh.neighbors(n) {
                if dist[m] == usize::MAX {
                    dist[m] = dist[n] + 1;
                    if m == b {
                        return dist[m];
                    }
                    q.push_back(m);
                }
            }
        }
        panic!("mesh is disconnected: no path {a} -> {b}");
    }

    /// Links are symmetric, `distance` is the BFS hop metric, every
    /// route is a shortest path, and `diameter` is the largest distance.
    fn check_invariants(mesh: Mesh2D) {
        let n = mesh.len();
        assert!(n > 0);
        for a in 0..n {
            for b in mesh.neighbors(a) {
                assert!(b < n);
                assert_ne!(a, b, "self-loop at {a}");
                assert!(
                    mesh.neighbors(b).contains(&a),
                    "asymmetric link {a}->{b} in {}",
                    mesh.label()
                );
                assert_eq!(mesh.distance(a, b), 1);
            }
            assert_eq!(mesh.distance(a, a), 0);
            assert!(mesh.route_next_hop(a, a).is_none());
        }
        let mut max_d = 0;
        for a in 0..n {
            for b in 0..n {
                let d = mesh.distance(a, b);
                assert_eq!(d, mesh.distance(b, a), "distance not symmetric");
                assert_eq!(d, bfs_distance(mesh, a, b), "closed-form != BFS");
                assert_eq!(mesh.route(a, b).len(), d, "route length != distance");
                if d > 0 {
                    let hop = mesh.route_next_hop(a, b).unwrap();
                    assert_eq!(mesh.distance(hop, b), d - 1, "route does not progress");
                }
                max_d = max_d.max(d);
            }
        }
        assert_eq!(
            mesh.diameter(),
            max_d,
            "diameter mismatch in {}",
            mesh.label()
        );
    }

    #[test]
    fn mesh_invariants() {
        for (r, c) in [(1, 1), (1, 5), (5, 1), (2, 2), (3, 4), (4, 8)] {
            check_invariants(Mesh2D::new(r, c));
        }
    }

    /// The benchmark harness (`benchmark/src/sim.rs`) imports
    /// `rips_topology::Topology`; tier-1 does not build that package,
    /// so this keeps the name compiling here.
    #[test]
    fn topology_names_the_mesh() {
        let mesh: Topology = Mesh2D::new(3, 4);
        assert_eq!(mesh.label(), "mesh 3x4");
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
    fn check_sampled(mesh: Mesh2D, pairs: usize, seed: u64) {
        let n = mesh.len();
        let mut s = seed;
        for _ in 0..pairs {
            let a = (splitmix(&mut s) % n as u64) as NodeId;
            let b = (splitmix(&mut s) % n as u64) as NodeId;
            let d = mesh.distance(a, b);
            assert_eq!(d, mesh.distance(b, a), "distance not symmetric");
            assert_eq!(
                d,
                bfs_distance(mesh, a, b),
                "closed-form != BFS for {a}->{b} in {}",
                mesh.label()
            );
            // Walk the route, checking strict progress at every hop.
            let mut cur = a;
            let mut left = d;
            while let Some(next) = mesh.route_next_hop(cur, b) {
                assert!(
                    mesh.neighbors(cur).contains(&next),
                    "route hop {cur}->{next} is not a link"
                );
                left -= 1;
                assert_eq!(
                    mesh.distance(next, b),
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
        check_sampled(Mesh2D::new(350, 300), 64, 0xA11CE);
    }

    #[test]
    fn line_sampled_at_scale() {
        // A 1 × 150_000 mesh: diameter 149_999 — far beyond u16;
        // exercises the widened computed-distance path.
        check_sampled(Mesh2D::new(1, 150_000), 48, 0xB0B);
    }
}
