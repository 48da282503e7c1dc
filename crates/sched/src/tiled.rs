//! Hierarchical (tiled) MWA: the full-mesh walk split into two levels
//! so a single scheduling phase stays tractable at 10⁵–10⁶ nodes.
//!
//! The flat [`mwa`](crate::mwa) needs `3(n1+n2) ≈ 6√n` communication
//! steps — 6 000 steps on a 1024×1024 machine, against the paper's 36
//! on the 8×4 Paragon partition. The tiled variant keeps the paper's
//! algorithm but applies it at two scales:
//!
//! 1. **Cross-tile exchange** — the mesh is partitioned into `s × s`
//!    tiles with `s = ⌈n^(1/4)⌉` (so the tile grid and the tiles have
//!    comparable side). Tile surpluses against the canonical quotas
//!    are matched greedily, surplus tile → deficit tile in row-major
//!    order, and settled by *direct* node-level transfers from
//!    above-quota donors to below-quota receivers. After this stage
//!    every tile holds exactly its quota total.
//! 2. **Within-tile MWA** — each tile is a small mesh in its own
//!    right; the unmodified Figure-3 walk runs on it with link-local
//!    moves.
//!
//! Both levels are `O(n^(1/4))` walks, so a phase costs
//! `O(n^(1/4))` communication steps instead of `O(√n)`.
//!
//! **Why the result is still exactly Theorem 1.** Tiles are contiguous
//! rectangles, so a tile's members sorted by local row-major position
//! are sorted by global id, and the members with global id below the
//! remainder cut `R` form a prefix of that order. Hence the canonical
//! quota vector of the tile's own sub-problem equals the global quota
//! vector restricted to the tile, and the within-tile walk lands every
//! node on its *global* canonical quota: final loads are identical to
//! the flat MWA's, spread ≤ 1 globally ([`TransferPlan::balances`]
//! holds).
//!
//! **What is traded away is Theorem 2's equality.** The cross-tile
//! stage moves whole-tile imbalances point-to-point; a node can both
//! import cross-tile tasks and export within its tile, so the migrated
//! total may exceed the Lemma-1 lower bound `Σ(q_j − w_j)⁺` (it can
//! never be below it — that direction is a feasibility bound for *any*
//! balancing plan). The `rips-audit` Auditor therefore audits tiled
//! runs with the per-tile generalisation: spread ≤ 1 inside every
//! tile, each tile's post-schedule total equal to its quota total, and
//! the Lemma-1 bound as an inequality.

use rips_topology::{Mesh2D, NodeId, Topology};

use crate::mwa::mwa;
use crate::plan::TransferPlan;

/// The two-level decomposition of a mesh: `s × s` tiles in row-major
/// tile order, with `s` the smallest integer whose fourth power covers
/// the machine (`s⁴ ≥ n`), so tile count and tile size stay balanced.
/// Edge tiles are clipped when `s` does not divide the mesh sides.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileGrid {
    rows: usize,
    cols: usize,
    side: usize,
    tile_rows: usize,
    tile_cols: usize,
}

impl TileGrid {
    /// The tiling of `mesh`.
    pub fn new(mesh: &Mesh2D) -> Self {
        let (rows, cols) = (mesh.rows(), mesh.cols());
        let n = (rows as u128) * (cols as u128);
        let mut side = 1usize;
        while (side as u128).pow(4) < n {
            side += 1;
        }
        TileGrid {
            rows,
            cols,
            side,
            tile_rows: rows.div_ceil(side),
            tile_cols: cols.div_ceil(side),
        }
    }

    /// Tile side `s = ⌈n^(1/4)⌉`.
    pub fn side(&self) -> usize {
        self.side
    }

    /// Tile-grid rows.
    pub fn tile_rows(&self) -> usize {
        self.tile_rows
    }

    /// Tile-grid columns.
    pub fn tile_cols(&self) -> usize {
        self.tile_cols
    }

    /// Number of tiles.
    pub fn tiles(&self) -> usize {
        self.tile_rows * self.tile_cols
    }

    /// The tile (row-major tile index) containing `node`.
    pub fn tile_of(&self, node: NodeId) -> usize {
        let (i, j) = (node / self.cols, node % self.cols);
        (i / self.side) * self.tile_cols + j / self.side
    }

    /// Per-node tile index — the shape external checkers (the
    /// `rips-audit` Auditor) consume.
    pub fn assignment(&self) -> Vec<usize> {
        (0..self.rows * self.cols)
            .map(|k| self.tile_of(k))
            .collect()
    }

    /// Rows and columns of `tile` (edge tiles may be clipped).
    pub fn tile_dims(&self, tile: usize) -> (usize, usize) {
        let (ti, tj) = (tile / self.tile_cols, tile % self.tile_cols);
        let tr = self.side.min(self.rows - ti * self.side);
        let tc = self.side.min(self.cols - tj * self.side);
        (tr, tc)
    }

    /// Communication-step bound for one hierarchical phase: the
    /// Figure-3 bound `3(n1+n2)` applied to the tile grid (cross-tile
    /// exchange) plus to one tile (within-tile walk). Both factors are
    /// `O(n^(1/4))` where the flat walk is `O(√n)`.
    pub fn hier_steps(&self) -> usize {
        3 * (self.tile_rows + self.tile_cols) + 3 * (self.side + self.side)
    }
}

/// Intermediate tiled-MWA state, exposed for tests, diagnostics, and
/// the Auditor wiring.
#[derive(Debug, Clone)]
pub struct TiledTrace {
    /// The decomposition used.
    pub grid: TileGrid,
    /// Global canonical quotas (identical to the flat MWA's).
    pub quotas: Vec<i64>,
    /// Tasks moved point-to-point by the cross-tile exchange.
    pub cross_tasks: i64,
    /// Cross-tile (donor node, receiver node) transfers emitted.
    pub cross_moves: usize,
}

/// Runs hierarchical MWA on `loads` (row-major over `mesh`), returning
/// the transfer plan and the trace.
///
/// The plan lands every node on the same canonical quota vector as the
/// flat [`mwa`](crate::mwa) — `plan.balances(loads)` holds — but its
/// cross-tile moves are point-to-point rather than link-local, and the
/// migrated total is only bounded below (not pinned) by Lemma 1; see
/// the module docs.
///
/// ```
/// use rips_sched::{flow::quotas, tiled_mwa};
/// use rips_topology::Mesh2D;
///
/// let mesh = Mesh2D::new(8, 8);
/// let loads: Vec<i64> = (0..64).map(|k| (k * 13 % 7) as i64).collect();
/// let (plan, trace) = tiled_mwa(&mesh, &loads);
/// assert_eq!(plan.apply(&loads), quotas(loads.iter().sum(), 64)); // Theorem 1
/// assert_eq!(trace.quotas, quotas(loads.iter().sum(), 64));
/// ```
///
/// # Panics
/// Panics if `loads.len() != mesh.len()` or any load is negative.
pub fn tiled_mwa(mesh: &Mesh2D, loads: &[i64]) -> (TransferPlan, TiledTrace) {
    let n = mesh.len();
    assert_eq!(loads.len(), n, "one load per node required");
    assert!(loads.iter().all(|&w| w >= 0), "negative load");

    let grid = TileGrid::new(mesh);
    let tiles = grid.tiles();

    let total: i64 = loads.iter().sum();
    let wavg = total / n as i64;
    let r = total % n as i64;
    let quotas: Vec<i64> = (0..n).map(|k| wavg + i64::from((k as i64) < r)).collect();

    // Tile membership in global-id order (== local row-major order,
    // since tiles are contiguous rectangles) and tile surpluses.
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); tiles];
    let mut surplus = vec![0i64; tiles];
    for k in 0..n {
        let t = grid.tile_of(k);
        members[t].push(k);
        surplus[t] += loads[k] - quotas[k];
    }

    let mut w = loads.to_vec();
    let mut plan = TransferPlan::default();
    let mut cross_tasks = 0i64;
    let mut cross_moves = 0usize;

    // Stage 1: cross-tile exchange. Greedy two-pointer matching of
    // surplus tiles to deficit tiles in row-major tile order, settled
    // by direct donor→receiver node transfers: donors only give their
    // above-quota excess, receivers only fill up to quota, so the
    // stage can neither overdraw a node nor overshoot a quota.
    let mut donor_cursor = vec![0usize; tiles];
    let mut recv_cursor = vec![0usize; tiles];
    let mut d = 0usize; // next surplus tile
    let mut rcv = 0usize; // next deficit tile
    loop {
        while d < tiles && surplus[d] <= 0 {
            d += 1;
        }
        while rcv < tiles && surplus[rcv] >= 0 {
            rcv += 1;
        }
        if d >= tiles || rcv >= tiles {
            break;
        }
        let mut amount = surplus[d].min(-surplus[rcv]);
        surplus[d] -= amount;
        surplus[rcv] += amount;
        cross_tasks += amount;
        while amount > 0 {
            // Advance to the next donor with excess / receiver with
            // a deficit; both must exist while `amount > 0` because
            // tile surplus is exactly the sum of node excesses minus
            // deficits.
            while w[members[d][donor_cursor[d]]] <= quotas[members[d][donor_cursor[d]]] {
                donor_cursor[d] += 1;
            }
            while w[members[rcv][recv_cursor[rcv]]] >= quotas[members[rcv][recv_cursor[rcv]]] {
                recv_cursor[rcv] += 1;
            }
            let from = members[d][donor_cursor[d]];
            let to = members[rcv][recv_cursor[rcv]];
            let count = amount.min(w[from] - quotas[from]).min(quotas[to] - w[to]);
            plan.push(from, to, count);
            w[from] -= count;
            w[to] += count;
            amount -= count;
            cross_moves += 1;
        }
    }

    // Stage 2: within-tile MWA. Each tile now holds exactly its quota
    // total, and the sub-problem's canonical quotas coincide with the
    // global ones (contiguous-rectangle prefix property, see module
    // docs), so the Figure-3 walk lands every member on its global
    // quota with link-local moves only.
    let mut local = Vec::new();
    for (t, mem) in members.iter().enumerate() {
        let (tr, tc) = grid.tile_dims(t);
        debug_assert_eq!(mem.len(), tr * tc);
        local.clear();
        local.extend(mem.iter().map(|&k| w[k]));
        let sub = Mesh2D::new(tr, tc);
        let (sub_plan, _) = mwa(&sub, &local);
        for m in &sub_plan.moves {
            plan.push(mem[m.from], mem[m.to], m.count);
            w[mem[m.from]] -= m.count;
            w[mem[m.to]] += m.count;
        }
    }

    debug_assert_eq!(w, quotas, "tiled MWA must land exactly on the quotas");
    (
        plan,
        TiledTrace {
            grid,
            quotas,
            cross_tasks,
            cross_moves,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::quotas;
    use crate::plan::min_nonlocal_tasks;

    /// SplitMix64, for deterministic load generation without deps.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn check(mesh: &Mesh2D, loads: &[i64]) -> (TransferPlan, TiledTrace) {
        let (plan, trace) = tiled_mwa(mesh, loads);
        let finals = plan.apply(loads);
        // Theorem 1 survives tiling exactly: the plan lands on the
        // same canonical quotas as the flat walk.
        let canonical = quotas(loads.iter().sum(), loads.len());
        assert_eq!(finals, canonical, "did not land on quotas");
        assert!(plan.balances(loads));
        // Lemma 1 stays a valid lower bound (equality is not claimed).
        assert!(
            plan.nonlocal_tasks(loads) >= min_nonlocal_tasks(loads),
            "below the feasibility bound on {loads:?}"
        );
        // Moves are either within one tile (and then link-local) or
        // cross-tile donor→receiver transfers.
        for m in &plan.moves {
            if trace.grid.tile_of(m.from) == trace.grid.tile_of(m.to) {
                assert_eq!(mesh.distance(m.from, m.to), 1, "non-local in-tile move");
            }
        }
        (plan, trace)
    }

    fn random_loads(n: usize, max: u64, seed: u64) -> Vec<i64> {
        let mut s = seed;
        (0..n)
            .map(|_| (splitmix(&mut s) % (max + 1)) as i64)
            .collect()
    }

    #[test]
    fn side_is_fourth_root() {
        assert_eq!(TileGrid::new(&Mesh2D::new(1, 1)).side(), 1);
        assert_eq!(TileGrid::new(&Mesh2D::new(4, 4)).side(), 2);
        // 1024×1024 = 2^20 nodes: 32⁴ = 2^20 exactly.
        let g = TileGrid::new(&Mesh2D::new(1024, 1024));
        assert_eq!(g.side(), 32);
        assert_eq!(g.tiles(), 1024);
        // Two O(n^(1/4)) walks, against 3·2048 = 6144 for the flat one.
        assert_eq!(g.hier_steps(), 3 * 64 + 6 * 32);
    }

    #[test]
    fn assignment_partitions_contiguous_rectangles() {
        let mesh = Mesh2D::new(5, 7);
        let g = TileGrid::new(&mesh);
        let a = g.assignment();
        assert_eq!(a.len(), 35);
        // Every tile's members are sorted by global id, and per-tile
        // sizes match the clipped dims.
        let mut sizes = vec![0usize; g.tiles()];
        for &t in &a {
            sizes[t] += 1;
        }
        for (t, &sz) in sizes.iter().enumerate() {
            let (tr, tc) = g.tile_dims(t);
            assert_eq!(sz, tr * tc, "tile {t}");
        }
    }

    #[test]
    fn balanced_input_is_noop() {
        let mesh = Mesh2D::new(6, 6);
        let (plan, _) = check(&mesh, &vec![4; 36]);
        assert!(plan.moves.is_empty());
    }

    #[test]
    fn degenerate_meshes() {
        check(&Mesh2D::new(1, 1), &[7]);
        check(&Mesh2D::new(1, 9), &[18, 0, 0, 0, 0, 0, 0, 0, 0]);
        check(&Mesh2D::new(9, 1), &[0, 0, 0, 0, 18, 0, 0, 0, 0]);
    }

    #[test]
    fn hot_corner_crosses_tiles() {
        let mesh = Mesh2D::new(8, 8);
        let mut loads = vec![0i64; 64];
        loads[0] = 640;
        let (_, trace) = check(&mesh, &loads);
        // All of the other tiles' quotas must arrive from tile 0.
        assert!(trace.cross_tasks > 0);
    }

    #[test]
    fn remainder_prefix_property_holds_across_tiles() {
        // total = 101 over 36 nodes: wavg 2, remainder 29 — the cut
        // falls inside several tiles, exercising the prefix argument.
        let mesh = Mesh2D::new(6, 6);
        let mut loads = vec![0i64; 36];
        loads[35] = 101;
        let (plan, trace) = check(&mesh, &loads);
        assert_eq!(trace.quotas[..29], vec![3i64; 29][..]);
        assert_eq!(trace.quotas[29..], vec![2i64; 7][..]);
        assert_eq!(plan.apply(&loads), trace.quotas);
    }

    #[test]
    fn random_meshes_land_on_quotas() {
        for (rows, cols, seed) in [
            (3, 5, 1u64),
            (8, 4, 2),
            (10, 10, 3),
            (17, 13, 4),
            (32, 32, 5),
        ] {
            let mesh = Mesh2D::new(rows, cols);
            let loads = random_loads(rows * cols, 40, seed);
            check(&mesh, &loads);
        }
    }

    #[test]
    fn agrees_with_flat_mwa_finals() {
        // Same final distribution as the flat walk on every input —
        // the tiling changes the route, never the result.
        let mesh = Mesh2D::new(12, 9);
        let loads = random_loads(108, 25, 0xFEED);
        let (tiled, _) = tiled_mwa(&mesh, &loads);
        let (flat, _) = mwa(&mesh, &loads);
        assert_eq!(tiled.apply(&loads), flat.apply(&loads));
    }

    #[test]
    fn hundred_thousand_nodes() {
        // 320×320 = 102 400 nodes, skewed load: the flat walk would
        // need 1 920 steps; the tiled one 3·(18+18) + 6·18 = 216.
        let mesh = Mesh2D::new(320, 320);
        let n = mesh.len();
        let mut loads = random_loads(n, 4, 0xBEEF);
        loads[0] += 50_000;
        loads[n / 2] += 30_000;
        let (plan, trace) = tiled_mwa(&mesh, &loads);
        assert_eq!(plan.apply(&loads), quotas(loads.iter().sum(), n));
        assert_eq!(trace.grid.side(), 18);
        assert!(trace.grid.hier_steps() < 6 * 320 / 2);
    }
}
