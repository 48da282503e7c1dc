//! The Dimension Exchange Method (Cybenko 1989), the related-work
//! parallel scheduler the paper contrasts MWA with (§4): pairwise load
//! averaging across each hypercube dimension in turn.
//!
//! With integer task counts each exchange rounds, so the final spread
//! can be as large as the number of dimensions — unlike MWA's ≤ 1 —
//! and tasks may ricochet across several links ("the DEM scheduling
//! algorithm generates redundant communications").

use rips_topology::{Hypercube, Topology};

use crate::plan::TransferPlan;

/// Communication steps of the dimension-exchange method on a
/// `d`-dimensional hypercube: one exchange per dimension.
pub fn dem_steps(dim: usize) -> usize {
    dim
}

/// Runs DEM on `loads` over a hypercube, returning the transfer plan.
/// The plan balances to within `dim` tasks (not to quota) — that is
/// inherent to the method and part of what Table/Figure comparisons
/// show.
///
/// # Panics
/// Panics if `loads.len() != cube.len()` or any load is negative.
pub fn dem(cube: &Hypercube, loads: &[i64]) -> TransferPlan {
    let n = cube.len();
    assert_eq!(loads.len(), n, "one load per node required");
    assert!(loads.iter().all(|&w| w >= 0), "negative load");

    let mut w = loads.to_vec();
    let mut plan = TransferPlan::default();
    for k in 0..cube.dim() {
        for a in 0..n {
            let b = cube.across(a, k);
            if a < b {
                // Pairwise averaging: the heavier node sends half the
                // difference (rounded down) to the lighter one.
                let diff = w[a] - w[b];
                if diff >= 2 {
                    let send = diff / 2;
                    plan.push(a, b, send);
                    w[a] -= send;
                    w[b] += send;
                } else if diff <= -2 {
                    let send = (-diff) / 2;
                    plan.push(b, a, send);
                    w[b] -= send;
                    w[a] += send;
                }
            }
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spread(w: &[i64]) -> i64 {
        w.iter().max().unwrap() - w.iter().min().unwrap()
    }

    #[test]
    fn dem_is_logarithmic() {
        assert_eq!(dem_steps(5), 5); // 32 nodes
        assert_eq!(dem_steps(7), 7); // 128 nodes
    }

    #[test]
    fn exact_when_powers_align() {
        let cube = Hypercube::new(3);
        let loads = vec![80, 0, 0, 0, 0, 0, 0, 0];
        let plan = dem(&cube, &loads);
        let finals = plan.apply(&loads);
        assert_eq!(finals, vec![10; 8]);
        assert!(plan.is_link_local(&cube));
    }

    #[test]
    fn integer_rounding_leaves_bounded_spread() {
        let cube = Hypercube::new(4);
        let loads: Vec<i64> = (0..16).map(|k| (k * k * 7 % 31) as i64).collect();
        let plan = dem(&cube, &loads);
        let finals = plan.apply(&loads);
        assert!(spread(&finals) <= 4, "spread {} > dim", spread(&finals));
        // Conservation.
        assert_eq!(finals.iter().sum::<i64>(), loads.iter().sum::<i64>());
    }

    #[test]
    fn dem_costs_more_than_optimal_sometimes() {
        // DEM's redundant communication: compare Σe_k against MCMF.
        let cube = Hypercube::new(3);
        let loads = vec![0, 16, 0, 0, 0, 0, 0, 0];
        let plan = dem(&cube, &loads);
        let opt = crate::flow::optimal_rebalance(&cube, &loads);
        assert!(plan.edge_cost() >= opt.cost, "DEM cannot beat the optimum");
    }

    #[test]
    fn single_node_cube() {
        let cube = Hypercube::new(0);
        let plan = dem(&cube, &[9]);
        assert!(plan.moves.is_empty());
    }

    #[test]
    fn pair_exchange() {
        let cube = Hypercube::new(1);
        let plan = dem(&cube, &[10, 2]);
        assert_eq!(plan.apply(&[10, 2]), vec![6, 6]);
        assert_eq!(plan.edge_cost(), 4);
    }
}
