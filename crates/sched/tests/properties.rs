//! Property-based validation of the scheduling algorithms against the
//! paper's theorems and the MCMF optimum.

use proptest::prelude::*;
use rips_sched::flow::{optimal_rebalance, quotas};
use rips_sched::{dem, dem_steps, min_nonlocal_tasks, mwa, mwa_steps, twa, twa_steps};
use rips_topology::{BinaryTree, Hypercube, Mesh2D, Topology};

/// Arbitrary mesh shape and loads: dims 1..=8, loads 0..=60.
fn mesh_and_loads() -> impl Strategy<Value = (Mesh2D, Vec<i64>)> {
    ((1usize..=8), (1usize..=8)).prop_flat_map(|(r, c)| {
        proptest::collection::vec(0i64..=60, r * c)
            .prop_map(move |loads| (Mesh2D::new(r, c), loads))
    })
}

proptest! {
    /// Theorem 1: after MWA the per-node spread is at most one, and the
    /// result is exactly the canonical quota vector.
    #[test]
    fn mwa_theorem1_balance((mesh, loads) in mesh_and_loads()) {
        let (plan, trace) = mwa(&mesh, &loads);
        let finals = plan.apply(&loads);
        prop_assert_eq!(&finals, &trace.quotas);
        let total: i64 = loads.iter().sum();
        prop_assert_eq!(&finals, &quotas(total, mesh.len()));
        let mn = finals.iter().min().unwrap();
        let mx = finals.iter().max().unwrap();
        prop_assert!(mx - mn <= 1);
    }

    /// Theorem 2: MWA moves exactly the minimum number of non-local
    /// tasks (the sum of under-quota deficits).
    #[test]
    fn mwa_theorem2_locality((mesh, loads) in mesh_and_loads()) {
        let (plan, _) = mwa(&mesh, &loads);
        prop_assert_eq!(plan.nonlocal_tasks(&loads), min_nonlocal_tasks(&loads));
    }

    /// Every MWA move crosses exactly one mesh link, and the plan never
    /// overdraws a node (checked inside `apply`).
    #[test]
    fn mwa_moves_are_link_local((mesh, loads) in mesh_and_loads()) {
        let (plan, _) = mwa(&mesh, &loads);
        prop_assert!(plan.is_link_local(&mesh));
        plan.apply(&loads); // panics on overdraw
    }

    /// MWA can never beat the MCMF optimum, and on ≤ 4 processors it
    /// matches it exactly (Lemma 2).
    #[test]
    fn mwa_cost_vs_optimal((mesh, loads) in mesh_and_loads()) {
        let (plan, _) = mwa(&mesh, &loads);
        let opt = optimal_rebalance(&mesh, &loads);
        prop_assert!(plan.edge_cost() >= opt.cost,
            "MWA {} beat the optimum {}", plan.edge_cost(), opt.cost);
        if mesh.len() <= 4 {
            prop_assert_eq!(plan.edge_cost(), opt.cost);
        }
    }

    /// Conservation: no tasks created or destroyed.
    #[test]
    fn mwa_conserves_tasks((mesh, loads) in mesh_and_loads()) {
        let (plan, _) = mwa(&mesh, &loads);
        let finals = plan.apply(&loads);
        prop_assert_eq!(finals.iter().sum::<i64>(), loads.iter().sum::<i64>());
    }

    /// TWA on trees is optimal in Σe_k (forced flows) and balances to
    /// quota.
    #[test]
    fn twa_is_optimal(
        n in 1usize..=24,
        seed_loads in proptest::collection::vec(0i64..=60, 24),
    ) {
        let tree = BinaryTree::new(n);
        let loads = &seed_loads[..n];
        let plan = twa(&tree, loads);
        prop_assert!(plan.is_link_local(&tree));
        let finals = plan.apply(loads);
        let total: i64 = loads.iter().sum();
        prop_assert_eq!(finals, quotas(total, n));
        let opt = optimal_rebalance(&tree, loads);
        prop_assert_eq!(plan.edge_cost(), opt.cost);
        prop_assert_eq!(plan.nonlocal_tasks(loads), min_nonlocal_tasks(loads));
    }

    /// DEM conserves tasks, stays link-local, and lands within `dim`
    /// tasks of balanced.
    #[test]
    fn dem_bounded_spread(
        dim in 0usize..=5,
        seed_loads in proptest::collection::vec(0i64..=60, 32),
    ) {
        let cube = Hypercube::new(dim);
        let loads = &seed_loads[..cube.len()];
        let plan = dem(&cube, loads);
        prop_assert!(plan.is_link_local(&cube));
        let finals = plan.apply(loads);
        prop_assert_eq!(finals.iter().sum::<i64>(), loads.iter().sum::<i64>());
        let mn = finals.iter().min().unwrap();
        let mx = finals.iter().max().unwrap();
        prop_assert!(mx - mn <= dim.max(1) as i64,
            "spread {} exceeds dim {}", mx - mn, dim);
    }

    /// The MCMF reduction always lands on the quotas and its link flows
    /// reproduce them.
    #[test]
    fn optimal_plan_is_consistent((mesh, loads) in mesh_and_loads()) {
        let opt = optimal_rebalance(&mesh, &loads);
        prop_assert!(opt.verify(&loads));
        let total: i64 = loads.iter().sum();
        prop_assert_eq!(&opt.final_loads, &quotas(total, mesh.len()));
    }
}

proptest! {
    /// The distributed SPMD realisation of MWA produces exactly the
    /// same per-link flows as the centralized Figure 3 arithmetic, and
    /// stays within the paper's 3(n1+n2) communication-step bound.
    #[test]
    fn distributed_mwa_agrees_with_centralized((mesh, loads) in mesh_and_loads()) {
        use std::collections::BTreeMap;
        let (central, _) = mwa(&mesh, &loads);
        let (distributed, steps) = rips_sched::mwa_distributed(&mesh, &loads);
        let flows = |p: &rips_sched::TransferPlan| {
            let mut m: BTreeMap<(usize, usize), i64> = BTreeMap::new();
            for mv in &p.moves {
                *m.entry((mv.from, mv.to)).or_insert(0) += mv.count;
            }
            m
        };
        prop_assert_eq!(flows(&central), flows(&distributed));
        prop_assert!(steps <= mwa_steps(&mesh));
    }
}

proptest! {
    /// The distributed TWA produces the same forced per-edge flows as
    /// the centralized sweep, within the logarithmic step bound.
    #[test]
    fn distributed_twa_agrees_with_centralized(
        n in 1usize..=24,
        seed_loads in proptest::collection::vec(0i64..=60, 24),
    ) {
        use std::collections::BTreeMap;
        let tree = BinaryTree::new(n);
        let loads = &seed_loads[..n];
        let central = twa(&tree, loads);
        let (distributed, steps) = rips_sched::twa_distributed(&tree, loads);
        let flows = |p: &rips_sched::TransferPlan| {
            let mut m: BTreeMap<(usize, usize), i64> = BTreeMap::new();
            for mv in &p.moves {
                *m.entry((mv.from, mv.to)).or_insert(0) += mv.count;
            }
            m
        };
        prop_assert_eq!(flows(&central), flows(&distributed));
        prop_assert!(steps <= twa_steps(tree.height()));
    }
}

proptest! {
    /// The distributed DEM is flow-identical to the centralized one and
    /// uses exactly one communication step per hypercube dimension.
    #[test]
    fn distributed_dem_agrees_with_centralized(
        dim in 0usize..=5,
        seed_loads in proptest::collection::vec(0i64..=60, 32),
    ) {
        use std::collections::BTreeMap;
        let cube = Hypercube::new(dim);
        let loads = &seed_loads[..cube.len()];
        let central = dem(&cube, loads);
        let (distributed, steps) = rips_sched::dem_distributed(&cube, loads);
        let flows = |p: &rips_sched::TransferPlan| {
            let mut m: BTreeMap<(usize, usize), i64> = BTreeMap::new();
            for mv in &p.moves {
                *m.entry((mv.from, mv.to)).or_insert(0) += mv.count;
            }
            m
        };
        prop_assert_eq!(flows(&central), flows(&distributed));
        prop_assert!(steps <= dem_steps(dim));
    }
}
