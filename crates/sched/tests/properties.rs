//! Property-based validation of the scheduling algorithms against the
//! paper's theorems and the MCMF optimum.

use proptest::prelude::*;
use rips_sched::flow::{optimal_rebalance, quotas};
use rips_sched::{min_nonlocal_tasks, mwa, tiled_mwa, TransferPlan};
use rips_topology::{Mesh2D, NodeId, Topology};

/// Arbitrary mesh shape and loads: dims 1..=8, loads 0..=60.
fn mesh_and_loads() -> impl Strategy<Value = (Mesh2D, Vec<i64>)> {
    ((1usize..=8), (1usize..=8)).prop_flat_map(|(r, c)| {
        proptest::collection::vec(0i64..=60, r * c)
            .prop_map(move |loads| (Mesh2D::new(r, c), loads))
    })
}

/// `n` loads that are mostly zero with a few hot spots: the shape that
/// sends tasks down long transit chains.
fn sparse_hot_spots(n: usize) -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(
        prop_oneof![Just(0i64), Just(0i64), Just(0i64), 0i64..=400],
        n,
    )
}

/// Mesh shapes up to 12×12 with uniform or sparse hot-spot loads.
fn tracking_mesh_and_loads() -> impl Strategy<Value = (Mesh2D, Vec<i64>)> {
    ((1usize..=12), (1usize..=12)).prop_flat_map(|(r, c)| {
        prop_oneof![
            proptest::collection::vec(0i64..=60, r * c),
            sparse_hot_spots(r * c),
        ]
        .prop_map(move |loads| (Mesh2D::new(r, c), loads))
    })
}

/// The origin tracker as it was first written, one `Vec` per node: the
/// reference the ledger behind `net_transfers` and `nonlocal_tasks` is
/// held to. Foreign tasks leave first, oldest first; arrivals merge
/// into the entry of their origin or are appended.
fn reference_holdings(plan: &TransferPlan, loads: &[i64]) -> Vec<Vec<(NodeId, i64)>> {
    let mut holdings: Vec<Vec<(NodeId, i64)>> =
        (0..loads.len()).map(|i| vec![(i, loads[i])]).collect();
    for m in &plan.moves {
        let mut need = m.count;
        let mut taken: Vec<(NodeId, i64)> = Vec::new();
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

/// Checks `plan`'s `net_transfers` (same entries, same order) and
/// `nonlocal_tasks` against [`reference_holdings`].
fn tracking_matches_reference(plan: &TransferPlan, loads: &[i64]) -> Result<(), String> {
    let mut want = Vec::new();
    for (node, held) in reference_holdings(plan, loads).iter().enumerate() {
        for &(origin, count) in held {
            if origin != node && count > 0 {
                want.push((origin, node, count));
            }
        }
    }
    prop_assert_eq!(plan.net_transfers(loads), want.clone());
    prop_assert_eq!(
        plan.nonlocal_tasks(loads),
        want.iter().map(|t| t.2).sum::<i64>()
    );
    Ok(())
}

proptest! {
    /// The origin ledger reproduces the per-node reference on every
    /// planner RIPS runs.
    #[test]
    fn mesh_tracking_matches_reference((mesh, loads) in tracking_mesh_and_loads()) {
        tracking_matches_reference(&mwa(&mesh, &loads).0, &loads)?;
        tracking_matches_reference(&tiled_mwa(&mesh, &loads).0, &loads)?;
    }
}

/// A 120×130 mesh with near-uniform loads: most nodes hand on a few
/// tasks, so phase 2's walk makes one move per node and the ledger
/// reuses drained entries throughout.
#[test]
fn large_mesh_tracking_matches_reference() {
    let mesh = Mesh2D::new(120, 130);
    let mut rng = TestRng::for_test("large_mesh_tracking_matches_reference");
    let loads: Vec<i64> = (0..mesh.len())
        .map(|_| 20 + (rng.next_u64() % 5) as i64)
        .collect();
    for plan in [mwa(&mesh, &loads).0, tiled_mwa(&mesh, &loads).0] {
        assert!(plan.net_transfers(&loads).len() > 8_000);
        tracking_matches_reference(&plan, &loads).unwrap();
    }
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
