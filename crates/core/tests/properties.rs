//! Property tests for the RIPS runtime: arbitrary dynamic workloads on
//! arbitrary machines under every policy combination must execute every
//! task exactly once, conserve accounting, and respect the theorems'
//! balance guarantees per phase.

use std::sync::Arc;

use proptest::prelude::*;
use rips_core::{rips, GlobalPolicy, LocalPolicy, Machine, RipsConfig};
use rips_desim::LatencyModel;
use rips_runtime::Costs;
use rips_taskgraph::{TaskForest, Workload};
use rips_topology::Mesh2D;

/// Arbitrary small dynamic workload: 1-3 rounds, each a forest where
/// tasks may spawn children.
fn arb_workload() -> impl Strategy<Value = Workload> {
    let forest = (
        proptest::collection::vec(1u64..3_000, 1..25),
        proptest::collection::vec((0usize..25, 1u64..2_000), 0..20),
    )
        .prop_map(|(roots, children)| {
            let mut f = TaskForest::new();
            let ids: Vec<_> = roots.into_iter().map(|g| f.add_root(g)).collect();
            let mut all = ids.clone();
            for (parent_pick, grain) in children {
                let parent = all[parent_pick % all.len()];
                all.push(f.add_child(parent, grain));
            }
            f
        });
    proptest::collection::vec(forest, 1..=3).prop_map(|rounds| Workload {
        name: "arb".into(),
        rounds,
    })
}

fn arb_machine() -> impl Strategy<Value = Machine> {
    prop_oneof![
        ((1usize..=4), (1usize..=4)).prop_map(|(r, c)| Machine::Mesh(Mesh2D::new(r, c))),
        ((1usize..=4), (1usize..=4)).prop_map(|(r, c)| Machine::MeshHier(Mesh2D::new(r, c))),
        // Lines reach node counts (5, 7, 10, 11) no 4×4-bounded mesh has.
        (1usize..=12).prop_map(|n| Machine::Mesh(Mesh2D::new(1, n))),
    ]
}

fn arb_config() -> impl Strategy<Value = RipsConfig> {
    (
        prop_oneof![Just(LocalPolicy::Eager), Just(LocalPolicy::Lazy)],
        prop_oneof![
            Just(GlobalPolicy::Any),
            Just(GlobalPolicy::All),
            (500u64..20_000).prop_map(GlobalPolicy::Periodic),
        ],
    )
        .prop_map(|(local, global)| RipsConfig {
            local,
            global,
            ..RipsConfig::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every task executes exactly once under any machine and policy.
    #[test]
    fn no_task_lost_or_duplicated(
        w in arb_workload(),
        machine in arb_machine(),
        cfg in arb_config(),
        seed in 0u64..100,
    ) {
        let w = Arc::new(w);
        let out = rips(
            Arc::clone(&w),
            machine,
            LatencyModel::paragon(),
            Costs::default(),
            seed,
            cfg,
        );
        prop_assert_eq!(out.outcome.total_executed(), w.stats().tasks as u64);
        // Executed user time equals the workload's total work.
        prop_assert_eq!(out.outcome.stats.total_user_us(), w.stats().total_work_us);
    }

    /// Phase logs are internally consistent: migrations never exceed
    /// queued totals, and Σ e_k ≥ migrated (a task crosses at least one
    /// link to count).
    #[test]
    fn phase_log_consistency(
        w in arb_workload(),
        seed in 0u64..100,
    ) {
        let w = Arc::new(w);
        let out = rips(
            Arc::clone(&w),
            Machine::Mesh(Mesh2D::new(3, 3)),
            LatencyModel::paragon(),
            Costs::default(),
            seed,
            RipsConfig::default(),
        );
        for p in &out.phases {
            prop_assert!(p.migrated <= p.total_tasks);
            prop_assert!(p.edge_cost >= p.migrated);
        }
        // Non-local executions are bounded by total migrations.
        let migrated: i64 = out.phases.iter().map(|p| p.migrated).sum();
        prop_assert!(out.outcome.nonlocal as i64 <= migrated);
    }
}
