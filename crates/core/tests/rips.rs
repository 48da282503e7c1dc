//! Behavioural tests for the RIPS runtime: completeness across the
//! 2×2 policy matrix, balance quality, locality, phase structure,
//! alternative topologies, and determinism.

use std::sync::Arc;

use rips_core::{rips, GlobalPolicy, LocalPolicy, Machine, RipsConfig, RipsOutcome};
use rips_desim::LatencyModel;
use rips_runtime::Costs;
use rips_taskgraph::{flat_uniform, geometric_tree, skewed_flat, Workload};
use rips_topology::{BinaryTree, Hypercube, Mesh2D};

fn run(
    w: &Arc<Workload>,
    machine: Machine,
    local: LocalPolicy,
    global: GlobalPolicy,
) -> RipsOutcome {
    rips(
        Arc::clone(w),
        machine,
        LatencyModel::paragon(),
        Costs::default(),
        7,
        RipsConfig {
            local,
            global,
            ..RipsConfig::default()
        },
    )
}

fn mesh(n: usize) -> Machine {
    Machine::Mesh(Mesh2D::near_square(n))
}

#[test]
fn policy_matrix_completes_flat_workload() {
    let w = Arc::new(flat_uniform(300, 500, 4000, 3));
    for local in [LocalPolicy::Eager, LocalPolicy::Lazy] {
        for global in [GlobalPolicy::Any, GlobalPolicy::All] {
            let out = run(&w, mesh(8), local, global);
            out.run
                .verify_complete(&w)
                .unwrap_or_else(|e| panic!("{local:?}/{global:?}: {e}"));
            assert!(out.run.system_phases >= 1, "{local:?}/{global:?}");
        }
    }
}

#[test]
fn policy_matrix_completes_dynamic_tree() {
    let w = Arc::new(geometric_tree(4, 5, 3, 3000, 11));
    for local in [LocalPolicy::Eager, LocalPolicy::Lazy] {
        for global in [GlobalPolicy::Any, GlobalPolicy::All] {
            let out = run(&w, mesh(9), local, global);
            out.run
                .verify_complete(&w)
                .unwrap_or_else(|e| panic!("{local:?}/{global:?}: {e}"));
        }
    }
}

#[test]
fn multi_round_workload_completes() {
    let w = Arc::new(Workload {
        name: "rounds".into(),
        rounds: vec![
            flat_uniform(80, 400, 2500, 1).rounds[0].clone(),
            flat_uniform(50, 400, 2500, 2).rounds[0].clone(),
            flat_uniform(95, 400, 2500, 3).rounds[0].clone(),
        ],
    });
    let out = run(&w, mesh(8), LocalPolicy::Lazy, GlobalPolicy::Any);
    out.run.verify_complete(&w).unwrap();
    // Each round opens with its own system phase.
    assert!(out.run.system_phases >= 3);
}

#[test]
fn single_node_machine() {
    let w = Arc::new(flat_uniform(40, 100, 300, 9));
    let out = run(
        &w,
        Machine::Mesh(Mesh2D::new(1, 1)),
        LocalPolicy::Lazy,
        GlobalPolicy::Any,
    );
    out.run.verify_complete(&w).unwrap();
    assert_eq!(out.run.nonlocal, 0);
}

#[test]
fn tree_and_hypercube_machines_work() {
    // 250 tasks so block seeding is uneven on 7 and 8 nodes and the
    // opening system phase has real work to move.
    let w = Arc::new(skewed_flat(250, 800, 6, 10, 5));
    for machine in [
        Machine::Tree(BinaryTree::new(7)),
        Machine::Cube(Hypercube::new(3)),
    ] {
        let out = run(&w, machine.clone(), LocalPolicy::Lazy, GlobalPolicy::Any);
        out.run
            .verify_complete(&w)
            .unwrap_or_else(|e| panic!("{machine:?}: {e}"));
        assert!(out.run.nonlocal > 0, "{machine:?} never balanced");
    }
}

#[test]
fn rips_is_deterministic() {
    let w = Arc::new(geometric_tree(6, 4, 3, 2000, 2));
    let a = run(&w, mesh(8), LocalPolicy::Lazy, GlobalPolicy::Any);
    let b = run(&w, mesh(8), LocalPolicy::Lazy, GlobalPolicy::Any);
    assert_eq!(a.run.stats.end_time, b.run.stats.end_time);
    assert_eq!(a.run.executed, b.run.executed);
    assert_eq!(a.phases, b.phases);
}

#[test]
fn initial_system_phase_balances_block_seeds() {
    // All 160 equal tasks block-seeded onto 16 nodes: after the opening
    // system phase every node should execute ~10 tasks.
    let w = Arc::new(flat_uniform(160, 2000, 2000, 4));
    let out = run(&w, mesh(16), LocalPolicy::Lazy, GlobalPolicy::Any);
    out.run.verify_complete(&w).unwrap();
    let max = *out.run.executed.iter().max().unwrap();
    let min = *out.run.executed.iter().min().unwrap();
    assert!(
        max - min <= 2,
        "uneven execution after MWA: {:?}",
        out.run.executed
    );
}

#[test]
fn hierarchical_mesh_machine_balances_block_seeds() {
    // Same workload as the flat-MWA balance test above: the tiled
    // planner lands on the identical canonical quotas, so block
    // seeding must balance just as evenly under RIPS-H.
    let w = Arc::new(flat_uniform(160, 2000, 2000, 4));
    let out = run(
        &w,
        Machine::MeshHier(Mesh2D::near_square(16)),
        LocalPolicy::Lazy,
        GlobalPolicy::Any,
    );
    out.run.verify_complete(&w).unwrap();
    assert!(out.run.system_phases >= 1);
    let max = *out.run.executed.iter().max().unwrap();
    let min = *out.run.executed.iter().min().unwrap();
    assert!(
        max - min <= 2,
        "uneven execution after tiled MWA: {:?}",
        out.run.executed
    );
}

#[test]
fn rips_locality_beats_random_by_far() {
    // Table I: RIPS nonlocal counts are 10-20x smaller than random's.
    let w = Arc::new(geometric_tree(16, 5, 3, 2000, 21));
    let out = run(&w, mesh(16), LocalPolicy::Lazy, GlobalPolicy::Any);
    let total = w.stats().tasks as u64;
    assert!(
        out.run.nonlocal < total / 3,
        "RIPS moved {} of {} tasks",
        out.run.nonlocal,
        total
    );
}

#[test]
fn phase_log_matches_structure() {
    let w = Arc::new(flat_uniform(100, 1000, 4000, 8));
    let out = run(&w, mesh(8), LocalPolicy::Lazy, GlobalPolicy::Any);
    assert!(!out.phases.is_empty());
    // Phase 1 is the initial scheduling phase and sees every root.
    assert_eq!(out.phases[0].phase, 1);
    assert_eq!(out.phases[0].total_tasks, 100);
    // Phase indices strictly increase.
    assert!(out.phases.windows(2).all(|w| w[0].phase < w[1].phase));
    // Migrations never exceed the tasks present.
    assert!(out.phases.iter().all(|p| p.migrated <= p.total_tasks));
}

#[test]
fn eager_passes_every_task_through_a_system_phase() {
    // Under Eager, generated tasks sit in the RTS queue and only
    // execute after a system phase scheduled them, so the per-phase
    // totals must add up to at least the number of generated tasks;
    // under Lazy, tasks can run unscheduled, so they need not.
    // (Which policy is *faster* is measured by the ablation bench.)
    let w = Arc::new(geometric_tree(4, 5, 4, 2500, 17));
    let eager = run(&w, mesh(8), LocalPolicy::Eager, GlobalPolicy::Any);
    let lazy = run(&w, mesh(8), LocalPolicy::Lazy, GlobalPolicy::Any);
    eager.run.verify_complete(&w).unwrap();
    lazy.run.verify_complete(&w).unwrap();
    let scheduled: i64 = eager.phases.iter().map(|p| p.total_tasks).sum();
    assert!(
        scheduled >= w.stats().tasks as i64,
        "eager scheduled only {scheduled} of {}",
        w.stats().tasks
    );
}

#[test]
fn any_is_more_responsive_than_all() {
    // ANY lets the first idle node interrupt, ALL waits for everyone:
    // structurally, ANY can only run at least as many system phases,
    // and ALL can only leave at least as much idle time per phase.
    // (Which policy *wins* is workload-dependent — the paper's
    // ANY-Lazy verdict is an aggregate over applications, reproduced
    // by the `ablation_policies` bench.)
    let w = Arc::new(skewed_flat(200, 1500, 5, 12, 3));
    let any = run(&w, mesh(16), LocalPolicy::Lazy, GlobalPolicy::Any);
    let all = run(&w, mesh(16), LocalPolicy::Lazy, GlobalPolicy::All);
    any.run.verify_complete(&w).unwrap();
    all.run.verify_complete(&w).unwrap();
    assert!(
        any.run.system_phases >= all.run.system_phases,
        "ANY {} phases < ALL {} phases",
        any.run.system_phases,
        all.run.system_phases
    );
}

#[test]
fn efficiency_is_high_on_well_fed_machine() {
    let w = Arc::new(flat_uniform(2000, 2000, 6000, 6));
    let out = run(&w, mesh(16), LocalPolicy::Lazy, GlobalPolicy::Any);
    out.run.verify_complete(&w).unwrap();
    assert!(
        out.run.efficiency() > 0.8,
        "efficiency {}",
        out.run.efficiency()
    );
}

#[test]
fn periodic_policy_completes() {
    // The paper's naive periodic-reduction transfer test, at a few
    // intervals spanning "too chatty" to "too sleepy".
    let w = Arc::new(geometric_tree(6, 5, 3, 2500, 4));
    for interval in [500u64, 5_000, 50_000] {
        let out = run(
            &w,
            mesh(8),
            LocalPolicy::Lazy,
            GlobalPolicy::Periodic(interval),
        );
        out.run
            .verify_complete(&w)
            .unwrap_or_else(|e| panic!("interval {interval}: {e}"));
    }
}

#[test]
fn periodic_policy_multi_round() {
    let w = Arc::new(Workload {
        name: "rounds".into(),
        rounds: vec![
            flat_uniform(60, 400, 2500, 1).rounds[0].clone(),
            flat_uniform(45, 400, 2500, 2).rounds[0].clone(),
        ],
    });
    let out = run(
        &w,
        mesh(8),
        LocalPolicy::Lazy,
        GlobalPolicy::Periodic(2_000),
    );
    out.run.verify_complete(&w).unwrap();
}

#[test]
fn redundant_initiators_are_counted_not_silently_dropped() {
    use rips_trace::metrics_rt::Counter;
    use rips_trace::{with_metrics, MetricsRegistry};
    // Two nodes, one equal task each: phase 1 moves nothing, each node
    // runs its task inside the plan-apply handler and goes idle before
    // it sees the other's init — so phase 2 has two initiators, and
    // each drops the other's init on arrival.
    let w = Arc::new(flat_uniform(2, 500, 500, 3));
    let reg = MetricsRegistry::new(2);
    let out = with_metrics(&reg, || {
        run(&w, mesh(2), LocalPolicy::Lazy, GlobalPolicy::Any)
    });
    out.run.verify_complete(&w).unwrap();
    assert_eq!(out.run.system_phases, 2);
    assert_eq!(reg.counter_total(Counter::InitsSuppressed), 2);
}

#[test]
fn eureka_signalling_completes_and_cuts_init_overhead() {
    // Hardware or-barrier init: same schedule quality, strictly less
    // sender CPU per phase. Visible on a machine large enough that the
    // naive broadcast's N-1 sends matter.
    let w = Arc::new(skewed_flat(800, 800, 6, 10, 5));
    let plain = run(&w, mesh(32), LocalPolicy::Lazy, GlobalPolicy::Any);
    let eureka = rips(
        Arc::clone(&w),
        mesh(32),
        LatencyModel::paragon(),
        Costs::default(),
        7,
        RipsConfig {
            local: LocalPolicy::Lazy,
            global: GlobalPolicy::Any,
            eureka: true,
            ..RipsConfig::default()
        },
    );
    plain.run.verify_complete(&w).unwrap();
    eureka.run.verify_complete(&w).unwrap();
    // Eureka moves strictly fewer payload bytes (init signals carry
    // none) for the same workload.
    assert!(
        eureka.run.stats.net.bytes <= plain.run.stats.net.bytes,
        "eureka {} bytes vs plain {}",
        eureka.run.stats.net.bytes,
        plain.run.stats.net.bytes
    );
    // The or-barrier absorbs re-asserts: one wavefront (≤ n - 1
    // deliveries) per phase no matter how many nodes go idle in the
    // same instant. The software broadcast has no such bound — every
    // simultaneous initiator fans out n - 1 sends — so without dedup
    // the init traffic is O(n²) per phase and dominates the event
    // count on large machines.
    assert!(
        eureka.run.stats.events < plain.run.stats.events,
        "eureka {} events vs plain {} — wavefront dedup not visible",
        eureka.run.stats.events,
        plain.run.stats.events
    );
}

#[test]
fn weighted_metric_completes_everywhere() {
    use rips_core::LoadMetric;
    let w = Arc::new(skewed_flat(400, 1000, 5, 15, 6));
    for machine in [mesh(8), mesh(16)] {
        let out = rips(
            Arc::clone(&w),
            machine,
            LatencyModel::paragon(),
            Costs::default(),
            3,
            RipsConfig {
                metric: LoadMetric::EstimatedWeight,
                ..RipsConfig::default()
            },
        );
        out.run.verify_complete(&w).unwrap();
    }
}

#[test]
fn weighted_metric_beats_counts_on_skewed_grains() {
    use rips_core::LoadMetric;
    // Every 4th task is 15x heavier: balancing by count leaves some
    // nodes with several whales; balancing by estimated weight spreads
    // the whales too, cutting idle time.
    let w = Arc::new(skewed_flat(600, 1000, 4, 15, 6));
    let run_with = |metric| {
        rips(
            Arc::clone(&w),
            mesh(16),
            LatencyModel::paragon(),
            Costs::default(),
            3,
            RipsConfig {
                metric,
                ..RipsConfig::default()
            },
        )
    };
    let by_count = run_with(LoadMetric::TaskCount);
    let by_weight = run_with(LoadMetric::EstimatedWeight);
    by_count.run.verify_complete(&w).unwrap();
    by_weight.run.verify_complete(&w).unwrap();
    assert!(
        by_weight.run.stats.end_time <= by_count.run.stats.end_time,
        "weighted {} > count {}",
        by_weight.run.stats.end_time,
        by_count.run.stats.end_time
    );
}
