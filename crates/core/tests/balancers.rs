//! Behavioural tests for the three baseline balancers: completeness,
//! conservation, determinism, and the qualitative properties the paper
//! attributes to each.

use std::sync::Arc;

use rips_core::{gradient, random, rid, RID_U};
use rips_desim::LatencyModel;
use rips_runtime::{Costs, RunOutcome};
use rips_taskgraph::{flat_uniform, geometric_tree, skewed_flat, Workload};
use rips_topology::{Mesh2D, Topology};

fn mesh(n: usize) -> Arc<dyn Topology> {
    Arc::new(Mesh2D::near_square(n))
}

fn run_all(w: &Arc<Workload>, nodes: usize, seed: u64) -> [RunOutcome; 3] {
    let costs = Costs::default();
    let lat = LatencyModel::paragon();
    [
        random(Arc::clone(w), mesh(nodes), lat, costs, seed),
        gradient(Arc::clone(w), mesh(nodes), lat, costs, seed),
        rid(Arc::clone(w), mesh(nodes), lat, costs, seed, RID_U),
    ]
}

#[test]
fn all_balancers_execute_every_task_exactly_once() {
    let w = Arc::new(flat_uniform(200, 500, 3000, 9));
    for (i, out) in run_all(&w, 8, 42).iter().enumerate() {
        out.verify_complete(&w)
            .unwrap_or_else(|e| panic!("balancer {i}: {e}"));
    }
}

#[test]
fn multi_round_workloads_complete() {
    let w = Arc::new(Workload {
        name: "three-round".into(),
        rounds: vec![
            flat_uniform(60, 200, 900, 1).rounds[0].clone(),
            flat_uniform(45, 200, 900, 2).rounds[0].clone(),
            flat_uniform(70, 200, 900, 3).rounds[0].clone(),
        ],
    });
    for (i, out) in run_all(&w, 6, 7).iter().enumerate() {
        out.verify_complete(&w)
            .unwrap_or_else(|e| panic!("balancer {i}: {e}"));
    }
}

#[test]
fn dynamic_task_generation_completes() {
    let w = Arc::new(geometric_tree(6, 5, 3, 2000, 13));
    for (i, out) in run_all(&w, 9, 5).iter().enumerate() {
        out.verify_complete(&w)
            .unwrap_or_else(|e| panic!("balancer {i}: {e}"));
    }
}

#[test]
fn single_node_machine_works() {
    let w = Arc::new(flat_uniform(30, 100, 200, 4));
    for (i, out) in run_all(&w, 1, 1).iter().enumerate() {
        out.verify_complete(&w)
            .unwrap_or_else(|e| panic!("balancer {i}: {e}"));
        assert_eq!(out.nonlocal, 0, "balancer {i} moved tasks on 1 node");
    }
}

#[test]
fn runs_are_deterministic() {
    let w = Arc::new(skewed_flat(150, 300, 10, 20, 3));
    let a = run_all(&w, 8, 99);
    let b = run_all(&w, 8, 99);
    for i in 0..3 {
        assert_eq!(a[i].stats.end_time, b[i].stats.end_time, "balancer {i}");
        assert_eq!(a[i].executed, b[i].executed, "balancer {i}");
        assert_eq!(a[i].nonlocal, b[i].nonlocal, "balancer {i}");
    }
}

#[test]
fn random_allocation_has_poor_locality() {
    // ~ (N-1)/N of dynamically generated tasks land off-origin; the
    // paper's Table I shows 7342/7579 ≈ 97% nonlocal on 32 nodes.
    let w = Arc::new(geometric_tree(16, 5, 3, 2000, 21));
    let total = w.stats().tasks as f64;
    let out = random(
        Arc::clone(&w),
        mesh(16),
        LatencyModel::paragon(),
        Costs::default(),
        5,
    );
    let frac = out.nonlocal as f64 / total;
    assert!(frac > 0.75, "random locality unexpectedly good: {frac}");
}

#[test]
fn gradient_moves_fewer_tasks_than_random() {
    // The paper's locality ordering: random ≫ gradient > RID > RIPS.
    let w = Arc::new(geometric_tree(16, 5, 3, 2000, 21));
    let [rand_out, grad_out, rid_out] = run_all(&w, 16, 11);
    assert!(
        grad_out.nonlocal < rand_out.nonlocal,
        "gradient {} vs random {}",
        grad_out.nonlocal,
        rand_out.nonlocal
    );
    assert!(
        rid_out.nonlocal < rand_out.nonlocal,
        "RID {} vs random {}",
        rid_out.nonlocal,
        rand_out.nonlocal
    );
}

#[test]
fn rid_balances_imbalanced_load() {
    // All work starts on one side of the mesh: the first quarter of the
    // block-distributed tasks (the first 4 of 16 nodes) carry 10x
    // grains. RID must pull a meaningful share across and beat the
    // no-balancing lower bound on efficiency. (A skewed_flat forest is
    // too *evenly* skewed for this — every node gets the same count of
    // heavy tasks, so whether RID moves anything is seed-noise.)
    use rand::{rngs::SmallRng, RngExt, SeedableRng};
    use rips_taskgraph::TaskForest;
    let mut rng = SmallRng::seed_from_u64(8);
    let mut forest = TaskForest::new();
    for i in 0..400 {
        let jitter = rng.random_range(0..=500u64);
        let grain = if i < 100 { 10_000 } else { 1_000 } + jitter;
        forest.add_root(grain);
    }
    let w = Arc::new(Workload::single("one-sided", forest));
    let out = rid(
        Arc::clone(&w),
        mesh(16),
        LatencyModel::paragon(),
        Costs::default(),
        3,
        RID_U,
    );
    out.verify_complete(&w).unwrap();
    assert!(out.nonlocal > 10, "RID moved too little: {}", out.nonlocal);
    assert!(out.efficiency() > 0.5, "efficiency {}", out.efficiency());
}

#[test]
fn gradient_pays_control_traffic_per_task_moved() {
    // "the system overhead is large because information and tasks are
    // frequently exchanged": gradient tasks move one hop per message
    // plus proximity updates, so messages-per-task-moved is a multiple
    // of random allocation's (which batches spawned children and sends
    // no control traffic at all).
    let w = Arc::new(skewed_flat(300, 800, 5, 8, 2));
    let [rand_out, grad_out, _] = run_all(&w, 16, 17);
    let per_moved = |o: &RunOutcome| o.stats.net.msgs as f64 / o.nonlocal.max(1) as f64;
    assert!(
        per_moved(&grad_out) > per_moved(&rand_out),
        "gradient {:.2} msgs/moved vs random {:.2}",
        per_moved(&grad_out),
        per_moved(&rand_out)
    );
}

#[test]
fn sid_completes_and_balances() {
    use rips_core::sid;
    let w = Arc::new(skewed_flat(400, 1000, 4, 10, 8));
    let out = sid(
        Arc::clone(&w),
        mesh(16),
        LatencyModel::paragon(),
        Costs::default(),
        3,
    );
    out.verify_complete(&w).unwrap();
    assert!(out.nonlocal > 0, "SID never moved a task");
    assert!(out.efficiency() > 0.5, "efficiency {}", out.efficiency());
}

#[test]
fn sid_handles_dynamic_generation_and_rounds() {
    use rips_core::sid;
    let w = Arc::new(Workload {
        name: "rounds".into(),
        rounds: vec![
            geometric_tree(6, 4, 3, 2000, 13).rounds[0].clone(),
            flat_uniform(45, 200, 900, 2).rounds[0].clone(),
        ],
    });
    let out = sid(
        Arc::clone(&w),
        mesh(9),
        LatencyModel::paragon(),
        Costs::default(),
        5,
    );
    out.verify_complete(&w).unwrap();
}

/// A `RoundStart` can reach a node after the round it opens is over:
/// the broadcast's last recipients on a 16×16 mesh hear it later than
/// the rest of the machine takes to finish a one-task round and open
/// the next (16×8, 12×12 and 1×128 machines are too small or too
/// narrow for that). Such a node owns no root of the finished round (a
/// round of fewer roots than nodes leaves the high ids empty), so it
/// must seed nothing for it — not its block of the round now open,
/// which the next `RoundStart` seeds again.
#[test]
fn late_round_start_seeds_the_round_it_names() {
    use rips_core::sid;
    let nodes = 256;
    let w = Arc::new(Workload {
        name: "one-one-wide".into(),
        rounds: vec![
            flat_uniform(1, 5, 5, 1).rounds[0].clone(),
            flat_uniform(1, 5, 5, 2).rounds[0].clone(),
            flat_uniform(1, 5, 5, 3).rounds[0].clone(),
            flat_uniform(nodes, 200, 900, 4).rounds[0].clone(),
        ],
    });
    let topo = || -> Arc<dyn Topology> { Arc::new(Mesh2D::new(16, 16)) };
    let (lat, costs) = (LatencyModel::paragon(), Costs::default());
    let runs = [
        ("Random", random(Arc::clone(&w), topo(), lat, costs, 3)),
        ("Gradient", gradient(Arc::clone(&w), topo(), lat, costs, 3)),
        ("RID", rid(Arc::clone(&w), topo(), lat, costs, 3, RID_U)),
        ("SID", sid(Arc::clone(&w), topo(), lat, costs, 3)),
    ];
    for (name, out) in runs {
        out.verify_complete(&w)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}
