//! Failure-injection and degenerate-input tests across the stack:
//! adversarial load vectors, pathological meshes, empty workloads,
//! extreme grain skew. Everything must either work or refuse loudly —
//! no silent task loss.

use std::sync::Arc;

use rips_repro::core::{gradient, random, rid, rips, sid, Machine, RipsConfig, RID_U};
use rips_repro::desim::LatencyModel;
use rips_repro::flow::optimal_rebalance;
use rips_repro::sched::mwa;
use rips_repro::taskgraph::{TaskForest, Workload};
use rips_repro::topology::Mesh2D;
use rips_runtime::Costs;

fn run_everything(w: &Arc<Workload>, nodes: usize) {
    let lat = LatencyModel::paragon();
    let costs = Costs::default();
    let mesh = Mesh2D::near_square(nodes);
    let total: u64 = w.stats().tasks as u64;
    assert_eq!(
        random(Arc::clone(w), mesh, lat, costs, 3).total_executed(),
        total,
        "random lost tasks"
    );
    assert_eq!(
        gradient(Arc::clone(w), mesh, lat, costs, 3).total_executed(),
        total,
        "gradient lost tasks"
    );
    assert_eq!(
        rid(Arc::clone(w), mesh, lat, costs, 3, RID_U).total_executed(),
        total,
        "RID lost tasks"
    );
    assert_eq!(
        sid(Arc::clone(w), mesh, lat, costs, 3).total_executed(),
        total,
        "SID lost tasks"
    );
    assert_eq!(
        rips(
            Arc::clone(w),
            Machine::Mesh(mesh),
            lat,
            costs,
            3,
            RipsConfig::default()
        )
        .outcome
        .total_executed(),
        total,
        "RIPS lost tasks"
    );
}

#[test]
fn empty_workload() {
    let w = Arc::new(Workload {
        name: "empty".into(),
        rounds: vec![],
    });
    run_everything(&w, 4);
}

#[test]
fn empty_middle_round() {
    let mut f1 = TaskForest::new();
    f1.add_root(500);
    f1.add_root(700);
    let mut f3 = TaskForest::new();
    f3.add_root(900);
    let w = Arc::new(Workload {
        name: "hole".into(),
        rounds: vec![f1, TaskForest::new(), f3],
    });
    run_everything(&w, 4);
}

#[test]
fn single_task_on_many_nodes() {
    let mut f = TaskForest::new();
    f.add_root(10_000);
    let w = Arc::new(Workload::single("lonely", f));
    run_everything(&w, 16);
}

#[test]
fn fewer_tasks_than_nodes() {
    let mut f = TaskForest::new();
    for g in [100u64, 5_000, 20, 9_999, 1] {
        f.add_root(g);
    }
    let w = Arc::new(Workload::single("sparse", f));
    run_everything(&w, 16);
}

#[test]
fn extreme_grain_skew() {
    // One task a thousand times bigger than the rest.
    let mut f = TaskForest::new();
    f.add_root(1_000_000);
    for _ in 0..200 {
        f.add_root(1_000);
    }
    let w = Arc::new(Workload::single("whale", f));
    run_everything(&w, 8);
}

#[test]
fn zero_grain_tasks() {
    // Minimum representable grains: pure scheduling overhead.
    let mut f = TaskForest::new();
    for _ in 0..100 {
        f.add_root(1);
    }
    let w = Arc::new(Workload::single("dust", f));
    run_everything(&w, 8);
}

#[test]
fn deep_dependency_chain() {
    // No parallelism at all: a 60-deep chain. Everything must still
    // terminate (RIPS will churn phases; that is the point).
    let mut f = TaskForest::new();
    let mut cur = f.add_root(800);
    for _ in 0..59 {
        cur = f.add_child(cur, 800);
    }
    let w = Arc::new(Workload::single("chain", f));
    run_everything(&w, 8);
}

#[test]
fn degenerate_meshes_for_mwa() {
    // 1xN, Nx1, and prime sizes (which factor as 1 x p).
    for (r, c) in [(1usize, 17usize), (17, 1), (1, 1), (13, 1)] {
        let mesh = Mesh2D::new(r, c);
        let n = r * c;
        let mut worst = vec![0i64; n];
        worst[0] = 997; // everything piled on one end
        let (plan, _) = mwa(&mesh, &worst);
        let finals = plan.apply(&worst);
        let spread = finals.iter().max().unwrap() - finals.iter().min().unwrap();
        assert!(spread <= 1, "{r}x{c}: spread {spread}");
        // 1-D meshes have forced flows: MWA must match the optimum.
        let opt = optimal_rebalance(mesh, &worst);
        assert_eq!(plan.edge_cost(), opt.cost, "{r}x{c} not optimal");
    }
}

#[test]
fn adversarial_load_vectors_for_mwa() {
    let mesh = Mesh2D::new(4, 4);
    let cases: Vec<Vec<i64>> = vec![
        vec![1_000_000, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        vec![0; 16],
        (0..16).map(|i| i64::from(i % 2 == 0) * 999).collect(),
        (0..16).map(|i| i as i64 * i as i64 * 31).collect(),
        // total not divisible by 16
        (0..16).map(|i| (i as i64 * 7 + 3) % 11).collect(),
    ];
    for loads in cases {
        let (plan, trace) = mwa(&mesh, &loads);
        let finals = plan.apply(&loads);
        assert_eq!(finals, trace.quotas, "wrong landing for {loads:?}");
        assert_eq!(
            plan.nonlocal_tasks(&loads),
            rips_repro::sched::min_nonlocal_tasks(&loads),
            "locality violated for {loads:?}"
        );
    }
}

#[test]
fn ideal_network_still_correct() {
    // Zero-latency network: ordering degenerates to sequence numbers;
    // schedulers must still not lose tasks. (The gradient model is
    // excluded: it requires nonzero latency by contract.)
    let mut f = TaskForest::new();
    for i in 0..300u64 {
        f.add_root(100 + (i * 37) % 900);
    }
    let w = Arc::new(Workload::single("ideal-net", f));
    let lat = LatencyModel::ideal();
    let costs = Costs::default();
    let mesh = Mesh2D::near_square(8);
    let total = w.stats().tasks as u64;
    assert_eq!(
        random(Arc::clone(&w), mesh, lat, costs, 3).total_executed(),
        total
    );
    assert_eq!(
        rid(Arc::clone(&w), mesh, lat, costs, 3, RID_U).total_executed(),
        total
    );
    assert_eq!(
        rips(
            Arc::clone(&w),
            Machine::Mesh(mesh),
            lat,
            costs,
            3,
            RipsConfig::default()
        )
        .outcome
        .total_executed(),
        total
    );
}

#[test]
#[should_panic(expected = "one load per node")]
fn mwa_rejects_wrong_length() {
    mwa(&Mesh2D::new(2, 2), &[1, 2, 3]);
}

#[test]
#[should_panic(expected = "negative load")]
fn mwa_rejects_negative_loads() {
    mwa(&Mesh2D::new(2, 2), &[1, -2, 3, 4]);
}
