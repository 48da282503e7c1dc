//! Cross-crate integration tests: the paper's headline qualitative
//! claims, checked end-to-end at a scale small enough for CI.

use std::sync::Arc;

use rips_repro::apps::{nqueens, puzzle, NQueensConfig, PuzzleConfig};
use rips_repro::core::{random, rid, rips, Machine, RipsConfig, RID_U};
use rips_repro::desim::LatencyModel;
use rips_repro::flow::optimal_rebalance;
use rips_repro::metrics::{optimal_efficiency, quality_factor};
use rips_repro::sched::mwa;
use rips_repro::taskgraph::Workload;
use rips_repro::topology::Mesh2D;
use rips_runtime::Costs;

fn small_queens() -> Workload {
    nqueens(NQueensConfig {
        n: 11,
        split_depth: 4,
        root_depth: 2,
        ns_per_node: 1800,
    })
}

fn run_rips(w: &Arc<Workload>, nodes: usize) -> rips_repro::runtime::ScheduledRun {
    rips(
        Arc::clone(w),
        Machine::Mesh(Mesh2D::near_square(nodes)),
        LatencyModel::paragon(),
        Costs::default(),
        1,
        RipsConfig::default(),
    )
}

/// Claim (§1 / Table I): RIPS's locality is far better than randomized
/// allocation's, which ships ~(N−1)/N of all tasks.
#[test]
fn rips_locality_dominates_random() {
    let w = Arc::new(small_queens());
    let nodes = 16;
    let rips_out = run_rips(&w, nodes);
    let rand_out = random(
        Arc::clone(&w),
        Mesh2D::near_square(nodes),
        LatencyModel::paragon(),
        Costs::default(),
        1,
    );
    rips_out.outcome.verify_complete(&w).unwrap();
    rand_out.verify_complete(&w).unwrap();
    assert!(
        rips_out.outcome.nonlocal * 5 < rand_out.nonlocal,
        "RIPS {} vs random {}",
        rips_out.outcome.nonlocal,
        rand_out.nonlocal
    );
}

/// Claim (§5): RIPS overhead is comparable to the low-overhead
/// randomized allocation — within 2x at this scale.
#[test]
fn rips_overhead_is_comparable_to_random() {
    let w = Arc::new(small_queens());
    let rips_out = run_rips(&w, 16);
    let rand_out = random(
        Arc::clone(&w),
        Mesh2D::near_square(16),
        LatencyModel::paragon(),
        Costs::default(),
        1,
    );
    assert!(
        rips_out.outcome.overhead_s() < rand_out.overhead_s() * 2.0,
        "RIPS Th {} vs random {}",
        rips_out.outcome.overhead_s(),
        rand_out.overhead_s()
    );
}

/// Measured efficiency can never beat the Table II idealisation.
#[test]
fn efficiency_bounded_by_optimal() {
    let w = Arc::new(small_queens());
    for nodes in [4usize, 9, 16] {
        let mu_opt = optimal_efficiency(&w, nodes);
        let out = run_rips(&w, nodes);
        assert!(
            out.outcome.efficiency() <= mu_opt + 1e-9,
            "{nodes} nodes: {} > optimal {mu_opt}",
            out.outcome.efficiency()
        );
    }
}

/// Figure 4's trend end-to-end: MWA is optimal on ≤4 processors and
/// its normalized cost grows with machine size.
#[test]
fn mwa_cost_trend_with_machine_size() {
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(44);
    let mut mean_cost = Vec::new();
    for n in [4usize, 16, 64] {
        let mesh = Mesh2D::near_square(n);
        let mut total = 0.0;
        let trials = 30;
        for _ in 0..trials {
            let loads: Vec<i64> = (0..n).map(|_| rng.random_range(0..=40)).collect();
            let (plan, _) = mwa(&mesh, &loads);
            let opt = optimal_rebalance(mesh, &loads);
            if opt.cost > 0 {
                total += (plan.edge_cost() - opt.cost) as f64 / opt.cost as f64;
            }
        }
        mean_cost.push(total / trials as f64);
    }
    assert!(
        mean_cost[0] < 1e-12,
        "MWA not optimal on 4 procs: {mean_cost:?}"
    );
    assert!(
        mean_cost[2] > mean_cost[0],
        "cost should grow with size: {mean_cost:?}"
    );
}

/// Figure 5's construction: quality factors from real runs are
/// well-defined, the random baseline scores exactly 1, and RIPS scores
/// comparably at this (deliberately small) problem size — "for small
/// problem sizes, it is dominated by the system overhead" (§5); the
/// large-size separation is regenerated by `fig5`.
#[test]
fn quality_factor_ranks_rips_over_random() {
    let w = Arc::new(small_queens());
    let nodes = 16;
    let mu_opt = optimal_efficiency(&w, nodes).min(1.0);
    let rand_mu = random(
        Arc::clone(&w),
        Mesh2D::near_square(nodes),
        LatencyModel::paragon(),
        Costs::default(),
        1,
    )
    .efficiency();
    let rips_mu = run_rips(&w, nodes).outcome.efficiency();
    let qf_rand = quality_factor(mu_opt, rand_mu, rand_mu);
    let qf_rips = quality_factor(mu_opt, rand_mu, rips_mu.min(mu_opt - 1e-9));
    assert_eq!(qf_rand, 1.0);
    assert!(qf_rips > 0.85, "RIPS quality factor {qf_rips}");
}

/// IDA* iterations map to barrier-separated rounds and every scheduler
/// agrees on the totals (the search result is scheduler-independent).
#[test]
fn ida_star_rounds_are_scheduler_independent() {
    let cfg = PuzzleConfig {
        scramble_len: 30,
        seed: 5,
        min_tasks: 32,
        ns_per_node: 1000,
        split_divisor: 1024,
        split_floor_nodes: 20_000,
    };
    let w = Arc::new(puzzle(cfg));
    let total = w.stats().tasks as u64;
    let nodes = 8;
    let a = run_rips(&w, nodes);
    let b = rid(
        Arc::clone(&w),
        Mesh2D::near_square(nodes),
        LatencyModel::paragon(),
        Costs::default(),
        1,
        RID_U,
    );
    assert_eq!(a.outcome.total_executed(), total);
    assert_eq!(b.total_executed(), total);
    // Every round opens with at least one RIPS system phase.
    assert!(a.outcome.system_phases as usize >= w.rounds.len());
}

/// Determinism across the whole stack: same seed, same workload, same
/// machine ⇒ bit-identical outcome.
#[test]
fn end_to_end_determinism() {
    let w = Arc::new(small_queens());
    let a = run_rips(&w, 9);
    let b = run_rips(&w, 9);
    assert_eq!(a.outcome.stats.end_time, b.outcome.stats.end_time);
    assert_eq!(a.outcome.executed, b.outcome.executed);
    assert_eq!(a.phases, b.phases);
}
