//! Criterion microbenchmarks of the parallel scheduling algorithms
//! themselves: MWA across mesh sizes (the `3(n1+n2)`-step algorithm is
//! also cheap *as code*), TWA, DEM, and the MCMF optimal scheduler that
//! Figure 4 normalizes against.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use rips_sched::flow::optimal_rebalance;
use rips_sched::{dem, mwa, mwa_distributed, twa, twa_distributed};
use rips_topology::{BinaryTree, Hypercube, Mesh2D, Topology};

fn random_loads(n: usize, mean: i64, seed: u64) -> Vec<i64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| rng.random_range(0..=2 * mean)).collect()
}

fn bench_mwa(c: &mut Criterion) {
    let mut group = c.benchmark_group("mwa");
    for n in [32usize, 64, 128, 256] {
        let mesh = Mesh2D::near_square(n);
        let loads = random_loads(n, 50, n as u64);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| mwa(&mesh, &loads));
        });
    }
    group.finish();
}

fn bench_twa(c: &mut Criterion) {
    let mut group = c.benchmark_group("twa");
    for n in [31usize, 127, 255] {
        let tree = BinaryTree::new(n);
        let loads = random_loads(n, 50, n as u64);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| twa(&tree, &loads));
        });
    }
    group.finish();
}

fn bench_dem(c: &mut Criterion) {
    let mut group = c.benchmark_group("dem");
    for d in [5usize, 7, 8] {
        let cube = Hypercube::new(d);
        let loads = random_loads(cube.len(), 50, d as u64);
        group.bench_with_input(BenchmarkId::from_parameter(cube.len()), &d, |b, _| {
            b.iter(|| dem(&cube, &loads));
        });
    }
    group.finish();
}

fn bench_optimal(c: &mut Criterion) {
    let mut group = c.benchmark_group("mcmf_optimal");
    group.sample_size(20);
    for n in [32usize, 64, 128] {
        let mesh = Mesh2D::near_square(n);
        let loads = random_loads(n, 50, n as u64);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| optimal_rebalance(&mesh, &loads));
        });
    }
    group.finish();
}

fn bench_distributed(c: &mut Criterion) {
    // The BSP realisations pay for their message-level fidelity; this
    // quantifies the as-code cost relative to the centralized
    // arithmetic above.
    let mut group = c.benchmark_group("distributed");
    group.sample_size(20);
    for n in [32usize, 64] {
        let mesh = Mesh2D::near_square(n);
        let loads = random_loads(n, 50, n as u64);
        group.bench_with_input(BenchmarkId::new("mwa_bsp", n), &n, |b, _| {
            b.iter(|| mwa_distributed(&mesh, &loads));
        });
    }
    for n in [31usize, 127] {
        let tree = BinaryTree::new(n);
        let loads = random_loads(n, 50, n as u64);
        group.bench_with_input(BenchmarkId::new("twa_bsp", n), &n, |b, _| {
            b.iter(|| twa_distributed(&tree, &loads));
        });
    }
    group.finish();
}

fn bench_engine_throughput(c: &mut Criterion) {
    // End-to-end simulator throughput: a full RIPS run of a small
    // workload, in simulated-events-per-wall-second terms.
    use rips_core::{rips, Machine, RipsConfig};
    use rips_desim::LatencyModel;
    use rips_runtime::Costs;
    use rips_taskgraph::skewed_flat;
    use std::sync::Arc;
    let mut group = c.benchmark_group("rips_end_to_end");
    group.sample_size(10);
    let w = Arc::new(skewed_flat(500, 800, 5, 8, 3));
    for nodes in [16usize, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &nodes, |b, &n| {
            b.iter(|| {
                rips(
                    Arc::clone(&w),
                    Machine::Mesh(Mesh2D::near_square(n)),
                    LatencyModel::paragon(),
                    Costs::default(),
                    1,
                    RipsConfig::default(),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_mwa,
    bench_twa,
    bench_dem,
    bench_optimal,
    bench_distributed,
    bench_engine_throughput
);
criterion_main!(benches);
