//! Synthetic workload generators for tests and ablation benches.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::forest::{TaskForest, Workload};

/// Flat forest of `n` independent tasks with uniform grains in
/// `[lo, hi]` µs.
pub fn flat_uniform(n: usize, lo: u64, hi: u64, seed: u64) -> Workload {
    assert!(lo <= hi, "empty grain range");
    let mut rng = SmallRng::seed_from_u64(seed);
    let grains = (0..n).map(|_| rng.random_range(lo..=hi));
    Workload::single(format!("flat-uniform n={n}"), TaskForest::flat(grains))
}

/// Flat forest with a heavy-tailed ("skewed") grain distribution: most
/// tasks tiny, a few `heavy_every`-th tasks `heavy_factor`× larger —
/// the unequal-grain-size situation incremental scheduling corrects.
pub fn skewed_flat(
    n: usize,
    base: u64,
    heavy_every: usize,
    heavy_factor: u64,
    seed: u64,
) -> Workload {
    assert!(heavy_every > 0);
    let mut rng = SmallRng::seed_from_u64(seed);
    let grains = (0..n).map(|i| {
        let jitter = rng.random_range(0..=base / 2);
        if i % heavy_every == 0 {
            base * heavy_factor + jitter
        } else {
            base + jitter
        }
    });
    Workload::single(format!("skewed-flat n={n}"), TaskForest::flat(grains))
}

/// Random divide-and-conquer tree: `roots` root tasks, each task at
/// depth `d < depth` spawns `0..=max_children` children (geometric-ish
/// via the RNG), leaves carrying most of the grain. Models N-Queens
/// style unpredictable expansion.
pub fn geometric_tree(
    roots: usize,
    depth: usize,
    max_children: usize,
    leaf_grain: u64,
    seed: u64,
) -> Workload {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut f = TaskForest::new();
    let mut frontier: Vec<(crate::TaskId, usize)> = (0..roots)
        .map(|_| (f.add_root(rng.random_range(1..=leaf_grain / 4 + 1)), 0))
        .collect();
    while let Some((parent, d)) = frontier.pop() {
        if d + 1 >= depth {
            continue;
        }
        let kids = rng.random_range(0..=max_children);
        for _ in 0..kids {
            let leafish = d + 2 >= depth;
            let grain = if leafish {
                rng.random_range(leaf_grain / 2..=leaf_grain)
            } else {
                rng.random_range(1..=leaf_grain / 4 + 1)
            };
            let id = f.add_child(parent, grain);
            frontier.push((id, d + 1));
        }
    }
    Workload::single(format!("geometric-tree roots={roots} depth={depth}"), f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_uniform_shape() {
        let w = flat_uniform(100, 10, 20, 7);
        let s = w.stats();
        assert_eq!(s.tasks, 100);
        assert!(s.max_grain_us <= 20);
        assert!(s.total_work_us >= 1000);
        assert!(w.validate().is_ok());
        // Flat: critical path == max grain.
        assert_eq!(s.critical_path_us, s.max_grain_us);
    }

    #[test]
    fn skewed_has_heavy_tasks() {
        let w = skewed_flat(100, 10, 10, 50, 3);
        let s = w.stats();
        assert!(s.max_grain_us >= 500);
        assert!(w.validate().is_ok());
    }

    #[test]
    fn geometric_tree_is_valid_forest() {
        let w = geometric_tree(4, 5, 3, 100, 42);
        assert!(w.validate().is_ok());
        assert!(w.stats().tasks >= 4);
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(flat_uniform(50, 1, 9, 11), flat_uniform(50, 1, 9, 11));
        assert_eq!(
            geometric_tree(3, 4, 3, 50, 5),
            geometric_tree(3, 4, 3, 50, 5)
        );
    }
}
