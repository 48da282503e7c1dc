//! Zero-overhead list scheduling: the Table II idealisation.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rips_taskgraph::{TaskForest, TaskId, Workload};

/// Makespan of one forest under longest-processing-time list scheduling
/// on `n` processors with zero overhead, respecting parent→child
/// precedence. LPT list scheduling is within a small constant of
/// optimal and is exact in the many-small-task regimes the paper's
/// workloads live in.
fn forest_makespan(forest: &TaskForest, n: usize) -> u64 {
    assert!(n > 0);
    if forest.is_empty() {
        return 0;
    }
    // Processors by earliest-free time.
    let mut procs: BinaryHeap<Reverse<u64>> = (0..n).map(|_| Reverse(0)).collect();
    // Tasks ready to run (LPT order, carrying their release times), and
    // tasks whose parent is still running (by release time).
    let mut ready: BinaryHeap<(u64, u64, TaskId)> =
        forest.roots().map(|r| (forest.grain(r), 0, r)).collect();
    let mut future: BinaryHeap<Reverse<(u64, TaskId)>> = BinaryHeap::new();
    // Completions not yet processed (children not yet released).
    let mut completions: BinaryHeap<Reverse<(u64, TaskId)>> = BinaryHeap::new();
    let mut makespan = 0u64;
    let mut remaining = forest.len();

    while remaining > 0 {
        if let Some(&(grain, _, _)) = ready.peek() {
            let Reverse(free_at) = *procs.peek().expect("n > 0");
            // Release every completion that happens before this
            // assignment could start; a released child may be a better
            // (larger) choice or enable an earlier start elsewhere.
            if let Some(&Reverse((finish, _))) = completions.peek() {
                if finish <= free_at {
                    let Reverse((finish, task)) = completions.pop().unwrap();
                    for &c in forest.children(task) {
                        future.push(Reverse((finish, c)));
                    }
                    continue;
                }
            }
            // Move released tasks that are ready by `free_at` into the
            // LPT pool.
            let mut moved = false;
            while let Some(&Reverse((at, _))) = future.peek() {
                if at <= free_at {
                    let Reverse((at, t)) = future.pop().unwrap();
                    ready.push((forest.grain(t), at, t));
                    moved = true;
                } else {
                    break;
                }
            }
            if moved {
                continue; // re-evaluate with the enlarged pool
            }
            let _ = grain;
            let (grain, ready_at, task) = ready.pop().unwrap();
            procs.pop();
            let finish = free_at.max(ready_at) + grain;
            procs.push(Reverse(finish));
            completions.push(Reverse((finish, task)));
            makespan = makespan.max(finish);
            remaining -= 1;
        } else {
            // Nothing ready: advance time by the next completion (its
            // children become available), or pull the next future task.
            if let Some(Reverse((finish, task))) = completions.pop() {
                for &c in forest.children(task) {
                    future.push(Reverse((finish, c)));
                }
                // Tasks released at `finish` are now candidates.
                while let Some(&Reverse((at, _))) = future.peek() {
                    if at <= finish {
                        let Reverse((at, t)) = future.pop().unwrap();
                        ready.push((forest.grain(t), at, t));
                    } else {
                        break;
                    }
                }
            } else if let Some(Reverse((at, t))) = future.pop() {
                ready.push((forest.grain(t), at, t));
            } else {
                unreachable!("tasks remain but nothing is ready or running");
            }
        }
    }
    makespan
}

/// Optimal (zero-overhead, LPT-scheduled) makespan of a whole workload
/// on `n` processors: rounds are separated by barriers, so their
/// makespans add.
pub fn optimal_makespan(workload: &Workload, n: usize) -> u64 {
    workload.rounds.iter().map(|r| forest_makespan(r, n)).sum()
}

/// The paper's optimal efficiency: `µ_opt = Ts / (N · T_opt)`.
///
/// ```
/// use rips_bench::eval::optimal_efficiency;
/// use rips_taskgraph::flat_uniform;
///
/// // 9 equal tasks on 4 processors: one wave of 4, one of 4, one of 1
/// // — the last wave idles 3 processors, so µ_opt = 9/12.
/// let w = flat_uniform(9, 10, 10, 0);
/// assert!((optimal_efficiency(&w, 4) - 0.75).abs() < 1e-12);
/// ```
pub fn optimal_efficiency(workload: &Workload, n: usize) -> f64 {
    let ts = workload.stats().total_work_us;
    let tp = optimal_makespan(workload, n);
    if tp == 0 {
        return 1.0;
    }
    ts as f64 / (n as f64 * tp as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rips_taskgraph::{flat_uniform, geometric_tree};

    fn flat(grains: &[u64]) -> Workload {
        Workload::single("flat", TaskForest::flat(grains.iter().copied()))
    }

    #[test]
    fn equal_grains_divide_evenly() {
        // 8 tasks of 10 on 4 procs: 2 waves = 20.
        let w = flat(&[10; 8]);
        assert_eq!(optimal_makespan(&w, 4), 20);
        assert!((optimal_efficiency(&w, 4) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn remainder_wave_costs_full_round() {
        // 9 tasks of 10 on 4 procs: 3 waves = 30; µ = 90/120 = 0.75.
        let w = flat(&[10; 9]);
        assert_eq!(optimal_makespan(&w, 4), 30);
        assert!((optimal_efficiency(&w, 4) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn lpt_packs_mixed_grains() {
        // Grains 6,5,4,3,2,2 on 2 procs: LPT gives 6+4+2 / 5+3+2 = 11.
        let w = flat(&[6, 5, 4, 3, 2, 2]);
        assert_eq!(optimal_makespan(&w, 2), 11);
    }

    #[test]
    fn single_huge_task_bounds_makespan() {
        let w = flat(&[100, 1, 1, 1]);
        assert_eq!(optimal_makespan(&w, 4), 100);
    }

    #[test]
    fn precedence_chain_is_critical_path() {
        // root(5) -> a(7) -> b(9): no parallelism available.
        let mut f = TaskForest::new();
        let r = f.add_root(5);
        let a = f.add_child(r, 7);
        f.add_child(a, 9);
        let w = Workload::single("chain", f);
        assert_eq!(optimal_makespan(&w, 8), 21);
        assert_eq!(w.rounds[0].critical_path_us(), 21);
    }

    #[test]
    fn tree_release_times_respected() {
        // root(10) releases two children(10); on 2 procs: 10 + 10 = 20
        // (second proc idles during the root).
        let mut f = TaskForest::new();
        let r = f.add_root(10);
        f.add_child(r, 10);
        f.add_child(r, 10);
        let w = Workload::single("v", f);
        assert_eq!(optimal_makespan(&w, 2), 20);
    }

    #[test]
    fn rounds_are_barriers() {
        let w = Workload {
            name: "two".into(),
            rounds: vec![
                flat(&[10; 4]).rounds[0].clone(),
                flat(&[10; 4]).rounds[0].clone(),
            ],
        };
        assert_eq!(optimal_makespan(&w, 4), 20);
    }

    #[test]
    fn makespan_lower_bounds_hold() {
        // On any workload: max(Ts/N rounded up per-round, critical
        // path) ≤ makespan ≤ Ts.
        for (seed, n) in [(1u64, 3usize), (2, 7), (3, 16)] {
            let w = geometric_tree(5, 5, 3, 40, seed);
            let ts = w.stats().total_work_us;
            let cp = w.stats().critical_path_us;
            let ms = optimal_makespan(&w, n);
            assert!(ms >= cp, "below critical path");
            assert!(ms >= ts.div_ceil(n as u64), "below work bound");
            assert!(ms <= ts, "worse than sequential");
        }
    }

    #[test]
    fn more_processors_never_slower() {
        // LPT list scheduling is not anomaly-free in theory, but on
        // these forests doubling processors should not hurt.
        let w = flat_uniform(200, 5, 50, 9);
        let m4 = optimal_makespan(&w, 4);
        let m8 = optimal_makespan(&w, 8);
        assert!(m8 <= m4);
    }

    #[test]
    fn empty_workload() {
        let w = Workload {
            name: "empty".into(),
            rounds: vec![],
        };
        assert_eq!(optimal_makespan(&w, 4), 0);
        assert_eq!(optimal_efficiency(&w, 4), 1.0);
    }
}
