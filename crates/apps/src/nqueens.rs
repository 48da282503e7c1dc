//! Exhaustive N-Queens search (bitmask backtracking) and its task
//! decomposition.
//!
//! A task is a valid placement of queens in the first `split_depth`
//! rows. Interior tasks (depth < split_depth) *generate* their valid
//! extensions as child tasks — the dynamic task creation RIPS
//! reschedules incrementally — and leaf tasks carry the exact node
//! count of the subtree they enumerate, converted to virtual time.

use crate::live::{queens_leaf_out, GrainOut, GrainSpec, GrainTable};
use crate::{grain_us, host_workers, WorkersFor};
use rips_taskgraph::{par_map_with, TaskForest, TaskId, Workload};

/// Parameters for the N-Queens workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NQueensConfig {
    /// Board size (13, 14, 15 in the paper's Table I).
    pub n: u32,
    /// Rows fixed per task; the paper's task counts (7 579 / 11 166 /
    /// 15 941 for 13/14/15 queens) match a split depth of 4.
    pub split_depth: u32,
    /// Depth of the *root* tasks. The top of the prefix tree is cheap
    /// and deterministic, so an SPMD program expands it redundantly on
    /// every node ("we rely on a uniform code image accessible at each
    /// processor") and each node takes its block of the depth-`root`
    /// prefixes — the initial tasks the first system phase schedules.
    pub root_depth: u32,
    /// Nanoseconds of virtual time per search-tree node. Calibrated in
    /// EXPERIMENTS.md to the paper's i860-era speed: 13-queens ≈ 8.5 s
    /// and 15-queens ≈ 310 s of sequential work, keeping the paper's
    /// task-grain-to-message-latency ratio.
    pub ns_per_node: u64,
}

impl NQueensConfig {
    /// Paper-faithful configuration for `n` queens.
    pub fn paper(n: u32) -> Self {
        NQueensConfig {
            n,
            split_depth: 4,
            root_depth: 2,
            ns_per_node: 1800,
        }
    }
}

/// Fully enumerates the `n`-queens search tree, returning
/// `(nodes, solutions)` for the subtree under the given bitmask state.
/// `cols`/`diag1`/`diag2` are the standard occupied-column and
/// occupied-diagonal masks; a "node" is a placed queen.
pub(crate) fn enumerate(n: u32, row: u32, cols: u32, diag1: u32, diag2: u32) -> (u64, u64) {
    if row == n {
        return (0, 1);
    }
    let full = (1u32 << n) - 1;
    let mut free = full & !(cols | diag1 | diag2);
    let mut nodes = 0u64;
    let mut sols = 0u64;
    while free != 0 {
        let bit = free & free.wrapping_neg();
        free ^= bit;
        let (sub_nodes, sub_sols) = enumerate(
            n,
            row + 1,
            cols | bit,
            (diag1 | bit) << 1,
            (diag2 | bit) >> 1,
        );
        nodes += 1 + sub_nodes;
        sols += sub_sols;
    }
    (nodes, sols)
}

/// Sequential solver: `(search_nodes, solutions)` for `n` queens.
pub fn solve(n: u32) -> (u64, u64) {
    assert!((1..=16).contains(&n), "board size out of range");
    enumerate(n, 0, 0, 0, 0)
}

/// Below this many leaf-rows (enumerated leaf tasks × rows each still
/// has to fill; the builder enumerates half the leaves, see [`build`])
/// the sweep runs on the calling thread. The largest board the serving
/// catalog and `live-fine` build, 10 queens split at depth 3, has
/// 1 274 (18 k search nodes: done before a second thread has
/// started); the smallest paper-split board that lasts milliseconds,
/// 11 queens, has 8 638.
const SPREAD_MIN_LEAF_ROWS: u64 = 5_000;

/// Tasks measured per pool batch. The results of a batch are folded
/// into the forest before the next is measured, so the builder's
/// transient memory is a batch's worth whatever the board (15 queens:
/// 8 batches; the 4 before the middle leaf take ~0.1 s each against
/// one thread start per batch, the rest only copy mirror counts).
const BATCH: usize = 2048;

/// The prefix tree in task-id order (a task, then each child's
/// subtree): every task's parent and spec, nothing measured yet.
struct Prefixes {
    cfg: NQueensConfig,
    parents: Vec<Option<TaskId>>,
    specs: Vec<GrainSpec>,
}

impl Prefixes {
    /// Adds the task for the prefix reaching `row` with the given
    /// masks under `parent` (or as a root), then its subtree.
    fn collect(&mut self, parent: Option<TaskId>, (row, cols, diag1, diag2): (u32, u32, u32, u32)) {
        let n = self.cfg.n;
        let id = self.specs.len() as TaskId;
        self.parents.push(parent);
        if row == self.cfg.split_depth {
            self.specs.push(GrainSpec::QueensLeaf {
                n,
                row,
                cols,
                diag1,
                diag2,
            });
            return;
        }
        self.specs.push(GrainSpec::QueensInterior {
            n,
            row,
            cols,
            diag1,
            diag2,
        });
        // The children are the valid extensions by one row.
        let full = (1u32 << n) - 1;
        let mut free = full & !(cols | diag1 | diag2);
        while free != 0 {
            let bit = free & free.wrapping_neg();
            free ^= bit;
            let child = (row + 1, cols | bit, (diag1 | bit) << 1, (diag2 | bit) >> 1);
            self.collect(Some(id), child);
        }
    }
}

fn is_leaf(spec: &GrainSpec) -> bool {
    matches!(spec, GrainSpec::QueensLeaf { .. })
}

/// Builds the N-Queens workload: a single round whose roots are the
/// first-row placements; tasks expand until `split_depth`, where leaf
/// grains carry the measured subtree sizes.
pub fn nqueens(cfg: NQueensConfig) -> Workload {
    nqueens_with_grains(cfg).0
}

/// Like [`nqueens`], but also returns the [`GrainTable`] mapping each
/// task to its real computation, for live execution.
pub fn nqueens_with_grains(cfg: NQueensConfig) -> (Workload, GrainTable) {
    build(cfg, &|leaf_rows| {
        host_workers(leaf_rows, SPREAD_MIN_LEAF_ROWS)
    })
}

/// The builder proper; `workers_for` maps a sweep's leaf-rows to the
/// pool size it is measured on.
pub(crate) fn build(cfg: NQueensConfig, workers_for: WorkersFor) -> (Workload, GrainTable) {
    assert!((1..=16).contains(&cfg.n), "board size out of range");
    assert!(cfg.split_depth >= 1 && cfg.split_depth <= cfg.n);
    assert!(cfg.root_depth <= cfg.split_depth, "roots below the split");
    // Enumerate the valid prefixes at `root_depth`; each becomes a root
    // task that expands (dynamically) down to the split depth.
    let full = (1u32 << cfg.n) - 1;
    let mut roots = vec![(0u32, 0u32, 0u32, 0u32)];
    for _ in 0..cfg.root_depth {
        let mut next = Vec::with_capacity(roots.len() * cfg.n as usize);
        for (row, cols, d1, d2) in roots {
            let mut free = full & !(cols | d1 | d2);
            while free != 0 {
                let bit = free & free.wrapping_neg();
                free ^= bit;
                next.push((row + 1, cols | bit, (d1 | bit) << 1, (d2 | bit) >> 1));
            }
        }
        roots = next;
    }
    let mut tree = Prefixes {
        cfg,
        parents: Vec::new(),
        specs: Vec::new(),
    };
    for root in roots {
        tree.collect(None, root);
    }
    let Prefixes { parents, specs, .. } = tree;

    // Every task once, in task-id order: an interior task's one-row
    // expansion, a leaf's exact subtree node count (and, from the same
    // enumeration, its output). The leaves are the valid prefixes in
    // lexicographic order, and reflecting the board (column c to
    // n-1-c) reverses that order: of L leaves, leaf k's subtree is the
    // mirror image of leaf L-1-k's, with the same nodes and solutions.
    // So only leaves 0..⌈L/2⌉ are enumerated; each later one counts
    // as its partner and computes its own output from its own masks.
    let leaves = specs.iter().filter(|s| is_leaf(s)).count();
    let enumerated = leaves.div_ceil(2);
    let workers = workers_for(enumerated as u64 * u64::from(cfg.n - cfg.split_depth));
    // Leaves from this task id on are mirrors.
    let mirrors_from = (specs.iter().enumerate())
        .filter(|(_, s)| is_leaf(s))
        .nth(enumerated)
        .map_or(specs.len(), |(id, _)| id);
    // (nodes, solutions) of each leaf with a mirror, in leaf order:
    // the mirrors, in theirs, pop their partners' off the end.
    let mut counted = Vec::with_capacity(leaves / 2);
    let mut forest = TaskForest::new();
    let mut totals = GrainOut::default();
    let ids = (0..specs.len()).step_by(BATCH);
    for (start, (batch, parents)) in ids.zip(specs.chunks(BATCH).zip(parents.chunks(BATCH))) {
        let is_mirror = |i: usize, spec: &GrainSpec| start + i >= mirrors_from && is_leaf(spec);
        let todo: Vec<&GrainSpec> = (batch.iter().enumerate())
            .filter_map(|(i, spec)| (!is_mirror(i, spec)).then_some(spec))
            .collect();
        let mut measured = par_map_with(workers, &todo, |spec| spec.measure()).into_iter();
        for (i, (spec, &parent)) in batch.iter().zip(parents).enumerate() {
            let (nodes, out) = match *spec {
                GrainSpec::QueensLeaf { cols, diag1, .. } if is_mirror(i, spec) => {
                    let (nodes, sols) = counted.pop().expect("a partner per mirror");
                    (nodes, queens_leaf_out(nodes, sols, cols, diag1))
                }
                _ => {
                    let (nodes, out) = measured.next().expect("a measurement per enumerated task");
                    if is_leaf(spec) && counted.len() < leaves / 2 {
                        counted.push((nodes, out.solutions));
                    }
                    (nodes, out)
                }
            };
            let grain = grain_us(nodes, cfg.ns_per_node);
            match parent {
                Some(p) => forest.add_child(p, grain),
                None => forest.add_root(grain),
            };
            totals = totals.plus(out);
        }
    }
    debug_assert!(counted.is_empty());
    let w = Workload::single(format!("{}-queens", cfg.n), forest);
    debug_assert!(w.validate().is_ok());
    debug_assert_eq!(specs.len(), w.rounds[0].len());
    (w, GrainTable::seeded(vec![specs], totals))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_solution_counts() {
        // OEIS A000170.
        assert_eq!(solve(1).1, 1);
        assert_eq!(solve(4).1, 2);
        assert_eq!(solve(6).1, 4);
        assert_eq!(solve(8).1, 92);
        assert_eq!(solve(10).1, 724);
    }

    #[test]
    fn node_count_matches_sum_of_leaf_subtrees() {
        // The forest's leaf grains must add up to the sequential node
        // count (modulo the per-node→µs rounding, so compare in nodes
        // by using ns_per_node = 1000 for exact µs = nodes).
        let cfg = NQueensConfig {
            n: 8,
            split_depth: 3,
            root_depth: 2,
            ns_per_node: 1000,
        };
        let w = nqueens(cfg);
        let (total_nodes, _) = solve(8);
        let f = &w.rounds[0];
        // Interior tasks cost n nodes each (expansion probes); count
        // leaves only: tasks with no children.
        let leaf_work: u64 = (0..f.len() as u32)
            .filter(|&id| f.children(id).is_empty())
            .map(|id| f.grain(id))
            .sum();
        // Leaf subtrees exclude the first `split_depth` placed queens;
        // the prefix nodes are 1 (root expansion) + valid 1-prefixes +
        // valid 2-prefixes + valid 3-prefixes.
        let mut prefix_nodes = 0u64;
        fn count_prefixes(n: u32, row: u32, depth: u32, cols: u32, d1: u32, d2: u32) -> u64 {
            if row == depth {
                return 0;
            }
            let full = (1u32 << n) - 1;
            let mut free = full & !(cols | d1 | d2);
            let mut c = 0;
            while free != 0 {
                let bit = free & free.wrapping_neg();
                free ^= bit;
                c += 1 + count_prefixes(
                    n,
                    row + 1,
                    depth,
                    cols | bit,
                    (d1 | bit) << 1,
                    (d2 | bit) >> 1,
                );
            }
            c
        }
        prefix_nodes += count_prefixes(8, 0, 3, 0, 0, 0);
        assert_eq!(leaf_work + prefix_nodes, total_nodes);
    }

    #[test]
    fn forest_is_valid_and_deterministic() {
        let cfg = NQueensConfig::paper(9);
        let a = nqueens(cfg);
        let b = nqueens(cfg);
        assert_eq!(a, b);
        assert!(a.validate().is_ok());
    }

    #[test]
    fn task_count_grows_with_board() {
        let t9 = nqueens(NQueensConfig::paper(9)).stats().tasks;
        let t10 = nqueens(NQueensConfig::paper(10)).stats().tasks;
        assert!(t10 > t9, "{t10} <= {t9}");
    }

    #[test]
    fn grain_variance_is_large() {
        // The paper: "the computation amount in each task are
        // unpredictable" — leaf grains should spread widely.
        let w = nqueens(NQueensConfig::paper(10));
        let f = &w.rounds[0];
        let leaves: Vec<u64> = (0..f.len() as u32)
            .filter(|&id| f.children(id).is_empty())
            .map(|id| f.grain(id))
            .collect();
        let max = *leaves.iter().max().unwrap();
        let min = *leaves.iter().min().unwrap();
        assert!(max >= min * 4, "grains too uniform: {min}..{max}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_board_rejected() {
        solve(17);
    }
}
