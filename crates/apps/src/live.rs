//! Grain closures for live execution: the *real work* behind each task.
//!
//! The simulator only needs a task's modelled duration; a live backend
//! (one OS thread per node, wall-clock time) needs the task's actual
//! computation. Each app's `*_with_grains` constructor returns its
//! [`Workload`](rips_taskgraph::Workload) together with a [`GrainTable`]
//! mapping `(round, task id)` to a [`GrainSpec`] — a self-contained
//! description of the work that task stands for:
//!
//! * N-Queens: interior tasks re-probe one row's free squares; leaf
//!   tasks enumerate their whole subtree (nodes *and* solutions).
//! * 15-puzzle: every task is a threshold-bounded DFS from its frontier
//!   state (solutions = goals found at the final threshold).
//! * GROMOS: every task counts its atom group's half-shell pairs within
//!   the cutoff against the full position set.
//!
//! Running a spec yields a [`GrainOut`]: a deterministic, execution-
//! derived checksum and a solution count. Both are summed
//! order-independently across tasks, so a live run's totals must equal
//! [`GrainTable::static_totals`] — computed without any scheduler —
//! whatever the thread interleaving was. That equality (plus task
//! conservation) is the cross-backend validation contract.
//!
//! **One search per distinct subtree.** A builder sizes a task by
//! running its computation, and that run already yields the task's
//! [`GrainOut`]: `GrainSpec::measure` returns both, and
//! [`GrainSpec::run`] is its second half. The N-Queens and 15-puzzle
//! builders fold the outputs they measured into the table, so their
//! `static_totals()` is a field read; only GROMOS (whose builder
//! counts pairs over x–y columns, a different computation from the
//! grain's all-pairs half-shell scan) derives its ground truth on
//! first use.
//! Neither search builder runs a subtree twice: N-Queens enumerates
//! one leaf of every mirror pair and gives the other the same counts
//! (its output from its own masks, through the helper `measure` uses),
//! and the 15-puzzle's split reads a subtree's children from the
//! records of the one DFS that sized it. `run` still searches every
//! grain in full, so a live run's totals re-check both shortcuts.

use std::sync::{Arc, OnceLock};

use rips_taskgraph::par_map_with;

use crate::nqueens;
use crate::puzzle::{self, Board};

/// What executing one grain produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GrainOut {
    /// Deterministic fingerprint of the computation's result (mixing
    /// measured quantities like node counts and pair sums — not just
    /// the inputs), summed wrapping across tasks.
    pub checksum: u64,
    /// Solutions found (queens placements, puzzle goals; 0 for MD).
    pub solutions: u64,
}

impl GrainOut {
    /// Order-independent accumulation: wrapping checksum sum, solution
    /// sum.
    pub(crate) fn plus(self, other: GrainOut) -> GrainOut {
        GrainOut {
            checksum: self.checksum.wrapping_add(other.checksum),
            solutions: self.solutions + other.solutions,
        }
    }
}

/// Shared context for GROMOS grains: every group's pair search scans
/// the same position set.
#[derive(Debug, PartialEq)]
pub struct GromosCtx {
    /// Spatially sorted atom positions (Å).
    pub atoms: Vec<[f64; 3]>,
    /// Nonbonded cutoff radius (Å).
    pub cutoff: f64,
}

/// The real computation behind one task.
#[derive(Debug, Clone, PartialEq)]
pub enum GrainSpec {
    /// N-Queens interior task: probe the free squares of row `row`
    /// under the given occupancy masks (the expansion work whose valid
    /// placements became this task's children).
    QueensInterior {
        /// Board size.
        n: u32,
        /// Row this prefix has reached.
        row: u32,
        /// Occupied-column mask.
        cols: u32,
        /// Occupied ↘-diagonal mask.
        diag1: u32,
        /// Occupied ↗-diagonal mask.
        diag2: u32,
    },
    /// N-Queens leaf task: exhaustively enumerate the subtree under
    /// this split-depth prefix.
    QueensLeaf {
        /// Board size.
        n: u32,
        /// Row this prefix has reached (the split depth).
        row: u32,
        /// Occupied-column mask.
        cols: u32,
        /// Occupied ↘-diagonal mask.
        diag1: u32,
        /// Occupied ↗-diagonal mask.
        diag2: u32,
    },
    /// 15-puzzle task: threshold-bounded DFS from a frontier state.
    PuzzleDfs {
        /// Frontier position.
        board: Board,
        /// Moves already made to reach it.
        g: u32,
        /// Arriving move (as a direction index), so the DFS does not
        /// immediately undo it.
        last: Option<u8>,
        /// This IDA* iteration's cost threshold.
        threshold: u32,
    },
    /// GROMOS task: half-shell pair count for one contiguous atom
    /// group against the whole molecule.
    GromosGroup {
        /// The molecule (shared by every group of the workload).
        ctx: Arc<GromosCtx>,
        /// First atom index of this group.
        start: u32,
        /// Number of atoms in this group.
        len: u32,
    },
}

/// FNV-1a-style mix of measured quantities into a fingerprint.
fn mix(vals: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &v in vals {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The output of an N-Queens leaf whose subtree holds `nodes` nodes
/// and `sols` solutions (shared by [`GrainSpec::measure`] and the
/// builder, which counts a mirror leaf's subtree by its partner's).
pub(crate) fn queens_leaf_out(nodes: u64, sols: u64, cols: u32, diag1: u32) -> GrainOut {
    GrainOut {
        checksum: mix(&[nodes, sols, u64::from(cols), u64::from(diag1)]),
        solutions: sols,
    }
}

/// The output of one 15-puzzle bounded DFS (shared by the builder,
/// which keeps the measurement beside it, and [`GrainSpec::measure`]).
pub(crate) fn puzzle_out(m: &puzzle::Measured) -> GrainOut {
    GrainOut {
        checksum: mix(&[m.nodes, u64::from(m.exceed), u64::from(m.found)]),
        solutions: u64::from(m.found),
    }
}

impl GrainSpec {
    /// Runs the grain. Deterministic: same spec, same result, on any
    /// thread.
    pub fn run(&self) -> GrainOut {
        self.measure().1
    }

    /// Runs the grain and also reports how much work it was, in the
    /// unit its builder sizes tasks by (search nodes, atom pairs) —
    /// the one computation behind both a task's modelled duration and
    /// its live result.
    pub(crate) fn measure(&self) -> (u64, GrainOut) {
        match *self {
            GrainSpec::QueensInterior {
                n,
                row,
                cols,
                diag1,
                diag2,
            } => {
                let full = (1u32 << n) - 1;
                let free = full & !(cols | diag1 | diag2);
                let out = GrainOut {
                    checksum: mix(&[
                        u64::from(row),
                        u64::from(cols),
                        u64::from(free),
                        u64::from(free.count_ones()),
                    ]),
                    solutions: 0,
                };
                // Expanding one row costs ~one node per square probed.
                (u64::from(n), out)
            }
            GrainSpec::QueensLeaf {
                n,
                row,
                cols,
                diag1,
                diag2,
            } => {
                let (nodes, sols) = nqueens::enumerate(n, row, cols, diag1, diag2);
                (nodes, queens_leaf_out(nodes, sols, cols, diag1))
            }
            GrainSpec::PuzzleDfs {
                ref board,
                g,
                last,
                threshold,
            } => {
                let m = puzzle::run_bounded(board, g, threshold, last);
                (m.nodes, puzzle_out(&m))
            }
            GrainSpec::GromosGroup {
                ref ctx,
                start,
                len,
            } => {
                let atoms = &ctx.atoms;
                let cut2 = ctx.cutoff * ctx.cutoff;
                let mut pairs = 0u64;
                let mut quantized = 0u64;
                for i in start as usize..(start + len) as usize {
                    let a = &atoms[i];
                    for b in &atoms[i + 1..] {
                        let d2 =
                            (a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2);
                        if d2 <= cut2 {
                            pairs += 1;
                            // Stand-in for a force term: accumulate a
                            // quantized function of the pair distance.
                            quantized = quantized.wrapping_add((d2 * 4096.0) as u64);
                        }
                    }
                }
                let out = GrainOut {
                    checksum: mix(&[pairs, quantized, u64::from(start)]),
                    solutions: 0,
                };
                (pairs, out)
            }
        }
    }
}

/// Per-round grain specs for a workload, indexed exactly like its
/// forests: `rounds[r][task_id]`.
#[derive(Debug, Clone)]
pub struct GrainTable {
    rounds: Vec<Vec<GrainSpec>>,
    /// [`static_totals`](GrainTable::static_totals): seeded by a
    /// builder that measured every grain, else derived on first use.
    /// Either way a table shared across repeated job submissions (the
    /// serve layer resubmits the same app spec many times) holds its
    /// ground truth once, and cloning carries the value along.
    totals: OnceLock<GrainOut>,
    /// Workers the derive-on-first-use pass spreads over (1 = inline),
    /// fixed by the builder from the size of its input.
    lazy_workers: usize,
}

impl GrainTable {
    /// A table whose builder ran every grain and folded the outputs
    /// into `totals`.
    pub(crate) fn seeded(rounds: Vec<Vec<GrainSpec>>, totals: GrainOut) -> Self {
        GrainTable {
            rounds,
            totals: OnceLock::from(totals),
            lazy_workers: 1,
        }
    }

    /// A table whose builder sized tasks by some other computation
    /// than the grains themselves: the ground truth is derived on
    /// first use, over `workers` threads.
    pub(crate) fn lazy(rounds: Vec<Vec<GrainSpec>>, workers: usize) -> Self {
        GrainTable {
            rounds,
            totals: OnceLock::new(),
            lazy_workers: workers,
        }
    }

    /// Number of rounds covered.
    pub fn rounds(&self) -> usize {
        self.rounds.len()
    }

    /// The spec for task `task` of round `round`.
    ///
    /// # Panics
    /// Panics if the table does not cover that task — the table must be
    /// built from the same config as the workload being executed.
    pub fn spec(&self, round: u32, task: u32) -> &GrainSpec {
        &self.rounds[round as usize][task as usize]
    }

    /// Runs task `task` of round `round`.
    pub fn run(&self, round: u32, task: u32) -> GrainOut {
        self.spec(round, task).run()
    }

    /// The sum of every grain's output: the scheduler-independent
    /// reference a live run's totals must match.
    ///
    /// O(1) for a table its builder seeded (N-Queens, 15-puzzle).
    /// Otherwise the first call runs every grain once and the result
    /// is kept in the table, so per-job-instance ground truth is O(1)
    /// when the same spec is submitted repeatedly.
    pub fn static_totals(&self) -> GrainOut {
        *self.totals.get_or_init(|| {
            let specs: Vec<&GrainSpec> = self.rounds.iter().flatten().collect();
            let outs = par_map_with(self.lazy_workers, &specs, |spec| spec.run());
            outs.into_iter().fold(GrainOut::default(), GrainOut::plus)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gromos::{gromos_with_grains, GromosConfig};
    use crate::nqueens::{enumerate, nqueens_with_grains, solve, NQueensConfig};
    use crate::puzzle::tests::DEEP_SPLIT;
    use crate::puzzle::{puzzle_with_grains, PuzzleConfig};
    use rips_taskgraph::Workload;

    #[test]
    fn queens_table_covers_workload_and_finds_all_solutions() {
        let cfg = NQueensConfig::paper(9);
        let (w, table) = nqueens_with_grains(cfg);
        assert_eq!(table.rounds(), w.rounds.len());
        for (r, forest) in w.rounds.iter().enumerate() {
            assert_eq!(table.rounds[r].len(), forest.len());
        }
        // Every complete placement lives in exactly one leaf subtree.
        assert_eq!(table.static_totals().solutions, solve(9).1);
    }

    /// Every board up to `max_n` under every split depth up to 5 and
    /// root depth up to 2, with grain µs == node count.
    fn small_queens(max_n: u32) -> impl Iterator<Item = NQueensConfig> {
        (1..=max_n).flat_map(|n| {
            (1..=n.min(5)).flat_map(move |split_depth| {
                (0..=split_depth.min(2)).map(move |root_depth| NQueensConfig {
                    n,
                    split_depth,
                    root_depth,
                    ns_per_node: 1000,
                })
            })
        })
    }

    #[test]
    fn queens_leaf_grains_do_the_measured_work() {
        // A task's recorded grain is its spec's work (scaled):
        // re-running the spec must traverse that same subtree, for the
        // mirror leaves the builder never enumerates too, and the
        // seeded totals are what running every grain adds up to.
        for cfg in small_queens(12) {
            let (w, table) = nqueens_with_grains(cfg);
            let f = &w.rounds[0];
            let mut folded = GrainOut::default();
            for id in 0..f.len() as u32 {
                let (nodes, _) = table.spec(0, id).measure();
                assert_eq!(f.grain(id), nodes.max(1), "{cfg:?}: task {id}");
                folded = folded.plus(table.run(0, id));
            }
            assert_eq!(table.static_totals(), folded, "{cfg:?}");
        }
    }

    #[test]
    fn reflecting_the_board_reverses_the_queens_leaf_order() {
        // The lemma the builder's mirror pairing rests on: of L leaves,
        // leaf L-1-k is leaf k with columns c and n-1-c swapped, which
        // swaps the two diagonal masks too, and counts the same.
        for cfg in small_queens(10) {
            let n = cfg.n;
            let (w, table) = nqueens_with_grains(cfg);
            let leaves: Vec<_> = (0..w.rounds[0].len() as u32)
                .filter_map(|id| match *table.spec(0, id) {
                    GrainSpec::QueensLeaf {
                        row,
                        cols,
                        diag1,
                        diag2,
                        ..
                    } => Some((row, cols, diag1, diag2)),
                    _ => None,
                })
                .collect();
            let full = (1u32 << n) - 1;
            let rev = |mask: u32| mask.reverse_bits() >> (32 - n);
            for (k, &(row, cols, diag1, diag2)) in leaves.iter().enumerate() {
                let (r, c, d1, d2) = leaves[leaves.len() - 1 - k];
                let reflected = (row, rev(cols), rev(diag2), rev(diag1 & full));
                assert_eq!((r, c, d1 & full, d2), reflected, "{cfg:?}: leaf {k}");
                assert_eq!(
                    enumerate(n, row, cols, diag1, diag2),
                    enumerate(n, r, c, d1, d2),
                    "{cfg:?}: leaf {k}"
                );
            }
        }
    }

    #[test]
    fn puzzle_table_matches_rounds_and_solves() {
        let cfg = PuzzleConfig {
            scramble_len: 14,
            seed: 5,
            min_tasks: 16,
            ns_per_node: 1000,
            split_divisor: 1024,
            split_floor_nodes: 20_000,
        };
        let (w, table) = puzzle_with_grains(cfg);
        assert_eq!(table.rounds(), w.rounds.len());
        for (r, forest) in w.rounds.iter().enumerate() {
            assert_eq!(table.rounds[r].len(), forest.len());
        }
        let totals = table.static_totals();
        // The final iteration finds the goal (possibly through several
        // frontier subtrees via transpositions).
        assert!(totals.solutions >= 1, "no goal found");
    }

    #[test]
    fn gromos_table_is_deterministic_and_solution_free() {
        let mut cfg = GromosConfig::paper(8.0);
        cfg.atoms = 400;
        cfg.groups = 286;
        let (w, table) = gromos_with_grains(cfg);
        assert_eq!(table.rounds(), w.rounds.len());
        assert_eq!(table.rounds[0].len(), 286);
        let a = table.static_totals();
        let b = table.static_totals();
        assert_eq!(a, b);
        assert_eq!(a.solutions, 0);
        assert_ne!(a.checksum, 0);
    }

    /// The catalog's smallest 15-puzzle (`ida-mini` in `rips-serve`).
    const IDA_MINI: PuzzleConfig = PuzzleConfig {
        scramble_len: 12,
        seed: 7,
        min_tasks: 8,
        ns_per_node: 500,
        split_divisor: 1024,
        split_floor_nodes: 20_000,
    };

    fn small_gromos() -> GromosConfig {
        GromosConfig {
            atoms: 400,
            groups: 286,
            ..GromosConfig::paper(8.0)
        }
    }

    /// Every builder on a pool of exactly `workers`, whatever the size
    /// of the input.
    fn build_all(workers: usize) -> Vec<(Workload, GrainTable)> {
        let pool: crate::WorkersFor = &move |_| workers;
        let mut built: Vec<_> = (8..=12)
            .map(|n| crate::nqueens::build(NQueensConfig::paper(n), pool))
            .collect();
        for cfg in [IDA_MINI, DEEP_SPLIT, PuzzleConfig::paper(1)] {
            built.push(crate::puzzle::build(cfg, pool));
        }
        built.push(crate::gromos::build(small_gromos(), pool));
        built
    }

    #[test]
    fn builders_are_the_same_on_any_worker_count() {
        let inline = build_all(1);
        for workers in [2, 7] {
            for ((w1, t1), (w, t)) in inline.iter().zip(build_all(workers)) {
                assert_eq!(*w1, w, "{}: {workers} workers", w1.name);
                assert_eq!(t1.rounds, t.rounds, "{}: {workers} workers", w1.name);
                assert_eq!(t1.static_totals(), t.static_totals(), "{}", w1.name);
            }
        }
    }

    #[test]
    fn table_totals_equal_the_fold_of_every_grain() {
        // What a builder folded in while measuring (or the table
        // derives on first use, spread over a pool) must be what live
        // threads add up running the specs one by one.
        for workers in [1, 2] {
            for (w, table) in build_all(workers) {
                let specs = table.rounds.iter().flatten();
                let folded = specs.fold(GrainOut::default(), |acc, s| acc.plus(s.run()));
                let seeded = table.totals.get().copied();
                if w.name.starts_with("gromos") {
                    assert_eq!(seeded, None, "{}: column-search build cannot seed", w.name);
                } else {
                    assert_eq!(seeded, Some(folded), "{}", w.name);
                }
                assert_eq!(table.static_totals(), folded, "{}", w.name);
                // A clone carries the value along — so repeated job
                // instances sharing the table (or cloning it) get O(1)
                // ground truth.
                assert_eq!(table.clone().totals.get().copied(), Some(folded));
            }
        }
    }

    #[test]
    fn builders_with_and_without_grains_agree() {
        let qcfg = NQueensConfig::paper(8);
        assert_eq!(crate::nqueens::nqueens(qcfg), nqueens_with_grains(qcfg).0);
        let pcfg = PuzzleConfig {
            scramble_len: 12,
            seed: 7,
            min_tasks: 8,
            ns_per_node: 500,
            split_divisor: 1024,
            split_floor_nodes: 20_000,
        };
        assert_eq!(crate::puzzle::puzzle(pcfg), puzzle_with_grains(pcfg).0);
        let mut gcfg = GromosConfig::paper(8.0);
        gcfg.atoms = 300;
        gcfg.groups = 200;
        assert_eq!(crate::gromos::gromos(gcfg), gromos_with_grains(gcfg).0);
    }
}
