//! The paper's three application problems, as real task generators.
//!
//! Each function produces a [`rips_taskgraph::Workload`] whose task
//! structure and grain sizes come from actually running the underlying
//! algorithm (not from synthetic distributions):
//!
//! * [`nqueens()`](nqueens()) — exhaustive N-Queens search (bitmask backtracking).
//!   Tasks are the valid board prefixes at a split depth; leaf grains
//!   are the *exact* node counts of the subtrees they stand for.
//!   "The number of tasks generated and the computation amount in each
//!   task are unpredictable."
//! * [`puzzle()`](puzzle()) — iterative-deepening A\* on the 15-puzzle (Manhattan
//!   heuristic, adaptive frontier splitting). One workload round per IDA\*
//!   iteration — the global synchronisation the paper blames for this
//!   problem's lower efficiency — with per-task grains equal to the
//!   measured bounded-DFS node counts.
//! * [`gromos()`](gromos()) — a GROMOS-like molecular-dynamics force workload on a
//!   synthetic 6968-atom SOD stand-in (see DESIGN.md §2): fixed task
//!   count independent of the cutoff radius, spatially correlated
//!   nonuniform grains from a real neighbour search over z-sorted
//!   x–y columns.

pub mod gromos;
pub mod live;
pub mod nqueens;
pub mod puzzle;

pub use gromos::{gromos, gromos_with_grains, GromosConfig};
pub use live::{GrainOut, GrainSpec, GrainTable, GromosCtx};
pub use nqueens::{nqueens, nqueens_with_grains, NQueensConfig};
pub use puzzle::{puzzle, puzzle_with_grains, PuzzleConfig};

/// A builder's pool-size rule: maps the estimated work of one batch of
/// measurements, in that builder's own unit, to the number of workers
/// [`rips_taskgraph::par_map_with`] spreads it over. The public
/// builders pass [`host_workers`]; tests pin a count.
pub(crate) type WorkersFor<'a> = &'a dyn Fn(u64) -> usize;

/// The inline rule: a batch under `min_work` is measured on the
/// calling thread (a catalog-sized build finishes before a spawned
/// thread would start), anything larger on every host core. The
/// estimate is a property of the builder's input — never a clock.
pub(crate) fn host_workers(work: u64, min_work: u64) -> usize {
    if work < min_work {
        return 1;
    }
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// A task's grain: `work` units measured at `ns_per_unit` each, in
/// whole µs, never zero (a subtree pruned at its root still cost one
/// evaluation, a group with no pair in range its bookkeeping).
pub(crate) fn grain_us(work: u64, ns_per_unit: u64) -> u64 {
    (work.max(1) * ns_per_unit).div_ceil(1000).max(1)
}
