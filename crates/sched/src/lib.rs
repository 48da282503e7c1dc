//! Parallel scheduling algorithms (the paper's §3).
//!
//! A *parallel scheduling algorithm* takes the per-node task counts
//! `w` and produces a [`TransferPlan`]: an ordered list of
//! neighbour-to-neighbour task movements after which every node holds
//! its quota (`⌊T/N⌋`, the first `T mod N` nodes one more). All
//! processors execute it cooperatively in a bounded number of
//! communication steps.
//!
//! Implemented algorithms:
//!
//! * [`flow`] — the **optimal formulation**: min-cost max-flow over the
//!   machine's links ([`flow::optimal_rebalance`]), the exact `Σ eₖ`
//!   baseline Figure 4 normalises MWA against, and the canonical
//!   [`flow::quotas`] every algorithm below balances to.
//! * [`mwa`] — the **Mesh Walking Algorithm** of Figure 3, the paper's
//!   contribution: 5 steps, `3(n1+n2)` communication steps, per-node
//!   final loads within one task of each other (Theorem 1), the
//!   minimum possible number of non-local tasks (Theorem 2), and
//!   optimal `Σ eₖ` on ≤ 4 processors (Lemma 2).
//! * [`tiled_mwa`] — **hierarchical MWA** for very large meshes:
//!   cross-tile exchange over `⌈n^(1/4)⌉`-sided tiles plus the
//!   unmodified walk inside each tile; same final loads as [`mwa`]
//!   (Theorem 1 exactly) in `O(n^(1/4))` instead of `O(√n)` steps,
//!   trading away Theorem 2's migration-minimality equality.
//!
//! The paper's machine is a 2-D mesh, so these are the only planners:
//! the tree and hypercube algorithms its §4 cites (TWA, Cybenko's
//! DEM) are related work, not implemented here.
//!
//! RIPS plans a phase with the centralized arithmetic above and
//! charges it the closed-form step bound that sits beside each
//! algorithm ([`mwa_steps`], [`TileGrid::hier_steps`]). The
//! message-passing realisation of MWA, per-node programs on a
//! lock-step BSP machine, is a test oracle: it lives in
//! `tests/distributed/`, is compiled only into this crate's unit
//! tests, and holds the centralized plan to the same per-link flows
//! and a measured step count within the charged bound.

#![forbid(unsafe_code)]

pub mod flow;
mod mcmf;
mod mwa;
mod plan;
mod rebalance;
mod tiled;

pub use mwa::{mwa, mwa_steps, MwaTrace};
pub use plan::{min_nonlocal_tasks, Move, TransferPlan};
pub use tiled::{tiled_mwa, TileGrid, TiledTrace};

// The message-passing oracle (see the crate doc): test-only code,
// kept out of `src/` and built as part of this crate's unit tests.
#[cfg(test)]
#[path = "../tests/distributed/bsp.rs"]
mod bsp;
#[cfg(test)]
#[path = "../tests/distributed/dmwa.rs"]
mod dmwa;
