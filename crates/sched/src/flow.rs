//! Minimum-cost maximum-flow and the paper's optimal-scheduling
//! reduction.
//!
//! §3 of the paper: *"In general, this problem can be converted to the
//! minimum-cost maximum-flow problem as follows. Each edge is given a
//! tuple (capacity, cost) … Set capacity = ∞ and cost = 1 for all edges.
//! Then, add a source node s with an edge (s, i) to each node i if
//! wᵢ > w_avg, and a sink node t with an edge (j, t) from each node j if
//! wⱼ < w_avg … A minimum cost integral flow yields a solution."*
//!
//! This module implements exactly that: a general MCMF solver
//! ([`FlowNetwork`]) plus [`optimal_rebalance`], which applies the
//! reduction to any topology and returns both the optimal transfer cost
//! `Σ eₖ` and the per-link task flows. It is the exact baseline against
//! which Figure 4 normalises MWA's cost.

pub use crate::mcmf::{EdgeId, FlowNetwork};
pub use crate::rebalance::{optimal_rebalance, quotas, OptimalPlan};
