//! Evaluation metrics and report rendering.
//!
//! * [`optimal_makespan`] / [`optimal_efficiency`] — the paper's Table
//!   II idealisation: "an optimal efficiency is calculated assuming (1)
//!   optimal scheduling; and (2) no overhead". Computed by
//!   longest-processing-time list scheduling with zero overhead,
//!   respecting task precedence and round barriers.
//! * [`quality_factor`] — Figure 5's normalized quality factor
//!   `(µ_opt − µ_rand) / (µ_opt − µ_g)`: 1 for the randomized baseline,
//!   larger for better schedulers.
//! * [`speedup`] — Table III's `Ts / Tp`.
//! * [`Table`] and [`Series`] — fixed-width text rendering for the
//!   [`repro`](crate::repro) rows that regenerate the paper's tables
//!   and figures.
//! * [`utilization_chart`] — an ASCII Gantt view of a simulation's
//!   per-node timelines: user work vs system overhead (Table I's `Th`)
//!   vs idle (Table I's `Ti`).

pub use crate::optimal::{optimal_efficiency, optimal_makespan};
pub use crate::render::{Series, Table};
pub use crate::timeline::utilization_chart;

/// Figure 5's normalized quality factor of scheduler `g`:
/// `(µ_opt − µ_rand) / (µ_opt − µ_g)`.
///
/// Equal to 1 for the randomized-allocation baseline; > 1 for
/// schedulers that close more of the gap to the ideal. If `mu_g`
/// reaches `mu_opt` the factor is unbounded; this returns `f64::INFINITY`
/// in that case (and the caller typically clamps for display).
///
/// # Panics
/// Panics if any efficiency is outside `(0, 1]` or `mu_opt` is not the
/// largest.
pub fn quality_factor(mu_opt: f64, mu_rand: f64, mu_g: f64) -> f64 {
    for (name, v) in [("mu_opt", mu_opt), ("mu_rand", mu_rand), ("mu_g", mu_g)] {
        assert!(v > 0.0 && v <= 1.0, "{name} = {v} out of range");
    }
    assert!(
        mu_opt >= mu_rand && mu_opt >= mu_g,
        "optimal efficiency must dominate ({mu_opt} vs {mu_rand}/{mu_g})"
    );
    let denom = mu_opt - mu_g;
    if denom == 0.0 {
        return f64::INFINITY;
    }
    (mu_opt - mu_rand) / denom
}

/// Table III's speedup `Ts / Tp` (both in the same unit).
pub fn speedup(ts_us: u64, tp_us: u64) -> f64 {
    assert!(tp_us > 0, "zero parallel time");
    ts_us as f64 / tp_us as f64
}
