//! The dynamic load-balancing baselines of Table I, expressed as
//! [`rips_runtime::BalancerPolicy`] implementations over the shared
//! policy kernel.
//!
//! * [`random`] — **randomized allocation**: every newly generated task
//!   is shipped to a uniformly random processor. Statistically balanced
//!   but with near-zero locality (the paper's low-overhead baseline).
//! * [`gradient`] — the **gradient model** (Lin–Keller): idle nodes set
//!   a proximity of 0, others propagate `1 + min(neighbour proximity)`,
//!   and overloaded nodes push tasks down the gradient one hop at a
//!   time. Spreads load slowly and chats constantly — the paper finds
//!   it both poorly balanced and expensive.
//! * [`rid`] — **receiver-initiated diffusion** (Willebeek-LeMair &
//!   Reeves): underloaded nodes (`load < L_LOW`) request work from
//!   their most-loaded neighbour; load information is exchanged between
//!   neighbours when a node's load drifts by the update factor `u`.
//!   The paper uses `L_LOW = 2`, `L_threshold = 1`, `u = 0.4` (and
//!   `u = 0.7` for IDA\* on ≥ 64 processors).
//!
//! A fourth baseline, [`sid`] (sender-initiated diffusion), is the
//! related-work counterpart the paper cites via Eager et al. — not in
//! Table I, but measured by `rips repro sid-vs-rid`.
//!
//! Each balancer is a ~100-line policy: a message enum, the transfer
//! decisions, and nothing else. Task execution, migration accounting,
//! round barriers, and termination live once, in the runtime's
//! [`NodeDriver`](rips_runtime::NodeDriver) — so Table I's columns are
//! measured identically for every row, including the RIPS runtime in
//! `rips-core`, which plugs into the same kernel.

#![forbid(unsafe_code)]

mod gradient;
mod random;
mod rid;
mod sid;

pub use gradient::{gradient, gradient_policy, GradientParams, GradientPolicy};
pub use random::{random, random_policy, RandomPolicy};
pub use rid::{rid, rid_policy, RidParams, RidPolicy};
pub use sid::{sid, sid_policy, SidParams, SidPolicy};
