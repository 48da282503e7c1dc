//! Every scheduler of the paper's Table I, each a
//! [`BalancerPolicy`](rips_runtime::BalancerPolicy) over the runtime's
//! one [`NodeDriver`](rips_runtime::NodeDriver), so every row is
//! measured the same way: RIPS, the paper's contribution (below), and
//! the baselines it is measured against — [`random`] allocation, the
//! [`gradient`] model and receiver-initiated diffusion ([`rid`]) — plus
//! sender-initiated diffusion from the related work ([`sid`], measured
//! by `rips repro sid-vs-rid`). A baseline is a message enum and its
//! transfer decisions, ~100 lines.
//!
//! # RIPS — Runtime Incremental Parallel Scheduling
//!
//! Execution alternates between *user phases* (task execution and
//! dynamic task generation) and *system phases* (all processors
//! cooperatively collect global load information, run a parallel
//! scheduling algorithm, and migrate tasks). A run starts with a system
//! phase that schedules the initial tasks (paper Figure 1).
//!
//! Policies (paper §2):
//!
//! * **local**: [`LocalPolicy::Eager`] keeps two queues — tasks
//!   generated during a user phase enter the ready-to-schedule (RTS)
//!   queue and may only execute after a system phase moves them to the
//!   ready-to-execute (RTE) queue; [`LocalPolicy::Lazy`] uses a single
//!   RTE queue, so tasks can run where they were generated without
//!   ever being scheduled.
//! * **global**: [`GlobalPolicy::Any`] lets the first processor whose
//!   RTE queue empties broadcast an *init* signal (redundant initiators
//!   suppressed by the phase-index variable); [`GlobalPolicy::All`]
//!   aggregates *ready* signals up a logical spanning tree and only the
//!   root initiates. The paper finds **ANY-Lazy** best.
//!
//! The system phase runs a parallel scheduling algorithm from
//! `rips-sched` — flat or tiled MWA on the paper's 2-D mesh — charging
//! `comm_step × steps` of wall-clock time and per-node CPU overhead,
//! then migrates tasks as real simulator messages packed per (source,
//! destination) pair.

#![forbid(unsafe_code)]

mod common;
mod gradient;
mod program;
mod random;
mod rid;
mod sid;

pub use gradient::{gradient, gradient_policy, GradientPolicy};
pub use program::{
    rips, GlobalPolicy, LoadMetric, LocalPolicy, Machine, RipsConfig, RipsFleet, RipsPolicy,
};
pub use random::{random, random_policy, RandomPolicy};
pub use rid::{rid, rid_policy, RidPolicy, RID_U};
pub use rips_runtime::PhaseLog;
pub use sid::{sid, sid_policy, SidPolicy};
