//! Discrete-event simulator of a message-passing multicomputer.
//!
//! The paper's experiments ran on an Intel Paragon; this crate is the
//! substitute substrate (see DESIGN.md §2). It models:
//!
//! * `N` sequential nodes connected by a [`rips_topology::Mesh2D`];
//! * asynchronous point-to-point messages with a configurable
//!   [`LatencyModel`] (`α + β·bytes + H·hops`, plus sender/receiver CPU
//!   costs charged as *system overhead*);
//! * per-node timers;
//! * virtual time in microseconds, with per-node accounting of **user
//!   compute**, **system overhead**, and (by subtraction) **idle** time —
//!   exactly the `T`, `Th`, `Ti` columns of the paper's Table I.
//!
//! Node behaviour is supplied as a [`Program`] state machine. The engine
//! is fully deterministic: events are ordered by `(time, sequence)`, and
//! it draws no random numbers. A program that does seeds its own stream
//! from the engine seed ([`Ctx::seed`]).

mod engine;
mod latency;
mod stats;

pub use engine::{Ctx, Engine, Program};
pub use latency::LatencyModel;
pub use stats::{BusySpan, MemStats, NetStats, NodeStats, RunStats, WorkKind};

/// Virtual time in microseconds.
pub type Time = u64;
