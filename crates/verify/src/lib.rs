//! `rips-verify` — a bounded model checker for the lock-free live
//! paths, in the loom mold and dependency-free (shims policy).
//!
//! The live backend's correctness rests on a few hundred lines of
//! hand-rolled synchronization: the SPSC ring, the Dekker-style
//! park/unpark transport protocol and the Oracle's atomic barrier
//! counter. OS scheduling only ever exercises a handful of
//! their interleavings; this crate explores them *systematically*.
//!
//! # The seam
//!
//! Production crates import atomics/cells/threads from [`sync`] and
//! [`vthread`] instead of `std`. Normally those are re-exports of the
//! real `std` types plus `#[inline(always)]` identity helpers — zero
//! cost, bit-for-bit identical behavior. Compiled with
//! `RUSTFLAGS="--cfg rips_verify"`, the same paths resolve to the
//! instrumented runtime in [`rt`]: every atomic access, fence, cell
//! access and park becomes a *scheduling point* that yields to the
//! checker, which records the access ordering in a vector-clock
//! happens-before graph.
//!
//! # The explorer
//!
//! [`Checker`] runs a model closure (2–4 threads spawned through
//! [`vthread::spawn`]) under every schedule reachable within a
//! *preemption bound* (DFS mode), or under seeded random schedules
//! (PCT-style mode) when the bounded space is too large. It reports:
//!
//! * **data races** — conflicting accesses to an
//!   [`UnsafeCellWrap`](sync::cell::UnsafeCellWrap) not ordered by the
//!   tracked happens-before relation (so a weakened `Acquire`/`Release`
//!   that breaks the edge a protocol relies on surfaces here);
//! * **deadlocks** — no runnable thread while some are parked/joining;
//! * **livelocks** — a per-execution step budget for lost-wakeup spins;
//! * **assertion failures** — any panic in model code.
//!
//! Failures carry a deterministic replay: the exact decision sequence
//! plus a rendered step-by-step trace ([`Violation`]).
//!
//! # The mutation sweep
//!
//! Site labels on ordering-sensitive operations ([`sync::ord`],
//! [`sync::fence_at`], [`sync::swap_bool`]) double as mutation handles:
//! [`Checker::mutation`] weakens one ordering to `Relaxed`, deletes one
//! fence, or splits one RMW, proving the checker detects the exact bug
//! class it exists for (see the `verify_model` suites in `rips-live`
//! and `rips-runtime`).
//!
//! # Soundness caveat
//!
//! The checker executes interleavings *sequentially consistently* and
//! detects ordering bugs through the happens-before graph, not through
//! weak-memory value speculation: a relaxed load still observes the
//! last value written. `SeqCst` is modeled as one global
//! synchronization order (slightly stronger than C11). Both choices are
//! conservative in the same direction — **no false positives** on
//! correct code; a clean run at preemption bound *k* means no violation
//! is reachable with ≤ *k* preemptions under those semantics, not a
//! proof for unbounded schedules.

#![forbid(unsafe_code)]
#![deny(
    missing_docs,
    unreachable_pub,
    reason = "RIPS-L005: every public item is documented, and `pub` means reachable"
)]

mod clock;
mod exec;
mod explore;
pub mod mutate;
pub mod rt;
pub mod sync;
pub mod vthread;

pub use exec::{ViolationKind, MAX_MODEL_THREADS};
pub use explore::{Checker, Stats, Violation};
pub use mutate::{Mutation, MutationKind};

#[cfg(test)]
mod selftest;
