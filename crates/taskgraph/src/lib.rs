//! The dynamic task model shared by every scheduler and workload.
//!
//! The paper's applications are divide-and-conquer style: executing a
//! task may *generate* new tasks (N-Queens node expansion), and some
//! applications impose a global barrier between *rounds* (IDA\*
//! iterations, molecular-dynamics time steps). A [`Workload`] captures
//! exactly that:
//!
//! * a sequence of [`TaskForest`]s, one per round, with a barrier
//!   between rounds ("synchronization at each iteration reduces the
//!   effective parallelism", §5);
//! * each forest is a set of root tasks; completing a task releases its
//!   children (the "newly generated tasks" rescheduled in the next
//!   system phase).
//!
//! Grain sizes are virtual microseconds consumed on the executing node.
//!
//! The crate also holds [`par_map`], the one parallel map every layer
//! above fans out through (workload builders measuring their grains,
//! the artifact regenerators draining scheduler cells).

mod forest;
mod pool;
mod synthetic;

pub use forest::{TaskForest, TaskId, Workload, WorkloadStats};
pub use pool::{par_map, par_map_with};
pub use synthetic::{flat_uniform, geometric_tree, skewed_flat};
