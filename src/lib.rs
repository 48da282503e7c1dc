//! Facade crate for the RIPS reproduction workspace.
//!
//! Re-exports every subsystem crate under a stable path so examples and
//! integration tests can `use rips_repro::...`.

pub use rips_apps as apps;
pub use rips_audit as audit;
pub use rips_bench as bench;
pub use rips_bench::eval as metrics;
pub use rips_core as core;
pub use rips_desim as desim;
pub use rips_live as live;
pub use rips_runtime as runtime;
pub use rips_sched as sched;
pub use rips_sched::flow;
pub use rips_serve as serve;
pub use rips_taskgraph as taskgraph;
pub use rips_topology as topology;
pub use rips_trace as trace;
