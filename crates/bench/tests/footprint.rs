//! Per-node byte budgets.
//!
//! Per-node state is the one cost that scales with the machine: a byte
//! added to [`Kernel`](rips_runtime::Kernel) or to a policy is 250 KB
//! on the 500×500 mesh and 1 MB at a million nodes. What every node of
//! a run has in common (workload, costs, telemetry, RIPS configuration)
//! lives once behind a shared handle; these budgets fail when a copy of
//! it, or any other field, lands back in the per-node structs.

use std::mem::size_of;
use std::sync::Arc;

use rips_bench::{registry_with, run_cell, RegistryTuning};
use rips_core::{GradientPolicy, RandomPolicy, RidPolicy, RipsConfig, RipsPolicy, SidPolicy};
use rips_runtime::{Kernel, NodeDriver, TaskInstance};
use rips_taskgraph::skewed_flat;

#[test]
fn node_drivers_stay_within_their_byte_budgets() {
    assert!(size_of::<Kernel>() <= 96, "Kernel: {}", size_of::<Kernel>());
    // Every queued or migrating task: task, round and origin. Its grain
    // stays in the workload's forest.
    let instance = size_of::<TaskInstance>();
    assert!(instance <= 16, "TaskInstance: {instance}");
    // One row per policy type behind the roster (RIPS and RIPS-H share
    // `RipsPolicy`); each budget is the driver's size when it was set
    // plus one 8-byte word. Random's includes the 32-byte random stream
    // it draws from: the engine keeps none per node.
    let roster = [
        ("Random", size_of::<NodeDriver<RandomPolicy>>(), 96 + 32 + 8),
        ("Gradient", size_of::<NodeDriver<GradientPolicy>>(), 184 + 8),
        ("RID", size_of::<NodeDriver<RidPolicy>>(), 192 + 8),
        ("SID", size_of::<NodeDriver<SidPolicy>>(), 184 + 8),
        ("RIPS", size_of::<NodeDriver<RipsPolicy>>(), 144 + 8),
    ];
    for (name, bytes, budget) in roster {
        assert!(
            bytes <= budget,
            "{name}: {bytes} B per node, budget {budget}"
        );
    }
}

#[test]
fn rips_cell_node_state_stays_within_its_byte_budget() {
    let n = 70 * 70;
    let workload = Arc::new(skewed_flat(n * 4, 2_000, 64, 20, 1));
    let reg = registry_with(RegistryTuning {
        rips: RipsConfig {
            eureka: true,
            ..RipsConfig::default()
        },
        ..RegistryTuning::default()
    });
    let row = run_cell(&reg, "RIPS", &workload, n, 0.4, 1);
    // The driver plus the engine's own per-node arrays (ready time,
    // stats, deferral lane, wake marker: 80 B), with the same one word
    // of slack.
    let per_node = row.outcome.stats.mem.node_state_bytes / n as u64;
    assert!(
        per_node <= 144 + 80 + 8,
        "{per_node} B of modelled state per node"
    );
}
