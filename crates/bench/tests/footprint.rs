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
use rips_desim::NodeStats;
use rips_runtime::{Kernel, NodeDriver, TaskInstance};
use rips_taskgraph::skewed_flat;

#[test]
fn node_drivers_stay_within_their_byte_budgets() {
    // Each budget is the size when it was set plus one 8-byte word,
    // but the kernel's: it holds its node's first four queued tasks
    // and is already at the 80 bytes it may not pass.
    assert!(size_of::<Kernel>() <= 80, "Kernel: {}", size_of::<Kernel>());
    // A node's CPU split; what it sends is counted machine-wide.
    let stats = size_of::<NodeStats>();
    assert!(stats <= 16, "NodeStats: {stats}");
    // Every queued or migrating task: task and origin, a `u32` each.
    // Its round is the oracle's and its grain stays in the forest, and
    // the engine queues these by the hundred thousand: no slack.
    let instance = size_of::<TaskInstance>();
    assert!(instance <= 8, "TaskInstance: {instance}");
    // One row per policy type behind the roster (RIPS and RIPS-H share
    // `RipsPolicy`, whose budget is its size: the 500x500 mesh runs
    // it). Random's includes the 32-byte random stream it draws from:
    // the engine keeps none per node.
    let roster = [
        ("Random", size_of::<NodeDriver<RandomPolicy>>(), 80 + 32 + 8),
        ("Gradient", size_of::<NodeDriver<GradientPolicy>>(), 144 + 8),
        ("RID", size_of::<NodeDriver<RidPolicy>>(), 152 + 8),
        ("SID", size_of::<NodeDriver<SidPolicy>>(), 136 + 8),
        ("RIPS", size_of::<NodeDriver<RipsPolicy>>(), 120),
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
    });
    let row = run_cell(&reg, "RIPS", &workload, n, 0.4, 1);
    // The driver, queue block included, plus the engine's own per-node
    // arrays (ready time 8, stats 16, deferral lane pointer 8, wake
    // marker seq 8: 40 B), with one word of slack.
    let per_node = row.outcome.stats.mem.node_state_bytes / n as u64;
    assert!(
        per_node <= 120 + 40 + 8,
        "{per_node} B of modelled state per node"
    );
}
