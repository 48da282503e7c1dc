//! Quickstart: balance a load vector with the Mesh Walking Algorithm,
//! then run a small dynamic workload under the full RIPS runtime.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use rips_repro::core::{rips, Machine, RipsConfig};
use rips_repro::desim::LatencyModel;
use rips_repro::flow::optimal_rebalance;
use rips_repro::metrics::optimal_efficiency;
use rips_repro::sched::{min_nonlocal_tasks, mwa};
use rips_repro::taskgraph::geometric_tree;
use rips_repro::topology::Mesh2D;
use rips_runtime::Costs;

fn main() {
    // --- Part 1: one-shot parallel scheduling with MWA -------------
    let mesh = Mesh2D::new(4, 4);
    let loads: Vec<i64> = vec![30, 2, 5, 1, 0, 12, 7, 3, 25, 0, 0, 9, 4, 4, 6, 12];
    let (plan, trace) = mwa(&mesh, &loads);
    println!("MWA on a 4x4 mesh, initial loads {loads:?}");
    println!(
        "  average load (w_avg) = {}, remainder = {}",
        trace.wavg, trace.remainder
    );
    println!("  final loads          = {:?}", plan.apply(&loads));
    println!(
        "  tasks moved          = {} (theoretical minimum {})",
        plan.nonlocal_tasks(&loads),
        min_nonlocal_tasks(&loads)
    );
    println!(
        "  edge cost Σe_k       = {} (min-cost max-flow optimum {})",
        plan.edge_cost(),
        optimal_rebalance(&mesh, &loads).cost
    );

    // --- Part 2: runtime incremental parallel scheduling -----------
    // A divide-and-conquer workload whose tasks generate more tasks,
    // executed on a simulated 16-node mesh multicomputer under RIPS.
    let workload = Arc::new(geometric_tree(12, 7, 3, 20_000, 42));
    let stats = workload.stats();
    println!(
        "\nRIPS on a dynamic workload: {} tasks, {:.1} ms total work",
        stats.tasks,
        stats.total_work_us as f64 / 1e3
    );
    let out = rips(
        Arc::clone(&workload),
        Machine::Mesh(mesh),
        LatencyModel::paragon(),
        Costs::default(),
        7,
        RipsConfig::default(), // the paper's best policy: ANY-Lazy
    );
    out.outcome
        .verify_complete(&workload)
        .expect("all tasks must run");
    println!("  system phases   = {}", out.outcome.system_phases);
    println!(
        "  non-local tasks = {} of {}",
        out.outcome.nonlocal, stats.tasks
    );
    println!(
        "  efficiency      = {:.1}% (zero-overhead optimum {:.1}%)",
        out.outcome.efficiency() * 100.0,
        optimal_efficiency(&workload, 16) * 100.0
    );
}
