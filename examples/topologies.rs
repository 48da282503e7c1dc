//! RIPS across interconnects: "RIPS is a general method and applies to
//! different topologies, such as the tree, mesh, and hypercube" (§4).
//!
//! Runs the same skewed workload on a 32-node mesh (MWA), a 31-node
//! binary tree (TWA), and a 32-node hypercube (DEM), and contrasts the
//! per-phase scheduling quality of the three parallel scheduling
//! algorithms.
//!
//! ```text
//! cargo run --release --example topologies
//! ```

use std::sync::Arc;

use rips_repro::core::{rips, Machine, RipsConfig};
use rips_repro::desim::LatencyModel;
use rips_repro::taskgraph::skewed_flat;
use rips_repro::topology::{BinaryTree, Hypercube, Mesh2D};
use rips_runtime::Costs;

fn main() {
    let workload = Arc::new(skewed_flat(2_000, 1_500, 7, 12, 9));
    let stats = workload.stats();
    println!(
        "workload: {} tasks, {:.1} s sequential work, heaviest task {:.1} ms\n",
        stats.tasks,
        stats.total_work_us as f64 / 1e6,
        stats.max_grain_us as f64 / 1e3
    );

    let machines = [
        ("8x4 mesh / MWA", Machine::Mesh(Mesh2D::new(8, 4))),
        ("31-node tree / TWA", Machine::Tree(BinaryTree::new(31))),
        ("2^5 hypercube / DEM", Machine::Cube(Hypercube::new(5))),
    ];
    for (name, machine) in machines {
        let out = rips(
            Arc::clone(&workload),
            machine,
            LatencyModel::paragon(),
            Costs::default(),
            3,
            RipsConfig::default(),
        );
        out.outcome.verify_complete(&workload).expect("complete");
        let moved: i64 = out.phases.iter().map(|p| p.migrated).sum();
        let cost: i64 = out.phases.iter().map(|p| p.edge_cost).sum();
        println!(
            "{name:20} T {:.3}s  efficiency {:.0}%  phases {:2}  moved {:5}  Σe_k {:6}",
            out.outcome.exec_time_s(),
            out.outcome.efficiency() * 100.0,
            out.outcome.system_phases,
            moved,
            cost
        );
    }
    println!("\nMWA and TWA land every phase within one task of perfect balance;");
    println!("DEM's integer rounding can leave up to log2(N) spread (paper §4),");
    println!("which the next incremental phase then corrects.");
}
