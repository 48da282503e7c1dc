//! N-Queens scheduling shoot-out: the paper's Table I in miniature.
//!
//! Runs exhaustive 11-Queens search (small enough to finish instantly)
//! under all four schedulers on a simulated 16-node mesh and prints the
//! comparison columns. Scale `--n` up to 13/14/15 to approach the
//! paper's setting (see `rips repro table1` for the
//! full reproduction).
//!
//! ```text
//! cargo run --release --example nqueens_race -- --n 12
//! ```

use std::sync::Arc;

use rips_repro::apps::{nqueens, NQueensConfig};
use rips_repro::core::{gradient, random, rid, rips, Machine, RipsConfig, RID_U};
use rips_repro::desim::LatencyModel;
use rips_repro::topology::{Mesh2D, Topology};
use rips_runtime::{Costs, RunOutcome};

fn main() {
    let n: u32 = std::env::args()
        .skip_while(|a| a != "--n")
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(11);
    let workload = Arc::new(nqueens(NQueensConfig::paper(n)));
    let stats = workload.stats();
    let (solutions_nodes, solutions) = rips_repro::apps::nqueens::solve(n);
    println!(
        "{n}-Queens: {} solutions, {} search nodes, {} tasks, {:.2} s sequential work\n",
        solutions,
        solutions_nodes,
        stats.tasks,
        stats.total_work_us as f64 / 1e6
    );

    let mesh = Mesh2D::near_square(16);
    let lat = LatencyModel::paragon();
    let costs = Costs::default();
    let report = |name: &str, out: RunOutcome| {
        out.verify_complete(&workload).expect("complete");
        println!(
            "{name:10} nonlocal {:6}  Th {:.3}s  Ti {:.3}s  T {:.3}s  efficiency {:.0}%",
            out.nonlocal,
            out.overhead_s(),
            out.idle_s(),
            out.exec_time_s(),
            out.efficiency() * 100.0
        );
    };

    let topo = || -> Arc<dyn Topology> { Arc::new(mesh.clone()) };
    report(
        "Random",
        random(Arc::clone(&workload), topo(), lat, costs, 1),
    );
    report(
        "Gradient",
        gradient(Arc::clone(&workload), topo(), lat, costs, 1),
    );
    report(
        "RID",
        rid(Arc::clone(&workload), topo(), lat, costs, 1, RID_U),
    );
    let out = rips(
        Arc::clone(&workload),
        Machine::Mesh(mesh),
        lat,
        costs,
        1,
        RipsConfig::default(),
    );
    println!(
        "RIPS       nonlocal {:6}  Th {:.3}s  Ti {:.3}s  T {:.3}s  efficiency {:.0}%  ({} system phases)",
        out.outcome.nonlocal,
        out.outcome.overhead_s(),
        out.outcome.idle_s(),
        out.outcome.exec_time_s(),
        out.outcome.efficiency() * 100.0,
        out.outcome.system_phases
    );
}
