//! Molecular-dynamics load balancing: the paper's GROMOS scenario.
//!
//! Builds the synthetic 6968-atom SOD stand-in, shows how the cutoff
//! radius shapes the per-group force workload, and runs the MD steps
//! under RIPS — printing the per-phase log so the *incremental*
//! correction of grain-size misestimates is visible.
//!
//! ```text
//! cargo run --release --example molecular_dynamics
//! ```

use std::sync::Arc;

use rips_repro::apps::gromos::{gromos, half_pair_counts, synthetic_protein, GromosConfig};
use rips_repro::core::{rips, Machine, RipsConfig};
use rips_repro::desim::LatencyModel;
use rips_repro::topology::Mesh2D;
use rips_runtime::Costs;

fn main() {
    // The molecule: show the density profile the workload comes from.
    // Atoms come back in z order and each counts only its
    // higher-indexed partners, so "busiest atom" is the most pairs any
    // atom owns in that order; the totals are the same in any order.
    let atoms = synthetic_protein(6968, 2206);
    println!("synthetic SOD stand-in: {} atoms", atoms.len());
    for cutoff in [8.0, 12.0, 16.0] {
        let pairs = half_pair_counts(&atoms, cutoff);
        let total: u64 = pairs.iter().sum();
        let max = pairs.iter().max().copied().unwrap_or(0);
        println!("  cutoff {cutoff:>4} A: {total:>9} half pairs, busiest atom sees {max}",);
    }

    // One full run at the paper's middle cutoff, small machine so the
    // example finishes instantly.
    let mut cfg = GromosConfig::paper(12.0);
    cfg.steps = 3;
    let workload = Arc::new(gromos(cfg));
    let stats = workload.stats();
    println!(
        "\nworkload: {} groups x {} MD steps, {:.1} s sequential work",
        workload.rounds[0].len(),
        workload.rounds.len(),
        stats.total_work_us as f64 / 1e6
    );

    let out = rips(
        Arc::clone(&workload),
        Machine::Mesh(Mesh2D::new(8, 4)),
        LatencyModel::paragon(),
        Costs::default(),
        1,
        RipsConfig::default(),
    );
    out.outcome.verify_complete(&workload).expect("complete");
    println!(
        "RIPS on 32 nodes: T = {:.2} s, efficiency {:.0}%, {} system phases\n",
        out.outcome.exec_time_s(),
        out.outcome.efficiency() * 100.0,
        out.outcome.system_phases
    );
    println!("phase log (the load estimate is task *count*; grain-size error");
    println!("left over from one phase is corrected by the next):");
    for p in &out.phases {
        println!(
            "  phase {:2} (MD step {}): {:5} tasks queued, {:4} migrated",
            p.phase, p.round, p.total_tasks, p.migrated
        );
    }
}
