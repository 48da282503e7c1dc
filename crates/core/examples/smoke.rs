use rips_core::{rips, Machine, RipsConfig};
use rips_desim::LatencyModel;
use rips_runtime::Costs;
use rips_topology::Mesh2D;
use std::sync::Arc;

fn main() {
    let w = Arc::new(rips_apps::nqueens(rips_apps::NQueensConfig::paper(13)));
    let s = w.stats();
    println!(
        "13-queens: {} tasks, Ts={:.2}s",
        s.tasks,
        s.total_work_us as f64 / 1e6
    );
    let mesh = Mesh2D::new(8, 4);
    #[expect(
        clippy::disallowed_types,
        reason = "wall-clock timing of the demo binary itself, not of simulated work"
    )]
    let t0 = std::time::Instant::now();
    let out = rips(
        Arc::clone(&w),
        Machine::Mesh(mesh),
        LatencyModel::paragon(),
        Costs::default(),
        1,
        RipsConfig::default(),
    );
    println!(
        "RIPS:  nonlocal={} Th={:.3} Ti={:.3} T={:.3} mu={:.1}% phases={} (wall {:?})",
        out.outcome.nonlocal,
        out.outcome.overhead_s(),
        out.outcome.idle_s(),
        out.outcome.exec_time_s(),
        out.outcome.efficiency() * 100.0,
        out.outcome.system_phases,
        t0.elapsed()
    );
    out.outcome.verify_complete(&w).unwrap();
    for ph in &out.phases {
        println!(
            "  phase {:2} round {} total={:6} migrated={:5} cost={:6}",
            ph.phase, ph.round, ph.total_tasks, ph.migrated, ph.edge_cost
        );
    }
    for (name, f) in [("Random", 0), ("Gradient", 1), ("RID", 2)] {
        #[expect(
            clippy::disallowed_types,
            reason = "wall-clock timing of the demo binary itself, not of simulated work"
        )]
        let t0 = std::time::Instant::now();
        let o = match f {
            0 => rips_core::random(
                Arc::clone(&w),
                mesh,
                LatencyModel::paragon(),
                Costs::default(),
                1,
            ),
            1 => rips_core::gradient(
                Arc::clone(&w),
                mesh,
                LatencyModel::paragon(),
                Costs::default(),
                1,
            ),
            _ => rips_core::rid(
                Arc::clone(&w),
                mesh,
                LatencyModel::paragon(),
                Costs::default(),
                1,
                rips_core::RID_U,
            ),
        };
        println!(
            "{name}: nonlocal={} Th={:.3} Ti={:.3} T={:.3} mu={:.1}% (wall {:?})",
            o.nonlocal,
            o.overhead_s(),
            o.idle_s(),
            o.exec_time_s(),
            o.efficiency() * 100.0,
            t0.elapsed()
        );
        o.verify_complete(&w).unwrap();
    }
}
