//! Writing a custom balancer against the policy kernel.
//!
//! A scheduler is a [`BalancerPolicy`]: the kernel's `NodeDriver` owns
//! task execution, migration accounting, round barriers, and
//! termination, so a policy only decides *where tasks go*. This example
//! implements round-robin handoff — every spawned child is shipped to
//! the next mesh neighbour in rotation, no load information at all —
//! in ~30 lines, registers it alongside the built-in roster, and races
//! it against RIPS on the same workload.
//!
//! Run with `cargo run --release --example custom_balancer`.

use std::sync::Arc;

use rips_repro::bench::{paper_spec, registry};
use rips_repro::runtime::{
    run_policy, BalancerPolicy, ExecCtx, Kernel, KernelMsg, RunSpec, ScheduledRun, TaskInstance,
};
use rips_repro::taskgraph::geometric_tree;
use rips_repro::topology::{Mesh2D, NodeId, Topology};

/// Round-robin handoff: children scatter over the neighbours in strict
/// rotation. Blind (no load information, like randomized allocation)
/// but only ever one hop (unlike randomized allocation).
struct RoundRobin {
    neighbors: Vec<NodeId>,
    next: usize,
}

impl BalancerPolicy for RoundRobin {
    /// No policy messages: placement is the whole algorithm.
    type Msg = ();

    fn on_msg(
        &mut self,
        _k: &mut Kernel,
        _ctx: &mut impl ExecCtx<KernelMsg<()>>,
        _from: NodeId,
        _msg: (),
    ) {
        unreachable!("round-robin sends no policy messages");
    }

    fn place_children(
        &mut self,
        k: &mut Kernel,
        ctx: &mut impl ExecCtx<KernelMsg<()>>,
        children: Vec<TaskInstance>,
    ) {
        for child in children {
            let dst = self.neighbors[self.next];
            self.next = (self.next + 1) % self.neighbors.len();
            let load = k.load();
            k.send_tasks(ctx, dst, vec![child], load);
        }
    }
}

fn main() {
    // Extend the canonical roster: one `register` call, and the new
    // scheduler runs through the same path as the built-ins.
    let mut reg = registry();
    reg.register(
        "RoundRobin",
        Box::new(|spec: &RunSpec| {
            let topo: Arc<dyn Topology> = Arc::new(Mesh2D::near_square(spec.nodes));
            let topo2 = Arc::clone(&topo);
            let (outcome, _) = run_policy(
                Arc::clone(&spec.workload),
                topo,
                spec.latency,
                spec.costs,
                spec.seed,
                move |me| RoundRobin {
                    neighbors: topo2.neighbors(me),
                    next: 0,
                },
            );
            ScheduledRun {
                outcome,
                phases: Vec::new(),
            }
        }),
    );

    let workload = Arc::new(geometric_tree(24, 8, 3, 25_000, 11));
    let stats = workload.stats();
    println!(
        "workload: {} tasks, {:.2} s of work, 4x4 mesh\n",
        stats.tasks,
        stats.total_work_us as f64 / 1e6
    );

    let spec = paper_spec(&workload, 16, 0.4, 1);
    for name in ["RoundRobin", "RIPS"] {
        let run = reg.run(name, &spec);
        run.outcome
            .verify_complete(&workload)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let phases = if run.outcome.system_phases > 0 {
            format!("  ({} phases)", run.outcome.system_phases)
        } else {
            String::new()
        };
        println!(
            "{name:>10}: T {:.3}s  efficiency {:.0}%  nonlocal {}{phases}",
            run.outcome.exec_time_s(),
            run.outcome.efficiency() * 100.0,
            run.outcome.nonlocal,
        );
    }
}
