//! Live-backend experiment driver: runs any roster scheduler on real
//! OS threads (one per node) with real application grains, for
//! cross-validation against the simulator and wall-clock speedup
//! measurement (`BENCH_LIVE.json`, the `live-smoke` CI job, and
//! `rips live`).
//!
//! The scheduler roster here is *the same* as [`registry`](crate::registry) —
//! both dispatch by the same names onto the same policy constructors —
//! so every cross-backend comparison runs identical policy code on
//! both backends.

use std::sync::Arc;

use rips_apps::GrainTable;
use rips_balancers::{gradient_policy, random_policy, rid_policy, sid_policy, RidParams};
use rips_core::{Machine, RipsConfig, RipsFleet};
use rips_live::{run_live, GrainMode, GrainResult, GrainRunner, LiveOpts, LiveOutcome};
use rips_runtime::{Costs, TaskInstance};
use rips_taskgraph::Workload;
use rips_topology::{Mesh2D, Topology};

use crate::RegistryTuning;

/// Adapts an app [`GrainTable`] to the live backend's [`GrainRunner`]
/// contract: each executed task runs its recorded real computation.
pub struct TableRunner(pub Arc<GrainTable>);

impl GrainRunner for TableRunner {
    fn run(&self, inst: &TaskInstance) -> GrainResult {
        let out = self.0.run(inst.round, inst.task);
        GrainResult {
            checksum: out.checksum,
            solutions: out.solutions,
        }
    }
}

/// Builds [`LiveOpts`] running grains out of `table`.
pub fn live_opts(table: &Arc<GrainTable>, mode: GrainMode, timed_scale: f64) -> LiveOpts {
    LiveOpts {
        mode,
        timed_scale,
        runner: Arc::new(TableRunner(Arc::clone(table))),
        ..LiveOpts::default()
    }
}

/// Runs one roster scheduler (by its [`registry`](crate::registry)
/// name) on the live backend with paper-default tuning; see
/// [`live_run_with`].
pub fn live_run(
    scheduler: &str,
    workload: &Arc<Workload>,
    threads: usize,
    rid_u: f64,
    seed: u64,
    opts: LiveOpts,
) -> LiveOutcome {
    let t = RegistryTuning::default();
    live_run_with(t, scheduler, workload, threads, rid_u, seed, opts)
}

/// Runs one roster scheduler on the live backend with explicit tuning
/// (the live counterpart of [`registry_with`](crate::registry_with)):
/// `threads` OS threads over the same near-square mesh the simulator
/// uses, default costs. For RIPS and RIPS-H the outcome's
/// `system_phases` is filled from the fleet; it stays 0 for the
/// baselines, like the simulator's `RunOutcome`.
///
/// # Panics
/// If `scheduler` is not a roster name, or the run lost or duplicated
/// tasks.
pub fn live_run_with(
    t: RegistryTuning,
    scheduler: &str,
    workload: &Arc<Workload>,
    threads: usize,
    rid_u: f64,
    seed: u64,
    opts: LiveOpts,
) -> LiveOutcome {
    let mesh = Mesh2D::near_square(threads);
    let topo: Arc<dyn Topology> = Arc::new(mesh.clone());
    let costs = Costs::default();
    let w = Arc::clone(workload);
    let out = match scheduler {
        "Random" => run_live(w, topo, costs, seed, opts, random_policy).0,
        "Gradient" => {
            let t2 = Arc::clone(&topo);
            run_live(w, topo, costs, seed, opts, move |me| {
                gradient_policy(t2.as_ref(), me, t.gradient)
            })
            .0
        }
        "RID" => {
            let t2 = Arc::clone(&topo);
            let params = RidParams { u: rid_u, ..t.rid };
            run_live(w, topo, costs, seed, opts, move |me| {
                rid_policy(t2.as_ref(), me, params)
            })
            .0
        }
        "SID" => {
            let t2 = Arc::clone(&topo);
            run_live(w, topo, costs, seed, opts, move |me| {
                sid_policy(t2.as_ref(), me, t.sid)
            })
            .0
        }
        "RIPS" => live_rips(t.rips, Machine::Mesh(mesh), w, seed, opts),
        "RIPS-H" => live_rips(t.rips, Machine::MeshHier(mesh), w, seed, opts),
        other => panic!("unknown scheduler {other:?}"),
    };
    out.verify_complete(workload)
        .unwrap_or_else(|e| panic!("{scheduler} live on {}: {e}", workload.name));
    out
}

/// RIPS on `machine`: one fleet shares the plan board between the
/// per-node policies and counts the system phases they ran.
fn live_rips(
    cfg: RipsConfig,
    machine: Machine,
    workload: Arc<Workload>,
    seed: u64,
    opts: LiveOpts,
) -> LiveOutcome {
    let fleet = RipsFleet::new(cfg, machine);
    let topo = fleet.topology();
    let (mut out, policies) = run_live(workload, topo, Costs::default(), seed, opts, |me| {
        fleet.make(me)
    });
    drop(policies);
    out.system_phases = fleet.finish().0;
    out
}
