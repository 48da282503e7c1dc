//! The scheduler roster, declared once for both backends.
//!
//! Each [`ROSTER`] row is a name and a fleet constructor; a [`Fleet`]
//! is a machine's worth of per-node policies that can run on the
//! simulator or on real threads. [`registry_with`](crate::registry_with)
//! and [`live_run_with`](crate::live::live_run_with) are both loops
//! over this table, so a scheduler added here runs on both backends
//! and neither can know a name the other does not.

use std::sync::Arc;

use rips_core::{
    gradient, gradient_policy, random_policy, rid_policy, rips, sid_policy, Machine, RipsConfig,
    RipsFleet,
};
use rips_live::{run_live, LiveOpts, LiveOutcome};
use rips_runtime::{run_policy, BalancerPolicy, Costs, RunSpec, ScheduledRun};
use rips_taskgraph::Workload;
use rips_topology::{Mesh2D, NodeId, Topology};

use crate::RegistryTuning;

/// What a row reads to build its fleet: the tuning, the machine size
/// and the cell's RID update factor (the paper tunes it per app and
/// machine size, so it travels with the cell, not the tuning).
pub(crate) struct Cell {
    pub tuning: RegistryTuning,
    pub nodes: usize,
    pub rid_u: f64,
}

impl Cell {
    /// The near-square mesh every roster scheduler runs on.
    fn mesh(&self) -> Mesh2D {
        Mesh2D::near_square(self.nodes)
    }

    fn topo(&self) -> Arc<dyn Topology> {
        Arc::new(self.mesh())
    }
}

/// A machine's worth of per-node policies, runnable on either backend.
pub(crate) trait Fleet {
    /// Runs on the simulator under `spec`'s workload, network and
    /// costs.
    fn on_desim(self: Box<Self>, spec: &RunSpec) -> ScheduledRun;
    /// Runs on one OS thread per node with default costs.
    fn on_live(self: Box<Self>, workload: Arc<Workload>, seed: u64, opts: LiveOpts) -> LiveOutcome;
}

/// One roster row: the scheduler's name and its fleet constructor.
pub(crate) type Row = (&'static str, fn(&Cell) -> Box<dyn Fleet>);

/// The roster, in the order results are tabulated: the four Table I
/// schedulers in paper order, then RIPS-H and SID.
pub(crate) const ROSTER: &[Row] = &[
    ("Random", |c| {
        Box::new(Nodes(c.topo(), |_: &dyn Topology, me| random_policy(me)))
    }),
    ("Gradient", |c| Box::new(Gradient(c.topo()))),
    ("RID", |c| {
        let u = c.rid_u;
        let make = move |t: &dyn Topology, me| rid_policy(t, me, u);
        Box::new(Nodes(c.topo(), make))
    }),
    ("RIPS", |c| {
        Box::new(Rips(c.tuning.rips, Machine::Mesh(c.mesh())))
    }),
    ("RIPS-H", |c| {
        Box::new(Rips(c.tuning.rips, Machine::MeshHier(c.mesh())))
    }),
    ("SID", |c| Box::new(Nodes(c.topo(), sid_policy))),
];

/// Policies that share nothing between nodes: the topology and the
/// per-node constructor both backends call.
struct Nodes<F>(Arc<dyn Topology>, F);

impl<P, F> Fleet for Nodes<F>
where
    P: BalancerPolicy + Send,
    P::Msg: Send,
    F: FnMut(&dyn Topology, NodeId) -> P,
{
    fn on_desim(self: Box<Self>, s: &RunSpec) -> ScheduledRun {
        let Nodes(topo, mut make) = *self;
        let (workload, t) = (Arc::clone(&s.workload), Arc::clone(&topo));
        let make = move |me| make(t.as_ref(), me);
        ScheduledRun {
            outcome: run_policy(workload, topo, s.latency, s.costs, s.seed, make).0,
            phases: Vec::new(),
        }
    }

    fn on_live(self: Box<Self>, workload: Arc<Workload>, seed: u64, opts: LiveOpts) -> LiveOutcome {
        let Nodes(topo, mut make) = *self;
        let t = Arc::clone(&topo);
        let make = move |me| make(t.as_ref(), me);
        run_live(workload, topo, Costs::default(), seed, opts, make).0
    }
}

/// The gradient model. On the simulator it goes through [`gradient`],
/// which refuses a zero-latency network (the model does not converge
/// on one); real threads cannot have one.
struct Gradient(Arc<dyn Topology>);

impl Fleet for Gradient {
    fn on_desim(self: Box<Self>, s: &RunSpec) -> ScheduledRun {
        let workload = Arc::clone(&s.workload);
        ScheduledRun {
            outcome: gradient(workload, self.0, s.latency, s.costs, s.seed),
            phases: Vec::new(),
        }
    }

    fn on_live(self: Box<Self>, workload: Arc<Workload>, seed: u64, opts: LiveOpts) -> LiveOutcome {
        Box::new(Nodes(self.0, gradient_policy)).on_live(workload, seed, opts)
    }
}

/// RIPS on a machine: its policies share one [`RipsFleet`] (the plan
/// board and the phase log), read back when the run is over. The
/// simulator returns the log; a live outcome keeps only the phase
/// count, like the simulator's `RunOutcome`.
struct Rips(RipsConfig, Machine);

impl Fleet for Rips {
    fn on_desim(self: Box<Self>, s: &RunSpec) -> ScheduledRun {
        let Rips(cfg, machine) = *self;
        let workload = Arc::clone(&s.workload);
        rips(workload, machine, s.latency, s.costs, s.seed, cfg)
    }

    fn on_live(self: Box<Self>, workload: Arc<Workload>, seed: u64, opts: LiveOpts) -> LiveOutcome {
        let fleet = RipsFleet::new(self.0, self.1);
        let topo = fleet.topology();
        let (mut out, policies) = run_live(workload, topo, Costs::default(), seed, opts, |me| {
            fleet.make(me)
        });
        drop(policies);
        out.system_phases = fleet.finish().0;
        out
    }
}
