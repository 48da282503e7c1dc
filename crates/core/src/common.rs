//! What the policies share: neighbour lookup, the diffusion schemes'
//! neighbour-load table and keep-local child placement.

use rips_desim::{Time, WorkKind};
use rips_runtime::{ExecCtx, Kernel, KernelMsg, TaskInstance};
use rips_topology::{NodeId, Topology};

/// Position of `nb` in `neighbors`; a message from anyone else is a
/// protocol violation.
pub(crate) fn nb_index(neighbors: &[NodeId], nb: NodeId) -> usize {
    neighbors
        .iter()
        .position(|&x| x == nb)
        .expect("message from non-neighbour")
}

/// Charges the spawn overhead of `children` and queues them here.
pub(crate) fn keep_local<M: Clone>(
    k: &mut Kernel,
    ctx: &mut impl ExecCtx<KernelMsg<M>>,
    children: Vec<TaskInstance>,
) {
    let spawn = children.len() as Time * k.oracle.costs.spawn_us;
    ctx.compute(spawn, WorkKind::Overhead);
    k.exec.queue.extend(children);
}

/// Approximate neighbour loads, kept fresh by broadcasting one's own
/// load whenever it drifts by the update factor `u` (RID and SID).
pub(crate) struct LoadTable {
    pub(crate) neighbors: Vec<NodeId>,
    /// Last load heard from each of `neighbors`.
    pub(crate) loads: Vec<i64>,
    last_broadcast: i64,
}

impl LoadTable {
    /// Node `me`'s table on `topo`, every neighbour presumed idle.
    pub(crate) fn new(topo: &dyn Topology, me: NodeId) -> Self {
        let neighbors = topo.neighbors(me);
        LoadTable {
            loads: vec![0; neighbors.len()],
            neighbors,
            last_broadcast: 0,
        }
    }

    /// Records `load` as neighbour `from`'s latest.
    pub(crate) fn record(&mut self, from: NodeId, load: i64) {
        let idx = nb_index(&self.neighbors, from);
        self.loads[idx] = load;
    }

    /// Broadcasts own load (as `info(load)`) to every neighbour when it
    /// drifted enough since the last broadcast.
    pub(crate) fn maybe_broadcast<M: Clone>(
        &mut self,
        u: f64,
        k: &Kernel,
        ctx: &mut impl ExecCtx<KernelMsg<M>>,
        info: fn(i64) -> M,
    ) {
        let load = k.load();
        let threshold = (((1.0 - u) * self.last_broadcast.max(0) as f64) as i64).max(1);
        if (load - self.last_broadcast).abs() >= threshold {
            self.last_broadcast = load;
            for &nb in &self.neighbors {
                ctx.send(nb, KernelMsg::Policy(info(load)), k.oracle.costs.ctl_bytes);
            }
        }
    }
}
