//! Sender-initiated diffusion — the counterpart the paper's related
//! work weighs against RID ("Eager et al. compared the sender-initiated
//! algorithm and receiver-initiated algorithm", §4).
//!
//! Overloaded nodes push work to their least-loaded known neighbour;
//! load information diffuses with the same update-factor rule as RID,
//! at the paper's `u` ([`RID_U`]).
//! The classic result — senders win under light load (work spreads
//! without anyone having to beg), receivers win under heavy load
//! (pushes then chase moving targets) — is measured by the
//! `rips repro sid-vs-rid` artifact.

use std::sync::Arc;

use rips_desim::{LatencyModel, Time, WorkKind};
use rips_runtime::{
    run_policy, BalancerPolicy, Costs, ExecCtx, Kernel, KernelMsg, RunOutcome, TaskInstance,
};
use rips_taskgraph::Workload;
use rips_topology::{Mesh2D, NodeId};

use crate::common::{keep_local, LoadTable};
use crate::rid::RID_U;

/// Push work away while `load > L_HIGH`.
const L_HIGH: i64 = 2;

/// Never push below this floor of own load.
const L_THRESHOLD: i64 = 1;

/// Minimum pairwise difference before a push fires — the hysteresis
/// that keeps stale load tables from causing task hot-potato storms.
const MIN_DIFF: i64 = 4;

/// SID policy messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SidMsg {
    /// Sender's current load.
    LoadInfo(i64),
}

/// Sender-initiated diffusion as a [`BalancerPolicy`].
pub struct SidPolicy {
    table: LoadTable,
}

impl SidPolicy {
    fn maybe_broadcast(&mut self, k: &Kernel, ctx: &mut impl ExecCtx<KernelMsg<SidMsg>>) {
        self.table.maybe_broadcast(RID_U, k, ctx, SidMsg::LoadInfo);
    }

    /// Pushes surplus to the least-loaded known neighbour when
    /// overloaded: half the pairwise difference, keeping at least
    /// `L_THRESHOLD` for ourselves.
    fn maybe_push(&mut self, k: &mut Kernel, ctx: &mut impl ExecCtx<KernelMsg<SidMsg>>) {
        if k.load() <= L_HIGH || self.table.neighbors.is_empty() {
            return;
        }
        let (idx, &least) = self
            .table
            .loads
            .iter()
            .enumerate()
            .min_by_key(|&(i, &l)| (l, i))
            .expect("nonempty neighbours");
        let mine = k.load();
        if mine - least < MIN_DIFF {
            return; // not worth moving on possibly-stale information
        }
        let give = ((mine - least) / 2)
            .min(mine - L_THRESHOLD)
            .min(k.exec.queue.len() as i64);
        if give <= 0 {
            return;
        }
        let batch = k.exec.queue.take_newest(give as usize);
        ctx.compute(
            k.oracle.costs.spawn_us * batch.len() as Time,
            WorkKind::Overhead,
        );
        // Optimistically assume the neighbour absorbs the batch so we
        // don't re-push to it on stale information.
        self.table.loads[idx] += give;
        let load = k.load();
        k.send_tasks(ctx, self.table.neighbors[idx], batch, load);
        self.maybe_broadcast(k, ctx);
    }
}

impl BalancerPolicy for SidPolicy {
    type Msg = SidMsg;

    fn on_start(&mut self, k: &mut Kernel, ctx: &mut impl ExecCtx<KernelMsg<SidMsg>>) {
        k.seed_round(ctx, 0);
        self.maybe_broadcast(k, ctx);
        self.maybe_push(k, ctx);
    }

    fn on_msg(
        &mut self,
        k: &mut Kernel,
        ctx: &mut impl ExecCtx<KernelMsg<SidMsg>>,
        from: NodeId,
        msg: SidMsg,
    ) {
        let SidMsg::LoadInfo(load) = msg;
        self.table.record(from, load);
        self.maybe_push(k, ctx);
    }

    fn on_tasks_accepted(
        &mut self,
        k: &mut Kernel,
        ctx: &mut impl ExecCtx<KernelMsg<SidMsg>>,
        from: NodeId,
        sender_load: i64,
    ) {
        self.table.record(from, sender_load);
        self.maybe_broadcast(k, ctx);
        self.maybe_push(k, ctx); // an overloaded receiver diffuses onward
    }

    /// Children stay local until load pressure pushes them away.
    fn place_children(
        &mut self,
        k: &mut Kernel,
        ctx: &mut impl ExecCtx<KernelMsg<SidMsg>>,
        children: Vec<TaskInstance>,
    ) {
        keep_local(k, ctx, children);
    }

    fn after_task(&mut self, k: &mut Kernel, ctx: &mut impl ExecCtx<KernelMsg<SidMsg>>) {
        self.maybe_broadcast(k, ctx);
        self.maybe_push(k, ctx);
    }

    fn on_round_start(
        &mut self,
        k: &mut Kernel,
        ctx: &mut impl ExecCtx<KernelMsg<SidMsg>>,
        round: u32,
        _token: u32,
    ) {
        k.seed_round(ctx, round);
        self.maybe_broadcast(k, ctx);
        self.maybe_push(k, ctx);
    }
}

/// Runs `workload` under sender-initiated diffusion.
pub fn sid(
    workload: Arc<Workload>,
    mesh: Mesh2D,
    latency: LatencyModel,
    costs: Costs,
    seed: u64,
) -> RunOutcome {
    let make = move |me| sid_policy(mesh, me);
    run_policy(workload, mesh, latency, costs, seed, make).0
}

/// Node `me`'s sender-initiated-diffusion policy instance on `mesh`.
pub fn sid_policy(mesh: Mesh2D, me: NodeId) -> SidPolicy {
    SidPolicy {
        table: LoadTable::new(mesh, me),
    }
}
