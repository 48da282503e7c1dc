//! Sender-initiated diffusion — the counterpart the paper's related
//! work weighs against RID ("Eager et al. compared the sender-initiated
//! algorithm and receiver-initiated algorithm", §4).
//!
//! Overloaded nodes push work to their least-loaded known neighbour;
//! load information diffuses with the same update-factor rule as RID.
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
use rips_topology::{NodeId, Topology};

use crate::common::{keep_local, take_newest, LoadTable};

/// SID tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SidParams {
    /// Push work away while `load > l_high`.
    pub l_high: i64,
    /// Never push below this floor of own load.
    pub l_threshold: i64,
    /// Minimum pairwise difference before a push fires — the
    /// hysteresis that keeps stale load tables from causing task
    /// hot-potato storms.
    pub min_diff: i64,
    /// Load-information update factor, as in RID.
    pub u: f64,
}

impl Default for SidParams {
    fn default() -> Self {
        SidParams {
            l_high: 2,
            l_threshold: 1,
            min_diff: 4,
            u: 0.4,
        }
    }
}

/// SID policy messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SidMsg {
    /// Sender's current load.
    LoadInfo(i64),
}

/// Sender-initiated diffusion as a [`BalancerPolicy`].
pub struct SidPolicy {
    params: SidParams,
    table: LoadTable,
}

impl SidPolicy {
    fn maybe_broadcast(&mut self, k: &Kernel, ctx: &mut impl ExecCtx<KernelMsg<SidMsg>>) {
        self.table
            .maybe_broadcast(self.params.u, k, ctx, SidMsg::LoadInfo);
    }

    /// Pushes surplus to the least-loaded known neighbour when
    /// overloaded: half the pairwise difference, keeping at least
    /// `l_threshold` for ourselves.
    fn maybe_push(&mut self, k: &mut Kernel, ctx: &mut impl ExecCtx<KernelMsg<SidMsg>>) {
        if k.load() <= self.params.l_high || self.table.neighbors.is_empty() {
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
        if mine - least < self.params.min_diff {
            return; // not worth moving on possibly-stale information
        }
        let give = ((mine - least) / 2)
            .min(mine - self.params.l_threshold)
            .min(k.exec.queue.len() as i64);
        if give <= 0 {
            return;
        }
        let batch = take_newest(k, give as usize);
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
    topo: Arc<dyn Topology>,
    latency: LatencyModel,
    costs: Costs,
    seed: u64,
    params: SidParams,
) -> RunOutcome {
    let shared = Arc::clone(&topo);
    let make = move |me| sid_policy(shared.as_ref(), me, params);
    run_policy(workload, topo, latency, costs, seed, make).0
}

/// Node `me`'s sender-initiated-diffusion policy instance on `topo`.
pub fn sid_policy(topo: &dyn Topology, me: NodeId, params: SidParams) -> SidPolicy {
    SidPolicy {
        params,
        table: LoadTable::new(topo, me, params.u),
    }
}
