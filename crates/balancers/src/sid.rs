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
    neighbors: Vec<NodeId>,
    nb_load: Vec<i64>,
    last_broadcast: i64,
}

impl SidPolicy {
    fn nb_index(&self, nb: NodeId) -> usize {
        self.neighbors
            .iter()
            .position(|&x| x == nb)
            .expect("message from non-neighbour")
    }

    /// Broadcasts own load to neighbours when it drifted enough.
    fn maybe_broadcast(&mut self, k: &mut Kernel, ctx: &mut impl ExecCtx<KernelMsg<SidMsg>>) {
        let load = k.load();
        let threshold = (((1.0 - self.params.u) * self.last_broadcast.max(0) as f64) as i64).max(1);
        if (load - self.last_broadcast).abs() >= threshold {
            self.last_broadcast = load;
            for &nb in &self.neighbors {
                ctx.send(
                    nb,
                    KernelMsg::Policy(SidMsg::LoadInfo(load)),
                    k.oracle.costs.ctl_bytes,
                );
            }
        }
    }

    /// Pushes surplus to the least-loaded known neighbour when
    /// overloaded: half the pairwise difference, keeping at least
    /// `l_threshold` for ourselves.
    fn maybe_push(&mut self, k: &mut Kernel, ctx: &mut impl ExecCtx<KernelMsg<SidMsg>>) {
        if k.load() <= self.params.l_high || self.neighbors.is_empty() {
            return;
        }
        let (idx, &least) = self
            .nb_load
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
        let mut batch: Vec<TaskInstance> = Vec::with_capacity(give as usize);
        for _ in 0..give {
            batch.push(k.exec.queue.pop_back().expect("give <= len"));
        }
        ctx.compute(
            k.oracle.costs.spawn_us * batch.len() as Time,
            WorkKind::Overhead,
        );
        // Optimistically assume the neighbour absorbs the batch so we
        // don't re-push to it on stale information.
        self.nb_load[idx] += give;
        let load = k.load();
        k.send_tasks(ctx, self.neighbors[idx], batch, load);
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
        let idx = self.nb_index(from);
        self.nb_load[idx] = load;
        self.maybe_push(k, ctx);
    }

    fn on_tasks_accepted(
        &mut self,
        k: &mut Kernel,
        ctx: &mut impl ExecCtx<KernelMsg<SidMsg>>,
        from: NodeId,
        sender_load: i64,
    ) {
        let idx = self.nb_index(from);
        self.nb_load[idx] = sender_load;
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
        let spawn = children.len() as Time * k.oracle.costs.spawn_us;
        ctx.compute(spawn, WorkKind::Overhead);
        k.exec.queue.extend(children);
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
    let topo2 = Arc::clone(&topo);
    let (outcome, _) = run_policy(workload, topo, latency, costs, seed, move |me| {
        sid_policy(topo2.as_ref(), me, params)
    });
    outcome
}

/// Node `me`'s sender-initiated-diffusion policy instance on `topo`.
pub fn sid_policy(topo: &dyn Topology, me: NodeId, params: SidParams) -> SidPolicy {
    assert!(
        (0.0..1.0).contains(&params.u),
        "update factor must be in [0,1)"
    );
    let neighbors = topo.neighbors(me);
    SidPolicy {
        params,
        nb_load: vec![0; neighbors.len()],
        neighbors,
        last_broadcast: 0,
    }
}
