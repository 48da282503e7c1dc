//! Receiver-initiated diffusion (Willebeek-LeMair & Reeves 1993).
//!
//! Nodes keep approximate neighbour loads, refreshed whenever a node's
//! own load drifts by more than the update factor `u` since its last
//! broadcast. A node whose load falls below `L_LOW` requests work from
//! its most-loaded known neighbour; the donor ships up to half its
//! surplus above `L_threshold`. Receiver-initiated schemes "do not do
//! well in a lightly-loaded system" (§5) — visible in the IDA\* rows.

use std::sync::Arc;

use rips_desim::{LatencyModel, Time, WorkKind};
use rips_runtime::{
    run_policy, BalancerPolicy, Costs, ExecCtx, Kernel, KernelMsg, RunOutcome, TaskInstance,
    TAG_POLICY_BASE,
};
use rips_taskgraph::Workload;
use rips_topology::{NodeId, Topology};

/// Timer tag for the outstanding-request timeout.
const TAG_REQ_TIMEOUT: u64 = TAG_POLICY_BASE + 1;

/// RID tuning parameters (paper §5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RidParams {
    /// Request threshold: ask for work when `load < l_low`.
    pub l_low: i64,
    /// Donation floor: donors keep at least this much.
    pub l_threshold: i64,
    /// Load-information update factor; larger ⇒ more frequent
    /// broadcasts (the paper found 0.9 too chatty and settled on 0.4,
    /// raising it to 0.7 for IDA\* on large machines).
    pub u: f64,
    /// How long a requester waits for donations before it may ask
    /// again. Refusals are silent (a donor with nothing to spare sends
    /// nothing), so a node begging stale-loaded neighbours simply idles
    /// out the timeout — the lightly-loaded weakness of
    /// receiver-initiated schemes the paper leans on for its IDA\*
    /// comparison.
    pub request_timeout_us: u64,
}

impl Default for RidParams {
    fn default() -> Self {
        RidParams {
            l_low: 2,
            l_threshold: 1,
            u: 0.4,
            request_timeout_us: 10_000,
        }
    }
}

/// RID policy messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RidMsg {
    /// Sender's current load.
    LoadInfo(i64),
    /// Request for up to this many tasks.
    TaskRequest(i64),
}

/// Receiver-initiated diffusion as a [`BalancerPolicy`].
pub struct RidPolicy {
    params: RidParams,
    neighbors: Vec<NodeId>,
    nb_load: Vec<i64>,
    last_broadcast: i64,
    /// Outstanding request replies; wait for all of them (each reply
    /// is a `Tasks` message, possibly empty) before asking again.
    pending_replies: u32,
}

impl RidPolicy {
    fn nb_index(&self, nb: NodeId) -> usize {
        self.neighbors
            .iter()
            .position(|&x| x == nb)
            .expect("message from non-neighbour")
    }

    /// Broadcasts own load to neighbours when it drifted enough.
    fn maybe_broadcast(&mut self, k: &mut Kernel, ctx: &mut impl ExecCtx<KernelMsg<RidMsg>>) {
        let load = k.load();
        let threshold = (((1.0 - self.params.u) * self.last_broadcast.max(0) as f64) as i64).max(1);
        if (load - self.last_broadcast).abs() >= threshold {
            self.last_broadcast = load;
            for &nb in &self.neighbors {
                ctx.send(
                    nb,
                    KernelMsg::Policy(RidMsg::LoadInfo(load)),
                    k.oracle.costs.ctl_bytes,
                );
            }
        }
    }

    /// Requests work when underloaded: the deficit to the neighbourhood
    /// average is split over the above-average neighbours in proportion
    /// to their excess — the proportional-hunk rule of Willebeek-LeMair
    /// & Reeves' RID.
    fn maybe_request(&mut self, k: &mut Kernel, ctx: &mut impl ExecCtx<KernelMsg<RidMsg>>) {
        if self.pending_replies > 0 || k.load() >= self.params.l_low || self.neighbors.is_empty() {
            return;
        }
        let load = k.load();
        let avg = (self.nb_load.iter().sum::<i64>() + load) / (self.nb_load.len() as i64 + 1);
        let deficit = (avg - load).max(1);
        let excess: Vec<i64> = self
            .nb_load
            .iter()
            .map(|&l| (l - avg.max(self.params.l_threshold)).max(0))
            .collect();
        let total_excess: i64 = excess.iter().sum();
        if total_excess == 0 {
            return; // nobody worth asking
        }
        for (idx, &e) in excess.iter().enumerate() {
            if e == 0 {
                continue;
            }
            let share = ((deficit * e + total_excess - 1) / total_excess).max(1);
            self.pending_replies += 1;
            ctx.send(
                self.neighbors[idx],
                KernelMsg::Policy(RidMsg::TaskRequest(share)),
                k.oracle.costs.ctl_bytes,
            );
        }
        if self.pending_replies > 0 {
            ctx.set_timer(self.params.request_timeout_us, TAG_REQ_TIMEOUT);
        }
    }

    /// Donates up to `amount` tasks, keeping `l_threshold` for itself.
    /// A donor with nothing to spare stays silent — the requester finds
    /// out by timing out.
    fn donate(
        &mut self,
        k: &mut Kernel,
        ctx: &mut impl ExecCtx<KernelMsg<RidMsg>>,
        to: NodeId,
        amount: i64,
    ) {
        let surplus = (k.load() - self.params.l_threshold).max(0);
        let give = surplus.min(amount).min(k.exec.queue.len() as i64);
        if give == 0 {
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
        let load = k.load();
        k.send_tasks(ctx, to, batch, load);
        self.maybe_broadcast(k, ctx);
    }
}

impl BalancerPolicy for RidPolicy {
    type Msg = RidMsg;

    fn on_start(&mut self, k: &mut Kernel, ctx: &mut impl ExecCtx<KernelMsg<RidMsg>>) {
        k.seed_round(ctx, 0);
        self.maybe_broadcast(k, ctx);
    }

    fn on_msg(
        &mut self,
        k: &mut Kernel,
        ctx: &mut impl ExecCtx<KernelMsg<RidMsg>>,
        from: NodeId,
        msg: RidMsg,
    ) {
        match msg {
            RidMsg::LoadInfo(load) => {
                let idx = self.nb_index(from);
                self.nb_load[idx] = load;
                self.maybe_request(k, ctx);
            }
            RidMsg::TaskRequest(amount) => self.donate(k, ctx, from, amount),
        }
    }

    fn on_tasks_accepted(
        &mut self,
        k: &mut Kernel,
        ctx: &mut impl ExecCtx<KernelMsg<RidMsg>>,
        from: NodeId,
        sender_load: i64,
    ) {
        let idx = self.nb_index(from);
        self.nb_load[idx] = sender_load;
        self.pending_replies = self.pending_replies.saturating_sub(1);
        self.maybe_broadcast(k, ctx);
        self.maybe_request(k, ctx);
    }

    fn on_timer(&mut self, k: &mut Kernel, ctx: &mut impl ExecCtx<KernelMsg<RidMsg>>, tag: u64) {
        match tag {
            TAG_REQ_TIMEOUT => {
                // Whatever was still outstanding is treated as refused.
                self.pending_replies = 0;
                self.maybe_request(k, ctx);
            }
            _ => unreachable!("unknown timer {tag}"),
        }
    }

    /// Children stay local; underloaded neighbours will come asking.
    fn place_children(
        &mut self,
        k: &mut Kernel,
        ctx: &mut impl ExecCtx<KernelMsg<RidMsg>>,
        children: Vec<TaskInstance>,
    ) {
        let spawn = children.len() as Time * k.oracle.costs.spawn_us;
        ctx.compute(spawn, WorkKind::Overhead);
        k.exec.queue.extend(children);
    }

    fn after_task(&mut self, k: &mut Kernel, ctx: &mut impl ExecCtx<KernelMsg<RidMsg>>) {
        self.maybe_broadcast(k, ctx);
        self.maybe_request(k, ctx);
    }

    fn on_round_start(
        &mut self,
        k: &mut Kernel,
        ctx: &mut impl ExecCtx<KernelMsg<RidMsg>>,
        round: u32,
        _token: u32,
    ) {
        self.pending_replies = 0;
        k.seed_round(ctx, round);
        self.maybe_broadcast(k, ctx);
    }
}

/// Runs `workload` under receiver-initiated diffusion.
pub fn rid(
    workload: Arc<Workload>,
    topo: Arc<dyn Topology>,
    latency: LatencyModel,
    costs: Costs,
    seed: u64,
    params: RidParams,
) -> RunOutcome {
    let topo2 = Arc::clone(&topo);
    let (outcome, _) = run_policy(workload, topo, latency, costs, seed, move |me| {
        rid_policy(topo2.as_ref(), me, params)
    });
    outcome
}

/// Node `me`'s receiver-initiated-diffusion policy instance on `topo`.
pub fn rid_policy(topo: &dyn Topology, me: NodeId, params: RidParams) -> RidPolicy {
    assert!(
        (0.0..1.0).contains(&params.u),
        "update factor must be in [0,1)"
    );
    let neighbors = topo.neighbors(me);
    RidPolicy {
        params,
        nb_load: vec![0; neighbors.len()],
        neighbors,
        last_broadcast: 0,
        pending_replies: 0,
    }
}
