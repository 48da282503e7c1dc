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

use crate::common::{keep_local, LoadTable};

/// Timer tag for the outstanding-request timeout.
const TAG_REQ_TIMEOUT: u64 = TAG_POLICY_BASE + 1;

/// Request threshold `L_LOW` (paper §5): ask for work when
/// `load < L_LOW`.
const L_LOW: i64 = 2;

/// Donation floor `L_threshold` (paper §5): donors keep at least this
/// much.
const L_THRESHOLD: i64 = 1;

/// How long a requester waits for donations before it may ask again
/// (µs). Refusals are silent (a donor with nothing to spare sends
/// nothing), so a node begging stale-loaded neighbours simply idles out
/// the timeout — the lightly-loaded weakness of receiver-initiated
/// schemes the paper leans on for its IDA\* comparison.
const REQUEST_TIMEOUT_US: u64 = 10_000;

/// The paper's load-information update factor `u`; larger ⇒ more
/// frequent broadcasts. The paper found 0.9 too chatty and settled on
/// 0.4, raising it to 0.7 for IDA\* on large machines — so `u` is the
/// one RID setting a run passes in ([`rid`], [`rid_policy`]).
pub const RID_U: f64 = 0.4;

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
    /// Load-information update factor, see [`RID_U`].
    u: f64,
    table: LoadTable,
    /// Outstanding request replies; wait for all of them (each reply
    /// is a `Tasks` message, possibly empty) before asking again.
    pending_replies: u32,
}

impl RidPolicy {
    fn maybe_broadcast(&mut self, k: &Kernel, ctx: &mut impl ExecCtx<KernelMsg<RidMsg>>) {
        self.table.maybe_broadcast(self.u, k, ctx, RidMsg::LoadInfo);
    }

    /// Requests work when underloaded: the deficit to the neighbourhood
    /// average is split over the above-average neighbours in proportion
    /// to their excess — the proportional-hunk rule of Willebeek-LeMair
    /// & Reeves' RID.
    fn maybe_request(&mut self, k: &mut Kernel, ctx: &mut impl ExecCtx<KernelMsg<RidMsg>>) {
        let t = &self.table;
        if self.pending_replies > 0 || k.load() >= L_LOW || t.neighbors.is_empty() {
            return;
        }
        let load = k.load();
        let avg = (t.loads.iter().sum::<i64>() + load) / (t.loads.len() as i64 + 1);
        let deficit = (avg - load).max(1);
        let excess: Vec<i64> = t
            .loads
            .iter()
            .map(|&l| (l - avg.max(L_THRESHOLD)).max(0))
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
                t.neighbors[idx],
                KernelMsg::Policy(RidMsg::TaskRequest(share)),
                k.oracle.costs.ctl_bytes,
            );
        }
        if self.pending_replies > 0 {
            ctx.set_timer(REQUEST_TIMEOUT_US, TAG_REQ_TIMEOUT);
        }
    }

    /// Donates up to `amount` tasks, keeping `L_THRESHOLD` for itself.
    /// A donor with nothing to spare stays silent — the requester finds
    /// out by timing out.
    fn donate(
        &mut self,
        k: &mut Kernel,
        ctx: &mut impl ExecCtx<KernelMsg<RidMsg>>,
        to: NodeId,
        amount: i64,
    ) {
        let surplus = (k.load() - L_THRESHOLD).max(0);
        let give = surplus.min(amount).min(k.exec.queue.len() as i64);
        if give == 0 {
            return;
        }
        let batch = k.exec.queue.take_newest(give as usize);
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
                self.table.record(from, load);
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
        self.table.record(from, sender_load);
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
        keep_local(k, ctx, children);
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
    u: f64,
) -> RunOutcome {
    let shared = Arc::clone(&topo);
    let make = move |me| rid_policy(shared.as_ref(), me, u);
    run_policy(workload, topo, latency, costs, seed, make).0
}

/// Node `me`'s receiver-initiated-diffusion policy instance on `topo`,
/// broadcasting its load by update factor `u`.
pub fn rid_policy(topo: &dyn Topology, me: NodeId, u: f64) -> RidPolicy {
    assert!((0.0..1.0).contains(&u), "update factor must be in [0,1)");
    RidPolicy {
        u,
        table: LoadTable::new(topo, me),
        pending_replies: 0,
    }
}
