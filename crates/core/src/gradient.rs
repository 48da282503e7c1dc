//! The gradient model (Lin & Keller): proximity propagation plus
//! one-hop task pushes down the gradient.
//!
//! Idle nodes advertise proximity 0; every other node's proximity is
//! `1 + min(neighbour proximities)`, capped at `diameter + 1` ("no idle
//! node known"). An overloaded node pushes a task to its
//! lowest-proximity neighbour; intermediate loaded nodes forward it
//! further downhill. The paper's verdict — "it cannot balance the load
//! well, since the load is spread slowly. In addition, the system
//! overhead is large because information and tasks are frequently
//! exchanged" — emerges from exactly these rules.

use std::sync::Arc;

use rips_desim::LatencyModel;
use rips_runtime::{
    run_policy, BalancerPolicy, Costs, ExecCtx, Kernel, KernelMsg, RunOutcome, TaskInstance,
    TAG_POLICY_BASE,
};
use rips_taskgraph::Workload;
use rips_topology::{Mesh2D, NodeId};

use crate::common::{keep_local, nb_index};

/// Timer tag for the coalesced proximity notification.
const TAG_NOTIFY: u64 = TAG_POLICY_BASE;

/// A node pushes tasks away while its queue is longer than this.
const HIGH_MARK: i64 = 1;

/// Proximity changes are batched and sent to neighbours at most once
/// per this interval (µs) — the gradient surface is always a little
/// stale, which is intrinsic to the model.
const UPDATE_INTERVAL_US: u64 = 150;

/// Gradient-model policy messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GradientMsg {
    /// Sender's proximity value.
    Proximity(u32),
}

/// The gradient model as a [`BalancerPolicy`].
pub struct GradientPolicy {
    neighbors: Vec<NodeId>,
    nb_prox: Vec<u32>,
    /// Last proximity actually sent to neighbours.
    advertised: Option<u32>,
    /// A coalescing notification timer is pending.
    notify_pending: bool,
    /// Proximity saturation value: "no idle node reachable".
    cap: u32,
}

impl GradientPolicy {
    fn min_nb_prox(&self) -> u32 {
        self.nb_prox.iter().copied().min().unwrap_or(self.cap)
    }

    /// Own proximity: 0 when idle, else one more than the nearest
    /// neighbour's, saturating at `cap`.
    fn proximity(&self, k: &Kernel) -> u32 {
        if k.load() == 0 {
            0
        } else {
            self.cap.min(1 + self.min_nb_prox())
        }
    }

    /// Recomputes own proximity and ensures the periodic gradient tick
    /// is armed whenever there is something to advertise or push.
    fn refresh_proximity(
        &mut self,
        k: &mut Kernel,
        ctx: &mut impl ExecCtx<KernelMsg<GradientMsg>>,
    ) {
        let must_advertise = self.advertised != Some(self.proximity(k));
        let can_push = k.load() > HIGH_MARK && self.min_nb_prox() < self.cap;
        if (must_advertise || can_push) && !self.notify_pending {
            self.notify_pending = true;
            ctx.set_timer(UPDATE_INTERVAL_US, TAG_NOTIFY);
        }
    }

    /// One gradient tick: advertise a changed proximity, push a small
    /// burst of tasks downhill, and re-arm while pressure remains —
    /// the continuous task flow of the gradient model.
    fn gradient_tick(&mut self, k: &mut Kernel, ctx: &mut impl ExecCtx<KernelMsg<GradientMsg>>) {
        self.notify_pending = false;
        let prox = self.proximity(k);
        if self.advertised != Some(prox) {
            self.advertised = Some(prox);
            for &nb in &self.neighbors {
                ctx.send(
                    nb,
                    KernelMsg::Policy(GradientMsg::Proximity(prox)),
                    k.oracle.costs.ctl_bytes,
                );
            }
        }
        self.push_one(k, ctx);
        self.refresh_proximity(k, ctx);
    }

    /// Pushes one task downhill if overloaded and an idle node is
    /// known somewhere.
    fn push_one(&mut self, k: &mut Kernel, ctx: &mut impl ExecCtx<KernelMsg<GradientMsg>>) {
        if k.load() <= HIGH_MARK || self.min_nb_prox() >= self.cap {
            return;
        }
        let target_idx = (0..self.neighbors.len())
            .min_by_key(|&i| (self.nb_prox[i], self.neighbors[i]))
            .expect("push with no neighbours");
        let task = k.exec.queue.take_newest(1);
        let load = k.load();
        k.send_tasks(ctx, self.neighbors[target_idx], task, load);
    }
}

impl BalancerPolicy for GradientPolicy {
    type Msg = GradientMsg;

    fn on_start(&mut self, k: &mut Kernel, ctx: &mut impl ExecCtx<KernelMsg<GradientMsg>>) {
        k.seed_round(ctx, 0);
        self.refresh_proximity(k, ctx);
    }

    fn on_msg(
        &mut self,
        k: &mut Kernel,
        ctx: &mut impl ExecCtx<KernelMsg<GradientMsg>>,
        from: NodeId,
        msg: GradientMsg,
    ) {
        let GradientMsg::Proximity(p) = msg;
        let idx = nb_index(&self.neighbors, from);
        self.nb_prox[idx] = p;
        self.refresh_proximity(k, ctx);
    }

    fn on_tasks_accepted(
        &mut self,
        k: &mut Kernel,
        ctx: &mut impl ExecCtx<KernelMsg<GradientMsg>>,
        _from: NodeId,
        _sender_load: i64,
    ) {
        self.refresh_proximity(k, ctx);
    }

    fn on_timer(
        &mut self,
        k: &mut Kernel,
        ctx: &mut impl ExecCtx<KernelMsg<GradientMsg>>,
        tag: u64,
    ) {
        match tag {
            TAG_NOTIFY => self.gradient_tick(k, ctx),
            _ => unreachable!("unknown timer {tag}"),
        }
    }

    /// Children stay local; the gradient moves them later if pressure
    /// builds.
    fn place_children(
        &mut self,
        k: &mut Kernel,
        ctx: &mut impl ExecCtx<KernelMsg<GradientMsg>>,
        children: Vec<TaskInstance>,
    ) {
        keep_local(k, ctx, children);
    }

    fn after_task(&mut self, k: &mut Kernel, ctx: &mut impl ExecCtx<KernelMsg<GradientMsg>>) {
        self.refresh_proximity(k, ctx);
    }

    fn on_round_start(
        &mut self,
        k: &mut Kernel,
        ctx: &mut impl ExecCtx<KernelMsg<GradientMsg>>,
        round: u32,
        _token: u32,
    ) {
        k.seed_round(ctx, round);
        self.refresh_proximity(k, ctx);
    }
}

/// Runs `workload` under the gradient model.
pub fn gradient(
    workload: Arc<Workload>,
    mesh: Mesh2D,
    latency: LatencyModel,
    costs: Costs,
    seed: u64,
) -> RunOutcome {
    assert!(
        latency.alpha_us > 0 || latency.per_hop_us > 0,
        "gradient model needs nonzero message latency to converge"
    );
    let make = move |me| gradient_policy(mesh, me);
    run_policy(workload, mesh, latency, costs, seed, make).0
}

/// Node `me`'s gradient-model policy instance on `mesh`.
pub fn gradient_policy(mesh: Mesh2D, me: NodeId) -> GradientPolicy {
    let cap = mesh.diameter() as u32 + 1;
    let neighbors = mesh.neighbors(me);
    GradientPolicy {
        nb_prox: vec![cap; neighbors.len()],
        neighbors,
        advertised: None,
        notify_pending: false,
        cap,
    }
}
