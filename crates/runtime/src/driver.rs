//! The **policy kernel**: one SPMD node driver for every scheduler.
//!
//! Every scheduler in this reproduction — RIPS itself and the dynamic
//! baselines — runs the *same* per-node event loop: pop a task, charge
//! dispatch overhead, execute the grain, generate children, decrement
//! the round counter, and keep a single pending EXEC timer alive while
//! the queue is non-empty. Likewise they all migrate tasks the same way
//! (one packed message per destination, spawn overhead charged at the
//! receiver, cumulative expected/received counters so an overtaking
//! migration is never lost) and pace rounds the same way (the node that
//! completes a round's last task announces the barrier; the barrier
//! timer advances the round or halts the machine).
//!
//! [`NodeDriver`] owns exactly that machinery, once. What *differs*
//! between schedulers — where children go, when load information is
//! exchanged, how a system phase is initiated — is expressed through
//! the [`BalancerPolicy`] trait. A new scheduler is a ~100-line trait
//! implementation (see `examples/custom_balancer.rs`), not a fork of
//! the event loop.
//!
//! # The execution-backend seam
//!
//! Policies never touch the simulator directly: every hook receives an
//! `&mut impl `[`ExecCtx`] — the narrow surface (time, sends, timers,
//! compute, grain execution) that both backends provide. Under the
//! discrete-event simulator the context is [`rips_desim::Ctx`]
//! (virtual time, modelled costs); under `rips-live` it is a real
//! thread's channel-backed context (wall-clock time, actual work). The
//! three `dispatch_*` entry points are the backend-facing API: desim
//! calls them from its [`rips_desim::Program`] handlers (via
//! [`NodeDriver`]), the live backend from its per-node thread loop.
//!
//! # Invariants the kernel maintains
//!
//! * **Migration counters.** `received_in` counts `Tasks` messages ever
//!   received; `expected_in` counts messages a policy has announced it
//!   is owed. Both are *cumulative* (never reset), so a migration that
//!   overtakes its announcement — possible, because broadcasts
//!   serialise per-recipient send costs — is never lost; the balance
//!   `received_in == expected_in` means "no migration in flight".
//! * **Progress.** At most one EXEC timer is pending per node
//!   ([`Kernel::kick`] is idempotent), and it is re-armed after every
//!   task execution and every task arrival, so a node with queued work
//!   and an enabled exec loop always runs it.
//! * **Round pacing.** [`Oracle::task_done`] returns `true` exactly
//!   once per round; the driver turns that into a single barrier
//!   announcement (unless the policy paces rounds itself, as RIPS does
//!   with its empty system phase).
//! * **One live round.** The barrier announcer advances the round only
//!   once every task of the previous one has run, so from then on every
//!   live task belongs to the oracle's current round — which is why a
//!   [`TaskInstance`] carries none. Debug builds check it where a round
//!   starts: the announcer's own round start finds an empty queue, and
//!   no node starts a round owed a migration. (A `RoundStart` arrival
//!   may find tasks queued: the new round's, shipped by a peer that
//!   heard the broadcast first, as random placement does. It may even
//!   arrive after the round it opens is over, on a node whose block of
//!   that round's roots is empty, so seeds are read from the round the
//!   message names, never the current one.)

use std::sync::Arc;

use rips_desim::{Ctx, Engine, LatencyModel, Time, WorkKind};
use rips_taskgraph::Workload;
use rips_topology::{NodeId, Topology};
use rips_trace::metrics_rt::{Counter, Gauge};
use rips_trace::{EventKind, TraceEvent};

use crate::{count_up, Costs, NodeExec, Oracle, RunOutcome, TaskInstance};

/// Timer tag of the kernel's exec loop.
pub const TAG_EXEC: u64 = 0;
/// Timer tag of the kernel's round barrier.
pub const TAG_ROUND: u64 = 1;
/// First timer tag available to policies; the driver forwards every
/// tag `>= TAG_POLICY_BASE` to [`BalancerPolicy::on_timer`].
pub const TAG_POLICY_BASE: u64 = 2;

/// Messages exchanged by kernel-driven nodes. The kernel owns task
/// migration and round pacing; everything else is a policy message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelMsg<M> {
    /// Migrated task instances, plus the sender's advertised load at
    /// send time (diffusion policies refresh their load tables for
    /// free; others ignore it).
    Tasks(Vec<TaskInstance>, i64),
    /// Round `r` begins, with a policy-defined token word (RIPS carries
    /// the opening system-phase index; round-paced policies send 0).
    RoundStart(u32, u32),
    /// A policy-specific message, delivered to
    /// [`BalancerPolicy::on_msg`].
    Policy(M),
}

/// The execution-backend seam: everything a [`Kernel`] and its
/// [`BalancerPolicy`] may ask of the machine they run on.
///
/// Implemented by the discrete-event simulator's [`rips_desim::Ctx`]
/// (virtual time, modelled compute) and by `rips-live`'s per-thread
/// context (wall-clock time, real channels, real work). Writing the
/// policy kernel against this trait — and only this trait — is what
/// lets one scheduler implementation run on both backends unchanged.
pub trait ExecCtx<M: Clone> {
    /// Current time in µs: virtual under the simulator, monotonic
    /// wall-clock under a live backend.
    fn now(&self) -> Time;
    /// This node's id.
    fn me(&self) -> NodeId;
    /// Number of nodes in the machine.
    fn num_nodes(&self) -> usize;
    /// The run's seed. A policy that draws random numbers seeds its own
    /// per-node stream from it, so the draws are the same on every
    /// backend.
    ///
    /// A policy draws randomness only through this call. The simulator
    /// records it ([`rips_desim::RunStats::seed_read`]), and a run that
    /// never makes it is taken to be the same run under every seed: the
    /// simulated serve fleet then reuses its outcome for later jobs.
    fn seed(&self) -> u64;
    /// Consume `dur` µs of CPU classified as `kind`. The simulator
    /// advances virtual time; a live backend treats modelled overhead
    /// charges as free (its overheads are real and implicit).
    fn compute(&mut self, dur: Time, kind: WorkKind);
    /// Send `msg` (`bytes` of payload) to node `to`.
    fn send(&mut self, to: NodeId, msg: M, bytes: usize);
    /// Send a copy of `msg` to every other node (software broadcast:
    /// the sender pays a per-recipient send cost).
    fn send_all(&mut self, msg: M, bytes: usize);
    /// Broadcast a hardware-assisted signal to every other node: no
    /// payload, no sender CPU (the paper's eureka/or-barrier).
    fn signal_all(&mut self, msg: M);
    /// Arrange for the backend to call the timer dispatch with `tag`
    /// after `delay` µs.
    fn set_timer(&mut self, delay: Time, tag: u64);
    /// Stop the whole machine once this handler returns.
    fn halt(&mut self);
    /// Execute the grain of `inst`, a task of round `round` whose
    /// modelled duration is `grain_us`. The default charges that
    /// duration as user compute (what the simulator measures); a live
    /// backend overrides this to run the actual application closure.
    fn execute_grain(&mut self, round: u32, inst: &TaskInstance, grain_us: Time) {
        let _ = (round, inst);
        self.compute(grain_us, WorkKind::User);
    }
}

impl<M: Clone> ExecCtx<M> for Ctx<'_, M> {
    fn now(&self) -> Time {
        Ctx::now(self)
    }
    fn me(&self) -> NodeId {
        Ctx::me(self)
    }
    fn num_nodes(&self) -> usize {
        Ctx::num_nodes(self)
    }
    fn seed(&self) -> u64 {
        Ctx::seed(self)
    }
    fn compute(&mut self, dur: Time, kind: WorkKind) {
        Ctx::compute(self, dur, kind);
    }
    fn send(&mut self, to: NodeId, msg: M, bytes: usize) {
        Ctx::send(self, to, msg, bytes);
    }
    fn send_all(&mut self, msg: M, bytes: usize) {
        Ctx::send_all(self, msg, bytes);
    }
    fn signal_all(&mut self, msg: M) {
        Ctx::signal_all(self, msg);
    }
    fn set_timer(&mut self, delay: Time, tag: u64) {
        Ctx::set_timer(self, delay, tag);
    }
    fn halt(&mut self) {
        Ctx::halt(self);
    }
}

/// Per-node kernel state: the task queue, execution counters, the
/// exec-loop latch, and the cumulative migration counters. Policies
/// receive `&mut Kernel` in every hook.
pub struct Kernel {
    /// This node's id, as a `u32` ([`Kernel::me`] widens it back).
    me: u32,
    /// The run's shared oracle (rounds, task generation, costs).
    pub oracle: Oracle,
    /// Queue and execution counters.
    pub exec: NodeExec,
    /// Gate on the exec loop. Policies that suspend execution (RIPS
    /// during a system phase) clear it; [`Kernel::kick`] and the EXEC
    /// timer are no-ops while it is `false`. Defaults to `true`.
    pub exec_enabled: bool,
    /// Cumulative count of migration messages this node was promised
    /// (see the module docs for why it never resets). Raise it with
    /// [`count_up`], which panics past `u32::MAX`.
    pub expected_in: u32,
    /// Cumulative count of migration messages received.
    pub received_in: u32,
    /// `true` while an EXEC timer is pending, so task arrivals don't
    /// double-schedule the loop.
    exec_scheduled: bool,
}

impl Kernel {
    /// Fresh kernel state for node `me`.
    ///
    /// # Panics
    /// Panics if `me` is past `u32::MAX`.
    pub fn new(me: NodeId, oracle: Oracle) -> Self {
        let me = u32::try_from(me).unwrap_or_else(|_| panic!("node {me} is past u32::MAX"));
        Kernel {
            me,
            oracle,
            exec: NodeExec::default(),
            exec_enabled: true,
            expected_in: 0,
            received_in: 0,
            exec_scheduled: false,
        }
    }

    /// This node's id.
    #[inline]
    pub fn me(&self) -> NodeId {
        self.me as NodeId
    }

    /// Current queue length — the default notion of "load".
    #[inline]
    pub fn load(&self) -> i64 {
        self.exec.queue.len() as i64
    }

    /// Ensures an EXEC timer is pending if there is work to do and the
    /// exec loop is enabled. Idempotent.
    pub fn kick<M: Clone>(&mut self, ctx: &mut impl ExecCtx<KernelMsg<M>>) {
        if !self.exec_scheduled && self.exec_enabled && !self.exec.queue.is_empty() {
            ctx.set_timer(0, TAG_EXEC);
            self.exec_scheduled = true;
        }
    }

    /// Takes this node's block of round `round`'s roots, charging the
    /// spawn overhead, *without* enqueueing them — for policies that
    /// place even the initial tasks themselves (random allocation,
    /// RIPS's opening system phase). `round` is the one the round-start
    /// hook was handed; it may already be behind the oracle's (see
    /// [`Oracle::seed_for`](crate::Oracle::seed_for)).
    pub fn take_seeds<M: Clone>(
        &mut self,
        ctx: &mut impl ExecCtx<KernelMsg<M>>,
        round: u32,
    ) -> Vec<TaskInstance> {
        debug_assert!(
            round <= self.oracle.round(),
            "seeding round {round} before it opens"
        );
        let seeds = self.oracle.seed_for(self.me(), round);
        ctx.compute(
            self.oracle.costs.spawn_us * seeds.len() as Time,
            WorkKind::Overhead,
        );
        count_up(&mut self.exec.spawned, seeds.len(), "tasks spawned");
        self.oracle
            .tel
            .add_at(self.me(), Counter::TasksSpawned, seeds.len() as u64);
        if self.oracle.tel.wants(EventKind::Spawn) && !seeds.is_empty() {
            let (t, count) = (ctx.now(), seeds.len() as u32);
            self.oracle
                .tel
                .emit(EventKind::Spawn, t, self.me(), || TraceEvent::Spawn {
                    round,
                    count,
                });
        }
        seeds
    }

    /// Seeds this node's block of the round's roots and kicks the loop.
    /// An empty round is announced as complete right away (by node 0).
    pub fn seed_round<M: Clone>(&mut self, ctx: &mut impl ExecCtx<KernelMsg<M>>, round: u32) {
        let seeds = self.take_seeds(ctx, round);
        self.exec.queue.extend(seeds);
        if self.oracle.outstanding() == 0 && self.me() == 0 {
            self.announce_round(ctx);
            return;
        }
        self.kick(ctx);
    }

    /// Schedules the round-barrier announcement on this node: after the
    /// modelled barrier delay the driver advances the round (telling
    /// everyone) or halts the machine.
    pub fn announce_round<M: Clone>(&mut self, ctx: &mut impl ExecCtx<KernelMsg<M>>) {
        if self.oracle.tel.wants(EventKind::Barrier) {
            let (t, round) = (ctx.now(), self.oracle.round());
            self.oracle
                .tel
                .emit(EventKind::Barrier, t, self.me(), || TraceEvent::Barrier {
                    round,
                });
        }
        ctx.set_timer(self.oracle.round_barrier_delay(), TAG_ROUND);
    }

    /// Sends a batch of migrated tasks to `to`, advertising `load` as
    /// the sender's current load. Charges the per-descriptor wire size;
    /// the *receiver* pays the spawn overhead on acceptance. Policies
    /// that model a packing cost charge it themselves before calling.
    pub fn send_tasks<M: Clone>(
        &mut self,
        ctx: &mut impl ExecCtx<KernelMsg<M>>,
        to: NodeId,
        batch: Vec<TaskInstance>,
        load: i64,
    ) {
        if self.oracle.tel.wants(EventKind::MigrateOut) {
            let (t, count) = (ctx.now(), batch.len() as u32);
            self.oracle
                .tel
                .emit(EventKind::MigrateOut, t, self.me(), || {
                    TraceEvent::MigrateOut { to, count }
                });
        }
        let bytes = self.oracle.costs.task_bytes * batch.len();
        ctx.send(to, KernelMsg::Tasks(batch, load), bytes);
    }

    /// Debug check of the "one live round" invariant (module docs)
    /// where round `round` starts on this node: no migration is owed,
    /// and on the announcer, whose queue no peer can have fed yet,
    /// nothing is queued.
    fn debug_assert_round_drained(&self, round: u32, announcer: bool) {
        debug_assert!(
            self.received_in >= self.expected_in,
            "node {} starts round {round} owed {} migrations",
            self.me(),
            self.expected_in - self.received_in,
        );
        debug_assert!(
            !announcer || self.exec.queue.is_empty(),
            "node {} announces round {round} with {} tasks queued",
            self.me(),
            self.exec.queue.len(),
        );
    }
}

/// A transfer policy plugged into the [`NodeDriver`].
///
/// The driver calls these hooks from its event handlers; each receives
/// the node's [`Kernel`] and an [`ExecCtx`] for whichever backend is
/// running the node. Defaults implement the plain round-paced scheduler
/// with local child placement disabled (placement is the one hook every
/// policy must provide).
pub trait BalancerPolicy: Sized {
    /// Policy-specific message payload (delivered via
    /// [`KernelMsg::Policy`]). Use `()` if the policy has none.
    type Msg: Clone + std::fmt::Debug;

    /// Machine boot. Default: seed round 0 and start executing.
    fn on_start(&mut self, k: &mut Kernel, ctx: &mut impl ExecCtx<KernelMsg<Self::Msg>>) {
        k.seed_round(ctx, 0);
    }

    /// A policy message arrived from `from`.
    fn on_msg(
        &mut self,
        k: &mut Kernel,
        ctx: &mut impl ExecCtx<KernelMsg<Self::Msg>>,
        from: NodeId,
        msg: Self::Msg,
    );

    /// Migrated tasks from `from` were accepted into the queue. The
    /// driver has already bumped `received_in`, charged the spawn
    /// overhead, enqueued the batch, and re-armed the exec loop;
    /// `sender_load` is the load the sender advertised at send time.
    fn on_tasks_accepted(
        &mut self,
        _k: &mut Kernel,
        _ctx: &mut impl ExecCtx<KernelMsg<Self::Msg>>,
        _from: NodeId,
        _sender_load: i64,
    ) {
    }

    /// A policy timer (tag `>=` [`TAG_POLICY_BASE`]) fired.
    fn on_timer(
        &mut self,
        _k: &mut Kernel,
        _ctx: &mut impl ExecCtx<KernelMsg<Self::Msg>>,
        tag: u64,
    ) {
        unreachable!("policy armed no timer, got tag {tag}");
    }

    /// Children generated by a completed task: place them, charging
    /// whatever placement overhead the policy models (most charge
    /// `spawn_us` per child kept or shipped; random allocation ships
    /// for free and lets the receiver pay).
    fn place_children(
        &mut self,
        k: &mut Kernel,
        ctx: &mut impl ExecCtx<KernelMsg<Self::Msg>>,
        children: Vec<TaskInstance>,
    );

    /// Called after every executed task, once children are placed, the
    /// round counter is decremented, and the exec loop is re-armed —
    /// the policy's chance to rebalance (broadcast load, request work,
    /// check a transfer condition, …).
    fn after_task(&mut self, _k: &mut Kernel, _ctx: &mut impl ExecCtx<KernelMsg<Self::Msg>>) {}

    /// Whether the driver announces the round barrier when this node
    /// executes the round's last task. RIPS returns `false`: its empty
    /// system phase detects termination instead.
    fn announces_rounds(&self) -> bool {
        true
    }

    /// Token word attached to the next round-start broadcast (asked of
    /// the announcing node right before it broadcasts). RIPS carries
    /// the round-opening system-phase index; the default is 0.
    fn round_token(&self, _k: &Kernel) -> u32 {
        0
    }

    /// A [`KernelMsg::RoundStart`] broadcast arrived: a new round
    /// begins on this (non-announcing) node. Default: block-seed the
    /// round and resume.
    fn on_round_start(
        &mut self,
        k: &mut Kernel,
        ctx: &mut impl ExecCtx<KernelMsg<Self::Msg>>,
        round: u32,
        _token: u32,
    ) {
        k.seed_round(ctx, round);
    }

    /// The round-barrier timer fired on this node (the announcer): the
    /// round is advanced and RoundStart already broadcast. Default:
    /// block-seed the new round with *no* policy action — the announcer
    /// just executed the previous round's last task, so its policy
    /// state is refreshed by the normal execution path. RIPS overrides
    /// this to open the round with a system phase, like its receivers.
    fn on_round_announced(
        &mut self,
        k: &mut Kernel,
        ctx: &mut impl ExecCtx<KernelMsg<Self::Msg>>,
        round: u32,
        _token: u32,
    ) {
        k.seed_round(ctx, round);
    }
}

/// Executes one task off the queue front through `policy`: dispatch
/// overhead + grain, child placement, round accounting, loop re-arm,
/// and the policy's post-task hook. No-op if the queue is empty or the
/// exec loop is disabled.
///
/// The driver calls this from the EXEC timer; policies may also call it
/// directly to run a task *inside* one of their own handlers (RIPS
/// commits to the first task of a new user phase this way, so a queued
/// init can never preempt an all-idle machine into a zero-progress
/// phase storm).
pub fn exec_step<P: BalancerPolicy>(
    policy: &mut P,
    k: &mut Kernel,
    ctx: &mut impl ExecCtx<KernelMsg<P::Msg>>,
) {
    if !k.exec_enabled {
        return;
    }
    let Some(inst) = k.exec.queue.pop_front() else {
        return;
    };
    // Each kind is asked for on its own: a sink that audits phase
    // boundaries pays nothing here, not even the clock reads.
    let trace_exec = k.oracle.tel.wants(EventKind::TaskExec);
    let t0 = if trace_exec { ctx.now() } else { 0 };
    let round = k.oracle.round();
    let grain_us = k.oracle.grain(&inst);
    ctx.compute(k.oracle.costs.dispatch_us, WorkKind::Overhead);
    ctx.execute_grain(round, &inst, grain_us);
    k.exec.record(&inst, k.me());
    k.oracle.tel.add_at(k.me(), Counter::TasksExecuted, 1);
    if trace_exec {
        // Stamped at the grain's start (dispatch already charged), so
        // exporters draw the execution as a span of `grain_us`.
        let dispatch_us = k.oracle.costs.dispatch_us;
        let origin = inst.origin();
        let hops = k.oracle.hops(origin, k.me());
        k.oracle
            .tel
            .emit(EventKind::TaskExec, t0 + dispatch_us, k.me(), || {
                TraceEvent::TaskExec {
                    task: inst.task as u64,
                    round,
                    origin,
                    hops,
                    grain_us,
                    dispatch_us,
                }
            });
    }
    let children = k.oracle.children_of(&inst, k.me());
    if !children.is_empty() {
        count_up(&mut k.exec.spawned, children.len(), "tasks spawned");
        k.oracle
            .tel
            .add_at(k.me(), Counter::TasksSpawned, children.len() as u64);
        if k.oracle.tel.wants(EventKind::Spawn) {
            let (t, count) = (ctx.now(), children.len() as u32);
            k.oracle
                .tel
                .emit(EventKind::Spawn, t, k.me(), || TraceEvent::Spawn {
                    round,
                    count,
                });
        }
    }
    policy.place_children(k, &mut *ctx, children);
    // The round counter must drop for every execution; only the node
    // completing the round's last task sees `true`.
    if k.oracle.task_done() && policy.announces_rounds() {
        k.announce_round(ctx);
    }
    k.oracle
        .tel
        .set_gauge_at(k.me(), Gauge::QueueDepth, k.exec.queue.len() as u64);
    if k.oracle.tel.wants(EventKind::QueueDepth) {
        let (t, depth) = (ctx.now(), k.exec.queue.len() as u32);
        k.oracle.tel.emit(EventKind::QueueDepth, t, k.me(), || {
            TraceEvent::QueueDepth { depth }
        });
    }
    k.kick(ctx);
    policy.after_task(k, ctx);
}

/// Backend entry point: the machine booted; run the policy's start
/// hook on this node. Called once per node at time 0.
pub fn dispatch_start<P: BalancerPolicy>(
    policy: &mut P,
    k: &mut Kernel,
    ctx: &mut impl ExecCtx<KernelMsg<P::Msg>>,
) {
    policy.on_start(k, ctx);
}

/// Backend entry point: a [`KernelMsg`] arrived from `from`. Handles
/// the kernel-owned messages (task migration, round start) and routes
/// policy payloads to [`BalancerPolicy::on_msg`].
pub fn dispatch_message<P: BalancerPolicy>(
    policy: &mut P,
    k: &mut Kernel,
    ctx: &mut impl ExecCtx<KernelMsg<P::Msg>>,
    from: NodeId,
    msg: KernelMsg<P::Msg>,
) {
    match msg {
        KernelMsg::Tasks(tasks, sender_load) => {
            count_up(&mut k.received_in, 1, "migrations received");
            let count = tasks.len() as u32;
            ctx.compute(
                k.oracle.costs.spawn_us * tasks.len() as Time,
                WorkKind::Overhead,
            );
            k.exec.queue.extend(tasks);
            let tel = &k.oracle.tel;
            tel.add_at(k.me(), Counter::TasksMigratedIn, count as u64);
            tel.set_gauge_at(k.me(), Gauge::QueueDepth, k.exec.queue.len() as u64);
            if tel.wants(EventKind::MigrateIn) || tel.wants(EventKind::QueueDepth) {
                let (t, depth) = (ctx.now(), k.exec.queue.len() as u32);
                tel.emit(EventKind::MigrateIn, t, k.me(), || TraceEvent::MigrateIn {
                    from,
                    count,
                });
                tel.emit(EventKind::QueueDepth, t, k.me(), || {
                    TraceEvent::QueueDepth { depth }
                });
            }
            k.kick(ctx);
            policy.on_tasks_accepted(k, ctx, from, sender_load);
        }
        KernelMsg::RoundStart(round, token) => {
            k.debug_assert_round_drained(round, false);
            if k.oracle.tel.wants(EventKind::RoundBegin) {
                let t = ctx.now();
                k.oracle.tel.emit(EventKind::RoundBegin, t, k.me(), || {
                    TraceEvent::RoundBegin { round }
                });
            }
            policy.on_round_start(k, ctx, round, token);
        }
        KernelMsg::Policy(m) => policy.on_msg(k, ctx, from, m),
    }
}

/// Backend entry point: a timer fired with `tag`. Handles the kernel's
/// EXEC and ROUND tags and forwards policy tags (`>=`
/// [`TAG_POLICY_BASE`]) to [`BalancerPolicy::on_timer`].
pub fn dispatch_timer<P: BalancerPolicy>(
    policy: &mut P,
    k: &mut Kernel,
    ctx: &mut impl ExecCtx<KernelMsg<P::Msg>>,
    tag: u64,
) {
    match tag {
        TAG_EXEC => {
            k.exec_scheduled = false;
            exec_step(policy, k, ctx);
        }
        TAG_ROUND => match k.oracle.advance_round() {
            Some(next) => {
                k.debug_assert_round_drained(next, true);
                let token = policy.round_token(k);
                ctx.send_all(KernelMsg::RoundStart(next, token), k.oracle.costs.ctl_bytes);
                if k.oracle.tel.wants(EventKind::RoundBegin) {
                    let t = ctx.now();
                    k.oracle.tel.emit(EventKind::RoundBegin, t, k.me(), || {
                        TraceEvent::RoundBegin { round: next }
                    });
                }
                policy.on_round_announced(k, ctx, next, token);
            }
            None => ctx.halt(),
        },
        tag => policy.on_timer(k, ctx, tag),
    }
}

/// The generic SPMD node program: [`Kernel`] mechanics driven by a
/// [`BalancerPolicy`]. One instance per node; see the module docs.
pub struct NodeDriver<P: BalancerPolicy> {
    /// Kernel-owned node state.
    pub kernel: Kernel,
    /// The plugged-in transfer policy.
    pub policy: P,
}

impl<P: BalancerPolicy> rips_desim::Program for NodeDriver<P> {
    type Msg = KernelMsg<P::Msg>;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        dispatch_start(&mut self.policy, &mut self.kernel, ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, from: NodeId, msg: Self::Msg) {
        dispatch_message(&mut self.policy, &mut self.kernel, ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg>, tag: u64) {
        dispatch_timer(&mut self.policy, &mut self.kernel, ctx, tag);
    }
}

/// Runs `workload` on `topo` under `policy` instances built by `make`
/// (one per node), returning the outcome and the final policy states.
///
/// This is the one place a scheduler meets the engine: it builds the
/// shared [`Oracle`], wraps each policy in a [`NodeDriver`], honours
/// the timeline/contention switches in [`Costs`], and extracts the
/// per-node execution counters. An empty workload short-circuits to
/// [`RunOutcome::empty`].
pub fn run_policy<P, F>(
    workload: Arc<Workload>,
    topo: Arc<dyn Topology>,
    latency: LatencyModel,
    costs: Costs,
    seed: u64,
    make: F,
) -> (RunOutcome, Vec<P>)
where
    P: BalancerPolicy,
    F: FnMut(NodeId) -> P,
{
    if workload.rounds.is_empty() {
        return (RunOutcome::empty(topo.len()), Vec::new());
    }
    let oracle = Oracle::new(Arc::clone(&workload), Arc::clone(&topo), costs);
    let tel = oracle.tel.clone();
    let mut make = make;
    let mut engine = Engine::new(topo, latency, seed, move |me| NodeDriver {
        kernel: Kernel::new(me, oracle.clone()),
        policy: make(me),
    });
    engine.set_telemetry(tel.clone());
    engine.record_timeline(costs.record_timeline);
    engine.enable_contention(costs.contention);
    let (drivers, stats) = engine.run();
    let executed: Vec<u64> = drivers
        .iter()
        .map(|d| u64::from(d.kernel.exec.executed))
        .collect();
    // One summary per node instead of a record per task: what an
    // auditing sink proves conservation from.
    for d in &drivers {
        let exec = &d.kernel.exec;
        tel.emit(EventKind::NodeTotals, stats.end_time, d.kernel.me(), || {
            TraceEvent::NodeTotals {
                spawned: exec.spawned.into(),
                executed: exec.executed.into(),
            }
        });
    }
    let nonlocal = drivers
        .iter()
        .map(|d| u64::from(d.kernel.exec.nonlocal_executed))
        .sum();
    let policies = drivers.into_iter().map(|d| d.policy).collect();
    (
        RunOutcome {
            stats,
            executed,
            nonlocal,
            system_phases: 0,
        },
        policies,
    )
}
