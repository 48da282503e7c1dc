//! RIPS as a [`BalancerPolicy`] over the shared policy kernel.
//!
//! The kernel's [`NodeDriver`](rips_runtime::NodeDriver) owns task
//! execution, migration accounting, and round pacing; this module
//! contributes only what makes RIPS *RIPS*: the alternating user/system
//! phases, the transfer-condition policies (ANY / ALL / Periodic), the
//! parallel scheduling algorithms of the system phase, and the
//! plan-driven migrations. The kernel's `exec_enabled` gate is slaved
//! to the RIPS mode — execution is frozen the moment a node leaves its
//! user phase, exactly the "every processor finishes the current task
//! execution and enters the system phase" of the paper.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

use rips_desim::{LatencyModel, Time, WorkKind};
use rips_runtime::{
    count_up, exec_step, run_policy, BalancerPolicy, Costs, ExecCtx, Kernel, KernelMsg, PhaseLog,
    ScheduledRun, TaskInstance, TAG_POLICY_BASE,
};
use rips_sched::TransferPlan;
use rips_taskgraph::Workload;
use rips_topology::{Mesh2D, NodeId};
use rips_trace::metrics_rt::Counter;
use rips_trace::{EventKind, PhaseKind, SysStage, TraceEvent};

/// Local transfer policy (paper §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalPolicy {
    /// Two queues; every task is scheduled before execution.
    Eager,
    /// One queue; tasks may execute where they were generated.
    Lazy,
}

/// Global transfer policy (paper §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GlobalPolicy {
    /// First locally-ready processor broadcasts *init*.
    Any,
    /// Ready signals aggregate up a logical spanning tree; the root
    /// initiates once every processor is ready.
    All,
    /// The paper's "naive implementation": a global reduction every
    /// `interval` µs tests the transfer condition; each test charges
    /// every node a reduction's worth of overhead whether or not it
    /// fires. "An interval that is too short increases communication
    /// overhead, and an interval that is too long may result in
    /// unnecessary processor idle" — swept by the `ablation_interval`
    /// bench.
    Periodic(Time),
}

/// What a processor reports as its "load" in a system phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMetric {
    /// Number of queued tasks — the paper's choice: "each task is
    /// presumed to require the equal execution time … the inaccuracy
    /// due to the grain-size variation can be corrected in the next
    /// system phase."
    TaskCount,
    /// Sum of the queued tasks' estimated grains (µs) — the
    /// programmer/compiler estimation the paper mentions as the
    /// alternative. Balances *work* instead of *count*; the
    /// `ablation_weighted` bench measures what that buys.
    EstimatedWeight,
}

/// RIPS policy configuration. The paper's best combination — and the
/// one behind its Table I numbers — is ANY-Lazy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RipsConfig {
    /// Local transfer policy.
    pub local: LocalPolicy,
    /// Global transfer policy.
    pub global: GlobalPolicy,
    /// Use hardware or-barrier signalling ("the eureka mode in Cray
    /// T3D") for the ANY policy's init broadcast: the initiator pays no
    /// per-recipient CPU, the signal carries no payload, and re-asserts
    /// of an already-raised wire are absorbed — exactly one wavefront
    /// per phase even when every node goes idle in the same instant
    /// (the software broadcast degenerates to O(n²) init messages
    /// there). Only meaningful under [`GlobalPolicy::Any`].
    pub eureka: bool,
    /// What counts as "load" when the system phase balances.
    ///
    /// Caution: under [`GlobalPolicy::Any`] with µs-granularity weights,
    /// a node whose weight quota is unfillable by indivisible tasks is
    /// permanently "idle enough" to initiate, which degenerates into
    /// one system phase per executed task on large machines: pair
    /// [`LoadMetric::EstimatedWeight`] with [`GlobalPolicy::Periodic`].
    pub metric: LoadMetric,
}

impl Default for RipsConfig {
    fn default() -> Self {
        RipsConfig {
            local: LocalPolicy::Lazy,
            global: GlobalPolicy::Any,
            eureka: false,
            metric: LoadMetric::TaskCount,
        }
    }
}

/// The machine RIPS runs on, which fixes the parallel scheduling
/// algorithm of the system phase. "RIPS is a general method and
/// applies to different topologies, such as the tree, mesh, and
/// hypercube" (§4); only the paper's own machine, the 2-D mesh, is
/// implemented, with flat or tiled MWA as its planner.
#[derive(Debug, Clone)]
pub enum Machine {
    /// 2-D mesh scheduled by the Mesh Walking Algorithm.
    Mesh(Mesh2D),
    /// 2-D mesh scheduled hierarchically (`rips-h`): the Mesh Walking
    /// Algorithm inside `⌈n^(1/4)⌉`-sided tiles plus a cross-tile
    /// exchange — same post-schedule loads as [`Machine::Mesh`]
    /// (Theorem 1 exactly) in `O(n^(1/4))` instead of `O(√n)`
    /// communication steps, for meshes too large for the full walk.
    MeshHier(Mesh2D),
}

impl Machine {
    /// The mesh either planner runs on.
    pub fn mesh(&self) -> Mesh2D {
        match *self {
            Machine::Mesh(m) | Machine::MeshHier(m) => m,
        }
    }

    /// Runs the machine's scheduling algorithm on the collected loads.
    fn plan(&self, loads: &[i64]) -> TransferPlan {
        match self {
            Machine::Mesh(m) => rips_sched::mwa(m, loads).0,
            Machine::MeshHier(m) => rips_sched::tiled_mwa(m, loads).0,
        }
    }

    /// Communication steps charged for one system-phase scheduling
    /// run: the closed-form bound of the algorithm [`Machine::plan`]
    /// runs.
    fn steps(&self) -> usize {
        match self {
            Machine::Mesh(m) => rips_sched::mwa_steps(m),
            Machine::MeshHier(m) => rips_sched::TileGrid::new(m).hier_steps(),
        }
    }
}

/// ALL policy: `node`'s parent in the ready tree, heap order rooted at
/// node 0, or `None` for the root.
fn tree_parent(node: NodeId) -> Option<NodeId> {
    (node > 0).then(|| (node - 1) / 2)
}

/// ALL policy: `node`'s children in the ready tree on `n` nodes,
/// `2·node + 1` and `2·node + 2` where they are below `n`.
fn tree_children(node: NodeId, n: usize) -> impl Iterator<Item = NodeId> {
    [2 * node + 1, 2 * node + 2]
        .into_iter()
        .filter(move |&c| c < n)
}

/// RIPS control messages — everything that is not task migration or
/// round pacing (the kernel owns those).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RipsCtl {
    /// Enter system phase `p`.
    Init(u32),
    /// ALL policy: this subtree is ready for phase `p`.
    Ready(u32),
    /// Phase `p`'s plan is computed; migrate and resume.
    PlanReady(u32),
}

const TAG_PLAN: u64 = TAG_POLICY_BASE;
const TAG_POLL: u64 = TAG_POLICY_BASE + 2;

/// Per-node CPU charged per communication step of the parallel
/// scheduling algorithm (µs).
const PLAN_CPU_PER_STEP_US: Time = 25;

/// What one engine's policies share: the run's RIPS constants, stored
/// once, and the rendezvous state. Nothing here is written per task —
/// every store below happens once per node per system phase at most.
struct FleetShared {
    cfg: RipsConfig,
    machine: Machine,
    /// The system phase's rendezvous: a node locks it twice per phase,
    /// once to report its load and once to pick up the plan.
    mu: Mutex<Shared>,
    /// Periodic policy: some node's local condition is set and waiting
    /// for the next poll. Checked every poll tick on every node, so it
    /// is a lock-free flag.
    want_phase: AtomicBool,
    /// Eureka mode: highest phase whose or-barrier wire has been
    /// raised. Hardware absorbs re-asserts, so only the node that wins
    /// the `fetch_max` race delivers the wavefront — without this the
    /// simultaneous-idle case degenerates into `n` initiators each
    /// fanning out `n` signals (an O(n²) event storm per phase that
    /// dominates the event count beyond a few hundred nodes).
    eureka_raised: AtomicU32,
}

/// Rendezvous state behind [`FleetShared::mu`]. A node reports its load
/// for phase p + 1 only after it has applied phase p's plan, so the
/// whole machine shares exactly one set of reports being collected and
/// one plan being applied.
#[derive(Default)]
struct Shared {
    /// The phase whose loads are being collected.
    collecting: u32,
    /// Loads reported for `collecting`, by node ([`NOT_REPORTED`] until
    /// the node reports); re-filled by the first report of each phase.
    /// The last reporter plans from this vector itself.
    reported: Vec<i64>,
    /// Reports in so far; back to 0 once the last one has planned.
    entered: usize,
    /// The latest plan and its phase: stored by the last reporter
    /// under the lock it reported with, dropped when the next plan
    /// replaces it.
    plan: Option<(u32, Arc<PhasePlan>)>,
    /// Completed system phases.
    phases: u32,
    /// Per-phase log.
    logs: Vec<PhaseLog>,
}

/// A load no node can report: loads are checked non-negative.
const NOT_REPORTED: i64 = -1;

/// One phase's packed migrations, sized by the transfers, not by the
/// machine: a node finds its part by binary search.
struct PhasePlan {
    /// `(src, dst, count)`, sorted by source; one source's
    /// destinations ascend.
    by_src: Vec<(NodeId, NodeId, i64)>,
    /// Every transfer's destination, ascending: a node expects one
    /// packed message per occurrence of its id.
    dsts: Vec<NodeId>,
}

impl PhasePlan {
    /// Packs `transfers` (destinations ascending, as
    /// [`TransferPlan::net_transfers`] returns them).
    fn new(transfers: Vec<(NodeId, NodeId, i64)>) -> Self {
        let dsts: Vec<NodeId> = transfers.iter().map(|t| t.1).collect();
        let mut by_src = transfers;
        // Stable: each source's destinations stay ascending.
        by_src.sort_by_key(|t| t.0);
        PhasePlan { by_src, dsts }
    }

    /// `node`'s outgoing `(src, dst, count)` transfers.
    fn outgoing(&self, node: NodeId) -> &[(NodeId, NodeId, i64)] {
        let lo = self.by_src.partition_point(|t| t.0 < node);
        let hi = self.by_src.partition_point(|t| t.0 <= node);
        &self.by_src[lo..hi]
    }

    /// How many packed messages `node` receives.
    fn expected_in(&self, node: NodeId) -> usize {
        let lo = self.dsts.partition_point(|&d| d < node);
        let hi = self.dsts.partition_point(|&d| d <= node);
        hi - lo
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Executing the user phase.
    User,
    /// Told to enter the system phase `phase_index` but still owed
    /// migrations from the previous one.
    WaitingEntry,
    /// Reported load; waiting for the plan.
    Entered,
}

/// A phase index no system phase has: round 0 opens with phase 1 and
/// every later phase counts up from there.
const NO_PHASE: u32 = 0;

/// Per-node state only the Eager local policy and the ALL global
/// policy use. It is allocated the first time one of them needs it, so
/// an ANY-Lazy node (the paper's choice) carries one null pointer.
#[derive(Default)]
struct ModeState {
    /// Eager policy's ready-to-schedule queue: appended to as children
    /// are generated, drained whole when a plan is applied.
    rts: Vec<TaskInstance>,
    // ALL-policy spanning tree state.
    local_ready_for: Option<u32>,
    ready_sent_for: Option<u32>,
    children_ready: BTreeMap<u32, u32>,
}

/// The RIPS transfer policy: one instance per node, plugged into the
/// kernel's [`NodeDriver`](rips_runtime::NodeDriver).
pub struct RipsPolicy {
    shared: Arc<FleetShared>,
    /// Eager's and ALL's state, `None` until first used.
    modal: Option<Box<ModeState>>,
    mode: Mode,
    phase_index: u32,
    /// An init that arrived while this node was still inside the
    /// previous system phase (possible when init signalling is faster
    /// than the plan broadcast, e.g. under eureka); processed right
    /// after the plan is applied. [`NO_PHASE`] when there is none.
    pending_init: u32,
    /// Tracing only (a sink that wants `Stage` records): the phase an
    /// open idle-detect stage was emitted for ([`NO_PHASE`] when no
    /// stage is open). Idle-detect latency runs from the local transfer
    /// condition turning true to the node entering the system phase.
    trace_idle_open: u32,
}

impl RipsPolicy {
    /// The Eager/ALL state, allocated on first use.
    fn modal(&mut self) -> &mut ModeState {
        self.modal.get_or_insert_with(Box::default)
    }

    /// Eager's ready-to-schedule queue (always empty under Lazy).
    fn rts(&self) -> &[TaskInstance] {
        self.modal.as_deref().map_or(&[], |m| &m.rts)
    }

    /// Switches mode, keeping the kernel's exec gate in lock-step:
    /// tasks execute only during the user phase. `now` stamps the trace
    /// spans: a user→system transition closes the user-phase span
    /// (index `phase_index − 1`, since `phase_index` is already set to
    /// the phase being entered) and opens the system-phase span; a
    /// system→user transition does the reverse. The WaitingEntry and
    /// Entered modes are the same system-phase span.
    fn set_mode(&mut self, k: &mut Kernel, now: Time, mode: Mode) {
        let was_user = self.mode == Mode::User;
        let is_user = mode == Mode::User;
        if was_user != is_user {
            let (me, p) = (k.me(), self.phase_index);
            let tel = &k.oracle.tel;
            if is_user {
                tel.emit(EventKind::SystemPhase, now, me, || TraceEvent::PhaseEnd {
                    kind: PhaseKind::System,
                    index: p,
                });
                tel.emit(EventKind::UserPhase, now, me, || TraceEvent::PhaseBegin {
                    kind: PhaseKind::User,
                    index: p,
                });
            } else {
                let ip = std::mem::replace(&mut self.trace_idle_open, NO_PHASE);
                if ip != NO_PHASE {
                    tel.emit(EventKind::Stage, now, me, || TraceEvent::StageEnd {
                        stage: SysStage::IdleDetect,
                        phase: ip,
                    });
                }
                tel.emit(EventKind::UserPhase, now, me, || TraceEvent::PhaseEnd {
                    kind: PhaseKind::User,
                    index: p.saturating_sub(1),
                });
                tel.emit(EventKind::SystemPhase, now, me, || TraceEvent::PhaseBegin {
                    kind: PhaseKind::System,
                    index: p,
                });
            }
        }
        self.mode = mode;
        k.exec_enabled = mode == Mode::User;
    }

    /// This node's load under the configured metric.
    #[inline]
    fn load(&self, k: &Kernel) -> i64 {
        match self.shared.cfg.metric {
            LoadMetric::TaskCount => (k.exec.queue.len() + self.rts().len()) as i64,
            LoadMetric::EstimatedWeight => k
                .exec
                .queue
                .iter()
                .chain(self.rts())
                .map(|t| k.oracle.grain(t) as i64)
                .sum(),
        }
    }

    /// Local transfer condition (paper §2): the RTE queue is empty —
    /// and no migration from the previous system phase is still owed.
    #[inline]
    fn local_condition(&self, k: &Kernel) -> bool {
        self.mode == Mode::User && k.exec.queue.is_empty() && k.received_in == k.expected_in
    }

    /// Acts on a satisfied local condition according to the global
    /// policy.
    fn check_transfer(&mut self, k: &mut Kernel, ctx: &mut impl ExecCtx<KernelMsg<RipsCtl>>) {
        if !self.local_condition(k) {
            return;
        }
        let next = self.phase_index + 1;
        if k.oracle.tel.wants(EventKind::Stage) && self.trace_idle_open == NO_PHASE {
            // The local condition just turned true: open the
            // idle-detect stage; it closes when the node actually
            // enters a system phase.
            self.trace_idle_open = next;
            let (t, me) = (ctx.now(), k.me());
            k.oracle
                .tel
                .emit(EventKind::Stage, t, me, || TraceEvent::StageBegin {
                    stage: SysStage::IdleDetect,
                    phase: next,
                });
        }
        match self.shared.cfg.global {
            GlobalPolicy::Any => {
                // Become the initiator: broadcast init and enter.
                self.phase_index = next;
                if self.shared.cfg.eureka {
                    // Or-barrier semantics: raising an already-raised
                    // wire is free and invisible, so exactly one
                    // wavefront per phase is delivered no matter how
                    // many nodes go idle in the same instant (see
                    // [`FleetShared::eureka_raised`]). Losers still
                    // enter immediately — same as winning, minus the
                    // fan-out.
                    if self.shared.eureka_raised.fetch_max(next, Ordering::AcqRel) < next {
                        ctx.signal_all(KernelMsg::Policy(RipsCtl::Init(next)));
                    }
                } else {
                    ctx.send_all(
                        KernelMsg::Policy(RipsCtl::Init(next)),
                        k.oracle.costs.ctl_bytes,
                    );
                }
                self.enter_system(k, ctx, next);
            }
            GlobalPolicy::All => {
                self.modal().local_ready_for = Some(next);
                self.try_send_ready(k, ctx, next);
            }
            GlobalPolicy::Periodic(_) => {
                // Flag it; node 0's next poll turns it into an init.
                self.shared.want_phase.store(true, Ordering::Release);
            }
        }
    }

    /// ALL policy: forward the ready signal once this node and all its
    /// logical-tree children are ready; the root initiates instead.
    fn try_send_ready(
        &mut self,
        k: &mut Kernel,
        ctx: &mut impl ExecCtx<KernelMsg<RipsCtl>>,
        phase: u32,
    ) {
        // No mode state yet means this node is not ready for any phase.
        let Some(m) = self.modal.as_deref_mut() else {
            return;
        };
        if m.local_ready_for != Some(phase) || m.ready_sent_for == Some(phase) {
            return;
        }
        let kids = tree_children(k.me(), k.oracle.num_nodes()).count() as u32;
        if m.children_ready.get(&phase).copied().unwrap_or(0) < kids {
            return;
        }
        m.ready_sent_for = Some(phase);
        match tree_parent(k.me()) {
            Some(parent) => ctx.send(
                parent,
                KernelMsg::Policy(RipsCtl::Ready(phase)),
                k.oracle.costs.ctl_bytes,
            ),
            None => {
                // Root: the global ALL condition holds; initiate.
                self.phase_index = phase;
                ctx.send_all(
                    KernelMsg::Policy(RipsCtl::Init(phase)),
                    k.oracle.costs.ctl_bytes,
                );
                self.enter_system(k, ctx, phase);
            }
        }
    }

    /// Reports the load for phase `p`; the last reporter computes the
    /// plan (or detects round termination).
    fn enter_system(&mut self, k: &mut Kernel, ctx: &mut impl ExecCtx<KernelMsg<RipsCtl>>, p: u32) {
        debug_assert_eq!(self.phase_index, p);
        let now = ctx.now();
        // A `was_user` entry is the node freezing execution now; a
        // WaitingEntry re-entry already opened its spans back then.
        let was_user = self.mode == Mode::User;
        if k.received_in != k.expected_in {
            // Owed migrations: defer until they arrive.
            self.set_mode(k, now, Mode::WaitingEntry);
            if was_user {
                let me = k.me();
                k.oracle
                    .tel
                    .emit(EventKind::Stage, now, me, || TraceEvent::StageBegin {
                        stage: SysStage::LoadCollect,
                        phase: p,
                    });
            }
            return;
        }
        self.set_mode(k, now, Mode::Entered);
        if was_user {
            let me = k.me();
            k.oracle
                .tel
                .emit(EventKind::Stage, now, me, || TraceEvent::StageBegin {
                    stage: SysStage::LoadCollect,
                    phase: p,
                });
        }
        if let Some(m) = &mut self.modal {
            m.children_ready.remove(&p);
        }
        let n = k.oracle.num_nodes();
        let load = self.load(k);
        let (me, tel) = (k.me(), &k.oracle.tel);
        tel.emit(EventKind::Stage, now, me, || TraceEvent::StageEnd {
            stage: SysStage::LoadCollect,
            phase: p,
        });
        tel.emit(EventKind::LoadSample, now, me, || TraceEvent::LoadSample {
            load,
        });
        assert!(
            load >= 0,
            "node {} reports negative load {load} for phase {p}",
            k.me()
        );
        let mut shared = self.shared.mu.lock().unwrap();
        if shared.collecting != p {
            // First report of phase p: the previous phase's reports
            // were all in (and planned) before anyone could get here.
            assert!(
                shared.collecting < p && shared.entered == 0,
                "node {} reports for phase {p} while phase {} has {} of {n} reports",
                k.me(),
                shared.collecting,
                shared.entered,
            );
            shared.collecting = p;
            shared.reported.clear();
            shared.reported.resize(n, NOT_REPORTED);
        }
        assert!(
            shared.reported[k.me()] == NOT_REPORTED,
            "node {} reports twice for phase {p} (collecting phase {})",
            k.me(),
            shared.collecting,
        );
        shared.reported[k.me()] = load;
        shared.entered += 1;
        if shared.entered < n {
            return;
        }
        // Last to enter: run the parallel scheduling algorithm on the
        // reports where they were collected (n distinct reports are
        // in, so none is NOT_REPORTED).
        shared.entered = 0;
        shared.phases += 1;
        let loads = std::mem::take(&mut shared.reported);
        let total: i64 = loads.iter().sum();
        if total == 0 {
            // No work anywhere: the round (and possibly the job) ended.
            shared.reported = loads;
            drop(shared);
            k.announce_round(ctx);
            return;
        }
        let plan = self.shared.machine.plan(&loads);
        let transfers = plan.net_transfers(&loads);
        shared.reported = loads;
        assert!(
            transfers.windows(2).all(|w| w[0].1 <= w[1].1),
            "node {} plans phase {p} with net transfers out of destination order",
            k.me()
        );
        shared.logs.push(PhaseLog {
            phase: p,
            round: k.oracle.round(),
            total_tasks: total,
            migrated: transfers.iter().map(|t| t.2).sum(),
            edge_cost: plan.edge_cost(),
        });
        // Every node has applied the plan this replaces (it reported
        // for p since), so this frees it. Peers pick the new one up
        // after the PlanReady message.
        shared.plan = Some((p, Arc::new(PhasePlan::new(transfers))));
        drop(shared);
        if k.oracle.tel.wants(EventKind::Stage) {
            // The plan stage lives on the computing node only; it
            // closes when the TAG_PLAN timer fires.
            let (t, me) = (ctx.now(), k.me());
            k.oracle
                .tel
                .emit(EventKind::Stage, t, me, || TraceEvent::StageBegin {
                    stage: SysStage::Plan,
                    phase: p,
                });
        }
        // The algorithm's synchronous steps take wall-clock time before
        // anyone can act on the plan.
        let delay = self.shared.machine.steps() as Time * k.oracle.costs.comm_step_us;
        ctx.set_timer(delay, TAG_PLAN);
    }

    /// Executes this node's part of phase `p`'s plan and returns to the
    /// user phase.
    fn apply_plan(&mut self, k: &mut Kernel, ctx: &mut impl ExecCtx<KernelMsg<RipsCtl>>, p: u32) {
        debug_assert_eq!(self.mode, Mode::Entered);
        debug_assert_eq!(self.phase_index, p);
        // Per-node share of the collective algorithm's CPU.
        ctx.compute(
            self.shared.machine.steps() as Time * PLAN_CPU_PER_STEP_US,
            WorkKind::Overhead,
        );
        if k.oracle.tel.wants(EventKind::Stage) {
            let (t, me) = (ctx.now(), k.me());
            k.oracle
                .tel
                .emit(EventKind::Stage, t, me, || TraceEvent::StageBegin {
                    stage: SysStage::Migrate,
                    phase: p,
                });
        }
        // Everything reported is now scheduled: the RTS queue drains
        // into the RTE queue ("the system phase schedules tasks in all
        // RTS queues and distributes them evenly to the RTE queues").
        if let Some(m) = &mut self.modal {
            k.exec.queue.extend(m.rts.drain(..));
        }
        let plan = match &self.shared.mu.lock().unwrap().plan {
            Some((tag, plan)) if *tag == p => Arc::clone(plan),
            other => panic!(
                "node {} applies phase {p}'s plan but the slot holds phase {:?}",
                k.me(),
                other.as_ref().map(|(tag, _)| tag),
            ),
        };
        let expected = plan.expected_in(k.me());
        // The Arc keeps the plan alive for the loop; no per-node clone
        // of the outgoing slice is needed.
        for &(_, dst, amount) in plan.outgoing(k.me()) {
            // Under TaskCount `amount` is the exact batch size (a plan
            // cannot overdraw a reported queue); under EstimatedWeight
            // it is µs of work.
            let batch = match self.shared.cfg.metric {
                LoadMetric::TaskCount => k.exec.queue.take_newest(amount as usize),
                LoadMetric::EstimatedWeight => {
                    // Tasks are indivisible: pick tasks (newest first)
                    // whose grain brings the moved weight closer to the
                    // plan — taking `g` helps iff `g ≤ 2·remaining` —
                    // so a whale is only shipped when the plan really
                    // asks for that much work. Whatever error remains
                    // is corrected by the next incremental phase.
                    let mut batch = Vec::with_capacity(k.exec.queue.len().min(amount as usize));
                    let mut remaining = amount;
                    let mut idx = k.exec.queue.len();
                    while idx > 0 && remaining > 0 {
                        idx -= 1;
                        let g = k.oracle.grain(&k.exec.queue[idx]) as i64;
                        if g <= 2 * remaining {
                            let task = k.exec.queue.remove(idx).expect("idx in range");
                            batch.push(task);
                            remaining -= g;
                        }
                    }
                    batch
                }
            };
            ctx.compute(
                k.oracle.costs.spawn_us * batch.len() as Time,
                WorkKind::Overhead,
            );
            k.send_tasks(ctx, dst, batch, 0);
        }
        count_up(&mut k.expected_in, expected, "migrations expected");
        let now = ctx.now();
        let me = k.me();
        k.oracle
            .tel
            .emit(EventKind::Stage, now, me, || TraceEvent::StageEnd {
                stage: SysStage::Migrate,
                phase: p,
            });
        self.set_mode(k, now, Mode::User);
        // Commit to the first task of the new user phase *within this
        // handler*: returning to the event loop first would let an
        // already-queued init/poll event preempt an all-idle machine
        // into an endless chain of zero-progress system phases. Running
        // one task inline guarantees every phase advances the
        // computation — the paper's "every processor finishes the
        // current task execution".
        exec_step(self, k, &mut *ctx);
        self.check_transfer(k, &mut *ctx);
        let next = std::mem::replace(&mut self.pending_init, NO_PHASE);
        if next > self.phase_index {
            self.phase_index = next;
            self.enter_system(k, ctx, next);
        }
    }

    /// Seeds a round's block of roots and synchronously enters the
    /// round-opening system phase ("a RIPS system starts with a system
    /// phase which schedules initial tasks").
    fn start_round(
        &mut self,
        k: &mut Kernel,
        ctx: &mut impl ExecCtx<KernelMsg<RipsCtl>>,
        round: u32,
        phase: u32,
    ) {
        let seeds = k.take_seeds(ctx, round);
        k.exec.queue.extend(seeds);
        let now = ctx.now();
        self.set_mode(k, now, Mode::User);
        self.phase_index = phase;
        self.enter_system(k, ctx, phase);
    }
}

impl BalancerPolicy for RipsPolicy {
    type Msg = RipsCtl;

    fn on_start(&mut self, k: &mut Kernel, ctx: &mut impl ExecCtx<KernelMsg<RipsCtl>>) {
        if k.oracle.tel.wants(EventKind::UserPhase) {
            // Every node boots inside user phase 0 (closed the moment
            // the round-opening system phase is entered).
            let (t, me) = (ctx.now(), k.me());
            k.oracle
                .tel
                .emit(EventKind::UserPhase, t, me, || TraceEvent::PhaseBegin {
                    kind: PhaseKind::User,
                    index: 0,
                });
        }
        if let GlobalPolicy::Periodic(interval) = self.shared.cfg.global {
            // Only node 0 polls; everyone else just flags its local
            // condition in the shared reduction state.
            if k.me() == 0 {
                ctx.set_timer(interval, TAG_POLL);
            }
        }
        self.start_round(k, ctx, 0, 1);
    }

    fn on_msg(
        &mut self,
        k: &mut Kernel,
        ctx: &mut impl ExecCtx<KernelMsg<RipsCtl>>,
        from: NodeId,
        msg: RipsCtl,
    ) {
        match msg {
            RipsCtl::Init(p) => {
                if p <= self.phase_index {
                    // Redundant initiator, dropped by phase index.
                    k.oracle.tel.add_at(k.me(), Counter::InitsSuppressed, 1);
                    return;
                }
                debug_assert_eq!(p, self.phase_index + 1, "init skipped a phase");
                // A deferred node re-enters phase `phase_index` once its
                // migrations land, so nothing may move it meanwhile; no
                // later phase can start while this node's report for
                // that one is still missing.
                debug_assert!(
                    self.mode != Mode::WaitingEntry,
                    "node {} told to init phase {p} while its entry to phase {} is deferred",
                    k.me(),
                    self.phase_index,
                );
                if self.mode == Mode::Entered {
                    // Still waiting for the previous phase's plan: act
                    // on the init once that plan has been applied.
                    self.pending_init = p;
                    return;
                }
                self.phase_index = p;
                self.enter_system(k, ctx, p);
            }
            RipsCtl::Ready(p) => {
                debug_assert_eq!(self.shared.cfg.global, GlobalPolicy::All);
                debug_assert!(tree_children(k.me(), k.oracle.num_nodes()).any(|c| c == from));
                *self.modal().children_ready.entry(p).or_insert(0) += 1;
                self.try_send_ready(k, ctx, p);
            }
            RipsCtl::PlanReady(p) => self.apply_plan(k, ctx, p),
        }
    }

    fn on_tasks_accepted(
        &mut self,
        k: &mut Kernel,
        ctx: &mut impl ExecCtx<KernelMsg<RipsCtl>>,
        _from: NodeId,
        _load: i64,
    ) {
        // The kernel has enqueued the batch and re-armed the exec loop
        // (a no-op outside the user phase, because `exec_enabled`
        // mirrors the mode). What's left is RIPS's deferral bookkeeping:
        // a node that owed migrations when told to enter a system phase
        // enters now, once the last owed message lands.
        if self.mode == Mode::WaitingEntry && k.received_in == k.expected_in {
            // Enter directly from WaitingEntry: the node never resumed
            // its user phase, and the system-phase trace span has been
            // open since the deferral.
            self.enter_system(k, ctx, self.phase_index);
        }
    }

    fn on_timer(&mut self, k: &mut Kernel, ctx: &mut impl ExecCtx<KernelMsg<RipsCtl>>, tag: u64) {
        match tag {
            TAG_POLL => {
                let GlobalPolicy::Periodic(interval) = self.shared.cfg.global else {
                    unreachable!("poll timer without periodic policy");
                };
                // Every node pays for its share of the reduction.
                ctx.compute(k.oracle.costs.comm_step_us / 4, WorkKind::Overhead);
                // Keep exactly one poll chain alive; it dies with the
                // machine when the final phase halts the engine.
                ctx.set_timer(interval, TAG_POLL);
                let fire =
                    self.shared.want_phase.load(Ordering::Acquire) && self.mode == Mode::User;
                if fire && k.received_in == k.expected_in {
                    self.shared.want_phase.store(false, Ordering::Release);
                    let next = self.phase_index + 1;
                    self.phase_index = next;
                    ctx.send_all(
                        KernelMsg::Policy(RipsCtl::Init(next)),
                        k.oracle.costs.ctl_bytes,
                    );
                    self.enter_system(k, ctx, next);
                }
            }
            TAG_PLAN => {
                // Only the plan-computing node runs this: distribute
                // and apply.
                let p = self.phase_index;
                if k.oracle.tel.wants(EventKind::Stage) {
                    let (t, me) = (ctx.now(), k.me());
                    k.oracle
                        .tel
                        .emit(EventKind::Stage, t, me, || TraceEvent::StageEnd {
                            stage: SysStage::Plan,
                            phase: p,
                        });
                }
                ctx.send_all(
                    KernelMsg::Policy(RipsCtl::PlanReady(p)),
                    k.oracle.costs.ctl_bytes,
                );
                self.apply_plan(k, ctx, p);
            }
            _ => unreachable!("unknown timer {tag}"),
        }
    }

    /// Places freshly generated children according to the local policy.
    fn place_children(
        &mut self,
        k: &mut Kernel,
        ctx: &mut impl ExecCtx<KernelMsg<RipsCtl>>,
        children: Vec<TaskInstance>,
    ) {
        ctx.compute(
            k.oracle.costs.spawn_us * children.len() as Time,
            WorkKind::Overhead,
        );
        match self.shared.cfg.local {
            LocalPolicy::Lazy => k.exec.queue.extend(children),
            LocalPolicy::Eager => self.modal().rts.extend(children),
        }
    }

    fn after_task(&mut self, k: &mut Kernel, ctx: &mut impl ExecCtx<KernelMsg<RipsCtl>>) {
        self.check_transfer(k, ctx);
    }

    /// Round completion is detected by the empty system phase, not by
    /// the kernel's last-task signal.
    fn announces_rounds(&self) -> bool {
        false
    }

    /// The round-start broadcast carries the phase index that opens the
    /// new round, so every node enters the same round-opening phase.
    fn round_token(&self, _k: &Kernel) -> u32 {
        self.phase_index + 1
    }

    fn on_round_start(
        &mut self,
        k: &mut Kernel,
        ctx: &mut impl ExecCtx<KernelMsg<RipsCtl>>,
        round: u32,
        token: u32,
    ) {
        self.start_round(k, ctx, round, token);
    }

    fn on_round_announced(
        &mut self,
        k: &mut Kernel,
        ctx: &mut impl ExecCtx<KernelMsg<RipsCtl>>,
        round: u32,
        token: u32,
    ) {
        self.start_round(k, ctx, round, token);
    }
}

/// Backend-agnostic factory for a machine's worth of RIPS policies.
///
/// Both backends use it the same way: build the fleet, hand
/// [`RipsFleet::make`] to the backend as the per-node constructor, run,
/// drop the policies, then call [`RipsFleet::finish`] for the shared
/// phase log. The fleet owns the one block of state ([`RipsConfig`],
/// [`Machine`], the current phase's load reports and plan) that one
/// run's policies share.
pub struct RipsFleet {
    shared: Arc<FleetShared>,
}

impl RipsFleet {
    /// A fleet for `machine` under `cfg`.
    pub fn new(cfg: RipsConfig, machine: Machine) -> Self {
        RipsFleet {
            shared: Arc::new(FleetShared {
                cfg,
                machine,
                mu: Mutex::default(),
                want_phase: AtomicBool::new(false),
                eureka_raised: AtomicU32::new(0),
            }),
        }
    }

    /// The machine's mesh.
    pub fn mesh(&self) -> Mesh2D {
        self.shared.machine.mesh()
    }

    /// Builds node `_me`'s policy instance.
    pub fn make(&self, _me: NodeId) -> RipsPolicy {
        RipsPolicy {
            shared: Arc::clone(&self.shared),
            modal: None,
            mode: Mode::User,
            phase_index: 0,
            pending_init: NO_PHASE,
            trace_idle_open: NO_PHASE,
        }
    }

    /// Consumes the fleet after a run, returning the system-phase count
    /// and the per-phase log. Panics if policies made by this fleet are
    /// still alive (they hold the shared state).
    pub fn finish(self) -> (u32, Vec<PhaseLog>) {
        let shared = Arc::try_unwrap(self.shared)
            .unwrap_or_else(|_| panic!("shared state still referenced"))
            .mu
            .into_inner()
            .unwrap_or_else(|p| p.into_inner());
        (shared.phases, shared.logs)
    }
}

/// Runs `workload` under RIPS on `machine`. RIPS draws no random
/// numbers and never reads `seed`, so the seed does not change the run
/// (`crates/bench/tests/golden.rs`,
/// `only_random_reads_its_seed_and_a_seed_free_run_ignores_it`); it is
/// taken for the same signature as every other scheduler.
pub fn rips(
    workload: Arc<Workload>,
    machine: Machine,
    latency: LatencyModel,
    costs: Costs,
    seed: u64,
    cfg: RipsConfig,
) -> ScheduledRun {
    let fleet = RipsFleet::new(cfg, machine);
    let mesh = fleet.mesh();
    let (mut run, policies) = run_policy(workload, mesh, latency, costs, seed, |me| fleet.make(me));
    drop(policies); // release the policies' handles on the shared state
    let (phases, logs) = fleet.finish();
    run.system_phases = phases;
    ScheduledRun {
        outcome: run,
        phases: logs,
    }
}
