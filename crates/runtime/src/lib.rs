//! Shared harness for executing a [`rips_taskgraph::Workload`] on the
//! simulated multicomputer.
//!
//! Every scheduler in this reproduction — the RIPS runtime and the
//! dynamic baselines, all in `rips-core` — executes the same workloads
//! under the same rules:
//!
//! * root tasks of each round are **block-distributed** over the nodes
//!   (the natural SPMD data decomposition; spatially correlated
//!   imbalance is exactly what load balancers must fix);
//! * completing a task *generates* its children on the executing node;
//! * rounds are separated by a barrier (modelled as a convergecast +
//!   broadcast over the topology, see [`Oracle::round_barrier_delay`]);
//! * per-task dispatch costs a fixed overhead, and task descriptors
//!   have a fixed wire size ([`Costs`]).
//!
//! The [`Oracle`] is the state shared between the per-node programs of
//! one engine: the run's constants, stored once, and the round
//! counters. The counters play the role of *instantaneously observable
//! global state* for one purpose only: detecting "all tasks of this
//! round are done" (a real system would run distributed termination
//! detection; we charge its latency via the barrier model but skip its
//! implementation). It never short-circuits the costs that the paper
//! measures.
//!
//! On top of this harness sit the two pieces that make schedulers
//! interchangeable: the [`driver`] module (the policy kernel — one SPMD
//! [`NodeDriver`] parameterized by a [`BalancerPolicy`]) and the
//! [`registry`] module (the `name → constructor` table the benches,
//! golden tests, and CLI enumerate).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod driver;
mod queue;
pub mod registry;

pub use driver::{
    dispatch_message, dispatch_start, dispatch_timer, exec_step, run_policy, BalancerPolicy,
    ExecCtx, Kernel, KernelMsg, NodeDriver, TAG_EXEC, TAG_POLICY_BASE, TAG_ROUND,
};
pub use queue::TaskQueue;
pub use registry::{RunSpec, ScheduledRun, SchedulerCtor, SchedulerRegistry};

use std::sync::atomic::Ordering;
use std::sync::Arc;

use rips_verify::sync::atomic::{AtomicBool, AtomicU32, AtomicU64};
use rips_verify::sync::{ord, swap_bool};

use rips_desim::Time;
use rips_taskgraph::{TaskForest, TaskId, Workload};
use rips_topology::{NodeId, Topology};

/// One schedulable task instance travelling through the system: which
/// task of the current round, and where it was generated. 8 bytes.
///
/// It carries no round: a round advances only after every task of the
/// previous one has run, so the only round with live tasks is the
/// oracle's current one ([`Oracle::round`]). Its grain is read from
/// that round's forest ([`Oracle::grain`]), not copied into every
/// queued instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskInstance {
    /// Task within its round's forest.
    pub task: TaskId,
    /// Node where the task was generated, as a `u32`
    /// ([`TaskInstance::origin`] widens it back).
    origin: u32,
}

impl TaskInstance {
    /// Task `task` of the current round, generated on `origin`.
    ///
    /// # Panics
    /// Panics if `origin` is past `u32::MAX`.
    pub fn new(task: TaskId, origin: NodeId) -> Self {
        let origin = u32::try_from(origin)
            .unwrap_or_else(|_| panic!("task origin node {origin} is past u32::MAX"));
        TaskInstance { task, origin }
    }

    /// Node where the task was generated — an execution elsewhere makes
    /// it *non-local* (Table I's locality column).
    pub fn origin(&self) -> NodeId {
        self.origin as NodeId
    }
}

/// Cost constants shared by all schedulers (calibrated in
/// EXPERIMENTS.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Costs {
    /// CPU overhead to dispatch one task from the local queue (µs).
    pub dispatch_us: Time,
    /// CPU overhead to create/enqueue one generated task (µs).
    pub spawn_us: Time,
    /// Wire size of one task descriptor (bytes). "A uniform code image
    /// is accessible at each processor and only data are transferred."
    pub task_bytes: usize,
    /// Wire size of a small control message (bytes).
    pub ctl_bytes: usize,
    /// Modelled duration of one synchronous communication step inside
    /// a collective (µs). These are small control messages (a scan or
    /// broadcast hop ≈ one short-message latency); the paper's "about
    /// 1 ms" step applies to *task migration*, which this simulator
    /// charges separately through real task messages.
    pub comm_step_us: Time,
    /// Record per-node busy spans during the run (costs memory on long
    /// runs; used by the `timeline` visualisation).
    pub record_timeline: bool,
    /// Simulate store-and-forward link contention (directed links
    /// serialize transmissions). Off by default; the `ablation_contention`
    /// bench measures its effect on each scheduler.
    pub contention: bool,
}

impl Default for Costs {
    fn default() -> Self {
        Costs {
            dispatch_us: 250,
            spawn_us: 150,
            task_bytes: 48,
            ctl_bytes: 16,
            comm_step_us: 100,
            record_timeline: false,
            contention: false,
        }
    }
}

/// Handle to the per-engine state every node shares (see module docs
/// for the rules of use): one pointer per node, one [`OracleShared`]
/// block per run. The run's constants are read through the handle
/// (`oracle.costs`, `oracle.tel`, …) — "a uniform code image is
/// accessible at each processor", so no node carries its own copy.
#[derive(Clone)]
pub struct Oracle(Arc<OracleShared>);

impl std::ops::Deref for Oracle {
    type Target = OracleShared;
    fn deref(&self) -> &OracleShared {
        &self.0
    }
}

/// What one run's [`Oracle`] handles point at: the read-only constants
/// of the run plus its round counters.
pub struct OracleShared {
    /// The workload being executed (immutable, shared).
    pub workload: Arc<Workload>,
    /// Cost constants.
    pub costs: Costs,
    /// Telemetry for the run, captured at construction from the
    /// thread's installed sink ([`rips_trace::with_sink`]) and registry
    /// ([`rips_trace::with_metrics`]); each half disabled (one dead
    /// branch per call) when absent. The kernel and policies emit
    /// through it and write their own node's metrics shard.
    pub tel: rips_trace::Telemetry,
    /// The machine topology, for task-locality trace annotations. Its
    /// [`Topology::distance`] is closed form, so it is asked on the fly.
    topo: Arc<dyn Topology>,
    n: usize,
    diameter: usize,
    rounds: RoundCounters,
}

/// The only words of the shared block written during a run.
///
/// Plain atomics: [`Oracle::task_done`] — the one call on the per-task
/// hot path — is a single `fetch_sub`, so under the live backend node
/// threads never contend on a lock to retire tasks. That `fetch_sub`
/// runs once per task on every thread, while the constants beside it
/// are read several times per task on every thread, so the counters
/// get cache lines of their own: sharing one would turn every retire
/// into a miss on `costs`/`tel` for all the other threads. 128, not
/// 64, because x86-64 prefetches lines in adjacent pairs.
#[repr(align(128))]
struct RoundCounters {
    round: AtomicU32,
    outstanding: AtomicU64,
    round_announced: AtomicBool,
}

impl Oracle {
    /// Creates the oracle for one engine run.
    pub fn new(workload: Arc<Workload>, topo: Arc<dyn Topology>, costs: Costs) -> Self {
        let first_round = workload.rounds.first().map_or(0, |r| r.len() as u64);
        Oracle(Arc::new(OracleShared {
            rounds: RoundCounters {
                round: AtomicU32::new(0),
                outstanding: AtomicU64::new(first_round),
                round_announced: AtomicBool::new(false),
            },
            workload,
            costs,
            tel: rips_trace::Telemetry::current(),
            n: topo.len(),
            diameter: topo.diameter(),
            topo,
        }))
    }

    /// Hop distance between two nodes, for the `TaskExec` locality
    /// annotation. Only meaningful while a sink wants that kind
    /// (returns 0 otherwise, matching the historical table-free
    /// untraced path bit for bit).
    pub fn hops(&self, from: NodeId, to: NodeId) -> u32 {
        if self.tel.wants(rips_trace::EventKind::TaskExec) {
            self.topo.distance(from, to) as u32
        } else {
            0
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Current round index.
    pub fn round(&self) -> u32 {
        self.rounds.round.load(Ordering::Acquire)
    }

    /// Unexecuted tasks remaining in the current round (including tasks
    /// not yet generated — children count from the start, because the
    /// forest is known to the oracle; what matters is that it reaches
    /// zero exactly when the round's last task finishes).
    pub fn outstanding(&self) -> u64 {
        self.rounds.outstanding.load(Ordering::Acquire)
    }

    /// The current round's forest: the one every live task belongs to.
    fn forest(&self) -> &TaskForest {
        &self.workload.rounds[self.round() as usize]
    }

    /// Root task instances of round `round` owned by `node` under the
    /// block distribution.
    ///
    /// Seeds are the one place a round arrives from outside the task
    /// flow, so they are read from the round the caller names rather
    /// than the current one: a `RoundStart` can reach a node whose block
    /// of that round is empty after the others have finished the round
    /// and the oracle has moved on, and it must then seed nothing.
    pub fn seed_for(&self, node: NodeId, round: u32) -> Vec<TaskInstance> {
        let roots = self.workload.rounds[round as usize].roots();
        let per = roots.len().div_ceil(self.n.max(1)).max(1);
        let lo = (node * per).min(roots.len());
        let hi = ((node + 1) * per).min(roots.len());
        roots
            .skip(lo)
            .take(hi - lo)
            .map(|id| TaskInstance::new(id, node))
            .collect()
    }

    /// Marks one task of the current round executed. Returns `true`
    /// exactly once per round: to the caller that completed the round's
    /// last task (the node that then announces the barrier).
    ///
    /// Lock-free: one `fetch_sub` on the hot path, and the
    /// announcement token is claimed with a `swap` so concurrent
    /// finishers of the last two tasks cannot both win.
    pub fn task_done(&self) -> bool {
        let prev = self
            .rounds
            .outstanding
            .fetch_sub(1, ord("oracle.retire", Ordering::AcqRel));
        assert!(prev > 0, "task_done underflow");
        prev == 1 && self.claim_announce()
    }

    /// Claims the round's announcement token: `true` for the single
    /// winner. The `swap` is what keeps the barrier announcement unique
    /// when a finisher and a saw-zero observer race for it.
    fn claim_announce(&self) -> bool {
        !swap_bool(
            "oracle.announce",
            &self.rounds.round_announced,
            true,
            Ordering::AcqRel,
        )
    }

    /// Execution time of `inst` (µs), read from the current round's
    /// forest.
    pub fn grain(&self, inst: &TaskInstance) -> u64 {
        self.forest().grain(inst.task)
    }

    /// Child instances generated by completing `inst` on `node`.
    pub fn children_of(&self, inst: &TaskInstance, node: NodeId) -> Vec<TaskInstance> {
        self.forest()
            .children(inst.task)
            .iter()
            .map(|&c| TaskInstance::new(c, node))
            .collect()
    }

    /// Advances to the next round, resetting the outstanding counter.
    /// Returns the new round index, or `None` if the workload is
    /// complete.
    ///
    /// Only the barrier announcer calls this (the node whose
    /// [`Oracle::task_done`] returned `true`), so it never races with
    /// itself; peers act on the new round only after receiving the
    /// announcer's `RoundStart` message, whose delivery provides the
    /// happens-before edge for these stores.
    pub fn advance_round(&self) -> Option<u32> {
        debug_assert_eq!(self.outstanding(), 0, "advancing with work outstanding");
        let next = self.round() + 1;
        if (next as usize) >= self.workload.rounds.len() {
            return None;
        }
        self.rounds.outstanding.store(
            self.workload.rounds[next as usize].len() as u64,
            Ordering::Release,
        );
        self.rounds.round_announced.store(false, Ordering::Release);
        self.rounds.round.store(next, Ordering::Release);
        Some(next)
    }

    /// Modelled latency of the inter-round barrier: a convergecast plus
    /// a broadcast across the topology.
    pub fn round_barrier_delay(&self) -> Time {
        2 * self.diameter as Time * self.costs.comm_step_us
    }
}

/// Per-node execution bookkeeping shared by every scheduler program.
///
/// The counters are one node's share of a run, so `u32`; they widen to
/// `u64` where they are summed over the machine, and one that would
/// pass `u32::MAX` panics ([`count_up`]) rather than wrap.
#[derive(Debug, Default)]
pub struct NodeExec {
    /// Ready-to-execute queue; its first four tasks need no allocation.
    pub queue: TaskQueue,
    /// Tasks created on this node (round roots it seeded, children of
    /// tasks it executed).
    pub spawned: u32,
    /// Tasks executed by this node.
    pub executed: u32,
    /// Executed tasks whose origin was another node.
    pub nonlocal_executed: u32,
}

impl NodeExec {
    /// Records the execution of `inst` on `me`.
    pub fn record(&mut self, inst: &TaskInstance, me: NodeId) {
        count_up(&mut self.executed, 1, "tasks executed");
        if inst.origin() != me {
            count_up(&mut self.nonlocal_executed, 1, "non-local tasks executed");
        }
    }
}

/// Adds `by` to the per-node counter `what`.
///
/// # Panics
/// Panics, naming the counter, if the sum is past `u32::MAX`.
pub fn count_up(counter: &mut u32, by: usize, what: &str) {
    *counter = u32::try_from(by)
        .ok()
        .and_then(|by| counter.checked_add(by))
        .unwrap_or_else(|| panic!("{what} on one node is past u32::MAX"));
}

/// One system phase, as recorded for the paper's §5 overhead anecdote
/// (8 phases for 15-Queens, ~125 nonlocal tasks per phase, …). Lives
/// here (not in `rips-core`) so the scheduler registry can return phase
/// logs for any scheduler that has them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseLog {
    /// Phase index (1-based; phase 1 schedules the initial tasks).
    pub phase: u32,
    /// Round during which the phase ran.
    pub round: u32,
    /// Total tasks in all queues when the phase ran.
    pub total_tasks: i64,
    /// Tasks that ended on a different node than they started.
    pub migrated: i64,
    /// Σ eₖ of the transfer plan.
    pub edge_cost: i64,
}

/// How [`RunOutcome::verify_complete`] failed: the executed-task total
/// disagrees with the workload, in one of two distinguishable ways.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyError {
    /// Fewer executions than tasks: some tasks were dropped in flight
    /// (the classic migration/termination race).
    TasksLost {
        /// Tasks actually executed.
        executed: u64,
        /// Tasks the workload contains.
        expected: u64,
    },
    /// More executions than tasks: some task ran more than once (a
    /// duplicated migration or double dispatch).
    DoubleExecution {
        /// Tasks actually executed.
        executed: u64,
        /// Tasks the workload contains.
        expected: u64,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            VerifyError::TasksLost { executed, expected } => write!(
                f,
                "executed {executed} of {expected} tasks: {} lost",
                expected - executed
            ),
            VerifyError::DoubleExecution { executed, expected } => write!(
                f,
                "executed {executed} of {expected} tasks: {} duplicate executions",
                executed - expected
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Outcome of one scheduler run, aggregating the engine statistics with
/// the scheduler-level counters — the columns of the paper's Table I.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Raw engine statistics.
    pub stats: rips_desim::RunStats,
    /// Tasks executed per node.
    pub executed: Vec<u64>,
    /// Non-local tasks (executed off their origin node), total.
    pub nonlocal: u64,
    /// Number of system phases (RIPS) or 0 for dynamic baselines.
    pub system_phases: u32,
}

impl RunOutcome {
    /// Outcome of running nothing on `n` nodes — the degenerate result
    /// every scheduler driver returns for a workload with no rounds.
    pub fn empty(n: usize) -> Self {
        RunOutcome {
            stats: rips_desim::RunStats {
                end_time: 0,
                nodes: vec![Default::default(); n],
                net: Default::default(),
                events: 0,
                peak_queue_depth: 0,
                peak_heap_len: 0,
                mem: Default::default(),
                timelines: None,
                seed_read: false,
            },
            executed: vec![0; n],
            nonlocal: 0,
            system_phases: 0,
        }
    }

    /// Total tasks executed.
    pub fn total_executed(&self) -> u64 {
        self.executed.iter().sum()
    }

    /// Parallel execution time `T` in seconds.
    pub fn exec_time_s(&self) -> f64 {
        self.stats.end_time as f64 / 1e6
    }

    /// Mean per-node overhead `Th` in seconds.
    pub fn overhead_s(&self) -> f64 {
        self.stats.mean_overhead_us() / 1e6
    }

    /// Mean per-node idle `Ti` in seconds.
    pub fn idle_s(&self) -> f64 {
        self.stats.mean_idle_us() / 1e6
    }

    /// Efficiency `µ = Ts / (Tp · N)`.
    pub fn efficiency(&self) -> f64 {
        self.stats.efficiency()
    }

    /// Sanity check: every task of the workload ran exactly once (see
    /// [`check_conservation`]).
    pub fn verify_complete(&self, workload: &Workload) -> Result<(), VerifyError> {
        check_conservation(workload, self.total_executed())
    }
}

/// Task conservation, the one check behind every backend's
/// `verify_complete`: `executed` runs must equal the workload's task
/// count. Distinguishes losing tasks from executing some twice — they
/// point at different bugs (see [`VerifyError`]).
pub fn check_conservation(workload: &Workload, executed: u64) -> Result<(), VerifyError> {
    let expected: u64 = workload.rounds.iter().map(|r| r.len() as u64).sum();
    match executed.cmp(&expected) {
        std::cmp::Ordering::Equal => Ok(()),
        std::cmp::Ordering::Less => Err(VerifyError::TasksLost { executed, expected }),
        std::cmp::Ordering::Greater => Err(VerifyError::DoubleExecution { executed, expected }),
    }
}

/// Bounded model checking of the round-barrier announce protocol
/// (PR 9): two workers retire the round's last two tasks while each
/// also watches for the count to hit zero — the last finisher and a
/// saw-zero observer race for the announcement token. The `AcqRel`
/// retire chain orders every worker's round results before the
/// announcer reads them, and the `swap` elects exactly one announcer.
/// Compiled only under `--cfg rips_verify`.
#[cfg(all(test, rips_verify))]
mod verify_model {
    use super::*;
    use rips_taskgraph::flat_uniform;
    use rips_topology::Mesh2D;
    use rips_verify::sync::atomic::AtomicUsize;
    use rips_verify::sync::cell::UnsafeCellWrap;
    use rips_verify::{vthread, Checker, Mutation, MutationKind, ViolationKind};

    fn barrier_model() -> impl Fn() + Send + Sync + 'static {
        || {
            let w = Arc::new(flat_uniform(2, 1, 1, 0));
            let o = Arc::new(Oracle::new(
                w,
                Arc::new(Mesh2D::new(1, 2)),
                Costs::default(),
            ));
            // One result slot per worker, written before its retire;
            // the announcer reads both (the barrier's rendezvous). The
            // accesses carry no data — the checker races the *accesses*
            // themselves, so no `unsafe` deref is needed and RIPS-L004's
            // one `unsafe_code` allow stays on rips-live's `mod ring`.
            let results = Arc::new([UnsafeCellWrap::new(0u64), UnsafeCellWrap::new(0u64)]);
            let wins = Arc::new(AtomicUsize::new(0));
            let worker = {
                let (o, results, wins) = (Arc::clone(&o), Arc::clone(&results), Arc::clone(&wins));
                move |idx: usize| {
                    results[idx].with_mut(|_| ());
                    let mut won = o.task_done();
                    if !won && o.outstanding() == 0 {
                        won = o.claim_announce();
                    }
                    if won {
                        results[0].with(|_| ());
                        results[1].with(|_| ());
                        wins.fetch_add(1, Ordering::Relaxed);
                    }
                }
            };
            let rival = {
                let worker = worker.clone();
                vthread::spawn_named("rival", move || worker(1))
            };
            worker(0);
            rival.join().unwrap();
            assert_eq!(
                wins.load(Ordering::Relaxed),
                1,
                "exactly one barrier announcer"
            );
        }
    }

    #[test]
    fn model_single_barrier_announcer() {
        let stats = Checker::from_env("runtime.oracle.announce")
            .check(barrier_model())
            .expect("shipped announce protocol must be violation-free");
        assert!(stats.executions > 1);
    }

    /// `swap` → load+store admits a double announcement; `AcqRel` →
    /// `Relaxed` on the retire unorders the results from the announcer.
    #[test]
    fn sweep_announce_token_and_retire_ordering_are_load_bearing() {
        for (site, kind, expect) in [
            (
                "oracle.announce",
                MutationKind::SplitRmw,
                ViolationKind::AssertionFailure,
            ),
            (
                "oracle.retire",
                MutationKind::WeakenToRelaxed,
                ViolationKind::DataRace,
            ),
        ] {
            let v = Checker::from_env(&format!("runtime.oracle.sweep.{site}"))
                .mutation(Mutation { site, kind })
                .check(barrier_model())
                .unwrap_err();
            assert_eq!(v.kind, expect, "mutating {site}, got:\n{}", v.replay);
            assert!(
                !v.schedule.is_empty(),
                "violation must carry a replay schedule"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rips_taskgraph::flat_uniform;
    use rips_topology::Mesh2D;

    fn oracle(tasks: usize, nodes: usize) -> Oracle {
        let w = Arc::new(flat_uniform(tasks, 5, 10, 1));
        let topo = Mesh2D::near_square(nodes);
        Oracle::new(w, Arc::new(topo), Costs::default())
    }

    #[test]
    fn block_distribution_covers_all_roots_once() {
        let o = oracle(10, 4);
        let mut seen = vec![0u32; 10];
        for node in 0..4 {
            for inst in o.seed_for(node, 0) {
                seen[inst.task as usize] += 1;
                assert_eq!(inst.origin(), node);
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
    }

    #[test]
    fn uneven_block_distribution() {
        let o = oracle(7, 4);
        let counts: Vec<usize> = (0..4).map(|n| o.seed_for(n, 0).len()).collect();
        assert_eq!(counts.iter().sum::<usize>(), 7);
        assert_eq!(counts, vec![2, 2, 2, 1]);
    }

    #[test]
    fn task_done_fires_once_at_zero() {
        let o = oracle(3, 2);
        assert!(!o.task_done());
        assert!(!o.task_done());
        assert!(o.task_done());
        assert_eq!(o.outstanding(), 0);
    }

    /// Every handle reads and writes the run's one block: a retire made
    /// through a clone on another thread is the same count here. The
    /// join is the happens-before edge.
    #[test]
    fn handles_share_one_block_across_threads() {
        assert_eq!(
            std::mem::size_of::<Oracle>(),
            std::mem::size_of::<usize>(),
            "a handle is one pointer"
        );
        let o = oracle(3, 2);
        let peer = o.clone();
        let peer_finished_round = std::thread::spawn(move || {
            peer.task_done();
            peer.task_done()
        })
        .join()
        .expect("peer thread");
        assert!(!peer_finished_round);
        assert_eq!(o.outstanding(), 1);
        assert!(o.task_done(), "the third retire ends the round");
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn task_done_underflow_detected() {
        let o = oracle(1, 1);
        o.task_done();
        o.task_done();
    }

    #[test]
    fn advance_round_exhausts() {
        let w = Arc::new(rips_taskgraph::Workload {
            name: "two-round".into(),
            rounds: vec![
                flat_uniform(2, 1, 1, 0).rounds[0].clone(),
                flat_uniform(3, 1, 1, 0).rounds[0].clone(),
            ],
        });
        let topo = Mesh2D::new(1, 2);
        let o = Oracle::new(w, Arc::new(topo), Costs::default());
        o.task_done();
        o.task_done();
        assert_eq!(o.advance_round(), Some(1));
        assert_eq!(o.outstanding(), 3);
        for _ in 0..3 {
            o.task_done();
        }
        assert_eq!(o.advance_round(), None);
    }

    #[test]
    fn nonlocal_counting() {
        let mut exec = NodeExec::default();
        let inst = TaskInstance::new(0, 3);
        exec.record(&inst, 3);
        exec.record(&inst, 1);
        assert_eq!(exec.executed, 2);
        assert_eq!(exec.nonlocal_executed, 1);
    }

    #[test]
    fn a_task_instance_is_two_words_of_u32() {
        assert_eq!(std::mem::size_of::<TaskInstance>(), 8);
        let widest = u32::MAX as NodeId;
        assert_eq!(TaskInstance::new(7, widest).origin(), widest);
    }

    #[test]
    #[should_panic(expected = "task origin node 4294967296 is past u32::MAX")]
    fn an_origin_past_u32_panics() {
        TaskInstance::new(0, u32::MAX as NodeId + 1);
    }

    #[test]
    #[should_panic(expected = "tasks spawned on one node is past u32::MAX")]
    fn a_per_node_counter_past_u32_panics() {
        let mut exec = NodeExec {
            spawned: u32::MAX - 1,
            ..NodeExec::default()
        };
        count_up(&mut exec.spawned, 1, "tasks spawned");
        count_up(&mut exec.spawned, 1, "tasks spawned");
    }

    /// Every task of a round is read from the round the oracle is in:
    /// the same ids resolve to the next round's grains once it opens.
    #[test]
    fn grains_and_children_come_from_the_current_round() {
        let mut second = TaskForest::new();
        let root = second.add_root(40);
        second.add_child(root, 50);
        let w = Arc::new(Workload {
            name: "two-round".into(),
            rounds: vec![flat_uniform(1, 9, 9, 0).rounds[0].clone(), second],
        });
        let o = Oracle::new(w, Arc::new(Mesh2D::new(1, 2)), Costs::default());
        let inst = o.seed_for(0, 0).pop().expect("node 0 owns round 0's root");
        assert_eq!((inst.task, o.grain(&inst)), (0, 9));
        assert!(o.children_of(&inst, 1).is_empty());
        assert!(o.task_done());
        assert_eq!(o.advance_round(), Some(1));
        let inst = o.seed_for(0, 1).pop().expect("node 0 owns round 1's root");
        assert_eq!((inst.task, o.grain(&inst)), (0, 40));
        let kids = o.children_of(&inst, 1);
        assert_eq!(kids, [TaskInstance::new(1, 1)]);
        assert_eq!(o.grain(&kids[0]), 50);
    }
}
