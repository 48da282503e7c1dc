//! The live execution backend: real OS threads, real work, and a
//! fabric engineered so the scheduler's own chatter stays cheap — the
//! same policy kernel as the simulator.
//!
//! `rips-desim` runs every scheduler in *virtual* time on one thread;
//! this crate runs the identical [`BalancerPolicy`] implementations as
//! an SPMD program over genuine concurrency: one OS thread per node
//! and a wall-clock monotonic [`Clock`] stamping trace events. The
//! paper's protocols run for real here — ANY idle detection as an
//! initiator broadcast with phase-index dedup, ALL as tree ready/init,
//! packed task migration, and the system-phase barrier — because the
//! policies are *the same code*, dispatched through `rips-runtime`'s
//! [`ExecCtx`] seam instead of the simulator's `Ctx`.
//!
//! # The fast path
//!
//! The paper's claim only holds if scheduler communication is near
//! zero-cost, so the backend's hot loop is built around four ideas
//! (see DESIGN §8 for the full protocol):
//!
//! * **batching** ([`transport::Outbox`]): every message a dispatch
//!   handler emits is binned per destination and flushed as one
//!   [`Packet`] per touched edge when the handler returns;
//! * **sharded SPSC rings** ([`ring`]): each directed edge has its own
//!   lock-free ring with park/unpark wakeups ([`transport`]);
//! * **per-node timers** ([`wheel::TimerWheel`], one `(deadline, seq)`
//!   heap), looked at only when the node's fabric is empty;
//! * **snapshot reads** for shared state: the grain table and hop
//!   tables are immutable `Arc`s and the [`Oracle`]'s round counters
//!   are plain atomics — no locks on the per-task path. (RIPS's load
//!   reports and plan sit behind one mutex, taken twice per node per
//!   system phase.)
//!
//! # What is and is not shared with the simulator
//!
//! Shared unchanged: the policy implementations, the kernel dispatch
//! (`dispatch_start`/`dispatch_message`/`dispatch_timer`), the
//! [`Oracle`]'s round accounting, and the trace event vocabulary.
//! Replaced: virtual time becomes [`WallClock`] µs, modelled `compute`
//! charges become no-ops (live overheads are the real code path), and
//! [`ExecCtx::execute_grain`] actually runs the application closure via
//! a [`GrainRunner`] instead of charging `grain_us` of virtual time.
//!
//! # Determinism
//!
//! A live run is *not* deterministic: message interleaving follows the
//! OS scheduler. What is invariant — and what the cross-backend tests
//! pin — is everything the paper's Theorem 1 protects: every task
//! executes exactly once (conservation), the solution count and the
//! order-independent execution checksum equal the simulator's, and the
//! audited trace invariants (barrier pairing, phase monotonicity) hold.
//! Timings, migration patterns, and phase counts may differ run to run.

#![deny(
    missing_docs,
    unreachable_pub,
    reason = "RIPS-L005: every public item is documented, and `pub` means reachable"
)]

#[allow(
    unsafe_code,
    reason = "RIPS-L004: SPSC ring slots are UnsafeCell<MaybeUninit>; non-Clone &mut \
              handles plus the head/tail acquire/release protocol make every slot access \
              data-race-free (safety argument in the module docs and on each block)"
)]
pub mod ring;
pub mod transport;
pub mod watchdog;
pub mod wheel;

use std::sync::Arc;
use std::time::{Duration, Instant};

use rips_desim::{Time, WorkKind};
use rips_runtime::{
    check_conservation, dispatch_message, dispatch_start, dispatch_timer, BalancerPolicy, Costs,
    ExecCtx, Kernel, KernelMsg, Oracle, TaskInstance, VerifyError,
};
use rips_taskgraph::Workload;
use rips_topology::{Mesh2D, NodeId};
use rips_trace::metrics_rt::{Counter, Gauge, Histo};
use rips_trace::{Clock, EventKind, Telemetry, TraceEvent};

pub use transport::{Outbox, Packet};
pub use watchdog::{StallDetector, StallReport, Watchdog, WatchdogOpts};
pub use wheel::TimerWheel;

use transport::{NodeRx, NodeTx, Recv};

/// Monotonic wall-clock time source, anchored at construction.
///
/// It reads `Instant`, which `crates/live/clippy.toml` leaves out of
/// RIPS-L002's ban: live runs measure real elapsed time. Pass
/// the *same* instance to [`LiveOpts::clock`] and to
/// [`rips_trace::with_metrics_clocked`] so trace timestamps, the
/// backend's `now()` and the dispatch-profile histograms describe one
/// timeline.
pub struct WallClock {
    start: Instant,
}

impl WallClock {
    /// A clock whose µs count starts now.
    pub fn new() -> Self {
        WallClock {
            start: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

/// What actually executing one task's grain produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GrainResult {
    /// Order-independent fingerprint of the work (summed wrapping over
    /// all executed tasks and compared across backends — it proves both
    /// backends executed the same task multiset with the same results).
    pub checksum: u64,
    /// Solutions found by this grain (queens placements, puzzle goals).
    pub solutions: u64,
}

/// Executes the real application work behind a [`TaskInstance`].
///
/// The live backend calls this once per executed task, with the round
/// the kernel is in (an instance carries no round: see
/// [`rips_runtime::TaskInstance`]). Implementations map `(round, task)`
/// back to the app-level closure (a queens subtree,
/// a puzzle bounded DFS, an MD interaction group) — `rips-apps` builds
/// such tables alongside its workloads.
pub trait GrainRunner: Send + Sync {
    /// Runs the grain of `inst`, a task of round `round`.
    fn run(&self, round: u32, inst: &TaskInstance) -> GrainResult;
}

/// Runner for synthetic workloads with no application behind them:
/// every grain is a no-op with checksum 0.
pub struct NullRunner;

impl GrainRunner for NullRunner {
    fn run(&self, _round: u32, _inst: &TaskInstance) -> GrainResult {
        GrainResult::default()
    }
}

/// How the live backend realises a task's modelled `grain_us`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrainMode {
    /// Run only the real application closure. Honest CPU work; wall
    /// clock speedup then depends on the host's physical parallelism.
    Compute,
    /// Run the closure, then *also* occupy the node for the task's
    /// modelled `grain_us` (scaled by [`LiveOpts::timed_scale`]) via a
    /// sleep. This emulates the paper's grain durations: concurrency
    /// is visible even on a host with fewer cores than nodes, because
    /// sleeping nodes overlap.
    Timed,
}

/// Options for a live run.
pub struct LiveOpts {
    /// Grain realisation mode.
    pub mode: GrainMode,
    /// Scale factor applied to `grain_us` in [`GrainMode::Timed`]
    /// (e.g. 0.1 = sleep a tenth of the modelled grain).
    pub timed_scale: f64,
    /// Application closures behind the task graph.
    pub runner: Arc<dyn GrainRunner>,
    /// Time source. Defaults to a fresh [`WallClock`]; pass the clock
    /// given to [`rips_trace::with_metrics_clocked`] when profiling so
    /// both share one origin.
    pub clock: Option<Arc<dyn Clock>>,
}

impl Default for LiveOpts {
    fn default() -> Self {
        LiveOpts {
            mode: GrainMode::Compute,
            timed_scale: 1.0,
            runner: Arc::new(NullRunner),
            clock: None,
        }
    }
}

/// Outcome of one live run — the cross-backend comparable counters
/// plus wall-clock duration.
#[derive(Debug, Clone)]
pub struct LiveOutcome {
    /// Wall-clock duration of the run (µs).
    pub wall_us: u64,
    /// Tasks executed per node.
    pub executed: Vec<u64>,
    /// Tasks executed off their origin node, total.
    pub nonlocal: u64,
    /// Wrapping sum of per-task [`GrainResult::checksum`] over every
    /// executed task (order-independent).
    pub checksum: u64,
    /// Total solutions found by executed grains.
    pub solutions: u64,
    /// Total modelled grain µs executed (for efficiency estimates).
    pub grain_us: u64,
    /// System phases (RIPS; 0 for the baselines). Filled by the caller
    /// from the policy fleet, like the simulator path does.
    pub system_phases: u32,
}

impl LiveOutcome {
    /// Outcome of running nothing on `n` nodes.
    pub fn empty(n: usize) -> Self {
        LiveOutcome {
            wall_us: 0,
            executed: vec![0; n],
            nonlocal: 0,
            checksum: 0,
            solutions: 0,
            grain_us: 0,
            system_phases: 0,
        }
    }

    /// Total tasks executed.
    pub fn total_executed(&self) -> u64 {
        self.executed.iter().sum()
    }

    /// Sanity check: every task of the workload ran exactly once
    /// (see [`check_conservation`]).
    pub fn verify_complete(&self, workload: &Workload) -> Result<(), VerifyError> {
        check_conservation(workload, self.total_executed())
    }
}

/// Per-node execution context: the [`ExecCtx`] the kernel dispatch
/// sees on a live thread.
struct LiveCtx<'a, M> {
    clock: &'a dyn Clock,
    me: NodeId,
    n: usize,
    seed: u64,
    outbox: &'a mut Outbox<M>,
    wheel: &'a mut TimerWheel,
    halted: &'a mut bool,
    mode: GrainMode,
    timed_scale: f64,
    runner: &'a dyn GrainRunner,
    checksum: &'a mut u64,
    solutions: &'a mut u64,
    grain_us: &'a mut u64,
    /// The run's telemetry (disabled = one dead branch per tap).
    tel: &'a Telemetry,
    /// Nanoseconds spent inside `execute_grain` during the current
    /// dispatch round; the node loop resets it per dispatch and
    /// subtracts it from the round total to get "grain setup" —
    /// the protocol bookkeeping the ROADMAP asks to be measured.
    grain_ns: &'a mut u64,
}

impl<M: Clone> ExecCtx<M> for LiveCtx<'_, M> {
    fn now(&self) -> Time {
        self.clock.now_us()
    }
    fn me(&self) -> NodeId {
        self.me
    }
    fn num_nodes(&self) -> usize {
        self.n
    }
    fn seed(&self) -> u64 {
        self.seed
    }
    fn compute(&mut self, _dur: Time, _kind: WorkKind) {
        // Modelled CPU charges describe the simulator's cost model; on
        // a live node every overhead is the real code path it runs.
    }
    fn send(&mut self, to: NodeId, msg: M, _bytes: usize) {
        self.tel.add_at(self.me, Counter::MsgsSent, 1);
        self.outbox.push(to, msg);
    }
    fn send_all(&mut self, msg: M, bytes: usize) {
        for to in 0..self.n {
            if to != self.me {
                self.send(to, msg.clone(), bytes);
            }
        }
    }
    fn signal_all(&mut self, msg: M) {
        self.send_all(msg, 0);
    }
    fn set_timer(&mut self, delay: Time, tag: u64) {
        self.wheel.set(self.clock.now_us(), delay, tag);
    }
    fn halt(&mut self) {
        *self.halted = true;
    }
    fn execute_grain(&mut self, round: u32, inst: &TaskInstance, grain_us: Time) {
        let t0 = self.tel.now_ns();
        let r = self.runner.run(round, inst);
        *self.checksum = self.checksum.wrapping_add(r.checksum);
        *self.solutions += r.solutions;
        *self.grain_us += grain_us;
        if self.mode == GrainMode::Timed {
            let us = (grain_us as f64 * self.timed_scale) as u64;
            if us > 0 {
                std::thread::sleep(Duration::from_micros(us));
            }
        }
        if let Some(t0) = t0 {
            // Grain time includes the Timed-mode occupancy sleep: it
            // is the node's unavailability, which is what "grain
            // execute" means to the dispatch breakdown.
            let dt = self.tel.now_ns().unwrap_or(t0).saturating_sub(t0);
            self.tel.observe_at(self.me, Histo::GrainExecNs, dt);
            *self.grain_ns += dt;
        }
    }
}

/// What one node thread hands back when it exits.
struct NodeReport<P> {
    spawned: u64,
    executed: u64,
    nonlocal: u64,
    checksum: u64,
    solutions: u64,
    grain_us: u64,
    policy: P,
}

/// The next thing a node loop should do, decided before any `&mut`
/// context is constructed.
enum Step<M> {
    Pkt(Packet<M>),
    Timer(u64),
    Halt,
}

#[allow(
    clippy::too_many_arguments,
    reason = "a node thread's whole start state arrives here once, moved in by the spawner"
)]
fn node_loop<P: BalancerPolicy>(
    me: NodeId,
    n: usize,
    mut kernel: Kernel,
    mut policy: P,
    mut tx: NodeTx<KernelMsg<P::Msg>>,
    mut rx: NodeRx<KernelMsg<P::Msg>>,
    clock: Arc<dyn Clock>,
    runner: Arc<dyn GrainRunner>,
    mode: GrainMode,
    timed_scale: f64,
    seed: u64,
) -> NodeReport<P> {
    // Register for wakeups before anything can be sent to us; the
    // guard marks us exited (even on panic) so no peer spins forever.
    let _guard = rx.register();
    let mut wheel = TimerWheel::new(clock.now_us());
    let mut outbox: Outbox<KernelMsg<P::Msg>> = Outbox::new(n);
    let mut checksum = 0u64;
    let mut solutions = 0u64;
    let mut grain_us = 0u64;
    let mut grain_ns = 0u64;
    let mut halted = false;
    let tel = kernel.oracle.tel.clone();
    let trace_batches = tel.wants(EventKind::BatchSend);
    let trace_rings = tel.wants(EventKind::RingDepth);
    // Metrics go to shard `me`. When a clocked registry is installed
    // the loop attributes every dispatch round's nanoseconds to {grain
    // setup, grain execute, transport send/recv, timer wheel, park};
    // trace emission times itself inside `Telemetry::emit`. `prof`
    // gates the clock reads, so an unmetered run pays one dead branch
    // per tap and reads no clocks.
    let prof = tel.now_ns().is_some();
    let metered = tel.metered();

    macro_rules! ctx {
        () => {
            LiveCtx {
                clock: clock.as_ref(),
                me,
                n,
                seed,
                outbox: &mut outbox,
                wheel: &mut wheel,
                halted: &mut halted,
                mode,
                timed_scale,
                runner: runner.as_ref(),
                checksum: &mut checksum,
                solutions: &mut solutions,
                grain_us: &mut grain_us,
                tel: &tel,
                grain_ns: &mut grain_ns,
            }
        };
    }

    // One kernel dispatch, profiled: the round's total wall time lands
    // in DispatchRoundNs, and total minus the grain time accumulated by
    // `execute_grain` lands in GrainSetupNs — the per-dispatch overhead
    // the ROADMAP asks to be measured rather than guessed.
    macro_rules! dispatch_profiled {
        ($call:expr) => {
            if prof {
                grain_ns = 0;
                let t0 = tel.now_ns().unwrap_or(0);
                $call;
                let dt = tel.now_ns().unwrap_or(t0).saturating_sub(t0);
                tel.observe_at(me, Histo::DispatchRoundNs, dt);
                tel.observe_at(me, Histo::GrainSetupNs, dt.saturating_sub(grain_ns));
            } else {
                $call;
            }
            tel.add_at(me, Counter::DispatchRounds, 1);
        };
    }

    // Flush the outbox: one packet per touched destination, emitted at
    // every dispatch boundary. Usually empty — `is_empty` gates all
    // work, so the per-task cost of batching is one Vec peek.
    macro_rules! flush {
        () => {
            if !outbox.is_empty() {
                let send_t0 = if prof { tel.now_ns() } else { None };
                let mut packets = 0u64;
                if trace_batches {
                    let t = clock.now_us();
                    outbox.flush(me, &mut tx, |to, len| {
                        packets += 1;
                        tel.emit(EventKind::BatchSend, t, me, || TraceEvent::BatchSend {
                            to,
                            msgs: len as u32,
                        })
                    });
                } else {
                    outbox.flush(me, &mut tx, |_, _| packets += 1);
                }
                tel.add_at(me, Counter::PacketsSent, packets);
                if let Some(t0) = send_t0 {
                    let dt = tel.now_ns().unwrap_or(t0).saturating_sub(t0);
                    tel.observe_at(me, Histo::TransportSendNs, dt);
                }
            }
        };
    }

    dispatch_profiled!(dispatch_start(&mut policy, &mut kernel, &mut ctx!()));
    flush!();

    while !halted {
        // Fabric first (so a busy exec loop still sees inits and task
        // arrivals promptly), then due timers, then park until one or
        // the other. EXEC timers are armed with delay 0, so an empty
        // fabric never sleeps past queued work.
        let recv_t0 = if prof { tel.now_ns() } else { None };
        let polled = rx.try_recv();
        if let Some(t0) = recv_t0 {
            let dt = tel.now_ns().unwrap_or(t0).saturating_sub(t0);
            tel.observe_at(me, Histo::TransportRecvNs, dt);
        }
        let step = match polled {
            Recv::Packet(p) => Step::Pkt(p),
            Recv::Halt => Step::Halt,
            Recv::Empty => {
                let wheel_t0 = if prof { tel.now_ns() } else { None };
                let now = clock.now_us();
                let due = wheel.pop_due(now);
                let deadline = if due.is_none() {
                    wheel.next_deadline()
                } else {
                    None
                };
                if let Some(t0) = wheel_t0 {
                    let dt = tel.now_ns().unwrap_or(t0).saturating_sub(t0);
                    tel.observe_at(me, Histo::TimerWheelNs, dt);
                }
                match due {
                    Some(tag) => Step::Timer(tag),
                    None => {
                        let park_t0 = if prof { tel.now_ns() } else { None };
                        let parked = rx.recv_wait(deadline, clock.as_ref());
                        if let Some(t0) = park_t0 {
                            let dt = tel.now_ns().unwrap_or(t0).saturating_sub(t0);
                            tel.observe_at(me, Histo::ParkNs, dt);
                        }
                        match parked {
                            Recv::Packet(p) => Step::Pkt(p),
                            Recv::Halt => Step::Halt,
                            Recv::Empty => continue,
                        }
                    }
                }
            }
        };
        match step {
            Step::Halt => break,
            Step::Pkt(p) => {
                if trace_rings || metered {
                    let depth = rx.occupancy();
                    tel.set_gauge_at(me, Gauge::RingDepth, depth);
                    if trace_rings {
                        tel.emit(EventKind::RingDepth, clock.now_us(), me, || {
                            TraceEvent::RingDepth {
                                depth: depth as u32,
                            }
                        });
                    }
                }
                let from = p.from;
                for msg in p.msgs {
                    dispatch_profiled!(dispatch_message(
                        &mut policy,
                        &mut kernel,
                        &mut ctx!(),
                        from,
                        msg
                    ));
                    if halted {
                        break;
                    }
                }
            }
            Step::Timer(tag) => {
                tel.add_at(me, Counter::TimerFires, 1);
                dispatch_profiled!(dispatch_timer(&mut policy, &mut kernel, &mut ctx!(), tag));
            }
        }
        flush!();
    }
    if halted {
        // This node's handler called `halt()` (it detected global
        // termination): flush stragglers, then wake everyone else out
        // of their parks/receives. Sends to exited nodes are no-ops.
        flush!();
        tx.broadcast_halt();
    }
    NodeReport {
        spawned: kernel.exec.spawned.into(),
        executed: kernel.exec.executed.into(),
        nonlocal: kernel.exec.nonlocal_executed.into(),
        checksum,
        solutions,
        grain_us,
        policy,
    }
}

/// Runs `workload` on `mesh.len()` OS threads under `policy` instances
/// built by `make` (one per node), returning the outcome and the final
/// policy states — the live counterpart of `rips_runtime::run_policy`.
///
/// Telemetry: if a sink is installed via [`rips_trace::with_sink`]
/// around this call, every node thread emits through it (the sink is
/// mutex-shared), stamped by [`LiveOpts::clock`]; a registry installed
/// via [`rips_trace::with_metrics_clocked`] with that same clock times
/// each node's dispatch rounds on the events' timeline.
pub fn run_live<P, F>(
    workload: Arc<Workload>,
    mesh: Mesh2D,
    costs: Costs,
    seed: u64,
    opts: LiveOpts,
    make: F,
) -> (LiveOutcome, Vec<P>)
where
    P: BalancerPolicy + Send,
    P::Msg: Send,
    F: FnMut(NodeId) -> P,
{
    let n = mesh.len();
    if workload.rounds.is_empty() {
        return (LiveOutcome::empty(n), Vec::new());
    }
    let clock: Arc<dyn Clock> = opts
        .clock
        .clone()
        .unwrap_or_else(|| Arc::new(WallClock::new()));
    let oracle = Oracle::new(Arc::clone(&workload), mesh, costs);
    let mut make = make;
    let fabric = transport::build::<KernelMsg<P::Msg>>(n);
    let started = clock.now_us();
    let mut reports: Vec<Option<NodeReport<P>>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = fabric
            .into_iter()
            .enumerate()
            .map(|(me, (tx, rx))| {
                let kernel = Kernel::new(me, oracle.clone());
                let policy = make(me);
                let clock = Arc::clone(&clock);
                let runner = Arc::clone(&opts.runner);
                let (mode, timed_scale) = (opts.mode, opts.timed_scale);
                scope.spawn(move || {
                    node_loop(
                        me,
                        n,
                        kernel,
                        policy,
                        tx,
                        rx,
                        clock,
                        runner,
                        mode,
                        timed_scale,
                        seed,
                    )
                })
            })
            .collect();
        for (me, h) in handles.into_iter().enumerate() {
            reports[me] = Some(h.join().expect("live node thread panicked"));
        }
    });
    let ended = clock.now_us();
    let mut out = LiveOutcome::empty(n);
    out.wall_us = ended.saturating_sub(started);
    let mut policies = Vec::with_capacity(n);
    for (me, rep) in reports.into_iter().enumerate() {
        let rep = rep.expect("every node reported");
        oracle.tel.emit(EventKind::NodeTotals, ended, me, || {
            TraceEvent::NodeTotals {
                spawned: rep.spawned,
                executed: rep.executed,
            }
        });
        out.executed[me] = rep.executed;
        out.nonlocal += rep.nonlocal;
        out.checksum = out.checksum.wrapping_add(rep.checksum);
        out.solutions += rep.solutions;
        out.grain_us += rep.grain_us;
        policies.push(rep.policy);
    }
    (out, policies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rips_taskgraph::flat_uniform;

    /// Runner whose checksum encodes the task id, so double or missed
    /// executions shift the sum.
    struct IdRunner;
    impl GrainRunner for IdRunner {
        fn run(&self, _round: u32, inst: &TaskInstance) -> GrainResult {
            GrainResult {
                checksum: (inst.task as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                solutions: 1,
            }
        }
    }

    fn expected_checksum(tasks: u64) -> u64 {
        (0..tasks).fold(0u64, |acc, t| {
            acc.wrapping_add((t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        })
    }

    fn id_opts() -> LiveOpts {
        LiveOpts {
            runner: Arc::new(IdRunner),
            ..LiveOpts::default()
        }
    }

    #[test]
    fn wall_clock_is_monotonic_and_wall_kind() {
        let c = WallClock::new();
        let (a, ns, b) = (c.now_us(), c.now_ns(), c.now_us());
        assert!(a <= ns / 1000 && ns / 1000 <= b, "{a} µs, {ns} ns, {b} µs");
    }

    #[test]
    fn random_policy_runs_live_and_conserves_tasks() {
        let w = Arc::new(flat_uniform(40, 5, 10, 7));
        let (out, _) = run_live(
            Arc::clone(&w),
            Mesh2D::near_square(4),
            Costs::default(),
            3,
            id_opts(),
            rips_core::random_policy,
        );
        out.verify_complete(&w).expect("conservation");
        assert_eq!(out.total_executed(), 40);
        assert_eq!(out.solutions, 40);
        assert_eq!(out.checksum, expected_checksum(40));
    }

    #[test]
    fn empty_workload_short_circuits() {
        let w = Arc::new(Workload {
            name: "empty".into(),
            rounds: Vec::new(),
        });
        let (out, ps) = run_live(
            w,
            Mesh2D::near_square(2),
            Costs::default(),
            0,
            LiveOpts::default(),
            rips_core::random_policy,
        );
        assert_eq!(out.total_executed(), 0);
        assert!(ps.is_empty());
    }

    #[test]
    fn multi_round_workload_completes_live() {
        let one = flat_uniform(12, 2, 4, 1).rounds[0].clone();
        let w = Arc::new(Workload {
            name: "three-round".into(),
            rounds: vec![one.clone(), one.clone(), one],
        });
        let (out, _) = run_live(
            Arc::clone(&w),
            Mesh2D::near_square(4),
            Costs::default(),
            5,
            id_opts(),
            rips_core::random_policy,
        );
        out.verify_complete(&w).expect("conservation over rounds");
        assert_eq!(out.total_executed(), 36);
    }

    #[test]
    fn rips_runs_live_with_fleet() {
        use rips_core::{Machine, RipsConfig, RipsFleet};
        let w = Arc::new(flat_uniform(30, 5, 10, 2));
        let fleet = RipsFleet::new(RipsConfig::default(), Machine::Mesh(Mesh2D::near_square(4)));
        let (out, policies) = run_live(
            Arc::clone(&w),
            fleet.mesh(),
            Costs::default(),
            1,
            LiveOpts::default(),
            |me| fleet.make(me),
        );
        drop(policies);
        let (phases, _logs) = fleet.finish();
        out.verify_complete(&w).expect("conservation");
        assert!(phases >= 1, "RIPS opens with a system phase");
    }
}
