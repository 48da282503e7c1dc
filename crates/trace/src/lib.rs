//! Structured event tracing for the RIPS reproduction.
//!
//! The paper's whole argument decomposes parallel time into user work,
//! system overhead, and idle time (Table I's `T`/`Th`/`Ti`) and reasons
//! about *phase-level* behaviour: how long system phases take, how many
//! tasks migrate, how fast the ALL/ANY idle-detection protocols fire.
//! The simulator's aggregate counters (`RunStats`) can say *that* one
//! scheduler beats another; this crate records *why*, as a stream of
//! typed [`TraceEvent`]s emitted by the engine, the policy kernel, and
//! the RIPS phase machinery.
//!
//! # Architecture
//!
//! * A [`TraceSink`] receives `(time, node, event)` records. The
//!   canonical sink is [`TraceBuffer`], which just collects them. A
//!   sink states which [`EventKind`]s it consumes
//!   ([`TraceSink::interest`]); kinds it does not ask for are never
//!   built, stamped or delivered.
//! * A [`Telemetry`] is the cheap cloneable handle held by the
//!   instrumented layers, one per run. It caches the installed sink's
//!   [`Interest`] (empty when no sink is installed), so every
//!   [`Telemetry::emit`] of a kind nobody wants is a single branch on
//!   that word — the event payload is built inside a closure that is
//!   never evaluated, so tracing is free when off (the golden tests pin
//!   this bit-for-bit). The same handle carries the run's
//!   [`metrics_rt`] registry.
//! * [`with_sink`] and [`with_metrics`] install a sink or a registry
//!   for the duration of a closure in one thread-local slot, so *any*
//!   scheduler run — including ones reached through the scheduler
//!   registry's type-erased constructors — can be observed without
//!   threading a parameter through every signature.
//! * [`TraceBuffer::chrome_json`] turns a recorded stream into a Chrome
//!   trace-event / Perfetto JSON file. [`PhaseReport`] is a sink of its
//!   own: it folds the per-phase anatomy as the run goes and keeps no
//!   event.
//! * [`validate`] checks well-formedness: balanced and properly nested
//!   begin/end spans, per-node monotone span timestamps, and strictly
//!   increasing system-phase indices. The exporter and the report pair
//!   spans under the same rules.
//!
//! This crate is dependency-free (it sits *below* `rips-desim` in the
//! crate graph), so it defines its own aliases for simulated time and
//! node ids; both match the workspace-wide conventions.

#![forbid(unsafe_code)]
#![deny(
    missing_docs,
    unreachable_pub,
    reason = "RIPS-L005: every public item is documented, and `pub` means reachable"
)]

mod chrome;
pub mod flight;
mod json;
pub mod metrics_rt;
mod report;
mod spans;

pub use flight::{FlightRecorder, SharedFlight};
pub use json::Json;
pub use metrics_rt::MetricsRegistry;
pub use report::{PhaseReport, PhaseRow};
pub use spans::{validate, TraceCheck};

use std::cell::RefCell;
use std::sync::{Arc, Mutex};

use metrics_rt::{Counter, Gauge, Histo};

/// Time in microseconds: virtual in the simulator (matches
/// `rips_desim::Time`), read from a [`Clock`] on the live backend.
pub type Time = u64;

/// Node identifier (matches `rips_topology::NodeId`).
pub type NodeId = usize;

/// A monotonic time source. The simulator needs none — virtual time
/// travels with every event. The live backend paces execution and
/// stamps its events with one, and [`with_metrics_clocked`] times the
/// registry's duration histograms with it. The `Instant`-backed
/// implementation lives in `rips-live`, whose `clippy.toml` leaves out
/// the root one's RIPS-L002 ban on wall-clock time; tests use
/// [`metrics_rt::ManualNs`].
pub trait Clock: Send + Sync {
    /// Nanoseconds elapsed since this clock's epoch.
    fn now_ns(&self) -> u64;

    /// Microseconds elapsed since this clock's epoch (truncated).
    fn now_us(&self) -> Time {
        self.now_ns() / 1000
    }
}

/// Whether a phase span covers user execution or the scheduling system
/// phase — the paper's fundamental dichotomy ("computation proceeds in
/// alternating user phases and system phases").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseKind {
    /// User phase: nodes execute application tasks.
    User,
    /// System phase: execution is frozen while the scheduler runs.
    System,
}

impl PhaseKind {
    /// Display name used by exporters.
    pub fn name(self) -> &'static str {
        match self {
            PhaseKind::User => "user",
            PhaseKind::System => "system",
        }
    }
}

/// Sub-stage of a system phase, in protocol order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SysStage {
    /// From a node's local transfer condition turning true to the node
    /// actually entering the system phase — the latency of the ANY/ALL
    /// (or periodic-poll) idle-detection protocol as seen by that node.
    IdleDetect,
    /// From entering the system phase to the node's load being
    /// reported into the collective.
    LoadCollect,
    /// The parallel scheduling algorithm (MWA/TWA/DEM) computing the
    /// transfer plan — recorded on the plan-computing node only.
    Plan,
    /// Executing this node's share of the plan: draining the RTS queue
    /// and packing/sending migrated tasks.
    Migrate,
}

impl SysStage {
    /// Display name used by exporters.
    pub fn name(self) -> &'static str {
        match self {
            SysStage::IdleDetect => "idle-detect",
            SysStage::LoadCollect => "load-collect",
            SysStage::Plan => "plan",
            SysStage::Migrate => "migrate",
        }
    }
}

/// One typed trace event. The emitting node and timestamp travel beside
/// the event (see [`TraceSink::record`]), so events carry only what the
/// node itself cannot be assumed to know.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A user or system phase opens on this node.
    PhaseBegin {
        /// User or system.
        kind: PhaseKind,
        /// Phase index (RIPS phase counter; user phase `p` follows
        /// system phase `p`).
        index: u32,
    },
    /// The matching phase closes.
    PhaseEnd {
        /// User or system.
        kind: PhaseKind,
        /// Phase index.
        index: u32,
    },
    /// A system-phase sub-stage opens on this node.
    StageBegin {
        /// Which sub-stage.
        stage: SysStage,
        /// The system phase it belongs to.
        phase: u32,
    },
    /// The matching sub-stage closes.
    StageEnd {
        /// Which sub-stage.
        stage: SysStage,
        /// The system phase it belongs to.
        phase: u32,
    },
    /// One task executed. Emitted at the start of the task's grain
    /// (dispatch overhead already charged), so exporters can draw the
    /// execution as a complete span of length `grain_us`.
    TaskExec {
        /// Task id within its round's forest.
        task: u64,
        /// Round index.
        round: u32,
        /// Node that generated the task.
        origin: NodeId,
        /// Topology hops between origin and executing node (0 = local).
        hops: u32,
        /// Execution time of the grain (µs).
        grain_us: Time,
        /// Dispatch overhead charged before the grain (µs).
        dispatch_us: Time,
    },
    /// Tasks created on this node (block-distributed round roots or
    /// children of a completed task).
    Spawn {
        /// Round the tasks belong to.
        round: u32,
        /// How many were created.
        count: u32,
    },
    /// A migration batch departed toward `to`.
    MigrateOut {
        /// Destination node.
        to: NodeId,
        /// Tasks in the batch.
        count: u32,
    },
    /// A migration batch from `from` was accepted into the queue.
    MigrateIn {
        /// Source node.
        from: NodeId,
        /// Tasks in the batch.
        count: u32,
    },
    /// This node announced the round barrier (it completed the round's
    /// last task, or — under RIPS — detected termination in an empty
    /// system phase).
    Barrier {
        /// The completed round.
        round: u32,
    },
    /// A new round begins on this node.
    RoundBegin {
        /// The opening round.
        round: u32,
    },
    /// Ready-queue depth sample, taken after a queue transition.
    QueueDepth {
        /// Queue length after the transition.
        depth: u32,
    },
    /// The load this node reported into a system phase (under the
    /// configured load metric: task count or estimated weight).
    LoadSample {
        /// Reported load.
        load: i64,
    },
    /// The engine registered an outgoing message (emitted at effect
    /// application, so its timestamp may precede span events the
    /// handler emitted later — instants are exempt from the per-node
    /// monotonicity check).
    MsgSend {
        /// Destination node.
        to: NodeId,
        /// Payload bytes.
        bytes: u64,
        /// Route length in hops.
        hops: u32,
    },
    /// The live backend flushed one batched packet toward `to`
    /// (instant; the batch-size distribution measures how well the
    /// outbox coalesces protocol chatter).
    BatchSend {
        /// Destination node.
        to: NodeId,
        /// Kernel messages coalesced into the packet.
        msgs: u32,
    },
    /// Occupancy sample of a live node's receive rings, taken as a
    /// packet is drained (ring transport only; counts packets still
    /// queued across all source rings).
    RingDepth {
        /// Packets queued across this node's receive rings.
        depth: u32,
    },
    /// A tenant handed one job to the serve layer's admission
    /// controller (serve timeline; emitted on node 0).
    JobSubmit {
        /// Submitting tenant.
        tenant: u32,
        /// Serve-wide job id (submission order).
        job: u64,
    },
    /// Admission rejected the job — pending bound or tenant quota
    /// exceeded. A shed job must never later dispatch.
    JobShed {
        /// Submitting tenant.
        tenant: u32,
        /// Serve-wide job id.
        job: u64,
    },
    /// The fairness layer handed the job to the fleet. Until the
    /// matching [`TraceEvent::JobComplete`], every task event belongs
    /// to this job — windows never overlap.
    JobDispatch {
        /// Owning tenant.
        tenant: u32,
        /// Serve-wide job id.
        job: u64,
        /// Tasks the job's workload announces (the per-job
        /// conservation ground truth).
        tasks: u64,
    },
    /// The fleet finished the job and the serve layer recorded its
    /// latency.
    JobComplete {
        /// Owning tenant.
        tenant: u32,
        /// Serve-wide job id.
        job: u64,
        /// Tasks the backend reports having executed.
        executed: u64,
    },
    /// End-of-run summary of one node's kernel counters, emitted once
    /// per node by each backend where it reads them into the run's
    /// outcome. Opt-in ([`Interest::EVENTS`] leaves it out): it lets a
    /// sink prove task conservation without receiving a record per
    /// task.
    NodeTotals {
        /// Tasks created on this node over the whole run.
        spawned: u64,
        /// Tasks this node executed over the whole run.
        executed: u64,
    },
}

/// What a [`TraceEvent`] is about, at the granularity sinks subscribe
/// to: begin/end pairs share a kind, and phase spans split by
/// [`PhaseKind`] so a sink can follow system phases without paying for
/// the user phases between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// `PhaseBegin`/`PhaseEnd` of a user phase.
    UserPhase,
    /// `PhaseBegin`/`PhaseEnd` of a system phase.
    SystemPhase,
    /// `StageBegin`/`StageEnd`.
    Stage,
    /// [`TraceEvent::TaskExec`].
    TaskExec,
    /// [`TraceEvent::Spawn`].
    Spawn,
    /// [`TraceEvent::MigrateOut`].
    MigrateOut,
    /// [`TraceEvent::MigrateIn`].
    MigrateIn,
    /// [`TraceEvent::Barrier`].
    Barrier,
    /// [`TraceEvent::RoundBegin`].
    RoundBegin,
    /// [`TraceEvent::QueueDepth`].
    QueueDepth,
    /// [`TraceEvent::LoadSample`].
    LoadSample,
    /// [`TraceEvent::MsgSend`].
    MsgSend,
    /// [`TraceEvent::BatchSend`].
    BatchSend,
    /// [`TraceEvent::RingDepth`].
    RingDepth,
    /// The serve timeline: `JobSubmit`/`JobShed`/`JobDispatch`/
    /// `JobComplete`.
    Job,
    /// [`TraceEvent::NodeTotals`] — the one kind outside
    /// [`Interest::EVENTS`], which is "every kind declared before this
    /// one": keep it last.
    NodeTotals,
}

impl TraceEvent {
    /// The kind sinks subscribe to this event under.
    pub fn kind(&self) -> EventKind {
        match self {
            TraceEvent::PhaseBegin { kind, .. } | TraceEvent::PhaseEnd { kind, .. } => match kind {
                PhaseKind::User => EventKind::UserPhase,
                PhaseKind::System => EventKind::SystemPhase,
            },
            TraceEvent::StageBegin { .. } | TraceEvent::StageEnd { .. } => EventKind::Stage,
            TraceEvent::TaskExec { .. } => EventKind::TaskExec,
            TraceEvent::Spawn { .. } => EventKind::Spawn,
            TraceEvent::MigrateOut { .. } => EventKind::MigrateOut,
            TraceEvent::MigrateIn { .. } => EventKind::MigrateIn,
            TraceEvent::Barrier { .. } => EventKind::Barrier,
            TraceEvent::RoundBegin { .. } => EventKind::RoundBegin,
            TraceEvent::QueueDepth { .. } => EventKind::QueueDepth,
            TraceEvent::LoadSample { .. } => EventKind::LoadSample,
            TraceEvent::MsgSend { .. } => EventKind::MsgSend,
            TraceEvent::BatchSend { .. } => EventKind::BatchSend,
            TraceEvent::RingDepth { .. } => EventKind::RingDepth,
            TraceEvent::JobSubmit { .. }
            | TraceEvent::JobShed { .. }
            | TraceEvent::JobDispatch { .. }
            | TraceEvent::JobComplete { .. } => EventKind::Job,
            TraceEvent::NodeTotals { .. } => EventKind::NodeTotals,
        }
    }
}

/// A set of [`EventKind`]s: what a sink consumes. One machine word, so
/// the per-emit test ([`Telemetry::wants`]) is a mask and a branch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Interest(u32);

impl Interest {
    /// Nothing — what a [`Telemetry`] caches when no sink is installed.
    pub const NONE: Interest = Interest(0);

    /// Every per-event kind: all but the opt-in
    /// [`EventKind::NodeTotals`] summary. The [`TraceSink`] default, so
    /// a recording sink sees the stream it always saw.
    pub const EVENTS: Interest = Interest((1 << EventKind::NodeTotals as u32) - 1);

    /// The set holding exactly `kinds`.
    pub const fn of(kinds: &[EventKind]) -> Interest {
        let (mut bits, mut i) = (0, 0);
        while i < kinds.len() {
            bits |= 1 << kinds[i] as u32;
            i += 1;
        }
        Interest(bits)
    }

    /// Every kind in either set.
    pub const fn union(self, other: Interest) -> Interest {
        Interest(self.0 | other.0)
    }

    /// Whether `kind` is in the set.
    #[inline(always)]
    pub const fn contains(self, kind: EventKind) -> bool {
        self.0 & (1 << kind as u32) != 0
    }
}

/// Receiver of trace records.
pub trait TraceSink {
    /// One event at `time_us` on `node`.
    fn record(&mut self, time_us: Time, node: NodeId, event: TraceEvent);

    /// The kinds this sink consumes. Read once when the sink is
    /// installed ([`with_sink`]); emitters skip every other
    /// kind before building its payload or reading a clock for it, so
    /// the answer must not change while the sink is installed.
    fn interest(&self) -> Interest {
        Interest::EVENTS
    }
}

/// One recorded event, as stored by [`TraceBuffer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Virtual timestamp (µs).
    pub time: Time,
    /// Emitting node.
    pub node: NodeId,
    /// The event.
    pub event: TraceEvent,
}

/// The canonical sink: collects every record in emission order, for
/// the Chrome export ([`TraceBuffer::chrome_json`]) and the
/// [`validate`] checker.
#[derive(Debug, Default)]
pub struct TraceBuffer {
    /// Recorded events in emission order.
    pub records: Vec<Record>,
}

impl TraceBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Highest node id seen plus one (0 for an empty trace).
    pub fn num_nodes(&self) -> usize {
        self.records.iter().map(|r| r.node + 1).max().unwrap_or(0)
    }

    /// Renders the stream as Chrome trace-event JSON, loadable in
    /// Perfetto. `label` names the process (scheduler/app/machine);
    /// spans still open at `end_time`, the run's end (RIPS halts inside
    /// its final termination phase), are closed there, so every `B` has
    /// its `E`.
    pub fn chrome_json(&self, label: &str, end_time: Time) -> String {
        chrome::chrome_trace_json(self, label, end_time)
    }
}

impl TraceSink for TraceBuffer {
    fn record(&mut self, time_us: Time, node: NodeId, event: TraceEvent) {
        self.records.push(Record {
            time: time_us,
            node,
            event,
        });
    }
}

/// Fan-out sink: a record goes to each half that asked for its kind,
/// in order; the pair's interest is the union. Lets an online consumer
/// (e.g. the invariant auditor in `rips-audit`) ride beside a
/// [`TraceBuffer`] destined for exporters in a single [`with_sink`]
/// install — and nests, for wider fan-outs.
#[derive(Debug, Default)]
pub struct Tee<A, B>(
    /// First receiver (records first).
    pub A,
    /// Second receiver.
    pub B,
);

impl<A: TraceSink, B: TraceSink> TraceSink for Tee<A, B> {
    fn record(&mut self, time_us: Time, node: NodeId, event: TraceEvent) {
        let kind = event.kind();
        match (
            self.0.interest().contains(kind),
            self.1.interest().contains(kind),
        ) {
            (true, true) => {
                self.0.record(time_us, node, event.clone());
                self.1.record(time_us, node, event);
            }
            (true, false) => self.0.record(time_us, node, event),
            (false, true) => self.1.record(time_us, node, event),
            (false, false) => {}
        }
    }

    fn interest(&self) -> Interest {
        self.0.interest().union(self.1.interest())
    }
}

/// Either a sink or none: `None` asks for nothing, so an optional
/// consumer rides in a [`Tee`] without a second install.
impl<S: TraceSink> TraceSink for Option<S> {
    fn record(&mut self, time_us: Time, node: NodeId, event: TraceEvent) {
        if let Some(sink) = self {
            sink.record(time_us, node, event);
        }
    }

    fn interest(&self) -> Interest {
        self.as_ref().map_or(Interest::NONE, |s| s.interest())
    }
}

/// An installed sink and what it asked for: one allocation, shared by
/// every handle taken under the install.
struct Installed<S: ?Sized> {
    interest: Interest,
    sink: Mutex<S>,
}

type SinkHandle = Arc<Installed<dyn TraceSink + Send>>;

/// An installed metrics registry and its optional section-timing clock.
#[derive(Clone)]
struct Metrics {
    reg: Arc<MetricsRegistry>,
    clock: Option<Arc<dyn Clock>>,
}

thread_local! {
    /// The thread's telemetry: [`with_sink`] sets its sink half,
    /// [`with_metrics`] its metrics half, [`Telemetry::current`] clones
    /// it.
    static CURRENT: RefCell<Telemetry> = RefCell::new(Telemetry::default());
}

/// Swaps `half` into the thread's telemetry for the duration of `f` and
/// back out afterwards, even if `f` panics. Each install changes only
/// its own half, so sink and registry installs nest either way round.
fn swapped<T, R>(swap: fn(&mut Telemetry, &mut T), half: &mut T, f: impl FnOnce() -> R) -> R {
    struct Restore<'a, T> {
        swap: fn(&mut Telemetry, &mut T),
        half: &'a mut T,
    }
    impl<T> Drop for Restore<'_, T> {
        fn drop(&mut self) {
            CURRENT.with(|c| (self.swap)(&mut c.borrow_mut(), self.half));
        }
    }
    CURRENT.with(|c| swap(&mut c.borrow_mut(), half));
    let _restore = Restore { swap, half };
    f()
}

/// Un-poisons a sink mutex: if a node thread panicked mid-record, the
/// collected prefix is still the best evidence available.
fn lock_sink<'a>(
    sink: &'a Mutex<dyn TraceSink + Send + 'static>,
) -> std::sync::MutexGuard<'a, dyn TraceSink + Send + 'static> {
    sink.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Installs `sink` as the thread's active trace sink, runs `f`, and
/// returns the sink together with `f`'s result. Instrumented layers
/// pick the sink up via [`Telemetry::current`] when a run is
/// constructed; the sink's [`TraceSink::interest`] is read here, once.
/// The sink is shared behind a mutex, so handles taken under this
/// install may emit from *other* threads spawned inside `f` (the live
/// backend's node threads), as long as they are joined before `f`
/// returns.
///
/// The previous sink (if any) is restored afterwards, even if `f`
/// panics; an installed metrics registry is left alone.
///
/// # Panics
/// Panics if an instrumented component retains a handle on the sink
/// past the end of `f` (runs release their handles when they return).
pub fn with_sink<S: TraceSink + Send + 'static, R>(sink: S, f: impl FnOnce() -> R) -> (S, R) {
    fn swap_sink(t: &mut Telemetry, sink: &mut Option<SinkHandle>) {
        std::mem::swap(&mut t.sink, sink);
        t.interest = t.sink.as_ref().map_or(Interest::NONE, |s| s.interest);
    }
    let cell = Arc::new(Installed {
        interest: sink.interest(),
        sink: Mutex::new(sink),
    });
    let mut half = Some(Arc::clone(&cell) as SinkHandle);
    let out = swapped(swap_sink, &mut half, f);
    drop(half);
    let sink = Arc::try_unwrap(cell)
        .unwrap_or_else(|_| panic!("trace sink still referenced after the traced run"))
        .sink
        .into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    (sink, out)
}

/// Installs `reg` as the thread's active metrics registry for the
/// duration of `f`, counters and gauges only (no duration histograms —
/// there is no clock). Instrumented layers pick it up via
/// [`Telemetry::current`] at run construction. The previous registry
/// (if any) is restored afterwards, even if `f` panics; an installed
/// trace sink is left alone.
pub fn with_metrics<R>(reg: &Arc<MetricsRegistry>, f: impl FnOnce() -> R) -> R {
    install_metrics(reg, None, f)
}

/// [`with_metrics`] with a nanosecond [`Clock`]: duration histograms
/// record too. The live backend passes its monotonic clock; the
/// simulator has no meaningful wall clock and uses the unclocked form.
pub fn with_metrics_clocked<R>(
    reg: &Arc<MetricsRegistry>,
    clock: Arc<dyn Clock>,
    f: impl FnOnce() -> R,
) -> R {
    install_metrics(reg, Some(clock), f)
}

fn install_metrics<R>(
    reg: &Arc<MetricsRegistry>,
    clock: Option<Arc<dyn Clock>>,
    f: impl FnOnce() -> R,
) -> R {
    let mut half = Some(Metrics {
        reg: Arc::clone(reg),
        clock,
    });
    swapped(|t, m| std::mem::swap(&mut t.metrics, m), &mut half, f)
}

/// A run's one cheap cloneable handle on the thread's telemetry: the
/// trace sink and the metrics registry installed when it was taken
/// ([`Telemetry::current`]), either of which may be absent.
///
/// Instrumented layers take one at run construction and call it from
/// their hot paths. With no sink installed — or one that did not ask
/// for the kind — [`Telemetry::emit`] costs one branch on the cached
/// interest word and never evaluates the closure building the payload.
/// With no registry installed every metric call is one branch and
/// touches nothing. Metrics name the shard they write explicitly: the
/// node id.
#[derive(Clone, Default)]
pub struct Telemetry {
    /// The installed sink's interest ([`Interest::NONE`] without one),
    /// beside the handle so [`Telemetry::wants`] never chases a pointer.
    interest: Interest,
    sink: Option<SinkHandle>,
    metrics: Option<Metrics>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("interest", &self.interest)
            .field("metered", &self.metered())
            .finish()
    }
}

impl Telemetry {
    /// The thread's current telemetry: the sink installed by the
    /// innermost [`with_sink`] and the registry installed by the
    /// innermost [`with_metrics`], each disabled if none is installed.
    pub fn current() -> Self {
        CURRENT.with(|c| c.borrow().clone())
    }

    /// Whether a sink is attached *and* asked for `kind`. Use to guard
    /// instrumentation that must precompute values for an event (a
    /// timestamp before a state change, a hop distance).
    #[inline(always)]
    pub fn wants(&self, kind: EventKind) -> bool {
        self.interest.contains(kind)
    }

    /// Whether a metrics registry is attached.
    #[inline(always)]
    pub fn metered(&self) -> bool {
        self.metrics.is_some()
    }

    /// Reads the section-timing clock: `None` when no registry or no
    /// clock is installed. Guard duration instrumentation on this so
    /// un-clocked runs skip the clock reads entirely.
    #[inline(always)]
    pub fn now_ns(&self) -> Option<u64> {
        Some(self.metrics.as_ref()?.clock.as_ref()?.now_ns())
    }

    /// Records the event built by `f` — which must be of `kind` — at
    /// `(time_us, node)` if the attached sink [`wants`](Telemetry::wants)
    /// that kind; otherwise does nothing and never evaluates `f`. Under
    /// a registry the emission counts itself ([`Counter::TraceEvents`])
    /// and, with a clock, times itself — payload, sink lock and record
    /// ([`Histo::TraceEmitNs`]) — so trace overhead is measured, not
    /// guessed.
    #[inline(always)]
    pub fn emit(
        &self,
        kind: EventKind,
        time_us: Time,
        node: NodeId,
        f: impl FnOnce() -> TraceEvent,
    ) {
        if !self.wants(kind) {
            return;
        }
        let Some(installed) = &self.sink else {
            return;
        };
        let t0 = self.now_ns();
        let event = f();
        debug_assert_eq!(event.kind(), kind, "emitted under the wrong kind");
        lock_sink(&installed.sink).record(time_us, node, event);
        if let Some(t0) = t0 {
            let dt = self.now_ns().unwrap_or(t0).saturating_sub(t0);
            self.observe_at(node, Histo::TraceEmitNs, dt);
        }
        self.add_at(node, Counter::TraceEvents, 1);
    }

    /// Adds `v` to counter `c` on `node`'s shard.
    #[inline(always)]
    pub fn add_at(&self, node: NodeId, c: Counter, v: u64) {
        if let Some(m) = &self.metrics {
            m.reg.add(node, c, v);
        }
    }

    /// Stores `v` into gauge `g` on `node`'s shard (last write wins).
    #[inline(always)]
    pub fn set_gauge_at(&self, node: NodeId, g: Gauge, v: u64) {
        if let Some(m) = &self.metrics {
            m.reg.set_gauge(node, g, v);
        }
    }

    /// Records one duration sample (ns) into histogram `h` on `node`'s
    /// shard.
    #[inline(always)]
    pub fn observe_at(&self, node: NodeId, h: Histo, v: u64) {
        if let Some(m) = &self.metrics {
            m.reg.observe(node, h, v);
        }
    }
}

/// Streaming percentile accumulator for µs durations: collects samples,
/// answers nearest-rank percentiles. Backs the `p50/p95/max` columns of
/// [`PhaseReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Hist {
    samples: Vec<u64>,
    sorted: bool,
}

impl Hist {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, v: u64) {
        self.samples.push(v);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|&v| v as u128).sum::<u128>() as f64 / self.samples.len() as f64
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.samples.iter().copied().max().unwrap_or(0)
    }

    /// Nearest-rank percentile `q` in `[0, 100]` (0 when empty).
    pub fn percentile(&mut self, q: u32) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
        let rank = (self.samples.len() * q as usize).div_ceil(100);
        self.samples[rank.saturating_sub(1)]
    }

    /// Median shorthand.
    pub fn p50(&mut self) -> u64 {
        self.percentile(50)
    }

    /// 95th-percentile shorthand.
    pub fn p95(&mut self) -> u64 {
        self.percentile(95)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(buf: &mut TraceBuffer, t: Time, node: NodeId, e: TraceEvent) {
        buf.record(t, node, e);
    }

    #[test]
    fn tracer_off_never_builds_events() {
        let t = Telemetry::default();
        assert!(!t.wants(EventKind::QueueDepth));
        assert!(
            !Telemetry::current().wants(EventKind::QueueDepth),
            "no sink"
        );
        t.emit(EventKind::QueueDepth, 0, 0, || {
            panic!("payload built while disabled")
        });
    }

    /// Asks for barriers and node totals only, and objects to anything
    /// else reaching it.
    #[derive(Default)]
    struct BarriersAndTotals(Vec<Record>);

    impl TraceSink for BarriersAndTotals {
        fn record(&mut self, time: Time, node: NodeId, event: TraceEvent) {
            assert!(self.interest().contains(event.kind()), "{event:?}");
            self.0.push(Record { time, node, event });
        }
        fn interest(&self) -> Interest {
            Interest::of(&[EventKind::Barrier, EventKind::NodeTotals])
        }
    }

    #[test]
    fn masked_kind_never_builds_its_payload() {
        let (sink, _) = with_sink(BarriersAndTotals::default(), || {
            let t = Telemetry::current();
            assert!(t.wants(EventKind::Barrier) && t.wants(EventKind::NodeTotals));
            assert!(!t.wants(EventKind::QueueDepth));
            t.emit(EventKind::QueueDepth, 1, 0, || {
                panic!("payload of a masked kind built")
            });
            t.emit(EventKind::Barrier, 2, 0, || TraceEvent::Barrier {
                round: 0,
            });
        });
        assert_eq!(sink.0.len(), 1);
    }

    #[test]
    fn default_interest_is_every_event_but_the_totals() {
        let (buf, _) = with_sink(TraceBuffer::new(), || {
            let t = Telemetry::current();
            assert!(t.wants(EventKind::UserPhase) && t.wants(EventKind::Job));
            t.emit(EventKind::NodeTotals, 0, 0, || panic!("totals are opt-in"));
        });
        assert!(buf.records.is_empty());
    }

    #[test]
    fn tee_forwards_each_half_only_what_it_asked_for() {
        let sink = Tee(TraceBuffer::new(), BarriersAndTotals::default());
        let (Tee(buf, picky), _) = with_sink(sink, || {
            let t = Telemetry::current();
            t.emit(EventKind::QueueDepth, 1, 0, || TraceEvent::QueueDepth {
                depth: 1,
            });
            t.emit(EventKind::Barrier, 2, 0, || TraceEvent::Barrier {
                round: 0,
            });
            t.emit(EventKind::NodeTotals, 3, 0, || TraceEvent::NodeTotals {
                spawned: 1,
                executed: 1,
            });
        });
        // The buffer never sees the opt-in summary its partner asked
        // for; the partner never sees the queue sample.
        let kinds = |rs: &[Record]| rs.iter().map(|r| r.event.kind()).collect::<Vec<_>>();
        assert_eq!(
            kinds(&buf.records),
            [EventKind::QueueDepth, EventKind::Barrier]
        );
        assert_eq!(kinds(&picky.0), [EventKind::Barrier, EventKind::NodeTotals]);
    }

    #[test]
    fn nested_with_sink_restores_the_outer_interest() {
        with_sink(BarriersAndTotals::default(), || {
            with_sink(TraceBuffer::new(), || {
                let t = Telemetry::current();
                assert!(t.wants(EventKind::QueueDepth) && !t.wants(EventKind::NodeTotals));
            });
            let t = Telemetry::current();
            assert!(!t.wants(EventKind::QueueDepth) && t.wants(EventKind::NodeTotals));
        });
        assert!(!Telemetry::current().wants(EventKind::NodeTotals));
    }

    #[test]
    fn with_sink_installs_and_restores() {
        assert!(!Telemetry::current().wants(EventKind::QueueDepth));
        let (buf, got) = with_sink(TraceBuffer::new(), || {
            let t = Telemetry::current();
            assert!(t.wants(EventKind::QueueDepth));
            t.emit(EventKind::QueueDepth, 5, 2, || TraceEvent::QueueDepth {
                depth: 3,
            });
            42
        });
        assert_eq!(got, 42);
        assert_eq!(buf.records.len(), 1);
        assert_eq!(buf.records[0].time, 5);
        assert_eq!(buf.records[0].node, 2);
        assert!(!Telemetry::current().wants(EventKind::QueueDepth));
    }

    #[test]
    fn with_sink_restores_outer_sink_when_nested() {
        let (outer, _) = with_sink(TraceBuffer::new(), || {
            let (inner, _) = with_sink(TraceBuffer::new(), || {
                Telemetry::current().emit(EventKind::QueueDepth, 1, 0, || TraceEvent::QueueDepth {
                    depth: 1,
                });
            });
            assert_eq!(inner.records.len(), 1);
            // Back on the outer sink.
            Telemetry::current().emit(EventKind::QueueDepth, 2, 0, || TraceEvent::QueueDepth {
                depth: 2,
            });
        });
        assert_eq!(outer.records.len(), 1);
        assert_eq!(outer.records[0].time, 2);
    }

    #[test]
    fn sink_and_registry_share_one_slot_either_way_round() {
        let reg = MetricsRegistry::new(1);
        // (sink attached, registry attached) as a handle taken now sees it.
        let sees = || {
            let t = Telemetry::current();
            (t.wants(EventKind::Barrier), t.metered())
        };
        let emit_one = || {
            assert_eq!(sees(), (true, true));
            Telemetry::current().emit(EventKind::Barrier, 1, 0, || TraceEvent::Barrier {
                round: 0,
            });
        };
        let (buf, _) = with_sink(TraceBuffer::new(), || {
            with_metrics(&reg, emit_one);
            assert_eq!(sees(), (true, false));
        });
        assert_eq!(buf.records.len(), 1);
        with_metrics(&reg, || {
            let (buf, _) = with_sink(TraceBuffer::new(), emit_one);
            assert_eq!(buf.records.len(), 1);
            assert_eq!(sees(), (false, true));
        });
        assert_eq!(sees(), (false, false));
        assert_eq!(reg.counter_total(Counter::TraceEvents), 2);
    }

    #[test]
    fn sink_is_shared_across_threads_spawned_inside_install() {
        let (buf, _) = with_sink(TraceBuffer::new(), || {
            let tracers: Vec<Telemetry> = (0..4).map(|_| Telemetry::current()).collect();
            std::thread::scope(|s| {
                for (i, t) in tracers.into_iter().enumerate() {
                    s.spawn(move || {
                        t.emit(EventKind::QueueDepth, i as Time, i, || {
                            TraceEvent::QueueDepth { depth: i as u32 }
                        })
                    });
                }
            });
        });
        assert_eq!(buf.records.len(), 4);
    }

    #[test]
    fn tee_duplicates_records_in_order() {
        let (tee, _) = with_sink(Tee(TraceBuffer::new(), TraceBuffer::new()), || {
            let t = Telemetry::current();
            t.emit(EventKind::QueueDepth, 1, 0, || TraceEvent::QueueDepth {
                depth: 1,
            });
            t.emit(EventKind::Barrier, 2, 1, || TraceEvent::Barrier {
                round: 0,
            });
        });
        let Tee(a, b) = tee;
        assert_eq!(a.records, b.records);
        assert_eq!(a.records.len(), 2);
    }

    #[test]
    fn hist_percentiles_nearest_rank() {
        let mut h = Hist::new();
        for v in [10, 30, 20, 50, 40] {
            h.push(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.p50(), 30);
        assert_eq!(h.p95(), 50);
        assert_eq!(h.max(), 50);
        assert!((h.mean() - 30.0).abs() < 1e-9);
        let mut empty = Hist::new();
        assert_eq!(empty.p50(), 0);
        assert_eq!(empty.max(), 0);
    }

    #[test]
    fn validate_accepts_nested_spans() {
        let mut b = TraceBuffer::new();
        ev(
            &mut b,
            0,
            0,
            TraceEvent::PhaseBegin {
                kind: PhaseKind::User,
                index: 0,
            },
        );
        ev(
            &mut b,
            10,
            0,
            TraceEvent::PhaseEnd {
                kind: PhaseKind::User,
                index: 0,
            },
        );
        ev(
            &mut b,
            10,
            0,
            TraceEvent::PhaseBegin {
                kind: PhaseKind::System,
                index: 1,
            },
        );
        ev(
            &mut b,
            10,
            0,
            TraceEvent::StageBegin {
                stage: SysStage::LoadCollect,
                phase: 1,
            },
        );
        ev(
            &mut b,
            12,
            0,
            TraceEvent::StageEnd {
                stage: SysStage::LoadCollect,
                phase: 1,
            },
        );
        let check = validate(&b).expect("well-formed");
        assert_eq!(check.closed_phases, 1);
        assert_eq!(check.closed_stages, 1);
        assert_eq!(check.open_spans, 1); // system phase still open
    }

    #[test]
    fn validate_rejects_mismatched_end() {
        let mut b = TraceBuffer::new();
        ev(
            &mut b,
            0,
            0,
            TraceEvent::PhaseBegin {
                kind: PhaseKind::User,
                index: 0,
            },
        );
        ev(
            &mut b,
            5,
            0,
            TraceEvent::PhaseEnd {
                kind: PhaseKind::System,
                index: 0,
            },
        );
        assert!(validate(&b).is_err());
    }

    #[test]
    fn validate_rejects_backwards_span_time() {
        let mut b = TraceBuffer::new();
        ev(
            &mut b,
            10,
            0,
            TraceEvent::PhaseBegin {
                kind: PhaseKind::User,
                index: 0,
            },
        );
        ev(
            &mut b,
            5,
            0,
            TraceEvent::PhaseEnd {
                kind: PhaseKind::User,
                index: 0,
            },
        );
        assert!(validate(&b).is_err());
    }

    #[test]
    fn validate_rejects_stale_phase_index() {
        let mut b = TraceBuffer::new();
        for index in [2, 2] {
            ev(
                &mut b,
                0,
                0,
                TraceEvent::PhaseBegin {
                    kind: PhaseKind::System,
                    index,
                },
            );
            ev(
                &mut b,
                1,
                0,
                TraceEvent::PhaseEnd {
                    kind: PhaseKind::System,
                    index,
                },
            );
        }
        assert!(validate(&b).is_err());
    }

    #[test]
    fn validate_exempts_instants_from_monotonicity() {
        let mut b = TraceBuffer::new();
        ev(
            &mut b,
            10,
            0,
            TraceEvent::PhaseBegin {
                kind: PhaseKind::User,
                index: 0,
            },
        );
        // The engine applies send effects after the handler returns, so
        // an instant may be stamped before the latest span event.
        ev(
            &mut b,
            3,
            0,
            TraceEvent::MsgSend {
                to: 1,
                bytes: 16,
                hops: 1,
            },
        );
        assert!(validate(&b).is_ok());
    }
}
