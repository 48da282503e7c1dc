//! The event-driven simulation engine.
//!
//! # Hot-path design
//!
//! The engine is performance-tuned under one invariant: **no
//! optimisation may change a simulated result**. Virtual times, stats
//! and outcomes are bit-for-bit identical to the straightforward
//! implementation (pinned by `crates/bench/tests/golden.rs`). The
//! load-bearing pieces:
//!
//! * **Engine-owned effect buffers.** A handler's sends and timers are
//!   buffered in vectors owned by the engine and lent to [`Ctx`] for
//!   the duration of the call, so the steady state allocates nothing
//!   per event.
//! * **Per-node deferral lanes.** An event arriving at a busy node is
//!   parked in that node's lane (a min-heap on sequence number)
//!   instead of being re-pushed into the global heap once per
//!   deferral; the lane is allocated on the node's first park, so a
//!   node that never parks pays one null pointer. A single *wake
//!   marker* per node — carrying the lane minimum's sequence number so
//!   global (time, seq) interleaving is exactly what the re-push scheme
//!   produced — is pushed at the node's free time. Stale markers (the
//!   lane minimum changed, or the node was re-busied first) are lazily
//!   discarded on pop.
//! * **Routing on the fly.** Every send asks the topology for its hop
//!   distance ([`Topology::distance`]) and, under contention, every hop
//!   for the next one ([`Topology::route_next_hop`]). The mesh answers
//!   in closed form, so routing holds no per-pair state at any machine
//!   size.
//! * **Struct-of-arrays state.** Global event-queue state
//!   ([`EventCore`]: heap, sequence counter, broadcast runs) and dense
//!   per-node vectors ([`NodeCore`]: programs, ready times, stats,
//!   deferral lanes, wake markers) are grouped dslab-style; every
//!   per-node entry is O(1) bytes, so an idle node costs a few hundred
//!   bytes and a million-node machine stays in the hundreds of
//!   megabytes. The engine draws no random
//!   numbers: a program that does keeps its own stream, seeded from
//!   [`Ctx::seed`].
//! * **Broadcasts as sorted runs.** `send_all`/`signal_all` buffer one
//!   request holding one payload. At apply time every recipient is
//!   accounted as a point-to-point send would be and reserves the
//!   sequence number its own heap entry would have had, but the `N - 1`
//!   deliveries stay one [`Run`]: the payload plus a sorted 8-byte
//!   [`RunEntry`] per recipient. Only the run's *head* sits in
//!   the global heap; popping it materialises that recipient's message
//!   and the next entry replaces it at the top in place. Global
//!   `(time, seq)` order is what `N - 1` heap entries would give, but
//!   the heap stays O(nodes) however many broadcasts are in flight, so
//!   a pop no longer sifts through tens of megabytes of cache misses.
//!   The `N` `Start` events are the same thing: one run, born sorted.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    reason = "RIPS-L003: a panic in the engine hot path takes down the whole simulation; \
              each remaining site names the invariant that rules it out"
)]

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::sync::Arc;

use rips_topology::{NodeId, Topology};
use rips_trace::metrics_rt::Counter;

use crate::{LatencyModel, MemStats, NetStats, NodeStats, RunStats, Time, WorkKind};

/// Behaviour of one simulated node (the SPMD "code image").
///
/// Handlers run to completion with sequential-node semantics: while a
/// handler's consumed compute time elapses, further events for the node
/// wait. All interaction with the machine goes through [`Ctx`].
pub trait Program {
    /// Message payload exchanged between nodes.
    type Msg;

    /// Called once per node at time 0, in node-id order.
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        let _ = ctx;
    }

    /// Called when a message arrives (after the receive CPU cost has
    /// been charged as overhead).
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, from: NodeId, msg: Self::Msg);

    /// Called when a timer set via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg>, tag: u64) {
        let _ = (ctx, tag);
    }
}

/// A buffered communication effect, applied when the handler returns.
/// Broadcasts stay folded (one payload) until apply time.
enum Effect<M> {
    Send {
        to: NodeId,
        msg: M,
        bytes: usize,
        /// CPU consumed by the handler before this send was issued;
        /// the message departs at `handler_start + at_offset`.
        at_offset: Time,
    },
    /// One payload bound for every other node. `base_offset` is the
    /// CPU consumed before the broadcast was issued; recipient `k`
    /// (0-based, node-id order, self skipped) departs at
    /// `base_offset + (k + 1) · send_cpu` for a software broadcast and
    /// at `base_offset` for a hardware signal.
    Broadcast {
        msg: M,
        bytes: usize,
        base_offset: Time,
        signal: bool,
    },
}

struct TimerReq {
    tag: u64,
    fire_offset: Time,
}

/// Node-side view of the machine during a handler invocation.
///
/// Effects (sends, timers, compute) are buffered and applied by the
/// engine when the handler returns, preserving deterministic ordering.
/// The buffers are engine-owned and lent to the context, so a handler
/// invocation performs no allocation in the steady state.
pub struct Ctx<'a, M> {
    now: Time,
    me: NodeId,
    n: usize,
    consumed_user: Time,
    consumed_overhead: Time,
    effects: &'a mut Vec<Effect<M>>,
    timers: &'a mut Vec<TimerReq>,
    halt: bool,
    send_cpu_us: Time,
    seed: u64,
    /// Set by [`Ctx::seed`]; the engine folds it into
    /// [`RunStats::seed_read`] when the handler returns.
    seed_read: Cell<bool>,
}

impl<'a, M> Ctx<'a, M> {
    /// Virtual time at which the current handler began.
    pub fn now(&self) -> Time {
        self.now + self.consumed_user + self.consumed_overhead
    }

    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Number of nodes in the machine.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// The seed the engine was built with. The engine draws no random
    /// numbers itself; a program that does seeds its own stream from
    /// this (and its node id), so a run stays deterministic under it.
    ///
    /// This is the only way the seed reaches a program, and the run
    /// records the call ([`RunStats::seed_read`]): a run that never
    /// makes it is the same run under every seed.
    pub fn seed(&self) -> u64 {
        self.seed_read.set(true);
        self.seed
    }

    /// Consume `dur` µs of CPU, classified as `kind`.
    pub fn compute(&mut self, dur: Time, kind: WorkKind) {
        match kind {
            WorkKind::User => self.consumed_user += dur,
            WorkKind::Overhead => self.consumed_overhead += dur,
        }
    }

    /// Send `msg` (`bytes` of payload) to node `to`. Charges the
    /// sender's CPU send cost as overhead; the message departs at the
    /// current intra-handler time and arrives after the wire latency.
    ///
    /// Sending to self is allowed and delivers after `alpha` only.
    pub fn send(&mut self, to: NodeId, msg: M, bytes: usize) {
        assert!(to < self.n, "send to nonexistent node {to}");
        self.consumed_overhead += self.send_cpu_us;
        self.effects.push(Effect::Send {
            to,
            msg,
            bytes,
            at_offset: self.consumed_user + self.consumed_overhead,
        });
    }

    /// Send a copy of `msg` to every other node (naive broadcast:
    /// `N - 1` point-to-point messages, each paying full cost). The
    /// payload is buffered once; copies are made only as the fan-out
    /// is applied.
    pub fn send_all(&mut self, msg: M, bytes: usize)
    where
        M: Clone,
    {
        let base_offset = self.consumed_user + self.consumed_overhead;
        self.consumed_overhead += self.send_cpu_us * (self.n.saturating_sub(1)) as Time;
        self.effects.push(Effect::Broadcast {
            msg,
            bytes,
            base_offset,
            signal: false,
        });
    }

    /// Hardware-assisted signal: delivers `msg` to `to` paying only the
    /// network's fixed latency — no sender CPU, no payload. Models
    /// dedicated synchronisation hardware such as the Cray T3D's
    /// "eureka" or-barrier (paper §2).
    pub fn signal(&mut self, to: NodeId, msg: M) {
        assert!(to < self.n, "signal to nonexistent node {to}");
        self.effects.push(Effect::Send {
            to,
            msg,
            bytes: 0,
            at_offset: self.consumed_user + self.consumed_overhead,
        });
    }

    /// Broadcast a hardware signal to every other node (see
    /// [`Ctx::signal`]).
    pub fn signal_all(&mut self, msg: M)
    where
        M: Clone,
    {
        self.effects.push(Effect::Broadcast {
            msg,
            bytes: 0,
            base_offset: self.consumed_user + self.consumed_overhead,
            signal: true,
        });
    }

    /// Arrange for [`Program::on_timer`] to be called with `tag` after
    /// `delay` µs of virtual time (measured from the current
    /// intra-handler time).
    pub fn set_timer(&mut self, delay: Time, tag: u64) {
        self.timers.push(TimerReq {
            tag,
            fire_offset: self.consumed_user + self.consumed_overhead + delay,
        });
    }

    /// Stop the whole simulation once this handler returns. Used by a
    /// node that detects global termination.
    pub fn halt(&mut self) {
        self.halt = true;
    }
}

enum EventKind<M> {
    Start,
    Message {
        from: NodeId,
        msg: M,
    },
    Timer {
        tag: u64,
    },
    /// Contention mode: a message in flight, currently held at the
    /// event's node, still travelling toward `final_to`. Processed by
    /// the engine's router, not by the node's program (and therefore
    /// never deferred by node busy time).
    Forward {
        from: NodeId,
        final_to: NodeId,
        msg: M,
        bytes: usize,
    },
    /// Deferral-lane wake marker: when this pops (at the node's free
    /// time, carrying the lane minimum's original sequence number),
    /// the node runs the head of its deferral lane. Stale markers are
    /// discarded via the per-node armed seq and free time.
    Wake,
    /// Head of the [`Run`] in this slot of [`EventCore::runs`]; the
    /// event's time, seq and node are those of the run's next
    /// undelivered entry. Never leaves [`EventCore::pop`], which hands
    /// out the delivery it stands for.
    Run(usize),
}

/// One recipient still owed by a [`Run`]: its event time as an offset
/// from the run's base time, and its rank. Field order is sort order:
/// `(time, rank)`, since every entry of a run shares its base.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct RunEntry {
    offset: u32,
    rank: u32,
}

impl RunEntry {
    /// The entry for recipient `rank` at `time`, in a run based at
    /// `base`.
    ///
    /// # Panics
    /// Panics if the offset is past `u32::MAX`. A rank fits: ranks are
    /// below the node count, which [`Engine::new`] bounds.
    #[expect(
        clippy::panic,
        reason = "a delivery past u32::MAX µs after its broadcast cannot be stored; \
                  stopping beats delivering it at a wrapped time"
    )]
    fn new(base: Time, time: Time, rank: usize) -> Self {
        let offset = time - base;
        RunEntry {
            offset: u32::try_from(offset).unwrap_or_else(|_| {
                panic!("broadcast run entry {offset} µs after its base is past u32::MAX")
            }),
            rank: rank as u32,
        }
    }
}

/// A broadcast in flight (or the `Start` wavefront): one payload and
/// an entry per recipient still owed, of which only the last — the
/// *head* — is represented in the global heap.
struct Run<M> {
    /// Broadcasting node, skipped in the rank → node mapping;
    /// `NodeId::MAX` for the `Start` run (rank `k` is node `k`).
    from: NodeId,
    /// Contention mode: entries are `Forward` injections held at `from`
    /// rather than arrivals at the recipient.
    forward: bool,
    bytes: usize,
    /// `None` for the `Start` run. The last delivery takes it.
    msg: Option<M>,
    /// Sequence number of rank 0; rank `k` replays `first_seq + k`,
    /// exactly what its own heap entry was stamped with.
    first_seq: u64,
    /// The time every entry's offset counts from: the broadcast's
    /// issue time, which no delivery precedes.
    base: Time,
    /// Recipients still owed, descending: delivering is a pop.
    entries: Vec<RunEntry>,
}

impl<M> Run<M> {
    fn recipient(&self, rank: usize) -> NodeId {
        rank + (rank >= self.from) as usize
    }

    /// `(time, seq, node)` of the head entry, if any is left.
    fn head(&self) -> Option<(Time, u64, NodeId)> {
        let &RunEntry { offset, rank } = self.entries.last()?;
        let to = self.recipient(rank as usize);
        let node = if self.forward { self.from } else { to };
        let time = self.base + Time::from(offset);
        Some((time, self.first_seq + u64::from(rank), node))
    }
}

/// The node holding, and the event carrying, `msg` on its way to `to`:
/// a router injection at `from` under contention (`forward`), else the
/// arrival at `to`.
fn carrier<M>(
    forward: bool,
    from: NodeId,
    to: NodeId,
    msg: M,
    bytes: usize,
) -> (NodeId, EventKind<M>) {
    if forward {
        let final_to = to;
        (
            from,
            EventKind::Forward {
                from,
                final_to,
                msg,
                bytes,
            },
        )
    } else {
        (to, EventKind::Message { from, msg })
    }
}

struct Event<M> {
    time: Time,
    seq: u64,
    node: NodeId,
    kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap via Reverse: order by (time, seq).
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// An event parked at a busy node, keyed by its original sequence
/// number (deferred same-time deliveries replay in seq order).
struct LaneEvent<M> {
    seq: u64,
    kind: EventKind<M>,
}

impl<M> PartialEq for LaneEvent<M> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl<M> Eq for LaneEvent<M> {}
impl<M> PartialOrd for LaneEvent<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for LaneEvent<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.seq.cmp(&other.seq)
    }
}

/// One node's deferral lane: a min-heap on original sequence number.
type Lane<M> = BinaryHeap<std::cmp::Reverse<LaneEvent<M>>>;

/// `armed[node]` sentinel: no wake marker outstanding.
const UNARMED: u64 = u64::MAX;

/// The global event core, grouped after the dslab simulator idiom
/// (SNIPPETS.md): the clock-ordered heap, the deterministic
/// interleaving counter and the open broadcast runs travel together,
/// separate from per-node state. The heap holds point-to-point events,
/// wake markers and one head per open [`Run`]; the outstanding events
/// are those plus `run_tail`.
struct EventCore<M> {
    queue: BinaryHeap<std::cmp::Reverse<Event<M>>>,
    /// Run slots, indexed by [`EventKind::Run`], and the idle ones.
    runs: Vec<Run<M>>,
    idle_runs: Vec<usize>,
    /// Undelivered run entries behind their runs' heads.
    run_tail: u64,
    /// Global (time, seq) interleaving tiebreaker; also the identity
    /// replayed by deferral-lane wake markers.
    seq: u64,
    /// Events dispatched so far (the run's event count).
    processed: u64,
}

impl<M> EventCore<M> {
    /// Pushes an event stamped with the next sequence number.
    #[inline]
    fn push_next(&mut self, time: Time, node: NodeId, kind: EventKind<M>) {
        self.seq += 1;
        self.queue.push(std::cmp::Reverse(Event {
            time,
            seq: self.seq,
            node,
            kind,
        }));
    }

    /// Pushes an event replaying an explicit sequence number (wake
    /// markers reuse the parked event's original seq so global
    /// interleaving matches the historical re-push scheme exactly).
    #[inline]
    fn push_at(&mut self, time: Time, seq: u64, node: NodeId, kind: EventKind<M>) {
        self.queue.push(std::cmp::Reverse(Event {
            time,
            seq,
            node,
            kind,
        }));
    }

    /// Opens `run` over its entries, one per recipient in rank order:
    /// reserves the block of sequence numbers the recipients' own heap
    /// entries would have taken, sorts once, pushes the head.
    fn open_run(&mut self, mut run: Run<M>) {
        run.entries.sort_unstable_by(|a, b| b.cmp(a));
        run.first_seq = self.seq + 1;
        let Some((time, seq, node)) = run.head() else {
            return; // a one-node machine broadcasts to nobody
        };
        self.seq += run.entries.len() as u64;
        self.run_tail += run.entries.len() as u64 - 1;
        let r = self.idle_runs.pop().unwrap_or(self.runs.len());
        if r == self.runs.len() {
            self.runs.push(run);
        } else {
            self.runs[r] = run;
        }
        self.push_at(time, seq, node, EventKind::Run(r));
    }

    /// Pops the globally next event. A run head yields the delivery it
    /// stands for while the run's next entry takes its place at the top
    /// of the heap (an in-place replace: no pop, no push). Other events
    /// take a plain `pop`: going through `PeekMut` for them too measured
    /// 10–20 ns/event slower on 32-node runs.
    fn pop(&mut self) -> Option<Event<M>>
    where
        M: Clone,
    {
        let EventKind::Run(r) = self.queue.peek()?.0.kind else {
            return self.queue.pop().map(|ev| ev.0);
        };
        let mut top = self.queue.peek_mut()?;
        let run = &mut self.runs[r];
        let (time, seq, node) = (top.0.time, top.0.seq, top.0.node);
        #[expect(
            clippy::expect_used,
            reason = "a run whose head is in the heap has that head's entry"
        )]
        let RunEntry { rank, .. } = run.entries.pop().expect("open run without entries");
        let to = run.recipient(rank as usize);
        let msg = if let Some(next) = run.head() {
            (top.0.time, top.0.seq, top.0.node) = next;
            self.run_tail -= 1;
            run.msg.clone()
        } else {
            PeekMut::pop(top);
            run.entries = Vec::new(); // release the drained buffer now
            self.idle_runs.push(r);
            run.msg.take()
        };
        let kind = match msg {
            Some(msg) => carrier(run.forward, run.from, to, msg, run.bytes).1,
            None => EventKind::Start,
        };
        Some(Event {
            time,
            seq,
            node,
            kind,
        })
    }
}

/// Per-node engine state in struct-of-arrays layout: dense parallel
/// vectors indexed by node id. Every entry is O(1) bytes — empty heaps
/// and unarmed markers don't allocate — so an idle node costs a fixed
/// few hundred bytes and the layout scales linearly to 10⁶ nodes.
struct NodeCore<P: Program> {
    programs: Vec<P>,
    ready_at: Vec<Time>,
    stats: Vec<NodeStats>,
    /// Per-node deferral lanes: events that arrived while the node was
    /// busy, ordered by original sequence number. `None` until the
    /// node's first park; kept (with its capacity) once allocated.
    lanes: Vec<Option<Box<Lane<P::Msg>>>>,
    /// The seq of each node's valid wake marker, or [`UNARMED`]. Its
    /// time is the node's `ready_at`: a change of `ready_at` disarms
    /// the node, leaving any marker outstanding stale.
    armed: Vec<u64>,
}

impl<P: Program> NodeCore<P> {
    fn len(&self) -> usize {
        self.programs.len()
    }

    /// Fixed bytes per node across the parallel vectors (the modelled
    /// idle-node cost; lane/heap contents are counted via peak depth).
    fn fixed_bytes_per_node() -> u64 {
        (std::mem::size_of::<P>()
            + std::mem::size_of::<Time>()
            + std::mem::size_of::<NodeStats>()
            + std::mem::size_of::<Option<Box<Lane<P::Msg>>>>()
            + std::mem::size_of::<u64>()) as u64
    }
}

/// The simulation engine: owns the nodes, the event queue, the clock,
/// and all accounting.
pub struct Engine<P: Program> {
    latency: LatencyModel,
    /// Handed to every handler through [`Ctx::seed`].
    seed: u64,
    /// Whether any handler has called [`Ctx::seed`].
    seed_read: bool,
    /// Per-node state, struct-of-arrays.
    nodes: NodeCore<P>,
    /// Global event-queue state.
    core: EventCore<P::Msg>,
    /// The interconnect, asked for every hop distance and next hop.
    topo: Arc<dyn Topology>,
    net: NetStats,
    last_activity: Time,
    timelines: Option<Vec<Vec<crate::BusySpan>>>,
    /// Store-and-forward link contention: directed links serialize
    /// transmissions. Off by default (contention-free network).
    contention: bool,
    /// Dense per-directed-link free times (`link_free[at * n + next]`);
    /// built when contention is enabled. This is O(n²) state, so
    /// contention is for small machines.
    link_free: Vec<Time>,
    /// Total events currently parked across all lanes.
    parked: u64,
    /// High-water mark of outstanding events (global heap + lanes +
    /// run entries behind their heads).
    peak_depth: u64,
    /// High-water mark of real global-heap entries.
    peak_heap_len: u64,
    /// High-water mark of the bytes those events occupy.
    peak_event_bytes: u64,
    /// Trace and metrics handle; disabled by default
    /// ([`Engine::set_telemetry`]).
    tel: rips_trace::Telemetry,
    /// Reusable effect buffers lent to [`Ctx`] per handler call.
    effects_buf: Vec<Effect<P::Msg>>,
    timer_buf: Vec<TimerReq>,
    /// Safety valve against runaway protocols; `run` panics past this.
    pub max_events: u64,
}

impl<P: Program> Engine<P> {
    /// Builds an engine over `topo` with one program per node
    /// (`make(node_id)`). The engine itself is deterministic; `seed` is
    /// only passed on to the programs ([`Ctx::seed`]), whose random
    /// draws it fixes.
    pub fn new(
        topo: Arc<dyn Topology>,
        latency: LatencyModel,
        seed: u64,
        mut make: impl FnMut(NodeId) -> P,
    ) -> Self {
        let n = topo.len();
        assert!(n > 0, "machine must have at least one node");
        assert!(
            n - 1 <= u32::MAX as usize,
            "a machine of {n} nodes has broadcast ranks past u32::MAX"
        );
        let programs: Vec<P> = (0..n).map(&mut make).collect();
        let mut core = EventCore {
            queue: BinaryHeap::new(),
            runs: Vec::new(),
            idle_runs: Vec::new(),
            run_tail: 0,
            seq: 0,
            processed: 0,
        };
        // The `Start` wavefront is a run that needs no sorting: node
        // `k` at time 0 with seq `k + 1`, ahead of everything a handler
        // can schedule.
        let run = Run {
            from: NodeId::MAX,
            forward: false,
            bytes: 0,
            msg: None,
            first_seq: 0,
            base: 0,
            entries: (0..n).map(|k| RunEntry::new(0, 0, k)).collect(),
        };
        core.open_run(run);
        Engine {
            latency,
            seed,
            seed_read: false,
            nodes: NodeCore {
                programs,
                ready_at: vec![0; n],
                stats: vec![NodeStats::default(); n],
                lanes: (0..n).map(|_| None).collect(),
                armed: vec![UNARMED; n],
            },
            core,
            topo,
            net: NetStats::default(),
            last_activity: 0,
            timelines: None,
            contention: false,
            link_free: Vec::new(),
            parked: 0,
            peak_depth: 0,
            peak_heap_len: 0,
            peak_event_bytes: 0,
            tel: rips_trace::Telemetry::default(),
            effects_buf: Vec::new(),
            timer_buf: Vec::new(),
            max_events: 500_000_000,
        }
    }

    /// Enables store-and-forward link contention: each directed link
    /// transmits one message at a time, `per_hop_us + bytes·per_byte`
    /// per hop, so bursts toward the same region queue up. Off by
    /// default (the contention-free model charges the route's total
    /// latency up front).
    pub fn enable_contention(&mut self, on: bool) {
        self.contention = on;
        let n = self.nodes.len();
        if on && self.link_free.is_empty() {
            self.link_free = vec![0; n * n];
        }
    }

    /// Attaches a telemetry handle. Every outgoing message is then
    /// emitted as a [`rips_trace::TraceEvent::MsgSend`] instant (stamped
    /// at its departure time) if the handle's sink asked for that kind,
    /// and, under a registry, the event loop counts every processed
    /// event (`rips_sim_events`), timer dispatch (`rips_timer_fires`),
    /// outgoing message (`rips_msgs_sent`), broadcast run, and
    /// discarded stale wake marker into the per-node shards. With the
    /// default disabled handle each tap is one never-taken branch.
    pub fn set_telemetry(&mut self, tel: rips_trace::Telemetry) {
        self.tel = tel;
    }

    /// Enables per-node busy-span recording (off by default: one span
    /// per handler invocation costs memory on long runs). Spans within
    /// a handler are approximated as overhead-then-user, matching the
    /// dispatch-then-execute structure of the schedulers built on this
    /// engine.
    pub fn record_timeline(&mut self, on: bool) {
        self.timelines = if on {
            Some(vec![Vec::new(); self.nodes.len()])
        } else {
            None
        };
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the machine has no nodes (constructor forbids this).
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 0
    }

    /// The interconnect.
    pub fn topology(&self) -> &Arc<dyn Topology> {
        &self.topo
    }

    /// Immutable access to a node's program (post-run inspection).
    pub fn program(&self, node: NodeId) -> &P {
        &self.nodes.programs[node]
    }

    /// Advances a contention-mode message one hop: waits for the
    /// outgoing link, transmits (store-and-forward), then either hands
    /// the message to the next router or delivers it.
    fn route_hop(
        &mut self,
        now: Time,
        at: NodeId,
        from: NodeId,
        final_to: NodeId,
        msg: P::Msg,
        bytes: usize,
    ) {
        let n = self.nodes.len();
        #[expect(
            clippy::expect_used,
            reason = "the topology is connected and a forward event is never at its \
                      destination, so a route exists"
        )]
        let next = self
            .topo
            .route_next_hop(at, final_to)
            .expect("no route between distinct nodes");
        let link = at * n + next;
        let transmit = self.latency.per_hop_us + (bytes as Time * self.latency.per_byte_ns) / 1000;
        let done = self.link_free[link].max(now) + transmit.max(1);
        self.link_free[link] = done;
        let kind = if next == final_to {
            EventKind::Message { from, msg }
        } else {
            EventKind::Forward {
                from,
                final_to,
                msg,
                bytes,
            }
        };
        self.core.push_next(done, next, kind);
    }

    /// Accounts one outgoing message leaving `from` at `depart` and
    /// returns the time of the event that carries it, with `true` when
    /// that event is a contention-mode injection at `from` rather than
    /// the arrival at `to`.
    fn note_send(&mut self, from: NodeId, depart: Time, to: NodeId, bytes: usize) -> (Time, bool) {
        let hops = self.topo.distance(from, to);
        self.net.msgs += 1;
        self.net.bytes += bytes as u64;
        self.net.hops += hops as u64;
        self.tel.add_at(from, Counter::MsgsSent, 1);
        self.tel
            .emit(rips_trace::EventKind::MsgSend, depart, from, || {
                rips_trace::TraceEvent::MsgSend {
                    to,
                    bytes: bytes as u64,
                    hops: hops as u32,
                }
            });
        if self.contention && hops > 0 {
            // Inject after the fixed startup cost; the router takes it
            // from there, link by link.
            (depart + self.latency.alpha_us, true)
        } else {
            (depart + self.latency.wire_latency(bytes, hops), false)
        }
    }

    /// Registers one outgoing message: accounting, then either hand it
    /// to the router (contention) or schedule the delivery directly.
    fn push_send(&mut self, from: NodeId, depart: Time, to: NodeId, msg: P::Msg, bytes: usize) {
        let (time, forward) = self.note_send(from, depart, to, bytes);
        let (at, kind) = carrier(forward, from, to, msg, bytes);
        self.core.push_next(time, at, kind);
    }

    /// (Re)arms `node`'s wake marker to match its lane head, pushing a
    /// marker event at the node's free time. A still-valid marker for
    /// the same seq is left alone; anything else outstanding becomes
    /// stale and is discarded when popped.
    fn arm(&mut self, node: NodeId) {
        match self.nodes.lanes[node].as_deref().and_then(BinaryHeap::peek) {
            Some(std::cmp::Reverse(head)) => {
                if self.nodes.armed[node] != head.seq {
                    self.nodes.armed[node] = head.seq;
                    let ready = self.nodes.ready_at[node];
                    self.core.push_at(ready, head.seq, node, EventKind::Wake);
                }
            }
            None => self.nodes.armed[node] = UNARMED,
        }
    }

    /// Runs one handler invocation and applies its buffered effects.
    /// Returns `true` if the handler requested a halt.
    fn dispatch(&mut self, start: Time, node: NodeId, kind: EventKind<P::Msg>) -> bool
    where
        P::Msg: Clone,
    {
        self.core.processed += 1;
        assert!(
            self.core.processed <= self.max_events,
            "event limit exceeded: protocol livelock?"
        );
        self.tel.add_at(node, Counter::SimEvents, 1);
        if matches!(kind, EventKind::Timer { .. }) {
            self.tel.add_at(node, Counter::TimerFires, 1);
        }

        let mut ctx = Ctx {
            now: start,
            me: node,
            n: self.nodes.programs.len(),
            consumed_user: 0,
            consumed_overhead: 0,
            effects: &mut self.effects_buf,
            timers: &mut self.timer_buf,
            halt: false,
            send_cpu_us: self.latency.send_cpu_us,
            seed: self.seed,
            seed_read: Cell::new(false),
        };
        match kind {
            EventKind::Start => self.nodes.programs[node].on_start(&mut ctx),
            EventKind::Message { from, msg } => {
                ctx.consumed_overhead += self.latency.recv_cpu_us;
                self.nodes.programs[node].on_message(&mut ctx, from, msg)
            }
            EventKind::Timer { tag } => self.nodes.programs[node].on_timer(&mut ctx, tag),
            #[expect(
                clippy::unreachable,
                reason = "routing events, wake markers and run heads are intercepted before dispatch"
            )]
            EventKind::Forward { .. } | EventKind::Wake | EventKind::Run(_) => {
                unreachable!("router/marker events never dispatch to a program")
            }
        }

        let consumed_user = ctx.consumed_user;
        let consumed_overhead = ctx.consumed_overhead;
        let consumed = consumed_user + consumed_overhead;
        let halt = ctx.halt;
        self.seed_read |= ctx.seed_read.get();

        self.nodes.stats[node].user_us += consumed_user;
        self.nodes.stats[node].overhead_us += consumed_overhead;
        if self.nodes.ready_at[node] != start + consumed {
            // A marker stands at the old free time: now stale.
            self.nodes.armed[node] = UNARMED;
            self.nodes.ready_at[node] = start + consumed;
        }
        self.last_activity = self.last_activity.max(start + consumed);
        if let Some(timelines) = &mut self.timelines {
            if consumed_overhead > 0 {
                timelines[node].push(crate::BusySpan {
                    start,
                    end: start + consumed_overhead,
                    kind: WorkKind::Overhead,
                });
            }
            if consumed_user > 0 {
                timelines[node].push(crate::BusySpan {
                    start: start + consumed_overhead,
                    end: start + consumed,
                    kind: WorkKind::User,
                });
            }
        }

        // Apply buffered effects. The buffers are swapped out so the
        // engine can be re-borrowed, then swapped back (capacity kept).
        let mut effects = std::mem::take(&mut self.effects_buf);
        for effect in effects.drain(..) {
            match effect {
                Effect::Send {
                    to,
                    msg,
                    bytes,
                    at_offset,
                } => self.push_send(node, start + at_offset, to, msg, bytes),
                Effect::Broadcast {
                    msg,
                    bytes,
                    base_offset,
                    signal,
                } => {
                    let step = if signal { 0 } else { self.latency.send_cpu_us };
                    let base = start + base_offset;
                    let mut depart = base;
                    let mut entries = Vec::with_capacity(self.nodes.len() - 1);
                    for to in (0..self.nodes.len()).filter(|&to| to != node) {
                        depart += step;
                        let (time, forward) = self.note_send(node, depart, to, bytes);
                        debug_assert_eq!(forward, self.contention, "distinct nodes at 0 hops");
                        entries.push(RunEntry::new(base, time, entries.len()));
                    }
                    let run = Run {
                        from: node,
                        forward: self.contention,
                        bytes,
                        msg: Some(msg),
                        first_seq: 0,
                        base,
                        entries,
                    };
                    self.core.open_run(run);
                    self.tel.add_at(node, Counter::BroadcastRuns, 1);
                }
            }
        }
        self.effects_buf = effects;

        let mut timers = std::mem::take(&mut self.timer_buf);
        for t in timers.drain(..) {
            self.core
                .push_next(start + t.fire_offset, node, EventKind::Timer { tag: t.tag });
        }
        self.timer_buf = timers;
        halt
    }

    /// Runs until the event queue drains or a handler calls
    /// [`Ctx::halt`]. Returns the accounting summary.
    ///
    /// # Panics
    /// Panics if more than `max_events` events are processed (protocol
    /// livelock guard).
    pub fn run(mut self) -> (Vec<P>, RunStats)
    where
        P::Msg: Clone,
    {
        use std::mem::size_of;
        'sim: loop {
            // High-water marks, taken where they peak: before a pop.
            let (heap, tail) = (self.core.queue.len() as u64, self.core.run_tail);
            self.peak_heap_len = self.peak_heap_len.max(heap);
            self.peak_depth = self.peak_depth.max(heap + tail + self.parked);
            self.peak_event_bytes = self.peak_event_bytes.max(
                heap * size_of::<Event<P::Msg>>() as u64
                    + self.parked * size_of::<LaneEvent<P::Msg>>() as u64
                    + tail * size_of::<RunEntry>() as u64,
            );
            let Some(ev) = self.core.pop() else { break };
            let node = ev.node;
            match ev.kind {
                // Router events are handled by the interconnect, not
                // the node's CPU: no deferral, no program involvement.
                EventKind::Forward {
                    from,
                    final_to,
                    msg,
                    bytes,
                } => {
                    self.core.processed += 1;
                    self.route_hop(ev.time, node, from, final_to, msg, bytes);
                }
                EventKind::Wake => {
                    let ready = self.nodes.ready_at[node];
                    // Every marker was pushed at the node's free time,
                    // which never falls: a valid one is exactly on it.
                    debug_assert!(
                        ev.time <= ready,
                        "node {node}: wake marker at {} after its free time {ready}",
                        ev.time
                    );
                    if self.nodes.armed[node] != ev.seq || ev.time != ready {
                        self.tel.add_at(node, Counter::StaleWakes, 1);
                        continue; // stale marker
                    }
                    #[expect(
                        clippy::expect_used,
                        reason = "a node is armed only when its lane is non-empty; the pop cannot fail"
                    )]
                    let head = self.nodes.lanes[node]
                        .as_deref_mut()
                        .and_then(BinaryHeap::pop)
                        .expect("armed node with empty lane")
                        .0;
                    debug_assert_eq!(head.seq, ev.seq);
                    self.parked -= 1;
                    self.nodes.armed[node] = UNARMED;
                    let halt = self.dispatch(ev.time, node, head.kind);
                    self.arm(node);
                    if halt {
                        break 'sim;
                    }
                }
                kind => {
                    // Respect sequential-node semantics: an event for a
                    // busy node parks in the node's deferral lane; the
                    // wake marker replays it (in original seq order) at
                    // the time the re-push scheme would have.
                    if self.nodes.ready_at[node] > ev.time {
                        self.nodes.lanes[node]
                            .get_or_insert_default()
                            .push(std::cmp::Reverse(LaneEvent { seq: ev.seq, kind }));
                        self.parked += 1;
                        if ev.seq < self.nodes.armed[node] {
                            self.arm(node);
                        }
                        continue;
                    }
                    let halt = self.dispatch(ev.time, node, kind);
                    self.arm(node);
                    if halt {
                        break 'sim;
                    }
                }
            }
        }

        let mem = MemStats {
            link_state_bytes: (self.link_free.len() * std::mem::size_of::<Time>()) as u64,
            node_state_bytes: self.nodes.len() as u64 * NodeCore::<P>::fixed_bytes_per_node(),
            peak_event_bytes: self.peak_event_bytes,
        };
        let stats = RunStats {
            end_time: self.last_activity,
            nodes: self.nodes.stats,
            net: self.net,
            events: self.core.processed,
            peak_queue_depth: self.peak_depth,
            peak_heap_len: self.peak_heap_len,
            mem,
            timelines: self.timelines,
            seed_read: self.seed_read,
        };
        (self.nodes.programs, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};
    use rips_topology::Mesh2D;

    /// Ping-pong program: node 0 sends a counter to node 1, which
    /// bounces it back, `ROUNDS` times.
    struct PingPong {
        seen: Vec<u32>,
    }

    const ROUNDS: u32 = 5;

    impl Program for PingPong {
        type Msg = u32;

        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            if ctx.me() == 0 {
                ctx.send(1, 0, 8);
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: NodeId, msg: u32) {
            self.seen.push(msg);
            if msg + 1 < ROUNDS * 2 {
                ctx.send(from, msg + 1, 8);
            }
        }
    }

    fn mesh(n: usize) -> Arc<dyn Topology> {
        Arc::new(Mesh2D::near_square(n))
    }

    #[test]
    fn ping_pong_alternates() {
        let eng = Engine::new(mesh(2), LatencyModel::paragon(), 42, |_| PingPong {
            seen: vec![],
        });
        let (progs, stats) = eng.run();
        assert_eq!(progs[1].seen, vec![0, 2, 4, 6, 8]);
        assert_eq!(progs[0].seen, vec![1, 3, 5, 7, 9]);
        assert_eq!(stats.net.msgs, 10);
        // 2 nodes adjacent in a 2x1 mesh: every message is 1 hop.
        assert_eq!(stats.net.hops, 10);
        assert!(stats.end_time > 0);
        assert!(stats.peak_queue_depth >= 1);
    }

    /// A node that computes in its start handler; arrival of a message
    /// mid-compute must be deferred until the compute finishes.
    struct Busy {
        got_at: Option<Time>,
    }

    impl Program for Busy {
        type Msg = ();

        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            if ctx.me() == 1 {
                ctx.compute(10_000, WorkKind::User);
            } else {
                ctx.send(1, (), 0);
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, ()>, _from: NodeId, _msg: ()) {
            self.got_at = Some(ctx.now());
        }
    }

    #[test]
    fn busy_node_defers_messages() {
        let lat = LatencyModel {
            alpha_us: 5,
            per_byte_ns: 0,
            per_hop_us: 0,
            send_cpu_us: 0,
            recv_cpu_us: 0,
        };
        let eng = Engine::new(mesh(2), lat, 1, |_| Busy { got_at: None });
        let (progs, stats) = eng.run();
        // Message arrives at t=5 but node 1 is busy until t=10_000.
        assert_eq!(progs[1].got_at, Some(10_000));
        assert_eq!(stats.nodes[1].user_us, 10_000);
        assert_eq!(stats.end_time, 10_000);
    }

    /// Many same-burst arrivals at one long-busy node: the deferral
    /// lane must deliver them in original send (seq) order, at the
    /// busy node's free time.
    struct Storm {
        order: Vec<u64>,
        got_at: Vec<Time>,
    }

    impl Program for Storm {
        type Msg = u64;

        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            if ctx.me() == 0 {
                ctx.compute(50_000, WorkKind::User);
            } else {
                // Every other node fires one message at the busy node;
                // seq order here is node-id order (Start events run in
                // node order).
                ctx.send(0, ctx.me() as u64, 8);
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, _from: NodeId, msg: u64) {
            self.order.push(msg);
            self.got_at.push(ctx.now());
            ctx.compute(100, WorkKind::User);
        }
    }

    #[test]
    fn deferral_lane_replays_in_seq_order() {
        let lat = LatencyModel {
            alpha_us: 5,
            per_byte_ns: 0,
            per_hop_us: 0,
            send_cpu_us: 0,
            recv_cpu_us: 0,
        };
        let eng = Engine::new(mesh(9), lat, 1, |_| Storm {
            order: vec![],
            got_at: vec![],
        });
        let (progs, _) = eng.run();
        // All 8 arrive while node 0 computes; they replay in send order.
        assert_eq!(progs[0].order, vec![1, 2, 3, 4, 5, 6, 7, 8]);
        // First replay exactly when the node frees, then back to back.
        assert_eq!(progs[0].got_at[0], 50_000);
        for w in progs[0].got_at.windows(2) {
            assert_eq!(w[1], w[0] + 100);
        }
    }

    /// A timer and a message parked behind a busy node: the lane
    /// replays them in sequence order, not in arrival-time order.
    struct ParkedTimer {
        log: Vec<(&'static str, Time)>,
    }

    impl Program for ParkedTimer {
        type Msg = u8;

        fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
            if ctx.me() == 0 {
                // Timer fires at t=10, mid-compute (busy until t=100).
                ctx.set_timer(10, 7);
                ctx.compute(100, WorkKind::User);
            } else {
                // Lands at t=5, but is sent after the timer was set.
                ctx.send(0, 1, 0);
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, u8>, _from: NodeId, _msg: u8) {
            self.log.push(("message", ctx.now()));
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, u8>, _tag: u64) {
            self.log.push(("timer", ctx.now()));
        }
    }

    #[test]
    fn parked_timer_replays_before_a_later_sent_message() {
        let lat = LatencyModel {
            alpha_us: 5,
            per_byte_ns: 0,
            per_hop_us: 0,
            send_cpu_us: 0,
            recv_cpu_us: 0,
        };
        let eng = Engine::new(mesh(2), lat, 1, |_| ParkedTimer { log: vec![] });
        let (progs, _) = eng.run();
        // Both the timer (set during node 0's Start, so lower seq) and
        // the message park behind the 100 µs compute. The message pops
        // first (t=5 < t=10), yet the lane replays the timer first.
        // This pins the old re-push scheme's exact ordering.
        assert_eq!(progs[0].log, vec![("timer", 100), ("message", 100)]);
    }

    /// Timers fire in deadline order, whatever order they were set in.
    struct Timers {
        fired: Vec<u64>,
    }

    impl Program for Timers {
        type Msg = ();

        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            if ctx.me() == 0 {
                ctx.set_timer(30, 3);
                ctx.set_timer(10, 1);
                ctx.set_timer(20, 2);
            }
        }

        fn on_message(&mut self, _ctx: &mut Ctx<'_, ()>, _from: NodeId, _msg: ()) {}

        fn on_timer(&mut self, _ctx: &mut Ctx<'_, ()>, tag: u64) {
            self.fired.push(tag);
        }
    }

    #[test]
    fn timers_fire_in_deadline_order() {
        let eng = Engine::new(mesh(1), LatencyModel::ideal(), 7, |_| Timers {
            fired: vec![],
        });
        let (progs, _) = eng.run();
        assert_eq!(progs[0].fired, vec![1, 2, 3]);
    }

    /// Halting stops the run even with events pending.
    struct Halter;

    impl Program for Halter {
        type Msg = u8;

        fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
            if ctx.me() == 0 {
                ctx.set_timer(1_000_000, 0); // would run forever-ish
                ctx.halt();
            }
        }

        fn on_message(&mut self, _ctx: &mut Ctx<'_, u8>, _from: NodeId, _msg: u8) {}
    }

    #[test]
    fn halt_stops_simulation() {
        let eng = Engine::new(mesh(4), LatencyModel::paragon(), 3, |_| Halter);
        let (_, stats) = eng.run();
        assert_eq!(stats.end_time, 0);
        assert!(stats.events <= 4);
    }

    /// Determinism: identical seeds give identical runs. Each node
    /// draws from its own stream, seeded at start from the engine's.
    struct RandomSpray {
        log: Vec<(NodeId, u64)>,
        hops_left: u32,
        rng: SmallRng,
    }

    impl RandomSpray {
        fn new(hops_left: u32) -> Self {
            RandomSpray {
                log: vec![],
                hops_left,
                rng: SmallRng::seed_from_u64(0), // reseeded in `on_start`
            }
        }
    }

    impl Program for RandomSpray {
        type Msg = u64;

        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            self.rng = SmallRng::seed_from_u64(ctx.seed() ^ ctx.me() as u64);
            if ctx.me() == 0 {
                let n = ctx.num_nodes();
                let v = self.rng.random_range(0..1000u64);
                let to = self.rng.random_range(0..n);
                ctx.send(to, v, 8);
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: NodeId, msg: u64) {
            self.log.push((from, msg));
            if self.hops_left > 0 {
                self.hops_left -= 1;
                let to = self.rng.random_range(0..ctx.num_nodes());
                ctx.send(to, msg + 1, 8);
            }
        }
    }

    fn spray_run(seed: u64) -> Vec<Vec<(NodeId, u64)>> {
        let eng = Engine::new(mesh(9), LatencyModel::paragon(), seed, |_| {
            RandomSpray::new(8)
        });
        let (progs, _) = eng.run();
        progs.into_iter().map(|p| p.log).collect()
    }

    #[test]
    fn deterministic_under_seed() {
        assert_eq!(spray_run(99), spray_run(99));
    }

    /// Routing holds no per-pair state: a 4 096-node machine models a
    /// few hundred bytes per node, where an `n × n` distance table
    /// alone would be 8 KiB per node.
    #[test]
    fn routing_costs_no_bytes_at_any_size() {
        let n = 64 * 64;
        let eng = Engine::new(
            Arc::new(Mesh2D::new(64, 64)),
            LatencyModel::paragon(),
            1,
            |_| PingPong { seen: vec![] },
        );
        let (_, stats) = eng.run();
        assert_eq!(stats.net.hops, 10);
        assert!(stats.mem.node_state_bytes > 0);
        assert!(
            stats.mem.total_bytes() < 1024 * n,
            "{} B for {n} nodes",
            stats.mem.total_bytes()
        );
    }

    /// A program that reads its seed in one handler of one node.
    struct ReadsSeedOnTimer;

    impl Program for ReadsSeedOnTimer {
        type Msg = u8;

        fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
            if ctx.me() == 2 {
                ctx.set_timer(50, 0);
            }
        }

        fn on_message(&mut self, _ctx: &mut Ctx<'_, u8>, _from: NodeId, _msg: u8) {}

        fn on_timer(&mut self, ctx: &mut Ctx<'_, u8>, _tag: u64) {
            let _ = ctx.seed();
        }
    }

    #[test]
    fn a_run_records_whether_it_read_its_seed() {
        let read = Engine::new(mesh(4), LatencyModel::paragon(), 5, |_| ReadsSeedOnTimer);
        assert!(
            read.run().1.seed_read,
            "one call in one handler sets the flag"
        );
        let never = Engine::new(mesh(2), LatencyModel::paragon(), 5, |_| PingPong {
            seen: vec![],
        });
        assert!(
            !never.run().1.seed_read,
            "a program that never asks leaves it false"
        );
    }

    #[test]
    fn different_seeds_diverge() {
        // Not guaranteed in principle, but overwhelmingly likely; if
        // this ever flakes the seed plumbing is broken anyway.
        assert_ne!(spray_run(1), spray_run(2));
    }

    #[test]
    fn send_cpu_charged_as_overhead() {
        let lat = LatencyModel {
            alpha_us: 0,
            per_byte_ns: 0,
            per_hop_us: 0,
            send_cpu_us: 7,
            recv_cpu_us: 11,
        };
        let eng = Engine::new(mesh(2), lat, 1, |_| PingPong { seen: vec![] });
        let (_, stats) = eng.run();
        // Node 0: 1 send in on_start + sends in on_message replies.
        assert!(stats.nodes[0].overhead_us >= 7);
        assert!(stats.nodes[1].overhead_us >= 11);
    }

    /// Broadcast fan-out: each of the k-th of `N - 1` recipients sees
    /// a departure offset of `(k + 1) · send_cpu`, exactly as if the
    /// sends had been issued one by one.
    struct Shout {
        got_at: Option<Time>,
    }

    impl Program for Shout {
        type Msg = u32;

        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            if ctx.me() == 0 {
                ctx.send_all(42, 16);
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, _from: NodeId, msg: u32) {
            assert_eq!(msg, 42);
            self.got_at = Some(ctx.now());
        }
    }

    #[test]
    fn broadcast_staggers_departures_by_send_cpu() {
        let lat = LatencyModel {
            alpha_us: 5,
            per_byte_ns: 0,
            per_hop_us: 0,
            send_cpu_us: 7,
            recv_cpu_us: 0,
        };
        let eng = Engine::new(mesh(4), lat, 1, |_| Shout { got_at: None });
        let (progs, stats) = eng.run();
        // Recipients in node order: node 1 departs at offset 7, node 2
        // at 14, node 3 at 21; arrival adds alpha = 5 (zero per-hop).
        assert_eq!(progs[1].got_at, Some(12));
        assert_eq!(progs[2].got_at, Some(19));
        assert_eq!(progs[3].got_at, Some(26));
        // Sender was charged all three send costs.
        assert_eq!(stats.nodes[0].overhead_us, 21);
        assert_eq!(stats.net.msgs, 3);
    }

    /// A delivery the broadcast's latency puts exactly `u32::MAX` µs
    /// after its issue time.
    fn widest_offset_latency(extra: Time) -> LatencyModel {
        LatencyModel {
            alpha_us: Time::from(u32::MAX) - 1 + extra,
            per_byte_ns: 0,
            per_hop_us: 0,
            send_cpu_us: 1,
            recv_cpu_us: 0,
        }
    }

    /// A run owes each recipient 8 bytes: a `u32` offset from the run's
    /// base time and a `u32` rank. The widest offset reads back whole.
    #[test]
    fn a_run_entry_is_two_u32s() {
        assert_eq!(std::mem::size_of::<RunEntry>(), 8);
        let lat = widest_offset_latency(0);
        let (progs, _) = Engine::new(mesh(2), lat, 1, |_| Shout { got_at: None }).run();
        assert_eq!(progs[1].got_at, Some(Time::from(u32::MAX)));
    }

    #[test]
    #[should_panic(expected = "broadcast run entry 4294967296 µs after its base is past u32::MAX")]
    fn a_run_entry_past_u32_panics() {
        let lat = widest_offset_latency(1);
        Engine::new(mesh(2), lat, 1, |_| Shout { got_at: None }).run();
    }

    /// Differential harness for broadcast runs: the same script driven
    /// once through `send_all`/`signal_all` (`folded`) and once through
    /// the `n - 1` point-to-point calls a program would issue itself.
    /// Both buffer identical effects, so everything observable — logs,
    /// virtual times, stats, the logical queue depth — must agree; only
    /// the real heap length and the bytes it models may differ.
    #[derive(Clone, Default)]
    struct Script {
        folded: bool,
        /// Nodes that broadcast from `on_start` (all at time 0).
        broadcasters: Vec<NodeId>,
        signal: bool,
        /// `(node, µs)` of user compute at start: busy recipients.
        busy: Vec<(NodeId, Time)>,
        /// Node that re-broadcasts from its first message handler.
        echo: Option<NodeId>,
        /// `(node, k)`: the node halts the run on its k-th message.
        halt_at: Option<(NodeId, usize)>,
    }

    struct Diff {
        script: Arc<Script>,
        /// `(handler time, sender, payload)` per delivery, in order.
        log: Vec<(Time, NodeId, u64)>,
        fired: Vec<(Time, u64)>,
    }

    impl Diff {
        /// A broadcast followed by a send and a timer, so the effects
        /// after it depend on the block of seqs it reserved.
        fn shout(&self, ctx: &mut Ctx<'_, u64>, msg: u64, signal: bool) {
            let (me, n) = (ctx.me(), ctx.num_nodes());
            match (self.script.folded, signal) {
                (true, true) => ctx.signal_all(msg),
                (true, false) => ctx.send_all(msg, 16),
                (false, true) => (0..n)
                    .filter(|&to| to != me)
                    .for_each(|to| ctx.signal(to, msg)),
                (false, false) => (0..n)
                    .filter(|&to| to != me)
                    .for_each(|to| ctx.send(to, msg, 16)),
            }
            ctx.send((me + 1) % n, 1_000 + msg, 8);
            ctx.set_timer(3, msg);
        }
    }

    impl Program for Diff {
        type Msg = u64;

        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            let me = ctx.me();
            if let Some(&(_, us)) = self.script.busy.iter().find(|b| b.0 == me) {
                ctx.compute(us, WorkKind::User);
            }
            if self.script.broadcasters.contains(&me) {
                self.shout(ctx, me as u64, self.script.signal);
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: NodeId, msg: u64) {
            self.log.push((ctx.now(), from, msg));
            // Handlers take time, so same-instant arrivals queue up in
            // the deferral lanes.
            ctx.compute(2, WorkKind::User);
            if self.script.echo == Some(ctx.me()) && self.log.len() == 1 {
                self.shout(ctx, 100 + ctx.me() as u64, !self.script.signal);
            }
            if self.script.halt_at == Some((ctx.me(), self.log.len())) {
                ctx.halt();
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, tag: u64) {
            self.fired.push((ctx.now(), tag));
        }
    }

    type DiffRun = (
        Vec<Vec<(Time, NodeId, u64)>>,
        Vec<Vec<(Time, u64)>>,
        RunStats,
    );

    fn diff_run(script: &Script, n: usize, lat: LatencyModel, contention: bool) -> DiffRun {
        let script = Arc::new(script.clone());
        let mut eng = Engine::new(mesh(n), lat, 5, |_| Diff {
            script: Arc::clone(&script),
            log: vec![],
            fired: vec![],
        });
        eng.enable_contention(contention);
        let (progs, stats) = eng.run();
        let (logs, fired) = progs.into_iter().map(|p| (p.log, p.fired)).unzip();
        (logs, fired, stats)
    }

    /// Runs `script` folded and unfolded and asserts they agree.
    /// Returns the folded run's stats.
    fn assert_folds(script: &Script, n: usize, lat: LatencyModel, contention: bool) -> RunStats {
        let folded = Script {
            folded: true,
            ..script.clone()
        };
        let (logs_f, fired_f, stats_f) = diff_run(&folded, n, lat, contention);
        let (logs_u, fired_u, mut stats_u) = diff_run(script, n, lat, contention);
        let what = format!("n={n} {lat:?} contention={contention}");
        assert_eq!(logs_f, logs_u, "delivery logs, {what}");
        assert_eq!(fired_f, fired_u, "timer logs, {what}");
        assert!(stats_f.peak_heap_len <= stats_u.peak_heap_len, "{what}");
        assert!(
            stats_f.mem.peak_event_bytes <= stats_u.mem.peak_event_bytes,
            "{what}"
        );
        stats_u.peak_heap_len = stats_f.peak_heap_len;
        stats_u.mem.peak_event_bytes = stats_f.mem.peak_event_bytes;
        assert_eq!(stats_f, stats_u, "RunStats, {what}");
        stats_f
    }

    fn diff_latencies() -> Vec<LatencyModel> {
        let mut models = vec![LatencyModel::ideal(), LatencyModel::paragon()];
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |m: u64| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            (x >> 33) % m
        };
        for _ in 0..12 {
            models.push(LatencyModel {
                alpha_us: next(20),
                per_byte_ns: next(2_000),
                per_hop_us: next(6),
                send_cpu_us: next(9),
                recv_cpu_us: next(5),
            });
        }
        models
    }

    fn diff_scripts(n: usize) -> Vec<Script> {
        let busy = vec![(3 % n, 400), (4 % n, 90), ((n - 1) % n, 7)];
        let base = Script {
            busy,
            ..Script::default()
        };
        let mut scripts = Vec::new();
        for signal in [false, true] {
            for broadcasters in [vec![0], vec![n - 1], vec![0, n / 2], (0..n).collect()] {
                scripts.push(Script {
                    signal,
                    broadcasters,
                    echo: Some(n / 2),
                    ..base.clone()
                });
            }
            // Halt with runs half delivered: the middle node stops the
            // machine on its second message.
            scripts.push(Script {
                signal,
                broadcasters: vec![0, n - 1],
                halt_at: Some((n / 2, 2)),
                ..base.clone()
            });
        }
        scripts
    }

    #[test]
    fn broadcast_runs_match_unfolded_sends() {
        for lat in diff_latencies() {
            for script in diff_scripts(9) {
                for contention in [false, true] {
                    assert_folds(&script, 9, lat, contention);
                }
            }
        }
    }

    #[test]
    fn broadcast_runs_match_unfolded_sends_on_tiny_machines() {
        for n in [1, 2] {
            for lat in diff_latencies() {
                for script in diff_scripts(n) {
                    let stats = assert_folds(&script, n, lat, false);
                    // One node broadcasts to nobody, and says so: all it
                    // counts are its 8-byte sends to itself, no 16-byte
                    // or payload-free broadcast copy.
                    let net = stats.net;
                    assert!(n > 1 || (net.msgs > 0 && net.bytes == 8 * net.msgs && net.hops == 0));
                }
            }
        }
    }

    /// What the run buys: `n` simultaneous software broadcasts are
    /// `n (n - 1)` outstanding deliveries but only `n` heap entries.
    #[test]
    fn overlapping_broadcasts_keep_one_heap_entry_each() {
        let n = 9;
        let script = Script {
            broadcasters: (0..n).collect(),
            ..Script::default()
        };
        let stats = assert_folds(&script, n, LatencyModel::paragon(), false);
        assert!(stats.peak_queue_depth >= (n * (n - 1)) as u64);
        // Per node: a run head, the trailing send and timer, a wake marker.
        assert!(
            stats.peak_heap_len <= 4 * n as u64,
            "{}",
            stats.peak_heap_len
        );
        let event = std::mem::size_of::<Event<u64>>() as u64;
        assert!(stats.mem.peak_event_bytes < stats.peak_queue_depth * event);
    }

    /// What the loop drops on the floor is counted: the stale wake
    /// markers a re-armed lane leaves behind, and each broadcast folded
    /// into a run. A run that does neither counts nothing.
    #[test]
    fn discards_and_runs_are_counted() {
        use rips_trace::{with_metrics, MetricsRegistry, Telemetry};
        let counts = |run: &dyn Fn(Telemetry)| {
            let reg = MetricsRegistry::new(9);
            with_metrics(&reg, || run(Telemetry::current()));
            let snap = reg.snapshot();
            [Counter::StaleWakes, Counter::BroadcastRuns].map(|c| snap.counter(c))
        };
        let timers = counts(&|tel| {
            let mut eng = Engine::new(mesh(1), LatencyModel::ideal(), 7, |_| Timers {
                fired: vec![],
            });
            eng.set_telemetry(tel);
            eng.run();
        });
        assert_eq!(timers, [0, 0]);
        let script = Script {
            folded: true,
            broadcasters: (0..9).collect(),
            busy: vec![(4, 400)],
            ..Script::default()
        };
        let shouts = counts(&|tel| {
            let script = Arc::new(script.clone());
            let mut eng = Engine::new(mesh(9), LatencyModel::paragon(), 5, |_| Diff {
                script: Arc::clone(&script),
                log: vec![],
                fired: vec![],
            });
            eng.set_telemetry(tel);
            eng.run();
        });
        assert!(shouts[0] > 0, "lanes re-armed under a broadcast storm");
        assert_eq!(shouts[1], 9);
    }
}
