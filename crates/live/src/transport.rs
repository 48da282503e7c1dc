//! The live fabric: batched packets over sharded SPSC rings.
//!
//! Every kernel message a node emits during one dispatch round is
//! coalesced into a per-destination [`Packet`] and the packet — not the
//! individual message — is what travels an edge. A system phase that
//! sends dozens of protocol messages to the same peer therefore costs
//! O(edges) transport operations instead of O(messages).
//!
//! Delivery is one SPSC ring per directed edge ([`crate::ring`]),
//! polled round-robin, with park/unpark wakeups. An idle receiver
//! advertises `parked = true`, issues a `SeqCst` fence, re-polls every
//! ring, and only then parks; a sender publishes its push, issues the
//! matching fence, and unparks the receiver iff it observed the parked
//! flag. The fence pair makes a lost wakeup impossible: whichever fence
//! comes first in the total order, either the receiver's re-poll sees
//! the push or the sender's load sees the park.
//!
//! Shutdown raises a global halt flag and unparks everyone (a marker
//! message would have to out-race full rings). In-flight packets are
//! dropped after halt — by then the workload is complete (halt is only
//! decided once the final round's outstanding count hit zero), so only
//! protocol chatter is lost.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use rips_verify::sync::atomic::{AtomicBool, Ordering};
use rips_verify::sync::{fence_at, ord};
use rips_verify::vthread;
use rips_verify::vthread::Thread;

use rips_desim::Time;
use rips_topology::NodeId;
use rips_trace::Clock;

use crate::ring::{self, RingRx, RingTx};

/// Capacity (packets) of each per-edge SPSC ring. A full ring makes
/// the sender spin-yield, so this only bounds memory, not correctness.
const RING_CAP: usize = 256;

/// One batch of kernel messages travelling a single directed edge.
pub struct Packet<M> {
    /// Sending node.
    pub from: NodeId,
    /// Messages in emission order (per-edge FIFO is preserved
    /// end-to-end: outbox order within a packet, ring order across
    /// packets).
    pub msgs: Vec<M>,
}

/// Result of one receive attempt.
pub(crate) enum Recv<M> {
    Packet(Packet<M>),
    Halt,
    Empty,
}

/// Per-node wakeup state.
struct PeerCtl {
    /// Set by the node before parking; checked by senders after
    /// publishing (see module docs for the fence protocol).
    parked: AtomicBool,
    /// Set when the node's loop has exited (normally or by panic), so
    /// senders never spin forever on its full rings.
    exited: AtomicBool,
    /// The node's thread handle, registered before its loop starts.
    thread: Mutex<Option<Thread>>,
}

/// Run-global control block.
pub(crate) struct RunCtl {
    /// Global shutdown flag.
    halt: AtomicBool,
    peers: Vec<PeerCtl>,
}

impl RunCtl {
    fn new(n: usize) -> Self {
        RunCtl {
            halt: AtomicBool::new(false),
            peers: (0..n)
                .map(|_| PeerCtl {
                    parked: AtomicBool::new(false),
                    exited: AtomicBool::new(false),
                    thread: Mutex::new(None),
                })
                .collect(),
        }
    }

    fn wake(&self, node: NodeId) {
        let guard = self.peers[node]
            .thread
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        if let Some(t) = guard.as_ref() {
            t.unpark();
        }
    }

    fn wake_all(&self) {
        for node in 0..self.peers.len() {
            self.wake(node);
        }
    }
}

/// A node's sending half: the producer end of one ring per destination.
pub(crate) struct NodeTx<M> {
    txs: Vec<RingTx<Packet<M>>>,
    ctl: Arc<RunCtl>,
}

impl<M> NodeTx<M> {
    /// Delivers one packet to `to`, spin-yielding while its ring is
    /// full. Once the machine has halted or `to` has exited the packet
    /// is dropped instead (see module docs).
    pub fn send(&mut self, to: NodeId, mut packet: Packet<M>) {
        while let Err(back) = self.txs[to].push(packet) {
            if self.ctl.halt.load(Ordering::Acquire)
                || self.ctl.peers[to].exited.load(Ordering::Acquire)
            {
                return; // machine is shutting down: drop
            }
            packet = back;
            vthread::yield_now();
        }
        // Dekker-style wakeup: the push's Release store, then a
        // SeqCst fence, then the parked check — pairs with the
        // receiver's store-fence-repoll sequence in recv_wait.
        fence_at("transport.wake.sender", Ordering::SeqCst);
        if self.ctl.peers[to].parked.load(Ordering::Relaxed) {
            self.ctl.wake(to);
        }
    }

    /// Announces global shutdown to every peer.
    pub fn broadcast_halt(&mut self) {
        self.ctl
            .halt
            .store(true, ord("transport.halt.publish", Ordering::SeqCst));
        self.ctl.wake_all();
    }
}

/// A node's receiving half: the consumer end of one ring per source.
pub(crate) struct NodeRx<M> {
    me: NodeId,
    rxs: Vec<RingRx<Packet<M>>>,
    ctl: Arc<RunCtl>,
    /// Round-robin cursor over source rings, for fairness.
    cursor: usize,
}

impl<M> NodeRx<M> {
    /// Registers the calling thread for wakeups and arms the exit
    /// guard. Must be called on the node's own thread before its loop.
    pub fn register(&self) -> ExitGuard {
        *self.ctl.peers[self.me]
            .thread
            .lock()
            .unwrap_or_else(|p| p.into_inner()) = Some(vthread::current());
        ExitGuard {
            ctl: Arc::clone(&self.ctl),
            me: self.me,
        }
    }

    /// This node's "about to park" advertisement.
    fn parked(&self) -> &AtomicBool {
        &self.ctl.peers[self.me].parked
    }

    /// Non-blocking poll.
    pub fn try_recv(&mut self) -> Recv<M> {
        if self.ctl.halt.load(Ordering::Acquire) {
            return Recv::Halt;
        }
        let n = self.rxs.len();
        for i in 0..n {
            let idx = (self.cursor + i) % n;
            if let Some(p) = self.rxs[idx].pop() {
                self.cursor = (idx + 1) % n;
                return Recv::Packet(p);
            }
        }
        Recv::Empty
    }

    /// Blocks until a message may be available or `deadline` (absolute
    /// µs on `clock`) passes. `Recv::Empty` means "re-poll and re-check
    /// timers" — the caller loops, so spurious wakeups are harmless.
    pub fn recv_wait(&mut self, deadline: Option<Time>, clock: &dyn Clock) -> Recv<M> {
        // Advertise the park, fence, re-poll, then really park.
        self.parked()
            .store(true, ord("transport.park.advertise", Ordering::SeqCst));
        fence_at("transport.park.receiver", Ordering::SeqCst);
        match self.try_recv() {
            Recv::Empty => {}
            found => {
                self.parked().store(false, Ordering::Relaxed);
                return found;
            }
        }
        match deadline {
            Some(d) => {
                let now = clock.now_us();
                if d > now {
                    vthread::park_timeout(Duration::from_micros(d - now));
                }
            }
            None => vthread::park(),
        }
        self.parked().store(false, Ordering::Relaxed);
        Recv::Empty
    }

    /// Total packets currently queued across this node's receive rings.
    /// Feeds the `RingDepth` trace counter.
    pub fn occupancy(&self) -> u64 {
        self.rxs.iter().map(|r| r.len() as u64).sum()
    }
}

/// Marks the node exited (and, on panic, halts the whole machine) so
/// no peer spins or parks forever waiting on a dead thread. Held by
/// the node loop; `Drop` runs on unwind too.
pub(crate) struct ExitGuard {
    ctl: Arc<RunCtl>,
    me: NodeId,
}

impl Drop for ExitGuard {
    fn drop(&mut self) {
        self.ctl.peers[self.me].exited.store(true, Ordering::SeqCst);
        if std::thread::panicking() {
            self.ctl.halt.store(true, Ordering::SeqCst);
        }
        self.ctl.wake_all();
    }
}

/// Builds the fabric for an `n`-node run: one `(tx, rx)` pair per
/// node, to be moved into the node threads.
pub(crate) fn build<M>(n: usize) -> Vec<(NodeTx<M>, NodeRx<M>)> {
    let ctl = Arc::new(RunCtl::new(n));
    // Sources are visited in order, so `rxs[dst][src]` ends up the
    // consumer end of the ring whose producer end is `txs[src][dst]`.
    let mut rxs: Vec<Vec<_>> = (0..n).map(|_| Vec::with_capacity(n)).collect();
    let txs: Vec<Vec<_>> = (0..n)
        .map(|_src| {
            rxs.iter_mut()
                .map(|into_dst| {
                    let (t, r) = ring::spsc(RING_CAP);
                    into_dst.push(r);
                    t
                })
                .collect()
        })
        .collect();
    txs.into_iter()
        .zip(rxs)
        .enumerate()
        .map(|(me, (txs, rxs))| {
            let tx = NodeTx {
                txs,
                ctl: Arc::clone(&ctl),
            };
            let rx = NodeRx {
                me,
                rxs,
                ctl: Arc::clone(&ctl),
                cursor: 0,
            };
            (tx, rx)
        })
        .collect()
}

/// Per-dispatch outgoing message batcher: every message the kernel
/// emits while handling one event lands in a per-destination bin, and
/// the node loop flushes each touched bin as a single [`Packet`] when
/// the handler returns.
pub struct Outbox<M> {
    bins: Vec<Vec<M>>,
    touched: Vec<NodeId>,
}

impl<M> Outbox<M> {
    /// An empty outbox for an `n`-node run.
    pub fn new(n: usize) -> Self {
        Outbox {
            bins: (0..n).map(|_| Vec::new()).collect(),
            touched: Vec::with_capacity(n),
        }
    }

    /// Queues `msg` for `to`.
    pub fn push(&mut self, to: NodeId, msg: M) {
        if self.bins[to].is_empty() {
            self.touched.push(to);
        }
        self.bins[to].push(msg);
    }

    /// True when nothing is queued (the common case at a dispatch
    /// boundary — checked before any flush work).
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// Sends every touched bin as one packet, invoking `on_batch(to,
    /// len)` per packet (the trace hook).
    pub(crate) fn flush(
        &mut self,
        from: NodeId,
        tx: &mut NodeTx<M>,
        mut on_batch: impl FnMut(NodeId, usize),
    ) {
        for to in self.touched.drain(..) {
            let msgs = std::mem::take(&mut self.bins[to]);
            on_batch(to, msgs.len());
            tx.send(to, Packet { from, msgs });
        }
    }
}

/// Bounded model checking of the park/unpark wakeup protocol (PR 9):
/// the checker's stale-read machinery can make the receiver's re-poll
/// miss a published push and the sender's `parked` check miss the
/// receiver's advertisement — exactly the lost wakeup the SeqCst fence
/// pair forbids. Deleting either fence turns the model into a
/// replayable deadlock. Compiled only under `--cfg rips_verify`.
#[cfg(all(test, rips_verify))]
mod verify_model {
    use super::*;
    use rips_trace::metrics_rt::ManualNs;
    use rips_verify::{Checker, Mutation, MutationKind, ViolationKind};

    /// One packet from node 0 to a receiver that parks (deadline-free)
    /// until it arrives: the full advertise-fence-repoll-park dance on
    /// the receiver against push-fence-check-wake on the sender.
    fn wakeup_model() -> impl Fn() + Send + Sync + 'static {
        || {
            let mut fabric = build::<u32>(2);
            let (mut tx0, _rx0) = fabric.remove(0);
            let (_tx1, mut rx1) = fabric.remove(0);
            let h = vthread::spawn_named("receiver", move || {
                let _guard = rx1.register();
                loop {
                    match rx1.recv_wait(None, &ManualNs::new()) {
                        Recv::Packet(p) => return p.msgs,
                        Recv::Halt => panic!("unexpected halt"),
                        Recv::Empty => continue,
                    }
                }
            });
            tx0.send(
                1,
                Packet {
                    from: 0,
                    msgs: vec![7],
                },
            );
            assert_eq!(h.join().expect("receiver"), vec![7]);
        }
    }

    /// Halt must reach a parked receiver: `broadcast_halt` raises the
    /// flag and unparks everyone.
    fn halt_model() -> impl Fn() + Send + Sync + 'static {
        || {
            let mut fabric = build::<u32>(2);
            let (mut tx0, _rx0) = fabric.remove(0);
            let (_tx1, mut rx1) = fabric.remove(0);
            let h = vthread::spawn_named("receiver", move || {
                let _guard = rx1.register();
                loop {
                    match rx1.recv_wait(None, &ManualNs::new()) {
                        Recv::Halt => return,
                        Recv::Packet(_) => panic!("unexpected packet"),
                        Recv::Empty => continue,
                    }
                }
            });
            tx0.broadcast_halt();
            h.join().expect("receiver");
        }
    }

    #[test]
    fn model_wakeup_protocol_is_clean() {
        let stats = Checker::from_env("live.transport.wakeup")
            .check(wakeup_model())
            .expect("shipped wakeup protocol must be violation-free");
        assert!(stats.executions > 1);
    }

    #[test]
    fn model_halt_reaches_parked_receiver() {
        Checker::from_env("live.transport.halt")
            .check(halt_model())
            .expect("halt broadcast must terminate the receiver");
    }

    #[test]
    fn sweep_deleting_either_fence_loses_the_wakeup() {
        for site in ["transport.wake.sender", "transport.park.receiver"] {
            let v = Checker::from_env(&format!("live.transport.sweep.{site}"))
                .mutation(Mutation {
                    site,
                    kind: MutationKind::DeleteFence,
                })
                .check(wakeup_model())
                .unwrap_err();
            assert_eq!(
                v.kind,
                ViolationKind::Deadlock,
                "deleting {site} must lose the wakeup, got:\n{}",
                v.replay
            );
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
    use rips_trace::metrics_rt::ManualNs;

    fn drain_one<M>(rx: &mut NodeRx<M>) -> Option<Packet<M>> {
        match rx.try_recv() {
            Recv::Packet(p) => Some(p),
            _ => None,
        }
    }

    /// A one-message packet from node 0.
    fn pkt<M>(msg: M) -> Packet<M> {
        Packet {
            from: 0,
            msgs: vec![msg],
        }
    }

    /// Node 0's sending half and node 1's receiving half of a fresh
    /// `n`-node fabric: the two ends of the edge 0 -> 1.
    fn edge<M>(n: usize) -> (NodeTx<M>, NodeRx<M>) {
        let mut fabric = build::<M>(n).into_iter();
        let (tx0, _) = fabric.next().expect("node 0");
        let (_, rx1) = fabric.next().expect("node 1");
        (tx0, rx1)
    }

    #[test]
    fn outbox_batches_per_destination_in_order() {
        let (mut tx0, mut rx1) = edge::<u32>(3);
        let mut ob = Outbox::new(3);
        assert!(ob.is_empty());
        ob.push(1, 10);
        ob.push(2, 20);
        ob.push(1, 11);
        let mut batches = Vec::new();
        ob.flush(0, &mut tx0, |to, len| batches.push((to, len)));
        assert!(ob.is_empty());
        assert_eq!(batches, vec![(1, 2), (2, 1)]);
        let p = drain_one(&mut rx1).expect("packet for node 1");
        assert_eq!(p.from, 0);
        assert_eq!(p.msgs, vec![10, 11]);
    }

    #[test]
    fn delivers_fifo_per_edge() {
        let (mut tx0, mut rx1) = edge::<u64>(2);
        for i in 0..10u64 {
            tx0.send(1, pkt(i));
        }
        for i in 0..10u64 {
            let p = drain_one(&mut rx1).unwrap_or_else(|| panic!("pkt {i}"));
            assert_eq!(p.msgs, vec![i]);
        }
        assert!(matches!(rx1.try_recv(), Recv::Empty));
    }

    #[test]
    fn halt_broadcast_reaches_peers() {
        let (mut tx0, mut rx1) = edge::<u8>(2);
        tx0.broadcast_halt();
        assert!(matches!(rx1.try_recv(), Recv::Halt));
    }

    #[test]
    fn parked_receiver_is_woken_by_send() {
        let (mut tx0, mut rx1) = edge::<u32>(2);
        std::thread::scope(|s| {
            let h = s.spawn(move || {
                let _guard = rx1.register();
                // Park with no deadline until the packet arrives.
                loop {
                    match rx1.recv_wait(None, &ManualNs::new()) {
                        Recv::Packet(p) => return p.msgs,
                        Recv::Halt => panic!("unexpected halt"),
                        Recv::Empty => continue,
                    }
                }
            });
            std::thread::sleep(Duration::from_millis(20));
            tx0.send(1, pkt(7));
            assert_eq!(h.join().expect("receiver"), vec![7]);
        });
    }

    #[test]
    fn recv_wait_times_out_against_clock() {
        let mut fabric = build::<u32>(1);
        let (_tx, mut rx) = fabric.remove(0);
        let _guard = rx.register();
        // Deadline in the past returns Empty promptly (no park).
        assert!(matches!(
            rx.recv_wait(Some(0), &ManualNs::new()),
            Recv::Empty
        ));
        // Future deadline parks and wakes by timeout.
        assert!(matches!(
            rx.recv_wait(Some(2000), &ManualNs::new()),
            Recv::Empty
        ));
    }

    #[test]
    fn occupancy_counts_queued_packets() {
        let (mut tx0, rx1) = edge::<u16>(2);
        assert_eq!(rx1.occupancy(), 0);
        for _ in 0..3 {
            tx0.send(1, pkt(1));
        }
        assert_eq!(rx1.occupancy(), 3);
    }

    #[test]
    fn send_to_an_exited_peer_returns_when_its_ring_is_full() {
        // Node 1's loop has ended without draining: once its ring is
        // full, a send must drop the packet instead of spinning on a
        // consumer that will never pop.
        let (mut tx0, rx1) = edge::<u32>(2);
        drop(rx1.register());
        for i in 0..=RING_CAP as u32 {
            tx0.send(1, pkt(i));
        }
        assert_eq!(rx1.occupancy(), RING_CAP as u64);
    }

    #[test]
    fn panic_under_the_exit_guard_halts_every_peer() {
        let mut fabric = build::<u32>(3).into_iter();
        let (_tx0, rx0) = fabric.next().expect("node 0");
        let died = std::thread::spawn(move || {
            let _guard = rx0.register();
            panic!("node 0 dies mid-run (expected by this test)");
        })
        .join();
        assert!(died.is_err());
        for (_tx, mut rx) in fabric {
            assert!(matches!(rx.try_recv(), Recv::Halt));
        }
    }
}
