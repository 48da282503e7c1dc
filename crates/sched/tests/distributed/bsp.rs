//! Lock-step executor for neighbour-restricted per-node programs, and
//! the per-link flow map the message-passing oracles are compared by.
//!
//! The paper's system phase is *synchronous* ("parallel scheduling is
//! stable because of its synchronous operation", §1) and MWA's cost is
//! stated in **communication steps**: synchronized rounds in which
//! every node may exchange one message with a direct neighbour.
//! [`BspMachine`] runs per-node state machines under exactly that
//! model and counts the rounds. RIPS does not plan with it: the
//! message-passing MWA oracle (`dmwa`) runs on it, so the tests can
//! hold the closed-form step bound [`mwa_steps`] against a measured
//! count.
//!
//! [`mwa_steps`]: crate::mwa_steps

use std::collections::BTreeMap;

use rips_topology::{NodeId, Topology};

use crate::plan::TransferPlan;

/// Aggregates a plan into per-directed-link flows: what an oracle's
/// plan must share with the centralized one, move order aside.
pub fn link_flows(plan: &TransferPlan) -> BTreeMap<(NodeId, NodeId), i64> {
    let mut m = BTreeMap::new();
    for mv in &plan.moves {
        *m.entry((mv.from, mv.to)).or_insert(0) += mv.count;
    }
    m
}

/// One node's behaviour under the BSP model.
///
/// Each round, every node receives the messages sent to it in the
/// previous round and may send at most one message per incident link.
/// The machine stops when a round passes with no messages in flight.
pub trait BspProgram {
    /// Message payload.
    type Msg;

    /// Executes one round. `inbox` holds `(sender, payload)` pairs from
    /// the previous round (empty in round 0). Returned messages must
    /// address direct neighbours only — the machine panics otherwise,
    /// because a non-neighbour send would silently break the
    /// step-counting model.
    fn round(
        &mut self,
        me: NodeId,
        round: usize,
        inbox: Vec<(NodeId, Self::Msg)>,
        outbox: &mut Vec<(NodeId, Self::Msg)>,
    );
}

/// Result of running a [`BspMachine`] to quiescence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BspOutcome {
    /// Number of communication steps: rounds in which at least one
    /// message was in flight. This is the quantity the paper's
    /// `3(n1+n2)` bound counts.
    pub comm_steps: usize,
    /// Total messages exchanged.
    pub messages: usize,
}

/// Deterministic synchronous executor over a topology.
pub struct BspMachine<'t, P: BspProgram> {
    topo: &'t dyn Topology,
    nodes: Vec<P>,
}

impl<'t, P: BspProgram> BspMachine<'t, P> {
    /// One program per node, created by `make(node_id)`.
    pub fn new(topo: &'t dyn Topology, make: impl FnMut(NodeId) -> P) -> Self {
        let nodes = (0..topo.len()).map(make).collect();
        BspMachine { topo, nodes }
    }

    /// Runs rounds until no messages were produced in a round, then
    /// returns the programs (carrying their final state) and the
    /// outcome.
    ///
    /// # Panics
    /// Panics if a program addresses a non-neighbour, or if the machine
    /// fails to quiesce within `max_rounds`.
    pub fn run(mut self, max_rounds: usize) -> (Vec<P>, BspOutcome) {
        let n = self.topo.len();
        let mut inboxes: Vec<Vec<(NodeId, P::Msg)>> = (0..n).map(|_| Vec::new()).collect();
        let mut comm_steps = 0usize;
        let mut messages = 0usize;
        for round in 0.. {
            assert!(round <= max_rounds, "BSP machine failed to quiesce");
            let mut next: Vec<Vec<(NodeId, P::Msg)>> = (0..n).map(|_| Vec::new()).collect();
            let mut sent = 0usize;
            let mut outbox = Vec::new();
            for (me, prog) in self.nodes.iter_mut().enumerate() {
                let inbox = std::mem::take(&mut inboxes[me]);
                prog.round(me, round, inbox, &mut outbox);
                for (to, msg) in outbox.drain(..) {
                    assert!(
                        self.topo.distance(me, to) == 1,
                        "BSP send {me} -> {to} is not a neighbour link on {}",
                        self.topo.label()
                    );
                    sent += 1;
                    next[to].push((me, msg));
                }
            }
            if sent == 0 && round > 0 {
                break;
            }
            if sent > 0 {
                comm_steps += 1;
                messages += sent;
            } else if round == 0 {
                // A program may do local-only work in round 0 and stop.
                break;
            }
            inboxes = next;
        }
        (
            self.nodes,
            BspOutcome {
                comm_steps,
                messages,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rips_topology::Mesh2D;

    /// Token passing along a line of 8 (a ring without its wrap link):
    /// node 0 emits a token that each node forwards once; quiesces
    /// after n-1 steps.
    struct Forward {
        seen: bool,
    }

    impl BspProgram for Forward {
        type Msg = u32;

        fn round(
            &mut self,
            me: NodeId,
            round: usize,
            inbox: Vec<(NodeId, u32)>,
            outbox: &mut Vec<(NodeId, u32)>,
        ) {
            if me == 0 && round == 0 {
                self.seen = true;
                outbox.push((1, 1));
            }
            for (_, tok) in inbox {
                if !self.seen {
                    self.seen = true;
                    if me + 1 < 8 {
                        outbox.push((me + 1, tok + 1));
                    }
                }
            }
        }
    }

    #[test]
    fn ring_forwarding_step_count() {
        let topo = Mesh2D::new(1, 8);
        let machine = BspMachine::new(&topo, |_| Forward { seen: false });
        let (nodes, out) = machine.run(100);
        assert!(nodes.iter().all(|n| n.seen));
        assert_eq!(out.comm_steps, 7);
        assert_eq!(out.messages, 7);
    }

    struct BadSender;

    impl BspProgram for BadSender {
        type Msg = ();

        fn round(
            &mut self,
            me: NodeId,
            round: usize,
            _inbox: Vec<(NodeId, ())>,
            outbox: &mut Vec<(NodeId, ())>,
        ) {
            if me == 0 && round == 0 {
                outbox.push((4, ())); // distance 4 on a line of 8
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a neighbour")]
    fn non_neighbour_send_rejected() {
        let topo = Mesh2D::new(1, 8);
        BspMachine::new(&topo, |_| BadSender).run(10);
    }

    struct Chatterbox;

    impl BspProgram for Chatterbox {
        type Msg = ();

        fn round(
            &mut self,
            me: NodeId,
            _round: usize,
            _inbox: Vec<(NodeId, ())>,
            outbox: &mut Vec<(NodeId, ())>,
        ) {
            if me == 0 {
                outbox.push((1, ()));
            }
        }
    }

    #[test]
    #[should_panic(expected = "failed to quiesce")]
    fn livelock_detected() {
        let topo = Mesh2D::new(1, 4);
        BspMachine::new(&topo, |_| Chatterbox).run(16);
    }

    struct Silent;

    impl BspProgram for Silent {
        type Msg = ();

        fn round(
            &mut self,
            _me: NodeId,
            _round: usize,
            _inbox: Vec<(NodeId, ())>,
            _outbox: &mut Vec<(NodeId, ())>,
        ) {
        }
    }

    #[test]
    fn silent_machine_quiesces_immediately() {
        let topo = Mesh2D::new(1, 4);
        let (_, out) = BspMachine::new(&topo, |_| Silent).run(1);
        assert_eq!(out.comm_steps, 0);
        assert_eq!(out.messages, 0);
    }
}
