//! Tests for the store-and-forward link-contention mode.

use rips_desim::{Ctx, Engine, LatencyModel, Program, Time};
use rips_topology::{Mesh2D, NodeId};

/// Node 0 fires `count` messages at a single destination in one
/// handler; the receiver records arrival times.
struct Burst {
    count: u32,
    dest: NodeId,
    arrivals: Vec<Time>,
}

impl Program for Burst {
    type Msg = u32;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
        if ctx.me() == 0 {
            for i in 0..self.count {
                ctx.send(self.dest, i, 1000);
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, _from: NodeId, _msg: u32) {
        self.arrivals.push(ctx.now());
    }
}

fn lat() -> LatencyModel {
    LatencyModel {
        alpha_us: 10,
        per_byte_ns: 1000, // 1 µs per byte: transmission dominates
        per_hop_us: 5,
        send_cpu_us: 0,
        recv_cpu_us: 0,
    }
}

fn run_burst(contention: bool, count: u32, dest: NodeId) -> Vec<Time> {
    let mesh = Mesh2D::new(1, 4);
    let mut engine = Engine::new(mesh, lat(), 1, |_| Burst {
        count,
        dest,
        arrivals: vec![],
    });
    engine.enable_contention(contention);
    let (progs, _) = engine.run();
    progs[dest].arrivals.clone()
}

#[test]
fn shared_link_serializes_a_burst() {
    // 4 one-KB messages to an adjacent node over one link: with
    // contention they arrive ~transmit-time apart; without, they all
    // arrive at the same instant.
    let with = run_burst(true, 4, 1);
    let without = run_burst(false, 4, 1);
    assert_eq!(with.len(), 4);
    assert_eq!(without.len(), 4);
    assert_eq!(without[3] - without[0], 0, "contention-free should batch");
    let transmit = 5 + 1000; // per_hop + bytes
    assert!(
        with[3] - with[0] >= 3 * transmit - 3,
        "serialized spread {} too small",
        with[3] - with[0]
    );
}

#[test]
fn multi_hop_store_and_forward_pays_per_hop() {
    // A single message 3 hops away: contention mode retransmits the
    // payload at every hop.
    let with = run_burst(true, 1, 3);
    let without = run_burst(false, 1, 3);
    let transmit = 5 + 1000;
    assert_eq!(without[0], 10 + 3 * 5 + 1000); // α + hops·per_hop + bytes once
    assert_eq!(with[0], 10 + 3 * transmit as Time); // α + per-hop store-and-forward
}

#[test]
fn self_and_adjacent_sends_still_work() {
    let mesh = Mesh2D::new(1, 2);
    struct SelfSend {
        got: bool,
    }
    impl Program for SelfSend {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            if ctx.me() == 0 {
                ctx.send(0, (), 64);
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, ()>, _from: NodeId, _msg: ()) {
            self.got = true;
        }
    }
    let mut engine = Engine::new(mesh, lat(), 1, |_| SelfSend { got: false });
    engine.enable_contention(true);
    let (progs, _) = engine.run();
    assert!(progs[0].got);
}

#[test]
fn disjoint_routes_do_not_interfere() {
    // Two independent pairs on a 1x4 line: (0→1) and (2→3) share no
    // link, so contention changes nothing for them.
    struct Pairs {
        arrivals: Vec<Time>,
    }
    impl Program for Pairs {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            match ctx.me() {
                0 => ctx.send(1, (), 1000),
                2 => ctx.send(3, (), 1000),
                _ => {}
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, ()>, _from: NodeId, _msg: ()) {
            self.arrivals.push(ctx.now());
        }
    }
    let run = |contention| {
        let mesh = Mesh2D::new(1, 4);
        let mut engine = Engine::new(mesh, lat(), 1, |_| Pairs { arrivals: vec![] });
        engine.enable_contention(contention);
        let (progs, _) = engine.run();
        (progs[1].arrivals.clone(), progs[3].arrivals.clone())
    };
    let (a_on, b_on) = run(true);
    let (a_off, b_off) = run(false);
    assert_eq!(a_on, a_off);
    assert_eq!(b_on, b_off);
}
