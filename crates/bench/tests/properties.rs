//! Registry-generic property tests: every scheduler in the canonical
//! registry executes every task of an arbitrary dynamic workload
//! exactly once, deterministically, on arbitrary machine sizes.
//!
//! These used to be per-balancer copies; running them off the
//! registry means a newly registered scheduler is property-tested with
//! zero new test code.

use std::sync::Arc;

use proptest::prelude::*;
use rips_audit::Auditor;
use rips_bench::{paper_spec, registry};
use rips_desim::{Ctx, Engine, LatencyModel, Program, RunStats, Time, WorkKind};
use rips_runtime::RunSpec;
use rips_taskgraph::{TaskForest, Workload};
use rips_topology::{Mesh2D, NodeId};

fn arb_workload() -> impl Strategy<Value = Workload> {
    let forest = (
        proptest::collection::vec(1u64..3_000, 1..20),
        proptest::collection::vec((0usize..20, 1u64..2_000), 0..15),
    )
        .prop_map(|(roots, children)| {
            let mut f = TaskForest::new();
            let ids: Vec<_> = roots.into_iter().map(|g| f.add_root(g)).collect();
            let mut all = ids.clone();
            for (parent_pick, grain) in children {
                let parent = all[parent_pick % all.len()];
                all.push(f.add_child(parent, grain));
            }
            f
        });
    proptest::collection::vec(forest, 1..=2).prop_map(|rounds| Workload {
        name: "arb".into(),
        rounds,
    })
}

fn spec(w: &Arc<Workload>, nodes: usize, seed: u64) -> RunSpec {
    paper_spec(w, nodes, 0.4, seed)
}

/// `(handler time, sender, payload)` per delivery or timer, in order.
type Heard = Vec<(Time, NodeId, u64)>;

/// A node that broadcasts at start if its bit of `shouters` is set —
/// through the engine's folded `send_all`/`signal_all`, or through the
/// `n - 1` point-to-point calls they stand for — then sends and arms a
/// timer, and logs what it hears.
struct Shouter {
    folded: bool,
    signal: bool,
    shouters: u32,
    heard: Heard,
}

impl Program for Shouter {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        let (me, n) = (ctx.me(), ctx.num_nodes());
        ctx.compute(me as Time % 3 * 50, WorkKind::User);
        if self.shouters >> me & 1 == 0 {
            return;
        }
        let msg = me as u64;
        let others = (0..n).filter(|&to| to != me);
        match (self.folded, self.signal) {
            (true, true) => ctx.signal_all(msg),
            (true, false) => ctx.send_all(msg, 24),
            (false, true) => others.for_each(|to| ctx.signal(to, msg)),
            (false, false) => others.for_each(|to| ctx.send(to, msg, 24)),
        }
        ctx.send((me + 1) % n, 100 + msg, 8);
        ctx.set_timer(5, msg);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: NodeId, msg: u64) {
        self.heard.push((ctx.now(), from, msg));
        ctx.compute(3, WorkKind::User);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, tag: u64) {
        self.heard.push((ctx.now(), ctx.me(), tag));
    }
}

fn shout(
    folded: bool,
    (n, lat, signal, contention, shouters): (usize, LatencyModel, bool, bool, u32),
) -> (Vec<Heard>, RunStats) {
    let topo = Arc::new(Mesh2D::near_square(n));
    let mut engine = Engine::new(topo, lat, 3, |_| Shouter {
        folded,
        signal,
        shouters,
        heard: Vec::new(),
    });
    engine.enable_contention(contention);
    let (nodes, stats) = engine.run();
    (nodes.into_iter().map(|p| p.heard).collect(), stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The engine keeps a broadcast as one sorted run with a single
    /// heap entry; that must be unobservable. Against a program that
    /// issues the point-to-point sends itself, every delivery (order
    /// and time) and every statistic agrees — only the real heap
    /// length and the bytes modelled for it may be smaller.
    #[test]
    fn broadcast_runs_are_unobservable(
        n in 1usize..=12,
        (alpha_us, per_byte_ns, per_hop_us) in (0u64..30, 0u64..3_000, 0u64..8),
        (send_cpu_us, recv_cpu_us) in (0u64..10, 0u64..6),
        (signal, contention) in (0u8..2, 0u8..2),
        shouters in 1u32..4096,
    ) {
        let lat = LatencyModel { alpha_us, per_byte_ns, per_hop_us, send_cpu_us, recv_cpu_us };
        let case = (n, lat, signal == 1, contention == 1, shouters);
        let (heard_run, run) = shout(true, case);
        let (heard_p2p, mut p2p) = shout(false, case);
        prop_assert_eq!(heard_run, heard_p2p);
        prop_assert!(run.peak_heap_len <= p2p.peak_heap_len);
        prop_assert!(run.mem.peak_event_bytes <= p2p.mem.peak_event_bytes);
        p2p.peak_heap_len = run.peak_heap_len;
        p2p.mem.peak_event_bytes = run.mem.peak_event_bytes;
        prop_assert_eq!(run, p2p);
    }

    /// Exactly-once execution, with `verify_complete` distinguishing
    /// the two failure modes (lost tasks vs double execution).
    #[test]
    fn every_scheduler_executes_each_task_exactly_once(
        w in arb_workload(),
        nodes in 1usize..=12,
        seed in 0u64..50,
    ) {
        let w = Arc::new(w);
        let reg = registry();
        for name in reg.names() {
            let run = reg.run(name, &spec(&w, nodes, seed));
            let verdict = run.outcome.verify_complete(&w);
            prop_assert!(
                verdict.is_ok(),
                "{name} on {nodes} nodes, seed {seed}: {}",
                verdict.unwrap_err()
            );
        }
    }

    /// The paper's invariants hold on *arbitrary* workloads, not just
    /// the golden cells: every registered scheduler, run under the
    /// invariant auditor, upholds Theorem 1/2 on each complete system
    /// phase plus conservation and barrier pairing.
    #[test]
    fn every_scheduler_upholds_the_paper_invariants(
        w in arb_workload(),
        nodes in 1usize..=12,
        seed in 0u64..50,
    ) {
        let w = Arc::new(w);
        let reg = registry();
        for name in reg.names() {
            let (auditor, _run) = rips_trace::with_sink(Auditor::new(nodes), || {
                reg.run(name, &spec(&w, nodes, seed))
            });
            let report = auditor.finish();
            prop_assert!(
                report.is_ok(),
                "{} on {} nodes, seed {}:\n{}",
                name, nodes, seed, report.errors.join("\n")
            );
        }
    }

    /// Work conservation: total user time equals the workload's work —
    /// schedulers move tasks, they never shrink or inflate them.
    #[test]
    fn user_time_equals_total_work(w in arb_workload(), seed in 0u64..50) {
        let w = Arc::new(w);
        let want = w.stats().total_work_us;
        let reg = registry();
        for name in reg.names() {
            let run = reg.run(name, &spec(&w, 6, seed));
            prop_assert!(
                run.outcome.stats.total_user_us() == want,
                "{name}: user time {} != total work {want}",
                run.outcome.stats.total_user_us()
            );
        }
    }
}
