//! Tests for the Theorem 1/2 checkers themselves: feed the [`Auditor`]
//! synthetic traces built from *real* MWA plans over adversarial 2-D
//! mesh load distributions (everything on one corner, checkerboard,
//! zero-load rows, and proptest-random meshes) and assert it accepts
//! them — then hand-break the same plans and assert it rejects them
//! with the right theorem named.

use proptest::prelude::*;
use rips_audit::{min_nonlocal_lower_bound, quotas, AuditReport, Auditor};
use rips_sched::mwa;
use rips_topology::Mesh2D;
use rips_trace::{NodeId, PhaseKind, TraceEvent, TraceSink};

/// Streams one synthetic system phase into `a`: every node reports its
/// load, then the `(from, to, count)` transfers execute, then the phase
/// closes and the batches arrive.
fn feed_phase(a: &mut Auditor, p: u32, loads: &[i64], transfers: &[(NodeId, NodeId, i64)]) {
    feed_phase_arriving(a, p, loads, transfers, transfers);
}

/// [`feed_phase`] where only the `arrivals` batches reach their
/// destination.
fn feed_phase_arriving(
    a: &mut Auditor,
    p: u32,
    loads: &[i64],
    transfers: &[(NodeId, NodeId, i64)],
    arrivals: &[(NodeId, NodeId, i64)],
) {
    for (node, &load) in loads.iter().enumerate() {
        a.record(
            0,
            node,
            TraceEvent::PhaseBegin {
                kind: PhaseKind::System,
                index: p,
            },
        );
        a.record(0, node, TraceEvent::LoadSample { load });
    }
    for &(from, to, count) in transfers {
        a.record(
            1,
            from,
            TraceEvent::MigrateOut {
                to,
                count: count as u32,
            },
        );
    }
    for node in 0..loads.len() {
        a.record(
            2,
            node,
            TraceEvent::PhaseEnd {
                kind: PhaseKind::System,
                index: p,
            },
        );
    }
    for &(from, to, count) in arrivals {
        a.record(
            3,
            to,
            TraceEvent::MigrateIn {
                from,
                count: count as u32,
            },
        );
    }
}

/// Plans `loads` on `mesh` with the real MWA and audits the resulting
/// net transfers, optionally mutilated by `break_plan`.
fn audit_mwa(
    mesh: &Mesh2D,
    loads: &[i64],
    break_plan: impl FnOnce(&mut Vec<(NodeId, NodeId, i64)>),
) -> AuditReport {
    let (plan, _) = mwa(mesh, loads);
    let mut transfers = plan.net_transfers(loads);
    break_plan(&mut transfers);
    let mut a = Auditor::new(loads.len());
    feed_phase(&mut a, 1, loads, &transfers);
    a.finish()
}

fn assert_accepts(mesh: &Mesh2D, loads: &[i64]) {
    let r = audit_mwa(mesh, loads, |_| {});
    assert!(
        r.is_ok(),
        "valid MWA plan rejected for {loads:?}: {:?}",
        r.errors
    );
    assert_eq!(r.phases_checked, 1);
    assert!(r.max_spread <= 1);
}

#[test]
fn accepts_all_load_on_one_corner() {
    let mesh = Mesh2D::new(4, 4);
    let mut loads = vec![0i64; 16];
    loads[0] = 163; // corner hoards everything, remainder 163 % 16 ≠ 0
    assert_accepts(&mesh, &loads);
}

#[test]
fn accepts_checkerboard() {
    let mesh = Mesh2D::new(4, 6);
    let loads: Vec<i64> = (0..4)
        .flat_map(|r| (0..6).map(move |c| if (r + c) % 2 == 0 { 17 } else { 0 }))
        .collect();
    assert_accepts(&mesh, &loads);
}

#[test]
fn accepts_zero_load_rows() {
    let mesh = Mesh2D::new(5, 4);
    let loads: Vec<i64> = (0..5)
        .flat_map(|r| (0..4).map(move |_| if r < 2 { 31 } else { 0 }))
        .collect();
    assert_accepts(&mesh, &loads);
}

#[test]
fn accepts_already_balanced() {
    let mesh = Mesh2D::new(3, 3);
    assert_accepts(&mesh, &[5; 9]);
}

#[test]
fn rejects_dropped_transfer_as_thm1() {
    let mesh = Mesh2D::new(4, 4);
    let mut loads = vec![0i64; 16];
    loads[0] = 160;
    let r = audit_mwa(&mesh, &loads, |t| {
        t.pop(); // one under-quota node never gets its tasks
    });
    assert!(
        r.errors.iter().any(|e| e.contains("Theorem 1")),
        "dropped transfer not caught: {:?}",
        r.errors
    );
}

#[test]
fn rejects_ping_pong_as_thm2() {
    let mesh = Mesh2D::new(4, 4);
    let mut loads = vec![0i64; 16];
    loads[0] = 160;
    // Balanced outcome, but two extra tasks make a round trip — the
    // spread stays ≤ 1, only minimality is violated.
    let r = audit_mwa(&mesh, &loads, |t| {
        t.push((0, 15, 2));
        t.push((15, 0, 2));
    });
    assert!(
        r.errors
            .iter()
            .any(|e| e.contains("Theorem 2") && e.contains("not minimal")),
        "ping-pong not caught: {:?}",
        r.errors
    );
    assert!(!r.errors.iter().any(|e| e.contains("Theorem 1")));
}

#[test]
fn rejects_overshoot_as_thm1_and_thm2() {
    let mesh = Mesh2D::new(2, 2);
    let loads = [8i64, 0, 0, 0];
    // Ship everything to one victim instead of balancing.
    let r = audit_mwa(&mesh, &loads, |t| {
        t.clear();
        t.push((0, 3, 8));
    });
    assert!(
        r.errors.iter().any(|e| e.contains("Theorem 1")),
        "{:?}",
        r.errors
    );
    assert!(
        r.errors.iter().any(|e| e.contains("Theorem 2")),
        "{:?}",
        r.errors
    );
}

/// One way to break a run, fed as system phase 1 of a fresh auditor,
/// and the violation it must be reported as.
struct Mutation {
    name: &'static str,
    tiles: Option<Vec<usize>>,
    feed: fn(&mut Auditor),
    expect: &'static str,
}

/// The mutation set of the auditor's unit tests, on 3 nodes (4 when
/// tiled).
fn mutations() -> Vec<Mutation> {
    let flat = |name, feed, expect| Mutation {
        name,
        tiles: None,
        feed,
        expect,
    };
    vec![
        flat(
            "unbalanced plan",
            |a| feed_phase(a, 1, &[6, 0, 0], &[(0, 1, 1), (0, 2, 1)]),
            "Theorem 1 violated in phase 1",
        ),
        flat(
            "excess migration",
            |a| feed_phase(a, 1, &[6, 0, 0], &[(0, 1, 3), (0, 2, 2), (1, 0, 1)]),
            "Theorem 2 violated in phase 1: 6 task(s) migrated",
        ),
        Mutation {
            name: "wrong-tile remainder",
            tiles: Some(vec![0, 0, 1, 1]),
            feed: |a| feed_phase(a, 1, &[5, 0, 0, 0], &[(0, 1, 1), (0, 2, 2), (0, 3, 1)]),
            expect: "cross-tile quota violated in phase 1: tile 0 holds 2",
        },
        flat(
            "stranded tasks",
            |a| {
                feed_phase(a, 1, &[3, 0, 0], &[(0, 1, 1), (0, 2, 1)]);
                for (node, spawned) in [3, 0, 0].into_iter().enumerate() {
                    let executed = u64::from(node != 2); // node 2 never ran its task
                    a.record(9, node, TraceEvent::NodeTotals { spawned, executed });
                }
            },
            "3 task(s) spawned but only 2 executed (1 stranded",
        ),
        flat(
            "lost migration",
            |a| {
                let moves = [(0, 1, 2), (0, 2, 2)];
                feed_phase_arriving(a, 1, &[6, 0, 0], &moves, &moves[..1]);
            },
            "4 task(s) departed in migration batches but 2 arrived",
        ),
    ]
}

/// A phase is checked when its last node closes it, not at the end of
/// the run — and that must not change what is reported: each mutation
/// yields the same messages whether its phase is the whole stream or
/// the first of three.
#[test]
fn a_violation_in_the_first_of_three_phases_reads_the_same() {
    for m in mutations() {
        let fresh = || match &m.tiles {
            Some(t) => Auditor::with_tiles(t.len(), t.clone()),
            None => Auditor::new(3),
        };
        let mut alone = fresh();
        (m.feed)(&mut alone);
        let alone = alone.finish();
        assert!(
            alone.errors.iter().any(|e| e.contains(m.expect)),
            "{}: {:?}",
            m.name,
            alone.errors
        );

        let mut first_of_three = fresh();
        (m.feed)(&mut first_of_three);
        let balanced = vec![2i64; alone.nodes];
        feed_phase(&mut first_of_three, 2, &balanced, &[]);
        assert_eq!(first_of_three.phases_in_flight(), 0, "{}", m.name);
        feed_phase(&mut first_of_three, 3, &balanced, &[]);
        let r = first_of_three.finish();
        assert_eq!(r.errors, alone.errors, "{}", m.name);
        assert_eq!(r.phases_checked, 3, "{}", m.name);
        assert_eq!(r.max_spread, alone.max_spread, "{}", m.name);
    }
}

/// Twenty phases, each node entering the next phase the moment it
/// leaves the last (so two overlap), halting inside the twentieth:
/// the auditor's state stays that of the phases in flight.
#[test]
fn holds_only_the_phases_in_flight() {
    const N: usize = 5;
    const PHASES: u32 = 20;
    /// Records, then looks at how many accumulators are held.
    fn rec(a: &mut Auditor, peak: &mut usize, node: NodeId, event: TraceEvent) {
        a.record(0, node, event);
        *peak = (*peak).max(a.phases_in_flight());
    }
    fn enter(a: &mut Auditor, peak: &mut usize, node: NodeId, index: u32) {
        let kind = PhaseKind::System;
        rec(a, peak, node, TraceEvent::PhaseBegin { kind, index });
        rec(a, peak, node, TraceEvent::LoadSample { load: 4 });
    }
    let (mut a, mut peak) = (Auditor::new(N), 0);
    for node in 0..N {
        enter(&mut a, &mut peak, node, 1);
    }
    for index in 1..PHASES {
        for node in 0..N {
            let kind = PhaseKind::System;
            rec(
                &mut a,
                &mut peak,
                node,
                TraceEvent::PhaseEnd { kind, index },
            );
            enter(&mut a, &mut peak, node, index + 1);
        }
    }
    assert_eq!(peak, 2, "consecutive phases overlap, and no more is held");
    assert_eq!(a.phases_in_flight(), 1, "the halting phase is still open");
    let r = a.finish();
    assert!(r.is_ok(), "{:?}", r.errors);
    assert_eq!(r.phases_checked, PHASES as usize);
    assert_eq!(r.records, (3 * N * PHASES as usize - N) as u64);
}

proptest! {
    /// The auditor accepts every real MWA plan over random meshes and
    /// loads (Theorems 1 and 2 hold — this doubles as an end-to-end
    /// regression net for the planner itself).
    #[test]
    fn accepts_every_real_mwa_plan(
        rows in 1usize..=5,
        cols in 1usize..=5,
        seed_loads in proptest::collection::vec(0i64..=40, 25),
    ) {
        let mesh = Mesh2D::new(rows, cols);
        let loads = &seed_loads[..rows * cols];
        let r = audit_mwa(&mesh, loads, |_| {});
        prop_assert!(r.is_ok(), "{:?}", r.errors);
        prop_assert_eq!(r.phases_checked, 1);
    }

    /// The auditor's independently computed quota vector and Lemma 1
    /// bound agree with the scheduler's own arithmetic — two separate
    /// implementations, one theorem.
    #[test]
    fn bounds_agree_with_scheduler_arithmetic(
        loads in proptest::collection::vec(0i64..=100, 1..=30),
    ) {
        prop_assert_eq!(
            quotas(loads.iter().sum(), loads.len()),
            rips_sched::flow::quotas(loads.iter().sum(), loads.len())
        );
        prop_assert_eq!(
            min_nonlocal_lower_bound(&loads),
            rips_sched::min_nonlocal_tasks(&loads)
        );
    }

    /// Dropping any single transfer from a plan that needed one makes
    /// the auditor object: the invariants leave no slack.
    #[test]
    fn rejects_any_dropped_transfer(
        rows in 1usize..=4,
        cols in 1usize..=4,
        seed_loads in proptest::collection::vec(0i64..=40, 16),
        pick in 0usize..64,
    ) {
        let mesh = Mesh2D::new(rows, cols);
        let loads = &seed_loads[..rows * cols];
        let (plan, _) = mwa(&mesh, loads);
        let mut transfers = plan.net_transfers(loads);
        if transfers.is_empty() {
            // Already balanced: nothing to drop (the vendored proptest
            // shim has no prop_assume).
            return Ok(());
        }
        transfers.remove(pick % transfers.len());
        let mut a = Auditor::new(loads.len());
        feed_phase(&mut a, 1, loads, &transfers);
        let r = a.finish();
        prop_assert!(!r.is_ok(), "dropped transfer accepted for {loads:?}");
    }
}
