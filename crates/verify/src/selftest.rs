//! The checker's own model suite, runnable under a plain `cargo test`:
//! these tests use the always-compiled instrumented runtime ([`crate::rt`])
//! directly, so they do not depend on the `--cfg rips_verify` seam.
//!
//! Together they prove the properties the production model suites rely
//! on: the DFS really explores multiple interleavings, the
//! happens-before tracker accepts correct protocols and rejects broken
//! ones, lost wake-ups surface as deadlock/livelock, and each mutation
//! kind (weakened ordering, deleted fence, split RMW) is caught with a
//! deterministic replay.

use std::sync::atomic::Ordering;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, Release};
use std::sync::Arc;

use crate::rt::{self, thread, AtomicBool, AtomicU64, UnsafeCellWrap};
use crate::{mutate, Checker, Mutation, MutationKind, ViolationKind};

/// `sync::ord` is the identity re-export in a normal build, so the
/// self-tests route orderings through the always-compiled mutation
/// seam explicitly.
fn site_ord(site: &'static str, o: std::sync::atomic::Ordering) -> std::sync::atomic::Ordering {
    rt::set_site(site);
    mutate::apply_ord(site, o)
}

#[test]
fn dfs_explores_multiple_interleavings() {
    let stats = Checker::new("selftest-counter")
        .check(|| {
            let c = Arc::new(AtomicU64::new(0));
            let c2 = Arc::clone(&c);
            let h = thread::spawn_named("adder", move || {
                c2.fetch_add(1, Relaxed);
            });
            c.fetch_add(1, Relaxed);
            h.join().unwrap();
            assert_eq!(c.load(Relaxed), 2);
        })
        .expect("two atomic increments are race-free");
    assert!(
        stats.executions >= 2,
        "DFS should explore >1 interleaving, got {}",
        stats.executions
    );
    assert!(!stats.capped);
}

fn publish_model() -> impl Fn() + Send + Sync + 'static {
    || {
        let data = Arc::new(UnsafeCellWrap::new(0u64));
        let flag = Arc::new(AtomicBool::new(false));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let h = thread::spawn_named("writer", move || {
            d2.with_mut(|_| ());
            f2.store(true, site_ord("selftest.publish", Release));
        });
        if flag.load(Acquire) {
            data.with(|_| ());
        }
        h.join().unwrap();
    }
}

#[test]
fn release_acquire_publish_is_clean() {
    Checker::new("selftest-publish")
        .check(publish_model())
        .expect("release/acquire message passing is race-free");
}

#[test]
fn weakened_publish_is_caught_with_deterministic_replay() {
    let m = Mutation {
        site: "selftest.publish",
        kind: MutationKind::WeakenToRelaxed,
    };
    let v = Checker::new("selftest-publish-weak")
        .mutation(m)
        .check(publish_model())
        .expect_err("Release→Relaxed publish must race");
    assert_eq!(v.kind, ViolationKind::DataRace);
    assert!(!v.schedule.is_empty());
    assert!(v.replay.contains("selftest.publish"), "{}", v.replay);
    // The recorded schedule reproduces the same failure on its own.
    let v2 = Checker::new("selftest-publish-weak-replay")
        .mutation(m)
        .replay(v.schedule.clone())
        .check(publish_model())
        .expect_err("replaying the schedule must reproduce the race");
    assert_eq!(v2.kind, ViolationKind::DataRace);
}

fn fence_publish_model() -> impl Fn() + Send + Sync + 'static {
    || {
        let data = Arc::new(UnsafeCellWrap::new(0u64));
        let flag = Arc::new(AtomicBool::new(false));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let h = thread::spawn_named("writer", move || {
            d2.with_mut(|_| ());
            if mutate::fence_survives("selftest.fence") {
                rt::set_site("selftest.fence");
                rt::fence(Release);
            }
            f2.store(true, Relaxed);
        });
        if flag.load(Acquire) {
            data.with(|_| ());
        }
        h.join().unwrap();
    }
}

#[test]
fn fence_publish_is_clean_and_deleted_fence_is_caught() {
    Checker::new("selftest-fence")
        .check(fence_publish_model())
        .expect("release-fence publish is race-free");
    let v = Checker::new("selftest-fence-deleted")
        .mutation(Mutation {
            site: "selftest.fence",
            kind: MutationKind::DeleteFence,
        })
        .check(fence_publish_model())
        .expect_err("deleting the release fence must race");
    assert_eq!(v.kind, ViolationKind::DataRace);
}

fn bare_race_model() -> impl Fn() + Send + Sync + 'static {
    || {
        let d = Arc::new(UnsafeCellWrap::new(0u8));
        let d2 = Arc::clone(&d);
        let h = thread::spawn_named("racer", move || d2.with_mut(|_| ()));
        d.with_mut(|_| ());
        h.join().unwrap();
    }
}

#[test]
fn unsynchronized_cell_writes_race() {
    let v = Checker::new("selftest-bare-race")
        .check(bare_race_model())
        .expect_err("two unordered writes must race");
    assert_eq!(v.kind, ViolationKind::DataRace);
    assert!(v.replay.contains("cell write"), "{}", v.replay);
}

#[test]
fn park_without_unpark_is_deadlock() {
    let v = Checker::new("selftest-deadlock")
        .check(|| {
            thread::park();
        })
        .expect_err("parking with no unparker must deadlock");
    assert_eq!(v.kind, ViolationKind::Deadlock);
    assert!(v.replay.contains("park"), "{}", v.replay);
}

#[test]
fn unpark_wakes_and_creates_happens_before() {
    Checker::new("selftest-park-ok")
        .check(|| {
            let d = Arc::new(UnsafeCellWrap::new(0u32));
            let d2 = Arc::clone(&d);
            let me = thread::current();
            let h = thread::spawn_named("waker", move || {
                d2.with_mut(|_| ());
                me.unpark();
            });
            thread::park();
            d.with(|_| ());
            h.join().unwrap();
        })
        .expect("write → unpark → park-return → read is ordered");
}

#[test]
fn spin_without_progress_is_livelock() {
    let v = Checker::new("selftest-livelock")
        .max_steps(200)
        .check(|| {
            let stop = Arc::new(AtomicBool::new(false));
            let s2 = Arc::clone(&stop);
            let h = thread::spawn_named("spinner", move || {
                while !s2.load(Relaxed) {
                    thread::yield_now();
                }
            });
            // Nobody ever sets `stop`.
            h.join().unwrap();
        })
        .expect_err("spinning on a flag nobody sets must trip the step budget");
    assert_eq!(v.kind, ViolationKind::Livelock);
}

#[test]
fn yielding_spin_with_progress_terminates() {
    Checker::new("selftest-spin-ok")
        .check(|| {
            let stop = Arc::new(AtomicBool::new(false));
            let s2 = Arc::clone(&stop);
            let h = thread::spawn_named("spinner", move || {
                while !s2.load(Acquire) {
                    thread::yield_now();
                }
            });
            stop.store(true, Release);
            h.join().unwrap();
        })
        .expect("yield deprioritization lets the storing thread run");
}

#[test]
fn model_panic_is_an_assertion_violation() {
    let v = Checker::new("selftest-assert")
        .check(|| {
            let x = AtomicU64::new(1);
            assert_eq!(x.load(Relaxed), 2, "boom");
        })
        .expect_err("failed assert must be reported");
    assert_eq!(v.kind, ViolationKind::AssertionFailure);
    assert!(v.message.contains("boom"), "{}", v.message);
}

/// Mirrors the instrumented `sync::swap_bool` (which tier-1 builds
/// can't reach through the seam, since it compiles to a passthrough).
fn swap_like(site: &'static str, a: &AtomicBool, v: bool, o: std::sync::atomic::Ordering) -> bool {
    if mutate::rmw_is_split(site) {
        let old = a.load(Acquire);
        a.store(v, Release);
        old
    } else {
        rt::set_site(site);
        a.swap(v, o)
    }
}

fn claim_model() -> impl Fn() + Send + Sync + 'static {
    || {
        let claimed = Arc::new(AtomicBool::new(false));
        let wins = Arc::new(AtomicU64::new(0));
        let (c2, w2) = (Arc::clone(&claimed), Arc::clone(&wins));
        let h = thread::spawn_named("rival", move || {
            if !swap_like("selftest.claim", &c2, true, AcqRel) {
                w2.fetch_add(1, Relaxed);
            }
        });
        if !swap_like("selftest.claim", &claimed, true, AcqRel) {
            wins.fetch_add(1, Relaxed);
        }
        h.join().unwrap();
        assert_eq!(wins.load(Relaxed), 1, "exactly one claimant may win");
    }
}

#[test]
fn atomic_swap_elects_exactly_one_winner() {
    Checker::new("selftest-claim")
        .check(claim_model())
        .expect("an atomic swap admits exactly one winner");
}

#[test]
fn split_rmw_allows_two_winners_and_is_caught() {
    let v = Checker::new("selftest-claim-split")
        .mutation(Mutation {
            site: "selftest.claim",
            kind: MutationKind::SplitRmw,
        })
        .check(claim_model())
        .expect_err("splitting the swap must admit a double win");
    assert_eq!(v.kind, ViolationKind::AssertionFailure);
    assert!(v.replay.contains("active mutation"), "{}", v.replay);
}

/// The store-buffering litmus (SB): each thread stores its own flag,
/// optionally fences, then loads the other's. Both-loads-false is the
/// classic weak-memory outcome that SC execution can never produce —
/// only the checker's stale-read machinery reaches it.
fn sb_model(with_fences: bool) -> impl Fn() + Send + Sync + 'static {
    move || {
        let x = Arc::new(AtomicBool::new(false));
        let y = Arc::new(AtomicBool::new(false));
        let (x1, y1) = (Arc::clone(&x), Arc::clone(&y));
        let a = thread::spawn_named("left", move || {
            x1.store(true, Relaxed);
            if with_fences {
                rt::fence(Ordering::SeqCst);
            }
            y1.load(Relaxed)
        });
        let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
        let b = thread::spawn_named("right", move || {
            y2.store(true, Relaxed);
            if with_fences {
                rt::fence(Ordering::SeqCst);
            }
            x2.load(Relaxed)
        });
        let r1 = a.join().unwrap();
        let r2 = b.join().unwrap();
        assert!(r1 || r2, "store buffering: both loads saw the old value");
    }
}

#[test]
fn store_buffering_without_fences_is_caught() {
    let v = Checker::new("selftest-sb")
        .check(sb_model(false))
        .expect_err("relaxed SB must admit the both-false outcome");
    assert_eq!(v.kind, ViolationKind::AssertionFailure);
    assert!(v.replay.contains("(stale)"), "{}", v.replay);
}

#[test]
fn store_buffering_with_seqcst_fences_is_clean() {
    Checker::new("selftest-sb-fenced")
        .check(sb_model(true))
        .expect("SeqCst fence pair forbids the both-false outcome");
}

/// Stale reads respect coherence: a thread that observed a value may
/// not later read an older one, and its own writes pin the floor.
#[test]
fn stale_reads_respect_per_thread_coherence() {
    Checker::new("selftest-coherence")
        .check(|| {
            let x = Arc::new(AtomicU64::new(0));
            let xr = Arc::clone(&x);
            let h = thread::spawn_named("reader", move || {
                let a = xr.load(Relaxed);
                let b = xr.load(Relaxed);
                assert!(b >= a, "coherence violated: {b} after {a}");
            });
            x.store(1, Relaxed);
            x.store(2, Relaxed);
            assert_eq!(x.load(Relaxed), 2, "own writes are always visible");
            h.join().unwrap();
        })
        .expect("coherent executions only");
}
