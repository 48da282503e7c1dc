//! Fixed-capacity single-producer/single-consumer ring buffers.
//!
//! The live backend shards its fabric into one SPSC ring per directed
//! edge, so every ring has exactly one writer thread and one reader
//! thread by construction. That restriction is what lets the ring get
//! away with two relaxed-ish atomics per operation and no locks: the
//! producer is the only thread that writes `tail`, the consumer is the
//! only thread that writes `head`, and each side only *reads* the
//! other's counter with `Acquire` to learn which slots it may touch.
//!
//! Exclusivity is enforced by the type system, not by discipline:
//! [`spsc`] returns a `(RingTx, RingRx)` pair, neither handle is
//! `Clone`, and `push`/`pop` take `&mut self`, so at any instant at
//! most one thread can be inside each side.
//!
//! Head and tail live on separate cache lines ([`CachePadded`]) so the
//! producer and consumer don't false-share a line and ping-pong it
//! between cores on every operation — the classic SPSC pitfall.
//!
//! All synchronization goes through the `rips_verify::sync` seam: in a
//! normal build that is a zero-cost re-export of `std::sync::atomic`
//! plus a transparent `UnsafeCell` wrapper, while under
//! `--cfg rips_verify` every access becomes a scheduling point of the
//! bounded model checker (`verify_model` below explores the protocol
//! and proves each `ord(..)` site is load-bearing via the mutation
//! sweep). Slot accesses avoid creating references entirely — raw
//! pointer reads/writes through `MaybeUninit`'s transparent layout —
//! so the aliasing story is Miri-clean.
//!
//! This module is the one place in the workspace that uses `unsafe`
//! (slot storage is `UnsafeCellWrap<MaybeUninit<T>>`); the audit lint
//! RIPS-L004 pins the allowlist to exactly this file, and the safety
//! argument is spelled out on each `unsafe` block.

// rips-lint: allow(L004, SPSC slot access is proven exclusive by the
// head/tail protocol; see module docs and per-block safety comments)
use std::mem::MaybeUninit;
use std::sync::Arc;

use rips_verify::sync::atomic::{AtomicUsize, Ordering};
use rips_verify::sync::cell::UnsafeCellWrap;
use rips_verify::sync::ord;

/// Pads (and aligns) a value to a 64-byte cache line so two frequently
/// written atomics never share a line.
#[repr(align(64))]
pub struct CachePadded<T>(pub T);

struct RingInner<T> {
    mask: usize,
    /// `head`: next slot the consumer will read. Written only by the
    /// consumer, read by the producer to detect "full".
    head: CachePadded<AtomicUsize>,
    /// `tail`: next slot the producer will write. Written only by the
    /// producer, read by the consumer to detect "empty".
    tail: CachePadded<AtomicUsize>,
    buf: Box<[UnsafeCellWrap<MaybeUninit<T>>]>,
}

// SAFETY: the ring is shared between exactly two threads (one RingTx,
// one RingRx). A slot is written by the producer strictly before the
// Release store of `tail` that publishes it, and read by the consumer
// strictly after the Acquire load of `tail` that observes it; the
// symmetric argument covers slot reuse via `head`. So no slot is ever
// accessed concurrently from both sides, and T: Send is sufficient.
unsafe impl<T: Send> Sync for RingInner<T> {}
unsafe impl<T: Send> Send for RingInner<T> {}

impl<T> Drop for RingInner<T> {
    fn drop(&mut self) {
        // Drop whatever was still in flight. `&mut self` proves both
        // handles are gone, so plain loads are fine.
        let mut head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Relaxed);
        while head != tail {
            // SAFETY: slots in [head, tail) were fully written by the
            // producer and never consumed; we have exclusive access.
            // `MaybeUninit<T>` is `repr(transparent)`, so the cast is
            // layout-correct and no reference is ever materialized.
            self.buf[head & self.mask]
                .with_mut(|p| unsafe { std::ptr::drop_in_place(p.cast::<T>()) });
            head = head.wrapping_add(1);
        }
    }
}

/// Producer half of an SPSC ring. Not `Clone`; `push` takes `&mut`.
pub struct RingTx<T>(Arc<RingInner<T>>);

/// Consumer half of an SPSC ring. Not `Clone`; `pop` takes `&mut`.
pub struct RingRx<T>(Arc<RingInner<T>>);

/// Creates an SPSC ring holding at most `capacity` items (rounded up
/// to a power of two, minimum 2).
pub fn spsc<T>(capacity: usize) -> (RingTx<T>, RingRx<T>) {
    let cap = capacity.max(2).next_power_of_two();
    let buf = (0..cap)
        .map(|_| UnsafeCellWrap::new(MaybeUninit::uninit()))
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let inner = Arc::new(RingInner {
        mask: cap - 1,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
        buf,
    });
    (RingTx(Arc::clone(&inner)), RingRx(inner))
}

impl<T> RingTx<T> {
    /// Attempts to enqueue `v`; returns it back if the ring is full.
    pub fn push(&mut self, v: T) -> Result<(), T> {
        let inner = &*self.0;
        let tail = inner.tail.0.load(Ordering::Relaxed);
        let head = inner
            .head
            .0
            .load(ord("ring.push.head.acquire", Ordering::Acquire));
        if tail.wrapping_sub(head) > inner.mask {
            return Err(v);
        }
        // SAFETY: slot `tail` is outside [head, tail), i.e. not yet
        // published, so the consumer will not touch it until the
        // Release store below; we are the only producer (&mut self).
        // Raw `ptr::write` through the transparent `MaybeUninit`
        // layout — no reference is created.
        inner.buf[tail & inner.mask].with_mut(|p| unsafe { p.cast::<T>().write(v) });
        inner.tail.0.store(
            tail.wrapping_add(1),
            ord("ring.push.tail.publish", Ordering::Release),
        );
        Ok(())
    }
}

impl<T> RingRx<T> {
    /// Dequeues the oldest item, if any.
    pub fn pop(&mut self) -> Option<T> {
        let inner = &*self.0;
        let head = inner.head.0.load(Ordering::Relaxed);
        let tail = inner
            .tail
            .0
            .load(ord("ring.pop.tail.acquire", Ordering::Acquire));
        if head == tail {
            return None;
        }
        // SAFETY: the Acquire load of `tail` observed the producer's
        // Release store publishing slot `head`, so the write to the
        // slot happened-before this read; we are the only consumer.
        // Raw `ptr::read` — the slot is treated as uninitialized again
        // after this returns.
        let v = inner.buf[head & inner.mask].with_mut(|p| unsafe { p.cast::<T>().read() });
        inner.head.0.store(
            head.wrapping_add(1),
            ord("ring.pop.head.publish", Ordering::Release),
        );
        Some(v)
    }

    /// Approximate number of queued items (exact when the producer is
    /// quiescent). Used for occupancy trace counters.
    pub fn len(&self) -> usize {
        let inner = &*self.0;
        let tail = inner.tail.0.load(Ordering::Acquire);
        let head = inner.head.0.load(Ordering::Acquire);
        tail.wrapping_sub(head)
    }

    /// True when no items are queued (subject to the same approximation
    /// as [`RingRx::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rips_verify::vthread;

    #[test]
    fn fifo_order_and_wraparound() {
        let (mut tx, mut rx) = spsc::<u64>(4);
        // Push/pop several times the capacity to exercise wraparound.
        let mut next_in = 0u64;
        let mut next_out = 0u64;
        for _ in 0..10 {
            while tx.push(next_in).is_ok() {
                next_in += 1;
            }
            while let Some(v) = rx.pop() {
                assert_eq!(v, next_out);
                next_out += 1;
            }
        }
        assert_eq!(next_in, next_out);
        assert!(next_in >= 40);
    }

    #[test]
    fn full_ring_rejects_and_returns_value() {
        let (mut tx, mut rx) = spsc::<u32>(2);
        assert!(tx.push(1).is_ok());
        assert!(tx.push(2).is_ok());
        assert_eq!(tx.push(3), Err(3));
        assert_eq!(rx.pop(), Some(1));
        assert!(tx.push(3).is_ok());
        assert_eq!(rx.pop(), Some(2));
        assert_eq!(rx.pop(), Some(3));
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn len_tracks_occupancy() {
        let (mut tx, mut rx) = spsc::<u8>(8);
        assert!(rx.is_empty());
        for i in 0..5 {
            tx.push(i).unwrap();
        }
        assert_eq!(rx.len(), 5);
        rx.pop();
        assert_eq!(rx.len(), 4);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // 200k items × 2 threads: minutes under Miri
    fn cross_thread_stress_preserves_sequence() {
        let (mut tx, mut rx) = spsc::<u64>(64);
        const N: u64 = 200_000;
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..N {
                    let mut v = i;
                    loop {
                        match tx.push(v) {
                            Ok(()) => break,
                            Err(back) => {
                                v = back;
                                vthread::yield_now();
                            }
                        }
                    }
                }
            });
            let mut expect = 0u64;
            while expect < N {
                if let Some(v) = rx.pop() {
                    assert_eq!(v, expect);
                    expect += 1;
                } else {
                    vthread::yield_now();
                }
            }
            assert_eq!(rx.pop(), None);
        });
    }

    #[test]
    fn drop_releases_undrained_items() {
        let marker = Arc::new(());
        {
            let (mut tx, rx) = spsc::<Arc<()>>(8);
            for _ in 0..5 {
                tx.push(Arc::clone(&marker)).unwrap();
            }
            assert_eq!(Arc::strong_count(&marker), 6);
            drop(tx);
            drop(rx);
        }
        assert_eq!(Arc::strong_count(&marker), 1);
    }
}

/// Bounded-model-checker suite: explores producer/consumer
/// interleavings of the real `push`/`pop` code and proves each named
/// ordering is load-bearing. Compiled only under
/// `RUSTFLAGS="--cfg rips_verify"` (`cargo test -p rips-live` then runs
/// it; see `rips verify`).
#[cfg(all(test, rips_verify))]
mod verify_model {
    use super::*;
    use rips_verify::{vthread, Checker, Mutation, MutationKind, ViolationKind};

    /// Three items through a 2-slot ring: exercises the full-ring wait,
    /// the empty-ring wait, wraparound, and slot reuse.
    fn ring_model() -> impl Fn() + Send + Sync + 'static {
        || {
            let (tx, rx) = spsc::<u64>(2);
            let h = vthread::spawn_named("producer", move || {
                let mut tx = tx;
                for i in 0..3u64 {
                    let mut v = i;
                    loop {
                        match tx.push(v) {
                            Ok(()) => break,
                            Err(back) => {
                                v = back;
                                vthread::yield_now();
                            }
                        }
                    }
                }
            });
            let mut rx = rx;
            for expect in 0..3u64 {
                loop {
                    match rx.pop() {
                        Some(v) => {
                            assert_eq!(v, expect, "SPSC must preserve FIFO order");
                            break;
                        }
                        None => vthread::yield_now(),
                    }
                }
            }
            assert_eq!(rx.pop(), None);
            h.join().unwrap();
        }
    }

    #[test]
    fn model_spsc_is_clean() {
        let stats = Checker::from_env("live.ring.spsc")
            .check(ring_model())
            .expect("shipped SPSC protocol must be violation-free");
        assert!(stats.executions > 1);
    }

    #[test]
    fn sweep_each_weakened_ordering_is_caught() {
        for site in [
            "ring.push.head.acquire",
            "ring.push.tail.publish",
            "ring.pop.tail.acquire",
            "ring.pop.head.publish",
        ] {
            let v = Checker::from_env(&format!("live.ring.sweep.{site}"))
                .mutation(Mutation {
                    site,
                    kind: MutationKind::WeakenToRelaxed,
                })
                .check(ring_model())
                .unwrap_err();
            assert_eq!(
                v.kind,
                ViolationKind::DataRace,
                "weakening {site} must produce a slot data race, got:\n{}",
                v.replay
            );
            assert!(
                !v.schedule.is_empty(),
                "violation must carry a replay schedule"
            );
        }
    }
}
