//! The workspace's one fan-out: an order-preserving, self-scheduled
//! parallel map.
//!
//! Items are independent jobs of unpredictable size (a workload
//! builder's subtrees, a table's scheduler cells), so workers do not
//! take static blocks: each claims the next index from one shared
//! counter until none is left — the dynamic loop self-scheduling of
//! Eleliemy & Ciorba (PAPERS.md). Results land in the slot of their
//! item, so the output is independent of which worker ran what.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maps `f` over `items` on every host core, keeping item order. Each
/// item must be a deterministic function of its input alone; the
/// result is then identical to `items.iter().map(f).collect()`.
///
/// # Panics
/// If `f` panics on some item, with that panic's own payload.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let host = std::thread::available_parallelism().map_or(1, |p| p.get());
    par_map_with(host, items, f)
}

/// [`par_map`] on an explicit worker count, for callers that have
/// already decided a batch is too small to spread (`workers == 1`
/// runs inline: no thread is spawned) and for tests that pin the
/// count. The calling thread is one of the workers.
#[doc(hidden)]
pub fn par_map_with<T: Sync, R: Send>(
    workers: usize,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    // Pre-sized output: a worker only ever fills slots, so no thread
    // but the caller's allocates for the results.
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let claim = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else { break };
        let r = f(item);
        *slots[i].lock().expect("a slot is locked only to store") = Some(r);
    };
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(claim)).collect();
        claim();
        for worker in spawned {
            if let Err(payload) = worker.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    let filled = slots.into_iter().map(|slot| {
        let r = slot.into_inner().expect("a slot is locked only to store");
        r.expect("every index was claimed")
    });
    filled.collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_item_order_on_any_worker_count() {
        let items: Vec<u64> = (0..100).collect();
        let want: Vec<u64> = items.iter().map(|x| x * 10).collect();
        for workers in [1, 2, 7, 200] {
            assert_eq!(par_map_with(workers, &items, |x| x * 10), want);
        }
        assert_eq!(par_map(&[3u64, 1, 2], |x| x * 10), [30, 10, 20]);
        assert_eq!(par_map(&[] as &[u64], |x| *x), []);
    }

    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ran_on = par_map_with(1, &[(); 4], |()| std::thread::current().id());
        assert!(ran_on.iter().all(|&id| id == caller));
    }

    #[test]
    fn a_panicking_item_reaches_the_caller_with_its_own_message() {
        let items: Vec<u32> = (0..64).collect();
        let message = |caught: std::thread::Result<Vec<u32>>| {
            let payload = caught.expect_err("an item panics");
            let message = payload.downcast_ref::<String>().expect("a formatted panic");
            message.clone()
        };
        // Inline: the panic is the caller's own.
        let inline = std::panic::catch_unwind(|| {
            par_map_with(1, &items, |&k| {
                assert!(k != 41, "item {k} lost a task");
                k
            })
        });
        assert_eq!(message(inline), "item 41 lost a task");
        // Spread: the first item a *spawned* worker claims panics (the
        // caller dawdles so one surely does), and its payload crosses
        // the join.
        let caller = std::thread::current().id();
        for workers in [2, 7] {
            let spread = std::panic::catch_unwind(|| {
                par_map_with(workers, &items, |&k| {
                    if std::thread::current().id() == caller {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    } else {
                        panic!("item {k} lost a task");
                    }
                    k
                })
            });
            let message = message(spread);
            assert!(
                message.starts_with("item ") && message.ends_with(" lost a task"),
                "{workers} workers: {message}"
            );
        }
    }
}
