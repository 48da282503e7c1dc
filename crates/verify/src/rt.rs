//! The instrumented runtime: model-checked atomics, cells, fences and
//! threads.
//!
//! These types are compiled unconditionally (so the checker's own test
//! suite runs under a plain `cargo test`); the `--cfg rips_verify` seam
//! in [`crate::sync`]/[`crate::vthread`] merely decides whether the
//! *production* crates resolve to them or to the raw `std` types.
//!
//! Every operation first looks for an active `Execution` in
//! thread-local storage. Inside a model thread it becomes a scheduling
//! point with happens-before bookkeeping; outside one (ordinary tests,
//! or teardown during an aborted execution) it falls through to the
//! real `std` operation, so code compiled against the instrumented
//! layer still behaves normally when no checker is running.

use std::cell::{Cell, RefCell};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};
use std::time::Duration;

use crate::exec::{Execution, Rw};

thread_local! {
    static EXEC: RefCell<Option<(Arc<Execution>, usize)>> = const { RefCell::new(None) };
    static LAST_SITE: Cell<Option<&'static str>> = const { Cell::new(None) };
}

pub(crate) fn set_exec(exec: Arc<Execution>, tid: usize) {
    EXEC.with(|e| *e.borrow_mut() = Some((exec, tid)));
}

pub(crate) fn clear_exec() {
    EXEC.with(|e| *e.borrow_mut() = None);
}

fn current_exec() -> Option<(Arc<Execution>, usize)> {
    EXEC.with(|e| e.borrow().clone())
}

/// True when the calling OS thread is a model thread of some active
/// execution (used by the panic hook to suppress expected unwinds).
pub(crate) fn in_model_thread() -> bool {
    EXEC.with(|e| e.borrow().is_some())
}

/// Attach a site label (from `sync::ord`/`fence_at`) to the next
/// instrumented operation on this thread. Purely cosmetic: it makes
/// replay traces name program points instead of raw addresses.
pub fn set_site(site: &'static str) {
    LAST_SITE.with(|s| s.set(Some(site)));
}

fn take_site() -> Option<&'static str> {
    LAST_SITE.with(|s| s.take())
}

/// Run `real` as an instrumented store/RMW if a model execution is
/// active on this thread (and it is not unwinding). `real` performs
/// the operation and returns `(shown, old, new)` — see
/// [`Execution::atomic_op`].
fn instrumented(
    key: usize,
    opname: &'static str,
    ord: Ordering,
    rw: Rw,
    real: &mut dyn FnMut() -> (u64, u64, u64),
) -> Option<u64> {
    if std::thread::panicking() {
        return None;
    }
    let label = take_site();
    current_exec().map(|(exec, tid)| exec.atomic_op(tid, key, label, opname, ord, rw, real))
}

/// Run an instrumented load if a model execution is active: the
/// checker picks which store in the modification order the load
/// observes (possibly a stale one). `init` performs the real load,
/// consulted only before any instrumented store exists.
fn instrumented_load(
    key: usize,
    opname: &'static str,
    ord: Ordering,
    init: &mut dyn FnMut() -> u64,
) -> Option<u64> {
    if std::thread::panicking() {
        return None;
    }
    let label = take_site();
    current_exec().map(|(exec, tid)| exec.atomic_load(tid, key, label, opname, ord, init))
}

fn retire_key(key: usize) {
    if let Some((exec, _)) = current_exec() {
        exec.retire(key);
    }
}

macro_rules! int_atomic {
    ($(#[$doc:meta])* $name:ident, $std:ty, $prim:ty) => {
        $(#[$doc])*
        pub struct $name {
            inner: $std,
        }

        impl $name {
            /// Create a new atomic with the given initial value.
            pub fn new(v: $prim) -> Self {
                Self { inner: <$std>::new(v) }
            }

            fn key(&self) -> usize {
                self as *const _ as usize
            }

            /// Instrumented atomic load.
            pub fn load(&self, ord: Ordering) -> $prim {
                match instrumented_load(
                    self.key(),
                    concat!(stringify!($name), "::load"),
                    ord,
                    &mut || self.inner.load(ord) as u64,
                ) {
                    Some(v) => v as $prim,
                    None => self.inner.load(ord),
                }
            }

            /// Instrumented atomic store.
            pub fn store(&self, v: $prim, ord: Ordering) {
                if instrumented(
                    self.key(),
                    concat!(stringify!($name), "::store"),
                    ord,
                    Rw::Store,
                    &mut || {
                        let old = self.inner.load(Ordering::Relaxed);
                        self.inner.store(v, ord);
                        (v as u64, old as u64, v as u64)
                    },
                )
                .is_none()
                {
                    self.inner.store(v, ord);
                }
            }

            /// Instrumented atomic swap.
            pub fn swap(&self, v: $prim, ord: Ordering) -> $prim {
                match instrumented(
                    self.key(),
                    concat!(stringify!($name), "::swap"),
                    ord,
                    Rw::Rmw,
                    &mut || {
                        let old = self.inner.swap(v, ord);
                        (old as u64, old as u64, v as u64)
                    },
                ) {
                    Some(old) => old as $prim,
                    None => self.inner.swap(v, ord),
                }
            }

            /// Instrumented atomic fetch-add; returns the previous value.
            pub fn fetch_add(&self, v: $prim, ord: Ordering) -> $prim {
                match instrumented(
                    self.key(),
                    concat!(stringify!($name), "::fetch_add"),
                    ord,
                    Rw::Rmw,
                    &mut || {
                        let old = self.inner.fetch_add(v, ord);
                        (old as u64, old as u64, old.wrapping_add(v) as u64)
                    },
                ) {
                    Some(old) => old as $prim,
                    None => self.inner.fetch_add(v, ord),
                }
            }

            /// Instrumented atomic fetch-sub; returns the previous value.
            pub fn fetch_sub(&self, v: $prim, ord: Ordering) -> $prim {
                match instrumented(
                    self.key(),
                    concat!(stringify!($name), "::fetch_sub"),
                    ord,
                    Rw::Rmw,
                    &mut || {
                        let old = self.inner.fetch_sub(v, ord);
                        (old as u64, old as u64, old.wrapping_sub(v) as u64)
                    },
                ) {
                    Some(old) => old as $prim,
                    None => self.inner.fetch_sub(v, ord),
                }
            }
        }

        impl Drop for $name {
            fn drop(&mut self) {
                retire_key(self.key());
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_tuple(stringify!($name))
                    .field(&self.inner.load(Ordering::Relaxed))
                    .finish()
            }
        }
    };
}

int_atomic!(
    /// Model-checked drop-in for `std::sync::atomic::AtomicU32`.
    AtomicU32,
    std::sync::atomic::AtomicU32,
    u32
);
int_atomic!(
    /// Model-checked drop-in for `std::sync::atomic::AtomicU64`.
    AtomicU64,
    std::sync::atomic::AtomicU64,
    u64
);
int_atomic!(
    /// Model-checked drop-in for `std::sync::atomic::AtomicUsize`.
    AtomicUsize,
    std::sync::atomic::AtomicUsize,
    usize
);

/// Model-checked drop-in for `std::sync::atomic::AtomicBool`.
pub struct AtomicBool {
    inner: std::sync::atomic::AtomicBool,
}

impl AtomicBool {
    /// Create a new atomic bool.
    pub fn new(v: bool) -> Self {
        Self {
            inner: std::sync::atomic::AtomicBool::new(v),
        }
    }

    fn key(&self) -> usize {
        self as *const _ as usize
    }

    /// Instrumented atomic load.
    pub fn load(&self, ord: Ordering) -> bool {
        match instrumented_load(self.key(), "AtomicBool::load", ord, &mut || {
            self.inner.load(ord) as u64
        }) {
            Some(v) => v != 0,
            None => self.inner.load(ord),
        }
    }

    /// Instrumented atomic store.
    pub fn store(&self, v: bool, ord: Ordering) {
        if instrumented(self.key(), "AtomicBool::store", ord, Rw::Store, &mut || {
            let old = self.inner.load(Ordering::Relaxed);
            self.inner.store(v, ord);
            (v as u64, old as u64, v as u64)
        })
        .is_none()
        {
            self.inner.store(v, ord);
        }
    }

    /// Instrumented atomic swap.
    pub fn swap(&self, v: bool, ord: Ordering) -> bool {
        match instrumented(self.key(), "AtomicBool::swap", ord, Rw::Rmw, &mut || {
            let old = self.inner.swap(v, ord);
            (old as u64, old as u64, v as u64)
        }) {
            Some(old) => old != 0,
            None => self.inner.swap(v, ord),
        }
    }
}

impl Drop for AtomicBool {
    fn drop(&mut self) {
        retire_key(self.key());
    }
}

impl std::fmt::Debug for AtomicBool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("AtomicBool")
            .field(&self.inner.load(Ordering::Relaxed))
            .finish()
    }
}

/// Instrumented memory fence.
pub fn fence(ord: Ordering) {
    if std::thread::panicking() {
        std::sync::atomic::fence(ord);
        return;
    }
    let label = take_site();
    match current_exec() {
        Some((exec, tid)) => exec.fence(tid, label, ord),
        None => std::sync::atomic::fence(ord),
    }
}

/// A cell whose accesses the checker watches for data races.
///
/// The closure-based API (`with` for shared reads, `with_mut` for
/// exclusive writes) hands out *raw pointers*, never references, so the
/// caller decides the aliasing story — exactly like `loom::cell`.
/// Dereferencing is the caller's `unsafe`; this crate itself contains
/// none: the instrumented cell is backed by a `Mutex` (which also makes
/// it `Sync` by composition), so even a *detected* race never touches
/// memory unsoundly inside the harness. The production seam
/// (`cfg(not(rips_verify))`) uses a zero-cost raw `UnsafeCell` instead.
pub struct UnsafeCellWrap<T> {
    inner: std::sync::Mutex<T>,
}

impl<T> UnsafeCellWrap<T> {
    /// Wrap a value.
    pub fn new(v: T) -> Self {
        Self {
            inner: std::sync::Mutex::new(v),
        }
    }

    fn key(&self) -> usize {
        self as *const _ as usize
    }

    fn record(&self, write: bool) {
        if std::thread::panicking() {
            return;
        }
        let label = take_site();
        if let Some((exec, tid)) = current_exec() {
            exec.cell_access(tid, self.key(), label, write);
        }
    }

    /// Shared (read) access to the protected value.
    pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
        self.record(false);
        let guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        f(&*guard as *const T)
    }

    /// Exclusive (write) access to the protected value.
    pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
        self.record(true);
        let mut guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        f(&mut *guard as *mut T)
    }
}

impl<T> Drop for UnsafeCellWrap<T> {
    fn drop(&mut self) {
        retire_key(self.key());
    }
}

/// Model-checked threads: `spawn`, `park`/`unpark`, `yield_now`.
pub mod thread {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Mutex;

    fn payload_msg(p: &(dyn std::any::Any + Send)) -> String {
        if let Some(s) = p.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = p.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    }

    /// A handle to a (possibly model) thread, cloneable and sendable —
    /// mirrors `std::thread::Thread` for the one method the live
    /// transport needs: [`Thread::unpark`].
    #[derive(Clone)]
    pub struct Thread(Inner);

    #[derive(Clone)]
    enum Inner {
        Std(std::thread::Thread),
        Model { exec: Weak<Execution>, tid: usize },
    }

    impl Thread {
        /// Make the target thread's next `park` return (or wake it now).
        pub fn unpark(&self) {
            match &self.0 {
                Inner::Std(t) => t.unpark(),
                Inner::Model { exec, tid } => {
                    if let Some(exec) = exec.upgrade() {
                        let from = current_exec()
                            .filter(|(e, _)| Arc::ptr_eq(e, &exec))
                            .map(|(_, t)| t);
                        exec.unpark(from, *tid);
                    }
                }
            }
        }
    }

    impl std::fmt::Debug for Thread {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match &self.0 {
                Inner::Std(t) => write!(f, "Thread({:?})", t.id()),
                Inner::Model { tid, .. } => write!(f, "Thread(model t{tid})"),
            }
        }
    }

    /// Handle to the current (possibly model) thread.
    pub fn current() -> Thread {
        match current_exec() {
            Some((exec, tid)) => Thread(Inner::Model {
                exec: Arc::downgrade(&exec),
                tid,
            }),
            None => Thread(Inner::Std(std::thread::current())),
        }
    }

    /// Block until unparked (model: a scheduling point with the std
    /// park-token semantics and the unpark happens-before edge).
    pub fn park() {
        if std::thread::panicking() {
            return;
        }
        match current_exec() {
            Some((exec, tid)) => exec.park(tid),
            None => std::thread::park(),
        }
    }

    /// Park with a timeout. The model treats the timeout as always able
    /// to fire immediately, so this never blocks a model thread.
    pub fn park_timeout(dur: Duration) {
        if std::thread::panicking() {
            return;
        }
        match current_exec() {
            Some((exec, tid)) => exec.park_timeout(tid),
            None => std::thread::park_timeout(dur),
        }
    }

    /// Cooperative yield; the model deprioritizes the caller so spin
    /// loops let the threads they wait on make progress.
    pub fn yield_now() {
        if std::thread::panicking() {
            return;
        }
        match current_exec() {
            Some((exec, tid)) => exec.yield_now(tid),
            None => std::thread::yield_now(),
        }
    }

    /// Handle to a spawned (possibly model) thread.
    pub struct JoinHandle<T>(JInner<T>);

    enum JInner<T> {
        Std(std::thread::JoinHandle<T>),
        Model {
            exec: Arc<Execution>,
            tid: usize,
            result: Arc<Mutex<Option<std::thread::Result<T>>>>,
        },
    }

    impl<T> JoinHandle<T> {
        /// Wait for the thread to finish and take its result.
        pub fn join(self) -> std::thread::Result<T> {
            match self.0 {
                JInner::Std(h) => h.join(),
                JInner::Model { exec, tid, result } => {
                    let me = current_exec().map(|(_, t)| t).unwrap_or(0);
                    exec.join_thread(me, tid);
                    result
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .take()
                        .unwrap_or_else(|| Err(Box::new("model thread produced no result")))
                }
            }
        }
    }

    /// Spawn a thread (a model thread when a checker execution is
    /// active on the caller, a real `std` thread otherwise).
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        spawn_inner(None, f)
    }

    /// [`spawn`] with a name that shows up in replay traces.
    pub fn spawn_named<F, T>(name: &'static str, f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        spawn_inner(Some(name), f)
    }

    fn spawn_inner<F, T>(name: Option<&'static str>, f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let Some((exec, parent)) = current_exec() else {
            let mut b = std::thread::Builder::new();
            if let Some(n) = name {
                b = b.name(n.to_string());
            }
            return JoinHandle(JInner::Std(b.spawn(f).expect("spawn thread")));
        };
        let tid = exec.spawn_slot(parent, name);
        let result = Arc::new(Mutex::new(None));
        let r2 = Arc::clone(&result);
        let e2 = Arc::clone(&exec);
        let h = std::thread::Builder::new()
            .name(match name {
                Some(n) => format!("model-{n}"),
                None => format!("model-t{tid}"),
            })
            .spawn(move || {
                set_exec(Arc::clone(&e2), tid);
                let out = catch_unwind(AssertUnwindSafe(|| {
                    e2.first_wait(tid);
                    f()
                }));
                match out {
                    Ok(v) => {
                        *r2.lock().unwrap_or_else(|e| e.into_inner()) = Some(Ok(v));
                        e2.finish(tid);
                    }
                    Err(p) => {
                        if p.is::<crate::exec::Abort>() {
                            e2.finish(tid);
                        } else {
                            e2.fail_assert(tid, payload_msg(p.as_ref()));
                            *r2.lock().unwrap_or_else(|e| e.into_inner()) = Some(Err(p));
                        }
                    }
                }
                clear_exec();
            })
            .expect("spawn model thread");
        exec.add_handle(h);
        exec.yield_silent(parent);
        JoinHandle(JInner::Model { exec, tid, result })
    }
}
