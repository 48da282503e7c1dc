//! One bounded-model-checking *execution*: a single interleaving of the
//! model threads, driven cooperatively.
//!
//! Exactly one model thread runs at a time. Every instrumented operation
//! (atomic access, fence, cell access, park, spawn, join, yield) first
//! reaches a *scheduling point*: the running thread consults the
//! [`Execution`], which either follows the explorer's replay prefix,
//! asks the PCT-style RNG, or defaults to running the current thread on
//! (non-preemptive default — alternatives are what the DFS explores).
//! Token hand-off is a `Mutex` + `Condvar`; the chosen thread performs
//! its operation under the execution lock, so all happens-before
//! bookkeeping is trivially race-free.
//!
//! The same lock holds the vector-clock state: per-thread clocks, a
//! release clock per atomic location, read/write epochs per
//! [`UnsafeCellWrap`](crate::rt::UnsafeCellWrap) location, and a global
//! SC clock that models `SeqCst` as synchronizing through a single
//! order (slightly stronger than C11 — conservative in the direction of
//! *no false positives* on correct code).

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::clock::VClock;

/// Hard cap on model threads per execution (the explorer targets 2–4).
pub const MAX_MODEL_THREADS: usize = 8;

/// Sentinel panic payload used to unwind model threads when an
/// execution aborts (violation found or replay divergence). Never
/// reported as a model failure.
pub(crate) struct Abort;

fn abort_unwind() -> ! {
    std::panic::panic_any(Abort)
}

/// What kind of property failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// Two unordered conflicting accesses to an `UnsafeCellWrap`.
    DataRace,
    /// No runnable thread, but not every thread has finished.
    Deadlock,
    /// The per-execution step budget was exhausted (spin without progress).
    Livelock,
    /// A model thread panicked (failed `assert!`, index error, …).
    AssertionFailure,
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ViolationKind::DataRace => "data race",
            ViolationKind::Deadlock => "deadlock",
            ViolationKind::Livelock => "livelock (step budget exhausted)",
            ViolationKind::AssertionFailure => "assertion failure",
        };
        f.write_str(s)
    }
}

/// Is the running thread about to read, write, or read-modify-write?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Rw {
    /// Pure load.
    Load,
    /// Pure store.
    Store,
    /// Atomic read-modify-write (swap, fetch_add, compare_exchange…).
    Rmw,
}

/// One executed step, for replay rendering.
#[derive(Clone, Debug)]
pub(crate) struct TraceEntry {
    /// Model thread that performed the step.
    pub tid: usize,
    /// Site label (from `sync::ord`/`fence_at`) when one was attached.
    pub label: Option<&'static str>,
    /// Human-readable operation, e.g. `AtomicUsize::load(Acquire) = 3`.
    pub op: String,
}

/// One scheduling decision, for DFS backtracking.
#[derive(Clone, Debug)]
pub(crate) struct Decision {
    /// Position in `enabled` of the free (default) continuation: the
    /// previously-running thread, or its round-robin successor after a
    /// voluntary yield. Choosing anything else is a preemption.
    pub prev_pos: Option<usize>,
    /// Threads that were runnable (minus a just-yielded current thread).
    pub enabled: Vec<usize>,
    /// Index into `enabled` that was taken.
    pub chosen: usize,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TState {
    Runnable,
    Parked,
    Joining(usize),
    Finished,
}

struct ThreadSlot {
    state: TState,
    yielded: bool,
    vc: VClock,
    /// Release clocks picked up by relaxed loads, absorbed by a later
    /// acquire fence.
    acq_pending: VClock,
    /// Clock at the most recent release fence; published by subsequent
    /// relaxed stores.
    rel_fence: Option<VClock>,
    park_token: bool,
    unpark_vc: VClock,
    final_vc: VClock,
    name: Option<&'static str>,
}

impl ThreadSlot {
    fn new(name: Option<&'static str>) -> Self {
        ThreadSlot {
            state: TState::Runnable,
            yielded: false,
            vc: VClock::new(),
            acq_pending: VClock::new(),
            rel_fence: None,
            park_token: false,
            unpark_vc: VClock::new(),
            final_vc: VClock::new(),
            name,
        }
    }
}

/// One entry in an atomic location's modification order, kept so later
/// loads may (legally) observe stale values — the weak-memory half of
/// the checker. Index 0 is a pseudo-store holding the initial value.
struct StoreRec {
    /// The stored value, encoded as `u64` by the `rt` wrappers.
    val: u64,
    /// Storing thread, or `usize::MAX` for the initial-value record.
    writer: usize,
    /// Writer's own clock component at the store: the must-see test
    /// (`reader.vc.covers(writer, epoch)`) decides whether
    /// happens-before forces a later load to observe this store.
    epoch: u64,
    /// Release state an acquire load of *this* store synchronizes with.
    rel_vc: VClock,
}

/// How many consecutive stale reads of one location a thread may make
/// before the next read is forced fresh. Keeps yielding spin loops
/// terminating (real hardware has eventual visibility too).
const MAX_STALE_RUN: u8 = 2;

/// Oldest store (counting back from the latest) a stale read may
/// return: the latest value plus one stale generation. Bounds the
/// branching factor per load to two; every classic weak-memory litmus
/// outcome (SB, MP, LB) needs only one generation of staleness.
const STALE_WINDOW: usize = 2;

#[derive(Default)]
struct AtomicLoc {
    release_vc: VClock,
    /// Modification order: every store/RMW through the seam, plus the
    /// captured initial value at index 0.
    stores: Vec<StoreRec>,
    /// Per-thread coherence floor: the lowest store index each thread
    /// may still read (CoRR + read-own-write).
    floor: [usize; MAX_MODEL_THREADS],
    /// Consecutive stale reads per thread, reset by a fresh read.
    stale_run: [u8; MAX_MODEL_THREADS],
}

#[derive(Default)]
struct CellLoc {
    last_write: Option<(usize, u64, usize)>, // (tid, epoch, trace step)
    reads: Vec<(usize, u64, usize)>,
}

struct XorShift64(u64);

impl XorShift64 {
    fn new(seed: u64) -> Self {
        XorShift64(seed | 1)
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Configuration for a single execution, set by the explorer.
pub(crate) struct ExecCfg {
    /// Forced choice indices replayed from the DFS stack.
    pub prefix: Vec<usize>,
    /// Per-execution step budget (livelock guard).
    pub max_steps: usize,
    /// When set, decisions beyond the prefix are drawn from this seed
    /// (PCT-style random mode) instead of the non-preemptive default.
    pub rng_seed: Option<u64>,
}

struct ExecState {
    current: usize,
    threads: Vec<ThreadSlot>,
    prefix: Vec<usize>,
    decisions: Vec<Decision>,
    steps: usize,
    max_steps: usize,
    rng: Option<XorShift64>,
    trace: Vec<TraceEntry>,
    violation: Option<(ViolationKind, String)>,
    aborting: bool,
    locs: HashMap<usize, AtomicLoc>,
    cells: HashMap<usize, CellLoc>,
    sc_clock: VClock,
}

/// What an execution produced, handed back to the explorer.
pub(crate) struct ExecOutcome {
    pub violation: Option<(ViolationKind, String)>,
    pub decisions: Vec<Decision>,
    pub trace: Vec<TraceEntry>,
    pub thread_names: Vec<String>,
}

/// One run of the model closure under a fixed scheduling policy.
pub(crate) struct Execution {
    inner: Mutex<ExecState>,
    cv: Condvar,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Execution {
    /// Creates the shared execution state for one schedule run.
    pub(crate) fn new(cfg: ExecCfg) -> Arc<Self> {
        Arc::new(Execution {
            inner: Mutex::new(ExecState {
                current: 0,
                threads: Vec::new(),
                prefix: cfg.prefix,
                decisions: Vec::new(),
                steps: 0,
                max_steps: cfg.max_steps,
                rng: cfg.rng_seed.map(XorShift64::new),
                trace: Vec::new(),
                violation: None,
                aborting: false,
                locs: HashMap::new(),
                cells: HashMap::new(),
                sc_clock: VClock::new(),
            }),
            cv: Condvar::new(),
            handles: Mutex::new(Vec::new()),
        })
    }

    fn lock(&self) -> MutexGuard<'_, ExecState> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_checked(&self) -> MutexGuard<'_, ExecState> {
        let st = self.lock();
        if st.aborting {
            drop(st);
            abort_unwind();
        }
        st
    }

    /// Record a violation, wake everyone, and flag the abort. Does not
    /// unwind — callers decide whether to.
    fn fail_locked(&self, st: &mut ExecState, kind: ViolationKind, msg: String) {
        if st.violation.is_none() {
            st.violation = Some((kind, msg));
        }
        st.aborting = true;
        self.cv.notify_all();
    }

    /// Register the root model thread (tid 0).
    pub(crate) fn register_main(&self) -> usize {
        let mut st = self.lock();
        debug_assert!(st.threads.is_empty());
        let mut slot = ThreadSlot::new(Some("main"));
        slot.vc.tick(0);
        st.threads.push(slot);
        st.current = 0;
        0
    }

    /// Track the OS handle backing a model thread so the harness can
    /// join everything at the end of the execution.
    pub(crate) fn add_handle(&self, h: std::thread::JoinHandle<()>) {
        self.handles
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(h);
    }

    /// Harness side: join every OS thread spawned for this execution.
    /// Handles for grandchildren are always pushed before their spawner
    /// can exit, so draining until empty is complete.
    pub(crate) fn join_all(&self) {
        loop {
            let h = self.handles.lock().unwrap_or_else(|e| e.into_inner()).pop();
            match h {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
    }

    /// Extract the result after `join_all`.
    pub(crate) fn outcome(&self) -> ExecOutcome {
        let st = self.lock();
        ExecOutcome {
            violation: st.violation.clone(),
            decisions: st.decisions.clone(),
            trace: st.trace.clone(),
            thread_names: st
                .threads
                .iter()
                .enumerate()
                .map(|(i, t)| match t.name {
                    Some(n) => format!("t{i}:{n}"),
                    None => format!("t{i}"),
                })
                .collect(),
        }
    }

    /// Block until this thread holds the run token.
    fn wait_for_token<'a>(
        &'a self,
        tid: usize,
        mut st: MutexGuard<'a, ExecState>,
    ) -> MutexGuard<'a, ExecState> {
        while st.current != tid && !st.aborting {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if st.aborting {
            drop(st);
            abort_unwind();
        }
        st
    }

    /// First wait of a freshly spawned model thread.
    pub(crate) fn first_wait(&self, tid: usize) {
        let st = self.lock();
        drop(self.wait_for_token(tid, st));
    }

    /// The scheduling point: pick who runs the next operation, then wait
    /// until (if) the token comes back.
    fn yield_here<'a>(
        &'a self,
        tid: usize,
        mut st: MutexGuard<'a, ExecState>,
    ) -> MutexGuard<'a, ExecState> {
        st.steps += 1;
        if st.steps > st.max_steps {
            let msg = format!(
                "execution exceeded {} steps without finishing; a thread is \
                 spinning without the progress it waits for ever arriving",
                st.max_steps
            );
            self.fail_locked(&mut st, ViolationKind::Livelock, msg);
            drop(st);
            abort_unwind();
        }
        // A thread that just called yield_now is excluded from its own
        // decision: running it again with nobody else in between is
        // state-equivalent to the same schedule without the yield, so
        // the branch adds no coverage — and offering it would let the
        // DFS build unbounded no-progress spins that trip the step
        // budget as a bogus livelock.
        let cur_yielded = std::mem::take(&mut st.threads[tid].yielded);
        let mut enabled: Vec<usize> = st
            .threads
            .iter()
            .enumerate()
            .filter(|&(i, t)| t.state == TState::Runnable && !(i == tid && cur_yielded))
            .map(|(i, _)| i)
            .collect();
        if enabled.is_empty() {
            // The yielder is the only runnable thread: let it spin; if
            // nobody ever unblocks, the step budget reports a livelock.
            enabled = vec![tid];
        }
        // The free (default) continuation: the current thread itself,
        // or — after a voluntary yield — its round-robin successor, so
        // the default path is fair. Any other choice is charged as a
        // preemption, which keeps unfair spin schedules bounded.
        let prev_pos = if cur_yielded {
            Some(enabled.iter().position(|&t| t > tid).unwrap_or(0))
        } else {
            enabled.iter().position(|&t| t == tid)
        };
        let d = st.decisions.len();
        let chosen = if d < st.prefix.len() {
            let p = st.prefix[d];
            if p >= enabled.len() {
                let msg = format!(
                    "schedule replay diverged at decision {d}: prefix index {p} \
                     but only {} threads enabled — the model is non-deterministic",
                    enabled.len()
                );
                self.fail_locked(&mut st, ViolationKind::AssertionFailure, msg);
                drop(st);
                abort_unwind();
            }
            p
        } else if let Some(rng) = st.rng.as_mut() {
            rng.below(enabled.len())
        } else {
            prev_pos.expect("current thread is always enabled (or rr successor picked)")
        };
        st.decisions.push(Decision {
            prev_pos,
            enabled: enabled.clone(),
            chosen,
        });
        let next = enabled[chosen];
        if next != tid {
            st.current = next;
            self.cv.notify_all();
            st = self.wait_for_token(tid, st);
        }
        st
    }

    fn push_trace(st: &mut ExecState, tid: usize, label: Option<&'static str>, op: String) {
        st.trace.push(TraceEntry { tid, label, op });
    }

    /// A scheduling point with no trace entry (used right after spawn,
    /// where the creation instant is already recorded).
    pub(crate) fn yield_silent(&self, tid: usize) {
        let st = self.lock_checked();
        drop(self.yield_here(tid, st));
    }

    /// Happens-before bookkeeping for an atomic store/RMW. (Loads are
    /// handled entirely by [`Execution::atomic_load`], which must first
    /// pick *which* store in the modification order the load observes.)
    fn sync_atomic(st: &mut ExecState, tid: usize, addr: usize, ord: Ordering, rw: Rw) {
        debug_assert!(rw != Rw::Load, "loads go through atomic_load");
        let ExecState {
            threads,
            locs,
            sc_clock,
            ..
        } = st;
        let thr = &mut threads[tid];
        thr.vc.tick(tid);
        let loc = locs.entry(addr).or_default();
        let acq = matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst);
        let rel = matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst);
        if rw == Rw::Rmw {
            // An RMW always reads the latest value in modification
            // order (C11 atomicity), so its read side synchronizes with
            // the current release state.
            if acq {
                thr.vc.join(&loc.release_vc);
            } else {
                thr.acq_pending.join(&loc.release_vc);
            }
        }
        if rel {
            if rw == Rw::Rmw {
                // A release RMW continues any existing release sequence.
                loc.release_vc.join(&thr.vc);
            } else {
                loc.release_vc = thr.vc.clone();
            }
        } else if rw == Rw::Rmw {
            // Relaxed RMW: the release sequence survives; a prior
            // release fence also publishes through it.
            if let Some(f) = &thr.rel_fence {
                loc.release_vc.join(f);
            }
        } else if let Some(f) = &thr.rel_fence {
            loc.release_vc = f.clone();
        } else {
            loc.release_vc.clear();
        }
        if ord == Ordering::SeqCst {
            // Only an RMW has a read side that participates in the SC
            // order as a load; a plain SeqCst *store* publishes into
            // the SC clock but is not an acquire operation (C11), so it
            // must not absorb it — otherwise a SeqCst store would
            // forbid weak behaviors (e.g. a stale re-poll after a
            // deleted fence) that the real memory model allows.
            if rw == Rw::Rmw {
                thr.vc.join(sc_clock);
            }
            sc_clock.join(&thr.vc);
        }
    }

    /// An instrumented atomic store or RMW: schedule, sync, run `real`
    /// under the execution lock, extend the modification order, trace.
    /// `real` performs the actual operation and returns
    /// `(shown, old, new)`: the value to display (old value for RMWs,
    /// the stored value for stores), the location's previous value, and
    /// the value the location holds afterwards.
    #[allow(
        clippy::too_many_arguments,
        reason = "one instrumented access carries its whole identity: thread, address, \
                  label, op, ordering and the closure that performs it"
    )]
    pub(crate) fn atomic_op(
        &self,
        tid: usize,
        addr: usize,
        label: Option<&'static str>,
        opname: &str,
        ord: Ordering,
        rw: Rw,
        real: &mut dyn FnMut() -> (u64, u64, u64),
    ) -> u64 {
        let st = self.lock_checked();
        let mut st = self.yield_here(tid, st);
        Self::sync_atomic(&mut st, tid, addr, ord, rw);
        let (shown, old, new) = real();
        {
            let ExecState { threads, locs, .. } = &mut *st;
            let loc = locs.entry(addr).or_default();
            if loc.stores.is_empty() {
                // Capture the pre-store value so stale reads may still
                // observe the initial state.
                loc.stores.push(StoreRec {
                    val: old,
                    writer: usize::MAX,
                    epoch: 0,
                    rel_vc: VClock::new(),
                });
            }
            let epoch = threads[tid].vc.get(tid);
            let rel_vc = loc.release_vc.clone();
            loc.stores.push(StoreRec {
                val: new,
                writer: tid,
                epoch,
                rel_vc,
            });
            // The writer (and an RMW's reader) observed the latest
            // value; coherence pins it there.
            loc.floor[tid] = loc.stores.len() - 1;
            loc.stale_run[tid] = 0;
        }
        Self::push_trace(&mut st, tid, label, format!("{opname}({ord:?}) = {shown}"));
        shown
    }

    /// Record a value (memory-nondeterminism) decision with
    /// `enabled.len()` alternatives. Unlike scheduling decisions these
    /// are free — they model the memory system, not a context switch —
    /// and the default is the *last* alternative (the freshest value),
    /// so the unforced first execution is sequentially consistent.
    fn choose_value<'a>(
        &'a self,
        st: &mut MutexGuard<'a, ExecState>,
        enabled: Vec<usize>,
    ) -> usize {
        let d = st.decisions.len();
        let chosen = if d < st.prefix.len() {
            let p = st.prefix[d];
            if p >= enabled.len() {
                let msg = format!(
                    "schedule replay diverged at decision {d}: prefix index {p} \
                     but only {} values readable — the model is non-deterministic",
                    enabled.len()
                );
                self.fail_locked(st, ViolationKind::AssertionFailure, msg);
                abort_unwind();
            }
            p
        } else if let Some(rng) = st.rng.as_mut() {
            rng.below(enabled.len())
        } else {
            enabled.len() - 1
        };
        st.decisions.push(Decision {
            prev_pos: None,
            enabled,
            chosen,
        });
        chosen
    }

    /// An instrumented atomic load: schedule, pick which store in the
    /// modification order the load observes (any not-yet-superseded
    /// store that coherence, happens-before, and the SC order permit —
    /// the weak-memory behaviors), synchronize with it, trace.
    /// `init` performs the real load, used only before any instrumented
    /// store has been recorded for the location.
    pub(crate) fn atomic_load(
        &self,
        tid: usize,
        addr: usize,
        label: Option<&'static str>,
        opname: &str,
        ord: Ordering,
        init: &mut dyn FnMut() -> u64,
    ) -> u64 {
        let st = self.lock_checked();
        let mut st = self.yield_here(tid, st);
        let acq = matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst);
        {
            let ExecState {
                threads, sc_clock, ..
            } = &mut *st;
            let thr = &mut threads[tid];
            thr.vc.tick(tid);
            if ord == Ordering::SeqCst {
                // Join the SC clock *before* the must-see test: a SeqCst
                // load is forced to observe every store that any earlier
                // SC operation published.
                thr.vc.join(sc_clock);
            }
        }
        let n = st.locs.entry(addr).or_default().stores.len();
        let (val, stale) = if n == 0 {
            (init(), false)
        } else {
            let lo = {
                let ExecState { threads, locs, .. } = &*st;
                let loc = &locs[&addr];
                let vc = &threads[tid].vc;
                let mut lo = loc.floor[tid];
                for (j, s) in loc.stores.iter().enumerate().skip(lo) {
                    // A store this thread made, or one ordered before
                    // the load by happens-before, supersedes everything
                    // older: the load must not travel back past it.
                    if s.writer == tid || vc.covers(s.writer, s.epoch) {
                        lo = j;
                    }
                }
                if loc.stale_run[tid] >= MAX_STALE_RUN {
                    lo = n - 1;
                }
                lo.max(n.saturating_sub(STALE_WINDOW))
            };
            let k = if lo == n - 1 {
                n - 1
            } else {
                lo + self.choose_value(&mut st, (lo..n).collect())
            };
            let ExecState { threads, locs, .. } = &mut *st;
            let loc = locs.get_mut(&addr).expect("location exists");
            let thr = &mut threads[tid];
            loc.floor[tid] = k;
            loc.stale_run[tid] = if k + 1 == n {
                0
            } else {
                loc.stale_run[tid].saturating_add(1)
            };
            let rec = &loc.stores[k];
            if acq {
                thr.vc.join(&rec.rel_vc);
            } else {
                thr.acq_pending.join(&rec.rel_vc);
            }
            (rec.val, k + 1 < n)
        };
        if ord == Ordering::SeqCst {
            let ExecState {
                threads, sc_clock, ..
            } = &mut *st;
            sc_clock.join(&threads[tid].vc);
        }
        let suffix = if stale { " (stale)" } else { "" };
        Self::push_trace(
            &mut st,
            tid,
            label,
            format!("{opname}({ord:?}) = {val}{suffix}"),
        );
        val
    }

    /// An instrumented memory fence.
    pub(crate) fn fence(&self, tid: usize, label: Option<&'static str>, ord: Ordering) {
        let st = self.lock_checked();
        let mut st = self.yield_here(tid, st);
        let ExecState {
            threads, sc_clock, ..
        } = &mut *st;
        let thr = &mut threads[tid];
        thr.vc.tick(tid);
        if matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst) {
            let pending = std::mem::take(&mut thr.acq_pending);
            thr.vc.join(&pending);
        }
        if matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst) {
            thr.rel_fence = Some(thr.vc.clone());
        }
        if ord == Ordering::SeqCst {
            thr.vc.join(sc_clock);
            sc_clock.join(&thr.vc);
        }
        Self::push_trace(&mut st, tid, label, format!("fence({ord:?})"));
    }

    /// An access to the data protected by an `UnsafeCellWrap`. Reports a
    /// data race when the access is not ordered (by the tracked
    /// happens-before relation) after every conflicting prior access.
    pub(crate) fn cell_access(
        &self,
        tid: usize,
        addr: usize,
        label: Option<&'static str>,
        write: bool,
    ) {
        let st = self.lock_checked();
        let mut st = self.yield_here(tid, st);
        let step = st.trace.len();
        let kind = if write { "write" } else { "read" };
        Self::push_trace(&mut st, tid, label, format!("cell {kind} @{addr:#x}"));
        let ExecState { threads, cells, .. } = &mut *st;
        let thr = &mut threads[tid];
        let epoch = thr.vc.tick(tid);
        let loc = cells.entry(addr).or_default();
        let mut race: Option<String> = None;
        if let Some((wtid, wep, wstep)) = loc.last_write {
            if wtid != tid && !thr.vc.covers(wtid, wep) {
                race = Some(format!(
                    "cell @{addr:#x}: {kind} by t{tid} (step {step}) is unordered \
                     with the write by t{wtid} (step {wstep})"
                ));
            }
        }
        if write && race.is_none() {
            for &(rtid, rep, rstep) in &loc.reads {
                if rtid != tid && !thr.vc.covers(rtid, rep) {
                    race = Some(format!(
                        "cell @{addr:#x}: write by t{tid} (step {step}) is unordered \
                         with the read by t{rtid} (step {rstep})"
                    ));
                    break;
                }
            }
        }
        if let Some(msg) = race {
            self.fail_locked(&mut st, ViolationKind::DataRace, msg);
            drop(st);
            abort_unwind();
        }
        if write {
            loc.last_write = Some((tid, epoch, step));
            loc.reads.clear();
        } else {
            match loc.reads.iter_mut().find(|(t, _, _)| *t == tid) {
                Some(r) => *r = (tid, epoch, step),
                None => loc.reads.push((tid, epoch, step)),
            }
        }
    }

    /// Forget a location when its owner is dropped (guards against
    /// address reuse within one execution).
    pub(crate) fn retire(&self, addr: usize) {
        let mut st = self.lock();
        st.locs.remove(&addr);
        st.cells.remove(&addr);
    }

    /// Register a child thread slot; the spawn edge is a happens-before
    /// edge from parent to child.
    pub(crate) fn spawn_slot(&self, parent: usize, name: Option<&'static str>) -> usize {
        let mut st = self.lock_checked();
        let tid = st.threads.len();
        if tid >= MAX_MODEL_THREADS {
            self.fail_locked(
                &mut st,
                ViolationKind::AssertionFailure,
                format!("model spawned more than {MAX_MODEL_THREADS} threads"),
            );
            drop(st);
            abort_unwind();
        }
        let parent_vc = st.threads[parent].vc.clone();
        let mut slot = ThreadSlot::new(name);
        slot.vc = parent_vc;
        slot.vc.tick(tid);
        st.threads.push(slot);
        Self::push_trace(&mut st, parent, name, format!("spawn t{tid}"));
        tid
    }

    /// Block the current thread (`state` must already be set by the
    /// caller) and hand the token to someone runnable; detect deadlock
    /// when nobody is.
    fn block<'a>(
        &'a self,
        tid: usize,
        state: TState,
        mut st: MutexGuard<'a, ExecState>,
    ) -> MutexGuard<'a, ExecState> {
        st.threads[tid].state = state;
        match self.handoff(&mut st, tid) {
            Ok(()) => self.wait_for_token(tid, st),
            Err(()) => {
                drop(st);
                abort_unwind();
            }
        }
    }

    /// Give the token to any runnable thread; `Err` means a deadlock was
    /// recorded (or everything finished — then there is nobody to wake
    /// and the caller is exiting anyway).
    fn handoff(&self, st: &mut ExecState, from: usize) -> Result<(), ()> {
        let next = st.threads.iter().position(|t| t.state == TState::Runnable);
        match next {
            Some(next) => {
                st.current = next;
                self.cv.notify_all();
                Ok(())
            }
            None => {
                if st.threads.iter().all(|t| t.state == TState::Finished) {
                    self.cv.notify_all();
                    return Ok(());
                }
                let stuck: Vec<String> = st
                    .threads
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| !matches!(t.state, TState::Finished))
                    .map(|(i, t)| match t.state {
                        TState::Parked => format!("t{i} parked"),
                        TState::Joining(j) => format!("t{i} joining t{j}"),
                        _ => format!("t{i} (from t{from})"),
                    })
                    .collect();
                let msg = format!(
                    "no runnable thread but not all finished: {}",
                    stuck.join(", ")
                );
                self.fail_locked(st, ViolationKind::Deadlock, msg);
                Err(())
            }
        }
    }

    /// Model `std::thread::park`: consume the token or block until
    /// `unpark`. The unparker's clock is acquired on wake-up, matching
    /// the happens-before edge std guarantees.
    pub(crate) fn park(&self, tid: usize) {
        let st = self.lock_checked();
        let mut st = self.yield_here(tid, st);
        if st.threads[tid].park_token {
            Self::push_trace(&mut st, tid, None, "park (token ready)".into());
        } else {
            Self::push_trace(&mut st, tid, None, "park (blocking)".into());
            st = self.block(tid, TState::Parked, st);
            Self::push_trace(&mut st, tid, None, "unparked".into());
        }
        let thr = &mut st.threads[tid];
        thr.park_token = false;
        let uvc = std::mem::take(&mut thr.unpark_vc);
        thr.vc.join(&uvc);
    }

    /// Model `park_timeout`: a timeout always eventually fires, so this
    /// never blocks — it consumes a ready token or returns immediately
    /// (the schedule where the timeout fires at once). Wake-up-by-timer
    /// interleavings are therefore always explored; the cost is that
    /// "parked until timeout" states are not.
    pub(crate) fn park_timeout(&self, tid: usize) {
        let st = self.lock_checked();
        let mut st = self.yield_here(tid, st);
        let op = if st.threads[tid].park_token {
            "park_timeout (token ready)"
        } else {
            "park_timeout (timeout)"
        };
        Self::push_trace(&mut st, tid, None, op.into());
        let thr = &mut st.threads[tid];
        thr.park_token = false;
        let uvc = std::mem::take(&mut thr.unpark_vc);
        thr.vc.join(&uvc);
    }

    /// Model `Thread::unpark`. Deliberately *not* a scheduling point:
    /// the live transport calls it while holding a std `Mutex`, and a
    /// context switch there would deadlock the harness, not the model.
    pub(crate) fn unpark(&self, from: Option<usize>, target: usize) {
        let mut st = self.lock();
        if st.aborting || target >= st.threads.len() {
            return;
        }
        if let Some(f) = from {
            let fvc = st.threads[f].vc.clone();
            st.threads[target].unpark_vc.join(&fvc);
            Self::push_trace(&mut st, f, None, format!("unpark t{target}"));
        }
        let thr = &mut st.threads[target];
        thr.park_token = true;
        if thr.state == TState::Parked {
            thr.state = TState::Runnable;
        }
    }

    /// Model `yield_now`/`spin_loop`: deprioritize this thread so the
    /// scheduler prefers anyone it might be waiting on.
    pub(crate) fn yield_now(&self, tid: usize) {
        let st = self.lock_checked();
        let mut st = {
            let mut st = st;
            st.threads[tid].yielded = true;
            self.yield_here(tid, st)
        };
        Self::push_trace(&mut st, tid, None, "yield".into());
    }

    /// Model `JoinHandle::join`.
    pub(crate) fn join_thread(&self, tid: usize, target: usize) {
        let st = self.lock_checked();
        let mut st = self.yield_here(tid, st);
        if st.threads[target].state != TState::Finished {
            Self::push_trace(&mut st, tid, None, format!("join t{target} (blocking)"));
            st = self.block(tid, TState::Joining(target), st);
        }
        let fvc = st.threads[target].final_vc.clone();
        st.threads[tid].vc.join(&fvc);
        Self::push_trace(&mut st, tid, None, format!("joined t{target}"));
    }

    /// A model thread ran to completion (or unwound after an abort).
    pub(crate) fn finish(&self, tid: usize) {
        let mut st = self.lock();
        st.threads[tid].state = TState::Finished;
        st.threads[tid].final_vc = st.threads[tid].vc.clone();
        if st.aborting {
            self.cv.notify_all();
            return;
        }
        Self::push_trace(&mut st, tid, None, "finish".into());
        for t in st.threads.iter_mut() {
            if t.state == TState::Joining(tid) {
                t.state = TState::Runnable;
            }
        }
        let _ = self.handoff(&mut st, tid);
    }

    /// A model thread panicked with a real (non-[`Abort`]) payload.
    pub(crate) fn fail_assert(&self, tid: usize, msg: String) {
        let mut st = self.lock();
        if !st.aborting {
            let full = format!("t{tid} panicked: {msg}");
            self.fail_locked(&mut st, ViolationKind::AssertionFailure, full);
        }
        st.threads[tid].state = TState::Finished;
        self.cv.notify_all();
    }
}
