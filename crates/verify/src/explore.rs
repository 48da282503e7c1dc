//! The interleaving explorer: drives many [`Execution`]s of one model
//! closure under different schedules.
//!
//! It runs a DFS with a preemption bound: it systematically enumerates
//! every schedule reachable with at most `bound` preemptions (a switch
//! away from a thread that could have kept running). Voluntary switches
//! (yield, park, finish) are free. Most real synchronization bugs need
//! very few preemptions, so bound 2–3 covers the interesting space at a
//! tiny fraction of the full factorial cost.
//!
//! A failing execution is reported as a [`Violation`]
//! carrying the full replay: the exact choice sequence plus a rendered
//! step-by-step trace. Feeding the choice sequence back through
//! [`Checker::replay`] reproduces the failure deterministically.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, Once};

use crate::exec::{ExecCfg, ExecOutcome, Execution, ViolationKind};
use crate::mutate::{self, Mutation};
use crate::rt;

/// All checker runs in the process are serialized by this lock: the
/// mutation plan is process-global, and running two explorations at
/// once would let `cargo test`'s parallel test threads observe each
/// other's seeded bugs.
static MODEL_LOCK: Mutex<()> = Mutex::new(());

static PANIC_HOOK: Once = Once::new();

fn install_panic_hook() {
    PANIC_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            // Model threads unwind constantly (aborted executions) and
            // their real panics are captured as violations; keep the
            // default hook's noise for everything else.
            if info.payload().is::<crate::exec::Abort>() || rt::in_model_thread() {
                return;
            }
            prev(info);
        }));
    });
}

/// A property failure found by the checker, with everything needed to
/// reproduce it.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which property failed.
    pub kind: ViolationKind,
    /// One-line description of the failure.
    pub message: String,
    /// The exact choice sequence; feed to [`Checker::replay`].
    pub schedule: Vec<usize>,
    /// The rendered step-by-step replay trace.
    pub replay: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.replay)
    }
}

impl std::error::Error for Violation {}

/// Exploration statistics for a clean (violation-free) run.
#[derive(Clone, Copy, Debug)]
pub struct Stats {
    /// Number of complete executions explored.
    pub executions: usize,
    /// True when the iteration cap stopped exploration before the
    /// bounded space was exhausted.
    pub capped: bool,
}

enum Mode {
    Dfs,
    Replay(Vec<usize>),
}

/// Configuration + entry point for checking one model.
pub struct Checker {
    name: String,
    bound: usize,
    max_steps: usize,
    mode: Mode,
    mutation: Option<Mutation>,
}

/// Exploration stops (reporting [`Stats::capped`]) after this many
/// executions.
const MAX_EXECUTIONS: usize = 200_000;

fn env_usize(key: &str) -> Option<usize> {
    std::env::var(key).ok()?.trim().parse().ok()
}

impl Checker {
    /// A DFS checker with the defaults used across the model suites:
    /// preemption bound 3, 200k-execution cap, 20k-step livelock guard.
    pub fn new(name: &str) -> Self {
        Checker {
            name: name.to_string(),
            bound: 3,
            max_steps: 20_000,
            mode: Mode::Dfs,
            mutation: None,
        }
    }

    /// Like [`Checker::new`], honoring the `RIPS_VERIFY_BOUND`
    /// environment knob so CI can trade coverage for wall clock without
    /// recompiling.
    pub fn from_env(name: &str) -> Self {
        let mut c = Checker::new(name);
        if let Some(b) = env_usize("RIPS_VERIFY_BOUND") {
            c.bound = b;
        }
        c
    }

    /// Set the per-execution step budget (the livelock guard).
    pub fn max_steps(mut self, steps: usize) -> Self {
        self.max_steps = steps;
        self
    }

    /// Install a single seeded bug for this run (the mutation sweep).
    pub fn mutation(mut self, m: Mutation) -> Self {
        self.mutation = Some(m);
        self
    }

    /// Re-run one exact schedule from a previous [`Violation`].
    pub fn replay(mut self, schedule: Vec<usize>) -> Self {
        self.mode = Mode::Replay(schedule);
        self
    }

    /// Explore the model. `Ok` carries exploration stats; `Err` carries
    /// the first violation found, with its deterministic replay.
    pub fn check<F>(self, f: F) -> Result<Stats, Violation>
    where
        F: Fn() + Send + Sync + 'static,
    {
        install_panic_hook();
        let _guard = MODEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        struct ClearMutation;
        impl Drop for ClearMutation {
            fn drop(&mut self) {
                mutate::set(None);
            }
        }
        let _clear = ClearMutation;
        mutate::set(self.mutation);
        let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
        match &self.mode {
            Mode::Dfs => self.run_dfs(&f),
            Mode::Replay(schedule) => {
                let prefix = schedule.clone();
                let outcome = self.run_one(prefix, &f);
                match outcome.violation.clone() {
                    Some(v) => Err(self.render(v, &outcome)),
                    None => Ok(Stats {
                        executions: 1,
                        capped: false,
                    }),
                }
            }
        }
    }

    fn run_one(&self, prefix: Vec<usize>, f: &Arc<dyn Fn() + Send + Sync>) -> ExecOutcome {
        let exec = Execution::new(ExecCfg {
            prefix,
            max_steps: self.max_steps,
        });
        let tid0 = exec.register_main();
        let f2 = Arc::clone(f);
        let e2 = Arc::clone(&exec);
        let h = std::thread::Builder::new()
            .name("model-main".to_string())
            .spawn(move || {
                rt::set_exec(Arc::clone(&e2), tid0);
                let out = catch_unwind(AssertUnwindSafe(|| (f2)()));
                match out {
                    Ok(()) => e2.finish(tid0),
                    Err(p) => {
                        if p.is::<crate::exec::Abort>() {
                            e2.finish(tid0);
                        } else {
                            let msg = if let Some(s) = p.downcast_ref::<&str>() {
                                (*s).to_string()
                            } else if let Some(s) = p.downcast_ref::<String>() {
                                s.clone()
                            } else {
                                "non-string panic payload".to_string()
                            };
                            e2.fail_assert(tid0, msg);
                        }
                    }
                }
                rt::clear_exec();
            })
            .expect("spawn model main thread");
        exec.add_handle(h);
        exec.join_all();
        exec.outcome()
    }

    fn run_dfs(&self, f: &Arc<dyn Fn() + Send + Sync>) -> Result<Stats, Violation> {
        struct Node {
            prev_pos: Option<usize>,
            choice: usize,
            /// Untried alternative indices at this decision.
            remaining: Vec<usize>,
            /// Preemptions spent strictly above this decision.
            preemptions_before: usize,
        }
        let mut stack: Vec<Node> = Vec::new();
        let mut prefix: Vec<usize> = Vec::new();
        let mut executions = 0usize;
        loop {
            let outcome = self.run_one(prefix.clone(), f);
            executions += 1;
            if let Some(v) = outcome.violation.clone() {
                return Err(self.render(v, &outcome));
            }
            // Grow the stack with the fresh (non-replayed) decisions.
            for d in outcome.decisions.iter().skip(stack.len()) {
                let pb = match stack.last() {
                    Some(n) => {
                        n.preemptions_before + n.prev_pos.is_some_and(|p| p != n.choice) as usize
                    }
                    None => 0,
                };
                stack.push(Node {
                    prev_pos: d.prev_pos,
                    choice: d.chosen,
                    remaining: (0..d.enabled.len())
                        .rev()
                        .filter(|&i| i != d.chosen)
                        .collect(),
                    preemptions_before: pb,
                });
            }
            if executions >= MAX_EXECUTIONS {
                return Ok(Stats {
                    executions,
                    capped: true,
                });
            }
            // Backtrack to the deepest decision with an affordable
            // untried alternative.
            let next = 'bt: loop {
                let Some(node) = stack.last_mut() else {
                    break 'bt None;
                };
                while let Some(alt) = node.remaining.pop() {
                    let preempts = node.prev_pos.is_some_and(|p| p != alt) as usize;
                    if node.preemptions_before + preempts <= self.bound {
                        node.choice = alt;
                        break 'bt Some(stack.iter().map(|n| n.choice).collect::<Vec<_>>());
                    }
                }
                stack.pop();
            };
            match next {
                Some(p) => prefix = p,
                None => {
                    return Ok(Stats {
                        executions,
                        capped: false,
                    })
                }
            }
        }
    }

    fn render(&self, (kind, message): (ViolationKind, String), outcome: &ExecOutcome) -> Violation {
        let schedule: Vec<usize> = outcome.decisions.iter().map(|d| d.chosen).collect();
        let mut s = String::new();
        let _ = writeln!(s, "=== rips-verify: {kind} ===");
        let _ = writeln!(s, "model: {}", self.name);
        if let Some(m) = self.mutation {
            let _ = writeln!(s, "active mutation: {:?} at site `{}`", m.kind, m.site);
        }
        let _ = writeln!(s, "{message}");
        let _ = writeln!(s, "schedule (decision indices): {schedule:?}");
        let _ = writeln!(s, "replay trace, {} steps:", outcome.trace.len());
        for (i, e) in outcome.trace.iter().enumerate() {
            let name = outcome
                .thread_names
                .get(e.tid)
                .cloned()
                .unwrap_or_else(|| format!("t{}", e.tid));
            match e.label {
                Some(l) => {
                    let _ = writeln!(s, "  step {i:>4} [{name}] {l}: {}", e.op);
                }
                None => {
                    let _ = writeln!(s, "  step {i:>4} [{name}] {}", e.op);
                }
            }
        }
        let v = Violation {
            kind,
            message,
            schedule,
            replay: s,
        };
        self.dump_replay(&v);
        v
    }

    /// When `RIPS_VERIFY_OUT` names a directory, write the rendered
    /// replay there so CI can upload failing schedules as artifacts.
    fn dump_replay(&self, v: &Violation) {
        let Ok(dir) = std::env::var("RIPS_VERIFY_OUT") else {
            return;
        };
        if dir.is_empty() {
            return;
        }
        let slug: String = self
            .name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        let site = self
            .mutation
            .map(|m| {
                let s: String = m
                    .site
                    .chars()
                    .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
                    .collect();
                format!(".{s}")
            })
            .unwrap_or_default();
        let _ = std::fs::create_dir_all(&dir);
        let path = std::path::Path::new(&dir).join(format!("{slug}{site}.replay.txt"));
        let _ = std::fs::write(path, &v.replay);
    }
}
