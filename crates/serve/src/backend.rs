//! The fleet seam: one job in, one measured service out.
//!
//! Serving is a queueing layer *above* the backends. The fleet runs
//! one job at a time across all its nodes (jobs are whole task
//! forests — they already parallelize internally), so the serve loop
//! is a single-server queue whose service times come from whichever
//! backend is plugged in:
//!
//! * [`DesimBackend`] — the registry's simulator constructors; the
//!   service time is the run's virtual makespan (`stats.end_time`).
//!   Fully deterministic, so serve runs are golden-testable. A run
//!   that never read its seed is simulated once per (scheduler, app)
//!   and its outcome served again to every later identical job.
//! * [`LiveBackend`] — real OS threads executing real grains via
//!   [`live_run`]; the service time is the measured wall clock. The
//!   serve timeline stays virtual — measured service times are
//!   *composed* on it rather than slept through, so an hour of
//!   simulated traffic still finishes in the sum of its busy time.

use std::sync::Arc;

use rips_bench::live::{live_opts, live_run};
use rips_bench::{paper_spec, registry};
use rips_live::GrainMode;
use rips_runtime::SchedulerRegistry;
use rips_taskgraph::Workload;
use rips_trace::metrics_rt::Counter;
use rips_trace::Telemetry;

use crate::catalog::JobApp;

/// What serving one job produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceOutcome {
    /// Fleet busy time for the job (µs): virtual makespan on desim,
    /// measured wall clock on live.
    pub service_us: u64,
    /// Tasks the backend executed (must equal the app's task count —
    /// per-job conservation).
    pub executed: u64,
    /// Grain checksum (live only; 0 on desim, which schedules grains
    /// without running them).
    pub checksum: u64,
    /// Solutions found (live only).
    pub solutions: u64,
}

/// A fleet that can serve catalog jobs.
pub trait JobBackend {
    /// Backend label for reports (`"desim"` / `"live"`).
    fn name(&self) -> &'static str;

    /// Fleet width (simulated nodes / live threads) — sizes the
    /// auditors that watch this fleet's runs.
    fn nodes(&self) -> usize;

    /// Runs `app` under `scheduler` with the given policy seed and
    /// returns the measured service.
    ///
    /// # Panics
    /// If the run loses or duplicates tasks, or (live) the grain
    /// totals disagree with the table's static ground truth.
    fn service(&mut self, scheduler: &str, app: &JobApp, seed: u64) -> ServiceOutcome;
}

/// The deterministic simulator fleet.
///
/// A run whose handlers never read the seed
/// ([`rips_desim::RunStats::seed_read`]) is a pure function of
/// (scheduler, app): every roster scheduler but Random gives one. The
/// fleet keeps the outcome of each such run and serves later jobs with
/// the same key from it instead of simulating again, counting each as
/// [`Counter::JobsReused`]. While a trace sink is installed every job
/// is simulated, so the sink sees every job's fleet trace, and a rerun
/// of a kept key must reproduce the kept outcome.
pub struct DesimBackend {
    reg: SchedulerRegistry,
    /// Simulated mesh size.
    pub nodes: usize,
    /// Outcomes of the seed-free runs served so far, one per key.
    seed_free: Vec<SeedFreeRun>,
}

/// A kept seed-free run and its key.
struct SeedFreeRun {
    scheduler: String,
    /// Compared by address. Holding the `Arc` keeps the address from
    /// being reused by another workload.
    workload: Arc<Workload>,
    rid_u: f64,
    out: ServiceOutcome,
}

impl SeedFreeRun {
    fn is_for(&self, scheduler: &str, app: &JobApp) -> bool {
        self.scheduler == scheduler
            && Arc::ptr_eq(&self.workload, &app.workload)
            && self.rid_u.to_bits() == app.rid_u.to_bits()
    }
}

impl DesimBackend {
    /// A fleet of `nodes` simulated processors running the canonical
    /// roster.
    pub fn new(nodes: usize) -> Self {
        DesimBackend {
            reg: registry(),
            nodes,
            seed_free: Vec::new(),
        }
    }
}

impl JobBackend for DesimBackend {
    fn name(&self) -> &'static str {
        "desim"
    }

    fn nodes(&self) -> usize {
        self.nodes
    }

    fn service(&mut self, scheduler: &str, app: &JobApp, seed: u64) -> ServiceOutcome {
        let tel = Telemetry::current();
        let kept = self
            .seed_free
            .iter()
            .find(|r| r.is_for(scheduler, app))
            .map(|r| r.out);
        if let Some(out) = kept {
            if !tel.traced() {
                tel.add_at(0, Counter::JobsReused, 1);
                return out;
            }
        }
        let spec = paper_spec(&app.workload, self.nodes, app.rid_u, seed);
        let run = self.reg.run(scheduler, &spec);
        run.outcome
            .verify_complete(&app.workload)
            .unwrap_or_else(|e| panic!("{scheduler} serving {}: {e}", app.name));
        let out = ServiceOutcome {
            service_us: run.outcome.stats.end_time.max(1),
            executed: run.outcome.executed.iter().sum(),
            checksum: 0,
            solutions: 0,
        };
        match kept {
            Some(kept) => assert_eq!(
                out, kept,
                "{scheduler} serving {}: a run that never read its seed changed under seed {seed}",
                app.name
            ),
            None if !run.outcome.stats.seed_read => self.seed_free.push(SeedFreeRun {
                scheduler: scheduler.to_string(),
                workload: Arc::clone(&app.workload),
                rid_u: app.rid_u,
                out,
            }),
            None => {}
        }
        out
    }
}

/// The live fleet: real threads, real grains, wall-clock service.
pub struct LiveBackend {
    /// OS threads (one per node).
    pub threads: usize,
}

impl LiveBackend {
    /// A fleet of `threads` node threads in compute mode.
    pub fn new(threads: usize) -> Self {
        LiveBackend { threads }
    }
}

impl JobBackend for LiveBackend {
    fn name(&self) -> &'static str {
        "live"
    }

    fn nodes(&self) -> usize {
        self.threads
    }

    fn service(&mut self, scheduler: &str, app: &JobApp, seed: u64) -> ServiceOutcome {
        let opts = live_opts(&app.table, GrainMode::Compute, 1.0);
        let out = live_run(
            scheduler,
            &app.workload,
            self.threads,
            app.rid_u,
            seed,
            opts,
        );
        let truth = app.table.static_totals();
        assert_eq!(
            (out.checksum, out.solutions),
            (truth.checksum, truth.solutions),
            "{scheduler} serving {}: grain totals diverged from ground truth",
            app.name
        );
        ServiceOutcome {
            service_us: out.wall_us.max(1),
            executed: out.executed.iter().sum(),
            checksum: out.checksum,
            solutions: out.solutions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;

    #[test]
    fn desim_service_is_seed_deterministic() {
        let cat = Catalog::tiny();
        let app = &cat.apps()[0];
        let mut b = DesimBackend::new(4);
        let a1 = b.service("RIPS", app, 7);
        let a2 = b.service("RIPS", app, 7);
        assert_eq!(a1, a2);
        assert_eq!(a1.executed, app.tasks);
        assert!(a1.service_us > 0);
    }
}
