//! **rips-serve** — an open-loop multi-tenant task service over both
//! backends (DESIGN §12).
//!
//! The paper proves RIPS wins on fixed batch workloads; the ROADMAP's
//! north star is a *service* under sustained traffic. This crate
//! turns every roster scheduler into a competitor under load:
//!
//! * [`traffic`] — N tenants submit streams of jobs (queens/puzzle/MD
//!   forests of mixed size, see [`catalog`]) with Poisson or bursty
//!   interarrival gaps, drawn open-loop from a seeded RNG.
//! * [`admission`] — a bounded pending queue with per-tenant quotas;
//!   overload sheds jobs instead of growing without bound.
//! * [`drr`] — deficit round robin shares fleet task-bandwidth fairly
//!   across tenants.
//! * [`backend`] — the fleet itself: the deterministic simulator
//!   (virtual makespans, golden-testable) or the live backend (real
//!   threads, real grains, measured wall clock), one job at a time.
//! * [`report`] — per-tenant and aggregate p50/p95/p99 latency,
//!   sustained jobs/s, shed rate.
//!
//! The serve loop runs on a virtual timeline even when the fleet is
//! live: measured service times are composed onto the timeline (a
//! single-server queue recurrence) rather than slept through. Job
//! lifecycle events ([`TraceEvent::JobSubmit`] … `JobComplete`) flow
//! through the standard trace pipeline, so `rips_audit::ServeAuditor`
//! can check per-job conservation and window isolation, and job
//! counters flow through [`metrics_rt`](rips_trace::metrics_rt).

#![forbid(unsafe_code)]
#![deny(
    missing_docs,
    unreachable_pub,
    reason = "RIPS-L005: every public item is documented, and `pub` means reachable"
)]

pub mod admission;
pub mod backend;
pub mod catalog;
pub mod drr;
pub mod report;
pub mod traffic;

use rips_trace::metrics_rt::{Counter, Gauge};
use rips_trace::{EventKind, Hist, Telemetry, TraceEvent};

pub use admission::{Admission, AdmissionConfig, ShedReason};
pub use backend::{DesimBackend, JobBackend, LiveBackend, ServiceOutcome};
pub use catalog::{Catalog, JobApp};
pub use drr::{Drr, QueuedJob};
pub use report::{LatencySummary, ServeReport, TenantStats};
pub use traffic::{generate, Arrival, ArrivalProcess, TrafficConfig};

/// Everything one serve run needs besides the catalog and the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Roster scheduler serving the fleet.
    pub scheduler: String,
    /// The offered traffic.
    pub traffic: TrafficConfig,
    /// Admission bounds.
    pub admission: AdmissionConfig,
    /// DRR quantum (task-units banked per rotation visit).
    pub quantum: u64,
    /// Base seed for per-job policy seeds (independent of the traffic
    /// seed so arrival and policy randomness can be varied apart).
    pub service_seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            scheduler: "RIPS".into(),
            traffic: TrafficConfig {
                tenants: 4,
                jobs_per_tenant: 16,
                mean_interarrival_us: 50_000,
                process: ArrivalProcess::Poisson,
                seed: 1,
            },
            admission: AdmissionConfig::default(),
            quantum: 64,
            service_seed: 1,
        }
    }
}

/// Per-job policy seed: decorrelated from neighbouring jobs but fully
/// determined by `(service_seed, job)`.
fn job_seed(service_seed: u64, job: u64) -> u64 {
    let mut z = service_seed ^ job.wrapping_mul(0xd134_2543_de82_ef95);
    z = (z ^ (z >> 32)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    z ^ (z >> 32)
}

/// Mutable serve-loop state shared by arrival handling and the
/// dispatch pump.
struct Loop<'a> {
    cfg: &'a ServeConfig,
    backend: &'a mut dyn JobBackend,
    admission: Admission,
    drr: Drr,
    tel: Telemetry,
    /// When the fleet finishes its current job (µs).
    free_at: u64,
    last_completion: u64,
    executed_tasks: u64,
    completed: Vec<u64>,
    latency: Vec<Hist>,
    aggregate: Hist,
}

impl Loop<'_> {
    fn set_pending_gauge(&self) {
        let pending = self.admission.pending() as u64;
        self.tel.set_gauge_at(0, Gauge::PendingJobs, pending);
    }

    /// Dispatches jobs while the fleet can start one strictly before
    /// `until` (arrivals at `until` get admitted first, so a job
    /// arriving exactly when the fleet frees still joins the DRR
    /// round it belongs to).
    fn pump(&mut self, until: u64) {
        while let Some(ready) = self.drr.earliest_ready() {
            let start = self.free_at.max(ready);
            if start >= until {
                break;
            }
            let job = self.drr.pick(start).expect("a job is ready by `start`");
            self.admission.release(job.tenant);
            self.set_pending_gauge();
            self.tel
                .emit(EventKind::Job, start, 0, || TraceEvent::JobDispatch {
                    tenant: job.tenant,
                    job: job.job,
                    tasks: job.app.tasks,
                });
            let seed = job_seed(self.cfg.service_seed, job.job);
            let out = self.backend.service(&self.cfg.scheduler, &job.app, seed);
            let done = start + out.service_us;
            self.tel
                .emit(EventKind::Job, done, 0, || TraceEvent::JobComplete {
                    tenant: job.tenant,
                    job: job.job,
                    executed: out.executed,
                });
            self.tel.add_at(0, Counter::JobsCompleted, 1);
            let lat = done - job.arrival;
            self.latency[job.tenant as usize].push(lat);
            self.aggregate.push(lat);
            self.completed[job.tenant as usize] += 1;
            self.executed_tasks += out.executed;
            self.last_completion = done;
            self.free_at = done;
        }
    }
}

/// Runs one open-loop serve experiment: generate the arrival
/// schedule, push it through admission → DRR → the fleet, and report.
///
/// Fully deterministic on the desim backend: same config,
/// bit-identical report. Install a trace sink (e.g.
/// `rips_audit::ServeAuditor`) and/or a metrics registry around this
/// call to observe the run.
pub fn run_serve(
    cfg: &ServeConfig,
    catalog: &Catalog,
    backend: &mut dyn JobBackend,
) -> ServeReport {
    let arrivals = traffic::generate(&cfg.traffic, catalog);
    let tenants = cfg.traffic.tenants as usize;
    let mut lp = Loop {
        cfg,
        backend,
        admission: Admission::new(cfg.admission),
        drr: Drr::new(cfg.quantum),
        tel: Telemetry::current(),
        free_at: 0,
        last_completion: 0,
        executed_tasks: 0,
        completed: vec![0; tenants],
        latency: (0..tenants).map(|_| Hist::new()).collect(),
        aggregate: Hist::new(),
    };
    let mut submitted = vec![0u64; tenants];
    let mut shed = vec![0u64; tenants];

    for a in &arrivals {
        lp.pump(a.time);
        submitted[a.tenant as usize] += 1;
        lp.tel.add_at(0, Counter::JobsSubmitted, 1);
        lp.tel
            .emit(EventKind::Job, a.time, 0, || TraceEvent::JobSubmit {
                tenant: a.tenant,
                job: a.job,
            });
        match lp.admission.try_admit(a.tenant) {
            Ok(()) => {
                lp.drr.enqueue(QueuedJob {
                    job: a.job,
                    tenant: a.tenant,
                    arrival: a.time,
                    app: std::sync::Arc::clone(&a.app),
                    cost: a.app.tasks,
                });
                lp.set_pending_gauge();
            }
            Err(_) => {
                shed[a.tenant as usize] += 1;
                lp.tel.add_at(0, Counter::JobsShed, 1);
                lp.tel
                    .emit(EventKind::Job, a.time, 0, || TraceEvent::JobShed {
                        tenant: a.tenant,
                        job: a.job,
                    });
            }
        }
    }
    lp.pump(u64::MAX);
    assert!(lp.drr.is_empty(), "undispatched jobs after final pump");

    let tenant_stats: Vec<TenantStats> = (0..tenants)
        .map(|t| TenantStats {
            tenant: t as u32,
            submitted: submitted[t],
            shed: shed[t],
            completed: lp.completed[t],
            peak_pending: lp
                .admission
                .peak_tenant
                .get(&(t as u32))
                .copied()
                .unwrap_or(0) as u64,
            latency: LatencySummary::from_hist(&mut lp.latency[t]),
        })
        .collect();
    let total_submitted: u64 = submitted.iter().sum();
    let total_shed: u64 = shed.iter().sum();
    let total_completed: u64 = lp.completed.iter().sum();
    ServeReport {
        scheduler: cfg.scheduler.clone(),
        backend: lp.backend.name().into(),
        process: cfg.traffic.process.label(),
        tenants: tenant_stats,
        submitted: total_submitted,
        shed: total_shed,
        completed: total_completed,
        executed_tasks: lp.executed_tasks,
        latency: LatencySummary::from_hist(&mut lp.aggregate),
        makespan_us: lp.last_completion,
        jobs_per_sec: if lp.last_completion > 0 {
            total_completed as f64 / (lp.last_completion as f64 / 1e6)
        } else {
            0.0
        },
        shed_rate: if total_submitted > 0 {
            total_shed as f64 / total_submitted as f64
        } else {
            0.0
        },
        peak_pending: lp.admission.peak_pending as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> ServeConfig {
        ServeConfig {
            traffic: TrafficConfig {
                tenants: 3,
                jobs_per_tenant: 6,
                mean_interarrival_us: 20_000,
                process: ArrivalProcess::Poisson,
                seed: 11,
            },
            ..ServeConfig::default()
        }
    }

    #[test]
    fn serve_run_completes_everything_under_loose_bounds() {
        let cat = Catalog::tiny();
        let cfg = quick_cfg();
        let mut backend = DesimBackend::new(4);
        let rep = run_serve(&cfg, &cat, &mut backend);
        assert_eq!(rep.submitted, 18);
        assert_eq!(rep.shed, 0);
        assert_eq!(rep.completed, 18);
        assert!(rep.latency.p50_us > 0);
        assert!(rep.latency.p99_us >= rep.latency.p95_us);
        assert!(rep.jobs_per_sec > 0.0);
    }

    #[test]
    fn serve_run_is_bit_stable_across_repeats() {
        let cat = Catalog::tiny();
        let cfg = quick_cfg();
        let a = run_serve(&cfg, &cat, &mut DesimBackend::new(4));
        let b = run_serve(&cfg, &cat, &mut DesimBackend::new(4));
        assert_eq!(a, b);
    }

    #[test]
    fn tight_bounds_shed_and_are_never_exceeded() {
        let cat = Catalog::tiny();
        let mut cfg = quick_cfg();
        cfg.traffic.mean_interarrival_us = 10; // slam the queue
        cfg.admission = AdmissionConfig {
            max_pending: 3,
            tenant_quota: 2,
        };
        let rep = run_serve(&cfg, &cat, &mut DesimBackend::new(4));
        assert!(rep.shed > 0, "overload must shed");
        assert!(rep.peak_pending <= 3);
        for t in &rep.tenants {
            assert!(t.peak_pending <= 2, "tenant {} broke quota", t.tenant);
        }
        assert_eq!(rep.completed + rep.shed, rep.submitted);
    }
}
