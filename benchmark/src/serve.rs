//! The serving workload, `serve-sim`: `run_serve` over an 8-node
//! simulated fleet, first under Poisson load it can carry, then under
//! bursty overload that sheds; and the probes of `rips-serve`'s parts.
//!
//! The loop is open: arrival times are drawn from the seed before the
//! run and never wait for a completion. It runs on a virtual timeline,
//! so the generator is never late — generator lag is zero by
//! construction, not by measurement.

use std::hint::black_box;
use std::sync::Arc;

use rips_audit::ServeAuditor;
use rips_serve::{
    generate, run_serve, Admission, AdmissionConfig, ArrivalProcess, Catalog, DesimBackend, Drr,
    JobApp, JobBackend, QueuedJob, ServeConfig, ServeReport, ServiceOutcome, TrafficConfig,
};
use rips_trace::metrics_rt::Counter;
use rips_trace::{with_metrics, with_sink, MetricsRegistry};

use crate::sim::engine_new_us_n8;
use crate::span::{by_name, Recorder};
use crate::workload::{checked, probe_ns_per_op, time_s, Iter, LayerInput, Layers, Workload};

const FLEET_NODES: usize = 8;
const TENANTS: u32 = 4;

/// Wraps the fleet through the `JobBackend` trait to time each job's
/// service from outside `run_serve`.
struct TimedBackend<'a> {
    inner: DesimBackend,
    rec: &'a mut Recorder,
}

impl JobBackend for TimedBackend<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn nodes(&self) -> usize {
        self.inner.nodes()
    }

    fn service(&mut self, scheduler: &str, app: &JobApp, seed: u64) -> ServiceOutcome {
        self.rec.enter("serve.backend_service");
        let out = self.inner.service(scheduler, app, seed);
        self.rec.exit();
        out
    }
}

pub struct ServeSim {
    quick: bool,
    /// Phase A: Poisson at 9 jobs/s, about 0.8 of what the fleet
    /// carries, behind bounds wide enough that no seed's backlog
    /// reaches them: a refused job there is a failed operation. Phase
    /// B: bursts of 8 at 18 jobs/s, about 1.5 of it, behind the default
    /// bounds, so admission refuses beside admitting.
    phases: [ServeConfig; 2],
    catalog: Option<Catalog>,
}

impl ServeSim {
    pub fn new(seed: u64, quick: bool) -> ServeSim {
        // An iteration of a second, not four: the fastest decile of a
        // dozen iterations rides out a burst of host noise that three
        // long ones cannot.
        let jobs_per_tenant = if quick { 100 } else { 1_250 };
        let phase = |process, jobs_per_s: u64, admission| ServeConfig {
            scheduler: "RIPS".into(),
            traffic: TrafficConfig {
                tenants: TENANTS,
                jobs_per_tenant,
                mean_interarrival_us: 1_000_000 * u64::from(TENANTS) / jobs_per_s,
                process,
                seed,
            },
            admission,
            service_seed: seed,
            ..ServeConfig::default()
        };
        let unbounded = AdmissionConfig {
            max_pending: (TENANTS * jobs_per_tenant) as usize,
            tenant_quota: jobs_per_tenant as usize,
        };
        ServeSim {
            quick,
            phases: [
                phase(ArrivalProcess::Poisson, 9, unbounded),
                phase(
                    ArrivalProcess::Bursty { burst: 8 },
                    18,
                    AdmissionConfig::default(),
                ),
            ],
            catalog: None,
        }
    }

    /// One `run_serve` over a fresh fleet. `audited` installs a
    /// `ServeAuditor` as the trace sink and holds its verdict.
    fn serve(
        &self,
        cfg: &ServeConfig,
        rec: &mut Recorder,
        audited: bool,
    ) -> Result<ServeReport, String> {
        let catalog = self.catalog.as_ref().expect("setup ran");
        let mut fleet = DesimBackend::new(FLEET_NODES);
        checked("run_serve", || {
            if audited {
                let sink = ServeAuditor::new(FLEET_NODES);
                let (auditor, rep) = with_sink(sink, || run_serve(cfg, catalog, &mut fleet));
                let audit = auditor.finish();
                if !audit.is_ok() {
                    return Err(format!("ServeAuditor: {}", audit.errors.join("; ")));
                }
                Ok(rep)
            } else if rec.enabled() {
                Ok(rec.span("serve.run_serve", |rec| {
                    run_serve(cfg, catalog, &mut TimedBackend { inner: fleet, rec })
                }))
            } else {
                Ok(run_serve(cfg, catalog, &mut fleet))
            }
        })?
    }

    fn pass(&self, rec: &mut Recorder, audited: bool) -> Iter {
        let mut it = Iter::default();
        let mut reports = Vec::new();
        for (i, cfg) in self.phases.iter().enumerate() {
            let submitted = u64::from(cfg.traffic.tenants * cfg.traffic.jobs_per_tenant);
            it.attempted += submitted;
            match self.serve(cfg, rec, audited) {
                Ok(rep) => {
                    if rep.completed + rep.shed != rep.submitted || rep.submitted != submitted {
                        it.failed += submitted;
                        it.errors.push(format!(
                            "phase {i}: {} completed + {} shed != {} submitted",
                            rep.completed, rep.shed, rep.submitted
                        ));
                    } else if i == 0 && rep.shed > 0 {
                        // Below capacity a refused job is a failed one;
                        // under overload refusal is the design.
                        it.failed += rep.shed;
                        it.errors
                            .push(format!("phase 0: {} jobs shed below capacity", rep.shed));
                    }
                    it.jobs += rep.completed;
                    reports.push(rep);
                }
                Err(e) => {
                    it.failed += submitted;
                    it.errors.push(e);
                }
            }
        }
        if let [a, b] = &reports[..] {
            it.exact = vec![
                ("serve_p99_us", a.latency.p99_us as f64),
                ("sim_makespan_us", a.makespan_us as f64),
                ("serve.shed_share.overload", b.shed_rate),
                (
                    "serve.peak_pending",
                    a.peak_pending.max(b.peak_pending) as f64,
                ),
            ];
        }
        it
    }
}

impl Workload for ServeSim {
    fn setup(&mut self, rec: &mut Recorder) {
        let build = if self.quick {
            Catalog::tiny
        } else {
            Catalog::standard
        };
        self.catalog = Some(rec.span("serve.catalog_build", |_| build()));
    }

    fn min_iterations(&self) -> usize {
        3
    }

    fn iterate(&mut self, rec: &mut Recorder) -> Iter {
        if !rec.enabled() {
            return self.pass(rec, false);
        }
        // Counts are taken at the same boundary as the spans: the
        // traced iterations also install the program's meter, which
        // counts the simulator events of the thousands of small runs.
        let registry = MetricsRegistry::new(FLEET_NODES);
        let mut it = with_metrics(&registry, || self.pass(rec, false));
        let events = registry.counter_total(Counter::SimEvents);
        it.exact.push(("desim.events", events as f64));
        it
    }

    fn layers(&mut self, rec: &Recorder, input: &LayerInput<'_>) -> Layers {
        let mut out = Layers::default();
        // The faster of two audited passes against the fastest decile
        // of the plain ones.
        let mut audited_s = f64::INFINITY;
        for _ in 0..2 {
            let (s, it) = time_s(|| self.pass(&mut Recorder::new(false), true));
            audited_s = audited_s.min(s);
            out.errors.extend(it.errors);
        }
        out.put(
            "audit.overhead_share.serve-sim",
            audited_s / input.wall_s - 1.0,
        );

        let times = by_name(rec.spans());
        if let (Some(lp), Some(svc)) = (
            times.get("serve.run_serve"),
            times.get("serve.backend_service"),
        ) {
            out.put(
                "serve.loop_self_share",
                lp.self_ns as f64 / lp.total_ns as f64,
            );
            out.put(
                "serve.backend_service_us_mean",
                svc.total_ns as f64 / svc.calls as f64 / 1e3,
            );
        }

        let catalog = self.catalog.as_ref().expect("setup ran");
        let traffic = &self.phases[0].traffic;
        let gen_ms = probe_ns_per_op(5, 1, || {
            black_box(generate(traffic, catalog));
        }) / 1e6;
        out.put("serve.traffic_gen_ms", gen_ms);
        out.put("serve.admission_ns_per_op", admission_ns_per_op());
        out.put("serve.drr_ns_per_pick", drr_ns_per_pick(&catalog.apps()[0]));
        out.put("desim.engine_new_us.n8", engine_new_us_n8());
        out.put_span_ms("serve.catalog_build_ms", rec, "serve.catalog_build");
        out
    }
}

/// One `try_admit` or `release`: tenants fill the queue to its bound,
/// meet refusals, then drain.
fn admission_ns_per_op() -> f64 {
    const ROUNDS: u64 = 4_096;
    let cfg = AdmissionConfig::default();
    let per_round = (cfg.max_pending + 16) as u64;
    let mut ops = 0;
    let ns = probe_ns_per_op(9, 1, || {
        ops = 0;
        let mut adm = Admission::new(cfg);
        for _ in 0..ROUNDS {
            let mut admitted = Vec::with_capacity(cfg.max_pending);
            for i in 0..per_round {
                let tenant = (i % u64::from(TENANTS)) as u32;
                ops += 1;
                if black_box(adm.try_admit(tenant)).is_ok() {
                    admitted.push(tenant);
                }
            }
            for tenant in admitted {
                ops += 1;
                adm.release(tenant);
            }
        }
    });
    ns / ops as f64
}

/// One `Drr::pick` over four tenants' queues of 16 jobs each.
fn drr_ns_per_pick(app: &Arc<JobApp>) -> f64 {
    const ROUNDS: u64 = 2_048;
    const DEPTH: u64 = 16;
    let picks = ROUNDS * DEPTH * u64::from(TENANTS);
    probe_ns_per_op(9, picks, || {
        let mut drr = Drr::new(ServeConfig::default().quantum);
        let mut job = 0;
        for _ in 0..ROUNDS {
            for _ in 0..DEPTH {
                for tenant in 0..TENANTS {
                    drr.enqueue(QueuedJob {
                        job,
                        tenant,
                        arrival: 0,
                        app: Arc::clone(app),
                        cost: app.tasks,
                    });
                    job += 1;
                }
            }
            while let Some(picked) = drr.pick(1) {
                black_box(picked);
            }
        }
    })
}
