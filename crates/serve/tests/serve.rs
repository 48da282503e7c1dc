//! Registry-generic serve properties: every roster scheduler, short
//! deterministic desim serve runs must (a) pass the [`ServeAuditor`]
//! (per-job task conservation, no cross-tenant leakage, clean job
//! state machines), (b) shed only when the admission bound actually
//! binds, and (c) produce bit-identical reports across two same-seed
//! runs, whether the fleet simulates every job or reuses seed-free
//! runs.

use std::collections::BTreeSet;

use rips_audit::ServeAuditor;
use rips_bench::registry;
use rips_serve::{
    generate, run_serve, AdmissionConfig, ArrivalProcess, Catalog, DesimBackend, ServeConfig,
    TrafficConfig,
};
use rips_trace::metrics_rt::Counter;
use rips_trace::{with_metrics, with_sink, MetricsRegistry};

const NODES: usize = 4;

fn cfg_for(scheduler: &str, mean_interarrival_us: u64, admission: AdmissionConfig) -> ServeConfig {
    ServeConfig {
        scheduler: scheduler.to_string(),
        traffic: TrafficConfig {
            tenants: 3,
            jobs_per_tenant: 5,
            mean_interarrival_us,
            process: ArrivalProcess::Poisson,
            seed: 23,
        },
        admission,
        quantum: 64,
        service_seed: 23,
    }
}

/// Loose bounds: nothing sheds, everything completes, the serve audit
/// is clean, and two same-seed runs are bit-identical — for every
/// scheduler in the roster. The audited run simulates every job; the
/// unaudited repeat simulates each app once under a seed-free
/// scheduler and reuses that run for the app's later jobs.
#[test]
fn every_roster_scheduler_serves_audited_and_deterministic() {
    let cat = Catalog::tiny();
    for name in registry().names() {
        let cfg = cfg_for(name, 50_000, AdmissionConfig::default());

        let audited_metrics = MetricsRegistry::new(1);
        let (auditor, rep) = with_metrics(&audited_metrics, || {
            with_sink(ServeAuditor::new(NODES), || {
                run_serve(&cfg, &cat, &mut DesimBackend::new(NODES))
            })
        });
        let audit = auditor.finish();
        assert!(
            audit.is_ok(),
            "{name}: serve audit failed:\n{}",
            audit.render_human()
        );
        assert_eq!(audit.jobs_submitted, 15, "{name}");
        assert_eq!(audit.jobs_completed, 15, "{name}");
        assert_eq!(audit.jobs_shed, 0, "{name}: loose bounds must not shed");
        assert_eq!(
            audit.jobs_with_inner_trace, audit.jobs_dispatched,
            "{name}: under a trace sink every job must be simulated and traced"
        );
        assert_eq!(
            audited_metrics.counter_total(Counter::JobsReused),
            0,
            "{name}: no run is reused under a trace sink"
        );

        assert_eq!(rep.shed, 0, "{name}");
        assert_eq!(rep.completed, rep.submitted, "{name}");
        let per_job_tasks: u64 = rep.executed_tasks;
        assert!(per_job_tasks > 0, "{name}: jobs must execute tasks");

        // Bit-identical repeat, reusing every seed-free run it can.
        let metrics = MetricsRegistry::new(1);
        let rep2 = with_metrics(&metrics, || {
            run_serve(&cfg, &cat, &mut DesimBackend::new(NODES))
        });
        assert_eq!(rep, rep2, "{name}: same-seed serve runs must match");
        let apps: BTreeSet<&str> = generate(&cfg.traffic, &cat)
            .iter()
            .map(|a| a.app.name)
            .collect();
        let reused = if name == "Random" {
            0
        } else {
            rep2.completed - apps.len() as u64
        };
        assert_eq!(
            metrics.counter_total(Counter::JobsReused),
            reused,
            "{name}: jobs reused over {} apps served",
            apps.len()
        );
    }
}

/// Tight bounds under slammed arrivals: sheds happen, but only
/// because a bound binds — the pending-queue and per-tenant peaks
/// never exceed their configured limits, and shed + completed still
/// accounts for every submission.
#[test]
fn every_roster_scheduler_sheds_only_above_the_admission_bound() {
    let cat = Catalog::tiny();
    let tight = AdmissionConfig {
        max_pending: 3,
        tenant_quota: 2,
    };
    for name in registry().names() {
        let cfg = cfg_for(name, 10, tight);
        let (auditor, rep) = with_sink(ServeAuditor::new(NODES), || {
            run_serve(&cfg, &cat, &mut DesimBackend::new(NODES))
        });
        let audit = auditor.finish();
        assert!(
            audit.is_ok(),
            "{name}: serve audit failed under overload:\n{}",
            audit.render_human()
        );
        assert!(rep.shed > 0, "{name}: slammed queue must shed");
        assert!(
            rep.peak_pending <= tight.max_pending as u64,
            "{name}: pending queue exceeded the admission bound"
        );
        for t in &rep.tenants {
            assert!(
                t.peak_pending <= tight.tenant_quota as u64,
                "{name}: tenant {} exceeded its quota",
                t.tenant
            );
        }
        assert_eq!(rep.completed + rep.shed, rep.submitted, "{name}");
        assert_eq!(audit.jobs_shed, rep.shed, "{name}: audit and report agree");
    }
}
