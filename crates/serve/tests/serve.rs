//! Registry-generic serve properties: every roster scheduler, short
//! deterministic desim serve runs must (a) pass the [`ServeAuditor`]
//! (per-job task conservation, no cross-tenant leakage, clean job
//! state machines), (b) shed only when the admission bound actually
//! binds, and (c) produce bit-identical reports across two same-seed
//! runs, whether the fleet simulates every job or reuses seed-free
//! runs. The reports of the benchmark's two serve phases are pinned by
//! digest.

use std::collections::BTreeSet;

use rips_audit::ServeAuditor;
use rips_bench::registry;
use rips_serve::{
    generate, run_serve, AdmissionConfig, ArrivalProcess, Catalog, DesimBackend, LatencySummary,
    ServeConfig, ServeReport, TrafficConfig,
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

/// FNV-1a over the little-endian bytes of a stream of words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        s.bytes().for_each(|b| self.word(u64::from(b)));
    }

    fn latency(&mut self, l: &LatencySummary) {
        for v in [l.p50_us, l.p95_us, l.p99_us, l.max_us, l.mean_us.to_bits()] {
            self.word(v);
        }
    }
}

/// Every field of a report, floats by their bits.
fn digest(rep: &ServeReport) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.str(&rep.scheduler);
    h.str(&rep.backend);
    h.str(&rep.process);
    h.word(rep.tenants.len() as u64);
    for t in &rep.tenants {
        for v in [
            u64::from(t.tenant),
            t.submitted,
            t.shed,
            t.completed,
            t.peak_pending,
        ] {
            h.word(v);
        }
        h.latency(&t.latency);
    }
    for v in [rep.submitted, rep.shed, rep.completed, rep.executed_tasks] {
        h.word(v);
    }
    h.latency(&rep.latency);
    for v in [
        rep.makespan_us,
        rep.jobs_per_sec.to_bits(),
        rep.shed_rate.to_bits(),
        rep.peak_pending,
    ] {
        h.word(v);
    }
    h.0
}

/// The benchmark's two serve phases at 250 jobs per tenant over the
/// standard catalog on an 8-node fleet: Poisson at 9 jobs/s behind
/// bounds nothing reaches, then bursts of 8 at 18 jobs/s behind the
/// default bounds, which shed.
fn phase(scheduler: &str, overload: bool, seed: u64) -> ServeConfig {
    const TENANTS: u32 = 4;
    const JOBS: u32 = 250;
    let (process, jobs_per_s, admission) = if overload {
        (
            ArrivalProcess::Bursty { burst: 8 },
            18,
            AdmissionConfig::default(),
        )
    } else {
        let wide = AdmissionConfig {
            max_pending: (TENANTS * JOBS) as usize,
            tenant_quota: JOBS as usize,
        };
        (ArrivalProcess::Poisson, 9, wide)
    };
    ServeConfig {
        scheduler: scheduler.to_string(),
        traffic: TrafficConfig {
            tenants: TENANTS,
            jobs_per_tenant: JOBS,
            mean_interarrival_us: 1_000_000 * u64::from(TENANTS) / jobs_per_s,
            process,
            seed,
        },
        admission,
        quantum: 64,
        service_seed: seed,
    }
}

/// What admission, DRR and the latency summary make of the benchmark's
/// traffic is pinned: a change to the serve loop may make it faster,
/// never different. Random reads its seed, so its rows simulate every
/// admitted job; SID's and RIPS's reuse seed-free runs.
#[test]
fn serve_reports_are_pinned() {
    let cat = Catalog::standard();
    let cases: [(&str, bool, u64, u64); 10] = [
        ("RIPS", false, 1, 0x8a60529aec94d27c),
        ("RIPS", false, 2, 0xd5fa61c1ad06b938),
        ("RIPS", false, 3, 0xfa142db534b715a0),
        ("RIPS", true, 1, 0x3b0330f15d0436e9),
        ("RIPS", true, 2, 0xd88a0b6b4f897707),
        ("RIPS", true, 3, 0xb28ba85a091bae9d),
        ("SID", true, 1, 0xcc0d0a649d8a97b8),
        ("SID", true, 2, 0x039d135ccc3efdb8),
        ("Random", true, 1, 0xbb9753769f211746),
        ("Random", true, 2, 0x044967339af3e60a),
    ];
    for (scheduler, overload, seed, want) in cases {
        let rep = run_serve(
            &phase(scheduler, overload, seed),
            &cat,
            &mut DesimBackend::new(8),
        );
        let case = format!("{scheduler} overload={overload} seed={seed}");
        assert_eq!(rep.completed + rep.shed, 1_000, "{case}");
        assert_eq!(
            rep.shed > 0,
            overload,
            "{case}: only the overload phase sheds"
        );
        assert_eq!(digest(&rep), want, "{case}: report changed");
    }
}
