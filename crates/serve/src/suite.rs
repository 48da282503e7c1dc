//! `rips bench serve`: the offered-load sweep across the roster on
//! both backends.
//!
//! One series per (scheduler, backend), each a calibrated load sweep
//! ([`sweep_one`]) with per-level latency percentiles, throughput,
//! shed rate, and the saturation knee. The checked-in
//! `BENCH_SERVE.json` is the evidence artifact; CI's `serve-smoke` job
//! regenerates a `--quick` version and schema-validates it. The
//! series are also printed, and the run fails unless every
//! calibration and every load level audited clean.

use rips_bench::args::{Args, Spec};
use rips_bench::roster_name;
use rips_bench::suites::Suite;
use rips_trace::Json;

use crate::sweep::{sweep_one, SchedulerSeries, SweepConfig};
use crate::{ArrivalProcess, Catalog, DesimBackend, LiveBackend};

const SPEC: Spec = &[
    "serve  offered-load sweep per scheduler on both backends: latency, shed rate, knee",
    "--out S=BENCH_SERVE.json  where to write the JSON document",
    "--quick                  CI scale: tiny catalog, one seed variant",
    "--seed N=1               base seed",
    "--schedulers S=RIPS,RIPS-H,RID  roster names",
    "--nodes N=8              simulated processors (desim)",
    "--threads N=2            OS threads (live)",
    "--tenants N=4            simulated tenants",
    "--jobs N                 jobs per tenant per level (25; 8 with --quick)",
    "--loads F,..             load factors (0.2,0.5,0.8,1.1,1.5,2.0; 0.3,1.0,2.5 with --quick)",
    "--process S=poisson      arrivals: poisson|bursty[:N]",
];

/// The third `rips bench` suite (the other two are
/// [`rips_bench::suites::SUITES`]).
pub const SUITE: Suite = (SPEC, run);

fn series_json(doc: &mut Json, s: &SchedulerSeries) {
    doc.obj().key("scheduler").str(&s.scheduler);
    doc.key("backend").str(&s.backend);
    doc.key("mean_service_us").u64(s.mean_service_us);
    doc.key("audited").bool(s.audited_ok);
    doc.key("max_spread").i64(s.max_spread);
    doc.key("phases_checked").u64(s.phases_checked as u64);
    doc.key("knee_load");
    match s.knee_load {
        Some(k) => doc.f64(k, 2),
        None => doc.null(),
    };
    doc.key("points").arr();
    for p in &s.points {
        let r = &p.report;
        doc.obj().key("load").f64(p.load, 2);
        doc.key("offered_jobs_per_s").f64(p.offered_jobs_per_sec, 4);
        doc.key("jobs_per_s").f64(r.jobs_per_sec, 4);
        doc.key("p50_us").u64(r.latency.p50_us);
        doc.key("p95_us").u64(r.latency.p95_us);
        doc.key("p99_us").u64(r.latency.p99_us);
        doc.key("mean_us").f64(r.latency.mean_us, 1);
        doc.key("shed_rate").f64(r.shed_rate, 4);
        doc.key("completed").u64(r.completed);
        doc.key("shed").u64(r.shed);
        doc.key("submitted").u64(r.submitted);
        doc.key("peak_pending").u64(r.peak_pending);
        doc.key("serve_audit_ok").bool(p.serve_audit_ok).end();
    }
    doc.end().end();
}

/// Prints one series; returns whether all of it audited clean.
fn print_series(s: &SchedulerSeries) -> bool {
    let knee = s
        .knee_load
        .map_or("none".to_string(), |k| format!("{k:.2}"));
    println!(
        "── {} · {} · S̄ {} µs · audited {} · spread {} · knee {knee} ──",
        s.scheduler, s.backend, s.mean_service_us, s.audited_ok, s.max_spread,
    );
    for p in &s.points {
        println!(
            "  load {:.2}: offered {:>8.1} jobs/s, achieved {:>8.1}, p50 {} µs, \
             p99 {} µs, shed {:.1}%",
            p.load,
            p.offered_jobs_per_sec,
            p.report.jobs_per_sec,
            p.report.latency.p50_us,
            p.report.latency.p99_us,
            p.report.shed_rate * 100.0,
        );
    }
    s.audited_ok && s.points.iter().all(|p| p.serve_audit_ok)
}

fn run(args: &Args, mut doc: Json) -> Option<Json> {
    let quick = args.switch("--quick");
    let nodes: usize = args.num("--nodes");
    let threads: usize = args.num("--threads");
    let schedulers: Vec<String> = args
        .str("--schedulers")
        .split(',')
        .map(|s| {
            roster_name(s.trim()).unwrap_or_else(|| args.fail(&format!("unknown scheduler '{s}'")))
        })
        .collect();
    let process = ArrivalProcess::parse(args.str("--process"))
        .unwrap_or_else(|| args.fail("--process must be poisson or bursty[:N]"));
    let default_loads: &[f64] = if quick {
        &[0.3, 1.0, 2.5]
    } else {
        &[0.2, 0.5, 0.8, 1.1, 1.5, 2.0]
    };
    let cfg = SweepConfig {
        load_factors: args
            .list("--loads")
            .unwrap_or_else(|| default_loads.to_vec()),
        tenants: args.num("--tenants"),
        jobs_per_tenant: args.opt("--jobs").unwrap_or(if quick { 8 } else { 25 }),
        process,
        seed: args.num("--seed"),
        seed_variants: if quick { 1 } else { 2 },
        ..SweepConfig::default()
    };
    let catalog = if quick {
        Catalog::tiny()
    } else {
        Catalog::standard()
    };

    doc.key("quick").bool(quick);
    doc.key("tenants").u64(cfg.tenants.into());
    doc.key("jobs_per_tenant").u64(cfg.jobs_per_tenant.into());
    doc.key("process").str(&process.label());
    doc.key("desim_nodes").u64(nodes as u64);
    doc.key("live_threads").u64(threads as u64);
    doc.key("series").arr();
    let mut all_ok = true;
    for sched in &schedulers {
        eprintln!("sweep {sched} on desim ({nodes} nodes)...");
        let s = sweep_one(&cfg, sched, &catalog, &mut DesimBackend::new(nodes));
        all_ok &= print_series(&s);
        series_json(&mut doc, &s);

        eprintln!("sweep {sched} on live ({threads} threads)...");
        let s = sweep_one(&cfg, sched, &catalog, &mut LiveBackend::new(threads));
        all_ok &= print_series(&s);
        series_json(&mut doc, &s);
    }
    doc.end();
    assert!(all_ok, "serve sweep: a calibration or serve audit failed");
    println!("all series audited clean (per-job conservation + Theorem 1 spread)");
    Some(doc)
}
