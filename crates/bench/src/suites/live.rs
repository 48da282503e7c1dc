//! Wall-clock speedup curves on the live backend.
//!
//! Runs RIPS on real OS threads (1, 2, 4 per app) executing real
//! application grains, with threads-vs-wall-clock rows per app, per
//! grain mode:
//!
//! * `compute` — only the real application closures run; speedup then
//!   reflects the host's physical parallelism (a 1-core container
//!   shows ~1x, honestly recorded as such).
//! * `timed`  — each grain additionally occupies its node for the
//!   task's modelled duration, so node-level concurrency (the thing
//!   the scheduler controls) is measurable on any host: sleeping
//!   nodes overlap regardless of core count.
//!
//! Honesty fields: every series entry repeats the host's
//! `available_parallelism` (`host_parallelism`), so a number can never
//! be quoted without the hardware that produced it. Every cell carries
//! its parallelism ceiling (`tasks / threads`) — when that ratio is
//! small (the 38-task 15-puzzle instance at 4 threads, for example)
//! poor speedup is a property of the instance, not a scheduler
//! regression.
//!
//! Every run is cross-validated: solutions and execution checksum must
//! equal the sequential reference, or the suite panics.
//!
//! Each series additionally carries an `overhead_breakdown`: one extra
//! run at the widest thread count with the metrics registry, wall
//! cycle clock, and a flight-recorder trace sink installed, so the
//! per-dispatch cycle attribution ({grain setup, grain execute,
//! transport send/recv, timer wheel, trace emission}; ROADMAP item 1)
//! lands in the same JSON as the speedups. The profiled run is kept
//! out of the timing cells — the published wall clocks stay
//! measurement-free.

use std::sync::Arc;

use rips_apps::{gromos_with_grains, puzzle_with_grains, GrainTable, GromosConfig, PuzzleConfig};
use rips_live::{GrainMode, WallClock};
use rips_taskgraph::Workload;
use rips_trace::metrics_rt::{Counter, CycleClock, Histo};
use rips_trace::{
    with_metrics_clocked, with_sink_clocked, Clock, FlightRecorder, Json, MetricsRegistry,
};

use super::{host_parallelism, Suite, SEED};
use crate::args::{Args, Spec};
use crate::live::{live_opts, live_run};
use crate::{registry, App};

const SPEC: Spec = &[
    "live  RIPS on 1/2/4 real threads: wall-clock speedup and dispatch overhead breakdown",
    "--out S=BENCH_LIVE.json  where to write the JSON document",
    "--repeats N=2            runs per cell (best-of)",
    SEED,
];

pub(super) const SUITE: Suite = (SPEC, run);

const THREADS: &[usize] = &[1, 2, 4];
/// The profiled run's width: the last of [`THREADS`].
const WIDEST: usize = 4;

/// The profiled phases of a dispatch round, in rendering order.
const PHASES: &[(&str, Histo)] = &[
    ("dispatch_round", Histo::DispatchRoundNs),
    ("grain_setup", Histo::GrainSetupNs),
    ("grain_exec", Histo::GrainExecNs),
    ("transport_send", Histo::TransportSendNs),
    ("transport_recv", Histo::TransportRecvNs),
    ("timer_wheel", Histo::TimerWheelNs),
    ("trace_emit", Histo::TraceEmitNs),
    ("park", Histo::ParkNs),
];

/// A named workload with the grain table that executes it.
type Instance = (String, Arc<Workload>, Arc<GrainTable>);

/// Benchmark-sized instances: real algorithms, minutes not hours.
fn apps() -> Vec<Instance> {
    let (qw, qt) = App::Queens(10).build_live();
    let (pw, pt) = puzzle_with_grains(PuzzleConfig {
        scramble_len: 20,
        seed: 3,
        min_tasks: 32,
        ns_per_node: 1500,
        split_divisor: 1024,
        split_floor_nodes: 20_000,
    });
    let mut gcfg = GromosConfig::paper(8.0);
    gcfg.atoms = 800;
    gcfg.groups = 571;
    let (gw, gt) = gromos_with_grains(gcfg);
    vec![
        ("10-queens".into(), Arc::new(qw), Arc::new(qt)),
        ("15-puzzle (s20)".into(), Arc::new(pw), Arc::new(pt)),
        ("gromos 8A (800 atoms)".into(), Arc::new(gw), Arc::new(gt)),
    ]
}

/// Measures one (app, mode) series into `doc`; returns its speedup at
/// 4 threads.
fn measure(
    doc: &mut Json,
    (name, workload, table): &Instance,
    mode: GrainMode,
    mode_label: &str,
    repeats: usize,
    seed: u64,
) -> f64 {
    let truth = table.static_totals();
    let tasks = workload.stats().tasks;
    doc.obj().key("app").str(name).key("mode").str(mode_label);
    doc.key("host_parallelism").u64(host_parallelism() as u64);
    doc.key("tasks").u64(tasks as u64);
    doc.key("solutions").u64(truth.solutions);
    doc.key("runs").arr();
    let (mut base_us, mut speedup) = (0u64, 0.0);
    for &threads in THREADS {
        // Best-of-N damps OS-scheduler noise; every repeat is still
        // fully cross-validated.
        let mut best = u64::MAX;
        for r in 0..repeats {
            let opts = live_opts(table, mode, 1.0);
            let out = live_run("RIPS", workload, threads, 0.4, seed + r as u64, opts);
            assert_eq!(out.solutions, truth.solutions, "{name} at {threads}t");
            assert_eq!(out.checksum, truth.checksum, "{name} at {threads}t");
            best = best.min(out.wall_us);
        }
        if threads == 1 {
            base_us = best;
        }
        // Tasks per thread at this width — the instance's parallelism
        // ceiling. Speedup cannot meaningfully exceed ~min(ceiling,
        // host cores); small values flag instance-limited rows.
        let ceiling = tasks as f64 / threads as f64;
        speedup = base_us as f64 / best.max(1) as f64;
        doc.obj().key("threads").u64(threads as u64);
        doc.key("wall_us").u64(best);
        doc.key("speedup").f64(speedup, 3);
        doc.key("ceiling").f64(ceiling, 1).end();
        let note = if ceiling < 16.0 {
            format!(" [ceiling {ceiling:.1} tasks/thread — instance-limited]")
        } else {
            String::new()
        };
        eprintln!(
            "  {name} [{mode_label}] {threads} threads: {:.3} s (speedup {speedup:.2}){note}",
            best as f64 / 1e6,
        );
    }
    doc.end();
    // One extra profiled run at the widest width: metrics registry +
    // wall cycle clock + flight-recorder sink (so trace-emission cost
    // is exercised too). Separate from the timing cells above so the
    // published wall clocks carry no measurement overhead.
    let clock: Arc<WallClock> = Arc::new(WallClock::new());
    let metrics = MetricsRegistry::new(WIDEST);
    let (_flight, out) =
        with_metrics_clocked(&metrics, Arc::clone(&clock) as Arc<dyn CycleClock>, || {
            with_sink_clocked(
                FlightRecorder::new(WIDEST, 64),
                Arc::clone(&clock) as Arc<dyn Clock>,
                || {
                    let mut opts = live_opts(table, mode, 1.0);
                    opts.clock = Some(Arc::clone(&clock) as Arc<dyn Clock>);
                    live_run("RIPS", workload, WIDEST, 0.4, seed, opts)
                },
            )
        });
    assert_eq!(out.solutions, truth.solutions, "{name} profiled run");
    assert_eq!(out.checksum, truth.checksum, "{name} profiled run");
    // Per-dispatch cycle attribution: where a dispatch round's
    // non-grain time goes.
    let snap = metrics.snapshot();
    let dispatch_rounds = snap.counter(Counter::DispatchRounds);
    eprintln!(
        "  {name} [{mode_label}] overhead at {WIDEST}t: {dispatch_rounds} rounds, \
         mean {:.0} ns/round ({:.0} ns setup)",
        snap.histo(Histo::DispatchRoundNs).mean(),
        snap.histo(Histo::GrainSetupNs).mean()
    );
    doc.key("overhead_breakdown").obj();
    doc.key("threads").u64(WIDEST as u64);
    doc.key("dispatch_rounds").u64(dispatch_rounds);
    doc.key("phases").obj();
    for &(label, histo) in PHASES {
        let h = snap.histo(histo);
        doc.key(label).obj().key("count").u64(h.count);
        doc.key("total_ns")
            .u64(h.sum)
            .key("mean_ns")
            .f64(h.mean(), 1)
            .end();
    }
    doc.end().end().end();
    speedup
}

fn run(args: &Args, mut doc: Json) -> Option<Json> {
    let repeats = args.num::<usize>("--repeats").max(1);
    let seed = args.num("--seed");

    doc.key("scheduler").str("RIPS");
    doc.key("repeats").u64(repeats as u64);
    doc.key("roster").arr();
    for name in registry().names() {
        doc.str(name);
    }
    doc.end().key("series").arr();
    // Best 4-thread speedup per mode: `(speedup, app)`.
    let mut best = [
        ("compute", 0.0, String::new()),
        ("timed", 0.0, String::new()),
    ];
    for app in apps() {
        eprintln!("{}: {} tasks", app.0, app.1.stats().tasks);
        let modes = [GrainMode::Compute, GrainMode::Timed];
        for (mode, best) in modes.into_iter().zip(&mut best) {
            let s = measure(&mut doc, &app, mode, best.0, repeats, seed);
            if s > best.1 {
                (best.1, best.2) = (s, app.0.clone());
            }
        }
    }
    doc.end();
    for (mode, s, app) in best {
        doc.key(&format!("best_{mode}_speedup_at_4_threads")).obj();
        doc.key("app").str(&app).key("speedup").f64(s, 3).end();
        let host = host_parallelism();
        println!("best {mode} speedup at 4 threads: {s:.2}x on {app} (host cores: {host})");
    }
    Some(doc)
}
