//! `live_speedup` — wall-clock speedup curves on the live backend.
//!
//! Runs RIPS on real OS threads (1, 2, 4 per app) executing real
//! application grains, and writes `BENCH_LIVE.json` with
//! threads-vs-wall-clock rows per app, per grain mode:
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
//! equal the sequential reference, or the binary panics.
//!
//! Each series additionally carries an `overhead_breakdown`: one extra
//! run at the widest thread count with the metrics registry, wall
//! cycle clock, and a flight-recorder trace sink installed, so the
//! per-dispatch cycle attribution ({grain setup, grain execute,
//! transport send/recv, timer wheel, trace emission}; ROADMAP item 1)
//! lands in the same JSON as the speedups. The profiled run is kept
//! out of the timing cells — the published wall clocks stay
//! measurement-free.
//!
//! ```text
//! live_speedup [--out BENCH_LIVE.json] [--repeats 2] [--seed 1]
//! ```

use std::sync::Arc;

use rips_apps::{
    gromos_with_grains, nqueens_with_grains, puzzle_with_grains, GrainTable, GromosConfig,
    NQueensConfig, PuzzleConfig,
};
use rips_bench::live::{live_opts, live_run};
use rips_bench::{arg_usize, registry};
use rips_live::{GrainMode, WallClock};
use rips_taskgraph::Workload;
use rips_trace::metrics_rt::{Counter, CycleClock, Histo};
use rips_trace::{with_metrics_clocked, with_sink_clocked, Clock, FlightRecorder, MetricsRegistry};

const THREADS: &[usize] = &[1, 2, 4];

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

struct Cell {
    threads: usize,
    wall_us: u64,
    speedup: f64,
    /// Tasks per thread at this width — the instance's parallelism
    /// ceiling. Speedup cannot meaningfully exceed ~min(ceiling,
    /// host cores); small values flag instance-limited rows.
    ceiling: f64,
}

/// Per-dispatch cycle attribution from one profiled run at the widest
/// thread count: where a dispatch round's non-grain time goes.
struct Breakdown {
    threads: usize,
    dispatch_rounds: u64,
    /// `(phase, sample count, total ns, mean ns)` in [`PHASES`] order.
    phases: Vec<(&'static str, u64, u64, f64)>,
}

struct Series {
    app: String,
    tasks: usize,
    solutions: u64,
    mode: &'static str,
    cells: Vec<Cell>,
    breakdown: Breakdown,
}

fn arg(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

/// Benchmark-sized instances: real algorithms, minutes not hours.
fn apps() -> Vec<(String, Arc<Workload>, Arc<GrainTable>)> {
    let (qw, qt) = nqueens_with_grains(NQueensConfig {
        n: 10,
        split_depth: 3,
        root_depth: 2,
        ns_per_node: 1800,
    });
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

fn measure(
    name: &str,
    workload: &Arc<Workload>,
    table: &Arc<GrainTable>,
    mode: GrainMode,
    mode_label: &'static str,
    repeats: usize,
    seed: u64,
) -> Series {
    let truth = table.static_totals();
    let tasks = workload.stats().tasks;
    let mut cells = Vec::new();
    let mut base_us = 0u64;
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
        let ceiling = tasks as f64 / threads as f64;
        cells.push(Cell {
            threads,
            wall_us: best,
            speedup: base_us as f64 / best.max(1) as f64,
            ceiling,
        });
        let note = if ceiling < 16.0 {
            format!(" [ceiling {ceiling:.1} tasks/thread — instance-limited]")
        } else {
            String::new()
        };
        eprintln!(
            "  {name} [{mode_label}] {threads} threads: {:.3} s (speedup {:.2}){note}",
            best as f64 / 1e6,
            base_us as f64 / best.max(1) as f64
        );
    }
    // One extra profiled run at the widest width: metrics registry +
    // wall cycle clock + flight-recorder sink (so trace-emission cost
    // is exercised too). Separate from the timing cells above so the
    // published wall clocks carry no measurement overhead.
    let pthreads = *THREADS.last().unwrap();
    let clock: Arc<WallClock> = Arc::new(WallClock::new());
    let metrics = MetricsRegistry::new(pthreads);
    let (_flight, out) =
        with_metrics_clocked(&metrics, Arc::clone(&clock) as Arc<dyn CycleClock>, || {
            with_sink_clocked(
                FlightRecorder::new(pthreads, 64),
                Arc::clone(&clock) as Arc<dyn Clock>,
                || {
                    let mut opts = live_opts(table, mode, 1.0);
                    opts.clock = Some(Arc::clone(&clock) as Arc<dyn Clock>);
                    live_run("RIPS", workload, pthreads, 0.4, seed, opts)
                },
            )
        });
    assert_eq!(out.solutions, truth.solutions, "{name} profiled run");
    assert_eq!(out.checksum, truth.checksum, "{name} profiled run");
    let snap = metrics.snapshot();
    let phases: Vec<(&'static str, u64, u64, f64)> = PHASES
        .iter()
        .map(|&(label, h)| {
            let hs = snap.histo(h);
            (label, hs.count, hs.sum, hs.mean())
        })
        .collect();
    let breakdown = Breakdown {
        threads: pthreads,
        dispatch_rounds: snap.counter(Counter::DispatchRounds),
        phases,
    };
    let round = snap.histo(Histo::DispatchRoundNs);
    let setup = snap.histo(Histo::GrainSetupNs);
    eprintln!(
        "  {name} [{mode_label}] overhead at {pthreads}t: {} rounds, \
         mean {:.0} ns/round ({:.0} ns setup)",
        breakdown.dispatch_rounds,
        round.mean(),
        setup.mean()
    );

    Series {
        app: name.to_string(),
        tasks,
        solutions: truth.solutions,
        mode: mode_label,
        cells,
        breakdown,
    }
}

fn best_at_4_threads<'a>(series: &'a [Series], mode: &str) -> Option<(&'a str, f64)> {
    series
        .iter()
        .filter(|s| s.mode == mode)
        .filter_map(|s| {
            s.cells
                .iter()
                .find(|c| c.threads == 4)
                .map(|c| (s.app.as_str(), c.speedup))
        })
        .max_by(|a, b| a.1.total_cmp(&b.1))
}

fn main() {
    let out_path = arg("--out").unwrap_or_else(|| "BENCH_LIVE.json".into());
    let repeats = arg_usize("--repeats", 2).max(1);
    let seed: u64 = arg("--seed").and_then(|v| v.parse().ok()).unwrap_or(1);
    let host = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    let mut series = Vec::new();
    for (name, workload, table) in apps() {
        eprintln!("{name}: {} tasks", workload.stats().tasks);
        for (mode, label) in [(GrainMode::Compute, "compute"), (GrainMode::Timed, "timed")] {
            series.push(measure(
                &name, &workload, &table, mode, label, repeats, seed,
            ));
        }
    }

    let best_timed_4t = best_at_4_threads(&series, "timed");
    let best_compute_4t = best_at_4_threads(&series, "compute");

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"live_speedup\",\n");
    json.push_str("  \"scheduler\": \"RIPS\",\n");
    json.push_str(&format!("  \"host_parallelism\": {host},\n"));
    json.push_str(&format!("  \"repeats\": {repeats},\n"));
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str(&format!("  \"roster\": {:?},\n", registry().names()));
    if let Some((app, s)) = best_timed_4t {
        json.push_str(&format!(
            "  \"best_timed_speedup_at_4_threads\": {{\"app\": {app:?}, \"speedup\": {s:.3}}},\n"
        ));
    }
    if let Some((app, s)) = best_compute_4t {
        json.push_str(&format!(
            "  \"best_compute_speedup_at_4_threads\": \
             {{\"app\": {app:?}, \"speedup\": {s:.3}}},\n"
        ));
    }
    json.push_str("  \"series\": [\n");
    for (i, s) in series.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"app\": {:?}, \"mode\": {:?}, \"host_parallelism\": {host}, \
             \"tasks\": {}, \"solutions\": {}, \"runs\": [",
            s.app, s.mode, s.tasks, s.solutions
        ));
        for (j, c) in s.cells.iter().enumerate() {
            json.push_str(&format!(
                "{{\"threads\": {}, \"wall_us\": {}, \"speedup\": {:.3}, \"ceiling\": {:.1}}}{}",
                c.threads,
                c.wall_us,
                c.speedup,
                c.ceiling,
                if j + 1 < s.cells.len() { ", " } else { "" }
            ));
        }
        json.push_str(&format!(
            "], \"overhead_breakdown\": {{\"threads\": {}, \"dispatch_rounds\": {}, \
             \"phases\": {{",
            s.breakdown.threads, s.breakdown.dispatch_rounds
        ));
        for (j, (label, count, total, mean)) in s.breakdown.phases.iter().enumerate() {
            json.push_str(&format!(
                "{label:?}: {{\"count\": {count}, \"total_ns\": {total}, \
                 \"mean_ns\": {mean:.1}}}{}",
                if j + 1 < s.breakdown.phases.len() {
                    ", "
                } else {
                    ""
                }
            ));
        }
        json.push_str(&format!(
            "}}}}}}{}\n",
            if i + 1 < series.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    if let Some((app, s)) = best_timed_4t {
        println!("best timed speedup at 4 threads: {s:.2}x on {app}");
    }
    if let Some((app, s)) = best_compute_4t {
        println!("best compute speedup at 4 threads: {s:.2}x on {app} (host cores: {host})");
    }
    println!("wrote {out_path}");
}
