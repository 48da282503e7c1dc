//! `rips` — command-line driver for the reproduction.
//!
//! ```text
//! rips run    --app queens13 --scheduler rips --nodes 32 [--policy any-lazy] [--seed 1]
//!             [--metrics-out m.txt]
//! rips live   [<scheduler>] <app> --threads 4 [--mode compute|timed] [--policy any-lazy]
//!             [--audit] [--trace-out f] [--metrics-out m.txt]
//! rips stats  [<scheduler>] <app> [--backend sim|live] [--nodes 32|--threads 4] [--out m.txt]
//! rips trace  <scheduler> <app> [--nodes 32] [--seed 1] [--out trace.json] [--check]
//! rips report <scheduler> <app> [--nodes 32] [--seed 1] [--jsonl]
//! rips audit  <scheduler> <app> [--nodes 32] [--seed 1]   # check paper invariants
//! rips audit  --all [--nodes 32] [--seed 1]               # ... across the roster
//! rips serve  [--backend sim|live] [--scheduler rips] [--nodes 8|--threads 2]
//!             [--tenants 4] [--jobs 8] [--mean-interarrival-us 50000|--rate jobs/s]
//!             [--process poisson|bursty[:N]] [--max-pending 64] [--quota 16]
//!             [--quantum 64] [--seed 1] [--tiny] [--audit] [--json|--out r.json]
//!             [--metrics-out m.txt]
//! rips bench-serve [--schedulers rips,rips-h,rid] [--nodes 8] [--threads 2]
//!             [--loads 0.3,1.0,2.5] [--tenants 4] [--jobs 8] [--seed 1]
//! rips plan   --rows 8 --cols 4 --loads 25,0,3,...   # one-shot MWA on a load vector
//! rips lint   [--root .] [--format json] [--out report.json]
//! rips verify [--bound 3] [--mode dfs|random] [--seed 1] [--out replays/]
//! rips apps                                          # list available workloads
//! ```
//!
//! `trace` runs one scheduler with the structured trace sink attached
//! and writes a Chrome trace-event JSON file — open it at
//! <https://ui.perfetto.dev> for per-node phase/task timelines.
//! `report` runs the same way but prints the aggregated phase-anatomy
//! table (p50/p95/max durations per system phase) instead.
//! `audit` runs with the invariant [`Auditor`] attached and fails if
//! any paper invariant (Theorem 1/2, conservation, barrier pairing) is
//! violated. `lint` runs the rips-lint static analysis pass over the
//! workspace source (rules RIPS-L001…L006; see DESIGN §7). `verify`
//! rebuilds the workspace with `--cfg rips_verify` and runs the
//! bounded model checker over the lock-free live paths (DESIGN §11).
//!
//! `serve` runs the open-loop multi-tenant service (DESIGN §12): N
//! tenants submit seeded streams of catalog jobs through admission
//! control and deficit-round-robin fairness into a single-fleet queue
//! on either backend, reporting per-tenant and aggregate p50/p95/p99
//! job latency, sustained jobs/s, and shed rate. `bench-serve` sweeps
//! offered load to locate each scheduler's saturation knee (the JSON
//! artifact comes from the `bench_serve` bin in rips-serve).
//!
//! `live` runs the scheduler on the *live* backend — one OS thread per
//! node, batched packets over sharded SPSC rings, wall-clock time —
//! executing the real application grains, and checks the solution
//! count and execution checksum against the sequential reference.
//! `--audit` additionally streams the live trace through the same
//! [`Auditor`] the simulator uses (DESIGN §8).
//!
//! Live runs carry always-on telemetry (DESIGN §10): a per-thread
//! metrics registry, a flight recorder holding each node's recent
//! trace events, and a stall watchdog that dumps the flight recorder
//! instead of hanging silently. `--metrics-out` (and the dedicated
//! `stats` subcommand, which also covers the simulator backend)
//! export the registry as OpenMetrics text.

use std::sync::Arc;

use rips_repro::apps::GrainTable;
use rips_repro::audit::Auditor;
use rips_repro::bench::live::{live_opts, live_run_with};
use rips_repro::bench::{registry_with, RegistryTuning};
use rips_repro::core::{GlobalPolicy, LocalPolicy, RipsConfig};
use rips_repro::desim::LatencyModel;
use rips_repro::live::{GrainMode, WallClock};
use rips_repro::live::{Watchdog, WatchdogOpts};
use rips_repro::runtime::{Costs, RunSpec, SchedulerRegistry};
use rips_repro::sched::{min_nonlocal_tasks, mwa};
use rips_repro::taskgraph::Workload;
use rips_repro::topology::{Mesh2D, Topology};
use rips_repro::trace::{
    metrics_rt, validate, with_metrics, with_metrics_clocked, Clock, CycleClock, MetricsRegistry,
    SharedFlight, Tee, TraceBuffer,
};

fn arg(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

/// Flight-recorder depth: recent trace events retained per node for
/// post-mortem dumps (watchdog trip, audit failure, checksum
/// mismatch). 256 events ≈ the last few dispatch rounds per node.
const FLIGHT_EVENTS_PER_NODE: usize = 256;

const APPS: &[&str] = &[
    "queens9", "queens10", "queens11", "queens12", "queens13", "queens14", "queens15", "ida1",
    "ida2", "ida3", "gromos8", "gromos12", "gromos16",
];

fn build_app_live(name: &str) -> (Workload, GrainTable) {
    use rips_repro::apps::{
        gromos_with_grains, nqueens_with_grains, puzzle_with_grains, GromosConfig, NQueensConfig,
        PuzzleConfig,
    };
    // The sub-paper sizes (smoke tests, CI traces) split shallower so
    // the task count stays proportionate to the tiny boards.
    let small_queens = |n| NQueensConfig {
        n,
        split_depth: 3,
        root_depth: 2,
        ns_per_node: 1800,
    };
    match name {
        "queens9" => nqueens_with_grains(small_queens(9)),
        "queens10" => nqueens_with_grains(small_queens(10)),
        "queens11" => nqueens_with_grains(NQueensConfig::paper(11)),
        "queens12" => nqueens_with_grains(NQueensConfig::paper(12)),
        "queens13" => nqueens_with_grains(NQueensConfig::paper(13)),
        "queens14" => nqueens_with_grains(NQueensConfig::paper(14)),
        "queens15" => nqueens_with_grains(NQueensConfig::paper(15)),
        "ida1" => puzzle_with_grains(PuzzleConfig::paper(1)),
        "ida2" => puzzle_with_grains(PuzzleConfig::paper(2)),
        "ida3" => puzzle_with_grains(PuzzleConfig::paper(3)),
        "gromos8" => gromos_with_grains(GromosConfig::paper(8.0)),
        "gromos12" => gromos_with_grains(GromosConfig::paper(12.0)),
        "gromos16" => gromos_with_grains(GromosConfig::paper(16.0)),
        other => {
            eprintln!("unknown app '{other}'; available: {APPS:?}");
            std::process::exit(2);
        }
    }
}

fn build_app(name: &str) -> Workload {
    build_app_live(name).0
}

/// Parses `--policy` into the roster tuning it selects (the RIPS
/// local/global policy pair; every other knob stays paper-default).
fn policy_tuning(policy: &str) -> RegistryTuning {
    let (local, global) = match policy {
        "any-lazy" => (LocalPolicy::Lazy, GlobalPolicy::Any),
        "any-eager" => (LocalPolicy::Eager, GlobalPolicy::Any),
        "all-lazy" => (LocalPolicy::Lazy, GlobalPolicy::All),
        "all-eager" => (LocalPolicy::Eager, GlobalPolicy::All),
        other => {
            eprintln!("unknown policy '{other}' (any-lazy|any-eager|all-lazy|all-eager)");
            std::process::exit(2);
        }
    };
    RegistryTuning {
        rips: RipsConfig {
            local,
            global,
            ..RipsConfig::default()
        },
        ..RegistryTuning::default()
    }
}

/// Builds the registry for `--policy` and resolves a case-insensitive
/// scheduler name against its roster.
fn resolve_scheduler(scheduler: &str, policy: &str) -> (SchedulerRegistry, String) {
    let reg = registry_with(policy_tuning(policy));
    let Some(name) = reg
        .names()
        .iter()
        .find(|n| n.eq_ignore_ascii_case(scheduler))
        .map(|n| n.to_string())
    else {
        eprintln!(
            "unknown scheduler '{scheduler}'; available: {}",
            reg.names().join("|").to_lowercase()
        );
        std::process::exit(2);
    };
    (reg, name)
}

/// Renders the registry as OpenMetrics text and writes it to `path`
/// (`-` means stdout). The text is validated before it leaves the
/// process so a malformed exposition is a bug here, not downstream.
fn write_metrics(reg: &MetricsRegistry, path: &str) {
    let text = reg.snapshot().render_openmetrics();
    if let Err(e) = metrics_rt::validate_openmetrics(&text) {
        eprintln!("internal error: OpenMetrics render invalid: {e}");
        std::process::exit(1);
    }
    if path == "-" {
        print!("{text}");
    } else {
        std::fs::write(path, &text).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("wrote {path}: {} bytes of OpenMetrics text", text.len());
    }
}

fn paper_spec(workload: &Arc<Workload>, nodes: usize, seed: u64) -> RunSpec {
    RunSpec {
        workload: Arc::clone(workload),
        nodes,
        latency: LatencyModel::paragon(),
        costs: Costs::default(),
        seed,
        rid_u: 0.4,
    }
}

fn cmd_run() {
    let app = arg("--app").unwrap_or_else(|| "queens13".into());
    let scheduler = arg("--scheduler").unwrap_or_else(|| "rips".into());
    let nodes: usize = arg("--nodes").and_then(|v| v.parse().ok()).unwrap_or(32);
    let seed: u64 = arg("--seed").and_then(|v| v.parse().ok()).unwrap_or(1);
    let policy = arg("--policy").unwrap_or_else(|| "any-lazy".into());

    eprintln!("building workload '{app}' ...");
    let (workload, table) = build_app_live(&app);
    let workload = Arc::new(workload);
    let stats = workload.stats();
    println!(
        "workload: {} | {} tasks | {} rounds | Ts = {:.2} s",
        workload.name,
        stats.tasks,
        workload.rounds.len(),
        stats.total_work_us as f64 / 1e6
    );

    let mesh = Mesh2D::near_square(nodes);
    println!("machine:  {} ({} nodes)", mesh.label(), nodes);

    let (reg, name) = resolve_scheduler(&scheduler, &policy);
    let spec = paper_spec(&workload, nodes, seed);
    // One registry shard per simulated node; the simulator's virtual
    // clock means counters fill but the ns histograms stay empty.
    let metrics = MetricsRegistry::new(nodes);
    let run = with_metrics(&metrics, || reg.run(&name, &spec));
    let outcome = run.outcome;
    let phases = outcome.system_phases;
    outcome
        .verify_complete(&workload)
        .expect("scheduler lost tasks");

    println!("\nresults ({scheduler}):");
    println!("  non-local tasks : {}", outcome.nonlocal);
    println!("  overhead Th     : {:.3} s", outcome.overhead_s());
    println!("  idle Ti         : {:.3} s", outcome.idle_s());
    println!("  exec time T     : {:.3} s", outcome.exec_time_s());
    println!(
        "  speedup         : {:.1}",
        outcome.stats.total_user_us() as f64 / outcome.stats.end_time as f64
    );
    println!("  efficiency      : {:.1}%", outcome.efficiency() * 100.0);
    println!("  sim events      : {}", outcome.stats.events);
    println!("  peak evt queue  : {}", outcome.stats.peak_queue_depth);
    println!("  peak heap len   : {}", outcome.stats.peak_heap_len);
    if phases > 0 {
        println!("  system phases   : {phases}");
    }
    // The simulator schedules grains without running them; the app's
    // answer comes from the sequential grain-table reference (what a
    // live run must reproduce — compare with `rips live`).
    let truth = table.static_totals();
    println!("  solutions       : {}", truth.solutions);
    println!("  grain checksum  : {:#018x}", truth.checksum);
    if let Some(path) = arg("--metrics-out") {
        write_metrics(&metrics, &path);
    }
}

fn cmd_live() {
    // Positionals may appear before, between, or after flags
    // (`rips live --threads 4 queens9` and `rips live rid queens9
    // --threads 2` both work).
    let mut positionals = Vec::new();
    let mut args = std::env::args().skip(2);
    while let Some(a) = args.next() {
        if a.starts_with("--") {
            if a != "--audit" {
                args.next(); // skip the flag's value
            }
        } else {
            positionals.push(a);
        }
    }
    let mut pos = positionals.into_iter();
    let (scheduler, app) = match (pos.next(), pos.next()) {
        (Some(s), Some(a)) => (s, a),
        (Some(a), None) => ("rips".to_string(), a),
        _ => {
            eprintln!(
                "usage: rips live [<scheduler>] <app> [--threads N] [--mode compute|timed] \
                 [--timed-scale F] [--seed S] [--policy P] [--audit] [--trace-out f.json]"
            );
            std::process::exit(2);
        }
    };
    let threads: usize = arg("--threads").and_then(|v| v.parse().ok()).unwrap_or(4);
    let seed: u64 = arg("--seed").and_then(|v| v.parse().ok()).unwrap_or(1);
    let policy = arg("--policy").unwrap_or_else(|| "any-lazy".into());
    let mode = match arg("--mode").as_deref() {
        None | Some("compute") => GrainMode::Compute,
        Some("timed") => GrainMode::Timed,
        Some(other) => {
            eprintln!("unknown --mode '{other}' (compute|timed)");
            std::process::exit(2);
        }
    };
    let timed_scale: f64 = arg("--timed-scale")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0);
    let audit = arg_flag("--audit");
    let trace_out = arg("--trace-out");
    let metrics_out = arg("--metrics-out");

    eprintln!("building workload '{app}' ...");
    let (workload, table) = build_app_live(&app);
    let workload = Arc::new(workload);
    let table = Arc::new(table);
    let (_, name) = resolve_scheduler(&scheduler, &policy);
    let tuning = policy_tuning(&policy);
    let truth = table.static_totals();

    let clock: Arc<WallClock> = Arc::new(WallClock::new());
    let run = |clock: &Arc<WallClock>| {
        let mut opts = live_opts(&table, mode, timed_scale);
        opts.clock = Some(Arc::clone(clock) as Arc<dyn Clock>);
        live_run_with(tuning, &name, &workload, threads, 0.4, seed, opts)
    };

    eprintln!(
        "live run: {name} on {threads} threads (mode {mode:?}, policy {policy}, seed {seed}) ..."
    );

    // Always-on telemetry (DESIGN §10): every live run carries the
    // metrics registry (one shard per node thread), a flight recorder
    // of each node's recent trace events, and a stall watchdog
    // sampling per-node dispatch-round progress. A wedged run becomes
    // a stderr dump of who stalled and what each node last did
    // instead of a silent hang.
    let metrics = MetricsRegistry::new(threads);
    let flight = SharedFlight::new(threads, FLIGHT_EVENTS_PER_NODE);
    let wd_flight = flight.clone();
    let watchdog = Watchdog::spawn(
        Arc::clone(&metrics),
        WatchdogOpts::default(),
        move |report| {
            eprintln!("rips-watchdog: {}", report.summary());
            wd_flight.dump_to_stderr("watchdog stall");
        },
    );

    let (out, audit_ok) =
        with_metrics_clocked(&metrics, Arc::clone(&clock) as Arc<dyn CycleClock>, || {
            if audit || trace_out.is_some() {
                // One install feeds all three consumers: the flight
                // recorder rides beside the invariant auditor and the
                // buffer destined for the Perfetto export.
                let sink = Tee(
                    flight.clone(),
                    Tee(Auditor::new(threads), TraceBuffer::new()),
                );
                let (Tee(_, Tee(auditor, buf)), out) = rips_repro::trace::with_sink_clocked(
                    sink,
                    Arc::clone(&clock) as Arc<dyn Clock>,
                    || run(&clock),
                );
                let mut ok = true;
                if audit {
                    let report = auditor.finish();
                    print!("{}", report.render_human());
                    ok = report.is_ok();
                }
                if let Some(path) = trace_out {
                    let label = format!("{name} · {app} · {threads} threads (live) · seed {seed}");
                    let json = buf.chrome_json(&label, out.wall_us);
                    std::fs::write(&path, &json).unwrap_or_else(|e| {
                        eprintln!("cannot write {path}: {e}");
                        std::process::exit(1);
                    });
                    eprintln!(
                        "wrote {path}: {} events ({} bytes)",
                        buf.records.len(),
                        json.len()
                    );
                }
                (out, ok)
            } else {
                // No auditor or export requested: the flight recorder
                // alone taps the trace stream.
                let (_flight, out) = rips_repro::trace::with_sink_clocked(
                    flight.clone(),
                    Arc::clone(&clock) as Arc<dyn Clock>,
                    || run(&clock),
                );
                (out, true)
            }
        });
    let trips = watchdog.stop();

    println!("\nlive results ({name}, {threads} threads):");
    println!("  wall clock      : {:.3} s", out.wall_us as f64 / 1e6);
    println!("  tasks executed  : {}", out.total_executed());
    println!("  non-local tasks : {}", out.nonlocal);
    println!(
        "  grain time      : {:.3} s (modelled)",
        out.grain_us as f64 / 1e6
    );
    if out.system_phases > 0 {
        println!("  system phases   : {}", out.system_phases);
    }
    println!("  solutions       : {}", out.solutions);
    println!("  grain checksum  : {:#018x}", out.checksum);
    let matches = out.solutions == truth.solutions && out.checksum == truth.checksum;
    println!(
        "  vs sequential   : {}",
        if matches {
            "MATCH (solutions and checksum)"
        } else {
            "MISMATCH"
        }
    );
    let snap = metrics.snapshot();
    println!(
        "  dispatch rounds : {}",
        snap.counter(metrics_rt::Counter::DispatchRounds)
    );
    let round = snap.histo(metrics_rt::Histo::DispatchRoundNs);
    if round.count > 0 {
        println!(
            "  round mean      : {:.0} ns (p95 ≤ {} ns)",
            round.mean(),
            round.quantile_ub(0.95)
        );
    }
    if trips > 0 {
        println!("  watchdog trips  : {trips}");
    }
    if let Some(path) = metrics_out {
        write_metrics(&metrics, &path);
    }
    if !matches {
        eprintln!(
            "cross-validation FAILED: expected {} solutions / {:#018x}",
            truth.solutions, truth.checksum
        );
        flight.dump_to_stderr("cross-validation mismatch");
        std::process::exit(1);
    }
    if !audit_ok {
        eprintln!("audit FAILED on the live trace");
        flight.dump_to_stderr("audit failure");
        std::process::exit(1);
    }
}

/// `rips stats`: run one cell on either backend with the metrics
/// registry installed and emit the resulting OpenMetrics text (stdout
/// by default, `--out` for a file). The simulator backend fills the
/// event/task/message counters (its virtual clock leaves the ns
/// histograms empty); the live backend additionally fills the
/// per-dispatch timing histograms via the wall cycle clock.
fn cmd_stats() {
    let mut positionals = Vec::new();
    let mut args = std::env::args().skip(2);
    while let Some(a) = args.next() {
        if a.starts_with("--") {
            args.next(); // every stats flag takes a value
        } else {
            positionals.push(a);
        }
    }
    let mut pos = positionals.into_iter();
    let (scheduler, app) = match (pos.next(), pos.next()) {
        (Some(s), Some(a)) => (s, a),
        (Some(a), None) => ("rips".to_string(), a),
        _ => {
            eprintln!(
                "usage: rips stats [<scheduler>] <app> [--backend sim|live] [--nodes N] \
                 [--threads N] [--seed S] [--policy P] [--out m.txt]"
            );
            std::process::exit(2);
        }
    };
    let backend = arg("--backend").unwrap_or_else(|| "sim".into());
    let seed: u64 = arg("--seed").and_then(|v| v.parse().ok()).unwrap_or(1);
    let policy = arg("--policy").unwrap_or_else(|| "any-lazy".into());
    let out_path = arg("--out").unwrap_or_else(|| "-".into());

    eprintln!("building workload '{app}' ...");
    let (workload, table) = build_app_live(&app);
    let workload = Arc::new(workload);

    let metrics = match backend.as_str() {
        "sim" => {
            let nodes: usize = arg("--nodes").and_then(|v| v.parse().ok()).unwrap_or(32);
            let (reg, name) = resolve_scheduler(&scheduler, &policy);
            let spec = paper_spec(&workload, nodes, seed);
            eprintln!("sim run: {name} on {nodes} nodes (seed {seed}) ...");
            let metrics = MetricsRegistry::new(nodes);
            let run = with_metrics(&metrics, || reg.run(&name, &spec));
            run.outcome
                .verify_complete(&workload)
                .expect("scheduler lost tasks");
            metrics
        }
        "live" => {
            let threads: usize = arg("--threads").and_then(|v| v.parse().ok()).unwrap_or(4);
            let table = Arc::new(table);
            let (_, name) = resolve_scheduler(&scheduler, &policy);
            let tuning = policy_tuning(&policy);
            eprintln!("live run: {name} on {threads} threads (policy {policy}, seed {seed}) ...");
            let clock: Arc<WallClock> = Arc::new(WallClock::new());
            let metrics = MetricsRegistry::new(threads);
            let out =
                with_metrics_clocked(&metrics, Arc::clone(&clock) as Arc<dyn CycleClock>, || {
                    let mut opts = live_opts(&table, GrainMode::Compute, 1.0);
                    opts.clock = Some(Arc::clone(&clock) as Arc<dyn Clock>);
                    live_run_with(tuning, &name, &workload, threads, 0.4, seed, opts)
                });
            let truth = table.static_totals();
            if out.solutions != truth.solutions || out.checksum != truth.checksum {
                eprintln!(
                    "cross-validation FAILED: expected {} solutions / {:#018x}",
                    truth.solutions, truth.checksum
                );
                std::process::exit(1);
            }
            metrics
        }
        other => {
            eprintln!("unknown --backend '{other}' (sim|live)");
            std::process::exit(2);
        }
    };
    write_metrics(&metrics, &out_path);
}

/// Shared front half of `trace` and `report`: parse the positional
/// `<scheduler> <app>` pair, run the cell under a [`TraceBuffer`] sink,
/// and hand back the buffer plus the run's end time.
fn traced_run(cmd: &str) -> (String, TraceBuffer, u64) {
    let mut pos = std::env::args()
        .skip(2)
        .take_while(|a| !a.starts_with("--"));
    let (Some(scheduler), Some(app)) = (pos.next(), pos.next()) else {
        eprintln!("usage: rips {cmd} <scheduler> <app> [--nodes N] [--seed S] [--policy P] ...");
        std::process::exit(2);
    };
    let nodes: usize = arg("--nodes").and_then(|v| v.parse().ok()).unwrap_or(32);
    let seed: u64 = arg("--seed").and_then(|v| v.parse().ok()).unwrap_or(1);
    let policy = arg("--policy").unwrap_or_else(|| "any-lazy".into());

    eprintln!("building workload '{app}' ...");
    let workload = Arc::new(build_app(&app));
    let (reg, name) = resolve_scheduler(&scheduler, &policy);
    let spec = paper_spec(&workload, nodes, seed);

    eprintln!("tracing {name} on {nodes} nodes (seed {seed}) ...");
    let (buf, run) = rips_repro::trace::with_sink(TraceBuffer::new(), || reg.run(&name, &spec));
    run.outcome
        .verify_complete(&workload)
        .expect("scheduler lost tasks");
    let label = format!("{name} · {app} · {nodes} nodes · seed {seed}");
    (label, buf, run.outcome.stats.end_time)
}

fn cmd_trace() {
    let out_path = arg("--out").unwrap_or_else(|| "trace.json".into());
    let (label, buf, end_time) = traced_run("trace");

    if arg_flag("--check") {
        match validate(&buf) {
            Ok(check) => eprintln!(
                "trace well-formed: {} phase spans, {} stage spans, {} task execs, {} open at halt",
                check.closed_phases, check.closed_stages, check.task_execs, check.open_spans
            ),
            Err(e) => {
                eprintln!("malformed trace: {e}");
                std::process::exit(1);
            }
        }
    }

    let json = buf.chrome_json(&label, end_time);
    std::fs::write(&out_path, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    println!(
        "wrote {out_path}: {} events, {} bytes — open at https://ui.perfetto.dev",
        buf.records.len(),
        json.len()
    );
}

fn cmd_report() {
    let (label, buf, end_time) = traced_run("report");
    let mut report = buf.report(end_time);
    if arg_flag("--jsonl") {
        print!("{}", report.to_jsonl());
    } else {
        println!("{label}\n");
        print!("{}", report.render());
    }
}

fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Runs one scheduler under the invariant [`Auditor`] and prints its
/// report; returns whether every audited invariant held. RIPS-H runs
/// get the tiling-aware auditor (per-tile Theorem 1, Lemma 1 as a
/// lower bound) built from the same decomposition the planner uses.
fn audit_one(reg: &SchedulerRegistry, name: &str, spec: &RunSpec, nodes: usize) -> bool {
    let auditor = if name == "RIPS-H" {
        let mesh = rips_repro::topology::Mesh2D::near_square(nodes);
        Auditor::with_tiles(nodes, rips_repro::sched::TileGrid::new(&mesh).assignment())
    } else {
        Auditor::new(nodes)
    };
    let (auditor, run) = rips_repro::trace::with_sink(auditor, || reg.run(name, spec));
    let report = auditor.finish();
    println!("── {name} · {} nodes · seed {} ──", spec.nodes, spec.seed);
    print!("{}", report.render_human());
    println!(
        "run              T = {:.3} s, {} non-local",
        run.outcome.exec_time_s(),
        run.outcome.nonlocal
    );
    report.is_ok()
}

fn cmd_audit() {
    let nodes: usize = arg("--nodes").and_then(|v| v.parse().ok()).unwrap_or(32);
    let seed: u64 = arg("--seed").and_then(|v| v.parse().ok()).unwrap_or(1);
    let policy = arg("--policy").unwrap_or_else(|| "any-lazy".into());

    let (schedulers, app) = if arg_flag("--all") {
        (None, arg("--app").unwrap_or_else(|| "queens9".into()))
    } else {
        let mut pos = std::env::args()
            .skip(2)
            .take_while(|a| !a.starts_with("--"));
        let (Some(scheduler), Some(app)) = (pos.next(), pos.next()) else {
            eprintln!("usage: rips audit <scheduler> <app> [--nodes N] [--seed S]");
            eprintln!("       rips audit --all [--app queens9] [--nodes N] [--seed S]");
            std::process::exit(2);
        };
        (Some(scheduler), app)
    };

    eprintln!("building workload '{app}' ...");
    let workload = Arc::new(build_app(&app));
    let spec = paper_spec(&workload, nodes, seed);
    let mut all_ok = true;
    match schedulers {
        Some(scheduler) => {
            let (reg, name) = resolve_scheduler(&scheduler, &policy);
            all_ok &= audit_one(&reg, &name, &spec, nodes);
        }
        None => {
            let (reg, _) = resolve_scheduler("rips", &policy);
            for name in reg.names().to_vec() {
                all_ok &= audit_one(&reg, name, &spec, nodes);
            }
        }
    }
    if !all_ok {
        std::process::exit(1);
    }
}

fn cmd_lint() {
    let root = arg("--root").unwrap_or_else(|| ".".into());
    let format = arg("--format").unwrap_or_else(|| "human".into());
    let report = match rips_repro::audit::lint_workspace(std::path::Path::new(&root)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot walk {root}: {e}");
            std::process::exit(2);
        }
    };
    let rendered = match format.as_str() {
        "json" => report.render_json(),
        "human" => report.render_human(),
        other => {
            eprintln!("unknown --format '{other}' (human|json)");
            std::process::exit(2);
        }
    };
    match arg("--out") {
        Some(path) => {
            std::fs::write(&path, &rendered).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(2);
            });
            eprintln!(
                "wrote {path}: {} finding(s) in {} file(s), {} suppressed",
                report.findings.len(),
                report.files_checked,
                report.suppressed
            );
        }
        None => print!("{rendered}"),
    }
    if !report.is_clean() {
        std::process::exit(1);
    }
}

/// `rips verify` — recompile the workspace with `--cfg rips_verify`
/// (swapping the `rips_verify::sync` seam from std re-exports to the
/// instrumented cells) and run the bounded model checker's test suites:
/// the checker's own litmus selftests plus the `verify_model` modules
/// embedded in `rips-live` (SPSC ring, transport wakeup/halt, watchdog)
/// and `rips-runtime` (RCU cell, Oracle barrier counter).
///
/// Flags map onto the `RIPS_VERIFY_*` environment knobs that
/// `Checker::from_env` reads, so CI and local runs can trade coverage
/// for wall clock without editing any test.
fn cmd_verify() {
    let mut cargo =
        std::process::Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string()));
    cargo.args(["test", "-q"]);
    for pkg in ["rips-verify", "rips-live", "rips-runtime"] {
        cargo.args(["-p", pkg]);
    }
    cargo.arg("--lib");
    if let Some(filter) = arg("--filter") {
        cargo.arg(filter);
    }

    // Merge the cfg into whatever RUSTFLAGS the caller already has so
    // `rips verify` composes with sanitizer wrappers and custom flags.
    let mut rustflags = std::env::var("RUSTFLAGS").unwrap_or_default();
    if !rustflags.contains("--cfg rips_verify") {
        if !rustflags.is_empty() {
            rustflags.push(' ');
        }
        rustflags.push_str("--cfg rips_verify");
    }
    cargo.env("RUSTFLAGS", &rustflags);
    // Instrumented builds land in their own target dir so they don't
    // evict the normal build's cache (the cfg changes every crate).
    if std::env::var_os("CARGO_TARGET_DIR").is_none() {
        cargo.env("CARGO_TARGET_DIR", "target/verify");
    }

    for (flag, knob) in [
        ("--bound", "RIPS_VERIFY_BOUND"),
        ("--max-iters", "RIPS_VERIFY_MAX_ITERS"),
        ("--mode", "RIPS_VERIFY_MODE"),
        ("--seed", "RIPS_VERIFY_SEED"),
        ("--random-iters", "RIPS_VERIFY_RANDOM_ITERS"),
        ("--out", "RIPS_VERIFY_OUT"),
    ] {
        if let Some(v) = arg(flag) {
            cargo.env(knob, v);
        }
    }
    if let Some(dir) = arg("--out").or_else(|| std::env::var("RIPS_VERIFY_OUT").ok()) {
        // Pre-create the replay directory so CI's artifact-upload step
        // always has a path to point at, even on a clean run.
        let _ = std::fs::create_dir_all(&dir);
    }

    eprintln!("rips verify: {cargo:?}");
    let status = cargo.status().unwrap_or_else(|e| {
        eprintln!("cannot spawn cargo: {e}");
        std::process::exit(2);
    });
    if !status.success() {
        eprintln!(
            "rips verify: model checking FAILED — replay schedules (if any) are under \
             the RIPS_VERIFY_OUT directory; re-run a single schedule with the printed \
             RIPS_VERIFY_* knobs to reproduce deterministically"
        );
        std::process::exit(status.code().unwrap_or(1));
    }
    eprintln!("rips verify: all model suites clean");
}

fn cmd_plan() {
    let rows: usize = arg("--rows").and_then(|v| v.parse().ok()).unwrap_or(4);
    let cols: usize = arg("--cols").and_then(|v| v.parse().ok()).unwrap_or(4);
    let mesh = Mesh2D::new(rows, cols);
    let loads: Vec<i64> = match arg("--loads") {
        Some(s) => s
            .split(',')
            .map(|x| x.trim().parse().expect("loads must be integers"))
            .collect(),
        None => {
            eprintln!("--loads w0,w1,... required ({} values)", mesh.len());
            std::process::exit(2);
        }
    };
    let (plan, trace) = mwa(&mesh, &loads);
    println!(
        "mesh {rows}x{cols}, w_avg = {}, remainder = {}",
        trace.wavg, trace.remainder
    );
    println!("final loads: {:?}", plan.apply(&loads));
    println!(
        "moved {} tasks (minimum {}), edge cost {}",
        plan.nonlocal_tasks(&loads),
        min_nonlocal_tasks(&loads),
        plan.edge_cost()
    );
    for mv in &plan.moves {
        println!("  {} -> {}: {}", mv.from, mv.to, mv.count);
    }
}

/// Resolves a case-insensitive scheduler name against the canonical
/// roster (serve runs use the stock registry; `--policy` tuning is a
/// batch-run concern).
fn resolve_roster_name(scheduler: &str) -> String {
    for n in rips_repro::bench::registry().names() {
        if n.eq_ignore_ascii_case(scheduler) {
            return n.to_string();
        }
    }
    eprintln!(
        "unknown scheduler '{scheduler}'; roster: {:?}",
        rips_repro::bench::registry().names()
    );
    std::process::exit(2);
}

/// Builds the serve backend named by `--backend` (sim: `--nodes`
/// simulated processors; live: `--threads` OS threads running real
/// grains).
fn serve_backend(kind: &str) -> Box<dyn rips_repro::serve::JobBackend> {
    use rips_repro::serve::{DesimBackend, LiveBackend};
    match kind {
        "sim" => {
            let nodes: usize = arg("--nodes").and_then(|v| v.parse().ok()).unwrap_or(8);
            Box::new(DesimBackend::new(nodes))
        }
        "live" => {
            let threads: usize = arg("--threads").and_then(|v| v.parse().ok()).unwrap_or(2);
            Box::new(LiveBackend::new(threads))
        }
        other => {
            eprintln!("unknown backend '{other}' (sim|live)");
            std::process::exit(2);
        }
    }
}

fn cmd_serve() {
    use rips_repro::audit::ServeAuditor;
    use rips_repro::serve::{
        run_serve, AdmissionConfig, ArrivalProcess, Catalog, ServeConfig, TrafficConfig,
    };

    let scheduler = resolve_roster_name(&arg("--scheduler").unwrap_or_else(|| "rips".into()));
    let backend_kind = arg("--backend").unwrap_or_else(|| "sim".into());
    let tenants: u32 = arg("--tenants").and_then(|v| v.parse().ok()).unwrap_or(4);
    let jobs: u32 = arg("--jobs").and_then(|v| v.parse().ok()).unwrap_or(8);
    let seed: u64 = arg("--seed").and_then(|v| v.parse().ok()).unwrap_or(1);
    // `--rate` is the aggregate offered rate (jobs/s across all
    // tenants); `--mean-interarrival-us` sets the per-tenant gap
    // directly and wins when both are given.
    let mean_interarrival_us: u64 = arg("--mean-interarrival-us")
        .and_then(|v| v.parse().ok())
        .or_else(|| {
            arg("--rate")
                .and_then(|v| v.parse::<f64>().ok())
                .filter(|r| *r > 0.0)
                .map(|r| (tenants as f64 * 1e6 / r) as u64)
        })
        .unwrap_or(50_000)
        .max(1);
    let process = match arg("--process") {
        None => ArrivalProcess::Poisson,
        Some(p) => ArrivalProcess::parse(&p).unwrap_or_else(|| {
            eprintln!("unknown process '{p}' (poisson|bursty[:N])");
            std::process::exit(2);
        }),
    };
    let cfg = ServeConfig {
        scheduler,
        traffic: TrafficConfig {
            tenants,
            jobs_per_tenant: jobs,
            mean_interarrival_us,
            process,
            seed,
        },
        admission: AdmissionConfig {
            max_pending: arg("--max-pending")
                .and_then(|v| v.parse().ok())
                .unwrap_or(64),
            tenant_quota: arg("--quota").and_then(|v| v.parse().ok()).unwrap_or(16),
        },
        quantum: arg("--quantum").and_then(|v| v.parse().ok()).unwrap_or(64),
        service_seed: seed,
    };
    let catalog = if arg_flag("--tiny") {
        Catalog::tiny()
    } else {
        Catalog::standard()
    };
    let mut backend = serve_backend(&backend_kind);
    let nodes = backend.nodes();
    eprintln!(
        "serving {} tenants x {} jobs ({}, mean gap {} µs) on {} ...",
        tenants,
        jobs,
        process.label(),
        mean_interarrival_us,
        backend.name(),
    );

    let metrics = MetricsRegistry::new(1);
    let (audit, rep) = with_metrics(&metrics, || {
        if arg_flag("--audit") {
            let (auditor, rep) = rips_repro::trace::with_sink(ServeAuditor::new(nodes), || {
                run_serve(&cfg, &catalog, backend.as_mut())
            });
            (Some(auditor.finish()), rep)
        } else {
            (None, run_serve(&cfg, &catalog, backend.as_mut()))
        }
    });

    if arg_flag("--json") {
        println!("{}", rep.to_json());
    } else {
        print!("{}", rep.render_human());
    }
    if let Some(path) = arg("--out") {
        std::fs::write(&path, rep.to_json()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("wrote {path}");
    }
    if let Some(path) = arg("--metrics-out") {
        write_metrics(&metrics, &path);
    }
    if let Some(report) = audit {
        print!("{}", report.render_human());
        if !report.is_ok() {
            eprintln!("SERVE AUDIT FAILED");
            std::process::exit(1);
        }
    }
}

fn cmd_bench_serve() {
    use rips_repro::serve::sweep::{sweep_one, SweepConfig};
    use rips_repro::serve::{Catalog, DesimBackend, LiveBackend};

    let schedulers: Vec<String> = arg("--schedulers")
        .unwrap_or_else(|| "rips,rips-h,rid".into())
        .split(',')
        .map(resolve_roster_name)
        .collect();
    let nodes: usize = arg("--nodes").and_then(|v| v.parse().ok()).unwrap_or(8);
    let threads: usize = arg("--threads").and_then(|v| v.parse().ok()).unwrap_or(2);
    let cfg = SweepConfig {
        load_factors: arg("--loads")
            .map(|s| s.split(',').filter_map(|x| x.trim().parse().ok()).collect())
            .unwrap_or_else(|| vec![0.3, 1.0, 2.5]),
        tenants: arg("--tenants").and_then(|v| v.parse().ok()).unwrap_or(4),
        jobs_per_tenant: arg("--jobs").and_then(|v| v.parse().ok()).unwrap_or(8),
        seed: arg("--seed").and_then(|v| v.parse().ok()).unwrap_or(1),
        seed_variants: 1,
        ..SweepConfig::default()
    };
    let catalog = Catalog::tiny();
    let mut all_ok = true;
    for sched in &schedulers {
        for backend_kind in ["sim", "live"] {
            let series = match backend_kind {
                "sim" => sweep_one(&cfg, sched, &catalog, &mut DesimBackend::new(nodes)),
                _ => sweep_one(&cfg, sched, &catalog, &mut LiveBackend::new(threads)),
            };
            let knee = series
                .knee_load
                .map(|k| format!("{k:.2}"))
                .unwrap_or_else(|| "none".into());
            println!(
                "── {} · {} · S̄ {} µs · audited {} · spread {} · knee {} ──",
                series.scheduler,
                series.backend,
                series.mean_service_us,
                series.audited_ok,
                series.max_spread,
                knee,
            );
            for p in &series.points {
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
                all_ok &= p.serve_audit_ok;
            }
            all_ok &= series.audited_ok;
        }
    }
    if !all_ok {
        eprintln!("BENCH-SERVE AUDIT FAILED");
        std::process::exit(1);
    }
    println!("all series audited clean (per-job conservation + Theorem 1 spread)");
}

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("run") => cmd_run(),
        Some("live") => cmd_live(),
        Some("stats") => cmd_stats(),
        Some("trace") => cmd_trace(),
        Some("report") => cmd_report(),
        Some("audit") => cmd_audit(),
        Some("serve") => cmd_serve(),
        Some("bench-serve") => cmd_bench_serve(),
        Some("plan") => cmd_plan(),
        Some("lint") => cmd_lint(),
        Some("verify") => cmd_verify(),
        Some("apps") => {
            for a in APPS {
                println!("{a}");
            }
        }
        Some("schedulers") => {
            for s in rips_repro::bench::registry().names() {
                println!("{}", s.to_lowercase());
            }
        }
        _ => {
            eprintln!(
                "usage: rips <run|live|stats|trace|report|audit|serve|bench-serve|plan|lint|\
                 verify|apps|schedulers> [flags]"
            );
            eprintln!(
                "  run    --app queens13 --scheduler rips|random|gradient|rid|sid --nodes 32 \
                 [--metrics-out m.txt]"
            );
            eprintln!(
                "  live   [<scheduler>] <app> [--threads N] [--mode compute|timed] \
                 [--policy P] [--audit] [--trace-out f] [--metrics-out m.txt]"
            );
            eprintln!(
                "  stats  [<scheduler>] <app> [--backend sim|live] [--nodes N] [--threads N] \
                 [--out m.txt]"
            );
            eprintln!(
                "  trace  <scheduler> <app> [--nodes N] [--seed S] [--out trace.json] [--check]"
            );
            eprintln!("  report <scheduler> <app> [--nodes N] [--seed S] [--jsonl]");
            eprintln!("  audit  <scheduler> <app> | --all  [--nodes N] [--seed S]");
            eprintln!(
                "  serve  [--backend sim|live] [--scheduler rips] [--tenants N] [--jobs N] \
                 [--rate jobs/s] [--process poisson|bursty[:N]] [--audit] [--json|--out f] \
                 [--metrics-out m.txt]"
            );
            eprintln!(
                "  bench-serve [--schedulers rips,rips-h,rid] [--loads 0.3,1.0,2.5] \
                 [--nodes N] [--threads N]"
            );
            eprintln!("  plan   --rows 8 --cols 4 --loads 25,0,3,...");
            eprintln!("  lint   [--root .] [--format human|json] [--out report.json]");
            eprintln!(
                "  verify [--bound N] [--mode dfs|random] [--seed S] [--max-iters N] \
                 [--random-iters N] [--out replay-dir] [--filter test-name]"
            );
            std::process::exit(2);
        }
    }
}
