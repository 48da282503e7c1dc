//! `rips` — the workspace's one executable.
//!
//! Every subcommand is a row of [`commands`]: its path (`run`, `repro
//! fig4`, `bench scale`), its positionals, its flag table and the
//! function that runs it. `main` reads the command line once, finds
//! the row, and hands the tokens to [`Args::parse`], which rejects
//! unknown flags, unparsable values and missing positionals with the
//! usage text generated from the same row (exit status 2). `rips` with
//! no arguments lists the rows; `rips repro --list` lists the paper
//! artifacts.
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
//! job latency, sustained jobs/s, and shed rate.
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
//! instead of hanging silently. `--metrics-out` on `run`, `live` and
//! `serve` exports the registry as OpenMetrics text.

use std::sync::Arc;

use rips_repro::apps::GrainTable;
use rips_repro::audit::Auditor;
use rips_repro::bench::args::{synopsis, Args, Flag, Spec};
use rips_repro::bench::live::{live_opts, live_run_with};
use rips_repro::bench::repro::ARTIFACTS;
use rips_repro::bench::scale;
use rips_repro::bench::{auditor_for, paper_spec, registry_with, roster_name, App, RegistryTuning};
use rips_repro::core::{GlobalPolicy, LocalPolicy, RipsConfig};
use rips_repro::live::{GrainMode, WallClock};
use rips_repro::live::{Watchdog, WatchdogOpts};
use rips_repro::runtime::{RunSpec, SchedulerRegistry};
use rips_repro::sched::{min_nonlocal_tasks, mwa};
use rips_repro::taskgraph::Workload;
use rips_repro::topology::{Mesh2D, Topology};
use rips_repro::trace::{
    metrics_rt, validate, with_metrics, with_metrics_clocked, with_sink, Clock, MetricsRegistry,
    PhaseReport, SharedFlight, Tee, TraceBuffer, TraceSink,
};

/// One subcommand: the path before its own name (`""`, `"repro "`),
/// its usage text, and what runs it.
type Cmd = (&'static str, Spec, Box<dyn Fn(&Args)>);

const NODES: Flag = "--nodes N=32  simulated processors";
const THREADS: Flag = "--threads N=4  OS threads, one per node";
const SEED: Flag = "--seed N=1  seed of the run";
const POLICY: Flag = "--policy S=any-lazy  RIPS transfer policy: {any,all}-{lazy,eager}";
const METRICS_OUT: Flag = "--metrics-out S  write OpenMetrics text here (- = stdout)";

/// The whole command table: the fixed rows (each spec sits above its
/// handler), `bench scale`, then one row per paper artifact from the
/// library table.
fn commands() -> Vec<Cmd> {
    type Handler = fn(&Args);
    let fixed: [(Spec, Handler); 12] = [
        (RUN, cmd_run),
        (LIVE, cmd_live),
        (TRACE, cmd_trace),
        (REPORT, cmd_report),
        (AUDIT, cmd_audit),
        (SERVE, cmd_serve),
        (PLAN, cmd_plan),
        (LINT, cmd_lint),
        (VERIFY, cmd_verify),
        (APPS, |_| App::names().iter().for_each(|a| println!("{a}"))),
        (SCHEDULERS, |_| {
            let roster = rips_repro::bench::registry();
            let names = roster.names();
            names.iter().for_each(|s| println!("{}", s.to_lowercase()))
        }),
        (REPRO, cmd_repro),
    ];
    let mut table: Vec<Cmd> = Vec::new();
    table.extend(fixed.map(|(spec, run)| ("", spec, Box::new(run) as _)));
    table.push(("bench ", scale::SPEC, Box::new(cmd_bench_scale)));
    table.extend(ARTIFACTS.iter().map(|&(spec, run)| {
        let print = move |args: &Args| print!("{}", run(args));
        ("repro ", spec, Box::new(print) as _)
    }));
    table
}

const APPS: Spec = &["apps  list the workloads"];
const SCHEDULERS: Spec = &["schedulers  list the roster"];
const REPRO: Spec = &[
    "repro [<artifact>]  regenerate one paper artifact",
    "--list  print the artifact table",
];

/// `rips repro` without a known name: `--list` prints the artifacts'
/// synopses, anything else is a usage error.
fn cmd_repro(args: &Args) {
    if !args.switch("--list") {
        match args.pos().first() {
            Some(name) => args.fail(&format!("unknown name '{name}' (--list prints them)")),
            None => args.fail("missing name (--list prints them)"),
        }
    }
    for (name, _, about) in ARTIFACTS.iter().map(|a| synopsis(a.0)) {
        println!("{name:<20} {about}");
    }
}

/// `rips bench scale`: writes the sweep's document to `--out` (in
/// `--one` mode the cell went to stdout instead).
fn cmd_bench_scale(args: &Args) {
    if let Some(doc) = scale::run(args) {
        let path = args.str("--out");
        write_file(path, &doc);
        println!("wrote {path}");
    }
}

/// Flight-recorder depth: recent trace events retained per node for
/// post-mortem dumps (watchdog trip, audit failure, checksum
/// mismatch). 256 events ≈ the last few dispatch rounds per node.
const FLIGHT_EVENTS_PER_NODE: usize = 256;

/// Looks `name` up in the workload catalog.
fn app_named(args: &Args, name: &str) -> App {
    App::from_name(name).unwrap_or_else(|| {
        args.fail(&format!(
            "unknown app '{name}'; available: {}",
            App::names().join(" ")
        ))
    })
}

/// Wall-clock seconds `f` took, and what it returned.
fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let clock = WallClock::new();
    let r = f();
    (clock.now_us() as f64 / 1e6, r)
}

/// Says where one `run`/`live` invocation's wall time went:
/// building the workload (which runs the application to size its
/// tasks), reading the sequential ground truth off the grain table,
/// and the scheduler run itself. On stderr, after the result, so
/// stdout stays what the tests and the byte-identity pins compare.
fn report_wall(build_s: f64, truth_s: f64, run_s: f64) {
    eprintln!("wall: build {build_s:.3} s · ground truth {truth_s:.3} s · run {run_s:.3} s");
}

/// Builds the named workload and its grain table.
fn build_app_live(args: &Args, name: &str) -> (Arc<Workload>, Arc<GrainTable>) {
    let app = app_named(args, name);
    eprintln!("building workload '{name}' ...");
    let (workload, table) = app.build_live();
    (Arc::new(workload), Arc::new(table))
}

fn build_app(args: &Args, name: &str) -> Arc<Workload> {
    let app = app_named(args, name);
    eprintln!("building workload '{name}' ...");
    Arc::new(app.build())
}

/// The `[<scheduler>] <app>` positionals; the scheduler defaults to
/// RIPS.
fn sched_app(args: &Args) -> (&str, &str) {
    match args.pos() {
        [scheduler, app] => (scheduler, app),
        [app] => ("rips", app),
        _ => unreachable!("Args::parse bounds the positional count"),
    }
}

/// Parses `--policy` into the roster tuning it selects (the RIPS
/// local/global policy pair; every other knob stays paper-default).
fn policy_tuning(args: &Args) -> RegistryTuning {
    let (local, global) = match args.str("--policy") {
        "any-lazy" => (LocalPolicy::Lazy, GlobalPolicy::Any),
        "any-eager" => (LocalPolicy::Eager, GlobalPolicy::Any),
        "all-lazy" => (LocalPolicy::Lazy, GlobalPolicy::All),
        "all-eager" => (LocalPolicy::Eager, GlobalPolicy::All),
        other => args.fail(&format!(
            "unknown policy '{other}' (any-lazy|any-eager|all-lazy|all-eager)"
        )),
    };
    RegistryTuning {
        rips: RipsConfig {
            local,
            global,
            ..RipsConfig::default()
        },
    }
}

/// Resolves a case-insensitive scheduler name against the roster.
fn scheduler_named(args: &Args, scheduler: &str) -> String {
    roster_name(scheduler).unwrap_or_else(|| {
        let roster = rips_repro::bench::registry().names().join("|");
        args.fail(&format!(
            "unknown scheduler '{scheduler}'; available: {}",
            roster.to_lowercase()
        ))
    })
}

/// Builds the registry for `--policy` and resolves the scheduler name
/// against its roster.
fn resolve_scheduler(args: &Args, scheduler: &str) -> (SchedulerRegistry, String) {
    let name = scheduler_named(args, scheduler);
    (registry_with(policy_tuning(args)), name)
}

fn write_file(path: &str, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    });
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
        write_file(path, &text);
        eprintln!("wrote {path}: {} bytes of OpenMetrics text", text.len());
    }
}

const RUN: Spec = &[
    "run  simulate one scheduler on one workload",
    "--app S=queens13         workload (see `rips apps`)",
    "--scheduler S=rips       see `rips schedulers`",
    NODES,
    SEED,
    POLICY,
    METRICS_OUT,
];

fn cmd_run(args: &Args) {
    let app = args.str("--app");
    let scheduler = args.str("--scheduler");
    let nodes: usize = args.num_in("--nodes", 1..);
    let seed = args.num("--seed");

    let (reg, name) = resolve_scheduler(args, scheduler);
    let (build_s, (workload, table)) = timed(|| build_app_live(args, app));
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

    let spec = paper_spec(&workload, nodes, 0.4, seed);
    // One registry shard per simulated node; the simulator's virtual
    // clock means counters fill but the ns histograms stay empty.
    let metrics = MetricsRegistry::new(nodes);
    let (run_s, run) = timed(|| with_metrics(&metrics, || reg.run(&name, &spec)));
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
    let (truth_s, truth) = timed(|| table.static_totals());
    println!("  solutions       : {}", truth.solutions);
    println!("  grain checksum  : {:#018x}", truth.checksum);
    if let Some(path) = args.get("--metrics-out") {
        write_metrics(&metrics, path);
    }
    report_wall(build_s, truth_s, run_s);
}

const LIVE: Spec = &[
    "live [<scheduler>] <app>  run on real threads with real grains, cross-checked",
    THREADS,
    SEED,
    POLICY,
    "--mode S=compute         grain mode: compute|timed",
    "--timed-scale F=1.0      timed mode: modelled-duration multiplier, 0 to 1000",
    "--audit                  stream the live trace through the invariant auditor",
    "--trace-out S            write a Chrome trace-event JSON file",
    METRICS_OUT,
];

fn cmd_live(args: &Args) {
    let (scheduler, app) = sched_app(args);
    let threads: usize = args.num_in("--threads", 1..);
    let seed: u64 = args.num("--seed");
    let policy = args.str("--policy");
    let mode = match args.str("--mode") {
        "compute" => GrainMode::Compute,
        "timed" => GrainMode::Timed,
        other => args.fail(&format!("unknown --mode '{other}' (compute|timed)")),
    };
    let timed_scale: f64 = args.num_in("--timed-scale", 0.0..=1000.0);
    let audit = args.switch("--audit");
    let trace_out = args.get("--trace-out");

    let name = scheduler_named(args, scheduler);
    let tuning = policy_tuning(args);
    let (build_s, (workload, table)) = timed(|| build_app_live(args, app));
    let (truth_s, truth) = timed(|| table.static_totals());

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

    // One install feeds every consumer: the flight recorder always,
    // the invariant auditor and the buffer destined for the Perfetto
    // export only when asked for. The one wall clock paces the run,
    // stamps its events and times its dispatch rounds.
    let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
    let sink = Tee(
        flight.clone(),
        Tee(
            audit.then(|| Auditor::new(threads)),
            trace_out.map(|_| TraceBuffer::new()),
        ),
    );
    let (Tee(_, Tee(auditor, buf)), out) =
        with_metrics_clocked(&metrics, Arc::clone(&clock), || {
            with_sink(sink, || {
                let mut opts = live_opts(&table, mode, timed_scale);
                opts.clock = Some(clock);
                live_run_with(tuning, &name, &workload, threads, 0.4, seed, opts)
            })
        });
    let trips = watchdog.stop();
    let mut audit_ok = true;
    if let Some(auditor) = auditor {
        let report = auditor.finish();
        print!("{}", report.render_human());
        audit_ok = report.is_ok();
    }
    if let (Some(path), Some(buf)) = (trace_out, buf) {
        let label = format!("{name} · {app} · {threads} threads (live) · seed {seed}");
        let json = buf.chrome_json(&label, out.wall_us);
        write_file(path, &json);
        eprintln!(
            "wrote {path}: {} events ({} bytes)",
            buf.records.len(),
            json.len()
        );
    }

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
    if let Some(path) = args.get("--metrics-out") {
        write_metrics(&metrics, path);
    }
    report_wall(build_s, truth_s, out.wall_us as f64 / 1e6);
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

/// Shared front half of `trace` and `report`: run the `<scheduler>
/// <app>` cell under `sink`, and hand back the sink plus the run's end
/// time.
fn traced_run<S: TraceSink + Send + 'static>(args: &Args, sink: S) -> (String, S, u64) {
    let [scheduler, app] = args.pos() else {
        unreachable!("Args::parse bounds the positional count")
    };
    let nodes: usize = args.num_in("--nodes", 1..);
    let seed: u64 = args.num("--seed");

    let (reg, name) = resolve_scheduler(args, scheduler);
    let workload = build_app(args, app);
    let spec = paper_spec(&workload, nodes, 0.4, seed);

    eprintln!("tracing {name} on {nodes} nodes (seed {seed}) ...");
    let (sink, run) = with_sink(sink, || reg.run(&name, &spec));
    run.outcome
        .verify_complete(&workload)
        .expect("scheduler lost tasks");
    let label = format!("{name} · {app} · {nodes} nodes · seed {seed}");
    (label, sink, run.outcome.stats.end_time)
}

const TRACE: Spec = &[
    "trace <scheduler> <app>  simulate with the trace sink attached; write a Chrome trace file",
    NODES,
    SEED,
    POLICY,
    "--out S=trace.json       output file",
    "--check                  validate span nesting before writing",
];

fn cmd_trace(args: &Args) {
    let out_path = args.str("--out");
    let (label, buf, end_time) = traced_run(args, TraceBuffer::new());

    if args.switch("--check") {
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
    write_file(out_path, &json);
    println!(
        "wrote {out_path}: {} events, {} bytes — open at https://ui.perfetto.dev",
        buf.records.len(),
        json.len()
    );
}

const REPORT: Spec = &[
    "report <scheduler> <app>  simulate with the trace sink attached; print the phase anatomy",
    NODES,
    SEED,
    POLICY,
    "--jsonl                  JSONL instead of the table",
];

fn cmd_report(args: &Args) {
    let (label, mut report, end_time) = traced_run(args, PhaseReport::default());
    report.close_at(end_time);
    if args.switch("--jsonl") {
        print!("{}", report.to_jsonl());
    } else {
        println!("{label}\n");
        print!("{}", report.render());
    }
}

/// Runs one scheduler under the invariant [`Auditor`] and prints its
/// report; returns whether every audited invariant held.
fn audit_one(reg: &SchedulerRegistry, name: &str, spec: &RunSpec) -> bool {
    let nodes = spec.nodes;
    let auditor = auditor_for(name, nodes);
    let (auditor, run) = rips_repro::trace::with_sink(auditor, || reg.run(name, spec));
    let report = auditor.finish();
    println!("── {name} · {nodes} nodes · seed {} ──", spec.seed);
    print!("{}", report.render_human());
    println!(
        "run              T = {:.3} s, {} non-local",
        run.outcome.exec_time_s(),
        run.outcome.nonlocal
    );
    report.is_ok()
}

const AUDIT: Spec = &[
    "audit [<scheduler> <app>]  check the paper's invariants on one scheduler, or --all",
    "--all                    audit every roster scheduler on --app",
    "--app S=queens9          workload for --all",
    NODES,
    SEED,
    POLICY,
];

fn cmd_audit(args: &Args) {
    let reg = registry_with(policy_tuning(args));
    let (schedulers, app) = match (args.switch("--all"), args.pos()) {
        (true, []) => {
            let roster = reg.names().iter().map(|n| n.to_string()).collect();
            (roster, args.str("--app"))
        }
        (false, [scheduler, app]) => (vec![scheduler_named(args, scheduler)], app.as_str()),
        _ => args.fail("give either <scheduler> <app> or --all"),
    };
    let nodes = args.num_in("--nodes", 1..);
    let workload = build_app(args, app);
    let spec = paper_spec(&workload, nodes, 0.4, args.num("--seed"));
    let mut all_ok = true;
    for name in &schedulers {
        all_ok &= audit_one(&reg, name, &spec);
    }
    if !all_ok {
        std::process::exit(1);
    }
}

const LINT: Spec = &[
    "lint  rips-lint static analysis over the workspace source",
    "--root S=.               workspace root",
    "--format S=human         human|json",
    "--out S                  write the report here",
];

fn cmd_lint(args: &Args) {
    let root = args.str("--root");
    let report = match rips_repro::audit::lint_workspace(std::path::Path::new(root)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot walk {root}: {e}");
            std::process::exit(2);
        }
    };
    let rendered = match args.str("--format") {
        "json" => report.render_json(),
        "human" => report.render_human(),
        other => args.fail(&format!("unknown --format '{other}' (human|json)")),
    };
    match args.get("--out") {
        Some(path) => {
            write_file(path, &rendered);
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

/// `rips verify` flags that map 1:1 onto the `RIPS_VERIFY_*`
/// environment knobs `Checker::from_env` reads, so CI and local runs
/// can trade coverage for wall clock without editing any test. No
/// defaults: an absent flag leaves the environment alone.
const VERIFY_KNOBS: [(Flag, &str); 6] = [
    ("--bound N         preemption bound", "RIPS_VERIFY_BOUND"),
    (
        "--max-iters N     cap on explored schedules",
        "RIPS_VERIFY_MAX_ITERS",
    ),
    ("--mode S          dfs|random", "RIPS_VERIFY_MODE"),
    ("--seed N          random-mode seed", "RIPS_VERIFY_SEED"),
    (
        "--random-iters N  random-mode schedules",
        "RIPS_VERIFY_RANDOM_ITERS",
    ),
    (
        "--out S           directory for failing replay schedules",
        "RIPS_VERIFY_OUT",
    ),
];

const VERIFY: Spec = &[
    "verify  bounded model checking of the lock-free live paths",
    VERIFY_KNOBS[0].0,
    VERIFY_KNOBS[1].0,
    VERIFY_KNOBS[2].0,
    VERIFY_KNOBS[3].0,
    VERIFY_KNOBS[4].0,
    VERIFY_KNOBS[5].0,
    "--filter S  run only the tests matching this",
];

/// `rips verify` — recompile the workspace with `--cfg rips_verify`
/// (swapping the `rips_verify::sync` seam from std re-exports to the
/// instrumented cells) and run the bounded model checker's test suites:
/// the checker's own litmus selftests plus the `verify_model` modules
/// embedded in `rips-live` (SPSC ring, transport wakeup/halt, watchdog)
/// and `rips-runtime` (Oracle barrier counter).
fn cmd_verify(args: &Args) {
    let mut cargo =
        std::process::Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string()));
    cargo.args(["test", "-q"]);
    for pkg in ["rips-verify", "rips-live", "rips-runtime"] {
        cargo.args(["-p", pkg]);
    }
    cargo.arg("--lib");
    if let Some(filter) = args.get("--filter") {
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

    for (flag, knob) in VERIFY_KNOBS {
        let name = flag
            .split(' ')
            .next()
            .expect("a flag row starts with its name");
        if let Some(v) = args.get(name) {
            cargo.env(knob, v);
        }
    }
    let out_dir = args.get("--out").map(str::to_string);
    if let Some(dir) = out_dir.or_else(|| std::env::var("RIPS_VERIFY_OUT").ok()) {
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

const PLAN: Spec = &[
    "plan  one-shot MWA on a load vector",
    "--rows N=4               mesh rows",
    "--cols N=4               mesh columns",
    "--loads N,..             rows*cols task counts (required)",
];

fn cmd_plan(args: &Args) {
    let rows: usize = args.num_in("--rows", 1..);
    let cols: usize = args.num_in("--cols", 1..);
    let mesh = Mesh2D::new(rows, cols);
    let loads: Vec<i64> = args
        .list("--loads")
        .filter(|l: &Vec<i64>| l.len() == mesh.len())
        .unwrap_or_else(|| args.fail(&format!("--loads needs {} values", mesh.len())));
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

const SERVE: Spec = &[
    "serve  open-loop multi-tenant service over one backend",
    "--backend S=sim          sim|live",
    "--scheduler S=rips       roster scheduler",
    "--nodes N=8              simulated processors (sim)",
    "--threads N=2            OS threads (live)",
    "--tenants N=4            simulated tenants",
    "--jobs N=8               jobs per tenant",
    "--mean-interarrival-us N=50000 per-tenant mean gap (µs)",
    "--process S=poisson      arrivals: poisson|bursty[:N]",
    "--max-pending N=64       admission bound, all tenants",
    "--quota N=16             admission bound per tenant",
    "--quantum N=64           DRR quantum (tasks)",
    SEED,
    "--tiny                   the CI-sized job catalog",
    "--audit                  run under the serve auditor",
    "--json                   print the report as JSON",
    "--out S                  also write the JSON report here",
    METRICS_OUT,
];

fn cmd_serve(args: &Args) {
    use rips_repro::audit::ServeAuditor;
    use rips_repro::serve::{
        run_serve, AdmissionConfig, ArrivalProcess, Catalog, DesimBackend, JobBackend, LiveBackend,
        ServeConfig, TrafficConfig,
    };

    // Serve runs use the stock registry; `--policy` tuning is a
    // batch-run concern.
    let scheduler = scheduler_named(args, args.str("--scheduler"));
    let tenants: u32 = args.num("--tenants");
    let jobs: u32 = args.num("--jobs");
    let seed: u64 = args.num("--seed");
    let mean_interarrival_us: u64 = args.num_in("--mean-interarrival-us", 1..);
    let process = ArrivalProcess::parse(args.str("--process"))
        .unwrap_or_else(|| args.fail("--process must be poisson or bursty[:N]"));
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
            max_pending: args.num("--max-pending"),
            tenant_quota: args.num("--quota"),
        },
        quantum: args.num("--quantum"),
        service_seed: seed,
    };
    let catalog = if args.switch("--tiny") {
        Catalog::tiny()
    } else {
        Catalog::standard()
    };
    let mut backend: Box<dyn JobBackend> = match args.str("--backend") {
        "sim" => Box::new(DesimBackend::new(args.num_in("--nodes", 1..))),
        "live" => Box::new(LiveBackend::new(args.num_in("--threads", 1..))),
        other => args.fail(&format!("unknown --backend '{other}' (sim|live)")),
    };
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
        if args.switch("--audit") {
            let (auditor, rep) = rips_repro::trace::with_sink(ServeAuditor::new(nodes), || {
                run_serve(&cfg, &catalog, backend.as_mut())
            });
            (Some(auditor.finish()), rep)
        } else {
            (None, run_serve(&cfg, &catalog, backend.as_mut()))
        }
    });

    if args.switch("--json") {
        println!("{}", rep.to_json());
    } else {
        print!("{}", rep.render_human());
    }
    if let Some(path) = args.get("--out") {
        write_file(path, &rep.to_json());
        eprintln!("wrote {path}");
    }
    if let Some(path) = args.get("--metrics-out") {
        write_metrics(&metrics, path);
    }
    if let Some(report) = audit {
        print!("{}", report.render_human());
        if !report.is_ok() {
            eprintln!("SERVE AUDIT FAILED");
            std::process::exit(1);
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let table = commands();
    // The longest path that prefixes the command line wins, so `repro
    // fig4` selects the artifact's row and `repro --list` the group's.
    let matched = [2, 1].into_iter().find_map(|n| {
        let path = argv.get(..n)?.join(" ");
        let is_path = |c: &&Cmd| format!("{}{}", c.0, synopsis(c.1).0) == path;
        Some((table.iter().find(is_path)?, n))
    });
    let Some(((group, spec, run), n)) = matched else {
        eprintln!("usage: rips <command> [args]   (a bad flag prints the command's usage)");
        // The artifacts are `repro --list`'s to print.
        for (group, spec, _) in table.iter().filter(|c| c.0 != "repro ") {
            let (name, _, about) = synopsis(spec);
            eprintln!("  {:<11} {about}", format!("{group}{name}"));
        }
        std::process::exit(2);
    };
    run(&Args::parse(group, spec, &argv[n..]));
}
