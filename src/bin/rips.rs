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
//! `run` simulates one scheduler (or `--all` of the roster) on one
//! workload. Its observers ride in one trace-sink install: `--audit`
//! checks the paper's invariants (Theorems 1–2, conservation, barrier
//! pairing) with the [`Auditor`] and fails the run on a violation,
//! `--trace-out` writes a Chrome trace-event JSON file (open it at
//! <https://ui.perfetto.dev>), and `--report` prints the phase
//! anatomy (p50/p95/max per system-phase stage) as a table or JSONL.
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
//! `--audit` and `--trace-out` attach the same observers `run` does
//! (DESIGN §8).
//!
//! Live runs carry always-on telemetry (DESIGN §10): a per-thread
//! metrics registry, a flight recorder holding each node's recent
//! trace events, and a stall watchdog that dumps the flight recorder
//! instead of hanging silently. `--metrics-out` on `run`, `live` and
//! `serve` exports the registry as OpenMetrics text.

use std::sync::Arc;

use rips_repro::apps::GrainTable;
use rips_repro::audit::{AuditReport, Auditor};
use rips_repro::bench::args::{synopsis, Args, Flag, Spec};
use rips_repro::bench::live::{live_opts, live_run_with};
use rips_repro::bench::repro::ARTIFACTS;
use rips_repro::bench::scale;
use rips_repro::bench::{auditor_for, paper_spec, registry_with, roster_name, App, RegistryTuning};
use rips_repro::core::{GlobalPolicy, LocalPolicy, RipsConfig};
use rips_repro::live::{GrainMode, WallClock};
use rips_repro::live::{Watchdog, WatchdogOpts};
use rips_repro::sched::{min_nonlocal_tasks, mwa};
use rips_repro::taskgraph::Workload;
use rips_repro::topology::{Mesh2D, Topology};
use rips_repro::trace::{
    metrics_rt, validate, with_metrics, with_metrics_clocked, with_sink, Clock, MetricsRegistry,
    PhaseReport, SharedFlight, Tee, TraceBuffer,
};

/// One subcommand: the path before its own name (`""`, `"repro "`),
/// its usage text, and what runs it.
type Cmd = (&'static str, Spec, Box<dyn Fn(&Args)>);

const NODES: Flag = "--nodes N=32  simulated processors";
const THREADS: Flag = "--threads N=4  OS threads, one per node";
const SEED: Flag = "--seed N=1  seed of the run";
const POLICY: Flag = "--policy S=any-lazy  RIPS transfer policy: {any,all}-{lazy,eager}";
const METRICS_OUT: Flag = "--metrics-out S  write OpenMetrics text here (- = stdout)";
const AUDIT: Flag = "--audit  check the paper's invariants on the run's trace";
const TRACE_OUT: Flag = "--trace-out S  write the run's trace as Chrome trace-event JSON";

/// The whole command table: the fixed rows (each spec sits above its
/// handler), `bench scale`, then one row per paper artifact from the
/// library table.
fn commands() -> Vec<Cmd> {
    type Handler = fn(&Args);
    let fixed: [(Spec, Handler); 7] = [
        (RUN, cmd_run),
        (LIVE, cmd_live),
        (SERVE, cmd_serve),
        (PLAN, cmd_plan),
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
/// tasks), reading the sequential ground truth off the grain table
/// (`live` only: the simulator runs no grain), and the scheduler run
/// itself. On stderr, after the result, so stdout stays what the tests
/// and the byte-identity pins compare.
fn report_wall(build_s: f64, truth_s: Option<f64>, run_s: f64) {
    let truth = truth_s
        .map(|s| format!(" · ground truth {s:.3} s"))
        .unwrap_or_default();
    eprintln!("wall: build {build_s:.3} s{truth} · run {run_s:.3} s");
}

/// Builds the named workload and its grain table.
fn build_app_live(args: &Args, name: &str) -> (Arc<Workload>, Arc<GrainTable>) {
    let app = app_named(args, name);
    eprintln!("building workload '{name}' ...");
    let (workload, table) = app.build_live();
    (Arc::new(workload), Arc::new(table))
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

/// What `run` and `live` observe a run with, in one install: the
/// invariant auditor (`--audit`) and the event buffer behind
/// `--trace-out`, each only when asked for.
type Observers = Tee<Option<Auditor>, Option<TraceBuffer>>;

fn observers(args: &Args, auditor: impl FnOnce() -> Auditor) -> Observers {
    Tee(
        args.switch("--audit").then(auditor),
        args.get("--trace-out").map(|_| TraceBuffer::new()),
    )
}

/// Finishes the observers of a run that ended at `end_us`: writes the
/// trace, labelled `label`, to `--trace-out` once it has passed
/// [`validate`] (a malformed trace exits 1 and writes nothing), and
/// hands back the audit report.
fn finish_observers(
    args: &Args,
    observed: Observers,
    label: &str,
    end_us: u64,
) -> Option<AuditReport> {
    let Tee(auditor, buf) = observed;
    if let (Some(path), Some(buf)) = (args.get("--trace-out"), buf) {
        if let Err(e) = validate(&buf) {
            eprintln!("malformed trace, {path} not written: {e}");
            std::process::exit(1);
        }
        let json = buf.chrome_json(label, end_us);
        write_file(path, &json);
        eprintln!(
            "wrote {path}: {} events ({} bytes)",
            buf.records.len(),
            json.len()
        );
    }
    auditor.map(Auditor::finish)
}

const RUN: Spec = &[
    "run [<scheduler>] <app>  simulate one scheduler, or --all, on one workload",
    "--all                    every roster scheduler in turn; no file sinks",
    NODES,
    SEED,
    POLICY,
    AUDIT,
    TRACE_OUT,
    "--report S               print the phase anatomy: table|jsonl",
    METRICS_OUT,
];

fn cmd_run(args: &Args) {
    let (scheduler, app) = sched_app(args);
    let nodes: usize = args.num_in("--nodes", 1..);
    let seed: u64 = args.num("--seed");
    let jsonl = args.get("--report").map(|format| match format {
        "table" => false,
        "jsonl" => true,
        other => args.fail(&format!("unknown --report '{other}' (table|jsonl)")),
    });
    let reg = registry_with(policy_tuning(args));
    let schedulers = if args.switch("--all") {
        if args.pos().len() > 1 {
            args.fail("--all takes the <app> alone");
        }
        if args
            .get("--trace-out")
            .or(args.get("--metrics-out"))
            .is_some()
        {
            args.fail("--all writes no file: drop --trace-out and --metrics-out");
        }
        reg.names().iter().map(|n| n.to_string()).collect()
    } else {
        vec![scheduler_named(args, scheduler)]
    };
    let (build_s, workload) = timed(|| {
        let built = app_named(args, app);
        eprintln!("building workload '{app}' ...");
        Arc::new(built.build())
    });
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
    let (mut run_s, mut audit_ok) = (0.0, true);
    for name in &schedulers {
        let sink = Tee(
            observers(args, || auditor_for(name, nodes)),
            jsonl.map(|_| PhaseReport::default()),
        );
        let (s, (Tee(observed, report), run)) =
            timed(|| with_metrics(&metrics, || with_sink(sink, || reg.run(name, &spec))));
        run_s += s;
        let outcome = run.outcome;
        outcome
            .verify_complete(&workload)
            .expect("scheduler lost tasks");

        println!("\nresults ({name}):");
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
        if outcome.system_phases > 0 {
            println!("  system phases   : {}", outcome.system_phases);
        }

        let end = outcome.stats.end_time;
        let label = format!("{name} · {app} · {nodes} nodes · seed {seed}");
        if let Some(audit) = finish_observers(args, observed, &label, end) {
            println!("── {name} · {nodes} nodes · seed {seed} ──");
            print!("{}", audit.render_human());
            audit_ok &= audit.is_ok();
        }
        if let (Some(jsonl), Some(mut report)) = (jsonl, report) {
            report.close_at(end);
            println!("{label}");
            if jsonl {
                print!("{}", report.to_jsonl());
            } else {
                print!("\n{}", report.render());
            }
        }
    }
    if let Some(path) = args.get("--metrics-out") {
        write_metrics(&metrics, path);
    }
    report_wall(build_s, None, run_s);
    if !audit_ok {
        eprintln!("audit FAILED");
        std::process::exit(1);
    }
}

const LIVE: Spec = &[
    "live [<scheduler>] <app>  run on real threads with real grains, cross-checked",
    THREADS,
    SEED,
    POLICY,
    "--mode S=compute         grain mode: compute|timed",
    "--timed-scale F=1.0      timed mode: modelled-duration multiplier, 0 to 1000",
    AUDIT,
    TRACE_OUT,
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
        observers(args, || auditor_for(&name, threads)),
    );
    let (Tee(_, observed), out) = with_metrics_clocked(&metrics, Arc::clone(&clock), || {
        with_sink(sink, || {
            let mut opts = live_opts(&table, mode, timed_scale);
            opts.clock = Some(clock);
            live_run_with(tuning, &name, &workload, threads, 0.4, seed, opts)
        })
    });
    let trips = watchdog.stop();
    let label = format!("{name} · {app} · {threads} threads (live) · seed {seed}");
    let audit = finish_observers(args, observed, &label, out.wall_us);
    if let Some(audit) = &audit {
        print!("{}", audit.render_human());
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
    report_wall(build_s, Some(truth_s), out.wall_us as f64 / 1e6);
    if !matches {
        eprintln!(
            "cross-validation FAILED: expected {} solutions / {:#018x}",
            truth.solutions, truth.checksum
        );
        flight.dump_to_stderr("cross-validation mismatch");
        std::process::exit(1);
    }
    if audit.is_some_and(|a| !a.is_ok()) {
        eprintln!("audit FAILED on the live trace");
        flight.dump_to_stderr("audit failure");
        std::process::exit(1);
    }
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
            let auditor = ServeAuditor::per_job(auditor_for(&cfg.scheduler, nodes));
            let (auditor, rep) = rips_repro::trace::with_sink(auditor, || {
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
