//! The paper-artifact table behind `rips repro <name>`.
//!
//! Each row of [`ARTIFACTS`] regenerates one table, figure or
//! ablation of the paper's evaluation as text: a function from the
//! parsed flags to exactly what `rips repro` prints. Everything is
//! seed-deterministic, so two runs of a row are byte-identical.

use std::fmt::Write as _;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use rips_core::{GlobalPolicy, LoadMetric, LocalPolicy, RipsConfig};
use rips_runtime::{Costs, RunSpec};
use rips_sched::flow::optimal_rebalance;
use rips_sched::mwa;
use rips_taskgraph::{par_map, skewed_flat};
use rips_topology::Mesh2D;
use rips_trace::{with_sink, PhaseReport};

use crate::args::{Args, Flag, Spec};
use crate::eval::{optimal_efficiency, quality_factor, speedup, utilization_chart, Series, Table};
use crate::{
    build_set, paper_spec, registry, registry_with, run_cell, run_grid, run_spec, run_table, App,
    RegistryTuning, Row,
};

/// One regenerable paper artifact: its usage text (`rips repro
/// <name>`; the synopsis says what it reproduces) and the function
/// that runs it, returning the text to print.
pub type Artifact = (Spec, fn(&Args) -> String);

/// Every artifact, in the paper's order then the ablations.
pub const ARTIFACTS: &[Artifact] = &[
    (FIG4, fig4),
    (TABLE1, table1),
    (TABLE2, table2),
    (FIG5, fig5),
    (TABLE3, table3),
    (ABLATION_POLICIES, ablation_policies),
    (ABLATION_INTERVAL, ablation_interval),
    (ABLATION_WEIGHTED, ablation_weighted),
    (ABLATION_CONTENTION, ablation_contention),
    (SID_VS_RID, sid_vs_rid),
    (SCALING, scaling),
    (TIMELINE, timeline),
    (PHASE_ANATOMY, phase_anatomy),
];

const NODES: Flag = "--nodes N=32  simulated processors";

/// A column of a [`Row`]'s outcome, as the tables print it.
#[derive(Clone, Copy)]
enum Col {
    Tasks,
    Phases,
    Nonlocal,
    Th,
    Ti,
    T,
    Mu,
}
use Col::{Mu, Nonlocal, Phases, Tasks, Th, Ti, T};

/// One table row: the `lead` labels, then the chosen outcome columns.
fn outcome_row(lead: &[&str], row: &Row, cols: &[Col]) -> Vec<String> {
    let o = &row.outcome;
    let cells = cols.iter().map(|c| match c {
        Tasks => row.tasks.to_string(),
        Phases => o.system_phases.to_string(),
        Nonlocal => o.nonlocal.to_string(),
        Th => format!("{:.2}", o.overhead_s()),
        Ti => format!("{:.2}", o.idle_s()),
        T => format!("{:.2}", o.exec_time_s()),
        Mu => pct(o.efficiency()),
    });
    lead.iter().map(|s| s.to_string()).chain(cells).collect()
}

fn pct(mu: f64) -> String {
    format!("{:.0}%", mu * 100.0)
}

/// The common artifact shape: a title line, a blank line, a table.
fn titled(title: String, table: &Table) -> String {
    format!("{title}\n\n{}\n", table.render())
}

/// Figure 4. "The load at each processor is randomly generated, with
/// the mean equal to the specified average number of tasks. The
/// average number of tasks in each processor varies from 2 to 100. …
/// The mesh organization is either M × M or M × M/2. Each data
/// presented here is the average of 100 different test cases." One
/// series per panel with the mean of `(C_MWA − C_OPT) / C_OPT`.
const FIG4: Spec = &[
    "fig4  Figure 4 (a)+(b): MWA normalized communication cost vs the optimal",
    "--trials N=100  random load vectors per point",
];
fn fig4(args: &Args) -> String {
    const WEIGHTS: [i64; 6] = [2, 5, 10, 20, 50, 100];

    fn normalized_cost(mesh: &Mesh2D, weight: i64, trials: usize, seed: u64) -> f64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        running_mean((0..trials).map(|_| {
            // Uniform in [0, 2w]: mean w, matching the paper's setup.
            let loads: Vec<i64> = (0..mesh.len())
                .map(|_| rng.random_range(0..=2 * weight))
                .collect();
            let c_mwa = mwa(mesh, &loads).0.edge_cost();
            let c_opt = optimal_rebalance(*mesh, &loads).cost;
            debug_assert!(c_mwa >= c_opt);
            if c_opt > 0 {
                (c_mwa - c_opt) as f64 / c_opt as f64
            } else {
                debug_assert_eq!(c_mwa, 0);
                0.0
            }
        }))
    }

    let panel = |title: &str, sizes: &[usize], trials: usize| {
        let names = sizes.iter().map(|n| format!("{n} procs")).collect();
        let mut series = Series::new("weight".to_string(), names);
        // One job per (weight, size) cell; MCMF on 256 nodes x 100
        // trials is the slow corner.
        let cells: Vec<(usize, usize)> = (0..WEIGHTS.len())
            .flat_map(|wi| (0..sizes.len()).map(move |si| (wi, si)))
            .collect();
        let means = par_map(&cells, |&(wi, si)| {
            let mesh = Mesh2D::near_square(sizes[si]);
            let seed = 0xF1640 + (wi * 16 + si) as u64;
            normalized_cost(&mesh, WEIGHTS[wi], trials, seed)
        });
        for (weight, row) in WEIGHTS.iter().zip(means.chunks(sizes.len())) {
            series.point(weight.to_string(), row.to_vec());
        }
        format!("{title}\n{}\n\n", series.render())
    };

    let trials = args.num("--trials");
    let head = "Figure 4: normalized communication cost (C_MWA - C_OPT) / C_OPT";
    let a = panel("(a) 8, 16, and 32 processors", &[8, 16, 32], trials);
    let b = panel("(b) 64, 128, and 256 processors", &[64, 128, 256], trials);
    format!("{head}\nmean over {trials} random load vectors per point\n\n{a}{b}")
}

/// The mean of `xs` (0 for none), updated per sample as
/// `mean += (x − mean) / n`: Figure 4 prints it to four places, so the
/// update order is part of the output.
fn running_mean(xs: impl Iterator<Item = f64>) -> f64 {
    let mut mean = 0.0;
    for (i, x) in xs.enumerate() {
        mean += (x - mean) / (i + 1) as f64;
    }
    mean
}

/// Table I. Columns as in the paper: number of tasks, non-local
/// tasks, overhead time `Th`, idle time `Ti`, execution time `T` (all
/// seconds of virtual machine time), and efficiency `µ`.
const TABLE1: Spec = &[
    "table1  Table I: scheduler comparison on 32 processors",
    NODES,
    "--verbose  append the RIPS per-phase log",
];
fn table1(args: &Args) -> String {
    let nodes: usize = args.num_in("--nodes", 1..);
    let results = run_table(&App::paper_set(), nodes, 1);
    let header = "workload|scheduler|# tasks|# nonlocal|Th (s)|Ti (s)|T (s)|mu";
    let mut table = Table::new(header.split('|').collect());
    for (app, rows) in &results {
        for row in rows {
            let lead = [&app.label(), row.scheduler.as_str()];
            table.row(outcome_row(&lead, row, &[Tasks, Nonlocal, Th, Ti, T, Mu]));
        }
    }
    let title = format!("Table I: comparison of scheduling algorithms on {nodes} processors");
    let mut out = titled(title, &table);
    if args.switch("--verbose") {
        for (app, rows) in &results {
            let rips = rows.iter().find(|r| r.scheduler == "RIPS");
            let rips = rips.expect("RIPS row");
            let phases = rips.outcome.system_phases;
            writeln!(out, "\n{}: {phases} system phases", app.label()).expect("write to String");
            for p in &rips.phases {
                writeln!(
                    out,
                    "  phase {:3} round {:2}: {:6} tasks queued, {:5} migrated, edge cost {:6}",
                    p.phase, p.round, p.total_tasks, p.migrated, p.edge_cost
                )
                .expect("write to String");
            }
        }
    }
    out
}

/// Table II. "An optimal efficiency is calculated assuming (1)
/// optimal scheduling; and (2) no overhead." Computed by zero-overhead
/// LPT list scheduling over each workload's precedence-constrained
/// task forest, with round barriers.
const TABLE2: Spec = &["table2  Table II: optimal efficiencies", NODES];
fn table2(args: &Args) -> String {
    let nodes: usize = args.num_in("--nodes", 1..);
    let apps = App::paper_set();
    let mu_opt = par_map(&build_set(&apps), |w| optimal_efficiency(w, nodes));
    let mut table = Table::new(vec!["workload", "optimal efficiency"]);
    for (app, mu) in apps.iter().zip(mu_opt) {
        table.row(vec![app.label(), format!("{:.1}%", mu * 100.0)]);
    }
    let title = "Table II: optimal efficiencies for the test problems";
    titled(format!("{title} ({nodes} processors)"), &table)
}

/// Figure 5. For each scheduler `g`, `(µ_opt − µ_rand) / (µ_opt −
/// µ_g)`: the randomized baseline scores 1; better schedulers score
/// higher. One panel per application family, as in the paper.
const FIG5: Spec = &["fig5  Figure 5 (a)-(c): normalized quality factors", NODES];
fn fig5(args: &Args) -> String {
    let nodes: usize = args.num_in("--nodes", 1..);
    let apps = App::paper_set();
    let workloads = build_set(&apps);
    let results = run_grid(&apps, &workloads, nodes, 1);
    let mu_opt = par_map(&workloads, |w| optimal_efficiency(w, nodes));

    let mut out = format!(
        "Figure 5: normalized quality factors ({nodes} processors)\n\
         (mu_opt - mu_rand) / (mu_opt - mu_g); random == 1; larger is better\n\n"
    );
    type Family = fn(&App) -> bool;
    let panels: [(&str, Family); 3] = [
        ("(a) Exhaustive Search", |a| matches!(a, App::Queens(_))),
        ("(b) IDA* Search (15-puzzle)", |a| matches!(a, App::Ida(_))),
        ("(c) GROMOS", |a| matches!(a, App::Gromos(_))),
    ];
    for (title, in_family) in panels {
        let names = registry().names().iter().map(|s| s.to_string()).collect();
        let mut series = Series::new("workload".to_string(), names);
        for ((app, rows), &mu_opt) in results.iter().zip(&mu_opt) {
            if !in_family(app) {
                continue;
            }
            let random = rows.iter().find(|r| r.scheduler == "Random");
            let mu_rand = random.expect("random row").outcome.efficiency();
            // Clamp into the valid domain: simulated µ can graze
            // µ_opt on easy instances.
            let clamp = |mu: f64| mu.min(mu_opt - 1e-6);
            let quality =
                |r: &Row| quality_factor(mu_opt, clamp(mu_rand), clamp(r.outcome.efficiency()));
            series.point(app.label(), rows.iter().map(quality).collect());
        }
        out += &format!("{title}\n{}\n\n", series.render());
    }
    out
}

/// Table III. Speedup = `Ts / Tp` with `Ts` the workload's total
/// sequential work. The largest instance of each family, as in the
/// paper: 15-Queens, IDA\* configuration #3, GROMOS at 16 Å. RID's
/// update factor follows the paper's adjustment (0.7 for IDA\* at
/// these sizes, 0.4 elsewhere).
const TABLE3: Spec = &["table3  Table III: speedups on 64 and 128 processors"];
fn table3(_: &Args) -> String {
    let apps = App::table3_set();
    let mut table = Table::new(vec!["workload", "scheduler", "64 procs", "128 procs"]);
    let workloads = build_set(&apps);
    let results64 = run_grid(&apps, &workloads, 64, 1);
    let results128 = run_grid(&apps, &workloads, 128, 1);
    for ((app, rows64), (_, rows128)) in results64.iter().zip(&results128) {
        for (r64, r128) in rows64.iter().zip(rows128) {
            let ts = r64.outcome.stats.total_user_us();
            let on = |r: &Row| format!("{:.1}", speedup(ts, r.outcome.stats.end_time));
            table.row(vec![app.label(), r64.scheduler.clone(), on(r64), on(r128)]);
        }
    }
    let title = "Table III: speedup comparison on 64 and 128 processors";
    titled(title.to_string(), &table)
}

/// The 2×2 transfer-policy matrix (paper §2): Eager/Lazy × ALL/ANY
/// over one instance of each application family. The paper (citing
/// its reference \[24\]) reports ANY-Lazy as the best combination;
/// this shows where each policy's time goes.
const ABLATION_POLICIES: Spec = &[
    "ablation-policies  eager/lazy x ALL/ANY (+- eureka) policy matrix (paper §2, ref [24])",
    NODES,
];
fn ablation_policies(args: &Args) -> String {
    use {GlobalPolicy::*, LocalPolicy::*};
    let nodes: usize = args.num_in("--nodes", 1..);
    let apps = [App::Queens(13), App::Ida(1), App::Gromos(8.0)];
    let combos = [
        ("ALL-Eager", Eager, All, false),
        ("ALL-Lazy", Lazy, All, false),
        ("ANY-Eager", Eager, Any, false),
        ("ANY-Lazy", Lazy, Any, false),
        ("ANY-Lazy+eureka", Lazy, Any, true),
    ];
    let header = "workload|policy|phases|nonlocal|Th (s)|Ti (s)|T (s)|mu";
    let mut table = Table::new(header.split('|').collect());
    let built: Vec<_> = apps.iter().zip(build_set(&apps)).collect();
    let groups = par_map(&built, |(app, w)| {
        combos.map(|(name, local, global, eureka)| {
            let cfg = RipsConfig {
                local,
                global,
                eureka,
                ..RipsConfig::default()
            };
            let reg = registry_with(RegistryTuning { rips: cfg });
            let row = run_cell(&reg, "RIPS", w, nodes, 0.4, 1);
            outcome_row(
                &[&app.label(), name],
                &row,
                &[Phases, Nonlocal, Th, Ti, T, Mu],
            )
        })
    });
    groups.into_iter().flatten().for_each(|row| table.row(row));
    titled(
        format!("RIPS transfer-policy ablation ({nodes} processors)"),
        &table,
    )
}

/// The naive periodic transfer-condition test (paper §2). "A naive
/// implementation periodically invokes a global reduction operation.
/// … An interval that is too short increases communication overhead,
/// and an interval that is too long may result in unnecessary
/// processor idle. The optimal length of the interval is to be
/// determined by empirical study." — this is that empirical study,
/// with the event-driven ANY policy as the reference.
const ABLATION_INTERVAL: Spec = &[
    "ablation-interval  periodic transfer-test interval sweep (paper §2)",
    NODES,
];
fn ablation_interval(args: &Args) -> String {
    let nodes: usize = args.num_in("--nodes", 1..);
    let w = Arc::new(App::Queens(13).build());
    let periodic = [0.5f64, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0].map(|ms| {
        let us = (ms * 1000.0) as u64;
        (format!("periodic {ms} ms"), GlobalPolicy::Periodic(us))
    });
    let any = ("event-driven ANY".to_string(), GlobalPolicy::Any);

    let mut table = Table::new(vec!["policy", "phases", "Th (s)", "Ti (s)", "T (s)", "mu"]);
    for (label, global) in periodic.into_iter().chain([any]) {
        let cfg = RipsConfig {
            local: LocalPolicy::Lazy,
            global,
            ..RipsConfig::default()
        };
        let reg = registry_with(RegistryTuning { rips: cfg });
        let row = run_cell(&reg, "RIPS", &w, nodes, 0.4, 1);
        table.row(outcome_row(&[&label], &row, &[Phases, Th, Ti, T, Mu]));
    }
    let title = "Periodic transfer-test interval sweep, 13-Queens";
    titled(format!("{title} ({nodes} processors)"), &table)
}

/// Task-count vs estimated-weight load metric. The paper balances
/// task *counts* ("each task is presumed to require the equal
/// execution time"), correcting grain-size error in later incremental
/// phases, and notes that a programmer/compiler could estimate
/// execution times instead. This measures what that estimation buys
/// on the paper's own workloads plus a synthetic one with extreme
/// skew.
const ABLATION_WEIGHTED: Spec = &[
    "ablation-weighted  task-count vs estimated-weight load metric",
    NODES,
];
fn ablation_weighted(args: &Args) -> String {
    let nodes: usize = args.num_in("--nodes", 1..);
    let workloads = [
        ("13-Queens", App::Queens(13).build()),
        ("GROMOS (8 A)", App::Gromos(8.0).build()),
        ("synthetic whale mix", skewed_flat(600, 1000, 4, 15, 6)),
    ];
    let header = "workload|metric|phases|nonlocal|Ti (s)|T (s)|mu";
    let mut table = Table::new(header.split('|').collect());
    for (name, w) in workloads {
        let w = Arc::new(w);
        let metrics = [
            ("count", LoadMetric::TaskCount),
            ("weight", LoadMetric::EstimatedWeight),
        ];
        for (label, metric) in metrics {
            let cfg = RipsConfig {
                metric,
                ..RipsConfig::default()
            };
            let reg = registry_with(RegistryTuning { rips: cfg });
            let row = run_cell(&reg, "RIPS", &w, nodes, 0.4, 1);
            table.row(outcome_row(
                &[name, label],
                &row,
                &[Phases, Nonlocal, Ti, T, Mu],
            ));
        }
    }
    let title = "Load-metric ablation: task count vs estimated weight";
    titled(format!("{title} ({nodes} processors)"), &table)
        + "\nAn accurate weight estimate reduces the correction phases the\n\
           count metric needs; the paper's incremental design makes the\n\
           count metric competitive anyway — that is its point.\n"
}

/// Contention-free vs store-and-forward network. The default
/// simulator charges each message its full route latency up front
/// (links never queue). Real meshes serialize per link; bursts toward
/// the same region slow each other down. This measures how much each
/// scheduler depends on the contention-free assumption: randomized
/// allocation sprays long-haul traffic constantly, while RIPS packs
/// its migrations into a few neighbour-structured bursts per phase.
const ABLATION_CONTENTION: Spec = &[
    "ablation-contention  contention-free vs store-and-forward network",
    NODES,
];
fn ablation_contention(args: &Args) -> String {
    let nodes: usize = args.num_in("--nodes", 1..);
    let w = Arc::new(App::Queens(13).build());
    let reg = registry();
    let mut table = Table::new(vec!["scheduler", "network", "T (s)", "mu", "slowdown"]);
    for name in ["Random", "RIPS"] {
        let mut base_t = 0.0;
        for (contention, network) in [(false, "contention-free"), (true, "store-and-forward")] {
            let costs = Costs {
                contention,
                ..Costs::default()
            };
            let spec = RunSpec {
                costs,
                ..paper_spec(&w, nodes, 0.4, 1)
            };
            let o = run_spec(&reg, name, &spec).outcome;
            let t = o.exec_time_s();
            if !contention {
                base_t = t;
            }
            let slowdown = format!("{:.2}x", t / base_t);
            let cells = [
                name.into(),
                network.into(),
                format!("{t:.3}"),
                pct(o.efficiency()),
                slowdown,
            ];
            table.row(cells.to_vec());
        }
    }
    let title = "Network-contention ablation, 13-Queens";
    titled(format!("{title} ({nodes} processors)"), &table)
}

/// Sender-initiated vs receiver-initiated diffusion (Eager et al.,
/// the paper's reference \[11\]) on the paper's workloads. The classic
/// result: sender-initiated wins when the system is lightly loaded
/// (work spreads as soon as it exists; idle receivers have nothing to
/// poll for), receiver-initiated wins when heavily loaded (requests
/// target nodes that actually have surplus; pushes chase moving
/// targets). IDA\*'s light iterations vs N-Queens' saturated drain
/// make the contrast visible on the paper's own applications.
const SID_VS_RID: Spec = &[
    "sid-vs-rid  sender- vs receiver-initiated diffusion (ref [11])",
    NODES,
];
fn sid_vs_rid(args: &Args) -> String {
    let nodes: usize = args.num_in("--nodes", 1..);
    let apps = [App::Queens(13), App::Ida(1), App::Ida(3), App::Gromos(8.0)];
    let header = "workload|strategy|nonlocal|Th (s)|Ti (s)|T (s)|mu";
    let mut table = Table::new(header.split('|').collect());
    let reg = registry();
    let built: Vec<_> = apps.iter().zip(build_set(&apps)).collect();
    let groups = par_map(&built, |(app, w)| {
        ["RID", "SID"].map(|strategy| {
            let row = run_cell(&reg, strategy, w, nodes, app.rid_u(nodes), 1);
            outcome_row(&[&app.label(), strategy], &row, &[Nonlocal, Th, Ti, T, Mu])
        })
    });
    groups
        .into_iter()
        .flatten()
        .for_each(|row| table.row(row.to_vec()));
    let title = "Sender- vs receiver-initiated diffusion";
    titled(format!("{title} ({nodes} processors)"), &table)
}

/// Scalability sweep: "parallel scheduling is fast and scalable"
/// (§6). Speedup and efficiency of RIPS vs randomized allocation
/// across machine sizes on one N-Queens workload.
const SCALING: Spec = &[
    "scaling  RIPS vs random speedup/efficiency across machine sizes (§6)",
    "--queens N=14  board size of the workload",
];
fn scaling(args: &Args) -> String {
    let app = App::Queens(args.num_in("--queens", 1..=16));
    let workload = Arc::new(app.build());
    let stats = workload.stats();
    let ts = stats.total_work_us;
    let header = "procs|RIPS speedup|RIPS mu|random speedup|random mu|RIPS phases";
    let mut table = Table::new(header.split('|').collect());
    let reg = registry();
    let rows = par_map(&[8usize, 16, 32, 64, 128], |&nodes| {
        let rips = run_cell(&reg, "RIPS", &workload, nodes, 0.4, 1).outcome;
        let rand = run_cell(&reg, "Random", &workload, nodes, 0.4, 1).outcome;
        vec![
            nodes.to_string(),
            format!("{:.1}", speedup(ts, rips.stats.end_time)),
            pct(rips.efficiency()),
            format!("{:.1}", speedup(ts, rand.stats.end_time)),
            pct(rand.efficiency()),
            rips.system_phases.to_string(),
        ]
    });
    rows.into_iter().for_each(|row| table.row(row));
    format!(
        "Scaling sweep: {} under RIPS vs random allocation\n\n\
         sequential work Ts = {:.2} s over {} tasks\n\n{}\n",
        app.label(),
        ts as f64 / 1e6,
        stats.tasks,
        table.render()
    )
}

/// Per-node utilization timeline: *see* the RIPS phase structure.
/// Runs 13-Queens under RIPS and under randomized allocation with
/// timeline recording and renders ASCII Gantt charts: RIPS shows thin
/// synchronized overhead stripes (system phases) between solid user
/// phases; random shows per-task overhead smeared everywhere.
const TIMELINE: Spec = &[
    "timeline  per-node utilization Gantt charts, RIPS vs random",
    "--nodes N=16   simulated processors",
    "--width N=100  chart columns",
];
fn timeline(args: &Args) -> String {
    let nodes: usize = args.num_in("--nodes", 1..);
    let width = args.num_in("--width", 1..);
    let w = Arc::new(App::Queens(13).build());
    let reg = registry();
    let costs = Costs {
        record_timeline: true,
        ..Costs::default()
    };
    let spec = RunSpec {
        costs,
        ..paper_spec(&w, nodes, 0.4, 1)
    };
    let rips = run_spec(&reg, "RIPS", &spec).outcome;
    let rand = run_spec(&reg, "Random", &spec).outcome;
    format!(
        "RIPS, 13-Queens on {nodes} nodes ({} system phases):\n\n{}\n\
         Randomized allocation, same workload:\n\n{}\n",
        rips.system_phases,
        utilization_chart(&rips.stats, width),
        utilization_chart(&rand.stats, width)
    )
}

/// §5's system-phase anatomy for 15-Queens on the 8×4 mesh. The paper
/// narrates: "Execution of this problem takes 8 system phases. There
/// are about 1000 non-local tasks and an average of 125 non-local
/// tasks per system phase. … each system phase takes about 12 ms for
/// task migration. The total time for task migration of 8 system
/// phases is about 96 ms. It is a small fraction of the total system
/// overhead, which is 510 ms." This reproduces that breakdown from
/// the structured trace: the run executes under a [`PhaseReport`]
/// sink, which folds the events as they arrive into per-phase spans,
/// stage durations (load collection, plan, migration), idle-detect
/// latency and migration volume, each as p50/p95/max over nodes.
const PHASE_ANATOMY: Spec = &[
    "phase-anatomy  §5's 15-Queens system-phase breakdown, from the structured trace",
    NODES,
];
fn phase_anatomy(args: &Args) -> String {
    let nodes: usize = args.num_in("--nodes", 1..);
    let w = Arc::new(App::Queens(15).build());
    let run = || run_cell(&registry(), "RIPS", &w, nodes, 0.4, 1);
    let (mut report, row) = with_sink(PhaseReport::default(), run);
    let o = &row.outcome;
    report.close_at(o.stats.end_time);
    let mut out = format!("15-Queens under RIPS on {nodes} processors (8x4 mesh at 32)\n\n");
    out += &report.render();
    // The paper's headline numbers, from the aggregate counters the
    // trace-derived table above decomposes.
    out += "\npaper comparison (§5):\n";
    let mut line = |label: &str, value: String| {
        writeln!(out, "  {:<21} {value}", format!("{label}:")).expect("write to String")
    };
    line("system phases", o.system_phases.to_string());
    line("non-local tasks", o.nonlocal.to_string());
    if o.system_phases > 0 {
        let per_phase = o.nonlocal as f64 / o.system_phases as f64;
        line("non-local per phase", format!("{per_phase:.0}"));
    }
    let migrate_us: u64 = report.phases.iter_mut().map(|p| p.migrate_us.max()).sum();
    let migrate_ms = migrate_us as f64 / 1e3;
    let note = "ms total across phases (slowest node per phase)";
    line("migration time", format!("{migrate_ms:.1} {note}"));
    line("mean overhead Th", format!("{:.3} s", o.overhead_s()));
    line("mean idle Ti", format!("{:.3} s", o.idle_s()));
    line("execution time T", format!("{:.3} s", o.exec_time_s()));
    let speedup = o.stats.total_user_us() as f64 / o.stats.end_time as f64;
    line("speedup", format!("{speedup:.1}"));
    line("efficiency", pct(o.efficiency()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::synopsis;

    #[test]
    fn thirteen_artifacts_with_unique_names() {
        let mut names: Vec<&str> = ARTIFACTS.iter().map(|a| synopsis(a.0).0).collect();
        assert_eq!(names.len(), 13);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 13);
    }

    #[test]
    fn running_mean_of_one_to_four_is_two_and_a_half() {
        let mean = running_mean([1.0, 2.0, 3.0, 4.0].into_iter());
        assert!((mean - 2.5).abs() < 1e-12);
    }
}
