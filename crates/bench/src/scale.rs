//! `rips bench scale`, the Paragon-at-2026-scale sweep: one audited
//! simulation per machine size n ∈ {1k, 10k, 100k, 1M}, under RIPS
//! (flat MWA) and RIPS-H (tiled MWA).
//!
//! The point of the curve is the *absence* of quadratic structure:
//! every layer — closed-form routing, SoA event cores, tiled planning
//! — costs O(n) bytes, so the modelled and peak RSS columns should
//! grow linearly with n while Theorem 1 (audited `max_spread ≤ 1`)
//! holds at every size.
//!
//! Each (size, scheduler) cell runs in a **subprocess** — this same
//! command re-executed with `--one <n> --sched <name>`, which prints
//! the cell's JSON object and writes no document — so its `VmHWM`
//! peak-RSS reading is its own, not the high water of earlier, larger
//! cells.
//!
//! The document (checked in as `BENCH_DESIM.scaling.json`) opens with
//! its provenance: which command, which seed, how many cores, which
//! revision. The sweep lives under `crates/bench/` because it reads
//! the wall clock: the root `clippy.toml` disallows `Instant` in the
//! simulated crates (RIPS-L002), and `crates/bench/clippy.toml` leaves
//! that entry out.

use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

use rips_core::RipsConfig;
use rips_taskgraph::skewed_flat;
use rips_trace::{with_sink, Json};

use crate::args::{Args, Spec};
use crate::{auditor_for, registry_with, roster_name, run_cell, RegistryTuning};

const SIZES: [usize; 4] = [1_000, 10_000, 100_000, 1_000_000];
const SCHEDULERS: [&str; 2] = ["RIPS", "RIPS-H"];

/// Object/array levels laid out one member per line; deeper levels
/// (a measured cell) stay on one line.
const LAYOUT_DEPTH: usize = 4;

/// The usage of `rips bench scale`.
pub const SPEC: Spec = &[
    "scale  audited RIPS / RIPS-H from 1k to 1M nodes: events, wall, peak RSS",
    "--out S=BENCH_DESIM.scaling.json  where to write the JSON document",
    "--max-n N=1000000        largest machine size swept, at least 1000",
    "--tasks-per-node N=4     workload scale",
    "--seed N=1  base seed",
    "--one N                  subprocess mode: run this one size, at least 1",
    "--sched S=RIPS           subprocess mode: the scheduler, RIPS or RIPS-H",
];

/// `git rev-parse --short HEAD` of the working directory, or
/// `"unknown"` outside a checkout or without git.
fn git_rev() -> String {
    let rev = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output();
    match rev {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).trim().to_string(),
        _ => "unknown".to_string(),
    }
}

/// Peak resident set of this process (bytes), from `VmHWM` in
/// `/proc/self/status`; 0 where the file is unavailable (non-Linux).
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Runs one audited cell and renders its JSON object.
fn cell(nodes: usize, scheduler: &str, tasks_per_node: usize, seed: u64) -> String {
    let workload = Arc::new(skewed_flat(nodes * tasks_per_node, 2_000, 64, 20, seed));
    // Eureka (hardware or-barrier) init signalling: the software
    // broadcast's simultaneous-idle storm is O(n²) events per phase
    // and unrepresentative of the paper's T3D mode at these sizes.
    let reg = registry_with(RegistryTuning {
        rips: RipsConfig {
            eureka: true,
            ..RipsConfig::default()
        },
    });
    let t0 = Instant::now();
    let (auditor, row) = with_sink(auditor_for(scheduler, nodes), || {
        run_cell(&reg, scheduler, &workload, nodes, 0.4, seed)
    });
    let wall = t0.elapsed().as_secs_f64();
    let report = auditor.finish();
    assert!(
        report.is_ok(),
        "{scheduler} at n={nodes} violates invariants:\n{}",
        report.errors.join("\n")
    );
    assert!(report.max_spread <= 1, "Theorem 1 spread escaped the audit");
    let stats = &row.outcome.stats;
    let mut j = Json::new();
    j.obj().key("scheduler").str(scheduler);
    j.key("nodes").u64(nodes as u64);
    j.key("tasks").u64(row.tasks);
    j.key("events").u64(stats.events);
    j.key("wall_ms").f64(wall * 1e3, 1);
    j.key("events_per_sec").f64(stats.events as f64 / wall, 0);
    j.key("end_time_us").u64(stats.end_time);
    j.key("system_phases").u64(row.outcome.system_phases.into());
    j.key("phases_checked").u64(report.phases_checked as u64);
    j.key("audit_records").u64(report.records);
    j.key("max_spread").i64(report.max_spread);
    j.key("tiles").u64(report.tiles as u64);
    j.key("peak_queue_depth").u64(stats.peak_queue_depth);
    j.key("peak_heap_len").u64(stats.peak_heap_len);
    j.key("modelled_bytes").u64(stats.mem.total_bytes());
    j.key("peak_rss_bytes").u64(peak_rss_bytes());
    j.end();
    j.finish()
}

/// Runs the sweep and returns its document, or with `--one` prints
/// that one cell and returns `None`. A value no sweep can use (a
/// machine of no nodes, a scheduler other than the two swept, a
/// largest size below the smallest) exits 2 with the usage, before any
/// cell runs or any document is written.
pub fn run(args: &Args) -> Option<String> {
    let tasks_per_node: usize = args.num("--tasks-per-node");
    let seed: u64 = args.num("--seed");
    let sched = args.str("--sched");
    let sched = roster_name(sched)
        .filter(|name| SCHEDULERS.contains(&name.as_str()))
        .unwrap_or_else(|| {
            args.fail(&format!(
                "--sched: '{sched}' is not one of {}",
                SCHEDULERS.join("|")
            ))
        });
    if args.get("--one").is_some() {
        let nodes = args.num_in("--one", 1..);
        println!("{}", cell(nodes, &sched, tasks_per_node, seed));
        return None;
    }
    let max_n: usize = args.num_in("--max-n", SIZES[0]..);

    let mut doc = Json::pretty(LAYOUT_DEPTH);
    doc.obj().key("bench").str("scale");
    doc.key("seed").u64(seed);
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    doc.key("host_parallelism").u64(cores as u64);
    doc.key("git_rev").str(&git_rev());
    let exe = std::env::current_exe().expect("own path");
    let workload = format!("skewed-flat {tasks_per_node} tasks/node");
    doc.key("workload").str(&workload).key("points").arr();
    for n in SIZES.into_iter().filter(|&n| n <= max_n) {
        doc.obj().key("nodes").u64(n as u64).key("cells").arr();
        for sched in SCHEDULERS {
            eprintln!("n={n}: {sched}...");
            let run = Command::new(&exe)
                .args(["bench", "scale", "--one", &n.to_string(), "--sched", sched])
                .args(["--tasks-per-node", &tasks_per_node.to_string()])
                .args(["--seed", &seed.to_string()])
                .output()
                .expect("spawn subprocess");
            assert!(
                run.status.success(),
                "cell n={n} {sched} failed:\n{}",
                String::from_utf8_lossy(&run.stderr)
            );
            let cell = String::from_utf8(run.stdout).expect("utf8 cell");
            eprintln!("  {}", cell.trim());
            doc.raw(cell.trim());
        }
        doc.end().end();
    }
    doc.end().end();
    Some(doc.finish() + "\n")
}
