//! Paragon-at-2026-scale sweep: one audited simulation per machine
//! size n ∈ {1k, 10k, 100k, 1M}, under RIPS (flat MWA) and RIPS-H
//! (tiled MWA), writing `BENCH_DESIM.scaling.json`.
//!
//! The point of the curve is the *absence* of quadratic structure:
//! after the scaling refactor every layer — closed-form routing above
//! the table threshold, SoA event cores, on-the-fly trace distances,
//! tiled planning — costs O(n) bytes, so the peak RSS column should
//! grow linearly with n while Theorem 1 (audited `max_spread ≤ 1`)
//! holds at every size.
//!
//! Each (size, scheduler) cell runs in a **subprocess** (`--one`
//! mode) so its `VmHWM` peak-RSS reading is its own, not the high
//! water of earlier, larger cells.
//!
//! Flags: `--max-n 100000` truncates the sweep, `--out FILE`
//! redirects the JSON, `--tasks-per-node K` scales the workload
//! (default 4).

use std::fmt::Write as _;
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

use rips_audit::Auditor;
use rips_bench::{arg_usize, registry_with, run_cell, RegistryTuning};
use rips_core::RipsConfig;
use rips_sched::TileGrid;
use rips_taskgraph::skewed_flat;
use rips_topology::Mesh2D;
use rips_trace::with_sink;

const SIZES: [usize; 4] = [1_000, 10_000, 100_000, 1_000_000];
const SCHEDULERS: [&str; 2] = ["RIPS", "RIPS-H"];

fn arg_str(name: &str, default: &str) -> String {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args
                .next()
                .unwrap_or_else(|| panic!("{name} needs a value"));
        }
    }
    default.to_string()
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

/// Runs one audited cell and prints its JSON object on stdout
/// (subprocess mode).
fn run_one(nodes: usize, scheduler: &str, tasks_per_node: usize, seed: u64) {
    let workload = Arc::new(skewed_flat(nodes * tasks_per_node, 2_000, 64, 20, seed));
    let auditor = if scheduler == "RIPS-H" {
        let mesh = Mesh2D::near_square(nodes);
        Auditor::with_tiles(nodes, TileGrid::new(&mesh).assignment())
    } else {
        Auditor::new(nodes)
    };
    // Eureka (hardware or-barrier) init signalling: the software
    // broadcast's simultaneous-idle storm is O(n²) events per phase
    // and unrepresentative of the paper's T3D mode at these sizes.
    let reg = registry_with(RegistryTuning {
        rips: RipsConfig {
            eureka: true,
            ..RipsConfig::default()
        },
        ..RegistryTuning::default()
    });
    let t0 = Instant::now();
    let (auditor, row) = with_sink(auditor, || {
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
    let mem = stats.mem;
    println!(
        "{{\"scheduler\": \"{scheduler}\", \"nodes\": {nodes}, \
         \"tasks\": {}, \"events\": {}, \"wall_ms\": {:.1}, \
         \"events_per_sec\": {:.0}, \"end_time_us\": {}, \
         \"system_phases\": {}, \"phases_checked\": {}, \
         \"max_spread\": {}, \"tiles\": {}, \
         \"peak_queue_depth\": {}, \"peak_heap_len\": {}, \
         \"modelled_bytes\": {}, \"routing_table_bytes\": {}, \
         \"peak_rss_bytes\": {}}}",
        row.tasks,
        stats.events,
        wall * 1e3,
        stats.events as f64 / wall,
        stats.end_time,
        row.outcome.system_phases,
        report.phases_checked,
        report.max_spread,
        report.tiles,
        stats.peak_queue_depth,
        stats.peak_heap_len,
        mem.total_bytes(),
        mem.routing_table_bytes,
        peak_rss_bytes(),
    );
}

fn main() {
    let tasks_per_node = arg_usize("--tasks-per-node", 4);
    let seed = arg_usize("--seed", 1) as u64;
    if let Some(pos) = std::env::args().position(|a| a == "--one") {
        let nodes: usize = std::env::args()
            .nth(pos + 1)
            .and_then(|v| v.parse().ok())
            .expect("--one needs a node count");
        let sched = arg_str("--sched", "RIPS");
        run_one(nodes, &sched, tasks_per_node, seed);
        return;
    }

    let max_n = arg_usize("--max-n", 1_000_000);
    let out = arg_str("--out", "BENCH_DESIM.scaling.json");
    let exe = std::env::current_exe().expect("own path");
    let mut points = String::new();
    for (i, &n) in SIZES.iter().filter(|&&n| n <= max_n).enumerate() {
        let mut cells = String::new();
        for (j, sched) in SCHEDULERS.into_iter().enumerate() {
            eprintln!("n={n}: {sched}...");
            let run = Command::new(&exe)
                .args(["--one", &n.to_string(), "--sched", sched])
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
            if j > 0 {
                cells.push_str(",\n");
            }
            write!(cells, "      {}", cell.trim()).unwrap();
        }
        if i > 0 {
            points.push_str(",\n");
        }
        write!(
            points,
            "    {{\"nodes\": {n}, \"cells\": [\n{cells}\n    ]}}"
        )
        .unwrap();
    }
    let json = format!(
        "{{\n  \"bench\": \"scale_curve\",\n  \"workload\": \"skewed-flat {tasks_per_node} tasks/node\",\n  \"seed\": {seed},\n  \"points\": [\n{points}\n  ]\n}}\n"
    );
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    print!("{json}");
}
