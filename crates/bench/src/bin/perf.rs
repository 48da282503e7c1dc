//! Engine throughput benchmark: 15-Queens under RID and RIPS on 32
//! processors (the paper's headline machine size), reported as
//! simulator events per wall-clock second.
//!
//! Writes `BENCH_DESIM.json` in the current directory:
//!
//! ```json
//! {
//!   "nodes": 32,
//!   "cells": [
//!     {"scheduler": "RID", "events": ..., "wall_ms": ...,
//!      "events_per_sec": ..., "peak_queue_depth": ...,
//!      "peak_heap_len": ...},
//!     ...
//!   ],
//!   "total_events_per_sec": ...
//! }
//! ```
//!
//! The simulated results are seed-deterministic and engine-version
//! invariant (see `crates/bench/tests/golden.rs`), so `events` is
//! constant across engine changes and `events_per_sec` moves 1:1 with
//! wall time — the honest throughput metric for the hot-path work.

use std::fmt::Write as _;
use std::time::Instant;

use rips_bench::{arg_usize, run_scheduler, App};

fn main() {
    let nodes = arg_usize("--nodes", 32);
    let seed = arg_usize("--seed", 1) as u64;
    let reps = arg_usize("--reps", 5).max(1);
    let app = App::Queens(15);
    eprintln!("building {} workload...", app.label());
    let workload = std::sync::Arc::new(app.build());

    let mut cells = String::new();
    let mut total_events = 0u64;
    let mut total_wall_s = 0f64;
    for (i, sched) in ["RID", "RIPS"].into_iter().enumerate() {
        eprintln!("running {sched} on {nodes} nodes x{reps}...");
        // Deterministic sims: every rep replays the identical run, so
        // repetition only tightens the wall-clock estimate (best-of).
        let mut wall = f64::INFINITY;
        let mut row = None;
        for _ in 0..reps {
            let t0 = Instant::now();
            let r = run_scheduler(sched, &workload, nodes, app.rid_u(nodes), seed);
            wall = wall.min(t0.elapsed().as_secs_f64());
            row = Some(r);
        }
        let row = row.expect("reps >= 1");
        let events = row.outcome.stats.events;
        let eps = events as f64 / wall;
        total_events += events;
        total_wall_s += wall;
        eprintln!(
            "  {sched}: {events} events in {:.0} ms -> {:.0} events/sec (peak queue {}, heap {})",
            wall * 1e3,
            eps,
            row.outcome.stats.peak_queue_depth,
            row.outcome.stats.peak_heap_len
        );
        if i > 0 {
            cells.push_str(",\n");
        }
        write!(
            cells,
            "    {{\"scheduler\": \"{sched}\", \"events\": {events}, \
             \"wall_ms\": {:.1}, \"events_per_sec\": {:.0}, \
             \"peak_queue_depth\": {}, \"peak_heap_len\": {}}}",
            wall * 1e3,
            eps,
            row.outcome.stats.peak_queue_depth,
            row.outcome.stats.peak_heap_len
        )
        .unwrap();
    }

    let total_eps = total_events as f64 / total_wall_s;
    let json = format!(
        "{{\n  \"workload\": \"{}\",\n  \"nodes\": {nodes},\n  \"cells\": [\n{cells}\n  ],\n  \"total_events_per_sec\": {total_eps:.0}\n}}\n",
        app.label()
    );
    std::fs::write("BENCH_DESIM.json", &json).expect("write BENCH_DESIM.json");
    print!("{json}");
}
