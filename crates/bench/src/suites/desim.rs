//! Engine throughput: 15-Queens under RID and RIPS on 32 processors
//! (the paper's headline machine size), reported as simulator events
//! per wall-clock second.
//!
//! The simulated results are seed-deterministic and engine-version
//! invariant (see `crates/bench/tests/golden.rs`), so `events` is
//! constant across engine changes and `events_per_sec` moves 1:1 with
//! wall time — the honest throughput metric for the hot-path work.

use std::sync::Arc;
use std::time::Instant;

use rips_trace::Json;

use super::{Suite, SEED};
use crate::args::{Args, Spec};
use crate::{run_scheduler, App};

const SPEC: Spec = &[
    "desim  simulator events/s: 15-Queens under RID and RIPS",
    "--out S=BENCH_DESIM.json  where to write the JSON document",
    "--nodes N=32             simulated processors",
    SEED,
    "--reps N=5               repetitions per cell (best-of)",
];

pub(super) const SUITE: Suite = (SPEC, run);

fn run(args: &Args, mut doc: Json) -> Option<Json> {
    let nodes: usize = args.num("--nodes");
    let seed = args.num("--seed");
    let reps = args.num::<usize>("--reps").max(1);
    let app = App::Queens(15);
    eprintln!("building {} workload...", app.label());
    let workload = Arc::new(app.build());

    doc.key("workload").str(&app.label());
    doc.key("nodes").u64(nodes as u64);
    doc.key("cells").arr();
    let mut total_events = 0u64;
    let mut total_wall_s = 0f64;
    for sched in ["RID", "RIPS"] {
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
        let stats = row.expect("reps >= 1").outcome.stats;
        let eps = stats.events as f64 / wall;
        total_events += stats.events;
        total_wall_s += wall;
        eprintln!(
            "  {sched}: {} events in {:.0} ms -> {eps:.0} events/sec (peak queue {}, heap {})",
            stats.events,
            wall * 1e3,
            stats.peak_queue_depth,
            stats.peak_heap_len
        );
        doc.obj().key("scheduler").str(sched);
        doc.key("events").u64(stats.events);
        doc.key("wall_ms").f64(wall * 1e3, 1);
        doc.key("events_per_sec").f64(eps, 0);
        doc.key("peak_queue_depth").u64(stats.peak_queue_depth);
        doc.key("peak_heap_len").u64(stats.peak_heap_len);
        doc.end();
    }
    doc.end();
    let total_eps = total_events as f64 / total_wall_s;
    doc.key("total_events_per_sec").f64(total_eps, 0);
    Some(doc)
}
