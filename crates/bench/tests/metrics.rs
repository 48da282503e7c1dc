//! Metrics-registry zero-cost and fidelity guarantees.
//!
//! The observability contract (DESIGN §10) matches the trace sink's: the
//! registry must *observe* a run, never perturb it. Every scheduler in
//! the canonical roster must produce bit-identical results with and
//! without a registry installed — the golden digests pin the
//! metrics-off path across commits; this file pins metered ==
//! unmetered within a commit, and that the numbers the registry
//! reports agree with what the run actually did.

use std::sync::Arc;

use rips_apps::{nqueens, nqueens_with_grains, NQueensConfig};
use rips_bench::live::{live_opts, live_run};
use rips_bench::{registry, run_cell};
use rips_live::{GrainMode, WallClock};
use rips_trace::metrics_rt::{validate_openmetrics, Counter, Histo};
use rips_trace::{with_metrics, with_metrics_clocked, Clock, MetricsRegistry};

fn small_queens_cfg() -> NQueensConfig {
    NQueensConfig {
        n: 9,
        split_depth: 3,
        root_depth: 2,
        ns_per_node: 1800,
    }
}

fn small_queens() -> Arc<rips_taskgraph::Workload> {
    Arc::new(nqueens(small_queens_cfg()))
}

#[test]
fn metrics_never_perturb_the_simulation() {
    let w = small_queens();
    let reg = registry();
    for s in reg.names() {
        let plain = run_cell(&reg, s, &w, 8, 0.4, 1);
        let metrics = MetricsRegistry::new(8);
        let metered = with_metrics(&metrics, || run_cell(&reg, s, &w, 8, 0.4, 1));
        assert_eq!(
            plain.outcome.stats, metered.outcome.stats,
            "{s}: RunStats differ under metrics"
        );
        assert_eq!(plain.outcome.executed, metered.outcome.executed, "{s}");
        assert_eq!(plain.outcome.nonlocal, metered.outcome.nonlocal, "{s}");
        assert_eq!(
            plain.outcome.system_phases, metered.outcome.system_phases,
            "{s}"
        );
    }
}

#[test]
fn sim_counters_agree_with_run_outcome() {
    let w = small_queens();
    let reg = registry();
    let metrics = MetricsRegistry::new(8);
    let row = with_metrics(&metrics, || run_cell(&reg, "RIPS", &w, 8, 0.4, 1));
    let snap = metrics.snapshot();
    assert_eq!(
        snap.counter(Counter::TasksExecuted),
        row.outcome.total_executed(),
        "per-kernel executed taps must sum to the outcome"
    );
    assert_eq!(
        snap.counter(Counter::SimEvents),
        row.outcome.stats.events,
        "engine event tap must match the engine's own count"
    );
    assert!(
        snap.counter(Counter::MsgsSent) > 0,
        "protocol runs on messages"
    );
    assert!(
        snap.counter(Counter::TimerFires) > 0,
        "RIPS arms clock ticks"
    );
    // What the engine silently discards or folds is counted too: RIPS
    // broadcasts at least twice per system phase (init, plan ready),
    // and busy nodes re-arm wake markers, leaving stale ones behind.
    assert!(
        snap.counter(Counter::BroadcastRuns) >= 2 * u64::from(row.outcome.system_phases),
        "every broadcast opens a run"
    );
    assert!(snap.counter(Counter::StaleWakes) > 0, "stale wake markers");
    // Virtual time: the ns histograms must stay empty in the simulator.
    assert_eq!(snap.histo(Histo::DispatchRoundNs).count, 0);
    assert_eq!(snap.histo(Histo::TraceEmitNs).count, 0);
}

#[test]
fn sim_snapshot_renders_valid_openmetrics_with_all_names() {
    let w = small_queens();
    let reg = registry();
    let metrics = MetricsRegistry::new(8);
    with_metrics(&metrics, || run_cell(&reg, "RIPS", &w, 8, 0.4, 1));
    let text = metrics.snapshot().render_openmetrics();
    let samples = validate_openmetrics(&text).expect("render must be valid OpenMetrics");
    // One sample per counter and gauge, several per histogram family.
    assert!(
        samples >= Counter::COUNT + rips_trace::metrics_rt::Gauge::COUNT + 3 * Histo::COUNT,
        "only {samples} sample lines rendered"
    );
    for c in Counter::ALL {
        assert!(
            text.contains(&format!("# TYPE {} counter", c.name())),
            "catalog entry {} missing from render",
            c.name()
        );
    }
    for required in [
        "rips_tasks_executed_total",
        "rips_msgs_sent_total",
        "rips_sim_events_total",
        "rips_stale_wakes_total",
        "rips_broadcast_runs_total",
        "rips_dispatch_round_ns_bucket",
        "rips_queue_depth",
    ] {
        assert!(text.contains(required), "missing {required} in:\n{text}");
    }
}

/// Deterministic performance guard for broadcast runs. Eureka RIPS on
/// a 70 x 70 mesh keeps two machine-wide broadcasts in flight at once,
/// so the *logical* queue exceeds the node count, while the real heap
/// holds one entry per pending timer or message plus one per run. Both
/// are counts that repeat exactly, so they can gate CI where a timing
/// cannot: a broadcast that went back to one heap entry per recipient
/// would make `peak_heap_len` equal `peak_queue_depth`, past `n`.
#[test]
fn broadcasts_do_not_grow_the_event_heap() {
    let n = 70 * 70;
    let w = Arc::new(rips_taskgraph::skewed_flat(4 * n, 2_000, 64, 20, 1));
    let reg = rips_bench::registry_with(rips_bench::RegistryTuning {
        rips: rips_core::RipsConfig {
            eureka: true,
            ..Default::default()
        },
    });
    let metrics = MetricsRegistry::new(n);
    let row = with_metrics(&metrics, || run_cell(&reg, "RIPS", &w, n, 0.4, 1));
    let stats = &row.outcome.stats;
    assert!(
        stats.peak_queue_depth > n as u64,
        "outstanding events {} should exceed the {n} nodes",
        stats.peak_queue_depth
    );
    assert!(
        stats.peak_heap_len <= n as u64 + 64,
        "heap grew to {} entries on {n} nodes",
        stats.peak_heap_len
    );
    let runs = metrics.snapshot().counter(Counter::BroadcastRuns);
    assert!(
        runs >= u64::from(row.outcome.system_phases),
        "{runs} runs, {} phases",
        row.outcome.system_phases
    );
}

#[test]
fn live_run_fills_the_dispatch_breakdown() {
    let (w, table) = nqueens_with_grains(small_queens_cfg());
    let (w, table) = (Arc::new(w), Arc::new(table));
    let truth = table.static_totals();
    let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
    let metrics = MetricsRegistry::new(2);
    let out = with_metrics_clocked(&metrics, Arc::clone(&clock), || {
        let mut opts = live_opts(&table, GrainMode::Compute, 1.0);
        opts.clock = Some(clock);
        live_run("RIPS", &w, 2, 0.4, 1, opts)
    });
    assert_eq!(out.solutions, truth.solutions, "metered run still correct");
    assert_eq!(out.checksum, truth.checksum);

    let snap = metrics.snapshot();
    let rounds = snap.counter(Counter::DispatchRounds);
    assert!(rounds > 0, "node loops must count dispatch rounds");
    let round = snap.histo(Histo::DispatchRoundNs);
    let grain = snap.histo(Histo::GrainExecNs);
    assert_eq!(round.count, rounds, "every round timed");
    assert_eq!(
        grain.count,
        out.total_executed(),
        "every executed grain timed"
    );
    // Grain time nests inside its dispatch round under the same
    // clock, so the attribution can never exceed the total.
    assert!(
        round.sum >= grain.sum,
        "grain ns ({}) exceed round ns ({})",
        grain.sum,
        round.sum
    );
    assert_eq!(
        snap.histo(Histo::GrainSetupNs).count,
        rounds,
        "setup = round minus grain, once per round"
    );
    assert!(
        snap.counter(Counter::TasksExecuted) == out.total_executed(),
        "live kernels tap the same counters as simulated ones"
    );
}
