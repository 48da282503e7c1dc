//! Registry-generic trace well-formedness and zero-cost guarantees.
//!
//! Every scheduler in the canonical roster must (a) produce a
//! well-formed trace when a sink is installed — balanced and properly
//! nested spans, monotone per-node span timestamps, strictly
//! increasing system-phase indices — and (b) produce *bit-identical
//! results* whether or not it is being traced: instrumentation must
//! observe the simulation, never perturb it. The golden digests pin
//! the untraced path across commits; this file pins traced == untraced
//! within a commit. RIPS's trace must be well-formed under every local
//! × global mode, and the phase report's JSONL is pinned by digest.

use std::sync::Arc;

use rips_apps::{nqueens, NQueensConfig};
use rips_bench::{registry, registry_with, run_cell, App, RegistryTuning};
use rips_core::{GlobalPolicy, LocalPolicy, RipsConfig};
use rips_taskgraph::geometric_tree;
use rips_trace::{validate, with_sink, PhaseReport, TraceBuffer, TraceEvent};

fn small_queens() -> Arc<rips_taskgraph::Workload> {
    Arc::new(nqueens(NQueensConfig {
        n: 9,
        split_depth: 3,
        root_depth: 2,
        ns_per_node: 1800,
    }))
}

#[test]
fn every_scheduler_emits_a_well_formed_trace() {
    let w = small_queens();
    let reg = registry();
    let tasks = w.stats().tasks as u64;
    for s in reg.names() {
        let (buf, row) = with_sink(TraceBuffer::new(), || run_cell(&reg, s, &w, 8, 0.4, 1));
        assert!(!buf.records.is_empty(), "{s}: no events recorded");
        assert!(buf.num_nodes() <= 8, "{s}: event from out-of-range node");
        let check = validate(&buf).unwrap_or_else(|e| panic!("{s}: malformed trace: {e}"));
        assert_eq!(
            check.task_execs as u64,
            row.outcome.total_executed(),
            "{s}: one TaskExec per executed task"
        );
        assert_eq!(check.task_execs as u64, tasks, "{s}: all tasks traced");
        // Every scheduler runs through the policy kernel, so queue
        // activity must be visible regardless of balancing strategy.
        assert!(
            buf.records
                .iter()
                .any(|r| matches!(r.event, TraceEvent::QueueDepth { .. })),
            "{s}: no queue-depth samples"
        );
    }
}

#[test]
fn rips_trace_has_phases_and_stages() {
    let w = small_queens();
    let reg = registry();
    let (buf, row) = with_sink(TraceBuffer::new(), || run_cell(&reg, "RIPS", &w, 8, 0.4, 1));
    let check = validate(&buf).expect("well-formed");
    assert!(check.closed_phases > 0, "RIPS must close phase spans");
    if row.outcome.system_phases > 0 {
        assert!(check.closed_stages > 0, "system phases have sub-stages");
    }
    // The machine halts inside the final termination phase: whatever is
    // still open is bounded by one phase span per node.
    assert!(check.open_spans <= 8, "at most one open span per node");
}

#[test]
fn tracing_never_perturbs_the_simulation() {
    let w = small_queens();
    let reg = registry();
    for s in reg.names() {
        let plain = run_cell(&reg, s, &w, 8, 0.4, 1);
        let (_buf, traced) = with_sink(TraceBuffer::new(), || run_cell(&reg, s, &w, 8, 0.4, 1));
        assert_eq!(
            plain.outcome.stats, traced.outcome.stats,
            "{s}: RunStats differ under tracing"
        );
        assert_eq!(plain.outcome.executed, traced.outcome.executed, "{s}");
        assert_eq!(plain.outcome.nonlocal, traced.outcome.nonlocal, "{s}");
        assert_eq!(
            plain.outcome.system_phases, traced.outcome.system_phases,
            "{s}"
        );
    }
}

#[test]
fn chrome_export_balances_spans_for_a_real_run() {
    let w = small_queens();
    let reg = registry();
    let (buf, row) = with_sink(TraceBuffer::new(), || run_cell(&reg, "RIPS", &w, 8, 0.4, 1));
    let json = buf.chrome_json("RIPS · queens9", row.outcome.stats.end_time);
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.ends_with("\"displayTimeUnit\":\"ms\"}"));
    // The exporter closes halt-open spans at end_time, so B and E
    // always balance in the emitted JSON.
    assert_eq!(
        json.matches("\"ph\":\"B\"").count(),
        json.matches("\"ph\":\"E\"").count(),
        "unbalanced B/E in export"
    );
    assert!(json.contains("\"ph\":\"X\""), "no task spans");
    assert!(json.contains("\"ph\":\"M\""), "no metadata track names");
}

/// The registry with RIPS under one local × global policy pair.
fn rips_mode(local: LocalPolicy, global: GlobalPolicy) -> rips_runtime::SchedulerRegistry {
    let rips = RipsConfig {
        local,
        global,
        ..RipsConfig::default()
    };
    registry_with(RegistryTuning { rips })
}

/// The roster runs RIPS only as ANY-Lazy; the phase report relies on
/// the stack discipline under every other mode too, the periodic
/// trigger included. Same cells as the golden mode pins.
#[test]
fn every_rips_mode_emits_a_well_formed_trace() {
    let modes = [
        (LocalPolicy::Eager, GlobalPolicy::Any),
        (LocalPolicy::Lazy, GlobalPolicy::All),
        (LocalPolicy::Eager, GlobalPolicy::All),
        (LocalPolicy::Lazy, GlobalPolicy::Periodic(2_000)),
    ];
    let tree = Arc::new(geometric_tree(6, 5, 3, 2500, 5));
    for (local, global) in modes {
        let reg = rips_mode(local, global);
        for (w, nodes, seed) in [(small_queens(), 8, 1), (Arc::clone(&tree), 9, 3)] {
            let cell = || run_cell(&reg, "RIPS", &w, nodes, 0.4, seed);
            let (buf, row) = with_sink(TraceBuffer::new(), cell);
            let check = validate(&buf)
                .unwrap_or_else(|e| panic!("{local:?}-{global:?} on {}: {e}", w.name));
            assert_eq!(check.task_execs as u64, row.outcome.total_executed());
            assert!(check.closed_phases > 0, "{local:?}-{global:?}: no phases");
        }
    }
}

/// FNV-1a over the bytes of `text`.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digests of the JSONL `rips run <scheduler> queens9 --nodes 8
/// --report jsonl` prints (RIPS also under `--policy any-eager|all-lazy|all-eager`), taken
/// when the report still aggregated a full `TraceBuffer` after the
/// run. The streaming report must print the same bytes.
#[test]
fn phase_report_jsonl_is_pinned() {
    use GlobalPolicy::{All, Any};
    use LocalPolicy::{Eager, Lazy};
    const PINS: [(&str, LocalPolicy, GlobalPolicy, u64); 9] = [
        ("Random", Lazy, Any, 0x2eb5_86bc_eaed_f77c),
        ("Gradient", Lazy, Any, 0xd53e_42d3_1c3b_4bd3),
        ("RID", Lazy, Any, 0x621e_f5eb_e3fd_3ef7),
        ("RIPS", Lazy, Any, 0x6da8_5247_b6e3_cbe5),
        ("RIPS-H", Lazy, Any, 0x1964_c02a_a34e_8aaf),
        ("SID", Lazy, Any, 0x6eb9_c75e_99b9_634f),
        ("RIPS", Eager, Any, 0x1326_26bc_ea42_b271),
        ("RIPS", Lazy, All, 0x1ff5_04aa_7009_3ade),
        ("RIPS", Eager, All, 0x4de3_052f_3859_c3e3),
    ];
    let w = Arc::new(App::Queens(9).build());
    let names: Vec<&str> = PINS[..6].iter().map(|&(s, ..)| s).collect();
    assert_eq!(names, registry().names(), "one pin per roster scheduler");
    for (s, local, global, pin) in PINS {
        let reg = rips_mode(local, global);
        let (mut report, row) =
            with_sink(PhaseReport::default(), || run_cell(&reg, s, &w, 8, 0.4, 1));
        report.close_at(row.outcome.stats.end_time);
        let jsonl = report.to_jsonl();
        assert_eq!(
            fnv(&jsonl),
            pin,
            "{s} {local:?}-{global:?}: report changed:\n{jsonl}"
        );
    }
}
