//! The invariant [`Auditor`](rips_audit::Auditor) across the whole golden roster, plus the
//! workspace-wide rips-lint gate.
//!
//! Three guarantees ride here:
//!
//! * every golden cell upholds the paper's invariants — Theorem 1 load
//!   balance and Theorem 2 migration minimality on each complete
//!   system phase, task/migration conservation, barrier pairing, and
//!   phase monotonicity (`Auditor::finish` returns no errors);
//! * auditing is purely observational: running under the auditor (even
//!   fanned out beside a `TraceBuffer`) leaves `RunStats` bit-for-bit
//!   identical with the untraced run;
//! * auditing costs nothing per task: the records the auditor is
//!   handed are bounded by nodes × system phases, migration batches and
//!   rounds;
//! * `rips lint` is clean on the workspace source, so the CI gate can
//!   never go red on a commit that passes `cargo test`.

use std::sync::Arc;

use rips_apps::{nqueens, NQueensConfig};
use rips_audit::lint_workspace;
use rips_bench::{auditor_for, registry, run_cell, run_scheduler};
use rips_taskgraph::{geometric_tree, Workload};
use rips_trace::{with_sink, EventKind, Tee, TraceBuffer};

/// Migration batches a recorded run sent.
fn migration_batches(buf: &TraceBuffer) -> usize {
    buf.records
        .iter()
        .filter(|r| r.event.kind() == EventKind::MigrateOut)
        .count()
}

fn queens9() -> Arc<Workload> {
    Arc::new(nqueens(NQueensConfig {
        n: 9,
        split_depth: 3,
        root_depth: 2,
        ns_per_node: 1800,
    }))
}

fn tree() -> Arc<Workload> {
    Arc::new(geometric_tree(6, 5, 3, 2500, 5))
}

/// The golden roster: same cells `tests/golden.rs` pins bit-for-bit.
fn cells() -> Vec<(&'static str, Arc<Workload>, usize, u64)> {
    vec![
        ("Random", queens9(), 8, 1),
        ("Gradient", queens9(), 8, 1),
        ("RID", queens9(), 8, 1),
        ("RIPS", queens9(), 8, 1),
        ("SID", queens9(), 8, 1),
        ("RID", tree(), 9, 3),
        ("RIPS", tree(), 9, 3),
        ("RIPS-H", queens9(), 8, 1),
        ("RIPS-H", tree(), 9, 3),
    ]
}

#[test]
fn every_golden_cell_upholds_the_paper_invariants() {
    for (sched, w, nodes, seed) in cells() {
        // The buffer beside the auditor counts the migration batches.
        let (Tee(buf, auditor), row) =
            with_sink(Tee(TraceBuffer::new(), auditor_for(sched, nodes)), || {
                run_scheduler(sched, &w, nodes, 0.4, seed)
            });
        let report = auditor.finish();
        assert!(
            report.is_ok(),
            "{sched} on {} ({nodes} nodes, seed {seed}) violates invariants:\n{}",
            w.name,
            report.errors.join("\n")
        );
        // The audit must agree with the run's own accounting.
        assert_eq!(
            report.executed,
            row.outcome.total_executed(),
            "{sched}: audited execution count diverges from RunStats"
        );
        assert_eq!(report.phases_incomplete, 0, "{sched}: phase lost loads");
        // Per node and system phase: begin, load, end; per node once
        // more: its totals and its round starts. Per migration batch:
        // out and in. Per round: the barrier. Nothing per task.
        let batches = migration_batches(&buf);
        let phases = row.outcome.system_phases as usize;
        let bound = 4 * nodes * (phases + 1) + 2 * batches + w.rounds.len();
        assert!(
            report.records as usize <= bound,
            "{sched}: {} records to the auditor, bound {bound}",
            report.records
        );
        if sched.starts_with("RIPS") {
            // The theorem checks must actually bite on RIPS cells: one
            // checked phase per system phase the run reported, with a
            // post-schedule spread within Theorem 1's bound.
            assert_eq!(
                report.phases_checked, row.outcome.system_phases as usize,
                "{sched}: audited phases diverge from the run's phase count"
            );
            assert!(report.phases_checked > 0, "{sched} ran no system phases");
            assert!(report.max_spread <= 1, "Theorem 1 spread escaped the check");
            if sched == "RIPS-H" {
                assert!(report.tiles > 1, "tiled audit mode was not active");
            }
        } else {
            // Baselines never enter a system phase; the theorem checks
            // are vacuous but conservation and barriers still held.
            assert_eq!(report.phases_checked, 0, "{sched} has system phases?");
        }
    }
}

/// The exact record budget, on a mesh large enough that tasks outnumber
/// everything else: three records per node and system phase (begin,
/// load, end — the halting phase is never ended), one totals record
/// per node, two per migration batch, one barrier. A per-task kind
/// creeping back into the auditor's interest adds four per node here.
/// (The CI scale-smoke job checks the looser `3·n·(phases + 1)`, which
/// needs no batch count.)
#[test]
fn audit_records_do_not_grow_with_tasks() {
    let n = 70 * 70;
    let reg = rips_bench::registry_with(rips_bench::RegistryTuning {
        rips: rips_core::RipsConfig {
            eureka: true,
            ..Default::default()
        },
    });
    let w = Arc::new(rips_taskgraph::skewed_flat(4 * n, 2_000, 64, 20, 1));
    let (Tee(buf, auditor), row) =
        with_sink(Tee(TraceBuffer::new(), auditor_for("RIPS", n)), || {
            run_cell(&reg, "RIPS", &w, n, 0.4, 1)
        });
    let report = auditor.finish();
    assert!(report.is_ok(), "{:?}", report.errors);
    assert_eq!(report.executed, row.tasks);
    let batches = migration_batches(&buf);
    let phases = row.outcome.system_phases as usize;
    assert_eq!(
        report.records as usize,
        3 * n * phases - n + n + 2 * batches + 1,
        "{phases} phases, {batches} batches on {n} nodes"
    );
}

#[test]
fn auditing_never_perturbs_the_simulation() {
    let w = queens9();
    let reg = registry();
    for s in reg.names() {
        let plain = run_cell(&reg, s, &w, 8, 0.4, 1);
        // Fan out to a TraceBuffer *and* the auditor — the worst-case
        // instrumentation a user can attach.
        let (sink, audited) = with_sink(Tee(TraceBuffer::new(), auditor_for(s, 8)), || {
            run_cell(&reg, s, &w, 8, 0.4, 1)
        });
        let Tee(buf, auditor) = sink;
        assert!(!buf.records.is_empty(), "{s}: tee starved the buffer");
        assert!(auditor.finish().is_ok(), "{s}: invariants violated");
        assert_eq!(
            plain.outcome.stats, audited.outcome.stats,
            "{s}: RunStats differ under audit"
        );
        assert_eq!(plain.outcome.executed, audited.outcome.executed, "{s}");
        assert_eq!(plain.outcome.nonlocal, audited.outcome.nonlocal, "{s}");
    }
}

#[test]
fn workspace_is_lint_clean() {
    // crates/bench -> workspace root.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let report = lint_workspace(root).expect("workspace walk");
    assert!(report.files_checked > 50, "walk missed the workspace");
    assert!(
        report.is_clean(),
        "rips-lint findings (fix or add a reasoned suppression):\n{}",
        report.render_human()
    );
}
