//! The invariant [`Auditor`](rips_audit::Auditor) across the whole golden roster, plus the
//! gate for the repo's compiler-enforced lints.
//!
//! Four guarantees ride here:
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
//! * the workspace is clean under the repo's rustc and clippy lints
//!   (RIPS-L000…L006, DESIGN §7), and what their configuration exempts
//!   is pinned, so tier-1 fails on every rule.

use std::path::Path;
use std::process::Command;
use std::sync::Arc;

use rips_apps::{nqueens, NQueensConfig};
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

/// The workspace root (`crates/bench` → `../..`).
fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
}

/// Runs `cargo clippy <args> -- -D warnings` at the workspace root in
/// `target_dir`, with `rustflags` as the only `RUSTFLAGS` and
/// `conf_dir` (if any) as `CLIPPY_CONF_DIR`, and fails the test with
/// clippy's diagnostics unless it is clean. The outer build's flags and
/// target directory are cleared so the nested run is the same command
/// whether `cargo test` ran plain, in release or under a sanitizer.
fn clippy_clean(target_dir: &str, rustflags: &str, conf_dir: Option<&str>, args: &[&str]) {
    let root = workspace_root();
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| env!("CARGO").into());
    let mut cmd = Command::new(cargo);
    cmd.current_dir(root)
        .args(["clippy", "--offline"])
        .args(args)
        .args(["--", "-D", "warnings"])
        .env("CARGO_TARGET_DIR", root.join(target_dir))
        .env("RUSTFLAGS", rustflags);
    for var in [
        "CARGO_ENCODED_RUSTFLAGS",
        "CARGO_BUILD_RUSTFLAGS",
        "CLIPPY_CONF_DIR",
    ] {
        cmd.env_remove(var);
    }
    if let Some(dir) = conf_dir {
        cmd.env("CLIPPY_CONF_DIR", root.join(dir));
    }
    let out = cmd.output().expect("cargo runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("no such command"),
        "cargo clippy is not installed (`rustup component add clippy`): the repo's \
         lints RIPS-L000…L006 are clippy and rustc lints, and this test is their gate\n{stderr}"
    );
    assert!(
        out.status.success(),
        "`cargo clippy {}` found lint errors (DESIGN §7 lists each rule):\n{stderr}",
        args.join(" ")
    );
}

/// The repo's lints (DESIGN §7) are rustc and clippy lints, so the gate
/// is clippy itself: RIPS-L000…L005 over every target of every member,
/// then RIPS-L006 over the two crates behind the model checker's sync
/// seam, with the seam switched to its instrumented types.
#[test]
fn workspace_is_lint_clean() {
    clippy_clean("target/clippy", "", None, &["--workspace", "--all-targets"]);
    clippy_clean(
        "target/verify",
        "--cfg rips_verify",
        Some("crates/verify/seam-lint"),
        &[
            "--no-deps",
            "-p",
            "rips-live",
            "-p",
            "rips-runtime",
            "--all-targets",
        ],
    );
}

/// Every file under `dir` (workspace-relative, `/`-separated), skipping
/// build output and dot-directories.
fn files_under(dir: &str) -> Vec<String> {
    let root = workspace_root();
    let mut files = Vec::new();
    let mut stack = vec![root.join(dir)];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("readable directory") {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            if path.is_dir() {
                if name != "target" && !name.starts_with('.') {
                    stack.push(path);
                }
            } else {
                let rel = path.strip_prefix(root).expect("under the root");
                files.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    files.sort();
    files
}

/// What the lint configuration exempts is pinned: a new `clippy.toml`
/// would silently replace the root's for its crate (clippy reads the
/// nearest one and does not merge), a second `allow(unsafe_code)` would
/// widen RIPS-L004's one exception, a member without `[lints] workspace
/// = true` would drop RIPS-L000/L004, and `benchmark/` sits outside the
/// workspace, so no lint reaches it.
#[test]
fn lint_scope_is_pinned() {
    let root = workspace_root();
    let files = files_under(".");
    let read = |path: &str| std::fs::read_to_string(root.join(path)).expect("readable file");

    let configs: Vec<&str> = files
        .iter()
        .map(String::as_str)
        .filter(|f| f.ends_with("clippy.toml"))
        .collect();
    assert_eq!(
        configs,
        [
            "clippy.toml",
            "crates/bench/clippy.toml",
            "crates/core/clippy.toml",
            "crates/live/clippy.toml",
            "crates/runtime/clippy.toml",
            "crates/sched/clippy.toml",
            "crates/verify/seam-lint/clippy.toml",
        ],
        "the clippy.toml set is RIPS-L001/L002/L006's scope (DESIGN §7)"
    );
    for (config, rules) in [
        ("clippy.toml", &["RIPS-L002"][..]),
        ("crates/sched/clippy.toml", &["RIPS-L001", "RIPS-L002"]),
        ("crates/runtime/clippy.toml", &["RIPS-L001", "RIPS-L002"]),
        ("crates/core/clippy.toml", &["RIPS-L001", "RIPS-L002"]),
        ("crates/verify/seam-lint/clippy.toml", &["RIPS-L006"]),
    ] {
        let text = read(config);
        for rule in rules {
            assert!(
                text.contains(&format!("reason = \"{rule}")),
                "{config} lost {rule}"
            );
        }
    }

    // Every attribute outside a comment that lowers `unsafe_code`
    // below deny, with what follows it.
    let mut lowered = Vec::new();
    for file in files.iter().filter(|f| f.ends_with(".rs")) {
        let code: String = read(file)
            .lines()
            .filter(|line| !line.trim_start().starts_with("//"))
            .flat_map(str::split_whitespace)
            .collect();
        for (at, _) in code.match_indices("unsafe_code") {
            let attr = &code[code[..at].rfind('#').unwrap_or(at)..];
            let level = attr.trim_start_matches(['#', '!', '[']);
            if ["allow(", "expect(", "warn("]
                .iter()
                .any(|l| level.starts_with(l))
            {
                let after = &attr[attr.find(']').map_or(attr.len(), |end| end + 1)..];
                lowered.push((file.as_str(), after.starts_with("pubmodring;")));
            }
        }
    }
    assert_eq!(
        lowered,
        [("crates/live/src/lib.rs", true)],
        "RIPS-L004: `unsafe_code` is allowed on `mod ring` in rips-live and nowhere else"
    );

    let manifests = files
        .iter()
        .filter(|f| f.ends_with("Cargo.toml") && !f.starts_with("benchmark/"));
    for manifest in manifests {
        let text = read(manifest);
        assert!(
            text.contains("[lints]\nworkspace = true\n"),
            "{manifest} does not opt into [workspace.lints] (RIPS-L000, RIPS-L004)"
        );
    }

    for file in files_under("benchmark/src") {
        assert!(
            !read(&file).contains("unsafe"),
            "RIPS-L004: {file} mentions `unsafe`; benchmark/ is outside the workspace, \
             so `[workspace.lints]` does not reach it"
        );
    }
}
