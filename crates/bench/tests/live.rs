//! Cross-backend validation: the live (real-threads) backend and the
//! simulator must agree on everything scheduling cannot change.
//!
//! For every scheduler in the roster, on N-Queens and a 15-puzzle
//! instance, at 2 and 4 threads:
//!
//! * both backends execute every task exactly once (conservation —
//!   `verify_complete` returns no `VerifyError`), and
//! * the live run's solution count and execution checksum equal the
//!   scheduler-independent static totals of the grain table — i.e.
//!   running the *real application* under real concurrency finds
//!   exactly the answers the sequential reference finds, no matter how
//!   the OS interleaved the threads.
//!
//! A separate test streams every roster scheduler's live trace through
//! the invariant [`Auditor`] and checks it is well-formed, and one
//! more runs RIPS-H under a non-default tuning through
//! [`live_run_with`].

use std::sync::Arc;

use rips_apps::{nqueens_with_grains, puzzle_with_grains, GrainTable, NQueensConfig, PuzzleConfig};
use rips_audit::Auditor;
use rips_bench::live::{live_opts, live_run, live_run_with};
use rips_bench::{registry, run_cell, RegistryTuning};
use rips_core::{GlobalPolicy, RipsConfig};
use rips_live::{GrainMode, LiveOpts};
use rips_taskgraph::Workload;
use rips_trace::{validate, with_sink, Tee, TraceBuffer, TraceEvent};

fn queens9() -> (Arc<Workload>, Arc<GrainTable>) {
    let (w, t) = nqueens_with_grains(NQueensConfig {
        n: 9,
        split_depth: 3,
        root_depth: 2,
        ns_per_node: 1800,
    });
    (Arc::new(w), Arc::new(t))
}

fn puzzle14() -> (Arc<Workload>, Arc<GrainTable>) {
    let (w, t) = puzzle_with_grains(PuzzleConfig {
        scramble_len: 14,
        seed: 5,
        min_tasks: 16,
        ns_per_node: 1000,
        split_divisor: 1024,
        split_floor_nodes: 20_000,
    });
    (Arc::new(w), Arc::new(t))
}

/// Runs the whole roster on both backends at `threads` nodes and checks
/// the cross-backend contract.
fn cross_validate(workload: &Arc<Workload>, table: &Arc<GrainTable>, threads: usize) {
    let reg = registry();
    let expected_tasks = workload.stats().tasks as u64;
    let truth = table.static_totals();
    for scheduler in reg.names() {
        // Simulator side: run_cell panics on any VerifyError.
        let sim = run_cell(&reg, scheduler, workload, threads, 0.4, 42);
        assert_eq!(
            sim.outcome.total_executed(),
            expected_tasks,
            "{scheduler} sim executed-count at {threads} nodes"
        );
        // Live side: live_run panics on any VerifyError.
        let opts = live_opts(table, GrainMode::Compute, 0.0);
        let live = live_run(scheduler, workload, threads, 0.4, 42, opts);
        let tag = format!("{scheduler} live at {threads} threads");
        assert_eq!(
            live.total_executed(),
            expected_tasks,
            "{tag} executed-count"
        );
        assert_eq!(live.solutions, truth.solutions, "{tag} solutions");
        assert_eq!(live.checksum, truth.checksum, "{tag} checksum");
    }
}

/// The only test that audits the live roster: for every roster
/// scheduler at 2 and 4 threads, the live trace must satisfy every
/// invariant the [`Auditor`] checks, be well-formed (what `rips live
/// --trace-out` checks before it writes the file), and the grains
/// must compute what the sequential reference computes.
#[test]
fn live_roster_passes_the_auditor_and_matches_ground_truth() {
    let (w, t) = queens9();
    let truth = t.static_totals();
    let reg = registry();
    for threads in [2usize, 4] {
        for scheduler in reg.names() {
            let opts = live_opts(&t, GrainMode::Compute, 0.0);
            let sink = Tee(Auditor::new(threads), TraceBuffer::new());
            let (Tee(auditor, buf), out) =
                with_sink(sink, || live_run(scheduler, &w, threads, 0.4, 42, opts));
            let report = auditor.finish();
            let tag = format!("{scheduler} at {threads} threads");
            assert!(report.is_ok(), "{tag}: audit failed: {:?}", report.errors);
            if let Err(e) = validate(&buf) {
                panic!("{tag}: malformed trace: {e}");
            }
            assert_eq!(out.solutions, truth.solutions, "{tag}: solutions");
            assert_eq!(out.checksum, truth.checksum, "{tag}: checksum");
        }
    }
}

/// `(round, task)` of every `TaskExec` record in `buf`, sorted, after
/// checking each record's grain is that task's in that round's forest.
fn executed_tasks(buf: &TraceBuffer, w: &Workload, tag: &str) -> Vec<(u32, u64)> {
    let mut seen: Vec<(u32, u64)> = buf
        .records
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::TaskExec {
                task,
                round,
                grain_us,
                ..
            } => {
                let forest = &w.rounds[round as usize];
                assert!(
                    task < forest.len() as u64,
                    "{tag}: task {task} of round {round}"
                );
                assert_eq!(grain_us, forest.grain(task as u32), "{tag}: grain");
                Some((round, task))
            }
            _ => None,
        })
        .collect();
    seen.sort_unstable();
    seen
}

/// A task instance carries no round: the kernel takes it from the
/// oracle. Over ida1's five IDA* iterations, every `TaskExec` record
/// names its task's round — each `(round, task)` of the workload
/// exactly once, with that task's grain — for the whole roster on the
/// simulator and on 2 live threads, and the live grains (run by round)
/// still match the ground truth.
#[test]
fn every_task_exec_carries_its_round() {
    let (w, t) = puzzle_with_grains(PuzzleConfig::paper(1));
    let (w, t) = (Arc::new(w), Arc::new(t));
    assert_eq!(w.rounds.len(), 5, "ida1 is five IDA* iterations");
    let all: Vec<(u32, u64)> = (0..w.rounds.len() as u32)
        .flat_map(|r| (0..w.rounds[r as usize].len() as u64).map(move |task| (r, task)))
        .collect();
    let truth = t.static_totals();
    let reg = registry();
    for scheduler in reg.names() {
        let (buf, _) = with_sink(TraceBuffer::new(), || {
            run_cell(&reg, scheduler, &w, 8, 0.4, 3)
        });
        let tag = format!("{scheduler} on desim");
        assert!(
            executed_tasks(&buf, &w, &tag) == all,
            "{tag}: (round, task) set"
        );
        let opts = live_opts(&t, GrainMode::Compute, 0.0);
        let (buf, out) = with_sink(TraceBuffer::new(), || {
            live_run(scheduler, &w, 2, 0.4, 3, opts)
        });
        let tag = format!("{scheduler} live at 2 threads");
        assert!(
            executed_tasks(&buf, &w, &tag) == all,
            "{tag}: (round, task) set"
        );
        assert_eq!(out.checksum, truth.checksum, "{tag}: checksum");
    }
}

/// `live_run_with` must carry its tuning into RIPS-H too (the CLI's
/// `--policy` used to reach plain RIPS only): under the ALL global
/// policy the run still conserves tasks and matches the ground truth.
#[test]
fn rips_h_runs_live_under_the_all_policy() {
    let (w, t) = queens9();
    let truth = t.static_totals();
    let tuning = RegistryTuning {
        rips: RipsConfig {
            global: GlobalPolicy::All,
            ..RipsConfig::default()
        },
    };
    let opts = live_opts(&t, GrainMode::Compute, 0.0);
    let out = live_run_with(tuning, "RIPS-H", &w, 4, 0.4, 42, opts);
    assert_eq!(out.total_executed(), w.stats().tasks as u64);
    assert_eq!(out.solutions, truth.solutions);
    assert_eq!(out.checksum, truth.checksum);
    assert!(out.system_phases >= 1, "RIPS-H opens with a system phase");
}

/// The simulator's registry and the live driver are one table: every
/// registered name is a name `live_run` knows (it panics on any other),
/// on a workload small enough to say so in milliseconds.
#[test]
fn every_registry_name_runs_live() {
    let toy = Arc::new(rips_taskgraph::flat_uniform(24, 20, 40, 3));
    for scheduler in registry().names() {
        let out = live_run(scheduler, &toy, 2, 0.4, 7, LiveOpts::default());
        assert_eq!(out.total_executed(), 24, "{scheduler}");
    }
}

#[test]
fn queens9_roster_agrees_at_2_threads() {
    let (w, t) = queens9();
    assert_eq!(t.static_totals().solutions, 352, "9-queens ground truth");
    cross_validate(&w, &t, 2);
}

#[test]
fn queens9_roster_agrees_at_4_threads() {
    let (w, t) = queens9();
    cross_validate(&w, &t, 4);
}

#[test]
fn puzzle_roster_agrees_at_2_threads() {
    let (w, t) = puzzle14();
    assert!(t.static_totals().solutions >= 1, "puzzle must be solved");
    cross_validate(&w, &t, 2);
}

#[test]
fn puzzle_roster_agrees_at_4_threads() {
    let (w, t) = puzzle14();
    cross_validate(&w, &t, 4);
}

#[test]
fn live_solutions_stable_across_seeds_and_modes() {
    // Different seeds (different migration patterns) and the timed
    // grain mode must not change what the application computes.
    let (w, t) = queens9();
    let truth = t.static_totals();
    for seed in [1u64, 7, 1234] {
        let out = live_run(
            "RIPS",
            &w,
            4,
            0.4,
            seed,
            live_opts(&t, GrainMode::Compute, 0.0),
        );
        assert_eq!(out.solutions, truth.solutions, "seed {seed}");
        assert_eq!(out.checksum, truth.checksum, "seed {seed}");
    }
    // Timed mode at a tiny scale: same answers, nonzero wall time.
    let out = live_run("RID", &w, 2, 0.4, 3, live_opts(&t, GrainMode::Timed, 0.001));
    assert_eq!(out.solutions, truth.solutions);
    assert!(out.wall_us > 0);
}
