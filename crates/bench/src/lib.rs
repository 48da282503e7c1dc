//! Shared experiment drivers and what `rips repro` and `rips bench
//! scale` run.
//!
//! [`repro::ARTIFACTS`] has one row per paper artifact (`rips repro
//! --list` prints it; DESIGN.md §4 maps rows to the paper), and
//! [`scale`] is the machine-size sweep that writes
//! `BENCH_DESIM.scaling.json`. Both are plain functions over the
//! drivers here: the [`App`] catalog, the scheduler [`registry`],
//! [`run_cell`] / [`run_table`], and [`rips_taskgraph::par_map`] for
//! every fan-out.

pub mod args;
pub mod eval;
pub mod live;
mod optimal;
mod render;
pub mod repro;
mod roster;
pub mod scale;
mod timeline;

use std::sync::Arc;

use rips_apps::{
    gromos, gromos_with_grains, nqueens, nqueens_with_grains, puzzle, puzzle_with_grains,
    GrainTable, GromosConfig, NQueensConfig, PuzzleConfig,
};
use rips_audit::Auditor;
use rips_core::{RipsConfig, RID_U};
use rips_desim::LatencyModel;
use rips_runtime::{Costs, PhaseLog, RunOutcome, RunSpec, SchedulerRegistry};
use rips_sched::TileGrid;
use rips_taskgraph::{par_map, Workload};
use rips_topology::Mesh2D;

/// The workload catalog: the nine Table I instances plus the
/// sub-paper sizes the smoke tests use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum App {
    /// Exhaustive N-Queens search.
    Queens(u32),
    /// IDA\* 15-puzzle, paper configuration 1–3.
    Ida(u32),
    /// GROMOS-like MD at the given cutoff (Å).
    Gromos(f64),
}

impl App {
    /// Every name `rips apps` lists and [`App::from_name`] accepts.
    pub fn names() -> Vec<String> {
        let queens = (9..=15).map(|n| format!("queens{n}"));
        let ida = (1..=3).map(|c| format!("ida{c}"));
        let gromos = [8, 12, 16].map(|r| format!("gromos{r}"));
        queens.chain(ida).chain(gromos).collect()
    }

    /// Looks a catalog name (`queens13`, `ida2`, `gromos16`) up.
    pub fn from_name(name: &str) -> Option<App> {
        if !App::names().iter().any(|n| n == name) {
            return None;
        }
        let digits = name.trim_start_matches(|c: char| c.is_ascii_alphabetic());
        let n: u32 = digits.parse().ok()?;
        Some(match &name[..name.len() - digits.len()] {
            "queens" => App::Queens(n),
            "ida" => App::Ida(n),
            _ => App::Gromos(n.into()),
        })
    }

    /// Table I's rows, in paper order.
    pub fn paper_set() -> Vec<App> {
        vec![
            App::Queens(13),
            App::Queens(14),
            App::Queens(15),
            App::Ida(1),
            App::Ida(2),
            App::Ida(3),
            App::Gromos(8.0),
            App::Gromos(12.0),
            App::Gromos(16.0),
        ]
    }

    /// Table III's subset: the largest instance of each family.
    pub fn table3_set() -> Vec<App> {
        vec![App::Queens(15), App::Ida(3), App::Gromos(16.0)]
    }

    /// Paper row label.
    pub fn label(&self) -> String {
        match self {
            App::Queens(n) => format!("{n}-Queens"),
            App::Ida(c) => format!("IDA* config #{c}"),
            App::Gromos(r) => format!("GROMOS ({r} A)"),
        }
    }

    /// The N-Queens configuration for `n`: the paper's, except that
    /// the sub-paper boards (n ≤ 10: smoke tests, CI traces) split one
    /// level shallower so the task count stays proportionate.
    fn queens_config(n: u32) -> NQueensConfig {
        NQueensConfig {
            split_depth: if n <= 10 { 3 } else { 4 },
            ..NQueensConfig::paper(n)
        }
    }

    /// Builds the workload (expensive: runs the real application, on
    /// every host core — so build one at a time, not inside a
    /// [`par_map`]).
    pub fn build(&self) -> Workload {
        match *self {
            App::Queens(n) => nqueens(App::queens_config(n)),
            App::Ida(c) => puzzle(PuzzleConfig::paper(c)),
            App::Gromos(r) => gromos(GromosConfig::paper(r)),
        }
    }

    /// Builds the workload together with the grain table that executes
    /// it for real (the live counterpart of [`App::build`]).
    pub fn build_live(&self) -> (Workload, GrainTable) {
        match *self {
            App::Queens(n) => nqueens_with_grains(App::queens_config(n)),
            App::Ida(c) => puzzle_with_grains(PuzzleConfig::paper(c)),
            App::Gromos(r) => gromos_with_grains(GromosConfig::paper(r)),
        }
    }

    /// The RID load-update factor the paper uses for this app/machine
    /// size: [`RID_U`] (0.4) everywhere except IDA\* on ≥ 64
    /// processors (0.7).
    pub fn rid_u(&self, nodes: usize) -> f64 {
        match self {
            App::Ida(_) if nodes >= 64 => 0.7,
            _ => RID_U,
        }
    }
}

/// One scheduler's measured Table I row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Scheduler name as printed.
    pub scheduler: String,
    /// Total tasks in the workload.
    pub tasks: u64,
    /// The measured outcome.
    pub outcome: RunOutcome,
    /// RIPS phase log (empty for the baselines).
    pub phases: Vec<PhaseLog>,
}

/// Tuning for the canonical registry. RIPS's configuration is the one
/// the paper varies; the baselines run at the paper's constants (RID's
/// update factor travels with the cell, [`RunSpec::rid_u`]).
/// [`RegistryTuning::default`] reproduces the paper's settings.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RegistryTuning {
    /// RIPS policy configuration.
    pub rips: RipsConfig,
}

/// The canonical scheduler roster with paper-default tuning: the four
/// Table I schedulers in paper order, plus RIPS-H (RIPS on the
/// hierarchical tiled planner, for large meshes) and SID (the
/// `sid_vs_rid` counterpart). Everything that enumerates schedulers —
/// the grid, the golden tests, the `rips` CLI — goes through this
/// table.
pub fn registry() -> SchedulerRegistry {
    registry_with(RegistryTuning::default())
}

/// Resolves a scheduler name, case-insensitively, to the roster's
/// spelling (`rips-h` → `RIPS-H`).
pub fn roster_name(name: &str) -> Option<String> {
    let mut names = roster::ROSTER.iter().map(|&(n, _)| n);
    let found = names.find(|n| n.eq_ignore_ascii_case(name));
    found.map(str::to_string)
}

/// The canonical roster with explicit tuning (ablation support): one
/// simulator constructor per row of the crate's one roster table (the
/// same table [`live::live_run_with`] looks its schedulers up in).
pub fn registry_with(t: RegistryTuning) -> SchedulerRegistry {
    let mut reg = SchedulerRegistry::new();
    for &(name, fleet) in roster::ROSTER {
        let ctor = move |s: &RunSpec| {
            let cell = roster::Cell {
                tuning: t,
                nodes: s.nodes,
                rid_u: s.rid_u,
            };
            fleet(&cell).on_desim(s)
        };
        reg.register(name, Box::new(ctor));
    }
    reg
}

/// The paper's machine model for one run: Paragon latency, default
/// costs. Every simulated cell in the repo starts from this spec
/// (ablations override a field with struct-update syntax).
pub fn paper_spec(workload: &Arc<Workload>, nodes: usize, rid_u: f64, seed: u64) -> RunSpec {
    RunSpec {
        workload: Arc::clone(workload),
        nodes,
        latency: LatencyModel::paragon(),
        costs: Costs::default(),
        seed,
        rid_u,
    }
}

/// Runs one registry cell under [`paper_spec`] and verifies work
/// conservation.
///
/// # Panics
/// If `scheduler` is not registered, or the run lost or duplicated
/// tasks.
pub fn run_cell(
    reg: &SchedulerRegistry,
    scheduler: &str,
    workload: &Arc<Workload>,
    nodes: usize,
    rid_u: f64,
    seed: u64,
) -> Row {
    run_spec(reg, scheduler, &paper_spec(workload, nodes, rid_u, seed))
}

/// Runs one registry cell under an explicit spec and verifies work
/// conservation (see [`run_cell`]).
pub fn run_spec(reg: &SchedulerRegistry, scheduler: &str, spec: &RunSpec) -> Row {
    let workload = &spec.workload;
    let run = reg.run(scheduler, spec);
    run.outcome
        .verify_complete(workload)
        .unwrap_or_else(|e| panic!("{scheduler} on {}: {e}", workload.name));
    Row {
        scheduler: scheduler.to_string(),
        tasks: workload.stats().tasks as u64,
        outcome: run.outcome,
        phases: run.phases,
    }
}

/// Builds `apps` one after another (each build spreads over the host
/// by itself), shared by reference count so one build serves a whole
/// scheduler grid.
pub fn build_set(apps: &[App]) -> Vec<Arc<Workload>> {
    apps.iter().map(|app| Arc::new(app.build())).collect()
}

/// Runs the full Table I grid — every workload × every scheduler.
/// Workloads are built once and shared across their scheduler runs.
pub fn run_table(apps: &[App], nodes: usize, seed: u64) -> Vec<(App, Vec<Row>)> {
    run_grid(apps, &build_set(apps), nodes, seed)
}

/// [`run_table`] over workloads already built (`workloads[i]` is
/// `apps[i]`'s): the `apps × schedulers` cells drain through
/// [`par_map`]. Each cell is a single-threaded, seed-deterministic
/// job, so the rows are independent of worker scheduling.
pub fn run_grid(
    apps: &[App],
    workloads: &[Arc<Workload>],
    nodes: usize,
    seed: u64,
) -> Vec<(App, Vec<Row>)> {
    let reg = registry();
    let schedulers = reg.names();
    // The registry is shared by reference — constructors are
    // `Send + Sync`.
    let cells: Vec<(usize, &str)> = (0..apps.len())
        .flat_map(|a| schedulers.iter().map(move |&s| (a, s)))
        .collect();
    let rows = par_map(&cells, |&(a, s)| {
        run_cell(&reg, s, &workloads[a], nodes, apps[a].rid_u(nodes), seed)
    });
    let mut rows = rows.into_iter();
    let per_app = apps
        .iter()
        .map(|&app| (app, rows.by_ref().take(schedulers.len()).collect()));
    per_app.collect()
}

/// The invariant auditor for one scheduler's run on `nodes`
/// processors. RIPS-H runs get the tiling-aware auditor (per-tile
/// Theorem 1, Lemma 1 as a lower bound) built from the same
/// decomposition the planner uses.
pub fn auditor_for(scheduler: &str, nodes: usize) -> Auditor {
    if scheduler == "RIPS-H" {
        let mesh = Mesh2D::near_square(nodes);
        Auditor::with_tiles(nodes, TileGrid::new(&mesh).assignment())
    } else {
        Auditor::new(nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{quality_factor, speedup};

    #[test]
    fn paper_set_has_nine_rows() {
        assert_eq!(App::paper_set().len(), 9);
    }

    #[test]
    fn rid_u_follows_paper_rules() {
        assert_eq!(App::Queens(15).rid_u(128), 0.4);
        assert_eq!(App::Ida(3).rid_u(32), 0.4);
        assert_eq!(App::Ida(3).rid_u(64), 0.7);
    }

    #[test]
    fn labels_match_paper_wording() {
        assert_eq!(App::Queens(13).label(), "13-Queens");
        assert_eq!(App::Ida(2).label(), "IDA* config #2");
        assert_eq!(App::Gromos(16.0).label(), "GROMOS (16 A)");
    }

    #[test]
    fn catalog_names_resolve_to_stable_labels() {
        let labels: Vec<String> = App::names()
            .iter()
            .map(|n| App::from_name(n).expect("catalog name").label())
            .collect();
        assert_eq!(
            labels,
            [
                "9-Queens",
                "10-Queens",
                "11-Queens",
                "12-Queens",
                "13-Queens",
                "14-Queens",
                "15-Queens",
                "IDA* config #1",
                "IDA* config #2",
                "IDA* config #3",
                "GROMOS (8 A)",
                "GROMOS (12 A)",
                "GROMOS (16 A)",
            ]
        );
        for bad in ["queens8", "queens", "ida4", "gromos9", "13", ""] {
            assert_eq!(App::from_name(bad), None, "{bad}");
        }
    }

    #[test]
    fn sub_paper_queens_split_shallow() {
        for n in [9, 10] {
            let c = App::queens_config(n);
            assert_eq!((c.split_depth, c.root_depth), (3, 2), "queens{n}");
        }
        assert_eq!(App::queens_config(11), NQueensConfig::paper(11));
        assert_eq!(App::queens_config(15), NQueensConfig::paper(15));
    }

    #[test]
    fn small_grid_runs_end_to_end() {
        // A miniature Table I cell: tiny queens instance, every
        // registered scheduler, 8 nodes.
        let w = Arc::new(App::Queens(9).build());
        let reg = registry();
        assert_eq!(
            reg.names(),
            vec!["Random", "Gradient", "RID", "RIPS", "RIPS-H", "SID"]
        );
        for s in reg.names() {
            let row = run_cell(&reg, s, &w, 8, 0.4, 1);
            assert_eq!(row.outcome.total_executed(), w.stats().tasks as u64);
        }
    }

    #[test]
    fn quality_factor_baseline_is_one() {
        assert_eq!(quality_factor(0.99, 0.65, 0.65), 1.0);
    }

    #[test]
    fn quality_factor_orders_schedulers() {
        let better = quality_factor(0.99, 0.65, 0.95);
        let worse = quality_factor(0.99, 0.65, 0.25);
        assert!(better > 1.0);
        assert!(worse < 1.0);
        assert!(better > worse);
    }

    #[test]
    fn quality_factor_saturates_at_optimum() {
        assert!(quality_factor(0.99, 0.65, 0.99).is_infinite());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn quality_factor_rejects_garbage() {
        quality_factor(1.4, 0.5, 0.5);
    }

    #[test]
    fn speedup_simple() {
        assert_eq!(speedup(1000, 100), 10.0);
    }
}
