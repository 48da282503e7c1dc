//! Live-backend experiment driver: runs any roster scheduler on real
//! OS threads (one per node) with real application grains, for
//! cross-validation against the simulator (`rips live`, the
//! `live-smoke` CI job) and the benchmark's wall-clock speedup.
//!
//! The scheduler roster here is *the same* as [`registry`](crate::registry):
//! both are built from the one `roster` table, so every cross-backend
//! comparison runs identical policy code on both backends.

use std::sync::Arc;

use rips_apps::GrainTable;
use rips_live::{GrainMode, GrainResult, GrainRunner, LiveOpts, LiveOutcome};
use rips_runtime::TaskInstance;
use rips_taskgraph::Workload;

use crate::roster::{Cell, ROSTER};
use crate::RegistryTuning;

/// Adapts an app [`GrainTable`] to the live backend's [`GrainRunner`]
/// contract: each executed task runs its recorded real computation.
pub struct TableRunner(pub Arc<GrainTable>);

impl GrainRunner for TableRunner {
    fn run(&self, round: u32, inst: &TaskInstance) -> GrainResult {
        let out = self.0.run(round, inst.task);
        GrainResult {
            checksum: out.checksum,
            solutions: out.solutions,
        }
    }
}

/// Builds [`LiveOpts`] running grains out of `table`.
pub fn live_opts(table: &Arc<GrainTable>, mode: GrainMode, timed_scale: f64) -> LiveOpts {
    LiveOpts {
        mode,
        timed_scale,
        runner: Arc::new(TableRunner(Arc::clone(table))),
        ..LiveOpts::default()
    }
}

/// Runs one roster scheduler (by its [`registry`](crate::registry)
/// name) on the live backend with paper-default tuning; see
/// [`live_run_with`].
pub fn live_run(
    scheduler: &str,
    workload: &Arc<Workload>,
    threads: usize,
    rid_u: f64,
    seed: u64,
    opts: LiveOpts,
) -> LiveOutcome {
    let t = RegistryTuning::default();
    live_run_with(t, scheduler, workload, threads, rid_u, seed, opts)
}

/// Runs one roster scheduler on the live backend with explicit tuning
/// (the live counterpart of [`registry_with`](crate::registry_with)):
/// `threads` OS threads over the same near-square mesh the simulator
/// uses, default costs. For RIPS and RIPS-H the outcome's
/// `system_phases` is filled from the fleet; it stays 0 for the
/// baselines, like the simulator's `RunOutcome`.
///
/// # Panics
/// If `scheduler` is not a roster name, or the run lost or duplicated
/// tasks.
pub fn live_run_with(
    t: RegistryTuning,
    scheduler: &str,
    workload: &Arc<Workload>,
    threads: usize,
    rid_u: f64,
    seed: u64,
    opts: LiveOpts,
) -> LiveOutcome {
    let (_, fleet) = ROSTER
        .iter()
        .find(|(name, _)| *name == scheduler)
        .unwrap_or_else(|| panic!("unknown scheduler {scheduler:?}"));
    let cell = Cell {
        tuning: t,
        nodes: threads,
        rid_u,
    };
    let out = fleet(&cell).on_live(Arc::clone(workload), seed, opts);
    out.verify_complete(workload)
        .unwrap_or_else(|e| panic!("{scheduler} live on {}: {e}", workload.name));
    out
}
