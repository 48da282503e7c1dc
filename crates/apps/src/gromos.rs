//! GROMOS-like molecular-dynamics force workload.
//!
//! The paper runs GROMOS on the bovine superoxide dismutase molecule
//! (SOD, 6 968 atoms) with cutoff radii of 8, 12 and 16 Å. We do not
//! have the proprietary coordinates, so we build a synthetic globule of
//! the same size and density (see DESIGN.md §2): what the paper needs
//! from GROMOS is only its *load profile* — a fixed number of processes
//! ("the number of processes is known with the given input data") with
//! nonuniform, spatially correlated computation densities ("the
//! computation density in each process varies").
//!
//! Tasks are atom groups (≈1.4 atoms each, giving the paper's 4 986
//! tasks); a task's grain is its half-shell pair count within the
//! cutoff, found by a real neighbour search over x–y columns.

use std::sync::Arc;

use crate::live::{GrainSpec, GrainTable, GromosCtx};
use crate::{grain_us, host_workers, WorkersFor};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use rips_taskgraph::{par_map_with, TaskForest, Workload};

/// Parameters for the GROMOS-like workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GromosConfig {
    /// Number of atoms (the paper's SOD has 6 968).
    pub atoms: usize,
    /// Number of atom-group tasks (the paper reports 4 986 for every
    /// cutoff).
    pub groups: usize,
    /// Nonbonded cutoff radius in Å (8, 12, 16 in Table I).
    pub cutoff: f64,
    /// MD steps simulated; each is one workload round with a barrier.
    pub steps: usize,
    /// Virtual nanoseconds per atom pair (calibrated in EXPERIMENTS.md
    /// to the paper's per-task grains: ~56 s sequential at 8 Å).
    pub ns_per_pair: u64,
    /// Position RNG seed.
    pub seed: u64,
}

impl GromosConfig {
    /// Paper-faithful configuration at the given cutoff radius.
    pub fn paper(cutoff_angstrom: f64) -> Self {
        GromosConfig {
            atoms: 6968,
            groups: 4986,
            cutoff: cutoff_angstrom,
            steps: 3,
            ns_per_pair: 32_000,
            seed: 2206,
        }
    }
}

/// Synthetic SOD stand-in: `n` atoms uniformly filling a sphere whose
/// radius gives protein-like density (~0.095 atoms/Å³), plus a little
/// clustering noise. Deterministic under `seed`. The atoms come back
/// sorted by z, then y, then x, so index order is spatial and a run of
/// consecutive atoms is a slab of the molecule, like a GROMOS charge
/// group; [`half_pair_counts`] relies on the z order.
pub fn synthetic_protein(n: usize, seed: u64) -> Vec<[f64; 3]> {
    // radius so that n / (4/3 π r³) ≈ 0.095 atoms/Å³.
    let radius = (3.0 * n as f64 / (4.0 * std::f64::consts::PI * 0.095)).cbrt();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut atoms = Vec::with_capacity(n);
    while atoms.len() < n {
        let p = [
            rng.random_range(-radius..radius),
            rng.random_range(-radius..radius),
            rng.random_range(-radius..radius),
        ];
        if p[0] * p[0] + p[1] * p[1] + p[2] * p[2] <= radius * radius {
            atoms.push(p);
        }
    }
    atoms.sort_by(|a, b| {
        (a[2], a[1], a[0])
            .partial_cmp(&(b[2], b[1], b[0]))
            .expect("finite coordinates")
    });
    atoms
}

/// How far past `cutoff` (relative) a z window reaches. A pair in
/// range has `fl(dz²) ≤ d2 ≤ cut2`, since every term of `d2` is
/// non-negative and rounding is monotone, so the window up to
/// `z_i + cutoff` holds every hit except where `fl(dz²) == cut2` while
/// `|dz|` is a hair over `cutoff` (0.7946 and 8.7946 at 8 Å). That
/// hair is a few ulps; the slack is millions of them.
const Z_SLACK: f64 = 1e-9;

/// A cell list whose cells are x–y columns: square, of side `cutoff`,
/// over the atoms' bounding box, unbounded in z. Stored CSR-style:
/// column `c` owns slots `start[c]..start[c + 1]`, and each slot holds
/// an atom's index and coordinates, in index order. An atom's in-range
/// neighbours all sit in its own column or the 8 around it; since
/// index order is z order, those with a higher index form one
/// contiguous run per column.
struct Columns<'a> {
    atoms: &'a [[f64; 3]],
    cutoff: f64,
    min: [f64; 2],
    dims: [usize; 2],
    start: Vec<usize>,
    ids: Vec<usize>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    zs: Vec<f64>,
}

impl<'a> Columns<'a> {
    fn new(atoms: &'a [[f64; 3]], cutoff: f64) -> Self {
        assert!(cutoff > 0.0, "cutoff must be positive");
        assert!(
            atoms.windows(2).all(|w| w[0][2] <= w[1][2]),
            "atoms must be sorted by z"
        );
        let mut min = [f64::INFINITY; 2];
        let mut max = [f64::NEG_INFINITY; 2];
        for a in atoms {
            for d in 0..2 {
                min[d] = min[d].min(a[d]);
                max[d] = max[d].max(a[d]);
            }
        }
        let dims = [0, 1].map(|d| (((max[d] - min[d]) / cutoff).floor() as usize + 1).max(1));
        let mut cols = Columns {
            atoms,
            cutoff,
            min,
            dims,
            start: vec![0; dims[0] * dims[1] + 1],
            ids: vec![0; atoms.len()],
            xs: vec![0.0; atoms.len()],
            ys: vec![0.0; atoms.len()],
            zs: vec![0.0; atoms.len()],
        };
        // Counting sort by column; stable, so each column keeps index
        // (and so z) order.
        let column: Vec<usize> = atoms
            .iter()
            .map(|a| {
                let [ix, iy] = cols.column_of(a);
                ix * dims[1] + iy
            })
            .collect();
        for &c in &column {
            cols.start[c + 1] += 1;
        }
        for c in 1..cols.start.len() {
            cols.start[c] += cols.start[c - 1];
        }
        let mut next = cols.start.clone();
        for (i, (a, &c)) in atoms.iter().zip(&column).enumerate() {
            let slot = next[c];
            next[c] += 1;
            cols.ids[slot] = i;
            cols.xs[slot] = a[0];
            cols.ys[slot] = a[1];
            cols.zs[slot] = a[2];
        }
        cols
    }

    /// Grid coordinates of the column holding `a`.
    fn column_of(&self, a: &[f64; 3]) -> [usize; 2] {
        [0, 1].map(|d| (((a[d] - self.min[d]) / self.cutoff) as usize).min(self.dims[d] - 1))
    }

    /// Number of *higher-indexed* atoms within the cutoff of atom `i`.
    fn half_count(&self, i: usize) -> u64 {
        let a = &self.atoms[i];
        let cut2 = self.cutoff * self.cutoff;
        let z_max = a[2] + self.cutoff * (1.0 + Z_SLACK);
        let [cx, cy] = self.dims;
        let [ix, iy] = self.column_of(a);
        let mut count = 0u64;
        for jx in ix.saturating_sub(1)..=(ix + 1).min(cx - 1) {
            for jy in iy.saturating_sub(1)..=(iy + 1).min(cy - 1) {
                let (first, end) = (self.start[jx * cy + jy], self.start[jx * cy + jy + 1]);
                let lo = first + self.ids[first..end].partition_point(|&j| j <= i);
                let hi = lo + self.zs[lo..end].partition_point(|&z| z <= z_max);
                let run = self.xs[lo..hi]
                    .iter()
                    .zip(&self.ys[lo..hi])
                    .zip(&self.zs[lo..hi]);
                for ((x, y), z) in run {
                    let d2 = (a[0] - x).powi(2) + (a[1] - y).powi(2) + (a[2] - z).powi(2);
                    count += u64::from(d2 <= cut2);
                }
            }
        }
        count
    }
}

/// Half-shell pair counting over x–y columns: for each atom, the
/// number of *higher-indexed* atoms within `cutoff`. The atoms must be
/// sorted by z (non-decreasing), as [`synthetic_protein`] returns
/// them; this panics otherwise. Index order is then spatial, so grains
/// are spatially correlated like real charge groups.
pub fn half_pair_counts(atoms: &[[f64; 3]], cutoff: f64) -> Vec<u64> {
    let cols = Columns::new(atoms, cutoff);
    (0..atoms.len()).map(|i| cols.half_count(i)).collect()
}

/// Below this many atom × group products the pair search (and the
/// table's ground-truth pass) runs on the calling thread: the serving
/// catalog's molecules (300 atoms in 200 groups) are sub-millisecond,
/// the paper's (6 968 in 4 986) take tens.
const SPREAD_MIN_ATOM_GROUPS: u64 = 1_000_000;

/// Builds the GROMOS workload: `steps` rounds of the same flat forest
/// of `groups` tasks, grain = pair count × `ns_per_pair`.
pub fn gromos(cfg: GromosConfig) -> Workload {
    gromos_with_grains(cfg).0
}

/// Like [`gromos`], but also returns the [`GrainTable`] mapping each
/// task to its group's pair search, for live execution. Every round
/// shares the same specs (the forest repeats per MD step).
pub fn gromos_with_grains(cfg: GromosConfig) -> (Workload, GrainTable) {
    build(cfg, &|atom_groups| {
        host_workers(atom_groups, SPREAD_MIN_ATOM_GROUPS)
    })
}

/// The builder proper; `workers_for` maps atoms × groups to the pool
/// size the pair search is measured on.
pub(crate) fn build(cfg: GromosConfig, workers_for: WorkersFor) -> (Workload, GrainTable) {
    assert!(
        cfg.groups >= 1 && cfg.groups <= cfg.atoms,
        "bad group count"
    );
    assert!(cfg.steps >= 1, "need at least one MD step");
    // Spatial index order, so groups are contiguous in space.
    let atoms = synthetic_protein(cfg.atoms, cfg.seed);

    // Split `atoms` into `groups` contiguous chunks as evenly as
    // possible (sizes differ by at most one).
    let base = cfg.atoms / cfg.groups;
    let extra = cfg.atoms % cfg.groups;
    let mut chunks = Vec::with_capacity(cfg.groups);
    let mut idx = 0usize;
    for g in 0..cfg.groups {
        let size = base + usize::from(g < extra);
        chunks.push(idx..idx + size);
        idx += size;
    }
    debug_assert_eq!(idx, cfg.atoms);

    let workers = workers_for((cfg.atoms * cfg.groups) as u64);
    let cols = Columns::new(&atoms, cfg.cutoff);
    let pair_totals = par_map_with(workers, &chunks, |chunk| {
        chunk.clone().map(|i| cols.half_count(i)).sum::<u64>()
    });

    // Every group costs at least its bookkeeping even with no
    // neighbours in range.
    let grains = pair_totals
        .into_iter()
        .map(|pairs| grain_us(pairs, cfg.ns_per_pair));
    let forest = TaskForest::flat(grains);
    let ctx = Arc::new(GromosCtx {
        atoms,
        cutoff: cfg.cutoff,
    });
    let group = |chunk: std::ops::Range<usize>| GrainSpec::GromosGroup {
        ctx: Arc::clone(&ctx),
        start: chunk.start as u32,
        len: chunk.len() as u32,
    };
    let specs: Vec<GrainSpec> = chunks.into_iter().map(group).collect();

    let w = Workload {
        name: format!("gromos {}A", cfg.cutoff),
        rounds: vec![forest; cfg.steps],
    };
    debug_assert!(w.validate().is_ok());
    // The pair totals above come from the columns, not from the
    // grains' own half-shell search, so this table is not seeded.
    (w, GrainTable::lazy(vec![specs; cfg.steps], workers))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force half pair count for validation.
    fn brute(atoms: &[[f64; 3]], cutoff: f64) -> Vec<u64> {
        let n = atoms.len();
        let cut2 = cutoff * cutoff;
        let mut counts = vec![0u64; n];
        for i in 0..n {
            for j in i + 1..n {
                let d2 = (atoms[i][0] - atoms[j][0]).powi(2)
                    + (atoms[i][1] - atoms[j][1]).powi(2)
                    + (atoms[i][2] - atoms[j][2]).powi(2);
                if d2 <= cut2 {
                    counts[i] += 1;
                }
            }
        }
        counts
    }

    #[test]
    fn cell_list_matches_brute_force() {
        for (n, seed, cutoffs) in [(300, 17, [4.0, 8.0, 13.5]), (2000, 5, [8.0, 12.0, 16.0])] {
            let atoms = synthetic_protein(n, seed);
            for cutoff in cutoffs {
                assert_eq!(
                    half_pair_counts(&atoms, cutoff),
                    brute(&atoms, cutoff),
                    "{n} atoms, cutoff {cutoff}"
                );
            }
        }
    }

    #[test]
    fn hand_placed_boundaries_match_brute_force() {
        // Exactly `cutoff` apart along z, and the z window's hair: in
        // floating point 8.7946 lies beyond 0.7946 + 8, yet the pair's
        // computed d2 is exactly 64.
        let along_z = vec![[0.0, 0.0, 0.0], [0.0, 0.0, 8.0], [0.0, 0.0, 16.0]];
        let hair = vec![[0.0, 0.0, 0.7946], [0.0, 0.0, 8.7946]];
        assert!(hair[1][2] > hair[0][2] + 8.0);
        assert_eq!(half_pair_counts(&hair, 8.0), vec![1, 0]);
        // Exactly `cutoff` apart along x, across column edges (columns
        // start at the smallest x), at distinct and at equal z.
        let across_x = vec![
            [0.0, 0.0, 0.0],
            [8.0, 0.0, 0.0],
            [16.0, 0.0, 1.0],
            [8.0, 8.0, 1.0],
            [23.5, 0.0, 1.0],
            [15.5, 0.5, 2.0],
        ];
        // Tied z inside one column and across neighbours: the run must
        // start after the atom's own index, not at its z.
        let tied_z = vec![
            [1.0, 1.0, 3.0],
            [2.0, 1.0, 3.0],
            [9.5, 1.0, 3.0],
            [1.0, 2.0, 3.0],
            [1.0, 2.0, 3.0],
            [4.0, 4.0, 3.0],
            [1.0, 1.0, 11.0],
        ];
        for atoms in [along_z, hair, across_x, tied_z] {
            assert_eq!(
                half_pair_counts(&atoms, 8.0),
                brute(&atoms, 8.0),
                "{atoms:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "sorted by z")]
    fn unsorted_atoms_panic() {
        half_pair_counts(&[[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]], 5.0);
    }

    #[test]
    fn density_is_protein_like() {
        let atoms = synthetic_protein(6968, 1);
        let r_max = atoms
            .iter()
            .map(|a| (a[0] * a[0] + a[1] * a[1] + a[2] * a[2]).sqrt())
            .fold(0.0f64, f64::max);
        let density = 6968.0 / (4.0 / 3.0 * std::f64::consts::PI * r_max.powi(3));
        assert!((0.07..0.13).contains(&density), "density {density}");
    }

    #[test]
    fn task_count_is_fixed_across_cutoffs() {
        for cutoff in [8.0, 12.0, 16.0] {
            let mut cfg = GromosConfig::paper(cutoff);
            cfg.atoms = 800; // keep tests fast
            cfg.groups = 571;
            let w = gromos(cfg);
            assert_eq!(w.rounds[0].len(), 571);
            assert_eq!(w.rounds.len(), cfg.steps);
        }
    }

    #[test]
    fn work_grows_roughly_cubically_with_cutoff() {
        let mut small = GromosConfig::paper(8.0);
        small.atoms = 1500;
        small.groups = 1073;
        let mut large = small;
        large.cutoff = 16.0;
        let w8 = gromos(small).stats().total_work_us;
        let w16 = gromos(large).stats().total_work_us;
        let ratio = w16 as f64 / w8 as f64;
        // (16/8)³ = 8 in the bulk; surface effects pull it down.
        assert!((3.0..9.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn grains_vary_surface_vs_core() {
        let mut cfg = GromosConfig::paper(8.0);
        cfg.atoms = 1500;
        cfg.groups = 1073;
        let w = gromos(cfg);
        let f = &w.rounds[0];
        let grains: Vec<u64> = (0..f.len() as u32).map(|id| f.grain(id)).collect();
        let max = *grains.iter().max().unwrap();
        let min = *grains.iter().min().unwrap();
        assert!(max >= min * 2, "no surface/core contrast: {min}..{max}");
    }

    #[test]
    fn deterministic() {
        let mut cfg = GromosConfig::paper(8.0);
        cfg.atoms = 400;
        cfg.groups = 286;
        assert_eq!(gromos(cfg), gromos(cfg));
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        assert!(half_pair_counts(&[], 5.0).is_empty());
        let one = [[0.0, 0.0, 0.0]];
        assert_eq!(half_pair_counts(&one, 5.0), vec![0]);
    }
}
