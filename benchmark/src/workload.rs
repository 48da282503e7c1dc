//! What the runner needs from a workload, and helpers the workloads
//! share: timing loops, seeded pseudo-random inputs, failure capture.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::span::Recorder;
use crate::stats::fast_decile;

/// The outcome of one timed iteration.
#[derive(Debug, Default)]
pub struct Iter {
    /// Operations attempted: scheduler runs, or submitted jobs.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// One line per failed check.
    pub errors: Vec<String>,
    /// Jobs completed (serving workloads; 0 elsewhere).
    pub jobs: u64,
    /// Counts and simulated results, by catalog name. The same seed
    /// gives the same inputs, so every iteration of one run must
    /// report these bit for bit.
    pub exact: Vec<(&'static str, f64)>,
}

impl Iter {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.errors.push(what);
    }
}

/// What the traced pass hands to [`Workload::layers`].
pub struct LayerInput<'a> {
    /// `wall_s` as reported: the untraced iterations' fastest decile.
    pub wall_s: f64,
    /// Wall time (s) of each untraced iteration.
    pub untraced_walls: &'a [f64],
    /// Traced iterations made (spans carry iteration numbers `0..n`).
    pub traced_iterations: usize,
}

/// Per-layer metrics, by catalog name, and failed checks met while
/// measuring them.
#[derive(Default)]
pub struct Layers {
    pub metrics: Vec<(&'static str, f64)>,
    pub errors: Vec<String>,
}

impl Layers {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records the fastest-decile duration of the spans called `span`,
    /// if any were taken.
    pub fn put_span_ms(&mut self, name: &'static str, rec: &Recorder, span: &str) {
        let ms = rec.durations_ms(span);
        if !ms.is_empty() {
            self.put(name, fast_decile(&ms));
        }
    }
}

pub trait Workload {
    /// Builds the inputs from the seed. Timed as `setup_s`; spans name
    /// the builders called.
    fn setup(&mut self, rec: &mut Recorder);

    /// How often a run repeats [`Workload::setup`] at least.
    fn setups(&self) -> usize {
        5
    }

    /// Iterations a run makes even when `--seconds` is used up.
    fn min_iterations(&self) -> usize;

    /// One iteration of the timed section, spans around each call into
    /// a layer.
    fn iterate(&mut self, rec: &mut Recorder) -> Iter;

    /// Probes of single layers, and what the traced iterations' spans
    /// in `rec` show. Runs once, after the traced iterations.
    fn layers(&mut self, rec: &Recorder, input: &LayerInput<'_>) -> Layers;
}

/// Runs `f`, turning a panic (the program's own output checks panic)
/// into an error line.
pub fn checked<R>(what: &str, f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| p.downcast_ref::<&str>().copied())
            .unwrap_or("panic");
        format!("{what}: {msg}")
    })
}

/// Seconds `f` takes.
pub fn time_s<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

/// Nanoseconds `f` takes per operation, `f` doing `ops` operations per
/// call: the fastest decile over `reps` calls.
pub fn probe_ns_per_op(reps: usize, ops: u64, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| time_s(&mut f).0 * 1e9 / ops as f64)
        .collect();
    fast_decile(&samples)
}

/// SplitMix64: the harness's own seeded stream for probe inputs.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Per-node task counts for the planner probes: mean `mean`, one node
/// in eight holding four times its share.
pub fn skewed_loads(nodes: usize, mean: u64, seed: u64) -> Vec<i64> {
    let mut rng = SplitMix(seed);
    (0..nodes)
        .map(|i| {
            let base = rng.next() % (2 * mean + 1);
            (if i % 8 == 0 { base * 4 } else { base }) as i64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_reports_a_panic_as_an_error_line() {
        assert_eq!(checked("ok", || 3), Ok(3));
        let err = checked("cell", || -> u32 { panic!("lost {} tasks", 2) }).unwrap_err();
        assert_eq!(err, "cell: lost 2 tasks");
    }

    #[test]
    fn probe_inputs_repeat_under_one_seed() {
        assert_eq!(skewed_loads(64, 4, 9), skewed_loads(64, 4, 9));
        assert_ne!(skewed_loads(64, 4, 9), skewed_loads(64, 4, 10));
        assert!(skewed_loads(64, 4, 9)
            .iter()
            .all(|&w| (0..=32).contains(&w)));
    }
}
