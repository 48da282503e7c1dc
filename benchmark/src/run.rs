//! Runs one workload in this process: set-up, the untraced iterations
//! that give the end-to-end metrics, and with `--trace 1` the traced
//! iterations and layer probes that give the per-layer ones.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::{obj, Json};
use crate::live::Live;
use crate::metrics::{def, index, Tier, CATALOG};
use crate::serve::ServeSim;
use crate::sim::{Grid32, Mesh250k};
use crate::span::{by_name, LayerTime, Recorder};
use crate::stats::Summary;
use crate::workload::{time_s, Iter, LayerInput, Workload};

/// The span the runner opens around each traced iteration; its self
/// time is what no layer span covers.
const ITERATION: &str = "iteration";

/// Error lines kept per run; a broken build fails every iteration the
/// same way.
const MAX_ERRORS: usize = 10;
const MAX_ERROR_CHARS: usize = 400;

const MAX_SETUPS: usize = 50;

pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Toy scale, one iteration at least: a smoke test, not a
    /// measurement.
    pub quick: bool,
}

/// `min(nproc, 4)`: the live workloads never oversubscribe the host.
pub fn live_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get().min(4))
}

fn make(name: &str, cfg: &Config) -> Option<Box<dyn Workload>> {
    let (seed, quick) = (cfg.seed, cfg.quick);
    Some(match name {
        "grid32" => Box::new(Grid32::new(seed, quick)),
        "mesh250k" => Box::new(Mesh250k::new(seed, quick)),
        "live-fine" => Box::new(Live::fine(seed, live_threads(), quick)),
        "live-coarse" => Box::new(Live::coarse(seed, live_threads(), quick)),
        "serve-sim" => Box::new(ServeSim::new(seed, quick)),
        _ => return None,
    })
}

pub struct Outcome {
    pub workload: String,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub setups: usize,
    pub iterations: usize,
    pub traced_iterations: usize,
    /// Every metric measured, by catalog name.
    pub metrics: Vec<(&'static str, Summary)>,
    /// Calls, total and self time per span name over the traced
    /// iterations.
    pub layer_times: Vec<(&'static str, LayerTime)>,
}

/// Folds iterations: counts operations, and holds every exact value
/// to the first one seen under its name.
#[derive(Default)]
struct Fold {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    jobs: u64,
    exact: BTreeMap<&'static str, f64>,
}

impl Fold {
    fn error(&mut self, e: String) {
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(e.chars().take(MAX_ERROR_CHARS).collect());
        }
    }

    fn add(&mut self, it: Iter) {
        self.attempted += it.attempted;
        self.failed += it.failed;
        self.jobs = it.jobs;
        for (name, v) in it.exact {
            let first = *self.exact.entry(name).or_insert(v);
            if first.to_bits() != v.to_bits() {
                self.error(format!("{name} did not repeat: {first} then {v}"));
            }
        }
        for e in it.errors {
            self.error(e);
        }
    }
}

/// Iterates until `budget_s` is used up and `floor` iterations are
/// made; returns each iteration's wall time in seconds.
fn timed_loop(
    w: &mut dyn Workload,
    rec: &mut Recorder,
    fold: &mut Fold,
    budget_s: f64,
    floor: usize,
) -> Vec<f64> {
    let start = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < floor || start.elapsed().as_secs_f64() < budget_s {
        rec.iteration = walls.len() as u32;
        let (s, it) = time_s(|| rec.span(ITERATION, |rec| w.iterate(rec)));
        walls.push(s);
        fold.add(it);
    }
    walls
}

/// Peak resident set of this process in MB, from `VmHWM`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// Runs workload `name`; `None` if there is no such workload.
pub fn run_workload(name: &str, cfg: &Config) -> Option<(Outcome, Recorder)> {
    let mut w = make(name, cfg)?;
    let mut rec = Recorder::new(cfg.trace);
    let mut fold = Fold::default();
    let mut metrics: Vec<(&'static str, Summary)> = Vec::new();

    // A set-up of milliseconds is repeated until a quarter second is
    // spent on it: five samples of 0.7 ms do not make a steady value.
    let min_setups = if cfg.quick { 1 } else { w.setups() };
    let started = Instant::now();
    let mut setup_s = Vec::new();
    while setup_s.len() < min_setups
        || (!cfg.quick && setup_s.len() < MAX_SETUPS && started.elapsed().as_secs_f64() < 0.25)
    {
        setup_s.push(time_s(|| w.setup(&mut rec)).0);
    }
    let setups = setup_s.len();
    let setup_spans: Vec<&str> = rec.spans().iter().map(|s| s.name).collect();
    metrics.push(("setup_s", Summary::of_times(&setup_s)));

    // End-to-end numbers are taken with spans off. A traced run still
    // makes some untraced iterations: the tracing overhead is the
    // difference between the two.
    rec.set_enabled(false);
    let min_iterations = if cfg.quick { 1 } else { w.min_iterations() };
    let floor = |share: usize| min_iterations.div_ceil(share);
    let (plain_floor, plain_share) = if cfg.trace {
        (floor(3), 0.4)
    } else {
        (floor(1), 1.0)
    };
    let walls = timed_loop(
        w.as_mut(),
        &mut rec,
        &mut fold,
        cfg.seconds * plain_share,
        plain_floor,
    );
    let wall = Summary::of_times(&walls);
    metrics.push(("wall_s", wall));
    if let Some(mb) = peak_rss_mb() {
        metrics.push(("peak_rss_mb", Summary::single(mb)));
    }
    if fold.jobs > 0 {
        metrics.push(("jobs_per_s", Summary::single(fold.jobs as f64 / wall.value)));
    }

    let mut traced_iterations = 0;
    let mut layer_times = Vec::new();
    if cfg.trace {
        rec.set_enabled(true);
        let traced_walls = timed_loop(w.as_mut(), &mut rec, &mut fold, cfg.seconds * 0.3, floor(3));
        traced_iterations = traced_walls.len();
        let overhead = Summary::of_times(&traced_walls).value / wall.value - 1.0;
        metrics.push(("tracing_overhead_share", Summary::single(overhead)));

        let times = by_name(rec.spans());
        let whole = times[ITERATION];
        let unattributed = whole.self_ns as f64 / whole.total_ns as f64;
        metrics.push(("unattributed_share", Summary::single(unattributed)));
        layer_times = times
            .into_iter()
            .filter(|(n, _)| !setup_spans.contains(n))
            .collect();

        let input = LayerInput {
            wall_s: wall.value,
            untraced_walls: &walls,
            traced_iterations,
        };
        let layers = w.layers(&rec, &input);
        for e in layers.errors {
            fold.error(e);
        }
        metrics.extend(
            layers
                .metrics
                .into_iter()
                .map(|(n, v)| (n, Summary::single(v))),
        );
    }

    if let Some(&events) = fold.exact.get("desim.events") {
        metrics.push(("events_per_s", Summary::single(events / wall.value)));
    }
    let failed_share = fold.failed as f64 / fold.attempted.max(1) as f64;
    metrics.push(("failed_share", Summary::single(failed_share)));
    metrics.extend(fold.exact.iter().map(|(&n, &v)| (n, Summary::single(v))));

    metrics.sort_by_key(|(n, _)| index(n));

    let outcome = Outcome {
        workload: name.to_string(),
        traced: cfg.trace,
        attempted: fold.attempted,
        failed: fold.failed,
        errors: fold.errors,
        setups,
        iterations: walls.len(),
        traced_iterations,
        metrics,
        layer_times,
    };
    Some((outcome, rec))
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The one line the driver reads: with `--trace 0` every
    /// end-to-end metric the driver gates on, with `--trace 1` every
    /// other metric. A layer this workload never calls reports 0: no
    /// calls, no time.
    pub fn driver_line(&self) -> Json {
        let metrics = CATALOG
            .iter()
            .filter(|d| (d.tier != Tier::Gate) == self.traced)
            .map(|d| {
                let value = self
                    .metrics
                    .iter()
                    .find(|(n, _)| *n == d.name)
                    .map_or(0.0, |(_, s)| s.value);
                (
                    d.name.to_string(),
                    obj([("value", value.into()), ("unit", d.unit.into())]),
                )
            })
            .collect();
        obj([
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// Everything measured, for the parent process and `--compare`.
    pub fn detail(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, s)| metric_json(name, &s))
            .collect();
        let layer_times = self
            .layer_times
            .iter()
            .map(|(name, t)| {
                obj([
                    ("span", (*name).into()),
                    ("calls", t.calls.into()),
                    ("total_ms", (t.total_ns as f64 / 1e6).into()),
                    ("self_ms", (t.self_ns as f64 / 1e6).into()),
                ])
            })
            .collect();
        obj([
            ("name", self.workload.as_str().into()),
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            (
                "errors",
                Json::Arr(self.errors.iter().map(|e| e.as_str().into()).collect()),
            ),
            ("setups", self.setups.into()),
            ("iterations", self.iterations.into()),
            ("traced_iterations", self.traced_iterations.into()),
            ("metrics", Json::Arr(metrics)),
            ("layer_self_times", Json::Arr(layer_times)),
        ])
    }

    /// The table a person reads.
    pub fn print_human(&self) {
        println!(
            "== {} ({}): {} set-ups, {} iterations, {} traced; {} of {} operations failed",
            self.workload,
            if self.traced { "traced" } else { "untraced" },
            self.setups,
            self.iterations,
            self.traced_iterations,
            self.failed,
            self.attempted
        );
        for (name, s) in &self.metrics {
            print_metric_row(name, s);
        }
        if !self.layer_times.is_empty() {
            let whole = self
                .layer_times
                .iter()
                .find(|(n, _)| *n == ITERATION)
                .map_or(1, |(_, t)| t.total_ns);
            println!("   self time by span, as a share of the traced iterations:");
            for (name, t) in &self.layer_times {
                let label = if *name == ITERATION {
                    "(unattributed)"
                } else {
                    name
                };
                println!(
                    "   {label:<34} {:>8} calls {:>12.3} ms self {:>7.2} %",
                    t.calls,
                    t.self_ns as f64 / 1e6,
                    100.0 * t.self_ns as f64 / whole as f64
                );
            }
        }
        for e in &self.errors {
            println!("   FAILED: {e}");
        }
    }
}

fn metric_json(name: &str, s: &Summary) -> Json {
    let d = def(name);
    let tier = match d.tier {
        Tier::Gate | Tier::EndToEnd => "end_to_end",
        Tier::Layer => "per_layer",
    };
    obj([
        ("name", d.name.into()),
        ("unit", d.unit.into()),
        ("better", d.better.label().into()),
        ("tier", tier.into()),
        ("bound", d.bound.map_or(Json::Null, Json::from)),
        ("value", s.value.into()),
        ("q1", s.q1.into()),
        ("median", s.median.into()),
        ("q3", s.q3.into()),
        ("n", s.n.into()),
    ])
}

fn print_metric_row(name: &str, s: &Summary) {
    let d = def(name);
    let bound = match d.bound {
        None => "no bound".to_string(),
        Some(0.0) => "exact".to_string(),
        Some(b) => format!("bound {b}"),
    };
    let spread = if s.n > 1 {
        format!(
            "n={} q1={:.6} median={:.6} q3={:.6}",
            s.n, s.q1, s.median, s.q3
        )
    } else {
        String::new()
    };
    println!(
        "   {:<34} {:>18.6} {:<6} {:<6} {bound:<10} {spread}",
        d.name,
        s.value,
        d.unit,
        d.better.label()
    );
}
