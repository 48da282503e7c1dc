//! The two simulator workloads, `grid32` and `mesh250k`, and the probes
//! of the layers under them (topology, desim, sched, trace, audit).

use std::hint::black_box;
use std::sync::Arc;

use rips_audit::Auditor;
use rips_bench::{registry, registry_with, run_cell, App, RegistryTuning, Row};
use rips_core::RipsConfig;
use rips_desim::{Ctx, Engine, LatencyModel, Program};
use rips_runtime::SchedulerRegistry;
use rips_sched::{min_nonlocal_tasks, mwa, tiled_mwa, TileGrid};
use rips_taskgraph::{skewed_flat, Workload as TaskWorkload};
use rips_topology::{Mesh2D, NodeId, Topology};
use rips_trace::{with_sink, TraceBuffer};

use crate::span::Recorder;
use crate::stats::fast_decile;
use crate::workload::{
    checked, probe_ns_per_op, skewed_loads, time_s, Iter, LayerInput, Layers, SplitMix, Workload,
};

/// Sums the simulated results of an iteration's cells.
#[derive(Default)]
struct SimTotals {
    cells: u64,
    efficiency: f64,
    makespan_us: u64,
    events: u64,
    peak_depth: u64,
    modelled_bytes: u64,
    phases: u64,
    migrated: i64,
    nonlocal: u64,
}

impl SimTotals {
    fn add(&mut self, row: &Row) {
        let stats = &row.outcome.stats;
        self.cells += 1;
        self.efficiency += row.outcome.efficiency();
        self.makespan_us += stats.end_time;
        self.events += stats.events;
        self.peak_depth = self.peak_depth.max(stats.peak_queue_depth);
        self.modelled_bytes = self.modelled_bytes.max(stats.mem.total_bytes());
        self.phases += u64::from(row.outcome.system_phases);
        self.migrated += row.phases.iter().map(|p| p.migrated).sum::<i64>();
        self.nonlocal += row.outcome.nonlocal;
    }

    fn exact(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("sim_efficiency", self.efficiency / self.cells.max(1) as f64),
            ("sim_makespan_us", self.makespan_us as f64),
            ("desim.events", self.events as f64),
            ("desim.peak_queue_depth", self.peak_depth as f64),
            ("desim.modelled_bytes", self.modelled_bytes as f64),
            ("core.system_phases", self.phases as f64),
            ("core.migrated_tasks", self.migrated as f64),
            ("runtime.nonlocal_tasks", self.nonlocal as f64),
        ]
    }
}

/// One roster scheduler: registry name, the span its cells run under
/// (the crate that holds its policy), and its per-event metric.
struct Sched {
    name: &'static str,
    span: &'static str,
    metric: &'static str,
}

const fn sched(name: &'static str, span: &'static str, metric: &'static str) -> Sched {
    Sched { name, span, metric }
}

const ROSTER: [Sched; 6] = [
    sched(
        "Random",
        "balancers.random",
        "balancers.random.ns_per_event",
    ),
    sched(
        "Gradient",
        "balancers.gradient",
        "balancers.gradient.ns_per_event",
    ),
    sched("RID", "balancers.rid", "balancers.rid.ns_per_event"),
    sched("RIPS", "core.rips", "core.rips.ns_per_event"),
    sched("RIPS-H", "core.rips-h", "core.rips-h.ns_per_event"),
    sched("SID", "balancers.sid", "balancers.sid.ns_per_event"),
];

/// Table I in miniature: every roster scheduler on three apps.
pub struct Grid32 {
    nodes: usize,
    apps: Vec<(App, &'static str)>,
    seed: u64,
    built: Vec<Arc<TaskWorkload>>,
    reg: SchedulerRegistry,
    /// Events each roster scheduler processes per iteration.
    sched_events: [u64; ROSTER.len()],
}

impl Grid32 {
    pub fn new(seed: u64, quick: bool) -> Grid32 {
        let apps = if quick {
            vec![
                (App::Queens(10), "apps.build.queens13"),
                (App::Ida(1), "apps.build.ida3"),
                (App::Gromos(8.0), "apps.build.gromos16"),
            ]
        } else {
            vec![
                (App::Queens(13), "apps.build.queens13"),
                (App::Ida(3), "apps.build.ida3"),
                (App::Gromos(16.0), "apps.build.gromos16"),
            ]
        };
        Grid32 {
            nodes: if quick { 8 } else { 32 },
            apps,
            seed,
            built: Vec::new(),
            reg: registry(),
            sched_events: [0; ROSTER.len()],
        }
    }
}

impl Workload for Grid32 {
    fn setup(&mut self, rec: &mut Recorder) {
        self.built = self
            .apps
            .iter()
            .map(|&(app, span)| rec.span(span, |_| Arc::new(app.build())))
            .collect();
    }

    fn min_iterations(&self) -> usize {
        50
    }

    fn iterate(&mut self, rec: &mut Recorder) -> Iter {
        let mut it = Iter::default();
        let mut totals = SimTotals::default();
        self.sched_events = [0; ROSTER.len()];
        for (&(app, _), workload) in self.apps.iter().zip(&self.built) {
            for (s, events) in ROSTER.iter().zip(&mut self.sched_events) {
                it.attempted += 1;
                let cell = rec.span(s.span, |_| {
                    checked(s.name, || {
                        run_cell(
                            &self.reg,
                            s.name,
                            workload,
                            self.nodes,
                            app.rid_u(self.nodes),
                            self.seed,
                        )
                    })
                });
                match cell {
                    Ok(row) => {
                        *events += row.outcome.stats.events;
                        totals.add(&row);
                    }
                    Err(e) => it.fail(e),
                }
            }
        }
        it.exact = totals.exact();
        it
    }

    fn layers(&mut self, rec: &Recorder, input: &LayerInput<'_>) -> Layers {
        let mut out = Layers::default();
        let mesh = Mesh2D::near_square(self.nodes);
        for (s, &events) in ROSTER.iter().zip(&self.sched_events) {
            // Each traced iteration's three cells of this scheduler.
            let mut cells_ns = vec![0.0; input.traced_iterations];
            for span in rec.spans().iter().filter(|span| span.name == s.span) {
                cells_ns[span.iteration as usize] += span.duration_ns() as f64;
            }
            out.put(s.metric, fast_decile(&cells_ns) / events.max(1) as f64);
        }
        out.put(
            "desim.bare_ns_per_event.n32",
            bare_ns_per_event(&mesh, 2_000, 5),
        );
        let loads = skewed_loads(self.nodes, 40, self.seed);
        let plan_us = probe_ns_per_op(9, 1_000, || {
            for _ in 0..1_000 {
                black_box(mwa(&mesh, black_box(&loads)));
            }
        }) / 1e3;
        out.put("sched.mwa_plan_us.8x4", plan_us);
        out.put(
            "trace.buffer_ns_per_event",
            self.trace_buffer_ns_per_event(),
        );
        out.put_span_ms("apps.build_ms.queens13", rec, "apps.build.queens13");
        out.put_span_ms("apps.build_ms.ida3", rec, "apps.build.ida3");
        out.put_span_ms("apps.build_ms.gromos16", rec, "apps.build.gromos16");
        out
    }
}

impl Grid32 {
    /// Extra host time per simulator event when the RIPS cell of the
    /// first app records into a `TraceBuffer`, over seven runs each way.
    fn trace_buffer_ns_per_event(&self) -> f64 {
        let (app, _) = self.apps[0];
        let cell = || {
            run_cell(
                &self.reg,
                "RIPS",
                &self.built[0],
                self.nodes,
                app.rid_u(self.nodes),
                self.seed,
            )
        };
        let (mut plain, mut traced, mut events) = (Vec::new(), Vec::new(), 0);
        for _ in 0..7 {
            let (s, row) = time_s(cell);
            plain.push(s);
            events = row.outcome.stats.events;
            traced.push(time_s(|| with_sink(TraceBuffer::new(), cell)).0);
        }
        (fast_decile(&traced) - fast_decile(&plain)) * 1e9 / events as f64
    }
}

/// RIPS and RIPS-H, audited, on one large mesh.
pub struct Mesh250k {
    mesh: Mesh2D,
    tasks_per_node: usize,
    seed: u64,
    workload: Option<Arc<TaskWorkload>>,
    reg: SchedulerRegistry,
}

impl Mesh250k {
    pub fn new(seed: u64, quick: bool) -> Mesh250k {
        // 70 x 70 stays above the engine's routing-table threshold, so
        // the toy scale takes the same closed-form path.
        let side = if quick { 70 } else { 500 };
        Mesh250k {
            mesh: Mesh2D::new(side, side),
            tasks_per_node: 4,
            seed,
            workload: None,
            // Eureka (hardware or-barrier) init signalling, as
            // `scale_curve` uses at these sizes: the software
            // broadcast is O(n^2) events per phase.
            reg: registry_with(RegistryTuning {
                rips: RipsConfig {
                    eureka: true,
                    ..RipsConfig::default()
                },
                ..RegistryTuning::default()
            }),
        }
    }

    fn pass(&self, rec: &mut Recorder, audited: bool) -> Iter {
        let nodes = self.mesh.len();
        let workload = self.workload.as_ref().expect("setup ran");
        let mut it = Iter::default();
        let mut totals = SimTotals::default();
        for s in ROSTER.iter().filter(|s| s.name.starts_with("RIPS")) {
            it.attempted += 1;
            let cell = || run_cell(&self.reg, s.name, workload, nodes, 0.4, self.seed);
            let outcome = if audited {
                let auditor = rec.span("audit.new", |_| {
                    if s.name == "RIPS-H" {
                        Auditor::with_tiles(nodes, TileGrid::new(&self.mesh).assignment())
                    } else {
                        Auditor::new(nodes)
                    }
                });
                rec.span(s.span, |_| checked(s.name, || with_sink(auditor, cell)))
                    .and_then(|(auditor, row)| {
                        let report = rec.span("audit.finish", |_| auditor.finish());
                        if !report.is_ok() {
                            Err(format!("{} audit: {}", s.name, report.errors.join("; ")))
                        } else if report.max_spread > 1 {
                            Err(format!(
                                "{} audit: max_spread {}",
                                s.name, report.max_spread
                            ))
                        } else {
                            Ok(row)
                        }
                    })
            } else {
                rec.span(s.span, |_| checked(s.name, cell))
            };
            match outcome {
                Ok(row) => totals.add(&row),
                Err(e) => it.fail(e),
            }
        }
        it.exact = totals.exact();
        it
    }
}

impl Workload for Mesh250k {
    fn setup(&mut self, rec: &mut Recorder) {
        let tasks = self.mesh.len() * self.tasks_per_node;
        self.workload = Some(rec.span("taskgraph.skewed_flat", |_| {
            Arc::new(skewed_flat(tasks, 2_000, 64, 20, self.seed))
        }));
    }

    fn min_iterations(&self) -> usize {
        3
    }

    fn iterate(&mut self, rec: &mut Recorder) -> Iter {
        self.pass(rec, true)
    }

    fn layers(&mut self, rec: &Recorder, input: &LayerInput<'_>) -> Layers {
        let mut out = Layers::default();
        let mesh = self.mesh.clone();
        let nodes = mesh.len();

        // The fastest decile of the audited iterations against the
        // faster of two plain passes.
        let mut plain_s = f64::INFINITY;
        for _ in 0..2 {
            let (s, it) = time_s(|| self.pass(&mut Recorder::new(false), false));
            plain_s = plain_s.min(s);
            out.errors.extend(it.errors);
        }
        out.put(
            "audit.overhead_share.mesh250k",
            input.wall_s / plain_s - 1.0,
        );

        let mut rng = SplitMix(self.seed);
        let pairs: Vec<(NodeId, NodeId)> = (0..1 << 16)
            .map(|_| (rng.next() as usize % nodes, rng.next() as usize % nodes))
            .collect();
        let route_ns = probe_ns_per_op(9, pairs.len() as u64, || {
            for &(a, b) in &pairs {
                black_box((mesh.distance(a, b), mesh.route_next_hop(a, b)));
            }
        });
        out.put("topology.route_ns", route_ns);

        out.put(
            "desim.bare_ns_per_event.n250k",
            bare_ns_per_event(&mesh, 4, 3),
        );
        let new_us = probe_ns_per_op(3, 1, || {
            black_box(bare_engine(&mesh, 1));
        }) / 1e3;
        out.put("desim.engine_new_us.n250k", new_us);

        let loads = skewed_loads(nodes, self.tasks_per_node as u64, self.seed);
        let mut plan = None;
        let mwa_ms = probe_ns_per_op(3, 1, || plan = Some(mwa(&mesh, &loads).0)) / 1e6;
        let tiled_ms = probe_ns_per_op(3, 1, || {
            black_box(tiled_mwa(&mesh, &loads));
        }) / 1e6;
        let plan = plan.expect("probe ran");
        out.put("sched.mwa_plan_ms.500x500", mwa_ms);
        out.put("sched.tiled_plan_ms.500x500", tiled_ms);
        out.put("sched.plan_moves", plan.moves.len() as f64);
        // Theorem 2: MWA moves the minimum number of tasks off their
        // node, so this stays 1.
        let ratio = plan.nonlocal_tasks(&loads) as f64 / min_nonlocal_tasks(&loads).max(1) as f64;
        out.put("sched.nonlocal_ratio", ratio);

        out.put_span_ms("taskgraph.skewed_flat_ms", rec, "taskgraph.skewed_flat");
        out
    }
}

/// The harness's own minimal [`Program`]: each node arms a timer, and
/// on each firing sends one message to a mesh neighbour and re-arms.
/// No queues, no policy: what remains is the engine's heap, deferral
/// lanes and routing.
struct Bare {
    neighbour: NodeId,
    left: u32,
}

impl Program for Bare {
    type Msg = u32;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
        ctx.set_timer(1 + (ctx.me() % 16) as u64, 0);
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_, u32>, _from: NodeId, msg: u32) {
        black_box(msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, _tag: u64) {
        ctx.send(self.neighbour, self.left, 64);
        self.left -= 1;
        if self.left > 0 {
            ctx.set_timer(50, 0);
        }
    }
}

fn bare_engine(mesh: &Mesh2D, rounds: u32) -> Engine<Bare> {
    let neighbours = mesh.clone();
    Engine::new(
        Arc::new(mesh.clone()),
        LatencyModel::paragon(),
        1,
        move |me| Bare {
            neighbour: neighbours.neighbors(me)[0],
            left: rounds,
        },
    )
}

/// Host nanoseconds per event of [`Bare`] on `mesh`: fastest decile over
/// `reps` runs of `rounds` timer-and-send rounds per node.
fn bare_ns_per_event(mesh: &Mesh2D, rounds: u32, reps: usize) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let engine = bare_engine(mesh, rounds);
            let (s, (_, stats)) = time_s(|| engine.run());
            s * 1e9 / stats.events as f64
        })
        .collect();
    fast_decile(&samples)
}

/// `desim.engine_new_us.n8`, for the serving workload: what
/// constructing an 8-node engine costs each of its thousands of jobs.
pub fn engine_new_us_n8() -> f64 {
    let mesh = Mesh2D::near_square(8);
    probe_ns_per_op(9, 2_000, || {
        for _ in 0..2_000 {
            black_box(bare_engine(&mesh, 1));
        }
    }) / 1e3
}
