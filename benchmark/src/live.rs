//! The two real-thread workloads, `live-fine` and `live-coarse`: RIPS on
//! the ring transport in compute mode, on N-Queens instances whose
//! grains differ a hundredfold; and the probes of `rips-live`'s ring
//! and timer wheel.

use std::hint::black_box;
use std::sync::Arc;

use rips_apps::{nqueens_with_grains, GrainOut, GrainTable, NQueensConfig};
use rips_bench::live::{live_opts, live_run};
use rips_live::ring::spsc;
use rips_live::{GrainMode, LiveOutcome, TimerWheel, WallClock};
use rips_taskgraph::Workload as TaskWorkload;
use rips_trace::metrics_rt::{Counter, CycleClock, Histo};
use rips_trace::{with_metrics_clocked, Clock, MetricsRegistry};

use crate::span::Recorder;
use crate::stats::{fast_decile, percentile};
use crate::workload::{checked, probe_ns_per_op, time_s, Iter, LayerInput, Layers, Workload};

struct Built {
    workload: Arc<TaskWorkload>,
    table: Arc<GrainTable>,
    truth: GrainOut,
}

pub struct Live {
    cfg: NQueensConfig,
    /// Span names for the app build and its ground truth, and the
    /// metrics their durations report under (the catalog times the
    /// ground truth of queens15 only).
    build: (&'static str, &'static str),
    totals: (&'static str, Option<&'static str>),
    threads: usize,
    seed: u64,
    setups: usize,
    min_iterations: usize,
    one_thread_runs: usize,
    built: Option<Built>,
}

impl Live {
    /// queens10, 436 tasks of about a microsecond each.
    pub fn fine(seed: u64, threads: usize, quick: bool) -> Live {
        Live {
            cfg: NQueensConfig {
                n: 10,
                split_depth: 3,
                root_depth: 2,
                ns_per_node: 1800,
            },
            build: ("apps.build.queens10", "apps.build_ms.queens10"),
            totals: ("apps.static_totals.queens10", None),
            threads,
            seed,
            setups: 5,
            min_iterations: 300,
            // A second of them: a hundred, a tenth of a second, gave a
            // speed-up that moved by a quarter between two runs.
            one_thread_runs: if quick { 10 } else { 1_000 },
            built: None,
        }
    }

    /// queens15 as the paper splits it, 15 926 tasks of about 100 us
    /// (queens12 at toy scale).
    pub fn coarse(seed: u64, threads: usize, quick: bool) -> Live {
        Live {
            cfg: NQueensConfig::paper(if quick { 12 } else { 15 }),
            build: ("apps.build.queens15", "apps.build_ms.queens15"),
            totals: (
                "apps.static_totals.queens15",
                Some("apps.static_totals_ms.queens15"),
            ),
            threads,
            seed,
            // A set-up is 3 s here; three keep a run inside its share
            // of the driver's time.
            setups: 3,
            min_iterations: 9,
            one_thread_runs: if quick { 1 } else { 5 },
            built: None,
        }
    }

    /// One RIPS run at `threads`, its grain totals checked against the
    /// sequential ground truth.
    fn run(&self, threads: usize, clock: Option<Arc<dyn Clock>>) -> Result<LiveOutcome, String> {
        let b = self.built.as_ref().expect("setup ran");
        let mut opts = live_opts(&b.table, GrainMode::Compute, 1.0);
        opts.clock = clock;
        let out = checked("RIPS live", || {
            live_run("RIPS", &b.workload, threads, 0.4, self.seed, opts)
        })?;
        if (out.checksum, out.solutions) != (b.truth.checksum, b.truth.solutions) {
            return Err(format!(
                "RIPS live at {threads} threads: checksum {:#x}, {} solutions; ground truth {:#x}, {}",
                out.checksum, out.solutions, b.truth.checksum, b.truth.solutions
            ));
        }
        Ok(out)
    }
}

impl Workload for Live {
    fn setup(&mut self, rec: &mut Recorder) {
        let (workload, table) = rec.span(self.build.0, |_| nqueens_with_grains(self.cfg));
        let truth = rec.span(self.totals.0, |_| table.static_totals());
        self.built = Some(Built {
            workload: Arc::new(workload),
            table: Arc::new(table),
            truth,
        });
    }

    fn setups(&self) -> usize {
        self.setups
    }

    fn min_iterations(&self) -> usize {
        self.min_iterations
    }

    fn iterate(&mut self, rec: &mut Recorder) -> Iter {
        let mut it = Iter {
            attempted: 1,
            ..Iter::default()
        };
        if let Err(e) = rec.span("live.run", |_| self.run(self.threads, None)) {
            it.fail(e);
        }
        it
    }

    fn layers(&mut self, rec: &Recorder, input: &LayerInput<'_>) -> Layers {
        let mut out = Layers::default();
        out.put(
            "live.wall_p95_us",
            percentile(input.untraced_walls, 95) * 1e6,
        );

        let mut narrow = Vec::new();
        for _ in 0..self.one_thread_runs {
            let (s, run) = time_s(|| self.run(1, None));
            narrow.push(s);
            out.errors.extend(run.err());
        }
        out.put("live_speedup", fast_decile(&narrow) / input.wall_s);

        // One profiled run: the program's own per-round cycle
        // attribution, read from outside through its metrics registry.
        let clock = Arc::new(WallClock::new());
        let registry = MetricsRegistry::new(self.threads);
        let (profiled_s, run) = time_s(|| {
            with_metrics_clocked(&registry, Arc::clone(&clock) as Arc<dyn CycleClock>, || {
                self.run(self.threads, Some(clock as Arc<dyn Clock>))
            })
        });
        out.errors.extend(run.err());
        let snap = registry.snapshot();
        let thread_ns = profiled_s * 1e9 * self.threads as f64;
        let mean = |h| snap.histo(h).mean();
        out.put(
            "live.dispatch_rounds",
            snap.counter(Counter::DispatchRounds) as f64,
        );
        out.put("live.round_ns_mean", mean(Histo::DispatchRoundNs));
        out.put("live.grain_setup_ns_mean", mean(Histo::GrainSetupNs));
        out.put(
            "live.grain_exec_share",
            snap.histo(Histo::GrainExecNs).sum as f64 / thread_ns,
        );
        out.put("live.transport_send_ns_mean", mean(Histo::TransportSendNs));
        out.put("live.transport_recv_ns_mean", mean(Histo::TransportRecvNs));
        out.put("live.timer_wheel_ns_mean", mean(Histo::TimerWheelNs));
        out.put("live.park_count", snap.histo(Histo::ParkNs).count as f64);
        out.put(
            "live.park_share",
            snap.histo(Histo::ParkNs).sum as f64 / thread_ns,
        );
        let packets = snap.counter(Counter::PacketsSent);
        if packets > 0 {
            out.put(
                "live.msgs_per_packet",
                snap.counter(Counter::MsgsSent) as f64 / packets as f64,
            );
        }

        out.put("live.ring_ns_per_msg", ring_ns_per_msg());
        out.put("live.wheel_ns_per_timer", wheel_ns_per_timer());
        out.put_span_ms(self.build.1, rec, self.build.0);
        if let Some(metric) = self.totals.1 {
            out.put_span_ms(metric, rec, self.totals.0);
        }
        out
    }
}

/// One message through `ring::spsc`: a push and the pop that frees its
/// slot, on one thread, so the figure is the ring's own instructions
/// without cache-line transfers.
fn ring_ns_per_msg() -> f64 {
    const MSGS: u64 = 1 << 20;
    let (mut tx, mut rx) = spsc::<u64>(1024);
    probe_ns_per_op(9, MSGS, || {
        for i in 0..MSGS {
            tx.push(black_box(i)).expect("ring has room");
            black_box(rx.pop());
        }
    })
}

/// One timer through the wheel: `set` with delays spread over one lap,
/// then `pop_due` as the clock sweeps past them.
fn wheel_ns_per_timer() -> f64 {
    const TIMERS: u64 = 1 << 16;
    probe_ns_per_op(9, TIMERS, || {
        let mut wheel = TimerWheel::new(0);
        let mut now = 0;
        for batch in 0..TIMERS / 256 {
            for i in 0..256 {
                wheel.set(now, 64 * (i % 200) + 1, batch * 256 + i);
            }
            let end = now + 64 * 201;
            while now < end {
                now += 64;
                while let Some(tag) = wheel.pop_due(now) {
                    black_box(tag);
                }
            }
        }
        assert_eq!(wheel.pending(), 0, "every timer fired");
    })
}
