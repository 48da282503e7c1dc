//! Observability microbenchmark: what one event costs.
//!
//! The telemetry story (DESIGN §10) rests on two claims: the tracer
//! and the meter are a single predictable branch when nothing is
//! installed, and cheap enough to leave always-on when something is.
//! This suite measures both claims with a tight loop over one
//! operation, best of N repeats, ns/op.
//!
//! Six rows:
//!
//! * `tracer-off`   — [`Tracer::emit`] with no sink installed (the
//!   simulator's default); the event closure must never run.
//! * `tracer-masked` — a sink is installed but did not ask for the
//!   emitted kind (what the per-task path costs under the invariant
//!   auditor); the closure must never run either, and the cost should
//!   match `tracer-off`.
//! * `tracer-on`    — emit into an installed [`TraceBuffer`]: payload
//!   construction + sink lock + record.
//! * `flight-on`    — emit into a [`FlightRecorder`] overwrite ring,
//!   the always-on live-run configuration.
//! * `counter-add`  — [`Meter::inc`] against an installed registry:
//!   one relaxed fetch-add on a cache-line-padded shard.
//! * `histo-observe` — [`Meter::observe`]: fetch-adds on the log2
//!   bucket, sum, and count cells.
//!
//! Panics if any instrumented run recorded the wrong number of events
//! (a lost tap would make every cost number a lie).

use std::time::Instant;

use rips_trace::metrics_rt::{Counter, Histo};
use rips_trace::{
    with_metrics, with_sink, EventKind, FlightRecorder, Interest, Json, Meter, MetricsRegistry,
    NodeId, Time, TraceBuffer, TraceEvent, TraceSink, Tracer,
};

use super::Suite;
use crate::args::{Args, Spec};

const SPEC: Spec = &[
    "trace  ns per trace event / metric update, tracer off vs on",
    "--out S=BENCH_TRACE.json  where to write the JSON document",
    "--events N=1000000       operations per timed loop",
    "--repeats N=3            timed loops per row (best-of)",
];

pub(super) const SUITE: Suite = (SPEC, run);

/// One emitted payload, varied per iteration so the compiler cannot
/// hoist the closure body out of the loop.
fn event(i: u64) -> TraceEvent {
    TraceEvent::QueueDepth {
        depth: (i & 0xffff) as u32,
    }
}

/// Times `f` over `events` iterations and returns total ns.
fn timed(f: impl FnOnce()) -> u64 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos() as u64
}

/// Emits `events` queue samples through `tracer`, which must not want
/// them: total ns, and whether no payload closure ran.
fn unwanted_emits(tracer: &Tracer, events: u64) -> (u64, bool) {
    let mut closures_ran = 0u64;
    let ns = timed(|| {
        for i in 0..events {
            tracer.emit(EventKind::QueueDepth, i, (i % 7) as usize, || {
                closures_ran += 1;
                event(i)
            });
        }
    });
    (ns, closures_ran == 0)
}

fn run_tracer_off(events: u64) -> (u64, bool) {
    // No sink installed: `current()` hands back a tracer with an empty
    // interest and every emit must take the single not-wanted branch.
    unwanted_emits(&Tracer::current(), events)
}

/// A sink that consumes barriers only, counting what reaches it.
struct BarriersOnly(u64);

impl TraceSink for BarriersOnly {
    fn record(&mut self, _time_us: Time, _node: NodeId, _event: TraceEvent) {
        self.0 += 1;
    }
    fn interest(&self) -> Interest {
        Interest::of(&[EventKind::Barrier])
    }
}

fn run_tracer_masked(events: u64) -> (u64, bool) {
    let (sink, (ns, unbuilt)) = with_sink(BarriersOnly(0), || {
        unwanted_emits(&Tracer::current(), events)
    });
    (ns, unbuilt && sink.0 == 0)
}

fn run_tracer_on(events: u64) -> (u64, bool) {
    let mut ns = 0;
    let (buf, ()) = with_sink(TraceBuffer::new(), || {
        let tracer = Tracer::current();
        ns = timed(|| {
            for i in 0..events {
                tracer.emit(EventKind::QueueDepth, i, (i % 7) as usize, || event(i));
            }
        });
    });
    (ns, buf.records.len() as u64 == events)
}

fn run_flight_on(events: u64) -> (u64, bool) {
    let mut ns = 0;
    let (rec, ()) = with_sink(FlightRecorder::new(8, 64), || {
        let tracer = Tracer::current();
        ns = timed(|| {
            for i in 0..events {
                tracer.emit(EventKind::QueueDepth, i, (i % 7) as usize, || event(i));
            }
        });
    });
    (ns, rec.total_recorded() == events)
}

fn run_counter_add(events: u64) -> (u64, bool) {
    let reg = MetricsRegistry::new(8);
    let mut ns = 0;
    with_metrics(&reg, || {
        let meter = Meter::current().for_shard(3);
        ns = timed(|| {
            for _ in 0..events {
                meter.inc(Counter::TasksExecuted);
            }
        });
    });
    (ns, reg.counter_total(Counter::TasksExecuted) == events)
}

fn run_histo_observe(events: u64) -> (u64, bool) {
    let reg = MetricsRegistry::new(8);
    let mut ns = 0;
    with_metrics(&reg, || {
        let meter = Meter::current().for_shard(3);
        ns = timed(|| {
            for i in 0..events {
                meter.observe(Histo::GrainExecNs, i);
            }
        });
    });
    (ns, reg.snapshot().histo(Histo::GrainExecNs).count == events)
}

fn run(args: &Args, mut doc: Json) -> Option<Json> {
    let events: u64 = args.num("--events");
    let repeats = args.num::<usize>("--repeats").max(1);
    println!("trace/metrics microbenchmark: {events} events/op, best of {repeats}");
    println!("{:>14} {:>12}", "op", "ns/event");

    /// One benchmark row: returns (total ns, event-count check).
    type Row = fn(u64) -> (u64, bool);
    let rows: &[(&str, Row)] = &[
        ("tracer-off", run_tracer_off),
        ("tracer-masked", run_tracer_masked),
        ("tracer-on", run_tracer_on),
        ("flight-on", run_flight_on),
        ("counter-add", run_counter_add),
        ("histo-observe", run_histo_observe),
    ];
    doc.key("events").u64(events);
    doc.key("repeats").u64(repeats as u64);
    doc.key("rows").arr();
    for &(label, f) in rows {
        let mut best = u64::MAX;
        for _ in 0..repeats {
            let (ns, counted) = f(events);
            assert!(counted, "{label}: an instrumented run lost events");
            best = best.min(ns);
        }
        let ns_per_event = best as f64 / events as f64;
        println!("{label:>14} {ns_per_event:>12.2}");
        doc.obj().key("op").str(label);
        doc.key("ns_per_event").f64(ns_per_event, 2).end();
    }
    doc.end();
    Some(doc)
}
