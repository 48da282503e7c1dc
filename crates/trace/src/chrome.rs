//! Chrome trace-event (Perfetto-loadable) JSON export.
//!
//! The output follows the Trace Event Format's JSON-object form:
//! `{"traceEvents": [...], "displayTimeUnit": "ms"}`. One process
//! (`pid` 1) represents the run; each simulated node gets one thread
//! track (`tid` = node id) up to [`MAX_THREAD_TRACKS`] nodes, beyond
//! which contiguous node ranges share a track (see [`Tracks`]).
//! Phases and sub-stages become nested `B`/`E`
//! duration spans, task executions become `X` complete spans, queue
//! depth and reported load become `C` counter series, and lifecycle
//! markers (spawns, migrations, barriers, message sends) become `i`
//! instants. Timestamps are microseconds, which is both the engine's
//! native unit and the format's.

use crate::spans::{Span, Spans};
use crate::{Json, PhaseKind, Time, TraceBuffer, TraceEvent};

/// One process for the whole run.
const PID: u64 = 1;

/// Most thread tracks the exporter will emit. Below this, every node
/// gets its own named track (the historical layout, byte-identical).
/// Above it, contiguous node ranges share a track: a 1M-node trace
/// would otherwise emit 1M `thread_name` + `thread_sort_index`
/// descriptor pairs before the first real event, which Perfetto
/// loads painfully or not at all. Grouped tracks are an aggregate
/// overview — spans from the nodes of a group interleave on one
/// track — which is the only readable rendering at that scale anyway.
pub(crate) const MAX_THREAD_TRACKS: usize = 512;

/// Node → track mapping: identity below [`MAX_THREAD_TRACKS`] nodes,
/// contiguous buckets above.
struct Tracks {
    /// Nodes per track (1 = historical per-node layout).
    group: usize,
    /// Total node count.
    n: usize,
}

impl Tracks {
    fn new(n: usize) -> Self {
        Tracks {
            group: n.div_ceil(MAX_THREAD_TRACKS).max(1),
            n,
        }
    }

    #[inline]
    fn tid(&self, node: usize) -> usize {
        node / self.group
    }

    fn count(&self) -> usize {
        self.n.div_ceil(self.group)
    }

    fn label(&self, tid: usize) -> String {
        if self.group == 1 {
            format!("node {tid}")
        } else {
            let lo = tid * self.group;
            let hi = (lo + self.group - 1).min(self.n - 1);
            format!("nodes {lo}-{hi}")
        }
    }

    /// Counter-series suffix: per node below the cap, per track above.
    fn counter_tag(&self, node: usize) -> String {
        if self.group == 1 {
            format!("n{node}")
        } else {
            format!("t{}", self.tid(node))
        }
    }
}

/// Opens one event object with the fields every record carries; the
/// caller appends the kind-specific members and closes it.
fn event<'j>(j: &'j mut Json, ph: &str, name: &str, ts: Time, tid: usize) -> &'j mut Json {
    j.obj().key("name").str(name).key("ph").str(ph);
    j.key("ts")
        .u64(ts)
        .key("pid")
        .u64(PID)
        .key("tid")
        .u64(tid as u64)
}

/// A `B`/`E` span edge.
fn span(j: &mut Json, ph: &str, name: &str, ts: Time, tid: usize) {
    event(j, ph, name, ts, tid).end();
}

fn args(j: &mut Json, args: &[(&str, u64)]) {
    j.key("args").obj();
    for &(k, v) in args {
        j.key(k).u64(v);
    }
    j.end();
}

/// An `i` instant with scope `s` (`t` = thread, `p` = process).
fn instant(j: &mut Json, name: &str, s: &str, ts: Time, tid: usize, a: &[(&str, u64)]) {
    event(j, "i", name, ts, tid).key("s").str(s);
    args(j, a);
    j.end();
}

/// A `C` counter sample: one series per `name`, one value.
fn counter(j: &mut Json, name: &str, ts: Time, tid: usize, key: &str, value: i64) {
    event(j, "C", name, ts, tid).key("args").obj();
    j.key(key).i64(value).end().end();
}

/// An `M` metadata record naming a track or the process.
fn metadata<'j>(j: &'j mut Json, name: &str, tid: usize) -> &'j mut Json {
    j.obj().key("name").str(name).key("ph").str("M");
    j.key("pid")
        .u64(PID)
        .key("tid")
        .u64(tid as u64)
        .key("args")
        .obj()
}

fn phase_name(kind: PhaseKind, index: u32) -> String {
    format!("{} phase {index}", kind.name())
}

/// Renders a recorded trace as Chrome trace-event JSON (see
/// [`TraceBuffer::chrome_json`]). A span edge the [`Spans`] walk
/// rejects is left out, so `B` and `E` balance on every track.
pub(crate) fn chrome_trace_json(buf: &TraceBuffer, label: &str, end_time: Time) -> String {
    let tracks = Tracks::new(buf.num_nodes());
    let mut out = Json::new();
    let j = &mut out;
    j.obj().key("traceEvents").arr();

    // Metadata: process name and one named, ordered thread track per
    // node — or per contiguous node group above MAX_THREAD_TRACKS.
    metadata(j, "process_name", 0).key("name").str(label);
    j.end().end();
    for tid in 0..tracks.count() {
        metadata(j, "thread_name", tid).key("name");
        j.str(&tracks.label(tid)).end().end();
        metadata(j, "thread_sort_index", tid).key("sort_index");
        j.u64(tid as u64).end().end();
    }

    let mut spans = Spans::default();
    for r in &buf.records {
        let (t, node, raw) = (r.time, tracks.tid(r.node), r.node);
        if spans.step(t, raw, &r.event).is_err() {
            continue;
        }
        match r.event {
            TraceEvent::PhaseBegin { kind, index } => {
                span(j, "B", &phase_name(kind, index), t, node)
            }
            TraceEvent::PhaseEnd { kind, index } => span(j, "E", &phase_name(kind, index), t, node),
            TraceEvent::StageBegin { stage, .. } => span(j, "B", stage.name(), t, node),
            TraceEvent::StageEnd { stage, .. } => span(j, "E", stage.name(), t, node),
            TraceEvent::TaskExec {
                task,
                round,
                origin,
                hops,
                grain_us,
                dispatch_us,
            } => {
                event(j, "X", "task", t, node).key("dur").u64(grain_us);
                let origin = origin as u64;
                args(
                    j,
                    &[
                        ("task", task),
                        ("round", round.into()),
                        ("origin", origin),
                        ("hops", hops.into()),
                        ("dispatch_us", dispatch_us),
                    ],
                );
                j.end();
            }
            TraceEvent::Spawn { round, count } => {
                let a = [("round", round.into()), ("count", count.into())];
                instant(j, "spawn", "t", t, node, &a);
            }
            TraceEvent::MigrateOut { to, count } => {
                let a = [("to", to as u64), ("count", count.into())];
                instant(j, "migrate-out", "t", t, node, &a);
            }
            TraceEvent::MigrateIn { from, count } => {
                let a = [("from", from as u64), ("count", count.into())];
                instant(j, "migrate-in", "t", t, node, &a);
            }
            TraceEvent::Barrier { round } => {
                instant(j, "barrier", "p", t, node, &[("round", round.into())]);
            }
            TraceEvent::RoundBegin { round } => {
                instant(j, "round-start", "t", t, node, &[("round", round.into())]);
            }
            TraceEvent::QueueDepth { depth } => {
                let name = format!("queue depth {}", tracks.counter_tag(raw));
                counter(j, &name, t, node, "depth", depth.into());
            }
            TraceEvent::LoadSample { load } => {
                let name = format!("load {}", tracks.counter_tag(raw));
                counter(j, &name, t, node, "load", load);
            }
            TraceEvent::MsgSend { to, bytes, hops } => {
                let a = [("to", to as u64), ("bytes", bytes), ("hops", hops.into())];
                instant(j, "msg-send", "t", t, node, &a);
            }
            TraceEvent::BatchSend { to, msgs } => {
                let a = [("to", to as u64), ("msgs", msgs.into())];
                instant(j, "batch-send", "t", t, node, &a);
            }
            TraceEvent::RingDepth { depth } => {
                let name = format!("ring depth {}", tracks.counter_tag(raw));
                counter(j, &name, t, node, "depth", depth.into());
            }
            TraceEvent::JobSubmit { tenant, job } => {
                let a = [("tenant", tenant.into()), ("job", job)];
                instant(j, "job-submit", "p", t, node, &a);
            }
            TraceEvent::JobShed { tenant, job } => {
                let a = [("tenant", tenant.into()), ("job", job)];
                instant(j, "job-shed", "p", t, node, &a);
            }
            TraceEvent::JobDispatch { tenant, job, tasks } => {
                let a = [("tenant", tenant.into()), ("job", job), ("tasks", tasks)];
                instant(j, "job-dispatch", "p", t, node, &a);
            }
            TraceEvent::JobComplete {
                tenant,
                job,
                executed,
            } => {
                let a = [
                    ("tenant", tenant.into()),
                    ("job", job),
                    ("executed", executed),
                ];
                instant(j, "job-complete", "p", t, node, &a);
            }
            TraceEvent::NodeTotals { spawned, executed } => {
                let a = [("spawned", spawned), ("executed", executed)];
                instant(j, "node-totals", "t", t, node, &a);
            }
        }
    }

    // Close whatever the halt left open, innermost first.
    for (node, open, _) in spans.into_open() {
        let name = match open {
            Span::Phase(kind, index) => phase_name(kind, index),
            Span::Stage(stage, _) => stage.name().to_string(),
        };
        span(j, "E", &name, end_time, tracks.tid(node));
    }

    j.end().key("displayTimeUnit").str("ms").end();
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Record, SysStage, TraceSink};

    fn sample() -> TraceBuffer {
        let mut b = TraceBuffer::new();
        b.record(
            0,
            0,
            TraceEvent::PhaseBegin {
                kind: PhaseKind::User,
                index: 0,
            },
        );
        b.record(
            50,
            0,
            TraceEvent::TaskExec {
                task: 7,
                round: 0,
                origin: 1,
                hops: 2,
                grain_us: 100,
                dispatch_us: 25,
            },
        );
        b.record(200, 0, TraceEvent::QueueDepth { depth: 4 });
        b.record(
            300,
            0,
            TraceEvent::PhaseEnd {
                kind: PhaseKind::User,
                index: 0,
            },
        );
        b.record(
            300,
            0,
            TraceEvent::PhaseBegin {
                kind: PhaseKind::System,
                index: 1,
            },
        );
        b
    }

    #[test]
    fn emits_b_e_x_c_records_and_closes_open_spans() {
        let json = chrome_trace_json(&sample(), "test run", 500);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("\"displayTimeUnit\":\"ms\"}"));
        for needle in [
            "\"ph\":\"B\"",
            "\"ph\":\"E\"",
            "\"ph\":\"X\"",
            "\"ph\":\"C\"",
            "\"ph\":\"M\"",
            "\"name\":\"user phase 0\"",
            "\"name\":\"system phase 1\"",
            "\"dur\":100",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        // The open system phase is closed at end_time.
        assert!(json.contains("\"name\":\"system phase 1\",\"ph\":\"E\",\"ts\":500"));
        // Balanced B/E.
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 2);
    }

    #[test]
    fn escapes_label() {
        let b = TraceBuffer::new();
        let json = chrome_trace_json(&b, "a\"b\\c", 0);
        assert!(json.contains("a\\\"b\\\\c"));
        // Control characters must not reach the file raw.
        let json = chrome_trace_json(&b, "two\nlines\u{7}", 0);
        assert!(json.contains("two\\nlines\\u0007"), "{json}");
        assert!(!json.contains('\n'));
    }

    #[test]
    fn per_node_tracks_below_threshold() {
        // At small n the layout is the historical one: tid == node,
        // one named track per node.
        let json = chrome_trace_json(&sample(), "small", 500);
        assert!(json.contains("\"args\":{\"name\":\"node 0\"}"));
        assert_eq!(json.matches("\"name\":\"thread_name\"").count(), 1);
        assert!(json.contains("queue depth n0"));
    }

    #[test]
    fn track_descriptors_capped_at_large_n() {
        // 100k distinct node ids: one instant each, far apart.
        let mut b = TraceBuffer::new();
        let n = 100_000;
        for node in 0..n {
            b.record(node as Time, node, TraceEvent::QueueDepth { depth: 1 });
        }
        let json = chrome_trace_json(&b, "large", n as Time);
        let descriptors = json.matches("\"name\":\"thread_name\"").count();
        assert!(
            descriptors <= MAX_THREAD_TRACKS,
            "expected <= {MAX_THREAD_TRACKS} track descriptors, got {descriptors}"
        );
        assert_eq!(
            descriptors,
            json.matches("\"name\":\"thread_sort_index\"").count()
        );
        // Grouped tracks carry range labels and events land on them.
        let group = n.div_ceil(MAX_THREAD_TRACKS);
        assert!(json.contains(&format!("\"args\":{{\"name\":\"nodes 0-{}\"}}", group - 1)));
        assert!(json.contains("queue depth t0"));
        let max_tid = (n - 1) / group;
        assert!(json.contains(&format!("\"tid\":{max_tid}")));
        assert!(!json.contains(&format!("\"tid\":{}", max_tid + 1)));
    }

    #[test]
    fn grouped_spans_still_balance() {
        let mut b = TraceBuffer::new();
        let n = 2000; // above MAX_THREAD_TRACKS
        for node in 0..n {
            b.record(
                node as Time,
                node,
                TraceEvent::PhaseBegin {
                    kind: PhaseKind::User,
                    index: 0,
                },
            );
        }
        // Half the nodes end their phase; the rest are closed at end.
        for node in 0..n / 2 {
            b.record(
                (n + node) as Time,
                node,
                TraceEvent::PhaseEnd {
                    kind: PhaseKind::User,
                    index: 0,
                },
            );
        }
        let json = chrome_trace_json(&b, "grouped", 10_000);
        assert_eq!(
            json.matches("\"ph\":\"B\"").count(),
            json.matches("\"ph\":\"E\"").count(),
            "B/E spans must balance even on shared tracks"
        );
    }

    #[test]
    fn stage_spans_nest_inside_phase() {
        let mut b = TraceBuffer::new();
        b.records.push(Record {
            time: 0,
            node: 3,
            event: TraceEvent::StageBegin {
                stage: SysStage::Plan,
                phase: 2,
            },
        });
        let json = chrome_trace_json(&b, "x", 9);
        assert!(json.contains("\"name\":\"plan\",\"ph\":\"B\",\"ts\":0,\"pid\":1,\"tid\":3"));
        assert!(json.contains("\"name\":\"plan\",\"ph\":\"E\",\"ts\":9"));
    }

    #[test]
    fn span_edges_breaking_the_nesting_are_left_out() {
        let mut b = sample();
        // An end nothing opened, and a begin stamped before the node's
        // last span edge.
        let end = TraceEvent::StageEnd {
            stage: SysStage::Plan,
            phase: 1,
        };
        b.record(400, 1, end);
        let begin = TraceEvent::StageBegin {
            stage: SysStage::Plan,
            phase: 1,
        };
        b.record(100, 0, begin);
        let json = chrome_trace_json(&b, "x", 500);
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 2);
        assert!(!json.contains("\"name\":\"plan\""), "{json}");
    }
}
