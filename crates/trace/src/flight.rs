//! Flight recorder: a fixed-size per-node ring of the most recent
//! trace events, kept always-on so a crash has evidence attached.
//!
//! A [`TraceBuffer`](crate::TraceBuffer) keeps *everything* — perfect
//! for post-run analysis, wrong for an always-on black box, whose
//! memory must stay bounded over an arbitrarily long run. The
//! [`FlightRecorder`] keeps only the last `cap` events per node,
//! overwriting the oldest, and can dump them as text (stderr) or JSON
//! when something goes wrong: a panic in a node thread, an audit
//! failure, or a stall-watchdog trip.
//!
//! The recorder is an ordinary [`TraceSink`], so it rides beside an
//! auditor or a [`TraceBuffer`](crate::TraceBuffer) in a
//! [`Tee`](crate::Tee). [`SharedFlight`] wraps it in an
//! `Arc<Mutex<..>>` so the installing caller can keep a handle for
//! dumping while the install owns the sink position — the watchdog
//! and panic paths dump through that retained handle.

use crate::{Json, NodeId, Time, TraceEvent, TraceSink};
use std::sync::{Arc, Mutex};

/// One recent event as retained by the recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecord {
    /// Timestamp (µs, in the installed clock's domain).
    pub time: Time,
    /// The event.
    pub event: TraceEvent,
}

/// Per-node overwrite ring.
#[derive(Debug, Default)]
struct NodeRing {
    /// Stored records; once `events.len() == cap` the ring overwrites
    /// at `next`.
    events: Vec<FlightRecord>,
    /// Next overwrite position (valid once the ring is full).
    next: usize,
    /// Lifetime records seen on this node (≥ `events.len()`).
    total: u64,
}

impl NodeRing {
    fn push(&mut self, cap: usize, rec: FlightRecord) {
        self.total += 1;
        if self.events.len() < cap {
            self.events.push(rec);
        } else {
            self.events[self.next] = rec;
            self.next = (self.next + 1) % cap;
        }
    }

    /// Records oldest → newest.
    fn ordered(&self) -> impl Iterator<Item = &FlightRecord> {
        let (tail, head) = self.events.split_at(self.next.min(self.events.len()));
        head.iter().chain(tail.iter())
    }
}

/// Fixed-size per-node ring of recent trace events — see the
/// [module docs](self).
#[derive(Debug)]
pub struct FlightRecorder {
    rings: Vec<NodeRing>,
    cap: usize,
}

impl FlightRecorder {
    /// A recorder for `num_nodes` nodes keeping the most recent
    /// `cap_per_node` events on each (both clamped to at least 1;
    /// records from higher node ids grow the node set on demand).
    pub fn new(num_nodes: usize, cap_per_node: usize) -> Self {
        FlightRecorder {
            rings: (0..num_nodes.max(1)).map(|_| NodeRing::default()).collect(),
            cap: cap_per_node.max(1),
        }
    }

    /// Events currently retained across all nodes.
    pub fn retained(&self) -> usize {
        self.rings.iter().map(|r| r.events.len()).sum()
    }

    /// Lifetime events recorded (including overwritten ones).
    pub fn total_recorded(&self) -> u64 {
        self.rings.iter().map(|r| r.total).sum()
    }

    /// The retained events of `node`, oldest first (empty for unknown
    /// nodes).
    pub fn recent(&self, node: NodeId) -> Vec<FlightRecord> {
        self.rings
            .get(node)
            .map(|r| r.ordered().cloned().collect())
            .unwrap_or_default()
    }

    /// Renders every node's retained events, oldest first, as
    /// line-oriented text for a stderr dump. `reason` heads the dump
    /// so log scrapers can attribute it.
    pub fn dump_text(&self, reason: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        writeln!(out, "=== flight recorder dump: {reason} ===").unwrap();
        writeln!(
            out,
            "retained {} of {} lifetime events ({} per node cap)",
            self.retained(),
            self.total_recorded(),
            self.cap
        )
        .unwrap();
        for (node, ring) in self.rings.iter().enumerate() {
            if ring.events.is_empty() {
                continue;
            }
            writeln!(
                out,
                "--- node {node} (last {} of {}) ---",
                ring.events.len(),
                ring.total
            )
            .unwrap();
            for rec in ring.ordered() {
                writeln!(out, "  t={}us {:?}", rec.time, rec.event).unwrap();
            }
        }
        writeln!(out, "=== end flight recorder dump ===").unwrap();
        out
    }

    /// Renders the dump as a JSON object:
    /// `{"reason": .., "nodes": [{"node": n, "events": [{"t_us": ..,
    /// "event": ".."}]}]}`. Event payloads are the debug rendering —
    /// the dump is for humans and log pipelines, not for replay (a
    /// full [`TraceBuffer`](crate::TraceBuffer) capture serves that).
    pub fn dump_json(&self, reason: &str) -> String {
        let mut j = Json::new();
        j.obj().key("reason").str(reason);
        j.key("retained").u64(self.retained() as u64);
        j.key("total").u64(self.total_recorded());
        j.key("nodes").arr();
        for (node, ring) in self.rings.iter().enumerate() {
            if ring.events.is_empty() {
                continue;
            }
            j.obj().key("node").u64(node as u64).key("events").arr();
            for rec in ring.ordered() {
                j.obj().key("t_us").u64(rec.time);
                j.key("event").str(&format!("{:?}", rec.event)).end();
            }
            j.end().end();
        }
        j.end().end();
        j.finish()
    }

    fn push(&mut self, node: NodeId, rec: FlightRecord) {
        if node >= self.rings.len() {
            self.rings.resize_with(node + 1, NodeRing::default);
        }
        let cap = self.cap;
        self.rings[node].push(cap, rec);
    }
}

impl TraceSink for FlightRecorder {
    fn record(&mut self, time_us: Time, node: NodeId, event: TraceEvent) {
        self.push(
            node,
            FlightRecord {
                time: time_us,
                event,
            },
        );
    }
}

/// A [`FlightRecorder`] behind `Arc<Mutex<..>>`, usable both as the
/// installed [`TraceSink`] *and* as a retained dump handle.
///
/// [`with_sink`](crate::with_sink) insists the sink is released when
/// the run ends — correct for buffers that are consumed afterwards,
/// but the flight recorder must be dumpable *during* the run (from
/// the watchdog) and *after a panic*. `SharedFlight` is a thin sink
/// whose clones all feed one recorder; install one clone, keep
/// another, and the install's `Arc::try_unwrap` still succeeds
/// because it unwraps the outer sink, not the shared recorder.
#[derive(Debug, Clone)]
pub struct SharedFlight(Arc<Mutex<FlightRecorder>>);

impl SharedFlight {
    /// A shared recorder (see [`FlightRecorder::new`]).
    pub fn new(num_nodes: usize, cap_per_node: usize) -> Self {
        SharedFlight(Arc::new(Mutex::new(FlightRecorder::new(
            num_nodes,
            cap_per_node,
        ))))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FlightRecorder> {
        // A panicking node thread must not lose the dump: un-poison.
        self.0.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Lifetime events recorded (including overwritten ones).
    pub fn total_recorded(&self) -> u64 {
        self.lock().total_recorded()
    }

    /// Text dump (see [`FlightRecorder::dump_text`]).
    pub fn dump_text(&self, reason: &str) -> String {
        self.lock().dump_text(reason)
    }

    /// JSON dump (see [`FlightRecorder::dump_json`]).
    pub fn dump_json(&self, reason: &str) -> String {
        self.lock().dump_json(reason)
    }

    /// Writes the text dump to stderr, headed by `reason`.
    pub fn dump_to_stderr(&self, reason: &str) {
        eprint!("{}", self.dump_text(reason));
    }
}

impl TraceSink for SharedFlight {
    fn record(&mut self, time_us: Time, node: NodeId, event: TraceEvent) {
        self.lock().record(time_us, node, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instant(depth: u32) -> TraceEvent {
        TraceEvent::QueueDepth { depth }
    }

    #[test]
    fn ring_overwrites_oldest_and_orders_dump() {
        let mut fr = FlightRecorder::new(2, 3);
        for i in 0..5u64 {
            fr.record(i, 0, instant(i as u32));
        }
        fr.record(99, 1, instant(99));
        assert_eq!(fr.total_recorded(), 6);
        assert_eq!(fr.retained(), 4, "node 0 capped at 3, node 1 holds 1");
        let recent = fr.recent(0);
        assert_eq!(
            recent.iter().map(|r| r.time).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "oldest two overwritten, order preserved"
        );
        let text = fr.dump_text("test");
        assert!(text.contains("flight recorder dump: test"));
        assert!(text.contains("node 1"));
        assert!(!text.contains("t=0us"), "overwritten event absent");
    }

    #[test]
    fn unknown_nodes_grow_on_demand() {
        let mut fr = FlightRecorder::new(1, 2);
        fr.record(7, 5, instant(1));
        assert_eq!(fr.recent(5).len(), 1);
        assert!(fr.recent(4).is_empty());
    }

    #[test]
    fn json_dump_is_parseable_shape() {
        let mut fr = FlightRecorder::new(1, 4);
        fr.record(1, 0, instant(2));
        let json = fr.dump_json("why");
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"reason\":\"why\""));
        assert!(json.contains("\"node\":0"));
        assert!(json.contains("\"t_us\":1"));
        // A control character in the reason is escaped, not `{:?}`-quoted.
        let json = fr.dump_json("stall\u{7}");
        assert!(json.contains("\"reason\":\"stall\\u0007\""), "{json}");
    }

    #[test]
    fn shared_flight_records_through_clones() {
        let shared = SharedFlight::new(2, 8);
        let mut clone = shared.clone();
        clone.record(10, 1, instant(3));
        assert_eq!(shared.total_recorded(), 1);
        assert!(shared.dump_text("clone test").contains("t=10us"));
    }
}
