//! Harness-side span recorder: the benchmark times its own calls into
//! each layer's public functions; nothing inside the program is traced.
//!
//! Spans are kept in memory and written out when the run ends. A
//! layer's self time is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::{obj, Json};

/// One timed call. `parent` indexes the recorder's span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub iteration: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Calls, total and self time of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Records spans on one thread; a disabled recorder records nothing
/// and reads no clock.
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Stamped on every span entered from now on.
    pub iteration: u32,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iteration: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Switches recording; spans already taken are kept.
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled inside an open span");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            iteration: self.iteration,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("exit without enter");
        self.spans[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span; `f` gets the recorder back for nesting.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        self.enter(name);
        let r = f(self);
        self.exit();
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every closed span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// The recorded spans as a JSON document for `trace.json`.
    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                obj([
                    ("name", s.name.into()),
                    ("start_ns", s.start_ns.into()),
                    ("end_ns", s.end_ns.into()),
                    ("parent", s.parent.map_or(Json::Null, Json::from)),
                    ("iteration", u64::from(s.iteration).into()),
                ])
            })
            .collect();
        obj([("workload", workload.into()), ("spans", Json::Arr(spans))])
    }
}

/// Self time of each span: duration minus its direct children's
/// durations. One thread records, so siblings never overlap.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Aggregates spans by name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.total_ns += s.duration_ns();
        e.self_ns += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            iteration: 0,
        }
    }

    #[test]
    fn self_time_subtracts_sibling_children() {
        let spans = [
            span("iteration", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 40]);
    }

    #[test]
    fn self_time_subtracts_only_direct_children_when_nested() {
        let spans = [
            span("iteration", 0, 100, None),
            span("run_serve", 5, 95, Some(0)),
            span("service", 10, 30, Some(1)),
            span("service", 40, 80, Some(1)),
        ];
        // iteration: 100 − 90; run_serve: 90 − 20 − 40; leaves keep all.
        assert_eq!(self_times(&spans), vec![10, 30, 20, 40]);
        let layers = by_name(&spans);
        assert_eq!(
            layers["service"],
            LayerTime {
                calls: 2,
                total_ns: 60,
                self_ns: 60
            }
        );
        assert_eq!(layers["run_serve"].self_ns, 30);
        // Self times partition the root's interval.
        assert_eq!(layers.values().map(|l| l.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_spans_and_stamps_iterations() {
        let mut rec = Recorder::new(true);
        rec.iteration = 3;
        rec.span("outer", |rec| {
            rec.span("inner", |_| ());
            rec.span("inner", |_| ());
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
        assert!(spans.iter().all(|s| s.iteration == 3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        assert_eq!(rec.durations_ms("inner").len(), 2);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.span("x", |_| 7), 7);
        assert!(rec.spans().is_empty());
    }
}
