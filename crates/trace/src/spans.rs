//! The crate's one span walk: per-node stacks that pair every
//! `PhaseEnd`/`StageEnd` with its begin. [`validate`], the Chrome
//! exporter and [`PhaseReport`](crate::PhaseReport) all step events
//! through it, so they agree on what a span is and when a stream
//! breaks the rules.

use crate::{NodeId, PhaseKind, SysStage, Time, TraceBuffer, TraceEvent};

/// A phase or sub-stage span, as its begin and end events name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Span {
    /// A user or system phase and its index.
    Phase(PhaseKind, u32),
    /// A sub-stage and the system phase it belongs to.
    Stage(SysStage, u32),
}

/// One node's open spans (innermost last, with their begin times), the
/// time of its latest span edge and its latest system-phase index.
#[derive(Debug, Clone, Default)]
struct NodeSpans {
    open: Vec<(Span, Time)>,
    last_ts: Time,
    last_sys: Option<u32>,
}

/// Span stacks for every node seen so far, grown on demand.
#[derive(Debug, Clone, Default)]
pub(crate) struct Spans(Vec<NodeSpans>);

impl Spans {
    /// Steps `event`, stamped `t` on `node`. A begin opens its span and
    /// an end returns the span it closed with its begin time; other
    /// events pass through as `Ok(None)`. A span edge breaking one of
    /// [`validate`]'s rules is an error and leaves the state untouched.
    pub(crate) fn step(
        &mut self,
        t: Time,
        node: NodeId,
        event: &TraceEvent,
    ) -> Result<Option<(Span, Time)>, String> {
        let (begins, span) = match *event {
            TraceEvent::PhaseBegin { kind, index } => (true, Span::Phase(kind, index)),
            TraceEvent::PhaseEnd { kind, index } => (false, Span::Phase(kind, index)),
            TraceEvent::StageBegin { stage, phase } => (true, Span::Stage(stage, phase)),
            TraceEvent::StageEnd { stage, phase } => (false, Span::Stage(stage, phase)),
            _ => return Ok(None),
        };
        if node >= self.0.len() {
            self.0.resize_with(node + 1, NodeSpans::default);
        }
        let s = &mut self.0[node];
        let last = s.last_ts;
        if t < last {
            return Err(format!("span timestamp {t} precedes {last}"));
        }
        let closed = if begins {
            if let Span::Phase(PhaseKind::System, index) = span {
                if let Some(prev) = s.last_sys.filter(|&prev| index <= prev) {
                    return Err(format!("system phase {index} after phase {prev}"));
                }
                s.last_sys = Some(index);
            }
            s.open.push((span, t));
            None
        } else {
            let top = s.open.last().map(|&(open, _)| open);
            if top != Some(span) {
                return Err(format!("{event:?} closes {top:?}"));
            }
            s.open.pop()
        };
        s.last_ts = t;
        Ok(closed)
    }

    /// The innermost system phase open on `node`.
    pub(crate) fn system_phase(&self, node: NodeId) -> Option<u32> {
        let open = &self.0.get(node)?.open;
        open.iter().rev().find_map(|&(span, _)| match span {
            Span::Phase(PhaseKind::System, index) => Some(index),
            _ => None,
        })
    }

    /// Every span still open, node by node and innermost first, with
    /// its node and begin time.
    pub(crate) fn into_open(self) -> impl Iterator<Item = (NodeId, Span, Time)> {
        let nodes = self.0.into_iter().enumerate();
        nodes.flat_map(|(node, s)| {
            s.open
                .into_iter()
                .rev()
                .map(move |(span, t)| (node, span, t))
        })
    }
}

/// What [`validate`] found in a well-formed trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCheck {
    /// Closed phase spans (begin/end matched).
    pub closed_phases: usize,
    /// Closed sub-stage spans.
    pub closed_stages: usize,
    /// Spans still open at the end of the stream (closed by exporters
    /// at the run's end time — e.g. the final termination phase, cut
    /// short when the machine halts).
    pub open_spans: usize,
    /// Task executions recorded.
    pub task_execs: usize,
}

/// Checks trace well-formedness:
///
/// * every `PhaseEnd`/`StageEnd` matches the innermost open span of the
///   same node (balanced, properly nested);
/// * span timestamps are monotone non-decreasing per node (instant
///   events like [`TraceEvent::MsgSend`] are exempt: the engine stamps
///   them with their intra-handler departure offset, which may precede
///   span events the handler emitted after more compute);
/// * system-phase indices are strictly increasing per node.
///
/// Spans still open when the stream ends are allowed (counted in
/// [`TraceCheck::open_spans`]): a RIPS run halts inside its final
/// termination phase, and exporters close those spans at the run's end
/// time.
pub fn validate(buf: &TraceBuffer) -> Result<TraceCheck, String> {
    let mut spans = Spans::default();
    let mut check = TraceCheck::default();
    for (i, r) in buf.records.iter().enumerate() {
        match spans.step(r.time, r.node, &r.event) {
            Err(e) => return Err(format!("record {i}, node {}: {e}", r.node)),
            Ok(Some((Span::Phase(..), _))) => check.closed_phases += 1,
            Ok(Some((Span::Stage(..), _))) => check.closed_stages += 1,
            Ok(None) => check.task_execs += matches!(r.event, TraceEvent::TaskExec { .. }) as usize,
        }
    }
    check.open_spans = spans.into_open().count();
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_rejected_edge_leaves_the_stacks_untouched() {
        let user = |index| Span::Phase(PhaseKind::User, index);
        let mut spans = Spans::default();
        let begin = TraceEvent::PhaseBegin {
            kind: PhaseKind::User,
            index: 0,
        };
        assert_eq!(spans.step(10, 2, &begin), Ok(None));
        // A mismatched end and a backwards one are both refused ...
        let stage_end = TraceEvent::StageEnd {
            stage: SysStage::Plan,
            phase: 0,
        };
        assert!(spans.step(20, 2, &stage_end).is_err());
        let end = TraceEvent::PhaseEnd {
            kind: PhaseKind::User,
            index: 0,
        };
        assert!(spans.step(5, 2, &end).is_err());
        // ... and the span they could not close still closes after them.
        assert_eq!(spans.step(30, 2, &end), Ok(Some((user(0), 10))));
        assert_eq!(spans.into_open().count(), 0);
    }
}
