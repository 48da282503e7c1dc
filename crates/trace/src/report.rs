//! The structured phase-anatomy aggregator.
//!
//! Folds the trace stream, as it is emitted, into the numbers the paper
//! narrates in §5: per-system-phase durations and migration volumes,
//! sub-stage breakdowns (idle detection, load collection, plan
//! computation, migration), and user-phase/task-grain distributions —
//! each as a `p50/p95/max` histogram, renderable as a text table or as
//! JSONL for BENCH files.

use crate::spans::{Span, Spans};
use crate::{
    EventKind, Hist, Interest, Json, NodeId, PhaseKind, SysStage, Time, TraceEvent, TraceSink,
};

/// Aggregated anatomy of one system phase.
#[derive(Debug, Clone, Default)]
pub struct PhaseRow {
    /// Phase index.
    pub phase: u32,
    /// Earliest entry into the phase across nodes (µs).
    pub begin: Time,
    /// Latest exit from the phase across nodes (µs).
    pub end: Time,
    /// Per-node phase-span durations (µs).
    pub span_us: Hist,
    /// Per-node idle-detect latencies ending in this phase (µs).
    pub idle_detect_us: Hist,
    /// Per-node load-collection durations (µs).
    pub load_collect_us: Hist,
    /// Plan-computation duration on the planning node (µs; 0 for a
    /// termination phase, which computes no plan).
    pub plan_us: Time,
    /// Per-node migration-stage durations (µs).
    pub migrate_us: Hist,
    /// Tasks migrated during the phase.
    pub migrated_tasks: u64,
    /// Migration messages sent during the phase.
    pub migrate_msgs: u64,
}

/// Aggregated anatomy of a whole run: a [`TraceSink`] that folds each
/// event as it arrives and keeps none of them. Install it with
/// [`with_sink`](crate::with_sink), then call [`PhaseReport::close_at`]
/// with the run's end time before reading it.
#[derive(Debug, Clone, Default)]
pub struct PhaseReport {
    /// Per-system-phase rows, in phase order.
    pub phases: Vec<PhaseRow>,
    /// Per-node user-phase durations (µs), all phases pooled.
    pub user_phase_us: Hist,
    /// Idle-detect latencies (µs), all phases pooled.
    pub idle_detect_us: Hist,
    /// Task grain durations (µs).
    pub task_grain_us: Hist,
    /// Origin→executor hop counts, one sample per task.
    pub task_hops: Hist,
    /// Tasks executed.
    pub tasks: u64,
    /// Tasks executed off their origin node.
    pub nonlocal_tasks: u64,
    /// Migration messages (all sources, phases or not).
    pub migrate_msgs: u64,
    /// Tasks migrated (all sources).
    pub migrated_tasks: u64,
    /// Highest ready-queue depth sampled.
    pub peak_queue_depth: u32,
    /// Rounds observed (from round-begin/barrier markers).
    pub rounds: u32,
    /// Run end time the report was closed at (µs).
    pub end_time: Time,
    /// The spans open on each node.
    spans: Spans,
}

impl TraceSink for PhaseReport {
    fn record(&mut self, t: Time, node: NodeId, event: TraceEvent) {
        match self.spans.step(t, node, &event) {
            // A span edge that breaks the nesting rules is skipped, so a
            // malformed stream still folds.
            Err(_) => return,
            Ok(Some((span, begin))) => return self.close(span, begin, t),
            Ok(None) => {}
        }
        match event {
            TraceEvent::TaskExec { hops, grain_us, .. } => {
                self.tasks += 1;
                self.task_grain_us.push(grain_us);
                self.task_hops.push(hops.into());
                if hops > 0 {
                    self.nonlocal_tasks += 1;
                }
            }
            TraceEvent::MigrateOut { count, .. } => {
                self.migrate_msgs += 1;
                self.migrated_tasks += u64::from(count);
                if let Some(p) = self.spans.system_phase(node) {
                    let row = self.row(p);
                    row.migrate_msgs += 1;
                    row.migrated_tasks += u64::from(count);
                }
            }
            TraceEvent::QueueDepth { depth } => {
                self.peak_queue_depth = self.peak_queue_depth.max(depth);
            }
            TraceEvent::Barrier { round } | TraceEvent::RoundBegin { round } => {
                self.rounds = self.rounds.max(round + 1);
            }
            _ => {}
        }
    }

    /// The kinds the fold reads: spans, task executions, outbound
    /// migrations, queue depth and round markers.
    fn interest(&self) -> Interest {
        Interest::of(&[
            EventKind::UserPhase,
            EventKind::SystemPhase,
            EventKind::Stage,
            EventKind::TaskExec,
            EventKind::MigrateOut,
            EventKind::QueueDepth,
            EventKind::Barrier,
            EventKind::RoundBegin,
        ])
    }
}

impl PhaseReport {
    /// Closes every span still open at `end_time`, the run's end (RIPS
    /// halts inside its final termination phase), and stamps the
    /// report with it.
    pub fn close_at(&mut self, end_time: Time) {
        self.end_time = end_time;
        for (_, span, begin) in std::mem::take(&mut self.spans).into_open() {
            self.close(span, begin, end_time);
        }
        let unopened = self.phases.iter_mut().filter(|r| r.begin == Time::MAX);
        unopened.for_each(|r| r.begin = 0);
    }

    /// The row of system phase `phase`, inserted in phase order on
    /// first use; its `begin` stays `Time::MAX` until a node closes the
    /// phase.
    fn row(&mut self, phase: u32) -> &mut PhaseRow {
        let i = self.phases.partition_point(|r| r.phase < phase);
        if self.phases.get(i).is_none_or(|r| r.phase != phase) {
            let mut row = PhaseRow::default();
            (row.phase, row.begin) = (phase, Time::MAX);
            self.phases.insert(i, row);
        }
        &mut self.phases[i]
    }

    /// Folds one span, open from `begin` to `end`, into its histograms.
    fn close(&mut self, span: Span, begin: Time, end: Time) {
        let dur = end.saturating_sub(begin);
        match span {
            Span::Phase(PhaseKind::User, _) => self.user_phase_us.push(dur),
            Span::Phase(PhaseKind::System, p) => {
                let row = self.row(p);
                row.span_us.push(dur);
                row.begin = row.begin.min(begin);
                row.end = row.end.max(end);
            }
            Span::Stage(stage, p) => {
                if stage == SysStage::IdleDetect {
                    self.idle_detect_us.push(dur);
                }
                let row = self.row(p);
                match stage {
                    SysStage::IdleDetect => row.idle_detect_us.push(dur),
                    SysStage::LoadCollect => row.load_collect_us.push(dur),
                    SysStage::Plan => row.plan_us = dur,
                    SysStage::Migrate => row.migrate_us.push(dur),
                }
            }
        }
    }

    /// Renders the report as an aligned text table (durations in
    /// virtual µs, labelled in the header, as `p50/p95/max` triplets).
    /// Takes `&mut self` because percentile queries sort the underlying
    /// samples lazily.
    pub fn render(&mut self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "run anatomy: {} tasks ({} non-local), {} round(s), end {:.3} s, peak queue {}\n",
            self.tasks,
            self.nonlocal_tasks,
            self.rounds,
            self.end_time as f64 / 1e6,
            self.peak_queue_depth,
        ));
        out.push_str("time unit: virtual µs\n");
        out.push_str(&format!(
            "task grain   µs p50/p95/max: {:>24}   ({} execs)\n",
            hist3(&mut self.task_grain_us),
            self.task_grain_us.count()
        ));
        out.push_str(&format!(
            "task hops       p50/p95/max: {:>24}\n",
            hist3(&mut self.task_hops)
        ));
        if self.user_phase_us.count() > 0 {
            out.push_str(&format!(
                "user phase   µs p50/p95/max: {:>24}   ({} spans)\n",
                hist3(&mut self.user_phase_us),
                self.user_phase_us.count()
            ));
        }
        if self.idle_detect_us.count() > 0 {
            out.push_str(&format!(
                "idle-detect  µs p50/p95/max: {:>24}   ({} detections)\n",
                hist3(&mut self.idle_detect_us),
                self.idle_detect_us.count()
            ));
        }
        out.push_str(&format!(
            "migrations: {} tasks in {} messages\n",
            self.migrated_tasks, self.migrate_msgs
        ));
        if self.phases.is_empty() {
            out.push_str("(no system phases: this scheduler balances continuously)\n");
            return out;
        }
        out.push_str(&format!("\nsystem phases ({}):\n", self.phases.len()));
        out.push_str(&format!(
            "{:>5}  {:>10}  {:>18}  {:>18}  {:>8}  {:>18}  {:>18}  {:>6}  {:>5}\n",
            "phase",
            "window µs",
            "span p50/p95/max",
            "collect p50/95/mx",
            "plan µs",
            "migrate p50/95/mx",
            "idle p50/p95/max",
            "moved",
            "msgs"
        ));
        for row in &mut self.phases {
            out.push_str(&format!(
                "{:>5}  {:>10}  {:>18}  {:>18}  {:>8}  {:>18}  {:>18}  {:>6}  {:>5}\n",
                row.phase,
                row.end.saturating_sub(row.begin),
                hist3(&mut row.span_us),
                hist3(&mut row.load_collect_us),
                row.plan_us,
                hist3(&mut row.migrate_us),
                hist3(&mut row.idle_detect_us),
                row.migrated_tasks,
                row.migrate_msgs
            ));
        }
        out
    }

    /// Renders the report as JSONL: one `summary` line followed by one
    /// `phase` line per system phase — the machine-readable sibling of
    /// [`PhaseReport::render`], meant for BENCH files.
    pub fn to_jsonl(&mut self) -> String {
        /// Writes `<name>_p50`, `<name>_p95` and (with `max`) `<name>_max`.
        fn quantiles(j: &mut Json, name: &str, h: &mut Hist, max: bool) {
            let [p50, p95, p100] = h.percentiles([50, 95, 100]);
            j.key(&format!("{name}_p50")).u64(p50);
            j.key(&format!("{name}_p95")).u64(p95);
            if max {
                j.key(&format!("{name}_max")).u64(p100);
            }
        }
        let mut j = Json::new();
        j.obj().key("type").str("summary");
        j.key("clock").str("virtual");
        j.key("tasks").u64(self.tasks);
        j.key("nonlocal").u64(self.nonlocal_tasks);
        j.key("rounds").u64(self.rounds.into());
        j.key("end_us").u64(self.end_time);
        j.key("peak_queue_depth").u64(self.peak_queue_depth.into());
        j.key("migrated_tasks").u64(self.migrated_tasks);
        j.key("migrate_msgs").u64(self.migrate_msgs);
        quantiles(&mut j, "task_grain", &mut self.task_grain_us, true);
        quantiles(&mut j, "user_phase", &mut self.user_phase_us, false);
        quantiles(&mut j, "idle_detect", &mut self.idle_detect_us, true);
        j.end();
        let mut out = j.finish() + "\n";
        for row in &mut self.phases {
            let mut j = Json::new();
            j.obj().key("type").str("phase");
            j.key("phase").u64(row.phase.into());
            j.key("begin_us").u64(row.begin);
            j.key("end_us").u64(row.end);
            quantiles(&mut j, "span", &mut row.span_us, true);
            quantiles(&mut j, "load_collect", &mut row.load_collect_us, false);
            j.key("plan_us").u64(row.plan_us);
            quantiles(&mut j, "migrate", &mut row.migrate_us, false);
            quantiles(&mut j, "idle_detect", &mut row.idle_detect_us, true);
            j.key("migrated_tasks").u64(row.migrated_tasks);
            j.key("migrate_msgs").u64(row.migrate_msgs);
            j.end();
            out += &j.finish();
            out.push('\n');
        }
        out
    }
}

fn hist3(h: &mut Hist) -> String {
    let [p50, p95, max] = h.percentiles([50, 95, 100]);
    format!("{p50}/{p95}/{max}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_labels_time_units_per_clock() {
        let mut rep = PhaseReport::default();
        phase_events(&mut rep, 0, 1, 0);
        rep.close_at(100);
        assert!(rep.render().contains("time unit: virtual µs"));
        assert!(rep.to_jsonl().contains("\"clock\":\"virtual\""));
    }

    fn phase_events(rep: &mut PhaseReport, node: usize, p: u32, t0: Time) {
        rep.record(
            t0,
            node,
            TraceEvent::StageBegin {
                stage: SysStage::IdleDetect,
                phase: p,
            },
        );
        rep.record(
            t0 + 10,
            node,
            TraceEvent::StageEnd {
                stage: SysStage::IdleDetect,
                phase: p,
            },
        );
        rep.record(
            t0 + 10,
            node,
            TraceEvent::PhaseBegin {
                kind: PhaseKind::System,
                index: p,
            },
        );
        rep.record(
            t0 + 10,
            node,
            TraceEvent::StageBegin {
                stage: SysStage::LoadCollect,
                phase: p,
            },
        );
        rep.record(
            t0 + 30,
            node,
            TraceEvent::StageEnd {
                stage: SysStage::LoadCollect,
                phase: p,
            },
        );
        rep.record(t0 + 30, node, TraceEvent::LoadSample { load: 5 });
        rep.record(
            t0 + 60,
            node,
            TraceEvent::StageBegin {
                stage: SysStage::Migrate,
                phase: p,
            },
        );
        rep.record(t0 + 70, node, TraceEvent::MigrateOut { to: 1, count: 3 });
        rep.record(
            t0 + 80,
            node,
            TraceEvent::StageEnd {
                stage: SysStage::Migrate,
                phase: p,
            },
        );
        rep.record(
            t0 + 80,
            node,
            TraceEvent::PhaseEnd {
                kind: PhaseKind::System,
                index: p,
            },
        );
    }

    #[test]
    fn aggregates_phase_and_stage_durations() {
        let mut rep = PhaseReport::default();
        phase_events(&mut rep, 0, 1, 100);
        phase_events(&mut rep, 1, 1, 120);
        rep.close_at(1000);
        assert_eq!(rep.phases.len(), 1);
        let row = &mut rep.phases[0];
        assert_eq!(row.phase, 1);
        assert_eq!(row.begin, 110);
        assert_eq!(row.end, 200);
        assert_eq!(row.span_us.count(), 2);
        assert_eq!(row.span_us.percentiles([50]), [70]);
        assert_eq!(row.load_collect_us.percentiles([50]), [20]);
        assert_eq!(row.migrated_tasks, 6);
        assert_eq!(row.migrate_msgs, 2);
        assert_eq!(rep.idle_detect_us.count(), 2);
    }

    #[test]
    fn open_phase_closed_at_end_time() {
        let mut rep = PhaseReport::default();
        rep.record(
            900,
            0,
            TraceEvent::PhaseBegin {
                kind: PhaseKind::System,
                index: 4,
            },
        );
        rep.close_at(1000);
        assert_eq!(rep.phases.len(), 1);
        let mut row = rep.phases[0].clone();
        assert_eq!(row.span_us.max(), 100);
        assert_eq!(row.end, 1000);
        assert_eq!(row.span_us.percentiles([50]), [100]);
    }

    #[test]
    fn task_and_queue_summary() {
        let mut rep = PhaseReport::default();
        for (hops, grain) in [(0u32, 100u64), (2, 300), (0, 200)] {
            rep.record(
                0,
                0,
                TraceEvent::TaskExec {
                    task: 1,
                    round: 0,
                    origin: 0,
                    hops,
                    grain_us: grain,
                    dispatch_us: 25,
                },
            );
        }
        rep.record(5, 0, TraceEvent::QueueDepth { depth: 9 });
        rep.record(6, 0, TraceEvent::Barrier { round: 1 });
        rep.close_at(10);
        assert_eq!(rep.tasks, 3);
        assert_eq!(rep.nonlocal_tasks, 1);
        assert_eq!(rep.peak_queue_depth, 9);
        assert_eq!(rep.rounds, 2);
        assert_eq!(rep.task_grain_us.percentiles([50]), [200]);
        let text = rep.render();
        assert!(text.contains("3 tasks (1 non-local)"));
        assert!(text.contains("no system phases"));
        let jsonl = rep.to_jsonl();
        assert!(jsonl.starts_with("{\"type\":\"summary\""));
    }

    #[test]
    fn jsonl_has_one_line_per_phase_plus_summary() {
        let mut rep = PhaseReport::default();
        phase_events(&mut rep, 0, 1, 0);
        phase_events(&mut rep, 0, 2, 500);
        rep.close_at(1000);
        let jsonl = rep.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl.contains("\"type\":\"phase\",\"phase\":2"));
        let table = rep.render();
        assert!(table.contains("system phases (2)"));
    }

    #[test]
    fn kinds_the_fold_never_reads_are_never_asked_for() {
        let rep = PhaseReport::default();
        for kind in [
            EventKind::MsgSend,
            EventKind::Spawn,
            EventKind::MigrateIn,
            EventKind::LoadSample,
            EventKind::BatchSend,
            EventKind::RingDepth,
            EventKind::Job,
            EventKind::NodeTotals,
        ] {
            assert!(!rep.interest().contains(kind), "{kind:?}");
        }
    }

    #[test]
    fn span_edges_breaking_the_nesting_are_skipped() {
        let mut rep = PhaseReport::default();
        let (kind, index) = (PhaseKind::System, 3);
        // An end nothing opened, then an end stamped before its begin.
        rep.record(10, 0, TraceEvent::PhaseEnd { kind, index });
        rep.record(20, 0, TraceEvent::PhaseBegin { kind, index });
        rep.record(5, 0, TraceEvent::PhaseEnd { kind, index });
        rep.close_at(100);
        let row = &mut rep.phases[0];
        assert_eq!((row.span_us.count(), row.span_us.max()), (1, 80));
        assert_eq!((row.begin, row.end), (20, 100));
    }
}
