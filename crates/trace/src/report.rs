//! The structured phase-anatomy aggregator.
//!
//! Turns a raw [`TraceBuffer`] into the numbers the paper narrates in
//! §5: per-system-phase durations and migration volumes, sub-stage
//! breakdowns (idle detection, load collection, plan computation,
//! migration), and user-phase/task-grain distributions — each as a
//! `p50/p95/max` histogram, renderable as a text table or as JSONL for
//! BENCH files.

use std::collections::BTreeMap;

use crate::{Hist, Json, PhaseKind, SysStage, Time, TraceBuffer, TraceEvent};

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

/// Aggregated anatomy of a whole run.
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
    /// Run end time the report was built against (µs).
    pub end_time: Time,
}

/// Builds the report. Spans still open at `end_time` (the final
/// termination phase) are closed there.
pub(crate) fn build(buf: &TraceBuffer, end_time: Time) -> PhaseReport {
    let n = buf.num_nodes();
    let mut rows: BTreeMap<u32, PhaseRow> = BTreeMap::new();
    // Per-node open spans: user phase, system phase, one slot per stage.
    let mut open_user: Vec<Option<Time>> = vec![None; n];
    let mut open_sys: Vec<Option<(u32, Time)>> = vec![None; n];
    let mut open_stage: Vec<[Option<(u32, Time)>; 4]> = vec![[None; 4]; n];
    let mut rep = PhaseReport {
        end_time,
        ..Default::default()
    };

    let stage_slot = |s: SysStage| match s {
        SysStage::IdleDetect => 0,
        SysStage::LoadCollect => 1,
        SysStage::Plan => 2,
        SysStage::Migrate => 3,
    };

    fn close_stage(
        rep: &mut PhaseReport,
        rows: &mut BTreeMap<u32, PhaseRow>,
        slot: usize,
        phase: u32,
        dur: Time,
    ) {
        let row = rows.entry(phase).or_insert_with(|| PhaseRow {
            phase,
            begin: Time::MAX,
            ..Default::default()
        });
        match slot {
            0 => {
                row.idle_detect_us.push(dur);
                rep.idle_detect_us.push(dur);
            }
            1 => row.load_collect_us.push(dur),
            2 => row.plan_us = dur,
            _ => row.migrate_us.push(dur),
        }
    }

    for r in &buf.records {
        let (t, node) = (r.time, r.node);
        match r.event {
            TraceEvent::PhaseBegin { kind, index } => match kind {
                PhaseKind::User => open_user[node] = Some(t),
                PhaseKind::System => {
                    open_sys[node] = Some((index, t));
                    let row = rows.entry(index).or_insert_with(|| PhaseRow {
                        phase: index,
                        begin: Time::MAX,
                        ..Default::default()
                    });
                    row.begin = row.begin.min(t);
                }
            },
            TraceEvent::PhaseEnd { kind, .. } => match kind {
                PhaseKind::User => {
                    if let Some(b) = open_user[node].take() {
                        rep.user_phase_us.push(t - b);
                    }
                }
                PhaseKind::System => {
                    if let Some((p, b)) = open_sys[node].take() {
                        let row = rows.entry(p).or_default();
                        row.span_us.push(t - b);
                        row.end = row.end.max(t);
                    }
                }
            },
            TraceEvent::StageBegin { stage, phase } => {
                open_stage[node][stage_slot(stage)] = Some((phase, t));
            }
            TraceEvent::StageEnd { stage, .. } => {
                let slot = stage_slot(stage);
                if let Some((p, b)) = open_stage[node][slot].take() {
                    close_stage(&mut rep, &mut rows, slot, p, t - b);
                }
            }
            TraceEvent::TaskExec { hops, grain_us, .. } => {
                rep.tasks += 1;
                rep.task_grain_us.push(grain_us);
                rep.task_hops.push(hops as u64);
                if hops > 0 {
                    rep.nonlocal_tasks += 1;
                }
            }
            TraceEvent::MigrateOut { count, .. } => {
                rep.migrate_msgs += 1;
                rep.migrated_tasks += count as u64;
                if let Some((p, _)) = open_sys[node] {
                    let row = rows.entry(p).or_default();
                    row.migrate_msgs += 1;
                    row.migrated_tasks += count as u64;
                }
            }
            TraceEvent::QueueDepth { depth } => {
                rep.peak_queue_depth = rep.peak_queue_depth.max(depth);
            }
            TraceEvent::Barrier { round } | TraceEvent::RoundBegin { round } => {
                rep.rounds = rep.rounds.max(round + 1);
            }
            _ => {}
        }
    }

    // Close what the halt left open at end_time.
    for node in 0..n {
        for (slot, open) in open_stage[node].iter_mut().enumerate() {
            if let Some((p, b)) = open.take() {
                close_stage(&mut rep, &mut rows, slot, p, end_time.saturating_sub(b));
            }
        }
        if let Some((p, b)) = open_sys[node].take() {
            let row = rows.entry(p).or_default();
            row.phase = p;
            row.span_us.push(end_time.saturating_sub(b));
            row.end = row.end.max(end_time);
        }
        if let Some(b) = open_user[node].take() {
            rep.user_phase_us.push(end_time.saturating_sub(b));
        }
    }

    rep.phases = rows
        .into_values()
        .map(|mut row| {
            if row.begin == Time::MAX {
                row.begin = 0;
            }
            row
        })
        .collect();
    rep
}

fn hist3(h: &mut Hist) -> String {
    format!("{}/{}/{}", h.p50(), h.p95(), h.max())
}

impl PhaseReport {
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
            j.key(&format!("{name}_p50")).u64(h.p50());
            j.key(&format!("{name}_p95")).u64(h.p95());
            if max {
                j.key(&format!("{name}_max")).u64(h.max());
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceSink;

    #[test]
    fn report_labels_time_units_per_clock() {
        let mut b = TraceBuffer::new();
        phase_events(&mut b, 0, 1, 0);
        let mut virt = b.report(100);
        assert!(virt.render().contains("time unit: virtual µs"));
        assert!(virt.to_jsonl().contains("\"clock\":\"virtual\""));
    }

    fn phase_events(b: &mut TraceBuffer, node: usize, p: u32, t0: Time) {
        b.record(
            t0,
            node,
            TraceEvent::StageBegin {
                stage: SysStage::IdleDetect,
                phase: p,
            },
        );
        b.record(
            t0 + 10,
            node,
            TraceEvent::StageEnd {
                stage: SysStage::IdleDetect,
                phase: p,
            },
        );
        b.record(
            t0 + 10,
            node,
            TraceEvent::PhaseBegin {
                kind: PhaseKind::System,
                index: p,
            },
        );
        b.record(
            t0 + 10,
            node,
            TraceEvent::StageBegin {
                stage: SysStage::LoadCollect,
                phase: p,
            },
        );
        b.record(
            t0 + 30,
            node,
            TraceEvent::StageEnd {
                stage: SysStage::LoadCollect,
                phase: p,
            },
        );
        b.record(t0 + 30, node, TraceEvent::LoadSample { load: 5 });
        b.record(
            t0 + 60,
            node,
            TraceEvent::StageBegin {
                stage: SysStage::Migrate,
                phase: p,
            },
        );
        b.record(t0 + 70, node, TraceEvent::MigrateOut { to: 1, count: 3 });
        b.record(
            t0 + 80,
            node,
            TraceEvent::StageEnd {
                stage: SysStage::Migrate,
                phase: p,
            },
        );
        b.record(
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
        let mut b = TraceBuffer::new();
        phase_events(&mut b, 0, 1, 100);
        phase_events(&mut b, 1, 1, 120);
        let mut rep = b.report(1000);
        assert_eq!(rep.phases.len(), 1);
        let row = &mut rep.phases[0];
        assert_eq!(row.phase, 1);
        assert_eq!(row.begin, 110);
        assert_eq!(row.end, 200);
        assert_eq!(row.span_us.count(), 2);
        assert_eq!(row.span_us.p50(), 70);
        assert_eq!(row.load_collect_us.p50(), 20);
        assert_eq!(row.migrated_tasks, 6);
        assert_eq!(row.migrate_msgs, 2);
        assert_eq!(rep.idle_detect_us.count(), 2);
    }

    #[test]
    fn open_phase_closed_at_end_time() {
        let mut b = TraceBuffer::new();
        b.record(
            900,
            0,
            TraceEvent::PhaseBegin {
                kind: PhaseKind::System,
                index: 4,
            },
        );
        let rep = b.report(1000);
        assert_eq!(rep.phases.len(), 1);
        let mut row = rep.phases[0].clone();
        assert_eq!(row.span_us.max(), 100);
        assert_eq!(row.end, 1000);
        let _ = row.span_us.p50();
    }

    #[test]
    fn task_and_queue_summary() {
        let mut b = TraceBuffer::new();
        for (hops, grain) in [(0u32, 100u64), (2, 300), (0, 200)] {
            b.record(
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
        b.record(5, 0, TraceEvent::QueueDepth { depth: 9 });
        b.record(6, 0, TraceEvent::Barrier { round: 1 });
        let mut rep = b.report(10);
        assert_eq!(rep.tasks, 3);
        assert_eq!(rep.nonlocal_tasks, 1);
        assert_eq!(rep.peak_queue_depth, 9);
        assert_eq!(rep.rounds, 2);
        assert_eq!(rep.task_grain_us.p50(), 200);
        let text = rep.render();
        assert!(text.contains("3 tasks (1 non-local)"));
        assert!(text.contains("no system phases"));
        let jsonl = rep.to_jsonl();
        assert!(jsonl.starts_with("{\"type\":\"summary\""));
    }

    #[test]
    fn jsonl_has_one_line_per_phase_plus_summary() {
        let mut b = TraceBuffer::new();
        phase_events(&mut b, 0, 1, 0);
        phase_events(&mut b, 0, 2, 500);
        let mut rep = b.report(1000);
        let jsonl = rep.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl.contains("\"type\":\"phase\",\"phase\":2"));
        let table = rep.render();
        assert!(table.contains("system phases (2)"));
    }
}
