//! Multi-job audit for serve runs (DESIGN §12).
//!
//! A serve run is a sequence of per-job fleet runs stitched onto one
//! timeline, bracketed by [`TraceEvent::JobDispatch`] /
//! [`TraceEvent::JobComplete`] and preceded by
//! [`TraceEvent::JobSubmit`] (with [`TraceEvent::JobShed`] for
//! rejected jobs). The [`ServeAuditor`] extends the single-run
//! [`Auditor`] to this regime:
//!
//! * **Job state machine** — every job id moves submit → (shed |
//!   dispatch → complete); a shed job must never dispatch, dispatch
//!   windows must never overlap (the fleet serves one job at a time),
//!   and every dispatched job must complete.
//! * **Per-job invariants** — each dispatch window feeds a *fresh*
//!   copy of the scheduler's [`Auditor`] (flat, or tiled for RIPS-H;
//!   [`ServeAuditor::per_job`]), so Theorem 1 (post-schedule spread
//!   ≤ 1, per tile too when tiled), conservation, and barrier pairing
//!   are re-checked per job exactly as `rips run --audit` checks a
//!   batch run.
//! * **Per-job conservation** — the tasks announced at dispatch must
//!   equal the tasks the backend reports at completion, and (when the
//!   window carries an inner trace) the tasks the inner auditor
//!   counted.
//! * **No cross-tenant leakage** — task work (migration batches,
//!   barriers, a node's task totals) outside any dispatch window
//!   belongs to no job, hence to no tenant, and is flagged.

use std::collections::BTreeMap;

use rips_trace::{EventKind, Interest, NodeId, Time, TraceEvent, TraceSink};

use crate::auditor::{push_tiled_mode, Auditor};

/// Lifecycle position of one job id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    Submitted,
    Shed,
    Dispatched,
    Completed,
}

/// What the serve audit concluded. Produced by
/// [`ServeAuditor::finish`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeAuditReport {
    /// Jobs offered (JobSubmit events).
    pub jobs_submitted: u64,
    /// Jobs admission rejected.
    pub jobs_shed: u64,
    /// Jobs dispatched onto the fleet.
    pub jobs_dispatched: u64,
    /// Jobs completed.
    pub jobs_completed: u64,
    /// Dispatch windows that carried an inner fleet trace. Both
    /// workspace backends run and trace every job they serve while a
    /// sink is installed (the simulated fleet reuses seed-free runs
    /// only without one); a window lacks a trace only when its backend
    /// serves the job without emitting fleet events, as a hand-fed
    /// event stream does.
    pub jobs_with_inner_trace: u64,
    /// Largest post-schedule load spread over every audited window
    /// (Theorem 1 requires ≤ 1).
    pub max_spread: i64,
    /// System phases checked across all windows.
    pub phases_checked: usize,
    /// Tiles of the per-window auditor (0 = flat; see
    /// [`Auditor::with_tiles`]).
    pub tiles: usize,
    /// Violations, in detection order. Empty ⇔ every invariant held.
    pub errors: Vec<String>,
}

impl ServeAuditReport {
    /// `true` when no invariant was violated.
    pub fn is_ok(&self) -> bool {
        self.errors.is_empty()
    }

    /// Human-readable rendering for the `rips serve --audit` output.
    pub fn render_human(&self) -> String {
        let mut out = format!(
            "jobs             {} submitted / {} shed / {} dispatched / {} completed\n\
             inner traces     {} windows\n\
             phases checked   {}\n\
             max load spread  {} (Theorem 1 bound: 1)\n",
            self.jobs_submitted,
            self.jobs_shed,
            self.jobs_dispatched,
            self.jobs_completed,
            self.jobs_with_inner_trace,
            self.phases_checked,
            self.max_spread,
        );
        push_tiled_mode(&mut out, self.tiles);
        if self.errors.is_empty() {
            out.push_str("serve audit      OK\n");
        } else {
            for e in &self.errors {
                out.push_str(&format!("VIOLATION: {e}\n"));
            }
        }
        out
    }
}

/// One open dispatch window.
#[derive(Debug)]
struct OpenWindow {
    job: u64,
    tenant: u32,
    tasks: u64,
    inner: Auditor,
    saw_inner_events: bool,
}

/// A [`TraceSink`] auditing a multi-job serve run. Install it with
/// [`rips_trace::with_sink`] around [`run_serve`] — job lifecycle
/// events drive the state machine, and everything else is forwarded
/// to the current window's inner [`Auditor`]. It asks for what that
/// auditor asks for ([`Auditor::INTEREST`]) plus the job lifecycle.
///
/// [`run_serve`]: ../../rips_serve/fn.run_serve.html
#[derive(Debug)]
pub struct ServeAuditor {
    /// The unfed auditor each dispatch window starts from a copy of.
    template: Auditor,
    state: BTreeMap<u64, JobState>,
    open: Option<OpenWindow>,
    report: ServeAuditReport,
}

impl ServeAuditor {
    /// An auditor for a fleet of `nodes` processors whose per-job
    /// auditors are flat ([`Auditor::new`]).
    pub fn new(nodes: usize) -> Self {
        Self::per_job(Auditor::new(nodes))
    }

    /// An auditor that checks each dispatch window with a fresh copy
    /// of `template`, an auditor nothing has been fed yet: the one
    /// `rips run --audit` would use for the serving scheduler.
    pub fn per_job(template: Auditor) -> Self {
        let report = ServeAuditReport {
            tiles: template.tiles(),
            ..ServeAuditReport::default()
        };
        ServeAuditor {
            template,
            state: BTreeMap::new(),
            open: None,
            report,
        }
    }

    fn err(&mut self, msg: String) {
        self.report.errors.push(msg);
    }

    fn close_window(&mut self, executed_reported: u64) {
        let w = self.open.take().expect("window open");
        let r = w.inner.finish();
        self.report.max_spread = self.report.max_spread.max(r.max_spread);
        self.report.phases_checked += r.phases_checked;
        if w.saw_inner_events {
            self.report.jobs_with_inner_trace += 1;
            if r.executed != w.tasks {
                self.err(format!(
                    "job {}: inner trace executed {} tasks, dispatch announced {}",
                    w.job, r.executed, w.tasks
                ));
            }
            for e in r.errors {
                self.err(format!("job {}: {e}", w.job));
            }
        }
        if executed_reported != w.tasks {
            self.err(format!(
                "job {}: completion reports {} tasks executed, dispatch announced {}",
                w.job, executed_reported, w.tasks
            ));
        }
        self.state.insert(w.job, JobState::Completed);
        self.report.jobs_completed += 1;
    }

    /// Closes the stream, checks end-of-run consistency (no window
    /// left open, every admitted job served), and returns the report.
    pub fn finish(mut self) -> ServeAuditReport {
        if let Some(w) = &self.open {
            let job = w.job;
            self.err(format!("job {job}: dispatch window still open at halt"));
        }
        let stuck: Vec<(u64, JobState)> = self
            .state
            .iter()
            .filter(|(_, s)| matches!(s, JobState::Submitted | JobState::Dispatched))
            .map(|(j, s)| (*j, *s))
            .collect();
        for (job, s) in stuck {
            match s {
                JobState::Submitted => {
                    self.err(format!("job {job}: admitted but never dispatched"))
                }
                JobState::Dispatched => {
                    self.err(format!("job {job}: dispatched but never completed"))
                }
                _ => unreachable!(),
            }
        }
        self.report
    }
}

impl TraceSink for ServeAuditor {
    fn interest(&self) -> Interest {
        Auditor::INTEREST.union(Interest::of(&[EventKind::Job]))
    }

    fn record(&mut self, time_us: Time, node: NodeId, event: TraceEvent) {
        match event {
            TraceEvent::JobSubmit { tenant: _, job } => {
                if self.state.insert(job, JobState::Submitted).is_some() {
                    self.err(format!("job {job}: submitted twice"));
                }
                self.report.jobs_submitted += 1;
            }
            TraceEvent::JobShed { tenant: _, job } => match self.state.get(&job) {
                Some(JobState::Submitted) => {
                    self.state.insert(job, JobState::Shed);
                    self.report.jobs_shed += 1;
                }
                other => self.err(format!("job {job}: shed from state {other:?}")),
            },
            TraceEvent::JobDispatch { tenant, job, tasks } => {
                match self.state.get(&job) {
                    Some(JobState::Submitted) => {}
                    other => self.err(format!("job {job}: dispatched from state {other:?}")),
                }
                if let Some(w) = &self.open {
                    let open = w.job;
                    self.err(format!(
                        "job {job}: dispatched while job {open}'s window is still open"
                    ));
                }
                self.state.insert(job, JobState::Dispatched);
                self.report.jobs_dispatched += 1;
                self.open = Some(OpenWindow {
                    job,
                    tenant,
                    tasks,
                    inner: self.template.clone(),
                    saw_inner_events: false,
                });
            }
            TraceEvent::JobComplete {
                tenant,
                job,
                executed,
            } => match &self.open {
                Some(w) if w.job == job => {
                    if w.tenant != tenant {
                        let wt = w.tenant;
                        self.err(format!(
                            "job {job}: dispatched for tenant {wt}, completed for {tenant}"
                        ));
                    }
                    self.close_window(executed);
                }
                _ => self.err(format!("job {job}: completion without an open window")),
            },
            other => {
                let is_work = matches!(
                    other,
                    TraceEvent::NodeTotals { .. }
                        | TraceEvent::MigrateOut { .. }
                        | TraceEvent::MigrateIn { .. }
                        | TraceEvent::Barrier { .. }
                );
                match &mut self.open {
                    Some(w) => {
                        w.saw_inner_events = true;
                        w.inner.record(time_us, node, other);
                    }
                    None if is_work => self.err(format!(
                        "task work outside any job window (cross-tenant leakage): \
                         {other:?} on node {node}"
                    )),
                    None => {}
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submit(a: &mut ServeAuditor, job: u64) {
        a.record(0, 0, TraceEvent::JobSubmit { tenant: 0, job });
    }

    #[test]
    fn clean_two_job_run_passes() {
        let mut a = ServeAuditor::new(2);
        for job in 0..2u64 {
            submit(&mut a, job);
        }
        for job in 0..2u64 {
            a.record(
                10 * job,
                0,
                TraceEvent::JobDispatch {
                    tenant: 0,
                    job,
                    tasks: 3,
                },
            );
            // Node 0 seeds all three tasks; node 1 runs one of them.
            for (node, spawned, executed) in [(0, 3, 2), (1, 0, 1)] {
                a.record(
                    10 * job + 8,
                    node,
                    TraceEvent::NodeTotals { spawned, executed },
                );
            }
            a.record(
                10 * job + 9,
                0,
                TraceEvent::JobComplete {
                    tenant: 0,
                    job,
                    executed: 3,
                },
            );
        }
        let r = a.finish();
        assert!(r.is_ok(), "{:?}", r.errors);
        assert_eq!(r.jobs_submitted, 2);
        assert_eq!(r.jobs_completed, 2);
        assert_eq!(r.jobs_with_inner_trace, 2);
    }

    #[test]
    fn shed_job_must_not_dispatch() {
        let mut a = ServeAuditor::new(2);
        submit(&mut a, 0);
        a.record(1, 0, TraceEvent::JobShed { tenant: 0, job: 0 });
        a.record(
            2,
            0,
            TraceEvent::JobDispatch {
                tenant: 0,
                job: 0,
                tasks: 1,
            },
        );
        a.record(
            3,
            0,
            TraceEvent::JobComplete {
                tenant: 0,
                job: 0,
                executed: 1,
            },
        );
        let r = a.finish();
        assert!(!r.is_ok());
        assert!(
            r.errors[0].contains("dispatched from state Some(Shed)"),
            "{:?}",
            r.errors
        );
    }

    #[test]
    fn overlapping_windows_are_flagged() {
        let mut a = ServeAuditor::new(2);
        submit(&mut a, 0);
        submit(&mut a, 1);
        a.record(
            1,
            0,
            TraceEvent::JobDispatch {
                tenant: 0,
                job: 0,
                tasks: 1,
            },
        );
        a.record(
            2,
            0,
            TraceEvent::JobDispatch {
                tenant: 0,
                job: 1,
                tasks: 1,
            },
        );
        let r = a.finish();
        assert!(r
            .errors
            .iter()
            .any(|e| e.contains("while job 0's window is still open")));
    }

    #[test]
    fn per_job_conservation_mismatch_is_flagged() {
        let mut a = ServeAuditor::new(2);
        submit(&mut a, 0);
        a.record(
            1,
            0,
            TraceEvent::JobDispatch {
                tenant: 0,
                job: 0,
                tasks: 5,
            },
        );
        a.record(
            2,
            0,
            TraceEvent::JobComplete {
                tenant: 0,
                job: 0,
                executed: 4,
            },
        );
        let r = a.finish();
        assert!(r
            .errors
            .iter()
            .any(|e| e.contains("completion reports 4 tasks executed, dispatch announced 5")));
    }

    #[test]
    fn work_outside_any_window_is_leakage() {
        let mut a = ServeAuditor::new(2);
        a.record(
            1,
            1,
            TraceEvent::NodeTotals {
                spawned: 1,
                executed: 1,
            },
        );
        let r = a.finish();
        assert!(
            r.errors
                .iter()
                .any(|e| e.contains("cross-tenant leakage") && e.contains("on node 1")),
            "{:?}",
            r.errors
        );
    }

    /// One dispatch window whose system phase leaves 4 nodes globally
    /// balanced with the remainder in the wrong tile: loads [5,0,0,0],
    /// tile quota shares [3, 2] under tiles {0,1} and {2,3}, but the
    /// plan leaves tile 0 holding 2 and tile 1 holding 3.
    fn cross_tile_quota_window(a: &mut ServeAuditor) {
        use rips_trace::PhaseKind::System;
        submit(a, 0);
        let dispatch = TraceEvent::JobDispatch {
            tenant: 0,
            job: 0,
            tasks: 5,
        };
        a.record(0, 0, dispatch);
        let moves = [(0, 1, 1), (0, 2, 2), (0, 3, 1)];
        for (node, load) in [5, 0, 0, 0].into_iter().enumerate() {
            let begin = TraceEvent::PhaseBegin {
                kind: System,
                index: 1,
            };
            a.record(1, node, begin);
            a.record(1, node, TraceEvent::LoadSample { load });
        }
        for (from, to, count) in moves {
            a.record(2, from, TraceEvent::MigrateOut { to, count });
        }
        for node in 0..4 {
            let end = TraceEvent::PhaseEnd {
                kind: System,
                index: 1,
            };
            a.record(3, node, end);
        }
        for (from, to, count) in moves {
            a.record(4, to, TraceEvent::MigrateIn { from, count });
        }
        let complete = TraceEvent::JobComplete {
            tenant: 0,
            job: 0,
            executed: 5,
        };
        a.record(5, 0, complete);
    }

    #[test]
    fn windows_are_audited_with_the_template_auditor() {
        let cross_tile = |r: &ServeAuditReport| r.errors.iter().any(|e| e.contains("cross-tile"));
        let mut tiled = ServeAuditor::per_job(Auditor::with_tiles(4, vec![0, 0, 1, 1]));
        cross_tile_quota_window(&mut tiled);
        let r = tiled.finish();
        assert!(cross_tile(&r), "{:?}", r.errors);
        let text = r.render_human();
        assert!(text.contains("tiled mode       2 tiles"), "{text}");
        let mut flat = ServeAuditor::new(4);
        cross_tile_quota_window(&mut flat);
        let r = flat.finish();
        assert!(!cross_tile(&r), "{:?}", r.errors);
        let text = r.render_human();
        assert!(!text.contains("tiled mode"), "{text}");
    }

    #[test]
    fn admitted_but_never_dispatched_is_flagged() {
        let mut a = ServeAuditor::new(2);
        submit(&mut a, 7);
        let r = a.finish();
        assert!(r.errors.iter().any(|e| e.contains("never dispatched")));
    }
}
