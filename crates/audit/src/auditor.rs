//! The runtime invariant [`Auditor`]: a [`TraceSink`] that checks the
//! paper's theorems against a live trace stream.
//!
//! # Theorem-to-check mapping
//!
//! * **Theorem 1** (load balance): after every complete system phase,
//!   the post-schedule loads `post[i] = reported[i] − out[i] + in[i]`
//!   differ by at most one task across nodes.
//! * **Theorem 2 / Lemma 1** (non-local-task minimality): the number of
//!   tasks the phase migrates equals the *independently computed* lower
//!   bound `m = Σ_j (q_j − w_j)⁺` — each under-quota node must import
//!   its deficit, and the MWA is proven to move no more than that.
//! * **Conservation**: at halt, every spawned task was executed
//!   (`spawned − executed` = tasks stranded in a queue, which must be
//!   zero for a completed run), and every migrated task that departed
//!   also arrived. The task counts are the sums of the per-node
//!   `NodeTotals` each backend emits from its kernel counters at the
//!   end of a run — one record per node, none per task.
//! * **Barrier pairing**: round barriers are announced in strictly
//!   increasing round order, and no round begins before the barrier of
//!   the previous round was announced.
//! * **Phase monotonicity**: system-phase indices strictly increase per
//!   node, and system phases never nest.
//!
//! # What it is fed, and when it checks
//!
//! Every invariant above is a statement about a system phase or about
//! the whole run, so the auditor asks for nothing else
//! ([`Auditor::INTEREST`]): per node and system phase the begin, the
//! load sample and the end; per migration batch the out and the in;
//! the round barriers and starts; one totals record per node. A phase
//! is checked when the machine's last node closes it and its
//! accumulator is freed, so the state held is that of the phases in
//! flight; the phase a run halts inside is checked by
//! [`Auditor::finish`].
//!
//! # Attribution
//!
//! Per-phase accounting keys off the *sender's* open system-phase span:
//! `LoadSample` and `MigrateOut` are both emitted inside the emitting
//! node's `PhaseBegin(System) … PhaseEnd(System)` window, so the phase a
//! migration belongs to is exact. Inbound counts are derived from the
//! senders' `MigrateOut { to, .. }` events rather than `MigrateIn`
//! arrival times, because a batch can physically arrive after the
//! receiver has already resumed its user phase — Theorem 1 is a claim
//! about the *planned* post-schedule distribution, not about message
//! latency.
//!
//! Baseline schedulers emit no system phases, so the theorem checks are
//! vacuous for them and the same auditor runs unchanged across the
//! whole roster; the conservation and barrier checks still bite. The
//! theorem checks assume the task-count load metric (the paper's choice
//! and the workspace default): under the estimated-weight metric quotas
//! are weight-valued and indivisible tasks make them unfillable, so
//! task-count equality is not a theorem there.
//!
//! # Tiled (hierarchical) mode
//!
//! [`Auditor::with_tiles`] audits runs scheduled by the hierarchical
//! planner (`RIPS-H` / `rips_sched::tiled_mwa`). Theorem 1 generalises
//! cleanly and is checked *per tile* on top of the global spread: each
//! tile's post-schedule loads must differ by at most one task **and**
//! each tile's post-schedule total must equal its share of the
//! canonical quotas (the cross-tile exchange delivered exactly the
//! tile quota). Theorem 2's *equality* is not checked in tiled mode:
//! the cross-tile stage moves whole-tile imbalances point-to-point, so
//! a node can both import cross-tile tasks and export within its tile,
//! legitimately migrating more than the Lemma-1 bound. The bound
//! remains a feasibility floor for any balancing plan, so tiled mode
//! still flags `migrated < bound`.

use std::collections::BTreeMap;

use rips_trace::{EventKind, Interest, NodeId, PhaseKind, Time, TraceEvent, TraceSink};

/// Balanced quotas for `total` tasks over `n` nodes, computed here from
/// first principles (deliberately *not* shared with `rips_sched::flow`,
/// so the auditor cross-checks the scheduler rather than mirroring it):
/// every node gets `⌊total/n⌋`, the first `total mod n` nodes one extra.
pub fn quotas(total: i64, n: usize) -> Vec<i64> {
    let base = total / n as i64;
    let rem = (total % n as i64) as usize;
    (0..n)
        .map(|i| if i < rem { base + 1 } else { base })
        .collect()
}

/// Lemma 1 lower bound on non-local tasks for balancing `loads`: the
/// sum of the under-quota nodes' deficits, `Σ_j (q_j − w_j)⁺`.
pub fn min_nonlocal_lower_bound(loads: &[i64]) -> i64 {
    let q = quotas(loads.iter().sum(), loads.len());
    loads.iter().zip(&q).map(|(&w, &t)| (t - w).max(0)).sum()
}

/// Per-system-phase accounting, filled as the stream arrives and freed
/// when the phase's last node closes it.
#[derive(Debug, Clone)]
struct PhaseAcc {
    /// Per node, side by side: a record touches one node's entry.
    flows: Vec<NodeFlow>,
    /// Nodes that reported a load.
    reported: usize,
    /// Nodes that closed the phase (`PhaseEnd`).
    closed: usize,
}

/// One node's part in one system phase.
#[derive(Debug, Clone, Copy)]
struct NodeFlow {
    /// The load it reported into the phase (`LoadSample`), or
    /// [`NOT_REPORTED`]: a negative report is rejected on input.
    load: i64,
    /// Tasks it sent out during the phase.
    out: u32,
    /// Tasks destined for it, from the senders' `MigrateOut`s.
    inbound: u32,
}

/// A load no accepted report has.
const NOT_REPORTED: i64 = -1;

impl NodeFlow {
    const EMPTY: NodeFlow = NodeFlow {
        load: NOT_REPORTED,
        out: 0,
        inbound: 0,
    };
}

impl PhaseAcc {
    fn new(n: usize) -> Self {
        PhaseAcc {
            flows: vec![NodeFlow::EMPTY; n],
            reported: 0,
            closed: 0,
        }
    }
}

/// What the auditor remembers about one node across phases. An index
/// of [`NONE`] stands for "none yet"; the stream may not use it.
#[derive(Debug, Clone, Copy)]
struct NodeState {
    /// The system phase currently open on it.
    open_sys: u32,
    /// The last system-phase index it began.
    last_sys: u32,
    /// The last round it began.
    last_round: u32,
    /// Whether its `NodeTotals` arrived.
    has_totals: bool,
}

/// The phase or round index a [`NodeState`] holds for "none".
const NONE: u32 = u32::MAX;

/// A packed index as an `Option`.
fn some(index: u32) -> Option<u32> {
    (index != NONE).then_some(index)
}

impl NodeState {
    const EMPTY: NodeState = NodeState {
        open_sys: NONE,
        last_sys: NONE,
        last_round: NONE,
        has_totals: false,
    };
}

/// What the audit concluded. Produced by [`Auditor::finish`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Nodes in the audited machine.
    pub nodes: usize,
    /// System phases with a full load report that were checked against
    /// Theorems 1 and 2.
    pub phases_checked: usize,
    /// System phases begun but missing load reports at halt (0 on any
    /// completed run).
    pub phases_incomplete: usize,
    /// Largest post-schedule load spread observed across checked phases
    /// (Theorem 1 requires ≤ 1).
    pub max_spread: i64,
    /// Tiles in the audited decomposition (0 = flat mode; see
    /// [`Auditor::with_tiles`]).
    pub tiles: usize,
    /// Tasks spawned over the whole run (sum of the nodes' totals).
    pub spawned: u64,
    /// Tasks executed over the whole run (sum of the nodes' totals).
    pub executed: u64,
    /// Tasks that departed in migration batches.
    pub migrated_out: u64,
    /// Tasks that arrived in migration batches.
    pub migrated_in: u64,
    /// Round barriers announced.
    pub barriers: usize,
    /// Records delivered to the auditor. Grows with nodes × system
    /// phases and with migration batches — never with tasks.
    pub records: u64,
    /// Invariant violations: stream errors in detection order, then
    /// conservation, then per-phase theorem violations by phase index.
    /// Empty ⇔ the run upheld every audited invariant.
    pub errors: Vec<String>,
}

impl AuditReport {
    /// `true` when no invariant was violated.
    pub fn is_ok(&self) -> bool {
        self.errors.is_empty()
    }

    /// Human-readable rendering, as `rips run|live --audit` print it.
    pub fn render_human(&self) -> String {
        let mut out = format!(
            "nodes            {}\n\
             phases checked   {} (incomplete: {})\n\
             max load spread  {} (Theorem 1 bound: 1)\n\
             tasks            {} spawned / {} executed\n\
             migrations       {} out / {} in\n\
             barriers         {}\n",
            self.nodes,
            self.phases_checked,
            self.phases_incomplete,
            self.max_spread,
            self.spawned,
            self.executed,
            self.migrated_out,
            self.migrated_in,
            self.barriers
        );
        if self.tiles > 0 {
            out.push_str(&format!(
                "tiled mode       {} tiles (per-tile Theorem 1; Lemma 1 as a lower bound)\n",
                self.tiles
            ));
        }
        if self.errors.is_empty() {
            out.push_str("audit            OK\n");
        } else {
            for e in &self.errors {
                out.push_str(&format!("VIOLATION: {e}\n"));
            }
        }
        out
    }
}

/// A [`TraceSink`] that audits the paper's invariants as events stream
/// in. Install it with [`rips_trace::with_sink`] (alone, or fanned out
/// beside a `TraceBuffer` via [`rips_trace::Tee`]) and call
/// [`Auditor::finish`] after the run for the [`AuditReport`].
///
/// Auditing is purely observational: it consumes the same event stream
/// the exporters do and never feeds back into the run, so `RunStats`
/// are bit-for-bit identical with and without it (pinned by the golden
/// audit test).
///
/// It asks for [`Auditor::INTEREST`] only, so a run pays for the
/// records at its phase boundaries and nothing per task; and it checks
/// a phase the moment the machine's last node closes it, so it holds
/// the accumulators of the phases in flight, not of the whole run.
#[derive(Debug)]
pub struct Auditor {
    n: usize,
    nodes: Vec<NodeState>,
    /// Phases some node has begun and not every node has closed.
    phases: BTreeMap<u32, PhaseAcc>,
    /// Per-node tile index when auditing a hierarchical run.
    tile_of: Option<Vec<usize>>,
    last_barrier: Option<u32>,
    /// The counts so far; `errors` holds the stream errors.
    report: AuditReport,
    /// Theorem violations, tagged with their phase so the report lists
    /// them by index whatever order the phases closed in.
    phase_errors: Vec<(u32, String)>,
}

impl Auditor {
    /// The kinds the auditor consumes: system-phase boundaries and the
    /// loads reported into them, migration batches, round pacing, and
    /// one totals summary per node. Everything per task — `TaskExec`,
    /// `Spawn`, `QueueDepth`, `MsgSend`, stages, user phases — is left
    /// out, and ignored if fed by hand.
    pub const INTEREST: Interest = Interest::of(&[
        EventKind::SystemPhase,
        EventKind::LoadSample,
        EventKind::MigrateOut,
        EventKind::MigrateIn,
        EventKind::Barrier,
        EventKind::RoundBegin,
        EventKind::NodeTotals,
    ]);

    /// An auditor for an `n`-node machine.
    pub fn new(n: usize) -> Self {
        Auditor {
            n,
            nodes: vec![NodeState::EMPTY; n],
            phases: BTreeMap::new(),
            tile_of: None,
            last_barrier: None,
            report: AuditReport {
                nodes: n,
                ..AuditReport::default()
            },
            phase_errors: Vec::new(),
        }
    }

    /// An auditor for an `n`-node machine scheduled hierarchically,
    /// with `tile_of[node]` giving each node's tile (the shape
    /// `rips_sched::TileGrid::assignment` produces). Enables the
    /// per-tile Theorem 1 generalisation and relaxes Theorem 2's
    /// equality to the feasibility inequality — see the module docs.
    ///
    /// # Panics
    /// Panics if `tile_of.len() != n`.
    pub fn with_tiles(n: usize, tile_of: Vec<usize>) -> Self {
        assert_eq!(tile_of.len(), n, "one tile index per node required");
        let mut a = Auditor::new(n);
        a.report.tiles = tile_of.iter().copied().max().map_or(0, |m| m + 1);
        a.tile_of = Some(tile_of);
        a
    }

    /// Phase accumulators currently held: the phases some node has
    /// begun and not every node has closed.
    pub fn phases_in_flight(&self) -> usize {
        self.phases.len()
    }

    fn err(&mut self, msg: String) {
        self.report.errors.push(msg);
    }

    /// The accumulator of phase `p`, which some node has open.
    fn acc(&mut self, p: u32) -> &mut PhaseAcc {
        let n = self.n;
        self.phases.entry(p).or_insert_with(|| PhaseAcc::new(n))
    }

    /// Theorems 1 and 2 on phase `p`, once no more of its records can
    /// arrive: every node closed it, or the stream ended.
    fn check_phase(&mut self, p: u32, acc: PhaseAcc) {
        if acc.reported < self.n {
            self.report.phases_incomplete += 1;
            return;
        }
        let mut errors = Vec::new();
        let flows = &acc.flows;
        let loads: Vec<i64> = flows.iter().map(|f| f.load).collect();
        let total: i64 = loads.iter().sum();
        let post: Vec<i64> = flows
            .iter()
            .zip(&loads)
            .map(|(f, load)| load - i64::from(f.out) + i64::from(f.inbound))
            .collect();

        // Sanity: migrations move tasks, they don't create them.
        if post.iter().sum::<i64>() != total {
            errors.push(format!(
                "phase {p}: post-schedule loads sum to {} but {} were reported",
                post.iter().sum::<i64>(),
                total
            ));
        }
        if let Some(&neg) = post.iter().find(|&&v| v < 0) {
            errors.push(format!("phase {p}: a node is overdrawn to {neg} tasks"));
        }

        // Theorem 1: post-schedule loads differ by at most one.
        let spread = match (post.iter().max(), post.iter().min()) {
            (Some(max), Some(min)) => max - min,
            _ => 0,
        };
        self.report.max_spread = self.report.max_spread.max(spread);
        if spread > 1 {
            errors.push(format!(
                "Theorem 1 violated in phase {p}: post-schedule load spread {spread} > 1 (post = {post:?})"
            ));
        }

        // Tiled mode: Theorem 1 per tile, and the cross-tile quota
        // check — each tile's post-schedule total must be exactly
        // its share of the canonical quotas.
        if let Some(tile_of) = &self.tile_of {
            let tiles = self.report.tiles;
            let q = quotas(total, self.n);
            let mut post_sum = vec![0i64; tiles];
            let mut quota_sum = vec![0i64; tiles];
            let mut post_min = vec![i64::MAX; tiles];
            let mut post_max = vec![i64::MIN; tiles];
            for (i, &t) in tile_of.iter().enumerate() {
                post_sum[t] += post[i];
                quota_sum[t] += q[i];
                post_min[t] = post_min[t].min(post[i]);
                post_max[t] = post_max[t].max(post[i]);
            }
            for t in 0..tiles {
                if post_min[t] > post_max[t] {
                    continue; // empty tile
                }
                let spread = post_max[t] - post_min[t];
                if spread > 1 {
                    errors.push(format!(
                        "Theorem 1 (per tile) violated in phase {p}: tile {t} \
                         post-schedule load spread {spread} > 1"
                    ));
                }
                if post_sum[t] != quota_sum[t] {
                    errors.push(format!(
                        "cross-tile quota violated in phase {p}: tile {t} holds {} \
                         task(s) but its quota share is {}",
                        post_sum[t], quota_sum[t]
                    ));
                }
            }
        }

        // Theorem 2 / Lemma 1: migrated tasks equal the lower
        // bound. The tiled planner legitimately exceeds it (its
        // cross-tile stage is not migration-minimal), so tiled
        // mode only enforces the feasibility direction.
        let moved: i64 = flows.iter().map(|f| i64::from(f.out)).sum();
        let bound = min_nonlocal_lower_bound(&loads);
        if moved < bound {
            errors.push(format!(
                "Theorem 2 violated in phase {p}: {moved} task(s) migrated but the \
                 Lemma 1 lower bound for loads {loads:?} is {bound} (below the \
                 feasibility bound)"
            ));
        } else if moved > bound && self.tile_of.is_none() {
            errors.push(format!(
                "Theorem 2 violated in phase {p}: {moved} task(s) migrated but the \
                 Lemma 1 lower bound for loads {loads:?} is {bound} (not minimal)"
            ));
        }
        self.report.phases_checked += 1;
        self.phase_errors.extend(errors.into_iter().map(|e| (p, e)));
    }

    /// Closes the stream and evaluates what only the end of the run
    /// can settle — task and migration conservation, and the phases
    /// still in flight (a RIPS run halts inside its termination phase,
    /// which no node closes) — returning the report.
    pub fn finish(mut self) -> AuditReport {
        // Conservation at halt. A stream without totals (a hand-built
        // one) claims no tasks; totals from only part of the machine
        // would make the sums below vacuous, so that is an error.
        let with_totals = self.nodes.iter().filter(|s| s.has_totals).count();
        if with_totals != 0 && with_totals != self.n {
            let missing = self.nodes.iter().position(|s| !s.has_totals).expect("some");
            self.err(format!(
                "conservation: node totals from {with_totals} of {} nodes (none from node {missing})",
                self.n
            ));
        }
        let AuditReport {
            spawned,
            executed,
            migrated_out,
            migrated_in,
            ..
        } = self.report;
        if spawned != executed {
            self.err(format!(
                "conservation: {spawned} task(s) spawned but only {executed} executed ({} stranded in queues at halt)",
                spawned as i64 - executed as i64
            ));
        }
        if migrated_out != migrated_in {
            self.err(format!(
                "conservation: {migrated_out} task(s) departed in migration batches but {migrated_in} arrived"
            ));
        }

        for (p, acc) in std::mem::take(&mut self.phases) {
            self.check_phase(p, acc);
        }
        self.phase_errors.sort_by_key(|&(p, _)| p);
        let mut report = self.report;
        report
            .errors
            .extend(self.phase_errors.into_iter().map(|(_, e)| e));
        report
    }
}

impl TraceSink for Auditor {
    fn interest(&self) -> Interest {
        Auditor::INTEREST
    }

    fn record(&mut self, _time_us: Time, node: NodeId, event: TraceEvent) {
        self.report.records += 1;
        if node >= self.n {
            self.err(format!(
                "node {node} out of range for a {}-node machine",
                self.n
            ));
            return;
        }
        let state = self.nodes[node];
        match event {
            TraceEvent::PhaseBegin {
                kind: PhaseKind::System,
                index,
            } => {
                if index == NONE {
                    self.err(format!(
                        "node {node}: system phase index {index} is reserved"
                    ));
                    return;
                }
                if let Some(open) = some(state.open_sys) {
                    self.err(format!(
                        "node {node}: system phase {index} begins inside open system phase {open}"
                    ));
                }
                if let Some(prev) = some(state.last_sys) {
                    if index <= prev {
                        self.err(format!(
                            "node {node}: system phase index {index} not after {prev}"
                        ));
                    }
                }
                self.nodes[node].last_sys = index;
                self.nodes[node].open_sys = index;
                self.acc(index);
            }
            TraceEvent::PhaseEnd {
                kind: PhaseKind::System,
                index,
            } => {
                self.nodes[node].open_sys = NONE;
                match some(state.open_sys) {
                    Some(open) if open == index => {
                        let acc = self.acc(index);
                        acc.closed += 1;
                        if acc.closed == self.n {
                            let acc = self.phases.remove(&index).expect("just touched");
                            self.check_phase(index, acc);
                        }
                    }
                    open => self.err(format!(
                        "node {node}: PhaseEnd(System, {index}) closes {open:?}"
                    )),
                }
            }
            TraceEvent::LoadSample { load } => match some(state.open_sys) {
                Some(p) if load < 0 => {
                    self.err(format!(
                        "node {node}: negative load {load} reported in phase {p}"
                    ));
                }
                Some(p) => {
                    let acc = self.acc(p);
                    if std::mem::replace(&mut acc.flows[node].load, load) != NOT_REPORTED {
                        self.err(format!("node {node}: duplicate load report in phase {p}"));
                    } else {
                        acc.reported += 1;
                    }
                }
                None => self.err(format!("node {node}: load sample outside any system phase")),
            },
            TraceEvent::MigrateOut { to, count } => {
                self.report.migrated_out += count as u64;
                if to >= self.n {
                    self.err(format!("node {node}: migration to out-of-range node {to}"));
                    return;
                }
                // Attribute to the sender's open system phase; baseline
                // schedulers migrate outside phases and are counted in
                // the conservation totals only.
                if let Some(p) = some(state.open_sys) {
                    let acc = self.acc(p);
                    let out = acc.flows[node].out.checked_add(count);
                    let inbound = acc.flows[to].inbound.checked_add(count);
                    match out.zip(inbound) {
                        Some((out, inbound)) => {
                            acc.flows[node].out = out;
                            acc.flows[to].inbound = inbound;
                        }
                        None => self.err(format!(
                            "node {node}: {count} task(s) to node {to} overflow phase {p}'s \
                             per-node flow of {} tasks",
                            u32::MAX
                        )),
                    }
                }
            }
            TraceEvent::MigrateIn { count, .. } => self.report.migrated_in += count as u64,
            TraceEvent::NodeTotals { spawned, executed } => {
                if std::mem::replace(&mut self.nodes[node].has_totals, true) {
                    self.err(format!("node {node}: duplicate node totals"));
                }
                self.report.spawned += spawned;
                self.report.executed += executed;
            }
            TraceEvent::Barrier { round } => {
                if let Some(prev) = self.last_barrier {
                    if round <= prev {
                        self.err(format!(
                            "barrier for round {round} announced after round {prev}'s barrier"
                        ));
                    }
                }
                self.last_barrier = Some(round);
                self.report.barriers += 1;
            }
            TraceEvent::RoundBegin { round } => {
                if round == NONE {
                    self.err(format!("node {node}: round index {round} is reserved"));
                    return;
                }
                if let Some(prev) = some(state.last_round) {
                    if round <= prev {
                        self.err(format!(
                            "node {node}: round {round} begins after round {prev}"
                        ));
                    }
                }
                self.nodes[node].last_round = round;
                if round > 0 && self.last_barrier.is_none_or(|b| b < round - 1) {
                    self.err(format!(
                        "node {node}: round {round} begins before round {}'s barrier was announced",
                        round - 1
                    ));
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn totals(spawned: u64, executed: u64) -> TraceEvent {
        TraceEvent::NodeTotals { spawned, executed }
    }

    fn sys_phase(
        a: &mut Auditor,
        p: u32,
        loads: &[i64],
        moves: &[(NodeId, NodeId, i64)],
        t0: Time,
    ) {
        let n = loads.len();
        for (node, &load) in loads.iter().enumerate() {
            a.record(
                t0,
                node,
                TraceEvent::PhaseBegin {
                    kind: PhaseKind::System,
                    index: p,
                },
            );
            a.record(t0, node, TraceEvent::LoadSample { load });
        }
        for &(from, to, count) in moves {
            a.record(
                t0 + 1,
                from,
                TraceEvent::MigrateOut {
                    to,
                    count: count as u32,
                },
            );
        }
        for node in 0..n {
            a.record(
                t0 + 2,
                node,
                TraceEvent::PhaseEnd {
                    kind: PhaseKind::System,
                    index: p,
                },
            );
        }
        // Deliveries land after the phase; conservation only needs the
        // totals to match by halt.
        for &(from, to, count) in moves {
            a.record(
                t0 + 3,
                to,
                TraceEvent::MigrateIn {
                    from,
                    count: count as u32,
                },
            );
        }
    }

    #[test]
    fn quotas_split_remainder_front_loaded() {
        assert_eq!(quotas(7, 3), vec![3, 2, 2]);
        assert_eq!(quotas(6, 3), vec![2, 2, 2]);
        assert_eq!(quotas(0, 4), vec![0, 0, 0, 0]);
    }

    #[test]
    fn lower_bound_sums_deficits() {
        assert_eq!(min_nonlocal_lower_bound(&[12, 0, 0]), 8);
        assert_eq!(min_nonlocal_lower_bound(&[4, 4, 4]), 0);
        assert_eq!(min_nonlocal_lower_bound(&[7, 0, 0]), 4);
    }

    #[test]
    fn accepts_a_valid_phase() {
        let mut a = Auditor::new(3);
        // loads [6,0,0] -> quotas [2,2,2]: move 2 to node 1, 2 to node 2.
        sys_phase(&mut a, 1, &[6, 0, 0], &[(0, 1, 2), (0, 2, 2)], 100);
        let r = a.finish();
        assert!(r.is_ok(), "{:?}", r.errors);
        assert_eq!(r.phases_checked, 1);
        assert_eq!(r.max_spread, 0);
        assert_eq!(r.migrated_out, 4);
    }

    #[test]
    fn thm1_catches_unbalanced_plan() {
        let mut a = Auditor::new(3);
        // Moves too little: post = [4, 1, 1].
        sys_phase(&mut a, 1, &[6, 0, 0], &[(0, 1, 1), (0, 2, 1)], 100);
        let r = a.finish();
        assert!(r.errors.iter().any(|e| e.contains("Theorem 1")), "{r:?}");
        assert_eq!(r.max_spread, 3);
    }

    #[test]
    fn thm2_catches_excess_migration() {
        let mut a = Auditor::new(3);
        // Balanced, but ping-pongs 2 extra tasks: post = [2,2,2] yet 6 moved.
        sys_phase(
            &mut a,
            1,
            &[6, 0, 0],
            &[(0, 1, 3), (0, 2, 2), (1, 0, 1)],
            100,
        );
        let r = a.finish();
        assert!(
            r.errors
                .iter()
                .any(|e| e.contains("Theorem 2") && e.contains("not minimal")),
            "{r:?}"
        );
        // Theorem 1 still holds for this stream.
        assert!(!r.errors.iter().any(|e| e.contains("Theorem 1")));
    }

    #[test]
    fn termination_phase_is_vacuously_fine() {
        let mut a = Auditor::new(2);
        sys_phase(&mut a, 1, &[0, 0], &[], 100);
        let r = a.finish();
        assert!(r.is_ok(), "{:?}", r.errors);
        assert_eq!(r.phases_checked, 1);
    }

    #[test]
    fn conservation_catches_stranded_tasks() {
        let mut a = Auditor::new(1);
        a.record(9, 0, totals(3, 2));
        let r = a.finish();
        assert!(r.errors.iter().any(|e| e.contains("stranded")), "{r:?}");
        assert_eq!((r.spawned, r.executed), (3, 2));
    }

    #[test]
    fn partial_duplicate_and_out_of_range_totals_are_loud() {
        // Totals from node 0 only: balanced, but two nodes are silent.
        let mut a = Auditor::new(3);
        a.record(9, 0, totals(2, 2));
        let r = a.finish();
        assert_eq!(r.errors.len(), 1, "{:?}", r.errors);
        assert!(
            r.errors[0].contains("from 1 of 3 nodes") && r.errors[0].contains("node 1"),
            "{:?}",
            r.errors
        );

        let mut a = Auditor::new(1);
        a.record(9, 0, totals(1, 1));
        a.record(9, 0, totals(1, 1));
        a.record(9, 4, totals(1, 1));
        let r = a.finish();
        assert!(r.errors[0].contains("node 0: duplicate node totals"));
        assert!(
            r.errors[1].contains("node 4 out of range"),
            "{:?}",
            r.errors
        );

        // No totals at all claims no tasks: hand-built streams stay valid.
        let r = Auditor::new(3).finish();
        assert!(r.is_ok());
        assert_eq!((r.spawned, r.executed, r.records), (0, 0, 0));
    }

    #[test]
    fn per_task_kinds_are_neither_asked_for_nor_counted() {
        let mut a = Auditor::new(1);
        for kind in [
            EventKind::TaskExec,
            EventKind::Spawn,
            EventKind::QueueDepth,
            EventKind::MsgSend,
            EventKind::Stage,
            EventKind::UserPhase,
        ] {
            assert!(!a.interest().contains(kind), "{kind:?}");
        }
        a.record(0, 0, TraceEvent::Spawn { round: 0, count: 3 });
        let r = a.finish();
        assert!(r.is_ok() && r.spawned == 0, "{r:?}");
    }

    #[test]
    fn conservation_catches_lost_migrations() {
        let mut a = Auditor::new(2);
        a.record(0, 0, TraceEvent::MigrateOut { to: 1, count: 2 });
        a.record(5, 1, TraceEvent::MigrateIn { from: 0, count: 1 });
        let r = a.finish();
        assert!(
            r.errors.iter().any(|e| e.contains("departed")),
            "{:?}",
            r.errors
        );
    }

    #[test]
    fn barrier_order_and_round_pairing() {
        let mut a = Auditor::new(2);
        a.record(10, 0, TraceEvent::Barrier { round: 0 });
        a.record(12, 0, TraceEvent::RoundBegin { round: 1 });
        a.record(12, 1, TraceEvent::RoundBegin { round: 1 });
        // Round 2 begins with no barrier for round 1.
        a.record(20, 0, TraceEvent::RoundBegin { round: 2 });
        let r = a.finish();
        assert_eq!(r.barriers, 1);
        assert!(
            r.errors
                .iter()
                .any(|e| e.contains("before round 1's barrier")),
            "{:?}",
            r.errors
        );
    }

    #[test]
    fn stale_phase_index_rejected() {
        let mut a = Auditor::new(1);
        sys_phase(&mut a, 2, &[0], &[], 10);
        sys_phase(&mut a, 2, &[0], &[], 20);
        let r = a.finish();
        assert!(
            r.errors.iter().any(|e| e.contains("not after")),
            "{:?}",
            r.errors
        );
    }

    #[test]
    fn incomplete_phase_is_reported_not_checked() {
        let mut a = Auditor::new(2);
        a.record(
            0,
            0,
            TraceEvent::PhaseBegin {
                kind: PhaseKind::System,
                index: 1,
            },
        );
        a.record(0, 0, TraceEvent::LoadSample { load: 5 });
        // Node 1 never reports.
        let r = a.finish();
        assert_eq!(r.phases_checked, 0);
        assert_eq!(r.phases_incomplete, 1);
    }

    #[test]
    fn tiled_mode_accepts_non_minimal_but_balanced_plan() {
        // 4 nodes, tiles {0,1} and {2,3}. loads [6,0,0,2] -> quotas
        // [2,2,2,2], Lemma-1 bound 4. The plan balances exactly but
        // ping-pongs an extra task inside tile 1, migrating 6: fine
        // when tiled, "not minimal" in flat mode.
        let moves = [(0, 1, 2), (0, 2, 2), (3, 2, 1), (2, 3, 1)];
        let mut tiled = Auditor::with_tiles(4, vec![0, 0, 1, 1]);
        sys_phase(&mut tiled, 1, &[6, 0, 0, 2], &moves, 100);
        let r = tiled.finish();
        assert!(r.is_ok(), "{:?}", r.errors);
        assert_eq!(r.tiles, 2);
        assert_eq!(r.max_spread, 0);

        let mut flat = Auditor::new(4);
        sys_phase(&mut flat, 1, &[6, 0, 0, 2], &moves, 100);
        let r = flat.finish();
        assert!(
            r.errors
                .iter()
                .any(|e| e.contains("Theorem 2") && e.contains("not minimal")),
            "{r:?}"
        );
    }

    #[test]
    fn tiled_mode_still_enforces_the_feasibility_floor() {
        // Deficit bound is 4 but only 2 tasks move: post unbalanced
        // AND below the Lemma-1 floor; both must be flagged.
        let mut a = Auditor::with_tiles(4, vec![0, 0, 1, 1]);
        sys_phase(&mut a, 1, &[8, 0, 0, 0], &[(0, 2, 2)], 100);
        let r = a.finish();
        assert!(
            r.errors
                .iter()
                .any(|e| e.contains("below the feasibility bound")),
            "{r:?}"
        );
    }

    #[test]
    fn cross_tile_quota_check_catches_wrong_tile_totals() {
        // Adversarial: global spread stays ≤ 1 but the remainder lands
        // in the wrong tile. loads [5,0,0,0] -> quotas [2,1,1,1]; tile
        // quota shares are [3, 2]. The plan leaves post = [1,1,2,1]:
        // globally balanced, but tile 0 holds 2 (< 3) and tile 1 holds
        // 3 (> 2). Only the per-tile generalisation can see this.
        let mut a = Auditor::with_tiles(4, vec![0, 0, 1, 1]);
        sys_phase(
            &mut a,
            1,
            &[5, 0, 0, 0],
            &[(0, 1, 1), (0, 2, 2), (0, 3, 1)],
            100,
        );
        let r = a.finish();
        assert_eq!(r.max_spread, 1, "globally the plan looks fine");
        assert!(
            r.errors.iter().any(|e| e.contains("cross-tile quota")),
            "{r:?}"
        );
        // A flat auditor cannot see the tile mismatch (it flags the
        // 4-vs-3 Theorem-2 excess instead, a different diagnosis).
        let mut flat = Auditor::new(4);
        sys_phase(
            &mut flat,
            1,
            &[5, 0, 0, 0],
            &[(0, 1, 1), (0, 2, 2), (0, 3, 1)],
            100,
        );
        let r = flat.finish();
        assert!(!r.errors.iter().any(|e| e.contains("cross-tile")), "{r:?}");
    }

    #[test]
    fn per_tile_spread_reported_with_tile_index() {
        // Tile 1 internally unbalanced: post = [2,2,3,1].
        let mut a = Auditor::with_tiles(4, vec![0, 0, 1, 1]);
        sys_phase(
            &mut a,
            1,
            &[8, 0, 0, 0],
            &[(0, 1, 2), (0, 2, 3), (0, 3, 1)],
            100,
        );
        let r = a.finish();
        assert!(
            r.errors
                .iter()
                .any(|e| e.contains("per tile") && e.contains("tile 1")),
            "{r:?}"
        );
    }

    #[test]
    fn per_node_records_stay_packed() {
        use std::mem::size_of;
        assert!(size_of::<NodeState>() <= 16, "{}", size_of::<NodeState>());
        assert!(size_of::<NodeFlow>() <= 16, "{}", size_of::<NodeFlow>());
    }

    fn begin(a: &mut Auditor, node: NodeId, index: u32) {
        let kind = PhaseKind::System;
        a.record(0, node, TraceEvent::PhaseBegin { kind, index });
    }

    #[test]
    fn negative_load_is_its_own_error() {
        let mut a = Auditor::new(2);
        begin(&mut a, 0, 1);
        a.record(0, 0, TraceEvent::LoadSample { load: -3 });
        let r = a.finish();
        assert_eq!(
            r.errors,
            ["node 0: negative load -3 reported in phase 1"],
            "{r:?}"
        );
    }

    #[test]
    fn reserved_phase_and_round_indices_are_rejected() {
        let mut a = Auditor::new(1);
        begin(&mut a, 0, u32::MAX);
        a.record(0, 0, TraceEvent::RoundBegin { round: u32::MAX });
        let r = a.finish();
        assert_eq!(
            r.errors,
            [
                format!("node 0: system phase index {} is reserved", u32::MAX),
                format!("node 0: round index {} is reserved", u32::MAX),
            ],
            "{r:?}"
        );
        assert_eq!(r.phases_incomplete, 0, "a reserved index opens nothing");
    }

    #[test]
    fn flow_overflow_is_rejected() {
        let mut a = Auditor::new(2);
        begin(&mut a, 0, 1);
        a.record(
            0,
            0,
            TraceEvent::MigrateOut {
                to: 1,
                count: u32::MAX,
            },
        );
        a.record(0, 0, TraceEvent::MigrateOut { to: 1, count: 1 });
        let r = a.finish();
        assert!(
            r.errors
                .iter()
                .any(|e| e.starts_with("node 0: 1 task(s) to node 1 overflow phase 1")),
            "{r:?}"
        );
    }

    #[test]
    fn baseline_migrations_outside_phases_only_hit_conservation() {
        let mut a = Auditor::new(2);
        a.record(0, 0, TraceEvent::MigrateOut { to: 1, count: 5 });
        a.record(3, 1, TraceEvent::MigrateIn { from: 0, count: 5 });
        let r = a.finish();
        assert!(r.is_ok(), "{:?}", r.errors);
        assert_eq!(r.phases_checked, 0);
        assert_eq!(r.migrated_out, 5);
    }
}
