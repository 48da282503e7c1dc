//! The Mesh Walking Algorithm as a *distributed SPMD program*.
//!
//! [`mwa`](crate::mwa) performs Figure 3's arithmetic centrally; this
//! module executes the same five steps as per-node state machines over
//! the lock-step [`BspMachine`], where a node sees
//! only its own load and the messages of its four mesh neighbours:
//!
//! * rounds `0..n2−1` — step 1, the rightward row scan;
//! * then step 2's downward scan-with-sum in the last column, the
//!   upward `w_avg`/`R` broadcast along that column, and the leftward
//!   row spread of `(w_avg, R, t_i, t_{i−1})`;
//! * steps 3–4 — local quota computation and the vertical η/γ
//!   decomposition, each `Down`/`Up` message carrying its d/u prefix
//!   vector *with* the task count, as the figure specifies;
//! * step 5 — the horizontal z/v exchanges, pipelined along each row.
//!
//! The result coincides with the centralized implementation (the tests
//! below compare per-link flows move for move) and the measured
//! communication-step count validates the paper's `3(n1+n2)` bound.

// Indexed loops below mirror the paper's per-column vector algebra;
// iterator rewrites would obscure the correspondence.
#![allow(clippy::needless_range_loop)]
use rips_topology::{Mesh2D, NodeId, Topology};

use crate::bsp::{BspMachine, BspProgram};
use crate::mwa::mwa_steps;
use crate::plan::TransferPlan;

/// Values spread along each row in step 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SpreadVals {
    wavg: i64,
    rem: i64,
    t_i: i64,
    t_prev: i64,
}

#[derive(Debug, Clone)]
enum Msg {
    /// Step 1: prefix of `w` moving right along the row.
    Scan(Vec<i64>),
    /// Step 2: running total `t_{i-1}` moving down the last column.
    ColScan(i64),
    /// Step 2: `(w_avg, R)` moving up the last column from the corner.
    ColBcast(i64, i64),
    /// Step 2: row spread moving left.
    Spread(SpreadVals),
    /// Step 4: `d` prefix vector + tasks moving down (count =
    /// last entry of the prefix).
    Down(Vec<i64>),
    /// Step 4: `u` prefix vector + tasks moving up.
    Up(Vec<i64>),
    /// Step 5: tasks moving right / left within the row.
    RowRight(i64),
    RowLeft(i64),
}

struct Node {
    i: usize,
    j: usize,
    n1: usize,
    n2: usize,
    /// `w_{i,0..=j}`, kept current through the balancing steps.
    w: Vec<i64>,
    vals: Option<SpreadVals>,
    /// Step-2 plumbing (last column only).
    row_sum: Option<i64>,
    t_prev_in: Option<i64>,
    bcast: Option<(i64, i64)>,
    sent_col_scan: bool,
    sent_col_bcast: bool,
    sent_spread: bool,
    // Step 4 bookkeeping.
    got_down: bool,
    got_up: bool,
    sent_down: bool,
    sent_up: bool,
    // Step 5 bookkeeping.
    got_left: bool,
    got_right: bool,
    sent_row: bool,
    /// Task-carrying sends, stamped with the round they left in.
    moves: Vec<(usize, NodeId, NodeId, i64)>,
}

impl Node {
    fn id(&self, i: usize, j: usize) -> NodeId {
        i * self.n2 + j
    }

    fn me(&self) -> NodeId {
        self.id(self.i, self.j)
    }

    /// Quota of node `(i, k)` from the spread values (paper step 3).
    fn quota(&self, i: usize, k: usize) -> i64 {
        let v = self.vals.expect("quota before spread");
        v.wavg + i64::from(((i * self.n2 + k) as i64) < v.rem)
    }

    /// Row-accumulation quota `Q_i` (closed form, locally computable).
    fn q_row(&self, i: usize) -> i64 {
        let v = self.vals.expect("Q before spread");
        let upto = ((i + 1) * self.n2) as i64;
        v.wavg * upto + upto.min(v.rem)
    }

    /// `y_i = t_i − Q_i`: net flow from row `i` down to row `i+1`.
    fn y(&self) -> i64 {
        let v = self.vals.expect("y before spread");
        v.t_i - self.q_row(self.i)
    }

    /// `x_i = t_{i-1} − Q_{i-1}` (0 for the top row): positive ⇒ this
    /// row receives from above; negative ⇒ it sends up.
    fn x(&self) -> i64 {
        if self.i == 0 {
            return 0;
        }
        let v = self.vals.expect("x before spread");
        v.t_prev - self.q_row(self.i - 1)
    }

    /// Figure 3's η/γ greedy over this node's known prefix, producing
    /// the d (or u) prefix for `amount` tasks leaving the row.
    fn eta_gamma(&self, amount: i64) -> Vec<i64> {
        let mut out = vec![0i64; self.j + 1];
        let mut eta = amount;
        let mut gamma = 0i64;
        for k in 0..=self.j {
            let delta = self.w[k] - self.quota(self.i, k);
            let d = if delta > eta + gamma && eta + gamma > 0 {
                eta
            } else if eta + gamma >= delta && delta > gamma {
                delta - gamma
            } else {
                0
            };
            out[k] = d;
            gamma -= delta - d;
            eta -= d;
            if eta == 0 {
                break;
            }
        }
        out
    }

    /// True once every vertical exchange this node participates in has
    /// happened.
    fn step4_done(&self) -> bool {
        let y = self.y();
        let x = self.x();
        let down_in_ok = x <= 0 || self.got_down;
        let down_out_ok =
            y <= 0 || (self.i + 1 < self.n1 && self.sent_down) || self.i + 1 == self.n1;
        let up_in_ok = y >= 0 || self.got_up;
        let up_out_ok = x >= 0 || self.sent_up;
        down_in_ok && down_out_ok && up_in_ok && up_out_ok
    }

    /// Step-5 prefix surpluses from the current `w`.
    fn zv(&self) -> (i64, i64) {
        let mut z = 0;
        for k in 0..self.j {
            z += self.w[k] - self.quota(self.i, k);
        }
        let v = z + self.w[self.j] - self.quota(self.i, self.j);
        (z, v)
    }

    fn record(&mut self, round: usize, to: NodeId, count: i64) {
        if count > 0 {
            self.moves.push((round, self.me(), to, count));
        }
    }
}

impl BspProgram for Node {
    type Msg = Msg;

    fn round(
        &mut self,
        _me: NodeId,
        round: usize,
        inbox: Vec<(NodeId, Msg)>,
        outbox: &mut Vec<(NodeId, Msg)>,
    ) {
        let (i, j, n1, n2) = (self.i, self.j, self.n1, self.n2);
        // ---- ingest -------------------------------------------------
        for (_, msg) in inbox {
            match msg {
                Msg::Scan(mut prefix) => {
                    // Before the scan reaches us, `w` holds only our
                    // own load (as its sole element).
                    let own = *self.w.last().expect("own load present");
                    prefix.push(own);
                    debug_assert_eq!(prefix.len(), j + 1);
                    self.w = prefix;
                    if j + 1 < n2 {
                        outbox.push((self.id(i, j + 1), Msg::Scan(self.w.clone())));
                    }
                }
                Msg::ColScan(t_prev) => {
                    self.t_prev_in = Some(t_prev);
                }
                Msg::ColBcast(wavg, rem) => {
                    self.bcast = Some((wavg, rem));
                }
                Msg::Spread(vals) => {
                    self.vals = Some(vals);
                    if j > 0 && !self.sent_spread {
                        self.sent_spread = true;
                        outbox.push((self.id(i, j - 1), Msg::Spread(vals)));
                    }
                }
                Msg::Down(d_prefix) => {
                    debug_assert!(d_prefix.len() > j);
                    for k in 0..=j {
                        self.w[k] += d_prefix[k];
                    }
                    self.got_down = true;
                }
                Msg::Up(u_prefix) => {
                    debug_assert!(u_prefix.len() > j);
                    for k in 0..=j {
                        self.w[k] += u_prefix[k];
                    }
                    self.got_up = true;
                }
                Msg::RowRight(_count) => {
                    // Step-5 traffic is intentionally NOT applied to
                    // `w`: z/v are defined on the post-step-4 loads,
                    // and z_j of the receiver equals v_{j-1} of the
                    // sender by construction.
                    self.got_left = true;
                }
                Msg::RowLeft(_count) => {
                    self.got_right = true;
                }
            }
        }

        // ---- step 1 bootstrap ---------------------------------------
        if round == 0 && j == 0 && n2 > 1 {
            outbox.push((self.id(i, 1), Msg::Scan(self.w.clone())));
        }

        // ---- step 2: last-column plumbing ----------------------------
        if j + 1 == n2 && self.w.len() == n2 && self.row_sum.is_none() {
            // Full prefix present (immediately when n2 == 1).
            self.row_sum = Some(self.w.iter().sum());
            if i == 0 {
                self.t_prev_in = Some(0);
            }
        }
        if j + 1 == n2 && !self.sent_col_scan {
            if let (Some(s), Some(t_prev)) = (self.row_sum, self.t_prev_in) {
                self.sent_col_scan = true;
                let t_i = t_prev + s;
                if i + 1 < n1 {
                    outbox.push((self.id(i + 1, j), Msg::ColScan(t_i)));
                } else {
                    // Corner: the total is known; start the broadcast.
                    let total = t_i;
                    let n = (n1 * n2) as i64;
                    self.bcast = Some((total / n, total % n));
                }
            }
        }
        if j + 1 == n2 && !self.sent_col_bcast {
            if let (Some((wavg, rem)), Some(s), Some(t_prev)) =
                (self.bcast, self.row_sum, self.t_prev_in)
            {
                self.sent_col_bcast = true;
                if i > 0 {
                    outbox.push((self.id(i - 1, j), Msg::ColBcast(wavg, rem)));
                }
                let vals = SpreadVals {
                    wavg,
                    rem,
                    t_i: t_prev + s,
                    t_prev,
                };
                self.vals = Some(vals);
                if j > 0 {
                    self.sent_spread = true;
                    outbox.push((self.id(i, j - 1), Msg::Spread(vals)));
                }
            }
        }

        // ---- step 4: vertical balance --------------------------------
        if self.vals.is_some() {
            let y = self.y();
            let x = self.x();
            // Send down once any inflow from above has arrived.
            if y > 0 && i + 1 < n1 && !self.sent_down && (x <= 0 || self.got_down) {
                let d = self.eta_gamma(y);
                for k in 0..=j {
                    self.w[k] -= d[k];
                }
                self.record(round, self.id(i + 1, j), d[j]);
                self.sent_down = true;
                outbox.push((self.id(i + 1, j), Msg::Down(d)));
            }
            // Send up once the down-send is out of the way and any
            // inflow from below has arrived.
            if x < 0
                && !self.sent_up
                && (y <= 0 || self.sent_down || i + 1 == n1)
                && (y >= 0 || self.got_up)
            {
                let u = self.eta_gamma(-x);
                for k in 0..=j {
                    self.w[k] -= u[k];
                }
                self.record(round, self.id(i - 1, j), u[j]);
                self.sent_up = true;
                outbox.push((self.id(i - 1, j), Msg::Up(u)));
            }

            // ---- step 5: horizontal balance, once step 4 settled -----
            if self.step4_done() && !self.sent_row {
                // z and v are computed from the *final* vertical state,
                // which never changes again; but task conservation
                // requires waiting for row inflows before overdrawing.
                let (z, v) = self.zv();
                let left_ok = z <= 0 || self.got_left;
                let right_ok = v >= 0 || self.got_right;
                if left_ok && right_ok {
                    self.sent_row = true;
                    if v > 0 {
                        self.record(round, self.id(i, j + 1), v);
                        outbox.push((self.id(i, j + 1), Msg::RowRight(v)));
                    }
                    if z < 0 {
                        self.record(round, self.id(i, j - 1), -z);
                        outbox.push((self.id(i, j - 1), Msg::RowLeft(-z)));
                    }
                }
            }
        }
    }
}

/// Runs MWA as a distributed SPMD program over a lock-step mesh.
/// Returns the transfer plan (identical flows to [`crate::mwa`]) and
/// the measured number of communication steps, which respects the
/// paper's `3(n1+n2)` bound.
///
/// # Panics
/// Panics if `loads.len() != mesh.len()`, any load is negative, or the
/// protocol fails to land every node exactly on its quota (a bug, not
/// an input condition).
pub fn mwa_distributed(mesh: &Mesh2D, loads: &[i64]) -> (TransferPlan, usize) {
    let (n1, n2) = (mesh.rows(), mesh.cols());
    assert_eq!(loads.len(), mesh.len(), "one load per node required");
    assert!(loads.iter().all(|&w| w >= 0), "negative load");

    let machine = BspMachine::new(mesh, |id| Node {
        i: id / n2,
        j: id % n2,
        n1,
        n2,
        w: vec![loads[id]],
        vals: None,
        row_sum: None,
        t_prev_in: None,
        bcast: None,
        sent_col_scan: false,
        sent_col_bcast: false,
        sent_spread: false,
        got_down: false,
        got_up: false,
        sent_down: false,
        sent_up: false,
        got_left: false,
        got_right: false,
        sent_row: false,
        moves: Vec::new(),
    });
    let (nodes, outcome) = machine.run(8 * (n1 + n2) + 8);

    // Assemble the plan in send order (BSP rounds give a transit-safe
    // sequence).
    let mut stamped: Vec<(usize, NodeId, NodeId, i64)> =
        nodes.iter().flat_map(|n| n.moves.iter().copied()).collect();
    stamped.sort_by_key(|&(round, from, to, _)| (round, from, to));
    let mut plan = TransferPlan::default();
    for (_, from, to, count) in stamped {
        plan.push(from, to, count);
    }

    // Postconditions: exact quotas everywhere, within the step bound.
    let total: i64 = loads.iter().sum();
    let quotas = crate::flow::quotas(total, mesh.len());
    let finals = plan.apply(loads);
    assert_eq!(finals, quotas, "distributed MWA missed its quotas");
    assert!(
        outcome.comm_steps <= mwa_steps(mesh),
        "used {} steps, bound is {}",
        outcome.comm_steps,
        mwa_steps(mesh)
    );
    (plan, outcome.comm_steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsp::link_flows;
    use crate::mwa;
    use proptest::prelude::*;

    fn check_agreement(mesh: &Mesh2D, loads: &[i64]) {
        let (central, _) = mwa(mesh, loads);
        let (distributed, steps) = mwa_distributed(mesh, loads);
        assert_eq!(
            link_flows(&central),
            link_flows(&distributed),
            "flow mismatch on {loads:?}"
        );
        assert!(steps <= mwa_steps(mesh));
    }

    #[test]
    fn agrees_on_small_meshes() {
        check_agreement(&Mesh2D::new(2, 2), &[12, 0, 0, 0]);
        check_agreement(&Mesh2D::new(1, 4), &[8, 0, 0, 0]);
        check_agreement(&Mesh2D::new(4, 1), &[0, 0, 0, 8]);
        check_agreement(&Mesh2D::new(3, 2), &[0, 0, 9, 9, 0, 0]);
    }

    #[test]
    fn agrees_on_paper_mesh() {
        let mesh = Mesh2D::new(8, 4);
        let loads: Vec<i64> = (0..32).map(|k| (k * 37 % 23) as i64).collect();
        check_agreement(&mesh, &loads);
    }

    #[test]
    fn agrees_with_remainder() {
        check_agreement(&Mesh2D::new(2, 2), &[7, 0, 0, 0]);
        check_agreement(&Mesh2D::new(3, 3), &[10, 3, 0, 0, 5, 0, 0, 0, 2]);
    }

    #[test]
    fn single_node() {
        let (plan, steps) = mwa_distributed(&Mesh2D::new(1, 1), &[9]);
        assert!(plan.moves.is_empty());
        assert_eq!(steps, 0);
    }

    #[test]
    fn step_count_on_large_mesh() {
        let mesh = Mesh2D::new(16, 16);
        let loads: Vec<i64> = (0..256).map(|k| ((k * k) % 61) as i64).collect();
        let (_, steps) = mwa_distributed(&mesh, &loads);
        assert!(steps <= mwa_steps(&mesh), "steps = {steps}");
        // And the machine cannot be *trivially* fast either: the scan
        // alone needs n2 - 1 rounds.
        assert!(steps >= 15);
    }

    #[test]
    fn balanced_input_is_silent_after_the_scans() {
        let mesh = Mesh2D::new(4, 4);
        let (plan, _) = mwa_distributed(&mesh, &[5; 16]);
        assert!(plan.moves.is_empty());
    }

    /// Arbitrary mesh shape and loads: dims 1..=8, loads 0..=60.
    fn mesh_and_loads() -> impl Strategy<Value = (Mesh2D, Vec<i64>)> {
        ((1usize..=8), (1usize..=8)).prop_flat_map(|(r, c)| {
            proptest::collection::vec(0i64..=60, r * c)
                .prop_map(move |loads| (Mesh2D::new(r, c), loads))
        })
    }

    proptest! {
        /// The distributed SPMD realisation of MWA produces exactly the
        /// same per-link flows as the centralized Figure 3 arithmetic,
        /// and stays within the paper's 3(n1+n2) communication-step
        /// bound.
        #[test]
        fn distributed_mwa_agrees_with_centralized((mesh, loads) in mesh_and_loads()) {
            let (central, _) = mwa(&mesh, &loads);
            let (distributed, steps) = mwa_distributed(&mesh, &loads);
            prop_assert_eq!(link_flows(&central), link_flows(&distributed));
            prop_assert!(steps <= mwa_steps(&mesh));
        }
    }
}
