//! Deficit round robin across tenants.
//!
//! Jobs cost their task count; each tenant banks `quantum` task-units
//! of deficit per rotation visit and dispatches its head job once the
//! bank covers the cost. A tenant whose queue empties loses its bank
//! (the classic DRR reset), so idle tenants cannot hoard service. The
//! result is long-run throughput fairness in task-units, not job
//! counts — a tenant submitting big forests gets the same task
//! bandwidth as one submitting small ones.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::catalog::JobApp;

/// One admitted job waiting for the fleet.
#[derive(Debug, Clone)]
pub struct QueuedJob {
    /// Serve-wide job id.
    pub job: u64,
    /// Owning tenant.
    pub tenant: u32,
    /// Submission instant (µs) — latency is measured from here.
    pub arrival: u64,
    /// What to run.
    pub app: Arc<JobApp>,
    /// DRR cost (the app's task count).
    pub cost: u64,
}

/// The fairness layer: per-tenant FIFO queues drained by deficit
/// round robin.
///
/// Per-tenant state is indexed by tenant id and grows to the largest
/// id seen, so ids should be dense (`0..tenants`, as
/// [`generate`](crate::generate) makes them).
#[derive(Debug)]
pub struct Drr {
    quantum: u64,
    /// Each tenant's queue, empty while the tenant is idle.
    queues: Vec<VecDeque<QueuedJob>>,
    /// Each tenant's banked deficit, 0 while the tenant is idle.
    deficit: Vec<u64>,
    /// Tenants with non-empty queues, in activation order.
    rotation: Vec<u32>,
    cursor: usize,
}

impl Drr {
    /// A scheduler granting `quantum` task-units per visit (≥ 1).
    pub fn new(quantum: u64) -> Self {
        Drr {
            quantum: quantum.max(1),
            queues: Vec::new(),
            deficit: Vec::new(),
            rotation: Vec::new(),
            cursor: 0,
        }
    }

    /// Queues one admitted job behind its tenant's earlier jobs.
    pub fn enqueue(&mut self, job: QueuedJob) {
        let tenant = job.tenant as usize;
        if tenant >= self.queues.len() {
            self.queues.resize_with(tenant + 1, VecDeque::new);
            self.deficit.resize(tenant + 1, 0);
        }
        let q = &mut self.queues[tenant];
        if q.is_empty() {
            self.rotation.push(job.tenant);
        }
        q.push_back(job);
    }

    /// Whether any job is queued.
    pub fn is_empty(&self) -> bool {
        self.rotation.is_empty()
    }

    /// Earliest instant at which some job could dispatch: the minimum
    /// arrival over tenant queue heads (FIFO per tenant, so later
    /// jobs cannot jump their own head).
    pub fn earliest_ready(&self) -> Option<u64> {
        self.rotation.iter().map(|&t| self.head(t).arrival).min()
    }

    /// Picks the next job to dispatch at time `now` (only jobs with
    /// `arrival <= now` are eligible), banking deficit as the
    /// rotation is walked. `None` when nothing is eligible yet.
    ///
    /// The walk visits the rotation from the cursor, banking `quantum`
    /// at each eligible tenant that cannot yet pay for its head job,
    /// and stops at the first that can. This finds that tenant without
    /// taking the visits one by one: the eligible tenant `d` places
    /// past the cursor, `rounds` quanta short of its head's cost, would
    /// pay at visit `rounds · len + d`, so the fewest rounds win and
    /// ties go to the first in walk order. Every eligible tenant is
    /// visited `rounds` times before the winner pays, plus once more if
    /// it sits before the winner, and banks a quantum per visit. One
    /// pick costs O(tenants) however many rotations the walk would
    /// take.
    pub fn pick(&mut self, now: u64) -> Option<QueuedJob> {
        let len = self.rotation.len();
        if len == 0 {
            return None;
        }
        if self.cursor >= len {
            self.cursor = 0;
        }
        let start = self.cursor;
        let (before, from) = self.rotation.split_at(start);
        let mut winner: Option<(usize, u64)> = None; // (d, rounds)
        for (d, &t) in from.iter().chain(before).enumerate() {
            let head = self.head(t);
            if head.arrival > now {
                continue;
            }
            let short = head.cost.saturating_sub(self.deficit[t as usize]);
            // A later tenant wins only on fewer rounds, that is if it
            // is short by at most `rounds - 1` quanta.
            if let Some((_, rounds)) = winner {
                if rounds == 0 || short > (rounds - 1) * self.quantum {
                    continue;
                }
            }
            winner = Some((d, short.div_ceil(self.quantum)));
        }
        let Some((won_at, rounds)) = winner else {
            // The walk laps once without an eligible job: it stops
            // where it started, or past the end if it started at 0.
            if start == 0 {
                self.cursor = len;
            }
            return None;
        };
        let (before, from) = self.rotation.split_at(start);
        for (d, &t) in from.iter().chain(before).enumerate() {
            if self.queues[t as usize][0].arrival <= now {
                let visits = rounds + u64::from(d < won_at);
                self.deficit[t as usize] += self.quantum * visits;
            }
        }
        self.cursor = (start + won_at) % len;
        Some(self.pay())
    }

    /// A rotation tenant's head job.
    fn head(&self, tenant: u32) -> &QueuedJob {
        self.queues[tenant as usize]
            .front()
            .expect("rotation tenants have queued jobs")
    }

    /// The tenant under the cursor pays for and dispatches its head
    /// job; a tenant left idle loses its bank and the rotation.
    fn pay(&mut self) -> QueuedJob {
        let tenant = self.rotation[self.cursor] as usize;
        let q = &mut self.queues[tenant];
        let job = q.pop_front().expect("rotation tenants have queued jobs");
        self.deficit[tenant] -= job.cost;
        if q.is_empty() {
            self.deficit[tenant] = 0; // DRR reset: no banking while idle
            self.rotation.remove(self.cursor);
        }
        job
    }

    /// The definition [`pick`](Self::pick) must match: the rotation
    /// walked one visit at a time.
    #[cfg(test)]
    fn pick_by_visits(&mut self, now: u64) -> Option<QueuedJob> {
        let mut scanned = 0;
        let mut any_eligible = false;
        loop {
            if self.rotation.is_empty() || (scanned >= self.rotation.len() && !any_eligible) {
                return None;
            }
            if self.cursor >= self.rotation.len() {
                self.cursor = 0;
            }
            let tenant = self.rotation[self.cursor];
            let head = self.head(tenant);
            if head.arrival > now {
                self.cursor += 1;
                scanned += 1;
                continue;
            }
            any_eligible = true;
            let cost = head.cost;
            let bank = &mut self.deficit[tenant as usize];
            if *bank < cost {
                *bank += self.quantum;
                self.cursor += 1;
                scanned += 1;
                continue;
            }
            return Some(self.pay());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use proptest::prelude::*;

    fn job(cat: &Catalog, id: u64, tenant: u32, cost: u64) -> QueuedJob {
        QueuedJob {
            job: id,
            tenant,
            arrival: 0,
            app: Arc::clone(&cat.apps()[0]),
            cost,
        }
    }

    #[test]
    fn equal_cost_tenants_alternate() {
        let cat = Catalog::tiny();
        let mut d = Drr::new(10);
        for i in 0..4 {
            d.enqueue(job(&cat, i, 0, 10));
            d.enqueue(job(&cat, 100 + i, 1, 10));
        }
        let mut order = Vec::new();
        while let Some(j) = d.pick(u64::MAX) {
            order.push(j.tenant);
        }
        assert_eq!(order, vec![0, 1, 0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn task_bandwidth_is_fair_despite_job_size_mismatch() {
        // Tenant 0 queues 12 one-unit jobs, tenant 1 queues 4
        // three-unit jobs: over any window both get ~equal task-units.
        let cat = Catalog::tiny();
        let mut d = Drr::new(3);
        for i in 0..12 {
            d.enqueue(job(&cat, i, 0, 1));
        }
        for i in 0..4 {
            d.enqueue(job(&cat, 100 + i, 1, 3));
        }
        let (mut u0, mut u1) = (0u64, 0u64);
        for _ in 0..8 {
            let j = d.pick(u64::MAX).unwrap();
            if j.tenant == 0 {
                u0 += j.cost;
            } else {
                u1 += j.cost;
            }
        }
        assert!(u0.abs_diff(u1) <= 3, "task-units diverged: {u0} vs {u1}");
    }

    #[test]
    fn future_arrivals_are_not_eligible() {
        let cat = Catalog::tiny();
        let mut d = Drr::new(10);
        let mut j = job(&cat, 0, 0, 5);
        j.arrival = 100;
        d.enqueue(j);
        assert!(d.pick(99).is_none());
        assert_eq!(d.earliest_ready(), Some(100));
        assert!(d.pick(100).is_some());
        assert!(d.is_empty());
    }

    #[test]
    fn emptied_tenant_loses_its_bank() {
        let cat = Catalog::tiny();
        let mut d = Drr::new(100);
        d.enqueue(job(&cat, 0, 0, 1));
        assert!(d.pick(u64::MAX).is_some());
        // Tenant 0 drained; its banked 99 units must not persist.
        d.enqueue(job(&cat, 1, 0, 50));
        d.enqueue(job(&cat, 2, 1, 50));
        let first = d.pick(u64::MAX).unwrap();
        // Fresh banks for both: rotation order (activation order)
        // decides, and tenant 0 re-activated first.
        assert_eq!(first.job, 1);
    }

    /// Everything a pick may change: the rotation, the cursor, each
    /// tenant's bank and queued job ids.
    fn state(d: &Drr) -> (Vec<u32>, usize, Vec<u64>, Vec<Vec<u64>>) {
        let queues = d.queues.iter().map(|q| q.iter().map(|j| j.job).collect());
        (
            d.rotation.clone(),
            d.cursor,
            d.deficit.clone(),
            queues.collect(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Enqueues and picks interleaved, fruitless picks included,
        /// then a drain: `pick` returns what the visit-by-visit walk
        /// returns and leaves the same state behind.
        #[test]
        fn pick_matches_the_visit_by_visit_walk(
            tenants in 1u32..=6,
            quantum in 1u64..=100,
            ops in collection::vec((0u8..3, 0u32..6, 1u64..=700, 0u64..1_000), 0..80)
        ) {
            let cat = Catalog::tiny();
            let (mut fast, mut walk) = (Drr::new(quantum), Drr::new(quantum));
            for (i, (op, tenant, cost, time)) in ops.into_iter().enumerate() {
                if op < 2 {
                    let mut j = job(&cat, i as u64, tenant % tenants, cost);
                    j.arrival = time;
                    fast.enqueue(j.clone());
                    walk.enqueue(j);
                } else {
                    let (a, b) = (fast.pick(time), walk.pick_by_visits(time));
                    prop_assert_eq!(a.map(|j| j.job), b.map(|j| j.job));
                }
                prop_assert_eq!(fast.earliest_ready(), walk.earliest_ready());
                prop_assert_eq!(fast.is_empty(), walk.is_empty());
                prop_assert_eq!(state(&fast), state(&walk));
            }
            loop {
                let (a, b) = (fast.pick(u64::MAX), walk.pick_by_visits(u64::MAX));
                prop_assert_eq!(a.as_ref().map(|j| j.job), b.map(|j| j.job));
                prop_assert_eq!(state(&fast), state(&walk));
                if a.is_none() {
                    break;
                }
            }
            prop_assert!(fast.is_empty());
        }
    }
}
