//! Randomized allocation: each newly generated task is shipped to a
//! uniformly random processor.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use rips_desim::LatencyModel;
use rips_runtime::{
    run_policy, BalancerPolicy, Costs, ExecCtx, Kernel, KernelMsg, RunOutcome, TaskInstance,
};
use rips_taskgraph::Workload;
use rips_topology::{Mesh2D, NodeId};

/// Randomized allocation as a [`BalancerPolicy`]: every placement
/// decision is a fresh draw from the node's own random stream.
pub struct RandomPolicy {
    /// Seeded in [`BalancerPolicy::on_start`] from the run's seed
    /// ([`ExecCtx::seed`]), so both backends draw the same numbers.
    rng: SmallRng,
}

/// Node `me`'s randomized-allocation policy instance.
pub fn random_policy(me: NodeId) -> RandomPolicy {
    RandomPolicy { rng: stream(0, me) }
}

/// Node `me`'s random stream under the run's `seed`.
fn stream(seed: u64, me: NodeId) -> SmallRng {
    SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ me as u64)
}

impl RandomPolicy {
    /// Seeds this node's block of the round and immediately scatters it:
    /// randomized allocation assigns *every* task — initial ones
    /// included — to a uniformly random processor. (This is why the
    /// paper's Table I shows ~(N−1)/N of even the flat GROMOS task set
    /// as non-local under random allocation.)
    fn seed_scattered(
        &mut self,
        k: &mut Kernel,
        ctx: &mut impl ExecCtx<KernelMsg<()>>,
        round: u32,
    ) {
        let seeds = k.take_seeds(ctx, round);
        self.place_children(k, ctx, seeds);
        if k.oracle.outstanding() == 0 && k.me() == 0 {
            k.announce_round(ctx);
            return;
        }
        k.kick(ctx);
    }
}

impl BalancerPolicy for RandomPolicy {
    type Msg = ();

    fn on_start(&mut self, k: &mut Kernel, ctx: &mut impl ExecCtx<KernelMsg<()>>) {
        self.rng = stream(ctx.seed(), k.me());
        self.seed_scattered(k, ctx, 0);
    }

    fn on_msg(
        &mut self,
        _k: &mut Kernel,
        _ctx: &mut impl ExecCtx<KernelMsg<()>>,
        _from: NodeId,
        msg: (),
    ) {
        unreachable!("random allocation sends no policy messages, got {msg:?}");
    }

    /// Ships `children` to uniformly random nodes, batching per
    /// destination; local picks stay in the queue. Shipping is free for
    /// the sender — the receiver pays the spawn overhead on acceptance.
    fn place_children(
        &mut self,
        k: &mut Kernel,
        ctx: &mut impl ExecCtx<KernelMsg<()>>,
        children: Vec<TaskInstance>,
    ) {
        if children.is_empty() {
            return;
        }
        let n = ctx.num_nodes();
        let mut per_dest: Vec<Vec<TaskInstance>> = vec![Vec::new(); n];
        for child in children {
            let dest = self.rng.random_range(0..n);
            per_dest[dest].push(child);
        }
        let me = k.me();
        let load = k.load();
        for (dest, batch) in per_dest.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            if dest == me {
                k.exec.queue.extend(batch);
            } else {
                k.send_tasks(ctx, dest, batch, load);
            }
        }
    }

    fn on_round_start(
        &mut self,
        k: &mut Kernel,
        ctx: &mut impl ExecCtx<KernelMsg<()>>,
        round: u32,
        _token: u32,
    ) {
        self.seed_scattered(k, ctx, round);
    }
}

/// Runs `workload` under randomized allocation. Deterministic under
/// `seed`.
pub fn random(
    workload: Arc<Workload>,
    mesh: Mesh2D,
    latency: LatencyModel,
    costs: Costs,
    seed: u64,
) -> RunOutcome {
    run_policy(workload, mesh, latency, costs, seed, random_policy).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rips_taskgraph::flat_uniform;

    /// Node `i` draws from `seed·K ^ i`. Pinned: Random's placements,
    /// and the goldens they feed, depend on exactly this stream, and
    /// both backends reach it through the same `on_start`.
    #[test]
    fn each_node_draws_the_stream_its_seed_names() {
        let seed = 0xC0FFEE;
        // One root: node 0 places it (one draw); nodes 1–3 draw nothing.
        let w = Arc::new(flat_uniform(1, 5, 5, 0));
        let mesh = Mesh2D::new(2, 2);
        let latency = LatencyModel::paragon();
        let costs = Costs::default();
        let (_, policies) = run_policy(w, mesh, latency, costs, seed, random_policy);
        assert_eq!(policies.len(), 4);
        for (node, mut p) in policies.into_iter().enumerate() {
            let golden = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ node as u64;
            let mut want = SmallRng::seed_from_u64(golden);
            if node == 0 {
                want.random_range(0..4usize);
            }
            for _ in 0..8 {
                assert_eq!(p.rng.next_u64(), want.next_u64(), "node {node}");
            }
        }
    }
}
