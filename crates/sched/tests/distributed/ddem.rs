//! The Dimension Exchange Method as a distributed SPMD program: in
//! round `k` every node exchanges loads with its partner across
//! hypercube dimension `k` and the heavier half sends ⌊diff/2⌋ tasks —
//! exactly `d` communication steps, which is DEM's calling card (and
//! measured here rather than asserted).

use rips_topology::{Hypercube, NodeId, Topology};

use crate::bsp::{BspMachine, BspProgram};
use crate::dem::dem_steps;
use crate::plan::TransferPlan;

#[derive(Debug, Clone, Copy)]
enum Msg {
    /// Partner's current load for this dimension's exchange.
    Load(i64),
}

struct Node {
    me: NodeId,
    dim: usize,
    load: i64,
    /// Partner load received this round, if any.
    partner: Option<i64>,
    moves: Vec<(usize, NodeId, NodeId, i64)>,
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
        // Round r carries dimension r's load exchange; the inbox holds
        // dimension r−1's partner load, settled (symmetrically, both
        // sides compute the same difference) before this round's send.
        for (_, Msg::Load(l)) in inbox {
            self.partner = Some(l);
        }
        if round > 0 {
            let k = round - 1;
            let partner_load = self.partner.take().expect("exchange message due");
            let partner = self.me ^ (1 << k);
            let diff = self.load - partner_load;
            if diff >= 2 {
                let send = diff / 2;
                self.load -= send;
                self.moves.push((round, self.me, partner, send));
            } else if diff <= -2 {
                self.load += (-diff) / 2;
            }
        }
        if round < self.dim {
            let partner = self.me ^ (1 << round);
            outbox.push((partner, Msg::Load(self.load)));
        }
    }
}

/// Runs DEM as a distributed SPMD program over the hypercube. Returns
/// the plan (identical to [`crate::dem`]) and the measured
/// communication-step count.
///
/// # Panics
/// Panics on length mismatch or negative loads.
pub fn dem_distributed(cube: &Hypercube, loads: &[i64]) -> (TransferPlan, usize) {
    let n = cube.len();
    assert_eq!(loads.len(), n, "one load per node required");
    assert!(loads.iter().all(|&w| w >= 0), "negative load");
    let dim = cube.dim();

    let machine = BspMachine::new(cube, |id| Node {
        me: id,
        dim,
        load: loads[id],
        partner: None,
        moves: Vec::new(),
    });
    let (nodes, outcome) = machine.run(dim + 2);

    let mut stamped: Vec<(usize, NodeId, NodeId, i64)> = nodes
        .iter()
        .flat_map(|nd| nd.moves.iter().copied())
        .collect();
    stamped.sort_by_key(|&(round, from, to, _)| (round, from, to));
    let mut plan = TransferPlan::default();
    for (_, from, to, count) in stamped {
        plan.push(from, to, count);
    }
    // One step per dimension, exactly DEM's complexity.
    assert!(
        outcome.comm_steps <= dem_steps(dim),
        "used {} steps",
        outcome.comm_steps
    );
    (plan, outcome.comm_steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsp::link_flows;
    use crate::dem;
    use proptest::prelude::*;

    #[test]
    fn agrees_with_centralized_dem() {
        for (d, seed) in [(0usize, 1u64), (1, 2), (3, 3), (4, 4), (5, 5)] {
            let cube = Hypercube::new(d);
            let loads: Vec<i64> = (0..cube.len())
                .map(|k| ((k as u64 * 2654435761 + seed) % 61) as i64)
                .collect();
            let central = dem(&cube, &loads);
            let (distributed, steps) = dem_distributed(&cube, &loads);
            assert_eq!(link_flows(&central), link_flows(&distributed), "d={d}");
            assert_eq!(
                central.apply(&loads),
                distributed.apply(&loads),
                "finals differ at d={d}"
            );
            assert!(steps <= dem_steps(d));
        }
    }

    #[test]
    fn point_load_spreads_exactly() {
        let cube = Hypercube::new(3);
        let mut loads = vec![0i64; 8];
        loads[0] = 80;
        let (plan, _) = dem_distributed(&cube, &loads);
        assert_eq!(plan.apply(&loads), vec![10; 8]);
    }

    proptest! {
        /// The distributed DEM is flow-identical to the centralized one
        /// and uses exactly one communication step per hypercube
        /// dimension.
        #[test]
        fn distributed_dem_agrees_with_centralized(
            dim in 0usize..=5,
            seed_loads in proptest::collection::vec(0i64..=60, 32),
        ) {
            let cube = Hypercube::new(dim);
            let loads = &seed_loads[..cube.len()];
            let central = dem(&cube, loads);
            let (distributed, steps) = dem_distributed(&cube, loads);
            prop_assert_eq!(link_flows(&central), link_flows(&distributed));
            prop_assert!(steps <= dem_steps(dim));
        }
    }
}
