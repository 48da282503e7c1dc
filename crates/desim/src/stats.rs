//! Per-node and whole-run accounting.

use crate::Time;

/// Classification of CPU time consumed inside a handler. The split
/// drives Table I's decomposition of each node's timeline: user work
/// plus `Th` overhead plus `Ti` idle accounts for every µs of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkKind {
    /// Useful application work (task execution) — the user-work share
    /// of Table I's timeline; summed over nodes it is the `Ts`
    /// numerator of Table III's speedup.
    User,
    /// Scheduling/system work: load-information exchange, queue
    /// manipulation, task packing, phase-transfer protocol — Table I's
    /// `Th` (mean scheduling overhead). Whatever remains of the
    /// timeline is Table I's `Ti` (mean idle time).
    Overhead,
}

/// CPU accounting for one node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Total user compute time (µs).
    pub user_us: Time,
    /// Total system overhead time (µs).
    pub overhead_us: Time,
}

impl NodeStats {
    /// Idle time given the run's end time: whatever part of the
    /// timeline was neither user work nor overhead.
    pub fn idle_us(&self, end: Time) -> Time {
        end.saturating_sub(self.user_us + self.overhead_us)
    }
}

/// Network-wide counters. Per-node message counts are not kept: a
/// sink that wants them counts `MsgSend` trace events by node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Total messages delivered.
    pub msgs: u64,
    /// Total payload bytes moved.
    pub bytes: u64,
    /// Total link traversals (Σ hops over messages) — the simulator's
    /// analogue of the paper's `Σ e_k` communication cost.
    pub hops: u64,
}

/// Modelled memory footprint of the engine's scale-sensitive state.
///
/// These are **deterministic modelled bytes** computed from structure
/// sizes — not measured RSS, which would vary run to run and break the
/// bit-for-bit reproducibility contract (`RunStats` is `Eq`-compared
/// across traced/untraced runs). The scale-curve bench pairs these
/// with the process's real `VmHWM` for the checked-in report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Bytes of per-directed-link contention state (`n²` link free
    /// times when store-and-forward contention is enabled, else 0).
    pub link_state_bytes: u64,
    /// Fixed per-node engine state (programs with their inline task
    /// queues, lanes, wake markers, ready times, CPU counters) — O(1)
    /// per node, summed over nodes.
    pub node_state_bytes: u64,
    /// High-water mark of the bytes outstanding events occupy: global
    /// heap entries at the event size, deferral-lane entries at the
    /// (smaller) lane-event size, and the undelivered entries of
    /// in-flight broadcast runs at 16 bytes each — a run's head is
    /// counted as the heap entry it is.
    pub peak_event_bytes: u64,
}

impl MemStats {
    /// Total modelled bytes across all categories.
    pub fn total_bytes(&self) -> u64 {
        self.link_state_bytes + self.node_state_bytes + self.peak_event_bytes
    }
}

/// One contiguous stretch of CPU activity on a node (timeline
/// recording only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusySpan {
    /// Span start (µs).
    pub start: Time,
    /// Span end (µs, exclusive).
    pub end: Time,
    /// What the CPU was doing.
    pub kind: WorkKind,
}

/// Summary of a completed simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunStats {
    /// Virtual time at which the last handler finished (µs). This is
    /// the parallel execution time `T` of Table I.
    pub end_time: Time,
    /// Per-node CPU accounting.
    pub nodes: Vec<NodeStats>,
    /// Network counters.
    pub net: NetStats,
    /// Number of events processed (protocol-complexity diagnostic).
    pub events: u64,
    /// High-water mark of outstanding events (heap + deferral lanes +
    /// undelivered broadcast-run entries) — the simulator's logical
    /// working-set diagnostic.
    pub peak_queue_depth: u64,
    /// High-water mark of entries really in the global heap. A
    /// broadcast in flight is one entry here however many recipients
    /// it still owes, so this — not `peak_queue_depth` — is what a pop
    /// has to sift through.
    pub peak_heap_len: u64,
    /// Modelled memory footprint of the engine's scale-sensitive
    /// structures (deterministic; see [`MemStats`]).
    pub mem: MemStats,
    /// Per-node busy spans, present when the engine ran with
    /// `record_timeline` — the raw material for utilization charts.
    pub timelines: Option<Vec<Vec<BusySpan>>>,
    /// Whether any handler called [`Ctx::seed`](crate::Ctx::seed),
    /// the one place the seed reaches a program. A run that leaves it
    /// `false` is the same run under every seed.
    pub seed_read: bool,
}

impl RunStats {
    /// Mean per-node system overhead (µs) — Table I's `Th`.
    pub fn mean_overhead_us(&self) -> f64 {
        mean(self.nodes.iter().map(|n| n.overhead_us))
    }

    /// Mean per-node idle time (µs) — Table I's `Ti`.
    pub fn mean_idle_us(&self) -> f64 {
        let end = self.end_time;
        mean(self.nodes.iter().map(|n| n.idle_us(end)))
    }

    /// Total user compute over all nodes (µs) — the simulated `Ts` when
    /// the workload is fixed.
    pub fn total_user_us(&self) -> Time {
        self.nodes.iter().map(|n| n.user_us).sum()
    }

    /// Efficiency `µ = Ts / (Tp · N)` where `Ts` is total user work
    /// performed and `Tp` the parallel end time.
    pub fn efficiency(&self) -> f64 {
        if self.end_time == 0 || self.nodes.is_empty() {
            return 1.0;
        }
        self.total_user_us() as f64 / (self.end_time as f64 * self.nodes.len() as f64)
    }
}

fn mean(values: impl Iterator<Item = Time>) -> f64 {
    let mut sum = 0u128;
    let mut n = 0u64;
    for v in values {
        sum += v as u128;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_is_remainder() {
        let n = NodeStats {
            user_us: 600,
            overhead_us: 150,
        };
        assert_eq!(n.idle_us(1000), 250);
        // Saturates rather than underflows if accounting slightly
        // overshoots the end time.
        assert_eq!(n.idle_us(500), 0);
    }

    #[test]
    fn efficiency_perfect_when_fully_busy() {
        let stats = RunStats {
            end_time: 1000,
            nodes: vec![
                NodeStats {
                    user_us: 1000,
                    ..Default::default()
                };
                4
            ],
            net: NetStats::default(),
            events: 0,
            peak_queue_depth: 0,
            peak_heap_len: 0,
            mem: MemStats::default(),
            timelines: None,
            seed_read: false,
        };
        assert!((stats.efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn efficiency_halves_with_half_idle() {
        let stats = RunStats {
            end_time: 1000,
            nodes: vec![
                NodeStats {
                    user_us: 500,
                    ..Default::default()
                };
                8
            ],
            net: NetStats::default(),
            events: 0,
            peak_queue_depth: 0,
            peak_heap_len: 0,
            mem: MemStats::default(),
            timelines: None,
            seed_read: false,
        };
        assert!((stats.efficiency() - 0.5).abs() < 1e-12);
    }
}
