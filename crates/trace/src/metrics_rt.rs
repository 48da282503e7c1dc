//! Always-on, allocation-free runtime metrics.
//!
//! The trace stream explains a run *after* it ends; this module is the
//! half that stays readable *while* the system runs. It is the
//! substrate for the live backend's dispatch self-profiling, the
//! stall watchdog, and `rips run|live|serve --metrics-out`.
//!
//! # Design
//!
//! * A [`MetricsRegistry`] owns one cache-line-aligned shard of
//!   atomics per node/thread. Writers touch only their own shard, so
//!   the hot path is an uncontended relaxed atomic add — no locks, no
//!   allocation.
//! * The metric catalog is *compile-time checked*: every counter,
//!   gauge, and histogram is a variant of [`Counter`], [`Gauge`], or
//!   [`Histo`], declared once with its OpenMetrics family name and
//!   help string. A misspelled metric is a compile error, and the
//!   renderer can enumerate the full catalog even when every value is
//!   zero.
//! * Histograms are log2-bucketed: `observe(v)` increments bucket
//!   `bit_length(v)`, so 64 counters cover the full `u64` range with
//!   ≤ 2x relative error — enough to separate "grain execute" from
//!   "trace emission" without a single division on the hot path.
//! * A registry is installed per run with
//!   [`with_metrics`](crate::with_metrics) and reached through the
//!   run's [`Telemetry`](crate::Telemetry) handle, whose every
//!   recording call is a single branch when no registry is installed
//!   (the metrics-off golden tests pin this bit-for-bit).
//! * Aggregation ([`MetricsRegistry::snapshot`]) sums shards on
//!   demand and renders OpenMetrics-style text
//!   ([`MetricsSnapshot::render_openmetrics`]).
//!
//! Wall-clock section timing needs a nanosecond [`Clock`](crate::Clock),
//! and this crate is dependency-free and may not name `Instant`
//! (RIPS-L002, `disallowed-types` in the root `clippy.toml`), so the
//! monotonic implementation lives in `rips-live`
//! (the one crate allowed to read time). Install the registry with one
//! through [`with_metrics_clocked`](crate::with_metrics_clocked) to
//! light up the duration histograms; without a clock only counters and
//! gauges record.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The [`Clock`](crate::Clock) trait, under the name section-timing
/// code imports it by.
pub use crate::Clock as CycleClock;

/// Declares a metric-id enum together with its OpenMetrics family
/// names and help strings, keeping the three in sync by construction.
macro_rules! metric_enum {
    (
        $(#[$outer:meta])*
        $vis:vis enum $name:ident {
            $($(#[$vm:meta])* $variant:ident => ($text:literal, $help:literal),)+
        }
    ) => {
        $(#[$outer])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(usize)]
        $vis enum $name {
            $($(#[$vm])* $variant,)+
        }

        impl $name {
            /// Every metric of this kind, in registry order.
            pub const ALL: &'static [$name] = &[$($name::$variant,)+];

            /// Number of metrics of this kind.
            pub const COUNT: usize = $name::ALL.len();

            /// OpenMetrics family name (shared `rips_` namespace).
            pub const fn name(self) -> &'static str {
                match self { $($name::$variant => $text,)+ }
            }

            /// One-line help string for the `# HELP` line.
            pub const fn help(self) -> &'static str {
                match self { $($name::$variant => $help,)+ }
            }

            #[inline(always)]
            const fn idx(self) -> usize {
                self as usize
            }
        }
    };
}

metric_enum! {
    /// Monotone event counters.
    pub enum Counter {
        /// Tasks executed by the policy kernel (either backend).
        TasksExecuted => ("rips_tasks_executed", "Tasks executed by the policy kernel."),
        /// Tasks spawned as children of an executed task.
        TasksSpawned => ("rips_tasks_spawned", "Tasks spawned as children during execution."),
        /// Tasks received from another node by a migration transfer.
        TasksMigratedIn => ("rips_tasks_migrated_in", "Tasks received via balancer migration."),
        /// Protocol messages sent (pre-batching, both backends).
        MsgsSent => ("rips_msgs_sent", "Protocol messages sent, counted before batching."),
        /// Batched transport packets handed to the live fabric.
        PacketsSent => ("rips_packets_sent", "Batched packets handed to the live transport."),
        /// Timer-wheel (or simulated timer) expirations dispatched.
        TimerFires => ("rips_timer_fires", "Timer expirations dispatched to the kernel."),
        /// Dispatch rounds completed by live node loops — the
        /// per-node progress counter the stall watchdog samples.
        DispatchRounds => ("rips_dispatch_rounds", "Dispatch rounds completed per node loop."),
        /// Events processed by the discrete-event simulator core.
        SimEvents => ("rips_sim_events", "Events processed by the desim engine loop."),
        /// Deferral-lane wake markers the simulator popped and dropped
        /// because the lane head or the node's free time had moved on.
        StaleWakes => ("rips_stale_wakes", "Stale deferral-lane wake markers discarded by the desim engine."),
        /// Broadcasts (`send_all`/`signal_all`) the simulator opened as
        /// one sorted run instead of one heap entry per recipient.
        BroadcastRuns => ("rips_broadcast_runs", "Broadcasts opened as sorted runs by the desim engine."),
        /// RIPS `Init` messages dropped on arrival because the node had
        /// already entered that system phase (a second initiator's
        /// wavefront, or one overtaken by the first).
        InitsSuppressed => ("rips_inits_suppressed", "Redundant RIPS phase initiations dropped by phase index."),
        /// Trace events recorded while a trace sink was installed.
        TraceEvents => ("rips_trace_events", "Trace events recorded to the installed sink."),
        /// Stall-watchdog trips (global progress frozen past threshold).
        WatchdogTrips => ("rips_watchdog_trips", "Stall watchdog trips observed."),
        /// Jobs tenants offered to the serve layer's admission
        /// controller (admitted + shed).
        JobsSubmitted => ("rips_jobs_submitted", "Jobs offered to the serve admission controller."),
        /// Jobs admission rejected (pending bound or tenant quota).
        JobsShed => ("rips_jobs_shed", "Jobs rejected by serve admission (bound or quota)."),
        /// Jobs the fleet finished serving.
        JobsCompleted => ("rips_jobs_completed", "Jobs completed by the serve fleet."),
        /// Completed jobs the simulated fleet served from an earlier
        /// identical run instead of simulating again (a seed-free
        /// scheduler on an app it already ran).
        JobsReused => ("rips_jobs_reused", "Completed jobs served by reusing an identical earlier simulated run."),
    }
}

metric_enum! {
    /// Last-write-wins gauges, kept per shard; renders report the
    /// maximum across shards (the worst backpressure seen at the most
    /// recent sample).
    pub enum Gauge {
        /// Ready-queue depth after the latest kernel dispatch.
        QueueDepth => ("rips_queue_depth", "Per-node ready-queue depth at last dispatch."),
        /// Transport ring occupancy at the latest flush.
        RingDepth => ("rips_ring_depth", "Queued transport packets at last flush."),
        /// Serve-layer admitted-but-not-dispatched jobs at the latest
        /// admission decision.
        PendingJobs => ("rips_pending_jobs", "Admitted jobs awaiting dispatch in the serve layer."),
    }
}

metric_enum! {
    /// Log2-bucketed duration histograms (nanoseconds). These only
    /// record when the registry is installed with a clock.
    pub enum Histo {
        /// Full dispatch-round cost: one kernel dispatch call plus
        /// everything it pulled in.
        DispatchRoundNs => ("rips_dispatch_round_ns", "Cost of one kernel dispatch round."),
        /// Dispatch-round cost minus grain execution: protocol
        /// bookkeeping, queue ops, message construction.
        GrainSetupNs => ("rips_grain_setup_ns", "Dispatch-round overhead outside grain execution."),
        /// Application grain execution inside a dispatch round.
        GrainExecNs => ("rips_grain_exec_ns", "Application grain execution time."),
        /// Outbox flush: batched packets pushed into the fabric.
        TransportSendNs => ("rips_transport_send_ns", "Transport send (outbox flush) time."),
        /// Mailbox/ring polls, both empty and successful.
        TransportRecvNs => ("rips_transport_recv_ns", "Transport receive poll time."),
        /// Timer-wheel pops and deadline queries.
        TimerWheelNs => ("rips_timer_wheel_ns", "Timer-wheel service time."),
        /// Trace emission: building the payload and recording it to
        /// the installed sink (lock + push).
        TraceEmitNs => ("rips_trace_emit_ns", "Cost of recording one trace event."),
        /// Blocked parked time waiting for work or a timer deadline.
        ParkNs => ("rips_park_ns", "Parked wait time in the node loop."),
    }
}

/// Number of log2 buckets: `bit_length(u64)` spans 0..=64, and values
/// of length ≥ 63 share the top bucket before the `+Inf` rollup.
const HIST_BUCKETS: usize = 64;

/// One histogram: `buckets[i]` counts values with bit length `i`
/// (i.e. `v < 2^i`, `v >= 2^(i-1)`), clamped into the top bucket.
struct HistSlab {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl HistSlab {
    const fn new() -> Self {
        HistSlab {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
        }
    }

    #[inline(always)]
    fn observe(&self, v: u64) {
        let idx = (u64::BITS - v.leading_zeros()).min(HIST_BUCKETS as u32 - 1) as usize;
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }
}

/// Per-writer metric storage. Aligned out to two cache lines so
/// neighbouring shards never false-share: each node/thread owns one
/// shard exclusively for writes; only aggregation reads across them.
#[repr(align(128))]
struct Shard {
    counters: [AtomicU64; Counter::COUNT],
    gauges: [AtomicU64; Gauge::COUNT],
    histos: [HistSlab; Histo::COUNT],
}

impl Shard {
    fn new() -> Self {
        Shard {
            counters: [const { AtomicU64::new(0) }; Counter::COUNT],
            gauges: [const { AtomicU64::new(0) }; Gauge::COUNT],
            histos: [const { HistSlab::new() }; Histo::COUNT],
        }
    }
}

/// A deterministic [`Clock`](crate::Clock) for tests: returns an atomically
/// advancing value so durations are reproducible without reading
/// wall-clock time.
#[derive(Debug, Default)]
pub struct ManualNs(AtomicU64);

impl ManualNs {
    /// A clock starting at 0 ns.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `ns`.
    pub fn advance(&self, ns: u64) {
        self.0.fetch_add(ns, Ordering::Relaxed);
    }
}

impl crate::Clock for ManualNs {
    fn now_ns(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Sharded atomic metric storage — see the [module docs](self).
pub struct MetricsRegistry {
    shards: Box<[Shard]>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl MetricsRegistry {
    /// A registry with one shard per expected writer (node/thread).
    /// `num_shards` is clamped to at least 1; out-of-range shard ids
    /// wrap, so a registry is always safe to write from any node id.
    pub fn new(num_shards: usize) -> Arc<Self> {
        let n = num_shards.max(1);
        Arc::new(MetricsRegistry {
            shards: (0..n).map(|_| Shard::new()).collect(),
        })
    }

    #[inline(always)]
    fn shard(&self, shard: usize) -> &Shard {
        // Wrapping keeps writes safe if a run is built with more
        // nodes than the registry anticipated.
        &self.shards[shard % self.shards.len()]
    }

    /// Adds `v` to counter `c` on `shard`.
    #[inline(always)]
    pub fn add(&self, shard: usize, c: Counter, v: u64) {
        self.shard(shard).counters[c.idx()].fetch_add(v, Ordering::Relaxed);
    }

    /// Stores `v` into gauge `g` on `shard` (last write wins).
    #[inline(always)]
    pub fn set_gauge(&self, shard: usize, g: Gauge, v: u64) {
        self.shard(shard).gauges[g.idx()].store(v, Ordering::Relaxed);
    }

    /// Records one duration sample into histogram `h` on `shard`.
    #[inline(always)]
    pub fn observe(&self, shard: usize, h: Histo, v: u64) {
        self.shard(shard).histos[h.idx()].observe(v);
    }

    /// Sum of counter `c` across all shards.
    pub fn counter_total(&self, c: Counter) -> u64 {
        self.shards
            .iter()
            .map(|s| s.counters[c.idx()].load(Ordering::Relaxed))
            .sum()
    }

    /// Counter `c` per shard, in shard order — the watchdog samples
    /// [`Counter::DispatchRounds`] through this to watch per-node
    /// progress.
    pub fn counter_per_shard(&self, c: Counter) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.counters[c.idx()].load(Ordering::Relaxed))
            .collect()
    }

    /// A consistent-enough point-in-time aggregate of every metric
    /// (relaxed reads: each cell is exact, cross-cell skew is bounded
    /// by in-flight updates).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = Counter::ALL
            .iter()
            .map(|&c| (c, self.counter_total(c)))
            .collect();
        let gauges = Gauge::ALL
            .iter()
            .map(|&g| {
                let v = self
                    .shards
                    .iter()
                    .map(|s| s.gauges[g.idx()].load(Ordering::Relaxed))
                    .max()
                    .unwrap_or(0);
                (g, v)
            })
            .collect();
        let histos = Histo::ALL
            .iter()
            .map(|&h| {
                let mut buckets = vec![0u64; HIST_BUCKETS];
                let mut count = 0u64;
                let mut sum = 0u64;
                for s in self.shards.iter() {
                    let slab = &s.histos[h.idx()];
                    count += slab.count.load(Ordering::Relaxed);
                    sum += slab.sum.load(Ordering::Relaxed);
                    for (acc, b) in buckets.iter_mut().zip(slab.buckets.iter()) {
                        *acc += b.load(Ordering::Relaxed);
                    }
                }
                HistSnapshot {
                    metric: h,
                    count,
                    sum,
                    buckets,
                }
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histos,
        }
    }
}

/// Aggregated histogram state at snapshot time.
#[derive(Debug, Clone)]
pub struct HistSnapshot {
    /// Which histogram this is.
    pub metric: Histo,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (ns).
    pub sum: u64,
    /// Per-log2-bucket sample counts (`buckets[i]` counts values of
    /// bit length `i`; not cumulative).
    pub buckets: Vec<u64>,
}

impl HistSnapshot {
    /// Mean sample value, or 0.0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket holding the `q`-quantile sample
    /// (nearest-rank over the log2 buckets), or 0 with no samples.
    pub fn quantile_ub(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        u64::MAX
    }
}

/// Inclusive upper bound of log2 bucket `i` (`2^i - 1`).
fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Point-in-time aggregate of a whole registry.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// `(counter, total across shards)` in catalog order.
    pub counters: Vec<(Counter, u64)>,
    /// `(gauge, max across shards)` in catalog order.
    pub gauges: Vec<(Gauge, u64)>,
    /// Aggregated histograms in catalog order.
    pub histos: Vec<HistSnapshot>,
}

impl MetricsSnapshot {
    /// Total of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters
            .iter()
            .find(|(id, _)| *id == c)
            .map_or(0, |&(_, v)| v)
    }

    /// Aggregated state of one histogram.
    pub fn histo(&self, h: Histo) -> &HistSnapshot {
        self.histos
            .iter()
            .find(|s| s.metric == h)
            .expect("snapshot holds the full catalog")
    }

    /// Renders the snapshot as OpenMetrics-style text: `# TYPE` /
    /// `# HELP` per family, `_total` counter samples, cumulative
    /// `_bucket{le=...}` + `_sum`/`_count` histogram samples, and a
    /// final `# EOF`. The full catalog is always present (zero-valued
    /// families included) so consumers can rely on names existing.
    pub fn render_openmetrics(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(4096);
        for &(c, v) in &self.counters {
            writeln!(out, "# TYPE {} counter", c.name()).unwrap();
            writeln!(out, "# HELP {} {}", c.name(), c.help()).unwrap();
            writeln!(out, "{}_total {}", c.name(), v).unwrap();
        }
        for &(g, v) in &self.gauges {
            writeln!(out, "# TYPE {} gauge", g.name()).unwrap();
            writeln!(out, "# HELP {} {}", g.name(), g.help()).unwrap();
            writeln!(out, "{} {}", g.name(), v).unwrap();
        }
        for h in &self.histos {
            let name = h.metric.name();
            writeln!(out, "# TYPE {name} histogram").unwrap();
            writeln!(out, "# HELP {name} {}", h.metric.help()).unwrap();
            let mut cum = 0u64;
            for (i, &b) in h.buckets.iter().enumerate() {
                if b == 0 {
                    continue;
                }
                cum += b;
                writeln!(
                    out,
                    "{name}_bucket{{le=\"{}\"}} {cum}",
                    bucket_upper_bound(i)
                )
                .unwrap();
            }
            writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count).unwrap();
            writeln!(out, "{name}_sum {}", h.sum).unwrap();
            writeln!(out, "{name}_count {}", h.count).unwrap();
        }
        out.push_str("# EOF\n");
        out
    }
}

/// Checks that `text` is well-formed OpenMetrics as produced by
/// [`MetricsSnapshot::render_openmetrics`]: every sample line parses
/// as `name[{labels}] value`, every sample belongs to a family
/// declared by a preceding `# TYPE`, histogram `_count` equals the
/// `+Inf` bucket, and the exposition ends with `# EOF`. Returns the
/// number of sample lines. Used by the CLI smoke tests; CI re-checks
/// with an independent parser.
pub fn validate_openmetrics(text: &str) -> Result<usize, String> {
    let mut families: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    let mut samples = 0usize;
    let mut saw_eof = false;
    let mut inf_bucket: std::collections::BTreeMap<String, u64> = Default::default();
    let mut hist_count: std::collections::BTreeMap<String, u64> = Default::default();
    for (ln, line) in text.lines().enumerate() {
        let err = |m: &str| format!("line {}: {m}: {line:?}", ln + 1);
        if saw_eof {
            return Err(err("content after # EOF"));
        }
        if line == "# EOF" {
            saw_eof = true;
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut it = rest.splitn(3, ' ');
            let kw = it.next().unwrap_or("");
            let fam = it.next().ok_or_else(|| err("bare comment"))?;
            match kw {
                "TYPE" => {
                    families.insert(fam);
                }
                "HELP" => {
                    if !families.contains(fam) {
                        return Err(err("HELP before TYPE"));
                    }
                }
                _ => return Err(err("unknown comment keyword")),
            }
            continue;
        }
        let (name_part, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| err("sample line without value"))?;
        value
            .parse::<f64>()
            .map_err(|_| err("unparseable sample value"))?;
        let bare = name_part.split('{').next().unwrap_or(name_part);
        let family = bare
            .strip_suffix("_total")
            .or_else(|| bare.strip_suffix("_bucket"))
            .or_else(|| bare.strip_suffix("_sum"))
            .or_else(|| bare.strip_suffix("_count"))
            .unwrap_or(bare);
        if !families.contains(family) {
            return Err(err("sample for undeclared family"));
        }
        if name_part.contains("le=\"+Inf\"") {
            inf_bucket.insert(family.to_string(), value.parse::<u64>().unwrap_or(0));
        }
        if bare.ends_with("_count") {
            hist_count.insert(family.to_string(), value.parse::<u64>().unwrap_or(0));
        }
        samples += 1;
    }
    if !saw_eof {
        return Err("missing # EOF terminator".into());
    }
    for (fam, count) in &hist_count {
        if inf_bucket.get(fam) != Some(count) {
            return Err(format!("{fam}: _count does not match +Inf bucket"));
        }
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{with_metrics, with_metrics_clocked, Telemetry};

    #[test]
    fn catalog_names_unique_and_prefixed() {
        let mut names: Vec<&str> = Counter::ALL
            .iter()
            .map(|c| c.name())
            .chain(Gauge::ALL.iter().map(|g| g.name()))
            .chain(Histo::ALL.iter().map(|h| h.name()))
            .collect();
        for n in &names {
            assert!(n.starts_with("rips_"), "{n} must be rips_-prefixed");
            assert!(
                n.bytes()
                    .all(|b| b == b'_' || b.is_ascii_lowercase() || b.is_ascii_digit()),
                "{n} must be a valid OpenMetrics name"
            );
            // Reserved suffixes would collide with sample-name suffixes.
            for suffix in ["_total", "_bucket", "_sum", "_count"] {
                assert!(!n.ends_with(suffix), "{n} ends with reserved {suffix}");
            }
        }
        let len = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(len, names.len(), "duplicate metric family names");
    }

    #[test]
    fn log2_bucketing_brackets_each_sample() {
        let reg = MetricsRegistry::new(1);
        for v in [0u64, 1, 2, 3, 4, 1023, 1024, 1 << 40, u64::MAX] {
            reg.observe(0, Histo::GrainExecNs, v);
        }
        let snap = reg.snapshot();
        let h = snap.histo(Histo::GrainExecNs);
        assert_eq!(h.count, 9);
        // v=0 -> bucket 0; v=1 -> bucket 1; v=2,3 -> bucket 2; v=4 -> 3.
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 2);
        assert_eq!(h.buckets[3], 1);
        assert_eq!(h.buckets[10], 1, "1023 has bit length 10");
        assert_eq!(h.buckets[11], 1, "1024 has bit length 11");
        assert_eq!(h.buckets[HIST_BUCKETS - 1], 1, "u64::MAX clamps to top");
        assert!(h.quantile_ub(0.5) <= 7);
    }

    #[test]
    fn shards_aggregate_and_wrap() {
        let reg = MetricsRegistry::new(4);
        for shard in 0..8 {
            reg.add(shard, Counter::TasksExecuted, 10);
        }
        assert_eq!(reg.counter_total(Counter::TasksExecuted), 80);
        let per = reg.counter_per_shard(Counter::TasksExecuted);
        assert_eq!(per, vec![20, 20, 20, 20], "shard ids wrap mod len");
        reg.set_gauge(1, Gauge::QueueDepth, 7);
        reg.set_gauge(2, Gauge::QueueDepth, 3);
        let snap = reg.snapshot();
        assert_eq!(
            snap.gauges
                .iter()
                .find(|(g, _)| *g == Gauge::QueueDepth)
                .unwrap()
                .1,
            7
        );
    }

    #[test]
    fn meter_off_is_inert_and_install_restores() {
        let off = Telemetry::default();
        assert!(!off.metered());
        off.add_at(0, Counter::TasksExecuted, 1);
        off.observe_at(0, Histo::GrainExecNs, 99);
        assert!(off.now_ns().is_none());
        assert!(!Telemetry::current().metered());

        let reg = MetricsRegistry::new(2);
        with_metrics(&reg, || {
            let m = Telemetry::current();
            assert!(m.metered());
            assert!(m.now_ns().is_none(), "unclocked install has no clock");
            m.add_at(1, Counter::TasksExecuted, 1);
        });
        assert!(!Telemetry::current().metered(), "install restored");
        assert_eq!(reg.counter_per_shard(Counter::TasksExecuted), [0, 1]);
    }

    #[test]
    fn clocked_install_times_sections() {
        let reg = MetricsRegistry::new(1);
        let clock = Arc::new(ManualNs::new());
        let tick: Arc<ManualNs> = Arc::clone(&clock);
        with_metrics_clocked(&reg, clock, || {
            let m = Telemetry::current();
            let t0 = m.now_ns().expect("clock installed");
            tick.advance(1500);
            let dt = m.now_ns().unwrap() - t0;
            m.observe_at(0, Histo::DispatchRoundNs, dt);
        });
        let snap = reg.snapshot();
        let h = snap.histo(Histo::DispatchRoundNs);
        assert_eq!((h.count, h.sum), (1, 1500));
    }

    #[test]
    fn render_is_valid_openmetrics_with_full_catalog() {
        let reg = MetricsRegistry::new(2);
        reg.add(0, Counter::MsgsSent, 42);
        reg.observe(1, Histo::TransportSendNs, 300);
        reg.set_gauge(0, Gauge::RingDepth, 5);
        let text = reg.snapshot().render_openmetrics();
        let samples = validate_openmetrics(&text).expect("well-formed OpenMetrics");
        assert!(samples >= Counter::COUNT + Gauge::COUNT + 3 * Histo::COUNT);
        assert!(text.contains("rips_msgs_sent_total 42"));
        assert!(text.contains("rips_ring_depth 5"));
        assert!(text.contains("rips_transport_send_ns_count 1"));
        for c in Counter::ALL {
            assert!(text.contains(c.name()), "{} missing from render", c.name());
        }
        assert!(text.ends_with("# EOF\n"));
    }

    #[test]
    fn validator_rejects_malformed_text() {
        assert!(
            validate_openmetrics("rips_x_total 1\n# EOF\n").is_err(),
            "undeclared family"
        );
        assert!(
            validate_openmetrics("# TYPE rips_x counter\nrips_x_total 1\n").is_err(),
            "no EOF"
        );
        assert!(
            validate_openmetrics("# TYPE rips_x counter\nrips_x_total abc\n# EOF\n").is_err(),
            "bad value"
        );
    }
}
