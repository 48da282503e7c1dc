//! Per-tenant and aggregate serving statistics.

use rips_trace::{Hist, Json};

/// Latency percentiles summarized from one [`Hist`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Median job latency (µs, submission → completion).
    pub p50_us: u64,
    /// 95th percentile (µs).
    pub p95_us: u64,
    /// 99th percentile (µs).
    pub p99_us: u64,
    /// Worst job (µs).
    pub max_us: u64,
    /// Mean (µs).
    pub mean_us: f64,
}

impl LatencySummary {
    /// Summarizes a histogram of per-job latencies.
    pub fn from_hist(h: &mut Hist) -> LatencySummary {
        let [p50_us, p95_us, p99_us] = h.percentiles([50, 95, 99]);
        LatencySummary {
            p50_us,
            p95_us,
            p99_us,
            max_us: h.max(),
            mean_us: h.mean(),
        }
    }
}

/// One tenant's view of the run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantStats {
    /// Tenant id.
    pub tenant: u32,
    /// Jobs offered.
    pub submitted: u64,
    /// Jobs admission rejected.
    pub shed: u64,
    /// Jobs served to completion.
    pub completed: u64,
    /// High-water mark of this tenant's admitted-but-undispatched
    /// jobs (never exceeds the tenant quota).
    pub peak_pending: u64,
    /// Latency of this tenant's completed jobs.
    pub latency: LatencySummary,
}

/// The outcome of one serve run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Roster scheduler that served the fleet.
    pub scheduler: String,
    /// Backend label (`"desim"` / `"live"`).
    pub backend: String,
    /// Arrival-process label.
    pub process: String,
    /// Per-tenant breakdown, in tenant order.
    pub tenants: Vec<TenantStats>,
    /// Total jobs offered.
    pub submitted: u64,
    /// Total jobs shed.
    pub shed: u64,
    /// Total jobs completed.
    pub completed: u64,
    /// Tasks executed across all completed jobs.
    pub executed_tasks: u64,
    /// Aggregate latency over all completed jobs.
    pub latency: LatencySummary,
    /// Serve-timeline instant of the last completion (µs).
    pub makespan_us: u64,
    /// Sustained completion throughput over the makespan.
    pub jobs_per_sec: f64,
    /// `shed / submitted` (0 when nothing was offered).
    pub shed_rate: f64,
    /// High-water mark of the fleet-wide pending queue (never exceeds
    /// the admission bound).
    pub peak_pending: u64,
}

impl ServeReport {
    /// Multi-line human rendering (the `rips serve` output).
    pub fn render_human(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "serve: {} on {} | {} arrivals | {} jobs offered, {} completed, {} shed ({:.1}%)\n",
            self.scheduler,
            self.backend,
            self.process,
            self.submitted,
            self.completed,
            self.shed,
            self.shed_rate * 100.0,
        ));
        s.push_str(&format!(
            "  throughput {:.2} jobs/s | makespan {:.3} s | peak pending {} | tasks executed {}\n",
            self.jobs_per_sec,
            self.makespan_us as f64 / 1e6,
            self.peak_pending,
            self.executed_tasks,
        ));
        s.push_str(&format!(
            "  latency p50 {} µs | p95 {} µs | p99 {} µs | max {} µs\n",
            self.latency.p50_us, self.latency.p95_us, self.latency.p99_us, self.latency.max_us,
        ));
        s.push_str("  tenant  submitted  shed  completed  peak  p50_us  p95_us  p99_us\n");
        for t in &self.tenants {
            s.push_str(&format!(
                "  {:>6}  {:>9}  {:>4}  {:>9}  {:>4}  {:>6}  {:>6}  {:>6}\n",
                t.tenant,
                t.submitted,
                t.shed,
                t.completed,
                t.peak_pending,
                t.latency.p50_us,
                t.latency.p95_us,
                t.latency.p99_us,
            ));
        }
        s
    }

    /// JSON object.
    pub fn to_json(&self) -> String {
        fn latency(j: &mut Json, l: &LatencySummary) {
            j.key("p50_us").u64(l.p50_us).key("p95_us").u64(l.p95_us);
            j.key("p99_us").u64(l.p99_us).key("max_us").u64(l.max_us);
            j.key("mean_us").f64(l.mean_us, 1);
        }
        let mut j = Json::new();
        j.obj().key("scheduler").str(&self.scheduler);
        j.key("backend").str(&self.backend);
        j.key("process").str(&self.process);
        j.key("submitted").u64(self.submitted);
        j.key("shed").u64(self.shed);
        j.key("completed").u64(self.completed);
        j.key("executed_tasks").u64(self.executed_tasks);
        latency(&mut j, &self.latency);
        j.key("makespan_us").u64(self.makespan_us);
        j.key("jobs_per_s").f64(self.jobs_per_sec, 4);
        j.key("shed_rate").f64(self.shed_rate, 4);
        j.key("peak_pending").u64(self.peak_pending);
        j.key("tenants").arr();
        for t in &self.tenants {
            j.obj().key("tenant").u64(t.tenant.into());
            j.key("submitted").u64(t.submitted).key("shed").u64(t.shed);
            j.key("completed").u64(t.completed);
            j.key("peak_pending").u64(t.peak_pending);
            latency(&mut j, &t.latency);
            j.end();
        }
        j.end().end();
        j.finish()
    }
}
